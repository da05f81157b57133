//! Deterministic fork–join helper for the compile path's independent axes.
//!
//! [`par_map_indexed`] runs one closure per item index across a bounded
//! set of worker threads and returns results **in item order** — the same
//! contract [`crate::profile::collect_profiles_parallel`] pioneered.
//! Because every item is computed independently (its own scratch buffers,
//! its own derived seed) and the merge is an in-order collection,
//! parallelism changes wall time only, never results. Any floating-point
//! reduction *across* items must stay in the sequential caller, folded
//! over the returned vector in index order.

use crate::profile::default_threads;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum accelerator invocations a worker thread must amortize before
/// forking is worth its setup cost. Below this, thread spawn + cache
/// cold-start outweigh the arithmetic and `--threads 2` runs *slower*
/// than sequential (measured: blackscholes smoke validation-profiling
/// 150→161 ms, fft 76→99 ms).
const MIN_WORK_PER_THREAD: usize = 8192;

/// Clamps a requested worker count by how much work there actually is
/// and by the host's hardware parallelism.
///
/// `requested = None`/`Some(0)` starts from [`default_threads`]. The
/// result never exceeds `total_work / MIN_WORK_PER_THREAD` (so small
/// jobs stay sequential), never exceeds the host's available
/// parallelism (forking past physical cores only adds contention), and
/// is at least 1. `total_work` is in caller-chosen units — profiling
/// passes accelerator invocations.
///
/// Results are unaffected: [`par_map_indexed`] is order-deterministic
/// for any worker count, so this only moves the fork/no-fork decision.
pub fn work_bounded_threads(requested: Option<usize>, total_work: usize) -> usize {
    let requested = requested.filter(|&t| t > 0).unwrap_or_else(default_threads);
    let work_cap = (total_work / MIN_WORK_PER_THREAD).max(1);
    requested.min(work_cap).min(default_threads()).max(1)
}

/// Applies `f` to every index in `0..count` across up to `threads`
/// workers, returning the results in index order.
///
/// `threads = None` or `Some(0)` uses [`default_threads`]; the worker
/// count is always clamped to `count`. With one worker the items run on
/// the calling thread in index order, exactly like a `for` loop — so a
/// `--threads 1` run is the sequential baseline by construction.
///
/// Workers claim indices one at a time from a shared counter, so a few
/// expensive items never queue behind each other on one thread while
/// another sits idle; callers that know their costs submit the dearest
/// first. Each result lands in its own index's slot, so the returned
/// order does not depend on which worker ran what. A panicking item
/// panics the caller once every worker has stopped.
pub fn par_map_indexed<R, F>(count: usize, threads: Option<usize>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads
        .filter(|&t| t > 0)
        .unwrap_or_else(default_threads)
        .min(count.max(1));
    if threads <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The counter only hands out indices; results
                        // reach the caller through `join`, which
                        // synchronizes, so no ordering is needed here.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    for (i, result) in claimed.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [None, Some(1), Some(2), Some(3), Some(8)] {
            let out = par_map_indexed(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = par_map_indexed(0, Some(4), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map_indexed(2, Some(16), |i| i + 1);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn float_fold_over_results_is_bit_identical_for_any_worker_count() {
        // The contract that keeps the work cutoff result-neutral: any
        // cross-item float reduction happens in the caller, folded over
        // the returned vector in index order. Non-associative summation
        // must therefore come out bit-identical for every worker count.
        let item = |i: usize| ((i as f32) * 0.1).sin() * 1e-3 + 1.0 / (i as f32 + 1.0);
        let fold = |v: Vec<f32>| v.into_iter().fold(0.0f32, |acc, x| acc + x);
        let seq = fold(par_map_indexed(257, Some(1), item));
        for threads in [None, Some(2), Some(3), Some(7), Some(64)] {
            let par = fold(par_map_indexed(257, threads, item));
            assert_eq!(seq.to_bits(), par.to_bits(), "threads {threads:?}");
        }
    }

    #[test]
    fn skewed_costs_still_return_in_index_order() {
        // Item 0 is the dearest, as in the neural sweep's widest-first
        // submission: it cannot finish until every other item has, so
        // it completes last. That only terminates if idle workers keep
        // claiming the remaining items while item 0 runs.
        for threads in [2, 3, 8] {
            let finished = AtomicUsize::new(0);
            let out = par_map_indexed(12, Some(threads), |i| {
                if i == 0 {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while finished.load(Ordering::SeqCst) < 11 {
                        assert!(Instant::now() < deadline, "items 1..12 never ran");
                        std::thread::yield_now();
                    }
                } else {
                    finished.fetch_add(1, Ordering::SeqCst);
                }
                i * 3
            });
            assert_eq!(out, (0..12).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        for threads in 1..=8 {
            let calls: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map_indexed(calls.len(), Some(threads), |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, (0..calls.len()).collect::<Vec<_>>());
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        for threads in [Some(1), Some(4)] {
            let caught = std::panic::catch_unwind(|| {
                par_map_indexed(16, threads, |i| {
                    assert_ne!(i, 7, "item 7 fails");
                    i
                })
            });
            let payload = caught.expect_err("the item's panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(message.contains("item 7 fails"), "{message}");
        }
    }

    #[test]
    fn small_jobs_stay_sequential() {
        // Under one MIN_WORK_PER_THREAD quantum no request forks.
        for req in [None, Some(1), Some(2), Some(64)] {
            assert_eq!(work_bounded_threads(req, MIN_WORK_PER_THREAD - 1), 1);
            assert_eq!(work_bounded_threads(req, 0), 1);
        }
    }

    #[test]
    fn explicit_request_is_an_upper_bound() {
        for work in [0, 1, MIN_WORK_PER_THREAD, 100 * MIN_WORK_PER_THREAD] {
            for req in 1..=8 {
                assert!(work_bounded_threads(Some(req), work) <= req);
            }
        }
    }

    #[test]
    fn hardware_parallelism_is_an_upper_bound() {
        let hw = default_threads();
        assert!(work_bounded_threads(Some(1024), 1024 * MIN_WORK_PER_THREAD) <= hw);
    }

    #[test]
    fn large_jobs_honor_the_request_up_to_the_host() {
        let hw = default_threads();
        let got = work_bounded_threads(Some(2), 64 * MIN_WORK_PER_THREAD);
        assert_eq!(got, 2.min(hw));
    }
}
