//! Profiling: the cached per-invocation data the compiler's statistical
//! optimization runs over.
//!
//! Algorithm 1 instruments the program to run *both* the precise function
//! and the accelerator for every invocation, then re-evaluates final
//! quality at each candidate threshold. Re-running the accelerator per
//! candidate would repeat identical work, so the profiler executes both
//! paths **once** per dataset and caches the precise outputs, accelerator
//! outputs and per-invocation accelerator error; threshold candidates then
//! only re-mix cached outputs and re-run the (cheap) application layer.
//! This is an implementation optimization of the paper's loop, not a
//! semantic change.

use crate::classifier::{Classifier, Decision};
use crate::function::{AcceleratedFunction, InvokeScratch};
use crate::Result;
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::{Dataset, OutputBuffer};

/// Invocations per accelerator batch inside [`DatasetProfile::collect`].
/// Large enough to amortize one weight-matrix traversal per lane tile,
/// small enough that the staging buffers stay cache-resident.
const PROFILE_BLOCK: usize = 64;

/// Cached profile of one dataset: inputs, both output streams, and the
/// per-invocation accelerator error.
///
/// Profiles dominate a compile session's memory and cache footprint, so
/// the artifact cache stores them in the flat binary format of
/// [`crate::cache::encode_profiles`] rather than through serde.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    dataset: Dataset,
    precise: OutputBuffer,
    approx: OutputBuffer,
    max_err: Vec<f32>,
    final_precise: Vec<f64>,
}

/// Outcome of replaying a dataset under some filtering policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// Final-output quality loss versus the all-precise run.
    pub quality_loss: f64,
    /// Invocations delegated to the accelerator.
    pub invoked: usize,
    /// Total invocations.
    pub total: usize,
}

impl ReplayOutcome {
    /// Fraction of invocations delegated to the accelerator.
    pub fn invocation_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.invoked as f64 / self.total as f64
        }
    }
}

impl DatasetProfile {
    /// Profiles one dataset: runs the precise function and the accelerator
    /// for every invocation and caches everything the optimizer needs.
    ///
    /// The accelerator side runs through
    /// [`AcceleratedFunction::approx_batch_with`] in blocks of
    /// 64 invocations, eight to a lane-parallel tile; per-invocation
    /// results are bit-identical to the one-at-a-time loop, so batching
    /// moves no pinned number.
    pub fn collect(function: &AcceleratedFunction, dataset: Dataset) -> Self {
        let bench = function.benchmark();
        let n = dataset.invocation_count();
        let in_dim = dataset.input_dim();
        let out_dim = bench.output_dim();
        let mut precise = OutputBuffer::with_capacity(out_dim, n);
        let mut approx = OutputBuffer::with_capacity(out_dim, n);
        let mut max_err = Vec::with_capacity(n);
        let mut p = Vec::new();
        let mut block_out = Vec::new();
        // One scratch across the whole dataset: the profiling loop is the
        // compile path's hottest, and per-invocation allocation would
        // dominate the network arithmetic.
        let mut scratch = InvokeScratch::new();
        let flat = dataset.as_flat();
        let mut base = 0;
        while base < n {
            let count = PROFILE_BLOCK.min(n - base);
            function.approx_batch_with(
                &flat[base * in_dim..(base + count) * in_dim],
                count,
                &mut block_out,
                &mut scratch,
            );
            for j in 0..count {
                let input = dataset.input(base + j);
                function.precise_into(input, &mut p);
                let a = &block_out[j * out_dim..(j + 1) * out_dim];
                max_err.push(function.max_normalized_error_with(&p, a, &mut scratch));
                precise.push(&p);
                approx.push(a);
            }
            base += count;
        }
        let final_precise = bench.run_application(&dataset, &precise);
        Self {
            dataset,
            precise,
            approx,
            max_err,
            final_precise,
        }
    }

    /// Reassembles a profile from its stored parts (the artifact cache's
    /// deserialization path).
    ///
    /// # Panics
    ///
    /// Panics if the part lengths disagree on the invocation count — a
    /// corrupt artifact must be rejected by the decoder before this.
    pub fn from_parts(
        dataset: Dataset,
        precise: OutputBuffer,
        approx: OutputBuffer,
        max_err: Vec<f32>,
        final_precise: Vec<f64>,
    ) -> Self {
        let n = dataset.invocation_count();
        assert_eq!(precise.len(), n, "precise output count mismatch");
        assert_eq!(approx.len(), n, "approx output count mismatch");
        assert_eq!(max_err.len(), n, "error count mismatch");
        Self {
            dataset,
            precise,
            approx,
            max_err,
            final_precise,
        }
    }

    /// The profiled dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Number of profiled invocations.
    pub fn invocation_count(&self) -> usize {
        self.max_err.len()
    }

    /// The accelerator error of invocation `i` (normalized max-element).
    pub fn max_error(&self, i: usize) -> f32 {
        self.max_err[i]
    }

    /// All per-invocation accelerator errors.
    pub fn errors(&self) -> &[f32] {
        &self.max_err
    }

    /// The cached precise output of invocation `i`.
    pub fn precise_output(&self, i: usize) -> &[f32] {
        self.precise.get(i)
    }

    /// The cached accelerator output of invocation `i`.
    pub fn approx_output(&self, i: usize) -> &[f32] {
        self.approx.get(i)
    }

    /// The whole precise output stream.
    pub fn precise_outputs(&self) -> &OutputBuffer {
        &self.precise
    }

    /// The whole accelerator output stream.
    pub fn approx_outputs(&self) -> &OutputBuffer {
        &self.approx
    }

    /// The final application output of the all-precise run.
    pub fn final_precise(&self) -> &[f64] {
        &self.final_precise
    }

    /// Replays the dataset with the **oracle filter at `threshold`**: an
    /// invocation uses the accelerator exactly when its measured error is
    /// within the threshold (this is what Algorithm 1's instrumented run
    /// computes).
    pub fn replay_with_threshold(
        &self,
        function: &AcceleratedFunction,
        threshold: f32,
    ) -> ReplayOutcome {
        self.replay_with(function, |i, _input| {
            Decision::from_reject(self.max_err[i] > threshold)
        })
    }

    /// Replays the dataset with an arbitrary per-invocation policy,
    /// consulted once per invocation in index order.
    pub fn replay_with(
        &self,
        function: &AcceleratedFunction,
        mut policy: impl FnMut(usize, &[f32]) -> Decision,
    ) -> ReplayOutcome {
        replay_mixture(function.benchmark().as_ref(), &[self], |i| {
            (policy(i, self.dataset.input(i)) == Decision::Approximate).then_some((0, i))
        })
        .expect("a profile's own outputs always score")
    }

    /// Replays the dataset driving a [`Classifier`], optionally applying
    /// online updates every `online_update_period` invocations (0 = no
    /// updates) using the measured error at `threshold` — the paper's
    /// sporadic error sampling.
    pub fn replay_with_classifier(
        &self,
        function: &AcceleratedFunction,
        classifier: &mut dyn Classifier,
        threshold: f32,
        online_update_period: usize,
    ) -> ReplayOutcome {
        self.replay_with(function, |i, input| {
            let decision = classifier.classify(i, input);
            if online_update_period > 0 && i % online_update_period == 0 {
                classifier.observe(i, input, self.max_err[i] > threshold);
            }
            decision
        })
    }

    /// Per-element final error of the full-approximation run — the sample
    /// Figure 1 plots.
    pub fn full_approx_element_errors(&self, function: &AcceleratedFunction) -> Vec<f64> {
        let bench = function.benchmark();
        let final_approx = bench.run_application(&self.dataset, &self.approx);
        bench
            .quality_metric()
            .element_errors(&self.final_precise, &final_approx)
    }

    /// The oracle decision (reject?) of every invocation at `threshold` —
    /// ground truth for false-positive/negative accounting.
    pub fn oracle_rejects(&self, threshold: f32) -> Vec<bool> {
        self.max_err.iter().map(|&e| e > threshold).collect()
    }
}

/// The invocation count shared by every profile in `members` — per-member
/// profiles of one dataset, cheapest pool member first.
///
/// # Errors
///
/// Returns [`crate::MithraError::InsufficientData`] for an empty slice or
/// members that disagree on the invocation count.
pub fn common_invocation_count(members: &[&DatasetProfile]) -> Result<usize> {
    let insufficient = |available, needed| crate::MithraError::InsufficientData {
        stage: "routed mixture replay",
        available,
        needed,
    };
    let n = members
        .first()
        .ok_or(insufficient(0, 1))?
        .invocation_count();
    match members.iter().find(|p| p.invocation_count() != n) {
        Some(p) => Err(insufficient(p.invocation_count(), n)),
        None => Ok(n),
    }
}

/// The one mixing replay behind every replay entry point, binary and
/// routed: builds the mixed output stream of one dataset, runs the
/// application layer over it and scores final quality against the
/// all-precise run.
///
/// `members[m]` is pool member `m`'s profile of the dataset (a binary
/// replay is the pool of one). `source(i)`, called once per invocation in
/// index order, names where invocation `i`'s output comes from: `None` is
/// the precise output, `Some((m, j))` member `m`'s cached accelerator
/// output of invocation `j` — `j == i` when the member served it, an
/// earlier index for the stale read a FIFO drop leaves behind (the
/// simulator's fault path). `invoked` counts the `Some`s.
///
/// # Errors
///
/// Returns [`crate::MithraError::InsufficientData`] for an empty or
/// mismatched member slice, and an error when the final outputs cannot be
/// scored.
pub fn replay_mixture(
    bench: &dyn Benchmark,
    members: &[&DatasetProfile],
    mut source: impl FnMut(usize) -> Option<(usize, usize)>,
) -> Result<ReplayOutcome> {
    let n = common_invocation_count(members)?;
    let base = members[0];
    let mut mixed = OutputBuffer::with_capacity(bench.output_dim(), n);
    let mut invoked = 0usize;
    for i in 0..n {
        match source(i) {
            Some((m, j)) => {
                invoked += 1;
                mixed.push(members[m].approx.get(j.min(n - 1)));
            }
            None => mixed.push(base.precise.get(i)),
        }
    }
    let final_mixed = bench.run_application(&base.dataset, &mixed);
    let quality_loss = bench
        .quality_metric()
        .try_quality_loss(&base.final_precise, &final_mixed)?;
    Ok(ReplayOutcome {
        quality_loss,
        invoked,
        total: n,
    })
}

/// The default worker-thread count: the machine's available parallelism
/// (4 when it cannot be queried). One `--threads` flag governs both
/// parallel profiling here and the serving worker pool in `mithra-serve`,
/// and this is the value both default to.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Profiles `count` seeded datasets in parallel across worker threads.
///
/// `threads` overrides the worker count (`None` or `Some(0)` = available
/// parallelism via [`default_threads`]; always clamped to `count`). The
/// request is additionally bounded by
/// [`crate::parallel::work_bounded_threads`] over the job's total
/// invocation count, so small jobs — where thread setup costs more than
/// the arithmetic — run sequentially even under `--threads 2`.
/// Dataset `i` uses seed `seed_base + i`, exactly as the sequential loop
/// would. Each profile is computed independently from its own dataset, so
/// the result is bit-identical to calling [`DatasetProfile::collect`]
/// sequentially — parallelism changes wall time only, never the numbers.
pub fn collect_profiles_parallel(
    function: &AcceleratedFunction,
    seed_base: u64,
    count: usize,
    scale: mithra_axbench::dataset::DatasetScale,
    threads: Option<usize>,
) -> Vec<DatasetProfile> {
    // Invocation count is constant across seeds for a benchmark/scale, so
    // one probe dataset prices the whole job.
    let per_dataset = if count == 0 {
        0
    } else {
        function.dataset(seed_base, scale).invocation_count()
    };
    let bounded = crate::parallel::work_bounded_threads(threads, per_dataset * count);
    crate::parallel::par_map_indexed(count, Some(bounded), |i| {
        let ds = function.dataset(seed_base + i as u64, scale);
        DatasetProfile::collect(function, ds)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::NpuTrainConfig;
    use mithra_axbench::benchmark::Benchmark;
    use mithra_axbench::dataset::DatasetScale;
    use mithra_axbench::suite;
    use std::sync::Arc;

    fn profile_for(name: &str) -> (AcceleratedFunction, DatasetProfile) {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        let datasets: Vec<Dataset> = (0..2)
            .map(|s| bench.dataset(s, DatasetScale::Smoke))
            .collect();
        let f = AcceleratedFunction::train(
            bench,
            &datasets,
            &NpuTrainConfig {
                epochs: Some(25),
                max_samples: 1500,
                seed: 3,
            },
        )
        .unwrap();
        let ds = f.dataset(100, DatasetScale::Smoke);
        let p = DatasetProfile::collect(&f, ds);
        (f, p)
    }

    #[test]
    fn infinite_threshold_is_full_approximation() {
        let (f, p) = profile_for("sobel");
        let replay = p.replay_with_threshold(&f, f32::INFINITY);
        assert_eq!(replay.invoked, replay.total);
        assert!(replay.quality_loss > 0.0, "approximation should be lossy");
    }

    #[test]
    fn negative_threshold_is_all_precise() {
        let (f, p) = profile_for("sobel");
        let replay = p.replay_with_threshold(&f, -1.0);
        assert_eq!(replay.invoked, 0);
        assert_eq!(replay.quality_loss, 0.0);
        assert_eq!(replay.invocation_rate(), 0.0);
    }

    #[test]
    fn tighter_threshold_never_invokes_more() {
        let (f, p) = profile_for("inversek2j");
        let loose = p.replay_with_threshold(&f, 0.2);
        let tight = p.replay_with_threshold(&f, 0.05);
        assert!(tight.invoked <= loose.invoked);
    }

    #[test]
    fn oracle_rejects_match_threshold_replay() {
        let (f, p) = profile_for("blackscholes");
        let th = 0.05;
        let rejects = p.oracle_rejects(th);
        let replay = p.replay_with_threshold(&f, th);
        let expected_invoked = rejects.iter().filter(|&&r| !r).count();
        assert_eq!(replay.invoked, expected_invoked);
    }

    #[test]
    fn parallel_profiling_is_bit_identical_to_sequential() {
        let (f, _) = profile_for("sobel");
        let par = collect_profiles_parallel(&f, 40, 6, DatasetScale::Smoke, None);
        assert_eq!(par.len(), 6);
        for (i, p) in par.iter().enumerate() {
            let ds = f.dataset(40 + i as u64, DatasetScale::Smoke);
            let seq = DatasetProfile::collect(&f, ds);
            assert_eq!(p.dataset(), seq.dataset(), "dataset {i} differs");
            assert_eq!(p.errors(), seq.errors(), "errors {i} differ");
            assert_eq!(p.final_precise(), seq.final_precise(), "finals {i} differ");
        }
        // An explicit thread count changes scheduling only, never results.
        for threads in [Some(1), Some(2), Some(0)] {
            let alt = collect_profiles_parallel(&f, 40, 6, DatasetScale::Smoke, threads);
            for (i, (a, b)) in par.iter().zip(&alt).enumerate() {
                assert_eq!(a.errors(), b.errors(), "threads {threads:?} profile {i}");
            }
        }
    }

    #[test]
    fn routed_replay_matches_replay_with_on_clean_routes() {
        let (f, p) = profile_for("sobel");
        let th = 0.08;
        let rejects = p.oracle_rejects(th);
        let bench = f.benchmark().as_ref();
        let routed = replay_mixture(bench, &[&p], |i| (!rejects[i]).then_some((0, i))).unwrap();
        let direct = p.replay_with_threshold(&f, th);
        assert_eq!(routed.quality_loss, direct.quality_loss);
        assert_eq!(routed.invoked, direct.invoked);
    }

    #[test]
    fn stale_route_degrades_quality() {
        let (f, p) = profile_for("sobel");
        let bench = f.benchmark().as_ref();
        // All approx, but every invocation reads invocation 0's output —
        // the stale read a FIFO drop leaves behind.
        let s = replay_mixture(bench, &[&p], |_| Some((0, 0))).unwrap();
        let fr = replay_mixture(bench, &[&p], |i| Some((0, i))).unwrap();
        assert_eq!(s.invoked, fr.invoked);
        assert!(
            s.quality_loss > fr.quality_loss,
            "stale {} vs fresh {}",
            s.quality_loss,
            fr.quality_loss
        );
    }

    #[test]
    fn element_errors_have_final_output_length() {
        let (f, p) = profile_for("sobel");
        let errs = p.full_approx_element_errors(&f);
        assert_eq!(errs.len(), p.final_precise().len());
        assert!(errs.iter().all(|&e| (0.0..=1.0).contains(&e)));
    }
}
