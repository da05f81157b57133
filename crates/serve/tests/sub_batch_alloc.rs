//! The serving workers allocate per endpoint, not per sub-batch.
//!
//! A worker keeps one set of sub-batch buffers per endpoint it serves:
//! routes, accelerator staging, the charged invocations and the counter
//! delta it folds into the registry. A counting `#[global_allocator]`
//! counts the allocations on every thread but the submitting one, so it sees
//! exactly the workers. Two engines serve N and 4N requests of one
//! endpoint; the 4N engine runs four times the sub-batches, so any
//! per-sub-batch allocation shows up as a difference that grows with N.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_core::pipeline::{compile, CompileConfig, Compiled};
use mithra_core::profile::DatasetProfile;
use mithra_serve::{EndpointSpec, Request, ServeConfig, ServeEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized: reading it from inside `alloc` must not itself
    // allocate.
    static SUBMITTER: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    let submitter = SUBMITTER.try_with(Cell::get).unwrap_or(false);
    if ARMED.load(Ordering::Relaxed) && !submitter {
        WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Requests a worker drains per queue visit.
const BATCH: usize = 8;

/// Allocations the N and 4N engines may differ by on one worker: one
/// more growth step of a few buffers, never one per sub-batch.
const SLACK: u64 = 16;

/// Worker-thread allocations of one engine's life: start, serving
/// invocations `0..n` (offered in one queue operation, so workers pop
/// full batches), and join.
fn worker_allocs(
    compiled: &Arc<Compiled>,
    profile: &DatasetProfile,
    workers: usize,
    n: usize,
) -> u64 {
    let requests: Vec<Request> = (0..n)
        .map(|invocation| Request {
            endpoint: 0,
            invocation,
        })
        .collect();
    let spec = EndpointSpec {
        name: "endpoint".into(),
        compiled: Arc::clone(compiled),
        profile: profile.clone(),
        routed: None,
    };
    let config = ServeConfig {
        workers,
        batch: BATCH,
        queue_depth: n,
        watchdog_period: 4,
        ..ServeConfig::default()
    };
    WORKER_ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let engine = ServeEngine::start(vec![spec], &config).unwrap();
    assert_eq!(engine.submit_batch(&requests).unwrap(), n);
    let drained = engine.join().unwrap();
    ARMED.store(false, Ordering::SeqCst);
    let report = drained.report().unwrap();
    assert_eq!(report.endpoints[0].counters.served, n as u64);
    WORKER_ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn worker_allocations_do_not_grow_with_served_requests() {
    SUBMITTER.with(|d| d.set(true));
    let bench: Arc<dyn Benchmark> = suite::by_name("inversek2j").unwrap().into();
    let compiled = Arc::new(compile(bench, &CompileConfig::smoke()).unwrap());
    let dataset = compiled.function.dataset(900_000, DatasetScale::Full);
    let profile = DatasetProfile::collect(&compiled.function, dataset);
    let n = profile.invocation_count() / 4;
    assert!(n >= 64 * BATCH, "{n} requests make too few sub-batches");
    // Engines run their workers on parked threads, spawning one only
    // when none is parked. Park as many as the widest engine below uses,
    // so no measured engine pays a thread's start-up.
    worker_allocs(&compiled, &profile, 2, BATCH);
    // One worker's fixed cost: its endpoint context and the first growth
    // of its buffers, all spent serving a single sub-batch.
    let worker_fixed = worker_allocs(&compiled, &profile, 1, BATCH);
    for workers in [1, 2] {
        let small = worker_allocs(&compiled, &profile, workers, n);
        let large = worker_allocs(&compiled, &profile, workers, 4 * n);
        // The large engine runs 3n/BATCH more sub-batches; a buffer per
        // sub-batch would add at least that many allocations. With more
        // than one worker, a worker that happened to serve nothing in one
        // engine but not the other moves the count by its fixed cost.
        let extra_sub_batches = (3 * n / BATCH) as u64;
        let bound = SLACK + (workers as u64 - 1) * worker_fixed;
        assert!(bound < extra_sub_batches / 2, "{bound} cannot tell");
        assert!(
            large.abs_diff(small) <= bound,
            "{workers} workers: {small} allocations for {n} requests, {large} for {} \
             ({extra_sub_batches} more sub-batches)",
            4 * n
        );
    }
}
