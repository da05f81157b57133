//! Bring-up allocates one byte per invocation an endpoint serves.
//!
//! `ServeEngine::start` lowers each endpoint and sizes its slot table,
//! one byte per invocation. A counting `#[global_allocator]` counts the
//! bytes allocated on the thread that calls `start`, which is where the
//! endpoints are built; the workers it spawns are not counted, so what
//! they allocate as they come up cannot move the count. Two engines
//! serve the same artifact over a small and a large dataset: whatever
//! start allocates per endpoint cancels, and what is left is what it
//! allocates per invocation.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_core::pipeline::{compile, CompileConfig, Compiled};
use mithra_core::profile::DatasetProfile;
use mithra_serve::{EndpointSpec, ServeConfig, ServeEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static STARTER_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized: reading it from inside `alloc` must not itself
    // allocate.
    static STARTER: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    let starter = STARTER.try_with(Cell::get).unwrap_or(false);
    if ARMED.load(Ordering::Relaxed) && starter {
        STARTER_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Bytes `ServeEngine::start` allocates on its calling thread for one
/// endpoint serving `profile`.
fn start_bytes(compiled: &Arc<Compiled>, profile: &DatasetProfile, watchdog_period: usize) -> u64 {
    let spec = EndpointSpec {
        name: "endpoint".into(),
        compiled: Arc::clone(compiled),
        profile: profile.clone(),
        routed: None,
    };
    let config = ServeConfig {
        workers: 1,
        watchdog_period,
        ..ServeConfig::default()
    };
    STARTER_BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let engine = ServeEngine::start(vec![spec], &config).unwrap();
    ARMED.store(false, Ordering::SeqCst);
    engine.join().unwrap();
    STARTER_BYTES.load(Ordering::SeqCst)
}

#[test]
fn start_allocates_at_most_one_byte_per_added_invocation() {
    STARTER.with(|s| s.set(true));
    let bench: Arc<dyn Benchmark> = suite::by_name("inversek2j").unwrap().into();
    let compiled = Arc::new(compile(bench, &CompileConfig::smoke()).unwrap());
    let profile = |scale| {
        let dataset = compiled.function.dataset(900_000, scale);
        DatasetProfile::collect(&compiled.function, dataset)
    };
    let small = profile(DatasetScale::Smoke);
    let large = profile(DatasetScale::Full);
    // Only the starting thread is counted, so the count is exact: slots
    // of two bytes or more would exceed the bound by `added` at least.
    let added = (large.invocation_count() - small.invocation_count()) as u64;
    assert!(added > 0, "the datasets must differ in size");
    // A first start pays the process's one-time thread-spawn setup.
    start_bytes(&compiled, &small, 0);
    for watchdog_period in [0, 16] {
        let small_bytes = start_bytes(&compiled, &small, watchdog_period);
        let large_bytes = start_bytes(&compiled, &large, watchdog_period);
        assert!(
            large_bytes <= small_bytes + added,
            "watchdog period {watchdog_period}: start allocated {small_bytes} bytes for {} \
             invocations and {large_bytes} for {}",
            small.invocation_count(),
            large.invocation_count()
        );
    }
}
