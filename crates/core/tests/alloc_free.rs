//! Steady-state allocation freedom of the invocation hot path.
//!
//! The profiler and the serve engine call [`AcceleratedFunction`]
//! millions of times per run; their contract is that a warmed
//! [`InvokeScratch`] absorbs every buffer, leaving the per-invocation
//! and per-batch paths allocation-free. A counting `#[global_allocator]`
//! with per-thread counters pins that here, and for the table
//! classifier's and router's per-invocation decide.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::{Dataset, DatasetScale};
use mithra_axbench::suite;
use mithra_core::classifier::Classifier;
use mithra_core::function::{AcceleratedFunction, InvokeScratch, NpuTrainConfig};
use mithra_core::misr::InputQuantizer;
use mithra_core::route::RouteClassifier;
use mithra_core::table::{TableClassifier, TableDesign};
use mithra_core::training::TrainingExample;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    // Const-initialized: the first access from inside `alloc` must not
    // itself allocate, or the counter would recurse.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on the calling thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

fn trained_function() -> (AcceleratedFunction, Dataset) {
    let bench: Arc<dyn Benchmark> = suite::by_name("inversek2j").unwrap().into();
    let datasets: Vec<Dataset> = (0..2)
        .map(|s| bench.dataset(s, DatasetScale::Smoke))
        .collect();
    let config = NpuTrainConfig {
        epochs: Some(10),
        max_samples: 500,
        seed: 11,
    };
    let f = AcceleratedFunction::train(Arc::clone(&bench), &datasets, &config).unwrap();
    let serve = bench.dataset(100, DatasetScale::Smoke);
    (f, serve)
}

#[test]
fn approx_invocation_is_allocation_free_after_warmup() {
    let (f, dataset) = trained_function();
    let mut scratch = InvokeScratch::new();
    let mut out = Vec::new();
    // One warm call sizes every buffer in the scratch and the output.
    f.approx_with(dataset.input(0), &mut out, &mut scratch);
    let (allocs, _) = allocs_during(|| {
        for i in 0..64 {
            f.approx_with(
                dataset.input(i % dataset.invocation_count()),
                &mut out,
                &mut scratch,
            );
        }
    });
    assert_eq!(allocs, 0, "approx_with allocated");
}

#[test]
fn batched_approx_is_allocation_free_after_warmup() {
    let (f, dataset) = trained_function();
    let in_dim = dataset.input_dim();
    let count = 20; // off the tile boundary
    let flat = &dataset.as_flat()[..count * in_dim];
    let mut scratch = InvokeScratch::new();
    let mut out = Vec::new();
    f.approx_batch_with(flat, count, &mut out, &mut scratch);
    let (allocs, _) = allocs_during(|| {
        for _ in 0..16 {
            f.approx_batch_with(flat, count, &mut out, &mut scratch);
        }
    });
    assert_eq!(allocs, 0, "approx_batch_with allocated");
}

/// Unseen `inversek2j` inputs to classify.
fn decide_dataset() -> Dataset {
    suite::by_name("inversek2j")
        .unwrap()
        .dataset(100, DatasetScale::Smoke)
}

/// A table classifier trained on `dataset`'s inputs whose rejects follow
/// `reject`.
fn table_classifier(dataset: &Dataset, reject: impl Fn(usize) -> bool) -> TableClassifier {
    let examples: Vec<TrainingExample> = (0..dataset.invocation_count())
        .map(|i| TrainingExample {
            input: dataset.input(i).to_vec(),
            reject: reject(i),
        })
        .collect();
    let quantizer = InputQuantizer::fit(examples.iter().map(|e| &e.input[..]));
    TableClassifier::train(TableDesign::paper_default(), quantizer, &examples).unwrap()
}

#[test]
fn table_decide_is_allocation_free_after_warmup() {
    let dataset = decide_dataset();
    let mut table = table_classifier(&dataset, |i| i % 3 == 0);
    // One warm call sizes the quantization scratch.
    table.decide(dataset.input(0));
    let (allocs, _) = allocs_during(|| {
        for i in 0..dataset.invocation_count() {
            table.decide(dataset.input(i));
            table.classify(i, dataset.input(i));
        }
    });
    assert_eq!(allocs, 0, "TableClassifier::decide allocated");
}

#[test]
fn router_classify_route_is_allocation_free_after_warmup() {
    let dataset = decide_dataset();
    let stages = vec![
        table_classifier(&dataset, |i| i % 2 == 0),
        table_classifier(&dataset, |i| i % 5 == 0),
    ];
    let mut router = RouteClassifier::from_stages(stages);
    // One warm pass sizes every stage's scratch: the inputs stage 0
    // rejects reach stage 1.
    for i in 0..dataset.invocation_count() {
        router.classify_route(i, dataset.input(i));
    }
    let (allocs, _) = allocs_during(|| {
        for i in 0..dataset.invocation_count() {
            router.classify_route(i, dataset.input(i));
        }
    });
    assert_eq!(allocs, 0, "RouteClassifier::classify_route allocated");
}
