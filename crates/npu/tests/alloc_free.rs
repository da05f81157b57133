//! Steady-state allocation freedom of the NPU hot loops.
//!
//! The forward and training kernels are built around caller-owned
//! scratch buffers precisely so the hot loops never touch the allocator.
//! This binary installs a counting `#[global_allocator]` (per-thread
//! counters, so parallel test execution cannot cross-contaminate) and
//! pins that contract: a properly pre-sized forward pass performs zero
//! allocations, and training's allocation count is
//! independent of the epoch count — every per-epoch buffer is reused.

use mithra_npu::mlp::{Activation, BatchScratch, ForwardScratch, Mlp};
use mithra_npu::topology::Topology;
use mithra_npu::train::{TrainScratch, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

fn test_mlp(shape: &[usize]) -> Mlp {
    let topology = Topology::new(shape).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let weights: Vec<f32> = (0..topology.weight_count())
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let biases: Vec<f32> = (0..topology.bias_count())
        .map(|_| rng.gen_range(-0.5f32..0.5))
        .collect();
    Mlp::from_parameters(topology, &weights, &biases, Activation::Sigmoid).unwrap()
}

#[test]
fn forward_is_allocation_free_with_presized_scratch() {
    let mlp = test_mlp(&[9, 8, 1]);
    let input = [0.25f32; 9];
    let mut scratch = ForwardScratch::for_topology(mlp.topology());
    let (allocs, _) = allocs_during(|| {
        for _ in 0..32 {
            mlp.forward_into(&input, &mut scratch).unwrap();
        }
    });
    assert_eq!(allocs, 0, "forward allocated");
}

#[test]
fn batched_forward_is_allocation_free_after_warmup() {
    let mlp = test_mlp(&[6, 8, 3, 1]);
    let count = 20; // off the tile boundary: pad lanes in the last group
    let mut rng = StdRng::seed_from_u64(7);
    let inputs: Vec<f32> = (0..count * 6)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let mut scratch = BatchScratch::for_topology(mlp.topology());
    let mut outputs = Vec::new();
    // One warm pass sizes the output vector; steady state reuses it.
    mlp.forward_batch_into(&inputs, count, &mut outputs, &mut scratch)
        .unwrap();
    let (allocs, _) = allocs_during(|| {
        for _ in 0..16 {
            mlp.forward_batch_into(&inputs, count, &mut outputs, &mut scratch)
                .unwrap();
        }
    });
    assert_eq!(allocs, 0, "batched forward allocated");
}

/// Training's allocation count must not scale with epochs: everything
/// the epoch loop touches lives in [`TrainScratch`] and is reused. The
/// counts are compared exactly — one stray per-epoch `Vec` would show up
/// as a difference of at least three.
#[test]
fn training_allocations_are_epoch_independent() {
    let topology = Topology::new(&[2, 8, 2]).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let samples: Vec<(Vec<f32>, Vec<f32>)> = (0..40)
        .map(|_| {
            (
                vec![rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)],
                vec![rng.gen_range(0.0f32..1.0), rng.gen_range(0.0f32..1.0)],
            )
        })
        .collect();
    let count_for = |epochs: usize| {
        let mut scratch = TrainScratch::for_topology(&topology);
        let (allocs, mlp) = allocs_during(|| {
            Trainer::new(topology.clone())
                .epochs(epochs)
                .seed(5)
                .batch_size(10)
                .train_with_scratch(&samples, &mut scratch)
                .unwrap()
        });
        drop(mlp);
        allocs
    };
    let one = count_for(1);
    let four = count_for(4);
    assert_eq!(
        one, four,
        "allocation count scales with epochs ({one} vs {four})"
    );
}

/// The tile step at the neural classifier's batch size allocates
/// nothing once [`TrainScratch::for_topology`] has sized every buffer,
/// the sample-major staging copy included. Zero, one and six epochs cost
/// exactly the same set-up allocations (network, velocities, shuffle
/// order, the per-call sample matrices), and a presized scratch is not
/// rebuilt, so it allocates less
/// than an empty one that `train_with_scratch` must size first.
#[test]
fn scalar_tile_step_is_allocation_free_after_presizing() {
    let topology = Topology::new(&[18, 32, 2]).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    // Three full batches of 32 and a final batch of four live lanes.
    let samples: Vec<(Vec<f32>, Vec<f32>)> = (0..100)
        .map(|_| {
            (
                (0..18).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
                vec![1.0, 0.0],
            )
        })
        .collect();
    let count_for = |epochs: usize, mut scratch: TrainScratch| {
        allocs_during(|| {
            Trainer::new(topology.clone())
                .epochs(epochs)
                .learning_rate(0.5)
                .batch_size(32)
                .output_activation(Activation::Sigmoid)
                .train_with_scratch(&samples, &mut scratch)
                .unwrap()
        })
        .0
    };
    let presized = |epochs: usize| count_for(epochs, TrainScratch::for_topology(&topology));
    let setup = presized(0);
    assert_eq!(presized(1), setup, "one epoch of tile steps allocated");
    assert_eq!(presized(6), setup, "six epochs of tile steps allocated");
    assert!(
        count_for(1, TrainScratch::new()) > setup,
        "an empty scratch must be sized on first use"
    );
}
