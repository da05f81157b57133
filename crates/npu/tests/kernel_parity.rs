//! Bit-exactness of the optimized training kernels.
//!
//! The trainer's scalar step runs each minibatch in lane-per-sample
//! tiles of `LANES` samples, with preallocated scratch buffers and
//! transposed weight mirrors for the backward pass; the forward pass uses
//! 4-wide interleaved accumulator chains. None of that may change a
//! single bit of the result: this suite retains the textbook row-major
//! formulation as a naive reference — one sample at a time, allocating
//! forward trace, strided backward pass, no interleaving — and asserts
//! `Trainer::train` matches it exactly across random topologies, seeds,
//! batch sizes (partial tiles and several tiles per batch) and training
//! sets, plus a pinned case at the neural classifier's settings.
//!
//! Every accumulator chain in the optimized kernels performs the same
//! floating-point operations in the same order as the reference; only
//! memory layout and instruction-level parallelism differ. If a future
//! change reorders an accumulation, these tests fail on the first
//! differing weight.

use mithra_npu::kernel::{KernelBackend, LANES, LANE_REMAINDER_CUTOFF};
use mithra_npu::mlp::{Activation, BatchScratch, ForwardScratch, Mlp};
use mithra_npu::topology::Topology;
use mithra_npu::train::Trainer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The textbook forward pass: one fresh buffer per layer, accumulation
/// in ascending input order starting from the bias.
fn naive_forward(
    shape: &[usize],
    weights: &[f32],
    biases: &[f32],
    out_act: Activation,
    input: &[f32],
) -> Vec<Vec<f32>> {
    let mut activations = vec![input.to_vec()];
    let mut w_off = 0;
    let mut b_off = 0;
    for l in 0..shape.len() - 1 {
        let fan_in = shape[l];
        let fan_out = shape[l + 1];
        let act = if l + 2 == shape.len() {
            out_act
        } else {
            Activation::Sigmoid
        };
        let x = activations.last().unwrap().clone();
        let mut out = Vec::with_capacity(fan_out);
        for n in 0..fan_out {
            let mut acc = biases[b_off + n];
            for (i, &xi) in x.iter().enumerate() {
                acc += weights[w_off + n * fan_in + i] * xi;
            }
            out.push(act.apply(acc));
        }
        activations.push(out);
        w_off += fan_in * fan_out;
        b_off += fan_out;
    }
    activations
}

/// The retained reference trainer: identical RNG consumption (Xavier
/// init, then one shuffle per epoch) and identical arithmetic order to
/// `Trainer::train`, expressed in the allocation-heavy row-major style
/// the optimized kernels replaced.
#[allow(clippy::too_many_arguments)]
fn naive_train(
    topology: &Topology,
    samples: &[(Vec<f32>, Vec<f32>)],
    epochs: usize,
    learning_rate: f32,
    momentum: f32,
    batch_size: usize,
    seed: u64,
    out_act: Activation,
) -> (Vec<f32>, Vec<f32>) {
    let shape = topology.layers();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights = Vec::with_capacity(topology.weight_count());
    for l in 0..shape.len() - 1 {
        let bound = (6.0 / (shape[l] + shape[l + 1]) as f32).sqrt();
        for _ in 0..shape[l] * shape[l + 1] {
            weights.push(rng.gen_range(-bound..bound));
        }
    }
    let mut biases = vec![0.0f32; topology.bias_count()];
    let mut w_vel = vec![0.0f32; weights.len()];
    let mut b_vel = vec![0.0f32; biases.len()];

    // Flat offsets of each layer's weight/bias block.
    let mut w_offs = vec![0usize];
    let mut b_offs = vec![0usize];
    for l in 0..shape.len() - 1 {
        w_offs.push(w_offs[l] + shape[l] * shape[l + 1]);
        b_offs.push(b_offs[l] + shape[l + 1]);
    }

    let mut order: Vec<usize> = (0..samples.len()).collect();
    for _epoch in 0..epochs {
        order.shuffle(&mut rng);
        for batch in order.chunks(batch_size) {
            let mut w_grad = vec![0.0f32; weights.len()];
            let mut b_grad = vec![0.0f32; biases.len()];
            for &idx in batch {
                let (x, target) = &samples[idx];
                let acts = naive_forward(shape, &weights, &biases, out_act, x);

                let n_layers = shape.len() - 1;
                let mut deltas: Vec<Vec<f32>> = vec![Vec::new(); n_layers];
                let output = &acts[n_layers];
                deltas[n_layers - 1] = output
                    .iter()
                    .zip(target)
                    .map(|(&o, &t)| (o - t) * out_act.derivative_from_output(o))
                    .collect();

                for l in (0..n_layers).rev() {
                    let fan_in = shape[l];
                    let input = &acts[l];
                    let delta_l = deltas[l].clone();
                    for (n, &d) in delta_l.iter().enumerate() {
                        b_grad[b_offs[l] + n] += d;
                        for (i, &xi) in input.iter().enumerate() {
                            w_grad[w_offs[l] + n * fan_in + i] += d * xi;
                        }
                    }
                    if l > 0 {
                        // Strided row-major propagation: for each lower
                        // neuron i, walk column i of the weight matrix in
                        // ascending upper-neuron order.
                        let mut prev = Vec::with_capacity(fan_in);
                        for i in 0..fan_in {
                            let mut acc = 0.0f32;
                            for (n, &d) in delta_l.iter().enumerate() {
                                acc += d * weights[w_offs[l] + n * fan_in + i];
                            }
                            prev.push(acc * Activation::Sigmoid.derivative_from_output(input[i]));
                        }
                        deltas[l - 1] = prev;
                    }
                }
            }

            let scale = learning_rate / batch.len() as f32;
            for l in 0..shape.len() - 1 {
                let fan_in = shape[l];
                let fan_out = shape[l + 1];
                for n in 0..fan_out {
                    for i in 0..fan_in {
                        let k = w_offs[l] + n * fan_in + i;
                        w_vel[k] = momentum * w_vel[k] - scale * w_grad[k];
                        weights[k] += w_vel[k];
                    }
                    let k = b_offs[l] + n;
                    b_vel[k] = momentum * b_vel[k] - scale * b_grad[k];
                    biases[k] += b_vel[k];
                }
            }
        }
    }
    (weights, biases)
}

/// A small random topology: 2–4 layers, 1–7 neurons each. Widths above 4
/// exercise the quad interleave's main path plus its scalar remainder.
fn topologies() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=7, 2..=4)
}

/// Training topologies: 2–4 layers up to 72 neurons wide, so layers sit
/// below, at and well past one tile of `LANES`, and the gradient fold's
/// register blocks all run: up to two 32-element blocks, an 8-element
/// block and a scalar remainder per row.
fn training_topologies() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=72, 2..=4)
}

/// Random normalized inputs and unit-interval targets for `topology`.
fn random_pairs(topology: &Topology, n: usize, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut data_rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    (0..n)
        .map(|_| {
            (
                (0..topology.inputs())
                    .map(|_| data_rng.gen_range(-1.0f32..1.0))
                    .collect(),
                (0..topology.outputs())
                    .map(|_| data_rng.gen_range(0.0f32..1.0))
                    .collect(),
            )
        })
        .collect()
}

/// Bit-for-bit equality of two parameter vectors. A run that diverges
/// ends in NaNs on both sides; any NaN matches any NaN, because which
/// operand's payload a NaN sum carries is not part of the contract.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// A network's flattened `(weights, biases)`.
type Params = (Vec<f32>, Vec<f32>);

/// Trains with `Trainer` and with the naive reference on the same
/// settings and returns both parameter sets.
#[allow(clippy::too_many_arguments)]
fn trainer_and_reference(
    topology: &Topology,
    samples: &[(Vec<f32>, Vec<f32>)],
    epochs: usize,
    lr: f32,
    momentum: f32,
    batch_size: usize,
    seed: u64,
    out_act: Activation,
) -> (Params, Params) {
    let got = Trainer::new(topology.clone())
        .epochs(epochs)
        .learning_rate(lr)
        .momentum(momentum)
        .batch_size(batch_size)
        .seed(seed)
        .output_activation(out_act)
        .train(samples)
        .unwrap()
        .to_parameters();
    let want = naive_train(
        topology, samples, epochs, lr, momentum, batch_size, seed, out_act,
    );
    (got, want)
}

fn training_sets(
    inputs: usize,
    outputs: usize,
) -> impl Strategy<Value = Vec<(Vec<f32>, Vec<f32>)>> {
    prop::collection::vec(
        (
            prop::collection::vec(-1.0f32..1.0, inputs..=inputs),
            prop::collection::vec(0.0f32..1.0, outputs..=outputs),
        ),
        3..24,
    )
}

proptest! {
    /// `Mlp::run` (the scratch-buffer forward with 4-wide interleaved
    /// accumulators) is bit-identical to the naive per-layer forward.
    #[test]
    fn forward_matches_naive_reference(
        shape in topologies(),
        seed in any::<u64>(),
    ) {
        let topology = Topology::new(&shape).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f32> =
            (0..topology.weight_count()).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let biases: Vec<f32> =
            (0..topology.bias_count()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for out_act in [Activation::Linear, Activation::Sigmoid] {
            let mlp =
                Mlp::from_parameters(topology.clone(), &weights, &biases, out_act).unwrap();
            for _ in 0..4 {
                let input: Vec<f32> =
                    (0..topology.inputs()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let got = mlp.run(&input).unwrap();
                let want = naive_forward(&shape, &weights, &biases, out_act, &input);
                prop_assert_eq!(&got, want.last().unwrap());
            }
        }
    }

    /// `Trainer::train` (sample tiles, scratch buffers, transposed
    /// backward mirrors) produces bit-identical parameters to the
    /// retained textbook implementation. Batches of 1..=40 cover lone
    /// samples, partial tiles and several tiles per batch, and training
    /// sets of up to 100 samples leave a short final batch.
    #[test]
    fn training_matches_naive_reference(
        shape in training_topologies(),
        seed in any::<u64>(),
        batch_size in 1usize..=40,
        n in 1usize..=100,
        epochs in 1usize..=3,
        lr in 0.05f32..0.5,
        with_momentum in any::<bool>(),
        sigmoid_out in any::<bool>(),
    ) {
        let topology = Topology::new(&shape).unwrap();
        let momentum = if with_momentum { 0.9f32 } else { 0.0 };
        let out_act = if sigmoid_out { Activation::Sigmoid } else { Activation::Linear };
        let samples = random_pairs(&topology, n, seed);
        let ((got_w, got_b), (want_w, want_b)) = trainer_and_reference(
            &topology, &samples, epochs, lr, momentum, batch_size, seed, out_act,
        );
        prop_assert!(same_bits(&got_w, &want_w), "weights differ (shape {:?})", shape);
        prop_assert!(same_bits(&got_b, &want_b), "biases differ (shape {:?})", shape);
    }

    /// Random inputs through a *trained* network: the parity holds for
    /// realistic (non-uniform) weights too, and larger sets exercise
    /// every batch-remainder path.
    #[test]
    fn trained_network_forward_parity(
        samples in training_sets(3, 2),
        seed in any::<u64>(),
    ) {
        let topology = Topology::new(&[3, 5, 2]).unwrap();
        let mlp = Trainer::new(topology.clone())
            .epochs(3)
            .seed(seed)
            .train(&samples)
            .unwrap();
        let (w, b) = mlp.to_parameters();
        for (x, _) in samples.iter().take(8) {
            let got = mlp.run(x).unwrap();
            let want = naive_forward(&[3, 5, 2], &w, &b, Activation::Linear, x);
            prop_assert_eq!(&got, want.last().unwrap());
        }
    }
}

/// One-hot targets for a two-class classifier, class 1 with
/// probability 0.2, and uniform unit-interval inputs.
fn classifier_pairs(inputs: usize, n: usize, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let input: Vec<f32> = (0..inputs).map(|_| rng.gen_range(0.0f32..1.0)).collect();
            let target = if rng.gen_bool(0.2) {
                vec![0.0, 1.0]
            } else {
                vec![1.0, 0.0]
            };
            (input, target)
        })
        .collect()
}

/// Fixed batch sizes around the tile width — a lone lane, a short tile,
/// a tile plus one lane, four tiles plus one lane — each with a sample
/// count whose final batch ends in a partial tile, on layers whose
/// gradient rows take every fold block: 71 = 2 × 32 + 7 (two 32-blocks
/// and a scalar remainder), 41 = 32 + 8 + 1 (every block width) and 9 = 8
/// + 1 (an 8-block and a remainder).
#[test]
fn training_matches_naive_reference_at_tile_edge_batch_sizes() {
    let topology = Topology::new(&[71, 41, 9, 2]).unwrap();
    for (batch_size, n) in [(1, 5), (7, 17), (9, 22), (33, 70)] {
        let last_batch = (n - 1) % batch_size + 1;
        assert_ne!(last_batch % LANES, 0, "the final batch must end mid-tile");
        for out_act in [Activation::Linear, Activation::Sigmoid] {
            let samples = random_pairs(&topology, n, batch_size as u64);
            let ((got_w, got_b), (want_w, want_b)) = trainer_and_reference(
                &topology,
                &samples,
                2,
                0.3,
                0.9,
                batch_size,
                batch_size as u64,
                out_act,
            );
            assert!(
                same_bits(&got_w, &want_w) && same_bits(&got_b, &want_b),
                "batch {batch_size}, {n} samples, {out_act:?} output"
            );
        }
    }
}

/// jpeg's classifier shape `[64, 16, 2]` at the classifier's settings
/// (batch 32, learning rate 0.5, momentum 0.9, sigmoid output): 64-wide
/// gradient rows are exactly two 32-element blocks. 75 samples end in a
/// batch of eleven, one full tile and three live lanes.
#[test]
fn training_matches_naive_reference_at_jpeg_classifier_shape() {
    let topology = Topology::new(&[64, 16, 2]).unwrap();
    let samples = classifier_pairs(64, 75, 0x4A50_4547);
    let (got, want) = trainer_and_reference(
        &topology,
        &samples,
        3,
        0.5,
        0.9,
        32,
        0x4A50_4547 ^ 16,
        Activation::Sigmoid,
    );
    assert!(same_bits(&got.0, &want.0) && same_bits(&got.1, &want.1));
}

/// fft's NPU shape `[1, 4, 4, 2]` at the NPU settings (batch 32,
/// learning rate 0.3, momentum 0.9, linear output): every fan-in is
/// below one 8-element block, so the fold runs on its scalar remainder
/// alone, and the two-neuron output layer takes the forward's
/// single-neuron remainder — the narrow-network paths of the routed
/// compile.
#[test]
fn training_matches_naive_reference_at_fft_npu_shape() {
    let topology = Topology::new(&[1, 4, 4, 2]).unwrap();
    let samples = random_pairs(&topology, 77, 0xFF7);
    let (got, want) = trainer_and_reference(
        &topology,
        &samples,
        4,
        0.3,
        0.9,
        32,
        0xFF7,
        Activation::Linear,
    );
    assert!(same_bits(&got.0, &want.0) && same_bits(&got.1, &want.1));
}

/// The neural classifier's production settings — the widest sweep
/// candidate `[18, 32, 2]` (jmeint's inputs), batch 32, learning rate 0.5,
/// momentum 0.9, sigmoid output, one-hot targets — match the naive
/// reference bit for bit. 100 samples make three full batches of four
/// tiles and a final batch of four live lanes.
#[test]
fn training_matches_naive_reference_at_production_settings() {
    let topology = Topology::new(&[18, 32, 2]).unwrap();
    let samples = classifier_pairs(18, 100, 0x4E45_5552);
    let (got, want) = trainer_and_reference(
        &topology,
        &samples,
        4,
        0.5,
        0.9,
        32,
        0x4E45_5552 ^ 32,
        Activation::Sigmoid,
    );
    assert!(same_bits(&got.0, &want.0) && same_bits(&got.1, &want.1));
}

// ---------------------------------------------------------------------
// Scalar ↔ SIMD parity. The SIMD backend is *not* bit-exact against the
// scalar reference (fused multiply-adds round once, the vectorized
// sigmoid uses a polynomial exp), so these tests pin a tolerance instead
// — and `forward_tolerance_has_teeth` proves the tolerance is tight
// enough to catch a real defect, not a rubber stamp.
// ---------------------------------------------------------------------

/// Unit-scaled tolerance for one forward pass: the polynomial exp is
/// accurate to ~1e-6 relative and fused accumulation differs from the
/// scalar chain by a few ulps per dot product.
const FORWARD_TOL: f32 = 1e-4;

/// Largest |a-b| / max(|b|, 1) over a pair of output vectors.
fn max_unit_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / y.abs().max(1.0))
        .fold(0.0, f32::max)
}

/// A random network over widths that straddle the tile width: the range
/// covers width-1 layers (one active lane) and widths below, at, and
/// above `LANES`, so pad-lane handling is exercised on every boundary.
fn simd_topologies() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=2 * LANES + 1, 2..=4)
}

fn random_mlp(shape: &[usize], seed: u64, out_act: Activation) -> Mlp {
    scaled_random_mlp(shape, seed, out_act, 1.0)
}

/// [`random_mlp`] with every weight multiplied by `scale` (exact at
/// 1.0). At 1e38 the dot products overflow to ±∞; at `f32::MAX` some
/// weights are themselves infinite, and ∞ − ∞ yields NaN.
fn scaled_random_mlp(shape: &[usize], seed: u64, out_act: Activation, scale: f32) -> Mlp {
    let topology = Topology::new(shape).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f32> = (0..topology.weight_count())
        .map(|_| rng.gen_range(-2.0f32..2.0) * scale)
        .collect();
    let biases: Vec<f32> = (0..topology.bias_count())
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    Mlp::from_parameters(topology, &weights, &biases, out_act).unwrap()
}

proptest! {
    /// One SIMD forward pass tracks the scalar reference within
    /// [`FORWARD_TOL`] on every topology shape — including width-1 and
    /// non-multiple-of-`LANES` layers, where pad lanes must not leak.
    #[test]
    fn simd_forward_matches_scalar_within_tolerance(
        shape in simd_topologies(),
        seed in any::<u64>(),
    ) {
        if !KernelBackend::simd_available() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51D);
        for out_act in [Activation::Linear, Activation::Sigmoid] {
            let mlp = random_mlp(&shape, seed, out_act);
            let mut scalar_scratch = ForwardScratch::new();
            let mut simd_scratch = ForwardScratch::new();
            for _ in 0..4 {
                let input: Vec<f32> = (0..shape[0]).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let want = mlp
                    .forward_into_with(KernelBackend::Scalar, &input, &mut scalar_scratch)
                    .unwrap()
                    .to_vec();
                let got = mlp
                    .forward_into_with(KernelBackend::Simd, &input, &mut simd_scratch)
                    .unwrap()
                    .to_vec();
                prop_assert!(
                    max_unit_diff(&got, &want) <= FORWARD_TOL,
                    "divergence {} beyond tolerance (shape {:?})",
                    max_unit_diff(&got, &want),
                    shape,
                );
            }
        }
    }

    /// The batched entry point is bit-identical to the per-invocation
    /// entry point of the *same* backend — compared by bits, so ±0
    /// counts and a NaN must meet a NaN — for linear and sigmoid output
    /// layers, every count the single-sample path serves
    /// (1..=`LANE_REMAINDER_CUTOFF`) plus one on or off the tile
    /// boundary, and weights scaled until outputs go non-finite. This is
    /// the contract that lets the profiler and the serve engine batch
    /// without changing any result.
    #[test]
    fn batched_forward_is_bit_identical_per_backend(
        shape in simd_topologies(),
        count in 1usize..=2 * LANES + 3,
        seed in any::<u64>(),
        scale in any::<usize>().prop_map(|k| [1.0, 1e38, f32::MAX][k % 3]),
    ) {
        for out_act in [Activation::Linear, Activation::Sigmoid] {
            let mlp = scaled_random_mlp(&shape, seed, out_act, scale);
            for count in (1..=LANE_REMAINDER_CUTOFF).chain([count]) {
                assert_batched_matches_per_sample(&mlp, count, seed)?;
            }
        }
    }
}

/// `v`'s bits, with every NaN mapped to one canonical NaN. Rust leaves
/// the sign and payload of an arithmetic NaN unspecified: when two NaNs
/// of opposite sign meet in a `+`, which one survives depends on the
/// operand order the compiler picks, and the vectorized tile kernel and
/// the per-sample kernel may pick differently. Whether a value is NaN
/// is exact; which NaN it is is not part of the contract.
fn value_bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Every available backend: one batched forward over `count` random
/// inputs equals, bit for bit, each sample's `forward_into_with` on the
/// same backend. Returns the batched outputs of the last backend.
fn assert_batched_matches_per_sample(
    mlp: &Mlp,
    count: usize,
    seed: u64,
) -> Result<Vec<f32>, TestCaseError> {
    let in_dim = mlp.topology().inputs();
    let out_dim = mlp.topology().outputs();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
    let inputs: Vec<f32> = (0..count * in_dim)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let mut backends = vec![KernelBackend::Scalar];
    if KernelBackend::simd_available() {
        backends.push(KernelBackend::Simd);
    }
    let mut outputs = Vec::new();
    for backend in backends {
        let mut batch_scratch = BatchScratch::new();
        mlp.forward_batch_into_with(backend, &inputs, count, &mut outputs, &mut batch_scratch)
            .unwrap();
        prop_assert_eq!(outputs.len(), count * out_dim);
        let mut fwd = ForwardScratch::new();
        for s in 0..count {
            let want = mlp
                .forward_into_with(backend, &inputs[s * in_dim..(s + 1) * in_dim], &mut fwd)
                .unwrap();
            let got = &outputs[s * out_dim..(s + 1) * out_dim];
            prop_assert_eq!(
                got.iter().copied().map(value_bits).collect::<Vec<_>>(),
                want.iter().copied().map(value_bits).collect::<Vec<_>>(),
                "backend {:?}, sample {}/{}",
                backend,
                s,
                count
            );
        }
    }
    Ok(outputs)
}

/// The scaled weights of the bit-identity property really reach the
/// non-finite cases it claims to cover. At 1e38 the weights stay finite
/// but the dot products overflow: a linear output layer yields both
/// infinities, and a sigmoid one saturates to exactly 1 and to within
/// 1e-30 of 0 (the SIMD sigmoid's exponent clamp stops short of 0). At
/// `f32::MAX` some weights are themselves infinite, and ∞ − ∞ yields NaN.
#[test]
fn overflowing_weights_drive_batched_outputs_non_finite() {
    let count = 2 * LANES + 3;
    let batched = |act, scale| {
        let mut out = Vec::new();
        for seed in 0..4 {
            let mlp = scaled_random_mlp(&[4, 9, 3], seed, act, scale);
            out.extend(assert_batched_matches_per_sample(&mlp, count, seed).unwrap());
        }
        out
    };
    let out = batched(Activation::Linear, 1e38);
    assert!(
        out.contains(&f32::INFINITY) && out.contains(&f32::NEG_INFINITY),
        "{out:?}"
    );
    let out = batched(Activation::Sigmoid, 1e38);
    assert!(
        out.contains(&1.0) && out.iter().any(|&v| v < 1e-30),
        "{out:?}"
    );
    for act in [Activation::Linear, Activation::Sigmoid] {
        let out = batched(act, f32::MAX);
        assert!(out.iter().any(|v| v.is_nan()), "{out:?}");
    }
}

/// The tolerance check must reject a genuinely broken kernel: perturbing
/// one output by 100× the tolerance trips `max_unit_diff`. Guards
/// against the parity suite degenerating into a rubber stamp if the
/// tolerance is ever loosened carelessly.
#[test]
fn forward_tolerance_has_teeth() {
    let mlp = random_mlp(&[5, 9, 3], 7, Activation::Sigmoid);
    let mut scratch = ForwardScratch::new();
    let input = [0.3f32, -0.7, 0.1, 0.9, -0.2];
    let out = mlp
        .forward_into_with(KernelBackend::Scalar, &input, &mut scratch)
        .unwrap()
        .to_vec();
    let mut mutated = out.clone();
    mutated[1] += 100.0 * FORWARD_TOL;
    assert!(max_unit_diff(&mutated, &out) > FORWARD_TOL);
    // And an in-tolerance wiggle still passes, so the threshold is a
    // band, not an equality check in disguise.
    let mut close = out.clone();
    close[1] += 0.1 * FORWARD_TOL;
    assert!(max_unit_diff(&close, &out) <= FORWARD_TOL);
}

/// SIMD training converges on every benchmark topology: same data, same
/// seed, both backends reach a comparable loss, and their trained
/// networks agree within a (looser) tolerance — epochs compound the
/// per-step rounding difference, so this band is wider than the
/// single-pass one.
#[test]
fn simd_training_tracks_scalar_on_benchmark_topologies() {
    if !KernelBackend::simd_available() {
        eprintln!("skipping: host cannot run the simd backend");
        return;
    }
    // The six benchmark topologies of the axbench suite.
    let suite: &[&[usize]] = &[
        &[6, 8, 3, 1],   // blackscholes
        &[2, 8, 2],      // inversek2j
        &[18, 32, 8, 2], // jmeint
        &[64, 16, 64],   // jpeg
        &[9, 8, 1],      // sobel
        &[1, 4, 4, 2],   // fft
    ];
    for shape in suite {
        let topology = Topology::new(shape).unwrap();
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let samples: Vec<(Vec<f32>, Vec<f32>)> = (0..64)
            .map(|_| {
                (
                    (0..topology.inputs())
                        .map(|_| rng.gen_range(-1.0f32..1.0))
                        .collect(),
                    (0..topology.outputs())
                        .map(|_| rng.gen_range(0.0f32..1.0))
                        .collect(),
                )
            })
            .collect();
        let train = |backend: KernelBackend| {
            Trainer::new(topology.clone())
                .epochs(20)
                .seed(42)
                .batch_size(10)
                .kernel(backend)
                .train(&samples)
                .unwrap()
        };
        let scalar = train(KernelBackend::Scalar);
        let simd = train(KernelBackend::Simd);
        let mut worst = 0.0f32;
        for (x, _) in &samples {
            let a = scalar.run(x).unwrap();
            let b = simd.run(x).unwrap();
            worst = worst.max(max_unit_diff(&b, &a));
        }
        assert!(
            worst <= 5e-2,
            "topology {shape:?}: trained networks diverge by {worst}"
        );
    }
}
