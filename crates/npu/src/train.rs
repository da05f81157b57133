//! The compiler-side offline trainer.
//!
//! The NPU workflow trains the network at compilation time from
//! (input, precise-output) pairs collected by profiling the target function
//! (paper §IV-C2 follows the same workflow for MITHRA's neural classifier).
//! This module implements minibatch stochastic gradient descent with
//! momentum on mean-squared error, plus the input/output normalization the
//! NPU compiler applies so sigmoid layers see well-scaled values.

use crate::kernel::{self, KernelBackend, LANES};
use crate::mlp::{Activation, Mlp};
use crate::topology::Topology;
use crate::{NpuError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-dimension affine normalization to a target interval.
///
/// The NPU compiler normalizes both inputs and outputs so the network
/// trains in a well-conditioned range; the inverse transform is applied to
/// the network's outputs at runtime (folded into the output layer in real
/// hardware, explicit here).
///
/// # Example
///
/// ```
/// # use mithra_npu::train::Normalizer;
/// let norm = Normalizer::fit(&[vec![0.0, 10.0], vec![4.0, 30.0]], 0.0, 1.0);
/// assert_eq!(norm.forward(&[2.0, 20.0]), vec![0.5, 0.5]);
/// assert_eq!(norm.inverse(&[0.5, 0.5]), vec![2.0, 20.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    mins: Vec<f32>,
    maxs: Vec<f32>,
    lo: f32,
    hi: f32,
}

impl Normalizer {
    /// Fits a normalizer mapping each dimension's observed `[min, max]`
    /// onto `[lo, hi]`. Constant dimensions map to the interval midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty (there is nothing to fit) — callers
    /// validate their training sets first.
    pub fn fit(samples: &[Vec<f32>], lo: f32, hi: f32) -> Self {
        assert!(!samples.is_empty(), "cannot fit a normalizer to no samples");
        let dims = samples[0].len();
        let mut mins = vec![f32::INFINITY; dims];
        let mut maxs = vec![f32::NEG_INFINITY; dims];
        for s in samples {
            for d in 0..dims {
                mins[d] = mins[d].min(s[d]);
                maxs[d] = maxs[d].max(s[d]);
            }
        }
        Self { mins, maxs, lo, hi }
    }

    /// Identity normalizer of the given dimensionality.
    pub fn identity(dims: usize) -> Self {
        Self {
            mins: vec![0.0; dims],
            maxs: vec![1.0; dims],
            lo: 0.0,
            hi: 1.0,
        }
    }

    /// Number of dimensions this normalizer was fitted on.
    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// Maps raw values into the target interval.
    pub fn forward(&self, raw: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(raw.len());
        self.forward_into(raw, &mut out);
        out
    }

    /// [`forward`](Self::forward) into a caller-provided buffer — the
    /// allocation-free form profiling and serving hot paths use.
    pub fn forward_into(&self, raw: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(raw.iter().enumerate().map(|(d, &v)| {
            let span = self.maxs[d] - self.mins[d];
            if span <= f32::EPSILON {
                0.5 * (self.lo + self.hi)
            } else {
                self.lo + (v - self.mins[d]) / span * (self.hi - self.lo)
            }
        }));
    }

    /// Maps normalized values back to raw scale.
    pub fn inverse(&self, normalized: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(normalized.len());
        self.inverse_into(normalized, &mut out);
        out
    }

    /// [`inverse`](Self::inverse) into a caller-provided buffer — the
    /// allocation-free form profiling and serving hot paths use.
    pub fn inverse_into(&self, normalized: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(normalized.iter().enumerate().map(|(d, &v)| {
            let span = self.maxs[d] - self.mins[d];
            if span <= f32::EPSILON {
                self.mins[d]
            } else {
                self.mins[d] + (v - self.lo) / (self.hi - self.lo) * span
            }
        }));
    }
}

/// Preallocated training buffers: the training set as row-major sample
/// matrices, lane-per-sample activation and error-term tiles, gradient
/// accumulators, the transposed weight copies the backward pass streams,
/// the sample-major staging copy the scalar gradient fold reads, and the
/// SIMD backend's lane-resolved gradients.
///
/// [`Trainer::train`] creates one per call via
/// [`TrainScratch::for_topology`] and reuses it across every example,
/// batch and epoch, so the inner SGD loop performs no allocation at all
/// (pinned by `tests/alloc_free.rs`). Callers that train repeatedly can
/// hold their own scratch and pass it to
/// [`Trainer::train_with_scratch`].
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    samples: SampleMatrix,
    w_grad: Vec<Vec<f32>>,
    b_grad: Vec<Vec<f32>>,
    /// Transposed (input-major) weight copies:
    /// `wt[l][i * fan_out + n] == weights[n * fan_in + i]`, kept in sync
    /// with the network after every update so propagating deltas to layer
    /// `l - 1` reads one contiguous column per input instead of striding
    /// across rows. Layer 0 never propagates further; its slot stays
    /// empty.
    wt: Vec<Vec<f32>>,
    /// Tile state, [`LANES`] samples wide: `act8[lvl]` are the
    /// activation tiles per network level and `delta8[l]` the error-term
    /// tiles of layer `l`.
    act8: Vec<Vec<f32>>,
    delta8: Vec<Vec<f32>>,
    /// Scalar backend: one activation tile copied sample-major
    /// (`stage[lane * width + i]`), sized for the widest layer input.
    stage: Vec<f32>,
    /// SIMD backend: lane-resolved gradient accumulators, reduced in
    /// ascending-lane order at each batch end.
    w_grad8: Vec<Vec<f32>>,
    b_grad8: Vec<Vec<f32>>,
}

impl TrainScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch presized for `topology` — on either backend no
    /// buffer reallocates once construction returns.
    pub fn for_topology(topology: &Topology) -> Self {
        let shape = topology.layers();
        let layer = |l: usize| (shape[l], shape[l + 1]);
        let per_layer = 0..shape.len() - 1;
        Self {
            samples: SampleMatrix::default(),
            w_grad: per_layer
                .clone()
                .map(|l| vec![0.0; layer(l).0 * layer(l).1])
                .collect(),
            b_grad: per_layer.clone().map(|l| vec![0.0; layer(l).1]).collect(),
            wt: per_layer
                .clone()
                .map(|l| {
                    if l == 0 {
                        Vec::new()
                    } else {
                        vec![0.0; layer(l).0 * layer(l).1]
                    }
                })
                .collect(),
            act8: shape.iter().map(|&w| vec![0.0; w * LANES]).collect(),
            delta8: per_layer
                .clone()
                .map(|l| vec![0.0; layer(l).1 * LANES])
                .collect(),
            stage: vec![0.0; Self::stage_len(shape)],
            w_grad8: per_layer
                .clone()
                .map(|l| vec![0.0; layer(l).0 * layer(l).1 * LANES])
                .collect(),
            b_grad8: per_layer.map(|l| vec![0.0; layer(l).1 * LANES]).collect(),
        }
    }

    /// Length of the staging copy: one tile of the widest layer input.
    fn stage_len(shape: &[usize]) -> usize {
        shape[..shape.len() - 1].iter().max().copied().unwrap_or(0) * LANES
    }

    /// Rebuilds the scratch if it was not sized for `topology`. The
    /// activation tiles spell out the whole shape, so matching them plus
    /// the staging copy means every buffer fits.
    fn ensure(&mut self, topology: &Topology) {
        let shape = topology.layers();
        let fits = self
            .act8
            .iter()
            .map(Vec::len)
            .eq(shape.iter().map(|&w| w * LANES))
            && self.stage.len() == Self::stage_len(shape);
        if !fits {
            *self = Self::for_topology(topology);
        }
    }

    /// Refills the transposed weight mirrors from `mlp` (after
    /// initialization; updates keep them in sync incrementally).
    fn sync_weights(&mut self, mlp: &Mlp) {
        for (l, layer) in mlp.layers().iter().enumerate().skip(1) {
            let fan_in = layer.fan_in;
            let fan_out = layer.biases.len();
            let wt = &mut self.wt[l];
            for n in 0..fan_out {
                for i in 0..fan_in {
                    wt[i * fan_out + n] = layer.weights[n * fan_in + i];
                }
            }
        }
    }
}

/// The training set as two row-major matrices, copied once per
/// [`Trainer::train`] call: sample `s`'s input is row `s` of `inputs`
/// (`in_dim` wide) and its target row `s` of `targets` (`out_dim` wide).
/// The tile loaders of both backends read these rows, so a sample costs
/// one contiguous read instead of a pointer chase through its own `Vec`.
#[derive(Debug, Clone, Default)]
struct SampleMatrix {
    inputs: Vec<f32>,
    targets: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl SampleMatrix {
    /// Refills the matrices from validated `(input, target)` pairs,
    /// reusing their capacity.
    fn fill(&mut self, samples: &[(Vec<f32>, Vec<f32>)], in_dim: usize, out_dim: usize) {
        self.in_dim = in_dim;
        self.out_dim = out_dim;
        self.inputs.clear();
        self.targets.clear();
        self.inputs.reserve(samples.len() * in_dim);
        self.targets.reserve(samples.len() * out_dim);
        for (x, y) in samples {
            self.inputs.extend_from_slice(x);
            self.targets.extend_from_slice(y);
        }
    }

    fn input(&self, s: usize) -> &[f32] {
        &self.inputs[s * self.in_dim..(s + 1) * self.in_dim]
    }

    fn target(&self, s: usize) -> &[f32] {
        &self.targets[s * self.out_dim..(s + 1) * self.out_dim]
    }

    /// Packs the inputs of one sample group into a tile
    /// (`tile[i * LANES + lane]`), zero-padding the lanes past the group.
    fn load_tile(&self, group: &[usize], tile: &mut [f32]) {
        for lane in 0..LANES {
            match group.get(lane) {
                Some(&s) => {
                    for (column, &x) in tile.chunks_exact_mut(LANES).zip(self.input(s)) {
                        column[lane] = x;
                    }
                }
                None => {
                    for column in tile.chunks_exact_mut(LANES) {
                        column[lane] = 0.0;
                    }
                }
            }
        }
    }

    /// Asks the cache to start fetching the input rows of `batch`. A
    /// hint only: it reads and changes nothing, so results do not depend
    /// on whether the hardware honours it.
    fn prefetch(&self, batch: &[usize]) {
        for &s in batch {
            prefetch_lines(self.input(s));
        }
    }
}

/// Prefetches each cache line `row` spans, once (a no-op off x86_64).
#[inline(always)]
fn prefetch_lines(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = row.as_ptr() as usize;
        let end = start + std::mem::size_of_val(row);
        for line in (start & !(LINE - 1)..end).step_by(LINE) {
            // SAFETY: a prefetch is a hint that never faults, whatever
            // the address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line as *const i8) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Offline backpropagation trainer (non-consuming builder).
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Trainer {
    topology: Topology,
    epochs: usize,
    learning_rate: f32,
    momentum: f32,
    batch_size: usize,
    seed: u64,
    output_activation: Activation,
    target_mse: Option<f32>,
    kernel: KernelBackend,
}

impl Trainer {
    /// Creates a trainer for the given topology with the defaults the NPU
    /// compiler uses: 200 epochs, learning rate 0.2, momentum 0.9,
    /// minibatches of 16, linear output layer.
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            epochs: 200,
            learning_rate: 0.2,
            momentum: 0.9,
            batch_size: 16,
            seed: 0x4D49_5448,
            output_activation: Activation::Linear,
            target_mse: None,
            kernel: KernelBackend::Scalar,
        }
    }

    /// Sets the number of passes over the training set.
    pub fn epochs(&mut self, epochs: usize) -> &mut Self {
        self.epochs = epochs;
        self
    }

    /// Sets the SGD learning rate.
    pub fn learning_rate(&mut self, lr: f32) -> &mut Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the momentum coefficient.
    pub fn momentum(&mut self, momentum: f32) -> &mut Self {
        self.momentum = momentum;
        self
    }

    /// Sets the minibatch size.
    pub fn batch_size(&mut self, batch: usize) -> &mut Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Sets the RNG seed for weight initialization and shuffling, making
    /// training fully deterministic.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the output layer activation (sigmoid for classification
    /// networks, linear for regression).
    pub fn output_activation(&mut self, activation: Activation) -> &mut Self {
        self.output_activation = activation;
        self
    }

    /// Stops early once the epoch's mean-squared error drops below `mse`.
    pub fn target_mse(&mut self, mse: f32) -> &mut Self {
        self.target_mse = Some(mse);
        self
    }

    /// Selects the arithmetic backend for the inner SGD loops. The
    /// default [`KernelBackend::Scalar`] is the bit-reproducible
    /// reference; [`KernelBackend::Simd`] runs fused multiply-add tile
    /// kernels with a polynomial sigmoid (see [`crate::kernel`]) and
    /// reduces gradients per lane — deterministic for a fixed seed
    /// and identical across machines, but not bit-equal to the
    /// reference. RNG consumption (initialization, shuffles) is
    /// identical on both backends.
    pub fn kernel(&mut self, backend: KernelBackend) -> &mut Self {
        self.kernel = backend;
        self
    }

    /// Trains a network on `(input, target)` pairs in *normalized* space —
    /// the caller is responsible for normalization (see
    /// [`train_normalized`](Self::train) vs the usual flow in
    /// `mithra-core`, which wraps this with [`Normalizer`]s).
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::InvalidTrainingSet`] if `samples` is empty, or
    /// [`NpuError::DimensionMismatch`] if any pair disagrees with the
    /// topology.
    pub fn train(&self, samples: &[(Vec<f32>, Vec<f32>)]) -> Result<Mlp> {
        let mut scratch = TrainScratch::for_topology(&self.topology);
        self.train_with_scratch(samples, &mut scratch)
    }

    /// [`train`](Self::train) with caller-owned scratch buffers, for
    /// callers that train many networks of the same topology and want
    /// zero allocation per call beyond the returned network. A scratch
    /// sized for a different topology is rebuilt transparently.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::InvalidTrainingSet`] if `samples` is empty, or
    /// [`NpuError::DimensionMismatch`] if any pair disagrees with the
    /// topology.
    pub fn train_with_scratch(
        &self,
        samples: &[(Vec<f32>, Vec<f32>)],
        scratch: &mut TrainScratch,
    ) -> Result<Mlp> {
        if samples.is_empty() {
            return Err(NpuError::InvalidTrainingSet {
                reason: "no samples",
            });
        }
        for (x, y) in samples {
            if x.len() != self.topology.inputs() {
                return Err(NpuError::DimensionMismatch {
                    expected: self.topology.inputs(),
                    actual: x.len(),
                });
            }
            if y.len() != self.topology.outputs() {
                return Err(NpuError::DimensionMismatch {
                    expected: self.topology.outputs(),
                    actual: y.len(),
                });
            }
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut mlp = self.init_network(&mut rng);

        // Momentum state mirrors the parameter layout.
        let mut w_vel: Vec<Vec<f32>> = mlp
            .layers()
            .iter()
            .map(|l| vec![0.0; l.weights.len()])
            .collect();
        let mut b_vel: Vec<Vec<f32>> = mlp
            .layers()
            .iter()
            .map(|l| vec![0.0; l.biases.len()])
            .collect();

        scratch.ensure(&self.topology);
        scratch.sync_weights(&mlp);
        scratch
            .samples
            .fill(samples, self.topology.inputs(), self.topology.outputs());
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _epoch in 0..self.epochs {
            order.shuffle(&mut rng);
            let mut epoch_sse = 0.0f64;
            let mut batches = order.chunks(self.batch_size).peekable();
            while let Some(batch) = batches.next() {
                if let Some(next) = batches.peek() {
                    scratch.samples.prefetch(next);
                }
                epoch_sse += match self.kernel {
                    KernelBackend::Scalar => {
                        self.sgd_step(&mut mlp, batch, &mut w_vel, &mut b_vel, scratch)
                    }
                    KernelBackend::Simd => {
                        self.sgd_step_simd(&mut mlp, batch, &mut w_vel, &mut b_vel, scratch)
                    }
                };
            }
            let mse = epoch_sse / (samples.len() * self.topology.outputs()) as f64;
            if let Some(target) = self.target_mse {
                if mse < f64::from(target) {
                    break;
                }
            }
        }
        Ok(mlp)
    }

    fn init_network(&self, rng: &mut StdRng) -> Mlp {
        // Xavier/Glorot uniform initialization.
        let shape = self.topology.layers();
        let mut weights = Vec::with_capacity(self.topology.weight_count());
        for l in 0..shape.len() - 1 {
            let bound = (6.0 / (shape[l] + shape[l + 1]) as f32).sqrt();
            for _ in 0..shape[l] * shape[l + 1] {
                weights.push(rng.gen_range(-bound..bound));
            }
        }
        let biases = vec![0.0; self.topology.bias_count()];
        Mlp::from_parameters(
            self.topology.clone(),
            &weights,
            &biases,
            self.output_activation,
        )
        .expect("constructed lengths match the topology")
    }

    /// One minibatch step on the scalar reference backend; returns the
    /// batch's summed squared error.
    ///
    /// Samples run [`LANES`] at a time through lane-per-sample tiles, so
    /// the forward pass and the delta backpropagation vectorize across
    /// samples. Each lane still performs its own sample's exact
    /// operation sequence — bias, then a separate `*` and `+` per input
    /// in ascending order, no fused multiply-add — and the activation
    /// runs only on live lanes. Gradients are folded from a sample-major
    /// copy of each tile, one sample after another, so every gradient
    /// element receives its contributions in batch order. The result is
    /// bit-identical to a per-sample textbook loop (pinned by
    /// `tests/kernel_parity.rs`).
    fn sgd_step(
        &self,
        mlp: &mut Mlp,
        batch: &[usize],
        w_vel: &mut [Vec<f32>],
        b_vel: &mut [Vec<f32>],
        scratch: &mut TrainScratch,
    ) -> f64 {
        let n_layers = mlp.layers().len();
        for g in scratch.w_grad.iter_mut() {
            g.fill(0.0);
        }
        for g in scratch.b_grad.iter_mut() {
            g.fill(0.0);
        }
        let mut sse = 0.0f64;

        for group in batch.chunks(LANES) {
            let lanes = group.len();
            scratch.samples.load_tile(group, &mut scratch.act8[0]);
            for (l, layer) in mlp.layers().iter().enumerate() {
                let (prev, next) = scratch.act8.split_at_mut(l + 1);
                kernel::layer_forward_tile_exact(layer, lanes, &prev[l], &mut next[0]);
            }

            // Output deltas in sample order, so the f64 error sum folds
            // exactly as a per-sample loop would.
            let out_activation = mlp.layers()[n_layers - 1].activation;
            let out_tile = &scratch.act8[n_layers];
            let out_delta = &mut scratch.delta8[n_layers - 1];
            out_delta.fill(0.0);
            for (lane, &idx) in group.iter().enumerate() {
                for (n, &t) in scratch.samples.target(idx).iter().enumerate() {
                    let o = out_tile[n * LANES + lane];
                    let err = o - t;
                    sse += f64::from(err) * f64::from(err);
                    out_delta[n * LANES + lane] = err * out_activation.derivative_from_output(o);
                }
            }

            for l in (0..n_layers).rev() {
                let layer = &mlp.layers()[l];
                stage_sample_major(&scratch.act8[l], layer.fan_in, lanes, &mut scratch.stage);
                grad_fold_exact(
                    &scratch.delta8[l],
                    layer.fan_in,
                    lanes,
                    &scratch.stage,
                    &mut scratch.w_grad[l],
                    &mut scratch.b_grad[l],
                );
                if l > 0 {
                    let (lower, upper) = scratch.delta8.split_at_mut(l);
                    backprop_delta_tile_exact(
                        &scratch.wt[l],
                        layer.biases.len(),
                        &upper[0],
                        &scratch.act8[l],
                        mlp.layers()[l - 1].activation,
                        &mut lower[l - 1],
                    );
                }
            }
        }

        self.apply_update(mlp, batch.len(), w_vel, b_vel, scratch);
        sse
    }

    /// One minibatch step on the SIMD backend; returns the batch's
    /// summed squared error.
    ///
    /// Samples run [`LANES`] at a time through lane-per-sample tiles
    /// (see [`crate::kernel`]); a partial final group zero-pads its
    /// spare lanes, whose output deltas are forced to zero so every
    /// gradient contribution from a padding lane is an exact zero.
    /// Gradients accumulate lane-resolved across the whole batch and are
    /// reduced once, in ascending lane order, before the same momentum
    /// update as the scalar step — so for a fixed seed the result is
    /// deterministic, merely not bit-equal to the reference order.
    fn sgd_step_simd(
        &self,
        mlp: &mut Mlp,
        batch: &[usize],
        w_vel: &mut [Vec<f32>],
        b_vel: &mut [Vec<f32>],
        scratch: &mut TrainScratch,
    ) -> f64 {
        let n_layers = mlp.layers().len();
        let out_dim = self.topology.outputs();
        for g in scratch.w_grad8.iter_mut() {
            g.fill(0.0);
        }
        for g in scratch.b_grad8.iter_mut() {
            g.fill(0.0);
        }
        let mut sse = 0.0f64;

        for group in batch.chunks(LANES) {
            scratch.samples.load_tile(group, &mut scratch.act8[0]);
            for (l, layer) in mlp.layers().iter().enumerate() {
                let (prev, next) = scratch.act8.split_at_mut(l + 1);
                kernel::layer_forward_tile(
                    &layer.weights,
                    &layer.biases,
                    layer.fan_in,
                    layer.activation,
                    &prev[l],
                    &mut next[0],
                );
            }

            let out_activation = mlp.layers()[n_layers - 1].activation;
            let out_tile = &scratch.act8[n_layers];
            let out_delta = &mut scratch.delta8[n_layers - 1];
            for n in 0..out_dim {
                for l in 0..LANES {
                    let idx = n * LANES + l;
                    out_delta[idx] = match group.get(l) {
                        Some(&s) => {
                            let o = out_tile[idx];
                            let err = o - scratch.samples.target(s)[n];
                            sse += f64::from(err) * f64::from(err);
                            err * out_activation.derivative_from_output(o)
                        }
                        None => 0.0,
                    };
                }
            }

            for l in (0..n_layers).rev() {
                let fan_in = mlp.layers()[l].fan_in;
                kernel::grad_accum_tile(
                    &scratch.delta8[l],
                    fan_in,
                    &scratch.act8[l],
                    &mut scratch.w_grad8[l],
                    &mut scratch.b_grad8[l],
                );
                if l > 0 {
                    let fan_out = mlp.layers()[l].biases.len();
                    let prev_activation = mlp.layers()[l - 1].activation;
                    let (lower, upper) = scratch.delta8.split_at_mut(l);
                    kernel::backprop_delta_tile(
                        &scratch.wt[l],
                        fan_out,
                        &upper[0],
                        &scratch.act8[l],
                        prev_activation,
                        &mut lower[l - 1],
                    );
                }
            }
        }

        for l in 0..n_layers {
            for (g, lane_accs) in scratch.w_grad[l]
                .iter_mut()
                .zip(scratch.w_grad8[l].chunks_exact(LANES))
            {
                *g = lane_accs.iter().sum();
            }
            for (g, lane_accs) in scratch.b_grad[l]
                .iter_mut()
                .zip(scratch.b_grad8[l].chunks_exact(LANES))
            {
                *g = lane_accs.iter().sum();
            }
        }
        self.apply_update(mlp, batch.len(), w_vel, b_vel, scratch);
        sse
    }

    /// Applies the accumulated batch gradients with momentum — shared
    /// verbatim by both backends, so the scalar path's bit-exact update
    /// order is untouched.
    fn apply_update(
        &self,
        mlp: &mut Mlp,
        batch_len: usize,
        w_vel: &mut [Vec<f32>],
        b_vel: &mut [Vec<f32>],
        scratch: &mut TrainScratch,
    ) {
        let n_layers = mlp.layers().len();
        let scale = self.learning_rate / batch_len as f32;
        for l in 0..n_layers {
            let layer = &mut mlp.layers_mut()[l];
            let fan_in = layer.fan_in;
            let fan_out = layer.biases.len();
            let wt = &mut scratch.wt[l];
            for n in 0..fan_out {
                // Row-sliced update, same per-parameter arithmetic as the
                // indexed loop it replaced. The transposed mirror is kept
                // in sync for the next example's backward pass; layer 0
                // never back-propagates, so its mirror stays empty.
                let start = n * fan_in;
                let wrow = &mut layer.weights[start..start + fan_in];
                let vrow = &mut w_vel[l][start..start + fan_in];
                let grow = &scratch.w_grad[l][start..start + fan_in];
                if wt.is_empty() {
                    for ((w, v), &g) in wrow.iter_mut().zip(vrow.iter_mut()).zip(grow) {
                        *v = self.momentum * *v - scale * g;
                        *w += *v;
                    }
                } else {
                    for (i, ((w, v), &g)) in
                        wrow.iter_mut().zip(vrow.iter_mut()).zip(grow).enumerate()
                    {
                        *v = self.momentum * *v - scale * g;
                        *w += *v;
                        wt[i * fan_out + n] = *w;
                    }
                }
                let v = &mut b_vel[l][n];
                *v = self.momentum * *v - scale * scratch.b_grad[l][n];
                layer.biases[n] += *v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar-exact backward kernels (the forward one, shared with inference,
// is `kernel::layer_forward_tile_exact`). Every lane performs one
// sample's reference operation sequence with plain `*` and `+`, so
// vectorizing across lanes changes no bit.
// ---------------------------------------------------------------------------

/// Propagates error terms one layer down on a tile:
/// `prev_delta[i * LANES + lane] = (0 + d[0] * wt[i][0] + d[1] * wt[i][1] + …)
/// * act'(prev_act[i * LANES + lane])`, accumulated in ascending upper-neuron
/// order through the transposed weight mirror `wt`.
fn backprop_delta_tile_exact(
    wt: &[f32],
    fan_out: usize,
    delta: &[f32],
    prev_act: &[f32],
    prev_activation: Activation,
    prev_delta: &mut [f32],
) {
    for ((column, act), out_tile) in wt
        .chunks_exact(fan_out)
        .zip(prev_act.chunks_exact(LANES))
        .zip(prev_delta.chunks_exact_mut(LANES))
    {
        let mut acc = [0.0f32; LANES];
        for (&w, d) in column.iter().zip(delta.chunks_exact(LANES)) {
            for lane in 0..LANES {
                acc[lane] += d[lane] * w;
            }
        }
        for lane in 0..LANES {
            out_tile[lane] = acc[lane] * prev_activation.derivative_from_output(act[lane]);
        }
    }
}

/// Copies the first `lanes` lanes of a `width`-feature tile into
/// sample-major order: `stage[lane * width + i] = tile[i * LANES + lane]`.
fn stage_sample_major(tile: &[f32], width: usize, lanes: usize, stage: &mut [f32]) {
    for (lane, row) in stage.chunks_exact_mut(width).take(lanes).enumerate() {
        for (s, column) in row.iter_mut().zip(tile.chunks_exact(LANES)) {
            *s = column[lane];
        }
    }
}

/// Folds one tile's gradient contributions into the batch gradients,
/// sample after sample: `b_grad[n] += d` and `w_grad[n][i] += d * x[i]`
/// for each live lane in ascending order, reading the layer input from
/// its sample-major staging copy.
///
/// Each gradient row is held in registers in blocks of 32, then 8, then 1
/// elements while every live lane adds its contribution, so a row is
/// loaded and stored once per tile instead of once per lane. Elements are
/// independent and each still receives its contributions in ascending
/// lane order, so the blocking changes no bit.
fn grad_fold_exact(
    delta: &[f32],
    fan_in: usize,
    lanes: usize,
    stage: &[f32],
    w_grad: &mut [f32],
    b_grad: &mut [f32],
) {
    let stage = &stage[..lanes * fan_in];
    for ((d, g_row), b) in delta
        .chunks_exact(LANES)
        .zip(w_grad.chunks_exact_mut(fan_in))
        .zip(b_grad.iter_mut())
    {
        let d = &d[..lanes];
        for &dl in d {
            *b += dl;
        }
        let start = fold_blocks::<32>(g_row, 0, d, stage);
        let start = fold_blocks::<8>(g_row, start, d, stage);
        fold_blocks::<1>(g_row, start, d, stage);
    }
}

/// [`grad_fold_exact`]'s inner loop for blocks of `W` elements of one
/// gradient row, from `start` for as many whole blocks as fit; returns
/// the index past the last block folded.
#[inline(always)]
fn fold_blocks<const W: usize>(
    g_row: &mut [f32],
    mut start: usize,
    d: &[f32],
    stage: &[f32],
) -> usize {
    let fan_in = g_row.len();
    while start + W <= fan_in {
        let g: &mut [f32; W] = (&mut g_row[start..start + W])
            .try_into()
            .expect("the range spans W elements");
        let mut acc = *g;
        for (&dl, x) in d.iter().zip(stage.chunks_exact(fan_in)) {
            let x: &[f32; W] = x[start..start + W]
                .try_into()
                .expect("the range spans W elements");
            for k in 0..W {
                acc[k] += dl * x[k];
            }
        }
        *g = acc;
        start += W;
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_samples(f: impl Fn(f32, f32) -> f32) -> Vec<(Vec<f32>, Vec<f32>)> {
        let mut out = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let x = i as f32 / 19.0;
                let y = j as f32 / 19.0;
                out.push((vec![x, y], vec![f(x, y)]));
            }
        }
        out
    }

    #[test]
    fn learns_linear_function() {
        let samples = grid_samples(|x, y| 0.3 * x + 0.5 * y + 0.1);
        let mlp = Trainer::new(Topology::new(&[2, 4, 1]).unwrap())
            .epochs(150)
            .seed(1)
            .train(&samples)
            .unwrap();
        let out = mlp.run(&[0.5, 0.5]).unwrap()[0];
        assert!((out - 0.5).abs() < 0.03, "got {out}");
    }

    #[test]
    fn learns_product() {
        let samples = grid_samples(|x, y| x * y);
        let mlp = Trainer::new(Topology::new(&[2, 6, 1]).unwrap())
            .epochs(400)
            .learning_rate(0.4)
            .seed(2)
            .train(&samples)
            .unwrap();
        for &(x, y) in &[(0.2f32, 0.8f32), (0.9, 0.9), (0.1, 0.1)] {
            let out = mlp.run(&[x, y]).unwrap()[0];
            assert!((out - x * y).abs() < 0.06, "f({x},{y}) = {out}");
        }
    }

    #[test]
    fn learns_xor_with_sigmoid_output() {
        let samples = vec![
            (vec![0.0, 0.0], vec![0.0]),
            (vec![0.0, 1.0], vec![1.0]),
            (vec![1.0, 0.0], vec![1.0]),
            (vec![1.0, 1.0], vec![0.0]),
        ];
        let mlp = Trainer::new(Topology::new(&[2, 4, 1]).unwrap())
            .epochs(3000)
            .learning_rate(0.8)
            .output_activation(Activation::Sigmoid)
            .seed(3)
            .train(&samples)
            .unwrap();
        for (x, t) in &samples {
            let o = mlp.run(x).unwrap()[0];
            assert!((o - t[0]).abs() < 0.25, "xor({x:?}) = {o}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let samples = grid_samples(|x, y| x - y);
        let train = || {
            Trainer::new(Topology::new(&[2, 3, 1]).unwrap())
                .epochs(30)
                .seed(42)
                .train(&samples)
                .unwrap()
                .to_parameters()
        };
        assert_eq!(train(), train());
    }

    #[test]
    fn early_stop_respects_target() {
        let samples = grid_samples(|x, _| x);
        let mlp = Trainer::new(Topology::new(&[2, 2, 1]).unwrap())
            .epochs(10_000)
            .target_mse(1e-3)
            .seed(4)
            .train(&samples)
            .unwrap();
        // If early stopping worked this is still a good fit.
        let out = mlp.run(&[0.7, 0.3]).unwrap()[0];
        assert!((out - 0.7).abs() < 0.1);
    }

    #[test]
    fn rejects_empty_and_mismatched_sets() {
        let t = Topology::new(&[2, 2, 1]).unwrap();
        assert!(Trainer::new(t.clone()).train(&[]).is_err());
        assert!(Trainer::new(t.clone())
            .train(&[(vec![1.0], vec![1.0])])
            .is_err());
        assert!(Trainer::new(t)
            .train(&[(vec![1.0, 2.0], vec![1.0, 2.0])])
            .is_err());
    }

    #[test]
    fn normalizer_round_trip() {
        let samples = vec![vec![-5.0, 100.0], vec![5.0, 300.0], vec![0.0, 200.0]];
        let n = Normalizer::fit(&samples, 0.1, 0.9);
        for s in &samples {
            let back = n.inverse(&n.forward(s));
            for (a, b) in back.iter().zip(s) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn normalizer_constant_dimension() {
        let samples = vec![vec![3.0], vec![3.0]];
        let n = Normalizer::fit(&samples, 0.0, 1.0);
        assert_eq!(n.forward(&[3.0]), vec![0.5]);
        assert_eq!(n.inverse(&[0.5]), vec![3.0]);
    }

    #[test]
    fn normalizer_identity() {
        let n = Normalizer::identity(3);
        assert_eq!(n.dims(), 3);
        assert_eq!(n.forward(&[0.25, 0.5, 1.0]), vec![0.25, 0.5, 1.0]);
    }
}
