//! The accelerated target function: a benchmark's kernel bound to its
//! trained NPU configuration.
//!
//! This couples a [`Benchmark`] with the trained network and the
//! input/output normalizers the NPU compiler fits. It also defines the
//! **accelerator error** of an invocation: the paper's Equation (1)
//! compares precise and approximate output vectors element-wise against
//! the threshold, and MITHRA deems an invocation unacceptable if *any*
//! element exceeds it. Errors are measured in normalized output space so a
//! single threshold is meaningful across output dimensions with different
//! physical scales.

use crate::Result;
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::{Dataset, DatasetScale};
use mithra_npu::mlp::{Activation, BatchScratch, ForwardScratch, Mlp};
use mithra_npu::topology::Topology;
use mithra_npu::train::{Normalizer, Trainer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Settings for offline NPU training.
#[derive(Debug, Clone, PartialEq)]
pub struct NpuTrainConfig {
    /// Training epochs; `None` uses the benchmark's suggested count.
    pub epochs: Option<usize>,
    /// Cap on (input, output) samples drawn from the training datasets.
    pub max_samples: usize,
    /// RNG seed for sampling and weight initialization.
    pub seed: u64,
}

impl Default for NpuTrainConfig {
    fn default() -> Self {
        Self {
            epochs: None,
            max_samples: 20_000,
            seed: 0x4E50_5545,
        }
    }
}

/// Reusable buffers for the accelerator's invocation hot path.
///
/// Profiling replays hundreds of thousands of invocations; allocating the
/// normalized-input staging buffer, the network's per-layer activations
/// and the two normalized-output buffers on every call dominates the
/// arithmetic. One `InvokeScratch` per thread removes every per-call
/// allocation. The scratch carries no results between calls — reusing one
/// is bit-identical to the allocating [`AcceleratedFunction::approx_into`]
/// path.
#[derive(Debug, Clone, Default)]
pub struct InvokeScratch {
    normalized_in: Vec<f32>,
    fwd: ForwardScratch,
    precise_norm: Vec<f32>,
    approx_norm: Vec<f32>,
    /// Batched-forward staging: normalized inputs and raw network
    /// outputs for a whole block, plus the network's tile buffers.
    normalized_block: Vec<f32>,
    raw_block: Vec<f32>,
    batch: BatchScratch,
}

impl InvokeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch presized for a network of `topology`, so the
    /// single-invocation paths never allocate after construction
    /// (batched blocks still grow once to the first block's size).
    pub fn for_topology(topology: &Topology) -> Self {
        Self {
            normalized_in: Vec::with_capacity(topology.inputs()),
            fwd: ForwardScratch::for_topology(topology),
            precise_norm: Vec::with_capacity(topology.outputs()),
            approx_norm: Vec::with_capacity(topology.outputs()),
            normalized_block: Vec::new(),
            raw_block: Vec::new(),
            batch: BatchScratch::for_topology(topology),
        }
    }
}

/// A benchmark kernel bound to its trained approximate accelerator.
#[derive(Debug, Clone)]
pub struct AcceleratedFunction {
    benchmark: Arc<dyn Benchmark>,
    npu: Mlp,
    input_norm: Normalizer,
    output_norm: Normalizer,
}

impl AcceleratedFunction {
    /// Trains the NPU on profile samples drawn from `datasets` and binds
    /// it to the benchmark.
    ///
    /// This is the standard NPU compilation workflow (paper \[16\]): profile
    /// the target function, normalize, train a fixed-topology MLP offline.
    ///
    /// # Errors
    ///
    /// Propagates NPU training failures (e.g. no samples).
    pub fn train(
        benchmark: Arc<dyn Benchmark>,
        datasets: &[Dataset],
        config: &NpuTrainConfig,
    ) -> Result<Self> {
        let topology = benchmark.npu_topology();
        Self::train_with_topology(benchmark, datasets, config, &topology)
    }

    /// [`AcceleratedFunction::train`] on an explicit network topology —
    /// how an approximator pool trains its cheap/medium members. With
    /// `topology == benchmark.npu_topology()` this is the same code path
    /// as `train`, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates NPU training failures (e.g. no samples, or a topology
    /// whose input/output widths do not match the benchmark).
    pub fn train_with_topology(
        benchmark: Arc<dyn Benchmark>,
        datasets: &[Dataset],
        config: &NpuTrainConfig,
        topology: &Topology,
    ) -> Result<Self> {
        // Collect raw (input, precise output) pairs, subsampled.
        let mut pairs: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
        let mut out = Vec::with_capacity(benchmark.output_dim());
        for ds in datasets {
            for input in ds.iter() {
                benchmark.precise(input, &mut out);
                pairs.push((input.to_vec(), out.clone()));
            }
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        pairs.shuffle(&mut rng);
        pairs.truncate(config.max_samples);

        // Fit normalizers in raw space (inputs -> [0,1], outputs -> [0.1, 0.9]
        // so the network's linear output layer trains in a gentle range).
        let inputs: Vec<Vec<f32>> = pairs.iter().map(|(i, _)| i.clone()).collect();
        let outputs: Vec<Vec<f32>> = pairs.iter().map(|(_, o)| o.clone()).collect();
        let input_norm = Normalizer::fit(&inputs, 0.0, 1.0);
        let output_norm = Normalizer::fit(&outputs, 0.1, 0.9);

        let normalized: Vec<(Vec<f32>, Vec<f32>)> = pairs
            .iter()
            .map(|(i, o)| (input_norm.forward(i), output_norm.forward(o)))
            .collect();

        let epochs = config
            .epochs
            .unwrap_or_else(|| benchmark.npu_training_epochs());
        let npu = Trainer::new(topology.clone())
            .epochs(epochs)
            .learning_rate(0.3)
            .batch_size(32)
            .seed(config.seed)
            .output_activation(Activation::Linear)
            .train(&normalized)?;

        Ok(Self {
            benchmark,
            npu,
            input_norm,
            output_norm,
        })
    }

    /// Builds an accelerated function from pre-trained parts (loading a
    /// stored accelerator configuration).
    pub fn from_parts(
        benchmark: Arc<dyn Benchmark>,
        npu: Mlp,
        input_norm: Normalizer,
        output_norm: Normalizer,
    ) -> Self {
        Self {
            benchmark,
            npu,
            input_norm,
            output_norm,
        }
    }

    /// The underlying benchmark.
    pub fn benchmark(&self) -> &Arc<dyn Benchmark> {
        &self.benchmark
    }

    /// The trained network.
    pub fn npu(&self) -> &Mlp {
        &self.npu
    }

    /// The fitted input normalizer (the table classifier's quantizer is
    /// derived from the same ranges).
    pub fn input_normalizer(&self) -> &Normalizer {
        &self.input_norm
    }

    /// The fitted output normalizer (defines the normalized error space
    /// the threshold lives in).
    pub fn output_normalizer(&self) -> &Normalizer {
        &self.output_norm
    }

    /// Generates a dataset through the underlying benchmark.
    pub fn dataset(&self, seed: u64, scale: DatasetScale) -> Dataset {
        self.benchmark.dataset(seed, scale)
    }

    /// Runs the accelerator for one invocation, producing raw-space
    /// outputs in `out`.
    pub fn approx_into(&self, input: &[f32], out: &mut Vec<f32>) {
        self.try_approx_into(input, out)
            .expect("topology input width matches benchmark input_dim");
    }

    /// Fallible form of [`AcceleratedFunction::approx_into`] for runtime
    /// paths that must not panic (e.g. the simulator's decision loop).
    ///
    /// # Errors
    ///
    /// Returns [`mithra_npu::NpuError::DimensionMismatch`] if `input` does
    /// not match the network's input layer.
    pub fn try_approx_into(&self, input: &[f32], out: &mut Vec<f32>) -> Result<()> {
        let mut scratch = InvokeScratch::new();
        self.try_approx_with(input, out, &mut scratch)
    }

    /// Zero-allocation form of [`AcceleratedFunction::approx_into`]:
    /// normalize, run and denormalize entirely through caller-owned
    /// scratch buffers. Hot loops (profiling, benchmarking) should hold
    /// one scratch per thread and call this.
    pub fn approx_with(&self, input: &[f32], out: &mut Vec<f32>, scratch: &mut InvokeScratch) {
        self.try_approx_with(input, out, scratch)
            .expect("topology input width matches benchmark input_dim");
    }

    /// Fallible form of [`AcceleratedFunction::approx_with`].
    ///
    /// # Errors
    ///
    /// Returns [`mithra_npu::NpuError::DimensionMismatch`] if `input` does
    /// not match the network's input layer.
    pub fn try_approx_with(
        &self,
        input: &[f32],
        out: &mut Vec<f32>,
        scratch: &mut InvokeScratch,
    ) -> Result<()> {
        self.input_norm
            .forward_into(input, &mut scratch.normalized_in);
        let raw = self
            .npu
            .forward_into(&scratch.normalized_in, &mut scratch.fwd)?;
        self.output_norm.inverse_into(raw, out);
        Ok(())
    }

    /// Batched form of [`AcceleratedFunction::approx_with`]: `inputs`
    /// holds `count` raw-space input vectors concatenated sample-major;
    /// `outputs` receives the `count` raw-space output vectors in the
    /// same layout. The block runs eight samples to a lane-parallel tile,
    /// and every sample's result is bit-identical to
    /// the per-invocation
    /// [`approx_with`](AcceleratedFunction::approx_with) call (pinned by
    /// `mithra-npu/tests/kernel_parity.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `count` input widths long — batch
    /// callers own the layout.
    pub fn approx_batch_with(
        &self,
        inputs: &[f32],
        count: usize,
        outputs: &mut Vec<f32>,
        scratch: &mut InvokeScratch,
    ) {
        let in_dim = self.input_norm.dims();
        assert_eq!(inputs.len(), count * in_dim, "batch input layout");
        scratch.normalized_block.clear();
        for input in inputs.chunks_exact(in_dim.max(1)).take(count) {
            self.input_norm
                .forward_into(input, &mut scratch.normalized_in);
            scratch
                .normalized_block
                .extend_from_slice(&scratch.normalized_in);
        }
        self.npu
            .forward_batch_into(
                &scratch.normalized_block,
                count,
                &mut scratch.raw_block,
                &mut scratch.batch,
            )
            .expect("normalized batch matches the network input width");
        let out_dim = self.npu.topology().outputs();
        outputs.clear();
        for raw in scratch.raw_block.chunks_exact(out_dim).take(count) {
            self.output_norm.inverse_into(raw, &mut scratch.approx_norm);
            outputs.extend_from_slice(&scratch.approx_norm);
        }
    }

    /// Runs the precise function for one invocation.
    pub fn precise_into(&self, input: &[f32], out: &mut Vec<f32>) {
        self.benchmark.precise(input, out);
    }

    /// The accelerator error of an invocation in normalized output space:
    /// the maximum over elements of `|precise − approx| / range`, the
    /// quantity Equation (1) compares against the threshold.
    ///
    /// A NaN element (a corrupted accelerator can emit one) scores
    /// infinite error so the invocation fails *every* threshold —
    /// `f32::max` would otherwise silently skip it.
    pub fn max_normalized_error(&self, precise: &[f32], approx: &[f32]) -> f32 {
        let mut scratch = InvokeScratch::new();
        self.max_normalized_error_with(precise, approx, &mut scratch)
    }

    /// Zero-allocation form of
    /// [`AcceleratedFunction::max_normalized_error`], normalizing both
    /// vectors through scratch buffers. Bit-identical to the allocating
    /// form.
    pub fn max_normalized_error_with(
        &self,
        precise: &[f32],
        approx: &[f32],
        scratch: &mut InvokeScratch,
    ) -> f32 {
        self.output_norm
            .forward_into(precise, &mut scratch.precise_norm);
        self.output_norm
            .forward_into(approx, &mut scratch.approx_norm);
        scratch
            .precise_norm
            .iter()
            .zip(&scratch.approx_norm)
            .map(|(x, y)| {
                let d = (x - y).abs();
                if d.is_nan() {
                    f32::INFINITY
                } else {
                    d
                }
            })
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithra_axbench::suite;

    fn trained_sobel() -> AcceleratedFunction {
        let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
        let datasets: Vec<Dataset> = (0..3)
            .map(|s| bench.dataset(s, DatasetScale::Smoke))
            .collect();
        AcceleratedFunction::train(
            bench,
            &datasets,
            &NpuTrainConfig {
                epochs: Some(30),
                max_samples: 2000,
                seed: 1,
            },
        )
        .unwrap()
    }

    #[test]
    fn approx_tracks_precise_roughly() {
        let f = trained_sobel();
        let ds = f.dataset(50, DatasetScale::Smoke);
        let (mut p, mut a) = (Vec::new(), Vec::new());
        let mut total_err = 0.0f32;
        for input in ds.iter() {
            f.precise_into(input, &mut p);
            f.approx_into(input, &mut a);
            total_err += f.max_normalized_error(&p, &a);
        }
        let mean = total_err / ds.invocation_count() as f32;
        assert!(mean < 0.25, "mean normalized error {mean} too high");
    }

    #[test]
    fn error_is_zero_for_identical_outputs() {
        let f = trained_sobel();
        assert_eq!(f.max_normalized_error(&[100.0], &[100.0]), 0.0);
    }

    #[test]
    fn error_scales_with_divergence() {
        let f = trained_sobel();
        let small = f.max_normalized_error(&[100.0], &[105.0]);
        let large = f.max_normalized_error(&[100.0], &[200.0]);
        assert!(large > small);
        assert!(small > 0.0);
    }

    #[test]
    fn nan_output_fails_every_threshold() {
        let f = trained_sobel();
        let e = f.max_normalized_error(&[100.0], &[f32::NAN]);
        assert_eq!(e, f32::INFINITY);
    }

    #[test]
    fn try_approx_rejects_bad_width() {
        let f = trained_sobel();
        let mut out = Vec::new();
        assert!(f.try_approx_into(&[1.0], &mut out).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let a = trained_sobel();
        let b = trained_sobel();
        assert_eq!(a.npu().to_parameters(), b.npu().to_parameters());
    }
}
