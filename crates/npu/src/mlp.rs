//! The floating-point MLP datapath.
//!
//! Weights are stored per layer in row-major `[neuron][input]` order — the
//! same order the PE array streams them — so the forward pass is a plain
//! sequence of dot products.

use crate::kernel::{self, KernelBackend, LANES};
use crate::topology::Topology;
use crate::{NpuError, Result};
use serde::{Deserialize, Serialize};

/// Activation function applied by a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Activation {
    /// Logistic sigmoid, `1 / (1 + e^-x)` — the NPU's hidden-layer unit.
    Sigmoid,
    /// Identity; used on output layers of regression networks.
    Linear,
}

impl Activation {
    /// Applies the activation to a pre-activation value.
    pub fn apply(&self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// Derivative of the activation expressed in terms of its *output* `y`
    /// (the form backpropagation wants).
    pub fn derivative_from_output(&self, y: f32) -> f32 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

/// One fully connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Layer {
    /// `weights[n * fan_in + i]` is the weight from input `i` to neuron `n`.
    pub(crate) weights: Vec<f32>,
    pub(crate) biases: Vec<f32>,
    pub(crate) fan_in: usize,
    pub(crate) activation: Activation,
}

impl Layer {
    fn forward_into(&self, input: &[f32], out: &mut Vec<f32>) {
        out.clear();
        // Four neurons share one pass over the input. Their accumulator
        // chains are independent and each keeps the exact per-neuron
        // operation order (bias, then `+= w * x` in ascending input
        // order), so the interleaving buys instruction-level parallelism
        // — a single chain is latency-bound on the FP adder — without
        // changing a single bit of the result.
        let mut rows = self.weights.chunks_exact(4 * self.fan_in);
        let mut biases = self.biases.chunks_exact(4);
        for (quad, b) in rows.by_ref().zip(biases.by_ref()) {
            let (r0, rest) = quad.split_at(self.fan_in);
            let (r1, rest) = rest.split_at(self.fan_in);
            let (r2, r3) = rest.split_at(self.fan_in);
            let (mut a0, mut a1, mut a2, mut a3) = (b[0], b[1], b[2], b[3]);
            for ((((&x, &w0), &w1), &w2), &w3) in input.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                a0 += w0 * x;
                a1 += w1 * x;
                a2 += w2 * x;
                a3 += w3 * x;
            }
            out.push(self.activation.apply(a0));
            out.push(self.activation.apply(a1));
            out.push(self.activation.apply(a2));
            out.push(self.activation.apply(a3));
        }
        for (row, &b) in rows
            .remainder()
            .chunks_exact(self.fan_in)
            .zip(biases.remainder())
        {
            let mut acc = b;
            for (&w, &x) in row.iter().zip(input) {
                acc += w * x;
            }
            out.push(self.activation.apply(acc));
        }
    }
}

/// Reusable per-layer activation buffers for allocation-free forward
/// passes ([`Mlp::forward_into`]).
///
/// One scratch adapts to any network — buffers are resized to each
/// topology on use — but buffers only stop reallocating once they have
/// seen the widest layer, so prefer [`ForwardScratch::for_topology`],
/// which presizes every buffer so no allocation happens after
/// construction (pinned by `tests/alloc_free.rs`). Keep one scratch per
/// thread and reuse it.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// `activations[0]` is the input copy; `activations[l + 1]` is the
    /// output of layer `l`.
    activations: Vec<Vec<f32>>,
}

impl ForwardScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch presized for `topology`, so no buffer ever
    /// reallocates — on either backend — once construction returns.
    pub fn for_topology(topology: &Topology) -> Self {
        let shape = topology.layers();
        Self {
            activations: shape.iter().map(|&w| Vec::with_capacity(w)).collect(),
        }
    }
}

/// Reusable buffers for the batched forward pass
/// ([`Mlp::forward_batch_into`]): two tile ping-pong buffers for the
/// SIMD backend and two per-sample layer buffers for the scalar
/// reference. [`BatchScratch::for_topology`] presizes everything.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    tile_a: Vec<f32>,
    tile_b: Vec<f32>,
    cur: Vec<f32>,
    next: Vec<f32>,
}

impl BatchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch presized for `topology`, so no buffer ever
    /// reallocates once construction returns.
    pub fn for_topology(topology: &Topology) -> Self {
        let widest = topology.layers().iter().copied().max().unwrap_or(0);
        Self {
            tile_a: vec![0.0; widest * LANES],
            tile_b: vec![0.0; widest * LANES],
            cur: Vec::with_capacity(widest),
            next: Vec::with_capacity(widest),
        }
    }

    fn ensure(&mut self, widest: usize) {
        if self.tile_a.len() < widest * LANES {
            self.tile_a.resize(widest * LANES, 0.0);
            self.tile_b.resize(widest * LANES, 0.0);
        }
    }
}

/// A multi-layer perceptron — the network the NPU executes.
///
/// Construct one with [`Trainer`](crate::train::Trainer) (the compiler's
/// path) or [`Mlp::from_parameters`] (loading a stored configuration).
///
/// # Example
///
/// ```
/// # use mithra_npu::mlp::{Activation, Mlp};
/// # use mithra_npu::topology::Topology;
/// // An identity-ish single linear neuron: y = 2x + 1.
/// let t = Topology::new(&[1, 1])?;
/// let mlp = Mlp::from_parameters(t, &[2.0], &[1.0], Activation::Linear)?;
/// assert_eq!(mlp.run(&[3.0])?, vec![7.0]);
/// # Ok::<(), mithra_npu::NpuError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    topology: Topology,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds an MLP from flat parameter slices.
    ///
    /// `weights` holds each layer's matrix in row-major `[neuron][input]`
    /// order, layers concatenated input-side first; `biases` holds each
    /// non-input neuron's bias in the same layer order. Hidden layers use
    /// sigmoid activation; the output layer uses `output_activation`.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] if the slice lengths do not
    /// match the topology's parameter counts.
    pub fn from_parameters(
        topology: Topology,
        weights: &[f32],
        biases: &[f32],
        output_activation: Activation,
    ) -> Result<Self> {
        if weights.len() != topology.weight_count() {
            return Err(NpuError::DimensionMismatch {
                expected: topology.weight_count(),
                actual: weights.len(),
            });
        }
        if biases.len() != topology.bias_count() {
            return Err(NpuError::DimensionMismatch {
                expected: topology.bias_count(),
                actual: biases.len(),
            });
        }
        let mut layers = Vec::with_capacity(topology.layers().len() - 1);
        let mut w_off = 0;
        let mut b_off = 0;
        let shape = topology.layers();
        for l in 0..shape.len() - 1 {
            let fan_in = shape[l];
            let fan_out = shape[l + 1];
            let activation = if l + 2 == shape.len() {
                output_activation
            } else {
                Activation::Sigmoid
            };
            layers.push(Layer {
                weights: weights[w_off..w_off + fan_in * fan_out].to_vec(),
                biases: biases[b_off..b_off + fan_out].to_vec(),
                fan_in,
                activation,
            });
            w_off += fan_in * fan_out;
            b_off += fan_out;
        }
        Ok(Self { topology, layers })
    }

    /// The network's shape.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Activation of the output layer.
    pub fn output_activation(&self) -> Activation {
        self.layers
            .last()
            .expect("topology guarantees at least one layer")
            .activation
    }

    /// Flattens the parameters back out in [`from_parameters`] order —
    /// the form the accelerator configuration FIFO transports.
    ///
    /// [`from_parameters`]: Self::from_parameters
    pub fn to_parameters(&self) -> (Vec<f32>, Vec<f32>) {
        let mut weights = Vec::with_capacity(self.topology.weight_count());
        let mut biases = Vec::with_capacity(self.topology.bias_count());
        for layer in &self.layers {
            weights.extend_from_slice(&layer.weights);
            biases.extend_from_slice(&layer.biases);
        }
        (weights, biases)
    }

    /// Runs one forward pass, allocating the output vector.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] if `input` does not match
    /// the input layer width.
    pub fn run(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut out = Vec::new();
        self.run_into(input, &mut out)?;
        Ok(out)
    }

    /// Runs one forward pass into a caller-provided buffer, avoiding
    /// allocation on hot paths (profiling runs millions of invocations).
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] if `input` does not match
    /// the input layer width.
    pub fn run_into(&self, input: &[f32], output: &mut Vec<f32>) -> Result<()> {
        if input.len() != self.topology.inputs() {
            return Err(NpuError::DimensionMismatch {
                expected: self.topology.inputs(),
                actual: input.len(),
            });
        }
        let mut current: Vec<f32> = input.to_vec();
        let mut next: Vec<f32> = Vec::new();
        for layer in &self.layers {
            layer.forward_into(&current, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
        output.clear();
        output.extend_from_slice(&current);
        Ok(())
    }

    /// Runs one forward pass through caller-owned scratch buffers — the
    /// hot-path entry point, performing no allocation once the scratch has
    /// warmed up. Returns the output activations borrowed from the
    /// scratch.
    ///
    /// The per-neuron arithmetic is identical to [`run_into`] — same
    /// dot-product order — so the two entry points are bit-equal.
    ///
    /// [`run_into`]: Self::run_into
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] if `input` does not match
    /// the input layer width.
    pub fn forward_into<'s>(
        &self,
        input: &[f32],
        scratch: &'s mut ForwardScratch,
    ) -> Result<&'s [f32]> {
        if input.len() != self.topology.inputs() {
            return Err(NpuError::DimensionMismatch {
                expected: self.topology.inputs(),
                actual: input.len(),
            });
        }
        scratch
            .activations
            .resize_with(self.layers.len() + 1, Vec::new);
        scratch.activations[0].clear();
        scratch.activations[0].extend_from_slice(input);
        for (l, layer) in self.layers.iter().enumerate() {
            let (prev, next) = scratch.activations.split_at_mut(l + 1);
            layer.forward_into(&prev[l], &mut next[0]);
        }
        Ok(scratch
            .activations
            .last()
            .expect("seeded with the input above"))
    }

    /// Backend-dispatched [`forward_into`]: `Scalar` runs the bit-exact
    /// reference path; `Simd` runs the single-lane kernel
    /// ([`kernel::layer_forward_lane`]), which replicates a tile lane's
    /// exact operation sequence and is therefore bit-identical to the
    /// same sample inside a full [`forward_batch_into_with`] tile
    /// (per-lane independence — see [`crate::kernel`]) without paying
    /// for seven padding lanes. Both paths leave the full activation
    /// trace in `scratch`.
    ///
    /// [`forward_into`]: Self::forward_into
    /// [`forward_batch_into`]: Self::forward_batch_into
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] if `input` does not match
    /// the input layer width.
    pub fn forward_into_with<'s>(
        &self,
        backend: KernelBackend,
        input: &[f32],
        scratch: &'s mut ForwardScratch,
    ) -> Result<&'s [f32]> {
        match backend {
            KernelBackend::Scalar => self.forward_into(input, scratch),
            KernelBackend::Simd => {
                if input.len() != self.topology.inputs() {
                    return Err(NpuError::DimensionMismatch {
                        expected: self.topology.inputs(),
                        actual: input.len(),
                    });
                }
                scratch
                    .activations
                    .resize_with(self.layers.len() + 1, Vec::new);
                scratch.activations[0].clear();
                scratch.activations[0].extend_from_slice(input);
                for (l, layer) in self.layers.iter().enumerate() {
                    let fan_out = layer.biases.len();
                    let (prev, next) = scratch.activations.split_at_mut(l + 1);
                    next[0].clear();
                    next[0].resize(fan_out, 0.0);
                    kernel::layer_forward_lane(
                        &layer.weights,
                        &layer.biases,
                        layer.fan_in,
                        layer.activation,
                        &prev[l],
                        &mut next[0],
                    );
                }
                Ok(scratch
                    .activations
                    .last()
                    .expect("seeded with the input above"))
            }
        }
    }

    /// Batched matrix–matrix forward on the **scalar reference** path:
    /// `inputs` holds `count` samples concatenated sample-major, and
    /// `outputs` receives the `count` output vectors in the same layout.
    /// Arithmetic is exactly a per-invocation [`run_into`] loop — same
    /// operation order per sample, bit-identical — with the per-layer
    /// buffers reused from `scratch` instead of reallocated.
    ///
    /// [`run_into`]: Self::run_into
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] if `inputs` is not
    /// `count` input-layer widths long.
    pub fn forward_batch_into(
        &self,
        inputs: &[f32],
        count: usize,
        outputs: &mut Vec<f32>,
        scratch: &mut BatchScratch,
    ) -> Result<()> {
        let in_dim = self.topology.inputs();
        if inputs.len() != count * in_dim {
            return Err(NpuError::DimensionMismatch {
                expected: count * in_dim,
                actual: inputs.len(),
            });
        }
        outputs.clear();
        for input in inputs.chunks_exact(in_dim.max(1)).take(count) {
            scratch.cur.clear();
            scratch.cur.extend_from_slice(input);
            for layer in &self.layers {
                layer.forward_into(&scratch.cur, &mut scratch.next);
                std::mem::swap(&mut scratch.cur, &mut scratch.next);
            }
            outputs.extend_from_slice(&scratch.cur);
        }
        Ok(())
    }

    /// Backend-dispatched [`forward_batch_into`]. The `Simd` backend
    /// packs [`LANES`] samples per tile (the last tile zero-padded) and
    /// amortizes one weight traversal across all of them; each sample's
    /// result is bit-identical to [`forward_into_with`] on the same
    /// backend.
    ///
    /// [`forward_batch_into`]: Self::forward_batch_into
    /// [`forward_into_with`]: Self::forward_into_with
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] if `inputs` is not
    /// `count` input-layer widths long.
    pub fn forward_batch_into_with(
        &self,
        backend: KernelBackend,
        inputs: &[f32],
        count: usize,
        outputs: &mut Vec<f32>,
        scratch: &mut BatchScratch,
    ) -> Result<()> {
        match backend {
            KernelBackend::Scalar => self.forward_batch_into(inputs, count, outputs, scratch),
            KernelBackend::Simd => {
                let in_dim = self.topology.inputs();
                let out_dim = self.topology.outputs();
                if inputs.len() != count * in_dim {
                    return Err(NpuError::DimensionMismatch {
                        expected: count * in_dim,
                        actual: inputs.len(),
                    });
                }
                scratch.ensure(self.widest());
                outputs.clear();
                outputs.resize(count * out_dim, 0.0);
                for group in 0..count.div_ceil(LANES) {
                    let base = group * LANES;
                    let lanes = LANES.min(count - base);
                    if lanes <= kernel::LANE_REMAINDER_CUTOFF {
                        // A thin remainder group: a padded tile would
                        // spend most of its lanes on zeros, so each
                        // sample runs the single-lane kernel instead —
                        // bit-identical to its lane in a padded tile.
                        for l in 0..lanes {
                            let sample = &inputs[(base + l) * in_dim..(base + l + 1) * in_dim];
                            scratch.tile_a[..in_dim].copy_from_slice(sample);
                            for layer in &self.layers {
                                let fan_out = layer.biases.len();
                                kernel::layer_forward_lane(
                                    &layer.weights,
                                    &layer.biases,
                                    layer.fan_in,
                                    layer.activation,
                                    &scratch.tile_a[..layer.fan_in],
                                    &mut scratch.tile_b[..fan_out],
                                );
                                std::mem::swap(&mut scratch.tile_a, &mut scratch.tile_b);
                            }
                            outputs[(base + l) * out_dim..(base + l + 1) * out_dim]
                                .copy_from_slice(&scratch.tile_a[..out_dim]);
                        }
                        continue;
                    }
                    for i in 0..in_dim {
                        let tile = &mut scratch.tile_a[i * LANES..(i + 1) * LANES];
                        for (l, t) in tile.iter_mut().enumerate() {
                            *t = if l < lanes {
                                inputs[(base + l) * in_dim + i]
                            } else {
                                0.0
                            };
                        }
                    }
                    for layer in &self.layers {
                        let fan_out = layer.biases.len();
                        kernel::layer_forward_tile(
                            &layer.weights,
                            &layer.biases,
                            layer.fan_in,
                            layer.activation,
                            &scratch.tile_a[..layer.fan_in * LANES],
                            &mut scratch.tile_b[..fan_out * LANES],
                        );
                        std::mem::swap(&mut scratch.tile_a, &mut scratch.tile_b);
                    }
                    for n in 0..out_dim {
                        for l in 0..lanes {
                            outputs[(base + l) * out_dim + n] = scratch.tile_a[n * LANES + l];
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Width of the widest level (input, hidden or output).
    pub(crate) fn widest(&self) -> usize {
        self.topology
            .layers()
            .iter()
            .copied()
            .max()
            .expect("a topology has at least two levels")
    }

    pub(crate) fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    pub(crate) fn layers(&self) -> &[Layer] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_network() -> Mlp {
        // Hand-built XOR: hidden sigmoid pair, linear output.
        let t = Topology::new(&[2, 2, 1]).unwrap();
        let weights = [
            // hidden neuron 0: OR-ish, neuron 1: AND-ish
            20.0, 20.0, //
            20.0, 20.0, //
            // output: or - 2*and
            20.0, -40.0,
        ];
        let biases = [-10.0, -30.0, -10.0];
        Mlp::from_parameters(t, &weights, &biases, Activation::Linear).unwrap()
    }

    #[test]
    fn xor_behaviour() {
        let mlp = xor_network();
        let f = |a: f32, b: f32| mlp.run(&[a, b]).unwrap()[0];
        assert!(f(0.0, 0.0) < 0.0);
        assert!(f(1.0, 0.0) > 0.0);
        assert!(f(0.0, 1.0) > 0.0);
        assert!(f(1.0, 1.0) < 0.0);
    }

    #[test]
    fn parameter_round_trip() {
        let mlp = xor_network();
        let (w, b) = mlp.to_parameters();
        let rebuilt =
            Mlp::from_parameters(mlp.topology().clone(), &w, &b, Activation::Linear).unwrap();
        assert_eq!(mlp, rebuilt);
    }

    #[test]
    fn dimension_checks() {
        let mlp = xor_network();
        assert!(matches!(
            mlp.run(&[1.0]),
            Err(NpuError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
        let t = Topology::new(&[2, 2, 1]).unwrap();
        assert!(Mlp::from_parameters(t.clone(), &[0.0; 3], &[0.0; 3], Activation::Linear).is_err());
        assert!(Mlp::from_parameters(t, &[0.0; 6], &[0.0; 1], Activation::Linear).is_err());
    }

    #[test]
    fn run_into_reuses_buffer() {
        let mlp = xor_network();
        let mut buf = vec![99.0; 8];
        mlp.run_into(&[1.0, 0.0], &mut buf).unwrap();
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn sigmoid_saturates() {
        assert!((Activation::Sigmoid.apply(40.0) - 1.0).abs() < 1e-6);
        assert!(Activation::Sigmoid.apply(-40.0).abs() < 1e-6);
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
    }

    #[test]
    fn forward_into_matches_run_and_reuses_scratch() {
        let mlp = xor_network();
        let mut scratch = ForwardScratch::new();
        let out = mlp
            .forward_into(&[1.0, 0.0], &mut scratch)
            .unwrap()
            .to_vec();
        assert_eq!(out, mlp.run(&[1.0, 0.0]).unwrap());
        // Reuse across inputs must not leak previous activations.
        let again = mlp
            .forward_into(&[0.0, 0.0], &mut scratch)
            .unwrap()
            .to_vec();
        assert_eq!(again, mlp.run(&[0.0, 0.0]).unwrap());
    }

    #[test]
    fn forward_into_rejects_bad_width() {
        let mlp = xor_network();
        let mut scratch = ForwardScratch::new();
        assert!(matches!(
            mlp.forward_into(&[1.0], &mut scratch),
            Err(NpuError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }
}
