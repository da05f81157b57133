//! Fixed-point datapath: what the NPU hardware actually computes.
//!
//! The hardware PEs use fixed-point multiply-accumulate units and a
//! lookup-table sigmoid rather than IEEE floating point. This module models
//! that: values are Q-format signed integers and the sigmoid is a uniform
//! 256-entry LUT with linear interpolation. Quantization is one of the
//! sources of the accelerator's approximation error, so profiling through
//! [`FixedMlp`] exposes error behaviour the f32 path would hide.

use crate::fault::FaultSite;
use crate::mlp::{Activation, Mlp};
use crate::{NpuError, Result};

/// A Q-format signed fixed-point configuration: `frac_bits` fractional bits
/// in an `i32` container (accumulation in `i64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QFormat {
    frac_bits: u32,
}

impl QFormat {
    /// Creates a Q-format with the given number of fractional bits
    /// (1..=24; the NPU uses Q16.16-like formats).
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::InvalidTopology`] (reused as the generic
    /// configuration error) if `frac_bits` is out of range.
    pub fn new(frac_bits: u32) -> Result<Self> {
        if !(1..=24).contains(&frac_bits) {
            return Err(NpuError::InvalidTopology {
                reason: "fixed-point fractional bits must be in 1..=24",
            });
        }
        Ok(Self { frac_bits })
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Quantizes an `f32` to this format (round-to-nearest, saturating).
    pub fn quantize(&self, v: f32) -> i32 {
        let scaled = f64::from(v) * (1i64 << self.frac_bits) as f64;
        scaled
            .round()
            .clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
    }

    /// Converts a fixed-point value back to `f32`.
    pub fn dequantize(&self, v: i32) -> f32 {
        (f64::from(v) / (1i64 << self.frac_bits) as f64) as f32
    }

    /// Multiplies two fixed-point values, keeping the format.
    fn mul(&self, a: i32, b: i32) -> i64 {
        (i64::from(a) * i64::from(b)) >> self.frac_bits
    }

    fn saturate(&self, v: i64) -> i32 {
        v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
    }
}

/// The hardware sigmoid: a 256-entry LUT over `[-8, 8]` with linear
/// interpolation, saturating outside the covered range.
#[derive(Debug, Clone)]
pub struct SigmoidLut {
    table: Vec<f32>,
    range: f32,
}

impl SigmoidLut {
    /// Builds the LUT with `entries` samples over `[-range, range]`.
    pub fn new(entries: usize, range: f32) -> Self {
        let entries = entries.max(2);
        let table = (0..entries)
            .map(|i| {
                let x = -range + 2.0 * range * i as f32 / (entries - 1) as f32;
                1.0 / (1.0 + (-x).exp())
            })
            .collect();
        Self { table, range }
    }

    /// The default hardware configuration: 256 entries over `[-8, 8]`.
    pub fn hardware_default() -> Self {
        Self::new(256, 8.0)
    }

    /// Evaluates the LUT sigmoid at `x`.
    pub fn eval(&self, x: f32) -> f32 {
        if x <= -self.range {
            return self.table[0];
        }
        if x >= self.range {
            return self.table[self.table.len() - 1];
        }
        let pos = (x + self.range) / (2.0 * self.range) * (self.table.len() - 1) as f32;
        let idx = pos.floor() as usize;
        let frac = pos - idx as f32;
        let hi = (idx + 1).min(self.table.len() - 1);
        self.table[idx] * (1.0 - frac) + self.table[hi] * frac
    }
}

impl FaultSite for SigmoidLut {
    /// Entry `i` occupies bits `32·i .. 32·(i+1)` of its IEEE-754
    /// representation.
    fn fault_bits(&self) -> u64 {
        self.table.len() as u64 * 32
    }

    /// A flip in the exponent or sign bits can turn an entry into a huge
    /// value, an infinity or a NaN — exactly the corrupted outputs the
    /// quality metrics' NaN policy has to absorb.
    fn flip_bit(&mut self, index: u64) {
        let entry = (index / 32) as usize;
        let bit = (index % 32) as u32;
        self.table[entry] = f32::from_bits(self.table[entry].to_bits() ^ (1 << bit));
    }
}

/// A quantized MLP evaluated entirely in fixed point.
///
/// # Example
///
/// ```
/// # use mithra_npu::fixed::{FixedMlp, QFormat};
/// # use mithra_npu::mlp::{Activation, Mlp};
/// # use mithra_npu::topology::Topology;
/// let t = Topology::new(&[1, 1])?;
/// let mlp = Mlp::from_parameters(t, &[0.5], &[0.25], Activation::Linear)?;
/// let fixed = FixedMlp::quantize(&mlp, QFormat::new(16)?);
/// let out = fixed.run(&[1.0])?;
/// assert!((out[0] - 0.75).abs() < 1e-3);
/// # Ok::<(), mithra_npu::NpuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FixedMlp {
    format: QFormat,
    lut: SigmoidLut,
    layers: Vec<FixedLayer>,
    inputs: usize,
}

#[derive(Debug, Clone)]
struct FixedLayer {
    weights: Vec<i32>,
    biases: Vec<i32>,
    fan_in: usize,
    activation: Activation,
}

/// Reusable layer buffers for allocation-free fixed-point inference
/// ([`FixedMlp::run_into`]).
#[derive(Debug, Clone, Default)]
pub struct FixedScratch {
    cur: Vec<i32>,
    next: Vec<i32>,
}

impl FixedScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FixedMlp {
    /// Quantizes a trained floating-point network into this datapath.
    pub fn quantize(mlp: &Mlp, format: QFormat) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|l| FixedLayer {
                weights: l.weights.iter().map(|&w| format.quantize(w)).collect(),
                biases: l.biases.iter().map(|&b| format.quantize(b)).collect(),
                fan_in: l.fan_in,
                activation: l.activation,
            })
            .collect();
        Self {
            format,
            lut: SigmoidLut::hardware_default(),
            layers,
            inputs: mlp.topology().inputs(),
        }
    }

    /// The fixed-point format in use.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Runs a forward pass in fixed point; inputs and outputs are `f32` at
    /// the interface (the FIFOs carry quantized values; conversion happens
    /// at the boundary).
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] on input length mismatch.
    pub fn run(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut out = Vec::new();
        self.run_into(input, &mut out, &mut FixedScratch::new())?;
        Ok(out)
    }

    /// [`run`](Self::run) through caller-owned buffers — the hot-path
    /// form the fault re-profiling loop uses, performing no allocation
    /// with a presized [`FixedScratch`].
    ///
    /// The accumulation interleaves four partial sums per neuron, but
    /// integer addition is associative, so — unlike the float datapath —
    /// this is bit-exact against the plain sequential sum.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] on input length mismatch.
    pub fn run_into(
        &self,
        input: &[f32],
        output: &mut Vec<f32>,
        scratch: &mut FixedScratch,
    ) -> Result<()> {
        if input.len() != self.inputs {
            return Err(NpuError::DimensionMismatch {
                expected: self.inputs,
                actual: input.len(),
            });
        }
        scratch.cur.clear();
        scratch
            .cur
            .extend(input.iter().map(|&v| self.format.quantize(v)));
        for layer in &self.layers {
            scratch.next.clear();
            for n in 0..layer.biases.len() {
                let row = &layer.weights[n * layer.fan_in..(n + 1) * layer.fan_in];
                let mut accs = [0i64, 0, 0, 0];
                let mut quads = row.chunks_exact(4);
                let mut inputs = scratch.cur.chunks_exact(4);
                for (w, x) in quads.by_ref().zip(inputs.by_ref()) {
                    for k in 0..4 {
                        accs[k] += self.format.mul(w[k], x[k]);
                    }
                }
                let mut acc = i64::from(layer.biases[n]) + accs[0] + accs[1] + accs[2] + accs[3];
                for (w, x) in quads.remainder().iter().zip(inputs.remainder()) {
                    acc += self.format.mul(*w, *x);
                }
                let acc = self.format.saturate(acc);
                let v = match layer.activation {
                    Activation::Sigmoid => self
                        .format
                        .quantize(self.lut.eval(self.format.dequantize(acc))),
                    Activation::Linear => acc,
                };
                scratch.next.push(v);
            }
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        output.clear();
        output.extend(scratch.cur.iter().map(|&v| self.format.dequantize(v)));
        Ok(())
    }

    /// The sigmoid LUT, for fault plans corrupting its entries.
    pub fn lut_mut(&mut self) -> &mut SigmoidLut {
        &mut self.lut
    }
}

impl FaultSite for FixedMlp {
    /// Layer by layer, each layer's weight words then its bias words, 32
    /// bits per fixed-point word — the order the configuration FIFO
    /// streams them into the weight buffers.
    fn fault_bits(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.weights.len() + l.biases.len()) as u64 * 32)
            .sum()
    }

    fn flip_bit(&mut self, index: u64) {
        let mut word = (index / 32) as usize;
        let bit = (index % 32) as u32;
        for layer in &mut self.layers {
            if word < layer.weights.len() {
                layer.weights[word] ^= 1 << bit;
                return;
            }
            word -= layer.weights.len();
            if word < layer.biases.len() {
                layer.biases[word] ^= 1 << bit;
                return;
            }
            word -= layer.biases.len();
        }
        panic!("fault bit index out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn qformat_round_trip() {
        let q = QFormat::new(16).unwrap();
        for &v in &[0.0f32, 1.0, -1.0, std::f32::consts::PI, -127.5] {
            let back = q.dequantize(q.quantize(v));
            assert!((back - v).abs() < 1e-4, "{v} -> {back}");
        }
    }

    #[test]
    fn qformat_saturates() {
        let q = QFormat::new(16).unwrap();
        assert_eq!(q.quantize(1e9), i32::MAX);
        assert_eq!(q.quantize(-1e9), i32::MIN);
    }

    #[test]
    fn qformat_rejects_bad_widths() {
        assert!(QFormat::new(0).is_err());
        assert!(QFormat::new(30).is_err());
    }

    #[test]
    fn lut_matches_sigmoid() {
        let lut = SigmoidLut::hardware_default();
        for i in -80..=80 {
            let x = i as f32 / 10.0;
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!((lut.eval(x) - exact).abs() < 2e-3, "x = {x}");
        }
    }

    #[test]
    fn lut_saturates_outside_range() {
        let lut = SigmoidLut::hardware_default();
        assert!((lut.eval(100.0) - 1.0).abs() < 1e-3);
        assert!(lut.eval(-100.0) < 1e-3);
    }

    #[test]
    fn fixed_tracks_float_closely() {
        // A small trained-looking network: fixed-point output should be
        // within quantization distance of the float path.
        let t = Topology::new(&[2, 3, 1]).unwrap();
        let weights = [0.5, -0.25, 0.75, 0.1, -0.6, 0.33, 1.0, -1.0, 0.5];
        let biases = [0.05, -0.1, 0.2, 0.0];
        let mlp = Mlp::from_parameters(t, &weights, &biases, Activation::Linear).unwrap();
        let fixed = FixedMlp::quantize(&mlp, QFormat::new(16).unwrap());
        for &input in &[[0.3f32, 0.7f32], [1.0, -1.0], [0.0, 0.0]] {
            let f = mlp.run(&input).unwrap()[0];
            let q = fixed.run(&input).unwrap()[0];
            assert!((f - q).abs() < 5e-3, "float {f} vs fixed {q}");
        }
    }

    #[test]
    fn coarse_quantization_introduces_error() {
        let t = Topology::new(&[1, 1]).unwrap();
        let mlp = Mlp::from_parameters(t, &[0.123456], &[0.0], Activation::Linear).unwrap();
        let coarse = FixedMlp::quantize(&mlp, QFormat::new(4).unwrap());
        let fine = FixedMlp::quantize(&mlp, QFormat::new(20).unwrap());
        let exact = mlp.run(&[1.0]).unwrap()[0];
        let coarse_err = (coarse.run(&[1.0]).unwrap()[0] - exact).abs();
        let fine_err = (fine.run(&[1.0]).unwrap()[0] - exact).abs();
        assert!(coarse_err > fine_err);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let t = Topology::new(&[2, 1]).unwrap();
        let mlp = Mlp::from_parameters(t, &[1.0, 1.0], &[0.0], Activation::Linear).unwrap();
        let fixed = FixedMlp::quantize(&mlp, QFormat::new(12).unwrap());
        assert!(fixed.run(&[1.0]).is_err());
    }

    fn small_fixed() -> FixedMlp {
        let t = Topology::new(&[2, 3, 1]).unwrap();
        let weights = [0.5, -0.25, 0.75, 0.1, -0.6, 0.33, 1.0, -1.0, 0.5];
        let biases = [0.05, -0.1, 0.2, 0.0];
        let mlp = Mlp::from_parameters(t, &weights, &biases, Activation::Linear).unwrap();
        FixedMlp::quantize(&mlp, QFormat::new(16).unwrap())
    }

    #[test]
    fn fault_bits_count_all_parameter_words() {
        let fixed = small_fixed();
        // 9 weights + 4 biases, 32 bits each.
        assert_eq!(fixed.fault_bits(), 13 * 32);
    }

    #[test]
    fn weight_flip_changes_output_and_is_reversible() {
        let mut fixed = small_fixed();
        let clean = fixed.run(&[0.3, 0.7]).unwrap();
        // Bit 20 of the first weight word: an integer-part bit in Q16.
        fixed.flip_bit(20);
        let faulted = fixed.run(&[0.3, 0.7]).unwrap();
        assert_ne!(clean, faulted, "a high weight bit must move the output");
        fixed.flip_bit(20);
        let restored = fixed.run(&[0.3, 0.7]).unwrap();
        assert_eq!(clean, restored, "double flip must restore bit-exactly");
    }

    #[test]
    fn bias_region_is_addressable() {
        let mut fixed = small_fixed();
        // Last word is the output bias; flip its sign-adjacent high bit.
        let last_word_bit = fixed.fault_bits() - 32 + 24;
        let clean = fixed.run(&[0.3, 0.7]).unwrap();
        fixed.flip_bit(last_word_bit);
        assert_ne!(clean, fixed.run(&[0.3, 0.7]).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_fault_bit_panics() {
        let mut fixed = small_fixed();
        let beyond = fixed.fault_bits();
        fixed.flip_bit(beyond);
    }

    #[test]
    fn lut_flip_can_produce_nan() {
        let mut lut = SigmoidLut::hardware_default();
        // Set every exponent bit of entry 0: 0x7F80.0000 over a small
        // mantissa yields NaN or infinity.
        for bit in 23..31 {
            if lut.eval(-100.0).to_bits() >> bit & 1 == 0 {
                lut.flip_bit(bit);
            }
        }
        assert!(!lut.eval(-100.0).is_finite());
    }

    #[test]
    fn lut_flip_is_reversible() {
        let mut lut = SigmoidLut::hardware_default();
        let clean = lut.eval(0.37);
        lut.flip_bit(128 * 32 + 30); // exponent bit of a mid-table entry
        lut.flip_bit(128 * 32 + 30);
        assert_eq!(lut.eval(0.37).to_bits(), clean.to_bits());
    }
}
