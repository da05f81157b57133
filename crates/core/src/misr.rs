//! Multi-Input Signature Registers — the table classifier's hash function.
//!
//! The paper's requirements for the hash (§IV-A1): combine all elements of
//! the input vector, minimize destructive aliasing, be cheap in hardware,
//! accept a varying number of inputs, and be reconfigurable across
//! applications. A MISR satisfies all five: it XORs each arriving element
//! into a rotating feedback shift register; after the last element, the
//! register content is the table index.
//!
//! Configurations come from a **fixed pool of 16** (application-independent,
//! chosen to map the same input to different indices); the compiler
//! greedily assigns pool entries to tables (see
//! [`crate::table::TableClassifier`]).
//!
//! Hardware hashes the *quantized* input elements (the classifier sees the
//! same fixed-point values the accelerator FIFO carries). Quantization is
//! what gives the table generalization: nearby inputs — at 8-bit
//! granularity — share buckets, so decisions learned on training datasets
//! transfer to unseen ones.

use serde::{Deserialize, Serialize};

/// One MISR configuration: feedback taps, register rotation, and the
/// rotation applied to each incoming element's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MisrConfig {
    /// Feedback tap mask XORed in when the rotated-out bit is set.
    pub taps: u32,
    /// Left-rotation applied to the register before combining.
    pub rotate: u32,
    /// Rotation applied to each input element's bits before XOR.
    pub input_rotate: u32,
}

impl MisrConfig {
    /// The fixed pool of 16 configurations the compiler selects from
    /// (paper §IV-A2: "selected from a pool of 16 fixed MISR
    /// configurations that exhibit least similarity").
    pub fn pool() -> [MisrConfig; 16] {
        // Taps are primitive-polynomial-style masks; rotations are coprime
        // with typical register widths so states diffuse differently per
        // configuration.
        [
            MisrConfig {
                taps: 0x9D7,
                rotate: 1,
                input_rotate: 0,
            },
            MisrConfig {
                taps: 0xB8F,
                rotate: 3,
                input_rotate: 5,
            },
            MisrConfig {
                taps: 0xC35,
                rotate: 5,
                input_rotate: 2,
            },
            MisrConfig {
                taps: 0xA6B,
                rotate: 7,
                input_rotate: 7,
            },
            MisrConfig {
                taps: 0xE19,
                rotate: 2,
                input_rotate: 3,
            },
            MisrConfig {
                taps: 0x8E5,
                rotate: 9,
                input_rotate: 1,
            },
            MisrConfig {
                taps: 0xF43,
                rotate: 4,
                input_rotate: 6,
            },
            MisrConfig {
                taps: 0x9A9,
                rotate: 11,
                input_rotate: 4,
            },
            MisrConfig {
                taps: 0xD07,
                rotate: 6,
                input_rotate: 9,
            },
            MisrConfig {
                taps: 0xBD1,
                rotate: 8,
                input_rotate: 11,
            },
            MisrConfig {
                taps: 0xA93,
                rotate: 10,
                input_rotate: 8,
            },
            MisrConfig {
                taps: 0xEC7,
                rotate: 1,
                input_rotate: 13,
            },
            MisrConfig {
                taps: 0x87B,
                rotate: 3,
                input_rotate: 10,
            },
            MisrConfig {
                taps: 0xCA5,
                rotate: 5,
                input_rotate: 12,
            },
            MisrConfig {
                taps: 0xF11,
                rotate: 7,
                input_rotate: 14,
            },
            MisrConfig {
                taps: 0x94D,
                rotate: 9,
                input_rotate: 15,
            },
        ]
    }
}

/// A MISR instance over a `width`-bit register (the table with `2^width`
/// entries it indexes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    config: MisrConfig,
    width: u32,
    state: u32,
}

impl Misr {
    /// Creates a MISR for tables of `2^width` entries.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=24` — table sizes in this design
    /// space range from 0.125 KB (1024 entries) to a few KB.
    pub fn new(config: MisrConfig, width: u32) -> Self {
        assert!((1..=24).contains(&width), "MISR width out of range");
        Self {
            config,
            width,
            state: 0,
        }
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Shifts one quantized input element into the register.
    pub fn shift_in(&mut self, element: u8) {
        let mask = (1u32 << self.width) - 1;
        // Rotate the register.
        let r = self.config.rotate % self.width;
        let rotated = ((self.state << r) | (self.state >> (self.width - r).max(1))) & mask;
        // LFSR-style feedback when the top bit is set.
        let feedback = if (self.state >> (self.width - 1)) & 1 == 1 {
            self.config.taps & mask
        } else {
            0
        };
        // Spread the 8-bit element across the register and rotate its bits.
        let spread = u32::from(element) | (u32::from(element) << 8) | (u32::from(element) << 16);
        let ir = self.config.input_rotate % self.width;
        let input_bits = (((spread << ir) | (spread >> (self.width - ir).max(1))) ^ spread) & mask;
        self.state = rotated ^ feedback ^ input_bits;
    }

    /// The current table index (valid after all elements are shifted in —
    /// the tri-state gates in hardware expose it only then).
    pub fn index(&self) -> usize {
        (self.state & ((1u32 << self.width) - 1)) as usize
    }

    /// Convenience: hash a whole quantized input vector from reset, one
    /// [`shift_in`](Self::shift_in) per element — the definition
    /// [`MisrKernel`] tabulates.
    pub fn hash(config: MisrConfig, width: u32, elements: &[u8]) -> usize {
        let mut misr = Misr::new(config, width);
        for &e in elements {
            misr.shift_in(e);
        }
        misr.index()
    }
}

/// Several MISR configurations' hashes tabulated, so hashing an input
/// under all of them costs one lane-wide XOR per element.
///
/// A [`Misr::shift_in`] step is affine over GF(2): `state' = L(state) ^
/// g(element)`, where `L` (rotate plus tap feedback) is linear and
/// `g(0) = 0`. From reset, the hash of `e_0 … e_{n-1}` is therefore the
/// XOR over `i` of `L^k(g(e_i))` with `k = n - 1 - i`, the element's
/// distance from the end. Entry `[k][v][lane]` holds exactly that term —
/// the register after shifting in `v` and then `k` zeros, produced by
/// `shift_in` itself — so every hash equals [`Misr::hash`] bit for bit,
/// for any input no longer than the table's distances.
///
/// Only the emulation changes: the hardware still shifts each element
/// into each table's register, as
/// [`ClassifierOverhead::misr_shifts`](crate::classifier::ClassifierOverhead)
/// models.
pub struct MisrKernel {
    lanes: usize,
    levels: usize,
    distances: usize,
    /// `[distance][value][lane]`, lanes contiguous.
    terms: Vec<u32>,
}

impl MisrKernel {
    /// Tabulates `configs` (one lane each) over `width`-bit registers for
    /// element values `0..levels` and inputs of up to `distances`
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=24` or `levels` exceeds 256.
    pub fn new(configs: &[MisrConfig], width: u32, levels: usize, distances: usize) -> Self {
        assert!(levels <= 256, "MISR elements are bytes");
        let lanes = configs.len();
        let mut terms = vec![0u32; distances * levels * lanes];
        for (lane, &config) in configs.iter().enumerate() {
            for v in 0..levels {
                let mut misr = Misr::new(config, width);
                misr.shift_in(v as u8);
                for k in 0..distances {
                    terms[(k * levels + v) * lanes + lane] = misr.index() as u32;
                    misr.shift_in(0);
                }
            }
        }
        Self {
            lanes,
            levels,
            distances,
            terms,
        }
    }

    /// Number of configurations hashed per input.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Hashes `elements` from reset under every configuration:
    /// `out[lane]` becomes [`Misr::hash`] of the lane's configuration.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold one slot per lane, if `elements` is
    /// longer than the tabulated distances, or if an element is not below
    /// the tabulated levels.
    pub fn hash_into(&self, elements: &[u8], out: &mut [u32]) {
        assert_eq!(out.len(), self.lanes, "one output slot per lane");
        assert!(
            elements.len() <= self.distances,
            "input longer than the tabulated distances"
        );
        out.fill(0);
        for (k, &e) in elements.iter().rev().enumerate() {
            let v = usize::from(e);
            assert!(v < self.levels, "element above the tabulated levels");
            let at = (k * self.levels + v) * self.lanes;
            for (h, &t) in out.iter_mut().zip(&self.terms[at..at + self.lanes]) {
                *h ^= t;
            }
        }
    }
}

impl std::fmt::Debug for MisrKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MisrKernel")
            .field("lanes", &self.lanes)
            .field("levels", &self.levels)
            .field("distances", &self.distances)
            .finish_non_exhaustive()
    }
}

/// A training set's inputs quantized once into a dense row-major byte
/// grid, ready for batch MISR hashing.
///
/// Hashing every example under every pool configuration dominates table
/// training, but quantization depends only on the granularity — never on
/// the MISR configuration. The grid therefore quantizes each input
/// exactly once and hashes each row under every configuration in one
/// [`MisrKernel`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedGrid {
    data: Vec<u8>,
    dims: usize,
}

impl QuantizedGrid {
    /// Quantizes every input vector through `quantizer` into one grid.
    pub fn from_inputs<'a>(
        quantizer: &InputQuantizer,
        inputs: impl IntoIterator<Item = &'a [f32]>,
    ) -> Self {
        let dims = quantizer.dims();
        let mut data = Vec::new();
        let mut row = Vec::with_capacity(dims);
        for input in inputs {
            quantizer.quantize_into(input, &mut row);
            debug_assert_eq!(row.len(), dims, "input dimension mismatch");
            data.extend_from_slice(&row);
        }
        Self { data, dims }
    }

    /// Number of quantized rows.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    /// One quantized row.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Hashes every row under each of `kernel`'s configurations:
    /// `out[lane][i]` is row `i`'s [`Misr::hash`] under the lane's
    /// configuration. Indices are stored as `u32` because a register is
    /// at most 24 bits wide, which halves the rows a training set keeps.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` was tabulated for fewer distances or levels
    /// than the rows need.
    pub fn hash_all(&self, kernel: &MisrKernel) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::with_capacity(self.rows()); kernel.lanes()];
        let mut hashes = vec![0u32; kernel.lanes()];
        for row in self.data.chunks_exact(self.dims.max(1)) {
            kernel.hash_into(row, &mut hashes);
            for (lane, &h) in out.iter_mut().zip(&hashes) {
                lane.push(h);
            }
        }
        out
    }
}

/// Default quantization levels per input element.
///
/// Granularity trades generalization against discrimination: too fine and
/// unseen inputs never revisit trained buckets (the ensemble's OR then
/// falsely rejects anything aliasing a reject bucket in *any* table); too
/// coarse and accept/reject inputs share patterns. 16 levels (4 bits per
/// element) is the sweet spot across the suite.
pub const DEFAULT_QUANT_LEVELS: u16 = 16;

/// Quantizes raw accelerator inputs to the small integer values the MISR
/// hashes, using per-dimension ranges learned at compile time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputQuantizer {
    mins: Vec<f32>,
    maxs: Vec<f32>,
    levels: u16,
}

impl InputQuantizer {
    /// Fits the quantizer to observed per-dimension input ranges, at the
    /// default granularity.
    ///
    /// # Panics
    ///
    /// Panics if `mins` and `maxs` differ in length.
    pub fn new(mins: Vec<f32>, maxs: Vec<f32>) -> Self {
        assert_eq!(mins.len(), maxs.len(), "min/max dimension mismatch");
        Self {
            mins,
            maxs,
            levels: DEFAULT_QUANT_LEVELS,
        }
    }

    /// Fits the quantizer from a sample of input vectors, at the default
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields nothing.
    pub fn fit<'a>(samples: impl IntoIterator<Item = &'a [f32]>) -> Self {
        let mut iter = samples.into_iter();
        let first = iter.next().expect("cannot fit a quantizer to no samples");
        let mut mins = first.to_vec();
        let mut maxs = first.to_vec();
        for s in iter {
            for d in 0..mins.len() {
                mins[d] = mins[d].min(s[d]);
                maxs[d] = maxs[d].max(s[d]);
            }
        }
        Self::new(mins, maxs)
    }

    /// Overrides the quantization granularity (2..=256 levels).
    ///
    /// # Panics
    ///
    /// Panics outside that range.
    pub fn with_levels(mut self, levels: u16) -> Self {
        assert!((2..=256).contains(&levels), "levels must be in 2..=256");
        self.levels = levels;
        self
    }

    /// The quantization granularity.
    pub fn levels(&self) -> u16 {
        self.levels
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// Quantizes one input vector into the provided buffer.
    pub fn quantize_into(&self, input: &[f32], out: &mut Vec<u8>) {
        out.clear();
        let top = f32::from(self.levels - 1);
        for (d, &v) in input.iter().enumerate() {
            let span = self.maxs[d] - self.mins[d];
            let q = if span <= f32::EPSILON {
                0.0
            } else {
                ((v - self.mins[d]) / span * top).clamp(0.0, top)
            };
            out.push(q as u8);
        }
    }

    /// Quantizes one input vector, allocating.
    pub fn quantize(&self, input: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len());
        self.quantize_into(input, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        let cfg = MisrConfig::pool()[0];
        let h1 = Misr::hash(cfg, 12, &[1, 2, 3, 4]);
        let h2 = Misr::hash(cfg, 12, &[1, 2, 3, 4]);
        assert_eq!(h1, h2);
    }

    #[test]
    fn index_in_table_range() {
        for cfg in MisrConfig::pool() {
            for width in [10u32, 12, 15] {
                let idx = Misr::hash(cfg, width, &[200, 13, 77, 0, 255]);
                assert!(idx < (1usize << width));
            }
        }
    }

    #[test]
    fn different_configs_hash_differently() {
        // Pool requirement: configurations "map same input to different
        // table indices". Verify on a sample input that most pairs differ.
        let input = [42u8, 99, 7, 180, 23, 66];
        let pool = MisrConfig::pool();
        let hashes: Vec<usize> = pool.iter().map(|&c| Misr::hash(c, 12, &input)).collect();
        let distinct: std::collections::HashSet<usize> = hashes.iter().copied().collect();
        assert!(
            distinct.len() >= 12,
            "only {} distinct hashes",
            distinct.len()
        );
    }

    #[test]
    fn order_sensitive() {
        let cfg = MisrConfig::pool()[1];
        assert_ne!(
            Misr::hash(cfg, 12, &[1, 2, 3]),
            Misr::hash(cfg, 12, &[3, 2, 1])
        );
    }

    #[test]
    fn accepts_varying_input_counts() {
        let cfg = MisrConfig::pool()[2];
        for n in 1..=64 {
            let v: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
            let _ = Misr::hash(cfg, 12, &v); // must not panic
        }
    }

    #[test]
    fn diffusion_small_input_changes_move_index() {
        // Adjacent bytes should usually land in different buckets
        // (aliasing exists, but not systematically for neighbours).
        let cfg = MisrConfig::pool()[0];
        let mut moved = 0;
        for b in 0u8..100 {
            let a = Misr::hash(cfg, 12, &[b, 10, 20]);
            let c = Misr::hash(cfg, 12, &[b.wrapping_add(1), 10, 20]);
            if a != c {
                moved += 1;
            }
        }
        assert!(moved > 80, "only {moved} of 100 neighbours moved");
    }

    #[test]
    fn quantizer_full_range() {
        let q = InputQuantizer::new(vec![0.0], vec![10.0]).with_levels(256);
        assert_eq!(q.quantize(&[0.0]), vec![0]);
        assert_eq!(q.quantize(&[10.0]), vec![255]);
        assert_eq!(q.quantize(&[5.0]), vec![127]);
        // Out-of-range values clamp.
        assert_eq!(q.quantize(&[-5.0]), vec![0]);
        assert_eq!(q.quantize(&[20.0]), vec![255]);
    }

    #[test]
    fn quantizer_default_levels() {
        let q = InputQuantizer::new(vec![0.0], vec![1.0]);
        assert_eq!(q.levels(), DEFAULT_QUANT_LEVELS);
        assert_eq!(q.quantize(&[1.0]), vec![(DEFAULT_QUANT_LEVELS - 1) as u8]);
        // Nearby values share a bucket at coarse granularity.
        assert_eq!(q.quantize(&[0.50]), q.quantize(&[0.52]));
    }

    #[test]
    fn quantizer_fit_covers_samples() {
        let samples: Vec<Vec<f32>> = vec![vec![-1.0, 5.0], vec![3.0, 7.0]];
        let q = InputQuantizer::fit(samples.iter().map(Vec::as_slice)).with_levels(256);
        assert_eq!(q.dims(), 2);
        assert_eq!(q.quantize(&[-1.0, 5.0]), vec![0, 0]);
        assert_eq!(q.quantize(&[3.0, 7.0]), vec![255, 255]);
    }

    #[test]
    #[should_panic(expected = "levels must be in 2..=256")]
    fn quantizer_rejects_bad_levels() {
        let _ = InputQuantizer::new(vec![0.0], vec![1.0]).with_levels(1);
    }

    #[test]
    fn quantizer_constant_dimension_is_stable() {
        let q = InputQuantizer::new(vec![2.0], vec![2.0]);
        assert_eq!(q.quantize(&[2.0]), vec![0]);
        assert_eq!(q.quantize(&[100.0]), vec![0]);
    }

    #[test]
    fn grid_hash_all_matches_per_row_hash() {
        let q = InputQuantizer::new(vec![0.0, -2.0], vec![1.0, 2.0]).with_levels(32);
        let inputs: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32 / 40.0, (i as f32 / 10.0) - 2.0])
            .collect();
        let grid = QuantizedGrid::from_inputs(&q, inputs.iter().map(Vec::as_slice));
        assert_eq!(grid.rows(), 40);
        // 12 bits is the paper's table; 24 is the widest register, whose
        // indices must survive the `u32` rows intact.
        let pool = MisrConfig::pool();
        for width in [12, 24] {
            let kernel = MisrKernel::new(&pool, width, 32, 2);
            let batch = grid.hash_all(&kernel);
            assert_eq!(batch.len(), pool.len());
            for (cfg, rows) in pool.iter().zip(&batch) {
                for (i, input) in inputs.iter().enumerate() {
                    let expected = Misr::hash(*cfg, width, &q.quantize(input));
                    assert_eq!(
                        rows[i] as usize, expected,
                        "cfg {cfg:?} width {width} row {i}"
                    );
                    assert_eq!(grid.row(i), q.quantize(input).as_slice());
                }
            }
        }
    }

    #[test]
    fn empty_grid_hashes_to_nothing() {
        let q = InputQuantizer::new(vec![0.0], vec![1.0]);
        let grid = QuantizedGrid::from_inputs(&q, std::iter::empty());
        assert_eq!(grid.rows(), 0);
        let kernel = MisrKernel::new(&MisrConfig::pool(), 12, 16, 1);
        assert!(grid.hash_all(&kernel).iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "input longer than the tabulated distances")]
    fn kernel_rejects_inputs_past_its_distances() {
        let kernel = MisrKernel::new(&MisrConfig::pool(), 12, 16, 2);
        kernel.hash_into(&[1, 2, 3], &mut [0u32; 16]);
    }

    #[test]
    #[should_panic(expected = "element above the tabulated levels")]
    fn kernel_rejects_elements_past_its_levels() {
        let kernel = MisrKernel::new(&MisrConfig::pool(), 12, 16, 2);
        kernel.hash_into(&[16], &mut [0u32; 16]);
    }

    #[test]
    fn pool_has_16_distinct_configs() {
        let pool = MisrConfig::pool();
        let set: std::collections::HashSet<_> = pool.iter().collect();
        assert_eq!(set.len(), 16);
    }
}
