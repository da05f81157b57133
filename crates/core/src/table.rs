//! The table-based classifier (paper §IV-A).
//!
//! An ensemble of equally sized single-bit tables, each indexed by a
//! different MISR hash of the quantized accelerator inputs. Entries start
//! at `0` ("invoke the accelerator"); training sets an entry to `1` when
//! any training input hashing there exceeded the error threshold — the
//! conservative policy that biases toward quality. At runtime the ensemble
//! ORs the per-table bits: any table saying "precise" wins. The compiler
//! assigns MISR configurations greedily from the fixed pool of 16,
//! minimizing the ensemble's false decisions on the training data. Trained
//! tables ship in the binary compressed with Base-Delta-Immediate.

use crate::classifier::{Classifier, ClassifierOverhead, Decision};
use crate::misr::{InputQuantizer, MisrConfig, MisrKernel, QuantizedGrid};
use crate::parallel::par_map_indexed;
use crate::training::TrainingExample;
use crate::{MithraError, Result};
use mithra_bdi::CompressedTable;
use mithra_npu::fault::FaultSite;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Geometry of a table design point: `aT × bKB` in the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TableDesign {
    /// Number of parallel tables.
    pub tables: usize,
    /// Entries (bits) per table; must be a power of two.
    pub entries_per_table: usize,
}

impl TableDesign {
    /// The paper's Pareto-optimal default: 8 tables × 0.5 KB.
    pub fn paper_default() -> Self {
        Self {
            tables: 8,
            entries_per_table: 4096, // 0.5 KB of single-bit entries
        }
    }

    /// The Pareto-analysis grid of Figure 11: {1,2,4,8} tables ×
    /// {0.125, 0.5, 2, 4} KB.
    pub fn pareto_grid() -> Vec<TableDesign> {
        let mut grid = Vec::new();
        for &tables in &[1usize, 2, 4, 8] {
            for &kb in &[0.125f64, 0.5, 2.0, 4.0] {
                grid.push(TableDesign {
                    tables,
                    entries_per_table: (kb * 8.0 * 1024.0) as usize,
                });
            }
        }
        grid
    }

    /// Size of one table in kilobytes (single-bit entries).
    pub fn table_kb(&self) -> f64 {
        self.entries_per_table as f64 / 8.0 / 1024.0
    }

    /// Total uncompressed size in kilobytes.
    pub fn total_kb(&self) -> f64 {
        self.table_kb() * self.tables as f64
    }

    /// Index width in bits (`log2` of entries).
    pub fn index_width(&self) -> u32 {
        self.entries_per_table.trailing_zeros()
    }

    fn validate(&self) -> Result<()> {
        if self.tables == 0 || self.tables > 16 {
            return Err(MithraError::InvalidConfig {
                parameter: "tables",
                constraint: "1..=16 (the MISR configuration pool size)",
            });
        }
        if !self.entries_per_table.is_power_of_two() || self.entries_per_table < 256 {
            return Err(MithraError::InvalidConfig {
                parameter: "entries_per_table",
                constraint: "a power of two >= 256",
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for TableDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}T x {}KB", self.tables, self.table_kb())
    }
}

/// A single-bit direct-mapped table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct BitTable {
    bits: Vec<u64>,
    entries: usize,
}

impl BitTable {
    fn new(entries: usize) -> Self {
        Self {
            bits: vec![0; entries.div_ceil(64)],
            entries,
        }
    }

    fn get(&self, idx: usize) -> bool {
        (self.bits[idx / 64] >> (idx % 64)) & 1 == 1
    }

    fn set(&mut self, idx: usize) {
        self.bits[idx / 64] |= 1 << (idx % 64);
    }

    fn ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Inverts one entry — an SRAM upset in the table array. A flipped `1`
    /// loses a learned reject (aliasing toward the accelerator); a flipped
    /// `0` falsely rejects a bucket.
    fn flip(&mut self, idx: usize) {
        self.bits[idx / 64] ^= 1 << (idx % 64);
    }

    /// Byte representation for compression (entry `i` is bit `i%8` of
    /// byte `i/8`, matching a hardware row layout).
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries / 8);
        for i in 0..self.entries.div_ceil(8) {
            let mut b = 0u8;
            for bit in 0..8 {
                let idx = i * 8 + bit;
                if idx < self.entries && self.get(idx) {
                    b |= 1 << bit;
                }
            }
            out.push(b);
        }
        out
    }
}

/// The largest ensemble: one table per pool configuration.
const MAX_TABLES: usize = 16;

/// The trained multi-table classifier.
///
/// Construct with [`TableClassifier::train`]; at runtime it implements
/// [`Classifier`]. The online-update path ([`Classifier::observe`]) applies
/// the same conservative rule as pre-training.
///
/// Equality and serialization cover the trained state only; the MISR
/// kernel and the quantization scratch are derived from it.
#[derive(Debug, Clone, Serialize)]
pub struct TableClassifier {
    design: TableDesign,
    configs: Vec<MisrConfig>,
    tables: Vec<BitTable>,
    quantizer: InputQuantizer,
    vote_threshold: f64,
    /// Every table's MISR tabulated over the quantizer's levels and
    /// dimensions; built once and shared by clones.
    #[serde(skip)]
    kernel: Arc<MisrKernel>,
    #[serde(skip)]
    scratch: Vec<u8>,
}

impl PartialEq for TableClassifier {
    fn eq(&self, other: &Self) -> bool {
        self.design == other.design
            && self.configs == other.configs
            && self.tables == other.tables
            && self.quantizer == other.quantizer
            && self.vote_threshold == other.vote_threshold
    }
}

impl Deserialize for TableClassifier {
    fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let field = |name| serde::get_field(value, name);
        Ok(Self::assemble(
            Deserialize::deserialize(field("design")?)?,
            Deserialize::deserialize(field("configs")?)?,
            Deserialize::deserialize(field("tables")?)?,
            Deserialize::deserialize(field("quantizer")?)?,
            Deserialize::deserialize(field("vote_threshold")?)?,
        ))
    }
}

impl TableClassifier {
    /// Trains the ensemble, searching the MISR input-quantization
    /// granularity per application.
    ///
    /// The paper's MISR is "reconfigurable to work across different
    /// applications", with the configuration "decided at compile time for
    /// each application". Granularity is the reconfiguration that matters
    /// for generalization: too fine and unseen inputs never revisit
    /// trained buckets (every reject-aliased bucket then falsely fires
    /// through the ensemble's OR); too coarse and accept/reject inputs
    /// share patterns. The compiler holds out 25% of the training tuples,
    /// trains an ensemble at each candidate granularity, and keeps the one
    /// with the fewest held-out false decisions (false negatives weighted
    /// heavier — quality first).
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InvalidConfig`] for a bad geometry and
    /// [`MithraError::InsufficientData`] if no examples are given.
    pub fn train(
        design: TableDesign,
        quantizer: InputQuantizer,
        examples: &[TrainingExample],
    ) -> Result<Self> {
        Self::train_with_threads(design, quantizer, examples, Some(1))
    }

    /// [`TableClassifier::train`] with the `(levels, vote)` candidate grid
    /// scored across up to `threads` workers (`None`/`Some(0)` = available
    /// parallelism): the inputs are prepared once (quantized and hashed at
    /// every candidate granularity), then the labels train the grid.
    ///
    /// Every candidate is built from pre-computed hashes shared read-only
    /// across workers, and the winner is selected by folding scores in the
    /// original candidate order — so the trained classifier is
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`TableClassifier::train`].
    pub fn train_with_threads(
        design: TableDesign,
        quantizer: InputQuantizer,
        examples: &[TrainingExample],
        threads: Option<usize>,
    ) -> Result<Self> {
        let inputs: Vec<&[f32]> = examples.iter().map(|e| &e.input[..]).collect();
        let rejects: Vec<bool> = examples.iter().map(|e| e.reject).collect();
        Ok(PreparedTableSet::new(design, quantizer, &inputs, threads)?.train(&rejects, threads))
    }

    /// Trains the ensemble with the paper's conservative rule at a fixed
    /// quantizer granularity (any reject in a bucket sets its bit).
    ///
    /// # Errors
    ///
    /// Same as [`train`](Self::train).
    pub fn train_with_quantizer(
        design: TableDesign,
        quantizer: InputQuantizer,
        examples: &[TrainingExample],
    ) -> Result<Self> {
        Self::train_with_policy(design, quantizer, 0.0, examples)
    }

    /// Trains the ensemble at a fixed quantizer granularity and bucket
    /// vote threshold.
    ///
    /// `vote_threshold = 0` is the paper's conservative rule: a single
    /// rejected training input sets its bucket's bit. Positive thresholds
    /// require that fraction of a bucket's training inputs to be rejects —
    /// an adaptation needed when continuous synthetic inputs make buckets
    /// impure (the conservative rule then rejects nearly everything
    /// through the ensemble OR). The compile-time search in
    /// [`train`](Self::train) picks the value per application.
    ///
    /// The compiler's greedy assignment (paper §IV-A2): the first table
    /// takes the pool configuration with the fewest false decisions on its
    /// own; each subsequent table takes the unused configuration that
    /// minimizes the *ensemble's* false decisions so far.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InvalidConfig`] for a bad geometry or
    /// out-of-range `vote_threshold`, and
    /// [`MithraError::InsufficientData`] if no examples are given.
    pub fn train_with_policy(
        design: TableDesign,
        quantizer: InputQuantizer,
        vote_threshold: f64,
        examples: &[TrainingExample],
    ) -> Result<Self> {
        design.validate()?;
        if !(0.0..=1.0).contains(&vote_threshold) {
            return Err(MithraError::InvalidConfig {
                parameter: "vote_threshold",
                constraint: "0.0..=1.0",
            });
        }
        if examples.is_empty() {
            return Err(MithraError::InsufficientData {
                stage: "table classifier training",
                available: 0,
                needed: 1,
            });
        }

        let hashes = pool_hash_rows(
            &quantizer,
            examples.iter().map(|e| &e.input[..]),
            design.index_width(),
        );
        let rejects: Vec<bool> = examples.iter().map(|e| e.reject).collect();
        let ensemble = Ensemble::build(design, vote_threshold, &rejects, &hashes);
        Ok(ensemble.into_classifier(design, quantizer, vote_threshold))
    }

    /// Binds trained state to the MISR kernel it hashes with.
    fn assemble(
        design: TableDesign,
        configs: Vec<MisrConfig>,
        tables: Vec<BitTable>,
        quantizer: InputQuantizer,
        vote_threshold: f64,
    ) -> Self {
        let kernel = Arc::new(misr_kernel(&configs, design.index_width(), &quantizer));
        Self {
            design,
            configs,
            tables,
            quantizer,
            vote_threshold,
            kernel,
            scratch: Vec::new(),
        }
    }

    /// The geometry of this classifier.
    pub fn design(&self) -> TableDesign {
        self.design
    }

    /// The MISR configurations assigned to the tables, in table order.
    pub fn configs(&self) -> &[MisrConfig] {
        &self.configs
    }

    /// The input quantizer (including the granularity the compile-time
    /// search selected).
    pub fn quantizer(&self) -> &InputQuantizer {
        &self.quantizer
    }

    /// The bucket-vote threshold the compile-time search selected
    /// (0 = the paper's conservative "any reject" rule).
    pub fn vote_threshold(&self) -> f64 {
        self.vote_threshold
    }

    /// Fraction of table entries set to `1` (reject), across the ensemble.
    pub fn fill_ratio(&self) -> f64 {
        let ones: usize = self.tables.iter().map(BitTable::ones).sum();
        ones as f64 / (self.design.tables * self.design.entries_per_table) as f64
    }

    /// Compresses the trained tables with Base-Delta-Immediate, as they
    /// would be encoded into the program binary (paper Table II).
    pub fn compress(&self) -> CompressedTable {
        let mut bytes = Vec::new();
        for t in &self.tables {
            bytes.extend_from_slice(&t.to_bytes());
        }
        CompressedTable::new(&bytes)
    }

    /// Reconfigures one table's MISR — the "control-register corruption"
    /// fault: the table still reads, but its hash no longer matches the
    /// one it was trained under, so learned rejects alias away and stale
    /// buckets fire. `table` is taken modulo the ensemble size;
    /// `taps_mask` is XORed into the feedback taps and `rotate_delta`
    /// added to both rotations (the input rotation too — for short input
    /// vectors the register never wraps, so taps and register rotation
    /// alone would leave the hash unchanged).
    pub fn corrupt_misr(&mut self, table: usize, taps_mask: u32, rotate_delta: u32) {
        let idx = table % self.configs.len();
        let cfg = &mut self.configs[idx];
        cfg.taps ^= taps_mask;
        cfg.rotate = cfg.rotate.wrapping_add(rotate_delta);
        cfg.input_rotate = cfg.input_rotate.wrapping_add(rotate_delta);
        let width = self.design.index_width();
        self.kernel = Arc::new(misr_kernel(&self.configs, width, &self.quantizer));
    }

    /// The decision for a raw input vector without mutating online state —
    /// used by trainers evaluating candidate designs.
    pub fn decide(&mut self, input: &[f32]) -> Decision {
        let mut hashes = [0u32; MAX_TABLES];
        let hashes = self.table_indices(input, &mut hashes);
        let reject = self
            .tables
            .iter()
            .zip(hashes)
            .any(|(table, &h)| table.get(h as usize));
        Decision::from_reject(reject)
    }

    /// Quantizes `input` and hashes it under every table's MISR; returns
    /// the per-table indices, in table order, from `out`'s prefix.
    fn table_indices<'o>(&mut self, input: &[f32], out: &'o mut [u32; MAX_TABLES]) -> &'o [u32] {
        let hashes = &mut out[..self.tables.len()];
        self.quantizer.quantize_into(input, &mut self.scratch);
        self.kernel.hash_into(&self.scratch, hashes);
        hashes
    }
}

/// The kernel hashing `configs` into `width`-bit indices, for every value
/// and input position `quantizer` produces.
fn misr_kernel(configs: &[MisrConfig], width: u32, quantizer: &InputQuantizer) -> MisrKernel {
    let levels = usize::from(quantizer.levels());
    MisrKernel::new(configs, width, levels, quantizer.dims())
}

/// Candidate quantizer granularities of the compile-time search.
const CANDIDATE_LEVELS: [u16; 5] = [2, 4, 8, 16, 32];
/// Candidate bucket-vote thresholds of the compile-time search.
const CANDIDATE_VOTES: [f64; 3] = [0.0, 0.15, 0.35];
/// Below this many examples nothing is held out: the ensemble trains
/// directly at the caller's quantizer with the conservative rule.
const MIN_HOLDOUT_ROWS: usize = 8;

/// Quantizes `inputs` once and hashes the grid under every pool
/// configuration: `rows[c][i]` is example `i`'s index under pool entry
/// `c`.
fn pool_hash_rows<'a>(
    quantizer: &InputQuantizer,
    inputs: impl IntoIterator<Item = &'a [f32]>,
    width: u32,
) -> Vec<Vec<u32>> {
    let grid = QuantizedGrid::from_inputs(quantizer, inputs);
    grid.hash_all(&misr_kernel(&MisrConfig::pool(), width, quantizer))
}

/// The label-independent half of [`TableClassifier::train_with_threads`]:
/// one input set quantized at every candidate granularity and hashed
/// under all 16 pool configurations.
///
/// Hashes depend only on the inputs and the granularity — never on the
/// labels or the vote threshold — so a caller that relabels the same
/// inputs many times (the deployed routed certifier retrains at every
/// bisection probe) prepares once and calls [`PreparedTableSet::train`]
/// per labeling. Each call is bit-identical to a cold
/// `train_with_threads` on the same inputs and labels.
#[derive(Debug, Clone)]
pub(crate) struct PreparedTableSet {
    design: TableDesign,
    /// Per candidate granularity, in `CANDIDATE_LEVELS` order: its
    /// quantizer and the full-set pool hash rows. A set below
    /// `MIN_HOLDOUT_ROWS` keeps one entry, at the caller's quantizer.
    grids: Vec<(InputQuantizer, Vec<Vec<u32>>)>,
    rows: usize,
}

impl PreparedTableSet {
    /// Quantizes and hashes `inputs` for every candidate granularity, the
    /// granularities spread across up to `threads` workers.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InvalidConfig`] for a bad geometry and
    /// [`MithraError::InsufficientData`] if no inputs are given.
    pub(crate) fn new(
        design: TableDesign,
        quantizer: InputQuantizer,
        inputs: &[&[f32]],
        threads: Option<usize>,
    ) -> Result<Self> {
        design.validate()?;
        if inputs.is_empty() {
            return Err(MithraError::InsufficientData {
                stage: "table classifier training",
                available: 0,
                needed: 1,
            });
        }
        let width = design.index_width();
        let grids = if inputs.len() < MIN_HOLDOUT_ROWS {
            let hashes = pool_hash_rows(&quantizer, inputs.iter().copied(), width);
            vec![(quantizer, hashes)]
        } else {
            par_map_indexed(CANDIDATE_LEVELS.len(), threads, |li| {
                let q = quantizer.clone().with_levels(CANDIDATE_LEVELS[li]);
                let hashes = pool_hash_rows(&q, inputs.iter().copied(), width);
                (q, hashes)
            })
        };
        Ok(Self {
            design,
            grids,
            rows: inputs.len(),
        })
    }

    /// Number of prepared inputs — the length `train` expects.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Trains the classifier for one labeling of the prepared inputs
    /// (`rejects[i]` labels input `i`), scoring the `(levels, vote)` grid
    /// across up to `threads` workers.
    ///
    /// The compiler holds out the last 25% of the rows, trains an
    /// ensemble at each candidate on the rest, keeps the candidate with
    /// the fewest held-out false decisions (missed rejects first), and
    /// retrains it on every row. Fewer than 8 rows train directly with
    /// the conservative rule.
    ///
    /// # Panics
    ///
    /// Panics if `rejects` does not label exactly [`rows`](Self::rows)
    /// inputs.
    pub(crate) fn train(&self, rejects: &[bool], threads: Option<usize>) -> TableClassifier {
        assert_eq!(rejects.len(), self.rows, "one label per prepared input");
        let design = self.design;
        if self.rows < MIN_HOLDOUT_ROWS {
            // Too little data to hold anything out; train directly.
            let (quantizer, hashes) = &self.grids[0];
            return Ensemble::build(design, 0.0, rejects, hashes).into_classifier(
                design,
                quantizer.clone(),
                0.0,
            );
        }
        let fit_len = self.rows - self.rows / 4;
        let eval = &rejects[fit_len..];

        // Quality is a constraint, not a linear tradeoff: a candidate is
        // feasible when its held-out false-negative rate stays within a
        // small fraction of the reject rate (missed rejects directly
        // breach the certified threshold). Among feasible candidates the
        // cheapest false-positive rate wins; if none is feasible the
        // design degrades conservatively — fewest missed rejects first —
        // which is exactly the paper's jmeint behaviour ("it
        // conservatively falls back to the original precise code").
        let eval_rejects = eval.iter().filter(|&&r| r).count();

        // Score every candidate once, each on its own worker; the scored
        // vector keeps levels-major candidate order regardless of which
        // worker finished first. Candidates train on the fit prefix and
        // score on the eval suffix of the same full-set hash rows.
        let scored: Vec<(usize, usize, u16, f64)> = par_map_indexed(
            CANDIDATE_LEVELS.len() * CANDIDATE_VOTES.len(),
            threads,
            |k| {
                let (li, vi) = (k / CANDIDATE_VOTES.len(), k % CANDIDATE_VOTES.len());
                let vote = CANDIDATE_VOTES[vi];
                let hashes = &self.grids[li].1;
                let ensemble = Ensemble::build(design, vote, &rejects[..fit_len], hashes);
                let (mut fp, mut fn_) = (0usize, 0usize);
                for (j, &reject) in eval.iter().enumerate() {
                    match (ensemble.rejects_row(hashes, fit_len + j), reject) {
                        (true, false) => fp += 1,
                        (false, true) => fn_ += 1,
                        _ => {}
                    }
                }
                (fn_, fp, CANDIDATE_LEVELS[li], vote)
            },
        );
        // Tiered selection: prefer candidates whose missed-reject rate
        // stays within an increasingly lax fraction of the reject
        // population; within a tier, fewest false positives wins. If no
        // tier admits anyone, degrade to fewest misses — the design then
        // "conservatively falls back to the original precise code".
        let pick = |cap: f64| -> Option<(u16, f64)> {
            scored
                .iter()
                .filter(|(fn_, _, _, _)| {
                    (*fn_ as f64) <= (eval_rejects as f64 * cap).max(eval.len() as f64 * 0.02)
                })
                .min_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)))
                .map(|&(_, _, l, v)| (l, v))
        };
        let (levels, vote) = pick(0.25).or_else(|| pick(0.5)).unwrap_or_else(|| {
            let &(_, _, l, v) = scored
                .iter()
                .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
                .expect("the candidate grid is non-empty");
            (l, v)
        });
        // Retrain the winning policy on every row, reusing the winner's
        // quantizer and full-set hash rows.
        let li = CANDIDATE_LEVELS
            .iter()
            .position(|&l| l == levels)
            .expect("the winner came from the candidate grid");
        let (winner_quantizer, hashes) = &self.grids[li];
        Ensemble::build(design, vote, rejects, hashes).into_classifier(
            design,
            winner_quantizer.clone(),
            vote,
        )
    }
}

/// One greedy ensemble build — the chosen pool indices (in table order)
/// and their trained tables, before binding to a quantizer. Built purely
/// from pre-computed hash rows so candidate sweeps never re-quantize or
/// re-hash.
#[derive(Debug)]
struct Ensemble {
    chosen: Vec<usize>,
    tables: Vec<BitTable>,
}

impl Ensemble {
    /// Builds each pool configuration's trained table and greedily selects
    /// the ensemble, exactly as the paper's compiler does (§IV-A2).
    ///
    /// `rejects` may cover only a *prefix* of the hash rows: candidates
    /// train on the fit prefix of full-set rows and are later scored
    /// against the eval suffix via [`Ensemble::rejects_row`].
    fn build(
        design: TableDesign,
        vote_threshold: f64,
        rejects: &[bool],
        hashes: &[Vec<u32>],
    ) -> Self {
        let candidate_tables = trained_tables(design, vote_threshold, rejects, hashes);
        let chosen = select_greedy(design.tables, rejects, hashes, &candidate_tables);
        let tables = chosen
            .iter()
            .map(|&c| candidate_tables[c].clone())
            .collect();
        Self { chosen, tables }
    }

    /// Whether the ensemble rejects hash row `i` — the OR of the chosen
    /// tables' bits, identical to [`TableClassifier::decide`] on the input
    /// that produced the row.
    fn rejects_row(&self, hashes: &[Vec<u32>], i: usize) -> bool {
        self.chosen
            .iter()
            .zip(&self.tables)
            .any(|(&c, t)| t.get(hashes[c][i] as usize))
    }

    fn into_classifier(
        self,
        design: TableDesign,
        quantizer: InputQuantizer,
        vote_threshold: f64,
    ) -> TableClassifier {
        let pool = MisrConfig::pool();
        let configs = self.chosen.iter().map(|&c| pool[c]).collect();
        TableClassifier::assemble(design, configs, self.tables, quantizer, vote_threshold)
    }
}

/// Each pool configuration's trained table over the `rejects` rows: a
/// bucket's bit is set when its reject share passes the vote threshold
/// (threshold 0 = the paper's "any reject" rule).
fn trained_tables(
    design: TableDesign,
    vote_threshold: f64,
    rejects: &[bool],
    hashes: &[Vec<u32>],
) -> Vec<BitTable> {
    hashes
        .iter()
        .map(|per_cfg| {
            let mut reject_counts = vec![0u32; design.entries_per_table];
            let mut totals = vec![0u32; design.entries_per_table];
            for (&h, &reject) in per_cfg.iter().zip(rejects) {
                totals[h as usize] += 1;
                if reject {
                    reject_counts[h as usize] += 1;
                }
            }
            let mut t = BitTable::new(design.entries_per_table);
            for (idx, (&r, &tot)) in reject_counts.iter().zip(&totals).enumerate() {
                if r > 0 && f64::from(r) >= vote_threshold * f64::from(tot) {
                    t.set(idx);
                }
            }
            t
        })
        .collect()
}

/// The compiler's greedy configuration assignment: `slots` times, take the
/// unused pool configuration whose table, ORed into the ensemble so far,
/// gives the fewest false decisions on the `rejects` rows (ties go to the
/// lower index).
///
/// Rows are packed 64 to a `u64` once — `truth` from the labels, `hit[c]`
/// from configuration `c`'s trained table — so a candidate's false
/// decisions are `popcount((ensemble | hit[c]) ^ truth)` summed over
/// words. Bits past the last row stay zero in every bitset, so the count
/// is exactly the per-row count.
fn select_greedy(
    slots: usize,
    rejects: &[bool],
    hashes: &[Vec<u32>],
    candidate_tables: &[BitTable],
) -> Vec<usize> {
    let n = rejects.len();
    let truth = pack_rows(n, |i| rejects[i]);
    let hits: Vec<Vec<u64>> = candidate_tables
        .iter()
        .zip(hashes)
        .map(|(table, per_cfg)| pack_rows(n, |i| table.get(per_cfg[i] as usize)))
        .collect();
    let mut ensemble = vec![0u64; truth.len()];
    let mut chosen: Vec<usize> = Vec::with_capacity(slots);
    for _slot in 0..slots {
        let mut best: Option<(usize, u32)> = None; // (cfg index, false count)
        for (c, hit) in hits.iter().enumerate() {
            if chosen.contains(&c) {
                continue;
            }
            let false_decisions: u32 = ensemble
                .iter()
                .zip(hit)
                .zip(&truth)
                .map(|((&e, &h), &t)| ((e | h) ^ t).count_ones())
                .sum();
            if best.is_none_or(|(_, f)| false_decisions < f) {
                best = Some((c, false_decisions));
            }
        }
        let (c, _) = best.expect("pool is larger than any valid design");
        for (e, &h) in ensemble.iter_mut().zip(&hits[c]) {
            *e |= h;
        }
        chosen.push(c);
    }
    chosen
}

/// Packs `bit(i)` for rows `0..n` into little-endian `u64` words; the
/// bits past row `n - 1` in the last word are zero.
fn pack_rows(n: usize, bit: impl Fn(usize) -> bool) -> Vec<u64> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for i in (0..n).filter(|&i| bit(i)) {
        words[i / 64] |= 1 << (i % 64);
    }
    words
}

impl FaultSite for TableClassifier {
    /// Bits are the table entries, enumerated table-major: bit
    /// `t * entries_per_table + e` is entry `e` of table `t`.
    fn fault_bits(&self) -> u64 {
        (self.design.tables * self.design.entries_per_table) as u64
    }

    fn flip_bit(&mut self, index: u64) {
        let entries = self.design.entries_per_table as u64;
        let table = (index / entries) as usize;
        let entry = (index % entries) as usize;
        self.tables[table].flip(entry);
    }
}

impl Classifier for TableClassifier {
    fn name(&self) -> &'static str {
        "table"
    }

    fn classify(&mut self, _index: usize, input: &[f32]) -> Decision {
        self.decide(input)
    }

    fn overhead(&self) -> ClassifierOverhead {
        // Hashing overlaps with input enqueue; after the last element the
        // tri-state gates open, the tables are read in parallel and the OR
        // reduces them: a small fixed latency.
        ClassifierOverhead {
            decision_cycles: 4,
            misr_shifts: (self.design.tables * self.quantizer.dims()) as u64,
            table_bit_reads: self.design.tables as u64,
            npu_topology: None,
        }
    }

    fn observe(&mut self, _index: usize, input: &[f32], reject: bool) {
        if !reject {
            return; // entries only ever turn 1 (conservative policy)
        }
        let mut hashes = [0u32; MAX_TABLES];
        let hashes = self.table_indices(input, &mut hashes);
        for (table, &h) in self.tables.iter_mut().zip(hashes) {
            table.set(h as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantizer_1d() -> InputQuantizer {
        InputQuantizer::new(vec![0.0], vec![1.0])
    }

    fn examples_1d(rejects: &[f32], accepts: &[f32]) -> Vec<TrainingExample> {
        rejects
            .iter()
            .map(|&v| TrainingExample {
                input: vec![v],
                reject: true,
            })
            .chain(accepts.iter().map(|&v| TrainingExample {
                input: vec![v],
                reject: false,
            }))
            .collect()
    }

    #[test]
    fn trained_table_rejects_trained_inputs() {
        let ex = examples_1d(&[0.9, 0.95], &[0.1, 0.2, 0.3]);
        let mut c =
            TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        assert_eq!(c.decide(&[0.9]), Decision::Precise);
        assert_eq!(c.decide(&[0.95]), Decision::Precise);
        assert_eq!(c.decide(&[0.1]), Decision::Approximate);
    }

    #[test]
    fn untouched_inputs_default_to_accelerator() {
        let ex = examples_1d(&[0.9], &[0.1]);
        let mut c =
            TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        // 0.5 hashes to buckets no training example touched.
        assert_eq!(c.decide(&[0.5]), Decision::Approximate);
    }

    #[test]
    fn online_update_flips_future_decisions() {
        let ex = examples_1d(&[0.9], &[0.1]);
        let mut c =
            TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        assert_eq!(c.decide(&[0.5]), Decision::Approximate);
        c.observe(0, &[0.5], true);
        assert_eq!(c.decide(&[0.5]), Decision::Precise);
        // Observing a non-reject never clears a bit.
        c.observe(1, &[0.5], false);
        assert_eq!(c.decide(&[0.5]), Decision::Precise);
    }

    #[test]
    fn greedy_assignment_uses_distinct_configs() {
        let ex = examples_1d(&[0.8, 0.85, 0.9], &[0.1, 0.2, 0.3, 0.4]);
        let c = TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        let set: std::collections::HashSet<_> = c.configs().iter().collect();
        assert_eq!(set.len(), 8, "configs must be distinct pool entries");
    }

    #[test]
    fn fresh_tables_compress_16x() {
        let ex = examples_1d(&[], &[0.5]);
        let c = TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        let stats = c.compress().stats();
        assert!(stats.ratio() >= 16.0, "ratio {}", stats.ratio());
        assert_eq!(stats.uncompressed_bytes, 4096); // 8 tables x 0.5 KB
    }

    #[test]
    fn fill_ratio_tracks_rejects() {
        let ex = examples_1d(&[0.7, 0.8, 0.9], &[]);
        let c = TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        assert!(c.fill_ratio() > 0.0);
        assert!(c.fill_ratio() < 0.01);
    }

    #[test]
    fn aliasing_is_conservative() {
        // Train a tiny single table so aliasing is likely: when an accept
        // and a reject collide, the decision must be Precise.
        let design = TableDesign {
            tables: 1,
            entries_per_table: 256,
        };
        let rejects: Vec<f32> = (0..50).map(|i| i as f32 / 100.0).collect();
        let accepts: Vec<f32> = (50..100).map(|i| i as f32 / 100.0).collect();
        let ex = examples_1d(&rejects, &accepts);
        let mut c = TableClassifier::train(design, quantizer_1d(), &ex).unwrap();
        for &r in &rejects {
            assert_eq!(c.decide(&[r]), Decision::Precise, "input {r}");
        }
    }

    #[test]
    fn design_validation() {
        let q = quantizer_1d();
        let ex = examples_1d(&[0.9], &[0.1]);
        assert!(TableClassifier::train(
            TableDesign {
                tables: 0,
                entries_per_table: 4096
            },
            q.clone(),
            &ex
        )
        .is_err());
        assert!(TableClassifier::train(
            TableDesign {
                tables: 17,
                entries_per_table: 4096
            },
            q.clone(),
            &ex
        )
        .is_err());
        assert!(TableClassifier::train(
            TableDesign {
                tables: 4,
                entries_per_table: 1000
            },
            q.clone(),
            &ex
        )
        .is_err());
        assert!(TableClassifier::train(TableDesign::paper_default(), q, &[]).is_err());
    }

    #[test]
    fn pareto_grid_is_16_points_including_default() {
        let grid = TableDesign::pareto_grid();
        assert_eq!(grid.len(), 16);
        assert!(grid.contains(&TableDesign::paper_default()));
    }

    #[test]
    fn design_display_and_sizes() {
        let d = TableDesign::paper_default();
        assert_eq!(d.to_string(), "8T x 0.5KB");
        assert!((d.total_kb() - 4.0).abs() < 1e-12);
        assert_eq!(d.index_width(), 12);
    }

    #[test]
    fn fault_bits_cover_all_entries_and_flips_invert() {
        let ex = examples_1d(&[0.9], &[0.1]);
        let mut c =
            TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        assert_eq!(c.fault_bits(), 8 * 4096);
        let before = c.clone();
        // Flip an entry in the last table; decisions over a trained reject
        // may or may not change, but state must, and a second flip must
        // restore it bit-exactly.
        let bit = c.fault_bits() - 7;
        c.flip_bit(bit);
        assert_ne!(c, before);
        c.flip_bit(bit);
        assert_eq!(c, before);
    }

    #[test]
    fn flipped_zero_entry_falsely_rejects() {
        let ex = examples_1d(&[], &[0.1, 0.5, 0.9]);
        let mut c = TableClassifier::train(
            TableDesign {
                tables: 1,
                entries_per_table: 256,
            },
            quantizer_1d(),
            &ex,
        )
        .unwrap();
        assert_eq!(c.decide(&[0.5]), Decision::Approximate);
        // Corrupt the exact bucket 0.5 hashes to.
        let qbuf = c.quantizer().quantize(&[0.5]);
        let idx = crate::misr::Misr::hash(c.configs()[0], c.design().index_width(), &qbuf);
        c.flip_bit(idx as u64);
        assert_eq!(c.decide(&[0.5]), Decision::Precise);
    }

    #[test]
    fn corrupted_misr_aliases_learned_rejects() {
        let ex = examples_1d(&[0.9], &[0.1]);
        let mut c = TableClassifier::train(
            TableDesign {
                tables: 1,
                entries_per_table: 4096,
            },
            quantizer_1d(),
            &ex,
        )
        .unwrap();
        assert_eq!(c.decide(&[0.9]), Decision::Precise);
        let original = c.configs()[0];
        c.corrupt_misr(0, 0x155, 3);
        assert_ne!(c.configs()[0], original, "reconfiguration must stick");
        // The trained reject now hashes elsewhere; with a sparse table the
        // aliased bucket is almost surely clear.
        assert_eq!(c.decide(&[0.9]), Decision::Approximate);
    }

    #[test]
    fn clones_share_the_kernel_until_reconfigured() {
        let ex = examples_1d(&[0.9], &[0.1]);
        let c = TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        let mut clone = c.clone();
        assert!(Arc::ptr_eq(&c.kernel, &clone.kernel));
        clone.corrupt_misr(0, 0x155, 3);
        assert!(!Arc::ptr_eq(&c.kernel, &clone.kernel));
        assert_eq!(clone.kernel.lanes(), 8);
    }

    /// The row-by-row greedy selection the packed `select_greedy`
    /// replaced, kept as its reference.
    fn select_greedy_naive(
        slots: usize,
        rejects: &[bool],
        hashes: &[Vec<u32>],
        candidate_tables: &[BitTable],
    ) -> Vec<usize> {
        let mut chosen: Vec<usize> = Vec::with_capacity(slots);
        let mut ensemble_says_reject = vec![false; rejects.len()];
        for _slot in 0..slots {
            let mut best: Option<(usize, usize)> = None;
            for (c, per_cfg) in hashes.iter().enumerate() {
                if chosen.contains(&c) {
                    continue;
                }
                let mut false_decisions = 0usize;
                for (i, &r) in rejects.iter().enumerate() {
                    let reject =
                        ensemble_says_reject[i] || candidate_tables[c].get(per_cfg[i] as usize);
                    if reject != r {
                        false_decisions += 1;
                    }
                }
                if best.is_none_or(|(_, f)| false_decisions < f) {
                    best = Some((c, false_decisions));
                }
            }
            let (c, _) = best.unwrap();
            for (i, r) in ensemble_says_reject.iter_mut().enumerate() {
                *r = *r || candidate_tables[c].get(hashes[c][i] as usize);
            }
            chosen.push(c);
        }
        chosen
    }

    proptest::proptest! {
        #[test]
        fn packed_greedy_matches_row_by_row_reference(
            seed in proptest::prelude::any::<u64>(),
            rows in 1usize..300,
            extra in 0usize..70,
            tables in 1usize..=16,
            width in 8u32..=10,
            reject_pct in 0u32..=100,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let design = TableDesign { tables, entries_per_table: 1 << width };
            // Rows past the labeled prefix stand for the held-out suffix,
            // which the selection must never read.
            let hashes: Vec<Vec<u32>> = (0..16)
                .map(|_| (0..rows + extra).map(|_| rng.gen_range(0..1u32 << width)).collect())
                .collect();
            let rejects: Vec<bool> = (0..rows).map(|_| rng.gen_range(0..100) < reject_pct).collect();
            for vote in [0.0, 0.15, 0.35, rng.gen_range(0.0..=1.0)] {
                let candidates = trained_tables(design, vote, &rejects, &hashes);
                let packed = select_greedy(tables, &rejects, &hashes, &candidates);
                let reference = select_greedy_naive(tables, &rejects, &hashes, &candidates);
                proptest::prop_assert_eq!(
                    &packed,
                    &reference,
                    "rows {} vote {}",
                    rows,
                    vote
                );
            }
        }
    }

    #[test]
    fn packed_rows_leave_the_tail_clear() {
        for n in [1, 63, 64, 65, 130] {
            let words = pack_rows(n, |_| true);
            assert_eq!(words.len(), n.div_ceil(64));
            let ones: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones as usize, n);
        }
        assert!(pack_rows(0, |_| true).is_empty());
    }

    #[test]
    fn overhead_shape() {
        let ex = examples_1d(&[0.9], &[0.1]);
        let c = TableClassifier::train(TableDesign::paper_default(), quantizer_1d(), &ex).unwrap();
        let o = c.overhead();
        assert_eq!(o.table_bit_reads, 8);
        assert_eq!(o.misr_shifts, 8); // 8 tables x 1 input dim
        assert!(o.npu_topology.is_none());
    }
}
