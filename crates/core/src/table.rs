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
use std::ops::Range;
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
    /// parallelism): the inputs are prepared once (quantized, hashed and
    /// their bucket occupancy counted at every candidate granularity),
    /// then the labels train the grid, one granularity per worker.
    ///
    /// Every granularity is graded from pre-computed hashes and occupancy
    /// shared read-only across workers, and the winner is selected by
    /// folding scores in the original candidate order — so the trained
    /// classifier is bit-identical at any thread count.
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
    /// minimizes the *ensemble's* false decisions so far. This is the
    /// single-vote case of the builder the compile-time search grades its
    /// candidates with.
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

        let inputs: Vec<&[f32]> = examples.iter().map(|e| &e.input[..]).collect();
        let rejects: Vec<bool> = examples.iter().map(|e| e.reject).collect();
        let set = PreparedTableSet::fixed(design, quantizer, &inputs);
        Ok(set.train_at(0, vote_threshold, &rejects))
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
/// Candidate bucket-vote thresholds of the compile-time search, ascending:
/// a bucket that fails one vote fails every larger one, so the votes it
/// passes are a prefix of the list and their count (its grade) encodes
/// them all.
const CANDIDATE_VOTES: [f64; 3] = [0.0, 0.15, 0.35];
const _: () = {
    let mut i = 1;
    while i < CANDIDATE_VOTES.len() {
        assert!(
            CANDIDATE_VOTES[i - 1] < CANDIDATE_VOTES[i],
            "CANDIDATE_VOTES must ascend"
        );
        i += 1;
    }
};
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

/// Adds one to `counts[h]` for every bucket index `h` of `buckets` — the
/// one bucket-counting loop, behind both occupancy and reject counts.
fn count_buckets(counts: &mut [u32], buckets: impl IntoIterator<Item = u32>) {
    for h in buckets {
        counts[h as usize] += 1;
    }
}

/// Adds to each pool configuration `c`'s counts — chunk `c` of
/// `occupancy`, one count per bucket — how many of `rows` hash to each
/// bucket under `c`.
fn add_occupancy(occupancy: &mut [u32], hashes: &[Vec<u32>], rows: Range<usize>) {
    let entries = occupancy.len() / hashes.len();
    for (counts, per_cfg) in occupancy.chunks_exact_mut(entries).zip(hashes) {
        count_buckets(counts, per_cfg[rows.clone()].iter().copied());
    }
}

/// The label-independent half of [`TableClassifier::train_with_threads`]:
/// one input set quantized at every candidate granularity, hashed under
/// all 16 pool configurations, and its fit prefix's bucket occupancy
/// counted.
///
/// Hashes and occupancy depend only on the inputs and the granularity —
/// never on the labels or the vote threshold — so a caller that relabels
/// the same inputs many times (the deployed routed certifier retrains at
/// every bisection probe) prepares once and calls
/// [`PreparedTableSet::train`] per labeling. Each call is bit-identical to
/// a cold `train_with_threads` on the same inputs and labels.
#[derive(Debug, Clone)]
pub(crate) struct PreparedTableSet {
    design: TableDesign,
    /// One grid per candidate granularity, in `CANDIDATE_LEVELS` order. A
    /// set below `MIN_HOLDOUT_ROWS` keeps one, at the caller's quantizer.
    grids: Vec<PreparedGrid>,
    rows: usize,
    /// The rows candidates train on: all but the last quarter, or every
    /// row of a set below `MIN_HOLDOUT_ROWS`.
    fit_len: usize,
}

/// One granularity's label-independent training state.
#[derive(Debug, Clone)]
struct PreparedGrid {
    quantizer: InputQuantizer,
    /// `hashes[c][i]`: row `i`'s bucket under pool configuration `c`,
    /// over the full set.
    hashes: Vec<Vec<u32>>,
    /// How many fit-prefix rows hash to each bucket, configuration-major:
    /// entry `c * entries_per_table + b` counts bucket `b` under pool
    /// configuration `c`.
    fit_occupancy: Vec<u32>,
}

impl PreparedGrid {
    fn new(
        design: TableDesign,
        quantizer: InputQuantizer,
        hashes: Vec<Vec<u32>>,
        fit_len: usize,
    ) -> Self {
        let mut fit_occupancy = vec![0; hashes.len() * design.entries_per_table];
        add_occupancy(&mut fit_occupancy, &hashes, 0..fit_len);
        Self {
            quantizer,
            hashes,
            fit_occupancy,
        }
    }
}

impl PreparedTableSet {
    /// Quantizes and hashes `inputs` for every candidate granularity and
    /// counts their fit occupancy, the granularities spread across up to
    /// `threads` workers.
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
        if inputs.len() < MIN_HOLDOUT_ROWS {
            return Ok(Self::fixed(design, quantizer, inputs));
        }
        let (rows, width) = (inputs.len(), design.index_width());
        let fit_len = rows - rows / 4;
        let grids = par_map_indexed(CANDIDATE_LEVELS.len(), threads, |li| {
            let q = quantizer.clone().with_levels(CANDIDATE_LEVELS[li]);
            let hashes = pool_hash_rows(&q, inputs.iter().copied(), width);
            PreparedGrid::new(design, q, hashes, fit_len)
        });
        Ok(Self {
            design,
            grids,
            rows,
            fit_len,
        })
    }

    /// One grid at `quantizer` that holds nothing out, for a validated
    /// design and a non-empty input set.
    fn fixed(design: TableDesign, quantizer: InputQuantizer, inputs: &[&[f32]]) -> Self {
        let rows = inputs.len();
        let hashes = pool_hash_rows(&quantizer, inputs.iter().copied(), design.index_width());
        Self {
            design,
            grids: vec![PreparedGrid::new(design, quantizer, hashes, rows)],
            rows,
            fit_len: rows,
        }
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
        if self.rows < MIN_HOLDOUT_ROWS {
            // Too little data to hold anything out; train directly.
            return self.train_at(0, 0.0, rejects);
        }
        let fit_len = self.fit_len;
        let eval = &rejects[fit_len..];
        let fit_rejects = reject_rows(&rejects[..fit_len]);

        // Quality is a constraint, not a linear tradeoff: a candidate is
        // feasible when its held-out false-negative rate stays within a
        // small fraction of the reject rate (missed rejects directly
        // breach the certified threshold). Among feasible candidates the
        // cheapest false-positive rate wins; if none is feasible the
        // design degrades conservatively — fewest missed rejects first —
        // which is exactly the paper's jmeint behaviour ("it
        // conservatively falls back to the original precise code").
        let eval_rejects = eval.iter().filter(|&&r| r).count();

        // Each granularity grades its fit-prefix buckets once for every
        // vote, on its own worker, and scores its vote candidates on the
        // eval suffix of the same full-set hash rows; the scored vector
        // keeps levels-major candidate order regardless of which worker
        // finished first.
        let scored: Vec<(usize, usize, usize, usize)> =
            par_map_indexed(self.grids.len(), threads, |li| {
                let grid = &self.grids[li];
                let graded = GradedEnsembles::train(
                    self.design,
                    &CANDIDATE_VOTES,
                    &grid.fit_occupancy,
                    (fit_len, &fit_rejects),
                    &grid.hashes,
                );
                let scores = graded.score(&grid.hashes, fit_len..self.rows, eval);
                (0..)
                    .zip(scores)
                    .map(|(vi, (fn_, fp))| (fn_, fp, li, vi))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        // Tiered selection: prefer candidates whose missed-reject rate
        // stays within an increasingly lax fraction of the reject
        // population; within a tier, fewest false positives wins. If no
        // tier admits anyone, degrade to fewest misses — the design then
        // "conservatively falls back to the original precise code".
        let pick = |cap: f64| -> Option<(usize, usize)> {
            scored
                .iter()
                .filter(|(fn_, _, _, _)| {
                    (*fn_ as f64) <= (eval_rejects as f64 * cap).max(eval.len() as f64 * 0.02)
                })
                .min_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)))
                .map(|&(_, _, li, vi)| (li, vi))
        };
        let (li, vi) = pick(0.25).or_else(|| pick(0.5)).unwrap_or_else(|| {
            let &(_, _, li, vi) = scored
                .iter()
                .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
                .expect("the candidate grid is non-empty");
            (li, vi)
        });
        self.train_at(li, CANDIDATE_VOTES[vi], rejects)
    }

    /// Trains grid `li`'s ensemble at `vote` on every row, reusing its
    /// quantizer and full-set hash rows: the occupancy of all rows is the
    /// fit prefix's plus a count over the eval suffix.
    fn train_at(&self, li: usize, vote: f64, rejects: &[bool]) -> TableClassifier {
        let grid = &self.grids[li];
        let mut occupancy = grid.fit_occupancy.clone();
        add_occupancy(&mut occupancy, &grid.hashes, self.fit_len..self.rows);
        let labels = (self.rows, &reject_rows(rejects)[..]);
        GradedEnsembles::train(self.design, &[vote], &occupancy, labels, &grid.hashes).classifier(
            0,
            self.design,
            grid.quantizer.clone(),
            vote,
        )
    }
}

/// The greedy ensembles of one granularity at every vote of an ascending
/// vote list, trained on a labeled prefix of full-set hash rows.
/// Built purely from pre-computed hash rows and occupancy, so candidate
/// sweeps never re-quantize, re-hash or recount occupancy.
#[derive(Debug)]
struct GradedEnsembles {
    /// `grades[c][b]`: how many of the votes bucket `b` of pool
    /// configuration `c` passes. Configuration `c`'s trained table at vote
    /// index `v` sets exactly the buckets graded above `v`.
    grades: Vec<Vec<u8>>,
    /// Per vote, the chosen pool indices in table order.
    chosen: Vec<Vec<usize>>,
}

impl GradedEnsembles {
    /// Counts the labeled rejects once per pool configuration, grades
    /// every bucket against every vote, gathers each row's hit bits for
    /// all votes in one pass, and then selects each vote's ensemble
    /// greedily, exactly as the paper's compiler does (§IV-A2).
    ///
    /// The prefix is rows `0..n`, of which `rejects` lists the rejected
    /// ones in order. `occupancy` counts the prefix's rows per bucket,
    /// laid out as `PreparedGrid::fit_occupancy` is; `hashes` may run past
    /// them (the eval suffix, scored later through
    /// [`GradedEnsembles::score`]).
    fn train(
        design: TableDesign,
        votes: &[f64],
        occupancy: &[u32],
        (n, rejects): (usize, &[usize]),
        hashes: &[Vec<u32>],
    ) -> Self {
        let mut reject_counts = vec![0u32; design.entries_per_table];
        let grades: Vec<Vec<u8>> = occupancy
            .chunks_exact(design.entries_per_table)
            .zip(hashes)
            .map(|(totals, per_cfg)| {
                reject_counts.fill(0);
                count_buckets(&mut reject_counts, rejects.iter().map(|&i| per_cfg[i]));
                totals
                    .iter()
                    .zip(&reject_counts)
                    .map(|(&total, &r)| grade(votes, r, total))
                    .collect()
            })
            .collect();
        let truth = pack_rows(n, rejects.iter().copied());
        let chosen = pack_graded_hits(votes.len(), 0..n, &grades, hashes)
            .iter()
            .map(|hits| select_greedy(design.tables, &truth, hits))
            .collect();
        Self { grades, chosen }
    }

    /// Per vote, the `(false negatives, false positives)` of its ensemble
    /// on hash rows `rows`, which `rejects` labels in order. A row's
    /// decision is the OR of the chosen tables' bits, identical to
    /// [`TableClassifier::decide`] on the input that produced the row;
    /// the rows are scored 64 at a time on packed hit words.
    fn score(
        &self,
        hashes: &[Vec<u32>],
        rows: Range<usize>,
        rejects: &[bool],
    ) -> Vec<(usize, usize)> {
        let truth = pack_rows(rejects.len(), (0..rejects.len()).filter(|&i| rejects[i]));
        let hits = pack_graded_hits(self.chosen.len(), rows, &self.grades, hashes);
        hits.iter()
            .zip(&self.chosen)
            .map(|(hits, chosen)| {
                let (mut fn_, mut fp) = (0, 0);
                for (w, &t) in truth.iter().enumerate() {
                    let ensemble = chosen.iter().fold(0, |e, &c| e | hits[c][w]);
                    fn_ += (t & !ensemble).count_ones() as usize;
                    fp += (ensemble & !t).count_ones() as usize;
                }
                (fn_, fp)
            })
            .collect()
    }

    /// The ensemble at vote index `v` bound to `quantizer`; `vote` is the
    /// threshold it was trained at.
    fn classifier(
        &self,
        v: usize,
        design: TableDesign,
        quantizer: InputQuantizer,
        vote: f64,
    ) -> TableClassifier {
        let pool = MisrConfig::pool();
        let chosen = &self.chosen[v];
        let configs = chosen.iter().map(|&c| pool[c]).collect();
        let tables = chosen
            .iter()
            .map(|&c| {
                let mut table = BitTable::new(design.entries_per_table);
                for (b, &g) in self.grades[c].iter().enumerate() {
                    if usize::from(g) > v {
                        table.set(b);
                    }
                }
                table
            })
            .collect();
        TableClassifier::assemble(design, configs, tables, quantizer, vote)
    }
}

/// The rows `rejects` labels as rejects, in order.
fn reject_rows(rejects: &[bool]) -> Vec<usize> {
    (0..rejects.len()).filter(|&i| rejects[i]).collect()
}

/// How many of the ascending `votes` a bucket holding `total` labeled
/// rows, `rejects` of them rejects, passes: it passes a vote when its
/// reject share reaches it (vote 0 = the paper's "any reject" rule).
fn grade(votes: &[f64], rejects: u32, total: u32) -> u8 {
    votes
        .iter()
        .map(|&vote| u8::from(rejects > 0 && f64::from(rejects) >= vote * f64::from(total)))
        .sum()
}

/// Packs the hit bits of hash rows `rows` 64 to a `u64`, from bit 0,
/// for every vote index `v < votes` and pool configuration `c`:
/// `hits[v][c]` holds row `i`'s bit `grades[c][hashes[c][i]] > v`. One
/// gather per row and configuration fetches its grade, and the words of
/// every vote are cut from eight grades at a time without a branch. Bits
/// past the last row are zero.
fn pack_graded_hits(
    votes: usize,
    rows: Range<usize>,
    grades: &[Vec<u8>],
    hashes: &[Vec<u32>],
) -> Vec<Vec<Vec<u64>>> {
    let words = rows.len().div_ceil(64);
    let mut hits = vec![vec![Vec::with_capacity(words); grades.len()]; votes];
    for (c, (graded, per_cfg)) in grades.iter().zip(hashes).enumerate() {
        for chunk in per_cfg[rows.clone()].chunks(64) {
            // Lanes past the last row keep grade 0, which hits no vote.
            let mut lanes = [0u8; 64];
            for (lane, &h) in lanes.iter_mut().zip(chunk) {
                *lane = graded[h as usize];
            }
            for (v, per_vote) in (0u64..).zip(&mut hits) {
                let mut word = 0;
                for (k, eight) in lanes.chunks_exact(8).enumerate() {
                    let eight = u64::from_le_bytes(eight.try_into().expect("eight lanes"));
                    word |= lanes_above(eight, v) << (8 * k);
                }
                per_vote[c].push(word);
            }
        }
    }
    hits
}

/// Bit `i` set for each byte lane `i` of `lanes` above `v`, for lanes and
/// `v` below 128. Setting each lane's high bit and subtracting `v + 1`
/// from every lane borrows across no lane, so a high bit survives exactly
/// where the lane exceeds `v`; the multiplication then moves lane `i`'s
/// bit to bit `56 + i` with no carries.
fn lanes_above(lanes: u64, v: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let high = ((lanes | ONES << 7) - (v + 1) * ONES) & ONES << 7;
    (high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The compiler's greedy configuration assignment: `slots` times, take the
/// unused pool configuration whose table, ORed into the ensemble so far,
/// gives the fewest false decisions against `truth` (ties go to the lower
/// index).
///
/// Rows come packed 64 to a `u64` — `truth` from the labels, `hits[c]`
/// from configuration `c`'s trained table — so a candidate's false
/// decisions are `popcount((ensemble | hits[c]) ^ truth)` summed over
/// words. Bits past the last row are zero in every bitset, so the count is
/// exactly the per-row count.
fn select_greedy(slots: usize, truth: &[u64], hits: &[Vec<u64>]) -> Vec<usize> {
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
                .zip(truth)
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

/// Packs rows `0..n` into little-endian `u64` words, setting the bits of
/// the rows `ones` lists; the bits past row `n - 1` in the last word are
/// zero.
fn pack_rows(n: usize, ones: impl IntoIterator<Item = usize>) -> Vec<u64> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for i in ones {
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

    /// The per-candidate greedy ensemble build the graded builder
    /// replaced — each pool configuration's table trained at one vote,
    /// then the greedy selection — kept as its reference.
    struct Ensemble {
        chosen: Vec<usize>,
        tables: Vec<BitTable>,
    }

    impl Ensemble {
        fn build(
            design: TableDesign,
            vote_threshold: f64,
            rejects: &[bool],
            hashes: &[Vec<u32>],
        ) -> Self {
            let candidate_tables = trained_tables(design, vote_threshold, rejects, hashes);
            let truth = pack_rows(rejects.len(), (0..rejects.len()).filter(|&i| rejects[i]));
            let hits = table_hits(rejects.len(), hashes, &candidate_tables);
            let chosen = select_greedy(design.tables, &truth, &hits);
            let tables = chosen
                .iter()
                .map(|&c| candidate_tables[c].clone())
                .collect();
            Self { chosen, tables }
        }

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

    /// Each pool configuration's trained table over the `rejects` rows,
    /// counted bucket by bucket at one vote threshold.
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

    /// Each table's hit bits over rows `0..n`, packed for `select_greedy`.
    fn table_hits(n: usize, hashes: &[Vec<u32>], tables: &[BitTable]) -> Vec<Vec<u64>> {
        tables
            .iter()
            .zip(hashes)
            .map(|(table, per_cfg)| {
                pack_rows(n, (0..n).filter(|&i| table.get(per_cfg[i] as usize)))
            })
            .collect()
    }

    /// [`PreparedTableSet::train`] as it ran before the graded builder:
    /// every `(levels, vote)` candidate built from scratch, the winner
    /// rebuilt on every row.
    fn reference_train(set: &PreparedTableSet, rejects: &[bool]) -> TableClassifier {
        let design = set.design;
        if set.rows < MIN_HOLDOUT_ROWS {
            let grid = &set.grids[0];
            return Ensemble::build(design, 0.0, rejects, &grid.hashes).into_classifier(
                design,
                grid.quantizer.clone(),
                0.0,
            );
        }
        let fit_len = set.rows - set.rows / 4;
        let eval = &rejects[fit_len..];
        let eval_rejects = eval.iter().filter(|&&r| r).count();
        let mut scored = Vec::new();
        for (li, grid) in set.grids.iter().enumerate() {
            for &vote in &CANDIDATE_VOTES {
                let ensemble = Ensemble::build(design, vote, &rejects[..fit_len], &grid.hashes);
                let (fn_, fp) = reference_score(&ensemble, &grid.hashes, fit_len, eval);
                scored.push((fn_, fp, li, vote));
            }
        }
        let pick = |cap: f64| {
            scored
                .iter()
                .filter(|(fn_, _, _, _)| {
                    (*fn_ as f64) <= (eval_rejects as f64 * cap).max(eval.len() as f64 * 0.02)
                })
                .min_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)))
                .map(|&(_, _, li, vote)| (li, vote))
        };
        let (li, vote) = pick(0.25).or_else(|| pick(0.5)).unwrap_or_else(|| {
            let &(_, _, li, vote) = scored
                .iter()
                .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
                .unwrap();
            (li, vote)
        });
        let grid = &set.grids[li];
        Ensemble::build(design, vote, rejects, &grid.hashes).into_classifier(
            design,
            grid.quantizer.clone(),
            vote,
        )
    }

    /// The `(false negatives, false positives)` of `ensemble` on the hash
    /// rows from `first` on, which `eval` labels, decided row by row.
    fn reference_score(
        ensemble: &Ensemble,
        hashes: &[Vec<u32>],
        first: usize,
        eval: &[bool],
    ) -> (usize, usize) {
        let (mut fn_, mut fp) = (0, 0);
        for (i, &reject) in (first..).zip(eval) {
            match (ensemble.rejects_row(hashes, i), reject) {
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
        (fn_, fp)
    }

    /// [`TableClassifier::train_with_policy`] as it ran before the graded
    /// builder.
    fn reference_policy(
        design: TableDesign,
        quantizer: InputQuantizer,
        vote: f64,
        examples: &[TrainingExample],
    ) -> TableClassifier {
        let hashes = pool_hash_rows(
            &quantizer,
            examples.iter().map(|e| &e.input[..]),
            design.index_width(),
        );
        let rejects: Vec<bool> = examples.iter().map(|e| e.reject).collect();
        Ensemble::build(design, vote, &rejects, &hashes).into_classifier(design, quantizer, vote)
    }

    fn serialized(c: &TableClassifier) -> String {
        serde_json::to_string(c).unwrap()
    }

    /// The rows of a `rows`-row set that candidates train on.
    fn fit_len(rows: usize) -> usize {
        if rows < MIN_HOLDOUT_ROWS {
            rows
        } else {
            rows - rows / 4
        }
    }

    /// Row counts the graded builder is pinned at: every count without a
    /// hold-out, both sides of a packed word's edge, and the compile's
    /// sample size.
    const PINNED_ROWS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 30_000];

    /// A prepared set over random hash rows: `rows` rows whose buckets
    /// fall in `0..buckets` under every pool configuration, one grid per
    /// candidate granularity (one below `MIN_HOLDOUT_ROWS`).
    fn random_prepared_set(
        rng: &mut impl rand::Rng,
        design: TableDesign,
        rows: usize,
        buckets: u32,
    ) -> PreparedTableSet {
        let levels: &[u16] = if rows < MIN_HOLDOUT_ROWS {
            &[16]
        } else {
            &CANDIDATE_LEVELS
        };
        let grids = levels
            .iter()
            .map(|&l| {
                let hashes = (0..16)
                    .map(|_| (0..rows).map(|_| rng.gen_range(0..buckets)).collect())
                    .collect();
                PreparedGrid::new(design, quantizer_1d().with_levels(l), hashes, fit_len(rows))
            })
            .collect();
        PreparedTableSet {
            design,
            grids,
            rows,
            fit_len: fit_len(rows),
        }
    }

    /// Labels for `rows` rows: none rejected, all rejected, or each with
    /// probability `pct` percent.
    fn labeling(rng: &mut impl rand::Rng, rows: usize, kind: u32, pct: u32) -> Vec<bool> {
        match kind {
            0 => vec![false; rows],
            1 => vec![true; rows],
            _ => (0..rows).map(|_| rng.gen_range(0..100) < pct).collect(),
        }
    }

    /// Pins the graded builder against the per-candidate reference on one
    /// prepared set and labeling: every candidate's fit-prefix classifier
    /// and held-out decisions, then the trained winner.
    fn check_graded_against_reference(set: &PreparedTableSet, rejects: &[bool]) {
        let design = set.design;
        let fit = &rejects[..set.fit_len];
        for grid in &set.grids {
            let graded = GradedEnsembles::train(
                design,
                &CANDIDATE_VOTES,
                &grid.fit_occupancy,
                (set.fit_len, &reject_rows(fit)),
                &grid.hashes,
            );
            let eval = &rejects[set.fit_len..];
            let scores = graded.score(&grid.hashes, set.fit_len..set.rows, eval);
            for (vi, &vote) in CANDIDATE_VOTES.iter().enumerate() {
                let reference = Ensemble::build(design, vote, fit, &grid.hashes);
                assert_eq!(
                    scores[vi],
                    reference_score(&reference, &grid.hashes, set.fit_len, eval),
                    "held-out score at vote {vote}, {} rows",
                    set.rows
                );
                let q = grid.quantizer.clone();
                assert_eq!(
                    serialized(&graded.classifier(vi, design, q.clone(), vote)),
                    serialized(&reference.into_classifier(design, q, vote)),
                    "candidate at vote {vote}, {} rows",
                    set.rows
                );
            }
        }
        assert_eq!(
            serialized(&set.train(rejects, Some(1))),
            serialized(&reference_train(set, rejects)),
            "trained winner, {} rows",
            set.rows
        );
    }

    proptest::proptest! {
        #[test]
        fn graded_builder_matches_per_candidate_reference(
            seed in proptest::prelude::any::<u64>(),
            pinned in 0usize..PINNED_ROWS.len(),
            tables in 1usize..=16,
            width in 8u32..=10,
            spread in 0u32..=10,
            kind in 0u32..3,
            reject_pct in 0u32..=100,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let design = TableDesign { tables, entries_per_table: 1 << width };
            let rows = PINNED_ROWS[pinned];
            // Few buckets pile many rows into each, so vote shares vary.
            let set = random_prepared_set(&mut rng, design, rows, 1 << spread.min(width));
            let rejects = labeling(&mut rng, rows, kind, reject_pct);
            check_graded_against_reference(&set, &rejects);
        }

        #[test]
        fn fixed_policy_matches_per_candidate_reference(
            seed in proptest::prelude::any::<u64>(),
            rows in 1usize..200,
            dims in 1usize..=3,
            tables in 1usize..=16,
            width in 8u32..=10,
            levels in 2u16..=32,
            reject_pct in 0u32..=100,
            vote in 0.0f64..=1.0,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let design = TableDesign { tables, entries_per_table: 1 << width };
            let quantizer = InputQuantizer::new(vec![0.0; dims], vec![1.0; dims]).with_levels(levels);
            let examples: Vec<TrainingExample> = (0..rows)
                .map(|_| TrainingExample {
                    input: (0..dims).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
                    reject: rng.gen_range(0..100) < reject_pct,
                })
                .collect();
            for vote in [0.0, 0.15, 0.35, vote] {
                let graded =
                    TableClassifier::train_with_policy(design, quantizer.clone(), vote, &examples)
                        .unwrap();
                let reference = reference_policy(design, quantizer.clone(), vote, &examples);
                proptest::prop_assert_eq!(serialized(&graded), serialized(&reference));
            }
        }
    }

    #[test]
    fn graded_builder_matches_reference_at_every_pinned_row_count() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let design = TableDesign::paper_default();
        for rows in PINNED_ROWS {
            let set = random_prepared_set(&mut rng, design, rows, 64);
            for kind in 0..3 {
                let rejects = labeling(&mut rng, rows, kind, 20);
                check_graded_against_reference(&set, &rejects);
            }
        }
    }

    #[test]
    fn exact_vote_ties_set_the_bucket() {
        // 20 rows share one bucket and 3 are rejects: a reject share of
        // exactly 0.15, which passes the 0.15 vote (and not 0.35).
        let design = TableDesign {
            tables: 2,
            entries_per_table: 256,
        };
        let ex = examples_1d(&[0.5; 3], &[0.5; 17]);
        for (vote, precise) in [(0.15, true), (0.35, false)] {
            let mut c =
                TableClassifier::train_with_policy(design, quantizer_1d(), vote, &ex).unwrap();
            assert_eq!(
                c.decide(&[0.5]) == Decision::Precise,
                precise,
                "vote {vote}"
            );
            let reference = reference_policy(design, quantizer_1d(), vote, &ex);
            assert_eq!(serialized(&c), serialized(&reference), "vote {vote}");
        }
        // The same tie on the candidate grid: every fit-prefix bucket holds
        // 20 rows, 3 rejects, under every pool configuration.
        let rows = 80;
        let hashes: Vec<Vec<u32>> = (0..16)
            .map(|c| (0..rows).map(|i| (i / 20 + c) as u32).collect())
            .collect();
        let grids = CANDIDATE_LEVELS
            .iter()
            .map(|&l| {
                let q = quantizer_1d().with_levels(l);
                PreparedGrid::new(design, q, hashes.clone(), fit_len(rows))
            })
            .collect();
        let set = PreparedTableSet {
            design,
            grids,
            rows,
            fit_len: fit_len(rows),
        };
        let rejects: Vec<bool> = (0..rows).map(|i| i % 20 < 3).collect();
        check_graded_against_reference(&set, &rejects);
        let graded = GradedEnsembles::train(
            design,
            &CANDIDATE_VOTES,
            &set.grids[0].fit_occupancy,
            (set.fit_len, &reject_rows(&rejects[..set.fit_len])),
            &hashes,
        );
        assert!(graded.grades.iter().all(|g| g.iter().all(|&g| g != 1)));
        assert_eq!(graded.grades[0][0], 2, "0.0 and 0.15 pass, 0.35 does not");
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
                let truth = pack_rows(rows, (0..rows).filter(|&i| rejects[i]));
                let hits = table_hits(rows, &hashes, &candidates);
                let packed = select_greedy(tables, &truth, &hits);
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
    fn lanes_above_matches_a_lane_by_lane_compare() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let top = if rng.gen_range(0..2) == 0 { 4 } else { 128 };
            let lanes: [u8; 8] = std::array::from_fn(|_| rng.gen_range(0..top));
            let v = rng.gen_range(0..top.into());
            let expected = (0..8)
                .filter(|&i| u64::from(lanes[i]) > v)
                .fold(0, |word, i| word | 1 << i);
            assert_eq!(
                lanes_above(u64::from_le_bytes(lanes), v),
                expected,
                "{lanes:?} > {v}"
            );
        }
    }

    #[test]
    fn packed_rows_leave_the_tail_clear() {
        for n in [1, 63, 64, 65, 130] {
            let words = pack_rows(n, 0..n);
            assert_eq!(words.len(), n.div_ceil(64));
            let ones: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones as usize, n);
        }
        assert!(pack_rows(0, 0..0).is_empty());
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
