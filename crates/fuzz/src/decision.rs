//! Oracle family `decision`: table classifier vs k-ary neural classifier
//! vs oracle vs precise path.
//!
//! Each case builds a fuzzed labeled dataset (a random linear score with
//! a median split, so both decision classes are always present), derives
//! per-example quality losses consistent with the labels, and runs four
//! independently implemented decision paths over it:
//!
//! * the **precise path** — recomputes each decision from the raw loss
//!   against the quality threshold;
//! * the **oracle** — [`OracleClassifier`] replaying the ground truth;
//! * the **table classifier** — trained at vote threshold `0.0`, whose
//!   documented contract is 100% recall on trained rejects (it may
//!   false-reject accepts, a counted allowance, but must never accept a
//!   trained reject);
//! * the **k-ary neural classifier** — a learned 2-class filter whose
//!   *decisions* may err (counted allowance) but whose *accounting*
//!   must not.
//!
//! A decision ledger tallies the streams the way the serving path
//! would (one pass, incremental counters); an independent audit recounts
//! everything from the recorded streams. The planted mutations corrupt
//! the ledger — an undercounted tally, a flipped recorded decision, a
//! desynchronized oracle stream — and the audit must catch every one.

use crate::gen::{rng_for, scale_size, uniform_vec};
use crate::harness::{CaseOutcome, OracleFamily};
use mithra_core::classifier::Decision;
use mithra_core::misr::InputQuantizer;
use mithra_core::neural::{KaryExample, NeuralClassifier, NeuralTrainConfig};
use mithra_core::oracle::OracleClassifier;
use mithra_core::table::{TableClassifier, TableDesign};
use mithra_core::training::TrainingExample;
use rand::Rng;

/// Quality-loss threshold separating accepts from rejects; losses are
/// generated strictly on either side of it.
const LOSS_THRESHOLD: f64 = 0.1;

/// Labels of the ledger mutations, in `run_case` index order.
pub const MUTATIONS: [&str; 3] = [
    "undercount-rejects",
    "flip-recorded-decision",
    "oracle-desync",
];

/// One path's recorded decision stream plus its single-pass tallies.
#[derive(Debug, Clone)]
struct PathLedger {
    name: &'static str,
    stream: Vec<bool>,
    reject_tally: u64,
    accept_tally: u64,
}

impl PathLedger {
    fn record(name: &'static str, stream: Vec<bool>) -> Self {
        let reject_tally = stream.iter().filter(|&&r| r).count() as u64;
        let accept_tally = stream.len() as u64 - reject_tally;
        Self {
            name,
            stream,
            reject_tally,
            accept_tally,
        }
    }
}

/// The four decision streams and their tallies for one fuzzed case.
#[derive(Debug, Clone)]
struct DecisionLedger {
    precise: PathLedger,
    oracle: PathLedger,
    table: PathLedger,
    neural: PathLedger,
    neural_mismatch_tally: u64,
}

/// Audits a ledger against the ground-truth labels: recounts every
/// tally from the recorded streams and checks the cross-path contracts.
fn audit(ledger: &DecisionLedger, labels: &[bool], outcome: &mut CaseOutcome) {
    let n = labels.len() as u64;
    for path in [
        &ledger.precise,
        &ledger.oracle,
        &ledger.table,
        &ledger.neural,
    ] {
        let recount = path.stream.iter().filter(|&&r| r).count() as u64;
        if path.reject_tally != recount {
            outcome.diverge(format!(
                "{}: reject tally {} != recount {}",
                path.name, path.reject_tally, recount
            ));
        }
        if path.reject_tally + path.accept_tally != n {
            outcome.diverge(format!(
                "{}: tallies {}+{} do not conserve {} trials",
                path.name, path.reject_tally, path.accept_tally, n
            ));
        }
    }
    if ledger.precise.stream != labels {
        outcome.diverge("precise path disagrees with ground-truth labels".to_string());
    }
    if ledger.oracle.stream != labels {
        outcome.diverge("oracle replay disagrees with ground-truth labels".to_string());
    }
    for (i, (&label, &table)) in labels.iter().zip(&ledger.table.stream).enumerate() {
        if label && !table {
            outcome.diverge(format!(
                "table classifier accepted trained reject {i} at vote threshold 0.0"
            ));
        }
    }
    let mismatches = ledger
        .neural
        .stream
        .iter()
        .zip(labels)
        .filter(|(n, l)| n != l)
        .count() as u64;
    if ledger.neural_mismatch_tally != mismatches {
        outcome.diverge(format!(
            "neural mismatch tally {} != recount {}",
            ledger.neural_mismatch_tally, mismatches
        ));
    }
}

/// The `decision` oracle family.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionFamily;

impl OracleFamily for DecisionFamily {
    fn name(&self) -> &'static str {
        "decision"
    }

    fn family_index(&self) -> u64 {
        0
    }

    fn mutation_labels(&self) -> &'static [&'static str] {
        &MUTATIONS
    }

    fn run_case(&self, seed: u64, scale: u32, mutation: Option<usize>) -> CaseOutcome {
        let mut outcome = CaseOutcome::default();
        let mut rng = rng_for(seed);
        let n = scale_size(scale, [12, 24, 48, 96]);
        let dim = rng.gen_range(2usize..=4);

        // A random linear score with a median split labels the inputs,
        // guaranteeing both classes are populated (n/2 each) — the
        // precondition every mutation's detectability rests on.
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|_| uniform_vec(&mut rng, dim, 0.0, 1.0))
            .collect();
        let w = uniform_vec(&mut rng, dim, -1.0, 1.0);
        let scores: Vec<f32> = inputs
            .iter()
            .map(|x| x.iter().zip(&w).map(|(a, b)| a * b).sum())
            .collect();
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let cut = (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
        let labels: Vec<bool> = scores.iter().map(|&s| s > cut).collect();
        if !labels.iter().any(|&l| l) || labels.iter().all(|&l| l) {
            // Degenerate median split (tied scores): skip rather than
            // fuzz on a case whose mutations cannot all be detected.
            outcome.allow("degenerate-median-split");
            return outcome;
        }

        // Losses consistent with the labels: rejects lose above the
        // threshold, accepts below it. The precise path recomputes its
        // decisions from these raw losses alone.
        let losses: Vec<f64> = labels
            .iter()
            .map(|&l| {
                if l {
                    rng.gen_range(LOSS_THRESHOLD + 0.01..1.0)
                } else {
                    rng.gen_range(0.0..LOSS_THRESHOLD - 0.01)
                }
            })
            .collect();
        let precise_stream: Vec<bool> = losses.iter().map(|&l| l > LOSS_THRESHOLD).collect();

        let oracle = OracleClassifier::from_rejects(labels.clone());
        let mut oracle_stream: Vec<bool> = oracle.rejects().to_vec();

        let examples: Vec<TrainingExample> = inputs
            .iter()
            .zip(&labels)
            .map(|(x, &reject)| TrainingExample {
                input: x.clone(),
                reject,
            })
            .collect();
        let design = TableDesign {
            tables: 4,
            entries_per_table: 1024,
        };
        let quantizer = InputQuantizer::new(vec![0.0; dim], vec![1.0; dim]);
        let mut table = match TableClassifier::train_with_policy(design, quantizer, 0.0, &examples)
        {
            Ok(t) => t,
            Err(e) => {
                outcome.diverge(format!("table training failed: {e}"));
                return outcome;
            }
        };
        let table_stream: Vec<bool> = inputs
            .iter()
            .map(|x| table.decide(x) == Decision::Precise)
            .collect();

        let kary: Vec<KaryExample> = inputs
            .iter()
            .zip(&labels)
            .map(|(x, &l)| KaryExample {
                input: x.clone(),
                class: usize::from(l),
            })
            .collect();
        let config = NeuralTrainConfig {
            hidden_candidates: vec![4],
            epochs: 12,
            validation_fraction: 0.2,
            accuracy_tolerance: 0.01,
            seed,
        };
        let mut neural = match NeuralClassifier::train_classes(dim, &kary, 2, &config, Some(1)) {
            Ok(c) => c,
            Err(e) => {
                outcome.diverge(format!("neural training failed: {e}"));
                return outcome;
            }
        };
        let neural_stream: Vec<bool> = inputs.iter().map(|x| neural.decide_class(x) == 1).collect();

        // Single-pass tallies, the way the serving path accounts.
        let mut neural_mismatch_tally = 0u64;
        for (nd, &l) in neural_stream.iter().zip(&labels) {
            if *nd != l {
                neural_mismatch_tally += 1;
            }
        }
        let mut table_ledger = PathLedger::record("table", table_stream);
        let oracle_tallies_before_mutation = PathLedger::record("oracle", oracle_stream.clone());

        // Plant the ledger mutation. Each corrupts the single-pass
        // accounting side only; the audit's independent recount from
        // the recorded streams (and the ground-truth labels) must
        // catch it.
        match mutation {
            Some(0) => {
                // Undercount the table's rejects by one. The median
                // split guarantees >= 1 trained reject, and vote
                // threshold 0.0 guarantees the table rejects it.
                table_ledger.reject_tally -= 1;
                table_ledger.accept_tally += 1;
            }
            Some(1) => {
                // Flip the first recorded oracle decision but keep the
                // tallies computed before the flip.
                oracle_stream[0] = !oracle_stream[0];
            }
            Some(2) => {
                // Desynchronize the oracle stream by one position —
                // a classic off-by-one replay bug. Both classes are
                // present, so a rotation always changes the stream.
                oracle_stream.rotate_right(1);
            }
            _ => {}
        }
        let oracle_ledger = PathLedger {
            stream: oracle_stream,
            ..oracle_tallies_before_mutation
        };

        let ledger = DecisionLedger {
            precise: PathLedger::record("precise", precise_stream),
            oracle: oracle_ledger,
            table: table_ledger,
            neural: PathLedger::record("neural", neural_stream.clone()),
            neural_mismatch_tally,
        };
        audit(&ledger, &labels, &mut outcome);

        // Documented allowances: the learned paths may disagree with
        // the oracle in the tolerated directions.
        for _ in 0..neural_mismatch_tally {
            outcome.allow("neural-oracle-mismatch");
        }
        for (&t, &l) in ledger.table.stream.iter().zip(&labels) {
            if t && !l {
                outcome.allow("table-false-reject");
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_SCALE;

    #[test]
    fn clean_cases_have_no_divergence() {
        let fam = DecisionFamily;
        for i in 0..10 {
            let out = fam.run_case(crate::harness::family_seed_base(0) + i, DEFAULT_SCALE, None);
            assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        }
    }

    #[test]
    fn every_mutation_is_detected_at_every_scale() {
        let fam = DecisionFamily;
        for scale in 0..=DEFAULT_SCALE {
            for (m, label) in MUTATIONS.iter().enumerate() {
                let out = fam.run_case(crate::harness::family_seed_base(0) + 3, scale, Some(m));
                assert!(
                    !out.divergences.is_empty(),
                    "mutation {label} missed at scale {scale}"
                );
            }
        }
    }

    #[test]
    fn cases_replay_deterministically() {
        let fam = DecisionFamily;
        let seed = crate::harness::family_seed_base(0) + 11;
        let a = fam.run_case(seed, 1, None);
        let b = fam.run_case(seed, 1, None);
        assert_eq!(a.divergences, b.divergences);
        assert_eq!(a.allowances, b.allowances);
    }
}
