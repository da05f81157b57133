//! The differential-fuzzing harness: oracle families, seed scheduling,
//! mutation discipline and failure minimization.
//!
//! An [`OracleFamily`] packages one differential comparison — e.g.
//! "table classifier vs k-ary neural classifier vs oracle vs precise
//! path" — behind a single `run_case(seed, scale, mutation)` entry
//! point. The harness drives each family two ways:
//!
//! * **Clean pass** — `budget` seeded cases with no mutation. Every
//!   reported divergence is a real disagreement between independently
//!   implemented paths and fails the run. Tolerated, *documented*
//!   deviations (a degenerate median split, a table false reject) are
//!   counted as [`CaseOutcome::allowances`], never silently dropped.
//! * **Mutation pass** — for each planted mutation the family declares,
//!   `mutation_budget` cases run with that defect injected into exactly
//!   one side of the comparison. The checkers must flag *every* such
//!   case; a mutated oracle that goes unnoticed means the comparison
//!   has no teeth (the same discipline as `mithra_conform::selfcheck`).
//!
//! Failures minimize by rerunning the same seed at smaller
//! [`scale`](OracleFamily::run_case)s; the smallest still-failing
//! `(seed, scale)` pair is the replay token printed in the report
//! (`mithra-fuzz --family <name> --replay <seed> --scale <s>`).

use mithra_core::seeds::{FUZZ_FAMILY_STRIDE, FUZZ_SEED_BASE};
use std::collections::BTreeMap;

/// Largest generator scale; the clean and mutation passes run here.
/// Scale `0` is the smallest case a family can generate — minimization
/// walks down from [`DEFAULT_SCALE`] toward it.
pub const DEFAULT_SCALE: u32 = 3;

/// Default number of clean cases per family (the acceptance floor).
pub const DEFAULT_BUDGET: u64 = 1000;

/// Default number of cases per planted mutation.
pub const DEFAULT_MUTATION_BUDGET: u64 = 25;

/// Recorded failures are capped at this many per family so a systemic
/// divergence does not flood the report; the clean pass stops early
/// once the cap is hit (the report says so).
pub const MAX_RECORDED_FAILURES: usize = 8;

/// The outcome of one fuzzed case.
#[derive(Debug, Default, Clone)]
pub struct CaseOutcome {
    /// Disagreements between the compared paths. Empty on a clean case;
    /// non-empty when a planted mutation was *detected*.
    pub divergences: Vec<String>,
    /// Tolerated, documented deviations — counted, never fatal.
    pub allowances: Vec<(&'static str, u64)>,
}

impl CaseOutcome {
    /// Records a divergence.
    pub fn diverge(&mut self, message: String) {
        self.divergences.push(message);
    }

    /// Counts a tolerated deviation under a documented label.
    pub fn allow(&mut self, label: &'static str) {
        self.allowances.push((label, 1));
    }
}

/// One differential comparison the harness can drive.
pub trait OracleFamily {
    /// Stable family name (CLI `--family` argument).
    fn name(&self) -> &'static str;

    /// Index into the fuzz seed window: case `i` of this family uses
    /// seed `FUZZ_SEED_BASE + family_index * FUZZ_FAMILY_STRIDE + i`.
    fn family_index(&self) -> u64;

    /// Labels of the planted mutations, in the order `run_case`'s
    /// `mutation` index selects them.
    fn mutation_labels(&self) -> &'static [&'static str];

    /// Runs one seeded case. `scale` bounds the generated sizes
    /// (`0` smallest, [`DEFAULT_SCALE`] largest); `mutation` plants the
    /// indexed defect into one side of the comparison.
    fn run_case(&self, seed: u64, scale: u32, mutation: Option<usize>) -> CaseOutcome;
}

/// First seed of a family's window inside the fuzz partition.
pub fn family_seed_base(family_index: u64) -> u64 {
    FUZZ_SEED_BASE + family_index * FUZZ_FAMILY_STRIDE
}

/// A clean-pass divergence, minimized to its replay token.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Seed to replay.
    pub seed: u64,
    /// Smallest scale at which the seed still diverges.
    pub scale: u32,
    /// Divergences reported at that scale.
    pub divergences: Vec<String>,
}

/// Detection tally for one planted mutation.
#[derive(Debug, Clone)]
pub struct MutationResult {
    /// The mutation's label.
    pub label: &'static str,
    /// Cases run with the defect planted.
    pub cases: u64,
    /// Cases whose checkers flagged the defect.
    pub detected: u64,
}

/// The harness's verdict on one family.
#[derive(Debug, Clone)]
pub struct FamilyReport {
    /// Family name.
    pub name: &'static str,
    /// Clean cases executed.
    pub cases_run: u64,
    /// Minimized clean-pass divergences (empty on a passing run).
    pub failures: Vec<Failure>,
    /// Whether the clean pass stopped early at the failure cap.
    pub truncated: bool,
    /// Tolerated-deviation counts accumulated over the clean pass.
    pub allowances: BTreeMap<&'static str, u64>,
    /// Per-mutation detection tallies.
    pub mutations: Vec<MutationResult>,
}

impl FamilyReport {
    /// `true` when the clean pass saw no divergence and every planted
    /// mutation was detected on every case.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.mutations.iter().all(|m| m.detected == m.cases)
    }
}

/// Reruns a diverging seed at successively smaller scales and returns
/// the smallest scale that still diverges (with its divergences).
fn minimize(family: &dyn OracleFamily, seed: u64, full: CaseOutcome) -> Failure {
    for scale in 0..DEFAULT_SCALE {
        let outcome = family.run_case(seed, scale, None);
        if !outcome.divergences.is_empty() {
            return Failure {
                seed,
                scale,
                divergences: outcome.divergences,
            };
        }
    }
    Failure {
        seed,
        scale: DEFAULT_SCALE,
        divergences: full.divergences,
    }
}

/// Drives one family through its clean and mutation passes.
pub fn run_family(family: &dyn OracleFamily, budget: u64, mutation_budget: u64) -> FamilyReport {
    let base = family_seed_base(family.family_index());
    let mut failures = Vec::new();
    let mut truncated = false;
    let mut allowances: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut cases_run = 0;

    for i in 0..budget {
        let seed = base + i;
        let outcome = family.run_case(seed, DEFAULT_SCALE, None);
        cases_run += 1;
        for (label, n) in &outcome.allowances {
            *allowances.entry(label).or_insert(0) += n;
        }
        if !outcome.divergences.is_empty() {
            failures.push(minimize(family, seed, outcome));
            if failures.len() >= MAX_RECORDED_FAILURES {
                truncated = true;
                break;
            }
        }
    }

    let mut mutations = Vec::new();
    for (mi, label) in family.mutation_labels().iter().enumerate() {
        let mut detected = 0;
        for i in 0..mutation_budget {
            let outcome = family.run_case(base + i, DEFAULT_SCALE, Some(mi));
            if !outcome.divergences.is_empty() {
                detected += 1;
            }
        }
        mutations.push(MutationResult {
            label,
            cases: mutation_budget,
            detected,
        });
    }

    FamilyReport {
        name: family.name(),
        cases_run,
        failures,
        truncated,
        allowances,
        mutations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy family: compares `x + x` against `2 * x`; its single
    /// mutation breaks the doubling side.
    struct Doubling;

    impl OracleFamily for Doubling {
        fn name(&self) -> &'static str {
            "doubling"
        }
        fn family_index(&self) -> u64 {
            9
        }
        fn mutation_labels(&self) -> &'static [&'static str] {
            &["off-by-one"]
        }
        fn run_case(&self, seed: u64, _scale: u32, mutation: Option<usize>) -> CaseOutcome {
            let mut outcome = CaseOutcome::default();
            let doubled = if mutation == Some(0) {
                2 * seed + 1
            } else {
                2 * seed
            };
            if seed + seed != doubled {
                outcome.diverge(format!("{seed}: sum != double"));
            }
            outcome
        }
    }

    #[test]
    fn clean_pass_is_clean_and_mutation_is_caught() {
        let report = run_family(&Doubling, 50, 10);
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.cases_run, 50);
        assert_eq!(report.mutations[0].detected, 10);
    }

    #[test]
    fn family_seeds_start_inside_the_fuzz_window() {
        assert_eq!(family_seed_base(0), FUZZ_SEED_BASE);
        assert_eq!(family_seed_base(2), FUZZ_SEED_BASE + 2 * FUZZ_FAMILY_STRIDE);
    }

    /// A family that always diverges — minimization must walk to scale 0
    /// and the failure cap must truncate the clean pass.
    struct AlwaysBroken;

    impl OracleFamily for AlwaysBroken {
        fn name(&self) -> &'static str {
            "broken"
        }
        fn family_index(&self) -> u64 {
            9
        }
        fn mutation_labels(&self) -> &'static [&'static str] {
            &[]
        }
        fn run_case(&self, seed: u64, scale: u32, _mutation: Option<usize>) -> CaseOutcome {
            let mut outcome = CaseOutcome::default();
            outcome.diverge(format!("seed {seed} scale {scale}"));
            outcome
        }
    }

    #[test]
    fn failures_minimize_to_scale_zero_and_cap() {
        let report = run_family(&AlwaysBroken, 100, 0);
        assert!(!report.passed());
        assert!(report.truncated);
        assert_eq!(report.failures.len(), MAX_RECORDED_FAILURES);
        assert!(report.failures.iter().all(|f| f.scale == 0));
    }

    /// A family whose checker has no teeth: the planted mutation is
    /// never flagged, so the report must fail.
    struct Toothless;

    impl OracleFamily for Toothless {
        fn name(&self) -> &'static str {
            "toothless"
        }
        fn family_index(&self) -> u64 {
            9
        }
        fn mutation_labels(&self) -> &'static [&'static str] {
            &["ignored"]
        }
        fn run_case(&self, _seed: u64, _scale: u32, _mutation: Option<usize>) -> CaseOutcome {
            CaseOutcome::default()
        }
    }

    #[test]
    fn missed_mutations_fail_the_family() {
        let report = run_family(&Toothless, 5, 5);
        assert!(report.failures.is_empty());
        assert!(!report.passed(), "undetected mutation must fail");
    }
}
