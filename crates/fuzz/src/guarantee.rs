//! Oracle family `guarantee`: statistical-accounting invariants of the
//! conformance judge.
//!
//! Each case fuzzes a routed conformance instance — trial losses around
//! a fuzzed quality target, per-trial worst-route attributions, a fuzzed
//! [`QualitySpec`] — and checks:
//!
//! * the clean judgement passes its own bit-exact audit
//!   ([`audit`] returns no findings);
//! * violation counts conserve: `successes + violations == trials` and
//!   the per-member `route_violations` sum back to `violations`;
//! * the judgement is **stable under representation-preserving input
//!   permutations**: shuffling the `(loss, route)` pairs must reproduce
//!   the identical [`Judgement`](mithra_conform::selfcheck::Judgement) (every field derives from counts);
//! * Clopper–Pearson bounds at the fuzzed `(k, n)` bracket the point
//!   estimate and are monotone in `k`;
//! * the library's own mutation self-check
//!   ([`self_check`]) detects all five of its planted defects.
//!
//! The mutation pass plants `mithra_conform::Mutation`'s five defects
//! directly into the judging path and requires the independent audit to
//! flag every one — the same discipline `conform::selfcheck` applies,
//! here driven across fuzzed rather than hand-picked inputs.

use crate::gen::{rng_for, scale_size};
use crate::harness::{CaseOutcome, OracleFamily};
use mithra_conform::selfcheck::{audit, judge, self_check, Mutation};
use mithra_core::threshold::QualitySpec;
use mithra_stats::clopper_pearson::{lower_bound, upper_bound};
use rand::seq::SliceRandom;
use rand::Rng;

/// Audit-significance level for verdicts inside the self-check.
const TEST_ALPHA: f64 = 0.05;

/// Target shift used when planting the epsilon mutations.
const EPSILON: f64 = 1e-3;

/// Labels of the planted mutations: exactly
/// [`mithra_conform::Mutation::ALL`], in order.
pub const MUTATIONS: [&str; 5] = [
    "target+eps",
    "target-eps",
    "swapped-bound",
    "violations-off-by-one",
    "route-misattribution",
];

/// The `guarantee` oracle family.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuaranteeFamily;

impl OracleFamily for GuaranteeFamily {
    fn name(&self) -> &'static str {
        "guarantee"
    }

    fn family_index(&self) -> u64 {
        1
    }

    fn mutation_labels(&self) -> &'static [&'static str] {
        &MUTATIONS
    }

    fn run_case(&self, seed: u64, scale: u32, mutation: Option<usize>) -> CaseOutcome {
        let mut outcome = CaseOutcome::default();
        let mut rng = rng_for(seed);
        let trials = scale_size(scale, [16, 32, 80, 160]);
        let n_routes = rng.gen_range(1usize..=4);
        let q = rng.gen_range(0.02f64..0.20);
        let confidence = *[0.90, 0.95, 0.99]
            .get(rng.gen_range(0usize..3))
            .expect("index in range");
        let success_rate = *[0.5, 0.8, 0.9]
            .get(rng.gen_range(0usize..3))
            .expect("index in range");
        let spec = match QualitySpec::new(q, confidence, success_rate) {
            Ok(s) => s,
            Err(e) => {
                outcome.diverge(format!("spec construction failed: {e}"));
                return outcome;
            }
        };

        let violation_p = rng.gen_range(0.0f64..0.4);
        let losses: Vec<f64> = (0..trials)
            .map(|_| {
                if rng.gen_range(0.0f64..1.0) < violation_p {
                    rng.gen_range(q + 1e-6..1.0)
                } else {
                    rng.gen_range(0.0..q)
                }
            })
            .collect();
        let routes: Vec<usize> = (0..trials).map(|_| rng.gen_range(0..n_routes)).collect();

        if let Some(mi) = mutation {
            // Plant the library's own mutation into the judging path;
            // the independent audit must flag it.
            let mutated = Mutation::ALL[mi];
            match judge(&losses, &routes, n_routes, &spec, Some(mutated), EPSILON) {
                Ok(judgement) => match audit(&judgement, &losses, &routes, &spec) {
                    Ok(findings) => {
                        for f in findings {
                            outcome.diverge(format!("audit finding: {}", f.check));
                        }
                    }
                    Err(e) => outcome.diverge(format!("audit errored: {e}")),
                },
                Err(e) => outcome.diverge(format!("mutated judge errored: {e}")),
            }
            return outcome;
        }

        let judgement = match judge(&losses, &routes, n_routes, &spec, None, EPSILON) {
            Ok(j) => j,
            Err(e) => {
                outcome.diverge(format!("judge failed: {e}"));
                return outcome;
            }
        };

        // 1. The clean judgement must pass its own bit-exact audit.
        match audit(&judgement, &losses, &routes, &spec) {
            Ok(findings) => {
                for f in findings {
                    outcome.diverge(format!("clean judgement failed audit: {}", f.check));
                }
            }
            Err(e) => outcome.diverge(format!("audit errored: {e}")),
        }

        // 2. Count conservation.
        if judgement.successes + judgement.violations != judgement.trials {
            outcome.diverge(format!(
                "successes {} + violations {} != trials {}",
                judgement.successes, judgement.violations, judgement.trials
            ));
        }
        if judgement.route_violations.iter().sum::<u64>() != judgement.violations {
            outcome.diverge("route_violations do not sum to violations".to_string());
        }
        if judgement.route_violations.len() != n_routes {
            outcome.diverge("route_violations length != n_routes".to_string());
        }

        // 3. Permutation stability: shuffling the (loss, route) pairs
        // must reproduce the identical judgement.
        let mut pairs: Vec<(f64, usize)> =
            losses.iter().copied().zip(routes.iter().copied()).collect();
        pairs.shuffle(&mut rng);
        let (p_losses, p_routes): (Vec<f64>, Vec<usize>) = pairs.into_iter().unzip();
        match judge(&p_losses, &p_routes, n_routes, &spec, None, EPSILON) {
            Ok(permuted) => {
                if permuted != judgement {
                    outcome.diverge("judgement changed under input permutation".to_string());
                }
            }
            Err(e) => outcome.diverge(format!("permuted judge failed: {e}")),
        }

        // 4. Clopper-Pearson sanity at the fuzzed (k, n).
        let (k, n) = (judgement.successes, judgement.trials);
        let point = k as f64 / n as f64;
        match (
            lower_bound(k, n, spec.confidence),
            upper_bound(k, n, spec.confidence),
        ) {
            (Ok(lo), Ok(hi)) => {
                if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) {
                    outcome.diverge(format!("CP bounds escape [0,1]: {lo}, {hi}"));
                }
                if lo > point + 1e-12 || hi < point - 1e-12 {
                    outcome.diverge(format!("CP bounds [{lo}, {hi}] do not bracket {point}"));
                }
                if judgement.unseen_bound != lo {
                    outcome.diverge("judgement bound != recomputed lower bound".to_string());
                }
                if k < n {
                    match (
                        lower_bound(k + 1, n, spec.confidence),
                        upper_bound(k + 1, n, spec.confidence),
                    ) {
                        (Ok(lo2), Ok(hi2)) => {
                            if lo2 < lo || hi2 < hi {
                                outcome.diverge("CP bounds not monotone in successes".to_string());
                            }
                        }
                        _ => outcome.diverge("CP bound at k+1 errored".to_string()),
                    }
                }
            }
            _ => outcome.diverge(format!("CP bounds errored at k={k}, n={n}")),
        }

        // 5. The library's own planted-mutation discipline must hold on
        // this fuzzed instance.
        match self_check(&losses, &routes, n_routes, &spec, EPSILON, TEST_ALPHA) {
            Ok(report) => {
                if !report.all_detected() {
                    outcome.diverge("self_check missed a mutation".to_string());
                }
                if !report.clean_findings.is_empty() {
                    outcome.diverge("self_check flagged the clean judgement".to_string());
                }
            }
            Err(e) => outcome.diverge(format!("self_check failed: {e}")),
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{family_seed_base, DEFAULT_SCALE};

    #[test]
    fn clean_cases_have_no_divergence() {
        let fam = GuaranteeFamily;
        for i in 0..25 {
            let out = fam.run_case(family_seed_base(1) + i, DEFAULT_SCALE, None);
            assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        }
    }

    #[test]
    fn labels_mirror_conform_mutations() {
        for (label, mutation) in MUTATIONS.iter().zip(Mutation::ALL) {
            assert_eq!(*label, mutation.label());
        }
    }

    #[test]
    fn every_mutation_is_detected_at_every_scale() {
        let fam = GuaranteeFamily;
        for scale in 0..=DEFAULT_SCALE {
            for (m, label) in MUTATIONS.iter().enumerate() {
                let out = fam.run_case(family_seed_base(1) + 7, scale, Some(m));
                assert!(
                    !out.divergences.is_empty(),
                    "mutation {label} missed at scale {scale}"
                );
            }
        }
    }
}
