//! Mutation self-check: a test of the test.
//!
//! The conformance verdict is produced by statistics code, and statistics
//! code fails in a uniquely dangerous way — it keeps printing plausible
//! numbers. This module plants known defects into the verdict computation
//! ([`Mutation`]) and requires that an independent audit pass
//! ([`audit`]) *detects* every one of them. The audits recompute each
//! reported figure from the raw per-trial quality losses and the original
//! specification, so a defect anywhere in the judging path must disagree
//! with at least one recomputation.
//!
//! Every planted defect is detected deterministically — detection never
//! depends on where the Monte-Carlo losses happened to land — so the
//! self-check is itself a stable regression test.

use crate::report::Verdict;
use crate::{ConformError, Result};
use mithra_core::threshold::QualitySpec;
use mithra_stats::binomial::one_sided_p_value;
use mithra_stats::clopper_pearson::{lower_bound, upper_bound};
use serde::Serialize;

/// A defect deliberately planted into the verdict computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Mutation {
    /// Judge successes against `q + ε` instead of the certified `q` —
    /// a loosened target silently inflates the success count.
    TargetPlusEpsilon,
    /// Judge successes against `q − ε` — a tightened target silently
    /// deflates it.
    TargetMinusEpsilon,
    /// Report the Clopper–Pearson *upper* bound where the guarantee
    /// requires the lower bound — the classic flipped-tail mistake.
    SwappedBoundDirection,
    /// Miscount violations by one (undercount by one; overcount when
    /// there are none to drop), shifting the success count the verdict
    /// and p-value are derived from.
    ViolationCountOffByOne,
    /// Attribute one violation to the wrong pool member (or invent one
    /// when there is nothing to misattribute) — the totals stay right,
    /// but the routed mixture's per-member blame is silently wrong.
    RouteMisattribution,
}

impl Mutation {
    /// Every mutation, in reporting order.
    pub const ALL: [Mutation; 5] = [
        Mutation::TargetPlusEpsilon,
        Mutation::TargetMinusEpsilon,
        Mutation::SwappedBoundDirection,
        Mutation::ViolationCountOffByOne,
        Mutation::RouteMisattribution,
    ];

    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            Mutation::TargetPlusEpsilon => "target+eps",
            Mutation::TargetMinusEpsilon => "target-eps",
            Mutation::SwappedBoundDirection => "swapped-bound",
            Mutation::ViolationCountOffByOne => "violations-off-by-one",
            Mutation::RouteMisattribution => "route-misattribution",
        }
    }
}

/// The distilled verdict computation: everything the report derives from
/// the raw losses, in one auditable bundle.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Judgement {
    /// The quality target successes were counted against.
    pub quality_target: f64,
    /// Trials within the target.
    pub successes: u64,
    /// Trials beyond the target.
    pub violations: u64,
    /// Total trials.
    pub trials: u64,
    /// Violations attributed per pool member (the member whose error was
    /// worst in the violating trial). A binary run is the one-member
    /// mixture: a single slot holding every violation.
    pub route_violations: Vec<u64>,
    /// The Clopper–Pearson bound reported for the unseen sample.
    pub unseen_bound: f64,
    /// The exact one-sided binomial p-value against the certified rate.
    pub p_value: f64,
}

/// Computes a [`Judgement`] from raw per-trial losses over a mixture,
/// optionally with a planted [`Mutation`]: `worst_routes[i]` names the
/// pool member trial `i`'s violation is charged against (the member that
/// served with the worst error), and the per-member tallies land in
/// [`Judgement::route_violations`]. Binary accept/reject is judged as the
/// one-member mixture: every route 0, `n_routes = 1`.
///
/// The clean path (`mutation = None`) is the one the validator publishes;
/// the mutated paths exist only so [`audit`] can prove it would notice.
///
/// # Errors
///
/// Returns [`ConformError::InvalidConfig`] for empty losses, a
/// `worst_routes` slice that does not pair 1:1 with `losses`, a zero
/// `n_routes`, or an out-of-range route index; propagates statistics
/// errors.
pub fn judge(
    losses: &[f64],
    worst_routes: &[usize],
    n_routes: usize,
    spec: &QualitySpec,
    mutation: Option<Mutation>,
    epsilon: f64,
) -> Result<Judgement> {
    if losses.is_empty() {
        return Err(ConformError::InvalidConfig {
            parameter: "losses",
            constraint: "non-empty",
        });
    }
    if worst_routes.len() != losses.len() {
        return Err(ConformError::InvalidConfig {
            parameter: "worst_routes",
            constraint: "paired 1:1 with losses",
        });
    }
    if n_routes == 0 {
        return Err(ConformError::InvalidConfig {
            parameter: "n_routes",
            constraint: "at least 1",
        });
    }
    if worst_routes.iter().any(|&r| r >= n_routes) {
        return Err(ConformError::InvalidConfig {
            parameter: "worst_routes",
            constraint: "every index below n_routes",
        });
    }
    let trials = losses.len() as u64;
    let quality_target = match mutation {
        Some(Mutation::TargetPlusEpsilon) => spec.max_quality_loss + epsilon,
        Some(Mutation::TargetMinusEpsilon) => spec.max_quality_loss - epsilon,
        _ => spec.max_quality_loss,
    };
    let mut successes = losses.iter().filter(|&&l| l <= quality_target).count() as u64;
    let mut violations = trials - successes;
    let mut route_violations = vec![0u64; n_routes];
    for (&loss, &route) in losses.iter().zip(worst_routes) {
        if loss > quality_target {
            route_violations[route] += 1;
        }
    }
    if mutation == Some(Mutation::ViolationCountOffByOne) {
        violations = if violations == 0 { 1 } else { violations - 1 };
        successes = trials - violations;
    }
    if mutation == Some(Mutation::RouteMisattribution) {
        match route_violations.iter().position(|&v| v > 0) {
            Some(r) => {
                // Shift one violation to a different member — invent a
                // phantom member when the pool has only one.
                route_violations[r] -= 1;
                if route_violations.len() == 1 {
                    route_violations.push(1);
                } else {
                    let next = (r + 1) % route_violations.len();
                    route_violations[next] += 1;
                }
            }
            // Nothing to shift: invent a violation out of thin air.
            None => route_violations[0] += 1,
        }
    }
    let unseen_bound = if mutation == Some(Mutation::SwappedBoundDirection) {
        upper_bound(successes, trials, spec.confidence)?
    } else {
        lower_bound(successes, trials, spec.confidence)?
    };
    let p_value = one_sided_p_value(successes, trials, spec.success_rate)?;
    Ok(Judgement {
        quality_target,
        successes,
        violations,
        trials,
        route_violations,
        unseen_bound,
        p_value,
    })
}

/// The verdict a judgement implies at significance `test_alpha`.
pub fn verdict_for(judgement: &Judgement, spec: &QualitySpec, test_alpha: f64) -> Verdict {
    let observed = judgement.successes as f64 / judgement.trials as f64;
    if observed >= spec.success_rate {
        Verdict::Holds
    } else if judgement.p_value >= test_alpha {
        Verdict::Marginal
    } else {
        Verdict::Violated
    }
}

/// One independent audit finding: which check tripped, and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AuditFinding {
    /// The audit that tripped.
    pub check: String,
    /// Human-readable mismatch description.
    pub detail: String,
}

/// Recomputes every figure in `judgement` independently from the raw
/// losses, their per-trial violation attributions, and the original
/// spec, returning one finding per disagreement.
///
/// An empty result means the judgement is internally consistent with its
/// inputs. Each audit is bit-exact — the recomputation follows the same
/// deterministic arithmetic — so findings never depend on tolerance
/// tuning.
///
/// # Errors
///
/// Propagates statistics errors from the recomputations.
pub fn audit(
    judgement: &Judgement,
    losses: &[f64],
    worst_routes: &[usize],
    spec: &QualitySpec,
) -> Result<Vec<AuditFinding>> {
    let mut findings = Vec::new();
    // 1. The target the successes were judged against must echo the
    //    certified target bit-for-bit.
    if judgement.quality_target.to_bits() != spec.max_quality_loss.to_bits() {
        findings.push(AuditFinding {
            check: "target-echo".into(),
            detail: format!(
                "judged against q={} but the certificate says q={}",
                judgement.quality_target, spec.max_quality_loss
            ),
        });
    }
    // 2. Recount successes directly from the losses at the certified
    //    target.
    let recount = losses
        .iter()
        .filter(|&&l| l <= spec.max_quality_loss)
        .count() as u64;
    if recount != judgement.successes {
        findings.push(AuditFinding {
            check: "success-recount".into(),
            detail: format!(
                "recounted {recount} successes, judgement claims {}",
                judgement.successes
            ),
        });
    }
    // 3. Successes and violations must partition the trials.
    if judgement.successes + judgement.violations != judgement.trials {
        findings.push(AuditFinding {
            check: "count-conservation".into(),
            detail: format!(
                "{} + {} != {}",
                judgement.successes, judgement.violations, judgement.trials
            ),
        });
    }
    // 4. The reported bound must equal the one-sided *lower* bound at the
    //    judgement's own counts — a swapped tail disagrees for every
    //    0 <= k <= n.
    let expect_bound = lower_bound(judgement.successes, judgement.trials, spec.confidence)?;
    if judgement.unseen_bound.to_bits() != expect_bound.to_bits() {
        findings.push(AuditFinding {
            check: "bound-recompute".into(),
            detail: format!(
                "reported bound {} but the lower bound at {}/{} is {expect_bound}",
                judgement.unseen_bound, judgement.successes, judgement.trials
            ),
        });
    }
    // 5. The p-value must equal the exact one-sided binomial test at the
    //    judgement's own counts.
    let expect_p = one_sided_p_value(judgement.successes, judgement.trials, spec.success_rate)?;
    if judgement.p_value.to_bits() != expect_p.to_bits() {
        findings.push(AuditFinding {
            check: "p-value-recompute".into(),
            detail: format!(
                "reported p={} but the exact test gives p={expect_p}",
                judgement.p_value
            ),
        });
    }
    // 6. Re-attribute every violation from the raw (loss, worst-route)
    //    pairs at the certified target: the per-member tallies must match
    //    slot for slot (a claimed member beyond the recount's range is a
    //    phantom and must tally zero)...
    let route_count = judgement
        .route_violations
        .len()
        .max(worst_routes.iter().copied().max().map_or(0, |m| m + 1));
    let mut route_recount = vec![0u64; route_count];
    for (&loss, &route) in losses.iter().zip(worst_routes) {
        if loss > spec.max_quality_loss {
            route_recount[route] += 1;
        }
    }
    let mut claimed = judgement.route_violations.clone();
    claimed.resize(route_count, 0);
    if claimed != route_recount {
        findings.push(AuditFinding {
            check: "route-attribution".into(),
            detail: format!(
                "re-attributed per-member violations {route_recount:?}, \
                 judgement claims {:?}",
                judgement.route_violations
            ),
        });
    }
    // 7. ...and the per-member tallies must conserve the violation total.
    let route_sum: u64 = judgement.route_violations.iter().sum();
    if route_sum != judgement.violations {
        findings.push(AuditFinding {
            check: "route-conservation".into(),
            detail: format!(
                "per-member violations sum to {route_sum}, judgement \
                 claims {} in total",
                judgement.violations
            ),
        });
    }
    Ok(findings)
}

/// One mutation's self-check outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SelfCheckOutcome {
    /// The planted defect.
    pub mutation: Mutation,
    /// Whether the audits caught it (`true` is the only acceptable
    /// answer).
    pub detected: bool,
    /// Labels of the audits that tripped.
    pub tripped: Vec<String>,
    /// The verdict the defective pipeline would have published — what the
    /// audit saved us from.
    pub mutated_verdict: Verdict,
}

/// The full self-check: the clean pipeline must audit clean, and every
/// planted mutation must be detected.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SelfCheckReport {
    /// The ε used for the target perturbations.
    pub epsilon: f64,
    /// Audit findings against the unmutated judgement (must be empty).
    pub clean_findings: Vec<AuditFinding>,
    /// Per-mutation outcomes, in [`Mutation::ALL`] order.
    pub outcomes: Vec<SelfCheckOutcome>,
}

impl SelfCheckReport {
    /// True when the clean pipeline audited clean *and* every mutation
    /// was detected — the only state in which the harness vouches for its
    /// own verdicts.
    pub fn all_detected(&self) -> bool {
        self.clean_findings.is_empty() && self.outcomes.iter().all(|o| o.detected)
    }
}

/// Runs the complete mutation self-check over a mixture's raw per-trial
/// losses and violation attributions (for a binary run, the one-member
/// mixture: every route 0, `n_routes = 1`).
///
/// # Errors
///
/// Returns [`ConformError::InvalidConfig`] for a non-positive `epsilon`,
/// empty losses, or a `worst_routes`/`n_routes` mismatch, and propagates
/// statistics errors.
pub fn self_check(
    losses: &[f64],
    worst_routes: &[usize],
    n_routes: usize,
    spec: &QualitySpec,
    epsilon: f64,
    test_alpha: f64,
) -> Result<SelfCheckReport> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(ConformError::InvalidConfig {
            parameter: "epsilon",
            constraint: "finite and > 0",
        });
    }
    let clean = judge(losses, worst_routes, n_routes, spec, None, epsilon)?;
    let clean_findings = audit(&clean, losses, worst_routes, spec)?;
    let mut outcomes = Vec::with_capacity(Mutation::ALL.len());
    for mutation in Mutation::ALL {
        let judgement = judge(
            losses,
            worst_routes,
            n_routes,
            spec,
            Some(mutation),
            epsilon,
        )?;
        let findings = audit(&judgement, losses, worst_routes, spec)?;
        outcomes.push(SelfCheckOutcome {
            mutation,
            detected: !findings.is_empty(),
            tripped: findings.iter().map(|f| f.check.clone()).collect(),
            mutated_verdict: verdict_for(&judgement, spec, test_alpha),
        });
    }
    Ok(SelfCheckReport {
        epsilon,
        clean_findings,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> QualitySpec {
        QualitySpec::paper_default(0.05).unwrap()
    }

    fn losses(successes: usize, violations: usize) -> Vec<f64> {
        let mut v = vec![0.01; successes];
        v.extend(std::iter::repeat_n(0.20, violations));
        v
    }

    /// The one-member routes of a binary run: every trial on member 0.
    fn one_member(losses: &[f64]) -> Vec<usize> {
        vec![0; losses.len()]
    }

    #[test]
    fn clean_judgement_audits_clean() {
        let l = losses(95, 5);
        let r = one_member(&l);
        let j = judge(&l, &r, 1, &spec(), None, 0.005).unwrap();
        assert_eq!(j.successes, 95);
        assert_eq!(j.violations, 5);
        assert!(audit(&j, &l, &r, &spec()).unwrap().is_empty());
    }

    #[test]
    fn every_mutation_detected_on_typical_losses() {
        let l = losses(95, 5);
        let report = self_check(&l, &one_member(&l), 1, &spec(), 0.005, 0.05).unwrap();
        assert!(report.all_detected(), "{report:?}");
    }

    #[test]
    fn every_mutation_detected_with_zero_violations() {
        // The off-by-one mutation must not vanish when there is no
        // violation to drop.
        let l = losses(50, 0);
        let report = self_check(&l, &one_member(&l), 1, &spec(), 0.005, 0.05).unwrap();
        assert!(report.all_detected(), "{report:?}");
    }

    #[test]
    fn every_mutation_detected_with_all_violations() {
        let l = losses(0, 50);
        let report = self_check(&l, &one_member(&l), 1, &spec(), 0.005, 0.05).unwrap();
        assert!(report.all_detected(), "{report:?}");
    }

    #[test]
    fn target_mutations_even_without_straddling_losses() {
        // No loss falls between q and q±ε, so the success count does not
        // change — the bit-exact target echo must still catch it.
        let l = vec![0.001; 30];
        let report = self_check(&l, &one_member(&l), 1, &spec(), 1e-9, 0.05).unwrap();
        assert!(report.all_detected(), "{report:?}");
    }

    #[test]
    fn verdicts_follow_the_binomial_test() {
        let s = spec();
        let judged = |l: Vec<f64>| judge(&l, &one_member(&l), 1, &s, None, 0.005).unwrap();
        // 100/100 at a 90% certificate: holds.
        let j = judged(losses(100, 0));
        assert_eq!(verdict_for(&j, &s, 0.05), Verdict::Holds);
        // 88/100: short of 90% but consistent with it.
        let j = judged(losses(88, 12));
        assert_eq!(verdict_for(&j, &s, 0.05), Verdict::Marginal);
        // 70/100: refuted.
        let j = judged(losses(70, 30));
        assert_eq!(verdict_for(&j, &s, 0.05), Verdict::Violated);
    }

    #[test]
    fn self_check_rejects_bad_epsilon() {
        let l = losses(10, 0);
        let r = one_member(&l);
        assert!(self_check(&l, &r, 1, &spec(), 0.0, 0.05).is_err());
        assert!(self_check(&l, &r, 1, &spec(), f64::NAN, 0.05).is_err());
        assert!(judge(&[], &[], 1, &spec(), None, 0.005).is_err());
    }

    #[test]
    fn binary_judge_is_the_one_member_mixture() {
        // One slot holds every violation.
        let l = losses(95, 5);
        let j = judge(&l, &one_member(&l), 1, &spec(), None, 0.005).unwrap();
        assert_eq!(j.route_violations, vec![5]);
        assert_eq!(j.violations, 5);
    }

    #[test]
    fn routed_judge_attributes_violations_per_member() {
        // 95 successes then 5 violations, charged to members 2,1,2,0,2.
        let l = losses(95, 5);
        let mut routes = vec![0; 95];
        routes.extend_from_slice(&[2, 1, 2, 0, 2]);
        let j = judge(&l, &routes, 3, &spec(), None, 0.005).unwrap();
        assert_eq!(j.violations, 5);
        assert_eq!(j.route_violations, vec![1, 1, 3]);
        assert!(audit(&j, &l, &routes, &spec()).unwrap().is_empty());
    }

    #[test]
    fn routed_judge_validates_inputs() {
        let l = losses(4, 0);
        assert!(judge(&l, &[0, 0, 0], 1, &spec(), None, 0.005).is_err());
        assert!(judge(&l, &[0; 4], 0, &spec(), None, 0.005).is_err());
        assert!(judge(&l, &[0, 0, 0, 7], 3, &spec(), None, 0.005).is_err());
    }

    #[test]
    fn every_mutation_detected_on_routed_mixtures() {
        let l = losses(90, 10);
        let mut routes = vec![0; 90];
        routes.extend((0..10).map(|i| i % 3));
        let report = self_check(&l, &routes, 3, &spec(), 0.005, 0.05).unwrap();
        assert_eq!(report.outcomes.len(), Mutation::ALL.len());
        assert!(report.all_detected(), "{report:?}");
    }

    #[test]
    fn route_misattribution_is_detected_even_in_a_pool_of_one() {
        // The phantom-member path: shifting a violation off the only
        // member must still disagree with the re-attribution.
        for (s, v) in [(95usize, 5usize), (50, 0)] {
            let l = losses(s, v);
            let report = self_check(&l, &one_member(&l), 1, &spec(), 0.005, 0.05).unwrap();
            let outcome = report
                .outcomes
                .iter()
                .find(|o| o.mutation == Mutation::RouteMisattribution)
                .unwrap();
            assert!(outcome.detected, "{s}/{v}: {report:?}");
            assert!(
                outcome.tripped.iter().any(|c| c.starts_with("route-")),
                "misattribution must trip a route audit, got {:?}",
                outcome.tripped
            );
        }
    }
}
