//! The Monte-Carlo guarantee validator.
//!
//! Draws `M` unseen datasets from the conformance seed space, runs each
//! through the full system simulator under the mixture's deployed router,
//! and tests the observed success fraction against the certified
//! `(success-rate, confidence)` pair.

use crate::report::{GuaranteeReport, TrialRecord};
use crate::selfcheck::{judge, verdict_for};
use crate::{ConformError, Result, CONFORM_SEED_BASE};
use mithra_axbench::dataset::DatasetScale;
use mithra_core::parallel::par_map_indexed;
use mithra_core::profile::DatasetProfile;
use mithra_core::route::Mixture;
use mithra_core::threshold::QualitySpec;
use mithra_sim::system::{run_routed, RunResult, SimOptions};

/// Configuration for one conformance run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidatorConfig {
    /// Number of unseen Monte-Carlo trials `M`.
    pub trials: usize,
    /// First dataset seed; trial `i` uses `seed_base + i`. Defaults to
    /// [`CONFORM_SEED_BASE`], which no other subsystem draws from.
    pub seed_base: u64,
    /// Dataset scale for the generated trials.
    pub scale: DatasetScale,
    /// Worker threads for the trial fan-out (`None` = all cores). The
    /// report is bit-identical at every setting.
    pub threads: Option<usize>,
    /// Confidence of the harness's own binomial test: a certificate is
    /// declared [`Verdict::Violated`](crate::report::Verdict::Violated)
    /// only when the exact test rejects at significance
    /// `1 - test_confidence`.
    pub test_confidence: f64,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        ValidatorConfig {
            trials: 100,
            seed_base: CONFORM_SEED_BASE,
            scale: DatasetScale::Full,
            threads: None,
            test_confidence: 0.95,
        }
    }
}

impl ValidatorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConformError::InvalidConfig`] when `trials` is zero or
    /// `test_confidence` is outside `(0, 1)`.
    pub fn check(&self) -> Result<()> {
        if self.trials == 0 {
            return Err(ConformError::InvalidConfig {
                parameter: "trials",
                constraint: "at least 1",
            });
        }
        if !self.test_confidence.is_finite()
            || self.test_confidence <= 0.0
            || self.test_confidence >= 1.0
        {
            return Err(ConformError::InvalidConfig {
                parameter: "test_confidence",
                constraint: "strictly between 0 and 1",
            });
        }
        Ok(())
    }
}

/// Validates a certified guarantee on `config.trials` unseen datasets
/// generated on the fly from the conformance seed space.
///
/// `mixture` is a `&Compiled` (validated as its pool of one) or a
/// `&RoutedCompiled`. Each trial profiles a fresh dataset under every
/// pool member, simulates it under the deployed router, and scores final
/// application quality of the mixed output stream. Violations are charged
/// against the serving member with the worst error, so the report's
/// `route_violations` says *which* approximator broke a trial, not just
/// that one broke. The fan-out runs under [`par_map_indexed`] and the
/// fold walks trial indices in order, so the report is bit-identical at
/// any thread count.
///
/// # Errors
///
/// Returns [`ConformError::InvalidConfig`] for a bad configuration and
/// propagates simulator and statistics errors.
pub fn validate<'a>(
    mixture: impl Into<Mixture<'a>>,
    spec: &QualitySpec,
    config: &ValidatorConfig,
) -> Result<GuaranteeReport> {
    config.check()?;
    let mixture = mixture.into();
    let (accurate, cheaper) = mixture.members().split_last().expect("pools are non-empty");
    let trial_results = par_map_indexed(config.trials, config.threads, |i| {
        let dataset = accurate.dataset(config.seed_base + i as u64, config.scale);
        let mut profiles: Vec<DatasetProfile> = cheaper
            .iter()
            .map(|m| DatasetProfile::collect(m, dataset.clone()))
            .collect();
        profiles.push(DatasetProfile::collect(accurate, dataset));
        trial(mixture, &profiles.iter().collect::<Vec<_>>())
    });
    score(mixture, spec, config, trial_results)
}

/// Validates a certified guarantee on pre-collected unseen profiles —
/// the artifact-cache-backed path
/// ([`mithra_core::session::profile_validation`] and
/// [`mithra_core::session::profile_pool_validation`] with the
/// conformance seed base produce and cache exactly these).
///
/// `profiles[m][i]` is pool member `m`'s profile of unseen dataset `i`;
/// a binary artifact passes its one-member table,
/// `std::slice::from_ref(&profiles)`. `config.trials` and
/// `config.seed_base` are ignored; the profiles define both. Scoring and
/// determinism are identical to [`validate`].
///
/// # Errors
///
/// Returns [`ConformError::InvalidConfig`] for an empty profile table, a
/// table that does not hold one equally long list per pool member, or a
/// bad `test_confidence`, and propagates simulator and statistics errors.
pub fn validate_profiles<'a>(
    mixture: impl Into<Mixture<'a>>,
    spec: &QualitySpec,
    profiles: &[Vec<DatasetProfile>],
    config: &ValidatorConfig,
) -> Result<GuaranteeReport> {
    let mixture = mixture.into();
    let trials = profiles.first().map_or(0, Vec::len);
    if profiles.len() != mixture.members().len() || profiles.iter().any(|p| p.len() != trials) {
        return Err(ConformError::InvalidConfig {
            parameter: "profiles",
            constraint: "one equally long profile list per pool member",
        });
    }
    ValidatorConfig { trials, ..*config }.check()?;
    let trial_results = par_map_indexed(trials, config.threads, |i| {
        trial(mixture, &profiles.iter().map(|p| &p[i]).collect::<Vec<_>>())
    });
    score(mixture, spec, config, trial_results)
}

/// One trial's dataset seed, simulated run, and the member its violation
/// is charged against.
type TrialResult = std::result::Result<(u64, RunResult, usize), mithra_sim::SimError>;

/// One trial: simulate a dataset, given every member's profile of it,
/// under the mixture's deployed router. The binary pool of one charges
/// every violation to member 0.
fn trial(mixture: Mixture<'_>, members: &[&DatasetProfile]) -> TrialResult {
    let result = run_routed(mixture, members, &SimOptions::default())?;
    Ok((members[0].dataset().seed(), result.run, result.worst_member))
}

/// Folds per-trial results (in trial-index order) into the report.
fn score(
    mixture: Mixture<'_>,
    spec: &QualitySpec,
    config: &ValidatorConfig,
    trial_results: Vec<TrialResult>,
) -> Result<GuaranteeReport> {
    let mut trial_records = Vec::with_capacity(trial_results.len());
    let mut losses = Vec::with_capacity(trial_results.len());
    let mut worst_routes = Vec::with_capacity(trial_results.len());
    let mut invocation_rate_sum = 0.0;
    for trial in trial_results {
        let (dataset_seed, result, worst_route) = trial?;
        losses.push(result.quality_loss);
        worst_routes.push(worst_route);
        invocation_rate_sum += result.invocation_rate();
        trial_records.push(TrialRecord {
            dataset_seed,
            quality_loss: result.quality_loss,
            invocation_rate: result.invocation_rate(),
            met_target: result.quality_loss <= spec.max_quality_loss,
            worst_route,
        });
    }
    // The published numbers come from the same judge() the mutation
    // self-check exercises: there is exactly one verdict code path,
    // binary included (a one-member mixture).
    let n_routes = mixture.members().len();
    let judgement = judge(&losses, &worst_routes, n_routes, spec, None, f64::EPSILON)?;
    let verdict = verdict_for(&judgement, spec, 1.0 - config.test_confidence);
    debug_assert_eq!(
        judgement.successes,
        trial_records.iter().filter(|t| t.met_target).count() as u64
    );
    Ok(GuaranteeReport {
        benchmark: mixture.members()[0].benchmark().name().to_string(),
        quality_target: spec.max_quality_loss,
        target_rate: spec.success_rate,
        confidence: spec.confidence.level(),
        certified_rate: mixture.threshold().certified_rate,
        trials: judgement.trials,
        successes: judgement.successes,
        observed_rate: judgement.successes as f64 / judgement.trials as f64,
        unseen_lower_bound: judgement.unseen_bound,
        p_value: judgement.p_value,
        verdict,
        mean_invocation_rate: invocation_rate_sum / trial_records.len() as f64,
        route_violations: judgement.route_violations,
        trial_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(ValidatorConfig::default().check().is_ok());
        assert!(ValidatorConfig {
            trials: 0,
            ..ValidatorConfig::default()
        }
        .check()
        .is_err());
        assert!(ValidatorConfig {
            test_confidence: 1.0,
            ..ValidatorConfig::default()
        }
        .check()
        .is_err());
        assert!(ValidatorConfig {
            test_confidence: f64::NAN,
            ..ValidatorConfig::default()
        }
        .check()
        .is_err());
    }
}
