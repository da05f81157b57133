//! The Monte-Carlo guarantee validator.
//!
//! Draws `M` unseen datasets from the conformance seed space, runs each
//! through the deployed system — the mixture's router decides every
//! invocation first, and each pool member runs only on the invocations
//! routed to it — and tests the observed success fraction against the
//! certified `(success-rate, confidence)` pair.

use crate::report::{GuaranteeReport, TrialRecord};
use crate::selfcheck::{judge, verdict_for};
use crate::{ConformError, Result, CONFORM_SEED_BASE};
use mithra_axbench::dataset::{DatasetScale, OutputBuffer};
use mithra_core::function::InvokeScratch;
use mithra_core::parallel::par_map_indexed;
use mithra_core::profile::{approx_blocks, score_mixture, DatasetProfile};
use mithra_core::route::{Mixture, RouteChoice};
use mithra_core::threshold::QualitySpec;
use mithra_sim::system::{run_routed, SimOptions};
use mithra_sim::SimError;

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
/// `&RoutedCompiled`. Each trial runs the deployed system on a fresh
/// dataset: a fresh copy of the mixture's router decides every
/// invocation, the precise function runs once per invocation, each pool
/// member's accelerator runs only on the invocations routed to it, and
/// final application quality of the mixed output stream is scored
/// against the all-precise run. Violations are charged against the
/// serving member with the worst error, so the report's
/// `route_violations` says *which* approximator broke a trial, not just
/// that one broke. The report is bit-identical to [`validate_profiles`]
/// over the same seeds' profiles. The fan-out runs under
/// [`par_map_indexed`] and the fold walks trial indices in order, so the
/// report is bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`ConformError::InvalidConfig`] for a bad configuration and
/// propagates scoring and statistics errors.
pub fn validate<'a>(
    mixture: impl Into<Mixture<'a>>,
    spec: &QualitySpec,
    config: &ValidatorConfig,
) -> Result<GuaranteeReport> {
    config.check()?;
    let mixture = mixture.into();
    let trial_results = par_map_indexed(config.trials, config.threads, |i| {
        deployed_trial(mixture, config.seed_base + i as u64, config.scale)
    });
    score(mixture, spec, config, trial_results)
}

/// Validates a certified guarantee on pre-collected unseen profiles —
/// the simulator path over the artifact-cache-backed profiles
/// ([`mithra_core::session::profile_validation`] and
/// [`mithra_core::session::profile_pool_validation`] with the
/// conformance seed base produce and cache exactly these).
///
/// `profiles[m][i]` is pool member `m`'s profile of unseen dataset `i`;
/// a binary artifact passes its one-member table,
/// `std::slice::from_ref(&profiles)`. `config.trials` and
/// `config.seed_base` are ignored; the profiles define both. Each trial
/// runs [`run_routed`] over its full profiles, and the fold and verdict
/// are [`validate`]'s; the conformance tests pin the two reports equal,
/// byte for byte, over the same seeds.
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
        let members: Vec<&DatasetProfile> = profiles.iter().map(|p| &p[i]).collect();
        let result = run_routed(mixture, &members, &SimOptions::default())?;
        Ok(TrialOutcome {
            dataset_seed: members[0].dataset().seed(),
            quality_loss: result.run.quality_loss,
            invocation_rate: result.run.invocation_rate(),
            worst_route: result.worst_member,
        })
    });
    score(mixture, spec, config, trial_results)
}

/// What the fold reads of one trial.
struct TrialOutcome {
    dataset_seed: u64,
    quality_loss: f64,
    invocation_rate: f64,
    /// The member a violation of this trial is charged against.
    worst_route: usize,
}

type TrialResult = Result<TrialOutcome>;

/// One deployed trial on the dataset of `seed`.
///
/// The router decides every invocation before any accelerator runs, as
/// the deployed classifier does; with no online updates each decision
/// depends on its index and input alone. The precise function runs once
/// per invocation, for the all-precise run the stream is scored against.
/// Each member's accelerator then runs, in invocation order, only on the
/// invocations routed to it, and its normalized error is computed only
/// there. The batched forwards are bit-identical to per-invocation ones,
/// so every output and error equals the member's profile of the dataset,
/// and the worst-member rule is `RunFold`'s: the first served invocation
/// with the largest error names the member (member 0 when nothing is
/// served). A pool of one names member 0 whatever the errors are, so it
/// computes none.
fn deployed_trial(mixture: Mixture<'_>, seed: u64, scale: DatasetScale) -> TrialResult {
    let members = mixture.members();
    let function = &members[0];
    let bench = function.benchmark().as_ref();
    let dataset = function.dataset(seed, scale);
    let n = dataset.invocation_count();
    let out_dim = bench.output_dim();

    let mut router = mixture.router();
    let routes: Vec<RouteChoice> = dataset
        .iter()
        .enumerate()
        .map(|(i, input)| router.classify_route(i, input))
        .collect();

    let mut precise = OutputBuffer::with_capacity(out_dim, n);
    let mut p = Vec::new();
    for input in &dataset {
        function.precise_into(input, &mut p);
        precise.push(&p);
    }

    // Served slots of the all-precise stream are overwritten with the
    // serving member's output; `errors` is read only at served slots.
    let mut mixed = precise.as_flat().to_vec();
    let track_worst = members.len() > 1;
    let mut errors = if track_worst {
        vec![0.0f32; n]
    } else {
        Vec::new()
    };
    let mut scratch = InvokeScratch::new();
    let mut served = Vec::new();
    let mut inputs = Vec::new();
    for (m, member) in members.iter().enumerate() {
        served.clear();
        inputs.clear();
        for (i, route) in routes.iter().enumerate() {
            if *route == RouteChoice::Member(m) {
                served.push(i);
                inputs.extend_from_slice(dataset.input(i));
            }
        }
        approx_blocks(
            member,
            &inputs,
            served.len(),
            &mut scratch,
            |k, a, scratch| {
                let i = served[k];
                if track_worst {
                    errors[i] = member.max_normalized_error_with(precise.get(i), a, scratch);
                }
                mixed[i * out_dim..(i + 1) * out_dim].copy_from_slice(a);
            },
        );
    }

    let (mut worst_route, mut worst_err) = (0, f32::NEG_INFINITY);
    let mut invoked = 0;
    for (i, route) in routes.iter().enumerate() {
        if let RouteChoice::Member(m) = *route {
            invoked += 1;
            if track_worst && errors[i] > worst_err {
                worst_err = errors[i];
                worst_route = m;
            }
        }
    }

    let final_precise = bench.run_application(&dataset, &precise);
    let mixed = OutputBuffer::from_flat(out_dim, mixed);
    let outcome =
        score_mixture(bench, &dataset, &mixed, &final_precise, invoked).map_err(SimError::from)?;
    Ok(TrialOutcome {
        dataset_seed: dataset.seed(),
        quality_loss: outcome.quality_loss,
        invocation_rate: outcome.invocation_rate(),
        worst_route,
    })
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
        let trial = trial?;
        losses.push(trial.quality_loss);
        worst_routes.push(trial.worst_route);
        invocation_rate_sum += trial.invocation_rate;
        trial_records.push(TrialRecord {
            dataset_seed: trial.dataset_seed,
            quality_loss: trial.quality_loss,
            invocation_rate: trial.invocation_rate,
            met_target: trial.quality_loss <= spec.max_quality_loss,
            worst_route: trial.worst_route,
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
