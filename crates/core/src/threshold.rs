//! The statistical threshold optimizer (paper §III-A, Algorithm 1).
//!
//! The knob MITHRA exposes is a threshold on the *local accelerator error*.
//! The optimizer picks the loosest threshold whose final-quality behaviour,
//! measured over the representative compilation datasets, can be certified
//! with the Clopper–Pearson exact method: with confidence β, at least a
//! fraction S of unseen datasets will meet the quality-loss target `q`.
//!
//! The search exploits monotonicity: loosening the threshold can only send
//! more invocations to the accelerator, degrading (weakly) each dataset's
//! quality. Bisection over the threshold therefore finds the boundary the
//! paper's delta-stepping loop converges to, with the same certification
//! test at every probe. The paper's literal delta-stepping Algorithm 1 is
//! kept as a test-only reference the bisection is checked against.

use crate::parallel::par_map_indexed;
use crate::profile::DatasetProfile;
use crate::route::{accepted_count, ApproximatorPool, RouteChoice, RouteClassifier, RoutedReplay};
use crate::{MithraError, Result};
use mithra_stats::clopper_pearson::{lower_bound, Confidence};
use std::ops::Range;

/// Midpoint probes of [`ThresholdOptimizer`]'s bisection; 24 localize the
/// threshold to ~1e-7 of its range.
const BISECTION_ITERATIONS: u32 = 24;

/// The programmer's quality requirement: target loss, confidence, and
/// required success rate (paper: "5% quality loss, with 95% confidence and
/// 90% success rate").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualitySpec {
    /// Maximum acceptable final-output quality loss `q` (fraction).
    pub max_quality_loss: f64,
    /// Confidence level β of the statistical guarantee.
    pub confidence: Confidence,
    /// Required success rate S over unseen datasets.
    pub success_rate: f64,
}

impl QualitySpec {
    /// The paper's main configuration for a given quality-loss target:
    /// 95% confidence, 90% success rate.
    ///
    /// # Errors
    ///
    /// Returns an error if `max_quality_loss` is outside `(0, 1]`.
    pub fn paper_default(max_quality_loss: f64) -> Result<Self> {
        Self::new(max_quality_loss, 0.95, 0.90)
    }

    /// Creates a fully custom specification.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InvalidConfig`] for out-of-range values.
    pub fn new(max_quality_loss: f64, confidence: f64, success_rate: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&max_quality_loss) || max_quality_loss == 0.0 {
            return Err(MithraError::InvalidConfig {
                parameter: "max_quality_loss",
                constraint: "0 < q <= 1",
            });
        }
        if !(0.0..=1.0).contains(&success_rate) {
            return Err(MithraError::InvalidConfig {
                parameter: "success_rate",
                constraint: "0 <= S <= 1",
            });
        }
        let confidence = Confidence::new(confidence).map_err(|_| MithraError::InvalidConfig {
            parameter: "confidence",
            constraint: "0 < beta < 1",
        })?;
        Ok(Self {
            max_quality_loss,
            confidence,
            success_rate,
        })
    }
}

/// The optimizer's result: the threshold certified against the mixed
/// output stream of an ordered approximator pool, plus per-member
/// accounting. Violations are attributed to whichever member served the
/// worst (largest profiled error) invocation of the violating dataset, so
/// `successes + Σ member_violations = trials`.
///
/// The binary design is the pool of one: `member_*` has a single slot,
/// and `member_invocation_rates[0]` is `mean_invocation_rate`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThresholdOutcome {
    /// The certified accelerator-error threshold shared by all members
    /// (normalized output space).
    pub threshold: f32,
    /// Datasets meeting the quality target under the mixture.
    pub successes: u64,
    /// Total datasets evaluated.
    pub trials: u64,
    /// The Clopper–Pearson lower bound on the unseen-dataset success rate
    /// of the mixture.
    pub certified_rate: f64,
    /// Mean fraction of invocations served by *any* pool member.
    pub mean_invocation_rate: f64,
    /// Mean fraction of invocations served by each member (cheapest
    /// first); sums to `mean_invocation_rate`.
    pub member_invocation_rates: Vec<f64>,
    /// Violating datasets attributed to each member (cheapest first).
    pub member_violations: Vec<u64>,
}

/// A finished threshold search: the outcome it returns and the probes that
/// found it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bisection<P = ThresholdOutcome> {
    /// The outcome the search returns.
    pub outcome: P,
    /// Every probe's outcome, in probe order.
    pub probes: Vec<P>,
    /// Probes that keyed equal to an earlier probe and so reused its
    /// outcome instead of replaying the datasets.
    pub reused: usize,
}

/// A probe outcome that a reused probe takes over under its own threshold.
pub trait Probe: Clone {
    /// This outcome, as probed at `threshold`.
    fn at(&self, threshold: f32) -> Self;
}

impl Probe for ThresholdOutcome {
    fn at(&self, threshold: f32) -> Self {
        Self {
            threshold,
            ..self.clone()
        }
    }
}

/// Algorithm 1's bisection, memoized: the one threshold search behind
/// [`ThresholdOptimizer`], [`crate::multi::TupleOptimizer`] and explore's
/// predictor. Each caller makes its own edge probes through
/// [`probe`](Self::probe) around the midpoints of [`bisect`](Self::bisect).
///
/// `key` names what a probe certifies at a threshold and `probe` scores a
/// key there. A probe whose key equals an earlier probe's takes that
/// outcome under its own threshold ([`Probe::at`]), so every probe is what
/// probing afresh gives. Key and probe failures propagate.
#[allow(missing_debug_implementations)] // holds the caller's closures
pub struct MemoBisection<K, P, FK, FP> {
    key: FK,
    probe: FP,
    seen: Vec<(K, P)>,
    probes: Vec<P>,
    reused: usize,
}

impl<K, P, FK, FP> MemoBisection<K, P, FK, FP>
where
    K: PartialEq,
    P: Probe,
    FK: FnMut(f32) -> Result<K>,
    FP: FnMut(&K, f32) -> Result<P>,
{
    /// A search with an empty memo.
    pub fn new(key: FK, probe: FP) -> Self {
        Self {
            key,
            probe,
            seen: Vec::new(),
            probes: Vec::new(),
            reused: 0,
        }
    }

    /// Probes one threshold, reusing an earlier probe of an equal key.
    pub fn probe(&mut self, threshold: f32) -> Result<P> {
        let key = (self.key)(threshold)?;
        let outcome = match self.seen.iter().find(|(seen, _)| *seen == key) {
            Some((_, earlier)) => {
                self.reused += 1;
                earlier.at(threshold)
            }
            None => {
                let outcome = (self.probe)(&key, threshold)?;
                self.seen.push((key, outcome.clone()));
                outcome
            }
        };
        self.probes.push(outcome.clone());
        Ok(outcome)
    }

    /// `iterations` midpoint probes of `range`, keeping its start passing
    /// and its end failing; returns the last passing probe, if any.
    pub fn bisect(
        &mut self,
        range: Range<f32>,
        iterations: u32,
        passes: impl Fn(&P) -> bool,
    ) -> Result<Option<P>> {
        let (mut lo, mut hi, mut best) = (range.start, range.end, None);
        for _ in 0..iterations {
            let mid = 0.5 * (lo + hi);
            let outcome = self.probe(mid)?;
            if passes(&outcome) {
                (lo, best) = (mid, Some(outcome));
            } else {
                hi = mid;
            }
        }
        Ok(best)
    }

    /// The finished search returning `outcome`.
    pub fn finish(self, outcome: P) -> Bisection<P> {
        Bisection {
            outcome,
            probes: self.probes,
            reused: self.reused,
        }
    }
}

/// Searches for the optimal threshold over a set of dataset profiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdOptimizer {
    spec: QualitySpec,
    /// Worker threads for per-profile replay during certification
    /// (`Some(1)` = sequential, `None`/`Some(0)` = available parallelism).
    threads: Option<usize>,
}

impl ThresholdOptimizer {
    /// Creates an optimizer for the given specification.
    pub fn new(spec: QualitySpec) -> Self {
        Self {
            spec,
            threads: Some(1),
        }
    }

    /// Replays each profile's certification probe on up to `threads`
    /// workers (`None`/`Some(0)` = available parallelism).
    ///
    /// Each profile replays independently; the success count and the
    /// invocation-rate sum are folded sequentially in profile order from
    /// the per-profile results, so every outcome is bit-identical at any
    /// thread count.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The specification being optimized for.
    pub fn spec(&self) -> &QualitySpec {
        &self.spec
    }

    /// Certification probe over a mixture at one candidate threshold:
    /// each dataset is replayed through the oracle router (the cheapest
    /// member whose profiled error is within the threshold; see
    /// [`ApproximatorPool::replay_routed_threshold`]) and the
    /// Clopper–Pearson bound is taken over the mixed quality outcomes.
    /// Violations are attributed to the member that served each violating
    /// dataset's worst invocation. For the binary design's pool of one
    /// ([`ApproximatorPool::single`]) this is Algorithm 1's probe: accept
    /// exactly the invocations whose error is within the threshold.
    ///
    /// Replays fold sequentially in dataset order from per-dataset
    /// results, so the probe is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] for a profile table that
    /// does not cover every member, and propagates replay failures.
    pub fn certify_routed(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
        threshold: f32,
    ) -> Result<ThresholdOutcome> {
        self.certify_mixture(pool, member_profiles, threshold, |members| {
            pool.replay_routed_threshold(members, threshold)
        })
    }

    /// Certification probe over the routed mixture with the **deployed
    /// router in the loop**: each dataset is replayed under a fresh copy
    /// of `router` making the per-invocation decisions — exactly how
    /// `mithra-sim` serves a dataset — and the Clopper–Pearson bound is
    /// taken over the resulting quality outcomes.
    ///
    /// The oracle probe ([`certify_routed`](Self::certify_routed))
    /// overstates a cascade: every stage the router consults adds its own
    /// false-accept mass, so an invocation whose true error exceeds the
    /// threshold can still be served approximately. Certifying the
    /// deployed decisions charges that misrouting against the certificate
    /// instead of discovering it on unseen data.
    ///
    /// Replays fold sequentially in dataset order from per-dataset
    /// results, so the probe is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] for a profile table that
    /// does not cover every member, and propagates replay failures.
    pub fn certify_routed_deployed(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
        router: &RouteClassifier,
        threshold: f32,
    ) -> Result<ThresholdOutcome> {
        self.certify_mixture(pool, member_profiles, threshold, |members| {
            let mut stages = router.clone();
            let choices: Vec<RouteChoice> = members[0]
                .dataset()
                .iter()
                .enumerate()
                .map(|(j, input)| stages.classify_route(j, input))
                .collect();
            pool.replay_routed_choices(members, &choices)
        })
    }

    /// The certification fold shared by both probes: `replay` scores one
    /// dataset from its per-member profiles, datasets replay on up to
    /// `threads` workers, and the results fold sequentially in dataset
    /// order.
    fn certify_mixture(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
        threshold: f32,
        replay: impl Fn(&[&DatasetProfile]) -> Result<RoutedReplay> + Sync,
    ) -> Result<ThresholdOutcome> {
        let trials = check_member_profile_table(pool, member_profiles)?;
        let replays = par_map_indexed(trials, self.threads, |i| {
            let members: Vec<&DatasetProfile> = member_profiles.iter().map(|mp| &mp[i]).collect();
            replay(&members)
        });
        let mut successes = 0u64;
        let mut invocation_rates = 0.0f64;
        let mut member_rates = vec![0.0f64; pool.len()];
        let mut member_violations = vec![0u64; pool.len()];
        for replay in replays {
            let replay = replay?;
            if replay.quality_loss <= self.spec.max_quality_loss {
                successes += 1;
            } else {
                member_violations[replay.worst_member] += 1;
            }
            invocation_rates += replay.invocation_rate();
            if replay.total > 0 {
                for (m, &count) in replay.member_invocations.iter().enumerate() {
                    member_rates[m] += count as f64 / replay.total as f64;
                }
            }
        }
        let bound = lower_bound(successes, trials as u64, self.spec.confidence)?;
        for rate in &mut member_rates {
            *rate /= trials as f64;
        }
        Ok(ThresholdOutcome {
            threshold,
            successes,
            trials: trials as u64,
            certified_rate: bound,
            mean_invocation_rate: invocation_rates / trials as f64,
            member_invocation_rates: member_rates,
            member_violations,
        })
    }

    /// [`bisect_routed_deployed`](Self::bisect_routed_deployed)'s outcome
    /// without its probe log.
    ///
    /// # Errors
    ///
    /// Same as [`bisect_routed_deployed`](Self::bisect_routed_deployed).
    pub fn optimize_routed_deployed<F>(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
        train_router: F,
    ) -> Result<ThresholdOutcome>
    where
        F: FnMut(f32) -> Result<RouteClassifier>,
    {
        self.bisect_routed_deployed(pool, member_profiles, train_router)
            .map(|search| search.outcome)
    }

    /// Finds the loosest threshold whose **deployed** routed mixture
    /// certifies, with its probe log: the same bisection as
    /// [`bisect_routed`](Self::bisect_routed), but every probe trains a
    /// router at the candidate threshold (via `train_router`) and
    /// certifies the router's own routing decisions
    /// ([`certify_routed_deployed`](Self::certify_routed_deployed)).
    ///
    /// The probe keys on the router it certifies, because it depends on
    /// the threshold only through that router. Callers pass a
    /// [`RouterTrainer`](crate::route::RouterTrainer) prepared once for
    /// these profiles — `|t| trainer.train(t)` — which keeps the sample,
    /// quantizers and table hash rows across probes and trains each
    /// distinct labeling of the sample once.
    ///
    /// Unlike the oracle probe, the deployed probe is not monotone in the
    /// threshold — each candidate retrains the cascade — so, like the
    /// paper's delta-stepping, the bisection converges to *a* boundary of
    /// the certification region rather than a guaranteed-loosest point.
    /// The returned outcome always certifies.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] with no profiles,
    /// [`MithraError::Uncertifiable`] if even threshold 0 (where every
    /// training label is "reject", so the cascade trains to all-precise)
    /// cannot be certified, and propagates router-training failures.
    pub fn bisect_routed_deployed<F>(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
        train_router: F,
    ) -> Result<Bisection>
    where
        F: FnMut(f32) -> Result<RouteClassifier>,
    {
        self.bisect(pool, member_profiles, train_router, |router, threshold| {
            self.certify_routed_deployed(pool, member_profiles, router, threshold)
        })
    }

    /// Finds the loosest certifiable threshold of a mixture by bisection
    /// over the oracle probe ([`certify_routed`](Self::certify_routed)),
    /// returning the certified outcome with its probe log. The search
    /// range spans every member's observed errors. The binary compile
    /// certifies its trained function this way, as the pool of one.
    ///
    /// The probe keys on each member's accepted count ([`accepted_in`]):
    /// the accept sets are nested in the threshold, so equal counts route
    /// every invocation the same.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] with no profiles, and
    /// [`MithraError::Uncertifiable`] if even threshold 0 (all-precise)
    /// cannot be certified.
    pub fn bisect_routed(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
    ) -> Result<Bisection> {
        let accepted = |threshold: f32| -> Result<Vec<usize>> {
            let count = |profiles| accepted_in(profiles, threshold);
            Ok(member_profiles.iter().map(count).collect())
        };
        self.bisect(pool, member_profiles, accepted, |_, threshold| {
            self.certify_routed(pool, member_profiles, threshold)
        })
    }

    /// The optimizer's edge policy over [`MemoBisection`]: the
    /// all-precise origin (threshold 0) must certify, else the spec is
    /// uncertifiable; the loosest threshold — the largest finite error any
    /// member observed — is taken outright when it certifies; otherwise
    /// its midpoints run, and the last certifying probe — the origin when
    /// none did — is the result.
    fn bisect<K: PartialEq>(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
        labels: impl FnMut(f32) -> Result<K>,
        certify: impl FnMut(&K, f32) -> Result<ThresholdOutcome>,
    ) -> Result<Bisection> {
        if check_member_profile_table(pool, member_profiles)? == 0 {
            return Err(no_profiles());
        }
        let passes = |o: &ThresholdOutcome| o.certified_rate >= self.spec.success_rate;
        let mut search = MemoBisection::new(labels, certify);
        let max_err = max_finite_error(member_profiles.iter().flatten());
        let origin = search.probe(0.0)?;
        if !passes(&origin) {
            return Err(self.uncertifiable(&origin));
        }
        let loosest = search.probe(max_err)?;
        if passes(&loosest) {
            return Ok(search.finish(loosest));
        }
        let best = search.bisect(0.0..max_err, BISECTION_ITERATIONS, passes)?;
        Ok(search.finish(best.unwrap_or(origin)))
    }

    /// The error for a spec whose all-precise origin does not certify.
    fn uncertifiable(&self, origin: &ThresholdOutcome) -> MithraError {
        MithraError::Uncertifiable {
            quality_target: self.spec.max_quality_loss,
            required_rate: self.spec.success_rate,
            best_rate: origin.certified_rate,
        }
    }
}

#[cfg(test)]
impl ThresholdOptimizer {
    /// The paper's literal Algorithm 1: delta-stepping from an initial
    /// threshold, loosening while certification holds and tightening while
    /// it fails, terminating at the boundary crossing. Every step runs the
    /// same probe as [`bisect_routed`](Self::bisect_routed).
    ///
    /// The test reference for the bisection, which reaches the same
    /// boundary in fewer probes.
    fn optimize_stepping(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
        initial: f32,
        delta: f32,
        max_steps: u32,
    ) -> Result<ThresholdOutcome> {
        if check_member_profile_table(pool, member_profiles)? == 0 {
            return Err(no_profiles());
        }
        let mut th = initial.max(0.0);
        let mut last_pass = None;
        for _ in 0..max_steps {
            let outcome = self.certify_routed(pool, member_profiles, th)?;
            if outcome.certified_rate >= self.spec.success_rate {
                last_pass = Some(outcome);
                // Success: loosen the knob (step 5: increase threshold).
                th += delta;
            } else {
                // Failure right after a pass: the boundary is crossed
                // (step 6 terminates).
                if last_pass.is_some() {
                    break;
                }
                // Failure: tighten the knob (step 5: decrease threshold).
                th = (th - delta).max(0.0);
            }
        }
        if let Some(outcome) = last_pass {
            return Ok(outcome);
        }
        let origin = self.certify_routed(pool, member_profiles, 0.0)?;
        if origin.certified_rate >= self.spec.success_rate {
            Ok(origin)
        } else {
            Err(self.uncertifiable(&origin))
        }
    }
}

/// The error every optimizer returns for an empty profile set.
fn no_profiles() -> MithraError {
    MithraError::InsufficientData {
        stage: "threshold optimization",
        available: 0,
        needed: 1,
    }
}

/// How many invocations of `profiles` the oracle accepts at `threshold`
/// ([`accepted_count`]): the key of every oracle probe's memo.
pub fn accepted_in<'a>(
    profiles: impl IntoIterator<Item = &'a DatasetProfile>,
    threshold: f32,
) -> usize {
    let errors = profiles
        .into_iter()
        .flat_map(|p| p.errors().iter().copied());
    accepted_count(errors, threshold)
}

/// Upper end of every threshold search's range: the largest finite error
/// any profile observed (at least `1e-6`, so the range is never empty).
/// A NaN output profiles as an infinite error, which no finite threshold
/// accepts; counting it would make every midpoint infinite.
pub fn max_finite_error<'a>(profiles: impl IntoIterator<Item = &'a DatasetProfile>) -> f32 {
    profiles
        .into_iter()
        .flat_map(|p| p.errors().iter().copied())
        .filter(|e| e.is_finite())
        .fold(0.0f32, f32::max)
        .max(1e-6)
}

/// Validates a per-member profile table (`member_profiles[m][i]` = member
/// `m`'s profile of dataset `i`), returning the dataset count.
fn check_member_profile_table(
    pool: &ApproximatorPool,
    member_profiles: &[Vec<DatasetProfile>],
) -> Result<usize> {
    if member_profiles.len() != pool.len() {
        return Err(MithraError::InsufficientData {
            stage: "routed threshold optimization",
            available: member_profiles.len(),
            needed: pool.len(),
        });
    }
    let trials = member_profiles[0].len();
    for mp in member_profiles {
        if mp.len() != trials {
            return Err(MithraError::InsufficientData {
                stage: "routed threshold optimization",
                available: mp.len(),
                needed: trials,
            });
        }
    }
    Ok(trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{AcceleratedFunction, NpuTrainConfig};
    use mithra_axbench::benchmark::Benchmark;
    use mithra_axbench::dataset::{Dataset, DatasetScale, OutputBuffer};
    use mithra_axbench::suite;
    use std::sync::Arc;

    fn train(name: &str) -> AcceleratedFunction {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        let train: Vec<Dataset> = (0..2)
            .map(|s| bench.dataset(s, DatasetScale::Smoke))
            .collect();
        AcceleratedFunction::train(
            bench,
            &train,
            &NpuTrainConfig {
                epochs: Some(25),
                max_samples: 1500,
                seed: 7,
            },
        )
        .unwrap()
    }

    /// The binary design as the pool of one, with `n_profiles` compile
    /// profiles in its one-member profile table.
    fn pool_of_one(name: &str, n_profiles: u64) -> (ApproximatorPool, Vec<Vec<DatasetProfile>>) {
        let f = train(name);
        let profiles: Vec<DatasetProfile> = (100..100 + n_profiles)
            .map(|s| DatasetProfile::collect(&f, f.dataset(s, DatasetScale::Smoke)))
            .collect();
        (ApproximatorPool::single(f), vec![profiles])
    }

    #[test]
    fn spec_validation() {
        assert!(QualitySpec::new(0.05, 0.95, 0.9).is_ok());
        assert!(QualitySpec::new(0.0, 0.95, 0.9).is_err());
        assert!(QualitySpec::new(0.05, 1.0, 0.9).is_err());
        assert!(QualitySpec::new(0.05, 0.95, 1.5).is_err());
        let spec = QualitySpec::paper_default(0.05).unwrap();
        assert_eq!(spec.max_quality_loss, 0.05);
    }

    #[test]
    fn optimizer_certifies_loose_targets() {
        // With a generous quality target and modest success rate the
        // optimizer must find a positive threshold.
        let (pool, profiles) = pool_of_one("sobel", 30);
        let spec = QualitySpec::new(0.30, 0.9, 0.5).unwrap();
        let outcome = ThresholdOptimizer::new(spec)
            .bisect_routed(&pool, &profiles)
            .unwrap()
            .outcome;
        assert!(outcome.threshold > 0.0);
        assert!(outcome.certified_rate >= 0.5);
        assert!(outcome.mean_invocation_rate > 0.0);
        assert_eq!(outcome.trials, 30);
        // One member: its slot carries the whole mixture, bit for bit.
        assert_eq!(
            outcome.member_invocation_rates[0].to_bits(),
            outcome.mean_invocation_rate.to_bits()
        );
        assert_eq!(outcome.member_violations.len(), 1);
        assert_eq!(
            outcome.successes + outcome.member_violations[0],
            outcome.trials
        );
    }

    /// `profile` with invocation `i` served exactly (its accelerator
    /// output is the precise one) and profiled at `error`.
    fn exact_at(profile: &DatasetProfile, i: usize, error: f32) -> DatasetProfile {
        let precise = profile.precise_outputs();
        let mut approx = OutputBuffer::with_capacity(precise.dim(), precise.len());
        for j in 0..precise.len() {
            approx.push(if j == i {
                precise.get(j)
            } else {
                profile.approx_output(j)
            });
        }
        let mut errors = profile.errors().to_vec();
        errors[i] = error;
        DatasetProfile::from_parts(
            profile.dataset().clone(),
            precise.clone(),
            approx,
            errors,
            profile.final_precise().to_vec(),
        )
    }

    #[test]
    fn an_infinite_error_does_not_widen_the_search_range() {
        // A NaN output profiles as an infinite error. Served exactly, the
        // invocation scores the same accepted or not, so the table holding
        // it at +inf must certify what the table holding it at 0 does.
        let (pool, profiles) = pool_of_one("sobel", 30);
        let with = |error: f32| {
            let mut table = profiles.clone();
            table[0][0] = exact_at(&profiles[0][0], 0, error);
            table
        };
        let opt = ThresholdOptimizer::new(QualitySpec::new(0.30, 0.9, 0.5).unwrap());
        let finite = opt.bisect_routed(&pool, &with(0.0)).unwrap();
        let infinite = opt.bisect_routed(&pool, &with(f32::INFINITY)).unwrap();
        assert!(finite.outcome.threshold > 0.0);
        let thresholds = |s: &Bisection| s.probes.iter().map(|o| o.threshold).collect::<Vec<_>>();
        assert_eq!(thresholds(&infinite), thresholds(&finite));
        assert_eq!(infinite.outcome.threshold, finite.outcome.threshold);
        assert_eq!(infinite.outcome.successes, finite.outcome.successes);
    }

    #[test]
    fn stricter_targets_give_tighter_thresholds() {
        let (pool, profiles) = pool_of_one("sobel", 30);
        let loose = ThresholdOptimizer::new(QualitySpec::new(0.30, 0.9, 0.5).unwrap())
            .bisect_routed(&pool, &profiles)
            .unwrap()
            .outcome;
        let tight = ThresholdOptimizer::new(QualitySpec::new(0.02, 0.9, 0.5).unwrap())
            .bisect_routed(&pool, &profiles)
            .unwrap()
            .outcome;
        assert!(tight.threshold <= loose.threshold);
        assert!(tight.mean_invocation_rate <= loose.mean_invocation_rate + 1e-9);
    }

    #[test]
    fn impossible_success_rate_errors() {
        // 5 datasets cannot certify 99% at 95% confidence.
        let (pool, profiles) = pool_of_one("sobel", 5);
        let spec = QualitySpec::new(0.05, 0.95, 0.99).unwrap();
        let err = ThresholdOptimizer::new(spec)
            .bisect_routed(&pool, &profiles)
            .unwrap_err();
        assert!(matches!(err, MithraError::Uncertifiable { .. }));
    }

    #[test]
    fn empty_profiles_error() {
        let (pool, _) = pool_of_one("sobel", 1);
        let spec = QualitySpec::paper_default(0.05).unwrap();
        let opt = ThresholdOptimizer::new(spec);
        assert!(matches!(
            opt.bisect_routed(&pool, &[Vec::new()]),
            Err(MithraError::InsufficientData { .. })
        ));
        assert!(matches!(
            opt.optimize_stepping(&pool, &[Vec::new()], 0.05, 0.01, 10),
            Err(MithraError::InsufficientData { .. })
        ));
    }

    #[test]
    fn stepping_agrees_with_bisection() {
        let (pool, profiles) = pool_of_one("sobel", 20);
        let spec = QualitySpec::new(0.20, 0.9, 0.5).unwrap();
        let opt = ThresholdOptimizer::new(spec);
        let bisect = opt.bisect_routed(&pool, &profiles).unwrap().outcome;
        let stepped = opt
            .optimize_stepping(&pool, &profiles, 0.05, 0.01, 200)
            .unwrap();
        // Same boundary to within the step size.
        assert!(
            (bisect.threshold - stepped.threshold).abs() <= 0.011,
            "bisect {} vs stepped {}",
            bisect.threshold,
            stepped.threshold
        );
    }

    #[test]
    fn routed_pool_accounting_is_conserved() {
        let f = train("sobel");
        let bench = f.benchmark();
        let spec = QualitySpec::new(0.20, 0.9, 0.5).unwrap();
        let cheap = crate::route::PoolSpec::tiered(&bench.npu_topology());
        let train: Vec<mithra_axbench::dataset::Dataset> = (0..2)
            .map(|s| bench.dataset(s, DatasetScale::Smoke))
            .collect();
        let pool = ApproximatorPool::train(
            bench,
            &train,
            &NpuTrainConfig {
                epochs: Some(25),
                max_samples: 1500,
                seed: 7,
            },
            &cheap,
            Some(1),
            Some(&f),
        )
        .unwrap();
        let member_profiles: Vec<Vec<DatasetProfile>> = pool
            .members()
            .iter()
            .map(|m| {
                (100..120)
                    .map(|s| DatasetProfile::collect(m, m.dataset(s, DatasetScale::Smoke)))
                    .collect()
            })
            .collect();
        let routed = ThresholdOptimizer::new(spec)
            .bisect_routed(&pool, &member_profiles)
            .unwrap()
            .outcome;
        assert_eq!(routed.member_invocation_rates.len(), pool.len());
        assert_eq!(routed.member_violations.len(), pool.len());
        assert_eq!(
            routed.successes + routed.member_violations.iter().sum::<u64>(),
            routed.trials
        );
        let member_sum: f64 = routed.member_invocation_rates.iter().sum();
        assert!((member_sum - routed.mean_invocation_rate).abs() < 1e-9);
    }

    #[test]
    fn certified_rate_is_conservative() {
        let (pool, profiles) = pool_of_one("inversek2j", 25);
        let spec = QualitySpec::new(0.25, 0.9, 0.5).unwrap();
        let outcome = ThresholdOptimizer::new(spec)
            .bisect_routed(&pool, &profiles)
            .unwrap()
            .outcome;
        // The certified (lower-bound) rate never exceeds the empirical one.
        let empirical = outcome.successes as f64 / outcome.trials as f64;
        assert!(outcome.certified_rate <= empirical + 1e-12);
    }
}
