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
//! test at every probe. [`ThresholdOptimizer::optimize_stepping`] also
//! provides the paper's literal Algorithm 1 for comparison.

use crate::parallel::par_map_indexed;
use crate::profile::DatasetProfile;
use crate::route::{accepted_count, ApproximatorPool, RouteChoice, RouteClassifier, RoutedReplay};
use crate::{MithraError, Result};
use mithra_stats::clopper_pearson::{lower_bound, Confidence};

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

/// A finished threshold search: the certified outcome and the probes that
/// found it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bisection {
    /// The certified outcome the search returns.
    pub outcome: ThresholdOutcome,
    /// Every probe's outcome, in probe order.
    pub probes: Vec<ThresholdOutcome>,
    /// Probes that labeled the compile invocations as an earlier probe did
    /// and so reused its certificate instead of replaying the datasets.
    pub reused: usize,
}

/// Searches for the optimal threshold over a set of dataset profiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdOptimizer {
    spec: QualitySpec,
    /// Bisection probes; 24 localizes the threshold to ~1e-7 of its range.
    iterations: u32,
    /// Worker threads for per-profile replay during certification
    /// (`Some(1)` = sequential, `None`/`Some(0)` = available parallelism).
    threads: Option<usize>,
}

impl ThresholdOptimizer {
    /// Creates an optimizer for the given specification.
    pub fn new(spec: QualitySpec) -> Self {
        Self {
            spec,
            iterations: 24,
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

    /// Finds the loosest threshold whose **deployed** routed mixture
    /// certifies: the same bisection as
    /// [`optimize_routed`](Self::optimize_routed), but every probe trains
    /// a router at the candidate threshold (via `train_router`) and
    /// certifies the router's own routing decisions
    /// ([`certify_routed_deployed`](Self::certify_routed_deployed)).
    ///
    /// `train_router` runs once per probe (threshold 0, the largest
    /// observed error, then each midpoint). A probe whose router equals
    /// an earlier probe's reuses that probe's certificate under its own
    /// threshold instead of replaying every dataset, because the deployed
    /// probe depends on the threshold only through the router. Callers
    /// pass a [`RouterTrainer`](crate::route::RouterTrainer) prepared once
    /// for these profiles — `|t| trainer.train(t)` — which keeps the
    /// sample, quantizers and table hash rows across probes and trains
    /// each distinct labeling of the sample once.
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

    /// [`optimize_routed_deployed`](Self::optimize_routed_deployed) with
    /// its probe log.
    ///
    /// # Errors
    ///
    /// Same as [`optimize_routed_deployed`](Self::optimize_routed_deployed).
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
    /// over the oracle probe ([`certify_routed`](Self::certify_routed)).
    /// The search range spans every member's observed errors. The binary
    /// compile certifies its trained function this way, as the pool of
    /// one.
    ///
    /// A probe at which every member accepts as many invocations as at an
    /// earlier probe routes every invocation the same (the accept sets
    /// are nested in the threshold; see [`accepted_count`]), so it reuses
    /// that probe's certificate under its own threshold.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] with no profiles, and
    /// [`MithraError::Uncertifiable`] if even threshold 0 (all-precise)
    /// cannot be certified.
    pub fn optimize_routed(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
    ) -> Result<ThresholdOutcome> {
        self.bisect_routed(pool, member_profiles)
            .map(|search| search.outcome)
    }

    /// [`optimize_routed`](Self::optimize_routed) with its probe log.
    ///
    /// # Errors
    ///
    /// Same as [`optimize_routed`](Self::optimize_routed).
    pub fn bisect_routed(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
    ) -> Result<Bisection> {
        let accepted = |threshold: f32| -> Result<Vec<usize>> {
            let count = |profiles: &Vec<DatasetProfile>| {
                let errors = profiles.iter().flat_map(|p| p.errors().iter().copied());
                accepted_count(errors, threshold)
            };
            Ok(member_profiles.iter().map(count).collect())
        };
        self.bisect(pool, member_profiles, accepted, |_, threshold| {
            self.certify_routed(pool, member_profiles, threshold)
        })
    }

    /// Algorithm 1's bisection, shared by every optimizer. A probe
    /// certifies one candidate threshold. The all-precise origin
    /// (threshold 0) must certify, else the spec is uncertifiable; the
    /// loosest threshold — the largest error any member observed — is
    /// taken outright when it certifies; otherwise `iterations` midpoint
    /// probes keep `lo` certifying and `hi` not, and the last certifying
    /// probe — the origin when none did — is the result.
    ///
    /// `labels` keys a threshold on what its probe certifies, and
    /// `certify` certifies a key at a threshold. A probe whose key equals
    /// an earlier probe's takes that probe's outcome with its own
    /// threshold, so the probe sequence and every outcome are those of
    /// certifying each probe afresh.
    fn bisect<K: PartialEq>(
        &self,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
        mut labels: impl FnMut(f32) -> Result<K>,
        mut certify: impl FnMut(&K, f32) -> Result<ThresholdOutcome>,
    ) -> Result<Bisection> {
        if check_member_profile_table(pool, member_profiles)? == 0 {
            return Err(no_profiles());
        }
        let mut certified: Vec<(K, ThresholdOutcome)> = Vec::new();
        let (mut probes, mut reused) = (Vec::new(), 0);
        let mut probe = |threshold: f32| -> Result<ThresholdOutcome> {
            let key = labels(threshold)?;
            let outcome = match certified.iter().find(|(seen, _)| *seen == key) {
                Some((_, earlier)) => {
                    reused += 1;
                    ThresholdOutcome {
                        threshold,
                        ..earlier.clone()
                    }
                }
                None => {
                    let outcome = certify(&key, threshold)?;
                    certified.push((key, outcome.clone()));
                    outcome
                }
            };
            probes.push(outcome.clone());
            Ok(outcome)
        };
        let max_err = max_observed_error(member_profiles.iter().flatten());
        let origin = probe(0.0)?;
        if origin.certified_rate < self.spec.success_rate {
            return Err(self.uncertifiable(&origin));
        }
        let loosest = probe(max_err)?;
        if loosest.certified_rate >= self.spec.success_rate {
            return Ok(Bisection {
                outcome: loosest,
                probes,
                reused,
            });
        }
        let (mut lo, mut hi) = (0.0f32, max_err);
        let mut best = origin;
        for _ in 0..self.iterations {
            let mid = 0.5 * (lo + hi);
            let outcome = probe(mid)?;
            if outcome.certified_rate >= self.spec.success_rate {
                best = outcome;
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Bisection {
            outcome: best,
            probes,
            reused,
        })
    }

    /// The paper's literal Algorithm 1: delta-stepping from an initial
    /// threshold, loosening while certification holds and tightening while
    /// it fails, terminating at the boundary crossing. Every step runs the
    /// same probe as [`optimize_routed`](Self::optimize_routed).
    ///
    /// Kept as the test reference for the bisection, which reaches the
    /// same boundary in fewer probes.
    ///
    /// # Errors
    ///
    /// Same as [`optimize_routed`](Self::optimize_routed).
    pub fn optimize_stepping(
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

    /// The error for a spec whose all-precise origin does not certify.
    fn uncertifiable(&self, origin: &ThresholdOutcome) -> MithraError {
        MithraError::Uncertifiable {
            quality_target: self.spec.max_quality_loss,
            required_rate: self.spec.success_rate,
            best_rate: origin.certified_rate,
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

/// Upper end of the bisection range: the largest error any profile
/// observed (at least `1e-6`, so the range is never empty).
fn max_observed_error<'a>(profiles: impl IntoIterator<Item = &'a DatasetProfile>) -> f32 {
    profiles
        .into_iter()
        .flat_map(|p| p.errors().iter().copied())
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
    use mithra_axbench::dataset::{Dataset, DatasetScale};
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
            .optimize_routed(&pool, &profiles)
            .unwrap();
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

    #[test]
    fn stricter_targets_give_tighter_thresholds() {
        let (pool, profiles) = pool_of_one("sobel", 30);
        let loose = ThresholdOptimizer::new(QualitySpec::new(0.30, 0.9, 0.5).unwrap())
            .optimize_routed(&pool, &profiles)
            .unwrap();
        let tight = ThresholdOptimizer::new(QualitySpec::new(0.02, 0.9, 0.5).unwrap())
            .optimize_routed(&pool, &profiles)
            .unwrap();
        assert!(tight.threshold <= loose.threshold);
        assert!(tight.mean_invocation_rate <= loose.mean_invocation_rate + 1e-9);
    }

    #[test]
    fn impossible_success_rate_errors() {
        // 5 datasets cannot certify 99% at 95% confidence.
        let (pool, profiles) = pool_of_one("sobel", 5);
        let spec = QualitySpec::new(0.05, 0.95, 0.99).unwrap();
        let err = ThresholdOptimizer::new(spec)
            .optimize_routed(&pool, &profiles)
            .unwrap_err();
        assert!(matches!(err, MithraError::Uncertifiable { .. }));
    }

    #[test]
    fn empty_profiles_error() {
        let (pool, _) = pool_of_one("sobel", 1);
        let spec = QualitySpec::paper_default(0.05).unwrap();
        let opt = ThresholdOptimizer::new(spec);
        assert!(matches!(
            opt.optimize_routed(&pool, &[Vec::new()]),
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
        let bisect = opt.optimize_routed(&pool, &profiles).unwrap();
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
            .optimize_routed(&pool, &member_profiles)
            .unwrap();
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
            .optimize_routed(&pool, &profiles)
            .unwrap();
        // The certified (lower-bound) rate never exceeds the empirical one.
        let empirical = outcome.successes as f64 / outcome.trials as f64;
        assert!(outcome.certified_rate <= empirical + 1e-12);
    }
}
