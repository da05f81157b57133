//! Closed-loop online re-certification: the recovery half of the guardband.
//!
//! The watchdog ([`crate::watchdog`]) detects that the deployed certificate
//! stopped describing reality — input drift pushed the violation rate of
//! admitted invocations past its calibrated limit — and parks the system in
//! [`GuardState::Fallback`]. That protects quality but permanently trades
//! away the speedup the certificate was supposed to protect. This module
//! recovers it **without downtime**: while every live invocation is served
//! precise (quality is safe by construction), the engine
//!
//! 1. **collects** a fresh calibration window of fully shadow-profiled
//!    datasets from the drifted stream (the precise outputs are free — the
//!    fallback path computes them anyway — and the accelerator runs in
//!    shadow, charged by the simulator's invocation model);
//! 2. **selects** a new operating point on that window: probes thresholds
//!    with the *re-trained deployed router in the loop* (an oracle-only
//!    certificate collapses on unseen data), every probe trained through
//!    one pool-of-one [`RouterTrainer`] per selection, against a
//!    margin-tightened quality target, then **freezes** the
//!    `(threshold, router)` pair;
//! 3. **certifies** the frozen pair on *subsequent* fresh datasets only —
//!    never on the selection window, which would double-dip — under the
//!    always-valid sequential test ([`mithra_stats::sequential`]). The
//!    engine peeks after every dataset, so a naive repeated
//!    Clopper–Pearson test would silently spend its α; the e-process is
//!    safe under continuous monitoring by construction.
//!
//! Once the pair certifies, the engine emits a [`RecertOutcome`]: the
//! threshold and one-stage router a serving endpoint swaps, plus a
//! watchdog limit recalibrated against them on the drifted window. The
//! caller hot-swaps them into serving and forces the watchdog back to
//! [`GuardState::Monitoring`] — the statistical justification for
//! re-enabling is the fresh sequential certificate, not the watchdog's
//! recovery test (which judges the *old* operating point).
//!
//! **α accounting across attempts.** A frozen candidate that exhausts its
//! trial budget without certifying is abandoned and a new one is selected
//! from the (larger) window. Each candidate is a fresh hypothesis, so each
//! gets its own e-process — but testing `m` candidates at full α would
//! inflate the family-wise error to `m·α`. The engine therefore runs every
//! attempt at `α / max_attempts` (Bonferroni over the attempt budget), so
//! the probability that *any* still-violating candidate is ever certified
//! stays at most α.
//!
//! [`GuardState::Fallback`]: crate::watchdog::GuardState::Fallback
//! [`GuardState::Monitoring`]: crate::watchdog::GuardState::Monitoring

use crate::classifier::Decision;
use crate::function::AcceleratedFunction;
use crate::profile::{DatasetProfile, ReplayOutcome};
use crate::route::{PoolSpec, RouteClassifier, RouterTrainer};
use crate::table::TableDesign;
use crate::threshold::QualitySpec;
use crate::watchdog::{self, WatchdogConfig};
use crate::{MithraError, Result};
use mithra_stats::clopper_pearson::Confidence;
use mithra_stats::sequential::SequentialBinomial;

/// Seed-stream splitting constant (same mixer as the fault layer).
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tuning for the re-certification loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecertConfig {
    /// Master switch. [`RecertConfig::off`] keeps the PR-2 guardband
    /// behaviour bit-identical: the engine observes nothing and never
    /// swaps.
    pub enabled: bool,
    /// Calibration datasets collected before the first candidate is
    /// selected (and added between selection retries).
    pub select_after: usize,
    /// Fresh certification datasets a frozen candidate may consume before
    /// it is abandoned and reselected.
    pub max_certify_trials: u64,
    /// Selection attempts before the engine gives up and leaves the
    /// system in fallback. Each attempt's sequential test runs at
    /// `α / max_attempts` so the family-wise error stays at α.
    pub max_attempts: u64,
    /// Quality-target margin for *selection*: candidates must meet
    /// `margin × q` on the window so their true pass rate at the full `q`
    /// sits comfortably above `S` — a boundary candidate with true rate
    /// exactly `S` would (correctly) never certify. Tightened
    /// geometrically on each retry.
    pub selection_margin: f64,
    /// Minimum mean accelerator invocation rate a candidate must achieve
    /// on the window. Below this the swap would be vacuous (an all-precise
    /// classifier in Monitoring clothes) and staying in fallback — where
    /// the watchdog's own recovery path can still fire if the drift
    /// reverts — is strictly better.
    pub min_invocation_rate: f64,
    /// Training tuples sampled from the window's fit head per selection.
    pub train_samples: usize,
    /// Table-classifier design of the retrained router's one stage.
    pub table_design: TableDesign,
    /// Consecutive healthy serving checkpoints (reported through
    /// [`RecertEngine::note_health`]) after which an in-flight collection
    /// or certification is aborted: the guard recovered *on its own*, so
    /// the window describes a distribution that no longer serves traffic.
    /// Kept well above one because a degradation ladder near its limit
    /// flaps — a single healthy checkpoint is not proof of recovery.
    pub abort_after_healthy: u64,
    /// Quantile probes per selection (each trains the router).
    pub select_iterations: u32,
    /// Seed for training-tuple sampling (attempt-salted).
    pub seed: u64,
    /// Worker threads for router training (trainer preparation and every
    /// probe) and the swap's calibration pass (`Some(1)` = sequential).
    pub threads: Option<usize>,
}

impl RecertConfig {
    /// Re-certification disabled: the engine is inert and serving
    /// behaviour is bit-identical to the guardband without it.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::paper_default()
        }
    }

    /// The default closed-loop configuration.
    pub fn paper_default() -> Self {
        Self {
            enabled: true,
            select_after: 12,
            max_certify_trials: 80,
            max_attempts: 3,
            selection_margin: 0.8,
            min_invocation_rate: 0.02,
            train_samples: 4_000,
            table_design: TableDesign::paper_default(),
            abort_after_healthy: 6,
            select_iterations: 10,
            seed: 0x5EC2_17F1,
            threads: Some(1),
        }
    }

    /// Validates the numeric ranges.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InvalidConfig`] for out-of-range fields.
    pub fn validate(&self) -> Result<()> {
        if self.select_after == 0 {
            return Err(MithraError::InvalidConfig {
                parameter: "select_after",
                constraint: "> 0",
            });
        }
        if self.max_attempts == 0 {
            return Err(MithraError::InvalidConfig {
                parameter: "max_attempts",
                constraint: "> 0",
            });
        }
        if !(0.0..=1.0).contains(&self.selection_margin) || self.selection_margin == 0.0 {
            return Err(MithraError::InvalidConfig {
                parameter: "selection_margin",
                constraint: "0 < margin <= 1",
            });
        }
        if !(0.0..=1.0).contains(&self.min_invocation_rate) {
            return Err(MithraError::InvalidConfig {
                parameter: "min_invocation_rate",
                constraint: "0 <= rate <= 1",
            });
        }
        if self.abort_after_healthy == 0 {
            return Err(MithraError::InvalidConfig {
                parameter: "abort_after_healthy",
                constraint: "> 0",
            });
        }
        Ok(())
    }
}

/// A frozen `(threshold, router)` pair under sequential certification.
#[derive(Debug, Clone)]
struct Candidate {
    threshold: f32,
    router: RouteClassifier,
}

/// Where the engine is in its collect → select → certify loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecertPhase {
    /// No calibration traffic observed since the last reset.
    Idle,
    /// Accumulating the selection window.
    Collecting,
    /// A frozen candidate is under sequential certification.
    Certifying,
    /// The attempt budget is spent; the system stays in fallback.
    Exhausted,
}

/// A successful re-certification: the new epoch's serving artifacts.
#[derive(Debug, Clone)]
pub struct RecertOutcome {
    /// Monotone epoch number (1 for the first swap of an engine).
    pub epoch: u64,
    /// The re-certified accelerator-error threshold.
    pub threshold: f32,
    /// The re-trained one-stage router, certified as deployed.
    pub router: RouteClassifier,
    /// Watchdog tuning recalibrated against the new pair on the drifted
    /// calibration window.
    pub watchdog: WatchdogConfig,
    /// Fresh datasets the winning candidate's sequential test consumed.
    pub certify_trials: u64,
    /// Selection attempts used (1 = first candidate certified).
    pub attempts: u64,
    /// Total calibration datasets consumed since the trigger.
    pub calibration_datasets: u64,
}

/// Lifetime counters for reports and figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecertReport {
    /// Candidates frozen (selection runs).
    pub attempts: u64,
    /// Successful re-certifications (epoch swaps).
    pub swaps: u64,
    /// Calibration datasets consumed across all triggers.
    pub calibration_datasets: u64,
    /// Engines that spent their attempt budget without certifying.
    pub exhausted: u64,
}

/// The online re-certification engine. Drive it with one fully
/// shadow-profiled dataset per call while the watchdog sits in fallback;
/// abort it if the watchdog recovers on its own (drift reverted).
#[derive(Debug, Clone)]
pub struct RecertEngine {
    config: RecertConfig,
    spec: QualitySpec,
    /// Per-attempt test confidence: `1 − α/max_attempts`.
    attempt_confidence: Confidence,
    phase: RecertPhase,
    window: Vec<DatasetProfile>,
    /// Window length at which the next selection fires.
    next_select_at: usize,
    candidate: Option<Candidate>,
    test: SequentialBinomial,
    attempt: u64,
    // Lifetime accounting (survives resets between triggers).
    total_attempts: u64,
    swaps: u64,
    calibration_datasets: u64,
    exhausted_runs: u64,
    healthy_streak: u64,
}

impl RecertEngine {
    /// Creates an engine for the given certified quality spec.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InvalidConfig`] for invalid tuning.
    pub fn new(spec: QualitySpec, config: RecertConfig) -> Result<Self> {
        config.validate()?;
        let alpha = spec.confidence.alpha() / config.max_attempts as f64;
        let attempt_confidence =
            Confidence::new(1.0 - alpha).map_err(|_| MithraError::InvalidConfig {
                parameter: "max_attempts",
                constraint: "1 - alpha/max_attempts must be a valid confidence",
            })?;
        Ok(Self {
            config,
            spec,
            attempt_confidence,
            phase: RecertPhase::Idle,
            window: Vec::new(),
            next_select_at: config.select_after,
            candidate: None,
            test: SequentialBinomial::new(),
            attempt: 0,
            total_attempts: 0,
            swaps: 0,
            calibration_datasets: 0,
            exhausted_runs: 0,
            healthy_streak: 0,
        })
    }

    /// Whether the closed loop is armed at all.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The engine's current phase.
    pub fn phase(&self) -> RecertPhase {
        self.phase
    }

    /// Epochs swapped in so far (0 before the first re-certification).
    pub fn epoch(&self) -> u64 {
        self.swaps
    }

    /// Lifetime counters.
    pub fn report(&self) -> RecertReport {
        RecertReport {
            attempts: self.total_attempts,
            swaps: self.swaps,
            calibration_datasets: self.calibration_datasets,
            exhausted: self.exhausted_runs,
        }
    }

    /// Drops any in-flight calibration state (window, frozen candidate,
    /// test). Call when the watchdog recovers on its own — the drift
    /// reverted and the *original* certificate is back in force, so the
    /// evidence collected against the drifted distribution is stale.
    pub fn abort(&mut self) {
        self.phase = RecertPhase::Idle;
        self.window.clear();
        self.next_select_at = self.config.select_after;
        self.candidate = None;
        self.test.reset();
        self.attempt = 0;
        self.healthy_streak = 0;
    }

    /// Reports one serving checkpoint's health (one dataset, one batch —
    /// whatever granularity the host loop uses). A degraded checkpoint
    /// resets the streak; [`RecertConfig::abort_after_healthy`]
    /// consecutive healthy ones abort any in-flight collection or
    /// certification via [`RecertEngine::abort`] — the guard recovered on
    /// its own, so the window describes a distribution that no longer
    /// serves traffic. Returns `true` when this call aborted in-flight
    /// work. Inert while the engine is idle, exhausted or disabled.
    pub fn note_health(&mut self, healthy: bool) -> bool {
        if !self.config.enabled {
            return false;
        }
        if healthy {
            self.healthy_streak += 1;
        } else {
            self.healthy_streak = 0;
        }
        let in_flight = !matches!(self.phase, RecertPhase::Idle | RecertPhase::Exhausted);
        if in_flight && self.healthy_streak >= self.config.abort_after_healthy {
            self.abort();
            return true;
        }
        false
    }

    /// Feeds one fully shadow-profiled calibration dataset observed while
    /// the watchdog is in fallback. Returns the new epoch's artifacts when
    /// this dataset completes a re-certification.
    ///
    /// # Errors
    ///
    /// Propagates classifier-training and statistics failures.
    pub fn observe(
        &mut self,
        function: &AcceleratedFunction,
        profile: DatasetProfile,
    ) -> Result<Option<RecertOutcome>> {
        if !self.config.enabled || self.phase == RecertPhase::Exhausted {
            return Ok(None);
        }
        self.calibration_datasets += 1;
        if self.phase == RecertPhase::Idle {
            self.phase = RecertPhase::Collecting;
        }

        if self.phase == RecertPhase::Certifying {
            // Score the frozen pair on this FRESH dataset before it joins
            // the window: certification data and selection data must stay
            // disjoint or the test is answering a question about data it
            // was chosen on.
            let cand = self.candidate.as_mut().expect("certifying has a candidate");
            let replay = replay_routed(function, &profile, &mut cand.router);
            let success = replay.quality_loss <= self.spec.max_quality_loss;
            self.test.observe(success);
            self.window.push(profile);

            if self
                .test
                .certifies(self.spec.success_rate, self.attempt_confidence)?
            {
                return Ok(Some(self.swap()));
            }
            if self.test.trials() >= self.config.max_certify_trials {
                // Budget spent: abandon the candidate and collect more
                // evidence before reselecting on the larger window.
                self.candidate = None;
                self.test.reset();
                if self.attempt >= self.config.max_attempts {
                    self.phase = RecertPhase::Exhausted;
                    self.exhausted_runs += 1;
                } else {
                    self.phase = RecertPhase::Collecting;
                    self.next_select_at = self.window.len() + self.config.select_after;
                }
            }
            return Ok(None);
        }

        // Collecting.
        self.window.push(profile);
        if self.window.len() >= self.next_select_at {
            self.attempt += 1;
            self.total_attempts += 1;
            match self.select(function)? {
                Some(candidate) => {
                    self.candidate = Some(candidate);
                    self.test.reset();
                    self.phase = RecertPhase::Certifying;
                }
                None => {
                    // Nothing selectable above the vacuity floor: consume
                    // the attempt and keep collecting, or give up.
                    if self.attempt >= self.config.max_attempts {
                        self.phase = RecertPhase::Exhausted;
                        self.exhausted_runs += 1;
                    } else {
                        self.next_select_at = self.window.len() + self.config.select_after;
                    }
                }
            }
        }
        Ok(None)
    }

    /// Emits the outcome for the just-certified candidate and resets the
    /// per-trigger state for a future drift episode.
    fn swap(&mut self) -> RecertOutcome {
        let cand = self.candidate.take().expect("swap requires a candidate");
        self.swaps += 1;
        // Recalibrate the watchdog limit against the NEW pair on the
        // drifted window (selection + certification datasets): the old
        // limit described the old pair on the old distribution.
        let watchdog = watchdog::calibrate_mixture(
            &cand.router,
            std::slice::from_ref(&self.window),
            cand.threshold,
            self.config.threads,
        )
        .config(self.spec.confidence);
        let outcome = RecertOutcome {
            epoch: self.swaps,
            threshold: cand.threshold,
            router: cand.router,
            watchdog,
            certify_trials: self.test.trials(),
            attempts: self.attempt,
            calibration_datasets: self.calibration_datasets,
        };
        self.abort();
        outcome
    }

    /// Selects the candidate whose **deployed** replay meets the
    /// margin-tightened quality target on every window dataset while
    /// admitting the most invocations. Returns `None` when the best such
    /// candidate is vacuous (invocation rate below the floor).
    fn select(&mut self, function: &AcceleratedFunction) -> Result<Option<Candidate>> {
        // Hold out the tail of the window: routers train on the head and
        // every probe is scored on datasets the trainer never saw.
        // Scoring a probe on its own training datasets is systematically
        // optimistic (the tables memorize the training buckets), which
        // froze candidates that looked clean on the window and then
        // failed certification on fresh traffic. The head is the profile
        // table of a pool of one, so the holdout is split off the window
        // for the selection and put back after it.
        let holdout = (self.window.len() / 3).max(1);
        let eval = self.window.split_off(self.window.len() - holdout);
        let fit = [std::mem::take(&mut self.window)];
        let selected = self.select_on(function, &fit, &eval);
        let [mut window] = fit;
        window.extend(eval);
        self.window = window;
        selected
    }

    /// [`select`](Self::select) over the fit head `fit` (one pool member's
    /// profiles) and the held-out tail `eval`.
    fn select_on(
        &self,
        function: &AcceleratedFunction,
        fit: &[Vec<DatasetProfile>; 1],
        eval: &[DatasetProfile],
    ) -> Result<Option<Candidate>> {
        // Margin tightens geometrically with each retry: a candidate that
        // failed certification was too close to the boundary.
        let margin = self
            .config
            .selection_margin
            .powi(self.attempt.min(8) as i32);
        let target = self.spec.max_quality_loss * margin;

        let mut errors: Vec<f32> = fit[0]
            .iter()
            .flat_map(|p| p.errors().iter().copied())
            .collect();
        errors.sort_by(f32::total_cmp);
        if errors.is_empty() {
            return Ok(None);
        }

        let spec = PoolSpec::single(function.npu().topology().clone());
        let mut trainer = RouterTrainer::new(
            &spec,
            fit,
            &self.config.table_design,
            self.config.train_samples,
            self.config.seed ^ self.attempt.wrapping_mul(SEED_MIX),
            self.config.threads,
        )?;

        // Probe thresholds at evenly spaced quantiles of the window's
        // error distribution and keep the quality-passing candidate that
        // admits the most work. A bisection for the loosest passing
        // threshold would be wrong here: each probe retrains the deployed
        // router, and past the point where rejects stop being separable
        // the trainer degrades to an all-reject ensemble whose replay
        // passes the quality target *vacuously* — monotone search then
        // converges on exactly those vacuous candidates.
        let probes = self.config.select_iterations.max(1) as usize;
        let mut best: Option<(f32, RouteClassifier, f64)> = None;
        let mut last = f32::NAN;
        for i in 1..=probes {
            let q = i as f64 / (probes + 1) as f64;
            let idx = ((errors.len() - 1) as f64 * q).round() as usize;
            let threshold = errors[idx].max(1e-6);
            if threshold == last {
                continue;
            }
            last = threshold;
            let mut router = trainer.train(threshold)?;
            let mut rate_sum = 0.0f64;
            let passes = eval.iter().all(|profile| {
                let replay = replay_routed(function, profile, &mut router);
                rate_sum += replay.invocation_rate();
                replay.quality_loss <= target
            });
            let rate = rate_sum / eval.len() as f64;
            if passes && best.as_ref().is_none_or(|(_, _, r)| rate > *r) {
                best = Some((threshold, router, rate));
            }
        }
        Ok(best
            .filter(|(_, _, rate)| *rate >= self.config.min_invocation_rate)
            .map(|(threshold, router, _)| Candidate { threshold, router }))
    }
}

/// Replays `profile` with `router` deciding every invocation.
fn replay_routed(
    function: &AcceleratedFunction,
    profile: &DatasetProfile,
    router: &mut RouteClassifier,
) -> ReplayOutcome {
    profile.replay_with(function, |i, input| {
        Decision::from_reject(router.classify_route(i, input).is_precise())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::pipeline::{compile, quantizer_from_profiles, CompileConfig};
    use crate::table::TableClassifier;
    use crate::training::generate_training_data;
    use mithra_axbench::dataset::{DatasetScale, DriftSpec};
    use mithra_axbench::suite;
    use std::sync::Arc;

    fn compiled_sobel() -> crate::pipeline::Compiled {
        let bench: Arc<dyn mithra_axbench::benchmark::Benchmark> =
            suite::by_name("sobel").unwrap().into();
        compile(bench, &CompileConfig::smoke()).unwrap()
    }

    fn drifted_profile(
        compiled: &crate::pipeline::Compiled,
        seed: u64,
        drift: &DriftSpec,
    ) -> DatasetProfile {
        let ds = compiled
            .function
            .dataset(seed, DatasetScale::Smoke)
            .drifted(drift);
        DatasetProfile::collect(&compiled.function, ds)
    }

    fn mild_drift() -> DriftSpec {
        DriftSpec {
            scale: 1.25,
            offset: 0.15,
            noise_std: 0.0,
            seed: 41,
        }
    }

    #[test]
    fn off_engine_is_inert() {
        let compiled = compiled_sobel();
        let spec = QualitySpec::paper_default(0.1).unwrap();
        let mut engine = RecertEngine::new(spec, RecertConfig::off()).unwrap();
        for s in 0..5 {
            let p = drifted_profile(&compiled, 9_000_000 + s, &mild_drift());
            assert!(engine.observe(&compiled.function, p).unwrap().is_none());
        }
        assert_eq!(engine.phase(), RecertPhase::Idle);
        assert_eq!(engine.report(), RecertReport::default());
    }

    #[test]
    fn config_validation_rejects_degenerate_tuning() {
        let mut cfg = RecertConfig::paper_default();
        cfg.select_after = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = RecertConfig::paper_default();
        cfg.selection_margin = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = RecertConfig::paper_default();
        cfg.max_attempts = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn engine_recertifies_under_mild_drift_and_pair_holds() {
        // The end-to-end core loop: drifted calibration traffic in, a
        // certified (threshold, router) pair out, and that pair holds
        // its quality target on unseen drifted datasets.
        let compiled = compiled_sobel();
        let spec = QualitySpec::new(0.1, 0.9, 0.8).unwrap();
        let mut cfg = RecertConfig::paper_default();
        cfg.select_after = 8;
        cfg.train_samples = 1_500;
        cfg.select_iterations = 6;
        let mut engine = RecertEngine::new(spec, cfg).unwrap();
        let drift = mild_drift();

        let mut outcome = None;
        for s in 0..80u64 {
            let p = drifted_profile(&compiled, 9_100_000 + s, &drift);
            if let Some(o) = engine.observe(&compiled.function, p).unwrap() {
                outcome = Some(o);
                break;
            }
        }
        let outcome = outcome.expect("mild drift must re-certify within 80 datasets");
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.threshold > 0.0, "non-vacuous threshold");
        assert!(outcome.certify_trials > 0);
        assert_eq!(
            engine.phase(),
            RecertPhase::Idle,
            "engine resets after swap"
        );
        assert_eq!(engine.epoch(), 1);

        // The re-certified pair on fresh drifted datasets. The
        // certificate says "at least S = 80% of unseen datasets meet q"
        // — a sample of 20 can sit a little under S without contradicting
        // it, so assert a floor one binomial standard deviation below.
        let mut ok = 0u32;
        let n = 20u32;
        for s in 0..n {
            let p = drifted_profile(&compiled, 9_200_000 + u64::from(s), &drift);
            let replay = replay_routed(&compiled.function, &p, &mut outcome.router.clone());
            if replay.quality_loss <= spec.max_quality_loss {
                ok += 1;
            }
        }
        assert!(
            ok >= 14,
            "re-certified pair held on only {ok}/{n} unseen datasets"
        );
    }

    /// The table a selection probe trained before selection went through
    /// [`RouterTrainer`]: a fresh labeled sample and a cold table-grid
    /// training at every probe, nothing prepared once or memoized.
    fn reference_table(
        engine: &RecertEngine,
        fit: &[DatasetProfile],
        threshold: f32,
    ) -> TableClassifier {
        let seed = engine.config.seed ^ engine.attempt.wrapping_mul(SEED_MIX);
        let data = generate_training_data(fit, threshold, engine.config.train_samples, seed);
        TableClassifier::train_with_threads(
            engine.config.table_design,
            quantizer_from_profiles(fit),
            &data,
            engine.config.threads,
        )
        .unwrap()
    }

    /// `select` over the engine's current window and attempt, written
    /// against [`reference_table`], each replay deciding through a fresh
    /// copy of the table.
    fn reference_select(
        engine: &RecertEngine,
        function: &AcceleratedFunction,
    ) -> Option<(f32, TableClassifier)> {
        let margin = engine
            .config
            .selection_margin
            .powi(engine.attempt.min(8) as i32);
        let target = engine.spec.max_quality_loss * margin;
        let holdout = (engine.window.len() / 3).max(1);
        let (fit, eval) = engine.window.split_at(engine.window.len() - holdout);
        let mut errors: Vec<f32> = fit.iter().flat_map(|p| p.errors().to_vec()).collect();
        errors.sort_by(f32::total_cmp);
        if errors.is_empty() {
            return None;
        }
        let probes = engine.config.select_iterations.max(1) as usize;
        let mut best: Option<(f32, TableClassifier, f64)> = None;
        let mut last = f32::NAN;
        for i in 1..=probes {
            let q = i as f64 / (probes + 1) as f64;
            let threshold = errors[((errors.len() - 1) as f64 * q).round() as usize].max(1e-6);
            if threshold == last {
                continue;
            }
            last = threshold;
            let table = reference_table(engine, fit, threshold);
            let mut rate_sum = 0.0f64;
            let mut passes = true;
            for profile in eval {
                let mut deployed = table.clone();
                let replay = profile.replay_with(function, |i, input| deployed.classify(i, input));
                if replay.quality_loss > target {
                    passes = false;
                    break;
                }
                rate_sum += replay.invocation_rate();
            }
            let rate = rate_sum / eval.len() as f64;
            if passes && best.as_ref().is_none_or(|(_, _, r)| rate > *r) {
                best = Some((threshold, table, rate));
            }
        }
        best.filter(|(_, _, rate)| *rate >= engine.config.min_invocation_rate)
            .map(|(threshold, table, _)| (threshold, table))
    }

    #[test]
    fn selection_through_the_prepared_trainer_matches_per_probe_training() {
        // Every selection freezes the pair the memo-free reference
        // freezes on the same window, and the outcome carries that pair,
        // the watchdog limit the table's own calibration gives, and the
        // trial count of a reference test fed the table's replays.
        let compiled = compiled_sobel();
        let function = &compiled.function;
        let spec = QualitySpec::new(0.1, 0.9, 0.8).unwrap();
        let drift = mild_drift();
        let mut stream: Vec<DatasetProfile> = Vec::new();
        for threads in [Some(1), Some(2)] {
            let mut cfg = RecertConfig::paper_default();
            cfg.select_after = 8;
            cfg.train_samples = 1_500;
            cfg.select_iterations = 6;
            cfg.threads = threads;
            let mut engine = RecertEngine::new(spec, cfg).unwrap();
            let mut window: Vec<DatasetProfile> = Vec::new();
            let mut frozen: Option<(f32, TableClassifier)> = None;
            let mut test = SequentialBinomial::new();
            let mut selections = 0u64;
            let mut outcome = None;
            for s in 0..80usize {
                if stream.len() == s {
                    stream.push(drifted_profile(&compiled, 9_100_000 + s as u64, &drift));
                }
                let profile = stream[s].clone();
                if let Some((_, table)) = &frozen {
                    let mut deployed = table.clone();
                    let replay =
                        profile.replay_with(function, |i, input| deployed.classify(i, input));
                    test.observe(replay.quality_loss <= spec.max_quality_loss);
                }
                window.push(profile.clone());
                let attempt = engine.attempt;
                let out = engine.observe(function, profile).unwrap();
                if engine.attempt > attempt {
                    selections += 1;
                    assert!(engine.window == window, "selection puts the holdout back");
                    frozen = reference_select(&engine, function);
                    test.reset();
                    let at = format!("{threads:?} threads, attempt {}", engine.attempt);
                    let candidate = engine.candidate.as_ref();
                    let got = candidate.map(|c| c.threshold);
                    assert_eq!(got, frozen.as_ref().map(|(t, _)| *t), "{at}: threshold");
                    let want = frozen.as_ref().map(|(_, table)| table.clone());
                    let same = candidate.map(|c| c.router.clone())
                        == want.map(|table| RouteClassifier::from_stages(vec![table]));
                    assert!(same, "{at}: the frozen router is not the reference table");
                } else if out.is_some() {
                    outcome = out;
                    break;
                } else if engine.phase() != RecertPhase::Certifying {
                    frozen = None;
                }
            }
            let outcome = outcome.expect("mild drift must re-certify within 80 datasets");
            let (threshold, table) = frozen.expect("a swap follows a frozen candidate");
            assert!(test
                .certifies(spec.success_rate, engine.attempt_confidence)
                .unwrap());
            let watchdog =
                watchdog::calibrate(&mut table.clone(), &window, threshold, spec.confidence)
                    .unwrap();
            assert_eq!(outcome.epoch, 1);
            assert_eq!(outcome.threshold, threshold);
            assert!(outcome.router == RouteClassifier::from_stages(vec![table]));
            assert_eq!(outcome.watchdog, watchdog);
            assert_eq!(outcome.certify_trials, test.trials());
            assert_eq!(outcome.calibration_datasets, window.len() as u64);
            assert_eq!(outcome.attempts, selections);
            assert!(outcome.certify_trials > 0);
        }
    }

    #[test]
    fn abort_drops_inflight_state_but_keeps_lifetime_counters() {
        let compiled = compiled_sobel();
        let spec = QualitySpec::paper_default(0.1).unwrap();
        let mut cfg = RecertConfig::paper_default();
        cfg.select_after = 4;
        cfg.train_samples = 500;
        cfg.select_iterations = 4;
        let mut engine = RecertEngine::new(spec, cfg).unwrap();
        for s in 0..4 {
            let p = drifted_profile(&compiled, 9_300_000 + s, &mild_drift());
            engine.observe(&compiled.function, p).unwrap();
        }
        assert_ne!(engine.phase(), RecertPhase::Idle);
        let datasets_before = engine.report().calibration_datasets;
        engine.abort();
        assert_eq!(engine.phase(), RecertPhase::Idle);
        assert_eq!(engine.report().calibration_datasets, datasets_before);
    }

    #[test]
    fn certification_never_uses_selection_data() {
        // White-box: once Certifying, the e-process trial count must equal
        // the datasets fed AFTER selection fired, never the window size.
        let compiled = compiled_sobel();
        let spec = QualitySpec::new(0.1, 0.9, 0.8).unwrap();
        let mut cfg = RecertConfig::paper_default();
        cfg.select_after = 6;
        cfg.train_samples = 800;
        cfg.select_iterations = 4;
        let mut engine = RecertEngine::new(spec, cfg).unwrap();
        let drift = mild_drift();
        let mut fed_after_select = 0u64;
        for s in 0..30u64 {
            let was_certifying = engine.phase() == RecertPhase::Certifying;
            let p = drifted_profile(&compiled, 9_400_000 + s, &drift);
            let done = engine.observe(&compiled.function, p).unwrap().is_some();
            if was_certifying {
                fed_after_select += 1;
            }
            if done {
                break;
            }
            if engine.phase() == RecertPhase::Certifying {
                assert_eq!(engine.test.trials(), fed_after_select);
            }
        }
    }

    #[test]
    fn window_invocation_rate_floor_rejects_vacuous_candidates() {
        // A floor of 1.0 is unreachable: selection must decline, consume
        // attempts, and eventually exhaust rather than swap in an
        // all-precise pair.
        let compiled = compiled_sobel();
        let spec = QualitySpec::new(0.1, 0.9, 0.8).unwrap();
        let mut cfg = RecertConfig::paper_default();
        cfg.select_after = 4;
        cfg.max_attempts = 2;
        cfg.train_samples = 500;
        cfg.select_iterations = 3;
        cfg.min_invocation_rate = 1.0;
        let mut engine = RecertEngine::new(spec, cfg).unwrap();
        let drift = mild_drift();
        for s in 0..12u64 {
            let p = drifted_profile(&compiled, 9_600_000 + s, &drift);
            let out = engine.observe(&compiled.function, p).unwrap();
            assert!(out.is_none(), "vacuous candidate must never swap");
        }
        assert_eq!(engine.phase(), RecertPhase::Exhausted);
        assert_eq!(engine.report().exhausted, 1);
        assert_eq!(engine.report().swaps, 0);
    }
}
