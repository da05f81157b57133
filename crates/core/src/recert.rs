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
//! 2. **selects** a new operating point on that window: re-runs the
//!    threshold bisection with the *re-trained deployed classifier in the
//!    loop* (the PR-6 lesson: an oracle-only certificate collapses on
//!    unseen data) against a margin-tightened quality target, then
//!    **freezes** the `(threshold, classifier)` pair;
//! 3. **certifies** the frozen pair on *subsequent* fresh datasets only —
//!    never on the selection window, which would double-dip — under the
//!    always-valid sequential test ([`mithra_stats::sequential`]). The
//!    engine peeks after every dataset, so a naive repeated
//!    Clopper–Pearson test would silently spend its α; the e-process is
//!    safe under continuous monitoring by construction.
//!
//! Once the pair certifies, the engine emits a [`RecertOutcome`]: the new
//! epoch's artifacts plus a watchdog limit recalibrated against the new
//! pair on the drifted window. The caller hot-swaps them into serving and
//! forces the watchdog back to [`GuardState::Monitoring`] — the
//! statistical justification for re-enabling is the fresh sequential
//! certificate, not the watchdog's recovery test (which judges the *old*
//! operating point).
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

use crate::function::AcceleratedFunction;
use crate::pipeline::quantizer_from_profiles;
use crate::profile::DatasetProfile;
use crate::table::{TableClassifier, TableDesign};
use crate::threshold::QualitySpec;
use crate::training::generate_training_data;
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
    /// Training tuples sampled from the window per classifier retrain.
    pub train_samples: usize,
    /// Table-classifier design for retrained candidates.
    pub table_design: TableDesign,
    /// Consecutive healthy serving checkpoints (reported through
    /// [`RecertEngine::note_health`]) after which an in-flight collection
    /// or certification is aborted: the guard recovered *on its own*, so
    /// the window describes a distribution that no longer serves traffic.
    /// Kept well above one because a degradation ladder near its limit
    /// flaps — a single healthy checkpoint is not proof of recovery.
    pub abort_after_healthy: u64,
    /// Quantile probes per selection (each retrains the classifier).
    pub select_iterations: u32,
    /// Seed for training-tuple sampling (attempt-salted).
    pub seed: u64,
    /// Worker threads for selection replays (`Some(1)` = sequential).
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

/// A frozen `(threshold, classifier)` pair under sequential certification.
#[derive(Debug, Clone)]
struct Candidate {
    threshold: f32,
    classifier: TableClassifier,
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
    /// The re-trained deployed classifier, certified as deployed.
    pub classifier: TableClassifier,
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

    /// The tuning this engine runs with.
    pub fn config(&self) -> &RecertConfig {
        &self.config
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
            let cand = self.candidate.as_ref().expect("certifying has a candidate");
            let mut deployed = cand.classifier.clone();
            let replay = profile.replay_with_classifier(function, &mut deployed, cand.threshold, 0);
            let success = replay.quality_loss <= self.spec.max_quality_loss;
            self.test.observe(success);
            self.window.push(profile);

            if self
                .test
                .certifies(self.spec.success_rate, self.attempt_confidence)?
            {
                return Ok(Some(self.swap()?));
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
    fn swap(&mut self) -> Result<RecertOutcome> {
        let cand = self.candidate.take().expect("swap requires a candidate");
        self.swaps += 1;
        // Recalibrate the watchdog limit against the NEW pair on the
        // drifted window (selection + certification datasets): the old
        // limit described the old pair on the old distribution.
        let mut calibrated = cand.classifier.clone();
        let wconfig = watchdog::calibrate(
            &mut calibrated,
            &self.window,
            cand.threshold,
            self.spec.confidence,
        )?;
        let outcome = RecertOutcome {
            epoch: self.swaps,
            threshold: cand.threshold,
            classifier: cand.classifier,
            watchdog: wconfig,
            certify_trials: self.test.trials(),
            attempts: self.attempt,
            calibration_datasets: self.calibration_datasets,
        };
        self.abort();
        Ok(outcome)
    }

    /// Selects the candidate whose **deployed** replay meets the
    /// margin-tightened quality target on every window dataset while
    /// admitting the most invocations. Returns `None` when the best such
    /// candidate is vacuous (invocation rate below the floor).
    fn select(&self, function: &AcceleratedFunction) -> Result<Option<Candidate>> {
        // Margin tightens geometrically with each retry: a candidate that
        // failed certification was too close to the boundary.
        let margin = self
            .config
            .selection_margin
            .powi(self.attempt.min(8) as i32);
        let target = self.spec.max_quality_loss * margin;

        // Hold out the tail of the window: classifiers train on the head
        // and every probe is scored on datasets the trainer never saw.
        // Scoring a probe on its own training datasets is systematically
        // optimistic (the tables memorize the training buckets), which
        // froze candidates that looked clean on the window and then
        // failed certification on fresh traffic.
        let holdout = (self.window.len() / 3).max(1);
        let (fit, eval) = self.window.split_at(self.window.len() - holdout);
        if fit.is_empty() {
            return Ok(None);
        }

        let mut errors: Vec<f32> = fit
            .iter()
            .flat_map(|p| p.errors().iter().copied())
            .collect();
        errors.sort_by(f32::total_cmp);
        if errors.is_empty() {
            return Ok(None);
        }

        let probe = |threshold: f32| -> Result<Option<(TableClassifier, f64)>> {
            let classifier = self.train_at(fit, threshold)?;
            let mut rate_sum = 0.0f64;
            for profile in eval {
                let mut deployed = classifier.clone();
                let replay = profile.replay_with_classifier(function, &mut deployed, threshold, 0);
                if replay.quality_loss > target {
                    return Ok(None);
                }
                rate_sum += replay.invocation_rate();
            }
            Ok(Some((classifier, rate_sum / eval.len() as f64)))
        };

        // Probe thresholds at evenly spaced quantiles of the window's
        // error distribution and keep the quality-passing candidate that
        // admits the most work. A bisection for the loosest passing
        // threshold would be wrong here: each probe retrains the deployed
        // classifier, and past the point where rejects stop being
        // separable the trainer degrades to an all-reject ensemble whose
        // replay passes the quality target *vacuously* — monotone search
        // then converges on exactly those vacuous candidates.
        let probes = self.config.select_iterations.max(1) as usize;
        let mut best: Option<(f32, TableClassifier, f64)> = None;
        let mut last = f32::NAN;
        for i in 1..=probes {
            let q = i as f64 / (probes + 1) as f64;
            let idx = ((errors.len() - 1) as f64 * q).round() as usize;
            let threshold = errors[idx].max(1e-6);
            if threshold == last {
                continue;
            }
            last = threshold;
            if let Some((classifier, rate)) = probe(threshold)? {
                if best.as_ref().is_none_or(|(_, _, r)| rate > *r) {
                    best = Some((threshold, classifier, rate));
                }
            }
        }
        Ok(best
            .filter(|(_, _, rate)| *rate >= self.config.min_invocation_rate)
            .map(|(threshold, classifier, _)| Candidate {
                threshold,
                classifier,
            }))
    }

    /// Retrains the table classifier on `profiles` labeled at `threshold`.
    fn train_at(&self, profiles: &[DatasetProfile], threshold: f32) -> Result<TableClassifier> {
        let seed = self.config.seed ^ self.attempt.wrapping_mul(SEED_MIX);
        let data = generate_training_data(profiles, threshold, self.config.train_samples, seed);
        let quantizer = quantizer_from_profiles(profiles);
        TableClassifier::train_with_threads(
            self.config.table_design,
            quantizer,
            &data,
            self.config.threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileConfig};
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
        // certified (threshold, classifier) pair out, and that pair holds
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
            let mut cls = outcome.classifier.clone();
            let replay =
                p.replay_with_classifier(&compiled.function, &mut cls, outcome.threshold, 0);
            if replay.quality_loss <= spec.max_quality_loss {
                ok += 1;
            }
        }
        assert!(
            ok >= 14,
            "re-certified pair held on only {ok}/{n} unseen datasets"
        );
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
