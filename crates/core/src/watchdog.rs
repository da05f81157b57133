//! The runtime quality watchdog: sequential drift detection with graceful
//! precise-fallback degradation.
//!
//! MITHRA's compile-time certificate (paper §III) holds for inputs drawn
//! from the profiled distribution and for the hardware the classifiers
//! were trained against. A deployed system can leave that envelope: SRAM
//! upsets corrupt NPU weights or classifier tables, and the input
//! distribution itself can drift. The watchdog is the runtime guardband:
//! it *sporadically samples* accelerator-admitted invocations (the same
//! sampling hardware the paper's online-update path uses), shadow-executes
//! the precise function, and runs a one-sided sequential test on the
//! observed threshold-violation rate using the same Clopper–Pearson
//! machinery as the compile-time certificate:
//!
//! * the **breach** test asks whether, at confidence β, the true violation
//!   rate of admitted invocations *exceeds* the calibrated limit (the
//!   exact lower confidence bound clears the limit);
//! * the **recovery** test asks whether the *observed* rate over a full
//!   recovery window is within the limit. Recovery is deliberately a
//!   point estimate, not an exact bound — with a 5% limit the exact upper
//!   bound on a perfectly clean window would need ~60 samples to clear it,
//!   stranding the system in fallback. The [`GuardState::Probing`] stage
//!   is the statistical backstop: a wrong re-enable only exposes a
//!   throttled trickle, and the breach test fires again.
//!
//! Degradation is graceful rather than binary. On a breach the watchdog
//! first **throttles** accelerator admission (1 in `throttle_factor`
//! invocations may still use the NPU — quality exposure drops immediately
//! while evidence accumulates); if the breach persists it falls back to
//! **all-precise** execution; after a recovery window it **probes** with a
//! trickle of accelerator invocations and re-enables full admission only
//! when the violation rate tests clean again. A transient fault costs a
//! bounded quality excursion; a permanent fault costs speedup, never the
//! certified quality target.
//!
//! Everything is deterministic: the same sample stream produces the same
//! transitions, which the robustness property tests rely on.

use crate::classifier::Classifier;
use crate::parallel::par_map_indexed;
use crate::profile::DatasetProfile;
use crate::route::{RouteChoice, RouteClassifier};
use crate::Result;
use mithra_stats::clopper_pearson::{lower_bound, Confidence};
use serde::{Deserialize, Serialize};

/// The watchdog's degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardState {
    /// Full accelerator admission; the sequential test watches for a
    /// breach.
    Monitoring,
    /// Breach detected: 1 in `throttle_factor` admissions still reach the
    /// accelerator while evidence accumulates.
    Throttled,
    /// Persistent breach: every invocation runs precise. Sampling
    /// continues on shadow accelerator outputs so recovery is detectable.
    Fallback,
    /// Recovery window passed: a trickle of accelerator invocations probes
    /// whether full admission is safe again.
    Probing,
}

impl std::fmt::Display for GuardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GuardState::Monitoring => "monitoring",
            GuardState::Throttled => "throttled",
            GuardState::Fallback => "fallback",
            GuardState::Probing => "probing",
        };
        f.write_str(s)
    }
}

/// Tuning for the sequential test and the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Calibrated ceiling on the violation rate of admitted invocations.
    /// The compile-time certificate tolerates a small false-negative rate;
    /// the limit sits above the clean-run rate with a guardband (see
    /// [`calibrate`]).
    pub max_violation_rate: f64,
    /// Confidence of both one-sided tests.
    pub confidence: Confidence,
    /// Samples required before the sequential test may fire. Small enough
    /// to react within one dataset, large enough that a single unlucky
    /// sample cannot trip it.
    pub min_samples: u64,
    /// In [`GuardState::Throttled`] and [`GuardState::Probing`], one in
    /// this many accelerator admissions goes through.
    pub throttle_factor: u64,
    /// Shadow samples to accumulate in [`GuardState::Fallback`] before
    /// testing for recovery.
    pub recovery_samples: u64,
    /// Samples to accumulate in [`GuardState::Probing`] before deciding
    /// between re-enabling and falling back again.
    pub probe_samples: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            max_violation_rate: 0.05,
            confidence: Confidence::new(0.95).expect("0.95 is a valid confidence"),
            min_samples: 12,
            throttle_factor: 4,
            recovery_samples: 24,
            probe_samples: 12,
        }
    }
}

/// One recorded rung change of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardTransition {
    /// Lifetime shadow-sample count at which the transition fired.
    pub at_sample: u64,
    /// State left.
    pub from: GuardState,
    /// State entered.
    pub to: GuardState,
}

/// Shadow samples spent in each [`GuardState`] — the watchdog's clock is
/// its sample stream, so these are a deterministic time-in-state measure
/// (proportional to wall invocations at a fixed sampling period).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateResidence {
    /// Samples observed while in [`GuardState::Monitoring`].
    pub monitoring: u64,
    /// Samples observed while in [`GuardState::Throttled`].
    pub throttled: u64,
    /// Samples observed while in [`GuardState::Fallback`].
    pub fallback: u64,
    /// Samples observed while in [`GuardState::Probing`].
    pub probing: u64,
}

impl StateResidence {
    /// Total samples across all states.
    pub fn total(&self) -> u64 {
        self.monitoring + self.throttled + self.fallback + self.probing
    }

    /// Element-wise accumulation (folding shard residences into an
    /// endpoint total).
    pub fn merge(&mut self, other: &StateResidence) {
        self.monitoring += other.monitoring;
        self.throttled += other.throttled;
        self.fallback += other.fallback;
        self.probing += other.probing;
    }

    fn bump(&mut self, state: GuardState) {
        match state {
            GuardState::Monitoring => self.monitoring += 1,
            GuardState::Throttled => self.throttled += 1,
            GuardState::Fallback => self.fallback += 1,
            GuardState::Probing => self.probing += 1,
        }
    }
}

/// Transition-log capacity. The ladder has four rungs; a healthy system
/// transitions a handful of times, and a flapping one is fully described
/// by its first few dozen transitions plus the drop counter.
const MAX_TRANSITIONS: usize = 64;

/// Summary of a watchdog's run, for reports and figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Final state.
    pub state: GuardState,
    /// Total shadow samples observed.
    pub samples: u64,
    /// Total sampled violations.
    pub violations: u64,
    /// Times the ladder stepped down (into Throttled or Fallback).
    pub breaches: u64,
    /// Times full admission was restored (back to Monitoring).
    pub recoveries: u64,
    /// Samples spent on each rung of the ladder.
    pub time_in: StateResidence,
    /// Rung changes in order, capped at an internal bound.
    pub transitions: Vec<GuardTransition>,
    /// Transitions beyond the log cap (0 unless the ladder flapped).
    pub transitions_dropped: u64,
}

/// The runtime quality watchdog. Feed it with
/// [`QualityWatchdog::admit_route`] on every decision and
/// [`QualityWatchdog::record`] on every shadow sample.
#[derive(Debug, Clone)]
pub struct QualityWatchdog {
    config: WatchdogConfig,
    state: GuardState,
    // Current evidence window.
    samples: u64,
    violations: u64,
    // Deterministic trickle counter for throttled/probing admission.
    admissions_seen: u64,
    // Lifetime accounting.
    total_samples: u64,
    total_violations: u64,
    breaches: u64,
    recoveries: u64,
    residence: StateResidence,
    transitions: Vec<GuardTransition>,
    transitions_dropped: u64,
}

impl QualityWatchdog {
    /// A watchdog in [`GuardState::Monitoring`] with the given tuning.
    pub fn new(config: WatchdogConfig) -> Self {
        Self {
            config,
            state: GuardState::Monitoring,
            samples: 0,
            violations: 0,
            admissions_seen: 0,
            total_samples: 0,
            total_violations: 0,
            breaches: 0,
            recoveries: 0,
            residence: StateResidence::default(),
            transitions: Vec::new(),
            transitions_dropped: 0,
        }
    }

    /// A fresh watchdog with this one's tuning but none of its evidence:
    /// still in [`GuardState::Monitoring`] with empty windows and counters.
    /// This is how a sharded serving worker derives its own guard from an
    /// endpoint's calibrated prototype — calibration runs once per
    /// compiled artifact, then every worker forks the prototype, so each shard
    /// guards its own traffic without sharing mutable state (a `clone`
    /// would smuggle one shard's evidence into another's test).
    pub fn fork(&self) -> Self {
        Self::new(self.config)
    }

    /// Current rung of the degradation ladder.
    pub fn state(&self) -> GuardState {
        self.state
    }

    /// The tuning this watchdog runs with.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Gates one routed decision through the current state: a pool
    /// member's route is admitted or overridden to the precise fallback; a
    /// precise route passes through untouched. Call this on *every*
    /// invocation; it is a counter bump and a match — no statistics.
    pub fn admit_route(&mut self, route: RouteChoice) -> RouteChoice {
        if route.is_precise() {
            return route;
        }
        let admitted = match self.state {
            GuardState::Monitoring => true,
            GuardState::Fallback => false,
            GuardState::Throttled | GuardState::Probing => {
                self.admissions_seen += 1;
                self.admissions_seen
                    .is_multiple_of(self.config.throttle_factor)
            }
        };
        if admitted {
            route
        } else {
            RouteChoice::Precise
        }
    }

    /// Feeds one shadow sample: did a sampled accelerator-bound invocation
    /// violate the certified threshold? Returns the new state when this
    /// sample causes a transition.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MithraError::Stats`] from the exact bounds
    /// (cannot occur for the count invariants this type maintains).
    pub fn record(&mut self, violation: bool) -> Result<Option<GuardState>> {
        self.samples += 1;
        self.total_samples += 1;
        self.residence.bump(self.state);
        if violation {
            self.violations += 1;
            self.total_violations += 1;
        }
        let limit = self.config.max_violation_rate;
        let conf = self.config.confidence;
        let next = match self.state {
            GuardState::Monitoring => {
                if self.samples >= self.config.min_samples && self.breached(conf, limit)? {
                    Some(GuardState::Throttled)
                } else {
                    // Forget stale evidence so late-onset drift is not
                    // diluted by a long clean prefix.
                    if self.samples >= 4 * self.config.min_samples {
                        self.reset_window();
                    }
                    None
                }
            }
            GuardState::Throttled => {
                if self.samples >= self.config.min_samples {
                    if self.breached(conf, limit)? {
                        Some(GuardState::Fallback)
                    } else if self.recovered(limit) {
                        Some(GuardState::Monitoring)
                    } else if self.samples >= 4 * self.config.min_samples {
                        self.reset_window();
                        None
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
            GuardState::Fallback => {
                if self.samples >= self.config.recovery_samples {
                    if self.recovered(limit) {
                        Some(GuardState::Probing)
                    } else {
                        // Still dirty: restart the recovery window.
                        self.reset_window();
                        None
                    }
                } else {
                    None
                }
            }
            GuardState::Probing => {
                if self.samples >= self.config.probe_samples {
                    if self.recovered(limit) {
                        Some(GuardState::Monitoring)
                    } else {
                        Some(GuardState::Fallback)
                    }
                } else {
                    None
                }
            }
        };
        if let Some(state) = next {
            match state {
                GuardState::Throttled | GuardState::Fallback => self.breaches += 1,
                GuardState::Monitoring => self.recoveries += 1,
                GuardState::Probing => {}
            }
            if self.transitions.len() < MAX_TRANSITIONS {
                self.transitions.push(GuardTransition {
                    at_sample: self.total_samples,
                    from: self.state,
                    to: state,
                });
            } else {
                self.transitions_dropped += 1;
            }
            self.state = state;
            self.reset_window();
        }
        Ok(next)
    }

    /// Lifetime summary.
    pub fn report(&self) -> WatchdogReport {
        WatchdogReport {
            state: self.state,
            samples: self.total_samples,
            violations: self.total_violations,
            breaches: self.breaches,
            recoveries: self.recoveries,
            time_in: self.residence,
            transitions: self.transitions.clone(),
            transitions_dropped: self.transitions_dropped,
        }
    }

    /// Shadow samples spent on each rung of the ladder so far.
    pub fn residence(&self) -> &StateResidence {
        &self.residence
    }

    /// Forces the ladder onto `state` with a fresh evidence window,
    /// recording the transition. This is the re-certifier's hot-swap
    /// entry point: after certifying a new operating point it re-enables
    /// full admission directly (the statistical justification lives in the
    /// sequential certificate, not in this watchdog's recovery test, which
    /// judges the *old* operating point).
    pub fn force_state(&mut self, state: GuardState) {
        if state == self.state {
            return;
        }
        match state {
            GuardState::Throttled | GuardState::Fallback => self.breaches += 1,
            GuardState::Monitoring => self.recoveries += 1,
            GuardState::Probing => {}
        }
        if self.transitions.len() < MAX_TRANSITIONS {
            self.transitions.push(GuardTransition {
                at_sample: self.total_samples,
                from: self.state,
                to: state,
            });
        } else {
            self.transitions_dropped += 1;
        }
        self.state = state;
        self.reset_window();
    }

    /// Adopts a freshly calibrated tuning, keeping the lifetime counters,
    /// residence and transition log but dropping the current evidence
    /// window — evidence gathered against the *old* operating point says
    /// nothing about the pair the re-certifier just swapped in.
    pub fn reconfigure(&mut self, config: WatchdogConfig) {
        self.config = config;
        self.admissions_seen = 0;
        self.reset_window();
    }

    fn breached(&self, conf: Confidence, limit: f64) -> Result<bool> {
        Ok(lower_bound(self.violations, self.samples, conf)? > limit)
    }

    fn recovered(&self, limit: f64) -> bool {
        self.violations as f64 <= limit * self.samples as f64
    }

    fn reset_window(&mut self) {
        self.samples = 0;
        self.violations = 0;
    }
}

/// Calibrates a watchdog limit from the *clean* certified behaviour: runs
/// the classifier over the given profiles, measures the violation rate of
/// admitted invocations at the certified `threshold`, and sets the limit
/// a guardband above it (see [`limit_config`]). Clean runs then sit far
/// below the limit (the no-false-alarm property), while the fault modes
/// this crate models push the rate past it quickly.
///
/// This is the classifier as the router of a pool of one:
/// [`calibration_counts`] per profile, summed and fed into
/// [`limit_config`]. A compiled artifact does not need it: its compile
/// session ran [`calibrate_mixture`] over the compile profiles and stored
/// the counts (see [`Calibration`]), and the re-certifier counts its
/// fresh one-stage routers with [`calibrate_mixture`] too. It is for a
/// bare classifier over a profile slice.
///
/// # Errors
///
/// Propagates statistics errors from the confidence machinery (none occur
/// for valid inputs).
pub fn calibrate(
    classifier: &mut dyn Classifier,
    profiles: &[DatasetProfile],
    threshold: f32,
    confidence: Confidence,
) -> Result<WatchdogConfig> {
    let (admitted, violations) = profiles.iter().fold((0, 0), |(a, v), profile| {
        let (pa, pv) = calibration_counts(&[profile], threshold, &mut |i, input| {
            classifier.classify(i, input).into()
        });
        (a + pa, v + pv)
    });
    Ok(limit_config(admitted, violations, confidence))
}

/// The counting pass of a calibration over one dataset: `(admitted,
/// violations)` — how many of its invocations `route` sends to a pool
/// member, and how many of those exceed `threshold` on the serving
/// member's profile (`members[m]` is member `m`'s profile of the
/// dataset). Counts over disjoint datasets add up to the counts over all
/// of them for any router whose decisions do not depend on call history
/// (table cascades and neural routers do not).
pub fn calibration_counts(
    members: &[&DatasetProfile],
    threshold: f32,
    route: &mut dyn FnMut(usize, &[f32]) -> RouteChoice,
) -> (u64, u64) {
    let mut admitted = 0u64;
    let mut violations = 0u64;
    for (i, input) in members[0].dataset().iter().enumerate() {
        if let RouteChoice::Member(m) = route(i, input) {
            admitted += 1;
            if members[m].max_error(i) > threshold {
                violations += 1;
            }
        }
    }
    (admitted, violations)
}

/// The clean calibration counts of a deployed artifact: over every
/// compile invocation, how many its router sent to a pool member
/// (`admitted`), and how many of those exceeded the certified threshold on
/// the serving member's compile profile (`violations`).
///
/// The watchdog limit depends only on the artifact's router, compile
/// profiles and threshold, so the compile stage that produces the router
/// counts once ([`calibrate_mixture`]) and stores the counts in the
/// artifact; guarded bring-up applies [`Calibration::config`] to them. An
/// artifact without compile profiles counts nothing, which
/// [`limit_config`] reads as a clean rate of 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Calibration {
    /// Compile invocations routed to a pool member.
    pub admitted: u64,
    /// Of those, invocations whose serving member exceeded the threshold.
    pub violations: u64,
}

impl Calibration {
    /// The watchdog tuning these counts calibrate ([`limit_config`]).
    pub fn config(self, confidence: Confidence) -> WatchdogConfig {
        limit_config(self.admitted, self.violations, confidence)
    }
}

/// The mixture calibration pass: the clean counts of `router` over the
/// compile profile table `member_profiles` (`[m][d]` is member `m`'s
/// profile of compile dataset `d`) at the certified `threshold`.
///
/// The pass fans out over the compile datasets on up to `threads`
/// workers. Each dataset is routed through its own copy of the router and
/// every admission is judged against the serving member's profile
/// ([`calibration_counts`]). Router decisions do not depend on call
/// history and the per-dataset counts are integers, so the sum equals a
/// sequential count over the datasets in order; for a pool of one behind
/// its table that is [`calibrate`]'s count.
pub fn calibrate_mixture(
    router: &RouteClassifier,
    member_profiles: &[Vec<DatasetProfile>],
    threshold: f32,
    threads: Option<usize>,
) -> Calibration {
    let datasets = member_profiles.first().map_or(0, Vec::len);
    let counts = par_map_indexed(datasets, threads, |d| {
        let members: Vec<&DatasetProfile> = member_profiles.iter().map(|m| &m[d]).collect();
        let mut router = router.clone();
        calibration_counts(&members, threshold, &mut |i, input| {
            router.classify_route(i, input)
        })
    });
    counts
        .into_iter()
        .fold(Calibration::default(), |total, (admitted, violations)| {
            Calibration {
                admitted: total.admitted + admitted,
                violations: total.violations + violations,
            }
        })
}

/// The limit rule of [`calibrate`]: three times the clean violation rate
/// or the clean rate plus three points, whichever is larger, floored at
/// 2% and capped at 1. No admitted invocations counts as a clean rate of 0.
pub fn limit_config(admitted: u64, violations: u64, confidence: Confidence) -> WatchdogConfig {
    let clean_rate = if admitted == 0 {
        0.0
    } else {
        violations as f64 / admitted as f64
    };
    let limit = (clean_rate * 3.0).max(clean_rate + 0.03).max(0.02);
    WatchdogConfig {
        max_violation_rate: limit.min(1.0),
        confidence,
        ..WatchdogConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Decision;

    impl StateResidence {
        /// Fraction of samples spent in degraded (non-Monitoring) states;
        /// `0.0` on an empty record.
        fn degraded_fraction(&self) -> f64 {
            let total = self.total();
            if total == 0 {
                return 0.0;
            }
            (total - self.monitoring) as f64 / total as f64
        }
    }

    fn dog() -> QualityWatchdog {
        QualityWatchdog::new(WatchdogConfig::default())
    }

    #[test]
    fn clean_stream_never_leaves_monitoring() {
        let mut w = dog();
        for _ in 0..10_000 {
            assert_eq!(w.record(false).unwrap(), None);
        }
        assert_eq!(w.state(), GuardState::Monitoring);
        let r = w.report();
        assert_eq!(r.breaches, 0);
        assert_eq!(r.samples, 10_000);
    }

    #[test]
    fn rare_violations_within_limit_never_fire() {
        // 2% observed violations against a 5% limit: the lower bound
        // never clears the limit.
        let mut w = dog();
        for i in 0..5_000u64 {
            assert_eq!(w.record(i % 50 == 0).unwrap(), None, "sample {i}");
        }
        assert_eq!(w.state(), GuardState::Monitoring);
    }

    #[test]
    fn saturated_violations_walk_the_ladder_down() {
        let mut w = dog();
        let mut states = Vec::new();
        for _ in 0..200 {
            if let Some(s) = w.record(true).unwrap() {
                states.push(s);
            }
        }
        assert_eq!(states, vec![GuardState::Throttled, GuardState::Fallback]);
        assert_eq!(w.state(), GuardState::Fallback);
        assert_eq!(w.report().breaches, 2);
    }

    #[test]
    fn fallback_recovers_through_probing() {
        let mut w = dog();
        // Breach hard.
        for _ in 0..50 {
            w.record(true).unwrap();
        }
        assert_eq!(w.state(), GuardState::Fallback);
        // Fault clears: clean shadow samples walk the ladder back up,
        // through Probing, never skipping it.
        let mut states = Vec::new();
        for _ in 0..200 {
            if let Some(s) = w.record(false).unwrap() {
                states.push(s);
            }
            if w.state() == GuardState::Monitoring {
                break;
            }
        }
        assert_eq!(states, vec![GuardState::Probing, GuardState::Monitoring]);
        assert_eq!(w.report().recoveries, 1);
    }

    #[test]
    fn probing_relapses_on_dirty_samples() {
        let mut w = dog();
        for _ in 0..50 {
            w.record(true).unwrap();
        }
        assert_eq!(w.state(), GuardState::Fallback);
        // Recover exactly into probing...
        let mut fed = 0;
        while w.state() == GuardState::Fallback {
            w.record(false).unwrap();
            fed += 1;
            assert!(fed < 500, "never reached probing");
        }
        assert_eq!(w.state(), GuardState::Probing);
        // ...but the probe trickle still violates.
        for _ in 0..20 {
            w.record(true).unwrap();
        }
        assert_eq!(w.state(), GuardState::Fallback);
    }

    #[test]
    fn admission_gating_per_state() {
        use RouteChoice::{Member, Precise};
        let mut w = dog();
        assert_eq!(w.admit_route(Member(0)), Member(0));
        assert_eq!(w.admit_route(Member(2)), Member(2), "the member survives");
        assert_eq!(w.admit_route(Precise), Precise);

        w.state = GuardState::Fallback;
        assert_eq!(w.admit_route(Member(1)), Precise);
        assert_eq!(w.admit_route(Precise), Precise);

        w.state = GuardState::Throttled;
        let admitted: Vec<RouteChoice> = (0..16)
            .map(|k| w.admit_route(Member(k % 3)))
            .filter(|r| !r.is_precise())
            .collect();
        assert_eq!(
            admitted.len(),
            4,
            "1 in 4 admissions under default throttle"
        );
        assert_eq!(admitted, [Member(0), Member(1), Member(2), Member(0)]);
        // Precise routes pass untouched and do not advance the trickle.
        let mut twin = w.clone();
        assert_eq!(w.admit_route(Precise), Precise);
        for k in 0..8 {
            assert_eq!(
                w.admit_route(Member(k % 3)),
                twin.admit_route(Member(k % 3))
            );
        }
    }

    #[test]
    fn min_samples_gate_prevents_single_sample_trips() {
        let mut w = dog();
        for i in 0..11 {
            assert_eq!(w.record(true).unwrap(), None, "sample {i} fired early");
        }
        assert_eq!(w.state(), GuardState::Monitoring);
    }

    #[test]
    fn transitions_are_deterministic() {
        let stream: Vec<bool> = (0..400).map(|i| (i / 40) % 2 == 0 && i % 2 == 0).collect();
        let run = |mut w: QualityWatchdog| -> Vec<GuardState> {
            let mut out = Vec::new();
            for &v in &stream {
                if let Some(s) = w.record(v).unwrap() {
                    out.push(s);
                }
            }
            out
        };
        assert_eq!(run(dog()), run(dog()));
    }

    #[test]
    fn fork_keeps_tuning_but_drops_evidence() {
        let mut w = QualityWatchdog::new(WatchdogConfig {
            max_violation_rate: 0.11,
            ..WatchdogConfig::default()
        });
        for _ in 0..50 {
            w.record(true).unwrap();
        }
        assert_ne!(w.state(), GuardState::Monitoring);
        let f = w.fork();
        assert_eq!(f.config().max_violation_rate, 0.11);
        assert_eq!(f.state(), GuardState::Monitoring);
        assert_eq!(f.report().samples, 0);
        assert_eq!(f.report().breaches, 0);
    }

    #[test]
    fn residence_partitions_samples_and_log_matches_transitions() {
        let mut w = dog();
        // Down the ladder, then back up.
        for _ in 0..50 {
            w.record(true).unwrap();
        }
        for _ in 0..200 {
            w.record(false).unwrap();
            if w.state() == GuardState::Monitoring {
                break;
            }
        }
        let r = w.report();
        assert_eq!(
            r.time_in.total(),
            r.samples,
            "residence must partition samples"
        );
        assert!(r.time_in.monitoring > 0);
        assert!(r.time_in.fallback > 0);
        assert!(r.time_in.degraded_fraction() > 0.0);
        let logged: Vec<GuardState> = r.transitions.iter().map(|t| t.to).collect();
        assert_eq!(
            logged,
            vec![
                GuardState::Throttled,
                GuardState::Fallback,
                GuardState::Probing,
                GuardState::Monitoring
            ]
        );
        assert_eq!(r.transitions_dropped, 0);
        // at_sample is nondecreasing and within the lifetime count.
        for pair in r.transitions.windows(2) {
            assert!(pair[0].at_sample <= pair[1].at_sample);
        }
        assert!(r.transitions.last().unwrap().at_sample <= r.samples);
    }

    #[test]
    fn transition_log_caps_and_counts_drops() {
        let mut w = QualityWatchdog::new(WatchdogConfig {
            max_violation_rate: 0.02,
            ..WatchdogConfig::default()
        });
        // Flap the ladder far past the cap: alternate dirty and clean
        // phases long enough for hundreds of transitions.
        for phase in 0..400 {
            let dirty = phase % 2 == 0;
            for _ in 0..60 {
                w.record(dirty).unwrap();
            }
        }
        let r = w.report();
        assert_eq!(r.transitions.len(), 64);
        assert!(r.transitions_dropped > 0, "flapping must overflow the log");
        assert!(r.breaches + r.recoveries + r.transitions_dropped >= r.transitions.len() as u64);
    }

    #[test]
    fn force_state_records_transition_and_resets_window() {
        let mut w = dog();
        for _ in 0..50 {
            w.record(true).unwrap();
        }
        assert_eq!(w.state(), GuardState::Fallback);
        let recoveries_before = w.report().recoveries;
        w.force_state(GuardState::Monitoring);
        assert_eq!(w.state(), GuardState::Monitoring);
        let r = w.report();
        assert_eq!(r.recoveries, recoveries_before + 1);
        assert_eq!(r.transitions.last().unwrap().to, GuardState::Monitoring);
        // A forced no-op transition records nothing.
        let n = r.transitions.len();
        w.force_state(GuardState::Monitoring);
        assert_eq!(w.report().transitions.len(), n);
    }

    #[test]
    fn calibration_sits_above_clean_rate_with_floor() {
        // No profiles at all: the limit still has its floor.
        let mut oracle = crate::random::RandomFilter::new(1.0, 7);
        let cfg = calibrate(&mut oracle, &[], 0.1, Confidence::new(0.95).unwrap()).unwrap();
        assert!(cfg.max_violation_rate >= 0.02);
        assert!(cfg.max_violation_rate <= 1.0);
    }

    /// A history-free classifier: admits an input whose first coordinate
    /// is below 0.6.
    #[derive(Debug)]
    struct Cutoff;

    impl Classifier for Cutoff {
        fn name(&self) -> &'static str {
            "cutoff"
        }

        fn classify(&mut self, _index: usize, input: &[f32]) -> Decision {
            Decision::from_reject(input[0] >= 0.6)
        }

        fn overhead(&self) -> crate::classifier::ClassifierOverhead {
            crate::classifier::ClassifierOverhead::default()
        }
    }

    /// A profile of up to 40 one-dimensional invocations with inputs and
    /// errors uniform in [0, 1) and [0, 0.2).
    fn random_profile(rng: &mut impl rand::Rng, seed: u64) -> DatasetProfile {
        use mithra_axbench::dataset::{Dataset, OutputBuffer};
        let n = rng.gen_range(0..40);
        let inputs: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let errors: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..0.2)).collect();
        DatasetProfile::from_parts(
            Dataset::from_flat(seed, 1, inputs),
            OutputBuffer::from_flat(1, vec![0.0; n]),
            OutputBuffer::from_flat(1, vec![0.0; n]),
            errors,
            vec![0.0; n],
        )
    }

    /// Summed per-dataset counts of `Cutoff` over `profiles`, in order.
    fn cutoff_counts(profiles: &[DatasetProfile]) -> (u64, u64) {
        profiles.iter().fold((0, 0), |(a, v), p| {
            let (pa, pv) = calibration_counts(&[p], 0.1, &mut |i, x| Cutoff.classify(i, x).into());
            (a + pa, v + pv)
        })
    }

    #[test]
    fn calibration_counts_add_up_over_any_partition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let confidence = Confidence::new(0.95).unwrap();
        let mut violating_cases = 0;
        for case in 0..60 {
            let len: usize = rng.gen_range(0..12);
            let profiles: Vec<DatasetProfile> = (0..len as u64)
                .map(|seed| random_profile(&mut rng, seed))
                .collect();
            let whole = cutoff_counts(&profiles);
            violating_cases += usize::from(whole.1 > 0);

            // Deal the profiles into a random number of parts in random
            // order, then sum the per-part counts.
            let k = rng.gen_range(1..=len.max(1));
            let mut parts: Vec<Vec<DatasetProfile>> = vec![Vec::new(); k];
            for p in &profiles {
                parts[rng.gen_range(0..k)].push(p.clone());
            }
            let summed = parts.iter().fold((0, 0), |(a, v), part| {
                let (pa, pv) = cutoff_counts(part);
                (a + pa, v + pv)
            });
            assert_eq!(summed, whole, "case {case}: {k} parts of {len}");

            let config = calibrate(&mut Cutoff, &profiles, 0.1, confidence).unwrap();
            assert_eq!(config, limit_config(whole.0, whole.1, confidence));
        }
        assert!(violating_cases > 30, "the cases must exercise violations");
    }

    #[test]
    fn routed_counts_judge_the_serving_member() {
        use mithra_axbench::dataset::{Dataset, OutputBuffer};
        let profile = |errors: Vec<f32>| {
            let n = errors.len();
            DatasetProfile::from_parts(
                Dataset::from_flat(0, 1, (0..n).map(|i| i as f32).collect()),
                OutputBuffer::from_flat(1, vec![0.0; n]),
                OutputBuffer::from_flat(1, vec![0.0; n]),
                errors,
                vec![0.0; n],
            )
        };
        let cheap = profile(vec![0.5, 0.0, 0.5, 0.0]);
        let accurate = profile(vec![0.0, 0.5, 0.5, 0.0]);
        // Invocation i: 0 → cheap (violates), 1 → accurate (violates),
        // 2 → precise (not counted), 3 → accurate (clean).
        let routes = [
            RouteChoice::Member(0),
            RouteChoice::Member(1),
            RouteChoice::Precise,
            RouteChoice::Member(1),
        ];
        let counts = calibration_counts(&[&cheap, &accurate], 0.1, &mut |i, _| routes[i]);
        assert_eq!(counts, (3, 2));
        // Judging every admission against member 0 would miscount.
        let as_one = calibration_counts(&[&cheap], 0.1, &mut |i, _| match routes[i] {
            RouteChoice::Member(_) => RouteChoice::Member(0),
            RouteChoice::Precise => RouteChoice::Precise,
        });
        assert_ne!(as_one, counts);
    }

    #[test]
    fn limit_rule_follows_the_clean_rate() {
        let confidence = Confidence::new(0.95).unwrap();
        let rate = |admitted, violations| {
            limit_config(admitted, violations, confidence).max_violation_rate
        };
        assert_eq!(
            rate(0, 0),
            0.03,
            "nothing admitted: clean rate 0 plus 3 points"
        );
        assert_eq!(rate(100, 1), 0.01 + 0.03);
        assert_eq!(rate(100, 20), 0.2 * 3.0);
        assert_eq!(rate(10, 10), 1.0, "capped at 1");
    }
}
