//! The combined system: core + NPU + classifier, per-dataset.
//!
//! For every invocation of a profiled dataset the simulator asks the
//! classifier for a route, charges the corresponding cycles and energy,
//! and finally scores the mixed output's quality. The baseline is the
//! benchmark running entirely on the precise core. One decision loop
//! serves every design: a binary classifier is the pool of one (member 0
//! is `compiled.function`), so [`run`] and [`run_routed`] are thin
//! adapters over the same loop.
//!
//! The per-invocation cost arithmetic lives in [`InvocationModel`]: every
//! charge an invocation can incur (classifier decision, accelerated or
//! precise execution, FIFO stall, shadow quality sample) is a constant of
//! the compiled artifact, so the model precomputes them once and both the
//! sequential loop here and the batched serving runtime (`mithra-serve`)
//! draw from the *same* constants — which is what makes sharded serving
//! provably output-identical to [`simulate`].
//!
//! [`run`] is the full-featured entry point: it additionally threads a
//! per-invocation FIFO fault stream and an optional quality watchdog
//! ([`mithra_core::watchdog`]) through the loop, charging the cycle and
//! energy cost of every guard action (shadow quality samples, throttled
//! admission, precise fallback). [`simulate`] is the hook-free wrapper the
//! clean experiments use; with [`RunHooks::none`] the two are numerically
//! identical.

use crate::cpu::IsaCosts;
use crate::energy::EnergyModel;
use crate::error::SimError;
use crate::fault::{DriftSchedule, FifoEvent};
use mithra_axbench::benchmark::{Benchmark, WorkloadProfile};
use mithra_axbench::dataset::DatasetScale;
use mithra_core::classifier::{Classifier, ClassifierOverhead, Decision};
use mithra_core::function::AcceleratedFunction;
use mithra_core::pipeline::Compiled;
use mithra_core::profile::{common_invocation_count, replay_mixture, DatasetProfile};
use mithra_core::recert::{RecertConfig, RecertEngine, RecertPhase, RecertReport};
use mithra_core::route::{oracle_route, Mixture, RouteChoice, RouteClassifier};
use mithra_core::threshold::QualitySpec;
use mithra_core::watchdog::{GuardState, QualityWatchdog, WatchdogConfig, WatchdogReport};
use mithra_core::MithraError;
use mithra_npu::cost::NpuCostModel;
use serde::Serialize;
use std::num::NonZeroUsize;

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimOptions {
    /// ISA cost configuration.
    pub isa: IsaCosts,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Online-update sampling period for the table design (0 disables;
    /// the paper samples "at sporadic intervals").
    pub online_update_period: usize,
}

/// A cycle + energy charge, the unit of cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Charge {
    /// Core-visible wall cycles.
    pub cycles: f64,
    /// Energy in nanojoules.
    pub energy: f64,
}

impl Charge {
    /// Accumulates another charge into this one.
    pub fn add(&mut self, other: Charge) {
        self.cycles += other.cycles;
        self.energy += other.energy;
    }
}

/// Precomputed per-invocation cost constants for one (compiled artifact,
/// classifier design, options) combination.
///
/// Every component cost the runtime loop charges — the classifier
/// decision, the accelerated path, the precise path, a FIFO stall, the
/// two shadow-sample flavours — is invariant across invocations, so this
/// type computes each one exactly once, replicating the expression
/// structure of the original sequential loop so that accumulated totals
/// stay **bit-identical**. `mithra-serve`'s sharded workers charge
/// invocations through the same model, which is what pins batched serving
/// to [`simulate`]'s output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationModel {
    threshold: f32,
    workload: WorkloadProfile,
    core_active_nj_per_cycle: f64,
    startup_cycles: f64,
    decision: Charge,
    approx: Charge,
    precise: Charge,
    stall: Charge,
    shadow_precise: Charge,
    shadow_approx: Charge,
}

impl InvocationModel {
    /// Builds the model for a compiled benchmark under one classifier
    /// design (identified by its cost footprint) and one set of options.
    pub fn new(compiled: &Compiled, overhead: &ClassifierOverhead, options: &SimOptions) -> Self {
        let topology = compiled.function.benchmark().npu_topology();
        Self::for_function(
            &compiled.function,
            &topology,
            compiled.threshold.threshold,
            overhead,
            options,
        )
    }

    /// [`InvocationModel::new`] for an explicit accelerator: the function
    /// being accelerated, the NPU topology whose per-invocation cost the
    /// approximate path is charged, and the threshold in force. This is
    /// how a routed system prices each pool member — every member carries
    /// its own topology and therefore its own FIFO/compute footprint.
    /// With the benchmark's default topology and the compiled threshold
    /// this is exactly [`new`](Self::new), expression for expression.
    pub fn for_function(
        function: &AcceleratedFunction,
        accel_topology: &mithra_npu::topology::Topology,
        threshold: f32,
        overhead: &ClassifierOverhead,
        options: &SimOptions,
    ) -> Self {
        let bench = function.benchmark();
        let workload = bench.profile();
        let npu_cost_model = NpuCostModel::new();
        let accel_cost = npu_cost_model.invocation(accel_topology);
        let classifier_npu_cost = overhead
            .npu_topology
            .as_ref()
            .map(|t| npu_cost_model.invocation(t));

        // Classifier decision (both paths pay it). The classifier network,
        // if any, runs on the NPU before the decision: its latency is on
        // the critical path.
        let mut decision_cycles = overhead.decision_cycles as f64;
        if let Some(c) = &classifier_npu_cost {
            decision_cycles += c.cycles as f64;
        }
        let decision = Charge {
            cycles: decision_cycles,
            energy: options
                .energy
                .classifier_decision_nj(overhead, &npu_cost_model),
        };

        // Accelerated path: the accelerator latency dominates; core
        // streaming overlaps with PE compute except for the dequeue tail.
        let core_busy = options
            .isa
            .accelerated_invocation_core_cycles(bench.input_dim(), bench.output_dim())
            as f64;
        let approx = Charge {
            cycles: accel_cost.cycles as f64 + options.isa.branch as f64,
            energy: options.energy.npu_invocation_nj(&accel_cost)
                + core_busy * options.energy.core_active_nj_per_cycle
                + (accel_cost.cycles as f64 - core_busy).max(0.0)
                    * options.energy.core_idle_nj_per_cycle,
        };

        // Precise path: the kernel plus the redirect the classifier's
        // reject decision costs.
        let redirect = options
            .isa
            .rejected_invocation_core_cycles(bench.input_dim());
        let precise = Charge {
            cycles: (workload.kernel_cycles + redirect) as f64,
            energy: (workload.kernel_cycles + redirect) as f64
                * options.energy.core_active_nj_per_cycle,
        };

        // A FIFO stall: the core idles until the queue drains.
        let stall = Charge {
            cycles: options.isa.fifo_stall as f64,
            energy: options.isa.fifo_stall as f64 * options.energy.core_idle_nj_per_cycle,
        };

        // Shadow quality samples: the accelerator ran, shadow-run the
        // precise kernel — or the precise path ran, shadow-run the
        // accelerator.
        let shadow_precise = Charge {
            cycles: workload.kernel_cycles as f64,
            energy: workload.kernel_cycles as f64 * options.energy.core_active_nj_per_cycle,
        };
        let shadow_approx = Charge {
            cycles: options
                .isa
                .accelerated_invocation_core_cycles(bench.input_dim(), bench.output_dim())
                as f64,
            energy: options.energy.npu_invocation_nj(&accel_cost),
        };

        // One-time table decompression at program load.
        let startup_cycles = if overhead.table_bit_reads > 0 {
            let table_lines = (overhead.table_bit_reads * 512).div_ceil(512); // ~1 line per table
            (table_lines * options.isa.table_decompress_per_line) as f64
        } else {
            0.0
        };

        Self {
            threshold,
            workload,
            core_active_nj_per_cycle: options.energy.core_active_nj_per_cycle,
            startup_cycles,
            decision,
            approx,
            precise,
            stall,
            shadow_precise,
            shadow_approx,
        }
    }

    /// The certified threshold the model was built against.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The all-precise baseline for `n` invocations.
    pub fn baseline(&self, n: usize) -> Charge {
        let cycles = self.workload.baseline_cycles(n as u64);
        Charge {
            cycles,
            energy: cycles * self.core_active_nj_per_cycle,
        }
    }

    /// The invocation-independent starting charge of an accelerated run:
    /// the non-kernel application portion plus one-time classifier-table
    /// decompression at program load.
    pub fn startup(&self, n: usize) -> Charge {
        let non_kernel = self.workload.non_kernel_cycles(n as u64);
        let mut cycles = non_kernel;
        cycles += self.startup_cycles;
        Charge {
            cycles,
            energy: non_kernel * self.core_active_nj_per_cycle,
        }
    }

    /// The full charge of one invocation: classifier decision, the
    /// executed path, an optional FIFO stall, and an optional shadow
    /// quality sample (whose flavour depends on which path ran).
    pub fn charge(&self, decision: Decision, event: FifoEvent, shadow: bool) -> Charge {
        let mut c = self.decision;
        match decision {
            Decision::Approximate => {
                c.add(self.approx);
                if event == FifoEvent::Stall {
                    c.add(self.stall);
                }
            }
            Decision::Precise => c.add(self.precise),
        }
        if shadow {
            match decision {
                Decision::Approximate => c.add(self.shadow_precise),
                Decision::Precise => c.add(self.shadow_approx),
            }
        }
        c
    }
}

/// Per-route cost constants of a routed system: one [`InvocationModel`]
/// per pool member — each priced on its **own** NPU topology and charged
/// only the router stages consulted before its decision settled — plus a
/// precise-fallback model charged every stage.
///
/// For a pool of one, member 0's model and the precise model coincide
/// with the binary [`InvocationModel`] of the same artifacts, so every
/// charge is bit-identical to the binary simulator's.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedInvocationModel {
    members: Vec<InvocationModel>,
    precise: InvocationModel,
}

impl RoutedInvocationModel {
    /// The binary design as the pool of one: member 0 and the precise
    /// fallback are both priced by `model`, so every route's charge is
    /// the binary [`InvocationModel::charge`] expression for expression.
    pub fn pool_of_one(model: InvocationModel) -> Self {
        Self {
            members: vec![model],
            precise: model,
        }
    }

    /// Builds the per-route models of a deployed mixture: member `m` on
    /// its own topology, charged the router stages its route consults,
    /// and the precise fallback on the accurate member, charged every
    /// stage. For a binary artifact (the pool of one) both models are the
    /// binary [`InvocationModel::new`] under its table's overhead, so
    /// this is [`pool_of_one`](Self::pool_of_one) of it, bit for bit.
    pub fn new<'a>(mixture: impl Into<Mixture<'a>>, options: &SimOptions) -> Self {
        let mixture = mixture.into();
        let threshold = mixture.threshold().threshold;
        let members = mixture.members();
        let price = |m: usize, route: RouteChoice| {
            InvocationModel::for_function(
                &members[m],
                &mixture.topology(m),
                threshold,
                &mixture.overhead_for(route),
                options,
            )
        };
        Self {
            members: (0..members.len())
                .map(|m| price(m, RouteChoice::Member(m)))
                .collect(),
            precise: price(members.len() - 1, RouteChoice::Precise),
        }
    }

    /// The certified routed threshold the models were built against.
    pub fn threshold(&self) -> f32 {
        self.precise.threshold()
    }

    /// The all-precise baseline for `n` invocations.
    pub fn baseline(&self, n: usize) -> Charge {
        self.precise.baseline(n)
    }

    /// The invocation-independent starting charge: non-kernel application
    /// cycles plus one-time decompression of **every** router stage's
    /// tables.
    pub fn startup(&self, n: usize) -> Charge {
        self.precise.startup(n)
    }

    /// The full charge of one routed invocation: the consulted router
    /// stages, then the chosen member's accelerated path (with its own
    /// NPU footprint) or the precise path.
    pub fn charge_route(&self, route: RouteChoice, event: FifoEvent, shadow: bool) -> Charge {
        match route {
            RouteChoice::Member(m) => self.members[m].charge(Decision::Approximate, event, shadow),
            RouteChoice::Precise => self.precise.charge(Decision::Precise, event, shadow),
        }
    }
}

/// A quality watchdog armed with its sampling period — the single,
/// canonical "watchdog enabled" representation.
///
/// A period of zero used to be a second spelling of "disabled" that still
/// let the watchdog gate admission; [`WatchdogHook::new`] normalizes it to
/// `None`, so a disabled watchdog is exactly the absence of this value and
/// no half-armed state exists.
#[derive(Debug)]
pub struct WatchdogHook<'a> {
    dog: &'a mut QualityWatchdog,
    period: NonZeroUsize,
}

impl<'a> WatchdogHook<'a> {
    /// Arms `dog` to sample every `period`-th approximate decision.
    /// Returns `None` for `period == 0` — the canonical disabled form.
    pub fn new(dog: &'a mut QualityWatchdog, period: usize) -> Option<Self> {
        NonZeroUsize::new(period).map(|period| Self { dog, period })
    }

    /// The sampling period (always ≥ 1).
    pub fn period(&self) -> usize {
        self.period.get()
    }
}

/// Runtime extensions threaded through [`run`]: injected FIFO events and
/// an optional quality watchdog.
///
/// The hook-free value ([`RunHooks::none`]) makes [`run`] numerically
/// identical to [`simulate`] — the production path pays nothing.
#[derive(Debug)]
pub struct RunHooks<'a> {
    /// Per-invocation FIFO events (empty = no FIFO faults; shorter
    /// streams imply [`FifoEvent::None`] beyond their end).
    pub fifo_events: &'a [FifoEvent],
    /// Quality watchdog gating accelerator admission, armed with its
    /// sampling period. `None` is the only disabled state.
    pub watchdog: Option<WatchdogHook<'a>>,
}

impl<'a> RunHooks<'a> {
    /// No hooks: the clean production configuration.
    pub fn none() -> Self {
        RunHooks {
            fifo_events: &[],
            watchdog: None,
        }
    }

    /// Hooks carrying only a FIFO event stream.
    pub fn with_fifo_events(fifo_events: &'a [FifoEvent]) -> Self {
        RunHooks {
            fifo_events,
            watchdog: None,
        }
    }

    /// Arms the watchdog to sample every `period`-th approximate decision.
    /// `period == 0` normalizes to no watchdog at all (see
    /// [`WatchdogHook::new`]).
    pub fn with_watchdog(mut self, dog: &'a mut QualityWatchdog, period: usize) -> Self {
        self.watchdog = WatchdogHook::new(dog, period);
        self
    }
}

/// The result of simulating one dataset under one classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Wall cycles of the all-precise baseline.
    pub baseline_cycles: f64,
    /// Wall cycles of the accelerated, quality-controlled run.
    pub accelerated_cycles: f64,
    /// Energy (nJ) of the baseline.
    pub baseline_energy_nj: f64,
    /// Energy (nJ) of the accelerated run.
    pub accelerated_energy_nj: f64,
    /// Final-output quality loss of the accelerated run.
    pub quality_loss: f64,
    /// Invocations delegated to the accelerator.
    pub invoked: usize,
    /// Total invocations.
    pub total: usize,
    /// Classifier rejected, oracle would have approximated.
    pub false_positives: usize,
    /// Classifier approximated, oracle would have rejected.
    pub false_negatives: usize,
}

impl RunResult {
    /// Application speedup over the all-precise baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles / self.accelerated_cycles
    }

    /// Energy reduction factor over the baseline.
    pub fn energy_reduction(&self) -> f64 {
        self.baseline_energy_nj / self.accelerated_energy_nj
    }

    /// Fraction of invocations delegated to the accelerator.
    pub fn invocation_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.invoked as f64 / self.total as f64
        }
    }

    /// Energy-delay-product improvement factor over the baseline.
    pub fn edp_improvement(&self) -> f64 {
        (self.baseline_cycles * self.baseline_energy_nj)
            / (self.accelerated_cycles * self.accelerated_energy_nj)
    }

    /// False positives as a fraction of all invocations.
    pub fn false_positive_rate(&self) -> f64 {
        self.false_positives as f64 / self.total.max(1) as f64
    }

    /// False negatives as a fraction of all invocations.
    pub fn false_negative_rate(&self) -> f64 {
        self.false_negatives as f64 / self.total.max(1) as f64
    }
}

/// Simulates one dataset under `classifier`, with the compiled artifacts
/// providing the accelerator, threshold and timing profile.
///
/// The hook-free production path: equivalent to [`run`] with
/// [`RunHooks::none`].
pub fn simulate(
    compiled: &Compiled,
    profile: &DatasetProfile,
    classifier: &mut dyn Classifier,
    options: &SimOptions,
) -> RunResult {
    run(compiled, profile, classifier, options, RunHooks::none())
        .expect("hook-free simulation cannot fail")
}

/// Simulates one dataset under `classifier` with runtime hooks: injected
/// FIFO faults and an optional quality watchdog.
///
/// The binary classifier is the pool of one: member 0 is
/// `compiled.function`, priced by the classifier's [`InvocationModel`]
/// on both routes, and the decision loop [`run_routed`] runs does the
/// rest. Per invocation the loop (1) asks the classifier for its raw
/// decision, (2) lets the watchdog gate admission (throttling or full
/// precise fallback), (3) takes the FIFO event of an accelerated
/// invocation, (4) sporadically samples the true accelerator error for
/// the watchdog, charging the shadow execution that producing that sample
/// costs, and (5) charges the executed route. Quality is scored from
/// where each output actually came from, so a dropped FIFO output
/// degrades quality via the stale value the consumer read. With
/// `options.online_update_period > 0` the classifier observes the
/// measured error at the certified threshold every that many invocations,
/// right after deciding.
///
/// # Errors
///
/// Propagates watchdog statistics failures and routed-replay scoring
/// failures as [`SimError`]. With [`RunHooks::none`] the call cannot
/// fail on profiles a clean [`simulate`] accepts.
pub fn run(
    compiled: &Compiled,
    profile: &DatasetProfile,
    classifier: &mut dyn Classifier,
    options: &SimOptions,
    hooks: RunHooks<'_>,
) -> Result<RunResult, SimError> {
    let model = InvocationModel::new(compiled, &classifier.overhead(), options);
    let threshold = model.threshold();
    let period = options.online_update_period;
    let decide = |i: usize, input: &[f32]| {
        let decision = classifier.classify(i, input);
        if period > 0 && i.is_multiple_of(period) {
            classifier.observe(i, input, profile.max_error(i) > threshold);
        }
        decision.into()
    };
    let models = RoutedInvocationModel::pool_of_one(model);
    run_pool(&models, &compiled.function, &[profile], hooks, decide).map(|r| r.run)
}

/// The result of simulating one dataset through a routed system: the
/// familiar [`RunResult`] plus per-member accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedRunResult {
    /// Aggregate timings, energy, quality and false-decision counts.
    /// `invoked` counts invocations served by *any* pool member.
    pub run: RunResult,
    /// Invocations served per pool member, cheapest first.
    pub member_invocations: Vec<usize>,
    /// The serving member whose worst per-invocation error was largest —
    /// the member a dataset-level quality violation is attributed to
    /// (0 when nothing was approximated).
    pub worst_member: usize,
}

/// Simulates one dataset through a deployed mixture: per invocation a
/// fresh copy of the mixture's router picks a pool member (or the
/// precise fallback), the invocation is charged that route's cost —
/// consulted router stages plus the member's own NPU footprint — and
/// quality is scored from the mixed output stream of the members that
/// actually served.
///
/// `mixture` is a `&RoutedCompiled` or a `&Compiled` (its pool of one).
/// `member_profiles[m]` must be pool member `m`'s profile of the **same**
/// dataset. This is the decision loop [`run`] runs, without hooks; for a
/// binary artifact it is [`run`] under a clone of its table with
/// [`RunHooks::none`], bit for bit: same decisions (the single router
/// stage is the binary table), same charges, same replay.
///
/// # Errors
///
/// [`SimError::Core`] with [`MithraError::InvalidConfig`] when
/// `options.online_update_period` is nonzero (the router has no online
/// update path); member profiles that do not cover the pool or disagree
/// on the invocation count, and routed-replay scoring failures, propagate
/// as [`SimError`].
pub fn run_routed<'a>(
    mixture: impl Into<Mixture<'a>>,
    member_profiles: &[&DatasetProfile],
    options: &SimOptions,
) -> Result<RoutedRunResult, SimError> {
    let mixture = mixture.into();
    check_no_online_updates(options)?;
    let members = mixture.members();
    if member_profiles.len() != members.len() {
        return Err(SimError::Core(MithraError::InsufficientData {
            stage: "routed simulation",
            available: member_profiles.len(),
            needed: members.len(),
        }));
    }
    let models = RoutedInvocationModel::new(mixture, options);
    let mut router = mixture.router();
    run_pool(
        &models,
        &members[0],
        member_profiles,
        RunHooks::none(),
        |i, input| router.classify_route(i, input),
    )
}

/// Refuses online updates: a router has no online update path.
fn check_no_online_updates(options: &SimOptions) -> Result<(), SimError> {
    match options.online_update_period {
        0 => Ok(()),
        _ => Err(SimError::Core(MithraError::InvalidConfig {
            parameter: "online_update_period",
            constraint: "0 for routed runs: the router has no online update path",
        })),
    }
}

/// Mean metrics of a mixture over a set of unseen datasets — one
/// frontier point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FrontierMeans {
    /// Mean application speedup.
    pub speedup: f64,
    /// Mean energy reduction.
    pub energy_reduction: f64,
    /// Mean accelerator invocation rate.
    pub invocation_rate: f64,
    /// Mean final-output quality loss.
    pub mean_quality_loss: f64,
}

/// Simulates every dataset of `member_profiles` (`[m][i]` = member `m`'s
/// profile of dataset `i`) through [`run_routed`] in dataset order and
/// folds the frontier means, plus the share of all invocations each pool
/// member served (cheapest first; the shares sum to the pooled invocation
/// rate). A binary artifact passes its one-member table,
/// `std::slice::from_ref(&profiles)`.
///
/// # Errors
///
/// Propagates [`run_routed`] failures.
pub fn frontier_means<'a>(
    mixture: impl Into<Mixture<'a>>,
    member_profiles: &[Vec<DatasetProfile>],
    options: &SimOptions,
) -> Result<(FrontierMeans, Vec<f64>), SimError> {
    let mixture = mixture.into();
    let datasets = member_profiles.first().map_or(0, Vec::len);
    let mut sum = FrontierMeans {
        speedup: 0.0,
        energy_reduction: 0.0,
        invocation_rate: 0.0,
        mean_quality_loss: 0.0,
    };
    let mut member_served = vec![0usize; mixture.members().len()];
    let mut total = 0usize;
    for i in 0..datasets {
        let refs: Vec<&DatasetProfile> = member_profiles.iter().map(|m| &m[i]).collect();
        let r = run_routed(mixture, &refs, options)?;
        sum.speedup += r.run.speedup();
        sum.energy_reduction += r.run.energy_reduction();
        sum.invocation_rate += r.run.invocation_rate();
        sum.mean_quality_loss += r.run.quality_loss;
        total += r.run.total;
        for (served, m) in member_served.iter_mut().zip(&r.member_invocations) {
            *served += m;
        }
    }
    let n = datasets.max(1) as f64;
    let means = FrontierMeans {
        speedup: sum.speedup / n,
        energy_reduction: sum.energy_reduction / n,
        invocation_rate: sum.invocation_rate / n,
        mean_quality_loss: sum.mean_quality_loss / n,
    };
    let shares = member_served
        .iter()
        .map(|&s| s as f64 / total.max(1) as f64)
        .collect();
    Ok((means, shares))
}

/// The one runtime decision loop behind [`run`], [`run_routed`] and
/// [`run_session`]:
/// decide, watchdog admit, FIFO event, shadow sample, charge the route
/// through `models`, then fold it into a [`RunFold`]. The shadow sample
/// judges the *raw* member's error, since that is the decision the
/// watchdog is guarding.
fn run_pool(
    models: &RoutedInvocationModel,
    function: &AcceleratedFunction,
    members: &[&DatasetProfile],
    hooks: RunHooks<'_>,
    mut decide: impl FnMut(usize, &[f32]) -> RouteChoice,
) -> Result<RoutedRunResult, SimError> {
    let mut fold = RunFold::new(models, members)?;
    let threshold = models.threshold();
    let mut watchdog = hooks.watchdog.map(|hook| (hook.period(), hook.dog));

    for (i, input) in members[0].dataset().iter().enumerate() {
        let raw = decide(i, input);
        let route = match &mut watchdog {
            Some((_, w)) => w.admit_route(raw),
            None => raw,
        };
        let event = match route {
            RouteChoice::Member(_) => hooks.fifo_events.get(i).copied().unwrap_or(FifoEvent::None),
            RouteChoice::Precise => FifoEvent::None,
        };

        // Sporadic watchdog quality sampling: compare accelerator and
        // precise outputs for this invocation and charge the shadow
        // execution that produces the missing half of the pair.
        let mut shadow = false;
        if let (Some((period, w)), RouteChoice::Member(m)) = (&mut watchdog, raw) {
            if i % *period == 0 {
                shadow = true;
                w.record(members[m].max_error(i) > threshold)?;
            }
        }

        fold.push(route, event, models.charge_route(route, event, shadow));
    }
    Ok(fold.finish(function.benchmark().as_ref())?)
}

/// The one accounting fold of a simulated or served run over one
/// dataset. In order it takes the startup charge, then each invocation's
/// executed route and charge in index order — the routing-oracle
/// false-decision rule, the member tallies and the output the consumer
/// read — and finally scores the mixed output with [`replay_mixture`].
///
/// [`run`] and [`run_routed`] feed it one invocation at a time as they
/// decide; the serving runtime feeds it from its slot table once every
/// invocation is served, which is what pins batched serving to the
/// sequential simulator bit for bit.
///
/// False decisions are judged against the routing oracle at the models'
/// threshold: a false positive runs precise although some member's error
/// was within the threshold; a false negative is served by a member whose
/// error exceeded it.
#[derive(Debug)]
pub struct RunFold<'a> {
    members: &'a [&'a DatasetProfile],
    threshold: f32,
    baseline: Charge,
    charged: Charge,
    /// Where each folded invocation's output came from, for the replay.
    sources: Vec<Option<(usize, usize)>>,
    member_invocations: Vec<usize>,
    invoked: usize,
    false_positives: usize,
    false_negatives: usize,
    worst_member: usize,
    worst_err: f32,
    /// The last (member, invocation) whose accelerator output actually
    /// reached the output FIFO — what a Drop leaves for the consumer.
    last_good: (usize, usize),
}

impl<'a> RunFold<'a> {
    /// Starts a fold over `members` (pool member `m`'s profile of the
    /// dataset at `m`) priced by `models`: the baseline and the startup
    /// charge are taken here.
    ///
    /// # Errors
    ///
    /// [`MithraError::InsufficientData`] for an empty member slice or
    /// members that disagree on the invocation count.
    pub fn new(
        models: &RoutedInvocationModel,
        members: &'a [&'a DatasetProfile],
    ) -> Result<Self, MithraError> {
        let n = common_invocation_count(members)?;
        Ok(Self {
            members,
            threshold: models.threshold(),
            baseline: models.baseline(n),
            charged: models.startup(n),
            sources: Vec::with_capacity(n),
            member_invocations: vec![0; members.len()],
            invoked: 0,
            false_positives: 0,
            false_negatives: 0,
            worst_member: 0,
            worst_err: f32::NEG_INFINITY,
            last_good: (0, 0),
        })
    }

    /// Folds the next invocation in index order: its executed `route`,
    /// the FIFO `event` of an accelerated invocation (a
    /// [`FifoEvent::Drop`] leaves the consumer reading the last good
    /// output), and its `charge`.
    pub fn push(&mut self, route: RouteChoice, event: FifoEvent, charge: Charge) {
        let i = self.sources.len();
        match route {
            RouteChoice::Member(m) => {
                self.invoked += 1;
                self.member_invocations[m] += 1;
                let err = self.members[m].max_error(i);
                if err > self.threshold {
                    self.false_negatives += 1;
                }
                if err > self.worst_err {
                    self.worst_err = err;
                    self.worst_member = m;
                }
                if event != FifoEvent::Drop {
                    self.last_good = (m, i);
                }
                self.sources.push(Some(self.last_good));
            }
            RouteChoice::Precise => {
                if !oracle_route(self.members, i, self.threshold).is_precise() {
                    self.false_positives += 1;
                }
                self.sources.push(None);
            }
        }
        self.charged.add(charge);
    }

    /// Scores the mixed output stream and returns the run's result.
    ///
    /// # Errors
    ///
    /// Propagates quality-scoring failures from [`replay_mixture`].
    ///
    /// # Panics
    ///
    /// Panics unless every invocation was folded.
    pub fn finish(self, bench: &dyn Benchmark) -> Result<RoutedRunResult, MithraError> {
        let n = self.sources.len();
        assert_eq!(
            n,
            self.members[0].invocation_count(),
            "every invocation is folded before the replay"
        );
        let replay = replay_mixture(bench, self.members, |i| self.sources[i])?;
        Ok(RoutedRunResult {
            run: RunResult {
                baseline_cycles: self.baseline.cycles,
                accelerated_cycles: self.charged.cycles,
                baseline_energy_nj: self.baseline.energy,
                accelerated_energy_nj: self.charged.energy,
                quality_loss: replay.quality_loss,
                invoked: self.invoked,
                total: n,
                false_positives: self.false_positives,
                false_negatives: self.false_negatives,
            },
            member_invocations: self.member_invocations,
            worst_member: self.worst_member,
        })
    }
}

/// Configuration of a closed-loop serving session: the per-run options,
/// the quality contract being defended, the watchdog tuning guarding it,
/// and the re-certifier allowed to replace the operating point when the
/// watchdog gives up on the old one.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Per-dataset simulation options.
    pub options: SimOptions,
    /// The quality contract `(q, beta, S)` every certified pair defends.
    pub spec: QualitySpec,
    /// Watchdog tuning for epoch 0 (swaps install re-calibrated tunings).
    pub watchdog: WatchdogConfig,
    /// Watchdog shadow-sampling period (0 disables the watchdog — and
    /// with it the re-certifier, which has no trigger without a guard).
    pub watchdog_period: usize,
    /// Online re-certification tuning; [`RecertConfig::off`] makes the
    /// session's dataset loop identical to a sequence of plain [`run`]
    /// calls sharing one watchdog.
    pub recert: RecertConfig,
    /// Scale of the per-seed datasets.
    pub scale: DatasetScale,
}

/// One hot-swap performed by the in-loop re-certifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapRecord {
    /// Dataset index after which the swap took effect.
    pub at_dataset: usize,
    /// Epoch the swap installed (first swap installs epoch 1).
    pub epoch: u64,
    /// The re-certified threshold.
    pub threshold: f32,
    /// Sequential-test trials the certificate consumed.
    pub certify_trials: u64,
    /// Selection attempts the engine spent up to this swap.
    pub attempts: u64,
}

/// One dataset's slice of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDataset {
    /// The dataset's simulation result under the epoch's artifacts.
    pub run: RunResult,
    /// Epoch whose artifacts served this dataset.
    pub epoch: u64,
    /// Whether the schedule drifted this dataset's inputs.
    pub drifted: bool,
    /// Watchdog rung after the dataset completed.
    pub guard_state: GuardState,
    /// Re-certifier phase after the dataset completed.
    pub recert_phase: RecertPhase,
}

/// The operating point in force when a session ended — what a serving
/// deployment would be running (and what post-session conformance
/// validation must therefore judge).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPointRecord {
    /// Epoch of the artifacts (0 = the compile-time certificate).
    pub epoch: u64,
    /// Live accelerator-error threshold.
    pub threshold: f32,
    /// Live deployed router: the compiled table as a one-stage router at
    /// epoch 0, the re-certified one after a swap.
    pub router: RouteClassifier,
}

/// The result of a closed-loop session over a dataset sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Per-dataset outcomes, in serving order.
    pub datasets: Vec<SessionDataset>,
    /// The operating point serving when the session ended.
    pub final_point: OperatingPointRecord,
    /// The persistent watchdog's lifetime report (counters, residence and
    /// the transition log span every epoch).
    pub watchdog: WatchdogReport,
    /// The re-certifier's lifetime report.
    pub recert: RecertReport,
    /// Every cycle and nanojoule the re-certifier consumed: shadow
    /// accelerator executions that built calibration profiles while the
    /// session served precisely, plus the classifier-table upload each
    /// swap charges.
    pub recert_charge: Charge,
    /// The hot-swaps performed, in order.
    pub swaps: Vec<SwapRecord>,
}

/// Runs a closed-loop serving session: one persistent watchdog and one
/// re-certification engine across a sequence of datasets whose inputs
/// move under `schedule`.
///
/// This is the **reference loop** the sharded serving runtime
/// (`mithra-serve`) must reproduce bit for bit. Per dataset it (1) draws
/// the seed's dataset at the session scale and applies the schedule's
/// drift, (2) profiles it and simulates it under the shared watchdog as
/// the pool of one behind the live router, and (3) whenever the watchdog
/// **visited** [`GuardState::Fallback`] during the dataset, feeds the
/// profile to the [`RecertEngine`] — charging the shadow
/// accelerator execution every profiled invocation costs (the precise
/// halves are free: a fallback session computes them to serve). Visited,
/// not merely ended in: a guard flapping around its calibrated limit —
/// Fallback, a clean-looking recovery window, Probing, a fresh breach —
/// is a certificate that stopped describing the traffic just as surely as
/// one parked in fallback, and large datasets can walk the whole cycle
/// between two end-of-dataset checks. When the engine certifies a new
/// operating point, the loop installs it — new threshold, new router,
/// re-calibrated watchdog tuning — charges the router-table upload,
/// and forces the watchdog back to [`GuardState::Monitoring`]; the next
/// dataset is served by the new epoch. If the watchdog recovers *on its
/// own* (the drift reverted and the old pair is healthy again), any
/// in-flight collection or certification is aborted: its window described
/// a distribution that no longer serves traffic.
///
/// With [`RecertConfig::off`] the loop never consults the engine and a
/// session is numerically identical to calling [`run`] per dataset with
/// the same shared watchdog.
///
/// # Errors
///
/// A nonzero `online_update_period` is refused as [`run_routed`] refuses
/// it. Core-layer failures from profiling, simulation, selection and
/// certification propagate as [`SimError`].
pub fn run_session(
    compiled: &Compiled,
    seeds: &[u64],
    schedule: &DriftSchedule,
    config: &SessionConfig,
) -> Result<SessionResult, SimError> {
    check_no_online_updates(&config.options)?;
    let function = &compiled.function;
    let topology = function.benchmark().npu_topology();
    let price = |threshold, router: &RouteClassifier| {
        let overhead = router.overhead_for(RouteChoice::Precise);
        InvocationModel::for_function(function, &topology, threshold, &overhead, &config.options)
    };
    let mut threshold = compiled.threshold.threshold;
    let mut router = Mixture::Binary(compiled).router();
    let mut dog = QualityWatchdog::new(config.watchdog);
    let mut engine = RecertEngine::new(config.spec, config.recert)?;

    let mut datasets = Vec::with_capacity(seeds.len());
    let mut swaps = Vec::new();
    let mut recert_charge = Charge::default();

    for (t, &seed) in seeds.iter().enumerate() {
        let drift = schedule.drift_at(t);
        let ds = function.dataset(seed, config.scale);
        let ds = match &drift {
            Some(spec) => ds.drifted(spec),
            None => ds,
        };
        let profile = DatasetProfile::collect(function, ds);

        let fallback_before = dog.report().time_in.fallback;
        let model = price(threshold, &router);
        let models = RoutedInvocationModel::pool_of_one(model);
        let hooks = RunHooks::none().with_watchdog(&mut dog, config.watchdog_period);
        let decide = |i: usize, input: &[f32]| router.classify_route(i, input);
        let result = run_pool(&models, function, &[&profile], hooks, decide)?.run;
        let epoch = engine.epoch();
        // A dataset large enough to hold several watchdog windows can walk
        // Fallback → Probing → Monitoring between two of these checks, so
        // "is the guard degraded" must ask where the dog has *been*, not
        // just where it stands.
        let visited_fallback =
            dog.state() == GuardState::Fallback || dog.report().time_in.fallback > fallback_before;

        if engine.is_enabled() {
            if visited_fallback {
                // Building a calibration profile while serving precisely:
                // the precise outputs are the served outputs, but every
                // invocation's accelerator half is a shadow execution.
                let with_shadow = model.charge(Decision::Precise, FifoEvent::None, true);
                let without = model.charge(Decision::Precise, FifoEvent::None, false);
                let shadow = Charge {
                    cycles: with_shadow.cycles - without.cycles,
                    energy: with_shadow.energy - without.energy,
                };
                for _ in 0..profile.invocation_count() {
                    recert_charge.add(shadow);
                }

                if let Some(outcome) = engine.observe(function, profile)? {
                    // Hot swap: new pair, re-calibrated guard, and the
                    // one-time upload of the new router's tables.
                    threshold = outcome.threshold;
                    router = outcome.router;
                    recert_charge.add(price(threshold, &router).startup(0));
                    dog.reconfigure(outcome.watchdog);
                    dog.force_state(GuardState::Monitoring);
                    swaps.push(SwapRecord {
                        at_dataset: t,
                        epoch: outcome.epoch,
                        threshold,
                        certify_trials: outcome.certify_trials,
                        attempts: outcome.attempts,
                    });
                }
            }
            // One health checkpoint per dataset: a sustained return to
            // Monitoring aborts in-flight work (the engine owns the
            // hysteresis — a flapping ladder near its limit produces
            // short false recoveries that must not drop the window). A
            // dataset that visited fallback is never healthy, whatever
            // rung the dog happens to stand on at its end.
            engine.note_health(dog.state() == GuardState::Monitoring && !visited_fallback);
        }

        datasets.push(SessionDataset {
            run: result,
            epoch,
            drifted: drift.is_some(),
            guard_state: dog.state(),
            recert_phase: engine.phase(),
        });
    }

    Ok(SessionResult {
        datasets,
        final_point: OperatingPointRecord {
            epoch: engine.epoch(),
            threshold,
            router,
        },
        watchdog: dog.report(),
        recert: engine.report(),
        recert_charge,
        swaps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use mithra_axbench::benchmark::Benchmark;
    use mithra_axbench::dataset::DatasetScale;
    use mithra_axbench::suite;
    use mithra_core::pipeline::{compile, CompileConfig};
    use mithra_core::random::RandomFilter;
    use mithra_core::watchdog::{GuardState, WatchdogConfig};
    use std::sync::Arc;

    fn compiled_for(name: &str) -> Compiled {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        compile(bench, &CompileConfig::smoke()).unwrap()
    }

    fn fresh_profile(compiled: &Compiled, seed: u64) -> DatasetProfile {
        let ds = compiled.function.dataset(seed, DatasetScale::Smoke);
        DatasetProfile::collect(&compiled.function, ds)
    }

    fn session_config(compiled: &Compiled, spec: QualitySpec) -> SessionConfig {
        let mut recert = RecertConfig::paper_default();
        recert.select_after = 18;
        recert.train_samples = 1_500;
        recert.select_iterations = 8;
        recert.max_certify_trials = 80;
        // The production setup: the watchdog limit is calibrated against
        // the clean certified behaviour the compile session counted, so
        // clean serving sits below it and the drift scenarios push past
        // it.
        SessionConfig {
            options: SimOptions::default(),
            spec,
            watchdog: compiled.calibration.config(spec.confidence),
            watchdog_period: 2,
            recert,
            scale: DatasetScale::Smoke,
        }
    }

    #[test]
    fn recert_off_session_is_bit_identical_to_plain_runs() {
        // RecertConfig::off() must leave the dataset loop exactly as it
        // was before this subsystem existed: a sequence of plain run()
        // calls sharing one watchdog, charge for charge.
        let compiled = compiled_for("sobel");
        let spec = QualitySpec::paper_default(0.1).unwrap();
        let mut config = session_config(&compiled, spec);
        config.recert = RecertConfig::off();
        let drift = mithra_axbench::dataset::DriftSpec {
            scale: 1.25,
            offset: 0.15,
            noise_std: 0.0,
            seed: 41,
        };
        let schedule = DriftSchedule::Step { at: 2, drift };
        let seeds: Vec<u64> = (0..6).map(|i| 5_000_000 + i).collect();

        let session = run_session(&compiled, &seeds, &schedule, &config).unwrap();

        let mut dog = QualityWatchdog::new(config.watchdog);
        for (t, (&seed, got)) in seeds.iter().zip(&session.datasets).enumerate() {
            let ds = compiled.function.dataset(seed, config.scale);
            let ds = match schedule.drift_at(t) {
                Some(spec) => ds.drifted(&spec),
                None => ds,
            };
            let profile = DatasetProfile::collect(&compiled.function, ds);
            let mut cls = compiled.table.clone();
            let want = run(
                &compiled,
                &profile,
                &mut cls,
                &config.options,
                RunHooks::none().with_watchdog(&mut dog, config.watchdog_period),
            )
            .unwrap();
            assert_eq!(got.run, want, "dataset {t} diverged with recert off");
            assert_eq!(got.epoch, 0);
        }
        assert_eq!(session.watchdog, dog.report());
        assert_eq!(session.recert, RecertReport::default());
        assert_eq!(session.recert_charge, Charge::default());
        assert!(session.swaps.is_empty());
    }

    #[test]
    fn session_recovers_from_step_drift_by_hot_swapping() {
        // The tentpole scenario: sustained drift degrades the certified
        // pair, the watchdog walks down to Fallback, the re-certifier
        // collects, certifies and swaps, and serving resumes accelerated
        // under the new epoch.
        let compiled = compiled_for("sobel");
        // S = 0.7 rather than the paper's 0.9: under this drift the best
        // retrainable candidates pass ~85-90% of datasets, and an honest
        // always-valid test needs hundreds of trials to separate that from
        // S = 0.8+. A lighter S lets the e-process conclude within a
        // session-sized budget; the full-scale figw sweep keeps the paper
        // spec and simply runs much longer sessions.
        let spec = QualitySpec::new(0.1, 0.9, 0.7).unwrap();
        let config = session_config(&compiled, spec);
        let drift = mithra_axbench::dataset::DriftSpec {
            scale: 1.25,
            offset: 0.15,
            noise_std: 0.0,
            seed: 41,
        };
        let schedule = DriftSchedule::Step { at: 1, drift };
        let seeds: Vec<u64> = (0..220).map(|i| 5_100_000 + i).collect();

        let session = run_session(&compiled, &seeds, &schedule, &config).unwrap();

        assert!(
            !session.swaps.is_empty(),
            "no hot swap happened: watchdog {:?} recert {:?}",
            session.watchdog,
            session.recert
        );
        let swap = session.swaps[0];
        assert_eq!(swap.epoch, 1);
        assert!(swap.certify_trials > 0);
        assert!(
            session.recert_charge.cycles > 0.0,
            "recert was never charged"
        );

        // Fallback was visited before the swap and serving resumed after.
        assert!(session.watchdog.time_in.fallback > 0);
        let post: Vec<_> = session.datasets.iter().filter(|d| d.epoch > 0).collect();
        assert!(!post.is_empty(), "no dataset served under the new epoch");
        let post_rate =
            post.iter().map(|d| d.run.invocation_rate()).sum::<f64>() / post.len() as f64;
        assert!(
            post_rate > 0.02,
            "post-swap serving is not accelerated: rate {post_rate}"
        );
        // The re-certified pair defends q on most post-swap datasets.
        let passes = post
            .iter()
            .filter(|d| d.run.quality_loss <= spec.max_quality_loss)
            .count();
        assert!(
            passes * 10 >= post.len() * 7,
            "only {passes}/{} post-swap datasets met q",
            post.len()
        );
    }

    #[test]
    fn session_aborts_recert_when_transient_drift_reverts() {
        // Drift-then-revert: the watchdog recovers on its own once the
        // distribution returns, and the in-flight calibration window —
        // which describes the transient distribution — must be dropped,
        // not certified.
        let compiled = compiled_for("sobel");
        let spec = QualitySpec::new(0.1, 0.9, 0.8).unwrap();
        let mut config = session_config(&compiled, spec);
        // A long collection phase so the transient reverts mid-flight.
        config.recert.select_after = 40;
        let drift = mithra_axbench::dataset::DriftSpec {
            scale: 1.25,
            offset: 0.15,
            noise_std: 0.0,
            seed: 41,
        };
        let schedule = DriftSchedule::Transient {
            at: 1,
            until: 8,
            drift,
        };
        let seeds: Vec<u64> = (0..40).map(|i| 5_200_000 + i).collect();

        let session = run_session(&compiled, &seeds, &schedule, &config).unwrap();

        assert!(session.swaps.is_empty(), "swapped on a transient");
        assert_eq!(session.recert.swaps, 0);
        let last = session.datasets.last().unwrap();
        assert_eq!(last.epoch, 0, "epoch must not advance");
        assert_eq!(
            last.recert_phase,
            RecertPhase::Idle,
            "in-flight recert must abort on self-recovery"
        );
        assert_eq!(
            last.guard_state,
            GuardState::Monitoring,
            "watchdog must self-recover after the revert: {:?}",
            session.watchdog
        );
        assert!(session.watchdog.recoveries > 0);
    }

    #[test]
    fn session_refuses_online_updates_like_routed_runs() {
        // The live operating point is a router: a session refuses online
        // updates with the error run_routed returns, before it serves.
        let compiled = compiled_for("sobel");
        let spec = QualitySpec::paper_default(0.1).unwrap();
        let mut config = session_config(&compiled, spec);
        config.options.online_update_period = 4;
        let routed = run_routed(
            &compiled,
            &[&fresh_profile(&compiled, 5_300_000)],
            &config.options,
        )
        .unwrap_err();
        let session =
            run_session(&compiled, &[5_300_000], &DriftSchedule::None, &config).unwrap_err();
        for err in [&routed, &session] {
            assert!(
                matches!(
                    err,
                    SimError::Core(MithraError::InvalidConfig {
                        parameter: "online_update_period",
                        ..
                    })
                ),
                "{err:?}"
            );
        }
        assert_eq!(session.to_string(), routed.to_string());
    }

    #[test]
    fn oracle_dominates_realistic_designs() {
        let compiled = compiled_for("sobel");
        let profile = fresh_profile(&compiled, 777);
        let opts = SimOptions::default();

        let mut oracle = compiled.oracle_for(&profile);
        let oracle_run = simulate(&compiled, &profile, &mut oracle, &opts);

        let mut table = compiled.table.clone();
        let table_run = simulate(&compiled, &profile, &mut table, &opts);

        assert!(oracle_run.speedup() >= table_run.speedup() * 0.999);
        assert!(oracle_run.invocation_rate() >= table_run.invocation_rate() - 1e-9);
        assert_eq!(oracle_run.false_positives, 0);
        assert_eq!(oracle_run.false_negatives, 0);
    }

    #[test]
    fn speedup_exceeds_one_for_accelerated_runs() {
        let compiled = compiled_for("inversek2j");
        let profile = fresh_profile(&compiled, 888);
        let mut oracle = compiled.oracle_for(&profile);
        let run = simulate(&compiled, &profile, &mut oracle, &SimOptions::default());
        assert!(run.speedup() > 1.0, "speedup {}", run.speedup());
        assert!(
            run.energy_reduction() > 1.0,
            "energy {}",
            run.energy_reduction()
        );
        assert!(run.edp_improvement() > run.speedup());
    }

    #[test]
    fn never_approximating_matches_baseline_closely() {
        let compiled = compiled_for("sobel");
        let profile = fresh_profile(&compiled, 999);
        let mut never = RandomFilter::new(0.0, 1);
        let run = simulate(&compiled, &profile, &mut never, &SimOptions::default());
        assert_eq!(run.quality_loss, 0.0);
        assert_eq!(run.invocation_rate(), 0.0);
        // Only the redirect overhead separates it from the baseline.
        assert!(run.speedup() < 1.0);
        assert!(run.speedup() > 0.8, "speedup {}", run.speedup());
    }

    #[test]
    fn false_decision_accounting_is_consistent() {
        let compiled = compiled_for("blackscholes");
        let profile = fresh_profile(&compiled, 123);
        let mut table = compiled.table.clone();
        let run = simulate(&compiled, &profile, &mut table, &SimOptions::default());
        assert!(run.false_positives + run.false_negatives <= run.total);
        assert!(run.false_positive_rate() <= 1.0);
        // FP + correct rejections = total rejections.
        let rejections = run.total - run.invoked;
        assert!(run.false_positives <= rejections);
    }

    #[test]
    fn full_invocation_gives_max_speedup() {
        let compiled = compiled_for("sobel");
        let profile = fresh_profile(&compiled, 55);
        let opts = SimOptions::default();
        let mut always = RandomFilter::new(1.0, 2);
        let mut half = RandomFilter::new(0.5, 2);
        let full = simulate(&compiled, &profile, &mut always, &opts);
        let partial = simulate(&compiled, &profile, &mut half, &opts);
        assert!(full.speedup() > partial.speedup());
        assert!(full.energy_reduction() > partial.energy_reduction());
    }

    #[test]
    fn hook_free_run_matches_simulate_exactly() {
        let compiled = compiled_for("sobel");
        let profile = fresh_profile(&compiled, 777);
        let opts = SimOptions::default();
        let mut a = compiled.table.clone();
        let mut b = compiled.table.clone();
        let plain = simulate(&compiled, &profile, &mut a, &opts);
        let hooked = run(&compiled, &profile, &mut b, &opts, RunHooks::none()).unwrap();
        assert_eq!(plain, hooked);
    }

    #[test]
    fn zero_period_watchdog_is_canonically_disabled() {
        // The two historical spellings of "watchdog off" — no watchdog at
        // all, and a watchdog with sampling period 0 — must be the same
        // configuration: identical results AND an untouched watchdog (the
        // old representation still let a period-0 watchdog gate admission).
        let compiled = compiled_for("sobel");
        let profile = fresh_profile(&compiled, 4242);
        let opts = SimOptions::default();

        let mut a = compiled.table.clone();
        let plain = simulate(&compiled, &profile, &mut a, &opts);

        let mut dog = QualityWatchdog::new(WatchdogConfig::default());
        // Pre-degrade the watchdog: with the old semantics this state
        // would gate admission even at period 0.
        for _ in 0..50 {
            dog.record(true).unwrap();
        }
        let state_before = dog.state();
        let samples_before = dog.report().samples;

        let mut b = compiled.table.clone();
        let hooks = RunHooks::none().with_watchdog(&mut dog, 0);
        assert!(hooks.watchdog.is_none(), "period 0 must normalize to None");
        let spelled = run(&compiled, &profile, &mut b, &opts, hooks).unwrap();

        assert_eq!(plain, spelled);
        assert_eq!(dog.state(), state_before, "disabled watchdog was driven");
        assert_eq!(dog.report().samples, samples_before);
    }

    #[test]
    fn invocation_model_charges_match_run_components() {
        let compiled = compiled_for("sobel");
        let model = InvocationModel::new(
            &compiled,
            &compiled.table.clone().overhead(),
            &SimOptions::default(),
        );
        let approx = model.charge(Decision::Approximate, FifoEvent::None, false);
        let precise = model.charge(Decision::Precise, FifoEvent::None, false);
        let stalled = model.charge(Decision::Approximate, FifoEvent::Stall, false);
        let shadowed = model.charge(Decision::Approximate, FifoEvent::None, true);
        assert!(precise.cycles > approx.cycles, "kernel dwarfs the NPU");
        assert!(stalled.cycles > approx.cycles);
        assert!(shadowed.cycles > approx.cycles);
        assert!(model.baseline(100).cycles > 0.0);
        assert!(model.startup(100).cycles > 0.0);
    }

    fn routed_for(name: &str, pool_size: usize) -> mithra_core::route::RoutedCompiled {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        let spec = mithra_core::route::PoolSpec::sized(&bench.npu_topology(), pool_size);
        mithra_core::pipeline::compile_routed(bench, &CompileConfig::smoke(), &spec).unwrap()
    }

    #[test]
    fn cheap_route_is_charged_fewer_npu_cycles_than_accurate_route() {
        // Satellite regression: per-route costing must price each pool
        // member on its own topology, not the primary function's.
        let routed = routed_for("sobel", 3);
        assert!(
            routed.pool.len() >= 2,
            "tiers collapsed: {:?}",
            routed.pool.topologies()
        );
        let model = RoutedInvocationModel::new(&routed, &SimOptions::default());
        let cheap = model.charge_route(RouteChoice::Member(0), FifoEvent::None, false);
        let accurate = model.charge_route(
            RouteChoice::Member(routed.pool.len() - 1),
            FifoEvent::None,
            false,
        );
        assert!(
            cheap.cycles < accurate.cycles,
            "cheap {} vs accurate {} cycles",
            cheap.cycles,
            accurate.cycles
        );
        assert!(
            cheap.energy < accurate.energy,
            "cheap {} vs accurate {} nJ",
            cheap.energy,
            accurate.energy
        );
        // The precise fallback consults every router stage: its decision
        // overhead is the largest.
        let precise = model.charge_route(RouteChoice::Precise, FifoEvent::None, false);
        assert!(precise.cycles > accurate.cycles);
    }

    #[test]
    fn routed_pool_of_one_run_matches_binary_run_bit_for_bit() {
        let compiled = compiled_for("sobel");
        let bench = Arc::clone(compiled.function.benchmark());
        let spec = mithra_core::route::PoolSpec::single(bench.npu_topology());
        let routed =
            mithra_core::pipeline::compile_routed(bench, &CompileConfig::smoke(), &spec).unwrap();

        let profile = fresh_profile(&compiled, 777);
        let opts = SimOptions::default();
        let mut table = compiled.table.clone();
        let binary = simulate(&compiled, &profile, &mut table, &opts);

        let member_profiles = [&profile];
        let mixed = run_routed(&routed, &member_profiles, &opts).unwrap();

        assert_eq!(binary, mixed.run);
        assert_eq!(mixed.member_invocations[0], binary.invoked);

        // The binary artifact itself is the same pool of one.
        let pool_of_one = RoutedInvocationModel::pool_of_one(InvocationModel::new(
            &compiled,
            &compiled.table.overhead(),
            &opts,
        ));
        assert_eq!(RoutedInvocationModel::new(&compiled, &opts), pool_of_one);
        assert_eq!(
            run_routed(&compiled, &member_profiles, &opts).unwrap(),
            mixed
        );
    }

    #[test]
    fn frontier_means_fold_runs_in_dataset_order() {
        let compiled = compiled_for("sobel");
        let opts = SimOptions::default();
        let profiles: Vec<DatasetProfile> = [5, 6, 7]
            .into_iter()
            .map(|seed| fresh_profile(&compiled, seed))
            .collect();
        let (means, shares) =
            frontier_means(&compiled, std::slice::from_ref(&profiles), &opts).unwrap();
        let runs: Vec<RunResult> = profiles
            .iter()
            .map(|p| simulate(&compiled, p, &mut compiled.table.clone(), &opts))
            .collect();
        let mean = |f: fn(&RunResult) -> f64| runs.iter().map(f).fold(0.0, |a, x| a + x) / 3.0;
        assert_eq!(means.speedup, mean(RunResult::speedup));
        assert_eq!(means.energy_reduction, mean(RunResult::energy_reduction));
        assert_eq!(means.invocation_rate, mean(RunResult::invocation_rate));
        assert_eq!(means.mean_quality_loss, mean(|r| r.quality_loss));
        let invoked: usize = runs.iter().map(|r| r.invoked).sum();
        let total: usize = runs.iter().map(|r| r.total).sum();
        assert_eq!(shares, vec![invoked as f64 / total as f64]);

        let routed = routed_for("inversek2j", 3);
        let pool_profiles: Vec<Vec<DatasetProfile>> = routed
            .pool
            .members()
            .iter()
            .map(|m| {
                [8, 9]
                    .into_iter()
                    .map(|seed| DatasetProfile::collect(m, m.dataset(seed, DatasetScale::Smoke)))
                    .collect()
            })
            .collect();
        let (means, shares) = frontier_means(&routed, &pool_profiles, &opts).unwrap();
        assert_eq!(shares.len(), routed.pool.len());
        let pooled: f64 = shares.iter().sum();
        assert!(
            (pooled - means.invocation_rate).abs() < 1e-12,
            "{pooled} vs {means:?}"
        );
        // No datasets folds to zeros, not NaN.
        let empty = vec![Vec::new(); routed.pool.len()];
        let (means, _) = frontier_means(&routed, &empty, &opts).unwrap();
        assert_eq!(means.speedup, 0.0);
    }

    #[test]
    fn routed_runs_reject_online_updates() {
        let routed = routed_for("sobel", 1);
        let member = routed.pool.member(0);
        let profile = DatasetProfile::collect(member, member.dataset(31, DatasetScale::Smoke));
        let options = SimOptions {
            online_update_period: 4,
            ..SimOptions::default()
        };
        let err = run_routed(&routed, &[&profile], &options).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Core(MithraError::InvalidConfig {
                    parameter: "online_update_period",
                    ..
                })
            ),
            "{err:?}"
        );
        // The same run without online updates goes through.
        run_routed(&routed, &[&profile], &SimOptions::default()).unwrap();
    }

    #[test]
    fn routed_run_accounts_members_consistently() {
        let routed = routed_for("inversek2j", 3);
        let accurate = routed.pool.accurate();
        let ds = accurate.dataset(909, DatasetScale::Smoke);
        let member_profiles: Vec<DatasetProfile> = routed
            .pool
            .members()
            .iter()
            .map(|m| DatasetProfile::collect(m, ds.clone()))
            .collect();
        let refs: Vec<&DatasetProfile> = member_profiles.iter().collect();
        let result = run_routed(&routed, &refs, &SimOptions::default()).unwrap();
        assert_eq!(
            result.member_invocations.iter().sum::<usize>(),
            result.run.invoked
        );
        assert!(result.run.invoked <= result.run.total);
        assert!(result.run.speedup() > 0.0);
    }

    #[test]
    fn fifo_stalls_cost_cycles_without_hurting_quality() {
        let compiled = compiled_for("sobel");
        let profile = fresh_profile(&compiled, 31);
        let opts = SimOptions::default();
        let n = profile.invocation_count();
        let stalls = vec![FifoEvent::Stall; n];
        let mut a = compiled.oracle_for(&profile);
        let mut b = compiled.oracle_for(&profile);
        let clean = simulate(&compiled, &profile, &mut a, &opts);
        let stalled = run(
            &compiled,
            &profile,
            &mut b,
            &opts,
            RunHooks::with_fifo_events(&stalls),
        )
        .unwrap();
        assert!(stalled.accelerated_cycles > clean.accelerated_cycles);
        assert_eq!(stalled.quality_loss, clean.quality_loss);
        assert_eq!(stalled.invoked, clean.invoked);
    }

    #[test]
    fn fifo_drops_degrade_quality() {
        let compiled = compiled_for("sobel");
        let profile = fresh_profile(&compiled, 32);
        let opts = SimOptions::default();
        let n = profile.invocation_count();
        // Drop 3 of every 4 outputs: most reads are stale.
        let events: Vec<FifoEvent> = (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    FifoEvent::None
                } else {
                    FifoEvent::Drop
                }
            })
            .collect();
        let mut a = RandomFilter::new(1.0, 3);
        let mut b = RandomFilter::new(1.0, 3);
        let clean = simulate(&compiled, &profile, &mut a, &opts);
        let dropped = run(
            &compiled,
            &profile,
            &mut b,
            &opts,
            RunHooks::with_fifo_events(&events),
        )
        .unwrap();
        assert!(
            dropped.quality_loss > clean.quality_loss,
            "dropped {} vs clean {}",
            dropped.quality_loss,
            clean.quality_loss
        );
    }

    #[test]
    fn watchdog_fallback_restores_quality_under_heavy_faults() {
        let compiled = compiled_for("inversek2j");
        let ds = compiled.function.dataset(64, DatasetScale::Smoke);
        let armed = FaultPlan {
            npu_weight_bit_rate: 0.02,
            ..FaultPlan::disarmed()
        }
        .arm(&compiled, &ds)
        .unwrap();
        let opts = SimOptions::default();

        let mut unguarded_cls = armed.classifier.clone();
        let unguarded = run(
            &compiled,
            &armed.profile,
            &mut unguarded_cls,
            &opts,
            RunHooks::none(),
        )
        .unwrap();

        let mut watchdog = QualityWatchdog::new(WatchdogConfig::default());
        let mut guarded_cls = armed.classifier.clone();
        let guarded = run(
            &compiled,
            &armed.profile,
            &mut guarded_cls,
            &opts,
            RunHooks::none().with_watchdog(&mut watchdog, 2),
        )
        .unwrap();

        let report = watchdog.report();
        assert!(
            report.breaches > 0,
            "watchdog never fired under heavy faults: {report:?}"
        );
        assert!(
            guarded.quality_loss < unguarded.quality_loss,
            "guarded {} vs unguarded {}",
            guarded.quality_loss,
            unguarded.quality_loss
        );
        assert!(guarded.invoked < unguarded.invoked);
    }

    #[test]
    fn watchdog_stays_quiet_on_clean_runs() {
        let compiled = compiled_for("sobel");
        let profile = fresh_profile(&compiled, 65);
        let mut watchdog = QualityWatchdog::new(WatchdogConfig::default());
        let mut cls = compiled.oracle_for(&profile);
        let guarded = run(
            &compiled,
            &profile,
            &mut cls,
            &SimOptions::default(),
            RunHooks::none().with_watchdog(&mut watchdog, 4),
        )
        .unwrap();
        let report = watchdog.report();
        assert_eq!(report.breaches, 0, "{report:?}");
        assert_eq!(report.state, GuardState::Monitoring);
        // Sampling costs cycles but admission is never gated.
        let mut plain_cls = compiled.oracle_for(&profile);
        let plain = simulate(&compiled, &profile, &mut plain_cls, &SimOptions::default());
        assert_eq!(guarded.invoked, plain.invoked);
        assert_eq!(guarded.quality_loss, plain.quality_loss);
        assert!(guarded.accelerated_cycles > plain.accelerated_cycles);
    }
}
