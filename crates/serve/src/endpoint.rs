//! Endpoints: one compiled benchmark, served as an addressable unit.
//!
//! An [`EndpointSpec`] binds a compiled artifact to the dataset profile it
//! serves; the engine lowers it into an [`EndpointState`] carrying the
//! precomputed [`InvocationModel`], the oracle ground truth, the NPU
//! configuration image, the calibrated watchdog prototype each worker
//! forks, and the slot table collecting per-invocation results. Slots are
//! keyed by invocation index, so however requests interleave across
//! workers, the finished endpoint folds its charges in index order — the
//! ordering that makes the aggregate bit-identical to sequential
//! simulation.

use crate::error::ServeError;
use crate::metrics::EndpointCounters;
use mithra_core::classifier::Classifier;
use mithra_core::pipeline::Compiled;
use mithra_core::profile::{DatasetProfile, Route};
use mithra_core::route::{oracle_route, RouteChoice, RoutedCompiled};
use mithra_core::table::TableClassifier;
use mithra_core::watchdog::{QualityWatchdog, WatchdogConfig};
use mithra_core::MithraError;
use mithra_sim::fault::FifoEvent;
use mithra_sim::system::{InvocationModel, RoutedInvocationModel, RunResult, SimOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The sentinel value of the shared re-certification trigger when no
/// request is pending.
const TRIGGER_CLEAR: u64 = u64::MAX;

/// The live operating point of an endpoint: the threshold/classifier pair
/// (and the watchdog prototype guarding it) that requests are currently
/// served under, versioned by a swap epoch.
///
/// Workers grab the current `Arc` at sub-batch start, so a hot swap never
/// tears a batch: an in-flight sub-batch finishes on the epoch it started
/// under, and the worker's next sub-batch picks up the new one. That is
/// the whole synchronization story — no locks on the serving path beyond
/// the one pointer load per sub-batch.
#[derive(Debug)]
pub(crate) struct OperatingPoint {
    /// Swap generation: 0 is the compile-time certificate, each installed
    /// swap bumps it by one.
    pub epoch: u64,
    /// The local error threshold shadow samples are judged against.
    pub threshold: f32,
    /// The classifier workers clone into their shards.
    pub table: TableClassifier,
    /// Watchdog prototype for this epoch; each worker forks a fresh copy,
    /// so a swap also resets the guard ladder to `Monitoring`.
    pub watchdog_proto: Option<QualityWatchdog>,
}

/// A compiled benchmark plus the dataset it serves — the unit the engine
/// exposes as an endpoint.
#[derive(Debug)]
pub struct EndpointSpec {
    /// Display/metrics name (conventionally the benchmark name).
    pub name: String,
    /// The compiled artifact (accelerator, threshold, classifiers).
    pub compiled: Arc<Compiled>,
    /// The profiled dataset whose invocations this endpoint serves.
    pub profile: DatasetProfile,
    /// Optional multi-approximator routing attachment. `None` serves the
    /// binary accept/reject path exactly as before; `Some` routes each
    /// invocation over the pool instead (see [`RoutedServeSpec`]).
    pub routed: Option<RoutedServeSpec>,
}

/// The routing attachment of an endpoint: the routed compile product and
/// the pool's view of the served dataset.
#[derive(Debug)]
pub struct RoutedServeSpec {
    /// The routed compile product (pool, certified mixture threshold,
    /// router cascade).
    pub routed: Arc<RoutedCompiled>,
    /// Pool member `m`'s profile of the **same** dataset the endpoint's
    /// `profile` covers, cheapest member first.
    pub member_profiles: Vec<DatasetProfile>,
}

/// One served invocation: the worker's decision and its charge, parked in
/// the slot table until the endpoint is finished.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServedInvocation {
    /// Did the invocation run on the accelerator?
    pub approx: bool,
    /// Which pool member served it (meaningful only when `approx` on a
    /// routed endpoint; always 0 on the binary path).
    pub member: usize,
    /// Simulated core-visible cycles charged.
    pub cycles: f64,
    /// Simulated energy charged (nJ).
    pub energy: f64,
}

/// The per-invocation result slots of one endpoint.
#[derive(Debug)]
pub(crate) struct SlotTable {
    pub slots: Vec<Option<ServedInvocation>>,
    pub filled: usize,
}

/// The engine-internal state of one endpoint, shared across workers.
#[derive(Debug)]
pub(crate) struct EndpointState {
    pub name: String,
    pub compiled: Arc<Compiled>,
    pub profile: DatasetProfile,
    pub model: InvocationModel,
    /// Oracle ground truth at the certified threshold, for false-decision
    /// accounting.
    pub oracle_rejects: Vec<bool>,
    /// The NPU configuration image (weights and biases as raw bit words)
    /// streamed through the config FIFO once per same-endpoint sub-batch.
    pub config_words: Vec<u32>,
    /// The epoch-versioned operating point workers serve under; swapped
    /// atomically by [`install`](Self::install).
    op: Mutex<Arc<OperatingPoint>>,
    /// The shared re-certification trigger: [`TRIGGER_CLEAR`] when clear,
    /// otherwise the epoch whose watchdog shards requested
    /// re-certification. One trigger per endpoint per epoch — the fix for
    /// per-worker forked watchdogs racing to fire their own.
    trigger: AtomicU64,
    /// Routed sub-state; `None` keeps the binary serving path untouched.
    pub routed: Option<RoutedEndpointState>,
    pub slots: Mutex<SlotTable>,
    pub counters: Mutex<EndpointCounters>,
}

/// Lowered routing attachment: per-route cost models, per-member NPU
/// configuration images, and the oracle route of every invocation.
#[derive(Debug)]
pub(crate) struct RoutedEndpointState {
    pub routed: Arc<RoutedCompiled>,
    pub member_profiles: Vec<DatasetProfile>,
    pub model: RoutedInvocationModel,
    /// Per-member configuration images, streamed on route switches.
    pub member_config_words: Vec<Vec<u32>>,
    /// Ground-truth route of every invocation at the certified routed
    /// threshold, for false-decision accounting.
    pub oracle_routes: Vec<RouteChoice>,
}

impl RoutedEndpointState {
    fn build(
        spec: RoutedServeSpec,
        served_invocations: usize,
        options: &SimOptions,
    ) -> Result<Self, ServeError> {
        let RoutedServeSpec {
            routed,
            member_profiles,
        } = spec;
        if member_profiles.len() != routed.pool.len() {
            return Err(ServeError::Core(MithraError::InsufficientData {
                stage: "routed endpoint build",
                available: member_profiles.len(),
                needed: routed.pool.len(),
            }));
        }
        for p in &member_profiles {
            if p.invocation_count() != served_invocations {
                return Err(ServeError::Core(MithraError::InsufficientData {
                    stage: "routed endpoint build",
                    available: p.invocation_count(),
                    needed: served_invocations,
                }));
            }
        }
        let model = RoutedInvocationModel::new(&routed, options);
        let threshold = model.threshold();
        let refs: Vec<&DatasetProfile> = member_profiles.iter().collect();
        let oracle_routes = (0..served_invocations)
            .map(|i| oracle_route(&refs, i, threshold))
            .collect();
        let member_config_words = routed
            .pool
            .members()
            .iter()
            .map(|member| {
                let (weights, biases) = member.npu().to_parameters();
                weights
                    .iter()
                    .chain(biases.iter())
                    .map(|w| w.to_bits())
                    .collect()
            })
            .collect();
        Ok(Self {
            routed,
            member_profiles,
            model,
            member_config_words,
            oracle_routes,
        })
    }
}

impl EndpointState {
    /// Lowers a spec: precomputes the invocation model and ground truth
    /// and encodes the config image. `watchdog` is the endpoint's
    /// calibrated guard tuning (`None` when unguarded); workers fork the
    /// prototype built from it instead of re-running calibration.
    pub fn build(
        spec: EndpointSpec,
        options: &SimOptions,
        watchdog: Option<WatchdogConfig>,
    ) -> Result<Self, ServeError> {
        let EndpointSpec {
            name,
            compiled,
            profile,
            routed,
        } = spec;
        let model = InvocationModel::new(&compiled, &compiled.table.overhead(), options);
        let oracle_rejects = profile.oracle_rejects(model.threshold());
        let (weights, biases) = compiled.function.npu().to_parameters();
        let config_words: Vec<u32> = weights
            .iter()
            .chain(biases.iter())
            .map(|w| w.to_bits())
            .collect();
        let watchdog_proto = watchdog.map(QualityWatchdog::new);
        let n = profile.invocation_count();
        let routed = routed
            .map(|r| RoutedEndpointState::build(r, n, options))
            .transpose()?;
        let op = Arc::new(OperatingPoint {
            epoch: 0,
            threshold: model.threshold(),
            table: compiled.table.clone(),
            watchdog_proto,
        });
        Ok(Self {
            name,
            compiled,
            profile,
            model,
            oracle_rejects,
            config_words,
            op: Mutex::new(op),
            trigger: AtomicU64::new(TRIGGER_CLEAR),
            routed,
            slots: Mutex::new(SlotTable {
                slots: vec![None; n],
                filled: 0,
            }),
            counters: Mutex::new(EndpointCounters::default()),
        })
    }

    /// The operating point new sub-batches serve under. Workers call this
    /// once per sub-batch and keep the `Arc` for the batch's duration.
    pub(crate) fn operating_point(&self) -> Arc<OperatingPoint> {
        Arc::clone(&self.op.lock().expect("operating-point lock poisoned"))
    }

    /// Raises the shared re-certification trigger for `epoch`. Returns
    /// `true` only for the shard that raised it first; concurrent shards
    /// observing `Fallback` together lose the compare-exchange and return
    /// `false`, so the trigger fires exactly once per epoch.
    pub(crate) fn request_recert(&self, epoch: u64) -> bool {
        self.trigger
            .compare_exchange(TRIGGER_CLEAR, epoch, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The epoch whose watchdogs requested re-certification, if any.
    pub(crate) fn recert_requested(&self) -> Option<u64> {
        match self.trigger.load(Ordering::Acquire) {
            TRIGGER_CLEAR => None,
            epoch => Some(epoch),
        }
    }

    /// Atomically installs a new operating point — the hot-swap path.
    /// Bumps the epoch, resets the shared trigger, and returns the new
    /// epoch. `watchdog` of `None` carries the previous epoch's watchdog
    /// configuration forward (workers still fork fresh, `Monitoring`
    /// instances); `Some` installs the re-certified configuration.
    pub(crate) fn install(
        &self,
        threshold: f32,
        table: TableClassifier,
        watchdog: Option<WatchdogConfig>,
    ) -> u64 {
        let mut op = self.op.lock().expect("operating-point lock poisoned");
        let watchdog_proto = match watchdog {
            Some(config) => Some(QualityWatchdog::new(config)),
            None => op.watchdog_proto.clone(),
        };
        let next = Arc::new(OperatingPoint {
            epoch: op.epoch + 1,
            threshold,
            table,
            watchdog_proto,
        });
        *op = next;
        // Clear after publishing the swap: a shard that raced the swap and
        // raised the old epoch's trigger is wiped here, and any breach of
        // the *new* pair re-raises it under the new epoch.
        self.trigger.store(TRIGGER_CLEAR, Ordering::Release);
        op.epoch
    }

    /// Folds the filled slot table into a [`RunResult`], in invocation
    /// order — the same initial charges and the same accumulation order as
    /// `mithra_sim::system::run`, which is what pins batched serving to
    /// the sequential simulator bit-for-bit (watchdog off). Returns `None`
    /// while any invocation is still unserved.
    ///
    /// # Errors
    ///
    /// Propagates quality-scoring failures from the routed replay.
    pub fn finish(&self) -> Result<Option<RunResult>, ServeError> {
        let table = self.slots.lock().expect("slot lock poisoned");
        let n = table.slots.len();
        if table.filled < n {
            return Ok(None);
        }
        if let Some(routed) = &self.routed {
            return Self::finish_routed(routed, &table).map(Some);
        }
        let baseline = self.model.baseline(n);
        let startup = self.model.startup(n);
        let mut cycles = startup.cycles;
        let mut energy = startup.energy;
        let mut routes: Vec<Route> = Vec::with_capacity(n);
        let mut invoked = 0usize;
        let (mut false_positives, mut false_negatives) = (0usize, 0usize);
        for (i, slot) in table.slots.iter().enumerate() {
            let s = slot.expect("filled table has no holes");
            cycles += s.cycles;
            energy += s.energy;
            if s.approx {
                invoked += 1;
                if self.oracle_rejects[i] {
                    false_negatives += 1;
                }
                routes.push(Route::Approx);
            } else {
                if !self.oracle_rejects[i] {
                    false_positives += 1;
                }
                routes.push(Route::Precise);
            }
        }
        drop(table);
        let replay = self
            .profile
            .try_replay_routed(&self.compiled.function, &routes)
            .map_err(ServeError::Core)?;
        Ok(Some(RunResult {
            baseline_cycles: baseline.cycles,
            accelerated_cycles: cycles,
            baseline_energy_nj: baseline.energy,
            accelerated_energy_nj: energy,
            quality_loss: replay.quality_loss,
            invoked,
            total: n,
            false_positives,
            false_negatives,
        }))
    }

    /// The routed counterpart of the binary fold: identical index-order
    /// accumulation, but slots resolve to [`RouteChoice`]s, false
    /// decisions are judged against the routing oracle, and quality comes
    /// from the pool's mixed replay — the same fold
    /// `mithra_sim::system::run_routed` performs, which is what keeps a
    /// fully-covered routed endpoint bit-identical to the sequential
    /// routed simulator.
    fn finish_routed(
        routed: &RoutedEndpointState,
        table: &SlotTable,
    ) -> Result<RunResult, ServeError> {
        let n = table.slots.len();
        let baseline = routed.model.baseline(n);
        let startup = routed.model.startup(n);
        let mut cycles = startup.cycles;
        let mut energy = startup.energy;
        let threshold = routed.model.threshold();
        let mut choices: Vec<RouteChoice> = Vec::with_capacity(n);
        let mut invoked = 0usize;
        let (mut false_positives, mut false_negatives) = (0usize, 0usize);
        for (i, slot) in table.slots.iter().enumerate() {
            let s = slot.expect("filled table has no holes");
            cycles += s.cycles;
            energy += s.energy;
            if s.approx {
                invoked += 1;
                if routed.member_profiles[s.member].max_error(i) > threshold {
                    false_negatives += 1;
                }
                choices.push(RouteChoice::Member(s.member));
            } else {
                if !routed.oracle_routes[i].is_precise() {
                    false_positives += 1;
                }
                choices.push(RouteChoice::Precise);
            }
        }
        let refs: Vec<&DatasetProfile> = routed.member_profiles.iter().collect();
        let replay = routed
            .routed
            .pool
            .replay_routed_choices(&refs, &choices)
            .map_err(ServeError::Core)?;
        Ok(RunResult {
            baseline_cycles: baseline.cycles,
            accelerated_cycles: cycles,
            baseline_energy_nj: baseline.energy,
            accelerated_energy_nj: energy,
            quality_loss: replay.quality_loss,
            invoked,
            total: n,
            false_positives,
            false_negatives,
        })
    }

    /// Records a sub-batch of served invocations under one slot-table
    /// lock, pushing `true` per entry into `fresh` — or `false` (charging
    /// nothing) for a slot that was already filled, a duplicate request.
    pub fn fill_slots(&self, entries: &[(usize, ServedInvocation)], fresh: &mut Vec<bool>) {
        fresh.clear();
        let mut table = self.slots.lock().expect("slot lock poisoned");
        for &(invocation, served) in entries {
            let slot = &mut table.slots[invocation];
            if slot.is_some() {
                fresh.push(false);
            } else {
                *slot = Some(served);
                table.filled += 1;
                fresh.push(true);
            }
        }
    }
}

/// Re-exported for workers: the clean FIFO event serving always charges.
pub(crate) const CLEAN_EVENT: FifoEvent = FifoEvent::None;
