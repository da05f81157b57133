//! Endpoints: one compiled benchmark, served as an addressable unit.
//!
//! An [`EndpointSpec`] binds a compiled artifact to the dataset profile it
//! serves; the engine lowers it into its internal endpoint state carrying
//! the [`Mixture`] it serves (a binary endpoint is the pool of one), the
//! precomputed per-route [`RoutedInvocationModel`], each member's NPU
//! configuration image, the calibrated watchdog prototype each worker
//! forks, and the slot table collecting per-invocation results. Slots
//! are keyed by invocation index, so however requests interleave across
//! workers, the finished endpoint folds its charges in index order — the
//! ordering that makes the aggregate bit-identical to sequential
//! simulation.

use crate::error::ServeError;
use crate::metrics::EndpointCounters;
use mithra_core::function::AcceleratedFunction;
use mithra_core::pipeline::Compiled;
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{Mixture, RouteChoice, RouteClassifier, RoutedCompiled};
use mithra_core::watchdog::{QualityWatchdog, WatchdogConfig};
use mithra_core::MithraError;
use mithra_sim::fault::FifoEvent;
use mithra_sim::system::{Charge, RoutedInvocationModel, RunFold, RunResult, SimOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The sentinel value of the shared re-certification trigger when no
/// request is pending.
const TRIGGER_CLEAR: u64 = u64::MAX;

/// The live operating point of an endpoint: the threshold/router pair
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
    /// The router workers clone into their shards: the routed pool's
    /// router, or the binary table as a one-stage router.
    pub router: RouteClassifier,
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
    /// compiled function and table classifier as the pool of one; `Some`
    /// routes each invocation over the attached pool instead (see
    /// [`RoutedServeSpec`]).
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

/// One served invocation: the worker's route and its charge, parked in
/// the slot table until the endpoint is finished.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServedInvocation {
    /// The pool member that served the invocation, or the precise
    /// fallback.
    pub route: RouteChoice,
    /// Simulated cycles and energy charged.
    pub charge: Charge,
}

/// The per-invocation result slots of one endpoint.
#[derive(Debug)]
pub(crate) struct SlotTable {
    pub slots: Vec<Option<ServedInvocation>>,
    pub filled: usize,
}

/// The engine-internal state of one endpoint, shared across workers. A
/// binary endpoint is the pool of one: member 0 is `compiled.function`
/// and the profile it serves is its only member profile.
#[derive(Debug)]
pub(crate) struct EndpointState {
    pub name: String,
    pub compiled: Arc<Compiled>,
    /// The routed compile product whose pool serves the endpoint; `None`
    /// for a binary endpoint.
    routed: Option<Arc<RoutedCompiled>>,
    /// Pool member `m`'s profile of the served dataset, cheapest first.
    pub member_profiles: Vec<DatasetProfile>,
    /// Per-route cost constants.
    pub model: RoutedInvocationModel,
    /// Each member's NPU configuration image (weights and biases as raw
    /// bit words), streamed through the config FIFO under the burst rule.
    pub member_config_words: Vec<Vec<u32>>,
    /// The epoch-versioned operating point workers serve under; swapped
    /// atomically by [`install`](Self::install).
    op: Mutex<Arc<OperatingPoint>>,
    /// The shared re-certification trigger: [`TRIGGER_CLEAR`] when clear,
    /// otherwise the epoch whose watchdog shards requested
    /// re-certification. One trigger per endpoint per epoch — the fix for
    /// per-worker forked watchdogs racing to fire their own.
    trigger: AtomicU64,
    pub slots: Mutex<SlotTable>,
    pub counters: Mutex<EndpointCounters>,
}

impl EndpointSpec {
    /// The mixture this endpoint serves: the routed attachment's pool, or
    /// the compiled artifact as its pool of one.
    pub(crate) fn mixture(&self) -> Mixture<'_> {
        self.routed
            .as_ref()
            .map_or(Mixture::Binary(&self.compiled), |r| {
                Mixture::Routed(&r.routed)
            })
    }
}

impl EndpointState {
    /// Lowers a spec: precomputes the per-route models and encodes each
    /// member's config image. `watchdog` is the endpoint's guard tuning
    /// (`None` when unguarded), the limit rule applied to the calibration
    /// counts its artifact stored at compile time
    /// ([`Mixture::calibration`]); workers fork the prototype built from
    /// it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] when a routed attachment's member profiles do
    /// not cover the pool or the served dataset.
    pub fn build(
        spec: EndpointSpec,
        options: &SimOptions,
        watchdog: Option<WatchdogConfig>,
    ) -> Result<Self, ServeError> {
        let mixture = spec.mixture();
        let model = RoutedInvocationModel::new(mixture, options);
        let router = mixture.router();
        let pool = mixture.members().len();
        let member_config_words = mixture
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
        let EndpointSpec {
            name,
            compiled,
            profile,
            routed,
        } = spec;
        let n = profile.invocation_count();
        let (routed, member_profiles) = match routed {
            Some(r) => (Some(r.routed), r.member_profiles),
            None => (None, vec![profile]),
        };
        let insufficient = |available, needed| {
            ServeError::Core(MithraError::InsufficientData {
                stage: "routed endpoint build",
                available,
                needed,
            })
        };
        if member_profiles.len() != pool {
            return Err(insufficient(member_profiles.len(), pool));
        }
        if let Some(p) = member_profiles.iter().find(|p| p.invocation_count() != n) {
            return Err(insufficient(p.invocation_count(), n));
        }
        let op = Arc::new(OperatingPoint {
            epoch: 0,
            threshold: model.threshold(),
            router,
            watchdog_proto: watchdog.map(QualityWatchdog::new),
        });
        Ok(Self {
            name,
            compiled,
            routed,
            member_profiles,
            model,
            member_config_words,
            op: Mutex::new(op),
            trigger: AtomicU64::new(TRIGGER_CLEAR),
            slots: Mutex::new(SlotTable {
                slots: vec![None; n],
                filled: 0,
            }),
            counters: Mutex::new(EndpointCounters::default()),
        })
    }

    /// The members of the mixture this endpoint serves, cheapest first.
    pub fn members(&self) -> &[AcceleratedFunction] {
        let mixture = self
            .routed
            .as_ref()
            .map_or(Mixture::Binary(&self.compiled), |r| Mixture::Routed(r));
        mixture.members()
    }

    /// The profile of the served dataset (member 0's).
    pub fn profile(&self) -> &DatasetProfile {
        &self.member_profiles[0]
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
        router: RouteClassifier,
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
            router,
            watchdog_proto,
        });
        *op = next;
        // Clear after publishing the swap: a shard that raced the swap and
        // raised the old epoch's trigger is wiped here, and any breach of
        // the *new* pair re-raises it under the new epoch.
        self.trigger.store(TRIGGER_CLEAR, Ordering::Release);
        op.epoch
    }

    /// Folds the filled slot table into a [`RunResult`] through
    /// `mithra_sim`'s [`RunFold`], in invocation order — the fold
    /// `run_routed` (and so `run` for a pool of one) feeds as it decides,
    /// which is what pins batched serving to the sequential simulator
    /// bit-for-bit (watchdog off). Returns `None` while any invocation is
    /// still unserved.
    ///
    /// # Errors
    ///
    /// Propagates quality-scoring failures from the mixing replay.
    pub fn finish(&self) -> Result<Option<RunResult>, ServeError> {
        let table = self.slots.lock().expect("slot lock poisoned");
        if table.filled < table.slots.len() {
            return Ok(None);
        }
        let refs: Vec<&DatasetProfile> = self.member_profiles.iter().collect();
        let mut fold = RunFold::new(&self.model, &refs).map_err(ServeError::Core)?;
        for slot in &table.slots {
            let s = slot.expect("filled table has no holes");
            fold.push(s.route, FifoEvent::None, s.charge);
        }
        drop(table);
        let bench = self.compiled.function.benchmark().as_ref();
        let result = fold.finish(bench).map_err(ServeError::Core)?;
        Ok(Some(result.run))
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
