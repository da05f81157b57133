//! Endpoints: one compiled benchmark, served as an addressable unit.
//!
//! An [`EndpointSpec`] binds a compiled artifact to the dataset profile it
//! serves; the engine lowers it into its internal endpoint state carrying
//! the [`Mixture`] it serves (a binary endpoint is the pool of one), the
//! artifact's lowered state, the watchdog prototype each worker
//! forks, and the slot table collecting per-invocation results. Slots
//! are keyed by invocation index, so however requests interleave across
//! workers, the finished endpoint folds its charges in index order — the
//! ordering that makes the aggregate bit-identical to sequential
//! simulation.
//!
//! What an endpoint needs of its artifact alone — the precomputed
//! per-route [`RoutedInvocationModel`], each member's NPU configuration
//! image and the watchdog limit — is lowered once per artifact at start
//! and shared through an `Arc` by every endpoint that serves the same
//! `Arc<Compiled>` (for a routed endpoint, the same `Arc<RoutedCompiled>`).
//!
//! A slot is one byte: 0 while its invocation is unserved, otherwise a
//! code for the route that served it (the precise fallback or pool
//! member `m`) and the watchdog's shadow-sample bit. A charge is a pure
//! function of those two under the artifact's per-route model, which
//! never changes after bring-up, so the slot keeps no charge and
//! `EndpointState::finish` recomputes each one in index order. Nor
//! does bring-up copy a router: the epoch-0 operating point names the
//! mixture's own, and each worker clones it into its shard when it
//! first serves the endpoint. DESIGN.md ("Bring-up") splits a guarded
//! start into its parts.

use crate::error::ServeError;
use crate::metrics::EndpointCounters;
use mithra_core::function::AcceleratedFunction;
use mithra_core::pipeline::Compiled;
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{Mixture, RouteChoice, RouteClassifier, RoutedCompiled};
use mithra_core::watchdog::{QualityWatchdog, WatchdogConfig};
use mithra_core::MithraError;
use mithra_sim::fault::FifoEvent;
use mithra_sim::system::{RoutedInvocationModel, RunFold, RunResult, SimOptions};
use mithra_stats::clopper_pearson::Confidence;
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
    /// The router a swap installed, which workers clone into their
    /// shards. `None` (epoch 0) serves the mixture's own router: the
    /// routed pool's router, or the binary table as a one-stage router.
    pub router: Option<RouteClassifier>,
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

/// The per-invocation result slots of one endpoint: one byte per
/// invocation. Code 0 means unserved; any other code is
/// `1 + 2 * route + shadow`, where `route` is 0 for the precise fallback
/// and `m + 1` for pool member `m`, and `shadow` is the watchdog's
/// shadow-sample bit. That is all a charge depends on, so the slot keeps
/// no charge: [`EndpointState::finish`] recomputes each one.
#[derive(Debug)]
pub(crate) struct SlotTable {
    codes: Vec<u8>,
    filled: usize,
}

impl SlotTable {
    /// The widest pool whose every route, shadow-sampled or not, has a
    /// one-byte code: member 125's shadow-sampled code is 254.
    pub const MAX_POOL: usize = 126;

    fn new(invocations: usize) -> Self {
        Self {
            codes: vec![0; invocations],
            filled: 0,
        }
    }

    /// The slot code of an invocation served on `route`, shadow-sampled
    /// or not. Never 0.
    ///
    /// # Panics
    ///
    /// Panics for a member of a pool wider than [`Self::MAX_POOL`], which
    /// [`EndpointState::build`] refuses.
    pub fn encode(route: RouteChoice, shadow: bool) -> u8 {
        let route = route.member().map_or(0, |m| m + 1);
        u8::try_from(1 + 2 * route + usize::from(shadow))
            .expect("endpoint build refuses pools too wide for a slot code")
    }

    /// The route and shadow bit of a served slot; `None` for an unserved
    /// one.
    pub fn decode(code: u8) -> Option<(RouteChoice, bool)> {
        let code = code.checked_sub(1)?;
        let route = match code >> 1 {
            0 => RouteChoice::Precise,
            r => RouteChoice::Member(usize::from(r) - 1),
        };
        Some((route, code & 1 == 1))
    }
}

/// What an endpoint's artifact lowers to: built once per artifact at
/// start and shared, through an `Arc`, by every endpoint that serves it
/// (the same `Arc<Compiled>`, or for a routed endpoint the same
/// `Arc<RoutedCompiled>`).
#[derive(Debug)]
pub(crate) struct Lowered {
    /// Per-route cost constants.
    pub model: RoutedInvocationModel,
    /// Each member's NPU configuration image (weights and biases as raw
    /// bit words), streamed through the config FIFO under the burst rule.
    pub member_config_words: Vec<Vec<u32>>,
    /// The guard tuning each endpoint's epoch-0 watchdog prototype gets;
    /// `None` when unguarded.
    watchdog: Option<WatchdogConfig>,
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
    /// The artifact's lowering, shared with every endpoint serving it.
    pub lowered: Arc<Lowered>,
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

    /// The address of the artifact the mixture comes from: endpoints
    /// with the same one share a [`Lowered`].
    pub(crate) fn artifact(&self) -> *const () {
        self.routed
            .as_ref()
            .map_or(Arc::as_ptr(&self.compiled).cast(), |r| {
                Arc::as_ptr(&r.routed).cast()
            })
    }
}

impl Lowered {
    /// Lowers a mixture: precomputes its per-route models, encodes each
    /// member's config image and, when `guard` is `Some`, applies the
    /// watchdog limit rule at that confidence to the calibration counts
    /// the artifact stored at compile time ([`Mixture::calibration`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::PoolTooWide`] for a pool wider than a slot code
    /// holds ([`SlotTable::MAX_POOL`]).
    pub fn new(
        mixture: Mixture<'_>,
        options: &SimOptions,
        guard: Option<Confidence>,
    ) -> Result<Self, ServeError> {
        let pool = mixture.members().len();
        if pool > SlotTable::MAX_POOL {
            return Err(ServeError::PoolTooWide {
                pool,
                max: SlotTable::MAX_POOL,
            });
        }
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
        Ok(Self {
            model: RoutedInvocationModel::new(mixture, options),
            member_config_words,
            watchdog: guard.map(|confidence| mixture.calibration().config(confidence)),
        })
    }
}

impl EndpointState {
    /// Binds a spec to its artifact's lowering, which must be
    /// [`Lowered::new`] of the spec's mixture.
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] when a routed attachment's member profiles do
    /// not cover the pool or the served dataset.
    pub fn build(spec: EndpointSpec, lowered: Arc<Lowered>) -> Result<Self, ServeError> {
        let pool = spec.mixture().members().len();
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
            threshold: lowered.model.threshold(),
            router: None,
            watchdog_proto: lowered.watchdog.map(QualityWatchdog::new),
        });
        Ok(Self {
            name,
            compiled,
            routed,
            member_profiles,
            lowered,
            op: Mutex::new(op),
            trigger: AtomicU64::new(TRIGGER_CLEAR),
            slots: Mutex::new(SlotTable::new(n)),
            counters: Mutex::new(EndpointCounters::default()),
        })
    }

    /// The mixture this endpoint serves.
    fn mixture(&self) -> Mixture<'_> {
        self.routed
            .as_ref()
            .map_or(Mixture::Binary(&self.compiled), |r| Mixture::Routed(r))
    }

    /// The members of the mixture this endpoint serves, cheapest first.
    pub fn members(&self) -> &[AcceleratedFunction] {
        self.mixture().members()
    }

    /// A shard's copy of the router `op` serves under: the installed one,
    /// or at epoch 0 the mixture's own.
    pub(crate) fn router(&self, op: &OperatingPoint) -> RouteClassifier {
        op.router.clone().unwrap_or_else(|| self.mixture().router())
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
            router: Some(router),
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
    /// bit-for-bit (watchdog off). Each charge is recomputed from its
    /// slot's route and shadow bit by the same pure
    /// [`RoutedInvocationModel::charge_route`] call the worker made, on a
    /// model that never changes after [`build`](Self::build), so it is the
    /// charge the worker computed, bit for bit. Returns `None` while any
    /// invocation is still unserved.
    ///
    /// # Errors
    ///
    /// Propagates quality-scoring failures from the mixing replay.
    pub fn finish(&self) -> Result<Option<RunResult>, ServeError> {
        let table = self.slots.lock().expect("slot lock poisoned");
        if table.filled < table.codes.len() {
            return Ok(None);
        }
        let refs: Vec<&DatasetProfile> = self.member_profiles.iter().collect();
        let model = &self.lowered.model;
        let mut fold = RunFold::new(model, &refs).map_err(ServeError::Core)?;
        for &code in &table.codes {
            let (route, shadow) = SlotTable::decode(code).expect("filled table has no holes");
            let charge = model.charge_route(route, FifoEvent::None, shadow);
            fold.push(route, FifoEvent::None, charge);
        }
        drop(table);
        let bench = self.compiled.function.benchmark().as_ref();
        let result = fold.finish(bench).map_err(ServeError::Core)?;
        Ok(Some(result.run))
    }

    /// Records a sub-batch of served invocations, each an invocation
    /// index and its [`SlotTable::encode`] code, under one slot-table
    /// lock, pushing `true` per entry into `fresh` — or `false` (charging
    /// nothing) for a slot that was already filled, a duplicate request.
    pub fn fill_slots(&self, entries: &[(usize, u8)], fresh: &mut Vec<bool>) {
        fresh.clear();
        let mut table = self.slots.lock().expect("slot lock poisoned");
        for &(invocation, code) in entries {
            let slot = &mut table.codes[invocation];
            if *slot != 0 {
                fresh.push(false);
            } else {
                *slot = code;
                table.filled += 1;
                fresh.push(true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithra_axbench::benchmark::Benchmark;
    use mithra_axbench::dataset::DatasetScale;
    use mithra_core::pipeline::{compile, compile_routed, CompileConfig};
    use mithra_core::route::PoolSpec;

    #[test]
    fn every_route_of_a_pool_of_three_round_trips_through_its_code() {
        let routes = [
            RouteChoice::Precise,
            RouteChoice::Member(0),
            RouteChoice::Member(1),
            RouteChoice::Member(2),
        ];
        let mut codes = Vec::new();
        for route in routes {
            for shadow in [false, true] {
                let code = SlotTable::encode(route, shadow);
                assert_ne!(code, 0, "{route:?} shadow {shadow} reads as unserved");
                assert_eq!(SlotTable::decode(code), Some((route, shadow)));
                codes.push(code);
            }
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 2 * routes.len(), "codes are distinct");
        assert_eq!(SlotTable::decode(0), None);
        // The widest pool's last member still fits, shadow bit included.
        let last = RouteChoice::Member(SlotTable::MAX_POOL - 1);
        assert_eq!(SlotTable::encode(last, true), 254);
        assert_eq!(
            SlotTable::decode(SlotTable::encode(last, true)),
            Some((last, true))
        );
    }

    #[test]
    fn finish_folds_the_charges_served_at_serve_time() {
        let bench: Arc<dyn Benchmark> =
            mithra_axbench::suite::by_name("inversek2j").unwrap().into();
        let config = CompileConfig::smoke();
        let compiled = Arc::new(compile(Arc::clone(&bench), &config).unwrap());
        let pool = PoolSpec::sized(&bench.npu_topology(), 3);
        let routed = Arc::new(compile_routed(bench, &config, &pool).unwrap());
        let members = routed.pool.members();
        assert!(members.len() >= 2, "{:?}", routed.pool.topologies());
        let member_profiles: Vec<DatasetProfile> = members
            .iter()
            .map(|m| DatasetProfile::collect(m, m.dataset(11, DatasetScale::Smoke)))
            .collect();
        let spec = EndpointSpec {
            name: "routed".into(),
            compiled,
            profile: member_profiles[0].clone(),
            routed: Some(RoutedServeSpec {
                routed: Arc::clone(&routed),
                member_profiles,
            }),
        };
        let lowered = Lowered::new(spec.mixture(), &SimOptions::default(), None).unwrap();
        let state = EndpointState::build(spec, Arc::new(lowered)).unwrap();
        let n = state.profile().invocation_count();

        // Every route of the pool, shadow-sampled and not, precise
        // fallbacks included (a guard can demote a sampled member).
        let routes = members.len() + 1;
        let entries: Vec<(RouteChoice, bool)> = (0..n)
            .map(|i| {
                let route = match i % routes {
                    0 => RouteChoice::Precise,
                    r => RouteChoice::Member(r - 1),
                };
                (route, (i / routes) % 2 == 1)
            })
            .collect();
        let refs: Vec<&DatasetProfile> = state.member_profiles.iter().collect();
        let model = &state.lowered.model;
        let mut fold = RunFold::new(model, &refs).unwrap();
        for &(route, shadow) in &entries {
            let charge = model.charge_route(route, FifoEvent::None, shadow);
            fold.push(route, FifoEvent::None, charge);
        }
        let bench = state.compiled.function.benchmark().as_ref();
        let want = fold.finish(bench).unwrap().run;

        // Fill back to front, in sub-batches of 7, so index order is the
        // fold's doing.
        let coded: Vec<(usize, u8)> = entries
            .iter()
            .enumerate()
            .rev()
            .map(|(i, &(route, shadow))| (i, SlotTable::encode(route, shadow)))
            .collect();
        let mut fresh = Vec::new();
        for (k, chunk) in coded.chunks(7).enumerate() {
            assert_eq!(state.finish().unwrap(), None, "unserved after {k} chunks");
            state.fill_slots(chunk, &mut fresh);
            assert!(fresh.iter().all(|&f| f));
        }
        // A duplicate is refused and changes nothing.
        state.fill_slots(&coded[..1], &mut fresh);
        assert_eq!(fresh, [false]);
        assert_eq!(state.finish().unwrap(), Some(want));
    }
}
