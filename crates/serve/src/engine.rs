//! The sharded serving engine.
//!
//! `N` worker threads, each owning its **own** NPU context per endpoint —
//! FIFOs, a router clone, and a forked [`QualityWatchdog`] — drain a
//! shared bounded request queue in batches. Within a batch, consecutive
//! requests for the same endpoint form a sub-batch, served by one path
//! for binary and routed endpoints alike (a binary endpoint is the pool
//! of one): route every request, run each served member's share through
//! one batched accelerator call, then charge each route. The routing
//! decision stays strictly per-invocation, exactly as MITHRA requires.
//! One config-burst rule holds everywhere: a member's image streams when
//! the served member differs from the one configured, fresh per
//! sub-batch.
//!
//! Cost accounting goes through the same per-route [`InvocationModel`]
//! constants the sequential simulator uses, and per-invocation results
//! land in index-keyed slots, so a finished endpoint's [`RunResult`] is
//! **bit-identical** to `sim::system::run_routed` over the endpoint's
//! [`Mixture`] (for a binary endpoint, `sim::system::simulate` under its
//! table) regardless of worker count, batch size, or arrival order
//! (watchdog off; with the watchdog on, admission becomes shard-local
//! state and the engine trades that identity for per-shard guarding).
//!
//! The guard is the same for every endpoint. Its limit is a compile-time
//! quantity: the compile stage that trained the endpoint's router counted
//! its clean admissions and violations over the compile profiles and
//! stored them in the artifact, so bring-up reads them through
//! [`Mixture::calibration`] and applies the limit rule, one endpoint at a
//! time, without routing anything. Shards gate routes with
//! `QualityWatchdog::admit_route`, and
//! [`ServeEngine::swap_operating_point`] installs a new threshold and
//! router through the epoch path, binary and routed alike.
//!
//! Workers run on a process-wide set of parked threads: `start` hands
//! each worker loop to a thread an earlier engine left parked, and spawns
//! a thread only when none is parked. [`ServeEngine::join`] waits for
//! every worker; a worker's panic is caught on its own thread, which then
//! parks for the next engine like any other.
//!
//! [`InvocationModel`]: mithra_sim::system::InvocationModel
//! [`Mixture`]: mithra_core::route::Mixture
//! [`Mixture::calibration`]: mithra_core::route::Mixture::calibration

use crate::endpoint::{EndpointSpec, EndpointState, Lowered, OperatingPoint, SlotTable};
use crate::error::{RejectReason, ServeError};
use crate::metrics::{
    guard_state_name, EndpointCounters, EndpointMetrics, GuardLogEntry, MetricsSnapshot,
};
use crate::parked::{Jobs, ParkedThreads};
use crate::queue::{BoundedQueue, PushError};
use mithra_core::function::InvokeScratch;
use mithra_core::profile::default_threads;
use mithra_core::route::{RouteChoice, RouteClassifier};
use mithra_core::watchdog::{GuardState, QualityWatchdog, WatchdogConfig};
use mithra_npu::fifo::QueueInterface;
use mithra_sim::fault::FifoEvent;
use mithra_sim::system::{RunResult, SimOptions};
use mithra_stats::clopper_pearson::Confidence;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Worker-pool and batching configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads (0 = available parallelism, the shared `--threads`
    /// default).
    pub workers: usize,
    /// Requests a worker drains per queue visit (clamped to ≥ 1). Batch 1
    /// degenerates to per-request queue visits and per-request config
    /// streaming — the unamortized baseline.
    pub batch: usize,
    /// Request-queue capacity; a full queue rejects with
    /// [`RejectReason::QueueFull`].
    pub queue_depth: usize,
    /// Shadow-sampling period of the per-worker quality watchdogs
    /// (0 disables the watchdog entirely — the canonical off spelling).
    pub watchdog_period: usize,
    /// Cost-model options shared with the sequential simulator.
    pub options: SimOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            batch: 8,
            queue_depth: 1024,
            watchdog_period: 0,
            options: SimOptions::default(),
        }
    }
}

/// One invocation request: which endpoint, which invocation of its
/// dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index of the endpoint (registration order).
    pub endpoint: usize,
    /// Invocation index within the endpoint's dataset.
    pub invocation: usize,
}

struct Shared {
    endpoints: Vec<EndpointState>,
    queue: BoundedQueue<Request>,
    batch: usize,
    watchdog_period: usize,
}

/// A worker's private NPU context for one endpoint: its own FIFOs,
/// router clone, and forked watchdog — all derived from (and pinned to)
/// one epoch's [`OperatingPoint`] — plus the sub-batch scratch.
struct WorkerCtx {
    /// The operating point this shard currently serves under. Refreshed
    /// at sub-batch boundaries only, so a hot swap never tears a batch.
    op: Arc<OperatingPoint>,
    router: RouteClassifier,
    queues: QueueInterface,
    watchdog: Option<QualityWatchdog>,
    /// Scratch for [`EndpointState::fill_slots`] freshness flags.
    fresh: Vec<bool>,
    /// Persistent accelerator scratch: one set of buffers per worker per
    /// endpoint, so the serve hot loop allocates nothing per invocation.
    scratch: InvokeScratch,
    /// Route per request of the current sub-batch, aligned with the
    /// request slice: `(route, shadow_sampled)`.
    routes: Vec<(RouteChoice, bool)>,
    /// Flat input staging for one member's share of a sub-batch.
    batch_in: Vec<f32>,
    /// Flat accelerator outputs for that share.
    batch_out: Vec<f32>,
    /// The sub-batch's slot codes, keyed by invocation index.
    pending: Vec<(usize, u8)>,
    /// The sub-batch's counter delta, reset and refilled per sub-batch.
    delta: EndpointCounters,
}

impl WorkerCtx {
    fn new(state: &EndpointState) -> Self {
        let op = state.operating_point();
        Self {
            router: state.router(&op),
            queues: QueueInterface::new(),
            watchdog: op.watchdog_proto.as_ref().map(QualityWatchdog::fork),
            fresh: Vec::new(),
            scratch: InvokeScratch::new(),
            routes: Vec::new(),
            batch_in: Vec::new(),
            batch_out: Vec::new(),
            pending: Vec::new(),
            delta: EndpointCounters::default(),
            op,
        }
    }

    /// Picks up a hot swap at a sub-batch boundary: when the endpoint's
    /// epoch moved past this shard's, the old shard watchdog's lifetime
    /// stats are folded (its epoch is over) and the router, watchdog,
    /// and threshold are rebuilt from the new operating point. In-flight
    /// work is unaffected — this runs only between sub-batches.
    fn refresh(&mut self, state: &EndpointState) {
        let current = state.operating_point();
        if current.epoch == self.op.epoch {
            return;
        }
        if let Some(dog) = self.watchdog.take() {
            fold_watchdog(&dog, &state.counters);
        }
        self.router = state.router(&current);
        self.watchdog = current.watchdog_proto.as_ref().map(QualityWatchdog::fork);
        self.op = current;
    }
}

/// Folds one shard watchdog's lifetime report — counts, time-in-state,
/// and the transition log — into the endpoint's registry entry. Called
/// when a shard retires a watchdog: at worker exit, or when an epoch swap
/// replaces it.
fn fold_watchdog(dog: &QualityWatchdog, counters: &Mutex<EndpointCounters>) {
    let report = dog.report();
    let mut c = counters.lock().expect("metrics lock poisoned");
    c.watchdog.samples += report.samples;
    c.watchdog.violations += report.violations;
    c.watchdog.breaches += report.breaches;
    c.watchdog.recoveries += report.recoveries;
    c.watchdog.time_in_monitoring += report.time_in.monitoring;
    c.watchdog.time_in_throttled += report.time_in.throttled;
    c.watchdog.time_in_fallback += report.time_in.fallback;
    c.watchdog.time_in_probing += report.time_in.probing;
    c.record_guard_transitions(
        report.transitions.iter().map(|t| GuardLogEntry {
            at_sample: t.at_sample,
            from: guard_state_name(t.from).to_string(),
            to: guard_state_name(t.to).to_string(),
        }),
        report.transitions_dropped,
    );
}

/// Confidence of the guarded endpoints' sequential watchdog tests.
const WATCHDOG_CONFIDENCE: f64 = 0.95;

/// The batched, sharded serving engine over a set of endpoints.
///
/// Dropping an engine without [`join`](Self::join) closes its queue, so
/// its workers drain the backlog and free their threads.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Jobs,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("endpoints", &self.shared.endpoints.len())
            .field("workers", &self.workers.len())
            .field("batch", &self.shared.batch)
            .field("queue_depth", &self.shared.queue.capacity())
            .finish()
    }
}

impl ServeEngine {
    /// Builds the endpoints and starts the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoEndpoints`] for an empty spec list;
    /// [`ServeError::UnsupportedOptions`] when
    /// `options.online_update_period != 0` (online table updates mutate
    /// classifier state, which would make decisions depend on request
    /// interleaving); [`ServeError::PoolTooWide`] when an endpoint's pool
    /// has more members than a one-byte slot code names;
    /// [`ServeError::Core`] when a routed attachment's member profiles
    /// mismatch the served dataset.
    pub fn start(specs: Vec<EndpointSpec>, config: &ServeConfig) -> Result<Self, ServeError> {
        Self::start_on(specs, config, ParkedThreads::global())
    }

    /// [`start`](Self::start) with the workers run on `threads`.
    pub(crate) fn start_on(
        specs: Vec<EndpointSpec>,
        config: &ServeConfig,
        threads: &'static ParkedThreads,
    ) -> Result<Self, ServeError> {
        if config.options.online_update_period != 0 {
            return Err(ServeError::UnsupportedOptions(
                "online_update_period must be 0: online table updates make \
                 decisions depend on request interleaving",
            ));
        }
        if specs.is_empty() {
            return Err(ServeError::NoEndpoints);
        }
        let worker_count = if config.workers == 0 {
            default_threads()
        } else {
            config.workers
        };
        let guard = (config.watchdog_period > 0)
            .then(|| Confidence::new(WATCHDOG_CONFIDENCE).expect("0.95 is a valid confidence"));
        // Endpoints of one artifact share its lowering.
        let mut lowered: HashMap<*const (), Arc<Lowered>> = HashMap::new();
        let mut endpoints = Vec::with_capacity(specs.len());
        for spec in specs {
            let shared = match lowered.get(&spec.artifact()) {
                Some(shared) => Arc::clone(shared),
                None => {
                    let built = Arc::new(Lowered::new(spec.mixture(), &config.options, guard)?);
                    lowered.insert(spec.artifact(), Arc::clone(&built));
                    built
                }
            };
            endpoints.push(EndpointState::build(spec, shared)?);
        }
        let shared = Arc::new(Shared {
            endpoints,
            queue: BoundedQueue::new(config.queue_depth),
            batch: config.batch.max(1),
            watchdog_period: config.watchdog_period,
        });
        let jobs = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                Box::new(move || worker_loop(&shared)) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let workers = threads.run(jobs);
        Ok(Self { shared, workers })
    }

    /// A live metrics snapshot — the scrape payload while the engine is
    /// still serving. Shard-local watchdog statistics (samples,
    /// time-in-state, the transition log) fold in only when a shard
    /// retires its watchdog (worker exit or epoch swap), so a mid-flight
    /// scrape reads them lagging the request counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            endpoints: self
                .shared
                .endpoints
                .iter()
                .map(|state| {
                    let counters = state
                        .counters
                        .lock()
                        .expect("metrics lock poisoned")
                        .clone();
                    EndpointMetrics::freeze(
                        state.name.clone(),
                        state.profile().invocation_count() as u64,
                        counters,
                    )
                })
                .collect(),
        }
    }

    /// The epoch whose watchdog shards raised the endpoint's shared
    /// re-certification trigger, or `None` when the trigger is clear.
    /// The trigger latches until
    /// [`swap_operating_point`](Self::swap_operating_point) clears it —
    /// polling is race-free.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEndpoint`] for an unregistered endpoint id.
    pub fn recert_requested(&self, endpoint: usize) -> Result<Option<u64>, ServeError> {
        let state = self
            .shared
            .endpoints
            .get(endpoint)
            .ok_or(ServeError::UnknownEndpoint(endpoint))?;
        Ok(state.recert_requested())
    }

    /// Atomically installs a re-certified operating point — the hot-swap
    /// path of the closed re-certification loop. Bumps the endpoint's
    /// epoch and returns it; workers finish their in-flight sub-batches
    /// on the old epoch and route every subsequent sub-batch through the
    /// new router, threshold, and a fresh `Monitoring` watchdog
    /// (configured by `watchdog`, or inheriting the previous epoch's
    /// configuration when `None`). A binary endpoint takes a one-stage
    /// router, such as a re-certified `RecertOutcome::router`, as it is.
    /// The shared re-certification trigger is cleared, so a breach of the
    /// *new* pair can raise it again.
    ///
    /// Serving never pauses: this is one pointer swap under the
    /// endpoint's operating-point lock, which workers touch only between
    /// sub-batches.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEndpoint`] for an unregistered endpoint id;
    /// [`ServeError::RouterMismatch`] when the router does not route
    /// over exactly the endpoint's pool members.
    pub fn swap_operating_point(
        &self,
        endpoint: usize,
        threshold: f32,
        router: RouteClassifier,
        watchdog: Option<WatchdogConfig>,
    ) -> Result<u64, ServeError> {
        let state = self
            .shared
            .endpoints
            .get(endpoint)
            .ok_or(ServeError::UnknownEndpoint(endpoint))?;
        let pool = state.members().len();
        if router.len() != pool {
            return Err(ServeError::RouterMismatch {
                routes: router.len(),
                pool,
            });
        }
        let epoch = state.install(threshold, router, watchdog);
        state.counters.lock().expect("metrics lock poisoned").swaps += 1;
        Ok(epoch)
    }

    /// Submits one invocation request without blocking.
    ///
    /// # Errors
    ///
    /// Rejects with a [`RejectReason`] instead of queueing unboundedly:
    /// unknown endpoint, out-of-range invocation, full queue
    /// (backpressure), or a closed engine. Queue-full and invalid
    /// rejections are counted in the endpoint's metrics.
    pub fn submit(&self, endpoint: usize, invocation: usize) -> Result<(), RejectReason> {
        let state = self
            .shared
            .endpoints
            .get(endpoint)
            .ok_or(RejectReason::UnknownEndpoint)?;
        if invocation >= state.profile().invocation_count() {
            state
                .counters
                .lock()
                .expect("metrics lock poisoned")
                .rejected_invalid += 1;
            return Err(RejectReason::InvalidInvocation);
        }
        match self.shared.queue.try_push(Request {
            endpoint,
            invocation,
        }) {
            Ok(()) => Ok(()),
            Err(PushError::Full) => {
                state
                    .counters
                    .lock()
                    .expect("metrics lock poisoned")
                    .rejected_queue_full += 1;
                Err(RejectReason::QueueFull)
            }
            Err(PushError::Closed) => Err(RejectReason::ShuttingDown),
        }
    }

    /// Validates a slice of requests and enqueues as many as capacity
    /// allows in one queue operation, returning the accepted count (from
    /// the front of the slice — re-offer the rest). Unaccepted requests
    /// are counted as queue-full rejections against their endpoints, the
    /// same backpressure accounting as per-request [`submit`](Self::submit).
    ///
    /// # Errors
    ///
    /// The first invalid request (unknown endpoint or out-of-range
    /// invocation) rejects the whole slice before anything is enqueued; a
    /// closed engine rejects with [`RejectReason::ShuttingDown`].
    pub fn submit_batch(&self, requests: &[Request]) -> Result<usize, RejectReason> {
        for request in requests {
            let state = self
                .shared
                .endpoints
                .get(request.endpoint)
                .ok_or(RejectReason::UnknownEndpoint)?;
            if request.invocation >= state.profile().invocation_count() {
                state
                    .counters
                    .lock()
                    .expect("metrics lock poisoned")
                    .rejected_invalid += 1;
                return Err(RejectReason::InvalidInvocation);
            }
        }
        match self.shared.queue.try_push_batch(requests) {
            Ok(accepted) => {
                for request in &requests[accepted..] {
                    self.shared.endpoints[request.endpoint]
                        .counters
                        .lock()
                        .expect("metrics lock poisoned")
                        .rejected_queue_full += 1;
                }
                Ok(accepted)
            }
            Err(PushError::Closed) => Err(RejectReason::ShuttingDown),
            Err(PushError::Full) => unreachable!("batch push reports full as Ok(0)"),
        }
    }

    /// [`submit`](Self::submit), retrying with bounded exponential
    /// backoff while the queue is full — the closed-loop submission tests
    /// and the throughput benchmark's drain phase use.
    ///
    /// A bare yield loop would burn a core competing with the workers
    /// that must drain the queue; [`crate::backoff::Backoff`] escalates
    /// spin → yield → short bounded parks instead.
    ///
    /// # Errors
    ///
    /// Terminal rejections (unknown endpoint, invalid invocation, closed
    /// engine) propagate; only [`RejectReason::QueueFull`] is retried.
    pub fn submit_or_wait(&self, endpoint: usize, invocation: usize) -> Result<(), RejectReason> {
        let mut backoff = crate::backoff::Backoff::new();
        loop {
            match self.submit(endpoint, invocation) {
                Err(RejectReason::QueueFull) => backoff.wait(),
                other => return other,
            }
        }
    }

    /// Initiates shutdown without consuming the engine: the queue stops
    /// admitting (subsequent submissions reject with
    /// [`RejectReason::ShuttingDown`]) while already-accepted requests
    /// still drain. Idempotent, and implied by [`join`](Self::join) —
    /// this entry point exists so producers that only hold `&self` (e.g.
    /// scoped submitter threads) can race shutdown against in-flight
    /// [`submit_batch`](Self::submit_batch) calls.
    pub fn shutdown(&self) {
        self.shared.queue.close();
    }

    /// Closes the queue, drains the backlog, and waits for every worker
    /// to finish — the end of the serving phase. Slot folding and quality
    /// scoring happen later, in [`DrainedEngine::report`], so throughput
    /// measurements can stop the clock here.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanicked`] when a worker panicked, returned
    /// only once every other worker has finished too.
    pub fn join(self) -> Result<DrainedEngine, ServeError> {
        self.shared.queue.close();
        if self.workers.wait() > 0 {
            return Err(ServeError::WorkerPanicked);
        }
        Ok(DrainedEngine {
            shared: Arc::clone(&self.shared),
        })
    }

    /// [`join`](Self::join) followed by [`DrainedEngine::report`].
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanicked`] when a worker died;
    /// [`ServeError::Core`] when quality scoring fails.
    pub fn finish(self) -> Result<ServeReport, ServeError> {
        self.join()?.report()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shared.queue.close();
    }
}

/// An engine whose workers have drained and exited; all that remains is
/// folding slots into per-endpoint reports.
pub struct DrainedEngine {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for DrainedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrainedEngine")
            .field("endpoints", &self.shared.endpoints.len())
            .finish()
    }
}

impl DrainedEngine {
    /// Folds each endpoint's slots and frozen counters into the final
    /// report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] when quality scoring fails.
    pub fn report(&self) -> Result<ServeReport, ServeError> {
        let mut endpoints = Vec::with_capacity(self.shared.endpoints.len());
        for state in &self.shared.endpoints {
            let result = state.finish()?;
            let counters = state
                .counters
                .lock()
                .expect("metrics lock poisoned")
                .clone();
            endpoints.push(EndpointReport {
                name: state.name.clone(),
                invocations: state.profile().invocation_count(),
                result,
                counters,
            });
        }
        Ok(ServeReport { endpoints })
    }
}

/// One endpoint's outcome after the engine finished.
#[derive(Debug, Clone)]
pub struct EndpointReport {
    /// The endpoint name.
    pub name: String,
    /// Invocations in the endpoint's dataset.
    pub invocations: usize,
    /// The aggregate simulation result — `Some` only when every
    /// invocation was served (full coverage), in which case it is
    /// bit-identical to sequential `simulate` for a binary endpoint and
    /// to `run_routed` for a routed one (watchdog off).
    pub result: Option<RunResult>,
    /// The endpoint's frozen metrics.
    pub counters: EndpointCounters,
}

/// The engine's final report across all endpoints.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-endpoint reports, in registration order.
    pub endpoints: Vec<EndpointReport>,
}

impl ServeReport {
    /// The serializable metrics snapshot (the scrape/export payload).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            endpoints: self
                .endpoints
                .iter()
                .map(|e| {
                    EndpointMetrics::freeze(
                        e.name.clone(),
                        e.invocations as u64,
                        e.counters.clone(),
                    )
                })
                .collect(),
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut ctxs: Vec<Option<WorkerCtx>> = (0..shared.endpoints.len()).map(|_| None).collect();
    let mut batch: Vec<Request> = Vec::with_capacity(shared.batch);
    loop {
        batch.clear();
        if shared.queue.pop_batch(shared.batch, &mut batch) == 0 {
            break;
        }
        // Consecutive same-endpoint requests form a sub-batch sharing one
        // config-FIFO refill.
        let mut i = 0;
        while i < batch.len() {
            let ep = batch[i].endpoint;
            let mut j = i + 1;
            while j < batch.len() && batch[j].endpoint == ep {
                j += 1;
            }
            let state = &shared.endpoints[ep];
            let ctx = ctxs[ep].get_or_insert_with(|| WorkerCtx::new(state));
            ctx.refresh(state);
            serve_sub_batch(state, ctx, &batch[i..j], shared.watchdog_period);
            i = j;
        }
    }
    // Fold each shard watchdog's lifetime report into its endpoint.
    for (ep, ctx) in ctxs.into_iter().enumerate() {
        let Some(dog) = ctx.and_then(|c| c.watchdog) else {
            continue;
        };
        fold_watchdog(&dog, &shared.endpoints[ep].counters);
    }
}

/// The one sub-batch path, binary and routed alike (a binary endpoint is
/// the pool of one):
///
/// 1. **decide** — the shard's router picks each request's route, the
///    watchdog gates admission and takes its shadow samples (sequential:
///    the watchdog is stateful);
/// 2. **accelerate** — one batched accelerator run per served member over
///    that member's requests, with the modeled FIFO traffic and the
///    config bursts of [`config_bursts`];
/// 3. **charge** — each route and its shadow bit are parked in the slot
///    table as one byte, and each fresh one is charged through the
///    endpoint's per-route models, in request (FIFO) order, for the
///    latency histogram.
fn serve_sub_batch(
    state: &EndpointState,
    ctx: &mut WorkerCtx,
    requests: &[Request],
    watchdog_period: usize,
) {
    let members = state.members();
    let delta = &mut ctx.delta;
    delta.reset();
    delta.route_served.resize(members.len(), 0);
    let dataset = state.profile().dataset();

    // Pass 1 — decide.
    ctx.routes.clear();
    for request in requests {
        let inv = request.invocation;
        let raw = ctx.router.classify_route(inv, dataset.input(inv));
        let route = match ctx.watchdog.as_mut() {
            Some(w) => w.admit_route(raw),
            None => raw,
        };
        let mut shadow = false;
        if let (Some(w), RouteChoice::Member(m)) = (ctx.watchdog.as_mut(), raw) {
            if watchdog_period > 0 && inv % watchdog_period == 0 {
                shadow = true;
                // Judged against the *live* epoch's threshold — a hot swap
                // re-certifies a new threshold, and the guard must watch
                // that one, not the compile-time certificate it replaced.
                let violation = state.member_profiles[m].max_error(inv) > ctx.op.threshold;
                // Count invariants hold, so the statistics cannot fail;
                // transition totals are folded from the report at
                // shutdown.
                let _ = w.record(violation);
                // Entering Fallback raises the endpoint's *shared*
                // re-certification trigger: exactly one shard wins the
                // compare-exchange per epoch, however many forked
                // watchdogs reach Fallback concurrently.
                if w.state() == GuardState::Fallback && state.request_recert(ctx.op.epoch) {
                    delta.watchdog.recert_triggers += 1;
                }
            }
        }
        ctx.routes.push((route, shadow));
    }

    // Pass 2 — one batched accelerator run per served member, through
    // lane-parallel tiles. Per-sample results are bit-identical to the
    // per-invocation path.
    let lowered = &*state.lowered;
    delta.config_bursts += config_bursts(
        &mut ctx.queues,
        &lowered.member_config_words,
        ctx.routes.iter().map(|&(route, _)| route),
    );
    let in_dim = dataset.input_dim();
    for (m, member) in members.iter().enumerate() {
        ctx.batch_in.clear();
        for (request, &(route, _)) in requests.iter().zip(&ctx.routes) {
            if route == RouteChoice::Member(m) {
                ctx.batch_in
                    .extend_from_slice(dataset.input(request.invocation));
            }
        }
        let count = ctx.batch_in.len() / in_dim;
        if count == 0 {
            continue;
        }
        let t0 = std::time::Instant::now();
        member.approx_batch_with(&ctx.batch_in, count, &mut ctx.batch_out, &mut ctx.scratch);
        delta.approx_wall_nanos += t0.elapsed().as_nanos() as u64;
        // The modeled accelerator traffic: operands stream through the
        // input FIFO, results drain from the output FIFO.
        let out_dim = member.benchmark().output_dim();
        for (input, out) in ctx
            .batch_in
            .chunks_exact(in_dim)
            .zip(ctx.batch_out.chunks_exact(out_dim))
        {
            ctx.queues.input.enqueue_slice(input);
            ctx.queues.input.clear();
            ctx.queues.output.enqueue_slice(out);
            ctx.queues.output.clear();
        }
    }

    // Pass 3 — slot fill and charge, in request (FIFO) order.
    ctx.pending.clear();
    ctx.pending.extend(
        requests
            .iter()
            .zip(&ctx.routes)
            .map(|(request, &(route, shadow))| {
                (request.invocation, SlotTable::encode(route, shadow))
            }),
    );
    // One slot-table lock for the whole sub-batch; duplicates surface as
    // `false` entries and are counted, never double-charged.
    state.fill_slots(&ctx.pending, &mut ctx.fresh);
    for (&(route, shadow), &fresh) in ctx.routes.iter().zip(ctx.fresh.iter()) {
        if !fresh {
            delta.duplicates += 1;
            continue;
        }
        delta.served += 1;
        match route {
            RouteChoice::Member(m) => {
                delta.approx += 1;
                delta.route_served[m] += 1;
            }
            RouteChoice::Precise => delta.fallback += 1,
        }
        let charge = lowered.model.charge_route(route, FifoEvent::None, shadow);
        delta.latency.record(charge.cycles);
    }
    // The whole sub-batch ran under one operating point, so its served
    // count is attributed to that epoch wholesale.
    let epoch = ctx.op.epoch as usize;
    delta.epoch_served.resize(epoch + 1, 0);
    delta.epoch_served[epoch] = delta.served;
    state
        .counters
        .lock()
        .expect("metrics lock poisoned")
        .absorb(delta);
}

/// The config-burst rule, one for every endpoint: walking a sub-batch's
/// routes in request order, a member's image streams through the config
/// FIFO whenever the served member differs from the one configured, and
/// nothing is configured when the sub-batch starts. Precise fallbacks
/// touch no FIFO and leave the configured member in place, so an
/// all-precise sub-batch streams nothing. Returns the bursts streamed.
fn config_bursts(
    queues: &mut QueueInterface,
    images: &[Vec<u32>],
    routes: impl Iterator<Item = RouteChoice>,
) -> u64 {
    let mut configured = None;
    let mut bursts = 0;
    for m in routes.filter_map(|route| route.member()) {
        if configured != Some(m) {
            bursts += queues.stream_config(&images[m]) as u64;
            configured = Some(m);
        }
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithra_axbench::dataset::DatasetScale;
    use mithra_core::pipeline::Compiled;
    use mithra_core::profile::DatasetProfile;
    use mithra_core::route::{ApproximatorPool, PoolSpec, RoutedCompiled};
    use mithra_core::watchdog;

    #[test]
    fn empty_endpoint_list_is_rejected() {
        let err = ServeEngine::start(vec![], &ServeConfig::default()).unwrap_err();
        assert!(matches!(err, ServeError::NoEndpoints));
    }

    #[test]
    fn online_updates_are_unsupported() {
        let config = ServeConfig {
            options: SimOptions {
                online_update_period: 8,
                ..SimOptions::default()
            },
            ..ServeConfig::default()
        };
        // Option validation fires before endpoint construction, so no
        // compiled artifact is needed to observe it.
        let err = ServeEngine::start(vec![], &config).unwrap_err();
        assert!(matches!(err, ServeError::UnsupportedOptions(_)));
    }

    #[test]
    fn config_burst_rule_streams_on_member_switches_only() {
        use RouteChoice::{Member, Precise};
        // Images no longer than the 32-deep config FIFO stream in one
        // burst each.
        let images = vec![vec![1u32; 8], vec![2u32; 32]];
        let mut queues = QueueInterface::new();
        let mixed = [Member(0), Precise, Member(0), Member(1), Member(1)];
        assert_eq!(config_bursts(&mut queues, &images, mixed.into_iter()), 2);
        assert_eq!(
            config_bursts(&mut queues, &images, [Precise; 4].into_iter()),
            0
        );
        // A switch back re-streams; longer images take several bursts.
        let back = [Member(1), Member(0), Precise, Member(1)];
        assert_eq!(config_bursts(&mut queues, &images, back.into_iter()), 3);
        let long = vec![vec![0u32; 33], vec![0u32; 70]];
        assert_eq!(config_bursts(&mut queues, &long, mixed.into_iter()), 2 + 3);
    }

    #[test]
    fn an_engine_can_be_shared_by_submitting_threads() {
        fn shared_across_threads<T: Send + Sync>() {}
        shared_across_threads::<ServeEngine>();
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.workers, 0, "0 = available parallelism");
        assert!(cfg.batch >= 1);
        assert_eq!(cfg.watchdog_period, 0, "watchdog off by default");
    }

    fn smoke_compiled(name: &str) -> Arc<Compiled> {
        let bench = mithra_axbench::suite::by_name(name).unwrap().into();
        Arc::new(
            mithra_core::pipeline::compile(bench, &mithra_core::pipeline::CompileConfig::smoke())
                .unwrap(),
        )
    }

    /// `compiled` in an allocation of its own, without its compile
    /// profiles and training data, so it counts no calibration.
    fn profile_less_copy(compiled: &Compiled) -> Compiled {
        Compiled {
            function: compiled.function.clone(),
            threshold: compiled.threshold.clone(),
            table: compiled.table.clone(),
            neural: compiled.neural.clone(),
            profiles: Vec::new(),
            training_data: Vec::new(),
            calibration: watchdog::Calibration::default(),
        }
    }

    fn sequential_calibration(compiled: &Compiled, profiles: &[DatasetProfile]) -> WatchdogConfig {
        let confidence = Confidence::new(WATCHDOG_CONFIDENCE).unwrap();
        watchdog::calibrate(
            &mut compiled.table.clone(),
            profiles,
            compiled.threshold.threshold,
            confidence,
        )
        .unwrap()
    }

    #[test]
    fn guarded_bring_up_matches_sequential_calibration() {
        let shared = smoke_compiled("inversek2j");
        let distinct = smoke_compiled("blackscholes");
        // Same accelerator and table, but no compile profiles: nothing is
        // admitted during calibration.
        let empty = Arc::new(profile_less_copy(&shared));
        assert!(empty.profiles.is_empty());
        let artifacts = [&shared, &distinct, &shared, &empty];

        // The pin below must notice counts that are dropped or counted
        // twice: with one profile skipped or repeated, sequential
        // calibration itself lands elsewhere.
        let expected: Vec<WatchdogConfig> = artifacts
            .iter()
            .map(|c| sequential_calibration(c, &c.profiles))
            .collect();
        for (compiled, want) in [(&shared, &expected[0]), (&distinct, &expected[1])] {
            let profiles = &compiled.profiles;
            assert_ne!(&sequential_calibration(compiled, &profiles[1..]), want);
            let mut doubled = profiles.clone();
            doubled.push(profiles[0].clone());
            assert_ne!(&sequential_calibration(compiled, &doubled), want);
        }

        for workers in [1, 2, 4] {
            let specs = artifacts
                .iter()
                .enumerate()
                .map(|(i, compiled)| EndpointSpec {
                    name: format!("endpoint-{i}"),
                    compiled: Arc::clone(compiled),
                    profile: shared.profiles[0].clone(),
                    routed: None,
                })
                .collect();
            let config = ServeConfig {
                workers,
                watchdog_period: 16,
                ..ServeConfig::default()
            };
            let engine = ServeEngine::start(specs, &config).unwrap();
            for (i, want) in expected.iter().enumerate() {
                let op = engine.shared.endpoints[i].operating_point();
                let got = op
                    .watchdog_proto
                    .as_ref()
                    .expect("guarded endpoint")
                    .config();
                assert_eq!(got, want, "endpoint {i} at {workers} workers");
            }
            engine.join().unwrap();
        }
    }

    #[test]
    fn pools_too_wide_for_a_slot_code_are_refused_at_start() {
        let compiled = smoke_compiled("inversek2j");
        // A pool of `members` copies of one accelerator, with no member
        // profiles: the width check comes before the profile checks.
        let start = |members: usize| {
            let function = compiled.function.clone();
            let topology = function.npu().topology().clone();
            let routed = RoutedCompiled {
                pool: ApproximatorPool::from_members(
                    vec![function; members],
                    vec![topology; members],
                ),
                member_profiles: Vec::new(),
                threshold: compiled.threshold.clone(),
                router: RouteClassifier::from_stages(vec![compiled.table.clone(); members]),
                calibration: compiled.calibration,
            };
            let spec = EndpointSpec {
                name: format!("pool-of-{members}"),
                compiled: Arc::clone(&compiled),
                profile: compiled.profiles[0].clone(),
                routed: Some(crate::endpoint::RoutedServeSpec {
                    routed: Arc::new(routed),
                    member_profiles: Vec::new(),
                }),
            };
            ServeEngine::start(vec![spec], &ServeConfig::default()).map(ServeEngine::join)
        };
        let max = SlotTable::MAX_POOL;
        for members in [max + 1, 255, 300] {
            let err = start(members).unwrap_err();
            assert!(
                matches!(err, ServeError::PoolTooWide { pool, max: m } if pool == members && m == max),
                "{members} members: {err}"
            );
        }
        // The widest servable pool passes the width check and fails only
        // on its missing member profiles.
        let err = start(max).unwrap_err();
        assert!(matches!(err, ServeError::Core(_)), "{max} members: {err}");
    }

    /// A parked-thread set of the test's own, so its spawn count is not
    /// moved by tests starting engines in parallel.
    fn private_threads() -> &'static ParkedThreads {
        Box::leak(Box::new(ParkedThreads::new()))
    }

    fn binary_spec(compiled: &Arc<Compiled>, profile: &DatasetProfile) -> EndpointSpec {
        EndpointSpec {
            name: "endpoint".into(),
            compiled: Arc::clone(compiled),
            profile: profile.clone(),
            routed: None,
        }
    }

    /// Starts an engine on `threads`, serves every invocation once and
    /// checks each was served exactly once.
    fn serve_all(spec: EndpointSpec, config: &ServeConfig, threads: &'static ParkedThreads) {
        let n = spec.profile.invocation_count();
        let engine = ServeEngine::start_on(vec![spec], config, threads).unwrap();
        for invocation in 0..n {
            engine.submit_or_wait(0, invocation).unwrap();
        }
        let report = engine.finish().unwrap();
        let endpoint = &report.endpoints[0];
        assert_eq!(endpoint.counters.served, n as u64);
        assert_eq!(endpoint.counters.duplicates, 0);
        assert!(endpoint.result.is_some());
    }

    #[test]
    fn a_second_start_on_warmed_threads_spawns_no_thread() {
        let compiled = smoke_compiled("inversek2j");
        let profile = &compiled.profiles[0];
        let threads = private_threads();
        let config = |workers| ServeConfig {
            workers,
            watchdog_period: 16,
            ..ServeConfig::default()
        };
        serve_all(binary_spec(&compiled, profile), &config(2), threads);
        assert_eq!(threads.spawned(), 2);
        for workers in [2, 1, 2] {
            serve_all(binary_spec(&compiled, profile), &config(workers), threads);
            assert_eq!(threads.spawned(), 2, "{workers} workers");
        }
        serve_all(binary_spec(&compiled, profile), &config(3), threads);
        assert_eq!(threads.spawned(), 3, "a third worker needs a third thread");
    }

    #[test]
    fn a_worker_panic_surfaces_after_every_worker_finished_and_its_thread_serves_on() {
        let compiled = smoke_compiled("inversek2j");
        let profile = &compiled.profiles[0];
        let threads = private_threads();
        let config = ServeConfig {
            workers: 2,
            batch: 4,
            ..ServeConfig::default()
        };
        let engine =
            ServeEngine::start_on(vec![binary_spec(&compiled, profile)], &config, threads).unwrap();
        // Poison the endpoint's metrics lock: the worker that folds the
        // next sub-batch into it panics.
        let counters = &engine.shared.endpoints[0].counters;
        let poisoning = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = counters.lock().unwrap();
            panic!("poisoning the metrics lock");
        }));
        assert!(poisoning.is_err() && counters.is_poisoned());
        engine.submit_or_wait(0, 0).unwrap();
        let shared = Arc::clone(&engine.shared);
        let err = engine.join().unwrap_err();
        assert!(matches!(err, ServeError::WorkerPanicked), "{err}");
        // Each worker's job holds the engine until it finishes.
        assert_eq!(Arc::strong_count(&shared), 1, "a worker was still running");
        drop(shared);
        assert_eq!(threads.spawned(), 2);
        // The panicked worker's thread parked again and serves the next
        // engine, which serves every request exactly once.
        for _ in 0..2 {
            serve_all(binary_spec(&compiled, profile), &config, threads);
        }
        assert_eq!(threads.spawned(), 2);
    }

    #[test]
    fn an_engine_dropped_without_join_drains_and_frees_its_workers() {
        let compiled = smoke_compiled("inversek2j");
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let spec = binary_spec(&compiled, &compiled.profiles[0]);
        let engine = ServeEngine::start_on(vec![spec], &config, private_threads()).unwrap();
        engine.submit_or_wait(0, 0).unwrap();
        let shared = Arc::clone(&engine.shared);
        drop(engine);
        // Each worker's job holds the engine until it finishes.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while Arc::strong_count(&shared) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "a worker still waits on the dropped engine's queue"
            );
            std::thread::yield_now();
        }
        let counters = shared.endpoints[0].counters.lock().unwrap();
        assert_eq!(counters.served, 1, "the backlog is drained, not dropped");
    }

    #[test]
    fn endpoints_of_one_artifact_share_one_lowering() {
        let compiled = smoke_compiled("inversek2j");
        // The same artifact in an allocation of its own is another one.
        let copy = Arc::new(profile_less_copy(&compiled));
        let profile = &compiled.profiles[0];
        let pool_of_two = Arc::new(RoutedCompiled {
            pool: ApproximatorPool::from_members(
                vec![compiled.function.clone(); 2],
                vec![compiled.function.npu().topology().clone(); 2],
            ),
            member_profiles: Vec::new(),
            threshold: compiled.threshold.clone(),
            router: RouteClassifier::from_stages(vec![compiled.table.clone(); 2]),
            calibration: compiled.calibration,
        });
        let routed = |compiled: &Arc<Compiled>| EndpointSpec {
            routed: Some(crate::endpoint::RoutedServeSpec {
                routed: Arc::clone(&pool_of_two),
                member_profiles: vec![profile.clone(); 2],
            }),
            ..binary_spec(compiled, profile)
        };
        let specs = vec![
            binary_spec(&compiled, profile),
            binary_spec(&copy, profile),
            binary_spec(&compiled, profile),
            routed(&compiled),
            routed(&copy),
            binary_spec(&copy, profile),
        ];
        let config = ServeConfig {
            watchdog_period: 16,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(specs, &config).unwrap();
        let lowered = |i: usize| &engine.shared.endpoints[i].lowered;
        let shared = |a, b| Arc::ptr_eq(lowered(a), lowered(b));
        assert!(shared(0, 2) && shared(1, 5) && shared(3, 4));
        assert!(!shared(0, 1) && !shared(0, 3) && !shared(1, 3));
        assert_eq!(lowered(3).member_config_words.len(), 2);
        engine.join().unwrap();
    }

    /// The routed counting pass run sequentially: one router copy over
    /// compile datasets `datasets`, in order, judged per serving member.
    fn sequential_routed_calibration(
        routed: &RoutedCompiled,
        datasets: &[usize],
        judged_member: Option<usize>,
    ) -> WatchdogConfig {
        let mut router = routed.router.clone();
        let (mut admitted, mut violations) = (0, 0);
        for &d in datasets {
            let members: Vec<&DatasetProfile> =
                routed.member_profiles.iter().map(|m| &m[d]).collect();
            let (a, v) = watchdog::calibration_counts(
                &members,
                routed.threshold.threshold,
                &mut |i, input| match (router.classify_route(i, input), judged_member) {
                    (RouteChoice::Member(_), Some(m)) => RouteChoice::Member(m),
                    (route, _) => route,
                },
            );
            admitted += a;
            violations += v;
        }
        let confidence = Confidence::new(WATCHDOG_CONFIDENCE).unwrap();
        watchdog::limit_config(admitted, violations, confidence)
    }

    #[test]
    fn guarded_routed_bring_up_matches_sequential_routed_calibration() {
        let bench: std::sync::Arc<dyn mithra_axbench::benchmark::Benchmark> =
            mithra_axbench::suite::by_name("inversek2j").unwrap().into();
        let spec = PoolSpec::sized(&bench.npu_topology(), 3);
        let routed = Arc::new(
            mithra_core::pipeline::compile_routed(
                bench,
                &mithra_core::pipeline::CompileConfig::smoke(),
                &spec,
            )
            .unwrap(),
        );
        assert!(routed.pool.len() >= 2, "{:?}", routed.pool.topologies());
        let compiled = smoke_compiled("inversek2j");
        let datasets: Vec<usize> = (0..routed.member_profiles[0].len()).collect();
        let expected = sequential_routed_calibration(&routed, &datasets, None);
        // The pin must notice a dropped or doubled dataset, and admissions
        // judged against one member instead of the one that served.
        assert_ne!(
            sequential_routed_calibration(&routed, &datasets[1..], None),
            expected
        );
        let mut doubled = datasets.clone();
        doubled.push(0);
        assert_ne!(
            sequential_routed_calibration(&routed, &doubled, None),
            expected
        );
        assert_ne!(
            sequential_routed_calibration(&routed, &datasets, Some(0)),
            expected
        );
        let binary = sequential_calibration(&compiled, &compiled.profiles);

        let clean: Vec<DatasetProfile> = routed
            .pool
            .members()
            .iter()
            .map(|m| {
                let ds = m.dataset(mithra_core::seeds::SERVE_SEED_BASE + 7, DatasetScale::Smoke);
                DatasetProfile::collect(m, ds)
            })
            .collect();
        let n = clean[0].invocation_count();
        let routed_spec = |name: &str| EndpointSpec {
            name: name.into(),
            compiled: Arc::clone(&compiled),
            profile: clean[0].clone(),
            routed: Some(crate::endpoint::RoutedServeSpec {
                routed: Arc::clone(&routed),
                member_profiles: clean.clone(),
            }),
        };
        for workers in [1, 2, 4] {
            let specs = vec![
                routed_spec("routed-a"),
                EndpointSpec {
                    name: "binary".into(),
                    compiled: Arc::clone(&compiled),
                    profile: compiled.profiles[0].clone(),
                    routed: None,
                },
                routed_spec("routed-b"),
            ];
            let config = ServeConfig {
                workers,
                watchdog_period: 4,
                ..ServeConfig::default()
            };
            let engine = ServeEngine::start(specs, &config).unwrap();
            for (i, want) in [&expected, &binary, &expected].into_iter().enumerate() {
                let op = engine.shared.endpoints[i].operating_point();
                let got = op
                    .watchdog_proto
                    .as_ref()
                    .expect("guarded endpoint")
                    .config();
                assert_eq!(got, want, "endpoint {i} at {workers} workers");
            }
            for invocation in 0..n {
                engine.submit_or_wait(0, invocation).unwrap();
            }
            let report = engine.finish().unwrap();
            let guard = &report.endpoints[0].counters.watchdog;
            assert!(guard.samples > 0, "{workers} workers: shadow sampling runs");
            assert_eq!(
                guard.breaches, 0,
                "{workers} workers: clean traffic must not trip the guard"
            );
            assert!(report.endpoints[0].result.is_some());
        }
    }
}
