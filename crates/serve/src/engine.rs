//! The sharded serving engine.
//!
//! `N` worker threads, each owning its **own** NPU context per endpoint —
//! FIFOs, the fixed-point accelerator, a classifier clone, and a forked
//! [`QualityWatchdog`] — drain a shared bounded request queue in batches.
//! Within a batch, consecutive requests for the same endpoint form a
//! sub-batch: the worker streams the endpoint's NPU configuration image
//! through the config FIFO **once** for the whole sub-batch (the
//! amortization batching buys), then classifies and executes each
//! invocation individually — the accept/reject decision stays strictly
//! per-invocation, exactly as MITHRA requires.
//!
//! Cost accounting goes through the same [`InvocationModel`] constants the
//! sequential simulator uses, and per-invocation results land in
//! index-keyed slots, so a finished endpoint's [`RunResult`] is
//! **bit-identical** to `sim::system::simulate` regardless of worker
//! count, batch size, or arrival order (watchdog off; with the watchdog
//! on, admission becomes shard-local state and the engine trades that
//! identity for per-shard guarding).
//!
//! [`InvocationModel`]: mithra_sim::system::InvocationModel

use crate::endpoint::{EndpointSpec, EndpointState, OperatingPoint, ServedInvocation, CLEAN_EVENT};
use crate::error::{RejectReason, ServeError};
use crate::metrics::{
    guard_state_name, EndpointCounters, EndpointMetrics, GuardLogEntry, MetricsSnapshot,
};
use crate::queue::{BoundedQueue, PushError};
use mithra_core::classifier::{Classifier, Decision};
use mithra_core::function::InvokeScratch;
use mithra_core::parallel::par_map_indexed;
use mithra_core::pipeline::Compiled;
use mithra_core::profile::{default_threads, DatasetProfile};
use mithra_core::route::{RouteChoice, RouteClassifier};
use mithra_core::table::TableClassifier;
use mithra_core::watchdog::{self, GuardState, QualityWatchdog, WatchdogConfig};
use mithra_npu::fifo::QueueInterface;
use mithra_sim::system::{RunResult, SimOptions};
use mithra_stats::clopper_pearson::Confidence;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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
/// classifier clone, scratch output buffer, and forked watchdog — all
/// derived from (and pinned to) one epoch's [`OperatingPoint`].
struct WorkerCtx {
    /// The operating point this shard currently serves under. Refreshed
    /// at sub-batch boundaries only, so a hot swap never tears a batch.
    op: Arc<OperatingPoint>,
    classifier: TableClassifier,
    /// The router cascade clone for routed endpoints (`None` binary).
    router: Option<RouteClassifier>,
    queues: QueueInterface,
    watchdog: Option<QualityWatchdog>,
    out: Vec<f32>,
    /// Scratch for [`EndpointState::fill_slots`] freshness flags.
    fresh: Vec<bool>,
    /// Persistent accelerator scratch: one set of buffers per worker per
    /// endpoint, so the serve hot loop allocates nothing per invocation.
    scratch: InvokeScratch,
    /// Decision per request of the current sub-batch, aligned with the
    /// request slice: `(decision, shadow_sampled)`.
    decisions: Vec<(Decision, bool)>,
    /// Flat input staging for the approximate subset of a sub-batch.
    batch_in: Vec<f32>,
    /// Flat accelerator outputs for the approximate subset.
    batch_out: Vec<f32>,
}

impl WorkerCtx {
    fn new(state: &EndpointState) -> Self {
        let op = state.operating_point();
        Self {
            classifier: op.table.clone(),
            router: state.routed.as_ref().map(|r| r.routed.router.clone()),
            queues: QueueInterface::new(),
            watchdog: op.watchdog_proto.as_ref().map(QualityWatchdog::fork),
            out: Vec::new(),
            fresh: Vec::new(),
            scratch: InvokeScratch::new(),
            decisions: Vec::new(),
            batch_in: Vec::new(),
            batch_out: Vec::new(),
            op,
        }
    }

    /// Picks up a hot swap at a sub-batch boundary: when the endpoint's
    /// epoch moved past this shard's, the old shard watchdog's lifetime
    /// stats are folded (its epoch is over) and the classifier, watchdog,
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
        self.classifier = current.table.clone();
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

/// Each spec's watchdog tuning, calibrated once per distinct compiled
/// artifact (`Arc` identity) rather than once per endpoint.
///
/// The counting pass fans out over every `(artifact, profile)` pair on
/// `threads` workers, each item on its own clone of the artifact's table,
/// so one expensive artifact no longer runs on a single core. The table
/// classifier's decisions do not depend on call history and the per-item
/// counts are integers, so summing them per artifact gives exactly the
/// counts — and the configuration — of a sequential
/// [`watchdog::calibrate`] over the artifact's profiles.
fn calibrate_watchdogs(specs: &[EndpointSpec], threads: usize) -> Vec<WatchdogConfig> {
    let mut artifacts: Vec<&Arc<Compiled>> = Vec::new();
    let artifact_of: Vec<usize> = specs
        .iter()
        .map(|spec| {
            let known = artifacts
                .iter()
                .position(|a| Arc::ptr_eq(a, &spec.compiled));
            known.unwrap_or_else(|| {
                artifacts.push(&spec.compiled);
                artifacts.len() - 1
            })
        })
        .collect();
    let items: Vec<(usize, &DatasetProfile)> = artifacts
        .iter()
        .enumerate()
        .flat_map(|(a, compiled)| compiled.profiles.iter().map(move |p| (a, p)))
        .collect();
    let counts = par_map_indexed(items.len(), Some(threads), |k| {
        let (a, profile) = items[k];
        let compiled = artifacts[a];
        watchdog::calibration_counts(
            &mut compiled.table.clone(),
            std::slice::from_ref(profile),
            compiled.threshold.threshold,
        )
    });
    let mut totals = vec![(0u64, 0u64); artifacts.len()];
    for (&(a, _), (admitted, violations)) in items.iter().zip(counts) {
        totals[a].0 += admitted;
        totals[a].1 += violations;
    }
    let confidence = Confidence::new(WATCHDOG_CONFIDENCE).expect("0.95 is a valid confidence");
    artifact_of
        .iter()
        .map(|&a| watchdog::limit_config(totals[a].0, totals[a].1, confidence))
        .collect()
}

/// The batched, sharded serving engine over a set of endpoints.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
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
    /// interleaving) or when `watchdog_period > 0` alongside a routed
    /// endpoint (binary admission cannot attribute to routes);
    /// [`ServeError::Core`] when a routed attachment's member profiles
    /// mismatch the served dataset.
    pub fn start(specs: Vec<EndpointSpec>, config: &ServeConfig) -> Result<Self, ServeError> {
        if config.options.online_update_period != 0 {
            return Err(ServeError::UnsupportedOptions(
                "online_update_period must be 0: online table updates make \
                 decisions depend on request interleaving",
            ));
        }
        if specs.is_empty() {
            return Err(ServeError::NoEndpoints);
        }
        if config.watchdog_period > 0 && specs.iter().any(|s| s.routed.is_some()) {
            return Err(ServeError::UnsupportedOptions(
                "watchdog_period must be 0 with routed endpoints: the \
                 watchdog's binary admission ladder has no per-route \
                 attribution, so guarding would silently degrade the \
                 routed mixture's accounting",
            ));
        }
        let worker_count = if config.workers == 0 {
            default_threads()
        } else {
            config.workers
        };
        let watchdogs = if config.watchdog_period > 0 {
            calibrate_watchdogs(&specs, worker_count)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None; specs.len()]
        };
        let endpoints = specs
            .into_iter()
            .zip(watchdogs)
            .map(|(spec, watchdog)| EndpointState::build(spec, &config.options, watchdog))
            .collect::<Result<Vec<_>, _>>()?;
        let shared = Arc::new(Shared {
            endpoints,
            queue: BoundedQueue::new(config.queue_depth),
            batch: config.batch.max(1),
            watchdog_period: config.watchdog_period,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a serving worker cannot fail")
            })
            .collect();
        Ok(Self { shared, workers })
    }

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.shared.endpoints.len()
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
                        state.profile.invocation_count() as u64,
                        counters,
                    )
                })
                .collect(),
        }
    }

    /// The epoch whose watchdog shards raised the endpoint's shared
    /// re-certification trigger, or `None` when the trigger is clear.
    /// The trigger latches until [`swap_operating_point`]
    /// (Self::swap_operating_point) clears it — polling is race-free.
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
    /// new classifier, threshold, and a fresh `Monitoring` watchdog
    /// (configured by `watchdog`, or inheriting the previous epoch's
    /// configuration when `None`). The shared re-certification trigger is
    /// cleared, so a breach of the *new* pair can raise it again.
    ///
    /// Serving never pauses: this is one pointer swap under the
    /// endpoint's operating-point lock, which workers touch only between
    /// sub-batches.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEndpoint`] for an unregistered endpoint id;
    /// [`ServeError::UnsupportedOptions`] for a routed endpoint (the
    /// binary watchdog/recert ladder has no per-route attribution).
    pub fn swap_operating_point(
        &self,
        endpoint: usize,
        threshold: f32,
        table: TableClassifier,
        watchdog: Option<WatchdogConfig>,
    ) -> Result<u64, ServeError> {
        let state = self
            .shared
            .endpoints
            .get(endpoint)
            .ok_or(ServeError::UnknownEndpoint(endpoint))?;
        if state.routed.is_some() {
            return Err(ServeError::UnsupportedOptions(
                "operating-point swaps target binary endpoints: routed \
                 pools re-certify through the routed compile path, not a \
                 single table/threshold pair",
            ));
        }
        let epoch = state.install(threshold, table, watchdog);
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
        if invocation >= state.profile.invocation_count() {
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
            if request.invocation >= state.profile.invocation_count() {
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

    /// Closes the queue, drains the backlog, and joins every worker —
    /// the end of the serving phase. Slot folding and quality scoring
    /// happen later, in [`DrainedEngine::report`], so throughput
    /// measurements can stop the clock here.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanicked`] when a worker died.
    pub fn join(self) -> Result<DrainedEngine, ServeError> {
        self.shared.queue.close();
        for worker in self.workers {
            worker.join().map_err(|_| ServeError::WorkerPanicked)?;
        }
        Ok(DrainedEngine {
            shared: self.shared,
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
                invocations: state.profile.invocation_count(),
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
    /// bit-identical to sequential `simulate` (watchdog off).
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
            if state.routed.is_some() {
                serve_sub_batch_routed(state, ctx, &batch[i..j]);
            } else {
                ctx.refresh(state);
                serve_sub_batch(state, ctx, &batch[i..j], shared.watchdog_period);
            }
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

fn serve_sub_batch(
    state: &EndpointState,
    ctx: &mut WorkerCtx,
    requests: &[Request],
    watchdog_period: usize,
) {
    let mut delta = EndpointCounters::default();
    let mut pending: Vec<(usize, ServedInvocation)> = Vec::with_capacity(requests.len());
    // One configuration stream per sub-batch — the per-invocation setup
    // cost batching amortizes.
    delta.config_bursts += ctx.queues.stream_config(&state.config_words) as u64;

    // Pass 1 — decide. Classification, watchdog admission and shadow
    // sampling are sequential (the watchdog is stateful), and the inputs
    // the accelerator will run are staged flat, in request order.
    ctx.decisions.clear();
    ctx.batch_in.clear();
    let mut approx_count = 0usize;
    for request in requests {
        let inv = request.invocation;
        let input = state.profile.dataset().input(inv);
        let raw = ctx.classifier.classify(inv, input);
        let decision = match ctx.watchdog.as_mut() {
            Some(w) => w.admit(raw),
            None => raw,
        };
        let shadow = ctx.watchdog.is_some()
            && watchdog_period > 0
            && raw == Decision::Approximate
            && inv % watchdog_period == 0;
        if shadow {
            // Judged against the *live* epoch's threshold — a hot swap
            // re-certifies a new threshold, and the guard must watch that
            // one, not the compile-time certificate it replaced.
            let violation = state.profile.max_error(inv) > ctx.op.threshold;
            if let Some(w) = ctx.watchdog.as_mut() {
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
        if decision == Decision::Approximate {
            ctx.batch_in.extend_from_slice(input);
            approx_count += 1;
        }
        ctx.decisions.push((decision, shadow));
    }

    // Pass 2 — one batched accelerator run over the approximate subset.
    // Per-sample results are bit-identical to the per-invocation path on
    // whichever backend the function carries; on the SIMD backend this is
    // where the lane-parallel tiles earn their keep.
    let function = &state.compiled.function;
    if approx_count > 0 {
        let t0 = std::time::Instant::now();
        function.approx_batch_with(
            &ctx.batch_in[..],
            approx_count,
            &mut ctx.batch_out,
            &mut ctx.scratch,
        );
        delta.approx_wall_nanos += t0.elapsed().as_nanos() as u64;
    }

    // Pass 3 — model and charge, in request (FIFO) order.
    let out_dim = function.benchmark().output_dim();
    let in_dim = function.benchmark().input_dim();
    let mut next_approx = 0usize;
    for (request, &(decision, shadow)) in requests.iter().zip(&ctx.decisions) {
        let inv = request.invocation;
        let approx = decision == Decision::Approximate;
        if approx {
            // The modeled accelerator traffic: operands stream through
            // the input FIFO, results drain from the output FIFO.
            let input = &ctx.batch_in[next_approx * in_dim..(next_approx + 1) * in_dim];
            let out = &ctx.batch_out[next_approx * out_dim..(next_approx + 1) * out_dim];
            ctx.queues.input.enqueue_slice(input);
            ctx.queues.input.clear();
            ctx.queues.output.enqueue_slice(out);
            ctx.queues.output.clear();
            next_approx += 1;
        }
        let charge = state.model.charge(decision, CLEAN_EVENT, shadow);
        pending.push((
            inv,
            ServedInvocation {
                approx,
                member: 0,
                cycles: charge.cycles,
                energy: charge.energy,
            },
        ));
    }
    // One slot-table lock for the whole sub-batch; duplicates surface as
    // `false` entries and are counted, never double-charged.
    state.fill_slots(&pending, &mut ctx.fresh);
    for (&(_, served), &fresh) in pending.iter().zip(ctx.fresh.iter()) {
        if fresh {
            delta.served += 1;
            if served.approx {
                delta.approx += 1;
            } else {
                delta.fallback += 1;
            }
            delta.latency.record(served.cycles);
        } else {
            delta.duplicates += 1;
        }
    }
    // The whole sub-batch ran under one operating point, so its served
    // count is attributed to that epoch wholesale.
    let epoch = ctx.op.epoch as usize;
    delta.epoch_served = vec![0; epoch + 1];
    delta.epoch_served[epoch] = delta.served;
    state
        .counters
        .lock()
        .expect("metrics lock poisoned")
        .absorb(&delta);
}

/// The routed analogue of [`serve_sub_batch`]: the router cascade picks a
/// pool member (or precise fallback) per invocation, and the worker
/// streams a member's configuration image only when the served route
/// *switches* members within the sub-batch — consecutive same-member runs
/// share one config burst, the routed generalization of the binary
/// path's one-burst-per-sub-batch amortization. Precise fallbacks touch
/// no FIFO and leave the configured member in place.
fn serve_sub_batch_routed(state: &EndpointState, ctx: &mut WorkerCtx, requests: &[Request]) {
    let routed = state
        .routed
        .as_ref()
        .expect("routed sub-batch needs routed state");
    let router = ctx
        .router
        .as_mut()
        .expect("routed sub-batch needs a router clone");
    let mut delta = EndpointCounters {
        route_served: vec![0; routed.routed.pool.len()],
        ..Default::default()
    };
    let mut pending: Vec<(usize, ServedInvocation)> = Vec::with_capacity(requests.len());
    // Which member's configuration currently sits in the (simulated)
    // config FIFO; fresh per sub-batch, like the binary path's burst.
    let mut configured: Option<usize> = None;
    for request in requests {
        let inv = request.invocation;
        let input = state.profile.dataset().input(inv);
        let route = router.classify_route(inv, input);
        if let RouteChoice::Member(m) = route {
            if configured != Some(m) {
                delta.config_bursts +=
                    ctx.queues.stream_config(&routed.member_config_words[m]) as u64;
                configured = Some(m);
            }
            // The member's accelerator work: operands through the input
            // FIFO, the member's fixed-point network, results drained.
            ctx.queues.input.enqueue_slice(input);
            ctx.queues.input.clear();
            let t0 = std::time::Instant::now();
            routed
                .routed
                .pool
                .member(m)
                .approx_with(input, &mut ctx.out, &mut ctx.scratch);
            delta.approx_wall_nanos += t0.elapsed().as_nanos() as u64;
            ctx.queues.output.enqueue_slice(&ctx.out);
            ctx.queues.output.clear();
        }
        let charge = routed.model.charge_route(route, CLEAN_EVENT, false);
        pending.push((
            inv,
            ServedInvocation {
                approx: !route.is_precise(),
                member: route.member().unwrap_or(0),
                cycles: charge.cycles,
                energy: charge.energy,
            },
        ));
    }
    state.fill_slots(&pending, &mut ctx.fresh);
    for (&(_, served), &fresh) in pending.iter().zip(ctx.fresh.iter()) {
        if fresh {
            delta.served += 1;
            if served.approx {
                delta.approx += 1;
                delta.route_served[served.member] += 1;
            } else {
                delta.fallback += 1;
            }
            delta.latency.record(served.cycles);
        } else {
            delta.duplicates += 1;
        }
    }
    // Routed endpoints never swap (the engine rejects it), so everything
    // is attributed to the compile-time epoch.
    let epoch = ctx.op.epoch as usize;
    delta.epoch_served = vec![0; epoch + 1];
    delta.epoch_served[epoch] = delta.served;
    state
        .counters
        .lock()
        .expect("metrics lock poisoned")
        .absorb(&delta);
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let empty =
            Arc::new(shared.with_operating_point(shared.threshold.threshold, shared.table.clone()));
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
}
