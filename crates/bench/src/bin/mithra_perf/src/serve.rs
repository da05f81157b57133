//! The serving workloads: an unguarded engine saturated with batched
//! traffic, and guarded engines, whose bring-up calibrates a watchdog per
//! endpoint.
//!
//! A client sends runs of [`RUN_LEN`] consecutive invocations of one
//! served dataset; the runs are shuffled by the workload seed. One load
//! generator thread offers everything as fast as the queue admits
//! (a saturating open loop) and backs off while the queue is full.

use crate::common::{profile_dataset, Ctx, Outcome};
use crate::trace::{mean_seconds, total_seconds, Tracer};
use mithra_core::classifier::{Classifier, Decision};
use mithra_core::function::InvokeScratch;
use mithra_core::pipeline::Compiled;
use mithra_core::profile::DatasetProfile;
use mithra_core::seeds::{CONFORM_SEED_BASE, SERVE_SEED_BASE};
use mithra_core::watchdog::calibrate;
use mithra_serve::{Backoff, EndpointSpec, Request, ServeConfig, ServeEngine, ServeReport};
use mithra_sim::fault::FifoEvent;
use mithra_sim::system::{simulate, InvocationModel, SimOptions};
use mithra_stats::clopper_pearson::Confidence;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Consecutive invocations of one dataset a client sends together; runs
/// this long let the engine batch (shuffling single requests instead
/// roughly halves throughput).
pub const RUN_LEN: usize = 64;

/// Requests a worker drains per queue visit.
const BATCH: usize = 32;

/// Request-queue capacity: deep enough that the load generator's longest
/// backoff park (1 ms) never lets the workers run dry, so throughput
/// measures the serving workers rather than the generator's sleeps.
const QUEUE_DEPTH: usize = 16384;

/// Shadow-sampling period of the guarded engines' watchdogs.
const WATCHDOG_PERIOD: usize = 16;

/// Dataset seeds each workload seed owns inside the serving seed window.
const SEED_STRIDE: u64 = 64;

/// The guarded engine's watchdog confidence (`EndpointState::build`).
const WATCHDOG_CONFIDENCE: f64 = 0.95;

/// A compiled benchmark and one unseen dataset it serves.
pub struct Endpoint {
    name: String,
    compiled: Arc<Compiled>,
    profile: DatasetProfile,
}

/// The served endpoints and the arrival schedule over them.
pub struct Traffic {
    endpoints: Vec<Endpoint>,
    schedule: Vec<Request>,
}

/// The arrival schedule: every invocation of every endpoint exactly once,
/// in runs of [`RUN_LEN`] consecutive invocations of one endpoint (the
/// last run of an endpoint may be shorter), runs shuffled by `seed`.
pub fn schedule(sizes: &[usize], seed: u64) -> Vec<Request> {
    let mut runs: Vec<(usize, usize, usize)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(endpoint, &n)| {
            (0..n)
                .step_by(RUN_LEN)
                .map(move |s| (endpoint, s, (s + RUN_LEN).min(n)))
        })
        .collect();
    runs.shuffle(&mut StdRng::seed_from_u64(seed));
    runs.into_iter()
        .flat_map(|(endpoint, start, end)| {
            (start..end).map(move |invocation| Request {
                endpoint,
                invocation,
            })
        })
        .collect()
}

/// Set-up: load the artifacts, generate and profile `per_bench` unseen
/// datasets per benchmark from the seed's window, build the schedule.
fn traffic(ctx: &Ctx, t: &mut Tracer, per_bench: usize) -> (Traffic, bool) {
    let (artifacts, warm) = ctx.load_artifacts(t);
    let slots = (CONFORM_SEED_BASE - SERVE_SEED_BASE) / SEED_STRIDE;
    let first_seed = SERVE_SEED_BASE + (ctx.seed % slots) * SEED_STRIDE;
    let mut endpoints = Vec::new();
    for compiled in &artifacts {
        let bench = compiled.function.benchmark().name();
        for k in 0..per_bench as u64 {
            let profile = profile_dataset(t, &compiled.function, first_seed + k, ctx.scale.dataset);
            endpoints.push(Endpoint {
                name: format!("{bench}-{k}"),
                compiled: Arc::clone(compiled),
                profile,
            });
        }
    }
    let sizes: Vec<usize> = endpoints
        .iter()
        .map(|e| e.profile.invocation_count())
        .collect();
    let schedule = t.span("serve.loadgen", "schedule", |_| schedule(&sizes, ctx.seed));
    (
        Traffic {
            endpoints,
            schedule,
        },
        warm,
    )
}

/// One engine's life, timed from the load generator.
struct EngineRun {
    start_s: f64,
    submit_s: f64,
    drain_s: f64,
    report_s: f64,
    /// Requests offered, re-offers after a full queue included.
    offered: u64,
    /// Offers the full queue refused (retried, not failures).
    refused: u64,
    report: ServeReport,
}

impl EngineRun {
    /// First submit to drained `join`.
    fn serve_s(&self) -> f64 {
        self.submit_s + self.drain_s
    }
}

/// Starts an engine over the traffic, offers the whole schedule, drains
/// it, and folds the report (after the serving clock has stopped).
fn run_engine(
    t: &mut Tracer,
    traffic: &Traffic,
    config: &ServeConfig,
) -> Result<EngineRun, String> {
    let specs = traffic
        .endpoints
        .iter()
        .map(|e| EndpointSpec {
            name: e.name.clone(),
            compiled: Arc::clone(&e.compiled),
            profile: e.profile.clone(),
            routed: None,
        })
        .collect();
    let engine = t.span("workload", "engine", |t| -> Result<_, String> {
        let (engine, start_s) = t.timed("serve.engine", "start", |_| {
            ServeEngine::start(specs, config)
        });
        let engine = engine.map_err(|e| format!("engine start: {e}"))?;
        let (offers, submit_s) = t.timed("serve.engine", "submit", |_| {
            submit_all(&engine, &traffic.schedule)
        });
        // Drain even when submission failed: every worker must be joined.
        let (drained, drain_s) = t.timed("serve.engine", "drain", |_| engine.join());
        let (offered, refused) = offers.map_err(|e| format!("submit: {e}"))?;
        let drained = drained.map_err(|e| format!("drain: {e}"))?;
        Ok((start_s, submit_s, drain_s, offered, refused, drained))
    });
    let (start_s, submit_s, drain_s, offered, refused, drained) = engine?;
    let (report, report_s) = t.timed("serve.engine", "report", |_| drained.report());
    Ok(EngineRun {
        start_s,
        submit_s,
        drain_s,
        report_s,
        offered,
        refused,
        report: report.map_err(|e| format!("report: {e}"))?,
    })
}

/// Offers the schedule a run at a time; returns `(offered, refused)`.
fn submit_all(
    engine: &ServeEngine,
    schedule: &[Request],
) -> Result<(u64, u64), mithra_serve::RejectReason> {
    let (mut offered, mut refused) = (0u64, 0u64);
    let mut backoff = Backoff::new();
    let mut offset = 0;
    while offset < schedule.len() {
        let chunk = &schedule[offset..(offset + RUN_LEN).min(schedule.len())];
        let accepted = engine.submit_batch(chunk)?;
        offered += chunk.len() as u64;
        refused += (chunk.len() - accepted) as u64;
        if accepted == 0 {
            backoff.wait();
        } else {
            offset += accepted;
            backoff.reset();
        }
    }
    Ok((offered, refused))
}

/// Exactly-once and counter-consistency problems of one served endpoint.
fn endpoint_problems(run: &EngineRun, i: usize) -> Vec<String> {
    let e = &run.report.endpoints[i];
    let c = &e.counters;
    let mut problems: Vec<String> = c
        .consistency_errors()
        .into_iter()
        .map(|m| format!("{}: {m}", e.name))
        .collect();
    if c.served != e.invocations as u64 || c.duplicates != 0 || e.result.is_none() {
        problems.push(format!(
            "{}: {} invocations, {} served, {} duplicates",
            e.name, e.invocations, c.served, c.duplicates
        ));
    }
    problems
}

/// The measured loop shared by both serving workloads: fresh engines
/// until the run's seconds are spent. `check` adds per-endpoint checks.
fn engines(
    ctx: &Ctx,
    t: &mut Tracer,
    out: &mut Outcome,
    traffic: &Traffic,
    config: &ServeConfig,
    mut check: impl FnMut(&EngineRun, usize) -> Vec<String>,
) -> Vec<EngineRun> {
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut attempts = 0;
    while !ctx.done(started, attempts) {
        t.rep = attempts;
        attempts += 1;
        match run_engine(t, traffic, config) {
            Ok(run) => {
                for i in 0..run.report.endpoints.len() {
                    let mut problems = endpoint_problems(&run, i);
                    problems.extend(check(&run, i));
                    out.checks.op(problems);
                }
                runs.push(run);
            }
            Err(e) => out.checks.op(vec![e]),
        }
    }
    out.op_span = t.last_of("workload");
    runs
}

/// Per-layer numbers of a traced serving run: the set-up's artifact loads
/// and profiling, then the engine, timed from the load generator and
/// read from its own counters.
fn serve_layers(t: &Tracer, out: &mut Outcome, run: &EngineRun, workers: usize) {
    let spans = t.spans();
    let mut served = 0;
    let mut approx = 0;
    let mut bursts = 0;
    let mut approx_nanos = 0;
    for e in &run.report.endpoints {
        served += e.counters.served;
        approx += e.counters.approx;
        bursts += e.counters.config_bursts;
        approx_nanos += e.counters.approx_wall_nanos;
    }
    out.layer(
        "core.cache.load_s",
        "s",
        total_seconds(spans, "core.cache", "load"),
    );
    out.layer(
        "core.profile.collect_s",
        "s",
        total_seconds(spans, "core.profile", "collect"),
    );
    out.layer("serve.engine.submit_s", "s", run.submit_s);
    out.layer(
        "serve.engine.queue_full_frac",
        "ratio",
        run.refused as f64 / run.offered as f64,
    );
    out.layer("serve.engine.drain_s", "s", run.drain_s);
    out.layer("serve.engine.report_s", "s", run.report_s);
    out.layer(
        "serve.sub_batch_mean",
        "count",
        served as f64 / bursts as f64,
    );
    out.layer("serve.approx_frac", "ratio", approx as f64 / served as f64);
    let cpu_s = workers as f64 * run.serve_s();
    out.layer(
        "serve.approx_cpu_frac",
        "ratio",
        approx_nanos as f64 / 1e9 / cpu_s,
    );
}

fn serve_config(ctx: &Ctx, watchdog_period: usize) -> ServeConfig {
    ServeConfig {
        workers: ctx.threads,
        batch: BATCH,
        queue_depth: QUEUE_DEPTH,
        watchdog_period,
        ..ServeConfig::default()
    }
}

/// `serve`: unguarded engines; `serve_inv_per_s` per engine.
pub fn serve(ctx: &Ctx, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (traffic, setup_s) = ctx.setup(t, &mut out.checks, |t| {
        traffic(ctx, t, ctx.scale.serve_datasets)
    });
    out.setup_s = setup_s;
    // Sequential simulation of each benchmark's first endpoint: a fully
    // served unguarded endpoint must reproduce it bit for bit.
    let reference: Vec<_> = (0..traffic.endpoints.len())
        .step_by(ctx.scale.serve_datasets)
        .map(|i| {
            let e = &traffic.endpoints[i];
            let mut table = e.compiled.table.clone();
            (
                i,
                simulate(&e.compiled, &e.profile, &mut table, &SimOptions::default()),
            )
        })
        .collect();
    let config = serve_config(ctx, 0);
    let runs = engines(
        ctx,
        t,
        &mut out,
        &traffic,
        &config,
        |run, i| match reference.iter().find(|(r, _)| *r == i) {
            Some((_, expected)) if run.report.endpoints[i].result.as_ref() != Some(expected) => {
                vec![format!(
                    "{}: served result differs from sequential simulate",
                    traffic.endpoints[i].name
                )]
            }
            _ => Vec::new(),
        },
    );
    let invocations = traffic.schedule.len() as f64;
    out.wall_s = runs.iter().map(EngineRun::serve_s).collect();
    out.primary = (
        "serve_inv_per_s",
        out.wall_s.iter().map(|s| invocations / s).collect(),
    );

    if let (true, Some(run)) = (t.enabled(), runs.last()) {
        serve_layers(t, &mut out, run, config.workers);
        let (decide, approx, charge) = t.span("replay", "serve", |_| replay(&traffic));
        let per_request = |nanos: f64| nanos / invocations;
        out.layer("serve.replay.decide_ns", "ns", per_request(decide));
        out.layer("serve.replay.approx_ns", "ns", per_request(approx));
        out.layer("serve.replay.charge_ns", "ns", per_request(charge));
        let cpu_ns = config.workers as f64 * run.serve_s() * 1e9;
        out.replay_frac = (decide + approx + charge) / cpu_ns;
        out.replay_of = "workers × serving wall (decide + accelerator + charge)";
        out.layer("serve.unattributed_frac", "ratio", 1.0 - out.replay_frac);
    }
    out
}

/// One thread runs the schedule outside the engine, cut into the
/// engine's batches and same-endpoint sub-batches, timing the decide,
/// accelerator and charge passes. Returns their total nanoseconds.
fn replay(traffic: &Traffic) -> (f64, f64, f64) {
    struct Lane {
        table: mithra_core::table::TableClassifier,
        model: InvocationModel,
        scratch: InvokeScratch,
    }
    let mut lanes: Vec<Option<Lane>> = traffic.endpoints.iter().map(|_| None).collect();
    let (mut decide, mut approx, mut charge) = (0u128, 0u128, 0u128);
    let (mut decisions, mut batch_in, mut batch_out) = (Vec::new(), Vec::new(), Vec::new());
    for batch in traffic.schedule.chunks(BATCH) {
        for sub in batch.chunk_by(|a, b| a.endpoint == b.endpoint) {
            let endpoint = &traffic.endpoints[sub[0].endpoint];
            let compiled = &endpoint.compiled;
            let lane = lanes[sub[0].endpoint].get_or_insert_with(|| Lane {
                table: compiled.table.clone(),
                model: InvocationModel::new(
                    compiled,
                    &compiled.table.overhead(),
                    &SimOptions::default(),
                ),
                scratch: InvokeScratch::new(),
            });
            let t0 = Instant::now();
            decisions.clear();
            batch_in.clear();
            for request in sub {
                let input = endpoint.profile.dataset().input(request.invocation);
                let decision = lane.table.classify(request.invocation, input);
                if decision == Decision::Approximate {
                    batch_in.extend_from_slice(input);
                }
                decisions.push(decision);
            }
            let t1 = Instant::now();
            let count = batch_in.len() / compiled.function.benchmark().input_dim();
            if count > 0 {
                compiled.function.approx_batch_with(
                    &batch_in,
                    count,
                    &mut batch_out,
                    &mut lane.scratch,
                );
            }
            let t2 = Instant::now();
            for &decision in &decisions {
                black_box(lane.model.charge(decision, FifoEvent::None, false));
            }
            let t3 = Instant::now();
            decide += (t1 - t0).as_nanos();
            approx += (t2 - t1).as_nanos();
            charge += (t3 - t2).as_nanos();
        }
    }
    (decide as f64, approx as f64, charge as f64)
}

/// `serve-guarded`: engines with the watchdog on; `engine_start_ms` per
/// engine. The traffic exercises shadow sampling and is checked, but
/// bring-up is the measured cost.
pub fn serve_guarded(ctx: &Ctx, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let per_bench = ctx.scale.guarded_datasets;
    let (traffic, setup_s) = ctx.setup(t, &mut out.checks, |t| traffic(ctx, t, per_bench));
    out.setup_s = setup_s;
    let config = serve_config(ctx, WATCHDOG_PERIOD);
    let runs = engines(ctx, t, &mut out, &traffic, &config, |_, _| Vec::new());
    out.wall_s = runs.iter().map(|r| r.start_s).collect();
    out.primary = (
        "engine_start_ms",
        out.wall_s.iter().map(|s| s * 1e3).collect(),
    );

    if let (true, Some(run)) = (t.enabled(), runs.last()) {
        serve_layers(t, &mut out, run, config.workers);
        let endpoints = traffic.endpoints.len();
        out.layer(
            "serve.engine.start_per_endpoint_ms",
            "ms",
            run.start_s * 1e3 / endpoints as f64,
        );
        let (samples, breaches) = run.report.endpoints.iter().fold((0, 0), |(s, b), e| {
            (
                s + e.counters.watchdog.samples,
                b + e.counters.watchdog.breaches,
            )
        });
        out.layer("serve.watchdog.samples", "count", samples as f64);
        out.layer("serve.watchdog.breaches", "count", breaches as f64);
        // Bring-up calibrates every endpoint's artifact; so does the replay.
        let confidence = Confidence::new(WATCHDOG_CONFIDENCE).expect("0.95 is a valid confidence");
        t.span("replay", "calibrate", |t| {
            for e in &traffic.endpoints {
                let compiled = &e.compiled;
                let calibrated = t.span("core.watchdog", "calibrate", |_| {
                    let mut table = compiled.table.clone();
                    calibrate(
                        &mut table,
                        &compiled.profiles,
                        compiled.threshold.threshold,
                        confidence,
                    )
                });
                if let Err(err) = calibrated {
                    out.checks
                        .op(vec![format!("{}: calibration replay: {err}", e.name)]);
                }
            }
        });
        let spans = t.spans();
        let calibrate_ms = mean_seconds(spans, "core.watchdog", "calibrate") * 1e3;
        out.layer("core.watchdog.calibrate_ms", "ms", calibrate_ms);
        out.replay_frac = total_seconds(spans, "core.watchdog", "calibrate") / run.start_s;
        out.replay_of = "serve.engine.start (one watchdog calibration per endpoint)";
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_runs_covering_every_invocation_once() {
        let sizes = [200, 64, 130, 5];
        let a = schedule(&sizes, 7);
        assert_eq!(a, schedule(&sizes, 7), "same seed, same schedule");
        assert_ne!(a, schedule(&sizes, 8), "the seed moves the arrival order");

        let mut seen: Vec<Vec<u32>> = sizes.iter().map(|&n| vec![0; n]).collect();
        for r in &a {
            seen[r.endpoint][r.invocation] += 1;
        }
        assert!(
            seen.iter().flatten().all(|&count| count == 1),
            "every invocation offered exactly once"
        );

        // Split into maximal same-endpoint stretches of consecutive
        // invocations: all are whole runs except an endpoint's tail.
        let runs: Vec<&[Request]> = a
            .chunk_by(|x, y| {
                x.endpoint == y.endpoint
                    && y.invocation == x.invocation + 1
                    && y.invocation % RUN_LEN != 0
            })
            .collect();
        for run in &runs {
            let n = sizes[run[0].endpoint];
            assert_eq!(
                run[0].invocation % RUN_LEN,
                0,
                "runs start on a run boundary"
            );
            assert_eq!(run.len(), RUN_LEN.min(n - run[0].invocation), "run length");
        }
        let expected_runs: usize = sizes.iter().map(|n| n.div_ceil(RUN_LEN)).sum();
        assert_eq!(runs.len(), expected_runs);
    }
}
