//! Closed-loop serving regressions: the shared re-certification trigger
//! and the epoch-versioned hot-swap path.
//!
//! Two properties matter here. First, per-worker forked watchdogs must
//! share **one** re-certification trigger per endpoint epoch — without
//! the shared compare-exchange, every shard that walks down to Fallback
//! would fire its own recert, racing N identical re-certifications for
//! one drift event. Second, a hot swap must never pause serving or tear
//! a batch: in-flight sub-batches finish on the epoch they started
//! under, later sub-batches route through the new operating point, and
//! the snapshot attributes served counts to the epoch that served them.
//!
//! Routed endpoints run the same guard and the same swap: a guarded pool
//! of one is the guarded binary endpoint counter for counter, and a
//! routed swap installs a new router through the same epoch path.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::{DatasetScale, DriftSpec};
use mithra_axbench::suite;
use mithra_core::pipeline::{compile, compile_routed, CompileConfig, Compiled};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{Mixture, PoolSpec, RoutedCompiled};
use mithra_serve::{EndpointSpec, Request, RoutedServeSpec, ServeConfig, ServeEngine, ServeError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn benchmark(name: &str) -> Arc<dyn Benchmark> {
    suite::by_name(name).unwrap().into()
}

fn compiled_for(name: &str) -> Arc<Compiled> {
    Arc::new(compile(benchmark(name), &CompileConfig::smoke()).unwrap())
}

fn compiled_sobel() -> Arc<Compiled> {
    static CACHE: OnceLock<Arc<Compiled>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| compiled_for("sobel")))
}

fn routed_for(name: &str, pool_size: usize) -> Arc<RoutedCompiled> {
    let spec = PoolSpec::sized(&benchmark(name).npu_topology(), pool_size);
    Arc::new(compile_routed(benchmark(name), &CompileConfig::smoke(), &spec).unwrap())
}

/// A routed endpoint serving `member_profiles` (member `m`'s profile of
/// one dataset) through `routed`'s pool.
fn routed_spec(
    compiled: &Arc<Compiled>,
    routed: &Arc<RoutedCompiled>,
    member_profiles: Vec<DatasetProfile>,
) -> EndpointSpec {
    EndpointSpec {
        name: "routed".into(),
        compiled: Arc::clone(compiled),
        profile: member_profiles[0].clone(),
        routed: Some(RoutedServeSpec {
            routed: Arc::clone(routed),
            member_profiles,
        }),
    }
}

/// A dataset profile whose inputs drifted hard enough that the clean
/// certificate's watchdog must walk down to Fallback.
fn drifted_profile(compiled: &Compiled, seed: u64, scale: DatasetScale) -> DatasetProfile {
    let drift = DriftSpec {
        scale: 1.6,
        offset: 0.35,
        noise_std: 0.0,
        seed: 7,
    };
    let ds = compiled.function.dataset(seed, scale).drifted(&drift);
    DatasetProfile::collect(&compiled.function, ds)
}

fn engine_for(compiled: &Arc<Compiled>, profile: &DatasetProfile, workers: usize) -> ServeEngine {
    ServeEngine::start(
        vec![EndpointSpec {
            name: "sobel".into(),
            compiled: Arc::clone(compiled),
            profile: profile.clone(),
            routed: None,
        }],
        &ServeConfig {
            workers,
            batch: 4,
            watchdog_period: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// Polls the live snapshot until the endpoint has drained `target`
/// submissions (fresh serves plus idempotent re-serves of known slots).
fn wait_drained(engine: &ServeEngine, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snapshot = engine.snapshot();
        let c = &snapshot.endpoints[0].counters;
        if c.served + c.duplicates >= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "engine did not drain {target} requests in time: {c:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Replays invocations `0..part` of the drifted stream until a shard
/// watchdog walks down to Fallback and raises the shared trigger.
///
/// A single smoke-sized pass admits too few shadow samples to walk the
/// Monitoring → Throttled → Fallback ladder (the drifted inputs mostly
/// land outside the table's trained buckets and are rejected), so the
/// driver re-submits the same prefix — re-serves of known slots count as
/// `duplicates`, not `served`, but still feed the shadow sampler, which
/// is exactly how sustained drifted traffic looks to the guard.
///
/// Returns the number of rounds driven.
fn drive_until_trigger(engine: &ServeEngine, part: usize, max_rounds: usize) -> usize {
    let mut drained = 0u64;
    for round in 1..=max_rounds {
        for i in 0..part {
            engine.submit_or_wait(0, i).unwrap();
        }
        drained += part as u64;
        wait_drained(engine, drained);
        if engine.recert_requested(0).unwrap().is_some() {
            return round;
        }
    }
    panic!("drift never raised the recert trigger in {max_rounds} rounds");
}

#[test]
fn forked_watchdogs_share_one_recert_trigger() {
    let compiled = compiled_sobel();
    let profile = drifted_profile(&compiled, 90_001, DatasetScale::Smoke);
    let n = profile.invocation_count();
    let engine = engine_for(&compiled, &profile, 4);
    drive_until_trigger(&engine, n, 30);
    // The drift tripped at least one shard into Fallback, and the shared
    // trigger latched the epoch it happened under.
    assert_eq!(
        engine.recert_requested(0).unwrap(),
        Some(0),
        "hard drift must raise the shared trigger for epoch 0"
    );
    let report = engine.finish().unwrap();
    let counters = &report.endpoints[0].counters;
    assert!(
        counters.watchdog.breaches > 0,
        "drift must breach the guard"
    );
    assert_eq!(
        counters.watchdog.recert_triggers, 1,
        "4 forked shard watchdogs must share one trigger, not race: {:?}",
        counters.watchdog
    );
    assert!(
        counters.watchdog.time_in_fallback > 0,
        "time-in-state must record the Fallback residence"
    );
    assert!(
        !counters.guard_log.is_empty(),
        "the transition log must record the walk down the ladder"
    );
    assert_eq!(counters.swaps, 0);
    assert_eq!(counters.epoch_served, vec![n as u64]);
}

#[test]
fn hot_swap_attributes_epochs_and_resumes_serving() {
    let compiled = compiled_sobel();
    let profile = drifted_profile(&compiled, 90_002, DatasetScale::Smoke);
    let n = profile.invocation_count();
    let half = n / 2;
    let engine = engine_for(&compiled, &profile, 2);

    // Phase 1: replay the first half under the compile-time certificate
    // until the drift walks a shard into Fallback and raises the trigger.
    let rounds = drive_until_trigger(&engine, half, 30);
    assert_eq!(engine.recert_requested(0).unwrap(), Some(0));

    // Hot-swap a "re-certified" operating point. A threshold of MAX
    // stands in for a successful re-certification against the drifted
    // distribution: no shadow sample can violate it, so the fresh epoch-1
    // watchdogs must stay in Monitoring and keep admitting.
    let epoch = engine
        .swap_operating_point(0, f32::MAX, Mixture::Binary(&compiled).router(), None)
        .unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(
        engine.recert_requested(0).unwrap(),
        None,
        "the swap must clear the shared trigger"
    );

    // Phase 2: the rest of the dataset serves under epoch 1 without the
    // engine ever stopping.
    for i in half..n {
        engine.submit_or_wait(0, i).unwrap();
    }
    wait_drained(&engine, (rounds * half + (n - half)) as u64);
    assert_eq!(
        engine.recert_requested(0).unwrap(),
        None,
        "the re-certified pair must not re-raise the trigger"
    );
    let report = engine.finish().unwrap();
    let counters = &report.endpoints[0].counters;
    assert_eq!(counters.swaps, 1);
    assert_eq!(
        counters.epoch_served,
        vec![half as u64, (n - half) as u64],
        "served counts must be attributed to the epoch that served them"
    );
    assert_eq!(counters.watchdog.recert_triggers, 1);
    let snapshot = report.snapshot();
    assert!(
        snapshot.consistency_errors().is_empty(),
        "{:?}",
        snapshot.consistency_errors()
    );
    let json = serde_json::to_string(&snapshot).unwrap();
    assert!(json.contains("\"epoch_served\""));
    assert!(json.contains("\"guard_log\""));
    assert!(json.contains("\"recert_triggers\""));
    assert!(
        report.endpoints[0].result.is_some(),
        "full coverage across a swap still folds a result"
    );
}

#[test]
fn swap_rejects_unknown_endpoints() {
    let compiled = compiled_sobel();
    let ds = compiled.function.dataset(90_003, DatasetScale::Smoke);
    let profile = DatasetProfile::collect(&compiled.function, ds);
    let engine = engine_for(&compiled, &profile, 1);
    let err = engine
        .swap_operating_point(5, 0.1, Mixture::Binary(&compiled).router(), None)
        .unwrap_err();
    assert!(matches!(err, ServeError::UnknownEndpoint(5)));
    assert!(matches!(
        engine.recert_requested(5).unwrap_err(),
        ServeError::UnknownEndpoint(5)
    ));
    engine.finish().unwrap();
}

#[test]
fn guarded_pool_of_one_matches_guarded_binary_counter_for_counter() {
    // On inversek2j the drift leaves enough admitted invocations that one
    // full-scale pass walks the ladder.
    let compiled = compiled_for("inversek2j");
    let pool1 = routed_for("inversek2j", 1);
    assert_eq!(pool1.pool.len(), 1);
    let binary = drifted_profile(&compiled, 90_004, DatasetScale::Full);
    let member = pool1.pool.member(0);
    let member = DatasetProfile::collect(member, binary.dataset().clone());
    let n = binary.invocation_count();

    // Both endpoints share one engine. One `submit_batch` enqueues the
    // drifted dataset as alternating `CHUNK`-request runs, binary first,
    // and workers pop `2 * CHUNK` at a time. Each pop then carries one
    // binary run and the same routed run, served back to back by one
    // worker, so the two endpoints' shard watchdogs see identical sample
    // streams however pops land, and every slot is served once.
    const CHUNK: usize = 8;
    let invocations: Vec<usize> = (0..n).collect();
    let requests: Vec<Request> = invocations
        .chunks(CHUNK)
        .flat_map(|run| {
            [0, 1].into_iter().flat_map(move |endpoint| {
                run.iter().map(move |&invocation| Request {
                    endpoint,
                    invocation,
                })
            })
        })
        .collect();
    for workers in [1, 2, 4] {
        let engine = ServeEngine::start(
            vec![
                EndpointSpec {
                    name: "binary".into(),
                    compiled: Arc::clone(&compiled),
                    profile: binary.clone(),
                    routed: None,
                },
                routed_spec(&compiled, &pool1, vec![member.clone()]),
            ],
            &ServeConfig {
                workers,
                batch: 2 * CHUNK,
                queue_depth: requests.len(),
                watchdog_period: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(engine.submit_batch(&requests).unwrap(), requests.len());
        wait_drained(&engine, n as u64);
        let at = format!("{workers} workers");
        let trigger = engine.recert_requested(0).unwrap();
        assert_eq!(trigger, Some(0), "{at}: the drift must raise the trigger");
        assert_eq!(engine.recert_requested(1).unwrap(), trigger, "{at}");

        let report = engine.finish().unwrap();
        let (b, p) = (&report.endpoints[0], &report.endpoints[1]);
        assert_eq!(p.result, b.result, "{at}");
        let (b, p) = (&b.counters, &p.counters);
        assert_eq!(p.served, b.served, "{at}");
        assert_eq!(p.approx, b.approx, "{at}");
        assert_eq!(p.fallback, b.fallback, "{at}");
        assert_eq!(p.route_served, b.route_served, "{at}");
        assert_eq!(p.epoch_served, b.epoch_served, "{at}");
        // Samples, violations, breaches, recoveries, time in each state,
        // transitions and recert triggers.
        assert_eq!(p.watchdog, b.watchdog, "{at}");
        assert!(b.watchdog.breaches > 0, "{at}: the drift must breach");
        // Shards fold their logs as they exit, so across shards only the
        // set of entries is fixed; within one shard the order is too.
        assert_eq!(b.guard_log_dropped, 0, "{at}: the whole log is compared");
        assert_eq!(p.guard_log_dropped, 0, "{at}");
        if workers == 1 {
            assert_eq!(p.guard_log, b.guard_log, "{at}");
        } else {
            let sorted = |log: &[mithra_serve::GuardLogEntry]| {
                let mut log = log.to_vec();
                log.sort_by(|x, y| {
                    (x.at_sample, &x.from, &x.to).cmp(&(y.at_sample, &y.from, &y.to))
                });
                log
            };
            assert_eq!(sorted(&p.guard_log), sorted(&b.guard_log), "{at}");
        }
    }
}

#[test]
fn routed_swap_attributes_epochs_and_rejects_mismatched_routers() {
    let compiled = compiled_sobel();
    let routed = routed_for("sobel", 2);
    assert_eq!(routed.pool.len(), 2, "{:?}", routed.pool.topologies());
    let ds = routed.pool.accurate().dataset(90_005, DatasetScale::Smoke);
    let member_profiles: Vec<DatasetProfile> = routed
        .pool
        .members()
        .iter()
        .map(|m| DatasetProfile::collect(m, ds.clone()))
        .collect();
    let n = member_profiles[0].invocation_count();
    let half = n / 2;
    let engine = ServeEngine::start(
        vec![
            routed_spec(&compiled, &routed, member_profiles),
            EndpointSpec {
                name: "binary".into(),
                compiled: Arc::clone(&compiled),
                profile: DatasetProfile::collect(&compiled.function, ds),
                routed: None,
            },
        ],
        &ServeConfig {
            workers: 2,
            batch: 4,
            watchdog_period: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for i in 0..half {
        engine.submit_or_wait(0, i).unwrap();
    }
    wait_drained(&engine, half as u64);

    // A router over the wrong number of members is refused, on either
    // kind of endpoint, and leaves the epoch alone.
    let binary_router = Mixture::Binary(&compiled).router();
    let pool_router = Mixture::Routed(&routed).router();
    for (endpoint, router, routes, pool) in [
        (0, binary_router.clone(), 1, 2),
        (1, pool_router.clone(), 2, 1),
    ] {
        let err = engine
            .swap_operating_point(endpoint, 0.5, router, None)
            .unwrap_err();
        assert!(
            matches!(err, ServeError::RouterMismatch { routes: r, pool: p } if r == routes && p == pool),
            "endpoint {endpoint}: {err:?}"
        );
    }

    let epoch = engine
        .swap_operating_point(0, routed.threshold.threshold * 2.0, pool_router, None)
        .unwrap();
    assert_eq!(epoch, 1);
    for i in half..n {
        engine.submit_or_wait(0, i).unwrap();
    }
    let report = engine.finish().unwrap();
    let counters = &report.endpoints[0].counters;
    assert_eq!(counters.swaps, 1);
    assert_eq!(
        counters.epoch_served,
        vec![half as u64, (n - half) as u64],
        "served counts must be attributed to the epoch that served them"
    );
    assert_eq!(report.endpoints[1].counters.swaps, 0);
    assert!(report.endpoints[0].result.is_some());
    let snapshot = report.snapshot();
    assert!(
        snapshot.consistency_errors().is_empty(),
        "{:?}",
        snapshot.consistency_errors()
    );
}
