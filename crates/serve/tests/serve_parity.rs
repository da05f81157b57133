//! Serve-vs-simulate determinism: for every benchmark in the suite, a
//! batched, sharded serving run must produce a [`RunResult`] that is
//! **bit-identical** (f64 equality, no tolerance) to the sequential
//! simulator, across seeds, batch sizes, and worker counts — sharding
//! buys wall-clock throughput, never different numbers.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_core::pipeline::{compile, compile_routed, CompileConfig, Compiled};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{PoolSpec, RouteChoice, RoutedCompiled};
use mithra_npu::fifo::QueueInterface;
use mithra_serve::{
    EndpointReport, EndpointSpec, Request, RoutedServeSpec, ServeConfig, ServeEngine,
};
use mithra_sim::system::{run_routed, simulate, RunResult, SimOptions};
use std::sync::{Arc, OnceLock};

const SUITE: [&str; 6] = [
    "blackscholes",
    "fft",
    "inversek2j",
    "jmeint",
    "jpeg",
    "sobel",
];

fn compiled_for(name: &str) -> Arc<Compiled> {
    static CACHE: [OnceLock<Arc<Compiled>>; SUITE.len()] = [const { OnceLock::new() }; SUITE.len()];
    let idx = SUITE.iter().position(|&n| n == name).expect("suite member");
    Arc::clone(CACHE[idx].get_or_init(|| {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        Arc::new(compile(bench, &CompileConfig::smoke()).unwrap())
    }))
}

fn profile_for(compiled: &Compiled, seed: u64) -> DatasetProfile {
    let ds = compiled.function.dataset(seed, DatasetScale::Smoke);
    DatasetProfile::collect(&compiled.function, ds)
}

fn sequential(compiled: &Compiled, profile: &DatasetProfile) -> RunResult {
    let mut classifier = compiled.table.clone();
    simulate(compiled, profile, &mut classifier, &SimOptions::default())
}

fn serve_once(
    compiled: &Arc<Compiled>,
    profile: &DatasetProfile,
    workers: usize,
    batch: usize,
) -> RunResult {
    let engine = ServeEngine::start(
        vec![EndpointSpec {
            name: "endpoint".into(),
            compiled: Arc::clone(compiled),
            profile: profile.clone(),
            routed: None,
        }],
        &ServeConfig {
            workers,
            batch,
            // Smaller than the dataset: submission exercises the
            // backpressure path too.
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for i in 0..profile.invocation_count() {
        engine.submit_or_wait(0, i).unwrap();
    }
    let report = engine.finish().unwrap();
    let endpoint = &report.endpoints[0];
    assert_eq!(
        endpoint.counters.served,
        profile.invocation_count() as u64,
        "every submitted invocation must be served exactly once"
    );
    endpoint.result.expect("full coverage yields a result")
}

fn assert_parity(name: &str) {
    let compiled = compiled_for(name);
    for seed in [11u64, 222, 3333] {
        let profile = profile_for(&compiled, seed);
        let expected = sequential(&compiled, &profile);
        for (workers, batch) in [(1, 1), (3, 1), (3, 8)] {
            let got = serve_once(&compiled, &profile, workers, batch);
            assert_eq!(
                got, expected,
                "{name}: seed {seed}, {workers} workers, batch {batch} \
                 diverged from sequential simulate"
            );
        }
    }
}

#[test]
fn serving_blackscholes_is_bit_identical_to_simulate() {
    assert_parity("blackscholes");
}

#[test]
fn serving_fft_is_bit_identical_to_simulate() {
    assert_parity("fft");
}

#[test]
fn serving_inversek2j_is_bit_identical_to_simulate() {
    assert_parity("inversek2j");
}

#[test]
fn serving_jmeint_is_bit_identical_to_simulate() {
    assert_parity("jmeint");
}

#[test]
fn serving_sobel_is_bit_identical_to_simulate() {
    assert_parity("sobel");
}

#[test]
fn serving_jpeg_is_bit_identical_to_simulate() {
    assert_parity("jpeg");
}

#[test]
fn multi_endpoint_interleaving_preserves_every_endpoint_identity() {
    // Two endpoints served through one engine with deliberately
    // interleaved submission order: sub-batch grouping and per-endpoint
    // contexts must keep each endpoint bit-identical to its own
    // sequential run.
    let sobel = compiled_for("sobel");
    let invk = compiled_for("inversek2j");
    let sobel_profile = profile_for(&sobel, 77);
    let invk_profile = profile_for(&invk, 78);
    let expected_sobel = sequential(&sobel, &sobel_profile);
    let expected_invk = sequential(&invk, &invk_profile);

    let engine = ServeEngine::start(
        vec![
            EndpointSpec {
                name: "sobel".into(),
                compiled: Arc::clone(&sobel),
                profile: sobel_profile.clone(),
                routed: None,
            },
            EndpointSpec {
                name: "inversek2j".into(),
                compiled: Arc::clone(&invk),
                profile: invk_profile.clone(),
                routed: None,
            },
        ],
        &ServeConfig {
            workers: 4,
            batch: 6,
            queue_depth: 128,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let n0 = sobel_profile.invocation_count();
    let n1 = invk_profile.invocation_count();
    for i in 0..n0.max(n1) {
        if i < n0 {
            engine.submit_or_wait(0, i).unwrap();
        }
        if i < n1 {
            engine.submit_or_wait(1, i).unwrap();
        }
    }
    let report = engine.finish().unwrap();
    assert_eq!(report.endpoints[0].result.unwrap(), expected_sobel);
    assert_eq!(report.endpoints[1].result.unwrap(), expected_invk);
    let snapshot = report.snapshot();
    assert_eq!(snapshot.endpoints.len(), 2);
    assert!(
        snapshot.endpoints[0].counters.config_bursts > 0,
        "config streaming must be accounted"
    );
}

#[test]
fn watchdog_enabled_serving_covers_and_guards() {
    // With the watchdog on, admission becomes shard-local state, so no
    // bit-identity is claimed — but coverage, accounting, and the
    // no-false-alarm property on clean data must hold, and shadow
    // sampling must cost cycles.
    let compiled = compiled_for("inversek2j");
    let profile = profile_for(&compiled, 99);
    let expected = sequential(&compiled, &profile);
    let engine = ServeEngine::start(
        vec![EndpointSpec {
            name: "inversek2j".into(),
            compiled: Arc::clone(&compiled),
            profile: profile.clone(),
            routed: None,
        }],
        &ServeConfig {
            workers: 2,
            batch: 4,
            watchdog_period: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for i in 0..profile.invocation_count() {
        engine.submit_or_wait(0, i).unwrap();
    }
    let report = engine.finish().unwrap();
    let endpoint = &report.endpoints[0];
    let result = endpoint.result.expect("full coverage");
    assert_eq!(result.total, profile.invocation_count());
    assert!(
        endpoint.counters.watchdog.samples > 0,
        "shadow sampling must run"
    );
    assert_eq!(
        endpoint.counters.watchdog.breaches, 0,
        "clean certified data must not trip the guard"
    );
    assert!(
        result.accelerated_cycles > expected.accelerated_cycles,
        "shadow samples must cost cycles over the unguarded run"
    );
    assert_eq!(result.invoked, expected.invoked, "admission never gated");
}

fn routed_for(name: &str, pool_size: usize) -> Arc<RoutedCompiled> {
    let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
    let spec = PoolSpec::sized(&bench.npu_topology(), pool_size);
    Arc::new(compile_routed(bench, &CompileConfig::smoke(), &spec).unwrap())
}

fn member_profiles_for(routed: &RoutedCompiled, seed: u64) -> Vec<DatasetProfile> {
    let ds = routed.pool.accurate().dataset(seed, DatasetScale::Smoke);
    routed
        .pool
        .members()
        .iter()
        .map(|m| DatasetProfile::collect(m, ds.clone()))
        .collect()
}

fn serve_routed_once(
    compiled: &Arc<Compiled>,
    routed: &Arc<RoutedCompiled>,
    member_profiles: &[DatasetProfile],
    workers: usize,
    batch: usize,
) -> (RunResult, Vec<u64>) {
    let profile = member_profiles.last().expect("non-empty pool").clone();
    let n = profile.invocation_count();
    let engine = ServeEngine::start(
        vec![EndpointSpec {
            name: "routed".into(),
            compiled: Arc::clone(compiled),
            profile,
            routed: Some(RoutedServeSpec {
                routed: Arc::clone(routed),
                member_profiles: member_profiles.to_vec(),
            }),
        }],
        &ServeConfig {
            workers,
            batch,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for i in 0..n {
        engine.submit_or_wait(0, i).unwrap();
    }
    let report = engine.finish().unwrap();
    let endpoint = &report.endpoints[0];
    let snapshot = report.snapshot();
    assert!(
        snapshot.consistency_errors().is_empty(),
        "{:?}",
        snapshot.consistency_errors()
    );
    (
        endpoint.result.expect("full coverage yields a result"),
        endpoint.counters.route_served.clone(),
    )
}

/// Serves every invocation of one endpoint with all requests enqueued by
/// a single `submit_batch` before any worker can pop: workers then drain
/// the queue in consecutive chunks of `batch` requests, so each chunk is
/// one sub-batch whatever the worker count, and the partition-dependent
/// counters (config bursts) are deterministic.
fn serve_chunked(spec: EndpointSpec, workers: usize, batch: usize) -> EndpointReport {
    let n = spec.profile.invocation_count();
    let engine = ServeEngine::start(
        vec![spec],
        &ServeConfig {
            workers,
            batch,
            queue_depth: n,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let requests: Vec<Request> = (0..n)
        .map(|invocation| Request {
            endpoint: 0,
            invocation,
        })
        .collect();
    assert_eq!(engine.submit_batch(&requests).unwrap(), n);
    let report = engine.finish().unwrap();
    let snapshot = report.snapshot();
    assert!(
        snapshot.consistency_errors().is_empty(),
        "{:?}",
        snapshot.consistency_errors()
    );
    report.endpoints.into_iter().next().unwrap()
}

fn routed_spec(
    compiled: &Arc<Compiled>,
    routed: &Arc<RoutedCompiled>,
    member_profiles: &[DatasetProfile],
) -> EndpointSpec {
    EndpointSpec {
        name: "routed".into(),
        compiled: Arc::clone(compiled),
        profile: member_profiles.last().expect("non-empty pool").clone(),
        routed: Some(RoutedServeSpec {
            routed: Arc::clone(routed),
            member_profiles: member_profiles.to_vec(),
        }),
    }
}

#[test]
fn routed_serving_is_bit_identical_to_routed_simulate() {
    // A pool of three served through the sharded engine must reproduce
    // the sequential routed simulator bit for bit, and the per-route
    // counters must agree with its member accounting.
    let compiled = compiled_for("inversek2j");
    let routed = routed_for("inversek2j", 3);
    for seed in [41u64, 4242] {
        let member_profiles = member_profiles_for(&routed, seed);
        let refs: Vec<&DatasetProfile> = member_profiles.iter().collect();
        let expected = run_routed(&routed, &refs, &SimOptions::default()).unwrap();
        for (workers, batch) in [(1, 1), (3, 4)] {
            let (got, route_served) =
                serve_routed_once(&compiled, &routed, &member_profiles, workers, batch);
            assert_eq!(
                got, expected.run,
                "seed {seed}, {workers} workers, batch {batch} diverged \
                 from sequential run_routed"
            );
            let served_members: Vec<u64> = expected
                .member_invocations
                .iter()
                .map(|&m| m as u64)
                .collect();
            assert_eq!(route_served, served_members);
        }
    }

    // Batches at least the pool size mix members within a sub-batch: the
    // batched per-member accelerator pass and the config-burst rule must
    // leave the result bit-identical to `run_routed`.
    let member_profiles = member_profiles_for(&routed, 41);
    let refs: Vec<&DatasetProfile> = member_profiles.iter().collect();
    let expected = run_routed(&routed, &refs, &SimOptions::default()).unwrap();
    let dataset = member_profiles[0].dataset();
    let mut router = routed.router.clone();
    let routes: Vec<RouteChoice> = dataset
        .iter()
        .enumerate()
        .map(|(i, input)| router.classify_route(i, input))
        .collect();
    let image_bursts: Vec<u64> = routed
        .pool
        .members()
        .iter()
        .map(|member| {
            let (weights, biases) = member.npu().to_parameters();
            let words: Vec<u32> = weights.iter().chain(&biases).map(|w| w.to_bits()).collect();
            QueueInterface::new().stream_config(&words) as u64
        })
        .collect();
    for (workers, batch) in [(1, routed.pool.len()), (2, 32)] {
        assert!(batch >= routed.pool.len());
        let mut mixed_sub_batches = 0;
        let mut bursts = 0;
        for chunk in routes.chunks(batch) {
            let mut served: Vec<usize> = chunk.iter().filter_map(|r| r.member()).collect();
            let mut configured = None;
            for &m in &served {
                if configured != Some(m) {
                    bursts += image_bursts[m];
                    configured = Some(m);
                }
            }
            served.sort_unstable();
            served.dedup();
            if served.len() >= 2 {
                mixed_sub_batches += 1;
            }
        }
        assert!(
            mixed_sub_batches > 0,
            "batch {batch}: no sub-batch served two members"
        );
        let endpoint = serve_chunked(
            routed_spec(&compiled, &routed, &member_profiles),
            workers,
            batch,
        );
        assert_eq!(
            endpoint.result.expect("full coverage"),
            expected.run,
            "{workers} workers, batch {batch} diverged from run_routed"
        );
        let served_members: Vec<u64> = expected
            .member_invocations
            .iter()
            .map(|&m| m as u64)
            .collect();
        assert_eq!(endpoint.counters.route_served, served_members);
        assert_eq!(endpoint.counters.config_bursts, bursts, "batch {batch}");
    }
}

#[test]
fn routed_pool_of_one_serving_matches_binary_serving() {
    // The routing attachment with a pool of one must not perturb a single
    // bit relative to the plain binary endpoint.
    let compiled = compiled_for("sobel");
    let routed = routed_for("sobel", 1);
    assert_eq!(routed.pool.len(), 1);
    let member_profiles = member_profiles_for(&routed, 515);
    let binary = serve_once(&compiled, &member_profiles[0], 2, 4);
    let (routed_result, route_served) =
        serve_routed_once(&compiled, &routed, &member_profiles, 2, 4);
    assert_eq!(routed_result, binary);
    assert_eq!(route_served, vec![binary.invoked as u64]);

    // Counter for counter too, across worker counts and batch sizes.
    for workers in [1, 2, 4] {
        for batch in [1, 4, 32] {
            let binary = serve_chunked(
                EndpointSpec {
                    name: "binary".into(),
                    compiled: Arc::clone(&compiled),
                    profile: member_profiles[0].clone(),
                    routed: None,
                },
                workers,
                batch,
            );
            let pool = serve_chunked(
                routed_spec(&compiled, &routed, &member_profiles),
                workers,
                batch,
            );
            let at = format!("{workers} workers, batch {batch}");
            assert_eq!(pool.result, binary.result, "{at}");
            let (b, p) = (&binary.counters, &pool.counters);
            assert_eq!(p.served, b.served, "{at}");
            assert_eq!(p.approx, b.approx, "{at}");
            assert_eq!(p.fallback, b.fallback, "{at}");
            assert_eq!(p.config_bursts, b.config_bursts, "{at}");
            assert_eq!(p.latency, b.latency, "{at}");
            assert_eq!(p.route_served, b.route_served, "{at}");
            assert_eq!(p.route_served, vec![p.approx], "{at}");
        }
    }
}
