//! End-to-end compile-pipeline stage benchmarks (smoke scale).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_conform::{validate, ValidatorConfig};
use mithra_core::function::{AcceleratedFunction, NpuTrainConfig};
use mithra_core::pipeline::{compile, compile_routed, CompileConfig, Compiled};
use mithra_core::profile::{default_threads, DatasetProfile};
use mithra_core::route::{ApproximatorPool, PoolSpec, RouterTrainer};
use mithra_core::seeds::SERVE_SEED_BASE;
use mithra_core::threshold::{QualitySpec, ThresholdOptimizer};
use mithra_serve::{EndpointSpec, ServeConfig, ServeEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn trained_sobel() -> AcceleratedFunction {
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let datasets: Vec<_> = (0..3)
        .map(|s| bench.dataset(s, DatasetScale::Smoke))
        .collect();
    AcceleratedFunction::train(
        bench,
        &datasets,
        &NpuTrainConfig {
            epochs: Some(20),
            max_samples: 1000,
            seed: 1,
        },
    )
    .unwrap()
}

fn bench_profile_collection(c: &mut Criterion) {
    let f = trained_sobel();
    let mut group = c.benchmark_group("profiling");
    group.sample_size(20);
    group.bench_function("collect_smoke_dataset", |b| {
        b.iter(|| {
            let ds = f.dataset(black_box(99), DatasetScale::Smoke);
            DatasetProfile::collect(&f, ds)
        })
    });
    group.finish();
}

fn bench_threshold_machinery(c: &mut Criterion) {
    let f = trained_sobel();
    let profiles: Vec<DatasetProfile> = (100..120)
        .map(|s| DatasetProfile::collect(&f, f.dataset(s, DatasetScale::Smoke)))
        .collect();
    let spec = QualitySpec::new(0.10, 0.9, 0.5).unwrap();
    let optimizer = ThresholdOptimizer::new(spec);
    let pool = ApproximatorPool::single(f);
    let table = std::slice::from_ref(&profiles);

    let mut group = c.benchmark_group("threshold");
    group.sample_size(20);
    group.bench_function("certify_one_candidate", |b| {
        b.iter(|| {
            optimizer
                .certify_routed(&pool, black_box(table), 0.05)
                .unwrap()
        })
    });
    group.bench_function("optimize_bisection_20_datasets", |b| {
        b.iter(|| optimizer.bisect_routed(&pool, black_box(table)).unwrap())
    });

    // The routed session's certification: a router trainer prepared for
    // the tiered pool, then the deployed bisection over it.
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let config = CompileConfig::smoke();
    let tiered = PoolSpec::tiered(&bench.npu_topology());
    let routed = compile_routed(bench, &config, &tiered).unwrap();
    let deployed = ThresholdOptimizer::new(config.spec).with_threads(config.threads);
    group.bench_function("optimize_routed_deployed_tiered", |b| {
        b.iter(|| {
            let profiles = black_box(&routed.member_profiles);
            let mut trainer = RouterTrainer::new(
                &tiered,
                profiles,
                &config.table_design,
                config.classifier_train_samples,
                config.seed_base ^ 0x7261_696E,
                config.threads,
            )
            .unwrap();
            deployed
                .optimize_routed_deployed(&routed.pool, profiles, |t| trainer.train(t))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let f = trained_sobel();
    let profile = DatasetProfile::collect(&f, f.dataset(7, DatasetScale::Smoke));
    c.bench_function("replay_with_threshold", |b| {
        b.iter(|| profile.replay_with_threshold(&f, black_box(0.05)))
    });
}

/// Unseen trials per timed `validate` call.
const CONFORMANCE_TRIALS: usize = 24;

fn bench_conformance(c: &mut Criterion) {
    // One deployed trial per unseen dataset on one thread: generate,
    // route, run the precise function and the routed accelerator, score.
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let config = CompileConfig::smoke();
    let compiled = compile(bench, &config).unwrap();
    let validator = ValidatorConfig {
        trials: CONFORMANCE_TRIALS,
        scale: DatasetScale::Smoke,
        threads: Some(1),
        ..ValidatorConfig::default()
    };
    let mut group = c.benchmark_group("conformance");
    group.sample_size(20);
    group.bench_function(format!("validate_{CONFORMANCE_TRIALS}_smoke_trials"), |b| {
        b.iter(|| validate(&compiled, &config.spec, black_box(&validator)).unwrap())
    });
    group.finish();
}

/// Served datasets per artifact in the engine-start benchmark.
const START_DATASETS_PER_ARTIFACT: u64 = 4;

fn bench_serve_start(c: &mut Criterion) {
    // 24 guarded endpoints, four per smoke-compiled artifact. The first
    // start in the process runs its workers on new threads; later starts
    // find those threads parked.
    let config = CompileConfig::smoke();
    let mut endpoints: Vec<(Arc<Compiled>, DatasetProfile)> = Vec::new();
    for name in [
        "blackscholes",
        "fft",
        "inversek2j",
        "jmeint",
        "jpeg",
        "sobel",
    ] {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        let compiled = Arc::new(compile(bench, &config).unwrap());
        for k in 0..START_DATASETS_PER_ARTIFACT {
            let dataset = compiled
                .function
                .dataset(SERVE_SEED_BASE + k, DatasetScale::Smoke);
            let profile = DatasetProfile::collect(&compiled.function, dataset);
            endpoints.push((Arc::clone(&compiled), profile));
        }
    }
    // Workers resolved once, as a `--threads` default is: `workers: 0`
    // would query the host's parallelism inside every timed start.
    let serve = ServeConfig {
        workers: default_threads(),
        watchdog_period: 16,
        ..ServeConfig::default()
    };
    // Only `start` is timed; building the specs and joining the engine
    // stay off the clock.
    let mut starts = |iters: u64| {
        let mut timed = Duration::ZERO;
        for _ in 0..iters {
            let specs = endpoints
                .iter()
                .enumerate()
                .map(|(i, (compiled, profile))| EndpointSpec {
                    name: format!("endpoint-{i}"),
                    compiled: Arc::clone(compiled),
                    profile: profile.clone(),
                    routed: None,
                })
                .collect();
            let t0 = Instant::now();
            let engine = ServeEngine::start(specs, &serve).unwrap();
            timed += t0.elapsed();
            engine.join().unwrap();
        }
        timed
    };
    let mut group = c.benchmark_group("serve_start");
    group.sample_size(1);
    group.bench_function("guarded_24_endpoints_first_in_process", |b| {
        b.iter_custom(&mut starts)
    });
    group.sample_size(500);
    group.bench_function("guarded_24_endpoints_warmed_threads", |b| {
        b.iter_custom(&mut starts)
    });
    group.finish();
}

criterion_group!(
    pipeline,
    bench_serve_start,
    bench_profile_collection,
    bench_threshold_machinery,
    bench_replay,
    bench_conformance
);
criterion_main!(pipeline);
