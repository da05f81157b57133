//! End-to-end compile-pipeline stage benchmarks (smoke scale).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_conform::{validate, ValidatorConfig};
use mithra_core::function::{AcceleratedFunction, NpuTrainConfig};
use mithra_core::pipeline::{compile, compile_routed, CompileConfig};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{ApproximatorPool, PoolSpec, RouterTrainer};
use mithra_core::threshold::{QualitySpec, ThresholdOptimizer};
use std::sync::Arc;

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

criterion_group!(
    pipeline,
    bench_profile_collection,
    bench_threshold_machinery,
    bench_replay,
    bench_conformance
);
criterion_main!(pipeline);
