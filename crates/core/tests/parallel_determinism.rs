//! Thread-count invariance of the parallel compile-path sweeps.
//!
//! The compile pipeline parallelizes three independent axes — the neural
//! hidden-topology sweep, the table `(levels, vote)` candidate grid, and
//! per-profile certification replay. Each worker runs an independent
//! candidate with its own scratch state and results are folded in the
//! original candidate order, so every artifact must be **bit-identical**
//! at any thread count. These tests pin that: threads 1 through 4 (and
//! "available parallelism") must produce byte-equal classifiers and
//! thresholds. A failure here means a reduction order leaked across the
//! thread boundary — which would silently break artifact-cache
//! interchangeability and reproducible results.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::suite;
use mithra_core::neural::NeuralClassifier;
use mithra_core::pipeline::{compile, compile_routed, quantizer_from_profiles, CompileConfig};
use mithra_core::route::{
    generate_route_training_data, ApproximatorPool, PoolSpec, RouteClassifier, RouterKind,
    RouterTrainer,
};
use mithra_core::table::TableClassifier;
use mithra_core::threshold::ThresholdOptimizer;
use std::sync::Arc;

/// Thread counts to sweep: sequential baseline, several bounded pools,
/// and the host default.
const THREADS: [Option<usize>; 5] = [Some(1), Some(2), Some(3), Some(4), None];

#[test]
fn parallel_sweeps_are_bit_identical_across_thread_counts() {
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let config = CompileConfig::smoke();
    let compiled = compile(bench, &config).unwrap();

    // Neural hidden-topology sweep: each candidate trains on its own
    // worker; the winner is selected by an in-order fold.
    let baseline_neural = NeuralClassifier::train_with_threads(
        compiled.function.benchmark().input_dim(),
        &compiled.training_data,
        &config.neural,
        Some(1),
    )
    .unwrap();
    let baseline_json = serde_json::to_string(&baseline_neural).unwrap();
    for threads in THREADS {
        let candidate = NeuralClassifier::train_with_threads(
            compiled.function.benchmark().input_dim(),
            &compiled.training_data,
            &config.neural,
            threads,
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&candidate).unwrap(),
            baseline_json,
            "neural classifier diverged at threads={threads:?}"
        );
    }

    // Table (levels, vote) candidate grid: per-levels quantized grids are
    // shared read-only; scores fold in levels-major candidate order.
    let quantizer = quantizer_from_profiles(&compiled.profiles);
    let baseline_table = TableClassifier::train_with_threads(
        config.table_design,
        quantizer.clone(),
        &compiled.training_data,
        Some(1),
    )
    .unwrap();
    for threads in THREADS {
        let candidate = TableClassifier::train_with_threads(
            config.table_design,
            quantizer.clone(),
            &compiled.training_data,
            threads,
        )
        .unwrap();
        assert_eq!(
            candidate, baseline_table,
            "table classifier diverged at threads={threads:?}"
        );
    }

    // Certification replay: per-profile replays run on workers; success
    // counts and the invocation-rate sums fold in profile order. The
    // binary function certifies as the pool of one.
    let pool = ApproximatorPool::single(compiled.function.clone());
    let profiles = std::slice::from_ref(&compiled.profiles);
    let baseline_outcome = ThresholdOptimizer::new(config.spec)
        .with_threads(Some(1))
        .optimize_routed(&pool, profiles)
        .unwrap();
    assert_eq!(baseline_outcome, compiled.threshold);
    let baseline_probe = ThresholdOptimizer::new(config.spec)
        .with_threads(Some(1))
        .certify_routed(&pool, profiles, baseline_outcome.threshold)
        .unwrap();
    for threads in THREADS {
        let outcome = ThresholdOptimizer::new(config.spec)
            .with_threads(threads)
            .optimize_routed(&pool, profiles)
            .unwrap();
        assert_eq!(
            outcome, baseline_outcome,
            "certified threshold diverged at threads={threads:?}"
        );
        let probe = ThresholdOptimizer::new(config.spec)
            .with_threads(threads)
            .certify_routed(&pool, profiles, baseline_outcome.threshold)
            .unwrap();
        assert_eq!(probe, baseline_probe);
    }
}

#[test]
fn routed_artifacts_are_bit_identical_across_thread_counts() {
    // The routed branch adds three parallel stages on top of the binary
    // ones — pool training, routed-mixture certification, router
    // training. The whole routed compile must still be bit-identical at
    // any thread count: same certified mixture threshold, same router
    // bytes, same member weights.
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let spec = PoolSpec::sized(&bench.npu_topology(), 3);
    let routed_at = |threads: Option<usize>| {
        let config = CompileConfig {
            threads,
            ..CompileConfig::smoke()
        };
        compile_routed(Arc::clone(&bench), &config, &spec).unwrap()
    };
    let baseline = routed_at(Some(1));
    let baseline_router = serde_json::to_string(&baseline.router).unwrap();
    for threads in THREADS {
        let candidate = routed_at(threads);
        assert_eq!(
            candidate.threshold, baseline.threshold,
            "routed threshold diverged at threads={threads:?}"
        );
        assert_eq!(
            serde_json::to_string(&candidate.router).unwrap(),
            baseline_router,
            "router diverged at threads={threads:?}"
        );
        for (m, (c, b)) in candidate
            .pool
            .members()
            .iter()
            .zip(baseline.pool.members())
            .enumerate()
        {
            assert_eq!(
                c.npu().to_parameters(),
                b.npu().to_parameters(),
                "pool member {m} diverged at threads={threads:?}"
            );
        }

        // The deployed routed optimizer itself — the certification a
        // multi-member compile runs — re-run over the baseline's member
        // profiles at this thread count, with one prepared trainer
        // relabeled at every probe.
        let config = CompileConfig::smoke();
        let mut trainer = RouterTrainer::new(
            &spec,
            &baseline.member_profiles,
            &config.table_design,
            config.classifier_train_samples,
            config.seed_base ^ 0x7261_696E,
            threads,
        )
        .unwrap();
        let outcome = ThresholdOptimizer::new(config.spec)
            .with_threads(threads)
            .optimize_routed_deployed(&baseline.pool, &baseline.member_profiles, |t| {
                trainer.train(t)
            })
            .unwrap();
        assert_eq!(
            outcome, baseline.threshold,
            "optimize_routed_deployed diverged at threads={threads:?}"
        );
    }
}

#[test]
fn kary_router_training_is_bit_identical_across_thread_counts() {
    // The design-space explorer sweeps the router axis, so the K-ary
    // neural router — the one truly parallel router variant — must be as
    // thread-invariant as the cascade: same labeled examples, byte-equal
    // trained router at every thread count.
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let config = CompileConfig::smoke();
    let spec =
        PoolSpec::sized(&bench.npu_topology(), 2).with_router(RouterKind::kary_neural_default());
    let routed = compile_routed(Arc::clone(&bench), &config, &spec).unwrap();
    let threshold = routed.threshold.threshold;

    // Labeled route examples are a sequential shuffle-truncate: the
    // thread count never enters.
    let baseline_examples = generate_route_training_data(
        &routed.member_profiles,
        threshold,
        &spec,
        config.classifier_train_samples,
        config.seed_base ^ 0x7261_696E,
    );
    assert!(!baseline_examples.is_empty());

    let router_at = |threads: Option<usize>| {
        RouteClassifier::train_for_spec(
            &spec,
            &routed.member_profiles,
            threshold,
            &config.table_design,
            config.classifier_train_samples,
            config.seed_base ^ 0x7261_696E,
            threads,
        )
        .unwrap()
    };
    let baseline = serde_json::to_string(&router_at(Some(1))).unwrap();
    for threads in THREADS {
        assert_eq!(
            serde_json::to_string(&router_at(threads)).unwrap(),
            baseline,
            "K-ary neural router diverged at threads={threads:?}"
        );
    }
}
