//! The headline claim, tested empirically: the Clopper–Pearson certified
//! success rate is a *conservative* floor for unseen-dataset behaviour.

use mithra::prelude::*;
use mithra_core::route::ApproximatorPool;
use mithra_core::threshold::ThresholdOptimizer;
use mithra_stats::clopper_pearson::{lower_bound, Confidence};
use std::sync::Arc;

#[test]
fn certified_rate_holds_on_unseen_datasets() {
    // Compile sobel at a moderate spec over 25 datasets, then check the
    // oracle-filtered quality on 40 unseen datasets: the fraction meeting
    // the target should not fall below the certified floor (with slack
    // for the small sample).
    let bench: Arc<_> = mithra::axbench::suite::by_name("sobel").unwrap().into();
    let mut config = CompileConfig::smoke();
    config.compile_datasets = 25;
    config.spec = QualitySpec::new(0.08, 0.90, 0.60).unwrap();
    let compiled = compile(bench, &config).unwrap();

    let scale = config.scale;
    let n = 40u64;
    let mut successes = 0;
    for seed in 0..n {
        let ds = compiled.function.dataset(7_000_000 + seed, scale);
        let profile = DatasetProfile::collect(&compiled.function, ds);
        let replay =
            profile.replay_with_threshold(&compiled.function, compiled.threshold.threshold);
        if replay.quality_loss <= config.spec.max_quality_loss {
            successes += 1;
        }
    }
    let empirical = f64::from(successes) / n as f64;
    assert!(
        empirical >= compiled.threshold.certified_rate - 0.15,
        "empirical {empirical:.2} far below certified {:.2}",
        compiled.threshold.certified_rate
    );
}

#[test]
fn certification_is_monotone_in_threshold() {
    let bench: Arc<_> = mithra::axbench::suite::by_name("inversek2j")
        .unwrap()
        .into();
    let config = CompileConfig::smoke();
    let compiled = compile(bench, &config).unwrap();
    let optimizer = ThresholdOptimizer::new(config.spec);
    // The binary function's probe is the mixture probe of its pool of one.
    let pool = ApproximatorPool::single(compiled.function.clone());
    let profiles = std::slice::from_ref(&compiled.profiles);

    let mut prev_successes = u64::MAX;
    for step in 0..5 {
        let th = compiled.threshold.threshold * (1.0 + step as f32 * 0.5);
        let s = optimizer
            .certify_routed(&pool, profiles, th)
            .unwrap()
            .successes;
        assert!(
            s <= prev_successes,
            "successes increased as the threshold loosened"
        );
        prev_successes = s;
    }
}

#[test]
fn paper_guarantee_arithmetic() {
    // The exact numbers behind the paper's §V-B1 statement: 235 of 250
    // validation sets passing certifies a 90% success rate at 95%
    // confidence.
    let beta = Confidence::new(0.95).unwrap();
    assert!(lower_bound(235, 250, beta).unwrap() >= 0.90);
    // And the guarantee really is conservative: the certified rate is
    // below the empirical 94%.
    assert!(lower_bound(235, 250, beta).unwrap() < 235.0 / 250.0);
}

#[test]
fn uncertifiable_specs_fail_loudly() {
    let bench: Arc<_> = mithra::axbench::suite::by_name("sobel").unwrap().into();
    let mut config = CompileConfig::smoke();
    config.compile_datasets = 5;
    // 5 datasets cannot certify 99% at 95% confidence no matter what.
    config.spec = QualitySpec::new(0.10, 0.95, 0.99).unwrap();
    let err = compile(bench, &config).unwrap_err();
    assert!(matches!(err, MithraError::Uncertifiable { .. }), "{err}");
}
