//! The memoized threshold search against a memo-free reference.
//!
//! `ThresholdOptimizer` reuses an earlier probe's certificate when a probe
//! labels the compile invocations the same way, and `RouterTrainer`
//! reuses a classifier it trained for the same labels of its sample. Both
//! are only sound if a reused result is exactly what the probe would have
//! computed. So a reference bisection that trains every router cold and
//! certifies every probe afresh must agree with the memoized optimizers
//! on the probe thresholds, on every probe's outcome and on the final
//! one: for the pool of one, the tiered cascade with and without labeling
//! margins, and the K-ary neural router, at one and two threads.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::suite;
use mithra_core::pipeline::{compile_routed, CompileConfig};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{
    ApproximatorPool, PoolSpec, RouteClassifier, RoutedCompiled, RouterKind, RouterTrainer,
};
use mithra_core::threshold::{Bisection, ThresholdOptimizer, ThresholdOutcome};
use std::sync::Arc;

const SEED: u64 = 0x7261_696E;
const THREADS: [Option<usize>; 2] = [Some(1), Some(2)];

/// Algorithm 1's bisection with every probe run afresh: the origin, the
/// largest observed error, then 24 midpoints. Returns every probe's
/// outcome and the result (`None` when the origin does not certify).
fn reference_bisection(
    config: &CompileConfig,
    member_profiles: &[Vec<DatasetProfile>],
    mut probe: impl FnMut(f32) -> ThresholdOutcome,
) -> (Vec<ThresholdOutcome>, Option<ThresholdOutcome>) {
    let required = config.spec.success_rate;
    let max_err = member_profiles
        .iter()
        .flatten()
        .flat_map(|p| p.errors().iter().copied())
        .fold(0.0f32, f32::max)
        .max(1e-6);
    let mut probes = Vec::new();
    let mut run = |t: f32| {
        let outcome = probe(t);
        probes.push(outcome.clone());
        outcome
    };
    let origin = run(0.0);
    if origin.certified_rate < required {
        return (probes, None);
    }
    let loosest = run(max_err);
    if loosest.certified_rate >= required {
        return (probes, Some(loosest));
    }
    let (mut lo, mut hi) = (0.0f32, max_err);
    let mut best = origin;
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let outcome = run(mid);
        if outcome.certified_rate >= required {
            best = outcome;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (probes, Some(best))
}

/// Asserts the memoized search equals the reference probe for probe, and
/// that it reused at least one certificate (else the memo went untested).
fn assert_matches(
    what: &str,
    memoized: &Bisection,
    reference: &(Vec<ThresholdOutcome>, Option<ThresholdOutcome>),
) {
    let (probes, outcome) = reference;
    let thresholds = |p: &[ThresholdOutcome]| p.iter().map(|o| o.threshold).collect::<Vec<_>>();
    assert_eq!(
        thresholds(&memoized.probes),
        thresholds(probes),
        "{what}: probe thresholds"
    );
    for (i, (m, r)) in memoized.probes.iter().zip(probes).enumerate() {
        assert_eq!(m, r, "{what}: probe {i}");
    }
    assert_eq!(Some(&memoized.outcome), outcome.as_ref(), "{what}: result");
    assert!(memoized.reused > 0, "{what}: no probe reused a certificate");
    assert!(memoized.reused < memoized.probes.len(), "{what}");
}

/// The smoke sobel tiered pool, compiled once for every case.
fn tiered_sobel() -> (CompileConfig, PoolSpec, RoutedCompiled) {
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let config = CompileConfig::smoke();
    let tiered = PoolSpec::tiered(&bench.npu_topology());
    let routed = compile_routed(bench, &config, &tiered).unwrap();
    assert!(routed.pool.len() > 1, "sobel's tiers stay distinct");
    (config, tiered, routed)
}

/// The deployed search for `spec` with a prepared trainer, against cold
/// `train_for_spec` routers certified afresh at every probe. The routers
/// each side trains must agree too.
fn check_deployed(
    what: &str,
    config: &CompileConfig,
    spec: &PoolSpec,
    pool: &ApproximatorPool,
    member_profiles: &[Vec<DatasetProfile>],
) {
    let samples = config.classifier_train_samples;
    for threads in THREADS {
        let what = format!("{what} at threads={threads:?}");
        let optimizer = ThresholdOptimizer::new(config.spec).with_threads(threads);
        let mut trainer = RouterTrainer::new(
            spec,
            member_profiles,
            &config.table_design,
            samples,
            SEED,
            threads,
        )
        .unwrap();
        let mut routers = Vec::new();
        let memoized = optimizer
            .bisect_routed_deployed(pool, member_profiles, |t| {
                let router = trainer.train(t)?;
                routers.push(router.clone());
                Ok(router)
            })
            .unwrap();
        let mut cold: Vec<RouteClassifier> = Vec::new();
        let reference = reference_bisection(config, member_profiles, |t| {
            let router = RouteClassifier::train_for_spec(
                spec,
                member_profiles,
                t,
                &config.table_design,
                samples,
                SEED,
                threads,
            )
            .unwrap();
            let outcome = optimizer
                .certify_routed_deployed(pool, member_profiles, &router, t)
                .unwrap();
            cold.push(router);
            outcome
        });
        assert_matches(&what, &memoized, &reference);
        assert!(routers == cold, "{what}: a memoized router differs");
    }
}

/// The oracle search against `certify_routed` at every probe.
fn check_oracle(
    what: &str,
    config: &CompileConfig,
    pool: &ApproximatorPool,
    member_profiles: &[Vec<DatasetProfile>],
) {
    for threads in THREADS {
        let what = format!("{what} at threads={threads:?}");
        let optimizer = ThresholdOptimizer::new(config.spec).with_threads(threads);
        let memoized = optimizer.bisect_routed(pool, member_profiles).unwrap();
        let reference = reference_bisection(config, member_profiles, |t| {
            optimizer.certify_routed(pool, member_profiles, t).unwrap()
        });
        assert_matches(&what, &memoized, &reference);
        assert_eq!(
            optimizer.optimize_routed(pool, member_profiles).unwrap(),
            memoized.outcome,
            "{what}"
        );
    }
}

#[test]
fn pool_of_one_matches_the_fresh_bisection() {
    let (config, _, routed) = tiered_sobel();
    let pool = ApproximatorPool::single(routed.pool.accurate().clone());
    let profiles = vec![routed.member_profiles.last().unwrap().clone()];
    check_oracle("pool of one", &config, &pool, &profiles);
    let single = PoolSpec::single(pool.topologies()[0].clone());
    check_deployed("deployed pool of one", &config, &single, &pool, &profiles);
}

#[test]
fn tiered_cascade_matches_the_fresh_bisection() {
    let (config, tiered, routed) = tiered_sobel();
    let (pool, profiles) = (&routed.pool, &routed.member_profiles);
    check_oracle("tiered oracle", &config, pool, profiles);
    check_deployed("tiered cascade", &config, &tiered, pool, profiles);
    let margined = tiered.with_margins(vec![0.75, 0.9, 1.0]);
    check_deployed("margined cascade", &config, &margined, pool, profiles);
}

#[test]
fn kary_neural_router_matches_the_fresh_bisection() {
    let (config, tiered, routed) = tiered_sobel();
    let neural = tiered.with_router(RouterKind::kary_neural_default());
    check_deployed(
        "K-ary neural",
        &config,
        &neural,
        &routed.pool,
        &routed.member_profiles,
    );
}
