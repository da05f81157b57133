//! The memoized threshold search against a memo-free reference.
//!
//! `ThresholdOptimizer` reuses an earlier probe's certificate when a probe
//! labels the compile invocations the same way, the tuple search reuses a
//! region's replays when a probe accepts as many of its invocations, and
//! `RouterTrainer` reuses a classifier it trained for the same labels of
//! its sample. Each is only sound if a reused result is exactly what the
//! probe would have computed. So a reference search that trains every
//! router cold and certifies every probe afresh must agree with the
//! memoized one on the probe thresholds, on every probe's outcome and on
//! the final one: for the pool of one, the tiered cascade with and
//! without labeling margins, and the K-ary neural router, at one and two
//! threads, and for the two-region tuple search. A proptest pins the
//! generic [`MemoBisection`] itself against a naive loop.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_core::function::{AcceleratedFunction, NpuTrainConfig};
use mithra_core::multi::{Region, TupleOptimizer, TupleOutcome};
use mithra_core::pipeline::{compile_routed, CompileConfig};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{
    ApproximatorPool, PoolSpec, RouteClassifier, RoutedCompiled, RouterKind, RouterTrainer,
};
use mithra_core::threshold::{
    Bisection, MemoBisection, Probe, QualitySpec, ThresholdOptimizer, ThresholdOutcome,
};
use mithra_stats::clopper_pearson::lower_bound;
use proptest::prelude::*;
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

/// The two smoke regions of `tests/extensions.rs`: sobel and inversek2j.
fn smoke_regions() -> Vec<Region> {
    ["sobel", "inversek2j"]
        .iter()
        .map(|name| {
            let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
            let train: Vec<_> = (0..2)
                .map(|s| bench.dataset(s, DatasetScale::Smoke))
                .collect();
            let config = NpuTrainConfig {
                epochs: Some(25),
                max_samples: 1200,
                seed: 2,
            };
            let function = AcceleratedFunction::train(bench, &train, &config).unwrap();
            let profiles = (0..15)
                .map(|s| {
                    DatasetProfile::collect(
                        &function,
                        function.dataset(600 + s, DatasetScale::Smoke),
                    )
                })
                .collect();
            Region {
                function,
                profiles,
                weight: 1.0,
            }
        })
        .collect()
}

/// The greedy tuple search with every probe replayed afresh: per region in
/// benefit order, the largest observed error, then 20 midpoints, falling
/// back to threshold 0. Returns the outcome with every probe's threshold.
fn reference_tuple(spec: &QualitySpec, regions: &[Region]) -> TupleOutcome {
    let replay = |r: usize, t: f32| {
        let region = &regions[r];
        let replays: Vec<_> = (region.profiles.iter())
            .map(|p| p.replay_with_threshold(&region.function, t))
            .collect();
        let rate = replays.iter().map(|o| o.invocation_rate()).sum::<f64>();
        let qualities: Vec<f64> = replays.iter().map(|o| o.quality_loss).collect();
        (qualities, rate / replays.len() as f64)
    };
    let certify = |qualities: &[Vec<f64>]| {
        let total: f64 = regions.iter().map(|r| r.weight).sum();
        let n = qualities[0].len();
        let joint = |d: usize| {
            let weighted = regions.iter().zip(qualities).map(|(r, q)| r.weight * q[d]);
            weighted.sum::<f64>() / total
        };
        let successes = (0..n)
            .filter(|&d| joint(d) <= spec.max_quality_loss)
            .count() as u64;
        let bound = lower_bound(successes, n as u64, spec.confidence).unwrap();
        (successes, bound)
    };
    let mut qualities: Vec<Vec<f64>> = (0..regions.len()).map(|r| replay(r, -1.0).0).collect();
    assert!(certify(&qualities).1 >= spec.success_rate);
    let benefit = |r: &Region| {
        r.profiles[0].invocation_count() as f64
            * r.function.benchmark().profile().kernel_cycles as f64
    };
    let mut order: Vec<usize> = (0..regions.len()).collect();
    order.sort_by(|&a, &b| benefit(&regions[b]).total_cmp(&benefit(&regions[a])));
    let mut outcome = TupleOutcome {
        thresholds: vec![0.0; regions.len()],
        successes: 0,
        trials: qualities[0].len() as u64,
        certified_rate: 0.0,
        invocation_rates: vec![0.0; regions.len()],
        probes: Vec::new(),
        reused: 0,
    };
    for &r in &order {
        // (threshold, region qualities, invocation rate, successes, bound)
        let mut probe = |threshold: f32| {
            let (mine, invocation_rate) = replay(r, threshold);
            let mut joint = qualities.clone();
            joint[r] = mine.clone();
            let (successes, bound) = certify(&joint);
            outcome.probes.push(threshold);
            (threshold, mine, invocation_rate, successes, bound)
        };
        let max_err = regions[r]
            .profiles
            .iter()
            .flat_map(|p| p.errors().iter().copied())
            .fold(0.0f32, f32::max)
            .max(1e-6);
        let mut chosen = probe(max_err);
        if chosen.4 < spec.success_rate {
            let (mut lo, mut hi) = (0.0f32, max_err);
            let mut best = None;
            for _ in 0..20 {
                let mid = 0.5 * (lo + hi);
                let p = probe(mid);
                if p.4 >= spec.success_rate {
                    best = Some(p);
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            chosen = best.unwrap_or_else(|| probe(0.0));
        }
        let (threshold, mine, invocation_rate, successes, bound) = chosen;
        outcome.thresholds[r] = threshold;
        outcome.invocation_rates[r] = invocation_rate;
        (outcome.successes, outcome.certified_rate) = (successes, bound);
        qualities[r] = mine;
    }
    outcome
}

#[test]
fn tuple_search_matches_the_fresh_search() {
    let regions = smoke_regions();
    let spec = QualitySpec::new(0.12, 0.9, 0.5).unwrap();
    let memoized = TupleOptimizer::new(spec).optimize(&regions).unwrap();
    let reference = reference_tuple(&spec, &regions);
    assert_eq!(memoized.probes, reference.probes, "probe thresholds");
    assert!(memoized.reused > 0, "no probe reused a region's replays");
    assert!(memoized.reused < memoized.probes.len());
    assert_eq!(
        memoized,
        TupleOutcome {
            reused: memoized.reused,
            ..reference
        }
    );
}

/// A probe outcome for the generic search: the threshold it was taken at
/// and its key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stamped {
    threshold: f32,
    key: usize,
}

impl Probe for Stamped {
    fn at(&self, threshold: f32) -> Self {
        Self { threshold, ..*self }
    }
}

proptest! {
    /// The memoized bisection against a naive loop that probes every
    /// threshold afresh. Keys are a step function of the threshold, so
    /// midpoints repeat them, and the pass test depends on the key alone.
    #[test]
    fn memo_bisection_matches_a_naive_loop(
        steps in prop::collection::vec(0.0f32..1.0, 0..12),
        pass in prop::collection::vec(any::<bool>(), 13),
        iterations in 0u32..30,
        hi in 0.01f32..1.0,
    ) {
        let key = |t: f32| steps.iter().filter(|&&s| s <= t).count();
        let passes = |p: &Stamped| pass[p.key];
        let mut search = MemoBisection::new(
            |t| Ok(key(t)),
            |&key, threshold| Ok(Stamped { threshold, key }),
        );
        let origin = search.probe(0.0).unwrap();
        let best = search.bisect(0.0..hi, iterations, passes).unwrap();
        let memoized = search.finish(best.unwrap_or(origin));

        let fresh = |threshold: f32| Stamped { threshold, key: key(threshold) };
        let mut naive = vec![fresh(0.0)];
        let (mut lo, mut top, mut best) = (0.0f32, hi, None);
        for _ in 0..iterations {
            let mid = 0.5 * (lo + top);
            naive.push(fresh(mid));
            if pass[key(mid)] {
                best = Some(fresh(mid));
                lo = mid;
            } else {
                top = mid;
            }
        }
        let mut keys: Vec<usize> = naive.iter().map(|p| p.key).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(&memoized.probes, &naive);
        prop_assert_eq!(memoized.outcome, best.unwrap_or(naive[0]));
        prop_assert_eq!(memoized.reused, naive.len() - keys.len());
    }
}
