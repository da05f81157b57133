//! The predictor's memoized mini-threshold search against a memo-free
//! reference.
//!
//! `ProbeSet::predict` reuses an earlier probe's replay when every member
//! accepts as many invocations at its margined threshold as at an earlier
//! probe. That is only sound if a reused probe is exactly what replaying
//! afresh would give. So the predictor's 16-midpoint loop, run with every
//! probe replayed and its result replayed once more at the last passing
//! threshold, must agree with `predict` on every probe threshold, every
//! probe and the prediction, for every candidate of the smoke design
//! space, margined ones included.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::suite;
use mithra_core::pipeline::CompileConfig;
use mithra_core::route::PoolSpec;
use mithra_explore::{DesignSpace, Prediction, ProbeSet};
use std::sync::Arc;

/// The predictor's bisection with every probe replayed afresh: 16
/// midpoints of `[0, largest observed error]`, then the prediction
/// replayed at the last passing threshold (0 when none passed). Returns
/// the probes — the fallback replay at 0 among them, as `predict` logs
/// it — and the prediction.
fn reference_predict(
    probes: &ProbeSet,
    spec: &PoolSpec,
    quality_target: f64,
    target_rate: f64,
) -> (Vec<Prediction>, Prediction) {
    let mut hi = 0f32;
    for profiles in probes.member_profiles(spec).unwrap() {
        for profile in profiles {
            for &e in profile.errors() {
                hi = hi.max(e);
            }
        }
    }
    let mut log = Vec::new();
    let mut lo = 0f32;
    for _ in 0..16 {
        let mid = (lo + hi) / 2.0;
        let probe = probes.replay_at(spec, mid, quality_target).unwrap();
        log.push(probe);
        if probe.probe_success >= target_rate {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let prediction = probes.replay_at(spec, lo, quality_target).unwrap();
    if lo == 0.0 {
        log.push(prediction);
    }
    (log, prediction)
}

#[test]
fn predict_matches_the_fresh_bisection() {
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let config = CompileConfig::smoke();
    let enumerated = DesignSpace::smoke().enumerate(&bench.npu_topology());
    assert!(enumerated.iter().any(|(_, s)| !s.margins.is_empty()));
    let mut topologies = Vec::new();
    for t in enumerated.iter().flat_map(|(_, s)| &s.topologies) {
        if !topologies.contains(t) {
            topologies.push(t.clone());
        }
    }
    let probes = ProbeSet::build(&bench, &config, topologies, 2, 4).unwrap();
    let (q, rate) = (config.spec.max_quality_loss, config.spec.success_rate);
    for (candidate, spec) in &enumerated {
        let what = candidate.label();
        let memoized = probes.predict(spec, q, rate).unwrap();
        let (log, prediction) = reference_predict(&probes, spec, q, rate);
        let thresholds = |p: &[Prediction]| p.iter().map(|p| p.mini_threshold).collect::<Vec<_>>();
        assert_eq!(thresholds(&memoized.probes), thresholds(&log), "{what}");
        assert_eq!(memoized.probes, log, "{what}");
        assert_eq!(memoized.outcome, prediction, "{what}");
        assert!(memoized.reused > 0, "{what}: no probe reused a replay");
        assert!(memoized.reused < memoized.probes.len(), "{what}");
    }
}
