//! The prepared router trainer against cold builds.
//!
//! `RouterTrainer` builds a cascade stage's sample, quantizer and hash
//! rows once and relabels them per threshold. That is only sound if
//! nothing it keeps depends on the threshold, so at every probe of a
//! deployed bisection the reused trainer must serialize byte-equal to a
//! from-scratch `RouteClassifier::train_for_spec` and to the per-stage
//! cold build (label, fit the quantizer, train the table) it replaced —
//! with and without labeling margins, and below the 8 samples where
//! table training skips its hold-out grid.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::suite;
use mithra_core::pipeline::{compile_routed, quantizer_from_profiles, CompileConfig};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{PoolSpec, RouteClassifier, RouterTrainer};
use mithra_core::table::{TableClassifier, TableDesign};
use mithra_core::threshold::ThresholdOptimizer;
use mithra_core::training::generate_training_data;
use std::sync::Arc;

const SEED: u64 = 0x7261_696E;

/// The per-stage cold cascade build: label member `m`'s profiles at its
/// margined threshold, fit its quantizer, train its table.
fn cold_cascade(
    spec: &PoolSpec,
    member_profiles: &[Vec<DatasetProfile>],
    threshold: f32,
    design: &TableDesign,
    max_samples: usize,
) -> RouteClassifier {
    let stages = member_profiles
        .iter()
        .enumerate()
        .map(|(m, profiles)| {
            let stage_threshold = threshold * spec.margin_for(m) as f32;
            let examples =
                generate_training_data(profiles, stage_threshold, max_samples, SEED ^ m as u64);
            let quantizer = quantizer_from_profiles(profiles);
            TableClassifier::train_with_threads(*design, quantizer, &examples, Some(2)).unwrap()
        })
        .collect();
    RouteClassifier::from_stages(stages)
}

#[test]
fn prepared_trainer_matches_cold_builds_at_every_probe() {
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let config = CompileConfig::smoke();
    let tiered = PoolSpec::tiered(&bench.npu_topology());
    let routed = compile_routed(Arc::clone(&bench), &config, &tiered).unwrap();
    let profiles = &routed.member_profiles;
    let design = config.table_design;
    let samples = config.classifier_train_samples;

    // The probe thresholds of the session's own deployed bisection.
    let mut trainer =
        RouterTrainer::new(&tiered, profiles, &design, samples, SEED, Some(2)).unwrap();
    let mut probes = Vec::new();
    let outcome = ThresholdOptimizer::new(config.spec)
        .optimize_routed_deployed(&routed.pool, profiles, |t| {
            probes.push(t);
            trainer.train(t)
        })
        .unwrap();
    assert_eq!(outcome, routed.threshold);
    assert_eq!(probes[0], 0.0, "the bisection starts at threshold 0");
    assert!(probes.len() > 2, "a smoke bisection probes midpoints");

    let margined = tiered.clone().with_margins(vec![0.75, 0.9, 1.0]);
    for (spec, max_samples) in [(&tiered, samples), (&margined, samples), (&margined, 5)] {
        let mut trainer =
            RouterTrainer::new(spec, profiles, &design, max_samples, SEED, Some(2)).unwrap();
        for &t in &probes {
            let prepared = serde_json::to_string(&trainer.train(t).unwrap()).unwrap();
            let fresh = RouteClassifier::train_for_spec(
                spec,
                profiles,
                t,
                &design,
                max_samples,
                SEED,
                Some(1),
            )
            .unwrap();
            let cold = cold_cascade(spec, profiles, t, &design, max_samples);
            let what = format!(
                "threshold {t} margins {:?} samples {max_samples}",
                spec.margins
            );
            assert_eq!(prepared, serde_json::to_string(&fresh).unwrap(), "{what}");
            assert_eq!(prepared, serde_json::to_string(&cold).unwrap(), "{what}");
        }
    }
}
