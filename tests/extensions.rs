//! Integration tests for the paper's extension features: multi-function
//! threshold tuples and the Rumba-style comparison designs, all behind the
//! shared classifier interface.

use mithra::prelude::*;
use mithra_core::function::NpuTrainConfig;
use mithra_core::multi::{Region, TupleOptimizer};
use mithra_core::regression::{RegressionFilter, RegressionTrainConfig};
use mithra_core::tree::{TreeClassifier, TreeTrainConfig};
use mithra_sim::system::simulate;
use std::sync::Arc;

fn compiled_smoke(name: &str) -> Compiled {
    let bench: Arc<_> = mithra::axbench::suite::by_name(name).unwrap().into();
    compile(bench, &CompileConfig::smoke()).unwrap()
}

#[test]
fn tuple_optimizer_certifies_a_two_region_application() {
    let scale = mithra::axbench::dataset::DatasetScale::Smoke;
    let regions: Vec<Region> = ["sobel", "inversek2j"]
        .iter()
        .map(|name| {
            let bench: Arc<dyn mithra::axbench::benchmark::Benchmark> =
                mithra::axbench::suite::by_name(name).unwrap().into();
            let train: Vec<_> = (0..2).map(|s| bench.dataset(s, scale)).collect();
            let function = AcceleratedFunction::train(
                bench,
                &train,
                &NpuTrainConfig {
                    epochs: Some(25),
                    max_samples: 1200,
                    seed: 2,
                },
            )
            .unwrap();
            let profiles = (0..15)
                .map(|s| DatasetProfile::collect(&function, function.dataset(600 + s, scale)))
                .collect();
            Region {
                function,
                profiles,
                weight: 1.0,
            }
        })
        .collect();

    let spec = QualitySpec::new(0.12, 0.9, 0.5).unwrap();
    let outcome = TupleOptimizer::new(spec).optimize(&regions).unwrap();
    assert_eq!(outcome.thresholds.len(), 2);
    assert!(outcome.certified_rate >= 0.5);
}

#[test]
fn rumba_style_designs_run_in_the_simulator() {
    let compiled = compiled_smoke("sobel");
    let ds = compiled
        .function
        .dataset(9_200_000, mithra::axbench::dataset::DatasetScale::Smoke);
    let profile = DatasetProfile::collect(&compiled.function, ds);
    let opts = SimOptions::default();

    let mut tree =
        TreeClassifier::train(&compiled.training_data, &TreeTrainConfig::default()).unwrap();
    let tree_run = simulate(&compiled, &profile, &mut tree, &opts);
    assert!(tree_run.invocation_rate() <= 1.0);

    let mut regression = RegressionFilter::train(
        &compiled.profiles,
        compiled.threshold.threshold,
        &RegressionTrainConfig {
            epochs: 30,
            max_samples: 2000,
            ..RegressionTrainConfig::default()
        },
    )
    .unwrap();
    let reg_run = simulate(&compiled, &profile, &mut regression, &opts);
    assert!(reg_run.quality_loss.is_finite());
}

#[test]
fn all_designs_share_the_classifier_interface() {
    // The whole design space is interchangeable behind `Classifier` —
    // the property that makes the evaluation harness generic.
    let compiled = compiled_smoke("blackscholes");
    let ds = compiled
        .function
        .dataset(9_300_000, mithra::axbench::dataset::DatasetScale::Smoke);
    let profile = DatasetProfile::collect(&compiled.function, ds);

    let classifiers: Vec<Box<dyn Classifier>> = vec![
        Box::new(compiled.table.clone()),
        Box::new(compiled.neural.clone()),
        Box::new(compiled.oracle_for(&profile)),
        Box::new(mithra_core::random::RandomFilter::new(0.5, 1)),
        Box::new(
            TreeClassifier::train(&compiled.training_data, &TreeTrainConfig::default()).unwrap(),
        ),
    ];
    for mut c in classifiers {
        let run = simulate(&compiled, &profile, c.as_mut(), &SimOptions::default());
        assert!(
            run.accelerated_cycles > 0.0,
            "{} charged no cycles",
            c.name()
        );
    }
}
