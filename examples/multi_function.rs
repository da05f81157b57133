//! An application with two accelerated regions.
//!
//! The paper (§III-A): "If the application offloads multiple functions to
//! the accelerator, this algorithm can be extended to greedily find a
//! tuple of thresholds." This example models a robotics pipeline whose
//! perception stage (sobel edge detection) and planning stage (inversek2j
//! inverse kinematics) are both accelerated, and certifies one joint
//! quality budget across them.
//!
//! ```text
//! cargo run --release --example multi_function
//! ```

use mithra::prelude::*;
use mithra_core::function::NpuTrainConfig;
use mithra_core::multi::{Region, TupleOptimizer};
use mithra_core::profile::DatasetProfile;
use std::sync::Arc;

fn region(name: &str, weight: f64, datasets: u64) -> Result<Region, MithraError> {
    let bench: Arc<dyn Benchmark> = suite::by_name(name).expect("suite benchmark").into();
    let scale = mithra::axbench::dataset::DatasetScale::Smoke;
    let train: Vec<_> = (0..3).map(|s| bench.dataset(s, scale)).collect();
    let function = AcceleratedFunction::train(
        bench,
        &train,
        &NpuTrainConfig {
            epochs: Some(40),
            max_samples: 3000,
            seed: 9,
        },
    )?;
    let profiles = (0..datasets)
        .map(|s| DatasetProfile::collect(&function, function.dataset(100 + s, scale)))
        .collect();
    Ok(Region {
        function,
        profiles,
        weight,
    })
}

fn main() -> Result<(), MithraError> {
    println!("training both accelerated regions of the robotics pipeline...");
    let regions = vec![
        region("sobel", 1.0, 25)?,      // perception
        region("inversek2j", 2.0, 25)?, // planning (weighted heavier)
    ];

    let spec = QualitySpec::new(0.08, 0.90, 0.60)?;
    println!(
        "certifying a joint {:.0}% quality budget ({} confidence, {:.0}% success rate)...",
        spec.max_quality_loss * 100.0,
        spec.confidence,
        spec.success_rate * 100.0
    );
    let outcome = TupleOptimizer::new(spec).optimize(&regions)?;

    println!("\nper-region thresholds (greedy, benefit-descending order):");
    for (i, name) in ["sobel (perception)", "inversek2j (planning)"]
        .iter()
        .enumerate()
    {
        println!(
            "  {name:<24} threshold {:.4}  invocation rate {:.0}%",
            outcome.thresholds[i],
            outcome.invocation_rates[i] * 100.0
        );
    }
    println!(
        "\njoint guarantee: {}/{} compile datasets passed; certified >= {:.0}% of unseen runs",
        outcome.successes,
        outcome.trials,
        outcome.certified_rate * 100.0
    );
    println!(
        "tuple search: {} probes, {} reused an earlier probe's replays",
        outcome.probes.len(),
        outcome.reused
    );
    Ok(())
}
