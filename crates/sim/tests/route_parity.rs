//! Pool-of-one parity: the routed compile path degenerates to the
//! binary accept/reject pipeline, **bit for bit**, on every benchmark.
//!
//! The routed architecture replaced the binary decision core, so the old
//! pipeline survives only as the `K = 1` special case. These tests pin
//! that equivalence across the whole suite and across disjoint
//! compilation seed spaces: same certified threshold and Clopper–Pearson
//! floor, same deployed classifier, and byte-equal end-to-end simulation
//! of an unseen dataset. Any drift here would silently change every
//! committed `results/*.txt`.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_core::pipeline::{compile, compile_routed, CompileConfig};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::PoolSpec;
use mithra_core::session::profile_validation;
use mithra_explore::{explore, Candidate, DesignSpace, ExploreConfig};
use mithra_sim::system::{run_routed, simulate, SimOptions};
use std::sync::Arc;

/// Compilation seed bases to sweep: the standard base plus two windows
/// inside the extension-test seed space (≥ 7,000,000, disjoint from
/// compile/validation/serve/conform seeds).
const SEED_BASES: [u64; 3] = [0, 7_000_000, 7_000_500];

/// An unseen dataset seed for the end-to-end run comparison, past every
/// compilation window above.
const UNSEEN_SEED: u64 = 7_900_000;

#[test]
fn pool_of_one_is_bit_identical_to_binary_on_every_benchmark() {
    for bench in suite::all() {
        let bench: Arc<dyn Benchmark> = bench.into();
        for seed_base in SEED_BASES {
            let config = CompileConfig {
                seed_base,
                ..CompileConfig::smoke()
            };
            let compiled = compile(Arc::clone(&bench), &config).unwrap();
            let routed = compile_routed(
                Arc::clone(&bench),
                &config,
                &PoolSpec::single(bench.npu_topology()),
            )
            .unwrap();
            let tag = format!("{} seed_base={seed_base}", bench.name());

            // The certificate: same threshold, same statistics.
            assert_eq!(
                routed.threshold.threshold.to_bits(),
                compiled.threshold.threshold.to_bits(),
                "{tag}: threshold"
            );
            assert_eq!(
                routed.threshold.successes, compiled.threshold.successes,
                "{tag}: successes"
            );
            assert_eq!(
                routed.threshold.trials, compiled.threshold.trials,
                "{tag}: trials"
            );
            assert_eq!(
                routed.threshold.certified_rate.to_bits(),
                compiled.threshold.certified_rate.to_bits(),
                "{tag}: certified rate"
            );
            assert_eq!(
                routed.threshold.mean_invocation_rate.to_bits(),
                compiled.threshold.mean_invocation_rate.to_bits(),
                "{tag}: mean invocation rate"
            );
            assert_eq!(
                routed.threshold.member_violations,
                vec![routed.threshold.trials - routed.threshold.successes],
                "{tag}: one-member attribution"
            );

            // The deployed router is one stage: the binary table
            // classifier, byte for byte.
            assert_eq!(routed.router.len(), 1, "{tag}: router stages");
            assert_eq!(
                serde_json::to_string(&routed.router.stages()[0]).unwrap(),
                serde_json::to_string(&compiled.table).unwrap(),
                "{tag}: router stage 0 vs binary table"
            );

            // End to end: simulating an unseen dataset through the
            // routed system reproduces the binary run exactly.
            let dataset = compiled.function.dataset(UNSEEN_SEED, DatasetScale::Smoke);
            let profile = DatasetProfile::collect(&compiled.function, dataset);
            let mut table = compiled.table.clone();
            let binary_run = simulate(&compiled, &profile, &mut table, &SimOptions::default());
            let routed_run = run_routed(&routed, &[&profile], &SimOptions::default()).unwrap();
            assert_eq!(binary_run, routed_run.run, "{tag}: end-to-end run");
            assert_eq!(
                routed_run.member_invocations,
                vec![binary_run.invoked],
                "{tag}: member invocations"
            );
        }
    }
}

#[test]
fn explored_pool_of_one_point_is_bit_identical_to_binary_pipeline() {
    // The design-space explorer must not be a new code path: its
    // pool-of-one point goes through the same routed compile and the
    // same validation-arm simulation, so its certificate and its mean
    // frontier metrics must equal the hand-built binary pipeline's bit
    // for bit.
    let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
    let compile_cfg = CompileConfig::smoke();
    let config = ExploreConfig {
        compile: compile_cfg.clone(),
        validation_datasets: 3,
        trials: 8,
        probe_datasets: 2,
        probe_epochs: 4,
        budget: None,
        ..ExploreConfig::default()
    };
    let space = DesignSpace {
        candidates: vec![Candidate::plain(&[1])],
    };
    let report = explore(&bench, &space, &config).unwrap();
    assert_eq!(report.enumerated, 1);
    assert_eq!(report.evaluated, 1);
    let point = &report.points[report.pool_of_one_index.unwrap()];
    assert!(point.certified);

    let compiled = compile(Arc::clone(&bench), &compile_cfg).unwrap();
    assert_eq!(
        point.threshold.to_bits(),
        compiled.threshold.threshold.to_bits(),
        "explored pool-of-one certificate vs binary"
    );
    assert_eq!(
        point.certified_rate.to_bits(),
        compiled.threshold.certified_rate.to_bits(),
        "explored pool-of-one certified rate vs binary"
    );

    // Validation arm: the explored point's mean speedup/energy over the
    // validation seed space equals the binary pipeline simulated over
    // the very same datasets, folded in the same order.
    let (validation, _) = profile_validation(
        &compiled.function,
        &compile_cfg,
        config.validation_seed_base,
        config.validation_datasets,
    );
    let mut speedup = 0.0f64;
    let mut energy = 0.0f64;
    for profile in &validation {
        let mut table = compiled.table.clone();
        let run = simulate(&compiled, profile, &mut table, &SimOptions::default());
        speedup += run.speedup();
        energy += run.energy_reduction();
    }
    let n = config.validation_datasets as f64;
    assert_eq!(
        point.speedup.to_bits(),
        (speedup / n).to_bits(),
        "explored pool-of-one mean speedup vs binary"
    );
    assert_eq!(
        point.energy_reduction.to_bits(),
        (energy / n).to_bits(),
        "explored pool-of-one mean energy reduction vs binary"
    );
}

#[test]
fn fixed_tiering_is_one_enumerated_candidate_verbatim() {
    // The hand-fixed PR-6 ÷4/÷2/accurate tiering must survive inside the
    // enumerated space as an exact `PoolSpec` — same topologies, default
    // router, no margins — on every benchmark, so explorations always
    // measure it as an anchor.
    for bench in suite::all() {
        let bench: Arc<dyn Benchmark> = bench.into();
        let accurate = bench.npu_topology();
        let fixed = PoolSpec::tiered(&accurate);
        let enumerated = DesignSpace::full().enumerate(&accurate);
        assert!(
            enumerated.iter().any(|(_, spec)| *spec == fixed),
            "{}: fixed tiering missing from the enumerated space",
            bench.name()
        );
        assert!(
            enumerated
                .iter()
                .any(|(_, spec)| *spec == PoolSpec::single(accurate.clone())),
            "{}: pool of one missing from the enumerated space",
            bench.name()
        );
    }
}
