//! Integration pins for the conformance harness:
//!
//! * the report is **bit-identical** at `--threads 1/2/4` (serialized
//!   comparison, so every f64 is compared by its exact bytes);
//! * every planted mutation is detected on real Monte-Carlo losses from
//!   an actual compiled artifact, not just synthetic vectors;
//! * the conformance seed space is disjoint from the seeds the compiler
//!   consumed.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_conform::{
    selfcheck::self_check, validate, validate_profiles, ConformError, Mutation, ValidatorConfig,
    Verdict, CONFORM_SEED_BASE,
};
use mithra_core::pipeline::{compile, compile_routed, CompileConfig, Compiled};
use mithra_core::route::{PoolSpec, RoutedCompiled};
use mithra_core::threshold::QualitySpec;
use std::sync::Arc;

const TRIALS: usize = 24;

fn compiled_smoke(name: &str) -> Compiled {
    let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
    compile(bench, &CompileConfig::smoke()).unwrap()
}

fn routed_smoke(name: &str, pool_size: usize) -> RoutedCompiled {
    let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
    let spec = PoolSpec::sized(&bench.npu_topology(), pool_size);
    compile_routed(bench, &CompileConfig::smoke(), &spec).unwrap()
}

fn smoke_validator(threads: usize) -> ValidatorConfig {
    ValidatorConfig {
        trials: TRIALS,
        scale: DatasetScale::Smoke,
        threads: Some(threads),
        ..ValidatorConfig::default()
    }
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let compiled = compiled_smoke("inversek2j");
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let reports: Vec<String> = [1, 2, 4]
        .iter()
        .map(|&threads| {
            let report = validate(&compiled, &spec, &smoke_validator(threads)).unwrap();
            serde_json::to_string(&report).unwrap()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "threads=1 vs threads=2");
    assert_eq!(reports[0], reports[2], "threads=1 vs threads=4");
    // A shared artifact validates as the artifact it points to.
    let shared = Arc::new(compiled);
    let report = validate(&shared, &spec, &smoke_validator(1)).unwrap();
    assert_eq!(serde_json::to_string(&report).unwrap(), reports[0]);
}

#[test]
fn report_structure_is_coherent() {
    let compiled = compiled_smoke("inversek2j");
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let report = validate(&compiled, &spec, &smoke_validator(2)).unwrap();

    assert_eq!(report.benchmark, "inversek2j");
    assert_eq!(report.trials, TRIALS as u64);
    assert_eq!(report.trial_records.len(), TRIALS);
    // Trials walk the conformance seed space in order.
    for (i, t) in report.trial_records.iter().enumerate() {
        assert_eq!(t.dataset_seed, CONFORM_SEED_BASE + i as u64);
        assert_eq!(t.met_target, t.quality_loss <= report.quality_target);
    }
    let successes = report.trial_records.iter().filter(|t| t.met_target).count() as u64;
    assert_eq!(report.successes, successes);
    assert_eq!(
        report.observed_rate,
        successes as f64 / TRIALS as f64,
        "observed rate must be derived from the recorded trials"
    );
    assert!(report.p_value > 0.0 && report.p_value <= 1.0);
    assert!(report.unseen_lower_bound >= 0.0 && report.unseen_lower_bound <= 1.0);
    // The verdict rule, restated independently.
    let expected = if report.observed_rate >= report.target_rate {
        Verdict::Holds
    } else if report.p_value >= 0.05 {
        Verdict::Marginal
    } else {
        Verdict::Violated
    };
    assert_eq!(report.verdict, expected);
    assert!(report.summary_line().starts_with("inversek2j: "));
}

#[test]
fn every_mutation_detected_on_real_losses() {
    let compiled = compiled_smoke("sobel");
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let report = validate(&compiled, &spec, &smoke_validator(2)).unwrap();
    let losses: Vec<f64> = report
        .trial_records
        .iter()
        .map(|t| t.quality_loss)
        .collect();
    let routes: Vec<usize> = report.trial_records.iter().map(|t| t.worst_route).collect();
    assert!(
        routes.iter().all(|&r| r == 0),
        "a binary run is the pool of one"
    );

    let check = self_check(&losses, &routes, 1, &spec, 0.005, 0.05).unwrap();
    assert!(
        check.clean_findings.is_empty(),
        "the unmutated pipeline must audit clean: {:?}",
        check.clean_findings
    );
    assert_eq!(check.outcomes.len(), Mutation::ALL.len());
    for outcome in &check.outcomes {
        assert!(
            outcome.detected,
            "planted mutation {:?} escaped the audits",
            outcome.mutation
        );
    }
    assert!(check.all_detected());
}

#[test]
fn routed_report_is_bit_identical_across_thread_counts() {
    let routed = routed_smoke("inversek2j", 3);
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let reports: Vec<String> = [1, 2, 4]
        .iter()
        .map(|&threads| {
            let report = validate(&routed, &spec, &smoke_validator(threads)).unwrap();
            serde_json::to_string(&report).unwrap()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "threads=1 vs threads=2");
    assert_eq!(reports[0], reports[2], "threads=1 vs threads=4");
}

#[test]
fn routed_pool_of_one_report_matches_binary_report() {
    // A binary artifact and its pool-of-one routed compile are the same
    // mixture: the one validator must publish the same report for both,
    // bit for bit.
    let compiled = compiled_smoke("inversek2j");
    let pool1 = routed_smoke("inversek2j", 1);
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let binary = validate(&compiled, &spec, &smoke_validator(2)).unwrap();
    let mixed = validate(&pool1, &spec, &smoke_validator(2)).unwrap();
    assert_eq!(
        serde_json::to_string(&binary).unwrap(),
        serde_json::to_string(&mixed).unwrap()
    );
}

#[test]
fn pre_collected_profiles_reproduce_the_seeded_report() {
    // validate_profiles over the conformance seeds' profiles — one list
    // per pool member — publishes exactly the seeded validate report, for
    // a binary artifact (its one-member table) and a routed mixture.
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let config = smoke_validator(2);
    let seeded = |seed_base: u64, members: &[mithra_core::function::AcceleratedFunction]| {
        members
            .iter()
            .map(|m| {
                (0..TRIALS as u64)
                    .map(|i| {
                        let dataset = m.dataset(seed_base + i, config.scale);
                        mithra_core::profile::DatasetProfile::collect(m, dataset)
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };

    let compiled = compiled_smoke("inversek2j");
    let profiles = seeded(config.seed_base, std::slice::from_ref(&compiled.function));
    let from_profiles = validate_profiles(&compiled, &spec, &profiles, &config).unwrap();
    let from_seeds = validate(&compiled, &spec, &config).unwrap();
    assert_eq!(
        serde_json::to_string(&from_profiles).unwrap(),
        serde_json::to_string(&from_seeds).unwrap()
    );

    let routed = routed_smoke("inversek2j", 2);
    let profiles = seeded(config.seed_base, routed.pool.members());
    let from_profiles = validate_profiles(&routed, &spec, &profiles, &config).unwrap();
    let from_seeds = validate(&routed, &spec, &config).unwrap();
    assert_eq!(
        serde_json::to_string(&from_profiles).unwrap(),
        serde_json::to_string(&from_seeds).unwrap()
    );

    // A table that does not hold one equally long list per member, or
    // holds no trials, is rejected rather than misread.
    let bad = |profiles: &[Vec<_>]| {
        matches!(
            validate_profiles(&routed, &spec, profiles, &config),
            Err(ConformError::InvalidConfig { .. })
        )
    };
    assert!(bad(&profiles[..1]));
    assert!(bad(&[profiles[0].clone(), profiles[1][..1].to_vec()]));
    assert!(bad(&[Vec::new(), Vec::new()]));
}

#[test]
fn routed_report_attributes_violations_and_audits_clean() {
    let routed = routed_smoke("sobel", 3);
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let report = validate(&routed, &spec, &smoke_validator(2)).unwrap();

    assert_eq!(report.route_violations.len(), routed.pool.len());
    assert_eq!(
        report.route_violations.iter().sum::<u64>(),
        report.trials - report.successes,
        "per-member blame must conserve the violation total"
    );
    for t in &report.trial_records {
        assert!(t.worst_route < routed.pool.len());
    }

    // The routed mutation self-check on the real Monte-Carlo losses:
    // clean audit, every planted defect detected — including the new
    // route misattribution.
    let losses: Vec<f64> = report
        .trial_records
        .iter()
        .map(|t| t.quality_loss)
        .collect();
    let routes: Vec<usize> = report.trial_records.iter().map(|t| t.worst_route).collect();
    let check = self_check(&losses, &routes, routed.pool.len(), &spec, 0.005, 0.05).unwrap();
    assert!(
        check.clean_findings.is_empty(),
        "the unmutated routed pipeline must audit clean: {:?}",
        check.clean_findings
    );
    assert_eq!(check.outcomes.len(), Mutation::ALL.len());
    assert_eq!(
        Mutation::ALL.len(),
        5,
        "route misattribution joins the roster"
    );
    assert!(check.all_detected(), "{check:?}");
}

#[test]
fn conform_seed_space_is_disjoint_from_compile_and_validation_seeds() {
    // The partition is pinned once, in `mithra_core::seeds`, and this
    // crate re-exports (never re-declares) its base. A full-size
    // conformance run stays inside its own window: below the drifted
    // window at 3,500,000, well clear of the fuzzing window at
    // 4,000,000 and the extension window at 7,000,000.
    use mithra_core::seeds::{self, ALL_BASES};
    assert_eq!(CONFORM_SEED_BASE, 3_000_000);
    assert_eq!(CONFORM_SEED_BASE, seeds::CONFORM_SEED_BASE);
    let largest_conform_seed = CONFORM_SEED_BASE + 999;
    assert!(largest_conform_seed < seeds::DRIFT_CONFORM_SEED_BASE);
    assert!(largest_conform_seed < seeds::FUZZ_SEED_BASE);
    assert!(largest_conform_seed < seeds::EXTENSION_SEED_BASE);

    // Pairwise disjointness of every window in the roster, so adding a
    // new consumer (as the fuzz harness did) must join this proof.
    for (i, (name_a, base_a)) in ALL_BASES.iter().enumerate() {
        for (name_b, base_b) in ALL_BASES.iter().skip(i + 1) {
            assert!(
                base_a < base_b,
                "seed windows {name_a} and {name_b} are not disjoint"
            );
        }
    }
    assert!(
        ALL_BASES.iter().any(|(name, _)| *name == "fuzz"),
        "the fuzzing window must be part of the pinned roster"
    );
}
