//! Integration pins for the conformance harness:
//!
//! * the report is **bit-identical** at `--threads 1/2/4` (serialized
//!   comparison, so every f64 is compared by its exact bytes);
//! * the deployed trial `validate` runs publishes, byte for byte, the
//!   report of the simulator path `validate_profiles` over full
//!   profiles: for every suite benchmark as a binary artifact and as a
//!   K = 3 tiered pool, for routers that accept nothing or everything,
//!   and for worst errors tied across members;
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
use mithra_core::function::AcceleratedFunction;
use mithra_core::pipeline::{compile, compile_routed, CompileConfig, Compiled};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{ApproximatorPool, Mixture, PoolSpec, RouteClassifier, RoutedCompiled};
use mithra_core::table::TableClassifier;
use mithra_core::threshold::QualitySpec;
use mithra_core::training::TrainingExample;
use mithra_npu::mlp::Mlp;
use std::sync::Arc;

const TRIALS: usize = 24;

/// Every suite benchmark: the paper's six plus the extended workloads.
const SUITE: [&str; 8] = [
    "blackscholes",
    "fft",
    "inversek2j",
    "jmeint",
    "jpeg",
    "sobel",
    "kmeans",
    "raytrace",
];

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

/// `members`' full profiles of `config`'s trial datasets, one list per
/// pool member — what the simulator path validates over.
fn conform_profiles(
    members: &[AcceleratedFunction],
    config: &ValidatorConfig,
) -> Vec<Vec<DatasetProfile>> {
    members
        .iter()
        .map(|m| {
            (0..config.trials as u64)
                .map(|i| DatasetProfile::collect(m, m.dataset(config.seed_base + i, config.scale)))
                .collect()
        })
        .collect()
}

/// Pins the deployed trial to the simulator path: [`validate`] at
/// threads 1 and 2 publishes exactly [`validate_profiles`]' report over
/// the same seeds' full profiles, byte for byte. Returns the report.
fn assert_deployed_matches_simulator(
    mixture: Mixture<'_>,
    spec: &QualitySpec,
    label: &str,
) -> mithra_conform::GuaranteeReport {
    let config = smoke_validator(1);
    let profiles = conform_profiles(mixture.members(), &config);
    let simulated = validate_profiles(mixture, spec, &profiles, &config).unwrap();
    let expected = serde_json::to_string(&simulated).unwrap();
    for threads in [1, 2] {
        let deployed = validate(mixture, spec, &smoke_validator(threads)).unwrap();
        assert_eq!(
            serde_json::to_string(&deployed).unwrap(),
            expected,
            "{label}: deployed trials at threads={threads} differ from the simulator"
        );
    }
    simulated
}

/// A table with `like`'s geometry and quantizer, trained at the paper's
/// conservative vote on every input of `config`'s trial datasets labeled
/// `reject`. With `reject` it rejects every one of those inputs; without,
/// no bucket holds a reject and it accepts every input.
fn constant_table(
    like: &TableClassifier,
    function: &AcceleratedFunction,
    config: &ValidatorConfig,
    reject: bool,
) -> TableClassifier {
    let examples: Vec<TrainingExample> = (0..config.trials as u64)
        .flat_map(|i| {
            function
                .dataset(config.seed_base + i, config.scale)
                .iter()
                .map(|input| TrainingExample {
                    input: input.to_vec(),
                    reject,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    TableClassifier::train_with_policy(like.design(), like.quantizer().clone(), 0.0, &examples)
        .unwrap()
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
    // per pool member — publishes exactly the seeded validate report. The
    // suite pins below cover binary artifacts and K = 3; this is K = 2.
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let routed = routed_smoke("inversek2j", 2);
    assert_deployed_matches_simulator((&routed).into(), &spec, "K = 2");

    // A table that does not hold one equally long list per member, or
    // holds no trials, is rejected rather than misread.
    let config = smoke_validator(2);
    let profiles = conform_profiles(routed.pool.members(), &config);
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

#[test]
fn deployed_trials_match_the_simulator_on_every_binary_artifact() {
    let spec = QualitySpec::paper_default(0.10).unwrap();
    for name in SUITE {
        let compiled = compiled_smoke(name);
        assert_deployed_matches_simulator((&compiled).into(), &spec, name);
    }
}

#[test]
fn deployed_trials_match_the_simulator_on_every_tiered_pool() {
    let spec = QualitySpec::paper_default(0.10).unwrap();
    for name in SUITE {
        let routed = routed_smoke(name, 3);
        assert_deployed_matches_simulator((&routed).into(), &spec, name);
    }
}

#[test]
fn deployed_trials_match_the_simulator_when_the_router_accepts_nothing_or_everything() {
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let config = smoke_validator(1);
    let rates = |report: &mithra_conform::GuaranteeReport| {
        report
            .trial_records
            .iter()
            .map(|t| t.invocation_rate)
            .collect::<Vec<_>>()
    };

    // Accepting nothing, no accelerator runs: every trial is the
    // all-precise run, lossless and charged to member 0.
    let mut compiled = compiled_smoke("inversek2j");
    compiled.table = constant_table(&compiled.table, &compiled.function, &config, true);
    let report = assert_deployed_matches_simulator((&compiled).into(), &spec, "binary, none");
    assert_eq!(rates(&report), vec![0.0; TRIALS]);
    assert!(report
        .trial_records
        .iter()
        .all(|t| t.quality_loss == 0.0 && t.worst_route == 0));

    // Accepting everything, the one member serves every invocation.
    compiled.table = constant_table(&compiled.table, &compiled.function, &config, false);
    let report = assert_deployed_matches_simulator((&compiled).into(), &spec, "binary, all");
    assert_eq!(rates(&report), vec![1.0; TRIALS]);

    // A tiered pool whose every stage rejects falls back to precise
    // everywhere; one whose first stage accepts sends everything to the
    // cheapest member.
    let mut routed = routed_smoke("inversek2j", 3);
    let accurate = routed.pool.accurate().clone();
    let stages: Vec<TableClassifier> = routed.router.stages().to_vec();
    routed.router = RouteClassifier::from_stages(
        stages
            .iter()
            .map(|stage| constant_table(stage, &accurate, &config, true))
            .collect(),
    );
    let report = assert_deployed_matches_simulator((&routed).into(), &spec, "pool, none");
    assert_eq!(rates(&report), vec![0.0; TRIALS]);
    assert!(report.trial_records.iter().all(|t| t.worst_route == 0));
    routed.router = RouteClassifier::from_stages(
        stages
            .iter()
            .map(|stage| constant_table(stage, &accurate, &config, false))
            .collect(),
    );
    let report = assert_deployed_matches_simulator((&routed).into(), &spec, "pool, all");
    assert_eq!(rates(&report), vec![1.0; TRIALS]);
    assert!(report.trial_records.iter().all(|t| t.worst_route == 0));
}

#[test]
fn tied_worst_errors_charge_the_first_serving_member() {
    // Two members that emit NaN score infinite error on every invocation
    // they serve, so the worst error ties across members: the violation
    // is charged to the member of the first served invocation, in both
    // paths.
    let spec = QualitySpec::paper_default(0.10).unwrap();
    let config = smoke_validator(1);
    let mut routed = routed_smoke("inversek2j", 3);
    let nan_member = |f: &AcceleratedFunction| {
        let npu = f.npu();
        let (weights, _) = npu.to_parameters();
        let nan = vec![f32::NAN; npu.topology().bias_count()];
        let npu = Mlp::from_parameters(
            npu.topology().clone(),
            &weights,
            &nan,
            npu.output_activation(),
        )
        .unwrap();
        AcceleratedFunction::from_parts(
            f.benchmark().clone(),
            npu,
            f.input_normalizer().clone(),
            f.output_normalizer().clone(),
        )
    };
    let mut members = routed.pool.members().to_vec();
    members[0] = nan_member(&members[0]);
    members[1] = nan_member(&members[1]);
    routed.pool = ApproximatorPool::from_members(members, routed.pool.topologies().to_vec());
    let mut stages = routed.router.stages().to_vec();
    stages[1] = constant_table(&stages[1], routed.pool.accurate(), &config, false);
    routed.router = RouteClassifier::from_stages(stages);

    let report = assert_deployed_matches_simulator((&routed).into(), &spec, "tied errors");
    let mut split = 0;
    for (i, t) in report.trial_records.iter().enumerate() {
        let dataset = routed
            .pool
            .accurate()
            .dataset(config.seed_base + i as u64, config.scale);
        let mut router = routed.router.clone();
        let routes: Vec<usize> = dataset
            .iter()
            .enumerate()
            .map(|(j, input)| router.classify_route(j, input).member().unwrap())
            .collect();
        assert_eq!(t.worst_route, routes[0], "trial {i}");
        split += usize::from(routes[0] != routes[routes.len() - 1]);
    }
    assert!(
        split > 0,
        "some trial must end on another member than it starts"
    );
}
