//! The watchdog calibration counts a compile session stores with its
//! deployed router, against a sequential count.
//!
//! A guarded serving engine reads these counts instead of routing the
//! compile profiles again, so they must be exactly what one router copy
//! counts walking the compile datasets in order: for every suite
//! benchmark's table (the count behind `watchdog::calibrate`), and for a
//! tiered and a three-member pool behind their routers. Every case runs
//! at one and two threads, cold (the stage trains its router and counts)
//! and warm (the stage loads the stored counts and counts nothing).

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::suite;
use mithra_core::cache::{ArtifactCache, CacheConfig};
use mithra_core::classifier::Classifier;
use mithra_core::pipeline::{
    compile_routed_with_report, compile_with_report, CompileConfig, Compiled,
};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{PoolSpec, RouteChoice, RoutedCompiled};
use mithra_core::session::{CacheOutcome, SessionReport, Stage};
use mithra_core::watchdog::{self, Calibration};
use mithra_stats::clopper_pearson::Confidence;
use std::path::PathBuf;
use std::sync::Arc;

const THREADS: [Option<usize>; 2] = [Some(1), Some(2)];

/// Sums the counts of `route` over every compile dataset, in order.
fn sequential_counts(
    member_profiles: &[Vec<DatasetProfile>],
    threshold: f32,
    mut route: impl FnMut(usize, &[f32]) -> RouteChoice,
) -> Calibration {
    let mut total = Calibration::default();
    for d in 0..member_profiles[0].len() {
        let members: Vec<&DatasetProfile> = member_profiles.iter().map(|m| &m[d]).collect();
        let (admitted, violations) = watchdog::calibration_counts(&members, threshold, &mut route);
        total.admitted += admitted;
        total.violations += violations;
    }
    total
}

/// The table's counts over the compile profiles, one table copy in order.
fn sequential_table_counts(compiled: &Compiled) -> Calibration {
    let mut table = compiled.table.clone();
    sequential_counts(
        std::slice::from_ref(&compiled.profiles),
        compiled.threshold.threshold,
        |i, input| table.classify(i, input).into(),
    )
}

/// The router's counts over the member compile profiles, one router copy
/// in order.
fn sequential_routed_counts(routed: &RoutedCompiled) -> Calibration {
    let mut router = routed.router.clone();
    sequential_counts(
        &routed.member_profiles,
        routed.threshold.threshold,
        |i, input| router.classify_route(i, input),
    )
}

/// A fresh cache directory for one case.
fn cache_for(tag: &str) -> CacheConfig {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "mithra-stored-calibration-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    CacheConfig::at(dir)
}

/// Deletes every artifact `stage` stored for `benchmark`, so the next
/// session retrains that stage (and counts again) while every upstream
/// stage still hits.
fn drop_stage_artifacts(cache: &CacheConfig, benchmark: &str, stage: Stage) {
    let dir = ArtifactCache::open(cache, benchmark).dir().to_path_buf();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with(stage.label()) {
            std::fs::remove_file(path).unwrap();
        }
    }
}

/// Checks the calibration pass's record in `report`: a miss counts every
/// compile invocation once, a hit counts nothing.
fn check_report(
    report: &SessionReport,
    stage: Stage,
    invocations: u64,
    expect: CacheOutcome,
    what: &str,
) {
    let r = report.stage(stage).unwrap();
    assert_eq!(r.cache, expect, "{what}: {report}");
    let counted = if expect == CacheOutcome::Hit {
        0
    } else {
        invocations
    };
    assert_eq!(r.calibration_invocations, counted, "{what}: {report}");
    assert!(r.calibration_wall <= r.wall, "{what}: {report}");
    if expect == CacheOutcome::Hit {
        assert!(r.calibration_wall.is_zero(), "{what}: {report}");
    }
}

fn total_invocations(profiles: &[DatasetProfile]) -> u64 {
    profiles.iter().map(|p| p.invocation_count() as u64).sum()
}

#[test]
fn stored_table_counts_match_a_sequential_count_for_every_benchmark() {
    let confidence = Confidence::new(0.95).unwrap();
    for bench in suite::all() {
        let bench: Arc<dyn Benchmark> = bench.into();
        let name = bench.name();
        let cache = cache_for(name);
        let mut expected = None;
        for threads in THREADS {
            let config = CompileConfig {
                cache: Some(cache.clone()),
                threads,
                ..CompileConfig::smoke()
            };
            if expected.is_some() {
                drop_stage_artifacts(&cache, name, Stage::ClassifierTraining);
            }
            for expect in [CacheOutcome::Miss, CacheOutcome::Hit] {
                let what = format!("{name} at threads={threads:?}, {}", expect.label());
                let (compiled, report) = compile_with_report(Arc::clone(&bench), &config).unwrap();
                let want = *expected.get_or_insert_with(|| sequential_table_counts(&compiled));
                assert_eq!(compiled.calibration, want, "{what}");
                let invocations = total_invocations(&compiled.profiles);
                check_report(
                    &report,
                    Stage::ClassifierTraining,
                    invocations,
                    expect,
                    &what,
                );
                // The stored counts give `watchdog::calibrate`'s tuning.
                let calibrated = watchdog::calibrate(
                    &mut compiled.table.clone(),
                    &compiled.profiles,
                    compiled.threshold.threshold,
                    confidence,
                )
                .unwrap();
                assert_eq!(compiled.calibration.config(confidence), calibrated);
            }
        }
        let want = expected.unwrap();
        assert!(want.admitted > 0, "{name}: the table admits something");
        let _ = std::fs::remove_dir_all(&cache.dir);
    }
}

#[test]
fn stored_router_counts_match_a_sequential_routed_count() {
    let cases = [("sobel", "tiered"), ("inversek2j", "sized-3")];
    let mut violating = 0;
    for (name, pool) in cases {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        let spec = match pool {
            "tiered" => PoolSpec::tiered(&bench.npu_topology()),
            _ => PoolSpec::sized(&bench.npu_topology(), 3),
        };
        let cache = cache_for(&format!("{name}-{pool}"));
        let mut expected = None;
        for threads in THREADS {
            let config = CompileConfig {
                cache: Some(cache.clone()),
                threads,
                ..CompileConfig::smoke()
            };
            if expected.is_some() {
                drop_stage_artifacts(&cache, name, Stage::RouterTraining);
            }
            for expect in [CacheOutcome::Miss, CacheOutcome::Hit] {
                let what = format!("{name} {pool} at threads={threads:?}, {}", expect.label());
                let (routed, report) =
                    compile_routed_with_report(Arc::clone(&bench), &config, &spec).unwrap();
                assert!(routed.pool.len() > 1, "{what}: the pool stays distinct");
                let want = *expected.get_or_insert_with(|| sequential_routed_counts(&routed));
                assert_eq!(routed.calibration, want, "{what}");
                let invocations = total_invocations(&routed.member_profiles[0]);
                check_report(&report, Stage::RouterTraining, invocations, expect, &what);
            }
        }
        let want = expected.unwrap();
        assert!(
            want.admitted > 0,
            "{name} {pool}: the router admits something"
        );
        violating += usize::from(want.violations > 0);
        let _ = std::fs::remove_dir_all(&cache.dir);
    }
    assert!(violating > 0, "some pool must count violations");
}
