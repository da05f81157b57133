//! Figure Z: the routed multi-approximator Pareto frontier against the
//! binary accept/reject baseline, at the same certified `(S, β)`.
//!
//! Per benchmark this binary compiles both decision paths — the classic
//! binary pipeline and a routed pool of cheap/medium/accurate NPU
//! topologies certified over the *mixture* — then puts both on equal
//! footing twice:
//!
//! * **frontier arm** (validation seed space): simulate every unseen
//!   validation dataset under each path and compare mean speedup,
//!   energy reduction and invocation rate. The routed path wins the
//!   frontier when it improves both axes at the same certificate.
//! * **guarantee arm** (conformance seed space): validate both
//!   certificates on `--trials` unseen Monte-Carlo datasets through the
//!   conformance harness, then run the routed mutation self-check
//!   (including the route-misattribution defect) on the real losses.
//!
//! Bench-specific flags, consumed before the shared experiment flags:
//! `--trials M` (conformance datasets per benchmark), `--pool K` (pool
//! size before topology dedup), `--pool-check` (additionally compile a
//! pool of one and require its conformance report to be byte-identical
//! to the binary baseline's), `--epsilon E`, `--test-confidence C`,
//! `--out PATH` (the machine-readable `BENCH_route.json`). Shared
//! `--scale`, `--quality`, `--bench`, `--threads`, `--cache-dir` flags
//! work like every other figure binary; both arms are bit-identical at
//! any `--threads` setting.

use mithra_bench::runner::{ArgError, BenchFlags, VALIDATION_SEED_BASE};
use mithra_bench::{ExperimentConfig, TextTable};
use mithra_conform::selfcheck::{self_check, SelfCheckReport};
use mithra_conform::{
    validate, validate_profiles, GuaranteeReport, ValidatorConfig, Verdict, CONFORM_SEED_BASE,
};
use mithra_core::pipeline::{compile_routed_with_report, compile_with_report};
use mithra_core::route::PoolSpec;
use mithra_core::session::{profile_pool_validation, profile_validation};
use mithra_core::Result;
use mithra_sim::system::{frontier_means, FrontierMeans, SimOptions};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// One benchmark's full comparison in `BENCH_route.json`.
#[derive(Debug, Serialize)]
struct BenchmarkRecord {
    name: String,
    pool_size: usize,
    topologies: Vec<String>,
    binary_frontier: FrontierMeans,
    routed_frontier: FrontierMeans,
    /// Fraction of all invocations served per pool member (cheapest
    /// first) on the frontier arm; sums to `routed_frontier
    /// .invocation_rate`.
    member_share: Vec<f64>,
    frontier_improved: bool,
    binary_report: GuaranteeReport,
    routed_report: GuaranteeReport,
    selfcheck: SelfCheckReport,
    /// `Some(true)` when `--pool-check` ran and the pool-of-one
    /// conformance report matched the binary baseline byte for byte.
    pool1_parity: Option<bool>,
}

/// The whole `BENCH_route.json` document.
#[derive(Debug, Serialize)]
struct JsonReport {
    scale: String,
    quality: f64,
    pool: usize,
    trials: usize,
    validation_datasets: usize,
    conform_seed_base: u64,
    validation_seed_base: u64,
    test_confidence: f64,
    epsilon: f64,
    benchmarks: Vec<BenchmarkRecord>,
}

/// Bench-specific options, extracted ahead of the shared parser.
struct BenchArgs {
    trials: usize,
    pool: usize,
    pool_check: bool,
    epsilon: f64,
    test_confidence: f64,
    out: PathBuf,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            trials: 100,
            pool: 3,
            pool_check: false,
            epsilon: 0.005,
            test_confidence: 0.95,
            out: PathBuf::from("BENCH_route.json"),
        }
    }
}

/// Pulls the bench-specific flags out of `args`, leaving the shared
/// experiment flags for [`ExperimentConfig::from_arg_list`].
fn bench_args(flags: &mut BenchFlags) -> std::result::Result<BenchArgs, ArgError> {
    let d = BenchArgs::default();
    let bench = BenchArgs {
        trials: flags.value("--trials")?.unwrap_or(d.trials),
        pool: flags.value("--pool")?.unwrap_or(d.pool),
        pool_check: flags.switch("--pool-check"),
        epsilon: flags.value("--epsilon")?.unwrap_or(d.epsilon),
        test_confidence: flags
            .value("--test-confidence")?
            .unwrap_or(d.test_confidence),
        out: flags.value("--out")?.unwrap_or(d.out),
    };
    if bench.pool == 0 {
        return Err(ArgError::new("--pool must be at least 1"));
    }
    Ok(bench)
}

/// Compiles, simulates and validates both decision paths for one
/// benchmark.
fn run_benchmark(
    bench: &Arc<dyn mithra_axbench::benchmark::Benchmark>,
    cfg: &ExperimentConfig,
    bench_args: &BenchArgs,
    quality: f64,
) -> Result<BenchmarkRecord> {
    let name = bench.name();
    let compile_cfg = cfg.compile_config(quality)?;
    let spec = cfg.spec(quality)?;
    let vconfig = ValidatorConfig {
        trials: bench_args.trials,
        scale: cfg.scale,
        threads: cfg.threads,
        test_confidence: bench_args.test_confidence,
        ..ValidatorConfig::default()
    };

    // Binary baseline: compile, frontier arm, guarantee arm.
    let (compiled, mut report) = compile_with_report(Arc::clone(bench), &compile_cfg)?;
    let (validation, validation_report) = profile_validation(
        &compiled.function,
        &compile_cfg,
        VALIDATION_SEED_BASE,
        cfg.validation_datasets,
    );
    report.stages.push(validation_report);
    let (conform_profiles, conform_report) = profile_validation(
        &compiled.function,
        &compile_cfg,
        CONFORM_SEED_BASE,
        bench_args.trials,
    );
    report.stages.push(conform_report);
    eprint!("{report}");
    let options = SimOptions::default();
    let (binary, _) = frontier_means(&compiled, std::slice::from_ref(&validation), &options)
        .unwrap_or_else(|e| panic!("{name}: binary frontier simulation failed: {e}"));
    let binary_report = validate_profiles(
        &compiled,
        &spec,
        std::slice::from_ref(&conform_profiles),
        &vconfig,
    )
    .unwrap_or_else(|e| panic!("{name}: binary conformance validation failed: {e}"));

    // Routed pool: compile, frontier arm, guarantee arm, self-check.
    let pool_spec = PoolSpec::sized(&bench.npu_topology(), bench_args.pool);
    let (routed, mut rreport) =
        compile_routed_with_report(Arc::clone(bench), &compile_cfg, &pool_spec)?;
    let (pool_profiles, pool_validation_report) = profile_pool_validation(
        &routed.pool,
        &compile_cfg,
        VALIDATION_SEED_BASE,
        cfg.validation_datasets,
    );
    rreport.stages.push(pool_validation_report);
    eprint!("{rreport}");
    let (routed_front, member_share) = frontier_means(&routed, &pool_profiles, &options)
        .unwrap_or_else(|e| panic!("{name}: routed frontier simulation failed: {e}"));
    let routed_report = validate(&routed, &spec, &vconfig)
        .unwrap_or_else(|e| panic!("{name}: routed conformance validation failed: {e}"));
    let losses: Vec<f64> = routed_report
        .trial_records
        .iter()
        .map(|t| t.quality_loss)
        .collect();
    let routes: Vec<usize> = routed_report
        .trial_records
        .iter()
        .map(|t| t.worst_route)
        .collect();
    let selfcheck = self_check(
        &losses,
        &routes,
        routed.pool.len(),
        &spec,
        bench_args.epsilon,
        1.0 - bench_args.test_confidence,
    )
    .unwrap_or_else(|e| panic!("{name}: routed self-check failed: {e}"));

    // Pool-of-one parity: the routed machinery must reproduce the binary
    // pipeline's conformance report byte for byte.
    let pool1_parity = if bench_args.pool_check {
        let single = PoolSpec::single(bench.npu_topology());
        let (pool1, _) = compile_routed_with_report(Arc::clone(bench), &compile_cfg, &single)?;
        let pool1_report = validate(&pool1, &spec, &vconfig)
            .unwrap_or_else(|e| panic!("{name}: pool-of-one validation failed: {e}"));
        let parity = serde_json::to_string(&binary_report).expect("report serializes")
            == serde_json::to_string(&pool1_report).expect("report serializes");
        if parity {
            println!("{name}: pool1 parity OK");
        } else {
            eprintln!("{name}: POOL1 PARITY BROKEN: the pool-of-one conformance report diverged from the binary baseline");
            std::process::exit(1);
        }
        Some(parity)
    } else {
        None
    };

    // A frontier improvement at the same certificate: strictly better on
    // both axes (cheap members must pay for their routing bits).
    let frontier_improved = routed_front.speedup > binary.speedup
        && routed_front.energy_reduction > binary.energy_reduction;

    Ok(BenchmarkRecord {
        name: name.to_string(),
        pool_size: routed.pool.len(),
        topologies: routed
            .pool
            .topologies()
            .iter()
            .map(|t| t.to_string())
            .collect(),
        binary_frontier: binary,
        routed_frontier: routed_front,
        member_share,
        frontier_improved,
        binary_report,
        routed_report,
        selfcheck,
        pool1_parity,
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_args = BenchFlags::read_or_exit(&mut args, bench_args);
    let cfg = match ExperimentConfig::from_arg_list(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "bench flags: --trials M --pool K --pool-check --epsilon E \
                 --test-confidence C --out PATH"
            );
            std::process::exit(2);
        }
    };
    let quality = cfg.quality_levels.first().copied().unwrap_or(0.05);
    println!("# Figure Z: does a routed approximator pool beat the binary frontier?");
    println!(
        "# scale={:?} quality={:.1}% confidence={:.0}% success-rate={:.0}% pool={} \
         validation={} trials={} test-confidence={:.0}%\n",
        cfg.scale,
        quality * 100.0,
        cfg.confidence * 100.0,
        cfg.success_rate * 100.0,
        bench_args.pool,
        cfg.validation_datasets,
        bench_args.trials,
        bench_args.test_confidence * 100.0,
    );

    let mut table = TextTable::new([
        "benchmark",
        "pool",
        "speedup bin",
        "speedup routed",
        "energy bin",
        "energy routed",
        "inv rate bin",
        "inv rate routed",
        "frontier",
        "verdict bin",
        "verdict routed",
        "self-check",
    ]);
    let mut records = Vec::new();
    let mut improved = 0usize;
    let mut routed_holds = 0usize;
    let mut mutations_planted = 0usize;
    let mut mutations_detected = 0usize;

    for bench in cfg.suite_or_exit() {
        let name = bench.name();
        let record = match run_benchmark(&bench, &cfg, &bench_args, quality) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: {e}");
                continue;
            }
        };
        println!("{}", record.binary_report.summary_line());
        println!("{}", record.routed_report.summary_line());
        if record.frontier_improved {
            improved += 1;
        }
        if record.routed_report.verdict == Verdict::Holds {
            routed_holds += 1;
        }
        let detected = record
            .selfcheck
            .outcomes
            .iter()
            .filter(|o| o.detected)
            .count();
        mutations_planted += record.selfcheck.outcomes.len();
        mutations_detected += detected;
        for outcome in record.selfcheck.outcomes.iter().filter(|o| !o.detected) {
            eprintln!(
                "{name}: planted mutation {:?} ESCAPED the audits",
                outcome.mutation
            );
        }
        table.row([
            record.name.clone(),
            format!("{}", record.pool_size),
            format!("{:.2}x", record.binary_frontier.speedup),
            format!("{:.2}x", record.routed_frontier.speedup),
            format!("{:.2}x", record.binary_frontier.energy_reduction),
            format!("{:.2}x", record.routed_frontier.energy_reduction),
            format!("{:.1}%", record.binary_frontier.invocation_rate * 100.0),
            format!("{:.1}%", record.routed_frontier.invocation_rate * 100.0),
            if record.frontier_improved {
                "improved"
            } else {
                "-"
            }
            .to_string(),
            record.binary_report.verdict.label().to_string(),
            record.routed_report.verdict.label().to_string(),
            format!("{detected}/{} detected", record.selfcheck.outcomes.len()),
        ]);
        records.push(record);
    }

    println!("\n{table}");
    println!(
        "routed pool improves the frontier on {improved} of {} benchmarks at the same \
         certified (S, beta); routed mixture verdict holds outright on {routed_holds}; \
         mutation self-check detected {mutations_detected}/{mutations_planted} planted defects",
        records.len()
    );

    let json = JsonReport {
        scale: format!("{:?}", cfg.scale).to_lowercase(),
        quality,
        pool: bench_args.pool,
        trials: bench_args.trials,
        validation_datasets: cfg.validation_datasets,
        conform_seed_base: CONFORM_SEED_BASE,
        validation_seed_base: VALIDATION_SEED_BASE,
        test_confidence: bench_args.test_confidence,
        epsilon: bench_args.epsilon,
        benchmarks: records,
    };
    let json = serde_json::to_string(&json).expect("report serializes");
    std::fs::write(&bench_args.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", bench_args.out.display());
        std::process::exit(1);
    });
    eprintln!("wrote {}", bench_args.out.display());
}
