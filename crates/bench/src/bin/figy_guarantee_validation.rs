//! Figure Y: Monte-Carlo validation of the Clopper–Pearson guarantee on
//! unseen datasets.
//!
//! The compiler certifies "with confidence β, at least a fraction S of
//! unseen datasets meets the quality target". This binary puts that
//! sentence on trial: per benchmark it reuses the cached compile
//! artifact, draws `--trials` datasets from the conformance seed space
//! (`CONFORM_SEED_BASE` — disjoint from every compile, validation and
//! serving seed), simulates each under the deployed table classifier,
//! and tests the observed success fraction against the certificate with
//! an exact one-sided binomial test. It then runs the harness's mutation
//! self-check on the same losses: four planted defects (target ±ε,
//! swapped bound direction, off-by-one violation count) must each be
//! detected, or the verdicts above it are not to be trusted.
//!
//! Bench-specific flags, consumed before the shared experiment flags:
//! `--trials M` (unseen datasets per benchmark), `--epsilon E` (target
//! perturbation of the self-check), `--test-confidence C` (the harness's
//! own test level), `--out PATH` (the machine-readable
//! `BENCH_conform.json`). Shared `--scale`, `--quality`, `--bench`,
//! `--threads`, `--cache-dir` flags work like every other figure binary;
//! trial fan-out is bit-identical at any `--threads` setting.

use mithra_bench::runner::{ArgError, BenchFlags};
use mithra_bench::{ExperimentConfig, TextTable};
use mithra_conform::selfcheck::{self_check, SelfCheckReport};
use mithra_conform::{
    validate_profiles, GuaranteeReport, ValidatorConfig, Verdict, CONFORM_SEED_BASE,
};
use mithra_core::session::{profile_validation, CompileSession};
use mithra_core::Result;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// One benchmark's conformance result in `BENCH_conform.json`.
#[derive(Debug, Serialize)]
struct BenchmarkRecord {
    report: GuaranteeReport,
    selfcheck: SelfCheckReport,
}

/// The whole `BENCH_conform.json` document.
#[derive(Debug, Serialize)]
struct JsonReport {
    scale: String,
    quality: f64,
    trials: usize,
    seed_base: u64,
    test_confidence: f64,
    epsilon: f64,
    benchmarks: Vec<BenchmarkRecord>,
}

/// Bench-specific options, extracted ahead of the shared parser.
struct BenchArgs {
    trials: usize,
    epsilon: f64,
    test_confidence: f64,
    out: PathBuf,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            trials: 100,
            epsilon: 0.005,
            test_confidence: 0.95,
            out: PathBuf::from("BENCH_conform.json"),
        }
    }
}

/// Pulls the bench-specific flags out of `args`, leaving the shared
/// experiment flags for [`ExperimentConfig::from_arg_list`].
fn bench_args(flags: &mut BenchFlags) -> std::result::Result<BenchArgs, ArgError> {
    let d = BenchArgs::default();
    Ok(BenchArgs {
        trials: flags.value("--trials")?.unwrap_or(d.trials),
        epsilon: flags.value("--epsilon")?.unwrap_or(d.epsilon),
        test_confidence: flags
            .value("--test-confidence")?
            .unwrap_or(d.test_confidence),
        out: flags.value("--out")?.unwrap_or(d.out),
    })
}

/// Compiles one benchmark (cache-backed: a warm artifact cache makes
/// this a pure load), profiles `trials` conformance datasets (also
/// cached, keyed by the conformance seed base), and validates the
/// certificate.
fn validate_benchmark(
    bench: &Arc<dyn mithra_axbench::benchmark::Benchmark>,
    cfg: &ExperimentConfig,
    bench_args: &BenchArgs,
    quality: f64,
) -> Result<(GuaranteeReport, SelfCheckReport)> {
    let compile_cfg = cfg.compile_config(quality)?;
    let session = CompileSession::new(Arc::clone(bench), compile_cfg.clone())
        .train_npu()?
        .profile()?
        .certify()?
        .train_classifiers()?;
    let (compiled, mut report) = session.finish();
    let (profiles, profiling_report) = profile_validation(
        &compiled.function,
        &compile_cfg,
        CONFORM_SEED_BASE,
        bench_args.trials,
    );
    report.stages.push(profiling_report);
    eprint!("{report}");

    let spec = cfg.spec(quality)?;
    let vconfig = ValidatorConfig {
        trials: bench_args.trials,
        scale: cfg.scale,
        threads: cfg.threads,
        test_confidence: bench_args.test_confidence,
        ..ValidatorConfig::default()
    };
    let guarantee = validate_profiles(&compiled, &spec, std::slice::from_ref(&profiles), &vconfig)
        .unwrap_or_else(|e| panic!("{}: conformance validation failed: {e}", bench.name()));
    let losses: Vec<f64> = guarantee
        .trial_records
        .iter()
        .map(|t| t.quality_loss)
        .collect();
    let routes: Vec<usize> = guarantee
        .trial_records
        .iter()
        .map(|t| t.worst_route)
        .collect();
    let selfcheck = self_check(
        &losses,
        &routes,
        1,
        &spec,
        bench_args.epsilon,
        1.0 - bench_args.test_confidence,
    )
    .unwrap_or_else(|e| panic!("{}: self-check failed: {e}", bench.name()));
    Ok((guarantee, selfcheck))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_args = BenchFlags::read_or_exit(&mut args, bench_args);
    let cfg = match ExperimentConfig::from_arg_list(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("bench flags: --trials M --epsilon E --test-confidence C --out PATH");
            std::process::exit(2);
        }
    };
    let quality = cfg.quality_levels.first().copied().unwrap_or(0.05);
    println!("# Figure Y: does the certified guarantee hold on unseen datasets?");
    println!(
        "# scale={:?} quality={:.1}% confidence={:.0}% success-rate={:.0}% \
         trials={} seed-base={} test-confidence={:.0}% epsilon={}\n",
        cfg.scale,
        quality * 100.0,
        cfg.confidence * 100.0,
        cfg.success_rate * 100.0,
        bench_args.trials,
        CONFORM_SEED_BASE,
        bench_args.test_confidence * 100.0,
        bench_args.epsilon
    );

    let mut table = TextTable::new([
        "benchmark",
        "certified",
        "observed",
        "unseen CP lower",
        "p-value",
        "verdict",
        "invocation rate",
        "self-check",
    ]);
    let mut records = Vec::new();
    let mut holds = 0usize;
    let mut marginal = 0usize;
    let mut violated = 0usize;
    let mut mutations_planted = 0usize;
    let mut mutations_detected = 0usize;

    for bench in cfg.suite_or_exit() {
        let name = bench.name();
        let (report, selfcheck) = match validate_benchmark(&bench, &cfg, &bench_args, quality) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: {e}");
                continue;
            }
        };
        println!("{}", report.summary_line());
        match report.verdict {
            Verdict::Holds => holds += 1,
            Verdict::Marginal => marginal += 1,
            Verdict::Violated => violated += 1,
        }
        let detected = selfcheck.outcomes.iter().filter(|o| o.detected).count();
        mutations_planted += selfcheck.outcomes.len();
        mutations_detected += detected;
        for outcome in selfcheck.outcomes.iter().filter(|o| !o.detected) {
            eprintln!(
                "{name}: planted mutation {:?} ESCAPED the audits",
                outcome.mutation
            );
        }
        table.row([
            name.to_string(),
            format!("{:.1}%", report.certified_rate * 100.0),
            format!(
                "{}/{} ({:.1}%)",
                report.successes,
                report.trials,
                report.observed_rate * 100.0
            ),
            format!("{:.1}%", report.unseen_lower_bound * 100.0),
            format!("{:.4}", report.p_value),
            report.verdict.label().to_string(),
            format!("{:.1}%", report.mean_invocation_rate * 100.0),
            format!("{detected}/{} detected", selfcheck.outcomes.len()),
        ]);
        records.push(BenchmarkRecord { report, selfcheck });
    }

    println!("\n{table}");
    println!(
        "guarantee holds outright on {holds} of {} benchmarks \
         ({marginal} marginal, {violated} violated at the exact binomial test); \
         mutation self-check detected {mutations_detected}/{mutations_planted} planted defects",
        records.len()
    );

    let json = JsonReport {
        scale: format!("{:?}", cfg.scale).to_lowercase(),
        quality,
        trials: bench_args.trials,
        seed_base: CONFORM_SEED_BASE,
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
