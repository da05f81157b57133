//! Figure V: automated design-space exploration emitting certified
//! per-benchmark Pareto pools.
//!
//! Per benchmark this binary enumerates pool compositions (member count,
//! hidden-width divisor ladders, router kind, labeling margins), ranks
//! every candidate with cheap probe-trained predictors, pays full
//! `CompileSession` compilation plus deployed-in-the-loop certification
//! only for the survivors of the evaluation budget, re-validates every
//! certificate on unseen datasets through `mithra-conform`, and prints
//! the nondominated frontier over (speedup, energy reduction, certified
//! rate). The fixed PR-6 ÷4/÷2/accurate tiering and the pool of one are
//! always force-evaluated as measured anchors, so the headline — how
//! often a *discovered* composition dominates the hand-fixed tiering —
//! is read off the same sweep.
//!
//! Bench-specific flags, consumed before the shared experiment flags:
//! `--budget N` (full evaluations per benchmark; 0 = a quarter of the
//! enumerated space), `--probe-datasets N`, `--probe-epochs N`,
//! `--trials M` (conformance datasets per point), `--test-confidence C`,
//! `--space full|smoke`, `--mutate inverted-cost|off-by-one-quality`
//! (predictor honesty check), `--out PATH` (the machine-readable
//! `BENCH_explore.json`). Shared `--scale`, `--quality`, `--bench`,
//! `--threads`, `--cache-dir` flags work like every other figure binary;
//! the sweep is bit-identical at any `--threads` setting.

use mithra_bench::runner::{ArgError, BenchFlags, VALIDATION_SEED_BASE};
use mithra_bench::{ExperimentConfig, TextTable};
use mithra_conform::CONFORM_SEED_BASE;
use mithra_explore::{
    explore, BenchmarkExploration, DesignSpace, ExploreConfig, PredictorMutation,
};
use serde::Serialize;
use std::path::PathBuf;

/// The whole `BENCH_explore.json` document.
#[derive(Debug, Serialize)]
struct JsonReport {
    scale: String,
    quality: f64,
    space: String,
    budget: usize,
    probe_datasets: usize,
    probe_epochs: usize,
    trials: usize,
    validation_datasets: usize,
    conform_seed_base: u64,
    validation_seed_base: u64,
    test_confidence: f64,
    mutation: Option<PredictorMutation>,
    benchmarks: Vec<BenchmarkExploration>,
}

/// Bench-specific options, extracted ahead of the shared parser.
struct BenchArgs {
    budget: usize,
    probe_datasets: usize,
    probe_epochs: usize,
    trials: usize,
    test_confidence: f64,
    space: String,
    mutation: Option<PredictorMutation>,
    out: PathBuf,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            budget: 0,
            probe_datasets: 5,
            probe_epochs: 8,
            trials: 100,
            test_confidence: 0.95,
            space: String::from("full"),
            mutation: None,
            out: PathBuf::from("BENCH_explore.json"),
        }
    }
}

/// Pulls the bench-specific flags out of `args`, leaving the shared
/// experiment flags for [`ExperimentConfig::from_arg_list`].
fn bench_args(flags: &mut BenchFlags) -> Result<BenchArgs, ArgError> {
    let d = BenchArgs::default();
    let mutation = match flags.value::<String>("--mutate")?.as_deref() {
        None => d.mutation,
        Some("inverted-cost") => Some(PredictorMutation::InvertedCost),
        Some("off-by-one-quality") => Some(PredictorMutation::OffByOneQualityRank),
        Some(other) => return Err(ArgError::new(format!("unknown --mutate `{other}`"))),
    };
    let bench = BenchArgs {
        budget: flags.value("--budget")?.unwrap_or(d.budget),
        probe_datasets: flags.value("--probe-datasets")?.unwrap_or(d.probe_datasets),
        probe_epochs: flags.value("--probe-epochs")?.unwrap_or(d.probe_epochs),
        trials: flags.value("--trials")?.unwrap_or(d.trials),
        test_confidence: flags
            .value("--test-confidence")?
            .unwrap_or(d.test_confidence),
        space: flags.value("--space")?.unwrap_or(d.space),
        mutation,
        out: flags.value("--out")?.unwrap_or(d.out),
    };
    if bench.space != "full" && bench.space != "smoke" {
        return Err(ArgError::new("--space must be `full` or `smoke`"));
    }
    Ok(bench)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_args = BenchFlags::read_or_exit(&mut args, bench_args);
    let cfg = match ExperimentConfig::from_arg_list(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "bench flags: --budget N --probe-datasets N --probe-epochs N --trials M \
                 --test-confidence C --space full|smoke \
                 --mutate inverted-cost|off-by-one-quality --out PATH"
            );
            std::process::exit(2);
        }
    };
    let quality = cfg.quality_levels.first().copied().unwrap_or(0.05);
    let space = if bench_args.space == "smoke" {
        DesignSpace::smoke()
    } else {
        DesignSpace::full()
    };
    println!("# Figure V: design-space exploration over certified approximator pools");
    println!(
        "# scale={:?} quality={:.1}% confidence={:.0}% success-rate={:.0}% space={} ({}) \
         budget={} probes={}x{}ep validation={} trials={} test-confidence={:.0}%\n",
        cfg.scale,
        quality * 100.0,
        cfg.confidence * 100.0,
        cfg.success_rate * 100.0,
        bench_args.space,
        space.candidates.len(),
        if bench_args.budget == 0 {
            String::from("auto")
        } else {
            bench_args.budget.to_string()
        },
        bench_args.probe_datasets,
        bench_args.probe_epochs,
        cfg.validation_datasets,
        bench_args.trials,
        bench_args.test_confidence * 100.0,
    );

    let mut table = TextTable::new([
        "benchmark",
        "enumerated",
        "evaluated",
        "pruned",
        "frontier",
        "holds",
        "beats fixed",
        "best point",
        "speedup",
        "fixed speedup",
    ]);
    let mut reports = Vec::new();
    let mut benchmarks_beating_fixed = 0usize;
    let mut all_frontier_hold = true;

    for bench in cfg.suite_or_exit() {
        let name = bench.name();
        let compile = match cfg.compile_config(quality) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{name}: {e}");
                continue;
            }
        };
        let config = ExploreConfig {
            compile,
            validation_datasets: cfg.validation_datasets,
            validation_seed_base: VALIDATION_SEED_BASE,
            trials: bench_args.trials,
            test_confidence: bench_args.test_confidence,
            probe_datasets: bench_args.probe_datasets,
            probe_epochs: bench_args.probe_epochs,
            budget: (bench_args.budget > 0).then_some(bench_args.budget),
            mutation: bench_args.mutation,
        };
        let report = match explore(&bench, &space, &config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: {e}");
                continue;
            }
        };
        // Warm-rerun observability (stderr, like the compile-session
        // stage reports elsewhere): the text table is byte-pinned, so
        // run-dependent cache counters live here and in the JSON.
        eprintln!(
            "explore [{name}]: {} probe members, {} full evaluations, \
             cache {} hits / {} misses, {} invocations, \
             predictor probes {} ({} reused)",
            report.probe_members,
            report.evaluated,
            report.cache_hits,
            report.cache_misses,
            report.compile_invocations,
            report.predictor_probes,
            report.predictor_reused,
        );

        let holds = report.points.iter().filter(|p| p.holds).count();
        let beats = report.points.iter().filter(|p| p.dominates_fixed).count();
        if beats > 0 {
            benchmarks_beating_fixed += 1;
        }
        for &i in &report.frontier {
            if !report.points[i].holds {
                all_frontier_hold = false;
                eprintln!(
                    "{name}: frontier point `{}` does not hold on unseen data",
                    report.points[i].label
                );
            }
        }
        let fixed_speedup = report
            .fixed_tiering_index
            .map(|i| report.points[i].speedup)
            .unwrap_or(f64::NAN);
        // Best = the frontier point with the highest speedup.
        let best = report
            .frontier
            .iter()
            .map(|&i| &report.points[i])
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup));
        for &i in &report.frontier {
            let p = &report.points[i];
            println!(
                "{name}: frontier `{}` speedup {:.2}x energy {:.2}x certified S>={:.3} [{}]{}",
                p.label,
                p.speedup,
                p.energy_reduction,
                p.certified_rate,
                p.verdict,
                if p.dominates_fixed {
                    " dominates fixed tiering"
                } else {
                    ""
                },
            );
        }
        table.row([
            name.to_string(),
            format!("{}", report.enumerated),
            format!("{}", report.evaluated),
            format!("{}", report.pruned),
            format!("{}", report.frontier.len()),
            format!("{holds}/{}", report.evaluated),
            format!("{beats}"),
            best.map(|p| p.label.clone()).unwrap_or_else(|| "-".into()),
            best.map(|p| format!("{:.2}x", p.speedup))
                .unwrap_or_else(|| "-".into()),
            format!("{fixed_speedup:.2}x"),
        ]);
        reports.push(report);
    }

    println!("\n{table}");
    let total_enumerated: usize = reports.iter().map(|r| r.enumerated).sum();
    let total_evaluated: usize = reports.iter().map(|r| r.evaluated).sum();
    println!(
        "a discovered composition dominates the fixed tiering on {benchmarks_beating_fixed} of \
         {} benchmarks; predictors pruned {} of {total_enumerated} enumerated points \
         ({total_evaluated} fully evaluated); every frontier certificate holds on unseen data: \
         {}",
        reports.len(),
        total_enumerated - total_evaluated,
        if all_frontier_hold { "yes" } else { "NO" },
    );

    let json = JsonReport {
        scale: format!("{:?}", cfg.scale).to_lowercase(),
        quality,
        space: bench_args.space.clone(),
        budget: bench_args.budget,
        probe_datasets: bench_args.probe_datasets,
        probe_epochs: bench_args.probe_epochs,
        trials: bench_args.trials,
        validation_datasets: cfg.validation_datasets,
        conform_seed_base: CONFORM_SEED_BASE,
        validation_seed_base: VALIDATION_SEED_BASE,
        test_confidence: bench_args.test_confidence,
        mutation: bench_args.mutation,
        benchmarks: reports,
    };
    let json = serde_json::to_string(&json).expect("report serializes");
    std::fs::write(&bench_args.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", bench_args.out.display());
        std::process::exit(1);
    });
    eprintln!("wrote {}", bench_args.out.display());
}
