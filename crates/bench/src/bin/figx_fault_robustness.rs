//! Figure X: runtime guardband under injected faults.
//!
//! Sweeps seeded fault rates (bit flips in the accelerator's weights and
//! sigmoid LUT, classifier-table corruption, FIFO stalls/drops) across the
//! benchmarks at the first `--quality` level and compares quality loss and
//! speedup with the runtime quality watchdog off versus on. Rate 0 is the
//! clean baseline (the fault plan is disarmed; the production path runs).
//! `--watchdog-period` caps the sampling period; short datasets sample
//! denser (at least one check per 512 invocations) so detection latency
//! is a bounded fraction of the stream.
//! The footer counts the benchmarks on which the guardband restores the
//! certified quality target that unguarded faulted runs violate.

use mithra_bench::{ExperimentConfig, TextTable};
use mithra_core::watchdog::QualityWatchdog;
use mithra_sim::fault::FaultPlan;
use mithra_sim::report::BenchmarkSummary;
use mithra_sim::system::{run, RunHooks, RunResult, SimOptions};
use mithra_sim::SimError;
use mithra_stats::clopper_pearson::Confidence;

/// Both guard configurations at one fault rate, over every validation
/// dataset. The fault plan is armed once per dataset and shared, so the
/// off/on comparison sees the identical faulted substrate.
struct RatePoint {
    off: BenchmarkSummary,
    on: BenchmarkSummary,
    breaches: u64,
}

/// The watchdog sampling period for one benchmark: `--watchdog-period`
/// caps it, but short datasets sample denser (at least one check per 512
/// invocations) so detection latency is a bounded *fraction* of the
/// stream, not a fixed invocation count.
fn effective_period(cfg: &ExperimentConfig, invocations: usize) -> usize {
    (invocations / 512).clamp(1, cfg.watchdog_period.max(1))
}

fn sweep_rate(
    prepared: &mithra_bench::PreparedBenchmark,
    cfg: &ExperimentConfig,
    rate: f64,
    wconfig: &mithra_core::watchdog::WatchdogConfig,
    quality: f64,
) -> Result<RatePoint, SimError> {
    let options = SimOptions::default();
    let plan = FaultPlan::uniform(cfg.fault_seed, rate);
    let n = prepared.validation.len();
    let mut off_runs: Vec<RunResult> = Vec::with_capacity(n);
    let mut on_runs: Vec<RunResult> = Vec::with_capacity(n);
    let mut breaches = 0u64;
    for profile in &prepared.validation {
        let period = effective_period(cfg, profile.invocation_count());
        let armed = if plan.is_armed() {
            Some(plan.arm(&prepared.compiled, profile.dataset())?)
        } else {
            None
        };
        let (profile, fifo_events): (&_, &[_]) = match &armed {
            Some(a) => (&a.profile, &a.fifo_events),
            None => (profile, &[]),
        };
        let fresh_classifier = || match &armed {
            Some(a) => a.classifier.clone(),
            None => prepared.compiled.table.clone(),
        };

        let mut off_cls = fresh_classifier();
        off_runs.push(run(
            &prepared.compiled,
            profile,
            &mut off_cls,
            &options,
            RunHooks::with_fifo_events(fifo_events),
        )?);

        let mut watchdog = QualityWatchdog::new(*wconfig);
        let mut on_cls = fresh_classifier();
        on_runs.push(run(
            &prepared.compiled,
            profile,
            &mut on_cls,
            &options,
            RunHooks::with_fifo_events(fifo_events).with_watchdog(&mut watchdog, period),
        )?);
        breaches += watchdog.report().breaches;
    }
    Ok(RatePoint {
        off: BenchmarkSummary::try_from_runs(&off_runs, quality)?,
        on: BenchmarkSummary::try_from_runs(&on_runs, quality)?,
        breaches,
    })
}

fn main() {
    let cfg = ExperimentConfig::from_args();
    let quality = cfg.quality_levels.first().copied().unwrap_or(0.05);
    println!("# Figure X: fault robustness with the runtime guardband");
    println!(
        "# scale={:?} datasets={} validation={} quality={:.1}% fault-seed={} watchdog-period={}\n",
        cfg.scale,
        cfg.compile_datasets,
        cfg.validation_datasets,
        quality * 100.0,
        cfg.fault_seed,
        cfg.watchdog_period
    );

    let confidence = match Confidence::new(cfg.confidence) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad confidence: {e}");
            std::process::exit(2);
        }
    };

    let mut rates = vec![0.0];
    rates.extend(cfg.fault_rates.iter().copied());

    let mut restored = 0usize;
    let mut judged = 0usize;

    for bench in cfg.suite_or_exit() {
        let name = bench.name();
        let prepared = match mithra_bench::prepare(bench, &cfg, quality) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{name}: {e}");
                continue;
            }
        };
        let threshold = prepared.compiled.threshold.threshold;
        let wconfig = prepared.compiled.calibration.config(confidence);
        let period = effective_period(
            &cfg,
            prepared
                .validation
                .first()
                .map_or(512, |p| p.invocation_count()),
        );
        eprintln!(
            "{name}: watchdog limit {:.3} (threshold {threshold:.4}), sampling period {period}",
            wconfig.max_violation_rate
        );

        let mut table = TextTable::new([
            "fault rate",
            "off: quality",
            "off: speedup",
            "on: quality",
            "on: speedup",
            "on: breaches",
        ]);
        // A benchmark is restored if, at every armed rate where the
        // unguarded run violates the target, the guarded run meets it —
        // and at least one such rate exists.
        let mut violated_any = false;
        let mut restored_all = true;
        for &rate in &rates {
            let point = match sweep_rate(&prepared, &cfg, rate, &wconfig, quality) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{name} @ rate {rate}: {e}");
                    continue;
                }
            };
            if rate > 0.0 && point.off.quality_loss > quality {
                violated_any = true;
                if point.on.quality_loss > quality {
                    restored_all = false;
                }
            }
            table.row([
                format!("{rate}"),
                format!("{:.4}", point.off.quality_loss),
                format!("{:.2}x", point.off.speedup),
                format!("{:.4}", point.on.quality_loss),
                format!("{:.2}x", point.on.speedup),
                format!("{}", point.breaches),
            ]);
        }
        judged += 1;
        if violated_any && restored_all {
            restored += 1;
        }
        println!("## {name}\n{table}");
    }

    println!(
        "guardband restored the certified quality target on {restored} of {judged} benchmarks \
         where unguarded faults violated it"
    );
}
