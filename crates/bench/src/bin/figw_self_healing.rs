//! Figure W: closed-loop self-healing under input-distribution drift.
//!
//! The PR-2 watchdog answers drift by degrading to precise fallback and
//! staying there — quality is safe, but the certified speedup is gone for
//! good. This binary puts the recovery half of the guardband on display:
//! per benchmark × drift scenario it runs the closed-loop serving session
//! ([`run_session`]) in which the watchdog detects the drift, the
//! re-certification engine collects a fresh calibration window from
//! shadow-sampled precise outputs, certifies a re-trained
//! `(threshold, classifier)` pair under the always-valid sequential test,
//! and hot-swaps it into serving — then validates the re-certified pair
//! with the conformance harness on *unseen drifted* datasets.
//!
//! Scenarios: `step` (sustained drift — the loop must re-certify),
//! `ramp` (gradual onset of the same drift), and `transient`
//! (drift-then-revert — the loop must abort its in-flight window and let
//! the watchdog recover on its own, not wedge serving on a distribution
//! that no longer exists).
//!
//! Bench-specific flags, consumed before the shared experiment flags:
//! `--session-datasets N` (serving sequence length), `--drift-at K`
//! (first drifted dataset), `--drift-scale X` / `--drift-offset X` /
//! `--drift-noise X` (the injected input transform; noise defaults to a
//! per-benchmark severity — see [`default_noise_for`]), `--select-after N` /
//! `--certify-trials N` (re-certifier tuning), `--conform-trials M`
//! (unseen drifted datasets judging each re-certified pair),
//! `--scenarios step,ramp,transient`, `--out PATH` (the machine-readable
//! `BENCH_recert.json`). Shared `--scale`, `--quality`, `--bench`,
//! `--watchdog-period`, `--threads`, `--cache-dir` flags work like every
//! other figure binary.
//!
//! [`run_session`]: mithra_sim::system::run_session

use mithra_axbench::dataset::DriftSpec;
use mithra_bench::runner::{ArgError, BenchFlags};
use mithra_bench::{ExperimentConfig, TextTable};
use mithra_conform::{validate_profiles, GuaranteeReport, ValidatorConfig};
use mithra_core::profile::DatasetProfile;
use mithra_core::recert::RecertConfig;
use mithra_core::session::CompileSession;
use mithra_core::watchdog::{self, GuardState};
use mithra_sim::fault::DriftSchedule;
use mithra_sim::system::{run_session, SessionConfig, SessionResult, SimOptions};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// First seed of the serving-session space — disjoint from the compile
/// (`0..`), validation (`1_000_000..`) and conformance (`3_000_000..`)
/// spaces, so no session dataset was ever seen by a compile or judge.
const SESSION_SEED_BASE: u64 = 7_000_000;

/// First seed of the *drifted* conformance space judging re-certified
/// pairs: offset past everything `figy` can reach. Pinned in
/// [`mithra_core::seeds`].
use mithra_core::seeds::DRIFT_CONFORM_SEED_BASE;

/// One (benchmark, scenario) session in `BENCH_recert.json`.
#[derive(Debug, Serialize)]
struct SessionRecord {
    benchmark: String,
    scenario: String,
    datasets: usize,
    drift_at: usize,
    drift_scale: f64,
    drift_offset: f64,
    drift_noise: f64,
    fell_back: bool,
    swaps: u64,
    recert_attempts: u64,
    certify_trials: u64,
    calibration_datasets: u64,
    exhausted: u64,
    final_epoch: u64,
    final_guard_state: String,
    time_in_monitoring: u64,
    time_in_throttled: u64,
    time_in_fallback: u64,
    time_in_probing: u64,
    recert_cycles: f64,
    recert_energy: f64,
    pre_drift_speedup: f64,
    post_swap_datasets: usize,
    post_swap_speedup: f64,
    post_swap_invocation_rate: f64,
    post_swap_quality_passes: usize,
    recovered: bool,
    conform: Option<GuaranteeReport>,
}

/// The whole `BENCH_recert.json` document.
#[derive(Debug, Serialize)]
struct JsonReport {
    scale: String,
    quality: f64,
    confidence: f64,
    success_rate: f64,
    session_seed_base: u64,
    conform_seed_base: u64,
    sessions: Vec<SessionRecord>,
}

/// Bench-specific options, extracted ahead of the shared parser.
struct BenchArgs {
    session_datasets: usize,
    drift_at: usize,
    drift_scale: f64,
    drift_offset: f64,
    drift_noise: Option<f64>,
    select_after: usize,
    certify_trials: u64,
    conform_trials: usize,
    scenarios: Vec<String>,
    out: PathBuf,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            session_datasets: 160,
            drift_at: 8,
            drift_scale: 1.0,
            drift_offset: 0.0,
            drift_noise: None,
            select_after: 12,
            certify_trials: 60,
            conform_trials: 40,
            scenarios: vec!["step".into(), "ramp".into(), "transient".into()],
            out: PathBuf::from("BENCH_recert.json"),
        }
    }
}

/// Pulls the bench-specific flags out of `args`, leaving the shared
/// experiment flags for [`ExperimentConfig::from_arg_list`].
fn bench_args(flags: &mut BenchFlags) -> Result<BenchArgs, ArgError> {
    let d = BenchArgs::default();
    let scenarios = flags.value::<String>("--scenarios")?.map(|list| {
        list.split(',')
            .map(|s| s.trim().to_string())
            .collect::<Vec<_>>()
    });
    Ok(BenchArgs {
        session_datasets: flags
            .value("--session-datasets")?
            .unwrap_or(d.session_datasets),
        drift_at: flags.value("--drift-at")?.unwrap_or(d.drift_at),
        drift_scale: flags.value("--drift-scale")?.unwrap_or(d.drift_scale),
        drift_offset: flags.value("--drift-offset")?.unwrap_or(d.drift_offset),
        drift_noise: flags.value("--drift-noise")?.or(d.drift_noise),
        select_after: flags.value("--select-after")?.unwrap_or(d.select_after),
        certify_trials: flags.value("--certify-trials")?.unwrap_or(d.certify_trials),
        conform_trials: flags.value("--conform-trials")?.unwrap_or(d.conform_trials),
        scenarios: scenarios.unwrap_or(d.scenarios),
        out: flags.value("--out")?.unwrap_or(d.out),
    })
}

/// Default input-noise severity per benchmark, as a fraction of each
/// input dimension's range.
///
/// The certificates differ by an order of magnitude in how much input
/// noise they tolerate, so no single severity can both breach every
/// guard and stay re-certifiable: `blackscholes` breaks past recovery at
/// 0.17 while `sobel` needs 0.17 before selection finds a certifiable
/// candidate. Each default is the smallest severity on a coarse grid
/// (0.13, 0.2, 0.5) that walks that benchmark's watchdog to Fallback at
/// the headline `q = 5%` spec. `fft` (relative-error metric — the
/// approximation error scales with the signal) and `jmeint` (near-zero
/// admission at q = 5% even clean, so the guard has nothing to sample)
/// never breach on this grid; they are pinned at the top severity and
/// the figure reports their guards honestly holding. Override with
/// `--drift-noise`.
fn default_noise_for(benchmark: &str) -> f64 {
    match benchmark {
        "blackscholes" => 0.13,
        "fft" | "jmeint" => 0.5,
        _ => 0.2,
    }
}

/// The drift schedule for one named scenario.
fn schedule_for(
    scenario: &str,
    bench_args: &BenchArgs,
    noise_std: f64,
    datasets: usize,
) -> DriftSchedule {
    let drift = DriftSpec {
        scale: bench_args.drift_scale as f32,
        offset: bench_args.drift_offset as f32,
        noise_std: noise_std as f32,
        seed: 41,
    };
    let at = bench_args.drift_at;
    match scenario {
        "step" => DriftSchedule::Step { at, drift },
        "ramp" => DriftSchedule::Ramp {
            from: at,
            until: (at + datasets / 8).max(at + 2),
            drift,
        },
        // The excursion reverts a third of the way in: long enough to
        // walk the guard down and start a calibration window, short
        // enough that the session shows the self-recovery path.
        "transient" => DriftSchedule::Transient {
            at,
            until: at + (datasets / 3).max(4),
            drift,
        },
        other => {
            eprintln!("unknown scenario `{other}` (step|ramp|transient)");
            std::process::exit(2);
        }
    }
}

/// Runs one benchmark × scenario session and judges any re-certified
/// pair on unseen drifted datasets.
fn run_scenario(
    bench: &Arc<dyn mithra_axbench::benchmark::Benchmark>,
    cfg: &ExperimentConfig,
    bench_args: &BenchArgs,
    quality: f64,
    scenario: &str,
) -> std::result::Result<SessionRecord, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let compile_cfg = cfg.compile_config(quality).map_err(|e| err(&e))?;
    let session = CompileSession::new(Arc::clone(bench), compile_cfg)
        .train_npu()
        .and_then(CompileSession::profile)
        .and_then(CompileSession::certify)
        .and_then(CompileSession::train_classifiers)
        .map_err(|e| err(&e))?;
    let (compiled, report) = session.finish();
    eprint!("{report}");

    let spec = cfg.spec(quality).map_err(|e| err(&e))?;
    let noise_std = bench_args
        .drift_noise
        .unwrap_or_else(|| default_noise_for(bench.name()));
    let mut recert = RecertConfig::paper_default();
    recert.select_after = bench_args.select_after;
    recert.max_certify_trials = bench_args.certify_trials;
    recert.threads = cfg.threads;
    let config = SessionConfig {
        options: SimOptions::default(),
        spec,
        watchdog: watchdog::calibrate(
            &mut compiled.table.clone(),
            &compiled.profiles,
            compiled.threshold.threshold,
            spec.confidence,
        )
        .map_err(|e| err(&e))?,
        watchdog_period: cfg.watchdog_period.max(1),
        recert,
        scale: cfg.scale,
    };
    let schedule = schedule_for(scenario, bench_args, noise_std, bench_args.session_datasets);
    let seeds: Vec<u64> = (0..bench_args.session_datasets)
        .map(|i| SESSION_SEED_BASE + i as u64)
        .collect();
    let session = run_session(&compiled, &seeds, &schedule, &config).map_err(|e| err(&e))?;

    // A re-certified pair faces the conformance harness on datasets
    // nobody has seen, drawn from the *drifted* distribution it claims
    // to have re-certified.
    let conform = if session.final_point.epoch > 0 {
        let swapped = compiled.with_operating_point(
            session.final_point.threshold,
            session.final_point.classifier.clone(),
        );
        let steady = schedule
            .drift_at(bench_args.session_datasets.saturating_sub(1))
            .unwrap_or(DriftSpec {
                scale: bench_args.drift_scale as f32,
                offset: bench_args.drift_offset as f32,
                noise_std: noise_std as f32,
                seed: 41,
            });
        let profiles: Vec<DatasetProfile> = (0..bench_args.conform_trials)
            .map(|i| {
                let seed = DRIFT_CONFORM_SEED_BASE + i as u64;
                let ds = swapped.function.dataset(seed, cfg.scale).drifted(&steady);
                DatasetProfile::collect(&swapped.function, ds)
            })
            .collect();
        let vconfig = ValidatorConfig {
            trials: bench_args.conform_trials,
            seed_base: DRIFT_CONFORM_SEED_BASE,
            scale: cfg.scale,
            threads: cfg.threads,
            test_confidence: 0.95,
        };
        Some(
            validate_profiles(&swapped, &spec, std::slice::from_ref(&profiles), &vconfig)
                .map_err(|e| err(&e))?,
        )
    } else {
        None
    };

    Ok(record_from(
        bench.name(),
        scenario,
        bench_args,
        noise_std,
        &config,
        &session,
        conform,
    ))
}

/// Summarizes one finished session into its JSON/table record.
fn record_from(
    benchmark: &str,
    scenario: &str,
    bench_args: &BenchArgs,
    drift_noise: f64,
    config: &SessionConfig,
    session: &SessionResult,
    conform: Option<GuaranteeReport>,
) -> SessionRecord {
    let pre: Vec<_> = session.datasets.iter().take(bench_args.drift_at).collect();
    let pre_drift_speedup = if pre.is_empty() {
        0.0
    } else {
        pre.iter().map(|d| d.run.speedup()).sum::<f64>() / pre.len() as f64
    };
    let post: Vec<_> = session.datasets.iter().filter(|d| d.epoch > 0).collect();
    let post_swap_speedup = if post.is_empty() {
        0.0
    } else {
        post.iter().map(|d| d.run.speedup()).sum::<f64>() / post.len() as f64
    };
    let post_swap_invocation_rate = if post.is_empty() {
        0.0
    } else {
        post.iter().map(|d| d.run.invocation_rate()).sum::<f64>() / post.len() as f64
    };
    let post_swap_quality_passes = post
        .iter()
        .filter(|d| d.run.quality_loss <= config.spec.max_quality_loss)
        .count();
    let final_guard_state = session
        .datasets
        .last()
        .map(|d| d.guard_state)
        .unwrap_or(GuardState::Monitoring);
    // "Recovered" means different things per scenario: under sustained
    // drift the loop must swap and serve accelerated again; under a
    // transient it must NOT swap — the guard walks back up on its own
    // once the distribution reverts.
    let recovered = if scenario == "transient" {
        session.swaps.is_empty() && final_guard_state == GuardState::Monitoring
    } else {
        !session.swaps.is_empty() && post_swap_invocation_rate >= config.recert.min_invocation_rate
    };
    SessionRecord {
        benchmark: benchmark.to_string(),
        scenario: scenario.to_string(),
        datasets: session.datasets.len(),
        drift_at: bench_args.drift_at,
        drift_scale: bench_args.drift_scale,
        drift_offset: bench_args.drift_offset,
        drift_noise,
        fell_back: session.watchdog.time_in.fallback > 0,
        swaps: session.recert.swaps,
        recert_attempts: session.recert.attempts,
        certify_trials: session.swaps.iter().map(|s| s.certify_trials).sum(),
        calibration_datasets: session.recert.calibration_datasets,
        exhausted: session.recert.exhausted,
        final_epoch: session.final_point.epoch,
        final_guard_state: format!("{final_guard_state:?}").to_lowercase(),
        time_in_monitoring: session.watchdog.time_in.monitoring,
        time_in_throttled: session.watchdog.time_in.throttled,
        time_in_fallback: session.watchdog.time_in.fallback,
        time_in_probing: session.watchdog.time_in.probing,
        recert_cycles: session.recert_charge.cycles,
        recert_energy: session.recert_charge.energy,
        pre_drift_speedup,
        post_swap_datasets: post.len(),
        post_swap_speedup,
        post_swap_invocation_rate,
        post_swap_quality_passes,
        recovered,
        conform,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_args = BenchFlags::read_or_exit(&mut args, bench_args);
    let cfg = match ExperimentConfig::from_arg_list(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "bench flags: --session-datasets N --drift-at K --drift-scale X \
                 --drift-offset X --drift-noise X --select-after N \
                 --certify-trials N --conform-trials M \
                 --scenarios step,ramp,transient --out PATH"
            );
            std::process::exit(2);
        }
    };
    let quality = cfg.quality_levels.first().copied().unwrap_or(0.05);
    println!("# Figure W: self-healing — re-certify under drift instead of parking in fallback");
    println!(
        "# scale={:?} quality={:.1}% confidence={:.0}% success-rate={:.0}% \
         session-datasets={} drift-at={} drift=(scale {:.2}, offset {:.2}, noise {}) \
         conform-trials={} scenarios={}\n",
        cfg.scale,
        quality * 100.0,
        cfg.confidence * 100.0,
        cfg.success_rate * 100.0,
        bench_args.session_datasets,
        bench_args.drift_at,
        bench_args.drift_scale,
        bench_args.drift_offset,
        bench_args
            .drift_noise
            .map_or_else(|| "per-benchmark".to_string(), |n| format!("{n:.2}")),
        bench_args.conform_trials,
        bench_args.scenarios.join(",")
    );

    let mut table = TextTable::new([
        "benchmark",
        "scenario",
        "noise",
        "guard",
        "swap",
        "post rate",
        "post speedup",
        "post q-pass",
        "recert Mcycles",
        "unseen drifted",
        "recovered",
    ]);
    let mut sessions = Vec::new();
    let mut step_recovered = 0usize;
    let mut step_total = 0usize;

    for bench in cfg.suite_or_exit() {
        let name = bench.name();
        for scenario in &bench_args.scenarios {
            let record = match run_scenario(&bench, &cfg, &bench_args, quality, scenario) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{name}/{scenario}: {e}");
                    continue;
                }
            };
            if scenario == "step" {
                step_total += 1;
                step_recovered += usize::from(record.recovered);
            }
            let guard = if record.fell_back {
                format!("fallback {} ds", record.time_in_fallback)
            } else {
                "never fell back".to_string()
            };
            let swap = if record.swaps > 0 {
                format!(
                    "epoch {} ({} trials, {} attempts)",
                    record.final_epoch, record.certify_trials, record.recert_attempts
                )
            } else if record.exhausted > 0 {
                "exhausted".to_string()
            } else {
                "none".to_string()
            };
            let conform = match &record.conform {
                Some(report) => format!(
                    "{} ({}/{})",
                    report.verdict.label(),
                    report.successes,
                    report.trials
                ),
                None => "-".to_string(),
            };
            table.row([
                record.benchmark.clone(),
                record.scenario.clone(),
                format!("{:.2}", record.drift_noise),
                guard,
                swap,
                format!("{:.1}%", record.post_swap_invocation_rate * 100.0),
                format!("{:.2}x", record.post_swap_speedup),
                format!(
                    "{}/{}",
                    record.post_swap_quality_passes, record.post_swap_datasets
                ),
                format!("{:.1}", record.recert_cycles / 1e6),
                conform,
                if record.recovered { "yes" } else { "NO" }.to_string(),
            ]);
            sessions.push(record);
        }
    }

    println!("{table}");
    println!(
        "closed loop restored certified accelerated operation on {step_recovered} of \
         {step_total} benchmarks under sustained (step) drift — the open-loop guardband \
         restores 0 (permanent fallback)"
    );

    let json = JsonReport {
        scale: format!("{:?}", cfg.scale).to_lowercase(),
        quality,
        confidence: cfg.confidence,
        success_rate: cfg.success_rate,
        session_seed_base: SESSION_SEED_BASE,
        conform_seed_base: DRIFT_CONFORM_SEED_BASE,
        sessions,
    };
    let json = serde_json::to_string(&json).expect("report serializes");
    std::fs::write(&bench_args.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", bench_args.out.display());
        std::process::exit(1);
    });
    eprintln!("wrote {}", bench_args.out.display());
}
