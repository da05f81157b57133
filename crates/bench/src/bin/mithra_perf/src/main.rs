//! `mithra_perf`: the end-to-end and per-layer performance benchmark of
//! MITHRA's compile, serve and conformance paths. See `README.md` next to
//! this package's manifest for what each workload measures and why.
//!
//! ```text
//! mithra_perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! mithra_perf compare <PARENT_DIR> <CHANGE_DIR>
//! ```
//!
//! An untraced run measures one workload for `--seconds`, checks its
//! outputs, prints each end-to-end metric by name with its unit, writes
//! `<out>/<workload>-seed<N>.json`, and prints a one-line JSON summary
//! last. A traced run (`--trace 1`) does one operation with a span around
//! every layer call plus the layer replays, and writes
//! `<out>/<workload>-seed<N>.trace.json`. `--workload all` runs every
//! workload in a fresh process (traced after untraced with `--trace 1`).
//! The exit status is nonzero when any check failed.

mod common;
mod compare;
mod compile;
mod conform;
mod serve;
mod stats;
mod trace;

use common::{parse_golden, Ctx, LayerMetric, Outcome, RawValue, Scale};
use compare::{metric_def, Better, MetricRecord, RunRecord};
use serde::{Serialize, Value};
use stats::Summary;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::{layer_self_seconds, mean_seconds, uncovered_share, Span, Tracer};

const USAGE: &str =
    "usage: mithra_perf --workload <compile|compile-routed|serve|serve-guarded|conform|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     mithra_perf compare <PARENT_DIR> <CHANGE_DIR>";

/// Pinned full-scale outputs; see [`common::Checks::golden`].
const GOLDEN: &str = include_str!("../golden.json");

/// A workload: its name, the function that runs it, and whether it
/// serves compiled artifacts from the artifact cache.
struct Workload {
    name: &'static str,
    run: fn(&Ctx, &mut Tracer) -> Outcome,
    serves_artifacts: bool,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "compile",
        run: compile::compile,
        serves_artifacts: false,
    },
    Workload {
        name: "compile-routed",
        run: compile::compile_routed,
        serves_artifacts: false,
    },
    Workload {
        name: "serve",
        run: serve::serve,
        serves_artifacts: true,
    },
    Workload {
        name: "serve-guarded",
        run: serve::serve_guarded,
        serves_artifacts: true,
    },
    Workload {
        name: "conform",
        run: conform::conform,
        serves_artifacts: true,
    },
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from("target/mithra-perf"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("malformed value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let known = parsed.workload == "all" || WORKLOADS.iter().any(|w| w.name == parsed.workload);
    if !known {
        return Err(format!(
            "unknown or missing --workload `{}`",
            parsed.workload
        ));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [parent, change] => match compare::compare(Path::new(parent), Path::new(change)) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage_error("compare takes two result directories"),
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

/// Hash of the running executable: keys the artifact cache, so two
/// builds never share artifacts, and ties a traced run to its untraced
/// results.
fn exe_hash() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .expect("the running executable is readable");
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    hasher.write(&bytes);
    format!("{:016x}", hasher.finish())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The median, or NaN when every operation failed before it was timed.
fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        Summary::of(samples).median
    }
}

fn run_one(args: &Args) -> ExitCode {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("parse_args checked the workload");
    let exe_hash = exe_hash();
    let golden = match parse_golden(GOLDEN) {
        Ok(golden) => golden,
        Err(e) => {
            eprintln!("golden.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        scale: Scale::full(),
        threads: mithra_core::profile::default_threads(),
        seed: args.seed,
        seconds: args.seconds,
        cache_dir: Path::new("target/mithra-perf-cache").join(&exe_hash),
        traced: args.trace,
        golden,
    };
    let started = std::time::Instant::now();
    if workload.serves_artifacts && !ctx.load_artifacts(&mut Tracer::new(false)).1 {
        // This build's first run had to compile the artifacts. Measure in
        // a fresh process, so that neither the fill's time nor its memory
        // is in the run's numbers.
        eprintln!(
            "[fill] filled the artifact cache {} in {:.1}s (not a metric); rerunning",
            ctx.cache_dir.display(),
            started.elapsed().as_secs_f64()
        );
        let status = std::process::Command::new(
            std::env::current_exe().expect("the running executable has a path"),
        )
        .args(std::env::args_os().skip(1))
        .status();
        return match status {
            Ok(status) if status.success() => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("cannot rerun: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let kernel = mithra_npu::kernel::KernelBackend::resolve(ctx.scale.compile.kernel);
    eprintln!(
        "mithra_perf {} seed {} ({}{}s, {} threads, {kernel} kernel)",
        workload.name,
        args.seed,
        if args.trace { "traced, " } else { "" },
        args.seconds,
        ctx.threads
    );
    let mut t = Tracer::new(args.trace);
    t.workload = workload.name.to_string();
    let outcome = (workload.run)(&ctx, &mut t);
    let stem = args
        .out
        .join(format!("{}-seed{}", workload.name, args.seed));
    let record = RunRecord {
        workload: workload.name.to_string(),
        seed: args.seed,
        exe_hash,
        nproc: ctx.threads,
        simd: mithra_npu::kernel::host_simd_features()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        kernel: kernel.to_string(),
        attempted: outcome.checks.attempted,
        failed: outcome.checks.failed,
        failures: outcome.checks.failures.clone(),
        metrics: Vec::new(),
        observed: outcome.checks.observed.clone(),
    };
    for failure in &record.failures {
        eprintln!("FAILED: {failure}");
    }
    let summary = if args.trace {
        traced_report(&t, &outcome, &record, &stem)
    } else {
        untraced_report(&outcome, record, &stem)
    };
    println!(
        "{}",
        serde_json::to_string(&RawValue(summary)).expect("summary serializes")
    );
    if outcome.checks.failed == 0 && outcome.checks.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `{"value": x, "unit": u}`, the shape of one summary metric.
fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), value.serialize()),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// The last line of a run: correctness, operation counts and metrics.
fn summary_line(record: &RunRecord, metrics: Vec<(String, Value)>) -> Value {
    Value::Object(vec![
        (
            "correct".into(),
            Value::Bool(record.failed == 0 && record.attempted > 0),
        ),
        ("attempted".into(), Value::UInt(record.attempted)),
        ("failed".into(), Value::UInt(record.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn write_json<T: Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string(value).expect("records serialize");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Prints every end-to-end metric, writes the result file, and returns
/// the summary line: the primary wall, set-up and peak memory.
fn untraced_report(outcome: &Outcome, mut record: RunRecord, stem: &Path) -> Value {
    let failed_frac = record.failed as f64 / record.attempted.max(1) as f64;
    let peak_rss = peak_rss_mb();
    let every_run = [
        ("setup_s", outcome.setup_s.clone()),
        ("failed_frac", vec![failed_frac]),
        ("peak_rss_mb", vec![peak_rss]),
    ];
    let metrics = std::iter::once(outcome.primary.clone()).chain(every_run);
    record.metrics = metrics
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(name, samples)| MetricRecord::new(name, samples))
        .collect();
    for m in &record.metrics {
        let percentile = match (m.percentile, m.percentile_value) {
            (Some(p), Some(v)) => format!(", p{p} {v:.6}"),
            _ => String::new(),
        };
        println!(
            "{:<15} {:<16} {:>14.6} {:<6} (median of n={}, IQR [{:.6}, {:.6}]{percentile})",
            record.workload, m.name, m.median, m.unit, m.n, m.q1, m.q3
        );
    }
    write_json(&stem.with_extension("json"), &record);
    summary_line(
        &record,
        vec![
            ("wall_s".into(), metric_value(median(&outcome.wall_s), "s")),
            (
                "setup_s".into(),
                metric_value(median(&outcome.setup_s), "s"),
            ),
            ("peak_rss_mb".into(), metric_value(peak_rss, "MB")),
        ],
    )
}

/// The traced run's file: every span, the self time per layer, the
/// per-layer numbers, reconciliation and tracing overhead.
#[derive(Serialize)]
struct TraceRecord {
    workload: String,
    seed: u64,
    exe_hash: String,
    /// The traced operation's primary end-to-end value.
    traced_value: f64,
    /// The same metric's median over the untraced run with this seed and
    /// executable, when its result file exists.
    untraced_median: Option<f64>,
    /// How much slower tracing made the operation, as a share.
    overhead_frac: Option<f64>,
    /// Share of the operation's wall no layer span covers.
    reconcile_err: f64,
    /// Self seconds per `layer.name` under the operation.
    layer_self_s: Vec<LayerMetric>,
    per_layer: Vec<LayerMetric>,
    spans: Vec<Span>,
}

/// Prints and writes the traced run's per-layer numbers; returns the
/// summary line with the per-layer metrics every workload reports.
fn traced_report(t: &Tracer, outcome: &Outcome, record: &RunRecord, stem: &Path) -> Value {
    let spans = t.spans();
    let op = outcome.op_span.expect("a traced run times one operation");
    let op_s = spans[op].duration_ns() as f64 / 1e9;
    let layers = layer_self_seconds(spans, op);
    let reconcile_err = uncovered_share(spans, op);
    let dominant = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0.0, |(_, s)| s / op_s);

    // Tracing overhead against the untraced run of the same build.
    let (name, samples) = &outcome.primary;
    let traced_value = samples.first().copied().unwrap_or(f64::NAN);
    let untraced_median = std::fs::read_to_string(stem.with_extension("json"))
        .ok()
        .and_then(|text| serde_json::from_str::<RunRecord>(&text).ok())
        .filter(|untraced| untraced.exe_hash == record.exe_hash)
        .and_then(|untraced| untraced.metrics.into_iter().find(|m| m.name == *name))
        .map(|m| m.median);
    let overhead_frac = untraced_median.map(|untraced| match metric_def(name).better {
        Better::Lower => traced_value / untraced - 1.0,
        Better::Higher => untraced / traced_value - 1.0,
    });

    let generic = [
        (
            "axbench.dataset_ms",
            "ms",
            mean_seconds(spans, "axbench", "dataset") * 1e3,
        ),
        (
            "core.profile.collect_ms",
            "ms",
            mean_seconds(spans, "core.profile", "collect") * 1e3,
        ),
        ("trace.dominant_layer_frac", "ratio", dominant),
        ("trace.replay_frac", "ratio", outcome.replay_frac),
        ("trace.reconcile_err", "ratio", reconcile_err),
    ];
    let w = &record.workload;
    println!("{w:<15} {name} traced {traced_value:.6} over a {op_s:.3}s operation");
    match (untraced_median, overhead_frac) {
        (Some(untraced), Some(overhead)) => {
            println!(
                "{w:<15} tracing overhead {:+.2}% (untraced median {untraced:.6})",
                overhead * 100.0
            )
        }
        _ => {
            println!("{w:<15} tracing overhead unknown: no untraced result for this seed and build")
        }
    }
    println!(
        "{w:<15} layer self times sum to {:.2}% of the operation's wall (reconciles within 5%: {})",
        (1.0 - reconcile_err) * 100.0,
        reconcile_err <= 0.05
    );
    for (key, seconds) in &layers {
        println!(
            "{w:<15}   self {key:<40} {seconds:>10.4} s {:>6.1}%",
            seconds / op_s * 100.0
        );
    }
    println!(
        "{w:<15} replay totals {:.1}% of {}",
        outcome.replay_frac * 100.0,
        outcome.replay_of
    );
    let mut per_layer = outcome.layers.clone();
    per_layer.extend(generic.iter().map(|&(name, unit, value)| LayerMetric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }));
    for m in &per_layer {
        println!("{w:<15} {:<40} {:>14.6} {}", m.name, m.value, m.unit);
    }
    write_json(
        &stem.with_extension("trace.json"),
        &TraceRecord {
            workload: record.workload.clone(),
            seed: record.seed,
            exe_hash: record.exe_hash.clone(),
            traced_value,
            untraced_median,
            overhead_frac,
            reconcile_err,
            layer_self_s: layers
                .into_iter()
                .map(|(name, value)| LayerMetric {
                    name,
                    unit: "s".to_string(),
                    value,
                })
                .collect(),
            per_layer,
            spans: spans.to_vec(),
        },
    );
    summary_line(
        record,
        generic
            .iter()
            .map(|(n, u, v)| (n.to_string(), metric_value(*v, u)))
            .collect(),
    )
}

/// Runs every workload in a fresh process of this executable and prints
/// each one's report; the traced run follows the untraced one.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    let mut summaries = Vec::new();
    for workload in &WORKLOADS {
        let modes: &[&str] = if args.trace { &["0", "1"] } else { &["0"] };
        for &mode in modes {
            let started = std::time::Instant::now();
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload.name, "--trace", mode, "--seed"])
                .arg(args.seed.to_string())
                .arg("--seconds")
                .arg(args.seconds.to_string())
                .arg("--out")
                .arg(&args.out)
                .stderr(std::process::Stdio::inherit())
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("cannot run {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            for line in lines {
                println!("{line}");
            }
            println!(
                "{:<15} {} run took {:.1}s, exit {}",
                workload.name,
                if mode == "1" { "traced" } else { "untraced" },
                started.elapsed().as_secs_f64(),
                output.status
            );
            ok &= output.status.success();
            let summary = serde_json::from_str::<RawValue>(last).map_or(Value::Null, |v| v.0);
            let key = if mode == "1" {
                format!("{}.traced", workload.name)
            } else {
                workload.name.to_string()
            };
            summaries.push((key, summary));
        }
    }
    println!(
        "{}",
        serde_json::to_string(&RawValue(Value::Object(summaries))).expect("summary serializes")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Checks;

    fn smoke_ctx(tag: &str, traced: bool) -> Ctx {
        let cache_dir =
            std::env::temp_dir().join(format!("mithra-perf-test-{tag}-{}", std::process::id()));
        Ctx {
            scale: Scale::smoke(),
            threads: 2,
            seed: 1,
            seconds: 0.0,
            cache_dir,
            traced,
            golden: Default::default(),
        }
    }

    fn assert_clean(name: &str, outcome: &Outcome) {
        let Checks {
            attempted,
            failed,
            failures,
            ..
        } = &outcome.checks;
        assert!(*attempted > 0, "{name}: no operation was checked");
        assert_eq!(*failed, 0, "{name}: {failures:?}");
        assert!(
            !outcome.wall_s.is_empty() && !outcome.setup_s.is_empty(),
            "{name}"
        );
        let (metric, samples) = &outcome.primary;
        assert_eq!(samples.len(), outcome.wall_s.len(), "{name}: {metric}");
        assert!(
            samples.iter().all(|v| v.is_finite() && *v > 0.0),
            "{name}: {metric} {samples:?}"
        );
    }

    /// Every workload, untraced and traced, at smoke scale: the
    /// non-golden checks pass, and each traced operation reconciles.
    #[test]
    fn every_workload_runs_clean_at_smoke_scale() {
        for workload in &WORKLOADS {
            let ctx = smoke_ctx(workload.name, false);
            if workload.serves_artifacts {
                assert!(
                    !ctx.load_artifacts(&mut Tracer::new(false)).1,
                    "a fresh cache fills"
                );
            }
            let outcome = (workload.run)(&ctx, &mut Tracer::new(false));
            assert_clean(workload.name, &outcome);
            assert!(
                outcome.layers.is_empty(),
                "{}: untraced runs replay nothing",
                workload.name
            );

            let ctx = Ctx {
                traced: true,
                ..ctx
            };
            let mut t = Tracer::new(true);
            let outcome = (workload.run)(&ctx, &mut t);
            assert_clean(workload.name, &outcome);
            assert!(
                !outcome.layers.is_empty(),
                "{}: traced runs report layers",
                workload.name
            );
            assert!(outcome.replay_frac > 0.0, "{}", workload.name);
            let op = outcome.op_span.expect("traced runs mark their operation");
            let err = uncovered_share(t.spans(), op);
            assert!(
                err < 0.05,
                "{}: layer spans cover only {:.1}%",
                workload.name,
                (1.0 - err) * 100.0
            );
            let _ = std::fs::remove_dir_all(&ctx.cache_dir);
        }
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let parsed = args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (
                parsed.workload.as_str(),
                parsed.seed,
                parsed.seconds,
                parsed.trace
            ),
            ("serve", 7, 3.0, true)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "serve", "--seconds", "0"],
            &["--workload", "serve", "--trace", "2"],
            &["--workload", "serve", "--frobnicate", "1"],
            &["--workload"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn golden_table_parses() {
        let golden = parse_golden(GOLDEN).unwrap();
        assert!(golden.keys().all(|k| WORKLOADS
            .iter()
            .any(|w| k.starts_with(&format!("{}/", w.name)))));
    }
}
