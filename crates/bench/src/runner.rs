//! The shared experiment runner.
//!
//! Every figure/table binary drives the same staged compile pipeline
//! ([`CompileSession`] in `mithra-core`); this module adds the harness
//! conveniences on top: command-line parsing, the quality-independent
//! [`BenchmarkBase`] that sweeps re-certify against, validation-set
//! profiling, and design evaluation. Per-stage instrumentation
//! ([`mithra_core::session::StageReport`]) is printed to **stderr** so
//! the tables on stdout stay byte-comparable across runs.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_core::cache::CacheConfig;
use mithra_core::classifier::Classifier;
use mithra_core::function::{AcceleratedFunction, NpuTrainConfig};
use mithra_core::pipeline::{CompileConfig, Compiled};
use mithra_core::profile::DatasetProfile;
use mithra_core::random::RandomFilter;
use mithra_core::session::{profile_validation, CompileSession};
use mithra_core::threshold::QualitySpec;
use mithra_core::Result;
use mithra_sim::report::{BenchmarkSummary, CompileCost};
use mithra_sim::system::{simulate, RunResult, SimOptions};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

pub use mithra_core::profile::{collect_profiles_parallel, default_threads};

/// Seed offset separating validation datasets from compilation datasets —
/// the paper's "250 different unseen datasets". Re-exported from the
/// pinned workspace partition in [`mithra_core::seeds`].
pub use mithra_core::seeds::VALIDATION_SEED_BASE;

/// Default root of the on-disk artifact cache (relative to the working
/// directory; disable with `--no-cache`).
pub const DEFAULT_CACHE_DIR: &str = "target/mithra-cache";

const USAGE: &str = "usage: --scale smoke|full --datasets N --validation N \
                     --quality 2.5,5,7.5,10 --confidence 0.95 --success-rate 0.90 \
                     --bench name,name --npu-epochs N --npu-train-datasets N \
                     --cache-dir PATH --no-cache --fault-rates 0.0005,0.002,0.008 \
                     --fault-seed N --watchdog-period N --threads N";

/// A command-line parsing or configuration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    message: String,
}

impl ArgError {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The problem, without the usage banner.
    pub fn message(&self) -> &str {
        &self.message
    }
}

/// A binary's own flags, pulled out of the argument list ahead of
/// [`ExperimentConfig::from_arg_list`], which rejects flags it does not
/// know. Every flag not asked for stays in place for the shared parser.
#[derive(Debug)]
pub struct BenchFlags<'a> {
    args: &'a mut Vec<String>,
}

impl<'a> BenchFlags<'a> {
    /// Wraps the argument list the flags are taken from.
    pub fn new(args: &'a mut Vec<String>) -> Self {
        Self { args }
    }

    /// Removes every `flag VALUE` pair and returns the last value,
    /// parsed as `T` (leading and trailing whitespace ignored); `None`
    /// when the flag is absent.
    ///
    /// # Errors
    ///
    /// [`ArgError`] when the flag is last with no value, or a value does
    /// not parse as `T`.
    pub fn value<T: std::str::FromStr>(
        &mut self,
        flag: &str,
    ) -> std::result::Result<Option<T>, ArgError> {
        let mut last = None;
        while let Some(i) = self.args.iter().position(|a| a == flag) {
            if i + 1 >= self.args.len() {
                return Err(ArgError::new(format!("missing value for {flag}")));
            }
            let value = self.args.remove(i + 1);
            self.args.remove(i);
            let parsed = value
                .trim()
                .parse()
                .map_err(|_| ArgError::new(format!("malformed value `{value}` for {flag}")))?;
            last = Some(parsed);
        }
        Ok(last)
    }

    /// Removes every occurrence of the switch `flag`, returning whether
    /// it was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != flag);
        self.args.len() != before
    }

    /// Runs `read` over the flags of `args`; on an error prints the
    /// problem and exits with status 2 — the binary-boundary wrapper.
    pub fn read_or_exit<T>(
        args: &'a mut Vec<String>,
        read: impl FnOnce(&mut Self) -> std::result::Result<T, ArgError>,
    ) -> T {
        read(&mut Self::new(args)).unwrap_or_else(|e| {
            eprintln!("{}", e.message());
            std::process::exit(2);
        })
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n{USAGE}", self.message)
    }
}

impl std::error::Error for ArgError {}

/// Experiment-wide configuration, parsed from the command line.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset scale.
    pub scale: DatasetScale,
    /// Number of compilation datasets (paper: 250).
    pub compile_datasets: usize,
    /// Number of unseen validation datasets (paper: 250).
    pub validation_datasets: usize,
    /// Quality-loss levels to sweep (fractions).
    pub quality_levels: Vec<f64>,
    /// Confidence level β.
    pub confidence: f64,
    /// Required success rate S.
    pub success_rate: f64,
    /// Benchmarks to run (defaults to the whole suite).
    pub benchmarks: Vec<String>,
    /// NPU training settings, honored by every compile path.
    pub npu: NpuTrainConfig,
    /// Compilation datasets feeding NPU training (clamped to
    /// `compile_datasets`).
    pub npu_train_datasets: usize,
    /// Artifact-cache root; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Per-bit/per-invocation fault rates the robustness sweep injects
    /// (raw probabilities, not percentages).
    pub fault_rates: Vec<f64>,
    /// Master seed for deterministic fault plans.
    pub fault_seed: u64,
    /// Sampling period of the runtime quality watchdog (every N-th
    /// approximate decision is shadow-checked).
    pub watchdog_period: usize,
    /// Worker threads, shared by parallel profiling and the serving
    /// worker pool (`None` = available parallelism). Wall time only —
    /// results are thread-count independent.
    pub threads: Option<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            scale: DatasetScale::Full,
            compile_datasets: 250,
            validation_datasets: 250,
            quality_levels: vec![0.025, 0.05, 0.075, 0.10],
            confidence: 0.95,
            success_rate: 0.90,
            benchmarks: mithra_axbench::suite::all()
                .iter()
                .map(|b| b.name().to_string())
                .collect(),
            npu: NpuTrainConfig::default(),
            npu_train_datasets: 10,
            cache_dir: Some(PathBuf::from(DEFAULT_CACHE_DIR)),
            fault_rates: vec![0.0005, 0.002, 0.008],
            fault_seed: 0xFA17,
            watchdog_period: 16,
            threads: None,
        }
    }
}

impl ExperimentConfig {
    /// Parses the process arguments, printing the usage banner and
    /// exiting with status 2 on error — the binary-boundary wrapper
    /// around [`from_arg_list`](Self::from_arg_list).
    pub fn from_args() -> Self {
        match Self::from_arg_list(&std::env::args().skip(1).collect::<Vec<_>>()) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for unknown flags, missing values, and
    /// malformed values.
    pub fn from_arg_list(args: &[String]) -> std::result::Result<Self, ArgError> {
        let mut cfg = Self::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let take = || -> std::result::Result<String, ArgError> {
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| ArgError::new(format!("missing value for {flag}")))
            };
            fn parse<T: std::str::FromStr>(
                flag: &str,
                value: &str,
            ) -> std::result::Result<T, ArgError> {
                value
                    .parse()
                    .map_err(|_| ArgError::new(format!("malformed value `{value}` for {flag}")))
            }
            match flag {
                "--scale" => {
                    cfg.scale = match take()?.as_str() {
                        "smoke" => DatasetScale::Smoke,
                        "full" => DatasetScale::Full,
                        other => {
                            return Err(ArgError::new(format!(
                                "unknown scale `{other}` (smoke|full)"
                            )))
                        }
                    };
                    i += 2;
                }
                "--datasets" => {
                    cfg.compile_datasets = parse(flag, &take()?)?;
                    i += 2;
                }
                "--validation" => {
                    cfg.validation_datasets = parse(flag, &take()?)?;
                    i += 2;
                }
                "--quality" => {
                    cfg.quality_levels = take()?
                        .split(',')
                        .map(|s| parse::<f64>(flag, s.trim()).map(|q| q / 100.0))
                        .collect::<std::result::Result<_, _>>()?;
                    i += 2;
                }
                "--confidence" => {
                    cfg.confidence = parse(flag, &take()?)?;
                    i += 2;
                }
                "--success-rate" => {
                    cfg.success_rate = parse(flag, &take()?)?;
                    i += 2;
                }
                "--bench" => {
                    cfg.benchmarks = take()?.split(',').map(str::to_string).collect();
                    i += 2;
                }
                "--npu-epochs" => {
                    cfg.npu.epochs = Some(parse(flag, &take()?)?);
                    i += 2;
                }
                "--npu-train-datasets" => {
                    cfg.npu_train_datasets = parse(flag, &take()?)?;
                    i += 2;
                }
                "--cache-dir" => {
                    cfg.cache_dir = Some(PathBuf::from(take()?));
                    i += 2;
                }
                "--no-cache" => {
                    cfg.cache_dir = None;
                    i += 1;
                }
                "--fault-rates" => {
                    cfg.fault_rates = take()?
                        .split(',')
                        .map(|s| parse::<f64>(flag, s.trim()))
                        .collect::<std::result::Result<_, _>>()?;
                    i += 2;
                }
                "--fault-seed" => {
                    cfg.fault_seed = parse(flag, &take()?)?;
                    i += 2;
                }
                "--watchdog-period" => {
                    cfg.watchdog_period = parse(flag, &take()?)?;
                    i += 2;
                }
                "--threads" => {
                    let t: usize = parse(flag, &take()?)?;
                    cfg.threads = (t > 0).then_some(t);
                    i += 2;
                }
                other => {
                    return Err(ArgError::new(format!("unknown argument `{other}`")));
                }
            }
        }
        Ok(cfg)
    }

    /// The quality spec at one quality level.
    ///
    /// # Errors
    ///
    /// Propagates out-of-range spec parameters.
    pub fn spec(&self, quality: f64) -> Result<QualitySpec> {
        QualitySpec::new(quality, self.confidence, self.success_rate)
    }

    /// The suite members selected by `--bench`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for an unknown benchmark name.
    pub fn suite(&self) -> std::result::Result<Vec<Arc<dyn Benchmark>>, ArgError> {
        self.benchmarks
            .iter()
            .map(|n| {
                mithra_axbench::suite::by_name(n)
                    .map(|b| {
                        let b: Arc<dyn Benchmark> = b.into();
                        b
                    })
                    .ok_or_else(|| ArgError::new(format!("unknown benchmark `{n}`")))
            })
            .collect()
    }

    /// [`suite`](Self::suite) with the binary-boundary exit on error.
    pub fn suite_or_exit(&self) -> Vec<Arc<dyn Benchmark>> {
        match self.suite() {
            Ok(suite) => suite,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The single [`CompileConfig`] every compile path derives from this
    /// experiment configuration — the one place `--npu-*`, scale, seeds
    /// and the cache are translated, so the runner can no longer drift
    /// from `pipeline::compile`.
    ///
    /// # Errors
    ///
    /// Propagates out-of-range spec parameters.
    pub fn compile_config(&self, quality: f64) -> Result<CompileConfig> {
        Ok(CompileConfig {
            scale: self.scale,
            compile_datasets: self.compile_datasets,
            seed_base: 0,
            spec: self.spec(quality)?,
            npu: self.npu.clone(),
            npu_train_datasets: self.npu_train_datasets.min(self.compile_datasets.max(1)),
            cache: self.cache_dir.clone().map(CacheConfig::at),
            threads: self.threads,
            ..CompileConfig::default()
        })
    }
}

/// A benchmark compiled at one quality level, with its validation
/// profiles ready to simulate.
#[derive(Debug)]
pub struct PreparedBenchmark {
    /// The benchmark name.
    pub name: &'static str,
    /// The compile-flow output.
    pub compiled: Compiled,
    /// Profiles of the unseen validation datasets.
    pub validation: Vec<DatasetProfile>,
}

/// The quality-independent part of an experiment: trained NPU plus
/// compile and validation profiles. Sweeps over quality levels or
/// success rates re-certify against this base instead of re-profiling.
#[derive(Debug)]
pub struct BenchmarkBase {
    /// The benchmark name.
    pub name: &'static str,
    /// The benchmark bound to its trained accelerator.
    pub function: AcceleratedFunction,
    /// Profiles of the compilation datasets.
    pub profiles: Vec<DatasetProfile>,
    /// Profiles of the unseen validation datasets.
    pub validation: Vec<DatasetProfile>,
}

/// Trains the NPU and profiles both dataset populations — everything that
/// does not depend on the quality level — through the first two
/// [`CompileSession`] stages. Stage instrumentation goes to stderr.
///
/// # Errors
///
/// Propagates NPU training failures.
pub fn prepare_base(
    benchmark: Arc<dyn Benchmark>,
    config: &ExperimentConfig,
) -> Result<BenchmarkBase> {
    let name = benchmark.name();
    let quality = config.quality_levels.first().copied().unwrap_or(0.05);
    let compile_cfg = config.compile_config(quality)?;
    let session = CompileSession::new(benchmark, compile_cfg.clone())
        .train_npu()?
        .profile()?;
    let (function, profiles, mut report) = session.into_parts();
    let (validation, validation_report) = profile_validation(
        &function,
        &compile_cfg,
        VALIDATION_SEED_BASE,
        config.validation_datasets,
    );
    report.stages.push(validation_report);
    eprint!("{report}");
    eprintln!("{}", CompileCost::from_session(&report));
    Ok(BenchmarkBase {
        name,
        function,
        profiles,
        validation,
    })
}

/// Certifies one quality level against a prepared base and trains the
/// classifiers — the quality-dependent remainder of the compile flow,
/// resumed mid-[`CompileSession`].
///
/// # Errors
///
/// Propagates certification and training failures.
pub fn certify_at(
    base: &BenchmarkBase,
    config: &ExperimentConfig,
    quality: f64,
) -> Result<PreparedBenchmark> {
    let compile_cfg = config.compile_config(quality)?;
    let session = CompileSession::resume_with_profiles(
        base.function.clone(),
        base.profiles.clone(),
        compile_cfg,
    )
    .certify()?
    .train_classifiers()?;
    let (compiled, report) = session.finish();
    eprint!("{report}");
    eprintln!("{}", CompileCost::from_session(&report));
    Ok(PreparedBenchmark {
        name: base.name,
        compiled,
        validation: base.validation.clone(),
    })
}

/// Runs the full compile flow for one benchmark at one quality level and
/// profiles its validation set.
///
/// # Errors
///
/// Propagates compile-flow failures (most notably
/// [`mithra_core::MithraError::Uncertifiable`]).
pub fn prepare(
    benchmark: Arc<dyn Benchmark>,
    config: &ExperimentConfig,
    quality: f64,
) -> Result<PreparedBenchmark> {
    let name = benchmark.name();
    let compile_cfg = config.compile_config(quality)?;
    let session = CompileSession::new(benchmark, compile_cfg.clone())
        .train_npu()?
        .profile()?
        .certify()?
        .train_classifiers()?;
    let (compiled, mut report) = session.finish();
    let (validation, validation_report) = profile_validation(
        &compiled.function,
        &compile_cfg,
        VALIDATION_SEED_BASE,
        config.validation_datasets,
    );
    report.stages.push(validation_report);
    eprint!("{report}");
    eprintln!("{}", CompileCost::from_session(&report));
    Ok(PreparedBenchmark {
        name,
        compiled,
        validation,
    })
}

/// Which design drives the quality-control decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DesignKind {
    /// The ideal, infeasible oracle.
    Oracle,
    /// The MISR multi-table classifier.
    Table,
    /// The MLP classifier run on the NPU.
    Neural,
    /// Input-oblivious random filtering at the given invocation rate.
    Random(f64),
    /// Always invoke the accelerator (no quality control).
    AlwaysApproximate,
}

impl DesignKind {
    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            DesignKind::Oracle => "oracle",
            DesignKind::Table => "table",
            DesignKind::Neural => "neural",
            DesignKind::Random(_) => "random",
            DesignKind::AlwaysApproximate => "always",
        }
    }
}

/// The evaluation of one design on one prepared benchmark.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Per-validation-dataset simulation results.
    pub runs: Vec<RunResult>,
    /// The aggregate.
    pub summary: BenchmarkSummary,
}

/// Simulates `design` over every validation dataset of `prepared`.
pub fn evaluate(prepared: &PreparedBenchmark, design: DesignKind, quality: f64) -> EvalResult {
    let options = SimOptions::default();
    let runs: Vec<RunResult> = prepared
        .validation
        .iter()
        .map(|profile| {
            let mut classifier: Box<dyn Classifier> = match design {
                DesignKind::Oracle => Box::new(prepared.compiled.oracle_for(profile)),
                DesignKind::Table => Box::new(prepared.compiled.table.clone()),
                DesignKind::Neural => Box::new(prepared.compiled.neural.clone()),
                DesignKind::Random(rate) => {
                    Box::new(RandomFilter::new(rate, profile.dataset().seed()))
                }
                DesignKind::AlwaysApproximate => Box::new(RandomFilter::new(1.0, 0)),
            };
            simulate(&prepared.compiled, profile, classifier.as_mut(), &options)
        })
        .collect();
    let summary = BenchmarkSummary::from_runs(&runs, quality);
    EvalResult { runs, summary }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: DatasetScale::Smoke,
            compile_datasets: 15,
            validation_datasets: 8,
            quality_levels: vec![0.10],
            confidence: 0.9,
            success_rate: 0.5,
            benchmarks: vec!["sobel".into()],
            cache_dir: None,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn prepare_and_evaluate_sobel() {
        let cfg = smoke_config();
        let bench = cfg.suite().unwrap().remove(0);
        let prepared = prepare(bench, &cfg, 0.10).unwrap();
        assert_eq!(prepared.validation.len(), 8);

        let oracle = evaluate(&prepared, DesignKind::Oracle, 0.10);
        let table = evaluate(&prepared, DesignKind::Table, 0.10);
        assert_eq!(oracle.runs.len(), 8);
        // The oracle never makes false decisions.
        assert_eq!(oracle.summary.false_positive_rate, 0.0);
        assert_eq!(oracle.summary.false_negative_rate, 0.0);
        // The oracle's invocation rate upper-bounds the table's
        // (both at the same threshold; the table is conservative).
        assert!(
            oracle.summary.invocation_rate >= table.summary.invocation_rate - 0.05,
            "oracle {} vs table {}",
            oracle.summary.invocation_rate,
            table.summary.invocation_rate
        );
    }

    #[test]
    fn design_labels() {
        assert_eq!(DesignKind::Oracle.label(), "oracle");
        assert_eq!(DesignKind::Random(0.5).label(), "random");
    }

    #[test]
    fn arg_list_parsing() {
        let args: Vec<String> = [
            "--scale",
            "smoke",
            "--datasets",
            "33",
            "--validation",
            "7",
            "--quality",
            "2.5,5",
            "--confidence",
            "0.9",
            "--success-rate",
            "0.8",
            "--bench",
            "sobel,fft",
            "--npu-epochs",
            "12",
            "--npu-train-datasets",
            "4",
            "--fault-rates",
            "0.001,0.01",
            "--fault-seed",
            "42",
            "--watchdog-period",
            "8",
            "--threads",
            "3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = ExperimentConfig::from_arg_list(&args).unwrap();
        assert_eq!(cfg.scale, DatasetScale::Smoke);
        assert_eq!(cfg.compile_datasets, 33);
        assert_eq!(cfg.validation_datasets, 7);
        assert_eq!(cfg.quality_levels, vec![0.025, 0.05]);
        assert_eq!(cfg.confidence, 0.9);
        assert_eq!(cfg.success_rate, 0.8);
        assert_eq!(cfg.benchmarks, vec!["sobel".to_string(), "fft".to_string()]);
        assert_eq!(cfg.npu.epochs, Some(12));
        assert_eq!(cfg.npu_train_datasets, 4);
        assert_eq!(cfg.fault_rates, vec![0.001, 0.01]);
        assert_eq!(cfg.fault_seed, 42);
        assert_eq!(cfg.watchdog_period, 8);
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.suite().unwrap().len(), 2);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let args: Vec<String> = ["--threads", "0"].iter().map(|s| s.to_string()).collect();
        let cfg = ExperimentConfig::from_arg_list(&args).unwrap();
        assert_eq!(cfg.threads, None);
        assert_eq!(cfg.compile_config(0.05).unwrap().threads, None);
        let args: Vec<String> = ["--threads", "2"].iter().map(|s| s.to_string()).collect();
        let cfg = ExperimentConfig::from_arg_list(&args).unwrap();
        assert_eq!(cfg.compile_config(0.05).unwrap().threads, Some(2));
    }

    #[test]
    fn empty_arg_list_gives_paper_defaults() {
        let cfg = ExperimentConfig::from_arg_list(&[]).unwrap();
        assert_eq!(cfg.compile_datasets, 250);
        assert_eq!(cfg.validation_datasets, 250);
        assert_eq!(cfg.confidence, 0.95);
        assert_eq!(cfg.success_rate, 0.90);
        assert_eq!(cfg.benchmarks.len(), 6);
        assert_eq!(cfg.npu, NpuTrainConfig::default());
        assert_eq!(cfg.cache_dir, Some(PathBuf::from(DEFAULT_CACHE_DIR)));
        assert_eq!(cfg.fault_rates, vec![0.0005, 0.002, 0.008]);
        assert_eq!(cfg.watchdog_period, 16);
    }

    #[test]
    fn cache_flags_parse() {
        let args: Vec<String> = ["--no-cache"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            ExperimentConfig::from_arg_list(&args).unwrap().cache_dir,
            None
        );
        let args: Vec<String> = ["--cache-dir", "/tmp/mycache"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            ExperimentConfig::from_arg_list(&args).unwrap().cache_dir,
            Some(PathBuf::from("/tmp/mycache"))
        );
    }

    #[test]
    fn malformed_values_are_errors() {
        let cases: &[&[&str]] = &[
            &["--datasets", "many"],
            &["--validation", "-3"],
            &["--scale", "tiny"],
            &["--quality", "2.5,oops"],
            &["--confidence", "high"],
            &["--success-rate", ""],
            &["--npu-epochs", "1.5"],
            &["--npu-train-datasets", "x"],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            let err =
                ExperimentConfig::from_arg_list(&args).expect_err(&format!("{case:?} should fail"));
            assert!(
                err.message().contains(case[0]) || err.message().contains(case[1]),
                "error `{err}` should mention the flag or value"
            );
        }
    }

    #[test]
    fn missing_value_and_unknown_flag_are_errors() {
        let args: Vec<String> = vec!["--datasets".into()];
        let err = ExperimentConfig::from_arg_list(&args).unwrap_err();
        assert!(err.message().contains("missing value"));
        assert!(format!("{err}").contains("usage:"));

        let args: Vec<String> = vec!["--frobnicate".into()];
        let err = ExperimentConfig::from_arg_list(&args).unwrap_err();
        assert!(err.message().contains("unknown argument"));

        // The NPU has one arithmetic, so there is no backend to select.
        let args: Vec<String> = vec!["--kernel".into(), "simd".into()];
        let err = ExperimentConfig::from_arg_list(&args).unwrap_err();
        assert!(err.message().contains("unknown argument `--kernel`"));
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let cfg = ExperimentConfig {
            benchmarks: vec!["sobel".into(), "nonesuch".into()],
            ..ExperimentConfig::default()
        };
        let err = cfg.suite().unwrap_err();
        assert!(err.message().contains("nonesuch"));
    }

    #[test]
    fn compile_config_honors_npu_settings() {
        let mut cfg = smoke_config();
        cfg.npu = NpuTrainConfig {
            epochs: Some(7),
            max_samples: 123,
            seed: 99,
        };
        cfg.npu_train_datasets = 100; // clamped to compile_datasets
        let cc = cfg.compile_config(0.10).unwrap();
        assert_eq!(cc.npu, cfg.npu);
        assert_eq!(cc.npu_train_datasets, 15);
        assert_eq!(cc.scale, DatasetScale::Smoke);
        assert!(cc.cache.is_none());
    }

    fn arg_vec(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn bench_flag_value_is_taken_and_parsed_as_its_type() {
        let mut args = arg_vec(&["--trials", "12", "--epsilon", " 0.25 ", "--trials", "7"]);
        let mut flags = BenchFlags::new(&mut args);
        assert_eq!(flags.value::<usize>("--trials"), Ok(Some(7)));
        assert_eq!(flags.value::<f64>("--epsilon"), Ok(Some(0.25)));
        assert_eq!(flags.value::<u64>("--absent"), Ok(None));
        assert!(args.is_empty(), "{args:?}");
    }

    #[test]
    fn bench_flag_switch_is_taken() {
        let mut args = arg_vec(&["--pool-check", "--no-cache"]);
        let mut flags = BenchFlags::new(&mut args);
        assert!(flags.switch("--pool-check"));
        assert!(!flags.switch("--pool-check"));
        assert_eq!(args, arg_vec(&["--no-cache"]));
    }

    #[test]
    fn bench_flag_missing_value_is_an_error() {
        let mut args = arg_vec(&["--scale", "smoke", "--trials"]);
        let err = BenchFlags::new(&mut args)
            .value::<usize>("--trials")
            .unwrap_err();
        assert_eq!(err.message(), "missing value for --trials");
    }

    #[test]
    fn bench_flag_malformed_value_is_an_error() {
        for bad in ["2.5", "-3", "many"] {
            let mut args = arg_vec(&["--trials", bad]);
            let err = BenchFlags::new(&mut args)
                .value::<usize>("--trials")
                .unwrap_err();
            assert_eq!(
                err.message(),
                format!("malformed value `{bad}` for --trials")
            );
        }
        let mut args = arg_vec(&["--trials", "many", "--trials", "4"]);
        assert!(BenchFlags::new(&mut args)
            .value::<usize>("--trials")
            .is_err());
    }

    #[test]
    fn bench_flags_pass_the_shared_flags_through() {
        let mut args = arg_vec(&[
            "--scale",
            "smoke",
            "--trials",
            "3",
            "--bench",
            "sobel",
            "--pool-check",
            "--no-cache",
        ]);
        let mut flags = BenchFlags::new(&mut args);
        assert_eq!(flags.value::<usize>("--trials"), Ok(Some(3)));
        assert!(flags.switch("--pool-check"));
        assert_eq!(
            args,
            arg_vec(&["--scale", "smoke", "--bench", "sobel", "--no-cache"])
        );
        let cfg = ExperimentConfig::from_arg_list(&args).unwrap();
        assert_eq!(cfg.scale, DatasetScale::Smoke);
        assert_eq!(cfg.benchmarks, vec![String::from("sobel")]);
        assert!(cfg.cache_dir.is_none());
    }
}
