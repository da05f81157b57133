//! What every workload shares: the run context and scale, the checks
//! that count failed operations, the artifact-cache load, and dataset
//! profiling with spans around each layer call.

use crate::trace::Tracer;
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_core::cache::{fingerprint, CacheConfig};
use mithra_core::function::AcceleratedFunction;
use mithra_core::pipeline::{compile_with_report, CompileConfig, Compiled};
use mithra_core::profile::DatasetProfile;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The paper's six benchmarks, in Table I order.
const SUITE: [&str; 6] = [
    "blackscholes",
    "fft",
    "inversek2j",
    "jmeint",
    "jpeg",
    "sobel",
];

/// How big a run is. [`Scale::full`] is the benchmark; [`Scale::smoke`]
/// runs the same code paths in seconds for the unit tests.
#[derive(Debug, Clone)]
pub struct Scale {
    pub dataset: DatasetScale,
    /// Compile settings; the run fills in threads and the cache.
    pub compile: CompileConfig,
    /// Benchmarks the compile, serve and conform workloads cover.
    pub benchmarks: Vec<&'static str>,
    /// Benchmarks the routed compile covers.
    pub routed: Vec<&'static str>,
    /// Served datasets per benchmark (endpoints) of an unguarded engine.
    pub serve_datasets: usize,
    /// Served datasets per benchmark of a guarded engine.
    pub guarded_datasets: usize,
    /// Unseen trials per `validate` call.
    pub conform_trials: usize,
    /// Conformance trials replayed layer by layer in the traced run.
    pub replay_trials: usize,
    /// Compile datasets per benchmark re-profiled layer by layer in the
    /// traced run.
    pub profiling_replay: usize,
    /// Whether `golden.json` applies (it pins full-scale outputs).
    pub check_goldens: bool,
}

impl Scale {
    /// The benchmark: the paper's compile configuration (q = 5 %,
    /// β = 0.95, S = 0.90, 250 compile datasets, scalar kernel).
    pub fn full() -> Self {
        Self {
            dataset: DatasetScale::Full,
            compile: CompileConfig::default(),
            benchmarks: SUITE.to_vec(),
            routed: vec!["fft", "inversek2j"],
            serve_datasets: 64,
            guarded_datasets: 4,
            conform_trials: 1000,
            replay_trials: 100,
            profiling_replay: 10,
            check_goldens: true,
        }
    }

    /// Every code path of [`Scale::full`] on smoke-sized inputs.
    #[cfg(test)]
    pub fn smoke() -> Self {
        Self {
            dataset: DatasetScale::Smoke,
            compile: CompileConfig::smoke(),
            benchmarks: vec!["inversek2j", "sobel"],
            routed: vec!["inversek2j"],
            serve_datasets: 3,
            guarded_datasets: 2,
            conform_trials: 12,
            replay_trials: 3,
            profiling_replay: 2,
            check_goldens: false,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub scale: Scale,
    /// Compile threads and serve workers.
    pub threads: usize,
    /// Moves the serve and conform datasets and the arrival order.
    pub seed: u64,
    /// How long the measured loop runs (at least one operation).
    pub seconds: f64,
    /// Artifact cache for the workloads that serve compiled artifacts.
    pub cache_dir: PathBuf,
    /// Traced runs do one operation plus the layer replays.
    pub traced: bool,
    pub golden: BTreeMap<String, String>,
}

impl Ctx {
    pub fn suite(&self, names: &[&str]) -> Vec<Arc<dyn Benchmark>> {
        names
            .iter()
            .map(|name| {
                let bench =
                    mithra_axbench::suite::by_name(name).expect("scale names suite members");
                Arc::from(bench)
            })
            .collect()
    }

    /// The compile configuration of a cold compile: no cache.
    pub fn compile_config(&self) -> CompileConfig {
        CompileConfig {
            cache: None,
            threads: Some(self.threads),
            ..self.scale.compile.clone()
        }
    }

    /// Whether the measured loop should stop after `reps` operations that
    /// began at `started`.
    pub fn done(&self, started: Instant, reps: usize) -> bool {
        reps >= 1 && (self.traced || started.elapsed().as_secs_f64() >= self.seconds)
    }

    /// Runs `setup` [`SETUP_REPS`] times (once when traced) inside a
    /// `setup` span and returns the last result with each rep's seconds.
    /// `setup` reports whether every artifact came from the cache, which
    /// the run filled beforehand; a miss is a failed check.
    pub fn setup<T>(
        &self,
        t: &mut Tracer,
        checks: &mut Checks,
        mut setup: impl FnMut(&mut Tracer) -> (T, bool),
    ) -> (T, Vec<f64>) {
        let reps = if self.traced { 1 } else { SETUP_REPS };
        let mut seconds = Vec::with_capacity(reps);
        loop {
            let ((value, warm), secs) = t.timed("setup", "setup", &mut setup);
            if !warm {
                checks.op(vec![format!(
                    "artifact cache {} missed after filling",
                    self.cache_dir.display()
                )]);
            }
            seconds.push(secs);
            if seconds.len() == reps {
                return (value, seconds);
            }
        }
    }

    /// Loads every benchmark's compiled artifact through the artifact
    /// cache, compiling and storing whatever is missing. The flag is
    /// `false` when any stage missed, i.e. the call filled the cache.
    /// Artifacts are compiled with the scale's compile settings, so the
    /// cache holds exactly what the `compile` workload produces.
    pub fn load_artifacts(&self, t: &mut Tracer) -> (Vec<Arc<Compiled>>, bool) {
        let config = CompileConfig {
            cache: Some(CacheConfig::at(&self.cache_dir)),
            ..self.compile_config()
        };
        let mut warm = true;
        let artifacts = self
            .suite(&self.scale.benchmarks)
            .into_iter()
            .map(|bench| {
                let name = bench.name();
                let (compiled, report) = t
                    .span("core.cache", "load", |_| {
                        compile_with_report(bench, &config)
                    })
                    .unwrap_or_else(|e| panic!("compiling {name} into the cache failed: {e}"));
                warm &= report.cache_misses() == 0;
                Arc::new(compiled)
            })
            .collect();
        (artifacts, warm)
    }
}

/// Generates and profiles one dataset, a span around each layer call.
pub fn profile_dataset(
    t: &mut Tracer,
    function: &AcceleratedFunction,
    seed: u64,
    scale: DatasetScale,
) -> DatasetProfile {
    let dataset = t.span("axbench", "dataset", |_| function.dataset(seed, scale));
    t.span("core.profile", "collect", |_| {
        DatasetProfile::collect(function, dataset)
    })
}

/// A per-layer number of the traced run.
#[derive(Debug, Clone, Serialize)]
pub struct LayerMetric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Operation counts, failure messages and output observations of a run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every output the goldens pin, as observed: `key=value`.
    pub observed: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// Records an observed output and, when goldens apply, compares it.
    pub fn golden(&mut self, ctx: &Ctx, problems: &mut Vec<String>, key: String, value: String) {
        if ctx.scale.check_goldens {
            match ctx.golden.get(&key) {
                Some(expected) if *expected == value => {}
                Some(expected) => {
                    problems.push(format!("{key}: golden {expected}, observed {value}"))
                }
                None => problems.push(format!("{key}: no golden value (observed {value})")),
            }
        }
        self.observed.push(format!("{key}={value}"));
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The workload's own end-to-end metric: `(name, samples)`.
    pub primary: (&'static str, Vec<f64>),
    /// Seconds of the operation each primary-metric sample timed.
    pub wall_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub checks: Checks,
    /// Traced runs: the per-layer numbers.
    pub layers: Vec<LayerMetric>,
    /// Traced runs: the span of the timed operation, whose wall the layer
    /// self times must reconcile to.
    pub op_span: Option<usize>,
    /// Traced runs: the replays' total against the stage they decompose.
    pub replay_frac: f64,
    /// Traced runs: what `replay_frac` is a share of.
    pub replay_of: &'static str,
}

impl Outcome {
    pub fn layer(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.layers.push(LayerMetric {
            name: name.into(),
            unit: unit.to_string(),
            value,
        });
    }
}

/// FNV-64 of an artifact's serialized form — the digest goldens pin.
pub fn digest<T: Serialize>(value: &T) -> String {
    let json = serde_json::to_string(value).expect("artifacts serialize");
    format!("{:016x}", fingerprint(&json))
}

/// Parses the golden table: a JSON object of string values.
pub fn parse_golden(text: &str) -> Result<BTreeMap<String, String>, String> {
    let RawValue(value) = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match value {
        Value::Object(entries) => entries
            .into_iter()
            .map(|(key, value)| match value {
                Value::Str(s) => Ok((key, s)),
                other => Err(format!("golden `{key}` is not a string: {other:?}")),
            })
            .collect(),
        other => Err(format!("golden table is not an object: {other:?}")),
    }
}

/// A JSON tree passed through the vendored serde untouched, for output
/// whose keys are only known at run time.
pub struct RawValue(pub Value);

impl Serialize for RawValue {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for RawValue {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        Ok(Self(value.clone()))
    }
}
