//! The staged compile pipeline (paper Figure 2, left half) as a typestate
//! session.
//!
//! A [`CompileSession`] advances through typed stage artifacts:
//!
//! ```text
//! Pending ──train_npu()──▶ TrainedFunction ──profile()──▶ Profiles
//!     ──certify()──▶ CertifiedThreshold ──train_classifiers()──▶
//!     Classifiers ──finish()──▶ (Compiled, SessionReport)
//! ```
//!
//! Each transition consumes the session and returns it in the next state,
//! so stage ordering is enforced at compile time — there is no way to
//! certify a threshold before profiling, or to train classifiers against
//! a stale threshold. Every transition:
//!
//! * consults the optional on-disk [`ArtifactCache`] first (keyed by a
//!   config+benchmark+seed fingerprint that also covers all upstream
//!   stages), skipping the work entirely on a hit;
//! * records a [`StageReport`] — wall time, invocation count and cache
//!   outcome — so harnesses can show exactly where compile time went.
//!
//! Sweeps that reuse a quality-independent base (retrained thresholds at
//! many quality levels, table-design grids) enter mid-pipeline with
//! [`CompileSession::resume_with_profiles`]; `mithra_core::pipeline`'s
//! `compile`/`compile_with_profiles` and `mithra-bench`'s
//! `prepare_base`/`certify_at` are all thin wrappers over this type.

use crate::cache::{
    ArtifactCache, ClassifierArtifact, PoolArtifact, RouterArtifact, TrainedNpuArtifact,
    CACHE_FORMAT_VERSION,
};
use crate::function::AcceleratedFunction;
use crate::neural::NeuralClassifier;
use crate::pipeline::{quantizer_from_profiles, CompileConfig, Compiled};
use crate::profile::{collect_profiles_parallel, DatasetProfile};
use crate::route::{ApproximatorPool, PoolSpec, RouteClassifier, RoutedCompiled, RouterTrainer};
use crate::table::TableClassifier;
use crate::threshold::{Bisection, ThresholdOptimizer, ThresholdOutcome};
use crate::training::{generate_training_data, TrainingExample};
use crate::watchdog::{calibrate_mixture, Calibration};
use crate::Result;
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::Dataset;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stage of the compile pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Stage {
    /// Offline NPU training on the leading compilation datasets.
    NpuTraining,
    /// Profiling every compilation dataset (both execution paths).
    Profiling,
    /// Profiling unseen validation datasets (harness stage).
    ValidationProfiling,
    /// Statistical threshold optimization (Clopper–Pearson).
    Certification,
    /// Labeling tuples and training the table + neural classifiers.
    ClassifierTraining,
    /// Training every member of an approximator pool and profiling the
    /// compilation datasets through each (routing branch).
    PoolTraining,
    /// Statistical threshold optimization over the routed mixture.
    RoutedCertification,
    /// Training the K-ary route classifier, one stage per pool member.
    RouterTraining,
}

impl Stage {
    /// Stable lowercase label, also used as the cache file-name prefix.
    pub fn label(self) -> &'static str {
        match self {
            Stage::NpuTraining => "npu-training",
            Stage::Profiling => "profiling",
            Stage::ValidationProfiling => "validation-profiling",
            Stage::Certification => "certification",
            Stage::ClassifierTraining => "classifier-training",
            Stage::PoolTraining => "pool-training",
            Stage::RoutedCertification => "routed-certification",
            Stage::RouterTraining => "router-training",
        }
    }
}

/// How a stage interacted with the artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache configured for this session.
    Disabled,
    /// A cache was consulted but held no usable artifact; the stage ran
    /// and (best-effort) stored its result.
    Miss,
    /// The artifact was loaded from disk; the stage's work was skipped.
    Hit,
}

impl CacheOutcome {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Disabled => "cache off",
            CacheOutcome::Miss => "cache miss",
            CacheOutcome::Hit => "cache hit",
        }
    }
}

/// Instrumentation record of one executed stage transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Which stage ran.
    pub stage: Stage,
    /// Wall time of the transition, including cache I/O.
    pub wall: Duration,
    /// Function invocations the stage performed (0 on a cache hit —
    /// this is what "the second run skipped the work" looks like).
    pub invocations: u64,
    /// Cache interaction.
    pub cache: CacheOutcome,
    /// Artifact-cache lookups this stage satisfied from disk. Most stages
    /// perform a single lookup; pool stages perform one per artifact
    /// (the pool itself plus each non-default member's profiles), so a
    /// partially warm sweep shows up as hits *and* misses on one stage.
    pub cache_hits: u32,
    /// Artifact-cache lookups that found nothing usable (the stage
    /// recomputed and re-stored those artifacts). Zero when no cache is
    /// configured: disabled lookups are neither hits nor misses.
    pub cache_misses: u32,
    /// Threshold probes a certification stage ran (0 on a cache hit and
    /// for every other stage).
    pub probes: u32,
    /// Of those probes, how many labeled the compile invocations as an
    /// earlier probe did and reused its certificate.
    pub reused_probes: u32,
    /// Compile invocations the watchdog calibration pass routed — the
    /// stages that train a deployed router count its clean admissions
    /// and violations once (0 on a cache hit and for every other stage).
    /// Router decisions, not function invocations, so `invocations`
    /// leaves them out.
    pub calibration_invocations: u64,
    /// Wall time of that calibration pass, included in `wall`.
    pub calibration_wall: Duration,
}

impl StageReport {
    /// Whether the stage's work was skipped via the cache.
    pub fn is_cache_hit(&self) -> bool {
        self.cache == CacheOutcome::Hit
    }
}

/// The report of a stage started at `started` that made the artifact
/// `lookups`: a hit when every lookup hit, a miss when any missed, and
/// disabled without a cache.
fn stage_report(
    stage: Stage,
    started: Instant,
    invocations: u64,
    lookups: &[CacheOutcome],
) -> StageReport {
    let count = |outcome| lookups.iter().filter(|&&l| l == outcome).count() as u32;
    let (cache_hits, cache_misses) = (count(CacheOutcome::Hit), count(CacheOutcome::Miss));
    let cache = if cache_misses > 0 {
        CacheOutcome::Miss
    } else if cache_hits > 0 {
        CacheOutcome::Hit
    } else {
        CacheOutcome::Disabled
    };
    StageReport {
        stage,
        wall: started.elapsed(),
        invocations,
        cache,
        cache_hits,
        cache_misses,
        probes: 0,
        reused_probes: 0,
        calibration_invocations: 0,
        calibration_wall: Duration::ZERO,
    }
}

/// The watchdog calibration pass of a stage that trained a deployed
/// router: the router's clean counts over the compile profile table, and
/// the `(invocations, wall)` the stage reports for it.
fn calibrate_router(
    router: &RouteClassifier,
    member_profiles: &[Vec<DatasetProfile>],
    threshold: f32,
    threads: Option<usize>,
) -> (Calibration, u64, Duration) {
    let started = Instant::now();
    let calibration = calibrate_mixture(router, member_profiles, threshold, threads);
    let invocations = member_profiles.first().map_or(0, |datasets| {
        datasets.iter().map(|p| p.invocation_count() as u64).sum()
    });
    (calibration, invocations, started.elapsed())
}

/// Loads `key`'s profiles from `cache`, or runs `collect` and stores its
/// profiles best-effort. Returns the profiles, the invocations spent
/// collecting them, and the lookup's outcome.
fn cached_profiles(
    cache: Option<&ArtifactCache>,
    stage: Stage,
    key: &str,
    collect: impl FnOnce() -> Vec<DatasetProfile>,
) -> (Vec<DatasetProfile>, u64, CacheOutcome) {
    if let Some(profiles) = cache.and_then(|c| c.load_profiles(stage.label(), key)) {
        return (profiles, 0, CacheOutcome::Hit);
    }
    let profiles = collect();
    let invocations = profiles.iter().map(|p| p.invocation_count() as u64).sum();
    let outcome = match cache {
        Some(c) => {
            let _ = c.store_profiles(stage.label(), key, &profiles);
            CacheOutcome::Miss
        }
        None => CacheOutcome::Disabled,
    };
    (profiles, invocations, outcome)
}

/// The full per-stage instrumentation of one compile session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionReport {
    /// The benchmark compiled.
    pub benchmark: String,
    /// One entry per executed stage, in execution order.
    pub stages: Vec<StageReport>,
}

impl SessionReport {
    /// The report of `stage`, if that stage ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageReport> {
        self.stages.iter().find(|r| r.stage == stage)
    }

    /// Total wall time across all recorded stages.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|r| r.wall).sum()
    }

    /// Total invocations across all recorded stages.
    pub fn total_invocations(&self) -> u64 {
        self.stages.iter().map(|r| r.invocations).sum()
    }

    /// Total artifact-cache hits across all recorded stages.
    pub fn cache_hits(&self) -> u32 {
        self.stages.iter().map(|r| r.cache_hits).sum()
    }

    /// Total artifact-cache misses across all recorded stages.
    pub fn cache_misses(&self) -> u32 {
        self.stages.iter().map(|r| r.cache_misses).sum()
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compile session [{}]: {:.2?} total",
            self.benchmark,
            self.total_wall()
        )?;
        for r in &self.stages {
            let cache = match r.cache {
                CacheOutcome::Disabled => r.cache.label().to_string(),
                _ => format!(
                    "{}, {} hit / {} miss",
                    r.cache.label(),
                    r.cache_hits,
                    r.cache_misses
                ),
            };
            let detail = match r.stage {
                Stage::Certification | Stage::RoutedCertification => {
                    format!("  probes {} ({} reused)", r.probes, r.reused_probes)
                }
                Stage::ClassifierTraining | Stage::RouterTraining => format!(
                    "  calibration {:.2?} over {} invocations",
                    r.calibration_wall, r.calibration_invocations
                ),
                _ => String::new(),
            };
            writeln!(
                f,
                "  {:<22} {:>10.2?}  {:>10} invocations  [{cache}]{detail}",
                r.stage.label(),
                r.wall,
                r.invocations,
            )?;
        }
        Ok(())
    }
}

/// Initial state: nothing computed yet.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pending;

/// State after NPU training: the benchmark bound to its accelerator.
#[derive(Debug)]
pub struct TrainedFunction {
    function: AcceleratedFunction,
}

/// State after profiling: function plus all compilation-dataset profiles.
#[derive(Debug)]
pub struct Profiles {
    function: AcceleratedFunction,
    profiles: Vec<DatasetProfile>,
}

/// State after certification: the statistically certified threshold.
#[derive(Debug)]
pub struct CertifiedThreshold {
    function: AcceleratedFunction,
    profiles: Vec<DatasetProfile>,
    threshold: ThresholdOutcome,
}

/// Final state: both classifiers trained; ready to [`finish`].
///
/// [`finish`]: CompileSession::finish
#[derive(Debug)]
pub struct Classifiers {
    function: AcceleratedFunction,
    profiles: Vec<DatasetProfile>,
    threshold: ThresholdOutcome,
    table: TableClassifier,
    neural: NeuralClassifier,
    training_data: Vec<TrainingExample>,
    calibration: Calibration,
}

/// State after pool training (routing branch): every member of the
/// approximator pool trained, with the compilation datasets profiled
/// through each member.
#[derive(Debug)]
pub struct PooledProfiles {
    spec: PoolSpec,
    pool: ApproximatorPool,
    member_profiles: Vec<Vec<DatasetProfile>>,
}

/// State after routed certification: the threshold certified over the
/// routed mixture.
#[derive(Debug)]
pub struct RoutedCertified {
    spec: PoolSpec,
    pool: ApproximatorPool,
    member_profiles: Vec<Vec<DatasetProfile>>,
    threshold: ThresholdOutcome,
}

/// Final state of the routing branch: the K-ary router trained; ready to
/// [`finish_routed`].
///
/// [`finish_routed`]: CompileSession::finish_routed
#[derive(Debug)]
pub struct RoutedClassifiers {
    pool: ApproximatorPool,
    member_profiles: Vec<Vec<DatasetProfile>>,
    threshold: ThresholdOutcome,
    router: RouteClassifier,
    calibration: Calibration,
}

/// A compile-pipeline run in progress, parameterized by its stage.
#[derive(Debug)]
pub struct CompileSession<S> {
    benchmark: Arc<dyn Benchmark>,
    config: CompileConfig,
    cache: Option<ArtifactCache>,
    stages: Vec<StageReport>,
    state: S,
}

impl<S> CompileSession<S> {
    /// The configuration driving this session.
    pub fn config(&self) -> &CompileConfig {
        &self.config
    }

    /// Stage reports recorded so far, in execution order.
    pub fn stage_reports(&self) -> &[StageReport] {
        &self.stages
    }

    fn advance<T>(self, report: StageReport, next: impl FnOnce(S) -> T) -> CompileSession<T> {
        let mut stages = self.stages;
        stages.push(report);
        CompileSession {
            benchmark: self.benchmark,
            config: self.config,
            cache: self.cache,
            stages,
            state: next(self.state),
        }
    }

    fn load_cached<T: serde::Deserialize>(&self, stage: Stage, key: &str) -> Option<T> {
        self.cache.as_ref().and_then(|c| c.load(stage.label(), key))
    }

    fn store_cached<T: serde::Serialize>(&self, stage: Stage, key: &str, value: &T) {
        if let Some(cache) = &self.cache {
            let _ = cache.store(stage.label(), key, value);
        }
    }

    /// The one certifier behind [`CompileSession::certify`] and
    /// [`CompileSession::certify_routed`]: certifies `pool` over its
    /// compile profile table as `stage` (or loads the certified outcome
    /// from the cache). Algorithm 1's bisection runs over the mixture
    /// probe; violations are attributed to the member that served each
    /// violating dataset's worst invocation.
    ///
    /// A pool of one — the binary design — probes with the oracle router,
    /// which accepts exactly the invocations whose error is within the
    /// candidate threshold. A larger pool certifies with the **deployed
    /// router in the loop**: each probe trains the table cascade at the
    /// candidate threshold and certifies the cascade's own routing
    /// decisions, because per-stage false-accepts compound across a
    /// cascade and an oracle-only certificate would not survive
    /// deployment. The router trainer is prepared once, before the
    /// bisection, and trains each distinct labeling of its sample once.
    /// The report counts the probes and those that reused an earlier
    /// probe's certificate.
    fn certify_pool(
        &self,
        stage: Stage,
        key: &str,
        spec: &PoolSpec,
        pool: &ApproximatorPool,
        member_profiles: &[Vec<DatasetProfile>],
    ) -> Result<(ThresholdOutcome, StageReport)> {
        let started = Instant::now();
        let (search, invocations, cache) = match self.load_cached::<ThresholdOutcome>(stage, key) {
            Some(outcome) => {
                let search = Bisection {
                    outcome,
                    probes: Vec::new(),
                    reused: 0,
                };
                (search, 0, CacheOutcome::Hit)
            }
            None => {
                let optimizer =
                    ThresholdOptimizer::new(self.config.spec).with_threads(self.config.threads);
                let search = if pool.len() <= 1 {
                    optimizer.bisect_routed(pool, member_profiles)?
                } else {
                    let mut trainer = RouterTrainer::new(
                        spec,
                        member_profiles,
                        &self.config.table_design,
                        self.config.classifier_train_samples,
                        self.config.seed_base ^ 0x7261_696E,
                        self.config.threads,
                    )?;
                    optimizer.bisect_routed_deployed(pool, member_profiles, |t| trainer.train(t))?
                };
                self.store_cached(stage, key, &search.outcome);
                let trials = search.outcome.trials;
                (search, trials, self.miss_outcome())
            }
        };
        let mut report = stage_report(stage, started, invocations, &[cache]);
        report.probes = search.probes.len() as u32;
        report.reused_probes = search.reused as u32;
        Ok((search.outcome, report))
    }

    fn miss_outcome(&self) -> CacheOutcome {
        if self.cache.is_some() {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Disabled
        }
    }

    fn report(&self) -> SessionReport {
        SessionReport {
            benchmark: self.benchmark.name().to_string(),
            stages: self.stages.clone(),
        }
    }
}

// Cache keys. Each stage's canonical key string embeds its upstream
// stage's key, so an artifact can only hit when every configuration
// choice that influenced it (transitively) matches.

fn npu_key(benchmark: &str, config: &CompileConfig) -> String {
    format!(
        "v{CACHE_FORMAT_VERSION}/{benchmark}/scale={:?}/seed_base={}/train_datasets={}/npu={:?}",
        config.scale, config.seed_base, config.npu_train_datasets, config.npu
    )
}

fn profiles_key(benchmark: &str, config: &CompileConfig) -> String {
    format!(
        "{}/compile_datasets={}",
        npu_key(benchmark, config),
        config.compile_datasets
    )
}

fn threshold_key(benchmark: &str, config: &CompileConfig) -> String {
    format!("{}/spec={:?}", profiles_key(benchmark, config), config.spec)
}

/// The `calibrated` tag retires classifier and router artifacts stored
/// before they carried their watchdog calibration counts.
fn classifier_key(benchmark: &str, config: &CompileConfig) -> String {
    format!(
        "{}/table={:?}/neural={:?}/train_samples={}/calibrated",
        threshold_key(benchmark, config),
        config.table_design,
        config.neural,
        config.classifier_train_samples
    )
}

fn pool_key(benchmark: &str, config: &CompileConfig, spec: &PoolSpec) -> String {
    format!("{}/pool={:?}", npu_key(benchmark, config), spec.topologies)
}

/// Compile profiles of pool member `m`. A member running the benchmark's
/// default topology trains to the same network as the binary pipeline's
/// (same datasets, same `NpuTrainConfig`, same trainer path), so it keys
/// to the plain profiling artifact and shares its cache entry.
fn pool_member_profiles_key(
    benchmark: &Arc<dyn Benchmark>,
    config: &CompileConfig,
    topology: &mithra_npu::topology::Topology,
) -> String {
    if *topology == benchmark.npu_topology() {
        profiles_key(benchmark.name(), config)
    } else {
        format!(
            "{}/pool_member_topology={:?}/compile_datasets={}",
            npu_key(benchmark.name(), config),
            topology,
            config.compile_datasets
        )
    }
}

/// Key fragment for the swept routing axes (router kind, per-member
/// margins). Empty for the default unmargined table cascade, so every
/// artifact written before these axes existed keeps its key — only
/// non-default design points get distinct entries.
fn spec_suffix(spec: &PoolSpec) -> String {
    if spec.is_default_routing() {
        String::new()
    } else {
        format!("/router={:?}/margins={:?}", spec.router, spec.margins)
    }
}

fn routed_threshold_key(benchmark: &str, config: &CompileConfig, spec: &PoolSpec) -> String {
    // Multi-member pools certify with the deployed router in the loop, so
    // the certificate depends on the router's design and training inputs
    // too; a pool of one keeps the binary oracle probe, whose key fields
    // below are simply redundant. The `certifier` tag retires artifacts
    // certified under the older oracle-only probe.
    format!(
        "{}/compile_datasets={}/spec={:?}/table={:?}/train_samples={}/certifier=deployed{}",
        pool_key(benchmark, config, spec),
        config.compile_datasets,
        config.spec,
        config.table_design,
        config.classifier_train_samples,
        spec_suffix(spec)
    )
}

fn router_key(benchmark: &str, config: &CompileConfig, spec: &PoolSpec) -> String {
    format!(
        "{}/table={:?}/train_samples={}/calibrated",
        routed_threshold_key(benchmark, config, spec),
        config.table_design,
        config.classifier_train_samples
    )
}

/// Validation profiles of `count` datasets from `seed_base`, through the
/// benchmark's default topology (`None`, shared with the binary pipeline)
/// or a non-default pool member's `topology`.
fn validation_key(
    benchmark: &str,
    config: &CompileConfig,
    topology: Option<&mithra_npu::topology::Topology>,
    seed_base: u64,
    count: usize,
) -> String {
    let member = topology.map_or(String::new(), |t| format!("/pool_member_topology={t:?}"));
    format!(
        "{}{member}/validation_seed_base={seed_base}/validation_datasets={count}",
        npu_key(benchmark, config)
    )
}

impl CompileSession<Pending> {
    /// Opens a session for one benchmark. No work happens until the first
    /// stage transition.
    pub fn new(benchmark: Arc<dyn Benchmark>, config: CompileConfig) -> Self {
        let cache = config
            .cache
            .as_ref()
            .map(|c| ArtifactCache::open(c, benchmark.name()));
        Self {
            benchmark,
            config,
            cache,
            stages: Vec::new(),
            state: Pending,
        }
    }

    /// Stage 1: trains the NPU on the leading `npu_train_datasets`
    /// compilation datasets (or loads the trained network from the cache).
    ///
    /// # Errors
    ///
    /// Propagates NPU training failures.
    pub fn train_npu(self) -> Result<CompileSession<TrainedFunction>> {
        let started = Instant::now();
        let key = npu_key(self.benchmark.name(), &self.config);
        let (function, invocations, cache) = match self
            .load_cached::<TrainedNpuArtifact>(Stage::NpuTraining, &key)
        {
            Some(artifact) => (
                artifact.into_function(Arc::clone(&self.benchmark)),
                0,
                CacheOutcome::Hit,
            ),
            None => {
                let train_sets: Vec<Dataset> = (0..self.config.npu_train_datasets as u64)
                    .map(|i| {
                        self.benchmark
                            .dataset(self.config.seed_base + i, self.config.scale)
                    })
                    .collect();
                let invocations: u64 = train_sets.iter().map(|d| d.invocation_count() as u64).sum();
                let function = AcceleratedFunction::train(
                    Arc::clone(&self.benchmark),
                    &train_sets,
                    &self.config.npu,
                )?;
                self.store_cached(Stage::NpuTraining, &key, &TrainedNpuArtifact::of(&function));
                (function, invocations, self.miss_outcome())
            }
        };
        let report = stage_report(Stage::NpuTraining, started, invocations, &[cache]);
        Ok(self.advance(report, |_| TrainedFunction { function }))
    }
}

impl CompileSession<TrainedFunction> {
    /// The trained accelerated function.
    pub fn function(&self) -> &AcceleratedFunction {
        &self.state.function
    }

    /// Dismantles the session after training only, for harnesses that
    /// need the function but not the compile profiles.
    pub fn into_parts(self) -> (AcceleratedFunction, SessionReport) {
        let report = self.report();
        (self.state.function, report)
    }

    /// Stage 2: profiles all `compile_datasets` compilation datasets in
    /// parallel (or loads the profiles from the cache). Profiles are
    /// bit-identical to the sequential path — see
    /// [`collect_profiles_parallel`].
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; `Result` keeps the stage
    /// signature uniform and future-proof.
    pub fn profile(self) -> Result<CompileSession<Profiles>> {
        let started = Instant::now();
        let key = profiles_key(self.benchmark.name(), &self.config);
        let (profiles, invocations, cache) =
            cached_profiles(self.cache.as_ref(), Stage::Profiling, &key, || {
                collect_profiles_parallel(
                    &self.state.function,
                    self.config.seed_base,
                    self.config.compile_datasets,
                    self.config.scale,
                    self.config.threads,
                )
            });
        let report = stage_report(Stage::Profiling, started, invocations, &[cache]);
        Ok(self.advance(report, |s| Profiles {
            function: s.function,
            profiles,
        }))
    }
}

impl CompileSession<Profiles> {
    /// Re-enters the pipeline at the `Profiles` stage with a function and
    /// profiles computed earlier — the base-reuse path sweeps use to
    /// re-certify many quality levels without re-profiling.
    pub fn resume_with_profiles(
        function: AcceleratedFunction,
        profiles: Vec<DatasetProfile>,
        config: CompileConfig,
    ) -> Self {
        let benchmark = Arc::clone(function.benchmark());
        let cache = config
            .cache
            .as_ref()
            .map(|c| ArtifactCache::open(c, benchmark.name()));
        Self {
            benchmark,
            config,
            cache,
            stages: Vec::new(),
            state: Profiles { function, profiles },
        }
    }

    /// The trained accelerated function.
    pub fn function(&self) -> &AcceleratedFunction {
        &self.state.function
    }

    /// The compilation-dataset profiles.
    pub fn profiles(&self) -> &[DatasetProfile] {
        &self.state.profiles
    }

    /// Dismantles the session after profiling, for harnesses that build
    /// a reusable quality-independent base.
    pub fn into_parts(self) -> (AcceleratedFunction, Vec<DatasetProfile>, SessionReport) {
        let report = self.report();
        (self.state.function, self.state.profiles, report)
    }

    /// Stage 3: statistical threshold optimization against the profiles
    /// (or loads the certified outcome from the cache).
    ///
    /// # Errors
    ///
    /// Returns [`crate::MithraError::Uncertifiable`] when the quality
    /// spec cannot be met on the compilation datasets.
    pub fn certify(self) -> Result<CompileSession<CertifiedThreshold>> {
        let key = threshold_key(self.benchmark.name(), &self.config);
        // The binary design certifies as the pool of one; its one-member
        // profile table borrows this session's profiles.
        let pool = ApproximatorPool::single(self.state.function.clone());
        let spec = PoolSpec::single(pool.topologies()[0].clone());
        let (threshold, report) = self.certify_pool(
            Stage::Certification,
            &key,
            &spec,
            &pool,
            std::slice::from_ref(&self.state.profiles),
        )?;
        Ok(self.advance(report, |s| CertifiedThreshold {
            function: s.function,
            profiles: s.profiles,
            threshold,
        }))
    }

    /// Routing branch, stage 3′: trains every member of the approximator
    /// pool `spec` and profiles the compilation datasets through each (or
    /// loads both from the cache).
    ///
    /// The member matching the benchmark's default topology reuses this
    /// session's already-trained function and already-collected profiles
    /// verbatim — zero extra work, and the reason a pool of one is
    /// bit-identical to the binary pipeline. Cheaper members train with
    /// the same `NpuTrainConfig` (same seed, samples and epochs) on their
    /// own topology and are profiled with the same parallel collector.
    ///
    /// # Errors
    ///
    /// Propagates NPU training failures.
    pub fn train_pool(self, spec: &PoolSpec) -> Result<CompileSession<PooledProfiles>> {
        let started = Instant::now();
        let name = self.benchmark.name().to_string();
        let default_topology = self.benchmark.npu_topology();

        // The pool itself: cache the non-default members' networks.
        let key = pool_key(&name, &self.config, spec);
        let cached_pool = self
            .load_cached::<PoolArtifact>(Stage::PoolTraining, &key)
            .and_then(|a| a.into_pool(&self.benchmark, spec.topologies.clone()));
        let mut invocations = 0u64;
        let mut lookups = Vec::with_capacity(spec.len() + 1);
        let pool = match cached_pool {
            Some(pool) => {
                lookups.push(CacheOutcome::Hit);
                pool
            }
            None => {
                lookups.push(self.miss_outcome());
                let train_sets: Vec<Dataset> = (0..self.config.npu_train_datasets as u64)
                    .map(|i| {
                        self.benchmark
                            .dataset(self.config.seed_base + i, self.config.scale)
                    })
                    .collect();
                for t in &spec.topologies {
                    if *t != default_topology {
                        invocations += train_sets
                            .iter()
                            .map(|d| d.invocation_count() as u64)
                            .sum::<u64>();
                    }
                }
                let pool = ApproximatorPool::train(
                    &self.benchmark,
                    &train_sets,
                    &self.config.npu,
                    spec,
                    self.config.threads,
                    Some(&self.state.function),
                )?;
                self.store_cached(Stage::PoolTraining, &key, &PoolArtifact::of(&pool));
                pool
            }
        };

        // Per-member compile profiles. The default-topology member reuses
        // this session's profiles in memory; others go through the cache.
        let mut member_profiles = Vec::with_capacity(pool.len());
        for (m, topology) in pool.topologies().iter().enumerate() {
            if *topology == default_topology {
                member_profiles.push(self.state.profiles.clone());
                continue;
            }
            let key = pool_member_profiles_key(&self.benchmark, &self.config, topology);
            let (profiles, spent, lookup) =
                cached_profiles(self.cache.as_ref(), Stage::Profiling, &key, || {
                    collect_profiles_parallel(
                        pool.member(m),
                        self.config.seed_base,
                        self.config.compile_datasets,
                        self.config.scale,
                        self.config.threads,
                    )
                });
            member_profiles.push(profiles);
            invocations += spent;
            lookups.push(lookup);
        }
        let report = stage_report(Stage::PoolTraining, started, invocations, &lookups);
        let spec = spec.clone();
        Ok(self.advance(report, |_| PooledProfiles {
            spec,
            pool,
            member_profiles,
        }))
    }
}

impl CompileSession<PooledProfiles> {
    /// The trained approximator pool.
    pub fn pool(&self) -> &ApproximatorPool {
        &self.state.pool
    }

    /// Per-member compile profiles: `member_profiles()[m][i]` is member
    /// `m`'s profile of compilation dataset `i`.
    pub fn member_profiles(&self) -> &[Vec<DatasetProfile>] {
        &self.state.member_profiles
    }

    /// Routing branch, stage 4′: certifies the threshold over the routed
    /// mixture (or loads the certified outcome from the cache), through
    /// the same certifier as the binary [`certify`], which is this stage
    /// for the pool of one.
    ///
    /// [`certify`]: CompileSession::certify
    ///
    /// # Errors
    ///
    /// Returns [`crate::MithraError::Uncertifiable`] when the quality
    /// spec cannot be met by the routed mixture.
    pub fn certify_routed(self) -> Result<CompileSession<RoutedCertified>> {
        let key = routed_threshold_key(self.benchmark.name(), &self.config, &self.state.spec);
        let (threshold, report) = self.certify_pool(
            Stage::RoutedCertification,
            &key,
            &self.state.spec,
            &self.state.pool,
            &self.state.member_profiles,
        )?;
        Ok(self.advance(report, |s| RoutedCertified {
            spec: s.spec,
            pool: s.pool,
            member_profiles: s.member_profiles,
            threshold,
        }))
    }
}

impl CompileSession<RoutedCertified> {
    /// Routing branch, stage 5′: trains the K-ary route classifier — one
    /// table stage per pool member, labeled against that member's
    /// profiled errors at the shared certified threshold (or loads the
    /// router from the cache). Stage 0 of a pool-of-one router trains
    /// with the binary pipeline's seed and quantizer, so it is the binary
    /// table classifier bit for bit. For a larger pool, training is
    /// deterministic in the threshold, so this reproduces exactly the
    /// router whose decisions the deployed certification probe certified.
    ///
    /// The stage then counts the router's clean watchdog calibration over
    /// the compile profiles ([`calibrate_mixture`]) and stores the counts
    /// with the router, so a warm load reads them instead of recounting.
    ///
    /// # Errors
    ///
    /// Propagates classifier-training failures.
    pub fn train_router(self) -> Result<CompileSession<RoutedClassifiers>> {
        let started = Instant::now();
        let key = router_key(self.benchmark.name(), &self.config, &self.state.spec);
        let (artifact, invocations, calibrated, cache) =
            match self.load_cached::<RouterArtifact>(Stage::RouterTraining, &key) {
                Some(artifact) => (artifact, 0, (0, Duration::ZERO), CacheOutcome::Hit),
                None => {
                    // `threads` is deliberately not part of the cache key: the
                    // parallel table trainer is bit-identical at every thread
                    // count, so artifacts stay interchangeable across runs.
                    let router = RouteClassifier::train_for_spec(
                        &self.state.spec,
                        &self.state.member_profiles,
                        self.state.threshold.threshold,
                        &self.config.table_design,
                        self.config.classifier_train_samples,
                        self.config.seed_base ^ 0x7261_696E,
                        self.config.threads,
                    )?;
                    let (calibration, routed, wall) = calibrate_router(
                        &router,
                        &self.state.member_profiles,
                        self.state.threshold.threshold,
                        self.config.threads,
                    );
                    let artifact = RouterArtifact {
                        router,
                        calibration,
                    };
                    self.store_cached(Stage::RouterTraining, &key, &artifact);
                    let invocations =
                        (self.config.classifier_train_samples * artifact.router.len()) as u64;
                    (artifact, invocations, (routed, wall), self.miss_outcome())
                }
            };
        let mut report = stage_report(Stage::RouterTraining, started, invocations, &[cache]);
        (report.calibration_invocations, report.calibration_wall) = calibrated;
        Ok(self.advance(report, |s| RoutedClassifiers {
            pool: s.pool,
            member_profiles: s.member_profiles,
            threshold: s.threshold,
            router: artifact.router,
            calibration: artifact.calibration,
        }))
    }
}

impl CompileSession<RoutedClassifiers> {
    /// Finalizes the routing branch into the routed compile product and
    /// its per-stage instrumentation.
    pub fn finish_routed(self) -> (RoutedCompiled, SessionReport) {
        let report = self.report();
        let routed = RoutedCompiled {
            pool: self.state.pool,
            member_profiles: self.state.member_profiles,
            threshold: self.state.threshold,
            router: self.state.router,
            calibration: self.state.calibration,
        };
        (routed, report)
    }
}

impl CompileSession<CertifiedThreshold> {
    /// The certified threshold and its statistics.
    pub fn threshold(&self) -> &ThresholdOutcome {
        &self.state.threshold
    }

    /// Stage 4: labels training tuples at the certified threshold and
    /// trains the table and neural classifiers (or loads both from the
    /// cache).
    ///
    /// The labeled tuples themselves are **not** stored: they are a
    /// deterministic (and cheap, invocation-free) function of the profiles
    /// already in memory, while serializing 30k of them costs more than
    /// relabeling. A hit therefore relabels and deserializes only the two
    /// trained classifiers and the calibration counts.
    ///
    /// A miss ends by counting the table's clean watchdog calibration over
    /// the compile profiles ([`calibrate_mixture`], the table as the
    /// one-stage router of the pool of one), stored with the classifiers.
    ///
    /// # Errors
    ///
    /// Propagates classifier-training failures.
    pub fn train_classifiers(self) -> Result<CompileSession<Classifiers>> {
        let started = Instant::now();
        let key = classifier_key(self.benchmark.name(), &self.config);
        let training_data = generate_training_data(
            &self.state.profiles,
            self.state.threshold.threshold,
            self.config.classifier_train_samples,
            self.config.seed_base ^ 0x7261_696E,
        );
        let (artifact, invocations, calibrated, cache) =
            match self.load_cached::<ClassifierArtifact>(Stage::ClassifierTraining, &key) {
                Some(artifact) => (artifact, 0, (0, Duration::ZERO), CacheOutcome::Hit),
                None => {
                    let quantizer = quantizer_from_profiles(&self.state.profiles);
                    // `threads` is deliberately not part of any cache key:
                    // the parallel trainers are bit-identical at every thread
                    // count, so artifacts stay interchangeable across runs.
                    let table = TableClassifier::train_with_threads(
                        self.config.table_design,
                        quantizer,
                        &training_data,
                        self.config.threads,
                    )?;
                    let neural = NeuralClassifier::train_with_threads(
                        self.state.function.benchmark().input_dim(),
                        &training_data,
                        &self.config.neural,
                        self.config.threads,
                    )?;
                    let (calibration, routed, wall) = calibrate_router(
                        &RouteClassifier::from_stages(vec![table.clone()]),
                        std::slice::from_ref(&self.state.profiles),
                        self.state.threshold.threshold,
                        self.config.threads,
                    );
                    let artifact = ClassifierArtifact {
                        table,
                        neural,
                        calibration,
                    };
                    self.store_cached(Stage::ClassifierTraining, &key, &artifact);
                    let invocations = training_data.len() as u64;
                    (artifact, invocations, (routed, wall), self.miss_outcome())
                }
            };
        let mut report = stage_report(Stage::ClassifierTraining, started, invocations, &[cache]);
        (report.calibration_invocations, report.calibration_wall) = calibrated;
        Ok(self.advance(report, |s| Classifiers {
            function: s.function,
            profiles: s.profiles,
            threshold: s.threshold,
            table: artifact.table,
            neural: artifact.neural,
            training_data,
            calibration: artifact.calibration,
        }))
    }
}

impl CompileSession<Classifiers> {
    /// Finalizes the session into the compile-flow output and its
    /// per-stage instrumentation.
    pub fn finish(self) -> (Compiled, SessionReport) {
        let report = self.report();
        let compiled = Compiled {
            function: self.state.function,
            threshold: self.state.threshold,
            table: self.state.table,
            neural: self.state.neural,
            profiles: self.state.profiles,
            training_data: self.state.training_data,
            calibration: self.state.calibration,
        };
        (compiled, report)
    }
}

/// Profiles `count` datasets seeded from `seed_base` in parallel, with
/// the same caching and instrumentation as the in-session stages. This
/// is the harness path for **validation** datasets, which sit outside
/// the compile pipeline proper (they must stay unseen by it) but share
/// its trained function, cache and reporting. It is
/// [`profile_pool_validation`] over the pool of one.
pub fn profile_validation(
    function: &AcceleratedFunction,
    config: &CompileConfig,
    seed_base: u64,
    count: usize,
) -> (Vec<DatasetProfile>, StageReport) {
    let pool = ApproximatorPool::single(function.clone());
    let (mut member_profiles, report) = profile_pool_validation(&pool, config, seed_base, count);
    (member_profiles.swap_remove(0), report)
}

/// Profiles `count` validation datasets seeded from `seed_base` through
/// **every pool member**, with the same caching and instrumentation as
/// [`profile_validation`]: `result[m][i]` is member `m`'s profile of
/// dataset `seed_base + i`. The member running the benchmark's default
/// topology shares the binary pipeline's validation-profile cache entry.
pub fn profile_pool_validation(
    pool: &ApproximatorPool,
    config: &CompileConfig,
    seed_base: u64,
    count: usize,
) -> (Vec<Vec<DatasetProfile>>, StageReport) {
    let started = Instant::now();
    let benchmark = pool.benchmark();
    let name = benchmark.name();
    let cache = config.cache.as_ref().map(|c| ArtifactCache::open(c, name));
    let stage = Stage::ValidationProfiling;
    let default_topology = benchmark.npu_topology();
    let mut member_profiles = Vec::with_capacity(pool.len());
    let mut invocations = 0u64;
    let mut lookups = Vec::with_capacity(pool.len());
    for (m, topology) in pool.topologies().iter().enumerate() {
        let member_topology = (*topology != default_topology).then_some(topology);
        let key = validation_key(name, config, member_topology, seed_base, count);
        let (profiles, spent, lookup) = cached_profiles(cache.as_ref(), stage, &key, || {
            collect_profiles_parallel(
                pool.member(m),
                seed_base,
                count,
                config.scale,
                config.threads,
            )
        });
        member_profiles.push(profiles);
        invocations += spent;
        lookups.push(lookup);
    }
    let report = stage_report(stage, started, invocations, &lookups);
    (member_profiles, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use mithra_axbench::suite;

    fn session_config(cache: Option<CacheConfig>) -> CompileConfig {
        CompileConfig {
            cache,
            ..CompileConfig::smoke()
        }
    }

    fn sobel() -> Arc<dyn Benchmark> {
        suite::by_name("sobel").unwrap().into()
    }

    fn tmp_cache(tag: &str) -> CacheConfig {
        let dir =
            std::env::temp_dir().join(format!("mithra-session-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CacheConfig::at(dir)
    }

    #[test]
    fn staged_session_matches_monolithic_compile() {
        let config = session_config(None);
        let session = CompileSession::new(sobel(), config.clone())
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .certify()
            .unwrap()
            .train_classifiers()
            .unwrap();
        let (compiled, report) = session.finish();

        let direct = crate::pipeline::compile(sobel(), &config).unwrap();
        assert_eq!(compiled.threshold, direct.threshold);
        assert_eq!(compiled.training_data, direct.training_data);
        assert_eq!(
            compiled.function.npu().to_parameters(),
            direct.function.npu().to_parameters()
        );

        assert_eq!(report.stages.len(), 4);
        assert!(report
            .stages
            .iter()
            .all(|r| r.cache == CacheOutcome::Disabled));
        assert!(report.stage(Stage::Profiling).unwrap().invocations > 0);
        assert_eq!(report.benchmark, "sobel");
    }

    #[test]
    fn warm_cache_skips_training_and_profiling() {
        let cache = tmp_cache("warm");
        let config = session_config(Some(cache.clone()));

        let (cold, cold_report) = CompileSession::new(sobel(), config.clone())
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .certify()
            .unwrap()
            .train_classifiers()
            .unwrap()
            .finish();
        assert!(cold_report
            .stages
            .iter()
            .all(|r| r.cache == CacheOutcome::Miss));

        let (warm, warm_report) = CompileSession::new(sobel(), config.clone())
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .certify()
            .unwrap()
            .train_classifiers()
            .unwrap()
            .finish();
        assert!(
            warm_report.stages.iter().all(|r| r.is_cache_hit()),
            "second run should hit every stage: {warm_report}"
        );
        assert_eq!(warm_report.total_invocations(), 0);
        // Certification counts its probes cold and none on a hit.
        let cold_cert = cold_report.stage(Stage::Certification).unwrap();
        assert!(cold_cert.probes > 2, "{cold_report}");
        assert!(cold_cert.reused_probes < cold_cert.probes);
        let line = format!(
            "probes {} ({} reused)",
            cold_cert.probes, cold_cert.reused_probes
        );
        assert!(cold_report.to_string().contains(&line), "{cold_report}");
        let warm_cert = warm_report.stage(Stage::Certification).unwrap();
        assert_eq!((warm_cert.probes, warm_cert.reused_probes), (0, 0));
        assert!(warm_report.to_string().contains("probes 0 (0 reused)"));
        let npu = cold_report.stage(Stage::NpuTraining).unwrap();
        assert_eq!((npu.probes, npu.reused_probes), (0, 0));
        // Classifier training counts the table's calibration over every
        // compile invocation cold, and reads the stored counts warm.
        let compile_invocations: u64 = cold
            .profiles
            .iter()
            .map(|p| p.invocation_count() as u64)
            .sum();
        let cold_train = cold_report.stage(Stage::ClassifierTraining).unwrap();
        assert_eq!(cold_train.calibration_invocations, compile_invocations);
        assert!(cold_train.calibration_wall <= cold_train.wall);
        let line = format!(
            "calibration {:.2?} over {compile_invocations} invocations",
            cold_train.calibration_wall
        );
        assert!(cold_report.to_string().contains(&line), "{cold_report}");
        let warm_train = warm_report.stage(Stage::ClassifierTraining).unwrap();
        assert_eq!(warm_train.calibration_invocations, 0);
        assert_eq!(warm_train.calibration_wall, Duration::ZERO);
        assert_eq!(warm.calibration, cold.calibration);
        assert!(cold.calibration.admitted > 0);
        // The lookup counters tell the same story from committed output.
        assert_eq!(cold_report.cache_hits(), 0);
        assert_eq!(cold_report.cache_misses(), 4);
        assert_eq!(warm_report.cache_hits(), 4);
        assert_eq!(warm_report.cache_misses(), 0);

        // The warm artifacts are equal to the cold ones.
        assert_eq!(warm.threshold, cold.threshold);
        assert_eq!(warm.training_data, cold.training_data);
        assert_eq!(warm.profiles.len(), cold.profiles.len());
        for (w, c) in warm.profiles.iter().zip(&cold.profiles) {
            assert_eq!(w.errors(), c.errors());
            assert_eq!(w.final_precise(), c.final_precise());
        }
        assert_eq!(
            warm.function.npu().to_parameters(),
            cold.function.npu().to_parameters()
        );
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn config_changes_invalidate_dependent_stages_only() {
        let cache = tmp_cache("keys");
        let config = session_config(Some(cache.clone()));
        let _ = CompileSession::new(sobel(), config.clone())
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .certify()
            .unwrap();

        // A different spec re-certifies but reuses training + profiling.
        let mut respec = config.clone();
        respec.spec = crate::threshold::QualitySpec::new(0.2, 0.9, 0.5).unwrap();
        let session = CompileSession::new(sobel(), respec)
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .certify()
            .unwrap();
        let reports = session.stage_reports();
        assert!(reports[0].is_cache_hit(), "npu should hit");
        assert!(reports[1].is_cache_hit(), "profiling should hit");
        assert_eq!(
            reports[2].cache,
            CacheOutcome::Miss,
            "new spec must re-certify"
        );
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn resume_with_profiles_matches_full_session() {
        let config = session_config(None);
        let (function, profiles, _) = CompileSession::new(sobel(), config.clone())
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .into_parts();
        let resumed = CompileSession::resume_with_profiles(function, profiles, config.clone())
            .certify()
            .unwrap();
        let direct = crate::pipeline::compile(sobel(), &config).unwrap();
        assert_eq!(*resumed.threshold(), direct.threshold);
        // Only the stages actually run are reported.
        assert_eq!(resumed.stage_reports().len(), 1);
        assert_eq!(resumed.stage_reports()[0].stage, Stage::Certification);
    }

    #[test]
    fn validation_profiles_cache_and_reload() {
        let cache = tmp_cache("validation");
        let config = session_config(Some(cache.clone()));
        let (function, _) = CompileSession::new(sobel(), config.clone())
            .train_npu()
            .unwrap()
            .into_parts();

        let (cold, cold_report) = profile_validation(&function, &config, 1_000_000, 4);
        assert_eq!(cold_report.cache, CacheOutcome::Miss);
        assert!(cold_report.invocations > 0);

        let (warm, warm_report) = profile_validation(&function, &config, 1_000_000, 4);
        assert!(warm_report.is_cache_hit());
        assert_eq!(warm_report.invocations, 0);
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.errors(), c.errors());
        }
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn routed_pool_of_one_session_matches_binary() {
        let config = session_config(None);
        let binary = CompileSession::new(sobel(), config.clone())
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .certify()
            .unwrap()
            .train_classifiers()
            .unwrap();
        let (compiled, _) = binary.finish();

        let spec = PoolSpec::single(compiled.function.benchmark().npu_topology());
        let (routed, report) = CompileSession::new(sobel(), config)
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .train_pool(&spec)
            .unwrap()
            .certify_routed()
            .unwrap()
            .train_router()
            .unwrap()
            .finish_routed();

        // Shared threshold statistics are bit-identical.
        assert_eq!(
            routed.threshold.threshold.to_bits(),
            compiled.threshold.threshold.to_bits()
        );
        assert_eq!(routed.threshold.successes, compiled.threshold.successes);
        assert_eq!(
            routed.threshold.certified_rate.to_bits(),
            compiled.threshold.certified_rate.to_bits()
        );
        assert_eq!(
            routed.threshold.mean_invocation_rate.to_bits(),
            compiled.threshold.mean_invocation_rate.to_bits()
        );
        // The single router stage is the binary table classifier.
        assert_eq!(
            serde_json::to_string(&routed.router.stages()[0]).unwrap(),
            serde_json::to_string(&compiled.table).unwrap()
        );
        // The single member is the binary network.
        assert_eq!(
            routed.pool.member(0).npu().to_parameters(),
            compiled.function.npu().to_parameters()
        );
        assert!(report.stage(Stage::PoolTraining).is_some());
        // Pool-of-one reuses the binary function and profiles: no extra
        // invocations in pool training.
        assert_eq!(report.stage(Stage::PoolTraining).unwrap().invocations, 0);
    }

    #[test]
    fn warm_cache_skips_routed_stages() {
        let cache = tmp_cache("routed-warm");
        let config = session_config(Some(cache.clone()));
        let spec = PoolSpec::sized(&sobel().npu_topology(), 2);

        let run = |config: CompileConfig| {
            CompileSession::new(sobel(), config)
                .train_npu()
                .unwrap()
                .profile()
                .unwrap()
                .train_pool(&spec)
                .unwrap()
                .certify_routed()
                .unwrap()
                .train_router()
                .unwrap()
                .finish_routed()
        };
        let (cold, cold_report) = run(config.clone());
        assert!(cold_report
            .stages
            .iter()
            .all(|r| r.cache == CacheOutcome::Miss));

        let (warm, warm_report) = run(config);
        assert!(
            warm_report.stages.iter().all(|r| r.is_cache_hit()),
            "second routed run should hit every stage: {warm_report}"
        );
        assert_eq!(warm_report.total_invocations(), 0);
        // Pool training performs one lookup for the pool artifact and one
        // per non-default member's profiles: two hits for a sized-2 pool.
        let pool_stage = warm_report.stage(Stage::PoolTraining).unwrap();
        assert_eq!(pool_stage.cache_hits, 2);
        assert_eq!(pool_stage.cache_misses, 0);
        assert_eq!(warm_report.cache_misses(), 0);
        assert!(warm_report.cache_hits() >= 5);
        assert_eq!(warm.threshold, cold.threshold);
        assert_eq!(
            serde_json::to_string(&warm.router).unwrap(),
            serde_json::to_string(&cold.router).unwrap()
        );
        for (w, c) in warm.pool.members().iter().zip(cold.pool.members()) {
            assert_eq!(w.npu().to_parameters(), c.npu().to_parameters());
        }
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn old_format_version_artifacts_never_hit() {
        // Satellite: a cache written by a pre-routing build (format v1)
        // must recompute, never poison a routed compile. Plant a valid
        // artifact under the v1-prefixed key and check the session misses.
        let cache = tmp_cache("old-version");
        let config = session_config(Some(cache.clone()));
        let bench = sobel();

        let session = CompileSession::new(Arc::clone(&bench), config.clone())
            .train_npu()
            .unwrap();
        let artifact = TrainedNpuArtifact::of(session.function());

        let v2_key = npu_key(bench.name(), &config);
        assert!(v2_key.starts_with("v2/"), "key is {v2_key}");
        let v1_key = v2_key.replacen("v2/", "v1/", 1);
        let store = ArtifactCache::open(&cache, bench.name());
        // Wipe the v2 entry the session just wrote; keep only the v1 one.
        let _ = std::fs::remove_dir_all(store.dir());
        assert!(store.store(Stage::NpuTraining.label(), &v1_key, &artifact));

        let session = CompileSession::new(bench, config).train_npu().unwrap();
        assert_eq!(
            session.stage_reports()[0].cache,
            CacheOutcome::Miss,
            "v1 artifact must not satisfy a v2 lookup"
        );
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn old_shape_certificates_recompute() {
        // A certification artifact in the shape the binary certifier used
        // to store (no per-member fields), under the right key and header,
        // must miss and recompute rather than misparse.
        #[derive(serde::Serialize)]
        struct OldOutcome {
            threshold: f32,
            successes: u64,
            trials: u64,
            certified_rate: f64,
            mean_invocation_rate: f64,
        }
        let cache = tmp_cache("old-shape");
        let config = session_config(Some(cache.clone()));
        let bench = sobel();
        let profiled = || {
            CompileSession::new(Arc::clone(&bench), config.clone())
                .train_npu()
                .unwrap()
                .profile()
                .unwrap()
        };
        let cold = profiled().certify().unwrap();
        let cold = cold.threshold().clone();

        let store = ArtifactCache::open(&cache, bench.name());
        let key = threshold_key(bench.name(), &config);
        let old = OldOutcome {
            threshold: cold.threshold,
            successes: cold.successes,
            trials: cold.trials,
            certified_rate: cold.certified_rate,
            mean_invocation_rate: cold.mean_invocation_rate,
        };
        assert!(store.store(Stage::Certification.label(), &key, &old));

        let session = profiled().certify().unwrap();
        let report = session.stage_reports().last().unwrap();
        assert_eq!(report.stage, Stage::Certification);
        assert_eq!(report.cache, CacheOutcome::Miss);
        assert_eq!(*session.threshold(), cold);
        // The recomputed certificate was re-stored in the current shape.
        let reloaded: Option<ThresholdOutcome> = store.load(Stage::Certification.label(), &key);
        assert_eq!(reloaded, Some(cold));
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    /// The cold binary and routed (sized-2 pool) sobel compiles over
    /// `config`'s cache, with the keys their classifier and router
    /// artifacts are stored under.
    fn calibrated_artifacts(config: &CompileConfig) -> (Compiled, RoutedCompiled, String, String) {
        let bench = sobel();
        let spec = PoolSpec::sized(&bench.npu_topology(), 2);
        let (compiled, _) =
            crate::pipeline::compile_with_report(Arc::clone(&bench), config).unwrap();
        let (routed, _) =
            crate::pipeline::compile_routed_with_report(Arc::clone(&bench), config, &spec).unwrap();
        let keys = (
            classifier_key(bench.name(), config),
            router_key(bench.name(), config, &spec),
        );
        (compiled, routed, keys.0, keys.1)
    }

    /// Recompiles both artifacts over `config`'s cache and checks that
    /// the classifier and router stages missed, counted their calibration
    /// again, and re-stored the counts `cold` and `cold_routed` carry.
    fn check_recalibrated(
        config: &CompileConfig,
        cold: &Compiled,
        cold_routed: &RoutedCompiled,
        keys: (&str, &str),
    ) {
        let bench = sobel();
        let spec = PoolSpec::sized(&bench.npu_topology(), 2);
        let (compiled, report) =
            crate::pipeline::compile_with_report(Arc::clone(&bench), config).unwrap();
        let (routed, routed_report) =
            crate::pipeline::compile_routed_with_report(Arc::clone(&bench), config, &spec).unwrap();
        for (report, stage) in [
            (&report, Stage::ClassifierTraining),
            (&routed_report, Stage::RouterTraining),
        ] {
            let r = report.stage(stage).unwrap();
            assert_eq!(r.cache, CacheOutcome::Miss, "{report}");
            assert!(r.calibration_invocations > 0, "{report}");
        }
        assert_eq!(compiled.calibration, cold.calibration);
        assert_eq!(routed.calibration, cold_routed.calibration);
        assert_eq!(
            serde_json::to_string(&compiled.table).unwrap(),
            serde_json::to_string(&cold.table).unwrap()
        );
        let store = ArtifactCache::open(config.cache.as_ref().unwrap(), bench.name());
        let stored: ClassifierArtifact = store
            .load(Stage::ClassifierTraining.label(), keys.0)
            .unwrap();
        assert_eq!(stored.calibration, cold.calibration);
        let stored: RouterArtifact = store.load(Stage::RouterTraining.label(), keys.1).unwrap();
        assert_eq!(stored.calibration, cold_routed.calibration);
    }

    #[test]
    fn uncalibrated_classifier_and_router_artifacts_recompute() {
        // Classifier and router artifacts stored before they carried their
        // calibration counts must miss and recompute, never serve a guard
        // without counts: under their old keys (which lacked the
        // `calibrated` tag) and, misfiled, under the current ones.
        #[derive(serde::Serialize)]
        struct OldClassifierArtifact {
            table: TableClassifier,
            neural: NeuralClassifier,
        }
        let cache = tmp_cache("uncalibrated");
        let config = session_config(Some(cache.clone()));
        let (cold, cold_routed, classifier, router) = calibrated_artifacts(&config);
        let old_classifier = classifier.strip_suffix("/calibrated").unwrap();
        let old_router = router.strip_suffix("/calibrated").unwrap();
        assert!(old_classifier.starts_with("v2/") && old_router.starts_with("v2/"));

        let store = ArtifactCache::open(&cache, "sobel");
        let old = OldClassifierArtifact {
            table: cold.table.clone(),
            neural: cold.neural.clone(),
        };
        for key in [old_classifier, classifier.as_str()] {
            assert!(store.store(Stage::ClassifierTraining.label(), key, &old));
        }
        for key in [old_router, router.as_str()] {
            assert!(store.store(Stage::RouterTraining.label(), key, &cold_routed.router));
        }
        check_recalibrated(&config, &cold, &cold_routed, (&classifier, &router));
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn truncated_calibrated_artifacts_recompute() {
        let cache = tmp_cache("truncated-calibrated");
        let config = session_config(Some(cache.clone()));
        let (cold, cold_routed, classifier, router) = calibrated_artifacts(&config);
        let store = ArtifactCache::open(&cache, "sobel");
        for (stage, key) in [
            (Stage::ClassifierTraining, &classifier),
            (Stage::RouterTraining, &router),
        ] {
            let path = store.path(stage.label(), key);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }
        check_recalibrated(&config, &cold, &cold_routed, (&classifier, &router));
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn pool_validation_profiles_cache_and_reload() {
        let cache = tmp_cache("pool-validation");
        let config = session_config(Some(cache.clone()));
        let spec = PoolSpec::sized(&sobel().npu_topology(), 2);
        let session = CompileSession::new(sobel(), config.clone())
            .train_npu()
            .unwrap()
            .profile()
            .unwrap()
            .train_pool(&spec)
            .unwrap();
        let pool = session.pool().clone();

        let (cold, cold_report) = profile_pool_validation(&pool, &config, 1_000_000, 3);
        assert_eq!(cold_report.cache, CacheOutcome::Miss);
        assert_eq!(cold.len(), pool.len());

        let (warm, warm_report) = profile_pool_validation(&pool, &config, 1_000_000, 3);
        assert!(warm_report.is_cache_hit());
        assert_eq!(warm_report.invocations, 0);
        for (w, c) in warm.iter().zip(&cold) {
            for (wp, cp) in w.iter().zip(c) {
                assert_eq!(wp.errors(), cp.errors());
            }
        }

        // The accurate member's validation profiles share the binary key.
        let (binary, binary_report) = profile_validation(pool.accurate(), &config, 1_000_000, 3);
        assert!(binary_report.is_cache_hit());
        for (bp, cp) in binary.iter().zip(cold.last().unwrap()) {
            assert_eq!(bp.errors(), cp.errors());
        }
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn non_default_routing_gets_distinct_cache_keys() {
        let config = session_config(None);
        let spec = PoolSpec::sized(&sobel().npu_topology(), 2);
        let default_key = routed_threshold_key("sobel", &config, &spec);
        assert!(
            default_key.ends_with("certifier=deployed"),
            "default routing must keep its pre-explorer key: {default_key}"
        );
        let margined = spec.clone().with_margins(vec![0.75, 1.0]);
        let neural = spec
            .clone()
            .with_router(crate::route::RouterKind::kary_neural_default());
        assert_ne!(
            routed_threshold_key("sobel", &config, &margined),
            default_key
        );
        assert_ne!(routed_threshold_key("sobel", &config, &neural), default_key);
        assert_ne!(
            router_key("sobel", &config, &margined),
            router_key("sobel", &config, &neural)
        );
    }

    #[test]
    fn report_display_lists_every_stage() {
        let config = session_config(None);
        let session = CompileSession::new(sobel(), config).train_npu().unwrap();
        let (_, report) = session.into_parts();
        let text = format!("{report}");
        assert!(text.contains("compile session [sobel]"));
        assert!(text.contains("npu-training"));
        assert!(text.contains("cache off"));
    }
}
