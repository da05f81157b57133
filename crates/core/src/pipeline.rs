//! The end-to-end compile pipeline (paper Figure 2, left half).
//!
//! Given a benchmark and a quality specification, the compiler:
//!
//! 1. trains the NPU on the compilation datasets (the standard approximate
//!    acceleration workflow);
//! 2. profiles every compilation dataset, caching precise/approximate
//!    outputs and per-invocation errors;
//! 3. runs the statistical threshold optimization (Algorithm 1 +
//!    Clopper–Pearson);
//! 4. labels training data at the threshold and trains both hardware
//!    classifiers (table + neural);
//! 5. compresses the table content for the binary.
//!
//! The output, [`Compiled`], carries everything the runtime (and the
//! system simulator in `mithra-sim`) needs.

use crate::cache::CacheConfig;
use crate::function::{AcceleratedFunction, NpuTrainConfig};
use crate::misr::InputQuantizer;
use crate::neural::{NeuralClassifier, NeuralTrainConfig};
use crate::oracle::OracleClassifier;
use crate::profile::DatasetProfile;
use crate::session::{CompileSession, SessionReport};
use crate::table::{TableClassifier, TableDesign};
use crate::threshold::{QualitySpec, ThresholdOutcome};
use crate::training::TrainingExample;
use crate::watchdog::Calibration;
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_npu::kernel::KernelBackend;
use std::sync::Arc;

use crate::Result;

/// Configuration of the whole compile flow.
#[derive(Debug, Clone)]
pub struct CompileConfig {
    /// Dataset scale (smoke for tests, full for experiments).
    pub scale: DatasetScale,
    /// Number of representative compilation datasets (paper: 250).
    pub compile_datasets: usize,
    /// Seed base for compilation datasets; dataset `i` uses
    /// `seed_base + i`.
    pub seed_base: u64,
    /// The quality requirement to certify.
    pub spec: QualitySpec,
    /// NPU training settings.
    pub npu: NpuTrainConfig,
    /// Table classifier geometry.
    pub table_design: TableDesign,
    /// Neural classifier training settings.
    pub neural: NeuralTrainConfig,
    /// Cap on labeled classifier-training tuples.
    pub classifier_train_samples: usize,
    /// How many compilation datasets feed NPU training (profiling still
    /// uses all of them).
    pub npu_train_datasets: usize,
    /// Optional on-disk artifact cache; `None` recomputes every stage.
    pub cache: Option<CacheConfig>,
    /// Worker threads for parallel profiling (`None` = available
    /// parallelism). Affects wall time only, never results, so the
    /// artifact cache ignores it.
    pub threads: Option<usize>,
    /// The NPU arithmetic, named for benchmark records. There is one
    /// ([`KernelBackend::Scalar`]), so no stage reads this and the
    /// artifact cache ignores it.
    pub kernel: KernelBackend,
}

impl Default for CompileConfig {
    fn default() -> Self {
        Self {
            scale: DatasetScale::Full,
            compile_datasets: 250,
            seed_base: 0,
            spec: QualitySpec::paper_default(0.05).expect("0.05 is a valid target"),
            npu: NpuTrainConfig::default(),
            table_design: TableDesign::paper_default(),
            neural: NeuralTrainConfig::default(),
            classifier_train_samples: 30_000,
            npu_train_datasets: 10,
            cache: None,
            threads: None,
            kernel: KernelBackend::Scalar,
        }
    }
}

impl CompileConfig {
    /// A reduced configuration for unit tests: smoke-scale datasets, few
    /// of them, quick training.
    pub fn smoke() -> Self {
        Self {
            scale: DatasetScale::Smoke,
            compile_datasets: 20,
            spec: QualitySpec::new(0.10, 0.9, 0.5).expect("valid test spec"),
            npu: NpuTrainConfig {
                epochs: Some(25),
                max_samples: 1500,
                seed: 11,
            },
            neural: NeuralTrainConfig {
                hidden_candidates: vec![2, 4],
                epochs: 40,
                ..NeuralTrainConfig::default()
            },
            classifier_train_samples: 2_000,
            npu_train_datasets: 3,
            ..Self::default()
        }
    }
}

/// Everything the compile flow produces.
#[derive(Debug)]
pub struct Compiled {
    /// The benchmark bound to its trained accelerator.
    pub function: AcceleratedFunction,
    /// The certified threshold and its statistics.
    pub threshold: ThresholdOutcome,
    /// The trained table-based classifier.
    pub table: TableClassifier,
    /// The trained neural classifier.
    pub neural: NeuralClassifier,
    /// The profiles of the compilation datasets (reusable by harnesses).
    pub profiles: Vec<DatasetProfile>,
    /// The labeled training tuples used for both classifiers.
    pub training_data: Vec<TrainingExample>,
    /// The table's clean watchdog calibration counts over `profiles` at
    /// the certified threshold, counted once when the table was trained.
    pub calibration: Calibration,
}

impl Compiled {
    /// Builds the oracle for a profiled dataset at the compiled threshold.
    pub fn oracle_for(&self, profile: &DatasetProfile) -> OracleClassifier {
        OracleClassifier::for_profile(profile, self.threshold.threshold)
    }

    /// A copy of this artifact with the runtime operating point replaced —
    /// the re-certifier's hot-swap. Only the `threshold` value and the
    /// table classifier change; the accelerator and neural classifier are
    /// shared unchanged, and the compile-time profiles and training data
    /// (which describe the *original* compile, not the new pair) are not
    /// carried over, so neither are their calibration counts: the copy
    /// counts nothing. The remaining [`crate::threshold::ThresholdOutcome`]
    /// statistics still describe the original certificate — the swapped
    /// pair's certificate lives with whoever performed the swap.
    pub fn with_operating_point(
        &self,
        threshold: f32,
        table: crate::table::TableClassifier,
    ) -> Compiled {
        Compiled {
            function: self.function.clone(),
            threshold: crate::threshold::ThresholdOutcome {
                threshold,
                ..self.threshold.clone()
            },
            table,
            neural: self.neural.clone(),
            profiles: Vec::new(),
            training_data: Vec::new(),
            calibration: Calibration::default(),
        }
    }
}

/// Runs the full compile flow for one benchmark.
///
/// # Errors
///
/// Propagates failures from any stage: NPU training, certification
/// ([`crate::MithraError::Uncertifiable`] when the spec cannot be met), or
/// classifier training.
pub fn compile(benchmark: Arc<dyn Benchmark>, config: &CompileConfig) -> Result<Compiled> {
    Ok(compile_with_report(benchmark, config)?.0)
}

/// [`compile`], additionally returning the per-stage instrumentation.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_with_report(
    benchmark: Arc<dyn Benchmark>,
    config: &CompileConfig,
) -> Result<(Compiled, SessionReport)> {
    let session = CompileSession::new(benchmark, config.clone())
        .train_npu()?
        .profile()?
        .certify()?
        .train_classifiers()?;
    Ok(session.finish())
}

/// Runs the **routed** compile flow for one benchmark: the shared NPU
/// training and profiling stages, then the routing branch — pool
/// training, routed-mixture certification, router training. A
/// [`PoolSpec::single`] over the benchmark's default topology produces a
/// pool-of-one whose threshold and router are bit-identical to
/// [`compile`]'s.
///
/// [`PoolSpec::single`]: crate::route::PoolSpec::single
///
/// # Errors
///
/// Same as [`compile`], plus [`crate::MithraError::Uncertifiable`] when
/// the routed mixture cannot be certified.
pub fn compile_routed(
    benchmark: Arc<dyn Benchmark>,
    config: &CompileConfig,
    spec: &crate::route::PoolSpec,
) -> Result<crate::route::RoutedCompiled> {
    Ok(compile_routed_with_report(benchmark, config, spec)?.0)
}

/// [`compile_routed`], additionally returning per-stage instrumentation.
///
/// # Errors
///
/// Same as [`compile_routed`].
pub fn compile_routed_with_report(
    benchmark: Arc<dyn Benchmark>,
    config: &CompileConfig,
    spec: &crate::route::PoolSpec,
) -> Result<(crate::route::RoutedCompiled, SessionReport)> {
    let session = CompileSession::new(benchmark, config.clone())
        .train_npu()?
        .profile()?
        .train_pool(spec)?
        .certify_routed()?
        .train_router()?;
    Ok(session.finish_routed())
}

/// The compile flow from certification onward, for callers that already
/// hold a trained function and its profiles (the Pareto sweep retrains
/// the table at many design points without re-profiling).
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_with_profiles(
    function: AcceleratedFunction,
    profiles: Vec<DatasetProfile>,
    config: &CompileConfig,
) -> Result<Compiled> {
    let session = CompileSession::resume_with_profiles(function, profiles, config.clone())
        .certify()?
        .train_classifiers()?;
    Ok(session.finish().0)
}

/// Fits the table classifier's input quantizer from profiled inputs.
pub fn quantizer_from_profiles(profiles: &[DatasetProfile]) -> InputQuantizer {
    InputQuantizer::fit(profiles.iter().flat_map(|p| p.dataset().iter()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{Classifier, Decision};
    use mithra_axbench::suite;

    fn compile_smoke(name: &str) -> Compiled {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        compile(bench, &CompileConfig::smoke()).unwrap()
    }

    #[test]
    fn compile_produces_consistent_artifacts() {
        let compiled = compile_smoke("sobel");
        assert!(compiled.threshold.threshold >= 0.0);
        assert_eq!(compiled.profiles.len(), 20);
        assert!(!compiled.training_data.is_empty());
        assert_eq!(compiled.table.design(), TableDesign::paper_default());
        assert_eq!(compiled.neural.topology().inputs(), 9);
    }

    #[test]
    fn validation_quality_usually_within_target() {
        // The statistical machinery promises most *unseen* datasets meet
        // the target; check on fresh seeds.
        let compiled = compile_smoke("sobel");
        let spec = CompileConfig::smoke().spec;
        let mut ok = 0;
        let n = 10u64;
        for s in 0..n {
            let ds = compiled
                .function
                .dataset(1_000_000 + s, DatasetScale::Smoke);
            let profile = DatasetProfile::collect(&compiled.function, ds);
            let replay =
                profile.replay_with_threshold(&compiled.function, compiled.threshold.threshold);
            if replay.quality_loss <= spec.max_quality_loss {
                ok += 1;
            }
        }
        assert!(ok >= n / 2, "only {ok}/{n} unseen datasets met the target");
    }

    #[test]
    fn classifiers_decide_for_real_inputs() {
        let mut compiled = compile_smoke("inversek2j");
        let ds = compiled.function.dataset(500, DatasetScale::Smoke);
        let mut table_rejects = 0;
        for (i, input) in ds.iter().enumerate() {
            let d1 = compiled.table.classify(i, input);
            let d2 = compiled.neural.classify(i, input);
            if d1 == Decision::Precise {
                table_rejects += 1;
            }
            let _ = d2;
        }
        // The table must not reject everything.
        assert!(table_rejects < ds.invocation_count());
    }

    #[test]
    fn oracle_matches_profile_ground_truth() {
        let compiled = compile_smoke("blackscholes");
        let profile = &compiled.profiles[0];
        let mut oracle = compiled.oracle_for(profile);
        for i in 0..profile.invocation_count() {
            let expected = profile.max_error(i) > compiled.threshold.threshold;
            assert_eq!(
                oracle.classify(i, profile.dataset().input(i)).is_precise(),
                expected
            );
        }
    }

    #[test]
    fn compile_with_profiles_reuses_work() {
        let compiled = compile_smoke("sobel");
        let mut cfg = CompileConfig::smoke();
        cfg.table_design = TableDesign {
            tables: 2,
            entries_per_table: 1024,
        };
        let recompiled =
            compile_with_profiles(compiled.function.clone(), compiled.profiles.clone(), &cfg)
                .unwrap();
        assert_eq!(recompiled.table.design().tables, 2);
        // Threshold depends only on function+profiles+spec: unchanged.
        assert_eq!(recompiled.threshold.threshold, compiled.threshold.threshold);
    }
}
