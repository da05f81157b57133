//! Aggregation of per-dataset runs into the paper's reported statistics,
//! plus the compile-cost accounting harnesses report alongside them.

use crate::error::SimError;
use crate::system::RunResult;
use mithra_core::session::SessionReport;
use mithra_stats::descriptive::{geomean, mean};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregated metrics over many datasets of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSummary {
    /// Mean speedup over the datasets.
    pub speedup: f64,
    /// Mean energy reduction.
    pub energy_reduction: f64,
    /// Mean accelerator invocation rate.
    pub invocation_rate: f64,
    /// Mean quality loss.
    pub quality_loss: f64,
    /// Mean energy-delay-product improvement.
    pub edp_improvement: f64,
    /// Mean false-positive rate.
    pub false_positive_rate: f64,
    /// Mean false-negative rate.
    pub false_negative_rate: f64,
    /// Fraction of datasets whose quality loss met `quality_target`.
    pub success_fraction: f64,
}

impl BenchmarkSummary {
    /// Aggregates per-dataset runs; `quality_target` defines success.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty — a harness always simulates at least
    /// one dataset.
    pub fn from_runs(runs: &[RunResult], quality_target: f64) -> Self {
        Self::try_from_runs(runs, quality_target).expect("cannot summarize zero runs")
    }

    /// Fallible form of [`BenchmarkSummary::from_runs`] for sweep
    /// harnesses whose run lists are data-dependent.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyRuns`] if `runs` is empty.
    pub fn try_from_runs(runs: &[RunResult], quality_target: f64) -> Result<Self, SimError> {
        if runs.is_empty() {
            return Err(SimError::EmptyRuns);
        }
        let collect = |f: fn(&RunResult) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
        let successes = runs
            .iter()
            .filter(|r| r.quality_loss <= quality_target)
            .count();
        Ok(Self {
            speedup: mean(&collect(RunResult::speedup)).expect("non-empty"),
            energy_reduction: mean(&collect(RunResult::energy_reduction)).expect("non-empty"),
            invocation_rate: mean(&collect(RunResult::invocation_rate)).expect("non-empty"),
            quality_loss: mean(&collect(|r| r.quality_loss)).expect("non-empty"),
            edp_improvement: mean(&collect(RunResult::edp_improvement)).expect("non-empty"),
            false_positive_rate: mean(&collect(RunResult::false_positive_rate)).expect("non-empty"),
            false_negative_rate: mean(&collect(RunResult::false_negative_rate)).expect("non-empty"),
            success_fraction: successes as f64 / runs.len() as f64,
        })
    }
}

/// Geometric means across benchmarks — how Figure 6 reports the suite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuiteSummary {
    /// Geomean speedup across benchmarks.
    pub speedup: f64,
    /// Geomean energy reduction.
    pub energy_reduction: f64,
    /// Arithmetic-mean invocation rate (a rate, not a ratio).
    pub invocation_rate: f64,
    /// Geomean EDP improvement.
    pub edp_improvement: f64,
    /// Mean false-positive rate.
    pub false_positive_rate: f64,
    /// Mean false-negative rate.
    pub false_negative_rate: f64,
}

impl SuiteSummary {
    /// Aggregates per-benchmark summaries.
    ///
    /// # Panics
    ///
    /// Panics if `benchmarks` is empty.
    pub fn from_benchmarks(benchmarks: &[BenchmarkSummary]) -> Self {
        assert!(!benchmarks.is_empty(), "cannot summarize zero benchmarks");
        let collect =
            |f: fn(&BenchmarkSummary) -> f64| -> Vec<f64> { benchmarks.iter().map(f).collect() };
        Self {
            speedup: geomean(&collect(|b| b.speedup)).expect("positive speedups"),
            energy_reduction: geomean(&collect(|b| b.energy_reduction))
                .expect("positive reductions"),
            invocation_rate: mean(&collect(|b| b.invocation_rate)).expect("non-empty"),
            edp_improvement: geomean(&collect(|b| b.edp_improvement))
                .expect("positive improvements"),
            false_positive_rate: mean(&collect(|b| b.false_positive_rate)).expect("non-empty"),
            false_negative_rate: mean(&collect(|b| b.false_negative_rate)).expect("non-empty"),
        }
    }
}

/// Compile-time cost of producing one benchmark's artifacts, folded from
/// the staged pipeline's per-stage instrumentation. This is what harnesses
/// print next to runtime results so a reader can tell recomputed artifacts
/// from cache hits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileCost {
    /// The benchmark compiled.
    pub benchmark: String,
    /// Total wall-clock seconds across all stages.
    pub wall_seconds: f64,
    /// Total function invocations performed (0 when everything hit the
    /// cache).
    pub invocations: u64,
    /// Stages answered from the artifact cache.
    pub cached_stages: usize,
    /// Stages recorded in the session.
    pub total_stages: usize,
}

impl CompileCost {
    /// Folds a compile session's stage reports into one cost record.
    pub fn from_session(report: &SessionReport) -> Self {
        Self {
            benchmark: report.benchmark.clone(),
            wall_seconds: report.total_wall().as_secs_f64(),
            invocations: report.total_invocations(),
            cached_stages: report.stages.iter().filter(|s| s.is_cache_hit()).count(),
            total_stages: report.stages.len(),
        }
    }
}

impl fmt::Display for CompileCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compile cost [{}]: {:.2}s, {} invocations, {}/{} stages cached",
            self.benchmark,
            self.wall_seconds,
            self.invocations,
            self.cached_stages,
            self.total_stages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithra_core::session::{CacheOutcome, Stage, StageReport};
    use std::time::Duration;

    fn run(speedup_factor: f64, quality: f64) -> RunResult {
        RunResult {
            baseline_cycles: 1000.0 * speedup_factor,
            accelerated_cycles: 1000.0,
            baseline_energy_nj: 2000.0 * speedup_factor,
            accelerated_energy_nj: 2000.0,
            quality_loss: quality,
            invoked: 80,
            total: 100,
            false_positives: 10,
            false_negatives: 5,
        }
    }

    #[test]
    fn benchmark_summary_aggregates() {
        let runs = [run(2.0, 0.03), run(4.0, 0.08)];
        let s = BenchmarkSummary::from_runs(&runs, 0.05);
        assert_eq!(s.speedup, 3.0);
        assert_eq!(s.invocation_rate, 0.8);
        assert_eq!(s.success_fraction, 0.5);
        assert!((s.false_positive_rate - 0.1).abs() < 1e-12);
    }

    #[test]
    fn suite_summary_uses_geomean() {
        let a = BenchmarkSummary::from_runs(&[run(2.0, 0.01)], 0.05);
        let b = BenchmarkSummary::from_runs(&[run(8.0, 0.01)], 0.05);
        let suite = SuiteSummary::from_benchmarks(&[a, b]);
        assert!((suite.speedup - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn empty_runs_panic() {
        let _ = BenchmarkSummary::from_runs(&[], 0.05);
    }

    #[test]
    fn try_from_runs_surfaces_empty_as_error() {
        assert!(matches!(
            BenchmarkSummary::try_from_runs(&[], 0.05),
            Err(SimError::EmptyRuns)
        ));
        let ok = BenchmarkSummary::try_from_runs(&[run(2.0, 0.03)], 0.05).unwrap();
        assert_eq!(ok, BenchmarkSummary::from_runs(&[run(2.0, 0.03)], 0.05));
    }

    #[test]
    fn compile_cost_folds_stage_reports() {
        let session = SessionReport {
            benchmark: "sobel".into(),
            stages: vec![
                StageReport {
                    stage: Stage::NpuTraining,
                    wall: Duration::from_millis(1500),
                    invocations: 0,
                    cache: CacheOutcome::Hit,
                    cache_hits: 1,
                    cache_misses: 0,
                    probes: 0,
                    reused_probes: 0,
                    calibration_invocations: 0,
                    calibration_wall: Duration::ZERO,
                },
                StageReport {
                    stage: Stage::Profiling,
                    wall: Duration::from_millis(500),
                    invocations: 4096,
                    cache: CacheOutcome::Miss,
                    cache_hits: 0,
                    cache_misses: 1,
                    probes: 0,
                    reused_probes: 0,
                    calibration_invocations: 0,
                    calibration_wall: Duration::ZERO,
                },
            ],
        };
        let cost = CompileCost::from_session(&session);
        assert_eq!(cost.benchmark, "sobel");
        assert!((cost.wall_seconds - 2.0).abs() < 1e-9);
        assert_eq!(cost.invocations, 4096);
        assert_eq!(cost.cached_stages, 1);
        assert_eq!(cost.total_stages, 2);
        let line = cost.to_string();
        assert!(line.contains("sobel"), "{line}");
        assert!(line.contains("1/2 stages cached"), "{line}");
    }
}
