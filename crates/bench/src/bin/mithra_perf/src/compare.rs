//! Result files, and the `compare` subcommand that judges a change's
//! result files against its parent's.
//!
//! A metric regresses when the change's median is worse than the
//! parent's by more than the metric's bound. It is unresolved when
//! either side's spread (interquartile range over median) exceeds the
//! bound, unless every change run beats every parent run. A gain needs
//! the change to win at least nine tenths of the runs paired by seed
//! (ties count for neither) and the medians to differ by more than the
//! parent's interquartile range. A zero bound (failed operations) makes
//! any increase of the median a regression.

use crate::stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn parse(label: &str) -> Result<Self, String> {
        match label {
            "lower" => Ok(Better::Lower),
            "higher" => Ok(Better::Higher),
            other => Err(format!("unknown direction `{other}`")),
        }
    }
}

/// An end-to-end metric: its unit, direction, and the share of the
/// parent's median by which it may worsen before a change regresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric a workload can report.
pub const METRICS: [MetricDef; 7] = [
    metric("compile_s", "s", Better::Lower, 0.10),
    metric("verdict_s", "s", Better::Lower, 0.10),
    metric("serve_inv_per_s", "inv/s", Better::Higher, 0.10),
    metric("engine_start_ms", "ms", Better::Lower, 0.10),
    metric("setup_s", "s", Better::Lower, 0.25),
    // Any increase in failed operations is a regression.
    metric("failed_frac", "ratio", Better::Lower, 0.0),
    metric("peak_rss_mb", "MB", Better::Lower, 0.10),
];

pub fn metric_def(name: &str) -> MetricDef {
    *METRICS
        .iter()
        .find(|m| m.name == name)
        .expect("every reported metric is defined")
}

/// One metric of one run: its samples and their summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRecord {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub percentile: Option<f64>,
    pub percentile_value: Option<f64>,
    pub samples: Vec<f64>,
}

impl MetricRecord {
    pub fn new(name: &str, samples: Vec<f64>) -> Self {
        let def = metric_def(name);
        let s = Summary::of(&samples);
        Self {
            name: def.name.to_string(),
            unit: def.unit.to_string(),
            better: def.better.label().to_string(),
            bound: def.bound,
            n: s.n,
            median: s.median,
            q1: s.q1,
            q3: s.q3,
            percentile: s.percentile.map(|p| p.0),
            percentile_value: s.percentile.map(|p| p.1),
            samples,
        }
    }
}

/// An untraced run's result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    /// Hash of the measured executable.
    pub exe_hash: String,
    pub nproc: usize,
    pub simd: Vec<String>,
    pub kernel: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<MetricRecord>,
    /// Outputs the goldens pin, as observed: `key=value`.
    pub observed: Vec<String>,
}

/// Reads every untraced result file (`*.json`, not `*.trace.json`) in
/// `dir`.
pub fn load_runs(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".json") && !name.ends_with(".trace.json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    runs.sort_by(|a: &RunRecord, b| (&a.workload, a.seed).cmp(&(&b.workload, b.seed)));
    Ok(runs)
}

/// How a change moved one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Unchanged,
    Regression,
    Unresolved,
}

/// Judges a change's per-run values against its parent's; runs are
/// `(seed, value)` and pair up by seed.
pub fn judge(parent: &[(u64, f64)], change: &[(u64, f64)], better: Better, bound: f64) -> Verdict {
    let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
    let (p, c) = (Summary::of(&values(parent)), Summary::of(&values(change)));
    // Positive when `a` is worse than `b`.
    let worse = |a: f64, b: f64| match better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    let all_better = change
        .iter()
        .all(|&(_, cv)| parent.iter().all(|&(_, pv)| worse(cv, pv) < 0.0));
    // A zero bound marks an exact count (failures): no spread to resolve.
    let noisy = bound > 0.0 && (p.spread() > bound || c.spread() > bound);
    if noisy && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = worse(c.median, p.median);
    let regressed = if p.median == 0.0 {
        worse_by > 0.0
    } else {
        worse_by / p.median.abs() > bound
    };
    if regressed {
        return Verdict::Regression;
    }
    let pairs: Vec<f64> = change
        .iter()
        .filter_map(|&(seed, cv)| {
            parent
                .iter()
                .find(|r| r.0 == seed)
                .map(|&(_, pv)| worse(cv, pv))
        })
        .collect();
    let wins = pairs.iter().filter(|&&d| d < 0.0).count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && -worse_by > p.q3 - p.q1 {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    }
}

/// The `compare` subcommand: prints one row per workload and metric and
/// returns whether any metric regressed.
pub fn compare(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    /// One metric on one workload: its first record, and each side's
    /// per-run `(seed, median)`.
    struct Row {
        metric: MetricRecord,
        sides: [Vec<(u64, f64)>; 2],
    }
    let mut table: BTreeMap<(String, String), Row> = BTreeMap::new();
    for (side, dir) in [parent_dir, change_dir].into_iter().enumerate() {
        for run in load_runs(dir)? {
            for m in run.metrics {
                let row = table
                    .entry((run.workload.clone(), m.name.clone()))
                    .or_insert_with(|| Row {
                        metric: m.clone(),
                        sides: [Vec::new(), Vec::new()],
                    });
                row.sides[side].push((run.seed, m.median));
            }
        }
    }
    println!(
        "{:<15} {:<16} {:>6}  {:>30}  {:>30}  verdict",
        "workload", "metric", "bound", "parent median [q1, q3] n", "change median [q1, q3] n"
    );
    let mut regressed = false;
    for (
        (workload, name),
        Row {
            metric,
            sides: [parent, change],
        },
    ) in &table
    {
        let side = |runs: &[(u64, f64)]| {
            if runs.is_empty() {
                return "missing".to_string();
            }
            let s = Summary::of(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
            format!(
                "{:.4} [{:.4}, {:.4}] {} {}",
                s.median, s.q1, s.q3, s.n, metric.unit
            )
        };
        let verdict = if parent.is_empty() || change.is_empty() {
            "missing".to_string()
        } else {
            let v = judge(parent, change, Better::parse(&metric.better)?, metric.bound);
            regressed |= v == Verdict::Regression;
            format!("{v:?}").to_lowercase()
        };
        println!(
            "{workload:<15} {name:<16} {:>5.0}%  {:>30}  {:>30}  {verdict}",
            metric.bound * 100.0,
            side(parent),
            side(change)
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.1, 9.9, 10.0];

    #[test]
    fn same_distribution_is_unchanged() {
        let change: Vec<f64> = PARENT.iter().rev().copied().collect();
        assert_eq!(
            judge(&runs(&PARENT), &runs(&change), Better::Lower, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_median_beyond_the_bound_regresses() {
        let slower: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&runs(&PARENT), &runs(&slower), Better::Lower, 0.10),
            Verdict::Regression
        );
        // Within the bound it is not a regression (and not a gain).
        let slightly: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            judge(&runs(&PARENT), &runs(&slightly), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // Direction: for a throughput the same numbers are a gain.
        assert_eq!(
            judge(&runs(&PARENT), &runs(&slower), Better::Higher, 0.10),
            Verdict::Gain
        );
    }

    #[test]
    fn gain_needs_nine_of_ten_pair_wins_and_a_gap_beyond_the_parent_iqr() {
        let faster: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
        assert_eq!(
            judge(&runs(&PARENT), &runs(&faster), Better::Lower, 0.10),
            Verdict::Gain
        );
        // Two lost pairs out of ten: 8/10 wins is not enough.
        let mut mixed = faster.clone();
        mixed[0] = 11.0;
        mixed[1] = 11.0;
        assert_eq!(
            judge(&runs(&PARENT), &runs(&mixed), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // Every pair won, but by less than the parent's IQR.
        let barely: Vec<f64> = PARENT.iter().map(|v| v - 0.01).collect();
        assert_eq!(
            judge(&runs(&PARENT), &runs(&barely), Better::Lower, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 13.0, 8.0, 11.0, 6.0, 15.0];
        assert_eq!(
            judge(&runs(&PARENT), &runs(&noisy), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let noisy_but_faster: Vec<f64> = noisy.iter().map(|v| v * 0.5).collect();
        assert_eq!(
            judge(
                &runs(&PARENT),
                &runs(&noisy_but_faster),
                Better::Lower,
                0.10
            ),
            Verdict::Gain
        );
    }

    #[test]
    fn any_increase_in_failures_regresses() {
        let none = [0.0; 10];
        let mut one = [0.0; 10];
        one[4..].fill(0.001);
        assert_eq!(
            judge(&runs(&none), &runs(&none), Better::Lower, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&runs(&none), &runs(&one), Better::Lower, 0.0),
            Verdict::Regression
        );
    }

    #[test]
    fn run_records_round_trip_through_json() {
        let record = RunRecord {
            workload: "serve".into(),
            seed: 3,
            exe_hash: "00ff".into(),
            nproc: 2,
            simd: vec![],
            kernel: "scalar".into(),
            attempted: 4,
            failed: 0,
            failures: vec![],
            metrics: vec![MetricRecord::new(
                "serve_inv_per_s",
                vec![3.5e6, 3.7e6, 3.6e6],
            )],
            observed: vec!["compile/fft/threshold_bits=1".into()],
        };
        let json = serde_json::to_string(&record).unwrap();
        assert_eq!(serde_json::from_str::<RunRecord>(&json).unwrap(), record);
    }
}
