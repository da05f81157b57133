//! Multiple accelerated functions per application (paper §III-A).
//!
//! "If the application offloads multiple functions to the accelerator,
//! this algorithm can be extended to greedily find a tuple of thresholds.
//! Due to the complexity of application behavior, this greedy approach
//! will find suboptimal thresholds if the number of offloaded functions
//! increases."
//!
//! The model: an application has `k` accelerated regions; its final
//! quality loss is scored once over the combined output. Profiles are
//! collected per region, and a *joint replay* mixes each region's decision
//! stream. The greedy optimizer orders regions by their potential benefit
//! (invocations × per-invocation saving) and, one region at a time, finds
//! the loosest threshold that keeps the joint certification passing while
//! all not-yet-optimized regions stay fully precise.
//!
//! Each region's search is the one memoized [`MemoBisection`], keyed on
//! how many of the region's invocations a threshold accepts: the other
//! regions are fixed while it runs, so equal counts certify identically.

use crate::function::AcceleratedFunction;
use crate::profile::DatasetProfile;
use crate::threshold::{accepted_in, max_finite_error, MemoBisection, Probe, QualitySpec};
use crate::{MithraError, Result};
use mithra_stats::clopper_pearson::lower_bound;

/// Midpoint probes of each region's bisection.
const BISECTION_ITERATIONS: u32 = 20;

/// One accelerated region of a multi-function application: its function
/// and its per-dataset profiles (same dataset order across regions).
#[derive(Debug)]
pub struct Region {
    /// The region's accelerated function.
    pub function: AcceleratedFunction,
    /// One profile per application dataset, index-aligned across regions.
    pub profiles: Vec<DatasetProfile>,
    /// Relative weight of this region's output in the application's final
    /// quality (regions contribute `weight / Σ weights` of the score).
    /// Must be finite and positive.
    pub weight: f64,
}

impl Region {
    /// Per-dataset quality loss and mean invocation rate of this region
    /// when filtered at `th`.
    fn replay_at(&self, th: f32) -> (Vec<f64>, f64) {
        let replays: Vec<_> = self
            .profiles
            .iter()
            .map(|p| p.replay_with_threshold(&self.function, th))
            .collect();
        let rates: f64 = replays.iter().map(|r| r.invocation_rate()).sum();
        let qualities = replays.iter().map(|r| r.quality_loss).collect();
        (qualities, rates / self.profiles.len().max(1) as f64)
    }

    /// A proxy for the benefit of accelerating this region: invocations
    /// per dataset times the kernel cycles an invocation saves.
    fn benefit_proxy(&self) -> f64 {
        let profile = self.function.benchmark().profile();
        let per_ds = self
            .profiles
            .first()
            .map_or(0, DatasetProfile::invocation_count);
        per_ds as f64 * profile.kernel_cycles as f64
    }
}

/// One probe of a region's search: the region replayed at `threshold` and
/// the joint certificate with every other region at its current threshold.
#[derive(Debug, Clone)]
struct RegionProbe {
    threshold: f32,
    qualities: Vec<f64>,
    invocation_rate: f64,
    successes: u64,
    certified_rate: f64,
}

impl Probe for RegionProbe {
    fn at(&self, threshold: f32) -> Self {
        Self {
            threshold,
            ..self.clone()
        }
    }
}

/// The jointly certified thresholds for a multi-region application.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleOutcome {
    /// One threshold per region, in input order.
    pub thresholds: Vec<f32>,
    /// Joint successes over the application datasets.
    pub successes: u64,
    /// Total application datasets.
    pub trials: u64,
    /// Clopper–Pearson lower bound on the joint success rate.
    pub certified_rate: f64,
    /// Mean invocation rate per region at the chosen thresholds.
    pub invocation_rates: Vec<f64>,
    /// Every region search's probe thresholds, in probe order.
    pub probes: Vec<f32>,
    /// Probes that accepted as many of their region's invocations as an
    /// earlier probe of that region and so reused its replays.
    pub reused: usize,
}

/// Greedy tuple-threshold optimizer over multiple regions.
#[derive(Debug, Clone, Copy)]
pub struct TupleOptimizer {
    spec: QualitySpec,
}

impl TupleOptimizer {
    /// Creates an optimizer for the given quality specification.
    pub fn new(spec: QualitySpec) -> Self {
        Self { spec }
    }

    /// Certifies the joint per-dataset quality: the weighted sum of
    /// regional losses (the model of an application whose output
    /// concatenates the regions' outputs with the given weights).
    /// Returns the joint successes and their Clopper–Pearson bound.
    fn certify(&self, regions: &[Region], per_region: &[Vec<f64>]) -> Result<(u64, f64)> {
        let n = per_region.first().map_or(0, Vec::len);
        let total_weight: f64 = regions.iter().map(|r| r.weight).sum();
        let successes = (0..n)
            .map(|d| {
                regions
                    .iter()
                    .zip(per_region)
                    .map(|(r, q)| r.weight * q[d])
                    .sum::<f64>()
                    / total_weight
            })
            .filter(|&q| q <= self.spec.max_quality_loss)
            .count() as u64;
        let bound = lower_bound(successes, n as u64, self.spec.confidence)?;
        Ok((successes, bound))
    }

    /// Finds the tuple of thresholds greedily.
    ///
    /// Regions are processed in descending benefit order. For each region
    /// in turn, the loosest threshold passing the joint certification —
    /// with already-optimized regions at their chosen thresholds and
    /// remaining regions fully precise — is found by bisection: the
    /// largest finite error the region observed is taken outright when it
    /// certifies, else the last certifying midpoint, else threshold 0.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] for empty inputs or
    /// misaligned profile counts, [`MithraError::InvalidConfig`] for a
    /// weight that is not finite and positive, and
    /// [`MithraError::Uncertifiable`] if even the all-precise tuple fails
    /// certification.
    pub fn optimize(&self, regions: &[Region]) -> Result<TupleOutcome> {
        if regions.is_empty() {
            return Err(MithraError::InsufficientData {
                stage: "tuple threshold optimization",
                available: 0,
                needed: 1,
            });
        }
        let invalid = |r: &Region| !(r.weight.is_finite() && r.weight > 0.0);
        if regions.iter().any(invalid) {
            return Err(MithraError::InvalidConfig {
                parameter: "weight",
                constraint: "finite and > 0",
            });
        }
        let n_datasets = regions[0].profiles.len();
        if n_datasets == 0 || regions.iter().any(|r| r.profiles.len() != n_datasets) {
            return Err(MithraError::InsufficientData {
                stage: "tuple threshold optimization (aligned profiles)",
                available: regions.iter().map(|r| r.profiles.len()).min().unwrap_or(0),
                needed: n_datasets.max(1),
            });
        }

        // All-precise baseline must certify.
        let mut qualities: Vec<Vec<f64>> = regions.iter().map(|r| r.replay_at(-1.0).0).collect();
        let (_, bound0) = self.certify(regions, &qualities)?;
        if bound0 < self.spec.success_rate {
            return Err(MithraError::Uncertifiable {
                quality_target: self.spec.max_quality_loss,
                required_rate: self.spec.success_rate,
                best_rate: bound0,
            });
        }

        // Benefit-descending greedy order.
        let mut order: Vec<usize> = (0..regions.len()).collect();
        order.sort_by(|&a, &b| {
            regions[b]
                .benefit_proxy()
                .partial_cmp(&regions[a].benefit_proxy())
                .expect("benefit proxies are finite")
        });

        let passes = |p: &RegionProbe| p.certified_rate >= self.spec.success_rate;
        let mut thresholds = vec![0.0f32; regions.len()];
        let mut invocation_rates = vec![0.0f64; regions.len()];
        let (mut successes, mut certified_rate) = (0, bound0);
        let (mut probes, mut reused) = (Vec::new(), 0);
        for &r in &order {
            let region = &regions[r];
            let mut search = MemoBisection::new(
                |t| Ok(accepted_in(&region.profiles, t)),
                |_, threshold| {
                    let (mine, invocation_rate) = region.replay_at(threshold);
                    let mut joint = qualities.clone();
                    joint[r] = mine;
                    let (successes, certified_rate) = self.certify(regions, &joint)?;
                    Ok(RegionProbe {
                        threshold,
                        qualities: std::mem::take(&mut joint[r]),
                        invocation_rate,
                        successes,
                        certified_rate,
                    })
                },
            );
            let hi = max_finite_error(&region.profiles);
            let loosest = search.probe(hi)?;
            let chosen = if passes(&loosest) {
                loosest
            } else {
                match search.bisect(0.0..hi, BISECTION_ITERATIONS, passes)? {
                    Some(best) => best,
                    None => search.probe(0.0)?,
                }
            };
            let search = search.finish(chosen);
            probes.extend(search.probes.iter().map(|p| p.threshold));
            reused += search.reused;
            let chosen = search.outcome;
            thresholds[r] = chosen.threshold;
            invocation_rates[r] = chosen.invocation_rate;
            (successes, certified_rate) = (chosen.successes, chosen.certified_rate);
            qualities[r] = chosen.qualities;
        }

        // The last region's chosen probe certified the final tuple.
        Ok(TupleOutcome {
            thresholds,
            successes,
            trials: n_datasets as u64,
            certified_rate,
            invocation_rates,
            probes,
            reused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::NpuTrainConfig;
    use mithra_axbench::benchmark::Benchmark;
    use mithra_axbench::dataset::{Dataset, DatasetScale};
    use mithra_axbench::suite;
    use std::sync::Arc;

    fn region_for(name: &str, weight: f64, n: u64) -> Region {
        let bench: Arc<dyn Benchmark> = suite::by_name(name).unwrap().into();
        let train: Vec<Dataset> = (0..2)
            .map(|s| bench.dataset(s, DatasetScale::Smoke))
            .collect();
        let function = AcceleratedFunction::train(
            bench,
            &train,
            &NpuTrainConfig {
                epochs: Some(25),
                max_samples: 1200,
                seed: 17,
            },
        )
        .unwrap();
        let profiles = (300..300 + n)
            .map(|s| DatasetProfile::collect(&function, function.dataset(s, DatasetScale::Smoke)))
            .collect();
        Region {
            function,
            profiles,
            weight,
        }
    }

    #[test]
    fn two_region_application_certifies() {
        let regions = vec![
            region_for("sobel", 1.0, 20),
            region_for("inversek2j", 1.0, 20),
        ];
        let spec = QualitySpec::new(0.15, 0.9, 0.5).unwrap();
        let outcome = TupleOptimizer::new(spec).optimize(&regions).unwrap();
        assert_eq!(outcome.thresholds.len(), 2);
        assert!(outcome.certified_rate >= 0.5);
        assert!(outcome.thresholds.iter().any(|&t| t > 0.0));
        assert_eq!(outcome.invocation_rates.len(), 2);
    }

    #[test]
    fn single_region_reduces_to_plain_optimization() {
        let regions = vec![region_for("sobel", 1.0, 20)];
        let spec = QualitySpec::new(0.20, 0.9, 0.5).unwrap();
        let outcome = TupleOptimizer::new(spec).optimize(&regions).unwrap();
        assert!(outcome.thresholds[0] > 0.0);
        assert!(outcome.invocation_rates[0] > 0.0);
    }

    #[test]
    fn tighter_joint_targets_tighten_all_thresholds() {
        let make = || {
            vec![
                region_for("sobel", 1.0, 15),
                region_for("inversek2j", 1.0, 15),
            ]
        };
        let loose = TupleOptimizer::new(QualitySpec::new(0.25, 0.9, 0.5).unwrap())
            .optimize(&make())
            .unwrap();
        let tight = TupleOptimizer::new(QualitySpec::new(0.03, 0.9, 0.5).unwrap())
            .optimize(&make())
            .unwrap();
        let loose_sum: f32 = loose.thresholds.iter().sum();
        let tight_sum: f32 = tight.thresholds.iter().sum();
        assert!(tight_sum <= loose_sum + 1e-6);
    }

    #[test]
    fn misaligned_profiles_rejected() {
        let mut regions = vec![
            region_for("sobel", 1.0, 10),
            region_for("inversek2j", 1.0, 10),
        ];
        regions[1].profiles.pop();
        let spec = QualitySpec::new(0.10, 0.9, 0.5).unwrap();
        assert!(matches!(
            TupleOptimizer::new(spec).optimize(&regions),
            Err(MithraError::InsufficientData { .. })
        ));
    }

    #[test]
    fn non_positive_or_non_finite_weights_rejected() {
        let spec = QualitySpec::new(0.10, 0.9, 0.5).unwrap();
        let mut regions = vec![
            region_for("sobel", 1.0, 5),
            region_for("inversek2j", 1.0, 5),
        ];
        for weight in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            regions[1].weight = weight;
            assert!(
                matches!(
                    TupleOptimizer::new(spec).optimize(&regions),
                    Err(MithraError::InvalidConfig {
                        parameter: "weight",
                        ..
                    })
                ),
                "weight {weight}"
            );
        }
    }

    #[test]
    fn empty_regions_rejected() {
        let spec = QualitySpec::new(0.10, 0.9, 0.5).unwrap();
        assert!(TupleOptimizer::new(spec).optimize(&[]).is_err());
    }

    #[test]
    fn impossible_success_rate_uncertifiable() {
        let regions = vec![region_for("sobel", 1.0, 5)];
        let spec = QualitySpec::new(0.10, 0.95, 0.99).unwrap();
        assert!(matches!(
            TupleOptimizer::new(spec).optimize(&regions),
            Err(MithraError::Uncertifiable { .. })
        ));
    }
}
