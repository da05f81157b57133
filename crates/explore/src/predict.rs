//! Cheap compile-time quality/cost predictors (autoAx-style).
//!
//! Paying full pool training plus deployed-in-the-loop certification for
//! all ~27 enumerated candidates would defeat the point of exploration.
//! Instead, every *unique member topology* in the space is trained once
//! as a **probe**: a reduced-epoch network profiled on a small prefix of
//! the compilation datasets. A candidate's quality and cost are then
//! estimated purely from margined-oracle replays of its members' probe
//! profiles — a 16-step bisection, the core's one memoized
//! [`MemoBisection`], finds the largest threshold whose probe success
//! fraction meets the target, and the serving shares at that threshold
//! price the mixture in MACs.
//!
//! Predictions are **rank-only**: they order candidates for pruning and
//! are never reported as results. The full-evaluation stage measures the
//! survivors for real and counts every discordant predicted-vs-measured
//! pair, so a systematically wrong predictor is visible in committed
//! output ([`PredictorMutation`] plants such defects for the honesty
//! self-check, mirroring the conform mutation discipline).

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::Dataset;
use mithra_core::cache::{ArtifactCache, TrainedNpuArtifact, CACHE_FORMAT_VERSION};
use mithra_core::function::{AcceleratedFunction, NpuTrainConfig};
use mithra_core::parallel::par_map_indexed;
use mithra_core::pipeline::CompileConfig;
use mithra_core::profile::{collect_profiles_parallel, replay_mixture, DatasetProfile};
use mithra_core::route::{oracle_route_margined, PoolSpec, RouteChoice, RouterKind};
use mithra_core::threshold::{accepted_in, max_finite_error, Bisection, MemoBisection, Probe};
use mithra_core::{MithraError, Result};
use mithra_npu::cost::NpuCostModel;
use mithra_npu::topology::Topology;
use serde::Serialize;
use std::sync::Arc;

/// Cache stage label for probe artifacts (trained probe networks and
/// their profiles). Distinct from every `CompileSession` stage label, so
/// probes can never shadow full-pipeline artifacts.
pub const PROBE_STAGE: &str = "explore-probe";

/// Decision cycles one consulted cascade stage puts on the critical
/// path, mirroring the table classifier's overhead model (the tables are
/// read in parallel after the last input element; a small fixed latency).
const CASCADE_STAGE_DECISION_CYCLES: f64 = 4.0;

/// Midpoint probes of the mini-certification bisection.
const BISECTION_ITERATIONS: u32 = 16;

/// A deliberately planted predictor defect for the honesty self-check.
///
/// The engine applies the mutation to the predictor's *ranks* before
/// pruning. Measured results are never touched, so a planted defect must
/// surface as predicted-vs-measured rank discordance counted by the
/// full-evaluation stage — exactly how a real (unplanted) misprediction
/// would be caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PredictorMutation {
    /// Reverses the cost ranking: the predicted-cheapest candidate is
    /// reported as the most expensive and vice versa.
    InvertedCost,
    /// Rotates every quality rank by one position (off-by-one).
    OffByOneQualityRank,
}

/// A candidate's predicted standing, from probe replays alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Prediction {
    /// The largest threshold whose probe success fraction met the
    /// target (the mini-certification analogue of Algorithm 1).
    pub mini_threshold: f32,
    /// Fraction of probe datasets within the quality target at
    /// `mini_threshold` — the quality-rank key, higher is better.
    pub probe_success: f64,
    /// Predicted mean per-invocation cycles relative to the precise CPU
    /// kernel (1.0 = no acceleration at all): router overhead plus the
    /// serving member's NPU cycles or the kernel on a precise fallback,
    /// priced with the simulator's own cost model — the cost-rank key,
    /// lower is better.
    pub relative_cost: f64,
}

impl Probe for Prediction {
    fn at(&self, threshold: f32) -> Self {
        Self {
            mini_threshold: threshold,
            ..*self
        }
    }
}

/// Probe profiles for every unique member topology of a design space.
#[derive(Debug)]
pub struct ProbeSet {
    benchmark: Arc<dyn Benchmark>,
    topologies: Vec<Topology>,
    /// `profiles[t][d]` = topology `t`'s probe profile of compilation
    /// dataset `d`.
    profiles: Vec<Vec<DatasetProfile>>,
}

fn probe_member_key(
    benchmark: &str,
    compile: &CompileConfig,
    probe_epochs: usize,
    topology: &Topology,
) -> String {
    format!(
        "v{CACHE_FORMAT_VERSION}/{benchmark}/explore-probe/scale={:?}/seed_base={}/train_datasets={}/npu={:?}/probe_epochs={probe_epochs}/topology={topology:?}",
        compile.scale, compile.seed_base, compile.npu_train_datasets, compile.npu
    )
}

impl ProbeSet {
    /// Trains (or cache-loads) a probe member per unique topology and
    /// profiles it on the leading `probe_datasets` compilation datasets.
    /// Training fans out through [`par_map_indexed`], so the probe set is
    /// bit-identical at any thread count; artifacts go through the
    /// versioned cache under the [`PROBE_STAGE`] label.
    ///
    /// # Errors
    ///
    /// Propagates NPU training failures.
    pub fn build(
        benchmark: &Arc<dyn Benchmark>,
        compile: &CompileConfig,
        topologies: Vec<Topology>,
        probe_datasets: usize,
        probe_epochs: usize,
    ) -> Result<Self> {
        let train_sets: Vec<Dataset> = (0..compile.npu_train_datasets as u64)
            .map(|i| benchmark.dataset(compile.seed_base + i, compile.scale))
            .collect();
        let npu = NpuTrainConfig {
            epochs: Some(probe_epochs),
            ..compile.npu.clone()
        };
        let cache = compile
            .cache
            .as_ref()
            .map(|c| ArtifactCache::open(c, benchmark.name()));
        let results = par_map_indexed(topologies.len(), compile.threads, |i| {
            let topology = &topologies[i];
            let member_key = probe_member_key(benchmark.name(), compile, probe_epochs, topology);
            let profiles_key = format!("{member_key}/probe_datasets={probe_datasets}");
            if let Some(c) = &cache {
                if let Some(profiles) = c.load_profiles(PROBE_STAGE, &profiles_key) {
                    return Ok(profiles);
                }
            }
            let function = match cache
                .as_ref()
                .and_then(|c| c.load::<TrainedNpuArtifact>(PROBE_STAGE, &member_key))
            {
                Some(artifact) => artifact.into_function(Arc::clone(benchmark)),
                None => {
                    let function = AcceleratedFunction::train_with_topology(
                        Arc::clone(benchmark),
                        &train_sets,
                        &npu,
                        topology,
                    )?;
                    if let Some(c) = &cache {
                        c.store(PROBE_STAGE, &member_key, &TrainedNpuArtifact::of(&function));
                    }
                    function
                }
            };
            // One probe trains at a time in this slot; profiling itself
            // is sequential here (the outer fan-out owns the threads).
            let profiles = collect_profiles_parallel(
                &function,
                compile.seed_base,
                probe_datasets,
                compile.scale,
                Some(1),
            );
            if let Some(c) = &cache {
                let _ = c.store_profiles(PROBE_STAGE, &profiles_key, &profiles);
            }
            Ok(profiles)
        });
        let profiles = results.into_iter().collect::<Result<Vec<_>>>()?;
        Ok(Self {
            benchmark: Arc::clone(benchmark),
            topologies,
            profiles,
        })
    }

    /// The unique topologies the probe set covers, in build order.
    pub fn topologies(&self) -> &[Topology] {
        &self.topologies
    }

    /// Number of probe datasets each member was profiled on.
    pub fn dataset_count(&self) -> usize {
        self.profiles.first().map_or(0, Vec::len)
    }

    /// Predicts one candidate's standing from its members' probe
    /// profiles, returned with its probes: the last midpoint whose success
    /// fraction meets `target_rate`, else a probe at threshold 0. A probe
    /// is keyed on each member's accepted count at its margined threshold,
    /// so one that routes every invocation as an earlier one reuses its
    /// replay.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] when a spec topology is
    /// missing from the probe set and propagates quality-scoring errors.
    pub fn predict(
        &self,
        spec: &PoolSpec,
        quality_target: f64,
        target_rate: f64,
    ) -> Result<Bisection<Prediction>> {
        let members = self.member_profiles(spec)?;
        let mut search = MemoBisection::new(
            |threshold| {
                let accepted = members.iter().enumerate().map(|(m, profiles)| {
                    accepted_in(*profiles, threshold * spec.margin_for(m) as f32)
                });
                Ok(accepted.collect::<Vec<usize>>())
            },
            |_, threshold| self.replay_at(spec, threshold, quality_target),
        );
        let hi = max_finite_error(members.iter().copied().flatten());
        let passes = |p: &Prediction| p.probe_success >= target_rate;
        let prediction = match search.bisect(0.0..hi, BISECTION_ITERATIONS, passes)? {
            Some(best) => best,
            None => search.probe(0.0)?,
        };
        Ok(search.finish(prediction))
    }

    /// The probe profiles of each of `spec`'s members, cheapest first.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] when a spec topology is
    /// missing from the probe set or the set profiled no dataset.
    pub fn member_profiles(&self, spec: &PoolSpec) -> Result<Vec<&[DatasetProfile]>> {
        let insufficient = |available, needed| MithraError::InsufficientData {
            stage: "design-space prediction",
            available,
            needed,
        };
        let members = spec
            .topologies
            .iter()
            .map(|t| {
                let i = self.topologies.iter().position(|p| p == t);
                let i = i.ok_or(insufficient(self.topologies.len(), spec.len()))?;
                Ok(self.profiles[i].as_slice())
            })
            .collect::<Result<Vec<_>>>()?;
        if self.dataset_count() == 0 {
            return Err(insufficient(0, 1));
        }
        Ok(members)
    }

    /// One unmemoized probe of [`predict`](Self::predict)'s search:
    /// replays every probe dataset under the margined oracle at
    /// `threshold`, scoring the success fraction against the quality
    /// target and the mean per-invocation relative cost.
    ///
    /// # Errors
    ///
    /// Same as [`predict`](Self::predict).
    pub fn replay_at(
        &self,
        spec: &PoolSpec,
        threshold: f32,
        quality_target: f64,
    ) -> Result<Prediction> {
        let member_profiles = self.member_profiles(spec)?;
        let bench = &self.benchmark;
        let cost_model = NpuCostModel::new();
        let kernel_cycles = bench.profile().kernel_cycles as f64;
        let member_cycles: Vec<f64> = spec
            .topologies
            .iter()
            .map(|t| cost_model.invocation(t).cycles as f64)
            .collect();
        let k = spec.len();
        // The neural router runs one fixed network per invocation; a
        // cascade pays a small decision latency per consulted stage.
        let neural_router_cycles = match &spec.router {
            RouterKind::TableCascade => None,
            RouterKind::KaryNeural(config) => {
                let hidden = config.hidden_candidates.iter().copied().max().unwrap_or(8);
                let input_dim = member_profiles[0][0].dataset().input_dim();
                let layers = [input_dim, hidden, k + 1];
                Some(match Topology::new(&layers) {
                    Ok(t) => cost_model.invocation(&t).cycles as f64,
                    Err(_) => 0.0,
                })
            }
        };
        let route_cycles = |consulted: usize| match neural_router_cycles {
            Some(c) => c,
            None => CASCADE_STAGE_DECISION_CYCLES * consulted as f64,
        };
        let datasets = self.dataset_count();
        let mut successes = 0usize;
        let mut cost = 0.0f64;
        let mut invocations = 0usize;
        for d in 0..datasets {
            let members: Vec<&DatasetProfile> = member_profiles.iter().map(|p| &p[d]).collect();
            let replay =
                replay_mixture(bench.as_ref(), &members, |i| {
                    match oracle_route_margined(&members, i, threshold, spec) {
                        RouteChoice::Member(m) => {
                            cost += route_cycles(m + 1) + member_cycles[m];
                            Some((m, i))
                        }
                        RouteChoice::Precise => {
                            cost += route_cycles(k) + kernel_cycles;
                            None
                        }
                    }
                })?;
            invocations += replay.total;
            if replay.quality_loss <= quality_target {
                successes += 1;
            }
        }
        Ok(Prediction {
            mini_threshold: threshold,
            probe_success: successes as f64 / datasets as f64,
            relative_cost: cost / (invocations.max(1) as f64 * kernel_cycles),
        })
    }
}

/// Ranks `0..n` by `key` ascending with index tie-breaking:
/// `result[i]` is candidate `i`'s rank (0 = best).
pub fn rank_ascending(keys: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| {
        keys[a]
            .partial_cmp(&keys[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut ranks = vec![0usize; keys.len()];
    for (rank, &i) in order.iter().enumerate() {
        ranks[i] = rank;
    }
    ranks
}

/// Applies a planted [`PredictorMutation`] to the predictor's rank
/// vectors (measured results are never touched).
pub fn apply_mutation(
    mutation: PredictorMutation,
    cost_ranks: &mut [usize],
    quality_ranks: &mut [usize],
) {
    let n = cost_ranks.len();
    if n == 0 {
        return;
    }
    match mutation {
        PredictorMutation::InvertedCost => {
            for r in cost_ranks.iter_mut() {
                *r = n - 1 - *r;
            }
        }
        PredictorMutation::OffByOneQualityRank => {
            for r in quality_ranks.iter_mut() {
                *r = (*r + 1) % n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_ascending_breaks_ties_by_index() {
        assert_eq!(rank_ascending(&[3.0, 1.0, 3.0, 0.5]), vec![2, 1, 3, 0]);
        assert_eq!(rank_ascending(&[]), Vec::<usize>::new());
    }

    #[test]
    fn inverted_cost_reverses_ranks() {
        let mut cost = vec![0, 1, 2, 3];
        let mut quality = vec![0, 1, 2, 3];
        apply_mutation(PredictorMutation::InvertedCost, &mut cost, &mut quality);
        assert_eq!(cost, vec![3, 2, 1, 0]);
        assert_eq!(quality, vec![0, 1, 2, 3]);
    }

    #[test]
    fn off_by_one_rotates_quality_ranks() {
        let mut cost = vec![0, 1, 2];
        let mut quality = vec![0, 1, 2];
        apply_mutation(
            PredictorMutation::OffByOneQualityRank,
            &mut cost,
            &mut quality,
        );
        assert_eq!(cost, vec![0, 1, 2]);
        assert_eq!(quality, vec![1, 2, 0]);
    }
}
