//! Multi-approximator routing: an ordered pool of NPU topologies plus the
//! machinery to route each invocation to the *cheapest* member that still
//! meets the certified local-error threshold.
//!
//! The binary pipeline asks one question per invocation — "is the (single)
//! accelerator's error acceptable?" — and answers it with one bit. This
//! module generalizes the question to an ordered [`ApproximatorPool`] of
//! cheap → accurate topologies: invocation `i` is served by the first
//! member whose profiled error is within the threshold, and falls back to
//! the precise function when no member qualifies ([`RouteChoice`]). The
//! Clopper–Pearson certificate is then taken over the *routed mixture*
//! (`core::threshold::optimize_routed`), with dataset-level violations
//! attributed to whichever member served the worst invocation.
//!
//! A pool of size 1 whose only member is the benchmark's default topology
//! reduces to the binary pipeline **bit for bit**: the same trained
//! network, the same per-dataset replays, the same bisection probes, and a
//! router whose single stage is the binary table classifier (same training
//! seed, same quantizer). That identity is what keeps every committed
//! result of the single-approximator experiments byte-stable.

use crate::classifier::{Classifier, ClassifierOverhead, Decision};
use crate::function::{AcceleratedFunction, NpuTrainConfig};
use crate::neural::{KaryExample, NeuralClassifier, NeuralTrainConfig};
use crate::parallel::par_map_indexed;
use crate::pipeline::{quantizer_from_profiles, Compiled};
use crate::profile::{common_invocation_count, replay_mixture, DatasetProfile};
use crate::table::{PreparedTableSet, TableClassifier, TableDesign};
use crate::threshold::ThresholdOutcome;
use crate::training::sample_invocations;
use crate::watchdog::Calibration;
use crate::{MithraError, Result};
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::Dataset;
use mithra_npu::kernel::KernelBackend;
use mithra_npu::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Where one invocation is served in a multi-approximator system: a pool
/// member (by index, cheapest first) or the precise function.
///
/// This is the K-ary generalization of [`Decision`]; encoding a choice
/// takes ⌈log₂(K+1)⌉ bits (see [`route_bits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChoice {
    /// Pool member `m` (0 = cheapest) serves the invocation.
    Member(usize),
    /// The precise function serves the invocation.
    Precise,
}

impl RouteChoice {
    /// Whether the invocation runs on the precise core.
    pub fn is_precise(&self) -> bool {
        matches!(self, RouteChoice::Precise)
    }

    /// The pool member index, if an approximator serves the invocation.
    pub fn member(&self) -> Option<usize> {
        match self {
            RouteChoice::Member(m) => Some(*m),
            RouteChoice::Precise => None,
        }
    }
}

/// A binary decision is a route of the pool of one: accept serves member
/// 0, reject runs precise.
impl From<Decision> for RouteChoice {
    fn from(decision: Decision) -> Self {
        match decision {
            Decision::Approximate => RouteChoice::Member(0),
            Decision::Precise => RouteChoice::Precise,
        }
    }
}

/// Bits required to encode a route over a pool of `pool_size` members plus
/// the precise fallback: ⌈log₂(K+1)⌉. A binary pipeline (K = 1) needs the
/// familiar single bit.
pub fn route_bits(pool_size: usize) -> u32 {
    usize::BITS - pool_size.leading_zeros()
}

/// Which deployed router a routed design point uses — a swept axis of
/// the design-space explorer, not a fixed choice.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterKind {
    /// The default K-stage table-classifier cascade, consulted
    /// cheapest-first (one MISR-table stage per pool member).
    TableCascade,
    /// A single K+1-class neural network consulted once per invocation
    /// (one output class per pool member plus the precise fallback),
    /// trained with the carried configuration. Motivated by the
    /// invocation-driven multiclass-classifier line of work.
    KaryNeural(crate::neural::NeuralTrainConfig),
}

impl RouterKind {
    /// The neural router axis with a compact default configuration: a
    /// narrow candidate set and a short epoch budget, because the
    /// deployed-in-the-loop certifier trains a router for every distinct
    /// labeling its bisection probes.
    pub fn kary_neural_default() -> Self {
        RouterKind::KaryNeural(crate::neural::NeuralTrainConfig {
            hidden_candidates: vec![8],
            epochs: 30,
            ..crate::neural::NeuralTrainConfig::default()
        })
    }
}

/// An ordered pool specification: NPU topologies, cheapest first (the last
/// member is conventionally the benchmark's default "accurate" topology),
/// plus the routed design point's swept parameters — the deployed router
/// kind and the per-member labeling margins.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Member topologies, cheapest first.
    pub topologies: Vec<Topology>,
    /// The deployed router kind. `TableCascade` is the default and the
    /// only kind whose artifacts predate the explorer (cache keys for it
    /// are unchanged).
    pub router: RouterKind,
    /// Per-member labeling margins: stage/class `m` labels an invocation
    /// acceptable when its error is within `threshold * margins[m]`.
    /// Empty means 1.0 everywhere — bit-identical to the unmargined
    /// pipeline. Tightening a cheap member's margin below 1.0 trades some
    /// of its serving share for fewer compounded false-accepts.
    pub margins: Vec<f64>,
}

impl PoolSpec {
    /// A pool of exactly one member — the configuration that must stay
    /// bit-identical to the binary pipeline.
    pub fn single(topology: Topology) -> Self {
        Self {
            topologies: vec![topology],
            router: RouterKind::TableCascade,
            margins: Vec::new(),
        }
    }

    /// The default tiered pool derived from an accurate topology: hidden
    /// widths quartered (cheap) and halved (medium), then the accurate
    /// topology itself. Duplicate topologies (tiny networks where the
    /// tiers collapse) are dropped, keeping cheapest-first order.
    pub fn tiered(accurate: &Topology) -> Self {
        Self::sized(accurate, 3)
    }

    /// A tiered pool of up to `pool_size` members ending in `accurate`:
    /// 1 = just the accurate topology, 2 = cheap + accurate, 3 or more =
    /// cheap + medium + accurate (deduplicated).
    pub fn sized(accurate: &Topology, pool_size: usize) -> Self {
        let mut divisors = Vec::new();
        if pool_size >= 3 {
            divisors.push(4);
            divisors.push(2);
        } else if pool_size == 2 {
            divisors.push(4);
        }
        divisors.push(1);
        Self::from_divisors(accurate, &divisors)
    }

    /// A pool whose member `m` runs `accurate` with every hidden width
    /// divided by `divisors[m]` (floor, clamped to 2; divisor 1 is the
    /// accurate topology itself). Divisors are expected cheapest-first
    /// (descending); duplicate topologies collapse. This is the
    /// explorer's enumeration primitive — `sized(t, 3)` is exactly
    /// `from_divisors(t, &[4, 2, 1])`, which is what pins the fixed
    /// PR-6 tiering as one enumerated candidate verbatim.
    pub fn from_divisors(accurate: &Topology, divisors: &[usize]) -> Self {
        let mut topologies: Vec<Topology> = divisors
            .iter()
            .map(|&d| {
                if d <= 1 {
                    accurate.clone()
                } else {
                    scale_hidden(accurate, d)
                }
            })
            .collect();
        topologies.dedup();
        Self {
            topologies,
            router: RouterKind::TableCascade,
            margins: Vec::new(),
        }
    }

    /// This spec with the deployed router kind replaced.
    pub fn with_router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// This spec with per-member labeling margins. Margins are truncated
    /// or padded (with 1.0) to the member count elsewhere via
    /// [`PoolSpec::margin_for`]; an all-1.0 vector normalizes to empty so
    /// the default spec compares (and cache-keys) identically.
    pub fn with_margins(mut self, margins: Vec<f64>) -> Self {
        self.margins = if margins.iter().all(|m| *m == 1.0) {
            Vec::new()
        } else {
            margins
        };
        self
    }

    /// Member `m`'s labeling margin (1.0 when unset).
    pub fn margin_for(&self, m: usize) -> f64 {
        self.margins.get(m).copied().unwrap_or(1.0)
    }

    /// Whether this spec is a plain unmargined table-cascade design — the
    /// configuration whose cache keys and artifacts predate the explorer.
    pub fn is_default_routing(&self) -> bool {
        self.router == RouterKind::TableCascade && self.margins.is_empty()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.topologies.len()
    }

    /// Whether the spec has no members (never produced by the
    /// constructors, but checkable for hand-built specs).
    pub fn is_empty(&self) -> bool {
        self.topologies.is_empty()
    }
}

/// Divides every hidden-layer width by `divisor` (floor, clamped to 2),
/// keeping the input and output widths the benchmark fixes.
fn scale_hidden(topology: &Topology, divisor: usize) -> Topology {
    let layers = topology.layers();
    let scaled: Vec<usize> = layers
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            if i == 0 || i == layers.len() - 1 {
                w
            } else {
                (w / divisor).max(2)
            }
        })
        .collect();
    Topology::new(&scaled).expect("scaling hidden widths preserves validity")
}

/// One dataset replayed through the routed mixture: the quality loss of
/// the mixed output stream plus per-member accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedReplay {
    /// Final-output quality loss versus the all-precise run.
    pub quality_loss: f64,
    /// Invocations served by any pool member.
    pub invoked: usize,
    /// Total invocations.
    pub total: usize,
    /// Invocations served per pool member.
    pub member_invocations: Vec<usize>,
    /// The member that served the invocation with the largest profiled
    /// error — the member a dataset-level violation is attributed to
    /// (0 when nothing was approximated).
    pub worst_member: usize,
}

impl RoutedReplay {
    /// Fraction of invocations served by any pool member.
    pub fn invocation_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.invoked as f64 / self.total as f64
        }
    }
}

/// An ordered pool of trained approximators, cheapest first.
#[derive(Debug, Clone)]
pub struct ApproximatorPool {
    members: Vec<AcceleratedFunction>,
    topologies: Vec<Topology>,
}

impl ApproximatorPool {
    /// Trains every member of `spec` on the same profile datasets the
    /// binary NPU trains on. A member whose topology equals `primary`'s
    /// benchmark topology reuses the already-trained `primary` network
    /// instead of retraining — which is both faster and what makes the
    /// pool-of-one configuration bit-identical to the binary pipeline.
    ///
    /// Members train under [`par_map_indexed`], so the pool is
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InvalidConfig`] for an empty spec and
    /// propagates NPU training failures.
    pub fn train(
        benchmark: &Arc<dyn Benchmark>,
        datasets: &[Dataset],
        config: &NpuTrainConfig,
        spec: &PoolSpec,
        threads: Option<usize>,
        primary: Option<&AcceleratedFunction>,
    ) -> Result<Self> {
        Self::train_with_kernel(
            benchmark,
            datasets,
            config,
            spec,
            threads,
            primary,
            KernelBackend::Scalar,
        )
    }

    /// [`ApproximatorPool::train`] on an explicit kernel backend: every
    /// freshly trained member uses `kernel` for its arithmetic. A reused
    /// `primary` keeps whatever backend it carries — the session resolved
    /// both from the same configuration, so they agree.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InvalidConfig`] for an empty spec and
    /// propagates NPU training failures.
    pub fn train_with_kernel(
        benchmark: &Arc<dyn Benchmark>,
        datasets: &[Dataset],
        config: &NpuTrainConfig,
        spec: &PoolSpec,
        threads: Option<usize>,
        primary: Option<&AcceleratedFunction>,
        kernel: KernelBackend,
    ) -> Result<Self> {
        if spec.is_empty() {
            return Err(MithraError::InvalidConfig {
                parameter: "pool",
                constraint: "at least one member topology",
            });
        }
        let default_topology = benchmark.npu_topology();
        let results = par_map_indexed(spec.len(), threads, |m| {
            let topology = &spec.topologies[m];
            if let Some(primary) = primary {
                if *topology == default_topology {
                    return Ok(primary.clone());
                }
            }
            AcceleratedFunction::train_with_topology_kernel(
                Arc::clone(benchmark),
                datasets,
                config,
                topology,
                kernel,
            )
        });
        let members = results.into_iter().collect::<Result<Vec<_>>>()?;
        Ok(Self {
            members,
            topologies: spec.topologies.clone(),
        })
    }

    /// Rebuilds a pool from already-trained members (the artifact-cache
    /// load path).
    ///
    /// # Panics
    ///
    /// Panics on an empty member list or a member/topology count mismatch.
    pub fn from_members(members: Vec<AcceleratedFunction>, topologies: Vec<Topology>) -> Self {
        assert!(!members.is_empty(), "a pool needs at least one member");
        assert_eq!(members.len(), topologies.len(), "member/topology mismatch");
        Self {
            members,
            topologies,
        }
    }

    /// The binary design as the pool of one: `function` is the only
    /// member, on its own topology.
    pub fn single(function: AcceleratedFunction) -> Self {
        let topology = function.npu().topology().clone();
        Self::from_members(vec![function], vec![topology])
    }

    /// This pool with every member's kernel backend replaced — the
    /// artifact-cache reattach, mirroring
    /// [`AcceleratedFunction::with_kernel`].
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelBackend) -> Self {
        self.members = self
            .members
            .into_iter()
            .map(|m| m.with_kernel(kernel))
            .collect();
        self
    }

    /// The trained members, cheapest first.
    pub fn members(&self) -> &[AcceleratedFunction] {
        &self.members
    }

    /// Member `m`'s trained function.
    pub fn member(&self, m: usize) -> &AcceleratedFunction {
        &self.members[m]
    }

    /// Member topologies, cheapest first.
    pub fn topologies(&self) -> &[Topology] {
        &self.topologies
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool is empty (never true for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The most accurate member (by construction, the last).
    pub fn accurate(&self) -> &AcceleratedFunction {
        self.members.last().expect("pools are non-empty")
    }

    /// The benchmark all members accelerate.
    pub fn benchmark(&self) -> &Arc<dyn Benchmark> {
        self.members[0].benchmark()
    }

    /// Replays one dataset under the **oracle router at `threshold`**:
    /// invocation `i` is served by the first (cheapest) member whose
    /// profiled error is within the threshold, falling back to precise.
    /// `members[m]` must be member `m`'s profile of the same dataset.
    ///
    /// With a pool of one this reproduces
    /// [`DatasetProfile::replay_with_threshold`] bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] when the profile slice
    /// does not cover every member or the members disagree on the
    /// invocation count, and propagates quality-scoring failures.
    pub fn replay_routed_threshold(
        &self,
        members: &[&DatasetProfile],
        threshold: f32,
    ) -> Result<RoutedReplay> {
        self.check_member_profiles(members)?;
        self.replay_routed(members, |i| oracle_route(members, i, threshold))
    }

    /// Replays one dataset under explicit per-invocation [`RouteChoice`]s
    /// (the deployed router's decisions), mixing each invocation's output
    /// from the chosen member's cached accelerator output.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] for mismatched profile or
    /// choice lengths and propagates quality-scoring failures.
    pub fn replay_routed_choices(
        &self,
        members: &[&DatasetProfile],
        choices: &[RouteChoice],
    ) -> Result<RoutedReplay> {
        let n = self.check_member_profiles(members)?;
        if choices.len() != n {
            return Err(MithraError::InsufficientData {
                stage: "routed mixture replay",
                available: choices.len(),
                needed: n,
            });
        }
        self.replay_routed(members, |i| choices[i])
    }

    /// Mixes one dataset's output stream from `route(i)` per invocation,
    /// tallying each member's invocations and the member that served the
    /// worst error. `members` must already be checked against the pool.
    fn replay_routed(
        &self,
        members: &[&DatasetProfile],
        route: impl Fn(usize) -> RouteChoice,
    ) -> Result<RoutedReplay> {
        let mut member_invocations = vec![0usize; self.len()];
        let mut worst_member = 0usize;
        let mut worst_err = f32::NEG_INFINITY;
        let outcome = replay_mixture(self.benchmark().as_ref(), members, |i| {
            let m = route(i).member()?;
            member_invocations[m] += 1;
            let err = members[m].max_error(i);
            if err > worst_err {
                worst_err = err;
                worst_member = m;
            }
            Some((m, i))
        })?;
        Ok(RoutedReplay {
            quality_loss: outcome.quality_loss,
            invoked: outcome.invoked,
            total: outcome.total,
            member_invocations,
            worst_member,
        })
    }

    /// Validates a per-member profile slice for one dataset, returning the
    /// common invocation count.
    fn check_member_profiles(&self, members: &[&DatasetProfile]) -> Result<usize> {
        if members.len() != self.len() {
            return Err(MithraError::InsufficientData {
                stage: "routed mixture replay",
                available: members.len(),
                needed: self.len(),
            });
        }
        common_invocation_count(members)
    }
}

/// The oracle route of invocation `i` at `threshold`: the first (cheapest)
/// member whose profiled error is within the threshold, else precise.
pub fn oracle_route(members: &[&DatasetProfile], i: usize, threshold: f32) -> RouteChoice {
    for (m, profile) in members.iter().enumerate() {
        if profile.max_error(i) <= threshold {
            return RouteChoice::Member(m);
        }
    }
    RouteChoice::Precise
}

/// [`oracle_route`] under per-member labeling margins: member `m`
/// qualifies when its error is within `threshold * spec.margin_for(m)`.
/// With no margins set this is `oracle_route` exactly (a 1.0 margin
/// multiplies to the identical `f32`).
pub fn oracle_route_margined(
    members: &[&DatasetProfile],
    i: usize,
    threshold: f32,
    spec: &PoolSpec,
) -> RouteChoice {
    for (m, profile) in members.iter().enumerate() {
        if profile.max_error(i) <= threshold * spec.margin_for(m) as f32 {
            return RouteChoice::Member(m);
        }
    }
    RouteChoice::Precise
}

/// A cascade stage's labels at `stage_threshold`: `rejects[j]` when error
/// `j` exceeds it (so NaN never rejects).
///
/// Over one error sequence the reject sets are nested in the threshold,
/// so two thresholds that reject equally many errors label every one the
/// same: the count is the labeling's key.
pub fn stage_rejects(errors: impl IntoIterator<Item = f32>, stage_threshold: f32) -> Vec<bool> {
    errors.into_iter().map(|e| e > stage_threshold).collect()
}

/// How many `errors` the oracle route accepts at `threshold`: those
/// within it (so NaN never counts).
///
/// The accept sets are nested in the threshold, so equal counts for every
/// member mean every member accepts the same invocations, and the oracle
/// route ([`oracle_route_margined`]) chooses the same for each: the
/// per-member counts are the routing's key.
pub fn accepted_count(errors: impl IntoIterator<Item = f32>, threshold: f32) -> usize {
    errors.into_iter().filter(|&e| e <= threshold).count()
}

/// Labels routed K-ary training tuples for the neural router: sampled
/// invocations (the same deterministic shuffle-and-truncate scheme as the
/// binary [`crate::training::generate_training_data`]) labeled with the
/// margined oracle route — class `m` = pool member `m`, class `K` =
/// precise.
pub fn generate_route_training_data(
    member_profiles: &[Vec<DatasetProfile>],
    threshold: f32,
    spec: &PoolSpec,
    max_samples: usize,
    seed: u64,
) -> Vec<KaryExample> {
    let sample = sample_invocations(&member_profiles[0], max_samples, seed);
    label_routes(member_profiles, &sample, threshold, spec)
}

/// Labels the sampled `(dataset, invocation)` pairs with the margined
/// oracle route (class `K` = precise).
fn label_routes(
    member_profiles: &[Vec<DatasetProfile>],
    sample: &[(usize, usize)],
    threshold: f32,
    spec: &PoolSpec,
) -> Vec<KaryExample> {
    let k = member_profiles.len();
    sample
        .iter()
        .map(|&(d, i)| {
            let members: Vec<&DatasetProfile> = member_profiles.iter().map(|m| &m[d]).collect();
            let class = match oracle_route_margined(&members, i, threshold, spec) {
                RouteChoice::Member(m) => m,
                RouteChoice::Precise => k,
            };
            KaryExample {
                input: member_profiles[0][d].dataset().input(i).to_vec(),
                class,
            }
        })
        .collect()
}

/// The deployed K-ary router: one table-classifier stage per pool member,
/// consulted cheapest-first. Stage `m` answers "is member `m`'s error
/// acceptable for this input?"; the first accepting stage wins, and an
/// invocation every stage rejects runs precise. The output is therefore a
/// ⌈log₂(K+1)⌉-bit route rather than the binary design's single bit.
///
/// Equality covers the trained state only, as for the stages.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteClassifier {
    stages: Vec<TableClassifier>,
    /// The neural router variant: a single K+1-class network replacing
    /// the cascade (in which case `stages` is empty). Absent on every
    /// table-cascade router, so cascade artifacts — including all cached
    /// ones written before this field existed — serialize byte-identically
    /// and deserialize via the hand-written impls below.
    neural: Option<NeuralClassifier>,
}

// Hand-written (de)serialization: the `neural` field is emitted only when
// present and tolerated when absent, keeping every pre-explorer cascade
// artifact both readable and byte-identical on rewrite. (The vendored
// serde derive has no `skip_serializing_if`.)
impl Serialize for RouteClassifier {
    fn serialize(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> =
            vec![(String::from("stages"), self.stages.serialize())];
        if let Some(neural) = &self.neural {
            fields.push((String::from("neural"), neural.serialize()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for RouteClassifier {
    fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let stages = Deserialize::deserialize(serde::get_field(value, "stages")?)?;
        let neural = match serde::get_field(value, "neural") {
            Ok(v) => Some(Deserialize::deserialize(v)?),
            Err(_) => None,
        };
        Ok(Self { stages, neural })
    }
}

impl RouteClassifier {
    /// Trains the router a [`PoolSpec`] asks for at `threshold`:
    /// [`RouterTrainer::new`], then [`RouterTrainer::train`]. A table
    /// cascade trains one stage per pool member, labeled against that
    /// member's profiled errors at `threshold * spec.margin_for(m)`; stage
    /// `m` trains with seed `seed ^ m` and the quantizer fitted to member
    /// `m`'s profiles, so stage 0 of a pool-of-one router is bit-identical
    /// to the binary pipeline's table classifier. The K-ary neural kind
    /// trains one K+1-class network on margined-oracle route labels
    /// instead.
    ///
    /// # Errors
    ///
    /// Propagates table- or neural-training failures.
    pub fn train_for_spec(
        spec: &PoolSpec,
        member_profiles: &[Vec<DatasetProfile>],
        threshold: f32,
        design: &TableDesign,
        max_samples: usize,
        seed: u64,
        threads: Option<usize>,
    ) -> Result<Self> {
        RouterTrainer::new(spec, member_profiles, design, max_samples, seed, threads)?
            .train(threshold)
    }

    /// Rebuilds a router from trained stages (the artifact-cache load
    /// path).
    ///
    /// # Panics
    ///
    /// Panics on an empty stage list.
    pub fn from_stages(stages: Vec<TableClassifier>) -> Self {
        assert!(!stages.is_empty(), "a router needs at least one stage");
        Self {
            stages,
            neural: None,
        }
    }

    /// The per-member cascade stages, cheapest first (empty for a neural
    /// router).
    pub fn stages(&self) -> &[TableClassifier] {
        &self.stages
    }

    /// The K-ary neural network, when this router is the neural kind.
    pub fn neural(&self) -> Option<&NeuralClassifier> {
        self.neural.as_ref()
    }

    /// Number of routable pool members: cascade stages, or the neural
    /// network's output classes minus the precise fallback.
    pub fn len(&self) -> usize {
        match &self.neural {
            Some(n) => n.classes().saturating_sub(1),
            None => self.stages.len(),
        }
    }

    /// Whether the router has no stages (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits of route output: ⌈log₂(K+1)⌉ for K stages.
    pub fn route_bits(&self) -> u32 {
        route_bits(self.len())
    }

    /// Routes one invocation. A cascade walks its stages cheapest-first
    /// and the first accepting stage wins; the neural kind consults its
    /// single network once and takes the argmax class (the last class is
    /// the precise fallback).
    // Inlined across crates: the simulator, serving and watchdog
    // calibration loops call this once per invocation.
    #[inline]
    pub fn classify_route(&mut self, index: usize, input: &[f32]) -> RouteChoice {
        if let Some(neural) = &mut self.neural {
            let class = neural.decide_class(input);
            return if class + 1 == neural.classes() {
                RouteChoice::Precise
            } else {
                RouteChoice::Member(class)
            };
        }
        for (m, stage) in self.stages.iter_mut().enumerate() {
            if stage.classify(index, input) == Decision::Approximate {
                return RouteChoice::Member(m);
            }
        }
        RouteChoice::Precise
    }

    /// The classifier overhead actually incurred on `route`. For the
    /// cascade: the summed footprint of every stage consulted before the
    /// decision settled (stages `0..=m` for member `m`; all stages for a
    /// precise fallback) — costing is per-route, a cheap route consults
    /// fewer stages than the precise fallback. The neural router runs its
    /// one network regardless of the decision, so every route is charged
    /// the same single NPU invocation of the router topology.
    pub fn overhead_for(&self, route: RouteChoice) -> ClassifierOverhead {
        if let Some(neural) = &self.neural {
            return ClassifierOverhead {
                decision_cycles: 0,
                misr_shifts: 0,
                table_bit_reads: 0,
                npu_topology: Some(neural.topology().clone()),
            };
        }
        let consulted = match route {
            RouteChoice::Member(m) => m + 1,
            RouteChoice::Precise => self.len(),
        };
        sum_overheads(self.stages[..consulted].iter().map(|s| s.overhead()))
    }
}

/// A router trainer prepared once for a fixed pool, profile table and
/// training configuration, then trained at any number of thresholds — the
/// deployed routed certifier asks for a router at every bisection probe.
///
/// For a table cascade, everything but the labels is threshold-invariant
/// and is built once per stage: the shuffled, truncated `(dataset,
/// invocation)` sample (the one
/// [`crate::training::generate_training_data`] labels), the quantizer
/// fitted to the member's profiles, and the sample's inputs quantized
/// and MISR-hashed at every candidate table granularity. The K-ary neural
/// kind keeps its sample the same way.
///
/// A probe's labels change only when the threshold crosses a sampled
/// error. [`train`](Self::train) therefore keys each trained classifier on
/// its labeling's counts (see [`stage_rejects`] and [`accepted_count`]),
/// and a threshold that labels the sample as an earlier one did gets the
/// classifier trained then instead of a fresh run of the table candidate
/// grid or the network search. Every router is bit-identical to a cold
/// [`RouteClassifier::train_for_spec`] at the same threshold.
#[derive(Debug)]
pub struct RouterTrainer<'a> {
    spec: &'a PoolSpec,
    member_profiles: &'a [Vec<DatasetProfile>],
    threads: Option<usize>,
    prepared: Prepared,
}

/// The threshold-invariant training state of a router kind.
#[derive(Debug)]
enum Prepared {
    /// One stage per member.
    Cascade(Vec<CascadeStage>),
    /// The neural router's sample, and the routers trained so far keyed
    /// on each member's count of sampled invocations accepted at its
    /// margined threshold.
    Neural {
        config: NeuralTrainConfig,
        sample: Vec<(usize, usize)>,
        trained: HashMap<Vec<usize>, NeuralClassifier>,
    },
}

/// One table-cascade stage's threshold-invariant training state.
#[derive(Debug)]
struct CascadeStage {
    /// The `(dataset, invocation)` pairs the stage trains on, in sample
    /// order.
    sample: Vec<(usize, usize)>,
    tables: PreparedTableSet,
    /// The classifiers trained so far, keyed on how many sampled
    /// invocations they were trained to reject.
    trained: HashMap<usize, TableClassifier>,
}

impl<'a> RouterTrainer<'a> {
    /// Prepares the router `spec` asks for over `member_profiles`
    /// (`member_profiles[m][d]` is member `m`'s profile of dataset `d`).
    ///
    /// # Errors
    ///
    /// Propagates table-preparation failures (a bad geometry or an empty
    /// sample).
    pub fn new(
        spec: &'a PoolSpec,
        member_profiles: &'a [Vec<DatasetProfile>],
        design: &TableDesign,
        max_samples: usize,
        seed: u64,
        threads: Option<usize>,
    ) -> Result<Self> {
        let prepared = match &spec.router {
            RouterKind::TableCascade => Prepared::Cascade(
                member_profiles
                    .iter()
                    .enumerate()
                    .map(|(m, profiles)| {
                        let sample = sample_invocations(profiles, max_samples, seed ^ m as u64);
                        let inputs: Vec<&[f32]> = sample
                            .iter()
                            .map(|&(d, i)| profiles[d].dataset().input(i))
                            .collect();
                        let quantizer = quantizer_from_profiles(profiles);
                        let tables = PreparedTableSet::new(*design, quantizer, &inputs, threads)?;
                        Ok(CascadeStage {
                            sample,
                            tables,
                            trained: HashMap::new(),
                        })
                    })
                    .collect::<Result<Vec<_>>>()?,
            ),
            RouterKind::KaryNeural(config) => Prepared::Neural {
                config: config.clone(),
                sample: sample_invocations(&member_profiles[0], max_samples, seed),
                trained: HashMap::new(),
            },
        };
        Ok(Self {
            spec,
            member_profiles,
            threads,
            prepared,
        })
    }

    /// Trains the router at `threshold`, reusing every classifier an
    /// earlier call trained for the same labels.
    ///
    /// # Errors
    ///
    /// Propagates neural-training failures.
    pub fn train(&mut self, threshold: f32) -> Result<RouteClassifier> {
        let (spec, member_profiles, threads) = (self.spec, self.member_profiles, self.threads);
        match &mut self.prepared {
            Prepared::Cascade(stages) => {
                let stages = stages
                    .iter_mut()
                    .zip(member_profiles)
                    .enumerate()
                    .map(|(m, (stage, profiles))| {
                        let stage_threshold = threshold * spec.margin_for(m) as f32;
                        let errors = stage.sample.iter().map(|&(d, i)| profiles[d].max_error(i));
                        let rejects = stage_rejects(errors, stage_threshold);
                        let key = rejects.iter().filter(|&&r| r).count();
                        stage
                            .trained
                            .entry(key)
                            .or_insert_with(|| stage.tables.train(&rejects, threads))
                            .clone()
                    })
                    .collect();
                Ok(RouteClassifier {
                    stages,
                    neural: None,
                })
            }
            Prepared::Neural {
                config,
                sample,
                trained,
            } => {
                let key: Vec<usize> = member_profiles
                    .iter()
                    .enumerate()
                    .map(|(m, profiles)| {
                        let errors = sample.iter().map(|&(d, i)| profiles[d].max_error(i));
                        accepted_count(errors, threshold * spec.margin_for(m) as f32)
                    })
                    .collect();
                let neural = match trained.entry(key) {
                    Entry::Occupied(known) => known.get().clone(),
                    Entry::Vacant(new) => {
                        let examples = label_routes(member_profiles, sample, threshold, spec);
                        let input_dim = member_profiles[0][0].dataset().input_dim();
                        let neural = NeuralClassifier::train_classes(
                            input_dim,
                            &examples,
                            member_profiles.len() + 1,
                            config,
                            threads,
                        )?;
                        new.insert(neural).clone()
                    }
                };
                Ok(RouteClassifier {
                    stages: Vec::new(),
                    neural: Some(neural),
                })
            }
        }
    }
}

/// Sums classifier overheads across consulted stages. The NPU-topology
/// footprint, when a stage carries one, is taken per stage (never cloned
/// from the primary function); table stages carry none.
fn sum_overheads(overheads: impl Iterator<Item = ClassifierOverhead>) -> ClassifierOverhead {
    let mut total = ClassifierOverhead::default();
    for o in overheads {
        total.decision_cycles += o.decision_cycles;
        total.misr_shifts += o.misr_shifts;
        total.table_bit_reads += o.table_bit_reads;
        if o.npu_topology.is_some() {
            total.npu_topology = o.npu_topology;
        }
    }
    total
}

/// The routed compile product: the trained pool, its per-member compile
/// profiles, the mixture-certified threshold, and the deployed router.
#[derive(Debug, Clone)]
pub struct RoutedCompiled {
    /// The trained approximator pool, cheapest first.
    pub pool: ApproximatorPool,
    /// `member_profiles[m][i]` = member `m`'s profile of compile dataset
    /// `i`.
    pub member_profiles: Vec<Vec<DatasetProfile>>,
    /// The threshold certified over the routed mixture.
    pub threshold: ThresholdOutcome,
    /// The deployed K-ary router.
    pub router: RouteClassifier,
    /// The router's clean watchdog calibration counts over
    /// `member_profiles` at the certified threshold, counted once when
    /// the router was trained.
    pub calibration: Calibration,
}

/// A deployed system as an ordered pool of approximators behind its
/// router: the one view the simulator, the serving engine and the
/// conformance harness run. A binary artifact is the pool of one: member
/// 0 is its compiled function on the benchmark's default topology, its
/// table classifier is the router's single stage, and its compile
/// profiles are member 0's. Either artifact carries the clean watchdog
/// calibration counts its compile session stored
/// ([`Mixture::calibration`]), which is how a guarded serving engine reads
/// its limits without routing the compile profiles again.
#[derive(Debug, Clone, Copy)]
pub enum Mixture<'a> {
    /// A binary artifact, viewed as its pool of one.
    Binary(&'a Compiled),
    /// A routed artifact behind its router.
    Routed(&'a RoutedCompiled),
}

impl<'a> From<&'a Compiled> for Mixture<'a> {
    fn from(compiled: &'a Compiled) -> Self {
        Mixture::Binary(compiled)
    }
}

impl<'a> From<&'a RoutedCompiled> for Mixture<'a> {
    fn from(routed: &'a RoutedCompiled) -> Self {
        Mixture::Routed(routed)
    }
}

/// A shared artifact, such as the `Arc<Compiled>` a serving engine holds,
/// is the mixture of the artifact it points to.
impl<'a, T> From<&'a Arc<T>> for Mixture<'a>
where
    &'a T: Into<Mixture<'a>>,
{
    fn from(shared: &'a Arc<T>) -> Self {
        shared.as_ref().into()
    }
}

impl<'a> Mixture<'a> {
    /// The pool members, cheapest first; the last is the most accurate.
    pub fn members(self) -> &'a [AcceleratedFunction] {
        match self {
            Mixture::Binary(compiled) => std::slice::from_ref(&compiled.function),
            Mixture::Routed(routed) => routed.pool.members(),
        }
    }

    /// The NPU topology member `m` is priced on.
    pub fn topology(self, m: usize) -> Topology {
        match self {
            Mixture::Binary(compiled) => compiled.function.benchmark().npu_topology(),
            Mixture::Routed(routed) => routed.pool.topologies()[m].clone(),
        }
    }

    /// The compile-time certificate.
    pub fn threshold(self) -> &'a ThresholdOutcome {
        match self {
            Mixture::Binary(compiled) => &compiled.threshold,
            Mixture::Routed(routed) => &routed.threshold,
        }
    }

    /// A fresh copy of the deployed router.
    pub fn router(self) -> RouteClassifier {
        match self {
            Mixture::Binary(compiled) => RouteClassifier::from_stages(vec![compiled.table.clone()]),
            Mixture::Routed(routed) => routed.router.clone(),
        }
    }

    /// The classifier overhead the router incurs on `route` (see
    /// [`RouteClassifier::overhead_for`]).
    pub fn overhead_for(self, route: RouteChoice) -> ClassifierOverhead {
        match self {
            Mixture::Binary(compiled) => compiled.table.overhead(),
            Mixture::Routed(routed) => routed.router.overhead_for(route),
        }
    }

    /// The router's clean watchdog calibration counts over the compile
    /// profiles, stored in the artifact by the compile stage that trained
    /// the router (the table for a binary artifact). A guard's limit is
    /// [`Calibration::config`] of these counts; nothing recounts them.
    pub fn calibration(self) -> Calibration {
        match self {
            Mixture::Binary(compiled) => compiled.calibration,
            Mixture::Routed(routed) => routed.calibration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(layers: &[usize]) -> Topology {
        Topology::new(layers).unwrap()
    }

    #[test]
    fn route_bits_is_ceil_log2() {
        assert_eq!(route_bits(1), 1); // {member 0, precise}
        assert_eq!(route_bits(2), 2);
        assert_eq!(route_bits(3), 2);
        assert_eq!(route_bits(4), 3);
        assert_eq!(route_bits(7), 3);
        assert_eq!(route_bits(8), 4);
    }

    #[test]
    fn tiered_spec_orders_cheapest_first() {
        let accurate = topo(&[2, 8, 16, 1]);
        let spec = PoolSpec::tiered(&accurate);
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.topologies[0].layers(), &[2, 2, 4, 1]);
        assert_eq!(spec.topologies[1].layers(), &[2, 4, 8, 1]);
        assert_eq!(spec.topologies[2].layers(), &[2, 8, 16, 1]);
        let mut macs = spec
            .topologies
            .iter()
            .map(Topology::macs_per_invocation)
            .collect::<Vec<_>>();
        let sorted = {
            macs.sort_unstable();
            macs
        };
        assert_eq!(
            sorted,
            spec.topologies
                .iter()
                .map(Topology::macs_per_invocation)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tiny_topologies_deduplicate() {
        let accurate = topo(&[2, 2, 1]);
        let spec = PoolSpec::tiered(&accurate);
        assert_eq!(spec.len(), 1, "all tiers collapse to the same topology");
        assert_eq!(spec.topologies[0].layers(), &[2, 2, 1]);
    }

    #[test]
    fn sized_spec_sizes() {
        let accurate = topo(&[2, 8, 1]);
        assert_eq!(PoolSpec::sized(&accurate, 1).len(), 1);
        assert_eq!(PoolSpec::sized(&accurate, 2).len(), 2);
        assert_eq!(PoolSpec::sized(&accurate, 3).len(), 3);
        // Every sized pool ends in the accurate topology.
        for k in 1..=3 {
            let spec = PoolSpec::sized(&accurate, k);
            assert_eq!(spec.topologies.last().unwrap(), &accurate);
        }
    }

    #[test]
    fn input_and_output_widths_are_preserved() {
        let accurate = topo(&[9, 32, 16, 2]);
        for t in &PoolSpec::tiered(&accurate).topologies {
            assert_eq!(t.inputs(), 9);
            assert_eq!(t.layers().last(), Some(&2));
        }
    }

    #[test]
    fn from_divisors_421_is_the_fixed_tiering_verbatim() {
        let accurate = topo(&[2, 8, 16, 1]);
        assert_eq!(
            PoolSpec::from_divisors(&accurate, &[4, 2, 1]),
            PoolSpec::tiered(&accurate)
        );
        assert_eq!(
            PoolSpec::from_divisors(&accurate, &[1]),
            PoolSpec::single(accurate.clone())
        );
    }

    #[test]
    fn default_spec_routing_is_default() {
        let accurate = topo(&[2, 8, 1]);
        let spec = PoolSpec::tiered(&accurate);
        assert!(spec.is_default_routing());
        assert!(!spec
            .clone()
            .with_router(RouterKind::kary_neural_default())
            .is_default_routing());
        assert!(!spec
            .clone()
            .with_margins(vec![0.75, 1.0, 1.0])
            .is_default_routing());
        // All-1.0 margins normalize away: still the default design point.
        assert!(spec.with_margins(vec![1.0, 1.0, 1.0]).is_default_routing());
    }

    #[test]
    fn trainer_keeps_only_the_sample() {
        // The trainer lives for a whole bisection, so a stage must hold
        // its sample, not the shuffled index space it was cut from.
        let bench: Arc<dyn Benchmark> = mithra_axbench::suite::by_name("sobel").unwrap().into();
        let config = crate::pipeline::CompileConfig::smoke();
        let compiled = crate::pipeline::compile(Arc::clone(&bench), &config).unwrap();
        let member_profiles = vec![compiled.profiles];
        let population: usize = member_profiles[0]
            .iter()
            .map(DatasetProfile::invocation_count)
            .sum();
        let max_samples = 100;
        assert!(population > 10 * max_samples);
        let spec = PoolSpec::single(bench.npu_topology());
        let trainer = RouterTrainer::new(
            &spec,
            &member_profiles,
            &config.table_design,
            max_samples,
            7,
            Some(1),
        )
        .unwrap();
        let Prepared::Cascade(stages) = &trainer.prepared else {
            panic!("a table-cascade spec prepares a cascade");
        };
        let sample = &stages[0].sample;
        assert_eq!(sample.len(), max_samples);
        assert!(
            sample.capacity() <= max_samples,
            "capacity {}",
            sample.capacity()
        );
        assert_eq!(stages[0].tables.rows(), max_samples);
    }

    #[test]
    fn margin_for_defaults_to_unity() {
        let accurate = topo(&[2, 8, 1]);
        let spec = PoolSpec::tiered(&accurate).with_margins(vec![0.75]);
        assert_eq!(spec.margin_for(0), 0.75);
        assert_eq!(spec.margin_for(1), 1.0);
        assert_eq!(spec.margin_for(7), 1.0);
    }

    /// A trained neural router over two members plus the precise
    /// fallback: three bands of one input axis.
    fn banded_neural_router() -> RouteClassifier {
        let examples: Vec<KaryExample> = (0..120)
            .map(|i| {
                let x = i as f32 / 119.0;
                KaryExample {
                    input: vec![x, 1.0 - x],
                    class: ((x * 3.0) as usize).min(2),
                }
            })
            .collect();
        let config = crate::neural::NeuralTrainConfig {
            hidden_candidates: vec![4],
            epochs: 20,
            ..crate::neural::NeuralTrainConfig::default()
        };
        let neural = NeuralClassifier::train_classes(2, &examples, 3, &config, Some(1)).unwrap();
        RouteClassifier {
            stages: Vec::new(),
            neural: Some(neural),
        }
    }

    #[test]
    fn neural_router_serde_round_trip_takes_len_from_the_network() {
        let mut router = banded_neural_router();
        let json = serde_json::to_string(&router).unwrap();
        assert!(!json.contains("\"classes\""), "{json}");
        let mut back: RouteClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.route_bits(), 2);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        for i in 0..50 {
            let x = i as f32 / 49.0;
            let input = [x, 1.0 - x];
            assert_eq!(
                back.classify_route(i, &input),
                router.classify_route(i, &input)
            );
        }
    }

    #[test]
    fn neural_router_json_with_the_old_classes_field_loads() {
        let router = banded_neural_router();
        let json = serde_json::to_string(&router).unwrap();
        // Neural routers once stored their class count beside the
        // network, just before the held-out accuracy.
        let old = json.replacen(
            "\"validation_accuracy\"",
            "\"classes\":3,\"validation_accuracy\"",
            1,
        );
        assert_ne!(old, json);
        let back: RouteClassifier = serde_json::from_str(&old).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
