//! The exploration sweep: enumerate, probe, prune, evaluate, certify.
//!
//! [`explore`] runs one benchmark through the whole loop:
//!
//! 1. **Enumerate** the [`DesignSpace`] against the benchmark's accurate
//!    topology (deduplicating collapsed candidates);
//! 2. **Probe**: train one reduced-epoch member per unique topology and
//!    rank every candidate's predicted quality and cost from
//!    margined-oracle replays ([`ProbeSet`]);
//! 3. **Prune** to an evaluation budget (default a quarter of the
//!    enumerated space), always force-including the fixed PR-6 tiering
//!    and the pool of one as measured anchors;
//! 4. **Evaluate** survivors in full: `CompileSession` pool compilation
//!    with deployed-in-the-loop certification, validation-seed frontier
//!    simulation, and `mithra-conform` re-validation on unseen datasets;
//! 5. **Fold** the certified survivors into a nondominated frontier over
//!    (speedup, energy reduction, certified rate) and count every
//!    predicted-vs-measured rank discordance.
//!
//! The emitted [`BenchmarkExploration`] deliberately carries **no wall
//! clocks** — only counters and metrics — so its serialization is
//! byte-identical at any `--threads` setting.

use crate::error::Result;
use crate::predict::{apply_mutation, rank_ascending, PredictorMutation, ProbeSet};
use crate::space::{Candidate, DesignSpace};
use mithra_axbench::benchmark::Benchmark;
use mithra_conform::{validate, ValidatorConfig, Verdict};
use mithra_core::pipeline::{compile_routed_with_report, CompileConfig};
use mithra_core::route::PoolSpec;
use mithra_core::session::profile_pool_validation;
use mithra_core::MithraError;
use mithra_npu::topology::Topology;
use mithra_sim::system::{frontier_means, SimOptions};
use mithra_stats::pareto::{dominates, nondominated_indices};
use serde::Serialize;
use std::sync::Arc;

/// Everything one exploration sweep needs beyond the space itself.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The full compile configuration (quality spec, scale, seeds,
    /// cache, threads) shared by probes and full evaluations.
    pub compile: CompileConfig,
    /// Unseen validation datasets simulated per evaluated point.
    pub validation_datasets: usize,
    /// Seed base of the validation space (disjoint from compilation).
    pub validation_seed_base: u64,
    /// Monte-Carlo conformance datasets per evaluated point.
    pub trials: usize,
    /// Confidence of the conformance hypothesis test.
    pub test_confidence: f64,
    /// Compilation datasets each probe member is profiled on.
    pub probe_datasets: usize,
    /// Training epochs per probe member (a fraction of the full run).
    pub probe_epochs: usize,
    /// Full evaluations to pay for; `None` = a quarter of the enumerated
    /// space (rounded down, at least the forced anchors).
    pub budget: Option<usize>,
    /// Planted predictor defect for the honesty self-check.
    pub mutation: Option<PredictorMutation>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            compile: CompileConfig::default(),
            validation_datasets: 10,
            validation_seed_base: 1_000_000,
            trials: 100,
            test_confidence: 0.95,
            probe_datasets: 5,
            probe_epochs: 8,
            budget: None,
            mutation: None,
        }
    }
}

/// One fully evaluated design point.
#[derive(Debug, Clone, Serialize)]
pub struct EvaluatedPoint {
    /// The candidate's stable label (`"K3 d4/2/1 cascade"`).
    pub label: String,
    /// Instantiated member topologies, cheapest first.
    pub topologies: Vec<String>,
    /// Deployed router kind (`"cascade"` or `"neural"`).
    pub router: String,
    /// Per-member labeling margins (empty = all 1.0).
    pub margins: Vec<f64>,
    /// The predictor's cost rank among all enumerated candidates
    /// (0 = predicted cheapest), after any planted mutation.
    pub predicted_cost_rank: usize,
    /// The predictor's quality rank (0 = predicted best), after any
    /// planted mutation.
    pub predicted_quality_rank: usize,
    /// Whether compilation produced a certificate at all.
    pub certified: bool,
    /// The certified accelerator-error threshold (0 when uncertified).
    pub threshold: f32,
    /// Compile-time Clopper–Pearson lower bound on the unseen success
    /// rate of the routed mixture.
    pub certified_rate: f64,
    /// Mean speedup over the validation datasets.
    pub speedup: f64,
    /// Mean energy reduction over the validation datasets.
    pub energy_reduction: f64,
    /// Mean fraction of invocations served by any pool member.
    pub invocation_rate: f64,
    /// Mean final quality loss over the validation datasets.
    pub mean_quality_loss: f64,
    /// Fraction of invocations served per member, cheapest first.
    pub member_share: Vec<f64>,
    /// The conformance verdict on unseen datasets (`"holds"` etc.;
    /// `"uncertifiable"` when compilation found no threshold).
    pub verdict: String,
    /// Whether the conformance verdict is an outright `Holds`.
    pub holds: bool,
    /// Whether the point sits on the certified Pareto frontier.
    pub on_frontier: bool,
    /// Whether the point Pareto-dominates the measured fixed ÷4/÷2/1
    /// tiering on (speedup, energy reduction, certified rate).
    pub dominates_fixed: bool,
}

/// One benchmark's complete exploration record. Contains no wall-clock
/// fields: serializing it is byte-identical at any thread count.
#[derive(Debug, Clone, Serialize)]
pub struct BenchmarkExploration {
    /// Benchmark name.
    pub benchmark: String,
    /// Distinct design points after instantiation and deduplication.
    pub enumerated: usize,
    /// Points that paid full compilation + certification.
    pub evaluated: usize,
    /// Points discarded on predictor ranks alone
    /// (`pruned + evaluated == enumerated`, always).
    pub pruned: usize,
    /// The evaluation budget the sweep ran under.
    pub budget: usize,
    /// Unique probe topologies trained for prediction.
    pub probe_members: usize,
    /// Evaluated points in enumeration order.
    pub points: Vec<EvaluatedPoint>,
    /// Indices into `points` of the certified Pareto frontier.
    pub frontier: Vec<usize>,
    /// Index into `points` of the fixed PR-6 tiering anchor.
    pub fixed_tiering_index: Option<usize>,
    /// Index into `points` of the pool-of-one anchor.
    pub pool_of_one_index: Option<usize>,
    /// Certified point pairs whose measured speedup order contradicts
    /// the predicted cost order.
    pub discordant_cost_pairs: usize,
    /// Certified point pairs whose measured certified-rate order
    /// contradicts the predicted quality order.
    pub discordant_quality_pairs: usize,
    /// Certified point pairs compared for discordance.
    pub comparable_pairs: usize,
    /// Artifact-cache hits across every full-evaluation session.
    pub cache_hits: u32,
    /// Artifact-cache misses across every full-evaluation session.
    pub cache_misses: u32,
    /// Function invocations across every full-evaluation session.
    pub compile_invocations: u64,
    /// Probes the predictor's bisections ran over every candidate (not
    /// serialized: an implementation detail of the search).
    #[serde(skip)]
    pub predictor_probes: usize,
    /// Of those, probes that reused an earlier probe's replay.
    #[serde(skip)]
    pub predictor_reused: usize,
}

fn point_skeleton(
    candidate: &Candidate,
    spec: &PoolSpec,
    cost_rank: usize,
    quality_rank: usize,
) -> EvaluatedPoint {
    EvaluatedPoint {
        label: candidate.label(),
        topologies: spec.topologies.iter().map(|t| t.to_string()).collect(),
        router: match spec.router {
            mithra_core::route::RouterKind::TableCascade => String::from("cascade"),
            mithra_core::route::RouterKind::KaryNeural(_) => String::from("neural"),
        },
        margins: spec.margins.clone(),
        predicted_cost_rank: cost_rank,
        predicted_quality_rank: quality_rank,
        certified: false,
        threshold: 0.0,
        certified_rate: 0.0,
        speedup: 0.0,
        energy_reduction: 0.0,
        invocation_rate: 0.0,
        mean_quality_loss: 0.0,
        member_share: Vec::new(),
        verdict: String::from("uncertifiable"),
        holds: false,
        on_frontier: false,
        dominates_fixed: false,
    }
}

/// The objective vector the frontier is extracted over: all axes
/// maximized.
fn objectives(p: &EvaluatedPoint) -> Vec<f64> {
    vec![p.speedup, p.energy_reduction, p.certified_rate]
}

/// Sweeps `space` for one benchmark.
///
/// # Errors
///
/// Propagates probe-training, compilation and validation failures.
/// [`MithraError::Uncertifiable`] on an individual candidate is *not* an
/// error — the candidate is recorded as an uncertified point.
pub fn explore(
    benchmark: &Arc<dyn Benchmark>,
    space: &DesignSpace,
    config: &ExploreConfig,
) -> Result<BenchmarkExploration> {
    let accurate = benchmark.npu_topology();
    let enumerated = space.enumerate(&accurate);
    let n = enumerated.len();

    // Probe every unique member topology once.
    let mut topologies: Vec<Topology> = Vec::new();
    for (_, spec) in &enumerated {
        for t in &spec.topologies {
            if !topologies.contains(t) {
                topologies.push(t.clone());
            }
        }
    }
    let probe_members = topologies.len();
    let probes = ProbeSet::build(
        benchmark,
        &config.compile,
        topologies,
        config.probe_datasets,
        config.probe_epochs,
    )?;

    // Rank candidates by predicted cost and quality.
    let spec_q = &config.compile.spec;
    let searches = enumerated
        .iter()
        .map(|(_, s)| probes.predict(s, spec_q.max_quality_loss, spec_q.success_rate))
        .collect::<std::result::Result<Vec<_>, MithraError>>()?;
    let predictor_probes = searches.iter().map(|s| s.probes.len()).sum();
    let predictor_reused = searches.iter().map(|s| s.reused).sum();
    let predictions: Vec<_> = searches.into_iter().map(|s| s.outcome).collect();
    let costs: Vec<f64> = predictions.iter().map(|p| p.relative_cost).collect();
    let qualities: Vec<f64> = predictions.iter().map(|p| -p.probe_success).collect();
    let mut cost_ranks = rank_ascending(&costs);
    let mut quality_ranks = rank_ascending(&qualities);
    if let Some(mutation) = config.mutation {
        apply_mutation(mutation, &mut cost_ranks, &mut quality_ranks);
    }

    // Prune: anchors first, then best combined rank until the budget.
    let fixed_spec = PoolSpec::tiered(&accurate);
    let single_spec = PoolSpec::single(accurate.clone());
    let forced: Vec<usize> = (0..n)
        .filter(|&i| enumerated[i].1 == fixed_spec || enumerated[i].1 == single_spec)
        .collect();
    let budget = config
        .budget
        .unwrap_or_else(|| (n / 4).max(1))
        .max(forced.len())
        .min(n);
    let mut selected: Vec<usize> = forced.clone();
    let mut by_rank: Vec<usize> = (0..n).filter(|i| !forced.contains(i)).collect();
    by_rank.sort_by_key(|&i| (cost_ranks[i] + quality_ranks[i], i));
    for i in by_rank {
        if selected.len() >= budget {
            break;
        }
        selected.push(i);
    }
    selected.sort_unstable();

    // Full evaluation of the survivors, in enumeration order.
    let vconfig = ValidatorConfig {
        trials: config.trials,
        scale: config.compile.scale,
        threads: config.compile.threads,
        test_confidence: config.test_confidence,
        ..ValidatorConfig::default()
    };
    let mut points: Vec<EvaluatedPoint> = Vec::with_capacity(selected.len());
    let mut cache_hits = 0u32;
    let mut cache_misses = 0u32;
    let mut compile_invocations = 0u64;
    let mut fixed_tiering_index = None;
    let mut pool_of_one_index = None;
    for &i in &selected {
        let (candidate, spec) = &enumerated[i];
        let mut point = point_skeleton(candidate, spec, cost_ranks[i], quality_ranks[i]);
        match compile_routed_with_report(Arc::clone(benchmark), &config.compile, spec) {
            Ok((routed, report)) => {
                cache_hits += report.cache_hits();
                cache_misses += report.cache_misses();
                compile_invocations += report.total_invocations();
                let (pool_profiles, validation_report) = profile_pool_validation(
                    &routed.pool,
                    &config.compile,
                    config.validation_seed_base,
                    config.validation_datasets,
                );
                cache_hits += validation_report.cache_hits;
                cache_misses += validation_report.cache_misses;
                compile_invocations += validation_report.invocations;
                let (means, shares) =
                    frontier_means(&routed, &pool_profiles, &SimOptions::default())?;
                let conform = validate(&routed, spec_q, &vconfig)?;
                point.certified = true;
                point.threshold = routed.threshold.threshold;
                point.certified_rate = routed.threshold.certified_rate;
                point.speedup = means.speedup;
                point.energy_reduction = means.energy_reduction;
                point.invocation_rate = means.invocation_rate;
                point.mean_quality_loss = means.mean_quality_loss;
                point.member_share = shares;
                point.verdict = conform.verdict.label().to_lowercase();
                point.holds = conform.verdict == Verdict::Holds;
            }
            Err(MithraError::Uncertifiable { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        if enumerated[i].1 == fixed_spec {
            fixed_tiering_index = Some(points.len());
        }
        if enumerated[i].1 == single_spec {
            pool_of_one_index = Some(points.len());
        }
        points.push(point);
    }

    // Certified frontier: nondominated among the points whose conformance
    // verdict held outright.
    let eligible: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].certified && points[i].holds)
        .collect();
    let vectors: Vec<Vec<f64>> = eligible.iter().map(|&i| objectives(&points[i])).collect();
    let frontier: Vec<usize> = nondominated_indices(&vectors)
        .into_iter()
        .map(|k| eligible[k])
        .collect();
    for &i in &frontier {
        points[i].on_frontier = true;
    }
    if let Some(fx) = fixed_tiering_index {
        let fixed_obj = objectives(&points[fx]);
        for i in 0..points.len() {
            if points[i].certified && points[fx].certified {
                points[i].dominates_fixed = dominates(&objectives(&points[i]), &fixed_obj);
            }
        }
    }

    // Predictor honesty accounting: every certified pair whose measured
    // order contradicts the predicted one is a discordant pair. A
    // planted mutation must show up here — the full-evaluation stage is
    // the backstop that catches mispredictions.
    let certified: Vec<usize> = (0..points.len()).filter(|&i| points[i].certified).collect();
    let mut comparable_pairs = 0usize;
    let mut discordant_cost_pairs = 0usize;
    let mut discordant_quality_pairs = 0usize;
    for (a, &i) in certified.iter().enumerate() {
        for &j in &certified[a + 1..] {
            comparable_pairs += 1;
            let (p, q) = (&points[i], &points[j]);
            // Predicted-cheaper should run faster.
            let predicted_faster = p.predicted_cost_rank < q.predicted_cost_rank;
            if (p.speedup < q.speedup) == predicted_faster && p.speedup != q.speedup {
                discordant_cost_pairs += 1;
            }
            // Predicted-better-quality should certify a higher rate.
            let predicted_better = p.predicted_quality_rank < q.predicted_quality_rank;
            if (p.certified_rate < q.certified_rate) == predicted_better
                && p.certified_rate != q.certified_rate
            {
                discordant_quality_pairs += 1;
            }
        }
    }

    Ok(BenchmarkExploration {
        benchmark: benchmark.name().to_string(),
        enumerated: n,
        evaluated: points.len(),
        pruned: n - points.len(),
        budget,
        probe_members,
        points,
        frontier,
        fixed_tiering_index,
        pool_of_one_index,
        discordant_cost_pairs,
        discordant_quality_pairs,
        comparable_pairs,
        cache_hits,
        cache_misses,
        compile_invocations,
        predictor_probes,
        predictor_reused,
    })
}
