//! The compile workloads: the paper's cold compile of every benchmark,
//! and the cold routed compile of a tiered approximator pool.
//!
//! Each stage transition of the compile session is one span, so the
//! traced run reports where compile time goes stage by stage. Inside a
//! stage the benchmark cannot see, so the traced run replays the stage
//! that dominates each workload — classifier training, deployed routed
//! certification — through its public pieces on the session's own
//! inputs, and checks that the replay reproduces the session's output.

use crate::common::{digest, profile_dataset, Checks, Ctx, Outcome};
use crate::trace::{total_seconds, Tracer};
use mithra_axbench::benchmark::Benchmark;
use mithra_core::function::AcceleratedFunction;
use mithra_core::neural::{NeuralClassifier, NeuralTrainConfig, HIDDEN_CANDIDATES};
use mithra_core::pipeline::{quantizer_from_profiles, CompileConfig, Compiled};
use mithra_core::route::{PoolSpec, RouteClassifier, RoutedCompiled};
use mithra_core::session::{CompileSession, SessionReport, Stage};
use mithra_core::table::TableClassifier;
use mithra_core::threshold::ThresholdOptimizer;
use mithra_core::training::generate_training_data;
use mithra_core::Result;
use std::sync::Arc;
use std::time::Instant;

/// The compile session seeds classifier and router training with
/// `seed_base ^ 0x7261_696E` (`mithra_core::session`); the replays use the
/// same seed so that they reproduce the session's artifacts exactly.
const TRAINING_SEED_SALT: u64 = 0x7261_696E;

const SESSION: &str = "core.session";

/// `compile`: a cold compile of every benchmark, stage by stage — the
/// same transitions `pipeline::compile_with_report` makes.
pub fn compile(ctx: &Ctx, t: &mut Tracer) -> Outcome {
    let suite = ctx.suite(&ctx.scale.benchmarks);
    let config = ctx.compile_config();
    let mut out = Outcome::default();
    out.setup_s = ctx
        .setup(t, &mut out.checks, |t| {
            (generate_inputs(ctx, t, &suite, &config), true)
        })
        .1;
    let results = measure(ctx, t, &mut out, &suite, |t, bench| {
        let session = CompileSession::new(Arc::clone(bench), config.clone());
        let session = t.span(SESSION, Stage::NpuTraining.label(), |_| session.train_npu())?;
        let session = t.span(SESSION, Stage::Profiling.label(), |_| session.profile())?;
        let session = t.span(SESSION, Stage::Certification.label(), |_| session.certify())?;
        let session = t.span(SESSION, Stage::ClassifierTraining.label(), |_| {
            session.train_classifiers()
        })?;
        Ok(session.finish())
    });

    let mut compiled = Vec::new();
    for (bench, result) in suite.iter().zip(results) {
        let name = bench.name();
        let mut problems = Vec::new();
        match result {
            Ok((artifact, report)) => {
                let th = &artifact.threshold;
                let observed = [
                    ("threshold_bits", th.threshold.to_bits().to_string()),
                    ("successes", format!("{}/{}", th.successes, th.trials)),
                    ("table_fnv", digest(&artifact.table)),
                    ("neural_fnv", digest(&artifact.neural)),
                ];
                for (what, value) in observed {
                    out.checks
                        .golden(ctx, &mut problems, format!("compile/{name}/{what}"), value);
                }
                compiled.push((artifact, report));
            }
            Err(e) => problems.push(format!("compiling {name}: {e}")),
        }
        out.checks.op(problems);
    }

    if t.enabled() {
        let stages = [
            Stage::NpuTraining,
            Stage::Profiling,
            Stage::Certification,
            Stage::ClassifierTraining,
        ];
        stage_layers(t, &mut out, &stages);
        train_rate(t, &mut out, compiled.iter().map(|(_, report)| report));
        let (mut rejects, mut labeled) = (0, 0);
        t.span("replay", Stage::ClassifierTraining.label(), |t| {
            for (artifact, _) in &compiled {
                let (r, n) = replay_classifiers(t, &config, artifact, &mut out.checks);
                rejects += r;
                labeled += n;
            }
        });
        let spans = t.spans();
        let parts = [
            ("core.training.generate_s", "core.training", "generate"),
            ("core.table.train_s", "core.table", "train"),
            ("core.neural.train_s", "core.neural", "train"),
        ];
        let mut replayed = 0.0;
        for (metric, layer, name) in parts {
            let seconds = total_seconds(spans, layer, name);
            replayed += seconds;
            out.layer(metric, "s", seconds);
        }
        out.replay_frac =
            replayed / total_seconds(spans, SESSION, Stage::ClassifierTraining.label());
        out.replay_of = "core.session.classifier-training (generate + table + neural sweep)";
        out.layer(
            "core.training.reject_frac",
            "ratio",
            rejects as f64 / labeled as f64,
        );
        for hidden in HIDDEN_CANDIDATES {
            let name = format!("candidate.h{hidden}");
            let seconds = total_seconds(spans, "core.neural", &name);
            out.layer(format!("core.neural.candidate_s.h{hidden}"), "s", seconds);
        }
        replay_profiling(ctx, t, &config, compiled.iter().map(|(a, _)| &a.function));
    }
    out
}

/// `compile-routed`: a cold routed compile of a tiered pool per
/// benchmark, stage by stage — the transitions
/// `pipeline::compile_routed_with_report` makes.
pub fn compile_routed(ctx: &Ctx, t: &mut Tracer) -> Outcome {
    let suite = ctx.suite(&ctx.scale.routed);
    let config = ctx.compile_config();
    let mut out = Outcome::default();
    out.setup_s = ctx
        .setup(t, &mut out.checks, |t| {
            (generate_inputs(ctx, t, &suite, &config), true)
        })
        .1;
    let results = measure(ctx, t, &mut out, &suite, |t, bench| {
        let spec = PoolSpec::tiered(&bench.npu_topology());
        let session = CompileSession::new(Arc::clone(bench), config.clone());
        let session = t.span(SESSION, Stage::NpuTraining.label(), |_| session.train_npu())?;
        let session = t.span(SESSION, Stage::Profiling.label(), |_| session.profile())?;
        let session = t.span(SESSION, Stage::PoolTraining.label(), |_| {
            session.train_pool(&spec)
        })?;
        let session = t.span(SESSION, Stage::RoutedCertification.label(), |_| {
            session.certify_routed()
        })?;
        let session = t.span(SESSION, Stage::RouterTraining.label(), |_| {
            session.train_router()
        })?;
        Ok(session.finish_routed())
    });

    let mut compiled = Vec::new();
    for (bench, result) in suite.iter().zip(results) {
        let name = bench.name();
        let mut problems = Vec::new();
        match result {
            Ok((routed, report)) => {
                let th = &routed.threshold;
                let observed = [
                    ("threshold_bits", th.threshold.to_bits().to_string()),
                    ("successes", format!("{}/{}", th.successes, th.trials)),
                    ("router_fnv", digest(&routed.router)),
                ];
                for (what, value) in observed {
                    out.checks.golden(
                        ctx,
                        &mut problems,
                        format!("compile-routed/{name}/{what}"),
                        value,
                    );
                }
                compiled.push((Arc::clone(bench), routed, report));
            }
            Err(e) => problems.push(format!("routed compile of {name}: {e}")),
        }
        out.checks.op(problems);
    }

    if t.enabled() {
        let stages = [
            Stage::NpuTraining,
            Stage::Profiling,
            Stage::PoolTraining,
            Stage::RoutedCertification,
            Stage::RouterTraining,
        ];
        stage_layers(t, &mut out, &stages);
        train_rate(t, &mut out, compiled.iter().map(|(_, _, report)| report));
        let mut probes = 0;
        t.span("replay", Stage::RoutedCertification.label(), |t| {
            for (bench, routed, _) in &compiled {
                probes += replay_routed_certification(t, &config, bench, routed, &mut out.checks);
            }
        });
        let spans = t.spans();
        let optimize = total_seconds(spans, "core.threshold", "optimize_routed_deployed");
        let train = total_seconds(spans, "core.route", "train_for_spec");
        out.layer("core.threshold.deployed_probes", "count", probes as f64);
        out.layer("core.route.train_for_spec_s", "s", train);
        out.layer("core.threshold.deployed_replay_s", "s", optimize - train);
        out.replay_frac =
            optimize / total_seconds(spans, SESSION, Stage::RoutedCertification.label());
        out.replay_of = "core.session.routed-certification (router training + deployed replay)";
        replay_profiling(
            ctx,
            t,
            &config,
            compiled.iter().map(|(_, routed, _)| routed.pool.accurate()),
        );
    }
    out
}

/// Set-up of a compile workload: generating the compile datasets. This
/// warms the allocator and the dataset generators before the timed cold
/// compile, which regenerates them from their seeds.
fn generate_inputs(
    ctx: &Ctx,
    t: &mut Tracer,
    suite: &[Arc<dyn Benchmark>],
    config: &CompileConfig,
) {
    for bench in suite {
        for i in 0..config.compile_datasets as u64 {
            t.span("axbench", "dataset", |_| {
                bench.dataset(config.seed_base + i, ctx.scale.dataset)
            });
        }
    }
}

/// The measured loop of a compile workload: cold compiles of the whole
/// set until the run's seconds are spent, each a `compile_s` sample.
/// Returns the last pass's per-benchmark results.
fn measure<T>(
    ctx: &Ctx,
    t: &mut Tracer,
    out: &mut Outcome,
    suite: &[Arc<dyn Benchmark>],
    mut compile_one: impl FnMut(&mut Tracer, &Arc<dyn Benchmark>) -> Result<(T, SessionReport)>,
) -> Vec<Result<(T, SessionReport)>> {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        t.rep = walls.len();
        let (results, wall) = t.timed("workload", "compile", |t| {
            suite
                .iter()
                .map(|bench| compile_one(t, bench))
                .collect::<Vec<_>>()
        });
        walls.push(wall);
        if ctx.done(started, walls.len()) {
            out.op_span = t.last_of("workload");
            out.primary = ("compile_s", walls.clone());
            out.wall_s = walls;
            return results;
        }
    }
}

/// Per-stage seconds, summed over benchmarks, from the stage spans.
fn stage_layers(t: &Tracer, out: &mut Outcome, stages: &[Stage]) {
    for stage in stages {
        let seconds = total_seconds(t.spans(), SESSION, stage.label());
        out.layer(
            format!("core.session.{}_s", stage.label().replace('-', "_")),
            "s",
            seconds,
        );
    }
}

/// NPU-training plus pool-training samples over those stages' wall.
fn train_rate<'a>(t: &Tracer, out: &mut Outcome, reports: impl Iterator<Item = &'a SessionReport>) {
    let stages = [Stage::NpuTraining, Stage::PoolTraining];
    let samples: u64 = reports
        .flat_map(|report| stages.iter().filter_map(|s| report.stage(*s)))
        .map(|s| s.invocations)
        .sum();
    let seconds: f64 = stages
        .iter()
        .map(|s| total_seconds(t.spans(), SESSION, s.label()))
        .sum();
    out.layer("npu.train_samples_per_s", "1/s", samples as f64 / seconds);
}

/// Replays one benchmark's classifier-training stage through its public
/// pieces — labeling, the table (levels, vote) grid, the neural
/// hidden-width sweep — and then each width alone on one thread.
/// Returns `(rejects, labeled)` of the generated training data.
fn replay_classifiers(
    t: &mut Tracer,
    config: &CompileConfig,
    compiled: &Compiled,
    checks: &mut Checks,
) -> (usize, usize) {
    let name = compiled.function.benchmark().name();
    let mut problems = Vec::new();
    let data = t.span("core.training", "generate", |_| {
        generate_training_data(
            &compiled.profiles,
            compiled.threshold.threshold,
            config.classifier_train_samples,
            config.seed_base ^ TRAINING_SEED_SALT,
        )
    });
    if data != compiled.training_data {
        problems.push(format!(
            "{name}: replayed training data differs from the session's"
        ));
    }
    let table = t.span("core.table", "train", |_| {
        let quantizer = quantizer_from_profiles(&compiled.profiles);
        TableClassifier::train_with_threads(config.table_design, quantizer, &data, config.threads)
    });
    let input_dim = compiled.function.benchmark().input_dim();
    let neural = t.span("core.neural", "train", |_| {
        NeuralClassifier::train_with_threads(input_dim, &data, &config.neural, config.threads)
    });
    match (table, neural) {
        (Ok(table), Ok(neural)) => {
            if digest(&table) != digest(&compiled.table)
                || digest(&neural) != digest(&compiled.neural)
            {
                problems.push(format!(
                    "{name}: replayed classifiers differ from the session's"
                ));
            }
        }
        (table, neural) => problems.push(format!(
            "{name}: classifier replay failed: {:?} {:?}",
            table.err(),
            neural.err()
        )),
    }
    for &hidden in &config.neural.hidden_candidates {
        let one = NeuralTrainConfig {
            hidden_candidates: vec![hidden],
            ..config.neural.clone()
        };
        let trained = t.span("core.neural", &format!("candidate.h{hidden}"), |_| {
            NeuralClassifier::train_with_threads(input_dim, &data, &one, Some(1))
        });
        if let Err(e) = trained {
            problems.push(format!("{name}: candidate h{hidden}: {e}"));
        }
    }
    checks.op(problems);
    (data.iter().filter(|e| e.reject).count(), data.len())
}

/// Replays one benchmark's deployed routed certification: the session's
/// optimizer call, with a span around every router training it probes.
/// Returns the number of probes.
fn replay_routed_certification(
    t: &mut Tracer,
    config: &CompileConfig,
    bench: &Arc<dyn Benchmark>,
    routed: &RoutedCompiled,
    checks: &mut Checks,
) -> usize {
    let name = bench.name();
    let spec = PoolSpec::tiered(&bench.npu_topology());
    if routed.pool.len() < 2 {
        checks.op(vec![format!(
            "{name}: a pool of one certifies without a deployed router"
        )]);
        return 0;
    }
    let mut probes = 0;
    let replayed = t.span("core.threshold", "optimize_routed_deployed", |t| {
        ThresholdOptimizer::new(config.spec)
            .with_threads(config.threads)
            .optimize_routed_deployed(&routed.pool, &routed.member_profiles, |threshold| {
                probes += 1;
                t.span("core.route", "train_for_spec", |_| {
                    RouteClassifier::train_for_spec(
                        &spec,
                        &routed.member_profiles,
                        threshold,
                        &config.table_design,
                        config.classifier_train_samples,
                        config.seed_base ^ TRAINING_SEED_SALT,
                        config.threads,
                    )
                })
            })
    });
    checks.op(match replayed {
        Ok(outcome) if outcome == routed.threshold => Vec::new(),
        Ok(_) => vec![format!(
            "{name}: replayed routed certificate differs from the session's"
        )],
        Err(e) => vec![format!("{name}: routed certification replay failed: {e}")],
    });
    probes
}

/// Replays the profiling stage's first compile datasets per benchmark,
/// splitting dataset generation from profile collection.
fn replay_profiling<'a>(
    ctx: &Ctx,
    t: &mut Tracer,
    config: &CompileConfig,
    functions: impl Iterator<Item = &'a AcceleratedFunction>,
) {
    t.span("replay", Stage::Profiling.label(), |t| {
        for function in functions {
            for i in 0..ctx.scale.profiling_replay as u64 {
                profile_dataset(t, function, config.seed_base + i, ctx.scale.dataset);
            }
        }
    });
}
