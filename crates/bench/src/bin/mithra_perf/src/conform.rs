//! The conformance workload: time to a verdict. `conform::validate` is
//! pure inference — per trial it generates an unseen dataset, profiles
//! it through the precise function and the NPU, simulates it under the
//! deployed table classifier and scores it; the Clopper–Pearson judge
//! then rules on the trials. No compile-side code runs.

use crate::common::{profile_dataset, Ctx, Outcome};
use crate::trace::{mean_seconds, total_seconds, Tracer};
use mithra_conform::{validate, ValidatorConfig};
use mithra_core::seeds::{CONFORM_SEED_BASE, DRIFT_CONFORM_SEED_BASE};
use mithra_sim::system::{run, RunHooks, SimOptions};
use std::time::Instant;

/// Confidence of the harness's own binomial test.
const TEST_CONFIDENCE: f64 = 0.95;

/// `conform`: six `validate` calls per pass; `verdict_s` per pass.
pub fn conform(ctx: &Ctx, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (artifacts, setup_s) = ctx.setup(t, &mut out.checks, |t| ctx.load_artifacts(t));
    out.setup_s = setup_s;
    let trials = ctx.scale.conform_trials;
    let slot = ctx.seed % ((DRIFT_CONFORM_SEED_BASE - CONFORM_SEED_BASE) / trials as u64);
    let config = ValidatorConfig {
        trials,
        seed_base: CONFORM_SEED_BASE + slot * trials as u64,
        scale: ctx.scale.dataset,
        threads: Some(ctx.threads),
        test_confidence: TEST_CONFIDENCE,
    };
    let spec = ctx.scale.compile.spec;

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first_pass = Vec::new();
    while !ctx.done(started, walls.len()) {
        t.rep = walls.len();
        let (reports, wall) = t.timed("workload", "verdict", |t| {
            artifacts
                .iter()
                .map(|compiled| {
                    let name = format!("validate.{}", compiled.function.benchmark().name());
                    t.span("conform", &name, |_| validate(compiled, &spec, &config))
                })
                .collect::<Vec<_>>()
        });
        walls.push(wall);
        for (i, (compiled, report)) in artifacts.iter().zip(reports).enumerate() {
            let name = compiled.function.benchmark().name();
            let mut problems = Vec::new();
            let verdict = match report {
                Ok(report) => {
                    let met = report.trial_records.iter().filter(|r| r.met_target).count() as u64;
                    if report.trials != trials as u64
                        || report.trial_records.len() != trials
                        || report.successes != met
                    {
                        problems.push(format!(
                            "{name}: {} trials, {} records, {} successes, {met} met the target",
                            report.trials,
                            report.trial_records.len(),
                            report.successes
                        ));
                    }
                    let successes = format!("{}/{}", report.successes, report.trials);
                    Some((successes, report.trial_records))
                }
                Err(e) => {
                    problems.push(format!("validating {name}: {e}"));
                    None
                }
            };
            if walls.len() == 1 {
                if let (0, Some((successes, _))) = (slot, &verdict) {
                    let key = format!("conform/{name}/successes");
                    out.checks
                        .golden(ctx, &mut problems, key, successes.clone());
                }
                first_pass.push(verdict);
            } else if let (Some((first, _)), Some((now, _))) = (&first_pass[i], &verdict) {
                if first != now {
                    problems.push(format!("{name}: {now} successes, first pass had {first}"));
                }
            }
            out.checks.op(problems);
        }
    }
    out.op_span = t.last_of("workload");
    out.primary = ("verdict_s", walls.clone());
    out.wall_s = walls;

    if t.enabled() {
        for compiled in &artifacts {
            let name = compiled.function.benchmark().name();
            let seconds = total_seconds(t.spans(), "conform", &format!("validate.{name}"));
            out.layer(format!("conform.validate_s.{name}"), "s", seconds);
        }
        // Replay the first trials one layer call at a time; each must
        // reproduce the validator's own trial.
        let replay_trials = ctx.scale.replay_trials.min(trials);
        let (_, replay_s) = t.timed("replay", "trials", |t| {
            for (compiled, first) in artifacts.iter().zip(&first_pass) {
                let Some((_, records)) = first else { continue };
                for (i, record) in records.iter().take(replay_trials).enumerate() {
                    let seed = config.seed_base + i as u64;
                    let profile = profile_dataset(t, &compiled.function, seed, config.scale);
                    let result = t.span("sim", "system.run", |_| {
                        let mut table = compiled.table.clone();
                        run(
                            compiled,
                            &profile,
                            &mut table,
                            &SimOptions::default(),
                            RunHooks::none(),
                        )
                    });
                    let problems = match result {
                        Ok(r) if r.quality_loss == record.quality_loss => Vec::new(),
                        Ok(r) => vec![format!(
                            "trial {seed}: replayed loss {} != {}",
                            r.quality_loss, record.quality_loss
                        )],
                        Err(e) => vec![format!("trial {seed}: replay failed: {e}")],
                    };
                    out.checks.op(problems);
                }
            }
        });
        let spans = t.spans();
        out.layer(
            "sim.system.run_ms",
            "ms",
            mean_seconds(spans, "sim", "system.run") * 1e3,
        );
        // One replayed trial's cost, scaled to every trial, against the
        // CPU time the validator had across its threads.
        let validate_s = total_seconds(spans, "workload", "verdict");
        let per_trial_s = replay_s / (replay_trials * artifacts.len()) as f64;
        out.replay_frac =
            per_trial_s * (trials * artifacts.len()) as f64 / (ctx.threads as f64 * validate_s);
        out.replay_of = "threads × verdict wall (dataset + profile + sim.system.run per trial)";
    }
    out
}
