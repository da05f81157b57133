//! Seeded fault injection: deterministic fault plans over the simulated
//! hardware.
//!
//! A [`FaultPlan`] describes *what can go wrong* in a MITHRA system —
//! bit flips in the NPU's weight buffers and sigmoid LUT, corrupted
//! classifier-table entries and MISR configurations, FIFO stalls and
//! drops, and input-distribution drift — with every random choice drawn
//! from `StdRng::seed_from_u64`, so a given `(plan, dataset)` pair always
//! produces the same faults.
//!
//! Faults are applied **offline to copies** of the compiled artifacts:
//! [`FaultPlan::arm`] quantizes the trained network into the fixed-point
//! hardware datapath ([`FixedMlp`]), flips bits in that copy, re-profiles
//! the dataset through it, and clones-then-corrupts the table classifier.
//! The production simulation path never consults a plan — a disarmed plan
//! refuses to arm ([`SimError::Disarmed`]) and clean runs pay nothing.
//!
//! Each fault source flips bits by an independent per-bit Bernoulli draw
//! at the configured rate over the site's [`FaultSite::fault_bits`] space,
//! from its own derived RNG stream, so changing one rate never perturbs
//! the faults drawn for another source.

use crate::error::SimError;
use mithra_axbench::dataset::{Dataset, DriftSpec, OutputBuffer};
use mithra_core::pipeline::Compiled;
use mithra_core::profile::DatasetProfile;
use mithra_core::table::TableClassifier;
use mithra_npu::fault::FaultSite;
use mithra_npu::fixed::{FixedMlp, QFormat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Golden-ratio multiplier mixing the dataset seed into the plan seed.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// What happens to the accelerator FIFOs on one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoEvent {
    /// Queues behave normally.
    None,
    /// A full/empty queue stalls the core for
    /// [`crate::cpu::IsaCosts::fifo_stall`] cycles; the invocation then
    /// completes normally.
    Stall,
    /// The output FIFO dropped this invocation's result: the consumer
    /// dequeues the *stale* output of the last successful invocation.
    Drop,
}

/// A seeded, deterministic description of injected faults.
///
/// Rates are per-bit (for the bit-flip sources) or per-invocation (for
/// the FIFO sources) Bernoulli probabilities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; mixed with the dataset seed on arming.
    pub seed: u64,
    /// Per-bit flip probability over the NPU's weight/bias words.
    pub npu_weight_bit_rate: f64,
    /// Per-bit flip probability over the sigmoid LUT entries.
    pub lut_bit_rate: f64,
    /// Per-bit flip probability over the classifier's table entries.
    pub table_bit_rate: f64,
    /// Number of MISR hash configurations to corrupt (aliasing faults).
    pub misr_corruptions: usize,
    /// Per-invocation probability of a FIFO stall.
    pub fifo_stall_rate: f64,
    /// Per-invocation probability of an output-FIFO drop.
    pub fifo_drop_rate: f64,
    /// Optional input-distribution drift applied to the dataset.
    pub drift: Option<DriftSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing. [`FaultPlan::arm`] refuses it.
    pub fn disarmed() -> Self {
        Self {
            seed: 0,
            npu_weight_bit_rate: 0.0,
            lut_bit_rate: 0.0,
            table_bit_rate: 0.0,
            misr_corruptions: 0,
            fifo_stall_rate: 0.0,
            fifo_drop_rate: 0.0,
            drift: None,
        }
    }

    /// A plan applying `rate` uniformly to every bit-flip and FIFO fault
    /// source (no MISR corruption, no drift). `uniform(seed, 0.0)` is
    /// disarmed — sweep baselines at rate 0 run the clean path.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            npu_weight_bit_rate: rate,
            lut_bit_rate: rate,
            table_bit_rate: rate,
            misr_corruptions: 0,
            fifo_stall_rate: rate,
            fifo_drop_rate: rate,
            drift: None,
        }
    }

    /// Whether any fault source is active.
    pub fn is_armed(&self) -> bool {
        self.npu_weight_bit_rate > 0.0
            || self.lut_bit_rate > 0.0
            || self.table_bit_rate > 0.0
            || self.misr_corruptions > 0
            || self.fifo_stall_rate > 0.0
            || self.fifo_drop_rate > 0.0
            || self.drift.is_some()
    }

    /// Applies the plan to copies of `compiled`'s artifacts for one
    /// dataset, producing the faulted substrate a simulation runs on.
    ///
    /// The NPU is re-profiled through the fixed-point hardware datapath
    /// ([`FixedMlp`], Q16) with the plan's weight/LUT bits flipped; the
    /// table classifier is cloned and corrupted; FIFO events are drawn
    /// per invocation. `compiled` itself is never mutated.
    ///
    /// # Errors
    ///
    /// [`SimError::Disarmed`] if no fault source is active, or a wrapped
    /// NPU/core error if the faulted datapath cannot be evaluated.
    pub fn arm(&self, compiled: &Compiled, dataset: &Dataset) -> Result<ArmedFaults, SimError> {
        if !self.is_armed() {
            return Err(SimError::Disarmed);
        }
        let base = self.seed ^ dataset.seed().wrapping_mul(SEED_MIX);
        let stage_rng =
            |stage: u64| StdRng::seed_from_u64(base.wrapping_add(stage.wrapping_mul(SEED_MIX)));

        // Input-distribution drift first: it defines the inputs every
        // other fault source is profiled against.
        let dataset = match &self.drift {
            Some(spec) => dataset.drifted(spec),
            None => dataset.clone(),
        };

        // Faulted accelerator: quantize to the hardware datapath, flip
        // weight and LUT bits in the copy.
        let function = &compiled.function;
        let mut fixed = FixedMlp::quantize(function.npu(), QFormat::new(16)?);
        apply_bit_flips(&mut fixed, self.npu_weight_bit_rate, &mut stage_rng(1));
        apply_bit_flips(fixed.lut_mut(), self.lut_bit_rate, &mut stage_rng(2));

        // Re-profile the dataset through the faulted datapath.
        let bench = function.benchmark();
        let n = dataset.invocation_count();
        let mut precise = OutputBuffer::with_capacity(bench.output_dim(), n);
        let mut approx = OutputBuffer::with_capacity(bench.output_dim(), n);
        let mut max_err = Vec::with_capacity(n);
        let mut p = Vec::new();
        for input in dataset.iter() {
            function.precise_into(input, &mut p);
            let normalized = function.input_normalizer().forward(input);
            let raw = fixed.run(&normalized)?;
            let a = function.output_normalizer().inverse(&raw);
            max_err.push(function.max_normalized_error(&p, &a));
            precise.push(&p);
            approx.push(&a);
        }
        let final_precise = bench.run_application(&dataset, &precise);
        let profile = DatasetProfile::from_parts(dataset, precise, approx, max_err, final_precise);

        // Corrupted classifier: table-entry flips, then MISR aliasing.
        let mut classifier = compiled.table.clone();
        apply_bit_flips(&mut classifier, self.table_bit_rate, &mut stage_rng(3));
        let mut misr_rng = stage_rng(4);
        let tables = classifier.configs().len();
        for _ in 0..self.misr_corruptions {
            let table = misr_rng.gen_range(0..tables);
            let taps_mask = misr_rng.gen_range(0..0xFFFFu32) + 1;
            let rotate_delta = misr_rng.gen_range(0..30u32) + 1;
            classifier.corrupt_misr(table, taps_mask, rotate_delta);
        }

        // Per-invocation FIFO events.
        let mut fifo_rng = stage_rng(5);
        let stall = self.fifo_stall_rate.clamp(0.0, 1.0);
        let drop = self.fifo_drop_rate.clamp(0.0, 1.0);
        let fifo_events = (0..n)
            .map(|_| {
                if stall > 0.0 && fifo_rng.gen_bool(stall) {
                    FifoEvent::Stall
                } else if drop > 0.0 && fifo_rng.gen_bool(drop) {
                    FifoEvent::Drop
                } else {
                    FifoEvent::None
                }
            })
            .collect();

        Ok(ArmedFaults {
            profile,
            classifier,
            fifo_events,
        })
    }
}

/// When — and how hard — the input distribution moves over a session's
/// dataset sequence.
///
/// A schedule maps a dataset index to the [`DriftSpec`] in force for that
/// dataset, covering the three canonical drift shapes: an abrupt **step**,
/// a gradual **ramp**, and a **transient** excursion that later reverts.
/// Schedules are plain data — seeded through the target spec, serialized
/// with serde (`figw` writes them into its JSON artifacts), and evaluated
/// with [`DriftSchedule::drift_at`], so the same schedule replayed against
/// the same seeds reproduces the same session bit for bit.
///
/// The noise stream of the returned spec is re-seeded per dataset index
/// (mixing the index into `drift.seed`): consecutive datasets under the
/// same nominal drift see independent noise, as real drifting traffic
/// would, while the whole sequence stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DriftSchedule {
    /// The distribution never moves.
    None,
    /// Identity before `at`; the full `drift` from dataset `at` onward.
    Step {
        /// First drifted dataset index.
        at: usize,
        /// The drift in force from `at` onward.
        drift: DriftSpec,
    },
    /// Linear interpolation from identity at dataset `from` to the full
    /// `drift` at dataset `until`, holding steady afterwards.
    Ramp {
        /// Last identity dataset index.
        from: usize,
        /// First dataset at full drift (must be `> from`).
        until: usize,
        /// The drift reached at `until`.
        drift: DriftSpec,
    },
    /// The full `drift` inside `[at, until)`; identity before and after —
    /// the drift-then-revert scenario the re-certifier must survive
    /// without wedging on the transient distribution.
    Transient {
        /// First drifted dataset index.
        at: usize,
        /// First reverted (identity) dataset index.
        until: usize,
        /// The drift in force inside the excursion.
        drift: DriftSpec,
    },
}

impl DriftSchedule {
    /// The drift in force for dataset `index`, or `None` where the
    /// schedule leaves the distribution untouched (including ramp points
    /// that interpolate to the identity and specs that *are* the
    /// identity).
    pub fn drift_at(&self, index: usize) -> Option<DriftSpec> {
        let reseed = |mut spec: DriftSpec| {
            spec.seed ^= (index as u64).wrapping_mul(SEED_MIX);
            spec
        };
        let spec = match *self {
            DriftSchedule::None => return None,
            DriftSchedule::Step { at, drift } => {
                if index < at {
                    return None;
                }
                drift
            }
            DriftSchedule::Ramp { from, until, drift } => {
                if index <= from {
                    return None;
                }
                let span = until.saturating_sub(from).max(1);
                let t = ((index - from) as f32 / span as f32).min(1.0);
                DriftSpec {
                    scale: 1.0 + t * (drift.scale - 1.0),
                    offset: t * drift.offset,
                    noise_std: t * drift.noise_std,
                    seed: drift.seed,
                }
            }
            DriftSchedule::Transient { at, until, drift } => {
                if index < at || index >= until {
                    return None;
                }
                drift
            }
        };
        if spec.is_identity() {
            None
        } else {
            Some(reseed(spec))
        }
    }

    /// Whether any dataset index drifts under this schedule.
    pub fn is_active(&self) -> bool {
        match *self {
            DriftSchedule::None => false,
            DriftSchedule::Step { drift, .. } => !drift.is_identity(),
            DriftSchedule::Ramp { from, until, drift } => !drift.is_identity() && until > from,
            DriftSchedule::Transient { at, until, drift } => !drift.is_identity() && until > at,
        }
    }
}

/// Flips each bit of `site` independently with probability `rate`.
fn apply_bit_flips(site: &mut dyn FaultSite, rate: f64, rng: &mut StdRng) {
    let rate = rate.clamp(0.0, 1.0);
    if rate <= 0.0 {
        return;
    }
    for bit in 0..site.fault_bits() {
        if rng.gen_bool(rate) {
            site.flip_bit(bit);
        }
    }
}

/// The faulted substrate a simulation runs on: a re-profiled dataset, a
/// corrupted classifier, and a per-invocation FIFO event stream.
#[derive(Debug, Clone)]
pub struct ArmedFaults {
    /// The dataset (drifted if the plan says so) profiled through the
    /// faulted fixed-point accelerator.
    pub profile: DatasetProfile,
    /// The corrupted table classifier.
    pub classifier: TableClassifier,
    /// One event per invocation.
    pub fifo_events: Vec<FifoEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithra_axbench::benchmark::Benchmark;
    use mithra_axbench::dataset::DatasetScale;
    use mithra_axbench::suite;
    use mithra_core::pipeline::{compile, CompileConfig};
    use std::sync::{Arc, OnceLock};

    impl FaultPlan {
        /// Adds input-distribution drift to the plan.
        fn with_drift(mut self, drift: DriftSpec) -> Self {
            self.drift = if drift.is_identity() {
                None
            } else {
                Some(drift)
            };
            self
        }

        /// Adds `count` MISR configuration corruptions to the plan.
        fn with_misr_corruptions(mut self, count: usize) -> Self {
            self.misr_corruptions = count;
            self
        }
    }

    fn compiled_sobel() -> &'static Compiled {
        static COMPILED: OnceLock<Compiled> = OnceLock::new();
        COMPILED.get_or_init(|| {
            let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
            compile(bench, &CompileConfig::smoke()).unwrap()
        })
    }

    #[test]
    fn drift_schedule_shapes_cover_step_ramp_transient() {
        let drift = DriftSpec {
            scale: 1.4,
            offset: 0.2,
            noise_std: 0.1,
            seed: 7,
        };
        let step = DriftSchedule::Step { at: 3, drift };
        assert!(step.drift_at(2).is_none());
        assert!(step.drift_at(3).is_some());
        assert!(step.drift_at(100).is_some());

        let ramp = DriftSchedule::Ramp {
            from: 2,
            until: 6,
            drift,
        };
        assert!(ramp.drift_at(2).is_none(), "ramp starts after `from`");
        let half = ramp.drift_at(4).unwrap();
        assert!((half.scale - 1.2).abs() < 1e-6, "scale {}", half.scale);
        assert!((half.offset - 0.1).abs() < 1e-6);
        let full = ramp.drift_at(6).unwrap();
        assert!((full.scale - drift.scale).abs() < 1e-6);
        let held = ramp.drift_at(50).unwrap();
        assert!((held.scale - drift.scale).abs() < 1e-6, "ramps hold");

        let transient = DriftSchedule::Transient {
            at: 3,
            until: 6,
            drift,
        };
        assert!(transient.drift_at(2).is_none());
        assert!(transient.drift_at(3).is_some());
        assert!(transient.drift_at(5).is_some());
        assert!(transient.drift_at(6).is_none(), "transients revert");

        assert!(DriftSchedule::None.drift_at(0).is_none());
        assert!(!DriftSchedule::None.is_active());
        assert!(step.is_active() && ramp.is_active() && transient.is_active());
        let identity = DriftSchedule::Step {
            at: 0,
            drift: DriftSpec::none(),
        };
        assert!(!identity.is_active());
        assert!(identity.drift_at(5).is_none());
    }

    #[test]
    fn drift_schedule_reseeds_noise_per_dataset() {
        let drift = DriftSpec {
            scale: 1.0,
            offset: 0.0,
            noise_std: 0.05,
            seed: 11,
        };
        let step = DriftSchedule::Step { at: 0, drift };
        let a = step.drift_at(1).unwrap();
        let b = step.drift_at(2).unwrap();
        assert_ne!(a.seed, b.seed, "noise streams must differ per dataset");
        assert_eq!(step.drift_at(1).unwrap(), a, "but stay deterministic");
    }

    #[test]
    fn drift_schedule_serde_round_trips() {
        let schedule = DriftSchedule::Transient {
            at: 4,
            until: 9,
            drift: DriftSpec {
                scale: 1.3,
                offset: 0.12,
                noise_std: 0.02,
                seed: 99,
            },
        };
        let json = serde_json::to_string(&schedule).unwrap();
        let back: DriftSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, schedule);
    }

    #[test]
    fn disarmed_plan_refuses_to_arm() {
        let compiled = compiled_sobel();
        let ds = compiled.function.dataset(11, DatasetScale::Smoke);
        let err = FaultPlan::disarmed().arm(compiled, &ds).unwrap_err();
        assert!(matches!(err, SimError::Disarmed));
    }

    #[test]
    fn uniform_zero_rate_is_disarmed() {
        assert!(!FaultPlan::uniform(7, 0.0).is_armed());
        assert!(FaultPlan::uniform(7, 0.001).is_armed());
        assert!(FaultPlan::uniform(7, 0.0)
            .with_misr_corruptions(1)
            .is_armed());
    }

    #[test]
    fn identity_drift_does_not_arm() {
        let plan = FaultPlan::disarmed().with_drift(DriftSpec::none());
        assert!(!plan.is_armed());
        let drifted = FaultPlan::disarmed().with_drift(DriftSpec {
            scale: 1.4,
            offset: 0.0,
            noise_std: 0.0,
            seed: 3,
        });
        assert!(drifted.is_armed());
    }

    #[test]
    fn arming_is_deterministic() {
        let compiled = compiled_sobel();
        let ds = compiled.function.dataset(21, DatasetScale::Smoke);
        let plan = FaultPlan::uniform(99, 0.002).with_misr_corruptions(2);
        let a = plan.arm(compiled, &ds).unwrap();
        let b = plan.arm(compiled, &ds).unwrap();
        assert_eq!(a.profile.errors(), b.profile.errors());
        assert_eq!(a.fifo_events, b.fifo_events);
        assert_eq!(
            a.profile.approx_outputs().as_flat(),
            b.profile.approx_outputs().as_flat()
        );
    }

    #[test]
    fn different_seeds_draw_different_faults() {
        let compiled = compiled_sobel();
        let ds = compiled.function.dataset(21, DatasetScale::Smoke);
        let a = FaultPlan::uniform(1, 0.05).arm(compiled, &ds).unwrap();
        let b = FaultPlan::uniform(2, 0.05).arm(compiled, &ds).unwrap();
        assert_ne!(a.fifo_events, b.fifo_events);
        assert_ne!(
            a.profile.approx_outputs().as_flat(),
            b.profile.approx_outputs().as_flat()
        );
    }

    #[test]
    fn weight_faults_degrade_the_profiled_accelerator() {
        let compiled = compiled_sobel();
        let ds = compiled.function.dataset(33, DatasetScale::Smoke);
        let clean = DatasetProfile::collect(&compiled.function, ds.clone());
        let plan = FaultPlan {
            npu_weight_bit_rate: 0.01,
            ..FaultPlan::disarmed()
        };
        let armed = plan.arm(compiled, &ds).unwrap();
        let clean_mean: f32 = clean.errors().iter().sum::<f32>() / clean.invocation_count() as f32;
        let faulted_mean: f32 =
            armed.profile.errors().iter().sum::<f32>() / armed.profile.invocation_count() as f32;
        assert!(
            faulted_mean > clean_mean,
            "faulted {faulted_mean} vs clean {clean_mean}"
        );
    }

    #[test]
    fn drift_changes_the_profiled_inputs() {
        let compiled = compiled_sobel();
        let ds = compiled.function.dataset(44, DatasetScale::Smoke);
        let plan = FaultPlan::disarmed().with_drift(DriftSpec {
            scale: 1.5,
            offset: 0.2,
            noise_std: 0.05,
            seed: 9,
        });
        let armed = plan.arm(compiled, &ds).unwrap();
        assert_ne!(armed.profile.dataset().as_flat(), ds.as_flat());
        assert_eq!(armed.profile.invocation_count(), ds.invocation_count());
    }

    #[test]
    fn fifo_rates_control_event_mix() {
        let compiled = compiled_sobel();
        let ds = compiled.function.dataset(55, DatasetScale::Smoke);
        let plan = FaultPlan {
            fifo_stall_rate: 0.5,
            fifo_drop_rate: 0.5,
            ..FaultPlan::disarmed()
        };
        let armed = plan.arm(compiled, &ds).unwrap();
        let stalls = armed
            .fifo_events
            .iter()
            .filter(|e| **e == FifoEvent::Stall)
            .count();
        let drops = armed
            .fifo_events
            .iter()
            .filter(|e| **e == FifoEvent::Drop)
            .count();
        assert!(stalls > 0, "expected stalls at rate 0.5");
        assert!(drops > 0, "expected drops at rate 0.5");
        assert_eq!(armed.fifo_events.len(), ds.invocation_count());
    }
}
