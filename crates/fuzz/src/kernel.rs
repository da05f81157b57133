//! Oracle family `kernel`: the tile kernel against the single-sample
//! kernel on fuzzed topologies.
//!
//! Each case builds a random MLP (fuzzed layer count, widths, weights,
//! biases and output activation) and a small input batch, then checks:
//!
//! * **determinism** — two forward passes over the same input are
//!   bit-identical;
//! * **batch/single identity** — the batched entry point equals the
//!   per-invocation one bit for bit. Every rung of the batch-size ladder
//!   exceeds `LANE_REMAINDER_CUTOFF`, so each case runs the tile kernel,
//!   and the top rung adds a thin remainder group that runs the
//!   single-sample kernel inside the same batch.
//!
//! The planted mutations weaken the bit-identity *comparator*, and the
//! harness proves it still has teeth with a per-case **probe**: every
//! case also feeds it a known-bad pair (a flipped mantissa bit in the
//! last element) that it must flag. A mutated comparator that misses
//! its probe reports a `probe-missed` divergence — which is exactly how
//! the mutation pass detects the planted defect.

use crate::gen::{rng_for, scale_size, uniform_vec};
use crate::harness::{CaseOutcome, OracleFamily};
use mithra_npu::mlp::{Activation, BatchScratch, ForwardScratch, Mlp};
use mithra_npu::topology::Topology;
use rand::Rng;

/// Labels of the planted comparator mutations, in `run_case` index
/// order.
pub const MUTATIONS: [&str; 2] = ["first-element-only", "bit-identity-disabled"];

/// Batch sizes per scale: a partial tile, a full tile plus one thin
/// sample, a full tile plus a partial one, and two full tiles plus a
/// thin group of four.
const BATCH_LADDER: [usize; 4] = [5, 9, 13, 20];

/// Comparator-weakening knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckerMutation {
    FirstElementOnly,
    BitIdentityDisabled,
}

/// Bit-identity comparator for batch-vs-single agreement.
fn bit_identical(a: &[f32], b: &[f32], mutation: Option<CheckerMutation>) -> bool {
    if mutation == Some(CheckerMutation::BitIdentityDisabled) {
        return true;
    }
    let take = if mutation == Some(CheckerMutation::FirstElementOnly) {
        1
    } else {
        a.len()
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .take(take)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The `kernel` oracle family.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelFamily;

impl OracleFamily for KernelFamily {
    fn name(&self) -> &'static str {
        "kernel"
    }

    fn family_index(&self) -> u64 {
        3
    }

    fn mutation_labels(&self) -> &'static [&'static str] {
        &MUTATIONS
    }

    fn run_case(&self, seed: u64, scale: u32, mutation: Option<usize>) -> CaseOutcome {
        let mut outcome = CaseOutcome::default();
        let mut rng = rng_for(seed);
        let checker = match mutation {
            Some(0) => Some(CheckerMutation::FirstElementOnly),
            Some(1) => Some(CheckerMutation::BitIdentityDisabled),
            _ => None,
        };

        // Fuzzed topology: 1-2 hidden layers, output width >= 2 so the
        // first-element-only probe has a last element to perturb.
        let mut shape = vec![rng.gen_range(2usize..=6)];
        for _ in 0..rng.gen_range(1usize..=2) {
            shape.push(rng.gen_range(2usize..=8));
        }
        shape.push(rng.gen_range(2usize..=4));
        let topology = match Topology::new(&shape) {
            Ok(t) => t,
            Err(e) => {
                outcome.diverge(format!("topology {shape:?} rejected: {e}"));
                return outcome;
            }
        };
        let weights = uniform_vec(&mut rng, topology.weight_count(), -2.0, 2.0);
        let biases = uniform_vec(&mut rng, topology.bias_count(), -2.0, 2.0);
        let activation = if rng.gen_range(0u32..2) == 0 {
            Activation::Sigmoid
        } else {
            Activation::Linear
        };
        let mlp = match Mlp::from_parameters(topology.clone(), &weights, &biases, activation) {
            Ok(m) => m,
            Err(e) => {
                outcome.diverge(format!("from_parameters failed: {e}"));
                return outcome;
            }
        };

        let count = scale_size(scale, BATCH_LADDER);
        let inputs = uniform_vec(&mut rng, count * topology.inputs(), -1.0, 1.0);
        let mut scratch = ForwardScratch::for_topology(&topology);

        // One input at a time — and determinism.
        let mut single = Vec::new();
        for chunk in inputs.chunks_exact(topology.inputs()) {
            let first = match mlp.forward_into(chunk, &mut scratch) {
                Ok(out) => out.to_vec(),
                Err(e) => {
                    outcome.diverge(format!("forward failed: {e}"));
                    return outcome;
                }
            };
            let second = mlp
                .forward_into(chunk, &mut scratch)
                .expect("same input cannot fail on retry")
                .to_vec();
            if !bit_identical(&first, &second, None) {
                outcome.diverge("forward is nondeterministic".to_string());
            }
            single.extend_from_slice(&second);
        }

        let mut batched = Vec::new();
        let mut batch_scratch = BatchScratch::for_topology(&topology);
        if let Err(e) = mlp.forward_batch_into(&inputs, count, &mut batched, &mut batch_scratch) {
            outcome.diverge(format!("batch forward failed: {e}"));
            return outcome;
        }
        if !bit_identical(&single, &batched, checker) {
            outcome.diverge("batched != single bit-for-bit".to_string());
        }

        // Probe: the comparator must flag a known-bad pair. A miss is a
        // divergence — on a clean case it means the checker has no
        // teeth; on a mutated case it is the detection itself.
        let mut flipped = single.clone();
        let last = flipped.len() - 1;
        flipped[last] = f32::from_bits(flipped[last].to_bits() ^ 1);
        if bit_identical(&single, &flipped, checker) {
            outcome
                .diverge("probe-missed: bit-identity comparator accepted flipped bit".to_string());
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{family_seed_base, DEFAULT_SCALE};
    use mithra_npu::kernel::{LANES, LANE_REMAINDER_CUTOFF};

    #[test]
    fn clean_cases_have_no_divergence() {
        let fam = KernelFamily;
        for i in 0..50 {
            let out = fam.run_case(family_seed_base(3) + i, DEFAULT_SCALE, None);
            assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        }
    }

    #[test]
    fn every_mutation_is_detected_at_every_scale() {
        let fam = KernelFamily;
        for scale in 0..=DEFAULT_SCALE {
            for (m, label) in MUTATIONS.iter().enumerate() {
                let out = fam.run_case(family_seed_base(3) + 5, scale, Some(m));
                assert!(
                    !out.divergences.is_empty(),
                    "mutation {label} missed at scale {scale}"
                );
            }
        }
    }

    #[test]
    fn every_rung_reaches_the_tile_kernel_and_the_top_one_a_thin_group() {
        assert!(BATCH_LADDER.iter().all(|&n| n > LANE_REMAINDER_CUTOFF));
        let top = BATCH_LADDER[3];
        assert!(top > LANES);
        assert!((1..=LANE_REMAINDER_CUTOFF).contains(&(top % LANES)));
    }

    #[test]
    fn comparators_have_teeth_unmutated() {
        let a = [1.0f32, 2.0, 3.0];
        let mut b = a;
        b[2] += 1.0;
        assert!(!bit_identical(&a, &b, None));
        assert!(bit_identical(&a, &a, None));
    }
}
