//! Seeded differential fuzzing for the certified-acceleration pipeline.
//!
//! Randomized testing only helps a statistical-guarantee system if the
//! fuzzer itself is held to the same evidentiary standard as the
//! pipeline it checks. This crate therefore pairs every differential
//! comparison with the planted-mutation discipline of
//! `mithra_conform::selfcheck`: a checker only counts if it provably
//! catches each defect deliberately injected into one side of the
//! comparison.
//!
//! Four [`OracleFamily`] implementations cover
//! the layers the certified pipeline rests on:
//!
//! | family      | comparison                                               |
//! |-------------|----------------------------------------------------------|
//! | `decision`  | table vs k-ary neural vs oracle vs precise decisions     |
//! | `guarantee` | conformance judge vs bit-exact audit, CP invariants      |
//! | `stream`    | BDI codec vs reference decoder; FIFO vs deque model      |
//! | `kernel`    | tile vs single-sample forward passes, determinism        |
//!
//! Each family draws its cases from a disjoint window of the workspace
//! seed partition (`mithra_core::seeds::FUZZ_SEED_BASE` plus the
//! family's stride), so fuzzing can never consume data any compile,
//! validation, serving or conformance layer already used. Failures
//! minimize to a `(seed, scale)` replay token; tolerated deviations
//! are counted allowances, never silent passes. The `mithra-fuzz` binary drives all families
//! and exits nonzero on any unexplained divergence or missed mutation
//! — see `EXPERIMENTS.md` for the smoke and extended budgets CI runs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod decision;
pub mod gen;
pub mod guarantee;
pub mod harness;
pub mod kernel;
pub mod stream;

pub use harness::{
    run_family, CaseOutcome, Failure, FamilyReport, MutationResult, OracleFamily, DEFAULT_BUDGET,
    DEFAULT_MUTATION_BUDGET, DEFAULT_SCALE,
};

/// All oracle families, in family-index order.
pub fn all_families() -> Vec<Box<dyn OracleFamily>> {
    vec![
        Box::new(decision::DecisionFamily),
        Box::new(guarantee::GuaranteeFamily),
        Box::new(stream::StreamFamily),
        Box::new(kernel::KernelFamily),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_indices_are_their_roster_positions() {
        for (i, fam) in all_families().iter().enumerate() {
            assert_eq!(fam.family_index(), i as u64, "{}", fam.name());
        }
    }

    #[test]
    fn family_names_are_unique() {
        let names: Vec<&str> = all_families().iter().map(|f| f.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }

    #[test]
    fn family_windows_fit_the_fuzz_partition() {
        use mithra_core::seeds::{EXTENSION_SEED_BASE, FUZZ_FAMILY_STRIDE};
        let count = all_families().len() as u64;
        assert!(
            harness::family_seed_base(count - 1) + FUZZ_FAMILY_STRIDE <= EXTENSION_SEED_BASE,
            "fuzz families overflow their seed window"
        );
    }
}
