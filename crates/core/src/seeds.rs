//! The workspace-wide dataset-seed partition.
//!
//! Every layer that draws Monte-Carlo datasets does so from a disjoint
//! window of the `u64` seed space, so no experiment can accidentally
//! validate (or fuzz) on data another layer already consumed. The bases
//! are pinned here, in one place; the consuming crates re-export them
//! rather than declaring their own copies, and the cross-crate partition
//! tests (`mithra-conform`, `mithra-fuzz`) assert both the values and
//! the pairwise disjointness of the windows.
//!
//! | window                     | base        | consumer                         |
//! |----------------------------|-------------|----------------------------------|
//! | compile / training         | 0           | `pipeline::CompileConfig`        |
//! | figure-harness validation  | 1,000,000   | `mithra-bench` runner            |
//! | serving load generation    | 2,000,000   | mithra_perf `serve`              |
//! | conformance trials         | 3,000,000   | `mithra-conform`                 |
//! | drifted conformance trials | 3,500,000   | `mithra-conform` (drift window)  |
//! | differential fuzzing       | 4,000,000   | `mithra-fuzz`                    |
//! | extension tests            | 7,000,000   | `mithra-sim` route-parity pins   |

/// First seed of the compile/training window. Compile dataset `i` uses
/// seed `COMPILE_SEED_BASE + i`.
pub const COMPILE_SEED_BASE: u64 = 0;

/// First seed of the figure-harness validation window (unseen datasets
/// the figures score certified artifacts on).
pub const VALIDATION_SEED_BASE: u64 = 1_000_000;

/// First seed of the serving load-generation window.
pub const SERVE_SEED_BASE: u64 = 2_000_000;

/// First seed of the conformance Monte-Carlo window. Conformance trial
/// `i` uses seed `CONFORM_SEED_BASE + i`.
pub const CONFORM_SEED_BASE: u64 = 3_000_000;

/// First seed of the *drifted* conformance window (closed-loop
/// re-certification judges swapped pairs on these).
pub const DRIFT_CONFORM_SEED_BASE: u64 = CONFORM_SEED_BASE + 500_000;

/// First seed of the differential-fuzzing window (`mithra-fuzz`). Each
/// oracle family `f` draws case `i` from
/// `FUZZ_SEED_BASE + f * FUZZ_FAMILY_STRIDE + i`.
pub const FUZZ_SEED_BASE: u64 = 4_000_000;

/// Seeds reserved per fuzzing oracle family inside the fuzz window.
pub const FUZZ_FAMILY_STRIDE: u64 = 100_000;

/// First seed of the extension-test window (`mithra-sim` route-parity
/// pins exercise alternate bases here).
pub const EXTENSION_SEED_BASE: u64 = 7_000_000;

/// The pinned partition in ascending order, with the window each base
/// opens running to the next entry. Partition tests iterate this roster
/// so a new window cannot be added without joining the disjointness
/// proof.
pub const ALL_BASES: [(&str, u64); 7] = [
    ("compile", COMPILE_SEED_BASE),
    ("validation", VALIDATION_SEED_BASE),
    ("serve", SERVE_SEED_BASE),
    ("conform", CONFORM_SEED_BASE),
    ("drift-conform", DRIFT_CONFORM_SEED_BASE),
    ("fuzz", FUZZ_SEED_BASE),
    ("extension", EXTENSION_SEED_BASE),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bases_are_pinned() {
        assert_eq!(COMPILE_SEED_BASE, 0);
        assert_eq!(VALIDATION_SEED_BASE, 1_000_000);
        assert_eq!(SERVE_SEED_BASE, 2_000_000);
        assert_eq!(CONFORM_SEED_BASE, 3_000_000);
        assert_eq!(DRIFT_CONFORM_SEED_BASE, 3_500_000);
        assert_eq!(FUZZ_SEED_BASE, 4_000_000);
        assert_eq!(EXTENSION_SEED_BASE, 7_000_000);
    }

    #[test]
    fn roster_is_strictly_ascending() {
        for pair in ALL_BASES.windows(2) {
            assert!(
                pair[0].1 < pair[1].1,
                "{} >= {} — windows collide",
                pair[0].0,
                pair[1].0
            );
        }
    }

    #[test]
    fn fuzz_families_fit_their_window() {
        // Four oracle families, each with its own stride, must stay
        // below the extension base.
        let last = FUZZ_SEED_BASE + 4 * FUZZ_FAMILY_STRIDE;
        assert!(last < EXTENSION_SEED_BASE);
    }
}
