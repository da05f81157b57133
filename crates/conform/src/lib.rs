//! Statistical conformance harness: does the certified guarantee hold?
//!
//! The paper's central claim (§III, Equation 3) is distributional: with
//! confidence β, at least a fraction S of **unseen** datasets will meet the
//! final-quality target. Replaying the seed figures never tests that claim
//! — it only shows the numbers the compiler printed once. This crate
//! re-proves the claim empirically, every time it runs:
//!
//! 1. take a compiled artifact (typically out of the `core::session`
//!    artifact cache): a [`Compiled`] binary artifact or a
//!    [`RoutedCompiled`] pool, both seen through core's one [`Mixture`]
//!    view (a binary artifact is its pool of one);
//! 2. draw `M` fresh datasets from a seed space disjoint from every seed
//!    the compiler, profiler, or serving load generator has ever seen
//!    ([`CONFORM_SEED_BASE`]);
//! 3. run each through the system simulator's one routed loop
//!    ([`mithra_sim::system::run_routed`]) under the mixture's deployed
//!    router and score final application quality;
//! 4. compare the observed success fraction against the certified
//!    `(success-rate, confidence)` pair with an exact one-sided binomial
//!    test ([`mithra_stats::binomial::one_sided_p_value`]), yielding a
//!    [`Verdict`] with a p-value.
//!
//! Because the harness is itself statistics code — exactly the kind of
//! code whose bugs produce plausible-looking output — it ships with a
//! [mutation self-check](selfcheck): planted defects (a perturbed quality
//! target, a swapped Clopper–Pearson bound direction, an off-by-one
//! violation count, a violation blamed on the wrong pool member) must
//! each be *detected* by the harness's independent audits, or the harness
//! refuses to vouch for itself.
//!
//! There is one path for every mixture: [`validate`] (seeded) and
//! [`validate_profiles`] (pre-collected profiles) share one trial body,
//! one fold and one verdict computation, and every violation is charged
//! against the pool member that served with the worst error — the
//! certificate is over the *mixture*, and the audit re-attributes blame
//! per member (a binary artifact charges member 0).
//!
//! Trials fan out through [`mithra_core::parallel::par_map_indexed`] and
//! fold in candidate (seed) order, so every report is bit-identical at any
//! `--threads` setting.
//!
//! [`Compiled`]: mithra_core::pipeline::Compiled
//! [`RoutedCompiled`]: mithra_core::route::RoutedCompiled
//! [`Mixture`]: mithra_core::route::Mixture

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod report;
pub mod selfcheck;
pub mod validator;

pub use report::{GuaranteeReport, TrialRecord, Verdict};
pub use selfcheck::{Mutation, SelfCheckOutcome, SelfCheckReport};
pub use validator::{validate, validate_profiles, ValidatorConfig};

use std::fmt;

/// Seed base for conformance trials. Disjoint from every other seed space
/// in the repository — the full partition is pinned in
/// [`mithra_core::seeds`], which this constant re-exports. Dataset `i` of
/// a conformance run uses `CONFORM_SEED_BASE + i`.
pub use mithra_core::seeds::CONFORM_SEED_BASE;

/// Errors from the conformance harness.
#[derive(Debug)]
pub enum ConformError {
    /// A configuration value was invalid.
    InvalidConfig {
        /// Which parameter was rejected.
        parameter: &'static str,
        /// The constraint it violates.
        constraint: &'static str,
    },
    /// An error bubbled up from the statistics substrate.
    Stats(mithra_stats::StatsError),
    /// An error bubbled up from the system simulator.
    Sim(mithra_sim::SimError),
}

impl fmt::Display for ConformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformError::InvalidConfig {
                parameter,
                constraint,
            } => write!(
                f,
                "invalid conformance config: {parameter} must be {constraint}"
            ),
            ConformError::Stats(e) => write!(f, "statistics error: {e}"),
            ConformError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for ConformError {}

impl From<mithra_stats::StatsError> for ConformError {
    fn from(e: mithra_stats::StatsError) -> Self {
        ConformError::Stats(e)
    }
}

impl From<mithra_sim::SimError> for ConformError {
    fn from(e: mithra_sim::SimError) -> Self {
        ConformError::Sim(e)
    }
}

/// Convenience result alias for the conformance harness.
pub type Result<T> = std::result::Result<T, ConformError>;
