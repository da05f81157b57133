//! Statistical machinery underpinning MITHRA's quality guarantees.
//!
//! MITHRA (ISCA 2016) converts a programmer-supplied *final output quality*
//! target into a *local accelerator error threshold* by solving a statistical
//! optimization problem. The statistical core of that optimization is the
//! [Clopper–Pearson exact method], which provides a conservative one-sided
//! lower bound on the success rate observed over a set of representative
//! input datasets. This crate implements that method from first principles:
//!
//! * [`special`] — log-gamma and the regularized incomplete beta function,
//!   the numerical primitives every exact binomial interval rests on;
//! * [`beta`] — the Beta distribution (CDF and quantile via bracketed
//!   Newton iteration);
//! * [`clopper_pearson`] — one-sided and two-sided exact binomial intervals;
//! * [`sequential`] — always-valid e-process variants of the same bounds,
//!   safe under continuous monitoring (the online re-certifier's test);
//! * [`descriptive`] — means, geometric means, percentiles and empirical
//!   CDFs used throughout the evaluation harness;
//! * [`pareto`] — nondominated-set extraction with deterministic
//!   tie-breaking, used by the design-space explorer's certified
//!   frontiers.
//!
//! # Example
//!
//! The paper's worked example: 90 of 100 representative datasets meet the
//! quality target. What success rate can we project, with 95% confidence,
//! onto unseen datasets?
//!
//! ```
//! use mithra_stats::clopper_pearson::{lower_bound, Confidence};
//!
//! let bound = lower_bound(90, 100, Confidence::new(0.95)?)?;
//! // With 95% confidence at least ~84% of unseen datasets will meet the
//! // target (the paper prints the more conservative two-sided variant).
//! assert!(bound > 0.83 && bound < 0.86);
//! # Ok::<(), mithra_stats::StatsError>(())
//! ```
//!
//! [Clopper–Pearson exact method]: https://en.wikipedia.org/wiki/Binomial_proportion_confidence_interval

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod beta;
pub mod binomial;
pub mod clopper_pearson;
pub mod descriptive;
pub mod pareto;
pub mod sequential;
pub mod special;

mod error;

pub use error::StatsError;

/// Convenience result alias for fallible statistical routines.
pub type Result<T> = std::result::Result<T, StatsError>;
