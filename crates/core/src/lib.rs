//! MITHRA: a hardware–software co-design for controlling quality tradeoffs
//! in approximate acceleration (ISCA 2016).
//!
//! An approximate accelerator (the NPU in `mithra-npu`) conventionally
//! replaces *every* invocation of a target function. MITHRA instead decides
//! **per invocation** whether the accelerator's error would be acceptable,
//! falling back to the precise function when it would not. The design has
//! two halves:
//!
//! * **Software (compile time)** — [`threshold`] solves a statistical
//!   optimization problem: it converts the programmer's final-quality
//!   target into a *local accelerator error threshold*, certified with the
//!   Clopper–Pearson exact method so that, with confidence β, at least a
//!   fraction S of unseen datasets will meet the quality target.
//!   [`training`] then labels profiled invocations against the threshold
//!   and pre-trains the hardware classifiers.
//!
//! * **Hardware (runtime)** — [`table`] implements the MISR-hashed
//!   multi-table classifier (an ensemble of 1-bit tables combined with an
//!   OR, compressed with Base-Delta-Immediate for the binary); [`neural`]
//!   implements the MLP classifier executed on the NPU itself. [`oracle`]
//!   and [`random`] provide the paper's upper-bound and lower-bound
//!   comparison designs.
//!
//! The end-to-end compile flow — train the NPU, profile, find the
//! threshold, train both classifiers — is a staged [`session`] pipeline
//! ([`session::CompileSession`]) with parallel profiling, per-stage
//! instrumentation and an optional on-disk artifact [`cache`]; the
//! one-call wrappers live in [`pipeline`].
//!
//! # Example
//!
//! ```no_run
//! use mithra_core::pipeline::{compile, CompileConfig};
//! use mithra_core::threshold::QualitySpec;
//! use mithra_axbench::suite;
//! use std::sync::Arc;
//!
//! let bench: Arc<_> = suite::by_name("sobel").unwrap().into();
//! let mut cfg = CompileConfig::default();
//! cfg.spec = QualitySpec::paper_default(0.05)?;
//! let compiled = compile(bench, &cfg)?;
//! println!("threshold = {}", compiled.threshold.threshold);
//! # Ok::<(), mithra_core::MithraError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod classifier;
pub mod context;
pub mod function;
pub mod misr;
pub mod multi;
pub mod neural;
pub mod online;
pub mod oracle;
pub mod parallel;
pub mod pipeline;
pub mod profile;
pub mod random;
pub mod recert;
pub mod regression;
pub mod route;
pub mod seeds;
pub mod session;
pub mod table;
pub mod threshold;
pub mod training;
pub mod tree;
pub mod watchdog;

mod error;

pub use error::MithraError;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, MithraError>;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::cache::{ArtifactCache, CacheConfig};
    pub use crate::classifier::{Classifier, ClassifierOverhead, Decision};
    pub use crate::function::AcceleratedFunction;
    pub use crate::neural::NeuralClassifier;
    pub use crate::oracle::OracleClassifier;
    pub use crate::pipeline::{compile, CompileConfig, Compiled};
    pub use crate::profile::{collect_profiles_parallel, DatasetProfile};
    pub use crate::random::RandomFilter;
    pub use crate::recert::{RecertConfig, RecertEngine, RecertOutcome, RecertPhase};
    pub use crate::route::{
        ApproximatorPool, PoolSpec, RouteChoice, RouteClassifier, RoutedCompiled,
    };
    pub use crate::session::{CompileSession, SessionReport, Stage, StageReport};
    pub use crate::table::{TableClassifier, TableDesign};
    pub use crate::threshold::{QualitySpec, ThresholdOutcome};
    pub use crate::watchdog::{GuardState, QualityWatchdog, WatchdogConfig};
    pub use crate::MithraError;
}
