//! `mithra-serve`: a batched, sharded invocation-serving runtime over
//! compiled MITHRA artifacts.
//!
//! MITHRA's decision — NPU or precise core, per invocation — is a
//! *runtime* mechanism, and this crate deploys it as one: each compiled
//! benchmark becomes an **endpoint**, requests flow through a bounded
//! MPMC queue with explicit admission control, and a pool of sharded
//! workers drains them in batches:
//!
//! ```text
//!  clients ──▶ submit() ──▶ [bounded queue] ──▶ worker 0 ─┐
//!              │ reject:                  ╲──▶ worker 1 ─┤──▶ slot
//!              │ full / invalid            ╲─▶ worker N ─┘    table
//!              ▼                               (own FIFOs,      │
//!           metrics ◀──── counters, latency,    router,         ▼
//!           registry      watchdog stats        watchdog)   RunResult
//! ```
//!
//! Every endpoint serves a [`Mixture`]: a binary endpoint is the pool of
//! one (its compiled function, routed by its table), and an endpoint
//! with a [`RoutedServeSpec`] serves the routed pool under its router.
//! Each worker owns a private NPU context per endpoint (FIFOs, a router
//! clone, a forked [`QualityWatchdog`]) and serves each same-endpoint
//! sub-batch with one decide pass, one batched accelerator run per
//! served member, and one charge pass, keeping the routing decision
//! strictly per-invocation. A member's configuration
//! image streams through the config FIFO whenever the served member
//! differs from the one configured, fresh per sub-batch. Cost accounting
//! reuses the sequential simulator's per-route [`InvocationModel`]
//! constants and folds per-invocation charges in index order, so a
//! fully-served endpoint's [`RunResult`] is bit-identical to
//! `mithra_sim::system::run_routed` over its mixture (for a binary
//! endpoint, `mithra_sim::system::simulate`) for any worker count, batch
//! size, and arrival order (watchdog off) — sharding buys wall-clock
//! throughput, never different numbers.
//!
//! The quality watchdog and the re-certification hot swap cover every
//! endpoint, routed ones included: the guard's limit comes from the
//! calibration counts the endpoint's compile session stored for its
//! router, and [`ServeEngine::swap_operating_point`] installs a new
//! router.
//!
//! [`Mixture`]: mithra_core::route::Mixture
//! [`QualityWatchdog`]: mithra_core::watchdog::QualityWatchdog
//! [`InvocationModel`]: mithra_sim::system::InvocationModel
//! [`RunResult`]: mithra_sim::system::RunResult

#![warn(missing_docs)]

pub mod backoff;
pub mod endpoint;
pub mod engine;
pub mod error;
pub mod metrics;
mod parked;
pub mod queue;

pub use backoff::Backoff;
pub use endpoint::{EndpointSpec, RoutedServeSpec};
pub use engine::{DrainedEngine, EndpointReport, Request, ServeConfig, ServeEngine, ServeReport};
pub use error::{RejectReason, ServeError};
pub use metrics::{EndpointCounters, GuardLogEntry, LatencyHistogram, MetricsSnapshot};
pub use queue::{BoundedQueue, PushError};
