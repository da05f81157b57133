//! Serving-layer errors.

use mithra_core::MithraError;
use std::error::Error;
use std::fmt;

/// Errors raised by the serving engine.
#[derive(Debug)]
pub enum ServeError {
    /// The engine was started with no endpoints to serve.
    NoEndpoints,
    /// A simulation option the sharded engine cannot honor (the named
    /// constraint explains why).
    UnsupportedOptions(&'static str),
    /// A worker thread panicked; per-endpoint results are unreliable.
    WorkerPanicked,
    /// A control-plane call (swap, trigger query) named an unregistered
    /// endpoint.
    UnknownEndpoint(usize),
    /// An operating-point swap offered a router over `routes` pool
    /// members to an endpoint serving a pool of `pool`.
    RouterMismatch {
        /// Pool members the offered router routes over.
        routes: usize,
        /// Pool members the endpoint serves.
        pool: usize,
    },
    /// A core-layer failure (calibration, quality scoring).
    Core(MithraError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoEndpoints => write!(f, "no endpoints to serve"),
            ServeError::UnsupportedOptions(why) => {
                write!(f, "unsupported simulation options: {why}")
            }
            ServeError::WorkerPanicked => write!(f, "a serving worker panicked"),
            ServeError::UnknownEndpoint(id) => {
                write!(f, "endpoint {id} is not registered")
            }
            ServeError::RouterMismatch { routes, pool } => write!(
                f,
                "a router over {routes} members cannot serve a pool of {pool}"
            ),
            ServeError::Core(e) => write!(f, "core error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MithraError> for ServeError {
    fn from(e: MithraError) -> Self {
        ServeError::Core(e)
    }
}

/// Why a request was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The request queue is at capacity — backpressure, retry later.
    QueueFull,
    /// The engine is shutting down; no further requests are accepted.
    ShuttingDown,
    /// The endpoint id does not name a registered endpoint.
    UnknownEndpoint,
    /// The invocation index is outside the endpoint's dataset.
    InvalidInvocation,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue full"),
            RejectReason::ShuttingDown => write!(f, "engine shutting down"),
            RejectReason::UnknownEndpoint => write!(f, "unknown endpoint"),
            RejectReason::InvalidInvocation => write!(f, "invocation out of range"),
        }
    }
}
