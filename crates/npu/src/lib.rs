//! A neural processing unit (NPU) — the approximate accelerator MITHRA
//! controls.
//!
//! The NPU (Esmaeilzadeh et al., MICRO 2012; paper reference \[16\]) replaces
//! a frequently executed *safe-to-approximate* function with a small
//! multi-layer perceptron trained offline to mimic it. The processor
//! communicates with the accelerator through enqueue/dequeue ISA extensions
//! and three FIFOs (inputs, outputs, configuration); the datapath is eight
//! processing elements (PEs) that evaluate the network layer by layer.
//!
//! This crate implements the complete accelerator substrate:
//!
//! * [`topology`] — network shapes like `6→8→3→1` (Table I of the paper);
//! * [`mlp`] — the floating-point reference datapath;
//! * [`fixed`] — a fixed-point (Q-format) datapath with a sigmoid LUT,
//!   mirroring what the hardware actually computes;
//! * [`train`] — the offline backpropagation trainer the compiler runs;
//! * [`fifo`] — the bounded queues of the core↔NPU interface;
//! * [`pe`] — the 8-PE layer schedule and its cycle cost;
//! * [`cost`] — per-invocation cycle and operation counts consumed by the
//!   system-level energy model.
//!
//! # Example: train an NPU to approximate a function
//!
//! ```
//! use mithra_npu::prelude::*;
//!
//! // Approximate f(x, y) = x * y over [0, 1]^2.
//! let samples: Vec<(Vec<f32>, Vec<f32>)> = (0..400)
//!     .map(|i| {
//!         let x = (i % 20) as f32 / 19.0;
//!         let y = (i / 20) as f32 / 19.0;
//!         (vec![x, y], vec![x * y])
//!     })
//!     .collect();
//!
//! let topology = Topology::new(&[2, 4, 1])?;
//! let mlp = Trainer::new(topology)
//!     .epochs(300)
//!     .learning_rate(0.4)
//!     .seed(7)
//!     .train(&samples)?;
//!
//! let out = mlp.run(&[0.5, 0.5])?;
//! assert!((out[0] - 0.25).abs() < 0.05);
//! # Ok::<(), mithra_npu::NpuError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod cost;
pub mod fault;
pub mod fifo;
pub mod fixed;
pub mod kernel;
pub mod mlp;
pub mod pe;
pub mod simulator;
pub mod topology;
pub mod train;

mod error;

pub use error::NpuError;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NpuError>;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::cost::{InvocationCost, NpuCostModel};
    pub use crate::mlp::{Activation, Mlp};
    pub use crate::topology::Topology;
    pub use crate::train::{Normalizer, Trainer};
    pub use crate::NpuError;
}
