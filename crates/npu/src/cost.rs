//! Per-invocation cost accounting: the quantities the system-level energy
//! model (in `mithra-sim`) converts to joules.

use crate::pe::PeArray;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Operation and cycle counts for one accelerator invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationCost {
    /// Total accelerator cycles for the invocation.
    pub cycles: u64,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// Sigmoid LUT lookups (one per hidden/output neuron).
    pub lut_lookups: u64,
    /// Weight-buffer reads (one per MAC).
    pub weight_reads: u64,
    /// Elements moved through the input queue.
    pub inputs_streamed: u64,
    /// Elements moved through the output queue.
    pub outputs_streamed: u64,
}

impl InvocationCost {
    /// Component-wise sum — cost of running two networks back to back
    /// (e.g. the neural classifier followed by the accelerator itself).
    pub fn combined(&self, other: &InvocationCost) -> InvocationCost {
        InvocationCost {
            cycles: self.cycles + other.cycles,
            macs: self.macs + other.macs,
            lut_lookups: self.lut_lookups + other.lut_lookups,
            weight_reads: self.weight_reads + other.weight_reads,
            inputs_streamed: self.inputs_streamed + other.inputs_streamed,
            outputs_streamed: self.outputs_streamed + other.outputs_streamed,
        }
    }
}

/// Computes invocation costs for networks run on a given PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NpuCostModel {
    pe: PeArray,
}

impl NpuCostModel {
    /// Cost model over the default 8-PE NPU.
    pub fn new() -> Self {
        Self {
            pe: PeArray::npu_default(),
        }
    }

    /// Full cost of one invocation of a network with this `topology`.
    ///
    /// # Example
    ///
    /// ```
    /// # use mithra_npu::cost::NpuCostModel;
    /// # use mithra_npu::topology::Topology;
    /// let model = NpuCostModel::new();
    /// let t = Topology::new(&[2, 8, 2])?;
    /// let cost = model.invocation(&t);
    /// assert_eq!(cost.macs, 32);
    /// assert!(cost.cycles > 0);
    /// # Ok::<(), mithra_npu::NpuError>(())
    /// ```
    pub fn invocation(&self, topology: &Topology) -> InvocationCost {
        InvocationCost {
            cycles: self.pe.invocation_cycles(topology),
            macs: topology.macs_per_invocation() as u64,
            lut_lookups: topology.neuron_count() as u64,
            weight_reads: topology.macs_per_invocation() as u64,
            inputs_streamed: topology.inputs() as u64,
            outputs_streamed: topology.outputs() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_counts_are_consistent() {
        let model = NpuCostModel::new();
        let t = Topology::new(&[6, 8, 3, 1]).unwrap();
        let c = model.invocation(&t);
        assert_eq!(c.macs, (6 * 8 + 8 * 3 + 3) as u64);
        assert_eq!(c.lut_lookups, 12);
        assert_eq!(c.weight_reads, c.macs);
        assert_eq!(c.inputs_streamed, 6);
        assert_eq!(c.outputs_streamed, 1);
    }

    #[test]
    fn combined_adds_componentwise() {
        let model = NpuCostModel::new();
        let a = model.invocation(&Topology::new(&[2, 4, 1]).unwrap());
        let b = model.invocation(&Topology::new(&[2, 8, 2]).unwrap());
        let c = a.combined(&b);
        assert_eq!(c.cycles, a.cycles + b.cycles);
        assert_eq!(c.macs, a.macs + b.macs);
    }

    #[test]
    fn default_is_npu_default() {
        assert_eq!(NpuCostModel::default(), NpuCostModel::new());
    }
}
