//! A cycle-stepped execution engine for the PE array.
//!
//! The paper "augmented MARSSx86 with a cycle-accurate NPU simulator"
//! (§V-A). This module is that component: it steps one invocation through
//! the datapath — input streaming into the element latch, wave-scheduled
//! multiply-accumulates on the PEs, sigmoid lookups, output drain — one
//! cycle at a time, producing both the numerical result and a cycle-exact
//! trace. The analytical model in [`crate::pe`] is validated against it:
//! they must agree exactly, on every paper topology and on arbitrary ones
//! (a property test). The engine is a test-only reference; every deployed
//! cost comes from the analytical model.

use crate::fifo::Fifo;
use crate::mlp::Mlp;
use crate::pe::PeArray;
use crate::{NpuError, Result};

/// Per-layer slice of an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTrace {
    /// Cycles this layer occupied the PE array.
    pub cycles: u64,
    /// Waves the layer was scheduled in.
    pub waves: u64,
    /// MAC operations issued.
    pub macs: u64,
    /// PE-cycles that did useful MAC work (utilization numerator).
    pub busy_pe_cycles: u64,
}

/// The cycle-exact record of one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    /// Cycles spent streaming inputs from the FIFO into the array.
    pub input_cycles: u64,
    /// Per-layer execution.
    pub layers: Vec<LayerTrace>,
    /// Cycles spent draining outputs back to the FIFO.
    pub output_cycles: u64,
}

impl ExecutionTrace {
    /// Total invocation cycles.
    pub fn total_cycles(&self) -> u64 {
        self.input_cycles + self.layers.iter().map(|l| l.cycles).sum::<u64>() + self.output_cycles
    }

    /// PE-array utilization over the compute phase: busy PE-cycles over
    /// available PE-cycles.
    pub fn utilization(&self, pe_count: usize) -> f64 {
        let busy: u64 = self.layers.iter().map(|l| l.busy_pe_cycles).sum();
        let available: u64 = self.layers.iter().map(|l| l.cycles).sum::<u64>() * pe_count as u64;
        if available == 0 {
            0.0
        } else {
            busy as f64 / available as f64
        }
    }
}

/// The cycle-stepped engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleSimulator {
    pe: PeArray,
}

impl CycleSimulator {
    /// An engine over the default 8-PE array.
    pub fn new() -> Self {
        Self {
            pe: PeArray::npu_default(),
        }
    }

    /// Executes one invocation: drains `input.len()` elements from a
    /// freshly filled input FIFO, steps the network, pushes outputs to
    /// the output FIFO, and returns the outputs with the trace.
    ///
    /// The numerical result is bit-identical to [`Mlp::run`] — the engine
    /// reorders nothing, it only accounts cycles.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::DimensionMismatch`] if `input` does not match
    /// the network's input layer.
    pub fn execute(&self, mlp: &Mlp, input: &[f32]) -> Result<(Vec<f32>, ExecutionTrace)> {
        let topology = mlp.topology();
        if input.len() != topology.inputs() {
            return Err(NpuError::DimensionMismatch {
                expected: topology.inputs(),
                actual: input.len(),
            });
        }

        // Input streaming: one element per stream cycle through the FIFO.
        let mut in_fifo = Fifo::new(input.len().max(1));
        for &v in input {
            in_fifo.enqueue(v)?;
        }
        let mut current: Vec<f32> = Vec::with_capacity(input.len());
        let mut input_cycles = 0u64;
        while let Ok(v) = in_fifo.dequeue() {
            current.push(v);
            input_cycles += self.pe.input_stream_cycles;
        }

        // Layer-by-layer wave execution.
        let mut layers = Vec::with_capacity(mlp.layers().len());
        let mut next: Vec<f32> = Vec::new();
        for layer_idx in 0..mlp.layers().len() {
            let (fan_in, neurons, activation) = {
                let l = &mlp.layers()[layer_idx];
                (l.fan_in, l.biases.len(), l.activation)
            };
            let mut cycles = 0u64;
            let mut busy = 0u64;
            let mut waves = 0u64;
            next.clear();
            for wave_start in (0..neurons).step_by(self.pe.pe_count) {
                waves += 1;
                let wave_neurons = (neurons - wave_start).min(self.pe.pe_count);
                // Every PE in the wave steps through fan_in MACs in
                // lockstep; the wave completes after the MACs plus the
                // sigmoid/writeback overhead.
                let mut accumulators = vec![0.0f32; wave_neurons];
                for (o, acc) in accumulators.iter_mut().enumerate() {
                    let n = wave_start + o;
                    *acc = mlp.layers()[layer_idx].biases[n];
                }
                for (step, &x) in current.iter().enumerate().take(fan_in) {
                    for (o, acc) in accumulators.iter_mut().enumerate() {
                        let n = wave_start + o;
                        let w = mlp.layers()[layer_idx].weights[n * fan_in + step];
                        *acc += w * x;
                        busy += 1;
                    }
                    cycles += self.pe.mac_cycles;
                }
                cycles += self.pe.neuron_overhead_cycles;
                for acc in accumulators {
                    next.push(activation.apply(acc));
                }
            }
            layers.push(LayerTrace {
                cycles,
                waves,
                macs: (fan_in * neurons) as u64,
                busy_pe_cycles: busy,
            });
            std::mem::swap(&mut current, &mut next);
        }

        // Output drain.
        let mut out_fifo = Fifo::new(current.len().max(1));
        let mut output_cycles = 0u64;
        for &v in &current {
            out_fifo.enqueue(v)?;
            output_cycles += self.pe.output_stream_cycles;
        }
        let mut outputs = Vec::with_capacity(current.len());
        while let Ok(v) = out_fifo.dequeue() {
            outputs.push(v);
        }

        Ok((
            outputs,
            ExecutionTrace {
                input_cycles,
                layers,
                output_cycles,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Activation;
    use crate::topology::Topology;
    use proptest::prelude::*;

    fn mlp_for(shape: &str) -> Mlp {
        let t: Topology = shape.parse().unwrap();
        let weights: Vec<f32> = (0..t.weight_count())
            .map(|i| ((i * 31 % 97) as f32 / 97.0) - 0.5)
            .collect();
        let biases: Vec<f32> = (0..t.bias_count())
            .map(|i| ((i * 17 % 53) as f32 / 53.0) - 0.25)
            .collect();
        Mlp::from_parameters(t, &weights, &biases, Activation::Linear).unwrap()
    }

    const PAPER_TOPOLOGIES: [&str; 6] = [
        "6->8->8->1",
        "1->4->4->2",
        "2->8->2",
        "18->32->8->2",
        "64->16->64",
        "9->8->1",
    ];

    #[test]
    fn outputs_bit_identical_to_functional_model() {
        let sim = CycleSimulator::new();
        for shape in PAPER_TOPOLOGIES {
            let mlp = mlp_for(shape);
            let input: Vec<f32> = (0..mlp.topology().inputs())
                .map(|i| i as f32 * 0.07 - 0.5)
                .collect();
            let (stepped, _) = sim.execute(&mlp, &input).unwrap();
            let functional = mlp.run(&input).unwrap();
            assert_eq!(stepped, functional, "{shape}");
        }
    }

    #[test]
    fn cycle_counts_match_analytical_model_exactly() {
        // The headline validation: the analytical PeArray model and the
        // stepped engine agree on every paper topology.
        let sim = CycleSimulator::new();
        let pe = PeArray::npu_default();
        for shape in PAPER_TOPOLOGIES {
            let mlp = mlp_for(shape);
            let input = vec![0.1f32; mlp.topology().inputs()];
            let (_, trace) = sim.execute(&mlp, &input).unwrap();
            assert_eq!(
                trace.total_cycles(),
                pe.invocation_cycles(mlp.topology()),
                "cycle mismatch for {shape}"
            );
        }
    }

    #[test]
    fn per_layer_waves_match_schedule() {
        let sim = CycleSimulator::new();
        let mlp = mlp_for("18->32->8->2");
        let input = vec![0.0f32; 18];
        let (_, trace) = sim.execute(&mlp, &input).unwrap();
        assert_eq!(trace.layers.len(), 3);
        assert_eq!(trace.layers[0].waves, 4); // 32 neurons / 8 PEs
        assert_eq!(trace.layers[1].waves, 1);
        assert_eq!(trace.layers[2].waves, 1);
        assert_eq!(trace.layers[0].macs, 18 * 32);
    }

    #[test]
    fn utilization_full_when_waves_divide_evenly() {
        let sim = CycleSimulator::new();
        // 8 neurons on 8 PEs: every compute cycle keeps all PEs busy
        // except the per-wave overhead cycles.
        let mlp = mlp_for("6->8->8->1");
        let input = vec![0.2f32; 6];
        let (_, trace) = sim.execute(&mlp, &input).unwrap();
        let u = trace.utilization(8);
        assert!(u > 0.4 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn narrow_layers_waste_pes() {
        let sim = CycleSimulator::new();
        // A 1-neuron layer uses 1 of 8 PEs: utilization must be low.
        let mlp = mlp_for("9->8->1");
        let input = vec![0.2f32; 9];
        let (_, trace) = sim.execute(&mlp, &input).unwrap();
        let last = trace.layers.last().unwrap();
        assert!(last.busy_pe_cycles < last.cycles * 8);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let sim = CycleSimulator::new();
        let mlp = mlp_for("2->8->2");
        assert!(sim.execute(&mlp, &[1.0]).is_err());
    }

    fn arb_topology() -> impl Strategy<Value = Topology> {
        prop::collection::vec(1usize..12, 2..5).prop_map(|v| Topology::new(&v).unwrap())
    }

    proptest! {
        #[test]
        fn stepped_execution_matches_analytical_cycles(t in arb_topology(), seed in any::<u32>()) {
            let weights: Vec<f32> = (0..t.weight_count())
                .map(|i| (((i as u32).wrapping_mul(seed | 1) % 200) as f32 / 200.0) - 0.5)
                .collect();
            let biases = vec![0.1f32; t.bias_count()];
            let mlp = Mlp::from_parameters(t.clone(), &weights, &biases, Activation::Sigmoid).unwrap();
            let input = vec![0.4f32; t.inputs()];
            let (out, trace) = CycleSimulator::new().execute(&mlp, &input).unwrap();
            prop_assert_eq!(out, mlp.run(&input).unwrap());
            prop_assert_eq!(
                trace.total_cycles(),
                PeArray::npu_default().invocation_cycles(&t)
            );
        }
    }
}
