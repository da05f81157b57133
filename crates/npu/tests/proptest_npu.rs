//! Property-based tests on the NPU substrate.

use mithra_npu::config::{decode, encode};
use mithra_npu::cost::NpuCostModel;
use mithra_npu::mlp::{Activation, Mlp};
use mithra_npu::pe::PeArray;
use mithra_npu::topology::Topology;
use mithra_npu::train::Normalizer;
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop::collection::vec(1usize..12, 2..5).prop_map(|v| Topology::new(&v).unwrap())
}

proptest! {
    #[test]
    fn topology_display_parses_back(t in arb_topology()) {
        let s = t.to_string();
        let parsed: Topology = s.parse().unwrap();
        prop_assert_eq!(parsed, t);
    }

    #[test]
    fn parameter_counts_are_consistent(t in arb_topology()) {
        prop_assert_eq!(t.parameter_count(), t.weight_count() + t.bias_count());
        prop_assert_eq!(t.macs_per_invocation(), t.weight_count());
        prop_assert!(t.neuron_count() >= t.outputs());
    }

    #[test]
    fn forward_pass_is_deterministic(
        t in arb_topology(),
        seed in any::<u32>(),
    ) {
        let weights: Vec<f32> = (0..t.weight_count())
            .map(|i| ((i as u32).wrapping_mul(seed) % 1000) as f32 / 1000.0 - 0.5)
            .collect();
        let biases: Vec<f32> = (0..t.bias_count())
            .map(|i| ((i as u32).wrapping_add(seed) % 100) as f32 / 100.0 - 0.5)
            .collect();
        let mlp = Mlp::from_parameters(t.clone(), &weights, &biases, Activation::Linear).unwrap();
        let input = vec![0.5f32; t.inputs()];
        prop_assert_eq!(mlp.run(&input).unwrap(), mlp.run(&input).unwrap());
    }

    #[test]
    fn config_stream_round_trips_any_topology(
        t in arb_topology(),
        scale in 0.01f32..2.0,
    ) {
        let weights: Vec<f32> = (0..t.weight_count())
            .map(|i| (i as f32 * 0.713).sin() * scale)
            .collect();
        let biases: Vec<f32> = (0..t.bias_count())
            .map(|i| (i as f32 * 0.319).cos() * scale)
            .collect();
        let mlp = Mlp::from_parameters(t.clone(), &weights, &biases, Activation::Sigmoid).unwrap();
        let restored = decode(&encode(&mlp)).unwrap();
        prop_assert_eq!(restored.topology(), &t);
        let input = vec![0.3f32; t.inputs()];
        let a = mlp.run(&input).unwrap();
        let b = restored.run(&input).unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    #[test]
    fn pe_cycles_monotone_in_network_size(t in arb_topology(), extra in 1usize..8) {
        let pe = PeArray::npu_default();
        let mut bigger: Vec<usize> = t.layers().to_vec();
        let mid = bigger.len() / 2;
        bigger[mid] += extra;
        let t_big = Topology::new(&bigger).unwrap();
        prop_assert!(pe.invocation_cycles(&t_big) >= pe.invocation_cycles(&t));
    }

    #[test]
    fn cost_model_counts_match_topology(t in arb_topology()) {
        let cost = NpuCostModel::new().invocation(&t);
        prop_assert_eq!(cost.macs as usize, t.weight_count());
        prop_assert_eq!(cost.inputs_streamed as usize, t.inputs());
        prop_assert_eq!(cost.outputs_streamed as usize, t.outputs());
        prop_assert!(cost.cycles > 0);
    }

    #[test]
    fn normalizer_round_trips_within_range(
        samples in prop::collection::vec(
            prop::collection::vec(-1e4f32..1e4, 3..=3),
            2..30
        ),
    ) {
        let norm = Normalizer::fit(&samples, 0.0, 1.0);
        for s in &samples {
            let back = norm.inverse(&norm.forward(s));
            for (a, b) in back.iter().zip(s) {
                // Constant dimensions collapse to the min; others round trip.
                prop_assert!((a - b).abs() < 1e-1 || (a - b).abs() / b.abs().max(1.0) < 1e-3);
            }
        }
    }

    #[test]
    fn normalizer_forward_stays_in_target_interval(
        samples in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 2..=2),
            2..20
        ),
        probe_idx in 0usize..20,
    ) {
        let norm = Normalizer::fit(&samples, 0.1, 0.9);
        let probe = &samples[probe_idx % samples.len()];
        for v in norm.forward(probe) {
            prop_assert!((0.1 - 1e-4..=0.9 + 1e-4).contains(&v));
        }
    }
}
