//! Accelerator configuration encoding — the word stream the config FIFO
//! transports.
//!
//! The compiler "generates the accelerator configuration at compilation
//! time and encodes it in the binary"; at program load the core streams it
//! to the accelerator through the 32-bit config queue. The stream is:
//! a magic word, the layer count, the layer widths, the output-activation
//! selector, then every weight and bias as Q16.16 fixed point in
//! [`Mlp::from_parameters`] order.
//!
//! [`Mlp::from_parameters`]: crate::mlp::Mlp::from_parameters

use crate::mlp::{Activation, Mlp};
use crate::topology::Topology;
use crate::{NpuError, Result};

const MAGIC: u32 = 0x4E50_5543; // "NPUC"
const FRAC_BITS: u32 = 16;

fn encode_f32(v: f32) -> u32 {
    let scaled = (f64::from(v) * f64::from(1u32 << FRAC_BITS)).round();
    scaled.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32 as u32
}

fn decode_f32(w: u32) -> f32 {
    (f64::from(w as i32) / f64::from(1u32 << FRAC_BITS)) as f32
}

/// Encodes a trained network into the config-FIFO word stream.
///
/// # Example
///
/// ```
/// # use mithra_npu::config::{encode, decode};
/// # use mithra_npu::mlp::{Activation, Mlp};
/// # use mithra_npu::topology::Topology;
/// let t = Topology::new(&[2, 2, 1])?;
/// let mlp = Mlp::from_parameters(t, &[0.5; 6], &[0.25; 3], Activation::Linear)?;
/// let words = encode(&mlp);
/// let restored = decode(&words)?;
/// assert_eq!(restored.run(&[1.0, 1.0])?, mlp.run(&[1.0, 1.0])?);
/// # Ok::<(), mithra_npu::NpuError>(())
/// ```
pub fn encode(mlp: &Mlp) -> Vec<u32> {
    let topology = mlp.topology();
    let (weights, biases) = mlp.to_parameters();
    let mut words = Vec::with_capacity(4 + topology.layers().len() + weights.len() + biases.len());
    words.push(MAGIC);
    words.push(topology.layers().len() as u32);
    words.extend(topology.layers().iter().map(|&w| w as u32));
    words.push(match mlp.output_activation() {
        Activation::Sigmoid => 1,
        Activation::Linear => 0,
    });
    words.extend(weights.iter().copied().map(encode_f32));
    words.extend(biases.iter().copied().map(encode_f32));
    words
}

/// Decodes a config-FIFO word stream back into a runnable network.
///
/// Weights round-trip at Q16.16 precision (~1.5e-5), matching what the
/// fixed-point datapath computes with anyway.
///
/// # Errors
///
/// Returns [`NpuError::InvalidTopology`] for a malformed stream (bad
/// magic, impossible shape, truncated payload).
pub fn decode(words: &[u32]) -> Result<Mlp> {
    let err = |reason: &'static str| NpuError::InvalidTopology { reason };
    if words.len() < 4 || words[0] != MAGIC {
        return Err(err("config stream missing magic word"));
    }
    let n_layers = words[1] as usize;
    if !(2..=16).contains(&n_layers) || words.len() < 2 + n_layers + 1 {
        return Err(err("config stream has an impossible layer count"));
    }
    let shape: Vec<usize> = words[2..2 + n_layers].iter().map(|&w| w as usize).collect();
    let topology = Topology::new(&shape)?;
    let activation = match words[2 + n_layers] {
        0 => Activation::Linear,
        1 => Activation::Sigmoid,
        _ => return Err(err("unknown output activation selector")),
    };
    let payload = &words[3 + n_layers..];
    let (nw, nb) = (topology.weight_count(), topology.bias_count());
    if payload.len() != nw + nb {
        return Err(err("config stream payload length mismatch"));
    }
    let weights: Vec<f32> = payload[..nw].iter().copied().map(decode_f32).collect();
    let biases: Vec<f32> = payload[nw..].iter().copied().map(decode_f32).collect();
    Mlp::from_parameters(topology, &weights, &biases, activation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mlp() -> Mlp {
        let t = Topology::new(&[3, 4, 2]).unwrap();
        let weights: Vec<f32> = (0..t.weight_count())
            .map(|i| (i as f32 * 0.37 - 2.0) * 0.25)
            .collect();
        let biases: Vec<f32> = (0..t.bias_count()).map(|i| i as f32 * 0.11 - 0.3).collect();
        Mlp::from_parameters(t, &weights, &biases, Activation::Sigmoid).unwrap()
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let mlp = sample_mlp();
        let restored = decode(&encode(&mlp)).unwrap();
        for &input in &[[0.1f32, 0.5, 0.9], [1.0, -1.0, 0.0]] {
            let a = mlp.run(&input).unwrap();
            let b = restored.run(&input).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-3, "{x} vs {y}");
            }
        }
        assert_eq!(restored.output_activation(), Activation::Sigmoid);
    }

    #[test]
    fn encoded_size_accounting() {
        let mlp = sample_mlp();
        let words = encode(&mlp);
        // magic + layer count + layer widths + activation selector + params.
        let t = mlp.topology();
        assert_eq!(words.len(), 3 + t.layers().len() + t.parameter_count());
    }

    #[test]
    fn malformed_streams_rejected() {
        let mlp = sample_mlp();
        let words = encode(&mlp);
        assert!(decode(&[]).is_err());
        assert!(decode(&[0xBAD, 2, 1, 1, 0]).is_err());
        assert!(decode(&words[..words.len() - 1]).is_err()); // truncated
        let mut bad_act = words.clone();
        bad_act[2 + 3] = 9;
        assert!(decode(&bad_act).is_err());
    }

    #[test]
    fn q16_16_precision() {
        for &v in &[0.0f32, 1.0, -1.0, 0.123456, -3.999] {
            let back = decode_f32(encode_f32(v));
            assert!((back - v).abs() < 2e-5, "{v} -> {back}");
        }
    }
}
