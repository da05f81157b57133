//! The NPU's lane-parallel tile kernel.
//!
//! Every floating-point path in this crate runs one fixed,
//! bit-reproducible operation order: per neuron, the bias, then a separate
//! `*` and `+` per input in ascending order, then the activation. The
//! single-sample forward ([`crate::mlp::Mlp::forward_into`]), the
//! trainer's `sgd_step` and the batched forward
//! ([`crate::mlp::Mlp::forward_batch_into`]) all run it, and every
//! committed result and byte-identity pin is produced by it.
//!
//! # Tile layout
//!
//! A *tile* packs [`LANES`] samples interleaved by feature:
//! `tile[i * LANES + lane]` is feature `i` of sample `lane`. Layer
//! evaluation then broadcasts one weight against eight samples, so the
//! compiler vectorizes across samples however narrow the network is (the
//! suite's topologies go down to width 1). Lane `lane`'s result depends
//! **only** on lane `lane`'s inputs — there is no cross-lane arithmetic —
//! and each lane runs its sample's exact single-sample operation
//! sequence (Rust never contracts `*` and `+` into a fused
//! multiply-add). A sample computed in a tile, full or partly filled, is
//! therefore bit-identical to the same sample run alone (pinned in
//! `tests/kernel_parity.rs`).

use crate::mlp::{Activation, Layer};

/// Number of samples a tile packs per feature.
pub const LANES: usize = 8;

/// Largest group size the batched forward routes through the
/// single-sample kernel instead of a zero-padded tile. A padded tile
/// costs a full eight lanes of work however few are live; per-sample
/// evaluation costs one lane each, so below this occupancy the
/// single-sample path is cheaper (and above it, amortization wins).
/// Both paths are bit-identical per sample, so the cutoff moves cost
/// only.
pub const LANE_REMAINDER_CUTOFF: usize = 4;

/// Which arithmetic path the NPU hot loops run. There is one, the
/// operation order this module describes; the type remains so a compile
/// configuration and a benchmark record can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelBackend {
    /// The bit-reproducible reference path: fixed sequential
    /// accumulation order, identical to every committed result.
    #[default]
    Scalar,
}

impl KernelBackend {
    /// The backend to run for `requested`: always `requested` itself.
    pub fn resolve(requested: KernelBackend) -> KernelBackend {
        requested
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("scalar")
    }
}

/// The host's x86_64 vector extensions (`neon` on aarch64), recorded
/// next to performance measurements so a reader knows the hardware.
/// Backs no kernel: every path runs the same arithmetic on any host.
pub fn host_simd_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        if is_x86_feature_detected!("sse4.2") {
            features.push("sse4.2");
        }
        if is_x86_feature_detected!("avx") {
            features.push("avx");
        }
        if is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if is_x86_feature_detected!("fma") {
            features.push("fma");
        }
        if is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
        features
    }
    #[cfg(target_arch = "aarch64")]
    {
        vec!["neon"]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Vec::new()
    }
}

/// Forward-evaluates `layer` on a tile:
/// `out[n * LANES + lane] = act(b[n] + w[n][0] * x[0] + w[n][1] * x[1] + …)`,
/// accumulated left to right — per lane exactly the scalar reference's
/// single-sample forward. The activation (libm `exp` for sigmoid) runs
/// on the first `lanes` lanes only; padding lanes keep their
/// pre-activations, which nothing reads.
///
/// Four neurons share one pass over the tile, as in the single-sample
/// `Layer::forward_exact`: their accumulator tiles are independent and
/// each keeps its neuron's exact operation order, so the interleave
/// hides the adder's latency without changing a bit.
pub(crate) fn layer_forward_tile_exact(
    layer: &Layer,
    lanes: usize,
    input: &[f32],
    out: &mut [f32],
) {
    let fan_in = layer.fan_in;
    let mut rows = layer.weights.chunks_exact(4 * fan_in);
    let mut biases = layer.biases.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4 * LANES);
    for ((quad, b), o) in rows.by_ref().zip(biases.by_ref()).zip(outs.by_ref()) {
        let (r0, rest) = quad.split_at(fan_in);
        let (r1, rest) = rest.split_at(fan_in);
        let (r2, r3) = rest.split_at(fan_in);
        let mut a0 = [b[0]; LANES];
        let mut a1 = [b[1]; LANES];
        let mut a2 = [b[2]; LANES];
        let mut a3 = [b[3]; LANES];
        for ((((x, &w0), &w1), &w2), &w3) in
            input.chunks_exact(LANES).zip(r0).zip(r1).zip(r2).zip(r3)
        {
            let x: &[f32; LANES] = x.try_into().expect("chunks_exact yields whole tiles");
            axpy_exact(&mut a0, w0, x);
            axpy_exact(&mut a1, w1, x);
            axpy_exact(&mut a2, w2, x);
            axpy_exact(&mut a3, w3, x);
        }
        // By value: borrowing the accumulators here keeps them in memory
        // through the loop above instead of in registers.
        for (out_tile, a) in o.chunks_exact_mut(LANES).zip([a0, a1, a2, a3]) {
            activate_tile(layer.activation, lanes, a, out_tile);
        }
    }
    for ((row, &b), out_tile) in rows
        .remainder()
        .chunks_exact(fan_in)
        .zip(biases.remainder())
        .zip(outs.into_remainder().chunks_exact_mut(LANES))
    {
        let mut acc = [b; LANES];
        for (&w, x) in row.iter().zip(input.chunks_exact(LANES)) {
            for lane in 0..LANES {
                acc[lane] += w * x[lane];
            }
        }
        activate_tile(layer.activation, lanes, acc, out_tile);
    }
}

/// `acc[lane] += w * x[lane]` on every lane, a separate `*` and `+`.
#[inline(always)]
fn axpy_exact(acc: &mut [f32; LANES], w: f32, x: &[f32; LANES]) {
    for lane in 0..LANES {
        acc[lane] += w * x[lane];
    }
}

/// Writes one neuron's accumulator tile out: the activation of its
/// first `lanes` lanes, the raw pre-activations of the padding lanes.
#[inline(always)]
fn activate_tile(activation: Activation, lanes: usize, acc: [f32; LANES], out_tile: &mut [f32]) {
    for (o, &a) in out_tile.iter_mut().zip(&acc).take(lanes) {
        *o = activation.apply(a);
    }
    out_tile[lanes..].copy_from_slice(&acc[lanes..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_resolves_to_itself_and_displays_scalar() {
        let backend = KernelBackend::default();
        assert_eq!(KernelBackend::resolve(backend), KernelBackend::Scalar);
        assert_eq!(backend.to_string(), "scalar");
    }

    #[test]
    fn forward_tile_lanes_are_independent() {
        // One sample alone in a tile must equal the same sample packed
        // with seven arbitrary neighbours — the property the batched
        // forward's bit-identity rests on.
        let fan_in = 3;
        let layer = Layer {
            weights: (0..2 * fan_in).map(|i| 0.3 - 0.1 * i as f32).collect(),
            biases: vec![0.2, -0.4],
            fan_in,
            activation: Activation::Sigmoid,
        };
        let sample = [0.7f32, -1.3, 0.5];

        let mut lone = vec![0.0f32; fan_in * LANES];
        for (i, &v) in sample.iter().enumerate() {
            lone[i * LANES] = v;
        }
        let mut packed = vec![0.0f32; fan_in * LANES];
        for i in 0..fan_in {
            for l in 0..LANES {
                packed[i * LANES + l] = 10.0 * l as f32 + i as f32;
            }
            packed[i * LANES] = sample[i];
        }
        let mut out_lone = vec![0.0f32; 2 * LANES];
        let mut out_packed = vec![0.0f32; 2 * LANES];
        layer_forward_tile_exact(&layer, 1, &lone, &mut out_lone);
        layer_forward_tile_exact(&layer, LANES, &packed, &mut out_packed);
        for n in 0..2 {
            assert_eq!(
                out_lone[n * LANES].to_bits(),
                out_packed[n * LANES].to_bits()
            );
        }
    }
}
