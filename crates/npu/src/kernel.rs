//! Runtime-dispatched kernel backends for the NPU hot loops.
//!
//! Every arithmetic path in this crate has a **scalar reference**
//! implementation whose floating-point operation order is fixed and
//! bit-reproducible ([`crate::mlp::Mlp::forward_into`], the trainer's
//! `sgd_step`). That path is the default: all committed results and
//! byte-identity pins are produced by it. This module adds an opt-in
//! **SIMD** backend that keeps eight samples in flight per vector
//! instruction in a lane-per-sample tile layout and relaxes the
//! arithmetic: fused multiply-adds, a polynomial sigmoid and per-lane
//! gradient sums.
//!
//! The scalar backend tiles samples the same way but keeps the reference
//! arithmetic: `layer_forward_tile_exact` runs each lane's exact
//! sequence of separate `*` and `+`, so the compiler vectorizes it across
//! lanes without changing a bit. The trainer's forward pass and the
//! scalar batched inference ([`crate::mlp::Mlp::forward_batch_into_with`])
//! both run it; batched inference on either backend is therefore
//! bit-identical to that backend's per-sample forward.
//!
//! # Tile layout
//!
//! A *tile* packs [`LANES`] samples interleaved by feature:
//! `tile[i * LANES + lane]` is feature `i` of sample `lane`. Layer
//! evaluation then broadcasts one weight against eight samples per
//! fused-multiply-add, so the vector width is always filled regardless of
//! how narrow the network is (the suite's topologies go down to
//! width 1). Crucially, lane `lane`'s result depends **only** on lane
//! `lane`'s inputs — there is no cross-lane arithmetic — so a sample
//! computed in a partially filled tile is bit-identical to the same
//! sample inside a full tile. That per-lane independence is what makes
//! the batched forward bit-identical to the per-invocation forward of the
//! same backend by construction (pinned in `tests/kernel_parity.rs`).
//!
//! # Dispatch policy
//!
//! The tile kernels are written once as `#[inline(always)]` generic
//! bodies using [`f32::mul_add`] (a fused single-rounding operation on
//! every path), then instantiated under
//! `#[target_feature(enable = "avx2,fma")]` on x86_64. Which
//! instantiation runs is decided once per process from
//! `is_x86_feature_detected!`; on aarch64 NEON is baseline so the
//! generic body already vectorizes. Because every instantiation executes
//! the same fused operations in the same order, the SIMD backend's
//! results are deterministic and identical across ISAs — it differs from
//! the scalar reference (different accumulation order), not between
//! machines.
//!
//! # Selection
//!
//! [`KernelBackend::resolve`] picks the backend once per entry point:
//! the `MITHRA_KERNEL` environment variable wins over the requested
//! value (so a deployment can force `MITHRA_KERNEL=scalar` without
//! touching flags), and a SIMD request on a host without AVX2+FMA
//! degrades to scalar rather than running a software-FMA slow path.

use crate::mlp::{Activation, Layer};
use std::str::FromStr;
use std::sync::OnceLock;

/// Number of samples a tile packs per feature — the SIMD kernels'
/// logical vector width on every architecture.
pub const LANES: usize = 8;

/// Largest group size the batched forward routes, on either backend,
/// through the single-sample kernel instead of a zero-padded tile. A
/// padded tile costs a full eight lanes of work however few are live;
/// per-sample evaluation costs one lane each, so below this occupancy
/// the single-sample path is cheaper (and above it, amortization wins).
/// Both paths are bit-identical per sample, so the cutoff moves cost
/// only.
pub const LANE_REMAINDER_CUTOFF: usize = 4;

/// Which arithmetic path the NPU hot loops run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum KernelBackend {
    /// The bit-reproducible reference path: fixed sequential
    /// accumulation order, identical to every committed result. Default.
    #[default]
    Scalar,
    /// Lane-per-sample tile kernels with relaxed accumulation order and
    /// a polynomial sigmoid; opt-in, pinned to the reference by
    /// tolerance-bounded parity tests.
    Simd,
}

impl KernelBackend {
    /// Whether the SIMD instantiation would actually use vector FMA
    /// hardware on this machine (AVX2+FMA on x86_64, NEON baseline on
    /// aarch64).
    pub fn simd_available() -> bool {
        simd_available()
    }

    /// Resolves the backend to run: `MITHRA_KERNEL` (if set to a valid
    /// backend name) overrides `requested`, and a SIMD selection on a
    /// host without vector FMA support falls back to [`Scalar`].
    ///
    /// [`Scalar`]: KernelBackend::Scalar
    pub fn resolve(requested: KernelBackend) -> KernelBackend {
        let choice = std::env::var("MITHRA_KERNEL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(requested);
        match choice {
            KernelBackend::Simd if simd_available() => KernelBackend::Simd,
            KernelBackend::Simd => KernelBackend::Scalar,
            KernelBackend::Scalar => KernelBackend::Scalar,
        }
    }

    /// The flag/JSON spelling of this backend.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }
}

impl FromStr for KernelBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(KernelBackend::Scalar),
            "simd" => Ok(KernelBackend::Simd),
            other => Err(format!("unknown kernel backend '{other}' (scalar|simd)")),
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// CPU feature names backing the SIMD instantiation on this host, for
/// benchmark reports (`host_simd` in BENCH JSON).
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

fn simd_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "aarch64")]
        {
            true
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            false
        }
    })
}

// ---------------------------------------------------------------------------
// Lane-wise math helpers (always called from inside a tile kernel body).
// ---------------------------------------------------------------------------

/// Vectorizable polynomial `exp` on eight lanes (Cephes `expf` scheme):
/// range-reduce by `ln 2` with a round-to-nearest-even magic-number
/// trick, evaluate a degree-5 polynomial on the remainder, and rebuild
/// `2^k` by exponent-field construction. Max relative error is a few
/// ULPs — far inside the SIMD backend's parity tolerance.
#[inline(always)]
fn exp8(x: &mut [f32; LANES]) {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // The hi part of the Cody–Waite split must be written out in full:
    // 0.693359375 = 0x3F317000 is exact in f32 with 12 trailing zero
    // mantissa bits, so `kf * LN2_HI` is exact for |k| < 2^12.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Exactly representable bound keeping `(k + 127) << 23` in range.
    const LIMIT: f32 = 87.0;
    // 1.5 * 2^23: adding and subtracting rounds to nearest even.
    const ROUND_MAGIC: f32 = 12_582_912.0;

    let mut k = [0.0f32; LANES];
    for l in 0..LANES {
        let v = x[l].clamp(-LIMIT, LIMIT);
        let t = v.mul_add(LOG2E, ROUND_MAGIC);
        let kf = t - ROUND_MAGIC;
        k[l] = kf;
        // Two-step Cody–Waite reduction keeps the remainder accurate.
        let r = kf.mul_add(-LN2_HI, v);
        x[l] = kf.mul_add(-LN2_LO, r);
    }
    for l in 0..LANES {
        let r = x[l];
        let mut p = 1.987_569_2e-4f32;
        p = p.mul_add(r, 1.398_199_9e-3);
        p = p.mul_add(r, 8.333_452e-3);
        p = p.mul_add(r, 4.166_579_6e-2);
        p = p.mul_add(r, 0.166_666_66);
        p = p.mul_add(r, 0.5);
        let poly = (p * r).mul_add(r, r) + 1.0;
        let scale = f32::from_bits((((k[l] as i32) + 127) << 23) as u32);
        x[l] = poly * scale;
    }
}

/// Lane-wise logistic sigmoid `1 / (1 + e^-x)` built on [`exp8`].
#[inline(always)]
fn sigmoid8(v: &mut [f32; LANES]) {
    let mut e = [0.0f32; LANES];
    for l in 0..LANES {
        e[l] = -v[l];
    }
    exp8(&mut e);
    for l in 0..LANES {
        v[l] = 1.0 / (1.0 + e[l]);
    }
}

/// Single-lane [`exp8`]: the identical operation sequence applied to one
/// value. Lanes are independent in `exp8`, so this is bit-identical to
/// any one lane of the eight-lane form — at one lane's cost.
#[inline(always)]
fn exp1(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // Same constants as `exp8`; see the comments there.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const LIMIT: f32 = 87.0;
    const ROUND_MAGIC: f32 = 12_582_912.0;

    let v = x.clamp(-LIMIT, LIMIT);
    let t = v.mul_add(LOG2E, ROUND_MAGIC);
    let kf = t - ROUND_MAGIC;
    let r0 = kf.mul_add(-LN2_HI, v);
    let r = kf.mul_add(-LN2_LO, r0);
    let mut p = 1.987_569_2e-4f32;
    p = p.mul_add(r, 1.398_199_9e-3);
    p = p.mul_add(r, 8.333_452e-3);
    p = p.mul_add(r, 4.166_579_6e-2);
    p = p.mul_add(r, 0.166_666_66);
    p = p.mul_add(r, 0.5);
    let poly = (p * r).mul_add(r, r) + 1.0;
    let scale = f32::from_bits((((kf as i32) + 127) << 23) as u32);
    poly * scale
}

/// Single-lane [`sigmoid8`] (bit-identical to any one lane of it).
#[inline(always)]
fn sigmoid1(v: f32) -> f32 {
    1.0 / (1.0 + exp1(-v))
}

// ---------------------------------------------------------------------------
// Tile kernel bodies.
// ---------------------------------------------------------------------------

/// Forward-evaluates one fully connected layer on a tile:
/// `out[n * LANES + lane] = act(b[n] + Σ_i w[n * fan_in + i] * input[i * LANES + lane])`.
#[inline(always)]
fn layer_forward_tile_body(
    weights: &[f32],
    biases: &[f32],
    fan_in: usize,
    activation: Activation,
    input: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(input.len(), fan_in * LANES);
    debug_assert_eq!(out.len(), biases.len() * LANES);
    for ((row, &b), out_tile) in weights
        .chunks_exact(fan_in)
        .zip(biases)
        .zip(out.chunks_exact_mut(LANES))
    {
        let mut acc = [b; LANES];
        for (&w, x) in row.iter().zip(input.chunks_exact(LANES)) {
            for l in 0..LANES {
                acc[l] = w.mul_add(x[l], acc[l]);
            }
        }
        if activation == Activation::Sigmoid {
            sigmoid8(&mut acc);
        }
        out_tile.copy_from_slice(&acc);
    }
}

/// Forward-evaluates one fully connected layer for a **single sample**
/// with the tile kernel's exact per-lane operation sequence:
/// `out[n] = act(b[n] + Σ_i w[n * fan_in + i] * input[i])` through the
/// same fused `mul_add` chain and polynomial sigmoid a tile lane runs.
/// Tile lanes are independent, so this is bit-identical to occupying one
/// lane of [`layer_forward_tile`] — at one lane's cost instead of eight.
/// Low-occupancy callers (single invocations, small batch remainders)
/// use it to keep the SIMD backend's arithmetic without paying for
/// seven padding lanes.
#[inline(always)]
fn layer_forward_lane_body(
    weights: &[f32],
    biases: &[f32],
    fan_in: usize,
    activation: Activation,
    input: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(input.len(), fan_in);
    debug_assert_eq!(out.len(), biases.len());
    // Four output neurons advance together so four independent fused
    // chains are in flight (a single chain is FMA-latency-bound). Each
    // neuron still sees exactly its own `mul_add` sequence in row order,
    // so results stay bit-identical to the one-chain form — and to a
    // tile lane.
    let mut n = 0;
    while n + 4 <= biases.len() {
        let r0 = &weights[n * fan_in..(n + 1) * fan_in];
        let r1 = &weights[(n + 1) * fan_in..(n + 2) * fan_in];
        let r2 = &weights[(n + 2) * fan_in..(n + 3) * fan_in];
        let r3 = &weights[(n + 3) * fan_in..(n + 4) * fan_in];
        let (mut a0, mut a1, mut a2, mut a3) =
            (biases[n], biases[n + 1], biases[n + 2], biases[n + 3]);
        for (i, &x) in input.iter().enumerate() {
            a0 = r0[i].mul_add(x, a0);
            a1 = r1[i].mul_add(x, a1);
            a2 = r2[i].mul_add(x, a2);
            a3 = r3[i].mul_add(x, a3);
        }
        if activation == Activation::Sigmoid {
            out[n] = sigmoid1(a0);
            out[n + 1] = sigmoid1(a1);
            out[n + 2] = sigmoid1(a2);
            out[n + 3] = sigmoid1(a3);
        } else {
            out[n] = a0;
            out[n + 1] = a1;
            out[n + 2] = a2;
            out[n + 3] = a3;
        }
        n += 4;
    }
    for ((row, &b), out_val) in weights
        .chunks_exact(fan_in)
        .zip(biases)
        .zip(out.iter_mut())
        .skip(n)
    {
        let mut acc = b;
        for (&w, &x) in row.iter().zip(input) {
            acc = w.mul_add(x, acc);
        }
        *out_val = if activation == Activation::Sigmoid {
            sigmoid1(acc)
        } else {
            acc
        };
    }
}

/// Propagates error terms one layer down on a tile:
/// `prev_delta[i * LANES + lane] =
///  (Σ_n wt[i * fan_out + n] * delta[n * LANES + lane]) * act'(prev_act[i * LANES + lane])`,
/// where `wt` is the transposed (input-major) weight mirror.
#[inline(always)]
fn backprop_delta_tile_body(
    wt: &[f32],
    fan_out: usize,
    delta: &[f32],
    prev_act: &[f32],
    prev_activation: Activation,
    prev_delta: &mut [f32],
) {
    debug_assert_eq!(delta.len(), fan_out * LANES);
    debug_assert_eq!(prev_delta.len(), prev_act.len());
    for ((column, act), out_tile) in wt
        .chunks_exact(fan_out)
        .zip(prev_act.chunks_exact(LANES))
        .zip(prev_delta.chunks_exact_mut(LANES))
    {
        let mut acc = [0.0f32; LANES];
        for (&w, d) in column.iter().zip(delta.chunks_exact(LANES)) {
            for l in 0..LANES {
                acc[l] = w.mul_add(d[l], acc[l]);
            }
        }
        match prev_activation {
            Activation::Sigmoid => {
                for l in 0..LANES {
                    out_tile[l] = acc[l] * (act[l] * (1.0 - act[l]));
                }
            }
            Activation::Linear => out_tile.copy_from_slice(&acc),
        }
    }
}

/// Accumulates one tile's gradient contributions into lane-resolved
/// accumulators: `w_grad8[(n * fan_in + i) * LANES + lane] +=
/// delta[n * LANES + lane] * input[i * LANES + lane]` and
/// `b_grad8[n * LANES + lane] += delta[n * LANES + lane]`. Padding lanes
/// carry zero deltas, so they contribute exact zeros.
#[inline(always)]
fn grad_accum_tile_body(
    delta: &[f32],
    fan_in: usize,
    input: &[f32],
    w_grad8: &mut [f32],
    b_grad8: &mut [f32],
) {
    debug_assert_eq!(input.len(), fan_in * LANES);
    debug_assert_eq!(w_grad8.len(), delta.len() * fan_in);
    debug_assert_eq!(b_grad8.len(), delta.len());
    for ((d, brow), wrows) in delta
        .chunks_exact(LANES)
        .zip(b_grad8.chunks_exact_mut(LANES))
        .zip(w_grad8.chunks_exact_mut(fan_in * LANES))
    {
        for l in 0..LANES {
            brow[l] += d[l];
        }
        for (x, g) in input.chunks_exact(LANES).zip(wrows.chunks_exact_mut(LANES)) {
            for l in 0..LANES {
                g[l] = d[l].mul_add(x[l], g[l]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar-exact tile kernel: the reference backend's tile form. Every lane
// performs one sample's reference operation sequence with plain `*` and
// `+` (Rust never contracts them into a fused multiply-add), so
// vectorizing across lanes changes no bit. Training and batched inference
// share it.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Per-ISA instantiations and dispatchers. The AVX2+FMA instantiations
// execute the exact same fused operations as the generic bodies, so
// which one runs never changes results — only throughput.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn layer_forward_tile(
        weights: &[f32],
        biases: &[f32],
        fan_in: usize,
        activation: Activation,
        input: &[f32],
        out: &mut [f32],
    ) {
        layer_forward_tile_body(weights, biases, fan_in, activation, input, out);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn layer_forward_lane(
        weights: &[f32],
        biases: &[f32],
        fan_in: usize,
        activation: Activation,
        input: &[f32],
        out: &mut [f32],
    ) {
        layer_forward_lane_body(weights, biases, fan_in, activation, input, out);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn backprop_delta_tile(
        wt: &[f32],
        fan_out: usize,
        delta: &[f32],
        prev_act: &[f32],
        prev_activation: Activation,
        prev_delta: &mut [f32],
    ) {
        backprop_delta_tile_body(wt, fan_out, delta, prev_act, prev_activation, prev_delta);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn grad_accum_tile(
        delta: &[f32],
        fan_in: usize,
        input: &[f32],
        w_grad8: &mut [f32],
        b_grad8: &mut [f32],
    ) {
        grad_accum_tile_body(delta, fan_in, input, w_grad8, b_grad8);
    }
}

pub(crate) fn layer_forward_tile(
    weights: &[f32],
    biases: &[f32],
    fan_in: usize,
    activation: Activation,
    input: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: `simd_available` verified AVX2 and FMA at runtime.
        unsafe { avx2::layer_forward_tile(weights, biases, fan_in, activation, input, out) };
        return;
    }
    layer_forward_tile_body(weights, biases, fan_in, activation, input, out);
}

pub(crate) fn layer_forward_lane(
    weights: &[f32],
    biases: &[f32],
    fan_in: usize,
    activation: Activation,
    input: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: `simd_available` verified AVX2 and FMA at runtime.
        unsafe { avx2::layer_forward_lane(weights, biases, fan_in, activation, input, out) };
        return;
    }
    layer_forward_lane_body(weights, biases, fan_in, activation, input, out);
}

pub(crate) fn backprop_delta_tile(
    wt: &[f32],
    fan_out: usize,
    delta: &[f32],
    prev_act: &[f32],
    prev_activation: Activation,
    prev_delta: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: `simd_available` verified AVX2 and FMA at runtime.
        unsafe {
            avx2::backprop_delta_tile(wt, fan_out, delta, prev_act, prev_activation, prev_delta)
        };
        return;
    }
    backprop_delta_tile_body(wt, fan_out, delta, prev_act, prev_activation, prev_delta);
}

pub(crate) fn grad_accum_tile(
    delta: &[f32],
    fan_in: usize,
    input: &[f32],
    w_grad8: &mut [f32],
    b_grad8: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: `simd_available` verified AVX2 and FMA at runtime.
        unsafe { avx2::grad_accum_tile(delta, fan_in, input, w_grad8, b_grad8) };
        return;
    }
    grad_accum_tile_body(delta, fan_in, input, w_grad8, b_grad8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("scalar".parse(), Ok(KernelBackend::Scalar));
        assert_eq!("simd".parse(), Ok(KernelBackend::Simd));
        assert!("avx2".parse::<KernelBackend>().is_err());
        assert_eq!(KernelBackend::Simd.to_string(), "simd");
        assert_eq!(KernelBackend::default(), KernelBackend::Scalar);
    }

    #[test]
    fn env_override_wins_over_requested() {
        // Sole test that touches MITHRA_KERNEL in this binary, so the
        // set/remove pair cannot race another reader.
        std::env::set_var("MITHRA_KERNEL", "scalar");
        assert_eq!(
            KernelBackend::resolve(KernelBackend::Simd),
            KernelBackend::Scalar
        );
        std::env::set_var("MITHRA_KERNEL", "not-a-backend");
        assert_eq!(
            KernelBackend::resolve(KernelBackend::Scalar),
            KernelBackend::Scalar
        );
        std::env::remove_var("MITHRA_KERNEL");
        let resolved = KernelBackend::resolve(KernelBackend::Simd);
        if KernelBackend::simd_available() {
            assert_eq!(resolved, KernelBackend::Simd);
        } else {
            assert_eq!(resolved, KernelBackend::Scalar);
        }
    }

    #[test]
    fn exp8_tracks_reference_exp() {
        let mut worst = 0.0f32;
        for i in -870..=870 {
            let x = i as f32 / 10.0;
            let mut tile = [x; LANES];
            exp8(&mut tile);
            let reference = x.exp();
            for &got in &tile {
                let rel = if reference == 0.0 {
                    got.abs()
                } else {
                    ((got - reference) / reference).abs()
                };
                worst = worst.max(rel);
            }
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
    }

    #[test]
    fn sigmoid8_matches_scalar_sigmoid() {
        for i in -160..=160 {
            let x = i as f32 / 4.0;
            let mut tile = [x; LANES];
            sigmoid8(&mut tile);
            let reference = Activation::Sigmoid.apply(x);
            for &got in &tile {
                assert!(
                    (got - reference).abs() < 1e-6,
                    "sigmoid({x}) = {got}, reference {reference}"
                );
            }
        }
    }

    #[test]
    fn forward_tile_lanes_are_independent() {
        // One sample alone in a tile must equal the same sample packed
        // with seven arbitrary neighbours — the property the batched
        // forward's bit-identity rests on.
        let fan_in = 3;
        let weights: Vec<f32> = (0..2 * fan_in).map(|i| 0.3 - 0.1 * i as f32).collect();
        let biases = [0.2f32, -0.4];
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
        layer_forward_tile(
            &weights,
            &biases,
            fan_in,
            Activation::Sigmoid,
            &lone,
            &mut out_lone,
        );
        layer_forward_tile(
            &weights,
            &biases,
            fan_in,
            Activation::Sigmoid,
            &packed,
            &mut out_packed,
        );
        for n in 0..2 {
            assert_eq!(
                out_lone[n * LANES].to_bits(),
                out_packed[n * LANES].to_bits()
            );
        }
    }
}
