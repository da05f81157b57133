//! Bit-identity pins on the dataset generators.
//!
//! Every experiment profiles, certifies and validates on generated
//! datasets, so a generator that changes a single input bit changes
//! every downstream result. This suite pins an FNV-1a 64 digest of each
//! benchmark's Full-scale dataset at two seeds: a refactor of a
//! generator (hoisting loop invariants, reordering allocation) must
//! reproduce every element exactly.

use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;

/// FNV-1a 64 over the input dimension, then every element's bits
/// little-endian, in invocation order.
fn digest(input_dim: usize, flat: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let bytes = (input_dim as u64)
        .to_le_bytes()
        .into_iter()
        .chain(flat.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(benchmark, seed, digest)`, one row per extended-roster member and
/// seed. fft's inputs are its fixed twiddle points, so both seeds share
/// one digest.
const PINNED: &[(&str, u64, u64)] = &[
    ("blackscholes", 0, 0x8202_64b4_5015_338b),
    ("blackscholes", 7919, 0xe750_cd69_3c01_130c),
    ("fft", 0, 0x1b86_e73b_4621_1202),
    ("fft", 7919, 0x1b86_e73b_4621_1202),
    ("inversek2j", 0, 0x330d_5d52_0aff_c6a3),
    ("inversek2j", 7919, 0x3f69_2301_237c_4cc3),
    ("jmeint", 0, 0xaa4f_7903_4124_2c0b),
    ("jmeint", 7919, 0x403f_e1bc_d3d8_2f8b),
    ("jpeg", 0, 0x7f63_3ac5_08b4_b04f),
    ("jpeg", 7919, 0x540d_a277_9630_adcc),
    ("sobel", 0, 0xbe8a_aafa_a3d6_14fb),
    ("sobel", 7919, 0xe9d2_0c7c_61ef_0249),
    ("kmeans", 0, 0x8745_7745_4ab8_c9b1),
    ("kmeans", 7919, 0x3524_3234_059c_5c3e),
    ("raytrace", 0, 0xba88_16e9_3ee9_b269),
    ("raytrace", 7919, 0x9068_6c6c_a99d_8bb7),
];

#[test]
fn full_scale_datasets_match_their_pinned_digests() {
    let mut rows = Vec::new();
    for bench in suite::extended() {
        for seed in [0u64, 7919] {
            let dataset = bench.dataset(seed, DatasetScale::Full);
            rows.push((
                bench.name(),
                seed,
                digest(dataset.input_dim(), dataset.as_flat()),
            ));
        }
    }
    assert_eq!(rows, PINNED);
}
