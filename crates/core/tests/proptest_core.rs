//! Property-based tests on MITHRA's core data structures and invariants.

use mithra_axbench::dataset::{Dataset, OutputBuffer};
use mithra_core::classifier::{Classifier, Decision};
use mithra_core::misr::{InputQuantizer, Misr, MisrConfig, MisrKernel, QuantizedGrid};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{accepted_count, oracle_route_margined, stage_rejects, PoolSpec};
use mithra_core::table::{TableClassifier, TableDesign};
use mithra_core::training::TrainingExample;
use mithra_npu::topology::Topology;
use proptest::prelude::*;

proptest! {
    #[test]
    fn misr_index_always_in_table_range(
        elements in prop::collection::vec(any::<u8>(), 1..80),
        cfg_idx in 0usize..16,
        width in 8u32..16,
    ) {
        let cfg = MisrConfig::pool()[cfg_idx];
        let idx = Misr::hash(cfg, width, &elements);
        prop_assert!(idx < (1usize << width));
    }

    #[test]
    fn misr_is_a_function(
        elements in prop::collection::vec(any::<u8>(), 1..40),
        cfg_idx in 0usize..16,
    ) {
        let cfg = MisrConfig::pool()[cfg_idx];
        prop_assert_eq!(
            Misr::hash(cfg, 12, &elements),
            Misr::hash(cfg, 12, &elements)
        );
    }

    #[test]
    fn quantizer_is_monotone_per_dimension(
        a in -1000.0f32..1000.0,
        b in -1000.0f32..1000.0,
        levels in 2u16..=256,
    ) {
        let q = InputQuantizer::new(vec![-1000.0], vec![1000.0]).with_levels(levels);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(&[lo])[0] <= q.quantize(&[hi])[0]);
    }

    #[test]
    fn quantizer_output_below_levels(
        v in -1e6f32..1e6,
        levels in 2u16..=256,
    ) {
        let q = InputQuantizer::new(vec![0.0], vec![100.0]).with_levels(levels);
        prop_assert!(u16::from(q.quantize(&[v])[0]) < levels);
    }

    #[test]
    fn conservative_table_always_rejects_trained_rejects(
        reject_values in prop::collection::vec(0.0f32..1.0, 1..30),
        accept_values in prop::collection::vec(0.0f32..1.0, 1..30),
    ) {
        let examples: Vec<TrainingExample> = reject_values
            .iter()
            .map(|&v| TrainingExample { input: vec![v], reject: true })
            .chain(accept_values.iter().map(|&v| TrainingExample {
                input: vec![v],
                reject: false,
            }))
            .collect();
        let quantizer = InputQuantizer::new(vec![0.0], vec![1.0]);
        // The paper's conservative rule (vote threshold 0): every trained
        // reject must be rejected afterwards, aliasing notwithstanding.
        let mut c = TableClassifier::train_with_policy(
            TableDesign::paper_default(),
            quantizer,
            0.0,
            &examples,
        )
        .unwrap();
        for &v in &reject_values {
            prop_assert_eq!(c.decide(&[v]), Decision::Precise);
        }
    }

    #[test]
    fn observe_never_unrejects(
        initial in prop::collection::vec(0.0f32..1.0, 1..10),
        probes in prop::collection::vec(0.0f32..1.0, 1..20),
    ) {
        let examples: Vec<TrainingExample> = initial
            .iter()
            .map(|&v| TrainingExample { input: vec![v], reject: true })
            .collect();
        let quantizer = InputQuantizer::new(vec![0.0], vec![1.0]);
        let mut c = TableClassifier::train_with_policy(
            TableDesign::paper_default(),
            quantizer,
            0.0,
            &examples,
        )
        .unwrap();
        let before: Vec<Decision> = probes.iter().map(|&p| c.decide(&[p])).collect();
        // Observing more rejects can only move Approximate -> Precise.
        for &p in &probes {
            c.observe(0, &[p], true);
        }
        for (i, &p) in probes.iter().enumerate() {
            let after = c.decide(&[p]);
            if before[i] == Decision::Precise {
                prop_assert_eq!(after, Decision::Precise);
            }
        }
    }

    #[test]
    fn compressed_table_round_trips_for_any_training_set(
        values in prop::collection::vec((0.0f32..1.0, any::<bool>()), 1..50),
    ) {
        let examples: Vec<TrainingExample> = values
            .iter()
            .map(|&(v, reject)| TrainingExample { input: vec![v], reject })
            .collect();
        let quantizer = InputQuantizer::new(vec![0.0], vec![1.0]);
        let c = TableClassifier::train_with_policy(
            TableDesign::paper_default(),
            quantizer,
            0.0,
            &examples,
        )
        .unwrap();
        let compressed = c.compress();
        let bytes = compressed.decompress();
        prop_assert_eq!(bytes.len(), 4096);
        prop_assert!(compressed.stats().compressed_bytes <= 4096 + 64);
    }

    #[test]
    fn larger_ensembles_reject_supersets(
        values in prop::collection::vec((0.0f32..1.0, any::<bool>()), 4..40),
        probes in prop::collection::vec(0.0f32..1.0, 1..15),
    ) {
        // With identical training policy, the 8-table OR rejects at least
        // whatever the ensemble of its first table rejects... verified
        // indirectly: a 1-table design using the SAME first config is a
        // subset. Here we check the weaker, always-true property that the
        // 8-table ensemble rejects everything the paper's conservative
        // rule demands (trained rejects).
        let examples: Vec<TrainingExample> = values
            .iter()
            .map(|&(v, reject)| TrainingExample { input: vec![v], reject })
            .collect();
        let quantizer = InputQuantizer::new(vec![0.0], vec![1.0]);
        let mut big = TableClassifier::train_with_policy(
            TableDesign { tables: 8, entries_per_table: 4096 },
            quantizer.clone(),
            0.0,
            &examples,
        )
        .unwrap();
        for (v, reject) in &values {
            if *reject {
                prop_assert_eq!(big.decide(&[*v]), Decision::Precise);
            }
        }
        let _ = probes;
    }
}

/// The pool plus `corrupt_misr`-style reconfigurations of it at `width`:
/// taps reaching past the register and rotations at or beyond its width.
fn kernel_configs(width: u32) -> Vec<MisrConfig> {
    let pool = MisrConfig::pool();
    let corrupted = pool.iter().enumerate().map(|(i, c)| MisrConfig {
        taps: c.taps ^ (0xFFFF_F000 | (i as u32 * 0x155)),
        rotate: c.rotate.wrapping_add(width + i as u32),
        input_rotate: c.input_rotate.wrapping_add(2 * width + 3 * i as u32),
    });
    pool.iter().copied().chain(corrupted).collect()
}

/// Deterministic filler bytes for the sweep below.
fn filler(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((seed * 131 + i * 29 + (i * i) * 7) % 256) as u8)
        .collect()
}

fn assert_kernel_matches(kernel: &MisrKernel, configs: &[MisrConfig], width: u32, input: &[u8]) {
    let mut out = vec![0u32; configs.len()];
    kernel.hash_into(input, &mut out);
    for (lane, (cfg, &h)) in configs.iter().zip(&out).enumerate() {
        assert_eq!(
            h as usize,
            Misr::hash(*cfg, width, input),
            "lane {lane} width {width} input {input:?}"
        );
    }
}

/// Pins the tabulated kernel to the shift register it tabulates: every
/// width, every byte value at every position distance, every length.
#[test]
fn misr_kernel_matches_the_shift_register() {
    for width in 1..=24 {
        let configs = kernel_configs(width);
        let kernel = MisrKernel::new(&configs, width, 256, 64);
        for len in 0..=64 {
            assert_kernel_matches(&kernel, &configs, width, &filler(len, len));
        }
        for v in 0..=255u8 {
            // Value `v` at distance `v % 64` from the end of a
            // `v % 64 + 1 + (v / 64)`-element input.
            let distance = usize::from(v) % 64;
            let len = (distance + 1 + usize::from(v) / 64).min(64);
            let mut input = filler(usize::from(v) + width as usize, len);
            input[len - 1 - distance] = v;
            assert_kernel_matches(&kernel, &configs, width, &input);
        }
    }
}

/// A trained ensemble over `dims`-element inputs with many set bits, so a
/// wrong hash flips decisions.
fn dense_classifier(seed: u64, dims: usize, levels: u16) -> TableClassifier {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let examples: Vec<TrainingExample> = (0..400)
        .map(|_| TrainingExample {
            input: (0..dims).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            reject: rng.gen_bool(0.3),
        })
        .collect();
    let quantizer = InputQuantizer::new(vec![-1.0; dims], vec![1.0; dims]).with_levels(levels);
    let design = TableDesign {
        tables: 8,
        entries_per_table: 1024,
    };
    TableClassifier::train_with_policy(design, quantizer, 0.0, &examples).unwrap()
}

/// Probe inputs spanning the fitted range, past it, and non-finite.
fn probes(seed: u64, dims: usize, count: usize) -> Vec<Vec<f32>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let special = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -7.5,
        3.0,
        1.0,
        -1.0,
    ];
    (0..count)
        .map(|_| {
            (0..dims)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        special[rng.gen_range(0..special.len())]
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect()
        })
        .collect()
}

/// Table `t`'s entries per the compressed image: entry `i` is bit `i % 8`
/// of byte `i / 8` of the table's row.
fn entry(bytes: &[u8], c: &TableClassifier, t: usize, i: usize) -> bool {
    let row = c.design().entries_per_table / 8;
    (bytes[t * row + i / 8] >> (i % 8)) & 1 == 1
}

/// Every table's index by the shift-register fold.
fn fold_indices(c: &TableClassifier, input: &[f32]) -> Vec<usize> {
    let q = c.quantizer().quantize(input);
    let width = c.design().index_width();
    c.configs()
        .iter()
        .map(|cfg| Misr::hash(*cfg, width, &q))
        .collect()
}

/// The ensemble OR by the shift-register fold.
fn fold_decide(c: &TableClassifier, input: &[f32]) -> Decision {
    let bytes = c.compress().decompress();
    let reject = fold_indices(c, input)
        .iter()
        .enumerate()
        .any(|(t, &i)| entry(&bytes, c, t, i));
    Decision::from_reject(reject)
}

proptest! {
    /// Every lane count the kernel folds — pool prefixes of 1..=16
    /// configurations, so the specialized 8- and 16-lane folds and the
    /// generic fold for every other count — hashes like the shift
    /// register, for inputs of up to 64 elements tabulated to exactly
    /// their length.
    #[test]
    fn misr_kernel_matches_for_every_lane_count(
        elements in prop::collection::vec(any::<u8>(), 0..=64),
        width in 1u32..=24,
    ) {
        let pool = MisrConfig::pool();
        for lanes in 1..=pool.len() {
            let configs = &pool[..lanes];
            let kernel = MisrKernel::new(configs, width, 256, elements.len());
            assert_kernel_matches(&kernel, configs, width, &elements);
        }
    }

    #[test]
    fn misr_kernel_matches_for_any_input(
        elements in prop::collection::vec(any::<u8>(), 0..=64),
        width in 1u32..=24,
    ) {
        let configs = kernel_configs(width);
        let kernel = MisrKernel::new(&configs, width, 256, 64);
        assert_kernel_matches(&kernel, &configs, width, &elements);
    }

    #[test]
    fn decide_matches_the_shift_register_fold(
        seed in any::<u64>(),
        dims in 1usize..=12,
        levels in 2u16..=256,
        taps_mask in any::<u32>(),
        rotate_delta in 0u32..64,
    ) {
        let mut c = dense_classifier(seed, dims, levels);
        let inputs = probes(seed ^ 1, dims, 200);
        for input in &inputs {
            prop_assert_eq!(c.decide(input), fold_decide(&c, input));
        }
        // A reconfigured MISR hashes under its new configuration.
        c.corrupt_misr(seed as usize, taps_mask, rotate_delta);
        for input in &inputs {
            prop_assert_eq!(c.decide(input), fold_decide(&c, input));
        }
        // A clone taken after the reconfiguration decides the same way.
        let mut clone = c.clone();
        for input in &inputs {
            prop_assert_eq!(clone.decide(input), fold_decide(&c, input));
        }
    }

    #[test]
    fn observe_sets_the_shift_register_fold_entries(
        seed in any::<u64>(),
        dims in 1usize..=12,
        levels in 2u16..=256,
    ) {
        let accepts: Vec<TrainingExample> = (0..4)
            .map(|i| TrainingExample { input: vec![i as f32; dims], reject: false })
            .collect();
        let quantizer =
            InputQuantizer::new(vec![-1.0; dims], vec![1.0; dims]).with_levels(levels);
        let mut c = TableClassifier::train_with_policy(
            TableDesign::paper_default(),
            quantizer,
            0.0,
            &accepts,
        )
        .unwrap();
        for input in probes(seed, dims, 20) {
            let before = c.compress().decompress();
            c.observe(0, &input, true);
            let after = c.compress().decompress();
            let expected = fold_indices(&c, &input);
            for (t, &hashed) in expected.iter().enumerate() {
                for i in 0..c.design().entries_per_table {
                    let set = entry(&before, &c, t, i) || i == hashed;
                    prop_assert_eq!(entry(&after, &c, t, i), set, "table {} entry {}", t, i);
                }
            }
        }
    }

    #[test]
    fn hash_all_matches_the_shift_register_fold(
        seed in any::<u64>(),
        dims in 1usize..=12,
        levels in 2u16..=256,
        width in 8u32..=24,
    ) {
        let quantizer =
            InputQuantizer::new(vec![-1.0; dims], vec![1.0; dims]).with_levels(levels);
        let inputs = probes(seed, dims, 50);
        let grid = QuantizedGrid::from_inputs(&quantizer, inputs.iter().map(Vec::as_slice));
        let pool = MisrConfig::pool();
        let kernel = MisrKernel::new(&pool, width, usize::from(levels), dims);
        let rows = grid.hash_all(&kernel);
        for (cfg, per_cfg) in pool.iter().zip(&rows) {
            prop_assert_eq!(per_cfg.len(), inputs.len());
            for (input, &h) in inputs.iter().zip(per_cfg) {
                prop_assert_eq!(h as usize, Misr::hash(*cfg, width, &quantizer.quantize(input)));
            }
        }
    }
}

/// A profiled error drawn to hit the edges the labeling keys must
/// survive: signed zeros, NaN, both infinities, subnormals and repeated
/// values (ties), else `x`.
fn edge_error(pick: usize, x: f32) -> f32 {
    const EDGES: [f32; 10] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        f32::MIN_POSITIVE,
        0.25,
        0.5,
        1.0,
    ];
    EDGES.get(pick).copied().unwrap_or(x)
}

/// A candidate threshold: an edge value (never NaN — a bisection's
/// thresholds are 0, the largest error and midpoints), one of `errors`
/// exactly, the float just above it, or `x`.
fn edge_threshold(pick: usize, x: f32, errors: &[f32]) -> f32 {
    let tie = errors[(x * 1e4) as usize % errors.len()];
    match pick {
        0..=9 if !edge_error(pick, x).is_nan() => edge_error(pick, x),
        10 | 11 if !tie.is_nan() => tie,
        12 if tie.is_finite() => tie.next_up(),
        _ => x,
    }
}

/// A one-dataset profile whose invocation errors are `errors`.
fn error_profile(errors: &[f32]) -> DatasetProfile {
    let n = errors.len();
    DatasetProfile::from_parts(
        Dataset::from_flat(0, 1, vec![0.0; n]),
        OutputBuffer::from_flat(1, vec![0.0; n]),
        OutputBuffer::from_flat(1, vec![0.0; n]),
        errors.to_vec(),
        Vec::new(),
    )
}

proptest! {
    /// The nesting argument the probe memo relies on: over fixed errors,
    /// equal per-member accept counts, and equal per-member reject
    /// counts, each hold exactly when two thresholds give the same
    /// margined oracle routes and the same cascade-stage labels.
    #[test]
    fn labeling_keys_match_exactly_when_labels_do(
        members in 1usize..=3,
        cells in prop::collection::vec((0usize..16, 0.0f32..2.0), 3..90),
        margin_picks in prop::collection::vec((0usize..4, 0.05f32..2.0), 3),
        threshold_picks in prop::collection::vec((0usize..16, 0.0f32..2.0), 2..8),
    ) {
        let n = cells.len() / members;
        let errors: Vec<Vec<f32>> = cells
            .chunks_exact(n)
            .take(members)
            .map(|c| c.iter().map(|&(pick, x)| edge_error(pick, x)).collect())
            .collect();
        let margins: Vec<f64> = margin_picks
            .iter()
            .map(|&(pick, x)| [1.0, 0.75, 0.9].get(pick).copied().unwrap_or(f64::from(x)))
            .collect();
        let spec = PoolSpec::single(Topology::new(&[1, 2, 1]).unwrap()).with_margins(margins);
        let profiles: Vec<DatasetProfile> = errors.iter().map(|e| error_profile(e)).collect();
        let views: Vec<&DatasetProfile> = profiles.iter().collect();
        let flat: Vec<f32> = errors.concat();
        let thresholds: Vec<f32> = threshold_picks
            .iter()
            .map(|&(pick, x)| edge_threshold(pick, x, &flat))
            .collect();

        let stage_threshold = |t: f32, m: usize| t * spec.margin_for(m) as f32;
        let accepts = |t: f32| -> Vec<usize> {
            (0..members)
                .map(|m| accepted_count(errors[m].iter().copied(), stage_threshold(t, m)))
                .collect()
        };
        let rejects = |t: f32| -> Vec<Vec<bool>> {
            (0..members)
                .map(|m| stage_rejects(errors[m].iter().copied(), stage_threshold(t, m)))
                .collect()
        };
        let reject_counts = |t: f32| -> Vec<usize> {
            rejects(t).iter().map(|r| r.iter().filter(|&&b| b).count()).collect()
        };
        let routes = |t: f32| -> Vec<_> {
            (0..n).map(|i| oracle_route_margined(&views, i, t, &spec)).collect()
        };
        for &a in &thresholds {
            for &b in &thresholds {
                let same_labels = routes(a) == routes(b) && rejects(a) == rejects(b);
                prop_assert_eq!(accepts(a) == accepts(b), same_labels, "thresholds {} {}", a, b);
                prop_assert_eq!(
                    reject_counts(a) == reject_counts(b),
                    same_labels,
                    "thresholds {} {}",
                    a,
                    b
                );
            }
        }
    }
}
