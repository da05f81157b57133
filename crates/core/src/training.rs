//! Training-data generation for the hardware classifiers (paper §III-B).
//!
//! Once the threshold is fixed, profiled invocations are labeled: an input
//! whose accelerator error exceeds the threshold on *any* output element
//! maps to "run the precise function" (`reject = true`), otherwise to
//! "invoke the accelerator". The paper samples invocations randomly; a
//! single image already yields hundreds of thousands of candidate tuples,
//! so sampling caps the training-set size without losing coverage.

use crate::profile::DatasetProfile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One labeled training tuple: an accelerator input vector and the binary
/// decision (paper: `1` = error above threshold = run precise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingExample {
    /// The raw accelerator input vector.
    pub input: Vec<f32>,
    /// `true` when this input must be filtered out (precise execution).
    pub reject: bool,
}

/// Labels profiled invocations against `threshold` and randomly samples at
/// most `max_samples` tuples (deterministically, from `seed`).
///
/// Sampling is stratified implicitly by shuffling the full index space, so
/// the reject fraction of the sample matches the population's.
pub fn generate_training_data(
    profiles: &[DatasetProfile],
    threshold: f32,
    max_samples: usize,
    seed: u64,
) -> Vec<TrainingExample> {
    sample_invocations(profiles, max_samples, seed)
        .into_iter()
        .map(|(d, i)| {
            let p = &profiles[d];
            TrainingExample {
                input: p.dataset().input(i).to_vec(),
                reject: p.max_error(i) > threshold,
            }
        })
        .collect()
}

/// The `(dataset, invocation)` pairs [`generate_training_data`] labels:
/// the full index space shuffled from `seed` and cut to `max_samples`.
/// The returned vector holds only the sample, not the index space it was
/// cut from.
pub(crate) fn sample_invocations(
    profiles: &[DatasetProfile],
    max_samples: usize,
    seed: u64,
) -> Vec<(usize, usize)> {
    let mut indices: Vec<(usize, usize)> = profiles
        .iter()
        .enumerate()
        .flat_map(|(d, p)| (0..p.invocation_count()).map(move |i| (d, i)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    indices.truncate(max_samples);
    indices.shrink_to_fit();
    indices
}

/// Splits examples into train/validation partitions (deterministic).
///
/// `validation_fraction` of the examples (at least one if possible) go to
/// the second returned vector. The shuffle depends only on the count and
/// `seed`, never on the element type. Used by the neural classifier's
/// topology search.
pub fn split_examples<T>(
    mut examples: Vec<T>,
    validation_fraction: f64,
    seed: u64,
) -> (Vec<T>, Vec<T>) {
    let mut rng = StdRng::seed_from_u64(seed);
    examples.shuffle(&mut rng);
    let val_len = ((examples.len() as f64 * validation_fraction) as usize)
        .min(examples.len().saturating_sub(1));
    let val = examples.split_off(examples.len() - val_len);
    (examples, val)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_example(v: f32, reject: bool) -> TrainingExample {
        TrainingExample {
            input: vec![v],
            reject,
        }
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let examples: Vec<TrainingExample> = (0..100)
            .map(|i| fake_example(i as f32, i % 3 == 0))
            .collect();
        let (a1, v1) = split_examples(examples.clone(), 0.2, 9);
        let (a2, v2) = split_examples(examples.clone(), 0.2, 9);
        assert_eq!(a1, a2);
        assert_eq!(v1, v2);
        assert_eq!(a1.len() + v1.len(), 100);
        assert_eq!(v1.len(), 20);
    }

    #[test]
    fn split_never_leaves_train_empty() {
        let examples = vec![fake_example(1.0, false), fake_example(2.0, true)];
        let (train, _val) = split_examples(examples, 0.99, 1);
        assert!(!train.is_empty());
    }

    #[test]
    fn generic_split_matches_the_index_shuffle() {
        // The neural trainer once shuffled examples by index, each index
        // carried as an `f32` input; splitting the labeled items directly
        // must give the same train/validation partition.
        let labels: Vec<(u32, usize)> = (0..257).map(|i| (i, (i as usize * 7) % 3)).collect();
        let index_examples: Vec<TrainingExample> = (0..labels.len())
            .map(|i| fake_example(i as f32, false))
            .collect();
        for (fraction, seed) in [(0.2, 0x4E45_5552), (0.35, 9), (0.99, 1)] {
            let (train_idx, val_idx) = split_examples(index_examples.clone(), fraction, seed);
            let by_index = |set: &[TrainingExample]| -> Vec<(u32, usize)> {
                set.iter().map(|e| labels[e.input[0] as usize]).collect()
            };
            let (train, val) = split_examples(labels.clone(), fraction, seed);
            assert_eq!(train, by_index(&train_idx), "fraction {fraction}");
            assert_eq!(val, by_index(&val_idx), "fraction {fraction}");
        }
    }
}
