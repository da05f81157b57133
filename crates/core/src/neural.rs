//! The neural classifier (paper §IV-B).
//!
//! A three-layer MLP — input layer matching the accelerator's inputs, one
//! hidden layer of 2/4/8/16/32 neurons, and two output neurons (one per
//! decision) — executed on the NPU itself. The compiler trains all five
//! topologies and keeps "the one that provides the highest accuracy with
//! the fewest neurons". The classifier spends some of the acceleration
//! gains (an extra network evaluation per invocation) to buy better
//! filtering accuracy than the table design on high-dimensional inputs.
//!
//! The same network with one output neuron per class is the neural
//! router over a pool of approximators: the binary classifier is its
//! two-class case, so both train through one trainer and decide through
//! one argmax.

use crate::classifier::{Classifier, ClassifierOverhead, Decision};
use crate::parallel::par_map_indexed;
use crate::training::{split_examples, TrainingExample};
use crate::{MithraError, Result};
use mithra_npu::mlp::{Activation, ForwardScratch, Mlp};
use mithra_npu::topology::Topology;
use mithra_npu::train::{Normalizer, Trainer};

/// Hidden-layer widths the paper's topology search explores.
pub const HIDDEN_CANDIDATES: [usize; 5] = [2, 4, 8, 16, 32];

/// Training settings for the neural classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralTrainConfig {
    /// Hidden-layer widths to try.
    pub hidden_candidates: Vec<usize>,
    /// Training epochs per candidate.
    pub epochs: usize,
    /// Fraction of examples held out to score candidates.
    pub validation_fraction: f64,
    /// Accuracy slack within which a smaller network wins the tie.
    pub accuracy_tolerance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NeuralTrainConfig {
    fn default() -> Self {
        Self {
            hidden_candidates: HIDDEN_CANDIDATES.to_vec(),
            epochs: 60,
            validation_fraction: 0.2,
            accuracy_tolerance: 0.005,
            seed: 0x4E45_5552,
        }
    }
}

/// Reusable decision buffers: the normalized-input staging vector and the
/// network's per-layer activations. Carried per classifier instance so the
/// per-invocation decision path allocates nothing.
#[derive(Debug, Clone, Default)]
struct DecideScratch {
    normalized: Vec<f32>,
    fwd: ForwardScratch,
}

/// One labeled K-ary training tuple: an input vector and the class it
/// maps to (for routing: class `m` = pool member `m`, class `K` =
/// precise).
#[derive(Debug, Clone, PartialEq)]
pub struct KaryExample {
    /// The raw input vector.
    pub input: Vec<f32>,
    /// The target class, `0..classes`.
    pub class: usize,
}

/// The trained neural classifier: one sigmoid output neuron per class,
/// the largest output wins, ties toward the lowest class index.
///
/// The paper's design is the two-class network (output 0 approximate,
/// output 1 precise). The neural router is the K+1-class network over a
/// pool of K approximators (class `m` = member `m`, the last class =
/// precise), consulted once per invocation. Either way the last class is
/// the precise fallback, and the class count is the network's output
/// width.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NeuralClassifier {
    mlp: Mlp,
    input_norm: Normalizer,
    validation_accuracy: f64,
    #[serde(skip)]
    scratch: DecideScratch,
}

impl NeuralClassifier {
    /// Trains the classifier with the paper's topology search.
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] with fewer than 10
    /// examples, and propagates NPU training errors.
    pub fn train(
        input_dim: usize,
        examples: &[TrainingExample],
        config: &NeuralTrainConfig,
    ) -> Result<Self> {
        Self::train_with_threads(input_dim, examples, config, Some(1))
    }

    /// [`NeuralClassifier::train`] with the hidden-width candidates trained
    /// across up to `threads` workers (`None`/`Some(0)` = available
    /// parallelism).
    ///
    /// Each candidate trains independently with its own seeded RNG, and
    /// the winner is selected by folding candidate results in the original
    /// candidate order — so the trained classifier is bit-identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same as [`NeuralClassifier::train`].
    pub fn train_with_threads(
        input_dim: usize,
        examples: &[TrainingExample],
        config: &NeuralTrainConfig,
        threads: Option<usize>,
    ) -> Result<Self> {
        let labeled = examples
            .iter()
            .map(|e| (e.input.as_slice(), usize::from(e.reject)))
            .collect();
        // Rejects are the minority class (only a small fraction of
        // invocations cause large errors); oversample them so the MSE
        // objective does not learn to always answer "approximate" —
        // missed rejects are what breach the quality target.
        train_network(input_dim, labeled, 2, |_| 1, config, threads)
    }

    /// Trains a `classes`-class classifier — the neural router — with the
    /// same topology search, spread across up to `threads` workers and
    /// bit-identical at any thread count.
    ///
    /// The rarest class is oversampled the way the binary trainer
    /// oversamples rejects, ties toward the highest class index (the
    /// precise fallback, the costly one to miss).
    ///
    /// # Errors
    ///
    /// Returns [`MithraError::InsufficientData`] with fewer than 10
    /// examples, [`MithraError::InvalidConfig`] for fewer than two
    /// classes or an out-of-range label, and propagates NPU training
    /// errors.
    pub fn train_classes(
        input_dim: usize,
        examples: &[KaryExample],
        classes: usize,
        config: &NeuralTrainConfig,
        threads: Option<usize>,
    ) -> Result<Self> {
        let labeled = examples
            .iter()
            .map(|e| (e.input.as_slice(), e.class))
            .collect();
        let rarest = |counts: &[usize]| {
            (0..counts.len())
                .rev()
                .filter(|&c| counts[c] > 0)
                .min_by_key(|&c| counts[c])
                .unwrap_or(0)
        };
        train_network(input_dim, labeled, classes, rarest, config, threads)
    }

    /// Builds a classifier from a pre-trained network (loading a stored
    /// configuration).
    pub fn from_parts(mlp: Mlp, input_norm: Normalizer) -> Self {
        Self {
            mlp,
            input_norm,
            validation_accuracy: f64::NAN,
            scratch: DecideScratch::default(),
        }
    }

    /// The selected network topology.
    pub fn topology(&self) -> &Topology {
        self.mlp.topology()
    }

    /// Number of classes: the network's output width.
    pub fn classes(&self) -> usize {
        self.mlp.topology().outputs()
    }

    /// The trained network itself (for configuration encoding).
    pub fn network(&self) -> &Mlp {
        &self.mlp
    }

    /// The fitted input normalizer.
    pub fn input_normalizer(&self) -> &Normalizer {
        &self.input_norm
    }

    /// Held-out accuracy of the selected candidate (NaN when loaded from
    /// parts).
    pub fn validation_accuracy(&self) -> f64 {
        self.validation_accuracy
    }

    /// Storage footprint of the network parameters in kilobytes, at 16-bit
    /// fixed-point weights (how Table II sizes the neural design).
    pub fn size_kb(&self) -> f64 {
        self.mlp.topology().parameter_bytes(2) as f64 / 1024.0
    }

    /// The class decision for one input vector: the largest output wins,
    /// ties toward the lowest class index.
    pub fn decide_class(&mut self, input: &[f32]) -> usize {
        self.input_norm
            .forward_into(input, &mut self.scratch.normalized);
        let out = self
            .mlp
            .forward_into(&self.scratch.normalized, &mut self.scratch.fwd)
            .expect("input width fixed at training time");
        argmax(out)
    }

    /// The decision for one input vector: precise exactly when the last
    /// class wins. With two classes that is output neuron 1 beating
    /// neuron 0 (paper §IV-B).
    pub fn decide(&mut self, input: &[f32]) -> Decision {
        Decision::from_reject(self.decide_class(input) + 1 == self.classes())
    }
}

/// The one neural trainer: normalize the inputs, split train/validation
/// from `config.seed`, oversample the class `oversample` picks from the
/// training split's class counts, then run the hidden-width sweep.
/// `labeled` borrows each example's input beside its class.
fn train_network(
    input_dim: usize,
    labeled: Vec<(&[f32], usize)>,
    classes: usize,
    oversample: impl FnOnce(&[usize]) -> usize,
    config: &NeuralTrainConfig,
    threads: Option<usize>,
) -> Result<NeuralClassifier> {
    if labeled.len() < 10 {
        return Err(MithraError::InsufficientData {
            stage: "neural classifier training",
            available: labeled.len(),
            needed: 10,
        });
    }
    if classes < 2 {
        return Err(MithraError::InvalidConfig {
            parameter: "classes",
            constraint: "at least two classes",
        });
    }
    if labeled.iter().any(|&(_, class)| class >= classes) {
        return Err(MithraError::InvalidConfig {
            parameter: "examples",
            constraint: "every class label below `classes`",
        });
    }
    let input_norm = {
        let inputs: Vec<Vec<f32>> = labeled.iter().map(|(x, _)| x.to_vec()).collect();
        Normalizer::fit(&inputs, 0.0, 1.0)
    };

    let (train_set, val_set) = split_examples(labeled, config.validation_fraction, config.seed);
    let to_pairs = |set: &[(&[f32], usize)]| -> Vec<(Vec<f32>, Vec<f32>)> {
        set.iter()
            .map(|&(input, class)| {
                let mut target = vec![0.0; classes];
                target[class] = 1.0;
                (input_norm.forward(input), target)
            })
            .collect()
    };
    let mut train_pairs = to_pairs(&train_set);
    let mut counts = vec![0usize; classes];
    for &(_, class) in &train_set {
        counts[class] += 1;
    }
    let rare = oversample(&counts);
    if counts[rare] > 0 && counts[rare] * 4 < train_set.len() {
        let replicas = ((train_set.len() - counts[rare]) / counts[rare]).min(5);
        let rares: Vec<usize> = (0..train_set.len())
            .filter(|&k| train_set[k].1 == rare)
            .collect();
        train_pairs.reserve(rares.len() * replicas.saturating_sub(1));
        for _ in 1..replicas {
            for &k in &rares {
                let pair = train_pairs[k].clone();
                train_pairs.push(pair);
            }
        }
    }
    let val_pairs = to_pairs(if val_set.is_empty() {
        &train_set
    } else {
        &val_set
    });

    let (validation_accuracy, mlp) = sweep_hidden_widths(
        input_dim,
        classes,
        &train_pairs,
        &val_pairs,
        config,
        threads,
    )?;
    Ok(NeuralClassifier {
        mlp,
        input_norm,
        validation_accuracy,
        scratch: DecideScratch::default(),
    })
}

/// The index of the largest value, ties toward the lowest index.
/// Comparisons with NaN are false: a NaN never takes the lead, and a NaN
/// in the lead keeps it.
fn argmax(values: &[f32]) -> usize {
    let mut best = 0usize;
    for (c, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = c;
        }
    }
    best
}

/// Trains one `[input_dim, hidden, outputs]` sigmoid-output network per
/// hidden-width candidate and keeps the one with the highest held-out
/// accuracy, preferring fewer neurons within
/// `config.accuracy_tolerance` (paper §IV-B). Returns the winner's
/// accuracy and network.
///
/// Every candidate trains from its own seeded RNG on the same read-only
/// pair sets, so candidates run concurrently on up to `threads` workers.
/// They are submitted widest first, because the widest network trains
/// longest and would otherwise start last; selection is a sequential
/// fold in candidate order, so the winner is bit-identical at any
/// thread count.
fn sweep_hidden_widths(
    input_dim: usize,
    outputs: usize,
    train_pairs: &[(Vec<f32>, Vec<f32>)],
    val_pairs: &[(Vec<f32>, Vec<f32>)],
    config: &NeuralTrainConfig,
    threads: Option<usize>,
) -> Result<(f64, Mlp)> {
    let widths = &config.hidden_candidates;
    if widths.is_empty() {
        return Err(MithraError::InvalidConfig {
            parameter: "hidden_candidates",
            constraint: "at least one hidden width",
        });
    }
    let mut submission: Vec<usize> = (0..widths.len()).collect();
    submission.sort_by_key(|&c| std::cmp::Reverse(widths[c]));
    let trained = par_map_indexed(submission.len(), threads, |k| {
        let hidden = widths[submission[k]];
        let mlp = Trainer::new(Topology::new(&[input_dim, hidden, outputs])?)
            .epochs(config.epochs)
            .learning_rate(0.5)
            .batch_size(32)
            .output_activation(Activation::Sigmoid)
            .seed(config.seed ^ hidden as u64)
            .train(train_pairs)?;
        Ok((argmax_accuracy(&mlp, val_pairs), mlp))
    });
    let mut candidates: Vec<Option<Result<(f64, Mlp)>>> = (0..widths.len()).map(|_| None).collect();
    for (&c, result) in submission.iter().zip(trained) {
        candidates[c] = Some(result);
    }

    let mut best: Option<(usize, f64, Mlp)> = None;
    for (&hidden, candidate) in widths.iter().zip(candidates) {
        let (accuracy, mlp) = candidate.expect("every candidate was submitted")?;
        let better = match &best {
            None => true,
            Some((best_hidden, best_acc, _)) => {
                accuracy > best_acc + config.accuracy_tolerance
                    || (accuracy >= best_acc - config.accuracy_tolerance
                        && hidden < *best_hidden
                        && accuracy >= *best_acc)
            }
        };
        if better {
            best = Some((hidden, accuracy, mlp));
        }
    }
    let (_, accuracy, mlp) = best.expect("at least one candidate trained");
    Ok((accuracy, mlp))
}

/// Share of `pairs` whose largest network output (ties toward the lowest
/// index) lands on the target's hot class. With two outputs this is the
/// binary rule: reject exactly when `out[1] > out[0]`.
fn argmax_accuracy(mlp: &Mlp, pairs: &[(Vec<f32>, Vec<f32>)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let mut scratch = ForwardScratch::new();
    let correct = pairs
        .iter()
        .filter(|(x, target)| {
            let out = mlp.forward_into(x, &mut scratch).expect("widths match");
            argmax(out) == argmax(target)
        })
        .count();
    correct as f64 / pairs.len() as f64
}

impl Classifier for NeuralClassifier {
    fn name(&self) -> &'static str {
        "neural"
    }

    fn classify(&mut self, _index: usize, input: &[f32]) -> Decision {
        self.decide(input)
    }

    fn overhead(&self) -> ClassifierOverhead {
        // The classifier network runs on the NPU before the accelerator
        // network: a full extra invocation of its topology.
        ClassifierOverhead {
            decision_cycles: 0,
            misr_shifts: 0,
            table_bit_reads: 0,
            npu_topology: Some(self.mlp.topology().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly separable task: reject when x > 0.7.
    fn separable_examples(n: usize) -> Vec<TrainingExample> {
        (0..n)
            .map(|i| {
                let x = i as f32 / (n - 1) as f32;
                TrainingExample {
                    input: vec![x, 1.0 - x],
                    reject: x > 0.7,
                }
            })
            .collect()
    }

    fn quick_config() -> NeuralTrainConfig {
        NeuralTrainConfig {
            hidden_candidates: vec![2, 4],
            epochs: 150,
            ..NeuralTrainConfig::default()
        }
    }

    #[test]
    fn learns_separable_boundary() {
        let ex = separable_examples(200);
        let mut c = NeuralClassifier::train(2, &ex, &quick_config()).unwrap();
        assert_eq!(c.decide(&[0.95, 0.05]), Decision::Precise);
        assert_eq!(c.decide(&[0.1, 0.9]), Decision::Approximate);
        assert!(
            c.validation_accuracy() > 0.85,
            "{}",
            c.validation_accuracy()
        );
    }

    #[test]
    fn topology_search_prefers_small_networks_on_easy_tasks() {
        let ex = separable_examples(300);
        let cfg = NeuralTrainConfig {
            hidden_candidates: vec![2, 4, 8, 16, 32],
            epochs: 120,
            ..NeuralTrainConfig::default()
        };
        let c = NeuralClassifier::train(2, &ex, &cfg).unwrap();
        // A 2-neuron hidden layer suffices for a linear boundary; the
        // search must not pick 32.
        let hidden = c.topology().layers()[1];
        assert!(hidden <= 8, "picked {hidden} hidden neurons");
    }

    #[test]
    fn output_layer_always_two_neurons() {
        let ex = separable_examples(100);
        let c = NeuralClassifier::train(2, &ex, &quick_config()).unwrap();
        assert_eq!(c.topology().outputs(), 2);
    }

    #[test]
    fn size_kb_matches_parameter_count() {
        let ex = separable_examples(100);
        let c = NeuralClassifier::train(2, &ex, &quick_config()).unwrap();
        let expected = c.topology().parameter_bytes(2) as f64 / 1024.0;
        assert_eq!(c.size_kb(), expected);
    }

    #[test]
    fn rejects_tiny_training_sets() {
        let ex = separable_examples(5);
        assert!(matches!(
            NeuralClassifier::train(2, &ex, &quick_config()),
            Err(MithraError::InsufficientData { .. })
        ));
    }

    #[test]
    fn overhead_charges_npu_invocation() {
        let ex = separable_examples(100);
        let c = NeuralClassifier::train(2, &ex, &quick_config()).unwrap();
        let o = c.overhead();
        assert!(o.npu_topology.is_some());
        assert_eq!(o.table_bit_reads, 0);
    }

    #[test]
    fn training_is_deterministic() {
        let ex = separable_examples(150);
        let a = NeuralClassifier::train(2, &ex, &quick_config()).unwrap();
        let b = NeuralClassifier::train(2, &ex, &quick_config()).unwrap();
        assert_eq!(a.mlp.to_parameters(), b.mlp.to_parameters());
    }

    #[test]
    fn sweep_folds_in_candidate_order_despite_widest_first_submission() {
        // A short run leaves every width at a different held-out
        // accuracy; widths listed out of order so widest-first
        // submission permutes them, and a tolerance wide enough that the
        // fold order decides the winner.
        let ex: Vec<TrainingExample> = (0..400)
            .map(|i| {
                let (x, y) = ((i % 20) as f32 / 19.0, (i / 20) as f32 / 19.0);
                TrainingExample {
                    input: vec![x, y],
                    reject: x + 0.3 * y > 0.8,
                }
            })
            .collect();
        let cfg = NeuralTrainConfig {
            hidden_candidates: vec![4, 16, 2, 8],
            epochs: 10,
            accuracy_tolerance: 0.05,
            ..NeuralTrainConfig::default()
        };
        // Reference: every width trained alone, then the paper's rule
        // folded by hand over the widths in a given order.
        let singles: Vec<(usize, NeuralClassifier)> = cfg
            .hidden_candidates
            .iter()
            .map(|&hidden| {
                let one = NeuralTrainConfig {
                    hidden_candidates: vec![hidden],
                    ..cfg.clone()
                };
                (hidden, NeuralClassifier::train(2, &ex, &one).unwrap())
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut best: Option<&(usize, NeuralClassifier)> = None;
            for &k in order {
                let (hidden, c) = &singles[k];
                let acc = c.validation_accuracy();
                let better = best.is_none_or(|(best_hidden, b)| {
                    let best_acc = b.validation_accuracy();
                    acc > best_acc + cfg.accuracy_tolerance
                        || (acc >= best_acc - cfg.accuracy_tolerance
                            && hidden < best_hidden
                            && acc >= best_acc)
                });
                if better {
                    best = Some(&singles[k]);
                }
            }
            best.unwrap().1.mlp.to_parameters()
        };
        let want = fold(&[0, 1, 2, 3]);
        assert_ne!(want, fold(&[1, 3, 0, 2]), "fold order must matter here");
        for threads in [Some(1), Some(3)] {
            let got = NeuralClassifier::train_with_threads(2, &ex, &cfg, threads).unwrap();
            assert_eq!(got.mlp.to_parameters(), want);
        }
    }

    /// Three bands on one axis: class 0 below 0.33, class 1 below 0.66,
    /// class 2 (the "precise" fallback) above.
    fn banded_examples(n: usize) -> Vec<KaryExample> {
        (0..n)
            .map(|i| {
                let x = i as f32 / (n - 1) as f32;
                let class = if x < 0.33 {
                    0
                } else if x < 0.66 {
                    1
                } else {
                    2
                };
                KaryExample {
                    input: vec![x, 1.0 - x],
                    class,
                }
            })
            .collect()
    }

    #[test]
    fn kary_learns_banded_classes() {
        let ex = banded_examples(300);
        let mut c = NeuralClassifier::train_classes(2, &ex, 3, &quick_config(), Some(1)).unwrap();
        assert_eq!(c.classes(), 3);
        assert_eq!(c.topology().outputs(), 3);
        assert_eq!(c.decide_class(&[0.1, 0.9]), 0);
        assert_eq!(c.decide_class(&[0.5, 0.5]), 1);
        assert_eq!(c.decide_class(&[0.95, 0.05]), 2);
        assert!(c.validation_accuracy() > 0.8, "{}", c.validation_accuracy());
    }

    #[test]
    fn kary_is_bit_identical_across_thread_counts() {
        let ex = banded_examples(200);
        let cfg = NeuralTrainConfig {
            hidden_candidates: vec![2, 4, 8],
            epochs: 60,
            ..NeuralTrainConfig::default()
        };
        let a = NeuralClassifier::train_classes(2, &ex, 3, &cfg, Some(1)).unwrap();
        let b = NeuralClassifier::train_classes(2, &ex, 3, &cfg, Some(4)).unwrap();
        assert_eq!(a.mlp.to_parameters(), b.mlp.to_parameters());
    }

    #[test]
    fn kary_rejects_bad_configs() {
        let ex = banded_examples(100);
        assert!(matches!(
            NeuralClassifier::train_classes(2, &ex, 1, &quick_config(), Some(1)),
            Err(MithraError::InvalidConfig { .. })
        ));
        assert!(matches!(
            NeuralClassifier::train_classes(2, &ex, 2, &quick_config(), Some(1)),
            Err(MithraError::InvalidConfig { .. })
        ));
        assert!(matches!(
            NeuralClassifier::train_classes(2, &ex[..5], 3, &quick_config(), Some(1)),
            Err(MithraError::InsufficientData { .. })
        ));
    }

    /// A `[1, 1, classes]` network whose outputs are exactly `outputs`
    /// for every input: zero output weights, the outputs as biases, and a
    /// linear output layer.
    fn fixed_output(outputs: &[f32]) -> NeuralClassifier {
        let topology = Topology::new(&[1, 1, outputs.len()]).unwrap();
        let weights = vec![0.0; topology.weight_count()];
        let mut biases = vec![0.0];
        biases.extend_from_slice(outputs);
        let mlp = Mlp::from_parameters(topology, &weights, &biases, Activation::Linear).unwrap();
        NeuralClassifier::from_parts(mlp, Normalizer::identity(1))
    }

    #[test]
    fn decide_is_last_class_wins_for_two_and_three_classes() {
        let nan = f32::NAN;
        let cases: [(&[f32], usize); 11] = [
            (&[0.2, 0.7], 1),
            (&[0.7, 0.2], 0),
            (&[0.5, 0.5], 0),
            (&[nan, 0.3], 0),
            (&[0.3, nan], 0),
            (&[nan, nan], 0),
            (&[0.1, 0.2, 0.9], 2),
            (&[0.9, 0.1, 0.9], 0),
            (&[0.1, 0.9, 0.9], 1),
            (&[nan, nan, 0.5], 0),
            (&[0.2, nan, 0.5], 2),
        ];
        for (outputs, class) in cases {
            let mut c = fixed_output(outputs);
            assert_eq!(c.classes(), outputs.len());
            assert_eq!(c.decide_class(&[0.5]), class, "{outputs:?}");
            let last_wins = class + 1 == outputs.len();
            assert_eq!(c.decide(&[0.5]), Decision::from_reject(last_wins));
            if outputs.len() == 2 {
                // The paper's rule: neuron 1 beats neuron 0.
                let paper = outputs[1] > outputs[0];
                assert_eq!(c.decide(&[0.5]), Decision::from_reject(paper));
            }
        }
    }
}
