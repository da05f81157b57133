//! Classifier decision-path and training microbenchmarks.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mithra_core::classifier::Classifier;
use mithra_core::misr::InputQuantizer;
use mithra_core::neural::{NeuralClassifier, NeuralTrainConfig};
use mithra_core::table::{TableClassifier, TableDesign};
use mithra_core::training::TrainingExample;

fn synthetic_examples(dims: usize, n: usize) -> Vec<TrainingExample> {
    (0..n)
        .map(|i| {
            let x = i as f32 / n as f32;
            TrainingExample {
                input: (0..dims).map(|d| (x + d as f32 * 0.01) % 1.0).collect(),
                reject: x > 0.85,
            }
        })
        .collect()
}

fn quantizer(dims: usize) -> InputQuantizer {
    InputQuantizer::new(vec![0.0; dims], vec![1.0; dims])
}

fn bench_table_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_classify");
    for dims in [2usize, 9, 18, 64] {
        let examples = synthetic_examples(dims, 2000);
        let mut classifier =
            TableClassifier::train(TableDesign::paper_default(), quantizer(dims), &examples)
                .unwrap();
        let input: Vec<f32> = (0..dims).map(|d| d as f32 * 0.013).collect();
        group.bench_function(format!("{dims}_inputs"), |b| {
            b.iter(|| classifier.classify(0, black_box(&input)))
        });
    }
    group.finish();
}

fn bench_table_online_update(c: &mut Criterion) {
    let examples = synthetic_examples(9, 2000);
    let mut classifier =
        TableClassifier::train(TableDesign::paper_default(), quantizer(9), &examples).unwrap();
    let input = vec![0.4f32; 9];
    c.bench_function("table_observe", |b| {
        b.iter(|| classifier.observe(0, black_box(&input), true))
    });
}

fn bench_table_train(c: &mut Criterion) {
    let examples = synthetic_examples(9, 2000);
    let mut group = c.benchmark_group("table_train_2000_examples");
    group.sample_size(10);
    for design in [
        TableDesign {
            tables: 1,
            entries_per_table: 4096,
        },
        TableDesign::paper_default(),
    ] {
        group.bench_function(design.to_string(), |b| {
            b.iter(|| TableClassifier::train(design, quantizer(9), black_box(&examples)).unwrap())
        });
    }
    group.finish();

    // The compile's sample size (`CompileConfig::classifier_train_samples`)
    // at the paper design: the (levels, vote) grid one compile trains.
    let examples = synthetic_examples(9, 30_000);
    let mut group = c.benchmark_group("table_train");
    group.sample_size(10);
    let design = TableDesign::paper_default();
    group.bench_function(format!("30000_examples/{design}"), |b| {
        b.iter(|| TableClassifier::train(design, quantizer(9), black_box(&examples)).unwrap())
    });
    group.finish();
}

fn bench_neural_decide(c: &mut Criterion) {
    let examples = synthetic_examples(9, 1000);
    let cfg = NeuralTrainConfig {
        hidden_candidates: vec![8],
        epochs: 30,
        ..NeuralTrainConfig::default()
    };
    let mut classifier = NeuralClassifier::train(9, &examples, &cfg).unwrap();
    let input = vec![0.4f32; 9];
    c.bench_function("neural_classify_9_inputs", |b| {
        b.iter(|| classifier.classify(0, black_box(&input)))
    });
}

fn bench_tree_decide(c: &mut Criterion) {
    use mithra_core::tree::{TreeClassifier, TreeTrainConfig};
    let examples = synthetic_examples(9, 2000);
    let mut tree = TreeClassifier::train(&examples, &TreeTrainConfig::default()).unwrap();
    let input = vec![0.4f32; 9];
    c.bench_function("tree_classify_9_inputs", |b| {
        b.iter(|| tree.classify(0, black_box(&input)))
    });
}

criterion_group!(
    classifiers,
    bench_table_decide,
    bench_table_online_update,
    bench_table_train,
    bench_neural_decide,
    bench_tree_decide
);
criterion_main!(classifiers);
