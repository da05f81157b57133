//! Design-space ablation benchmarks: how the table classifier's cost
//! scales with the choices DESIGN.md calls out (ensemble size, table
//! size, quantization granularity, conservative vs vote training).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mithra_core::classifier::Classifier;
use mithra_core::misr::InputQuantizer;
use mithra_core::table::{TableClassifier, TableDesign};
use mithra_core::training::TrainingExample;

fn examples(n: usize) -> Vec<TrainingExample> {
    (0..n)
        .map(|i| {
            let x = (i as f32 * 0.618) % 1.0;
            TrainingExample {
                input: vec![x, 1.0 - x, (x * 3.0) % 1.0],
                reject: x > 0.9,
            }
        })
        .collect()
}

fn quantizer() -> InputQuantizer {
    InputQuantizer::new(vec![0.0; 3], vec![1.0; 3])
}

fn bench_ensemble_size(c: &mut Criterion) {
    let ex = examples(2000);
    let mut group = c.benchmark_group("ablation_ensemble_size_classify");
    for tables in [1usize, 2, 4, 8] {
        let design = TableDesign {
            tables,
            entries_per_table: 4096,
        };
        let mut classifier =
            TableClassifier::train_with_policy(design, quantizer(), 0.0, &ex).unwrap();
        let input = [0.3f32, 0.7, 0.9];
        group.bench_function(format!("{tables}_tables"), |b| {
            b.iter(|| classifier.classify(0, black_box(&input)))
        });
    }
    group.finish();
}

fn bench_table_size_training(c: &mut Criterion) {
    let ex = examples(2000);
    let mut group = c.benchmark_group("ablation_table_size_train");
    group.sample_size(10);
    for entries in [1024usize, 4096, 16384] {
        let design = TableDesign {
            tables: 8,
            entries_per_table: entries,
        };
        group.bench_function(format!("{entries}_entries"), |b| {
            b.iter(|| {
                TableClassifier::train_with_policy(design, quantizer(), 0.0, black_box(&ex))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_quantization_granularity(c: &mut Criterion) {
    let ex = examples(2000);
    let mut group = c.benchmark_group("ablation_quant_levels_train");
    group.sample_size(10);
    for levels in [2u16, 16, 256] {
        group.bench_function(format!("{levels}_levels"), |b| {
            b.iter(|| {
                TableClassifier::train_with_policy(
                    TableDesign::paper_default(),
                    quantizer().with_levels(levels),
                    0.0,
                    black_box(&ex),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_policy_search_vs_fixed(c: &mut Criterion) {
    let ex = examples(2000);
    let mut group = c.benchmark_group("ablation_training_policy");
    group.sample_size(10);
    group.bench_function("conservative_fixed", |b| {
        b.iter(|| {
            TableClassifier::train_with_policy(
                TableDesign::paper_default(),
                quantizer(),
                0.0,
                black_box(&ex),
            )
            .unwrap()
        })
    });
    group.bench_function("full_policy_search", |b| {
        b.iter(|| {
            TableClassifier::train(TableDesign::paper_default(), quantizer(), black_box(&ex))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    ablations,
    bench_ensemble_size,
    bench_table_size_training,
    bench_quantization_granularity,
    bench_policy_search_vs_fixed
);
criterion_main!(ablations);
