//! Microbenchmarks of the hot computational kernels.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mithra_axbench::blackscholes::price_option;
use mithra_axbench::fft::{fft_with_twiddles, generate_signal, twiddle};
use mithra_axbench::jmeint::tri_tri_intersect;
use mithra_axbench::jpeg::{decode_block, encode_block};
use mithra_axbench::sobel::gradient_magnitude;
use mithra_bdi::{compress, decompress, CompressedTable};
use mithra_core::misr::{InputQuantizer, MisrConfig, MisrKernel};
use mithra_npu::mlp::{Activation, BatchScratch, Mlp};
use mithra_npu::topology::Topology;
use mithra_npu::train::{TrainScratch, Trainer};
use mithra_stats::clopper_pearson::{lower_bound, Confidence};

/// Classifier input widths of inversek2j, sobel, jmeint and jpeg.
const MISR_DIMS: [usize; 4] = [2, 9, 18, 64];

fn bench_misr(c: &mut Criterion) {
    // The paper's ensemble: 8 tables of 4096 entries, one kernel lane each.
    let configs = &MisrConfig::pool()[..8];
    let mut group = c.benchmark_group("misr_hash");
    // The vendored harness times one batch of `sample_size` calls; a
    // call takes nanoseconds, so the batch must be long.
    group.sample_size(1 << 20);
    for dims in MISR_DIMS {
        let elements: Vec<u8> = (0..dims).map(|i| (i * 37) as u8).collect();
        let kernel = MisrKernel::new(configs, 12, 256, dims);
        let mut out = [0u32; 8];
        group.bench_function(format!("{dims}_elements_8_tables"), |b| {
            b.iter(|| kernel.hash_into(black_box(&elements), black_box(&mut out)))
        });
    }
    group.finish();
}

/// The other half of a table decide: quantizing the raw input before
/// [`bench_misr`]'s hash.
fn bench_quantize(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantize");
    group.sample_size(1 << 20);
    for dims in MISR_DIMS {
        let quantizer = InputQuantizer::new(vec![-1.0; dims], vec![1.0; dims]);
        let input: Vec<f32> = (0..dims).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut out = Vec::with_capacity(dims);
        group.bench_function(format!("{dims}_elements"), |b| {
            b.iter(|| quantizer.quantize_into(black_box(&input), black_box(&mut out)))
        });
    }
    group.finish();
}

fn mlp_for(topology: &Topology) -> Mlp {
    let w = vec![0.1f32; topology.weight_count()];
    let biases = vec![0.01f32; topology.bias_count()];
    Mlp::from_parameters(topology.clone(), &w, &biases, Activation::Linear).unwrap()
}

/// The NPU topologies of the paper's Table I.
const TABLE1_TOPOLOGIES: [&str; 6] = [
    "6->8->8->1",
    "1->4->4->2",
    "2->8->2",
    "18->32->8->2",
    "64->16->64",
    "9->8->1",
];

fn bench_mlp_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("npu_forward");
    for shape in TABLE1_TOPOLOGIES {
        let topology: Topology = shape.parse().unwrap();
        let mlp = mlp_for(&topology);
        let input = vec![0.5f32; topology.inputs()];
        let mut out = Vec::new();
        group.bench_function(shape, |b| {
            b.iter(|| mlp.run_into(black_box(&input), &mut out).unwrap())
        });
    }
    group.finish();
}

/// The batched forward that profiling and serve's sub-batches run: 64
/// samples through the tile kernel.
fn bench_mlp_forward_batch(c: &mut Criterion) {
    const SAMPLES: usize = 64;
    let mut group = c.benchmark_group("npu_forward_batch");
    group.sample_size(1 << 14);
    for shape in TABLE1_TOPOLOGIES {
        let topology: Topology = shape.parse().unwrap();
        let mlp = mlp_for(&topology);
        let inputs: Vec<f32> = (0..SAMPLES * topology.inputs())
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let mut outputs = Vec::new();
        let mut scratch = BatchScratch::for_topology(&topology);
        group.bench_function(shape, |b| {
            b.iter(|| {
                mlp.forward_batch_into(black_box(&inputs), SAMPLES, &mut outputs, &mut scratch)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// One SGD epoch over 4096 samples, at the widest neural
/// classifier candidate (jmeint's `[18, 32, 2]`, sigmoid output,
/// learning rate 0.5) and at fft's NPU (`[1, 4, 4, 2]`, linear output,
/// learning rate 0.3), both in batches of 32 as the compile pipeline
/// trains them. Each iteration also initializes the network and copies
/// the samples into the trainer's matrices, a small fixed share.
fn bench_train_epoch(c: &mut Criterion) {
    const SAMPLES: usize = 4096;
    let mut group = c.benchmark_group("train_epoch");
    group.sample_size(20);
    let cases = [
        ("18->32->2", Activation::Sigmoid, 0.5),
        ("1->4->4->2", Activation::Linear, 0.3),
    ];
    for (shape, output_activation, learning_rate) in cases {
        let topology: Topology = shape.parse().unwrap();
        let samples: Vec<(Vec<f32>, Vec<f32>)> = (0..SAMPLES)
            .map(|s| {
                let input = (0..topology.inputs())
                    .map(|i| ((s * 31 + i * 7) as f32 * 0.37).sin().abs())
                    .collect();
                let target = (0..topology.outputs())
                    .map(|o| ((s + o) % 2) as f32)
                    .collect();
                (input, target)
            })
            .collect();
        let mut trainer = Trainer::new(topology.clone());
        trainer
            .epochs(1)
            .batch_size(32)
            .learning_rate(learning_rate)
            .output_activation(output_activation);
        let mut scratch = TrainScratch::for_topology(&topology);
        group.bench_function(shape, |b| {
            b.iter(|| {
                trainer
                    .train_with_scratch(black_box(&samples), &mut scratch)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_bdi(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdi");
    let zero_line = [0u8; 64];
    group.bench_function("compress_zero_line", |b| {
        b.iter(|| compress(black_box(&zero_line)))
    });
    let mut ramp = [0u8; 64];
    for (i, v) in ramp.iter_mut().enumerate() {
        *v = i as u8;
    }
    group.bench_function("compress_ramp_line", |b| {
        b.iter(|| compress(black_box(&ramp)))
    });
    let enc = compress(&ramp);
    group.bench_function("decompress_ramp_line", |b| {
        b.iter(|| decompress(black_box(&enc)))
    });
    let sparse_table = {
        let mut t = vec![0u8; 4096];
        t[10] = 1;
        t[3000] = 1;
        t
    };
    group.bench_function("compress_4kb_table", |b| {
        b.iter(|| CompressedTable::new(black_box(&sparse_table)))
    });
    group.finish();
}

fn bench_clopper_pearson(c: &mut Criterion) {
    let conf = Confidence::new(0.95).unwrap();
    c.bench_function("clopper_pearson_lower_bound_235_250", |b| {
        b.iter(|| lower_bound(black_box(235), black_box(250), conf).unwrap())
    });
}

fn bench_precise_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("precise_kernels");
    group.bench_function("blackscholes_option", |b| {
        b.iter(|| price_option(black_box(100.0), black_box(105.0), 0.05, 0.3, 1.0, 0.0))
    });
    let window = [10.0f32, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0];
    group.bench_function("sobel_window", |b| {
        b.iter(|| gradient_magnitude(black_box(&window)))
    });
    let t1 = [[0.0f32, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]];
    let t2 = [[0.2f32, 0.2, -0.5], [0.2, 0.2, 0.5], [0.8, 0.8, 0.0]];
    group.bench_function("jmeint_tri_tri", |b| {
        b.iter(|| tri_tri_intersect(black_box(t1), black_box(t2)))
    });
    group.bench_function("fft_twiddle", |b| b.iter(|| twiddle(black_box(0.37))));
    let mut block = [0.0f32; 64];
    for (i, v) in block.iter_mut().enumerate() {
        *v = ((i * 13) % 256) as f32;
    }
    group.bench_function("jpeg_encode_block", |b| {
        b.iter(|| encode_block(black_box(&block)))
    });
    let coeffs = encode_block(&block);
    group.bench_function("jpeg_decode_block", |b| {
        b.iter(|| decode_block(black_box(&coeffs)))
    });
    group.finish();
}

fn bench_fft_application(c: &mut Criterion) {
    let signal = generate_signal(7, 2048);
    let twiddles: Vec<(f32, f32)> = (0..1024).map(|k| twiddle(k as f32 / 2048.0)).collect();
    c.bench_function("fft_2048_application", |b| {
        b.iter(|| fft_with_twiddles(black_box(&signal), black_box(&twiddles)))
    });
}

criterion_group!(
    kernels,
    bench_misr,
    bench_quantize,
    bench_mlp_forward,
    bench_mlp_forward_batch,
    bench_train_epoch,
    bench_bdi,
    bench_clopper_pearson,
    bench_precise_kernels,
    bench_fft_application
);
criterion_main!(kernels);
