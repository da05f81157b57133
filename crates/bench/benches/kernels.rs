//! Microbenchmarks of the hot computational kernels.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mithra_axbench::blackscholes::price_option;
use mithra_axbench::fft::{fft_with_twiddles, generate_signal, twiddle};
use mithra_axbench::jmeint::tri_tri_intersect;
use mithra_axbench::jpeg::{decode_block, encode_block};
use mithra_axbench::sobel::gradient_magnitude;
use mithra_bdi::{compress, decompress, CompressedTable};
use mithra_core::misr::{MisrConfig, MisrKernel};
use mithra_npu::mlp::{Activation, Mlp};
use mithra_npu::topology::Topology;
use mithra_stats::clopper_pearson::{lower_bound, Confidence};

fn bench_misr(c: &mut Criterion) {
    // The paper's ensemble: 8 tables of 4096 entries, one kernel lane each.
    let configs = &MisrConfig::pool()[..8];
    let mut group = c.benchmark_group("misr_hash");
    for dims in [2usize, 9, 18, 64] {
        let elements: Vec<u8> = (0..dims).map(|i| (i * 37) as u8).collect();
        let kernel = MisrKernel::new(configs, 12, 256, dims);
        let mut out = [0u32; 8];
        group.bench_function(format!("{dims}_elements_8_tables"), |b| {
            b.iter(|| kernel.hash_into(black_box(&elements), black_box(&mut out)))
        });
    }
    group.finish();
}

fn mlp_for(topology: &Topology) -> Mlp {
    let w = vec![0.1f32; topology.weight_count()];
    let biases = vec![0.01f32; topology.bias_count()];
    Mlp::from_parameters(topology.clone(), &w, &biases, Activation::Linear).unwrap()
}

fn bench_mlp_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("npu_forward");
    for shape in [
        "6->8->8->1",
        "1->4->4->2",
        "2->8->2",
        "18->32->8->2",
        "64->16->64",
        "9->8->1",
    ] {
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
    bench_mlp_forward,
    bench_bdi,
    bench_clopper_pearson,
    bench_precise_kernels,
    bench_fft_application
);
criterion_main!(kernels);
