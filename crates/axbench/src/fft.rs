//! `fft` — radix-2 Cooley–Tukey fast Fourier transform.
//!
//! The target function computes the twiddle factor `(cos 2πt, sin 2πt)`
//! for a normalized angle `t ∈ [0, 1)`; the application layer runs the
//! radix-2 butterfly network over a seeded real signal using those
//! (possibly approximated) twiddles. Errors in individual twiddles
//! propagate through `log2 N` butterfly stages — exactly the global error
//! manifestation MITHRA's local threshold has to account for. Paper
//! Table I: topology `1→4→4→2`, avg. relative error, 7.22% under full
//! approximation.

use crate::benchmark::{Benchmark, WorkloadProfile};
use crate::dataset::{Dataset, DatasetScale, OutputBuffer};
use crate::quality::QualityMetric;
use mithra_npu::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `fft` workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fft;

/// Signal length at full scale (the paper uses 2048-point inputs).
pub const FULL_SIGNAL_LEN: usize = 2048;
/// Signal length at smoke scale.
pub const SMOKE_SIGNAL_LEN: usize = 64;

fn signal_len(scale: DatasetScale) -> usize {
    match scale {
        DatasetScale::Smoke => SMOKE_SIGNAL_LEN,
        DatasetScale::Full => FULL_SIGNAL_LEN,
    }
}

/// The precise twiddle computation: `t ↦ (cos 2πt, sin 2πt)`.
pub fn twiddle(t: f32) -> (f32, f32) {
    let angle = 2.0 * std::f32::consts::PI * t;
    (angle.cos(), angle.sin())
}

/// Generates the seeded input signal the application transforms.
pub fn generate_signal(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xFF7_0051));
    // A handful of random tones plus noise: realistic spectra with both
    // strong and near-zero bins.
    let tone_count = rng.gen_range(2..6);
    let tones: Vec<(f32, f32, f32)> = (0..tone_count)
        .map(|_| {
            (
                rng.gen_range(1.0..(len as f32 / 4.0)),
                rng.gen_range(0.5..3.0),
                rng.gen_range(0.0..std::f32::consts::TAU),
            )
        })
        .collect();
    (0..len)
        .map(|n| {
            let mut v = 0.0f32;
            for &(freq, amp, phase) in &tones {
                v += amp * (std::f32::consts::TAU * freq * n as f32 / len as f32 + phase).sin();
            }
            v + rng.gen_range(-0.1..0.1)
        })
        .collect()
}

/// Iterative radix-2 FFT over a real signal, using a caller-supplied
/// twiddle table `w[k] = (re, im)` for `k < len/2`.
///
/// Returns interleaved `(re, im)` pairs of the spectrum.
///
/// # Panics
///
/// Panics if `signal.len()` is not a power of two or the twiddle table is
/// shorter than `len/2`.
pub fn fft_with_twiddles(signal: &[f32], twiddles: &[(f32, f32)]) -> Vec<f64> {
    let n = signal.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    assert!(twiddles.len() >= n / 2, "twiddle table too short");

    // Bit-reversal permutation.
    let mut re: Vec<f64> = vec![0.0; n];
    let mut im: Vec<f64> = vec![0.0; n];
    let bits = n.trailing_zeros();
    for (i, &s) in signal.iter().enumerate() {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        re[j] = f64::from(s);
    }

    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                // Twiddle index: W_N^{k * step}; negated imaginary for the
                // forward transform.
                let (wr, wi) = twiddles[k * step];
                let (wr, wi) = (f64::from(wr), f64::from(-wi));
                let (a, b) = (start + k, start + k + half);
                let tr = wr * re[b] - wi * im[b];
                let ti = wr * im[b] + wi * re[b];
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len *= 2;
    }

    let mut out = Vec::with_capacity(2 * n);
    for i in 0..n {
        out.push(re[i]);
        out.push(im[i]);
    }
    out
}

impl Benchmark for Fft {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn domain(&self) -> &'static str {
        "Signal Processing"
    }

    fn description(&self) -> &'static str {
        "Radix-2 Cooley-Tukey fast Fourier transform"
    }

    fn input_dim(&self) -> usize {
        1
    }

    fn output_dim(&self) -> usize {
        2
    }

    fn npu_topology(&self) -> Topology {
        Topology::new(&[1, 4, 4, 2]).expect("static topology is valid")
    }

    fn quality_metric(&self) -> QualityMetric {
        QualityMetric::AvgRelativeError
    }

    fn precise(&self, input: &[f32], output: &mut Vec<f32>) {
        let (c, s) = twiddle(input[0]);
        output.clear();
        output.push(c);
        output.push(s);
    }

    fn dataset(&self, seed: u64, scale: DatasetScale) -> Dataset {
        // One invocation per distinct twiddle factor: t = k / N for
        // k in 0..N/2.
        let n = signal_len(scale);
        let flat: Vec<f32> = (0..n / 2).map(|k| k as f32 / n as f32).collect();
        Dataset::from_flat(seed, 1, flat)
    }

    fn run_application(&self, dataset: &Dataset, outputs: &OutputBuffer) -> Vec<f64> {
        let n = dataset.invocation_count() * 2;
        let signal = generate_signal(dataset.seed(), n);
        let twiddles: Vec<(f32, f32)> = outputs.iter().map(|o| (o[0], o[1])).collect();
        let spectrum = fft_with_twiddles(&signal, &twiddles);
        // The application output is the magnitude spectrum (AxBench's fft
        // scores the transform result; magnitudes avoid the degenerate
        // relative error of near-zero real/imaginary components).
        spectrum
            .chunks_exact(2)
            .map(|c| (c[0] * c[0] + c[1] * c[1]).sqrt())
            .collect()
    }

    fn paper_full_approx_error(&self) -> f64 {
        0.0722
    }

    fn profile(&self) -> WorkloadProfile {
        // sin + cos per twiddle; most of the runtime is the butterfly
        // network outside the target function.
        WorkloadProfile {
            kernel_cycles: 80,
            non_kernel_fraction: 0.5,
        }
    }

    fn npu_training_epochs(&self) -> usize {
        800
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::run_precise;

    fn precise_twiddles(n: usize) -> Vec<(f32, f32)> {
        (0..n / 2).map(|k| twiddle(k as f32 / n as f32)).collect()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut signal = vec![0.0f32; 16];
        signal[0] = 1.0;
        let spec = fft_with_twiddles(&signal, &precise_twiddles(16));
        for i in 0..16 {
            assert!((spec[2 * i] - 1.0).abs() < 1e-9, "re[{i}]");
            assert!(spec[2 * i + 1].abs() < 1e-9, "im[{i}]");
        }
    }

    #[test]
    fn fft_of_single_tone_peaks_at_frequency() {
        let n = 64;
        let signal: Vec<f32> = (0..n)
            .map(|i| (std::f32::consts::TAU * 5.0 * i as f32 / n as f32).cos())
            .collect();
        let spec = fft_with_twiddles(&signal, &precise_twiddles(n));
        let mags: Vec<f64> = (0..n)
            .map(|i| (spec[2 * i].powi(2) + spec[2 * i + 1].powi(2)).sqrt())
            .collect();
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak == 5 || peak == n - 5, "peak at {peak}");
        // f32 twiddles bound the achievable precision.
        assert!((mags[5] - n as f64 / 2.0).abs() < 1e-3);
    }

    #[test]
    fn fft_linearity() {
        let n = 32;
        let tw = precise_twiddles(n);
        let a = generate_signal(1, n);
        let b = generate_signal(2, n);
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fa = fft_with_twiddles(&a, &tw);
        let fb = fft_with_twiddles(&b, &tw);
        let fsum = fft_with_twiddles(&sum, &tw);
        for i in 0..2 * n {
            assert!((fa[i] + fb[i] - fsum[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 64;
        let signal = generate_signal(7, n);
        let spec = fft_with_twiddles(&signal, &precise_twiddles(n));
        let time_energy: f64 = signal.iter().map(|&v| f64::from(v).powi(2)).sum();
        let freq_energy: f64 = spec
            .chunks_exact(2)
            .map(|c| c[0] * c[0] + c[1] * c[1])
            .sum::<f64>()
            / n as f64;
        // f32 twiddles bound the achievable precision.
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-5);
    }

    #[test]
    fn application_run_matches_direct_fft_magnitudes() {
        let b = Fft;
        let ds = b.dataset(5, DatasetScale::Smoke);
        let out = run_precise(&b, &ds);
        let via_app = b.run_application(&ds, &out);
        let signal = generate_signal(5, SMOKE_SIGNAL_LEN);
        let direct = fft_with_twiddles(
            &signal,
            &precise_twiddles(std::hint::black_box(SMOKE_SIGNAL_LEN)),
        );
        assert_eq!(via_app.len(), direct.len() / 2);
        for (i, a) in via_app.iter().enumerate() {
            let mag = (direct[2 * i].powi(2) + direct[2 * i + 1].powi(2)).sqrt();
            assert!((a - mag).abs() < 1e-9, "bin {i}");
        }
    }

    #[test]
    fn twiddle_identities() {
        let (c, s) = twiddle(0.0);
        assert!((c - 1.0).abs() < 1e-6 && s.abs() < 1e-6);
        let (c, s) = twiddle(0.25);
        assert!(c.abs() < 1e-6 && (s - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = fft_with_twiddles(&[1.0; 12], &precise_twiddles(16));
    }
}
