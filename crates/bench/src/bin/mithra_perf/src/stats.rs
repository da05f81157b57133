//! Order statistics for repeated measurements: median, quartiles, and the
//! highest percentile the sample size supports.

use mithra_stats::descriptive::percentile;

/// Percentiles offered in reports, highest first.
const PERCENTILE_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a reported percentile needs beyond it before it is shown.
const SAMPLES_BEYOND: f64 = 10.0;

/// Median, quartiles and the highest supported percentile of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(p, value)` for the highest percentile in the ladder with at least
    /// ten samples beyond it; `None` when `n` is too small for any.
    pub percentile: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples`, which must be non-empty and free of NaN.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let (q1, q3) = quartiles(&sorted);
        let n = sorted.len();
        let at = |p: f64| percentile(&sorted, p).expect("a non-empty sample and 0 <= p <= 100");
        // The epsilon absorbs `100.0 - 99.9` not being exactly 0.1.
        let supported = PERCENTILE_LADDER
            .iter()
            .find(|&&p| n as f64 * (100.0 - p) / 100.0 >= SAMPLES_BEYOND - 1e-9);
        Self {
            n,
            median: at(50.0),
            q1,
            q3,
            percentile: supported.map(|&p| (p, at(p))),
        }
    }

    /// Interquartile range as a share of the median — the run-to-run
    /// spread the bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// First and third quartiles by the default ("exclusive") method of
/// Python's `statistics.quantiles(data, n=4)`, so spreads computed here
/// agree with ones computed from the same values in Python. A single
/// sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        return (sorted[0], sorted[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 4.0, 8.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert!((s.spread() - 2.625).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = Summary::of(&[3.5]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (1, 3.5, 3.5, 3.5));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(s.percentile, None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).percentile, None, "39 × 0.25 < 10");
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, value) = Summary::of(&samples).percentile.unwrap();
        assert_eq!(p, 75.0);
        assert!((value - 30.25).abs() < 1e-12);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).percentile.unwrap().0, 99.0);
        let samples: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).percentile.unwrap().0, 99.9);
    }
}
