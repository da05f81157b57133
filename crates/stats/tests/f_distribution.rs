//! The paper's Equation (3) form of the Clopper–Pearson bound, checked
//! against the Beta-quantile form the library computes.
//!
//! Equation (3) states the bound in terms of F-critical values. The
//! Beta-quantile form used in `mithra_stats::clopper_pearson` is
//! mathematically identical; the F distribution below, built on the
//! library's Beta distribution, evaluates the Equation (3) form directly so
//! the equivalence is executable. Its quantile edge cases are pinned here
//! too: the bound leans on them at `k = 0`, `k = n` and large `n`.

use mithra_stats::beta::Beta;
use mithra_stats::clopper_pearson::{lower_bound, Confidence};
use mithra_stats::{Result, StatsError};

/// An F(d1, d2) distribution with positive degrees of freedom.
///
/// If `X ~ F(d1, d2)` then `Y = (d1 X) / (d1 X + d2) ~ Beta(d1/2, d2/2)`,
/// which is the identity used for both the CDF and the quantile.
#[derive(Debug, Clone, Copy)]
struct FDistribution {
    d1: f64,
    d2: f64,
}

impl FDistribution {
    /// Creates an F distribution with degrees of freedom `d1, d2 > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] if either degree of freedom
    /// is not positive and finite.
    fn new(d1: f64, d2: f64) -> Result<Self> {
        if !d1.is_finite() || d1 <= 0.0 {
            return Err(StatsError::InvalidArgument {
                parameter: "d1",
                constraint: "finite and > 0",
                value: d1,
            });
        }
        if !d2.is_finite() || d2 <= 0.0 {
            return Err(StatsError::InvalidArgument {
                parameter: "d2",
                constraint: "finite and > 0",
                value: d2,
            });
        }
        Ok(Self { d1, d2 })
    }

    /// Cumulative distribution function at `x >= 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] if `x` is negative or not
    /// finite.
    fn cdf(&self, x: f64) -> Result<f64> {
        if !x.is_finite() || x < 0.0 {
            return Err(StatsError::InvalidArgument {
                parameter: "x",
                constraint: "finite and >= 0",
                value: x,
            });
        }
        let y = (self.d1 * x) / (self.d1 * x + self.d2);
        Beta::new(self.d1 / 2.0, self.d2 / 2.0)?.cdf(y)
    }

    /// Quantile function (the F-critical value) at probability `p ∈ [0, 1]`.
    ///
    /// The endpoints are exact: `p = 0` yields 0 and `p = 1` yields
    /// `f64::INFINITY` — the F distribution has unbounded support, so the
    /// upper endpoint of its support is the only faithful answer (never a
    /// NaN, never an error for an in-range `p`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] for `p` outside `[0, 1]`.
    fn quantile(&self, p: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(StatsError::InvalidArgument {
                parameter: "p",
                constraint: "0 <= p <= 1",
                value: p,
            });
        }
        if p == 0.0 {
            return Ok(0.0);
        }
        if p == 1.0 {
            return Ok(f64::INFINITY);
        }
        let y = Beta::new(self.d1 / 2.0, self.d2 / 2.0)?.quantile(p)?;
        // Invert y = d1 x / (d1 x + d2).
        Ok(self.d2 * y / (self.d1 * (1.0 - y)))
    }
}

#[test]
fn cdf_quantile_round_trip() {
    for &(d1, d2) in &[(1.0, 1.0), (5.0, 2.0), (10.0, 20.0), (22.0, 180.0)] {
        let f = FDistribution::new(d1, d2).unwrap();
        for i in 1..10 {
            let p = f64::from(i) / 10.0;
            let x = f.quantile(p).unwrap();
            assert!(
                (f.cdf(x).unwrap() - p).abs() < 1e-8,
                "round trip failed for F({d1},{d2}) at p={p}"
            );
        }
    }
}

#[test]
fn known_critical_value() {
    // F(0.95; 5, 10) ≈ 3.3258 (standard tables).
    let f = FDistribution::new(5.0, 10.0).unwrap();
    let q = f.quantile(0.95).unwrap();
    assert!((q - 3.3258).abs() < 5e-3, "got {q}");
}

#[test]
fn median_of_f_1_1() {
    // F(1,1) median is 1.0.
    let f = FDistribution::new(1.0, 1.0).unwrap();
    assert!((f.quantile(0.5).unwrap() - 1.0).abs() < 1e-8);
}

#[test]
fn rejects_bad_arguments() {
    assert!(FDistribution::new(0.0, 1.0).is_err());
    assert!(FDistribution::new(1.0, -1.0).is_err());
    let f = FDistribution::new(2.0, 2.0).unwrap();
    assert!(f.cdf(-1.0).is_err());
    assert!(f.quantile(1.5).is_err());
    assert!(f.quantile(-0.1).is_err());
}

#[test]
fn critical_value_inverts_the_cdf() {
    let f = FDistribution::new(4.0, 10.0).unwrap();
    let q = f.quantile(0.95).unwrap();
    assert!((f.cdf(q).unwrap() - 0.95).abs() < 1e-9);
}

#[test]
fn matches_f_distribution_form() {
    // Equation (3) of the paper expresses the bound through F-critical
    // values: lower = k / (k + (n-k+1) * F_{1-alpha}(2(n-k+1), 2k)).
    let (k, n) = (90u64, 100u64);
    let beta = Confidence::new(0.95).unwrap();
    let kf = k as f64;
    let nf = n as f64;
    let f = FDistribution::new(2.0 * (nf - kf + 1.0), 2.0 * kf)
        .unwrap()
        .quantile(beta.level())
        .unwrap();
    let via_f = kf / (kf + (nf - kf + 1.0) * f);
    let via_beta = lower_bound(k, n, beta).unwrap();
    assert!((via_f - via_beta).abs() < 1e-8, "{via_f} vs {via_beta}");
}

#[test]
fn f_quantile_exact_endpoints() {
    for &(d1, d2) in &[(1.0, 1.0), (2.0, 10.0), (500.0, 3_000.0)] {
        let f = FDistribution::new(d1, d2).unwrap();
        assert_eq!(f.quantile(0.0).unwrap(), 0.0, "F({d1},{d2}) at p=0");
        // The F support is unbounded: the exact p = 1 endpoint is +inf,
        // not an error and never NaN.
        assert_eq!(
            f.quantile(1.0).unwrap(),
            f64::INFINITY,
            "F({d1},{d2}) at p=1"
        );
    }
}

#[test]
fn f_quantile_never_nan_near_one() {
    let f = FDistribution::new(8.0, 12.0).unwrap();
    for &p in &[0.999, 1.0 - 1e-9, 1.0 - 1e-12] {
        let x = f.quantile(p).unwrap();
        assert!(x.is_finite() && x > 0.0, "F quantile at p={p} = {x}");
    }
    assert!(f.quantile(1.0 + 1e-9).is_err());
    assert!(f.quantile(f64::NAN).is_err());
}
