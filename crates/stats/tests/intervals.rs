//! Coverage of the Clopper–Pearson bound against the approximate binomial
//! intervals — why the paper chose the exact method.
//!
//! The Clopper–Pearson interval is *conservative*: its coverage is at
//! least the nominal confidence for every true proportion. The cheaper
//! approximations (normal/Wald, Wilson score) can under-cover, which for
//! MITHRA would mean promising a success rate the hardware does not
//! deliver. The approximations below exist only to make that comparison
//! executable: the Wald interval's lower bound is frequently *above* the
//! exact one — an overpromise — while Clopper–Pearson never is.

use mithra_stats::binomial::Binomial;
use mithra_stats::clopper_pearson::{lower_bound, Confidence};
use mithra_stats::{Result, StatsError};

/// Approximate inverse standard-normal CDF (Acklam's rational
/// approximation; max absolute error ~1.15e-9).
fn normal_quantile(p: f64) -> Result<f64> {
    if !(0.0..1.0).contains(&p) || p == 0.0 {
        return Err(StatsError::InvalidArgument {
            parameter: "p",
            constraint: "0 < p < 1",
            value: p,
        });
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    Ok(x)
}

fn validate(successes: u64, trials: u64) -> Result<()> {
    if trials == 0 {
        return Err(StatsError::InvalidArgument {
            parameter: "trials",
            constraint: "> 0",
            value: 0.0,
        });
    }
    if successes > trials {
        return Err(StatsError::SuccessesExceedTrials { successes, trials });
    }
    Ok(())
}

/// One-sided lower bound by the normal (Wald) approximation,
/// `p̂ − z·sqrt(p̂(1−p̂)/n)`, clamped to `[0, 1]`.
///
/// # Errors
///
/// Same domain errors as the exact method.
fn wald_lower_bound(successes: u64, trials: u64, confidence: f64) -> Result<f64> {
    validate(successes, trials)?;
    let z = normal_quantile(confidence)?;
    let n = trials as f64;
    let p_hat = successes as f64 / n;
    Ok((p_hat - z * (p_hat * (1.0 - p_hat) / n).sqrt()).clamp(0.0, 1.0))
}

/// One-sided lower bound by the Wilson score interval.
///
/// # Errors
///
/// Same domain errors as the exact method.
fn wilson_lower_bound(successes: u64, trials: u64, confidence: f64) -> Result<f64> {
    validate(successes, trials)?;
    let z = normal_quantile(confidence)?;
    let n = trials as f64;
    let p_hat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = p_hat + z2 / (2.0 * n);
    let margin = z * ((p_hat * (1.0 - p_hat) + z2 / (4.0 * n)) / n).sqrt();
    Ok(((center - margin) / denom).clamp(0.0, 1.0))
}

#[test]
fn normal_quantile_known_values() {
    assert!((normal_quantile(0.5).unwrap()).abs() < 1e-8);
    assert!((normal_quantile(0.975).unwrap() - 1.959964).abs() < 1e-5);
    assert!((normal_quantile(0.95).unwrap() - 1.644854).abs() < 1e-5);
    assert!((normal_quantile(0.05).unwrap() + 1.644854).abs() < 1e-5);
    assert!(normal_quantile(0.0).is_err());
    assert!(normal_quantile(1.0).is_err());
}

#[test]
fn exact_bound_is_most_conservative_at_high_success_rates() {
    // In MITHRA's operating regime — high observed success rates,
    // where the normal approximation's symmetric margin is least
    // valid — the exact lower bound sits below both approximations:
    // it never overpromises the certified rate. (Pointwise dominance
    // does not hold for mid-range proportions; the rigorous statement
    // is the coverage test below.)
    let conf = Confidence::new(0.95).unwrap();
    for &(k, n) in &[(90u64, 100u64), (235, 250), (9, 10), (245, 250)] {
        let exact = lower_bound(k, n, conf).unwrap();
        let wald = wald_lower_bound(k, n, 0.95).unwrap();
        let wilson = wilson_lower_bound(k, n, 0.95).unwrap();
        assert!(
            exact <= wald + 1e-9,
            "exact {exact} > wald {wald} at {k}/{n}"
        );
        assert!(
            exact <= wilson + 1e-9,
            "exact {exact} > wilson {wilson} at {k}/{n}"
        );
    }
}

#[test]
fn wald_undercovers_where_exact_does_not() {
    // Coverage experiment at n = 50, true p = 0.9, confidence 95%:
    // P[true p >= bound(K)] over K ~ Binomial(n, p) must be >= 0.95
    // for a sound method. Compute exactly via the binomial PMF.
    let (n, p, conf) = (50u64, 0.9f64, 0.95f64);
    let dist = Binomial::new(n, p).unwrap();
    let coverage = |bound: &dyn Fn(u64) -> f64| -> f64 {
        (0..=n)
            .filter(|&k| bound(k) <= p)
            .map(|k| dist.pmf(k).unwrap())
            .sum()
    };
    let exact_cov = coverage(&|k| lower_bound(k, n, Confidence::new(conf).unwrap()).unwrap());
    let wald_cov = coverage(&|k| wald_lower_bound(k, n, conf).unwrap());
    assert!(exact_cov >= conf - 1e-9, "exact coverage {exact_cov}");
    assert!(
        wald_cov < exact_cov,
        "wald {wald_cov} not below exact {exact_cov}"
    );
}

#[test]
fn wilson_between_wald_and_exact_typically() {
    let (k, n) = (235u64, 250u64);
    let exact = lower_bound(k, n, Confidence::new(0.95).unwrap()).unwrap();
    let wilson = wilson_lower_bound(k, n, 0.95).unwrap();
    let wald = wald_lower_bound(k, n, 0.95).unwrap();
    assert!(exact < wilson && wilson < wald, "{exact} {wilson} {wald}");
}

#[test]
fn degenerate_counts() {
    assert_eq!(wald_lower_bound(0, 10, 0.95).unwrap(), 0.0);
    assert!(wilson_lower_bound(10, 10, 0.95).unwrap() < 1.0);
    assert!(wald_lower_bound(3, 0, 0.95).is_err());
    assert!(wilson_lower_bound(11, 10, 0.95).is_err());
}
