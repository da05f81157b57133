//! Regression tests for Beta quantile edge cases. (The F quantile's, for
//! the paper's Equation (3) form, are pinned in `f_distribution.rs`.)
//!
//! The Clopper–Pearson code leans on these quantiles at its extremes —
//! `k = 0`, `k = n`, and validation sets large enough that a shape
//! parameter reaches into the hundreds of thousands. The contract pinned
//! here: `p = 0` and `p = 1` return the exact support endpoints, the
//! degenerate-count bounds are exact, and no valid input ever produces a
//! NaN or a failed bisection.

use mithra_stats::beta::Beta;
use mithra_stats::clopper_pearson::{interval, lower_bound, upper_bound, Confidence};

const SHAPES: &[f64] = &[1e-3, 0.5, 1.0, 2.0, 37.0, 1_500.0, 250_000.0, 1e6];
const PROBS: &[f64] = &[1e-15, 1e-9, 1e-4, 0.05, 0.5, 0.95, 1.0 - 1e-9, 1.0 - 1e-15];

#[test]
fn beta_quantile_exact_endpoints() {
    for &a in SHAPES {
        for &b in SHAPES {
            let d = Beta::new(a, b).unwrap();
            assert_eq!(d.quantile(0.0).unwrap(), 0.0, "Beta({a},{b}) at p=0");
            assert_eq!(d.quantile(1.0).unwrap(), 1.0, "Beta({a},{b}) at p=1");
        }
    }
}

#[test]
fn beta_quantile_never_nan_or_nonconvergent() {
    for &a in SHAPES {
        for &b in SHAPES {
            let d = Beta::new(a, b).unwrap();
            for &p in PROBS {
                let x = d
                    .quantile(p)
                    .unwrap_or_else(|e| panic!("Beta({a},{b}).quantile({p}): {e}"));
                assert!(
                    x.is_finite() && (0.0..=1.0).contains(&x),
                    "Beta({a},{b}).quantile({p}) = {x}"
                );
            }
        }
    }
}

#[test]
fn beta_quantile_closed_form_when_one_shape_is_one() {
    // Beta(a, 1) has CDF x^a and Beta(1, b) has CDF 1 − (1−x)^b; the
    // quantile must match the closed form to full precision, because the
    // k = n (and symmetric k = 0) Clopper–Pearson bounds route through
    // these shapes with `a` as large as the trial count.
    for &a in &[2.0, 60.0, 1_500.0, 1e6] {
        for &p in &[1e-12, 0.05, 0.5, 0.95, 1.0 - 1e-12] {
            let direct = Beta::new(a, 1.0).unwrap().quantile(p).unwrap();
            assert_eq!(direct, p.powf(1.0 / a), "Beta({a},1) at p={p}");
            let mirrored = Beta::new(1.0, a).unwrap().quantile(p).unwrap();
            assert_eq!(
                mirrored,
                1.0 - (1.0 - p).powf(1.0 / a),
                "Beta(1,{a}) at p={p}"
            );
        }
    }
    // Beta(1, 1) is the uniform distribution: the quantile is the identity,
    // exactly.
    let uniform = Beta::new(1.0, 1.0).unwrap();
    for &p in PROBS {
        assert_eq!(uniform.quantile(p).unwrap(), p);
    }
}

#[test]
fn clopper_pearson_degenerate_counts_are_exact() {
    let beta = Confidence::new(0.95).unwrap();
    for &n in &[1u64, 10, 250, 1_500, 1_000_000] {
        assert_eq!(lower_bound(0, n, beta).unwrap(), 0.0, "k=0, n={n}");
        assert_eq!(upper_bound(n, n, beta).unwrap(), 1.0, "k=n={n}");
        let iv0 = interval(0, n, beta).unwrap();
        assert_eq!(iv0.lower, 0.0, "two-sided lower at k=0, n={n}");
        let ivn = interval(n, n, beta).unwrap();
        assert_eq!(ivn.upper, 1.0, "two-sided upper at k=n={n}");
    }
}

#[test]
fn clopper_pearson_extreme_counts_match_closed_forms() {
    // k = n: lower bound is alpha^(1/n) ("rule of three" family);
    // k = 0: upper bound is 1 − alpha^(1/n). Both must hold without
    // convergence failures even for very large n.
    let beta = Confidence::new(0.95).unwrap();
    for &n in &[1u64, 60, 1_500, 1_000_000] {
        let lo = lower_bound(n, n, beta).unwrap();
        let expect = 0.05f64.powf(1.0 / n as f64);
        assert!((lo - expect).abs() < 1e-12, "n={n}: {lo} vs {expect}");
        let hi = upper_bound(0, n, beta).unwrap();
        let expect = 1.0 - 0.05f64.powf(1.0 / n as f64);
        assert!((hi - expect).abs() < 1e-12, "n={n}: {hi} vs {expect}");
    }
}
