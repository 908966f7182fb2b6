//! The normal sampler's output: prefix-stable under the length of the
//! fill, and standard normal by its first four moments and a
//! Kolmogorov–Smirnov test.

use rand::{rngs::StdRng, SeedableRng};
use summit_tensor::init::fill_normal;

#[test]
fn shorter_fills_are_prefixes_of_longer_ones() {
    let fill = |n: usize| {
        let mut out = vec![f32::NAN; n];
        fill_normal(&mut StdRng::seed_from_u64(5), 1.0, &mut out);
        out
    };
    let long = fill(10);
    assert!(long.iter().all(|v| v.is_finite()));
    // An odd fill pairs its last element with one more draw, as the
    // longer fill does.
    for n in [1, 2, 6, 7, 9] {
        assert_eq!(fill(n), long[..n]);
    }
}

/// Φ, the standard normal CDF, from Abramowitz & Stegun 7.1.26 on
/// `erf` (absolute error below 1.5e-7, far under the KS bound).
fn normal_cdf(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    0.5 * (1.0 + erf.copysign(z))
}

/// 2²⁰ samples: the first four moments and a Kolmogorov–Smirnov test
/// at the 1 % critical value `1.628 / √n`.
#[test]
fn samples_are_standard_normal() {
    let n = 1usize << 20;
    let mut z = vec![0.0f32; n];
    fill_normal(&mut StdRng::seed_from_u64(0), 1.0, &mut z);
    let nf = n as f64;
    let mean = z.iter().map(|&v| f64::from(v)).sum::<f64>() / nf;
    let moment = |p: i32| {
        z.iter()
            .map(|&v| (f64::from(v) - mean).powi(p))
            .sum::<f64>()
            / nf
    };
    let (var, skew, kurt) = (moment(2), moment(3), moment(4));
    let (skew, kurt) = (skew / var.powf(1.5), kurt / (var * var));
    // Four standard errors each: σ/√n, √(2/n), √(6/n), √(24/n).
    assert!(mean.abs() < 4.0 / nf.sqrt(), "mean {mean}");
    assert!(
        (var - 1.0).abs() < 4.0 * (2.0 / nf).sqrt(),
        "variance {var}"
    );
    assert!(skew.abs() < 4.0 * (6.0 / nf).sqrt(), "skewness {skew}");
    assert!(
        (kurt - 3.0).abs() < 4.0 * (24.0 / nf).sqrt(),
        "kurtosis {kurt}"
    );
    z.sort_by(f32::total_cmp);
    let d = z.iter().enumerate().fold(0.0f64, |d, (i, &v)| {
        let cdf = normal_cdf(f64::from(v));
        d.max(cdf - i as f64 / nf).max((i + 1) as f64 / nf - cdf)
    });
    assert!(d < 1.628 / nf.sqrt(), "KS statistic {d}");
}
