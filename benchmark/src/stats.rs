//! The statistics every report and every comparison goes through.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a median of nothing is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), because that is the rule the accepting driver applies.
///
/// # Panics
/// Panics on fewer than two samples, as Python does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The ladder of percentiles a report may quote, in per mille (so that
/// "ten samples beyond" is exact integer arithmetic).
const LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, or `None` below twenty samples (where even the
/// median has fewer than ten on its far side).
pub fn tail_quantile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE
        .iter()
        .rfind(|&&q| n * (1000 - q) >= 10_000)
        .map(|&q| q as f64 / 1000.0)
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let v = sorted(values);
    let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// How much worse `candidate` is than `baseline`, as a share of the
/// baseline; negative when it is better.
pub fn worsening(better: Better, baseline: f64, candidate: f64) -> f64 {
    match better {
        Better::Lower => (candidate - baseline) / baseline.abs(),
        Better::Higher => (baseline - candidate) / baseline.abs(),
    }
}

/// Whether `candidate` stays within `bound` of `baseline` in the
/// metric's bad direction.
pub fn within_bound(better: Better, baseline: f64, candidate: f64, bound: f64) -> bool {
    worsening(better, baseline, candidate) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(16_000), Some(0.999));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn bound_check_respects_direction() {
        // Lower is better: growing is worse.
        assert!(within_bound(Better::Lower, 10.0, 10.9, 0.10));
        assert!(!within_bound(Better::Lower, 10.0, 11.1, 0.10));
        assert!(within_bound(Better::Lower, 10.0, 1.0, 0.10));
        // Higher is better: shrinking is worse.
        assert!(within_bound(Better::Higher, 100.0, 91.0, 0.10));
        assert!(!within_bound(Better::Higher, 100.0, 89.0, 0.10));
        assert!(within_bound(Better::Higher, 100.0, 500.0, 0.10));
        assert!((worsening(Better::Higher, 100.0, 89.0) - 0.11).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 89.0) + 0.11).abs() < 1e-12);
    }
}
