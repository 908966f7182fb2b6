//! Deterministic synthetic tasks for convergence tests and examples.

use rand::{rngs::StdRng, Rng, SeedableRng};
use summit_tensor::init::{cos_sin_turns, fill_normal, tanh};
use summit_tensor::Matrix;

/// A supervised classification task.
#[derive(Debug, Clone)]
pub struct ClassificationTask {
    /// `samples × features` inputs.
    pub x: Matrix,
    /// Integer class labels, one per row of `x`.
    pub y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

/// Gaussian blobs: `classes` isotropic clusters at random centers in
/// `[-3, 3]^features` with the given noise stddev. Linearly separable for
/// small noise, overlapping for large — a controllable difficulty dial.
/// The jitter comes from [`fill_normal`], so the bits depend on the seed
/// alone.
///
/// # Panics
/// Panics if any count is zero or `noise < 0`.
pub fn blobs(
    samples: usize,
    features: usize,
    classes: usize,
    noise: f32,
    seed: u64,
) -> ClassificationTask {
    assert!(
        samples > 0 && features > 0 && classes > 0,
        "counts must be positive"
    );
    assert!(noise >= 0.0, "noise must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..features).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
        .collect();
    let mut x = Matrix::zeros(samples, features);
    if noise > 0.0 {
        fill_normal(&mut rng, noise, x.as_mut_slice());
    }
    let y: Vec<usize> = (0..samples).map(|s| s % classes).collect();
    for (row, &class) in x.as_mut_slice().chunks_exact_mut(features).zip(&y) {
        for (v, c) in row.iter_mut().zip(&centers[class]) {
            *v += c;
        }
    }
    ClassificationTask { x, y, classes }
}

/// Two interleaved spirals — a classic task an MLP must be nonlinear to
/// solve (a linear model gets ≈50%). Sample `t` of class `c` sits at
/// `1.5·t + c/2` turns; the sine and cosine are [`cos_sin_turns`], so the
/// bits depend on the seed alone.
///
/// # Panics
/// Panics if `samples == 0`.
pub fn spirals(samples: usize, noise: f32, seed: u64) -> ClassificationTask {
    assert!(samples > 0, "need samples");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(samples, 2);
    let mut y = Vec::with_capacity(samples);
    for s in 0..samples {
        let class = s % 2;
        let t = (s / 2) as f32 / (samples / 2).max(1) as f32;
        let r = 0.2 + t * 2.0;
        let (cos, sin) = cos_sin_turns((1.5 * t + class as f32 * 0.5).fract());
        let nx: f32 = rng.gen_range(-noise..=noise.max(1e-9));
        let ny: f32 = rng.gen_range(-noise..=noise.max(1e-9));
        x.set(s, 0, r * cos + nx);
        x.set(s, 1, r * sin + ny);
        y.push(class);
    }
    ClassificationTask { x, y, classes: 2 }
}

/// A regression task: noisy samples of a random shallow teacher network,
/// used by the surrogate-model workflow example.
#[derive(Debug, Clone)]
pub struct RegressionTask {
    /// `samples × features` inputs.
    pub x: Matrix,
    /// `samples × 1` targets.
    pub y: Matrix,
}

/// Generate a teacher-network regression task. The teacher's `tanh` is the
/// in-crate [`tanh`], so the bits depend on the seed alone.
///
/// # Panics
/// Panics if counts are zero.
#[allow(clippy::needless_range_loop)] // indexing two parallel structures
pub fn teacher_regression(samples: usize, features: usize, seed: u64) -> RegressionTask {
    assert!(samples > 0 && features > 0, "counts must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f32> = (0..features).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut x = Matrix::zeros(samples, features);
    let mut y = Matrix::zeros(samples, 1);
    for s in 0..samples {
        let mut acc = 0.0f32;
        for f in 0..features {
            let v: f32 = rng.gen_range(-1.0f32..1.0);
            x.set(s, f, v);
            acc += w[f] * v;
        }
        // Nonlinear teacher: tanh of the linear form plus mild noise.
        y.set(s, 0, tanh(acc) + rng.gen_range(-0.01f32..0.01));
    }
    RegressionTask { x, y }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shapes_and_labels() {
        let t = blobs(100, 3, 4, 0.1, 0);
        assert_eq!(t.x.rows(), 100);
        assert_eq!(t.x.cols(), 3);
        assert_eq!(t.y.len(), 100);
        assert!(t.y.iter().all(|&c| c < 4));
        // Balanced classes.
        for c in 0..4 {
            assert_eq!(t.y.iter().filter(|&&l| l == c).count(), 25);
        }
    }

    #[test]
    fn blobs_deterministic() {
        let a = blobs(50, 2, 2, 0.3, 9);
        let b = blobs(50, 2, 2, 0.3, 9);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn zero_noise_blobs_collapse_to_centers() {
        let t = blobs(10, 2, 2, 0.0, 1);
        // Samples of the same class are identical.
        assert_eq!(t.x.row(0), t.x.row(2));
        assert_eq!(t.x.row(1), t.x.row(3));
    }

    #[test]
    fn spirals_are_two_classes() {
        let t = spirals(200, 0.05, 3);
        assert_eq!(t.classes, 2);
        assert_eq!(t.y.iter().filter(|&&c| c == 0).count(), 100);
    }

    #[test]
    fn teacher_targets_bounded() {
        let t = teacher_regression(100, 5, 4);
        assert!(t.y.as_slice().iter().all(|v| v.abs() <= 1.02));
    }
}
