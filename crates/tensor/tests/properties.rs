//! Property-based tests for the tensor kernels.

use proptest::prelude::*;
use summit_tensor::{dot, l2_norm, matrix::Matrix, ops};

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A·B)·C == A·(B·C) within float tolerance, on compatible shapes.
    #[test]
    fn matmul_associative(m in 1usize..6, k in 1usize..6, n in 1usize..6, p in 1usize..6,
                          seed in 0u64..1000) {
        let gen = |rows: usize, cols: usize, salt: u64| {
            let mut v = Vec::with_capacity(rows * cols);
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(salt);
            for _ in 0..rows * cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                v.push(((state >> 33) as f32 / 2.0f32.powi(31)) - 0.5);
            }
            Matrix::from_vec(rows, cols, v)
        };
        let a = gen(m, k, 1);
        let b = gen(k, n, 2);
        let c = gen(n, p, 3);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// matmul_at_b and matmul_a_bt agree with explicit transposes.
    #[test]
    fn transposed_variants_consistent(a in arb_matrix(8), b in arb_matrix(8)) {
        if a.rows() == b.rows() {
            let fast = a.matmul_at_b(&b);
            let slow = a.transpose().matmul(&b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
        if a.cols() == b.cols() {
            let fast = a.matmul_a_bt(&b);
            let slow = a.matmul(&b.transpose());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }

    /// Cauchy–Schwarz: |a·b| <= |a||b|.
    #[test]
    fn cauchy_schwarz(pairs in proptest::collection::vec(
        (-100.0f32..100.0, -100.0f32..100.0), 1..64)) {
        let (v, w): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let lhs = dot(&v, &w).abs();
        let rhs = l2_norm(&v) * l2_norm(&w);
        prop_assert!(lhs <= rhs * (1.0 + 1e-4) + 1e-4);
    }

    /// Softmax outputs are a probability distribution for any logits.
    #[test]
    fn softmax_is_distribution(mut m in arb_matrix(10)) {
        ops::softmax_inplace(&mut m);
        for r in 0..m.rows() {
            let s: f32 = m.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(m.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    /// Cross-entropy loss is non-negative and gradient rows sum to zero.
    #[test]
    fn cross_entropy_invariants(m in arb_matrix(8), seed in 0u64..100) {
        let labels: Vec<usize> = (0..m.rows())
            .map(|r| ((seed as usize).wrapping_add(r * 7)) % m.cols())
            .collect();
        let (loss, grad) = ops::softmax_cross_entropy(m, &labels);
        prop_assert!(loss >= 0.0);
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-4, "gradient row {r} sums to {s}");
        }
    }

    /// ReLU is idempotent.
    #[test]
    fn relu_idempotent(mut m in arb_matrix(8)) {
        ops::relu_inplace(&mut m);
        let once = m.clone();
        ops::relu_inplace(&mut m);
        prop_assert_eq!(m, once);
    }

    /// MSE of identical matrices is zero with zero gradient.
    #[test]
    fn mse_identity(m in arb_matrix(8)) {
        let (loss, grad) = ops::mse(&m, &m);
        prop_assert_eq!(loss, 0.0);
        prop_assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }
}

/// Logits of `1..=8` rows by `2..=16` classes whose values span up to
/// `max_spread` around a random offset, with a label per row.
fn arb_logits(max_spread: f32) -> impl Strategy<Value = (Matrix, Vec<usize>)> {
    (1usize..=8, 2usize..=16, 0.0f32..max_spread, -50.0f32..50.0).prop_flat_map(
        |(r, c, spread, offset)| {
            (
                proptest::collection::vec(0.0f32..=1.0, r * c).prop_map(move |u| {
                    Matrix::from_vec(r, c, u.iter().map(|u| offset + spread * u).collect())
                }),
                proptest::collection::vec(0..c, r),
            )
        },
    )
}

/// The softmax, cross-entropy loss and logits gradient without the flush:
/// the reference the kernels must equal wherever nothing underflows.
fn unflushed_cross_entropy(logits: &Matrix, labels: &[usize]) -> (Vec<f32>, f32, Vec<f32>) {
    let (rows, cols) = (logits.rows(), logits.cols());
    let mut probs = logits.as_slice().to_vec();
    for row in probs.chunks_exact_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        loss -= grad[r * cols + label].max(1e-12).ln();
        grad[r * cols + label] -= 1.0;
    }
    grad.iter_mut().for_each(|v| *v /= rows as f32);
    (probs, loss / rows as f32, grad)
}

/// Tiny and ordinary values `m · 2^-e`, `e` in `0..150`: about one in six,
/// and more of their MSE gradients, fall below `f32::MIN_POSITIVE`.
fn arb_tiny(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec((-1.0f32..1.0, 0i32..150), r * c).prop_map(move |v| {
            // Two normal powers of two, so only the product can underflow.
            let data = v
                .iter()
                .map(|&(m, e)| m * 2f32.powi(-e / 2) * 2f32.powi(e / 2 - e))
                .collect();
            Matrix::from_vec(r, c, data)
        })
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No softmax output, cross-entropy gradient or MSE gradient is
    /// subnormal, over logit spreads that cover the 87–104 band where
    /// `exp` of the shifted logits lands in subnormals.
    #[test]
    fn loss_outputs_are_never_subnormal((logits, labels) in arb_logits(200.0),
                                        pred in arb_tiny(6), k in 0u32..4) {
        let mut probs = logits.clone();
        ops::softmax_inplace(&mut probs);
        prop_assert!(probs.as_slice().iter().all(|p| !p.is_subnormal()));
        let (_, grad) = ops::softmax_cross_entropy(logits, &labels);
        prop_assert!(grad.as_slice().iter().all(|g| !g.is_subnormal()));
        let target = Matrix::from_vec(pred.rows(), pred.cols(), pred.as_slice().iter()
            .map(|v| v * k as f32 * 0.5).collect());
        let (_, grad) = ops::mse(&pred, &target);
        prop_assert!(grad.as_slice().iter().all(|g| !g.is_subnormal()));
    }

    /// Below a spread of 80 nothing underflows, and the flushed kernels
    /// are bitwise the unflushed formula.
    #[test]
    fn flush_changes_nothing_above_min_positive((logits, labels) in arb_logits(80.0),
                                                pred in arb_matrix(8), shift in -1.0f32..1.0) {
        let (probs, loss, grad) = unflushed_cross_entropy(&logits, &labels);
        let mut flushed = logits.clone();
        ops::softmax_inplace(&mut flushed);
        prop_assert_eq!(bits(flushed.as_slice()), bits(&probs));
        let (flushed_loss, flushed_grad) = ops::softmax_cross_entropy(logits, &labels);
        prop_assert_eq!(flushed_loss.to_bits(), loss.to_bits());
        prop_assert_eq!(bits(flushed_grad.as_slice()), bits(&grad));

        let target = Matrix::from_vec(pred.rows(), pred.cols(),
            pred.as_slice().iter().map(|v| v + shift).collect());
        let n = pred.as_slice().len() as f32;
        let d: Vec<f32> = pred.as_slice().iter().zip(target.as_slice()).map(|(p, t)| p - t).collect();
        let loss = d.iter().fold(0.0f32, |acc, d| acc + d * d) / n;
        let grad: Vec<f32> = d.iter().map(|d| 2.0 * d / n).collect();
        let (flushed_loss, flushed_grad) = ops::mse(&pred, &target);
        prop_assert_eq!(flushed_loss.to_bits(), loss.to_bits());
        prop_assert_eq!(bits(flushed_grad.as_slice()), bits(&grad));
    }

    /// A NaN or +∞ logit, or a row of -∞ logits, still leaves NaN in
    /// that row's probabilities and gradient: the flush never turns a
    /// blow-up into numbers.
    #[test]
    fn non_finite_logits_still_blow_up((logits, labels) in arb_logits(200.0),
                                       row in 0usize..8, col in 0usize..16, kind in 0usize..3) {
        let (row, col) = (row % logits.rows(), col % logits.cols());
        let mut poisoned = logits;
        match kind {
            0 => poisoned.row_mut(row)[col] = f32::NAN,
            1 => poisoned.row_mut(row)[col] = f32::INFINITY,
            _ => poisoned.row_mut(row).fill(f32::NEG_INFINITY),
        }
        let mut probs = poisoned.clone();
        ops::softmax_inplace(&mut probs);
        prop_assert!(probs.row(row).iter().all(|p| p.is_nan()));
        let (_, grad) = ops::softmax_cross_entropy(poisoned, &labels);
        prop_assert!(grad.row(row).iter().all(|g| g.is_nan()));
    }
}
