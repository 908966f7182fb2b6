//! Neural-network forward/backward kernels on [`Matrix`] batches.
//!
//! Row convention: a batch activation matrix is `batch × features`.
//!
//! The in-place elementwise/row-wise kernels (`relu_inplace`,
//! `relu_backward`, `add_bias`, `softmax_inplace`) dispatch row chunks onto
//! the persistent compute pool above [`ELEMWISE_PAR_THRESHOLD`] elements,
//! under the calling thread's core budget. Each element (or row, for
//! softmax) is computed independently, so pooled results are trivially
//! bit-identical to serial. Reductions (`column_sums`, losses, `accuracy`)
//! stay serial: their accumulation order is part of the numeric contract.

use crate::matrix::Matrix;
use crate::simd;

/// Element count above which in-place elementwise kernels parallelize —
/// below this the pool dispatch overhead exceeds the memory-bound work.
const ELEMWISE_PAR_THRESHOLD: usize = 16_384;

/// Chunk count for an elementwise kernel over `rows` rows of `elems` total
/// elements: serial below the threshold, else the core budget.
fn elem_parts(elems: usize, rows: usize) -> usize {
    if elems < ELEMWISE_PAR_THRESHOLD {
        1
    } else {
        summit_pool::core_budget().min(rows)
    }
}

/// ReLU forward, in place: `if 0.0 > x { 0.0 } else { x }` per element on
/// both backends, so a NaN propagates and `−0.0` stays `−0.0`.
pub fn relu_inplace(x: &mut Matrix) {
    let (rows, cols) = (x.rows(), x.cols());
    let parts = elem_parts(rows * cols, rows);
    let avx2 = simd::avx2();
    summit_pool::global().run_rows(x.as_mut_slice(), cols, parts, |chunk, _| match avx2 {
        // SAFETY: the token proves AVX2+FMA on this CPU.
        Some(t) => unsafe { simd::relu_dispatch(t, chunk) },
        None => chunk
            .iter_mut()
            .for_each(|v| *v = if 0.0 > *v { 0.0 } else { *v }),
    });
}

/// ReLU backward: zero `grad` wherever the forward *output* was `<= 0.0`
/// (a NaN output keeps its gradient). A branch-free select on both
/// backends: on live activations a branch mispredicts about half the time.
///
/// # Panics
/// Panics on shape mismatch.
pub fn relu_backward(output: &Matrix, grad: &mut Matrix) {
    assert_eq!(
        (output.rows(), output.cols()),
        (grad.rows(), grad.cols()),
        "relu_backward shape mismatch"
    );
    let (rows, cols) = (grad.rows(), grad.cols());
    let parts = elem_parts(rows * cols, rows);
    let out = output.as_slice();
    let avx2 = simd::avx2();
    summit_pool::global().run_rows(grad.as_mut_slice(), cols, parts, |chunk, range| {
        let o = &out[range.start * cols..range.end * cols];
        match avx2 {
            // SAFETY: the token proves AVX2+FMA on this CPU.
            Some(t) => unsafe { simd::relu_backward_dispatch(t, o, chunk) },
            None => {
                for (g, &ov) in chunk.iter_mut().zip(o) {
                    *g = if ov <= 0.0 { 0.0 } else { *g };
                }
            }
        }
    });
}

/// Add a bias row-vector to every row of `x`.
///
/// # Panics
/// Panics if `bias.len() != x.cols()`.
pub fn add_bias(x: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), x.cols(), "bias length mismatch");
    let (rows, cols) = (x.rows(), x.cols());
    let parts = elem_parts(rows * cols, rows);
    let avx2 = simd::avx2();
    summit_pool::global().run_rows(x.as_mut_slice(), cols, parts, |chunk, _| match avx2 {
        // SAFETY: the token proves AVX2+FMA on this CPU (one add per
        // element — bit-identical to the scalar loop).
        Some(t) => unsafe { simd::add_bias_dispatch(t, chunk, bias) },
        None => {
            for row in chunk.chunks_exact_mut(cols) {
                for (v, b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
        }
    });
}

/// Column-wise sum of a gradient matrix — the bias gradient.
pub fn column_sums(x: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; x.cols()];
    for r in 0..x.rows() {
        for (o, &v) in out.iter_mut().zip(x.row(r)) {
            *o += v;
        }
    }
    out
}

/// `v`, or a zero of its sign where `v` is subnormal; NaN and ±∞ pass
/// through. Applied where the training stack makes values that can
/// underflow (softmax outputs and the loss gradients), so a confident
/// sample feeds no subnormal operand, and no microcode assist, to every
/// FMA downstream of it. Per element, so bitwise the same on every
/// backend, thread and pool partition.
fn flush_subnormal(v: f32) -> f32 {
    if v.abs() < f32::MIN_POSITIVE {
        0.0f32.copysign(v)
    } else {
        v
    }
}

/// Numerically stable row-wise softmax, in place, with subnormal outputs
/// flushed to zero. Rows are independent, so row chunks run on the pool
/// above the elementwise threshold.
pub fn softmax_inplace(x: &mut Matrix) {
    let (rows, cols) = (x.rows(), x.cols());
    let parts = elem_parts(rows * cols, rows);
    summit_pool::global().run_rows(x.as_mut_slice(), cols, parts, |chunk, _| {
        for row in chunk.chunks_exact_mut(cols) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v = flush_subnormal(*v / sum);
            }
        }
    });
}

/// Mean cross-entropy loss of row-wise softmax probabilities against integer
/// labels, plus the logits gradient `(softmax - onehot) / batch` with
/// subnormal entries flushed to zero.
///
/// `logits` is consumed as scratch and returned as the gradient.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy(mut logits: Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "labels length mismatch");
    softmax_inplace(&mut logits);
    let batch = logits.rows() as f32;
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label out of range");
        let p = logits.get(r, label).max(1e-12);
        loss -= p.ln();
        let row = logits.row_mut(r);
        row[label] -= 1.0;
    }
    // Scale to mean gradient.
    logits.map_inplace(|v| flush_subnormal(v / batch));
    (loss / batch, logits)
}

/// Classification accuracy of logits (or probabilities) against labels.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f32 {
    assert_eq!(labels.len(), logits.rows(), "labels length mismatch");
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("rows are non-empty");
        if argmax == label {
            correct += 1;
        }
    }
    correct as f32 / labels.len() as f32
}

/// Mean squared error loss and gradient `2(pred - target)/n_elements`,
/// with subnormal gradient entries flushed to zero.
///
/// # Panics
/// Panics on shape mismatch.
pub fn mse(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse shape mismatch"
    );
    let n = (pred.rows() * pred.cols()) as f32;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0f32;
    for ((g, &p), &t) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(target.as_slice())
    {
        let d = p - t;
        loss += d * d;
        *g = flush_subnormal(2.0 * d / n);
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_and_masks() {
        let mut x = Matrix::from_rows(&[&[-1.0, 2.0], &[0.5, -0.5]]);
        relu_inplace(&mut x);
        assert_eq!(x.row(0), &[0.0, 2.0]);
        let mut g = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        relu_backward(&x, &mut g);
        assert_eq!(g.row(0), &[0.0, 1.0]);
        assert_eq!(g.row(1), &[1.0, 0.0]);
    }

    #[test]
    fn relu_keeps_nan_and_signed_zeros() {
        // 19 columns: two full vectors and a scalar tail on the SIMD path.
        let (keys, want) = ([f32::NAN, 0.0, -0.0, -1.0], [f32::NAN, 0.0, -0.0, 0.0]);
        let mut x = Matrix::from_vec(1, 19, (0..19).map(|i| keys[i % 4]).collect());
        relu_inplace(&mut x);
        for (i, got) in x.as_slice().iter().enumerate() {
            assert_eq!(got.to_bits(), want[i % 4].to_bits(), "column {i}");
        }
    }

    #[test]
    fn relu_backward_keeps_nan_outputs_and_zeroes_signed_zeros() {
        // 19 columns: two full vectors and a scalar tail on the SIMD path.
        let keys = [f32::NAN, 0.0, -0.0, -1.0, 2.0];
        let out = Matrix::from_vec(1, 19, (0..19).map(|i| keys[i % 5]).collect());
        let mut g = Matrix::from_vec(1, 19, (0..19).map(|i| -1.5 - i as f32).collect());
        relu_backward(&out, &mut g);
        for (i, &got) in g.as_slice().iter().enumerate() {
            // A NaN output keeps its gradient; `+0.0` and `-0.0` zero it.
            let want = if i % 5 == 0 || i % 5 == 4 {
                -1.5 - i as f32
            } else {
                0.0
            };
            assert_eq!(got.to_bits(), want.to_bits(), "element {i}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = Matrix::from_rows(&[&[1000.0, 1000.0, 1000.0], &[-500.0, 0.0, 500.0]]);
        softmax_inplace(&mut x);
        for r in 0..2 {
            let s: f32 = x.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
            assert!(x.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // Uniform logits → uniform probabilities.
        assert!((x.get(0, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_matches_hand_computation() {
        // Single sample, two classes, logits (0, 0) → p = (0.5, 0.5),
        // loss = ln 2, grad = (p - onehot).
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let (loss, grad) = softmax_cross_entropy(logits, &[0]);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-5);
        assert!((grad.get(0, 0) + 0.5).abs() < 1e-5);
        assert!((grad.get(0, 1) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_is_numerically_correct() {
        // Finite-difference check on a 2×3 logits matrix.
        let base = Matrix::from_rows(&[&[0.3, -0.2, 0.9], &[-1.0, 0.4, 0.1]]);
        let labels = [2usize, 1];
        let (_, grad) = softmax_cross_entropy(base.clone(), &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = base.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let (lp, _) = softmax_cross_entropy(plus, &labels);
                let mut minus = base.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let (lm, _) = softmax_cross_entropy(minus, &labels);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad.get(r, c)).abs() < 1e-2,
                    "({r},{c}): fd {fd} vs grad {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn bias_and_column_sums_roundtrip() {
        let mut x = Matrix::zeros(3, 2);
        add_bias(&mut x, &[1.0, -2.0]);
        assert_eq!(column_sums(&x), vec![3.0, -6.0]);
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.6, 0.4]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn mse_gradient_direction() {
        let pred = Matrix::from_rows(&[&[1.0, 2.0]]);
        let target = Matrix::from_rows(&[&[0.0, 2.0]]);
        let (loss, grad) = mse(&pred, &target);
        assert!((loss - 0.5).abs() < 1e-6);
        assert!(grad.get(0, 0) > 0.0);
        assert_eq!(grad.get(0, 1), 0.0);
    }
}
