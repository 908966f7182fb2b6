//! Minimal dense f32 tensor kernels.
//!
//! Just enough real linear algebra for [`summit-dl`] to train actual neural
//! networks on the CPU: a row-major [`Matrix`], the three matmul variants
//! backpropagation needs, element-wise activations, reductions, and the
//! standard initializers. Large kernels dispatch row chunks onto the
//! persistent [`summit-pool`] compute runtime under the calling thread's
//! core budget — no per-call thread spawns — and the three matmuls share
//! one microkernel, packing their operands a slab at a time into reused
//! thread-local scratch, so the steady state allocates nothing. Pooled
//! results are bitwise identical to the serial path at every worker count,
//! and `matmul_at_b`/`matmul_a_bt` bitwise `matmul` on the materialised
//! transpose.
//!
//! This crate is deliberately small — it is a substrate for the paper
//! reproduction, not a BLAS. Kernels are written for clarity first and
//! cache-friendliness second (packed panels, blocked loops, register
//! tiles, no allocation inside loops).
//!
//! [`summit-pool`]: ../summit_pool/index.html
//!
//! [`summit-dl`]: ../summit_dl/index.html
//!
//! # Example
//!
//! ```
//! use summit_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
//! let c = a.matmul(&b);
//! assert_eq!(c.get(0, 0), 19.0);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod init;
pub mod matrix;
pub mod ops;
pub mod simd;

pub use init::Initializer;
pub use matrix::{MatRef, Matrix};

/// Dot product of two equal-length slices.
///
/// Dispatches to the AVX2+FMA lane kernel when the host supports it
/// ([`simd::active`]); the scalar loop is the cross-platform reference and
/// the SIMD result stays within the documented ULP bound of it. On a given
/// machine the result is deterministic — the backend is a pure function of
/// the host CPU (and the `force-scalar` feature).
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    match simd::avx2() {
        // SAFETY: the token proves AVX2+FMA on this CPU.
        Some(t) => unsafe { simd::dot_dispatch(t, a, b) },
        None => {
            assert_eq!(a.len(), b.len(), "dot length mismatch");
            a.iter().zip(b).map(|(x, y)| x * y).sum()
        }
    }
}

/// Euclidean norm of a slice — the self-dot on the same backend as
/// [`dot`], so optimizer norms see the same speedup.
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` over equal-length slices.
///
/// The SIMD path fuses the multiply-add per element (one rounding); the
/// scalar fallback rounds the product first — a ≤ 1-ULP-per-element
/// difference covered by the kernel ULP contract.
///
/// # Panics
/// Panics if lengths differ.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    match simd::avx2() {
        // SAFETY: the token proves AVX2+FMA on this CPU.
        Some(t) => unsafe { simd::axpy_dispatch(t, alpha, x, y) },
        None => {
            assert_eq!(x.len(), y.len(), "axpy length mismatch");
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
    }
}

/// Scale a slice in place. Both backends perform exactly one multiply per
/// element, so this is bit-identical across them.
pub fn scale(a: &mut [f32], s: f32) {
    match simd::avx2() {
        // SAFETY: the token proves AVX2+FMA on this CPU.
        Some(t) => unsafe { simd::scale_dispatch(t, a, s) },
        None => a.iter_mut().for_each(|v| *v *= s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut a = vec![1.0, -2.0];
        scale(&mut a, 0.5);
        assert_eq!(a, vec![0.5, -1.0]);
    }
}
