//! Bit-identity properties of the pooled matmul kernels.
//!
//! The compute pool's contract is that parallelism is *invisible* in the
//! result: the row partition never splits a single output element's
//! accumulation chain, so for every shape and every worker count the pooled
//! product must equal the serial (`parts = 1`) product **bitwise** — not
//! within a tolerance. These tests drive the `gemm_into_parts` hook directly
//! across random shapes (including degenerate ones: a single row,
//! tall/skinny, shapes straddling the parallelism threshold) and pool
//! sizes 1..8, and the public auto-dispatch API under explicit core
//! budgets. The shared dimension reaches past the 256-step block every
//! product shares (`matmul`'s property and the pinned shapes at 1024), so
//! the chunk split is tried against every remainder path a chain can take.

use proptest::prelude::*;
use summit_tensor::matrix::{Backend, Transpose};
use summit_tensor::Matrix;

/// Deterministic test matrix: a mix of negatives, positives, and exact
/// zeros (the old kernels special-cased `a == 0.0`; the new ones must be
/// branch-free and still agree).
fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut data = Vec::with_capacity(rows * cols);
    for i in 0..rows * cols {
        let v = seed.wrapping_add(i as u64).wrapping_mul(2654435761) % 29;
        data.push(if v.is_multiple_of(5) {
            0.0
        } else {
            v as f32 * 0.37 - 4.0
        });
    }
    Matrix::from_vec(rows, cols, data)
}

/// Exact bit pattern of the backing buffer — equality here is bitwise
/// identity, stricter than `f32` comparison.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_pooled_matmul_bit_identical_to_serial(
        m in 1usize..200,
        k in 1usize..300,
        n in 1usize..64,
        parts in 1usize..9,
        seed in 0u64..1000,
    ) {
        let a = fill(m, k, seed);
        let b = fill(k, n, seed ^ 0x9e37);
        let mut serial = Matrix::zeros(m, n);
        let mut pooled = Matrix::zeros(m, n);
        a.gemm_into_parts(&b, Transpose::None, &mut serial, 1, Backend::Auto, false);
        a.gemm_into_parts(&b, Transpose::None, &mut pooled, parts, Backend::Auto, false);
        prop_assert_eq!(bits(&serial), bits(&pooled));
    }

    #[test]
    fn prop_pooled_matmul_at_b_bit_identical_to_serial(
        m in 1usize..120,
        k in 1usize..200,
        n in 1usize..48,
        parts in 1usize..9,
        seed in 0u64..1000,
    ) {
        let a = fill(m, k, seed);
        let b = fill(m, n, seed ^ 0x517c);
        let mut serial = Matrix::zeros(k, n);
        let mut pooled = Matrix::zeros(k, n);
        a.gemm_into_parts(&b, Transpose::A, &mut serial, 1, Backend::Auto, false);
        a.gemm_into_parts(&b, Transpose::A, &mut pooled, parts, Backend::Auto, false);
        prop_assert_eq!(bits(&serial), bits(&pooled));
    }

    #[test]
    fn prop_pooled_matmul_a_bt_bit_identical_to_serial(
        m in 1usize..160,
        k in 1usize..130,
        n in 1usize..160,
        parts in 1usize..9,
        seed in 0u64..1000,
    ) {
        let a = fill(m, k, seed);
        let b = fill(n, k, seed ^ 0x2ad1);
        let mut serial = Matrix::zeros(m, n);
        let mut pooled = Matrix::zeros(m, n);
        a.gemm_into_parts(&b, Transpose::B, &mut serial, 1, Backend::Auto, false);
        a.gemm_into_parts(&b, Transpose::B, &mut pooled, parts, Backend::Auto, false);
        prop_assert_eq!(bits(&serial), bits(&pooled));
    }
}

/// The shapes most likely to expose partition bookkeeping bugs, pinned
/// explicitly across every pool size 1..8: a single row, tall/skinny,
/// short/wide, both sides of the parallelism threshold, and a remainder-
/// heavy row count — with the shared dimension `k` at 7 (below one SIMD
/// step), 64, 100 (steps plus a scalar tail) and 1024 (several `matmul`
/// blocks), `m` off every register-tile height and `n` off the tile and
/// panel widths.
#[test]
fn degenerate_shapes_bit_identical_across_pool_sizes() {
    let shapes = [
        (1, 7, 9),
        (400, 3, 5),
        (3, 400, 2),
        (127, 16, 33),
        (128, 16, 33),
        (131, 100, 67),
        (11, 64, 50),
        (13, 1024, 35),
    ];
    for &(m, k, n) in &shapes {
        let a = fill(m, k, (m * 31 + n) as u64);
        let b = fill(k, n, (k * 17 + m) as u64);
        let bt = fill(n, k, (n * 13 + k) as u64);
        let c = fill(m, n, (m * 7 + k) as u64);

        let mut mm_serial = Matrix::zeros(m, n);
        a.gemm_into_parts(&b, Transpose::None, &mut mm_serial, 1, Backend::Auto, false);
        let mut atb_serial = Matrix::zeros(k, n);
        a.gemm_into_parts(&c, Transpose::A, &mut atb_serial, 1, Backend::Auto, false);
        let mut abt_serial = Matrix::zeros(m, n);
        a.gemm_into_parts(&bt, Transpose::B, &mut abt_serial, 1, Backend::Auto, false);

        for parts in 1..=8 {
            let mut out = Matrix::zeros(m, n);
            a.gemm_into_parts(&b, Transpose::None, &mut out, parts, Backend::Auto, false);
            assert_eq!(
                bits(&out),
                bits(&mm_serial),
                "matmul {m}x{k}x{n} parts={parts}"
            );
            let mut out = Matrix::zeros(k, n);
            a.gemm_into_parts(&c, Transpose::A, &mut out, parts, Backend::Auto, false);
            assert_eq!(
                bits(&out),
                bits(&atb_serial),
                "matmul_at_b {m}x{k}x{n} parts={parts}"
            );
            let mut out = Matrix::zeros(m, n);
            a.gemm_into_parts(&bt, Transpose::B, &mut out, parts, Backend::Auto, false);
            assert_eq!(
                bits(&out),
                bits(&abt_serial),
                "matmul_a_bt {m}x{k}x{n} parts={parts}"
            );
        }
    }
}

/// The public auto-dispatching API (threshold + core budget) must hit the
/// same bits as the forced-serial reference for every budget, including
/// shapes large enough to actually engage the pool.
#[test]
fn public_api_bit_identical_under_every_budget() {
    let m = 301;
    let k = 100;
    let n = 43;
    let a = fill(m, k, 1);
    let b = fill(k, n, 2);
    let bt = fill(n, k, 3);
    let c = fill(m, n, 4);

    let mut mm_serial = Matrix::zeros(m, n);
    a.gemm_into_parts(&b, Transpose::None, &mut mm_serial, 1, Backend::Auto, false);
    let mut atb_serial = Matrix::zeros(k, n);
    a.gemm_into_parts(&c, Transpose::A, &mut atb_serial, 1, Backend::Auto, false);
    let mut abt_serial = Matrix::zeros(m, n);
    a.gemm_into_parts(&bt, Transpose::B, &mut abt_serial, 1, Backend::Auto, false);

    for budget in 1..=8 {
        summit_pool::with_core_budget(budget, || {
            assert_eq!(bits(&a.matmul(&b)), bits(&mm_serial), "budget {budget}");
            assert_eq!(
                bits(&a.matmul_at_b(&c)),
                bits(&atb_serial),
                "budget {budget}"
            );
            assert_eq!(
                bits(&a.matmul_a_bt(&bt)),
                bits(&abt_serial),
                "budget {budget}"
            );
        });
    }
}
