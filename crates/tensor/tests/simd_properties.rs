//! The SIMD kernel contracts, property-tested:
//!
//! 1. **ULP agreement** — the auto backend (SIMD where detected) agrees
//!    with the forced scalar reference within the documented bound on
//!    random shapes, including every remainder path (cols % 16, % 8 ≠ 0,
//!    rows below the register-tile height).
//! 2. **Bit-identity across pool sizes 1→8** — for both backends, the
//!    chunked result equals the `parts = 1` result
//!    bitwise at every worker count.
//! 3. **BLAS-1 dispatch agreement** — `dot`/`axpy`/`scale`/`l2_norm` and
//!    the elementwise kernels match their scalar definitions within the
//!    same bound (`scale`, `relu`, `add_bias` exactly).
//! 4. **One chain, one relation** — every product is bitwise `matmul` on
//!    the materialised transpose, overwriting and accumulating, on every
//!    backend, width and partition; `matmul` equals a plain-Rust
//!    transcription of its per-element chain; a row of a batched product
//!    equals the one-row product (also across the row count where `matmul`
//!    switches from reading `B` in place to packing it); and the
//!    overwriting entries never read what the output held.
//!
//! The documented ULP bound: each output element is one length-`k` chain
//! per backend, fused on SIMD and product-then-add on scalar, so
//! SIMD-vs-scalar error is bounded by a small multiple of `k·ε·|a|·|b|`.
//! We assert `|simd − scalar| ≤ rel·|scalar| + abs` with `rel = 16·k·ε` and
//! a small absolute floor — loose enough to be portable, tight enough that
//! a wrong element (not a rounding difference) fails instantly.

use proptest::prelude::*;
use summit_tensor::matrix::{Backend, Transpose};
use summit_tensor::Matrix;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| {
            let v = seed
                .wrapping_add(i as u64)
                .wrapping_mul(6364136223846793005)
                .rotate_left(17);
            ((v % 2000) as f32 - 1000.0) * 1e-3
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_close(auto: &Matrix, scalar: &Matrix, k: usize, what: &str) {
    let rel = 16.0 * k as f32 * f32::EPSILON;
    for (i, (a, s)) in auto.as_slice().iter().zip(scalar.as_slice()).enumerate() {
        assert!(
            (a - s).abs() <= s.abs() * rel + 1e-5,
            "{what}: element {i}: auto {a} vs scalar {s} (k = {k})"
        );
    }
}

/// The product a variant index selects.
const VARIANTS: [Transpose; 3] = [Transpose::None, Transpose::A, Transpose::B];

/// Run one variant with full control.
fn run(a: &Matrix, b: &Matrix, out: &mut Matrix, variant: usize, parts: usize, backend: Backend) {
    a.gemm_into_parts(b, VARIANTS[variant], out, parts, backend, false);
}

/// Operands of one `m × s × n` product (`s` the shared dimension) in the
/// layout `variant` expects.
fn operands(variant: usize, m: usize, s: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    match variant {
        0 => (mat(m, s, seed), mat(s, n, seed + 1)),
        1 => (mat(s, m, seed), mat(s, n, seed + 1)),
        _ => (mat(m, s, seed), mat(n, s, seed + 1)),
    }
}

/// Output shape of a variant.
fn out_shape(a: &Matrix, b: &Matrix, variant: usize) -> (usize, usize) {
    match variant {
        0 => (a.rows(), b.cols()),
        1 => (a.cols(), b.cols()),
        _ => (a.rows(), b.rows()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Auto (SIMD where detected) vs forced scalar, all three variants:
    /// within the ULP bound on shapes that hit every remainder lane
    /// (cols % 8 ≠ 0 included by the range, rows < the 6/4-row tiles
    /// included by the minimum).
    #[test]
    fn simd_agrees_with_scalar_within_ulp_bound(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..40,
        variant in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (a, b) = operands(variant, m, k, n, seed);
        let (or, oc) = out_shape(&a, &b, variant);
        let mut auto = Matrix::zeros(or, oc);
        let mut scalar = Matrix::zeros(or, oc);
        run(&a, &b, &mut auto, variant, 1, Backend::Auto);
        run(&a, &b, &mut scalar, variant, 1, Backend::Scalar);
        let shared = if variant == 1 { a.rows() } else { a.cols() };
        assert_close(&auto, &scalar, shared, "f32");
    }

    /// Bit-identity across pool sizes 1→8 for every (variant, backend)
    /// combination: the chunk split must never change a single
    /// bit of any output element.
    #[test]
    fn bit_identical_across_pool_sizes_1_to_8(
        m in 1usize..48,
        k in 1usize..40,
        n in 1usize..48,
        variant in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (a, b) = operands(variant, m, k, n, seed);
        let (or, oc) = out_shape(&a, &b, variant);
        for backend in [Backend::Auto, Backend::Scalar] {
            let mut serial = Matrix::zeros(or, oc);
            run(&a, &b, &mut serial, variant, 1, backend);
            for parts in 2..=8 {
                let mut pooled = Matrix::zeros(or, oc);
                run(&a, &b, &mut pooled, variant, parts, backend);
                prop_assert_eq!(
                    pooled.as_slice(),
                    serial.as_slice(),
                    "variant {} {:?} differs at parts = {}",
                    variant, backend, parts
                );
            }
        }
    }

    /// The deduped BLAS-1 entry points agree with their scalar
    /// definitions: `scale` exactly (one multiply per element), `dot`,
    /// `l2_norm`, and `axpy` within the fused-chain bound.
    #[test]
    fn blas1_dispatch_agrees_with_scalar_definitions(
        len in 0usize..200,
        alpha in -4.0f32..4.0,
        seed in 0u64..1000,
    ) {
        let x: Vec<f32> = (0..len).map(|i| ((i as u64 + seed) % 31) as f32 * 0.13 - 2.0).collect();
        let y: Vec<f32> = (0..len).map(|i| ((i as u64 + seed) % 17) as f32 * 0.21 - 1.5).collect();
        let bound = 16.0 * (len.max(1)) as f32 * f32::EPSILON;

        let d = summit_tensor::dot(&x, &y);
        let d_ref: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!((d - d_ref).abs() <= d_ref.abs() * bound + 1e-5);

        let nrm = summit_tensor::l2_norm(&x);
        let nrm_ref = x.iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!((nrm - nrm_ref).abs() <= nrm_ref.abs() * bound + 1e-5);

        let mut y_simd = y.clone();
        summit_tensor::axpy(alpha, &x, &mut y_simd);
        for (i, (got, (&xi, &yi))) in y_simd.iter().zip(x.iter().zip(&y)).enumerate() {
            let want = yi + alpha * xi;
            prop_assert!(
                (got - want).abs() <= want.abs() * 4.0 * f32::EPSILON + 1e-6,
                "axpy element {}: {} vs {}", i, got, want
            );
        }

        let mut s_simd = x.clone();
        summit_tensor::scale(&mut s_simd, alpha);
        let s_ref: Vec<f32> = x.iter().map(|v| v * alpha).collect();
        prop_assert_eq!(s_simd, s_ref, "scale must be bit-identical");
    }

    /// The elementwise ops (`relu_inplace`, `add_bias`) are bit-identical
    /// to their scalar definitions on both backends.
    #[test]
    fn elementwise_dispatch_is_bit_identical(
        rows in 1usize..20,
        cols in 1usize..40,
        seed in 0u64..1000,
    ) {
        let x = mat(rows, cols, seed);
        let bias: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.31).sin()).collect();

        let mut relu = x.clone();
        summit_tensor::ops::relu_inplace(&mut relu);
        for (got, &v) in relu.as_slice().iter().zip(x.as_slice()) {
            prop_assert_eq!(*got, v.max(0.0));
        }

        let mut biased = x.clone();
        summit_tensor::ops::add_bias(&mut biased, &bias);
        for r in 0..rows {
            for (c, &bc) in bias.iter().enumerate() {
                prop_assert_eq!(biased.get(r, c), x.get(r, c) + bc);
            }
        }
    }
}

/// The slice of `a` that output row `i` depends on, as a matrix of its
/// own: row `i` for `matmul` / `matmul_a_bt`, column `i` for `matmul_at_b`.
fn single_row_operand(a: &Matrix, variant: usize, i: usize) -> Matrix {
    if variant == 1 {
        let col = (0..a.rows()).map(|r| a.get(r, i)).collect();
        Matrix::from_vec(a.rows(), 1, col)
    } else {
        Matrix::from_vec(1, a.cols(), a.row(i).to_vec())
    }
}

/// The documented chain for one output element of every product: one
/// accumulator over ascending `k` from `init`, fused on the SIMD backend,
/// product-then-add on the scalar one — no trace of the 256-step blocking.
fn matmul_chain(a_row: &[f32], b: &Matrix, j: usize, init: f32, simd: bool) -> f32 {
    let mut acc = init;
    for (kk, &av) in a_row.iter().enumerate() {
        let bv = b.get(kk, j);
        acc = if simd {
            av.mul_add(bv, acc)
        } else {
            acc + av * bv
        };
    }
    acc
}

/// `m`'s operand of a variant materialised: `a` itself for `matmul` and
/// `matmul_a_bt`, `aᵀ` for `matmul_at_b`; and `b`'s, `bᵀ` for
/// `matmul_a_bt`. The relation: every variant is bitwise `matmul` on these.
fn materialised(a: &Matrix, b: &Matrix, variant: usize) -> (Matrix, Matrix) {
    match VARIANTS[variant] {
        Transpose::None => (a.clone(), b.clone()),
        Transpose::A => (a.transpose(), b.clone()),
        Transpose::B => (a.clone(), b.transpose()),
    }
}

/// Every GEMM contract on the shapes that reach the kernels' edges: shared
/// dimension 7 (no full SIMD step), 64, 100, 300 and 1024 (two and four
/// 256-step blocks); `m` off the 8/6/4/2-row tile heights; `n` off the
/// 8-lane vector, the 16-column micro-panel and the 48-column tile. The
/// second half of the list walks `m` across the row count at which
/// `matmul` stops reading `B` in place and packs it (16 | 17), with `k % 4
/// ≠ 0` and `n % 8 ≠ 0`, below and above the pack-free kernel's 256-column
/// block: every row of every product must still be the one-row product,
/// and every element the transcribed chain on the materialised operands.
///
/// Last, the overwriting entries must not depend on what their output
/// held: over NaN they equal the product on zeros, for shared dimensions
/// on both sides of the 256-step block whose first visit starts from zero
/// and whose later visits continue from the stored value.
#[test]
fn boundary_shapes_hold_every_gemm_contract() {
    let shapes = [
        (13, 7, 35),
        (11, 64, 19),
        (141, 100, 37),
        (7, 300, 53),
        (9, 1024, 50),
        (1, 1024, 3),
        (1, 103, 37),
        (2, 259, 261),
        (6, 103, 37),
        (15, 103, 37),
        (16, 259, 261),
        (17, 259, 261),
        (32, 103, 37),
    ];
    for (si, &(m, s, n)) in shapes.iter().enumerate() {
        for variant in 0..3 {
            let (a, b) = operands(variant, m, s, n, 17 * si as u64 + variant as u64);
            let (am, bm) = materialised(&a, &b, variant);
            let what = format!("variant {variant} {m}x{s}x{n}");
            let mut by_backend = Vec::new();
            for backend in [Backend::Auto, Backend::Scalar] {
                let what = format!("{what} {backend:?}");
                let simd = backend == Backend::Auto && summit_tensor::simd::active();
                let mut serial = Matrix::zeros(m, n);
                run(&a, &b, &mut serial, variant, 1, backend);

                // Pooled = serial, bitwise, at every part count.
                for parts in 2..=8 {
                    let mut pooled = Matrix::zeros(m, n);
                    run(&a, &b, &mut pooled, variant, parts, backend);
                    assert_eq!(pooled.as_slice(), serial.as_slice(), "{what} parts {parts}");
                }

                // Row i of the batched product = the one-row product.
                let row_step = if m <= 32 { 1 } else { m.div_ceil(5) };
                for i in (0..m).step_by(row_step) {
                    let mut one = Matrix::zeros(1, n);
                    let a_i = single_row_operand(&a, variant, i);
                    run(&a_i, &b, &mut one, variant, 1, backend);
                    assert_eq!(one.as_slice(), serial.row(i), "{what} row {i}");
                }

                // The documented chain, transcribed, on the materialised
                // operands.
                for i in 0..m {
                    for j in 0..n {
                        let want = matmul_chain(am.row(i), &bm, j, 0.0, simd);
                        let got = serial.get(i, j);
                        assert_eq!(got.to_bits(), want.to_bits(), "{what} ({i},{j})");
                    }
                }
                by_backend.push(serial);
            }
            assert_close(&by_backend[0], &by_backend[1], s, &what);
        }
    }

    for (si, s) in [1usize, 255, 256, 257, 600].into_iter().enumerate() {
        for variant in 0..3 {
            let (a, b) = operands(variant, 13, s, 35, 90 + si as u64);
            for backend in [Backend::Auto, Backend::Scalar] {
                let mut on_zeros = Matrix::zeros(13, 35);
                run(&a, &b, &mut on_zeros, variant, 1, backend);
                for parts in 1..=8 {
                    let mut over_nan = Matrix::from_vec(13, 35, vec![f32::NAN; 13 * 35]);
                    run(&a, &b, &mut over_nan, variant, parts, backend);
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&over_nan),
                        bits(&on_zeros),
                        "variant {variant} over NaN, shared {s} {backend:?} parts {parts}"
                    );
                }
            }
        }
    }
}

/// Output rows around the register-tile heights (8, 6, 4, 2) and the
/// 16-row switch to the pack-free `matmul`.
const REL_ROWS: [usize; 12] = [1, 2, 3, 5, 6, 7, 8, 9, 15, 16, 17, 33];
/// Output columns around the 16-column panel and the 48-column tile.
const REL_COLS: [usize; 9] = [1, 2, 15, 16, 17, 47, 48, 49, 97];
/// Shared dimensions 1, 2 and 16 and around the 256-step block.
const REL_SHARED: [usize; 8] = [1, 2, 15, 16, 17, 255, 256, 257];

/// One case of the relation: on `backend` at `parts`, `matmul_at_b` and
/// `matmul_a_bt` are bitwise `matmul` on the materialised transpose, both
/// overwriting and accumulating (`β = 1`) into the same starting output;
/// and the accumulating form is each element's chain continued from the
/// stored value, transcribed.
fn check_relation(m: usize, s: usize, n: usize, seed: u64, backend: Backend, parts: usize) {
    let simd = backend != Backend::Scalar && summit_tensor::simd::active();
    let start = mat(m, n, seed + 7);
    for variant in [1, 2] {
        let (a, b) = operands(variant, m, s, n, seed + variant as u64);
        let (am, bm) = materialised(&a, &b, variant);
        for accumulate in [false, true] {
            let what =
                format!("variant {variant} {m}x{s}x{n} {backend:?} parts {parts} acc {accumulate}");
            let (mut got, mut want) = (start.clone(), start.clone());
            a.gemm_into_parts(&b, VARIANTS[variant], &mut got, parts, backend, accumulate);
            am.gemm_into_parts(&bm, Transpose::None, &mut want, 1, backend, accumulate);
            assert_eq!(got.as_slice(), want.as_slice(), "{what}");
            if accumulate && s <= 17 {
                for i in 0..m {
                    for j in 0..n {
                        let chain = matmul_chain(am.row(i), &bm, j, start.get(i, j), simd);
                        assert_eq!(got.get(i, j).to_bits(), chain.to_bits(), "{what} ({i},{j})");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The relation on tail-hitting shapes, on every backend, at parts
    /// 1–4.
    #[test]
    fn transposed_products_are_matmul_on_the_materialised_transpose(
        m in (0..REL_ROWS.len()).prop_map(|i| REL_ROWS[i]),
        s in (0..REL_SHARED.len()).prop_map(|i| REL_SHARED[i]),
        n in (0..REL_COLS.len()).prop_map(|i| REL_COLS[i]),
        seed in 0u64..1000,
    ) {
        for backend in [Backend::Scalar, Backend::Avx2, Backend::Auto] {
            for parts in 1..=4 {
                check_relation(m, s, n, seed, backend, parts);
            }
        }
    }
}

/// The relation at the benchmark's training shapes small enough for a
/// debug build: the output layer's products at batch 64, and every hidden
/// and output layer's at `train_sync`'s batch of 2.
#[test]
fn the_relation_holds_at_the_training_shapes() {
    // (rows of the output, shared dimension, columns of the output)
    let shapes = [
        (64, 16, 1024),
        (1024, 64, 16),
        (2, 1024, 1024),
        (2, 16, 1024),
        (1024, 2, 1024),
        (256, 2, 1024),
        (1024, 2, 16),
    ];
    for (si, &(m, s, n)) in shapes.iter().enumerate() {
        for backend in [Backend::Scalar, Backend::Avx2, Backend::Auto] {
            check_relation(m, s, n, 300 + si as u64, backend, 2);
        }
    }
}

/// Row `i` of an `M`-row `matmul_a_bt` is bitwise the one-row product for
/// every `M` up to the 16-row switch of `matmul` and past it, so batched
/// serving and the backward pass see one chain whatever the batch.
#[test]
fn a_bt_rows_are_the_one_row_product() {
    let (s, n) = (259, 53);
    let b = mat(n, s, 11);
    for m in (1..=17).chain([64]) {
        let a = mat(m, s, 100 + m as u64);
        for backend in [Backend::Scalar, Backend::Avx2, Backend::Auto] {
            let mut all = Matrix::zeros(m, n);
            run(&a, &b, &mut all, 2, 1, backend);
            for i in 0..m {
                let mut one = Matrix::zeros(1, n);
                run(&single_row_operand(&a, 2, i), &b, &mut one, 2, 1, backend);
                assert_eq!(one.as_slice(), all.row(i), "M = {m} row {i} {backend:?}");
            }
        }
    }
}

/// Announce once per process that the width-agreement property has nothing
/// to compare on this host.
fn wide_or_skip() -> bool {
    static SKIP: std::sync::Once = std::sync::Once::new();
    let wide = summit_tensor::simd::wide();
    if !wide {
        SKIP.call_once(|| eprintln!("skip: no AVX-512 on this host, one SIMD width to compare"));
    }
    wide
}

/// Shared dimensions off the 8-lane step and on both sides of the 256-step
/// block.
const SHARED: [usize; 11] = [1, 7, 9, 63, 64, 65, 100, 255, 256, 257, 515];
/// Output columns off 32, 16 and 8, below and across a 48-column slice.
const COLS: [usize; 14] = [1, 7, 8, 9, 15, 16, 17, 31, 33, 47, 48, 49, 97, 261];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The 512-bit kernels are bitwise the 256-bit kernels: all three GEMMs,
    /// parts 1–4. The shapes reach every tail of both
    /// widths — `n` off 48, 16 and 8 columns, the shared dimension off the
    /// 8-lane step and across the 256-step block, `m` off every tile
    /// height and across the row count where `matmul` stops reading `B` in
    /// place.
    #[test]
    fn wide_kernels_are_bitwise_the_avx2_kernels(
        m in 1usize..=27,
        s in (0..SHARED.len()).prop_map(|i| SHARED[i]),
        n in (0..COLS.len()).prop_map(|i| COLS[i]),
        variant in 0usize..3,
        seed in 0u64..1000,
    ) {
        if !wide_or_skip() {
            return Ok(());
        }
        let (a, b) = operands(variant, m, s, n, seed);
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for parts in 1..=4 {
            let mut wide = Matrix::zeros(m, n);
            let mut narrow = Matrix::zeros(m, n);
            run(&a, &b, &mut wide, variant, parts, Backend::Auto);
            run(&a, &b, &mut narrow, variant, parts, Backend::Avx2);
            prop_assert_eq!(
                bits(&wide),
                bits(&narrow),
                "variant {} {}x{}x{} parts {}",
                variant, m, s, n, parts
            );
        }
    }
}
