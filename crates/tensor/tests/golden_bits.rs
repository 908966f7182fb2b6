//! Golden bits: the exact output of every kernel, pinned.
//!
//! The other kernel tests pin relative agreements (SIMD within a ULP bound
//! of scalar, pooled = serial, 512 bits = 256 bits), which a rewrite that
//! reorders one FMA chain on every path at once would still pass. Here each
//! kernel's outputs over shapes that reach every tile, remainder and block
//! boundary are hashed (FNV-1a over `f32::to_bits`) and compared with a
//! constant, one per backend:
//!
//! * the GEMMs on `Backend::Scalar` always, and on the SIMD kernels when
//!   the host has them — at the host's width (`Backend::Auto`) and at 256
//!   bits (`Backend::Avx2`), which by contract give the same bits;
//! * the BLAS-1 and elementwise kernels on whichever backend the host
//!   selects (`force-scalar` runs their scalar leg);
//! * `relu` and `relu_backward` over NaN, ±0, ±∞ and subnormal inputs,
//!   with one constant for both backends.
//!
//! Shapes: the shared dimension on both sides of the 256-step block (for
//! `matmul_at_b` 37 and 130, around the 64-row block its SIMD kernel once
//! had), with `k % 4` and `k % 8` tails; column counts past the 48-column `matmul` slice with one, two and
//! three vectors left over, and past the 256-column pack-free block; row
//! counts 1–17 and 70 (the pack-free `matmul` up to 16 rows, every
//! register-tile remainder after); BLAS-1 lengths 0–40.

use summit_tensor::matrix::{Backend, Transpose};
use summit_tensor::{ops, simd, Matrix};

/// FNV-1a over the bit patterns of every value fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, xs: &[f32]) {
        for x in xs {
            for byte in x.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// Deterministic operands from integer arithmetic only (no libm), with
/// exact zeros and both signs.
fn values(len: usize, seed: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let v = seed
                .wrapping_add(i)
                .wrapping_mul(6_364_136_223_846_793_005)
                .rotate_left(29);
            ((v % 4001) as f32 - 2000.0) * 7.5e-4
        })
        .collect()
}

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, values(rows * cols, seed))
}

const ROWS: [usize; 18] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 70,
];

/// One hash per GEMM entry on `backend`, in the order of `GEMM_NAMES`.
fn gemm_hashes(backend: Backend) -> [u64; 5] {
    let mut h: [Fnv; 5] = std::array::from_fn(|_| Fnv::new());
    for (si, &s) in [37usize, 259].iter().enumerate() {
        for &m in &ROWS {
            // `matmul`: m × s · s × n, pack-free at m ≤ 16, packed after.
            for &n in &[53usize, 68, 88, 261] {
                let (a, b) = (mat(m, s, 1 + m as u64), mat(s, n, 2 + n as u64));
                let mut out = mat(m, n, 3);
                a.gemm_into_parts(&b, Transpose::None, &mut out, 1, backend, false);
                h[if m <= 16 { 1 } else { 0 }].eat(out.as_slice());
            }
            // `matmul_a_bt`: m × s · (n × s)ᵀ.
            for &n in &[53usize, 100] {
                let (a, b) = (mat(m, s, 4 + m as u64), mat(n, s, 5 + n as u64));
                let mut out = mat(m, n, 6);
                a.gemm_into_parts(&b, Transpose::B, &mut out, 1, backend, false);
                h[4].eat(out.as_slice());
            }
        }
        // `matmul_at_b`: (rows × m)ᵀ · rows × n with `m` output rows and
        // a shared dimension of 37 or 130 rows.
        let rows = [37usize, 130][si];
        for &m in &ROWS {
            for &n in &[53usize, 88] {
                let (a, b) = (mat(rows, m, 7 + m as u64), mat(rows, n, 8 + n as u64));
                let mut out = mat(m, n, 9);
                a.gemm_into_parts(&b, Transpose::A, &mut out, 1, backend, false);
                h[2].eat(out.as_slice());
                let mut acc = mat(m, n, 10);
                a.gemm_into_parts(&b, Transpose::A, &mut acc, 1, backend, true);
                h[3].eat(acc.as_slice());
            }
        }
    }
    h.map(|f| f.0)
}

const GEMM_NAMES: [&str; 5] = [
    "matmul",
    "matmul (≤ 16 rows)",
    "matmul_at_b",
    "matmul_at_b (accumulate)",
    "matmul_a_bt",
];

/// One hash per BLAS-1 or elementwise kernel, in the order of `BLAS1_NAMES`.
fn blas1_hashes() -> [u64; 7] {
    let mut h: [Fnv; 7] = std::array::from_fn(|_| Fnv::new());
    for len in 0..=40usize {
        let (x, y) = (values(len, 11 + len as u64), values(len, 12 + len as u64));
        h[0].eat(&[summit_tensor::dot(&x, &y)]);
        h[1].eat(&[summit_tensor::l2_norm(&x)]);
        let mut z = y.clone();
        summit_tensor::axpy(-0.625, &x, &mut z);
        h[2].eat(&z);
        let mut z = x.clone();
        summit_tensor::scale(&mut z, 1.375);
        h[3].eat(&z);
        if len == 0 {
            continue;
        }
        let mut r = Matrix::from_vec(1, len, x.clone());
        ops::relu_inplace(&mut r);
        h[4].eat(r.as_slice());
        let mut g = Matrix::from_vec(1, len, y.clone());
        ops::relu_backward(&Matrix::from_vec(1, len, x.clone()), &mut g);
        h[5].eat(g.as_slice());
        let mut b = mat(3, len, 13);
        ops::add_bias(&mut b, &x);
        h[6].eat(b.as_slice());
    }
    h.map(|f| f.0)
}

const BLAS1_NAMES: [&str; 7] = [
    "dot",
    "l2_norm",
    "axpy",
    "scale",
    "relu",
    "relu_backward",
    "add_bias",
];

const GEMM_SCALAR: [u64; 5] = [
    0xc125_fbef_2b2c_c095,
    0xa992_6d31_1a3d_16a1,
    0x4bf2_6c0a_934b_22b1,
    0xb122_0139_4d54_c577,
    0x05c2_9756_1845_c1f2,
];
const GEMM_SIMD: [u64; 5] = [
    0x4194_1024_a01c_4a99,
    0x34ae_ed71_562b_0701,
    0xa5e6_bedc_f8d9_fae1,
    0x758e_ee3e_d86d_c8f6,
    0x650a_5163_69c4_af1d,
];
const BLAS1_SCALAR: [u64; 7] = [
    0xd885_bfa8_8760_7957,
    0xa327_cd59_edb5_4add,
    0x598d_3ede_2878_c856,
    0x74b5_662b_6238_c56b,
    0x1890_e298_7c8e_c6cc,
    0x95d3_f250_0426_6e8e,
    0x10cb_f8ec_9648_7b25,
];
const BLAS1_SIMD: [u64; 7] = [
    0xd33c_1eee_cb7f_f876,
    0x00bd_3f3b_dafd_1721,
    0x8523_bd7b_4529_a715,
    0x74b5_662b_6238_c56b,
    0x1890_e298_7c8e_c6cc,
    0x95d3_f250_0426_6e8e,
    0x10cb_f8ec_9648_7b25,
];

/// NaN (two payloads, both signs), ±0, ±∞, subnormals, the smallest
/// normals and two plain numbers, for the ReLU pins.
const SPECIALS: [f32; 14] = [
    f32::NAN,
    -f32::NAN,
    f32::from_bits(0x7fc0_0001),
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    1.5,
    -2.5,
    f32::from_bits(1),
];

/// `relu` and `relu_backward` over rows of 1–40 special values, each value
/// landing in the vector lanes and in the scalar tail.
fn relu_special_hashes() -> [u64; 2] {
    let mut h: [Fnv; 2] = std::array::from_fn(|_| Fnv::new());
    for len in 1..=40usize {
        let x: Vec<f32> = (0..len)
            .map(|i| SPECIALS[(i + len) % SPECIALS.len()])
            .collect();
        let mut r = Matrix::from_vec(1, len, x.clone());
        ops::relu_inplace(&mut r);
        h[0].eat(r.as_slice());
        let mut g = Matrix::from_vec(1, len, values(len, 14 + len as u64));
        ops::relu_backward(&Matrix::from_vec(1, len, x), &mut g);
        h[1].eat(g.as_slice());
    }
    h.map(|f| f.0)
}

/// One constant for every backend: the scalar select and the vector lanes
/// agree on every special value.
const RELU_SPECIAL: [u64; 2] = [0x3869_0d56_f77a_a538, 0xc9d6_0b81_3ae4_4125];

fn check(leg: &str, names: &[&str], got: &[u64], want: &[u64]) {
    let diffs: Vec<String> = names
        .iter()
        .zip(got.iter().zip(want))
        .filter(|(_, (g, w))| g != w)
        .map(|(name, (g, w))| format!("{name}: {g:#018x} (pinned {w:#018x})"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{leg} bits changed:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn scalar_gemm_bits_are_pinned() {
    check(
        "scalar GEMM",
        &GEMM_NAMES,
        &gemm_hashes(Backend::Scalar),
        &GEMM_SCALAR,
    );
}

#[test]
fn simd_gemm_bits_are_pinned_at_every_width() {
    if !simd::active() {
        eprintln!("no AVX2+FMA on this host: SIMD GEMM leg skipped");
        return;
    }
    check(
        "SIMD GEMM (host width)",
        &GEMM_NAMES,
        &gemm_hashes(Backend::Auto),
        &GEMM_SIMD,
    );
    check(
        "SIMD GEMM (256 bits)",
        &GEMM_NAMES,
        &gemm_hashes(Backend::Avx2),
        &GEMM_SIMD,
    );
}

#[test]
fn blas1_bits_are_pinned() {
    let (leg, want) = if simd::active() {
        ("SIMD BLAS-1", &BLAS1_SIMD)
    } else {
        ("scalar BLAS-1", &BLAS1_SCALAR)
    };
    check(leg, &BLAS1_NAMES, &blas1_hashes(), want);
}

#[test]
fn relu_special_value_bits_are_pinned() {
    let leg = if simd::active() {
        "SIMD ReLU"
    } else {
        "scalar ReLU"
    };
    check(
        leg,
        &["relu", "relu_backward"],
        &relu_special_hashes(),
        &RELU_SPECIAL,
    );
}
