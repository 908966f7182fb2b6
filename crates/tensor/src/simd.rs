//! Thin portable SIMD wrappers over `std::arch` x86-64: [`F32x8`] (AVX2+FMA,
//! 256 bits) and [`F32x16`] (AVX-512F, 512 bits).
//!
//! The GEMM microkernels and BLAS-1 hot loops in this crate are written
//! against the [`Lanes`] trait — a register of `f32` lanes with fused
//! multiply-add and masked partial loads/stores — instead of raw
//! intrinsics, so exactly one module knows the ISA. The GEMM tiles are
//! generic over it and compile once per width; the BLAS-1 loops
//! and `matmul_a_bt`'s lane-wise chains stay on [`F32x8`]. The dispatch
//! policy is:
//!
//! * [`active`] reports (once, cached) whether the vector path may run:
//!   x86-64 with AVX2 **and** FMA detected at runtime, and the
//!   `force-scalar` cargo feature off. Every kernel keeps the scalar path
//!   as the guaranteed fallback; callers read `active()` once per
//!   operation so a single call never mixes backends.
//! * [`wide`] reports (once, cached) whether the GEMMs may use 512 bits:
//!   `active()` plus AVX-512 F and VL detected at runtime. There is no
//!   setting: the width is the host's.
//! * On non-x86-64 targets both types fall back to plain arrays (compiled,
//!   never selected — `active()` is `false` there), so the kernels stay
//!   portable source.
//!
//! **Determinism contract** (see DESIGN.md): the scalar path is the
//! cross-platform reference; the SIMD path is deterministic *per ISA
//! family* — the same bits at every pool size, and **the same bits at 256
//! and 512 bits**, because a wider register only computes more output
//! elements side by side and never changes one element's chain. SIMD bits
//! differ from scalar bits within a documented ULP bound because FMA skips
//! the intermediate product rounding and the lane reductions associate
//! differently.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Lane count of [`F32x8`].
pub const LANES: usize = 8;

/// Whether the AVX2+FMA vector path may be used on this host. Cached after
/// the first call; `false` on non-x86-64 targets and under the
/// `force-scalar` feature (the CI job that keeps the fallback tested).
pub fn active() -> bool {
    #[cfg(any(feature = "force-scalar", not(target_arch = "x86_64")))]
    {
        false
    }
    #[cfg(all(not(feature = "force-scalar"), target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
}

/// Whether the GEMMs may run their 512-bit kernels on this host: [`active`]
/// and AVX-512 F and VL detected at runtime. Cached after the first call.
pub fn wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static WIDE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        active()
            && *WIDE.get_or_init(|| {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A register of `f32` lanes: the one interface the GEMM tiles are written
/// against, so a tile compiles at either width without a second source.
///
/// # Safety
/// Every method is `unsafe`: on x86-64 the caller must guarantee the
/// executing CPU supports the type's instruction set ([`active`] for
/// [`F32x8`], [`wide`] for [`F32x16`]) and must call from within a
/// matching `#[target_feature]` context for the intrinsics to compile to
/// single instructions. Pointer arguments must be valid for the reads or
/// writes each method names.
#[allow(clippy::missing_safety_doc)]
pub trait Lanes: Copy {
    /// Lanes per register.
    const LANES: usize;
    /// All lanes zero.
    unsafe fn zero() -> Self;
    /// All lanes `v`.
    unsafe fn splat(v: f32) -> Self;
    /// Unaligned load of `LANES` values from `p`.
    unsafe fn load(p: *const f32) -> Self;
    /// Unaligned store of `LANES` values to `p`.
    unsafe fn store(self, p: *mut f32);
    /// The first `len.min(LANES)` lanes from `p`, the rest zero; only those
    /// `len` values need be readable.
    unsafe fn load_n(p: *const f32, len: usize) -> Self;
    /// Store the first `len.min(LANES)` lanes to `p`; nothing past them is
    /// written.
    unsafe fn store_n(self, p: *mut f32, len: usize);
    /// Fused `self * m + a`, one rounding per lane.
    unsafe fn mul_add(self, m: Self, a: Self) -> Self;
    /// Lane-wise sum.
    unsafe fn add(self, o: Self) -> Self;
}

/// Eight `f32` lanes. On x86-64 this is an AVX `__m256`; elsewhere a plain
/// array so the kernels compile unchanged (and are never selected). Safety
/// contract: [`Lanes`]'s, with AVX2+FMA ([`active`]).
#[derive(Debug, Clone, Copy)]
#[cfg(target_arch = "x86_64")]
pub struct F32x8(__m256);

/// Sixteen `f32` lanes. On x86-64 this is an AVX-512 `__m512`; elsewhere a
/// plain array. Safety contract: [`Lanes`]'s, with AVX-512F ([`wide`]).
#[derive(Debug, Clone, Copy)]
#[cfg(target_arch = "x86_64")]
pub struct F32x16(__m512);

#[derive(Debug, Clone, Copy)]
#[cfg(not(target_arch = "x86_64"))]
pub struct F32x8([f32; 8]);

#[derive(Debug, Clone, Copy)]
#[cfg(not(target_arch = "x86_64"))]
pub struct F32x16([f32; 16]);

#[cfg(target_arch = "x86_64")]
impl Lanes for F32x8 {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x8(_mm256_setzero_ps())
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        F32x8(_mm256_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F32x8(_mm256_loadu_ps(p))
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self.0)
    }

    #[inline(always)]
    unsafe fn load_n(p: *const f32, len: usize) -> Self {
        if len >= 8 {
            return Self::load(p);
        }
        // Masked-off lanes are neither read nor faulted.
        F32x8(_mm256_maskload_ps(p, mask8(len)))
    }

    #[inline(always)]
    unsafe fn store_n(self, p: *mut f32, len: usize) {
        if len >= 8 {
            return self.store(p);
        }
        _mm256_maskstore_ps(p, mask8(len), self.0)
    }

    #[inline(always)]
    unsafe fn mul_add(self, m: Self, a: Self) -> Self {
        F32x8(_mm256_fmadd_ps(self.0, m.0, a.0))
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        F32x8(_mm256_add_ps(self.0, o.0))
    }
}

/// The AVX2 lane mask selecting lanes `0 .. len` (`len < 8`).
///
/// # Safety
/// As [`Lanes`] for [`F32x8`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn mask8(len: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(len as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

#[cfg(target_arch = "x86_64")]
impl Lanes for F32x16 {
    const LANES: usize = 16;

    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x16(_mm512_setzero_ps())
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        F32x16(_mm512_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F32x16(_mm512_loadu_ps(p))
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm512_storeu_ps(p, self.0)
    }

    #[inline(always)]
    unsafe fn load_n(p: *const f32, len: usize) -> Self {
        if len >= 16 {
            return Self::load(p);
        }
        // Masked-off lanes are neither read nor faulted.
        F32x16(_mm512_maskz_loadu_ps((1 << len) - 1, p))
    }

    #[inline(always)]
    unsafe fn store_n(self, p: *mut f32, len: usize) {
        if len >= 16 {
            return self.store(p);
        }
        _mm512_mask_storeu_ps(p, (1 << len) - 1, self.0)
    }

    #[inline(always)]
    unsafe fn mul_add(self, m: Self, a: Self) -> Self {
        F32x16(_mm512_fmadd_ps(self.0, m.0, a.0))
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        F32x16(_mm512_add_ps(self.0, o.0))
    }
}

// The safety contract for every method is the type-level one on `Lanes`
// (AVX2+FMA verified via `active()`, called inside a `target_feature`
// context); per-method `# Safety` sections would repeat it verbatim.
#[allow(clippy::missing_safety_doc)]
#[cfg(target_arch = "x86_64")]
impl F32x8 {
    /// Lane-wise product.
    #[inline(always)]
    pub unsafe fn mul(self, o: Self) -> Self {
        F32x8(_mm256_mul_ps(self.0, o.0))
    }

    /// Lane-wise maximum (returns the second operand on NaN, matching
    /// `f32::max`'s non-NaN result for a NaN input against a number).
    #[inline(always)]
    pub unsafe fn max(self, o: Self) -> Self {
        F32x8(_mm256_max_ps(o.0, self.0))
    }

    /// `self` with `+0.0` in every lane whose `key` is `<= 0.0`. The
    /// compare is ordered, so a NaN `key` keeps its lane — the select
    /// `if key <= 0.0 { 0.0 } else { self }`, lane by lane.
    #[inline(always)]
    pub unsafe fn zero_where_le_zero(self, key: Self) -> Self {
        let le = _mm256_cmp_ps::<_CMP_LE_OQ>(key.0, _mm256_setzero_ps());
        F32x8(_mm256_andnot_ps(le, self.0))
    }

    /// Horizontal sum with a fixed pairwise tree:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — part of the per-ISA
    /// determinism contract for reductions.
    #[inline(always)]
    pub unsafe fn hsum(self) -> f32 {
        let lo = _mm256_castps256_ps128(self.0);
        let hi = _mm256_extractf128_ps(self.0, 1);
        let q = _mm_add_ps(lo, hi); // (l0+l4, l1+l5, l2+l6, l3+l7)
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q)); // (q0+q2, q1+q3, ..)
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(s)
    }
}

/// The array fallback of one lane type: plain per-lane arithmetic (the
/// same contract, never selected at run time).
#[cfg(not(target_arch = "x86_64"))]
macro_rules! array_lanes {
    ($t:ident, $n:expr) => {
        impl Lanes for $t {
            const LANES: usize = $n;

            #[inline(always)]
            unsafe fn zero() -> Self {
                $t([0.0; $n])
            }

            #[inline(always)]
            unsafe fn splat(v: f32) -> Self {
                $t([v; $n])
            }

            #[inline(always)]
            unsafe fn load(p: *const f32) -> Self {
                Self::load_n(p, $n)
            }

            #[inline(always)]
            unsafe fn store(self, p: *mut f32) {
                self.store_n(p, $n)
            }

            #[inline(always)]
            unsafe fn load_n(p: *const f32, len: usize) -> Self {
                $t(std::array::from_fn(
                    |i| if i < len { *p.add(i) } else { 0.0 },
                ))
            }

            #[inline(always)]
            unsafe fn store_n(self, p: *mut f32, len: usize) {
                for (i, v) in self.0.iter().enumerate().take(len) {
                    *p.add(i) = *v;
                }
            }

            #[inline(always)]
            unsafe fn mul_add(self, m: Self, a: Self) -> Self {
                $t(std::array::from_fn(|i| self.0[i].mul_add(m.0[i], a.0[i])))
            }

            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                $t(std::array::from_fn(|i| self.0[i] + o.0[i]))
            }
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
array_lanes!(F32x8, 8);
#[cfg(not(target_arch = "x86_64"))]
array_lanes!(F32x16, 16);

// Same type-level safety contract as the x86-64 impl (and this fallback
// is plain safe arithmetic).
#[allow(clippy::missing_safety_doc)]
#[cfg(not(target_arch = "x86_64"))]
impl F32x8 {
    #[inline(always)]
    pub unsafe fn mul(self, o: Self) -> Self {
        F32x8(std::array::from_fn(|i| self.0[i] * o.0[i]))
    }

    #[inline(always)]
    pub unsafe fn max(self, o: Self) -> Self {
        F32x8(std::array::from_fn(|i| {
            if self.0[i].is_nan() || o.0[i] > self.0[i] {
                o.0[i]
            } else {
                self.0[i]
            }
        }))
    }

    #[inline(always)]
    pub unsafe fn zero_where_le_zero(self, key: Self) -> Self {
        F32x8(std::array::from_fn(|i| {
            if key.0[i] <= 0.0 {
                0.0
            } else {
                self.0[i]
            }
        }))
    }

    /// Same pairwise tree as the x86 path.
    #[inline(always)]
    pub unsafe fn hsum(self) -> f32 {
        let l = self.0;
        ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
    }
}

/// The vector dot product behind [`crate::dot`] and [`crate::l2_norm`]:
/// four independent eight-lane FMA chains over 32-element blocks, then an
/// eight-lane tail chain into the first accumulator, a fixed pairwise
/// reduction, and a scalar `mul_add` tail.
///
/// # Safety
/// The executing CPU must support AVX2+FMA (guaranteed by [`active`]).
///
/// # Panics
/// Debug-asserts equal lengths (the safe wrappers check).
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub unsafe fn dot_dispatch(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    unsafe {
        let mut acc0 = F32x8::zero();
        let mut acc1 = F32x8::zero();
        let mut acc2 = F32x8::zero();
        let mut acc3 = F32x8::zero();
        let mut i = 0;
        while i + 4 * LANES <= n {
            acc0 = F32x8::load(ap.add(i)).mul_add(F32x8::load(bp.add(i)), acc0);
            acc1 = F32x8::load(ap.add(i + 8)).mul_add(F32x8::load(bp.add(i + 8)), acc1);
            acc2 = F32x8::load(ap.add(i + 16)).mul_add(F32x8::load(bp.add(i + 16)), acc2);
            acc3 = F32x8::load(ap.add(i + 24)).mul_add(F32x8::load(bp.add(i + 24)), acc3);
            i += 4 * LANES;
        }
        while i + LANES <= n {
            acc0 = F32x8::load(ap.add(i)).mul_add(F32x8::load(bp.add(i)), acc0);
            i += LANES;
        }
        let mut sum = acc0.add(acc1).add(acc2.add(acc3)).hsum();
        while i < n {
            sum = (*ap.add(i)).mul_add(*bp.add(i), sum);
            i += 1;
        }
        sum
    }
}

/// Vectorized `y += alpha * x` (fused per element; the scalar fallback's
/// `y + alpha*x` rounds the product first — documented ULP difference).
///
/// # Safety
/// The executing CPU must support AVX2+FMA (guaranteed by [`active`]).
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub unsafe fn axpy_dispatch(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    unsafe {
        let av = F32x8::splat(alpha);
        let mut i = 0;
        while i + LANES <= n {
            av.mul_add(F32x8::load(xp.add(i)), F32x8::load(yp.add(i)))
                .store(yp.add(i));
            i += LANES;
        }
        while i < n {
            *yp.add(i) = alpha.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }
}

/// Vectorized in-place scale — bit-identical to the scalar loop (one
/// multiply per element, no reassociation).
///
/// # Safety
/// The executing CPU must support AVX2+FMA (guaranteed by [`active`]).
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub unsafe fn scale_dispatch(a: &mut [f32], s: f32) {
    let n = a.len();
    let ap = a.as_mut_ptr();
    unsafe {
        let sv = F32x8::splat(s);
        let mut i = 0;
        while i + LANES <= n {
            F32x8::load(ap.add(i)).mul(sv).store(ap.add(i));
            i += LANES;
        }
        while i < n {
            *ap.add(i) *= s;
            i += 1;
        }
    }
}

/// Vectorized in-place ReLU — bit-identical to the scalar `v.max(0.0)`
/// loop (`max` with a constant, no reassociation).
///
/// # Safety
/// The executing CPU must support AVX2+FMA (guaranteed by [`active`]).
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub unsafe fn relu_dispatch(a: &mut [f32]) {
    let n = a.len();
    let ap = a.as_mut_ptr();
    unsafe {
        let z = F32x8::zero();
        let mut i = 0;
        while i + LANES <= n {
            F32x8::load(ap.add(i)).max(z).store(ap.add(i));
            i += LANES;
        }
        while i < n {
            *ap.add(i) = (*ap.add(i)).max(0.0);
            i += 1;
        }
    }
}

/// Vectorized ReLU backward: `g = if o <= 0.0 { 0.0 } else { g }` per
/// element as a branch-free select — bit-identical to that scalar select
/// (a NaN `o` keeps its gradient, `±0.0` zeroes it).
///
/// # Safety
/// The executing CPU must support AVX2+FMA (guaranteed by [`active`]).
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub unsafe fn relu_backward_dispatch(out: &[f32], grad: &mut [f32]) {
    assert_eq!(out.len(), grad.len());
    let n = grad.len();
    let (op, gp) = (out.as_ptr(), grad.as_mut_ptr());
    // SAFETY: AVX2+FMA per this function's contract; every index is below
    // `n`, the (asserted equal) length of both slices.
    unsafe {
        let mut i = 0;
        while i + LANES <= n {
            F32x8::load(gp.add(i))
                .zero_where_le_zero(F32x8::load(op.add(i)))
                .store(gp.add(i));
            i += LANES;
        }
        while i < n {
            *gp.add(i) = if *op.add(i) <= 0.0 { 0.0 } else { *gp.add(i) };
            i += 1;
        }
    }
}

/// Vectorized `row += bias` for each row of a row-major chunk —
/// bit-identical to the scalar loop (one add per element).
///
/// # Safety
/// The executing CPU must support AVX2+FMA (guaranteed by [`active`]).
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub unsafe fn add_bias_dispatch(chunk: &mut [f32], bias: &[f32]) {
    let cols = bias.len();
    let bp = bias.as_ptr();
    for row in chunk.chunks_exact_mut(cols) {
        let rp = row.as_mut_ptr();
        unsafe {
            let mut i = 0;
            while i + LANES <= cols {
                F32x8::load(rp.add(i))
                    .add(F32x8::load(bp.add(i)))
                    .store(rp.add(i));
                i += LANES;
            }
            while i < cols {
                *rp.add(i) += *bp.add(i);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable() {
        // Whatever the host supports, repeated queries agree (cached).
        assert_eq!(active(), active());
        #[cfg(feature = "force-scalar")]
        assert!(!active(), "force-scalar must disable the vector path");
    }

    #[test]
    fn dot_dispatch_matches_scalar_within_ulp_bound() {
        if !active() {
            return;
        }
        for n in [1usize, 7, 8, 9, 31, 32, 33, 100, 257] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
            let scalar: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let simd = unsafe { dot_dispatch(&a, &b) };
            let bound = (n as f32) * f32::EPSILON + 1e-6;
            assert!(
                (simd - scalar).abs() <= bound.max(scalar.abs() * 1e-4),
                "n={n}: simd {simd} vs scalar {scalar}"
            );
        }
    }
}
