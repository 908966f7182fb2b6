//! Thin portable `f32x8` SIMD wrapper over `std::arch` x86-64 AVX2+FMA.
//!
//! The GEMM microkernels and BLAS-1 hot loops in this crate are written
//! against [`F32x8`] — eight `f32` lanes with fused multiply-add — instead
//! of raw intrinsics, so exactly one module knows the ISA. The dispatch
//! policy is:
//!
//! * [`active`] reports (once, cached) whether the vector path may run:
//!   x86-64 with AVX2 **and** FMA detected at runtime, and the
//!   `force-scalar` cargo feature off. Every kernel keeps the scalar
//!   4×-unrolled path as the guaranteed fallback; callers read `active()`
//!   once per operation so a single call never mixes backends.
//! * On non-x86-64 targets [`F32x8`] falls back to a plain `[f32; 8]`
//!   array (compiled, never selected — `active()` is `false` there), so
//!   the kernels stay portable source.
//!
//! **Determinism contract** (see DESIGN.md): the scalar path is the
//! cross-platform reference; the SIMD path is deterministic *per ISA* —
//! the same machine always produces the same bits at every pool size, but
//! SIMD bits differ from scalar bits within a documented ULP bound because
//! FMA skips the intermediate product rounding and the lane reductions
//! associate differently.
//!
//! The module also owns the **bf16 storage type** used by the
//! mixed-precision GEMM path: pure-Rust `u16` round-to-nearest-even
//! conversion (no dependencies), widening loads that convert eight bf16
//! values to `f32` lanes (exact — bf16 is a prefix of f32), and the
//! [`Element`] trait that lets one packed-panel kernel serve both storage
//! types.

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

/// Eight `f32` lanes. On x86-64 this is an AVX `__m256`; elsewhere a plain
/// array so the kernels compile unchanged (and are never selected).
///
/// # Safety
/// Every method is `unsafe`: on x86-64 the caller must guarantee the
/// executing CPU supports AVX2+FMA (i.e. [`active`] returned `true`) and
/// must call from within a `#[target_feature(enable = "avx2,fma")]`
/// context for the intrinsics to compile to single instructions.
#[derive(Debug, Clone, Copy)]
#[cfg(target_arch = "x86_64")]
pub struct F32x8(__m256);

#[derive(Debug, Clone, Copy)]
#[cfg(not(target_arch = "x86_64"))]
pub struct F32x8([f32; 8]);

// The safety contract for every method is the type-level one above
// (AVX2+FMA verified via `active()`, called inside a `target_feature`
// context); per-method `# Safety` sections would repeat it verbatim.
#[allow(clippy::missing_safety_doc)]
#[cfg(target_arch = "x86_64")]
impl F32x8 {
    /// All lanes zero.
    #[inline(always)]
    pub unsafe fn zero() -> Self {
        F32x8(_mm256_setzero_ps())
    }

    /// All lanes `v`.
    #[inline(always)]
    pub unsafe fn splat(v: f32) -> Self {
        F32x8(_mm256_set1_ps(v))
    }

    /// Unaligned load of eight lanes from `p`.
    ///
    /// # Safety
    /// `p` must be valid for eight `f32` reads.
    #[inline(always)]
    pub unsafe fn load(p: *const f32) -> Self {
        F32x8(_mm256_loadu_ps(p))
    }

    /// Widening load of eight bf16 values: each `u16` becomes the high half
    /// of an `f32` bit pattern — an exact conversion, no rounding.
    ///
    /// # Safety
    /// `p` must be valid for eight `u16` reads.
    #[inline(always)]
    pub unsafe fn load_bf16(p: *const u16) -> Self {
        let half = _mm_loadu_si128(p.cast());
        let wide = _mm256_cvtepu16_epi32(half);
        F32x8(_mm256_castsi256_ps(_mm256_slli_epi32(wide, 16)))
    }

    /// Unaligned store of eight lanes to `p`.
    ///
    /// # Safety
    /// `p` must be valid for eight `f32` writes.
    #[inline(always)]
    pub unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self.0)
    }

    /// Fused `self * m + a`, one rounding per lane.
    #[inline(always)]
    pub unsafe fn mul_add(self, m: Self, a: Self) -> Self {
        F32x8(_mm256_fmadd_ps(self.0, m.0, a.0))
    }

    /// Lane-wise sum.
    #[inline(always)]
    pub unsafe fn add(self, o: Self) -> Self {
        F32x8(_mm256_add_ps(self.0, o.0))
    }

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

// Same type-level safety contract as the x86-64 impl (and this fallback
// is plain safe arithmetic besides the raw pointer loads/stores).
#[allow(clippy::missing_safety_doc)]
#[cfg(not(target_arch = "x86_64"))]
impl F32x8 {
    #[inline(always)]
    pub unsafe fn zero() -> Self {
        F32x8([0.0; 8])
    }

    #[inline(always)]
    pub unsafe fn splat(v: f32) -> Self {
        F32x8([v; 8])
    }

    /// # Safety
    /// `p` must be valid for eight `f32` reads.
    #[inline(always)]
    pub unsafe fn load(p: *const f32) -> Self {
        let mut out = [0.0; 8];
        for (i, o) in out.iter_mut().enumerate() {
            *o = unsafe { *p.add(i) };
        }
        F32x8(out)
    }

    /// # Safety
    /// `p` must be valid for eight `u16` reads.
    #[inline(always)]
    pub unsafe fn load_bf16(p: *const u16) -> Self {
        let mut out = [0.0; 8];
        for (i, o) in out.iter_mut().enumerate() {
            *o = bf16_to_f32(unsafe { *p.add(i) });
        }
        F32x8(out)
    }

    /// # Safety
    /// `p` must be valid for eight `f32` writes.
    #[inline(always)]
    pub unsafe fn store(self, p: *mut f32) {
        for (i, v) in self.0.iter().enumerate() {
            unsafe { *p.add(i) = *v };
        }
    }

    #[inline(always)]
    pub unsafe fn mul_add(self, m: Self, a: Self) -> Self {
        let mut out = [0.0; 8];
        for i in 0..8 {
            out[i] = self.0[i].mul_add(m.0[i], a.0[i]);
        }
        F32x8(out)
    }

    #[inline(always)]
    pub unsafe fn add(self, o: Self) -> Self {
        let mut out = [0.0; 8];
        for i in 0..8 {
            out[i] = self.0[i] + o.0[i];
        }
        F32x8(out)
    }

    #[inline(always)]
    pub unsafe fn mul(self, o: Self) -> Self {
        let mut out = [0.0; 8];
        for i in 0..8 {
            out[i] = self.0[i] * o.0[i];
        }
        F32x8(out)
    }

    #[inline(always)]
    pub unsafe fn max(self, o: Self) -> Self {
        let mut out = [0.0; 8];
        for i in 0..8 {
            out[i] = if self.0[i].is_nan() || o.0[i] > self.0[i] {
                o.0[i]
            } else {
                self.0[i]
            };
        }
        F32x8(out)
    }

    /// Same pairwise tree as the x86 path.
    #[inline(always)]
    pub unsafe fn hsum(self) -> f32 {
        let l = self.0;
        ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
    }
}

/// Round an `f32` to bf16 storage with round-to-nearest-even. NaNs are
/// quieted (the payload's top mantissa bit is forced on) so a NaN never
/// rounds to infinity.
#[inline]
pub fn f32_to_bf16(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bit = (bits >> 16) & 1;
    ((bits.wrapping_add(0x7FFF + round_bit)) >> 16) as u16
}

/// Widen bf16 storage back to `f32` — exact, the stored bits become the
/// high half of the `f32` pattern.
#[inline]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits(u32::from(b) << 16)
}

/// A packed-panel storage element: `f32` for the full-precision path, bf16
/// (`u16`) for the mixed path. Panels are written with [`Element::pack`]
/// and read back (scalar or eight lanes at once) as `f32`, so one kernel
/// body serves both precisions with accumulation always in `f32`.
pub trait Element: Copy + Send + Sync + 'static {
    /// Convert an `f32` into storage (rounds for bf16).
    fn pack(v: f32) -> Self;
    /// Convert storage back to `f32` (exact for both types).
    fn to_f32(self) -> f32;
    /// Load eight consecutive storage values as `f32` lanes.
    ///
    /// # Safety
    /// `p` must be valid for eight reads; see [`F32x8`]'s safety contract.
    unsafe fn load8(p: *const Self) -> F32x8;
}

impl Element for f32 {
    #[inline(always)]
    fn pack(v: f32) -> Self {
        v
    }

    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline(always)]
    unsafe fn load8(p: *const Self) -> F32x8 {
        unsafe { F32x8::load(p) }
    }
}

impl Element for u16 {
    #[inline(always)]
    fn pack(v: f32) -> Self {
        f32_to_bf16(v)
    }

    #[inline(always)]
    fn to_f32(self) -> f32 {
        bf16_to_f32(self)
    }

    #[inline(always)]
    unsafe fn load8(p: *const Self) -> F32x8 {
        unsafe { F32x8::load_bf16(p) }
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
    fn bf16_round_trip_golden_vectors() {
        // Values exactly representable in bf16 survive the round trip.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 96.0, -0.15625] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)), v, "round trip of {v}");
        }
        // Infinities survive; NaN stays NaN (quieted, never infinity).
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(
            bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) (0x3F80) and the
        // next bf16 (0x3F81): ties-to-even keeps the even 0x3F80.
        assert_eq!(f32_to_bf16(f32::from_bits(0x3F80_8000)), 0x3F80);
        // 1.0 + 3·2^-9 rounds up to 0x3F81 (nearest, not a tie).
        assert_eq!(f32_to_bf16(f32::from_bits(0x3F80_C000)), 0x3F81);
        // Just below halfway rounds down.
        assert_eq!(f32_to_bf16(f32::from_bits(0x3F80_7FFF)), 0x3F80);
        // Just above halfway rounds up.
        assert_eq!(f32_to_bf16(f32::from_bits(0x3F80_8001)), 0x3F81);
        // Odd-mantissa tie rounds up to even: 1.5 + 2^-8 halfway between
        // 0x3FC0 and 0x3FC1 from an odd low bit? 0x3FC0_8000's tie partner
        // is even 0x3FC0 → stays. 0x3FC1_8000 (odd) ties up to 0x3FC2.
        assert_eq!(f32_to_bf16(f32::from_bits(0x3FC1_8000)), 0x3FC2);
        // Max-magnitude rounding never overflows to infinity incorrectly:
        // f32::MAX rounds to bf16 infinity by design (beyond bf16::MAX).
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::MAX)), f32::INFINITY);
    }

    #[test]
    fn bf16_error_is_bounded_relative() {
        // bf16 keeps 8 mantissa bits: relative error ≤ 2^-8 after RNE.
        for i in 0..10_000u32 {
            let v = (i as f32 - 5_000.0) * 0.37 + 0.001;
            let r = bf16_to_f32(f32_to_bf16(v));
            assert!(
                (r - v).abs() <= v.abs() * (1.0 / 256.0) + f32::MIN_POSITIVE,
                "bf16({v}) = {r}"
            );
        }
    }

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
