//! Safe SIMD lanes over `std::arch` x86-64, `F32x8` (AVX2+FMA, 256 bits)
//! and `F32x16` (AVX-512 F+VL, 512 bits), and the BLAS-1 kernels on them.
//!
//! **The token invariant.** A lane value is built only from a zero-sized
//! proof token, `Avx2` or `Avx512`, and only runtime detection
//! (`avx2`, `avx512`) makes a token. So a lane value that exists proves
//! that this CPU runs its instructions, and every lane method is a safe
//! function whose one `unsafe` block leans on nothing but that value and
//! the slice it was handed. Loads and stores take slices and touch no lane
//! past the slice's end. The kernels are `#[target_feature]` functions,
//! safe to call from one another and entered from plain code once per
//! dispatch, right after detection handed out the token they take. Off x86-64 the tokens are uninhabited: detection returns `None`
//! and the kernel entry points are unreachable stubs.
//!
//! The GEMM tiles in `matrix` are generic over `Lanes` and compile once
//! per width, and once more on [`Scalar16`], the scalar backend's plain
//! array register; the BLAS-1 loops stay on `F32x8`. The dispatch policy
//! is:
//!
//! * [`active`] reports (once, cached) whether the vector path may run:
//!   x86-64 with AVX2 **and** FMA detected at runtime, and the
//!   `force-scalar` cargo feature off. Every kernel keeps the scalar path
//!   as the guaranteed fallback; callers detect once per operation so a
//!   single call never mixes backends.
//! * [`wide`] reports (once, cached) whether the GEMMs may use 512 bits:
//!   `active()` plus AVX-512 F and VL detected at runtime. There is no
//!   setting: the width is the host's.
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

/// Proof that this CPU runs AVX2 and FMA; only `avx2` makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

/// Proof that this CPU runs AVX-512 F and VL; only `avx512` makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512(());

#[cfg(not(target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Avx2 {}

#[cfg(not(target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Avx512 {}

/// The AVX2+FMA proof, when [`active`].
pub(crate) fn avx2() -> Option<Avx2> {
    #[cfg(target_arch = "x86_64")]
    if active() {
        return Some(Avx2(()));
    }
    None
}

/// The AVX-512 F+VL proof, when [`wide`].
pub(crate) fn avx512() -> Option<Avx512> {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        return Some(Avx512(()));
    }
    None
}

/// A register of `f32` lanes: the one interface the GEMM tiles are written
/// against, so a tile compiles at either width without a second source.
/// Values are built only from the width's proof token (the token
/// invariant), so every method is safe.
pub(crate) trait Lanes: Copy {
    /// The proof a value is built from.
    type Token: Copy;
    /// Lanes per register.
    const LANES: usize;
    /// All lanes `v`.
    fn splat(t: Self::Token, v: f32) -> Self;
    /// The first `s.len().min(LANES)` values of `s`, the other lanes zero.
    fn load_n(t: Self::Token, s: &[f32]) -> Self;
    /// Store the first `s.len().min(LANES)` lanes to `s`.
    fn store_n(self, s: &mut [f32]);
    /// `self * m + a` per lane: fused (one rounding) on the SIMD
    /// registers, the product rounded and then the sum on [`Scalar16`].
    fn mul_add(self, m: Self, a: Self) -> Self;
    /// Transpose the square block of `m`'s `LANES` vectors in place: lane
    /// `l` of vector `r` moves to lane `r` of vector `l`.
    ///
    /// # Panics
    /// Panics if `m` does not hold `LANES` vectors.
    fn transpose(m: &mut [Self]);

    /// All lanes `+0.0`.
    #[inline(always)]
    fn zero(t: Self::Token) -> Self {
        Self::splat(t, 0.0)
    }

    /// The first `LANES` values of `s`.
    ///
    /// # Panics
    /// Panics if `s` is shorter.
    #[inline(always)]
    fn load(t: Self::Token, s: &[f32]) -> Self {
        Self::load_n(t, &s[..Self::LANES])
    }

    /// Store every lane to the front of `s`.
    ///
    /// # Panics
    /// Panics if `s` is shorter than `LANES`.
    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        self.store_n(&mut s[..Self::LANES])
    }
}

/// Sixteen `f32` lanes in a plain array: the scalar backend's register.
/// It needs no proof, and its `mul_add` is product-then-add, so a GEMM tile
/// built on it computes the scalar reference's chains.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scalar16([f32; 16]);

impl Lanes for Scalar16 {
    type Token = ();
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(_: (), v: f32) -> Self {
        Scalar16([v; 16])
    }

    #[inline(always)]
    fn load_n(_: (), s: &[f32]) -> Self {
        let mut x = [0.0; 16];
        let len = s.len().min(16);
        x[..len].copy_from_slice(&s[..len]);
        Scalar16(x)
    }

    #[inline(always)]
    fn store_n(self, s: &mut [f32]) {
        let len = s.len().min(16);
        s[..len].copy_from_slice(&self.0[..len]);
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        let mut x = a.0;
        for ((x, s), m) in x.iter_mut().zip(self.0).zip(m.0) {
            *x += s * m;
        }
        Scalar16(x)
    }

    #[inline(always)]
    fn transpose(m: &mut [Self]) {
        let m: &mut [Self; 16] = m.try_into().expect("a block of 16 vectors");
        for r in 0..16 {
            for l in r + 1..16 {
                (m[r].0[l], m[l].0[r]) = (m[l].0[r], m[r].0[l]);
            }
        }
    }
}

/// Eight `f32` lanes in an AVX `__m256`, built from an `Avx2` proof.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct F32x8(__m256);

/// Sixteen `f32` lanes in an AVX-512 `__m512`, built from an `Avx512`
/// proof.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct F32x16(__m512);

#[cfg(target_arch = "x86_64")]
impl Lanes for F32x8 {
    type Token = Avx2;
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(_: Avx2, v: f32) -> Self {
        // SAFETY: the token proves AVX.
        F32x8(unsafe { _mm256_set1_ps(v) })
    }

    #[inline(always)]
    fn load_n(_: Avx2, s: &[f32]) -> Self {
        let p = s.as_ptr();
        // SAFETY: the token proves AVX2. The full load reads `s[..8]`; the
        // masked one only lanes below `s.len()`, and a masked-off lane is
        // neither read nor faulted.
        F32x8(unsafe {
            match s.len() {
                8.. => _mm256_loadu_ps(p),
                len => _mm256_maskload_ps(p, mask8(len)),
            }
        })
    }

    #[inline(always)]
    fn store_n(self, s: &mut [f32]) {
        let p = s.as_mut_ptr();
        // SAFETY: `self` proves AVX2 (the token invariant). The full store
        // writes `s[..8]`; the masked one only lanes below `s.len()`.
        unsafe {
            match s.len() {
                8.. => _mm256_storeu_ps(p, self.0),
                len => _mm256_maskstore_ps(p, mask8(len), self.0),
            }
        }
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        // SAFETY: `self` proves FMA (the token invariant).
        F32x8(unsafe { _mm256_fmadd_ps(self.0, m.0, a.0) })
    }

    #[inline(always)]
    fn transpose(m: &mut [Self]) {
        let m: &mut [Self; 8] = m.try_into().expect("a block of 8 vectors");
        let r = m.map(|x| x.0);
        // SAFETY: the vectors prove AVX (the token invariant).
        unsafe {
            // Pairs of rows interleaved, then 4 × 4 blocks per 128-bit
            // half, then the halves swapped into place.
            let mut s = [_mm256_setzero_ps(); 8];
            for g in 0..2 {
                let (a, b) = (r[4 * g], r[4 * g + 1]);
                let (c, d) = (r[4 * g + 2], r[4 * g + 3]);
                let (lo, hi) = (_mm256_unpacklo_ps(a, b), _mm256_unpackhi_ps(a, b));
                let (lo2, hi2) = (_mm256_unpacklo_ps(c, d), _mm256_unpackhi_ps(c, d));
                s[4 * g] = _mm256_shuffle_ps::<0x44>(lo, lo2);
                s[4 * g + 1] = _mm256_shuffle_ps::<0xee>(lo, lo2);
                s[4 * g + 2] = _mm256_shuffle_ps::<0x44>(hi, hi2);
                s[4 * g + 3] = _mm256_shuffle_ps::<0xee>(hi, hi2);
            }
            for c in 0..4 {
                m[c] = F32x8(_mm256_permute2f128_ps::<0x20>(s[c], s[c + 4]));
                m[c + 4] = F32x8(_mm256_permute2f128_ps::<0x31>(s[c], s[c + 4]));
            }
        }
    }
}

/// The AVX2 lane mask selecting lanes `0 .. len` (`len < 8`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn mask8(len: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(len as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

#[cfg(target_arch = "x86_64")]
impl Lanes for F32x16 {
    type Token = Avx512;
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(_: Avx512, v: f32) -> Self {
        // SAFETY: the token proves AVX-512F.
        F32x16(unsafe { _mm512_set1_ps(v) })
    }

    #[inline(always)]
    fn load_n(_: Avx512, s: &[f32]) -> Self {
        let p = s.as_ptr();
        // SAFETY: the token proves AVX-512F. The full load reads `s[..16]`;
        // the masked one only lanes below `s.len()`, and a masked-off lane
        // is neither read nor faulted.
        F32x16(unsafe {
            match s.len() {
                16.. => _mm512_loadu_ps(p),
                len => _mm512_maskz_loadu_ps((1 << len) - 1, p),
            }
        })
    }

    #[inline(always)]
    fn store_n(self, s: &mut [f32]) {
        let p = s.as_mut_ptr();
        // SAFETY: `self` proves AVX-512F (the token invariant). The full
        // store writes `s[..16]`; the masked one only lanes below `s.len()`.
        unsafe {
            match s.len() {
                16.. => _mm512_storeu_ps(p, self.0),
                len => _mm512_mask_storeu_ps(p, (1 << len) - 1, self.0),
            }
        }
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        // SAFETY: `self` proves AVX-512F (the token invariant).
        F32x16(unsafe { _mm512_fmadd_ps(self.0, m.0, a.0) })
    }

    #[inline(always)]
    fn transpose(m: &mut [Self]) {
        let m: &mut [Self; 16] = m.try_into().expect("a block of 16 vectors");
        let r = m.map(|x| x.0);
        // SAFETY: the vectors prove AVX-512F (the token invariant).
        unsafe {
            // Per 128-bit block, the 4 × 4 transposes of `F32x8::transpose`:
            // `s[4g + c]` holds, in block `b`, column `4b + c` of rows `4g
            // ..`. Then per column `c` a 4 × 4 transpose of blocks over `g`.
            let mut s = [_mm512_setzero_ps(); 16];
            for g in 0..4 {
                let (a, b) = (r[4 * g], r[4 * g + 1]);
                let (c, d) = (r[4 * g + 2], r[4 * g + 3]);
                let (lo, hi) = (_mm512_unpacklo_ps(a, b), _mm512_unpackhi_ps(a, b));
                let (lo2, hi2) = (_mm512_unpacklo_ps(c, d), _mm512_unpackhi_ps(c, d));
                s[4 * g] = _mm512_shuffle_ps::<0x44>(lo, lo2);
                s[4 * g + 1] = _mm512_shuffle_ps::<0xee>(lo, lo2);
                s[4 * g + 2] = _mm512_shuffle_ps::<0x44>(hi, hi2);
                s[4 * g + 3] = _mm512_shuffle_ps::<0xee>(hi, hi2);
            }
            for c in 0..4 {
                let (s0, s1, s2, s3) = (s[c], s[4 + c], s[8 + c], s[12 + c]);
                let u0 = _mm512_shuffle_f32x4::<0x44>(s0, s1);
                let u1 = _mm512_shuffle_f32x4::<0xee>(s0, s1);
                let u2 = _mm512_shuffle_f32x4::<0x44>(s2, s3);
                let u3 = _mm512_shuffle_f32x4::<0xee>(s2, s3);
                m[c] = F32x16(_mm512_shuffle_f32x4::<0x88>(u0, u2));
                m[4 + c] = F32x16(_mm512_shuffle_f32x4::<0xdd>(u0, u2));
                m[8 + c] = F32x16(_mm512_shuffle_f32x4::<0x88>(u1, u3));
                m[12 + c] = F32x16(_mm512_shuffle_f32x4::<0xdd>(u1, u3));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl F32x8 {
    /// Horizontal sum with a fixed pairwise tree:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — part of the per-ISA
    /// determinism contract for reductions.
    #[inline(always)]
    pub(crate) fn hsum(self) -> f32 {
        // SAFETY: `self` proves AVX (the token invariant).
        unsafe {
            let lo = _mm256_castps256_ps128(self.0);
            let hi = _mm256_extractf128_ps(self.0, 1);
            let q = _mm_add_ps(lo, hi); // (l0+l4, l1+l5, l2+l6, l3+l7)
            let d = _mm_add_ps(q, _mm_movehl_ps(q, q)); // (q0+q2, q1+q3, ..)
            let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
            _mm_cvtss_f32(s)
        }
    }

    /// Lane-wise sum.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn add(self, o: Self) -> Self {
        F32x8(_mm256_add_ps(self.0, o.0))
    }

    /// Lane-wise product.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn mul(self, o: Self) -> Self {
        F32x8(_mm256_mul_ps(self.0, o.0))
    }

    /// `if o > self { o } else { self }`, lane by lane: a NaN or a signed
    /// zero in `self` comes back as it is.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn max(self, o: Self) -> Self {
        F32x8(_mm256_max_ps(o.0, self.0))
    }

    /// `self` with `+0.0` in every lane whose `key` is `<= 0.0`. The
    /// compare is ordered, so a NaN `key` keeps its lane — the select
    /// `if key <= 0.0 { 0.0 } else { self }`, lane by lane.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn zero_where_le_zero(self, key: Self) -> Self {
        let le = _mm256_cmp_ps::<_CMP_LE_OQ>(key.0, _mm256_setzero_ps());
        F32x8(_mm256_andnot_ps(le, self.0))
    }
}

/// The vector dot product behind [`crate::dot`] and [`crate::l2_norm`]:
/// four independent eight-lane FMA chains over 32-element blocks, then an
/// eight-lane tail chain into the first accumulator, a fixed pairwise
/// reduction, and a scalar `mul_add` tail.
///
/// # Panics
/// Panics if the lengths differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn dot_dispatch(t: Avx2, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let ((a32, a), (b32, b)) = (a.as_chunks::<32>(), b.as_chunks::<32>());
    let mut acc = [F32x8::zero(t); 4];
    for (x, y) in a32.iter().zip(b32) {
        for (q, acc) in acc.iter_mut().enumerate() {
            *acc = F32x8::load(t, &x[8 * q..]).mul_add(F32x8::load(t, &y[8 * q..]), *acc);
        }
    }
    let ((a8, a), (b8, b)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
    for (x, y) in a8.iter().zip(b8) {
        acc[0] = F32x8::load(t, x).mul_add(F32x8::load(t, y), acc[0]);
    }
    let mut sum = acc[0].add(acc[1]).add(acc[2].add(acc[3])).hsum();
    for (x, y) in a.iter().zip(b) {
        sum = x.mul_add(*y, sum);
    }
    sum
}

/// Vectorized `y += alpha * x` (fused per element; the scalar fallback's
/// `y + alpha*x` rounds the product first — documented ULP difference).
///
/// # Panics
/// Panics if the lengths differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn axpy_dispatch(t: Avx2, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let ((x8, x), (y8, y)) = (x.as_chunks::<8>(), y.as_chunks_mut::<8>());
    let av = F32x8::splat(t, alpha);
    for (xv, yv) in x8.iter().zip(y8) {
        av.mul_add(F32x8::load(t, xv), F32x8::load(t, yv)).store(yv);
    }
    for (xi, yi) in x.iter().zip(y) {
        *yi = alpha.mul_add(*xi, *yi);
    }
}

/// Vectorized in-place scale — bit-identical to the scalar loop (one
/// multiply per element, no reassociation).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn scale_dispatch(t: Avx2, a: &mut [f32], s: f32) {
    let (a8, a) = a.as_chunks_mut::<8>();
    let sv = F32x8::splat(t, s);
    for v in a8 {
        F32x8::load(t, v).mul(sv).store(v);
    }
    for v in a {
        *v *= s;
    }
}

/// Vectorized in-place ReLU: `maxps(0, x)` is the select
/// `if 0.0 > x { 0.0 } else { x }`, which the tail and the scalar backend
/// spell out, so NaN and `−0.0` pass through on every path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn relu_dispatch(t: Avx2, a: &mut [f32]) {
    let (a8, a) = a.as_chunks_mut::<8>();
    let z = F32x8::zero(t);
    for v in a8 {
        F32x8::load(t, v).max(z).store(v);
    }
    for v in a {
        *v = if 0.0 > *v { 0.0 } else { *v };
    }
}

/// Vectorized ReLU backward: `g = if o <= 0.0 { 0.0 } else { g }` per
/// element as a branch-free select — bit-identical to that scalar select
/// (a NaN `o` keeps its gradient, `±0.0` zeroes it).
///
/// # Panics
/// Panics if the lengths differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn relu_backward_dispatch(t: Avx2, out: &[f32], grad: &mut [f32]) {
    assert_eq!(out.len(), grad.len());
    let ((o8, out), (g8, grad)) = (out.as_chunks::<8>(), grad.as_chunks_mut::<8>());
    for (o, g) in o8.iter().zip(g8) {
        F32x8::load(t, g)
            .zero_where_le_zero(F32x8::load(t, o))
            .store(g);
    }
    for (o, g) in out.iter().zip(grad) {
        *g = if *o <= 0.0 { 0.0 } else { *g };
    }
}

/// Vectorized `row += bias` for each row of a row-major chunk —
/// bit-identical to the scalar loop (one add per element).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn add_bias_dispatch(t: Avx2, chunk: &mut [f32], bias: &[f32]) {
    let (b8, b_tail) = bias.as_chunks::<8>();
    for row in chunk.chunks_exact_mut(bias.len()) {
        let (r8, r_tail) = row.as_chunks_mut::<8>();
        for (r, b) in r8.iter_mut().zip(b8) {
            F32x8::load(t, r).add(F32x8::load(t, b)).store(r);
        }
        for (r, b) in r_tail.iter_mut().zip(b_tail) {
            *r += *b;
        }
    }
}

/// Off x86-64 no token exists, so no kernel can be entered.
#[cfg(not(target_arch = "x86_64"))]
mod unreachable {
    use super::Avx2;

    pub(crate) fn dot_dispatch(t: Avx2, _: &[f32], _: &[f32]) -> f32 {
        match t {}
    }
    pub(crate) fn axpy_dispatch(t: Avx2, _: f32, _: &[f32], _: &mut [f32]) {
        match t {}
    }
    pub(crate) fn scale_dispatch(t: Avx2, _: &mut [f32], _: f32) {
        match t {}
    }
    pub(crate) fn relu_dispatch(t: Avx2, _: &mut [f32]) {
        match t {}
    }
    pub(crate) fn relu_backward_dispatch(t: Avx2, _: &[f32], _: &mut [f32]) {
        match t {}
    }
    pub(crate) fn add_bias_dispatch(t: Avx2, _: &mut [f32], _: &[f32]) {
        match t {}
    }
}
#[cfg(not(target_arch = "x86_64"))]
pub(crate) use unreachable::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable() {
        // Whatever the host supports, repeated queries agree (cached).
        assert_eq!(active(), active());
        assert_eq!(avx2().is_some(), active());
        assert_eq!(avx512().is_some(), wide());
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
            let simd = crate::dot(&a, &b);
            let bound = (n as f32) * f32::EPSILON + 1e-6;
            assert!(
                (simd - scalar).abs() <= bound.max(scalar.abs() * 1e-4),
                "n={n}: simd {simd} vs scalar {scalar}"
            );
        }
    }

    /// `dot` and `axpy` leave the length check to the kernel they enter,
    /// so on an AVX2 host this reaches the kernels' own checks.
    #[test]
    fn unequal_lengths_panic_on_every_path() {
        let dot = std::panic::catch_unwind(|| crate::dot(&[1.0; 9], &[1.0; 8]));
        let axpy = std::panic::catch_unwind(|| crate::axpy(1.0, &[1.0; 9], &mut [0.0; 8]));
        assert!(dot.is_err() && axpy.is_err());
    }
}
