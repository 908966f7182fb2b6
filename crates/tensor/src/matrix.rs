//! Row-major dense matrix with the matmul variants backprop needs.
//!
//! The three matmuls (`matmul`, `matmul_at_b`, `matmul_a_bt`) share one
//! compute discipline:
//!
//! * **Persistent pool, no per-call spawn** — large products dispatch row
//!   chunks onto [`summit_pool::global`]'s parked workers under the calling
//!   thread's core budget ([`summit_pool::core_budget`]), replacing the old
//!   scoped `thread::spawn` per call. The exact partition
//!   ([`summit_pool::chunk_range`]) handles `rows % threads != 0` tails in
//!   one shared place instead of three copy-pasted chunking blocks.
//! * **Packed, cache-blocked microkernel** — the strided operand is packed
//!   once per call into a reused thread-local scratch (`B` in 16-column,
//!   `k`-contiguous micro-panels for [`Matrix::matmul`], `Aᵀ` for
//!   [`Matrix::matmul_at_b`]; [`Matrix::matmul_a_bt`] reads both operands
//!   in place, and so does an f32 SIMD `matmul` of at most 16 rows, where
//!   the pack would cost more than the product — same per-element chain,
//!   so the same bits), and the inner loop runs on one of two backends
//!   selected once per call: an explicit AVX2+FMA microkernel on the [`crate::simd`]
//!   `f32x8` wrapper (runtime-detected; register tiles of 6 rows × 16
//!   columns over 256-step shared-dimension blocks for `matmul`, 4 × 16
//!   for `matmul_at_b`, 4 a-rows × 3 b-rows of lane-wise accumulators for
//!   `matmul_a_bt`), or the branch-free scalar loops as the guaranteed
//!   fallback (4×-unrolled for the transposed variants, a 2-row × 16-column
//!   local tile over the same micro-panels for `matmul`).
//! * **Mixed precision** — every variant has a bf16-storage twin (the
//!   [`Precision`] knob on the `*_into_prec` entry points, e.g.
//!   [`Matrix::matmul_into_prec`]): the packed operand is stored as
//!   bf16 (`u16`, round-to-nearest-even at pack time), converted back to
//!   f32 on load (exact), and **accumulated in f32** — the paper's
//!   mixed-precision storage lever with full-precision arithmetic.
//! * **Bit-identity across pool sizes** — every output element accumulates
//!   its terms in the same order on every path at every worker count: the
//!   row partition never splits an element's accumulation chain, and each
//!   SIMD kernel gives every output element one chain whose shape depends
//!   only on the shared dimension and global block boundaries, never on
//!   the chunk split or on which register tile (full or remainder)
//!   computed it. The chains: `matmul` — one FMA per ascending `k`, carried
//!   through the output between shared-dimension blocks; `matmul_at_b` —
//!   one FMA chain per 64-row block of the shared dimension, each added
//!   into the output in block order (the overwriting entry's first block
//!   is added to `+0.0` and stored, so the output's old contents are
//!   never read); `matmul_a_bt` — eight lane accumulators stepped over
//!   ascending `k`, one fixed
//!   [`F32x8::hsum`] tree, then a scalar FMA tail over `k % 8`. Pooled
//!   results are therefore **bitwise equal** to the serial (`parts = 1`)
//!   kernel for every budget and both precisions, and row `i` of an
//!   `M`-row `matmul` / `matmul_a_bt` is bitwise the one-row product (what
//!   batched serving relies on). The scalar backend is additionally the
//!   cross-platform reference: SIMD results differ from it only within a
//!   documented ULP bound (FMA contraction + lane-tree reductions); see
//!   `tests/simd_properties.rs`, which also pins the `matmul` and
//!   `matmul_a_bt` chains against plain-Rust transcriptions.
//!
//! The `*_into` variants write into a caller-owned output matrix; combined
//! with the thread-local packing scratches (one f32, one bf16), a
//! steady-state pooled matmul at either precision performs **zero heap
//! allocations** (counting-allocator tests in `tests/tests/gemm_alloc.rs`).

use std::cell::RefCell;
use std::ops::Range;

use crate::simd::{self, Element, F32x8};

/// A dense, row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A borrowed row-major `rows × cols` view: the `B` operand of the
/// `*_into_prec` GEMMs, so a weight can live in a slice of a larger buffer
/// (a model's parameter arena) instead of a [`Matrix`] of its own. Every
/// `&Matrix` converts into one.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatRef<'a> {
    /// View `data` as a `rows × cols` matrix.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        MatRef { rows, cols, data }
    }
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    fn from(m: &'a Matrix) -> Self {
        MatRef {
            rows: m.rows,
            cols: m.cols,
            data: &m.data,
        }
    }
}

/// Storage precision of a GEMM's packed operand. Accumulation is always
/// f32; `Mixed` halves the packed panel's bytes (bf16 storage), mirroring
/// the paper's mixed-precision rate assumptions for the memory-bound side
/// of the roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full f32 storage end to end.
    #[default]
    F32,
    /// bf16 storage for the packed operand, f32 accumulation.
    Mixed,
}

/// Kernel backend selector — test hook for pinning SIMD-vs-scalar
/// agreement; production callers always use `Auto`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// SIMD when the host supports it ([`simd::active`]), scalar otherwise.
    #[default]
    Auto,
    /// Force the scalar reference path.
    Scalar,
}

impl Backend {
    /// Resolve once per GEMM call so a single product never mixes kernels.
    fn use_simd(self) -> bool {
        self == Backend::Auto && simd::active()
    }
}

/// Row count above which matmuls parallelize over the compute pool.
const PAR_THRESHOLD: usize = 128;

/// Packed-`B` micro-panel width for [`Matrix::matmul`]: panel `p` holds
/// columns `[16p, 16p + 16)` with the shared dimension contiguous, so one
/// `k` step of the microkernel reads one 64-byte line and the next step
/// reads the next line. The last panel is narrower when `n % 16 != 0`.
const MM_NR: usize = 16;

/// Rows of `B` packed into one micro-panel before moving to the next: each
/// visit reads eight 64-byte row pieces and writes 512 contiguous bytes,
/// which keeps both sides of the copy local when `k` or `n` is a power of
/// two (one row at a time, the panels' write streams alias in L1).
const PACK_ROWS: usize = 8;

/// Shared-dimension block of the SIMD `matmul` kernel: a 256 × 16 f32 slice
/// of a micro-panel (16 KB) stays in L1 across every row tile of the chunk.
const MM_KC: usize = 256;

/// Row count up to which the f32 SIMD [`Matrix::matmul`] reads `B` in place
/// instead of packing it. Packing pays for itself by reuse across row
/// tiles; at 16 rows there are at most three, and the pack's read + write
/// + re-read of `k·n` costs more than the product.
const MM_SKINNY_ROWS: usize = 16;

/// Column block of the pack-free skinny `matmul`: the `M × 256` f32 output
/// tile (16 KB at `M = 16`) stays in L1 while rows of `B` stream past it.
const MM_SKINNY_NC: usize = 256;

/// Cache-blocking tile for the shared dimension of the transposed matmuls:
/// 64 rows × up to ~256 f32 columns ≈ 64 KB, comfortably inside L2 while
/// leaving room for the output row being accumulated.
const BLOCK_ROWS: usize = 64;

/// Row-block height of the SIMD `matmul` microkernel: 6 rows × two f32x8
/// column vectors = 12 in-register accumulators (plus 2 loaded B vectors
/// and 1 broadcast), filling the 16 ymm registers without spilling.
const MM_MR: usize = 6;

/// Row-block height of the SIMD `matmul_at_b` microkernel: 4 output rows ×
/// two f32x8 vectors = 8 accumulators, with two B-row loads and four
/// broadcasts per shared-dimension step.
const ATB_MR: usize = 4;

/// Register tile of the SIMD `matmul_a_bt` microkernel: 4 a-rows × 3 b-rows
/// = 12 lane-wise accumulators, plus the 3 loaded b-vectors and 1 a-vector
/// — all 16 ymm registers.
const ABT_MR: usize = 4;
const ABT_NR: usize = 3;

/// Rows of `other` per cache block of the SIMD `matmul_a_bt` kernel (a
/// multiple of [`ABT_NR`]): 48 rows × 1024 f32 = 192 KB sits in L2 while
/// every a-strip of the chunk visits it.
const ABT_JB: usize = 48;

thread_local! {
    /// Per-thread f32 packing scratch, reused across calls so steady-state
    /// matmuls never allocate. Packing always happens on the dispatching
    /// thread (workers only read the packed panel through the kernel
    /// closure), so one scratch per thread suffices.
    static PACK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread bf16 packing scratch for the mixed-precision path.
    static BF16_SCRATCH: RefCell<Vec<u16>> = const { RefCell::new(Vec::new()) };
}

/// A packable GEMM storage element: ties the [`Element`] conversions to a
/// per-type thread-local scratch and the type's target-feature SIMD kernel
/// entry points (free functions, since `#[target_feature]` cannot sit on
/// trait methods).
trait PanelElem: Element {
    /// Borrow this thread's packing scratch for `Self` at `len` elements
    /// (growing it once if needed) for the duration of `f`.
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;

    /// # Safety
    /// CPU must support AVX2+FMA (callers check [`simd::active`]).
    unsafe fn mm_chunk_simd(
        a: &[f32],
        k: usize,
        bp: &[Self],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    );

    /// # Safety
    /// CPU must support AVX2+FMA (callers check [`simd::active`]).
    unsafe fn atb_chunk_simd(
        at: &[Self],
        m: usize,
        b: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
        accumulate: bool,
    );

    /// # Safety
    /// CPU must support AVX2+FMA (callers check [`simd::active`]).
    unsafe fn abt_chunk_simd(
        a: &[f32],
        k: usize,
        b: &[Self],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    );
}

impl PanelElem for f32 {
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        PACK_SCRATCH.with(|s| {
            let mut buf = s.borrow_mut();
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        })
    }

    unsafe fn mm_chunk_simd(
        a: &[f32],
        k: usize,
        bp: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        unsafe { mm_chunk_simd_f32(a, k, bp, n, chunk, range) }
    }

    unsafe fn atb_chunk_simd(
        at: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
        accumulate: bool,
    ) {
        unsafe { atb_chunk_simd_f32(at, m, b, n, chunk, range, accumulate) }
    }

    unsafe fn abt_chunk_simd(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        unsafe { abt_chunk_simd_f32(a, k, b, n, chunk, range) }
    }
}

impl PanelElem for u16 {
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u16]) -> R) -> R {
        BF16_SCRATCH.with(|s| {
            let mut buf = s.borrow_mut();
            if buf.len() < len {
                buf.resize(len, 0);
            }
            f(&mut buf[..len])
        })
    }

    unsafe fn mm_chunk_simd(
        a: &[f32],
        k: usize,
        bp: &[u16],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        unsafe { mm_chunk_simd_bf16(a, k, bp, n, chunk, range) }
    }

    unsafe fn atb_chunk_simd(
        at: &[u16],
        m: usize,
        b: &[f32],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
        accumulate: bool,
    ) {
        unsafe { atb_chunk_simd_bf16(at, m, b, n, chunk, range, accumulate) }
    }

    unsafe fn abt_chunk_simd(
        a: &[f32],
        k: usize,
        b: &[u16],
        n: usize,
        chunk: &mut [f32],
        range: Range<usize>,
    ) {
        unsafe { abt_chunk_simd_bf16(a, k, b, n, chunk, range) }
    }
}

/// The chunk count for a product with `rows` output rows: serial below the
/// threshold, otherwise the calling thread's core budget.
fn auto_parts(rows: usize) -> usize {
    if rows < PAR_THRESHOLD {
        1
    } else {
        summit_pool::core_budget().min(rows)
    }
}

impl Matrix {
    /// A zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from an owned buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices (test/helper constructor).
    ///
    /// # Panics
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics on out-of-range indices (debug and release).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The backing buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self · other` (`m×k · k×n → m×n`) on the packed pooled kernel.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output (overwritten), the
    /// allocation-free steady-state entry point.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not `m×n`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_parts(other, out, auto_parts(self.rows));
    }

    /// [`Matrix::matmul_into`] with an explicit [`Precision`] knob and a
    /// borrowed `B` ([`MatRef`]): [`Precision::Mixed`] stores the packed `B`
    /// operand as bf16 and accumulates in f32, allocation-free in steady
    /// state like the f32 path.
    pub fn matmul_into_prec<'b>(
        &self,
        other: impl Into<MatRef<'b>>,
        out: &mut Matrix,
        prec: Precision,
    ) {
        let (other, parts) = (other.into(), auto_parts(self.rows));
        match prec {
            Precision::F32 => self.matmul_f32_impl(other, out, parts, Backend::Auto),
            Precision::Mixed => self.matmul_impl::<u16>(other, out, parts, Backend::Auto),
        }
    }

    /// [`Matrix::matmul_into`] with an explicit chunk count — `parts = 1`
    /// is the serial reference path the property tests compare against.
    #[doc(hidden)]
    pub fn matmul_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_f32_impl(other.into(), out, parts, Backend::Auto);
    }

    /// Full control (tests): precision via the element type, explicit
    /// parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        prec: Precision,
        backend: Backend,
    ) {
        let other = other.into();
        match prec {
            Precision::F32 => self.matmul_f32_impl(other, out, parts, backend),
            Precision::Mixed => self.matmul_impl::<u16>(other, out, parts, backend),
        }
    }

    fn matmul_assert(&self, other: MatRef<'_>, out: &Matrix) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
    }

    /// f32 path: a skinny product on the SIMD backend reads `B` in place
    /// (per element the same single FMA chain over ascending `k` from zero
    /// as the packed kernel, so the two are bitwise interchangeable);
    /// everything else packs.
    fn matmul_f32_impl(&self, other: MatRef<'_>, out: &mut Matrix, parts: usize, backend: Backend) {
        if self.rows > MM_SKINNY_ROWS || !backend.use_simd() {
            return self.matmul_impl::<f32>(other, out, parts, backend);
        }
        self.matmul_assert(other, out);
        let (k, n) = (self.cols, other.cols);
        let (a, b) = (&self.data, other.data);
        summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
            // SAFETY: `use_simd` above implies `simd::active()` verified
            // AVX2+FMA on this CPU.
            unsafe { mm_skinny_chunk_simd(a, k, b, n, chunk, range) }
        });
    }

    fn matmul_impl<E: PanelElem>(
        &self,
        other: MatRef<'_>,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_assert(other, out);
        let k = self.cols;
        let n = other.cols;
        let use_simd = backend.use_simd();
        // Pack B once per call into micro-panels: panel `jb / MM_NR` holds
        // columns [jb, jb + jw) row-major at width jw, contiguous at offset
        // jb·k (every preceding full panel contributes MM_NR·k elements).
        // The mixed path rounds to bf16 here, once per element, and
        // PACK_ROWS rows of B go into each panel at a time. Both kernels
        // overwrite `out`, so it is not cleared first.
        E::with_scratch(k * n, |bp| {
            for kb in (0..k).step_by(PACK_ROWS) {
                let kend = (kb + PACK_ROWS).min(k);
                for jb in (0..n).step_by(MM_NR) {
                    let jw = (n - jb).min(MM_NR);
                    for kk in kb..kend {
                        let src = &other.data[kk * n + jb..kk * n + jb + jw];
                        let dst = &mut bp[jb * k + kk * jw..jb * k + (kk + 1) * jw];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = E::pack(s);
                        }
                    }
                }
            }
            let a = &self.data;
            let bp = &*bp;
            summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
                if use_simd {
                    // SAFETY: `use_simd` implies `simd::active()` verified
                    // AVX2+FMA on this CPU.
                    unsafe { E::mm_chunk_simd(a, k, bp, n, chunk, range) }
                } else {
                    matmul_chunk(a, k, bp, n, chunk, range);
                }
            });
        });
    }

    /// `selfᵀ · other` (`(m×k)ᵀ · m×n → k×n`). This is the weight-gradient
    /// product `Xᵀ · dY`, the backward-pass hot kernel: `Aᵀ` is packed once
    /// per call so each output row streams a contiguous operand, output
    /// rows are chunked over the pool, and the shared `m` dimension is
    /// cache-blocked (4×-unrolled scalar fallback, 4×16 SIMD tile).
    ///
    /// Every output element accumulates its `m` terms in ascending-`i`
    /// order on every path, so pooled and serial results are bit-identical.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_b_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_at_b`] into a caller-owned output (overwritten).
    ///
    /// # Panics
    /// Panics on row-count mismatch or if `out` is not `k×n`.
    pub fn matmul_at_b_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_at_b_into_parts(other, out, auto_parts(self.cols));
    }

    /// [`Matrix::matmul_at_b_into`] with an explicit [`Precision`] knob:
    /// [`Precision::Mixed`] stores the packed `Aᵀ` operand as bf16 and
    /// accumulates in f32.
    pub fn matmul_at_b_into_prec(&self, other: &Matrix, out: &mut Matrix, prec: Precision) {
        let parts = auto_parts(self.cols);
        self.matmul_at_b_backend(other, out, parts, prec, Backend::Auto, false);
    }

    /// `selfᵀ · other` into a row-major `k×n` slice of a larger buffer —
    /// the weight-gradient product writing straight into its window of a
    /// flat gradient arena. `accumulate` selects `out += …` over `out = …`;
    /// on a zeroed `out` the two are bitwise equal (the overwriting kernel
    /// stores `0.0 + first block` where the accumulating one adds it).
    ///
    /// # Panics
    /// Panics on row-count mismatch or if `out.len() != k·n`.
    pub fn matmul_at_b_into_slice(
        &self,
        other: &Matrix,
        out: &mut [f32],
        accumulate: bool,
        prec: Precision,
    ) {
        let parts = auto_parts(self.cols);
        match prec {
            Precision::F32 => {
                self.matmul_at_b_impl::<f32>(other, out, parts, Backend::Auto, accumulate)
            }
            Precision::Mixed => {
                self.matmul_at_b_impl::<u16>(other, out, parts, Backend::Auto, accumulate)
            }
        }
    }

    /// [`Matrix::matmul_at_b_into`] with an explicit chunk count.
    #[doc(hidden)]
    pub fn matmul_at_b_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_at_b_backend(other, out, parts, Precision::F32, Backend::Auto, false);
    }

    /// Full control (tests): precision, explicit parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_at_b_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        prec: Precision,
        backend: Backend,
    ) {
        self.matmul_at_b_backend(other, out, parts, prec, backend, false);
    }

    /// `out += selfᵀ · other` with full control (tests).
    #[doc(hidden)]
    pub fn matmul_at_b_acc_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        prec: Precision,
        backend: Backend,
    ) {
        self.matmul_at_b_backend(other, out, parts, prec, backend, true);
    }

    fn matmul_at_b_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        prec: Precision,
        backend: Backend,
        accumulate: bool,
    ) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_at_b output shape mismatch"
        );
        let out = &mut out.data;
        match prec {
            Precision::F32 => self.matmul_at_b_impl::<f32>(other, out, parts, backend, accumulate),
            Precision::Mixed => {
                self.matmul_at_b_impl::<u16>(other, out, parts, backend, accumulate)
            }
        }
    }

    fn matmul_at_b_impl<E: PanelElem>(
        &self,
        other: &Matrix,
        out: &mut [f32],
        parts: usize,
        backend: Backend,
        accumulate: bool,
    ) {
        assert_eq!(self.rows, other.rows, "matmul_at_b row mismatch");
        assert_eq!(
            out.len(),
            self.cols * other.cols,
            "matmul_at_b output shape mismatch"
        );
        let m = self.rows;
        let k = self.cols;
        let n = other.cols;
        let use_simd = backend.use_simd();
        // The scalar kernel only ever adds into `out`; the SIMD kernel
        // stores its first shared-dimension block when overwriting, so it
        // neither needs nor reads the old contents.
        if !accumulate && !use_simd {
            out.fill(0.0);
        }
        // Pack Aᵀ once per call: at[kk·m + i] = A[i, kk], so output row kk
        // reads its m coefficients contiguously (bf16-rounded on the mixed
        // path).
        E::with_scratch(m * k, |at| {
            for i in 0..m {
                let a_row = &self.data[i * k..(i + 1) * k];
                for (kk, &v) in a_row.iter().enumerate() {
                    at[kk * m + i] = E::pack(v);
                }
            }
            let b = &other.data;
            let at = &*at;
            summit_pool::global().run_rows(out, n, parts, |chunk, range| {
                if use_simd {
                    // SAFETY: `use_simd` implies `simd::active()` verified
                    // AVX2+FMA on this CPU.
                    unsafe { E::atb_chunk_simd(at, m, b, n, chunk, range, accumulate) }
                } else {
                    matmul_at_b_chunk(at, m, b, n, chunk, range);
                }
            });
        });
    }

    /// `self · otherᵀ` (`m×k · (n×k)ᵀ → m×n`) without materializing the
    /// transpose. This is the input-gradient product `dY · Wᵀ`, the other
    /// backward-pass hot kernel: both operands are row-contiguous already,
    /// so no packing is needed — output rows are chunked over the pool and
    /// the `other`-row loop is cache-blocked.
    ///
    /// Each output element is one chain over ascending `k` whose shape
    /// depends on `k` alone (scalar backend: one accumulator; SIMD: eight
    /// lane accumulators, a fixed reduction tree, a scalar tail), so
    /// pooled and serial results are bit-identical and a row of a batched
    /// product is bitwise the one-row product.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_a_bt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_a_bt`] into a caller-owned output (overwritten).
    ///
    /// # Panics
    /// Panics on column-count mismatch or if `out` is not `m×n`.
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_a_bt_into_parts(other, out, auto_parts(self.rows));
    }

    /// [`Matrix::matmul_a_bt_into`] with an explicit [`Precision`] knob and
    /// a borrowed `other` ([`MatRef`]): [`Precision::Mixed`] stores the
    /// `other` operand as bf16 (converted once into the packing scratch)
    /// and accumulates in f32.
    pub fn matmul_a_bt_into_prec<'b>(
        &self,
        other: impl Into<MatRef<'b>>,
        out: &mut Matrix,
        prec: Precision,
    ) {
        let (other, parts) = (other.into(), auto_parts(self.rows));
        match prec {
            Precision::F32 => self.matmul_a_bt_f32_impl(other, out, parts, Backend::Auto),
            Precision::Mixed => self.matmul_a_bt_mixed_impl(other, out, parts, Backend::Auto),
        }
    }

    /// [`Matrix::matmul_a_bt_into`] with an explicit chunk count.
    #[doc(hidden)]
    pub fn matmul_a_bt_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_a_bt_f32_impl(other.into(), out, parts, Backend::Auto);
    }

    /// Full control (tests): precision, explicit parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_a_bt_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        prec: Precision,
        backend: Backend,
    ) {
        let other = other.into();
        match prec {
            Precision::F32 => self.matmul_a_bt_f32_impl(other, out, parts, backend),
            Precision::Mixed => self.matmul_a_bt_mixed_impl(other, out, parts, backend),
        }
    }

    fn matmul_a_bt_assert(&self, other: MatRef<'_>, out: &Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_a_bt column mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_a_bt output shape mismatch"
        );
    }

    /// f32 path: both operands are row-contiguous, no packing or copies.
    fn matmul_a_bt_f32_impl(
        &self,
        other: MatRef<'_>,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_a_bt_assert(other, out);
        let k = self.cols;
        let n = other.rows;
        let use_simd = backend.use_simd();
        let a = &self.data;
        let b = other.data;
        summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
            if use_simd {
                // SAFETY: `use_simd` implies AVX2+FMA verified.
                unsafe { <f32 as PanelElem>::abt_chunk_simd(a, k, b, n, chunk, range) }
            } else {
                matmul_a_bt_chunk(a, k, b, n, chunk, range);
            }
        });
    }

    /// Mixed path: `other` is converted once (row-contiguous, bf16) into
    /// the reused bf16 scratch — the only copy this variant makes.
    fn matmul_a_bt_mixed_impl(
        &self,
        other: MatRef<'_>,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_a_bt_assert(other, out);
        let k = self.cols;
        let n = other.rows;
        let use_simd = backend.use_simd();
        <u16 as PanelElem>::with_scratch(n * k, |bh| {
            for (d, &s) in bh.iter_mut().zip(other.data) {
                *d = simd::f32_to_bf16(s);
            }
            let a = &self.data;
            let bh = &*bh;
            summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
                if use_simd {
                    // SAFETY: `use_simd` implies AVX2+FMA verified.
                    unsafe { <u16 as PanelElem>::abt_chunk_simd(a, k, bh, n, chunk, range) }
                } else {
                    matmul_a_bt_chunk(a, k, bh, n, chunk, range);
                }
            });
        });
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self += other`, element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        crate::axpy(1.0, &other.data, &mut self.data);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        crate::l2_norm(&self.data)
    }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (generic over panel storage; `E = f32` is the
// pre-SIMD kernel unchanged — `to_f32` is the identity there).
// ---------------------------------------------------------------------------

/// `matmul` kernel for one chunk of output rows: for each micro-panel of
/// packed `B` and each pair of rows (then a last single row), the two
/// `1 × jw` output segments accumulate in locals across the whole shared
/// dimension, streaming the panel once, and are stored once. Per output
/// element the adds run in ascending-`kk` order from zero — one product at
/// a time into the same accumulator — whichever tile the row falls in.
fn matmul_chunk<E: Element>(
    a: &[f32],
    k: usize,
    bp: &[E],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    for jb in (0..n).step_by(MM_NR) {
        let jw = (n - jb).min(MM_NR);
        let panel = &bp[jb * k..jb * k + k * jw];
        let mut local = 0;
        while local + 2 <= range.len() {
            let i = range.start + local;
            let acc = matmul_tile::<E, 2>(&a[i * k..(i + 2) * k], k, panel, jw);
            for (t, row) in acc.iter().enumerate() {
                let at = (local + t) * n + jb;
                chunk[at..at + jw].copy_from_slice(&row[..jw]);
            }
            local += 2;
        }
        if local < range.len() {
            let i = range.start + local;
            let acc = matmul_tile::<E, 1>(&a[i * k..(i + 1) * k], k, panel, jw);
            let at = local * n + jb;
            chunk[at..at + jw].copy_from_slice(&acc[0][..jw]);
        }
    }
}

/// `RB` rows of `a` (row-major, `RB × k`) times one packed `k × jw`
/// micro-panel, `jw ≤ MM_NR`; columns past `jw` of the result stay zero.
#[inline(always)]
fn matmul_tile<E: Element, const RB: usize>(
    a: &[f32],
    k: usize,
    panel: &[E],
    jw: usize,
) -> [[f32; MM_NR]; RB] {
    let mut acc = [[0.0f32; MM_NR]; RB];
    let mut step = |kk: usize, b_row: &[E]| {
        for (t, row) in acc.iter_mut().enumerate() {
            let av = a[t * k + kk];
            for (o, &v) in row.iter_mut().zip(b_row) {
                *o += av * v.to_f32();
            }
        }
    };
    if jw == MM_NR {
        // Constant trip count: the accumulators stay in vector registers.
        for (kk, b_row) in panel.chunks_exact(MM_NR).enumerate() {
            step(kk, b_row);
        }
    } else {
        for (kk, b_row) in panel.chunks_exact(jw).enumerate() {
            step(kk, b_row);
        }
    }
    acc
}

/// `matmul_at_b` kernel for one chunk of output rows (a `kk` band): stream
/// the shared `m` dimension in cache blocks, four input rows per pass. The
/// packed `Aᵀ` makes each output row's coefficients contiguous; per output
/// element the accumulation order is ascending `i` on every path.
fn matmul_at_b_chunk<E: Element>(
    at: &[E],
    m: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    for ib in (0..m).step_by(BLOCK_ROWS) {
        let iend = (ib + BLOCK_ROWS).min(m);
        for (local, kk) in range.clone().enumerate() {
            let a_col = &at[kk * m..(kk + 1) * m];
            let out_row = &mut chunk[local * n..(local + 1) * n];
            let mut i = ib;
            while i + 4 <= iend {
                let a0 = a_col[i].to_f32();
                let a1 = a_col[i + 1].to_f32();
                let a2 = a_col[i + 2].to_f32();
                let a3 = a_col[i + 3].to_f32();
                let b0 = &b[i * n..(i + 1) * n];
                let b1 = &b[(i + 1) * n..(i + 2) * n];
                let b2 = &b[(i + 2) * n..(i + 3) * n];
                let b3 = &b[(i + 3) * n..(i + 4) * n];
                for ((((o, &v0), &v1), &v2), &v3) in
                    out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *o += a0 * v0;
                    *o += a1 * v1;
                    *o += a2 * v2;
                    *o += a3 * v3;
                }
                i += 4;
            }
            while i < iend {
                let a0 = a_col[i].to_f32();
                let b0 = &b[i * n..(i + 1) * n];
                for (o, &v0) in out_row.iter_mut().zip(b0) {
                    *o += a0 * v0;
                }
                i += 1;
            }
        }
    }
}

/// `matmul_a_bt` kernel for one chunk of output rows: `other`-rows are
/// cache-blocked, and within a block four output columns are produced per
/// pass with four independent accumulators (each one ascending-`k`
/// product-then-add chain).
fn matmul_a_bt_chunk<E: Element>(
    a: &[f32],
    k: usize,
    b: &[E],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    for jb in (0..n).step_by(BLOCK_ROWS) {
        let jend = (jb + BLOCK_ROWS).min(n);
        for (local, i) in range.clone().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut chunk[local * n..(local + 1) * n];
            let mut j = jb;
            while j + 4 <= jend {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let mut c0 = 0.0f32;
                let mut c1 = 0.0f32;
                let mut c2 = 0.0f32;
                let mut c3 = 0.0f32;
                for ((((&av, &v0), &v1), &v2), &v3) in a_row.iter().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    c0 += av * v0.to_f32();
                    c1 += av * v1.to_f32();
                    c2 += av * v2.to_f32();
                    c3 += av * v3.to_f32();
                }
                out_row[j] = c0;
                out_row[j + 1] = c1;
                out_row[j + 2] = c2;
                out_row[j + 3] = c3;
                j += 4;
            }
            while j < jend {
                let b0 = &b[j * k..(j + 1) * k];
                let mut c0 = 0.0f32;
                for (&av, &v0) in a_row.iter().zip(b0) {
                    c0 += av * v0.to_f32();
                }
                out_row[j] = c0;
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD microkernels (AVX2+FMA via the f32x8 wrapper; called only when
// `simd::active()`). Each output element's accumulation chain depends only
// on global geometry (panel offsets, j-tile boundaries, shared-dimension
// blocks), never on how rows were chunked — that is the bit-identity-
// across-pool-sizes argument.
// ---------------------------------------------------------------------------

/// `matmul` register tile: `RB` rows × one micro-panel (16 columns, or
/// 8 + scalar columns of a narrower last panel) over one shared-dimension
/// block of `kc` steps. The accumulators start from zero on the first
/// block and from the stored `C` tile on later ones, so per output element
/// the chain is `acc = fma(a[i,kk], b[kk,j], acc)` over ascending `kk`
/// across the whole shared dimension — blocking stores and reloads the
/// running value (exact) and never splits the chain, and the chain is the
/// same in every tile height, so chunk splits can't change bits.
///
/// # Safety
/// Requires AVX2+FMA context. `ap` must be valid for `RB` rows of `kc`
/// reads at row stride `k`, `panel` for `kc × jw` reads, `cp` for an
/// `RB × jw` tile of reads and writes at row stride `n`; `jw ≤ MM_NR`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn mm_tile_simd<E: Element, const RB: usize>(
    ap: *const f32,
    k: usize,
    panel: *const E,
    jw: usize,
    kc: usize,
    cp: *mut f32,
    n: usize,
    first: bool,
) {
    unsafe {
        if jw == MM_NR {
            let mut acc = [[F32x8::zero(); 2]; RB];
            if !first {
                for (t, av) in acc.iter_mut().enumerate() {
                    av[0] = F32x8::load(cp.add(t * n));
                    av[1] = F32x8::load(cp.add(t * n + 8));
                }
            }
            for kk in 0..kc {
                let bk = panel.add(kk * MM_NR);
                let b0 = E::load8(bk);
                let b1 = E::load8(bk.add(8));
                for (t, av) in acc.iter_mut().enumerate() {
                    let a = F32x8::splat(*ap.add(t * k + kk));
                    av[0] = a.mul_add(b0, av[0]);
                    av[1] = a.mul_add(b1, av[1]);
                }
            }
            for (t, av) in acc.iter().enumerate() {
                av[0].store(cp.add(t * n));
                av[1].store(cp.add(t * n + 8));
            }
            return;
        }
        let mut j = 0;
        if jw >= 8 {
            let mut acc = [F32x8::zero(); RB];
            if !first {
                for (t, av) in acc.iter_mut().enumerate() {
                    *av = F32x8::load(cp.add(t * n));
                }
            }
            for kk in 0..kc {
                let b0 = E::load8(panel.add(kk * jw));
                for (t, av) in acc.iter_mut().enumerate() {
                    let a = F32x8::splat(*ap.add(t * k + kk));
                    *av = a.mul_add(b0, *av);
                }
            }
            for (t, av) in acc.iter().enumerate() {
                av.store(cp.add(t * n));
            }
            j = 8;
        }
        while j < jw {
            for t in 0..RB {
                let o = cp.add(t * n + j);
                let mut s = if first { 0.0 } else { *o };
                for kk in 0..kc {
                    s = (*ap.add(t * k + kk)).mul_add((*panel.add(kk * jw + j)).to_f32(), s);
                }
                *o = s;
            }
            j += 1;
        }
    }
}

/// `matmul` SIMD chunk kernel: shared-dimension blocks outermost, then
/// micro-panels, then the chunk's rows in [`MM_MR`]-high register tiles
/// with one 4-, 2- and 1-row tile for `rows % MM_MR`.
#[inline(always)]
unsafe fn mm_chunk_simd_impl<E: Element>(
    a: &[f32],
    k: usize,
    bp: &[E],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    let rows = range.len();
    assert!(a.len() >= range.end * k && bp.len() == k * n && chunk.len() == rows * n);
    let cp = chunk.as_mut_ptr();
    // SAFETY: AVX2+FMA per this function's contract. The lengths asserted
    // above bound every access: a tile reads a-rows `range.start + r ..
    // + RB ≤ range.end` at columns `kb .. kb + kc ≤ k`, rows `kb .. kb +
    // kc` of the `k × jw` panel at `jb·k`, and the `RB × jw` window at
    // column `jb` of the chunk's `rows × n` outputs.
    unsafe {
        let ap = a.as_ptr().add(range.start * k);
        for kb in (0..k).step_by(MM_KC) {
            let kc = (k - kb).min(MM_KC);
            let first = kb == 0;
            for jb in (0..n).step_by(MM_NR) {
                let jw = (n - jb).min(MM_NR);
                let panel = bp.as_ptr().add(jb * k + kb * jw);
                let (ab, cb) = (ap.add(kb), cp.add(jb));
                let mut r = 0;
                macro_rules! tile {
                    ($rb:expr) => {{
                        let (at, ct) = (ab.add(r * k), cb.add(r * n));
                        mm_tile_simd::<E, { $rb }>(at, k, panel, jw, kc, ct, n, first);
                        r += $rb;
                    }};
                }
                while r + MM_MR <= rows {
                    tile!(MM_MR);
                }
                if r + 4 <= rows {
                    tile!(4);
                }
                if r + 2 <= rows {
                    tile!(2);
                }
                while r < rows {
                    tile!(1);
                }
            }
        }
    }
}

/// Pack-free skinny `matmul` tile: `RB` output rows × `jw` columns, `KU`
/// consecutive shared-dimension steps. The `KU` rows of `B` are read in
/// place (contiguous `jw`-element pieces), each output vector is loaded
/// once (or started from zero when `first`), takes its `KU` FMAs in
/// ascending `k` and is stored back into the L1-resident output tile; the
/// `jw % 8` columns run the same chain on scalar `mul_add`.
///
/// # Safety
/// Requires AVX2+FMA context. `ap` must be valid for `RB` rows of `KU`
/// reads at row stride `k`, `bp` for `KU` rows of `jw` reads at row stride
/// `n`, `cp` for an `RB × jw` tile of reads and writes at row stride `n`.
#[inline(always)]
unsafe fn mm_skinny_tile_simd<const RB: usize, const KU: usize>(
    ap: *const f32,
    k: usize,
    bp: *const f32,
    n: usize,
    jw: usize,
    cp: *mut f32,
    first: bool,
) {
    unsafe {
        let mut a = [[F32x8::zero(); KU]; RB];
        for (t, row) in a.iter_mut().enumerate() {
            for (u, v) in row.iter_mut().enumerate() {
                *v = F32x8::splat(*ap.add(t * k + u));
            }
        }
        let mut j = 0;
        while j + simd::LANES <= jw {
            let mut bv = [F32x8::zero(); KU];
            for (u, v) in bv.iter_mut().enumerate() {
                *v = F32x8::load(bp.add(u * n + j));
            }
            for (t, row) in a.iter().enumerate() {
                let o = cp.add(t * n + j);
                let mut c = if first { F32x8::zero() } else { F32x8::load(o) };
                for (&av, &b) in row.iter().zip(&bv) {
                    c = av.mul_add(b, c);
                }
                c.store(o);
            }
            j += simd::LANES;
        }
        while j < jw {
            for t in 0..RB {
                let o = cp.add(t * n + j);
                let mut c = if first { 0.0 } else { *o };
                for u in 0..KU {
                    c = (*ap.add(t * k + u)).mul_add(*bp.add(u * n + j), c);
                }
                *o = c;
            }
            j += 1;
        }
    }
}

/// Pack-free skinny `matmul` chunk kernel (at most [`MM_SKINNY_ROWS`] rows
/// in all): per [`MM_SKINNY_NC`]-column block, the shared dimension
/// outermost in steps of four (then single steps for `k % 4`), rows in
/// pairs (then one). Every element of `B` is read exactly once per chunk,
/// in row order.
///
/// # Safety
/// The executing CPU must support AVX2+FMA.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
unsafe fn mm_skinny_chunk_simd(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    let rows = range.len();
    assert!(a.len() >= range.end * k && b.len() == k * n && chunk.len() == rows * n);
    let cp = chunk.as_mut_ptr();
    // SAFETY: AVX2+FMA per this function's contract. The lengths asserted
    // above bound every access: a tile reads a-rows `range.start + r ..
    // + RB ≤ range.end` at columns `kk .. kk + KU ≤ k`, rows `kk .. kk + KU`
    // of `b` at columns `jb .. jb + jw ≤ n`, and the `RB × jw` window at
    // column `jb` of the chunk's `rows × n` outputs.
    unsafe {
        let ap = a.as_ptr().add(range.start * k);
        let bp = b.as_ptr();
        for jb in (0..n).step_by(MM_SKINNY_NC) {
            let jw = (n - jb).min(MM_SKINNY_NC);
            let mut kk = 0;
            macro_rules! steps {
                ($ku:expr) => {{
                    let (bk, first) = (bp.add(kk * n + jb), kk == 0);
                    let mut r = 0;
                    while r + 2 <= rows {
                        let (at, ct) = (ap.add(r * k + kk), cp.add(r * n + jb));
                        mm_skinny_tile_simd::<2, { $ku }>(at, k, bk, n, jw, ct, first);
                        r += 2;
                    }
                    if r < rows {
                        let (at, ct) = (ap.add(r * k + kk), cp.add(r * n + jb));
                        mm_skinny_tile_simd::<1, { $ku }>(at, k, bk, n, jw, ct, first);
                    }
                    kk += $ku;
                }};
            }
            while kk + 4 <= k {
                steps!(4);
            }
            while kk < k {
                steps!(1);
            }
        }
    }
}

/// `matmul_at_b` row block: `RB` output rows × 16/8/1 columns over one
/// shared-dimension cache block, register accumulation then one `+=` into
/// the output — or, with `store` set, into `+0.0` instead of the old
/// contents, which are then never read (the overwriting entry's first
/// block). Per element: per block, `o += (fma chain over ascending i)` —
/// block boundaries are global ([`BLOCK_ROWS`]), so the chain shape is
/// chunk-independent, and `store` is bitwise the add into a zeroed output.
///
/// # Safety
/// Requires AVX2+FMA context; all indices in bounds (caller-maintained).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn atb_rows_simd<E: Element, const RB: usize>(
    at: *const E,
    m: usize,
    bp: *const f32,
    n: usize,
    cp: *mut f32,
    ib: usize,
    iend: usize,
    at_row0: usize,
    c_row0: usize,
    store: bool,
) {
    unsafe {
        let prior = |o: *const f32| {
            if store {
                F32x8::zero()
            } else {
                F32x8::load(o)
            }
        };
        let mut j = 0;
        while j + 16 <= n {
            let mut acc = [[F32x8::zero(); 2]; RB];
            for i in ib..iend {
                let b = bp.add(i * n + j);
                let b0 = F32x8::load(b);
                let b1 = F32x8::load(b.add(8));
                for (t, av) in acc.iter_mut().enumerate() {
                    let a = F32x8::splat((*at.add((at_row0 + t) * m + i)).to_f32());
                    av[0] = a.mul_add(b0, av[0]);
                    av[1] = a.mul_add(b1, av[1]);
                }
            }
            for (t, av) in acc.iter().enumerate() {
                let o = cp.add((c_row0 + t) * n + j);
                prior(o).add(av[0]).store(o);
                prior(o.add(8)).add(av[1]).store(o.add(8));
            }
            j += 16;
        }
        while j + 8 <= n {
            let mut acc = [F32x8::zero(); RB];
            for i in ib..iend {
                let b0 = F32x8::load(bp.add(i * n + j));
                for (t, av) in acc.iter_mut().enumerate() {
                    let a = F32x8::splat((*at.add((at_row0 + t) * m + i)).to_f32());
                    *av = a.mul_add(b0, *av);
                }
            }
            for (t, av) in acc.iter().enumerate() {
                let o = cp.add((c_row0 + t) * n + j);
                prior(o).add(*av).store(o);
            }
            j += 8;
        }
        while j < n {
            for t in 0..RB {
                let mut s = 0.0f32;
                for i in ib..iend {
                    s = ((*at.add((at_row0 + t) * m + i)).to_f32()).mul_add(*bp.add(i * n + j), s);
                }
                let o = cp.add((c_row0 + t) * n + j);
                *o = if store { 0.0 } else { *o } + s;
            }
            j += 1;
        }
    }
}

/// `matmul_at_b` SIMD chunk kernel: shared-dimension blocks outermost (as
/// in the scalar kernel), output rows in [`ATB_MR`]-high register tiles.
/// Unless accumulating, the first block stores and later blocks add, so
/// the output's old contents are never loaded.
#[inline(always)]
unsafe fn atb_chunk_simd_impl<E: Element>(
    at: &[E],
    m: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
    accumulate: bool,
) {
    let rows = range.len();
    let atp = at.as_ptr();
    let bp = b.as_ptr();
    let cp = chunk.as_mut_ptr();
    for ib in (0..m).step_by(BLOCK_ROWS) {
        let iend = (ib + BLOCK_ROWS).min(m);
        let store = ib == 0 && !accumulate;
        let mut r = 0;
        unsafe {
            while r + ATB_MR <= rows {
                atb_rows_simd::<E, ATB_MR>(atp, m, bp, n, cp, ib, iend, range.start + r, r, store);
                r += ATB_MR;
            }
            while r < rows {
                atb_rows_simd::<E, 1>(atp, m, bp, n, cp, ib, iend, range.start + r, r, store);
                r += 1;
            }
        }
    }
}

/// `matmul_a_bt` register tile: `MR` a-rows × `NR` b-rows of lane-wise
/// accumulators over the shared dimension — at 4×3, seven loads feed
/// twelve FMAs per eight-wide `k` step. Each output element is one 8-lane
/// FMA chain over ascending `k`, reduced by the fixed [`F32x8::hsum`] tree
/// and finished by a scalar `mul_add` tail over `k % 8`; the chain's shape
/// depends on `k` alone, so every tile shape produces the same bits.
///
/// # Safety
/// Requires AVX2+FMA context. `ap` must be valid for `MR` rows and `bp`
/// for `NR` rows of `k` reads each, `cp` for an `MR × NR` tile of writes at
/// row stride `n`.
#[inline(always)]
unsafe fn abt_tile_simd<E: Element, const MR: usize, const NR: usize>(
    ap: *const f32,
    bp: *const E,
    k: usize,
    cp: *mut f32,
    n: usize,
) {
    unsafe {
        let mut acc = [[F32x8::zero(); NR]; MR];
        let mut kk = 0;
        while kk + simd::LANES <= k {
            let mut bv = [F32x8::zero(); NR];
            for (c, b) in bv.iter_mut().enumerate() {
                *b = E::load8(bp.add(c * k + kk));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = F32x8::load(ap.add(r * k + kk));
                for (cell, &b) in row.iter_mut().zip(&bv) {
                    *cell = av.mul_add(b, *cell);
                }
            }
            kk += simd::LANES;
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                let mut s = cell.hsum();
                for t in kk..k {
                    s = (*ap.add(r * k + t)).mul_add((*bp.add(c * k + t)).to_f32(), s);
                }
                *cp.add(r * n + c) = s;
            }
        }
    }
}

/// One `MR`-row strip of a column block: [`ABT_NR`]-wide tiles, then
/// 1-wide tiles for `cols % ABT_NR`.
///
/// # Safety
/// As [`abt_tile_simd`], for `cols` b-rows and output columns.
#[inline(always)]
unsafe fn abt_strip_simd<E: Element, const MR: usize>(
    ap: *const f32,
    bp: *const E,
    cols: usize,
    k: usize,
    cp: *mut f32,
    n: usize,
) {
    unsafe {
        let mut j = 0;
        while j + ABT_NR <= cols {
            abt_tile_simd::<E, MR, ABT_NR>(ap, bp.add(j * k), k, cp.add(j), n);
            j += ABT_NR;
        }
        while j < cols {
            abt_tile_simd::<E, MR, 1>(ap, bp.add(j * k), k, cp.add(j), n);
            j += 1;
        }
    }
}

/// `matmul_a_bt` SIMD chunk kernel: both operands are read in place. Per
/// [`ABT_JB`]-row block of `b` (L2-resident), each [`ABT_MR`]-row strip of
/// `a` stays in L1 while the block's b-rows stream past it; `rows % ABT_MR`
/// strips are 1-row.
#[inline(always)]
unsafe fn abt_chunk_simd_impl<E: Element>(
    a: &[f32],
    k: usize,
    b: &[E],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    let rows = range.len();
    assert!(a.len() >= range.end * k && b.len() == n * k && chunk.len() == rows * n);
    let bp = b.as_ptr();
    let cp = chunk.as_mut_ptr();
    // SAFETY: AVX2+FMA per this function's contract. The lengths asserted
    // above bound every access: a strip reads a-rows `range.start + r ..
    // + MR ≤ range.end`, b-rows `jb .. jb + cols ≤ n`, and writes that
    // `MR × cols` window of the chunk's `rows × n` outputs.
    unsafe {
        let ap = a.as_ptr().add(range.start * k);
        for jb in (0..n).step_by(ABT_JB) {
            let cols = (n - jb).min(ABT_JB);
            let (bj, cj) = (bp.add(jb * k), cp.add(jb));
            let mut r = 0;
            while r + ABT_MR <= rows {
                abt_strip_simd::<E, ABT_MR>(ap.add(r * k), bj, cols, k, cj.add(r * n), n);
                r += ABT_MR;
            }
            while r < rows {
                abt_strip_simd::<E, 1>(ap.add(r * k), bj, cols, k, cj.add(r * n), n);
                r += 1;
            }
        }
    }
}

// Target-feature entry points: `#[target_feature]` cannot sit on trait
// methods or (portably) on generic fns, so each (kernel, element) pair
// gets a monomorphic wrapper the `PanelElem` impls forward to. The
// `#[inline(always)]` impl bodies compile *inside* these wrappers and so
// inherit the enabled features.
macro_rules! simd_entry {
    ($name:ident, $impl_fn:ident, $e:ty, ($($arg:ident: $ty:ty),*)) => {
        /// # Safety
        /// The executing CPU must support AVX2+FMA.
        #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
        unsafe fn $name($($arg: $ty),*) {
            unsafe { $impl_fn::<$e>($($arg),*) }
        }
    };
}

simd_entry!(mm_chunk_simd_f32, mm_chunk_simd_impl, f32,
    (a: &[f32], k: usize, bp: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!(mm_chunk_simd_bf16, mm_chunk_simd_impl, u16,
    (a: &[f32], k: usize, bp: &[u16], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!(atb_chunk_simd_f32, atb_chunk_simd_impl, f32,
    (at: &[f32], m: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>,
     accumulate: bool));
simd_entry!(atb_chunk_simd_bf16, atb_chunk_simd_impl, u16,
    (at: &[u16], m: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>,
     accumulate: bool));
simd_entry!(abt_chunk_simd_f32, abt_chunk_simd_impl, f32,
    (a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!(abt_chunk_simd_bf16, abt_chunk_simd_impl, u16,
    (a: &[f32], k: usize, b: &[u16], n: usize, chunk: &mut [f32], range: Range<usize>));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, 2.0], &[3.0, 1.0, 0.0], &[2.0, 2.0, 1.0]]);
        let want_atb = a.transpose().matmul(&b);
        assert_eq!(a.matmul_at_b(&b), want_atb);

        let c = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]); // 2x2
        let d = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.5], &[0.0, 3.0]]); // 3x2
        let want_abt = c.matmul(&d.transpose());
        assert_eq!(c.matmul_a_bt(&d), want_abt);
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Force the parallel path with > PAR_THRESHOLD rows.
        let m = 300;
        let k = 17;
        let n = 23;
        let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 7) as f32 * 0.25).collect());
        let par = a.matmul(&b);
        // Serial reference.
        let mut serial = Matrix::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    let v = serial.get(i, j) + a.get(i, kk) * b.get(kk, j);
                    serial.set(i, j, v);
                }
            }
        }
        for i in 0..m {
            for j in 0..n {
                assert!((par.get(i, j) - serial.get(i, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn parallel_matmul_at_b_bit_identical_to_serial() {
        // Force the parallel path with > PAR_THRESHOLD output rows
        // (self.cols) and > BLOCK_ROWS shared rows so blocking engages.
        let m = 150;
        let k = 160;
        let n = 19;
        // Sprinkle exact zeros so dropping the old zero-skip branch is
        // exercised against the branch-free reference.
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        (i % 13) as f32 - 6.0
                    }
                })
                .collect(),
        );
        let b = Matrix::from_vec(
            m,
            n,
            (0..m * n).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect(),
        );
        let par = a.matmul_at_b(&b);
        // The pooled auto-backend result must match the serial (parts = 1)
        // auto-backend result bit-for-bit — the pool-invariance contract
        // holds on whichever backend the host selects.
        let mut serial = Matrix::zeros(k, n);
        a.matmul_at_b_into_parts(&b, &mut serial, 1);
        assert_eq!(par, serial);
        // And the scalar reference (branch-free ascending-i accumulation)
        // agrees within the documented tolerance — bitwise when the host
        // has no SIMD, within the FMA/reduction ULP bound otherwise.
        let mut reference = Matrix::zeros(k, n);
        for i in 0..m {
            for kk in 0..k {
                let av = a.get(i, kk);
                for j in 0..n {
                    let v = reference.get(kk, j) + av * b.get(i, j);
                    reference.set(kk, j, v);
                }
            }
        }
        for kk in 0..k {
            for j in 0..n {
                let (x, y) = (par.get(kk, j), reference.get(kk, j));
                assert!(
                    (x - y).abs() <= 1e-3 + y.abs() * 1e-5,
                    "({kk},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn parallel_matmul_a_bt_bit_identical_to_serial() {
        // Force the parallel path with > PAR_THRESHOLD rows; 141 % ABT_MR,
        // 131 % ABT_NR and 100 % 8 are all non-zero and 131 > 2·ABT_JB, so
        // the pooled chunks cut through full tiles, both remainder tiles,
        // the scalar tail and several column blocks.
        let m = 141;
        let k = 100;
        let n = 131;
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| (i % 11) as f32 * 0.5 - 2.0).collect(),
        );
        let b = Matrix::from_vec(n, k, (0..n * k).map(|i| (i % 9) as f32 - 4.0).collect());
        let par = a.matmul_a_bt(&b);
        let mut serial = Matrix::zeros(m, n);
        a.matmul_a_bt_into_parts(&b, &mut serial, 1);
        assert_eq!(par, serial);
        // These operands are small multiples of 0.5, so every product and
        // partial sum is exact in f32 and any summation order must land on
        // the same value as the plain ascending-k loop.
        for i in 0..m {
            for j in 0..n {
                let want: f32 = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
                assert_eq!(par.get(i, j), want, "({i},{j})");
            }
        }
    }

    #[test]
    fn into_variants_overwrite_stale_output() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut out = Matrix::from_rows(&[&[9.0, 9.0], &[9.0, 9.0]]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a);
        a.matmul_at_b_into(&b, &mut out);
        assert_eq!(out, a.transpose().matmul(&b));
        a.matmul_a_bt_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b.transpose()));
    }

    #[test]
    fn mixed_matmuls_agree_with_f32_within_bf16_tolerance() {
        // bf16 keeps 8 mantissa bits → relative error ~2^-8 per stored
        // element of the packed operand; the identity-`B` product is exact.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let id = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut out = Matrix::from_rows(&[&[9.0, 9.0], &[9.0, 9.0]]);
        a.matmul_into_prec(&id, &mut out, Precision::Mixed);
        assert_eq!(out, a, "identity is exact in bf16");
        a.matmul_at_b_into_prec(&id, &mut out, Precision::Mixed);
        assert_eq!(out, a.transpose(), "Aᵀ·I with bf16 Aᵀ of exact values");
        a.matmul_a_bt_into_prec(&id, &mut out, Precision::Mixed);
        assert_eq!(out, a);

        // Random-ish values: relative tolerance 2^-7 (one bf16 ulp of the
        // operand plus accumulation slack).
        let m = 50;
        let k = 40;
        let n = 30;
        let x = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| (i % 23) as f32 * 0.21 - 2.0).collect(),
        );
        let w = Matrix::from_vec(
            k,
            n,
            (0..k * n).map(|i| (i % 17) as f32 * 0.13 - 1.0).collect(),
        );
        let full = x.matmul(&w);
        let mut mixed = Matrix::zeros(m, n);
        x.matmul_into_prec(&w, &mut mixed, Precision::Mixed);
        for (f, g) in full.as_slice().iter().zip(mixed.as_slice()) {
            assert!(
                (f - g).abs() <= f.abs() * (1.0 / 128.0) + 0.05,
                "{f} vs {g}"
            );
        }
    }

    #[test]
    fn precision_knob_dispatches() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut f32_out = Matrix::zeros(2, 2);
        let mut mixed_out = Matrix::zeros(2, 2);
        a.matmul_into_prec(&b, &mut f32_out, Precision::F32);
        a.matmul_into_prec(&b, &mut mixed_out, Precision::Mixed);
        assert_eq!(f32_out, a);
        assert_eq!(mixed_out, a);
        a.matmul_at_b_into_prec(&b, &mut f32_out, Precision::F32);
        a.matmul_at_b_into_prec(&b, &mut mixed_out, Precision::Mixed);
        assert_eq!(f32_out, mixed_out);
        a.matmul_a_bt_into_prec(&b, &mut f32_out, Precision::F32);
        a.matmul_a_bt_into_prec(&b, &mut mixed_out, Precision::Mixed);
        assert_eq!(f32_out, mixed_out);
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_matmul_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_assign_and_norm() {
        let mut a = Matrix::from_rows(&[&[3.0, 0.0]]);
        let b = Matrix::from_rows(&[&[0.0, 4.0]]);
        a.add_assign(&b);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
