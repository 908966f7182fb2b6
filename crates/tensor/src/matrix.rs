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
//! * **Packed, cache-blocked microkernel** — `matmul` packs `B` one slice
//!   at a time: per 256-step block of the shared dimension and per tile's
//!   worth of columns, a `256 × (16, or 48 at 512 bits)` slice goes into
//!   16-column, `k`-contiguous micro-panels in a buffer on the kernel's
//!   stack right before the chunk's row tiles run over it, so it stays in
//!   L1/L2 and no copy of the whole of `B` is ever made. A SIMD `matmul`
//!   of at most 16 rows reads `B` in place instead (the pack would cost
//!   more than the product — same per-element chain, so the same
//!   bits). [`Matrix::matmul_at_b`]'s SIMD kernels copy, per band of
//!   output rows and shared-dimension block, one contiguous piece of each
//!   `A` row to the stack instead of packing `Aᵀ`, which only its scalar
//!   kernel does (once per call, into a reused thread-local scratch);
//!   [`Matrix::matmul_a_bt`] reads both operands in place. The inner loop runs on one of three backends selected once per
//!   call: the SIMD microkernels at 512 bits (AVX-512F, `F32x16`)
//!   or 256 bits (AVX2+FMA, `F32x8`) — one generic source
//!   over the crate-private `Lanes`, compiled once per width, the width the
//!   host's (runtime-detected, no setting) — or the branch-free scalar
//!   loops as the guaranteed fallback (4×-unrolled for the transposed
//!   variants, a 2-row × 16-column local tile over the same micro-panels
//!   for `matmul`). Register tiles, rows × columns:
//!
//!   | kernel | 256 bits | 512 bits |
//!   |---|---|---|
//!   | `matmul` | 6 × 16 (12 ymm accumulators) | 8 × 48 (24 zmm, three panels) |
//!   | `matmul` ≤ 16 rows, pack-free | 2 × 8 per vector, 4 `k` steps | 2 × 16 per vector, 4 `k` steps |
//!   | `matmul_at_b` | 4 × 16 | 8 × 32 |
//!   | `matmul_a_bt` (8-lane chains) | 4 a-rows × 3 b-rows in 16 ymm | 4 × 6 in 32 ymm (AVX-512VL) |
//!
//!   Remainder rows take 4-, 2- and 1-row tiles of the same chains; the
//!   last columns take fewer vectors and a masked partial one.
//! * **Bit-identity across pool sizes and widths** — every output element
//!   accumulates its terms in the same order on every path at every worker
//!   count: the row partition never splits an element's accumulation
//!   chain, and each SIMD kernel gives every output element one chain
//!   whose shape depends only on the shared dimension and global block
//!   boundaries, never on the chunk split, on which register tile (full or
//!   remainder) computed it, or on how many lanes that tile's registers
//!   hold. The chains: `matmul` — one FMA per ascending `k`, carried
//!   through the output between shared-dimension blocks; `matmul_at_b` —
//!   one FMA chain per 64-row block of the shared dimension, each added
//!   into the output in block order (the overwriting entry's first block
//!   is added to `+0.0` and stored, so the output's old contents are never
//!   read); `matmul_a_bt` — eight lane accumulators stepped over ascending
//!   `k`, one fixed `F32x8::hsum` tree, then a scalar FMA tail over
//!   `k % 8` (at both widths). Pooled results are therefore **bitwise
//!   equal** to the serial (`parts = 1`) kernel for every budget, the
//!   512-bit kernels are **bit-identical** to the 256-bit ones, and row
//!   `i` of an `M`-row `matmul` / `matmul_a_bt` is bitwise the one-row
//!   product (what batched serving relies on). The scalar
//!   backend is additionally the cross-platform reference: SIMD results
//!   differ from it only within a documented ULP bound (FMA contraction +
//!   lane-tree reductions); see `tests/simd_properties.rs`, which also pins
//!   the `matmul` and `matmul_a_bt` chains against plain-Rust
//!   transcriptions and the two widths against each other.
//!
//! The `*_into` variants write into a caller-owned output matrix; combined
//! with the thread-local packing scratch and the stack-held `matmul` slice,
//! a steady-state pooled matmul performs **zero heap allocations**
//! (counting-allocator tests in `tests/tests/gemm_alloc.rs`).

use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::ops::Range;

use crate::simd::{self, Avx2, Avx512, Lanes};
#[cfg(target_arch = "x86_64")]
use crate::simd::{F32x16, F32x8};

/// A dense, row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A borrowed row-major `rows × cols` view: the `B` operand of
/// [`Matrix::matmul_into`] and [`Matrix::matmul_a_bt_into`], so a weight
/// can live in a slice of a larger buffer (a model's parameter arena)
/// instead of a [`Matrix`] of its own. Every `&Matrix` converts into one.
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

/// Kernel backend selector — test hook for pinning SIMD-vs-scalar and
/// 512-vs-256-bit agreement; production callers always use `Auto`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The widest kernels the host supports ([`simd::wide`], then
    /// [`simd::active`]), scalar otherwise.
    #[default]
    Auto,
    /// Force the scalar reference path.
    Scalar,
    /// The 256-bit kernels where the host has AVX2+FMA (scalar otherwise),
    /// even on an AVX-512 host.
    Avx2,
}

/// The kernels one GEMM call runs, resolved once per call so a single
/// product never mixes them, with the proofs that let them run: the
/// 512-bit set also carries the AVX2 proof its 8-lane `matmul_a_bt` chains
/// are built from.
#[derive(Debug, Clone, Copy)]
enum Isa {
    Scalar,
    Avx2(Avx2),
    Avx512(Avx2, Avx512),
}

impl Backend {
    fn isa(self) -> Isa {
        match (self, simd::avx2(), simd::avx512()) {
            (Backend::Scalar, ..) | (_, None, _) => Isa::Scalar,
            (Backend::Auto, Some(t), Some(w)) => Isa::Avx512(t, w),
            (_, Some(t), _) => Isa::Avx2(t),
        }
    }
}

/// Row count above which matmuls parallelize over the compute pool.
const PAR_THRESHOLD: usize = 128;

/// Packed-`B` micro-panel width for [`Matrix::matmul`]: a panel holds 16
/// columns with the shared dimension contiguous, so one `k` step of a tile
/// reads one 64-byte line per panel and the next step the next line.
const MM_NR: usize = 16;

/// Shared-dimension block of the `matmul` kernels: one packed slice is at
/// most `MM_KC` rows of [`MM_SLICE_COLS`] columns (48 KB f32), so it stays
/// in L1/L2 across every row tile of the chunk.
const MM_KC: usize = 256;

/// Row count up to which the f32 SIMD [`Matrix::matmul`] reads `B` in place
/// instead of packing it. Packing pays for itself by reuse across row
/// tiles; below this, streaming `B` once in row order beats the pack.
/// Re-measured at 512 bits (µs, pack-free vs packed, one thread): on a
/// 512 × 512 `B`, M = 1 23 vs 113, M = 16 142 vs 170, M = 20 204 vs 193;
/// on 1024 × 1024, M = 1 255 vs 559, M = 16 1,029 vs 1,012, M = 20 1,200
/// vs 1,060.
const MM_SKINNY_ROWS: usize = 16;

/// Column block of the pack-free skinny `matmul`: the `M × 256` f32 output
/// tile (16 KB at `M = 16`) stays in L1 while rows of `B` stream past it.
const MM_SKINNY_NC: usize = 256;

/// Cache-blocking tile for the shared dimension of the transposed matmuls:
/// 64 rows × up to ~256 f32 columns ≈ 64 KB, comfortably inside L2 while
/// leaving room for the output row being accumulated.
const BLOCK_ROWS: usize = 64;

// Register tiles, rows × column vectors (see the module doc's table). Each
// fills its register file without spilling: `matmul` 6 × 2 ymm (12
// accumulators of 16) and 8 × 3 zmm (24 of 32, three 16-column panels per
// slice); `matmul_at_b` 4 × 2 ymm and 8 × 2 zmm; `matmul_a_bt` 4 a-rows × 3
// b-rows of 8-lane accumulators in 16 ymm and 4 × 6 in the 32 ymm
// AVX-512VL gives.
const MM_MR_256: usize = 6;
const MM_NV_256: usize = 2;
const MM_MR_512: usize = 8;
const MM_NV_512: usize = 3;
const ATB_MR_256: usize = 4;
const ATB_MR_512: usize = 8;
const ATB_NV: usize = 2;
const ABT_MR_256: usize = 4;
const ABT_NR_256: usize = 3;
const ABT_MR_512: usize = 4;
const ABT_NR_512: usize = 6;

/// Widest `matmul` slice: the 512-bit tile's three panels.
const MM_SLICE_COLS: usize = MM_NV_512 * 16;

/// Elements of the per-chunk slice buffer (on the kernel's stack).
const MM_SLICE: usize = MM_KC * MM_SLICE_COLS;

/// Rows of `other` per cache block of the SIMD `matmul_a_bt` kernel (a
/// multiple of both b-row tile widths): 48 rows × 1024 f32 = 192 KB sits in
/// L2 while every a-strip of the chunk visits it.
const ABT_JB: usize = 48;

thread_local! {
    /// Per-thread packing scratch (the scalar `matmul_at_b`'s `Aᵀ`), reused across
    /// calls so steady-state products never allocate. Packing always
    /// happens on the dispatching thread (workers only read the packed
    /// operand through the kernel closure), so one scratch per thread
    /// suffices.
    static PACK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Borrow this thread's packing scratch at `len` elements (growing it once
/// if needed) for the duration of `f`.
fn with_pack_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_SCRATCH.with(|s| {
        let mut buf = s.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
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
    /// allocation-free steady-state entry point. `B` is any [`MatRef`]:
    /// a `&Matrix`, or a view into a larger buffer.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not `m×n`.
    pub fn matmul_into<'b>(&self, other: impl Into<MatRef<'b>>, out: &mut Matrix) {
        self.matmul_impl(other.into(), out, auto_parts(self.rows), Backend::Auto);
    }

    /// [`Matrix::matmul_into`] with an explicit chunk count — `parts = 1`
    /// is the serial reference path the property tests compare against.
    #[doc(hidden)]
    pub fn matmul_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_impl(other.into(), out, parts, Backend::Auto);
    }

    /// Full control (tests): explicit parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_impl(other.into(), out, parts, backend);
    }

    /// A skinny product on a SIMD backend reads `B` in place (per element
    /// the same single FMA chain over ascending `k` from zero as the packed
    /// kernel, so the two are bitwise interchangeable); everything else
    /// packs `B` one slice at a time, right before its row tiles run over
    /// it (see [`pack_slice`]), so no copy of the whole of `B` is ever
    /// made. Every kernel overwrites `out`, so it is not cleared first.
    fn matmul_impl(&self, other: MatRef<'_>, out: &mut Matrix, parts: usize, backend: Backend) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        let (isa, skinny) = (backend.isa(), self.rows <= MM_SKINNY_ROWS);
        let (k, n) = (self.cols, other.cols);
        let (a, b) = (&self.data, other.data);
        summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
            // SAFETY: `Backend::isa` hands out a proof only after detecting
            // its features on this CPU.
            unsafe {
                match isa {
                    Isa::Avx512(_, w) if skinny => mm_skinny_512(w, a, k, b, n, chunk, range),
                    Isa::Avx2(t) if skinny => mm_skinny_256(t, a, k, b, n, chunk, range),
                    Isa::Avx512(_, w) => mm_chunk_512(w, a, k, b, n, chunk, range),
                    Isa::Avx2(t) => mm_chunk_256(t, a, k, b, n, chunk, range),
                    Isa::Scalar => matmul_chunk(a, k, b, n, chunk, range),
                }
            }
        });
    }

    /// `selfᵀ · other` (`(m×k)ᵀ · m×n → k×n`). This is the weight-gradient
    /// product `Xᵀ · dY`, the backward-pass hot kernel: output rows are
    /// chunked over the pool and the shared `m` dimension is cache-blocked
    /// (SIMD bands copy their pieces of `A`'s rows; the 4×-unrolled scalar
    /// fallback packs `Aᵀ` once per call so each output row streams a
    /// contiguous operand).
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

    /// `selfᵀ · other` into a row-major `k×n` slice of a larger buffer —
    /// the weight-gradient product writing straight into its window of a
    /// flat gradient arena. `accumulate` selects `out += …` over `out = …`;
    /// on a zeroed `out` the two are bitwise equal (the overwriting kernel
    /// stores `0.0 + first block` where the accumulating one adds it).
    ///
    /// # Panics
    /// Panics on row-count mismatch or if `out.len() != k·n`.
    pub fn matmul_at_b_into_slice(&self, other: &Matrix, out: &mut [f32], accumulate: bool) {
        let parts = auto_parts(self.cols);
        self.matmul_at_b_impl(other, out, parts, Backend::Auto, accumulate);
    }

    /// [`Matrix::matmul_at_b_into`] with an explicit chunk count.
    #[doc(hidden)]
    pub fn matmul_at_b_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_at_b_backend(other, out, parts, Backend::Auto, false);
    }

    /// Full control (tests): explicit parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_at_b_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_at_b_backend(other, out, parts, backend, false);
    }

    /// `out += selfᵀ · other` with full control (tests).
    #[doc(hidden)]
    pub fn matmul_at_b_acc_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_at_b_backend(other, out, parts, backend, true);
    }

    fn matmul_at_b_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
        accumulate: bool,
    ) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_at_b output shape mismatch"
        );
        self.matmul_at_b_impl(other, &mut out.data, parts, backend, accumulate);
    }

    fn matmul_at_b_impl(
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
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let (a, b, isa) = (&self.data, &other.data, backend.isa());
        let scalar = matches!(isa, Isa::Scalar);
        // The scalar kernel only ever adds into `out`; the SIMD kernels
        // store their first shared-dimension block when overwriting, so
        // they neither need nor read the old contents.
        if !accumulate && scalar {
            out.fill(0.0);
        }
        // The scalar kernel reads Aᵀ packed once per call, at[kk·m + i] =
        // A[i, kk], so output row kk's m coefficients are contiguous. A SIMD
        // band of output rows kk0.. needs A[i, kk0..] at each step i, which
        // is contiguous in A itself: those kernels take it from A.
        with_pack_scratch(if scalar { m * k } else { 0 }, |at| {
            if scalar {
                for (i, a_row) in a.chunks_exact(k).enumerate() {
                    for (kk, &v) in a_row.iter().enumerate() {
                        at[kk * m + i] = v;
                    }
                }
            }
            let at = &*at;
            summit_pool::global().run_rows(out, n, parts, |chunk, range| {
                // SAFETY: `Backend::isa` hands out a proof only after
                // detecting its features on this CPU.
                unsafe {
                    match isa {
                        Isa::Avx512(_, w) => atb_chunk_512(w, a, k, b, n, chunk, range, accumulate),
                        Isa::Avx2(t) => atb_chunk_256(t, a, k, b, n, chunk, range, accumulate),
                        Isa::Scalar => matmul_at_b_chunk(at, m, b, n, chunk, range),
                    }
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
    /// `other` is any [`MatRef`]: a `&Matrix`, or a view into a larger
    /// buffer.
    ///
    /// # Panics
    /// Panics on column-count mismatch or if `out` is not `m×n`.
    pub fn matmul_a_bt_into<'b>(&self, other: impl Into<MatRef<'b>>, out: &mut Matrix) {
        self.matmul_a_bt_impl(other.into(), out, auto_parts(self.rows), Backend::Auto);
    }

    /// [`Matrix::matmul_a_bt_into`] with an explicit chunk count.
    #[doc(hidden)]
    pub fn matmul_a_bt_into_parts(&self, other: &Matrix, out: &mut Matrix, parts: usize) {
        self.matmul_a_bt_impl(other.into(), out, parts, Backend::Auto);
    }

    /// Full control (tests): explicit parts, forced backend.
    #[doc(hidden)]
    pub fn matmul_a_bt_into_parts_backend(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        self.matmul_a_bt_impl(other.into(), out, parts, backend);
    }

    /// Both operands are row-contiguous: no packing or copies.
    fn matmul_a_bt_impl(
        &self,
        other: MatRef<'_>,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
    ) {
        assert_eq!(self.cols, other.cols, "matmul_a_bt column mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_a_bt output shape mismatch"
        );
        let (n, isa) = (other.rows, backend.isa());
        let (a, k, b) = (&self.data, self.cols, other.data);
        summit_pool::global().run_rows(&mut out.data, n, parts, |chunk, range| {
            // SAFETY: `Backend::isa` hands out a proof only after detecting
            // its features on this CPU.
            unsafe {
                match isa {
                    Isa::Avx512(t, _) => abt_chunk_512(t, a, k, b, n, chunk, range),
                    Isa::Avx2(t) => abt_chunk_256(t, a, k, b, n, chunk, range),
                    Isa::Scalar => matmul_a_bt_chunk(a, k, b, n, chunk, range),
                }
            }
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
// Scalar reference kernels.
// ---------------------------------------------------------------------------

/// Pack rows `ks` and columns `jb .. jb + cols` of the row-major `b` (`n`
/// columns) into [`MM_NR`]-column panels: panel `q` holds columns
/// `jb + 16q ..` at offset `16q·|ks|`, each block row 16 elements after the
/// last, zero-padded to whole panels (so a tile always loads whole
/// vectors). Returns the packed prefix of `buf`.
///
/// # Panics
/// Panics if the slice exceeds `buf` (`|ks| ≤ MM_KC`, `cols ≤ MM_SLICE_COLS`).
fn pack_slice<'s>(
    b: &[f32],
    n: usize,
    ks: Range<usize>,
    jb: usize,
    cols: usize,
    buf: &'s mut [MaybeUninit<f32>; MM_SLICE],
) -> &'s [f32] {
    let kc = ks.len();
    let dst = &mut buf[..cols.div_ceil(MM_NR) * MM_NR * kc];
    for (kk, row) in ks.enumerate() {
        #[cfg(target_arch = "x86_64")]
        for line in 0..=cols / 16 {
            let ahead = b.as_ptr().wrapping_add(row * n + jb + cols + line * 16);
            // SAFETY: a prefetch is a hint: it never faults or writes,
            // whatever the address.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ahead.cast())
            };
        }
        for (q, piece) in b[row * n + jb..][..cols].chunks(MM_NR).enumerate() {
            let d = &mut dst[(q * kc + kk) * MM_NR..][..MM_NR];
            for (slot, &v) in d.iter_mut().zip(piece) {
                slot.write(v);
            }
            for slot in &mut d[piece.len()..] {
                slot.write(0.0);
            }
        }
    }
    // SAFETY: the loops above wrote all of `dst` — `kc` block rows of every
    // panel, each `piece.len()` values plus zero padding to `MM_NR` — and
    // `MaybeUninit<f32>` has `f32`'s layout.
    unsafe { &*(dst as *const [MaybeUninit<f32>] as *const [f32]) }
}

/// `matmul` kernel for one chunk of output rows: per shared-dimension block
/// and 16-column panel (packed by [`pack_slice`]), each pair of rows (then
/// a last single row) accumulates its `1 × 16` segments in locals across
/// the block and stores them once. Per output element the adds run in
/// ascending-`kk` order, one product at a time into the same accumulator:
/// from zero on the first block, from the stored value after (exact).
///
/// Never inlined: its 48 KB slice buffer would land in the frame of the
/// dispatch closure, whose pack-free SIMD calls would then touch it on
/// every call and every thread (`facility_wave` peak RSS 12.6 → 22.1 MB).
#[inline(never)]
fn matmul_chunk(a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>) {
    let mut buf = [MaybeUninit::<f32>::uninit(); MM_SLICE];
    for kb in (0..k).step_by(MM_KC) {
        let kc = (k - kb).min(MM_KC);
        for jb in (0..n).step_by(MM_NR) {
            let jw = (n - jb).min(MM_NR);
            let panel = pack_slice(b, n, kb..kb + kc, jb, jw, &mut buf);
            let mut local = 0;
            while local < range.len() {
                let i = range.start + local;
                let (a_rows, c) = (&a[i * k + kb..], &mut chunk[local * n + jb..]);
                if local + 2 <= range.len() {
                    matmul_tile::<2>(a_rows, k, panel, c, n, jw, kb == 0);
                    local += 2;
                } else {
                    matmul_tile::<1>(a_rows, k, panel, c, n, jw, kb == 0);
                    local += 1;
                }
            }
        }
    }
}

/// `RB` rows of `a` (row stride `k`, from the block's first column) times
/// one packed `kc × 16` panel into the `RB × jw` window of `c` (row stride
/// `n`), starting from zero when `first` and from `c` otherwise.
#[inline(always)]
fn matmul_tile<const RB: usize>(
    a: &[f32],
    k: usize,
    panel: &[f32],
    c: &mut [f32],
    n: usize,
    jw: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; MM_NR]; RB];
    if !first {
        for (t, row) in acc.iter_mut().enumerate() {
            row[..jw].copy_from_slice(&c[t * n..t * n + jw]);
        }
    }
    for (kk, b_row) in panel.chunks_exact(MM_NR).enumerate() {
        for (t, row) in acc.iter_mut().enumerate() {
            let av = a[t * k + kk];
            for (o, &v) in row.iter_mut().zip(b_row) {
                *o += av * v;
            }
        }
    }
    for (t, row) in acc.iter().enumerate() {
        c[t * n..t * n + jw].copy_from_slice(&row[..jw]);
    }
}

/// `matmul_at_b` kernel for one chunk of output rows (a `kk` band): stream
/// the shared `m` dimension in cache blocks, four input rows per pass. The
/// packed `Aᵀ` makes each output row's coefficients contiguous; per output
/// element the accumulation order is ascending `i` on every path.
fn matmul_at_b_chunk(
    at: &[f32],
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
                let a0 = a_col[i];
                let a1 = a_col[i + 1];
                let a2 = a_col[i + 2];
                let a3 = a_col[i + 3];
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
                let a0 = a_col[i];
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
fn matmul_a_bt_chunk(
    a: &[f32],
    k: usize,
    b: &[f32],
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
                    c0 += av * v0;
                    c1 += av * v1;
                    c2 += av * v2;
                    c3 += av * v3;
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
                    c0 += av * v0;
                }
                out_row[j] = c0;
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD microkernels, one source for both widths: generic over the register
// type `V` (`F32x8` or `F32x16`) and compiled once per width inside the
// `simd_entry!` entries below. They are safe functions: a lane value exists
// only by the proof token the dispatch passed in (see `crate::simd`), and
// every load and store goes through a slice, cut once per row or panel so
// the inner loops index within known lengths. Each output element's
// accumulation chain depends only on global geometry (shared-dimension
// blocks), never on how rows were chunked or which register tile (full or
// remainder, 8 or 16 lanes) computed it — the bit-identity argument across
// pool sizes and across widths.
// ---------------------------------------------------------------------------

/// `matmul` register tile: `RB` rows × `NV` vectors of a packed slice over
/// one shared-dimension block of `kc` steps, writing the first `cols`
/// columns of the `C` window. Vector `v` covers slice columns `c = v·LANES
/// ..`: panel `c / 16` at offset `c % 16`. The accumulators start from zero
/// on the first block and from the stored `C` tile on later ones, so per
/// output element the chain is `acc = fma(a[i,kk], b[kk,j], acc)` over
/// ascending `kk` across the whole shared dimension — blocking stores and
/// reloads the running value (exact) and never splits the chain.
///
/// `a` holds the tile's rows from the block's first column at row stride
/// `k`, `slice` the packed panels (panel `q`'s row `kk` at `q·kc + kk`),
/// and `c` the tile's window of `C` at row stride `n`; `cols > (NV -
/// 1)·LANES`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mm_tile<V: Lanes, const RB: usize, const NV: usize>(
    t: V::Token,
    a: &[f32],
    k: usize,
    slice: &[[f32; MM_NR]],
    kc: usize,
    c: &mut [f32],
    n: usize,
    cols: usize,
    first: bool,
) {
    let a: [&[f32]; RB] = std::array::from_fn(|r| &a[r * k..][..kc]);
    let b: [&[[f32; MM_NR]]; NV] =
        std::array::from_fn(|v| &slice[v * V::LANES / MM_NR * kc..][..kc]);
    let mut acc = [[V::zero(t); NV]; RB];
    if !first {
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = V::load_n(t, &c[r * n + v * V::LANES..][..cols - v * V::LANES]);
            }
        }
    }
    for kk in 0..kc {
        let mut bv = [V::zero(t); NV];
        for (v, (x, b)) in bv.iter_mut().zip(&b).enumerate() {
            *x = V::load(t, &b[kk][v * V::LANES % MM_NR..]);
        }
        for (row, a) in acc.iter_mut().zip(&a) {
            let av = V::splat(t, a[kk]);
            for (x, &bv) in row.iter_mut().zip(&bv) {
                *x = av.mul_add(bv, *x);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, x) in row.iter().enumerate() {
            x.store_n(&mut c[r * n + v * V::LANES..][..cols - v * V::LANES]);
        }
    }
}

/// `matmul` SIMD chunk kernel: shared-dimension blocks outermost, then
/// slices of `NV · LANES` columns, each packed by [`pack_slice`] right
/// before the chunk's rows run over it; the last slice's tiles hold only
/// as many vectors as its columns need.
#[inline(always)]
fn mm_chunk_impl<V: Lanes, const MR: usize, const NV: usize>(
    t: V::Token,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    let (rows, a) = (range.len(), &a[range.start * k..range.end * k]);
    let width = NV * V::LANES;
    let mut buf = [MaybeUninit::<f32>::uninit(); MM_SLICE];
    for kb in (0..k).step_by(MM_KC) {
        let kc = (k - kb).min(MM_KC);
        let first = kb == 0;
        for jb in (0..n).step_by(width) {
            let cols = (n - jb).min(width);
            let slice = pack_slice(b, n, kb..kb + kc, jb, cols, &mut buf);
            let slice = slice.as_chunks::<MM_NR>().0;
            // The chunk's rows over the slice: `MR`-row tiles, then one
            // 4-, 2- and 1-row tile for `rows % MR`.
            macro_rules! tile {
                ($r:expr, $rb:expr, $nv:expr, $cols:expr) => {{
                    let (at, ct) = (&a[$r * k + kb..], &mut chunk[$r * n + jb..]);
                    mm_tile::<V, { $rb }, { $nv }>(t, at, k, slice, kc, ct, n, $cols, first);
                    $r += $rb;
                }};
            }
            macro_rules! rows {
                ($nv:expr, $cols:expr) => {{
                    let mut r = 0;
                    while r + MR <= rows {
                        tile!(r, MR, $nv, $cols);
                    }
                    if r + 4 <= rows {
                        tile!(r, 4, $nv, $cols);
                    }
                    if r + 2 <= rows {
                        tile!(r, 2, $nv, $cols);
                    }
                    while r < rows {
                        tile!(r, 1, $nv, $cols);
                    }
                }};
            }
            match cols.div_ceil(V::LANES) {
                _ if cols == width => rows!(NV, width),
                1 => rows!(1, cols),
                2 => rows!(2, cols),
                _ => rows!(NV, cols),
            }
        }
    }
}

/// Pack-free skinny `matmul` tile: `RB` output rows × `jw` columns, `KU`
/// consecutive shared-dimension steps. The `KU` rows of `B` are read in
/// place (contiguous `jw`-element pieces), each output vector is loaded
/// once (or started from zero when `first`), takes its `KU` FMAs in
/// ascending `k` and is stored back into the L1-resident output tile; the
/// `jw % LANES` columns run the same chain on a partial vector.
///
/// `a` holds the tile's rows from its first step at row stride `k`, `b`
/// the step's `jw`-wide pieces of `B` and `c` the tile's window of the
/// output at row stride `n`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mm_skinny_tile<V: Lanes, const RB: usize, const KU: usize>(
    t: V::Token,
    a: &[f32],
    k: usize,
    b: &[&[f32]; KU],
    jw: usize,
    c: &mut [f32],
    n: usize,
    first: bool,
) {
    let mut rows = c.chunks_mut(n);
    let mut c: [&mut [f32]; RB] =
        std::array::from_fn(|_| &mut rows.next().expect("a row per tile row")[..jw]);
    let mut av = [[V::zero(t); KU]; RB];
    for (r, row) in av.iter_mut().enumerate() {
        for (x, &a) in row.iter_mut().zip(&a[r * k..][..KU]) {
            *x = V::splat(t, a);
        }
    }
    let mut j = 0;
    while j + V::LANES <= jw {
        mm_skinny_cols::<V, RB, KU>(t, &av, b, j..j + V::LANES, &mut c, first);
        j += V::LANES;
    }
    if j < jw {
        mm_skinny_cols::<V, RB, KU>(t, &av, b, j..jw, &mut c, first);
    }
}

/// One vector column (`cols`, at most `LANES` wide) of [`mm_skinny_tile`],
/// with the tile's broadcast `a` values.
#[inline(always)]
fn mm_skinny_cols<V: Lanes, const RB: usize, const KU: usize>(
    t: V::Token,
    a: &[[V; KU]; RB],
    b: &[&[f32]; KU],
    cols: Range<usize>,
    c: &mut [&mut [f32]; RB],
    first: bool,
) {
    let mut bv = [V::zero(t); KU];
    for (x, b) in bv.iter_mut().zip(b) {
        *x = V::load_n(t, &b[cols.clone()]);
    }
    for (row, c) in a.iter().zip(c) {
        let o = &mut c[cols.clone()];
        let mut acc = if first { V::zero(t) } else { V::load_n(t, o) };
        for (&av, &b) in row.iter().zip(&bv) {
            acc = av.mul_add(b, acc);
        }
        acc.store_n(o);
    }
}

/// Pack-free skinny `matmul` chunk kernel (at most [`MM_SKINNY_ROWS`] rows
/// in all): per [`MM_SKINNY_NC`]-column block, the shared dimension
/// outermost in steps of four (then single steps for `k % 4`), rows in
/// pairs (then one). Every element of `B` is read exactly once per chunk,
/// in row order.
#[inline(always)]
fn mm_skinny_impl<V: Lanes>(
    t: V::Token,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    let (rows, a) = (range.len(), &a[range.start * k..range.end * k]);
    for jb in (0..n).step_by(MM_SKINNY_NC) {
        let jw = (n - jb).min(MM_SKINNY_NC);
        let mut kk = 0;
        macro_rules! steps {
            ($ku:expr) => {{
                let bk: [&[f32]; $ku] = std::array::from_fn(|u| &b[(kk + u) * n + jb..][..jw]);
                let first = kk == 0;
                let mut r = 0;
                while r + 2 <= rows {
                    let (at, ct) = (&a[r * k + kk..], &mut chunk[r * n + jb..]);
                    mm_skinny_tile::<V, 2, { $ku }>(t, at, k, &bk, jw, ct, n, first);
                    r += 2;
                }
                if r < rows {
                    let (at, ct) = (&a[r * k + kk..], &mut chunk[r * n + jb..]);
                    mm_skinny_tile::<V, 1, { $ku }>(t, at, k, &bk, jw, ct, n, first);
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

/// `matmul_at_b` register tile: `RB` output rows × `NV` vectors (columns
/// `cols`, more than `(NV - 1)·LANES` of them) over one shared-dimension
/// cache block, register accumulation then one `+=` into the output — or,
/// with `store` set, into `+0.0` instead of the old contents, which are
/// then never read (the overwriting entry's first block). Per element: per
/// block, `o += (fma chain over ascending i)` — block boundaries are global
/// ([`BLOCK_ROWS`]), so the chain shape is chunk- and width-independent,
/// and `store` is bitwise the add into a zeroed output.
///
/// `a` holds the tile rows' `A` values, one group per step of the block,
/// `b` the block's rows of `B` and `c` the tile's rows of the output, both
/// at row stride `n`.
#[inline(always)]
fn atb_tile<V: Lanes, const RB: usize, const NV: usize>(
    t: V::Token,
    a: &[[f32; RB]],
    b: &[f32],
    n: usize,
    c: &mut [f32],
    cols: Range<usize>,
    store: bool,
) {
    let (mut b, mut acc) = (b, [[V::zero(t); NV]; RB]);
    for a_row in a {
        // `split_at`, not `chunks_exact`, which would divide by `n` on
        // every tile.
        let (b_row, b_next) = b.split_at(n);
        b = b_next;
        let b_row = &b_row[cols.clone()];
        let mut bv = [V::zero(t); NV];
        for (v, x) in bv.iter_mut().enumerate() {
            *x = V::load_n(t, &b_row[v * V::LANES..]);
        }
        for (row, &a) in acc.iter_mut().zip(a_row) {
            let a = V::splat(t, a);
            for (x, &bv) in row.iter_mut().zip(&bv) {
                *x = a.mul_add(bv, *x);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, x) in row.iter().enumerate() {
            let o = &mut c[r * n + cols.start + v * V::LANES..cols.end + r * n];
            let prior = if store { V::zero(t) } else { V::load_n(t, o) };
            prior.add(*x).store_n(o);
        }
    }
}

/// `matmul_at_b` SIMD chunk kernel: shared-dimension blocks outermost (as
/// in the scalar kernel), output rows in `MR`-high bands, then one 4-, 2-
/// and 1-row band for `rows % MR`. A band first copies its `A` values over
/// the block, one contiguous piece of each `A` row, into a stack array its
/// tiles read at fixed offsets (read in place, the pieces sit one `A` row
/// apart, which at 4 KB rows is one L1 set). Unless accumulating, the
/// first block stores and later blocks add, so the output's old contents
/// are never loaded.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn atb_chunk_impl<V: Lanes, const MR: usize>(
    t: V::Token,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
    accumulate: bool,
) {
    let (m, rows) = (b.len() / n, range.len());
    for ib in (0..m).step_by(BLOCK_ROWS) {
        let (iend, store) = ((ib + BLOCK_ROWS).min(m), ib == 0 && !accumulate);
        let (a, b) = (&a[ib * k..iend * k], &b[ib * n..iend * n]);
        let (mut r, wide, one) = (0, ATB_NV * V::LANES, V::LANES);
        // One band of `$rb` rows: `ATB_NV`-vector tiles across the
        // columns, then single vectors, then a partial one for the rest.
        macro_rules! band {
            ($rb:expr) => {{
                let (kk, mut a_blk) = (range.start + r, [[0.0f32; $rb]; BLOCK_ROWS]);
                for (dst, a_row) in a_blk.iter_mut().zip(a.chunks_exact(k)) {
                    dst.copy_from_slice(&a_row[kk..kk + $rb]);
                }
                let (a, c) = (&a_blk[..iend - ib], &mut chunk[r * n..]);
                let mut j = 0;
                macro_rules! tile {
                    ($nv:expr, $cols:expr) => {
                        atb_tile::<V, { $rb }, { $nv }>(t, a, b, n, c, j..j + $cols, store)
                    };
                }
                while j + wide <= n {
                    tile!(ATB_NV, wide);
                    j += wide;
                }
                while j + one <= n {
                    tile!(1, one);
                    j += one;
                }
                if j < n {
                    tile!(1, n - j);
                }
                r += $rb;
            }};
        }
        while r + MR <= rows {
            band!(MR);
        }
        if r + 4 <= rows {
            band!(4);
        }
        if r + 2 <= rows {
            band!(2);
        }
        while r < rows {
            band!(1);
        }
    }
}

/// `matmul_a_bt` register tile: `MR` a-rows × `NR` b-rows of 8-lane
/// accumulators over the shared dimension — at 4×3, seven loads feed
/// twelve FMAs per eight-wide `k` step. Each output element is one 8-lane
/// FMA chain over ascending `k`, reduced by the fixed `F32x8::hsum` tree
/// and finished by a scalar `mul_add` tail over `k % 8`; the chain's shape
/// depends on `k` alone, so every tile shape (and the 512-bit entry, which
/// runs these same 8-lane chains in more registers) produces the same bits.
///
/// `a` holds the strip's rows split into 8-wide steps and a tail, `b` the
/// tile's `NR` rows of length `k`, and `c` the strip's output rows, of
/// which the tile writes columns `j .. j + NR`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn abt_tile_simd<const MR: usize, const NR: usize>(
    t: Avx2,
    a: &[(&[[f32; 8]], &[f32]); MR],
    b: &[f32],
    k: usize,
    c: &mut [&mut [f32]; MR],
    j: usize,
) {
    let b: [_; NR] = std::array::from_fn(|q| b[q * k..][..k].as_chunks::<8>());
    let mut acc = [[F32x8::zero(t); NR]; MR];
    for q in 0..k / 8 {
        let mut bv = [F32x8::zero(t); NR];
        for (x, b) in bv.iter_mut().zip(&b) {
            *x = F32x8::load(t, &b.0[q]);
        }
        for (row, a) in acc.iter_mut().zip(a) {
            let av = F32x8::load(t, &a.0[q]);
            for (cell, &b) in row.iter_mut().zip(&bv) {
                *cell = av.mul_add(b, *cell);
            }
        }
    }
    for ((row, a), c) in acc.iter().zip(a).zip(c) {
        for ((cell, b), o) in row.iter().zip(&b).zip(&mut c[j..j + NR]) {
            let mut s = cell.hsum();
            for (x, y) in a.1.iter().zip(b.1) {
                s = x.mul_add(*y, s);
            }
            *o = s;
        }
    }
}

/// One `MR`-row strip of a column block: `NR`-wide tiles, then 1-wide
/// tiles for `cols % NR`. `a` holds the strip's rows of length `k`, `b`
/// the block's `cols` rows, and `c` the strip's window of the output at
/// row stride `n`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn abt_strip_simd<const MR: usize, const NR: usize>(
    t: Avx2,
    a: &[f32],
    b: &[f32],
    cols: usize,
    k: usize,
    c: &mut [f32],
    n: usize,
) {
    let a: [_; MR] = std::array::from_fn(|r| a[r * k..][..k].as_chunks::<8>());
    let mut rows = c.chunks_mut(n);
    let mut c: [&mut [f32]; MR] =
        std::array::from_fn(|_| &mut rows.next().expect("a row per strip row")[..cols]);
    let mut j = 0;
    while j + NR <= cols {
        abt_tile_simd::<MR, NR>(t, &a, &b[j * k..(j + NR) * k], k, &mut c, j);
        j += NR;
    }
    while j < cols {
        abt_tile_simd::<MR, 1>(t, &a, &b[j * k..(j + 1) * k], k, &mut c, j);
        j += 1;
    }
}

/// `matmul_a_bt` SIMD chunk kernel: both operands are read in place. Per
/// [`ABT_JB`]-row block of `b` (L2-resident), each `MR`-row strip of `a`
/// stays in L1 while the block's b-rows stream past it; `rows % MR` strips
/// are 1-row.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn abt_chunk_impl<const MR: usize, const NR: usize>(
    t: Avx2,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    range: Range<usize>,
) {
    let (rows, a) = (range.len(), &a[range.start * k..range.end * k]);
    for jb in (0..n).step_by(ABT_JB) {
        let (cols, bj) = ((n - jb).min(ABT_JB), &b[jb * k..]);
        let mut r = 0;
        while r + MR <= rows {
            abt_strip_simd::<MR, NR>(t, &a[r * k..], bj, cols, k, &mut chunk[r * n + jb..], n);
            r += MR;
        }
        while r < rows {
            abt_strip_simd::<1, NR>(t, &a[r * k..], bj, cols, k, &mut chunk[r * n + jb..], n);
            r += 1;
        }
    }
}

// Target-feature entry points, one per (kernel, width): `#[target_feature]`
// cannot sit on safe trait methods, so the generic `#[inline(always)]`
// bodies compile *inside* these wrappers and inherit the enabled features.
// The entries are safe `#[target_feature]` functions, each entered once
// per dispatch after `Backend::isa` produced the proof it takes; off
// x86-64 no proof exists and they are unreachable stubs. The tile shapes are the
// module doc's table.
macro_rules! simd_entry {
    ($features:literal, $name:ident, $body:path,
     ($t:ident: $tok:ty, $($arg:ident: $ty:ty),*)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        #[allow(clippy::too_many_arguments)]
        fn $name($t: $tok, $($arg: $ty),*) {
            $body($t, $($arg),*)
        }
        #[cfg(not(target_arch = "x86_64"))]
        #[allow(clippy::too_many_arguments, unused_variables)]
        fn $name($t: $tok, $($arg: $ty),*) {
            match $t {}
        }
    };
}

simd_entry!("avx2,fma", mm_chunk_256, mm_chunk_impl::<F32x8, MM_MR_256, MM_NV_256>,
    (t: Avx2, a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!("avx2,fma,avx512f,avx512vl", mm_chunk_512,
    mm_chunk_impl::<F32x16, MM_MR_512, MM_NV_512>,
    (t: Avx512, a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!("avx2,fma", mm_skinny_256, mm_skinny_impl::<F32x8>,
    (t: Avx2, a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!("avx2,fma,avx512f,avx512vl", mm_skinny_512, mm_skinny_impl::<F32x16>,
    (t: Avx512, a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!("avx2,fma", atb_chunk_256, atb_chunk_impl::<F32x8, ATB_MR_256>,
    (t: Avx2, a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>,
     accumulate: bool));
simd_entry!("avx2,fma,avx512f,avx512vl", atb_chunk_512,
    atb_chunk_impl::<F32x16, ATB_MR_512>,
    (t: Avx512, a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>,
     accumulate: bool));
simd_entry!("avx2,fma", abt_chunk_256, abt_chunk_impl::<ABT_MR_256, ABT_NR_256>,
    (t: Avx2, a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));
simd_entry!("avx2,fma,avx512f,avx512vl", abt_chunk_512,
    abt_chunk_impl::<ABT_MR_512, ABT_NR_512>,
    (t: Avx2, a: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32], range: Range<usize>));

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

    /// A weight reaches the GEMMs as a view into the middle of a larger
    /// buffer (a model's parameter arena): the product must be bitwise the
    /// product with the equal owned matrix, on the pack-free (≤ 16 rows)
    /// and packed `matmul` paths and on `matmul_a_bt`. A view of the wrong
    /// length is refused.
    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn matref_at_an_offset_is_bitwise_the_owned_matrix() {
        let (k, n, off) = (37, 29, 5);
        let buf: Vec<f32> = (0..off + k * n + 3)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let w = &buf[off..off + k * n];
        let (owned, owned_t) = (
            Matrix::from_vec(k, n, w.to_vec()),
            Matrix::from_vec(n, k, w.to_vec()),
        );
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for m in [3, MM_SKINNY_ROWS + 4] {
            let x = Matrix::from_vec(m, k, (0..m * k).map(|i| (i as f32 * 0.11).cos()).collect());
            let (mut got, mut want) = (Matrix::zeros(m, n), Matrix::zeros(m, n));
            x.matmul_into(MatRef::new(k, n, w), &mut got);
            x.matmul_into(&owned, &mut want);
            assert_eq!(bits(&got), bits(&want), "matmul, {m} rows");
            x.matmul_a_bt_into(MatRef::new(n, k, w), &mut got);
            x.matmul_a_bt_into(&owned_t, &mut want);
            assert_eq!(bits(&got), bits(&want), "matmul_a_bt, {m} rows");
        }
        MatRef::new(k, n, &buf[off..off + k * n + 1]);
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
