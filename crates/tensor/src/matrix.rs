//! Row-major dense matrix with the matmul variants backprop needs.
//!
//! **One GEMM.** The three products — `matmul` (`A·B`), `matmul_at_b`
//! (`Aᵀ·B`) and `matmul_a_bt` (`A·Bᵀ`) — run one register-blocked
//! microkernel and differ only in how their operands reach it:
//!
//! * **Packers.** Per 256-step block of the shared dimension, the `B` side
//!   is packed one L1-sized slab at a time into 16-column, `k`-contiguous
//!   micro-panels: straight from the rows of `B` (`matmul`, `matmul_at_b`),
//!   or, for `matmul_a_bt`, transposed from them in `LANES × LANES` register
//!   blocks. The `A` side is read in place (`matmul`, `matmul_a_bt`) or, for
//!   `matmul_at_b`, copied per register tile and block from one contiguous
//!   piece of each row of `A` (a band of `Aᵀ`). The packing scratch is one
//!   reused buffer per thread, so no steady-state product allocates and no
//!   pack buffer sits in a stack frame.
//! * **One size-selected variant, same chains.** With at most 16 output
//!   rows, `matmul` reads `B` in place: the pack would cost more than the
//!   product.
//! * **Microkernel.** One source generic over the crate-private `Lanes`,
//!   compiled at 512 bits (AVX-512F, `F32x16`), 256 bits (AVX2+FMA,
//!   `F32x8`) and on the scalar backend's plain-array `Scalar16` — the
//!   width the host's (runtime-detected, no setting). Register tiles, rows
//!   × columns:
//!
//!   | backend | packed tile | pack-free `matmul` tile (≤ 16 rows) |
//!   |---|---|---|
//!   | 512 bits | 8 × 48 (24 zmm accumulators) | 2 × 16 per vector, 4 `k` steps |
//!   | 256 bits | 6 × 16 (12 ymm) | 2 × 8 per vector, 4 `k` steps |
//!   | scalar | 4 × 16 | 2 × 16, 4 `k` steps |
//!
//!   Remainder rows take 4-, 2- and 1-row tiles; the last columns take
//!   fewer vectors and a masked partial one. Products with a short shared
//!   dimension pack slabs several tiles wide, so each row tile sweeps them
//!   before the next.
//! * **Persistent pool, no per-call spawn.** Large products dispatch row
//!   chunks onto [`summit_pool::global`]'s parked workers under the
//!   calling thread's core budget ([`summit_pool::core_budget`]).
//!
//! **One relation.** Every output element is one chain over ascending `k`,
//! `acc = a[i,k]·b[k,j] + acc` (fused on SIMD, product-then-add on the
//! scalar backend), from `+0.0` — or, for the accumulating `matmul_at_b`,
//! from the value stored — and carried through the output between
//! shared-dimension blocks. Its shape depends on nothing else: not on the
//! pool partition, the register tile, the register width, the packer or the
//! row count. So, bitwise, on each backend:
//!
//! * `a.matmul_at_b(b) == a.transpose().matmul(b)` and
//!   `a.matmul_a_bt(b) == a.matmul(&b.transpose())`;
//! * pooled = serial at every part count, 512 bits = 256 bits;
//! * row `i` of an `M`-row product is the one-row product (batched
//!   serving relies on it).
//!
//! The scalar backend is the cross-platform reference: SIMD results differ
//! from it only by FMA contraction, within the ULP bound pinned in
//! `tests/simd_properties.rs`.
//!
//! The `*_into` variants write into a caller-owned output matrix, and a
//! steady-state pooled matmul performs **zero heap allocations**
//! (counting-allocator tests in `tests/tests/gemm_alloc.rs`).

use std::cell::RefCell;
use std::ops::Range;

use crate::simd::{self, Avx2, Avx512, Lanes, Scalar16};
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

/// Which operand of a product is read transposed — the test hook's
/// selector; production callers use the named entry points.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// `a · b`, [`Matrix::matmul`].
    None,
    /// `aᵀ · b`, [`Matrix::matmul_at_b`].
    A,
    /// `a · bᵀ`, [`Matrix::matmul_a_bt`].
    B,
}

/// The kernels one GEMM call runs, resolved once per call so a single
/// product never mixes them, with the proof that lets them run.
#[derive(Debug, Clone, Copy)]
enum Isa {
    Scalar,
    Avx2(Avx2),
    Avx512(Avx512),
}

impl Backend {
    fn isa(self) -> Isa {
        match (self, simd::avx2(), simd::avx512()) {
            (Backend::Scalar, ..) | (_, None, _) => Isa::Scalar,
            (Backend::Auto, _, Some(w)) => Isa::Avx512(w),
            (_, Some(t), _) => Isa::Avx2(t),
        }
    }
}

/// Row count above which matmuls parallelize over the compute pool.
const PAR_THRESHOLD: usize = 128;

/// Micro-panel width: a packed panel holds 16 columns with the shared
/// dimension contiguous, so one `k` step of a tile reads one 64-byte line
/// per panel and the next step the next line.
const MM_NR: usize = 16;

/// Shared-dimension block: each element's chain is stored and reloaded
/// (exactly) at its boundaries.
const MM_KC: usize = 256;

/// Floats in one packed slab (48 KB): a full block of 48 columns, or a
/// shorter block of proportionally more, stays in L1/L2 while every row
/// tile of the chunk runs over it.
const MM_SLICE: usize = MM_KC * 48;

/// Output row count up to which `matmul` reads `B` in place. Packing `B`
/// pays for itself by reuse across row tiles; below this, streaming `B`
/// once in row order beats the pack. Re-measured at 512 bits (µs, pack-free vs packed, one thread):
/// on a 512 × 512 `B`, M = 1 23 vs 113, M = 16 142 vs 170, M = 20 204 vs
/// 193; on 1024 × 1024, M = 1 255 vs 559, M = 16 1,029 vs 1,012, M = 20
/// 1,200 vs 1,060.
const MM_SKINNY_ROWS: usize = 16;

// Packed register tiles, rows × column vectors (see the module doc's
// table). Each fills its register file without spilling: 6 × 2 ymm (12
// accumulators of 16) and 8 × 3 zmm (24 of 32, three 16-column panels).
const MM_MR_256: usize = 6;
const MM_NV_256: usize = 2;
const MM_MR_512: usize = 8;
const MM_NV_512: usize = 3;

thread_local! {
    /// This thread's packing scratch — the `B` slab and the `A` band of
    /// the chunks it runs — grown to the largest product it has run, so
    /// steady-state products never allocate and no pack buffer lands in
    /// the stack frame of every thread that multiplies.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Borrow this thread's packing scratch at `len` elements (growing it once
/// if needed) for the duration of `f`.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with(|s| {
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
        let other = other.into();
        out.check_shape(self.rows, other.cols, "matmul");
        let parts = auto_parts(self.rows);
        self.gemm(
            other,
            Transpose::None,
            &mut out.data,
            parts,
            Backend::Auto,
            false,
        );
    }

    /// `selfᵀ · other` (`(m×k)ᵀ · m×n → k×n`). This is the weight-gradient
    /// product `Xᵀ · dY`, the backward-pass hot kernel: bitwise
    /// `self.transpose().matmul(other)` without materializing the
    /// transpose (each register tile copies its band of `Aᵀ` from the rows
    /// of `self`).
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
        out.check_shape(self.cols, other.cols, "matmul_at_b");
        self.matmul_at_b_into_slice(other, &mut out.data, false);
    }

    /// `selfᵀ · other` into a row-major `k×n` slice of a larger buffer —
    /// the weight-gradient product writing straight into its window of a
    /// flat gradient arena. `accumulate` selects `out += …` over `out = …`:
    /// each element's chain then continues from the value stored instead
    /// of starting from `+0.0`, so on a zeroed `out` the two are bitwise
    /// equal.
    ///
    /// # Panics
    /// Panics on row-count mismatch or if `out.len() != k·n`.
    pub fn matmul_at_b_into_slice(&self, other: &Matrix, out: &mut [f32], accumulate: bool) {
        let parts = auto_parts(self.cols);
        let other = other.into();
        self.gemm(other, Transpose::A, out, parts, Backend::Auto, accumulate);
    }

    /// `self · otherᵀ` (`m×k · (n×k)ᵀ → m×n`). This is the input-gradient
    /// product `dY · Wᵀ`, the other backward-pass hot kernel: bitwise
    /// `self.matmul(&other.transpose())` without materializing the
    /// transpose (the packer transposes the rows of `other` into panel
    /// columns one slab at a time).
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
        let other = other.into();
        out.check_shape(self.rows, other.rows, "matmul_a_bt");
        let parts = auto_parts(self.rows);
        self.gemm(
            other,
            Transpose::B,
            &mut out.data,
            parts,
            Backend::Auto,
            false,
        );
    }

    /// The one test hook behind all three products: `transpose` picks the
    /// product, `parts` the chunk count (`1` is the serial reference),
    /// `backend` the kernels, and `accumulate` continues each element's
    /// chain from `out` instead of overwriting it.
    ///
    /// # Panics
    /// Panics on an operand or output shape mismatch.
    #[doc(hidden)]
    pub fn gemm_into_parts(
        &self,
        other: &Matrix,
        transpose: Transpose,
        out: &mut Matrix,
        parts: usize,
        backend: Backend,
        accumulate: bool,
    ) {
        let (m, n) = match transpose {
            Transpose::None => (self.rows, other.cols),
            Transpose::A => (self.cols, other.cols),
            Transpose::B => (self.rows, other.rows),
        };
        out.check_shape(m, n, "gemm");
        self.gemm(
            other.into(),
            transpose,
            &mut out.data,
            parts,
            backend,
            accumulate,
        );
    }

    fn check_shape(&self, rows: usize, cols: usize, what: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (rows, cols),
            "{what} output shape mismatch"
        );
    }

    /// Every product: `self` is the `A` operand and `other` the `B`
    /// operand, either read transposed as `transpose` says. Each chunk of
    /// output rows becomes one [`Gemm`] for the kernels. The pack-free
    /// `matmul` is chosen from the total row count, so every chunk of a
    /// call takes the same path; it overwrites, so an accumulating product
    /// takes the packed one.
    fn gemm(
        &self,
        other: MatRef<'_>,
        transpose: Transpose,
        out: &mut [f32],
        parts: usize,
        backend: Backend,
        accumulate: bool,
    ) {
        let (m, k, n) = match transpose {
            Transpose::None => {
                assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
                (self.rows, self.cols, other.cols)
            }
            Transpose::A => {
                assert_eq!(self.rows, other.rows, "matmul_at_b row mismatch");
                (self.cols, self.rows, other.cols)
            }
            Transpose::B => {
                assert_eq!(self.cols, other.cols, "matmul_a_bt column mismatch");
                (self.rows, self.cols, other.rows)
            }
        };
        assert_eq!(out.len(), m * n, "output shape mismatch");
        let (isa, skinny) = (backend.isa(), m <= MM_SKINNY_ROWS);
        let (a, b) = (&self.data[..], other.data);
        summit_pool::global().run_rows(out, n, parts, |chunk, range| {
            let op = |data, ld, trans| Operand { data, ld, trans };
            let in_place = || op(&a[range.start * k..range.end * k], k, false);
            let (a, b) = match transpose {
                Transpose::None => (in_place(), op(b, n, false)),
                Transpose::A => (op(&a[range.start..], m, true), op(b, n, false)),
                Transpose::B => (in_place(), op(b, k, true)),
            };
            let g = Gemm {
                a,
                b,
                rows: range.len(),
                cols: n,
                k,
                accumulate,
            };
            if skinny && transpose == Transpose::None && !accumulate {
                // SAFETY: `Backend::isa` hands out a proof only after
                // detecting its features on this CPU.
                return unsafe {
                    match isa {
                        Isa::Avx512(w) => skinny_512(w, g, chunk),
                        Isa::Avx2(t) => skinny_256(t, g, chunk),
                        Isa::Scalar => mm_skinny_impl::<Scalar16>((), g, chunk),
                    }
                };
            }
            with_scratch(g.scratch_len(), |s| {
                // SAFETY: as above.
                unsafe {
                    match isa {
                        Isa::Avx512(w) => gemm_512(w, g, chunk, s),
                        Isa::Avx2(t) => gemm_256(t, g, chunk, s),
                        Isa::Scalar => gemm_chunk::<Scalar16, 4, 1>((), g, chunk, s),
                    }
                }
            })
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
}

// ---------------------------------------------------------------------------
// The kernels: one source for every backend, generic over the register type
// `V` (`F32x16`, `F32x8` or `Scalar16`) and compiled once per SIMD width
// inside the `simd_entry!` entries below. They are safe functions: a SIMD
// lane value exists only by the proof token the dispatch passed in (see
// `crate::simd`), and every load and store goes through a slice, cut once
// per row or panel so the inner loops index within known lengths.
// ---------------------------------------------------------------------------

/// One operand as the kernels read it. On the `A` side element `(i, kk)` is
/// `data[i·ld + kk]`, or `data[kk·ld + i]` when `trans`; on the `B` side
/// element `(kk, j)` is `data[kk·ld + j]`, or `data[j·ld + kk]` when
/// `trans`.
#[derive(Debug, Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    ld: usize,
    trans: bool,
}

/// One chunk's product: `rows × cols` row-major outputs over a shared
/// dimension of `k`. Each output's chain starts from `+0.0`, or, when
/// `accumulate`, from the value stored.
#[derive(Debug, Clone, Copy)]
struct Gemm<'a> {
    a: Operand<'a>,
    b: Operand<'a>,
    rows: usize,
    cols: usize,
    k: usize,
    accumulate: bool,
}

impl Gemm<'_> {
    /// Columns of a slab over a `kc`-step block: as many whole
    /// `group`-column tiles as fill [`MM_SLICE`], one at least.
    fn slab_cols(kc: usize, group: usize) -> usize {
        (MM_SLICE / kc / group).max(1) * group
    }

    /// Scratch floats for the bands of `Aᵀ` the row tiles copy, one block
    /// of every row.
    fn band_len(&self) -> usize {
        if self.a.trans {
            self.k.min(MM_KC) * self.rows
        } else {
            0
        }
    }

    /// Scratch floats [`gemm_chunk`] needs: its widest slab (every tile
    /// width is a multiple of [`MM_NR`] and at most 48, so a slab holds at
    /// most `MM_SLICE` floats), then the band.
    fn scratch_len(&self) -> usize {
        let slab = self.cols.next_multiple_of(MM_NR) * self.k.min(MM_KC);
        slab.min(MM_SLICE) + self.band_len()
    }
}

/// Pack block rows `ks` and columns `cols` of the `B` side of a product
/// into [`MM_NR`]-column panels: panel `q` holds columns `cols.start + 16q
/// ..`, one row of 16 per step from `q·|ks|` on, zero-padded to whole
/// panels (so a tile always loads whole vectors). Straight `B` is copied
/// one row piece at a time. `Bᵀ` is read along its rows, which are the
/// slab's columns, `LANES` rows × `LANES` steps at a time: one vector per
/// row, transposed in registers into one per step. Returns the packed
/// prefix of `buf`.
#[inline(always)]
fn pack_b<'s, V: Lanes>(
    t: V::Token,
    b: Operand<'_>,
    ks: Range<usize>,
    cols: Range<usize>,
    buf: &'s mut [f32],
) -> &'s [[f32; MM_NR]] {
    let kc = ks.len();
    let slab = &mut buf.as_chunks_mut::<MM_NR>().0[..cols.len().div_ceil(MM_NR) * kc];
    if b.trans {
        static ZERO: [f32; MM_KC] = [0.0; MM_KC];
        for (panel, jq) in slab.chunks_exact_mut(kc).zip(cols.clone().step_by(MM_NR)) {
            for l in (0..MM_NR).step_by(V::LANES) {
                let first = ((jq + l) * b.ld + ks.start).min(b.data.len());
                let mut src = b.data[first..].chunks(b.ld);
                let rows: [&[f32]; MM_NR] = std::array::from_fn(|r| match src.next() {
                    Some(row) if jq + l + r < cols.end => &row[..kc],
                    _ => &ZERO[..kc],
                });
                for (kk, dst) in (0..kc).step_by(V::LANES).zip(panel.chunks_mut(V::LANES)) {
                    if dst.len() < V::LANES {
                        // The last `kc % LANES` steps, one value at a time.
                        for (s, dst) in dst.iter_mut().enumerate() {
                            for (x, row) in dst[l..][..V::LANES].iter_mut().zip(&rows) {
                                *x = row[kk + s];
                            }
                        }
                        continue;
                    }
                    let mut block = [V::zero(t); MM_NR];
                    for (r, x) in block.iter_mut().enumerate().take(V::LANES) {
                        *x = V::load(t, &rows[r][kk..]);
                    }
                    V::transpose(&mut block[..V::LANES]);
                    for (s, x) in block.iter().enumerate().take(V::LANES) {
                        x.store(&mut dst[s][l..]);
                    }
                }
            }
        }
        return slab;
    }
    for (kk, row) in ks.enumerate() {
        #[cfg(target_arch = "x86_64")]
        for line in 0..=cols.len() / 16 {
            let ahead = b
                .data
                .as_ptr()
                .wrapping_add(row * b.ld + cols.end + line * 16);
            // SAFETY: a prefetch is a hint: it never faults or writes,
            // whatever the address.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ahead.cast())
            };
        }
        let pieces = b.data[row * b.ld + cols.start..][..cols.len()].chunks(MM_NR);
        for (q, piece) in pieces.enumerate() {
            let dst = &mut slab[q * kc + kk];
            dst[..piece.len()].copy_from_slice(piece);
            dst[piece.len()..].fill(0.0);
        }
    }
    slab
}

/// The `A` values of a register tile's `RB` rows over one block: the rows
/// read in place, or a band of `Aᵀ` holding one group of `RB` per step.
trait TileA<const RB: usize>: Copy {
    /// Row `q`'s value at step `kk`.
    fn at(self, q: usize, kk: usize) -> f32;
}

impl<const RB: usize> TileA<RB> for [&[f32]; RB] {
    #[inline(always)]
    fn at(self, q: usize, kk: usize) -> f32 {
        self[q][kk]
    }
}

impl<const RB: usize> TileA<RB> for &[[f32; RB]] {
    #[inline(always)]
    fn at(self, q: usize, kk: usize) -> f32 {
        self[kk][q]
    }
}

/// The microkernel: `RB` rows × `NV` vectors of a packed slab over one
/// shared-dimension block of `kc` steps, into the first `cols` columns
/// (more than `(NV - 1)·LANES`) of the output window `c` at row stride
/// `ldc`. Vector `v` covers slab columns `v·LANES ..`: panel `v·LANES /
/// 16` at offset `v·LANES % 16`. The accumulators start from zero on the
/// first block and from the stored outputs otherwise, so per output
/// element the chain is `acc = a[i,kk]·b[kk,j] + acc` over ascending `kk`
/// across the whole shared dimension — blocking stores and reloads the
/// running value (exact) and never splits the chain.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mm_tile<V: Lanes, const RB: usize, const NV: usize, A: TileA<RB>>(
    t: V::Token,
    a: A,
    slab: &[[f32; MM_NR]],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    cols: usize,
    first: bool,
) {
    let b: [&[[f32; MM_NR]]; NV] =
        std::array::from_fn(|v| &slab[v * V::LANES / MM_NR * kc..][..kc]);
    let mut acc = [[V::zero(t); NV]; RB];
    if !first {
        for (q, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = V::load_n(t, &c[q * ldc + v * V::LANES..][..cols - v * V::LANES]);
            }
        }
    }
    for kk in 0..kc {
        let mut bv = [V::zero(t); NV];
        for (v, (x, b)) in bv.iter_mut().zip(&b).enumerate() {
            *x = V::load(t, &b[kk][v * V::LANES % MM_NR..]);
        }
        for (q, row) in acc.iter_mut().enumerate() {
            let av = V::splat(t, a.at(q, kk));
            for (x, &bv) in row.iter_mut().zip(&bv) {
                *x = av.mul_add(bv, *x);
            }
        }
    }
    for (q, row) in acc.iter().enumerate() {
        for (v, x) in row.iter().enumerate() {
            x.store_n(&mut c[q * ldc + v * V::LANES..][..cols - v * V::LANES]);
        }
    }
}

/// Rows `i .. i + RB` over one slab (block steps `ks`, output columns
/// `cols`). The rows' `A` values are read in place or, for `Aᵀ`, from
/// `band`: one contiguous `RB`-value piece of each row of `A` per step,
/// copied on the block's first slab (read in place, the pieces sit one `A`
/// row apart, which at 4 KB rows is one L1 set).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_tile<V: Lanes, const RB: usize, const NV: usize>(
    t: V::Token,
    g: &Gemm<'_>,
    i: usize,
    ks: Range<usize>,
    slab: &[[f32; MM_NR]],
    cols: Range<usize>,
    c: &mut [f32],
    band: &mut [f32],
) {
    let (kc, first) = (ks.len(), ks.start == 0 && !g.accumulate);
    if g.a.trans {
        let band = band[..RB * kc].as_chunks_mut::<RB>().0;
        if cols.start == 0 {
            let pieces = g.a.data[ks.start * g.a.ld + i..].chunks(g.a.ld);
            for (dst, piece) in band.iter_mut().zip(pieces) {
                dst.copy_from_slice(&piece[..RB]);
            }
        }
        col_tiles::<V, RB, NV, _>(t, g, &*band, slab, kc, c, (i, cols), first);
    } else {
        let ld = g.a.ld;
        let rows: [&[f32]; RB] =
            std::array::from_fn(|q| &g.a.data[(i + q) * ld + ks.start..][..kc]);
        col_tiles::<V, RB, NV, _>(t, g, rows, slab, kc, c, (i, cols), first);
    }
}

/// One row tile's `NV`-vector tiles across the slab, then one tile of as
/// many vectors as the last columns need.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn col_tiles<V: Lanes, const RB: usize, const NV: usize, A: TileA<RB>>(
    t: V::Token,
    g: &Gemm<'_>,
    a: A,
    slab: &[[f32; MM_NR]],
    kc: usize,
    c: &mut [f32],
    (i, cols): (usize, Range<usize>),
    first: bool,
) {
    let (group, mut j) = (NV * V::LANES, 0);
    macro_rules! tile {
        ($nv:expr, $w:expr) => {{
            let c = &mut c[i * g.cols + cols.start + j..];
            let slab = &slab[j / MM_NR * kc..];
            mm_tile::<V, RB, { $nv }, A>(t, a, slab, kc, c, g.cols, $w, first);
        }};
    }
    while j + group <= cols.len() {
        tile!(NV, group);
        j += group;
    }
    match (cols.len() - j).div_ceil(V::LANES) {
        0 => {}
        1 => tile!(1, cols.len() - j),
        2 => tile!(2, cols.len() - j),
        _ => tile!(NV, cols.len() - j),
    }
}

/// The packed chunk kernel: the `B` side is packed one slab (one
/// shared-dimension block of a column range, see [`pack_b`]) at a time,
/// right before the chunk's row tiles run over it — `MR`-row tiles, then
/// one 4-, 2- and 1-row tile for `rows % MR` — so no copy of the whole of
/// `B` is ever made. Each packer walks its source in memory order: blocks
/// outermost for straight `B`, whose block rows then stay hot across its
/// slabs, and column ranges outermost for `Bᵀ`, whose rows then stream
/// along the shared dimension.
#[inline(always)]
fn gemm_chunk<V: Lanes, const MR: usize, const NV: usize>(
    t: V::Token,
    g: Gemm<'_>,
    c: &mut [f32],
    scratch: &mut [f32],
) {
    let (slab_buf, band) = scratch.split_at_mut(scratch.len() - g.band_len());
    let width = Gemm::slab_cols(g.k.min(MM_KC), NV * V::LANES);
    let (blocks, slabs) = (g.k.div_ceil(MM_KC), g.cols.div_ceil(width));
    for step in 0..blocks * slabs {
        let (kb, jb) = match g.b.trans {
            false => (step / slabs * MM_KC, step % slabs * width),
            true => (step % blocks * MM_KC, step / blocks * width),
        };
        let (ks, cols) = (kb..(kb + MM_KC).min(g.k), jb..(jb + width).min(g.cols));
        let slab = pack_b::<V>(t, g.b, ks.clone(), cols.clone(), slab_buf);
        let mut i = 0;
        macro_rules! rows {
            ($rb:expr) => {{
                // With several slabs per block, each row tile keeps its own
                // band for the block's later slabs.
                let keep = g.a.trans && slabs > 1;
                let band = &mut band[if keep { i * ks.len() } else { 0 }..];
                let (ks, cols) = (ks.clone(), cols.clone());
                row_tile::<V, { $rb }, NV>(t, &g, i, ks, slab, cols, c, band);
                i += $rb;
            }};
        }
        while i + MR <= g.rows {
            rows!(MR);
        }
        if i + 4 <= g.rows {
            rows!(4);
        }
        if i + 2 <= g.rows {
            rows!(2);
        }
        while i < g.rows {
            rows!(1);
        }
    }
}

/// Pack-free `matmul` tile: `RB` output rows × `jw` columns, `KU`
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

/// Pack-free `matmul` chunk kernel (at most [`MM_SKINNY_ROWS`] rows in
/// all, overwriting): per column block, the shared dimension outermost in
/// steps of four (then single steps for `k % 4`), rows in pairs (then
/// one). Every element of `B` is read exactly once per chunk, in row order.
///
/// A block is `2048 / M` columns (a multiple of [`MM_NR`]), at least 256:
/// the `M`-row f32 output tile stays in L1 while rows of `B` stream past
/// it (8 KB up to `M = 8`, 16 KB at `M = 16`), and at `M ≤ 4` each row of
/// a 1024-wide `B` is read in at most two pieces rather than four.
#[inline(always)]
fn mm_skinny_impl<V: Lanes>(t: V::Token, g: Gemm<'_>, chunk: &mut [f32]) {
    let (rows, k, n, a, b) = (g.rows, g.k, g.cols, g.a.data, g.b.data);
    let nc = (2048 / rows.max(1) / MM_NR * MM_NR).max(256);
    for jb in (0..n).step_by(nc) {
        let jw = (n - jb).min(nc);
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

// Target-feature entry points, one per (kernel, width): `#[target_feature]`
// cannot sit on safe trait methods, so the generic `#[inline(always)]`
// bodies compile *inside* these wrappers and inherit the enabled features.
// The entries are safe `#[target_feature]` functions, each entered once
// per dispatch after `Backend::isa` produced the proof it takes; off
// x86-64 no proof exists and they are unreachable stubs. The scalar
// backend calls the generic bodies directly.
macro_rules! simd_entry {
    ($features:literal, $name:ident, $body:path,
     ($t:ident: $tok:ty, $($arg:ident: $ty:ty),*)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        fn $name($t: $tok, $($arg: $ty),*) {
            $body($t, $($arg),*)
        }
        #[cfg(not(target_arch = "x86_64"))]
        #[allow(unused_variables)]
        fn $name($t: $tok, $($arg: $ty),*) {
            match $t {}
        }
    };
}

simd_entry!("avx2,fma", gemm_256, gemm_chunk::<F32x8, MM_MR_256, MM_NV_256>,
    (t: Avx2, g: Gemm<'_>, c: &mut [f32], scratch: &mut [f32]));
simd_entry!("avx2,fma,avx512f,avx512vl", gemm_512, gemm_chunk::<F32x16, MM_MR_512, MM_NV_512>,
    (t: Avx512, g: Gemm<'_>, c: &mut [f32], scratch: &mut [f32]));
simd_entry!("avx2,fma", skinny_256, mm_skinny_impl::<F32x8>, (t: Avx2, g: Gemm<'_>, c: &mut [f32]));
simd_entry!("avx2,fma,avx512f,avx512vl", skinny_512, mm_skinny_impl::<F32x16>,
    (t: Avx512, g: Gemm<'_>, c: &mut [f32]));

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
        // (self.cols).
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
        // holds on whichever backend the host selects — and both are
        // bitwise `matmul` on the materialised transpose.
        let mut serial = Matrix::zeros(k, n);
        a.gemm_into_parts(&b, Transpose::A, &mut serial, 1, Backend::Auto, false);
        assert_eq!(par, serial);
        assert_eq!(par, a.transpose().matmul(&b));
    }

    #[test]
    fn parallel_matmul_a_bt_bit_identical_to_serial() {
        // Force the parallel path with > PAR_THRESHOLD rows; 141 is off
        // every tile height and 131 off every tile width, so the pooled
        // chunks cut through full and remainder tiles.
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
        a.gemm_into_parts(&b, Transpose::B, &mut serial, 1, Backend::Auto, false);
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
        assert!((crate::l2_norm(a.as_slice()) - 5.0).abs() < 1e-6);
    }
}
