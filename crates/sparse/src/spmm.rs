//! Sparse-times-dense multiplication kernels (CSRMM).
//!
//! These are the local, per-rank kernels of the paper's distributed
//! algorithms — the role played by cuSPARSE CSRMM in the original
//! evaluation — and, on one rank, the serving path itself.
//!
//! # One row walker
//!
//! Every multiply in this crate — [`spmm`], [`spmm_parallel`],
//! [`spmm_slices`] and [`spmm_slices_rows`] — runs the same **row
//! walker**. It takes its rows as one **contiguous run** into
//! consecutive output rows — the whole matrix, a block of
//! [`spmm_parallel`] or the run of [`spmm_slices_rows`] — whose entry
//! extents come from one pass over `indptr`, each offset read once.
//!
//! At `k = 1` a row is one sum: a single accumulator walks the row's
//! stored entries and the finished sum touches the output once. A wider
//! row is cut greedily into strips: as many of the body's widest strip
//! as fit (16 columns on the portable body, 32 on the AVX2 one, 64 on
//! the AVX-512 one), then at most one each of the narrower widths 32,
//! 16, 8 and 4, then single columns. For each strip the row's entries
//! are walked once with the strip's sums held in a `[T; W]` that the
//! compiler keeps in registers. Either way only the
//! finished sums touch the output ([`Finish`]: overwrite it, continue
//! from what it held, or fold into it with one addition). The `x` row of
//! an entry is its column index or found through a gather map (the
//! Arrow multiply's gather feed); products are exact or rounded through
//! `f32` ([`Dtype`]). Whether there is a map, the finish and the product
//! mode are properties of the call, fixed when it enters the walker:
//! each combination is its own instantiation, so the loop over a row's
//! entries tests none of them.
//!
//! A strip of 32 or more columns also prefetches: before it walks entry
//! `i` (counted over all of `a`'s stored entries, so the look-ahead runs
//! on past the row's end) it asks for every cache line of its columns of
//! the `x` row of entry `i + 8` — that entry's column index, through the
//! gather map when there is one — unless no such entry exists or the
//! address is not inside `x`. A wide operand's `x` rows are too many for
//! L2 and are read in a random order, so without the hint every entry
//! waits on L3. A prefetch is a hint that writes nothing; narrower strips
//! prefetch nothing and do no work for it.
//!
//! # Why every result is bit-identical to the loop it replaced
//!
//! The loops this replaces did `out[j] += v · x[c][j]` entry by entry,
//! loading and storing the output row each time. Per output *element* the
//! walker performs the very same sequence — the same starting value, the
//! same products in the same (column) order, one rounding per product and
//! one per addition, the same finish — it merely keeps the running sum in
//! a register between entries. The `k = 1` loop is that sequence for the
//! row's one element, and a strip is it for `W` elements side by side.
//! Elements never interact, so cutting a row into strips of any width, or
//! where a row's extent and slot come from, reorders nothing, and a
//! prefetch touches no value. No fused multiply-add is ever emitted: Rust
//! never contracts `a + b · c`, the AVX2 body does not enable `fma`, and
//! the AVX-512 body enables only `avx512f` (whose FMA units Rust then
//! still never uses for an addition of a product); nothing is
//! reassociated.
//!
//! # What is selected at run time
//!
//! On x86-64 the walker is compiled three times ([`Body`]): for the
//! build's baseline target with strips of up to 16 columns, under
//! `#[target_feature(enable = "avx2")]` with strips of up to 32 (eight
//! 256-bit registers at `f64`), and under
//! `#[target_feature(enable = "avx512f")]` with strips of up to 64 (eight
//! 512-bit registers). Which one runs is decided per call from the CPU
//! and the operand's width — the AVX-512 body from 32 columns on, where
//! it is faster (below, it ties or loses), else the AVX2 body — by
//! `is_x86_feature_detected!`, not from a field, an environment variable
//! or a cargo feature. Every other architecture has only the portable
//! body. All three execute the same IEEE operations, so the choice never
//! changes a bit of any result; [`spmm_slices_on`] runs a named body so a
//! test can hold each of them to one reference.
//!
//! The parallel variant splits over blocks of output rows on the shared
//! `amd-exec` pool, which is the natural decomposition for CSR ×
//! row-major dense; it is the kernel of the one-rank (shared-memory)
//! serving path.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::scalar::{Dtype, Scalar};
use std::ops::Range;

/// How a strip's finished sums land in the output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finish {
    /// `y = Σ`: the sums start at `+0.0` and replace whatever `y` held —
    /// the order of [`spmm`], without needing a zeroed buffer.
    Overwrite,
    /// `y += Σ`, term by term: the sums start from `y`'s content, each
    /// product added onto the running value.
    Accumulate,
    /// `y += (Σ from +0.0)`: one addition per element after the row's
    /// product is complete — the order of "multiply, then add" (the
    /// delta correction). Rows without stored entries are left
    /// untouched: they would add `+0.0`, which changes only a `−0.0` — a
    /// value no `y` that was itself summed from `+0.0` (a zeroed buffer,
    /// a base product) ever holds.
    Fold,
}

/// The read-only side of a multiply: `a`, and the row-major `x` with `k`
/// columns. A gather map, when `x` is read through one, is passed beside
/// it.
#[derive(Clone, Copy)]
pub(crate) struct Operands<'a, T: Scalar> {
    pub a: &'a CsrMatrix<T>,
    pub x: &'a [T],
    pub k: usize,
}

/// One output row for the walker: the extent of its stored entries in
/// `a`'s `indices` / `values`, and its slot — which `k`-element row of
/// `y` it finishes into.
pub(crate) type Row = (Range<usize>, usize);

/// The rows `rows` of `a`, into consecutive slots from 0: one pass over
/// `indptr`, each offset read once.
pub(crate) fn run_of<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: Range<u32>,
) -> impl Iterator<Item = Row> + '_ {
    a.indptr()[rows.start as usize..=rows.end as usize]
        .windows(2)
        .map(|w| w[0]..w[1])
        .zip(0..)
}

/// Where the `x` row of an entry with column index `c` is, fixed per
/// instantiation of the walker: `c` itself, or `map[c]` for a gather map
/// `map: &[u32]`.
trait Gather: Copy {
    fn row(self, c: u32) -> usize;
}

/// No gather map: an entry's `x` row is its column index.
#[derive(Clone, Copy)]
struct Direct;

impl Gather for Direct {
    #[inline(always)]
    fn row(self, c: u32) -> usize {
        c as usize
    }
}

impl Gather for &[u32] {
    #[inline(always)]
    fn row(self, c: u32) -> usize {
        self[c as usize] as usize
    }
}

// `Finish` as a const parameter of the walker.
const OVERWRITE: u8 = Finish::Overwrite as u8;
const ACCUMULATE: u8 = Finish::Accumulate as u8;
const FOLD: u8 = Finish::Fold as u8;

/// Strips at least this wide prefetch the `x` rows of coming entries.
const PREFETCH_MIN_W: usize = 32;

/// How many stored entries ahead of the one being walked a wide strip
/// prefetches.
const PREFETCH_AHEAD: usize = 8;

/// `v · x`, exact or rounded through `f32` (then summed at `T`; a no-op
/// narrowing when `T = f32`).
#[inline(always)]
fn product<T: Scalar, const NARROW: bool>(v: T, x: T) -> T {
    if NARROW {
        T::from_f64((v.to_f64() as f32 * x.to_f64() as f32) as f64)
    } else {
        v * x
    }
}

/// Asks for every cache line of the columns `j0..j0 + W` of the `x` row
/// of stored entry `at` (an offset into `indices`, `a`'s column indices,
/// in any row) to be brought into L1. A hint: it changes no result, and
/// nothing is asked when there is no such entry or its row is not inside
/// `x`.
#[inline(always)]
fn prefetch<T: Scalar, G: Gather, const W: usize>(
    ops: Operands<'_, T>,
    indices: &[u32],
    gather: G,
    at: usize,
    j0: usize,
) {
    let Some(row) = indices.get(at).map(|&c| gather.row(c)) else {
        return;
    };
    let start = row * ops.k + j0;
    let Some(xs) = ops.x.get(start..start + W) else {
        return;
    };
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let (p, bytes) = (xs.as_ptr().cast::<i8>(), size_of_val(xs));
        // One address per line from the first byte, then the last byte,
        // whose line the others miss when `xs` does not start a line.
        for line in 0..bytes / LINE {
            // SAFETY: `line * LINE < bytes`, so the address lies inside
            // `xs`; a prefetch reads nothing into the program and cannot
            // fault.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.add(line * LINE)) };
        }
        // SAFETY: as above, for the last byte of `xs`.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.add(bytes - 1)) };
    }
    // Strips this wide run only in the x86-64 bodies.
    #[cfg(not(target_arch = "x86_64"))]
    let _ = xs;
}

/// One `W`-column strip of one output row: walks the row's entries once
/// with the sums in `acc`, then finishes into `out[j0..j0 + W]`. `cols`
/// and `vals` are the row's entries, stored from offset `start` of `a`;
/// a strip of at least [`PREFETCH_MIN_W`] columns prefetches the `x` row
/// of the entry [`PREFETCH_AHEAD`] ahead, in this row or a later one.
#[inline(always)]
fn strip<T: Scalar, G: Gather, const W: usize, const NARROW: bool, const FIN: u8>(
    ops: Operands<'_, T>,
    gather: G,
    start: usize,
    cols: &[u32],
    vals: &[T],
    j0: usize,
    out: &mut [T],
) {
    let out: &mut [T; W] = (&mut out[j0..j0 + W])
        .try_into()
        .expect("slice of W columns");
    let mut acc = if FIN == ACCUMULATE {
        *out
    } else {
        [T::ZERO; W]
    };
    let indices = ops.a.indices();
    for (e, (&c, &v)) in cols.iter().zip(vals).enumerate() {
        if W >= PREFETCH_MIN_W {
            prefetch::<T, G, W>(ops, indices, gather, start + e + PREFETCH_AHEAD, j0);
        }
        let xs: &[T; W] = ops.x[gather.row(c) * ops.k + j0..][..W]
            .try_into()
            .expect("slice of W columns");
        for j in 0..W {
            acc[j] += product::<T, NARROW>(v, xs[j]);
        }
    }
    if FIN == FOLD {
        for j in 0..W {
            out[j] += acc[j];
        }
    } else {
        *out = acc;
    }
}

/// The row walker: every row of `rows` of `A · X`, finished into its slot
/// of `y` as `FIN` says. At `k = 1` a row is one sum; wider rows are cut
/// greedily into strips of `WIDE` (16, 32 or 64), then 32, 16, 8, 4 and
/// 1 columns.
#[inline(always)]
fn walk<T: Scalar, G: Gather, const WIDE: usize, const NARROW: bool, const FIN: u8>(
    ops: Operands<'_, T>,
    gather: G,
    rows: impl Iterator<Item = Row>,
    y: &mut [T],
) {
    let (indices, values, k) = (ops.a.indices(), ops.a.values(), ops.k);
    // An empty row leaves its slot as it is, except under `Overwrite`.
    let rows = rows.filter(|(entries, _)| FIN == OVERWRITE || !entries.is_empty());
    if k == 1 {
        for (entries, at) in rows {
            let out = &mut y[at];
            let mut acc = if FIN == ACCUMULATE { *out } else { T::ZERO };
            for (&c, &v) in indices[entries.clone()].iter().zip(&values[entries]) {
                acc += product::<T, NARROW>(v, ops.x[gather.row(c)]);
            }
            *out = if FIN == FOLD { *out + acc } else { acc };
        }
        return;
    }
    for (entries, at) in rows {
        let start = entries.start;
        let (cols, vals) = (&indices[entries.clone()], &values[entries]);
        let out = &mut y[at * k..][..k];
        let mut j = 0;
        while k - j >= WIDE {
            strip::<T, G, WIDE, NARROW, FIN>(ops, gather, start, cols, vals, j, out);
            j += WIDE;
        }
        if WIDE > 32 && k - j >= 32 {
            strip::<T, G, 32, NARROW, FIN>(ops, gather, start, cols, vals, j, out);
            j += 32;
        }
        if WIDE > 16 && k - j >= 16 {
            strip::<T, G, 16, NARROW, FIN>(ops, gather, start, cols, vals, j, out);
            j += 16;
        }
        if k - j >= 8 {
            strip::<T, G, 8, NARROW, FIN>(ops, gather, start, cols, vals, j, out);
            j += 8;
        }
        if k - j >= 4 {
            strip::<T, G, 4, NARROW, FIN>(ops, gather, start, cols, vals, j, out);
            j += 4;
        }
        while j < k {
            strip::<T, G, 1, NARROW, FIN>(ops, gather, start, cols, vals, j, out);
            j += 1;
        }
    }
}

/// [`walk`] instantiated for this call's finish and product mode.
#[inline(always)]
fn walk_as<T: Scalar, G: Gather, const WIDE: usize>(
    ops: Operands<'_, T>,
    gather: G,
    rows: impl Iterator<Item = Row>,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) {
    match (dtype, finish) {
        (Dtype::F64, Finish::Overwrite) => {
            walk::<T, G, WIDE, false, OVERWRITE>(ops, gather, rows, y)
        }
        (Dtype::F64, Finish::Accumulate) => {
            walk::<T, G, WIDE, false, ACCUMULATE>(ops, gather, rows, y)
        }
        (Dtype::F64, Finish::Fold) => walk::<T, G, WIDE, false, FOLD>(ops, gather, rows, y),
        (Dtype::F32, Finish::Overwrite) => {
            walk::<T, G, WIDE, true, OVERWRITE>(ops, gather, rows, y)
        }
        (Dtype::F32, Finish::Accumulate) => {
            walk::<T, G, WIDE, true, ACCUMULATE>(ops, gather, rows, y)
        }
        (Dtype::F32, Finish::Fold) => walk::<T, G, WIDE, true, FOLD>(ops, gather, rows, y),
    }
}

/// [`walk`] with strips of up to `WIDE` columns, instantiated for this
/// call's gather map, finish and product mode. `Dtype::F32` rounds each
/// product through `f32`.
#[inline(always)]
fn body<T: Scalar, const WIDE: usize>(
    ops: Operands<'_, T>,
    gather: Option<&[u32]>,
    rows: impl Iterator<Item = Row>,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) {
    match gather {
        None => walk_as::<T, _, WIDE>(ops, Direct, rows, y, finish, dtype),
        Some(map) => walk_as::<T, _, WIDE>(ops, map, rows, y, finish, dtype),
    }
}

/// [`body`] with 32-column strips, compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn body_avx2<T: Scalar>(
    ops: Operands<'_, T>,
    gather: Option<&[u32]>,
    rows: impl Iterator<Item = Row>,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) {
    body::<T, 32>(ops, gather, rows, y, finish, dtype)
}

/// [`body`] with 64-column strips, compiled with AVX-512F enabled.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn body_avx512<T: Scalar>(
    ops: Operands<'_, T>,
    gather: Option<&[u32]>,
    rows: impl Iterator<Item = Row>,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) {
    body::<T, 64>(ops, gather, rows, y, finish, dtype)
}

/// A compiled body of the row walker (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// The build's baseline target, strips of up to 16 columns: the only
    /// body outside x86-64.
    Portable,
    /// AVX2, strips of up to 32 columns.
    Avx2,
    /// AVX-512F, strips of up to 64 columns.
    Avx512,
}

impl Body {
    /// Every body.
    pub const ALL: [Body; 3] = [Body::Portable, Body::Avx2, Body::Avx512];

    /// Whether this CPU runs the body.
    pub fn runs_here(self) -> bool {
        match self {
            Body::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The body a `k`-column multiply runs on this CPU: AVX-512 from 32
    /// columns on, else AVX2, else the portable one.
    fn pick(k: usize) -> Body {
        if k >= 32 && Body::Avx512.runs_here() {
            Body::Avx512
        } else if Body::Avx2.runs_here() {
            Body::Avx2
        } else {
            Body::Portable
        }
    }
}

/// The walker on `body` for every row of `rows`; an entry's `x` row is
/// read through `gather` when a map is given. Returns `false`, having
/// run nothing, when this CPU lacks `body`. Shapes are the caller's to
/// have checked; a wrong one panics on a slice bound.
fn strips_on<T: Scalar>(
    body: Body,
    ops: Operands<'_, T>,
    gather: Option<&[u32]>,
    rows: impl Iterator<Item = Row>,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) -> bool {
    match body {
        Body::Portable => self::body::<T, 16>(ops, gather, rows, y, finish, dtype),
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 if body.runs_here() => {
            // SAFETY: the guard detected AVX2 on this CPU.
            unsafe { body_avx2(ops, gather, rows, y, finish, dtype) }
        }
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 if body.runs_here() => {
            // SAFETY: the guard detected AVX-512F on this CPU.
            unsafe { body_avx512(ops, gather, rows, y, finish, dtype) }
        }
        _ => return false,
    }
    true
}

/// The walker on the body this CPU and `ops.k` pick ([`Body::pick`]).
pub(crate) fn strips<T: Scalar>(
    ops: Operands<'_, T>,
    gather: Option<&[u32]>,
    rows: impl Iterator<Item = Row>,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) {
    let ran = strips_on(Body::pick(ops.k), ops, gather, rows, y, finish, dtype);
    debug_assert!(ran, "a picked body runs on this CPU");
}

/// Rows `first..` of `A · X` into the whole output rows `y`.
fn fill_rows<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    first: u32,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) {
    let k = x.cols() as usize;
    if k == 0 {
        return;
    }
    let ops = Operands { a, x: x.data(), k };
    let rows = run_of(a, first..first + (y.len() / k) as u32);
    strips(ops, None, rows, y, finish, dtype);
}

/// Serial `Y = A · X` for CSR `A` and dense `X`.
pub fn spmm<T: Scalar>(a: &CsrMatrix<T>, x: &DenseMatrix<T>) -> SparseResult<DenseMatrix<T>> {
    check_shapes(a, x)?;
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    fill_rows(a, x, 0, y.data_mut(), Finish::Overwrite, Dtype::F64);
    Ok(y)
}

/// `A · X` over borrowed row-major slices, finished into `y` as `finish`
/// says, with products at `dtype` — the multiply of a caller that holds
/// its operand and output as plain buffers (a rank program's received
/// tile, a reused iterate) and should not wrap, copy or allocate to
/// multiply them.
///
/// `x` has `k` columns; its row for column index `c` of `a` is `c`, or
/// `gather[c]` when a map is given — then `x` may have any number of
/// rows, and every mapped value must be one of them (one that is not
/// panics). `y` is `a.rows() × k`. Mismatched lengths are shape errors.
pub fn spmm_slices<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &[T],
    k: u32,
    gather: Option<&[u32]>,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) -> SparseResult<()> {
    let ops = check_slices(a, x, k, gather, y, a.rows())?;
    strips(ops, gather, run_of(a, 0..a.rows()), y, finish, dtype);
    Ok(())
}

/// [`spmm_slices`] of the rows `rows` of `a` alone: `y` is
/// `rows.len() × k` and takes those rows of `A · X`, each summed exactly
/// as the whole multiply would sum it. A caller that shares one stored
/// matrix between several workers by rows (the arrow multiply's hub tile)
/// multiplies its run in place instead of cutting a copy out.
pub fn spmm_slices_rows<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: Range<u32>,
    x: &[T],
    k: u32,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) -> SparseResult<()> {
    if rows.start > rows.end || rows.end > a.rows() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (rows.end, k),
        });
    }
    let ops = check_slices(a, x, k, None, y, rows.end - rows.start)?;
    strips(ops, None, run_of(a, rows), y, finish, dtype);
    Ok(())
}

/// [`spmm_slices`] on the walker body `body`, whatever [`Body`] the CPU
/// and `k` would pick: what lets a test hold every body this CPU runs to
/// one reference. A body the CPU lacks is refused with
/// [`SparseError::UnsupportedBody`], before anything is written.
#[allow(clippy::too_many_arguments)]
pub fn spmm_slices_on<T: Scalar>(
    body: Body,
    a: &CsrMatrix<T>,
    x: &[T],
    k: u32,
    gather: Option<&[u32]>,
    y: &mut [T],
    finish: Finish,
    dtype: Dtype,
) -> SparseResult<()> {
    let ops = check_slices(a, x, k, gather, y, a.rows())?;
    if strips_on(body, ops, gather, run_of(a, 0..a.rows()), y, finish, dtype) {
        Ok(())
    } else {
        Err(SparseError::UnsupportedBody(format!("{body:?}")))
    }
}

fn check_slices<'a, T: Scalar>(
    a: &'a CsrMatrix<T>,
    x: &'a [T],
    k: u32,
    gather: Option<&'a [u32]>,
    y: &[T],
    y_rows: u32,
) -> SparseResult<Operands<'a, T>> {
    let kk = k as usize;
    // Through a map, `x` is whole rows, as many as the caller has.
    let x_rows = match gather {
        Some(map) if map.len() < a.cols() as usize => None,
        Some(_) => Some(x.len().checked_div(kk).unwrap_or(0)),
        None => Some(a.cols() as usize),
    };
    if x_rows.is_none_or(|rows| x.len() != rows * kk) {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (x.len().checked_div(kk).unwrap_or(0) as u32, k),
        });
    }
    if y.len() != y_rows as usize * kk {
        return Err(SparseError::ShapeMismatch {
            left: (y_rows, k),
            right: (y.len().checked_div(kk).unwrap_or(0) as u32, k),
        });
    }
    Ok(Operands { a, x, k: kk })
}

/// Steps of serial work below which [`spmm_parallel`] stays on the
/// calling thread, in the unit of [`spmm_work`].
///
/// Re-measured for the row walker (two sweeps over R-MAT scale 8–14 ×
/// `k` ∈ {1, 4, 8, 16, 64} on the 2-core reference host, pool = 8 row
/// blocks through [`for_each_part`]): the serial side spends 0.10–0.17
/// ns per step while its operands stay in cache (0.2–0.38 once a `k = 64`
/// operand spills). Below ≈ 1.3·10⁵ steps the pool loses outright (22 k
/// steps: 0.45–0.59×, 50 k: 0.59–0.94×, 89 k: 0.59–0.68×, 107 k:
/// 0.73–0.94×), which is the case the constant exists to exclude; between
/// there and ≈ 3·10⁵ two threads break even (134 k: 0.75–1.12×, 191 k:
/// 0.86–1.10×, 229 k: 0.98–1.46×, 305 k: 0.80–1.00×); from 4·10⁵ they
/// mostly win (401 k: 1.35–1.38×, 480 k: 1.06–1.81×, 611 k: 1.09–1.43×)
/// and reach 1.2–2.4× from 2 M steps on. `2¹⁸` steps are ≈ 30 µs of
/// serial work, inside the break-even band.
pub const PARALLEL_MIN_WORK: usize = 1 << 18;

/// Serial cost of `A · X` for a `k`-column operand in kernel steps: every
/// stored entry costs its `k` multiply-adds plus about 8 steps of walking
/// to it (index load, `x` row lookup, the serial dependency of its sum)
/// — the fixed part is why a `k = 1` multiply is far slower per flop than
/// a `k = 64` one. Measured per entry on the row walker with
/// cache-resident operands: 0.92–1.0 ns at `k = 1` (1.2–1.7 once R-MAT
/// 13–14's `x` spills), 2.3–3.7 ns at `k = 16`, 10–15 ns at `k = 64`
/// (15–25 ns on R-MAT 14, whose 8.4 MB `x` is read from L3 even with the
/// wide strips' prefetch; 22–30 ns before it); `k + 8` sits
/// between the slope of the narrow widths and that of the wide one.
pub fn spmm_work(a: &CsrMatrix<f64>, k: u32) -> usize {
    a.nnz().saturating_mul(k as usize + 8)
}

/// Blocks handed to each pool thread by [`part_count`]: a few, so that
/// a block of heavy rows (R-MAT hubs) is evened out by the pool's dynamic
/// claiming without paying a dispatch per row.
const BLOCKS_PER_THREAD: usize = 4;

/// How many blocks to cut a pass of `work` steps into for the shared
/// `amd-exec` pool: one — the pass stays on the caller — when the work
/// is below `min_work` or the pool has a single thread, else a few per
/// pool thread.
pub fn part_count(work: usize, min_work: usize) -> usize {
    if work < min_work {
        return 1;
    }
    match amd_exec::requested_threads() {
        0 | 1 => 1,
        threads => threads * BLOCKS_PER_THREAD,
    }
}

/// `Y = A · X` at `dtype`, **overwriting** the caller's `y`, split over
/// row blocks on the shared `amd-exec` pool.
///
/// Every output row is owned by one block and summed in the order
/// [`spmm`] uses (`0`, then the row's entries in column order), so the
/// result is bit-identical to [`spmm`] at [`Dtype::F64`] and to
/// [`spmm_slices`] at [`Dtype::F32`] — for any block count
/// and for any previous content of `y`, which lets a caller keep one
/// output buffer across multiplies instead of allocating (and
/// first-touching) a fresh one each time. Work below
/// [`PARALLEL_MIN_WORK`] runs serially with no dispatch at all.
pub fn spmm_parallel(
    a: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    y: &mut DenseMatrix<f64>,
    dtype: Dtype,
) -> SparseResult<()> {
    check_shapes(a, x)?;
    check_output(a, x, y)?;
    let k = x.cols() as usize;
    let n = a.rows() as usize;
    if n == 0 || k == 0 {
        return Ok(());
    }
    let blocks = part_count(spmm_work(a, x.cols()), PARALLEL_MIN_WORK);
    if blocks == 1 {
        fill_rows(a, x, 0, y.data_mut(), Finish::Overwrite, dtype);
        return Ok(());
    }
    let block_rows = n.div_ceil(blocks);
    for_each_chunk(y.data_mut(), block_rows * k, |block, rows| {
        let first = (block * block_rows) as u32;
        fill_rows(a, x, first, rows, Finish::Overwrite, dtype)
    });
    Ok(())
}

/// Runs `f(index, chunk)` over the `chunk_len`-element chunks of `data`
/// (the last may be shorter) on the shared `amd-exec` pool; see
/// [`for_each_part`].
pub(crate) fn for_each_chunk<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    for_each_part(data.chunks_mut(chunk_len).collect(), f);
}

/// Runs `f(index, part)` for every element of `parts` — disjoint pieces
/// of an output the caller has cut up, each moved into its call — on the
/// shared `amd-exec` pool. A single part runs on the caller: nothing is
/// dispatched, and the pool is not even started.
pub fn for_each_part<P: Send>(mut parts: Vec<P>, f: impl Fn(usize, P) + Sync) {
    if parts.len() <= 1 {
        if let Some(only) = parts.pop() {
            f(0, only);
        }
        return;
    }
    amd_exec::global().for_each_take(parts, f);
}

/// Flop count of `A · X`: 2 · nnz(A) · k, the quantity charged to the
/// simulated compute clock by the distributed algorithms.
pub fn spmm_flops<T: Scalar>(a: &CsrMatrix<T>, k: u32) -> f64 {
    2.0 * a.nnz() as f64 * k as f64
}

/// Dense reference multiply used by tests: `O(n² k)`, only for tiny inputs.
pub fn spmm_dense_reference<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
) -> SparseResult<DenseMatrix<T>> {
    check_shapes(a, x)?;
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let v = a.get(r, c);
            if v != T::ZERO {
                for j in 0..x.cols() {
                    let cur = y.get(r, j);
                    y.set(r, j, cur + v * x.get(c, j));
                }
            }
        }
    }
    Ok(y)
}

fn check_shapes<T: Scalar>(a: &CsrMatrix<T>, x: &DenseMatrix<T>) -> SparseResult<()> {
    if a.cols() != x.rows() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (x.rows(), x.cols()),
        });
    }
    Ok(())
}

fn check_output<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    y: &DenseMatrix<T>,
) -> SparseResult<()> {
    if y.rows() != a.rows() || y.cols() != x.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), x.cols()),
            right: (y.rows(), y.cols()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// Serial `Y = A · X` at `dtype`.
    fn spmm_dtype(
        a: &CsrMatrix<f64>,
        x: &DenseMatrix<f64>,
        dtype: Dtype,
    ) -> SparseResult<DenseMatrix<f64>> {
        check_shapes(a, x)?;
        let mut y = DenseMatrix::zeros(a.rows(), x.cols());
        fill_rows(a, x, 0, y.data_mut(), Finish::Overwrite, dtype);
        Ok(y)
    }

    #[test]
    fn chunks_cover_the_slice_and_a_single_chunk_stays_on_the_caller() {
        let mut data = vec![0u64; 1000];
        for_each_chunk(&mut data, 7, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 7 + j) as u64;
            }
        });
        assert_eq!(data, (0..1000).collect::<Vec<u64>>());
        // One chunk is not dispatched: the closure sees the caller's thread.
        let caller = std::thread::current().id();
        let mut one = vec![0u8; 16];
        for_each_chunk(&mut one, 16, |i, chunk| {
            assert_eq!((i, std::thread::current().id()), (0, caller));
            chunk.fill(1);
        });
        assert_eq!(one, vec![1; 16]);
        for_each_chunk(&mut [0u32; 0], 4, |_, _| panic!("nothing to run"));
    }

    fn small() -> (CsrMatrix<f64>, DenseMatrix<f64>) {
        // A = [0 1; 2 3], X = [1 2; 3 4]
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        (coo.to_csr(), x)
    }

    #[test]
    fn serial_matches_hand_computation() {
        let (a, x) = small();
        let y = spmm(&a, &x).unwrap();
        // Y = [3 4; 11 16]
        assert_eq!(y.data(), &[3.0, 4.0, 11.0, 16.0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let (a, x) = small();
        let ys = spmm(&a, &x).unwrap();
        // Overwrites whatever the buffer held.
        let mut yp = DenseMatrix::from_fn(2, 2, |_, _| f64::NAN);
        spmm_parallel(&a, &x, &mut yp, Dtype::F64).unwrap();
        assert_eq!(ys, yp);
    }

    /// A matrix heavy enough to take the pool path ([`spmm_work`] above
    /// [`PARALLEL_MIN_WORK`]) with a row count that no block count
    /// divides, non-integer values, and empty rows.
    fn heavy() -> (CsrMatrix<f64>, DenseMatrix<f64>) {
        let n = 1031u32;
        let mut coo = CooMatrix::new(n, n);
        for r in (0..n).filter(|r| r % 17 != 3) {
            for d in 0..5u32 {
                let c = (r * 7 + d * 131 + 1) % n;
                coo.push(r, c, ((r + 3 * d) % 11) as f64 / 7.0 - 0.6)
                    .unwrap();
            }
        }
        let x = DenseMatrix::from_fn(n, 64, |r, c| ((r * 5 + c * 3) % 13) as f64 / 3.0 - 2.0);
        (coo.to_csr(), x)
    }

    #[test]
    fn parallel_blocks_bit_match_serial_in_both_dtypes() {
        let (a, x) = heavy();
        assert!(spmm_work(&a, x.cols()) >= PARALLEL_MIN_WORK);
        for dtype in [Dtype::F64, Dtype::F32] {
            let want = spmm_dtype(&a, &x, dtype).unwrap();
            let mut got = DenseMatrix::from_fn(a.rows(), x.cols(), |r, c| (r + c) as f64);
            spmm_parallel(&a, &x, &mut got, dtype).unwrap();
            assert_eq!(got, want, "{dtype}");
            // Reusing the buffer changes nothing.
            spmm_parallel(&a, &x, &mut got, dtype).unwrap();
            assert_eq!(got, want, "{dtype}, reused buffer");
        }
    }

    #[test]
    fn parallel_rejects_a_misshapen_output_and_accepts_empty_operands() {
        let (a, x) = small();
        let mut bad = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm_parallel(&a, &x, &mut bad, Dtype::F64).is_err());
        let x0 = DenseMatrix::<f64>::zeros(2, 0);
        let mut y0 = DenseMatrix::<f64>::zeros(2, 0);
        spmm_parallel(&a, &x0, &mut y0, Dtype::F64).unwrap();
    }

    #[test]
    fn a_gather_map_reads_rows_of_an_operand_of_any_height() {
        // A = [0 1; 2 3] through the map [2, 0]: column 0 reads row 2 of a
        // three-row x, column 1 reads row 0.
        let (a, _) = small();
        let x = [10.0, 20.0, 0.0, 0.0, 1.0, 2.0];
        let mut y = [0.0; 4];
        let mut run = |x: &[f64], map: &[u32]| {
            spmm_slices(&a, x, 2, Some(map), &mut y, Finish::Overwrite, Dtype::F64).map(|()| y)
        };
        assert_eq!(run(&x, &[2, 0]).unwrap(), [10.0, 20.0, 32.0, 64.0]);
        assert!(run(&x, &[2]).is_err(), "a map must cover every column");
        assert!(run(&x[..5], &[2, 0]).is_err(), "x must be whole rows");
    }

    #[test]
    fn dense_reference_matches() {
        let (a, x) = small();
        assert_eq!(spmm(&a, &x).unwrap(), spmm_dense_reference(&a, &x).unwrap());
    }

    #[test]
    fn accumulating_variant_adds() {
        let (a, x) = small();
        let mut y = DenseMatrix::from_fn(2, 2, |_, _| 100.0);
        spmm_slices(
            &a,
            x.data(),
            2,
            None,
            y.data_mut(),
            Finish::Accumulate,
            Dtype::F64,
        )
        .unwrap();
        assert_eq!(y.data(), &[103.0, 104.0, 111.0, 116.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (a, _) = small();
        let bad = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm(&a, &bad).is_err());
        let mut y = DenseMatrix::<f64>::zeros(3, 2);
        let x = DenseMatrix::<f64>::zeros(2, 2);
        assert!(spmm_parallel(&a, &x, &mut y, Dtype::F64).is_err());
    }

    #[test]
    fn rectangular_spmm() {
        // 2x3 sparse times 3x1 dense
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        let a = coo.to_csr();
        let x = DenseMatrix::from_vec(3, 1, vec![5.0, 6.0, 7.0]).unwrap();
        let y = spmm(&a, &x).unwrap();
        assert_eq!(y.data(), &[7.0, 10.0]);
    }

    #[test]
    fn empty_matrix_gives_zero_output() {
        let a = CsrMatrix::<f64>::zeros(4, 4);
        let x = DenseMatrix::from_fn(4, 3, |r, c| (r + c) as f64);
        let y = spmm(&a, &x).unwrap();
        assert_eq!(y.frobenius_norm(), 0.0);
    }

    #[test]
    fn flop_count() {
        let (a, _) = small();
        assert_eq!(spmm_flops(&a, 2), 2.0 * 3.0 * 2.0);
    }

    #[test]
    fn dtype_f64_is_exact_spmm() {
        let (a, x) = small();
        assert_eq!(
            spmm_dtype(&a, &x, Dtype::F64).unwrap(),
            spmm(&a, &x).unwrap()
        );
    }

    #[test]
    fn dtype_f32_exact_on_small_integers() {
        // Integer data well inside f32's 24-bit mantissa is exact.
        let (a, x) = small();
        assert_eq!(
            spmm_dtype(&a, &x, Dtype::F32).unwrap(),
            spmm(&a, &x).unwrap()
        );
    }

    #[test]
    fn dtype_f32_narrows_products() {
        // 0.1 is not representable in f32, so the emulated product must
        // differ from the f64 one — and match the hand-narrowed value.
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 0.1).unwrap();
        let a = coo.to_csr();
        let x = DenseMatrix::from_vec(1, 1, vec![0.3]).unwrap();
        let y = spmm_dtype(&a, &x, Dtype::F32).unwrap();
        assert_eq!(y.get(0, 0), (0.1f32 * 0.3f32) as f64);
        assert_ne!(y.get(0, 0), 0.1 * 0.3);
    }

    #[test]
    fn dtype_shape_mismatch_rejected() {
        let (a, _) = small();
        let bad = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm_dtype(&a, &bad, Dtype::F32).is_err());
        let x = DenseMatrix::<f64>::zeros(2, 2);
        let mut y = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm_parallel(&a, &x, &mut y, Dtype::F32).is_err());
    }
}
