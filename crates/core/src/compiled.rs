//! Compiled serving kernels: a decomposition lowered to a chosen
//! [`Scalar`] precision.
//!
//! [`ArrowDecomposition`] stores levels as full `n × n` `f64` matrices —
//! the right representation for patching, splicing and persistence, but
//! not for the multiply hot loop. [`CompiledDecomposition`] is the
//! serving-side lowering: per level it keeps only the active-prefix rows
//! of the matrix (narrowed to the target scalar type) plus the
//! arrangement's position/order maps, and multiplies through the fused
//! register-blocked kernels of [`amd_sparse::kernel`], parallelised over
//! output row blocks.
//!
//! Compiling to `f32` halves the bytes every multiply streams. The price
//! is rounding error, bounded by [`f32_multiply_error_bound`]: narrowing
//! the matrix and the feature matrix each cost one relative rounding
//! (`≤ u = 2⁻²⁴`), every product a third, and accumulating a row of `m`
//! products plus the cross-level adds costs the usual `γ` factor. Summed,
//! for output entry `(v, j)`:
//!
//! ```text
//! |y₃₂ − y₆₄|(v, j) ≤ Σ_levels γ(m_p + l + 3) · (|Bᵢ|·|x|)(v, j)
//! γ(t) = t·u / (1 − t·u),   u = 2⁻²⁴
//! ```
//!
//! where `m_p` is the nonzero count of the level row owning `v` and `l`
//! the decomposition order. The bound is asserted elementwise by the
//! kernel exactness tests.

use crate::decomposition::ArrowDecomposition;
use amd_sparse::{kernel, CsrMatrix, DenseMatrix, Scalar, SparseResult};

/// Output rows per parallel chunk in the compiled multiply.
const ROWS_PER_CHUNK: usize = 256;

/// One lowered level: active-prefix CSR at precision `T` plus the
/// arrangement maps the fused kernel needs.
#[derive(Debug, Clone)]
struct CompiledLevel<T: Scalar> {
    /// The leading `active_n` rows of the level matrix, values narrowed
    /// to `T`. Columns still index positions of the full arrangement.
    matrix: CsrMatrix<T>,
    /// Vertex → position map of the level arrangement.
    positions: Vec<u32>,
    /// Position → vertex map of the level arrangement.
    order: Vec<u32>,
    /// Active-prefix length (equals `matrix.rows()`).
    active_n: u32,
}

/// A decomposition lowered to precision `T` for serving multiplies.
///
/// Built with [`ArrowDecomposition::compile`]; answers
/// [`multiply`](Self::multiply) / [`iterate`](Self::iterate) in `T`
/// end-to-end (storage, products and accumulation). For `T = f64` the
/// results are bit-identical to [`ArrowDecomposition::multiply`].
#[derive(Debug, Clone)]
pub struct CompiledDecomposition<T: Scalar> {
    n: u32,
    levels: Vec<CompiledLevel<T>>,
}

impl ArrowDecomposition {
    /// Lowers the decomposition to precision `T`, trimming each level to
    /// its active prefix.
    pub fn compile<T: Scalar>(&self) -> CompiledDecomposition<T> {
        let levels = self
            .levels()
            .iter()
            .map(|level| {
                let active = level.active_n as usize;
                let indptr = level.matrix.indptr()[..=active].to_vec();
                let nnz = *indptr.last().expect("indptr is never empty");
                let matrix = CsrMatrix::from_raw_unchecked(
                    level.active_n,
                    level.matrix.cols(),
                    indptr,
                    level.matrix.indices()[..nnz].to_vec(),
                    level.matrix.values()[..nnz]
                        .iter()
                        .map(|&v| T::from_f64(v))
                        .collect(),
                );
                CompiledLevel {
                    matrix,
                    positions: level.perm.positions().to_vec(),
                    order: level.perm.order().to_vec(),
                    active_n: level.active_n,
                }
            })
            .collect();
        CompiledDecomposition {
            n: self.n(),
            levels,
        }
    }
}

impl<T: Scalar> CompiledDecomposition<T> {
    /// Matrix dimension.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// `Y = A · X` at precision `T` through the fused parallel kernels.
    pub fn multiply(&self, x: &DenseMatrix<T>) -> SparseResult<DenseMatrix<T>> {
        let mut y = DenseMatrix::zeros(self.n, x.cols());
        for level in &self.levels {
            kernel::fused_level_acc_parallel(
                &level.matrix,
                &level.positions,
                &level.order,
                level.active_n,
                x,
                &mut y,
                ROWS_PER_CHUNK,
            )?;
        }
        Ok(y)
    }

    /// Iterated multiply `X_{t+1} = σ(A X_t)` at precision `T`.
    pub fn iterate(
        &self,
        x0: &DenseMatrix<T>,
        steps: u32,
        sigma: impl Fn(T) -> T + Sync,
    ) -> SparseResult<DenseMatrix<T>> {
        let mut x = x0.clone();
        for _ in 0..steps {
            let mut y = self.multiply(&x)?;
            y.map_inplace(&sigma);
            x = y;
        }
        Ok(x)
    }
}

/// Elementwise bound on `|y₃₂ − y₆₄|` for one f32 multiply of `d` against
/// `x` (see the module docs for the derivation). The bound is in terms of
/// `Σᵢ |Bᵢ|·|x|`, so it adapts to the data: zero rows get a zero bound.
pub fn f32_multiply_error_bound(
    d: &ArrowDecomposition,
    x: &DenseMatrix<f64>,
) -> SparseResult<DenseMatrix<f64>> {
    const U: f64 = 5.960_464_477_539_063e-8; // 2⁻²⁴, f32 unit roundoff
    let gamma = |t: f64| t * U / (1.0 - t * U);
    let l = d.order() as f64;
    let k = x.cols() as usize;
    let mut bound = DenseMatrix::zeros(d.n(), x.cols());
    let mut row_abs = vec![0.0f64; k];
    for level in d.levels() {
        for p in 0..level.active_n {
            let cols = level.matrix.row_indices(p);
            if cols.is_empty() {
                continue;
            }
            row_abs.fill(0.0);
            for (&c, &v) in cols.iter().zip(level.matrix.row_values(p)) {
                let xr = x.row(level.perm.vertex_at(c));
                let av = v.abs();
                for j in 0..k {
                    row_abs[j] += av * xr[j].abs();
                }
            }
            let g = gamma(cols.len() as f64 + l + 3.0);
            let out = bound.row_mut(level.perm.vertex_at(p));
            for j in 0..k {
                out[j] += g * row_abs[j];
            }
        }
    }
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::la_decompose::{la_decompose, DecomposeConfig};
    use crate::strategy::RandomForestLa;
    use amd_graph::generators::basic;

    fn decomposed(n: u32, b: u32) -> ArrowDecomposition {
        let a: CsrMatrix<f64> = basic::star(n).to_adjacency();
        la_decompose(
            &a,
            &DecomposeConfig {
                arrow_width: b,
                ..Default::default()
            },
            &mut RandomForestLa::new(3),
        )
        .unwrap()
    }

    #[test]
    fn compiled_f64_bit_matches_decomposition_multiply() {
        let d = decomposed(50, 4);
        let c = d.compile::<f64>();
        let x = DenseMatrix::from_fn(50, 6, |r, j| ((r * 6 + j) % 19) as f64 / 8.0 - 1.0);
        assert_eq!(c.multiply(&x).unwrap(), d.multiply(&x).unwrap());
    }

    #[test]
    fn compiled_iterate_matches_decomposition_iterate() {
        let d = decomposed(30, 4);
        let c = d.compile::<f64>();
        let x = DenseMatrix::from_fn(30, 2, |r, _| if r % 3 == 0 { 1.0 } else { -1.0 });
        let relu = |v: f64| v.max(0.0);
        assert_eq!(
            c.iterate(&x, 3, relu).unwrap(),
            d.iterate(&x, 3, relu).unwrap()
        );
    }

    #[test]
    fn compiled_f32_within_error_bound() {
        let d = decomposed(50, 4);
        let c = d.compile::<f32>();
        let x64 = DenseMatrix::from_fn(50, 4, |r, j| ((r * 4 + j) % 29) as f64 / 7.0 - 2.0);
        let x32 = DenseMatrix::from_fn(50, 4, |r, j| x64.get(r, j) as f32);
        let y32 = c.multiply(&x32).unwrap();
        let y64 = d.multiply(&x64).unwrap();
        let bound = f32_multiply_error_bound(&d, &x64).unwrap();
        for v in 0..50u32 {
            for j in 0..4u32 {
                let err = (y32.get(v, j) as f64 - y64.get(v, j)).abs();
                // The f32 input x32 is itself a rounding of x64, already
                // accounted for in the bound's narrowing term.
                assert!(
                    err <= bound.get(v, j),
                    "({v}, {j}): err {err:e} > bound {:e}",
                    bound.get(v, j)
                );
            }
        }
    }

    #[test]
    fn compiled_f32_exact_on_integer_data() {
        let d = decomposed(40, 4);
        let c = d.compile::<f32>();
        let x32 = DenseMatrix::from_fn(40, 3, |r, j| ((r * 3 + j) % 7) as f32 - 3.0);
        let x64 = DenseMatrix::from_fn(40, 3, |r, j| ((r * 3 + j) % 7) as f64 - 3.0);
        let y32 = c.multiply(&x32).unwrap();
        let y64 = d.multiply(&x64).unwrap();
        for v in 0..40u32 {
            for j in 0..3u32 {
                assert_eq!(y32.get(v, j) as f64, y64.get(v, j));
            }
        }
    }
}
