//! A decomposition lowered to a chosen [`Scalar`] precision.
//!
//! [`CompiledDecomposition`] keeps each level's arrangement and its
//! matrix with values narrowed to `T`, and multiplies through the same
//! Eq. 1 function as [`ArrowDecomposition::multiply`]: permute, level
//! SpMM, permute back, add. Compiling to `f64` therefore answers bit for
//! bit what the decomposition does, and compiling to `f32` runs the same
//! operation sequence in single precision.

use crate::decomposition::{eq1_multiply, ArrowDecomposition};
use amd_sparse::{CsrMatrix, DenseMatrix, Permutation, Scalar, SparseResult};

/// A decomposition lowered to precision `T`: every level's arrangement
/// and its matrix at `T`, multiplied in `T` end to end (storage,
/// products and accumulation).
///
/// It stays only because the frozen benchmark package's
/// `core.compile_f32` and `core.fused_f32` rungs call it; it goes once
/// that package stops calling it (ROADMAP item 29, step 1).
#[derive(Debug, Clone)]
pub struct CompiledDecomposition<T: Scalar> {
    n: u32,
    levels: Vec<(Permutation, CsrMatrix<T>)>,
}

impl ArrowDecomposition {
    /// Lowers the decomposition to precision `T`: each level keeps its
    /// arrangement and its matrix, values narrowed to `T`.
    pub fn compile<T: Scalar>(&self) -> CompiledDecomposition<T> {
        let levels = self
            .levels()
            .iter()
            .map(|level| {
                let m = &level.matrix;
                let matrix = CsrMatrix::from_raw_unchecked(
                    m.rows(),
                    m.cols(),
                    m.indptr().to_vec(),
                    m.indices().to_vec(),
                    m.values().iter().map(|&v| T::from_f64(v)).collect(),
                );
                (level.perm.clone(), matrix)
            })
            .collect();
        CompiledDecomposition {
            n: self.n(),
            levels,
        }
    }
}

impl<T: Scalar> CompiledDecomposition<T> {
    /// `Y = A · X` at precision `T` (Eq. 1, level by level).
    pub fn multiply(&self, x: &DenseMatrix<T>) -> SparseResult<DenseMatrix<T>> {
        let levels = self.levels.iter().map(|level| (&level.0, &level.1));
        eq1_multiply(self.n, levels, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::la_decompose::{decompose_snapshot, la_decompose, DecomposeConfig};
    use crate::strategy::RandomForestLa;
    use amd_graph::generators::{basic, random};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    /// A random tree plus ring chords with small integer weights,
    /// decomposed at width `b`.
    fn random_decomposed(n: u32, seed: u64, b: u32) -> ArrowDecomposition {
        let tree = random::random_tree(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut coo = tree.to_adjacency::<f64>().to_coo();
        for v in 0..n {
            coo.push_sym(v, (v + 1) % n, ((v % 3) + 1) as f64).unwrap();
        }
        decompose_snapshot(&coo.to_csr(), &DecomposeConfig::with_width(b), seed).unwrap()
    }

    /// Elementwise bound on `|y₃₂ − y₆₄|` for one f32 multiply of `d`
    /// against `x`. Narrowing the matrix and the operand each cost one
    /// relative rounding (`≤ u = 2⁻²⁴`), every product a third, and
    /// accumulating a row of `m` products plus the cross-level adds costs
    /// the usual `γ` factor. Summed, for output entry `(v, j)`:
    ///
    /// ```text
    /// |y₃₂ − y₆₄|(v, j) ≤ Σ_levels γ(m_p + l + 3) · (|Bᵢ|·|x|)(v, j)
    /// γ(t) = t·u / (1 − t·u),   u = 2⁻²⁴
    /// ```
    ///
    /// where `m_p` is the nonzero count of the level row owning `v` and
    /// `l` the decomposition order. Zero rows get a zero bound.
    fn f32_multiply_error_bound(d: &ArrowDecomposition, x: &DenseMatrix<f64>) -> DenseMatrix<f64> {
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
        bound
    }

    /// The f32 multiply of `d` against `x64` narrowed stays within
    /// [`f32_multiply_error_bound`] of the f64 one, element by element.
    fn assert_within_bound(d: &ArrowDecomposition, x64: &DenseMatrix<f64>) {
        let x32 = DenseMatrix::from_fn(x64.rows(), x64.cols(), |r, j| x64.get(r, j) as f32);
        let y32 = d.compile::<f32>().multiply(&x32).unwrap();
        let y64 = d.multiply(x64).unwrap();
        let bound = f32_multiply_error_bound(d, x64);
        for v in 0..x64.rows() {
            for j in 0..x64.cols() {
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

    /// The f32 multiply of `d` against an integer-valued operand equals
    /// the f64 one exactly.
    fn assert_exact_on_integers(d: &ArrowDecomposition, k: u32) {
        let value = |r: u32, j: u32| ((r * 3 + 5 * j) % 9) as f64 - 4.0;
        let x32 = DenseMatrix::from_fn(d.n(), k, |r, j| value(r, j) as f32);
        let x64 = DenseMatrix::from_fn(d.n(), k, value);
        let y32 = d.compile::<f32>().multiply(&x32).unwrap();
        let y64 = d.multiply(&x64).unwrap();
        for v in 0..d.n() {
            for j in 0..k {
                assert_eq!(y32.get(v, j) as f64, y64.get(v, j));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On a star and on random decompositions over widths 4, 8 and 16.
        #[test]
        fn compiled_f64_bit_matches_decomposition_multiply(
            n in 40u32..120,
            seed in 0u64..500,
            b_log2 in 2u32..5,
            k in 1u32..7,
        ) {
            for d in [decomposed(50, 4), random_decomposed(n, seed, 1 << b_log2)] {
                let x = DenseMatrix::from_fn(d.n(), k, |r, j| ((r * 6 + j) % 19) as f64 / 8.0 - 1.0);
                prop_assert_eq!(d.compile::<f64>().multiply(&x).unwrap(), d.multiply(&x).unwrap());
            }
        }

        /// On random decompositions: within the bound on fractional
        /// (inexact-in-f32) data, and bit-exact on integer data.
        #[test]
        fn f32_compiled_multiply_respects_its_error_bound(
            n in 40u32..100,
            seed in 0u64..500,
            k in 1u32..5,
        ) {
            let d = random_decomposed(n, seed, 8);
            let x64 = DenseMatrix::from_fn(n, k, |r, j| 0.3 + (((r + 2 * j) % 11) as f64) * 0.7);
            assert_within_bound(&d, &x64);
            assert_exact_on_integers(&d, k);
        }
    }

    /// On a star, with fractional (inexact-in-f32) data.
    #[test]
    fn compiled_f32_within_error_bound() {
        let x64 = DenseMatrix::from_fn(50, 4, |r, j| ((r * 4 + j) % 29) as f64 / 7.0 - 2.0);
        assert_within_bound(&decomposed(50, 4), &x64);
    }

    #[test]
    fn compiled_f32_exact_on_integer_data() {
        assert_exact_on_integers(&decomposed(40, 4), 3);
    }
}
