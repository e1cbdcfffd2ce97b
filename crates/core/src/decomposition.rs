//! The arrow matrix decomposition `A = Σᵢ P_πᵢ Bᵢ Pᵀ_πᵢ` (§4).

use crate::arrow_matrix::ArrowMatrix;
use amd_sparse::{ops, spmm, CsrMatrix, DenseMatrix, Permutation, Scalar, SparseResult};

/// One level of the decomposition: a permutation `πᵢ` and the arrow matrix
/// `Bᵢ` expressed in permuted coordinates (positions).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrowLevel {
    /// The arrangement `πᵢ` mapping vertices to positions.
    pub perm: Permutation,
    /// `Bᵢ` as a full `n × n` CSR matrix in position coordinates. All
    /// nonzeros lie in the arrow pattern of width `b` and within the
    /// leading `active_n × active_n` block.
    pub matrix: CsrMatrix<f64>,
    /// Number of leading positions that may host nonzeros (pruned vertices
    /// plus arranged non-isolated vertices). Positions `≥ active_n` are
    /// structurally empty, which is what lets later levels use fewer ranks.
    pub active_n: u32,
}

impl ArrowLevel {
    /// Tiled view of the *active* part of this level's matrix.
    pub fn to_arrow(&self, b: u32) -> SparseResult<ArrowMatrix> {
        ArrowMatrix::from_leading_block(&self.matrix, self.active_n, b)
    }

    /// Stored entries of this level.
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }
}

/// A `b`-arrow matrix decomposition of order `l = levels.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrowDecomposition {
    n: u32,
    b: u32,
    levels: Vec<ArrowLevel>,
}

impl ArrowDecomposition {
    /// Assembles a decomposition from levels (used by `la_decompose`).
    pub fn new(n: u32, b: u32, levels: Vec<ArrowLevel>) -> Self {
        debug_assert!(levels.iter().all(|l| l.matrix.rows() == n));
        Self { n, b, levels }
    }

    /// Matrix dimension.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Arrow width `b`.
    pub fn b(&self) -> u32 {
        self.b
    }

    /// The order `l` of the decomposition (number of arrow matrices).
    pub fn order(&self) -> usize {
        self.levels.len()
    }

    /// The levels in peeling order (level 0 first).
    pub fn levels(&self) -> &[ArrowLevel] {
        &self.levels
    }

    /// Total stored entries across all levels (each entry of `A` appears
    /// in exactly one level — the storage argument of Lemma 7).
    pub fn nnz(&self) -> usize {
        self.levels.iter().map(ArrowLevel::nnz).sum()
    }

    /// Reconstructs `A = Σᵢ P_πᵢ Bᵢ Pᵀ_πᵢ` (validation path).
    pub fn reconstruct(&self) -> SparseResult<CsrMatrix<f64>> {
        let mut acc = CsrMatrix::<f64>::zeros(self.n, self.n);
        for level in &self.levels {
            // Bᵢ is stored in position coordinates; applying the *inverse*
            // arrangement maps positions back to vertices.
            let back = level.perm.inverse().apply_symmetric(&level.matrix)?;
            acc = ops::add(&acc, &back)?;
        }
        Ok(acc.prune_zeros())
    }

    /// Maximum absolute entry-wise error of the reconstruction vs `a`.
    pub fn validate(&self, a: &CsrMatrix<f64>) -> SparseResult<f64> {
        self.reconstruct()?.max_abs_diff(a)
    }

    /// Fraction of positions that are active, averaged over levels
    /// (`Σᵢ active_nᵢ / (l · n)`). Spliced levels produced by incremental
    /// refresh have tiny active prefixes, so a low fraction means the
    /// distributed multiply gives most levels few ranks. `1.0` for an
    /// empty decomposition.
    pub fn active_prefix_fraction(&self) -> f64 {
        if self.levels.is_empty() || self.n == 0 {
            return 1.0;
        }
        let active: u64 = self.levels.iter().map(|l| l.active_n as u64).sum();
        active as f64 / (self.levels.len() as u64 * self.n as u64) as f64
    }

    /// `Y = A · X` through the decomposition (Eq. 1):
    /// `AX = Σᵢ P_πᵢ (Bᵢ (Pᵀ_πᵢ X))`, level by level.
    pub fn multiply(&self, x: &DenseMatrix<f64>) -> SparseResult<DenseMatrix<f64>> {
        let levels = self.levels.iter().map(|l| (&l.perm, &l.matrix));
        eq1_multiply(self.n, levels, x)
    }

    /// Iterated multiply `X_{t+1} = σ(A X_t)` for `steps` iterations.
    pub fn iterate(
        &self,
        x0: &DenseMatrix<f64>,
        steps: u32,
        sigma: impl Fn(f64) -> f64 + Sync,
    ) -> SparseResult<DenseMatrix<f64>> {
        let mut x = x0.clone();
        for _ in 0..steps {
            let mut y = self.multiply(&x)?;
            y.map_inplace(&sigma);
            x = y;
        }
        Ok(x)
    }
}

/// Eq. 1 over `levels` at any precision: for each arrangement `πᵢ` and
/// its level matrix `Bᵢ` (in position coordinates), permute `X`
/// (`Pᵀ_πᵢ X`), multiply by `Bᵢ`, permute back and add into `Y`.
pub(crate) fn eq1_multiply<'a, T: Scalar>(
    n: u32,
    levels: impl Iterator<Item = (&'a Permutation, &'a CsrMatrix<T>)>,
    x: &DenseMatrix<T>,
) -> SparseResult<DenseMatrix<T>> {
    let mut y = DenseMatrix::zeros(n, x.cols());
    for (perm, matrix) in levels {
        let yi = spmm::spmm(matrix, &perm.apply_rows(x)?)?;
        y.add_assign(&perm.unapply_rows(&yi)?)?;
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::la_decompose::{la_decompose, DecomposeConfig};
    use crate::strategy::RandomForestLa;
    use amd_graph::generators::basic;
    use amd_sparse::spmm::spmm as ref_spmm;

    fn decompose_star(n: u32, b: u32) -> (CsrMatrix<f64>, ArrowDecomposition) {
        let a: CsrMatrix<f64> = basic::star(n).to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig {
                arrow_width: b,
                ..Default::default()
            },
            &mut RandomForestLa::new(3),
        )
        .unwrap();
        (a, d)
    }

    #[test]
    fn star_reconstructs_exactly() {
        let (a, d) = decompose_star(40, 4);
        assert_eq!(d.validate(&a).unwrap(), 0.0);
        assert_eq!(d.nnz(), a.nnz());
    }

    #[test]
    fn multiply_matches_direct_spmm() {
        let (a, d) = decompose_star(40, 4);
        let x = DenseMatrix::from_fn(40, 3, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
        let direct = ref_spmm(&a, &x).unwrap();
        let via = d.multiply(&x).unwrap();
        assert!(via.max_abs_diff(&direct).unwrap() < 1e-9);
    }

    #[test]
    fn iterate_applies_sigma() {
        let (a, d) = decompose_star(20, 4);
        let x = DenseMatrix::from_fn(20, 2, |r, _| if r == 0 { 1.0 } else { -1.0 });
        let relu = |v: f64| v.max(0.0);
        let it = d.iterate(&x, 2, relu).unwrap();
        // Direct computation.
        let mut direct = x.clone();
        for _ in 0..2 {
            let mut y = ref_spmm(&a, &direct).unwrap();
            y.map_inplace(relu);
            direct = y;
        }
        assert!(it.max_abs_diff(&direct).unwrap() < 1e-9);
    }

    #[test]
    fn active_prefix_fraction_bounds() {
        let (_, d) = decompose_star(40, 4);
        let f = d.active_prefix_fraction();
        assert!(f > 0.0 && f <= 1.0, "fraction {f} out of range");
        let total: u64 = d.levels().iter().map(|l| l.active_n as u64).sum();
        assert_eq!(f, total as f64 / (d.order() as u64 * 40) as f64);
        assert_eq!(
            ArrowDecomposition::new(5, 2, Vec::new()).active_prefix_fraction(),
            1.0
        );
    }

    #[test]
    fn levels_expose_arrow_views() {
        let (_, d) = decompose_star(40, 4);
        for level in d.levels() {
            let arrow = level.to_arrow(d.b()).unwrap();
            assert_eq!(arrow.nnz(), level.nnz());
        }
    }
}
