//! Serial reference SpMM used for verification.

use amd_sparse::{spmm, CsrMatrix, DenseMatrix, SparseResult};

/// `A^iters · X` computed serially.
pub fn iterated_spmm(
    a: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    iters: u32,
) -> SparseResult<DenseMatrix<f64>> {
    let mut cur = x.clone();
    for _ in 0..iters {
        cur = spmm::spmm(a, &cur)?;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_sparse::CooMatrix;

    #[test]
    fn zero_iterations_is_identity() {
        let a = CsrMatrix::<f64>::identity(3);
        let x = DenseMatrix::from_fn(3, 2, |r, c| (r + c) as f64);
        assert_eq!(iterated_spmm(&a, &x, 0).unwrap(), x);
    }

    #[test]
    fn powers_of_a_scaling_matrix() {
        // A = 2·I → A³X = 8X.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        let a = coo.to_csr();
        let x = DenseMatrix::from_fn(2, 1, |r, _| (r + 1) as f64);
        let y = iterated_spmm(&a, &x, 3).unwrap();
        assert_eq!(y.data(), &[8.0, 16.0]);
    }
}
