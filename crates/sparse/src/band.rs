//! Bandwidth and arrow-width measures (§2 and §4 of the paper).
//!
//! * A matrix has **bandwidth** `w` if every nonzero `(i, j)` satisfies
//!   `|i − j| ≤ w`.
//! * A matrix has **arrow-width** `b` if every nonzero `(i, j)` with
//!   `i ≥ b` *and* `j ≥ b` satisfies `|i − j| ≤ b` (the first `b` rows and
//!   columns are unconstrained — the "arrow shaft").
//!
//! Arrow-width generalises arrowhead matrices (`b = 1`) and is never larger
//! than the bandwidth. The gap can be polynomial: a star graph has
//! bandwidth `Ω(n)` under every ordering but arrow-width `1`.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// Bandwidth of the matrix: `max |i − j|` over stored entries (0 for
/// diagonal or empty matrices).
pub fn bandwidth<T: Scalar>(a: &CsrMatrix<T>) -> u32 {
    let mut w = 0u32;
    for r in 0..a.rows() {
        for &c in a.row_indices(r) {
            let d = r.abs_diff(c);
            if d > w {
                w = d;
            }
        }
    }
    w
}

/// Smallest `b` such that `a` has arrow-width `b`.
///
/// Runs a binary search over `b` against [`is_arrow_width`]; `O(nnz log n)`.
pub fn arrow_width<T: Scalar>(a: &CsrMatrix<T>) -> u32 {
    if a.nnz() == 0 {
        return 0;
    }
    let (mut lo, mut hi) = (0u32, bandwidth(a));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if is_arrow_width(a, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `true` if every nonzero `(i, j)` with `i ≥ b` and `j ≥ b` satisfies
/// `|i − j| ≤ b` — the definition in §1 of the paper (with 0-based indices:
/// entries in the first `b` rows or columns are exempt).
pub fn is_arrow_width<T: Scalar>(a: &CsrMatrix<T>, b: u32) -> bool {
    for r in b..a.rows() {
        for &c in a.row_indices(r) {
            if c >= b && r.abs_diff(c) > b {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn from_entries(n: u32, entries: &[(u32, u32)]) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c) in entries {
            coo.push(r, c, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn bandwidth_of_tridiagonal() {
        let m = from_entries(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
        assert_eq!(bandwidth(&m), 1);
        assert_eq!(arrow_width(&m), 1);
    }

    #[test]
    fn bandwidth_of_empty_and_diagonal() {
        let empty = CsrMatrix::<f64>::zeros(5, 5);
        assert_eq!(bandwidth(&empty), 0);
        assert_eq!(arrow_width(&empty), 0);
        let diag = CsrMatrix::<f64>::identity(5);
        assert_eq!(bandwidth(&diag), 0);
        assert_eq!(arrow_width(&diag), 0);
    }

    #[test]
    fn star_has_high_bandwidth_low_arrow_width() {
        // Star centred at vertex 0 in natural order: entries (0, j), (j, 0).
        let n = 64;
        let entries: Vec<(u32, u32)> = (1..n).flat_map(|j| [(0u32, j), (j, 0u32)]).collect();
        let m = from_entries(n, &entries);
        assert_eq!(bandwidth(&m), n - 1);
        assert_eq!(arrow_width(&m), 1);
    }

    #[test]
    fn arrow_width_counts_band_beyond_arms() {
        // Arm entries in first 2 rows/cols plus a band entry (5, 8): |5-8| = 3 > 2.
        let m = from_entries(10, &[(0, 9), (9, 0), (1, 7), (5, 8), (8, 5)]);
        assert!(is_arrow_width(&m, 3));
        assert!(!is_arrow_width(&m, 2));
        assert_eq!(arrow_width(&m), 3);
    }

    #[test]
    fn arrow_width_exempts_first_b_rows_and_cols() {
        let m = from_entries(10, &[(0, 9), (9, 0)]);
        assert!(is_arrow_width(&m, 1));
        assert_eq!(arrow_width(&m), 1);
    }

    #[test]
    fn arrow_width_is_at_most_bandwidth() {
        let m = from_entries(8, &[(2, 6), (6, 2), (3, 4), (0, 7)]);
        assert!(arrow_width(&m) <= bandwidth(&m));
    }
}
