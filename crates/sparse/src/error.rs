//! Error type shared across the sparse substrate.

use std::fmt;

/// Errors produced when constructing or combining matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry's row or column index lies outside the declared shape.
    IndexOutOfBounds {
        /// Offending row index.
        row: u32,
        /// Offending column index.
        col: u32,
        /// Number of rows of the matrix.
        rows: u32,
        /// Number of columns of the matrix.
        cols: u32,
    },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left operand.
        left: (u32, u32),
        /// Shape of the right operand.
        right: (u32, u32),
    },
    /// A CSR invariant is violated (non-monotone `indptr`, length mismatch,
    /// or unsorted/duplicate column indices where they are required).
    InvalidCsr(String),
    /// The slice defining a permutation is not a bijection on `0..n`.
    InvalidPermutation(String),
    /// A fault injected by an armed `amd-chaos` failpoint (the string
    /// is the site name). Never produced in production: retry loops
    /// match on this variant so injected transients are retried while
    /// real structural errors still propagate.
    Injected(String),
    /// A multiply asked for a compiled body of the row walker (named by
    /// the string) that this CPU cannot run.
    UnsupportedBody(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "entry ({row}, {col}) outside matrix of shape {rows}x{cols}"
            ),
            SparseError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            SparseError::InvalidCsr(msg) => write!(f, "invalid CSR structure: {msg}"),
            SparseError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
            SparseError::Injected(site) => write!(f, "injected fault at failpoint `{site}`"),
            SparseError::UnsupportedBody(body) => {
                write!(f, "this CPU cannot run the {body} multiply body")
            }
        }
    }
}

impl std::error::Error for SparseError {}

/// Convenience alias used across the crate.
pub type SparseResult<T> = Result<T, SparseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offending_indices() {
        let err = SparseError::IndexOutOfBounds {
            row: 7,
            col: 9,
            rows: 4,
            cols: 4,
        };
        let s = err.to_string();
        assert!(s.contains("(7, 9)"));
        assert!(s.contains("4x4"));
    }

    #[test]
    fn display_shape_mismatch() {
        let err = SparseError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        assert_eq!(err.to_string(), "shape mismatch: 2x3 vs 4x5");
    }

    #[test]
    fn error_trait_object_compatible() {
        let err: Box<dyn std::error::Error> = Box::new(SparseError::InvalidCsr("x".into()));
        assert!(err.to_string().contains("invalid CSR"));
    }
}
