//! Matrix Market (`.mtx`) import/export.
//!
//! The paper's datasets come from the SuiteSparse collection, which is
//! distributed in Matrix Market coordinate format; this module lets the
//! library ingest real SuiteSparse files when they are available and
//! export synthetic stand-ins for inspection with standard tools.
//!
//! Supported: `matrix coordinate real/integer/pattern general/symmetric`.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};
use std::io::{BufRead, Write};

/// Most entries reserved up front from a header's entry count. The count
/// is unchecked input, so it only sizes the first allocation; a larger
/// file grows the vector as it is read.
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

/// Parses a Matrix Market coordinate stream into a COO matrix.
///
/// Symmetric files are expanded (both triangles materialised); `pattern`
/// files get unit values. One-based indices are converted to zero-based.
pub fn read_matrix_market<R: BufRead>(reader: R) -> SparseResult<CooMatrix<f64>> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| SparseError::InvalidCsr("empty Matrix Market stream".into()))?
        .map_err(io_err)?;
    let h: Vec<String> = header.split_whitespace().map(str::to_lowercase).collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" || h[2] != "coordinate" {
        return Err(SparseError::InvalidCsr(format!(
            "unsupported Matrix Market header: {header}"
        )));
    }
    let pattern = h[3] == "pattern";
    if !(pattern || h[3] == "real" || h[3] == "integer") {
        return Err(SparseError::InvalidCsr(format!(
            "unsupported field type {}",
            h[3]
        )));
    }
    let symmetric = match h[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(SparseError::InvalidCsr(format!(
                "unsupported symmetry {other}"
            )))
        }
    };
    // Skip comments, read the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(io_err)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| SparseError::InvalidCsr("missing size line".into()))?;
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(SparseError::InvalidCsr(format!(
            "bad size line: {size_line}"
        )));
    }
    let rows: u32 = parse(dims[0])?;
    let cols: u32 = parse(dims[1])?;
    let nnz: usize = parse(dims[2])?;
    let stored = if symmetric {
        nnz.saturating_mul(2)
    } else {
        nnz
    };
    let mut coo = CooMatrix::with_capacity(rows, cols, stored.min(MAX_RESERVED_ENTRIES));
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(io_err)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() < 2 {
            return Err(SparseError::InvalidCsr(format!("bad entry line: {t}")));
        }
        let r: u32 = parse::<u32>(parts[0])?
            .checked_sub(1)
            .ok_or_else(|| SparseError::InvalidCsr("zero row index in 1-based file".into()))?;
        let c: u32 = parse::<u32>(parts[1])?
            .checked_sub(1)
            .ok_or_else(|| SparseError::InvalidCsr("zero col index in 1-based file".into()))?;
        let v: f64 = if pattern {
            1.0
        } else {
            parts
                .get(2)
                .ok_or_else(|| SparseError::InvalidCsr(format!("missing value: {t}")))?
                .parse()
                .map_err(|e| SparseError::InvalidCsr(format!("bad value in '{t}': {e}")))?
        };
        coo.push(r, c, v)?;
        if symmetric && r != c {
            coo.push(c, r, v)?;
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::InvalidCsr(format!(
            "entry count mismatch: header says {nnz}, file has {seen}"
        )));
    }
    Ok(coo)
}

/// Writes a CSR matrix in `general real` coordinate format.
pub fn write_matrix_market<W: Write>(a: &CsrMatrix<f64>, mut w: W) -> SparseResult<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general").map_err(io_err)?;
    writeln!(w, "% written by arrow-matrix").map_err(io_err)?;
    writeln!(w, "{} {} {}", a.rows(), a.cols(), a.nnz()).map_err(io_err)?;
    for (r, c, v) in a.iter() {
        writeln!(w, "{} {} {v}", r + 1, c + 1).map_err(io_err)?;
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(s: &str) -> SparseResult<T>
where
    T::Err: std::fmt::Display,
{
    s.parse::<T>()
        .map_err(|e| SparseError::InvalidCsr(format!("cannot parse '{s}': {e}")))
}

fn io_err(e: std::io::Error) -> SparseError {
    SparseError::InvalidCsr(format!("I/O error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_str(s: &str) -> SparseResult<CooMatrix<f64>> {
        read_matrix_market(BufReader::new(s.as_bytes()))
    }

    #[test]
    fn general_real_roundtrip() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 1, 2.5).unwrap();
        coo.push(2, 3, -1.0).unwrap();
        coo.push(1, 0, 7.0).unwrap();
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let back = read_matrix_market(BufReader::new(buf.as_slice()))
            .unwrap()
            .to_csr();
        assert_eq!(a, back);
    }

    #[test]
    fn symmetric_expansion() {
        let s = "%%MatrixMarket matrix coordinate real symmetric\n\
                 % a comment\n\
                 3 3 2\n\
                 2 1 4.0\n\
                 3 3 1.0\n";
        let a = parse_str(s).unwrap().to_csr();
        assert_eq!(a.nnz(), 3); // mirrored off-diagonal + diagonal once
        assert_eq!(a.get(1, 0), 4.0);
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.get(2, 2), 1.0);
    }

    #[test]
    fn pattern_matrices_get_unit_values() {
        let s = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let a = parse_str(s).unwrap().to_csr();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn integer_field_accepted() {
        let s = "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 9\n";
        let a = parse_str(s).unwrap().to_csr();
        assert_eq!(a.get(0, 0), 9.0);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(parse_str("").is_err());
        assert!(parse_str("%%MatrixMarket matrix array real general\n1 1\n1.0\n").is_err());
        assert!(parse_str("%%MatrixMarket matrix coordinate real general\n2 2\n").is_err());
        assert!(
            parse_str("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n").is_err(),
            "zero-based index must be rejected"
        );
        assert!(
            parse_str("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n").is_err(),
            "count mismatch must be rejected"
        );
        assert!(
            parse_str("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n").is_err(),
            "out-of-range index must be rejected"
        );
        assert!(
            parse_str("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n").is_err()
        );
    }

    #[test]
    fn absurd_entry_counts_are_a_mismatch_not_a_crash() {
        for header in [
            // usize::MAX: once a "capacity overflow" panic.
            "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551615\n",
            // 10¹²: once an allocation failure that aborted the process.
            "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n",
            // Above usize::MAX / 2: once an overflow of `2 * nnz`.
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 9223372036854775808\n",
        ] {
            let err = parse_str(&format!("{header}1 1 1.0\n")).unwrap_err();
            assert!(err.to_string().contains("entry count mismatch"), "{err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let s = "%%MatrixMarket matrix coordinate real general\n\
                 % c1\n\n% c2\n\
                 2 2 1\n\n\
                 1 2 3.5\n% trailing\n";
        let a = parse_str(s).unwrap().to_csr();
        assert_eq!(a.get(0, 1), 3.5);
    }
}
