//! The owned floor: a plain CSR × dense loop over the benchmark's own
//! arrays. It is the correctness oracle (integer data, so the program's
//! answers must match it bit for bit) and the fixed yardstick behind
//! `floor_ratio`. It calls no program code, so speeding up
//! `amd_sparse::spmm` can never make `floor_ratio` look worse.

use amd_sparse::CsrMatrix;

/// A square CSR matrix in the benchmark's own arrays (sorted, unique
/// column indices per row).
#[derive(Debug, Clone)]
pub struct OwnCsr {
    pub n: u32,
    pub indptr: Vec<usize>,
    pub indices: Vec<u32>,
    pub values: Vec<f64>,
}

impl OwnCsr {
    /// Builds the 0/1 matrix with a 1.0 at every listed position
    /// (duplicates collapse).
    pub fn from_positions(n: u32, mut positions: Vec<(u32, u32)>) -> Self {
        positions.sort_unstable();
        positions.dedup();
        let mut indptr = vec![0usize; n as usize + 1];
        for &(r, _) in &positions {
            indptr[r as usize + 1] += 1;
        }
        for r in 0..n as usize {
            indptr[r + 1] += indptr[r];
        }
        let indices: Vec<u32> = positions.iter().map(|&(_, c)| c).collect();
        let values = vec![1.0; indices.len()];
        Self {
            n,
            indptr,
            indices,
            values,
        }
    }

    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    pub fn row(&self, r: u32) -> (&[u32], &[f64]) {
        let span = self.indptr[r as usize]..self.indptr[r as usize + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Bytes of the three CSR arrays — computed from array sizes, not
    /// measured traffic.
    pub fn bytes(&self) -> usize {
        self.indptr.len() * 8 + self.indices.len() * 4 + self.values.len() * 8
    }

    /// The same matrix as the program's type (the hand-over point: the
    /// program receives only generated inputs).
    pub fn to_program(&self) -> CsrMatrix<f64> {
        CsrMatrix::from_raw(
            self.n,
            self.n,
            self.indptr.clone(),
            self.indices.clone(),
            self.values.clone(),
        )
        .expect("generated CSR arrays are valid")
    }
}

/// `y = A · x` for row-major `n × k` operands: the floor kernel.
fn spmm(a: &OwnCsr, x: &[f64], k: usize, y: &mut [f64]) {
    y.fill(0.0);
    for r in 0..a.n as usize {
        let out = &mut y[r * k..(r + 1) * k];
        for p in a.indptr[r]..a.indptr[r + 1] {
            let v = a.values[p];
            let xr = &x[a.indices[p] as usize * k..][..k];
            for (o, xv) in out.iter_mut().zip(xr) {
                *o += v * xv;
            }
        }
    }
}

/// Answers one request the way a program without any of this repo's
/// machinery would: pack the query columns side by side, multiply
/// `iters` times, unpack the answer columns. Everything a request has to
/// do is inside, so it is timed as a whole.
pub fn answer(a: &OwnCsr, columns: &[Vec<f64>], iters: u32) -> Vec<Vec<f64>> {
    let n = a.n as usize;
    let k = columns.len();
    let mut x = vec![0.0; n * k];
    for (j, col) in columns.iter().enumerate() {
        for (r, &v) in col.iter().enumerate() {
            x[r * k + j] = v;
        }
    }
    let mut y = vec![0.0; n * k];
    for _ in 0..iters {
        spmm(a, &x, k, &mut y);
        std::mem::swap(&mut x, &mut y);
    }
    (0..k)
        .map(|j| (0..n).map(|r| x[r * k + j]).collect())
        .collect()
}

/// Bit-for-bit equality of two answer columns.
pub fn identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The benchmark's own copy of a mutating tenant: base plus every update
/// from the benchmark's update log, kept as sorted rows so a CSR
/// snapshot is one linear pass.
#[derive(Debug, Clone)]
pub struct Mirror {
    rows: Vec<Vec<(u32, f64)>>,
}

impl Mirror {
    pub fn new(base: &OwnCsr) -> Self {
        let rows = (0..base.n)
            .map(|r| {
                let (cols, vals) = base.row(r);
                cols.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        Self { rows }
    }

    /// Applies `A[row, col] += delta`.
    pub fn add(&mut self, row: u32, col: u32, delta: f64) {
        let r = &mut self.rows[row as usize];
        match r.binary_search_by_key(&col, |&(c, _)| c) {
            Ok(i) => r[i].1 += delta,
            Err(i) => r.insert(i, (col, delta)),
        }
    }

    pub fn snapshot(&self) -> OwnCsr {
        let mut indptr = Vec::with_capacity(self.rows.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in &self.rows {
            for &(c, v) in r {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        OwnCsr {
            n: self.rows.len() as u32,
            indptr,
            indices,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> OwnCsr {
        OwnCsr::from_positions(3, vec![(0, 1), (1, 0), (1, 2), (2, 1), (1, 2)])
    }

    #[test]
    fn floor_multiplies_and_iterates() {
        let a = path3();
        assert_eq!(a.nnz(), 4);
        let cols = vec![vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]];
        let once = answer(&a, &cols, 1);
        assert_eq!(once[0], vec![2.0, 4.0, 2.0]);
        assert_eq!(once[1], vec![1.0, 0.0, 1.0]);
        let twice = answer(&a, &cols, 2);
        assert_eq!(twice[0], vec![4.0, 4.0, 4.0]);
        assert_eq!(twice[1], vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn floor_agrees_with_the_program_kernel() {
        let a = crate::gen::rmat(8, 8, &mut crate::gen::SplitMix64::stream(5, "rmat8"));
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|j| crate::gen::column(a.n, &mut crate::gen::SplitMix64::stream(j, "columns")))
            .collect();
        let ours = answer(&a, &cols, 1);
        let x = amd_sparse::DenseMatrix::from_fn(a.n, 3, |r, c| cols[c as usize][r as usize]);
        let theirs = amd_sparse::spmm::spmm(&a.to_program(), &x).unwrap();
        for (j, col) in ours.iter().enumerate() {
            let t: Vec<f64> = (0..a.n).map(|r| theirs.get(r, j as u32)).collect();
            assert!(identical(col, &t));
        }
    }

    #[test]
    fn mirror_tracks_updates() {
        let mut m = Mirror::new(&path3());
        m.add(0, 2, 1.0);
        m.add(0, 1, 1.0);
        let s = m.snapshot();
        assert_eq!(s.row(0), (&[1u32, 2][..], &[2.0, 1.0][..]));
        assert_eq!(s.nnz(), 5);
    }

    #[test]
    fn identical_is_bitwise() {
        assert!(identical(&[1.0, -2.0], &[1.0, -2.0]));
        assert!(!identical(&[0.0], &[-0.0]));
        assert!(!identical(&[1.0], &[1.0, 1.0]));
    }
}
