//! The core CSR graph type.

use amd_sparse::{CooMatrix, CsrMatrix, Scalar};

/// An undirected graph in CSR adjacency form.
///
/// Every edge `{u, v}` is stored twice (once per endpoint); self-loops are
/// not represented (the decomposition treats matrix diagonals separately,
/// as they always fall inside any band).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds from a deduplicated, self-loop-free edge list with `u != v`.
    ///
    /// Prefer [`GraphBuilder`](crate::GraphBuilder), which enforces those
    /// preconditions.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Self {
        let mut deg = vec![0usize; n as usize + 1];
        for &(u, v) in edges {
            debug_assert!(u != v, "self-loop {u}");
            debug_assert!(u < n && v < n, "edge ({u},{v}) out of bounds for n={n}");
            deg[u as usize + 1] += 1;
            deg[v as usize + 1] += 1;
        }
        for i in 0..n as usize {
            deg[i + 1] += deg[i];
        }
        let offsets = deg.clone();
        let mut neighbors = vec![0u32; edges.len() * 2];
        let mut next = deg;
        for &(u, v) in edges {
            neighbors[next[u as usize]] = v;
            next[u as usize] += 1;
            neighbors[next[v as usize]] = u;
            next[v as usize] += 1;
        }
        // Sort each adjacency list for deterministic iteration and O(log d)
        // membership tests.
        let mut g = Self { offsets, neighbors };
        for v in 0..n {
            let (lo, hi) = (g.offsets[v as usize], g.offsets[v as usize + 1]);
            g.neighbors[lo..hi].sort_unstable();
        }
        g
    }

    /// An edgeless graph on `n` vertices.
    pub fn empty(n: u32) -> Self {
        Self {
            offsets: vec![0; n as usize + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Sorted neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// `true` if the edge `{u, v}` exists. `O(log deg(u))`.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree Δ(G).
    pub fn max_degree(&self) -> u32 {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree (= `nnz(A)/n` of the adjacency matrix).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.n() as f64
        }
    }

    /// Iterates over each undirected edge once, with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Collects the edge list (each edge once, `u < v`), sorted.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::with_capacity(self.m());
        for u in 0..self.n() {
            let nbrs = self.neighbors(u);
            // Sorted adjacency: the upper neighbours are a suffix.
            let upper = nbrs.partition_point(|&v| v <= u);
            edges.extend(nbrs[upper..].iter().map(|&v| (u, v)));
        }
        edges
    }

    /// Adjacency matrix with unit weights.
    pub fn to_adjacency<T: Scalar>(&self) -> CsrMatrix<T> {
        let n = self.n();
        let mut coo = CooMatrix::with_capacity(n, n, self.neighbors.len());
        for u in 0..n {
            for &v in self.neighbors(u) {
                coo.push(u, v, T::ONE)
                    .expect("neighbour indices are in bounds");
            }
        }
        coo.to_csr()
    }

    /// Builds the graph of the off-diagonal sparsity structure of a square
    /// matrix (symmetrised: an entry at `(i, j)` or `(j, i)` yields the
    /// edge `{i, j}`).
    pub fn from_matrix_structure<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        Self::from_edges(a.rows(), &structure_edges(a))
    }

    /// The subgraph induced by vertices with `keep[v] == true`, on the
    /// *same* vertex set (edges incident to dropped vertices removed,
    /// dropped vertices become isolated). This matches `G_i[V_i \ V_h]` in
    /// LA-Decompose where vertex identities must be preserved.
    pub fn filter_vertices(&self, keep: &[bool]) -> Self {
        assert_eq!(keep.len(), self.n() as usize);
        let edges: Vec<(u32, u32)> = self
            .edges()
            .filter(|&(u, v)| keep[u as usize] && keep[v as usize])
            .collect();
        Self::from_edges(self.n(), &edges)
    }
}

/// The edges of the off-diagonal sparsity structure of a square matrix,
/// symmetrised, each once as `(u, v)` with `u < v`, sorted — so an edge's
/// index in the list is a stable id for it.
///
/// A row scan emits the upper entries `(r, c)`, `r < c`, already in that
/// order; a lower entry with no mirror becomes `(c, r)` out of order, and
/// only then is the list sorted (the two kinds never coincide, so there
/// is nothing to deduplicate). Whether row `c` holds the mirror `r` is
/// answered by one cursor per row that only moves forward: the rows are
/// scanned in ascending `r`, so the questions put to a fixed row `c`
/// arrive in ascending `r` too, and the whole scan walks every row once
/// more instead of searching it once per lower entry.
pub fn structure_edges<T: Scalar>(a: &CsrMatrix<T>) -> Vec<(u32, u32)> {
    assert_eq!(
        a.rows(),
        a.cols(),
        "adjacency structure requires a square matrix"
    );
    let (indptr, indices) = (a.indptr(), a.indices());
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(a.nnz() / 2);
    let mut cursor = indptr[..a.rows() as usize].to_vec();
    let mut one_sided = false;
    for r in 0..a.rows() {
        for &c in a.row_indices(r) {
            if r < c {
                edges.push((r, c));
            } else if c < r {
                let (at, end) = (&mut cursor[c as usize], indptr[c as usize + 1]);
                while *at < end && indices[*at] < r {
                    *at += 1;
                }
                if *at == end || indices[*at] != r {
                    edges.push((c, r));
                    one_sided = true;
                }
            }
        }
    }
    if one_sided {
        edges.sort_unstable();
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_sparse::CooMatrix;

    fn triangle_plus_pendant() -> Graph {
        // 0-1, 1-2, 2-0, 2-3
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = triangle_plus_pendant();
        let mut e = g.edge_list();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn adjacency_roundtrip() {
        let g = triangle_plus_pendant();
        let a: CsrMatrix<f64> = g.to_adjacency();
        assert_eq!(a.nnz(), 8); // each edge twice
        let back = Graph::from_matrix_structure(&a);
        assert_eq!(back, g);
    }

    #[test]
    fn from_matrix_structure_symmetrizes_and_skips_diagonal() {
        let mut coo = CooMatrix::<f64>::new(3, 3);
        coo.push(0, 1, 1.0).unwrap(); // only one direction stored
        coo.push(1, 1, 5.0).unwrap(); // diagonal ignored
        coo.push(2, 0, 2.0).unwrap();
        let g = Graph::from_matrix_structure(&coo.to_csr());
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn filter_vertices_keeps_vertex_ids() {
        let g = triangle_plus_pendant();
        let keep = vec![true, false, true, true];
        let f = g.filter_vertices(&keep);
        assert_eq!(f.n(), 4);
        assert_eq!(f.m(), 2); // 2-0 and 2-3 survive
        assert_eq!(f.degree(1), 0);
        assert!(f.has_edge(0, 2));
    }
}
