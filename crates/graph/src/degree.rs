//! Degree statistics, including the Table 2 dataset signature.

use crate::graph::Graph;

/// Summary statistics of a graph's degree sequence, mirroring the columns
/// of Table 2 of the paper (`n`, `nnz(A)/n`, `Δ`).
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub n: u32,
    /// Number of undirected edges.
    pub m: usize,
    /// Average degree = `nnz(A)/n`.
    pub avg_degree: f64,
    /// Maximum degree Δ.
    pub max_degree: u32,
    /// Number of isolated vertices.
    pub isolated: u32,
    /// Median degree.
    pub median_degree: u32,
}

impl DegreeStats {
    /// Computes statistics for `g`.
    pub fn of(g: &Graph) -> Self {
        let n = g.n();
        let mut degrees: Vec<u32> = (0..n).map(|v| g.degree(v)).collect();
        let isolated = degrees.iter().filter(|&&d| d == 0).count() as u32;
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let median_degree = if degrees.is_empty() {
            0
        } else {
            let mid = degrees.len() / 2;
            *degrees.select_nth_unstable(mid).1
        };
        Self {
            n,
            m: g.m(),
            avg_degree: g.avg_degree(),
            max_degree,
            isolated,
            median_degree,
        }
    }

    /// Maximum degree as a fraction of `n` — the "Δ ≈ 0.93 n" signature of
    /// the MAWI datasets.
    pub fn max_degree_fraction(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max_degree as f64 / self.n as f64
        }
    }
}

/// The pruning set `V_h` of LA-Decompose step 1 (§5.1): the at most `b`
/// vertices of largest degree among those with degree ≥ 1, ordered by
/// `(degree descending, id ascending)`. `degrees[v]` is the degree of `v`.
///
/// The order is total, so the set and its order are unique whatever the
/// selection does internally: a partial selection of the `b` winners,
/// then a sort of just those.
pub fn top_degree_vertices(degrees: &[u32], b: usize) -> Vec<u32> {
    let by_rank = |x: &u32, y: &u32| {
        degrees[*y as usize]
            .cmp(&degrees[*x as usize])
            .then(x.cmp(y))
    };
    let mut vs: Vec<u32> = (0..degrees.len() as u32)
        .filter(|&v| degrees[v as usize] > 0)
        .collect();
    if vs.len() > b {
        vs.select_nth_unstable_by(b, by_rank);
        vs.truncate(b);
    }
    vs.sort_unstable_by(by_rank);
    vs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::basic;

    #[test]
    fn stats_of_star() {
        let g = basic::star(11);
        let s = DegreeStats::of(&g);
        assert_eq!(s.n, 11);
        assert_eq!(s.m, 10);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.isolated, 0);
        assert_eq!(s.median_degree, 1);
        assert!((s.max_degree_fraction() - 10.0 / 11.0).abs() < 1e-12);
        assert!((s.avg_degree - 20.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let g = Graph::empty(4);
        let s = DegreeStats::of(&g);
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.isolated, 4);
        let e = Graph::empty(0);
        assert_eq!(DegreeStats::of(&e).median_degree, 0);
    }

    fn degrees(g: &Graph) -> Vec<u32> {
        (0..g.n()).map(|v| g.degree(v)).collect()
    }

    #[test]
    fn top_degree_selects_hubs() {
        // Star at 0 plus a triangle 1-2-3: degrees 0:4(+), verify ordering.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3)]);
        let top = top_degree_vertices(&degrees(&g), 2);
        assert_eq!(top[0], 0); // degree 4
        assert_eq!(top[1], 2); // degree 3
        assert_eq!(top_degree_vertices(&degrees(&g), 100).len(), 5);
        assert!(top_degree_vertices(&degrees(&g), 0).is_empty());
    }

    #[test]
    fn top_degree_tie_break_is_deterministic() {
        let g = basic::path(6); // interior vertices all degree 2
        let top = top_degree_vertices(&degrees(&g), 3);
        assert_eq!(top, vec![1, 2, 3]);
    }

    #[test]
    fn top_degree_skips_isolated_vertices() {
        assert_eq!(top_degree_vertices(&[0, 3, 0, 1, 3], 4), vec![1, 4, 3]);
    }

    #[test]
    fn top_degree_matches_a_full_sort() {
        // Many ties around the cut: the selection must agree with sorting
        // every vertex by (degree desc, id asc) and truncating.
        let degrees: Vec<u32> = (0..500u32).map(|v| (v * 7919) % 6).collect();
        for b in [1usize, 7, 83, 250, 499, 500, 900] {
            let mut all: Vec<u32> = (0..500).filter(|&v| degrees[v as usize] > 0).collect();
            all.sort_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
            all.truncate(b);
            assert_eq!(top_degree_vertices(&degrees, b), all, "b = {b}");
        }
    }
}
