//! Decomposition statistics: compaction (Lemma 1), per-level profiles, and
//! the §7.2 nonzero-block comparison against a direct 1.5D tiling.

use crate::decomposition::ArrowDecomposition;
use amd_sparse::CsrMatrix;
use std::collections::HashSet;

/// Per-level summary of a decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Level index `i` of `Bᵢ`.
    pub level: usize,
    /// Stored entries of `Bᵢ`.
    pub nnz: usize,
    /// Rows with at least one entry.
    pub nonzero_rows: u32,
    /// The dense active prefix length (positions that may host entries).
    pub active_n: u32,
    /// `active_n / n`: the share of positions that may host entries at
    /// this level. Spliced levels from incremental refresh sit near `0`,
    /// so the distributed multiply gives them few ranks.
    pub active_fraction: f64,
    /// Nonzero `b × b` tiles in the arrow layout.
    pub nonzero_tiles: usize,
}

/// Whole-decomposition summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionStats {
    /// Arrow width `b`.
    pub b: u32,
    /// Order `l` (number of levels).
    pub order: usize,
    /// Per-level breakdown.
    pub levels: Vec<LevelStats>,
    /// Minimum ratio `nnz(Bᵢ) / nnz(Bᵢ₊₁)` over consecutive levels — the
    /// empirical `x` for which the decomposition is `x`-compacting
    /// (`f64::INFINITY` for single-level decompositions).
    pub compaction_factor: f64,
    /// Fraction of rows of the *second* matrix that are nonzero, the
    /// quantity §7.2 reports as 0.1%–13%. `0.0` for order-1 decompositions.
    pub second_level_row_fraction: f64,
    /// Level-averaged active-prefix share
    /// ([`ArrowDecomposition::active_prefix_fraction`]): the fraction of
    /// per-level positions that may host entries.
    pub active_prefix_fraction: f64,
}

impl DecompositionStats {
    /// Computes statistics for a decomposition.
    pub fn of(d: &ArrowDecomposition) -> Self {
        let levels: Vec<LevelStats> = d
            .levels()
            .iter()
            .enumerate()
            .map(|(i, l)| LevelStats {
                level: i,
                nnz: l.nnz(),
                nonzero_rows: l.matrix.nonzero_row_count(),
                active_n: l.active_n,
                active_fraction: if d.n() > 0 {
                    l.active_n as f64 / d.n() as f64
                } else {
                    1.0
                },
                nonzero_tiles: l.to_arrow(d.b()).map(|a| a.nonzero_tiles()).unwrap_or(0),
            })
            .collect();
        let compaction_factor = levels
            .windows(2)
            .map(|w| {
                if w[1].nnz == 0 {
                    f64::INFINITY
                } else {
                    w[0].nnz as f64 / w[1].nnz as f64
                }
            })
            .fold(f64::INFINITY, f64::min);
        let second_level_row_fraction = if levels.len() >= 2 && d.n() > 0 {
            levels[1].nonzero_rows as f64 / d.n() as f64
        } else {
            0.0
        };
        Self {
            b: d.b(),
            order: levels.len(),
            levels,
            compaction_factor,
            second_level_row_fraction,
            active_prefix_fraction: d.active_prefix_fraction(),
        }
    }

    /// `true` if the decomposition is `x`-compacting (Lemma 1): every
    /// level's nnz is at most `1/x` of its predecessor's.
    pub fn is_x_compacting(&self, x: f64) -> bool {
        self.compaction_factor >= x
    }

    /// Total nonzero tiles across all levels — the arrow side of the §7.2
    /// block-count comparison.
    pub fn total_nonzero_tiles(&self) -> usize {
        self.levels.iter().map(|l| l.nonzero_tiles).sum()
    }
}

/// Number of nonzero `b × b` tiles of `a` under a direct tiling — the
/// 1.5D side of the §7.2 comparison ("15–20× fewer nonzero blocks at
/// b = 5·10⁶, over 100× fewer at b = 10⁶").
pub fn direct_tiling_nonzero_blocks(a: &CsrMatrix<f64>, b: u32) -> usize {
    assert!(b >= 1);
    let mut tiles: HashSet<(u32, u32)> = HashSet::new();
    for r in 0..a.rows() {
        let br = r / b;
        for &c in a.row_indices(r) {
            tiles.insert((br, c / b));
        }
    }
    tiles.len()
}

/// Per-block-row nonzero counts of the first matrix `B₀`, restricted to
/// the three tile families — the data behind Figure 1's heat strips.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureProfile {
    /// Tile size used.
    pub b: u32,
    /// `row_arm[j]` = nnz of `B(0,j)`.
    pub row_arm: Vec<usize>,
    /// `col_arm[i]` = nnz of `B(i,0)` (index 0 = block row 1).
    pub col_arm: Vec<usize>,
    /// `diagonal[i]` = nnz of `B(i,i)` (index 0 = block row 1).
    pub diagonal: Vec<usize>,
}

impl StructureProfile {
    /// Profiles the first level of a decomposition.
    pub fn of_first_level(d: &ArrowDecomposition) -> Option<Self> {
        let level = d.levels().first()?;
        let arrow = level.to_arrow(d.b()).ok()?;
        let nb = arrow.block_count();
        Some(Self {
            b: d.b(),
            row_arm: (0..nb).map(|j| arrow.row_tile(j).nnz()).collect(),
            col_arm: (1..nb).map(|i| arrow.col_tile(i).nnz()).collect(),
            diagonal: (1..nb).map(|i| arrow.diag_tile(i).nnz()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::la_decompose::{la_decompose, DecomposeConfig};
    use crate::strategy::RandomForestLa;
    use amd_graph::generators::{basic, datasets};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn genbank_decomposition() -> (CsrMatrix<f64>, ArrowDecomposition) {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = datasets::genbank_like(3000, &mut rng);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(128),
            &mut RandomForestLa::new(2),
        )
        .unwrap();
        (a, d)
    }

    #[test]
    fn stats_shape() {
        let (a, d) = genbank_decomposition();
        let s = DecompositionStats::of(&d);
        assert_eq!(s.order, d.order());
        assert_eq!(s.levels.iter().map(|l| l.nnz).sum::<usize>(), a.nnz());
        assert!(s.compaction_factor > 1.0, "factor {}", s.compaction_factor);
        assert!(s.is_x_compacting(1.5));
        assert!(s.second_level_row_fraction < 0.5);
        assert_eq!(s.active_prefix_fraction, d.active_prefix_fraction());
        for l in &s.levels {
            assert_eq!(l.active_fraction, l.active_n as f64 / d.n() as f64);
        }
        // Later levels of a compacting decomposition have shrinking
        // active prefixes.
        assert!(s.levels.last().unwrap().active_fraction < s.levels[0].active_fraction);
    }

    #[test]
    fn arrow_uses_fewer_blocks_than_direct_tiling() {
        // §7.2: the arrow decomposition needs far fewer nonzero blocks
        // than tiling A directly — because a direct tiling of a hub row
        // touches every block column.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = datasets::mawi_like(4000, &mut rng);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let b = 64u32;
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(9),
        )
        .unwrap();
        let s = DecompositionStats::of(&d);
        let direct = direct_tiling_nonzero_blocks(&a, b);
        let arrow = s.total_nonzero_tiles();
        assert!(
            arrow * 3 < direct,
            "arrow {arrow} blocks not ≪ direct {direct}"
        );
    }

    #[test]
    fn direct_tiling_counts_blocks() {
        let a: CsrMatrix<f64> = basic::star(9).to_adjacency();
        // Star in natural order, b=3: row 0 hits all 3 block columns; each
        // other block row hits block col 0 → tiles (0,0),(0,1),(0,2),(1,0),(2,0).
        assert_eq!(direct_tiling_nonzero_blocks(&a, 3), 5);
        // b = n: single block.
        assert_eq!(direct_tiling_nonzero_blocks(&a, 9), 1);
    }

    #[test]
    fn structure_profile_covers_all_nnz() {
        let (_, d) = genbank_decomposition();
        let p = StructureProfile::of_first_level(&d).unwrap();
        let total: usize = p.row_arm.iter().sum::<usize>()
            + p.col_arm.iter().sum::<usize>()
            + p.diagonal.iter().sum::<usize>();
        assert_eq!(total, d.levels()[0].nnz());
        assert_eq!(p.row_arm.len(), p.col_arm.len() + 1);
    }

    #[test]
    fn single_level_stats_edge_cases() {
        let a: CsrMatrix<f64> = basic::star(20).to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(4),
            &mut RandomForestLa::new(1),
        )
        .unwrap();
        let s = DecompositionStats::of(&d);
        assert_eq!(s.order, 1);
        assert_eq!(s.compaction_factor, f64::INFINITY);
        assert_eq!(s.second_level_row_fraction, 0.0);
        assert!(s.is_x_compacting(1e9));
    }
}
