//! LA-Decompose (§5.1): building an arrow matrix decomposition from linear
//! arrangements.
//!
//! Given a square matrix `A` and a target arrow width `b`, repeat until no
//! entries remain:
//!
//! 1. place the `b` highest-degree vertices `V_h` of the remaining graph
//!    at the beginning of the arrangement `πᵢ` (§5.6 pruning),
//! 2. arrange the induced subgraph `Gᵢ[Vᵢ \ V_h]` with the chosen
//!    [`ArrangementStrategy`] and append,
//! 3. set `Bᵢ` to the entries of `Pᵀ_πᵢ Aᵢ P_πᵢ` that fall in the arrow
//!    pattern (first `b` rows/columns + block-diagonal `b × b` band),
//! 4. recurse on the remainder `Aᵢ₊₁ = Aᵢ − P_πᵢ Bᵢ Pᵀ_πᵢ`.
//!
//! As the paper observes, the matrices `Aᵢ` are never materialised: the
//! algorithm works on edge lists, and levels only record which entries
//! they own. Vertices isolated at a level are ordered last, so each level
//! has a dense "active" prefix and later levels need fewer ranks.
//!
//! # Layout and determinism
//!
//! The structure edges `{u, v}`, `u < v`, are listed once, sorted; an
//! edge's index in that list is its id, and `edge_start[u]` (a `usize`
//! prefix sum, like a CSR `indptr`) is where the edges with smaller
//! endpoint `u` begin. The peel keeps the ids of the surviving edges and
//! writes `level_of_edge[id]` when a level captures one. A level costs
//! one pass over the survivors for the degrees, one partial selection
//! for `V_h` ([`top_degree_vertices`]: `(degree descending, id
//! ascending)`, a total order), one [`Graph`] of the survivors between
//! unpruned vertices for the strategy, and one pass for the peel.
//!
//! The level matrices are then written straight into CSR arrays: a pass
//! over `A` finds every entry's level (its edge id by a forward walk
//! from `edge_start[u]`, see the count pass) and counts it into that
//! level's `indptr` at its row's position; a second pass drops each row's
//! entries, sorted by `(level, column position)`, where the prefix sums
//! say. A level's row is filled from exactly one row of `A` and its
//! column positions are distinct, so the arrays are a function of `A`
//! and the arrangements alone — and those depend only on the strategy
//! (for the default, its seed) and the tie-breaks above.

use crate::decomposition::{ArrowDecomposition, ArrowLevel};
use crate::strategy::ArrangementStrategy;
use amd_graph::degree::top_degree_vertices;
use amd_graph::graph::structure_edges;
use amd_graph::Graph;
use amd_sparse::{CsrMatrix, Permutation, SparseError, SparseResult};

/// Parameters of LA-Decompose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecomposeConfig {
    /// Target arrow width `b` (tile size of the distributed algorithm).
    pub arrow_width: u32,
    /// Prune the `b` highest-degree vertices into the arm before arranging
    /// (§5.6). Disabling this is the E8 ablation.
    pub prune: bool,
    /// Safety cap on the number of levels; exceeded only by adversarial
    /// arrangements (an error is returned rather than looping forever).
    pub max_levels: u32,
}

impl Default for DecomposeConfig {
    fn default() -> Self {
        Self {
            arrow_width: 64,
            prune: true,
            max_levels: 64,
        }
    }
}

impl DecomposeConfig {
    /// Convenience constructor fixing only the arrow width.
    pub fn with_width(arrow_width: u32) -> Self {
        Self {
            arrow_width,
            ..Default::default()
        }
    }
}

/// Decomposes a snapshot with the default random-forest arrangement.
///
/// This is the self-contained entry point background workers use: unlike
/// [`la_decompose`], it does not borrow a caller-held
/// [`ArrangementStrategy`], so a thread that owns only the matrix
/// snapshot, the config, and a seed can produce the decomposition —
/// deterministically equal to what the synchronous path builds with
/// [`RandomForestLa::new(seed)`](crate::strategy::RandomForestLa).
pub fn decompose_snapshot(
    a: &CsrMatrix<f64>,
    cfg: &DecomposeConfig,
    seed: u64,
) -> SparseResult<ArrowDecomposition> {
    la_decompose(a, cfg, &mut crate::strategy::RandomForestLa::new(seed))
}

/// Runs LA-Decompose on a square matrix.
///
/// The sparsity structure is symmetrised for the graph view (an entry at
/// `(i, j)` or `(j, i)` creates the edge `{i, j}`); values are carried
/// per direction, so non-symmetric matrices decompose correctly too.
pub fn la_decompose(
    a: &CsrMatrix<f64>,
    cfg: &DecomposeConfig,
    strategy: &mut dyn ArrangementStrategy,
) -> SparseResult<ArrowDecomposition> {
    if a.rows() != a.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (a.cols(), a.rows()),
        });
    }
    let n = a.rows();
    let b = cfg.arrow_width.max(1);

    let edges = structure_edges(a);
    let mut edge_start = vec![0usize; n as usize + 1];
    for &(u, _) in &edges {
        edge_start[u as usize + 1] += 1;
    }
    for u in 0..n as usize {
        edge_start[u + 1] += edge_start[u];
    }
    let has_diagonal = (0..n).any(|r| a.row_indices(r).binary_search(&r).is_ok());

    // perms[i] and level_of_edge fill up as levels peel off edges.
    let mut perms: Vec<Permutation> = Vec::new();
    let mut active_ns: Vec<u32> = Vec::new();
    let mut level_of_edge = vec![u32::MAX; edges.len()];
    let mut alive: Vec<usize> = (0..edges.len()).collect();
    let mut degree = vec![0u32; n as usize];
    let mut is_pruned = vec![false; n as usize];

    while !alive.is_empty() {
        let level = perms.len() as u32;
        if level >= cfg.max_levels {
            // Report the per-level active-prefix sizes alongside the edge
            // count: an adversarial arrangement shows up as a stalled (or
            // growing) prefix sequence, which is the first thing needed to
            // diagnose why the peeling is not converging.
            return Err(SparseError::InvalidCsr(format!(
                "LA-Decompose did not converge within {} levels ({} edges left); \
                 the arrangement strategy is not reducing edge lengths \
                 (per-level active-prefix sizes: {:?})",
                cfg.max_levels,
                alive.len(),
                active_ns
            )));
        }
        degree.fill(0);
        for &id in &alive {
            let (u, v) = edges[id];
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }

        // Step 1: pruning set V_h (highest degree, at most b, degree ≥ 1).
        let pruned: Vec<u32> = if cfg.prune {
            top_degree_vertices(&degree, b as usize)
        } else {
            Vec::new()
        };
        for &v in &pruned {
            is_pruned[v as usize] = true;
        }

        // Step 2: arrange the pruned-out subgraph (same vertex set; the
        // pruned vertices are isolated in it).
        let kept: Vec<(u32, u32)> = alive
            .iter()
            .map(|&id| edges[id])
            .filter(|&(u, v)| !is_pruned[u as usize] && !is_pruned[v as usize])
            .collect();
        let sub_pi = strategy.arrange(&Graph::from_edges(n, &kept));

        // Assemble πᵢ: pruned hubs first, then non-isolated vertices of Gᵢ
        // in sub-arrangement order, then everything else (isolated at this
        // level) — keeping isolated vertices last gives the dense active
        // prefix.
        let mut order: Vec<u32> = Vec::with_capacity(n as usize);
        order.extend_from_slice(&pruned);
        let unpruned = |v: &&u32| !is_pruned[**v as usize];
        order.extend(
            sub_pi
                .order()
                .iter()
                .filter(unpruned)
                .filter(|&&v| degree[v as usize] > 0),
        );
        let active_n = order.len() as u32;
        order.extend(
            sub_pi
                .order()
                .iter()
                .filter(unpruned)
                .filter(|&&v| degree[v as usize] == 0),
        );
        let pi = Permutation::from_order(order)
            .expect("LA-Decompose order covers every vertex exactly once");

        // Step 3: peel the arrow-shaped edges.
        let survivors = alive.len();
        let position = pi.positions();
        alive.retain(|&id| {
            let (u, v) = edges[id];
            let (p, q) = (position[u as usize], position[v as usize]);
            let captured = p.min(q) < b || p / b == q / b;
            if captured {
                level_of_edge[id] = level;
            }
            !captured
        });
        debug_assert!(
            alive.len() < survivors,
            "a level must capture at least one edge"
        );
        for &v in &pruned {
            is_pruned[v as usize] = false;
        }
        perms.push(pi);
        active_ns.push(active_n);
    }

    // Ensure at least one level when the matrix has diagonal entries only.
    if perms.is_empty() && has_diagonal {
        perms.push(Permutation::identity(n));
        active_ns.push(n);
    }

    // Count pass: the level of every entry of `A` (diagonal entries always
    // satisfy the block-diagonal pattern and go to level 0), counted into
    // that level's indptr at the position of its row. An entry's edge is
    // found by walking, never searching: row `r`'s upper entries `(r, c)`
    // meet the edges of `r` in the same ascending order, and the lower
    // entries `(r, c)` of successive rows meet the edges of `c` in
    // ascending `r`, so one cursor per vertex only ever moves forward.
    let mut lower_cursor = edge_start[..n as usize].to_vec();
    let mut indptrs: Vec<Vec<usize>> = vec![vec![0usize; n as usize + 1]; perms.len()];
    let mut entry_levels: Vec<u32> = Vec::with_capacity(a.nnz());
    // One past the last level-0 position that holds a diagonal entry.
    let mut diagonal_end = 0u32;
    for r in 0..n {
        let mut upper_cursor = edge_start[r as usize];
        for &c in a.row_indices(r) {
            let lvl = if r == c {
                diagonal_end = diagonal_end.max(perms[0].position(r) + 1);
                0
            } else {
                let (cursor, other) = if r < c {
                    (&mut upper_cursor, c)
                } else {
                    (&mut lower_cursor[c as usize], r)
                };
                // Every off-diagonal entry is a structure edge, so the
                // walk stops inside the vertex's own edges.
                while edges[*cursor].1 != other {
                    *cursor += 1;
                }
                level_of_edge[*cursor]
            };
            indptrs[lvl as usize][perms[lvl as usize].position(r) as usize + 1] += 1;
            entry_levels.push(lvl);
        }
    }
    for indptr in &mut indptrs {
        for p in 0..n as usize {
            indptr[p + 1] += indptr[p];
        }
    }

    // Fill pass: a level's row is fed by one row of `A` only, so its
    // segment is written in one go, in column-position order.
    let mut columns: Vec<Vec<u32>> = indptrs.iter().map(|p| vec![0u32; p[n as usize]]).collect();
    let mut values: Vec<Vec<f64>> = indptrs.iter().map(|p| vec![0f64; p[n as usize]]).collect();
    let mut row: Vec<(u64, f64)> = Vec::new();
    let mut entry = 0usize;
    for r in 0..n {
        row.clear();
        for (&c, &v) in a.row_indices(r).iter().zip(a.row_values(r)) {
            let lvl = entry_levels[entry];
            entry += 1;
            // (level, column position) packed into one sort key.
            let q = perms[lvl as usize].position(c);
            row.push(((lvl as u64) << 32 | q as u64, v));
        }
        row.sort_unstable_by_key(|&(key, _)| key);
        let (mut current, mut at) = (u32::MAX, 0usize);
        for &(key, v) in &row {
            let lvl = (key >> 32) as u32;
            if lvl != current {
                current = lvl;
                at = indptrs[lvl as usize][perms[lvl as usize].position(r) as usize];
            }
            columns[lvl as usize][at] = key as u32;
            values[lvl as usize][at] = v;
            at += 1;
        }
    }
    // Diagonal entries belong inside the active prefix; extend level 0's
    // to cover them.
    if let Some(active_n) = active_ns.first_mut() {
        *active_n = (*active_n).max(diagonal_end);
    }

    let levels: Vec<ArrowLevel> = perms
        .into_iter()
        .zip(active_ns)
        .zip(indptrs)
        .zip(columns.into_iter().zip(values))
        .map(
            |(((perm, active_n), indptr), (indices, values))| ArrowLevel {
                perm,
                matrix: CsrMatrix::from_raw_unchecked(n, n, indptr, indices, values),
                active_n,
            },
        )
        .collect();
    Ok(ArrowDecomposition::new(n, b, levels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{IdentityLa, RandomForestLa, RcmLa, SeparatorLaStrategy};
    use amd_graph::generators::{basic, datasets, random};
    use amd_sparse::{band, CooMatrix, DenseMatrix};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_decomposition(a: &CsrMatrix<f64>, d: &ArrowDecomposition) {
        // Exact reconstruction.
        assert_eq!(d.validate(a).unwrap(), 0.0, "reconstruction mismatch");
        // Each entry in exactly one level.
        assert_eq!(d.nnz(), a.nnz(), "entries duplicated or lost");
        for (i, level) in d.levels().iter().enumerate() {
            // Arrow pattern within the active region: the tiled view must
            // accept every entry.
            let arrow = level
                .to_arrow(d.b())
                .unwrap_or_else(|e| panic!("level {i} violates the arrow pattern: {e}"));
            assert_eq!(arrow.nnz(), level.nnz());
            // Arrow width of the materialised matrix obeys the bound
            // (block diagonal ⇒ width < 2b, arms exempt).
            assert!(band::is_arrow_width(&level.matrix, 2 * d.b()));
            // No nonzeros beyond the active prefix.
            let tail = level.matrix.submatrix(level.active_n, d.n(), 0, d.n());
            assert_eq!(tail.nnz(), 0, "level {i} has entries beyond active_n");
            let tail_cols = level.matrix.submatrix(0, d.n(), level.active_n, d.n());
            assert_eq!(tail_cols.nnz(), 0, "level {i} has columns beyond active_n");
        }
    }

    #[test]
    fn star_decomposes_in_one_level() {
        // The star's hub is pruned into the arm; every edge is arm-incident.
        let a: CsrMatrix<f64> = basic::star(50).to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(4),
            &mut RandomForestLa::new(1),
        )
        .unwrap();
        assert_eq!(d.order(), 1);
        check_decomposition(&a, &d);
    }

    #[test]
    fn path_decomposes_with_identity_arrangement() {
        let a: CsrMatrix<f64> = basic::path(64).to_adjacency();
        let d = la_decompose(&a, &DecomposeConfig::with_width(8), &mut IdentityLa).unwrap();
        check_decomposition(&a, &d);
        // A path in natural order has all edges in the band or one block
        // apart; the decomposition stays shallow.
        assert!(d.order() <= 2, "order {}", d.order());
    }

    #[test]
    fn random_tree_all_strategies() {
        let g = random::random_tree(300, &mut ChaCha8Rng::seed_from_u64(5));
        let a: CsrMatrix<f64> = g.to_adjacency();
        let cfg = DecomposeConfig::with_width(16);
        let strategies: Vec<Box<dyn ArrangementStrategy>> = vec![
            Box::new(RandomForestLa::new(2)),
            Box::new(SeparatorLaStrategy),
            Box::new(RcmLa),
        ];
        for mut s in strategies {
            let d = la_decompose(&a, &cfg, s.as_mut()).unwrap();
            check_decomposition(&a, &d);
            assert!(d.order() <= 8, "{} produced order {}", s.name(), d.order());
        }
    }

    #[test]
    fn diagonal_and_values_preserved() {
        // Non-uniform values and a diagonal.
        let mut coo = CooMatrix::new(10, 10);
        for v in 0..10u32 {
            coo.push(v, v, v as f64 + 1.0).unwrap();
        }
        coo.push(0, 9, 2.5).unwrap();
        coo.push(9, 0, -2.5).unwrap(); // asymmetric values
        coo.push(3, 4, 7.0).unwrap(); // single-direction entry
        let a = coo.to_csr();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(3),
            &mut RandomForestLa::new(4),
        )
        .unwrap();
        check_decomposition(&a, &d);
    }

    #[test]
    fn diagonal_only_matrix() {
        let a = CsrMatrix::<f64>::identity(12);
        let d = la_decompose(&a, &DecomposeConfig::with_width(4), &mut IdentityLa).unwrap();
        assert_eq!(d.order(), 1);
        check_decomposition(&a, &d);
    }

    #[test]
    fn empty_matrix_gives_empty_decomposition() {
        let a = CsrMatrix::<f64>::zeros(5, 5);
        let d = la_decompose(&a, &DecomposeConfig::with_width(2), &mut IdentityLa).unwrap();
        assert_eq!(d.order(), 0);
        assert_eq!(d.reconstruct().unwrap().nnz(), 0);
        let x = DenseMatrix::from_fn(5, 2, |r, c| (r + c) as f64);
        assert_eq!(d.multiply(&x).unwrap().frobenius_norm(), 0.0);
    }

    #[test]
    fn max_levels_error_reports_active_prefix_sizes() {
        // A cycle under the identity arrangement needs more than one
        // level at width 4 (edges like (7, 8) cross blocks outside the
        // arm); capping max_levels at 1 must fail with a diagnosable
        // error naming the level sizes seen so far.
        let a: CsrMatrix<f64> = basic::cycle(64).to_adjacency();
        let err = la_decompose(
            &a,
            &DecomposeConfig {
                arrow_width: 4,
                prune: false,
                max_levels: 1,
            },
            &mut IdentityLa,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("active-prefix sizes"),
            "error must name the per-level active-prefix sizes: {msg}"
        );
        assert!(
            msg.contains("[64]"),
            "the one completed level (all 64 vertices active) must be listed: {msg}"
        );
    }

    #[test]
    fn rectangular_rejected() {
        let a = CsrMatrix::<f64>::zeros(3, 4);
        assert!(la_decompose(&a, &DecomposeConfig::default(), &mut IdentityLa).is_err());
    }

    #[test]
    fn pruning_reduces_order_on_power_law_graphs() {
        // §5.6: pruning the hubs must shrink the decomposition of skewed
        // graphs.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = datasets::mawi_like(3000, &mut rng);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let with = la_decompose(
            &a,
            &DecomposeConfig {
                arrow_width: 64,
                prune: true,
                max_levels: 64,
            },
            &mut RandomForestLa::new(7),
        )
        .unwrap();
        let without = la_decompose(
            &a,
            &DecomposeConfig {
                arrow_width: 64,
                prune: false,
                max_levels: 64,
            },
            &mut RandomForestLa::new(7),
        )
        .unwrap();
        check_decomposition(&a, &with);
        check_decomposition(&a, &without);
        assert!(
            with.order() <= without.order(),
            "pruning should not increase order: {} vs {}",
            with.order(),
            without.order()
        );
        // The first level must capture the giant star via the arm.
        assert!(
            with.levels()[0].nnz() * 10 > a.nnz() * 8,
            "arm missed the hub"
        );
    }

    #[test]
    fn compaction_is_geometric_on_datasets() {
        // Lemma 1: nnz per level decreases geometrically when b exceeds the
        // average edge length of the arrangement.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = datasets::genbank_like(4000, &mut rng);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(128),
            &mut RandomForestLa::new(5),
        )
        .unwrap();
        check_decomposition(&a, &d);
        assert!(d.order() <= 4, "order {} too deep", d.order());
        for w in d.levels().windows(2) {
            assert!(
                w[1].nnz() * 2 <= w[0].nnz(),
                "levels not compacting: {} -> {}",
                w[0].nnz(),
                w[1].nnz()
            );
        }
    }
}
