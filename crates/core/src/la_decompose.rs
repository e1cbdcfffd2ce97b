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
//! The structure edges `{u, v}`, `u < v`, are listed once, sorted, and
//! the peel is a `retain` on that list, so the survivors stay sorted: a
//! level costs one pass over them for the degrees, one partial selection
//! for `V_h` ([`top_degree_vertices`]: `(degree descending, id
//! ascending)`, a total order), one filtered copy — the sorted edge list
//! of the graph between unpruned vertices, handed to
//! [`ArrangementStrategy::arrange_edges`] as it is, with no graph built
//! from it — and one pass for the peel. The peel tests the arrow pattern
//! on the level's *block map* (`position / b` of every active vertex,
//! written block by block, so nothing is divided): an edge is captured
//! when its ends share a block or either lies in block 0, the arm.
//!
//! Nothing records which level took which edge. An off-diagonal entry
//! `(r, c)` belongs to the first level whose block map captures
//! `{r, c}` — the peel's own predicate, asked again — and a diagonal
//! entry to level 0, so an entry's level is a function of `(r, c)` and
//! the arrangements alone. Row `p` of level `ℓ` is fed by the single row
//! `vertex_at_ℓ(p)` of `A`, its column positions are distinct, and from
//! level 1 on only the rows of the active prefix can hold anything.
//! Each level matrix is therefore written in its own row order, cut into
//! blocks of positions: every block counts its rows, one prefix sum
//! turns the counts into `indptr`, and every block fills the one
//! contiguous slice of `indices` / `values` its rows own, each row sorted
//! by column position. The blocks share nothing they write, so they run
//! on the `amd-exec` pool ([`for_each_part`]; a pass over fewer than
//! `POOL_MIN_ENTRIES` entries stays on the caller), and the arrays are
//! the same for any block count — they depend on `A`, on the
//! arrangements, and through those on the strategy (for the default, its
//! seed) and the tie-break above.
//!
//! [`DecomposeTimings`] says where a call's time went.

use crate::decomposition::{ArrowDecomposition, ArrowLevel};
use crate::strategy::ArrangementStrategy;
use amd_graph::degree::top_degree_vertices;
use amd_graph::graph::structure_edges;
use amd_obs::Stopwatch;
use amd_sparse::spmm::{for_each_part, part_count};
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

/// Where one LA-Decompose call spent its wall-clock time, in seconds:
/// one [`amd_obs::Stopwatch`] read at the end of every phase, three
/// phases per level. The five fields add up to the call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecomposeTimings {
    /// Listing the structure edges of `A`.
    pub edges: f64,
    /// Per level: the degrees of the surviving edges, the pruning set
    /// `V_h` and the edge list between unpruned vertices.
    pub select: f64,
    /// Per level: the arrangement strategy's call — for the default
    /// strategy the shuffle, Kruskal, the orientation and the
    /// smallest-first layout of the random spanning forest.
    pub forest: f64,
    /// Per level: assembling `πᵢ` around the strategy's arrangement, its
    /// block map, and the peel.
    pub layout: f64,
    /// Every entry's level and the CSR arrays of all level matrices.
    pub place: f64,
}

/// One stopwatch read per lap: the seconds since the previous one.
struct Laps {
    clock: Stopwatch,
    last: f64,
}

impl Laps {
    fn lap(&mut self) -> f64 {
        let now = self.clock.elapsed_seconds();
        now - std::mem::replace(&mut self.last, now)
    }
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
    la_decompose_timed(a, cfg, strategy).map(|(d, _)| d)
}

/// [`la_decompose`], also reporting where the time went.
pub fn la_decompose_timed(
    a: &CsrMatrix<f64>,
    cfg: &DecomposeConfig,
    strategy: &mut dyn ArrangementStrategy,
) -> SparseResult<(ArrowDecomposition, DecomposeTimings)> {
    if a.rows() != a.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (a.cols(), a.rows()),
        });
    }
    let n = a.rows();
    let b = cfg.arrow_width.max(1);
    let mut timings = DecomposeTimings::default();
    let mut laps = Laps {
        clock: Stopwatch::start(),
        last: 0.0,
    };

    let mut alive = structure_edges(a);
    timings.edges = laps.lap();

    let mut perms: Vec<Permutation> = Vec::new();
    let mut active_ns: Vec<u32> = Vec::new();
    let mut blocks: Vec<Vec<u32>> = Vec::new();
    let mut degree = vec![0u32; n as usize];
    let mut is_pruned = vec![false; n as usize];

    while !alive.is_empty() {
        if perms.len() as u32 >= cfg.max_levels {
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
        for &(u, v) in &alive {
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
        // pruned vertices are isolated in it). The survivors are sorted,
        // so what is kept of them is that graph's sorted edge list.
        let kept: Vec<(u32, u32)> = alive
            .iter()
            .copied()
            .filter(|&(u, v)| !is_pruned[u as usize] && !is_pruned[v as usize])
            .collect();
        timings.select += laps.lap();
        let sub_pi = strategy.arrange_edges(n, kept);
        timings.forest += laps.lap();

        // Assemble πᵢ: pruned hubs first, then non-isolated vertices of Gᵢ
        // in sub-arrangement order, then everything else (isolated at this
        // level) — keeping isolated vertices last gives the dense active
        // prefix.
        let mut order: Vec<u32> = Vec::with_capacity(n as usize);
        order.extend_from_slice(&pruned);
        let mut isolated: Vec<u32> = Vec::new();
        for &v in sub_pi.order() {
            if is_pruned[v as usize] {
                // Already placed; the mark is cleared for the next level.
                is_pruned[v as usize] = false;
            } else if degree[v as usize] > 0 {
                order.push(v);
            } else {
                isolated.push(v);
            }
        }
        let active_n = order.len();
        order.extend_from_slice(&isolated);
        let pi = Permutation::from_order(order)
            .expect("LA-Decompose order covers every vertex exactly once");

        // Step 3: peel the arrow-shaped edges.
        let block = block_map(&pi, active_n, b);
        let survivors = alive.len();
        alive.retain(|&(u, v)| !captured(&block, u, v));
        debug_assert!(
            alive.len() < survivors,
            "a level must capture at least one edge"
        );
        perms.push(pi);
        active_ns.push(active_n as u32);
        blocks.push(block);
        timings.layout += laps.lap();
    }

    // Ensure at least one level when the matrix has diagonal entries only.
    if perms.is_empty() && a.nnz() > 0 {
        perms.push(Permutation::identity(n));
        active_ns.push(n);
    }

    let levels = place(a, perms, active_ns, &blocks, |entries| {
        part_count(entries, POOL_MIN_ENTRIES)
    });
    timings.place = laps.lap();
    Ok((ArrowDecomposition::new(n, b, levels), timings))
}

/// The block number `position / b` of every vertex in the active prefix
/// of `pi` (0 elsewhere: both endpoints of a surviving edge are active,
/// so the rest is never asked for).
fn block_map(pi: &Permutation, active_n: usize, b: u32) -> Vec<u32> {
    let mut block = vec![0u32; pi.len() as usize];
    for (i, chunk) in pi.order()[..active_n].chunks(b as usize).enumerate() {
        for &v in chunk {
            block[v as usize] = i as u32;
        }
    }
    block
}

/// The arrow pattern on block numbers: same block, or either end in the
/// arm — `min(p, q) < b || p / b == q / b` on the positions themselves.
#[inline]
fn captured(block: &[u32], u: u32, v: u32) -> bool {
    let (p, q) = (block[u as usize], block[v as usize]);
    p == q || p == 0 || q == 0
}

/// The level matrices, from `A` and the arrangements alone. `parts` says
/// how many blocks to cut a pass over so many entries into; whatever it
/// answers, the arrays come out the same.
fn place(
    a: &CsrMatrix<f64>,
    perms: Vec<Permutation>,
    active_ns: Vec<u32>,
    blocks: &[Vec<u32>],
    parts: impl Fn(usize) -> usize,
) -> Vec<ArrowLevel> {
    let n = a.rows() as usize;
    let depth = perms.len();
    let (entry_level, row_counts) = entry_levels(a, blocks, depth, parts(a.nnz()));
    let mut levels: Vec<ArrowLevel> = Vec::with_capacity(depth);
    for (level, (perm, mut active_n)) in perms.into_iter().zip(active_ns).enumerate() {
        // Only level 0 holds entries (diagonal ones) outside its active
        // prefix; the prefix is extended to cover them.
        let rows = if level == 0 { n } else { active_n as usize };
        let scanned = a.nnz() * rows / n.max(1);
        let level_counts = |v: u32| row_counts[v as usize * depth + level];
        let matrix = place_level(
            a,
            &entry_level,
            level_counts,
            level as u32,
            &perm,
            rows,
            parts(scanned),
        );
        if level == 0 {
            let filled = matrix.indptr().partition_point(|&at| at < matrix.nnz());
            active_n = active_n.max(filled as u32);
        }
        levels.push(ArrowLevel {
            perm,
            matrix,
            active_n,
        });
    }
    levels
}

/// Entries of `A` scanned below which a placement pass stays
/// on the calling thread ([`part_count`]'s floor). A scanned entry costs
/// 5–15 ns and handing blocks to the pool and joining 6–15 µs (see
/// `amd_sparse::spmm::PARALLEL_MIN_WORK`), so below some ten thousand
/// entries the pool cannot win.
const POOL_MIN_ENTRIES: usize = 1 << 14;

/// Cuts `data` into consecutive pieces of the given lengths.
fn cut<T>(mut data: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (piece, rest) = std::mem::take(&mut data).split_at_mut(len);
        data = rest;
        piece
    })
    .collect()
}

/// The level of every stored entry of `A`, in storage order — 0 for a
/// diagonal entry (it satisfies the block-diagonal pattern of any
/// arrangement), else the first level whose arrangement captures it —
/// and, for every row `r` of `A` and each of the `depth` levels, how many
/// of the row's entries that level takes (at `r * depth + level`).
fn entry_levels(
    a: &CsrMatrix<f64>,
    blocks: &[Vec<u32>],
    depth: usize,
    parts: usize,
) -> (Vec<u32>, Vec<u32>) {
    let (indptr, indices) = (a.indptr(), a.indices());
    let n = a.rows() as usize;
    let mut levels = vec![0u32; a.nnz()];
    let mut counts = vec![0u32; n * depth];
    // Without an edge every entry is a diagonal one (and without an
    // entry there is no level to count for).
    let Some((first_block, deeper)) = blocks.split_first() else {
        for (r, counts) in counts.chunks_mut(depth.max(1)).enumerate() {
            counts[0] = a.row_nnz(r as u32) as u32;
        }
        return (levels, counts);
    };
    // Runs of whole rows holding about as many entries each.
    let mut cuts: Vec<usize> = (0..parts)
        .map(|i| indptr.partition_point(|&start| start < i * a.nnz() / parts))
        .collect();
    cuts.push(n);
    cuts.dedup();
    let run_levels = cut(
        &mut levels,
        cuts.windows(2).map(|w| indptr[w[1]] - indptr[w[0]]),
    );
    let run_counts = cut(&mut counts, cuts.windows(2).map(|w| (w[1] - w[0]) * depth));
    let runs: Vec<_> = cuts.iter().zip(run_levels).zip(run_counts).collect();
    for_each_part(runs, |_, ((&first_row, levels), counts)| {
        let first_entry = indptr[first_row];
        for (r, counts) in (first_row..).zip(counts.chunks_mut(depth)) {
            let row = indptr[r]..indptr[r + 1];
            counts[0] = row.len() as u32;
            // A row in the arm of level 0 keeps all its entries there.
            let p = first_block[r];
            if p == 0 {
                continue;
            }
            for e in row {
                let c = indices[e];
                let q = first_block[c as usize];
                if q != p && q != 0 && c as usize != r {
                    let level = 1 + deeper
                        .iter()
                        .position(|block| captured(block, r as u32, c))
                        .expect("the peel ended, so some level captured every edge");
                    levels[e - first_entry] = level as u32;
                    counts[level] += 1;
                    counts[0] -= 1;
                }
            }
        }
    });
    (levels, counts)
}

/// Keys in a row from which [`sort_keys`] sorts by radix. Measured on
/// `rmat13` (110 746 entries, 57 % of them in rows longer than this):
/// filling level 0 takes 1.41 ms with `sort_unstable` on every row and
/// 1.19–1.23 ms with the radix passes from 64, 96 or 128 keys on (1.27
/// from 256); a grid's rows of four never get here.
const RADIX_MIN_KEYS: usize = 128;

/// Sorts `(column position, index in the row)` keys, the position in the
/// high half: `sort_unstable` for a short row, else least-significant-
/// digit radix passes over the position's `digits` bytes (stable, and
/// positions in a row are distinct, so both give the one ascending
/// order). `scratch` is the passes' other buffer.
fn sort_keys(keys: &mut Vec<u64>, scratch: &mut Vec<u64>, digits: u32) {
    if keys.len() < RADIX_MIN_KEYS {
        keys.sort_unstable();
        return;
    }
    scratch.clear();
    scratch.resize(keys.len(), 0);
    for digit in 0..digits {
        let byte = |key: u64| (key >> (32 + 8 * digit)) as usize & 0xff;
        let mut starts = [0usize; 256];
        for &key in keys.iter() {
            starts[byte(key)] += 1;
        }
        let mut at = 0;
        for start in &mut starts {
            at += std::mem::replace(start, at);
        }
        for &key in keys.iter() {
            scratch[starts[byte(key)]] = key;
            starts[byte(key)] += 1;
        }
        std::mem::swap(keys, scratch);
    }
}

/// The matrix of one level: row `p < rows` holds the entries of row
/// `vertex_at(p)` of `A` that belong to `level` — `level_count` of that
/// vertex many — at their columns' positions, ascending; the rows from
/// `rows` on are empty.
fn place_level(
    a: &CsrMatrix<f64>,
    entry_level: &[u32],
    level_count: impl Fn(u32) -> u32,
    level: u32,
    perm: &Permutation,
    rows: usize,
    blocks: usize,
) -> CsrMatrix<f64> {
    let n = a.rows() as usize;
    let (order, position) = (perm.order(), perm.positions());
    let (a_indptr, a_indices, a_values) = (a.indptr(), a.indices(), a.values());
    let row_of = |p: usize| {
        let v = order[p] as usize;
        a_indptr[v]..a_indptr[v + 1]
    };
    let block_len = rows.div_ceil(blocks).max(1);

    let mut indptr = vec![0usize; n + 1];
    for p in 0..rows {
        indptr[p + 1] = indptr[p] + level_count(order[p]) as usize;
    }
    let nnz = indptr[rows];
    indptr[rows..].fill(nnz);

    // Fill: every block writes the one slice of the arrays its rows own.
    let mut indices = vec![0u32; nnz];
    let mut values = vec![0f64; nnz];
    let block_nnz = || {
        (0..rows)
            .step_by(block_len)
            .map(|start| indptr[(start + block_len).min(rows)] - indptr[start])
    };
    let pieces: Vec<_> = cut(&mut indices, block_nnz())
        .into_iter()
        .zip(cut(&mut values, block_nnz()))
        .collect();
    for_each_part(pieces, |block, (indices, values)| {
        let start = block * block_len;
        // (column position, index within the row of `A`), one sort key.
        let mut keys: Vec<u64> = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        let digits = (u64::BITS - (rows as u64).leading_zeros()).div_ceil(8);
        let mut at = 0usize;
        for p in start..(start + block_len).min(rows) {
            let (row, taken) = (row_of(p), indptr[p + 1] - indptr[p]);
            let key =
                |e: usize| (position[a_indices[e] as usize] as u64) << 32 | (e - row.start) as u64;
            keys.clear();
            // A row the level takes whole, or nothing of, is not looked
            // up in `entry_level`.
            if taken == row.len() {
                keys.extend(row.clone().map(key));
            } else if taken > 0 {
                keys.extend(row.clone().filter(|&e| entry_level[e] == level).map(key));
            }
            sort_keys(&mut keys, &mut scratch, digits);
            for &key in &keys {
                indices[at] = (key >> 32) as u32;
                values[at] = a_values[row.start + (key as u32) as usize];
                at += 1;
            }
        }
    });
    CsrMatrix::from_raw_unchecked(n as u32, n as u32, indptr, indices, values)
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
    fn placement_does_not_depend_on_the_block_count() {
        // An R-MAT graph (hub rows past the radix threshold, empty rows)
        // with a diagonal on every third vertex: the levels placed in
        // 2, 3, 7 and more blocks than there are rows — through the pool
        // when it has more than one thread — are the arrays one block
        // gives.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = amd_graph::generators::rmat::rmat(
            11,
            8,
            amd_graph::generators::rmat::RmatParams::graph500(),
            &mut rng,
        );
        let mut coo = g.to_adjacency::<f64>().to_coo();
        for v in (0..g.n()).step_by(3) {
            coo.push(v, v, v as f64).unwrap();
        }
        let a = coo.to_csr();
        assert!(
            (0..a.rows()).any(|r| a.row_nnz(r) >= RADIX_MIN_KEYS),
            "no row long enough for the radix passes"
        );
        let b = 64;
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(3),
        )
        .unwrap();
        check_decomposition(&a, &d);
        assert!(d.order() >= 2);
        let perms: Vec<Permutation> = d.levels().iter().map(|l| l.perm.clone()).collect();
        let active_ns: Vec<u32> = d.levels().iter().map(|l| l.active_n).collect();
        let blocks: Vec<Vec<u32>> = d
            .levels()
            .iter()
            .map(|l| block_map(&l.perm, l.active_n as usize, b))
            .collect();
        for parts in [1, 2, 3, 7, 5000] {
            let levels = place(&a, perms.clone(), active_ns.clone(), &blocks, |_| parts);
            assert_eq!(levels, d.levels(), "{parts} blocks");
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
