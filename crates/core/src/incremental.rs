//! Delta-localized incremental re-decomposition.
//!
//! A refresh of a streamed matrix `M = A₀ + ΔA` normally re-runs
//! LA-Decompose from scratch, even when `ΔA` touches a few dozen
//! vertices of a huge matrix. This module exploits the observation the
//! paper makes about LA-Decompose itself (§5.1): the algorithm works on
//! edge lists and levels only record which entries they own, so the
//! arrangement of *untouched* components is still valid. The
//! incremental path:
//!
//! 1. **Affected region.** Starting from the vertices the delta touches,
//!    grow the region through each prior level's weakly-connected
//!    components: every vertex whose level assignment can interact with
//!    the change joins. A
//!    level's pruned hubs (arm rows, positions `< b`) act as barriers —
//!    an arm row absorbs its incident edges whatever the rest of the
//!    arrangement does, so connectivity *through* a hub does not
//!    constrain the re-arranged band.
//! 2. **Localized LA-Decompose.** Re-run LA-Decompose only on the
//!    subgraph induced by the region (compacted to `|R|` vertices, so
//!    the cost scales with the region, not the matrix).
//! 3. **Splice.** Strip from the prior levels every entry with both
//!    endpoints in the region, lift the freshly decomposed levels back
//!    to `n` vertices, and append them. The result is a *valid* arrow
//!    decomposition of `M` — it may differ structurally from a cold
//!    rebuild, but `Σᵢ P_πᵢ Bᵢ Pᵀ_πᵢ = M` holds exactly (entry values
//!    are moved, never recomputed), so multiplies bit-match a cold
//!    decompose-and-multiply for exactly representable data.
//!
//! Why splicing is sound for any region `R` containing the touched
//! vertices: the delta lives entirely inside `R × R`, so entries with at
//! least one endpoint outside `R` are identical in `A₀` and `M`; those
//! stay in their old levels (removing entries never violates the arrow
//! pattern or the active prefix). Entries with both endpoints in `R`
//! are exactly the rows/columns of the induced subgraph `M[R]`, which
//! the localized decomposition covers once each. The region expansion
//! of step 1 is therefore a *quality* heuristic (it lets edges near the
//! change be re-arranged together), not a correctness requirement.
//!
//! The incremental path trades decomposition **depth** for refresh
//! **latency** — each splice appends the localized levels. The
//! [`IncrementalPolicy`] bounds both: a region above
//! `max_affected_fraction` or a spliced order above `max_order` falls
//! back to a cold [`decompose_snapshot`], reported in the
//! [`RefreshOutcome`] so serving layers can count incremental vs
//! fallback refreshes and the reused-vertex fraction. So does a splice
//! the ranks could not route ([`FallbackReason::Unroutable`]): every
//! decomposition this module returns keeps the chained-levels property
//! `ArrowSpmm` distributes by.

use crate::decomposition::{ArrowDecomposition, ArrowLevel};
use crate::la_decompose::{decompose_snapshot, la_decompose, DecomposeConfig};
use crate::strategy::RandomForestLa;
use amd_obs::Stopwatch;
use amd_sparse::{CsrBuilder, CsrMatrix, Permutation, SparseError, SparseResult};

/// When to attempt — and when to abandon — the delta-localized path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalPolicy {
    /// Attempt the incremental path at all (`false` forces cold
    /// rebuilds, the ablation/debug switch).
    pub enabled: bool,
    /// Fall back to a cold decompose once the affected region exceeds
    /// this fraction of the vertices — past it, re-arranging the region
    /// costs about as much as a rebuild and the splice only adds depth.
    pub max_affected_fraction: f64,
    /// Fall back once the spliced decomposition would exceed this many
    /// levels. Splices accumulate depth across refreshes; this is the
    /// re-compaction trigger (a cold rebuild resets the order).
    pub max_order: u32,
}

impl Default for IncrementalPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            max_affected_fraction: 0.25,
            max_order: 64,
        }
    }
}

impl IncrementalPolicy {
    /// A policy that never attempts the incremental path.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Why an incremental attempt fell back to a cold decompose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The policy disables the incremental path.
    Disabled,
    /// No prior decomposition was supplied (first build, cache
    /// eviction, restart).
    NoPrior,
    /// The caller could not say which vertices the delta touches.
    NoTouched,
    /// The prior decomposes a matrix of a different dimension.
    ShapeMismatch,
    /// The prior was built at a different arrow width.
    WidthMismatch,
    /// The affected region exceeded
    /// [`IncrementalPolicy::max_affected_fraction`].
    RegionTooLarge,
    /// The spliced order would exceed [`IncrementalPolicy::max_order`].
    OrderTooDeep,
    /// LA-Decompose failed on the induced subgraph (e.g. its own
    /// `max_levels` cap); the cold path gets to try the full matrix.
    SubDecompose,
    /// The splice would hold a vertex that is active at some level but
    /// at no earlier one — the delta attached a vertex that was isolated
    /// in every matrix the chain has decomposed, or the splice dropped
    /// the level the rest drew from. The distributed algorithm chains
    /// the levels (§6.1): such a vertex has nowhere to draw its `X`
    /// from, so the ranks could not route the result.
    Unroutable,
}

/// Wall-clock breakdown of one refresh decomposition, measured inside
/// [`decompose_snapshot_incremental`] with a single
/// [`amd_obs::Stopwatch`] per phase. Serving layers fold these into
/// their `refresh.*.seconds` histograms; the kernel itself keeps no
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Seconds spent computing the affected region and extracting the
    /// induced subgraph (0 on the cold path — there is no region).
    pub extract_seconds: f64,
    /// Seconds spent decomposing: the localized LA-Decompose on the
    /// incremental path, the full one on the cold path.
    pub decompose_seconds: f64,
    /// Seconds spent stripping the prior and lifting the localized
    /// levels back to `n` vertices (0 on the cold path).
    pub splice_seconds: f64,
}

/// What a refresh decomposition actually did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshOutcome {
    /// `true` when the result was spliced from the prior decomposition.
    pub incremental: bool,
    /// Why the incremental path was not taken (`None` when it was).
    pub fallback: Option<FallbackReason>,
    /// Vertices in the affected region (0 when it was never computed).
    pub affected_vertices: u32,
    /// Matrix dimension `n`.
    pub total_vertices: u32,
    /// Order of the produced decomposition.
    pub order: u32,
    /// Where the wall-clock time of this refresh went.
    pub timings: PhaseTimings,
}

impl RefreshOutcome {
    /// Fraction of vertices whose arrangement survived the refresh
    /// untouched (0 for a cold rebuild).
    pub fn reused_fraction(&self) -> f64 {
        if !self.incremental || self.total_vertices == 0 {
            return 0.0;
        }
        (self.total_vertices - self.affected_vertices) as f64 / self.total_vertices as f64
    }
}

/// The affected region of a delta: the touched vertices plus everything
/// whose level assignment can interact with the change.
///
/// For each prior level (independently — level graphs are
/// edge-disjoint, so growth does not cascade across levels) the touched
/// vertices *owning entries in that level* are expanded through the
/// weakly-connected components of the level's edges; a touched vertex
/// with no entry in a level has no assignment there to protect (it was
/// ordered behind the active prefix) and seeds nothing. The level's arm
/// vertices (positions `< b` under its arrangement) act as barriers:
/// they join the region when adjacent to it but do not propagate it —
/// an arm row absorbs its incident edges whatever the rest of the
/// arrangement does, so connectivity *through* a hub does not constrain
/// the re-arranged band. The region is the union over levels (plus the
/// touched set itself). Returns a membership mask of length `n`.
pub fn affected_region(prior: &ArrowDecomposition, touched: &[u32]) -> SparseResult<Vec<bool>> {
    let n = prior.n();
    let mut region = vec![false; n as usize];
    for &v in touched {
        if v >= n {
            return Err(SparseError::IndexOutOfBounds {
                row: v,
                col: v,
                rows: n,
                cols: n,
            });
        }
        region[v as usize] = true;
    }
    if touched.is_empty() {
        return Ok(region);
    }
    // The search runs on each level's matrix as it is stored, in position
    // coordinates: a position's neighbours are the columns of its row plus
    // the rows of its column (a level may hold `(u, v)` without `(v, u)`),
    // the latter from a transposed index built by counting placement.
    // Nothing is sorted and no graph is built; a level none of the touched
    // vertices has an entry in costs its counting pass and nothing more.
    let b = prior.b();
    let mut col_start = vec![0usize; n as usize + 1];
    let mut col_rows: Vec<u32> = Vec::new();
    let mut expanded = vec![false; n as usize];
    let mut queue: Vec<u32> = Vec::new();
    for level in prior.levels() {
        let m = &level.matrix;
        col_start.fill(0);
        for &c in m.indices() {
            col_start[c as usize + 1] += 1;
        }
        // Seed from the touched vertices that own entries in *this* level
        // (not the accumulated region — cascading the growth across
        // levels compounds block-sized components into most of the graph
        // on well-connected inputs, forcing needless cold fallbacks).
        queue.clear();
        for &v in touched {
            let p = level.perm.position(v);
            let present = m.row_nnz(p) > 0 || col_start[p as usize + 1] > 0;
            if present && !expanded[p as usize] {
                expanded[p as usize] = true;
                queue.push(p);
            }
        }
        if queue.is_empty() {
            continue;
        }
        for c in 0..n as usize {
            col_start[c + 1] += col_start[c];
        }
        col_rows.clear();
        col_rows.resize(m.nnz(), 0);
        // Placement advances `col_start[c]` to the end of column `c`,
        // which is the start of column `c + 1`: afterwards column `c` is
        // `col_start[c - 1]..col_start[c]` (from 0 for the first).
        for r in 0..n {
            for &c in m.row_indices(r) {
                col_rows[col_start[c as usize]] = r;
                col_start[c as usize] += 1;
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let p = queue[head];
            head += 1;
            let column_lo = if p == 0 { 0 } else { col_start[p as usize - 1] };
            let column = &col_rows[column_lo..col_start[p as usize]];
            for &q in m.row_indices(p).iter().chain(column) {
                region[level.perm.vertex_at(q) as usize] = true;
                // Arm positions join but do not propagate.
                if q >= b && !expanded[q as usize] {
                    expanded[q as usize] = true;
                    queue.push(q);
                }
            }
        }
        for &p in &queue {
            expanded[p as usize] = false;
        }
    }
    Ok(region)
}

/// The prior levels with every entry owned by the region removed
/// (both endpoints inside it); levels that become empty are dropped.
/// Entry removal cannot violate the arrow pattern or the active prefix,
/// so the surviving levels stay valid as they are. `verts` lists the
/// region's vertices.
fn strip_region(prior: &ArrowDecomposition, region: &[bool], verts: &[u32]) -> Vec<ArrowLevel> {
    let n = prior.n();
    let mut kept_levels = Vec::with_capacity(prior.order());
    for level in prior.levels() {
        let m = &level.matrix;
        let in_region = |p: u32| region[level.perm.vertex_at(p) as usize];
        // Count first, and only in the region's own rows (an owned entry
        // has its row there): most levels are untouched by a localized
        // region, and those must not pay for a rebuilt copy.
        let owned: usize = verts
            .iter()
            .map(|&v| {
                let row = m.row_indices(level.perm.position(v));
                row.iter().filter(|&&pc| in_region(pc)).count()
            })
            .sum();
        if owned == level.nnz() {
            continue;
        }
        let matrix = if owned == 0 {
            m.clone()
        } else {
            let mut kept = CsrBuilder::with_capacity(n as usize, level.nnz() - owned);
            for pr in 0..n {
                let (cols, vals) = (m.row_indices(pr), m.row_values(pr));
                if in_region(pr) {
                    for (&pc, &v) in cols.iter().zip(vals) {
                        if !in_region(pc) {
                            kept.push(pc, v);
                        }
                    }
                } else {
                    kept.extend(cols, vals);
                }
                kept.end_row();
            }
            kept.finish(n)
        };
        kept_levels.push(ArrowLevel {
            perm: level.perm.clone(),
            matrix,
            active_n: level.active_n,
        });
    }
    kept_levels
}

/// Whether the ranks can route `levels`: every vertex in the active
/// prefix of a level after the first is in the active prefix of an
/// earlier one, which is where it draws its `X` from and returns its `Y`
/// through (§6.1). LA-Decompose's own output is nested, so it always
/// is; a splice appends levels whose active vertices the kept ones may
/// never have held.
fn routable(n: u32, levels: &[ArrowLevel]) -> bool {
    let mut active_before = vec![false; n as usize];
    for (t, level) in levels.iter().enumerate() {
        for &v in &level.perm.order()[..level.active_n as usize] {
            if t > 0 && !active_before[v as usize] {
                return false;
            }
            active_before[v as usize] = true;
        }
    }
    true
}

/// The incremental variant of [`decompose_snapshot`]: decompose `merged`
/// reusing `prior` where the delta permits.
///
/// `touched` must list **every** vertex incident to a difference between
/// the matrix `prior` decomposes and `merged` (extra vertices are
/// harmless; missing ones make the splice reconstruct the wrong
/// operator — debug builds assert exact reconstruction). Pass
/// `prior = None` or `touched = None` to force the cold path; an empty
/// `touched` slice means "no structural difference" and reuses the prior
/// as-is.
///
/// Never fails over to an error when the incremental path is merely
/// inapplicable — every fallback runs [`decompose_snapshot`] and reports
/// why in the returned [`RefreshOutcome`].
pub fn decompose_snapshot_incremental(
    merged: &CsrMatrix<f64>,
    cfg: &DecomposeConfig,
    seed: u64,
    prior: Option<&ArrowDecomposition>,
    touched: Option<&[u32]>,
    policy: &IncrementalPolicy,
) -> SparseResult<(ArrowDecomposition, RefreshOutcome)> {
    if merged.rows() != merged.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (merged.rows(), merged.cols()),
            right: (merged.cols(), merged.rows()),
        });
    }
    let n = merged.rows();
    let cold = |reason: FallbackReason,
                affected: u32,
                extract_seconds: f64|
     -> SparseResult<(ArrowDecomposition, RefreshOutcome)> {
        let sw = Stopwatch::start();
        let d = decompose_snapshot(merged, cfg, seed)?;
        let order = d.order() as u32;
        Ok((
            d,
            RefreshOutcome {
                incremental: false,
                fallback: Some(reason),
                affected_vertices: affected,
                total_vertices: n,
                order,
                timings: PhaseTimings {
                    extract_seconds,
                    decompose_seconds: sw.elapsed_seconds(),
                    splice_seconds: 0.0,
                },
            },
        ))
    };
    if !policy.enabled {
        return cold(FallbackReason::Disabled, 0, 0.0);
    }
    let Some(prior) = prior else {
        return cold(FallbackReason::NoPrior, 0, 0.0);
    };
    let Some(touched) = touched else {
        return cold(FallbackReason::NoTouched, 0, 0.0);
    };
    if prior.n() != n {
        return cold(FallbackReason::ShapeMismatch, 0, 0.0);
    }
    if prior.b() != cfg.arrow_width.max(1) {
        return cold(FallbackReason::WidthMismatch, 0, 0.0);
    }

    let extract_sw = Stopwatch::start();
    let region = affected_region(prior, touched)?;
    let affected = region.iter().filter(|&&m| m).count() as u32;
    if affected as f64 > policy.max_affected_fraction * n as f64 {
        return cold(
            FallbackReason::RegionTooLarge,
            affected,
            extract_sw.elapsed_seconds(),
        );
    }

    // Localized LA-Decompose on the induced subgraph, compacted so its
    // cost scales with the region.
    let verts: Vec<u32> = (0..n).filter(|&v| region[v as usize]).collect();
    let m = verts.len() as u32;
    let mut local = vec![u32::MAX; n as usize];
    for (i, &v) in verts.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    // The induced sub-matrix, straight into CSR arrays: rows in vertex
    // order, and the compaction is monotone, so columns stay sorted.
    let mut sub = CsrBuilder::with_capacity(m as usize, 0);
    for &v in &verts {
        for (&c, &val) in merged.row_indices(v).iter().zip(merged.row_values(v)) {
            if region[c as usize] {
                sub.push(local[c as usize], val);
            }
        }
        sub.end_row();
    }
    let sub_csr = sub.finish(m);
    let extract_seconds = extract_sw.elapsed_seconds();

    let decompose_sw = Stopwatch::start();
    let sub = match la_decompose(&sub_csr, cfg, &mut RandomForestLa::new(seed)) {
        Ok(d) => d,
        Err(_) => return cold(FallbackReason::SubDecompose, affected, extract_seconds),
    };
    let decompose_seconds = decompose_sw.elapsed_seconds();

    let splice_sw = Stopwatch::start();
    let mut levels = strip_region(prior, &region, &verts);
    if (levels.len() + sub.order()) as u32 > policy.max_order {
        return cold(FallbackReason::OrderTooDeep, affected, extract_seconds);
    }

    // Lift the localized levels back to n vertices: region vertices keep
    // their sub-arrangement positions, everything else is ordered after
    // them (isolated at these levels, beyond the active prefix).
    for level in sub.levels() {
        let mut order: Vec<u32> = Vec::with_capacity(n as usize);
        for p in 0..m {
            order.push(verts[level.perm.vertex_at(p) as usize]);
        }
        order.extend((0..n).filter(|&v| !region[v as usize]));
        let perm = Permutation::from_order(order).expect("lifted order is a bijection");
        let mut indptr = level.matrix.indptr().to_vec();
        let tail = *indptr.last().expect("CSR indptr is never empty");
        indptr.resize(n as usize + 1, tail);
        let matrix = CsrMatrix::from_raw_unchecked(
            n,
            n,
            indptr,
            level.matrix.indices().to_vec(),
            level.matrix.values().to_vec(),
        );
        levels.push(ArrowLevel {
            perm,
            matrix,
            active_n: level.active_n,
        });
    }

    if !routable(n, &levels) {
        return cold(FallbackReason::Unroutable, affected, extract_seconds);
    }

    let d = ArrowDecomposition::new(n, prior.b(), levels);
    debug_assert_eq!(
        d.validate(merged).expect("splice shapes match"),
        0.0,
        "spliced decomposition must reconstruct the merged matrix exactly \
         (was `touched` missing a changed vertex?)"
    );
    let outcome = RefreshOutcome {
        incremental: true,
        fallback: None,
        affected_vertices: affected,
        total_vertices: n,
        order: d.order() as u32,
        timings: PhaseTimings {
            extract_seconds,
            decompose_seconds,
            splice_seconds: splice_sw.elapsed_seconds(),
        },
    };
    Ok((d, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_graph::generators::basic;
    use amd_sparse::{ops, CooMatrix};

    fn ring(n: u32) -> CsrMatrix<f64> {
        basic::cycle(n).to_adjacency()
    }

    /// Applies `updates` (additive, symmetric off-diagonal pairs already
    /// expanded by the caller) and returns (merged, touched).
    fn apply(base: &CsrMatrix<f64>, updates: &[(u32, u32, f64)]) -> (CsrMatrix<f64>, Vec<u32>) {
        let n = base.rows();
        let mut coo = CooMatrix::new(n, n);
        let mut touched: Vec<u32> = Vec::new();
        for &(r, c, v) in updates {
            coo.push(r, c, v).unwrap();
            touched.push(r);
            touched.push(c);
        }
        touched.sort_unstable();
        touched.dedup();
        (ops::apply_delta(base, &coo.to_csr()).unwrap(), touched)
    }

    #[test]
    fn localized_insert_splices_and_reconstructs() {
        let n = 96;
        let base = ring(n);
        let cfg = DecomposeConfig::with_width(8);
        let prior = decompose_snapshot(&base, &cfg, 7).unwrap();
        // A chord inside one neighbourhood.
        let (merged, touched) = apply(&base, &[(10, 13, 2.0), (13, 10, 2.0)]);
        let (d, outcome) = decompose_snapshot_incremental(
            &merged,
            &cfg,
            7,
            Some(&prior),
            Some(&touched),
            &IncrementalPolicy::default(),
        )
        .unwrap();
        assert!(outcome.incremental, "fallback: {:?}", outcome.fallback);
        assert!(outcome.affected_vertices >= 2);
        assert!(outcome.reused_fraction() > 0.5, "{outcome:?}");
        assert_eq!(d.validate(&merged).unwrap(), 0.0);
        assert_eq!(d.nnz(), merged.nnz(), "each entry in exactly one level");
    }

    #[test]
    fn deletion_only_delta_strips_without_new_levels() {
        let n = 64;
        let base = ring(n);
        let cfg = DecomposeConfig::with_width(8);
        let prior = decompose_snapshot(&base, &cfg, 3).unwrap();
        // Remove one edge entirely (both directions cancel to zero).
        let (merged, touched) = apply(&base, &[(20, 21, -1.0), (21, 20, -1.0)]);
        assert_eq!(merged.nnz(), base.nnz() - 2);
        let (d, outcome) = decompose_snapshot_incremental(
            &merged,
            &cfg,
            3,
            Some(&prior),
            Some(&touched),
            &IncrementalPolicy::default(),
        )
        .unwrap();
        assert!(outcome.incremental);
        assert_eq!(d.validate(&merged).unwrap(), 0.0);
    }

    #[test]
    fn empty_touched_reuses_prior_as_is() {
        let n = 48;
        let base = ring(n);
        let cfg = DecomposeConfig::with_width(8);
        let prior = decompose_snapshot(&base, &cfg, 1).unwrap();
        let (d, outcome) = decompose_snapshot_incremental(
            &base,
            &cfg,
            1,
            Some(&prior),
            Some(&[]),
            &IncrementalPolicy::default(),
        )
        .unwrap();
        assert!(outcome.incremental);
        assert_eq!(outcome.affected_vertices, 0);
        assert_eq!(outcome.reused_fraction(), 1.0);
        assert_eq!(d, prior);
    }

    #[test]
    fn fallback_reasons_are_reported() {
        let n = 48;
        let base = ring(n);
        let cfg = DecomposeConfig::with_width(8);
        let prior = decompose_snapshot(&base, &cfg, 1).unwrap();
        let (merged, touched) = apply(&base, &[(0, 24, 1.0), (24, 0, 1.0)]);
        let run = |prior: Option<&ArrowDecomposition>,
                   touched: Option<&[u32]>,
                   policy: &IncrementalPolicy,
                   cfg: &DecomposeConfig| {
            let (d, o) =
                decompose_snapshot_incremental(&merged, cfg, 1, prior, touched, policy).unwrap();
            assert_eq!(d.validate(&merged).unwrap(), 0.0, "fallback stays exact");
            o
        };
        let default = IncrementalPolicy::default();
        assert_eq!(
            run(None, Some(&touched), &default, &cfg).fallback,
            Some(FallbackReason::NoPrior)
        );
        assert_eq!(
            run(Some(&prior), None, &default, &cfg).fallback,
            Some(FallbackReason::NoTouched)
        );
        assert_eq!(
            run(
                Some(&prior),
                Some(&touched),
                &IncrementalPolicy::disabled(),
                &cfg
            )
            .fallback,
            Some(FallbackReason::Disabled)
        );
        let tiny = IncrementalPolicy {
            max_affected_fraction: 0.0,
            ..default
        };
        assert_eq!(
            run(Some(&prior), Some(&touched), &tiny, &cfg).fallback,
            Some(FallbackReason::RegionTooLarge)
        );
        let shallow = IncrementalPolicy {
            max_order: 1,
            max_affected_fraction: 1.0,
            ..default
        };
        assert_eq!(
            run(Some(&prior), Some(&touched), &shallow, &cfg).fallback,
            Some(FallbackReason::OrderTooDeep)
        );
        let wide = DecomposeConfig::with_width(16);
        assert_eq!(
            run(Some(&prior), Some(&touched), &default, &wide).fallback,
            Some(FallbackReason::WidthMismatch)
        );
    }

    #[test]
    fn touched_out_of_bounds_is_an_error() {
        let base = ring(16);
        let cfg = DecomposeConfig::with_width(4);
        let prior = decompose_snapshot(&base, &cfg, 1).unwrap();
        assert!(affected_region(&prior, &[16]).is_err());
        assert!(decompose_snapshot_incremental(
            &base,
            &cfg,
            1,
            Some(&prior),
            Some(&[99]),
            &IncrementalPolicy::default(),
        )
        .is_err());
    }

    #[test]
    fn affected_region_contains_touched_and_stays_local_on_a_ring() {
        let n = 256;
        let base = ring(n);
        let cfg = DecomposeConfig::with_width(8);
        let prior = decompose_snapshot(&base, &cfg, 5).unwrap();
        let touched = [100u32, 101, 102];
        let region = affected_region(&prior, &touched).unwrap();
        for &v in &touched {
            assert!(region[v as usize]);
        }
        let affected = region.iter().filter(|&&m| m).count();
        assert!(
            affected < n as usize / 4,
            "a 3-vertex touch on a ring must stay local, got {affected}/{n}"
        );
    }

    #[test]
    fn region_growth_expands_components_and_respects_barriers() {
        // One level of width 1 holding the path 0-1-2-3-4 and, apart from
        // it, the edge 5-6. Vertex 2 sits at position 0, the arm, so it
        // is the barrier. Half the entries are stored in one direction
        // only: the search must follow a column as well as a row.
        let perm = Permutation::from_order(vec![2, 0, 1, 3, 4, 5, 6]).unwrap();
        let mut coo = CooMatrix::new(7, 7);
        for (u, v) in [(0u32, 1u32), (2, 1), (2, 3), (4, 3), (5, 6)] {
            coo.push(perm.position(u), perm.position(v), 1.0).unwrap();
        }
        for (u, v) in [(1u32, 0u32), (3, 2)] {
            coo.push(perm.position(u), perm.position(v), 1.0).unwrap();
        }
        let level = ArrowLevel {
            perm,
            matrix: coo.to_csr(),
            active_n: 7,
        };
        let prior = ArrowDecomposition::new(7, 1, vec![level]);
        let region = |touched: &[u32]| affected_region(&prior, touched).unwrap();
        // 2 joins (neighbour of 1) but does not propagate to 3.
        assert_eq!(
            region(&[0]),
            vec![true, true, true, false, false, false, false]
        );
        // A barrier *seed* propagates (and its neighbours carry on).
        assert_eq!(
            region(&[2]),
            vec![true, true, true, true, true, false, false]
        );
        // Other components stay out; one reached through a column only
        // (6 stores nothing in its own row) still joins whole.
        assert_eq!(
            region(&[6]),
            vec![false, false, false, false, false, true, true]
        );
    }

    #[test]
    fn repeated_splices_accumulate_then_policy_recompacts() {
        // Chain incremental refreshes; the order grows, and a max_order
        // policy eventually forces a cold re-compaction.
        let n = 120;
        let cfg = DecomposeConfig::with_width(8);
        let policy = IncrementalPolicy {
            max_order: 8,
            ..IncrementalPolicy::default()
        };
        let mut cur = ring(n);
        let mut d = decompose_snapshot(&cur, &cfg, 2).unwrap();
        let mut saw_order_fallback = false;
        for round in 0..12u32 {
            let a = (7 * round) % n;
            let b = (a + 3) % n;
            let (merged, touched) = apply(&cur, &[(a, b, 1.0), (b, a, 1.0)]);
            let (next, outcome) =
                decompose_snapshot_incremental(&merged, &cfg, 2, Some(&d), Some(&touched), &policy)
                    .unwrap();
            assert_eq!(next.validate(&merged).unwrap(), 0.0, "round {round}");
            saw_order_fallback |= outcome.fallback == Some(FallbackReason::OrderTooDeep);
            assert!(next.order() as u32 <= policy.max_order.max(cfg.max_levels));
            cur = merged;
            d = next;
        }
        assert!(
            saw_order_fallback,
            "12 chained splices at max_order 8 must trip a re-compaction"
        );
    }
}
