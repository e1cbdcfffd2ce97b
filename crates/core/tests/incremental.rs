//! Acceptance tests for delta-localized incremental re-decomposition:
//! random *localized* update streams (inserts, weight changes, and
//! deletions — including deletions that disconnect components and
//! updates that straddle level boundaries) must produce decompositions
//! whose multiplies bit-match a cold decompose-and-multiply, across
//! chained refreshes, with policy fallbacks counted and exact too.

use amd_graph::generators::{basic, random};
use amd_sparse::{ops, spmm, CooMatrix, CsrMatrix, DeltaBuilder, DenseMatrix};
use arrow_core::incremental::{decompose_snapshot_incremental, FallbackReason, IncrementalPolicy};
use arrow_core::{decompose_snapshot, ArrowDecomposition, DecomposeConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Integer-valued probe operand: exact in f64, so answers must match
/// bit for bit.
fn probe(n: u32, k: u32, salt: u32) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, k, |r, c| (((salt + 5 * r + 3 * c) % 9) as f64) - 4.0)
}

/// Reference `σ-free` iterated multiply through plain CSR SpMM.
fn reference(a: &CsrMatrix<f64>, x: &DenseMatrix<f64>, iters: u32) -> DenseMatrix<f64> {
    let mut cur = x.clone();
    for _ in 0..iters {
        cur = spmm::spmm(a, &cur).unwrap();
    }
    cur
}

/// Asserts the full acceptance property for one refresh step: the
/// incremental result is valid, covers every entry exactly once, and
/// multiplies identically to both the raw operator and a cold rebuild.
fn assert_exact(d: &ArrowDecomposition, merged: &CsrMatrix<f64>, cfg: &DecomposeConfig, seed: u64) {
    assert_eq!(d.validate(merged).unwrap(), 0.0, "exact reconstruction");
    assert_eq!(d.nnz(), merged.nnz(), "each entry in exactly one level");
    let n = merged.rows();
    let x = probe(n, 3, 1);
    let via = d.multiply(&x).unwrap();
    assert_eq!(via, reference(merged, &x, 1), "multiply == raw operator");
    let cold = decompose_snapshot(merged, cfg, seed).unwrap();
    assert_eq!(
        via,
        cold.multiply(&x).unwrap(),
        "multiply bit-matches a cold decompose-and-multiply"
    );
}

/// One symbolic update of a localized stream.
#[derive(Debug, Clone, Copy)]
struct Step {
    u: u32,
    v: u32,
    kind: u8,
}

/// A base graph (tree plus ring chords for density) and a stream of
/// updates confined to a window of the vertex space.
fn localized_stream() -> impl Strategy<Value = (u32, u64, u32, Vec<Step>)> {
    (48u32..100, 0u64..1000).prop_flat_map(|(n, seed)| {
        let window = 10u32.min(n - 1);
        (
            Just(n),
            Just(seed),
            0..n,
            proptest::collection::vec((0..window, 0..window, 0u8..3), 1..24).prop_map(
                move |steps| {
                    steps
                        .into_iter()
                        .filter(|&(a, b, _)| a != b)
                        .map(|(a, b, kind)| Step { u: a, v: b, kind })
                        .collect::<Vec<_>>()
                },
            ),
        )
    })
}

fn base_graph(n: u32, seed: u64) -> CsrMatrix<f64> {
    let tree = random::random_tree(n, &mut ChaCha8Rng::seed_from_u64(seed));
    let mut coo = tree.to_adjacency::<f64>().to_coo();
    // Ring chords give every vertex degree ≥ 2 and multiple levels.
    for v in 0..n {
        coo.push_sym(v, (v + 1) % n, 1.0).unwrap();
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random localized update streams — inserts, re-weights, deletions —
    /// refreshed incrementally in chained rounds: every round's multiply
    /// bit-matches a cold decompose-and-multiply of the merged matrix.
    #[test]
    fn localized_streams_bit_match_cold_rebuilds(
        (n, seed, start, steps) in localized_stream()
    ) {
        let cfg = DecomposeConfig::with_width(8);
        let policy = IncrementalPolicy::default();
        let mut cur = base_graph(n, seed);
        let mut d = decompose_snapshot(&cur, &cfg, seed).unwrap();
        // Three chained rounds over thirds of the stream, each splicing
        // onto the previous round's (possibly already spliced) result.
        for round_steps in steps.chunks(steps.len().div_ceil(3).max(1)) {
            let mut delta = DeltaBuilder::<f64>::new(n, n);
            for s in round_steps {
                let (u, v) = ((start + s.u) % n, (start + s.v) % n);
                let served = cur.get(u, v) + delta.get(u, v);
                match s.kind {
                    // Structural insert (or growth) of a chord.
                    0 => delta.add_sym(u, v, 2.0).unwrap(),
                    // Integer re-weighting.
                    1 => delta.add_sym(u, v, 1.0).unwrap(),
                    // Deletion: cancel whatever is currently served.
                    _ => {
                        if served != 0.0 {
                            delta.add_sym(u, v, -served).unwrap();
                        }
                    }
                }
            }
            if delta.is_empty() {
                continue;
            }
            let merged = ops::apply_delta(&cur, &delta.to_csr()).unwrap();
            let touched = delta.touched_vertices();
            let (next, outcome) = decompose_snapshot_incremental(
                &merged, &cfg, seed, Some(&d), Some(&touched), &policy,
            ).unwrap();
            assert_exact(&next, &merged, &cfg, seed);
            prop_assert_eq!(outcome.total_vertices, n);
            cur = merged;
            d = next;
        }
    }

    /// The fallback path (region capped at zero) is itself always exact.
    #[test]
    fn forced_fallback_streams_stay_exact(
        (n, seed, start, steps) in localized_stream()
    ) {
        let cfg = DecomposeConfig::with_width(8);
        let policy = IncrementalPolicy {
            max_affected_fraction: 0.0,
            ..IncrementalPolicy::default()
        };
        let cur = base_graph(n, seed);
        let d = decompose_snapshot(&cur, &cfg, seed).unwrap();
        let mut delta = DeltaBuilder::<f64>::new(n, n);
        // One guaranteed chord so the delta is never empty.
        delta.add_sym(start % n, (start + 2) % n, 1.0).unwrap();
        for s in &steps {
            let (u, v) = ((start + s.u) % n, (start + s.v) % n);
            delta.add_sym(u, v, 1.0).unwrap();
        }
        let merged = ops::apply_delta(&cur, &delta.to_csr()).unwrap();
        let touched = delta.touched_vertices();
        let (next, outcome) = decompose_snapshot_incremental(
            &merged, &cfg, seed, Some(&d), Some(&touched), &policy,
        ).unwrap();
        prop_assert!(!outcome.incremental);
        prop_assert_eq!(outcome.fallback, Some(FallbackReason::RegionTooLarge));
        assert_exact(&next, &merged, &cfg, seed);
    }
}

#[test]
fn deletion_that_disconnects_a_component_is_exact() {
    // Two rings joined by a single bridge; deleting the bridge
    // disconnects them.
    let half = 128u32;
    let n = 2 * half;
    let mut coo = CooMatrix::<f64>::new(n, n);
    for v in 0..half {
        coo.push_sym(v, (v + 1) % half, 1.0).unwrap();
        coo.push_sym(half + v, half + (v + 1) % half, 1.0).unwrap();
    }
    coo.push_sym(0, half, 3.0).unwrap(); // the bridge
    let base = coo.to_csr();
    let cfg = DecomposeConfig::with_width(8);
    let d = decompose_snapshot(&base, &cfg, 11).unwrap();

    let mut delta = DeltaBuilder::<f64>::new(n, n);
    delta.add_sym(0, half, -3.0).unwrap();
    let merged = ops::apply_delta(&base, &delta.to_csr()).unwrap();
    assert_eq!(merged.nnz(), base.nnz() - 2, "bridge gone");
    let (next, outcome) = decompose_snapshot_incremental(
        &merged,
        &cfg,
        11,
        Some(&d),
        Some(&delta.touched_vertices()),
        &IncrementalPolicy::default(),
    )
    .unwrap();
    assert!(outcome.incremental, "fallback: {:?}", outcome.fallback);
    assert_exact(&next, &merged, &cfg, 11);
}

#[test]
fn updates_straddling_level_boundaries_are_exact() {
    // A graph deep enough for several levels; pick touched entries owned
    // by *different* levels of the prior decomposition plus a fresh
    // chord, so the affected region spans level boundaries.
    let n = 200u32;
    let base = {
        let tree = random::random_tree(n, &mut ChaCha8Rng::seed_from_u64(9));
        let mut coo = tree.to_adjacency::<f64>().to_coo();
        for v in 0..n {
            coo.push_sym(v, (v + 1) % n, 1.0).unwrap();
            coo.push_sym(v, (v + 7) % n, 1.0).unwrap();
        }
        coo.to_csr()
    };
    let cfg = DecomposeConfig::with_width(8);
    let d = decompose_snapshot(&base, &cfg, 4).unwrap();
    assert!(d.order() >= 2, "need multiple levels, got {}", d.order());

    // Locate one stored entry owned by level 0 and one by a later level.
    let owner = |dec: &ArrowDecomposition, r: u32, c: u32| -> Option<usize> {
        dec.levels().iter().position(|level| {
            let (pr, pc) = (level.perm.position(r), level.perm.position(c));
            level.matrix.row_indices(pr).binary_search(&pc).is_ok()
        })
    };
    let mut early = None;
    let mut late = None;
    for (r, c, _) in base.iter() {
        if r >= c {
            continue;
        }
        match owner(&d, r, c) {
            Some(0) if early.is_none() => early = Some((r, c)),
            Some(l) if l > 0 && late.is_none() => late = Some((r, c)),
            _ => {}
        }
        if early.is_some() && late.is_some() {
            break;
        }
    }
    let (e0, e1) = (
        early.expect("level-0 entry"),
        late.expect("later-level entry"),
    );

    let mut delta = DeltaBuilder::<f64>::new(n, n);
    delta.add_sym(e0.0, e0.1, 5.0).unwrap(); // re-weight a level-0 entry
    delta.add_sym(e1.0, e1.1, -base.get(e1.0, e1.1)).unwrap(); // delete a deep entry
    delta.add_sym(e0.0, e1.1, 2.0).unwrap(); // chord across the two
    let merged = ops::apply_delta(&base, &delta.to_csr()).unwrap();
    let (next, outcome) = decompose_snapshot_incremental(
        &merged,
        &cfg,
        4,
        Some(&d),
        Some(&delta.touched_vertices()),
        &IncrementalPolicy::default(),
    )
    .unwrap();
    assert_exact(&next, &merged, &cfg, 4);
    assert!(
        outcome.incremental || outcome.fallback == Some(FallbackReason::RegionTooLarge),
        "unexpected outcome {outcome:?}"
    );
}

/// CI perf gate (ignored by default; run with
/// `cargo test --release -- --ignored perf_smoke`): on a 50k-vertex
/// graph with 0.5% of the vertices touched, the incremental refresh must
/// beat a cold decompose outright.
#[test]
#[ignore = "perf smoke: release-mode timing gate, run explicitly in CI"]
fn perf_smoke_incremental_beats_cold() {
    let n = 50_000u32;
    let base = {
        let mut coo = CooMatrix::<f64>::new(n, n);
        for v in 0..n {
            coo.push_sym(v, (v + 1) % n, 1.0).unwrap();
            coo.push_sym(v, (v + 4) % n, 1.0).unwrap();
        }
        coo.to_csr()
    };
    let cfg = DecomposeConfig::with_width(64);
    let prior = decompose_snapshot(&base, &cfg, 21).unwrap();

    // Touch 0.5% of the vertices: chord inserts inside one window.
    let window = n / 200;
    let mut delta = DeltaBuilder::<f64>::new(n, n);
    let mut v = 1000u32;
    while v + 2 < 1000 + window {
        delta.add_sym(v, v + 2, 1.0).unwrap();
        v += 3;
    }
    let merged = ops::apply_delta(&base, &delta.to_csr()).unwrap();
    let touched = delta.touched_vertices();
    assert!(touched.len() as u32 <= window);

    let t0 = amd_obs::Stopwatch::start();
    let cold = decompose_snapshot(&merged, &cfg, 21).unwrap();
    let cold_secs = t0.elapsed_seconds();

    let t1 = amd_obs::Stopwatch::start();
    let (incr, outcome) = decompose_snapshot_incremental(
        &merged,
        &cfg,
        21,
        Some(&prior),
        Some(&touched),
        &IncrementalPolicy::default(),
    )
    .unwrap();
    let incr_secs = t1.elapsed_seconds();

    assert!(outcome.incremental, "fallback: {:?}", outcome.fallback);
    assert!(
        outcome.reused_fraction() > 0.9,
        "0.5% touched must reuse >90% of the vertices, got {:.3}",
        outcome.reused_fraction()
    );
    // Exactness at scale (spot-check with a narrow probe).
    let x = probe(n, 1, 3);
    assert_eq!(
        incr.multiply(&x).unwrap(),
        cold.multiply(&x).unwrap(),
        "incremental multiply must bit-match the cold rebuild"
    );
    assert!(
        incr_secs < cold_secs,
        "incremental refresh ({incr_secs:.3}s) must beat cold decompose ({cold_secs:.3}s)"
    );
    println!(
        "perf_smoke: n={n} touched={} cold={cold_secs:.3}s incremental={incr_secs:.3}s \
         speedup={:.1}x reused={:.3}",
        touched.len(),
        cold_secs / incr_secs,
        outcome.reused_fraction()
    );
}

#[test]
fn basic_star_prior_round_trip() {
    // A hub-touching delta on a star: the region reaches everything
    // through the pruned hub's neighbours, so the policy falls back —
    // and the fallback is still exact.
    let n = 60u32;
    let base: CsrMatrix<f64> = basic::star(n).to_adjacency();
    let cfg = DecomposeConfig::with_width(4);
    let d = decompose_snapshot(&base, &cfg, 2).unwrap();
    let mut delta = DeltaBuilder::<f64>::new(n, n);
    delta.add_sym(0, 30, 1.0).unwrap(); // hub edge re-weight
    let merged = ops::apply_delta(&base, &delta.to_csr()).unwrap();
    let (next, _outcome) = decompose_snapshot_incremental(
        &merged,
        &cfg,
        2,
        Some(&d),
        Some(&delta.touched_vertices()),
        &IncrementalPolicy::default(),
    )
    .unwrap();
    assert_exact(&next, &merged, &cfg, 2);
}

#[test]
fn attaching_an_isolated_vertex_falls_back_cold() {
    // A path on 0..n-1 plus vertex n-1, isolated: level 0's active
    // prefix holds only the path. A delta that attaches the isolated
    // vertex would splice it into a last level with no earlier level to
    // draw its X from — a decomposition the ranks cannot route — so the
    // refresh must be a counted cold rebuild instead.
    let n = 600u32;
    let isolated = n - 1;
    let mut coo = CooMatrix::<f64>::new(n, n);
    for v in 0..isolated - 1 {
        coo.push_sym(v, v + 1, 1.0).unwrap();
    }
    let base = coo.to_csr();
    assert_eq!(base.row_nnz(isolated), 0);
    let cfg = DecomposeConfig::with_width(8);
    let d = decompose_snapshot(&base, &cfg, 5).unwrap();
    assert!(d.levels()[0].perm.position(isolated) >= d.levels()[0].active_n);

    let mut delta = DeltaBuilder::<f64>::new(n, n);
    delta.add_sym(300, isolated, 2.0).unwrap();
    let merged = ops::apply_delta(&base, &delta.to_csr()).unwrap();
    let (next, outcome) = decompose_snapshot_incremental(
        &merged,
        &cfg,
        5,
        Some(&d),
        Some(&delta.touched_vertices()),
        &IncrementalPolicy::default(),
    )
    .unwrap();
    assert!(!outcome.incremental);
    assert_eq!(outcome.fallback, Some(FallbackReason::Unroutable));
    assert_exact(&next, &merged, &cfg, 5);
    // The rebuilt decomposition is nested again: the next localized
    // delta on the same vertex splices.
    let mut delta = DeltaBuilder::<f64>::new(n, n);
    delta.add_sym(301, isolated, 1.0).unwrap();
    let again = ops::apply_delta(&merged, &delta.to_csr()).unwrap();
    let (next, outcome) = decompose_snapshot_incremental(
        &again,
        &cfg,
        5,
        Some(&next),
        Some(&delta.touched_vertices()),
        &IncrementalPolicy::default(),
    )
    .unwrap();
    assert!(outcome.incremental, "fallback: {:?}", outcome.fallback);
    assert_exact(&next, &again, &cfg, 5);
}
