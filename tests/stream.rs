//! Acceptance tests of the streaming-update subsystem: the corrected
//! multiply bit-matches a cold decompose-and-multiply of the merged
//! matrix, a warm engine absorbs a mutation stream with zero cold
//! decomposes until the staleness budget trips, and random update
//! streams stay exact end to end.
//!
//! All streams here are **integer-valued** (adjacency weights, deltas,
//! and operands), so every floating-point reduction is exact and "equal"
//! means bit-for-bit — the strongest form of the subsystem's
//! fixed-reduction-order guarantee.

use arrow_matrix::engine::{Engine, EngineConfig, MultiplyQuery};
use arrow_matrix::graph::generators::datasets::DatasetKind;
use arrow_matrix::sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use arrow_matrix::spmm::reference::iterated_spmm;
use arrow_matrix::stream::{
    AdaptiveBudget, HubConfig, IncrementalPolicy, StalenessBudget, StreamHub, TenantId, Update,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn dataset(n: u32) -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    DatasetKind::WebBase.generate(n, &mut rng).to_adjacency()
}

/// An integer-valued structural delta: chords added across the matrix,
/// one existing entry (if any) re-weighted.
fn chord_delta(a: &CsrMatrix<f64>, chords: u32) -> CsrMatrix<f64> {
    let n = a.rows();
    let mut coo = CooMatrix::new(n, n);
    for i in 0..chords {
        let u = (7 * i + 1) % n;
        let v = (u + n / 2 + i) % n;
        if u != v && a.get(u, v) == 0.0 {
            coo.push_sym(u, v, 1.0 + (i % 3) as f64).unwrap();
        }
    }
    coo.to_csr()
}

/// One tenant on an 8-rank deployment, refreshing inline in the update
/// that trips the `cap`-entry budget.
fn one_tenant_sync_hub(a: CsrMatrix<f64>, cap: usize) -> (StreamHub, TenantId) {
    let mut hub = StreamHub::new(HubConfig {
        engine: hub_engine_config(),
        budget: StalenessBudget::nnz_cap(cap),
        async_refresh: false,
        ..HubConfig::default()
    })
    .unwrap();
    let t = hub.admit(a).unwrap();
    (hub, t)
}

#[test]
fn corrected_multiply_bit_matches_cold_decompose_and_multiply() {
    // Acceptance criterion 1: a warm engine serving A₀ + ΔA through the
    // corrected path must answer bit-identically to a *cold* engine that
    // decomposes and multiplies the merged matrix from scratch.
    let n = 700;
    let a = dataset(n);
    let delta = chord_delta(&a, 24);
    assert!(delta.nnz() > 0);
    let merged = ops::apply_delta(&a, &delta).unwrap();
    let config = EngineConfig {
        arrow_width: 64,
        target_ranks: 8,
        ..EngineConfig::default()
    };

    // Warm path: base registered, delta overlaid, no re-decompose.
    let mut warm = Engine::new(config.clone()).unwrap();
    let warm_id = warm.register(&a).unwrap();
    warm.set_delta(warm_id, delta).unwrap();

    // Cold path: merged matrix decomposed and planned from scratch.
    let mut cold = Engine::new(config).unwrap();
    let cold_id = cold.register(&merged).unwrap();

    for (q, iters) in [(0u32, 1u32), (1, 2), (2, 3)] {
        let x: Vec<f64> = (0..n).map(|r| (((q + 5 * r) % 13) as f64) - 6.0).collect();
        let got = warm
            .run_single(MultiplyQuery {
                matrix: warm_id,
                x: x.clone(),
                iters,
                sigma: None,
            })
            .unwrap();
        let want = cold
            .run_single(MultiplyQuery {
                matrix: cold_id,
                x,
                iters,
                sigma: None,
            })
            .unwrap();
        assert_eq!(
            got.y, want.y,
            "corrected path must bit-match the cold rebuild at iters = {iters}"
        );
    }
    assert_eq!(warm.cache_stats().decompositions, 1, "warm stayed warm");
    assert!(warm.stats().corrected_runs >= 3);
    assert_eq!(cold.stats().corrected_runs, 0);
}

#[test]
fn warm_engine_absorbs_stream_with_zero_cold_decomposes_until_budget_trips() {
    // Acceptance criterion 2, asserted via cache/refresh counters: below
    // the staleness budget every query is served warm (decompositions
    // stays at the single cold registration, refreshes at 0); the first
    // update that crosses the budget triggers exactly one compacting
    // refresh (one more decomposition).
    let n = 600;
    let a = dataset(n);
    let cap = 12;
    let (mut s, t) = one_tenant_sync_hub(a.clone(), cap);
    assert_eq!(s.cache_stats().decompositions, 1, "one cold decompose");

    let mut truth = a;
    let mut tripped = false;
    for i in 0..40u32 {
        let u = (11 * i + 3) % n;
        let v = (u + n / 3 + i) % n;
        if u == v || truth.get(u, v) != 0.0 {
            continue;
        }
        let w = 1.0 + (i % 2) as f64;
        let mut patch = CooMatrix::new(n, n);
        patch.push_sym(u, v, w).unwrap();
        truth = ops::apply_delta(&truth, &patch.to_csr()).unwrap();
        for part in (Update::Add {
            row: u,
            col: v,
            delta: w,
        })
        .sym_pair()
        {
            tripped |= s.update(t, part).unwrap();
        }
        // Serve (and verify) between mutations.
        let x: Vec<f64> = (0..n).map(|r| (((i + r) % 7) as f64) - 3.0).collect();
        let resp = s.run_single(t, x.clone(), 2, None).unwrap();
        let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
        let want = iterated_spmm(&truth, &xm, 2).unwrap();
        assert_eq!(resp.y, want.data(), "answer after mutation {i}");

        if !tripped {
            assert_eq!(
                s.cache_stats().decompositions,
                1,
                "below budget the warm engine must not decompose (mutation {i})"
            );
            assert_eq!(s.engine_stats().refreshes, 0);
            assert!(s.delta_nnz(t).unwrap() <= cap);
        } else {
            break;
        }
    }
    assert!(tripped, "the budget must trip within the stream");
    assert_eq!(s.engine_stats().refreshes, 1, "exactly one refresh");
    assert_eq!(
        s.cache_stats().decompositions,
        1,
        "the refresh decomposes outside the cache (incrementally where \
         the delta allows) and admits the result — no second cold run"
    );
    assert_eq!(
        s.cache_stats().admitted,
        1,
        "refresh admits exactly one decomposition"
    );
    assert_eq!(s.version(t).unwrap(), 1);
    // The budget can trip on the first half of a symmetric pair, leaving
    // the mirror entry pending — but never more than that.
    assert!(
        s.delta_nnz(t).unwrap() <= 1,
        "compaction must drain the delta (left {})",
        s.delta_nnz(t).unwrap()
    );
    assert_eq!(
        ops::apply_delta(s.base(t).unwrap(), &s.delta(t).unwrap().to_csr()).unwrap(),
        truth,
        "base + pending delta equals the mutated truth"
    );

    // The stream keeps serving correctly after the refresh, warm again.
    let x: Vec<f64> = (0..n).map(|r| ((r % 5) as f64) - 2.0).collect();
    let resp = s.run_single(t, x.clone(), 1, None).unwrap();
    let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
    assert_eq!(resp.y, iterated_spmm(&truth, &xm, 1).unwrap().data());
    assert_eq!(s.cache_stats().decompositions, 1, "still no cold decompose");
}

#[test]
fn planner_reranks_after_refresh() {
    // The refresh re-plans against the merged structure: the plan report
    // of the new binding is freshly computed (4 candidates, sorted), and
    // the bound algorithm is the cheapest of them.
    let n = 500;
    let a = dataset(n);
    let (mut s, t) = one_tenant_sync_hub(a, 4);
    let report_before: Vec<(String, f64)> = s
        .plan_report(t)
        .unwrap()
        .iter()
        .map(|p| (p.name.clone(), p.seconds))
        .collect();
    let mut done = false;
    for i in 0..20u32 {
        for part in (Update::Add {
            row: i,
            col: (i + n / 2) % n,
            delta: 2.0,
        })
        .sym_pair()
        {
            done |= s.update(t, part).unwrap();
        }
        if done {
            break;
        }
    }
    assert!(done);
    let report_after: Vec<(String, f64)> = s
        .plan_report(t)
        .unwrap()
        .iter()
        .map(|p| (p.name.clone(), p.seconds))
        .collect();
    assert_eq!(report_after.len(), 4);
    assert!(
        report_after.windows(2).all(|w| w[0].1 <= w[1].1),
        "re-ranked report must be sorted: {report_after:?}"
    );
    assert_ne!(
        report_before, report_after,
        "the merged structure must re-score the candidates"
    );
    assert_eq!(s.chosen_algorithm(t).unwrap(), report_after[0].0);
}

/// A compact encoding of a random update: target coordinates (reduced
/// modulo n), an integer payload, and which variant to apply.
type RawUpdate = (u32, u32, i8, bool);

fn updates_strategy() -> impl Strategy<Value = (u32, Vec<RawUpdate>)> {
    (16u32..48).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n, -3i8..4, any::<bool>()), 1..40),
        )
    })
}

/// A hub over the `n`-ring that never refreshes on its own, with the
/// raw update stream applied to its one tenant.
fn hub_after_updates(n: u32, target_ranks: u32, raw: &[RawUpdate]) -> (StreamHub, TenantId) {
    let a: CsrMatrix<f64> = arrow_matrix::graph::generators::basic::cycle(n).to_adjacency();
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            arrow_width: 8,
            target_ranks,
            ..EngineConfig::default()
        },
        auto_refresh: false,
        async_refresh: false,
        ..HubConfig::default()
    })
    .unwrap();
    let t = hub.admit(a).unwrap();
    for &(row, col, mag, is_set) in raw {
        let update = if is_set {
            Update::Set {
                row,
                col,
                value: mag as f64,
            }
        } else {
            Update::Add {
                row,
                col,
                delta: mag as f64,
            }
        };
        hub.update(t, update).unwrap();
    }
    (hub, t)
}

/// The served operator as one matrix: base plus pending delta.
fn merged(hub: &StreamHub, t: TenantId) -> CsrMatrix<f64> {
    ops::apply_delta(hub.base(t).unwrap(), &hub.delta(t).unwrap().to_csr()).unwrap()
}

/// The two bindings a hub serves through: `LocalSpmm` on one rank, a
/// distributed algorithm over a decomposition on four.
fn ranks_strategy() -> impl Strategy<Value = u32> {
    any::<bool>().prop_map(|wide| if wide { 4 } else { 1 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_update_streams_stay_exact(
        (n, raw) in updates_strategy(),
        target_ranks in ranks_strategy(),
    ) {
        // Property: for any random update stream, the corrected path
        // equals SpMM over the rebuilt matrix — exactly (integer data),
        // on the one-rank and on the distributed binding.
        let (mut hub, t) = hub_after_updates(n, target_ranks, &raw);
        let merged = merged(&hub, t);
        let x = DenseMatrix::from_fn(n, 2, |r, c| (((r + 2 * c) % 9) as f64) - 4.0);
        let columns = x.to_columns();
        for iters in [1u32, 2] {
            let want = iterated_spmm(&merged, &x, iters).unwrap().to_columns();
            for (c, column) in columns.iter().enumerate() {
                let got = hub.run_single(t, column.clone(), iters, None).unwrap().y;
                prop_assert_eq!(&got, &want[c], "iters = {}, column {}", iters, c);
            }
        }
        // And with a non-linear σ in the loop.
        let relu: fn(f64) -> f64 = |v| v.max(0.0);
        let mut want = x.clone();
        for _ in 0..2 {
            want = arrow_matrix::sparse::spmm::spmm(&merged, &want).unwrap();
            want.map_inplace(relu);
        }
        let want = want.to_columns();
        for (c, column) in columns.iter().enumerate() {
            let got = hub.run_single(t, column.clone(), 2, Some(relu)).unwrap().y;
            prop_assert_eq!(&got, &want[c], "relu, column {}", c);
        }
    }

    #[test]
    fn delta_compaction_is_idempotent(
        (n, raw) in updates_strategy(),
        target_ranks in ranks_strategy(),
    ) {
        // Property: refreshing compacts the delta exactly once — the
        // compacted base reproduces the merged matrix, and a second
        // refresh (no pending delta) changes nothing.
        let (mut hub, t) = hub_after_updates(n, target_ranks, &raw);
        let merged = merged(&hub, t);
        let had_delta = hub.delta_nnz(t).unwrap() > 0;
        prop_assert_eq!(hub.refresh(t).unwrap(), had_delta);
        prop_assert_eq!(hub.base(t).unwrap(), &merged);
        prop_assert_eq!(hub.delta_nnz(t).unwrap(), 0);
        // The rebuilt binding (a fresh decomposition on four ranks)
        // multiplies as the merged matrix does.
        let x: Vec<f64> = (0..n).map(|r| ((r % 9) as f64) - 4.0).collect();
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let got = hub.run_single(t, x, 2, None).unwrap().y;
        let want = iterated_spmm(&merged, &xm, 2).unwrap();
        prop_assert_eq!(got, want.data());
        let version = hub.version(t).unwrap();
        let id = hub.matrix_id(t).unwrap();
        // Second compaction: structurally a no-op.
        prop_assert!(!hub.refresh(t).unwrap());
        prop_assert_eq!(hub.version(t).unwrap(), version);
        prop_assert_eq!(hub.matrix_id(t).unwrap(), id);
        prop_assert_eq!(hub.base(t).unwrap(), &merged);
    }
}

// ---------------------------------------------------------------------------
// Multi-tenant hub: double-buffered refresh, fairness, exact swaps.
// ---------------------------------------------------------------------------

fn hub_engine_config() -> EngineConfig {
    EngineConfig {
        arrow_width: 64,
        target_ranks: 8,
        ..EngineConfig::default()
    }
}

/// Mirrors `update` (a symmetric integer add) onto a truth matrix.
fn apply_sym(
    hub: &mut StreamHub,
    tenant: TenantId,
    truth: &mut CsrMatrix<f64>,
    u: u32,
    v: u32,
    w: f64,
) {
    let n = truth.rows();
    let mut patch = CooMatrix::new(n, n);
    patch.push_sym(u, v, w).unwrap();
    *truth = ops::apply_delta(truth, &patch.to_csr()).unwrap();
    for part in (Update::Add {
        row: u,
        col: v,
        delta: w,
    })
    .sym_pair()
    {
        hub.update(tenant, part).unwrap();
    }
}

#[test]
fn four_tenant_hub_keeps_serving_during_background_refresh() {
    // Acceptance criterion: a 4-tenant mutation stream keeps serving
    // queries while one tenant's refresh decomposes in the background
    // (injected slow-decompose hook), every answer bit-matches a cold
    // decompose-and-multiply reference, and the swap commits afterwards.
    let n = 400;
    let a = dataset(n);
    let delay = Duration::from_millis(600);
    let mut hub = StreamHub::new(HubConfig {
        engine: hub_engine_config(),
        budget: StalenessBudget::nnz_cap(6),
        decompose_delay: Some(delay),
        ..HubConfig::default()
    })
    .unwrap();
    // All four tenants share content: bindings are isolated by salt,
    // the expensive decompose is shared by the cache.
    let tenants: Vec<TenantId> = (0..4).map(|_| hub.admit(a.clone()).unwrap()).collect();
    assert_eq!(hub.cache_stats().decompositions, 1);
    let mut truth: Vec<CsrMatrix<f64>> = vec![a.clone(); 4];

    // Trip tenant 0's budget: the rebuild launches and goes to sleep.
    for i in 0..4u32 {
        let (u, v) = ((13 * i + 1) % n, (13 * i + 1 + n / 2) % n);
        apply_sym(&mut hub, tenants[0], &mut truth[0], u, v, 1.0);
    }
    assert!(hub.refresh_pending(tenants[0]).unwrap());
    assert!(hub.tenant_stats(tenants[0]).unwrap().refreshing);

    // Serve a mutation + query burst on every tenant while the worker
    // sleeps: nothing may block on the decompose.
    let burst_start = arrow_matrix::obs::Stopwatch::start();
    let mut expected: Vec<(usize, Vec<f64>)> = Vec::new();
    for round in 0..2u32 {
        for (j, &t) in tenants.iter().enumerate() {
            if j > 0 {
                // Light mutations on the other tenants (below budget).
                let (u, v) = ((7 * round + j as u32) % n, (11 + round + j as u32) % n);
                apply_sym(&mut hub, t, &mut truth[j], u, v, 2.0);
            }
            let x: Vec<f64> = (0..n)
                .map(|r| (((round + j as u32 + 2 * r) % 9) as f64) - 4.0)
                .collect();
            hub.submit(t, x.clone(), 2, None).unwrap();
            expected.push((j, x));
        }
    }
    let responses = hub.flush().unwrap();
    let served = Duration::from_nanos(burst_start.elapsed_nanos());
    assert!(
        served < delay,
        "the burst must not block on the background decompose \
         (took {served:?} against a {delay:?} rebuild)"
    );
    assert_eq!(responses.len(), expected.len());
    for (resp, (j, x)) in responses.iter().zip(&expected) {
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let want = iterated_spmm(&truth[*j], &xm, 2).unwrap();
        assert_eq!(
            resp.y,
            want.data(),
            "tenant {j} answer during rebuild must bit-match the reference"
        );
    }

    // Commit the swap and verify the spliced state keeps serving exactly.
    hub.wait_refreshes().unwrap();
    assert_eq!(hub.version(tenants[0]).unwrap(), 1);
    assert_eq!(hub.stats().refreshes_completed, 1);
    assert_eq!(
        hub.cache_stats().decompositions,
        1,
        "the rebuild ran on the worker, not through the cache"
    );
    assert_eq!(hub.cache_stats().admitted, 1);
    for (j, &t) in tenants.iter().enumerate() {
        let x: Vec<f64> = (0..n).map(|r| ((r % 7) as f64) - 3.0).collect();
        let resp = hub.run_single(t, x.clone(), 1, None).unwrap();
        let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
        let want = iterated_spmm(&truth[j], &xm, 1).unwrap();
        assert_eq!(resp.y, want.data(), "tenant {j} answer after the swap");
    }
}

#[test]
fn mutations_during_rebuild_are_spliced_and_exact_after_swap() {
    // Acceptance criterion for the async swap: updates applied *during*
    // a background rebuild — including a second budget trip — are
    // answered exactly after the swap, and the re-trip is honoured at
    // commit instead of double-triggering mid-flight.
    let n = 300;
    let a = dataset(n);
    let mut hub = StreamHub::new(HubConfig {
        engine: hub_engine_config(),
        budget: StalenessBudget::nnz_cap(6),
        decompose_delay: Some(Duration::from_millis(150)),
        ..HubConfig::default()
    })
    .unwrap();
    let t = hub.admit(a.clone()).unwrap();
    let mut truth = a;

    // First trip: rebuild launches with the captured snapshot.
    for i in 0..4u32 {
        let (u, v) = ((5 * i + 2) % n, (5 * i + 2 + n / 3) % n);
        apply_sym(&mut hub, t, &mut truth, u, v, 1.0);
    }
    assert!(hub.tenant_stats(t).unwrap().refreshing);
    // Mid-rebuild: trip the budget again.
    for i in 0..5u32 {
        let (u, v) = ((9 * i + 4) % n, (9 * i + 4 + n / 4) % n);
        apply_sym(&mut hub, t, &mut truth, u, v, 3.0);
    }
    assert!(
        hub.tenant_stats(t).unwrap().suppressed_triggers >= 1,
        "the in-flight refresh must guard the second trip"
    );
    assert_eq!(hub.stats().refreshes_started, 1, "no double-launch");
    // Serving mid-rebuild covers base + captured + live layers.
    let x: Vec<f64> = (0..n).map(|r| (((3 * r) % 11) as f64) - 5.0).collect();
    let resp = hub.run_single(t, x.clone(), 2, None).unwrap();
    let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
    assert_eq!(resp.y, iterated_spmm(&truth, &xm, 2).unwrap().data());

    // Both swaps commit (the second launched at the first's commit).
    hub.wait_refreshes().unwrap();
    assert_eq!(hub.stats().refreshes_completed, 2);
    assert_eq!(hub.version(t).unwrap(), 2);
    assert_eq!(hub.delta_nnz(t).unwrap(), 0, "everything compacted");
    assert_eq!(
        ops::apply_delta(hub.base(t).unwrap(), &hub.delta(t).unwrap().to_csr()).unwrap(),
        truth,
        "the compacted base equals the mutated truth"
    );
    let x: Vec<f64> = (0..n).map(|r| ((r % 5) as f64) - 2.0).collect();
    let resp = hub.run_single(t, x.clone(), 2, None).unwrap();
    let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
    assert_eq!(resp.y, iterated_spmm(&truth, &xm, 2).unwrap().data());
}

#[test]
fn shared_refresh_budget_is_starvation_free() {
    // Tenancy fairness: under a shared refresh budget (one rebuild at a
    // time), a tenant that keeps re-tripping cannot starve the others —
    // every tenant with a tripped budget is granted within K = #tenants
    // slots, and per-tenant counters sum to the hub counters.
    let n = 64;
    let ring: CsrMatrix<f64> = arrow_matrix::graph::generators::basic::cycle(n).to_adjacency();
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            arrow_width: 16,
            target_ranks: 4,
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_cap(2),
        // Keep the first rebuild in flight while everything else queues,
        // so the grant order is deterministic.
        decompose_delay: Some(Duration::from_millis(100)),
        ..HubConfig::default()
    })
    .unwrap();
    let tenants: Vec<TenantId> = (0..6).map(|_| hub.admit(ring.clone()).unwrap()).collect();
    // Tenant 0 trips first (grant slot 1, rebuild in flight)…
    for i in 0..3u32 {
        hub.update(
            tenants[0],
            Update::Add {
                row: i,
                col: (i + 17) % n,
                delta: 1.0,
            },
        )
        .unwrap();
    }
    // …then re-trips immediately (guarded mid-flight, requeued at
    // commit), while every other tenant trips once.
    for i in 0..3u32 {
        hub.update(
            tenants[0],
            Update::Add {
                row: i + 30,
                col: (i + 47) % n,
                delta: 1.0,
            },
        )
        .unwrap();
    }
    for &t in &tenants[1..] {
        for i in 0..3u32 {
            hub.update(
                t,
                Update::Add {
                    row: i + 5,
                    col: (i + 23) % n,
                    delta: 1.0,
                },
            )
            .unwrap();
        }
    }
    while hub.wait_next_refresh().unwrap().is_some() {}
    // Tenant 0 refreshed twice: slots 1 and 7 (behind every waiter).
    let t0 = hub.tenant_stats(tenants[0]).unwrap();
    assert_eq!(t0.refreshes, 2);
    assert_eq!(t0.last_granted_slot, 7, "re-trip goes to the back");
    assert!(t0.suppressed_triggers >= 1);
    for (j, &t) in tenants.iter().enumerate().skip(1) {
        let s = hub.tenant_stats(t).unwrap();
        assert_eq!(s.refreshes, 1, "tenant {j} must not starve");
        assert!(
            (2..=6).contains(&s.last_granted_slot),
            "tenant {j} granted at slot {} — outside the K-slot bound",
            s.last_granted_slot
        );
    }
    // Per-tenant counters sum to hub counters.
    let hs = hub.stats().clone();
    let sum = |f: &dyn Fn(&arrow_matrix::stream::TenantStats) -> u64| -> u64 {
        tenants
            .iter()
            .map(|&t| f(&hub.tenant_stats(t).unwrap()))
            .sum()
    };
    assert_eq!(sum(&|s| s.updates), hs.updates);
    assert_eq!(sum(&|s| s.queries), hs.queries);
    assert_eq!(sum(&|s| s.refreshes), hs.refreshes_completed);
    assert_eq!(sum(&|s| s.suppressed_triggers), hs.suppressed_triggers);
    assert_eq!(sum(&|s| s.early_rebinds), hs.early_rebinds);
    assert_eq!(
        sum(&|s| s.splice.incremental_refreshes),
        hs.splice.incremental_refreshes
    );
    assert_eq!(
        sum(&|s| s.splice.fallback_refreshes),
        hs.splice.fallback_refreshes
    );
    assert_eq!(
        sum(&|s| s.splice.reused_vertices),
        hs.splice.reused_vertices
    );
    assert_eq!(
        sum(&|s| s.splice.refresh_total_vertices),
        hs.splice.refresh_total_vertices
    );
    assert_eq!(
        hs.splice.incremental_refreshes + hs.splice.fallback_refreshes,
        hs.refreshes_completed,
        "every completed refresh is incremental or a counted fallback"
    );
    assert_eq!(hs.refreshes_completed, 7);
}

#[test]
fn per_tenant_registry_sums_to_hub_registry() {
    // The same invariant as above, one layer down: in a metrics
    // snapshot the `hub.tenant.<id>.*` counters must sum to their
    // `hub.*` totals under multi-tenant async-refresh traffic — the
    // per-tenant handles and the hub handles are incremented at the
    // same sites, never independently.
    let n = 64;
    let ring: CsrMatrix<f64> = arrow_matrix::graph::generators::basic::cycle(n).to_adjacency();
    let mut hub = StreamHub::with_telemetry(
        HubConfig {
            engine: EngineConfig {
                arrow_width: 16,
                target_ranks: 4,
                ..EngineConfig::default()
            },
            budget: StalenessBudget::nnz_cap(2),
            ..HubConfig::default()
        },
        arrow_matrix::obs::Telemetry::new(),
    )
    .unwrap();
    let tenants: Vec<TenantId> = (0..4).map(|_| hub.admit(ring.clone()).unwrap()).collect();
    // Every tenant trips its budget twice and serves a few queries
    // while rebuilds run on the background worker.
    for round in 0..2u32 {
        for (j, &t) in tenants.iter().enumerate() {
            for i in 0..3u32 {
                hub.update(
                    t,
                    Update::Add {
                        row: (11 * round + 3 * j as u32 + i) % n,
                        col: (11 * round + 3 * j as u32 + i + 17) % n,
                        delta: 1.0,
                    },
                )
                .unwrap();
            }
            let x: Vec<f64> = (0..n).map(|r| ((r + j as u32) % 5) as f64).collect();
            hub.run_single(t, x, 1, None).unwrap();
        }
        hub.wait_refreshes().unwrap();
    }
    assert!(hub.stats().refreshes_completed >= tenants.len() as u64);

    let snap = hub.telemetry().registry.snapshot();
    let tenant_sum = |field: &str| -> u64 {
        tenants
            .iter()
            .map(|t| {
                snap.counter(&format!("hub.tenant.{}.{field}", t.0))
                    .unwrap_or(0)
            })
            .sum()
    };
    let hub_total = |name: &str| snap.counter(name).expect("hub counter registered");
    assert_eq!(tenant_sum("updates"), hub_total("hub.updates"));
    assert_eq!(tenant_sum("queries"), hub_total("hub.queries"));
    assert_eq!(
        tenant_sum("refreshes"),
        hub_total("hub.refreshes_completed")
    );
    assert_eq!(
        tenant_sum("suppressed_triggers"),
        hub_total("hub.suppressed_triggers")
    );
    assert_eq!(tenant_sum("early_rebinds"), hub_total("hub.early_rebinds"));
    assert_eq!(
        tenant_sum("splice.incremental_refreshes"),
        hub_total("hub.splice.incremental_refreshes")
    );
    assert_eq!(
        tenant_sum("splice.fallback_refreshes"),
        hub_total("hub.splice.fallback_refreshes")
    );
    assert_eq!(
        tenant_sum("splice.reused_vertices"),
        hub_total("hub.splice.reused_vertices")
    );
    // The folded per-tenant views read the very same counters.
    for &t in &tenants {
        let s = hub.tenant_stats(t).unwrap();
        assert_eq!(
            snap.counter(&format!("hub.tenant.{}.updates", t.0)),
            Some(s.updates)
        );
        assert_eq!(
            snap.counter(&format!("hub.tenant.{}.refreshes", t.0)),
            Some(s.refreshes)
        );
    }
}

// ---------------------------------------------------------------------------
// Incremental re-decomposition through the serving stack.
// ---------------------------------------------------------------------------

/// A ring with short chords: localized structure, several levels, and
/// predictable small affected regions for window-confined deltas.
fn banded(n: u32) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for v in 0..n {
        coo.push_sym(v, (v + 1) % n, 1.0).unwrap();
        coo.push_sym(v, (v + 4) % n, 1.0).unwrap();
    }
    coo.to_csr()
}

#[test]
fn hub_refresh_is_incremental_and_exact_including_mid_rebuild_mutations() {
    // The background worker splices instead of rebuilding: after the
    // swap the tenant's counters show an incremental refresh with a high
    // reused-vertex fraction, and every answer — before, during (i.e.
    // against base + captured + live delta layers), and after the swap —
    // bit-matches the mutated truth.
    let n = 600;
    let a = banded(n);
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            arrow_width: 8,
            target_ranks: 4,
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_cap(6),
        decompose_delay: Some(Duration::from_millis(120)),
        ..HubConfig::default()
    })
    .unwrap();
    let t = hub.admit(a.clone()).unwrap();
    let mut truth = a;

    // Localized mutations inside one window trip the budget.
    for i in 0..4u32 {
        apply_sym(&mut hub, t, &mut truth, 100 + 3 * i, 102 + 3 * i, 1.0);
    }
    assert!(hub.tenant_stats(t).unwrap().refreshing, "rebuild in flight");
    // Mid-rebuild mutations land in the live delta (same window).
    for i in 0..2u32 {
        apply_sym(&mut hub, t, &mut truth, 120 + 3 * i, 122 + 3 * i, 2.0);
    }
    // Serving mid-rebuild is exact.
    let x: Vec<f64> = (0..n).map(|r| (((2 * r) % 9) as f64) - 4.0).collect();
    let resp = hub.run_single(t, x.clone(), 2, None).unwrap();
    let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
    assert_eq!(
        resp.y,
        iterated_spmm(&truth, &xm, 2).unwrap().data(),
        "mid-rebuild answer"
    );

    hub.wait_refreshes().unwrap();
    let stats = hub.tenant_stats(t).unwrap().clone();
    assert!(
        stats.splice.incremental_refreshes >= 1,
        "localized delta must splice: {stats:?}"
    );
    assert_eq!(
        stats.splice.incremental_refreshes + stats.splice.fallback_refreshes,
        stats.refreshes
    );
    assert!(
        stats.splice.reused_vertex_fraction() > 0.5,
        "window-confined deltas must reuse most of the arrangement \
         (got {:.3})",
        stats.splice.reused_vertex_fraction()
    );
    // Post-swap serving is exact on the spliced binding.
    let x: Vec<f64> = (0..n).map(|r| ((r % 7) as f64) - 3.0).collect();
    let resp = hub.run_single(t, x.clone(), 2, None).unwrap();
    let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
    assert_eq!(resp.y, iterated_spmm(&truth, &xm, 2).unwrap().data());
}

#[test]
fn oversized_region_falls_back_cold_counted_and_exact() {
    // Acceptance criterion: affected region above the policy threshold →
    // automatic cold fallback, `fallback_refreshes` increments, results
    // stay exact.
    let n = 200;
    let a = banded(n);
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            arrow_width: 8,
            target_ranks: 4,
            // Any non-empty region exceeds a zero fraction: every
            // refresh attempts the incremental path and falls back.
            incremental: IncrementalPolicy {
                max_affected_fraction: 0.0,
                ..IncrementalPolicy::default()
            },
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_cap(3),
        async_refresh: false,
        ..HubConfig::default()
    })
    .unwrap();
    let t = hub.admit(a.clone()).unwrap();
    let mut truth = a;
    for i in 0..2u32 {
        apply_sym(&mut hub, t, &mut truth, 10 + i, 40 + i, 1.0);
    }
    let stats = hub.tenant_stats(t).unwrap();
    assert_eq!(stats.refreshes, 1);
    assert_eq!(
        stats.splice.fallback_refreshes, 1,
        "fallback must be counted"
    );
    assert_eq!(stats.splice.incremental_refreshes, 0);
    assert_eq!(hub.stats().splice.fallback_refreshes, 1);
    assert_eq!(stats.splice.reused_vertex_fraction(), 0.0);
    let x: Vec<f64> = (0..n).map(|r| ((r % 5) as f64) - 2.0).collect();
    let resp = hub.run_single(t, x.clone(), 2, None).unwrap();
    let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
    assert_eq!(resp.y, iterated_spmm(&truth, &xm, 2).unwrap().data());
}

#[test]
fn adaptive_budget_retunes_from_measured_refresh_latency() {
    // With an AdaptiveBudget policy, a completed refresh re-derives the
    // tenant's max_delta_nnz from measured refresh seconds vs the
    // predicted per-entry correction overhead — replacing the admitted
    // fixed cap.
    let n = 400;
    let policy = AdaptiveBudget::default();
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            arrow_width: 8,
            target_ranks: 4,
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_cap(4),
        adaptive: Some(policy),
        async_refresh: false,
        ..HubConfig::default()
    })
    .unwrap();
    let t = hub.admit(banded(n)).unwrap();
    assert_eq!(hub.budget(t).unwrap().max_delta_nnz, 4, "admitted cap");
    for i in 0..5u32 {
        hub.update(
            t,
            Update::Add {
                row: 50 + 2 * i,
                col: 53 + 2 * i,
                delta: 1.0,
            },
        )
        .unwrap();
    }
    let stats = hub.tenant_stats(t).unwrap().clone();
    assert_eq!(stats.refreshes, 1);
    let tuned = hub.budget(t).unwrap().max_delta_nnz;
    assert!(
        (policy.min_nnz..=policy.max_nnz).contains(&tuned),
        "derived budget {tuned} outside the clamp"
    );
    assert_eq!(
        stats.adaptive_budget_nnz, tuned as u64,
        "stats must mirror the derived budget"
    );
    // The other budget limits survive the retune untouched.
    assert!(hub.budget(t).unwrap().max_delta_fraction.is_infinite());
}

// ---------------------------------------------------------------------------
// Persistence catalog + tenant lifecycle: warm restarts, eviction GC.
// ---------------------------------------------------------------------------

fn catalog_payloads(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "amd"))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn warm_restart_from_catalog_bit_matches_cold_with_zero_decomposes() {
    // Acceptance criterion: a hub restarted over a populated catalog
    // serves identical answers on identical traffic with
    // `decompositions == 0`.
    let dir = std::env::temp_dir().join(format!("amd-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n = 500;
    let config = || HubConfig {
        engine: EngineConfig {
            spill_dir: Some(dir.clone()),
            ..hub_engine_config()
        },
        budget: StalenessBudget::nnz_cap(8),
        async_refresh: false,
        ..HubConfig::default()
    };
    let queries: Vec<Vec<f64>> = (0..4)
        .map(|q| (0..n).map(|r| (((q * 5 + r) % 9) as f64) - 4.0).collect())
        .collect();
    let drive = |hub: &mut StreamHub| -> Vec<Vec<f64>> {
        let t = hub.admit(dataset(n)).unwrap();
        let mut answers = Vec::new();
        for (i, x) in queries.iter().enumerate() {
            // Mutate between queries; the tight budget forces refreshes
            // that extend the tenant's catalog chain.
            let mut truth_unused = hub.base(t).unwrap().clone();
            apply_sym(hub, t, &mut truth_unused, i as u32, (i as u32) + n / 2, 1.0);
            answers.push(hub.run_single(t, x.clone(), 2, None).unwrap().y);
        }
        answers
    };
    // Cold: every decomposition computed, all written through.
    let cold_answers;
    {
        let mut hub = StreamHub::new(config()).unwrap();
        cold_answers = drive(&mut hub);
        assert!(hub.cache_stats().decompositions >= 1);
        assert!(!hub.catalog().unwrap().is_empty());
    }
    // Warm: a fresh hub over the same catalog replays identical
    // traffic — every decomposition reloads, zero are computed.
    let mut hub = StreamHub::new(config()).unwrap();
    let warm_answers = drive(&mut hub);
    assert_eq!(
        hub.cache_stats().decompositions,
        0,
        "warm restart must not run LA-Decompose"
    );
    assert!(hub.cache_stats().disk_loads >= 1);
    assert_eq!(warm_answers, cold_answers, "bit-identical serving");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evict_leaves_zero_orphaned_spill_files() {
    // Acceptance criterion: `StreamHub::evict` leaves zero orphaned
    // spill files — every payload in the catalog dir belongs to a
    // surviving tenant's chain, and evicting everyone empties it.
    let dir = std::env::temp_dir().join(format!("amd-evict-orphans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n = 400;
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            spill_dir: Some(dir.clone()),
            ..hub_engine_config()
        },
        budget: StalenessBudget::nnz_cap(4),
        async_refresh: false,
        ..HubConfig::default()
    })
    .unwrap();
    let a = hub.admit(dataset(n)).unwrap();
    let b = hub.admit(banded(n)).unwrap();
    // Grow both tenants' chains past their roots.
    let mut ta = hub.base(a).unwrap().clone();
    let mut tb = hub.base(b).unwrap().clone();
    for i in 0..6u32 {
        apply_sym(&mut hub, a, &mut ta, i, i + n / 3, 1.0);
        apply_sym(&mut hub, b, &mut tb, i, i + n / 4, 2.0);
    }
    hub.wait_refreshes().unwrap();
    let before = catalog_payloads(&dir);
    assert!(before >= 2, "both tenants persisted ({before} payloads)");
    assert_eq!(
        before,
        hub.catalog().unwrap().len(),
        "payloads and records agree before the evict"
    );
    // Evict tenant a: exactly its chain's payloads disappear.
    hub.evict(a).unwrap();
    let after = catalog_payloads(&dir);
    assert!(after < before, "evict must delete a's chain");
    assert_eq!(
        after,
        hub.catalog().unwrap().len(),
        "no payload without a record"
    );
    // Tenant b still serves — warm — and exactly.
    let x: Vec<f64> = (0..n).map(|r| ((r % 7) as f64) - 3.0).collect();
    let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
    let got = hub.run_single(b, x, 2, None).unwrap();
    assert_eq!(got.y, iterated_spmm(&tb, &xm, 2).unwrap().data());
    // Evicting the last tenant empties the catalog entirely.
    hub.evict(b).unwrap();
    assert_eq!(catalog_payloads(&dir), 0, "zero orphaned spill files");
    assert_eq!(hub.catalog().unwrap().len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evict_then_readmit_is_exact() {
    // Acceptance criterion: evicting a tenant and re-admitting the same
    // content serves bit-identical answers to an untouched tenant.
    let n = 400;
    let a = dataset(n);
    let mut hub = StreamHub::new(HubConfig {
        engine: hub_engine_config(),
        budget: StalenessBudget::nnz_cap(6),
        async_refresh: false,
        ..HubConfig::default()
    })
    .unwrap();
    let t1 = hub.admit(a.clone()).unwrap();
    let mut truth = a.clone();
    for i in 0..8u32 {
        apply_sym(&mut hub, t1, &mut truth, i, i + n / 2, 1.0);
    }
    let x: Vec<f64> = (0..n).map(|r| (((3 * r) % 11) as f64) - 5.0).collect();
    let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
    let before = hub.run_single(t1, x.clone(), 2, None).unwrap().y;
    assert_eq!(before, iterated_spmm(&truth, &xm, 2).unwrap().data());
    // Evict, re-admit the *mutated* content, replay the query.
    let final_stats = hub.evict(t1).unwrap();
    assert_eq!(final_stats.updates, 16, "8 symmetric pairs");
    let t2 = hub.admit(truth.clone()).unwrap();
    assert_ne!(t1, t2, "tenant ids are never recycled");
    let after = hub.run_single(t2, x, 2, None).unwrap().y;
    assert_eq!(after, before, "evict-then-readmit must be exact");
}

/// A path on `0..n-2` plus one vertex, `n-1`, that nothing touches:
/// level 0's active prefix does not hold it.
fn path_with_isolated_vertex(n: u32) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for v in 0..n - 2 {
        coo.push_sym(v, v + 1, 1.0).unwrap();
    }
    coo.to_csr()
}

fn four_rank_hub(async_refresh: bool, cap: usize) -> StreamHub {
    StreamHub::new(HubConfig {
        engine: EngineConfig {
            target_ranks: 4,
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_cap(cap),
        async_refresh,
        ..HubConfig::default()
    })
    .unwrap()
}

#[test]
fn attaching_an_isolated_vertex_refreshes_in_both_modes() {
    // The splice of this delta would hold vertex n-1 active at its last
    // level and at no earlier one; `ArrowSpmm::new` refuses that, so the
    // refresh used to fail at commit — on every later trip inline, and
    // silently (a `refresh_failures` count, the delta never compacted)
    // on the worker. It must be a counted cold fallback instead.
    let n = 600;
    for async_refresh in [false, true] {
        let mut hub = four_rank_hub(async_refresh, 1);
        let t = hub.admit(path_with_isolated_vertex(n)).unwrap();
        let mut truth = path_with_isolated_vertex(n);
        apply_sym(&mut hub, t, &mut truth, 300, n - 1, 2.0);
        hub.wait_refreshes().unwrap();
        let stats = hub.stats();
        assert_eq!(
            (stats.refreshes_completed, stats.refresh_failures),
            (1, 0),
            "async_refresh = {async_refresh}"
        );
        assert_eq!(stats.splice.fallback_refreshes, 1);
        assert_eq!(hub.version(t).unwrap(), 1);
        assert_eq!(hub.delta_nnz(t).unwrap(), 0, "the delta drained");
        assert_eq!(hub.base(t).unwrap(), &truth);
        let x: Vec<f64> = (0..n).map(|r| ((r % 7) as f64) - 3.0).collect();
        let resp = hub.run_single(t, x.clone(), 2, None).unwrap();
        let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
        assert_eq!(resp.y, iterated_spmm(&truth, &xm, 2).unwrap().data());
        assert_eq!(hub.engine_stats().corrected_runs, 0, "served off the base");
    }
}

#[test]
fn inline_and_worker_refreshes_are_one_pipeline() {
    // One update trace — localized chords, an isolated-vertex attach, a
    // deletion — replayed on a hub that builds inline and on one that
    // builds on its worker: `async_refresh` picks a thread, so after
    // every trip the two hubs must be in the same state, having decided
    // splice-or-cold the same way, and must have traced the same tree.
    let n = 600u32;
    let mut rng = ChaCha8Rng::seed_from_u64(0x0A11);
    let mut trace: Vec<(u32, u32, f64)> = (0..14)
        .map(|_| {
            let u = rng.gen_range(0..n - 40);
            (u, u + 1 + rng.gen_range(0..19), 1.0)
        })
        .collect();
    trace.insert(5, (300, n - 1, 2.0)); // attaches the isolated vertex
    trace.push((10, 11, -1.0)); // deletes a path edge

    let mut hubs = [four_rank_hub(false, 4), four_rank_hub(true, 4)];
    let tenants = hubs
        .each_mut()
        .map(|hub| hub.admit(path_with_isolated_vertex(n)).unwrap());
    let mut truth = path_with_isolated_vertex(n);
    for (step, &(u, v, w)) in trace.iter().enumerate() {
        let before = truth.clone();
        for (hub, &t) in hubs.iter_mut().zip(&tenants) {
            truth = before.clone();
            apply_sym(hub, t, &mut truth, u, v, w);
            hub.wait_refreshes().unwrap();
        }
        let [inline, worker] = &hubs;
        let [ti, tw] = tenants;
        let at = format!("after update {step}");
        assert_eq!(
            inline.version(ti).unwrap(),
            worker.version(tw).unwrap(),
            "{at}"
        );
        assert_eq!(inline.base(ti).unwrap(), worker.base(tw).unwrap(), "{at}");
        assert_eq!(
            inline.chosen_algorithm(ti).unwrap(),
            worker.chosen_algorithm(tw).unwrap(),
            "{at}"
        );
        assert_eq!(inline.stats().splice, worker.stats().splice, "{at}");
        let (ci, cw) = (inline.cache_stats(), worker.cache_stats());
        assert_eq!(
            (ci.decompositions, ci.admitted),
            (cw.decompositions, cw.admitted),
            "{at}"
        );
        let x: Vec<f64> = (0..n)
            .map(|r| (((r + step as u32) % 9) as f64) - 4.0)
            .collect();
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let want = iterated_spmm(&truth, &xm, 2).unwrap();
        for (hub, t) in hubs.iter_mut().zip(tenants) {
            let got = hub.run_single(t, x.clone(), 2, None).unwrap();
            assert_eq!(got.y, want.data(), "{at}");
        }
    }
    let splice = hubs[0].stats().splice;
    assert!(splice.incremental_refreshes >= 1, "{splice:?}");
    assert!(splice.fallback_refreshes >= 1, "the attach: {splice:?}");
    assert_eq!(hubs[0].stats().refresh_failures, 0);

    // The same span tree: every refresh a complete root covering one
    // decompose child.
    let trees = hubs.each_ref().map(|hub| {
        let events = hub.telemetry().tracer.snapshot();
        let roots: Vec<_> = events.iter().filter(|e| e.name == "refresh").collect();
        for root in &roots {
            assert!(root.detail.contains("committed"), "{:?}", root.detail);
            let children: Vec<_> = events
                .iter()
                .filter(|e| e.name == "decompose" && e.parent == root.id)
                .collect();
            assert_eq!(children.len(), 1, "one build per refresh");
            assert!(root.duration_nanos >= children[0].duration_nanos);
            assert!(events
                .iter()
                .any(|e| e.name == "grant" && e.parent == root.id));
            assert!(events
                .iter()
                .any(|e| matches!(e.name, "splice" | "fallback") && e.parent == root.id));
        }
        roots.len() as u64
    });
    assert_eq!(trees[0], trees[1]);
    assert_eq!(trees[0], hubs[0].stats().refreshes_completed);
}
