//! The default deployment end to end: an engine built from
//! `EngineConfig::default()` binds the one-rank `LocalSpmm`, answers
//! without ever starting a simulated machine, batches bit-exactly, and
//! serves a pending delta exactly as a cold rebuild would — and a hub
//! over it admits and refreshes without computing, caching or persisting
//! a decomposition, while a 16-rank hub on the same trace still does all
//! three.
//!
//! Lives in a test binary of its own: `amd_exec::global().stats()` is
//! process-wide, so the "no rank run happened" check only means something
//! while no other test runs ranks on the global pool. The failpoint
//! table is process-wide too: every hub test holds a fault-plan guard
//! for its whole body, so one test's worker kill cannot land in another
//! — and the rank-run check holds one as well, which keeps the 16-rank
//! hubs of this file off the pool while it counts.

use arrow_matrix::chaos::{failpoint, FaultPlan};
use arrow_matrix::engine::{Engine, EngineConfig, MatrixId, MultiplyQuery};
use arrow_matrix::graph::generators::rmat;
use arrow_matrix::sparse::{ops, CooMatrix, CsrMatrix, DeltaBuilder, DenseMatrix};
use arrow_matrix::spmm::reference::iterated_spmm;
use arrow_matrix::spmm::{DistSpmm, LocalSpmm};
use arrow_matrix::stream::{HubConfig, StalenessBudget, StreamHub, TenantId, Update};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};

/// 1 000 rows: 31 full blocks of the pack/unpack transpose and a ragged
/// one. Integer-valued (an adjacency matrix).
fn matrix() -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x10ca1);
    let g = rmat::rmat(10, 6, rmat::RmatParams::graph500(), &mut rng);
    let full: CsrMatrix<f64> = g.to_adjacency();
    let mut coo = CooMatrix::new(1000, 1000);
    for r in 0..1000 {
        for (&c, &v) in full.row_indices(r).iter().zip(full.row_values(r)) {
            if c < 1000 {
                coo.push(r, c, v).unwrap();
            }
        }
    }
    coo.to_csr()
}

fn column(n: u32, q: u32, integer: bool) -> Vec<f64> {
    (0..n)
        .map(|r| {
            let v = ((q * 13 + 3 * r) % 11) as f64 - 5.0;
            if integer {
                v
            } else {
                v / 7.0
            }
        })
        .collect()
}

fn query(matrix: MatrixId, x: Vec<f64>, iters: u32) -> MultiplyQuery {
    MultiplyQuery {
        matrix,
        x,
        iters,
        sigma: None,
    }
}

#[test]
fn default_engine_binds_local_and_runs_no_ranks() {
    let _exclusive = FaultPlan::new(0).arm();
    let a = matrix();
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register(&a).unwrap();
    let local = LocalSpmm::new(a.clone()).unwrap();
    assert_eq!(engine.chosen_algorithm(id), Some(local.name().as_str()));
    assert_eq!(engine.plan_report(id).unwrap().len(), 1);

    let before = arrow_matrix::exec::global().stats();
    for q in 0..5 {
        engine.submit(query(id, column(1000, q, true), 2)).unwrap();
    }
    let responses = engine.flush().unwrap();
    engine
        .run_single(query(id, column(1000, 9, true), 1))
        .unwrap();
    let after = arrow_matrix::exec::global().stats();
    assert_eq!(after.rank_runs, before.rank_runs, "a machine was started");
    assert_eq!(after.rank_threads_spawned, before.rank_threads_spawned);

    assert_eq!(responses.len(), 5);
    for (q, response) in responses.iter().enumerate() {
        let x = DenseMatrix::from_vec(1000, 1, column(1000, q as u32, true)).unwrap();
        assert_eq!(response.y, iterated_spmm(&a, &x, 2).unwrap().data());
    }
    assert_eq!(engine.stats().runs, 2);
}

#[test]
fn batched_answers_bit_match_single_runs_at_every_width() {
    let a = matrix();
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register(&a).unwrap();
    for width in [1u32, 3, 64] {
        // Non-integer operands: any change of summation order would show.
        let columns: Vec<Vec<f64>> = (0..width).map(|q| column(1000, q, false)).collect();
        let singles: Vec<Vec<f64>> = columns
            .iter()
            .map(|x| engine.run_single(query(id, x.clone(), 3)).unwrap().y)
            .collect();
        for x in &columns {
            engine.submit(query(id, x.clone(), 3)).unwrap();
        }
        let batched = engine.flush().unwrap();
        assert_eq!(batched.len(), width as usize);
        for (j, (response, single)) in batched.iter().zip(&singles).enumerate() {
            assert_eq!(response.batch_size, width as usize);
            let got: Vec<u64> = response.y.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "width {width}, column {j}");
        }
    }
}

#[test]
fn a_pending_delta_is_served_as_a_cold_rebuild_would() {
    let a = matrix();
    let mut delta = CooMatrix::new(1000, 1000);
    delta.push_sym(0, 500, 2.0).unwrap();
    delta.push_sym(7, 8, -1.0).unwrap();
    delta.push(999, 3, 4.0).unwrap();
    let delta = delta.to_csr();
    let merged = ops::apply_delta(&a, &delta).unwrap();

    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register(&a).unwrap();
    engine.set_delta(id, delta).unwrap();
    let mut rebuilt = Engine::new(EngineConfig::default()).unwrap();
    let rebuilt_id = rebuilt.register(&merged).unwrap();
    for iters in [1u32, 3] {
        for q in 0..4 {
            let x = column(1000, q, true);
            engine.submit(query(id, x.clone(), iters)).unwrap();
            rebuilt.submit(query(rebuilt_id, x, iters)).unwrap();
        }
        let corrected = engine.flush().unwrap();
        let cold = rebuilt.flush().unwrap();
        for (c, r) in corrected.iter().zip(&cold) {
            assert_eq!(c.y, r.y, "iters {iters}");
        }
    }
    assert_eq!(engine.stats().corrected_runs, 2);
}

/// A 256-row R-MAT adjacency scaled by `scale` (1 keeps it
/// integer-valued): small enough that a 16-rank plan stays at a few
/// dozen rank threads.
fn tenant_matrix(scale: f64) -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e4a);
    let g = rmat::rmat(8, 6, rmat::RmatParams::graph500(), &mut rng);
    let full: CsrMatrix<f64> = g.to_adjacency();
    let mut coo = CooMatrix::new(full.rows(), full.cols());
    for r in 0..full.rows() {
        for (&c, &v) in full.row_indices(r).iter().zip(full.row_values(r)) {
            coo.push(r, c, v * scale).unwrap();
        }
    }
    coo.to_csr()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amd-local-serving-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A hub whose refreshes are driven by the trace alone (explicit
/// `refresh`, background worker), with a catalog directory attached.
fn hub(target_ranks: u32, catalog: &Path) -> StreamHub {
    StreamHub::new(HubConfig {
        engine: EngineConfig {
            target_ranks,
            spill_dir: Some(catalog.to_path_buf()),
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_fraction(1e9),
        auto_refresh: false,
        async_refresh: true,
        ..HubConfig::default()
    })
    .unwrap()
}

/// One answer of a replayed trace, with what it was asked of.
struct Answer {
    /// The operator served at that moment: the tenant's base when
    /// nothing was pending, the trace's own update-by-update mirror
    /// otherwise (the same operator, merged in another order — equal
    /// bit for bit on integer data only).
    served: CsrMatrix<f64>,
    /// Nothing was pending: the binding alone produced the answer.
    settled: bool,
    x: Vec<f64>,
    iters: u32,
    y: Vec<f64>,
}

const ROUNDS: u32 = 3;

/// admit → `ROUNDS` × {updates, a request on the pending delta, refresh,
/// a request while the rebuild is in flight, settle, a request on the
/// fresh binding}. Each round's updates include a position added and
/// taken back (a delta entry that cancels to zero) and a stored entry of
/// the base set to zero (a merged entry that does). After each settle
/// the tenant's base must be exactly what `ops::apply_delta` makes of
/// the old base and the captured delta on the caller, and its binding
/// must sit under that matrix's fingerprint.
fn replay(hub: &mut StreamHub, scale: f64) -> (TenantId, Vec<Answer>) {
    let a = tenant_matrix(scale);
    let n = a.rows();
    let integer = scale == 1.0;
    let mut mirror = a.clone();
    let t = hub.admit(a).unwrap();
    let mut answers = Vec::new();
    let mut ask = |hub: &mut StreamHub, served: &CsrMatrix<f64>, q: u32, iters: u32| {
        let x = column(n, q, integer);
        let y = hub.run_single(t, x.clone(), iters, None).unwrap().y;
        answers.push(Answer {
            served: served.clone(),
            settled: hub.delta_nnz(t).unwrap() == 0,
            x,
            iters,
            y,
        });
    };
    for round in 0..ROUNDS {
        let stored_row = (0..n)
            .find(|&r| !hub.base(t).unwrap().row_indices(r).is_empty())
            .unwrap();
        let stored_col = hub.base(t).unwrap().row_indices(stored_row)[0];
        let mut adds: Vec<(u32, u32, f64)> = (0..6u32)
            .map(|i| {
                let (row, col) = ((round * 37 + i * 5) % n, (round * 11 + 3 * i + 1) % n);
                (row, col, (i + 1) as f64 * scale)
            })
            .collect();
        adds.push((5 + round, 9, 2.0 * scale));
        adds.push((5 + round, 9, -2.0 * scale));
        let mirror_add = |mirror: &CsrMatrix<f64>, row: u32, col: u32, delta: f64| {
            let mut patch = CooMatrix::new(n, n);
            patch.push(row, col, delta).unwrap();
            ops::apply_delta(mirror, &patch.to_csr()).unwrap()
        };
        for (row, col, delta) in adds {
            hub.update(t, Update::Add { row, col, delta }).unwrap();
            mirror = mirror_add(&mirror, row, col, delta);
        }
        hub.update(
            t,
            Update::Set {
                row: stored_row,
                col: stored_col,
                value: 0.0,
            },
        )
        .unwrap();
        let current = mirror.get(stored_row, stored_col);
        mirror = mirror_add(&mirror, stored_row, stored_col, -current);
        ask(hub, &mirror, 3 * round, 2);

        let expected =
            ops::apply_delta(hub.base(t).unwrap(), &hub.delta(t).unwrap().to_csr()).unwrap();
        assert!(hub.refresh(t).unwrap(), "round {round}: refresh launches");
        ask(hub, &mirror, 3 * round + 1, 1);
        hub.wait_refreshes().unwrap();
        assert_eq!(hub.delta_nnz(t).unwrap(), 0, "round {round}: drained");
        assert_eq!(hub.base(t).unwrap(), &expected, "round {round}: merge");
        // A cold registration of `expected` under the tenant's salt
        // lands on the tenant's id only if the fingerprint the commit
        // adopted is `expected`'s own.
        let mut cold = Engine::new(EngineConfig::default()).unwrap();
        assert_eq!(
            cold.register_salted(expected.clone(), t.0 as u128).unwrap(),
            hub.matrix_id(t).unwrap(),
            "round {round}: fingerprint"
        );
        ask(hub, &expected, 3 * round + 2, 3);
    }
    assert!(answers.iter().filter(|a| a.settled).count() >= ROUNDS as usize);
    (t, answers)
}

fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

fn payload_files(catalog: &Path) -> usize {
    std::fs::read_dir(catalog)
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".amd"))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn a_one_rank_hub_admits_and_refreshes_without_a_decomposition() {
    let _faults = FaultPlan::new(0).arm();
    for (name, scale) in [("integer", 1.0), ("fraction", 1.0 / 7.0)] {
        let catalog = scratch(&format!("one-rank-{name}"));
        let mut local = hub(1, &catalog);
        let (t, answers) = replay(&mut local, scale);

        let cache = local.cache_stats();
        assert_eq!(
            (cache.decompositions, cache.admitted, cache.spills),
            (0, 0, 0),
            "{name}"
        );
        assert_eq!(payload_files(&catalog), 0, "{name}: catalog stays empty");
        // Nothing of the many-rank arm exists: no catalog directory, no
        // catalog, no cache or catalog metric names.
        assert!(!catalog.exists(), "{name}: {} created", catalog.display());
        assert!(local.catalog().is_none(), "{name}");
        let snapshot = local.telemetry().registry.snapshot();
        let many_rank: Vec<&str> = snapshot
            .metrics()
            .iter()
            .map(|(metric, _)| metric.as_str())
            .filter(|m| {
                m.starts_with("cache.") || m.starts_with("catalog.") || *m == "decompose.seconds"
            })
            .collect();
        assert!(many_rank.is_empty(), "{name}: {many_rank:?} registered");
        let stats = local.stats();
        assert_eq!(stats.refreshes_completed, ROUNDS as u64, "{name}");
        assert_eq!(
            (stats.refresh_failures, stats.sync_fallbacks),
            (0, 0),
            "{name}: every refresh committed from the worker"
        );
        assert_eq!(stats.splice, Default::default(), "{name}: nothing spliced");
        assert!(local.version(t).unwrap() >= 2, "{name}");

        // A cold rebuild of the served matrix on a one-rank engine.
        for (i, answer) in answers.iter().enumerate() {
            let mut cold = Engine::new(EngineConfig::default()).unwrap();
            let id = cold.register(&answer.served).unwrap();
            let want = cold
                .run_single(query(id, answer.x.clone(), answer.iters))
                .unwrap()
                .y;
            if answer.settled {
                assert_eq!(bits(&answer.y), bits(&want), "{name}, answer {i}");
            } else if scale == 1.0 {
                assert_eq!(answer.y, want, "{name}, answer {i} (delta pending)");
            }
        }
        if scale == 1.0 {
            let wide_catalog = scratch("one-rank-vs-sixteen");
            let (_, wide) = replay(&mut hub(16, &wide_catalog), scale);
            assert_eq!(answers.len(), wide.len());
            for (i, (one, sixteen)) in answers.iter().zip(&wide).enumerate() {
                assert_eq!(one.y, sixteen.y, "answer {i}: 1 rank vs 16");
            }
            let _ = std::fs::remove_dir_all(&wide_catalog);
        }
        drop(local);
        let _ = std::fs::remove_dir_all(&catalog);
    }
}

#[test]
fn a_sixteen_rank_hub_still_decomposes_splices_and_persists() {
    let _faults = FaultPlan::new(0).arm();
    let catalog = scratch("sixteen-rank");
    let mut wide = hub(16, &catalog);
    let (t, answers) = replay(&mut wide, 1.0);
    for (i, answer) in answers.iter().enumerate() {
        let x = DenseMatrix::from_vec(answer.served.rows(), 1, answer.x.clone()).unwrap();
        let want = iterated_spmm(&answer.served, &x, answer.iters).unwrap();
        assert_eq!(answer.y, want.data(), "answer {i}");
    }
    let (cache, stats) = (wide.cache_stats(), wide.stats());
    assert_eq!(cache.decompositions, 1, "one cold decompose, at admit");
    assert_eq!(stats.refreshes_completed, ROUNDS as u64);
    assert_eq!(
        stats.splice.incremental_refreshes + stats.splice.fallback_refreshes,
        stats.refreshes_completed,
        "every committed refresh decomposed, one way or the other"
    );
    assert_eq!(
        cache.admitted, ROUNDS as u64,
        "each adopted from the worker"
    );
    // One catalog version at admit and one per commit, chained.
    assert_eq!(cache.spills, 1 + ROUNDS as u64);
    assert_eq!(payload_files(&catalog), 1 + ROUNDS as usize);
    let records = wide.catalog().expect("catalog attached").records();
    assert_eq!(records.len(), 1 + ROUNDS as usize);
    assert_eq!(records.iter().filter(|r| r.parent == 0).count(), 1);
    assert_eq!(wide.version(t).unwrap(), ROUNDS as u64);
    drop(wide);
    let _ = std::fs::remove_dir_all(&catalog);
}

/// A many-rank refresh has no "merged content is already cached"
/// shortcut before the build (the build touches no engine state, on
/// either thread): a tenant that returns to a state served before pays a
/// real decompose, and commit binds the decomposition the cache already
/// holds instead of the build's.
#[test]
fn a_sixteen_rank_tenant_returning_to_served_content_binds_the_cached_decomposition() {
    let _faults = FaultPlan::new(0).arm();
    let catalog = scratch("sixteen-rank-return");
    let mut wide = hub(16, &catalog);
    let a = tenant_matrix(1.0);
    let n = a.rows();
    let t = wide.admit(a.clone()).unwrap();
    let admitted_as = wide.matrix_id(t).unwrap();
    // Stored entries only, so that taking the change back restores the
    // structure as well as the values.
    let stored: Vec<(u32, u32)> = (0..n)
        .filter(|&r| !a.row_indices(r).is_empty())
        .take(5)
        .map(|r| (r, a.row_indices(r)[0]))
        .collect();
    let push = |hub: &mut StreamHub, delta: f64| {
        for &(row, col) in &stored {
            hub.update(t, Update::Add { row, col, delta }).unwrap();
        }
        assert!(hub.refresh(t).unwrap(), "refresh launches");
        assert_eq!(hub.wait_refreshes().unwrap(), 1);
    };
    push(&mut wide, 2.0);
    assert_ne!(wide.base(t).unwrap(), &a);
    let away = wide.cache_stats();
    assert_eq!((away.decompositions, away.admitted, away.spills), (1, 1, 2));

    push(&mut wide, -2.0);
    assert_eq!(wide.base(t).unwrap(), &a, "back at the admitted content");
    assert_eq!(
        wide.matrix_id(t).unwrap(),
        admitted_as,
        "and at the binding that content had"
    );
    assert_eq!(wide.version(t).unwrap(), 2, "the lineage still moved");
    // The worker decomposed; commit found the admit-time decomposition
    // resident and bound that one: nothing new admitted or persisted.
    let back = wide.cache_stats();
    assert_eq!(
        (back.decompositions, back.admitted, back.spills),
        (1, 1, 2),
        "the worker's decomposition is dropped at commit"
    );
    assert_eq!(back.hits, away.hits + 1, "commit hit the resident entry");
    assert_eq!(payload_files(&catalog), 2);
    // The hub's counters record what the worker did, once per commit.
    let stats = wide.stats();
    assert_eq!(stats.refreshes_completed, 2);
    assert_eq!(
        stats.splice.incremental_refreshes + stats.splice.fallback_refreshes,
        2,
        "the discarded decomposition's outcome is still counted"
    );
    assert_eq!((stats.refresh_failures, stats.sync_fallbacks), (0, 0));
    let x = column(n, 4, true);
    let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
    let got = wide.run_single(t, x, 2, None).unwrap();
    assert_eq!(got.y, iterated_spmm(&a, &xm, 2).unwrap().data());
    drop(wide);
    let _ = std::fs::remove_dir_all(&catalog);
}

#[test]
fn the_build_merges_and_fingerprints_as_the_caller_would() {
    let a = tenant_matrix(1.0 / 7.0);
    let n = a.rows();
    let stored_col = a.row_indices(0)[0];
    let mut edits = DeltaBuilder::new(n, n);
    // A new entry, a stored one changed, and a stored one cancelled to
    // exactly zero.
    edits.add(3, 200, 0.25).unwrap();
    edits.add(1, a.row_indices(1)[0], 1.0 / 3.0).unwrap();
    edits.add(0, stored_col, -a.row_values(0)[0]).unwrap();
    let delta = edits.to_csr();
    let merged = ops::apply_delta(&a, &delta).unwrap();
    assert_eq!(merged.get(0, stored_col), 0.0);

    for ranks in [1u32, 16] {
        let mut engine = Engine::new(EngineConfig {
            target_ranks: ranks,
            ..EngineConfig::default()
        })
        .unwrap();
        let old = engine.register(&a).unwrap();
        let ticket = engine.prepare_refresh(old, Some(&edits)).unwrap();
        // What a refresh worker runs, off the engine.
        let (built_matrix, built) = ticket.build(&a, &delta).unwrap();
        assert_eq!(built_matrix, merged, "{ranks} rank(s)");
        assert_eq!(built.fingerprint(), merged.fingerprint(), "{ranks} rank(s)");
        assert_eq!(built.outcome().is_some(), ranks > 1, "{ranks} rank(s)");
        let new = engine.commit_refresh(&ticket, built_matrix, built).unwrap();
        assert_eq!(engine.binding_fingerprint(new), Some(merged.fingerprint()));
        assert_eq!(engine.matrix_version(new), Some(1));
        assert_eq!(
            engine.cache_stats().decompositions + engine.cache_stats().admitted,
            if ranks > 1 { 2 } else { 0 },
            "{ranks} rank(s)"
        );
        // A build of another shape is refused before anything is hashed
        // into a binding.
        assert!(ticket
            .build(&CsrMatrix::zeros(4, 4), &CsrMatrix::zeros(4, 4))
            .is_err());
    }
}

#[test]
fn a_worker_death_at_one_rank_is_requeued_and_exact() {
    failpoint::quiet_injected_panics();
    let mut faults = FaultPlan::new(0).arm();
    let catalog = scratch("worker-death");
    let mut local = hub(1, &catalog);
    let a = tenant_matrix(1.0);
    let n = a.rows();
    let t = local.admit(a.clone()).unwrap();
    let mut delta = CooMatrix::new(n, n);
    for i in 0..5u32 {
        let (row, col) = (i * 7, (i * 13 + 100) % n);
        local
            .update(
                t,
                Update::Add {
                    row,
                    col,
                    delta: 2.0,
                },
            )
            .unwrap();
        delta.push(row, col, 2.0).unwrap();
    }
    let truth = ops::apply_delta(&a, &delta.to_csr()).unwrap();
    let exact = |hub: &mut StreamHub, q: u32| {
        let x = column(n, q, true);
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let got = hub.run_single(t, x, 2, None).unwrap();
        assert_eq!(got.y, iterated_spmm(&truth, &xm, 2).unwrap().data(), "{q}");
    };
    exact(&mut local, 0);

    FaultPlan::worker_kill(31).rearm(&mut faults);
    assert!(local.refresh(t).unwrap(), "refresh must launch");
    // Serving while the doomed build (and its retry) is in flight.
    exact(&mut local, 1);
    assert_eq!(local.wait_refreshes().unwrap(), 1, "the retry must commit");
    faults.disarm();

    let stats = local.stats();
    assert_eq!(stats.worker_restarts, 1, "one death, one respawn");
    assert_eq!(stats.refresh_retries, 1, "one requeue");
    assert_eq!(stats.sync_fallbacks, 0, "the retry succeeded");
    assert_eq!(stats.refreshes_completed, 1);
    assert_eq!(local.version(t).unwrap(), 1);
    assert_eq!(local.base(t).unwrap(), &truth);
    assert_eq!(local.cache_stats().decompositions, 0);
    exact(&mut local, 2);
    drop(local);
    let _ = std::fs::remove_dir_all(&catalog);
}
