//! Pooled execution: panic containment in a pool's rank slots, pool
//! lifecycle (drop and rebuild), and a kernel panic in the one loop. CI
//! runs this in release in its `exec-smoke` job.

use amd_comm::{run, CostModel, Group, Machine, Plan, Step};
use amd_exec::ExecPool;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A small SPMD program with real cross-rank traffic: ring exchange
/// plus an all-to-rank-0 gather, returning a per-rank checksum.
fn ring_program(machine: &Machine, p: u32, payload: usize) -> Vec<(f64, f64)> {
    let report = machine.run(|ctx| {
        let r = ctx.rank();
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        ctx.send(right, 0, vec![r as f64 + 0.25; payload]);
        let v: Vec<f64> = ctx.recv(left, 0);
        let sum: f64 = v.iter().sum();
        if r == 0 {
            let mut acc = sum;
            for peer in 1..p {
                let w: Vec<f64> = ctx.recv(peer, 1);
                acc += w[0];
            }
            acc
        } else {
            ctx.send(0, 1, vec![sum]);
            sum
        }
    });
    report
        .results
        .iter()
        .zip(&report.stats.ranks)
        .map(|(&y, s)| (y, s.sim_time))
        .collect()
}

/// A rank panic surfaces naming the rank and its message and does
/// NOT poison the shared pool: the same pool keeps serving runs, and
/// the surviving slots are reused rather than respawned.
#[test]
fn rank_panic_does_not_poison_the_pool() {
    let pool = ExecPool::new(4);
    let machine = Machine::new(4).with_exec(pool.clone());
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        machine.run(|ctx| {
            if ctx.rank() == 2 {
                panic!("injected rank failure");
            }
            ctx.rank()
        })
    }));
    let msg = *caught
        .expect_err("rank panic must propagate")
        .downcast::<String>()
        .unwrap();
    assert!(
        msg.contains("rank 2 panicked") && msg.contains("injected rank failure"),
        "panic must name the rank and keep its message: {msg}"
    );
    // The pool is still whole: subsequent runs succeed and reuse the
    // cached slots (panicked slots survive — the payload travelled out
    // through the result, not the thread).
    let spawned_before = pool.stats().rank_threads_spawned;
    for round in 0..3 {
        let report = machine.run(|ctx| ctx.rank() * 10);
        assert_eq!(report.results, vec![0, 10, 20, 30], "round {round}");
    }
    let stats = pool.stats();
    assert_eq!(
        stats.rank_threads_spawned, spawned_before,
        "post-panic runs must reuse cached slots, not respawn"
    );
    assert!(stats.rank_threads_reused >= 12, "3 runs × 4 ranks reused");
}

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned after ten seconds: the regression these tests guard against
/// is a run that never returns, which would otherwise stall the suite.
fn within_ten_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the run must return: a rank panic may not leave its peers waiting")
}

/// The message `run` panics with when `program` does, on a 4-rank
/// machine over `pool`.
fn run_panic_message(pool: &ExecPool, program: fn(&mut amd_comm::RankCtx)) -> String {
    let machine = Machine::new(4).with_exec(pool.clone());
    within_ten_seconds(move || {
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| machine.run(program)));
        *caught
            .expect_err("rank panic must propagate")
            .downcast::<String>()
            .unwrap()
    })
}

/// A rank that panics while peers wait on it — blocked in `recv`, or
/// inside a collective that needs its contribution — used to hang `run`
/// forever: every rank held a sender to every inbox, so no channel ever
/// closed. Now the run aborts: the waiters panic naming the dead rank,
/// `run` reports the original panic, and the slots go back to the cache.
#[test]
fn rank_panic_wakes_the_peers_that_wait_on_it() {
    let pool = ExecPool::new(2);
    // Peers blocked in a point-to-point receive from the dead rank.
    let msg = run_panic_message(&pool, |ctx| {
        if ctx.rank() == 2 {
            panic!("injected rank failure");
        }
        let _: Vec<f64> = ctx.recv(2, 1);
    });
    assert!(
        msg.contains("rank 2 panicked") && msg.contains("injected rank failure"),
        "the original panic must be the one reported: {msg}"
    );
    // Peers blocked inside a reduction the dead rank never joins; the
    // root is rank 0, so the lowest-numbered failure is a secondary one.
    let msg = run_panic_message(&pool, |ctx| {
        if ctx.rank() == 3 {
            panic!("injected before the reduce");
        }
        Group::world(ctx).reduce_sum(ctx, 0, vec![1.0; 8]);
    });
    assert!(
        msg.contains("rank 3 panicked") && msg.contains("injected before the reduce"),
        "the original panic must be the one reported: {msg}"
    );
    // The pool is whole: the next run on it succeeds on cached slots.
    let spawned_before = pool.stats().rank_threads_spawned;
    let machine = Machine::new(4).with_exec(pool.clone());
    let report = within_ten_seconds(move || {
        machine.run(|ctx| Group::world(ctx).reduce_sum(ctx, 0, vec![ctx.rank() as f64; 8]))
    });
    assert_eq!(report.results[0], Some(vec![6.0; 8]));
    assert_eq!(pool.stats().rank_threads_spawned, spawned_before);
}

/// A kernel that panics on one rank of a payload run surfaces to the
/// caller with its message, and the loop's pool keeps serving: the same
/// lists run again to the same answer.
#[test]
fn a_kernel_panic_in_the_loop_reaches_the_caller() {
    let ring = Plan::ring(4, 8);
    let members: Arc<[u32]> = (0..4).collect();
    let lists: Vec<[Step; 2]> = (0..4)
        .map(|r| {
            [
                Step::Compute(f64::from(r)),
                Step::run(&ring, &members, 0, None, 1, 1, 0),
            ]
        })
        .collect();
    let bufs = || {
        (0..4)
            .map(|r| [Arc::new(vec![f64::from(r); 8])])
            .collect::<Vec<_>>()
    };
    let cost = CostModel::default();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(&lists, 3, &cost, bufs(), |&rank, _| {
            assert!(rank != 2.0, "injected kernel failure");
        })
    }));
    let payload = caught.expect_err("a kernel panic must propagate");
    let msg = (payload.downcast_ref::<String>().cloned())
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("injected kernel failure"), "{msg}");
    for _ in 0..2 {
        let (_, sums) = run(&lists, 3, &cost, bufs(), |_, _| {});
        for sum in &sums {
            assert_eq!(*sum[0], vec![6.0 * 4.0 * 4.0; 8]);
        }
    }
}

/// Dropping a pool joins its threads; a rebuilt pool serves the same
/// machine configuration identically.
#[test]
fn pool_drop_and_rebuild_reproduces_results() {
    let first = {
        let pool = ExecPool::new(3);
        ring_program(&Machine::new(6).with_exec(pool), 6, 64)
        // pool dropped here: workers and rank slots join
    };
    let pool = ExecPool::new(3);
    let second = ring_program(&Machine::new(6).with_exec(pool), 6, 64);
    for ((fy, ft), (sy, st)) in first.iter().zip(&second) {
        assert_eq!(fy.to_bits(), sy.to_bits());
        assert_eq!(ft.to_bits(), st.to_bits());
    }
}
