//! The machine: runs an SPMD closure on `p` ranks, collects stats.
//!
//! Ranks execute on cached rank-slot threads of the process-global
//! [`amd_exec::ExecPool`], because a closure's receive blocks its
//! thread. Only closure programs run here — the benchmark's
//! communication probe and the crate's tests; step lists run in the one
//! loop of [`steps`](crate::steps), with no thread per rank. Results,
//! per-rank simulated clocks, and message accounting do not depend on
//! which thread runs which rank: the clocks are purely logical (derived
//! from message sizes and the cost model, never from the OS scheduler).

use crate::cost::CostModel;
use crate::mailbox::PostOffice;
use crate::rank::RankCtx;
use crate::stats::{MachineStats, RankStats};
use amd_obs::Stopwatch;
use std::sync::Arc;

/// A `p`-rank message-passing machine.
#[derive(Debug, Clone)]
pub struct Machine {
    p: u32,
    cost: CostModel,
}

/// Results and accounting of one run.
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank and aggregate accounting.
    pub stats: MachineStats,
}

impl Machine {
    /// A machine with `p ≥ 1` ranks and the default cost model.
    pub fn new(p: u32) -> Self {
        assert!(p >= 1, "machine needs at least one rank");
        Self {
            p,
            cost: CostModel::default(),
        }
    }

    /// Overrides the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Runs `program` on every rank (SPMD) and joins.
    ///
    /// Each rank executes on its own OS thread (a cached pool slot). A
    /// rank program that panics aborts the run: a peer that waits on a
    /// message, then or later, panics too instead of waiting forever,
    /// and once every rank has returned `run` panics with
    /// `"rank r panicked: …"` for the rank that died first.
    pub fn run<T, F>(&self, program: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        let p = self.p as usize;
        let post = Arc::new(PostOffice::new(p));
        let pool = amd_exec::global();
        let start = Stopwatch::start();
        let spmd = &program;
        let tasks: Vec<Box<dyn FnOnce() -> (T, RankStats) + Send + '_>> = (0..p as u32)
            .map(|r| {
                let post = Arc::clone(&post);
                let cost = self.cost;
                Box::new(move || {
                    // Dropped by an unwinding program, `ctx` aborts the run.
                    let mut ctx = RankCtx::new(r, p as u32, cost, post);
                    let out = spmd(&mut ctx);
                    (out, ctx.finalize())
                }) as Box<dyn FnOnce() -> (T, RankStats) + Send + '_>
            })
            .collect();
        let mut outcomes = pool.run_tasks(tasks);
        let wall_seconds = start.elapsed_seconds();
        // The rank that died first, not a peer it took down with it.
        if let Some(r) = post.first_dead() {
            let e = outcomes
                .swap_remove(r as usize)
                .err()
                .expect("a rank that unwound returns its panic");
            std::panic::resume_unwind(Box::new(format!(
                "rank {r} panicked: {}",
                panic_message(&*e)
            )));
        }
        let mut results = Vec::with_capacity(p);
        let mut ranks = Vec::with_capacity(p);
        for outcome in outcomes {
            let (out, stats) = outcome.expect("no rank unwound");
            results.push(out);
            ranks.push(stats);
        }
        RunReport {
            results,
            stats: MachineStats {
                ranks,
                wall_seconds,
            },
        }
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let report = Machine::new(4).run(|ctx| (ctx.rank(), ctx.p()));
        for (r, &(rank, p)) in report.results.iter().enumerate() {
            assert_eq!(rank as usize, r);
            assert_eq!(p, 4);
        }
    }

    #[test]
    fn ring_pass_accumulates() {
        // Token passed around a ring, each rank adds its id.
        let p = 8u32;
        let report = Machine::new(p).run(|ctx| {
            let r = ctx.rank();
            if r == 0 {
                ctx.send(1, 0, vec![0.0]);
                let total: Vec<f64> = ctx.recv(p - 1, 0);
                total[0]
            } else {
                let acc: Vec<f64> = ctx.recv(r - 1, 0);
                ctx.send((r + 1) % p, 0, vec![acc[0] + f64::from(r)]);
                0.0
            }
        });
        assert_eq!(report.results[0], 28.0);
        // Latency chain: p sequential messages → sim time ≥ p · α.
        let alpha = CostModel::default().alpha;
        assert!(report.stats.sim_time() >= p as f64 * alpha);
    }

    #[test]
    fn deterministic_sim_times() {
        let run = || {
            Machine::new(6)
                .run(|ctx| {
                    let r = ctx.rank();
                    // Everyone sends to rank 0, rank 0 replies.
                    if r == 0 {
                        for s in 1..6 {
                            let _: Vec<f64> = ctx.recv(s, 1);
                        }
                        for s in 1..6 {
                            ctx.send(s, 2, vec![1.0]);
                        }
                    } else {
                        ctx.send(0, 1, vec![0.0f64; r as usize * 10]);
                        let _: Vec<f64> = ctx.recv(0, 2);
                    }
                    ctx.sim_time()
                })
                .results
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wall_time_recorded() {
        let report = Machine::new(2).run(|_| ());
        assert!(report.stats.wall_seconds >= 0.0);
        assert_eq!(report.stats.ranks.len(), 2);
    }

    #[test]
    fn large_rank_count_smoke() {
        let report = Machine::new(64).run(|ctx| {
            // Nearest-neighbour exchange.
            let r = ctx.rank();
            let right = (r + 1) % 64;
            let left = (r + 63) % 64;
            ctx.send(right, 0, vec![f64::from(r)]);
            let v: Vec<f64> = ctx.recv(left, 0);
            v[0]
        });
        assert_eq!(report.results[1], 0.0);
        assert_eq!(report.results[0], 63.0);
    }
}
