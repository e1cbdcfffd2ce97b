//! The per-rank execution context.

use crate::cost::CostModel;
use crate::mailbox::PostOffice;
use crate::message::{Packet, Payload};
use crate::stats::RankStats;
use std::sync::Arc;

/// A rank's two simulated clocks and the α-β rules that advance them
/// under a machine's cost model. The machine's ranks run on one, and so
/// does each rank of a dry [`walk`](crate::walk), so the two cannot
/// disagree.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Clock {
    /// The CPU clock: the rank's simulated time.
    pub(crate) now: f64,
    /// Inbound-link clock: the NIC drains one message at a time, so a
    /// rank's aggregate incoming volume serialises at β bytes/s even when
    /// the CPU clock is ahead (single-port, full-duplex model).
    nic: f64,
}

impl Clock {
    /// A send of `bytes` occupies the sender for `α + β·bytes`; returns
    /// when it departed.
    pub(crate) fn send(&mut self, cost: &CostModel, bytes: usize) -> f64 {
        let depart = self.now;
        self.now += cost.transfer_time(bytes);
        depart
    }

    /// A message of `bytes` that departed at `depart` occupies the inbound
    /// link for `β·bytes` from no earlier than `depart + α`, and the CPU
    /// clock advances to its arrival; returns how far the clock moved, the
    /// time the rank waited.
    pub(crate) fn recv(&mut self, cost: &CostModel, depart: f64, bytes: usize) -> f64 {
        self.nic = (self.nic.max(depart + cost.alpha)) + cost.beta * bytes as f64;
        let before = self.now;
        self.now = self.now.max(self.nic);
        self.now - before
    }

    /// Charges `flops` of local work; returns its time.
    pub(crate) fn compute(&mut self, cost: &CostModel, flops: f64) -> f64 {
        let t = cost.compute_time(flops);
        self.now += t;
        t
    }
}

/// Handle a rank's program uses to communicate, charge compute, and read
/// its simulated clock.
pub struct RankCtx {
    rank: u32,
    p: u32,
    cost: CostModel,
    /// Every rank's inbox; this rank receives from its own.
    post: Arc<PostOffice>,
    clock: Clock,
    pub(crate) stats: RankStats,
}

impl RankCtx {
    pub(crate) fn new(rank: u32, p: u32, cost: CostModel, post: Arc<PostOffice>) -> Self {
        Self {
            rank,
            p,
            cost,
            post,
            clock: Clock::default(),
            stats: RankStats::default(),
        }
    }

    /// This rank's id in `0..p`.
    #[inline]
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in the machine.
    #[inline]
    pub fn p(&self) -> u32 {
        self.p
    }

    /// The machine's cost model.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Current simulated clock in seconds.
    #[inline]
    pub fn sim_time(&self) -> f64 {
        self.clock.now
    }

    /// Sends `data` to `to` with a user `tag` (tags with the top bit set
    /// are reserved for collectives). Never blocks; the sender's clock
    /// advances by `α + β·bytes` (single-port model).
    pub fn send<T: Payload>(&mut self, to: u32, tag: u64, data: T) {
        assert!(
            to < self.p,
            "send to rank {to} out of range (p = {})",
            self.p
        );
        let bytes = data.payload_bytes();
        let depart = self.clock.send(&self.cost, bytes);
        self.stats.sent_bytes += bytes as u64;
        self.stats.sent_msgs += 1;
        let pkt = Packet {
            src: self.rank,
            tag,
            bytes,
            depart,
            data: Box::new(data),
        };
        self.post.deliver(to, pkt);
    }

    /// Receives the next message from `from` with tag `tag`, blocking the
    /// OS thread until it arrives (and woken by no other arrival). If a
    /// rank's program has panicked and the message is not there, panics
    /// naming that rank instead of waiting for it forever.
    ///
    /// Timing: the message occupies the inbound link for `β·bytes`
    /// starting no earlier than `depart + α`, and inbound transfers
    /// serialise (single-port). The CPU clock advances to the completed
    /// arrival, so compute performed before this call overlaps with the
    /// transfer — as with nonblocking MPI — but a rank receiving from many
    /// peers still pays `β · total bytes` (the hot-spot behaviour that
    /// breaks 1D algorithms on star graphs).
    ///
    /// Panics if the payload type does not match the sender's.
    pub fn recv<T: Payload>(&mut self, from: u32, tag: u64) -> T {
        let pkt = self.post.take(self.rank, from, tag);
        self.stats.wait_time += self.clock.recv(&self.cost, pkt.depart, pkt.bytes);
        self.stats.recv_bytes += pkt.bytes as u64;
        self.stats.recv_msgs += 1;
        *pkt.data.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving (src={from}, tag={tag:#x})",
                self.rank
            )
        })
    }

    /// Charges `flops` of local computation to the simulated clock.
    pub fn compute_flops(&mut self, flops: f64) {
        self.stats.compute_time += self.clock.compute(&self.cost, flops);
    }

    pub(crate) fn finalize(mut self) -> RankStats {
        self.stats.sim_time = self.clock.now;
        std::mem::take(&mut self.stats)
    }
}

/// A context dropped because its rank's program is unwinding aborts the
/// run, so that no peer waits forever on a message the dead rank will
/// never send.
impl Drop for RankCtx {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.post.abort(self.rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn clock_advances_on_send_and_recv() {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.1,
            compute_rate: 1.0,
        };
        let report = Machine::new(2).with_cost(cost).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![0.0f64; 10]); // 80 bytes → 1 + 8 = 9 s
                ctx.sim_time()
            } else {
                let v: Vec<f64> = ctx.recv(0, 1);
                assert_eq!(v.len(), 10);
                ctx.sim_time()
            }
        });
        assert_eq!(report.results[0], 9.0); // sender occupied
        assert_eq!(report.results[1], 9.0); // depart 0 + 9
    }

    #[test]
    fn recv_models_overlap() {
        // Receiver computes 100 s before receiving a message that arrives
        // at t = 9 → clock stays at 100 (transfer hidden).
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.1,
            compute_rate: 1.0,
        };
        let report = Machine::new(2).with_cost(cost).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![0.0f64; 10]);
                0.0
            } else {
                ctx.compute_flops(100.0);
                let _: Vec<f64> = ctx.recv(0, 7);
                ctx.sim_time()
            }
        });
        assert_eq!(report.results[1], 100.0);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let report = Machine::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![10.0]);
                ctx.send(1, 2, vec![20.0]);
                0
            } else {
                // Receive in reverse tag order.
                let b: Vec<f64> = ctx.recv(0, 2);
                let a: Vec<f64> = ctx.recv(0, 1);
                assert_eq!((a, b), (vec![10.0], vec![20.0]));
                1
            }
        });
        assert_eq!(report.results, vec![0, 1]);
    }

    #[test]
    fn inbound_volume_serialises_at_receiver() {
        // A hot-spot rank receiving from many peers pays β·total even if
        // all senders depart simultaneously (single inbound port).
        let cost = CostModel {
            alpha: 0.0,
            beta: 1.0,
            compute_rate: 1.0,
        };
        let p = 8u32;
        let report = Machine::new(p).with_cost(cost).run(|ctx| {
            if ctx.rank() == 0 {
                for s in 1..p {
                    let _: Vec<f64> = ctx.recv(s, 0);
                }
                ctx.sim_time()
            } else {
                ctx.send(0, 0, vec![0.0f64; 10]); // 80 bytes each
                0.0
            }
        });
        // 7 messages × 80 bytes × β = 560 s of inbound occupancy.
        assert!(
            (report.results[0] - 560.0).abs() < 1e-9,
            "hot-spot time {}",
            report.results[0]
        );
    }

    #[test]
    fn same_tag_messages_keep_fifo_order() {
        // MPI non-overtaking: many messages with identical (src, tag) must
        // be received in send order even when other traffic interleaves
        // and forces buffering. Regression test for a swap_remove bug that
        // broke the ring all-reduce.
        let report = Machine::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..50u64 {
                    ctx.send(1, 9, vec![i as f64]); // same tag stream
                    ctx.send(1, 1000 + i, Vec::new()); // decoy traffic
                }
                Vec::new()
            } else {
                // Buffer everything by first receiving all decoys.
                for i in 0..50u64 {
                    let _: Vec<f64> = ctx.recv(0, 1000 + i);
                }
                (0..50).map(|_| ctx.recv::<Vec<f64>>(0, 9)[0]).collect()
            }
        });
        assert_eq!(
            report.results[1],
            (0..50).map(f64::from).collect::<Vec<_>>()
        );
    }

    #[test]
    fn self_send_works() {
        let report = Machine::new(1).run(|ctx| {
            ctx.send(0, 3, vec![5.0]);
            let v: Vec<f64> = ctx.recv(0, 3);
            v
        });
        assert_eq!(report.results, vec![vec![5.0]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        Machine::new(1).run(|ctx| {
            ctx.send(5, 0, Vec::new());
        });
    }

    #[test]
    fn stats_account_volume() {
        let report = Machine::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0.0; 25]); // 200 bytes
            } else {
                let _: Vec<f64> = ctx.recv(0, 0);
            }
        });
        assert_eq!(report.stats.ranks[0].sent_bytes, 200);
        assert_eq!(report.stats.ranks[1].recv_bytes, 200);
        assert_eq!(report.stats.max_volume(), 200);
    }
}
