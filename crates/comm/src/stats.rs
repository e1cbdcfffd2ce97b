//! Per-rank and whole-machine accounting.

/// Communication and time accounting for one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// Bytes sent (payload only).
    pub sent_bytes: u64,
    /// Bytes received.
    pub recv_bytes: u64,
    /// Messages sent.
    pub sent_msgs: u64,
    /// Messages received.
    pub recv_msgs: u64,
    /// Final simulated clock of the rank in seconds.
    pub sim_time: f64,
    /// Portion of the clock spent in charged compute.
    pub compute_time: f64,
    /// Portion of the clock spent waiting: the simulated time by which
    /// receives moved the clock forward to a message's arrival.
    pub wait_time: f64,
}

impl RankStats {
    /// Total bytes moved through this rank (sent + received).
    pub fn volume(&self) -> u64 {
        self.sent_bytes + self.recv_bytes
    }
}

/// Accounting for a whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// Per-rank breakdown, indexed by rank.
    pub ranks: Vec<RankStats>,
    /// Wall-clock seconds of the threaded execution (not simulated time).
    pub wall_seconds: f64,
}

impl MachineStats {
    /// The makespan of the simulated schedule: `max_r sim_time(r)`.
    pub fn sim_time(&self) -> f64 {
        self.ranks.iter().map(|r| r.sim_time).fold(0.0, f64::max)
    }

    /// The α-β *bandwidth cost*: largest per-rank communication volume
    /// (bytes), the quantity the paper's §6 bounds are about.
    pub fn max_volume(&self) -> u64 {
        self.ranks.iter().map(RankStats::volume).max().unwrap_or(0)
    }

    /// Largest per-rank message count.
    pub fn max_messages(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.sent_msgs + r.recv_msgs)
            .max()
            .unwrap_or(0)
    }

    /// Compute imbalance: max compute time / mean compute time (1.0 =
    /// perfectly balanced). Mirrors the GPU load imbalance discussion of
    /// §7.3.
    pub fn compute_imbalance(&self) -> f64 {
        if self.ranks.is_empty() {
            return 1.0;
        }
        let max = self
            .ranks
            .iter()
            .map(|r| r.compute_time)
            .fold(0.0, f64::max);
        let mean: f64 =
            self.ranks.iter().map(|r| r.compute_time).sum::<f64>() / self.ranks.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(pairs: &[(u64, u64, f64, f64)]) -> MachineStats {
        MachineStats {
            ranks: pairs
                .iter()
                .map(|&(s, r, t, c)| RankStats {
                    sent_bytes: s,
                    recv_bytes: r,
                    sent_msgs: 1,
                    recv_msgs: 1,
                    sim_time: t,
                    compute_time: c,
                    wait_time: 0.0,
                })
                .collect(),
            wall_seconds: 0.0,
        }
    }

    #[test]
    fn aggregates() {
        let m = stats(&[(10, 20, 1.0, 0.5), (40, 5, 2.0, 1.5)]);
        assert_eq!(m.sim_time(), 2.0);
        assert_eq!(m.max_volume(), 45);
        assert_eq!(m.max_messages(), 2);
        assert_eq!(m.compute_imbalance(), 1.5);
    }

    #[test]
    fn empty_machine() {
        let m = MachineStats::default();
        assert_eq!(m.sim_time(), 0.0);
        assert_eq!(m.max_volume(), 0);
        assert_eq!(m.compute_imbalance(), 1.0);
    }

    #[test]
    fn zero_compute_imbalance_defined() {
        let m = stats(&[(0, 0, 0.0, 0.0)]);
        assert_eq!(m.compute_imbalance(), 1.0);
    }
}
