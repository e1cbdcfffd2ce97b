//! The α-β cost model parameters.

/// Cost parameters of the simulated machine.
///
/// Defaults approximate the paper's testbed (Piz Daint, Aries
/// interconnect, P100 GPUs): 1 µs message latency, ~10 GB/s effective
/// per-link bandwidth, ~5 GFLOP/s effective sparse-kernel throughput
/// (SpMM is memory bound, so this is far below peak).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency α in seconds.
    pub alpha: f64,
    /// Per-byte transfer cost β in seconds (1 / bandwidth).
    pub beta: f64,
    /// Local compute throughput in flop/s used by
    /// [`compute_flops`](crate::RankCtx::compute_flops).
    pub compute_rate: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alpha: 1e-6,
            beta: 1e-10,
            compute_rate: 5e9,
        }
    }
}

impl CostModel {
    /// Cost of transferring one message of `bytes` bytes.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Time charged for `flops` floating-point operations.
    #[inline]
    pub fn compute_time(&self, flops: f64) -> f64 {
        flops / self.compute_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine() {
        let c = CostModel {
            alpha: 2.0,
            beta: 0.5,
            compute_rate: 1.0,
        };
        assert_eq!(c.transfer_time(0), 2.0);
        assert_eq!(c.transfer_time(10), 7.0);
    }

    #[test]
    fn compute_time_scales() {
        let c = CostModel {
            alpha: 0.0,
            beta: 0.0,
            compute_rate: 100.0,
        };
        assert_eq!(c.compute_time(500.0), 5.0);
    }

    #[test]
    fn defaults_are_sane() {
        let c = CostModel::default();
        assert!(c.alpha > 0.0 && c.beta > 0.0 && c.compute_rate > 0.0);
        // 1 MB at 10 GB/s ≈ 0.1 ms ≫ α.
        assert!(c.transfer_time(1_000_000) > 10.0 * c.alpha);
    }
}
