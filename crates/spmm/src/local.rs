//! Local: the `p = 1` member of the family — plain CSR × dense in shared
//! memory, with nothing to communicate.
//!
//! The decomposition buys *communication* for matrices spread over many
//! nodes; a matrix that lives in one process has none to save, so the
//! cheapest way to answer is the kernel every distributed algorithm runs
//! on its own tiles, applied to the whole matrix. One iteration is one
//! [`spmm::spmm_parallel`]: row blocks on the shared `amd-exec` pool for
//! operands large enough to repay the dispatch, the calling thread alone
//! below that. No machine is spun up, no rank thread is acquired and no
//! message exists, so the accounting is a single rank that carries only
//! charged compute.
//!
//! The intermediate iterates of a multi-iteration run are kept between
//! runs: a serving binding answers the same shape over and over, and on
//! the hosts measured first-touching a fresh `n × k` buffer costs more
//! than multiplying into a warm one. The kernel overwrites its output,
//! so stale content is harmless. Only the final iterate is allocated per
//! run — it is handed to the caller.

use crate::traits::{apply_sigma, CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{CostModel, MachineStats, RankStats};
use amd_sparse::{spmm, CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Shared-memory SpMM bound to a matrix: [`DistSpmm`] with one rank.
pub struct LocalSpmm {
    a: CsrMatrix<f64>,
    cost: CostModel,
    dtype: Dtype,
    /// Storage of the intermediate iterates, alternating: iterate `t`
    /// (1-based, `t < iters`) lives in slot `(t − 1) % 2`. A run holds
    /// the lock throughout, so concurrent runs on one binding take
    /// turns.
    iterates: Mutex<[Vec<f64>; 2]>,
}

impl LocalSpmm {
    /// Binds the square matrix `a` (copied: the binding owns what it
    /// multiplies by, like the tiles of its distributed siblings).
    pub fn new(a: &CsrMatrix<f64>) -> SparseResult<Self> {
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        Ok(Self {
            a: a.clone(),
            cost: CostModel::default(),
            dtype: Dtype::default(),
            iterates: Mutex::new([Vec::new(), Vec::new()]),
        })
    }

    /// Overrides the cost model (only its compute rate is ever charged).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Selects the serving precision of the multiply
    /// ([`spmm::spmm_acc_dtype`] semantics: `f32` products, `f64` sums).
    pub fn with_dtype(mut self, dtype: Dtype) -> Self {
        self.dtype = dtype;
        self
    }
}

impl DistSpmm for LocalSpmm {
    fn name(&self) -> String {
        "Local p=1".to_string()
    }

    fn ranks(&self) -> u32 {
        1
    }

    fn run_sigma(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        let n = self.a.rows();
        if x.rows() != n {
            return Err(SparseError::ShapeMismatch {
                left: (n, n),
                right: (x.rows(), x.cols()),
            });
        }
        let started = Instant::now();
        let k = x.cols();
        let y = if iters == 0 {
            x.clone()
        } else {
            // Any buffer content is a valid starting state (the kernel
            // overwrites), so a run that panicked under the lock leaves
            // nothing to repair.
            let mut kept = self.iterates.lock().unwrap_or_else(PoisonError::into_inner);
            let len = n as usize * k as usize;
            // Only the slots this run writes are sized (and so touched):
            // iterate `t` is an intermediate when `t < iters`.
            let mut slots = [0usize, 1].map(|slot| {
                let mut data = std::mem::take(&mut kept[slot]);
                if slot + 1 < iters as usize {
                    data.resize(len, 0.0);
                    DenseMatrix::from_vec(n, k, data).expect("resized to n × k")
                } else {
                    data.clear();
                    DenseMatrix::from_vec(0, 0, data).expect("emptied")
                }
            });
            let mut y = DenseMatrix::zeros(n, k);
            for step in 0..iters {
                let (even, odd) = slots.split_at_mut(1);
                let (from, to) = if step % 2 == 0 {
                    (&odd[0], &mut even[0])
                } else {
                    (&even[0], &mut odd[0])
                };
                let src = if step == 0 { x } else { from };
                let dst = if step + 1 == iters { &mut y } else { to };
                spmm::spmm_parallel(&self.a, src, dst, self.dtype)
                    .expect("operand and iterates are all n × k");
                apply_sigma(dst.data_mut(), sigma);
            }
            for (slot, used) in kept.iter_mut().zip(slots) {
                *slot = used.into_vec();
            }
            y
        };
        let compute = self.cost.compute_time(spmm::spmm_flops(&self.a, k)) * f64::from(iters);
        Ok(SpmmRun {
            y,
            stats: MachineStats {
                ranks: vec![RankStats {
                    sim_time: compute,
                    compute_time: compute,
                    ..RankStats::default()
                }],
                wall_seconds: started.elapsed().as_secs_f64(),
            },
            iters,
        })
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        vec![CommEstimate {
            max_rank_bytes: 0.0,
            max_rank_messages: 0.0,
            max_rank_flops: spmm::spmm_flops(&self.a, k),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::iterated_spmm;
    use amd_sparse::CooMatrix;

    /// `entries` stored values per non-empty row, on a row count that no
    /// block count divides; every 17th row is empty.
    fn matrix(n: u32, entries: u32, integer: bool) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for r in (0..n).filter(|r| r % 17 != 3) {
            for d in 0..entries {
                let c = (r * 7 + d * 131 + 1) % n;
                let v = ((r + 3 * d) % 5) as f64 - 2.0;
                coo.push(r, c, if integer { v } else { v / 7.0 + 0.05 })
                    .unwrap();
            }
        }
        coo.to_csr()
    }

    fn operand(n: u32, k: u32, integer: bool) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, k, |r, c| {
            let v = ((r * 5 + c * 3) % 7) as f64 - 3.0;
            if integer {
                v
            } else {
                v / 3.0
            }
        })
    }

    /// The serial statement of what a run computes, at either dtype.
    fn expected(
        a: &CsrMatrix<f64>,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
        dtype: Dtype,
    ) -> DenseMatrix<f64> {
        let mut cur = x.clone();
        for _ in 0..iters {
            let mut next = DenseMatrix::zeros(a.rows(), x.cols());
            spmm::spmm_acc_dtype(a, &cur, &mut next, dtype).unwrap();
            apply_sigma(next.data_mut(), sigma);
            cur = next;
        }
        cur
    }

    #[test]
    fn bit_matches_the_reference_either_side_of_the_work_threshold() {
        let relu: Sigma = |v| v.max(0.0);
        // 61 rows stay serial at every k; 1031 × 5 entries crosses the
        // threshold at k = 64 and stays below it at k = 1 and 3.
        for (n, entries) in [(61u32, 3u32), (1031, 5)] {
            for integer in [true, false] {
                let a = matrix(n, entries, integer);
                let local = LocalSpmm::new(&a).unwrap();
                let narrow = LocalSpmm::new(&a).unwrap().with_dtype(Dtype::F32);
                for k in [1u32, 3, 64] {
                    let x = operand(n, k, integer);
                    for iters in [0u32, 1, 3] {
                        let case = format!("n={n} integer={integer} k={k} iters={iters}");
                        let got = local.run(&x, iters).unwrap();
                        assert_eq!(got.y, iterated_spmm(&a, &x, iters).unwrap(), "{case}");
                        assert_eq!(got.iters, iters);
                        for sigma in [None, Some(relu)] {
                            for (algo, dtype) in [(&local, Dtype::F64), (&narrow, Dtype::F32)] {
                                let got = algo.run_sigma(&x, iters, sigma).unwrap();
                                let want = expected(&a, &x, iters, sigma, dtype);
                                assert_eq!(got.y, want, "{case} σ={} {dtype}", sigma.is_some());
                            }
                        }
                    }
                }
            }
        }
        let a = matrix(1031, 5, true);
        assert!(spmm::spmm_work(&a, 64) >= spmm::PARALLEL_MIN_WORK);
        assert!(spmm::spmm_work(&a, 3) < spmm::PARALLEL_MIN_WORK);
    }

    #[test]
    fn a_second_run_on_reused_buffers_equals_the_first() {
        let a = matrix(1031, 5, false);
        let local = LocalSpmm::new(&a).unwrap();
        let wide = operand(1031, 64, false);
        let first = local.run(&wide, 3).unwrap();
        // A narrower run in between leaves the kept buffers at another
        // shape and full of other values.
        let thin = operand(1031, 3, false);
        assert_eq!(
            local.run(&thin, 3).unwrap().y,
            iterated_spmm(&a, &thin, 3).unwrap()
        );
        let second = local.run(&wide, 3).unwrap();
        assert_eq!(first.y, second.y);
        assert_eq!(first.y, iterated_spmm(&a, &wide, 3).unwrap());
    }

    #[test]
    fn one_rank_charges_compute_and_nothing_else() {
        let a = matrix(61, 3, true);
        let cost = CostModel {
            alpha: 1.0,
            beta: 1.0,
            compute_rate: 1e6,
        };
        let local = LocalSpmm::new(&a).unwrap().with_cost(cost);
        assert_eq!(local.ranks(), 1);
        assert!(local.name().starts_with("Local"));
        let est = local.predict_volume(4);
        assert_eq!(est.max_rank_bytes, 0.0);
        assert_eq!(est.max_rank_messages, 0.0);
        assert_eq!(est.max_rank_flops, 2.0 * a.nnz() as f64 * 4.0);
        let run = local.run(&operand(61, 4, true), 3).unwrap();
        assert_eq!(run.stats.ranks.len(), 1);
        assert_eq!(run.stats.max_volume(), 0);
        assert_eq!(run.stats.max_messages(), 0);
        let rank = &run.stats.ranks[0];
        assert_eq!(rank.compute_time, rank.sim_time);
        let predicted = est.predicted_seconds(&cost);
        assert!((run.sim_time_per_iter() - predicted).abs() <= 1e-12 * predicted);
    }

    #[test]
    fn shape_mismatches_rejected() {
        let rect = CsrMatrix::<f64>::zeros(4, 5);
        assert!(LocalSpmm::new(&rect).is_err());
        let local = LocalSpmm::new(&matrix(61, 3, true)).unwrap();
        assert!(local.run(&DenseMatrix::zeros(60, 2), 1).is_err());
    }
}
