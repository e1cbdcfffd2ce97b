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
//! A run ping-pongs between two `n × k` buffers: its operand's storage
//! and one spare the binding keeps between runs. A serving binding
//! answers the same shape over and over, and on the hosts measured
//! first-touching a fresh `n × k` buffer costs more than multiplying
//! into a warm one. The kernel overwrites its output, so stale content
//! is harmless. Through [`DistSpmm::run_owned`] the caller hands its
//! operand over and the answer comes back in one of the two buffers
//! (`x`'s own storage when `iters` is even), so a steady-state run
//! allocates nothing of size `n × k`; through
//! [`run_sigma`](DistSpmm::run_sigma) the borrowed operand is read in
//! place and only the buffer its answer is handed back in is fresh.

use crate::traits::{apply_sigma, CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{CostModel, MachineStats, RankStats};
use amd_sparse::{spmm, CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The operand of a run: borrowed from the caller, or handed over with
/// its storage.
pub(crate) enum Operand<'x> {
    Borrowed(&'x DenseMatrix<f64>),
    Owned(DenseMatrix<f64>),
}

impl Operand<'_> {
    pub(crate) fn get(&self) -> &DenseMatrix<f64> {
        match self {
            Operand::Borrowed(x) => x,
            Operand::Owned(x) => x,
        }
    }
}

/// A per-iteration correction `dst += f(src)`, applied after the base
/// product and before σ (how [`DeltaSpmm`](crate::DeltaSpmm) folds its
/// delta into a one-rank run).
pub(crate) type Correction<'c> =
    &'c dyn Fn(&DenseMatrix<f64>, &mut DenseMatrix<f64>) -> SparseResult<()>;

/// Shared-memory SpMM bound to a matrix: [`DistSpmm`] with one rank.
pub struct LocalSpmm {
    a: Arc<CsrMatrix<f64>>,
    cost: CostModel,
    dtype: Dtype,
    /// The spare iterate buffer: after a run, whichever of its two
    /// buffers does not hold the answer. Taken out for the run, so two
    /// concurrent runs on one binding never wait on each other (one of
    /// them sizes a buffer of its own).
    spare: Mutex<Vec<f64>>,
}

impl LocalSpmm {
    /// Binds the square matrix `a`, shared, not copied: a holder that
    /// keeps the matrix itself (a hub tenant's base) hands over an
    /// `Arc` of it, so the two are one allocation; an owned matrix is
    /// moved in.
    pub fn new(a: impl Into<Arc<CsrMatrix<f64>>>) -> SparseResult<Self> {
        let a = a.into();
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        Ok(Self {
            a,
            cost: CostModel::default(),
            dtype: Dtype::default(),
            spare: Mutex::new(Vec::new()),
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

    /// The one iteration loop behind every entry: `iters` steps of
    /// `dst ← σ(A·src + correct(src))`, each reading buffer 0 and writing
    /// buffer 1, after which the two swap. A handed-over operand starts
    /// as buffer 0 and the spare as buffer 1. A borrowed operand is read
    /// in place by the first step, which writes a fresh buffer 1 — so
    /// such a run allocates exactly the one buffer its answer may leave
    /// in. The answer ends in buffer 0; buffer 1 becomes the spare.
    pub(crate) fn iterate(
        &self,
        x: Operand<'_>,
        iters: u32,
        sigma: Option<Sigma>,
        correct: Option<Correction<'_>>,
    ) -> SparseResult<DenseMatrix<f64>> {
        let (n, k) = (self.a.rows(), x.get().cols());
        if x.get().rows() != n {
            return Err(SparseError::ShapeMismatch {
                left: (n, n),
                right: (x.get().rows(), k),
            });
        }
        let (first, mut bufs) = match x {
            Operand::Borrowed(x) if iters == 0 => return Ok(x.clone()),
            Operand::Owned(x) if iters == 0 => return Ok(x),
            Operand::Borrowed(x) => (Some(x), [self.take_spare(n, k), DenseMatrix::zeros(n, k)]),
            Operand::Owned(x) => (None, [x, self.take_spare(n, k)]),
        };
        for step in 0..iters {
            let [src, dst] = &mut bufs;
            let src = first.filter(|_| step == 0).unwrap_or(src);
            spmm::spmm_parallel(&self.a, src, dst, self.dtype)?;
            if let Some(correct) = correct {
                correct(src, dst)?;
            }
            apply_sigma(dst.data_mut(), sigma);
            bufs.swap(0, 1);
        }
        let [answer, spare] = bufs;
        *self.spare.lock().unwrap_or_else(PoisonError::into_inner) = spare.into_vec();
        Ok(answer)
    }

    /// The spare buffer as an `n × k` matrix. Any content is a valid
    /// starting state (the kernel overwrites), so a run that panicked
    /// while it held the buffer leaves nothing to repair.
    fn take_spare(&self, n: u32, k: u32) -> DenseMatrix<f64> {
        let mut data =
            std::mem::take(&mut *self.spare.lock().unwrap_or_else(PoisonError::into_inner));
        data.resize(n as usize * k as usize, 0.0);
        DenseMatrix::from_vec(n, k, data).expect("resized to n × k")
    }

    fn run_operand(
        &self,
        x: Operand<'_>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        let started = Instant::now();
        let k = x.get().cols();
        let y = self.iterate(x, iters, sigma, None)?;
        let mut stats = self.dry_run(k, iters);
        stats.wall_seconds = started.elapsed().as_secs_f64();
        Ok(SpmmRun { y, stats, iters })
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
        self.run_operand(Operand::Borrowed(x), iters, sigma)
    }

    fn run_owned(
        &self,
        x: DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        self.run_operand(Operand::Owned(x), iters, sigma)
    }

    fn as_local(&self) -> Option<&LocalSpmm> {
        Some(self)
    }

    /// The one rank is charged its compute, and nothing else.
    fn dry_run(&self, k: u32, iters: u32) -> MachineStats {
        let compute = self.cost.compute_time(spmm::spmm_flops(&self.a, k)) * f64::from(iters);
        MachineStats {
            ranks: vec![RankStats {
                sim_time: compute,
                compute_time: compute,
                ..RankStats::default()
            }],
            wall_seconds: 0.0,
        }
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        let max_rank_flops = spmm::spmm_flops(&self.a, k);
        vec![CommEstimate {
            max_rank_flops,
            ..CommEstimate::default()
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
                let local = LocalSpmm::new(a.clone()).unwrap();
                let narrow = LocalSpmm::new(a.clone()).unwrap().with_dtype(Dtype::F32);
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
        let local = LocalSpmm::new(a.clone()).unwrap();
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
        let local = LocalSpmm::new(a.clone()).unwrap().with_cost(cost);
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
        assert!(LocalSpmm::new(rect).is_err());
        let local = LocalSpmm::new(matrix(61, 3, true)).unwrap();
        assert!(local.run(&DenseMatrix::zeros(60, 2), 1).is_err());
    }
}
