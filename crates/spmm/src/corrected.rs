//! The delta-corrected multiply path of the streaming subsystem.
//!
//! A served matrix that mutates between queries is represented as
//! `A = A₀ + ΔA`: a decomposed base plus a sparse COO/CSR patch. Instead
//! of re-decomposing after every update, [`DeltaSpmm`] answers iterated
//! multiplies as the *base* algorithm on `A₀` with a per-iteration delta
//! correction:
//!
//! ```text
//! X_{t+1} = σ( base(A₀, X_t)  +  ΔA · X_t )
//! ```
//!
//! The correction must be applied inside every iteration (not once at the
//! end): `(A₀ + ΔA)² ≠ A₀² + ΔA²`, and σ is non-linear. The reduction
//! order is **fixed**: the base contribution is computed first, then the
//! delta product (row-major, ascending columns — the same order as the
//! serial reference kernel) is added element-wise. For exactly
//! representable data (integer-valued matrices and operands, the common
//! case for adjacency-backed workloads) the result is bit-identical to a
//! cold decompose-and-multiply of the rebuilt matrix `A₀ + ΔA`; for
//! general floats it agrees to rounding, deterministically.
//!
//! Cost accounting models the correction as a **broadcast-replicated
//! post-pass**: each iteration, the delta (16 bytes per entry: two `u32`
//! coordinates + one `f64` value, i.e. two `f64` slots) is broadcast from
//! rank 0 to all ranks of the base plan under the plan
//! [`amd_comm::Collective::pick`] selects for it, and every rank corrects
//! its own output rows. Each rank is charged, on top of the base's
//! iteration, what the dry walk of that broadcast run alone gives it
//! ([`amd_comm::Plan::alone`]: its bytes, messages and clock, on the
//! machine's own α-β rules) and the delta product's flops (the work is
//! replicated): `sim_time = base + broadcast + compute`. [`dry_run`]
//! charges the same without running the base, and [`predict_ranks`] adds
//! the same bytes, messages and flops to the base's, so prediction and
//! accounting agree rank by rank. This is the honest upper envelope for a
//! wrapper that cannot see the base algorithm's row ownership; it makes
//! the predicted cost grow with delta density, which is exactly the signal
//! the staleness budget and the planner need. A one-rank base
//! (`LocalSpmm`) has nobody to broadcast to: its one-member plan has no
//! step, so its correction is charged flops only.
//!
//! [`predict_ranks`]: DistSpmm::predict_ranks
//! [`dry_run`]: DistSpmm::dry_run
//!
//! The correction always runs in `f64`, even when the wrapped base serves
//! at `f32` half bandwidth: the delta product is the exactness-critical
//! path (its fixed reduction order is what makes corrected answers
//! bit-identical to a cold rebuild on integer data), and a delta is tiny
//! relative to the base, so narrowing it would save nothing measurable.

use crate::local::{LocalSpmm, Operand};
use crate::traits::{apply_sigma, CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{Collective, CostModel, MachineStats, RankStats};
use amd_sparse::spmm::{self, Finish};
use amd_sparse::{CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};
use std::time::Instant;

/// `f64` slots on the wire per delta entry (row `u32` + col `u32` + value
/// `f64`: 16 bytes).
const DELTA_ENTRY_SLOTS: usize = 2;

/// A [`DistSpmm`] decorator that serves `A₀ + ΔA` as the wrapped base
/// algorithm plus a per-iteration delta correction. See the
/// [module docs](self) for semantics and accounting.
pub struct DeltaSpmm<'a> {
    base: &'a (dyn DistSpmm + Send + Sync),
    delta: &'a CsrMatrix<f64>,
    cost: CostModel,
    /// The delta's broadcast over the base plan's ranks.
    broadcast: Collective,
}

impl<'a> DeltaSpmm<'a> {
    /// Wraps `base` (bound to the `n × n` base matrix `A₀`) with the
    /// correction `delta`, which must also be `n × n`.
    pub fn new(
        base: &'a (dyn DistSpmm + Send + Sync),
        delta: &'a CsrMatrix<f64>,
    ) -> SparseResult<Self> {
        if delta.rows() != delta.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (delta.rows(), delta.cols()),
                right: (delta.cols(), delta.rows()),
            });
        }
        Ok(Self {
            base,
            delta,
            cost: CostModel::default(),
            broadcast: Collective::broadcast(base.ranks().max(1) as usize, delta.nnz(), None),
        })
    }

    /// Overrides the cost model used to charge the correction.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Stored entries of the correction.
    pub fn delta_nnz(&self) -> usize {
        self.delta.nnz()
    }

    /// Per-iteration charge of the correction for a `k`-column operand
    /// (see the [module docs](self) for the model): what the delta's
    /// broadcast charges each rank of the base plan when it runs alone —
    /// its bytes, messages and clock — and the flops every rank spends on
    /// the delta product.
    fn correction(&self, k: u32) -> (MachineStats, f64) {
        let plan = self.broadcast.pick(DELTA_ENTRY_SLOTS, &self.cost);
        let broadcast = plan.alone(DELTA_ENTRY_SLOTS, &self.cost);
        (broadcast, spmm::spmm_flops(self.delta, k))
    }

    fn check(&self, x: &DenseMatrix<f64>) -> SparseResult<()> {
        if self.delta.rows() != x.rows() {
            return Err(SparseError::ShapeMismatch {
                left: (self.delta.rows(), self.delta.cols()),
                right: (x.rows(), x.cols()),
            });
        }
        Ok(())
    }

    /// `y += ΔA · x` in the fixed reduction order: each delta row's
    /// product summed from `+0.0` in ascending column order (the serial
    /// reference order), then added onto the base result in one step.
    /// Only the delta's non-empty rows are touched: an empty row would
    /// add `+0.0`, and the base result — itself summed from `+0.0` — is
    /// never `−0.0`, the one value that addition would change.
    fn fold(&self, x: &DenseMatrix<f64>, y: &mut DenseMatrix<f64>) -> SparseResult<()> {
        spmm::spmm_slices(
            self.delta,
            x.data(),
            x.cols(),
            None,
            y.data_mut(),
            Finish::Fold,
            Dtype::F64,
        )
    }

    /// Adds one iteration to `stats`: the base run's accounting `step`,
    /// then the correction's charge ([`correction`](Self::correction)).
    fn charge(
        &self,
        stats: &mut MachineStats,
        step: &MachineStats,
        (broadcast, flops): &(MachineStats, f64),
    ) {
        stats.ranks.resize(step.ranks.len(), RankStats::default());
        stats.wall_seconds += step.wall_seconds;
        let compute = self.cost.compute_time(*flops);
        for ((acc, r), b) in stats
            .ranks
            .iter_mut()
            .zip(&step.ranks)
            .zip(&broadcast.ranks)
        {
            acc.sent_bytes += r.sent_bytes + b.sent_bytes;
            acc.recv_bytes += r.recv_bytes + b.recv_bytes;
            acc.sent_msgs += r.sent_msgs + b.sent_msgs;
            acc.recv_msgs += r.recv_msgs + b.recv_msgs;
            acc.sim_time = acc.sim_time + r.sim_time + b.sim_time + compute;
            acc.compute_time = acc.compute_time + r.compute_time + compute;
            acc.wait_time = acc.wait_time + r.wait_time + b.wait_time;
        }
    }

    /// A one-rank base: the delta is folded in inside the base's own
    /// iteration loop, so the run ping-pongs between the same two
    /// buffers as an uncorrected one.
    fn run_local(
        &self,
        local: &LocalSpmm,
        x: Operand<'_>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        let started = Instant::now();
        let k = x.get().cols();
        let y = local.iterate(x, iters, sigma, Some(&|x, y| self.fold(x, y)))?;
        let mut stats = self.dry_run(k, iters);
        stats.wall_seconds = started.elapsed().as_secs_f64();
        Ok(SpmmRun { y, stats, iters })
    }

    /// A distributed base: one base run per iteration (σ deferred: the
    /// activation must see the corrected sum), then the fold.
    fn run_distributed(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        // The operand of an iteration: the caller's `x`, then the
        // previous iteration's output.
        let mut cur: Option<DenseMatrix<f64>> = None;
        let mut stats = MachineStats::default();
        let correction = self.correction(x.cols());
        for _ in 0..iters {
            let src = cur.as_ref().unwrap_or(x);
            let step = self.base.run(src, 1)?;
            let mut y = step.y;
            self.fold(src, &mut y)?;
            apply_sigma(y.data_mut(), sigma);
            self.charge(&mut stats, &step.stats, &correction);
            cur = Some(y);
        }
        Ok(SpmmRun {
            y: cur.unwrap_or_else(|| x.clone()),
            stats,
            iters,
        })
    }
}

impl DistSpmm for DeltaSpmm<'_> {
    fn name(&self) -> String {
        format!("{} + Δ(nnz={})", self.base.name(), self.delta.nnz())
    }

    fn ranks(&self) -> u32 {
        self.base.ranks()
    }

    fn run_sigma(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        self.check(x)?;
        if self.delta.nnz() == 0 {
            // Nothing pending: the base path (including its internal σ
            // handling) answers directly.
            return self.base.run_sigma(x, iters, sigma);
        }
        match self.base.as_local() {
            Some(local) => self.run_local(local, Operand::Borrowed(x), iters, sigma),
            None => self.run_distributed(x, iters, sigma),
        }
    }

    fn run_owned(
        &self,
        x: DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        self.check(&x)?;
        if self.delta.nnz() == 0 {
            return self.base.run_owned(x, iters, sigma);
        }
        match self.base.as_local() {
            Some(local) => self.run_local(local, Operand::Owned(x), iters, sigma),
            None => self.run_distributed(&x, iters, sigma),
        }
    }

    /// The base's one iteration, and the correction's charge, per
    /// iteration.
    fn dry_run(&self, k: u32, iters: u32) -> MachineStats {
        if self.delta.nnz() == 0 {
            return self.base.dry_run(k, iters);
        }
        let (step, correction) = (self.base.dry_run(k, 1), self.correction(k));
        let mut stats = MachineStats::default();
        for _ in 0..iters {
            self.charge(&mut stats, &step, &correction);
        }
        stats
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        let mut ranks = self.base.predict_ranks(k);
        if self.delta.nnz() == 0 {
            return ranks;
        }
        let (broadcast, flops) = self.correction(k);
        for (rank, b) in ranks.iter_mut().zip(&broadcast.ranks) {
            rank.max_rank_bytes += b.volume() as f64;
            rank.max_rank_messages += (b.sent_msgs + b.recv_msgs) as f64;
            rank.max_rank_flops += flops;
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrow::ArrowSpmm;
    use crate::local::LocalSpmm;
    use crate::reference::iterated_spmm;
    use amd_graph::generators::basic;
    use amd_sparse::{ops, CooMatrix};
    use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};

    fn base_setup(n: u32) -> (CsrMatrix<f64>, ArrowSpmm) {
        let a: CsrMatrix<f64> = basic::cycle(n).to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(8),
            &mut RandomForestLa::new(11),
        )
        .unwrap();
        let alg = ArrowSpmm::new(&d).unwrap();
        (a, alg)
    }

    fn delta(n: u32) -> CsrMatrix<f64> {
        // Integer-valued: adds a chord, removes a cycle edge, perturbs one.
        let mut coo = CooMatrix::new(n, n);
        coo.push_sym(0, n / 2, 2.0).unwrap();
        coo.push_sym(0, 1, -1.0).unwrap(); // cancels the cycle edge
        coo.push_sym(2, 3, 3.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn corrected_run_bit_matches_rebuilt_matrix() {
        let n = 48;
        let (a, alg) = base_setup(n);
        let dm = delta(n);
        let corrected = DeltaSpmm::new(&alg, &dm).unwrap();
        let x = DenseMatrix::from_fn(n, 3, |r, c| ((r * 5 + c) % 7) as f64 - 3.0);
        let merged = ops::apply_delta(&a, &dm).unwrap();
        for iters in [1u32, 2, 3] {
            let got = corrected.run(&x, iters).unwrap();
            let want = iterated_spmm(&merged, &x, iters).unwrap();
            // Integer data ⇒ all reduction orders produce the exact result.
            assert_eq!(got.y, want, "iters = {iters}");
        }
    }

    #[test]
    fn one_rank_base_is_corrected_exactly_and_charged_flops_only() {
        let n = 48;
        let a: CsrMatrix<f64> = basic::cycle(n).to_adjacency();
        let local = LocalSpmm::new(a.clone()).unwrap();
        let dm = delta(n);
        let corrected = DeltaSpmm::new(&local, &dm).unwrap();
        let merged = ops::apply_delta(&a, &dm).unwrap();
        let rebuilt = LocalSpmm::new(merged.clone()).unwrap();
        let x = DenseMatrix::from_fn(n, 3, |r, c| ((r * 5 + c) % 7) as f64 - 3.0);
        for iters in [1u32, 2, 3] {
            let got = corrected.run(&x, iters).unwrap();
            assert_eq!(got.y, rebuilt.run(&x, iters).unwrap().y, "iters = {iters}");
            assert_eq!(got.y, iterated_spmm(&merged, &x, iters).unwrap());
            // Nobody to broadcast the delta to.
            assert_eq!(got.stats.max_volume(), 0);
            assert_eq!(got.stats.max_messages(), 0);
        }
        let base = local.predict_volume(8);
        let est = corrected.predict_volume(8);
        assert_eq!(est.max_rank_bytes, 0.0);
        assert_eq!(est.max_rank_messages, 0.0);
        assert_eq!(
            est.max_rank_flops,
            base.max_rank_flops + spmm::spmm_flops(&dm, 8)
        );
    }

    #[test]
    fn each_rank_is_charged_its_replayed_broadcast_and_compute() {
        let n = 48;
        let (_, alg) = base_setup(n);
        let dm = delta(n);
        let cost = CostModel::default();
        let corrected = DeltaSpmm::new(&alg, &dm).unwrap().with_cost(cost);
        let x = DenseMatrix::from_fn(n, 3, |r, c| ((r * 5 + c) % 7) as f64 - 3.0);
        let base = alg.run(&x, 1).unwrap().stats.ranks;
        let got = corrected.run(&x, 1).unwrap().stats.ranks;
        let p = alg.ranks() as usize;
        let plan = Collective::broadcast(p, dm.nnz(), None);
        let alone = plan.pick(2, &cost).alone(2, &cost).ranks;
        let compute = cost.compute_time(spmm::spmm_flops(&dm, 3));
        assert!(p > 1 && alone.iter().all(|r| r.sim_time > 0.0));
        assert_eq!((got.len(), alone.len()), (p, p));
        for rank in 0..p {
            let want = base[rank].sim_time + alone[rank].sim_time + compute;
            assert_eq!(got[rank].sim_time.to_bits(), want.to_bits(), "rank {rank}");
        }
    }

    #[test]
    fn sigma_is_applied_after_correction() {
        let n = 32;
        let (a, alg) = base_setup(n);
        let dm = delta(n);
        let corrected = DeltaSpmm::new(&alg, &dm).unwrap();
        let relu: Sigma = |v| v.max(0.0);
        let x = DenseMatrix::from_fn(n, 2, |r, c| ((r + c) % 5) as f64 - 2.0);
        let merged = ops::apply_delta(&a, &dm).unwrap();
        let mut want = x.clone();
        for _ in 0..3 {
            want = spmm::spmm(&merged, &want).unwrap();
            want.map_inplace(|v| v.max(0.0));
        }
        let got = corrected.run_sigma(&x, 3, Some(relu)).unwrap();
        assert_eq!(got.y, want);
    }

    #[test]
    fn empty_delta_defers_to_base() {
        let n = 40;
        let (_, alg) = base_setup(n);
        let empty = CsrMatrix::<f64>::zeros(n, n);
        let corrected = DeltaSpmm::new(&alg, &empty).unwrap();
        let x = DenseMatrix::from_fn(n, 2, |r, c| (r + c) as f64);
        let base_run = alg.run(&x, 2).unwrap();
        let corrected_run = corrected.run(&x, 2).unwrap();
        assert_eq!(base_run.y, corrected_run.y);
        assert_eq!(corrected.predict_volume(4), alg.predict_volume(4));
    }

    #[test]
    fn prediction_grows_with_delta_density() {
        let n = 48;
        let (_, alg) = base_setup(n);
        let sparse_delta = delta(n);
        let mut dense_coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..4u32 {
                dense_coo.push(i, (i + j + 1) % n, 1.0).unwrap();
            }
        }
        let dense_delta = dense_coo.to_csr();
        let small = DeltaSpmm::new(&alg, &sparse_delta)
            .unwrap()
            .predict_volume(8);
        let big = DeltaSpmm::new(&alg, &dense_delta)
            .unwrap()
            .predict_volume(8);
        let base = alg.predict_volume(8);
        assert!(small.max_rank_bytes > base.max_rank_bytes);
        assert!(big.max_rank_bytes > small.max_rank_bytes);
        assert!(big.max_rank_flops > small.max_rank_flops);
    }

    #[test]
    fn shape_mismatches_rejected() {
        let (_, alg) = base_setup(24);
        let rect = CsrMatrix::<f64>::zeros(24, 25);
        assert!(DeltaSpmm::new(&alg, &rect).is_err());
        let wrong_n = CsrMatrix::<f64>::zeros(10, 10);
        let corrected = DeltaSpmm::new(&alg, &wrong_n).unwrap();
        let x = DenseMatrix::zeros(24, 2);
        assert!(corrected.run(&x, 1).is_err());
    }

    #[test]
    fn zero_iterations_returns_operand() {
        let n = 24;
        let (_, alg) = base_setup(n);
        let dm = delta(n);
        let corrected = DeltaSpmm::new(&alg, &dm).unwrap();
        let x = DenseMatrix::from_fn(n, 2, |r, c| (r * 2 + c) as f64);
        let run = corrected.run(&x, 0).unwrap();
        assert_eq!(run.y, x);
        assert_eq!(run.iters, 0);
    }
}
