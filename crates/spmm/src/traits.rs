//! The common interface of the distributed SpMM algorithms.

use crate::LocalSpmm;
use amd_comm::{CostModel, MachineStats};
use amd_sparse::{DenseMatrix, SparseResult};

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct SpmmRun {
    /// Final iterate `A^iters · X` in the *original* row order.
    pub y: DenseMatrix<f64>,
    /// Communication/time accounting over all iterations (initial operand
    /// distribution and final assembly excluded).
    pub stats: MachineStats,
    /// Number of multiply iterations performed.
    pub iters: u32,
}

impl SpmmRun {
    /// Per-iteration maximum per-rank volume in bytes — the α-β bandwidth
    /// cost the paper's §6 analyses, normalised per multiply.
    pub fn volume_per_iter(&self) -> f64 {
        self.stats.max_volume() as f64 / self.iters.max(1) as f64
    }

    /// Per-iteration simulated runtime in seconds.
    pub fn sim_time_per_iter(&self) -> f64 {
        self.stats.sim_time() / self.iters.max(1) as f64
    }

    /// Per-iteration maximum per-rank message count — the accounted
    /// counterpart of [`CommEstimate::max_rank_messages`], which equals
    /// it (`tests/predict.rs` holds that for every algorithm).
    pub fn messages_per_iter(&self) -> f64 {
        self.stats.max_messages() as f64 / self.iters.max(1) as f64
    }
}

/// Element-wise activation `σ` applied between iterations (§2 of the
/// paper: `X_{t+1} = σ(A·X_t)`). A plain function pointer keeps the trait
/// object-safe and the closure `Send`-free.
pub type Sigma = fn(f64) -> f64;

/// Predicted per-iteration cost of one multiply iteration, derived from
/// an algorithm's *planned* distribution without running it.
///
/// Components are per-rank envelopes: each field is the maximum over
/// ranks, taken independently (so the triple is an upper envelope — the
/// byte maximum and the message maximum may be attained by different
/// ranks). An entry of [`DistSpmm::predict_ranks`] is the envelope of
/// one rank. The serving engine's planner ranks algorithms by
/// [`predicted_seconds`](CommEstimate::predicted_seconds) under a
/// [`CostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommEstimate {
    /// Largest per-rank communication volume (sent + received bytes).
    pub max_rank_bytes: f64,
    /// Largest per-rank message count (sent + received).
    pub max_rank_messages: f64,
    /// Largest per-rank floating-point work.
    pub max_rank_flops: f64,
}

impl CommEstimate {
    /// Every rank's estimate from the [`walk`] of one iteration: the bytes
    /// and messages the walk charges it, and its flops.
    pub(crate) fn of_walk((stats, flops): (MachineStats, Vec<f64>)) -> Vec<Self> {
        (stats.ranks.iter().zip(flops))
            .map(|(rank, flops)| Self {
                max_rank_bytes: rank.volume() as f64,
                max_rank_messages: (rank.sent_msgs + rank.recv_msgs) as f64,
                max_rank_flops: flops,
            })
            .collect()
    }

    /// α-β-γ prediction: `α·messages + β·bytes + flops/rate`.
    pub fn predicted_seconds(&self, cost: &CostModel) -> f64 {
        cost.alpha * self.max_rank_messages
            + cost.beta * self.max_rank_bytes
            + cost.compute_time(self.max_rank_flops)
    }
}

/// A distributed SpMM algorithm bound to a fixed sparse matrix.
pub trait DistSpmm {
    /// Algorithm label for reports (e.g. `"arrow b=1024"`).
    fn name(&self) -> String;

    /// Number of machine ranks the algorithm uses.
    fn ranks(&self) -> u32;

    /// Runs `iters` iterations `X ← σ(A·X)` starting from `x`; `None`
    /// means the identity (plain matrix powers). `σ` is applied locally to
    /// each rank's output block — element-wise functions need no
    /// communication, so the accounting is unchanged.
    fn run_sigma(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun>;

    /// Runs `iters` multiply iterations `X ← A·X` starting from `x`,
    /// returning the final iterate and accounting.
    fn run(&self, x: &DenseMatrix<f64>, iters: u32) -> SparseResult<SpmmRun> {
        self.run_sigma(x, iters, None)
    }

    /// [`run_sigma`](Self::run_sigma) on an operand the caller hands
    /// over, equal to it bit for bit. An algorithm that multiplies in
    /// shared memory ([`LocalSpmm`], and [`DeltaSpmm`](crate::DeltaSpmm)
    /// over it) iterates in `x`'s own storage and may return the answer
    /// there, so a caller that recycles [`SpmmRun::y`]'s storage as its
    /// next operand allocates no `n × k` buffer per run. The default
    /// borrows `x` and drops it.
    fn run_owned(
        &self,
        x: DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        self.run_sigma(&x, iters, sigma)
    }

    /// The shared-memory binding behind this algorithm, if it is one:
    /// what [`DeltaSpmm`](crate::DeltaSpmm) folds its correction into
    /// inside [`LocalSpmm`]'s own iteration loop.
    fn as_local(&self) -> Option<&LocalSpmm> {
        None
    }

    /// What [`run`](Self::run) of `iters` iterations on a `k`-column
    /// operand accounts, without running it: every rank's bytes, messages,
    /// charged compute and simulated clock, bit for bit (`wall_seconds` is
    /// zero). A distributed algorithm walks the step lists its ranks run
    /// ([`amd_comm::walk`]).
    fn dry_run(&self, k: u32, iters: u32) -> MachineStats;

    /// Predicts what one iteration of `run` with a `k`-column operand
    /// charges each rank, indexed by machine rank, without running it:
    /// each entry is one rank's bytes, messages and flops, read from the
    /// same walk as [`dry_run`](Self::dry_run).
    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate>;

    /// The envelope of [`predict_ranks`](Self::predict_ranks): what the
    /// planner ranks by. Its messages are exactly the run's accounted
    /// [`SpmmRun::messages_per_iter`], and its bytes exactly
    /// [`SpmmRun::volume_per_iter`].
    fn predict_volume(&self, k: u32) -> CommEstimate {
        let ranks = self.predict_ranks(k);
        let max = |field: fn(&CommEstimate) -> f64| ranks.iter().map(field).fold(0.0, f64::max);
        CommEstimate {
            max_rank_bytes: max(|rank| rank.max_rank_bytes),
            max_rank_messages: max(|rank| rank.max_rank_messages),
            max_rank_flops: max(|rank| rank.max_rank_flops),
        }
    }
}

/// Applies an optional σ in place to a block buffer.
#[inline]
pub fn apply_sigma(block: &mut [f64], sigma: Option<Sigma>) {
    if let Some(f) = sigma {
        for v in block {
            *v = f(*v);
        }
    }
}
