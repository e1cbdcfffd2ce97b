//! Splice-aware serving-cost guard: when does re-compaction beat serving
//! deep splices?
//!
//! Incremental refresh keeps serving cheap by splicing tiny extra levels
//! onto a prior decomposition instead of re-running LA-Decompose — but
//! every splice deepens the level structure, and a deep enough stack of
//! spliced levels eventually costs more to serve (extra per-level
//! propagation hops and broadcasts) than a freshly compacted
//! decomposition would. The policy knobs of
//! [`arrow_core::IncrementalPolicy`] bound the splice *construction*
//! (affected-region size, order); this guard bounds the splice *serving
//! cost*, using the same `predict_volume` machinery the planner ranks
//! algorithms with — costed over the actual spliced level structure,
//! since [`ArrowSpmm::predict_volume`] walks per-level active prefixes.
//!
//! Usage: record [`predicted_seconds`](ServingCostGuard::predicted_seconds)
//! whenever a decomposition is built cold (bind, fallback refresh), seed
//! the guard with it ([`with_baseline`](ServingCostGuard::with_baseline)),
//! and ask for a [`splice_verdict`](ServingCostGuard::splice_verdict)
//! after each spliced refresh. A [`SpliceVerdict`] with
//! [`recompact`](SpliceVerdict::recompact) set means the predicted
//! per-iteration serving time of the spliced decomposition exceeds the
//! cold baseline by more than the configured slowdown factor, and the
//! caller should re-compact (rebuild cold) rather than keep serving the
//! splice.

use crate::arrow::ArrowSpmm;
use crate::traits::DistSpmm;
use amd_comm::CostModel;
use amd_sparse::SparseResult;
use arrow_core::ArrowDecomposition;

/// Default tolerated slowdown of a spliced decomposition's predicted
/// serving time over the cold baseline before re-compaction is advised.
pub const DEFAULT_MAX_SLICE_SLOWDOWN: f64 = 1.5;

/// Decision record of one spliced-refresh cost check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpliceVerdict {
    /// Predicted per-iteration serving seconds of the spliced
    /// decomposition.
    pub predicted_seconds: f64,
    /// Baseline seconds recorded at the last cold build.
    pub baseline_seconds: f64,
    /// `true` when the splice is predicted to serve more than
    /// `max_slowdown ×` slower than the baseline — re-compact.
    pub recompact: bool,
}

/// Serving-cost guard over a stream of cold and spliced rebuilds.
#[derive(Debug, Clone)]
pub struct ServingCostGuard {
    cost: CostModel,
    k_hint: u32,
    max_slowdown: f64,
    baseline_seconds: Option<f64>,
}

impl ServingCostGuard {
    /// A guard predicting with `cost` for `k_hint`-column operands,
    /// tolerating up to `max_slowdown ×` the cold baseline.
    pub fn new(cost: CostModel, k_hint: u32, max_slowdown: f64) -> Self {
        Self {
            cost,
            k_hint: k_hint.max(1),
            max_slowdown: max_slowdown.max(1.0),
            baseline_seconds: None,
        }
    }

    /// Seeds the cold baseline directly (a holder restoring guard state
    /// recorded elsewhere — e.g. carried across an engine refresh).
    pub fn with_baseline(mut self, seconds: f64) -> Self {
        self.baseline_seconds = Some(seconds);
        self
    }

    /// Predicted per-iteration serving seconds of `d` under this guard's
    /// cost model — the arrow algorithm's `predict_volume` over the
    /// decomposition's actual (possibly spliced) level structure.
    pub fn predicted_seconds(&self, d: &ArrowDecomposition) -> SparseResult<f64> {
        let alg = ArrowSpmm::new(d)?;
        Ok(alg
            .predict_volume(self.k_hint)
            .predicted_seconds(&self.cost))
    }

    /// Checks a freshly spliced decomposition against the cold baseline.
    ///
    /// Without a recorded baseline (the prior came from a catalog reload,
    /// say) the spliced prediction itself becomes the baseline and the
    /// verdict never asks for re-compaction.
    pub fn splice_verdict(&mut self, d: &ArrowDecomposition) -> SparseResult<SpliceVerdict> {
        let predicted = self.predicted_seconds(d)?;
        let baseline = match self.baseline_seconds {
            Some(b) => b,
            None => {
                self.baseline_seconds = Some(predicted);
                predicted
            }
        };
        Ok(SpliceVerdict {
            predicted_seconds: predicted,
            baseline_seconds: baseline,
            recompact: predicted > baseline * self.max_slowdown,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_graph::generators::random;
    use amd_sparse::CsrMatrix;
    use arrow_core::incremental::decompose_snapshot_incremental;
    use arrow_core::{DecomposeConfig, IncrementalPolicy};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tree(n: u32, seed: u64) -> CsrMatrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        random::random_tree(n, &mut rng).to_adjacency()
    }

    #[test]
    fn cold_baseline_accepts_itself() {
        let a = tree(300, 3);
        let cfg = DecomposeConfig::with_width(16);
        let (d, _) =
            decompose_snapshot_incremental(&a, &cfg, 7, None, None, &IncrementalPolicy::default())
                .unwrap();
        let guard = ServingCostGuard::new(CostModel::default(), 8, 1.5);
        let base = guard.predicted_seconds(&d).unwrap();
        assert!(base > 0.0);
        let mut guard = guard.with_baseline(base);
        // The unspliced decomposition trivially passes its own budget.
        let v = guard.splice_verdict(&d).unwrap();
        assert!(!v.recompact);
        assert_eq!(v.baseline_seconds, base);
    }

    #[test]
    fn repeated_splices_eventually_exceed_a_tight_budget() {
        // Splice the same decomposition over and over; each splice deepens
        // the level stack, so with a slowdown budget of exactly 1.0 the
        // predicted cost must eventually exceed the cold baseline.
        let a = tree(400, 11);
        let cfg = DecomposeConfig::with_width(16);
        let policy = IncrementalPolicy {
            max_affected_fraction: 1.0,
            max_order: 64,
            ..Default::default()
        };
        let (mut d, _) = decompose_snapshot_incremental(&a, &cfg, 7, None, None, &policy).unwrap();
        let guard = ServingCostGuard::new(CostModel::default(), 8, 1.0);
        let base = guard.predicted_seconds(&d).unwrap();
        let mut guard = guard.with_baseline(base);
        let mut tripped = false;
        for round in 0..6u64 {
            let touched: Vec<u32> = (0..20).map(|i| (round * 13 + i) as u32 % 400).collect();
            let (next, outcome) =
                decompose_snapshot_incremental(&a, &cfg, 7, Some(&d), Some(&touched), &policy)
                    .unwrap();
            d = next;
            if !outcome.incremental {
                continue;
            }
            let v = guard.splice_verdict(&d).unwrap();
            assert!(v.predicted_seconds >= 0.0);
            if v.recompact {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deepening splices never exceeded a 1.0× budget");
    }

    #[test]
    fn missing_baseline_self_seeds() {
        let a = tree(200, 5);
        let (d, _) = decompose_snapshot_incremental(
            &a,
            &DecomposeConfig::with_width(16),
            3,
            None,
            None,
            &IncrementalPolicy::default(),
        )
        .unwrap();
        let mut guard = ServingCostGuard::new(CostModel::default(), 4, 1.2);
        let v = guard.splice_verdict(&d).unwrap();
        assert!(!v.recompact);
        let again = guard.splice_verdict(&d).unwrap();
        assert_eq!(again.baseline_seconds, v.predicted_seconds);
    }
}
