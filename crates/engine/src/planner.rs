//! The cost-model planner: predict per-iteration cost for every
//! candidate algorithm and bind the winner.
//!
//! `amd_spmm` has five members and [`PlannerConfig::target_ranks`] says
//! which side of the family a deployment is on.
//!
//! **`target_ranks = 1`** (the default) means the matrix lives in the
//! process that serves it: there is no communication for a decomposition
//! to save, so the plan is [`LocalSpmm`] alone — plain CSR × dense on the
//! `amd-exec` pool — and none of the distributed candidates (nor the
//! HYPE partition HP-1D needs) is even constructed. That plan reads the
//! CSR and nothing else, so [`plan_local`] builds it without a
//! decomposition and the engine does not compute one for it.
//!
//! **`target_ranks > 1`** means the operator has said the matrix is
//! spread over that many ranks. The candidates are then the four
//! distributed algorithms: each is *constructed* (planning its
//! distribution — cheap relative to running) and asked for its
//! [`CommEstimate`]; the planner converts estimates to seconds under a
//! [`CostModel`] and picks the minimum. This mirrors the paper's §6
//! comparison — arrow wins precisely when the decomposition is narrow
//! (low arrow width, strong compaction), while structure-oblivious
//! baselines win on matrices the arrow decomposition handles poorly
//! (e.g. wide dense bands that spill across many levels). The local
//! member is not ranked here: its zero-byte estimate would win every
//! time, but it answers a different question — it needs the whole matrix
//! and the whole operand in one address space, which `target_ranks > 1`
//! says is not the case.

use amd_comm::CostModel;
use amd_graph::Graph;
use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{CsrMatrix, Dtype, SparseResult};
use amd_spmm::{best_c, A15dSpmm, A2dSpmm, ArrowSpmm, CommEstimate, DistSpmm, Hp1dSpmm, LocalSpmm};
use arrow_core::ArrowDecomposition;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Seed for the HYPE partition of the HP-1D candidate.
const PARTITION_SEED: u64 = 0x9a27;

/// Planner knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Cost model converting volume/latency/flops to seconds.
    pub cost: CostModel,
    /// Ranks the deployment has. `1` — the default: the host this
    /// process runs on — binds the shared-memory [`LocalSpmm`]; above
    /// that it is the rank budget of the structure-oblivious baselines
    /// (the arrow algorithm's rank count is fixed by the decomposition).
    pub target_ranks: u32,
    /// RHS column count the prediction is evaluated at (the engine plans
    /// for its typical batch width).
    pub k_hint: u32,
    /// Serving precision every candidate is constructed with: `f32`
    /// halves the bytes each candidate's estimate charges per value
    /// moved, and the bound winner runs its local multiplies at that
    /// precision.
    pub dtype: Dtype,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            cost: CostModel::default(),
            target_ranks: 1,
            k_hint: 8,
            dtype: Dtype::default(),
        }
    }
}

/// One candidate's predicted cost.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Algorithm label (`DistSpmm::name`).
    pub name: String,
    /// Rank count of the candidate's plan.
    pub ranks: u32,
    /// The per-iteration estimate.
    pub estimate: CommEstimate,
    /// `estimate` under the planner's cost model, scaled by the
    /// oversubscription factor `max(1, ranks / target_ranks)`: a plan
    /// wanting more ranks than the deployment has must time-share them,
    /// so its per-iteration cost inflates proportionally. (The arrow
    /// plan's rank count is fixed by the decomposition — `Σᵢ ⌈active_nᵢ
    /// / b⌉` — and explodes when a matrix decomposes badly, e.g. a wide
    /// dense band at a small width; this is exactly the signal that
    /// should push the planner to a structure-oblivious baseline.)
    pub seconds: f64,
}

/// The planner's decision: the winning algorithm plus the full ranking
/// (sorted ascending by predicted seconds) for reporting.
pub struct Plan {
    /// The algorithm bound for this matrix.
    pub algo: Box<dyn DistSpmm + Send + Sync>,
    /// Name of the winner (= `predictions[0].name`).
    pub chosen: String,
    /// All candidates, cheapest first.
    pub predictions: Vec<Prediction>,
}

/// The one-rank plan: [`LocalSpmm`] alone. It multiplies by the CSR
/// and reads nothing else, so no decomposition is asked for — which is
/// what lets a one-rank engine admit and refresh without computing one.
/// The binding shares `a`: a caller that keeps the matrix too holds the
/// same allocation.
pub fn plan_local(a: impl Into<Arc<CsrMatrix<f64>>>, config: &PlannerConfig) -> SparseResult<Plan> {
    let local = LocalSpmm::new(a)?
        .with_cost(config.cost)
        .with_dtype(config.dtype);
    let estimate = local.predict_volume(config.k_hint.max(1));
    let prediction = Prediction {
        name: local.name(),
        ranks: local.ranks(),
        estimate,
        seconds: estimate.predicted_seconds(&config.cost),
    };
    Ok(Plan {
        algo: Box::new(local),
        chosen: prediction.name.clone(),
        predictions: vec![prediction],
    })
}

/// Plans the serving algorithm for `a` given its decomposition.
///
/// On a one-rank deployment the plan is [`plan_local`]'s, bound to a
/// copy of `a`, and `d` goes unread. Otherwise all four distributed
/// candidates are constructed and ranked; ties break toward the earlier
/// candidate in the order arrow, 1.5D, 2D, HP-1D.
pub fn plan(
    a: &CsrMatrix<f64>,
    d: &ArrowDecomposition,
    config: &PlannerConfig,
) -> SparseResult<Plan> {
    let k = config.k_hint.max(1);
    let p = config.target_ranks.max(1);
    if p == 1 {
        return plan_local(a.clone(), config);
    }
    let mut candidates: Vec<(Box<dyn DistSpmm + Send + Sync>, CommEstimate)> = Vec::new();

    let arrow = ArrowSpmm::new(d)?
        .with_cost(config.cost)
        .with_dtype(config.dtype);
    let est = arrow.predict_volume(k);
    candidates.push((Box::new(arrow), est));

    let a15 = A15dSpmm::new(a, p, best_c(p))?
        .with_cost(config.cost)
        .with_dtype(config.dtype);
    let est = a15.predict_volume(k);
    candidates.push((Box::new(a15), est));

    let q = (p as f64).sqrt().round().max(1.0) as u32;
    let a2 = A2dSpmm::new(a, q * q)?
        .with_cost(config.cost)
        .with_dtype(config.dtype);
    let est = a2.predict_volume(k);
    candidates.push((Box::new(a2), est));

    let g = Graph::from_matrix_structure(a);
    let mut rng = ChaCha8Rng::seed_from_u64(PARTITION_SEED);
    let part = hype_partition(&g, p, &HypeConfig::default(), &mut rng);
    let hp = Hp1dSpmm::new(a, &part)?
        .with_cost(config.cost)
        .with_dtype(config.dtype);
    let est = hp.predict_volume(k);
    candidates.push((Box::new(hp), est));

    // Stable sort keeps the candidate order on ties.
    let mut indexed: Vec<(usize, f64)> = candidates
        .iter()
        .enumerate()
        .map(|(i, (algo, est))| {
            let oversubscription = (algo.ranks() as f64 / p as f64).max(1.0);
            (i, est.predicted_seconds(&config.cost) * oversubscription)
        })
        .collect();
    indexed.sort_by(|x, y| x.1.total_cmp(&y.1));

    let predictions: Vec<Prediction> = indexed
        .iter()
        .map(|&(i, seconds)| {
            let (algo, estimate) = &candidates[i];
            Prediction {
                name: algo.name(),
                ranks: algo.ranks(),
                estimate: *estimate,
                seconds,
            }
        })
        .collect();
    let winner_idx = indexed[0].0;
    // Take the winner out without cloning trait objects.
    let algo = candidates.swap_remove(winner_idx).0;
    let chosen = predictions[0].name.clone();
    Ok(Plan {
        algo,
        chosen,
        predictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_graph::generators::{basic, rmat};
    use amd_sparse::CooMatrix;
    use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};

    /// The distributed deployment these tests rank candidates for.
    fn sixteen_ranks() -> PlannerConfig {
        PlannerConfig {
            target_ranks: 16,
            ..PlannerConfig::default()
        }
    }

    fn decompose(a: &CsrMatrix<f64>, b: u32) -> ArrowDecomposition {
        la_decompose(
            a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(3),
        )
        .unwrap()
    }

    /// Symmetric dense band: all entries with `0 < |i − j| ≤ w`.
    fn band(n: u32, w: u32) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in (i + 1)..=(i + w).min(n - 1) {
                coo.push_sym(i, j, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn star_graph_selects_arrow() {
        // A star has arrow width 1: the decomposition is a single narrow
        // level, while every baseline must still move dense X tiles.
        let a: CsrMatrix<f64> = basic::star(600).to_adjacency();
        let d = decompose(&a, 32);
        let plan = plan(&a, &d, &sixteen_ranks()).unwrap();
        assert!(
            plan.chosen.starts_with("Arrow"),
            "expected Arrow on a star, planner chose {} ({:?})",
            plan.chosen,
            plan.predictions
                .iter()
                .map(|p| (p.name.clone(), p.seconds))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn rmat_graph_selects_arrow() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = rmat::rmat(9, 8, rmat::RmatParams::graph500(), &mut rng);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let d = decompose(&a, 32);
        // Bandwidth-bound regime — the §6 comparison the decomposition is
        // designed for. (At this toy scale the default model is α- and
        // flop-dominated, which drowns the volume signal.)
        let config = PlannerConfig {
            cost: CostModel {
                alpha: 1e-7,
                beta: 1e-9,
                compute_rate: 5e9,
            },
            target_ranks: 24,
            ..PlannerConfig::default()
        };
        let plan = plan(&a, &d, &config).unwrap();
        assert!(
            plan.chosen.starts_with("Arrow"),
            "expected Arrow on R-MAT, planner chose {}",
            plan.chosen
        );
        // The arrow plan's predicted max per-rank volume is also the
        // smallest outright.
        let arrow_bytes = plan.predictions[0].estimate.max_rank_bytes;
        for p in &plan.predictions[1..] {
            assert!(arrow_bytes < p.estimate.max_rank_bytes);
        }
    }

    #[test]
    fn dense_band_selects_non_arrow_baseline() {
        // A wide dense band decomposed at a much smaller width spills
        // across many levels: per-level collectives and inter-level
        // routing make the predicted arrow volume worse than a
        // structure-oblivious baseline.
        let a = band(600, 48);
        let d = decompose(&a, 8);
        assert!(
            d.order() > 2,
            "band should spill across levels, got {}",
            d.order()
        );
        let plan = plan(&a, &d, &sixteen_ranks()).unwrap();
        assert!(
            !plan.chosen.starts_with("Arrow"),
            "expected a baseline on a dense band, planner chose {} ({:?})",
            plan.chosen,
            plan.predictions
                .iter()
                .map(|p| (p.name.clone(), p.seconds))
                .collect::<Vec<_>>()
        );
        // The arrow prediction itself must rank it worse than the winner.
        let arrow_pred = plan
            .predictions
            .iter()
            .find(|p| p.name.starts_with("Arrow"))
            .expect("arrow is always a candidate");
        assert!(arrow_pred.seconds > plan.predictions[0].seconds);
    }

    #[test]
    fn predictions_are_sorted_and_complete() {
        let a: CsrMatrix<f64> = basic::cycle(200).to_adjacency();
        let d = decompose(&a, 16);
        let plan = plan(&a, &d, &sixteen_ranks()).unwrap();
        assert_eq!(plan.predictions.len(), 4);
        for w in plan.predictions.windows(2) {
            assert!(w[0].seconds <= w[1].seconds);
        }
        assert_eq!(plan.chosen, plan.predictions[0].name);
    }

    #[test]
    fn one_rank_plans_the_local_member_alone() {
        let a: CsrMatrix<f64> = basic::cycle(200).to_adjacency();
        let d = decompose(&a, 16);
        let plan = plan(&a, &d, &PlannerConfig::default()).unwrap();
        assert_eq!(plan.predictions.len(), 1);
        let local = LocalSpmm::new(a.clone()).unwrap();
        assert_eq!(plan.chosen, local.name());
        assert_eq!(plan.algo.name(), local.name());
        let only = &plan.predictions[0];
        assert_eq!((only.name.as_str(), only.ranks), (plan.chosen.as_str(), 1));
        assert_eq!(only.estimate, local.predict_volume(8));
        assert_eq!(only.estimate.max_rank_bytes, 0.0);
        assert_eq!(
            only.seconds,
            CostModel::default().compute_time(only.estimate.max_rank_flops)
        );
    }

    #[test]
    fn several_ranks_rank_the_four_distributed_members_as_before() {
        // Names, rank counts and seconds recorded from the commit before
        // the local member existed: it must not have moved them. Arrow's
        // seconds were re-pinned (7.6392e-5 → 4.9662e-5) when its second
        // level began to take the direct feed here, and again (→ 1.5492e-5)
        // when its second level's rows began to be multiplied on the
        // level-0 ranks that hold them (the gather feed); the order stands.
        let a: CsrMatrix<f64> = basic::cycle(200).to_adjacency();
        let d = decompose(&a, 16);
        let config = PlannerConfig {
            target_ranks: 4,
            ..PlannerConfig::default()
        };
        let got: Vec<(String, u32, f64)> = plan(&a, &d, &config)
            .unwrap()
            .predictions
            .into_iter()
            .map(|p| (p.name, p.ranks, p.seconds))
            .collect();
        let want = [
            ("HP-1D p=4", 4, 6.3712e-6),
            ("2D p=4", 4, 7.2336e-6),
            ("1.5D p=4 c=2", 4, 7.5536e-6),
            ("Arrow b=16 l=2", 15, 1.5492e-5),
        ];
        assert_eq!(got.len(), want.len());
        for ((name, ranks, seconds), want) in got.iter().zip(want) {
            assert_eq!((name.as_str(), *ranks, *seconds), want);
        }
    }
}
