//! Per-query cost attribution: the planner's cost model, measured.
//!
//! The planner ranks algorithms by *predicted* per-iteration
//! communication ([`Prediction`]); every run then produces the
//! machine's *accounted* [`MachineStats`] — which the engine used to
//! throw away. This module closes that loop. On every batched multiply
//! the engine records, into the shared registry:
//!
//! * `engine.plan.predicted_bytes` / `engine.plan.accounted_bytes` —
//!   cumulative predicted vs accounted max-per-rank volume (both at
//!   the served column count and iteration count, so the two counters
//!   are directly comparable),
//! * `engine.rank_volume.bytes` — a histogram of *per-rank* volumes,
//!   one sample per rank per run (the distribution behind the paper's
//!   §6 max-volume bound),
//! * `engine.plan.rank_checks` / `engine.plan.mispredictions` — how
//!   often the accounted volumes, substituted back into the cost
//!   model, would have ranked a different algorithm first,
//! * `engine.algo.<slug>.*` — the same quantities per algorithm
//!   family, plus an `error_permille` histogram of
//!   `|predicted − accounted| / accounted` and a `wall_nanos` counter
//!   of cumulative measured wall time (with `accounted_bytes` it
//!   yields an effective measured per-byte cost), the inputs of the
//!   CLI `report` calibration table.
//!
//! Each [`QueryResponse`](crate::QueryResponse) carries a [`QueryCost`]
//! so callers can attribute the run's cost to the query that paid it.
//!
//! **The rank-agreement check.** We cannot re-run the losing
//! candidates to account their volumes, but we can substitute the
//! winner's accounted envelope into its own prediction: scale the
//! winner's planned bytes by the observed accounted/predicted ratio,
//! swap in the accounted per-iteration message count, re-price under
//! the same α-β-γ model and oversubscription rule, and compare against
//! the runner-up's predicted seconds. If the re-priced winner loses,
//! the accounted volumes would have ranked a different algorithm
//! first — one misprediction. Corrected (delta-overlay) runs are
//! excluded: the planner never ranked the correction traffic.

use crate::planner::Prediction;
use amd_comm::{CostModel, MachineStats};
use amd_obs::{Counter, Histogram, Registry};
use amd_spmm::CommEstimate;
use std::collections::HashMap;

/// Registry slug of an algorithm label (`"Arrow b=32 l=2"` → `"arrow"`)
/// — the `<slug>` of the `engine.algo.<slug>.*` calibration namespace.
pub fn algo_slug(name: &str) -> &'static str {
    if name.starts_with("Arrow") {
        "arrow"
    } else if name.starts_with("1.5D") || name.starts_with("1D") {
        "a15d"
    } else if name.starts_with("2D") {
        "a2d"
    } else if name.starts_with("HP-1D") {
        "hp1d"
    } else if name.starts_with("Local") {
        "local"
    } else {
        "other"
    }
}

/// The attributed cost of one run, shared by every query in its batch
/// (divide by [`QueryResponse::batch_size`](crate::QueryResponse) for
/// a per-query share). Volumes are per-iteration maxima over ranks, at
/// the column count the run actually served.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCost {
    /// Planner label of the bound algorithm.
    pub algo: String,
    /// Whether the run went through the delta-corrected path.
    pub corrected: bool,
    /// Multiply iterations of the run.
    pub iters: u32,
    /// Predicted per-iteration max per-rank bytes.
    pub predicted_rank_bytes: f64,
    /// Accounted per-iteration max per-rank bytes.
    pub accounted_rank_bytes: f64,
    /// Simulated makespan of the whole run in seconds.
    pub sim_seconds: f64,
    /// Whether the accounted volumes confirmed the planner's ranking;
    /// `None` when unchecked (corrected runs, single-candidate plans).
    pub rank_agreement: Option<bool>,
}

struct AlgoMetrics {
    runs: Counter,
    predicted_bytes: Counter,
    accounted_bytes: Counter,
    rank_checks: Counter,
    mispredictions: Counter,
    error_permille: Histogram,
    /// Cumulative measured wall time of this family's runs, in
    /// nanoseconds — with `accounted_bytes` it yields an *effective*
    /// measured per-byte cost the `report` calibration table compares
    /// against the model's β.
    wall_nanos: Counter,
}

impl AlgoMetrics {
    fn new(registry: &Registry, slug: &str) -> Self {
        let name = |leaf: &str| format!("engine.algo.{slug}.{leaf}");
        Self {
            runs: registry.counter(&name("runs")),
            predicted_bytes: registry.counter(&name("predicted_bytes")),
            accounted_bytes: registry.counter(&name("accounted_bytes")),
            rank_checks: registry.counter(&name("rank_checks")),
            mispredictions: registry.counter(&name("mispredictions")),
            error_permille: registry.histogram(&name("error_permille")),
            wall_nanos: registry.counter(&name("wall_nanos")),
        }
    }
}

/// Registry handles of the attribution layer (see the [module
/// docs](self)). One instance lives in the engine; the CLI `multiply`
/// subcommand owns one directly for its single-algorithm run.
pub struct AttributionMetrics {
    registry: Registry,
    predicted_bytes: Counter,
    accounted_bytes: Counter,
    rank_checks: Counter,
    mispredictions: Counter,
    rank_volume: Histogram,
    per_algo: HashMap<&'static str, AlgoMetrics>,
}

/// One run's inputs to [`AttributionMetrics::record`].
pub struct RunAttribution<'a> {
    /// Planner label of the bound algorithm (family slug is derived
    /// from it).
    pub algo: &'a str,
    /// The planner's full ranking, cheapest first (empty when no plan
    /// exists, e.g. the CLI's direct multiply).
    pub predictions: &'a [Prediction],
    /// Predicted per-iteration envelope of **this run** — at the
    /// served column count, through the corrected path when an overlay
    /// was live — so predicted and accounted volumes are comparable.
    pub estimate: CommEstimate,
    /// Whether the run went through the delta-corrected path.
    pub corrected: bool,
    /// Multiply iterations of the run.
    pub iters: u32,
    /// The engine's cost model (re-pricing uses the same α-β-γ).
    pub cost: CostModel,
    /// The deployment's rank budget (oversubscription rule).
    pub target_ranks: u32,
}

impl AttributionMetrics {
    /// Handles in the `engine.plan.*` / `engine.rank_volume.*`
    /// namespaces of `registry`; the per-algorithm
    /// `engine.algo.<slug>.*` handles materialize on first use.
    pub fn new(registry: &Registry) -> Self {
        Self {
            registry: registry.clone(),
            predicted_bytes: registry.counter("engine.plan.predicted_bytes"),
            accounted_bytes: registry.counter("engine.plan.accounted_bytes"),
            rank_checks: registry.counter("engine.plan.rank_checks"),
            mispredictions: registry.counter("engine.plan.mispredictions"),
            rank_volume: registry.histogram("engine.rank_volume.bytes"),
            per_algo: HashMap::new(),
        }
    }

    /// Cumulative `engine.plan.rank_checks` — runs whose ranking was
    /// re-priced against the accounted envelope.
    pub fn rank_checks(&self) -> u64 {
        self.rank_checks.get()
    }

    /// Cumulative `engine.plan.mispredictions` — rank checks where the
    /// accounted volumes would have ranked a different algorithm first.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions.get()
    }

    /// Folds one run's accounted [`MachineStats`] against its
    /// prediction into the registry and returns the [`QueryCost`] the
    /// responses carry.
    pub fn record(&mut self, run: &RunAttribution<'_>, stats: &MachineStats) -> QueryCost {
        let iters = f64::from(run.iters.max(1));
        let accounted_total = stats.max_volume();
        let accounted_per_iter = accounted_total as f64 / iters;
        let predicted_per_iter = run.estimate.max_rank_bytes;
        self.predicted_bytes
            .add((predicted_per_iter * iters).round() as u64);
        self.accounted_bytes.add(accounted_total);
        for v in stats.rank_volumes() {
            self.rank_volume.record(v);
        }

        let slug = algo_slug(run.algo);
        let m = self
            .per_algo
            .entry(slug)
            .or_insert_with(|| AlgoMetrics::new(&self.registry, slug));
        m.runs.inc();
        m.predicted_bytes
            .add((predicted_per_iter * iters).round() as u64);
        m.accounted_bytes.add(accounted_total);
        m.wall_nanos
            .add((stats.wall_seconds * 1e9).round().max(0.0) as u64);
        // Relative volume prediction error, in permille of accounted.
        let error_permille = if accounted_per_iter > 0.0 {
            ((predicted_per_iter - accounted_per_iter).abs() / accounted_per_iter * 1000.0).round()
                as u64
        } else {
            (predicted_per_iter > 0.0) as u64 * 1000
        };
        m.error_permille.record(error_permille);

        let rank_agreement = if run.corrected {
            None
        } else {
            self.check_ranking(run, accounted_per_iter, stats)
        };
        if let Some(agrees) = rank_agreement {
            self.rank_checks.inc();
            let m = self.per_algo.get(slug).expect("just inserted");
            m.rank_checks.inc();
            if !agrees {
                self.mispredictions.inc();
                m.mispredictions.inc();
            }
        }
        QueryCost {
            algo: run.algo.to_string(),
            corrected: run.corrected,
            iters: run.iters,
            predicted_rank_bytes: predicted_per_iter,
            accounted_rank_bytes: accounted_per_iter,
            sim_seconds: stats.sim_time(),
            rank_agreement,
        }
    }

    /// Re-prices the winner with its accounted envelope substituted in
    /// (see the module docs) and compares against the runner-up.
    /// `None` when there is no ranking to check.
    fn check_ranking(
        &self,
        run: &RunAttribution<'_>,
        accounted_per_iter: f64,
        stats: &MachineStats,
    ) -> Option<bool> {
        let winner = run.predictions.first()?;
        let runner_up = run
            .predictions
            .iter()
            .skip(1)
            .map(|p| p.seconds)
            .fold(f64::INFINITY, f64::min);
        if !runner_up.is_finite() {
            return None;
        }
        // The ranking was priced at the planner's k_hint; this run
        // served a (possibly different) column count. Bytes scale with
        // columns, so carry the observed accounted/predicted ratio
        // over to the ranked estimate; the message count does not
        // scale with columns, so the accounted count substitutes
        // directly.
        let ratio = if run.estimate.max_rank_bytes > 0.0 {
            accounted_per_iter / run.estimate.max_rank_bytes
        } else if accounted_per_iter > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let adjusted = CommEstimate {
            max_rank_bytes: winner.estimate.max_rank_bytes * ratio,
            max_rank_messages: stats.max_messages() as f64 / f64::from(run.iters.max(1)),
            max_rank_flops: winner.estimate.max_rank_flops,
        };
        let oversubscription =
            (f64::from(winner.ranks) / f64::from(run.target_ranks.max(1))).max(1.0);
        let repriced = adjusted.predicted_seconds(&run.cost) * oversubscription;
        Some(repriced <= runner_up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_comm::RankStats;

    fn machine(volumes: &[u64]) -> MachineStats {
        MachineStats {
            ranks: volumes
                .iter()
                .map(|&v| RankStats {
                    sent_bytes: v,
                    recv_bytes: 0,
                    sent_msgs: 2,
                    recv_msgs: 2,
                    sim_time: 1e-4,
                    compute_time: 5e-5,
                })
                .collect(),
            wall_seconds: 1e-3,
        }
    }

    fn prediction(name: &str, ranks: u32, bytes: f64, seconds: f64) -> Prediction {
        Prediction {
            name: name.to_string(),
            ranks,
            estimate: CommEstimate {
                max_rank_bytes: bytes,
                max_rank_messages: 4.0,
                max_rank_flops: 1e3,
            },
            seconds,
        }
    }

    #[test]
    fn slugs_cover_the_candidate_set() {
        assert_eq!(algo_slug("Arrow b=32 l=2"), "arrow");
        assert_eq!(algo_slug("1.5D p=16 c=4"), "a15d");
        assert_eq!(algo_slug("1D p=16"), "a15d");
        assert_eq!(algo_slug("2D p=16"), "a2d");
        assert_eq!(algo_slug("HP-1D p=16"), "hp1d");
        assert_eq!(algo_slug("Local p=1"), "local");
        assert_eq!(algo_slug("mystery"), "other");
    }

    #[test]
    fn accurate_prediction_agrees_and_calibrates() {
        let r = Registry::new();
        let mut a = AttributionMetrics::new(&r);
        let predictions = [
            prediction("Arrow b=8 l=1", 4, 1000.0, 1e-5),
            prediction("2D p=16", 16, 50_000.0, 5e-4),
        ];
        let stats = machine(&[1000, 900]); // accounted max = predicted
        let cost = a.record(
            &RunAttribution {
                algo: "Arrow b=8 l=1",
                predictions: &predictions,
                estimate: predictions[0].estimate,
                corrected: false,
                iters: 2,
                cost: CostModel::default(),
                target_ranks: 16,
            },
            &stats,
        );
        assert_eq!(cost.rank_agreement, Some(true));
        assert_eq!(cost.accounted_rank_bytes, 500.0);
        let s = r.snapshot();
        assert_eq!(s.counter("engine.plan.predicted_bytes"), Some(2000));
        assert_eq!(s.counter("engine.plan.accounted_bytes"), Some(1000));
        assert_eq!(s.counter("engine.plan.rank_checks"), Some(1));
        assert_eq!(s.counter("engine.plan.mispredictions"), Some(0));
        assert_eq!(s.counter("engine.algo.arrow.runs"), Some(1));
        // wall_seconds = 1e-3 → 1_000_000 ns of measured wall time.
        assert_eq!(s.counter("engine.algo.arrow.wall_nanos"), Some(1_000_000));
        assert_eq!(s.histogram("engine.rank_volume.bytes").unwrap().count, 2);
        // accounted/iter = 500 vs predicted 1000 → 1000‰ error recorded.
        assert_eq!(
            s.histogram("engine.algo.arrow.error_permille").unwrap().max,
            1000
        );
    }

    #[test]
    fn gross_underprediction_counts_a_misprediction() {
        let r = Registry::new();
        let mut a = AttributionMetrics::new(&r);
        // Winner predicted 1 KiB/iter but the machine accounted 100×
        // the runner-up's volume: re-priced, the winner must lose.
        let predictions = [
            prediction("Arrow b=8 l=1", 4, 1000.0, 1e-6),
            prediction("2D p=16", 16, 10_000.0, 2e-6),
        ];
        let stats = machine(&[5_000_000]);
        let cost = a.record(
            &RunAttribution {
                algo: "Arrow b=8 l=1",
                predictions: &predictions,
                estimate: predictions[0].estimate,
                corrected: false,
                iters: 1,
                cost: CostModel::default(),
                target_ranks: 16,
            },
            &stats,
        );
        assert_eq!(cost.rank_agreement, Some(false));
        let s = r.snapshot();
        assert_eq!(s.counter("engine.plan.mispredictions"), Some(1));
        assert_eq!(s.counter("engine.algo.arrow.mispredictions"), Some(1));
    }

    #[test]
    fn corrected_runs_skip_the_rank_check() {
        let r = Registry::new();
        let mut a = AttributionMetrics::new(&r);
        let predictions = [
            prediction("Arrow b=8 l=1", 4, 1000.0, 1e-6),
            prediction("2D p=16", 16, 10_000.0, 2e-6),
        ];
        let cost = a.record(
            &RunAttribution {
                algo: "Arrow b=8 l=1",
                predictions: &predictions,
                estimate: predictions[0].estimate,
                corrected: true,
                iters: 1,
                cost: CostModel::default(),
                target_ranks: 16,
            },
            &machine(&[123_456_789]),
        );
        assert_eq!(cost.rank_agreement, None);
        let s = r.snapshot();
        assert_eq!(s.counter("engine.plan.rank_checks"), Some(0));
        assert_eq!(s.counter("engine.plan.mispredictions"), Some(0));
        // Calibration volume still accumulates.
        assert_eq!(s.counter("engine.plan.accounted_bytes"), Some(123_456_789));
    }

    #[test]
    fn single_candidate_plans_are_unchecked() {
        let r = Registry::new();
        let mut a = AttributionMetrics::new(&r);
        let predictions = [prediction("Arrow b=8 l=1", 4, 1000.0, 1e-6)];
        let cost = a.record(
            &RunAttribution {
                algo: "Arrow b=8 l=1",
                predictions: &predictions,
                estimate: predictions[0].estimate,
                corrected: false,
                iters: 1,
                cost: CostModel::default(),
                target_ranks: 16,
            },
            &machine(&[1000]),
        );
        assert_eq!(cost.rank_agreement, None);
        assert_eq!(r.snapshot().counter("engine.plan.rank_checks"), Some(0));
    }
}
