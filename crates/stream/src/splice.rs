//! Shared incremental-refresh (splice) counters.
//!
//! [`StreamHub`] folds [`RefreshOutcome`]s per tenant and hub-wide the
//! same way; this is the single definition of that fold so the two
//! sets of counters cannot diverge.
//!
//! [`StreamHub`]: crate::StreamHub

use amd_obs::{Counter, Registry};
use arrow_core::incremental::RefreshOutcome;

/// Counters of the delta-localized refresh path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpliceStats {
    /// Refreshes that spliced the prior decomposition (delta-localized
    /// re-decomposition) instead of re-running LA-Decompose in full.
    pub incremental_refreshes: u64,
    /// Refreshes that attempted the incremental path but fell back to a
    /// cold decompose (region too large, order too deep, prior evicted,
    /// …). Every recorded refresh is one or the other.
    pub fallback_refreshes: u64,
    /// Vertices whose arrangement survived incremental refreshes
    /// untouched, summed over refreshes.
    pub reused_vertices: u64,
    /// Matrix dimension summed over recorded refreshes — the
    /// denominator of
    /// [`reused_vertex_fraction`](Self::reused_vertex_fraction).
    pub refresh_total_vertices: u64,
}

impl SpliceStats {
    /// Folds one refresh outcome into the counters.
    pub fn record(&mut self, outcome: &RefreshOutcome) {
        if outcome.incremental {
            self.incremental_refreshes += 1;
            self.reused_vertices += (outcome.total_vertices - outcome.affected_vertices) as u64;
        } else {
            self.fallback_refreshes += 1;
        }
        self.refresh_total_vertices += outcome.total_vertices as u64;
    }

    /// Fraction of vertices (summed over recorded refreshes) whose
    /// arrangement was reused rather than recomputed.
    pub fn reused_vertex_fraction(&self) -> f64 {
        if self.refresh_total_vertices == 0 {
            return 0.0;
        }
        self.reused_vertices as f64 / self.refresh_total_vertices as f64
    }
}

/// Registry-backed splice counters: the metric handles behind a
/// [`SpliceStats`] view. Recording goes through
/// [`SpliceStats::record`] — the one fold definition — and the deltas
/// land in the registry, so the serving layers publish their
/// incremental-vs-fallback split without keeping a second set of books.
#[derive(Clone)]
pub struct SpliceCounters {
    incremental_refreshes: Counter,
    fallback_refreshes: Counter,
    reused_vertices: Counter,
    refresh_total_vertices: Counter,
}

impl SpliceCounters {
    /// Handles named `<prefix>splice.*` in `registry` (e.g. prefix
    /// `"hub."` publishes `hub.splice.incremental_refreshes`, …).
    pub fn new(registry: &Registry, prefix: &str) -> Self {
        Self {
            incremental_refreshes: registry
                .counter(&format!("{prefix}splice.incremental_refreshes")),
            fallback_refreshes: registry.counter(&format!("{prefix}splice.fallback_refreshes")),
            reused_vertices: registry.counter(&format!("{prefix}splice.reused_vertices")),
            refresh_total_vertices: registry
                .counter(&format!("{prefix}splice.refresh_total_vertices")),
        }
    }

    /// Folds one refresh outcome into the counters (same fold as
    /// [`SpliceStats::record`]).
    pub fn record(&self, outcome: &RefreshOutcome) {
        let mut delta = SpliceStats::default();
        delta.record(outcome);
        self.incremental_refreshes.add(delta.incremental_refreshes);
        self.fallback_refreshes.add(delta.fallback_refreshes);
        self.reused_vertices.add(delta.reused_vertices);
        self.refresh_total_vertices
            .add(delta.refresh_total_vertices);
    }

    /// The counters as a [`SpliceStats`] view.
    pub fn stats(&self) -> SpliceStats {
        SpliceStats {
            incremental_refreshes: self.incremental_refreshes.get(),
            fallback_refreshes: self.fallback_refreshes.get(),
            reused_vertices: self.reused_vertices.get(),
            refresh_total_vertices: self.refresh_total_vertices.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(incremental: bool, affected: u32, total: u32) -> RefreshOutcome {
        RefreshOutcome {
            incremental,
            fallback: None,
            affected_vertices: affected,
            total_vertices: total,
            order: 1,
            timings: Default::default(),
        }
    }

    #[test]
    fn record_folds_both_paths() {
        let mut s = SpliceStats::default();
        assert_eq!(s.reused_vertex_fraction(), 0.0);
        s.record(&outcome(true, 25, 100));
        s.record(&outcome(false, 60, 100));
        assert_eq!(s.incremental_refreshes, 1);
        assert_eq!(s.fallback_refreshes, 1);
        assert_eq!(s.reused_vertices, 75);
        assert_eq!(s.refresh_total_vertices, 200);
        assert_eq!(s.reused_vertex_fraction(), 0.375);
    }
}
