//! Shared incremental-refresh (splice) counters.
//!
//! [`StreamHub`] folds [`RefreshOutcome`]s per tenant and hub-wide the
//! same way; `SpliceCells::record` is the single definition of that
//! fold so the two sets of counters cannot diverge.
//!
//! [`StreamHub`]: crate::StreamHub

use arrow_core::incremental::RefreshOutcome;

amd_obs::stats_view! {
    /// Counters of the delta-localized refresh path.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SpliceStats {
        /// Refreshes that spliced the prior decomposition (delta-localized
        /// re-decomposition) instead of re-running LA-Decompose in full.
        incremental_refreshes: Counter,
        /// Refreshes that attempted the incremental path but fell back to a
        /// cold decompose (region too large, order too deep, prior evicted,
        /// …). Every recorded refresh is one or the other.
        fallback_refreshes: Counter,
        /// Vertices whose arrangement survived incremental refreshes
        /// untouched, summed over refreshes.
        reused_vertices: Counter,
        /// Matrix dimension summed over recorded refreshes — the
        /// denominator of
        /// [`reused_vertex_fraction`](Self::reused_vertex_fraction).
        refresh_total_vertices: Counter,
    }
    /// The handles behind a [`SpliceStats`] group, named
    /// `<prefix>splice.*`.
    pub(crate) struct SpliceCells {}
}

impl SpliceStats {
    /// Fraction of vertices (summed over recorded refreshes) whose
    /// arrangement was reused rather than recomputed.
    pub fn reused_vertex_fraction(&self) -> f64 {
        if self.refresh_total_vertices == 0 {
            return 0.0;
        }
        self.reused_vertices as f64 / self.refresh_total_vertices as f64
    }
}

impl SpliceCells {
    /// Folds one refresh outcome into the counters.
    pub(crate) fn record(&self, outcome: &RefreshOutcome) {
        if outcome.incremental {
            self.incremental_refreshes.inc();
            self.reused_vertices
                .add((outcome.total_vertices - outcome.affected_vertices) as u64);
        } else {
            self.fallback_refreshes.inc();
        }
        self.refresh_total_vertices
            .add(outcome.total_vertices as u64);
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
        let registry = amd_obs::Registry::new();
        let cells = SpliceCells::new(&registry, "t.splice.");
        assert_eq!(cells.view().reused_vertex_fraction(), 0.0);
        cells.record(&outcome(true, 25, 100));
        cells.record(&outcome(false, 60, 100));
        let s = cells.view();
        assert_eq!(s.incremental_refreshes, 1);
        assert_eq!(s.fallback_refreshes, 1);
        assert_eq!(s.reused_vertices, 75);
        assert_eq!(s.refresh_total_vertices, 200);
        assert_eq!(s.reused_vertex_fraction(), 0.375);
    }
}
