//! The staleness budget: when is a pending delta "too big"?
//!
//! The corrected multiply path pays per iteration for every pending delta
//! entry (broadcast bytes plus replicated correction flops — see
//! [`amd_spmm::DeltaSpmm`]), while a refresh pays a one-off LA-Decompose
//! of the merged matrix. The budget draws the line between the two: it
//! bounds how much delta may accumulate before the holder must compact.

/// Limits on the pending delta of a dynamic matrix. A budget is
/// *exceeded* as soon as **any** configured limit is crossed; every limit
/// defaults to "unbounded" so callers opt into exactly the signals they
/// care about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessBudget {
    /// Largest number of distinct delta positions tolerated.
    pub max_delta_nnz: usize,
    /// Largest tolerated ratio `nnz(ΔA) / max(nnz(A₀), 1)`. This is the
    /// natural knob: it tracks the relative overhead of the corrected
    /// multiply, which scales with exactly this ratio.
    pub max_delta_fraction: f64,
    /// Largest tolerated absolute delta mass `Σ |δ|` (numerical drift
    /// guard for weight-update-heavy streams).
    pub max_delta_mass: f64,
}

impl Default for StalenessBudget {
    /// Unbounded: never forces a refresh.
    fn default() -> Self {
        Self {
            max_delta_nnz: usize::MAX,
            max_delta_fraction: f64::INFINITY,
            max_delta_mass: f64::INFINITY,
        }
    }
}

impl StalenessBudget {
    /// A budget bounding only the delta/base nnz ratio — the recommended
    /// configuration (e.g. `0.1` refreshes once the delta reaches 10% of
    /// the base structure).
    pub fn nnz_fraction(fraction: f64) -> Self {
        Self {
            max_delta_fraction: fraction,
            ..Self::default()
        }
    }

    /// A budget bounding only the absolute number of delta entries.
    pub fn nnz_cap(cap: usize) -> Self {
        Self {
            max_delta_nnz: cap,
            ..Self::default()
        }
    }

    /// `true` once the pending delta crosses any configured limit.
    pub fn exceeded(&self, delta_nnz: usize, delta_mass: f64, base_nnz: usize) -> bool {
        delta_nnz > self.max_delta_nnz
            || delta_nnz as f64 > self.max_delta_fraction * base_nnz.max(1) as f64
            || delta_mass > self.max_delta_mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded() {
        let b = StalenessBudget::default();
        assert!(!b.exceeded(usize::MAX / 2, 1e300, 0));
    }

    #[test]
    fn fraction_budget_trips_relative_to_base() {
        let b = StalenessBudget::nnz_fraction(0.1);
        assert!(!b.exceeded(10, 0.0, 100));
        assert!(b.exceeded(11, 0.0, 100));
        // An empty base counts as one entry, so any delta trips.
        assert!(b.exceeded(1, 0.0, 0));
    }

    #[test]
    fn nnz_cap_trips_absolutely() {
        let b = StalenessBudget::nnz_cap(3);
        assert!(!b.exceeded(3, 0.0, 1_000_000));
        assert!(b.exceeded(4, 0.0, 1_000_000));
    }

    #[test]
    fn mass_budget_trips_on_drift() {
        let b = StalenessBudget {
            max_delta_mass: 5.0,
            ..StalenessBudget::default()
        };
        assert!(!b.exceeded(1, 5.0, 10));
        assert!(b.exceeded(1, 5.5, 10));
    }
}
