//! Fault plans: a named set of faults armed together under one seed.

use crate::failpoint::{self, Fault, FaultAction, FaultGuard, Trigger};

/// A set of faults plus the seed for their deterministic triggers.
/// Build with [`FaultPlan::new`] + [`with`](FaultPlan::with) or use a
/// canned constructor, then [`arm`](FaultPlan::arm) it for the
/// duration of a scenario.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for probabilistic triggers (per-site streams derive from
    /// this plus the site name).
    pub seed: u64,
    /// The faults armed together.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan under `seed`. Arming it injects nothing but still
    /// takes the process-wide exclusivity lock — fault-free reference
    /// runs arm an empty plan so they serialize with faulty runs.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds one fault (builder style).
    pub fn with(mut self, site: &str, action: FaultAction, trigger: Trigger) -> Self {
        self.faults.push(Fault {
            site: site.to_string(),
            action,
            trigger,
        });
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Arms the plan. The returned guard disarms it on drop.
    pub fn arm(&self) -> FaultGuard {
        failpoint::arm(self.seed, &self.faults)
    }

    /// Arms the plan in place of whatever `guard` had armed, without
    /// giving up the process-wide exclusivity lock in between.
    pub fn rearm(&self, guard: &mut FaultGuard) {
        guard.rearm(self.seed, &self.faults);
    }

    /// Kill one refresh build: the first decompose job panics
    /// mid-flight. Supervision must count it and requeue the grant
    /// with the stream serving bit-exactly throughout.
    pub fn worker_kill(seed: u64) -> Self {
        Self::new(seed).with(
            failpoint::WORKER_DECOMPOSE_PANIC,
            FaultAction::Panic,
            Trigger::Times(1),
        )
    }

    /// Kill every decompose attempt: retries exhaust and the hub must
    /// take the counted synchronous-refresh fallback.
    pub fn worker_kill_always(seed: u64) -> Self {
        Self::new(seed).with(
            failpoint::WORKER_DECOMPOSE_PANIC,
            FaultAction::Panic,
            Trigger::Always,
        )
    }

    /// Simulated crash at one catalog site on its `nth` hit (1-based).
    /// The write in progress is abandoned exactly as a real crash
    /// would leave it; reopen must recover with zero orphans.
    pub fn crash_at(seed: u64, site: &str, nth: u64) -> Self {
        Self::new(seed).with(site, FaultAction::Error, Trigger::Nth(nth))
    }

    /// Torn payload write: the first payload written is truncated to
    /// `keep` of its length and not fsynced. The checksum footer must
    /// reject it on load.
    pub fn torn_payload(seed: u64, keep: f64) -> Self {
        Self::new(seed).with(
            failpoint::CATALOG_PAYLOAD_TORN,
            FaultAction::Torn(keep),
            Trigger::Nth(1),
        )
    }

    /// Transient multiply errors: the first `times` serving multiplies
    /// fail; the engine must retry and answer bit-exactly.
    pub fn transient_multiply(seed: u64, times: u64) -> Self {
        Self::new(seed).with(
            failpoint::ENGINE_MULTIPLY_TRANSIENT,
            FaultAction::Error,
            Trigger::Times(times),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_faults() {
        let plan = FaultPlan::worker_kill(5).with(
            failpoint::ENGINE_MULTIPLY_TRANSIENT,
            FaultAction::Error,
            Trigger::Times(1),
        );
        assert_eq!(plan.seed, 5);
        assert_eq!(plan.faults.len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }

    #[test]
    fn rearming_in_place_switches_plans_under_one_guard() {
        let mut guard = FaultPlan::new(1).arm();
        assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_ok());
        FaultPlan::transient_multiply(2, 1).rearm(&mut guard);
        assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_err());
        assert_eq!(
            failpoint::fired_counts(),
            vec![(failpoint::ENGINE_MULTIPLY_TRANSIENT.to_string(), 1, 1)]
        );
        // Re-arming starts the counts over; disarming clears the table.
        FaultPlan::transient_multiply(2, 1).rearm(&mut guard);
        assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_err());
        guard.disarm();
        assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_ok());
        assert!(failpoint::fired_counts().is_empty());
    }

    #[test]
    fn empty_plan_arms_nothing_but_holds_the_lock() {
        let plan = FaultPlan::new(1);
        let _guard = plan.arm();
        assert!(failpoint::check(failpoint::WORKER_DECOMPOSE_PANIC).is_ok());
        assert!(failpoint::fired_counts().is_empty());
    }
}
