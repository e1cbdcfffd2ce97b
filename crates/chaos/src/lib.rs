//! # amd-chaos — fault injection for the arrow-matrix serving stack
//!
//! The serving stack earns trust by surviving injected faults
//! repeatedly, not by never seeing them. This crate provides the
//! primitives the chaos harness is built from:
//!
//! * [`failpoint`] — named, deterministic-seeded injection sites
//!   threaded through catalog I/O, the refresh worker, and the serving
//!   path. When no fault plan is armed every probe is a single relaxed
//!   atomic load and a predicted branch, so the telemetry-overhead gate
//!   (`tests/obs.rs::perf_smoke_telemetry_overhead`, < 3%) holds with
//!   the probes compiled in.
//! * [`plan`] — [`FaultPlan`]: a named set of (site, action, trigger)
//!   faults with one seed, armed as an RAII [`FaultGuard`] that holds a
//!   process-wide exclusive lock (one armed plan at a time) and disarms
//!   on drop. Canned plans cover the scenarios CI runs: worker kill,
//!   a crash in each catalog fsync/rename window, torn payload writes,
//!   and transient multiply errors.
//! * [`trace`] — [`ScenarioTrace`]: a recorded mutation/query trace
//!   (`amd-trace/1`, line-oriented text) with save/load for
//!   record + replay of chaos scenarios.
//! * [`generators`] — adversarial delta generators: region-merging
//!   edges that defeat splice locality, oscillating content that
//!   exercises merged-fingerprint reuse, and Zipf-skewed bursty tenant
//!   traffic.
//!
//! The scenario *runner* (which drives a `StreamHub` under a plan and
//! asserts bit-exactness against a fault-free reference) lives in the
//! facade crate (`arrow_matrix::scenario`), because this crate sits
//! below `amd-stream` in the dependency stack.
//!
//! ```
//! use amd_chaos::{failpoint, FaultAction, FaultPlan, Trigger};
//!
//! // Disarmed: probes are no-ops.
//! assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_ok());
//!
//! // Armed: the first two hits fail with `SparseError::Injected`.
//! let plan = FaultPlan::new(7).with(
//!     failpoint::ENGINE_MULTIPLY_TRANSIENT,
//!     FaultAction::Error,
//!     Trigger::Times(2),
//! );
//! let guard = plan.arm();
//! assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_err());
//! assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_err());
//! assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_ok());
//! drop(guard); // disarms
//! assert!(failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT).is_ok());
//! ```

pub mod failpoint;
pub mod generators;
pub mod plan;
pub mod trace;

pub use failpoint::{quiet_injected_panics, Fault, FaultAction, FaultGuard, Trigger};
pub use plan::FaultPlan;
pub use trace::{ScenarioTrace, TraceOp, TRACE_SCHEMA};
