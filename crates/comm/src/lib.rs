//! A message-passing machine with α-β cost accounting.
//!
//! This crate is the stand-in for the MPI + GPU cluster of the paper's
//! evaluation. `p` *ranks* exchange real data, and every message and
//! local kernel is charged to a per-rank **simulated clock** following
//! the α-β model of §2:
//!
//! * sending a message of `s` bytes occupies the sender for `α + β·s`
//!   (single-port, sends serialise),
//! * the receiver's clock advances to
//!   `max(local, depart + α + β·s)` when the message is consumed — which
//!   means computation placed *before* a receive naturally overlaps with
//!   the transfer, exactly like nonblocking MPI,
//! * local work is charged by a [`Step::Compute`].
//!
//! Collectives ([`Group`]) are built from point-to-point messages —
//! binomial trees, for large row buffers scatter/all-gather and
//! reduce-scatter/gather schedules, and for buffers of which each member
//! touches a few rows one message of those rows per member — so their
//! latency and bandwidth terms emerge from the model rather than being
//! injected as a formula.
//!
//! A row collective is reached one way: build its [`Collective`] once,
//! take a [`Plan`] with [`Collective::pick`] (or [`Collective::plan`] by
//! schedule), and name it in a [`Step::run`] of a rank's list. The ring
//! all-reduce is a [`Plan::ring`] and point-to-point routes are a
//! [`Plan::routes`], taken the same way.
//!
//! An iteration of a distributed SpMM algorithm is data ([`steps`]): per
//! rank, an ordered list of [`Step`]s — its part in a plan on one of its
//! buffers, or a piece of local work of a type the caller chooses
//! ([`Work`]) — built once on the host. The list is the rank's program,
//! and one loop runs every rank's list, with no thread of its own per
//! rank: [`run`] with payloads, each plan on the group's one runner and
//! each piece of work charged and then done by the caller's kernel
//! runner, the ranks of each round on the `amd-exec` pool; [`walk`] the
//! same lists without payloads, which is how the algorithms predict and
//! account without running and how [`Collective::pick`] weighs its
//! candidates ([`Plan::alone`]). Both charge a message the bytes its plan
//! says it moves, so a walk returns every rank's [`RankStats`] bit for bit
//! as the run charges them. The algorithms send nothing else, so the
//! steps that run are the steps counted. A list that deadlocks panics
//! naming every waiting `(rank, src, tag)`.
//!
//! A [`Machine`] runs closure programs instead: an SPMD closure on `p`
//! rank-slot threads of the pool, each receive ([`RankCtx::recv`])
//! sleeping until its `(src, tag)` arrives. [`Group::broadcast`],
//! [`Group::reduce_sum`] and [`Group::allreduce_sum`] run a binomial
//! tree's plan there, on vectors of `f64`, through the same runner. No
//! step list runs on it: it serves the benchmark's communication probe
//! and this crate's tests. A rank
//! program that panics aborts its run: peers that wait on a message
//! panic too instead of waiting forever, and [`Machine::run`] re-raises
//! the first rank's panic once every rank has returned.
//!
//! The simulated clock is deterministic given the message pattern: message
//! timestamps travel with the data and the final times are maxima over
//! them, independent of real thread scheduling.

pub mod collectives;
pub mod cost;
pub mod machine;
mod mailbox;
pub mod message;
pub mod rank;
pub mod stats;
pub mod steps;

pub use collectives::{fold_nonroots, Collective, Dir, Group, Plan, Schedule};
pub use cost::CostModel;
pub use machine::{Machine, RunReport};
pub use message::Payload;
pub use rank::RankCtx;
pub use stats::{MachineStats, RankStats};
pub use steps::{order, run, walk, Step, Work};
