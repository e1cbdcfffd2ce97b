//! A message-passing machine with α-β cost accounting.
//!
//! This crate is the stand-in for the MPI + GPU cluster of the paper's
//! evaluation. A [`Machine`] runs `p` *ranks* as real
//! OS threads executing the same SPMD closure; ranks exchange real data
//! through per-rank inboxes (a receiver sleeps until the `(src, tag)` it
//! asked for arrives and is woken by nothing else), and every message and
//! local kernel is charged to a per-rank **simulated clock** following
//! the α-β model of §2:
//!
//! * sending a message of `s` bytes occupies the sender for `α + β·s`
//!   (single-port, sends serialise),
//! * the receiver's clock advances to
//!   `max(local, depart + α + β·s)` when the message is consumed — which
//!   means computation placed *before* a receive naturally overlaps with
//!   the transfer, exactly like nonblocking MPI,
//! * local work is charged via [`RankCtx::compute_flops`].
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
//! schedule), and run it with [`Group::broadcast_plan`] or
//! [`Group::reduce_plan`]. The ring all-reduce is a [`Plan::ring`] run by
//! [`Group::allreduce_plan`], and point-to-point routes are a
//! [`Plan::routes`] run by [`Group::exchange`]. The distributed SpMM
//! algorithms send nothing else: every message of theirs is a step of
//! one of these plans, counted by [`Plan::traffic`] where it runs.
//! [`Group::broadcast`], [`Group::reduce_sum`] and
//! [`Group::allreduce_sum`] run the binomial tree on any [`Payload`].
//!
//! The simulated clock is deterministic given the message pattern: message
//! timestamps travel with the data and the final times are maxima over
//! them, independent of real thread scheduling.
//!
//! A rank program that panics aborts its run: peers that wait on a
//! message panic too instead of waiting forever, and [`Machine::run`]
//! re-raises the first rank's panic once every rank has returned.

pub mod collectives;
pub mod cost;
pub mod machine;
mod mailbox;
pub mod message;
pub mod rank;
pub mod stats;

pub use collectives::{fold_nonroots, Collective, Dir, Group, Plan, Schedule, Traffic};
pub use cost::CostModel;
pub use machine::{Machine, RunReport};
pub use message::Payload;
pub use rank::RankCtx;
pub use stats::{MachineStats, RankStats};
