//! # amd-exec — the persistent thread pool
//!
//! One shared thread pool for everything the serving stack runs in
//! parallel: data-parallel kernel chunks (`amd-sparse`'s row blocks),
//! the ranks of each round of `amd-comm`'s step-list loop, and the
//! refresh worker's decompose — so a serving stack answering millions of
//! small queries pays no thread-creation latency on its hottest path.
//!
//! The pool has two kinds of threads, both persistent:
//!
//! * **Compute workers** execute short, non-blocking jobs — kernel
//!   chunks, scope tasks, a round's ranks, each running until it waits
//!   for a message — taken in order from one FIFO queue; an idle worker
//!   parks on one condvar under the queue's lock. See
//!   [`ExecPool::scope`] and [`ExecPool::for_each_take`].
//! * **Rank slots** execute *blocking* SPMD closure programs (a rank
//!   sleeps on its inbox inside `RankCtx::recv` mid-protocol, so it
//!   must own a thread). Only `amd-comm`'s closure `Machine` uses them —
//!   the benchmark's communication probe and the comm tests; no
//!   multiply does. Slots are
//!   parked threads cached between runs: [`ExecPool::run_tasks`]
//!   acquires `p` of them, reusing parked threads and spawning only when
//!   the cache is short. A panicking rank is caught on its slot thread,
//!   reported to the caller, and the thread returns to the cache — one
//!   bad program never poisons the pool.
//!
//! Scoped execution ([`Scope`]) lets tasks borrow stack data without
//! `'static` bounds: the scope blocks (and *helps* — it runs jobs from
//! the same queue while waiting) until every spawned task has
//! finished, so borrows stay valid. Task panics are caught, the first
//! one is re-thrown at the end of the scope, and the worker thread
//! survives.
//!
//! ## The global pool
//!
//! [`global()`] returns the process-wide pool every layer shares;
//! it is built lazily, sized by [`configure_global_threads`] (the CLI's
//! `--threads N`), else the `AMD_EXEC_THREADS` environment variable,
//! else `std::thread::available_parallelism`. Determinism note: none of
//! the results computed on the pool depend on its size — ranks keep
//! their own inboxes and simulated clocks, and kernel chunks write
//! disjoint output rows — so `--threads` trades wall time only.

mod pool;
mod ranks;

pub use pool::{ExecPool, ExecStats, Scope};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
/// Thread count requested before the global pool was built (0 = unset).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// The process-wide shared pool (built lazily on first use).
pub fn global() -> ExecPool {
    GLOBAL
        .get_or_init(|| ExecPool::new(requested_threads()))
        .clone()
}

/// Requests `threads` compute workers for the global pool. Returns
/// `true` when the request took effect — i.e. the global pool had not
/// been built yet. Call it once at startup (the CLI's `--threads N`)
/// before anything touches [`global()`].
pub fn configure_global_threads(threads: usize) -> bool {
    REQUESTED.store(threads.max(1), Ordering::SeqCst);
    if GLOBAL.get().is_some() {
        return GLOBAL.get().map(|p| p.threads()) == Some(threads.max(1));
    }
    true
}

/// The compute-worker count the global pool has (or will be built
/// with): the configured request, else `AMD_EXEC_THREADS`, else
/// `available_parallelism`.
pub fn requested_threads() -> usize {
    if let Some(p) = GLOBAL.get() {
        return p.threads();
    }
    let req = REQUESTED.load(Ordering::SeqCst);
    if req > 0 {
        return req;
    }
    if let Some(n) = std::env::var("AMD_EXEC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
