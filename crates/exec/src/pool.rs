//! The compute-worker half of the pool: one FIFO job queue, workers
//! parked on one condvar under the queue's lock, and scoped fork-join
//! on top.

use crate::ranks::RankSlots;
use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A type-erased unit of work. Lifetimes are erased at the [`Scope`]
/// boundary; soundness comes from the scope blocking until every task
/// it spawned has finished.
pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// Shared state between the pool handle and its worker threads.
struct Shared {
    /// The one FIFO queue every job goes through. An idle worker checks
    /// it and parks on `wake` under this lock, so a push (which takes
    /// the lock) can never slip between the check and the wait.
    queue: Mutex<VecDeque<Job>>,
    wake: Condvar,
    shutdown: AtomicBool,
    jobs_executed: AtomicU64,
}

impl Shared {
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue
            .lock()
            .expect("no job runs under the queue's lock")
    }

    fn push_job(&self, job: Job) {
        self.lock_queue().push_back(job);
        self.wake.notify_one();
    }

    /// The queue's lock is released on return, before the caller runs
    /// the job.
    fn pop_job(&self) -> Option<Job> {
        self.lock_queue().pop_front()
    }

    fn run_job(&self, job: Job) {
        self.jobs_executed.fetch_add(1, Ordering::Relaxed);
        // Every job is a scope/rank wrapper that catches its own
        // panics; this outer catch is the backstop that keeps a worker
        // thread alive even if that invariant is ever broken.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

fn worker_main(shared: Arc<Shared>) {
    let mut queue = shared.lock_queue();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(job) = queue.pop_front() {
            drop(queue);
            shared.run_job(job);
            queue = shared.lock_queue();
            continue;
        }
        // The timeout is belt-and-braces only: checking and parking
        // under the queue's lock makes wakeups reliable.
        queue = shared
            .wake
            .wait_timeout(queue, Duration::from_millis(100))
            .expect("no job runs under the queue's lock")
            .0;
    }
}

/// Counters describing what a pool has executed — used by the
/// determinism/supervision tests and the benchmark's `exec.*` metrics
/// to show threads are reused, not respawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Jobs executed by compute workers (scope tasks, kernel chunks).
    pub compute_jobs: u64,
    /// SPMD runs served by [`ExecPool::run_tasks`].
    pub rank_runs: u64,
    /// Rank-slot threads spawned over the pool's lifetime.
    pub rank_threads_spawned: u64,
    /// Rank-slot acquisitions satisfied by a parked (cached) thread.
    pub rank_threads_reused: u64,
}

struct Inner {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    ranks: RankSlots,
    threads: usize,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Taking the lock waits out any worker between its shutdown
        // check and its park, so the notify reaches it.
        drop(self.shared.queue.lock());
        self.shared.wake.notify_all();
        for handle in self.workers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // Rank slots are joined by `RankSlots::drop`.
    }
}

/// A persistent thread pool. Cheap to clone (an `Arc` handle); all
/// clones share the same worker threads and rank-slot cache. See the
/// [crate docs](crate) for the execution model and [`crate::global`]
/// for the process-wide instance.
#[derive(Clone)]
pub struct ExecPool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.inner.threads)
            .finish_non_exhaustive()
    }
}

impl ExecPool {
    /// A private pool with `threads` compute workers (at least one).
    /// Rank slots are cached on demand and do not count against
    /// `threads`.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_executed: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("amd-exec-worker-{i}"))
                    .spawn(move || worker_main(shared))
                    .expect("worker thread spawns")
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                shared,
                workers: Mutex::new(workers),
                ranks: RankSlots::new(),
                threads,
            }),
        }
    }

    /// Number of compute workers.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Lifetime execution counters.
    pub fn stats(&self) -> ExecStats {
        let (rank_runs, rank_threads_spawned, rank_threads_reused) = self.inner.ranks.stats();
        ExecStats {
            compute_jobs: self.inner.shared.jobs_executed.load(Ordering::Relaxed),
            rank_runs,
            rank_threads_spawned,
            rank_threads_reused,
        }
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing non-`'static`
    /// data can be spawned. Blocks until every spawned task has
    /// finished — helping with queued work while it waits — then
    /// re-throws the first task panic (or `f`'s own panic).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::default());
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Wait even when `f` panicked: tasks borrow `'env` data that
        // must outlive them.
        self.wait_scope(&state);
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = state.panic.lock().unwrap().take() {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    fn wait_scope(&self, state: &ScopeState) {
        let shared = &self.inner.shared;
        loop {
            if state.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            // Help: run queued jobs (possibly from other scopes) so a
            // scope waiting inside a worker can never deadlock the
            // pool.
            if let Some(job) = shared.pop_job() {
                shared.run_job(job);
                continue;
            }
            let guard = state.done.lock().unwrap();
            if state.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            // Short timeout: a new *helpable* job does not signal
            // `done_cv`, so re-poll the queue at a modest cadence.
            let _ = state
                .done_cv
                .wait_timeout(guard, Duration::from_micros(200));
        }
    }

    /// Data-parallel loop that moves each element of `items` into `f`
    /// exactly once, with its index (the sparse kernels' chunk dispatch),
    /// dynamically load-balanced: up to `threads()` runner tasks (the
    /// caller is one of them) claim indices from a shared atomic counter.
    /// Serial fallthrough when `items.len() <= 1` or the pool has a single
    /// worker — no task is spawned and no allocation happens.
    ///
    /// If `f` panics, elements not yet claimed may be leaked (never
    /// dropped) — acceptable for the kernels' `&mut` chunk items, which
    /// have no drop glue; the panic itself propagates to the caller.
    pub fn for_each_take<I, F>(&self, mut items: Vec<I>, f: F)
    where
        I: Send,
        F: Fn(usize, I) + Sync,
    {
        let count = items.len();
        if count == 0 {
            return;
        }
        if count == 1 || self.threads() <= 1 {
            for (i, item) in items.into_iter().enumerate() {
                f(i, item);
            }
            return;
        }
        let base = SendPtr(items.as_mut_ptr());
        // Claimed elements are moved out by `ptr::read`; emptying the
        // vec *first* means a panic can never double-drop them.
        // SAFETY: capacity is untouched and len 0 is always valid.
        unsafe { items.set_len(0) };
        let next = AtomicUsize::new(0);
        let runners = self.threads().min(count);
        let f = &f;
        let next_ref = &next;
        let base_ref = &base;
        self.scope(|s| {
            let run = move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                // SAFETY: `i` was claimed exactly once by the atomic
                // counter, is in-bounds, and the allocation outlives
                // the scope (the caller still owns `items`).
                let item = unsafe { std::ptr::read(base_ref.0.add(i)) };
                f(i, item);
            };
            for _ in 1..runners {
                s.spawn(run);
            }
            run();
        });
    }

    /// Runs `tasks` — one blocking SPMD rank program each — on cached
    /// rank-slot threads, reusing parked threads from earlier runs and
    /// spawning only when the cache is short. Blocks until all have
    /// finished and returns their results in order; a panicking task
    /// comes back as `Err(payload)` and its slot thread survives.
    pub fn run_tasks<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<std::thread::Result<T>> {
        self.inner.ranks.run_tasks(tasks)
    }
}

/// Raw pointer wrapper so runner closures capturing it stay `Send`;
/// disjoint-index access is guaranteed by the claiming counter.
struct SendPtr<I>(*mut I);
unsafe impl<I: Send> Send for SendPtr<I> {}
unsafe impl<I: Send> Sync for SendPtr<I> {}

#[derive(Default)]
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

/// A fork-join scope: tasks spawned on it may borrow anything that
/// outlives the [`ExecPool::scope`] call. The first task panic is
/// re-thrown when the scope ends.
pub struct Scope<'pool, 'env> {
    pool: &'pool ExecPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawns `task` onto the pool. Panics inside `task` are caught,
    /// stored, and re-thrown by the enclosing `scope` call.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let state = Arc::clone(&self.state);
        state.pending.fetch_add(1, Ordering::AcqRel);
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = state.done.lock().unwrap();
                state.done_cv.notify_all();
            }
        });
        // SAFETY: the transmute only erases the `'env` lifetime bound.
        // `ExecPool::scope` blocks until `pending` returns to zero —
        // i.e. until this wrapper has run to completion — before any
        // `'env` borrow can end, so the job never outlives its data.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        self.pool.inner.shared.push_job(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// One rank program per rank `0..p`, each returning `f(rank)`.
    fn rank_tasks<T: Send + 'static>(
        p: usize,
        f: fn(usize) -> T,
    ) -> Vec<Box<dyn FnOnce() -> T + Send>> {
        (0..p)
            .map(|r| Box::new(move || f(r)) as Box<dyn FnOnce() -> T + Send>)
            .collect()
    }

    #[test]
    fn scope_runs_borrowing_tasks() {
        let pool = ExecPool::new(4);
        let mut data = vec![0u64; 64];
        {
            let slots: Vec<&mut u64> = data.iter_mut().collect();
            pool.scope(|s| {
                for (i, slot) in slots.into_iter().enumerate() {
                    s.spawn(move || *slot = i as u64 + 1);
                }
            });
        }
        assert_eq!(data, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn every_worker_survives_start_up() {
        // Four tasks that each wait until all four have started can only
        // finish when four threads run them at once. The scope's caller
        // helps, so one live worker would give two — a pool that lost
        // workers at start-up times out here instead of hanging.
        let pool = ExecPool::new(4);
        let started = Mutex::new(0usize);
        let all_started = Condvar::new();
        let saw_all = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut count = started.lock().unwrap();
                    *count += 1;
                    all_started.notify_all();
                    let (count, _) = all_started
                        .wait_timeout_while(count, Duration::from_secs(10), |c| *c < 4)
                        .unwrap();
                    if *count == 4 {
                        saw_all.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            saw_all.load(Ordering::Relaxed),
            4,
            "fewer than four threads ran the four tasks"
        );
    }

    #[test]
    fn for_each_take_covers_every_index_once() {
        let pool = ExecPool::new(3);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.for_each_take(vec![(); 1000], |i, ()| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_each_take_moves_every_item_once() {
        let pool = ExecPool::new(4);
        let items: Vec<(usize, String)> = (0..257).map(|i| (i, format!("v{i}"))).collect();
        let seen: Vec<Mutex<Option<String>>> = (0..257).map(|_| Mutex::new(None)).collect();
        pool.for_each_take(items, |_, (i, v)| {
            let prev = seen[i].lock().unwrap().replace(v);
            assert!(prev.is_none(), "item {i} dispatched twice");
        });
        for (i, slot) in seen.iter().enumerate() {
            assert_eq!(
                slot.lock().unwrap().as_deref(),
                Some(format!("v{i}").as_str())
            );
        }
    }

    #[test]
    fn scope_panic_propagates_but_pool_survives() {
        let pool = ExecPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task exploded"));
                s.spawn(|| ());
            });
        }));
        assert!(caught.is_err());
        // The pool still executes work afterwards.
        let counter = AtomicU64::new(0);
        pool.for_each_take(vec![(); 100], |_, ()| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Each outer task dispatches sixteen jobs from inside a scope
        // task, one worker included: there the only worker (or the
        // caller) waits on jobs queued behind it and must run them.
        for threads in [1, 2, 4] {
            let pool = ExecPool::new(threads);
            let total = AtomicU64::new(0);
            pool.scope(|s| {
                for _ in 0..8 {
                    let total = &total;
                    let pool2 = pool.clone();
                    s.spawn(move || {
                        pool2.scope(|inner| {
                            for _ in 0..16 {
                                inner.spawn(|| {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), 8 * 16, "{threads} workers");
        }
    }

    #[test]
    fn run_tasks_returns_in_order_and_reuses_threads() {
        let pool = ExecPool::new(1);
        let out: Vec<u32> = pool
            .run_tasks(rank_tasks(8, |r| r as u32 * 10))
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<u32>>());
        let first = pool.stats();
        assert_eq!(first.rank_threads_spawned, 8);
        // Second run reuses every parked slot.
        pool.run_tasks(rank_tasks(8, |r| r))
            .into_iter()
            .for_each(|r| {
                r.unwrap();
            });
        let second = pool.stats();
        assert_eq!(second.rank_threads_spawned, 8);
        assert_eq!(second.rank_threads_reused, 8);
        assert_eq!(second.rank_runs, 2);
    }

    #[test]
    fn rank_panic_comes_back_as_err_and_slot_survives() {
        let pool = ExecPool::new(1);
        let results = pool.run_tasks(rank_tasks(4, |r| {
            if r == 2 {
                panic!("rank 2 down");
            }
            r
        }));
        assert!(results[2].is_err());
        assert_eq!(*results[0].as_ref().unwrap(), 0);
        // The pool is not poisoned: the same slots serve the next run.
        let ok = pool.run_tasks(rank_tasks(4, |r| r + 100));
        assert!(ok.iter().all(|r| r.is_ok()));
        let stats = pool.stats();
        assert_eq!(
            stats.rank_threads_spawned, 4,
            "the panicked slot must serve again, not be replaced"
        );
    }

    #[test]
    fn pool_drop_joins_all_threads() {
        let pool = ExecPool::new(3);
        pool.run_tasks(rank_tasks(5, |r| r))
            .into_iter()
            .for_each(|r| {
                r.unwrap();
            });
        drop(pool); // must not hang
    }

    #[test]
    fn serial_fallthrough_paths() {
        let pool = ExecPool::new(4);
        pool.for_each_take(Vec::<u8>::new(), |_, _| panic!("must not run"));
        let single = Mutex::new(0u8);
        pool.for_each_take(vec![7u8], |i, v| {
            assert_eq!(i, 0);
            *single.lock().unwrap() = v;
        });
        assert_eq!(*single.lock().unwrap(), 7);
    }
}
