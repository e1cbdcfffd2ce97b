//! Rank slots: cached persistent threads for *blocking* SPMD rank
//! programs.
//!
//! A machine rank sleeps on its inbox inside `RankCtx::recv`
//! mid-protocol waiting for a peer, so it must own a thread — running
//! ranks as compute-worker jobs would deadlock whenever `p` exceeds the
//! worker count. Instead the pool keeps a cache of parked threads, each
//! waiting on its own mpsc channel; a run acquires `p` of them, sends
//! one erased job per rank, blocks until all report done, and parks the
//! threads again.

use crate::pool::Job;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Parked rank threads beyond this many are dropped instead of cached.
const MAX_CACHED: usize = 512;

struct RankThread {
    tx: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

impl RankThread {
    fn spawn(ordinal: u64) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let handle = std::thread::Builder::new()
            .name(format!("amd-exec-rank-{ordinal}"))
            .spawn(move || {
                // Jobs are wrappers that catch their own panics, so
                // this loop only exits when the sender is dropped.
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("rank thread spawns");
        Self {
            tx,
            handle: Some(handle),
        }
    }
}

impl Drop for RankThread {
    fn drop(&mut self) {
        // Closing the channel ends the thread's recv loop.
        let (dead_tx, _) = mpsc::channel();
        drop(std::mem::replace(&mut self.tx, dead_tx));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

pub(crate) struct RankSlots {
    idle: Mutex<Vec<RankThread>>,
    spawned: AtomicU64,
    reused: AtomicU64,
    runs: AtomicU64,
}

impl RankSlots {
    pub(crate) fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        }
    }

    /// `(runs, spawned, reused)` lifetime counters.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (
            self.runs.load(Ordering::Relaxed),
            self.spawned.load(Ordering::Relaxed),
            self.reused.load(Ordering::Relaxed),
        )
    }

    fn acquire(&self, p: usize) -> Vec<RankThread> {
        let mut slots = {
            let mut idle = self.idle.lock().unwrap();
            let take = idle.len().min(p);
            let at = idle.len() - take;
            idle.split_off(at)
        };
        self.reused.fetch_add(slots.len() as u64, Ordering::Relaxed);
        while slots.len() < p {
            let ordinal = self.spawned.fetch_add(1, Ordering::Relaxed);
            slots.push(RankThread::spawn(ordinal));
        }
        slots
    }

    fn release(&self, slots: Vec<RankThread>) {
        let mut idle = self.idle.lock().unwrap();
        for slot in slots {
            if idle.len() < MAX_CACHED {
                idle.push(slot);
            }
            // Excess slots drop here: channel closes, thread joins.
        }
    }

    /// Runs one blocking task per rank on cached slot threads and
    /// returns their results in rank order. Panics come back as
    /// `Err(payload)`; the slot threads always survive and return to
    /// the cache.
    pub(crate) fn run_tasks<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<std::thread::Result<T>> {
        let p = tasks.len();
        if p == 0 {
            return Vec::new();
        }
        self.runs.fetch_add(1, Ordering::Relaxed);
        let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..p).map(|_| Mutex::new(None)).collect();
        let pending = AtomicUsize::new(p);
        let done = Mutex::new(());
        let done_cv = Condvar::new();

        let mut slots = self.acquire(p);
        for (r, task) in tasks.into_iter().enumerate() {
            let result_slot = &results[r];
            let pending_ref = &pending;
            let done_ref = &done;
            let cv_ref = &done_cv;
            let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(task));
                *result_slot.lock().unwrap() = Some(out);
                if pending_ref.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _guard = done_ref.lock().unwrap();
                    cv_ref.notify_all();
                }
            });
            // SAFETY: only the lifetime bound is erased; this function
            // blocks below until `pending` hits zero — i.e. until every
            // job has finished — before any borrowed data can go away.
            let mut job: Job = unsafe { erase_job(wrapped) };
            // A closed channel means the slot thread died (it never
            // does in normal operation); replace the slot rather than
            // run inline, which could deadlock a blocking protocol.
            loop {
                match slots[r].tx.send(job) {
                    Ok(()) => break,
                    Err(mpsc::SendError(returned)) => {
                        job = returned;
                        let ordinal = self.spawned.fetch_add(1, Ordering::Relaxed);
                        slots[r] = RankThread::spawn(ordinal);
                    }
                }
            }
        }

        let mut guard = done.lock().unwrap();
        while pending.load(Ordering::Acquire) > 0 {
            let (g, _) = done_cv
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap();
            guard = g;
        }
        drop(guard);
        self.release(slots);

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every rank job writes its result before finishing")
            })
            .collect()
    }
}

/// Erases the borrow lifetime of a boxed job. Callers must guarantee
/// the job finishes before any borrowed data it captures goes away.
unsafe fn erase_job<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    std::mem::transmute(job)
}

impl Drop for RankSlots {
    fn drop(&mut self) {
        // Each RankThread's Drop closes its channel and joins.
        self.idle.lock().unwrap().clear();
    }
}
