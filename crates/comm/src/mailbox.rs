//! The ranks' inboxes: where a sent [`Packet`] waits until its receiver
//! asks for it.
//!
//! One [`Inbox`] per rank — a mutex over per-source FIFO queues and a
//! condition variable only its owner ever sleeps on. A receiver that
//! finds nothing under the `(src, tag)` it wants registers that pair and
//! sleeps; a sender queues its packet and signals **only** when the pair
//! registered is the packet's own. A rank is therefore woken for the
//! packet it waits on and for nothing else, and a send nobody waits for
//! costs a lock and no system call — on a host with fewer cores than
//! ranks every wake-up avoided is a context switch avoided.
//!
//! Matching is by `(src, tag)` and a source's queue keeps arrival order,
//! so two messages with the same `(src, tag)` are received in send order
//! (MPI's non-overtaking rule; the ring all-reduce relies on it). What a
//! rank receives, and the clock that travels with it, does not depend on
//! how the host schedules the threads.
//!
//! A rank program that unwinds [`abort`](PostOffice::abort)s the run:
//! every inbox is marked and its owner woken, and a receiver that would
//! have to sleep panics instead, naming the rank that died — a peer of a
//! dead rank can no longer wait forever.

use crate::message::Packet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// No rank has unwound.
const NOBODY: u32 = u32::MAX;

#[derive(Default)]
struct Queues {
    /// `from[src]`: packets sent by `src` and not yet received, oldest
    /// first.
    from: Vec<VecDeque<Packet>>,
    /// The `(src, tag)` the owner sleeps on, if it sleeps.
    waiting: Option<(u32, u64)>,
    /// Set once a rank's program has unwound.
    aborted: bool,
}

struct Inbox {
    queues: Mutex<Queues>,
    arrived: Condvar,
}

impl Inbox {
    /// Locks the queues, poisoned or not: every update is one push, one
    /// removal or one store, so they are valid at every step — and
    /// [`PostOffice::abort`] runs inside a `Drop`, where it may not panic.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The inboxes of one run, shared by its ranks.
pub(crate) struct PostOffice {
    inboxes: Vec<Inbox>,
    /// The first rank whose program unwound, or [`NOBODY`].
    dead: AtomicU32,
}

impl PostOffice {
    pub(crate) fn new(p: usize) -> Self {
        let inboxes = (0..p)
            .map(|_| Inbox {
                queues: Mutex::new(Queues {
                    from: (0..p).map(|_| VecDeque::new()).collect(),
                    ..Queues::default()
                }),
                arrived: Condvar::new(),
            })
            .collect();
        Self {
            inboxes,
            dead: AtomicU32::new(NOBODY),
        }
    }

    /// Queues `pkt` for rank `to`; wakes `to` if this is the packet it
    /// sleeps on. Never blocks.
    pub(crate) fn deliver(&self, to: u32, pkt: Packet) {
        let inbox = &self.inboxes[to as usize];
        let mut queues = inbox.lock();
        let wanted = queues.waiting == Some((pkt.src, pkt.tag));
        queues.from[pkt.src as usize].push_back(pkt);
        if wanted {
            queues.waiting = None;
            inbox.arrived.notify_one();
        }
    }

    /// Takes the oldest packet `from` sent to `rank` under `tag`,
    /// sleeping until it arrives. Panics, naming the dead rank, if a
    /// rank's program unwound and the packet is not there.
    pub(crate) fn take(&self, rank: u32, from: u32, tag: u64) -> Packet {
        let inbox = &self.inboxes[rank as usize];
        let mut queues = inbox.lock();
        loop {
            let queue = &mut queues.from[from as usize];
            // The first match, and `remove`, not `swap_remove_*`: the
            // same (src, tag) must keep FIFO order.
            if let Some(i) = queue.iter().position(|p| p.tag == tag) {
                return queue.remove(i).expect("position is in range");
            }
            if queues.aborted {
                drop(queues);
                let dead = self.dead.load(Ordering::SeqCst);
                panic!(
                    "rank {rank}: rank {dead} panicked while this rank \
                     waited for (src={from}, tag={tag:#x})"
                );
            }
            // Whoever delivers the match clears the registration.
            queues.waiting = Some((from, tag));
            queues = inbox
                .arrived
                .wait(queues)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records that `rank`'s program unwound and wakes every sleeper.
    pub(crate) fn abort(&self, rank: u32) {
        // The first to die is the one the run reports; the ranks it
        // takes down with it abort too and must not replace it.
        let _ = self
            .dead
            .compare_exchange(NOBODY, rank, Ordering::SeqCst, Ordering::SeqCst);
        for inbox in &self.inboxes {
            inbox.lock().aborted = true;
            inbox.arrived.notify_one();
        }
    }

    /// The first rank whose program unwound, if any did.
    pub(crate) fn first_dead(&self) -> Option<u32> {
        let dead = self.dead.load(Ordering::SeqCst);
        (dead != NOBODY).then_some(dead)
    }
}
