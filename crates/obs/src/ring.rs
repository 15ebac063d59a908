//! Lock-free per-thread event rings.
//!
//! Each recording thread owns one [`ThreadRing`]: a fixed-capacity
//! circular buffer of packed events (see [`crate::event`]). The owning
//! thread is the only writer; any thread may take a [`snapshot`]
//! concurrently. Coherence is a per-slot sequence lock: the writer bumps
//! the slot's `seq` to an odd value, stores the payload words, then bumps
//! it to the next even value. A reader that observes the same even `seq`
//! before and after loading the words has a consistent event; otherwise it
//! skips the slot. All accesses are atomic word loads/stores — no
//! `unsafe`, no torn reads by construction.
//!
//! [`snapshot`]: ThreadRing::snapshot

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::event::{Event, EVENT_WORDS};

/// Default per-thread ring capacity (events). Override with the
/// `MPFA_OBS_RING_CAP` environment variable, read once per process.
pub const DEFAULT_RING_CAP: usize = 65_536;

struct Slot {
    /// Seqlock word: odd while the writer is mid-store, even when stable.
    /// `seq / 2` is the number of completed writes to this slot.
    seq: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// A fixed-capacity single-writer / multi-reader event ring.
pub struct ThreadRing {
    /// Total events ever pushed; `head % cap` is the next write index.
    head: AtomicU64,
    slots: Vec<Slot>,
    /// Human-readable owner label, e.g. the thread name.
    label: String,
}

impl ThreadRing {
    /// Create a ring with capacity `cap` (rounded up to at least 1).
    pub fn with_capacity(label: &str, cap: usize) -> ThreadRing {
        let cap = cap.max(1);
        ThreadRing {
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
            label: label.to_string(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Owner label supplied at creation.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total events pushed over the ring's lifetime (may exceed
    /// capacity; older events are overwritten).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Record one event. Must only be called by the owning thread: the
    /// ring is single-writer. (Enforced by the thread-local access path
    /// in [`crate::record`].)
    pub fn push(&self, ev: &Event) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        let seq0 = slot.seq.load(Ordering::Relaxed);
        // Odd = write in progress. Release so readers that see the odd
        // value know to retry/skip.
        slot.seq.store(seq0 | 1, Ordering::Release);
        let raw = ev.pack();
        for (w, v) in slot.words.iter().zip(raw) {
            w.store(v, Ordering::Relaxed);
        }
        // Even, one generation later.
        slot.seq
            .store((seq0 | 1).wrapping_add(1), Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Read a consistent copy of the ring's current contents, oldest
    /// first. Slots being concurrently rewritten are skipped; everything
    /// returned is a fully-written event.
    pub fn snapshot(&self) -> ThreadSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let dropped = head.saturating_sub(cap);
        let mut events = Vec::with_capacity(head.min(cap) as usize);
        for i in dropped..head {
            let slot = &self.slots[(i % cap) as usize];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before & 1 == 1 {
                continue; // mid-write
            }
            let mut raw = [0u64; EVENT_WORDS];
            for (dst, w) in raw.iter_mut().zip(&slot.words) {
                *dst = w.load(Ordering::Relaxed);
            }
            let seq_after = slot.seq.load(Ordering::Acquire);
            if seq_after != seq_before {
                continue; // rewritten underneath us
            }
            if let Some(ev) = Event::unpack(raw) {
                events.push(ev);
            }
        }
        // The per-slot skip can reorder nothing, but overwrites during
        // the scan can surface a newer event before an older one; restore
        // time order for consumers.
        events.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(std::cmp::Ordering::Equal));
        ThreadSnapshot {
            label: self.label.clone(),
            pushed: head,
            dropped,
            events,
        }
    }
}

/// A consistent copy of one thread's ring at a point in time.
#[derive(Debug, Clone)]
pub struct ThreadSnapshot {
    /// Owner label (thread name) of the ring.
    pub label: String,
    /// Total events pushed to the ring over its lifetime.
    pub pushed: u64,
    /// Events overwritten before this snapshot (lifetime pushes beyond
    /// capacity).
    pub dropped: u64,
    /// The surviving events, oldest first.
    pub events: Vec<Event>,
}

/// The process-wide registry of every thread ring ever created, so
/// exporters can snapshot rings whose owner threads have exited.
fn registry() -> &'static Mutex<Vec<&'static ThreadRing>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static ThreadRing>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

#[cfg(any(feature = "obs", test))]
fn ring_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("MPFA_OBS_RING_CAP")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_RING_CAP)
    })
}

#[cfg(any(feature = "obs", test))]
static THREAD_SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[cfg(any(feature = "obs", test))]
thread_local! {
    static LOCAL_RING: &'static ThreadRing = {
        let n = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
        let label = std::thread::current()
            .name()
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("thread-{n}"));
        let ring: &'static ThreadRing =
            Box::leak(Box::new(ThreadRing::with_capacity(&label, ring_cap())));
        registry().lock().unwrap_or_else(|e| e.into_inner()).push(ring);
        ring
    };
}

#[cfg(any(feature = "obs", test))]
/// Record an event into the current thread's ring, creating and
/// registering the ring on first use.
pub(crate) fn record_local(ev: &Event) {
    LOCAL_RING.with(|r| r.push(ev));
}

/// Snapshot every registered ring (including rings of exited threads).
pub fn snapshot_all() -> Vec<ThreadSnapshot> {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|r| r.snapshot())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: f64, task: u64) -> Event {
        Event {
            t,
            kind: EventKind::TaskStart { stream: 0, task },
        }
    }

    #[test]
    fn push_and_snapshot_in_order() {
        let ring = ThreadRing::with_capacity("t", 8);
        for i in 0..5 {
            ring.push(&ev(i as f64, i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.pushed, 5);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 5);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.t, i as f64);
        }
    }

    #[test]
    fn wraparound_keeps_newest() {
        let ring = ThreadRing::with_capacity("t", 4);
        for i in 0..10 {
            ring.push(&ev(i as f64, i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.pushed, 10);
        assert_eq!(snap.dropped, 6);
        let ts: Vec<f64> = snap.events.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn concurrent_reader_never_sees_torn_events() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(ThreadRing::with_capacity("t", 16));
        let stop = Arc::new(AtomicBool::new(false));
        let w = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Timestamp mirrors the task id so a torn read is
                    // detectable as t != task.
                    ring.push(&ev(i as f64, i));
                    i += 1;
                }
            })
        };
        for _ in 0..200 {
            for e in ring.snapshot().events {
                match e.kind {
                    EventKind::TaskStart { task, .. } => {
                        assert_eq!(e.t, task as f64, "torn event surfaced");
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        w.join().unwrap();
    }

    #[test]
    fn local_ring_registers_once() {
        let before = snapshot_all().len();
        record_local(&ev(0.0, 1));
        record_local(&ev(1.0, 2));
        let snaps = snapshot_all();
        // This thread's ring exists exactly once regardless of call count.
        assert!(!snaps.is_empty());
        assert!(snaps.len() <= before + 1);
        let mine: Vec<_> = snaps.iter().filter(|s| s.pushed >= 2).collect();
        assert!(!mine.is_empty());
    }
}
