//! The failure detector: an epoch-stamped failure set maintained by an
//! async progress task.
//!
//! One [`FailureDetector`] lives per rank. [`FailureDetector::install`]
//! starts its poll loop on a stream (the paper's `MPIX_Async_start`
//! pattern), where every sweep it merges three evidence sources:
//!
//! 1. the transport's own liveness accounting — a wire backend marks a
//!    peer dead once its reconnect budget is exhausted or a chaos kill
//!    switch severed it ([`Transport::peer_alive`]);
//! 2. per-peer heartbeat quiet periods — armed lazily by
//!    [`FailureDetector::heartbeat`] calls, for substrates where
//!    connections cannot break (the simulated fabric) or where silence
//!    is the only symptom;
//! 3. manual reports ([`FailureDetector::report_failure`]) — failure
//!    injection, or gossip from another rank that already knows.
//!
//! Failures are fail-stop: the set only grows, and each growth bumps
//! the epoch (and the `ranks_failed` / `detector_epochs` counters).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::{wtime, AsyncPoll, Stream};
use mpfa_transport::{SharedTransport, Transport};

/// Tuning knobs for the detector.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Seconds a heartbeat-armed peer may stay silent before being
    /// declared failed. Only peers for which
    /// [`FailureDetector::heartbeat`] was called at least once are
    /// subject to this timeout (a peer that never produced a heartbeat
    /// cannot "go quiet").
    pub quiet_period: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { quiet_period: 0.25 }
    }
}

/// An epoch-stamped snapshot of the failure set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSet {
    /// Epoch at which this snapshot was taken. Bumped once per change
    /// of the set; epoch 0 means "no failure ever detected".
    pub epoch: u64,
    /// World ranks known (by this rank) to have failed, ascending.
    pub failed: BTreeSet<usize>,
}

impl FailureSet {
    /// True when nothing has failed.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }
}

struct DetectorInner {
    my_rank: usize,
    ranks: usize,
    cfg: DetectorConfig,
    /// The published failure set; `epoch` mirrors `set.epoch` so
    /// readers can poll for news without taking the lock.
    set: Mutex<FailureSet>,
    epoch: AtomicU64,
    /// Per-peer last-heartbeat time as `f64::to_bits`; 0 = never armed.
    last_heard: Vec<AtomicU64>,
    /// Manually reported failures, merged on the next poll.
    reported: Mutex<BTreeSet<usize>>,
    stopped: AtomicBool,
}

/// A per-rank failure detector. Cheap to clone (shared state); see the
/// module docs for semantics.
#[derive(Clone)]
pub struct FailureDetector {
    inner: Arc<DetectorInner>,
}

impl FailureDetector {
    /// A detector for `my_rank` in a world of `ranks`.
    pub fn new(my_rank: usize, ranks: usize, cfg: DetectorConfig) -> FailureDetector {
        assert!(my_rank < ranks, "rank {my_rank} out of range ({ranks})");
        FailureDetector {
            inner: Arc::new(DetectorInner {
                my_rank,
                ranks,
                cfg,
                set: Mutex::new(FailureSet {
                    epoch: 0,
                    failed: BTreeSet::new(),
                }),
                epoch: AtomicU64::new(0),
                last_heard: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
                reported: Mutex::new(BTreeSet::new()),
                stopped: AtomicBool::new(false),
            }),
        }
    }

    /// Start the detector's poll loop on `stream`, watching `transport`
    /// — the `MPIX_Async_start` moment. The task runs until
    /// [`FailureDetector::stop`]; stop it before draining the stream.
    pub fn install<M: Send + 'static>(&self, stream: &Stream, transport: SharedTransport<M>) {
        let det = self.clone();
        stream.async_start(move |_t| {
            if det.inner.stopped.load(Ordering::Acquire) {
                return AsyncPoll::Done;
            }
            if det.sweep(Some(transport.as_ref())) {
                AsyncPoll::Progress
            } else {
                AsyncPoll::Pending
            }
        });
    }

    /// One full detection pass against `transport` — exactly what the
    /// installed poll task runs each sweep, exposed so a deterministic
    /// simulation can *inject* detector ticks at schedule-chosen points
    /// instead of waiting for the stream's own poll cadence. Returns
    /// true if the failure set grew.
    pub fn tick<M: Send>(&self, transport: Option<&dyn Transport<M>>) -> bool {
        self.sweep(transport)
    }

    /// Merge all evidence; true if the failure set grew.
    fn sweep<M: Send>(&self, transport: Option<&dyn Transport<M>>) -> bool {
        let inner = &self.inner;
        let now = wtime();
        let mut newly: BTreeSet<usize> = BTreeSet::new();

        if let Some(t) = transport {
            // Cheap short-circuit: scan per-peer liveness only when the
            // transport says anything died at all.
            if t.dead_peers() > 0 {
                for r in (0..inner.ranks).filter(|&r| r != inner.my_rank) {
                    if !t.peer_alive(r) {
                        newly.insert(r);
                    }
                }
            }
        }

        for r in (0..inner.ranks).filter(|&r| r != inner.my_rank) {
            let bits = inner.last_heard[r].load(Ordering::Acquire);
            if bits != 0 && now - f64::from_bits(bits) > inner.cfg.quiet_period {
                newly.insert(r);
            }
        }

        {
            let reported = inner.reported.lock();
            newly.extend(reported.iter().copied());
        }

        let mut set = inner.set.lock();
        let before = set.failed.len();
        set.failed.extend(newly);
        let grew = set.failed.len() - before;
        if grew > 0 {
            set.epoch += 1;
            inner.epoch.store(set.epoch, Ordering::Release);
            let counters = mpfa_obs::global_counters();
            counters
                .ranks_failed
                .fetch_add(grew as u64, Ordering::Relaxed);
            counters.detector_epochs.fetch_add(1, Ordering::Relaxed);
        }
        grew > 0
    }

    /// Record evidence of life from `rank` (any received message or
    /// other activity), arming its quiet-period timeout.
    pub fn heartbeat(&self, rank: usize) {
        if rank < self.inner.ranks {
            self.inner.last_heard[rank].store(wtime().to_bits(), Ordering::Release);
        }
    }

    /// Report `rank` as failed out-of-band (failure injection, or a
    /// notification from a rank that detected it first). Takes effect
    /// on the next poll.
    pub fn report_failure(&self, rank: usize) {
        if rank < self.inner.ranks && rank != self.inner.my_rank {
            self.inner.reported.lock().insert(rank);
        }
    }

    /// The current epoch — one atomic load; 0 until the first failure.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Snapshot the failure set.
    pub fn failure_set(&self) -> FailureSet {
        self.inner.set.lock().clone()
    }

    /// Is `rank` in the failure set?
    pub fn is_failed(&self, rank: usize) -> bool {
        self.inner.set.lock().failed.contains(&rank)
    }

    /// World ranks *not* in the failure set, ascending (includes self).
    pub fn alive_ranks(&self) -> Vec<usize> {
        let set = self.inner.set.lock();
        (0..self.inner.ranks)
            .filter(|r| !set.failed.contains(r))
            .collect()
    }

    /// This detector's own rank.
    pub fn rank(&self) -> usize {
        self.inner.my_rank
    }

    /// World size the detector watches.
    pub fn ranks(&self) -> usize {
        self.inner.ranks
    }

    /// Make the installed poll task finish on its next poll (call
    /// before draining/finalizing the stream, or the drain would wait
    /// on a task that never ends).
    pub fn stop(&self) {
        self.inner.stopped.store(true, Ordering::Release);
    }
}

impl std::fmt::Debug for FailureDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set = self.failure_set();
        f.debug_struct("FailureDetector")
            .field("rank", &self.inner.my_rank)
            .field("ranks", &self.inner.ranks)
            .field("epoch", &set.epoch)
            .field("failed", &set.failed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_transport::{loopback_mesh, mesh_kill, TransportKind, WireOpts};

    #[test]
    fn fresh_detector_sees_no_failures() {
        let d = FailureDetector::new(0, 4, DetectorConfig::default());
        assert_eq!(d.epoch(), 0);
        assert!(d.failure_set().is_empty());
        assert_eq!(d.alive_ranks(), vec![0, 1, 2, 3]);
        assert!(!d.tick::<u8>(None));
    }

    #[test]
    fn transport_kill_is_detected_via_progress() {
        let mesh = loopback_mesh::<Vec<u8>>(TransportKind::Sim, 3, 1, WireOpts::default()).unwrap();
        let stream = Stream::create();
        let d = FailureDetector::new(0, 3, DetectorConfig::default());
        d.install(&stream, mesh[0].clone());
        stream.progress();
        assert_eq!(d.epoch(), 0);

        mesh_kill(&mesh, 2);
        stream.progress();
        let set = d.failure_set();
        assert_eq!(set.epoch, 1);
        assert_eq!(set.failed.into_iter().collect::<Vec<_>>(), vec![2]);
        assert!(d.is_failed(2));
        assert_eq!(d.alive_ranks(), vec![0, 1]);

        // Fail-stop: the set never shrinks, the epoch only moves on news.
        stream.progress();
        assert_eq!(d.epoch(), 1);

        d.stop();
        assert!(stream.drain(1.0), "stopped detector must let drain finish");
    }

    #[test]
    fn quiet_period_fails_armed_peers_only() {
        let d = FailureDetector::new(0, 3, DetectorConfig { quiet_period: 0.0 });
        // Peer 2 never heartbeated: exempt from the quiet-period rule.
        d.heartbeat(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(d.tick::<u8>(None));
        assert!(d.is_failed(1));
        assert!(!d.is_failed(2));
        assert_eq!(d.epoch(), 1);
    }

    #[test]
    fn heartbeats_keep_a_peer_alive() {
        let d = FailureDetector::new(0, 2, DetectorConfig { quiet_period: 60.0 });
        d.heartbeat(1);
        assert!(!d.tick::<u8>(None));
        assert!(!d.is_failed(1));
    }

    #[test]
    fn manual_report_and_epoch_batching() {
        let d = FailureDetector::new(1, 4, DetectorConfig::default());
        d.report_failure(0);
        d.report_failure(3);
        d.report_failure(1); // self-reports are ignored
        assert!(d.tick::<u8>(None));
        let set = d.failure_set();
        // Two failures merged in one sweep: one epoch bump.
        assert_eq!(set.epoch, 1);
        assert_eq!(set.failed.iter().copied().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(d.alive_ranks(), vec![1, 2]);
    }
}
