//! The simulated backend: `mpfa-fabric` viewed through the
//! [`Transport`] trait.
//!
//! Nothing is added or reinterpreted — endpoints map 1:1 onto fabric
//! ranks, both delivery paths pass through, and the timed-delivery /
//! per-channel-FIFO semantics are exactly the fabric's own. The blanket
//! impl below is the "extract the endpoint interface into a trait" step
//! of the refactor: a bare [`Fabric`] *is* a transport.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::wtime;
use mpfa_fabric::{Envelope, Fabric, Path, TxHandle};

use crate::{Transport, TransportKind};

impl<M: Send + 'static> Transport<M> for Fabric<M> {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn endpoints(&self) -> usize {
        self.config().ranks
    }

    fn send(&self, src_ep: usize, dst_ep: usize, msg: M, wire_bytes: usize) -> TxHandle {
        Fabric::send(self, src_ep, dst_ep, msg, wire_bytes)
    }

    fn poll(&self, ep: usize, path: Path, max: usize, out: &mut Vec<Envelope<M>>) -> usize {
        self.poll_batch(ep, path, max, out)
    }

    fn queued(&self, ep: usize, path: Path) -> usize {
        Fabric::queued(self, ep, path)
    }
}

/// Mesh-wide failure state shared by every rank's [`SimRankTransport`]
/// view of one fabric: which ranks have been "killed" by the chaos
/// harness. A process death is a global fact, so one board serves the
/// whole mesh — each rank's view just excludes itself when counting.
struct KillBoard {
    dead: Mutex<HashSet<usize>>,
    /// Kills scheduled for a future process-clock instant, as
    /// `(f64::to_bits(due), victim)`. Reaped lazily on every liveness
    /// observation; under virtual time this makes a death land at an
    /// exact simulated instant, replayable from the schedule seed.
    scheduled: Mutex<Vec<(u64, usize)>>,
}

impl KillBoard {
    /// Move every scheduled kill whose due time has passed into the dead
    /// set. Returns how many ranks newly died.
    fn reap(&self, now: f64) -> usize {
        // Fast path: nothing scheduled (the common case outside chaos
        // scenarios pays one uncontended lock, no allocation).
        let due: Vec<usize> = {
            let mut sched = self.scheduled.lock();
            if sched.is_empty() {
                return 0;
            }
            let mut due = Vec::new();
            sched.retain(|&(at_bits, victim)| {
                if f64::from_bits(at_bits) <= now {
                    due.push(victim);
                    false
                } else {
                    true
                }
            });
            due
        };
        let mut newly = 0;
        if !due.is_empty() {
            let mut dead = self.dead.lock();
            for victim in due {
                if dead.insert(victim) {
                    newly += 1;
                    mpfa_obs::global_counters()
                        .transport_dead_peers
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        newly
    }
}

/// One rank's view of a shared simulated fabric, with a kill switch.
///
/// The bare fabric has no notion of failure — its peers are always
/// alive. Chaos tests need the *same* kill schedule to produce the same
/// `peer_alive`/`dead_peers` outcomes over sim as over the wire
/// backends, so the in-process mesh hands each rank this wrapper:
/// sends to (or from) a killed rank are discarded with a failed
/// [`TxHandle`], exactly like a wire send to a dead peer.
pub struct SimRankTransport<M> {
    fabric: Fabric<M>,
    my_rank: usize,
    eps_per_rank: usize,
    board: Arc<KillBoard>,
    tx_failed: AtomicUsize,
}

impl<M: Send + 'static> SimRankTransport<M> {
    fn ranks(&self) -> usize {
        self.fabric.config().ranks / self.eps_per_rank
    }
}

/// Build per-rank killable views of one shared instant fabric — the sim
/// arm of [`crate::loopback_mesh`].
pub fn sim_rank_views<M: Send + 'static>(
    fabric: Fabric<M>,
    ranks: usize,
    eps_per_rank: usize,
) -> Vec<Arc<dyn Transport<M>>> {
    let board = Arc::new(KillBoard {
        dead: Mutex::new(HashSet::new()),
        scheduled: Mutex::new(Vec::new()),
    });
    (0..ranks)
        .map(|r| {
            Arc::new(SimRankTransport {
                fabric: fabric.clone(),
                my_rank: r,
                eps_per_rank,
                board: board.clone(),
                tx_failed: AtomicUsize::new(0),
            }) as Arc<dyn Transport<M>>
        })
        .collect()
}

impl<M: Send + 'static> Transport<M> for SimRankTransport<M> {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn endpoints(&self) -> usize {
        self.fabric.config().ranks
    }

    fn send(&self, src_ep: usize, dst_ep: usize, msg: M, wire_bytes: usize) -> TxHandle {
        self.board.reap(wtime());
        let dst_rank = dst_ep / self.eps_per_rank;
        {
            let dead = self.board.dead.lock();
            if dead.contains(&dst_rank) || dead.contains(&self.my_rank) {
                self.tx_failed.fetch_add(1, Ordering::Relaxed);
                return TxHandle::failed();
            }
        }
        Fabric::send(&self.fabric, src_ep, dst_ep, msg, wire_bytes)
    }

    fn poll(&self, ep: usize, path: Path, max: usize, out: &mut Vec<Envelope<M>>) -> usize {
        self.fabric.poll_batch(ep, path, max, out)
    }

    fn queued(&self, ep: usize, path: Path) -> usize {
        Fabric::queued(&self.fabric, ep, path)
    }

    fn peer_alive(&self, rank: usize) -> bool {
        self.board.reap(wtime());
        rank == self.my_rank || !self.board.dead.lock().contains(&rank)
    }

    fn dead_peers(&self) -> usize {
        self.board.reap(wtime());
        self.board
            .dead
            .lock()
            .iter()
            .filter(|&&r| r != self.my_rank)
            .count()
    }

    fn failed_sends(&self) -> usize {
        self.tx_failed.load(Ordering::Relaxed)
    }

    fn kill_peer(&self, rank: usize) -> bool {
        if rank == self.my_rank || rank >= self.ranks() {
            return false;
        }
        if self.board.dead.lock().insert(rank) {
            mpfa_obs::global_counters()
                .transport_dead_peers
                .fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    fn schedule_kill(&self, rank: usize, at: f64) -> bool {
        if rank == self.my_rank || rank >= self.ranks() {
            return false;
        }
        // The board is mesh-wide, so one schedule entry serves every
        // rank's view; don't double-book the same (time, victim).
        let mut sched = self.board.scheduled.lock();
        let key = (at.to_bits(), rank);
        if !sched.contains(&key) {
            sched.push(key);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_fabric::FabricConfig;
    use std::sync::Arc;

    #[test]
    fn fabric_is_a_transport() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant(2));
        let t: Arc<dyn Transport<u32>> = Arc::new(f.clone());
        assert_eq!(t.kind(), TransportKind::Sim);
        assert_eq!(t.endpoints(), 2);
        assert!(!t.external_work());
        assert!(t.peer_alive(1));
        assert_eq!(t.dead_peers(), 0);

        let tx = t.send(0, 1, 7, 8);
        assert!(tx.is_done());
        let mut out = Vec::new();
        assert_eq!(t.poll(1, Path::Net, 16, &mut out), 1);
        assert_eq!(out[0].msg, 7);
        assert_eq!(out[0].src, 0);
        // Visible through the fabric handle too: same queues.
        assert_eq!(Transport::<u32>::queued(&f, 1, Path::Net), 0);

        // Same node: the fabric's shmem path applies through the trait.
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant_nodes(4, 2));
        let t: Arc<dyn Transport<u32>> = Arc::new(f.clone());
        t.send(0, 1, 9, 0);
        out.clear();
        assert_eq!(t.poll(1, Path::Shmem, 16, &mut out), 1);
        assert_eq!(t.poll(1, Path::Net, 16, &mut out), 0);
        assert_eq!(f.packets_shmem(), 1);
    }

    /// Schedule `victim`'s death at `at` on every other rank's transport.
    fn schedule_kill<M: Send>(mesh: &[Arc<dyn Transport<M>>], victim: usize, at: f64) -> bool {
        let mut all = true;
        for (r, t) in mesh.iter().enumerate() {
            if r != victim {
                all &= t.schedule_kill(victim, at);
            }
        }
        all
    }

    #[test]
    fn scheduled_kill_fires_when_clock_reaches_it() {
        let f: Fabric<u8> = Fabric::new(FabricConfig::instant(3));
        let mesh = sim_rank_views(f, 3, 1);
        let far_future = wtime() + 3600.0;
        assert!(schedule_kill(&mesh, 2, far_future));
        // Not due yet: everyone still alive, sends still succeed.
        assert!(mesh[0].peer_alive(2));
        assert_eq!(mesh[0].dead_peers(), 0);
        assert!(!mesh[0].send(0, 2, 1, 0).is_failed());
        // A schedule already in the past is reaped at the next
        // observation.
        assert!(schedule_kill(&mesh, 1, wtime() - 1.0));
        assert!(!mesh[0].peer_alive(1));
        assert_eq!(mesh[0].dead_peers(), 1);
        assert!(mesh[0].send(0, 1, 1, 0).is_failed());
        // The victim's own view never schedules against itself.
        assert!(mesh[1].peer_alive(1));
    }

    #[test]
    fn schedule_kill_rejects_self_and_out_of_range() {
        let f: Fabric<u8> = Fabric::new(FabricConfig::instant(2));
        let mesh = sim_rank_views(f, 2, 1);
        assert!(!mesh[0].schedule_kill(0, 0.0));
        assert!(!mesh[0].schedule_kill(7, 0.0));
    }
}
