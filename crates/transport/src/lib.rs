//! # mpfa-transport — the pluggable packet substrate
//!
//! The paper is explicit that its progress design does not care what
//! "the NIC" is — *"here 'NIC' loosely refers to either hardware
//! operations or software emulations"*. Until now the repo had exactly
//! one substrate, the in-process simulated `mpfa-fabric`. This crate
//! turns the substrate into a trait, [`Transport`], and adds real
//! backends next to the simulation:
//!
//! * **Sim** — the blanket `impl Transport for Fabric` makes a bare
//!   [`Fabric`] a transport with zero behaviour change;
//!   [`sim::sim_rank_views`] adds a per-rank kill switch for chaos tests.
//! * **TCP** — [`tcp::TcpTransport`]: localhost/LAN TCP with
//!   nonblocking sockets and connect-timeout plus bounded
//!   exponential-backoff reconnect.
//! * **UDS** — [`uds::UdsTransport`]: the same socket link over Unix
//!   domain sockets, as the intra-node fast path.
//! * **Shm** — [`shm::ShmTransport`]: memory-mapped SPSC rings between
//!   co-located processes, large payloads received as views into the
//!   ring.
//!
//! The three byte transports share one frame engine (`frame.rs`): the
//! frame header and its checks, delivery into per-endpoint lanes,
//! same-rank loopback, dead-peer state and the per-peer TX queue. Each
//! backend is only the link that moves the engine's frames.
//!
//! On top of the backends sit [`bootstrap`] (a PMI-style rendezvous:
//! rank 0 listens, everyone exchanges a peer table, barrier on ready)
//! and the `mpfarun` launcher binary, which spawns N OS processes and
//! wires `MPFA_TRANSPORT` / `MPFA_RANK` / `MPFA_PEERS` into the
//! environment so `mpfa-mpi` world creation, the netmod subsystem hook,
//! and the eager and rendezvous protocols run over a real wire with real
//! syscall latency and partial reads. The one protocol decision a
//! backend informs is [`Transport::reliable_fifo`]: a reliable FIFO
//! link lets a rendezvous skip the per-chunk acknowledgements.
//!
//! The trait deliberately reuses the fabric's vocabulary — endpoints
//! are flat indices (`world_rank * max_vcis + vci`), packets are
//! [`Envelope`]s, delivery paths are [`Path`]s — so the MPI layer's
//! netmod/shmem split keeps working: wire backends deliver everything
//! on [`Path::Net`] and report [`Path::Shmem`] as always empty.

#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

pub use mpfa_fabric::{Envelope, Fabric, Path, TxHandle};

pub mod bootstrap;
pub mod bytes;
pub mod codec;
mod frame;
pub mod reactor;
#[cfg(unix)]
pub mod shm;
pub mod sim;
pub mod tcp;
#[cfg(unix)]
pub mod uds;
pub mod wire;

pub use bytes::{BufPool, BytesBacking, MpfaBytes};
pub use codec::FrameCodec;
pub use reactor::{reactor_enabled, Reactor, ReadySet};
#[cfg(unix)]
pub use shm::ShmTransport;
pub use sim::{sim_rank_views, SimRankTransport};
pub use tcp::TcpTransport;
#[cfg(unix)]
pub use uds::UdsTransport;
pub use wire::{loopback_mesh, Bound, WireOpts, WireTransport};

/// Which packet substrate carries the world's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// The in-process simulated fabric (`mpfa-fabric`).
    #[default]
    Sim,
    /// Kernel TCP sockets (localhost or LAN).
    Tcp,
    /// Unix domain sockets (intra-node).
    Uds,
    /// Memory-mapped shared-memory rings (co-located processes).
    Shm,
}

impl TransportKind {
    /// Parse the `MPFA_TRANSPORT` environment variable, if set.
    ///
    /// Returns `Err` with the offending value when it is set to
    /// something other than `sim`/`tcp`/`uds`/`shm`.
    pub fn from_env() -> Result<Option<TransportKind>, String> {
        match std::env::var(bootstrap::ENV_TRANSPORT) {
            Ok(v) => v.parse().map(Some).map_err(|()| v),
            Err(_) => Ok(None),
        }
    }
}

impl FromStr for TransportKind {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Ok(TransportKind::Sim),
            "tcp" => Ok(TransportKind::Tcp),
            "uds" | "unix" => Ok(TransportKind::Uds),
            "shm" | "shmem" => Ok(TransportKind::Shm),
            _ => Err(()),
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportKind::Sim => write!(f, "sim"),
            TransportKind::Tcp => write!(f, "tcp"),
            TransportKind::Uds => write!(f, "uds"),
            TransportKind::Shm => write!(f, "shm"),
        }
    }
}

/// A packet substrate: something that can carry framed messages between
/// the world's endpoints and hand arrived ones back to a poller.
///
/// The contract mirrors what the MPI layer's netmod/shmem hooks already
/// relied on from the simulated fabric:
///
/// * **Non-overtaking per directed channel** — two packets from the
///   same source endpoint to the same destination endpoint are
///   delivered in send order. No ordering is promised across channels.
/// * **Reliable while connected** — packets are not dropped, duplicated
///   or corrupted on a live connection. (A wire backend that loses a
///   connection mid-stream discards the partial frame and, after a
///   reconnect, resumes from the next complete frame; see
///   `docs/TRANSPORT.md` for the exact semantics.)
/// * **Nonblocking** — every method returns without waiting on a peer.
///   Wire backends move bytes only inside [`Transport::progress`] and
///   opportunistically inside [`Transport::send`].
pub trait Transport<M: Send>: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> TransportKind;

    /// Total number of endpoints across the whole world
    /// (`ranks * endpoints_per_rank`).
    fn endpoints(&self) -> usize;

    /// Inject a packet from `src_ep` to `dst_ep`. `wire_bytes` is the
    /// payload size the wire charges for (control messages pass 0).
    /// Returns a TX completion handle; wire backends complete
    /// immediately once the frame is queued or written.
    fn send(&self, src_ep: usize, dst_ep: usize, msg: M, wire_bytes: usize) -> TxHandle;

    /// Drain up to `max` arrived packets for `ep` on `path` into `out`.
    /// Returns the number appended.
    fn poll(&self, ep: usize, path: Path, max: usize, out: &mut Vec<Envelope<M>>) -> usize;

    /// Packets queued for `ep` on `path` (arrived or still in flight).
    fn queued(&self, ep: usize, path: Path) -> usize;

    /// Pump backend machinery: accept connections, flush TX queues,
    /// read sockets, drive reconnects. Returns true if any bytes moved
    /// or connection state changed. The simulated fabric has no
    /// machinery to pump and returns false.
    fn progress(&self) -> bool {
        false
    }

    /// True when the backend can make progress that is invisible to
    /// [`Transport::queued`] — e.g. bytes sitting in a kernel socket
    /// buffer. Progress hooks must keep polling while this holds, even
    /// if no packet is visibly queued.
    fn external_work(&self) -> bool {
        false
    }

    /// Largest payload this backend moves efficiently as a single eager
    /// frame, or `None` to defer to the protocol layer's configured
    /// thresholds. A shared-memory backend returns a large hint here so
    /// big messages travel as one ring frame delivered as a zero-copy
    /// view, instead of a rendezvous handshake that reassembles chunks
    /// through an extra copy.
    fn eager_hint(&self) -> Option<usize> {
        None
    }

    /// `Some(max)` when the backend is reliable and FIFO per peer and
    /// carries a payload slice of up to `max` bytes in one frame. The
    /// protocol layer then sends a granted rendezvous payload whole, as
    /// unacknowledged slices: the receiver's clear-to-send is the only
    /// flow control the transfer needs. `None` (the default, and the
    /// simulated fabric's answer) keeps the acknowledged pipeline, which
    /// models the paper's Figure 1 wait blocks.
    fn reliable_fifo(&self) -> Option<usize> {
        None
    }

    /// Is `rank`'s connection alive (or not yet needed)? The simulated
    /// fabric's peers are always alive.
    fn peer_alive(&self, _rank: usize) -> bool {
        true
    }

    /// Number of peers whose reconnect budget is exhausted.
    fn dead_peers(&self) -> usize {
        0
    }

    /// Sends discarded because the destination peer was already dead.
    /// Each such send also returns a failed [`TxHandle`] from
    /// [`Transport::send`], so callers can fail the operation
    /// immediately instead of queueing toward a peer that will never
    /// drain it.
    fn failed_sends(&self) -> usize {
        0
    }

    /// Chaos hook: forcibly declare `rank` dead on this transport — the
    /// in-process analogue of `rank`'s OS process being killed. Severs
    /// any live connection, drops frames queued for it, and makes
    /// [`Transport::peer_alive`]/[`Transport::dead_peers`] report the
    /// failure immediately (no reconnect budget to burn). Returns false
    /// when the backend does not support kill injection (the default).
    fn kill_peer(&self, _rank: usize) -> bool {
        false
    }

    /// Chaos hook: schedule `rank` to die when the process clock
    /// ([`mpfa_core::wtime`]) reaches `at` seconds. Under deterministic
    /// simulation the clock is virtual, so the kill lands at exactly the
    /// scheduled instant of the simulated timeline — the same seed
    /// replays the same death. The kill takes effect lazily: the next
    /// liveness observation (send / `peer_alive` / `dead_peers`) at or
    /// after `at` sees the rank dead. Returns false when the backend
    /// does not support scheduled kills (the default).
    fn schedule_kill(&self, _rank: usize, _at: f64) -> bool {
        false
    }
}

/// Chaos helper: declare `victim` dead across a whole in-process mesh,
/// as if its OS process had been killed — every other rank's transport
/// severs its connection to the victim. The victim's own transport is
/// left untouched (a killed process does not observe its own death).
pub fn mesh_kill<M: Send>(mesh: &[Arc<dyn Transport<M>>], victim: usize) {
    for (r, t) in mesh.iter().enumerate() {
        if r != victim {
            t.kill_peer(victim);
        }
    }
}

/// Shared handle to a transport object, as stored by the MPI layer.
pub type SharedTransport<M> = Arc<dyn Transport<M>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!("sim".parse::<TransportKind>(), Ok(TransportKind::Sim));
        assert_eq!("TCP".parse::<TransportKind>(), Ok(TransportKind::Tcp));
        assert_eq!("uds".parse::<TransportKind>(), Ok(TransportKind::Uds));
        assert_eq!("unix".parse::<TransportKind>(), Ok(TransportKind::Uds));
        assert_eq!("shm".parse::<TransportKind>(), Ok(TransportKind::Shm));
        assert_eq!("shmem".parse::<TransportKind>(), Ok(TransportKind::Shm));
        assert!("verbs".parse::<TransportKind>().is_err());
        for k in [
            TransportKind::Sim,
            TransportKind::Tcp,
            TransportKind::Uds,
            TransportKind::Shm,
        ] {
            assert_eq!(k.to_string().parse::<TransportKind>(), Ok(k));
        }
    }

    #[test]
    fn kind_defaults_to_sim() {
        assert_eq!(TransportKind::default(), TransportKind::Sim);
    }
}
