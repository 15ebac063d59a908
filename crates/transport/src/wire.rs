//! The socket link behind the TCP and UDS backends.
//!
//! Both kernel-socket backends are the same state machine over a
//! different address family, so the link is generic over a small
//! [`SockFamily`] trait and the backends are one-page instantiations.
//! Framing, delivery, same-rank loopback, peer death and the per-peer
//! TX queue belong to the frame engine (`frame.rs`); this module moves
//! the engine's frames through sockets.
//!
//! ## Byte path
//!
//! Sockets are nonblocking, so both sides tolerate partial reads and
//! writes, and a message costs two syscalls and one user-space copy:
//!
//! * **TX.** `flush` hands as many queued frame heads and tails as fit
//!   one iovec batch to a single `writev`; the queue's offset into its
//!   front frame resumes a write that ended inside a head or a tail.
//! * **RX.** Reads land in one 64 KiB staging buffer per pumping
//!   thread. Frames that are complete in it are copied out (the one
//!   copy), and only the incomplete tail a read ends in — part of a
//!   header or of a small frame — is carried per peer. For an
//!   incomplete *bulk* frame (16 KiB of payload or more) what has
//!   arrived moves into a pooled buffer of the payload's size and the
//!   rest is read straight into that buffer by a `readv` over [frame
//!   remainder, staging], so finishing the frame and fetching what
//!   follows it is one syscall and the bulk is not copied again.
//! * **Short read means drained.** A `read` on a stream socket that
//!   returns fewer bytes than it asked for has emptied the socket
//!   (epoll(7), edge-triggered Q&A 9), so no trailing `EAGAIN` read is
//!   issued; the same holds for a short `writev` and a full socket
//!   buffer. The one thing a short read cannot show is end-of-stream,
//!   so the reactor also publishes hang-ups and a hung-up peer is read
//!   until `Ok(0)`.
//!
//! A frame the engine rejects (bad header or undecodable payload) is a
//! protocol violation: the connection is dropped and the peer takes the
//! ordinary lost-connection path below.
//!
//! ## Connection topology
//!
//! One socket per unordered rank pair. The **higher** rank dials the
//! lower rank's listener and introduces itself with a 4-byte hello
//! (its rank, u32 LE); the lower rank accepts. TCP's per-connection
//! byte-stream ordering plus FIFO TX queues gives the non-overtaking
//! guarantee per directed channel that the MPI layer relies on.
//!
//! ## Failure and reconnect
//!
//! A failed dial or a lost connection schedules a retry with bounded
//! exponential backoff (`retry_base * 2^attempts`, capped at
//! `retry_max`, at most `max_attempts` tries). When the budget runs
//! out the peer is marked **dead**: queued frames for it are dropped,
//! [`crate::Transport::dead_peers`] goes nonzero, and the obs doctor's
//! "transport partition" pathology fires. Frames that were fully
//! written before a connection died may be lost — the link restores
//! framing integrity across a reconnect (partial frames are discarded
//! on both sides) but does not retransmit; see `docs/TRANSPORT.md`.
//!
//! ## Readiness reactor
//!
//! On Linux the link runs event-driven (see [`crate::reactor`]): an
//! epoll thread publishes per-peer readiness bits and a pump pass
//! touches only (a) peers the reactor marked readable, (b) peers with
//! queued TX bytes (`tx_dirty`), and (c) peers needing connection
//! attention — dials, retry timers, acceptor grace deadlines
//! (`conn_dirty`). Everything else is skipped, and each skip is counted
//! in `wire_syscalls_saved`. `external_work` collapses to a few atomic
//! loads, so an idle fully-connected world costs zero socket syscalls
//! per sweep. `MPFA_REACTOR=0` (or a non-Linux host) falls back to the
//! legacy full-scan pump with identical semantics.

use std::cell::RefCell;
use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpfa_core::sync::Mutex;
use mpfa_core::wtime;
use mpfa_fabric::Envelope;

use crate::bytes::{BufPool, MpfaBytes};
use crate::codec::FrameCodec;
use crate::frame::{
    FrameHdr, FrameTransport, Frames, Link, TxQueue, FRAME_HEADER, MAX_FRAME_PAYLOAD, SLICE_ROOM,
};
use crate::reactor::{reactor_enabled, Reactor, ReadySet};
use crate::{Transport, TransportKind};

/// Count socket-touching syscalls into the always-on obs counters.
fn count_syscalls(n: u64) {
    mpfa_obs::global_counters()
        .wire_syscalls
        .fetch_add(n, Ordering::Relaxed);
}

/// Size of the per-thread RX staging buffer: the most one `read` takes.
const STAGING: usize = 64 * 1024;

/// Most slices one `writev` gathers: the heads and tails of 32 frames.
const TX_IOV: usize = 64;

/// An incomplete frame with at least this much payload is received
/// straight into a pooled buffer of its own; a smaller one is carried
/// over to the next read in `rx_tail`.
const BULK_MIN: usize = 16 * 1024;

/// Idle bulk receive buffers the pool retains.
const POOL_IDLE: usize = 32;

thread_local! {
    /// Where socket reads land: one buffer per pumping thread, shared
    /// by every peer and transport that thread pumps, zeroed once.
    static RX_STAGING: RefCell<Vec<u8>> = RefCell::new(vec![0; STAGING]);
}

/// An inbound bulk frame (payload of [`BULK_MIN`] or more) whose
/// header has arrived and whose payload is still coming: the rest is
/// read straight into `buf`.
struct RxFrame {
    hdr: FrameHdr,
    /// Pooled; exactly `hdr.plen` bytes, the first `filled` received.
    buf: Vec<u8>,
    filled: usize,
}

/// Tuning knobs for the wire engine.
#[derive(Debug, Clone, Copy)]
pub struct WireOpts {
    /// Dial timeout for one connection attempt.
    pub connect_timeout: Duration,
    /// First retry delay after a failed dial / lost connection.
    pub retry_base: f64,
    /// Retry delay ceiling (exponential backoff is capped here).
    pub retry_max: f64,
    /// Connection attempts per outage before the peer is declared dead.
    pub max_attempts: u32,
    /// Test hook: artificially fail the first dial to every peer once,
    /// exercising the retry path (`MPFA_INJECT_CONNECT_FAIL=1`).
    pub inject_connect_fail: bool,
}

impl Default for WireOpts {
    fn default() -> Self {
        WireOpts {
            connect_timeout: Duration::from_secs(1),
            retry_base: 0.01,
            retry_max: 0.5,
            max_attempts: 20,
            inject_connect_fail: false,
        }
    }
}

impl WireOpts {
    /// Defaults, with the failure-injection hook read from the
    /// `MPFA_INJECT_CONNECT_FAIL` environment variable.
    pub fn from_env() -> WireOpts {
        WireOpts {
            inject_connect_fail: std::env::var(crate::bootstrap::ENV_INJECT_CONNECT_FAIL)
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false),
            ..WireOpts::default()
        }
    }
}

/// An address family the wire engine can run over.
pub trait SockFamily: Send + Sync + 'static {
    /// The listening socket type.
    type Listener: Send + Sync;
    /// The connected stream type.
    type Stream: Read + Write + Send;
    /// Which [`TransportKind`] this family implements.
    const KIND: TransportKind;

    /// Bind a nonblocking listener at `hint` (e.g. `127.0.0.1:0`) and
    /// return it with the concrete bound address peers should dial.
    fn bind(hint: &str) -> io::Result<(Self::Listener, String)>;
    /// Accept one pending connection, or `Ok(None)` if none is waiting.
    fn accept(listener: &Self::Listener) -> io::Result<Option<Self::Stream>>;
    /// Dial `addr`, blocking at most `timeout`.
    fn connect(addr: &str, timeout: Duration) -> io::Result<Self::Stream>;
    /// Switch a stream between blocking and nonblocking mode.
    fn set_nonblocking(stream: &Self::Stream, on: bool) -> io::Result<()>;
    /// Set the blocking-read timeout (used by the bootstrap handshake,
    /// which runs over blocking sockets).
    fn set_read_timeout(stream: &Self::Stream, timeout: Option<Duration>) -> io::Result<()>;
    /// Remove any filesystem residue of a bound address (UDS socket
    /// files; a no-op for TCP).
    fn cleanup(addr: &str);
    /// Raw OS handle of the listener, for readiness registration.
    /// `None` (the default) keeps the engine on the full-scan pump.
    fn listener_fd(_listener: &Self::Listener) -> Option<i32> {
        None
    }
    /// Raw OS handle of a connected stream, for readiness registration.
    fn stream_fd(_stream: &Self::Stream) -> Option<i32> {
        None
    }
}

/// A listener bound ahead of time, so a rank can learn (and publish)
/// its concrete data address before the transport exists — the
/// bootstrap needs the address to build the peer table that the
/// transport is then constructed from.
pub struct Bound<F: SockFamily> {
    listener: F::Listener,
    /// The concrete address peers should dial.
    pub addr: String,
}

impl<F: SockFamily> Bound<F> {
    /// Bind a listener at `hint`.
    pub fn bind(hint: &str) -> io::Result<Bound<F>> {
        let (listener, addr) = F::bind(hint)?;
        Ok(Bound { listener, addr })
    }
}

enum PeerState<S> {
    /// No connection: a dialer will (re)try, an acceptor waits. Also
    /// the state of a dead peer.
    Idle,
    /// Live socket.
    Connected(S),
}

struct Peer<S> {
    addr: String,
    /// True when we dial this peer (we are the higher rank).
    dialer: bool,
    state: PeerState<S>,
    tx: TxQueue,
    /// The incomplete header or small frame the last read ended in.
    rx_tail: Vec<u8>,
    /// The incomplete bulk frame being received; `rx_tail` is empty
    /// while set.
    rx_frame: Option<RxFrame>,
    /// Dialer: earliest time of the next dial. Acceptor (after a lost
    /// connection): deadline for the peer to come back before being
    /// declared dead.
    next_retry: f64,
    /// Dial attempts in the current outage.
    attempts: u32,
    /// Whether the injected first-dial failure already happened.
    injected: bool,
    /// Whether a connection to this peer ever succeeded.
    ever_connected: bool,
}

impl<S> Peer<S> {
    /// The connection is gone or replaced: partial frames of the old
    /// one are void on both sides. The front TX frame goes out again
    /// from its first byte; a half-received frame is forgotten.
    fn void_partials(&mut self) {
        self.rx_tail.clear();
        self.rx_frame = None;
        self.tx.rewind();
    }
}

/// The socket link: one connection per peer over address family `F`.
pub struct Sockets<F: SockFamily> {
    opts: WireOpts,
    listener: F::Listener,
    addr: String,
    /// Accepted sockets whose 4-byte hello has not fully arrived yet.
    pending: Mutex<Vec<(F::Stream, Vec<u8>)>>,
    peers: Vec<Mutex<Peer<F::Stream>>>,
    /// Peers currently in `Connected` state (the baseline the
    /// `wire_syscalls_saved` accounting subtracts touched peers from).
    connected: AtomicUsize,
    /// Serializes socket pumping; contending pollers skip instead of
    /// queueing up behind the syscalls.
    pump: Mutex<()>,
    /// The epoll readiness reactor; `None` keeps the legacy full-scan
    /// pump (non-Linux, `MPFA_REACTOR=0`, or registration failure).
    reactor: Option<Reactor>,
    /// Peers with queued-but-unsent TX bytes awaiting a flush.
    tx_dirty: ReadySet,
    /// Peers needing connection attention: an initial or retried dial,
    /// or an acceptor-side grace deadline after a lost connection.
    conn_dirty: ReadySet,
    /// Buffers large incomplete frames are received into.
    rx_bufs: Arc<BufPool>,
}

impl<F: SockFamily> Drop for Sockets<F> {
    fn drop(&mut self) {
        F::cleanup(&self.addr);
    }
}

/// The generic socket transport: the frame engine over [`Sockets`].
/// See the module docs for the byte path, topology, and failure
/// semantics.
pub type WireTransport<M, F> = FrameTransport<M, Sockets<F>>;

impl<M: FrameCodec, F: SockFamily> WireTransport<M, F> {
    /// Build a transport for `my_rank` out of a pre-bound listener and
    /// the full peer address table (`peer_addrs[r]` is rank `r`'s data
    /// address; the entry for `my_rank` is ignored). `eps_per_rank` is
    /// the number of wire endpoints each rank owns (the MPI layer's
    /// `max_vcis`).
    pub fn new(
        bound: Bound<F>,
        my_rank: usize,
        peer_addrs: Vec<String>,
        eps_per_rank: usize,
        opts: WireOpts,
    ) -> WireTransport<M, F> {
        let ranks = peer_addrs.len();
        let frames = Frames::new(my_rank, ranks, eps_per_rank);
        let peers = peer_addrs
            .into_iter()
            .enumerate()
            .map(|(r, addr)| {
                Mutex::new(Peer {
                    addr,
                    dialer: r < my_rank,
                    state: PeerState::Idle,
                    tx: TxQueue::default(),
                    rx_tail: Vec::new(),
                    rx_frame: None,
                    next_retry: 0.0,
                    attempts: 0,
                    injected: false,
                    ever_connected: false,
                })
            })
            .collect();
        // Every peer this rank dials needs an initial connection pass;
        // acceptor-side peers get attention only on listener events.
        let conn_dirty = ReadySet::new(ranks);
        for r in 0..my_rank {
            conn_dirty.mark(r);
        }
        let reactor = if reactor_enabled() {
            F::listener_fd(&bound.listener).and_then(|fd| Reactor::new(ranks, fd))
        } else {
            None
        };
        FrameTransport {
            frames,
            link: Sockets {
                opts,
                listener: bound.listener,
                addr: bound.addr,
                pending: Mutex::new(Vec::new()),
                peers,
                connected: AtomicUsize::new(0),
                pump: Mutex::new(()),
                reactor,
                tx_dirty: ReadySet::new(ranks),
                conn_dirty,
                rx_bufs: BufPool::new(POOL_IDLE),
            },
        }
    }

    /// This rank's concrete data address (what peers dial).
    #[cfg(test)]
    pub(crate) fn addr(&self) -> &str {
        &self.link.addr
    }

    /// Total queued-but-unsent TX bytes across all peers (framed bytes,
    /// headers included).
    #[cfg(test)]
    pub(crate) fn queued_tx_bytes(&self) -> usize {
        self.link.peers.iter().map(|p| p.lock().tx.bytes()).sum()
    }

    /// True when every peer connection is live.
    pub(crate) fn mesh_ready(&self) -> bool {
        (0..self.frames.ranks)
            .filter(|&r| r != self.frames.my_rank)
            .all(|r| matches!(self.link.peers[r].lock().state, PeerState::Connected(_)))
    }

    /// Pump until the full mesh is connected, a peer dies, or
    /// `timeout_secs` passes.
    pub fn establish(&self, timeout_secs: f64) -> io::Result<()> {
        let deadline = wtime() + timeout_secs;
        loop {
            self.progress();
            if self.mesh_ready() {
                return Ok(());
            }
            if self.dead_peers() > 0 {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "peer declared dead during mesh establishment",
                ));
            }
            if wtime() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "mesh not established within {timeout_secs}s (rank {})",
                        self.frames.my_rank
                    ),
                ));
            }
            std::thread::yield_now();
        }
    }
}

impl<F: SockFamily> Sockets<F> {
    /// One pump pass. Returns true if anything moved. Contending
    /// pumpers skip (return false).
    fn pump<M: FrameCodec>(&self, fr: &Frames<M>) -> bool {
        let Some(_g) = self.pump.try_lock() else {
            return false;
        };
        match &self.reactor {
            Some(re) => self.pump_reactor(fr, re),
            None => self.pump_scan(fr),
        }
    }

    /// Legacy full scan over listener + every peer: O(peers) socket
    /// syscalls per pass.
    fn pump_scan<M: FrameCodec>(&self, fr: &Frames<M>) -> bool {
        let mut moved = self.accept_new().0;
        moved |= self.drive_pending(fr);
        for r in 0..fr.ranks {
            if r != fr.my_rank {
                moved |= self.drive_peer(fr, r);
            }
        }
        moved
    }

    /// Reactor-driven pass: only peers with published readiness,
    /// queued TX bytes, or connection attention are touched. Every
    /// connected peer *not* touched is a speculative poll saved.
    fn pump_reactor<M: FrameCodec>(&self, fr: &Frames<M>, re: &Reactor) -> bool {
        let counters = mpfa_obs::global_counters();
        let sh = re.shared();
        let mut moved = false;
        let mut touched = 0usize;

        if sh.listener_ready.swap(false, Ordering::AcqRel) {
            let (m, saturated) = self.accept_new();
            moved |= m;
            if saturated {
                // The bounded accept loop stopped early. The ET edge is
                // spent, so re-raise the flag by hand or the remaining
                // backlog is stranded until the *next* dial.
                sh.listener_ready.store(true, Ordering::Release);
            }
        }
        if sh.pending_ready.swap(false, Ordering::AcqRel) {
            moved |= self.drive_pending(fr);
        }

        let mut scratch = Vec::new();
        let taken = sh.ready.take_all(&mut scratch);
        if taken > 0 {
            counters
                .reactor_ready_pending
                .fetch_sub(taken as u64, Ordering::Relaxed);
        }
        for &r in &scratch {
            let mut p = self.peers[r].lock();
            if !matches!(p.state, PeerState::Connected(_)) {
                continue;
            }
            touched += 1;
            moved |= self.flush(fr, r, &mut p);
            let hup = sh.hup.take(r);
            let (m, drained) = self.read_socket(fr, r, &mut p, hup);
            moved |= m;
            if !drained {
                // The bounded read stopped before the socket was
                // drained: the ET edge is consumed, so the readiness
                // bit must come back by hand — clearing it here would
                // lose the wakeup (and with it a pending hang-up).
                if hup {
                    sh.hup.mark(r);
                }
                if sh.ready.mark(r) {
                    counters
                        .reactor_ready_pending
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        scratch.clear();
        self.tx_dirty.take_all(&mut scratch);
        for &r in &scratch {
            let mut p = self.peers[r].lock();
            if matches!(p.state, PeerState::Connected(_)) {
                touched += 1;
                moved |= self.flush(fr, r, &mut p);
            }
            if p.tx.bytes() > 0 && matches!(p.state, PeerState::Connected(_)) {
                // Socket buffer full: stay on the flush list. (A peer
                // that lost its connection gets the bit back when the
                // connection does — dial and promotion re-mark it.)
                self.tx_dirty.mark(r);
            }
        }

        scratch.clear();
        self.conn_dirty.take_all(&mut scratch);
        for &r in &scratch {
            moved |= self.drive_peer(fr, r);
            if matches!(self.peers[r].lock().state, PeerState::Idle) && !fr.is_dead(r) {
                // Still waiting on a retry timer or grace deadline:
                // keep the attention bit so time keeps being checked.
                self.conn_dirty.mark(r);
            }
        }

        let connected = self.connected.load(Ordering::Relaxed);
        let saved = connected.saturating_sub(touched);
        if saved > 0 {
            counters
                .wire_syscalls_saved
                .fetch_add(saved as u64, Ordering::Relaxed);
        }
        moved
    }

    /// Accept waiting connections (bounded per pass). Returns
    /// `(moved, saturated)`: `saturated` means the bound was hit with
    /// the backlog possibly non-empty.
    fn accept_new(&self) -> (bool, bool) {
        let mut moved = false;
        for _ in 0..32 {
            count_syscalls(1);
            match F::accept(&self.listener) {
                Ok(Some(sock)) => {
                    if F::set_nonblocking(&sock, true).is_ok() {
                        if let (Some(re), Some(fd)) = (&self.reactor, F::stream_fd(&sock)) {
                            re.add_pending(fd);
                        }
                        self.pending.lock().push((sock, Vec::new()));
                        moved = true;
                    }
                }
                Ok(None) | Err(_) => return (moved, false),
            }
        }
        (moved, true)
    }

    /// Read hellos off accepted-but-unidentified sockets and promote
    /// them to peer connections.
    fn drive_pending<M: FrameCodec>(&self, fr: &Frames<M>) -> bool {
        let mut moved = false;
        let mut pending = self.pending.lock();
        let mut i = 0;
        while i < pending.len() {
            let (sock, hello) = &mut pending[i];
            let mut buf = [0u8; 4];
            let need = 4 - hello.len();
            count_syscalls(1);
            match sock.read(&mut buf[..need]) {
                Ok(0) => {
                    pending.swap_remove(i);
                    continue;
                }
                Ok(n) => {
                    hello.extend_from_slice(&buf[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    i += 1;
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    pending.swap_remove(i);
                    continue;
                }
            }
            let Some(&word) = hello.first_chunk::<4>() else {
                i += 1;
                continue;
            };
            let rank = u32::from_le_bytes(word) as usize;
            let (sock, _) = pending.swap_remove(i);
            // Only higher ranks dial us; anything else is a stray.
            if rank <= fr.my_rank || rank >= fr.ranks {
                continue;
            }
            let mut p = self.peers[rank].lock();
            if fr.is_dead(rank) {
                continue;
            }
            // A reconnect replaces whatever was there.
            p.void_partials();
            let was_connected = matches!(p.state, PeerState::Connected(_));
            let fd = F::stream_fd(&sock);
            p.state = PeerState::Connected(sock);
            p.attempts = 0;
            p.ever_connected = true;
            if !was_connected {
                self.connected.fetch_add(1, Ordering::Relaxed);
            }
            self.conn_dirty.take(rank);
            if p.tx.bytes() > 0 {
                self.tx_dirty.mark(rank);
            }
            if let (Some(re), Some(fd)) = (&self.reactor, fd) {
                re.promote_pending(fd, rank);
                // Payload bytes may already sit behind the 4-byte hello
                // in the kernel buffer; the MOD above only reports
                // *future* edges, so raise the readiness bit by hand.
                if re.shared().ready.mark(rank) {
                    mpfa_obs::global_counters()
                        .reactor_ready_pending
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        moved
    }

    fn backoff(&self, attempts: u32) -> f64 {
        let exp = attempts.min(16);
        (self.opts.retry_base * f64::from(1u32 << exp)).min(self.opts.retry_max)
    }

    /// Record a failed dial; schedules a retry or declares the peer
    /// dead once the budget is spent.
    fn note_dial_failure<M: FrameCodec>(&self, fr: &Frames<M>, r: usize, p: &mut Peer<F::Stream>) {
        p.attempts += 1;
        mpfa_obs::global_counters()
            .transport_reconnects
            .fetch_add(1, Ordering::Relaxed);
        if p.attempts > self.opts.max_attempts {
            self.mark_dead(fr, r, p);
        } else {
            p.next_retry = wtime() + self.backoff(p.attempts - 1);
        }
    }

    /// [`Link::kill`] with the peer's lock held.
    fn mark_dead<M: FrameCodec>(&self, fr: &Frames<M>, r: usize, p: &mut Peer<F::Stream>) {
        if fr.mark_dead(r) {
            if matches!(p.state, PeerState::Connected(_)) {
                self.connected.fetch_sub(1, Ordering::Relaxed);
            }
            // Dropping the socket closes its fd, which also removes it
            // from the reactor's epoll set.
            p.state = PeerState::Idle;
            p.void_partials();
            p.tx.clear();
            // A dead peer needs no further attention of any kind.
            self.conn_dirty.take(r);
            self.tx_dirty.take(r);
        }
    }

    /// A live connection broke: back to Idle. Dialers retry after
    /// backoff; acceptors give the peer a grace window to come back.
    fn disconnect(&self, r: usize, p: &mut Peer<F::Stream>) {
        if matches!(p.state, PeerState::Connected(_)) {
            self.connected.fetch_sub(1, Ordering::Relaxed);
        }
        p.state = PeerState::Idle;
        p.void_partials();
        p.attempts = 0;
        // Both the dialer's retry timer and the acceptor's grace
        // deadline are checked on the connection-attention path.
        self.conn_dirty.mark(r);
        let now = wtime();
        if p.dialer {
            mpfa_obs::global_counters()
                .transport_reconnects
                .fetch_add(1, Ordering::Relaxed);
            p.next_retry = now + self.opts.retry_base;
        } else {
            // Patience roughly matching the dialer's full retry budget.
            let grace = self.opts.retry_max * f64::from(self.opts.max_attempts);
            p.next_retry = now + grace.max(self.opts.retry_base);
        }
    }

    fn dial<M: FrameCodec>(&self, fr: &Frames<M>, r: usize, p: &mut Peer<F::Stream>) -> bool {
        if self.opts.inject_connect_fail && !p.injected {
            p.injected = true;
            self.note_dial_failure(fr, r, p);
            return true;
        }
        count_syscalls(1);
        match F::connect(&p.addr, self.opts.connect_timeout) {
            Ok(mut sock) => {
                let hello = (fr.my_rank as u32).to_le_bytes();
                count_syscalls(1);
                if sock.write_all(&hello).is_err() {
                    self.note_dial_failure(fr, r, p);
                    return true;
                }
                if F::set_nonblocking(&sock, true).is_err() {
                    self.note_dial_failure(fr, r, p);
                    return true;
                }
                p.void_partials();
                let fd = F::stream_fd(&sock);
                p.state = PeerState::Connected(sock);
                p.attempts = 0;
                p.ever_connected = true;
                self.connected.fetch_add(1, Ordering::Relaxed);
                self.conn_dirty.take(r);
                if p.tx.bytes() > 0 {
                    self.tx_dirty.mark(r);
                }
                if let (Some(re), Some(fd)) = (&self.reactor, fd) {
                    re.add_peer(fd, r);
                    // ET registration reports an initial edge if the fd
                    // is already readable, so no bytes can slip into
                    // the connect-to-register window unnoticed.
                }
                true
            }
            Err(_) => {
                self.note_dial_failure(fr, r, p);
                true
            }
        }
    }

    fn drive_peer<M: FrameCodec>(&self, fr: &Frames<M>, r: usize) -> bool {
        let mut p = self.peers[r].lock();
        if fr.is_dead(r) {
            return false;
        }
        match p.state {
            PeerState::Idle => {
                let now = wtime();
                if p.dialer {
                    now >= p.next_retry && self.dial(fr, r, &mut p)
                } else if p.ever_connected && now >= p.next_retry {
                    // Acceptor: the lost peer did not come back within
                    // the grace window.
                    self.mark_dead(fr, r, &mut p);
                    true
                } else {
                    false
                }
            }
            PeerState::Connected(_) => {
                let mut moved = self.flush(fr, r, &mut p);
                moved |= self.read_socket(fr, r, &mut p, false).0;
                moved
            }
        }
    }

    /// Write queued frames until the queue is empty or the socket is
    /// full: each `writev` gathers the unsent part of the front frame
    /// and as many whole frames behind it as fit one batch.
    fn flush<M: FrameCodec>(&self, fr: &Frames<M>, r: usize, p: &mut Peer<F::Stream>) -> bool {
        let mut moved = false;
        while !p.tx.is_empty() {
            let PeerState::Connected(sock) = &mut p.state else {
                break;
            };
            let mut iov = [IoSlice::new(&[]); TX_IOV];
            let (parts, want) = p.tx.gather(&mut iov);
            count_syscalls(1);
            match sock.write_vectored(&iov[..parts]) {
                Ok(0) => {
                    self.disconnect(r, p);
                    break;
                }
                Ok(n) => {
                    moved = true;
                    mpfa_obs::global_counters().record_wire_tx(n as u64);
                    p.tx.advance(n, &fr.heads);
                    if n < want {
                        // Short write: the socket buffer is full.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.disconnect(r, p);
                    break;
                }
            }
        }
        moved
    }

    /// Read until the socket is drained (bounded per pass), delivering
    /// complete frames into the local RX lanes. A short read means
    /// drained, so no trailing `EAGAIN` read follows it — except with
    /// `to_eof`, set for a peer whose socket reported a hang-up, since
    /// end-of-stream only ever shows as `Ok(0)`. Returns `(moved,
    /// drained)`: `drained` is false only when the per-pass bound was
    /// hit with the socket still possibly readable — under
    /// edge-triggered wakeups the caller must re-mark the peer's
    /// readiness bit or the remaining bytes are stranded.
    fn read_socket<M: FrameCodec>(
        &self,
        fr: &Frames<M>,
        src_rank: usize,
        p: &mut Peer<F::Stream>,
        to_eof: bool,
    ) -> (bool, bool) {
        RX_STAGING.with_borrow_mut(|staging| {
            let mut moved = false;
            for _ in 0..64 {
                let Peer {
                    state: PeerState::Connected(sock),
                    rx_tail,
                    rx_frame,
                    ..
                } = p
                else {
                    return (moved, true);
                };
                // What the last read ended in goes in front of this
                // one, so the parser sees one contiguous run.
                let carry = rx_tail.len();
                staging[..carry].copy_from_slice(rx_tail);
                count_syscalls(1);
                let (res, want) = match rx_frame {
                    Some(f) => {
                        let rest = &mut f.buf[f.filled..];
                        let want = rest.len() + STAGING;
                        let mut iov = [IoSliceMut::new(rest), IoSliceMut::new(staging)];
                        (sock.read_vectored(&mut iov), want)
                    }
                    None => (sock.read(&mut staging[carry..]), STAGING - carry),
                };
                let n = match res {
                    Ok(n) if n > 0 => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (moved, true),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // End of stream or a socket error.
                    _ => {
                        self.disconnect(src_rank, p);
                        return (moved, true);
                    }
                };
                moved = true;
                mpfa_obs::global_counters().record_wire_rx(n as u64);
                // `staged`: how much of `staging` now holds unparsed bytes.
                let mut ok = true;
                let staged = match rx_frame.take() {
                    None => {
                        rx_tail.clear();
                        carry + n
                    }
                    Some(mut f) if n < f.buf.len() - f.filled => {
                        f.filled += n;
                        *rx_frame = Some(f);
                        0
                    }
                    Some(f) => {
                        let staged = n - (f.buf.len() - f.filled);
                        ok = fr.deliver_frame(f.hdr, self.rx_bufs.freeze(f.buf));
                        staged
                    }
                };
                if !(ok && self.parse_frames(fr, src_rank, p, &staging[..staged])) {
                    // Protocol violation: drop the connection.
                    self.disconnect(src_rank, p);
                    return (moved, true);
                }
                if n < want && !to_eof {
                    return (moved, true);
                }
            }
            (moved, false)
        })
    }

    /// Deliver every complete frame in `bytes` (what a read left in the
    /// staging buffer, starting at a frame boundary) and keep what is
    /// incomplete: a bulk frame moves into a pooled buffer of its own
    /// that the next reads fill directly, anything smaller is carried
    /// in `rx_tail`. Returns false on a protocol violation.
    fn parse_frames<M: FrameCodec>(
        &self,
        fr: &Frames<M>,
        src_rank: usize,
        p: &mut Peer<F::Stream>,
        mut bytes: &[u8],
    ) -> bool {
        let counters = mpfa_obs::global_counters();
        while let Some(h) = bytes.first_chunk::<FRAME_HEADER>() {
            let Some(hdr) = fr.header(h, src_rank) else {
                return false;
            };
            let body = &bytes[FRAME_HEADER..];
            if body.len() < hdr.plen {
                if hdr.plen < BULK_MIN {
                    break;
                }
                let mut buf = self.rx_bufs.take_sized(hdr.plen);
                buf[..body.len()].copy_from_slice(body);
                counters.record_bytes_copied(body.len() as u64);
                p.rx_frame = Some(RxFrame {
                    hdr,
                    buf,
                    filled: body.len(),
                });
                return true;
            }
            // Complete in staging: the one counted copy of the RX path;
            // `decode_bytes` slices the owned view from here on.
            counters.record_bytes_copied(hdr.plen as u64);
            if !fr.deliver_frame(hdr, MpfaBytes::copy_from(&body[..hdr.plen])) {
                return false;
            }
            bytes = &body[hdr.plen..];
        }
        counters.record_bytes_copied(bytes.len() as u64);
        p.rx_tail.extend_from_slice(bytes);
        true
    }
}

impl<M: FrameCodec, F: SockFamily> Link<M> for Sockets<F> {
    const KIND: TransportKind = F::KIND;

    fn send(&self, fr: &Frames<M>, rank: usize, env: Envelope<M>) -> bool {
        let mut p = self.peers[rank].lock();
        if fr.is_dead(rank) {
            return false;
        }
        p.tx.push(fr.encode(&env));
        // Opportunistic flush: write what the socket takes now.
        self.flush(fr, rank, &mut p);
        if p.tx.bytes() > 0 {
            // Leftover bytes the pump must flush: put the peer on the
            // reactor's TX attention list so a pass without inbound
            // readiness still writes them out.
            self.tx_dirty.mark(rank);
        }
        true
    }

    fn progress(&self, fr: &Frames<M>) -> bool {
        self.pump(fr)
    }

    fn reliable_fifo(&self) -> Option<usize> {
        Some(MAX_FRAME_PAYLOAD - SLICE_ROOM)
    }

    fn external_work(&self, fr: &Frames<M>) -> bool {
        match &self.reactor {
            // Reactor path: work exists only when something actually
            // signalled — a published readiness bit, a listener or
            // hello event, queued TX bytes, or a pending (re)connect.
            // An idle world reports no work instead of "some peer is
            // alive, better keep polling".
            Some(re) => {
                let sh = re.shared();
                sh.ready.any()
                    || sh.listener_ready.load(Ordering::Acquire)
                    || sh.pending_ready.load(Ordering::Acquire)
                    || self.tx_dirty.any()
                    || self.conn_dirty.any()
            }
            // Legacy scan: bytes may be sitting in kernel buffers as
            // long as any peer is (or may come back) alive.
            None => fr.ranks > 1 && fr.dead_peers() + 1 < fr.ranks,
        }
    }

    fn kill(&self, fr: &Frames<M>, rank: usize) {
        let mut p = self.peers[rank].lock();
        self.mark_dead(fr, rank, &mut p);
    }
}

static MESH_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Hint address for rank `r`'s data listener under `kind`.
fn mesh_hint(kind: TransportKind, dir_tag: usize, r: usize) -> String {
    match kind {
        TransportKind::Tcp => "127.0.0.1:0".to_string(),
        TransportKind::Uds => {
            let dir =
                std::env::temp_dir().join(format!("mpfa-mesh-{}-{}", std::process::id(), dir_tag));
            let _ = std::fs::create_dir_all(&dir);
            dir.join(format!("ep{r}.sock"))
                .to_string_lossy()
                .into_owned()
        }
        TransportKind::Sim => unreachable!("sim needs no socket address"),
        TransportKind::Shm => unreachable!("shm builds its own segment paths"),
    }
}

fn mesh_family<M: FrameCodec, F: SockFamily>(
    ranks: usize,
    eps_per_rank: usize,
    opts: WireOpts,
) -> io::Result<Vec<Arc<dyn Transport<M>>>> {
    let dir_tag = MESH_SEQ.fetch_add(1, Ordering::Relaxed);
    let bounds: Vec<Bound<F>> = (0..ranks)
        .map(|r| Bound::bind(&mesh_hint(F::KIND, dir_tag, r)))
        .collect::<io::Result<_>>()?;
    let table: Vec<String> = bounds.iter().map(|b| b.addr.clone()).collect();
    let transports: Vec<WireTransport<M, F>> = bounds
        .into_iter()
        .enumerate()
        .map(|(r, b)| WireTransport::new(b, r, table.clone(), eps_per_rank, opts))
        .collect();
    // Round-robin pumping from one thread until the full mesh is up
    // (every pump is nonblocking, so no deadlock).
    let deadline = wtime() + 30.0;
    loop {
        let mut ready = true;
        for t in &transports {
            t.progress();
            ready &= t.mesh_ready();
        }
        if ready {
            break;
        }
        if transports.iter().any(|t| t.dead_peers() > 0) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "peer declared dead during loopback mesh establishment",
            ));
        }
        if wtime() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "loopback mesh not established within 30s",
            ));
        }
        std::thread::yield_now();
    }
    Ok(transports
        .into_iter()
        .map(|t| Arc::new(t) as Arc<dyn Transport<M>>)
        .collect())
}

/// Build a fully-connected in-process mesh of `ranks` transports of
/// `kind`, one per rank, all inside the current process — the harness
/// for differential tests and benchmarks that want real sockets without
/// spawning OS processes. For [`TransportKind::Sim`] every rank shares
/// one instant fabric (laid out like the MPI world: `eps_per_rank`
/// endpoints per rank, same-rank endpoints on one node).
pub fn loopback_mesh<M: FrameCodec>(
    kind: TransportKind,
    ranks: usize,
    eps_per_rank: usize,
    opts: WireOpts,
) -> io::Result<Vec<Arc<dyn Transport<M>>>> {
    assert!(ranks > 0 && eps_per_rank > 0);
    match kind {
        TransportKind::Sim => {
            let fabric: mpfa_fabric::Fabric<M> = mpfa_fabric::Fabric::new(
                mpfa_fabric::FabricConfig::instant_nodes(ranks * eps_per_rank, eps_per_rank),
            );
            // Per-rank views over the shared fabric, so the chaos kill
            // switch has a rank to attribute deaths to (a bare fabric
            // has no failure notion).
            Ok(crate::sim::sim_rank_views(fabric, ranks, eps_per_rank))
        }
        TransportKind::Tcp => mesh_family::<M, crate::tcp::TcpFamily>(ranks, eps_per_rank, opts),
        #[cfg(unix)]
        TransportKind::Uds => mesh_family::<M, crate::uds::UdsFamily>(ranks, eps_per_rank, opts),
        #[cfg(not(unix))]
        TransportKind::Uds => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix domain sockets are not available on this platform",
        )),
        #[cfg(unix)]
        TransportKind::Shm => Ok(crate::shm::shm_mesh(ranks, eps_per_rank)?
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn Transport<M>>)
            .collect()),
        #[cfg(not(unix))]
        TransportKind::Shm => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "shared-memory segments are not available on this platform",
        )),
    }
}

#[cfg(test)]
#[path = "wire_faults.rs"]
mod faults;

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_fabric::Path;

    type Msg = Vec<u8>;

    pub(super) fn fast_opts() -> WireOpts {
        WireOpts {
            retry_base: 1e-4,
            retry_max: 2e-3,
            max_attempts: 5,
            ..WireOpts::default()
        }
    }

    fn drain(t: &Arc<dyn Transport<Msg>>, ep: usize, want: usize) -> Vec<Envelope<Msg>> {
        let mut out = Vec::new();
        let deadline = wtime() + 10.0;
        while out.len() < want {
            t.progress();
            t.poll(ep, Path::Net, usize::MAX, &mut out);
            assert!(
                wtime() < deadline,
                "timed out: {}/{want} packets",
                out.len()
            );
        }
        out
    }

    #[test]
    fn tcp_pair_roundtrip_fifo() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Tcp, 2, 1, WireOpts::default()).unwrap();
        assert_eq!(mesh[0].kind(), TransportKind::Tcp);
        assert_eq!(mesh[0].endpoints(), 2);
        for i in 0..50u8 {
            mesh[0].send(0, 1, vec![i; (i as usize % 7) + 1], i as usize);
        }
        let got = drain(&mesh[1], 1, 50);
        for (i, env) in got.iter().enumerate() {
            assert_eq!(env.src, 0);
            assert_eq!(env.dst, 1);
            assert_eq!(env.wire_bytes, i);
            assert_eq!(env.msg, vec![i as u8; (i % 7) + 1], "FIFO broken at {i}");
        }
        // Reverse direction too.
        mesh[1].send(1, 0, b"pong".to_vec(), 4);
        let got = drain(&mesh[0], 0, 1);
        assert_eq!(got[0].msg, b"pong".to_vec());
    }

    #[test]
    fn external_work_tracks_wire_activity() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Tcp, 2, 1, WireOpts::default()).unwrap();
        mesh[0].send(0, 1, vec![7u8; 16], 16);
        // The receiver must come to report work without being polled
        // for packets first — that is exactly the signal the progress
        // engine's has_work hook relies on.
        let deadline = wtime() + 10.0;
        while !mesh[1].external_work() {
            mesh[1].progress();
            assert!(wtime() < deadline, "receiver never reported work");
        }
        let got = drain(&mesh[1], 1, 1);
        assert_eq!(got[0].msg, vec![7u8; 16]);
        // Once drained and idle, a reactor-backed transport settles to
        // "no work" instead of demanding speculative polls forever;
        // the legacy scan path keeps reporting work while peers live.
        if reactor_enabled() {
            let deadline = wtime() + 10.0;
            while mesh[1].external_work() {
                mesh[1].progress();
                let mut sink = Vec::new();
                mesh[1].poll(1, Path::Net, usize::MAX, &mut sink);
                assert!(sink.is_empty(), "unexpected extra packet");
                assert!(wtime() < deadline, "idle transport still reports work");
            }
        } else {
            assert!(mesh[1].external_work());
        }
    }

    #[test]
    fn large_frames_cross_partial_reads() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Tcp, 2, 1, WireOpts::default()).unwrap();
        // Several frames far larger than one read() buffer, filled with
        // a position-dependent pattern to catch any reassembly slip.
        for k in 0..4u64 {
            let big: Vec<u8> = (0..300_000u64).map(|i| ((i * 7 + k) % 251) as u8).collect();
            mesh[0].send(0, 1, big, 300_000);
        }
        let got = drain(&mesh[1], 1, 4);
        for (k, env) in got.iter().enumerate() {
            assert_eq!(env.msg.len(), 300_000);
            for (i, &b) in env.msg.iter().enumerate() {
                assert_eq!(
                    b,
                    ((i as u64 * 7 + k as u64) % 251) as u8,
                    "byte {i} of frame {k}"
                );
            }
        }
    }

    #[test]
    fn same_rank_loopback_uses_shmem_path() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Tcp, 2, 2, WireOpts::default()).unwrap();
        // Rank 0 owns endpoints 0 and 1; a send between them stays local.
        mesh[0].send(0, 1, b"local".to_vec(), 5);
        assert_eq!(mesh[0].queued(1, Path::Shmem), 1);
        assert_eq!(mesh[0].queued(1, Path::Net), 0);
        let mut out = Vec::new();
        assert_eq!(mesh[0].poll(1, Path::Shmem, 16, &mut out), 1);
        assert_eq!(out[0].msg, b"local".to_vec());
    }

    #[test]
    fn injected_connect_failure_retries_and_recovers() {
        let before = mpfa_obs::global_counters()
            .transport_reconnects
            .load(Ordering::Relaxed);
        let opts = WireOpts {
            inject_connect_fail: true,
            ..fast_opts()
        };
        let mesh = loopback_mesh::<Msg>(TransportKind::Tcp, 3, 1, opts).unwrap();
        let after = mpfa_obs::global_counters()
            .transport_reconnects
            .load(Ordering::Relaxed);
        // Ranks 1 and 2 dial rank 0, rank 2 dials rank 1: three injected
        // failures, three retries.
        assert!(
            after >= before + 3,
            "expected >=3 reconnects, got {}",
            after - before
        );
        mesh[2].send(2, 0, b"ok".to_vec(), 2);
        let got = drain(&mesh[0], 0, 1);
        assert_eq!(got[0].msg, b"ok".to_vec());
        assert_eq!(mesh[0].dead_peers(), 0);
    }

    #[test]
    fn unreachable_peer_goes_dead_after_budget() {
        // Rank 1 dials rank 0. Kill rank 0 entirely (listener closes),
        // then watch rank 1 burn its reconnect budget.
        let mesh = loopback_mesh::<Msg>(TransportKind::Tcp, 2, 1, fast_opts()).unwrap();
        let t1 = mesh[1].clone();
        drop(mesh); // rank 0's transport (and listener) are gone
        t1.send(1, 0, b"into the void".to_vec(), 13);
        let deadline = wtime() + 10.0;
        while t1.dead_peers() == 0 {
            t1.progress();
            assert!(wtime() < deadline, "peer never declared dead");
            std::thread::yield_now();
        }
        assert!(!t1.peer_alive(0));
        assert!(t1.peer_alive(1));
        // Sends to a dead peer are dropped, not hoarded — and the drop
        // is reported, not silent: a failed handle plus the counter.
        let before = t1.failed_sends();
        let tx = t1.send(1, 0, b"more".to_vec(), 4);
        assert!(tx.is_failed());
        assert!(tx.is_done(), "failed handles must not hang waiters");
        assert_eq!(t1.failed_sends(), before + 1);
        assert_eq!(t1.dead_peers(), 1);
    }

    #[test]
    fn kill_peer_severs_immediately() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Tcp, 3, 1, fast_opts()).unwrap();
        assert!(mesh[0].peer_alive(2));
        // No budget to burn: the kill switch declares rank 2 dead now.
        assert!(mesh[0].kill_peer(2));
        assert!(mesh[1].kill_peer(2));
        assert!(!mesh[0].kill_peer(0), "cannot kill self");
        assert!(!mesh[0].peer_alive(2));
        assert!(!mesh[1].peer_alive(2));
        assert_eq!(mesh[0].dead_peers(), 1);
        // Survivors still talk to each other.
        mesh[0].send(0, 1, b"alive".to_vec(), 5);
        let got = drain(&mesh[1], 1, 1);
        assert_eq!(got[0].msg, b"alive".to_vec());
        // Sends to the victim fail fast.
        assert!(mesh[0].send(0, 2, b"late".to_vec(), 4).is_failed());
    }

    #[test]
    fn sim_mesh_kill_matches_wire_semantics() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Sim, 3, 1, WireOpts::default()).unwrap();
        assert_eq!(mesh[0].kind(), TransportKind::Sim);
        assert!(mesh[0].peer_alive(2));
        assert_eq!(mesh[0].dead_peers(), 0);
        crate::mesh_kill(&mesh, 2);
        assert!(!mesh[0].peer_alive(2));
        assert!(!mesh[1].peer_alive(2));
        assert_eq!(mesh[0].dead_peers(), 1);
        assert_eq!(mesh[1].dead_peers(), 1);
        // The victim's own view does not count itself dead.
        assert_eq!(mesh[2].dead_peers(), 0);
        // Survivor traffic flows; victim traffic is refused both ways.
        mesh[0].send(0, 1, b"ok".to_vec(), 2);
        let mut out = Vec::new();
        assert_eq!(mesh[1].poll(1, Path::Net, 16, &mut out), 1);
        assert!(mesh[0].send(0, 2, b"x".to_vec(), 1).is_failed());
        assert!(mesh[2].send(2, 0, b"y".to_vec(), 1).is_failed());
        assert_eq!(mesh[0].failed_sends(), 1);
    }

    #[test]
    fn queued_bytes_backpressure_accounting_stays_correct() {
        // Phase 1: a dialer whose peer is never reachable and whose
        // transport is never pumped keeps every frame queued, so the
        // accounting must equal the exact framed byte total.
        let bound = Bound::<crate::tcp::TcpFamily>::bind("127.0.0.1:0").unwrap();
        let own = bound.addr.clone();
        let t: WireTransport<Msg, crate::tcp::TcpFamily> = WireTransport::new(
            bound,
            1,
            vec!["127.0.0.1:9".to_string(), own],
            1,
            fast_opts(),
        );
        let mut expect = 0usize;
        for i in 0..10usize {
            t.send(1, 0, vec![0xCD; 100 + i], 100 + i);
            expect += FRAME_HEADER + 100 + i;
        }
        assert_eq!(t.queued_tx_bytes(), expect, "queued accounting drifted");

        // Phase 2: on a live pair the accounting returns to exactly
        // zero once everything drains (recycled buffers, partial
        // writes, and reconnect bookkeeping must not leak bytes).
        let b0 = Bound::<crate::tcp::TcpFamily>::bind("127.0.0.1:0").unwrap();
        let b1 = Bound::<crate::tcp::TcpFamily>::bind("127.0.0.1:0").unwrap();
        let table = vec![b0.addr.clone(), b1.addr.clone()];
        let t0: WireTransport<Msg, crate::tcp::TcpFamily> =
            WireTransport::new(b0, 0, table.clone(), 1, WireOpts::default());
        let t1: WireTransport<Msg, crate::tcp::TcpFamily> =
            WireTransport::new(b1, 1, table, 1, WireOpts::default());
        let deadline = wtime() + 10.0;
        while !(t0.mesh_ready() && t1.mesh_ready()) {
            t0.progress();
            t1.progress();
            assert!(wtime() < deadline, "pair never connected");
        }
        for _ in 0..20 {
            t1.send(1, 0, vec![7u8; 5000], 5000);
        }
        let mut out = Vec::new();
        while out.len() < 20 {
            t0.progress();
            t1.progress();
            t0.poll(0, Path::Net, usize::MAX, &mut out);
            assert!(wtime() < deadline, "frames never arrived");
        }
        while t1.queued_tx_bytes() > 0 {
            t1.progress();
            assert!(wtime() < deadline, "queue never drained to zero");
        }
        assert_eq!(t1.queued_tx_bytes(), 0);
        // Flushed frame heads were recycled, so the next send encodes
        // into a reused buffer instead of allocating.
        assert!(
            t1.frames.heads.idle() > 0,
            "flushed frame heads should return to the pool"
        );
    }

    #[test]
    fn foreign_endpoint_poll_panics() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Tcp, 2, 1, WireOpts::default()).unwrap();
        let t0 = mesh[0].clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Vec::new();
            t0.poll(1, Path::Net, 1, &mut out); // ep 1 belongs to rank 1
        }));
        assert!(err.is_err());
    }
}
