//! The frame engine: everything a byte transport does that is not
//! moving bytes, written once for the socket backends ([`crate::wire`])
//! and the shared-memory rings ([`crate::shm`]).
//!
//! A backend is a [`Link`]: it moves frames between processes and
//! nothing else. [`FrameTransport`] puts a link under the
//! [`Transport`] trait and owns the rest:
//!
//! * **The frame header.** Every frame is a 16-byte header — payload
//!   length, source endpoint, destination endpoint and the wire bytes
//!   the packet is charged for, four little-endian `u32`s — and the
//!   payload the message's [`FrameCodec`] produces. [`Frames::header`]
//!   is the one parser, and it believes a header only when the length
//!   is at most [`MAX_FRAME_PAYLOAD`], the destination is one of this
//!   rank's endpoints and the source is an endpoint of the rank whose
//!   connection or ring the frame came from. [`Frames::deliver_frame`]
//!   decodes the payload. A link treats a `None` or a `false` from these
//!   as a protocol violation and takes the peer down its dead-peer or
//!   reconnect path: bytes a peer wrote never panic the receiver.
//! * **Delivery.** Arrived packets wait in one lane per local endpoint
//!   and path ([`Path::Net`] for frames, [`Path::Shmem`] for same-rank
//!   sends, which never reach the link).
//! * **Peer death.** The dead flags behind `peer_alive`, `dead_peers`
//!   and `kill_peer`, and the count of sends refused because their
//!   destination was dead.
//! * **The TX queue.** A frame that cannot go out at once waits in its
//!   peer's [`TxQueue`] as a [`TxFrame`]: a *head* (the header and the
//!   message's fixed fields, in a recycled buffer) and a *tail* (the
//!   message's payload view, uncopied). Sockets drain the queue with
//!   `writev`, rings by copying head and tail into ring space.
//!
//! [`FrameTransport`] is generic over its link, so every call into the
//! link is static; there is no dynamic dispatch per frame.

use std::collections::VecDeque;
use std::io::IoSlice;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_fabric::{Envelope, Path, TxHandle};

use crate::bytes::{BufPool, MpfaBytes};
use crate::codec::FrameCodec;
use crate::{Transport, TransportKind};

/// Frame header size in bytes.
pub(crate) const FRAME_HEADER: usize = 16;

/// Largest frame payload the engine sends or believes: `send` asserts
/// it, and a received header announcing more is a protocol violation.
/// A receiver sizes a buffer from the header, so the length has to be
/// bounded before it is trusted. A larger rendezvous payload travels as
/// several frames.
pub(crate) const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Frame payload bytes a link keeps for the fixed fields a message puts
/// in front of a payload slice (the MPI layer's `Data` needs 17), so a
/// slice of [`Link::reliable_fifo`] bytes always fits one frame.
pub(crate) const SLICE_ROOM: usize = 64;

/// Idle frame heads the engine keeps for reuse.
const HEADS_IDLE: usize = 32;

/// The four little-endian `u32` words in front of every frame.
#[derive(Clone, Copy)]
pub(crate) struct FrameHdr {
    pub plen: usize,
    pub src: usize,
    pub dst: usize,
    pub wire_bytes: usize,
}

impl FrameHdr {
    /// Write the header into the first [`FRAME_HEADER`] bytes of `out`.
    /// Panics on a payload over [`MAX_FRAME_PAYLOAD`]: every receiver
    /// would reject the frame.
    pub fn put(&self, out: &mut [u8]) {
        assert!(
            self.plen <= MAX_FRAME_PAYLOAD,
            "frame payload of {} bytes exceeds MAX_FRAME_PAYLOAD",
            self.plen
        );
        let words = [self.plen, self.src, self.dst, self.wire_bytes];
        for (w, b) in words.into_iter().zip(out.chunks_exact_mut(4)) {
            b.copy_from_slice(&(w as u32).to_le_bytes());
        }
    }

    fn parse(h: &[u8; FRAME_HEADER]) -> FrameHdr {
        let word =
            |i: usize| u32::from_le_bytes([h[4 * i], h[4 * i + 1], h[4 * i + 2], h[4 * i + 3]]);
        FrameHdr {
            plen: word(0) as usize,
            src: word(1) as usize,
            dst: word(2) as usize,
            wire_bytes: word(3) as usize,
        }
    }
}

/// One queued outbound frame.
pub(crate) struct TxFrame {
    /// Frame header plus the message's fixed fields (recycled buffer).
    pub head: Vec<u8>,
    /// The message's trailing payload view, uncopied.
    pub tail: Option<MpfaBytes>,
}

impl TxFrame {
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.as_ref().map_or(0, |t| t.len())
    }
}

/// One peer's outbound frames, oldest first. Only the front frame can
/// be partly written.
#[derive(Default)]
pub(crate) struct TxQueue {
    frames: VecDeque<TxFrame>,
    /// Bytes of the front frame already written.
    off: usize,
    /// Unsent bytes across the whole queue.
    bytes: usize,
}

impl TxQueue {
    pub fn push(&mut self, f: TxFrame) {
        self.bytes += f.len();
        self.frames.push_back(f);
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unsent bytes, headers included.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    pub fn front(&self) -> Option<&TxFrame> {
        self.frames.front()
    }

    /// Fill `iov` with the unsent part of the front frame and the heads
    /// and tails of as many frames behind it as fit. Returns the slices
    /// used and the bytes they hold.
    pub fn gather<'a>(&'a self, iov: &mut [IoSlice<'a>]) -> (usize, usize) {
        let (mut parts, mut want) = (0, 0);
        let mut skip = self.off;
        for f in self.frames.iter().take(iov.len() / 2) {
            for part in [&f.head[..], f.tail.as_deref().unwrap_or_default()] {
                let sent = skip.min(part.len());
                skip -= sent;
                if sent < part.len() {
                    iov[parts] = IoSlice::new(&part[sent..]);
                    parts += 1;
                    want += part.len() - sent;
                }
            }
        }
        (parts, want)
    }

    /// `n` more bytes went out: finished frames leave the queue and
    /// their heads go back to `heads`.
    pub fn advance(&mut self, n: usize, heads: &BufPool) {
        self.bytes -= n;
        self.off += n;
        while self.frames.front().is_some_and(|f| self.off >= f.len()) {
            if let Some(done) = self.frames.pop_front() {
                self.off -= done.len();
                heads.put(done.head);
            }
        }
    }

    /// The connection was replaced: the front frame goes out again
    /// from its first byte.
    pub(crate) fn rewind(&mut self) {
        self.bytes += self.off;
        self.off = 0;
    }

    /// The peer is dead: nothing queued for it will ever go.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.off = 0;
        self.bytes = 0;
    }
}

struct RxLane<M> {
    q: Mutex<VecDeque<Envelope<M>>>,
    n: AtomicUsize,
}

impl<M> RxLane<M> {
    fn new() -> Self {
        RxLane {
            q: Mutex::new(VecDeque::new()),
            n: AtomicUsize::new(0),
        }
    }
}

/// The link-independent state of one rank's transport: who it is,
/// what has arrived, and which peers are dead.
pub struct Frames<M> {
    pub(crate) my_rank: usize,
    pub(crate) ranks: usize,
    pub(crate) eps_per_rank: usize,
    /// Recycled TX frame heads.
    pub(crate) heads: Arc<BufPool>,
    /// Arrived packets per local endpoint, net and shmem path.
    rx_net: Vec<RxLane<M>>,
    rx_shm: Vec<RxLane<M>>,
    rx_total: AtomicUsize,
    dead: Vec<AtomicBool>,
    dead_count: AtomicUsize,
    /// Sends refused because the destination peer was already dead.
    tx_failed: AtomicUsize,
}

impl<M: FrameCodec> Frames<M> {
    pub(crate) fn new(my_rank: usize, ranks: usize, eps_per_rank: usize) -> Frames<M> {
        assert!(
            my_rank < ranks,
            "rank {my_rank} out of range for {ranks} ranks"
        );
        assert!(eps_per_rank > 0, "need at least one endpoint per rank");
        Frames {
            my_rank,
            ranks,
            eps_per_rank,
            heads: BufPool::new(HEADS_IDLE),
            rx_net: (0..eps_per_rank).map(|_| RxLane::new()).collect(),
            rx_shm: (0..eps_per_rank).map(|_| RxLane::new()).collect(),
            rx_total: AtomicUsize::new(0),
            dead: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            dead_count: AtomicUsize::new(0),
            tx_failed: AtomicUsize::new(0),
        }
    }

    /// Index of `ep` among this rank's endpoints. Panics on an endpoint
    /// of another rank: the caller named it, no peer did.
    fn local_ep(&self, ep: usize) -> usize {
        let base = self.my_rank * self.eps_per_rank;
        assert!(
            ep >= base && ep < base + self.eps_per_rank,
            "endpoint {ep} does not belong to rank {} (eps/rank {})",
            self.my_rank,
            self.eps_per_rank
        );
        ep - base
    }

    fn lane(&self, local: usize, path: Path) -> &RxLane<M> {
        match path {
            Path::Net => &self.rx_net[local],
            Path::Shmem => &self.rx_shm[local],
        }
    }

    fn deliver(&self, env: Envelope<M>, path: Path) {
        let lane = self.lane(env.dst - self.my_rank * self.eps_per_rank, path);
        lane.q.lock().push_back(env);
        lane.n.fetch_add(1, Ordering::Release);
        self.rx_total.fetch_add(1, Ordering::Release);
    }

    /// Parse a frame header that arrived on `src_rank`'s connection or
    /// ring. `None` when it is a protocol violation: a payload longer
    /// than [`MAX_FRAME_PAYLOAD`] (a buffer is about to be sized from
    /// it), a destination that is not this rank's, or a source endpoint
    /// of another rank.
    pub(crate) fn header(&self, h: &[u8; FRAME_HEADER], src_rank: usize) -> Option<FrameHdr> {
        let hdr = FrameHdr::parse(h);
        let eps = self.eps_per_rank;
        (hdr.plen <= MAX_FRAME_PAYLOAD
            && hdr.dst / eps == self.my_rank
            && hdr.src / eps == src_rank)
            .then_some(hdr)
    }

    /// Decode a checked frame's payload onto its endpoint's net lane.
    /// Returns false when the payload does not decode.
    pub(crate) fn deliver_frame(&self, hdr: FrameHdr, payload: MpfaBytes) -> bool {
        let Some(msg) = M::decode_bytes(payload) else {
            return false;
        };
        let env = Envelope {
            src: hdr.src,
            dst: hdr.dst,
            wire_bytes: hdr.wire_bytes,
            msg,
        };
        self.deliver(env, Path::Net);
        true
    }

    /// Encode `env` as a queueable frame: header and fixed fields into
    /// a recycled head (the one counted copy), payload view as the tail.
    pub(crate) fn encode(&self, env: &Envelope<M>) -> TxFrame {
        let mut head = self.heads.take();
        head.resize(FRAME_HEADER, 0);
        let tail = env.msg.encode_split(&mut head);
        let fixed = head.len() - FRAME_HEADER;
        let plen = fixed + tail.as_ref().map_or(0, |t| t.len());
        mpfa_obs::global_counters().record_bytes_copied(fixed as u64);
        FrameHdr {
            plen,
            src: env.src,
            dst: env.dst,
            wire_bytes: env.wire_bytes,
        }
        .put(&mut head);
        TxFrame { head, tail }
    }

    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Acquire)
    }

    /// Declare `rank` dead. Returns true the first time. Links call it
    /// under the lock their send path checks [`Frames::is_dead`] under,
    /// so no frame is queued for a peer after it died.
    pub(crate) fn mark_dead(&self, rank: usize) -> bool {
        let newly = !self.dead[rank].swap(true, Ordering::AcqRel);
        if newly {
            self.dead_count.fetch_add(1, Ordering::Relaxed);
            mpfa_obs::global_counters()
                .transport_dead_peers
                .fetch_add(1, Ordering::Relaxed);
        }
        newly
    }

    pub(crate) fn dead_peers(&self) -> usize {
        self.dead_count.load(Ordering::Relaxed)
    }
}

/// A backend under the frame engine: it moves frames between this rank
/// and its peers, and leaves framing, delivery and peer death to
/// [`Frames`].
pub trait Link<M>: Send + Sync + 'static {
    /// Which backend this is.
    const KIND: TransportKind;

    /// Send `env` to `rank` (another rank): write it now, or queue it
    /// for [`Link::progress`]. Returns false when `rank` is dead, which
    /// the link checks under the same lock it declares deaths under.
    fn send(&self, fr: &Frames<M>, rank: usize, env: Envelope<M>) -> bool;

    /// Move bytes both ways and tend connections or liveness. Returns
    /// true if anything moved.
    fn progress(&self, fr: &Frames<M>) -> bool;

    /// True while progress may exist that no lane shows yet.
    fn external_work(&self, fr: &Frames<M>) -> bool;

    /// See [`Transport::eager_hint`].
    fn eager_hint(&self) -> Option<usize> {
        None
    }

    /// See [`Transport::reliable_fifo`]. Every link is reliable and FIFO
    /// per peer; what differs is the largest slice one frame carries.
    fn reliable_fifo(&self) -> Option<usize>;

    /// Declare `rank` dead: [`Frames::mark_dead`], then drop what is
    /// queued for it and stop reading from it.
    fn kill(&self, fr: &Frames<M>, rank: usize);
}

/// A [`Link`] under the frame engine: the transport type behind
/// [`crate::WireTransport`] and [`crate::ShmTransport`].
pub struct FrameTransport<M, L> {
    pub(crate) frames: Frames<M>,
    pub(crate) link: L,
}

impl<M: FrameCodec, L: Link<M>> Transport<M> for FrameTransport<M, L> {
    fn kind(&self) -> TransportKind {
        L::KIND
    }

    fn endpoints(&self) -> usize {
        self.frames.ranks * self.frames.eps_per_rank
    }

    fn send(&self, src_ep: usize, dst_ep: usize, msg: M, wire_bytes: usize) -> TxHandle {
        let fr = &self.frames;
        assert!(
            dst_ep < self.endpoints(),
            "destination endpoint {dst_ep} out of range"
        );
        fr.local_ep(src_ep); // asserts src ownership
        let env = Envelope {
            src: src_ep,
            dst: dst_ep,
            wire_bytes,
            msg,
        };
        let counters = mpfa_obs::global_counters();
        let rank = dst_ep / fr.eps_per_rank;
        if rank == fr.my_rank {
            // Same-process loopback: the intra-rank "shared memory"
            // path, mirroring the sim fabric's same-node behaviour.
            counters.record_packet(mpfa_obs::PathKind::Shmem, wire_bytes as u64);
            fr.deliver(env, Path::Shmem);
            return TxHandle::immediate();
        }
        counters.record_packet(mpfa_obs::PathKind::Net, wire_bytes as u64);
        if self.link.send(fr, rank, env) {
            TxHandle::immediate()
        } else {
            // Unreachable peer: the frame is discarded *and the failure
            // is reported*, so callers fail the operation at once
            // instead of queueing into a FIFO that will never drain.
            fr.tx_failed.fetch_add(1, Ordering::Relaxed);
            TxHandle::failed()
        }
    }

    fn poll(&self, ep: usize, path: Path, max: usize, out: &mut Vec<Envelope<M>>) -> usize {
        let fr = &self.frames;
        let lane = fr.lane(fr.local_ep(ep), path);
        if lane.n.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut q = lane.q.lock();
        let n = max.min(q.len());
        out.extend(q.drain(..n));
        drop(q);
        if n > 0 {
            lane.n.fetch_sub(n, Ordering::Release);
            fr.rx_total.fetch_sub(n, Ordering::Release);
        }
        n
    }

    fn queued(&self, ep: usize, path: Path) -> usize {
        let fr = &self.frames;
        fr.lane(fr.local_ep(ep), path).n.load(Ordering::Acquire)
    }

    fn progress(&self) -> bool {
        self.link.progress(&self.frames)
    }

    fn external_work(&self) -> bool {
        self.frames.rx_total.load(Ordering::Acquire) > 0 || self.link.external_work(&self.frames)
    }

    fn eager_hint(&self) -> Option<usize> {
        self.link.eager_hint()
    }

    fn reliable_fifo(&self) -> Option<usize> {
        self.link.reliable_fifo()
    }

    fn peer_alive(&self, rank: usize) -> bool {
        rank == self.frames.my_rank || !self.frames.is_dead(rank)
    }

    fn dead_peers(&self) -> usize {
        self.frames.dead_peers()
    }

    fn failed_sends(&self) -> usize {
        self.frames.tx_failed.load(Ordering::Relaxed)
    }

    fn kill_peer(&self, rank: usize) -> bool {
        if rank == self.frames.my_rank || rank >= self.frames.ranks {
            return false;
        }
        self.link.kill(&self.frames, rank);
        true
    }
}
