//! Shared-memory backend: memory-mapped SPSC ring pairs between
//! co-located processes.
//!
//! ## Segment layout
//!
//! Every rank owns one file-backed mmap **segment** holding its
//! *inbound* rings — one lock-free SPSC ring per source rank:
//!
//! ```text
//! [segment header: 4096 B][ring 0][ring 1]...[ring ranks-1]
//! ring i = [ring header: 128 B][data: ring_cap bytes]
//! ```
//!
//! The segment header carries magic/version/geometry. Each ring header
//! holds the consumer's `head` and the
//! producer's `tail` on separate cache lines; both are monotonically
//! increasing byte offsets (indexed modulo `ring_cap`), so `tail - head`
//! is the bytes in flight and no separate "full" flag is needed. Ring
//! `i` of rank `d`'s segment is written only by rank `i` (the single
//! producer) and read only by rank `d` (the single consumer) — crossing
//! process boundaries costs two atomic operations, never a lock, so a
//! SIGKILLed peer can never leave a cross-process lock held.
//!
//! ## Ring frame protocol
//!
//! [`Rings`] is a link under the frame engine (`frame.rs`), which owns
//! the frame header and its check, delivery, same-rank loopback, peer
//! death and the per-peer TX queue; this module moves frames through
//! rings. A frame is the engine's 16-byte header
//! (`[payload_len][src_ep][dst_ep][wire_bytes]`, all u32 LE) followed by
//! the payload, padded to an 8-byte boundary so headers stay aligned.
//! Frames are contiguous: a frame that would straddle the ring edge is
//! preceded by a **wrap marker** (`payload_len == u32::MAX`), telling
//! the consumer to skip to offset 0. With nothing queued for the peer, a
//! message whose codec knows its `encoded_len` is encoded straight into
//! reserved ring space; anything else waits in the engine's TX queue and
//! is copied in, head and tail, when there is room. Payloads at or above
//! [`VIEW_MIN`] bytes are delivered as [`MpfaBytes`] views *into the
//! mapped ring* — no copy; the ring space is released (head advanced)
//! only when the last view clones drop, in frame order.
//!
//! Everything in a ring was written by another process. The consumer
//! bounds the producer's `tail` by the ring capacity, each frame by the
//! ring edge and the `tail`, and each header by the engine's check; the
//! producer bounds the consumer's `head` to `[tail - cap, tail]` and
//! keeps its own `tail`. A peer that breaks any bound is declared dead
//! at once — rings have no reconnect — and nothing it wrote is read
//! outside the mapping or panics the reader.
//!
//! ## Progress and liveness
//!
//! The consumer finds new frames by polling: a producer's only signal
//! is its `tail` store, and [`crate::Transport::external_work`] reports
//! unparsed ring bytes to the progress engine the same way the socket
//! backends report kernel-buffered bytes. Liveness does not rely
//! on heartbeats: every owner holds an exclusive `flock` on its own
//! segment file from creation until death, and peers probe it with a
//! nonblocking lock attempt — the kernel releases the lock the instant
//! the owner dies (SIGKILL included), so a killed peer's ring is
//! detected, not spun on. On clean shutdown the owner unlinks its own
//! segment file; `mpfarun` additionally sweeps the rendezvous directory
//! so a SIGKILLed rank's segment does not outlive the run.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::wtime;
use mpfa_fabric::Envelope;

use crate::bytes::{BufPool, BytesBacking, MpfaBytes};
use crate::codec::FrameCodec;
use crate::frame::{FrameHdr, FrameTransport, Frames, Link, TxQueue, FRAME_HEADER};
use crate::TransportKind;

/// Segment header size (one page).
const SEG_HDR: usize = 4096;
/// Ring header size (head and tail on separate cache lines).
const RING_HDR: usize = 128;
/// Segment magic: written last during initialization, checked on attach.
const SEG_MAGIC: u64 = 0x4D50_4641_5348_4D31; // "MPFASHM1"
/// Layout version.
const SEG_VERSION: u32 = 1;
/// Payloads at or above this many bytes are delivered as zero-copy ring
/// views; smaller ones are copied out immediately (cheaper than the
/// release bookkeeping for tiny control frames).
pub const VIEW_MIN: usize = 4096;
/// Default per-ring capacity; override with `MPFA_SHM_RING_BYTES`
/// (power of two, ≥ 64 KiB). A world of N ranks maps N segments of
/// N rings each, so total segment bytes are N² × ring capacity —
/// file-backed and sparse until touched. Beyond 4 ranks the default
/// shrinks automatically so one segment stays within a 64 MiB budget:
/// on machines where the segment directory is disk-backed rather than
/// tmpfs, oversized segments turn ring traffic into page-cache
/// writeback and dominate many-rank wall clock (a 64-rank allreduce
/// measured 7x slower with 1 GiB segments than with 64 MiB ones).
pub const DEFAULT_RING_CAP: u64 = 16 << 20;
/// Environment variable overriding the per-ring capacity in bytes.
pub const ENV_RING_BYTES: &str = "MPFA_SHM_RING_BYTES";
/// First word of a wrap marker: the next frame starts at ring offset 0.
const WRAP: u32 = u32::MAX;
/// Seconds between liveness probes of each peer's segment lock.
const PROBE_INTERVAL: f64 = 0.05;
/// How long an attach waits for a peer's segment to appear and
/// initialize before giving up.
const ATTACH_DEADLINE: f64 = 30.0;

// --------------------------------------------------------------------
// Raw syscalls: mmap and flock. The workspace builds offline with no
// libc crate; std already links libc, so the handful of symbols the
// backend needs are declared by hand.
// --------------------------------------------------------------------
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const LOCK_EX: c_int = 2;
    pub const LOCK_NB: c_int = 4;
    pub const LOCK_UN: c_int = 8;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub(crate) fn flock(fd: c_int, operation: c_int) -> c_int;
    }
}

/// Round `n` up to the next multiple of 8 (frame alignment).
#[inline]
fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// Per-ring capacity: env override or a rank-count-aware default.
/// Panics on an override that is not a power of two ≥ 64 KiB (a
/// launcher bug, not a user error).
///
/// Without an override, worlds beyond 4 ranks halve the 16 MiB ring
/// until a whole segment (N rings) fits in a 64 MiB budget — a 64-rank
/// world gets 1 MiB rings (64 MiB segments) instead of 1 GiB segments
/// that thrash writeback on disk-backed segment directories, and a
/// 256-rank world gets 256 KiB rings. The 64 KiB floor always wins
/// over the budget.
fn ring_cap_from_env(ranks: usize) -> u64 {
    match std::env::var(ENV_RING_BYTES) {
        Ok(v) => {
            let cap: u64 = v
                .parse()
                .unwrap_or_else(|_| panic!("bad {ENV_RING_BYTES}={v} (want bytes)"));
            assert!(
                cap.is_power_of_two() && cap >= 64 * 1024,
                "bad {ENV_RING_BYTES}={v} (want power of two >= 65536)"
            );
            cap
        }
        Err(_) => default_ring_cap(ranks),
    }
}

/// The no-override default: halve [`DEFAULT_RING_CAP`] until one
/// segment (`ranks` rings) fits in 64 MiB, floored at 64 KiB.
fn default_ring_cap(ranks: usize) -> u64 {
    const SEG_BUDGET: u64 = 64 << 20;
    let mut cap = DEFAULT_RING_CAP;
    while cap > 64 * 1024 && cap.saturating_mul(ranks as u64) > SEG_BUDGET {
        cap /= 2;
    }
    cap
}

// --------------------------------------------------------------------
// Segment mapping
// --------------------------------------------------------------------

/// One mapped segment file. Owners (the rank whose inbound rings live
/// here) hold the exclusive liveness flock and unlink the file on drop;
/// attachers only probe the lock. The mapping outlives the transport as
/// long as any [`MpfaBytes`] ring view holds an `Arc` to it.
struct SegMap {
    ptr: *mut u8,
    len: usize,
    /// Kept open: the fd anchors the mmap name and carries the flock.
    file: File,
    path: String,
    /// Owner side: unlink the file (and try to remove its now-empty
    /// parent directory) on drop.
    owner: bool,
}

// SAFETY: the mapping is shared memory by design; all cross-thread and
// cross-process access goes through atomics plus the SPSC ring
// protocol documented at module level.
unsafe impl Send for SegMap {}
unsafe impl Sync for SegMap {}

impl SegMap {
    fn map(file: File, len: usize, path: &str, owner: bool) -> io::Result<SegMap> {
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::other(format!(
                "mmap of {path} ({len} bytes) failed"
            )));
        }
        Ok(SegMap {
            ptr: ptr.cast(),
            len,
            file,
            path: path.to_string(),
            owner,
        })
    }

    /// Pointer to byte `off` of the mapping, or one past its end (where
    /// an empty payload that ends the last ring starts).
    #[inline]
    fn at(&self, off: usize) -> *mut u8 {
        debug_assert!(off <= self.len);
        unsafe { self.ptr.add(off) }
    }

    #[inline]
    fn u64_at(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off.is_multiple_of(8));
        unsafe { &*self.at(off).cast::<AtomicU64>() }
    }

    #[inline]
    fn u32_at(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off.is_multiple_of(4));
        unsafe { &*self.at(off).cast::<AtomicU32>() }
    }

    /// True when the owner process no longer holds the liveness lock
    /// (it exited or was killed). Only meaningful from an attacher fd.
    fn owner_gone(&self) -> bool {
        let fd = self.file.as_raw_fd();
        if unsafe { sys::flock(fd, sys::LOCK_EX | sys::LOCK_NB) } == 0 {
            unsafe { sys::flock(fd, sys::LOCK_UN) };
            true
        } else {
            false
        }
    }
}

impl Drop for SegMap {
    fn drop(&mut self) {
        unsafe { sys::munmap(self.ptr.cast(), self.len) };
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
            if let Some(dir) = std::path::Path::new(&self.path).parent() {
                // Last one out removes the (then-empty) mesh directory.
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}

/// Segment geometry helpers (offsets into a mapping).
#[derive(Clone, Copy)]
struct Geometry {
    ranks: usize,
    ring_cap: u64,
}

impl Geometry {
    fn seg_len(&self) -> usize {
        SEG_HDR + self.ranks * (RING_HDR + self.ring_cap as usize)
    }
    fn ring_base(&self, i: usize) -> usize {
        SEG_HDR + i * (RING_HDR + self.ring_cap as usize)
    }
    fn head_off(&self, i: usize) -> usize {
        self.ring_base(i)
    }
    fn tail_off(&self, i: usize) -> usize {
        self.ring_base(i) + 64
    }
    fn data_off(&self, i: usize) -> usize {
        self.ring_base(i) + RING_HDR
    }
}

/// A created-but-not-yet-wired own segment: rings zeroed, liveness
/// flock held, magic written. Created before the bootstrap rendezvous
/// so the segment path can be published as this rank's data address.
pub struct ShmSegmentOwner {
    map: Arc<SegMap>,
    geo: Geometry,
    eps_per_rank: usize,
}

impl ShmSegmentOwner {
    /// Create (or replace) the segment file at `path` for a world of
    /// `ranks` ranks with `eps_per_rank` endpoints each. Ring capacity
    /// comes from `MPFA_SHM_RING_BYTES` (default 16 MiB).
    pub fn create(path: &str, ranks: usize, eps_per_rank: usize) -> io::Result<ShmSegmentOwner> {
        assert!(ranks > 0 && eps_per_rank > 0);
        let geo = Geometry {
            ranks,
            ring_cap: ring_cap_from_env(ranks),
        };
        // A stale segment from a dead process would alias the new one.
        let _ = std::fs::remove_file(path);
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.set_len(geo.seg_len() as u64)?;
        if unsafe { sys::flock(file.as_raw_fd(), sys::LOCK_EX | sys::LOCK_NB) } != 0 {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("cannot take liveness lock on fresh segment {path}"),
            ));
        }
        let map = SegMap::map(file, geo.seg_len(), path, true)?;
        // Geometry first, magic last (Release): attachers spin on the
        // magic and must never observe a half-initialized header.
        map.u32_at(8).store(SEG_VERSION, Ordering::Relaxed);
        map.u32_at(12).store(ranks as u32, Ordering::Relaxed);
        map.u32_at(16).store(eps_per_rank as u32, Ordering::Relaxed);
        map.u64_at(24).store(geo.ring_cap, Ordering::Relaxed);
        map.u64_at(0).store(SEG_MAGIC, Ordering::Release);
        Ok(ShmSegmentOwner {
            map: Arc::new(map),
            geo,
            eps_per_rank,
        })
    }

    /// The segment file path (what peers attach — published as this
    /// rank's data address during bootstrap).
    pub fn path(&self) -> &str {
        &self.map.path
    }
}

/// Attach a peer's segment, waiting for it to appear and initialize.
fn attach(path: &str, want: Geometry, want_eps: usize) -> io::Result<Arc<SegMap>> {
    let deadline = wtime() + ATTACH_DEADLINE;
    loop {
        if let Ok(file) = OpenOptions::new().read(true).write(true).open(path) {
            if file.metadata().map(|m| m.len()).unwrap_or(0) >= want.seg_len() as u64 {
                let map = SegMap::map(file, want.seg_len(), path, false)?;
                if map.u64_at(0).load(Ordering::Acquire) == SEG_MAGIC {
                    let (ver, ranks, eps) = (
                        map.u32_at(8).load(Ordering::Relaxed),
                        map.u32_at(12).load(Ordering::Relaxed) as usize,
                        map.u32_at(16).load(Ordering::Relaxed) as usize,
                    );
                    let cap = map.u64_at(24).load(Ordering::Relaxed);
                    if ver != SEG_VERSION
                        || ranks != want.ranks
                        || eps != want_eps
                        || cap != want.ring_cap
                    {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "segment {path} geometry mismatch \
                                 (v{ver}, {ranks} ranks, {eps} eps, ring {cap})"
                            ),
                        ));
                    }
                    return Ok(Arc::new(map));
                }
            }
        }
        if wtime() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("peer segment {path} not initialized within {ATTACH_DEADLINE}s"),
            ));
        }
        // Each retry re-opens and re-maps the file, so spinning here is a
        // syscall storm that starves the very peer we are waiting on when
        // ranks outnumber cores. Sleep instead of yielding.
        std::thread::sleep(std::time::Duration::from_micros(500));
    }
}

// --------------------------------------------------------------------
// Ring space release (consumer side)
// --------------------------------------------------------------------

/// Shared release state of one inbound ring: views drop in any order,
/// but `head` may only advance through *contiguous* released intervals
/// — releasing past a still-referenced earlier frame would let the
/// producer overwrite bytes a view can still read.
struct RingRelease {
    seg: Arc<SegMap>,
    head_off: usize,
    pending: Mutex<Vec<(u64, u64)>>,
}

impl RingRelease {
    fn release(&self, start: u64, end: u64) {
        let head = self.seg.u64_at(self.head_off);
        let mut pending = self.pending.lock();
        pending.push((start, end));
        let mut h = head.load(Ordering::Relaxed);
        while let Some(i) = pending.iter().position(|&(s, _)| s == h) {
            h = pending.swap_remove(i).1;
            head.store(h, Ordering::Release);
        }
    }
}

/// Backing of a zero-copy ring view: keeps the mapping alive and
/// releases the frame's ring interval when the last clone drops.
struct RingViewBacking {
    rel: Arc<RingRelease>,
    start: u64,
    end: u64,
}

impl BytesBacking for RingViewBacking {}

impl Drop for RingViewBacking {
    fn drop(&mut self) {
        self.rel.release(self.start, self.end);
    }
}

// --------------------------------------------------------------------
// The ring link
// --------------------------------------------------------------------

/// Producer state of our ring in one peer's segment.
struct RingTx {
    q: TxQueue,
    /// Where our next frame goes (monotonic, 8-aligned). Kept here,
    /// not re-read from the peer's segment, so a peer that scribbles
    /// over the published tail cannot steer our writes.
    tail: u64,
}

impl RingTx {
    /// The peer is dead: say so, and drop what was queued for it.
    fn bury<M: FrameCodec>(&mut self, fr: &Frames<M>, rank: usize) {
        fr.mark_dead(rank);
        self.q.clear();
    }
}

struct RingPeer {
    /// The peer's mapped segment (`None` for self).
    seg: Option<Arc<SegMap>>,
    tx: Mutex<RingTx>,
}

/// The ring link: one inbound ring per peer in our own segment, and
/// our outbound ring in each peer's segment.
pub struct Rings {
    me: usize,
    geo: Geometry,
    own: Arc<SegMap>,
    peers: Vec<RingPeer>,
    /// Release state of each of our inbound rings, shared with views.
    releases: Vec<Arc<RingRelease>>,
    /// Parse cursor of each inbound ring: bytes consumed, monotonic,
    /// never behind the shared `head` (which trails until views drop).
    next: Vec<Mutex<u64>>,
    pump: Mutex<()>,
    /// Process-clock time of the next liveness probe of every live
    /// peer, as `f64::to_bits`.
    next_probe: AtomicU64,
}

/// The shared-memory transport: the frame engine over [`Rings`]. See
/// the module docs for segment layout, ring protocol, progress, and
/// liveness.
pub type ShmTransport<M> = FrameTransport<M, Rings>;

impl<M: FrameCodec> ShmTransport<M> {
    /// Build the transport for `my_rank` from its own created segment
    /// and the full table of peer segment paths (`peer_paths[r]` is
    /// rank `r`'s segment; the entry for `my_rank` is ignored). Waits
    /// for peers' segments to initialize, so callers need only
    /// guarantee every rank has *created* its segment (the bootstrap
    /// rendezvous does).
    pub fn new(
        own: ShmSegmentOwner,
        my_rank: usize,
        peer_paths: Vec<String>,
    ) -> io::Result<ShmTransport<M>> {
        let ranks = peer_paths.len();
        let frames = Frames::new(my_rank, ranks, own.eps_per_rank);
        assert_eq!(
            own.geo.ranks, ranks,
            "segment created for a different world size"
        );
        let geo = own.geo;
        let peers = peer_paths
            .iter()
            .enumerate()
            .map(|(r, path)| {
                Ok(RingPeer {
                    seg: if r == my_rank {
                        None
                    } else {
                        Some(attach(path, geo, own.eps_per_rank)?)
                    },
                    tx: Mutex::new(RingTx {
                        q: TxQueue::default(),
                        tail: 0,
                    }),
                })
            })
            .collect::<io::Result<_>>()?;
        let releases = (0..ranks)
            .map(|i| {
                Arc::new(RingRelease {
                    seg: own.map.clone(),
                    head_off: geo.head_off(i),
                    pending: Mutex::new(Vec::new()),
                })
            })
            .collect();
        Ok(FrameTransport {
            frames,
            link: Rings {
                me: my_rank,
                geo,
                own: own.map,
                peers,
                releases,
                next: (0..ranks).map(|_| Mutex::new(0)).collect(),
                pump: Mutex::new(()),
                next_probe: AtomicU64::new((wtime() + PROBE_INTERVAL).to_bits()),
            },
        })
    }
}

impl Rings {
    fn seg(&self, rank: usize) -> &SegMap {
        self.peers[rank].seg.as_deref().expect("no ring to self")
    }

    /// Reserve `need` bytes (a multiple of 8) in our ring inside
    /// `rank`'s segment — after a wrap marker when the frame would cross
    /// the ring edge — let `fill` write the frame there, and publish it.
    /// `Some(false)`: not enough room yet. `None`: the head the consumer
    /// published is outside `[tail - cap, tail]`, where no honest
    /// consumer's head can be. Caller holds the peer's TX lock.
    fn put(
        &self,
        rank: usize,
        tail: &mut u64,
        need: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Option<bool> {
        let seg = self.seg(rank);
        let geo = self.geo;
        let cap = geo.ring_cap;
        assert!(
            need as u64 + 8 <= cap,
            "{need}-byte frame exceeds shm ring capacity {cap} \
             (raise {ENV_RING_BYTES} or lower protocol thresholds)"
        );
        let head = seg.u64_at(geo.head_off(self.me)).load(Ordering::Acquire);
        let used = tail.checked_sub(head).filter(|&u| u <= cap)?;
        let idx = (*tail % cap) as usize;
        let contig = cap as usize - idx;
        let (at, adv) = if need <= contig {
            (idx, need)
        } else {
            (0, contig + need)
        };
        if cap - used < adv as u64 {
            return Some(false);
        }
        let data = geo.data_off(self.me);
        // SAFETY: `tail` is ours and 8-aligned, so at least 8 bytes of
        // ring data follow `idx`, and `[at, at + need)` lies inside the
        // ring's data. None of it is published: the consumer reads only
        // below the tail stored below. The TX lock makes us the only
        // writer.
        let slot = unsafe {
            if at != idx {
                std::ptr::copy_nonoverlapping(WRAP.to_le_bytes().as_ptr(), seg.at(data + idx), 4);
            }
            std::slice::from_raw_parts_mut(seg.at(data + at), need)
        };
        fill(slot);
        *tail += adv as u64;
        seg.u64_at(geo.tail_off(self.me))
            .store(*tail, Ordering::Release);
        Some(true)
    }

    /// Copy queued frames into `rank`'s ring until it is full.
    /// `Some(moved)`, or `None` for a bogus consumer head (see
    /// [`Rings::put`]).
    fn flush(&self, heads: &BufPool, rank: usize, tx: &mut RingTx) -> Option<bool> {
        let mut moved = false;
        while let Some(f) = tx.q.front() {
            let len = f.len();
            let placed = self.put(rank, &mut tx.tail, align8(len), |slot| {
                let (head, rest) = slot.split_at_mut(f.head.len());
                head.copy_from_slice(&f.head);
                let tail = f.tail.as_deref().unwrap_or_default();
                rest[..tail.len()].copy_from_slice(tail);
                rest[tail.len()..].fill(0);
            })?;
            if !placed {
                break;
            }
            mpfa_obs::global_counters().record_wire_tx(len as u64);
            tx.q.advance(len, heads);
            moved = true;
        }
        Some(moved)
    }

    /// The send path with `rank`'s TX lock held: queued frames first
    /// (FIFO), then `env` encoded straight into the ring, or queued when
    /// the ring is full. `None` for a bogus consumer head.
    fn offer<M: FrameCodec>(
        &self,
        fr: &Frames<M>,
        rank: usize,
        tx: &mut RingTx,
        env: Envelope<M>,
    ) -> Option<()> {
        self.flush(&fr.heads, rank, tx)?;
        let was_empty = tx.q.is_empty();
        if let Some(plen) = env.msg.encoded_len().filter(|_| was_empty) {
            // Fast path: encode straight into the ring — the payload is
            // memcpy'd exactly once, by the injection itself (not
            // counted as a datapath copy, exactly like a socket write).
            let hdr = FrameHdr {
                plen,
                src: env.src,
                dst: env.dst,
                wire_bytes: env.wire_bytes,
            };
            let placed = self.put(rank, &mut tx.tail, align8(FRAME_HEADER + plen), |slot| {
                hdr.put(slot);
                env.msg
                    .encode_into(&mut slot[FRAME_HEADER..FRAME_HEADER + plen]);
                slot[FRAME_HEADER + plen..].fill(0);
            })?;
            if placed {
                mpfa_obs::global_counters().record_wire_tx((FRAME_HEADER + plen) as u64);
                return Some(());
            }
        }
        tx.q.push(fr.encode(&env));
        self.flush(&fr.heads, rank, tx)?;
        if was_empty && !tx.q.is_empty() {
            // The ring was full: the pump writes the frame once the
            // consumer frees space.
            mpfa_obs::global_counters()
                .shm_ring_full
                .fetch_add(1, Ordering::Relaxed);
        }
        Some(())
    }

    /// Deliver the frames `src` has published in its ring in our
    /// segment. Everything in the ring was written by a peer, so each
    /// bound is checked before it is relied on: the tail at most
    /// `ring_cap` ahead of the head, a frame's first word either a wrap
    /// marker or at least a header's length before the edge, the header
    /// as the frame engine checks it, and the padded frame ending at or
    /// before both the edge and the tail. A ring that breaks one kills
    /// `src`, and nothing past the break is read. Returns true if
    /// anything moved.
    fn drain<M: FrameCodec>(&self, fr: &Frames<M>, src: usize) -> bool {
        let geo = self.geo;
        let cap = geo.ring_cap as usize;
        let data = geo.data_off(src);
        let rel = &self.releases[src];
        let counters = mpfa_obs::global_counters();
        let mut next = self.next[src].lock();
        if fr.is_dead(src) {
            return false;
        }
        let head = self.own.u64_at(geo.head_off(src)).load(Ordering::Acquire);
        let tail = self.own.u64_at(geo.tail_off(src)).load(Ordering::Acquire);
        if tail.wrapping_sub(head) > geo.ring_cap {
            return self.hostile(fr, src);
        }
        let mut moved = false;
        while *next < tail {
            let mut start = *next;
            let mut idx = (start % geo.ring_cap) as usize;
            let mut h = [0u8; FRAME_HEADER];
            // SAFETY: `next` is ours and 8-aligned, so at least 8 bytes
            // of ring data follow `idx`.
            unsafe { std::ptr::copy_nonoverlapping(self.own.at(data + idx), h.as_mut_ptr(), 4) };
            if h[..4] == WRAP.to_le_bytes() {
                // The frame restarts at offset 0; the skipped edge is
                // released at once.
                let skip_end = start + (cap - idx) as u64;
                rel.release(start, skip_end);
                *next = skip_end;
                (start, idx) = (skip_end, 0);
            } else if cap - idx < FRAME_HEADER {
                return self.hostile(fr, src);
            }
            // SAFETY: at least FRAME_HEADER bytes of ring data follow
            // `idx` (checked above, or `idx` is 0).
            unsafe {
                std::ptr::copy_nonoverlapping(self.own.at(data + idx), h.as_mut_ptr(), FRAME_HEADER)
            };
            let Some(hdr) = fr.header(&h, src) else {
                return self.hostile(fr, src);
            };
            let total = align8(FRAME_HEADER + hdr.plen);
            let end = start + total as u64;
            if total > cap - idx || end > tail {
                return self.hostile(fr, src);
            }
            let ptr = self.own.at(data + idx + FRAME_HEADER);
            let payload = if hdr.plen >= VIEW_MIN {
                // Zero-copy: a view into the mapped ring; space is
                // released when the last clone drops.
                // SAFETY: `[ptr, ptr + plen)` lies inside the ring
                // (checked above) and the mapping lives as long as the
                // backing's `Arc`. An honest producer does not write
                // the span again until the view's release moves `head`
                // past it; a hostile one can change the bytes a view
                // shows, but not where it points.
                unsafe {
                    MpfaBytes::from_raw(
                        ptr,
                        hdr.plen,
                        Arc::new(RingViewBacking {
                            rel: rel.clone(),
                            start,
                            end,
                        }),
                    )
                }
            } else {
                // Small frame: copying beats release bookkeeping.
                counters.record_bytes_copied(hdr.plen as u64);
                // SAFETY: `[ptr, ptr + plen)` lies inside the ring
                // (checked above).
                let owned = unsafe { std::slice::from_raw_parts(ptr, hdr.plen) }.to_vec();
                rel.release(start, end);
                MpfaBytes::from(owned)
            };
            *next = end;
            counters.record_wire_rx((FRAME_HEADER + hdr.plen) as u64);
            if !fr.deliver_frame(hdr, payload) {
                return self.hostile(fr, src);
            }
            moved = true;
        }
        moved
    }

    /// `rank` broke the ring protocol. Rings have no reconnect, so it
    /// takes the dead-peer path at once. Returns true (state moved).
    fn hostile<M: FrameCodec>(&self, fr: &Frames<M>, rank: usize) -> bool {
        self.peers[rank].tx.lock().bury(fr, rank);
        true
    }

    /// Probe `r`'s segment lock. An owner found gone may have committed
    /// frames after our last drain, so its ring is drained once more
    /// before it is declared dead. Returns true when it was.
    fn probe<M: FrameCodec>(&self, fr: &Frames<M>, r: usize) -> bool {
        if fr.is_dead(r) || !self.seg(r).owner_gone() {
            return false;
        }
        self.drain(fr, r);
        self.peers[r].tx.lock().bury(fr, r);
        true
    }

    /// True when the liveness probe is due.
    fn probe_due(&self, now: f64) -> bool {
        now >= f64::from_bits(self.next_probe.load(Ordering::Relaxed))
    }
}

impl<M: FrameCodec> Link<M> for Rings {
    const KIND: TransportKind = TransportKind::Shm;

    fn send(&self, fr: &Frames<M>, rank: usize, env: Envelope<M>) -> bool {
        let mut tx = self.peers[rank].tx.lock();
        if fr.is_dead(rank) {
            return false;
        }
        if self.offer(fr, rank, &mut tx, env).is_none() {
            tx.bury(fr, rank);
        }
        true
    }

    /// Drain every live peer's inbound ring, flush queued frames, and
    /// probe liveness every [`PROBE_INTERVAL`]. Contending pumpers skip.
    fn progress(&self, fr: &Frames<M>) -> bool {
        let Some(_g) = self.pump.try_lock() else {
            return false;
        };
        let now = wtime();
        let probe = self.probe_due(now);
        if probe {
            self.next_probe
                .store((now + PROBE_INTERVAL).to_bits(), Ordering::Relaxed);
        }
        let mut moved = false;
        for r in (0..fr.ranks).filter(|&r| r != self.me) {
            moved |= self.drain(fr, r);
            let mut tx = self.peers[r].tx.lock();
            moved |= self.flush(&fr.heads, r, &mut tx).unwrap_or_else(|| {
                tx.bury(fr, r);
                true
            });
            drop(tx);
            moved |= probe && self.probe(fr, r);
        }
        moved
    }

    fn external_work(&self, fr: &Frames<M>) -> bool {
        // Unparsed bytes actually present in a live peer's ring: the
        // producer's tail store makes new traffic visible here at once.
        // Otherwise an idle world reports work only when the liveness
        // probe is due, so a peer that dies while nobody is sending is
        // still noticed by a rank that only waits.
        (0..fr.ranks).any(|r| {
            r != self.me
                && !fr.is_dead(r)
                && self
                    .own
                    .u64_at(self.geo.tail_off(r))
                    .load(Ordering::Acquire)
                    > *self.next[r].lock()
        }) || self.probe_due(wtime())
    }

    fn eager_hint(&self) -> Option<usize> {
        // A quarter ring: large messages travel as one frame delivered
        // as a zero-copy view instead of a copying rendezvous pipeline,
        // while never letting a single frame starve the ring.
        Some((self.geo.ring_cap / 4) as usize)
    }

    fn reliable_fifo(&self) -> Option<usize> {
        // Rendezvous slices get the eager frame's bound.
        Link::<M>::eager_hint(self)
    }

    fn kill(&self, fr: &Frames<M>, rank: usize) {
        self.peers[rank].tx.lock().bury(fr, rank);
    }
}

/// Build an in-process shm world: one segment per rank in a fresh
/// temp directory, everyone attached to everyone. The harness behind
/// `loopback_mesh(TransportKind::Shm, ..)`.
pub(crate) fn shm_mesh<M: FrameCodec>(
    ranks: usize,
    eps_per_rank: usize,
) -> io::Result<Vec<ShmTransport<M>>> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let tag = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mpfa-shm-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let paths: Vec<String> = (0..ranks)
        .map(|r| dir.join(format!("r{r}.seg")).to_string_lossy().into_owned())
        .collect();
    let owners: Vec<ShmSegmentOwner> = paths
        .iter()
        .map(|p| ShmSegmentOwner::create(p, ranks, eps_per_rank))
        .collect::<io::Result<_>>()?;
    let mesh = owners
        .into_iter()
        .enumerate()
        .map(|(r, own)| ShmTransport::new(own, r, paths.clone()))
        .collect::<io::Result<Vec<_>>>()?;
    // Every rank is attached now, and both the mappings and the
    // flock-based liveness probes live on the already-open fds — the
    // paths need not stay visible. Unlinking here (POSIX-style
    // anonymous segments) means a crashed or leaky harness process
    // never strands multi-MiB segment files in the temp directory.
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir(&dir);
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME_PAYLOAD;
    use crate::wire::{loopback_mesh, WireOpts};
    use crate::{Path, Transport};

    type Msg = Vec<u8>;

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
    fn shm_pair_roundtrip_fifo() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Shm, 2, 1, WireOpts::default()).unwrap();
        assert_eq!(mesh[0].kind(), TransportKind::Shm);
        assert_eq!(mesh[0].endpoints(), 2);
        // Idle world: nothing in any ring and, right after a pump, no
        // liveness probe due, so no speculative work.
        mesh[0].progress();
        assert!(!mesh[0].external_work());
        assert!(mesh[0].eager_hint().unwrap() >= 64 * 1024 / 4);
        for i in 0..50u8 {
            mesh[0].send(0, 1, vec![i; (i as usize % 7) + 1], i as usize);
        }
        // Undrained ring bytes are visible work on the receiving side.
        assert!(mesh[1].external_work());
        let got = drain(&mesh[1], 1, 50);
        for (i, env) in got.iter().enumerate() {
            assert_eq!(env.src, 0);
            assert_eq!(env.dst, 1);
            assert_eq!(env.wire_bytes, i);
            assert_eq!(env.msg, vec![i as u8; (i % 7) + 1], "FIFO broken at {i}");
        }
        mesh[1].send(1, 0, b"pong".to_vec(), 4);
        let got = drain(&mesh[0], 0, 1);
        assert_eq!(got[0].msg, b"pong".to_vec());
    }

    #[test]
    fn large_frames_wrap_the_ring() {
        // Frames big enough to wrap a 16 MiB ring several times over,
        // with a position-dependent pattern to catch any slip.
        let mesh = loopback_mesh::<Msg>(TransportKind::Shm, 2, 1, WireOpts::default()).unwrap();
        let reps = 40usize;
        let size = 1 << 20;
        let t0 = mesh[0].clone();
        let t1 = mesh[1].clone();
        let producer = std::thread::spawn(move || {
            for k in 0..reps as u64 {
                let big: Vec<u8> = (0..size as u64)
                    .map(|i| ((i * 7 + k) % 251) as u8)
                    .collect();
                t0.send(0, 1, big, size);
                t0.progress();
            }
        });
        let got = drain(&t1, 1, reps);
        producer.join().unwrap();
        for (k, env) in got.iter().enumerate() {
            assert_eq!(env.msg.len(), size);
            for (i, &b) in env.msg.iter().enumerate() {
                assert_eq!(
                    b,
                    ((i as u64 * 7 + k as u64) % 251) as u8,
                    "byte {i} frame {k}"
                );
            }
        }
    }

    #[test]
    fn default_ring_cap_scales_with_rank_count() {
        // Small worlds keep the full 16 MiB ring; larger worlds halve
        // it so one segment stays inside the 64 MiB budget; the 64 KiB
        // floor wins at absurd rank counts.
        assert_eq!(default_ring_cap(1), 16 << 20);
        assert_eq!(default_ring_cap(4), 16 << 20);
        assert_eq!(default_ring_cap(8), 8 << 20);
        assert_eq!(default_ring_cap(16), 4 << 20);
        assert_eq!(default_ring_cap(64), 1 << 20);
        assert_eq!(default_ring_cap(256), 256 << 10);
        assert_eq!(default_ring_cap(1 << 20), 64 << 10);
    }

    #[test]
    fn ring_full_overflows_and_recovers() {
        // A tiny ring forces overflow without a consumer; draining the
        // consumer later must release it all in order.
        std::env::set_var(ENV_RING_BYTES, "65536");
        let mesh = loopback_mesh::<Msg>(TransportKind::Shm, 2, 1, WireOpts::default());
        std::env::remove_var(ENV_RING_BYTES);
        let mesh = mesh.unwrap();
        let before = mpfa_obs::global_counters()
            .shm_ring_full
            .load(Ordering::Relaxed);
        let n = 40usize;
        for i in 0..n {
            let mut payload = vec![0u8; 8 * 1024];
            payload[0] = i as u8;
            mesh[0].send(0, 1, payload, 8 * 1024);
        }
        assert!(
            mpfa_obs::global_counters()
                .shm_ring_full
                .load(Ordering::Relaxed)
                > before,
            "a 64 KiB ring cannot hold 40x8 KiB without overflow"
        );
        // The producer's pump drains overflow as the consumer frees
        // space.
        let mut out = Vec::new();
        let deadline = wtime() + 10.0;
        while out.len() < n {
            mesh[0].progress();
            mesh[1].progress();
            mesh[1].poll(1, Path::Net, usize::MAX, &mut out);
            assert!(wtime() < deadline, "stuck at {}/{n}", out.len());
        }
        for (i, env) in out.iter().enumerate() {
            assert_eq!(env.msg[0], i as u8, "overflow broke FIFO at {i}");
        }
    }

    #[test]
    fn same_rank_loopback_uses_shmem_path() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Shm, 2, 2, WireOpts::default()).unwrap();
        mesh[0].send(0, 1, b"local".to_vec(), 5);
        assert_eq!(mesh[0].queued(1, Path::Shmem), 1);
        assert_eq!(mesh[0].queued(1, Path::Net), 0);
        let mut out = Vec::new();
        assert_eq!(mesh[0].poll(1, Path::Shmem, 16, &mut out), 1);
        assert_eq!(out[0].msg, b"local".to_vec());
    }

    #[test]
    fn kill_peer_severs_immediately() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Shm, 3, 1, WireOpts::default()).unwrap();
        assert!(mesh[0].peer_alive(2));
        assert!(mesh[0].kill_peer(2));
        assert!(mesh[1].kill_peer(2));
        assert!(!mesh[0].kill_peer(0), "cannot kill self");
        assert!(!mesh[0].peer_alive(2));
        assert_eq!(mesh[0].dead_peers(), 1);
        mesh[0].send(0, 1, b"alive".to_vec(), 5);
        let got = drain(&mesh[1], 1, 1);
        assert_eq!(got[0].msg, b"alive".to_vec());
        let before = mesh[0].failed_sends();
        let tx = mesh[0].send(0, 2, b"late".to_vec(), 4);
        assert!(tx.is_failed());
        assert_eq!(mesh[0].failed_sends(), before + 1);
    }

    #[test]
    fn dropped_owner_is_detected_via_lock_probe() {
        // Dropping rank 0's transport releases its liveness flock; rank
        // 1's probe must notice without any explicit kill.
        let mesh = loopback_mesh::<Msg>(TransportKind::Shm, 2, 1, WireOpts::default()).unwrap();
        let t1 = mesh[1].clone();
        drop(mesh);
        let deadline = wtime() + 10.0;
        while t1.dead_peers() == 0 {
            t1.progress();
            assert!(wtime() < deadline, "peer never declared dead");
            std::thread::yield_now();
        }
        assert!(!t1.peer_alive(0));
        assert!(t1.peer_alive(1));
        let tx = t1.send(1, 0, b"more".to_vec(), 4);
        assert!(tx.is_failed());
        assert!(tx.is_done(), "failed handles must not hang waiters");
    }

    #[test]
    fn segment_files_removed_on_drop() {
        let mesh = loopback_mesh::<Msg>(TransportKind::Shm, 2, 1, WireOpts::default()).unwrap();
        let paths: Vec<String> = mesh.iter().map(|_| String::new()).collect();
        drop(paths);
        drop(mesh);
        // Nothing to assert by path without poking internals; a fresh
        // mesh with the same tag pattern must come up cleanly.
        let again = loopback_mesh::<Msg>(TransportKind::Shm, 2, 1, WireOpts::default()).unwrap();
        assert_eq!(again.len(), 2);
    }

    #[test]
    fn large_payloads_arrive_as_ring_views_without_copies() {
        let mesh =
            loopback_mesh::<MpfaBytes>(TransportKind::Shm, 2, 1, WireOpts::default()).unwrap();
        let counters = mpfa_obs::global_counters();
        let payload: Vec<u8> = (0..1 << 20).map(|i| (i % 256) as u8).collect();
        let expect = payload.clone();
        let before = counters.bytes_copied.load(Ordering::Relaxed);
        mesh[0].send(0, 1, MpfaBytes::from(payload), 1 << 20);
        let mut out = Vec::new();
        let deadline = wtime() + 10.0;
        while out.is_empty() {
            mesh[1].progress();
            mesh[1].poll(1, Path::Net, 16, &mut out);
            assert!(wtime() < deadline);
        }
        let delta = counters.bytes_copied.load(Ordering::Relaxed) - before;
        assert!(
            delta < 64 * 1024,
            "1 MiB shm transfer copied {delta} payload bytes; want ~0"
        );
        assert_eq!(out[0].msg.len(), 1 << 20);
        assert!(out[0].msg == expect, "ring view content mismatch");
        // Dropping the view releases ring space (head catches tail).
        drop(out);
    }

    /// Decodes from exactly eight bytes only, so a payload can fail to
    /// decode.
    #[derive(Debug, PartialEq)]
    struct Word(u64);

    impl FrameCodec for Word {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }

        fn decode(bytes: &[u8]) -> Option<Self> {
            Some(Word(u64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    /// Pump ranks 0 and 1 until `done`.
    fn pump_until(ts: &[ShmTransport<Word>], what: &str, mut done: impl FnMut() -> bool) {
        let deadline = wtime() + 10.0;
        while !done() {
            ts[0].progress();
            ts[1].progress();
            assert!(wtime() < deadline, "{what}");
        }
    }

    /// The one packet that `from` sends `to` (endpoint = rank).
    fn exchange(ts: &[ShmTransport<Word>], from: usize, to: usize, w: u64) {
        assert!(!ts[from].send(from, to, Word(w), 8).is_failed());
        let mut out = Vec::new();
        pump_until(ts, "packet never arrived", || {
            ts[to].poll(to, Path::Net, 16, &mut out);
            !out.is_empty()
        });
        assert_eq!((out.len(), out[0].src, &out[0].msg), (1, from, &Word(w)));
    }

    #[test]
    fn waiting_rank_notices_a_dead_peer() {
        // The progress engine pumps a transport only while it reports
        // work, and a rank that only waits has nothing in its rings:
        // a due liveness probe must count as work.
        let mut ts = shm_mesh::<Word>(2, 1).unwrap();
        drop(ts.remove(0));
        let t1 = &ts[0];
        let deadline = wtime() + 10.0;
        while t1.peer_alive(0) {
            if t1.external_work() {
                t1.progress();
            }
            assert!(wtime() < deadline, "waiting rank never noticed rank 0 die");
        }
    }

    #[test]
    fn frame_committed_before_its_owner_exits_is_still_read() {
        // Rank 0 commits a frame and exits between rank 1's drain and
        // rank 1's liveness probe: the probe finds the owner gone first.
        let mut ts = shm_mesh::<Word>(2, 1).unwrap();
        ts[0].send(0, 1, Word(42), 8);
        drop(ts.remove(0));
        let t1 = &ts[0];
        assert!(t1.link.probe(&t1.frames, 0));
        let mut out = Vec::new();
        assert_eq!(t1.poll(1, Path::Net, 16, &mut out), 1);
        assert_eq!(out[0].msg, Word(42));
        assert!(!t1.peer_alive(0));
    }

    /// A 16-byte frame header as raw words.
    fn raw_header(plen: usize, src: usize, dst: usize) -> Vec<u8> {
        [plen, src, dst, 0]
            .iter()
            .flat_map(|&w| (w as u32).to_le_bytes())
            .collect()
    }

    /// Write `bytes` at position `at` of rank 2's ring in rank 0's
    /// segment, through rank 2's mapping, and publish `tail`: what a
    /// corrupt co-located process can do, bypassing its transport.
    fn scribble(ts: &[ShmTransport<Word>], at: u64, bytes: &[u8], tail: u64) {
        let (seg, geo) = (ts[2].link.seg(0), ts[2].link.geo);
        let idx = (at % geo.ring_cap) as usize;
        assert!(idx + bytes.len() <= geo.ring_cap as usize);
        // SAFETY: the span lies inside ring 2's data area (asserted).
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                seg.at(geo.data_off(2) + idx),
                bytes.len(),
            );
        }
        seg.u64_at(geo.tail_off(2)).store(tail, Ordering::Release);
    }

    /// Where rank 2's next frame to rank 0 goes.
    fn tail_of_2(ts: &[ShmTransport<Word>]) -> u64 {
        let geo = ts[0].link.geo;
        ts[0]
            .link
            .own
            .u64_at(geo.tail_off(2))
            .load(Ordering::Acquire)
    }

    /// Move rank 0's consumer state of ring 2 — parse cursor, head and
    /// tail — to `at`, as if that many bytes had crossed it.
    fn park(ts: &[ShmTransport<Word>], at: u64) {
        let l = &ts[0].link;
        *l.next[2].lock() = at;
        l.own.u64_at(l.geo.head_off(2)).store(at, Ordering::Release);
        l.own.u64_at(l.geo.tail_off(2)).store(at, Ordering::Release);
    }

    /// Ranks 0 and 1 are honest; rank 2 talks normally, then `act`
    /// makes it hostile. Rank 0 must declare rank 2 dead without a
    /// panic, and ranks 0 and 1 must keep talking both ways.
    fn hostile_rank_is_declared_dead(act: impl FnOnce(&[ShmTransport<Word>])) {
        let ts = shm_mesh::<Word>(3, 1).unwrap();
        exchange(&ts, 2, 0, 1);
        act(&ts);
        pump_until(&ts, "hostile rank 2 never declared dead", || {
            !ts[0].peer_alive(2)
        });
        assert_eq!(ts[0].dead_peers(), 1);
        assert!(ts[0].send(0, 2, Word(3), 8).is_failed());
        exchange(&ts, 1, 0, 7);
        exchange(&ts, 0, 1, 8);
        assert_eq!(ts[1].dead_peers(), 0);
    }

    #[test]
    fn shm_oversized_frame_length_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            let t = tail_of_2(ts);
            scribble(ts, t, &raw_header(MAX_FRAME_PAYLOAD + 1, 2, 0), t + 16);
        });
    }

    #[test]
    fn shm_frame_for_a_foreign_endpoint_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            let t = tail_of_2(ts);
            scribble(ts, t, &[raw_header(8, 2, 1), vec![0; 8]].concat(), t + 24);
        });
    }

    #[test]
    fn shm_frame_from_the_wrong_source_rank_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            let t = tail_of_2(ts);
            scribble(ts, t, &[raw_header(8, 1, 0), vec![0; 8]].concat(), t + 24);
        });
    }

    #[test]
    fn shm_undecodable_payload_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            let t = tail_of_2(ts);
            scribble(
                ts,
                t,
                &[raw_header(3, 2, 0), b"???".to_vec()].concat(),
                t + 24,
            );
        });
    }

    #[test]
    fn shm_tail_ending_mid_header_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            let t = tail_of_2(ts);
            scribble(ts, t, &[raw_header(8, 2, 0), vec![0; 8]].concat(), t + 8);
        });
    }

    #[test]
    fn shm_tail_more_than_a_ring_ahead_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            let t = tail_of_2(ts);
            let cap = ts[0].link.geo.ring_cap;
            scribble(
                ts,
                t,
                &[raw_header(8, 2, 0), vec![0; 8]].concat(),
                t + cap + 8,
            );
        });
    }

    #[test]
    fn shm_frame_running_past_the_ring_edge_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            // A 24-byte frame in the last 16 bytes of the ring.
            let at = ts[0].link.geo.ring_cap - 16;
            park(ts, at);
            scribble(ts, at, &raw_header(8, 2, 0), at + 24);
        });
    }

    #[test]
    fn shm_empty_payload_ending_the_last_ring_is_read_without_a_panic() {
        hostile_rank_is_declared_dead(|ts| {
            // Ring 2 is the last in rank 0's segment, so this payload
            // starts one past the end of the mapping. `Word` cannot
            // decode zero bytes.
            let at = ts[0].link.geo.ring_cap - 16;
            park(ts, at);
            scribble(ts, at, &raw_header(0, 2, 0), at + 16);
        });
    }

    #[test]
    fn shm_word_too_close_to_the_edge_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            // Eight bytes before the edge: room for a wrap marker, not
            // for a header.
            let at = ts[0].link.geo.ring_cap - 8;
            park(ts, at);
            scribble(ts, at, &8u32.to_le_bytes(), at + 32);
        });
    }

    #[test]
    fn shm_bogus_consumer_head_kills_the_peer() {
        hostile_rank_is_declared_dead(|ts| {
            // Rank 2 claims to have consumed bytes rank 0 never wrote.
            let l = &ts[2].link;
            l.own
                .u64_at(l.geo.head_off(0))
                .store(4096, Ordering::Release);
            ts[0].send(0, 2, Word(5), 8);
        });
    }
}
