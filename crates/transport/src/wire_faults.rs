//! Fault-path tests of the wire engine: an in-memory socket family
//! whose streams move a few bytes per call and inject `EINTR` and
//! `EAGAIN` mid-frame, and hostile peers speaking raw bytes over real
//! TCP. (A child module of `wire`, so it can look at peer state.)

use super::tests::fast_opts;
use super::*;
use crate::codec::{put_u64, ByteReader};
use crate::frame::MAX_FRAME_PAYLOAD;
use mpfa_fabric::Path;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex as StdMutex;

/// A message with a fixed field and a trailing view, like the MPI
/// layer's byte-carrying packets: the frame head holds more than the
/// 16-byte header, the tail is queued uncopied, and decode can fail.
#[derive(Debug, Clone, PartialEq)]
struct Tagged {
    id: u64,
    body: MpfaBytes,
}

impl Tagged {
    /// `len` position-dependent bytes, different for every `id`.
    fn patterned(id: u64, len: usize) -> Tagged {
        let body: Vec<u8> = (0..len as u64)
            .map(|i| ((i * 7 + id) % 251) as u8)
            .collect();
        Tagged {
            id,
            body: body.into(),
        }
    }
}

impl FrameCodec for Tagged {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.id);
        buf.extend_from_slice(&self.body);
    }

    fn encode_split(&self, head: &mut Vec<u8>) -> Option<MpfaBytes> {
        put_u64(head, self.id);
        Some(self.body.clone())
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        Some(Tagged {
            id: r.u64()?,
            body: MpfaBytes::copy_from(r.rest()),
        })
    }

    fn decode_bytes(bytes: MpfaBytes) -> Option<Self> {
        let id = ByteReader::new(&bytes).u64()?;
        Some(Tagged {
            id,
            body: bytes.slice(8..bytes.len()),
        })
    }
}

// ---------------------------------------------------------------------
// The partial-I/O double
// ---------------------------------------------------------------------

/// One in-memory connection: a byte queue per direction. Dropping
/// either end, or [`MemFamily::sever`], resets it.
struct Conn {
    lanes: [StdMutex<VecDeque<u8>>; 2],
    severed: AtomicBool,
}

/// One end of a [`Conn`]. Every call moves at most `K` bytes in total
/// (across the slices of a vectored call), every 5th call is
/// interrupted and every 7th would block whatever is queued.
struct MemStream<const K: usize> {
    conn: Arc<Conn>,
    /// Writes go to lane `side`, reads come from lane `1 - side`.
    side: usize,
    calls: usize,
}

impl<const K: usize> MemStream<K> {
    fn fault(&mut self) -> io::Result<()> {
        if self.conn.severed.load(Ordering::Acquire) {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        self.calls += 1;
        if self.calls.is_multiple_of(5) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        if self.calls.is_multiple_of(7) {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        Ok(())
    }
}

impl<const K: usize> Drop for MemStream<K> {
    fn drop(&mut self) {
        self.conn.severed.store(true, Ordering::Release);
    }
}

impl<const K: usize> Read for MemStream<K> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_vectored(&mut [IoSliceMut::new(buf)])
    }

    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        self.fault()?;
        let mut lane = self.conn.lanes[1 - self.side].lock().unwrap();
        if lane.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let mut moved = 0;
        for slot in bufs.iter_mut().flat_map(|b| b.iter_mut()).take(K) {
            let Some(byte) = lane.pop_front() else { break };
            *slot = byte;
            moved += 1;
        }
        Ok(moved)
    }
}

impl<const K: usize> Write for MemStream<K> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.fault()?;
        let mut lane = self.conn.lanes[self.side].lock().unwrap();
        let before = lane.len();
        lane.extend(bufs.iter().flat_map(|b| b.iter()).take(K));
        Ok(lane.len() - before)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a bound in-memory address holds: connections waiting to be
/// accepted, and every connection ever dialed (for [`MemFamily::sever`]).
#[derive(Default)]
struct MemListener {
    backlog: VecDeque<Arc<Conn>>,
    dialed: Vec<Arc<Conn>>,
}

type Listeners = StdMutex<HashMap<String, MemListener>>;

fn listeners() -> &'static Listeners {
    static LISTENERS: std::sync::OnceLock<Listeners> = std::sync::OnceLock::new();
    LISTENERS.get_or_init(Default::default)
}

/// The in-memory family: no fds, so the engine runs the scan pump.
struct MemFamily<const K: usize>;

impl<const K: usize> MemFamily<K> {
    /// Reset every connection dialed to `addr` so far.
    fn sever(addr: &str) {
        for conn in &listeners().lock().unwrap()[addr].dialed {
            conn.severed.store(true, Ordering::Release);
        }
    }
}

impl<const K: usize> SockFamily for MemFamily<K> {
    type Listener = String;
    type Stream = MemStream<K>;
    const KIND: TransportKind = TransportKind::Uds;

    fn bind(hint: &str) -> io::Result<(String, String)> {
        let fresh = listeners()
            .lock()
            .unwrap()
            .insert(hint.to_string(), MemListener::default())
            .is_none();
        assert!(fresh, "in-memory address {hint} bound twice");
        Ok((hint.to_string(), hint.to_string()))
    }

    fn accept(listener: &String) -> io::Result<Option<MemStream<K>>> {
        let conn = listeners()
            .lock()
            .unwrap()
            .get_mut(listener)
            .and_then(|l| l.backlog.pop_front());
        Ok(conn.map(|conn| MemStream {
            conn,
            side: 0,
            calls: 0,
        }))
    }

    fn connect(addr: &str, _timeout: Duration) -> io::Result<MemStream<K>> {
        let conn = Arc::new(Conn {
            lanes: Default::default(),
            severed: AtomicBool::new(false),
        });
        let mut all = listeners().lock().unwrap();
        let l = all.get_mut(addr).ok_or(io::ErrorKind::ConnectionRefused)?;
        l.backlog.push_back(conn.clone());
        l.dialed.push(conn.clone());
        Ok(MemStream {
            conn,
            side: 1,
            calls: 0,
        })
    }

    fn set_nonblocking(_stream: &MemStream<K>, _on: bool) -> io::Result<()> {
        Ok(())
    }

    fn set_read_timeout(_stream: &MemStream<K>, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    fn cleanup(addr: &str) {
        listeners().lock().unwrap().remove(addr);
    }
}

type MemTransport<const K: usize> = WireTransport<Tagged, MemFamily<K>>;

/// Two connected in-memory ranks (rank 1 dials rank 0).
fn mem_pair<const K: usize>() -> [MemTransport<K>; 2] {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let tag = SEQ.fetch_add(1, Ordering::Relaxed);
    let bounds = [0, 1].map(|r| Bound::bind(&format!("mem-{K}-{tag}-{r}")).unwrap());
    let table: Vec<String> = bounds.iter().map(|b| b.addr.clone()).collect();
    let mut rank = 0;
    let pair = bounds.map(|b| {
        rank += 1;
        WireTransport::new(b, rank - 1, table.clone(), 1, fast_opts())
    });
    pump_until(&pair, "mesh never came up", || {
        pair[0].mesh_ready() && pair[1].mesh_ready()
    });
    pair
}

/// Pump every transport in `ts` round-robin until `done`.
fn pump_until<M: FrameCodec, F: SockFamily>(
    ts: &[WireTransport<M, F>],
    what: &str,
    mut done: impl FnMut() -> bool,
) {
    let deadline = wtime() + 20.0;
    while !done() {
        for t in ts {
            t.progress();
        }
        assert!(wtime() < deadline, "{what}");
    }
}

/// Pump until `want` packets sit in `ts[at]`'s endpoint lane; take them.
fn recv_n<F: SockFamily>(
    ts: &[WireTransport<Tagged, F>],
    at: usize,
    want: usize,
) -> Vec<Envelope<Tagged>> {
    pump_until(ts, "frames never arrived", || {
        ts[at].queued(at, Path::Net) >= want
    });
    let mut out = Vec::new();
    ts[at].poll(at, Path::Net, usize::MAX, &mut out);
    out
}

/// 32 B, 4 KiB and 200 KiB frames interleaved, both directions at
/// once, through streams that move `K` bytes per call: byte-identical
/// FIFO delivery and a TX queue that drains to exactly zero.
fn fifo_survives_partial_io<const K: usize>() {
    let pair = mem_pair::<K>();
    let sizes = [32, 4096, 200 * 1024, 32, 4096, 32];
    for (id, &len) in sizes.iter().enumerate() {
        pair[1].send(1, 0, Tagged::patterned(id as u64, len), len);
        pair[0].send(0, 1, Tagged::patterned(100 + id as u64, len / 2), len / 2);
    }
    for (at, base, div) in [(0, 0, 1), (1, 100, 2)] {
        let got = recv_n(&pair, at, sizes.len());
        assert_eq!(got.len(), sizes.len());
        for (i, env) in got.iter().enumerate() {
            let want = Tagged::patterned(base + i as u64, sizes[i] / div);
            assert_eq!(
                (env.src, env.dst, env.wire_bytes),
                (1 - at, at, sizes[i] / div)
            );
            assert!(env.msg == want, "K={K}: frame {i} at rank {at} corrupted");
        }
    }
    pump_until(&pair, "TX queues never drained", || {
        pair[0].queued_tx_bytes() + pair[1].queued_tx_bytes() == 0
    });
    assert!(
        pair[1].frames.heads.idle() > 0,
        "flushed heads are recycled"
    );
}

#[test]
fn fifo_survives_1_byte_io() {
    fifo_survives_partial_io::<1>();
}

#[test]
fn fifo_survives_7_byte_io() {
    fifo_survives_partial_io::<7>();
}

#[test]
fn fifo_survives_15_byte_io() {
    fifo_survives_partial_io::<15>();
}

#[test]
fn fifo_survives_17_byte_io() {
    fifo_survives_partial_io::<17>();
}

#[test]
fn fifo_survives_4096_byte_io() {
    fifo_survives_partial_io::<4096>();
}

/// The module doc's promise: a reconnect mid-frame discards the partial
/// frame on both sides, and the frame then crosses whole, once.
#[test]
fn reconnect_mid_frame_discards_partials_on_both_sides() {
    const K: usize = 4096;
    let pair = mem_pair::<K>();
    let big = Tagged::patterned(1, 200 * 1024);
    let full = FRAME_HEADER + 8 + big.body.len();
    pair[1].send(1, 0, big.clone(), big.body.len());
    // Stop with the frame part-written by rank 1 and part-received by
    // rank 0 (into its own buffer, past the header).
    pump_until(&pair, "frame never got under way", || {
        let rx = pair[0].link.peers[1].lock();
        rx.rx_frame.as_ref().is_some_and(|f| f.filled > K)
    });
    let queued = pair[1].queued_tx_bytes();
    assert!(queued > 0 && queued < full, "{queued} of {full} bytes left");

    MemFamily::<K>::sever(pair[0].addr());
    let got = recv_n(&pair, 0, 1);
    assert!(got[0].msg == big, "the re-sent frame arrived damaged");
    // Framing is intact afterwards, and nothing arrived twice.
    pair[1].send(1, 0, Tagged::patterned(2, 4096), 4096);
    let got = recv_n(&pair, 0, 1);
    assert!(got[0].msg == Tagged::patterned(2, 4096));
    pump_until(&pair, "TX queue never drained", || {
        pair[1].queued_tx_bytes() == 0
    });
    assert_eq!(pair[0].dead_peers() + pair[1].dead_peers(), 0);
}

// ---------------------------------------------------------------------
// Hostile bytes on a real socket
// ---------------------------------------------------------------------

/// A raw frame header: `FrameHdr::put` refuses an oversized length.
fn frame_header(plen: usize, src: usize, dst: usize) -> Vec<u8> {
    [plen, src, dst, 0]
        .iter()
        .flat_map(|&w| (w as u32).to_le_bytes())
        .collect()
}

/// Ranks 0 and 1 are real transports; "rank 2" is a raw socket that
/// completes the hello with rank 0 and then sends `bad`. Rank 0 must
/// survive, take rank 2 from connected through idle to dead on the
/// reconnect budget, and keep talking to rank 1.
fn hostile_peer_is_dropped(bad: &[u8], close_after: bool) {
    type T = WireTransport<Tagged, crate::tcp::TcpFamily>;
    let bounds = [0, 1].map(|_| Bound::bind("127.0.0.1:0").unwrap());
    let mut table: Vec<String> = bounds.iter().map(|b| b.addr.clone()).collect();
    table.push("127.0.0.1:9".to_string()); // rank 2 listens nowhere
    let mut rank = 0;
    let ts: [T; 2] = bounds.map(|b| {
        rank += 1;
        WireTransport::new(b, rank - 1, table.clone(), 1, fast_opts())
    });
    let state_of = |r: usize| match ts[0].link.peers[r].lock().state {
        _ if !ts[0].peer_alive(r) => 'd',
        PeerState::Idle => 'i',
        PeerState::Connected(_) => 'c',
    };
    pump_until(&ts, "ranks 0 and 1 never connected", || state_of(1) == 'c');

    let mut raw = std::net::TcpStream::connect(ts[0].addr()).unwrap();
    raw.write_all(&2u32.to_le_bytes()).unwrap();
    pump_until(&ts, "hello from rank 2 not accepted", || state_of(2) == 'c');
    raw.write_all(bad).unwrap();
    let raw = (!close_after).then_some(raw);

    // Dropped, not killed: first idle (the grace window any lost
    // connection gets), dead once the window runs out.
    pump_until(&ts, "bad frame did not drop the connection", || {
        state_of(2) != 'c'
    });
    assert_eq!(state_of(2), 'i');
    pump_until(&ts, "rank 2 never declared dead", || !ts[0].peer_alive(2));
    assert_eq!(ts[0].dead_peers(), 1);
    drop(raw);

    // Rank 1 noticed nothing.
    assert_eq!(state_of(1), 'c');
    ts[1].send(1, 0, Tagged::patterned(7, 4096), 4096);
    assert!(recv_n(&ts, 0, 1)[0].msg == Tagged::patterned(7, 4096));
    ts[0].send(0, 1, Tagged::patterned(8, 100), 100);
    assert!(recv_n(&ts, 1, 1)[0].msg == Tagged::patterned(8, 100));
}

#[test]
fn oversized_frame_length_drops_the_peer() {
    hostile_peer_is_dropped(&frame_header(MAX_FRAME_PAYLOAD + 1, 2, 0), false);
}

#[test]
fn frame_for_a_foreign_endpoint_drops_the_peer() {
    let mut bad = frame_header(8, 2, 1);
    bad.extend_from_slice(&[0; 8]);
    hostile_peer_is_dropped(&bad, false);
}

#[test]
fn frame_from_the_wrong_source_rank_drops_the_peer() {
    let mut bad = frame_header(8, 1, 0);
    bad.extend_from_slice(&[0; 8]);
    hostile_peer_is_dropped(&bad, false);
}

#[test]
fn undecodable_payload_drops_the_peer() {
    // `Tagged` needs eight bytes of id; three do not decode.
    let mut bad = frame_header(3, 2, 0);
    bad.extend_from_slice(b"???");
    hostile_peer_is_dropped(&bad, false);
}

#[test]
fn header_truncated_by_close_drops_the_peer() {
    hostile_peer_is_dropped(&frame_header(8, 2, 0)[..7], true);
}
