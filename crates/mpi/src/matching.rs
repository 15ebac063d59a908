//! The tag-matching engine: posted-receive and unexpected-message queues
//! for one communicator context.
//!
//! Classic MPI matching rules: an incoming message `(src, tag)` matches the
//! *first* posted receive (in post order) whose source and tag fields equal
//! the message's or are wildcards; a posted receive matches the *first*
//! compatible unexpected message (in arrival order). Per-sender FIFO is
//! inherited from the fabric's per-channel FIFO delivery.
//!
//! # Data structure
//!
//! [`MatchState`] buckets both queues by exact `(src, tag)` key, the way
//! MPICH's CH4 buckets matching queues per source to escape the classic
//! O(posted + unexpected) linear scan. Receives that use `ANY_SOURCE` or
//! `ANY_TAG` go to an ordered wildcard side-queue instead. Every entry is
//! stamped with a monotonically increasing sequence number at insertion,
//! and a match always takes the *lowest-sequence* compatible entry, so the
//! observable match order is exactly the historical post/arrival order even
//! when a wildcard and an exact receive both qualify. The common exact-match
//! case is an O(1) hash lookup; wildcard traffic pays O(wildcard queue) on
//! the posted side and O(active buckets) on the unexpected side.
//!
//! [`LinearMatchState`] preserves the original two-`VecDeque` linear-scan
//! implementation verbatim as the executable specification; the
//! `match_equivalence` property suite drives both on random interleavings
//! and requires identical observable behavior.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::Completer;
use mpfa_transport::MpfaBytes;

/// Wildcard source (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -1;

/// What a [`RecvSlot`] currently holds. Single-frame payloads (eager, or
/// a one-chunk rendezvous) stay as the refcounted view the transport
/// delivered — on a shared-memory backend that is a window into the ring
/// itself, released when the view drops. Chunked reassembly needs an
/// owned buffer to scatter into.
#[derive(Default)]
enum SlotData {
    #[default]
    Empty,
    Owned(Vec<u8>),
    View(MpfaBytes),
}

impl SlotData {
    fn len(&self) -> usize {
        match self {
            SlotData::Empty => 0,
            SlotData::Owned(v) => v.len(),
            SlotData::View(b) => b.len(),
        }
    }
}

/// Destination buffer of an in-progress receive, shared between the posting
/// context and the progress hooks that fill it.
#[derive(Clone, Default)]
pub struct RecvSlot {
    data: Arc<Mutex<SlotData>>,
}

impl RecvSlot {
    /// An empty slot.
    pub fn new() -> RecvSlot {
        RecvSlot::default()
    }

    /// Replace the slot contents wholesale with an owned buffer.
    pub fn set(&self, bytes: Vec<u8>) {
        *self.data.lock() = SlotData::Owned(bytes);
    }

    /// Replace the slot contents wholesale with a payload view, without
    /// copying (the zero-copy eager landing).
    pub fn set_bytes(&self, bytes: MpfaBytes) {
        *self.data.lock() = SlotData::View(bytes);
    }

    /// Ensure capacity `total` and copy `bytes` at `offset` (rendezvous
    /// chunk reassembly — necessarily a copy, counted as such).
    pub(crate) fn write_at(&self, total: usize, offset: usize, bytes: &[u8]) {
        use std::sync::atomic::Ordering;
        let mut data = self.data.lock();
        // Reassembly scatters into an owned buffer; a view that somehow
        // got here first (protocol bug) would be silently aliased, so
        // flatten it defensively.
        if let SlotData::View(view) = &*data {
            *data = SlotData::Owned(view.to_vec());
        }
        if let SlotData::Empty = &*data {
            *data = SlotData::Owned(Vec::new());
        }
        let SlotData::Owned(buf) = &mut *data else {
            unreachable!("slot flattened to owned above");
        };
        if buf.len() < total {
            buf.resize(total, 0);
        }
        buf[offset..offset + bytes.len()].copy_from_slice(bytes);
        mpfa_obs::global_counters()
            .bytes_copied
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }

    /// Take the accumulated bytes out of the slot as an owned vector.
    /// Flattening a view costs one (counted) copy; callers that can keep
    /// the payload as a slice use `RecvSlot::take_bytes` instead.
    pub fn take(&self) -> Vec<u8> {
        use std::sync::atomic::Ordering;
        match std::mem::take(&mut *self.data.lock()) {
            SlotData::Empty => Vec::new(),
            SlotData::Owned(v) => v,
            SlotData::View(b) => {
                mpfa_obs::global_counters()
                    .bytes_copied
                    .fetch_add(b.len() as u64, Ordering::Relaxed);
                b.to_vec()
            }
        }
    }

    /// Take the accumulated bytes out of the slot without copying: a
    /// delivered view passes through as-is, an owned buffer is moved
    /// into a view.
    pub(crate) fn take_bytes(&self) -> MpfaBytes {
        match std::mem::take(&mut *self.data.lock()) {
            SlotData::Empty => MpfaBytes::empty(),
            SlotData::Owned(v) => MpfaBytes::from(v),
            SlotData::View(b) => b,
        }
    }

    /// Current byte length.
    pub fn len(&self) -> usize {
        self.data.lock().len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A receive posted by the application, waiting in the matching engine.
pub struct PostedRecv {
    /// Requested source (communicator rank) or [`ANY_SOURCE`].
    pub src: i32,
    /// Requested tag or [`ANY_TAG`].
    pub tag: i32,
    /// Receive capacity in bytes; larger incoming messages are a
    /// truncation error (fatal, as under `MPI_ERRORS_ARE_FATAL`).
    pub capacity: usize,
    /// Where the payload lands.
    pub slot: RecvSlot,
    /// Completes the application's request.
    pub completer: Completer,
}

impl PostedRecv {
    fn matches(&self, src: i32, tag: i32) -> bool {
        (self.src == ANY_SOURCE || self.src == src) && (self.tag == ANY_TAG || self.tag == tag)
    }

    /// True if either field is a wildcard (routes to the wildcard
    /// side-queue instead of an exact bucket).
    fn is_wild(&self) -> bool {
        self.src == ANY_SOURCE || self.tag == ANY_TAG
    }
}

/// A message that arrived before its receive was posted.
pub enum Unexpected {
    /// A complete eager payload (Figure 1(d): "eager unexpected receive").
    Eager {
        /// Sender's communicator rank.
        src: i32,
        /// Message tag.
        tag: i32,
        /// Full payload, still the view the transport delivered (on a
        /// shared-memory backend: a window into the ring, held until a
        /// matching receive consumes it).
        data: MpfaBytes,
    },
    /// A rendezvous announcement whose CTS we must defer until a receive
    /// is posted.
    Rts {
        /// Sender's communicator rank.
        src: i32,
        /// Message tag.
        tag: i32,
        /// Sender-side request id (echoed in the CTS).
        send_id: u64,
        /// Total transfer size.
        total: usize,
        /// Wire endpoint index to send the CTS to.
        reply_ep: usize,
    },
}

impl Unexpected {
    /// Sender rank of the pending message.
    pub fn src(&self) -> i32 {
        match self {
            Unexpected::Eager { src, .. } | Unexpected::Rts { src, .. } => *src,
        }
    }

    /// Tag of the pending message.
    pub fn tag(&self) -> i32 {
        match self {
            Unexpected::Eager { tag, .. } | Unexpected::Rts { tag, .. } => *tag,
        }
    }

    /// Payload size of the pending message.
    pub fn bytes(&self) -> usize {
        match self {
            Unexpected::Eager { data, .. } => data.len(),
            Unexpected::Rts { total, .. } => *total,
        }
    }

    fn matched_by(&self, recv: &PostedRecv) -> bool {
        recv.matches(self.src(), self.tag())
    }
}

fn record_unexpected_obs(msg: &Unexpected) {
    use std::sync::atomic::Ordering;
    mpfa_obs::global_counters()
        .unexpected_msgs
        .fetch_add(1, Ordering::Relaxed);
    mpfa_obs::record(|| mpfa_obs::EventKind::UnexpectedMsg {
        src: msg.src() as u32,
        tag: msg.tag() as i64,
    });
}

/// An entry stamped with its insertion sequence number. The sequence is
/// what keeps bucketed matching order-equivalent to a single FIFO: all
/// compatible candidates are compared by `seq` and the lowest wins.
struct Stamped<T> {
    seq: u64,
    item: T,
}

/// Matching state of one communicator context (bucketed; see the module
/// docs for the layout and the ordering argument).
#[derive(Default)]
pub struct MatchState {
    /// Next sequence number stamped on an inserted post or arrival.
    next_seq: u64,
    /// Exact-`(src, tag)` posted receives; FIFO (by seq) within a bucket.
    posted_exact: HashMap<(i32, i32), VecDeque<Stamped<PostedRecv>>>,
    /// Posted receives with `ANY_SOURCE` and/or `ANY_TAG`, in post order.
    posted_wild: VecDeque<Stamped<PostedRecv>>,
    /// Total posted receives across buckets + wildcard queue.
    posted_count: usize,
    /// Unexpected messages bucketed by their concrete `(src, tag)`;
    /// FIFO (by seq) within a bucket.
    unexpected: HashMap<(i32, i32), VecDeque<Stamped<Unexpected>>>,
    /// Total unexpected messages across buckets.
    unexpected_count: usize,
}

impl MatchState {
    /// Fresh, empty state.
    pub fn new() -> MatchState {
        MatchState::default()
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Sequence number of the oldest unexpected message matching
    /// `recv`, with the bucket key it lives under.
    fn oldest_unexpected_for(&self, src: i32, tag: i32) -> Option<((i32, i32), u64)> {
        if src != ANY_SOURCE && tag != ANY_TAG {
            // Exact probe: one hash lookup; bucket front is its oldest.
            let key = (src, tag);
            return self
                .unexpected
                .get(&key)
                .and_then(|q| q.front())
                .map(|e| (key, e.seq));
        }
        // Wildcard probe: compare the front (oldest) of every compatible
        // bucket; the arrival order winner is the minimum sequence.
        self.unexpected
            .iter()
            .filter(|((s, t), q)| {
                !q.is_empty() && (src == ANY_SOURCE || src == *s) && (tag == ANY_TAG || tag == *t)
            })
            .filter_map(|(key, q)| q.front().map(|e| (*key, e.seq)))
            .min_by_key(|(_, seq)| *seq)
    }

    fn take_unexpected(&mut self, key: (i32, i32)) -> Unexpected {
        let q = self.unexpected.get_mut(&key).expect("bucket exists");
        let entry = q.pop_front().expect("bucket non-empty");
        if q.is_empty() {
            self.unexpected.remove(&key);
        }
        self.unexpected_count -= 1;
        entry.item
    }

    /// Try to satisfy `recv` from the unexpected queue. If an unexpected
    /// message matches, it is removed and returned with the receive;
    /// otherwise the receive is enqueued.
    pub fn post_recv(&mut self, recv: PostedRecv) -> Option<(PostedRecv, Unexpected)> {
        if let Some((key, _)) = self.oldest_unexpected_for(recv.src, recv.tag) {
            return Some((recv, self.take_unexpected(key)));
        }
        let seq = self.stamp();
        let entry = Stamped { seq, item: recv };
        if entry.item.is_wild() {
            self.posted_wild.push_back(entry);
        } else {
            self.posted_exact
                .entry((entry.item.src, entry.item.tag))
                .or_default()
                .push_back(entry);
        }
        self.posted_count += 1;
        None
    }

    /// Try to match an incoming message against the posted queue. The
    /// first matching receive (post order) is removed and returned.
    pub fn match_incoming(&mut self, src: i32, tag: i32) -> Option<PostedRecv> {
        use std::sync::atomic::Ordering;
        // Oldest exact candidate: front of the (src, tag) bucket.
        let exact_seq = self
            .posted_exact
            .get(&(src, tag))
            .and_then(|q| q.front())
            .map(|e| e.seq);
        // Oldest wildcard candidate: first compatible entry in post order
        // (the queue is seq-sorted, so the first hit is the oldest).
        let wild_pos = self
            .posted_wild
            .iter()
            .position(|e| e.item.matches(src, tag));
        let wild_seq = wild_pos.map(|p| self.posted_wild[p].seq);

        let use_exact = match (exact_seq, wild_seq) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            // Both compatible: post order decides.
            (Some(e), Some(w)) => e < w,
        };
        let counters = mpfa_obs::global_counters();
        let recv = if use_exact {
            counters.match_bucket_hits.fetch_add(1, Ordering::Relaxed);
            let q = self.posted_exact.get_mut(&(src, tag)).expect("bucket");
            let entry = q.pop_front().expect("front checked");
            if q.is_empty() {
                self.posted_exact.remove(&(src, tag));
            }
            entry.item
        } else {
            counters.match_wildcard_hits.fetch_add(1, Ordering::Relaxed);
            self.posted_wild
                .remove(wild_pos.expect("wildcard position"))
                .expect("position valid")
                .item
        };
        self.posted_count -= 1;
        Some(recv)
    }

    /// Queue a message that matched nothing.
    pub fn push_unexpected(&mut self, msg: Unexpected) {
        record_unexpected_obs(&msg);
        let seq = self.stamp();
        let key = (msg.src(), msg.tag());
        self.unexpected
            .entry(key)
            .or_default()
            .push_back(Stamped { seq, item: msg });
        self.unexpected_count += 1;
    }

    /// Number of posted receives waiting.
    pub fn posted_len(&self) -> usize {
        self.posted_count
    }

    /// Number of unexpected messages waiting.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_count
    }

    /// Peek for a matching unexpected message (probe semantics) using the
    /// wildcard-aware predicate. Returns `(src, tag, bytes)`.
    pub fn probe_unexpected(&self, src: i32, tag: i32) -> Option<(i32, i32, usize)> {
        let (key, _) = self.oldest_unexpected_for(src, tag)?;
        self.unexpected
            .get(&key)
            .and_then(|q| q.front())
            .map(|e| (e.item.src(), e.item.tag(), e.item.bytes()))
    }

    /// Remove every posted receive `pred(src, tag)` accepts and hand the
    /// entries back (the fault path: the caller fails their completers).
    /// Wildcard fields are passed through as-is ([`ANY_SOURCE`] /
    /// [`ANY_TAG`]), so a predicate testing `src == some_rank` naturally
    /// leaves `ANY_SOURCE` receives in place.
    pub(crate) fn drain_posted(&mut self, pred: &dyn Fn(i32, i32) -> bool) -> Vec<PostedRecv> {
        let mut out = Vec::new();
        self.posted_exact.retain(|&(src, tag), q| {
            if pred(src, tag) {
                out.extend(q.drain(..).map(|e| e.item));
                false
            } else {
                true
            }
        });
        let mut keep = VecDeque::with_capacity(self.posted_wild.len());
        for e in self.posted_wild.drain(..) {
            if pred(e.item.src, e.item.tag) {
                out.push(e.item);
            } else {
                keep.push_back(e);
            }
        }
        self.posted_wild = keep;
        self.posted_count -= out.len();
        out
    }
}

/// The original linear-scan matching engine, retained verbatim as the
/// executable specification of the MPI matching rules.
///
/// Tests (unit and the `match_equivalence` property suite) drive this and
/// [`MatchState`] on identical operation sequences and assert the
/// observable outcomes are the same. Not used on any production path.
#[derive(Default)]
pub struct LinearMatchState {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<Unexpected>,
}

impl LinearMatchState {
    /// Fresh, empty state.
    pub fn new() -> LinearMatchState {
        LinearMatchState::default()
    }

    /// See [`MatchState::post_recv`].
    pub fn post_recv(&mut self, recv: PostedRecv) -> Option<(PostedRecv, Unexpected)> {
        if let Some(pos) = self.unexpected.iter().position(|u| u.matched_by(&recv)) {
            let unexpected = self.unexpected.remove(pos).expect("position valid");
            Some((recv, unexpected))
        } else {
            self.posted.push_back(recv);
            None
        }
    }

    /// See [`MatchState::match_incoming`].
    pub fn match_incoming(&mut self, src: i32, tag: i32) -> Option<PostedRecv> {
        let pos = self.posted.iter().position(|r| r.matches(src, tag))?;
        self.posted.remove(pos)
    }

    /// See [`MatchState::push_unexpected`] (reference: no obs recording).
    pub fn push_unexpected(&mut self, msg: Unexpected) {
        self.unexpected.push_back(msg);
    }

    /// Number of posted receives waiting.
    pub fn posted_len(&self) -> usize {
        self.posted.len()
    }

    /// Number of unexpected messages waiting.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    /// See [`MatchState::probe_unexpected`].
    pub fn probe_unexpected(&self, src: i32, tag: i32) -> Option<(i32, i32, usize)> {
        self.unexpected
            .iter()
            .find(|u| (src == ANY_SOURCE || src == u.src()) && (tag == ANY_TAG || tag == u.tag()))
            .map(|u| (u.src(), u.tag(), u.bytes()))
    }

    /// See [`MatchState::drain_posted`].
    #[cfg(test)]
    pub(crate) fn drain_posted(&mut self, pred: &dyn Fn(i32, i32) -> bool) -> Vec<PostedRecv> {
        let mut out = Vec::new();
        let mut keep = VecDeque::with_capacity(self.posted.len());
        for r in self.posted.drain(..) {
            if pred(r.src, r.tag) {
                out.push(r);
            } else {
                keep.push_back(r);
            }
        }
        self.posted = keep;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_core::{Request, Stream};

    fn posted(src: i32, tag: i32) -> (PostedRecv, Request) {
        let stream = Stream::create();
        let (req, completer) = Request::pair(&stream);
        (
            PostedRecv {
                src,
                tag,
                capacity: 1 << 20,
                slot: RecvSlot::new(),
                completer,
            },
            req,
        )
    }

    fn eager(src: i32, tag: i32, n: usize) -> Unexpected {
        Unexpected::Eager {
            src,
            tag,
            data: vec![0xAB; n].into(),
        }
    }

    #[test]
    fn recv_slot_roundtrip() {
        let slot = RecvSlot::new();
        assert!(slot.is_empty());
        slot.set(vec![1, 2, 3]);
        assert_eq!(slot.len(), 3);
        assert_eq!(slot.take(), vec![1, 2, 3]);
        assert!(slot.is_empty());
    }

    #[test]
    fn recv_slot_view_passthrough_is_zero_copy() {
        let slot = RecvSlot::new();
        let view = MpfaBytes::from(vec![1u8, 2, 3, 4]);
        let ptr = view.as_ptr();
        slot.set_bytes(view);
        assert_eq!(slot.len(), 4);
        let out = slot.take_bytes();
        assert_eq!(out.as_ptr(), ptr, "view must pass through uncopied");
        assert_eq!(&out[..], &[1, 2, 3, 4]);
        assert!(slot.is_empty());
    }

    #[test]
    fn recv_slot_take_flattens_view_and_counts_copy() {
        let slot = RecvSlot::new();
        slot.set_bytes(MpfaBytes::from(vec![9u8; 100]));
        let before = mpfa_obs::global_counters().snapshot().bytes_copied;
        assert_eq!(slot.take(), vec![9u8; 100]);
        let after = mpfa_obs::global_counters().snapshot().bytes_copied;
        // >= because the counters are process-global and other tests run
        // concurrently.
        assert!(after - before >= 100, "flattening a view is a counted copy");
    }

    #[test]
    fn recv_slot_chunked_assembly() {
        let slot = RecvSlot::new();
        slot.write_at(6, 3, &[4, 5, 6]);
        slot.write_at(6, 0, &[1, 2, 3]);
        assert_eq!(slot.take(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn exact_match_prefers_first_posted() {
        let mut m = MatchState::new();
        let (r1, _q1) = posted(0, 5);
        let (r2, _q2) = posted(0, 5);
        m.post_recv(r1);
        m.post_recv(r2);
        assert_eq!(m.posted_len(), 2);
        let hit = m.match_incoming(0, 5).expect("match");
        // First posted wins; the remaining one is the second.
        assert_eq!(m.posted_len(), 1);
        drop(hit);
    }

    #[test]
    fn wildcard_source_and_tag() {
        let mut m = MatchState::new();
        let (r, _q) = posted(ANY_SOURCE, ANY_TAG);
        m.post_recv(r);
        assert!(m.match_incoming(3, 17).is_some());
        assert!(m.match_incoming(3, 17).is_none());
    }

    #[test]
    fn no_match_on_wrong_tag() {
        let mut m = MatchState::new();
        let (r, _q) = posted(0, 5);
        m.post_recv(r);
        assert!(m.match_incoming(0, 6).is_none());
        assert_eq!(m.posted_len(), 1);
    }

    #[test]
    fn unexpected_consumed_by_matching_post() {
        let mut m = MatchState::new();
        m.push_unexpected(eager(2, 9, 16));
        let (r, _q) = posted(2, 9);
        let (recv, unexp) = m.post_recv(r).expect("should match unexpected");
        assert_eq!(unexp.src(), 2);
        assert_eq!(unexp.bytes(), 16);
        assert_eq!(m.unexpected_len(), 0);
        drop(recv);
    }

    #[test]
    fn unexpected_fifo_order_for_wildcards() {
        let mut m = MatchState::new();
        m.push_unexpected(eager(1, 7, 4));
        m.push_unexpected(eager(2, 7, 8));
        let (r, _q) = posted(ANY_SOURCE, 7);
        let (_recv, unexp) = m.post_recv(r).unwrap();
        assert_eq!(unexp.src(), 1, "earliest unexpected must match first");
        assert_eq!(m.unexpected_len(), 1);
    }

    #[test]
    fn non_matching_unexpected_skipped() {
        let mut m = MatchState::new();
        m.push_unexpected(eager(1, 7, 4));
        m.push_unexpected(eager(1, 8, 4));
        let (r, _q) = posted(1, 8);
        let (_recv, unexp) = m.post_recv(r).unwrap();
        assert_eq!(unexp.tag(), 8);
        assert_eq!(m.unexpected_len(), 1);
    }

    #[test]
    fn rts_unexpected_carries_protocol_fields() {
        let mut m = MatchState::new();
        m.push_unexpected(Unexpected::Rts {
            src: 4,
            tag: 2,
            send_id: 77,
            total: 1 << 20,
            reply_ep: 12,
        });
        let (r, _q) = posted(4, ANY_TAG);
        let (_recv, unexp) = m.post_recv(r).unwrap();
        match unexp {
            Unexpected::Rts {
                send_id,
                total,
                reply_ep,
                ..
            } => {
                assert_eq!(send_id, 77);
                assert_eq!(total, 1 << 20);
                assert_eq!(reply_ep, 12);
            }
            Unexpected::Eager { .. } => panic!("wrong variant"),
        }
    }

    #[test]
    fn probe_peeks_without_consuming() {
        let mut m = MatchState::new();
        assert!(m.probe_unexpected(ANY_SOURCE, ANY_TAG).is_none());
        m.push_unexpected(eager(3, 11, 24));
        assert_eq!(m.probe_unexpected(3, 11), Some((3, 11, 24)));
        assert_eq!(m.probe_unexpected(ANY_SOURCE, ANY_TAG), Some((3, 11, 24)));
        assert!(m.probe_unexpected(2, 11).is_none());
        assert_eq!(m.unexpected_len(), 1);
    }

    #[test]
    fn probe_wildcard_returns_oldest_arrival() {
        let mut m = MatchState::new();
        m.push_unexpected(eager(5, 2, 10));
        m.push_unexpected(eager(1, 9, 20));
        m.push_unexpected(eager(5, 9, 30));
        // Oldest overall.
        assert_eq!(m.probe_unexpected(ANY_SOURCE, ANY_TAG), Some((5, 2, 10)));
        // Oldest with tag 9 is the (1, 9) arrival, not (5, 9).
        assert_eq!(m.probe_unexpected(ANY_SOURCE, 9), Some((1, 9, 20)));
        // Oldest from src 5 with any tag.
        assert_eq!(m.probe_unexpected(5, ANY_TAG), Some((5, 2, 10)));
    }

    #[test]
    fn wildcard_post_vs_specific_post_ordering() {
        // A specific receive posted first must win over a later wildcard.
        let mut m = MatchState::new();
        let (specific, sq) = posted(1, 1);
        let (wild, wq) = posted(ANY_SOURCE, ANY_TAG);
        m.post_recv(specific);
        m.post_recv(wild);
        let hit = m.match_incoming(1, 1).unwrap();
        hit.completer.complete_empty();
        assert!(sq.is_complete());
        assert!(!wq.is_complete());
    }

    #[test]
    fn wildcard_posted_first_beats_later_exact() {
        // The mirror case: an older wildcard must win over a newer exact
        // receive for the same (src, tag).
        let mut m = MatchState::new();
        let (wild, wq) = posted(ANY_SOURCE, ANY_TAG);
        let (specific, sq) = posted(1, 1);
        m.post_recv(wild);
        m.post_recv(specific);
        let hit = m.match_incoming(1, 1).unwrap();
        hit.completer.complete_empty();
        assert!(wq.is_complete());
        assert!(!sq.is_complete());
        // The exact receive is still postable against the next message.
        assert!(m.match_incoming(1, 1).is_some());
        assert_eq!(m.posted_len(), 0);
    }

    #[test]
    fn exact_buckets_do_not_cross_match() {
        let mut m = MatchState::new();
        let (r1, _q1) = posted(1, 1);
        let (r2, _q2) = posted(2, 2);
        m.post_recv(r1);
        m.post_recv(r2);
        assert!(m.match_incoming(2, 1).is_none());
        assert!(m.match_incoming(1, 2).is_none());
        assert!(m.match_incoming(2, 2).is_some());
        assert!(m.match_incoming(1, 1).is_some());
        assert_eq!(m.posted_len(), 0);
    }

    #[test]
    fn counts_stay_consistent_across_bucket_churn() {
        let mut m = MatchState::new();
        for i in 0..10 {
            let (r, _q) = posted(i % 3, i % 2);
            m.post_recv(r);
        }
        assert_eq!(m.posted_len(), 10);
        let mut matched = 0;
        for i in 0..10 {
            if m.match_incoming(i % 3, i % 2).is_some() {
                matched += 1;
            }
        }
        assert_eq!(matched, 10);
        assert_eq!(m.posted_len(), 0);
        for i in 0..6 {
            m.push_unexpected(eager(i % 2, i % 3, 4));
        }
        assert_eq!(m.unexpected_len(), 6);
        for i in 0..6 {
            let (r, _q) = posted(i % 2, i % 3);
            assert!(m.post_recv(r).is_some());
        }
        assert_eq!(m.unexpected_len(), 0);
    }

    #[test]
    fn drain_posted_by_source_spares_wildcards() {
        let mut m = MatchState::new();
        let mut lin = LinearMatchState::new();
        for state in [0, 1] {
            let (r1, q1) = posted(2, 5);
            let (r2, q2) = posted(1, 5);
            let (r3, q3) = posted(ANY_SOURCE, 5);
            let (r4, q4) = posted(2, ANY_TAG);
            if state == 0 {
                m.post_recv(r1);
                m.post_recv(r2);
                m.post_recv(r3);
                m.post_recv(r4);
            } else {
                lin.post_recv(r1);
                lin.post_recv(r2);
                lin.post_recv(r3);
                lin.post_recv(r4);
            }
            let drained = if state == 0 {
                m.drain_posted(&|src, _| src == 2)
            } else {
                lin.drain_posted(&|src, _| src == 2)
            };
            assert_eq!(drained.len(), 2);
            assert!(drained.iter().all(|r| r.src == 2));
            let left = if state == 0 {
                m.posted_len()
            } else {
                lin.posted_len()
            };
            assert_eq!(left, 2, "exact(1,5) and ANY_SOURCE survive");
            drop((q1, q2, q3, q4));
        }
        // Survivors still match.
        assert!(m.match_incoming(1, 5).is_some());
        assert!(m.match_incoming(7, 5).is_some(), "wildcard still posted");
        assert_eq!(m.posted_len(), 0);
    }

    #[test]
    fn linear_reference_agrees_on_basic_cases() {
        let mut lin = LinearMatchState::new();
        let mut fast = MatchState::new();
        lin.push_unexpected(eager(1, 7, 4));
        fast.push_unexpected(eager(1, 7, 4));
        lin.push_unexpected(eager(2, 7, 8));
        fast.push_unexpected(eager(2, 7, 8));
        assert_eq!(
            lin.probe_unexpected(ANY_SOURCE, 7),
            fast.probe_unexpected(ANY_SOURCE, 7)
        );
        let (rl, _ql) = posted(ANY_SOURCE, 7);
        let (rf, _qf) = posted(ANY_SOURCE, 7);
        let ul = lin.post_recv(rl).unwrap().1;
        let uf = fast.post_recv(rf).unwrap().1;
        assert_eq!((ul.src(), ul.tag()), (uf.src(), uf.tag()));
        assert_eq!(lin.unexpected_len(), fast.unexpected_len());
    }
}
