//! Persistent & partitioned operations (`MPI_Send_init` / `MPI_Recv_init`
//! / `MPI_Start`, `MPI_Psend_init` / `MPI_Precv_init` / `MPI_Pready`) with
//! **pre-matched re-fire descriptors**.
//!
//! The paper's stream/VCI progress model shines on repeated transfers,
//! but a one-shot send pays validation, routing, and tag matching every
//! time. A persistent handle pays them **once**, at init:
//!
//! 1. **Validation** — ranks and tags are checked at `*_init`.
//! 2. **Routing** — the destination wire endpoint (rank × VCI) is
//!    resolved at init and cached in the descriptor.
//! 3. **Matching** — `recv_init` pins a *matching-bucket slot*: a compact
//!    slot id announced to the sender in a one-time
//!    [`crate::wire::WireMsg::PersistBind`] handshake. Every re-fire is
//!    then slot-addressed ([`crate::wire::WireMsg::Refire`] /
//!    [`crate::wire::WireMsg::RefireRts`]) and **never enters the tag
//!    matcher** — the `match_bucket_hits` / `match_wildcard_hits`
//!    counters stay flat across a million re-fires.
//!
//! The first `start` on a send returns a request that stays pending
//! until the peer's bind arrives (an async task on the stream resolves
//! the handshake and fires — never a blocking spin, so it composes
//! with the DST scheduler); every later `start` is a pure slot fire.
//! If the slot is invalidated — the communicator was revoked or the
//! peer died — `start` falls back to the one-shot path, whose ULFM
//! choke points produce a properly born-failed request.
//!
//! **Pairing contract** (a deliberate deviation from MPI, where
//! `MPI_Start` is local): a persistent *send* must be matched by a
//! persistent *receive* with a concrete `(src, tag)` on the peer —
//! the slot protocol needs the receiver's bind, and the first round
//! stays pending until it lands. Pair an ordinary receive with `isend`, not a
//! persistent send. The converse is relaxed: `recv_init` with
//! wildcard `ANY_SOURCE`/`ANY_TAG` cannot pin a slot, so it consults
//! the matcher every round and pairs with ordinary tagged sends.
//!
//! Partitioned operations ([`PartitionedSend`] / [`PartitionedRecv`])
//! split one round's buffer into partitions that compute threads mark
//! ready ([`PartitionedSend::pready`]) while a single stream progresses
//! the wire; ready partitions ride the existing chunked pipeline as
//! zero-copy slices of the round's payload view.

use std::sync::{Arc, Mutex};

use mpfa_core::{AsyncPoll, Request, Status};
use mpfa_transport::MpfaBytes;

use crate::collectives::CollFuture;
use crate::comm::{Comm, ANY_SOURCE, ANY_TAG};
use crate::datatype::{to_bytes, MpiType};
use crate::error::{MpiError, MpiResult};
use crate::matching::RecvSlot;
use crate::op::{Op, Reducible};
use crate::recv::{RecvBytesRequest, RecvRequest};
use crate::vci::{BindState, PartFlags, PersistKey};

// -------------------------------------------------------------------
// Descriptor cores (shared by typed / bytes / partitioned wrappers)
// -------------------------------------------------------------------

/// Sender-side descriptor core: validated route + claimed binding.
struct SendCore {
    comm: Comm,
    dst: i32,
    tag: i32,
    /// Destination wire endpoint, resolved once at init.
    dst_ep: usize,
    key: PersistKey,
    /// Re-fire generation counter (diagnostics on the wire).
    gen: u64,
}

impl SendCore {
    fn init(comm: &Comm, dst: i32, tag: i32) -> MpiResult<SendCore> {
        comm.world_rank(dst)?;
        if tag < 0 {
            return Err(MpiError::InvalidTag(tag));
        }
        let key = PersistKey {
            ctx: comm.ptp_ctx(),
            src_rank: comm.rank(),
            tag,
        };
        let dst_ep = comm.ep_of(dst);
        if !comm.bundle().vci.persist_send_init(key, dst_ep) {
            return Err(MpiError::Protocol(format!(
                "send_init: a persistent send for (dst {dst}, tag {tag}) \
                 already exists on this communicator"
            )));
        }
        Ok(SendCore {
            comm: comm.clone(),
            dst,
            tag,
            dst_ep,
            key,
            gen: 0,
        })
    }

    /// Non-blocking route decision for one round.
    fn route(&self) -> Route {
        // A visible fault always diverts to the fallback, whatever the
        // binding says — the round must be born with the right error.
        if self.comm.fault_for(Some(self.dst)).is_some() {
            return Route::Fallback;
        }
        match self.comm.bundle().vci.persist_binding(&self.key) {
            BindState::Bound(slot) => Route::Slot(slot),
            BindState::Revoked => Route::Fallback,
            BindState::Unbound => Route::AwaitBind,
        }
    }

    /// The one-shot fallback through the ULFM choke point.
    fn fallback(&self, bytes: MpfaBytes) -> Request {
        self.comm
            .isend_on_ctx(self.comm.ptp_ctx(), bytes, self.dst, self.tag)
    }

    /// Fire one round: slot-addressed fast path, a deferred first-round
    /// fire awaiting the peer's bind, or the one-shot fallback.
    fn fire(&mut self, bytes: MpfaBytes) -> Request {
        match self.route() {
            Route::Slot(slot) => {
                let gen = self.gen;
                self.gen += 1;
                self.comm
                    .bundle()
                    .vci
                    .persist_fire(self.dst_ep, slot, gen, bytes)
            }
            Route::AwaitBind => {
                let gen = self.gen;
                self.gen += 1;
                self.deferred_fire(gen, bytes)
            }
            Route::Fallback => self.fallback(bytes),
        }
    }

    /// First-round fire with the bind still in flight: an async task on
    /// the stream polls the binding and fires the moment it lands (or
    /// takes the fallback under a fault/revoke), then forwards the
    /// inner request's outcome. Returns immediately — the handshake
    /// wait rides the stream's progress, never a caller-side spin.
    fn deferred_fire(&self, gen: u64, bytes: MpfaBytes) -> Request {
        let (req, completer) = Request::pair(self.comm.stream());
        let comm = self.comm.clone();
        let (key, dst, dst_ep, tag) = (self.key, self.dst, self.dst_ep, self.tag);
        let mut payload = Some(bytes);
        let mut completer = Some(completer);
        let mut inner: Option<Request> = None;
        let stream = self.comm.stream().clone();
        stream.async_start(move |_t| {
            if inner.is_none() {
                let fault = comm.fault_for(Some(dst)).is_some();
                inner = match comm.bundle().vci.persist_binding(&key) {
                    BindState::Bound(slot) if !fault => Some(comm.bundle().vci.persist_fire(
                        dst_ep,
                        slot,
                        gen,
                        payload.take().expect("single fire"),
                    )),
                    BindState::Unbound if !fault => return AsyncPoll::Pending,
                    // Revoked, or anything under a visible fault: the
                    // fallback births the right error.
                    _ => Some(comm.isend_on_ctx(
                        comm.ptp_ctx(),
                        payload.take().expect("single fire"),
                        dst,
                        tag,
                    )),
                };
            }
            let r = inner.as_ref().expect("resolved above");
            if !r.is_complete() {
                return AsyncPoll::Pending;
            }
            let c = completer.take().expect("completed once");
            match r.error() {
                Some(e) => c.fail(e),
                None => c.complete(r.status().unwrap_or_else(Status::empty)),
            }
            AsyncPoll::Done
        });
        req
    }
}

/// One round's routing verdict (see [`SendCore::route`]).
enum Route {
    /// Bound and healthy: the slot-addressed fast path.
    Slot(u64),
    /// First round, bind still in flight: defer the fire to the stream.
    AwaitBind,
    /// Revoked or faulted: the one-shot path, born with the right error.
    Fallback,
}

impl Drop for SendCore {
    fn drop(&mut self) {
        self.comm.bundle().vci.persist_free_binding(&self.key);
    }
}

/// Receiver-side descriptor core: validated pattern + pinned slot
/// (`None` for wildcard patterns, which cannot be slot-addressed and
/// take the tagged path every round).
struct RecvCore {
    comm: Comm,
    capacity: usize,
    src: i32,
    tag: i32,
    slot: Option<u64>,
}

impl RecvCore {
    fn init(comm: &Comm, capacity: usize, src: i32, tag: i32) -> MpiResult<RecvCore> {
        if src != ANY_SOURCE {
            comm.world_rank(src)?;
        }
        if tag < 0 && tag != ANY_TAG {
            return Err(MpiError::InvalidTag(tag));
        }
        let slot = if src == ANY_SOURCE || tag == ANY_TAG {
            // Wildcards must consult the matcher; no slot pinning.
            None
        } else {
            let key = PersistKey {
                ctx: comm.ptp_ctx(),
                src_rank: src,
                tag,
            };
            match comm
                .bundle()
                .vci
                .persist_recv_init(key, capacity, comm.ep_of(src))
            {
                Some(id) => Some(id),
                None => {
                    return Err(MpiError::Protocol(format!(
                        "recv_init: a persistent receive for (src {src}, tag {tag}) \
                         already exists on this communicator"
                    )))
                }
            }
        };
        Ok(RecvCore {
            comm: comm.clone(),
            capacity,
            src,
            tag,
            slot,
        })
    }

    /// Arm one round: pre-matched slot when pinned and healthy,
    /// otherwise the one-shot tagged path (born-failed under a fault).
    fn arm(&self) -> (Request, RecvSlot) {
        if let Some(slot_id) = self.slot {
            let known_src = (self.src != ANY_SOURCE).then_some(self.src);
            if self.comm.fault_for(known_src).is_none() {
                if let Some(pair) = self.comm.bundle().vci.persist_arm(slot_id) {
                    return pair;
                }
            }
        }
        self.comm
            .irecv_on_ctx(self.comm.ptp_ctx(), self.capacity, self.src, self.tag)
    }
}

impl Drop for RecvCore {
    fn drop(&mut self) {
        if let Some(slot_id) = self.slot {
            self.comm.bundle().vci.persist_free_slot(slot_id);
        }
    }
}

fn active_round_err(what: &str) -> MpiError {
    MpiError::Protocol(format!(
        "MPI_Start on a persistent {what} with an active round"
    ))
}

// -------------------------------------------------------------------
// Persistent point-to-point (typed)
// -------------------------------------------------------------------

/// A persistent send: captured buffer + pre-resolved route, re-startable.
pub struct PersistentSend<T: MpiType> {
    core: SendCore,
    data: Vec<T>,
    active: Option<Request>,
}

impl<T: MpiType> PersistentSend<T> {
    /// The send buffer; mutate it between rounds (erroneous while a round
    /// is active, like touching an MPI send buffer mid-flight — here it
    /// is merely stale data, since starts snapshot the buffer).
    pub fn buffer_mut(&mut self) -> &mut Vec<T> {
        &mut self.data
    }

    /// The send buffer (read access).
    pub fn buffer(&self) -> &[T] {
        &self.data
    }

    /// `MPI_Start`: issue one round down the slot-addressed fast path.
    /// Errors if the previous round has not completed (MPI calls this
    /// erroneous).
    pub fn start(&mut self) -> MpiResult<Request> {
        if let Some(prev) = &self.active {
            if !prev.is_complete() {
                return Err(active_round_err("send"));
            }
        }
        let req = self.core.fire(to_bytes(&self.data).into());
        self.active = Some(req.clone());
        Ok(req)
    }

    /// The in-flight round's request, if any.
    pub fn active(&self) -> Option<&Request> {
        self.active.as_ref()
    }
}

/// A persistent receive: pinned matching slot + capacity, re-startable.
pub struct PersistentRecv<T: MpiType> {
    core: RecvCore,
    active: Option<RecvRequest<T>>,
}

impl<T: MpiType> PersistentRecv<T> {
    /// `MPI_Start`: arm one receive round. Errors if the previous round
    /// is still active.
    pub fn start(&mut self) -> MpiResult<()> {
        if let Some(prev) = &self.active {
            if !prev.is_complete() {
                return Err(active_round_err("recv"));
            }
        }
        let (req, slot) = self.core.arm();
        self.active = Some(RecvRequest::new(req, slot));
        Ok(())
    }

    /// True if the current round (if any) has completed.
    pub fn is_complete(&self) -> bool {
        self.active
            .as_ref()
            .map(RecvRequest::is_complete)
            .unwrap_or(false)
    }

    /// The current round's request, if a round is active — each re-fire
    /// generation is a fresh request, so continuations and futures
    /// attach per generation.
    pub fn request(&self) -> Option<Request> {
        self.active.as_ref().map(RecvRequest::request)
    }

    /// Wait for the current round and take its payload. Errors if no
    /// round was started.
    pub fn wait(&mut self) -> MpiResult<(Vec<T>, Status)> {
        match self.active.take() {
            Some(recv) => Ok(recv.wait()),
            None => Err(MpiError::Protocol(
                "wait on an unstarted persistent recv".into(),
            )),
        }
    }
}

// -------------------------------------------------------------------
// Persistent point-to-point (raw bytes, zero-copy)
// -------------------------------------------------------------------

/// A persistent raw-bytes send: the payload view is captured by
/// refcount and re-fired without copying — the minimal-overhead path
/// for repeated-transfer benchmarks.
pub struct PersistentSendBytes {
    core: SendCore,
    data: MpfaBytes,
    active: Option<Request>,
}

impl PersistentSendBytes {
    /// Replace the payload fired by subsequent rounds.
    pub fn set_payload(&mut self, data: impl Into<MpfaBytes>) {
        self.data = data.into();
    }

    /// The payload view.
    pub fn payload(&self) -> &MpfaBytes {
        &self.data
    }

    /// `MPI_Start`: fire one round.
    pub fn start(&mut self) -> MpiResult<Request> {
        if let Some(prev) = &self.active {
            if !prev.is_complete() {
                return Err(active_round_err("send"));
            }
        }
        let req = self.core.fire(self.data.clone());
        self.active = Some(req.clone());
        Ok(req)
    }

    /// True if the current round (if any) has completed.
    pub fn is_complete(&self) -> bool {
        self.active
            .as_ref()
            .map(Request::is_complete)
            .unwrap_or(false)
    }

    /// The in-flight round's request, if any.
    pub fn active(&self) -> Option<&Request> {
        self.active.as_ref()
    }
}

/// A persistent raw-bytes receive; each round's payload comes out as a
/// refcounted view.
pub struct PersistentRecvBytes {
    core: RecvCore,
    active: Option<RecvBytesRequest>,
}

impl PersistentRecvBytes {
    /// `MPI_Start`: arm one receive round.
    pub fn start(&mut self) -> MpiResult<()> {
        if let Some(prev) = &self.active {
            if !prev.is_complete() {
                return Err(active_round_err("recv"));
            }
        }
        let (req, slot) = self.core.arm();
        self.active = Some(RecvBytesRequest::new(req, slot));
        Ok(())
    }

    /// True if the current round (if any) has completed.
    pub fn is_complete(&self) -> bool {
        self.active
            .as_ref()
            .map(RecvBytesRequest::is_complete)
            .unwrap_or(false)
    }

    /// The current round's request, if a round is active.
    pub fn request(&self) -> Option<Request> {
        self.active.as_ref().map(RecvBytesRequest::request)
    }

    /// Wait for the current round and take its payload view.
    pub fn wait(&mut self) -> MpiResult<(MpfaBytes, Status)> {
        match self.active.take() {
            Some(recv) => Ok(recv.wait()),
            None => Err(MpiError::Protocol(
                "wait on an unstarted persistent recv".into(),
            )),
        }
    }
}

// -------------------------------------------------------------------
// Partitioned operations
// -------------------------------------------------------------------

/// A partitioned send (`MPI_Psend_init`): one round's buffer split into
/// partitions that compute threads mark ready while the progress
/// stream feeds the wire. The payload is an [`MpfaBytes`] view;
/// partition chunks are slices of it — no copies on the datapath.
pub struct PartitionedSend {
    core: SendCore,
    data: MpfaBytes,
    partitions: usize,
    /// The active round's routing state, shared with the deferred-start
    /// task so `pready` from any thread lands wherever the round is.
    round: Arc<Mutex<PartRoundState>>,
    active: Option<Request>,
}

/// Where the active partitioned round lives (see [`PartitionedSend`]).
enum PartRoundState {
    /// First round, bind still in flight: `pready` calls accumulate in
    /// the backlog and are replayed when the engine round starts.
    AwaitBind { backlog: Vec<(usize, usize)> },
    /// Engine round `id` is live; `pready` goes straight to the VCI.
    Engine(u64),
    /// Fallback one-shot round: nothing to mark ready.
    Fallback,
}

impl PartitionedSend {
    /// Number of partitions per round.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The round payload view.
    pub fn payload(&self) -> &MpfaBytes {
        &self.data
    }

    /// Replace the payload for subsequent rounds. The length must match
    /// the init-time length (the receiver's slot is sized once).
    pub fn set_payload(&mut self, data: impl Into<MpfaBytes>) -> MpiResult<()> {
        let data = data.into();
        if data.len() != self.data.len() {
            return Err(MpiError::Protocol(format!(
                "set_payload: partitioned round is {} bytes, got {}",
                self.data.len(),
                data.len()
            )));
        }
        self.data = data;
        Ok(())
    }

    /// `MPI_Start`: begin one partitioned round with every partition
    /// unready. Nothing is sent until [`PartitionedSend::pready`]; the
    /// request completes once every partition has been handed to the
    /// transport.
    pub fn start(&mut self) -> MpiResult<Request> {
        if let Some(prev) = &self.active {
            if !prev.is_complete() {
                return Err(active_round_err("partitioned send"));
            }
        }
        let (state, req) = match self.core.route() {
            Route::Slot(slot) => {
                self.core.gen += 1;
                let (id, req) = self.core.comm.bundle().vci.persist_part_start(
                    self.core.comm.ptp_ctx(),
                    self.core.dst_ep,
                    slot,
                    self.data.clone(),
                    self.partitions,
                );
                (PartRoundState::Engine(id), req)
            }
            Route::AwaitBind => {
                self.core.gen += 1;
                let state = PartRoundState::AwaitBind {
                    backlog: Vec::new(),
                };
                (state, self.deferred_part_start())
            }
            // Fallback (revoked / dead peer): a one-shot round through
            // the ULFM choke point, born with the right error.
            Route::Fallback => (
                PartRoundState::Fallback,
                self.core.fallback(self.data.clone()),
            ),
        };
        *self.round.lock().unwrap() = state;
        self.active = Some(req.clone());
        Ok(req)
    }

    /// First-round start with the bind still in flight: an async task
    /// polls the binding, starts the engine round when it lands (or
    /// takes the one-shot fallback under a fault/revoke), replays the
    /// `pready` backlog, and forwards the inner request's outcome.
    fn deferred_part_start(&self) -> Request {
        let (req, completer) = Request::pair(self.core.comm.stream());
        let comm = self.core.comm.clone();
        let (key, dst, dst_ep, tag) = (
            self.core.key,
            self.core.dst,
            self.core.dst_ep,
            self.core.tag,
        );
        let data = self.data.clone();
        let partitions = self.partitions;
        let round = self.round.clone();
        let mut completer = Some(completer);
        let mut inner: Option<Request> = None;
        let stream = self.core.comm.stream().clone();
        stream.async_start(move |_t| {
            if inner.is_none() {
                let fault = comm.fault_for(Some(dst)).is_some();
                // Lock order: round mutex, then (inside the VCI calls)
                // the VCI lock — same order `pready_range` uses.
                let mut state = round.lock().unwrap();
                inner = match comm.bundle().vci.persist_binding(&key) {
                    BindState::Bound(slot) if !fault => {
                        let (id, r) = comm.bundle().vci.persist_part_start(
                            comm.ptp_ctx(),
                            dst_ep,
                            slot,
                            data.clone(),
                            partitions,
                        );
                        // Replay pready calls that raced the handshake.
                        if let PartRoundState::AwaitBind { backlog } = &*state {
                            for &(lo, hi) in backlog {
                                comm.bundle().vci.persist_pready(id, lo, hi);
                            }
                        }
                        *state = PartRoundState::Engine(id);
                        Some(r)
                    }
                    BindState::Unbound if !fault => return AsyncPoll::Pending,
                    // Revoked, or anything under a visible fault: the
                    // whole-round fallback (partitions are moot).
                    _ => {
                        *state = PartRoundState::Fallback;
                        Some(comm.isend_on_ctx(comm.ptp_ctx(), data.clone(), dst, tag))
                    }
                };
            }
            let r = inner.as_ref().expect("resolved above");
            if !r.is_complete() {
                return AsyncPoll::Pending;
            }
            let c = completer.take().expect("completed once");
            match r.error() {
                Some(e) => c.fail(e),
                None => c.complete(r.status().unwrap_or_else(Status::empty)),
            }
            AsyncPoll::Done
        });
        req
    }

    /// `MPI_Pready`: partition `p` of the active round is filled and
    /// may be sent. Callable from any thread.
    pub fn pready(&self, p: usize) -> MpiResult<()> {
        self.pready_range(p, p + 1)
    }

    /// `MPI_Pready_range`: partitions `[lo, hi)` are filled and may be
    /// sent. Callable from any thread.
    pub fn pready_range(&self, lo: usize, hi: usize) -> MpiResult<()> {
        if lo >= hi || hi > self.partitions {
            return Err(MpiError::Protocol(format!(
                "pready_range [{lo}, {hi}) out of bounds for {} partitions",
                self.partitions
            )));
        }
        if self.active.is_none() {
            return Err(MpiError::Protocol(
                "MPI_Pready before MPI_Start on a partitioned send".into(),
            ));
        }
        match &mut *self.round.lock().unwrap() {
            // Bind still in flight: queue the mark; the deferred start
            // replays the backlog the moment the engine round exists.
            PartRoundState::AwaitBind { backlog } => backlog.push((lo, hi)),
            PartRoundState::Engine(id) => {
                let id = *id;
                self.core.comm.bundle().vci.persist_pready(id, lo, hi);
            }
            // A fallback round (born-failed one-shot) has no partitions
            // to mark; pready is a no-op so producer threads need no
            // special casing on the failure path.
            PartRoundState::Fallback => {}
        }
        Ok(())
    }

    /// The in-flight round's request, if any.
    pub fn active(&self) -> Option<&Request> {
        self.active.as_ref()
    }
}

/// A partitioned receive (`MPI_Precv_init`): per-partition arrival
/// tracking over a pinned slot. [`PartitionedRecv::parrived`] answers
/// "has partition `p` landed?" without waiting for the whole round.
pub struct PartitionedRecv {
    core: RecvCore,
    partitions: usize,
    flags: Arc<PartFlags>,
    active: Option<RecvBytesRequest>,
}

impl PartitionedRecv {
    /// Number of partitions per round.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// `MPI_Start`: arm one partitioned round (resets every partition's
    /// arrival flag).
    pub fn start(&mut self) -> MpiResult<()> {
        if let Some(prev) = &self.active {
            if !prev.is_complete() {
                return Err(active_round_err("partitioned recv"));
            }
        }
        let (req, slot) = self.core.arm();
        self.active = Some(RecvBytesRequest::new(req, slot));
        Ok(())
    }

    /// `MPI_Parrived`: has partition `p` of the current round fully
    /// landed? Drives one progress call so arrived frames are visible.
    pub fn parrived(&self, p: usize) -> MpiResult<bool> {
        if p >= self.partitions {
            return Err(MpiError::Protocol(format!(
                "parrived: partition {p} out of bounds for {} partitions",
                self.partitions
            )));
        }
        self.core.comm.stream().progress();
        Ok(self.flags.arrived(p))
    }

    /// True if the current round (if any) has completed.
    pub fn is_complete(&self) -> bool {
        self.active
            .as_ref()
            .map(RecvBytesRequest::is_complete)
            .unwrap_or(false)
    }

    /// The current round's request, if a round is active.
    pub fn request(&self) -> Option<Request> {
        self.active.as_ref().map(RecvBytesRequest::request)
    }

    /// Wait for the whole round and take its payload view.
    pub fn wait(&mut self) -> MpiResult<(MpfaBytes, Status)> {
        match self.active.take() {
            Some(recv) => {
                recv.request().wait_result()?;
                Ok(recv.take())
            }
            None => Err(MpiError::Protocol(
                "wait on an unstarted partitioned recv".into(),
            )),
        }
    }
}

// -------------------------------------------------------------------
// Persistent collectives
// -------------------------------------------------------------------

/// A persistent allreduce (`MPI_Allreduce_init`): operator validated
/// once; each `start` runs one round over the live buffer.
pub struct PersistentAllreduce<T: Reducible> {
    comm: Comm,
    data: Vec<T>,
    op: Op,
    active: Option<CollFuture<T>>,
}

impl<T: Reducible> PersistentAllreduce<T> {
    /// The contribution buffer; mutate it between rounds.
    pub fn buffer_mut(&mut self) -> &mut Vec<T> {
        &mut self.data
    }

    /// The contribution buffer (read access).
    pub fn buffer(&self) -> &[T] {
        &self.data
    }

    /// `MPI_Start`: run one allreduce round. Errors if the previous
    /// round has not completed.
    pub fn start(&mut self) -> MpiResult<()> {
        if let Some(prev) = &self.active {
            if !prev.is_complete() {
                return Err(active_round_err("allreduce"));
            }
        }
        self.active = Some(self.comm.iallreduce(&self.data, self.op)?);
        Ok(())
    }

    /// True if the current round (if any) has completed.
    pub fn is_complete(&self) -> bool {
        self.active
            .as_ref()
            .map(CollFuture::is_complete)
            .unwrap_or(false)
    }

    /// Wait for the current round and take the reduced vector.
    pub fn wait(&mut self) -> MpiResult<(Vec<T>, Status)> {
        match self.active.take() {
            Some(fut) => Ok(fut.wait_result()?),
            None => Err(MpiError::Protocol(
                "wait on an unstarted persistent allreduce".into(),
            )),
        }
    }
}

// -------------------------------------------------------------------
// Comm constructors
// -------------------------------------------------------------------

impl Comm {
    /// `MPI_Send_init`: build a persistent send. Validation and routing
    /// happen here; the slot handshake completes on the first `start`.
    pub fn send_init<T: MpiType>(
        &self,
        data: &[T],
        dst: i32,
        tag: i32,
    ) -> MpiResult<PersistentSend<T>> {
        Ok(PersistentSend {
            core: SendCore::init(self, dst, tag)?,
            data: data.to_vec(),
            active: None,
        })
    }

    /// `MPI_Recv_init`: build a persistent receive, pinning a matching
    /// slot (wildcard patterns fall back to the tagged path per round).
    pub fn recv_init<T: MpiType>(
        &self,
        count: usize,
        src: i32,
        tag: i32,
    ) -> MpiResult<PersistentRecv<T>> {
        Ok(PersistentRecv {
            core: RecvCore::init(self, count * T::SIZE, src, tag)?,
            active: None,
        })
    }

    /// `MPI_Send_init` over raw bytes: the payload view is re-fired by
    /// refcount, never copied.
    pub fn send_init_bytes(
        &self,
        data: impl Into<MpfaBytes>,
        dst: i32,
        tag: i32,
    ) -> MpiResult<PersistentSendBytes> {
        Ok(PersistentSendBytes {
            core: SendCore::init(self, dst, tag)?,
            data: data.into(),
            active: None,
        })
    }

    /// `MPI_Recv_init` over raw bytes.
    pub fn recv_init_bytes(
        &self,
        capacity: usize,
        src: i32,
        tag: i32,
    ) -> MpiResult<PersistentRecvBytes> {
        Ok(PersistentRecvBytes {
            core: RecvCore::init(self, capacity, src, tag)?,
            active: None,
        })
    }

    /// `MPI_Psend_init`: build a partitioned send over `data` split into
    /// `partitions` equal parts (the last may be shorter).
    pub fn psend_init(
        &self,
        data: impl Into<MpfaBytes>,
        partitions: usize,
        dst: i32,
        tag: i32,
    ) -> MpiResult<PartitionedSend> {
        let data = data.into();
        check_partitioning(data.len(), partitions)?;
        Ok(PartitionedSend {
            core: SendCore::init(self, dst, tag)?,
            data,
            partitions,
            round: Arc::new(Mutex::new(PartRoundState::Fallback)),
            active: None,
        })
    }

    /// `MPI_Precv_init`: build a partitioned receive of `total` bytes in
    /// `partitions` parts. Wildcards are not allowed (per-partition
    /// delivery needs a pinned slot).
    pub fn precv_init(
        &self,
        total: usize,
        partitions: usize,
        src: i32,
        tag: i32,
    ) -> MpiResult<PartitionedRecv> {
        check_partitioning(total, partitions)?;
        if src == ANY_SOURCE || tag == ANY_TAG {
            return Err(MpiError::Protocol(
                "precv_init: wildcard source/tag cannot be slot-pinned".into(),
            ));
        }
        self.world_rank(src)?;
        if tag < 0 {
            return Err(MpiError::InvalidTag(tag));
        }
        let key = PersistKey {
            ctx: self.ptp_ctx(),
            src_rank: src,
            tag,
        };
        let Some((slot, flags)) =
            self.bundle()
                .vci
                .persist_precv_init(key, total, partitions, self.ep_of(src))
        else {
            return Err(MpiError::Protocol(format!(
                "precv_init: a persistent receive for (src {src}, tag {tag}) \
                 already exists on this communicator"
            )));
        };
        Ok(PartitionedRecv {
            core: RecvCore {
                comm: self.clone(),
                capacity: total,
                src,
                tag,
                slot: Some(slot),
            },
            partitions,
            flags,
            active: None,
        })
    }

    /// `MPI_Allreduce_init`: build a persistent allreduce, validating
    /// the operator/datatype combination once.
    pub fn allreduce_init<T: Reducible>(
        &self,
        data: &[T],
        op: Op,
    ) -> MpiResult<PersistentAllreduce<T>> {
        op.apply::<T>(&mut [], &[])?;
        Ok(PersistentAllreduce {
            comm: self.clone(),
            data: data.to_vec(),
            op,
            active: None,
        })
    }
}

fn check_partitioning(total: usize, partitions: usize) -> MpiResult<()> {
    if total == 0 || partitions == 0 {
        return Err(MpiError::Protocol(format!(
            "partitioned operation needs a non-empty buffer and at least one \
             partition (got {total} bytes, {partitions} partitions)"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::collectives::testutil::run_ranks;
    use crate::op::Op;

    #[test]
    fn persistent_pair_runs_many_rounds() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                let mut ps = comm.send_init(&[0i32; 4], 1, 7).unwrap();
                for round in 0..20 {
                    ps.buffer_mut().iter_mut().for_each(|v| *v = round);
                    let req = ps.start().unwrap();
                    req.wait();
                }
                Vec::new()
            } else {
                let mut pr = comm.recv_init::<i32>(4, 0, 7).unwrap();
                let mut got = Vec::new();
                for _ in 0..20 {
                    pr.start().unwrap();
                    let (data, _) = pr.wait().unwrap();
                    got.push(data[0]);
                }
                got
            }
        });
        assert_eq!(results[1], (0..20).collect::<Vec<i32>>());
    }

    #[test]
    fn double_start_is_erroneous() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                // Rendezvous-sized: the round cannot complete before the
                // peer arms, so the immediate second start must fail.
                let mut ps = comm.send_init(&vec![0u8; 100_000], 1, 1).unwrap();
                let first = ps.start().unwrap();
                let err = ps.start().is_err();
                // Complete the round before exiting (MPI semantics: never
                // abandon an active send).
                first.wait();
                // After completion, a restart is legal again.
                let second = ps.start().unwrap();
                second.wait();
                err
            } else {
                let mut pr = comm.recv_init::<u8>(100_000, 0, 1).unwrap();
                for _ in 0..2 {
                    pr.start().unwrap();
                    let (data, _) = pr.wait().unwrap();
                    assert_eq!(data.len(), 100_000);
                }
                true
            }
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn recv_wait_without_start_errors() {
        let results = run_ranks(1, |proc| {
            let comm = proc.world_comm();
            let mut pr = comm.recv_init::<i32>(1, 0, 0).unwrap();
            pr.wait().is_err()
        });
        assert!(results[0]);
    }

    #[test]
    fn init_validates_arguments_once() {
        let results = run_ranks(1, |proc| {
            let comm = proc.world_comm();
            assert!(comm.send_init(&[1i32], 5, 0).is_err());
            assert!(comm.send_init(&[1i32], 0, -3).is_err());
            assert!(comm.recv_init::<i32>(1, 9, 0).is_err());
            assert!(comm.psend_init(vec![0u8; 8], 0, 0, 0).is_err());
            assert!(comm.psend_init(Vec::<u8>::new(), 2, 0, 0).is_err());
            assert!(comm.precv_init(8, 2, crate::comm::ANY_SOURCE, 0).is_err());
            true
        });
        assert!(results[0]);
    }

    #[test]
    fn duplicate_init_on_same_key_is_rejected() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                let _a = comm.send_init(&[1u8], 1, 3).unwrap();
                // Same (dst, tag): ambiguous to slot-address.
                assert!(comm.send_init(&[1u8], 1, 3).is_err());
                // Different tag is fine.
                let _b = comm.send_init(&[1u8], 1, 4).unwrap();
            } else {
                let _a = comm.recv_init::<u8>(1, 0, 3).unwrap();
                assert!(comm.recv_init::<u8>(1, 0, 3).is_err());
            }
            // Barrier so neither rank tears down its descriptors (and
            // slots) while the peer still asserts against them.
            comm.barrier().unwrap();
            true
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn dropped_descriptor_key_is_reusable() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                {
                    let mut ps = comm.send_init(&[7i32], 1, 9).unwrap();
                    ps.start().unwrap().wait();
                }
                // The first descriptor is gone; the key can be claimed
                // again and re-fires against the peer's (new) slot.
                let mut ps = comm.send_init(&[8i32], 1, 9).unwrap();
                ps.start().unwrap().wait();
                Vec::new()
            } else {
                let mut got = Vec::new();
                {
                    let mut pr = comm.recv_init::<i32>(1, 0, 9).unwrap();
                    pr.start().unwrap();
                    got.push(pr.wait().unwrap().0[0]);
                }
                let mut pr = comm.recv_init::<i32>(1, 0, 9).unwrap();
                pr.start().unwrap();
                got.push(pr.wait().unwrap().0[0]);
                got
            }
        });
        assert_eq!(results[1], vec![7, 8]);
    }

    #[test]
    fn wildcard_recv_init_takes_tagged_path() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                // A wildcard persistent recv consults the matcher each
                // round, so an ordinary tagged send pairs with it (a
                // slot-addressed persistent send would not — see the
                // pairing contract in the module docs).
                comm.send(&[41i32], 1, 5).unwrap();
                0
            } else {
                let mut pr = comm
                    .recv_init::<i32>(1, crate::comm::ANY_SOURCE, crate::comm::ANY_TAG)
                    .unwrap();
                pr.start().unwrap();
                pr.wait().unwrap().0[0]
            }
        });
        assert_eq!(results[1], 41);
    }

    #[test]
    fn partitioned_round_trip_with_pready_range() {
        const PARTS: usize = 8;
        const BYTES: usize = 8 * 1024;
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                let payload: Vec<u8> = (0..BYTES).map(|i| (i % 251) as u8).collect();
                let mut ps = comm.psend_init(payload, PARTS, 1, 2).unwrap();
                let req = ps.start().unwrap();
                // Mark partitions ready out of order, in two ranges.
                ps.pready_range(4, 8).unwrap();
                ps.pready_range(0, 4).unwrap();
                req.wait();
                true
            } else {
                let mut pr = comm.precv_init(BYTES, PARTS, 0, 2).unwrap();
                pr.start().unwrap();
                let (data, st) = pr.wait().unwrap();
                assert_eq!(st.bytes, BYTES);
                assert!(data.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
                // After the round, every partition reads arrived.
                (0..PARTS).all(|p| pr.parrived(p).unwrap())
            }
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn parrived_tracks_partitions_before_round_completes() {
        const PARTS: usize = 4;
        const BYTES: usize = 4096;
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                let mut ps = comm.psend_init(vec![9u8; BYTES], PARTS, 1, 0).unwrap();
                let req = ps.start().unwrap();
                ps.pready(2).unwrap();
                // Hold partitions 0, 1, 3 back until the peer confirms
                // partition 2 arrived alone.
                let (_, go) = comm.recv::<u8>(1, 1, 1).unwrap();
                assert_eq!(go.bytes, 1);
                ps.pready_range(0, 2).unwrap();
                ps.pready(3).unwrap();
                req.wait();
                true
            } else {
                let mut pr = comm.precv_init(BYTES, PARTS, 0, 0).unwrap();
                pr.start().unwrap();
                // Only partition 2 was released: it must arrive while
                // the others stay un-arrived.
                while !pr.parrived(2).unwrap() {}
                assert!(!pr.parrived(0).unwrap());
                assert!(!pr.parrived(1).unwrap());
                assert!(!pr.parrived(3).unwrap());
                assert!(!pr.is_complete());
                comm.send(&[1u8], 0, 1).unwrap();
                let (data, _) = pr.wait().unwrap();
                assert_eq!(data.len(), BYTES);
                true
            }
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn pready_before_start_and_out_of_bounds_error() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                let mut ps = comm.psend_init(vec![1u8; 64], 4, 1, 0).unwrap();
                assert!(ps.pready(0).is_err(), "pready before start");
                let req = ps.start().unwrap();
                assert!(ps.pready(4).is_err(), "partition out of bounds");
                assert!(ps.pready_range(2, 2).is_err(), "empty range");
                ps.pready_range(0, 4).unwrap();
                req.wait();
            } else {
                let mut pr = comm.precv_init(64, 4, 0, 0).unwrap();
                assert!(pr.parrived(4).is_err(), "partition out of bounds");
                pr.start().unwrap();
                pr.wait().unwrap();
            }
            true
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn persistent_allreduce_reruns_with_fresh_contributions() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let mut pa = comm
                .allreduce_init(&[0i64, comm.rank() as i64], Op::Sum)
                .unwrap();
            let mut sums = Vec::new();
            for round in 0..5i64 {
                pa.buffer_mut()[0] = round * (comm.rank() as i64 + 1);
                pa.start().unwrap();
                let (out, _) = pa.wait().unwrap();
                sums.push(out);
            }
            sums
        });
        for (round, want0) in (0..5i64).map(|r| (r as usize, r * 6)) {
            // Σ r*(rank+1) = r*(1+2+3); Σ rank = 0+1+2.
            assert_eq!(results[0][round], vec![want0, 3]);
            assert_eq!(results[0][round], results[1][round]);
            assert_eq!(results[0][round], results[2][round]);
        }
    }

    #[test]
    fn persistent_bytes_pair_refires_views() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                let mut ps = comm.send_init_bytes(vec![0u8; 512], 1, 11).unwrap();
                for round in 0..10u8 {
                    ps.set_payload(vec![round; 512]);
                    ps.start().unwrap().wait();
                }
                Vec::new()
            } else {
                let mut pr = comm.recv_init_bytes(512, 0, 11).unwrap();
                let mut got = Vec::new();
                for _ in 0..10 {
                    pr.start().unwrap();
                    let (bytes, st) = pr.wait().unwrap();
                    assert_eq!(st.bytes, 512);
                    got.push(bytes[0]);
                }
                got
            }
        });
        assert_eq!(results[1], (0..10u8).collect::<Vec<u8>>());
    }

    #[test]
    fn refires_complete_into_continuations_per_generation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                let mut ps = comm.send_init(&[5u32; 2], 1, 0).unwrap();
                for _ in 0..8 {
                    ps.start().unwrap().wait();
                }
                0
            } else {
                let fired = Arc::new(AtomicU64::new(0));
                let mut pr = comm.recv_init::<u32>(2, 0, 0).unwrap();
                for gen in 0..8 {
                    pr.start().unwrap();
                    // Each re-fire generation is a fresh request: a
                    // continuation attached per round fires per round.
                    if let Some(active) = pr.active.as_ref() {
                        let fired = fired.clone();
                        active.request().on_complete(move |_| {
                            fired.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    let (data, _) = pr.wait().unwrap();
                    assert_eq!(data, vec![5u32; 2]);
                    // Continuations dispatch on the stream's next poll,
                    // not inline with completion — drive progress until
                    // this generation's callback lands.
                    while fired.load(Ordering::Relaxed) <= gen {
                        comm.stream().progress();
                    }
                }
                fired.load(Ordering::Relaxed)
            }
        });
        assert_eq!(results[1], 8);
    }
}
