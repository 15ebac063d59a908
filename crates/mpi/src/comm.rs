//! Communicators: the user-facing handle for point-to-point messaging and
//! communicator management.
//!
//! A [`Comm`] is a *per-rank* handle (as in MPI: each process holds its own
//! handle to the same logical communicator). It knows its context id, its
//! group (communicator rank → world rank), the VCI carrying its traffic,
//! and the stream serving that VCI.
//!
//! * [`Comm::dup`] / [`Comm::split`] — communicator management.
//! * [`Comm::with_stream`] — `MPIX_Stream_comm_create`: bind a duplicate to
//!   a user stream with a dedicated VCI (paper §3.1).
//! * [`Comm::isend`] / [`Comm::irecv`] and friends — typed point-to-point.
//! * Collectives live in [`crate::collectives`] as further `impl Comm`
//!   blocks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpfa_core::{Request, RequestError, Status, Stream};
use mpfa_transport::MpfaBytes;

use crate::datatype::{to_bytes, MpiType};
use crate::error::{MpiError, MpiResult};
use crate::matching;
use crate::proc::{Proc, VciBundle};
use crate::recv::{RecvBytesRequest, RecvRequest};
use crate::resilience::Resilience;
use crate::wire::MsgHeader;

/// `MPI_ANY_SOURCE`.
pub const ANY_SOURCE: i32 = matching::ANY_SOURCE;
/// `MPI_ANY_TAG`.
pub const ANY_TAG: i32 = matching::ANY_TAG;

/// Exchange kinds for the world agreement table.
const EX_SPLIT: u8 = 1;

/// A communicator handle for one rank.
#[derive(Clone)]
pub struct Comm {
    pub(crate) proc: Proc,
    pub(crate) bundle: Arc<VciBundle>,
    pub(crate) vci_idx: usize,
    /// Base context id; the wire uses `2*ctx` for point-to-point and
    /// `2*ctx + 1` for collectives (MPICH's dual-context scheme).
    pub(crate) ctx: u64,
    /// Communicator rank → world rank.
    pub(crate) group: Arc<Vec<usize>>,
    pub(crate) rank: i32,
    /// Creation counter for deriving child context keys (dup/split/
    /// with_stream must be called collectively and in the same order on
    /// every rank, per MPI semantics — this counter then agrees).
    pub(crate) epoch: Arc<AtomicU64>,
    /// Collective sequence number (same same-order requirement).
    pub(crate) coll_seq: Arc<AtomicU64>,
    /// Agreement sequence number (`agree`/`shrink` calls must likewise be
    /// collective and same-order).
    pub(crate) agree_seq: Arc<AtomicU64>,
    /// ULFM machinery, cached at construction (`None` when the proc
    /// never called `enable_resilience`, keeping the fast path lock-free;
    /// enable resilience *before* creating communicator handles).
    pub(crate) resil: Option<Arc<Resilience>>,
}

impl Comm {
    /// The world communicator of `proc`.
    pub(crate) fn world(proc: Proc) -> Comm {
        let bundle = proc.bundle(0).expect("VCI 0 exists");
        let group: Arc<Vec<usize>> = Arc::new((0..proc.size()).collect());
        let rank = proc.rank() as i32;
        let resil = proc.resilience();
        let comm = Comm {
            proc,
            bundle,
            vci_idx: 0,
            ctx: 0,
            group,
            rank,
            epoch: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            agree_seq: Arc::new(AtomicU64::new(0)),
            resil,
        };
        comm.register_resilience();
        comm
    }

    /// This rank within the communicator (`MPI_Comm_rank`).
    pub fn rank(&self) -> i32 {
        self.rank
    }

    /// Number of ranks (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// The stream serving this communicator's traffic.
    pub fn stream(&self) -> &Stream {
        self.bundle.vci.stream()
    }

    /// The owning per-rank runtime context.
    pub fn proc(&self) -> &Proc {
        &self.proc
    }

    /// Base context id (diagnostics).
    pub fn context_id(&self) -> u64 {
        self.ctx
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank(&self, r: i32) -> MpiResult<usize> {
        self.check_rank(r)?;
        Ok(self.group[r as usize])
    }

    /// The communicator's group: communicator rank → world rank.
    pub fn group(&self) -> &[usize] {
        &self.group
    }

    pub(crate) fn check_rank(&self, r: i32) -> MpiResult<()> {
        if r < 0 || r as usize >= self.group.len() {
            return Err(MpiError::InvalidRank {
                rank: r,
                size: self.group.len(),
            });
        }
        Ok(())
    }

    fn check_tag(&self, tag: i32) -> MpiResult<()> {
        if tag < 0 {
            return Err(MpiError::InvalidTag(tag));
        }
        Ok(())
    }

    /// Wire endpoint of communicator rank `r`.
    pub(crate) fn ep_of(&self, r: i32) -> usize {
        self.proc
            .world()
            .config()
            .ep_index(self.group[r as usize], self.vci_idx)
    }

    pub(crate) fn ptp_ctx(&self) -> u64 {
        self.ctx * 2
    }

    pub(crate) fn coll_ctx(&self) -> u64 {
        self.ctx * 2 + 1
    }

    pub(crate) fn bundle(&self) -> &Arc<VciBundle> {
        &self.bundle
    }

    // ---------------------------------------------------------------
    // Point-to-point
    // ---------------------------------------------------------------

    /// Nonblocking typed send (`MPI_Isend`). The data is captured at call
    /// time; the request completes per the message mode of Figure 1.
    pub fn isend<T: MpiType>(&self, data: &[T], dst: i32, tag: i32) -> MpiResult<Request> {
        self.check_rank(dst)?;
        self.check_tag(tag)?;
        Ok(self.isend_on_ctx(self.ptp_ctx(), to_bytes(data), dst, tag))
    }

    /// Nonblocking raw-bytes send. Accepts an owned buffer or an
    /// [`MpfaBytes`] view; either way the payload is captured by
    /// refcount, not copied.
    pub fn isend_bytes(
        &self,
        data: impl Into<MpfaBytes>,
        dst: i32,
        tag: i32,
    ) -> MpiResult<Request> {
        self.check_rank(dst)?;
        self.check_tag(tag)?;
        Ok(self.isend_on_ctx(self.ptp_ctx(), data, dst, tag))
    }

    /// Nonblocking raw-bytes receive whose payload comes out as a
    /// refcounted view — the zero-copy receive path. On a shared-memory
    /// transport a large payload completes as a window into the peer's
    /// ring (released when the view drops); no typed conversion, no
    /// flatten copy.
    pub fn irecv_bytes(&self, capacity: usize, src: i32, tag: i32) -> MpiResult<RecvBytesRequest> {
        if src != ANY_SOURCE {
            self.check_rank(src)?;
        }
        if tag != ANY_TAG {
            self.check_tag(tag)?;
        }
        let (req, slot) = self.irecv_on_ctx(self.ptp_ctx(), capacity, src, tag);
        Ok(RecvBytesRequest::new(req, slot))
    }

    /// Blocking typed send (`MPI_Send`): initiation + wait driving this
    /// communicator's stream.
    pub fn send<T: MpiType>(&self, data: &[T], dst: i32, tag: i32) -> MpiResult<Status> {
        Ok(self.isend(data, dst, tag)?.wait())
    }

    /// Nonblocking typed receive of up to `count` elements (`MPI_Irecv`).
    pub fn irecv<T: MpiType>(&self, count: usize, src: i32, tag: i32) -> MpiResult<RecvRequest<T>> {
        if src != ANY_SOURCE {
            self.check_rank(src)?;
        }
        if tag != ANY_TAG {
            self.check_tag(tag)?;
        }
        let (req, slot) = self.irecv_on_ctx(self.ptp_ctx(), count * T::SIZE, src, tag);
        Ok(RecvRequest::new(req, slot))
    }

    /// Blocking typed receive (`MPI_Recv`).
    pub fn recv<T: MpiType>(
        &self,
        count: usize,
        src: i32,
        tag: i32,
    ) -> MpiResult<(Vec<T>, Status)> {
        Ok(self.irecv::<T>(count, src, tag)?.wait())
    }

    /// `MPI_Iprobe`: check for a matching unexpected message, returning
    /// `(source, tag, bytes)` without receiving it. Drives one progress
    /// call so arrived packets become visible.
    pub fn iprobe(&self, src: i32, tag: i32) -> MpiResult<Option<(i32, i32, usize)>> {
        if src != ANY_SOURCE {
            self.check_rank(src)?;
        }
        if tag != ANY_TAG {
            self.check_tag(tag)?;
        }
        self.stream().progress();
        Ok(self.bundle.vci.iprobe(self.ptp_ctx(), src, tag))
    }

    /// `MPI_Probe`: block (driving this communicator's stream) until a
    /// matching message is pending, returning `(source, tag, bytes)`
    /// without receiving it.
    pub fn probe(&self, src: i32, tag: i32) -> MpiResult<(i32, i32, usize)> {
        loop {
            if let Some(hit) = self.iprobe(src, tag)? {
                return Ok(hit);
            }
        }
    }

    /// Combined send+receive (`MPI_Sendrecv`): both initiated before
    /// either is waited on — the idiom that avoids the head-to-head
    /// deadlock of paired blocking calls.
    pub fn sendrecv<T: MpiType>(
        &self,
        send_data: &[T],
        dst: i32,
        send_tag: i32,
        recv_count: usize,
        src: i32,
        recv_tag: i32,
    ) -> MpiResult<(Vec<T>, Status)> {
        let sreq = self.isend(send_data, dst, send_tag)?;
        let rreq = self.irecv::<T>(recv_count, src, recv_tag)?;
        let out = rreq.wait();
        sreq.wait();
        Ok(out)
    }

    /// Internal: send bytes on an explicit wire context (used by both the
    /// point-to-point and collective paths).
    ///
    /// This is the choke point for the ULFM error path: every comm-level
    /// send — including collective-internal rounds — is refused here once
    /// the communicator is revoked or the destination failed, so waits on
    /// the returned request terminate with an error instead of spinning.
    pub(crate) fn isend_on_ctx(
        &self,
        ctx: u64,
        data: impl Into<MpfaBytes>,
        dst: i32,
        tag: i32,
    ) -> Request {
        if let Some(err) = self.fault_for(Some(dst)) {
            return Request::failed(self.stream(), err);
        }
        let hdr = MsgHeader {
            context_id: ctx,
            src_rank: self.rank,
            tag,
        };
        let req = self.bundle.vci.isend_bytes(self.ep_of(dst), hdr, data);
        self.recheck_fault(Some(dst));
        req
    }

    /// Internal: receive bytes on an explicit wire context (same ULFM
    /// choke point as [`Comm::isend_on_ctx`]).
    pub(crate) fn irecv_on_ctx(
        &self,
        ctx: u64,
        capacity: usize,
        src: i32,
        tag: i32,
    ) -> (Request, matching::RecvSlot) {
        let known_src = (src != ANY_SOURCE).then_some(src);
        if let Some(err) = self.fault_for(known_src) {
            return (
                Request::failed(self.stream(), err),
                matching::RecvSlot::new(),
            );
        }
        let out = self.bundle.vci.irecv_bytes(ctx, src, tag, capacity);
        self.recheck_fault(known_src);
        out
    }

    /// The error a fresh operation involving `peer` (communicator rank)
    /// must be born with, if any.
    pub(crate) fn fault_for(&self, peer: Option<i32>) -> Option<RequestError> {
        let r = self.resil.as_ref()?;
        if r.is_revoked(self.ctx) {
            return Some(RequestError::Revoked);
        }
        let p = peer?;
        let w = self.group[p as usize];
        r.detector()
            .is_failed(w)
            .then_some(RequestError::PeerFailed { rank: w as i32 })
    }

    /// The error a fresh *collective* on this comm must be born with, if
    /// any (initiation guard used by the schedule constructors; peer
    /// failures surface later through the schedule's stage checks).
    pub(crate) fn coll_fault(&self) -> Option<RequestError> {
        self.fault_for(None)
    }

    /// Post-insert recheck closing the detect/post race: an operation
    /// checked clean in [`Comm::fault_for`], was inserted into the
    /// protocol tables, and the failure sweep may have run *between* the
    /// two — in which case the sweep missed it and nothing would ever
    /// fail it. If the fault is visible now, re-run the sweep (which
    /// sees the inserted entry); if it becomes visible later, the
    /// epoch-triggered sweep catches the entry instead.
    fn recheck_fault(&self, peer: Option<i32>) {
        if let Some(r) = &self.resil {
            if self.fault_for(peer).is_some() {
                r.sweep_now();
            }
        }
    }

    /// Register this handle's context/group/VCI with the resilience
    /// layer so the failure sweep can fail its outstanding operations.
    pub(crate) fn register_resilience(&self) {
        if let Some(r) = &self.resil {
            r.register_comm(
                self.ctx,
                self.group.clone(),
                self.bundle.vci.clone(),
                self.vci_idx,
            );
        }
    }

    // ---------------------------------------------------------------
    // Communicator management
    // ---------------------------------------------------------------

    /// `MPI_Comm_dup`: a new communicator with the same group and a fresh
    /// context. Collective: every rank of the communicator must call, in
    /// the same order relative to other creations on this communicator.
    pub fn dup(&self) -> MpiResult<Comm> {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel);
        let key = epoch << 32; // color field zero
        let ctx = self
            .proc
            .world()
            .inner
            .registry
            .lock()
            .child_ctx(self.ctx, key);
        let vci_idx = self.proc.world().inner.registry.lock().vci_for_ctx(
            ctx,
            false,
            self.vci_idx,
            self.proc.world().config().max_vcis,
        )?;
        let bundle = self
            .proc
            .bundle(vci_idx)
            .ok_or_else(|| MpiError::Protocol("dup: VCI bundle missing".into()))?;
        let comm = Comm {
            proc: self.proc.clone(),
            bundle,
            vci_idx,
            ctx,
            group: self.group.clone(),
            rank: self.rank,
            epoch: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            agree_seq: Arc::new(AtomicU64::new(0)),
            resil: self.resil.clone(),
        };
        comm.register_resilience();
        Ok(comm)
    }

    /// `MPIX_Stream_comm_create`: duplicate this communicator onto a user
    /// stream with a dedicated VCI. Collective; every rank passes its own
    /// local stream.
    pub fn with_stream(&self, stream: &Stream) -> MpiResult<Comm> {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel);
        let key = epoch << 32;
        let world = self.proc.world().clone();
        let ctx = world.inner.registry.lock().child_ctx(self.ctx, key);
        let vci_idx = world.inner.registry.lock().vci_for_ctx(
            ctx,
            true,
            self.vci_idx,
            world.config().max_vcis,
        )?;
        let bundle = self.proc.attach_vci(vci_idx, stream)?;
        let comm = Comm {
            proc: self.proc.clone(),
            bundle,
            vci_idx,
            ctx,
            group: self.group.clone(),
            rank: self.rank,
            epoch: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            agree_seq: Arc::new(AtomicU64::new(0)),
            resil: self.resil.clone(),
        };
        comm.register_resilience();
        Ok(comm)
    }

    /// `MPI_Comm_split`: partition by `color`, order by `(key, old rank)`.
    /// Collective over the communicator. `color < 0` (≙ `MPI_UNDEFINED`)
    /// yields `None`.
    pub fn split(&self, color: i32, key: i32) -> MpiResult<Option<Comm>> {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel);
        let world = self.proc.world().clone();
        // Exchange (color, key, world_rank) among the parent group.
        let contributions = world.exchange(
            (self.ctx, epoch, EX_SPLIT),
            self.size(),
            self.rank as usize,
            vec![
                color as i64,
                key as i64,
                self.group[self.rank as usize] as i64,
            ],
        );
        if color < 0 {
            return Ok(None);
        }
        // Members of my color, ordered by (key, parent rank).
        let mut members: Vec<(i64, usize, usize)> = contributions
            .iter()
            .enumerate()
            .filter(|(_, c)| c[0] == color as i64)
            .map(|(parent_rank, c)| (c[1], parent_rank, c[2] as usize))
            .collect();
        members.sort();
        let group: Vec<usize> = members.iter().map(|(_, _, wr)| *wr).collect();
        let my_world = self.group[self.rank as usize];
        let rank = group
            .iter()
            .position(|&wr| wr == my_world)
            .expect("self in split group") as i32;

        let ctx_key = (epoch << 32) | (color as u32 as u64);
        let ctx = world.inner.registry.lock().child_ctx(self.ctx, ctx_key);
        let vci_idx = world.inner.registry.lock().vci_for_ctx(
            ctx,
            false,
            self.vci_idx,
            world.config().max_vcis,
        )?;
        let bundle = self
            .proc
            .bundle(vci_idx)
            .ok_or_else(|| MpiError::Protocol("split: VCI bundle missing".into()))?;
        let comm = Comm {
            proc: self.proc.clone(),
            bundle,
            vci_idx,
            ctx,
            group: Arc::new(group),
            rank,
            epoch: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            agree_seq: Arc::new(AtomicU64::new(0)),
            resil: self.resil.clone(),
        };
        comm.register_resilience();
        Ok(Some(comm))
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("ctx", &self.ctx)
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("vci", &self.vci_idx)
            .finish()
    }
}

#[cfg(test)]
mod tests {

    use crate::collectives::testutil::run_ranks;

    #[test]
    fn world_comm_identity_group() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            assert_eq!(comm.group(), &[0, 1, 2, 3]);
            assert_eq!(comm.world_rank(comm.rank()).unwrap(), proc.rank());
            (comm.rank(), comm.size())
        });
        for (r, (rank, size)) in results.iter().enumerate() {
            assert_eq!(*rank, r as i32);
            assert_eq!(*size, 4);
        }
    }

    #[test]
    fn split_group_translation() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            // Odd ranks only, reverse-ordered by key.
            let color = if proc.rank() % 2 == 1 { 0 } else { -1 };
            let sub = comm.split(color, -(proc.rank() as i32)).unwrap();
            sub.map(|s| (s.rank(), s.group().to_vec()))
        });
        assert!(results[0].is_none());
        assert!(results[2].is_none());
        // key = -world_rank: rank 3 sorts first.
        let (r1, g1) = results[1].clone().unwrap();
        let (r3, g3) = results[3].clone().unwrap();
        assert_eq!(g1, vec![3, 1]);
        assert_eq!(g3, vec![3, 1]);
        assert_eq!(r1, 1);
        assert_eq!(r3, 0);
    }

    #[test]
    fn probe_blocks_until_message() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            if comm.rank() == 0 {
                // Delay, then send.
                mpfa_core::spin::busy_wait(0.002);
                comm.send(&[1u8; 10], 1, 4).unwrap();
                0
            } else {
                let (src, tag, bytes) = comm.probe(0, 4).unwrap();
                assert_eq!((src, tag, bytes), (0, 4, 10));
                let (data, _) = comm.recv::<u8>(10, 0, 4).unwrap();
                data.len()
            }
        });
        assert_eq!(results[1], 10);
    }

    #[test]
    fn dup_preserves_group_and_rank() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let dup = comm.dup().unwrap();
            assert_eq!(dup.rank(), comm.rank());
            assert_eq!(dup.group(), comm.group());
            assert_ne!(dup.context_id(), comm.context_id());
            // Messages on dup do not match comm.
            true
        });
        assert!(results.iter().all(|&ok| ok));
    }
}
