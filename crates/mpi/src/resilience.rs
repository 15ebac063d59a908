//! ULFM-style fault tolerance: the failure detector wired into the MPI
//! layer, plus `Comm::revoke` / `Comm::shrink` / `Comm::agree`.
//!
//! The paper's argument is that explicit progress turns MPI-adjacent
//! machinery into ordinary user-space tasks. This module is the
//! demonstration for fault tolerance: the failure detector
//! ([`mpfa_resil::FailureDetector`]) and the resilience engine below are
//! both `MPIX_Async` tasks on the rank's default stream, collated with
//! the protocol hooks that move the messages whose peers they watch.
//!
//! # Anatomy
//!
//! * **detection** — the detector watches this rank's transport view;
//!   its epoch counter tells the resilience task when to *sweep*:
//!   fail every outstanding send/receive involving a newly dead rank
//!   (`RequestError::PeerFailed`), so `wait`/`wait_all` terminate with
//!   errors instead of spinning.
//! * **control plane** — a reserved wire context
//!   ([`ReservedCtx::ResilCtrl`], claimed from the [`crate::reserved`]
//!   registry, never allocated to a communicator) carries revoke
//!   notices, failure gossip, and the agreement protocol. Control
//!   messages go through a [`CtrlPort`]: peers addressed by *world*
//!   rank on VCI 0, sends buffered (born-complete, no TX tracking), so
//!   the control plane keeps working while data-plane requests are
//!   failing.
//! * **recovery ops** — [`Comm::revoke`] (flood-propagated, idempotent),
//!   [`Comm::agree`] (fault-tolerant boolean AND), [`Comm::shrink`]
//!   (agree on the failed set, rebuild the communicator without it).
//!   Agreement runs as a user-level collective over the control plane —
//!   the same "collectives from outside MPI" shape as the paper's
//!   Listing 1.8 allreduce.
//!
//! # Model and limitations
//!
//! Fail-stop only: a failed rank never comes back, the failure set only
//! grows, and detection has no false positives. The agreement protocol
//! elects the lowest-ranked alive member as coordinator; if a
//! coordinator dies *while broadcasting verdicts*, ranks that already
//! returned will not re-participate and stragglers time out (real ULFM
//! uses the ERA protocol to close this window). Receives posted with
//! `ANY_SOURCE` are deliberately not failed by peer death — any sender
//! may still satisfy them; `revoke` is the operation that drains
//! everything. See `docs/RESILIENCE.md`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::{wtime, AsyncPoll, Request, RequestError};
use mpfa_resil::{DetectorConfig, FailureDetector};

use crate::comm::Comm;
use crate::error::{MpiError, MpiResult};
use crate::matching::{RecvSlot, ANY_SOURCE};
use crate::proc::Proc;
use crate::reserved::{CtrlPort, ReservedCtx};
use crate::vci::Vci;
use crate::world::World;

/// Control tag: communicator revoke notice. Payload: the revoked base
/// context id, little-endian u64.
const CTRL_TAG_REVOKE: i32 = 1;

/// Control tag: failure gossip. Payload: failed world ranks as
/// little-endian u32s. Keeps detectors convergent even when evidence is
/// asymmetric (e.g. a manual `report_failure` on one rank).
const CTRL_TAG_FAILURE: i32 = 2;

/// Sub-tag of a coordination verdict (attempt-independent, so a
/// participant that restarts can still match a verdict the coordinator
/// already sent). Attempt numbers occupy `0..=0xFD`.
const SUB_VERDICT: u32 = 0xFE;

/// Deadline for one `agree`/`shrink` call; coordination that cannot
/// converge (see the coordinator-death limitation) errors out instead
/// of hanging forever.
const COORDINATE_TIMEOUT_S: f64 = 30.0;

/// Tag for one coordination message. High bit `1 << 30` keeps these
/// disjoint from [`CTRL_TAG_REVOKE`]/[`CTRL_TAG_FAILURE`]; the fields
/// fold in the communicator context, the per-comm agreement sequence,
/// and the attempt number (or [`SUB_VERDICT`]).
fn coord_tag(ctx: u64, seq: u64, sub: u32) -> i32 {
    (1 << 30) | (((ctx & 0xfff) as i32) << 18) | (((seq & 0x3ff) as i32) << 8) | sub as i32
}

/// What the failure sweep needs to know about one registered comm.
#[derive(Clone)]
struct CommReg {
    ctx: u64,
    group: Arc<Vec<usize>>,
    vci: Arc<Vci>,
    vci_idx: usize,
}

/// Per-rank ULFM engine: owns the failure detector, the control plane,
/// and the sweep that fails outstanding requests. Created by
/// [`Proc::enable_resilience`]; communicator handles cache it.
pub struct Resilience {
    detector: FailureDetector,
    world: World,
    my_world: usize,
    /// The claimed control-plane port ([`ReservedCtx::ResilCtrl`] on
    /// VCI 0); all control traffic goes through it.
    port: CtrlPort,
    /// Registered communicators by base context id.
    comms: Mutex<HashMap<u64, CommReg>>,
    /// Revoked base context ids (the set only grows).
    revoked: Mutex<HashSet<u64>>,
    /// World ranks whose failure we already gossiped.
    gossiped: Mutex<HashSet<usize>>,
    /// Detector epoch up to which the sweep has run.
    swept_epoch: AtomicU64,
    /// The lazily (re)posted listener receives: `[0]` revoke notices,
    /// `[1]` failure gossip. Exact tags — a wildcard-tag listener would
    /// steal the agreement protocol's contribution/verdict messages,
    /// which share the control context.
    listeners: Mutex<[Option<(Request, RecvSlot)>; 2]>,
    shutdown: AtomicBool,
}

impl Resilience {
    /// Start the detector and the resilience progress task on `proc`'s
    /// default stream. Called (once) by [`Proc::enable_resilience`].
    pub(crate) fn install(proc: &Proc, cfg: DetectorConfig) -> Arc<Resilience> {
        let world = proc.world().clone();
        let rank = proc.rank();
        let detector = FailureDetector::new(rank, world.size(), cfg);
        detector.install(proc.default_stream(), world.rank_transport(rank));
        let port = CtrlPort::claim(proc, ReservedCtx::ResilCtrl);
        let r = Arc::new(Resilience {
            detector,
            world,
            my_world: rank,
            port,
            comms: Mutex::new(HashMap::new()),
            revoked: Mutex::new(HashSet::new()),
            gossiped: Mutex::new(HashSet::new()),
            swept_epoch: AtomicU64::new(0),
            listeners: Mutex::new([None, None]),
            shutdown: AtomicBool::new(false),
        });
        // The resilience task: revoke/gossip listener + epoch-triggered
        // failure sweep. Captures no Proc — the Arc cycle through the
        // stream's task list is broken when the task returns Done.
        let task = r.clone();
        proc.default_stream().async_start(move |_t| {
            if task.shutdown.load(Ordering::Acquire) {
                return AsyncPoll::Done;
            }
            if task.poll() {
                AsyncPoll::Progress
            } else {
                AsyncPoll::Pending
            }
        });
        r
    }

    /// The underlying failure detector (epoch, failure set, heartbeats).
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Has `ctx` been revoked (locally or by a propagated notice)?
    pub fn is_revoked(&self, ctx: u64) -> bool {
        self.revoked.lock().contains(&ctx)
    }

    /// Stop the detector and the resilience task so a stream drain (and
    /// thus `Proc::finalize`) can complete. Idempotent.
    pub fn shutdown(&self) {
        self.detector.stop();
        self.shutdown.store(true, Ordering::Release);
    }

    /// One resilience pass; true if anything happened.
    fn poll(&self) -> bool {
        let mut progressed = self.poll_listener();
        // Read the epoch BEFORE sweeping: a failure landing mid-sweep
        // bumps it past what we store, so the next poll re-sweeps.
        let epoch = self.detector.epoch();
        if epoch > self.swept_epoch.load(Ordering::Acquire) {
            self.sweep_failures();
            self.swept_epoch.store(epoch, Ordering::Release);
            progressed = true;
        }
        progressed
    }

    /// Drive the control-plane listeners: one any-source receive per
    /// control tag on the control context, each reposted after its
    /// message.
    fn poll_listener(&self) -> bool {
        let mut progressed = false;
        for (idx, tag) in [(0, CTRL_TAG_REVOKE), (1, CTRL_TAG_FAILURE)] {
            let completed = {
                let mut slots = self.listeners.lock();
                let slot = &mut slots[idx];
                if slot.is_none() {
                    // Payloads are tiny: one u64 ctx, or one u32 per
                    // gossiped world rank.
                    let cap = 8 * self.world.size().max(1);
                    *slot = Some(self.port.recv(ANY_SOURCE, tag, cap));
                }
                let (req, _) = slot.as_ref().expect("posted above");
                if req.is_complete() {
                    slot.take()
                } else {
                    None
                }
            };
            let Some((req, rs)) = completed else {
                continue;
            };
            progressed = true;
            let data = rs.take();
            let Some(status) = req.status() else {
                continue;
            };
            match tag {
                CTRL_TAG_REVOKE if data.len() >= 8 => {
                    let ctx = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
                    self.handle_revoke(ctx, status.source);
                }
                CTRL_TAG_FAILURE => {
                    for chunk in data.chunks_exact(4) {
                        let w = u32::from_le_bytes(chunk.try_into().expect("4 bytes")) as usize;
                        self.detector.report_failure(w);
                    }
                }
                _ => {}
            }
        }
        progressed
    }

    /// Mark `ctx` revoked. True if this was news (first revocation).
    fn mark_revoked(&self, ctx: u64) -> bool {
        let fresh = self.revoked.lock().insert(ctx);
        if fresh {
            mpfa_obs::global_counters()
                .comms_revoked
                .fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// A revoke notice arrived (or was raised locally): record, drain,
    /// forward once to everyone except where it came from.
    fn handle_revoke(&self, ctx: u64, from_world: i32) {
        if !self.mark_revoked(ctx) {
            return;
        }
        self.drain_revoked(ctx);
        self.broadcast_revoke(ctx, from_world);
    }

    /// Fail every posted receive of a revoked comm (both wire contexts,
    /// wildcards included) so blocked waits on it unblock.
    fn drain_revoked(&self, ctx: u64) {
        let reg = self.comms.lock().get(&ctx).cloned();
        if let Some(reg) = reg {
            reg.vci
                .fail_posted_recvs(ctx * 2, &|_, _| true, RequestError::Revoked);
            reg.vci
                .fail_posted_recvs(ctx * 2 + 1, &|_, _| true, RequestError::Revoked);
            // Persistent descriptors on the revoked comm: flip bindings
            // to revoked (next start takes the one-shot fallback) and
            // fail armed rounds. Persist keys live on the ptp context.
            reg.vci
                .fail_persist(&|_| false, Some(ctx * 2), RequestError::Revoked);
        }
    }

    /// Flood the revoke notice to every alive peer except `skip_world`
    /// (where it came from; -1 to send to all).
    fn broadcast_revoke(&self, ctx: u64, skip_world: i32) {
        let payload = ctx.to_le_bytes().to_vec();
        for w in 0..self.world.size() {
            if w == self.my_world || w as i32 == skip_world || self.detector.is_failed(w) {
                continue;
            }
            self.ctrl_send(w, CTRL_TAG_REVOKE, payload.clone());
        }
    }

    /// Fail outstanding operations involving dead ranks, across every
    /// registered communicator, and gossip newly seen failures.
    fn sweep_failures(&self) {
        let failed = self.detector.failure_set().failed;
        if failed.is_empty() {
            return;
        }
        let comms: Vec<CommReg> = self.comms.lock().values().cloned().collect();
        let cfg = self.world.config().clone();
        for reg in &comms {
            for &w in &failed {
                let Some(cr) = reg.group.iter().position(|&g| g == w) else {
                    continue;
                };
                let cr = cr as i32;
                let err = RequestError::PeerFailed { rank: w as i32 };
                let dead_eps: Vec<usize> = (0..cfg.max_vcis).map(|v| cfg.ep_index(w, v)).collect();
                reg.vci.fail_sends_to(&|ep| dead_eps.contains(&ep), err);
                reg.vci
                    .fail_posted_recvs(reg.ctx * 2, &|src, _| src == cr, err);
                reg.vci
                    .fail_posted_recvs(reg.ctx * 2 + 1, &|src, _| src == cr, err);
                // Persistent state bound to the dead peer: revoke the
                // sender-side bindings and fail slot-armed / partitioned
                // rounds so re-fires divert to the born-failed fallback.
                reg.vci
                    .fail_persist(&|ep| dead_eps.contains(&ep), None, err);
            }
        }
        // Control-plane receives address peers by world rank (the
        // coordination protocol's contribution/verdict receives).
        for &w in &failed {
            let err = RequestError::PeerFailed { rank: w as i32 };
            self.port.fail_matching(&|src, _| src == w as i32, err);
        }
        // Gossip failures we have not announced yet, so detectors
        // converge even on asymmetric evidence.
        let fresh: Vec<usize> = {
            let mut gossiped = self.gossiped.lock();
            failed
                .iter()
                .copied()
                .filter(|w| gossiped.insert(*w))
                .collect()
        };
        if !fresh.is_empty() {
            let payload: Vec<u8> = fresh
                .iter()
                .flat_map(|w| (*w as u32).to_le_bytes())
                .collect();
            for w in 0..self.world.size() {
                if w != self.my_world && !self.detector.is_failed(w) {
                    self.ctrl_send(w, CTRL_TAG_FAILURE, payload.clone());
                }
            }
        }
    }

    /// Run the failure sweep immediately (the post-insert recheck in
    /// `Comm::isend_on_ctx`/`irecv_on_ctx` calls this when an operation
    /// raced with failure detection).
    pub(crate) fn sweep_now(&self) {
        self.sweep_failures();
    }

    /// Register a communicator for the failure sweep. Idempotent per
    /// context id.
    pub(crate) fn register_comm(
        &self,
        ctx: u64,
        group: Arc<Vec<usize>>,
        vci: Arc<Vci>,
        vci_idx: usize,
    ) {
        self.comms.lock().insert(
            ctx,
            CommReg {
                ctx,
                group,
                vci,
                vci_idx,
            },
        );
        let _ = self.comms.lock().get(&ctx).map(|r| r.vci_idx); // silence unused-field lint paths
    }

    /// Fire-and-forget control-plane send (buffered: born complete, no
    /// TX tracking — refusal by a dead-peer transport is harmless).
    fn ctrl_send(&self, dst_world: usize, tag: i32, payload: Vec<u8>) {
        self.port.send(dst_world, tag, payload);
    }

    /// Post a control-plane receive from `src_world` with exact `tag`.
    fn ctrl_recv(&self, src_world: usize, tag: i32, capacity: usize) -> (Request, RecvSlot) {
        self.port.recv(src_world as i32, tag, capacity)
    }

    /// Drop this rank's posted coordination receives carrying `tag`
    /// (restart hygiene; completes them as cancelled-by-revoke).
    fn drain_ctrl_tag(&self, tag: i32) {
        self.port
            .fail_matching(&|_, t| t == tag, RequestError::Revoked);
    }
}

impl std::fmt::Debug for Resilience {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resilience")
            .field("rank", &self.my_world)
            .field("epoch", &self.detector.epoch())
            .field("revoked", &self.revoked.lock().len())
            .field("comms", &self.comms.lock().len())
            .finish()
    }
}

impl Comm {
    fn resil_or_err(&self) -> MpiResult<Arc<Resilience>> {
        self.resil.clone().ok_or_else(|| {
            MpiError::Protocol(
                "resilience not enabled: call Proc::enable_resilience before creating comms".into(),
            )
        })
    }

    /// Has this communicator been revoked?
    pub fn is_revoked(&self) -> bool {
        self.resil.as_ref().is_some_and(|r| r.is_revoked(self.ctx))
    }

    /// `MPIX_Comm_revoke`: mark this communicator unusable everywhere.
    /// Non-collective — any member may call it after observing a
    /// failure; the notice floods to all alive peers, each of which
    /// drains its posted receives on the comm and forwards once.
    /// Idempotent. After revocation only [`Comm::agree`] and
    /// [`Comm::shrink`] remain meaningful.
    pub fn revoke(&self) -> MpiResult<()> {
        let r = self.resil_or_err()?;
        if r.mark_revoked(self.ctx) {
            r.drain_revoked(self.ctx);
            r.broadcast_revoke(self.ctx, -1);
        }
        Ok(())
    }

    /// `MPIX_Comm_agree`: fault-tolerant agreement on the logical AND of
    /// every alive member's `flag`. Works on revoked communicators —
    /// it is the tool for deciding, consistently, what to do next.
    /// Collective over alive members (same-order requirement as other
    /// collectives).
    pub fn agree(&self, flag: bool) -> MpiResult<bool> {
        let r = self.resil_or_err()?;
        let seq = self.agree_seq.fetch_add(1, Ordering::AcqRel);
        let out = self.coordinate(&r, seq, vec![flag as u8], &|acc, other| {
            acc[0] &= other[0];
        })?;
        Ok(out[0] != 0)
    }

    /// `MPIX_Comm_shrink`: agree on the union of everyone's failed set
    /// and build a new communicator containing only survivors (group
    /// order preserved). Collective over alive members. The new handle
    /// has a fresh context, inherits the VCI, and is not revoked.
    pub fn shrink(&self) -> MpiResult<Comm> {
        let r = self.resil_or_err()?;
        assert!(
            self.group.len() <= 64,
            "shrink supports up to 64 ranks (failure mask is a u64)"
        );
        let seq = self.agree_seq.fetch_add(1, Ordering::AcqRel);
        let mut mask: u64 = 0;
        for (cr, &w) in self.group.iter().enumerate() {
            if r.detector().is_failed(w) {
                mask |= 1 << cr;
            }
        }
        let agreed = self.coordinate(&r, seq, mask.to_le_bytes().to_vec(), &|acc, other| {
            let m = u64::from_le_bytes(acc[..8].try_into().expect("8 bytes"))
                | u64::from_le_bytes(other[..8].try_into().expect("8 bytes"));
            acc.copy_from_slice(&m.to_le_bytes());
        })?;
        let agreed_mask = u64::from_le_bytes(agreed[..8].try_into().expect("8 bytes"));

        let survivors: Vec<usize> = self
            .group
            .iter()
            .enumerate()
            .filter(|(cr, _)| agreed_mask & (1 << cr) == 0)
            .map(|(_, &w)| w)
            .collect();
        let my_world = self.group[self.rank as usize];
        let rank = survivors
            .iter()
            .position(|&w| w == my_world)
            .ok_or_else(|| MpiError::Protocol("shrink: calling rank agreed dead".into()))?
            as i32;

        // Survivors agree on `agreed_mask`, so every one derives the
        // same child key — the same lockstep determinism dup/split rely
        // on, without a round of exchange. The high marker byte keeps
        // shrink keys disjoint from dup/split epoch keys.
        let key = (0xF5u64 << 56) | agreed_mask;
        let world = self.proc.world().clone();
        let ctx = world.inner.registry.lock().child_ctx(self.ctx, key);
        let vci_idx = world.inner.registry.lock().vci_for_ctx(
            ctx,
            false,
            self.vci_idx,
            world.config().max_vcis,
        )?;
        let bundle = self
            .proc
            .bundle(vci_idx)
            .ok_or_else(|| MpiError::Protocol("shrink: VCI bundle missing".into()))?;
        let comm = Comm {
            proc: self.proc.clone(),
            bundle,
            vci_idx,
            ctx,
            group: Arc::new(survivors),
            rank,
            epoch: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            agree_seq: Arc::new(AtomicU64::new(0)),
            resil: self.resil.clone(),
        };
        comm.register_resilience();
        Ok(comm)
    }

    /// The agreement engine behind `agree` and `shrink`: a coordinator
    /// (lowest alive comm rank) collects fixed-size contributions from
    /// every alive member, folds them with `combine`, and broadcasts
    /// the verdict. Restarts when the local failure view changes; the
    /// attempt number `|failed ∩ group|` converges across ranks because
    /// failure evidence is shared (transport liveness + gossip), which
    /// re-synchronizes contribution tags without a leader election.
    fn coordinate(
        &self,
        r: &Arc<Resilience>,
        seq: u64,
        mine: Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
    ) -> MpiResult<Vec<u8>> {
        let n = mine.len();
        let det = r.detector().clone();
        let drive = self.proc.default_stream().clone();
        let deadline = wtime() + COORDINATE_TIMEOUT_S;
        let verdict_tag = coord_tag(self.ctx, seq, SUB_VERDICT);

        // The verdict receive outlives restarts (its tag is
        // attempt-independent) unless its coordinator died.
        let mut verdict: Option<(i32, Request, RecvSlot)> = None; // (coord comm rank, ...)

        // One snapshot of "who in the group is dead, per my detector".
        let view = |det: &FailureDetector| -> Vec<bool> {
            self.group.iter().map(|&w| det.is_failed(w)).collect()
        };

        'restart: loop {
            if wtime() > deadline {
                return Err(MpiError::Timeout("agree/shrink coordination"));
            }
            let failed = view(&det);
            let attempt = failed.iter().filter(|&&f| f).count() as u32;
            if attempt as usize >= SUB_VERDICT as usize {
                return Err(MpiError::Protocol("agree: too many failures".into()));
            }
            let Some(coord) = failed.iter().position(|&f| !f).map(|p| p as i32) else {
                return Err(MpiError::Protocol("agree: no alive member".into()));
            };
            mpfa_obs::global_counters()
                .agree_rounds
                .fetch_add(1, Ordering::Relaxed);
            let ctag = coord_tag(self.ctx, seq, attempt);

            if coord == self.rank {
                // Coordinator: collect one contribution per alive member.
                let mut acc = mine.clone();
                let recvs: Vec<(Request, RecvSlot)> = self
                    .group
                    .iter()
                    .enumerate()
                    .filter(|&(cr, _)| cr as i32 != self.rank && !failed[cr])
                    .map(|(_, &w)| r.ctrl_recv(w, ctag, n))
                    .collect();
                let mut folded = vec![false; recvs.len()];
                loop {
                    if wtime() > deadline {
                        r.drain_ctrl_tag(ctag);
                        return Err(MpiError::Timeout("agree/shrink coordination"));
                    }
                    drive.progress();
                    if view(&det) != failed {
                        // A member died mid-collection: drop this
                        // attempt's receives and renegotiate.
                        r.drain_ctrl_tag(ctag);
                        continue 'restart;
                    }
                    let mut all = true;
                    for (i, (req, slot)) in recvs.iter().enumerate() {
                        if folded[i] {
                            continue;
                        }
                        match req.result() {
                            None => all = false,
                            Some(Ok(_)) => {
                                combine(&mut acc, &slot.take());
                                folded[i] = true;
                            }
                            Some(Err(_)) => {
                                // Sweep failed this receive — the view
                                // comparison above will restart us on
                                // the next iteration.
                                all = false;
                            }
                        }
                    }
                    if all {
                        for (cr, &w) in self.group.iter().enumerate() {
                            if cr as i32 != self.rank && !failed[cr] {
                                r.ctrl_send(w, verdict_tag, acc.clone());
                            }
                        }
                        return Ok(acc);
                    }
                }
            } else {
                // Participant: contribute, await the verdict.
                let coord_world = self.group[coord as usize];
                r.ctrl_send(coord_world, ctag, mine.clone());
                match &verdict {
                    Some((c, _, _)) if *c == coord => {}
                    _ => {
                        // First attempt, or the coordinator changed
                        // (the old receive was failed by the sweep).
                        let (req, slot) = r.ctrl_recv(coord_world, verdict_tag, n);
                        verdict = Some((coord, req, slot));
                    }
                }
                loop {
                    if wtime() > deadline {
                        return Err(MpiError::Timeout("agree/shrink coordination"));
                    }
                    drive.progress();
                    let (_, req, slot) = verdict.as_ref().expect("posted above");
                    match req.result() {
                        Some(Ok(_)) => return Ok(slot.take()),
                        Some(Err(_)) => {
                            // Coordinator died; renegotiate with a new one.
                            verdict = None;
                            continue 'restart;
                        }
                        None => {}
                    }
                    if view(&det) != failed {
                        // New failure (maybe the coordinator, maybe
                        // another member whose attempt tag I must
                        // match). Keep the verdict receive if the
                        // coordinator is still the same.
                        continue 'restart;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::testutil::run_ranks;
    use crate::op::Op;
    use crate::world::{World, WorldConfig};
    use mpfa_resil::DetectorConfig;

    fn enable(proc: &Proc) -> Arc<Resilience> {
        proc.enable_resilience(DetectorConfig::default())
    }

    #[test]
    fn enable_resilience_is_idempotent_and_finalizable() {
        let procs = World::init(WorldConfig::instant(2));
        let p = &procs[0];
        let a = enable(p);
        let b = enable(p);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(p.resilience().is_some());
        assert!(p.finalize(2.0), "resilience tasks must not block finalize");
    }

    #[test]
    fn coord_tag_fields_are_disjoint() {
        let a = coord_tag(3, 1, 0);
        let b = coord_tag(3, 1, 1);
        let c = coord_tag(3, 2, 0);
        let d = coord_tag(4, 1, 0);
        let v = coord_tag(3, 1, SUB_VERDICT);
        let all = [a, b, c, d, v];
        for (i, x) in all.iter().enumerate() {
            assert!(*x > 0, "tags must be valid (positive)");
            for (j, y) in all.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y);
                }
            }
        }
        assert_ne!(a, CTRL_TAG_REVOKE);
        assert_ne!(a, CTRL_TAG_FAILURE);
    }

    #[test]
    fn agree_all_alive() {
        let results = run_ranks(4, |proc| {
            enable(&proc);
            let comm = proc.world_comm();
            let yes = comm.agree(true).unwrap();
            let no = comm.agree(proc.rank() != 2).unwrap();
            (yes, no)
        });
        for (yes, no) in results {
            assert!(yes);
            assert!(!no, "one dissent must flip the AND for everyone");
        }
    }

    #[test]
    fn chaos_kill_fails_requests_then_revoke_shrink_recovers() {
        const N: usize = 4;
        const VICTIM: usize = 2;
        let victim_done = std::sync::atomic::AtomicBool::new(false);
        let results = run_ranks(N, |proc| {
            enable(&proc);
            let comm = proc.world_comm();
            // Warmup proves the full comm works for the victim; for the
            // survivors it may race with the kill below (an in-flight
            // round partner dying is exactly the failure under test),
            // so they tolerate either outcome.
            let warm = comm.allreduce(&[1i64], Op::Sum);

            if proc.rank() == VICTIM {
                // The victim's pre-kill view is fully healthy.
                assert_eq!(warm.unwrap(), vec![N as i64]);
                // Die "mid-application": stop participating; rank 3
                // pulls the kill switch once we are out.
                victim_done.store(true, std::sync::atomic::Ordering::Release);
                return (-1i64, 0usize);
            }
            if proc.rank() == 3 {
                while !victim_done.load(std::sync::atomic::Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                assert!(proc.world().chaos_kill(VICTIM));
            }

            // Survivors: the collective must ERROR, not hang.
            let mut saw_error = false;
            for _ in 0..200 {
                let fut = comm.iallreduce(&[1i64], Op::Sum).unwrap();
                match fut.wait_result() {
                    Ok(_) => continue, // pre-detection window
                    Err(_) => {
                        saw_error = true;
                        break;
                    }
                }
            }
            assert!(saw_error, "collective with a dead rank must fail");

            // ULFM recovery: revoke → agree → shrink → retry.
            comm.revoke().unwrap();
            assert!(comm.is_revoked());
            let ok = comm.agree(true).unwrap();
            assert!(ok);
            let shrunk = comm.shrink().unwrap();
            assert_eq!(shrunk.size(), N - 1);
            assert!(!shrunk.group().contains(&VICTIM));
            let sum = shrunk.allreduce(&[1i64], Op::Sum).unwrap();
            (sum[0], shrunk.size())
        });
        for (r, (sum, size)) in results.iter().enumerate() {
            if r == VICTIM {
                continue;
            }
            assert_eq!(*sum, (N - 1) as i64, "rank {r}");
            assert_eq!(*size, N - 1, "rank {r}");
        }
    }

    #[test]
    fn isend_to_failed_rank_is_born_failed() {
        let past_barrier = std::sync::atomic::AtomicUsize::new(0);
        let results = run_ranks(3, |proc| {
            let r = enable(&proc);
            let comm = proc.world_comm();
            comm.barrier().unwrap();
            past_barrier.fetch_add(1, Ordering::AcqRel);
            if proc.rank() == 0 {
                // The verdict is gossiped: report only once every rank
                // has left the barrier, or a slow one fails inside it.
                while past_barrier.load(Ordering::Acquire) < 3 {
                    std::hint::spin_loop();
                }
                // Local knowledge only — no kill switch needed.
                r.detector().report_failure(2);
                while !r.detector().is_failed(2) {
                    proc.default_stream().progress();
                }
                let req = comm.isend(&[1u8], 2, 5).unwrap();
                assert!(req.is_complete());
                req.error()
            } else {
                None
            }
        });
        assert_eq!(results[0], Some(RequestError::PeerFailed { rank: 2 }));
    }

    #[test]
    fn revoked_comm_refuses_new_operations() {
        let results = run_ranks(2, |proc| {
            enable(&proc);
            let comm = proc.world_comm();
            comm.barrier().unwrap();
            if proc.rank() == 0 {
                comm.revoke().unwrap();
                let s = comm.isend(&[0u8], 1, 1).unwrap();
                let r = comm.irecv::<u8>(1, 1, 1).unwrap();
                (s.error(), r.request().error())
            } else {
                // Wait for the propagated notice, then observe locally.
                let t0 = mpfa_core::wtime();
                while !comm.is_revoked() {
                    proc.default_stream().progress();
                    assert!(mpfa_core::wtime() - t0 < 5.0, "revoke did not propagate");
                }
                let s = comm.isend(&[0u8], 0, 1).unwrap();
                (s.error(), s.error())
            }
        });
        assert_eq!(results[0].0, Some(RequestError::Revoked));
        assert_eq!(results[0].1, Some(RequestError::Revoked));
        assert_eq!(results[1].0, Some(RequestError::Revoked));
    }

    #[test]
    fn revoke_unblocks_posted_recv() {
        let results = run_ranks(2, |proc| {
            enable(&proc);
            let comm = proc.world_comm();
            comm.barrier().unwrap();
            if proc.rank() == 0 {
                // A receive nobody will ever satisfy.
                let r = comm.irecv::<u8>(1, 1, 99).unwrap();
                comm.revoke().unwrap();
                r.request().wait_result().err()
            } else {
                comm.barrier().ok(); // may fail after revoke; ignore
                None
            }
        });
        assert_eq!(results[0], Some(RequestError::Revoked));
    }
}
