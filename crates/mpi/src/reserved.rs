//! Reserved control-plane wire contexts, claimed from one registry.
//!
//! The communicator registry allocates context ids *upward* from 1
//! ([`crate::world::Registry::child_ctx`]); control planes that need a
//! wire context of their own (the ULFM machinery, the mpfa-flow
//! progress exchange) claim ids *downward* from `u64::MAX` through the
//! [`ReservedCtx`] enum below. Having every reserved id declared in a
//! single enum — rather than scattered per-subsystem constants — makes
//! a collision a compile-visible merge conflict instead of a silent
//! matching-state aliasing bug, and the allocator asserts it never
//! grows into the reserved band.
//!
//! Control traffic on a reserved context shares VCI 0 with the world
//! communicator; messages address peers by **world** rank and are sent
//! buffered, so the control plane keeps working while data-plane
//! requests are failing. [`CtrlPort`] packages that convention.

use std::sync::Arc;

use mpfa_core::{Request, RequestError};

use crate::matching::RecvSlot;
use crate::proc::Proc;
use crate::protocol::SendMode;
use crate::vci::Vci;
use crate::wire::MsgHeader;
use crate::world::World;

/// Every reserved control-plane context in the system. Add new control
/// planes here — nowhere else — so their ids can never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReservedCtx {
    /// ULFM control plane: revoke notices, failure gossip, agreement
    /// contributions and verdicts (see `crate::resilience`).
    ResilCtrl,
    /// mpfa-flow progress exchange: timestamped record batches and
    /// capability-delta gossip (see the `mpfa-flow` crate).
    FlowCtrl,
}

/// Lowest context id of the reserved band. The communicator allocator
/// asserts it stays strictly below this; reserved ids stay at or above
/// it. 64 slots is vastly more control planes than the system will
/// ever grow.
pub const RESERVED_CTX_FLOOR: u64 = u64::MAX - 63;

impl ReservedCtx {
    /// All reserved contexts, for exhaustive checks.
    pub const ALL: [ReservedCtx; 2] = [ReservedCtx::ResilCtrl, ReservedCtx::FlowCtrl];

    /// The wire context id this reservation owns.
    pub const fn ctx(self) -> u64 {
        match self {
            ReservedCtx::ResilCtrl => u64::MAX,
            ReservedCtx::FlowCtrl => u64::MAX - 1,
        }
    }
}

/// A claimed control-plane port: VCI 0 scoped to one [`ReservedCtx`].
///
/// Sends are fire-and-forget buffered (born complete, no TX tracking —
/// refusal by a dead-peer transport is harmless); receives match by
/// exact or wildcard world rank and tag. Both resilience and flow run
/// their control planes through this type, so the addressing and
/// send-mode conventions live in exactly one place.
pub struct CtrlPort {
    vci0: Arc<Vci>,
    world: World,
    my_world: usize,
    ctx: u64,
}

impl CtrlPort {
    /// Claim `which` on `proc`'s VCI 0.
    pub fn claim(proc: &Proc, which: ReservedCtx) -> CtrlPort {
        let vci0 = proc.bundle(0).expect("VCI 0 exists").vci.clone();
        CtrlPort {
            vci0,
            world: proc.world().clone(),
            my_world: proc.rank(),
            ctx: which.ctx(),
        }
    }

    /// The reserved wire context this port owns.
    pub fn ctx(&self) -> u64 {
        self.ctx
    }

    /// This rank's world index.
    pub fn my_world(&self) -> usize {
        self.my_world
    }

    /// Fire-and-forget control send to `dst_world`.
    pub fn send(&self, dst_world: usize, tag: i32, payload: Vec<u8>) {
        let hdr = MsgHeader {
            context_id: self.ctx,
            src_rank: self.my_world as i32,
            tag,
        };
        let ep = self.world.config().ep_index(dst_world, 0);
        drop(
            self.vci0
                .isend_bytes_mode(ep, hdr, payload, SendMode::Buffered),
        );
    }

    /// Post a control receive from `src_world` (or
    /// [`crate::ANY_SOURCE`]) with exact `tag`.
    pub fn recv(&self, src_world: i32, tag: i32, capacity: usize) -> (Request, RecvSlot) {
        self.vci0.irecv_bytes(self.ctx, src_world, tag, capacity)
    }

    /// Fail this port's posted receives matching `pred(src, tag)`;
    /// returns how many were failed.
    pub fn fail_matching(&self, pred: &dyn Fn(i32, i32) -> bool, err: RequestError) -> usize {
        self.vci0.fail_posted_recvs(self.ctx, pred, err)
    }
}

impl std::fmt::Debug for CtrlPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtrlPort")
            .field("ctx", &self.ctx)
            .field("my_world", &self.my_world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_ids_are_distinct_and_in_band() {
        for (i, a) in ReservedCtx::ALL.iter().enumerate() {
            assert!(
                a.ctx() >= RESERVED_CTX_FLOOR,
                "{a:?} below the reserved floor"
            );
            for b in &ReservedCtx::ALL[i + 1..] {
                assert_ne!(a.ctx(), b.ctx(), "{a:?} and {b:?} collide");
            }
        }
    }

    #[test]
    fn reserved_band_clears_comm_wire_contexts() {
        // Comm base contexts become wire contexts `ctx*2` and `ctx*2+1`;
        // the allocator's guard keeps base ids below FLOOR/4, so even the
        // doubled+1 wire id stays clear of the reserved band.
        let max_wire = (RESERVED_CTX_FLOOR / 4) * 2 + 1;
        assert!(max_wire < RESERVED_CTX_FLOOR);
    }

    #[test]
    fn ctrl_port_roundtrip() {
        use crate::world::{World, WorldConfig};
        let procs = World::init(WorldConfig::instant(2));
        let p0 = CtrlPort::claim(&procs[0], ReservedCtx::FlowCtrl);
        let p1 = CtrlPort::claim(&procs[1], ReservedCtx::FlowCtrl);
        assert_eq!(p0.ctx(), ReservedCtx::FlowCtrl.ctx());
        let (req, slot) = p1.recv(0, 7, 64);
        p0.send(1, 7, vec![1, 2, 3]);
        for _ in 0..10_000 {
            if req.is_complete() {
                break;
            }
            procs[1].default_stream().progress();
        }
        assert!(req.is_complete());
        assert_eq!(slot.take(), vec![1, 2, 3]);
        assert_eq!(req.status().unwrap().source, 0);
    }

    #[test]
    fn ctrl_ports_on_different_contexts_do_not_cross_match() {
        use crate::world::{World, WorldConfig};
        let procs = World::init(WorldConfig::instant(2));
        let flow = CtrlPort::claim(&procs[1], ReservedCtx::FlowCtrl);
        let resil = CtrlPort::claim(&procs[1], ReservedCtx::ResilCtrl);
        let sender = CtrlPort::claim(&procs[0], ReservedCtx::FlowCtrl);
        let (freq, fslot) = flow.recv(0, 7, 64);
        let (rreq, _rslot) = resil.recv(0, 7, 64);
        sender.send(1, 7, vec![9]);
        for _ in 0..10_000 {
            if freq.is_complete() {
                break;
            }
            procs[1].default_stream().progress();
        }
        assert!(freq.is_complete(), "flow-ctx message reaches the flow port");
        assert_eq!(fslot.take(), vec![9]);
        assert!(
            !rreq.is_complete(),
            "resil-ctx receive must not match a flow-ctx message"
        );
        let _ = resil.fail_matching(&|_, _| true, RequestError::Revoked);
    }
}
