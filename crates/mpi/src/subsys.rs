//! The four subsystem progress hooks of the collated progress function —
//! this module *is* the paper's Listing 1.1, one [`ProgressHook`] per entry:
//!
//! ```c
//! Datatype_engine_progress(&made_progress);   // DtEngineHook
//! Collective_sched_progress(&made_progress);  // CollSchedHook
//! Shmem_progress(&made_progress);             // ShmemHook
//! Netmod_progress(&made_progress);            // NetmodHook (last: its
//!                                             //  empty poll is not free)
//! ```
//!
//! The ordering and short-circuiting live in `mpfa_core`'s engine; this
//! module supplies the class assignments and the cheap `has_work` answers
//! (a single atomic read each).

use std::sync::{Arc, Weak};

use mpfa_core::{ProgressHook, SubsystemClass};

use crate::dtengine::DtEngine;
use crate::sched::SchedQueue;
use crate::vci::Vci;

/// How many packets a netmod/shmem hook processes per poll. Bounds the
/// time one progress call can spend inside a single hook (the Figure 8
/// lesson: a heavy poll delays every other collated task).
pub const POLL_BATCH: usize = 16;

/// `Datatype_engine_progress`: advances asynchronous pack/unpack jobs.
pub struct DtEngineHook {
    engine: Arc<DtEngine>,
}

impl DtEngineHook {
    /// Hook over a shared engine.
    pub fn new(engine: Arc<DtEngine>) -> Self {
        DtEngineHook { engine }
    }
}

impl ProgressHook for DtEngineHook {
    fn name(&self) -> &str {
        "datatype-engine"
    }
    fn class(&self) -> SubsystemClass {
        SubsystemClass::DatatypeEngine
    }
    fn has_work(&self) -> bool {
        self.engine.pending() > 0
    }
    fn poll(&self) -> bool {
        self.engine.poll()
    }
}

/// `Collective_sched_progress`: advances active collective schedules.
pub struct CollSchedHook {
    queue: Arc<SchedQueue>,
}

impl CollSchedHook {
    /// Hook over a shared schedule queue.
    pub fn new(queue: Arc<SchedQueue>) -> Self {
        CollSchedHook { queue }
    }
}

impl ProgressHook for CollSchedHook {
    fn name(&self) -> &str {
        "coll-sched"
    }
    fn class(&self) -> SubsystemClass {
        SubsystemClass::CollectiveSched
    }
    fn has_work(&self) -> bool {
        self.queue.pending() > 0
    }
    fn poll(&self) -> bool {
        self.queue.poll()
    }
}

/// `Shmem_progress`: processes intra-node packets for one VCI.
///
/// Holds its VCI weakly: the hook lives inside the stream's engine and
/// the VCI holds the stream, so a strong reference here would form a
/// `Stream → hook → Vci → Stream` cycle that keeps the whole
/// world — transport sockets, reactor thread, segment mappings — alive
/// forever after teardown.
pub struct ShmemHook {
    vci: Weak<Vci>,
}

impl ShmemHook {
    /// Hook over a VCI's shmem path.
    pub fn new(vci: Arc<Vci>) -> Self {
        ShmemHook {
            vci: Arc::downgrade(&vci),
        }
    }
}

impl ProgressHook for ShmemHook {
    fn name(&self) -> &str {
        "shmem"
    }
    fn class(&self) -> SubsystemClass {
        SubsystemClass::Shmem
    }
    fn has_work(&self) -> bool {
        self.vci.upgrade().is_some_and(|v| v.queued_shmem() > 0)
    }
    fn poll(&self) -> bool {
        self.vci.upgrade().is_some_and(|v| v.poll_shmem(POLL_BATCH))
    }
}

/// `Netmod_progress`: processes inter-node packets and sweeps protocol
/// state (eager TX completions) for one VCI. Placed last in the collation
/// order; skipped whenever an earlier subsystem progressed.
pub struct NetmodHook {
    /// Weak for the same cycle-breaking reason as [`ShmemHook`].
    vci: Weak<Vci>,
}

impl NetmodHook {
    /// Hook over a VCI's network path.
    pub fn new(vci: Arc<Vci>) -> Self {
        NetmodHook {
            vci: Arc::downgrade(&vci),
        }
    }
}

impl ProgressHook for NetmodHook {
    fn name(&self) -> &str {
        "netmod"
    }
    fn class(&self) -> SubsystemClass {
        SubsystemClass::Netmod
    }
    fn has_work(&self) -> bool {
        // `transport_work` is the transport's `external_work`: under the
        // epoll reactor it is wakeup-driven (readiness bitmap, dirty-TX
        // and dirty-connection sets fed by the reactor thread), and the
        // shm backend reports actual ring occupancy — so an idle wire
        // world answers false here and the engine suppresses the netmod
        // poll entirely. Only the legacy scan path (`MPFA_REACTOR=0`)
        // still answers "live peers => maybe buffered bytes => work".
        // Always false on the simulated fabric, so sim worlds keep the
        // poll-suppression behaviour unchanged.
        self.vci
            .upgrade()
            .is_some_and(|v| v.queued_net() > 0 || v.protocol_work() > 0 || v.transport_work())
    }
    fn poll(&self) -> bool {
        let Some(v) = self.vci.upgrade() else {
            return false;
        };
        let pkts = v.poll_net(POLL_BATCH);
        let tx = v.sweep_tx();
        pkts || tx
    }
}

/// Register the full Listing-1.1 hook set for one VCI on its stream.
/// Returns the hook ids in registration order
/// (dt-engine, coll-sched, shmem, netmod).
pub(crate) fn register_all(
    vci: &Arc<Vci>,
    dt: &Arc<DtEngine>,
    sched: &Arc<SchedQueue>,
) -> [mpfa_core::HookId; 4] {
    let stream = vci.stream().clone();
    [
        stream.register_hook(DtEngineHook::new(dt.clone())),
        stream.register_hook(CollSchedHook::new(sched.clone())),
        stream.register_hook(ShmemHook::new(vci.clone())),
        stream.register_hook(NetmodHook::new(vci.clone())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtoConfig;
    use crate::wire::{MsgHeader, WireMsg};
    use mpfa_core::Stream;
    use mpfa_fabric::{Fabric, FabricConfig};

    fn vci_on(stream: &Stream, fabric: &Fabric<WireMsg>, rank: usize) -> Arc<Vci> {
        Vci::new(
            fabric.endpoint(rank),
            stream.clone(),
            ProtoConfig::default(),
        )
    }

    #[test]
    fn classes_match_listing_order() {
        let fabric: Fabric<WireMsg> = Fabric::new(FabricConfig::instant(1));
        let s = Stream::create();
        let v = vci_on(&s, &fabric, 0);
        assert_eq!(
            DtEngineHook::new(DtEngine::shared()).class(),
            SubsystemClass::DatatypeEngine
        );
        assert_eq!(
            CollSchedHook::new(SchedQueue::shared()).class(),
            SubsystemClass::CollectiveSched
        );
        assert_eq!(ShmemHook::new(v.clone()).class(), SubsystemClass::Shmem);
        assert_eq!(NetmodHook::new(v).class(), SubsystemClass::Netmod);
    }

    #[test]
    fn idle_hooks_report_no_work() {
        let fabric: Fabric<WireMsg> = Fabric::new(FabricConfig::instant(1));
        let s = Stream::create();
        let v = vci_on(&s, &fabric, 0);
        let dt = DtEngine::shared();
        let q = SchedQueue::shared();
        assert!(!DtEngineHook::new(dt).has_work());
        assert!(!CollSchedHook::new(q).has_work());
        assert!(!ShmemHook::new(v.clone()).has_work());
        assert!(!NetmodHook::new(v).has_work());
    }

    #[test]
    fn stream_progress_drives_message_delivery() {
        // End-to-end through the core engine: two ranks, registered hooks,
        // message completes under Stream::progress alone.
        let fabric: Fabric<WireMsg> = Fabric::new(FabricConfig::instant(2));
        let s0 = Stream::create();
        let s1 = Stream::create();
        let v0 = vci_on(&s0, &fabric, 0);
        let v1 = vci_on(&s1, &fabric, 1);
        let (dt0, q0) = (DtEngine::shared(), SchedQueue::shared());
        let (dt1, q1) = (DtEngine::shared(), SchedQueue::shared());
        register_all(&v0, &dt0, &q0);
        register_all(&v1, &dt1, &q1);
        assert_eq!(s0.hook_count(), 4);

        let (rreq, slot) = v1.irecv_bytes(9, 0, 5, 1024);
        let sreq = v0.isend_bytes(
            1,
            MsgHeader {
                context_id: 9,
                src_rank: 0,
                tag: 5,
            },
            vec![1, 2, 3, 4],
        );
        while !(rreq.is_complete() && sreq.is_complete()) {
            s0.progress();
            s1.progress();
        }
        assert_eq!(slot.take(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn netmod_reports_work_for_pending_tx() {
        let proto = ProtoConfig {
            buffered_max: 0,
            ..ProtoConfig::default()
        };
        let fabric: Fabric<WireMsg> = Fabric::new(FabricConfig::instant(2));
        let s = Stream::create();
        let v0 = Vci::new(fabric.endpoint(0), s.clone(), proto);
        let hook = NetmodHook::new(v0.clone());
        assert!(!hook.has_work());
        let _req = v0.isend_bytes(
            1,
            MsgHeader {
                context_id: 1,
                src_rank: 0,
                tag: 0,
            },
            vec![0; 64],
        );
        assert!(hook.has_work(), "pending TX must show as netmod work");
    }
}
