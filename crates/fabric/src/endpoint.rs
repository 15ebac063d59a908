//! Per-rank endpoint handles and TX completion.

use mpfa_core::wtime;

use crate::envelope::Envelope;
use crate::net::{Fabric, Path};

/// Completion handle of one injected packet.
///
/// Models the Figure 1(b) eager-send wait block: the send buffer is
/// "owned by the NIC" until the channel finishes serializing the payload;
/// [`TxHandle::is_done`] reports whether that moment has passed.
#[derive(Debug, Clone, Copy)]
pub struct TxHandle {
    done_at: f64,
    failed: bool,
}

impl TxHandle {
    pub(crate) fn new(done_at: f64) -> TxHandle {
        TxHandle {
            done_at,
            failed: false,
        }
    }

    /// A handle that is already complete. Wire transports hand this back
    /// once the payload has been copied into a kernel socket buffer (or a
    /// local TX queue) — there is no modeled serialization delay to wait
    /// out.
    pub fn immediate() -> TxHandle {
        TxHandle {
            done_at: 0.0,
            failed: false,
        }
    }

    /// A handle for a packet the transport refused to carry — e.g. the
    /// destination peer is already marked dead. The handle is *complete*
    /// (waiters never hang on it) but reports the delivery failure.
    pub fn failed() -> TxHandle {
        TxHandle {
            done_at: 0.0,
            failed: true,
        }
    }

    /// True when the transport discarded the packet instead of carrying
    /// it (see [`TxHandle::failed`]).
    #[inline]
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Has the NIC signalled TX completion?
    #[inline]
    pub fn is_done(&self) -> bool {
        wtime() >= self.done_at
    }

    /// The absolute [`wtime`] at which TX completes.
    pub fn done_at(&self) -> f64 {
        self.done_at
    }

    /// Busy-wait for TX completion (a sender-side wait block).
    pub fn wait(&self) {
        while !self.is_done() {
            std::hint::spin_loop();
        }
    }
}

/// One rank's interface to the fabric.
pub struct Endpoint<M> {
    fabric: Fabric<M>,
    rank: usize,
}

impl<M: Send> Endpoint<M> {
    pub(crate) fn new(fabric: Fabric<M>, rank: usize) -> Endpoint<M> {
        Endpoint { fabric, rank }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks on the fabric.
    pub fn ranks(&self) -> usize {
        self.fabric.config().ranks
    }

    /// The owning fabric.
    pub fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }

    /// Whether `dst` shares this endpoint's node (shmem path).
    pub fn same_node(&self, dst: usize) -> bool {
        self.fabric.config().same_node(self.rank, dst)
    }

    /// Install a [`crate::net::DeliveryHook`] on the owning fabric (all
    /// endpoints share it — the fabric's delivery schedule is global).
    pub fn set_delivery_hook(&self, hook: Option<std::sync::Arc<dyn crate::net::DeliveryHook>>) {
        self.fabric.set_delivery_hook(hook)
    }

    /// Inject a packet to `dst`. `wire_bytes` is the payload size the wire
    /// charges for (headers/control messages pass 0).
    pub fn send(&self, dst: usize, msg: M, wire_bytes: usize) -> TxHandle {
        self.fabric.send(self.rank, dst, msg, wire_bytes)
    }

    /// Pop the next arrived network-path packet, if any.
    pub fn poll_net(&self) -> Option<Envelope<M>> {
        self.fabric.poll(self.rank, Path::Net)
    }

    /// Pop the next arrived shmem-path packet, if any.
    pub fn poll_shmem(&self) -> Option<Envelope<M>> {
        self.fabric.poll(self.rank, Path::Shmem)
    }

    /// Packets queued on the network path (arrived or in flight). One
    /// atomic read — this is a progress hook's `has_work` answer.
    pub fn queued_net(&self) -> usize {
        self.fabric.queued(self.rank, Path::Net)
    }

    /// Packets queued on the shmem path (arrived or in flight).
    pub fn queued_shmem(&self) -> usize {
        self.fabric.queued(self.rank, Path::Shmem)
    }
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint {
            fabric: self.fabric.clone(),
            rank: self.rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;

    #[test]
    fn endpoint_roundtrip() {
        let f: Fabric<&'static str> = Fabric::new(FabricConfig::instant(3));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        assert_eq!(a.rank(), 0);
        assert_eq!(a.ranks(), 3);
        a.send(1, "hello", 5);
        let env = b.poll_net().unwrap();
        assert_eq!(env.msg, "hello");
        assert_eq!(env.src, 0);
        assert_eq!(env.dst, 1);
    }

    #[test]
    fn queued_visible_via_endpoint() {
        let f: Fabric<u8> = Fabric::new(FabricConfig::instant(2));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        assert_eq!(b.queued_net(), 0);
        a.send(1, 1, 0);
        assert_eq!(b.queued_net(), 1);
        assert_eq!(b.queued_shmem(), 0);
    }

    #[test]
    fn same_node_query() {
        let f: Fabric<u8> = Fabric::new(FabricConfig::instant_nodes(4, 2));
        let a = f.endpoint(0);
        assert!(a.same_node(1));
        assert!(!a.same_node(2));
    }

    #[test]
    fn tx_handle_instant_done() {
        let f: Fabric<u8> = Fabric::new(FabricConfig::instant(2));
        let tx = f.endpoint(0).send(1, 9, 0);
        assert!(tx.is_done());
        tx.wait(); // returns immediately
        assert!(tx.done_at() <= wtime());
    }

    #[test]
    fn self_send_loopback() {
        let f: Fabric<u8> = Fabric::new(FabricConfig::instant(2));
        let a = f.endpoint(0);
        a.send(0, 5, 0);
        // rank 0 node == rank 0 node: shmem path.
        assert_eq!(a.poll_shmem().unwrap().msg, 5);
    }
}
