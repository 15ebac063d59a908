//! Fabric topology and wire-cost configuration.

/// Configuration of a simulated fabric.
///
/// The topology is `ranks` endpoints grouped into nodes of `node_size`
/// consecutive ranks (`node = rank / node_size`). Same-node traffic uses
/// the shared-memory path; cross-node traffic uses the network path.
///
/// Wire costs: a packet of `b` payload bytes from `src` to `dst` arrives
/// `latency + b / bandwidth` after the directed channel `(src, dst)` is
/// free; packets on one directed channel never overtake each other.
/// A bandwidth of `0.0` means infinite (no serialization cost).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Number of endpoints (ranks).
    pub ranks: usize,
    /// Ranks per node; same-node pairs take the shmem path.
    pub node_size: usize,
    /// One-way latency for cross-node packets, seconds.
    pub inter_latency: f64,
    /// One-way latency for same-node packets, seconds.
    pub intra_latency: f64,
    /// Cross-node bandwidth, bytes/second (`0.0` = infinite).
    pub inter_bandwidth: f64,
    /// Same-node bandwidth, bytes/second (`0.0` = infinite).
    pub intra_bandwidth: f64,
    /// Largest payload a single packet may carry. Protocol layers must
    /// chunk larger transfers (the pipeline mode of the paper's §2.1).
    pub mtu: usize,
    /// Per-packet latency jitter as a fraction of the path latency
    /// (0.0 = deterministic). Jitter is derived from a deterministic hash
    /// of the packet sequence number, so runs are repeatable; per-channel
    /// FIFO is preserved by clamping arrivals to be monotone per channel.
    pub jitter: f64,
}

impl FabricConfig {
    /// An instant, deterministic fabric: zero latency, infinite bandwidth.
    /// Every rank on its own node (all traffic via the network path).
    pub fn instant(ranks: usize) -> FabricConfig {
        FabricConfig {
            ranks,
            node_size: 1,
            inter_latency: 0.0,
            intra_latency: 0.0,
            inter_bandwidth: 0.0,
            intra_bandwidth: 0.0,
            mtu: usize::MAX,
            jitter: 0.0,
        }
    }

    /// An instant fabric with `node_size` ranks per node, so that both the
    /// shmem and netmod paths get exercised.
    pub fn instant_nodes(ranks: usize, node_size: usize) -> FabricConfig {
        FabricConfig {
            node_size,
            ..FabricConfig::instant(ranks)
        }
    }

    /// A "cluster-like" fabric: one rank per node, microsecond-scale
    /// latency and GB/s-scale bandwidth — loosely shaped after the paper's
    /// Bebop/Omni-Path testbed (one process per node, ~1–2 µs MPI latency).
    pub fn cluster(ranks: usize) -> FabricConfig {
        FabricConfig {
            ranks,
            node_size: 1,
            inter_latency: 1.5e-6,
            intra_latency: 0.2e-6,
            inter_bandwidth: 12.0e9,
            intra_bandwidth: 40.0e9,
            mtu: 1 << 22,
            jitter: 0.0,
        }
    }

    /// A "multicore node" fabric: every rank on one node, shmem path only.
    pub fn single_node(ranks: usize) -> FabricConfig {
        FabricConfig {
            ranks,
            node_size: ranks.max(1),
            inter_latency: 1.5e-6,
            intra_latency: 0.2e-6,
            inter_bandwidth: 12.0e9,
            intra_bandwidth: 40.0e9,
            mtu: 1 << 22,
            jitter: 0.0,
        }
    }

    /// The node index hosting `rank`.
    #[inline]
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        rank / self.node_size.max(1)
    }

    /// Whether `a` and `b` share a node (shmem path).
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// One-way latency for a packet from `src` to `dst`, seconds.
    #[inline]
    pub fn latency(&self, src: usize, dst: usize) -> f64 {
        if self.same_node(src, dst) {
            self.intra_latency
        } else {
            self.inter_latency
        }
    }

    /// Transmission (serialization) time for `bytes` from `src` to `dst`.
    #[inline]
    pub(crate) fn tx_time(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        let bw = if self.same_node(src, dst) {
            self.intra_bandwidth
        } else {
            self.inter_bandwidth
        };
        if bw <= 0.0 {
            0.0
        } else {
            bytes as f64 / bw
        }
    }

    /// Validate invariants; panics with a descriptive message on nonsense
    /// configurations.
    pub fn validate(&self) {
        assert!(self.ranks > 0, "fabric needs at least one rank");
        assert!(self.node_size > 0, "node_size must be positive");
        assert!(
            self.inter_latency >= 0.0 && self.intra_latency >= 0.0,
            "negative latency"
        );
        assert!(
            self.inter_bandwidth >= 0.0 && self.intra_bandwidth >= 0.0,
            "negative bandwidth"
        );
        assert!(self.mtu > 0, "mtu must be positive");
        assert!(
            (0.0..=8.0).contains(&self.jitter),
            "jitter must be a non-negative fraction (got {})",
            self.jitter
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_is_flat() {
        let c = FabricConfig::instant(4);
        c.validate();
        assert_eq!(c.latency(0, 3), 0.0);
        assert_eq!(c.tx_time(0, 3, 1 << 20), 0.0);
        assert!(!c.same_node(0, 1));
    }

    #[test]
    fn node_mapping() {
        let c = FabricConfig::instant_nodes(8, 4);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(3), 0);
        assert_eq!(c.node_of(4), 1);
        assert!(c.same_node(1, 2));
        assert!(!c.same_node(3, 4));
    }

    #[test]
    fn cluster_charges_latency_and_bandwidth() {
        let c = FabricConfig::cluster(2);
        assert!(c.latency(0, 1) > 0.0);
        assert!(c.tx_time(0, 1, 1 << 20) > 0.0);
        assert!(c.tx_time(0, 1, 0) == 0.0);
    }

    #[test]
    fn single_node_uses_intra_costs() {
        let c = FabricConfig::single_node(8);
        assert!(c.same_node(0, 7));
        assert_eq!(c.latency(0, 7), c.intra_latency);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        FabricConfig::instant(0).validate();
    }

    #[test]
    fn self_send_is_same_node() {
        let c = FabricConfig::instant(4);
        assert!(c.same_node(2, 2));
    }
}
