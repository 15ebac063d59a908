//! Topology-aware hierarchical collectives: an intra-node leg over the
//! fast substrate plus an inter-node leg among one leader per node.
//!
//! At 64–256 ranks a flat collective treats every pair of ranks as
//! equidistant; a box (or rack) is not like that. These are the flat
//! step lists of [`super`] run on sub-groups of the *same* communicator —
//! a node is `node_size` consecutive ranks, its first rank the leader —
//! with peers translated back by [`on_ranks`], so hierarchy is one more
//! schedule, not a second kind of communicator:
//!
//! * **allreduce** — intra-node binomial reduce to the node leader,
//!   leader-level allreduce (recursive doubling, or ring for
//!   bandwidth-bound payloads, by [`Comm::ALLREDUCE_RING_THRESHOLD`]),
//!   intra-node binomial bcast back out.
//! * **bcast** — binomial bcast among leaders, then inside every node;
//!   the root stands in as the leader of its own node.
//! * **barrier** — the allreduce of nothing: nobody's release can be sent
//!   before every node's arrival has reached the leaders.
//!
//! Only `n_nodes` ranks ever talk across node boundaries, so the
//! inter-node leg shrinks from `size` to `size / node_size`
//! participants while the intra-node legs run over whatever fast path
//! the transport gives co-located ranks (shared-memory rings under
//! `MPFA_TRANSPORT=shm`, loopback frames otherwise).

use crate::comm::Comm;
use crate::error::MpiResult;
use crate::op::{Op, Reducible};
use crate::sched::{on_ranks, Plan, Step};
use crate::MpiType;

use super::allreduce::allreduce_rd;
use super::bcast::bcast_tree;
use super::reduce::reduce_tree;
use super::ring_allreduce::allreduce_ring;
use super::{ceil_log2, CollFuture};

/// Env var declaring how many consecutive ranks share a node (the
/// launcher's topology hint). Unset or `0` means "derive": the whole
/// world is one node for worlds up to 8 ranks, else nodes of 8.
pub const ENV_NODE_SIZE: &str = "MPFA_NODE_SIZE";

/// Node size from the environment, falling back to a derived default.
pub fn node_size_from_env(world: usize) -> usize {
    match std::env::var(ENV_NODE_SIZE)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => {
            if world <= 8 {
                world.max(1)
            } else {
                8
            }
        }
    }
}

/// The leaders' rounds as a non-leader sees them: nothing to do, but the
/// same number of rounds, so the rounds after them keep their tags.
fn sit_out(lead: Vec<Step>, leader: bool) -> Vec<Step> {
    lead.into_iter()
        .filter(|s| leader || *s == Step::Barrier)
        .collect()
}

pub(crate) fn hier_allreduce(
    me: usize,
    size: usize,
    node: usize,
    n: usize,
    ring: bool,
) -> Vec<Step> {
    let (nid, local, nodes) = (me / node, me % node, size.div_ceil(node));
    let members = node.min(size - nid * node);
    let in_node = |l: usize| nid * node + l;

    let mut steps = on_ranks(reduce_tree(local, members, 0..n), in_node);
    // A short last node has a shallower tree; it idles so that the
    // leaders' rounds start at the same index on every node.
    let idle = ceil_log2(node.min(size)) - ceil_log2(members);
    steps.extend(std::iter::repeat_n(Step::Barrier, idle as usize));
    let lead = if ring {
        allreduce_ring(nid, nodes, n)
    } else {
        allreduce_rd(nid, nodes, n)
    };
    steps.extend(sit_out(on_ranks(lead, |k| k * node), local == 0));
    steps.extend(on_ranks(bcast_tree(local, members, 0..n), in_node));
    steps
}

pub(crate) fn hier_bcast(
    me: usize,
    size: usize,
    node: usize,
    count: usize,
    root: usize,
) -> Vec<Step> {
    let (nid, nodes, root_node) = (me / node, size.div_ceil(node), root / node);
    let members = node.min(size - nid * node);
    let leader = |k: usize| if k == root_node { root } else { k * node };
    // Both legs are rooted trees, run in root-relative order: nodes
    // counted from the root's node, a node's ranks from its leader.
    let first = leader(nid) - nid * node;
    let in_node = |rel: usize| nid * node + (rel + first) % members;
    let rel_node = (nid + nodes - root_node) % nodes;
    let rel_local = (me - nid * node + members - first) % members;

    let lead = bcast_tree(rel_node, nodes, 0..count);
    let mut steps = sit_out(
        on_ranks(lead, |rel| leader((rel + root_node) % nodes)),
        me == leader(nid),
    );
    steps.extend(on_ranks(bcast_tree(rel_local, members, 0..count), in_node));
    steps
}

impl Comm {
    /// Hierarchical allreduce over nodes of [`node_size_from_env`]
    /// consecutive ranks: intra-node reduce → leader allreduce →
    /// intra-node bcast. Same result on every rank as the flat
    /// algorithm, with only one rank per node on the inter-node leg.
    pub fn iallreduce_hier<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<CollFuture<T>> {
        self.allreduce_on_nodes(data, op, node_size_from_env(self.size()))
    }

    fn allreduce_on_nodes<T: Reducible>(
        &self,
        data: &[T],
        op: Op,
        node: usize,
    ) -> MpiResult<CollFuture<T>> {
        let (size, n) = (self.size(), data.len());
        let ring = n * T::SIZE >= Self::ALLREDUCE_RING_THRESHOLD && size.div_ceil(node) > 2;
        let steps = hier_allreduce(self.rank() as usize, size, node, n, ring);
        self.start_reduce_sched(Plan::in_place(steps, n), data, op)
    }

    /// Hierarchical bcast of `count` elements from `root`: binomial bcast
    /// among node leaders, then inside every node.
    pub fn ibcast_hier<T: MpiType>(
        &self,
        data: Option<&[T]>,
        count: usize,
        root: i32,
    ) -> MpiResult<CollFuture<T>> {
        self.bcast_on_nodes(data, count, root, node_size_from_env(self.size()))
    }

    fn bcast_on_nodes<T: MpiType>(
        &self,
        data: Option<&[T]>,
        count: usize,
        root: i32,
        node: usize,
    ) -> MpiResult<CollFuture<T>> {
        let data = self.rooted_input(data, count, root)?;
        let steps = hier_bcast(
            self.rank() as usize,
            self.size(),
            node,
            count,
            root as usize,
        );
        self.start_sched(Plan::in_place(steps, count), data)
    }

    /// Hierarchical barrier: node arrival, leader exchange, node release.
    pub fn ibarrier_hier(&self) -> MpiResult<CollFuture<u8>> {
        self.iallreduce_hier(&[], Op::Sum)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;
    use super::*;

    #[test]
    fn node_size_default_derivation() {
        // Without the env var: whole world while small, nodes of 8 after.
        if std::env::var(ENV_NODE_SIZE).is_err() {
            assert_eq!(node_size_from_env(4), 4);
            assert_eq!(node_size_from_env(8), 8);
            assert_eq!(node_size_from_env(64), 8);
        }
    }

    #[test]
    fn hier_allreduce_matches_flat() {
        for (ranks, node_size) in [(8, 4), (8, 3), (6, 2), (8, 1), (4, 8)] {
            let results = run_ranks(ranks, move |proc| {
                let comm = proc.world_comm();
                let mine: Vec<i64> = (0..5).map(|i| (proc.rank() as i64 + 1) * (i + 1)).collect();
                let hier = comm.allreduce_on_nodes(&mine, Op::Sum, node_size).unwrap();
                let got = hier.wait_result().unwrap().0;
                let flat = comm.allreduce(&mine, Op::Sum).unwrap();
                assert_eq!(got, flat, "ranks={ranks} node={node_size}");
                got[0]
            });
            let expect: i64 = (1..=ranks as i64).sum();
            assert!(results.iter().all(|&v| v == expect));
        }
    }

    #[test]
    fn hier_allreduce_rings_large_payloads_among_leaders() {
        let results = run_ranks(7, |proc| {
            let comm = proc.world_comm();
            let mine: Vec<i64> = (0..5000).map(|i| i + proc.rank() as i64).collect();
            let hier = comm.allreduce_on_nodes(&mine, Op::Sum, 2).unwrap();
            hier.wait_result().unwrap().0
        });
        for out in results {
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 7 * i as i64 + 21);
            }
        }
    }

    #[test]
    fn hier_bcast_from_every_root() {
        let ranks = 8;
        let results = run_ranks(ranks, |proc| {
            let comm = proc.world_comm();
            let mut out = Vec::new();
            for root in 0..ranks as i32 {
                let payload = vec![root as i64 * 100 + 7; 6];
                let data = (comm.rank() == root).then_some(payload.as_slice());
                let fut = comm.bcast_on_nodes(data, 6, root, 3).unwrap();
                let buf = fut.wait_result().unwrap().0;
                assert_eq!(buf, payload);
                out.push(buf[0]);
            }
            out
        });
        for r in results {
            assert_eq!(
                r,
                (0..ranks as i64).map(|n| n * 100 + 7).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn hier_barrier_orders_all_nodes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        let arrived = &arrived;
        let ranks = 6;
        run_ranks(ranks, move |proc| {
            let comm = proc.world_comm();
            arrived.fetch_add(1, Ordering::SeqCst);
            let barrier = comm.allreduce_on_nodes::<u8>(&[], Op::Sum, 2).unwrap();
            barrier.wait_result().unwrap();
            // After the barrier, every rank must have arrived.
            assert_eq!(arrived.load(Ordering::SeqCst), ranks);
        });
    }
}
