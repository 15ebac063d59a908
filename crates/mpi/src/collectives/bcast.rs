//! Binomial-tree broadcast.
//!
//! Each non-root rank receives the payload from its tree parent, then
//! forwards it to all of its children at once. Peers are computed in
//! root-relative space, as in MPICH's binomial bcast: the parent of `rel`
//! is `rel` with its lowest set bit cleared, its children are `rel + m`
//! for every power of two `m` below that bit. A rank `d` hops from the
//! root (`d` = the number of set bits of `rel`) is reached in round
//! `d − 1` and forwards in round `d`.

use std::ops::Range;

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::MpiResult;
use crate::sched::{on_ranks, Plan, Step};

use super::{ceil_log2, CollFuture};

/// Broadcast `range` from rank 0 of `0..n` down the binomial tree.
pub(crate) fn bcast_tree(rel: usize, n: usize, range: Range<usize>) -> Vec<Step> {
    let depth = rel.count_ones();
    let span = if rel == 0 {
        n
    } else {
        1 << rel.trailing_zeros()
    };
    let mut steps = Vec::new();
    for round in 0..=ceil_log2(n) {
        if round + 1 == depth {
            steps.push(Step::recv(rel - span, range.clone()));
        } else if round == depth {
            let children = (0..ceil_log2(span)).rev().map(|j| rel + (1 << j));
            steps.extend(
                children
                    .filter(|&c| c < n)
                    .map(|c| Step::send(c, range.clone())),
            );
        }
        steps.push(Step::Barrier);
    }
    steps
}

pub(crate) fn bcast(me: usize, size: usize, count: usize, root: usize) -> Plan {
    let rel = (me + size - root) % size;
    let steps = on_ranks(bcast_tree(rel, size, 0..count), |r| (r + root) % size);
    Plan::in_place(steps, count)
}

impl Comm {
    /// Nonblocking broadcast (`MPI_Ibcast`) of `count` elements from
    /// `root`. The root passes `Some(data)`; other ranks pass `None`.
    /// The future's payload is the broadcast data on every rank.
    pub fn ibcast<T: MpiType>(
        &self,
        data: Option<&[T]>,
        count: usize,
        root: i32,
    ) -> MpiResult<CollFuture<T>> {
        let data = self.rooted_input(data, count, root)?;
        let plan = bcast(self.rank() as usize, self.size(), count, root as usize);
        self.start_sched(plan, data)
    }

    /// Blocking broadcast (`MPI_Bcast`): `buf` is input at the root and
    /// output everywhere.
    pub fn bcast<T: MpiType>(&self, buf: &mut Vec<T>, count: usize, root: i32) -> MpiResult<()> {
        let data = (self.rank() == root).then_some(buf.as_slice());
        *buf = self.ibcast(data, count, root)?.wait_result()?.0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;
    use super::*;

    /// Tree peers in root-relative rank space, read off the step list: who
    /// we receive from (None for the root) and who we forward to
    /// (descending subtree spans).
    fn binomial_peers(relative: usize, size: usize) -> (Option<usize>, Vec<usize>) {
        let (mut recv_from, mut dsts) = (None, Vec::new());
        for step in bcast_tree(relative, size, 0..1) {
            match step {
                Step::Recv { from, .. } => recv_from = Some(from),
                Step::Send { to, .. } => dsts.push(to),
                _ => {}
            }
        }
        (recv_from, dsts)
    }

    #[test]
    fn binomial_peers_shape() {
        // size 8, root-relative:
        // 0 receives from nobody, sends to 4,2,1
        assert_eq!(binomial_peers(0, 8), (None, vec![4, 2, 1]));
        // 1 receives from 0, sends to nobody
        assert_eq!(binomial_peers(1, 8), (Some(0), vec![]));
        // 2 receives from 0, sends to 3
        assert_eq!(binomial_peers(2, 8), (Some(0), vec![3]));
        // 4 receives from 0, sends to 6, 5
        assert_eq!(binomial_peers(4, 8), (Some(0), vec![6, 5]));
        // 6 receives from 4, sends to 7
        assert_eq!(binomial_peers(6, 8), (Some(4), vec![7]));
    }

    #[test]
    fn binomial_peers_non_pof2() {
        // size 5: 0 sends to 4, 2, 1; 4 receives from 0.
        assert_eq!(binomial_peers(0, 5), (None, vec![4, 2, 1]));
        assert_eq!(binomial_peers(4, 5), (Some(0), vec![]));
        assert_eq!(binomial_peers(3, 5), (Some(2), vec![]));
    }

    #[test]
    fn every_rank_reached_exactly_once() {
        for size in 1..=16 {
            let mut received = vec![0; size];
            for (r, slot) in received.iter_mut().enumerate() {
                let (src, _) = binomial_peers(r, size);
                if src.is_some() {
                    *slot += 1;
                }
            }
            let mut sent_to = vec![0; size];
            for r in 0..size {
                let (_, dsts) = binomial_peers(r, size);
                for d in dsts {
                    sent_to[d] += 1;
                }
            }
            for r in 1..size {
                assert_eq!(received[r], 1, "rank {r} of {size}");
                assert_eq!(sent_to[r], 1, "rank {r} of {size}");
            }
            assert_eq!(sent_to[0], 0);
        }
    }

    #[test]
    fn bcast_from_rank0() {
        for n in [1, 2, 4, 5, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                let mut buf: Vec<i32> = if proc.rank() == 0 {
                    vec![11, 22, 33]
                } else {
                    Vec::new()
                };
                comm.bcast(&mut buf, 3, 0).unwrap();
                buf
            });
            for (r, buf) in results.iter().enumerate() {
                assert_eq!(buf, &vec![11, 22, 33], "rank {r} of {n}");
            }
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let results = run_ranks(6, |proc| {
            let comm = proc.world_comm();
            let mut buf: Vec<f64> = if proc.rank() == 3 {
                vec![2.5; 4]
            } else {
                Vec::new()
            };
            comm.bcast(&mut buf, 4, 3).unwrap();
            buf
        });
        for buf in results {
            assert_eq!(buf, vec![2.5; 4]);
        }
    }

    #[test]
    fn bcast_root_count_mismatch_errors() {
        let results = run_ranks(1, |proc| {
            let comm = proc.world_comm();
            comm.ibcast::<i32>(Some(&[1, 2]), 3, 0).is_err()
        });
        assert!(results[0]);
    }

    #[test]
    fn repeated_bcasts_in_order() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            let mut got = Vec::new();
            for round in 0..10i32 {
                let mut buf = if proc.rank() == 0 {
                    vec![round]
                } else {
                    Vec::new()
                };
                comm.bcast(&mut buf, 1, 0).unwrap();
                got.push(buf[0]);
            }
            got
        });
        for buf in results {
            assert_eq!(buf, (0..10).collect::<Vec<i32>>());
        }
    }
}
