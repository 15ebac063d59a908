//! Ring allreduce: reduce-scatter phase + allgather phase, both around the
//! ring. Bandwidth-optimal (each rank moves `2·(P−1)/P` of the payload),
//! preferred over recursive doubling for large messages — the classic
//! algorithm-selection trade-off MPI implementations tune (and the A5
//! ablation measures).
//!
//! Phase 1 (reduce-scatter), P−1 steps: in step s, send block
//! `(rank − s) mod P` to the right neighbor, receive block
//! `(rank − s − 1) mod P` from the left and fold it into the local copy.
//! After P−1 steps, rank r holds the fully reduced block `(r + 1) mod P`.
//!
//! Phase 2 (allgather), P−1 steps: circulate the reduced blocks.

use crate::comm::Comm;
use crate::error::MpiResult;
use crate::op::{Op, Reducible};
use crate::sched::{Plan, Step};

use super::allgather::ring_allgather;
use super::{block_range, CollFuture};

pub(crate) fn allreduce_ring(me: usize, size: usize, n: usize) -> Vec<Step> {
    let block = |i: usize| block_range(n, size, i);
    let (right, left) = ((me + 1) % size, (me + size - 1) % size);
    let mut steps = Vec::new();
    for s in 0..size - 1 {
        steps.push(Step::send(right, block((me + size - s) % size)));
        steps.push(Step::recv_reduce(left, block((me + size - s - 1) % size)));
        steps.push(Step::Barrier);
    }
    steps.extend(ring_allgather(me, size, 1, block));
    steps
}

impl Comm {
    /// Payload size (bytes) above which [`Comm::iallreduce_auto`] switches
    /// from recursive doubling to the ring algorithm.
    pub const ALLREDUCE_RING_THRESHOLD: usize = 32 * 1024;

    /// Nonblocking ring allreduce (`MPI_Iallreduce`, large-message
    /// algorithm). Valid for any rank count.
    pub fn iallreduce_ring<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<CollFuture<T>> {
        let steps = allreduce_ring(self.rank() as usize, self.size(), data.len());
        self.start_reduce_sched(Plan::in_place(steps, data.len()), data, op)
    }

    /// Nonblocking allreduce with automatic algorithm selection:
    /// recursive doubling for latency-bound sizes, ring for
    /// bandwidth-bound sizes (≥ [`Comm::ALLREDUCE_RING_THRESHOLD`] bytes).
    pub fn iallreduce_auto<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<CollFuture<T>> {
        if data.len() * T::SIZE >= Self::ALLREDUCE_RING_THRESHOLD && self.size() > 2 {
            self.iallreduce_ring(data, op)
        } else {
            self.iallreduce(data, op)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;
    use super::*;

    #[test]
    fn block_ranges_partition_exactly() {
        for count in [0usize, 1, 5, 16, 17, 100] {
            for size in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                for i in 0..size {
                    let r = block_range(count, size, i);
                    assert_eq!(r.start, covered, "gap at block {i}");
                    covered = r.end;
                }
                assert_eq!(covered, count);
            }
        }
    }

    #[test]
    fn ring_allreduce_matches_reference() {
        for n in [2, 3, 4, 5, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                let data: Vec<i64> = (0..40).map(|i| i + proc.rank() as i64).collect();
                comm.iallreduce_ring(&data, Op::Sum).unwrap().wait().0
            });
            for out in results {
                for (i, v) in out.iter().enumerate() {
                    let expect: i64 = (0..n as i64).map(|r| i as i64 + r).sum();
                    assert_eq!(*v, expect, "index {i}, n={n}");
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_single_rank() {
        let results = run_ranks(1, |proc| {
            let comm = proc.world_comm();
            comm.iallreduce_ring(&[1i32, 2, 3], Op::Sum)
                .unwrap()
                .wait()
                .0
        });
        assert_eq!(results[0], vec![1, 2, 3]);
    }

    #[test]
    fn ring_allreduce_count_smaller_than_ranks() {
        // Some blocks are empty; the algorithm must still terminate.
        let results = run_ranks(6, |proc| {
            let comm = proc.world_comm();
            comm.iallreduce_ring(&[proc.rank() as i32 + 1], Op::Sum)
                .unwrap()
                .wait()
                .0
        });
        for out in results {
            assert_eq!(out, vec![21]);
        }
    }

    #[test]
    fn auto_selection_agrees_with_both_algorithms() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            // Small: recursive doubling path.
            let small = comm
                .iallreduce_auto(&[proc.rank() as i64], Op::Sum)
                .unwrap()
                .wait()
                .0;
            // Large: ring path (> 32 KiB of i64).
            let big: Vec<i64> = (0..8000).map(|i| i + proc.rank() as i64).collect();
            let big_out = comm.iallreduce_auto(&big, Op::Sum).unwrap().wait().0;
            (small, big_out)
        });
        for (small, big) in results {
            assert_eq!(small, vec![6]);
            assert_eq!(big.len(), 8000);
            for (i, v) in big.iter().enumerate() {
                assert_eq!(*v, 4 * i as i64 + 6);
            }
        }
    }

    #[test]
    fn ring_max_reduction() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let data: Vec<i32> = (0..10)
                .map(|i| (i * (proc.rank() as i32 + 1)) % 7)
                .collect();
            comm.iallreduce_ring(&data, Op::Max).unwrap().wait().0
        });
        for out in &results {
            for (i, v) in out.iter().enumerate() {
                let expect = (1..=3).map(|f| (i as i32 * f) % 7).max().unwrap();
                assert_eq!(*v, expect);
            }
        }
    }
}
