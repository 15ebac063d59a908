//! Reduce-scatter with equal blocks (`MPI_Reduce_scatter_block`):
//! element-wise reduction of a `count * P` buffer, rank `i` receiving
//! block `i` of the result.
//!
//! Algorithm: pairwise exchange (each rank sends block `j` to rank `j`,
//! receives P−1 contributions for its own block, reduces locally) — the
//! alltoall-shaped variant, simple and contention-free on the simulated
//! fabric.

use crate::comm::Comm;
use crate::error::MpiResult;
use crate::op::{Op, Reducible};
use crate::sched::{Plan, Step};

use super::{count_is, CollFuture};

pub(crate) fn reduce_scatter_block(me: usize, size: usize, count: usize) -> Plan {
    let block = |i: usize| i * count..(i + 1) * count;
    let peers = || (0..size).filter(move |&p| p != me);
    let mut steps: Vec<Step> = peers()
        .map(|src| Step::recv_reduce(src, block(me)))
        .collect();
    steps.extend(peers().map(|dst| Step::send(dst, block(dst))));
    steps.push(Step::Barrier);
    Plan {
        steps,
        len: size * count,
        at: 0,
        out: block(me),
    }
}

impl Comm {
    /// Nonblocking equal-block reduce-scatter
    /// (`MPI_Ireduce_scatter_block`): `data` holds `count` elements per
    /// destination rank; rank `i`'s future yields the element-wise
    /// reduction of every rank's block `i`.
    pub fn ireduce_scatter_block<T: Reducible>(
        &self,
        data: &[T],
        count: usize,
        op: Op,
    ) -> MpiResult<CollFuture<T>> {
        count_is(data.len(), count * self.size())?;
        let plan = reduce_scatter_block(self.rank() as usize, self.size(), count);
        self.start_reduce_sched(plan, data, op)
    }

    /// Blocking equal-block reduce-scatter (`MPI_Reduce_scatter_block`).
    pub fn reduce_scatter_block<T: Reducible>(
        &self,
        data: &[T],
        count: usize,
        op: Op,
    ) -> MpiResult<Vec<T>> {
        Ok(self
            .ireduce_scatter_block(data, count, op)?
            .wait_result()?
            .0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;
    use super::*;

    #[test]
    fn reduce_scatter_blocks_hold_reductions() {
        for n in [1, 2, 3, 4, 6] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                // data[dst*2 + k] = rank + dst*10 + k*100
                let r = proc.rank() as i64;
                let data: Vec<i64> = (0..2 * n)
                    .map(|i| r + (i / 2) as i64 * 10 + (i % 2) as i64 * 100)
                    .collect();
                comm.reduce_scatter_block(&data, 2, Op::Sum).unwrap()
            });
            let rank_sum: i64 = (0..n as i64).sum();
            for (dst, out) in results.iter().enumerate() {
                let expect: Vec<i64> = (0..2)
                    .map(|k| rank_sum + (dst as i64 * 10 + k * 100) * n as i64)
                    .collect();
                assert_eq!(out, &expect, "rank {dst} of {n}");
            }
        }
    }

    #[test]
    fn reduce_scatter_count_mismatch() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            comm.ireduce_scatter_block(&[1i32; 3], 2, Op::Sum).is_err()
        });
        assert!(results.iter().all(|&e| e));
    }

    #[test]
    fn reduce_scatter_max() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let r = proc.rank() as i32;
            // Block j value: (r * 7 + j) % 5
            let data: Vec<i32> = (0..3).map(|j| (r * 7 + j) % 5).collect();
            comm.reduce_scatter_block(&data, 1, Op::Max).unwrap()
        });
        for (j, out) in results.iter().enumerate() {
            let expect = (0..3).map(|r| (r * 7 + j as i32) % 5).max().unwrap();
            assert_eq!(out, &vec![expect]);
        }
    }
}
