//! Ring allgather.
//!
//! P−1 rounds: in round r, send the block received in round r−1 (initially
//! your own) to the right neighbor and receive the next block from the
//! left neighbor. Bandwidth-optimal for large payloads.

use std::ops::Range;

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::MpiResult;
use crate::sched::{Plan, Step};

use super::CollFuture;

/// Circulate blocks around the ring until every rank holds all of them.
/// Rank `r` starts out owning block `(r + first) mod P`; `block(i)` is
/// block `i`'s range of the buffer.
pub(super) fn ring_allgather(
    me: usize,
    size: usize,
    first: usize,
    block: impl Fn(usize) -> Range<usize>,
) -> Vec<Step> {
    let (right, left) = ((me + 1) % size, (me + size - 1) % size);
    let mut steps = Vec::new();
    for r in 0..size - 1 {
        steps.push(Step::send(right, block((me + first + size - r) % size)));
        steps.push(Step::recv(left, block((me + first + size - r - 1) % size)));
        steps.push(Step::Barrier);
    }
    steps
}

pub(crate) fn allgather(me: usize, size: usize, count: usize) -> Plan {
    Plan {
        steps: ring_allgather(me, size, 0, |i| i * count..(i + 1) * count),
        len: size * count,
        at: me * count,
        out: 0..size * count,
    }
}

impl Comm {
    /// Nonblocking allgather (`MPI_Iallgather`): every rank contributes
    /// `data` (same length everywhere); the future yields the
    /// concatenation in rank order.
    pub fn iallgather<T: MpiType>(&self, data: &[T]) -> MpiResult<CollFuture<T>> {
        let plan = allgather(self.rank() as usize, self.size(), data.len());
        self.start_sched(plan, data)
    }

    /// Blocking allgather (`MPI_Allgather`).
    pub fn allgather<T: MpiType>(&self, data: &[T]) -> MpiResult<Vec<T>> {
        Ok(self.iallgather(data)?.wait_result()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;

    #[test]
    fn allgather_rank_ids() {
        for n in [1, 2, 3, 4, 7, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                comm.allgather(&[proc.rank() as i32]).unwrap()
            });
            let expect: Vec<i32> = (0..n as i32).collect();
            for (r, out) in results.iter().enumerate() {
                assert_eq!(out, &expect, "rank {r} of {n}");
            }
        }
    }

    #[test]
    fn allgather_multi_element_blocks() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            let r = proc.rank() as i64;
            comm.allgather(&[r * 10, r * 10 + 1]).unwrap()
        });
        let expect = vec![0, 1, 10, 11, 20, 21, 30, 31];
        for out in results {
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn allgather_empty_blocks() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            comm.allgather::<i32>(&[]).unwrap()
        });
        for out in results {
            assert!(out.is_empty());
        }
    }
}
