//! Binomial-tree reduce (commutative operations).
//!
//! Root-relative rank `r` receives partial results from children
//! `r + 2^k` (for each `k` with `r + 2^k < size` until `r`'s own bit),
//! folding each into its accumulator, then sends the accumulator to parent
//! `r - 2^k`. The root ends with the full reduction.

use std::ops::Range;

use crate::comm::Comm;
use crate::error::MpiResult;
use crate::op::{Op, Reducible};
use crate::sched::{on_ranks, Plan, Step};

use super::{ceil_log2, CollFuture};

/// Reduce `range` onto rank 0 of `0..n` up the binomial tree.
pub(crate) fn reduce_tree(rel: usize, n: usize, range: Range<usize>) -> Vec<Step> {
    let mut steps = Vec::new();
    for k in 0..ceil_log2(n) {
        let m = 1usize << k;
        if rel % (2 * m) == m {
            steps.push(Step::send(rel - m, range.clone()));
        } else if rel.is_multiple_of(2 * m) && rel + m < n {
            steps.push(Step::recv_reduce(rel + m, range.clone()));
        }
        steps.push(Step::Barrier);
    }
    steps
}

pub(crate) fn reduce(me: usize, size: usize, n: usize, root: usize) -> Plan {
    let rel = (me + size - root) % size;
    let steps = on_ranks(reduce_tree(rel, size, 0..n), |r| (r + root) % size);
    let out = if me == root { 0..n } else { 0..0 };
    Plan {
        steps,
        len: n,
        at: 0,
        out,
    }
}

impl Comm {
    /// Nonblocking reduce (`MPI_Ireduce`) of `data` with `op` to `root`.
    /// The root's future yields the reduction; other ranks get an empty
    /// vector.
    pub fn ireduce<T: Reducible>(&self, data: &[T], op: Op, root: i32) -> MpiResult<CollFuture<T>> {
        self.check_rank(root)?;
        let plan = reduce(self.rank() as usize, self.size(), data.len(), root as usize);
        self.start_reduce_sched(plan, data, op)
    }

    /// Blocking reduce (`MPI_Reduce`). Returns `Some(result)` at the root,
    /// `None` elsewhere.
    pub fn reduce<T: Reducible>(&self, data: &[T], op: Op, root: i32) -> MpiResult<Option<Vec<T>>> {
        let (result, _) = self.ireduce(data, op, root)?.wait_result()?;
        Ok((self.rank() == root).then_some(result))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;
    use super::*;

    #[test]
    fn reduce_sum_to_root0() {
        for n in [1, 2, 3, 4, 5, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                let data = vec![proc.rank() as i64 + 1, 10 * (proc.rank() as i64 + 1)];
                comm.reduce(&data, Op::Sum, 0).unwrap()
            });
            let total: i64 = (1..=n as i64).sum();
            assert_eq!(results[0], Some(vec![total, 10 * total]), "n={n}");
            for r in results.iter().skip(1) {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn reduce_max_to_nonzero_root() {
        let results = run_ranks(6, |proc| {
            let comm = proc.world_comm();
            let data = vec![(proc.rank() as i32 * 7) % 5];
            comm.reduce(&data, Op::Max, 2).unwrap()
        });
        let expect = (0..6).map(|r| (r * 7) % 5).max().unwrap();
        assert_eq!(results[2], Some(vec![expect]));
    }

    #[test]
    fn reduce_float_prod() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            comm.reduce(&[2.0f64], Op::Prod, 0).unwrap()
        });
        assert_eq!(results[0], Some(vec![16.0]));
    }

    #[test]
    fn reduce_bad_op_rejected_at_initiation() {
        let results = run_ranks(1, |proc| {
            let comm = proc.world_comm();
            comm.ireduce(&[1.0f32], Op::Bxor, 0).is_err()
        });
        assert!(results[0]);
    }

    #[test]
    fn repeated_reduces() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let mut sums = Vec::new();
            for round in 0..8i32 {
                let out = comm
                    .reduce(&[round + proc.rank() as i32], Op::Sum, 0)
                    .unwrap();
                if let Some(v) = out {
                    sums.push(v[0]);
                }
            }
            sums
        });
        assert_eq!(results[0], (0..8).map(|r| 3 * r + 3).collect::<Vec<i32>>());
    }
}
