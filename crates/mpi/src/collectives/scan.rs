//! Inclusive and exclusive prefix scans (`MPI_Scan` / `MPI_Exscan`),
//! using the classic distance-doubling algorithm for commutative-and-
//! associative operations.
//!
//! Round k: send the partial of the contiguous span ending at this rank to
//! `rank + 2^k`, fold what arrives from `rank − 2^k` into it. ⌈log₂ P⌉
//! rounds. The inclusive prefix *is* that partial. The exclusive prefix
//! leaves out the rank's own value, so it is folded separately from the
//! same payloads, which land in a scratch third of the buffer first.

use crate::comm::Comm;
use crate::error::MpiResult;
use crate::op::{Op, Reducible};
use crate::sched::{Land, Plan, Step};

use super::CollFuture;

pub(crate) fn scan(me: usize, size: usize, n: usize, exclusive: bool) -> Plan {
    let (partial, prefix, scratch) = (0..n, n..2 * n, 2 * n..3 * n);
    let mut steps = Vec::new();
    let mut m = 1;
    while m < size {
        if me + m < size {
            steps.push(Step::send(me + m, partial.clone()));
        }
        if me >= m && !exclusive {
            steps.push(Step::recv_reduce(me - m, partial.clone()));
        } else if me >= m {
            steps.push(Step::recv(me - m, scratch.clone()));
            // The first payload from below seeds the exclusive prefix.
            let land = if m == 1 { Land::Copy } else { Land::Reduce };
            let (src, dst) = (scratch.clone(), prefix.clone());
            steps.push(Step::Local { src, dst, land });
            let (src, dst, land) = (scratch.clone(), partial.clone(), Land::Reduce);
            steps.push(Step::Local { src, dst, land });
        }
        steps.push(Step::Barrier);
        m <<= 1;
    }
    if !exclusive {
        return Plan::in_place(steps, n);
    }
    // Rank 0 never receives: its exscan value is undefined in MPI; we
    // report it as empty.
    let out = if me == 0 { 0..0 } else { prefix };
    Plan {
        steps,
        len: 3 * n,
        at: 0,
        out,
    }
}

impl Comm {
    /// Nonblocking inclusive scan (`MPI_Iscan`): rank r's future yields
    /// `op(data_0, …, data_r)`.
    pub fn iscan<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<CollFuture<T>> {
        let plan = scan(self.rank() as usize, self.size(), data.len(), false);
        self.start_reduce_sched(plan, data, op)
    }

    /// Nonblocking exclusive scan (`MPI_Iexscan`): rank r's future yields
    /// `op(data_0, …, data_{r-1})`; rank 0 gets an empty vector
    /// (MPI leaves it undefined).
    pub fn iexscan<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<CollFuture<T>> {
        let plan = scan(self.rank() as usize, self.size(), data.len(), true);
        self.start_reduce_sched(plan, data, op)
    }

    /// Blocking inclusive scan (`MPI_Scan`).
    pub fn scan<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<Vec<T>> {
        Ok(self.iscan(data, op)?.wait_result()?.0)
    }

    /// Blocking exclusive scan (`MPI_Exscan`). Rank 0 receives an empty
    /// vector.
    pub fn exscan<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<Vec<T>> {
        Ok(self.iexscan(data, op)?.wait_result()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;
    use super::*;

    #[test]
    fn inclusive_scan_sums_prefixes() {
        for n in [1, 2, 3, 4, 5, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                comm.scan(&[proc.rank() as i64 + 1], Op::Sum).unwrap()
            });
            for (r, out) in results.iter().enumerate() {
                let expect: i64 = (1..=r as i64 + 1).sum();
                assert_eq!(out, &vec![expect], "rank {r} of {n}");
            }
        }
    }

    #[test]
    fn exclusive_scan_drops_own_value() {
        for n in [1, 2, 4, 7] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                comm.exscan(&[proc.rank() as i32 + 1], Op::Sum).unwrap()
            });
            assert!(results[0].is_empty(), "rank 0 exscan is undefined/empty");
            for (r, out) in results.iter().enumerate().skip(1) {
                let expect: i32 = (1..=r as i32).sum();
                assert_eq!(out, &vec![expect], "rank {r} of {n}");
            }
        }
    }

    #[test]
    fn scan_with_max_gives_running_maximum() {
        let results = run_ranks(6, |proc| {
            let comm = proc.world_comm();
            let v = [((proc.rank() as i32) * 7) % 5];
            comm.scan(&v, Op::Max).unwrap()
        });
        let values: Vec<i32> = (0..6).map(|r| (r * 7) % 5).collect();
        for (r, out) in results.iter().enumerate() {
            let expect = values[..=r].iter().copied().max().unwrap();
            assert_eq!(out[0], expect);
        }
    }

    #[test]
    fn multi_element_scan() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            let r = proc.rank() as i64;
            comm.scan(&[r, 2 * r, 100], Op::Sum).unwrap()
        });
        for (r, out) in results.iter().enumerate() {
            let s: i64 = (0..=r as i64).sum();
            assert_eq!(out, &vec![s, 2 * s, 100 * (r as i64 + 1)]);
        }
    }
}
