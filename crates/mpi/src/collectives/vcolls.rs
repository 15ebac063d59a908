//! Variable-count collectives: `MPI_Gatherv`, `MPI_Scatterv`,
//! `MPI_Allgatherv`.
//!
//! Counts differ per rank, so the count vector is an argument on every
//! rank (as in MPI, where `recvcounts`/`sendcounts` are significant at
//! the root / everywhere). Gatherv and scatterv are the linear plans of
//! [`super::gather`] and [`super::scatter`]; allgatherv is a linear
//! gather to rank 0 followed by a binomial bcast of the concatenation —
//! simple, correct baselines.

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::MpiResult;
use crate::sched::{Plan, Step};

use super::bcast::bcast_tree;
use super::gather::gather;
use super::scatter::scatter;
use super::{count_is, offsets, CollFuture};

pub(crate) fn allgatherv(me: usize, counts: &[usize]) -> Plan {
    let offs = offsets(counts);
    let block = |i: usize| offs[i]..offs[i + 1];
    let mut steps: Vec<Step> = match me {
        0 => (1..counts.len())
            .map(|src| Step::recv(src, block(src)))
            .collect(),
        _ => vec![Step::send(0, block(me))],
    };
    steps.push(Step::Barrier);
    let total = offs[counts.len()];
    steps.extend(bcast_tree(me, counts.len(), 0..total));
    Plan {
        steps,
        len: total,
        at: offs[me],
        out: 0..total,
    }
}

impl Comm {
    /// Nonblocking `MPI_Igatherv`: every rank contributes `data`
    /// (`counts[rank]` elements); the root's future yields the rank-order
    /// concatenation.
    pub fn igatherv<T: MpiType>(
        &self,
        data: &[T],
        counts: &[usize],
        root: i32,
    ) -> MpiResult<CollFuture<T>> {
        self.check_counts(counts, root)?;
        count_is(data.len(), counts[self.rank() as usize])?;
        self.start_sched(gather(self.rank() as usize, counts, root as usize), data)
    }

    /// Blocking `MPI_Gatherv`. `Some(concatenation)` at the root.
    pub fn gatherv<T: MpiType>(
        &self,
        data: &[T],
        counts: &[usize],
        root: i32,
    ) -> MpiResult<Option<Vec<T>>> {
        let (result, _) = self.igatherv(data, counts, root)?.wait_result()?;
        Ok((self.rank() == root).then_some(result))
    }

    /// Nonblocking `MPI_Iscatterv`: the root supplies the concatenation
    /// (`counts` elements per rank, in rank order); each rank's future
    /// yields its `counts[rank]`-element block.
    pub fn iscatterv<T: MpiType>(
        &self,
        data: Option<&[T]>,
        counts: &[usize],
        root: i32,
    ) -> MpiResult<CollFuture<T>> {
        self.check_counts(counts, root)?;
        let data = self.rooted_input(data, counts.iter().sum(), root)?;
        self.start_sched(scatter(self.rank() as usize, counts, root as usize), data)
    }

    /// Blocking `MPI_Scatterv`.
    pub fn scatterv<T: MpiType>(
        &self,
        data: Option<&[T]>,
        counts: &[usize],
        root: i32,
    ) -> MpiResult<Vec<T>> {
        Ok(self.iscatterv(data, counts, root)?.wait_result()?.0)
    }

    /// Blocking `MPI_Allgatherv` (gatherv to rank 0 + bcast of the
    /// concatenation, as one schedule).
    pub fn allgatherv<T: MpiType>(&self, data: &[T], counts: &[usize]) -> MpiResult<Vec<T>> {
        self.check_counts(counts, 0)?;
        count_is(data.len(), counts[self.rank() as usize])?;
        let plan = allgatherv(self.rank() as usize, counts);
        Ok(self.start_sched(plan, data)?.wait_result()?.0)
    }

    /// `root` in range and one count per rank.
    fn check_counts(&self, counts: &[usize], root: i32) -> MpiResult<()> {
        self.check_rank(root)?;
        count_is(counts.len(), self.size())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;

    #[test]
    fn gatherv_variable_blocks() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            let counts = vec![1usize, 2, 3, 4];
            let r = proc.rank() as i32;
            let data: Vec<i32> = (0..counts[r as usize] as i32).map(|i| r * 10 + i).collect();
            comm.gatherv(&data, &counts, 2).unwrap()
        });
        assert_eq!(
            results[2],
            Some(vec![0, 10, 11, 20, 21, 22, 30, 31, 32, 33])
        );
        assert!(results[0].is_none());
    }

    #[test]
    fn scatterv_variable_blocks() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let counts = vec![2usize, 0, 3];
            let data = (proc.rank() == 0).then(|| vec![1i64, 2, 30, 31, 32]);
            comm.scatterv(data.as_deref(), &counts, 0).unwrap()
        });
        assert_eq!(results[0], vec![1, 2]);
        assert_eq!(results[1], Vec::<i64>::new());
        assert_eq!(results[2], vec![30, 31, 32]);
    }

    #[test]
    fn allgatherv_roundtrip() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let counts = vec![3usize, 1, 2];
            let r = proc.rank();
            let data: Vec<u16> = (0..counts[r] as u16)
                .map(|i| (r as u16) * 100 + i)
                .collect();
            comm.allgatherv(&data, &counts).unwrap()
        });
        let expect = vec![0u16, 1, 2, 100, 200, 201];
        for out in results {
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn gatherv_validates_counts() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            comm.igatherv(&[1i32], &[1], 0).is_err() // counts.len() != size
                && comm.igatherv(&[1i32, 2], &[1, 1], 0).is_err() // own count mismatch
        });
        assert!(results.iter().all(|&e| e));
    }
}
