//! Linear scatter.
//!
//! The root sends block `i` of its buffer to rank `i` (its own block
//! stays where it is); every rank's future yields its block. Counts may
//! differ per rank (`MPI_Scatterv`).

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::MpiResult;
use crate::sched::{Plan, Step};

use super::{offsets, CollFuture};

pub(crate) fn scatter(me: usize, counts: &[usize], root: usize) -> Plan {
    if me != root {
        return Plan::in_place(
            vec![Step::recv(root, 0..counts[me]), Step::Barrier],
            counts[me],
        );
    }
    let offs = offsets(counts);
    let mut steps: Vec<Step> = (0..counts.len())
        .filter(|&dst| dst != root)
        .map(|dst| Step::send(dst, offs[dst]..offs[dst + 1]))
        .collect();
    steps.push(Step::Barrier);
    Plan {
        steps,
        len: offs[counts.len()],
        at: 0,
        out: offs[root]..offs[root + 1],
    }
}

impl Comm {
    /// Nonblocking scatter (`MPI_Iscatter`): the root supplies
    /// `count * size` elements; every rank's future yields its
    /// `count`-element block.
    pub fn iscatter<T: MpiType>(
        &self,
        data: Option<&[T]>,
        count: usize,
        root: i32,
    ) -> MpiResult<CollFuture<T>> {
        self.iscatterv(data, &vec![count; self.size()], root)
    }

    /// Blocking scatter (`MPI_Scatter`).
    pub fn scatter<T: MpiType>(
        &self,
        data: Option<&[T]>,
        count: usize,
        root: i32,
    ) -> MpiResult<Vec<T>> {
        Ok(self.iscatter(data, count, root)?.wait_result()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;

    #[test]
    fn scatter_from_root0() {
        for n in [1, 2, 4, 6] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                let data: Option<Vec<i32>> = if proc.rank() == 0 {
                    Some((0..(2 * n) as i32).collect())
                } else {
                    None
                };
                comm.scatter(data.as_deref(), 2, 0).unwrap()
            });
            for (r, out) in results.iter().enumerate() {
                assert_eq!(
                    out,
                    &vec![2 * r as i32, 2 * r as i32 + 1],
                    "rank {r} of {n}"
                );
            }
        }
    }

    #[test]
    fn scatter_from_middle_root() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let data = if proc.rank() == 1 {
                Some(vec![10.0f64, 20.0, 30.0])
            } else {
                None
            };
            comm.scatter(data.as_deref(), 1, 1).unwrap()
        });
        assert_eq!(results[0], vec![10.0]);
        assert_eq!(results[1], vec![20.0]);
        assert_eq!(results[2], vec![30.0]);
    }

    #[test]
    fn scatter_count_mismatch() {
        let results = run_ranks(1, |proc| {
            let comm = proc.world_comm();
            comm.iscatter(Some(&[1i32, 2, 3]), 2, 0).is_err()
        });
        assert!(results[0]);
    }
}
