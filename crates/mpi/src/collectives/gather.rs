//! Linear gather.
//!
//! Non-roots send their block to the root; the root receives P−1 blocks
//! (its own is already in place) and delivers the rank-ordered
//! concatenation. Counts may differ per rank (`MPI_Gatherv`).

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::MpiResult;
use crate::sched::{Plan, Step};

use super::{offsets, CollFuture};

pub(crate) fn gather(me: usize, counts: &[usize], root: usize) -> Plan {
    if me != root {
        return Plan {
            steps: vec![Step::send(root, 0..counts[me]), Step::Barrier],
            len: counts[me],
            at: 0,
            out: 0..0,
        };
    }
    let offs = offsets(counts);
    let mut steps: Vec<Step> = (0..counts.len())
        .filter(|&src| src != root)
        .map(|src| Step::recv(src, offs[src]..offs[src + 1]))
        .collect();
    steps.push(Step::Barrier);
    let total = offs[counts.len()];
    Plan {
        steps,
        len: total,
        at: offs[root],
        out: 0..total,
    }
}

impl Comm {
    /// Nonblocking gather (`MPI_Igather`) of equal-length blocks to
    /// `root`. The root's future yields the rank-ordered concatenation.
    pub fn igather<T: MpiType>(&self, data: &[T], root: i32) -> MpiResult<CollFuture<T>> {
        self.igatherv(data, &vec![data.len(); self.size()], root)
    }

    /// Blocking gather (`MPI_Gather`). Returns `Some(concatenation)` at
    /// the root, `None` elsewhere.
    pub fn gather<T: MpiType>(&self, data: &[T], root: i32) -> MpiResult<Option<Vec<T>>> {
        let (result, _) = self.igather(data, root)?.wait_result()?;
        Ok((self.rank() == root).then_some(result))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;

    #[test]
    fn gather_to_root0() {
        for n in [1, 2, 5, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                comm.gather(&[proc.rank() as i32, -(proc.rank() as i32)], 0)
                    .unwrap()
            });
            let mut expect = Vec::new();
            for r in 0..n as i32 {
                expect.extend([r, -r]);
            }
            assert_eq!(results[0], Some(expect), "n={n}");
            for r in results.iter().skip(1) {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn gather_to_last_rank() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            comm.gather(&[proc.rank() as u8], 3).unwrap()
        });
        assert_eq!(results[3], Some(vec![0u8, 1, 2, 3]));
    }

    #[test]
    fn gather_bad_root() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            comm.igather(&[1i32], 7).is_err()
        });
        assert!(results.iter().all(|&e| e));
    }
}
