//! Scatter-allgather broadcast (van de Geijn algorithm): the root
//! scatters balanced blocks, then a ring allgather assembles the full
//! payload everywhere.
//!
//! Binomial bcast sends the FULL payload log₂P times from the root's
//! subtree edges; scatter-allgather moves ~2·(P−1)/P of it per rank —
//! bandwidth-optimal for large messages, at the cost of more rounds.
//! [`Comm::ibcast_auto`] selects by size, like MPICH's tuned bcast.

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::MpiResult;
use crate::sched::{Plan, Step};

use super::allgather::ring_allgather;
use super::{block_range, CollFuture};

pub(crate) fn bcast_sag(me: usize, size: usize, count: usize, root: usize) -> Vec<Step> {
    let block = |i: usize| block_range(count, size, i);
    let mut steps = Vec::new();
    if me == root {
        steps.extend(
            (0..size)
                .filter(|&dst| dst != root)
                .map(|dst| Step::send(dst, block(dst))),
        );
    } else {
        steps.push(Step::recv(root, block(me)));
    }
    steps.push(Step::Barrier);
    steps.extend(ring_allgather(me, size, 0, block));
    steps
}

impl Comm {
    /// Payload size (bytes) above which [`Comm::ibcast_auto`] switches
    /// from the binomial tree to scatter-allgather.
    pub const BCAST_SAG_THRESHOLD: usize = 64 * 1024;

    /// Nonblocking scatter-allgather broadcast (`MPI_Ibcast`,
    /// large-message algorithm), for any count.
    pub fn ibcast_sag<T: MpiType + Default>(
        &self,
        data: Option<&[T]>,
        count: usize,
        root: i32,
    ) -> MpiResult<CollFuture<T>> {
        let data = self.rooted_input(data, count, root)?;
        let steps = bcast_sag(self.rank() as usize, self.size(), count, root as usize);
        self.start_sched(Plan::in_place(steps, count), data)
    }

    /// Nonblocking broadcast with size-based algorithm selection:
    /// binomial tree below [`Comm::BCAST_SAG_THRESHOLD`] bytes,
    /// scatter-allgather above.
    pub fn ibcast_auto<T: MpiType + Default>(
        &self,
        data: Option<&[T]>,
        count: usize,
        root: i32,
    ) -> MpiResult<CollFuture<T>> {
        if count * T::SIZE >= Self::BCAST_SAG_THRESHOLD && self.size() > 2 {
            self.ibcast_sag(data, count, root)
        } else {
            self.ibcast(data, count, root)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;

    #[test]
    fn sag_bcast_delivers_exact_payload() {
        for n in [2, 3, 4, 5, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                // Deliberately non-divisible count to exercise padding.
                let count = 10 * n + 3;
                let fut = if proc.rank() == 1 {
                    let data: Vec<i32> = (0..count as i32).collect();
                    comm.ibcast_sag(Some(&data), count, 1).unwrap()
                } else {
                    comm.ibcast_sag::<i32>(None, count, 1).unwrap()
                };
                fut.wait().0
            });
            let count = 10 * n + 3;
            let expect: Vec<i32> = (0..count as i32).collect();
            for out in results {
                assert_eq!(out, expect, "n={n}");
            }
        }
    }

    #[test]
    fn sag_bcast_single_element() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            let fut = if proc.rank() == 0 {
                comm.ibcast_sag(Some(&[42i64]), 1, 0).unwrap()
            } else {
                comm.ibcast_sag::<i64>(None, 1, 0).unwrap()
            };
            fut.wait().0
        });
        for out in results {
            assert_eq!(out, vec![42]);
        }
    }

    #[test]
    fn auto_bcast_agrees_with_both_paths() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            // Small: binomial path.
            let small = if proc.rank() == 0 {
                comm.ibcast_auto(Some(&[7u8, 8]), 2, 0).unwrap()
            } else {
                comm.ibcast_auto::<u8>(None, 2, 0).unwrap()
            };
            // Large: SAG path (> 64 KiB).
            let big: Vec<i64> = (0..10_000).collect();
            let large = if proc.rank() == 0 {
                comm.ibcast_auto(Some(&big), 10_000, 0).unwrap()
            } else {
                comm.ibcast_auto::<i64>(None, 10_000, 0).unwrap()
            };
            (small.wait().0, large.wait().0)
        });
        for (small, large) in results {
            assert_eq!(small, vec![7, 8]);
            assert_eq!(large.len(), 10_000);
            assert_eq!(large[9_999], 9_999);
        }
    }
}
