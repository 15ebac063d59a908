//! Linear (pairwise) all-to-all.
//!
//! Every rank posts one receive and one send per peer, plus a local copy
//! for its own block, and completes when all are done. The working buffer
//! is the send half followed by the receive half.

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::error::MpiResult;
use crate::sched::{Land, Plan, Step};

use super::{count_is, CollFuture};

pub(crate) fn alltoall(me: usize, size: usize, count: usize) -> Plan {
    let half = size * count;
    let sent = |i: usize| i * count..(i + 1) * count;
    let landed = |i: usize| half + i * count..half + (i + 1) * count;
    let peers = || (0..size).filter(move |&p| p != me);
    // Receives before sends: expected-path matching for eager payloads.
    let mut steps: Vec<Step> = peers().map(|src| Step::recv(src, landed(src))).collect();
    steps.extend(peers().map(|dst| Step::send(dst, sent(dst))));
    steps.push(Step::Local {
        src: sent(me),
        dst: landed(me),
        land: Land::Copy,
    });
    steps.push(Step::Barrier);
    Plan {
        steps,
        len: 2 * half,
        at: 0,
        out: half..2 * half,
    }
}

impl Comm {
    /// Nonblocking all-to-all (`MPI_Ialltoall`): `data` holds `count`
    /// elements per destination rank; the future yields `count` elements
    /// per source rank.
    pub fn ialltoall<T: MpiType>(&self, data: &[T], count: usize) -> MpiResult<CollFuture<T>> {
        count_is(data.len(), count * self.size())?;
        self.start_sched(alltoall(self.rank() as usize, self.size(), count), data)
    }

    /// Blocking all-to-all (`MPI_Alltoall`).
    pub fn alltoall<T: MpiType>(&self, data: &[T], count: usize) -> MpiResult<Vec<T>> {
        Ok(self.ialltoall(data, count)?.wait_result()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;

    #[test]
    fn alltoall_transpose() {
        for n in [1, 2, 3, 4, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                // data[dst] = rank * 100 + dst
                let data: Vec<i32> = (0..n as i32)
                    .map(|dst| proc.rank() as i32 * 100 + dst)
                    .collect();
                comm.alltoall(&data, 1).unwrap()
            });
            for (r, out) in results.iter().enumerate() {
                // out[src] = src * 100 + r
                let expect: Vec<i32> = (0..n as i32).map(|src| src * 100 + r as i32).collect();
                assert_eq!(out, &expect, "rank {r} of {n}");
            }
        }
    }

    #[test]
    fn alltoall_multi_element() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let r = proc.rank() as u64;
            let data: Vec<u64> = (0..6).map(|i| r * 10 + i).collect();
            comm.alltoall(&data, 2).unwrap()
        });
        assert_eq!(results[0], vec![0, 1, 10, 11, 20, 21]);
        assert_eq!(results[1], vec![2, 3, 12, 13, 22, 23]);
        assert_eq!(results[2], vec![4, 5, 14, 15, 24, 25]);
    }

    #[test]
    fn alltoall_count_mismatch() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            comm.ialltoall(&[1i32; 3], 2).is_err()
        });
        assert!(results.iter().all(|&e| e));
    }
}
