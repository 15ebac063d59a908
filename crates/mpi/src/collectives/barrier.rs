//! Dissemination barrier.
//!
//! ⌈log₂ P⌉ rounds; in round k every rank sends an empty message to
//! `(rank + 2^k) mod P` and receives one from `(rank − 2^k) mod P`. No rank
//! leaves until every rank has entered.

use crate::comm::Comm;
use crate::error::MpiResult;
use crate::sched::{Plan, Step};

use super::CollFuture;

pub(crate) fn barrier(me: usize, size: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut dist = 1;
    while dist < size {
        steps.push(Step::send((me + dist) % size, 0..0));
        steps.push(Step::recv((me + size - dist) % size, 0..0));
        steps.push(Step::Barrier);
        dist <<= 1;
    }
    steps
}

impl Comm {
    /// Nonblocking barrier (`MPI_Ibarrier`), dissemination algorithm.
    pub fn ibarrier(&self) -> MpiResult<CollFuture<u8>> {
        let steps = barrier(self.rank() as usize, self.size());
        self.start_sched(Plan::in_place(steps, 0), &[])
    }

    /// Blocking barrier (`MPI_Barrier`). With resilience enabled, a peer
    /// failure or revocation surfaces as `Err` rather than a hang.
    pub fn barrier(&self) -> MpiResult<()> {
        self.ibarrier()?.wait_result()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;
    use mpfa_core::wtime;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_completes_all_ranks() {
        for n in [1, 2, 3, 4, 7, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                comm.barrier().unwrap();
                true
            });
            assert!(results.iter().all(|&ok| ok), "n={n}");
        }
    }

    #[test]
    fn barrier_actually_synchronizes() {
        // No rank may leave the barrier before the slowest rank enters.
        let entered = Arc::new(AtomicUsize::new(0));
        let e = entered.clone();
        let n = 4;
        let results = run_ranks(n, move |proc| {
            let comm = proc.world_comm();
            if proc.rank() == 0 {
                // Rank 0 dawdles before entering.
                let t0 = wtime();
                while wtime() - t0 < 0.01 {
                    std::hint::spin_loop();
                }
            }
            e.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            e.load(Ordering::SeqCst)
        });
        for seen in results {
            assert_eq!(seen, n, "a rank left the barrier before all entered");
        }
    }

    #[test]
    fn repeated_barriers_do_not_cross_match() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            for _ in 0..20 {
                comm.barrier().unwrap();
            }
            true
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn nonblocking_barrier_overlaps() {
        let results = run_ranks(2, |proc| {
            let comm = proc.world_comm();
            let fut = comm.ibarrier().unwrap();
            // Do some "work" before waiting.
            let mut acc = 0u64;
            for i in 0..1000 {
                acc = acc.wrapping_add(i);
            }
            fut.wait();
            acc
        });
        assert_eq!(results.len(), 2);
    }
}
