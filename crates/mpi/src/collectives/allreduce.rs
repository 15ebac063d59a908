//! Recursive-doubling allreduce with MPICH's non-power-of-two fold-in.
//!
//! This is the *native* counterpart of the paper's user-level allreduce
//! (Listing 1.8 implements the same recursive doubling, but specialized to
//! `MPI_INT`/`MPI_SUM`/power-of-two ranks). The native path keeps the full
//! generality the paper credits for the performance difference in
//! Figure 13: datatype dispatch, op indirection, and the pre/post phases
//! that fold non-power-of-two rank counts onto the nearest power of two.

use crate::comm::Comm;
use crate::error::MpiResult;
use crate::op::{Op, Reducible};
use crate::sched::{Plan, Step};

use super::CollFuture;

/// The first `2·rem` ranks pair up (`rem = size − pof2`): the even one
/// folds its data into its odd neighbour and sits out the doubling
/// rounds, which run among the `pof2` remaining ranks; a last round hands
/// the result back.
pub(crate) fn allreduce_rd(me: usize, size: usize, n: usize) -> Vec<Step> {
    let pof2 = 1usize << size.ilog2();
    let rem = size - pof2;
    // My neighbour in a folded pair, and whether I am its even half.
    let pair = (me < 2 * rem).then_some(me ^ 1);
    let sits_out = pair.is_some() && me.is_multiple_of(2);
    // Rank within the power-of-two core, and the real rank of a core rank.
    let core = match pair {
        Some(_) if sits_out => None,
        Some(_) => Some(me / 2),
        None => Some(me - rem),
    };
    let real_of = |core: usize| if core < rem { core * 2 + 1 } else { core + rem };

    // One allocation: this list is built on every call.
    let mut steps = Vec::with_capacity(3 * (pof2.ilog2() as usize + 2));
    if rem > 0 {
        steps.extend(pair.map(|p| match sits_out {
            true => Step::send(p, 0..n),
            false => Step::recv_reduce(p, 0..n),
        }));
        steps.push(Step::Barrier);
    }
    for k in 0..pof2.ilog2() {
        if let Some(core) = core {
            let partner = real_of(core ^ (1 << k));
            steps.push(Step::send(partner, 0..n));
            steps.push(Step::recv_reduce(partner, 0..n));
        }
        steps.push(Step::Barrier);
    }
    if rem > 0 {
        steps.extend(pair.map(|p| match sits_out {
            true => Step::recv(p, 0..n),
            false => Step::send(p, 0..n),
        }));
        steps.push(Step::Barrier);
    }
    steps
}

impl Comm {
    /// Nonblocking allreduce (`MPI_Iallreduce`) — the full general path:
    /// any [`Reducible`] type, any built-in op, any rank count.
    pub fn iallreduce<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<CollFuture<T>> {
        let steps = allreduce_rd(self.rank() as usize, self.size(), data.len());
        self.start_reduce_sched(Plan::in_place(steps, data.len()), data, op)
    }

    /// Blocking allreduce (`MPI_Allreduce`): the reduction of `data`
    /// across all ranks, on every rank. With resilience enabled, a peer
    /// failure or revocation surfaces as `Err` rather than a hang.
    pub fn allreduce<T: Reducible>(&self, data: &[T], op: Op) -> MpiResult<Vec<T>> {
        Ok(self.iallreduce(data, op)?.wait_result()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_ranks;
    use super::*;

    #[test]
    fn allreduce_sum_pof2() {
        for n in [1, 2, 4, 8] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                comm.allreduce(&[proc.rank() as i32 + 1, 100], Op::Sum)
                    .unwrap()
            });
            let total: i32 = (1..=n as i32).sum();
            for (r, out) in results.iter().enumerate() {
                assert_eq!(out, &vec![total, 100 * n as i32], "rank {r} of {n}");
            }
        }
    }

    #[test]
    fn allreduce_sum_non_pof2() {
        for n in [3, 5, 6, 7, 12] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                comm.allreduce(&[proc.rank() as i64], Op::Sum).unwrap()
            });
            let total: i64 = (0..n as i64).sum();
            for out in results {
                assert_eq!(out, vec![total], "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let results = run_ranks(5, |proc| {
            let comm = proc.world_comm();
            let x = [((proc.rank() as i32) * 13) % 7];
            let mx = comm.allreduce(&x, Op::Max).unwrap();
            let mn = comm.allreduce(&x, Op::Min).unwrap();
            (mx[0], mn[0])
        });
        let values: Vec<i32> = (0..5).map(|r| (r * 13) % 7).collect();
        for (mx, mn) in results {
            assert_eq!(mx, *values.iter().max().unwrap());
            assert_eq!(mn, *values.iter().min().unwrap());
        }
    }

    #[test]
    fn allreduce_float_sum() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            comm.allreduce(&[0.5f64 * (proc.rank() as f64 + 1.0)], Op::Sum)
                .unwrap()
        });
        for out in results {
            assert!((out[0] - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nonblocking_allreduce_overlap() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            let fut = comm.iallreduce(&[1i32], Op::Sum).unwrap();
            assert!(fut.request().stream().is_some());
            let (v, _) = fut.wait();
            v[0]
        });
        for v in results {
            assert_eq!(v, 4);
        }
    }

    #[test]
    fn vector_payloads() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            let data: Vec<i32> = (0..100).map(|i| i + proc.rank() as i32).collect();
            comm.allreduce(&data, Op::Sum).unwrap()
        });
        for out in &results {
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 3 * i as i32 + 3);
            }
        }
    }

    #[test]
    fn back_to_back_allreduces() {
        let results = run_ranks(6, |proc| {
            let comm = proc.world_comm();
            (0..10)
                .map(|round| {
                    comm.allreduce(&[round + proc.rank() as i32], Op::Sum)
                        .unwrap()[0]
                })
                .collect::<Vec<i32>>()
        });
        let expect: Vec<i32> = (0..10).map(|round| 6 * round + 15).collect();
        for out in results {
            assert_eq!(out, expect);
        }
    }
}
