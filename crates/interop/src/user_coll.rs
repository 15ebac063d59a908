//! User-level collective algorithms via `MPIX_Async` — the paper's
//! Listing 1.8 and Section 4.7.
//!
//! [`my_allreduce`] is the paper's custom allreduce, faithfully including
//! its deliberate shortcuts: `i32` elements only, sum only, power-of-two
//! rank counts only, in-place buffers. Those restrictions are the point —
//! "custom code ... can leverage specific contexts from the application to
//! avoid complexities and achieve greater efficiency" — and Figure 13
//! measures this function against the fully general native
//! `MPI_Iallreduce`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::{AsyncPoll, Request};
use mpfa_mpi::{Comm, MpiError, MpiResult, RecvRequest};

/// Internal tag for user-level collectives (runs on the regular
/// point-to-point context, like any user code would).
const MYALLREDUCE_TAG: i32 = 0x7eef;
const MYBARRIER_TAG: i32 = 0x7ee0;

/// Completion handle of a user-level collective: a shared done flag plus
/// the result buffer (the `done_ptr` of Listing 1.8, made safe).
pub struct UserCollFuture<T> {
    done: Arc<AtomicBool>,
    buf: Arc<Mutex<Vec<T>>>,
}

impl<T> UserCollFuture<T> {
    /// Has the algorithm finished? (One atomic read.)
    pub fn is_complete(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Take the result after completion.
    ///
    /// # Panics
    /// Panics if not complete.
    pub fn take(self) -> Vec<T> {
        assert!(self.is_complete(), "UserCollFuture::take before completion");
        std::mem::take(&mut *self.buf.lock())
    }
}

/// One round's state of the recursive-doubling loop — the `reqs[2]` of
/// Listing 1.8.
struct RoundReqs {
    send: Request,
    recv: RecvRequest<i32>,
}

/// Nonblocking user-level allreduce (Listing 1.8): recursive doubling,
/// `i32` + sum only, power-of-two communicator sizes only.
///
/// The poll function runs inside `MPIX_Stream_progress` on the
/// communicator's stream and uses only `is_complete` queries — never
/// recursive progress — to track its per-round requests.
pub fn my_iallreduce(comm: &Comm, buf: Vec<i32>) -> MpiResult<UserCollFuture<i32>> {
    let size = comm.size();
    if !size.is_power_of_two() {
        return Err(MpiError::Protocol(
            "my_allreduce only supports power-of-two communicator sizes".into(),
        ));
    }
    let done = Arc::new(AtomicBool::new(false));
    let out = Arc::new(Mutex::new(Vec::new()));
    let fut = UserCollFuture {
        done: done.clone(),
        buf: out.clone(),
    };

    if size == 1 {
        *out.lock() = buf;
        done.store(true, Ordering::Release);
        return Ok(fut);
    }

    let comm = comm.clone();
    let rank = comm.rank();
    let count = buf.len();
    let mut acc = buf;
    let mut mask = 1usize;
    let mut reqs: Option<RoundReqs> = None;
    // First round issued eagerly at initiation (the paper's My_Allreduce
    // calls MPIX_Async_start and the first poll issues round one; issuing
    // here saves one progress lap and matches the measured structure).
    let stream = comm.stream().clone();
    stream.async_start(move |_t| {
        if let Some(round) = &reqs {
            if !(round.send.is_complete() && round.recv.is_complete()) {
                return AsyncPoll::Pending;
            }
            // Fold the partner's contribution. Hardcoded i32 `+`: no
            // datatype dispatch, no op function call.
            let round = reqs.take().expect("present");
            let (tmp, _) = round.recv.take();
            for (x, y) in acc.iter_mut().zip(&tmp) {
                *x += *y;
            }
            mask <<= 1;
        }
        if mask >= size {
            *out.lock() = std::mem::take(&mut acc);
            done.store(true, Ordering::Release);
            return AsyncPoll::Done;
        }
        let dst = (rank as usize ^ mask) as i32;
        let recv = comm
            .irecv::<i32>(count, dst, MYALLREDUCE_TAG)
            .expect("valid partner");
        let send = comm
            .isend(&acc, dst, MYALLREDUCE_TAG)
            .expect("valid partner");
        reqs = Some(RoundReqs { send, recv });
        AsyncPoll::Progress
    });
    Ok(fut)
}

/// Blocking user-level allreduce — the `My_Allreduce` of Listing 1.8:
/// initiate, then `while (!done) MPIX_Stream_progress(...)`.
pub fn my_allreduce(comm: &Comm, buf: Vec<i32>) -> MpiResult<Vec<i32>> {
    let fut = my_iallreduce(comm, buf)?;
    let stream = comm.stream().clone();
    while !fut.is_complete() {
        stream.progress();
    }
    Ok(fut.take())
}

/// Nonblocking user-level dissemination barrier via `MPIX_Async` — same
/// pattern, zero payload.
pub(crate) fn my_ibarrier(comm: &Comm) -> MpiResult<UserCollFuture<i32>> {
    let size = comm.size();
    let done = Arc::new(AtomicBool::new(false));
    let out = Arc::new(Mutex::new(Vec::new()));
    let fut = UserCollFuture {
        done: done.clone(),
        buf: out,
    };
    if size == 1 {
        done.store(true, Ordering::Release);
        return Ok(fut);
    }
    let comm = comm.clone();
    let rank = comm.rank();
    let mut round = 0u32;
    let nrounds = usize::BITS - (size - 1).leading_zeros();
    let mut reqs: Option<(Request, RecvRequest<i32>)> = None;
    let stream = comm.stream().clone();
    stream.async_start(move |_t| {
        if let Some((s, r)) = &reqs {
            if !(s.is_complete() && r.is_complete()) {
                return AsyncPoll::Pending;
            }
            reqs = None;
            round += 1;
        }
        if round >= nrounds {
            done.store(true, Ordering::Release);
            return AsyncPoll::Done;
        }
        let sizei = size as i32;
        let dist = 1i32 << round;
        let dst = (rank + dist).rem_euclid(sizei);
        let src = (rank - dist).rem_euclid(sizei);
        let recv = comm
            .irecv::<i32>(0, src, MYBARRIER_TAG + round as i32)
            .expect("valid peer");
        let send = comm
            .isend::<i32>(&[], dst, MYBARRIER_TAG + round as i32)
            .expect("valid peer");
        reqs = Some((send, recv));
        AsyncPoll::Progress
    });
    Ok(fut)
}

/// Blocking user-level barrier.
pub fn my_barrier(comm: &Comm) -> MpiResult<()> {
    let fut = my_ibarrier(comm)?;
    let stream = comm.stream().clone();
    while !fut.is_complete() {
        stream.progress();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_mpi::{Op, Proc, World, WorldConfig};

    fn run_ranks<R: Send>(n: usize, f: impl Fn(Proc) -> R + Send + Sync) -> Vec<R> {
        let procs = World::init(WorldConfig::instant(n));
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = procs.into_iter().map(|p| s.spawn(move || f(p))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        })
    }

    #[test]
    fn my_allreduce_matches_sum() {
        for n in [1, 2, 4, 8, 16] {
            let results = run_ranks(n, |proc| {
                let comm = proc.world_comm();
                my_allreduce(&comm, vec![proc.rank() as i32 + 1, 5]).unwrap()
            });
            let total: i32 = (1..=n as i32).sum();
            for out in results {
                assert_eq!(out, vec![total, 5 * n as i32], "n={n}");
            }
        }
    }

    #[test]
    fn my_allreduce_rejects_non_pof2() {
        let results = run_ranks(3, |proc| {
            let comm = proc.world_comm();
            my_iallreduce(&comm, vec![1]).is_err()
        });
        assert!(results.iter().all(|&e| e));
    }

    #[test]
    fn my_allreduce_agrees_with_native() {
        let results = run_ranks(8, |proc| {
            let comm = proc.world_comm();
            let data: Vec<i32> = (0..32).map(|i| i * (proc.rank() as i32 + 1)).collect();
            let native = comm.allreduce(&data, Op::Sum).unwrap();
            let user = my_allreduce(&comm, data).unwrap();
            (native, user)
        });
        for (native, user) in results {
            assert_eq!(native, user);
        }
    }

    #[test]
    fn my_barrier_synchronizes() {
        use std::sync::atomic::AtomicUsize;
        let entered = Arc::new(AtomicUsize::new(0));
        let e = entered.clone();
        let results = run_ranks(4, move |proc| {
            let comm = proc.world_comm();
            if proc.rank() == 0 {
                let t0 = mpfa_core::wtime();
                while mpfa_core::wtime() - t0 < 0.005 {
                    std::hint::spin_loop();
                }
            }
            e.fetch_add(1, Ordering::SeqCst);
            my_barrier(&comm).unwrap();
            e.load(Ordering::SeqCst)
        });
        for seen in results {
            assert_eq!(seen, 4);
        }
    }

    #[test]
    fn nonblocking_user_allreduce_with_explicit_progress() {
        let results = run_ranks(4, |proc| {
            let comm = proc.world_comm();
            let fut = my_iallreduce(&comm, vec![1i32]).unwrap();
            // The §3.5 scheme: compute, then progress to completion.
            let mut acc = 0u64;
            for i in 0..100 {
                acc = acc.wrapping_add(i);
            }
            while !fut.is_complete() {
                comm.stream().progress();
            }
            (fut.take()[0], acc)
        });
        for (v, _) in results {
            assert_eq!(v, 4);
        }
    }
}
