//! Failure injection: the runtime must degrade predictably, not hang.
//!
//! Timing-sensitive tests in this binary run on the DST clock
//! ([`mpfa::dst::virtual_time`] / [`mpfa::dst::real_time`]): a virtual
//! guard freezes `wtime()` so bounded spins can't flake on slow CI, and
//! the guards serialize against each other so a frozen clock never leaks
//! into a test that needs real fabric latencies.

mod common;

use common::run_ranks;
use mpfa::core::{AsyncPoll, Request, Stream};
use mpfa::mpi::WorldConfig;

#[test]
fn panicking_poll_poisons_only_its_task() {
    // Frozen virtual clock: the 5.0s progress_until bound can never fire
    // spuriously on an overloaded machine — only the condition exits.
    let _clk = mpfa::dst::virtual_time(0.0);
    let stream = Stream::create();
    // One bad task among good ones.
    let mut polls_left = 3;
    stream.async_start(move |_t| {
        polls_left -= 1;
        if polls_left == 0 {
            panic!("injected failure");
        }
        AsyncPoll::Pending
    });
    let good = mpfa::core::CompletionCounter::new(5);
    for _ in 0..5 {
        let g = good.clone();
        let mut n = 10;
        stream.async_start(move |_t| {
            n -= 1;
            if n == 0 {
                g.done();
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
    }
    assert!(stream.progress_until(|| good.is_zero(), 5.0));
    assert_eq!(stream.poisoned_tasks(), 1);
    assert_eq!(stream.pending_tasks(), 0);
}

#[test]
fn panicking_task_amid_mpi_traffic_leaves_runtime_healthy() {
    let results = run_ranks(WorldConfig::instant(2), |proc| {
        let comm = proc.world_comm();
        let stream = comm.stream().clone();
        let peer = 1 - comm.rank();
        stream.async_start(|_t| -> AsyncPoll { panic!("injected") });
        // Messaging continues to work after the poison.
        let r = comm.irecv::<u8>(64, peer, 1).unwrap();
        comm.isend(&[1u8; 64], peer, 1).unwrap();
        let (data, _) = r.wait();
        assert_eq!(data.len(), 64);
        assert_eq!(stream.poisoned_tasks(), 1);
        true
    });
    assert!(results.iter().all(|&ok| ok));
}

#[test]
fn recursive_progress_inside_poll_is_contained() {
    let stream = Stream::create();
    let s2 = stream.clone();
    stream.async_start(move |_t| {
        s2.progress(); // prohibited; must panic, not deadlock
        AsyncPoll::Done
    });
    stream.progress();
    assert_eq!(stream.poisoned_tasks(), 1);
}

#[test]
fn abandoned_completer_cancels_instead_of_hanging() {
    let stream = Stream::create();
    let (req, completer) = Request::pair(&stream);
    drop(completer); // operation owner died
    let status = req.wait(); // must return, not hang
    assert!(status.cancelled);
}

#[test]
fn jittery_fabric_preserves_correctness() {
    // Latency + finite bandwidth + tiny MTU-sized chunks: protocol state
    // machines under maximal interleaving.
    let mut cfg = WorldConfig::cluster(3);
    cfg.proto.eager_max = 512;
    cfg.proto.chunk = 1024;
    cfg.proto.depth = 2;
    cfg.inter_latency = 20e-6;
    cfg.inter_bandwidth = 0.5e9;
    cfg.jitter = 1.5; // per-packet delay variation (FIFO still guaranteed)

    // The fabric's latency/bandwidth/jitter delays all come off `wtime()`,
    // so drive them from the virtual clock: a pump thread advances time in
    // fixed quanta while the rank threads block in wait(). Transfer
    // completion then depends on simulated time, not machine speed.
    let clk = mpfa::dst::virtual_time(0.0);
    let stop_pump = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop_pump.load(std::sync::atomic::Ordering::Acquire) {
                clk.advance(10e-6);
                std::thread::yield_now();
            }
        });
        let results = run_ranks(cfg, |proc| {
            let comm = proc.world_comm();
            let rank = comm.rank();
            let size = comm.size() as i32;
            let right = (rank + 1) % size;
            let left = (rank - 1).rem_euclid(size);
            // Several in-flight rendezvous transfers both ways.
            let recvs: Vec<_> = (0..4)
                .map(|t| comm.irecv::<u8>(10_000, left, t).unwrap())
                .collect();
            let sends: Vec<_> = (0..4)
                .map(|t| comm.isend(&vec![t as u8; 10_000], right, t).unwrap())
                .collect();
            for (t, r) in recvs.into_iter().enumerate() {
                let (data, _) = r.wait();
                assert_eq!(data, vec![t as u8; 10_000]);
            }
            // MPI semantics: sends must be completed too — a rank that stops
            // progressing with chunks still un-pumped would stall its
            // neighbor's pipelined receive.
            for s in sends {
                s.wait();
            }
            true
        });
        stop_pump.store(true, std::sync::atomic::Ordering::Release);
        assert!(results.iter().all(|&ok| ok));
    });
}

#[test]
#[should_panic(expected = "truncation")]
fn truncation_is_fatal_by_default() {
    // MPI_ERRORS_ARE_FATAL semantics surface as a panic in the receiving
    // rank's progress. The give-up bound is 2 *virtual* seconds —
    // `wait_timeout` measures its deadline on `wtime()`, a ticker thread
    // is the only thing advancing the frozen clock, and each quantum of
    // the wait drives the receiver's stream, so the landing message
    // panics inside the wait itself.
    let clk = mpfa::dst::virtual_time(0.0);
    let procs = mpfa::mpi::World::init(WorldConfig::instant(2));
    let p0 = procs[0].clone();
    let p1 = procs[1].clone();
    let sender = std::thread::spawn(move || {
        let comm = p0.world_comm();
        let _ = comm.isend(&[0u8; 100], 1, 1);
    });
    // The 100-byte message is committed to the fabric before the
    // too-small receive starts waiting.
    sender.join().unwrap();
    let comm = p1.world_comm();
    let r = comm.irecv::<u8>(10, 0, 1).unwrap(); // too small
    std::thread::scope(|s| {
        // Bounded ticker: advances past the deadline then exits, so an
        // unwinding main thread never leaves it spinning.
        s.spawn(|| {
            while clk.now() < 3.0 {
                clk.advance(1e-3);
                std::thread::yield_now();
            }
        });
        let _ = r.request().wait_timeout(std::time::Duration::from_secs(2));
    });
    unreachable!("the undersized receive never observed the message");
}

#[test]
fn injected_peer_death_completes_wait_all_with_errors() {
    // ULFM shape: a peer dying with operations outstanding must complete
    // every request — errored, not hung — so `wait_all_results` returns
    // a per-request verdict.
    use mpfa::core::RequestError;
    use mpfa::resil::DetectorConfig;

    // The failure detector's quiet-period accounting reads `wtime()`;
    // hold the real-time guard so a concurrently scheduled virtual-clock
    // test in this binary can't freeze time under it.
    let _rt = mpfa::dst::real_time();
    const N: usize = 4;
    const VICTIM: usize = 3;
    let past_barrier = std::sync::atomic::AtomicUsize::new(0);
    let results = run_ranks(WorldConfig::instant(N), |proc| {
        let r = proc.enable_resilience(DetectorConfig::default());
        let comm = proc.world_comm();
        comm.barrier().unwrap();
        // The kill must wait for *every* rank to leave the barrier, not
        // just the victim: a survivor still inside it when the victim is
        // declared dead gets its barrier recvs failed (`ProcFailed`),
        // which is legal ULFM behavior but not what this test probes.
        past_barrier.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        if proc.rank() == VICTIM {
            return Vec::new();
        }
        if proc.rank() == 0 {
            while past_barrier.load(std::sync::atomic::Ordering::Acquire) < N {
                std::hint::spin_loop();
            }
            assert!(proc.world().chaos_kill(VICTIM));
        }
        // Each survivor waits for its *own* detector to convict the
        // victim before posting the doomed operations. Without this,
        // `doomed_send` races the kill: an eager 8-byte send accepted
        // while the victim is still (locally) alive legitimately
        // completes Ok, and the per-request verdicts below would be
        // schedule-dependent.
        while !r.detector().is_failed(VICTIM) {
            comm.stream().progress();
        }
        // Ring among the survivors {0, 1, 2}.
        let next = (proc.rank() + 1) % (N - 1);
        let prev = (proc.rank() + N - 2) % (N - 1);
        // A mix: receives from the dead rank (doomed), sends to the dead
        // rank (doomed), and traffic between survivors (must succeed).
        let doomed_recv = comm.irecv::<u8>(8, VICTIM as i32, 1).unwrap();
        let doomed_send = comm.isend(&[1u8; 8], VICTIM as i32, 2).unwrap();
        let good_recv = comm.irecv::<u8>(8, prev as i32, 3).unwrap();
        let good_send = comm.isend(&[2u8; 8], next as i32, 3).unwrap();
        let reqs = [
            doomed_recv.request(),
            doomed_send,
            good_recv.request(),
            good_send,
        ];
        Request::wait_all_results(&reqs)
    });
    for (rank, outcomes) in results.iter().enumerate() {
        if rank == VICTIM {
            continue;
        }
        assert_eq!(outcomes.len(), 4, "rank {rank}");
        assert_eq!(
            outcomes[0],
            Err(RequestError::PeerFailed {
                rank: VICTIM as i32
            }),
            "rank {rank}: recv from dead peer"
        );
        assert!(
            matches!(outcomes[1], Err(RequestError::PeerFailed { .. })),
            "rank {rank}: send to dead peer, got {:?}",
            outcomes[1]
        );
        assert!(outcomes[2].is_ok(), "rank {rank}: survivor recv");
        assert!(outcomes[3].is_ok(), "rank {rank}: survivor send");
    }
}

#[test]
fn zero_sized_world_operations() {
    // Single-rank edge cases: self-sends, collectives of one.
    let results = run_ranks(WorldConfig::instant(1), |proc| {
        let comm = proc.world_comm();
        let r = comm.irecv::<i32>(2, 0, 0).unwrap();
        comm.isend(&[4i32, 2], 0, 0).unwrap();
        let (data, _) = r.wait();
        assert_eq!(data, vec![4, 2]);
        comm.barrier().unwrap();
        assert_eq!(
            comm.allreduce(&[7i32], mpfa::mpi::Op::Sum).unwrap(),
            vec![7]
        );
        assert_eq!(comm.allgather(&[1u8]).unwrap(), vec![1]);
        true
    });
    assert!(results[0]);
}

#[test]
fn empty_messages_flow_through_every_path() {
    let results = run_ranks(WorldConfig::instant_nodes(4, 2), |proc| {
        let comm = proc.world_comm();
        let rank = comm.rank();
        for peer in 0..comm.size() as i32 {
            if peer == rank {
                continue;
            }
            comm.isend::<u8>(&[], peer, rank).unwrap();
        }
        for peer in 0..comm.size() as i32 {
            if peer == rank {
                continue;
            }
            let (data, status) = comm.recv::<u8>(0, peer, peer).unwrap();
            assert!(data.is_empty());
            assert_eq!(status.bytes, 0);
        }
        true
    });
    assert!(results.iter().all(|&ok| ok));
}

/// One rank is dead before the collective starts. Every survivor must end
/// with `Err`, or with exactly the value a healthy run gives it (a bcast
/// leaf that is not downstream of the victim, a gather non-root) — never
/// a short vector, an empty buffer, a panic in the sweep or a hang. A
/// survivor revokes on its first `Err`, which is what unblocks the ones
/// whose partner aborted instead of sending.
#[test]
fn dead_rank_fails_or_completes_every_collective_exactly() {
    use mpfa::mpi::{Comm, MpiResult, Op};
    use mpfa::resil::DetectorConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs one collective on `comm`; `Ok(exact)` says whether the value
    /// is the healthy run's.
    type Case = (&'static str, fn(&Comm) -> MpiResult<bool>);

    fn mine(comm: &Comm, len: usize) -> Vec<i64> {
        (0..len as i64)
            .map(|i| i + 10 * comm.rank() as i64)
            .collect()
    }
    /// Element-wise sum of the `mine` of ranks `..upto`.
    fn sum(len: usize, upto: usize) -> Vec<i64> {
        let ranks: i64 = (0..upto as i64).sum();
        (0..len as i64)
            .map(|i| upto as i64 * i + 10 * ranks)
            .collect()
    }
    fn concat(comm: &Comm, len: impl Fn(usize) -> usize) -> Vec<i64> {
        let block = |r: usize| (0..len(r) as i64).map(move |i| i + 10 * r as i64);
        (0..comm.size()).flat_map(block).collect()
    }
    fn ragged(comm: &Comm) -> Vec<usize> {
        (0..comm.size()).map(|r| r % 3 + 1).collect()
    }
    fn rooted(comm: &Comm, data: &[i64]) -> Option<Vec<i64>> {
        (comm.rank() == 0).then(|| data.to_vec())
    }

    const CASES: &[Case] = &[
        ("barrier", |c| c.barrier().map(|()| true)),
        ("bcast", |c| {
            let mut buf = rooted(c, &[7, 8, 9]).unwrap_or_default();
            c.bcast(&mut buf, 3, 0).map(|()| buf == [7, 8, 9])
        }),
        ("bcast_sag", |c| {
            let want: Vec<i64> = (0..10).collect();
            let fut = c.ibcast_sag(rooted(c, &want).as_deref(), 10, 0)?;
            Ok(fut.wait_result()?.0 == want)
        }),
        ("reduce", |c| {
            let got = c.reduce(&mine(c, 3), Op::Sum, 0)?;
            Ok(got.is_none_or(|v| v == sum(3, c.size())))
        }),
        ("allreduce", |c| {
            let got = c.allreduce(&mine(c, 3), Op::Sum)?;
            Ok(got == sum(3, c.size()))
        }),
        ("allreduce_ring", |c| {
            let got = c.iallreduce_ring(&mine(c, 7), Op::Sum)?.wait_result()?.0;
            Ok(got == sum(7, c.size()))
        }),
        ("allgather", |c| {
            let got = c.allgather(&mine(c, 2))?;
            Ok(got == concat(c, |_| 2))
        }),
        ("gather", |c| {
            let got = c.gather(&mine(c, 2), 0)?;
            Ok(got.is_none_or(|v| v == concat(c, |_| 2)))
        }),
        ("gatherv", |c| {
            let counts = ragged(c);
            let got = c.gatherv(&mine(c, counts[c.rank() as usize]), &counts, 0)?;
            Ok(got.is_none_or(|v| v == concat(c, |r| counts[r])))
        }),
        ("scatter", |c| {
            let all = concat(c, |_| 2);
            let got = c.scatter(rooted(c, &all).as_deref(), 2, 0)?;
            Ok(got == mine(c, 2))
        }),
        ("scatterv", |c| {
            let counts = ragged(c);
            let all = concat(c, |r| counts[r]);
            let got = c.scatterv(rooted(c, &all).as_deref(), &counts, 0)?;
            Ok(got == mine(c, counts[c.rank() as usize]))
        }),
        ("allgatherv", |c| {
            let counts = ragged(c);
            let got = c.allgatherv(&mine(c, counts[c.rank() as usize]), &counts)?;
            Ok(got == concat(c, |r| counts[r]))
        }),
        ("alltoall", |c| {
            // Every rank sends [100·me + dst] to dst.
            let me = c.rank() as i64;
            let data: Vec<i64> = (0..c.size() as i64).map(|dst| 100 * me + dst).collect();
            let want: Vec<i64> = (0..c.size() as i64).map(|src| 100 * src + me).collect();
            Ok(c.alltoall(&data, 1)? == want)
        }),
        ("reduce_scatter_block", |c| {
            let got = c.reduce_scatter_block(&mine(c, c.size()), 1, Op::Sum)?;
            let me = c.rank() as usize;
            Ok(got == sum(c.size(), c.size())[me..me + 1])
        }),
        ("scan", |c| {
            let got = c.scan(&mine(c, 3), Op::Sum)?;
            Ok(got == sum(3, c.rank() as usize + 1))
        }),
        ("exscan", |c| {
            let got = c.exscan(&mine(c, 3), Op::Sum)?;
            Ok(c.rank() == 0 && got.is_empty() || got == sum(3, c.rank() as usize))
        }),
        ("allreduce_hier", |c| {
            let got = c.iallreduce_hier(&mine(c, 3), Op::Sum)?.wait_result()?.0;
            Ok(got == sum(3, c.size()))
        }),
        ("bcast_hier", |c| {
            let fut = c.ibcast_hier(rooted(c, &[7, 8, 9]).as_deref(), 3, 0)?;
            Ok(fut.wait_result()?.0 == [7, 8, 9])
        }),
        ("barrier_hier", |c| {
            c.ibarrier_hier()?.wait_result()?;
            Ok(true)
        }),
    ];

    let _rt = mpfa::dst::real_time();
    // Nodes of two ranks for the hierarchical cases (nothing else in this
    // binary reads the variable): two and three nodes, the last one short.
    std::env::set_var(mpfa::mpi::collectives::ENV_NODE_SIZE, "2");
    let (watchdog_tx, watchdog_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        for n in [4, 5] {
            let victim = n - 2;
            for (name, case) in CASES {
                watchdog_tx.send(format!("{name} on {n} ranks")).unwrap();
                let past_barrier = AtomicUsize::new(0);
                let verdicts = run_ranks(WorldConfig::instant(n), |proc| {
                    let r = proc.enable_resilience(DetectorConfig::default());
                    let comm = proc.world_comm();
                    comm.barrier().unwrap();
                    // As in `injected_peer_death_…`: kill only once every
                    // rank has left the warm-up barrier, and let each
                    // survivor's own detector convict the victim first.
                    past_barrier.fetch_add(1, Ordering::AcqRel);
                    if proc.rank() == victim {
                        return None;
                    }
                    if proc.rank() == 0 {
                        while past_barrier.load(Ordering::Acquire) < n {
                            std::hint::spin_loop();
                        }
                        assert!(proc.world().chaos_kill(victim));
                    }
                    while !r.detector().is_failed(victim) {
                        comm.stream().progress();
                    }
                    let verdict = case(&comm);
                    if verdict.is_err() {
                        comm.revoke().unwrap();
                    }
                    Some(verdict)
                });
                for (rank, verdict) in verdicts.into_iter().enumerate() {
                    if let Some(Ok(exact)) = verdict {
                        assert!(exact, "{name} on {n} ranks: rank {rank} got a wrong Ok");
                    }
                }
            }
        }
    });
    // A hang shows up as a case that outlives the watchdog.
    let mut current = String::from("setup");
    loop {
        match watchdog_rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(name) => current = name,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("hang in {current}"),
        }
    }
    worker.join().expect("a survivor panicked");
}
