//! Many-rank allreduce scaling benchmark and syscall-flatness guard.
//!
//! Sweeps world size × message size over the wire backends (loopback
//! TCP and shared-memory rings, all ranks as threads of this process)
//! and records per-allreduce latency together with the reactor's obs
//! counters: `wire_syscalls`, `wire_syscalls_saved`, `reactor_wakeups`.
//! The counters are process-global, so each point reports the whole
//! world's syscall bill, not one rank's.
//!
//! The point of the exercise is the reactor's scaling contract: a pump
//! pass touches only *ready* peers (readable, dirty-TX, or needing
//! connection attention) and counts every skipped connected peer in
//! `wire_syscalls_saved` — so the per-sweep syscall cost is O(ready
//! peers), not O(peers). `--smoke` proves exactly that with a guard:
//! the same two-rank traffic pattern inside a 4-rank and a 16-rank
//! world must cost roughly the *same* number of socket syscalls per
//! round (legacy full-scan pumping would pay ~4x more at 16 ranks),
//! while the saved-syscall counter must *grow* with the number of idle
//! peers skipped.
//!
//! Flags:
//! * `--json PATH` — machine-readable record (CI writes
//!   `results/scale_allreduce.json`).
//! * `--smoke` — shrink the sweep to ranks {4, 16}, run the flatness
//!   guard, and arm a watchdog that exits 124 on a hang.
//! * `--transport NAME` — run only the named backend (`tcp`/`shm`);
//!   repeatable.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mpfa_bench::json::JsonObj;
use mpfa_core::wtime;
use mpfa_mpi::wire::WireMsg;
use mpfa_mpi::{Comm, Op, World, WorldConfig};
use mpfa_obs::global_counters;
use mpfa_transport::{loopback_mesh, reactor_enabled, Transport, TransportKind, WireOpts};

/// World sizes for the committed sweep.
const RANK_SWEEP: [usize; 3] = [4, 16, 64];
/// Message sizes in u64 elements: 64 B, 8 KiB, 512 KiB on the wire.
const SIZE_SWEEP: [usize; 3] = [8, 1024, 65536];

struct Config {
    json_path: String,
    smoke: bool,
    transports: Vec<TransportKind>,
}

fn parse_kind(name: &str) -> TransportKind {
    match name {
        "tcp" => TransportKind::Tcp,
        "shm" => TransportKind::Shm,
        other => {
            eprintln!("scale_allreduce: unknown transport {other} (want tcp|shm)");
            std::process::exit(2);
        }
    }
}

impl Config {
    fn from_args() -> Config {
        let mut cfg = Config {
            json_path: String::new(),
            smoke: false,
            transports: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => cfg.json_path = args.next().unwrap_or_default(),
                "--smoke" => cfg.smoke = true,
                "--transport" => cfg
                    .transports
                    .push(parse_kind(&args.next().unwrap_or_default())),
                other => {
                    eprintln!(
                        "usage: scale_allreduce [--json PATH] [--smoke] \
                         [--transport tcp|shm]... (got {other})"
                    );
                    std::process::exit(2);
                }
            }
        }
        cfg
    }
}

/// One measured point, with the world's syscall bill per allreduce.
struct Point {
    ranks: usize,
    bytes: usize,
    reps: usize,
    usec_per_allreduce: f64,
    syscalls_per_op: f64,
    saved_per_op: f64,
    wakeups_per_op: f64,
}

/// Snapshot of the reactor-relevant obs counters.
#[derive(Clone, Copy)]
struct Counters {
    syscalls: u64,
    saved: u64,
    wakeups: u64,
}

fn counters_now() -> Counters {
    let c = global_counters();
    Counters {
        syscalls: c.wire_syscalls.load(Ordering::Relaxed),
        saved: c.wire_syscalls_saved.load(Ordering::Relaxed),
        wakeups: c.reactor_wakeups.load(Ordering::Relaxed),
    }
}

/// Reps shrink with world size and message size so every point costs
/// comparable wall time on an oversubscribed box.
fn reps_for(ranks: usize, elems: usize, smoke: bool) -> usize {
    let base = match ranks {
        0..=4 => 24,
        5..=16 => 10,
        _ => 4,
    };
    let r = if elems >= 65536 { base / 2 } else { base };
    if smoke {
        (r / 4).max(2)
    } else {
        r.max(2)
    }
}

/// Spin up `ranks` in-process ranks on `kind` and run `body` on each.
/// Returns rank 0's result.
fn with_world<R: Send>(kind: TransportKind, ranks: usize, body: impl Fn(&Comm) -> R + Sync) -> R {
    let cfg = WorldConfig {
        transport: kind,
        ..WorldConfig::instant(ranks)
    };
    let ports: Vec<Arc<dyn Transport<WireMsg>>> =
        loopback_mesh::<WireMsg>(kind, ranks, cfg.max_vcis, WireOpts::default())
            .expect("loopback mesh");
    let body = &body;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let cfg = cfg.clone();
                let port = ports[rank].clone();
                s.spawn(move || {
                    let p = World::init_with_transport(cfg, rank, port);
                    body(&p.world_comm())
                })
            })
            .collect();
        let mut results: Vec<R> = handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect();
        results.swap_remove(0)
    })
}

/// One sweep point: `reps` summing allreduces of `elems` u64s across
/// the whole world, timed on rank 0 with counter deltas around the
/// timed region (a barrier on each side keeps connection setup and
/// teardown out of the window).
fn run_point(kind: TransportKind, ranks: usize, elems: usize, reps: usize) -> Point {
    let (secs, delta) = with_world(kind, ranks, |comm| {
        let data: Vec<u64> = (0..elems).map(|i| i as u64 + comm.rank() as u64).collect();
        // Warm the path (first allreduce pays matching setup).
        comm.allreduce(&data, Op::Sum).expect("warmup allreduce");
        comm.barrier().expect("barrier");
        let before = counters_now();
        let t0 = wtime();
        for _ in 0..reps {
            let out = comm.allreduce(&data, Op::Sum).expect("allreduce");
            assert_eq!(out.len(), elems);
        }
        let secs = wtime() - t0;
        comm.barrier().expect("barrier");
        let after = counters_now();
        (
            secs,
            Counters {
                syscalls: after.syscalls - before.syscalls,
                saved: after.saved - before.saved,
                wakeups: after.wakeups - before.wakeups,
            },
        )
    });
    Point {
        ranks,
        bytes: elems * 8,
        reps,
        usec_per_allreduce: secs / reps as f64 * 1e6,
        syscalls_per_op: delta.syscalls as f64 / reps as f64,
        saved_per_op: delta.saved as f64 / reps as f64,
        wakeups_per_op: delta.wakeups as f64 / reps as f64,
    }
}

/// The smoke guard: two active ranks exchange the same number of
/// messages inside a 4-rank and a 16-rank world (every other rank
/// parks on an irecv). Under the reactor the pump touches only the
/// two ready peers, so the syscall bill per round must stay roughly
/// flat as the world grows — while `wire_syscalls_saved` must grow,
/// because more connected-but-idle peers are skipped per sweep.
fn syscall_flatness_guard(kind: TransportKind) {
    const ROUNDS: usize = 200;
    let per_round: Vec<(usize, f64, f64)> = [4usize, 16]
        .iter()
        .map(|&ranks| {
            let delta = with_world(kind, ranks, |comm| {
                comm.barrier().expect("barrier");
                let rank = comm.rank();
                let before = counters_now();
                if rank == 0 {
                    for k in 0..ROUNDS {
                        let r = comm.irecv::<u64>(1, 1, 2).expect("irecv");
                        comm.isend(&[k as u64], 1, 1).expect("isend");
                        r.wait();
                    }
                    // Release the parked ranks.
                    for peer in 2..ranks as i32 {
                        comm.isend(&[0u64], peer, 3).expect("release");
                    }
                } else if rank == 1 {
                    for k in 0..ROUNDS {
                        let (data, _) = comm.irecv::<u64>(1, 0, 1).expect("irecv").wait();
                        assert_eq!(data[0], k as u64);
                        comm.isend(&data, 0, 2).expect("echo");
                    }
                } else {
                    // Idle peer: connected, readable-never, must cost
                    // nothing per sweep.
                    comm.irecv::<u64>(1, 0, 3).expect("park").wait();
                }
                let after = counters_now();
                comm.barrier().expect("barrier");
                (after.syscalls - before.syscalls, after.saved - before.saved)
            });
            (
                ranks,
                delta.0 as f64 / ROUNDS as f64,
                delta.1 as f64 / ROUNDS as f64,
            )
        })
        .collect();

    let (small_ranks, small_sys, small_saved) = per_round[0];
    let (big_ranks, big_sys, big_saved) = per_round[1];
    println!(
        "guard[{kind}]: {small_ranks} ranks {small_sys:.1} syscalls/round \
         ({small_saved:.1} saved), {big_ranks} ranks {big_sys:.1} syscalls/round \
         ({big_saved:.1} saved)"
    );
    // O(ready peers), not O(peers): 4x the world must not cost
    // anywhere near 4x the syscalls for identical two-rank traffic.
    // The 3x slack absorbs scheduling noise; a full scan would pay
    // ~(15 connected / 3 connected) = 5x here.
    assert!(
        big_sys <= small_sys * 3.0,
        "syscalls per round grew with idle peers: {small_sys:.1} at \
         {small_ranks} ranks vs {big_sys:.1} at {big_ranks} ranks — \
         the pump is scanning O(peers), not O(ready peers)"
    );
    // And the skipped peers must actually be accounted as savings.
    assert!(
        big_saved > small_saved,
        "wire_syscalls_saved per round did not grow with idle peers \
         ({small_saved:.1} -> {big_saved:.1})"
    );
    println!("guard[{kind}]: syscalls per sweep are O(ready peers) — ok");
}

fn main() {
    let cfg = Config::from_args();
    if cfg.smoke {
        std::thread::spawn(|| {
            std::thread::sleep(std::time::Duration::from_secs(240));
            eprintln!("scale_allreduce: smoke watchdog fired");
            std::process::exit(124);
        });
    }

    let kinds: Vec<TransportKind> = if !cfg.transports.is_empty() {
        cfg.transports.clone()
    } else {
        vec![TransportKind::Tcp, TransportKind::Shm]
    };
    let rank_sweep: &[usize] = if cfg.smoke { &[4, 16] } else { &RANK_SWEEP };
    let size_sweep: &[usize] = if cfg.smoke { &[1024] } else { &SIZE_SWEEP };

    let mut records = Vec::new();
    for &kind in &kinds {
        println!("== {kind} ==");
        let mut point_objs = Vec::new();
        for &ranks in rank_sweep {
            for &elems in size_sweep {
                let reps = reps_for(ranks, elems, cfg.smoke);
                let p = run_point(kind, ranks, elems, reps);
                println!(
                    "  {:>3} ranks {:>8} B  {:>12.1} us/allreduce  \
                     {:>8.1} syscalls/op  {:>10.1} saved/op  {:>8.1} wakeups/op",
                    p.ranks,
                    p.bytes,
                    p.usec_per_allreduce,
                    p.syscalls_per_op,
                    p.saved_per_op,
                    p.wakeups_per_op
                );
                let mut o = JsonObj::new();
                o.int("ranks", p.ranks as u64)
                    .int("bytes", p.bytes as u64)
                    .int("reps", p.reps as u64)
                    .float("usec_per_allreduce", p.usec_per_allreduce)
                    .float("syscalls_per_op", p.syscalls_per_op)
                    .float("saved_per_op", p.saved_per_op)
                    .float("wakeups_per_op", p.wakeups_per_op);
                point_objs.push(o);
            }
        }
        let mut rec = JsonObj::new();
        rec.str("transport", &kind.to_string())
            .arr("points", &point_objs);
        records.push(rec);
    }

    if cfg.smoke {
        if reactor_enabled() {
            // The flatness contract is about *socket* syscalls; the shm
            // backend moves bytes through polled rings and never touches
            // the wire counters, so the guard runs on the socket-backed
            // kinds only.
            for &kind in kinds.iter().filter(|&&k| k != TransportKind::Shm) {
                syscall_flatness_guard(kind);
            }
        } else {
            println!("guard: reactor disabled (MPFA_REACTOR=0 or non-Linux), skipping");
        }
    }

    if !cfg.json_path.is_empty() {
        let mut out = JsonObj::new();
        out.str("bench", "scale_allreduce")
            .bool("smoke", cfg.smoke)
            .bool("reactor", reactor_enabled())
            .arr("transports", &records);
        out.write_to(&cfg.json_path).expect("write json");
        println!("wrote {}", cfg.json_path);
    }
}
