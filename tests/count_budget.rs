//! The ledger's exactly-repeating per-op counts, pinned in tier-1.
//!
//! `benchmark/` measures these on demand; this test makes a regression
//! fail `cargo test`. One driver thread owns every rank of a loopback
//! TCP or shm world and sweeps them round-robin — the benchmark's load
//! model — so syscalls, messages and copied bytes per op do not depend
//! on timing. A PR that makes the datapath cheaper lowers [`BUDGET`] in
//! the same change; nothing can raise a row silently.
//!
//! Its own test binary, and a single `#[test]`: the counters are
//! process-global, so any concurrent traffic would pollute the windows.

use std::sync::atomic::Ordering;

mod common;

use common::Coop;
use mpfa::mpi::{MpfaBytes, Op};
use mpfa::transport::{reactor_enabled, TransportKind};

/// A per-op figure either repeats exactly or — the two that depend on
/// how reads happen to split a byte stream — has a ceiling.
#[derive(Debug)]
enum Limit {
    Exactly(f64),
    AtMost(f64),
}
use Limit::{AtMost, Exactly};

impl Limit {
    fn holds(&self, got: f64) -> bool {
        match *self {
            Exactly(want) => got == want,
            AtMost(max) => got <= max,
        }
    }
}

/// Per-op budget of one workload.
struct Budget {
    name: &'static str,
    kind: TransportKind,
    syscalls: Limit,
    msgs: Limit,
    eager: Limit,
    rndv: Limit,
    /// Bytes memcpy'd per user payload byte.
    copies: Limit,
}

/// One row per workload. History: PR 12's ledger read 3 / 72 / 792
/// syscalls and 3.02 / 15.1 / 12.0 copies; the writev + staged-RX byte
/// path brought the TCP rows to 2 / 48 / <= 792 and 1.01 / 7.59 / 6.00.
/// Rendezvous on byte transports then dropped the per-chunk `DataAck`:
/// a 512 KiB send is RTS, CTS and one `Data` frame (432 -> 72 messages,
/// 708 -> 144 syscalls), received straight into the buffer the result
/// keeps. The shm rows make no counted syscall, a small frame is copied
/// out of the ring once, and a 1 MiB message is one eager frame received
/// as a ring view. An 8 MiB message is over the 4 MiB eager hint of a
/// 2-rank world's 16 MiB rings, so it goes rendezvous: RTS, CTS and two
/// 4 MiB slices (258 messages with acks), reassembled by one copy.
const BUDGET: [Budget; 6] = [
    Budget {
        name: "pingpong 2 ranks x 4 KiB",
        kind: TransportKind::Tcp,
        syscalls: Exactly(2.0),
        msgs: Exactly(1.0),
        eager: Exactly(1.0),
        rndv: Exactly(0.0),
        copies: AtMost(1.1),
    },
    Budget {
        name: "iallreduce 8 ranks x 64 B",
        kind: TransportKind::Tcp,
        syscalls: Exactly(48.0),
        msgs: Exactly(24.0),
        eager: Exactly(24.0),
        rndv: Exactly(0.0),
        copies: AtMost(7.6),
    },
    Budget {
        name: "iallreduce 8 ranks x 512 KiB",
        kind: TransportKind::Tcp,
        syscalls: AtMost(152.0),
        msgs: Exactly(72.0),
        eager: Exactly(0.0),
        rndv: Exactly(24.0),
        copies: AtMost(3.4),
    },
    Budget {
        name: "shm pingpong 2 ranks x 32 B",
        kind: TransportKind::Shm,
        syscalls: Exactly(0.0),
        msgs: Exactly(1.0),
        eager: Exactly(1.0),
        rndv: Exactly(0.0),
        copies: Exactly(1.53125),
    },
    Budget {
        name: "shm pingpong 2 ranks x 1 MiB",
        kind: TransportKind::Shm,
        syscalls: Exactly(0.0),
        msgs: Exactly(1.0),
        eager: Exactly(1.0),
        rndv: Exactly(0.0),
        copies: Exactly(0.0),
    },
    Budget {
        name: "shm pingpong 2 ranks x 8 MiB",
        kind: TransportKind::Shm,
        syscalls: Exactly(0.0),
        msgs: Exactly(4.0),
        eager: Exactly(0.0),
        rndv: Exactly(1.0),
        copies: Exactly(1.0000059604644775),
    },
];

#[derive(Clone, Copy)]
struct Counts {
    syscalls: u64,
    msgs: u64,
    eager: u64,
    rndv: u64,
    copied: u64,
}

fn counts() -> Counts {
    let c = mpfa::obs::global_counters();
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    Counts {
        syscalls: get(&c.wire_syscalls),
        msgs: get(&c.msgs_net) + get(&c.msgs_shm),
        eager: get(&c.eager_msgs),
        rndv: get(&c.rndv_started),
        copied: get(&c.bytes_copied),
    }
}

/// Sweeps allowed per op before a world counts as stuck.
const MAX_SWEEPS: u64 = 50_000_000;

/// `warm` unmeasured ops, then `ops` measured ones; checks the per-op
/// deltas against `budget`.
fn check(budget: &Budget, payload_per_op: usize, warm: usize, ops: usize, mut op: impl FnMut()) {
    for _ in 0..warm {
        op();
    }
    let before = counts();
    for _ in 0..ops {
        op();
    }
    let after = counts();
    let per_op = |f: fn(&Counts) -> u64| (f(&after) - f(&before)) as f64 / ops as f64;
    let expect = |what: &str, limit: &Limit, got: f64| {
        assert!(
            limit.holds(got),
            "{}: {what} per op {got}, budget {limit:?}",
            budget.name
        );
    };
    expect("messages", &budget.msgs, per_op(|c| c.msgs));
    expect("eager sends", &budget.eager, per_op(|c| c.eager));
    expect("rendezvous sends", &budget.rndv, per_op(|c| c.rndv));
    let copies = per_op(|c| c.copied) / payload_per_op as f64;
    expect("copies per payload byte", &budget.copies, copies);
    // The scan pump (MPFA_REACTOR=0) reads every peer on every pass, so
    // its syscall count follows the sweep count, not the message count.
    // Rings make no syscalls under either pump.
    if reactor_enabled() || budget.kind == TransportKind::Shm {
        expect("syscalls", &budget.syscalls, per_op(|c| c.syscalls));
    }
}

/// Ping-pong of `len` bytes that re-sends the received buffer.
fn pingpong(budget: &Budget, len: usize, ops: usize) {
    let world = Coop::wire(budget.kind, 2);
    let comms = world.comms();
    let mut ball = Some(MpfaBytes::from(
        (0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>(),
    ));
    let want = ball.clone();
    let mut src = 0;
    check(budget, len, 16, ops, || {
        let dst = 1 - src;
        let recv = comms[dst].irecv_bytes(len, src as i32, 7).unwrap();
        let send = comms[src]
            .isend_bytes(ball.take().unwrap(), dst as i32, 7)
            .unwrap();
        world.drive(|| recv.is_complete() && send.is_complete(), MAX_SWEEPS);
        let (data, _) = recv.take();
        assert!(Some(&data) == want.as_ref(), "payload damaged in flight");
        ball = Some(data);
        src = dst;
    });
}

fn allreduce(budget: &Budget, elems: usize, warm: usize, ops: usize) {
    const RANKS: usize = 8;
    let world = Coop::wire(budget.kind, RANKS);
    let comms = world.comms();
    let contrib: Vec<Vec<u64>> = (0..RANKS as u64)
        .map(|r| (0..elems as u64).map(|i| i + r).collect())
        .collect();
    let want: Vec<u64> = (0..elems as u64).map(|i| 8 * i + 28).collect();
    check(budget, RANKS * elems * 8, warm, ops, || {
        let futs: Vec<_> = comms
            .iter()
            .zip(&contrib)
            .map(|(comm, c)| comm.iallreduce(c, Op::Sum).unwrap())
            .collect();
        world.drive(|| futs.iter().all(|f| f.is_complete()), MAX_SWEEPS);
        for f in futs {
            assert!(f.take() == want, "allreduce result wrong");
        }
    });
}

#[test]
fn per_op_counts_stay_inside_the_committed_budget() {
    pingpong(&BUDGET[0], 4096, 200);
    allreduce(&BUDGET[1], 8, 8, 50);
    allreduce(&BUDGET[2], 64 * 1024, 2, 6);
    pingpong(&BUDGET[3], 32, 200);
    pingpong(&BUDGET[4], 1 << 20, 50);
    pingpong(&BUDGET[5], 8 << 20, 8);
}
