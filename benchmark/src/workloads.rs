//! The seven workloads. Every one follows the same load model: one driver
//! thread owns *all* ranks of the world and sweeps their default streams
//! round-robin, closed loop, one op (or one window) in flight. The only
//! other threads in the process are the wire transports' own parked epoll
//! reactors.
//!
//! A workload is built from generated [`Inputs`], does one unit of work per
//! [`Workload::step`], checks every output it receives and counts a wrong
//! one as a failed op.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use mpfa::cont::{Executor, JoinHandle};
use mpfa::core::{wtime, AsyncPoll, Request, Stream};
use mpfa::mpi::wire::WireMsg;
use mpfa::mpi::{
    CollFuture, Comm, MpfaBytes, Op, Proc, RecvBytesRequest, World, WorldConfig, ANY_SOURCE,
};
use mpfa::transport::{loopback_mesh, TransportKind, WireOpts};

use crate::hist::Hist;
use crate::inputs::{checksum, Inputs, RecvSpec, TAGS, TASKS, TASK_BATCHES, WINDOW};
use crate::spans::{self, Kind, DRIVER};

/// What one step did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step {
    pub ops: u64,
    pub failed: u64,
}

pub trait Workload {
    /// One op, window pair or batch; per-op times go into `hist`.
    fn step(&mut self, hist: &mut Hist) -> Step;
    /// The streams the driver sweeps (for `Stream::stats` deltas).
    fn streams(&self) -> Vec<Stream>;
    /// User payload bytes one op moves (0 when it moves none).
    fn payload_bytes_per_op(&self) -> u64;
    /// Wind the world down; false if it did not come to rest.
    fn finish(&mut self) -> bool {
        true
    }
}

/// Build a workload. `setup` is true for the throw-away lifecycles that
/// `setup_s` times: same construction, but `tasks64` arms its one batch
/// already due so the cycle is not paced by deadlines.
pub fn build(name: &str, inputs: &Inputs, setup: bool) -> Box<dyn Workload> {
    match name {
        "tasks64" => Box::new(Tasks64::new(inputs, setup)),
        "msgrate_shm" => Box::new(Msgrate::new(inputs)),
        "pingpong_tcp_4k" => Box::new(Pingpong::new(TransportKind::Tcp, inputs)),
        "pingpong_shm_1m" => Box::new(Pingpong::new(TransportKind::Shm, inputs)),
        "allreduce_tcp_64b" | "allreduce_tcp_512k" => Box::new(Allreduce::new(inputs)),
        "async_pingpong_sim" => Box::new(AsyncPingpong::new(inputs)),
        other => panic!("unknown workload {other}"),
    }
}

/// All ranks of one world, owned by the calling thread.
pub struct DriverWorld {
    // Declared before `procs` so communicators drop first.
    comms: Vec<Comm>,
    procs: Vec<Proc>,
}

impl DriverWorld {
    pub fn new(kind: TransportKind, ranks: usize) -> DriverWorld {
        let cfg = WorldConfig {
            transport: kind,
            ..WorldConfig::instant(ranks)
        };
        let procs: Vec<Proc> = match kind {
            TransportKind::Sim => World::init(cfg),
            _ => loopback_mesh::<WireMsg>(kind, ranks, cfg.max_vcis, WireOpts::default())
                .unwrap_or_else(|e| panic!("{kind} loopback mesh: {e}"))
                .into_iter()
                .enumerate()
                .map(|(rank, port)| World::init_with_transport(cfg.clone(), rank, port))
                .collect(),
        };
        let comms = procs.iter().map(Proc::world_comm).collect();
        DriverWorld { comms, procs }
    }

    /// One `Stream::progress` on `rank`'s default stream.
    #[inline]
    pub fn sweep(&self, rank: usize) -> bool {
        sweep(rank, self.procs[rank].default_stream())
    }

    /// One round: every rank once. True if any rank made progress.
    #[inline]
    pub fn sweep_all(&self) -> bool {
        let mut any = false;
        for rank in 0..self.procs.len() {
            any |= self.sweep(rank);
        }
        any
    }

    fn streams(&self) -> Vec<Stream> {
        self.procs
            .iter()
            .map(|p| p.default_stream().clone())
            .collect()
    }
}

#[inline]
fn sweep(rank: usize, stream: &Stream) -> bool {
    let open = spans::begin(Kind::Sweep, rank);
    let progressed = stream.progress().made_progress();
    spans::end(open, progressed);
    progressed
}

// ---------------------------------------------------------------------
// tasks64
// ---------------------------------------------------------------------

/// Where a task's poll function reports back: how often it fired and when
/// it saw its deadline passed.
struct TaskSlots {
    fired: [AtomicU32; TASKS],
    observed: [AtomicU64; TASKS],
}

/// The paper's Listing 1.2 / Figure 7 regime: 64 pending dummy tasks on
/// one stream, each done once `wtime()` passes its deadline. The op is one
/// task's deadline being observed; its time is observed − deadline.
struct Tasks64 {
    stream: Stream,
    slots: Arc<TaskSlots>,
    leads: Vec<f64>,
    deadlines: [f64; TASKS],
    batch: usize,
}

impl Tasks64 {
    fn new(inputs: &Inputs, setup: bool) -> Tasks64 {
        let scale = if setup { 0.0 } else { 1.0 };
        Tasks64 {
            stream: Stream::create(),
            slots: Arc::new(TaskSlots {
                fired: std::array::from_fn(|_| AtomicU32::new(0)),
                observed: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
            leads: inputs.leads.iter().map(|l| l * scale).collect(),
            deadlines: [0.0; TASKS],
            batch: 0,
        }
    }
}

impl Workload for Tasks64 {
    fn step(&mut self, hist: &mut Hist) -> Step {
        let root = spans::begin(Kind::Op, DRIVER);
        let leads = &self.leads[self.batch * TASKS..(self.batch + 1) * TASKS];
        self.batch = (self.batch + 1) % TASK_BATCHES;
        let base = wtime();
        let arm = spans::begin(Kind::TaskStart, 0);
        for (i, lead) in leads.iter().enumerate() {
            let deadline = base + lead;
            self.deadlines[i] = deadline;
            let slots = self.slots.clone();
            self.stream.async_start(move |_| {
                let now = wtime();
                if now >= deadline {
                    slots.observed[i].store(now.to_bits(), Ordering::Relaxed);
                    slots.fired[i].fetch_add(1, Ordering::Relaxed);
                    AsyncPoll::Done
                } else {
                    AsyncPoll::Pending
                }
            });
        }
        spans::end(arm, false);
        while self.stream.pending_tasks() > 0 {
            sweep(0, &self.stream);
        }
        spans::end_op(root, TASKS as u64);

        let mut failed = 0;
        for i in 0..TASKS {
            let fired = self.slots.fired[i].swap(0, Ordering::Relaxed);
            let late =
                f64::from_bits(self.slots.observed[i].load(Ordering::Relaxed)) - self.deadlines[i];
            // Exactly once, and never before the deadline.
            if fired == 1 && late >= 0.0 {
                hist.add_secs(late);
            } else {
                failed += 1;
            }
        }
        Step {
            ops: TASKS as u64,
            failed,
        }
    }

    fn streams(&self) -> Vec<Stream> {
        vec![self.stream.clone()]
    }

    fn payload_bytes_per_op(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// pingpong_tcp_4k / pingpong_shm_1m
// ---------------------------------------------------------------------

const PING_TAG: i32 = 7;

/// Two ranks bounce one message; the echo re-sends the `MpfaBytes` it
/// received (on shm: the ring view itself). The op is one one-way
/// delivery, i.e. half a round trip.
struct Pingpong {
    world: DriverWorld,
    ball: Option<MpfaBytes>,
    len: usize,
    want: u64,
    src: usize,
}

impl Pingpong {
    fn new(kind: TransportKind, inputs: &Inputs) -> Pingpong {
        Pingpong {
            world: DriverWorld::new(kind, 2),
            len: inputs.payload.len(),
            want: checksum(&inputs.payload),
            ball: Some(MpfaBytes::from(inputs.payload.clone())),
            src: 0,
        }
    }
}

/// Length and checksum of a received payload.
fn payload_ok(data: &[u8], len: usize, want: u64) -> bool {
    data.len() == len && checksum(data) == want
}

impl Workload for Pingpong {
    fn step(&mut self, hist: &mut Hist) -> Step {
        let (src, dst) = (self.src, 1 - self.src);
        let ball = self.ball.take().expect("the ball is in hand between ops");
        let comms = &self.world.comms;

        let root = spans::begin(Kind::Op, DRIVER);
        let t0 = wtime();
        let recv = spans::span(Kind::Post, dst, || {
            comms[dst].irecv_bytes(self.len, src as i32, PING_TAG)
        })
        .expect("irecv_bytes");
        let send = spans::span(Kind::Post, src, || {
            comms[src].isend_bytes(ball, dst as i32, PING_TAG)
        })
        .expect("isend_bytes");
        while !(recv.is_complete() && send.is_complete()) {
            self.world.sweep_all();
        }
        let (data, status) = spans::span(Kind::Take, dst, || recv.take());
        let t1 = wtime();
        spans::end_op(root, 1);
        hist.add_secs(t1 - t0);

        let ok = status.bytes == self.len
            && status.source == src as i32
            && send.error().is_none()
            && payload_ok(&data, self.len, self.want);
        self.ball = Some(data);
        self.src = dst;
        Step {
            ops: 1,
            failed: !ok as u64,
        }
    }

    fn streams(&self) -> Vec<Stream> {
        self.world.streams()
    }

    fn payload_bytes_per_op(&self) -> u64 {
        self.len as u64
    }
}

// ---------------------------------------------------------------------
// msgrate_shm
// ---------------------------------------------------------------------

/// Rank 0 streams windows of 1024 small messages over 16 tags to rank 1,
/// which uses the matcher both ways: an even window pre-posts every
/// receive (posted-queue path), an odd window lets every message arrive
/// first (unexpected-queue path); one receive in eight is `ANY_SOURCE`
/// (wildcard side-queue), the rest exact. One step is an even and an odd
/// window, so a per-op time always averages both paths.
struct Msgrate {
    world: DriverWorld,
    messages: Vec<MpfaBytes>,
    recvs: Vec<RecvSpec>,
    /// Checksum the `i`-th posted receive must see: matching is FIFO per
    /// tag, so it gets the `k`-th message of its tag, `k` being how many
    /// earlier posts share the tag.
    want: Vec<u64>,
    pending_recvs: Vec<RecvBytesRequest>,
    pending_sends: Vec<Request>,
}

impl Msgrate {
    fn new(inputs: &Inputs) -> Msgrate {
        let per_tag = WINDOW / TAGS;
        let mut seen = [0usize; TAGS];
        let want = inputs
            .recvs
            .iter()
            .map(|r| {
                let k = seen[r.tag as usize];
                seen[r.tag as usize] += 1;
                checksum(&inputs.messages[r.tag as usize * per_tag + k])
            })
            .collect();
        Msgrate {
            world: DriverWorld::new(TransportKind::Shm, 2),
            messages: inputs
                .messages
                .iter()
                .cloned()
                .map(MpfaBytes::from)
                .collect(),
            recvs: inputs.recvs.clone(),
            want,
            pending_recvs: Vec::with_capacity(WINDOW),
            pending_sends: Vec::with_capacity(WINDOW),
        }
    }

    fn post_recvs(&mut self) {
        let comm = &self.world.comms[1];
        let open = spans::begin(Kind::Post, 1);
        for r in &self.recvs {
            let src = if r.any_source { ANY_SOURCE } else { 0 };
            let req = comm
                .irecv_bytes(crate::inputs::MSG_BYTES, src, r.tag)
                .expect("irecv_bytes");
            self.pending_recvs.push(req);
        }
        spans::end(open, false);
    }

    fn post_sends(&mut self) {
        let comm = &self.world.comms[0];
        let per_tag = WINDOW / TAGS;
        let open = spans::begin(Kind::Post, 0);
        for (i, m) in self.messages.iter().enumerate() {
            let req = comm
                .isend_bytes(m.clone(), 1, (i / per_tag) as i32)
                .expect("isend_bytes");
            self.pending_sends.push(req);
        }
        spans::end(open, false);
    }

    /// Sweep until every posted receive and send of the window completed.
    fn sweep_to_completion(&self) {
        let (mut r, mut s) = (0, 0);
        loop {
            while r < self.pending_recvs.len() && self.pending_recvs[r].is_complete() {
                r += 1;
            }
            while s < self.pending_sends.len() && self.pending_sends[s].is_complete() {
                s += 1;
            }
            if r == self.pending_recvs.len() && s == self.pending_sends.len() {
                return;
            }
            self.world.sweep_all();
        }
    }

    /// Take every receive in post order and check it; returns failures.
    fn take_all(&mut self) -> u64 {
        let open = spans::begin(Kind::Take, 1);
        let mut failed = 0;
        for (i, req) in self.pending_recvs.drain(..).enumerate() {
            let (data, status) = req.take();
            let ok = status.tag == self.recvs[i].tag
                && status.source == 0
                && payload_ok(&data, crate::inputs::MSG_BYTES, self.want[i]);
            failed += !ok as u64;
        }
        failed += self
            .pending_sends
            .drain(..)
            .filter(|s| s.error().is_some())
            .count() as u64;
        spans::end(open, false);
        failed
    }
}

impl Workload for Msgrate {
    fn step(&mut self, hist: &mut Hist) -> Step {
        let t0 = wtime();
        // Even window: receives first, so arrivals match the posted queue.
        let root = spans::begin(Kind::Op, DRIVER);
        self.post_recvs();
        self.post_sends();
        self.sweep_to_completion();
        let mut failed = self.take_all();
        spans::end_op(root, WINDOW as u64);

        // Odd window: sends first, swept until nothing moves, so every
        // message sits in the unexpected queue when its receive is posted.
        let root = spans::begin(Kind::Op, DRIVER);
        self.post_sends();
        while self.world.sweep_all() {}
        self.post_recvs();
        self.sweep_to_completion();
        failed += self.take_all();
        spans::end_op(root, WINDOW as u64);

        let ops = 2 * WINDOW as u64;
        hist.add_secs((wtime() - t0) / ops as f64);
        Step { ops, failed }
    }

    fn streams(&self) -> Vec<Stream> {
        self.world.streams()
    }

    fn payload_bytes_per_op(&self) -> u64 {
        crate::inputs::MSG_BYTES as u64
    }
}

// ---------------------------------------------------------------------
// allreduce_tcp_64b / allreduce_tcp_512k
// ---------------------------------------------------------------------

const ALLREDUCE_RANKS: usize = 8;

/// Eight ranks over loopback TCP each post `iallreduce(Sum)` of a `u64`
/// vector; the op is one allreduce complete on all of them. Rank `r`
/// contributes `a[i] + r*b[i]`, plus `n*(r+1)` in the first and last
/// element on the `n`-th op so a stale result cannot pass.
struct Allreduce {
    world: DriverWorld,
    contrib: Vec<Vec<u64>>,
    /// Closed form of the sum without the per-op term.
    base: Vec<u64>,
    want: Vec<u64>,
    n: u64,
    futs: Vec<CollFuture<u64>>,
}

impl Allreduce {
    fn new(inputs: &Inputs) -> Allreduce {
        let ranks = ALLREDUCE_RANKS as u64;
        let contrib = (0..ranks)
            .map(|r| {
                inputs
                    .a
                    .iter()
                    .zip(&inputs.b)
                    .map(|(a, b)| a + r * b)
                    .collect()
            })
            .collect();
        let base: Vec<u64> = inputs
            .a
            .iter()
            .zip(&inputs.b)
            .map(|(a, b)| ranks * a + b * (ranks * (ranks - 1) / 2))
            .collect();
        Allreduce {
            world: DriverWorld::new(TransportKind::Tcp, ALLREDUCE_RANKS),
            contrib,
            want: base.clone(),
            base,
            n: 0,
            futs: Vec::with_capacity(ALLREDUCE_RANKS),
        }
    }
}

impl Workload for Allreduce {
    fn step(&mut self, hist: &mut Hist) -> Step {
        let ranks = ALLREDUCE_RANKS as u64;
        let last = self.base.len() - 1;
        for (r, c) in self.contrib.iter_mut().enumerate() {
            // After n ops rank r has added n*(r+1).
            let delta = r as u64 + 1;
            c[0] += delta;
            c[last] += delta;
        }
        self.n += 1;
        let term = self.n * (ranks * (ranks + 1) / 2);
        self.want[0] = self.base[0] + term;
        self.want[last] = self.base[last] + term;

        let root = spans::begin(Kind::Op, DRIVER);
        let t0 = wtime();
        for (rank, comm) in self.world.comms.iter().enumerate() {
            let fut = spans::span(Kind::Post, rank, || {
                comm.iallreduce(&self.contrib[rank], Op::Sum)
            })
            .expect("iallreduce");
            self.futs.push(fut);
        }
        while !self.futs.iter().all(CollFuture::is_complete) {
            self.world.sweep_all();
        }
        let t1 = wtime();
        let mut ok = true;
        for (rank, fut) in self.futs.drain(..).enumerate() {
            ok &= fut.request().error().is_none();
            let out = spans::span(Kind::Take, rank, || fut.take());
            ok &= out == self.want;
        }
        spans::end_op(root, 1);
        hist.add_secs(t1 - t0);
        Step {
            ops: 1,
            failed: !ok as u64,
        }
    }

    fn streams(&self) -> Vec<Stream> {
        self.world.streams()
    }

    fn payload_bytes_per_op(&self) -> u64 {
        (ALLREDUCE_RANKS * self.base.len() * 8) as u64
    }
}

// ---------------------------------------------------------------------
// async_pingpong_sim
// ---------------------------------------------------------------------

const ASYNC_TAG: i32 = 3;

struct AsyncShared {
    delivered: AtomicU64,
    failed: AtomicU64,
    stop: AtomicBool,
}

/// Two ranks on the instant sim fabric, each one future on a
/// `cont::Executor` receiving and `send_async`-ing in a loop. A receive is
/// an `irecv::<u8>` (what `recv_async` wraps) so that a continuation can be
/// attached to it before it is awaited: the continuation counts the
/// delivery, the await hands the future its data, and one op exercises the
/// continuation drain, the waker bridge and the executor together. The
/// driver only sweeps; the op is one one-way delivery, seen as the shared
/// delivery count going up.
struct AsyncPingpong {
    world: DriverWorld,
    shared: Arc<AsyncShared>,
    tasks: Vec<JoinHandle<()>>,
    // Kept alive: dropping an executor closes it to new spawns only.
    _executors: Vec<Executor>,
    seen: u64,
    failed_seen: u64,
    next_rank: usize,
    len: usize,
}

/// Body of message number `seq`: the seeded bytes with `seq` folded in.
fn async_body(base: &[u8], seq: u64) -> Vec<u8> {
    base.iter()
        .zip(seq.to_le_bytes().iter().cycle())
        .map(|(b, s)| b ^ s)
        .collect()
}

async fn async_rank(comm: Comm, base: Vec<u8>, shared: Arc<AsyncShared>) {
    let rank = comm.rank() as usize;
    let peer = 1 - rank as i32;
    let post_send = |body: &[u8]| {
        spans::span(Kind::Post, rank, || comm.send_async(body, peer, ASYNC_TAG))
            .expect("send_async")
    };
    // Rank 0 serves message 0; from then on each rank answers message
    // `expect` with message `expect + 1`.
    let mut expect = 1 - rank as u64;
    if rank == 0 {
        post_send(&async_body(&base, 0)).await.expect("send");
    }
    loop {
        let recv = spans::span(Kind::Post, rank, || {
            let recv = comm
                .irecv::<u8>(base.len(), peer, ASYNC_TAG)
                .expect("irecv");
            let shared = shared.clone();
            recv.request().on_complete(move |_| {
                shared.delivered.fetch_add(1, Ordering::Release);
            });
            recv
        });
        let (data, _) = recv.await.expect("recv");
        if data.is_empty() {
            return; // the peer's goodbye
        }
        if data != async_body(&base, expect) {
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
        if shared.stop.load(Ordering::Acquire) {
            post_send(&[]).await.expect("send");
            return;
        }
        post_send(&async_body(&base, expect + 1))
            .await
            .expect("send");
        expect += 2;
    }
}

impl AsyncPingpong {
    fn new(inputs: &Inputs) -> AsyncPingpong {
        let world = DriverWorld::new(TransportKind::Sim, 2);
        let shared = Arc::new(AsyncShared {
            delivered: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let executors: Vec<Executor> = world
            .procs
            .iter()
            .map(|p| Executor::new(p.default_stream()))
            .collect();
        let tasks = executors
            .iter()
            .zip(&world.comms)
            .map(|(ex, comm)| {
                ex.spawn(async_rank(
                    comm.clone(),
                    inputs.payload.clone(),
                    shared.clone(),
                ))
            })
            .collect();
        AsyncPingpong {
            world,
            shared,
            tasks,
            _executors: executors,
            seen: 0,
            failed_seen: 0,
            next_rank: 0,
            len: inputs.payload.len(),
        }
    }
}

impl Workload for AsyncPingpong {
    fn step(&mut self, hist: &mut Hist) -> Step {
        let root = spans::begin(Kind::Op, DRIVER);
        let t0 = wtime();
        let delivered = loop {
            self.world.sweep(self.next_rank);
            self.next_rank = 1 - self.next_rank;
            let d = self.shared.delivered.load(Ordering::Acquire);
            if d > self.seen {
                break d;
            }
        };
        let t1 = wtime();
        let ops = delivered - self.seen;
        spans::end_op(root, ops);
        self.seen = delivered;
        for _ in 0..ops {
            hist.add_secs((t1 - t0) / ops as f64);
        }
        let failed_total = self.shared.failed.load(Ordering::Relaxed);
        let failed = failed_total - self.failed_seen;
        self.failed_seen = failed_total;
        Step { ops, failed }
    }

    fn streams(&self) -> Vec<Stream> {
        self.world.streams()
    }

    fn payload_bytes_per_op(&self) -> u64 {
        self.len as u64
    }

    /// Ask the futures to say goodbye and sweep until both returned.
    fn finish(&mut self) -> bool {
        self.shared.stop.store(true, Ordering::Release);
        let deadline = wtime() + 5.0;
        while !self.tasks.iter().all(JoinHandle::is_finished) {
            if wtime() > deadline {
                return false;
            }
            self.world.sweep_all();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    /// Every workload runs a few steps on generated inputs with no failed
    /// op, and winds down.
    #[test]
    fn every_workload_steps_cleanly() {
        for w in WORKLOADS {
            let inputs = Inputs::generate(w.name, 11);
            let mut hist = Hist::new();
            let mut wl = build(w.name, &inputs, false);
            let mut total = Step::default();
            for _ in 0..3 {
                let s = wl.step(&mut hist);
                total.ops += s.ops;
                total.failed += s.failed;
            }
            assert!(total.ops >= 3, "{}", w.name);
            assert_eq!(total.failed, 0, "{}", w.name);
            assert!(hist.len() > 0, "{}", w.name);
            assert!(wl.finish(), "{}", w.name);
        }
    }

    /// The checker must count a corrupted payload as a failed op: plant a
    /// flipped bit in what the pingpong expects to get back.
    #[test]
    fn planted_corruption_is_counted_as_failed() {
        let inputs = Inputs::generate("pingpong_tcp_4k", 5);
        let mut wl = Pingpong::new(TransportKind::Tcp, &inputs);
        let mut hist = Hist::new();
        assert_eq!(wl.step(&mut hist).failed, 0);
        let mut bad = inputs.payload.clone();
        bad[100] ^= 0x10;
        wl.ball = Some(MpfaBytes::from(bad));
        assert_eq!(wl.step(&mut hist), Step { ops: 1, failed: 1 });
        // The corrupted ball keeps bouncing, so it keeps failing.
        assert_eq!(wl.step(&mut hist).failed, 1);

        // Same for a truncated one.
        assert!(payload_ok(&inputs.payload, wl.len, wl.want));
        assert!(!payload_ok(&inputs.payload[..4095], wl.len, wl.want));
    }

    #[test]
    fn allreduce_closed_form_catches_a_wrong_contribution() {
        let inputs = Inputs::generate("allreduce_tcp_64b", 5);
        let mut wl = Allreduce::new(&inputs);
        let mut hist = Hist::new();
        assert_eq!(wl.step(&mut hist).failed, 0);
        wl.contrib[3][2] += 1;
        assert_eq!(wl.step(&mut hist).failed, 1);
    }
}
