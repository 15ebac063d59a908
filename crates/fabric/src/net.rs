//! The fabric proper: per-destination timed delivery queues plus the
//! per-directed-channel serialization model.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::wtime;
use mpfa_obs::{Counters, EventKind, PathKind};

use crate::config::FabricConfig;
use crate::endpoint::{Endpoint, TxHandle};
use crate::envelope::{Envelope, InFlight};

/// Which delivery path a packet took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Same-node (shared-memory) path.
    Shmem,
    /// Cross-node (network) path.
    Net,
}

impl Path {
    fn kind(self) -> PathKind {
        match self {
            Path::Shmem => PathKind::Shmem,
            Path::Net => PathKind::Net,
        }
    }
}

/// Point-in-time traffic totals of one fabric instance (see
/// [`Fabric::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets injected on the network path.
    pub packets_net: u64,
    /// Packets injected on the shared-memory path.
    pub packets_shm: u64,
    /// Wire bytes injected across both paths.
    pub bytes_total: u64,
}

/// Deterministic hash of `x` into [0, 1) (splitmix64 finalizer).
fn hash01(x: u64) -> f64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One delivery lane (a rank × path pair): the timed in-flight heap plus
/// two lock-free fast-out summaries a poller can check without touching
/// the heap mutex — the packet count, and the earliest arrival time of
/// anything queued (as ordered `f64` bits; arrivals are non-negative, so
/// the IEEE-754 bit patterns compare like the values themselves).
pub(crate) struct Lane<M> {
    heap: Mutex<BinaryHeap<InFlight<M>>>,
    count: AtomicUsize,
    /// `f64::to_bits` of the earliest queued arrival; `INF_BITS` when
    /// empty. Written only under the heap lock, read without it.
    earliest_bits: AtomicU64,
}

const INF_BITS: u64 = f64::INFINITY.to_bits();

impl<M> Lane<M> {
    fn new() -> Self {
        Lane {
            heap: Mutex::new(BinaryHeap::new()),
            count: AtomicUsize::new(0),
            earliest_bits: AtomicU64::new(INF_BITS),
        }
    }

    fn push(&self, inflight: InFlight<M>) {
        let mut heap = self.heap.lock();
        let bits = inflight.arrival.to_bits();
        heap.push(inflight);
        if bits < self.earliest_bits.load(Ordering::Relaxed) {
            self.earliest_bits.store(bits, Ordering::Release);
        }
        drop(heap);
        self.count.fetch_add(1, Ordering::Release);
    }

    fn queued(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Pop every packet that has arrived by `now` (up to `max`) into `out`
    /// in one lock hold. Returns how many were delivered. Empty and
    /// nothing-due lanes are rejected from the two atomic summaries
    /// without ever taking the heap lock.
    fn drain_due(&self, now: f64, max: usize, out: &mut Vec<Envelope<M>>) -> usize {
        if self.count.load(Ordering::Acquire) == 0
            || self.earliest_bits.load(Ordering::Acquire) > now.to_bits()
        {
            return 0;
        }
        let mut heap = self.heap.lock();
        let mut n = 0;
        while n < max {
            match heap.peek() {
                Some(top) if top.arrival <= now => {
                    out.push(heap.pop().expect("peeked").envelope);
                    n += 1;
                }
                _ => break,
            }
        }
        // Re-summarize from the new heap top (exact, not just a lower
        // bound — the heap lock is the only writer of these bits).
        self.earliest_bits.store(
            heap.peek().map_or(INF_BITS, |top| top.arrival.to_bits()),
            Ordering::Release,
        );
        drop(heap);
        if n > 0 {
            self.count.fetch_sub(n, Ordering::Release);
        }
        n
    }
}

pub(crate) struct RankQueues<M> {
    net: Lane<M>,
    shm: Lane<M>,
}

impl<M> RankQueues<M> {
    fn new() -> Self {
        RankQueues {
            net: Lane::new(),
            shm: Lane::new(),
        }
    }

    fn lane(&self, path: Path) -> &Lane<M> {
        match path {
            Path::Net => &self.net,
            Path::Shmem => &self.shm,
        }
    }
}

/// Perturbs packet arrival times — the deterministic-simulation hook on
/// the fabric's delivery schedule.
///
/// Installed via [`Fabric::set_delivery_hook`] (production fabrics leave
/// it unset). The hook sees each packet's computed arrival time *before*
/// the per-channel FIFO clamp and returns a replacement; whatever it
/// returns is still clamped so a directed channel never reorders — MPI
/// non-overtaking survives any hook. Returning a time in the past is
/// clamped to `now`. Cross-channel reordering (rank A's packet overtaking
/// rank B's) is exactly the nondeterminism a schedule explorer wants to
/// fuzz.
pub trait DeliveryHook: Send + Sync {
    /// Replacement arrival time for the packet `src -> dst` with fabric
    /// sequence number `seq`, whose modeled arrival is `arrival` and
    /// whose send happens at `now`.
    fn arrival(&self, src: usize, dst: usize, seq: u64, arrival: f64, now: f64) -> f64;
}

/// Per-directed-channel wire state.
#[derive(Default)]
struct Channel {
    /// When the channel finishes its current transmission.
    next_free: f64,
    /// Latest arrival handed out (jitter clamps against this so the
    /// channel stays FIFO).
    last_arrival: f64,
}

pub(crate) struct FabricInner<M> {
    pub(crate) config: FabricConfig,
    /// Wire state per directed channel, indexed `src * ranks + dst`.
    channels: Vec<Mutex<Channel>>,
    pub(crate) rx: Vec<RankQueues<M>>,
    seq: AtomicU64,
    /// This instance's traffic counters (each simulated fabric keeps its
    /// own set; packets are also mirrored into the process-wide registry).
    counters: Counters,
    /// Fast-out flag for the delivery hook (checked on every send with a
    /// relaxed load; the Mutex below is touched only when set).
    has_delivery_hook: AtomicBool,
    /// Deterministic-simulation arrival perturbation, if installed.
    delivery_hook: Mutex<Option<Arc<dyn DeliveryHook>>>,
}

/// A simulated fabric connecting `config.ranks` endpoints. Cheap to clone.
pub struct Fabric<M> {
    pub(crate) inner: Arc<FabricInner<M>>,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric {
            inner: self.inner.clone(),
        }
    }
}

impl<M: Send> Fabric<M> {
    /// Build a fabric from a validated configuration.
    pub fn new(config: FabricConfig) -> Fabric<M> {
        config.validate();
        let n = config.ranks;
        Fabric {
            inner: Arc::new(FabricInner {
                channels: (0..n * n).map(|_| Mutex::new(Channel::default())).collect(),
                rx: (0..n).map(|_| RankQueues::new()).collect(),
                config,
                seq: AtomicU64::new(0),
                counters: Counters::new(),
                has_delivery_hook: AtomicBool::new(false),
                delivery_hook: Mutex::new(None),
            }),
        }
    }

    /// Install (or with `None`, remove) a [`DeliveryHook`] perturbing
    /// packet arrival times. Applies to packets sent after the call.
    pub fn set_delivery_hook(&self, hook: Option<Arc<dyn DeliveryHook>>) {
        let mut slot = self.inner.delivery_hook.lock();
        self.inner
            .has_delivery_hook
            .store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.inner.config
    }

    /// The endpoint handle for `rank`. Multiple handles to one rank are
    /// allowed (they share the same queues).
    pub fn endpoint(&self, rank: usize) -> Endpoint<M> {
        assert!(rank < self.inner.config.ranks, "rank {rank} out of range");
        Endpoint::new(self.clone(), rank)
    }

    /// Total packets injected on the shmem path so far.
    pub fn packets_shmem(&self) -> u64 {
        self.inner.counters.msgs_shm.load(Ordering::Relaxed)
    }

    /// Total wire bytes injected so far.
    pub fn bytes_total(&self) -> u64 {
        self.inner.counters.bytes_net.load(Ordering::Relaxed)
            + self.inner.counters.bytes_shm.load(Ordering::Relaxed)
    }

    /// Point-in-time traffic totals for this fabric instance.
    pub fn stats(&self) -> FabricStats {
        let snap = self.inner.counters.snapshot();
        FabricStats {
            packets_net: snap.msgs_net,
            packets_shm: snap.msgs_shm,
            bytes_total: snap.bytes_total(),
        }
    }

    /// Inject a packet. Returns the TX completion handle (done when the
    /// sender-side channel finishes serializing the payload — the "NIC
    /// signals completion" event of eager sends).
    ///
    /// This is the raw fabric-level entry point; most callers go through
    /// [`Endpoint::send`] or a `mpfa-transport` backend instead.
    pub fn send(&self, src: usize, dst: usize, msg: M, wire_bytes: usize) -> TxHandle {
        let cfg = &self.inner.config;
        assert!(dst < cfg.ranks, "destination rank {dst} out of range");
        assert!(
            wire_bytes <= cfg.mtu,
            "payload of {wire_bytes} bytes exceeds fabric MTU {}; chunk it",
            cfg.mtu
        );

        let now = wtime();
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let (tx_end, arrival) = {
            let mut chan = self.inner.channels[src * cfg.ranks + dst].lock();
            let start = now.max(chan.next_free);
            let tx_end = start + cfg.tx_time(src, dst, wire_bytes);
            chan.next_free = tx_end;
            let mut arrival = tx_end + cfg.latency(src, dst);
            if cfg.jitter > 0.0 {
                // Deterministic per-packet jitter (hash of the sequence
                // number), clamped to keep the channel FIFO.
                arrival += cfg.latency(src, dst) * cfg.jitter * hash01(seq);
            }
            if self.inner.has_delivery_hook.load(Ordering::Acquire) {
                let hook = self.inner.delivery_hook.lock().clone();
                if let Some(hook) = hook {
                    // The hook may move the arrival anywhere at-or-after
                    // `now`; the FIFO clamp below still guarantees the
                    // directed channel never reorders.
                    arrival = hook.arrival(src, dst, seq, arrival, now).max(now);
                }
            }
            arrival = arrival.max(chan.last_arrival);
            chan.last_arrival = arrival;
            (tx_end, arrival)
        };

        let inflight = InFlight {
            arrival,
            seq,
            envelope: Envelope {
                src,
                dst,
                wire_bytes,
                msg,
            },
        };
        let q = &self.inner.rx[dst];
        let path = if cfg.same_node(src, dst) {
            Path::Shmem
        } else {
            Path::Net
        };
        self.inner
            .counters
            .record_packet(path.kind(), wire_bytes as u64);
        mpfa_obs::global_counters().record_packet(path.kind(), wire_bytes as u64);
        mpfa_obs::record_at(now, || EventKind::FabricTx {
            src: src as u32,
            dst: dst as u32,
            path: path.kind(),
            bytes: wire_bytes.min(u32::MAX as usize) as u32,
        });
        q.lane(path).push(inflight);
        TxHandle::new(tx_end)
    }

    /// Pop the next arrived packet for `rank` on `path`, if any.
    pub fn poll(&self, rank: usize, path: Path) -> Option<Envelope<M>> {
        let mut out = Vec::new();
        if self.poll_batch(rank, path, 1, &mut out) == 0 {
            return None;
        }
        out.pop()
    }

    /// Drain every packet that has already arrived for `rank` on `path`
    /// (up to `max`) into `out` with a single heap-lock acquisition, and
    /// *zero* lock acquisitions when the lane is empty or nothing is due
    /// yet (atomic count + earliest-arrival fast-outs). Returns the number
    /// of packets appended. Delivery events are recorded after the lock is
    /// released.
    pub fn poll_batch(
        &self,
        rank: usize,
        path: Path,
        max: usize,
        out: &mut Vec<Envelope<M>>,
    ) -> usize {
        let lane = self.inner.rx[rank].lane(path);
        let first = out.len();
        let n = lane.drain_due(wtime(), max, out);
        for env in &out[first..] {
            mpfa_obs::record(|| EventKind::FabricRx {
                rank: rank as u32,
                src: env.src as u32,
                path: path.kind(),
                bytes: env.wire_bytes.min(u32::MAX as usize) as u32,
            });
        }
        n
    }

    /// Number of packets queued (arrived or still in flight) for `rank`.
    pub fn queued(&self, rank: usize, path: Path) -> usize {
        self.inner.rx[rank].lane(path).queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_fabric_delivers_immediately() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant(2));
        let tx = f.send(0, 1, 42, 8);
        assert!(tx.is_done());
        let env = f.poll(1, Path::Net).expect("delivered");
        assert_eq!(env.msg, 42);
        assert_eq!(env.src, 0);
        assert_eq!(env.wire_bytes, 8);
        assert!(f.poll(1, Path::Net).is_none());
    }

    #[test]
    fn same_node_goes_shmem_path() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant_nodes(4, 2));
        f.send(0, 1, 7, 0);
        assert!(f.poll(1, Path::Net).is_none());
        assert_eq!(f.poll(1, Path::Shmem).unwrap().msg, 7);
        f.send(0, 2, 8, 0);
        assert!(f.poll(2, Path::Shmem).is_none());
        assert_eq!(f.poll(2, Path::Net).unwrap().msg, 8);
        assert_eq!(f.stats().packets_net, 1);
        assert_eq!(f.packets_shmem(), 1);
    }

    #[test]
    fn latency_delays_delivery() {
        let mut cfg = FabricConfig::instant(2);
        cfg.inter_latency = 0.005;
        let f: Fabric<u32> = Fabric::new(cfg);
        let t0 = wtime();
        f.send(0, 1, 1, 0);
        // Not arrived yet (unless we got descheduled for >5ms).
        if wtime() - t0 < 0.004 {
            assert!(f.poll(1, Path::Net).is_none());
        }
        while f.poll(1, Path::Net).is_none() {
            std::hint::spin_loop();
        }
        assert!(wtime() - t0 >= 0.005);
    }

    #[test]
    fn bandwidth_serializes_tx() {
        let mut cfg = FabricConfig::instant(2);
        cfg.inter_bandwidth = 1e6; // 1 MB/s
        let f: Fabric<u32> = Fabric::new(cfg);
        let t0 = wtime();
        let tx = f.send(0, 1, 1, 10_000); // 10 ms of wire time
        assert!(!tx.is_done());
        tx.wait();
        assert!(wtime() - t0 >= 0.009);
    }

    #[test]
    fn per_channel_fifo_under_bandwidth() {
        let mut cfg = FabricConfig::instant(2);
        cfg.inter_bandwidth = 1e9;
        let f: Fabric<u32> = Fabric::new(cfg);
        for i in 0..100u32 {
            f.send(0, 1, i, 1000);
        }
        let mut got = Vec::new();
        while got.len() < 100 {
            if let Some(env) = f.poll(1, Path::Net) {
                got.push(env.msg);
            }
        }
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(got, expect, "per-channel delivery must be FIFO");
    }

    #[test]
    fn queued_counts() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant(2));
        assert_eq!(f.queued(1, Path::Net), 0);
        f.send(0, 1, 1, 0);
        f.send(0, 1, 2, 0);
        assert_eq!(f.queued(1, Path::Net), 2);
        f.poll(1, Path::Net);
        assert_eq!(f.queued(1, Path::Net), 1);
    }

    #[test]
    fn batch_drain_preserves_fifo() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant(2));
        for i in 0..10u32 {
            f.send(0, 1, i, 8);
        }
        let mut out = Vec::new();
        // Bounded drain takes the earliest arrivals first.
        assert_eq!(f.poll_batch(1, Path::Net, 4, &mut out), 4);
        assert_eq!(f.poll_batch(1, Path::Net, 100, &mut out), 6);
        let got: Vec<u32> = out.iter().map(|e| e.msg).collect();
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
        assert_eq!(f.queued(1, Path::Net), 0);
        assert_eq!(f.poll_batch(1, Path::Net, 100, &mut out), 0);
    }

    #[test]
    fn earliest_fast_out_skips_undue_packets() {
        let mut cfg = FabricConfig::instant(2);
        cfg.inter_latency = 10.0; // nothing becomes due during this test
        let f: Fabric<u32> = Fabric::new(cfg);
        f.send(0, 1, 1, 0);
        assert_eq!(f.queued(1, Path::Net), 1);
        let mut out = Vec::new();
        // Due in 10s: the earliest-arrival fast-out rejects the poll
        // without consuming anything.
        assert_eq!(f.poll_batch(1, Path::Net, 100, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(f.queued(1, Path::Net), 1);
    }

    #[test]
    fn earliest_resummarized_after_partial_drain() {
        let mut cfg = FabricConfig::instant(2);
        cfg.inter_latency = 1e-4;
        let f: Fabric<u32> = Fabric::new(cfg);
        f.send(0, 1, 1, 0);
        let mut out = Vec::new();
        while f.poll_batch(1, Path::Net, 100, &mut out) == 0 {
            std::hint::spin_loop();
        }
        assert_eq!(out.len(), 1);
        // A later packet must still be deliverable (the summary was reset
        // to the new heap top, not left at the consumed arrival).
        f.send(0, 1, 2, 0);
        out.clear();
        while f.poll_batch(1, Path::Net, 100, &mut out) == 0 {
            std::hint::spin_loop();
        }
        assert_eq!(out[0].msg, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant(2));
        f.send(0, 5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "MTU")]
    fn oversized_packet_panics() {
        let mut cfg = FabricConfig::instant(2);
        cfg.mtu = 1024;
        let f: Fabric<u32> = Fabric::new(cfg);
        f.send(0, 1, 1, 4096);
    }

    #[test]
    fn counters_accumulate() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant(2));
        f.send(0, 1, 1, 100);
        f.send(1, 0, 2, 50);
        assert_eq!(f.bytes_total(), 150);
        assert_eq!(f.stats().packets_net, 2);
    }

    #[test]
    fn hash01_is_deterministic_and_bounded() {
        for x in [0u64, 1, 42, u64::MAX] {
            let v = hash01(x);
            assert_eq!(v, hash01(x));
            assert!((0.0..1.0).contains(&v));
        }
        assert_ne!(hash01(1), hash01(2));
    }

    #[test]
    fn jitter_preserves_channel_fifo() {
        let mut cfg = FabricConfig::instant(2);
        cfg.inter_latency = 50e-6;
        cfg.jitter = 2.0; // aggressive
        let f: Fabric<u32> = Fabric::new(cfg);
        for i in 0..200u32 {
            f.send(0, 1, i, 64);
        }
        let mut got = Vec::new();
        while got.len() < 200 {
            if let Some(env) = f.poll(1, Path::Net) {
                got.push(env.msg);
            }
        }
        let expect: Vec<u32> = (0..200).collect();
        assert_eq!(got, expect, "jitter broke per-channel FIFO");
    }

    /// Hook that delays packets from even-numbered sources by a fixed
    /// amount and delivers the rest as modeled.
    struct DelayEvens(f64);
    impl DeliveryHook for DelayEvens {
        fn arrival(&self, src: usize, _dst: usize, _seq: u64, arrival: f64, now: f64) -> f64 {
            if src.is_multiple_of(2) {
                now + self.0
            } else {
                arrival
            }
        }
    }

    /// Hostile hook: tries to deliver every packet immediately (which
    /// would reorder a busy channel if the FIFO clamp did not exist).
    struct DeliverNow;
    impl DeliveryHook for DeliverNow {
        fn arrival(&self, _s: usize, _d: usize, _q: u64, _arrival: f64, now: f64) -> f64 {
            now
        }
    }

    #[test]
    fn delivery_hook_reorders_across_channels() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant(3));
        // Warm up lazily allocated paths (obs event ring, lane state) so
        // the hook's delay window below isn't eaten by first-use costs.
        f.send(1, 2, 0, 8);
        while f.poll(2, Path::Net).is_none() {}
        // Generous delay: the undelayed packet must win even if this
        // thread is descheduled between send and first poll.
        f.set_delivery_hook(Some(Arc::new(DelayEvens(20e-3))));
        f.send(0, 2, 100, 8); // sent first, delayed by the hook
        f.send(1, 2, 200, 8); // sent second, arrives immediately
        let mut got = Vec::new();
        while got.len() < 2 {
            if let Some(env) = f.poll(2, Path::Net) {
                got.push(env.msg);
            }
        }
        assert_eq!(got, vec![200, 100], "hook did not reorder across channels");
    }

    #[test]
    fn delivery_hook_cannot_break_channel_fifo() {
        let mut cfg = FabricConfig::instant(2);
        cfg.inter_latency = 50e-6;
        cfg.jitter = 1.0;
        let f: Fabric<u32> = Fabric::new(cfg);
        f.set_delivery_hook(Some(Arc::new(DeliverNow)));
        for i in 0..100u32 {
            f.send(0, 1, i, 64);
        }
        let mut got = Vec::new();
        while got.len() < 100 {
            if let Some(env) = f.poll(1, Path::Net) {
                got.push(env.msg);
            }
        }
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(got, expect, "delivery hook broke per-channel FIFO");
    }

    #[test]
    fn delivery_hook_uninstalls() {
        let f: Fabric<u32> = Fabric::new(FabricConfig::instant(2));
        f.set_delivery_hook(Some(Arc::new(DelayEvens(1.0))));
        f.set_delivery_hook(None);
        f.send(0, 1, 7, 8); // would hang for 1s if the hook were still on
        let env = f.poll(1, Path::Net).expect("instant delivery");
        assert_eq!(env.msg, 7);
    }

    #[test]
    fn concurrent_senders_one_receiver() {
        let f: Fabric<u64> = Fabric::new(FabricConfig::instant(5));
        std::thread::scope(|s| {
            for src in 1..5 {
                let f = f.clone();
                s.spawn(move || {
                    let ep = f.endpoint(src);
                    for i in 0..50u64 {
                        ep.send(0, (src as u64) << 32 | i, 8);
                    }
                });
            }
        });
        let mut per_src: Vec<Vec<u64>> = vec![Vec::new(); 5];
        let mut total = 0;
        while total < 200 {
            if let Some(env) = f.poll(0, Path::Net) {
                per_src[env.src].push(env.msg & 0xffff_ffff);
                total += 1;
            }
        }
        let expect: Vec<u64> = (0..50).collect();
        for (src, seen) in per_src.iter().enumerate().skip(1) {
            assert_eq!(seen, &expect, "per-source FIFO violated for src {src}");
        }
    }
}
