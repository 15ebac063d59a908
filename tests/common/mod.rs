//! Shared harness for the integration tests.
#![allow(dead_code)] // each test binary uses a subset of the helpers

use mpfa::mpi::wire::WireMsg;
use mpfa::mpi::{Comm, Proc, World, WorldConfig};
use mpfa::transport::{loopback_mesh, TransportKind, WireOpts};

/// Run `f(proc)` on one thread per rank; collect results in rank order.
pub fn run_ranks<R: Send>(cfg: WorldConfig, f: impl Fn(Proc) -> R + Send + Sync) -> Vec<R> {
    let procs = World::init(cfg);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = procs.into_iter().map(|p| s.spawn(move || f(p))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// Small deterministic PRNG (splitmix64) for randomized-case tests.
///
/// The property tests iterate a fixed number of seeded cases, so failures
/// reproduce exactly: re-run with the printed seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform in `[lo, hi)`.
    pub fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        self.i64_in(lo as i64, hi as i64) as i32
    }

    /// A vec of `len` values of `f(self)`.
    pub fn vec_with<T>(&mut self, len: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }

    /// A vec of random length in `[lo, hi)` filled with `f(self)`.
    pub fn vec_in<T>(&mut self, lo: usize, hi: usize, f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let len = self.usize_in(lo, hi);
        self.vec_with(len, f)
    }
}

/// Cooperative (single-thread) world: all ranks progressed round-robin.
/// Use only nonblocking operations through this.
pub struct Coop {
    pub procs: Vec<Proc>,
}

impl Coop {
    pub fn new(cfg: WorldConfig) -> Coop {
        Coop {
            procs: World::init(cfg),
        }
    }

    /// The same, over an in-process mesh of a real transport (`kind`
    /// is not `Sim`): every rank's sockets or rings, one driver thread.
    pub fn wire(kind: TransportKind, ranks: usize) -> Coop {
        let cfg = WorldConfig {
            transport: kind,
            ..WorldConfig::instant(ranks)
        };
        let mesh = loopback_mesh::<WireMsg>(kind, ranks, cfg.max_vcis, WireOpts::default())
            .expect("loopback mesh");
        let procs = mesh
            .into_iter()
            .enumerate()
            .map(|(rank, port)| World::init_with_transport(cfg.clone(), rank, port))
            .collect();
        Coop { procs }
    }

    pub fn comms(&self) -> Vec<Comm> {
        self.procs.iter().map(Proc::world_comm).collect()
    }

    pub fn poll_all(&self) {
        for p in &self.procs {
            p.default_stream().progress();
        }
    }

    /// Sweep until `cond`; panics after `max_sweeps` (deadlock guard).
    pub fn drive(&self, mut cond: impl FnMut() -> bool, max_sweeps: u64) {
        let mut sweeps = 0;
        while !cond() {
            self.poll_all();
            sweeps += 1;
            assert!(sweeps < max_sweeps, "cooperative drive did not converge");
        }
    }
}
