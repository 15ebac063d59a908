//! World bootstrap: the in-process equivalent of `mpiexec -n N`.
//!
//! A [`World`] owns the simulated fabric and the cross-rank agreement
//! tables that real MPI implementations realize with out-of-band setup
//! (PMI): context-id allocation, VCI assignment, and the data exchange
//! backing `comm_split`. Being in-process, these are small shared tables;
//! they are used only at communicator-creation time, never on the message
//! path.

use std::collections::HashMap;
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_fabric::{Fabric, FabricConfig};
use mpfa_transport::bootstrap::{self, BootEnv};
use mpfa_transport::{sim_rank_views, SharedTransport, TransportKind, WireOpts};

use crate::error::{MpiError, MpiResult};
use crate::proc::Proc;
use crate::protocol::ProtoConfig;
use crate::wire::WireMsg;

/// Configuration of a world: topology, wire costs, protocol thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Ranks per node (same-node traffic takes the shmem path).
    pub node_size: usize,
    /// Cross-node one-way latency, seconds.
    pub inter_latency: f64,
    /// Same-node one-way latency, seconds.
    pub intra_latency: f64,
    /// Cross-node bandwidth, bytes/s (0.0 = infinite).
    pub inter_bandwidth: f64,
    /// Same-node bandwidth, bytes/s (0.0 = infinite).
    pub intra_bandwidth: f64,
    /// Fabric MTU (largest single packet payload).
    pub mtu: usize,
    /// Per-packet latency jitter fraction (see
    /// [`mpfa_fabric::FabricConfig::jitter`]).
    pub jitter: f64,
    /// Point-to-point protocol thresholds.
    pub proto: ProtoConfig,
    /// Virtual communication interfaces per rank (VCI 0 is the default
    /// stream's; each stream communicator takes one more).
    pub max_vcis: usize,
    /// Which packet substrate carries the traffic. [`TransportKind::Sim`]
    /// (the default) is the in-process simulated fabric; the wire kinds
    /// require [`World::launch`] under an `mpfarun`-style environment.
    pub transport: TransportKind,
}

impl WorldConfig {
    /// Instant deterministic fabric, one rank per node.
    pub fn instant(ranks: usize) -> WorldConfig {
        WorldConfig {
            ranks,
            node_size: 1,
            inter_latency: 0.0,
            intra_latency: 0.0,
            inter_bandwidth: 0.0,
            intra_bandwidth: 0.0,
            mtu: usize::MAX,
            jitter: 0.0,
            proto: ProtoConfig::default(),
            max_vcis: 8,
            transport: TransportKind::Sim,
        }
    }

    /// Instant fabric with `node_size` ranks per node.
    pub fn instant_nodes(ranks: usize, node_size: usize) -> WorldConfig {
        WorldConfig {
            node_size,
            ..WorldConfig::instant(ranks)
        }
    }

    /// Cluster-like wire costs (µs latency, GB/s bandwidth), one rank per
    /// node — shaped after the paper's Bebop testbed.
    pub fn cluster(ranks: usize) -> WorldConfig {
        WorldConfig {
            ranks,
            node_size: 1,
            inter_latency: 1.5e-6,
            intra_latency: 0.2e-6,
            inter_bandwidth: 12.0e9,
            intra_bandwidth: 40.0e9,
            mtu: 1 << 22,
            jitter: 0.0,
            proto: ProtoConfig::default(),
            max_vcis: 8,
            transport: TransportKind::Sim,
        }
    }

    /// All ranks on one node (shmem path only).
    pub fn single_node(ranks: usize) -> WorldConfig {
        WorldConfig {
            node_size: ranks.max(1),
            ..WorldConfig::cluster(ranks)
        }
    }

    /// The fabric configuration realizing this world: each rank owns
    /// `max_vcis` consecutive wire endpoints.
    pub(crate) fn fabric_config(&self) -> FabricConfig {
        FabricConfig {
            ranks: self.ranks * self.max_vcis,
            node_size: self.node_size * self.max_vcis,
            inter_latency: self.inter_latency,
            intra_latency: self.intra_latency,
            inter_bandwidth: self.inter_bandwidth,
            intra_bandwidth: self.intra_bandwidth,
            mtu: self.mtu,
            jitter: self.jitter,
        }
    }

    /// Wire endpoint index of `(world_rank, vci)`.
    #[inline]
    pub(crate) fn ep_index(&self, world_rank: usize, vci: usize) -> usize {
        world_rank * self.max_vcis + vci
    }

    /// Validate invariants across every layer this config feeds: protocol
    /// thresholds, the derived fabric configuration, and the VCI count.
    /// Panics with a descriptive message on nonsense configurations
    /// (MPI_ERRORS_ARE_FATAL semantics, like the layers it checks).
    pub fn validate(&self) {
        self.proto.validate();
        self.fabric_config().validate();
        assert!(self.max_vcis >= 1, "need at least one VCI");
    }
}

/// Context-id / VCI agreement tables.
pub(crate) struct Registry {
    /// `(parent_ctx, child_key) -> child_ctx`; every rank deriving the same
    /// child (same parent, same creation index, same color) gets the same id.
    ctx: HashMap<(u64, u64), u64>,
    next_ctx: u64,
    /// `ctx -> vci`; VCI 0 belongs to default-stream communicators.
    vci: HashMap<u64, usize>,
    next_vci: usize,
}

impl Registry {
    fn new() -> Registry {
        let mut vci = HashMap::new();
        vci.insert(0, 0); // world comm
        Registry {
            ctx: HashMap::new(),
            next_ctx: 1,
            vci,
            next_vci: 1,
        }
    }

    /// Deterministic child-context allocation.
    pub(crate) fn child_ctx(&mut self, parent: u64, key: u64) -> u64 {
        if let Some(&ctx) = self.ctx.get(&(parent, key)) {
            return ctx;
        }
        let ctx = self.next_ctx;
        // Wire contexts are `ctx*2`/`ctx*2+1`; keep even those clear of
        // the reserved control-plane band (resil, flow) by a huge margin.
        assert!(
            ctx < crate::reserved::RESERVED_CTX_FLOOR / 4,
            "communicator context allocation ran into the reserved control band"
        );
        self.next_ctx += 1;
        self.ctx.insert((parent, key), ctx);
        ctx
    }

    /// VCI assignment for a context. `fresh` requests a dedicated VCI
    /// (stream communicators); otherwise the context inherits `inherit`.
    pub(crate) fn vci_for_ctx(
        &mut self,
        ctx: u64,
        fresh: bool,
        inherit: usize,
        max_vcis: usize,
    ) -> MpiResult<usize> {
        if let Some(&v) = self.vci.get(&ctx) {
            return Ok(v);
        }
        let v = if fresh {
            if self.next_vci >= max_vcis {
                return Err(MpiError::Protocol(format!(
                    "out of VCIs: {max_vcis} configured, all in use \
                     (raise WorldConfig::max_vcis)"
                )));
            }
            let v = self.next_vci;
            self.next_vci += 1;
            v
        } else {
            inherit
        };
        self.vci.insert(ctx, v);
        Ok(v)
    }
}

/// One rank's contribution to a split exchange.
type ExchangeValue = Vec<i64>;

struct ExchangeSlot {
    values: Vec<Option<ExchangeValue>>,
    reads: usize,
}

pub(crate) struct WorldInner {
    pub(crate) config: WorldConfig,
    /// The packet substrate every VCI sends and polls through.
    pub(crate) port: SharedTransport<WireMsg>,
    /// Per-rank transport views (in-process sim only): each rank's VCIs
    /// send and poll through its own view, so per-rank liveness
    /// accounting (`dead_peers`, `kill_peer`) attributes correctly —
    /// the same `Transport` surface a wire rank sees. Empty when
    /// distributed (the single local rank owns `port` outright).
    rank_ports: Vec<SharedTransport<WireMsg>>,
    /// The simulated fabric behind `port`, kept for diagnostics; `None`
    /// when the world runs over a real wire.
    sim: Option<Fabric<WireMsg>>,
    /// True when this process holds ONE rank of a multi-process world
    /// (wire transport) rather than all ranks in-process.
    distributed: bool,
    pub(crate) registry: Mutex<Registry>,
    exchanges: Mutex<HashMap<(u64, u64, u8), ExchangeSlot>>,
}

/// Handle to the shared world state. Cheap to clone.
#[derive(Clone)]
pub struct World {
    pub(crate) inner: Arc<WorldInner>,
}

/// What [`World::launch`] booted, depending on the environment.
pub enum Launch {
    /// No launcher environment: every rank lives in this process (the
    /// classic simulation mode; hand each [`Proc`] to its own thread).
    InProcess(Vec<Proc>),
    /// An `mpfarun`-style launcher started N OS processes; this is the
    /// local process's single rank, connected to its peers over the wire.
    Distributed(Proc),
}

impl Launch {
    /// The ranks living in this process (one when distributed).
    pub fn procs(self) -> Vec<Proc> {
        match self {
            Launch::InProcess(procs) => procs,
            Launch::Distributed(proc) => vec![proc],
        }
    }
}

impl World {
    /// Boot a world: build the fabric and return one [`Proc`] per rank.
    ///
    /// Typical use hands each `Proc` to its own OS thread:
    ///
    /// ```
    /// use mpfa_mpi::{World, WorldConfig};
    /// let procs = World::init(WorldConfig::instant(4));
    /// std::thread::scope(|s| {
    ///     for proc in procs {
    ///         s.spawn(move || {
    ///             let comm = proc.world_comm();
    ///             assert_eq!(comm.size(), 4);
    ///         });
    ///     }
    /// });
    /// ```
    pub fn init(config: WorldConfig) -> Vec<Proc> {
        config.validate();
        assert_eq!(
            config.transport,
            TransportKind::Sim,
            "World::init is in-process only; wire transports come up \
             through World::launch under an mpfarun environment"
        );
        let fabric: Fabric<WireMsg> = Fabric::new(config.fabric_config());
        let rank_ports = sim_rank_views::<WireMsg>(fabric.clone(), config.ranks, config.max_vcis);
        let world = World {
            inner: Arc::new(WorldInner {
                port: Arc::new(fabric.clone()),
                rank_ports,
                sim: Some(fabric),
                distributed: false,
                registry: Mutex::new(Registry::new()),
                exchanges: Mutex::new(HashMap::new()),
                config,
            }),
        };
        (0..world.inner.config.ranks)
            .map(|rank| Proc::new(world.clone(), rank))
            .collect()
    }

    /// Boot ONE rank of a multi-process world over an established wire
    /// transport. `rank` is this process's world rank; `port` must span
    /// `ranks * max_vcis` endpoints (what [`bootstrap::establish`] hands
    /// back for `eps_per_rank = max_vcis`).
    ///
    /// Most callers want [`World::launch`], which reads the launcher
    /// environment and runs the bootstrap itself.
    pub fn init_with_transport(
        config: WorldConfig,
        rank: usize,
        port: SharedTransport<WireMsg>,
    ) -> Proc {
        config.validate();
        assert!(rank < config.ranks, "rank {rank} out of range");
        assert_eq!(
            port.endpoints(),
            config.ranks * config.max_vcis,
            "transport endpoint count does not match ranks * max_vcis"
        );
        let world = World {
            inner: Arc::new(WorldInner {
                port,
                rank_ports: Vec::new(),
                sim: None,
                distributed: true,
                registry: Mutex::new(Registry::new()),
                exchanges: Mutex::new(HashMap::new()),
                config,
            }),
        };
        Proc::new(world, rank)
    }

    /// `mpiexec`-style entry point: boot this process's view of the world,
    /// wherever it runs.
    ///
    /// * Under a launcher environment (`MPFA_RANK`/`MPFA_RANKS`/
    ///   `MPFA_PEERS` set, as `mpfarun` does) — run the wire bootstrap and
    ///   return [`Launch::Distributed`] with this process's single rank.
    ///   The launcher's world size and transport kind override the config.
    /// * Otherwise — in-process simulation, [`Launch::InProcess`] with all
    ///   ranks, exactly like [`World::init`].
    ///
    /// Panics if the wire bootstrap fails (rendezvous unreachable, mesh
    /// timeout) — MPI_ERRORS_ARE_FATAL semantics.
    pub fn launch(config: WorldConfig) -> Launch {
        match bootstrap::boot_env() {
            None => Launch::InProcess(World::init(WorldConfig {
                transport: TransportKind::Sim,
                ..config
            })),
            Some(env) => Launch::Distributed(World::launch_distributed(config, &env)),
        }
    }

    fn launch_distributed(config: WorldConfig, env: &BootEnv) -> Proc {
        let config = WorldConfig {
            ranks: env.ranks,
            transport: env.kind,
            ..config
        };
        config.validate();
        let port = bootstrap::establish::<WireMsg>(env, config.max_vcis, WireOpts::from_env())
            .unwrap_or_else(|e| {
                panic!(
                    "wire bootstrap failed for rank {}/{} over {}: {e}",
                    env.rank, env.ranks, env.kind
                )
            });
        World::init_with_transport(config, env.rank, port)
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.inner.config
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.config.ranks
    }

    /// True when this process holds one rank of a multi-process world.
    pub fn distributed(&self) -> bool {
        self.inner.distributed
    }

    /// The packet substrate carrying this world's traffic.
    pub fn transport(&self) -> SharedTransport<WireMsg> {
        self.inner.port.clone()
    }

    /// The transport surface `rank` sends and polls through: its own
    /// per-rank view of the simulated fabric (liveness attributed to
    /// `rank`), or the wire transport itself when distributed.
    pub fn rank_transport(&self, rank: usize) -> SharedTransport<WireMsg> {
        if self.inner.distributed || self.inner.rank_ports.is_empty() {
            self.inner.port.clone()
        } else {
            self.inner.rank_ports[rank].clone()
        }
    }

    /// Chaos kill switch (in-process sim worlds only): mark `victim` as
    /// dead on every rank's transport view, the in-process analogue of
    /// `mpfarun --kill-rank`. The victim's thread keeps running, but its
    /// sends are refused and every peer's failure detector observes the
    /// death. Returns false when the world is distributed (kill the OS
    /// process instead), single-rank, or `victim` is out of range.
    pub fn chaos_kill(&self, victim: usize) -> bool {
        if self.inner.distributed || victim >= self.inner.rank_ports.len() {
            return false;
        }
        if self.inner.rank_ports.len() < 2 {
            return false;
        }
        let killer = (victim + 1) % self.inner.rank_ports.len();
        self.inner.rank_ports[killer].kill_peer(victim)
    }

    /// Schedule `victim`'s death for process-clock time `at` seconds (in-
    /// process sim worlds only) — the virtual-time form of
    /// [`World::chaos_kill`]. Under deterministic simulation the kill
    /// lands at exactly `at` on the simulated timeline, so the same seed
    /// replays the same death. Returns false when the world is
    /// distributed, single-rank, or `victim` is out of range.
    pub fn chaos_kill_at(&self, victim: usize, at: f64) -> bool {
        if self.inner.distributed
            || victim >= self.inner.rank_ports.len()
            || self.inner.rank_ports.len() < 2
        {
            return false;
        }
        let killer = (victim + 1) % self.inner.rank_ports.len();
        self.inner.rank_ports[killer].schedule_kill(victim, at)
    }

    /// The underlying simulated fabric (diagnostics). `None` when the
    /// world runs over a real wire transport.
    pub fn fabric(&self) -> Option<&Fabric<WireMsg>> {
        self.inner.sim.as_ref()
    }

    /// Blocking all-to-all exchange of small agreement vectors among the
    /// `size` participants of a communicator-creation call. `index` is the
    /// caller's slot. Spin-waits for the peers (they are required to make
    /// the same collective call, per MPI semantics).
    pub(crate) fn exchange(
        &self,
        key: (u64, u64, u8),
        size: usize,
        index: usize,
        value: ExchangeValue,
    ) -> Vec<ExchangeValue> {
        assert!(
            !self.inner.distributed,
            "communicator splits need the in-process exchange table, which a \
             distributed world does not share; split communicators are not \
             yet supported over wire transports"
        );
        let mut deposited = false;
        loop {
            {
                let mut map = self.inner.exchanges.lock();
                let slot = map.entry(key).or_insert_with(|| ExchangeSlot {
                    values: vec![None; size],
                    reads: 0,
                });
                if !deposited {
                    assert!(
                        slot.values[index].is_none(),
                        "duplicate exchange deposit at {key:?}[{index}]"
                    );
                    slot.values[index] = Some(value.clone());
                    deposited = true;
                }
                if slot.values.iter().all(Option::is_some) {
                    let result: Vec<ExchangeValue> = slot
                        .values
                        .iter()
                        .map(|v| v.clone().expect("all some"))
                        .collect();
                    slot.reads += 1;
                    if slot.reads == size {
                        map.remove(&key);
                    }
                    return result;
                }
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_hands_out_one_proc_per_rank() {
        let procs = World::init(WorldConfig::instant(4));
        assert_eq!(procs.len(), 4);
        for (i, p) in procs.iter().enumerate() {
            assert_eq!(p.rank(), i);
            assert_eq!(p.size(), 4);
        }
    }

    #[test]
    fn registry_child_ctx_is_deterministic() {
        let mut r = Registry::new();
        let a = r.child_ctx(0, 7);
        let b = r.child_ctx(0, 7);
        assert_eq!(a, b);
        let c = r.child_ctx(0, 8);
        assert_ne!(a, c);
        let d = r.child_ctx(a, 7);
        assert_ne!(d, a);
        assert_ne!(d, c);
    }

    #[test]
    fn registry_vci_inherit_and_fresh() {
        let mut r = Registry::new();
        assert_eq!(r.vci_for_ctx(0, false, 0, 4).unwrap(), 0);
        // Child inheriting parent's VCI.
        assert_eq!(r.vci_for_ctx(5, false, 0, 4).unwrap(), 0);
        // Fresh allocations advance.
        assert_eq!(r.vci_for_ctx(6, true, 0, 4).unwrap(), 1);
        assert_eq!(r.vci_for_ctx(7, true, 0, 4).unwrap(), 2);
        // Idempotent.
        assert_eq!(r.vci_for_ctx(6, true, 0, 4).unwrap(), 1);
    }

    #[test]
    fn registry_vci_exhaustion_errors() {
        let mut r = Registry::new();
        assert_eq!(r.vci_for_ctx(1, true, 0, 2).unwrap(), 1);
        assert!(r.vci_for_ctx(2, true, 0, 2).is_err());
    }

    #[test]
    fn exchange_collects_all_contributions() {
        let procs = World::init(WorldConfig::instant(3));
        let world = procs[0].world().clone();
        let worlds: Vec<World> = (0..3).map(|_| world.clone()).collect();
        let results: Vec<Vec<Vec<i64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = worlds
                .into_iter()
                .enumerate()
                .map(|(i, w)| s.spawn(move || w.exchange((0, 0, 0), 3, i, vec![i as i64 * 10])))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert_eq!(r, &vec![vec![0], vec![10], vec![20]]);
        }
    }

    #[test]
    #[should_panic(expected = "in-process only")]
    fn init_rejects_wire_transport() {
        let cfg = WorldConfig {
            transport: TransportKind::Tcp,
            ..WorldConfig::instant(2)
        };
        let _ = World::init(cfg);
    }

    #[test]
    fn launch_without_env_is_in_process() {
        // The test environment has no MPFA_RANK, so launch must fall back
        // to the in-process world with every rank local.
        let launch = World::launch(WorldConfig::instant(3));
        let procs = launch.procs();
        assert_eq!(procs.len(), 3);
        assert!(!procs[0].world().distributed());
        assert!(procs[0].world().fabric().is_some(), "sim keeps the fabric");
    }

    #[test]
    fn init_with_transport_boots_one_rank() {
        use mpfa_transport::loopback_mesh;
        let cfg = WorldConfig {
            max_vcis: 2,
            ..WorldConfig::instant(2)
        };
        let mesh = loopback_mesh::<crate::wire::WireMsg>(
            TransportKind::Tcp,
            2,
            cfg.max_vcis,
            mpfa_transport::WireOpts::default(),
        )
        .unwrap();
        let proc = World::init_with_transport(
            WorldConfig {
                transport: TransportKind::Tcp,
                ..cfg
            },
            1,
            mesh[1].clone(),
        );
        assert_eq!(proc.rank(), 1);
        assert_eq!(proc.size(), 2);
        assert!(proc.world().distributed());
        assert!(proc.world().fabric().is_none(), "no sim fabric on a wire");
    }

    #[test]
    fn config_validate_accepts_presets() {
        WorldConfig::instant(4).validate();
        WorldConfig::cluster(4).validate();
        WorldConfig::single_node(4).validate();
    }

    #[test]
    fn ep_index_layout() {
        let cfg = WorldConfig::instant(4);
        assert_eq!(cfg.ep_index(0, 0), 0);
        assert_eq!(cfg.ep_index(1, 0), 8);
        assert_eq!(cfg.ep_index(1, 3), 11);
        // Fabric nodes group all of a rank's VCIs together.
        let fc = cfg.fabric_config();
        assert!(fc.same_node(8, 11));
        assert!(!fc.same_node(7, 8));
    }
}
