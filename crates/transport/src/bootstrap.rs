//! Bootstrap rendezvous: how N freshly-spawned processes find each
//! other and come up as one connected world.
//!
//! The shape is the classic PMI handshake, shrunk to its essentials:
//!
//! 1. Every rank binds its **data** listener first (at an ephemeral
//!    address), so its concrete address exists before anyone asks.
//! 2. **Rank 0** binds a second, well-known **rendezvous** listener at
//!    the address in `MPFA_PEERS`. Every other rank dials it (with
//!    retry — rank 0 may not be up yet) and submits
//!    `[rank: u32][len: u32][data address]`.
//! 3. Once all `N-1` submissions are in, rank 0 answers each with the
//!    full peer table `[count: u32]` + `count × [len: u32][bytes]`.
//! 4. Everyone builds its [`WireTransport`] from the table and pumps
//!    until the data mesh is fully connected.
//! 5. Barrier: each rank sends one `READY` byte on its rendezvous
//!    connection; rank 0 answers each with one `GO` byte after all
//!    have reported. Nobody touches MPI traffic before `GO`, so no
//!    rank can race ahead of a peer that is still dialing.
//!
//! ## Tree rendezvous
//!
//! The flat handshake funnels `N-1` connections into rank 0 — fine at
//! 8 ranks, a serial accept storm at 256. Worlds larger than
//! `fanout + 1` ranks therefore rendezvous along a K-ary tree
//! (`MPFA_TREE_FANOUT`, default 8): every internal node binds its own
//! small rendezvous listener, children submit their whole subtree's
//! address table upward, the root scatters the merged table back down
//! the same connections, and the READY/GO barrier runs up-then-down
//! the tree. No process ever handles more than `fanout + 1` handshake
//! sockets, and the depth is `log_K N`.
//!
//! Tree listener addresses are derived from the rendezvous path for
//! UDS/SHM (`{path}.t{rank}`); TCP cannot derive ephemeral ports, so
//! the launcher pre-picks one per rank and passes the list in
//! `MPFA_TREE` (without it, TCP falls back to the flat handshake).
//!
//! The elapsed wall-clock of the whole dance lands in the
//! `bootstrap_secs` obs counter. All handshake sockets are blocking
//! with read timeouts; every stage has a deadline, so a missing peer
//! fails the job instead of hanging it.

use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

use mpfa_core::wtime;

use crate::codec::FrameCodec;
use crate::wire::{Bound, SockFamily, WireOpts, WireTransport};
use crate::{Transport, TransportKind};

/// Env var selecting the backend (`sim` | `tcp` | `uds` | `shm`).
pub const ENV_TRANSPORT: &str = "MPFA_TRANSPORT";
/// Env var carrying this process's world rank.
pub const ENV_RANK: &str = "MPFA_RANK";
/// Env var carrying the world size.
pub const ENV_RANKS: &str = "MPFA_RANKS";
/// Env var carrying the rendezvous address (TCP `host:port` or a UDS
/// socket path) where rank 0 collects the peer table.
pub const ENV_PEERS: &str = "MPFA_PEERS";
/// Env var (set to `1`) that makes every dialer artificially fail its
/// first connection attempt to each peer, exercising the retry path.
pub const ENV_INJECT_CONNECT_FAIL: &str = "MPFA_INJECT_CONNECT_FAIL";
/// Env var carrying comma-separated per-rank tree-rendezvous addresses
/// (index = rank). Needed only for TCP, where internal tree nodes
/// cannot derive a listener address; the launcher pre-picks the ports.
pub const ENV_TREE: &str = "MPFA_TREE";
/// Env var overriding the rendezvous tree fanout (default 8, min 2).
pub const ENV_TREE_FANOUT: &str = "MPFA_TREE_FANOUT";

/// The rendezvous tree fanout `K`: `MPFA_TREE_FANOUT` or 8. Worlds of
/// at most `K + 1` ranks use the flat handshake (the root would accept
/// every rank directly anyway).
pub fn tree_fanout() -> usize {
    std::env::var(ENV_TREE_FANOUT)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&k| k >= 2)
        .unwrap_or(8)
}

/// Seconds a rank waits for the whole rendezvous (submission, table,
/// barrier) before giving up.
const RENDEZVOUS_DEADLINE: f64 = 60.0;
/// Seconds allowed for the data mesh to fully connect.
const MESH_DEADLINE: f64 = 30.0;

const READY: u8 = 0xA5;
const GO: u8 = 0x5A;

/// The launcher-provided identity of this process, read from the
/// environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootEnv {
    /// This process's world rank.
    pub rank: usize,
    /// World size.
    pub ranks: usize,
    /// Which wire backend to bring up.
    pub kind: TransportKind,
    /// The rendezvous address rank 0 listens on.
    pub rendezvous: String,
    /// Per-rank tree-rendezvous listener addresses (index = rank), when
    /// the launcher provided them (`MPFA_TREE`). UDS/SHM derive these
    /// from `rendezvous` instead and leave this `None`.
    pub tree: Option<Vec<String>>,
}

/// Read the launcher environment, if present. Returns `None` when
/// `MPFA_RANK` is unset (a plain in-process run). Panics on a malformed
/// launcher environment — that is a launcher bug, not a user error.
pub fn boot_env() -> Option<BootEnv> {
    let rank = std::env::var(ENV_RANK).ok()?;
    let rank: usize = rank
        .parse()
        .unwrap_or_else(|_| panic!("bad {ENV_RANK}={rank}"));
    let ranks: usize = std::env::var(ENV_RANKS)
        .unwrap_or_else(|_| panic!("{ENV_RANK} is set but {ENV_RANKS} is not"))
        .parse()
        .expect("bad MPFA_RANKS");
    let kind = match TransportKind::from_env() {
        Ok(Some(k)) => k,
        Ok(None) => TransportKind::Tcp,
        Err(v) => panic!("bad {ENV_TRANSPORT}={v} (want sim|tcp|uds|shm)"),
    };
    let rendezvous = std::env::var(ENV_PEERS)
        .unwrap_or_else(|_| panic!("{ENV_RANK} is set but {ENV_PEERS} is not"));
    assert!(
        rank < ranks,
        "{ENV_RANK}={rank} out of range for {ENV_RANKS}={ranks}"
    );
    let tree = std::env::var(ENV_TREE).ok().map(|v| {
        let addrs: Vec<String> = v.split(',').map(str::to_string).collect();
        assert!(
            addrs.len() == ranks,
            "{ENV_TREE} has {} addresses for {ENV_RANKS}={ranks}",
            addrs.len()
        );
        addrs
    });
    Some(BootEnv {
        rank,
        ranks,
        kind,
        rendezvous,
        tree,
    })
}

fn timeout_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, what.to_string())
}

fn write_u32<S: Write>(s: &mut S, v: u32) -> io::Result<()> {
    s.write_all(&v.to_le_bytes())
}

fn read_u32<S: Read>(s: &mut S) -> io::Result<u32> {
    let mut b = [0u8; 4];
    s.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Where rank `r` binds its data listener (or lays its shared-memory
/// segment), given the rendezvous address: TCP picks an ephemeral
/// localhost port; UDS and SHM lay their files next to the rendezvous
/// socket.
fn data_hint(kind: TransportKind, rendezvous: &str, rank: usize) -> String {
    match kind {
        TransportKind::Tcp => "127.0.0.1:0".to_string(),
        TransportKind::Uds => format!("{rendezvous}.r{rank}"),
        TransportKind::Shm => format!("{rendezvous}.r{rank}.seg"),
        TransportKind::Sim => unreachable!("sim has no data listener"),
    }
}

// --------------------------------------------------------------------
// Tree topology
// --------------------------------------------------------------------

/// Parent of `r` in the K-ary rendezvous tree (root is rank 0).
fn tree_parent(r: usize, fanout: usize) -> Option<usize> {
    (r > 0).then(|| (r - 1) / fanout)
}

/// Direct children of `r` in a K-ary tree over `ranks` ranks.
fn tree_children(r: usize, ranks: usize, fanout: usize) -> std::ops::Range<usize> {
    let lo = (r * fanout + 1).min(ranks);
    let hi = (r * fanout + fanout + 1).min(ranks);
    lo..hi
}

/// Number of ranks in the subtree rooted at `r` (including `r`). Used
/// to validate that a child's gather message covers its whole subtree.
fn subtree_size(r: usize, ranks: usize, fanout: usize) -> usize {
    1 + tree_children(r, ranks, fanout)
        .map(|c| subtree_size(c, ranks, fanout))
        .sum::<usize>()
}

/// The per-rank tree listener addresses, when a tree rendezvous is
/// worth running and addressable: launcher-provided (`MPFA_TREE`)
/// first, else derived from the rendezvous path for UDS/SHM. `None`
/// means run the flat handshake.
fn tree_addrs(env: &BootEnv) -> Option<Vec<String>> {
    if env.ranks <= tree_fanout() + 1 {
        return None;
    }
    if let Some(t) = &env.tree {
        return (t.len() == env.ranks).then(|| t.clone());
    }
    match env.kind {
        // The handshake legs for SHM run over UDS sockets laid next to
        // the rendezvous path, so both kinds derive the same way.
        TransportKind::Uds | TransportKind::Shm => Some(
            (0..env.ranks)
                .map(|r| {
                    if r == 0 {
                        env.rendezvous.clone()
                    } else {
                        format!("{}.t{r}", env.rendezvous)
                    }
                })
                .collect(),
        ),
        _ => None,
    }
}

/// The open handshake connections a rank keeps for the stage-5
/// barrier: flat ranks hold a star around rank 0, tree ranks hold one
/// parent leg plus one leg per direct child.
enum RendezvousConns<F: SockFamily> {
    /// Rank 0: one entry per peer; others: entry 0 only.
    Flat(Vec<Option<F::Stream>>),
    /// Tree node: parent leg (`None` at the root) + child legs.
    Tree {
        parent: Option<F::Stream>,
        children: Vec<F::Stream>,
    },
}

/// Stages 2+3, tree form: gather subtree address tables toward rank 0,
/// scatter the merged table back down the same connections.
fn rendezvous_tree<F: SockFamily>(
    env: &BootEnv,
    my_addr: &str,
    addrs: &[String],
    fanout: usize,
) -> io::Result<(Vec<String>, RendezvousConns<F>)> {
    let io_timeout = Some(Duration::from_secs_f64(RENDEZVOUS_DEADLINE));
    let children: Vec<usize> = tree_children(env.rank, env.ranks, fanout).collect();
    // Bind before dialing the parent, so our children can reach us
    // while we ourselves wait in line.
    let listener = if children.is_empty() {
        None
    } else {
        Some(F::bind(&addrs[env.rank])?.0)
    };

    // -- gather: one message per child, covering its whole subtree ----
    let mut entries: Vec<(usize, String)> = vec![(env.rank, my_addr.to_string())];
    let mut child_conns: Vec<F::Stream> = Vec::with_capacity(children.len());
    if let Some(listener) = &listener {
        let mut missing: Vec<usize> = children.clone();
        let deadline = wtime() + RENDEZVOUS_DEADLINE;
        while !missing.is_empty() {
            match F::accept(listener)? {
                Some(mut sock) => {
                    F::set_nonblocking(&sock, false)?;
                    F::set_read_timeout(&sock, io_timeout)?;
                    let child = read_u32(&mut sock)? as usize;
                    let Some(i) = missing.iter().position(|&c| c == child) else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected tree submission from rank {child}"),
                        ));
                    };
                    missing.swap_remove(i);
                    let n = read_u32(&mut sock)? as usize;
                    if n != subtree_size(child, env.ranks, fanout) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("rank {child} submitted {n} entries for its subtree"),
                        ));
                    }
                    for _ in 0..n {
                        let rank = read_u32(&mut sock)? as usize;
                        let len = read_u32(&mut sock)? as usize;
                        if rank >= env.ranks || len > 4096 {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad tree entry (rank {rank}, len {len})"),
                            ));
                        }
                        let mut addr = vec![0u8; len];
                        sock.read_exact(&mut addr)?;
                        entries.push((
                            rank,
                            String::from_utf8(addr).map_err(|_| {
                                io::Error::new(io::ErrorKind::InvalidData, "non-utf8 peer address")
                            })?,
                        ));
                    }
                    child_conns.push(sock);
                }
                None => {
                    if wtime() > deadline {
                        return Err(timeout_err(&format!(
                            "tree rendezvous: child rank(s) {missing:?} never reported"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
    // All children are in: the listener has done its job. The open
    // connections outlive it.
    drop(listener);
    if !children.is_empty() {
        F::cleanup(&addrs[env.rank]);
    }

    if env.rank == 0 {
        let mut table = vec![String::new(); env.ranks];
        for (r, a) in entries {
            table[r] = a;
        }
        debug_assert!(table.iter().all(|a| !a.is_empty()));
        for sock in &mut child_conns {
            write_table(sock, &table)?;
        }
        Ok((
            table,
            RendezvousConns::Tree {
                parent: None,
                children: child_conns,
            },
        ))
    } else {
        // Submit the whole subtree upward, then wait for the full
        // table and forward it down.
        let parent = tree_parent(env.rank, fanout).expect("non-root has a parent");
        let deadline = wtime() + RENDEZVOUS_DEADLINE;
        let mut sock = loop {
            match F::connect(&addrs[parent], Duration::from_secs(1)) {
                Ok(s) => break s,
                Err(_) if wtime() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        };
        F::set_read_timeout(&sock, io_timeout)?;
        write_u32(&mut sock, env.rank as u32)?;
        write_u32(&mut sock, entries.len() as u32)?;
        for (r, a) in &entries {
            write_u32(&mut sock, *r as u32)?;
            write_u32(&mut sock, a.len() as u32)?;
            sock.write_all(a.as_bytes())?;
        }
        let table = read_table(&mut sock, env.ranks)?;
        for c in &mut child_conns {
            write_table(c, &table)?;
        }
        Ok((
            table,
            RendezvousConns::Tree {
                parent: Some(sock),
                children: child_conns,
            },
        ))
    }
}

/// Serialize the full peer table: `[count] + count × [len][bytes]`.
fn write_table<S: Write>(s: &mut S, table: &[String]) -> io::Result<()> {
    write_u32(s, table.len() as u32)?;
    for addr in table {
        write_u32(s, addr.len() as u32)?;
        s.write_all(addr.as_bytes())?;
    }
    Ok(())
}

/// Read a full peer table, validating the advertised world size.
fn read_table<S: Read>(s: &mut S, ranks: usize) -> io::Result<Vec<String>> {
    let count = read_u32(s)? as usize;
    if count != ranks {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("rendezvous table has {count} entries, expected {ranks}"),
        ));
    }
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_u32(s)? as usize;
        if len > 4096 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "peer address too long",
            ));
        }
        let mut addr = vec![0u8; len];
        s.read_exact(&mut addr)?;
        table
            .push(String::from_utf8(addr).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "non-utf8 peer address")
            })?);
    }
    Ok(table)
}

/// Stages 2+3: exchange data addresses — along the rendezvous tree
/// when the world is big enough and addressable, else through rank 0's
/// flat listener. Returns the full peer table plus the open handshake
/// connections (used again for the stage-5 barrier).
fn rendezvous_table<F: SockFamily>(
    env: &BootEnv,
    my_addr: &str,
) -> io::Result<(Vec<String>, RendezvousConns<F>)> {
    if let Some(addrs) = tree_addrs(env) {
        return rendezvous_tree::<F>(env, my_addr, &addrs, tree_fanout());
    }
    rendezvous_flat::<F>(env, my_addr)
}

/// Stages 2+3, flat form: everyone reports to rank 0 directly.
#[allow(clippy::type_complexity)]
fn rendezvous_flat<F: SockFamily>(
    env: &BootEnv,
    my_addr: &str,
) -> io::Result<(Vec<String>, RendezvousConns<F>)> {
    let io_timeout = Some(Duration::from_secs_f64(RENDEZVOUS_DEADLINE));
    if env.rank == 0 {
        let (listener, _) = F::bind(&env.rendezvous)?;
        let mut table = vec![String::new(); env.ranks];
        table[0] = my_addr.to_string();
        let mut conns: Vec<Option<F::Stream>> = (0..env.ranks).map(|_| None).collect();
        let mut missing = env.ranks - 1;
        let deadline = wtime() + RENDEZVOUS_DEADLINE;
        while missing > 0 {
            match F::accept(&listener)? {
                Some(mut sock) => {
                    F::set_nonblocking(&sock, false)?;
                    F::set_read_timeout(&sock, io_timeout)?;
                    let rank = read_u32(&mut sock)? as usize;
                    let len = read_u32(&mut sock)? as usize;
                    if rank == 0 || rank >= env.ranks || len > 4096 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad rendezvous submission (rank {rank}, len {len})"),
                        ));
                    }
                    let mut addr = vec![0u8; len];
                    sock.read_exact(&mut addr)?;
                    let addr = String::from_utf8(addr).map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "non-utf8 peer address")
                    })?;
                    if conns[rank].is_none() {
                        missing -= 1;
                    }
                    table[rank] = addr;
                    conns[rank] = Some(sock);
                }
                None => {
                    if wtime() > deadline {
                        return Err(timeout_err(&format!(
                            "rendezvous: {missing} rank(s) never reported"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        // Answer everyone with the full table.
        for sock in conns.iter_mut().flatten() {
            write_table(sock, &table)?;
        }
        Ok((table, RendezvousConns::Flat(conns)))
    } else {
        // Dial rank 0, retrying while it comes up.
        let deadline = wtime() + RENDEZVOUS_DEADLINE;
        let mut sock = loop {
            match F::connect(&env.rendezvous, Duration::from_secs(1)) {
                Ok(s) => break s,
                Err(_) if wtime() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        };
        F::set_read_timeout(&sock, io_timeout)?;
        write_u32(&mut sock, env.rank as u32)?;
        write_u32(&mut sock, my_addr.len() as u32)?;
        sock.write_all(my_addr.as_bytes())?;
        let table = read_table(&mut sock, env.ranks)?;
        let mut conns: Vec<Option<F::Stream>> = (0..env.ranks).map(|_| None).collect();
        conns[0] = Some(sock);
        Ok((table, RendezvousConns::Flat(conns)))
    }
}

fn expect_byte<S: Read>(s: &mut S, want: u8, what: &str) -> io::Result<()> {
    let mut b = [0u8; 1];
    s.read_exact(&mut b)?;
    if b[0] != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad {what} byte"),
        ));
    }
    Ok(())
}

/// Stage 5: READY/GO barrier over the handshake sockets — a star
/// around rank 0 in the flat form, an up-then-down sweep in the tree
/// form — then rank 0 removes the flat rendezvous listener's
/// filesystem residue (tree listeners were cleaned during the
/// rendezvous itself).
fn ready_go_barrier<F: SockFamily>(
    env: &BootEnv,
    conns: &mut RendezvousConns<F>,
) -> io::Result<()> {
    match conns {
        RendezvousConns::Flat(conns) => {
            if env.rank == 0 {
                for sock in conns.iter_mut().flatten() {
                    expect_byte(sock, READY, "READY")?;
                }
                for sock in conns.iter_mut().flatten() {
                    sock.write_all(&[GO])?;
                }
                F::cleanup(&env.rendezvous);
            } else {
                let sock = conns[0].as_mut().expect("rendezvous conn");
                sock.write_all(&[READY])?;
                expect_byte(sock, GO, "GO")?;
            }
        }
        RendezvousConns::Tree { parent, children } => {
            // A READY propagates upward only once this whole subtree is
            // ready; the root's GO then fans back down, so no rank
            // starts MPI traffic before every rank passed establish.
            for sock in children.iter_mut() {
                expect_byte(sock, READY, "READY")?;
            }
            if let Some(p) = parent.as_mut() {
                p.write_all(&[READY])?;
                expect_byte(p, GO, "GO")?;
            }
            for sock in children.iter_mut() {
                sock.write_all(&[GO])?;
            }
        }
    }
    Ok(())
}

fn establish_family<M: FrameCodec, F: SockFamily>(
    env: &BootEnv,
    eps_per_rank: usize,
    opts: WireOpts,
) -> io::Result<Arc<dyn Transport<M>>> {
    let t0 = wtime();
    let bound: Bound<F> = Bound::bind(&data_hint(env.kind, &env.rendezvous, env.rank))?;

    // --- stages 2+3: collect/receive the peer table ------------------
    let addr = bound.addr.clone();
    let (table, mut rendezvous_conns) = rendezvous_table::<F>(env, &addr)?;

    // --- stage 4: bring up the data mesh -----------------------------
    let transport: WireTransport<M, F> =
        WireTransport::new(bound, env.rank, table, eps_per_rank, opts);
    transport.establish(MESH_DEADLINE)?;

    // --- stage 5: READY/GO barrier over the rendezvous sockets -------
    ready_go_barrier::<F>(env, &mut rendezvous_conns)?;

    mpfa_obs::global_counters().record_bootstrap_secs(wtime() - t0);
    Ok(Arc::new(transport))
}

/// The shared-memory bootstrap: same rendezvous dance, but the "data
/// address" each rank publishes is the path of its freshly-created mmap
/// segment, and the handshake legs run over Unix-domain sockets laid
/// next to the rendezvous path. Creating the segment *before*
/// submitting and attaching *after* the table arrives means every peer
/// segment already exists at attach time; the READY/GO barrier then
/// guarantees all ranks are fully mapped before any MPI traffic.
#[cfg(unix)]
fn establish_shm<M: FrameCodec>(
    env: &BootEnv,
    eps_per_rank: usize,
) -> io::Result<Arc<dyn Transport<M>>> {
    let t0 = wtime();
    let seg_path = data_hint(TransportKind::Shm, &env.rendezvous, env.rank);
    let own = crate::shm::ShmSegmentOwner::create(&seg_path, env.ranks, eps_per_rank)?;
    let (table, mut rendezvous_conns) = rendezvous_table::<crate::uds::UdsFamily>(env, own.path())?;
    let transport: crate::shm::ShmTransport<M> =
        crate::shm::ShmTransport::new(own, env.rank, table)?;
    ready_go_barrier::<crate::uds::UdsFamily>(env, &mut rendezvous_conns)?;
    mpfa_obs::global_counters().record_bootstrap_secs(wtime() - t0);
    Ok(Arc::new(transport))
}

/// Run the full bootstrap for this process: bind the data listener,
/// rendezvous for the peer table, connect the mesh, pass the barrier.
/// Returns the ready-to-use transport.
pub fn establish<M: FrameCodec>(
    env: &BootEnv,
    eps_per_rank: usize,
    opts: WireOpts,
) -> io::Result<Arc<dyn Transport<M>>> {
    match env.kind {
        TransportKind::Sim => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "the simulated transport is in-process and has no bootstrap",
        )),
        TransportKind::Tcp => establish_family::<M, crate::tcp::TcpFamily>(env, eps_per_rank, opts),
        #[cfg(unix)]
        TransportKind::Uds => establish_family::<M, crate::uds::UdsFamily>(env, eps_per_rank, opts),
        #[cfg(not(unix))]
        TransportKind::Uds => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix domain sockets are not available on this platform",
        )),
        #[cfg(unix)]
        TransportKind::Shm => establish_shm::<M>(env, eps_per_rank),
        #[cfg(not(unix))]
        TransportKind::Shm => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "shared-memory segments are not available on this platform",
        )),
    }
}

/// Bind-and-release an ephemeral TCP port for use as a rendezvous
/// address (used by `mpfarun` and tests; a tiny race against port reuse
/// is accepted).
pub fn pick_tcp_rendezvous() -> io::Result<String> {
    let l = std::net::TcpListener::bind("127.0.0.1:0")?;
    Ok(l.local_addr()?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Path;

    fn run_world(kind: TransportKind, rendezvous: String, ranks: usize) {
        run_world_tree(kind, rendezvous, ranks, None)
    }

    fn run_world_tree(
        kind: TransportKind,
        rendezvous: String,
        ranks: usize,
        tree: Option<Vec<String>>,
    ) {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let env = BootEnv {
                    rank,
                    ranks,
                    kind,
                    rendezvous: rendezvous.clone(),
                    tree: tree.clone(),
                };
                std::thread::spawn(move || {
                    let t = establish::<Vec<u8>>(&env, 1, WireOpts::default())
                        .unwrap_or_else(|e| panic!("rank {rank} bootstrap failed: {e}"));
                    // Everyone sends one message to every other rank...
                    for dst in 0..ranks {
                        if dst != rank {
                            t.send(rank, dst, vec![rank as u8; 8], 8);
                        }
                    }
                    // ...and collects one from every other rank.
                    let mut got = Vec::new();
                    let deadline = wtime() + 20.0;
                    while got.len() < ranks - 1 {
                        t.progress();
                        t.poll(rank, Path::Net, usize::MAX, &mut got);
                        assert!(wtime() < deadline, "rank {rank} starved");
                    }
                    let mut froms: Vec<usize> = got.iter().map(|e| e.src).collect();
                    froms.sort_unstable();
                    let expect: Vec<usize> = (0..ranks).filter(|&r| r != rank).collect();
                    assert_eq!(froms, expect);
                    for env in &got {
                        assert_eq!(env.msg, vec![env.src as u8; 8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("bootstrap world thread panicked");
        }
    }

    #[test]
    fn tcp_bootstrap_three_ranks() {
        let rendezvous = pick_tcp_rendezvous().unwrap();
        run_world(TransportKind::Tcp, rendezvous, 3);
        assert!(mpfa_obs::global_counters().snapshot().bootstrap_secs > 0.0);
    }

    #[cfg(unix)]
    #[test]
    fn uds_bootstrap_three_ranks() {
        let dir = std::env::temp_dir().join(format!("mpfa-boot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rendezvous = dir.join("boot.sock").to_string_lossy().into_owned();
        run_world(TransportKind::Uds, rendezvous, 3);
    }

    #[cfg(unix)]
    #[test]
    fn shm_bootstrap_three_ranks() {
        let dir = std::env::temp_dir().join(format!("mpfa-boot-shm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rendezvous = dir.join("boot.sock").to_string_lossy().into_owned();
        run_world(TransportKind::Shm, rendezvous.clone(), 3);
        // Clean shutdown unlinks every rank's segment.
        for r in 0..3 {
            let seg = format!("{rendezvous}.r{r}.seg");
            assert!(
                !std::path::Path::new(&seg).exists(),
                "stale segment {seg} left behind"
            );
        }
    }

    #[test]
    fn boot_env_absent_means_in_process() {
        // The test runner does not set MPFA_RANK.
        assert_eq!(boot_env(), None);
    }

    #[test]
    fn tree_topology_covers_every_rank_once() {
        for ranks in [1, 2, 9, 10, 17, 64, 100, 256] {
            for fanout in [2, 8] {
                let mut seen = vec![0usize; ranks];
                seen[0] += 1;
                for r in 0..ranks {
                    for c in tree_children(r, ranks, fanout) {
                        assert_eq!(tree_parent(c, fanout), Some(r));
                        seen[c] += 1;
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "ranks={ranks} K={fanout}");
                assert_eq!(subtree_size(0, ranks, fanout), ranks);
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn uds_tree_bootstrap_sixteen_ranks() {
        // 16 > fanout + 1 = 9, so the UDS path takes the derived-address
        // tree rendezvous automatically.
        let dir = std::env::temp_dir().join(format!("mpfa-boot-tree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rendezvous = dir.join("boot.sock").to_string_lossy().into_owned();
        assert!(tree_addrs(&BootEnv {
            rank: 0,
            ranks: 16,
            kind: TransportKind::Uds,
            rendezvous: rendezvous.clone(),
            tree: None,
        })
        .is_some());
        run_world(TransportKind::Uds, rendezvous.clone(), 16);
        // Tree listener sockets were cleaned up during the rendezvous.
        for r in 0..16 {
            let sock = if r == 0 {
                rendezvous.clone()
            } else {
                format!("{rendezvous}.t{r}")
            };
            assert!(
                !std::path::Path::new(&sock).exists(),
                "stale tree socket {sock}"
            );
        }
    }

    #[test]
    fn tcp_tree_bootstrap_with_launcher_addresses() {
        let ranks = 12;
        let addrs: Vec<String> = (0..ranks).map(|_| pick_tcp_rendezvous().unwrap()).collect();
        run_world_tree(
            TransportKind::Tcp,
            addrs[0].clone(),
            ranks,
            Some(addrs.clone()),
        );
    }

    #[test]
    fn tcp_without_tree_addresses_stays_flat() {
        let env = BootEnv {
            rank: 3,
            ranks: 64,
            kind: TransportKind::Tcp,
            rendezvous: "127.0.0.1:9999".into(),
            tree: None,
        };
        assert!(tree_addrs(&env).is_none());
    }
}
