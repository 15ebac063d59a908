//! Rendezvous over the byte transports, tested where the unacknowledged
//! data plan could fail.
//!
//! On TCP, UDS and shm a granted rendezvous goes out whole at the CTS,
//! as `Data` slices of at most the transport's `reliable_fifo` bytes,
//! and nobody acks; the sim fabric keeps the acknowledged pipeline. The
//! cases: payloads on both sides of a slice edge, `DataAck` counts per
//! transport, persistent re-fires over TCP against one-shot sends, and a
//! rank killed in the middle of a 512 KiB allreduce.
//!
//! Every shm mesh in this binary has 64 KiB rings, so its slice bound (a
//! quarter ring) is [`EDGE`].

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::Coop;
use mpfa::core::Stream;
use mpfa::mpi::protocol::{ProtoConfig, SendMode};
use mpfa::mpi::vci::Vci;
use mpfa::mpi::wire::{MsgHeader, WireMsg};
use mpfa::mpi::{Comm, DetectorConfig, Op, Proc, World, WorldConfig};
use mpfa::transport::{
    loopback_mesh, mesh_kill, Envelope, Path, Transport, TransportKind, TxHandle, WireOpts,
};

/// The slice bound every transport here is held to: a quarter of a
/// 64 KiB shm ring, and what the socket transports are told to report.
const EDGE: usize = 16 * 1024;

const MAX_SWEEPS: u64 = 50_000_000;

/// A transport that forwards to `inner`, counts the `Data` and
/// `DataAck` frames sent through it, and reports at most [`EDGE`] as its
/// slice bound, so a socket transport's slice edge is reachable without
/// 64 MiB payloads.
struct Tally {
    inner: Arc<dyn Transport<WireMsg>>,
    data: AtomicUsize,
    acks: AtomicUsize,
}

impl Transport<WireMsg> for Tally {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }
    fn send(&self, src_ep: usize, dst_ep: usize, msg: WireMsg, wire_bytes: usize) -> TxHandle {
        match msg {
            WireMsg::Data { .. } => self.data.fetch_add(1, Ordering::Relaxed),
            WireMsg::DataAck { .. } => self.acks.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        self.inner.send(src_ep, dst_ep, msg, wire_bytes)
    }
    fn poll(&self, ep: usize, path: Path, max: usize, out: &mut Vec<Envelope<WireMsg>>) -> usize {
        self.inner.poll(ep, path, max, out)
    }
    fn queued(&self, ep: usize, path: Path) -> usize {
        self.inner.queued(ep, path)
    }
    fn progress(&self) -> bool {
        self.inner.progress()
    }
    fn external_work(&self) -> bool {
        self.inner.external_work()
    }
    fn eager_hint(&self) -> Option<usize> {
        self.inner.eager_hint()
    }
    fn reliable_fifo(&self) -> Option<usize> {
        self.inner.reliable_fifo().map(|max| max.min(EDGE))
    }
}

/// Rank 0 and rank 1 of a fresh two-rank mesh of `kind`, each a VCI
/// over a [`Tally`] of its transport.
fn vci_pair(kind: TransportKind) -> [(Arc<Vci>, Arc<Tally>); 2] {
    std::env::set_var(mpfa::transport::shm::ENV_RING_BYTES, "65536");
    let mesh = loopback_mesh::<WireMsg>(kind, 2, 1, WireOpts::default()).expect("mesh");
    if kind == TransportKind::Shm {
        assert_eq!(
            mesh[0].reliable_fifo(),
            Some(EDGE),
            "quarter of a 64 KiB ring"
        );
    }
    [0, 1].map(|ep| {
        let tally = Arc::new(Tally {
            inner: mesh[ep].clone(),
            data: AtomicUsize::new(0),
            acks: AtomicUsize::new(0),
        });
        let proto = ProtoConfig::default();
        let vci = Vci::on_transport(tally.clone(), ep, Stream::create(), proto);
        (vci, tally)
    })
}

/// `len` bytes that differ by position and by `seed`.
fn pattern(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 7 + seed * 13) % 251) as u8)
        .collect()
}

/// Send `pattern(len, tag)` from rank 0 to rank 1 as a rendezvous,
/// whatever its size, and return what arrived.
fn rendezvous(pair: &[(Arc<Vci>, Arc<Tally>); 2], len: usize, tag: usize) -> Vec<u8> {
    let (v0, v1) = (&pair[0].0, &pair[1].0);
    let hdr = MsgHeader {
        context_id: 1,
        src_rank: 0,
        tag: tag as i32,
    };
    let (rreq, slot) = v1.irecv_bytes(1, 0, tag as i32, len);
    let sreq = v0.isend_bytes_mode(1, hdr, pattern(len, tag), SendMode::Rendezvous);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !(rreq.is_complete() && sreq.is_complete()) {
        for v in [v0, v1] {
            v.poll_net(16);
            v.poll_shmem(16);
            v.sweep_tx();
        }
        assert!(Instant::now() < deadline, "{len}-byte rendezvous hung");
    }
    assert_eq!(sreq.error(), None);
    assert_eq!(rreq.status().unwrap().bytes, len);
    assert_eq!((v0.protocol_work(), v1.protocol_work()), (0, 0));
    slot.take()
}

fn count(a: &AtomicUsize) -> usize {
    a.load(Ordering::Relaxed)
}

#[test]
fn payloads_straddling_a_slice_edge_arrive_intact() {
    let sizes = [0, EDGE - 1, EDGE, EDGE + 1, 3 * EDGE + 7];
    for kind in [TransportKind::Tcp, TransportKind::Uds, TransportKind::Shm] {
        let pair = vci_pair(kind);
        for (tag, &len) in sizes.iter().enumerate() {
            let before = count(&pair[0].1.data);
            let got = rendezvous(&pair, len, tag);
            assert!(got == pattern(len, tag), "{kind}: {len} bytes damaged");
            let slices = count(&pair[0].1.data) - before;
            assert_eq!(slices, len.div_ceil(EDGE).max(1), "{kind}: {len} bytes");
        }
    }
}

#[test]
fn only_the_sim_fabric_acknowledges_data() {
    // Four 64 KiB chunks under the default protocol config on sim;
    // thirteen unacked slices of EDGE bytes on the byte transports.
    let len = 200_000;
    for kind in [
        TransportKind::Sim,
        TransportKind::Tcp,
        TransportKind::Uds,
        TransportKind::Shm,
    ] {
        let pair = vci_pair(kind);
        assert!(rendezvous(&pair, len, 1) == pattern(len, 1), "{kind}");
        let (data, acks) = (count(&pair[0].1.data), count(&pair[1].1.acks));
        if kind == TransportKind::Sim {
            assert_eq!((data, acks), (4, 4), "sim: one ack per chunk");
        } else {
            assert_eq!((data, acks), (len.div_ceil(EDGE), 0), "{kind}: no acks");
        }
    }
}

#[test]
fn persistent_rendezvous_refires_over_tcp_match_one_shot_sends() {
    const LEN: usize = 200 * 1024;
    const TAG: i32 = 5;
    let rounds: Vec<Vec<u8>> = (0..3).map(|k| pattern(LEN, k)).collect();
    type Round = (Vec<u8>, i32, i32, usize);

    let persistent: Vec<Round> = {
        let world = Coop::wire(TransportKind::Tcp, 2);
        let comms = world.comms();
        let mut ps = comms[0].send_init::<u8>(&[], 1, TAG).unwrap();
        let mut pr = comms[1].recv_init::<u8>(LEN, 0, TAG).unwrap();
        rounds
            .iter()
            .map(|r| {
                *ps.buffer_mut() = r.clone();
                pr.start().unwrap();
                let req = ps.start().unwrap();
                world.drive(|| req.is_complete() && pr.is_complete(), MAX_SWEEPS);
                assert_eq!(req.error(), None);
                let (data, st) = pr.wait().unwrap();
                (data, st.source, st.tag, st.bytes)
            })
            .collect()
    };
    let oneshot: Vec<Round> = {
        let world = Coop::wire(TransportKind::Tcp, 2);
        let comms = world.comms();
        rounds
            .iter()
            .map(|r| {
                let recv = comms[1].irecv::<u8>(LEN, 0, TAG).unwrap();
                let send = comms[0].isend(r, 1, TAG).unwrap();
                world.drive(|| recv.is_complete() && send.is_complete(), MAX_SWEEPS);
                let (data, st) = recv.take();
                (data, st.source, st.tag, st.bytes)
            })
            .collect()
    };
    assert!(persistent == oneshot, "persistent rounds diverged");
    for (k, round) in persistent.iter().enumerate() {
        assert!(round.0 == rounds[k], "round {k}: payload");
        assert_eq!((round.1, round.2, round.3), (0, TAG, LEN), "round {k}");
    }
}

#[test]
fn rank_killed_mid_allreduce_leaves_survivors_with_err_or_exact() {
    const RANKS: usize = 4;
    const VICTIM: usize = 2;
    const ELEMS: usize = 64 * 1024; // 512 KiB of u64 per rank
    let cfg = WorldConfig {
        transport: TransportKind::Tcp,
        ..WorldConfig::instant(RANKS)
    };
    let mesh =
        loopback_mesh::<WireMsg>(TransportKind::Tcp, RANKS, cfg.max_vcis, WireOpts::default())
            .expect("mesh");
    let procs: Vec<Proc> = mesh
        .iter()
        .enumerate()
        .map(|(r, port)| World::init_with_transport(cfg.clone(), r, port.clone()))
        .collect();
    for p in &procs {
        p.enable_resilience(DetectorConfig::default());
    }
    let comms: Vec<Comm> = procs.iter().map(Proc::world_comm).collect();
    let want: Vec<u64> = (0..ELEMS as u64).map(|i| 4 * i + 6).collect();
    let futs: Vec<_> = comms
        .iter()
        .enumerate()
        .map(|(r, c)| {
            let mine: Vec<u64> = (0..ELEMS as u64).map(|i| i + r as u64).collect();
            c.iallreduce(&mine, Op::Sum).unwrap()
        })
        .collect();

    // Everyone runs until the first clear-to-send has come back: the
    // bulk transfers are under way. Then the victim dies.
    let granted = || {
        mpfa::obs::global_counters()
            .rndv_granted
            .load(Ordering::Relaxed)
    };
    let start = granted();
    let deadline = Instant::now() + Duration::from_secs(60);
    while granted() == start && !futs.iter().any(|f| f.is_complete()) {
        procs.iter().for_each(|p| {
            p.default_stream().progress();
        });
        assert!(Instant::now() < deadline, "allreduce never started");
    }
    assert!(futs.iter().any(|f| !f.is_complete()), "kill came too late");
    mesh_kill(&mesh, VICTIM);

    // Survivors only, under a watchdog. A survivor revokes on its first
    // `Err`, which unblocks the ones whose partner aborted.
    let survivors: Vec<usize> = (0..RANKS).filter(|&r| r != VICTIM).collect();
    let mut revoked = [false; RANKS];
    while !survivors.iter().all(|&r| futs[r].is_complete()) {
        for &r in &survivors {
            procs[r].default_stream().progress();
            if !revoked[r] && futs[r].request().error().is_some() {
                comms[r].revoke().unwrap();
                revoked[r] = true;
            }
        }
        assert!(Instant::now() < deadline, "a survivor hung after the kill");
    }
    let mut futs = futs;
    for r in survivors.into_iter().rev() {
        if let Ok((got, _)) = futs.swap_remove(r).wait_result() {
            assert!(got == want, "rank {r} got a wrong Ok");
        }
    }
}
