//! Probes: each layer's public functions timed in isolation, on the shapes
//! the workloads use, from a child process of their own. A probe's number
//! bounds what a change to that layer can save on the workload it feeds
//! (see README.md); it is a per-layer metric, never an end-to-end one.

use std::hint::black_box;

use mpfa::core::{wtime, AsyncPoll, Request, Status, Stream};
use mpfa::fabric::Path;
use mpfa::mpi::matching::{MatchState, PostedRecv, RecvSlot, Unexpected};
use mpfa::mpi::wire::{MsgHeader, WireMsg};
use mpfa::mpi::{MpfaBytes, Op, ANY_SOURCE};
use mpfa::transport::{loopback_mesh, FrameCodec, TransportKind, WireOpts};

use crate::hist::{quantile, Hist};
use crate::inputs::checksum;

/// Seconds of batches per probe, after one warm-up batch.
const PROBE_SECS: f64 = 0.04;

/// Median over batches of ns per op; `batch` runs some ops, returns how
/// many, and may exclude its own preparation by returning the seconds it
/// timed itself.
fn time_ns(mut batch: impl FnMut() -> (u64, f64)) -> f64 {
    batch();
    let mut per_op = Vec::new();
    let t0 = wtime();
    while wtime() - t0 < PROBE_SECS || per_op.len() < 5 {
        let (ops, secs) = batch();
        per_op.push(secs * 1e9 / ops.max(1) as f64);
    }
    quantile(&mut per_op, 0.5)
}

/// Time `n` calls of `f` as one batch.
fn repeat(n: u64, mut f: impl FnMut()) -> impl FnMut() -> (u64, f64) {
    move || {
        let t0 = wtime();
        for _ in 0..n {
            f();
        }
        (n, wtime() - t0)
    }
}

fn core_probes(out: &mut Vec<(String, f64)>) {
    let empty = Stream::create();
    out.push((
        "core.probe.empty_sweep_ns".into(),
        time_ns(repeat(10_000, || {
            black_box(empty.progress());
        })),
    ));
    let busy = Stream::create();
    for _ in 0..64 {
        busy.async_start(|_| AsyncPoll::Pending);
    }
    out.push((
        "core.probe.sweep64_ns".into(),
        time_ns(repeat(2_000, || {
            black_box(busy.progress());
        })),
    ));
}

const DEPTH: usize = 1024;
const TAGS: i32 = 16;

fn posted(stream: &Stream, src: i32, tag: i32) -> PostedRecv {
    PostedRecv {
        src,
        tag,
        capacity: 32,
        slot: RecvSlot::new(),
        completer: Request::pair(stream).1,
    }
}

/// `post_recv` + `match_incoming` per message, `depth` receives posted
/// before their arrivals come, tag-major as `msgrate_shm` sends them.
/// Receives are built before the clock starts and dropped after it stops,
/// so only the matcher is timed.
fn match_probe(stream: &Stream, depth: usize, src: i32) -> f64 {
    let tag_of = |i: usize| i as i32 % TAGS;
    let mut arrivals: Vec<i32> = (0..DEPTH).map(tag_of).collect();
    for group in arrivals.chunks_mut(depth) {
        group.sort_unstable();
    }
    time_ns(|| {
        let mut state = MatchState::new();
        let recvs: Vec<PostedRecv> = (0..DEPTH).map(|i| posted(stream, src, tag_of(i))).collect();
        let mut recvs = recvs.into_iter();
        let mut matched = Vec::with_capacity(DEPTH);
        let t0 = wtime();
        for group in arrivals.chunks(depth) {
            for r in recvs.by_ref().take(depth) {
                black_box(state.post_recv(r));
            }
            for &tag in group {
                matched.push(state.match_incoming(0, tag).expect("a posted receive"));
            }
        }
        let secs = wtime() - t0;
        (DEPTH as u64, secs)
    })
}

fn matching_probes(out: &mut Vec<(String, f64)>) {
    let stream = Stream::create();
    out.push((
        "mpi.matching.probe.match_ns_d1".into(),
        match_probe(&stream, 1, 0),
    ));
    out.push((
        "mpi.matching.probe.match_ns_d1024".into(),
        match_probe(&stream, DEPTH, 0),
    ));
    out.push((
        "mpi.matching.probe.wildcard_ns_d1024".into(),
        match_probe(&stream, DEPTH, ANY_SOURCE),
    ));
    let body = MpfaBytes::from(vec![7u8; 32]);
    out.push((
        "mpi.matching.probe.unexpected_ns_d1024".into(),
        time_ns(|| {
            let mut state = MatchState::new();
            let recvs: Vec<PostedRecv> = (0..DEPTH)
                .map(|i| posted(&stream, 0, i as i32 % TAGS))
                .collect();
            let mut matched = Vec::with_capacity(DEPTH);
            let t0 = wtime();
            for i in 0..DEPTH {
                state.push_unexpected(Unexpected::Eager {
                    src: 0,
                    tag: (i / (DEPTH / TAGS as usize)) as i32,
                    data: body.clone(),
                });
            }
            for r in recvs {
                matched.push(state.post_recv(r).expect("an unexpected message"));
            }
            let secs = wtime() - t0;
            (DEPTH as u64, secs)
        }),
    ));
}

fn wire_probes(out: &mut Vec<(String, f64)>) {
    for (label, len) in [("32b", 32usize), ("4k", 4096)] {
        let msg = WireMsg::Eager {
            hdr: MsgHeader {
                context_id: 2,
                src_rank: 1,
                tag: 5,
            },
            data: MpfaBytes::from(vec![0xA5u8; len]),
        };
        let mut staged = Vec::with_capacity(len + 64);
        let exact = msg.encoded_len().expect("WireMsg knows its encoded length");
        let mut frame = vec![0u8; exact];
        // One `encode` (staged, what the socket path does) and one
        // `encode_into` (in place, what the shm ring does) per two ops.
        out.push((
            format!("mpi.wire.probe.encode_ns_{label}"),
            time_ns(repeat(2_000, || {
                staged.clear();
                msg.encode(&mut staged);
                msg.encode_into(&mut frame);
                black_box((&staged, &frame));
            })) / 2.0,
        ));
        let wire = MpfaBytes::from(frame.clone());
        out.push((
            format!("mpi.wire.probe.decode_ns_{label}"),
            time_ns(repeat(2_000, || {
                black_box(WireMsg::decode_bytes(wire.clone()).expect("decodes"));
            })),
        ));
    }

    let mut acc = vec![1u64; 8192];
    let input = vec![3u64; 8192];
    out.push((
        "mpi.op.probe.sum_u64_ns_per_kib".into(),
        time_ns(repeat(200, || {
            Op::Sum.apply(&mut acc, &input).expect("sum of u64");
            black_box(&acc);
        })) / 64.0,
    ));
}

/// Ping-pong of `MpfaBytes` frames on a bare two-rank mesh, no `mpi` on
/// top: the floor under the matching workload's `op_p50_us`. Like the
/// workload it reports the median hop, not the mean (TCP hops have a long
/// tail), and reads the payload between hops, off the clock, as the
/// workload's checksum does (which leaves a 1 MiB body warm for the echo's
/// copy). Returns µs per one-way delivery.
fn raw_half_rtt_us(kind: TransportKind, len: usize) -> f64 {
    let mesh = loopback_mesh::<MpfaBytes>(kind, 2, 1, WireOpts::default())
        .unwrap_or_else(|e| panic!("{kind} probe mesh: {e}"));
    let mut ball = MpfaBytes::from(vec![0x5Au8; len]);
    let mut inbox = Vec::with_capacity(1);
    let mut hist = Hist::new();
    let mut src = 0usize;
    let warmup = if len >= 1 << 20 { 32 } else { 500 };
    let t_start = wtime();
    let mut hops = 0;
    while hops < warmup + 16 || wtime() - t_start < 4.0 * PROBE_SECS {
        let dst = 1 - src;
        let t0 = wtime();
        mesh[src].send(src, dst, ball, len);
        while inbox.is_empty() {
            mesh[0].progress();
            mesh[1].progress();
            mesh[dst].poll(dst, Path::Net, 1, &mut inbox);
        }
        ball = inbox.pop().expect("one envelope").msg;
        let t1 = wtime();
        if hops >= warmup {
            hist.add_secs(t1 - t0);
        }
        assert_eq!(ball.len(), len);
        black_box(checksum(&ball));
        src = dst;
        hops += 1;
    }
    hist.quantile_ns(0.5) / 1e3
}

fn transport_probes(out: &mut Vec<(String, f64)>) {
    for (label, kind, len) in [
        ("tcp_4k", TransportKind::Tcp, 4096usize),
        ("shm_1m", TransportKind::Shm, 1 << 20),
        ("shm_32b", TransportKind::Shm, 32),
        ("sim_8b", TransportKind::Sim, 8),
    ] {
        out.push((
            format!("transport.probe.raw_half_rtt_us.{label}"),
            raw_half_rtt_us(kind, len),
        ));
    }
    let bytes = MpfaBytes::from(vec![1u8; 4096]);
    out.push((
        "transport.bytes.probe.clone_slice_ns".into(),
        time_ns(repeat(10_000, || {
            black_box((bytes.clone(), bytes.slice(16..4096)));
        })),
    ));
}

fn cont_probes(out: &mut Vec<(String, f64)>) {
    let stream = Stream::create();
    let fired = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    out.push((
        "cont.probe.attach_fire_ns".into(),
        time_ns(repeat(2_000, || {
            let (req, completer) = Request::pair(&stream);
            let fired = fired.clone();
            req.on_complete(move |_| {
                fired.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            completer.complete(Status::empty());
            stream.progress();
        })),
    ));
    assert!(fired.load(std::sync::atomic::Ordering::Relaxed) >= 2_000);
}

pub fn run() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    core_probes(&mut out);
    matching_probes(&mut out);
    wire_probes(&mut out);
    transport_probes(&mut out);
    cont_probes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use crate::metrics::PER_LAYER;

    #[test]
    fn probes_report_exactly_the_probe_metrics() {
        let got = super::run();
        let mut names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| n.contains(".probe."))
            .collect();
        want.sort_unstable();
        assert_eq!(names, want);
        for (name, v) in &got {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
    }
}
