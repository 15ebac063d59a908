//! The ledger's vocabulary: workload names, metric names, units, bounds.
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`--print-benchmark-json`) and a unit test keeps the two identical.
//! `README.md` records which end-to-end metric each per-layer metric is
//! expected to move, and on which workload.

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Opens TCP connections: its set-up cycles are rationed and `--check`
    /// also compares its syscalls per op.
    pub tcp: bool,
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Names are permanent: later changes are judged against them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "tasks64",
        why: "64 pending MPIX_Async tasks on one stream, no world: the paper's Fig 7 observation latency; core does all the work",
        tcp: false,
    },
    WorkloadDef {
        name: "msgrate_shm",
        why: "windows of 1024 x 32 B over 16 tags on shm, posted and unexpected, exact and wildcard: matching, eager protocol and vci dominate",
        tcp: false,
    },
    WorkloadDef {
        name: "pingpong_tcp_4k",
        why: "4 KiB ping-pong over loopback TCP at matching depth 1: per-message cost of wire, reactor, codec and kernel; mpi is ~5 %",
        tcp: true,
    },
    WorkloadDef {
        name: "pingpong_shm_1m",
        why: "1 MiB ping-pong over shm rings re-sending the ring view: the per-byte regime of the zero-copy path, about one memcpy",
        tcp: false,
    },
    WorkloadDef {
        name: "allreduce_tcp_64b",
        why: "64 B iallreduce on 8 ranks over a 28-connection TCP mesh: small frames of a collective schedule, the busy-path syscall curve",
        tcp: true,
    },
    WorkloadDef {
        name: "allreduce_tcp_512k",
        why: "512 KiB iallreduce on the same world: rendezvous, pipelined bulk TCP writes, Op::apply and payload copies",
        tcp: true,
    },
    WorkloadDef {
        name: "async_pingpong_sim",
        why: "two futures on cont::Executor doing recv_async/send_async over the instant sim fabric: waker bridge, executor and typed pack path",
        tcp: false,
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const END_TO_END: &[Metric] = &[
    e2e("op_p50_us", "us", "lower", 0.10),
    e2e("ops_per_s", "1/s", "higher", 0.15),
    e2e("cpu_us_per_op", "us", "lower", 0.15),
    e2e("peak_rss_mib", "MiB", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    // core: counts
    layer("core.sweeps_per_op", "count", "lower"),
    layer("core.hook_polls_per_op", "count", "lower"),
    layer("core.hook_progress_ratio", "ratio", "higher"),
    layer("core.hook_idle_skips_per_op", "count", "lower"),
    layer("core.task_polls_per_op", "count", "lower"),
    // core: spans
    layer("core.sweep_busy_us_per_op", "us", "lower"),
    layer("core.busy_sweeps_per_op", "count", "lower"),
    layer("core.sweep_idle_us_per_op", "us", "lower"),
    layer("core.idle_sweeps_per_op", "count", "lower"),
    layer("core.task_start_us_per_op", "us", "lower"),
    // core: probes
    layer("core.probe.empty_sweep_ns", "ns", "lower"),
    layer("core.probe.sweep64_ns", "ns", "lower"),
    // mpi
    layer("mpi.post_us_per_op", "us", "lower"),
    layer("mpi.take_us_per_op", "us", "lower"),
    layer("mpi.matching.bucket_hits_per_op", "count", "lower"),
    layer("mpi.matching.wildcard_hits_per_op", "count", "lower"),
    layer("mpi.matching.unexpected_per_op", "count", "lower"),
    layer("mpi.matching.probe.match_ns_d1", "ns", "lower"),
    layer("mpi.matching.probe.match_ns_d1024", "ns", "lower"),
    layer("mpi.matching.probe.unexpected_ns_d1024", "ns", "lower"),
    layer("mpi.matching.probe.wildcard_ns_d1024", "ns", "lower"),
    layer("mpi.protocol.eager_per_op", "count", "lower"),
    layer("mpi.protocol.rndv_per_op", "count", "lower"),
    layer("mpi.wire.probe.encode_ns_32b", "ns", "lower"),
    layer("mpi.wire.probe.encode_ns_4k", "ns", "lower"),
    layer("mpi.wire.probe.decode_ns_32b", "ns", "lower"),
    layer("mpi.wire.probe.decode_ns_4k", "ns", "lower"),
    layer("mpi.op.probe.sum_u64_ns_per_kib", "ns", "lower"),
    // transport
    layer("transport.wire.syscalls_per_op", "count", "lower"),
    layer("transport.wire.syscalls_saved_per_op", "count", "higher"),
    layer("transport.reactor.wakeups_per_op", "count", "lower"),
    layer("transport.wire.tx_bytes_per_payload_byte", "ratio", "lower"),
    layer("transport.bytes_copied_per_payload_byte", "ratio", "lower"),
    layer("transport.shm.ring_full_per_op", "count", "lower"),
    layer("transport.probe.raw_half_rtt_us.tcp_4k", "us", "lower"),
    layer("transport.probe.raw_half_rtt_us.shm_1m", "us", "lower"),
    layer("transport.probe.raw_half_rtt_us.shm_32b", "us", "lower"),
    layer("transport.probe.raw_half_rtt_us.sim_8b", "us", "lower"),
    layer("transport.bytes.probe.clone_slice_ns", "ns", "lower"),
    // fabric, cont
    layer("fabric.msgs_per_op", "count", "lower"),
    layer("cont.fired_per_op", "count", "lower"),
    layer("cont.wakers_per_op", "count", "lower"),
    layer("cont.probe.attach_fire_ns", "ns", "lower"),
    // the driver itself: diagnostics
    layer("driver.self_us_per_op", "us", "lower"),
    layer("driver.trace_overhead_ratio", "ratio", "lower"),
    layer("driver.op_tail_us", "us", "lower"),
    layer("driver.trial_spread", "ratio", "lower"),
    layer("driver.calib_ns", "ns", "lower"),
];

/// Seconds one run measures; with ten trials a trial's timed section is a
/// tenth of it.
pub const RUN_SECONDS: u64 = 10;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::plain;

    #[test]
    fn benchmark_json_at_the_root_matches_these_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_reasons_fit_the_schema() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 7);
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['"', '\\', '\n']),
                "{}",
                w.name
            );
        }
        assert_eq!(END_TO_END.len(), 5);
        assert!(PER_LAYER.len() <= 128);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            names.push(m.name);
            assert!(m.name.len() <= 64 && plain(m.name) && !m.name.contains(['/', '%']));
            assert!(m.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(m.unit.len() <= 16 && plain(m.unit));
            assert!(matches!(m.better, "lower" | "higher"));
            assert!((0.0..=0.25).contains(&m.bound));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
