//! One trial, run in a fresh child process: set-up phase, warm-up, timed
//! section. Everything it learns goes to the parent as one flat JSON object
//! on the last line of stdout; keys that are metric names carry that
//! metric's value for this trial, keys starting with `_` are bookkeeping.

use std::hint::black_box;

use mpfa::core::{wtime, Stream};
use mpfa::obs::{global_counters, CounterSnapshot};

use crate::hist::{quantile, Hist};
use crate::inputs::Inputs;
use crate::spans;
use crate::workloads::{build, Step, Workload};

pub struct TrialCfg {
    pub workload: String,
    pub seed: u64,
    /// Timed section and warm-up, seconds.
    pub secs: f64,
    pub warmup: f64,
    /// Record spans around every call into the program and write
    /// `out/trace_<workload>.json`.
    pub traced: bool,
}

/// A world lifecycle is timed at least this often, and for cheap ones as
/// often as fits in `SETUP_BUDGET` seconds: single bring-ups run from 10 µs
/// to 60 ms and are too noisy alone. A TCP workload stops at the minimum:
/// every connection closed leaves a TIME_WAIT entry for 60 s, and once
/// there are more of those than loopback has ephemeral ports (28k)
/// `connect` gets 4x slower for every later mesh. An 8-rank mesh is 28
/// connections, so 8 cycles x 10 trials keeps back-to-back runs near 12k.
const SETUP_MIN_CYCLES: usize = 8;
const SETUP_MAX_CYCLES: usize = 8192;
const SETUP_BUDGET: f64 = 0.2;

/// The box is shared and its neighbours slow it down in bursts of 0.1–1 s,
/// a good third of the time. A burst only ever makes things slower, so the
/// value reported for a trial is the one its quietest slices agree on: the
/// 10th percentile of per-slice medians for a time, the 90th of per-slice
/// rates for a throughput, the 25th percentile of the (fewer) set-up
/// cycles. The same estimator runs on both sides of any comparison.
const QUIET: f64 = 0.10;
const QUIET_SETUP: f64 = 0.25;

/// A fixed arithmetic loop timed at trial start; a slow reading flags a
/// noisy neighbour. Returns ns.
fn calibrate() -> f64 {
    let t0 = wtime();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..2_000_000u64 {
        x = black_box(x ^ (x << 13) ^ (x >> 7)).wrapping_add(i);
    }
    black_box(x);
    (wtime() - t0) * 1e9
}

/// Process CPU seconds, user + system, all threads, at nanosecond
/// resolution (`CLOCK_PROCESS_CPUTIME_ID`; the ticks of `/proc/self/stat`
/// are 10 ms, a fifth of a slice). Allocates nothing, so it can be read
/// while the clock runs.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` (two 64-bit fields on every
    // 64-bit Linux) for the call to fill.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hook polls the swept streams suppressed through `has_work() == false`
/// (per-stream `Stream::stats`; the global registry does not count them).
fn idle_skips(streams: &[Stream]) -> u64 {
    streams.iter().map(|s| s.stats().hook_idle_skips).sum()
}

/// Run steps until `secs` have passed; returns what they did.
fn run_for(wl: &mut dyn Workload, hist: &mut Hist, secs: f64) -> Step {
    let t0 = wtime();
    let mut total = Step::default();
    while wtime() - t0 < secs {
        let s = wl.step(hist);
        total.ops += s.ops;
        total.failed += s.failed;
    }
    total
}

/// The timed section is cut into slices of at least this long and this
/// many samples; each slice gets its own median per-op time, its own
/// throughput and its own CPU time per op.
const SLICE_SECS: f64 = 0.05;
const SLICE_MIN_SAMPLES: u64 = 16;

/// The timed section, slice by slice.
struct Timed {
    total: Step,
    wall: f64,
    /// Per slice: median per-op time in ns, verified ops per second,
    /// process CPU seconds per verified op.
    p50_ns: Vec<f64>,
    rate: Vec<f64>,
    cpu_per_op: Vec<f64>,
}

/// Run the timed section. `all` ends up holding every sample (for the
/// tail); the slice vectors are sized up front, so nothing allocates while
/// the clock runs.
fn run_timed(wl: &mut dyn Workload, all: &mut Hist, secs: f64) -> Timed {
    let slices = (secs / SLICE_SECS) as usize + 1;
    let mut timed = Timed {
        total: Step::default(),
        wall: 0.0,
        p50_ns: Vec::with_capacity(slices),
        rate: Vec::with_capacity(slices),
        cpu_per_op: Vec::with_capacity(slices),
    };
    let mut hist = Hist::new();
    let t0 = wtime();
    let mut cpu_mark = cpu_seconds();
    while timed.wall < secs {
        let slice_start = t0 + timed.wall;
        let mut slice = Step::default();
        let mut elapsed = 0.0;
        while elapsed < SLICE_SECS || hist.len() < SLICE_MIN_SAMPLES {
            let s = wl.step(&mut hist);
            slice.ops += s.ops;
            slice.failed += s.failed;
            elapsed = wtime() - slice_start;
        }
        let cpu_now = cpu_seconds();
        if timed.p50_ns.len() < slices {
            let good = (slice.ops - slice.failed) as f64;
            timed.p50_ns.push(hist.quantile_ns(0.5));
            timed.rate.push(good / elapsed);
            timed.cpu_per_op.push((cpu_now - cpu_mark) / good.max(1.0));
        }
        cpu_mark = cpu_now;
        all.absorb(&mut hist);
        timed.total.ops += slice.ops;
        timed.total.failed += slice.failed;
        timed.wall += elapsed;
    }
    timed
}

/// Per-op counts from the always-on registry, by metric name.
fn count_metrics(
    out: &mut Vec<(String, f64)>,
    before: &CounterSnapshot,
    after: &CounterSnapshot,
    idle_skips: u64,
    ops: u64,
    payload_bytes: u64,
) {
    let ops = ops.max(1) as f64;
    let d = |f: fn(&CounterSnapshot) -> u64| (f(after) - f(before)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    put("core.sweeps_per_op", d(|c| c.sweeps) / ops);
    put("core.hook_polls_per_op", d(|c| c.hook_polls) / ops);
    put(
        "core.hook_progress_ratio",
        ratio(d(|c| c.hook_progress), d(|c| c.hook_polls)),
    );
    put("core.hook_idle_skips_per_op", idle_skips as f64 / ops);
    put("core.task_polls_per_op", d(|c| c.task_polls) / ops);
    put(
        "mpi.matching.bucket_hits_per_op",
        d(|c| c.match_bucket_hits) / ops,
    );
    put(
        "mpi.matching.wildcard_hits_per_op",
        d(|c| c.match_wildcard_hits) / ops,
    );
    put(
        "mpi.matching.unexpected_per_op",
        d(|c| c.unexpected_msgs) / ops,
    );
    put("mpi.protocol.eager_per_op", d(|c| c.eager_msgs) / ops);
    put("mpi.protocol.rndv_per_op", d(|c| c.rndv_started) / ops);
    put(
        "transport.wire.syscalls_per_op",
        d(|c| c.wire_syscalls) / ops,
    );
    put(
        "transport.wire.syscalls_saved_per_op",
        d(|c| c.wire_syscalls_saved) / ops,
    );
    put(
        "transport.reactor.wakeups_per_op",
        d(|c| c.reactor_wakeups) / ops,
    );
    let payload = payload_bytes as f64 * ops;
    put(
        "transport.wire.tx_bytes_per_payload_byte",
        ratio(d(|c| c.wire_bytes_tx), payload),
    );
    put(
        "transport.bytes_copied_per_payload_byte",
        ratio(d(|c| c.bytes_copied), payload),
    );
    put(
        "transport.shm.ring_full_per_op",
        d(|c| c.shm_ring_full) / ops,
    );
    put("fabric.msgs_per_op", d(|c| c.msgs_net + c.msgs_shm) / ops);
    put("cont.fired_per_op", d(|c| c.continuations_fired) / ops);
    put("cont.wakers_per_op", d(|c| c.wakers_woken) / ops);
}

/// Per-op self times from the traced pass, by metric name.
fn span_metrics(out: &mut Vec<(String, f64)>, t: &spans::Totals) {
    let ops = t.ops.max(1) as f64;
    let us = |secs: f64| secs * 1e6 / ops;
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    put("core.sweep_busy_us_per_op", us(t.busy_sweep_secs));
    put("core.busy_sweeps_per_op", t.busy_sweeps as f64 / ops);
    put("core.sweep_idle_us_per_op", us(t.idle_sweep_secs));
    put("core.idle_sweeps_per_op", t.idle_sweeps as f64 / ops);
    put("core.task_start_us_per_op", us(t.task_start_secs));
    put("mpi.post_us_per_op", us(t.post_secs));
    put("mpi.take_us_per_op", us(t.take_secs));
    put("driver.self_us_per_op", us(t.driver_secs));
    put("_traced_op_us", us(t.op_secs));
    put("_span_overflow", t.overflowed as f64);
}

pub fn run(cfg: &TrialCfg) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    out.push(("driver.calib_ns".into(), calibrate()));
    let inputs = Inputs::generate(&cfg.workload, cfg.seed);
    let mut hist = Hist::new();
    if cfg.traced {
        spans::enable();
    }

    // Set-up phase: whole lifecycles, back to back, each timed.
    let t0 = wtime();
    let tcp = crate::metrics::workload(&cfg.workload).is_some_and(|w| w.tcp);
    let max_cycles = if tcp {
        SETUP_MIN_CYCLES
    } else {
        SETUP_MAX_CYCLES
    };
    let mut cycles: Vec<f64> = Vec::with_capacity(max_cycles);
    let mut setup_failed = 0;
    let mut last = t0;
    while cycles.len() < SETUP_MIN_CYCLES || (last - t0 < SETUP_BUDGET && cycles.len() < max_cycles)
    {
        let mut wl = build(&cfg.workload, &inputs, true);
        setup_failed += wl.step(&mut hist).failed;
        setup_failed += !wl.finish() as u64;
        drop(wl);
        let now = wtime();
        cycles.push(now - last);
        last = now;
    }
    let cycle_count = cycles.len() as u64;
    out.push(("setup_s".into(), quantile(&mut cycles, QUIET_SETUP)));

    let mut wl = build(&cfg.workload, &inputs, false);
    let warm = run_for(wl.as_mut(), &mut hist, cfg.warmup);
    hist.clear();
    spans::reset();

    let streams = wl.streams();
    let skips_before = idle_skips(&streams);
    let counters_before = global_counters().snapshot();
    let mut sliced = run_timed(wl.as_mut(), &mut hist, cfg.secs);
    let timed = sliced.total;
    let counters_after = global_counters().snapshot();
    let skips = idle_skips(&streams) - skips_before;
    let came_to_rest = wl.finish();
    let payload_bytes = wl.payload_bytes_per_op();
    drop(wl);

    let (tail_pct, tail_ns) = hist.tail();
    let rate = quantile(&mut sliced.rate, 1.0 - QUIET);
    out.push((
        "op_p50_us".into(),
        quantile(&mut sliced.p50_ns, QUIET) / 1e3,
    ));
    out.push(("ops_per_s".into(), rate));
    // Each slice's own CPU time over its own ops, so time the host took
    // from the guest in one slice is not charged at another slice's rate.
    out.push((
        "cpu_us_per_op".into(),
        quantile(&mut sliced.cpu_per_op, QUIET) * 1e6,
    ));
    out.push(("driver.op_tail_us".into(), tail_ns / 1e3));
    out.push(("_tail_pct".into(), tail_pct));
    out.push(("_samples".into(), hist.len() as f64));
    out.push((
        "_attempted".into(),
        (timed.ops + warm.ops + cycle_count) as f64,
    ));
    out.push((
        "_failed".into(),
        (timed.failed + warm.failed + setup_failed + !came_to_rest as u64) as f64,
    ));
    count_metrics(
        &mut out,
        &counters_before,
        &counters_after,
        skips,
        timed.ops,
        payload_bytes,
    );

    if cfg.traced {
        span_metrics(&mut out, &spans::totals());
        let path = crate::out_dir().join(format!("trace_{}.json", cfg.workload));
        match spans::write_chrome(&path, &cfg.workload) {
            Ok(n) => eprintln!("  wrote {} ({n} spans)", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
    // Last, so it covers everything above.
    out.push(("peak_rss_mib".into(), peak_rss_mib()));
    out
}
