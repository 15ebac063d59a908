//! The parent side: runs trials as fresh child processes under a watchdog,
//! combines them, prints every metric by name with its unit, and (for the
//! driver) one result object on the last line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

/// Trials per workload. An end-to-end metric's value is the second best of
/// its trials (see [`Stat::quiet`]); a per-layer count is their median. Ten
/// short trials rather than five long ones: what is left after slicing and
/// pinning is a level that differs from process to process (a 512 KiB
/// allreduce settles anywhere between 13.2 and 15.3 ms for the life of a
/// process), and only more processes average that.
const TRIALS: usize = 10;
/// Untraced trials of a `--trace 1` run, which also spends one trial's
/// time on the traced pass and some on the probes.
const TRIALS_WITH_TRACE: usize = 6;
/// What a child may take beyond its warm-up and timed section (set-up
/// phase, process start, trace file) before the watchdog kills it.
const WATCHDOG_SLACK: f64 = 20.0;

type Pairs = Vec<(String, f64)>;

fn get(pairs: &Pairs, key: &str) -> Option<f64> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Second smallest and second largest (the only value if there is one).
    pub low2: f64,
    pub high2: f64,
}

impl Stat {
    pub fn of(values: &[f64]) -> Option<Stat> {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        let median = if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        };
        Some(Stat {
            median,
            min: v[0],
            max: v[v.len() - 1],
            low2: v[1.min(v.len() - 1)],
            high2: v[v.len().saturating_sub(2)],
        })
    }

    /// The second best of the trials. Whatever disturbs a trial on this
    /// shared box — a neighbour's burst, an unlucky layout, a slow spell —
    /// only ever makes it worse, and a slow spell can outlast most of a
    /// run: a 4 KiB TCP hop reads 8.8 µs or 12 µs for tens of seconds on
    /// end, so seven or eight of ten trials can sit in the slow regime and
    /// the median, or even the third best, flips between regimes from one
    /// run to the next. Not the very best either: one process in thirty
    /// lands a lucky layout (a 512 KiB allreduce 6 % under all the rest),
    /// and the best of ten would flip on whether the run drew one.
    pub fn quiet(&self, m: &Metric) -> f64 {
        if m.better == "higher" {
            self.high2
        } else {
            self.low2
        }
    }

    /// (max − min) / median across the trials.
    pub fn spread(&self) -> f64 {
        if self.median != 0.0 {
            (self.max - self.min) / self.median.abs()
        } else {
            0.0
        }
    }
}

/// How one set of runs is shaped.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub trial_secs: f64,
    pub warmup: f64,
    pub untraced: usize,
    pub traced: bool,
}

impl Plan {
    fn new(seed: u64, trial_secs: f64, untraced: usize, traced: bool) -> Plan {
        Plan {
            seed,
            trial_secs,
            warmup: (trial_secs / 4.0).min(0.2),
            untraced,
            traced,
        }
    }
}

/// Everything measured for one workload in one set of runs.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    untraced: Vec<Pairs>,
    traced: Option<Pairs>,
    /// Children that crashed, printed garbage or met the watchdog.
    lost: u64,
}

struct Ctx {
    exe: PathBuf,
    /// The one CPU every child is pinned to, if `taskset` is there to pin.
    pin: Option<String>,
}

/// The CPU to pin children to: the last one this process may run on, which
/// leaves the first to the parent and the interrupts. `None` if `taskset`
/// is missing or refuses.
///
/// Why pin at all: after some tens of seconds of sustained load this VM's
/// host makes a wake-up that crosses vCPUs (an IPI into a halted vCPU) cost
/// 15 µs more, for as long as the load lasts — a 4 KiB TCP hop goes from
/// 8.8 µs to 24–38 µs, an 8-rank allreduce from 213 µs to 320–560 µs. With
/// the driver and the reactor threads on one CPU a wake-up is a context
/// switch inside the guest and the same runs read 8.8 µs and 213 µs again.
fn pick_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = list.trim().rsplit([',', '-']).next()?.to_string();
    let ok = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    ok.then_some(cpu)
}

impl Ctx {
    /// Fatal if the executable cannot find itself or `out/` cannot be made.
    fn new() -> Ctx {
        let set_up = || -> std::io::Result<PathBuf> {
            std::fs::create_dir_all(crate::out_dir())?;
            std::env::current_exe()
        };
        match set_up() {
            Ok(exe) => Ctx {
                exe,
                pin: pick_cpu(),
            },
            Err(e) => {
                eprintln!("mpfa-benchmark: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Run one child to completion or to the watchdog.
    fn child(&self, args: &[String], budget_secs: f64) -> Result<Pairs, String> {
        let mut cmd = match &self.pin {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", cpu]).arg(&self.exe);
                c
            }
            None => Command::new(&self.exe),
        };
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs_f64(budget_secs);
        let status = loop {
            let failure = match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Ok(None) => format!("watchdog after {budget_secs:.0} s (exit 124)"),
                Err(e) => format!("wait: {e}"),
            };
            let _ = child.kill();
            let _ = child.wait();
            return Err(failure);
        };
        // The child prints one short line, well inside the pipe buffer.
        let mut text = String::new();
        if let Some(mut out) = child.stdout.take() {
            use std::io::Read;
            out.read_to_string(&mut text)
                .map_err(|e| format!("read child output: {e}"))?;
        }
        if !status.success() {
            return Err(format!("child exited with {status}"));
        }
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        match Json::parse(line) {
            Some(Json::Obj(fields)) => fields
                .into_iter()
                .map(|(k, v)| {
                    v.num()
                        .map(|n| (k, n))
                        .ok_or_else(|| "non-numeric field".to_string())
                })
                .collect(),
            _ => Err("child printed no result object".to_string()),
        }
    }

    fn trial(&self, workload: &str, plan: &Plan, traced: bool) -> Result<Pairs, String> {
        let args = [
            "--child".to_string(),
            "trial".to_string(),
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            plan.seed.to_string(),
            "--seconds".to_string(),
            plan.trial_secs.to_string(),
            "--warmup".to_string(),
            plan.warmup.to_string(),
            "--trace".to_string(),
            (traced as u8).to_string(),
        ];
        self.child(&args, plan.warmup + plan.trial_secs + WATCHDOG_SLACK)
    }
}

/// One set of runs over `workloads`: untraced trials interleaved
/// round-robin across the workloads (so a noisy spell hits one trial of
/// each, not every trial of one), then the traced pass and the probes.
fn run_set(ctx: &Ctx, workloads: &[&str], plan: &Plan) -> (BTreeMap<String, WorkloadRun>, Pairs) {
    let mut runs: BTreeMap<String, WorkloadRun> = workloads
        .iter()
        .map(|w| (w.to_string(), WorkloadRun::default()))
        .collect();
    let note_loss = |run: &mut WorkloadRun, w: &str, what: &str, err: String| {
        eprintln!("  {w}: {what} lost: {err}");
        run.lost += 1;
    };
    for t in 0..plan.untraced {
        for w in workloads {
            let run = runs.get_mut(*w).expect("inserted above");
            match ctx.trial(w, plan, false) {
                Ok(p) => run.untraced.push(p),
                Err(e) => note_loss(run, w, &format!("trial {t}"), e),
            }
        }
    }
    let mut probes = Pairs::new();
    if plan.traced {
        for w in workloads {
            let run = runs.get_mut(*w).expect("inserted above");
            match ctx.trial(w, plan, true) {
                Ok(p) => run.traced = Some(p),
                Err(e) => note_loss(run, w, "traced pass", e),
            }
        }
        match ctx.child(
            &["--child".to_string(), "probes".to_string()],
            WATCHDOG_SLACK,
        ) {
            Ok(p) => probes = p,
            Err(e) => eprintln!("  probes lost: {e}"),
        }
    }
    (runs, probes)
}

impl WorkloadRun {
    fn stat(&self, key: &str) -> Option<Stat> {
        let values: Vec<f64> = self.untraced.iter().filter_map(|p| get(p, key)).collect();
        Stat::of(&values)
    }

    /// (attempted, failed): what the trials counted, plus one failed
    /// attempt per lost child, whose remaining ops are unknown.
    fn tally(&self) -> (u64, u64) {
        let sum = |key: &str| -> u64 {
            self.untraced
                .iter()
                .chain(&self.traced)
                .filter_map(|p| get(p, key))
                .sum::<f64>() as u64
        };
        (sum("_attempted") + self.lost, sum("_failed") + self.lost)
    }

    /// Every per-layer metric this run can supply, by name.
    fn per_layer(&self, probes: &Pairs) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let p50 = self.stat("op_p50_us");
        for m in PER_LAYER {
            let v = match m.name {
                "driver.trial_spread" => p50.map(|s| s.spread()),
                "driver.trace_overhead_ratio" => self
                    .traced
                    .as_ref()
                    .and_then(|t| get(t, "op_p50_us"))
                    .zip(p50)
                    .map(|(traced, plain)| traced / plain.low2),
                // Counts, the tail and the calibration loop: untraced trials.
                name => self
                    .stat(name)
                    .map(|s| s.median)
                    // Span self times: the traced pass.
                    .or_else(|| self.traced.as_ref().and_then(|t| get(t, name)))
                    .or_else(|| get(probes, name)),
            };
            if let Some(v) = v {
                out.insert(m.name, v);
            }
        }
        out
    }
}

/// Remove every `MPFA_*` knob from this process's environment, which the
/// children inherit, so the numbers measure the defaults. Returns how many
/// were set. Call before any thread starts.
pub fn scrub_env() -> usize {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MPFA_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs.len()
}

fn print_header(ctx: &Ctx, plan: &Plan, workloads: usize, scrubbed: usize) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "mpfa benchmark: {workloads} workload(s), seed {}, {} untraced trial(s) x {:.2} s (+{:.2} s warm-up){}",
        plan.seed,
        plan.untraced,
        plan.trial_secs,
        plan.warmup,
        if plan.traced { ", traced pass, probes" } else { "" }
    );
    println!(
        "  load: one driver thread owns every rank; {cores} core(s), children {}; TCP is the host's loopback interface",
        match &ctx.pin {
            Some(cpu) => format!("pinned to CPU {cpu}"),
            None => "NOT pinned (no taskset): expect host noise on TCP".to_string(),
        }
    );
    println!(
        "  settings: {scrubbed} MPFA_* variable(s) scrubbed; epoll reactor {}; shm ring {} MiB",
        if mpfa::transport::reactor_enabled() {
            "on"
        } else {
            "off"
        },
        mpfa::transport::shm::DEFAULT_RING_CAP >> 20
    );
}

/// Four decimals where that shows the value, four significant digits in
/// scientific notation where it would not (a 12 µs set-up, a 3 ms loop).
fn show(v: f64) -> String {
    if v == 0.0 || (0.01..1e7).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

fn print_end_to_end(name: &str, run: &WorkloadRun) {
    println!("== {name}: end to end ({} trial(s))", run.untraced.len());
    for m in END_TO_END {
        match run.stat(m.name) {
            Some(s) => {
                // Trials that disagree by more than the bound cannot
                // resolve a change of the bound's size: say so instead of
                // letting the metric look unchanged.
                let note = if s.spread() > m.bound {
                    "  UNRESOLVED: spread > bound"
                } else {
                    ""
                };
                println!(
                    "  {:<16} {:>14} {:<4} second best of trials; median {} min {} max {} spread {:.1} %{note}",
                    m.name,
                    show(s.quiet(m)),
                    m.unit,
                    show(s.median),
                    show(s.min),
                    show(s.max),
                    s.spread() * 100.0
                );
            }
            None => println!("  {:<16} {:>14} {}", m.name, "missing", m.unit),
        }
    }
    let (attempted, failed) = run.tally();
    println!("  {:<16} {attempted:>14} count", "ops_attempted");
    println!("  {:<16} {failed:>14} count", "ops_failed");
}

fn print_per_layer(name: &str, run: &WorkloadRun, layer: &BTreeMap<&'static str, f64>) {
    println!("== {name}: per layer");
    for m in PER_LAYER {
        match layer.get(m.name) {
            Some(v) => println!("  {:<44} {:>14} {}", m.name, show(*v), m.unit),
            None => println!("  {:<44} {:>14} {}", m.name, "missing", m.unit),
        }
    }
    if let Some(t) = run.untraced.first() {
        println!(
            "  driver.op_tail_us is p{} of {} samples per trial",
            get(t, "_tail_pct").unwrap_or(0.0),
            get(t, "_samples").unwrap_or(0.0)
        );
    }
    if let Some(t) = &run.traced {
        println!(
            "  traced pass: {:.4} us per op traced; {} span(s) overflowed the per-op buffer",
            get(t, "_traced_op_us").unwrap_or(0.0),
            get(t, "_span_overflow").unwrap_or(0.0)
        );
    }
}

fn metric_cell(m: &Metric, value: f64) -> (String, Json) {
    (
        m.name.to_string(),
        Json::Obj(vec![
            ("value".into(), Json::Num(value)),
            ("unit".into(), Json::Str(m.unit.into())),
        ]),
    )
}

/// The driver's contract: one workload, one result object on the last line
/// with the end-to-end metrics (`--trace 0`) or the per-layer ones
/// (`--trace 1`).
pub fn single(workload: &str, seed: u64, seconds: f64, trace: bool, scrubbed: usize) -> i32 {
    let ctx = Ctx::new();
    let trial_secs = seconds / TRIALS as f64;
    let plan = if trace {
        Plan::new(seed, trial_secs, TRIALS_WITH_TRACE, true)
    } else {
        Plan::new(seed, trial_secs, TRIALS, false)
    };
    print_header(&ctx, &plan, 1, scrubbed);
    let (runs, probes) = run_set(&ctx, &[workload], &plan);
    let run = &runs[workload];
    let layer = run.per_layer(&probes);
    print_end_to_end(workload, run);
    if trace {
        print_per_layer(workload, run, &layer);
    }

    let (table, cells): (&[Metric], Vec<(String, Json)>) = if trace {
        let cells = PER_LAYER
            .iter()
            .filter_map(|m| layer.get(m.name).map(|v| metric_cell(m, *v)))
            .collect();
        (PER_LAYER, cells)
    } else {
        let cells = END_TO_END
            .iter()
            .filter_map(|m| run.stat(m.name).map(|s| metric_cell(m, s.quiet(m))))
            .collect();
        (END_TO_END, cells)
    };
    let (attempted, failed) = run.tally();
    if cells.len() != table.len() || attempted == 0 {
        // Not even a wrong result to report: no result line at all.
        eprintln!("mpfa-benchmark: {workload}: metrics missing, no result");
        return 1;
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(cells)),
    ]);
    println!("{}", result.render());
    0
}

/// One line of `--check`; returns the complaint if the two values differ
/// by more than `bound`.
fn compare(workload: &str, name: &str, unit: &str, bound: f64, x: f64, y: f64) -> Option<String> {
    let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
    let verdict = if diff > bound { "DIFFERS" } else { "agrees" };
    println!(
        "  {workload:<20} {name:<32} {:>14} {:>14} {unit:<5} {:>6.2} % (bound {:.0} %) {verdict}",
        show(x),
        show(y),
        diff * 100.0,
        bound * 100.0
    );
    (diff > bound).then(|| format!("{workload}: {name} differs by {:.1} %", diff * 100.0))
}

/// `--check`: the end-to-end pairs of two sets that differ by more than the
/// metric's bound, and TCP workloads whose syscalls per op (a count, which
/// should repeat) differ by more than 1 %.
fn disagreements(
    a: &BTreeMap<String, WorkloadRun>,
    b: &BTreeMap<String, WorkloadRun>,
) -> Vec<String> {
    const SYSCALLS: &str = "transport.wire.syscalls_per_op";
    let mut bad = Vec::new();
    println!("== check: set 1 vs set 2");
    for w in WORKLOADS {
        let (ra, rb) = (&a[w.name], &b[w.name]);
        for m in END_TO_END {
            match (ra.stat(m.name), rb.stat(m.name)) {
                (Some(x), Some(y)) => bad.extend(compare(
                    w.name,
                    m.name,
                    m.unit,
                    m.bound,
                    x.quiet(m),
                    y.quiet(m),
                )),
                _ => bad.push(format!("{}: {} missing", w.name, m.name)),
            }
        }
        if w.tcp {
            match (ra.stat(SYSCALLS), rb.stat(SYSCALLS)) {
                (Some(x), Some(y)) => {
                    bad.extend(compare(w.name, SYSCALLS, "count", 0.01, x.median, y.median))
                }
                _ => bad.push(format!("{}: {SYSCALLS} missing", w.name)),
            }
        }
    }
    bad
}

/// Every workload, every metric by name with its unit; `--smoke` shrinks it
/// to one short trial, `--check` runs it twice and compares.
pub fn suite(seed: u64, seconds: Option<f64>, smoke: bool, check: bool, scrubbed: usize) -> i32 {
    let ctx = Ctx::new();
    let plan = if smoke {
        Plan::new(seed, 0.2, 1, true)
    } else {
        let run_secs = seconds.unwrap_or(crate::metrics::RUN_SECONDS as f64);
        Plan::new(seed, run_secs / TRIALS as f64, TRIALS, true)
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    print_header(&ctx, &plan, names.len(), scrubbed);
    let mut failed_total = 0;
    let mut missing = 0;
    let mut sets = Vec::new();
    for set in 0..if check { 2 } else { 1 } {
        if check {
            println!("==== set {} of 2", set + 1);
        }
        let (runs, probes) = run_set(&ctx, &names, &plan);
        for w in &names {
            let run = &runs[*w];
            let layer = run.per_layer(&probes);
            print_end_to_end(w, run);
            print_per_layer(w, run, &layer);
            failed_total += run.tally().1;
            missing += PER_LAYER.len() - layer.len();
            missing += END_TO_END
                .iter()
                .filter(|m| run.stat(m.name).is_none())
                .count();
        }
        sets.push(runs);
    }
    let mut code = 0;
    if failed_total > 0 || missing > 0 {
        println!("FAILED: {failed_total} op(s) failed, {missing} metric(s) missing");
        code = 1;
    }
    if check {
        let bad = disagreements(&sets[0], &sets[1]);
        if bad.is_empty() {
            println!("check passed: two sets of runs of the same code agree within the bounds");
        } else {
            println!("check FAILED:");
            bad.iter().for_each(|b| println!("  {b}"));
            code = 1;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_is_median_min_max() {
        let s = Stat::of(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert_eq!((s.median, s.min, s.max), (5.0, 1.0, 9.0));
        assert_eq!(s.quiet(&END_TO_END[0]), 3.0, "op_p50_us: lower is better");
        assert_eq!(s.quiet(&END_TO_END[1]), 7.0, "ops_per_s: higher is better");
        let one = Stat::of(&[4.0]).unwrap();
        assert_eq!((one.low2, one.high2), (4.0, 4.0));
        assert_eq!(s.spread(), 8.0 / 5.0);
        assert_eq!(Stat::of(&[2.0, 4.0]).unwrap().median, 3.0);
        assert_eq!(Stat::of(&[]), None);
    }

    #[test]
    fn a_lost_child_counts_as_a_failed_attempt() {
        let run = WorkloadRun {
            untraced: vec![vec![("_attempted".into(), 10.0), ("_failed".into(), 0.0)]],
            traced: None,
            lost: 2,
        };
        assert_eq!(run.tally(), (12, 2));
    }
}
