//! The mpfa benchmark: seven single-driver workloads, five end-to-end
//! metrics, a per-layer ledger. See `README.md` beside this crate.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! run.sh [--seed N] [--smoke] [--check]                  every workload, every metric
//! ```

mod hist;
mod inputs;
mod json;
mod metrics;
mod probes;
mod runner;
mod spans;
mod trial;
mod workloads;

use std::path::{Path, PathBuf};

pub use metrics::WORKLOADS;

const USAGE: &str =
    "usage: run.sh [--workload NAME --seconds S --trace 0|1] [--seed N] [--smoke] [--check]";

/// Where traces go. `run.sh` also points `TMPDIR` (where the shm transport
/// puts its segment files) at `out/tmp`, so nothing is written outside the
/// checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn fail(msg: &str) -> ! {
    eprintln!("mpfa-benchmark: {msg}\n{USAGE}");
    std::process::exit(2);
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    warmup: Option<f64>,
    trace: bool,
    smoke: bool,
    check: bool,
    child: Option<String>,
}

fn parse_args() -> Args {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| fail("bad --seed")),
            "--seconds" => {
                a.seconds = Some(value().parse().unwrap_or_else(|_| fail("bad --seconds")))
            }
            "--warmup" => a.warmup = Some(value().parse().unwrap_or_else(|_| fail("bad --warmup"))),
            "--trace" => a.trace = value() == "1",
            "--smoke" => a.smoke = true,
            "--check" => a.check = true,
            "--child" => a.child = Some(value()),
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if metrics::workload(w).is_none() {
            fail(&format!("unknown workload {w}"));
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        fail("--seconds must be in (0, 60]");
    }
    a
}

fn main() {
    let args = parse_args();

    // A child: one trial (or the probes), one flat JSON line.
    if let Some(kind) = &args.child {
        let pairs = match kind.as_str() {
            "probes" => probes::run(),
            "trial" => trial::run(&trial::TrialCfg {
                workload: args
                    .workload
                    .clone()
                    .unwrap_or_else(|| fail("--child trial needs --workload")),
                seed: args.seed,
                secs: args
                    .seconds
                    .unwrap_or_else(|| fail("--child trial needs --seconds")),
                warmup: args.warmup.unwrap_or(0.0),
                traced: args.trace,
            }),
            other => fail(&format!("unknown child kind {other}")),
        };
        println!("{}", json::flat(&pairs).render());
        return;
    }

    let scrubbed = runner::scrub_env();
    let code = match &args.workload {
        Some(w) => {
            let seconds = args.seconds.unwrap_or(metrics::RUN_SECONDS as f64);
            runner::single(w, args.seed, seconds, args.trace, scrubbed)
        }
        None => runner::suite(args.seed, args.seconds, args.smoke, args.check, scrubbed),
    };
    std::process::exit(code);
}
