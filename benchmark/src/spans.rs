//! Driver-side tracing: a span around every call the driver makes into the
//! program, recorded from outside it.
//!
//! One op's spans form a tree: the root `op`, under it `post` (the
//! `Comm::i*`/`*_async` calls), `sweep` (one `Stream::progress`, tagged
//! with its rank and whether it made progress) and `take`. When the op
//! ends its tree is folded into self times (a span minus what its children
//! cover) and its spans are kept, up to a cap, for the Chrome trace written
//! at exit. Nothing here allocates while an op runs: both buffers are
//! preallocated.
//!
//! The recorder is thread-local because `async_pingpong_sim` posts from
//! inside futures that a sweep polls; everything runs on the one driver
//! thread. When tracing is off every call is one thread-local flag test.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};

use mpfa::core::wtime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Op,
    Post,
    Sweep,
    Take,
    /// `Stream::async_start` (only `tasks64` starts tasks itself).
    TaskStart,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Post => "post",
            Kind::Sweep => "sweep",
            Kind::Take => "take",
            Kind::TaskStart => "task_start",
        }
    }

    /// The layer a span's time is charged to (the Chrome-trace category).
    fn layer(self) -> &'static str {
        match self {
            Kind::Op => "driver",
            Kind::Post | Kind::Take => "mpi",
            Kind::Sweep | Kind::TaskStart => "core",
        }
    }
}

/// The driver itself, as opposed to a rank, in a span's `rank` field.
pub const DRIVER: usize = usize::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub kind: Kind,
    /// Index of the enclosing span in the same op's list.
    pub parent: u32,
    /// Which op (or window) of the trial this span belongs to.
    pub op: u32,
    pub rank: u16,
    /// Sweeps only: `ProgressOutcome::made_progress()`.
    pub progressed: bool,
    pub t0: f64,
    pub t1: f64,
}

/// Self time of every span: its duration minus the part of it its children
/// cover. `spans` must be in begin order, as the recorder produces them, so
/// that a parent precedes its children and siblings are sorted by start.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0.0f64; spans.len()];
    // Up to where each span's children have covered it so far.
    let mut frontier: Vec<f64> = spans.iter().map(|s| s.t0).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let from = s.t0.max(frontier[p]);
        let to = s.t1.min(spans[p].t1);
        if to > from {
            covered[p] += to - from;
            frontier[p] = to;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.t1 - s.t0) - c)
        .collect()
}

/// What the traced pass reports: seconds and counts summed over its ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Ops covered (a window counts as the messages in it).
    pub ops: u64,
    /// Sum of root span durations.
    pub op_secs: f64,
    /// Self seconds by kind; sweeps split by whether they made progress.
    pub driver_secs: f64,
    pub post_secs: f64,
    pub take_secs: f64,
    pub task_start_secs: f64,
    pub busy_sweep_secs: f64,
    pub idle_sweep_secs: f64,
    pub busy_sweeps: u64,
    pub idle_sweeps: u64,
    /// Spans that did not fit the per-op buffer (their time stays in the
    /// parent's self time).
    pub overflowed: u64,
}

struct Recorder {
    current: Vec<Span>,
    stack: Vec<u32>,
    kept: Vec<Span>,
    op: u32,
    totals: Totals,
}

/// Spans one op may hold (an `allreduce_tcp_512k` op is ~14 ms of sweeps
/// over 8 ranks) and spans kept for the Chrome trace.
const OP_CAP: usize = 1 << 18;
const KEEP_CAP: usize = 20_000;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turn tracing on for this thread and preallocate its buffers.
pub fn enable() {
    RECORDER.with_borrow_mut(|r| {
        *r = Some(Recorder {
            current: Vec::with_capacity(OP_CAP),
            stack: Vec::with_capacity(8),
            kept: Vec::with_capacity(KEEP_CAP),
            op: 0,
            totals: Totals::default(),
        })
    });
    ENABLED.set(true);
}

/// Forget what was recorded so far (the set-up phase and the warm-up).
pub fn reset() {
    RECORDER.with_borrow_mut(|r| {
        if let Some(r) = r.as_mut() {
            r.current.clear();
            r.stack.clear();
            r.kept.clear();
            r.op = 0;
            r.totals = Totals::default();
        }
    });
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Handle of an open span; `u32::MAX` when tracing is off or the buffer is
/// full.
#[derive(Clone, Copy)]
pub struct Open(u32);

#[inline]
pub fn begin(kind: Kind, rank: usize) -> Open {
    if !enabled() {
        return Open(u32::MAX);
    }
    RECORDER.with_borrow_mut(|r| {
        let r = r.as_mut().expect("enabled implies a recorder");
        if r.current.len() == OP_CAP {
            r.totals.overflowed += 1;
            return Open(u32::MAX);
        }
        let idx = r.current.len() as u32;
        r.current.push(Span {
            kind,
            parent: r.stack.last().copied().unwrap_or(NO_PARENT),
            op: r.op,
            rank: rank.min(u16::MAX as usize) as u16,
            progressed: false,
            t0: wtime(),
            t1: 0.0,
        });
        r.stack.push(idx);
        Open(idx)
    })
}

#[inline]
pub fn end(open: Open, progressed: bool) {
    if open.0 == u32::MAX {
        return;
    }
    let t1 = wtime();
    RECORDER.with_borrow_mut(|r| {
        let r = r.as_mut().expect("enabled implies a recorder");
        let popped = r.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must nest");
        let s = &mut r.current[open.0 as usize];
        s.t1 = t1;
        s.progressed = progressed;
    });
}

/// Time `f` as one span.
#[inline]
pub fn span<R>(kind: Kind, rank: usize, f: impl FnOnce() -> R) -> R {
    let open = begin(kind, rank);
    let out = f();
    end(open, false);
    out
}

/// Close the root span opened with `begin(Kind::Op, DRIVER)` and fold the
/// op's tree into the totals. `ops` is how many ops the root covered.
pub fn end_op(root: Open, ops: u64) {
    if !enabled() {
        return;
    }
    end(root, false);
    RECORDER.with_borrow_mut(|r| {
        let r = r.as_mut().expect("enabled implies a recorder");
        let selfs = self_times(&r.current);
        let t = &mut r.totals;
        t.ops += ops;
        for (s, own) in r.current.iter().zip(selfs) {
            match (s.kind, s.progressed) {
                (Kind::Op, _) => {
                    t.op_secs += s.t1 - s.t0;
                    t.driver_secs += own;
                }
                (Kind::Post, _) => t.post_secs += own,
                (Kind::Take, _) => t.take_secs += own,
                (Kind::TaskStart, _) => t.task_start_secs += own,
                (Kind::Sweep, true) => {
                    t.busy_sweep_secs += own;
                    t.busy_sweeps += 1;
                }
                (Kind::Sweep, false) => {
                    t.idle_sweep_secs += own;
                    t.idle_sweeps += 1;
                }
            }
        }
        let room = KEEP_CAP - r.kept.len();
        let take = room.min(r.current.len());
        r.kept.extend_from_slice(&r.current[..take]);
        r.current.clear();
        r.stack.clear();
        r.op += 1;
    });
}

pub fn totals() -> Totals {
    RECORDER.with_borrow(|r| r.as_ref().map(|r| r.totals.clone()).unwrap_or_default())
}

/// Write the kept spans as Chrome-trace JSON (open in Perfetto or
/// `chrome://tracing`): one track per rank plus one for the driver.
pub fn write_chrome(path: &std::path::Path, workload: &str) -> io::Result<usize> {
    RECORDER.with_borrow(|r| {
        let kept: &[Span] = r.as_ref().map(|r| r.kept.as_slice()).unwrap_or(&[]);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write_chrome_to(&mut out, kept, workload)?;
        out.flush()?;
        Ok(kept.len())
    })
}

const DRIVER_TID: u32 = 999;

fn tid(rank: u16) -> u32 {
    if rank == u16::MAX {
        DRIVER_TID
    } else {
        rank as u32
    }
}

fn write_chrome_to(out: &mut impl Write, spans: &[Span], workload: &str) -> io::Result<()> {
    let epoch = spans.first().map_or(0.0, |s| s.t0);
    write!(out, "{{\"traceEvents\":[")?;
    write!(
        out,
        "{{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{workload}\"}}}}"
    )?;
    let mut tids: Vec<u16> = spans.iter().map(|s| s.rank).collect();
    tids.sort_unstable();
    tids.dedup();
    for rank in tids {
        let label = if rank == u16::MAX {
            "driver".to_string()
        } else {
            format!("rank {rank}")
        };
        write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}}",
            tid(rank)
        )?;
    }
    for s in spans {
        write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"progress\":{}}}}}",
            tid(s.rank),
            s.kind.name(),
            s.kind.layer(),
            (s.t0 - epoch) * 1e6,
            (s.t1 - s.t0) * 1e6,
            s.op,
            s.progressed
        )?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(kind: Kind, parent: u32, t0: f64, t1: f64) -> Span {
        Span {
            kind,
            parent,
            op: 0,
            rank: 0,
            progressed: false,
            t0,
            t1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        // op [0,100]
        //   post  [5,15]
        //   sweep [20,60]
        //     post [30,40]          (nested, as in async_pingpong_sim)
        //     post [35,50]          (overlaps its sibling: covered once)
        //   take  [90,120]          (runs past the parent: clipped)
        let spans = [
            sp(Kind::Op, NO_PARENT, 0.0, 100.0),
            sp(Kind::Post, 0, 5.0, 15.0),
            sp(Kind::Sweep, 0, 20.0, 60.0),
            sp(Kind::Post, 2, 30.0, 40.0),
            sp(Kind::Post, 2, 35.0, 50.0),
            sp(Kind::Take, 0, 90.0, 120.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100.0 - (10.0 + 40.0 + 10.0));
        assert_eq!(own[1], 10.0);
        assert_eq!(own[2], 40.0 - 20.0);
        assert_eq!(own[3], 10.0);
        assert_eq!(own[4], 15.0);
        assert_eq!(own[5], 30.0);
    }

    #[test]
    fn recorder_folds_an_op_and_writes_a_trace() {
        enable();
        let root = begin(Kind::Op, DRIVER);
        span(Kind::Post, 0, || ());
        let s = begin(Kind::Sweep, 1);
        span(Kind::Post, 1, || ());
        end(s, true);
        let s = begin(Kind::Sweep, 0);
        end(s, false);
        end_op(root, 4);
        let t = totals();
        assert_eq!((t.ops, t.busy_sweeps, t.idle_sweeps), (4, 1, 1));
        let parts = t.driver_secs
            + t.post_secs
            + t.take_secs
            + t.task_start_secs
            + t.busy_sweep_secs
            + t.idle_sweep_secs;
        assert!(
            (parts - t.op_secs).abs() < 1e-9,
            "self times partition the op"
        );

        let mut buf = Vec::new();
        RECORDER
            .with_borrow(|r| write_chrome_to(&mut buf, &r.as_ref().unwrap().kept, "unit").unwrap());
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 5);
        assert!(text.contains("\"name\":\"driver\"") && text.contains("\"name\":\"rank 1\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        // Tests run on their own threads, so this one never enabled it.
        let root = begin(Kind::Op, DRIVER);
        end_op(root, 1);
        assert_eq!(totals(), Totals::default());
    }
}
