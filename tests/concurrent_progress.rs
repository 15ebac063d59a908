//! Concurrency stress tests for the combining engine lock: many threads
//! hammering `Stream::progress` / `try_progress` on ONE stream while
//! tasks complete and new tasks are injected. Every completion must be
//! observed exactly once and the pending count must settle to zero —
//! regardless of whether a caller swept the engine itself, was absorbed
//! by the lock holder (flat combining), or bounced off `try_progress`.
//!
//! Task deadlines run on the DST **virtual clock** (`mpfa::dst::
//! virtual_time`): the main thread advances time deterministically while
//! the workers hammer the lock, so a slow CI machine changes nothing —
//! there is no wall-clock window to miss.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use mpfa::core::{wtime, AsyncPoll, AsyncThing, Stream};

/// Start `n` tasks that complete at staggered (virtual) deadlines within
/// `spread_s` seconds, each bumping `done` exactly once.
fn start_timed_tasks(stream: &Stream, n: usize, spread_s: f64, done: &Arc<AtomicUsize>) {
    for i in 0..n {
        let d = done.clone();
        let deadline = wtime() + spread_s * (i + 1) as f64 / n as f64;
        stream.async_start(move |_t: &mut AsyncThing| {
            if wtime() >= deadline {
                d.fetch_add(1, Ordering::Relaxed);
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
    }
}

#[test]
fn mixed_progress_and_try_progress_lose_no_completions() {
    let clk = mpfa::dst::virtual_time(0.0);
    let stream = Stream::create();
    let n = 256;
    let done = Arc::new(AtomicUsize::new(0));
    start_timed_tasks(&stream, n, 0.02, &done);
    assert_eq!(stream.pending_tasks(), n);

    std::thread::scope(|scope| {
        for worker in 0..8 {
            let stream = stream.clone();
            scope.spawn(move || {
                while stream.pending_tasks() > 0 {
                    if worker % 2 == 0 {
                        stream.progress();
                    } else {
                        // try_progress may bounce off the lock; that must
                        // only ever skip work, never lose it.
                        let _ = stream.try_progress();
                    }
                }
            });
        }
        // Walk virtual time across every deadline while the workers
        // fight over the engine; they exit once everything completed.
        while stream.pending_tasks() > 0 {
            clk.advance(1e-3);
            std::thread::yield_now();
        }
    });

    assert_eq!(done.load(Ordering::Relaxed), n, "completions lost");
    assert_eq!(stream.pending_tasks(), 0, "pending did not settle");
}

#[test]
fn injection_races_with_contended_pollers() {
    // Tasks are injected continuously while 4 threads fight over the
    // engine lock: the combining protocol must keep draining the inject
    // queue (a combined waiter's task was possibly added after the
    // holder's own drain). A fixed batch count (not a wall-clock window)
    // bounds the feeder, so machine speed changes contention, not
    // correctness conditions.
    let clk = mpfa::dst::virtual_time(0.0);
    let stream = Stream::create();
    let done = Arc::new(AtomicUsize::new(0));
    let stop_feeding = Arc::new(AtomicBool::new(false));
    let injected = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        {
            let stream = stream.clone();
            let done = done.clone();
            let stop = stop_feeding.clone();
            let injected = injected.clone();
            scope.spawn(move || {
                for _ in 0..64 {
                    let batch = 16;
                    start_timed_tasks(&stream, batch, 0.001, &done);
                    injected.fetch_add(batch, Ordering::Relaxed);
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Release);
            });
        }
        for _ in 0..4 {
            let stream = stream.clone();
            let stop = stop_feeding.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) || stream.pending_tasks() > 0 {
                    stream.progress();
                }
            });
        }
        while !stop_feeding.load(Ordering::Acquire) || stream.pending_tasks() > 0 {
            clk.advance(5e-4);
            std::thread::yield_now();
        }
    });

    let total = injected.load(Ordering::Relaxed);
    assert!(total > 0, "feeder never ran");
    assert_eq!(done.load(Ordering::Relaxed), total, "completions lost");
    assert_eq!(stream.pending_tasks(), 0);
}

#[test]
fn combined_waiters_report_sweeps_that_ran_for_them() {
    // A stream whose sweeps always make progress (one self-rearming task):
    // every progress() return — direct, taken-over, or combined — must
    // still leave the stream functional, and total progress_calls must
    // cover at least every non-combined sweep. Smoke-checks the outcome
    // plumbing rather than exact counts (scheduling dependent).
    let clk = mpfa::dst::virtual_time(0.0);
    let stream = Stream::create();
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = stop.clone();
        stream.async_start(move |_t: &mut AsyncThing| {
            if stop.load(Ordering::Acquire) {
                AsyncPoll::Done
            } else {
                AsyncPoll::Progress
            }
        });
    }
    let sweeps_observed = Arc::new(AtomicUsize::new(0));
    // One shared virtual deadline for every worker (computing it inside
    // each thread would race the advancing clock: a late starter's window
    // could outlive the main thread's advance loop and spin forever).
    let t_end = 0.02;
    // Every worker is running before the first advance, so none can find
    // the window already closed.
    let start = Barrier::new(5);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let stream = stream.clone();
            let sweeps = sweeps_observed.clone();
            let start = &start;
            scope.spawn(move || {
                start.wait();
                // Virtual window: ends when the main thread has advanced
                // the clock far enough, not when a wall timer expires.
                while wtime() < t_end {
                    let out = stream.progress();
                    if out.made_progress() {
                        sweeps.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        start.wait();
        while clk.now() < t_end {
            clk.advance(1e-3);
            std::thread::yield_now();
        }
    });
    stop.store(true, Ordering::Release);
    // The rearming task retires on its first post-stop poll; no timeout
    // needed (the clock is still frozen at whatever we advanced to).
    assert!(stream.drain(5.0));
    assert!(
        sweeps_observed.load(Ordering::Relaxed) > 0,
        "no caller ever observed progress"
    );
    assert!(stream.progress_calls() > 0);
}
