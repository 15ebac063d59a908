//! The Section 3.5 programming scheme: a progress engine decoupled from
//! task contexts.
//!
//! A [`ProgressEngine`] is a dedicated thread spinning
//! `MPIX_Stream_progress` on one stream. Tasks initiate operations and
//! synchronize on them with `MPIX_Request_is_complete` — never invoking
//! progress themselves — so "the additional latency that may occur from
//! synchronizing request objects between tasks and the progress engine is
//! avoided".
//!
//! Contrast with `mpfa_baselines::GlobalProgressThread`: that baseline
//! spins the *same* stream the application's blocking calls use, paying
//! lock contention (the paper's Section 5.1 critique); a `ProgressEngine`
//! on a dedicated stream contends with nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use mpfa_core::{Request, Status, Stream};

use crate::callbacks::CompletionNotifier;

/// A dedicated progress thread over one stream, with an attached
/// completion notifier for event-driven reactions.
pub struct ProgressEngine {
    stream: Stream,
    notifier: CompletionNotifier,
    shutdown: Arc<AtomicBool>,
    iterations: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl ProgressEngine {
    /// Spawn the engine thread for `stream`.
    pub fn spawn(stream: Stream) -> ProgressEngine {
        let shutdown = Arc::new(AtomicBool::new(false));
        let iterations = Arc::new(AtomicU64::new(0));
        let notifier = CompletionNotifier::new(&stream);
        let thread = {
            let stream = stream.clone();
            let shutdown = shutdown.clone();
            let iterations = iterations.clone();
            std::thread::Builder::new()
                .name("mpfa-progress".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        stream.progress();
                        iterations.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .expect("spawn progress thread")
        };
        ProgressEngine {
            stream,
            notifier,
            shutdown,
            iterations,
            thread: Some(thread),
        }
    }

    /// The stream this engine drives.
    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// Progress iterations completed so far (diagnostics).
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Register a completion callback (fires on the engine thread).
    pub fn on_complete(&self, req: Request, cb: impl FnOnce(Status) + Send + 'static) {
        self.notifier.watch(req, cb);
    }

    /// Busy-wait (without invoking progress — the engine does that) until
    /// `req` completes. This is a task-side wait block in the §3.5 scheme.
    pub fn await_request(&self, req: &Request) -> Status {
        while !req.is_complete() {
            std::hint::spin_loop();
        }
        req.status().expect("complete")
    }

    /// Stop and join the engine thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.join().expect("progress thread panicked");
        }
    }
}

impl Drop for ProgressEngine {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_core::{wtime, AsyncPoll, CompletionCounter};

    #[test]
    fn engine_drives_async_tasks_without_caller_progress() {
        let stream = Stream::create();
        let engine = ProgressEngine::spawn(stream.clone());
        let done = CompletionCounter::new(1);
        let d = done.clone();
        let deadline = wtime() + 0.002;
        stream.async_start(move |_t| {
            if wtime() >= deadline {
                d.done();
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        // The caller never calls progress; the engine thread must finish it.
        let t0 = wtime();
        while !done.is_zero() {
            assert!(wtime() - t0 < 5.0, "engine failed to drive task");
            std::hint::spin_loop();
        }
        // The engine thread counts a sweep only after `progress` returns,
        // so the sweep that finished the task may not be counted yet.
        while engine.iterations() == 0 {
            assert!(wtime() - t0 < 5.0, "engine never finished a sweep");
            std::hint::spin_loop();
        }
        engine.stop();
    }

    #[test]
    fn await_request_spins_without_progress() {
        let stream = Stream::create();
        let engine = ProgressEngine::spawn(stream.clone());
        let (req, completer) = Request::pair(&stream);
        let deadline = wtime() + 0.002;
        let mut completer = Some(completer);
        stream.async_start(move |_t| {
            if wtime() >= deadline {
                completer.take().expect("once").complete_empty();
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        let calls_before = stream.progress_calls();
        let status = engine.await_request(&req);
        assert!(!status.cancelled);
        // All progress came from the engine thread; await_request made
        // no progress calls of its own (we can't assert exact counts, but
        // the engine must have been spinning).
        assert!(stream.progress_calls() > calls_before);
        engine.stop();
    }

    #[test]
    fn on_complete_fires_on_engine_thread() {
        let stream = Stream::create();
        let engine = ProgressEngine::spawn(stream.clone());
        let (req, completer) = Request::pair(&stream);
        let fired = CompletionCounter::new(1);
        let f = fired.clone();
        engine.on_complete(req, move |_| f.done());
        completer.complete_empty();
        let t0 = wtime();
        while !fired.is_zero() {
            assert!(wtime() - t0 < 5.0, "callback never fired");
            std::hint::spin_loop();
        }
        engine.stop();
    }

    #[test]
    fn drop_stops_engine() {
        let stream = Stream::create();
        {
            let _engine = ProgressEngine::spawn(stream.clone());
        }
        // Dropped without stop(): thread must have exited (no hang).
    }
}
