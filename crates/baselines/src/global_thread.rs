//! The MPICH `MPIR_CVAR_ASYNC_PROGRESS` baseline (paper Section 5.1).
//!
//! A dedicated thread busy-polls progress on the application's own stream.
//! "Because the async progress thread constantly tries to make progress on
//! operations, it creates latency overhead for all MPI calls due to lock
//! contention" — every application-side progress call (blocking waits,
//! tests, sends on the same stream) now fights this thread for the stream
//! engine lock. The A3 ablation bench quantifies the damage against
//! explicit per-context `MPIX_Stream_progress`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use mpfa_core::Stream;

/// A busy-polling global async-progress thread.
pub struct GlobalProgressThread {
    shutdown: Arc<AtomicBool>,
    iterations: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl GlobalProgressThread {
    /// Enable "async progress" on `stream` — typically the application's
    /// default stream, which is precisely what makes this a bad idea.
    pub fn enable(stream: &Stream) -> GlobalProgressThread {
        let shutdown = Arc::new(AtomicBool::new(false));
        let iterations = Arc::new(AtomicU64::new(0));
        let thread = {
            let stream = stream.clone();
            let shutdown = shutdown.clone();
            let iterations = iterations.clone();
            std::thread::Builder::new()
                .name("async-progress".into())
                .spawn(move || {
                    // The MPICH baseline: an unconditional busy loop. No
                    // yielding, no backoff — maximum contention.
                    while !shutdown.load(Ordering::Acquire) {
                        stream.progress();
                        iterations.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .expect("spawn async progress thread")
        };
        GlobalProgressThread {
            shutdown,
            iterations,
            thread: Some(thread),
        }
    }

    /// Progress-loop iterations so far.
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Disable async progress (join the thread).
    pub fn disable(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.join().expect("async progress thread panicked");
        }
    }
}

impl Drop for GlobalProgressThread {
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
    fn background_thread_completes_tasks() {
        let stream = Stream::create();
        let bg = GlobalProgressThread::enable(&stream);
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
        let t0 = wtime();
        while !done.is_zero() {
            assert!(wtime() - t0 < 5.0);
            std::hint::spin_loop();
        }
        // The thread counts a sweep only after `progress` returns, so the
        // sweep that finished the task may not be counted yet.
        while bg.iterations() == 0 {
            assert!(wtime() - t0 < 5.0, "thread never finished a sweep");
            std::hint::spin_loop();
        }
        bg.disable();
    }

    #[test]
    fn main_thread_contends_with_background() {
        // Both the baseline thread and the "application" call progress on
        // the same stream; correctness must hold under the contention.
        let stream = Stream::create();
        let bg = GlobalProgressThread::enable(&stream);
        let done = CompletionCounter::new(100);
        for _ in 0..100 {
            let d = done.clone();
            let deadline = wtime() + 0.001;
            stream.async_start(move |_t| {
                if wtime() >= deadline {
                    d.done();
                    AsyncPoll::Done
                } else {
                    AsyncPoll::Pending
                }
            });
        }
        assert!(stream.progress_until(|| done.is_zero(), 5.0));
        bg.disable();
    }

    #[test]
    fn drop_without_disable_joins() {
        let stream = Stream::create();
        {
            let _bg = GlobalProgressThread::enable(&stream);
        }
    }
}
