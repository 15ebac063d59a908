//! A minimal async executor that runs as one `MPIX_Async` task.
//!
//! No threads, no tokio: the executor's "event loop" is the stream's own
//! progress sweep. Spawned futures are polled inside the sweep by a
//! single pump task, and only when their waker fired (a request they
//! await completed) — so a task awaiting a 64-request fan-in costs the
//! engine nothing between completions, unlike a scan-based wait loop.
//!
//! Because task polls run inside the sweep, a spawned future must obey
//! the paper's poll-function rule: never invoke progress recursively.
//! `.await` requests; don't call `wait()`/`recv()`/`progress()` from
//! inside a spawned task (the re-entry guard would poison the pump).

use std::collections::HashMap;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

use mpfa_core::sync::{InjectQueue, Mutex};
use mpfa_core::task::AsyncPoll;
use mpfa_core::{Request, Stream};

type BoxFut = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Where a task's future currently lives. `Polling` marks it as checked
/// out by the pump; a waker firing meanwhile records `Woken` so the pump
/// re-queues the task instead of losing the wakeup.
enum Slot {
    Idle(BoxFut),
    Polling,
    Woken,
}

struct TaskEntry {
    slot: Slot,
    /// The task's completion request (what `JoinHandle` waits on, and
    /// what the `block_on` fallback path feeds to `wait_some`).
    req: Request,
}

struct ExecInner {
    stream: Stream,
    tasks: Mutex<HashMap<u64, TaskEntry>>,
    /// Task ids whose waker fired; drained by the pump each sweep.
    ready: InjectQueue<u64>,
    /// Accepting new tasks (false once shut down).
    open: AtomicBool,
    /// True while a pump task is registered on the stream.
    pump_live: AtomicBool,
    next_id: AtomicU64,
}

/// Per-task waker: firing queues the task id for the next pump run.
struct TaskWaker {
    id: u64,
    exec: Weak<ExecInner>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        let Some(exec) = self.exec.upgrade() else {
            return;
        };
        let requeue = {
            let mut tasks = exec.tasks.lock();
            match tasks.get_mut(&self.id) {
                // Completion raced with the pump mid-poll: leave a note;
                // the pump re-queues the task when it puts the future
                // back. Never lose a wakeup.
                Some(entry) if matches!(entry.slot, Slot::Polling) => {
                    entry.slot = Slot::Woken;
                    false
                }
                Some(_) => true,
                // Task already finished; nothing to wake.
                None => false,
            }
        };
        if requeue {
            exec.ready.push(self.id);
        }
    }
}

impl ExecInner {
    /// One pump run: poll every task whose waker fired. Runs inside the
    /// progress sweep (engine lock held), like any `MPIX_Async` task.
    fn pump(self: &Arc<Self>) -> AsyncPoll {
        let mut polled = false;
        while let Some(id) = self.ready.pop() {
            let fut = {
                let mut tasks = self.tasks.lock();
                match tasks.get_mut(&id) {
                    Some(entry) => match std::mem::replace(&mut entry.slot, Slot::Polling) {
                        Slot::Idle(f) => Some(f),
                        // A duplicate queue entry; the task is already
                        // being polled or re-queued. Restore and skip.
                        other => {
                            entry.slot = other;
                            None
                        }
                    },
                    None => None,
                }
            };
            let Some(mut fut) = fut else {
                continue;
            };
            polled = true;
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                exec: Arc::downgrade(self),
            }));
            let mut cx = Context::from_waker(&waker);
            // Isolate panicking tasks like the engine isolates poisoned
            // polls: the future is dropped (its completer fires the
            // task request as cancelled) and the executor keeps running.
            let poll = std::panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
            match poll {
                Ok(Poll::Ready(())) | Err(_) => {
                    self.tasks.lock().remove(&id);
                }
                Ok(Poll::Pending) => {
                    let rearm = {
                        let mut tasks = self.tasks.lock();
                        let entry = tasks.get_mut(&id).expect("polling entry");
                        let woken = matches!(entry.slot, Slot::Woken);
                        entry.slot = Slot::Idle(fut);
                        woken
                    };
                    if rearm {
                        self.ready.push(id);
                    }
                }
            }
        }
        if self.tasks.lock().is_empty() {
            // Idle: retire the pump so a drained stream reports no
            // pending tasks. A racing spawn re-claims `pump_live` (or we
            // do, if its insert landed between our check and the store).
            self.pump_live.store(false, Ordering::Release);
            if !self.tasks.lock().is_empty() && !self.pump_live.swap(true, Ordering::AcqRel) {
                return AsyncPoll::Pending;
            }
            return AsyncPoll::Done;
        }
        if polled {
            AsyncPoll::Progress
        } else {
            AsyncPoll::Pending
        }
    }
}

/// A handle to a spawned task: await it, `join` it, or drop it to detach
/// (the task keeps running on the stream; its output is discarded).
pub struct JoinHandle<T> {
    req: Request,
    out: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// The task's completion request (usable with the whole
    /// waitany/waitsome/continuation toolbox).
    pub fn request(&self) -> Request {
        self.req.clone()
    }

    /// True once the task ran to completion (or panicked).
    pub fn is_finished(&self) -> bool {
        self.req.is_complete()
    }

    /// Block until the task finishes and return its output, driving the
    /// executor's stream.
    ///
    /// # Panics
    /// Panics if the task panicked or was discarded before producing its
    /// output.
    pub fn join(self) -> T {
        let _ = self.req.wait();
        self.out
            .lock()
            .take()
            .expect("executor task panicked or was dropped before completing")
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match Pin::new(&mut this.req).poll(cx) {
            Poll::Ready(_) => Poll::Ready(
                this.out
                    .lock()
                    .take()
                    .expect("executor task panicked or was dropped before completing"),
            ),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// A minimal async executor bound to a [`Stream`].
///
/// Cheap to clone (shared handle). The executor registers one `MPIX_Async`
/// pump task on the stream while it has live tasks and retires it when
/// idle, so an idle executor costs the sweep nothing.
///
/// Dropping the executor (or calling [`Executor::close`]) stops new
/// spawns; tasks already in flight keep running on the stream until they
/// finish. See `docs/ASYNC.md` for the cancellation rules.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<ExecInner>,
}

impl Executor {
    /// An executor running its tasks on `stream`.
    pub fn new(stream: &Stream) -> Executor {
        Executor {
            inner: Arc::new(ExecInner {
                stream: stream.clone(),
                tasks: Mutex::new(HashMap::new()),
                ready: InjectQueue::new(),
                open: AtomicBool::new(true),
                pump_live: AtomicBool::new(false),
                next_id: AtomicU64::new(1),
            }),
        }
    }

    /// The stream this executor's tasks run on.
    pub fn stream(&self) -> &Stream {
        &self.inner.stream
    }

    /// Spawn a future; it is first polled on the stream's next progress
    /// sweep.
    ///
    /// # Panics
    /// Panics if the executor was closed.
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        assert!(
            self.inner.open.load(Ordering::Acquire),
            "spawn on a closed executor"
        );
        let (req, completer) = Request::pair(&self.inner.stream);
        let out = Arc::new(Mutex::new(None));
        let out2 = out.clone();
        let wrapped: BoxFut = Box::pin(async move {
            let value = fut.await;
            *out2.lock() = Some(value);
            completer.complete_empty();
        });
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.tasks.lock().insert(
            id,
            TaskEntry {
                slot: Slot::Idle(wrapped),
                req: req.clone(),
            },
        );
        self.inner.ready.push(id);
        self.ensure_pump();
        JoinHandle { req, out }
    }

    /// Run a future to completion on this executor, blocking the calling
    /// thread. The fallback wait path is `MPI_Waitsome` over the live
    /// task set: each round drives the stream until at least one
    /// executor task completes, then re-checks the root — no busy-wait
    /// between completions, and sibling completions are harvested in
    /// batches.
    pub fn block_on<F, T>(&self, fut: F) -> T
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        let handle = self.spawn(fut);
        let root = handle.request();
        while !root.is_complete() {
            let pending = self.task_requests();
            if pending.is_empty() {
                // The root's entry is removed only after its future
                // completed the request; an empty set means we're done.
                continue;
            }
            let _ = Request::wait_some(&pending);
        }
        handle.join()
    }

    /// Completion requests of every task currently in flight.
    pub(crate) fn task_requests(&self) -> Vec<Request> {
        self.inner
            .tasks
            .lock()
            .values()
            .map(|e| e.req.clone())
            .collect()
    }

    /// Tasks spawned and not yet finished.
    pub fn task_count(&self) -> usize {
        self.inner.tasks.lock().len()
    }

    /// Stop accepting spawns. In-flight tasks keep running.
    pub fn close(&self) {
        self.inner.open.store(false, Ordering::Release);
    }

    /// Close and drive the stream until every task finished or
    /// `timeout_s` elapsed; true if fully drained. The wait path is
    /// `wait_some` over the remaining task requests.
    pub fn shutdown(&self, timeout_s: f64) -> bool {
        self.close();
        let deadline = mpfa_core::wtime() + timeout_s;
        loop {
            let pending = self.task_requests();
            if pending.is_empty() {
                return true;
            }
            if mpfa_core::wtime() >= deadline {
                return false;
            }
            let _ = Request::wait_some(&pending);
        }
    }

    /// Register the pump task if none is live.
    fn ensure_pump(&self) {
        if self.inner.pump_live.swap(true, Ordering::AcqRel) {
            return;
        }
        let inner = self.inner.clone();
        self.inner.stream.async_start(move |_t| inner.pump());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::join_all;
    use mpfa_core::{RequestError, Status};
    use std::sync::atomic::AtomicUsize;

    fn delayed(s: &Stream, polls: u32) -> Request {
        let (req, completer) = Request::pair(s);
        let mut left = polls;
        let mut completer = Some(completer);
        s.async_start(move |_t| {
            left -= 1;
            if left == 0 {
                completer.take().expect("once").complete_empty();
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        req
    }

    #[test]
    fn spawn_and_join() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let req = delayed(&s, 3);
        let h = ex.spawn(async move { req.await.map(|st| st.cancelled) });
        assert_eq!(h.join(), Ok(false));
        assert_eq!(ex.task_count(), 0);
    }

    #[test]
    fn block_on_uses_waitsome_fallback() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let req = delayed(&s, 5);
        let out = ex.block_on(async move { req.await.expect("ok").source });
        assert_eq!(out, -1);
    }

    #[test]
    fn single_task_awaits_irregular_fanin() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let reqs: Vec<Request> = (1..=16).map(|i| delayed(&s, i)).collect();
        let results = ex.block_on(async move { join_all(reqs).await });
        assert_eq!(results.len(), 16);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let ex2 = ex.clone();
        let h = ex.spawn(async move {
            let inner = ex2.spawn(async { 21 });
            inner.await * 2
        });
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn pump_retires_when_idle_and_restarts() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let h = ex.spawn(async { 1 });
        assert_eq!(h.join(), 1);
        assert!(s.drain(1.0), "idle executor leaves no pending task");
        assert_eq!(s.pending_tasks(), 0);
        // A later spawn re-registers the pump.
        let h = ex.spawn(async { 2 });
        assert_eq!(h.join(), 2);
        assert!(s.drain(1.0));
    }

    #[test]
    fn panicking_task_is_isolated() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let bad: JoinHandle<()> = ex.spawn(async { panic!("task boom") });
        let good = ex.spawn(async { 7 });
        assert_eq!(good.join(), 7);
        // The panicked task's request completed (cancelled), so waiting
        // on it terminates rather than hanging.
        assert_eq!(bad.request().wait_result(), Ok(Status::cancelled()));
        assert!(bad.is_finished());
        assert_eq!(ex.task_count(), 0);
    }

    #[test]
    fn failed_request_error_reaches_the_task() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let (req, c) = Request::pair(&s);
        let h = ex.spawn(req);
        c.fail(RequestError::PeerFailed { rank: 2 });
        assert_eq!(h.join(), Err(RequestError::PeerFailed { rank: 2 }));
    }

    #[test]
    fn shutdown_drains_in_flight_tasks() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 1..=8 {
            let req = delayed(&s, i);
            let d = done.clone();
            ex.spawn(async move {
                let _ = req.await;
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert!(ex.shutdown(5.0));
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert_eq!(ex.task_count(), 0);
    }

    #[test]
    #[should_panic(expected = "closed executor")]
    fn spawn_after_close_panics() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        ex.close();
        drop(ex.spawn(async {}));
    }

    #[test]
    fn cross_thread_completion_wakes_task() {
        let s = Stream::create();
        let ex = Executor::new(&s);
        let (req, c) = Request::pair(&s);
        let h = ex.spawn(async move { req.await.expect("ok").source });
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            c.complete(Status {
                source: 3,
                tag: 0,
                bytes: 0,
                cancelled: false,
            });
        });
        assert_eq!(h.join(), 3);
        t.join().unwrap();
    }
}
