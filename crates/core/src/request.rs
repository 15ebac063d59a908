//! Request objects with side-effect-free completion queries — the
//! `MPIX_Request_is_complete` extension (paper Section 3.4).
//!
//! A [`Request`] is the user-visible completion handle of an asynchronous
//! operation; the runtime completes it through the paired [`Completer`].
//! [`Request::is_complete`] is a single atomic load — "there are no side
//! effects that would interfere with other requests or other progress
//! calls" — which makes it safe (and cheap) to call from inside `MPIX_Async`
//! poll functions, where invoking progress recursively is prohibited.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::sync::Mutex;

use crate::stream::{Stream, StreamRef};
use crate::wtime::wtime;

/// A completion callback attached with [`Request::on_complete`] — the
/// `MPIX_Continue` continuation shape: it receives the request's outcome
/// (`Ok(status)` or `Err(error)`) exactly once.
pub type Continuation = Box<dyn FnOnce(Result<Status, RequestError>) + Send>;

/// State of a request's continuation slot. `Fired` means the completion
/// already dispatched earlier continuations; anything attached afterwards
/// dispatches immediately. The transition happens exactly once, under the
/// slot's lock, which is what makes every continuation fire exactly once
/// even when attach races completion (or a grequest drop).
enum ContSlot {
    Pending(Vec<Continuation>),
    Fired,
}

/// Route one continuation toward execution: enqueue on the bound stream's
/// deferred-execution list (drained after the progress sweep releases the
/// engine lock), or — when the stream is already freed and no sweep will
/// ever drain it — run inline.
fn dispatch_continuation(
    stream: &StreamRef,
    cb: Continuation,
    result: Result<Status, RequestError>,
) {
    mpfa_obs::global_counters()
        .continuations_ready
        .fetch_add(1, Ordering::Relaxed);
    match stream.upgrade() {
        Some(s) => s.enqueue_continuation(Box::new(move || cb(result))),
        None => {
            mpfa_obs::global_counters()
                .continuations_fired
                .fetch_add(1, Ordering::Relaxed);
            cb(result);
        }
    }
}

/// Completion status of a finished operation (an `MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Source rank of the matched message (receives), or the local rank.
    pub source: i32,
    /// Message tag.
    pub tag: i32,
    /// Number of payload bytes transferred.
    pub bytes: usize,
    /// True if the operation was cancelled rather than completed.
    pub cancelled: bool,
}

impl Status {
    /// A neutral status for operations with no message metadata (sends,
    /// generalized requests, local tasks).
    pub const fn empty() -> Status {
        Status {
            source: -1,
            tag: -1,
            bytes: 0,
            cancelled: false,
        }
    }

    /// A cancelled status.
    pub const fn cancelled() -> Status {
        Status {
            source: -1,
            tag: -1,
            bytes: 0,
            cancelled: true,
        }
    }
}

impl Default for Status {
    fn default() -> Self {
        Status::empty()
    }
}

/// Why an operation finished unsuccessfully.
///
/// Errored requests still *complete* — `is_complete` flips to true and every
/// wait loop terminates — but the completion carries an error instead of a
/// normal status. This is the ULFM discipline: a failure must surface as an
/// error on the requests it dooms, never as a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The peer this operation was exchanging data with was declared dead.
    PeerFailed {
        /// World rank of the failed peer (-1 if unknown).
        rank: i32,
    },
    /// The communicator this operation ran on was revoked
    /// (`MPIX_Comm_revoke` semantics): the operation can never complete
    /// normally because some participant observed a failure.
    Revoked,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::PeerFailed { rank } => write!(f, "peer rank {rank} failed"),
            RequestError::Revoked => write!(f, "communicator revoked"),
        }
    }
}

impl std::error::Error for RequestError {}

struct RequestInner {
    complete: AtomicBool,
    status: Mutex<Status>,
    error: Mutex<Option<RequestError>>,
    stream: StreamRef,
    /// Continuations attached via [`Request::on_complete`].
    conts: Mutex<ContSlot>,
    /// Waker of the task awaiting this request, if any (the async/await
    /// bridge). Last poll wins; woken from `Completer::finish`.
    waker: Mutex<Option<Waker>>,
}

/// The user-facing completion handle of an asynchronous operation.
///
/// Cheap to clone. The operation's owner completes it via the paired
/// [`Completer`]. Waiting drives the stream the request is bound to, so a
/// bare `req.wait()` works without a progress thread (the MPI `MPI_Wait`
/// behavior); polling [`Request::is_complete`] does *not* drive progress
/// (the extension behavior).
#[derive(Clone)]
pub struct Request {
    inner: Arc<RequestInner>,
}

/// The producer side of a [`Request`]; owned by the runtime code that
/// performs the operation.
///
/// If a `Completer` is dropped without completing, the request is completed
/// as *cancelled* — an abandoned operation must never hang its waiters.
pub struct Completer {
    inner: Arc<RequestInner>,
    done: bool,
}

impl Request {
    /// Create an incomplete request bound to `stream`, plus its completer.
    pub fn pair(stream: &Stream) -> (Request, Completer) {
        let inner = Arc::new(RequestInner {
            complete: AtomicBool::new(false),
            status: Mutex::new(Status::empty()),
            error: Mutex::new(None),
            stream: stream.weak(),
            conts: Mutex::new(ContSlot::Pending(Vec::new())),
            waker: Mutex::new(None),
        });
        (
            Request {
                inner: inner.clone(),
            },
            Completer { inner, done: false },
        )
    }

    /// Create an already-complete request (e.g. a lightweight/buffered send
    /// that finished inside the initiation call — Figure 1(a)).
    pub fn completed(stream: &Stream, status: Status) -> Request {
        let inner = Arc::new(RequestInner {
            complete: AtomicBool::new(true),
            status: Mutex::new(status),
            error: Mutex::new(None),
            stream: stream.weak(),
            conts: Mutex::new(ContSlot::Fired),
            waker: Mutex::new(None),
        });
        Request { inner }
    }

    /// Create an already-failed request (e.g. a send initiated toward a rank
    /// the runtime already knows is dead — it fails at initiation rather
    /// than queueing toward a peer that will never drain it).
    pub fn failed(stream: &Stream, err: RequestError) -> Request {
        let inner = Arc::new(RequestInner {
            complete: AtomicBool::new(true),
            status: Mutex::new(Status::cancelled()),
            error: Mutex::new(Some(err)),
            stream: stream.weak(),
            conts: Mutex::new(ContSlot::Fired),
            waker: Mutex::new(None),
        });
        Request { inner }
    }

    /// `MPIX_Request_is_complete`: one atomic acquire load, no progress, no
    /// side effects. Safe to call from inside async poll functions.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.inner.complete.load(Ordering::Acquire)
    }

    /// The status, if complete.
    pub fn status(&self) -> Option<Status> {
        if self.is_complete() {
            Some(*self.inner.status.lock())
        } else {
            None
        }
    }

    /// The error, if the operation completed unsuccessfully. `None` means
    /// either "not complete yet" or "completed without error" — disambiguate
    /// with [`Request::is_complete`] or use [`Request::result`].
    pub fn error(&self) -> Option<RequestError> {
        if self.is_complete() {
            *self.inner.error.lock()
        } else {
            None
        }
    }

    /// The outcome, if complete: `Ok(status)` for a normal completion,
    /// `Err(error)` for a failed one.
    pub fn result(&self) -> Option<Result<Status, RequestError>> {
        if !self.is_complete() {
            return None;
        }
        match *self.inner.error.lock() {
            Some(err) => Some(Err(err)),
            None => Some(Ok(*self.inner.status.lock())),
        }
    }

    /// The stream this request is bound to (if still alive).
    pub fn stream(&self) -> Option<Stream> {
        self.inner.stream.upgrade()
    }

    /// Attach a continuation — the `MPIX_Continue` primitive.
    ///
    /// `cb` runs exactly once with the request's outcome, whether the
    /// operation completes normally, is cancelled (a dropped grequest or
    /// completer still fires it, with a cancelled status), or fails
    /// (`Err(PeerFailed/Revoked)` — failures fire continuations, never
    /// leak them).
    ///
    /// The callback is *not* run from inside the progress sweep: completion
    /// hands it to the bound stream's deferred-execution list, which is
    /// drained after the engine lock is released. A continuation may
    /// therefore post new operations, attach further continuations, and
    /// even wait — it observes the stream unlocked. If the request is
    /// already complete when attached, the callback is enqueued (or, when
    /// the bound stream has been freed, run inline before this returns).
    pub fn on_complete<F>(&self, cb: F)
    where
        F: FnOnce(Result<Status, RequestError>) + Send + 'static,
    {
        mpfa_obs::global_counters()
            .continuations_attached
            .fetch_add(1, Ordering::Relaxed);
        let cb: Continuation = Box::new(cb);
        {
            let mut slot = self.inner.conts.lock();
            match &mut *slot {
                ContSlot::Pending(v) => {
                    v.push(cb);
                    return;
                }
                // Completion already dispatched earlier continuations;
                // fall through and dispatch this late arrival ourselves.
                ContSlot::Fired => {}
            }
        }
        let result = self.result().expect("Fired implies complete");
        dispatch_continuation(&self.inner.stream, cb, result);
    }

    /// `MPI_Wait`: drive the bound stream's progress until complete.
    ///
    /// Idle sweeps back off (`spin::idle_backoff`): spinning
    /// flat-out starves the producing rank when ranks outnumber cores,
    /// while a fresh waiter still completes at spin latency.
    ///
    /// If the bound stream has been freed, spins on the completion flag
    /// (some other context must complete the request).
    pub fn wait(&self) -> Status {
        let mut idle = 0u32;
        while !self.is_complete() {
            match self.inner.stream.upgrade() {
                Some(stream) => {
                    if stream.progress().made_progress() {
                        idle = 0;
                    } else {
                        idle = idle.saturating_add(1);
                        crate::spin::idle_backoff(idle);
                    }
                }
                None => std::hint::spin_loop(),
            }
        }
        *self.inner.status.lock()
    }

    /// [`Request::wait`] with a timeout; `None` on timeout.
    ///
    /// The deadline is measured on [`wtime`], so under deterministic
    /// simulation the timeout counts virtual seconds and the call stays
    /// replay-identical across runs.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Status> {
        let deadline = wtime() + timeout.as_secs_f64();
        let mut idle = 0u32;
        while !self.is_complete() {
            if wtime() >= deadline {
                return None;
            }
            match self.inner.stream.upgrade() {
                Some(stream) => {
                    if stream.progress().made_progress() {
                        idle = 0;
                    } else {
                        idle = idle.saturating_add(1);
                        crate::spin::idle_backoff(idle);
                    }
                }
                None => std::hint::spin_loop(),
            }
        }
        Some(*self.inner.status.lock())
    }

    /// `MPI_Test`: one progress call on the bound stream, then a completion
    /// check.
    pub fn test(&self) -> Option<Status> {
        if self.is_complete() {
            return Some(*self.inner.status.lock());
        }
        if let Some(stream) = self.inner.stream.upgrade() {
            stream.progress();
        }
        self.status()
    }

    /// Like [`Request::wait`], but distinguishes failed completions:
    /// `Err(RequestError)` instead of a neutral status. Never hangs on a
    /// failed operation — failures complete the request.
    pub fn wait_result(&self) -> Result<Status, RequestError> {
        self.wait();
        self.result().expect("wait returned, request is complete")
    }

    /// `MPI_Waitall` over a slice of requests.
    pub fn wait_all(requests: &[Request]) -> Vec<Status> {
        requests.iter().map(Request::wait).collect()
    }

    /// `MPI_Waitall` with per-request outcomes — the ULFM shape: every
    /// request is driven to completion (errored ones complete too), and the
    /// caller gets an `Ok`/`Err` per request rather than a hang or a single
    /// aggregate error.
    pub fn wait_all_results(requests: &[Request]) -> Vec<Result<Status, RequestError>> {
        requests.iter().map(Request::wait_result).collect()
    }

    /// `MPI_Testall`: true iff all requests are complete (no progress
    /// driven; combine with explicit stream progress).
    pub fn all_complete(requests: &[Request]) -> bool {
        requests.iter().all(Request::is_complete)
    }

    /// Index of any complete request, if one exists (no progress driven).
    pub(crate) fn any_complete(requests: &[Request]) -> Option<usize> {
        requests.iter().position(Request::is_complete)
    }

    /// `MPI_Waitany`: drive the bound streams (round-robin over the
    /// distinct streams of the set) until some request completes; returns
    /// its index and status.
    ///
    /// # Panics
    /// Panics on an empty set (MPI returns `MPI_UNDEFINED`; an empty
    /// waitany is a program error here).
    pub fn wait_any(requests: &[Request]) -> (usize, Status) {
        assert!(!requests.is_empty(), "wait_any on an empty request set");
        let streams = Self::distinct_streams(requests);
        loop {
            if let Some(idx) = Self::any_complete(requests) {
                let status = requests[idx].status().expect("complete");
                return (idx, status);
            }
            if streams.is_empty() {
                std::hint::spin_loop();
            } else {
                for s in &streams {
                    s.progress();
                }
            }
        }
    }

    /// [`Request::wait_any`] with the ULFM outcome shape: the completed
    /// request's index plus its `Ok`/`Err` result.
    pub fn wait_any_result(requests: &[Request]) -> (usize, Result<Status, RequestError>) {
        let (idx, _) = Self::wait_any(requests);
        (idx, requests[idx].result().expect("complete"))
    }

    /// `MPI_Waitsome`: drive the bound streams until *at least one* request
    /// in the set is complete, then return every complete request's index
    /// and outcome (so a burst of completions is harvested in one call —
    /// the executor's fallback path relies on this batching).
    ///
    /// # Panics
    /// Panics on an empty set, like [`Request::wait_any`].
    pub fn wait_some(requests: &[Request]) -> Vec<(usize, Result<Status, RequestError>)> {
        assert!(!requests.is_empty(), "wait_some on an empty request set");
        let streams = Self::distinct_streams(requests);
        loop {
            let done: Vec<(usize, Result<Status, RequestError>)> = requests
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_complete())
                .map(|(i, r)| (i, r.result().expect("complete")))
                .collect();
            if !done.is_empty() {
                return done;
            }
            if streams.is_empty() {
                std::hint::spin_loop();
            } else {
                for s in &streams {
                    s.progress();
                }
            }
        }
    }

    /// The distinct live streams a set of requests is bound to (round-robin
    /// progress targets for the waitany/waitsome family).
    fn distinct_streams(requests: &[Request]) -> Vec<Stream> {
        let mut seen = Vec::new();
        let mut streams = Vec::new();
        for r in requests {
            if let Some(s) = r.inner.stream.upgrade() {
                if !seen.contains(&s.id()) {
                    seen.push(s.id());
                    streams.push(s);
                }
            }
        }
        streams
    }
}

/// The native async/await bridge: a [`Request`] is a future resolving to
/// its completion outcome. The waker is stored per request and woken from
/// [`Completer::finish`] — the same completion point that dispatches
/// continuations — so an executor task awaiting a request is re-polled on
/// the sweep after the operation completes, with no busy-wait.
impl Future for Request {
    type Output = Result<Status, RequestError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(r) = self.result() {
            return Poll::Ready(r);
        }
        *self.inner.waker.lock() = Some(cx.waker().clone());
        // Completion may have raced between the check above and the waker
        // store; re-check so the wakeup is never lost (the completer takes
        // the waker *after* publishing `complete`).
        if let Some(r) = self.result() {
            return Poll::Ready(r);
        }
        Poll::Pending
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("complete", &self.is_complete())
            .finish()
    }
}

impl Completer {
    /// Mark the operation complete with `status`, releasing all waiters.
    pub fn complete(mut self, status: Status) {
        self.finish(status, None);
    }

    /// Mark complete with an empty status.
    pub fn complete_empty(self) {
        self.complete(Status::empty());
    }

    /// Complete as cancelled.
    pub fn cancel(self) {
        self.complete(Status::cancelled());
    }

    /// Complete the operation *unsuccessfully*: the request flips to
    /// complete (all wait loops terminate) but carries `err`, retrievable
    /// via [`Request::error`] / [`Request::result`].
    pub fn fail(mut self, err: RequestError) {
        self.finish(Status::cancelled(), Some(err));
    }

    /// Peek: has this completer already fired? (Always false until one of
    /// the completing methods ran; those consume `self`.)
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// A [`Request`] handle observing this completer's operation.
    pub fn request(&self) -> Request {
        Request {
            inner: self.inner.clone(),
        }
    }

    fn finish(&mut self, status: Status, error: Option<RequestError>) {
        if self.done {
            return;
        }
        self.done = true;
        *self.inner.status.lock() = status;
        if error.is_some() {
            *self.inner.error.lock() = error;
        }
        // Release pairs with the Acquire in is_complete: a reader seeing
        // `true` also sees the status (and error) written above.
        self.inner.complete.store(true, Ordering::Release);
        mpfa_obs::global_counters()
            .request_completions
            .fetch_add(1, Ordering::Relaxed);
        mpfa_obs::record(|| mpfa_obs::EventKind::RequestComplete {
            stream: self
                .inner
                .stream
                .upgrade()
                .map(|s| s.id().raw())
                .unwrap_or(0),
            bytes: status.bytes as u64,
            cancelled: status.cancelled,
        });
        // Wake an awaiting task, then dispatch continuations. Both happen
        // after the Release store above, so the woken poll / fired callback
        // observes the completed outcome.
        if let Some(waker) = self.inner.waker.lock().take() {
            mpfa_obs::global_counters()
                .wakers_woken
                .fetch_add(1, Ordering::Relaxed);
            waker.wake();
        }
        let pending = {
            let mut slot = self.inner.conts.lock();
            match std::mem::replace(&mut *slot, ContSlot::Fired) {
                ContSlot::Pending(v) => v,
                ContSlot::Fired => Vec::new(),
            }
        };
        if !pending.is_empty() {
            let result = match *self.inner.error.lock() {
                Some(err) => Err(err),
                None => Ok(status),
            };
            for cb in pending {
                dispatch_continuation(&self.inner.stream, cb, result);
            }
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if !self.done {
            self.finish(Status::cancelled(), None);
        }
    }
}

/// A shared countdown of outstanding operations — the `counter_ptr` pattern
/// of the paper's Listing 1.3, made safe.
#[derive(Clone, Debug)]
pub struct CompletionCounter {
    count: Arc<AtomicUsize>,
}

impl CompletionCounter {
    /// Start at `n` outstanding operations.
    pub fn new(n: usize) -> CompletionCounter {
        CompletionCounter {
            count: Arc::new(AtomicUsize::new(n)),
        }
    }

    /// Register one more outstanding operation.
    pub fn add(&self, n: usize) {
        self.count.fetch_add(n, Ordering::AcqRel);
    }

    /// Mark one operation finished.
    pub fn done(&self) {
        let prev = self.count.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "CompletionCounter underflow");
    }

    /// Outstanding operations.
    pub fn remaining(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// True when nothing is outstanding.
    pub fn is_zero(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AsyncPoll, AsyncThing};

    #[test]
    fn fresh_request_is_incomplete() {
        let s = Stream::create();
        let (req, _c) = Request::pair(&s);
        assert!(!req.is_complete());
        assert!(req.status().is_none());
    }

    #[test]
    fn complete_publishes_status() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        c.complete(Status {
            source: 3,
            tag: 7,
            bytes: 42,
            cancelled: false,
        });
        assert!(req.is_complete());
        let st = req.status().unwrap();
        assert_eq!(st.source, 3);
        assert_eq!(st.tag, 7);
        assert_eq!(st.bytes, 42);
        assert!(!st.cancelled);
    }

    #[test]
    fn completed_constructor() {
        let s = Stream::create();
        let req = Request::completed(&s, Status::empty());
        assert!(req.is_complete());
    }

    #[test]
    fn dropping_completer_cancels() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        drop(c);
        assert!(req.is_complete());
        assert!(req.status().unwrap().cancelled);
    }

    #[test]
    fn wait_drives_stream_progress() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        // An async task completes the request after a few polls.
        let mut polls = 0;
        let mut completer = Some(c);
        s.async_start(move |_t: &mut AsyncThing| {
            polls += 1;
            if polls >= 3 {
                completer.take().unwrap().complete_empty();
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        let st = req.wait();
        assert!(!st.cancelled);
        assert!(s.progress_calls() >= 3);
    }

    #[test]
    fn wait_timeout_expires() {
        let s = Stream::create();
        let (req, _c) = Request::pair(&s);
        assert!(req
            .wait_timeout(std::time::Duration::from_millis(10))
            .is_none());
    }

    #[test]
    fn wait_timeout_returns_status_on_completion() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let mut completer = Some(c);
        let mut polls = 0;
        s.async_start(move |_t: &mut AsyncThing| {
            polls += 1;
            if polls == 3 {
                completer.take().unwrap().complete(Status {
                    source: 2,
                    ..Status::default()
                });
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        let st = req
            .wait_timeout(std::time::Duration::from_secs(30))
            .expect("completes well inside the timeout");
        assert_eq!(st.source, 2);
    }

    #[test]
    fn test_polls_once() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let mut completer = Some(c);
        s.async_start(move |_t: &mut AsyncThing| {
            completer.take().unwrap().complete_empty();
            AsyncPoll::Done
        });
        // First test drives one progress: task completes request.
        let calls_before = s.progress_calls();
        assert!(req.test().is_some());
        assert_eq!(s.progress_calls(), calls_before + 1);
        // Second test short-circuits without progress.
        assert!(req.test().is_some());
        assert_eq!(s.progress_calls(), calls_before + 1);
    }

    #[test]
    fn wait_all_and_queries() {
        let s = Stream::create();
        let (r1, c1) = Request::pair(&s);
        let (r2, c2) = Request::pair(&s);
        assert!(!Request::all_complete(&[r1.clone(), r2.clone()]));
        assert!(Request::any_complete(&[r1.clone(), r2.clone()]).is_none());
        c1.complete_empty();
        assert_eq!(Request::any_complete(&[r1.clone(), r2.clone()]), Some(0));
        c2.complete_empty();
        assert!(Request::all_complete(&[r1.clone(), r2.clone()]));
        let statuses = Request::wait_all(&[r1, r2]);
        assert_eq!(statuses.len(), 2);
    }

    #[test]
    fn wait_any_returns_first_completion() {
        let s = Stream::create();
        let reqs: Vec<Request> = (0..4)
            .map(|i| {
                let (req, completer) = Request::pair(&s);
                let mut polls_left = 4 - i; // request 3 completes first
                let mut completer = Some(completer);
                s.async_start(move |_t| {
                    polls_left -= 1;
                    if polls_left == 0 {
                        completer.take().expect("once").complete(Status {
                            source: i,
                            tag: 0,
                            bytes: 0,
                            cancelled: false,
                        });
                        AsyncPoll::Done
                    } else {
                        AsyncPoll::Pending
                    }
                });
                req
            })
            .collect();
        let (idx, status) = Request::wait_any(&reqs);
        assert_eq!(idx, 3);
        assert_eq!(status.source, 3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn wait_any_empty_panics() {
        let _ = Request::wait_any(&[]);
    }

    #[test]
    fn is_complete_has_no_progress_side_effect() {
        let s = Stream::create();
        let (req, _c) = Request::pair(&s);
        let calls = s.progress_calls();
        for _ in 0..1000 {
            assert!(!req.is_complete());
        }
        assert_eq!(s.progress_calls(), calls);
    }

    #[test]
    fn is_complete_usable_inside_poll_fn() {
        // The headline pattern: query request completion from inside an
        // async poll without touching progress (Listing 1.6).
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let observed = CompletionCounter::new(1);
        let obs = observed.clone();
        let mut completer = Some(c);
        let mut polls = 0;
        s.async_start(move |_t: &mut AsyncThing| {
            polls += 1;
            if polls == 2 {
                completer.take().unwrap().complete_empty();
            }
            if req.is_complete() {
                obs.done();
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        assert!(s.progress_until(|| observed.is_zero(), 1.0));
        assert_eq!(s.poisoned_tasks(), 0);
    }

    #[test]
    fn failed_request_completes_with_error() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        assert!(req.error().is_none());
        c.fail(RequestError::PeerFailed { rank: 2 });
        // The failure *completes* the request: waits terminate.
        assert!(req.is_complete());
        assert_eq!(req.error(), Some(RequestError::PeerFailed { rank: 2 }));
        assert_eq!(req.wait_result(), Err(RequestError::PeerFailed { rank: 2 }));
        assert_eq!(
            req.result(),
            Some(Err(RequestError::PeerFailed { rank: 2 }))
        );
    }

    #[test]
    fn failed_constructor_is_born_failed() {
        let s = Stream::create();
        let req = Request::failed(&s, RequestError::Revoked);
        assert!(req.is_complete());
        assert_eq!(req.error(), Some(RequestError::Revoked));
    }

    #[test]
    fn normal_completion_has_no_error() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        c.complete_empty();
        assert!(req.error().is_none());
        assert!(req.wait_result().is_ok());
    }

    #[test]
    fn wait_all_results_mixes_outcomes() {
        let s = Stream::create();
        let (r1, c1) = Request::pair(&s);
        let (r2, c2) = Request::pair(&s);
        let (r3, c3) = Request::pair(&s);
        c1.complete_empty();
        c2.fail(RequestError::Revoked);
        c3.fail(RequestError::PeerFailed { rank: 0 });
        let outcomes = Request::wait_all_results(&[r1, r2, r3]);
        assert!(outcomes[0].is_ok());
        assert_eq!(outcomes[1], Err(RequestError::Revoked));
        assert_eq!(outcomes[2], Err(RequestError::PeerFailed { rank: 0 }));
    }

    #[test]
    fn completion_counter_basics() {
        let c = CompletionCounter::new(2);
        assert_eq!(c.remaining(), 2);
        c.done();
        assert!(!c.is_zero());
        c.done();
        assert!(c.is_zero());
        c.add(1);
        assert_eq!(c.remaining(), 1);
    }

    #[test]
    fn cross_thread_completion_visibility() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let handle = std::thread::spawn(move || {
            c.complete(Status {
                source: 1,
                tag: 2,
                bytes: 3,
                cancelled: false,
            });
        });
        while !req.is_complete() {
            std::hint::spin_loop();
        }
        let st = req.status().unwrap();
        assert_eq!((st.source, st.tag, st.bytes), (1, 2, 3));
        handle.join().unwrap();
    }

    #[test]
    fn wait_some_returns_completed_subset() {
        let s = Stream::create();
        let reqs: Vec<Request> = (0..4)
            .map(|i| {
                let (req, completer) = Request::pair(&s);
                let mut completer = Some(completer);
                let mut polls = 0;
                s.async_start(move |_t| {
                    polls += 1;
                    // Requests 1 and 3 complete on the first sweep; 0 and 2
                    // two sweeps later.
                    if (i % 2 == 1 && polls >= 1) || polls >= 3 {
                        completer.take().expect("once").complete(Status {
                            source: i,
                            tag: 0,
                            bytes: 0,
                            cancelled: false,
                        });
                        AsyncPoll::Done
                    } else {
                        AsyncPoll::Pending
                    }
                });
                req
            })
            .collect();
        let done = Request::wait_some(&reqs);
        let idxs: Vec<usize> = done.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![1, 3], "first harvest: the first-sweep pair");
        for (i, r) in &done {
            assert_eq!(r.as_ref().unwrap().source, *i as i32);
        }
        let rest = Request::wait_all_results(&reqs);
        assert!(rest.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn wait_any_result_surfaces_errors() {
        let s = Stream::create();
        let (r1, _c1) = Request::pair(&s);
        let (r2, c2) = Request::pair(&s);
        c2.fail(RequestError::Revoked);
        let (idx, res) = Request::wait_any_result(&[r1, r2]);
        assert_eq!(idx, 1);
        assert_eq!(res, Err(RequestError::Revoked));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn wait_some_empty_panics() {
        let _ = Request::wait_some(&[]);
    }

    #[test]
    fn continuation_fires_on_progress_after_completion() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        req.on_complete(move |res| {
            assert_eq!(res.unwrap().source, 7);
            f.fetch_add(1, Ordering::SeqCst);
        });
        // Attached but incomplete: nothing fires, even across sweeps.
        s.progress();
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        c.complete(Status {
            source: 7,
            tag: 0,
            bytes: 0,
            cancelled: false,
        });
        // Completion queues the continuation; the next progress drains it.
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(s.pending_continuations(), 1);
        s.progress();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(s.pending_continuations(), 0);
        // Exactly once: more sweeps don't re-fire.
        s.progress();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn continuation_on_already_complete_request_fires() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        c.complete_empty();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        req.on_complete(move |res| {
            assert!(res.is_ok());
            f.fetch_add(1, Ordering::SeqCst);
        });
        s.progress();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Born-complete constructors behave the same.
        let born = Request::completed(&s, Status::empty());
        let f2 = fired.clone();
        born.on_complete(move |_| {
            f2.fetch_add(1, Ordering::SeqCst);
        });
        s.progress();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn continuation_fires_inline_when_stream_freed() {
        let s = Stream::create();
        let req = Request::completed(&s, Status::empty());
        drop(s);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        req.on_complete(move |_| {
            f.fetch_add(1, Ordering::SeqCst);
        });
        // No stream left to drain it: ran inline.
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_completer_still_fires_continuation_once() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        req.on_complete(move |res| {
            assert!(res.unwrap().cancelled, "abandoned op completes cancelled");
            f.fetch_add(1, Ordering::SeqCst);
        });
        drop(c);
        s.progress();
        s.progress();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn failed_request_fires_continuation_with_error() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let seen = Arc::new(Mutex::new(None));
        let sn = seen.clone();
        req.on_complete(move |res| {
            *sn.lock() = Some(res);
        });
        c.fail(RequestError::PeerFailed { rank: 3 });
        s.progress();
        assert_eq!(
            *seen.lock(),
            Some(Err(RequestError::PeerFailed { rank: 3 }))
        );
    }

    #[test]
    fn continuation_may_post_ops_and_chain() {
        // Re-entrancy: a continuation posts a new async task, waits on the
        // same stream, and attaches a further continuation.
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let (req2, c2) = Request::pair(&s);
        let mut c2 = Some(c2);
        let chained = Arc::new(AtomicUsize::new(0));
        let ch = chained.clone();
        let s2 = s.clone();
        req.on_complete(move |res| {
            assert!(res.is_ok());
            // Post a new operation from inside the continuation...
            s2.async_start(move |_t| {
                c2.take().expect("once").complete_empty();
                AsyncPoll::Done
            });
            // ...wait for it (legal: we run outside the engine lock)...
            req2.wait();
            // ...and chain another continuation onto the now-complete
            // request; it must run in this same drain.
            let ch2 = ch.clone();
            req2.on_complete(move |_| {
                ch2.fetch_add(1, Ordering::SeqCst);
            });
        });
        c.complete_empty();
        s.progress();
        assert_eq!(chained.load(Ordering::SeqCst), 1);
        assert_eq!(s.pending_continuations(), 0);
        assert_eq!(s.poisoned_tasks(), 0);
    }

    #[test]
    fn multiple_continuations_all_fire() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        let fired = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let f = fired.clone();
            req.on_complete(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
            });
        }
        c.complete_empty();
        s.progress();
        assert_eq!(fired.load(Ordering::SeqCst), 5);
    }

    struct FlagWake(AtomicBool);
    impl std::task::Wake for FlagWake {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn request_future_wakes_on_completion() {
        let s = Stream::create();
        let (mut req, c) = Request::pair(&s);
        let flag = Arc::new(FlagWake(AtomicBool::new(false)));
        let waker = Waker::from(flag.clone());
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut req).poll(&mut cx).is_pending());
        assert!(!flag.0.load(Ordering::SeqCst));
        c.complete(Status {
            source: 9,
            tag: 0,
            bytes: 4,
            cancelled: false,
        });
        assert!(flag.0.load(Ordering::SeqCst), "completion wakes the waker");
        match Pin::new(&mut req).poll(&mut cx) {
            Poll::Ready(Ok(st)) => assert_eq!((st.source, st.bytes), (9, 4)),
            other => panic!("expected Ready(Ok), got {other:?}"),
        }
    }

    #[test]
    fn request_future_resolves_to_error_on_failure() {
        let s = Stream::create();
        let (mut req, c) = Request::pair(&s);
        let flag = Arc::new(FlagWake(AtomicBool::new(false)));
        let waker = Waker::from(flag.clone());
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut req).poll(&mut cx).is_pending());
        c.fail(RequestError::Revoked);
        assert!(flag.0.load(Ordering::SeqCst));
        assert_eq!(
            Pin::new(&mut req).poll(&mut cx),
            Poll::Ready(Err(RequestError::Revoked))
        );
    }

    #[test]
    fn wait_survives_freed_stream() {
        let s = Stream::create();
        let (req, c) = Request::pair(&s);
        drop(s);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            c.complete_empty();
        });
        let st = req.wait();
        assert!(!st.cancelled);
        t.join().unwrap();
    }
}
