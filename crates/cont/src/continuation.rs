//! `MPIX_Continue` attach-to-many: N operations, each with a callback,
//! aggregated behind one request that completes when all have fired.
//!
//! This is the native counterpart of the scan-based `CompletionNotifier`
//! in `mpfa-interop` (Listing 1.6): instead of an async task that
//! scans `is_complete` over the registered set every sweep, each attached
//! operation hands its callback to the completion machinery itself, so
//! the cost per sweep is zero for operations that didn't complete.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use mpfa_core::sync::Mutex;
use mpfa_core::{Completer, Request, RequestError, Status, Stream};

struct AggState {
    /// Attached operations whose callback has not fired yet.
    outstanding: AtomicUsize,
    /// Set once `start` ran; the aggregate may only finish after this.
    started: AtomicBool,
    /// First error observed among the attached operations; the aggregate
    /// request fails with it (ULFM: failures surface, never leak).
    first_err: Mutex<Option<RequestError>>,
    /// Completer of the aggregate request, installed by `start`.
    completer: Mutex<Option<Completer>>,
}

impl AggState {
    /// Complete the aggregate if it is both started and drained. Both the
    /// last callback and `start` race toward this; the completer's
    /// take-once slot makes the completion single-shot.
    fn maybe_finish(&self) {
        if !self.started.load(Ordering::Acquire) || self.outstanding.load(Ordering::Acquire) != 0 {
            return;
        }
        if let Some(completer) = self.completer.lock().take() {
            match *self.first_err.lock() {
                Some(err) => completer.fail(err),
                None => completer.complete_empty(),
            }
        }
    }

    fn op_done(&self) {
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.maybe_finish();
        }
    }
}

/// An `MPIX_Continue`-style aggregate: attach callbacks to any number of
/// requests, then [`start`](ContinuationRequest::start) to obtain one
/// request that completes when every attached callback has fired.
///
/// Per-operation callbacks run with the operation's own outcome (so a
/// failed peer surfaces as `Err(PeerFailed)` on exactly the operations it
/// doomed); the aggregate request completes normally only if *all*
/// operations did, and otherwise fails with the first error observed.
///
/// ```
/// use mpfa_core::{Request, Status, Stream};
/// use mpfa_async::ContinuationRequest;
///
/// let stream = Stream::create();
/// let agg = ContinuationRequest::new(&stream);
/// let (req, completer) = Request::pair(&stream);
/// agg.attach(&req, |res| assert!(res.is_ok()));
/// let all = agg.start();
/// completer.complete_empty();
/// assert!(all.wait_result().is_ok());
/// ```
pub struct ContinuationRequest {
    stream: Stream,
    state: Arc<AggState>,
}

impl ContinuationRequest {
    /// A fresh, inactive aggregate bound to `stream` (the stream the
    /// aggregate request will be driven by).
    pub fn new(stream: &Stream) -> ContinuationRequest {
        ContinuationRequest {
            stream: stream.clone(),
            state: Arc::new(AggState {
                outstanding: AtomicUsize::new(0),
                started: AtomicBool::new(false),
                first_err: Mutex::new(None),
                completer: Mutex::new(None),
            }),
        }
    }

    /// Attach `cb` to `req`. The callback fires exactly once with the
    /// request's outcome — including when the request is already complete
    /// at attach time, was cancelled, or failed.
    ///
    /// # Panics
    /// Panics if the aggregate was already started (`MPIX_Continue` only
    /// permits attaching while the continuation request is inactive).
    pub fn attach<F>(&self, req: &Request, cb: F)
    where
        F: FnOnce(Result<Status, RequestError>) + Send + 'static,
    {
        assert!(
            !self.state.started.load(Ordering::Acquire),
            "attach on a started ContinuationRequest"
        );
        self.state.outstanding.fetch_add(1, Ordering::AcqRel);
        let state = self.state.clone();
        req.on_complete(move |res| {
            if let Err(err) = res {
                state.first_err.lock().get_or_insert(err);
            }
            cb(res);
            state.op_done();
        });
    }

    /// Attach every request in `reqs` with a no-op callback — pure
    /// fire-when-all aggregation.
    pub fn attach_all(&self, reqs: &[Request]) {
        for req in reqs {
            self.attach(req, |_| {});
        }
    }

    /// Attached operations whose callback has not fired yet.
    pub fn outstanding(&self) -> usize {
        self.state.outstanding.load(Ordering::Acquire)
    }

    /// Activate the aggregate: returns the request that completes once
    /// every attached callback has fired (immediately, if they already
    /// all have). One-shot.
    ///
    /// # Panics
    /// Panics on a second call.
    pub fn start(&self) -> Request {
        let (req, completer) = Request::pair(&self.stream);
        {
            let mut slot = self.state.completer.lock();
            assert!(
                slot.is_none() && !self.state.started.load(Ordering::Acquire),
                "ContinuationRequest already started"
            );
            *slot = Some(completer);
        }
        // Publish the completer before `started`: a racing last callback
        // that observes `started` is guaranteed to find the completer.
        self.state.started.store(true, Ordering::Release);
        self.state.maybe_finish();
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_when_all_in_any_order() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let fired = Arc::new(AtomicUsize::new(0));
        let pairs: Vec<_> = (0..4).map(|_| Request::pair(&s)).collect();
        for (req, _) in &pairs {
            let f = fired.clone();
            agg.attach(req, move |res| {
                assert!(res.is_ok());
                f.fetch_add(1, Ordering::SeqCst);
            });
        }
        let all = agg.start();
        let mut completers: Vec<_> = pairs.into_iter().map(|(_, c)| c).collect();
        // Complete in reverse order; the aggregate stays incomplete until
        // the last callback fires.
        while let Some(c) = completers.pop() {
            assert!(!all.is_complete());
            c.complete_empty();
            s.progress();
        }
        assert!(all.wait_result().is_ok());
        assert_eq!(fired.load(Ordering::SeqCst), 4);
        assert_eq!(agg.outstanding(), 0);
    }

    #[test]
    fn single_continuation_fires_and_completes() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let (req, completer) = Request::pair(&s);
        let seen: Arc<Mutex<Option<Status>>> = Arc::new(Mutex::new(None));
        let slot = seen.clone();
        agg.attach(&req, move |res| {
            *slot.lock() = Some(res.expect("ok"));
        });
        assert_eq!(agg.outstanding(), 1);
        let all = agg.start();
        assert!(!all.is_complete());
        completer.complete(Status {
            source: 3,
            tag: 7,
            bytes: 0,
            cancelled: false,
        });
        let status = all.wait_result().expect("ok");
        assert!(!status.cancelled);
        let fired = seen
            .lock()
            .take()
            .expect("callback fired before the aggregate");
        assert_eq!((fired.source, fired.tag), (3, 7));
        assert_eq!(agg.outstanding(), 0);
    }

    #[test]
    fn start_with_nothing_attached_completes_immediately() {
        // No sweep needed: `start` itself finishes an empty aggregate.
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let calls = s.progress_calls();
        let all = agg.start();
        assert!(all.is_complete());
        assert_eq!(agg.outstanding(), 0);
        assert_eq!(s.progress_calls(), calls);
    }

    #[test]
    fn attach_all_fires_once_after_all() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let (reqs, mut completers): (Vec<Request>, Vec<Completer>) =
            (0..5).map(|_| Request::pair(&s)).unzip();
        agg.attach_all(&reqs);
        let all = agg.start();
        // A continuation on the aggregate itself: it must fire exactly
        // once, and only after every member completed.
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        all.on_complete(move |res| {
            assert!(res.is_ok());
            f.fetch_add(1, Ordering::SeqCst);
        });
        let last = completers.pop().expect("five");
        for c in completers {
            c.complete_empty();
        }
        for _ in 0..20 {
            s.progress();
        }
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(agg.outstanding(), 1);
        last.complete_empty();
        assert!(s.progress_until(|| fired.load(Ordering::SeqCst) == 1, 1.0));
        for _ in 0..20 {
            s.progress();
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn already_complete_attachments_count() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let done = Request::completed(&s, Status::empty());
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        agg.attach(&done, move |_| {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let all = agg.start();
        assert!(all.wait_result().is_ok());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_aggregate_completes_immediately() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let all = agg.start();
        assert!(all.wait_result().is_ok());
    }

    #[test]
    fn callbacks_fire_even_before_start() {
        // MPIX_Continue semantics: continuations execute as requests
        // complete; `start` only gates the aggregate request itself.
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let (req, completer) = Request::pair(&s);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        agg.attach(&req, move |_| {
            f.fetch_add(1, Ordering::SeqCst);
        });
        completer.complete_empty();
        assert!(s.progress_until(|| fired.load(Ordering::SeqCst) == 1, 1.0));
        assert_eq!(agg.outstanding(), 0);
        assert!(agg.start().is_complete());
    }

    #[test]
    fn one_failure_fails_the_aggregate() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let (ok_req, ok_c) = Request::pair(&s);
        let (bad_req, bad_c) = Request::pair(&s);
        let errs = Arc::new(AtomicUsize::new(0));
        let e = errs.clone();
        agg.attach(&ok_req, |res| assert!(res.is_ok()));
        agg.attach(&bad_req, move |res| {
            assert_eq!(res, Err(RequestError::PeerFailed { rank: 1 }));
            e.fetch_add(1, Ordering::SeqCst);
        });
        let all = agg.start();
        ok_c.complete_empty();
        bad_c.fail(RequestError::PeerFailed { rank: 1 });
        assert_eq!(all.wait_result(), Err(RequestError::PeerFailed { rank: 1 }));
        assert_eq!(errs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn attach_all_is_pure_aggregation() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        let pairs: Vec<_> = (0..3).map(|_| Request::pair(&s)).collect();
        let reqs: Vec<Request> = pairs.iter().map(|(r, _)| r.clone()).collect();
        agg.attach_all(&reqs);
        assert_eq!(agg.outstanding(), 3);
        let all = agg.start();
        for (_, c) in pairs {
            c.complete_empty();
        }
        assert!(all.wait_result().is_ok());
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        drop(agg.start());
        drop(agg.start());
    }

    #[test]
    #[should_panic(expected = "attach on a started")]
    fn attach_after_start_panics() {
        let s = Stream::create();
        let agg = ContinuationRequest::new(&s);
        drop(agg.start());
        let (req, _c) = Request::pair(&s);
        agg.attach(&req, |_| {});
    }
}
