//! An `MPIX_Schedule`-style rounds API (paper Section 5.3) built on the
//! extension APIs.
//!
//! The MPIX_Schedule proposal expresses "a series of coordinated MPI
//! operations similar to a nonblocking MPI collective" as rounds of
//! operations committed into one request. The paper's critique — it lacks
//! a progress mechanism of its own and cannot host non-MPI operations —
//! is answered here by *implementing* it on `MPIX_Async`: operations are
//! arbitrary request-producing closures, and progression rides the
//! stream's collated progress.

use mpfa_core::{AsyncPoll, Request, Status, Stream};

/// A deferred operation: invoked when its round starts, yields the request
/// tracking it. Closures may capture communicators, buffers, anything —
/// including non-MPI work wrapped in a request (the flexibility the
/// original proposal lacked).
pub type OpFn = Box<dyn FnOnce() -> Request + Send>;

/// Builder for a rounds-structured schedule
/// (`MPIX_Schedule_create` … `MPIX_Schedule_commit`).
#[derive(Default)]
pub struct ScheduleBuilder {
    rounds: Vec<Vec<OpFn>>,
}

impl ScheduleBuilder {
    /// `MPIX_Schedule_create`.
    pub fn new() -> ScheduleBuilder {
        ScheduleBuilder {
            rounds: vec![Vec::new()],
        }
    }

    /// `MPIX_Schedule_add_operation`: append an operation to the current
    /// round. All operations of a round start together.
    pub fn add_operation(&mut self, op: impl FnOnce() -> Request + Send + 'static) -> &mut Self {
        self.rounds
            .last_mut()
            .expect("builder has a round")
            .push(Box::new(op));
        self
    }

    /// `MPIX_Schedule_create_round`: subsequent operations start only
    /// after every operation of the previous round completed.
    pub fn create_round(&mut self) -> &mut Self {
        self.rounds.push(Vec::new());
        self
    }

    /// `MPIX_Schedule_commit`: launch the schedule on `stream`, returning
    /// the request that completes when the final round does.
    pub fn commit(self, stream: &Stream) -> Request {
        let (request, completer) = Request::pair(stream);
        let mut rounds: std::collections::VecDeque<Vec<OpFn>> =
            self.rounds.into_iter().filter(|r| !r.is_empty()).collect();
        let mut completer = Some(completer);
        let mut inflight: Vec<Request> = Vec::new();
        stream.async_start(move |_t| {
            if !inflight.is_empty() {
                if !Request::all_complete(&inflight) {
                    return AsyncPoll::Pending;
                }
                inflight.clear();
            }
            match rounds.pop_front() {
                Some(ops) => {
                    inflight = ops.into_iter().map(|op| op()).collect();
                    AsyncPoll::Progress
                }
                None => {
                    if let Some(c) = completer.take() {
                        c.complete(Status::empty());
                    }
                    AsyncPoll::Done
                }
            }
        });
        request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_core::sync::Mutex;
    use std::sync::Arc;

    /// An operation completing after `polls` probe calls, logging its
    /// start into `log`.
    fn op(
        stream: &Stream,
        label: &'static str,
        log: Arc<Mutex<Vec<&'static str>>>,
    ) -> impl FnOnce() -> Request + Send + 'static {
        let stream = stream.clone();
        move || {
            log.lock().push(label);
            let (req, completer) = Request::pair(&stream);
            let mut countdown = 3;
            let mut completer = Some(completer);
            stream.async_start(move |_t| {
                countdown -= 1;
                if countdown == 0 {
                    completer.take().expect("once").complete_empty();
                    AsyncPoll::Done
                } else {
                    AsyncPoll::Pending
                }
            });
            req
        }
    }

    #[test]
    fn rounds_execute_in_order() {
        let stream = Stream::create();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut b = ScheduleBuilder::new();
        b.add_operation(op(&stream, "a1", log.clone()));
        b.add_operation(op(&stream, "a2", log.clone()));
        b.create_round();
        b.add_operation(op(&stream, "b1", log.clone()));
        b.create_round();
        b.add_operation(op(&stream, "c1", log.clone()));
        let req = b.commit(&stream);
        req.wait();
        let log = log.lock();
        assert_eq!(&*log, &["a1", "a2", "b1", "c1"]);
    }

    #[test]
    fn round_barrier_is_respected() {
        // Round 2 must not start until round 1's slow op finishes.
        let stream = Stream::create();
        let round1_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let violation = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut b = ScheduleBuilder::new();
        let r1 = round1_done.clone();
        let s1 = stream.clone();
        b.add_operation(move || {
            let (req, completer) = Request::pair(&s1);
            let mut polls = 0;
            let mut completer = Some(completer);
            let r1 = r1.clone();
            s1.async_start(move |_t| {
                polls += 1;
                if polls >= 10 {
                    r1.store(true, std::sync::atomic::Ordering::Release);
                    completer.take().expect("once").complete_empty();
                    AsyncPoll::Done
                } else {
                    AsyncPoll::Pending
                }
            });
            req
        });
        b.create_round();
        let r1 = round1_done.clone();
        let v = violation.clone();
        let s2 = stream.clone();
        b.add_operation(move || {
            if !r1.load(std::sync::atomic::Ordering::Acquire) {
                v.store(true, std::sync::atomic::Ordering::Release);
            }
            Request::completed(&s2, Status::empty())
        });
        let req = b.commit(&stream);
        req.wait();
        assert!(!violation.load(std::sync::atomic::Ordering::Acquire));
    }

    #[test]
    fn empty_schedule_completes() {
        let stream = Stream::create();
        let req = ScheduleBuilder::new().commit(&stream);
        let status = req.wait();
        assert!(!status.cancelled);
    }

    #[test]
    fn empty_rounds_are_skipped() {
        let stream = Stream::create();
        let mut b = ScheduleBuilder::new();
        b.create_round();
        b.create_round();
        let log = Arc::new(Mutex::new(Vec::new()));
        b.add_operation(op(&stream, "only", log.clone()));
        let req = b.commit(&stream);
        req.wait();
        assert_eq!(&*log.lock(), &["only"]);
    }
}
