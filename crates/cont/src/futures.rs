//! Tests of plain `std` async/await over requests: a `Request` is a
//! `Future`, async blocks sequence operations, [`join_all`] awaits
//! several at once, and [`block_on`] drives it all with stream progress
//! as its only idle loop (the paper's Section 2.2 observation about
//! async/await and wait patterns).

#[cfg(test)]
mod tests {
    use mpfa_core::{wtime, AsyncPoll, Request, Status, Stream};

    use crate::{block_on, join_all};

    /// A request an async task completes once `delay_s` seconds passed.
    fn timed_request(stream: &Stream, delay_s: f64) -> Request {
        let (req, completer) = Request::pair(stream);
        let deadline = wtime() + delay_s;
        let mut completer = Some(completer);
        stream.async_start(move |_t| {
            if wtime() >= deadline {
                completer.take().expect("once").complete_empty();
                AsyncPoll::Done
            } else {
                AsyncPoll::Pending
            }
        });
        req
    }

    #[test]
    fn await_single_request() {
        let stream = Stream::create();
        let req = timed_request(&stream, 0.001);
        let status = block_on(&stream, req).expect("ok");
        assert!(!status.cancelled);
    }

    #[test]
    fn await_already_complete_request() {
        let stream = Stream::create();
        let req = Request::completed(&stream, Status::empty());
        let calls = stream.progress_calls();
        let status = block_on(&stream, req).expect("ok");
        assert!(!status.cancelled);
        assert_eq!(
            stream.progress_calls(),
            calls,
            "a complete request needs no sweep"
        );
    }

    #[test]
    fn join_two_requests() {
        let stream = Stream::create();
        let t0 = wtime();
        let fast = timed_request(&stream, 0.0005);
        let slow = timed_request(&stream, 0.002);
        let out = block_on(&stream, join_all(vec![fast, slow]));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| !r.as_ref().expect("ok").cancelled));
        assert!(wtime() - t0 >= 0.002, "join must wait for the slow one");
    }

    #[test]
    fn async_block_composes_requests_sequentially() {
        let stream = Stream::create();
        let s2 = stream.clone();
        let out = block_on(&stream, async move {
            let first = timed_request(&s2, 0.0005);
            let watch = first.clone();
            let st1 = first.await.expect("ok");
            // The second operation is issued only after the first resolves
            // (a Figure 2(c) multi-wait task, written linearly).
            assert!(watch.is_complete());
            let st2 = timed_request(&s2, 0.0005).await.expect("ok");
            (st1.cancelled, st2.cancelled)
        });
        assert_eq!(out, (false, false));
    }
}
