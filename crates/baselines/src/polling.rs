//! Request-array polling loops — the traditional strategy the extension
//! APIs replace (paper Sections 2.5–2.6).
//!
//! Without `MPIX_Stream_progress`, the only way to drive progress is
//! `MPI_Test` on concrete requests, which (a) requires sharing request
//! objects with whatever context polls, and (b) invokes one *redundant*
//! progress call per tested request per sweep. These helpers implement
//! that pattern and count its redundant progress calls so the ablation
//! bench can show the waste.

use mpfa_core::{Request, Status, Stream};

/// Result of a polling sweep over a request array.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PollStats {
    /// Total `test` invocations (each drove one progress call).
    pub tests: u64,
    /// Tests that found an already-complete request — pure waste.
    pub redundant_tests: u64,
    /// Full sweeps over the array.
    pub sweeps: u64,
}

/// `MPI_Testall`-style completion loop: sweep `test` over every request
/// until all are complete. Returns the statuses (request order) and the
/// waste statistics.
pub fn wait_all_by_testing(requests: &[Request]) -> (Vec<Status>, PollStats) {
    let mut stats = PollStats::default();
    let mut done = vec![false; requests.len()];
    let mut statuses: Vec<Option<Status>> = vec![None; requests.len()];
    let mut remaining = requests.len();
    while remaining > 0 {
        stats.sweeps += 1;
        for (i, req) in requests.iter().enumerate() {
            if done[i] {
                continue;
            }
            // The classic pattern: MPI_Test on each pending request —
            // every call invokes progress whether useful or not.
            stats.tests += 1;
            if req.is_complete() {
                // This test's progress invocation was redundant: the
                // request had already completed.
                stats.redundant_tests += 1;
            }
            if let Some(status) = req.test() {
                statuses[i] = Some(status);
                done[i] = true;
                remaining -= 1;
            }
        }
    }
    (
        statuses
            .into_iter()
            .map(|s| s.expect("all complete"))
            .collect(),
        stats,
    )
}

/// The extension-API equivalent, for comparison: ONE progress call per
/// sweep (`MPIX_Stream_progress`), completion checks via the
/// side-effect-free `is_complete`. Returns the same statuses plus the
/// number of progress calls used.
pub fn wait_all_by_stream_progress(stream: &Stream, requests: &[Request]) -> (Vec<Status>, u64) {
    let mut progress_calls = 0u64;
    while !Request::all_complete(requests) {
        stream.progress();
        progress_calls += 1;
    }
    (
        requests
            .iter()
            .map(|r| r.status().expect("all complete"))
            .collect(),
        progress_calls,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpfa_core::{wtime, AsyncPoll};

    /// N requests completed by async deadline tasks on the stream.
    fn timed_requests(stream: &Stream, n: usize, duration: f64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let (req, completer) = Request::pair(stream);
                let deadline = wtime() + duration * (i + 1) as f64 / n as f64;
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
            })
            .collect()
    }

    #[test]
    fn testall_loop_completes_everything() {
        let stream = Stream::create();
        let reqs = timed_requests(&stream, 8, 0.002);
        let (statuses, stats) = wait_all_by_testing(&reqs);
        assert_eq!(statuses.len(), 8);
        assert!(statuses.iter().all(|s| !s.cancelled));
        assert!(stats.tests >= 8);
        assert!(stats.sweeps >= 1);
    }

    #[test]
    fn stream_progress_costs_one_call_per_sweep_testing_costs_many() {
        // The headline comparison: per-sweep progress cost is 1 call for
        // the stream variant and up-to-N calls for the testing variant.
        // (Total counts over a wall-clock window are timing-dependent, so
        // the assertion is on the per-sweep ratio, which is structural.)
        let stream = Stream::create();
        let n = 32;
        let reqs = timed_requests(&stream, n, 0.005);
        let (statuses, progress_calls) = wait_all_by_stream_progress(&stream, &reqs);
        assert_eq!(statuses.len(), n);
        assert!(progress_calls >= 1);
        // Stream variant: exactly one progress call per sweep, by
        // construction.

        let stream2 = Stream::create();
        let reqs2 = timed_requests(&stream2, n, 0.005);
        let (_, stats) = wait_all_by_testing(&reqs2);
        assert!(
            stats.tests > stats.sweeps,
            "testing must drive >1 progress call per sweep with {} pending \
             requests (got {} tests over {} sweeps)",
            n,
            stats.tests,
            stats.sweeps
        );
    }
}
