//! # mpfa-async — continuations and async/await over the progress engine
//!
//! The paper makes progress an explicit, first-class service; this crate
//! is its natural consumer: *completion notification* instead of polling
//! `wait` loops. It packages the core completion machinery
//! ([`mpfa_core::Request::on_complete`], `impl Future for Request`) into
//! the two shapes proposed by Schuchart et al.'s "MPI Continuations"
//! line of work (see `PAPERS.md`):
//!
//! * [`ContinuationRequest`] — `MPIX_Continue`-style attach-to-many: a
//!   set of operations each carrying a callback, aggregated behind one
//!   request that completes when *all* of them have fired.
//! * [`Executor`] — a minimal, self-contained async executor (no tokio)
//!   that runs as a single `MPIX_Async` task on a stream: every progress
//!   sweep polls the tasks whose wakers fired, so `.await`ing a request
//!   costs nothing until the sweep that completes it.
//!
//! Plus the small glue every async runtime needs: [`block_on`] (drive a
//! stream until a future resolves) and [`join_all`] (await a whole set
//! of requests at once — the irregular fan-in shape).
//!
//! ## Execution model
//!
//! Continuations never run inside the progress sweep. Request completion
//! (which happens with the engine lock held) only *enqueues* the callback
//! on the stream's deferred-execution list; every `Stream::progress`
//! caller drains that list after releasing the lock. A continuation may
//! therefore post new operations, attach further continuations, and even
//! block — it observes the stream unlocked.
//!
//! Executor tasks are the opposite: their `poll` runs *inside* the sweep
//! (the executor pump is an `MPIX_Async` task), so they must follow the
//! paper's rule for poll functions — never invoke progress recursively.
//! `.await` things; don't call `wait()`/`recv()` inside a spawned task.
//! See `docs/ASYNC.md` for the full rules, including what dropping each
//! handle cancels (and what it doesn't).

#![warn(missing_docs)]

pub mod continuation;
pub mod executor;
pub mod future;
#[cfg(test)]
mod futures;

pub use continuation::ContinuationRequest;
pub use executor::{Executor, JoinHandle};
pub use future::{block_on, join_all, JoinAll};
