//! # mpfa-interop — what interoperable progress enables
//!
//! Everything in this crate is built **on top of** the public extension
//! APIs of `mpfa-core`/`mpfa-mpi` — no crate-private access. That is the
//! paper's thesis made concrete: with `MPIX_Stream_progress`,
//! `MPIX_Async`, and `MPIX_Request_is_complete`, substantial MPI-adjacent
//! functionality moves from the implementation into user space:
//!
//! * [`user_coll`] — the paper's user-level recursive-doubling allreduce
//!   (Listing 1.8) and a user-level dissemination barrier, progressed
//!   entirely by `MPIX_Async` hooks.
//! * [`task_class`] — the "async task class" pattern (Listing 1.4): one
//!   progress hook managing an ordered task queue, making response latency
//!   independent of the number of pending tasks (Figure 10).
//! * [`callbacks`] — request-completion events via an is-complete scan
//!   (Listing 1.6), the "poor man's continuations" of Section 5.4. The
//!   native `MPIX_Continue` is `mpfa-async`'s `ContinuationRequest`.
//! * [`schedule`] — an `MPIX_Schedule`-style rounds API (Section 5.3).
//! * [`engine`] — the Section 3.5 programming scheme: a progress engine
//!   thread driving `MPIX_Stream_progress`, decoupled from task contexts.
//! * [`task_graph`] — a DAG executor advanced by one `MPIX_Async` hook:
//!   the task-based-runtime integration the paper motivates in Section 1.

#![warn(missing_docs)]

pub mod callbacks;
pub mod engine;
pub mod schedule;
pub mod task_class;
pub mod task_graph;
pub mod user_coll;

pub use callbacks::CompletionNotifier;
pub use engine::ProgressEngine;
pub use schedule::ScheduleBuilder;
pub use task_class::TaskClass;
pub use task_graph::{GraphHandle, NodeId, TaskGraph};
