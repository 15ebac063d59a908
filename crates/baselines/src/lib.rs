//! # mpfa-baselines — the progress strategies the paper compares against
//!
//! Section 5 of *MPI Progress For All* reviews prior approaches to the
//! progress problem. This crate implements them faithfully so the
//! benchmarks can measure the paper's claims:
//!
//! * [`global_thread`] — MPICH's `MPIR_CVAR_ASYNC_PROGRESS`: a dedicated
//!   background thread busy-polling progress *on the same context the
//!   application uses*, paying global-lock contention on every MPI call
//!   (Section 5.1).
//! * [`adaptive_thread`] — the MVAPICH refinement: the async thread sleeps
//!   whenever progress is not needed, waking on demand (Section 5.1).
//! * [`polling`] — the classic request-array test loops that the
//!   extension APIs replace: every test drives a redundant progress call
//!   and requires sharing request objects with the polling context
//!   (Sections 2.5–2.6).

#![warn(missing_docs)]

pub mod adaptive_thread;
pub mod global_thread;
pub mod polling;

pub use adaptive_thread::AdaptiveProgressThread;
pub use global_thread::GlobalProgressThread;
