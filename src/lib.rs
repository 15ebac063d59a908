//! # mpfa — MPI Progress For All
//!
//! A from-scratch Rust reproduction of *"MPI Progress For All"* (Zhou,
//! Latham, Raffenetti, Guo, Thakur — SC 2024): explicit, targeted,
//! interoperable communication-runtime progress.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] — the paper's contribution: `MPIX_Stream`,
//!   `MPIX_Stream_progress`, `MPIX_Async`, `MPIX_Request_is_complete`,
//!   generalized requests.
//! * [`fabric`] — the software-simulated NIC / network substrate.
//! * [`mpi`] — an MPI-like message-passing runtime (communicators,
//!   point-to-point protocols, collectives) whose internal subsystems are
//!   progress hooks on `core` streams.
//! * [`persist`] — persistent & partitioned operations
//!   (`MPI_Send_init`/`MPI_Start`/`MPI_Startall`, `MPI_Psend_init`/
//!   `MPI_Pready`/`MPI_Parrived`): init-time validation, routing, and a
//!   pinned matching-bucket slot so re-fires skip tag matching
//!   entirely. See `docs/PERSISTENT.md`.
//! * [`cont`] — `MPIX_Continue` continuations and native Rust
//!   async/await on top of the request/stream machinery: attach-to-many
//!   continuation requests, a stream-driven executor, `block_on`,
//!   `join_all`. See `docs/ASYNC.md`.
//! * [`flow`] — frontier-tracked dataflow on top of the progress
//!   engine: timestamped streams, per-stream capability counts, a
//!   capability-gossip protocol on a reserved control context so every
//!   rank answers `frontier()` locally, and push-style emit-on-frontier
//!   callbacks via continuations. See `docs/FLOW.md`.
//! * [`interop`] — what the extensions enable: user-level collectives,
//!   task classes, scan-based completion callbacks (Listing 1.6), a
//!   schedule-style comparator API, a progress-engine thread and a task
//!   graph. The native continuations and `block_on` are in [`cont`].
//! * [`transport`] — the pluggable packet substrate: the simulated
//!   fabric behind a `Transport` trait plus real TCP and Unix-domain
//!   wire backends, bootstrap rendezvous, and the `mpfarun` launcher.
//!   See `docs/TRANSPORT.md`.
//! * [`resil`] — fault tolerance: an epoch-stamped failure detector
//!   running as a progress hook, feeding the ULFM-style error path
//!   (`RequestError`, `Comm::revoke`/`shrink`/`agree`) in [`mpi`]. See
//!   `docs/RESILIENCE.md`.
//! * [`dst`] — deterministic simulation testing: a seeded virtual-time
//!   scheduler that owns every nondeterminism point (task poll order,
//!   fabric delivery, detector ticks, chaos kill timing) so a whole
//!   multi-rank run replays from a `u64` seed. See `docs/TESTING.md`.
//! * [`baselines`] — the progress strategies the paper argues against:
//!   global async-progress threads and request-polling loops.
//! * [`obs`] — progress observability: event tracing (behind the `obs`
//!   cargo feature), always-on counters, Chrome-trace export, and the
//!   progress-stall doctor. See `docs/OBSERVABILITY.md`.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the figure-by-figure
//! reproduction of the paper's evaluation.

pub use mpfa_async as cont;
pub use mpfa_baselines as baselines;
pub use mpfa_core as core;
pub use mpfa_dst as dst;
pub use mpfa_fabric as fabric;
pub use mpfa_flow as flow;
pub use mpfa_interop as interop;
pub use mpfa_mpi as mpi;
pub use mpfa_obs as obs;
pub use mpfa_offload as offload;
pub use mpfa_persist as persist;
pub use mpfa_resil as resil;
pub use mpfa_transport as transport;
