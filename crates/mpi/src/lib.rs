//! # mpfa-mpi — an MPI-like message-passing runtime on explicit progress
//!
//! This crate is the substrate the paper's extensions live in: a
//! from-scratch message-passing runtime whose *entire* internal progression
//! is expressed as [`mpfa_core`] progress hooks, exactly like MPICH's
//! collated progress function (the paper's Listing 1.1):
//!
//! 1. **datatype engine** — asynchronous pack/unpack of non-contiguous
//!    datatypes ([`dtengine`]),
//! 2. **collective schedules** — multi-stage collective algorithms
//!    ([`collectives`], [`sched`]),
//! 3. **shmem** — intra-node packet processing ([`subsys`]),
//! 4. **netmod** — inter-node packet processing, rendezvous/pipeline
//!    protocol state machines, TX completions ([`subsys`], [`protocol`]).
//!
//! ## Shape of the runtime
//!
//! A [`World`] owns a simulated fabric ([`mpfa_fabric`]) and hands out one
//! [`Proc`] per rank; each rank runs on its own OS thread (modeling what
//! would be separate processes). A [`Comm`] is a per-rank communicator
//! handle supporting typed point-to-point operations in the paper's three
//! message modes (buffered/lightweight eager, eager with TX wait,
//! rendezvous with RTS/CTS — plus chunked pipeline), and a set of
//! native collectives implemented as schedules.
//!
//! ## Streams and VCIs
//!
//! Each rank has a *default stream* whose hooks serve virtual communication
//! interface (VCI) 0. Binding a communicator to a user stream
//! ([`Comm::with_stream`], ≙ `MPIX_Stream_comm_create`) allocates a
//! dedicated VCI whose hooks are registered on that stream, so traffic on
//! different stream communicators contends on nothing — MPICH's
//! stream-to-VCI mapping from the paper's Section 3.1.

#![warn(missing_docs)]

pub mod async_api;
pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod dtengine;
pub mod error;
pub mod matching;
pub mod op;
pub mod persist;
pub mod proc;
pub mod protocol;
pub mod recv;
pub mod reserved;
pub mod resilience;
pub mod sched;
pub mod subsys;
pub mod vci;
pub mod vector_ops;
pub mod wire;
pub mod world;

pub use collectives::CollFuture;
pub use comm::{Comm, ANY_SOURCE, ANY_TAG};
pub use datatype::{Layout, MpiType};
pub use error::{MpiError, MpiResult};
pub use op::Op;
pub use persist::{
    PartitionedRecv, PartitionedSend, PersistentAllreduce, PersistentRecv, PersistentRecvBytes,
    PersistentSend, PersistentSendBytes,
};
pub use proc::Proc;
pub use recv::{RecvBytesRequest, RecvRequest};
pub use reserved::{CtrlPort, ReservedCtx};
pub use resilience::Resilience;
// Re-export so callers of [`Proc::enable_resilience`] need not depend on
// `mpfa-resil` directly.
pub use mpfa_resil::DetectorConfig;
pub use vector_ops::VectorRecv;
pub use world::{Launch, World, WorldConfig};

pub use mpfa_transport::{MpfaBytes, TransportKind};
