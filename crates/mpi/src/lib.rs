//! `mpi-sim`: an in-process message-passing substrate with an MPI-shaped
//! API.
//!
//! The distributed experiments of the reproduction need MPI semantics —
//! ranks, point-to-point messages with tag matching, and collectives —
//! but the paper's Fujitsu-MPI-on-Tofu-D stack is not available
//! (reproduction band: "MPI support weaker"). This crate runs each rank
//! as an OS thread inside one process:
//!
//! * [`World::run`] — spawn `n` ranks, each executing the same closure
//!   with its own [`Comm`]; per-rank return values are collected.
//! * [`Comm`] — `send`/`recv`/`sendrecv` with `(source, tag)` matching and
//!   out-of-order stashing, plus `barrier`, `bcast`, `gather`, `allgather`,
//!   `allreduce`, `alltoall`, `reduce`.
//! * [`Pod`] — the plain-old-data marker used to move typed slices
//!   through byte channels without serialization frameworks; a
//!   [`Buffer`] crosses ranks by move instead, with no copy.
//! * [`network`] — an α–β (latency–bandwidth) cost model parameterized to
//!   Tofu-D, which converts the bytes/messages each rank actually moved
//!   (recorded by [`CommStats`]) into *predicted* interconnect time, so
//!   communication-fraction figures keep the shape they would have on the
//!   real machine.
//!
//! Semantics match MPI where it matters for correctness: message order
//! between a fixed (sender, receiver, tag) triple is preserved, `recv`
//! blocks, collectives synchronize all ranks of the world.

pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod fault;
pub mod network;
pub mod nonblocking;
pub mod stats;

pub use comm::{Comm, CommError, World, ANY_SOURCE};
pub use datatype::{Buffer, Pod};
pub use fault::{FaultDraw, FaultPlan, FaultSpecError};
pub use network::{NetworkModel, TofuParams};
pub use nonblocking::{chunk_count, RecvRequest};
pub use stats::CommStats;

#[cfg(test)]
mod proptests;

/// Test helper: run `f` on `n_ranks` ranks twice, on the fast path and
/// under the default fault intensity (seed 42), check that both runs
/// return the same per-rank values, and return them.
#[cfg(test)]
pub(crate) fn run_clean_and_faulted<T, F>(n_ranks: usize, f: F) -> Vec<T>
where
    T: Send + PartialEq + std::fmt::Debug,
    F: Fn(&mut Comm) -> T + Sync,
{
    let clean = World::run_faulted(n_ranks, None, &f);
    let faulted = World::run_faulted(n_ranks, Some(FaultPlan::default_intensity(42)), &f);
    assert_eq!(clean, faulted, "transport faults changed what the ranks returned");
    faulted
}
