//! `omp-par`: an OpenMP-like parallel runtime for loop-level parallelism.
//!
//! The A64FX studies this reproduction follows evaluate OpenMP worksharing:
//! number of threads, `schedule(static/dynamic/guided[, chunk])`, and the
//! assignment of threads to CMGs (core memory groups). `rayon`'s work
//! stealing deliberately hides all of that, so this crate implements the
//! OpenMP semantics directly:
//!
//! * [`ThreadPool`] — a persistent worker pool; the calling thread acts as
//!   the OpenMP *master* and participates in every parallel region.
//! * [`Schedule`] — `static` (block or block-cyclic), `dynamic`, `guided`
//!   chunking, with the exact OpenMP iteration-assignment rules.
//! * [`parallel_for`](ThreadPool::parallel_for) /
//!   [`parallel_reduce`](ThreadPool::parallel_reduce) — worksharing over an
//!   index range.
//! * [`affinity`] — thread→(CMG, core) placement maps (compact/scatter)
//!   used by the A64FX model to attribute memory traffic to CMG-local HBM2
//!   channels.

pub mod affinity;
pub mod pool;
pub mod schedule;

pub use affinity::{CmgTopology, Placement};
pub use pool::{RegionObserver, ScheduleStats, ThreadPool};
pub use schedule::Schedule;
