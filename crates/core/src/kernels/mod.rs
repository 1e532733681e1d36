//! Gate-application kernels.
//!
//! These loops are what the paper's performance analysis is *about*: each
//! sweeps the `2^n`-amplitude array with a stride pattern determined by
//! the target qubit(s). One path leads from a gate to its loop:
//!
//! * [`dispatch`] — the gate → kernel-shape table ([`dispatch::GateKernel`]):
//!   the one place that decides which loop a gate takes.
//! * [`sweep`] — the loop: one walker over a gate's groups of
//!   amplitudes, in runs or in whole-vector steps, run inline on the
//!   caller or workshared across an `omp-par` pool (`for_range` is the
//!   only place that tells the two apart).
//! * [`simd`] — the vector primitives the loops and the observable
//!   reductions are built from, each written once over a backend's
//!   vector type (portable, AVX2, AVX-512F, NEON); the backend is
//!   selected once at startup.
//! * [`fused`] / [`blocked`] — fused k-qubit blocks through the one
//!   block kernel, and the one cache-blocked engine, which applies a run
//!   of low-target ops (fused blocks or gate-backed singletons) to one
//!   L2-resident block at a time (E7).
//! * [`reduce`] — the observable reductions' drivers: Pauli strings and
//!   grouped Pauli sums decomposed into the backend's run reductions.
//! * [`index`] — the bit-manipulation helpers shared by all kernels.
//! * [`scalar`] — plain per-index Rust loops: the reference the
//!   conformance tests compare against, and the cold `Ccx`/`CSwap` path.
//! * [`sve`] — the same kernels expressed against the `sve-sim` layer,
//!   producing exact dynamic instruction counts for VL sweeps (E3).

pub mod blocked;
pub mod dispatch;
pub mod fused;
pub mod index;
pub mod reduce;
pub mod scalar;
pub mod simd;
pub mod sve;
pub mod sweep;

use std::ops::Range;

use omp_par::{Schedule, ThreadPool};

use crate::complex::C64;

/// Shared mutable amplitude base pointer for disjoint-write kernels.
///
/// Parallel kernels partition the amplitude index space across threads;
/// this wrapper carries the disjointness proof obligation past the
/// borrow checker so each chunk can write its own indices directly.
#[derive(Clone, Copy)]
pub(crate) struct AmpPtr(pub(crate) *mut C64);

// SAFETY: kernels using AmpPtr write each amplitude index from exactly
// one chunk of a partitioned iteration space, so there are no concurrent
// accesses to the same element.
unsafe impl Send for AmpPtr {}
unsafe impl Sync for AmpPtr {}

impl AmpPtr {
    /// The base pointer itself, for a primitive that takes raw pointers.
    #[inline(always)]
    pub(crate) fn base(self) -> *mut C64 {
        self.0
    }

    /// Mutable view of `len` amplitudes starting at `start`.
    ///
    /// # Safety
    /// The `[start, start + len)` ranges handed out to concurrently
    /// running code must be disjoint.
    #[inline(always)]
    pub(crate) unsafe fn slice(self, start: usize, len: usize) -> &'static mut [C64] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// Run `body` over `range`: workshared across `pool` under `sched`, or
/// — without a pool — inline on the caller as one chunk. The only
/// serial/pooled branch in the kernels: a serial sweep is the
/// workshared sweep with one chunk.
#[inline]
pub(crate) fn for_range<F>(pool: Option<&ThreadPool>, sched: Schedule, range: Range<usize>, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    match pool {
        Some(pool) => pool.parallel_for(range, sched, body),
        None => body(range),
    }
}

/// The widest vector, in complex lanes, an exchange step pads tiny states for.
pub(crate) const MAX_WIDTH: usize = 8;

/// Largest gather/scatter scratch kept on the stack by the fused-gate
/// kernels: `2^5` amplitudes, i.e. fused ops up to `k = 5` avoid heap
/// allocation entirely.
pub(crate) const KQ_STACK_DIM: usize = 32;
