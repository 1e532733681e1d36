//! A rank's shard, the exchanges it can take part in, and the loop that
//! runs its op list.
//!
//! [`DistState`] is one rank's slice of the state vector. It executes
//! `RankOp`s — a [`crate::plan::DistPlan`] with every gate already
//! resolved to this rank's [`GateKernel`] — and does not look inside a
//! gate: which ops a circuit becomes is the lowering's business
//! ([`crate::plan`]), and `DistState::run` is the only loop over them,
//! for the plain, the traced and the resilient runs alike. An op is one
//! of
//!
//! * a **run of comm-free kernels, tile by tile**: consecutive sweeps
//!   whose kernels pin to a tile ([`GateKernel::pin`]) walk the shard
//!   once through the serial engine's tiled runner ([`run_tiled`]); a
//!   kernel that moves amplitudes between tiles sweeps the whole shard;
//! * a **global–local swap**: half the shard traded with the partner
//!   across a global axis, blocking, packed into a buffer that moves to
//!   the partner (whose buffer comes back as the next outbox) — or, on
//!   the top local axis, chunked and nonblocking with resident kernels
//!   sweeping each half around the flight;
//! * a **pair exchange**: the whole shard traded, the kernel swept over
//!   both partners' shards side by side, this rank's half kept.
//!
//! Every sweep — tile, shard, half shard, doubled scratch — goes through
//! [`GateKernel::apply`], the serial engine's table, so the distributed
//! arithmetic is the serial arithmetic at a different stride.
//!
//! State-sized buffers cross ranks by move ([`Comm::try_send_owned`]):
//! swap outboxes and, at the end, every non-root shard. A rank drops its
//! exchange buffer with its last exchange, and the root allocates the
//! gathered state only once every shard is in hand, so a run's heap
//! peaks at one state plus every shard, however the ranks interleave.

use std::time::{Duration, Instant};

use mpi_sim::{Buffer, Comm, ANY_SOURCE};
use qcs_core::align::AlignedAmps;
use qcs_core::circuit::Circuit;
use qcs_core::complex::{as_c64_slice, as_f64_slice, as_f64_slice_mut, C64};
use qcs_core::kernels::blocked::{run_tiled, Member, TILE_QUBITS};
use qcs_core::kernels::dispatch::GateKernel;
use qcs_core::kernels::index::insert_zero_bit;
use qcs_core::kernels::simd;
use qcs_core::layout;
use qcs_core::prelude::Schedule;
use qcs_core::state::StateVector;
use qcs_core::telemetry::{ExchangePhase, Tracer};

use crate::error::DistError;
use crate::partition::Partition;
use crate::plan::{plan_circuit, DistPlanKind};

const TAG_XCHG: u32 = 0xD157_0001;
const TAG_SWAP: u32 = 0xD157_0002;
const TAG_GATHER: u32 = 0xD157_0003;
/// Base tag of the chunked overlapped exchange; chunk `i` travels as
/// `TAG_OVL + i`.
const TAG_OVL: u32 = 0xD157_0100;

/// Chunks an overlapped half-buffer exchange is split into.
pub(crate) const OVERLAP_CHUNKS: usize = 8;

/// Bytes on the wire for a C64 buffer (interleaved f64 pairs).
const C64_BYTES: u64 = 16;

/// One op of a rank's program: a [`crate::plan::PlanOp`] with its gates
/// resolved to the kernels this rank sweeps with. It carries kernels,
/// not gates, because a diagonal specialised to a rank's global bits
/// has no `Gate` spelling.
pub(crate) enum RankOp {
    /// Sweep the shard, alone or as a member of a tiled run.
    Sweep(Member<'static>),
    /// Blocking swap of global axis `gq` with local axis `lq`.
    Swap { gq: u32, lq: u32 },
    /// Overlapped swap of `gq` with the top local axis; the `resident`
    /// kernels avoid that axis and sweep each half on its own.
    OverlapSwap { gq: u32, resident: Vec<GateKernel> },
    /// Pair exchange across `gq`, `kernel` over the doubled buffer.
    PairExchange { gq: u32, kernel: GateKernel },
}

/// One rank's slice of a distributed state vector.
///
/// The slice lives in [`AlignedAmps`] storage so the rank-local kernel
/// sweeps run on the same cache-line-aligned buffers as the serial
/// engine (the SIMD backends assert this in debug builds).
///
/// A state built with a tracer records every communication phase —
/// pair exchanges, global–local swaps, the gather — as exchange spans
/// carrying the wire volume and the qubits involved, so E5's
/// communication accounting comes straight out of the trace.
#[derive(Debug)]
pub struct DistState {
    part: Partition,
    rank: usize,
    amps: AlignedAmps,
    tracer: Option<Tracer>,
    /// Reusable exchange scratch, shared by every phase (pair-exchange
    /// doubled buffers and swap outboxes, which trade places with the
    /// partner's) so a long circuit allocates once instead of once per
    /// phase; dropped with the rank's last exchange. 64-byte aligned like
    /// `amps`.
    scratch: Option<AlignedAmps>,
}

impl DistState {
    /// The |0…0⟩ state over `part`, with a tracer of `trace_capacity`
    /// spans when one is given.
    pub(crate) fn new(part: Partition, comm: &Comm, trace_capacity: Option<usize>) -> DistState {
        debug_assert_eq!(part.n_ranks(), comm.size());
        let mut amps = AlignedAmps::zeroed(part.local_len());
        if comm.rank() == 0 {
            amps[0] = C64::real(1.0);
        }
        let tracer = trace_capacity.map(|capacity| {
            let mut t = Tracer::with_defaults(part.n_qubits(), 1, capacity);
            t.set_rank(comm.rank() as i32);
            t
        });
        DistState { part, rank: comm.rank(), amps, tracer, scratch: None }
    }

    /// The |0…0⟩ state distributed over the communicator's world.
    pub fn zero(n_qubits: u32, comm: &Comm) -> Result<DistState, DistError> {
        Ok(DistState::new(Partition::new(n_qubits, comm.size())?, comm, None))
    }

    /// Slice a full state vector (every rank passes the same `full`).
    pub fn from_full(full: &StateVector, comm: &Comm) -> Result<DistState, DistError> {
        let mut st = DistState::zero(full.n_qubits(), comm)?;
        let start = st.part.global_index(st.rank, 0);
        st.amps.copy_from_slice(&full.amplitudes()[start..start + st.part.local_len()]);
        Ok(st)
    }

    /// Record a communication phase that took `wall` — for the
    /// overlapped exchange only its *exposed* time, excluding the
    /// compute hidden in flight. A no-op without a tracer.
    pub(crate) fn record_exchange(
        &self,
        phase: ExchangePhase,
        qubits: &[u32],
        amps_moved: u64,
        wall: Duration,
    ) {
        if let Some(t) = &self.tracer {
            let ns = wall.as_nanos() as u64;
            t.record_exchange(0, phase, qubits, amps_moved, amps_moved * C64_BYTES, ns);
        }
    }

    /// Grab the reusable exchange scratch (≥ `min_len` amplitudes),
    /// allocating only when the demand outgrows the buffer; return it
    /// with `self.scratch = Some(buf)` when done. Alignment matches the
    /// state buffer so kernel sweeps may run inside it.
    fn take_scratch(&mut self, min_len: usize) -> AlignedAmps {
        let buf = match self.scratch.take() {
            Some(b) if b.len() >= min_len => b,
            _ => AlignedAmps::zeroed(min_len),
        };
        debug_assert_eq!(buf.as_ptr() as usize % 64, 0, "exchange scratch must be 64-byte aligned");
        buf
    }

    /// The partition geometry.
    pub fn partition(&self) -> Partition {
        self.part
    }

    /// This rank's index in the world.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's amplitudes.
    pub fn local_amps(&self) -> &[C64] {
        &self.amps
    }

    /// Crate-internal mutable view for the resilient executor's
    /// rollback (restore a checkpointed shard in place).
    pub(crate) fn local_amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// The rank loop: execute `ops` in order, skipping the ones this
    /// rank sits out, each run of comm-free kernels in [`TILE_QUBITS`]
    /// tiles. Transport failures surface as [`DistError::Exchange`] so
    /// the caller can roll back instead of tearing the world down.
    pub(crate) fn run(&mut self, comm: &mut Comm, ops: &[Option<RankOp>]) -> Result<(), DistError> {
        self.run_tiled(comm, ops, TILE_QUBITS.min(self.part.n_local()))
    }

    /// [`DistState::run`] on `2^w`-amplitude tiles.
    fn run_tiled(
        &mut self,
        comm: &mut Comm,
        ops: &[Option<RankOp>],
        w: u32,
    ) -> Result<(), DistError> {
        let last_exchange = ops.iter().rposition(|op| !matches!(op, None | Some(RankOp::Sweep(_))));
        let mut from = 0;
        for (i, op) in ops.iter().enumerate() {
            let Some(op) = op else { continue };
            if matches!(op, RankOp::Sweep(m) if m.pins(w)) {
                continue;
            }
            self.sweep_members(&ops[from..i], w);
            from = i + 1;
            match op {
                RankOp::Sweep(m) => {
                    m.apply(simd::active(), None, Schedule::default(), &mut self.amps)
                }
                &RankOp::Swap { gq, lq } => self.swap_global_local(comm, gq, lq)?,
                RankOp::OverlapSwap { gq, resident } => {
                    self.swap_top_overlapped(comm, *gq, resident)?
                }
                RankOp::PairExchange { gq, kernel } => self.pair_exchange(comm, *gq, kernel)?,
            }
            if Some(i) == last_exchange {
                self.scratch = None;
            }
        }
        self.sweep_members(&ops[from..], w);
        Ok(())
    }

    /// Sweep the comm-free kernels of `run` as one tiled run.
    fn sweep_members(&mut self, run: &[Option<RankOp>], w: u32) {
        let members = run.iter().flatten().filter_map(|op| match op {
            RankOp::Sweep(m) => Some(m),
            _ => None,
        });
        run_tiled(simd::active(), None, Schedule::default(), &mut self.amps, w, members);
    }

    /// Run a whole circuit on this state, under the naive lowering
    /// (which leaves every qubit where it found it).
    pub fn apply_circuit(&mut self, comm: &mut Comm, circuit: &Circuit) -> Result<(), DistError> {
        if circuit.n_qubits() != self.part.n_qubits() {
            return Err(DistError::WidthMismatch {
                circuit: circuit.n_qubits(),
                state: self.part.n_qubits(),
            });
        }
        let plan = plan_circuit(circuit, comm.size(), DistPlanKind::Naive)?;
        self.run(comm, &plan.localize(self.rank))
    }

    /// Whole-buffer pair exchange across global axis `gq`: concatenate
    /// the two partner shards in the scratch (this rank's at index bit
    /// `n_local` equal to its `gq` bit), sweep `kernel` over the doubled
    /// buffer, and keep this rank's half.
    fn pair_exchange(
        &mut self,
        comm: &mut Comm,
        gq: u32,
        kernel: &GateKernel,
    ) -> Result<(), DistError> {
        let t0 = Instant::now();
        let partner = self.part.partner(self.rank, gq);
        let theirs = comm.try_sendrecv(partner, TAG_XCHG, as_f64_slice(&self.amps))?;
        let l = self.amps.len();
        let mut buf = self.take_scratch(2 * l);
        let r = self.part.rank_bit(self.rank, gq);
        buf[r * l..(r + 1) * l].copy_from_slice(&self.amps);
        as_f64_slice_mut(&mut buf[(1 - r) * l..(2 - r) * l]).copy_from_slice(&theirs);
        sweep(kernel, &mut buf[..2 * l]);
        self.amps.copy_from_slice(&buf[r * l..(r + 1) * l]);
        self.scratch = Some(buf);
        let wall = t0.elapsed();
        match *kernel {
            GateKernel::Controlled(c, ..) => {
                self.record_exchange(ExchangePhase::CtrlExchange, &[c, gq], l as u64, wall)
            }
            _ => self.record_exchange(ExchangePhase::PairExchange, &[gq], l as u64, wall),
        }
        Ok(())
    }

    /// Swap global axis `gq` with local axis `lq`: a physical exchange
    /// of half the local buffer. Nothing swaps back; the plan tracks
    /// where each qubit lives. The outbox moves to the partner and the
    /// partner's, once unpacked, becomes this rank's scratch.
    fn swap_global_local(&mut self, comm: &mut Comm, gq: u32, lq: u32) -> Result<(), DistError> {
        debug_assert!(!self.part.is_local(gq) && self.part.is_local(lq));
        let t0 = Instant::now();
        let half = self.amps.len() / 2;
        // Ship the amplitudes whose lq bit ≠ my global bit, gathered
        // into the reusable scratch.
        let want_bit = 1 - self.part.rank_bit(self.rank, gq);
        let at = |j: usize| insert_zero_bit(j, lq) | (want_bit << lq);
        let mut outbox = self.take_scratch(half);
        for j in 0..half {
            outbox[j] = self.amps[at(j)];
        }
        let partner = self.part.partner(self.rank, gq);
        comm.try_send_owned(partner, TAG_SWAP, Moved { amps: outbox, len: half })?;
        let (_, Moved { amps: inbox, len }) = comm.try_recv_owned(partner, TAG_SWAP)?;
        debug_assert_eq!(len, half);
        for j in 0..half {
            self.amps[at(j)] = inbox[j];
        }
        self.scratch = Some(inbox);
        self.record_exchange(ExchangePhase::GlobalSwap, &[gq, lq], half as u64, t0.elapsed());
        Ok(())
    }

    /// Overlapped global–local swap on the *top* local axis
    /// `lq = n_local − 1`: the outgoing contiguous half is sent in
    /// chunks through the nonblocking transport while the `resident`
    /// kernels sweep both halves (the outgoing half before departure,
    /// the kept half during flight). Bit-identical to
    /// `swap_global_local(gq, lq)` after full-shard sweeps of
    /// `resident`, because kernels avoiding `lq` act independently
    /// within each half.
    ///
    /// The recorded [`ExchangePhase::OverlapSwap`] span carries only the
    /// *exposed* wall time (chunk posting + drain), not the hidden
    /// keep-half compute — the separation e5-style accounting needs.
    fn swap_top_overlapped(
        &mut self,
        comm: &mut Comm,
        gq: u32,
        resident: &[GateKernel],
    ) -> Result<(), DistError> {
        let lq = self.part.n_local() - 1;
        debug_assert!(!self.part.is_local(gq));
        debug_assert!(resident.iter().all(|k| k.max_qubit() < lq));
        let half = self.amps.len() / 2;
        let want = 1 - self.part.rank_bit(self.rank, gq);
        let ship = want * half..(want + 1) * half;
        let keep = (1 - want) * half..(2 - want) * half;
        for k in resident {
            sweep(k, &mut self.amps[ship.clone()]);
        }
        let partner = self.part.partner(self.rank, gq);
        let t0 = Instant::now();
        let out = &self.amps[ship.clone()];
        let n_chunks = mpi_sim::chunk_count(half, OVERLAP_CHUNKS);
        let mut off = 0;
        for i in 0..n_chunks {
            let len = half / n_chunks + usize::from(i < half % n_chunks);
            comm.try_send(partner, TAG_OVL + i as u32, as_f64_slice(&out[off..off + len]))?;
            off += len;
        }
        let reqs = comm.irecv_chunked(partner, TAG_OVL, half, OVERLAP_CHUNKS);
        let mut exposed = t0.elapsed();
        for k in resident {
            sweep(k, &mut self.amps[keep.clone()]);
        }
        let t1 = Instant::now();
        let mut w = ship.start;
        for (_, data) in comm.try_waitall::<f64>(reqs)? {
            let end = w + data.len() / 2;
            if end > ship.end {
                break;
            }
            as_f64_slice_mut(&mut self.amps[w..end]).copy_from_slice(&data);
            w = end;
        }
        exposed += t1.elapsed();
        if w != ship.end {
            return Err(DistError::internal(format!(
                "overlapped swap reassembled {} of {half} amplitudes",
                w - ship.start
            )));
        }
        self.record_exchange(ExchangePhase::OverlapSwap, &[gq, lq], half as u64, exposed);
        Ok(())
    }

    /// ⟨ψ|ψ⟩ across all ranks.
    pub fn norm_sqr(&self, comm: &mut Comm) -> f64 {
        let local: f64 = self.amps.iter().map(|a| a.norm_sqr()).sum();
        comm.allreduce_scalar(mpi_sim::collectives::ReduceOp::Sum, local)
    }

    /// Probability that qubit `q` reads 1, across all ranks.
    pub fn prob_qubit_one(&self, comm: &mut Comm, q: u32) -> f64 {
        let local: f64 = if self.part.is_local(q) {
            let mask = 1usize << q;
            self.amps
                .iter()
                .enumerate()
                .filter(|(x, _)| x & mask != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum()
        } else if self.part.rank_bit(self.rank, q) == 1 {
            self.amps.iter().map(|a| a.norm_sqr()).sum()
        } else {
            0.0
        };
        comm.allreduce_scalar(mpi_sim::collectives::ReduceOp::Sum, local)
    }

    /// Projective measurement of qubit `q`, collapsing the distributed
    /// state. All ranks return the same outcome.
    ///
    /// The Born draw happens on rank 0 with `u ∈ [0,1)` supplied by the
    /// caller (so the caller controls the randomness source); the
    /// decision is broadcast, and each rank collapses its slice locally.
    pub fn measure_qubit(&mut self, comm: &mut Comm, q: u32, u: f64) -> u8 {
        let p1 = self.prob_qubit_one(comm, q);
        // Rank 0 decides; everyone must agree even if `u` differs between
        // ranks (caller bug) — broadcast the decision.
        let mut decision = vec![u8::from(u < p1)];
        comm.bcast(0, &mut decision);
        let outcome = decision[0];
        self.collapse(comm, q, outcome);
        outcome
    }

    /// Project qubit `q` onto `outcome` and renormalize across ranks.
    pub fn collapse(&mut self, comm: &mut Comm, q: u32, outcome: u8) {
        let keep_set = outcome == 1;
        let p1 = self.prob_qubit_one(comm, q);
        let p = if keep_set { p1 } else { 1.0 - p1 };
        assert!(p > 1e-14, "collapsing qubit {q} onto probability-{p} outcome {outcome}");
        let scale = 1.0 / p.sqrt();
        if self.part.is_local(q) {
            let bit = 1usize << q;
            for (x, a) in self.amps.iter_mut().enumerate() {
                if ((x & bit) != 0) == keep_set {
                    *a = a.scale(scale);
                } else {
                    *a = C64::default();
                }
            }
        } else if (self.part.rank_bit(self.rank, q) == 1) == keep_set {
            for a in &mut self.amps {
                *a = a.scale(scale);
            }
        } else {
            for a in &mut self.amps {
                *a = C64::default();
            }
        }
    }

    /// Multi-shot sampling of the full register without collapsing the
    /// state and without gathering it: draws are routed to the owning
    /// rank by a two-level inverse transform (rank masses, then local
    /// CDF). All ranks receive the complete `(basis_index, count)` list.
    ///
    /// `us` supplies one uniform draw in `[0,1)` per shot — every rank
    /// must pass identical values (derive them from a shared seed).
    pub fn sample_counts(&self, comm: &mut Comm, us: &[f64]) -> Vec<(usize, u64)> {
        // Rank-level masses, shared with everyone.
        let local_mass: f64 = self.amps.iter().map(|a| a.norm_sqr()).sum();
        let masses = comm.allgather(&[local_mass]);
        let mut rank_cdf = Vec::with_capacity(masses.len());
        let mut acc = 0.0;
        for m in &masses {
            acc += m;
            rank_cdf.push(acc);
        }
        let total = acc;
        // Local CDF over this rank's slice.
        let mut local_cdf = Vec::with_capacity(self.amps.len());
        let mut lacc = 0.0;
        for a in &self.amps {
            lacc += a.norm_sqr();
            local_cdf.push(lacc);
        }
        // Every rank resolves every shot deterministically; only the
        // owner resolves the local index, then contributes it via an
        // element-wise allreduce (index encoded as f64 — exact for
        // indices < 2^53).
        let mut mine = vec![0.0f64; us.len()];
        let my_base = if comm.rank() == 0 { 0.0 } else { rank_cdf[comm.rank() - 1] };
        for (shot, &u) in us.iter().enumerate() {
            let x = u * total;
            let owner = rank_cdf.partition_point(|&c| c <= x).min(masses.len() - 1);
            if owner == comm.rank() {
                let local_x = x - my_base;
                let idx = local_cdf.partition_point(|&c| c <= local_x).min(self.amps.len() - 1);
                mine[shot] = self.part.global_index(self.rank, idx) as f64;
            }
        }
        let resolved = comm.allreduce(mpi_sim::collectives::ReduceOp::Sum, &mine);
        let mut counts = std::collections::BTreeMap::new();
        for r in resolved {
            *counts.entry(r as usize).or_insert(0u64) += 1;
        }
        counts.into_iter().collect()
    }

    /// Reassemble the full state on every rank (allgather).
    pub fn allgather_full(&self, comm: &mut Comm) -> StateVector {
        let raw = comm.allgather(as_f64_slice(&self.amps));
        let shards: Vec<&[C64]> = as_c64_slice(&raw).chunks_exact(self.amps.len()).collect();
        let identity: Vec<u32> = (0..self.part.n_qubits()).collect();
        layout::gather(&identity, &shards, 1)
    }

    /// Gather the state at rank 0, the only rank that returns it, in
    /// logical order (`logical_at[p]` = logical qubit on physical axis
    /// `p`). Every other rank moves its shard to the root. The root takes
    /// them all before it allocates the state — a rank that has sent its
    /// shard holds no other buffer, so the heap peaks at every shard plus
    /// one state, whatever the ranks' timing — then writes the state once
    /// in one pass over every shard ([`layout::gather`]) on up to one
    /// thread per rank, the other ranks' bodies being done. Also hands
    /// back the tracer, this gather its last span.
    pub(crate) fn into_state(
        self,
        comm: &mut Comm,
        logical_at: &[u32],
    ) -> Result<(Option<StateVector>, Option<Tracer>), DistError> {
        let DistState { part, rank, amps, tracer, scratch } = self;
        drop(scratch);
        let t0 = Instant::now();
        let (state, moved) = if rank == 0 {
            let mut shards = vec![(0, amps)];
            for _ in 1..part.n_ranks() {
                let (src, Moved { amps, len }) = comm.try_recv_owned(ANY_SOURCE, TAG_GATHER)?;
                debug_assert_eq!(len, part.local_len());
                shards.push((src, amps));
            }
            shards.sort_unstable_by_key(|&(src, _)| src);
            let views: Vec<&[C64]> = shards.iter().map(|(_, s)| &s[..]).collect();
            let out = layout::gather(logical_at, &views, part.n_ranks());
            (Some(out), (part.n_ranks() - 1) * part.local_len())
        } else {
            comm.try_send_owned(0, TAG_GATHER, Moved { len: amps.len(), amps })?;
            (None, part.local_len())
        };
        if let Some(t) = &tracer {
            let (amps, ns) = (moved as u64, t0.elapsed().as_nanos() as u64);
            t.record_exchange(0, ExchangePhase::Collective, &[], amps, amps * C64_BYTES, ns);
        }
        Ok((state, tracer))
    }
}

/// The first `len` amplitudes of `amps` as a message: on the fast path
/// the buffer itself moves to the receiver, under a fault plan its
/// interleaved `f64`s are copied as a slice send's are.
struct Moved {
    amps: AlignedAmps,
    len: usize,
}

impl Buffer for Moved {
    type Elem = f64;

    fn elems(&self) -> &[f64] {
        as_f64_slice(&self.amps[..self.len])
    }

    fn from_elems(elems: &[f64]) -> Moved {
        let amps = AlignedAmps::from_slice(as_c64_slice(elems));
        Moved { len: amps.len(), amps }
    }
}

/// One pool-less sweep of `kernel` over a shard, half a shard or
/// a doubled scratch, on the process-wide backend.
fn sweep(kernel: &GateKernel, amps: &mut [C64]) {
    kernel.apply(simd::active(), None, Schedule::default(), amps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{
        run_distributed, run_distributed_planned, run_distributed_planned_traced,
        run_distributed_traced, run_world,
    };
    use mpi_sim::World;
    use qcs_core::library;
    use qcs_core::sim::Simulator;
    use qcs_core::telemetry::{SpanKind, TelemetryConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-10;

    fn serial_reference(circuit: &Circuit) -> StateVector {
        let mut s = StateVector::zero(circuit.n_qubits());
        Simulator::new().run(circuit, &mut s).unwrap();
        s
    }

    fn check_distributed(circuit: &Circuit, n_ranks: usize) {
        let reference = serial_reference(circuit);
        for kind in DistPlanKind::ALL {
            let (dist, _) = run_distributed_planned(circuit, n_ranks, kind).unwrap();
            assert!(
                dist.approx_eq(&reference, EPS),
                "{kind} ranks={n_ranks}: max diff {}",
                dist.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn ghz_distributed_matches_serial() {
        for ranks in [1usize, 2, 4, 8] {
            check_distributed(&library::ghz(8), ranks);
        }
    }

    #[test]
    fn qft_distributed_matches_serial() {
        for ranks in [2usize, 4] {
            check_distributed(&library::qft(7), ranks);
        }
    }

    #[test]
    fn random_circuits_distributed_match_serial() {
        for seed in 0..3u64 {
            for ranks in [2usize, 4, 8] {
                check_distributed(&library::random_circuit(7, 8, seed), ranks);
            }
        }
    }

    #[test]
    fn quantum_volume_distributed_matches_serial() {
        check_distributed(&library::quantum_volume(6, 5), 4);
    }

    #[test]
    fn trotter_distributed_matches_serial() {
        check_distributed(&library::trotter_ising(7, 3, 1.0, 0.6, 0.1), 4);
    }

    #[test]
    fn global_qubit_dense_gates_exchange_buffers() {
        // One H on the top qubit of an 8-qubit state over 4 ranks must
        // exchange exactly one local buffer per rank.
        let mut c = Circuit::new(8);
        c.h(7); // global for 4 ranks (local = 6 qubits)
        let (_, stats) = run_distributed_planned(&c, 4, DistPlanKind::Naive).unwrap();
        let local_bytes = (1u64 << 6) * 16;
        for s in &stats {
            // The gather at the end also communicates; subtract by checking
            // the exchange happened: at least one message of local_bytes.
            assert!(
                s.bytes_sent >= local_bytes,
                "expected ≥ {local_bytes} exchanged, saw {}",
                s.bytes_sent
            );
        }
    }

    #[test]
    fn local_gates_need_no_exchange() {
        // All gates on low qubits: the only traffic is the final gather.
        let mut with_gates = Circuit::new(8);
        with_gates.h(0).h(1).cx(0, 1).rz(2, 0.3);
        let empty = Circuit::new(8);
        let (_, stats_gates) = run_distributed(&with_gates, 4).unwrap();
        let (_, stats_empty) = run_distributed(&empty, 4).unwrap();
        for (a, b) in stats_gates.iter().zip(&stats_empty) {
            assert_eq!(a.bytes_sent, b.bytes_sent, "local gates must add zero communication");
        }
    }

    #[test]
    fn diagonal_global_gates_need_no_exchange() {
        let mut diag = Circuit::new(8);
        diag.rz(7, 0.9).cz(6, 7).cp(7, 0, 0.4).rzz(6, 7, 0.2).t(7);
        let empty = Circuit::new(8);
        let (_, a) = run_distributed(&diag, 4).unwrap();
        let (_, b) = run_distributed(&empty, 4).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes_sent, y.bytes_sent, "diagonal gates are communication-free");
        }
        // And they are also *correct*.
        check_distributed(&diag, 4);
    }

    #[test]
    fn global_control_cx_needs_no_exchange() {
        let mut c = Circuit::new(8);
        c.h(0).cx(7, 0); // control global, target local
        let mut h_only = Circuit::new(8);
        h_only.h(0);
        let (_, a) = run_distributed(&c, 4).unwrap();
        let (_, b) = run_distributed(&h_only, 4).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes_sent, y.bytes_sent);
        }
        check_distributed(&c, 4);
    }

    #[test]
    fn traced_run_matches_untraced_and_accounts_exchange_volume() {
        // One H on a global qubit over 4 ranks: each rank exchanges its
        // whole local buffer once (pair exchange), and the final gather
        // moves every other rank's buffer to rank 0. The tracer must see
        // exactly those spans with the right amplitude counts — this is
        // the volume accounting the communication experiments read off
        // the trace.
        let mut c = Circuit::new(8);
        c.h(7);
        let reference = serial_reference(&c);
        let cfg = TelemetryConfig::on();
        let (state, _, traces) =
            run_distributed_planned_traced(&c, 4, DistPlanKind::Naive, &cfg).unwrap();
        assert!(state.approx_eq(&reference, EPS));
        assert_eq!(traces.len(), 4);
        let local_amps = 1u64 << 6;
        for (rank, trace) in traces.iter().enumerate() {
            assert_eq!(trace.meta.strategy, "dist:4");
            let pair: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Exchange(ExchangePhase::PairExchange))
                .collect();
            let coll: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Exchange(ExchangePhase::Collective))
                .collect();
            assert_eq!(pair.len(), 1, "rank {rank}: one pair exchange for the global H");
            assert_eq!(coll.len(), 1, "rank {rank}: one final gather");
            let moved = if rank == 0 { 3 * local_amps } else { local_amps };
            assert_eq!(coll[0].amps, moved, "rank {rank}: received at the root, sent elsewhere");
            assert_eq!(coll[0].bytes, moved * C64_BYTES);
            assert_eq!(pair[0].amps, local_amps);
            assert_eq!(pair[0].bytes, local_amps * C64_BYTES);
            assert_eq!(pair[0].qubits, vec![7]);
            assert_eq!(pair[0].rank, rank as i32);
            assert_eq!(pair[0].bottleneck, "network");
        }
    }

    #[test]
    fn traced_remap_records_global_swaps() {
        // A dense 2q gate on two global qubits forces remapping: the
        // engine swaps each global qubit with a local one (half-buffer
        // exchanges), applies locally, then swaps back.
        let mut c = Circuit::new(8);
        c.h(6).h(7).iswap(6, 7);
        let (state, _, traces) =
            run_distributed_planned_traced(&c, 4, DistPlanKind::Naive, &TelemetryConfig::on())
                .unwrap();
        assert!(state.approx_eq(&serial_reference(&c), EPS));
        let swaps: usize = traces
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.kind == SpanKind::Exchange(ExchangePhase::GlobalSwap))
            .count();
        assert!(swaps > 0, "remapped dense gate must record global-swap spans");
        for t in &traces {
            for s in &t.spans {
                if s.kind == SpanKind::Exchange(ExchangePhase::GlobalSwap) {
                    assert_eq!(s.amps, 1u64 << 5, "half the local buffer moves per swap");
                }
            }
        }
    }

    #[test]
    fn traced_runs_write_one_jsonl_block_per_rank() {
        let dir = std::env::temp_dir().join("qcs_dist_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut c = Circuit::new(6);
        c.h(5).cx(5, 0);
        let cfg = TelemetryConfig::on().with_output(&path);
        let (_, _, traces) = run_distributed_traced(&c, 2, &cfg).unwrap();
        let read = qcs_core::telemetry::sink::read_jsonl(&path).unwrap();
        assert_eq!(read.len(), 2, "one run block per rank");
        for (mem, disk) in traces.iter().zip(&read) {
            assert_eq!(mem.meta, disk.meta);
            assert_eq!(mem.spans.len(), disk.spans.len());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dense_two_qubit_on_globals_via_remap() {
        let mut c = Circuit::new(8);
        c.h(6).h(7).iswap(6, 7).rxx(5, 7, 0.7).swap(6, 2);
        check_distributed(&c, 4);
        check_distributed(&c, 8);
    }

    #[test]
    fn toffoli_with_global_qubits() {
        let mut c = Circuit::new(8);
        c.h(7).h(6).h(0).ccx(7, 6, 0).ccx(0, 7, 6);
        check_distributed(&c, 4);
    }

    #[test]
    fn from_full_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let full = StateVector::random(8, &mut rng);
        let full2 = full.clone();
        let gathered = World::run(4, move |comm| {
            let st = DistState::from_full(&full2, comm).unwrap();
            st.allgather_full(comm)
        });
        for g in gathered {
            assert!(g.approx_eq(&full, 0.0));
        }
    }

    #[test]
    fn norm_and_probabilities_across_ranks() {
        let c = library::ghz(8);
        let reference = serial_reference(&c);
        let p1_ref: Vec<f64> = (0..8).map(|q| reference.prob_qubit_one(q)).collect();
        let results = World::run(4, |comm| {
            let mut st = DistState::zero(8, comm).unwrap();
            st.apply_circuit(comm, &library::ghz(8)).unwrap();
            let norm = st.norm_sqr(comm);
            let p1: Vec<f64> = (0..8).map(|q| st.prob_qubit_one(comm, q)).collect();
            (norm, p1)
        });
        for (norm, p1) in results {
            assert!((norm - 1.0).abs() < EPS);
            for (a, b) in p1.iter().zip(&p1_ref) {
                assert!((a - b).abs() < EPS);
            }
        }
    }

    #[test]
    fn distributed_measurement_collapses_ghz() {
        // Measuring any qubit of a GHZ state pins every other qubit; both
        // local (q=0) and global (q=7 on 4 ranks) measurements must work.
        for q in [0u32, 7] {
            for forced in [0.0, 0.999_999] {
                let results = World::run(4, move |comm| {
                    let mut st = DistState::zero(8, comm).unwrap();
                    st.apply_circuit(comm, &library::ghz(8)).unwrap();
                    let outcome = st.measure_qubit(comm, q, forced);
                    let norm = st.norm_sqr(comm);
                    let p_other = st.prob_qubit_one(comm, (q + 3) % 8);
                    (outcome, norm, p_other)
                });
                let expect = u8::from(forced < 0.5); // P(1) = 0.5 exactly
                for (outcome, norm, p_other) in results {
                    assert_eq!(outcome, expect, "q={q} forced={forced}");
                    assert!((norm - 1.0).abs() < EPS);
                    assert!((p_other - outcome as f64).abs() < EPS, "GHZ correlation");
                }
            }
        }
    }

    #[test]
    fn distributed_collapse_matches_serial() {
        let c = library::random_circuit(8, 6, 15);
        let mut serial = serial_reference(&c);
        qcs_core::measure::collapse(&mut serial, 5, 1);
        let serial_clone = serial.clone();
        let c2 = c.clone();
        let results = World::run(4, move |comm| {
            let mut st = DistState::zero(8, comm).unwrap();
            st.apply_circuit(comm, &c2).unwrap();
            st.collapse(comm, 5, 1);
            st.allgather_full(comm)
        });
        for r in results {
            assert!(r.approx_eq(&serial_clone, EPS));
        }
    }

    #[test]
    fn distributed_sampling_matches_serial_sampler() {
        // Same uniform draws through the serial inverse-transform sampler
        // and the distributed one must yield identical samples.
        let c = library::random_circuit(8, 6, 44);
        let serial = serial_reference(&c);
        let mut rng = StdRng::seed_from_u64(99);
        let us: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..1.0)).collect();
        // Serial reference sampler on the same draws.
        let mut cdf = Vec::new();
        let mut acc = 0.0;
        for a in serial.amplitudes() {
            acc += a.norm_sqr();
            cdf.push(acc);
        }
        let mut expected = std::collections::BTreeMap::new();
        for &u in &us {
            let x = u * acc;
            let idx = cdf.partition_point(|&cv| cv <= x).min(cdf.len() - 1);
            *expected.entry(idx).or_insert(0u64) += 1;
        }
        let expected: Vec<(usize, u64)> = expected.into_iter().collect();

        for ranks in [2usize, 4] {
            let c2 = c.clone();
            let us2 = us.clone();
            let results = World::run(ranks, move |comm| {
                let mut st = DistState::zero(8, comm).unwrap();
                st.apply_circuit(comm, &c2).unwrap();
                st.sample_counts(comm, &us2)
            });
            for r in results {
                assert_eq!(r, expected, "ranks={ranks}");
            }
        }
    }

    #[test]
    fn distributed_sampling_of_basis_state() {
        let results = World::run(4, |comm| {
            let mut st = DistState::zero(8, comm).unwrap();
            st.apply_circuit(comm, &{
                let mut c = Circuit::new(8);
                c.x(2).x(7);
                c
            })
            .unwrap();
            st.sample_counts(comm, &[0.1, 0.5, 0.9])
        });
        for r in results {
            assert_eq!(r, vec![(0b10000100, 3)]);
        }
    }

    /// The per-amplitude fold the tiled gather replaced, kept as its
    /// oracle: physical index `x` goes to logical index `y`.
    fn fold_reference(raw: &[C64], logical_at: &[u32]) -> Vec<C64> {
        let mut out = vec![C64::default(); raw.len()];
        for (x, &a) in raw.iter().enumerate() {
            let y = logical_at.iter().enumerate().fold(0, |y, (p, &l)| y | ((x >> p) & 1) << l);
            out[y] = a;
        }
        out
    }

    /// `raw` (physical order) cut into `ranks` shards and gathered as
    /// `into_state` gathers, read from memory and from each shard's copied
    /// wire form, must rebuild the fold's state bit for bit.
    fn check_gather(raw: &[C64], logical_at: &[u32], ranks: usize) {
        let want = fold_reference(raw, logical_at);
        let shards: Vec<&[C64]> = raw.chunks_exact(raw.len() / ranks).collect();
        let wire: Vec<Moved> = shards.iter().map(|s| Moved::from_elems(as_f64_slice(s))).collect();
        let copied: Vec<&[C64]> = wire.iter().map(|m| &m.amps[..m.len]).collect();
        for from in [&shards, &copied] {
            let got = layout::gather(logical_at, from, ranks);
            let ctx = format!("{logical_at:?} over {ranks} ranks");
            assert_eq!(as_f64_slice(got.amplitudes()), as_f64_slice(&want), "{ctx}");
        }
    }

    /// `2^n` distinct amplitudes, so a misplaced write shows.
    fn distinct(n: u32) -> Vec<C64> {
        (0..1usize << n).map(|i| C64::new(i as f64, -0.5 - i as f64)).collect()
    }

    #[test]
    fn gather_matches_the_fold_on_random_permutations_of_wire_shards() {
        let mut rng = StdRng::seed_from_u64(32);
        for n in 1..=9u32 {
            for ranks in [1usize, 2, 4, 8].into_iter().filter(|&r| r <= 1 << n) {
                let mut logical_at: Vec<u32> = (0..n).collect();
                for i in (1..logical_at.len()).rev() {
                    logical_at.swap(i, rng.gen_range(0..=i));
                }
                check_gather(&distinct(n), &logical_at, ranks);
            }
        }
    }

    #[test]
    fn gather_matches_the_fold_when_local_axes_stay_put() {
        // The identity, and a layout that swaps only global axes: both
        // copy in order, the second from moved shards.
        let raw = distinct(9);
        let identity: Vec<u32> = (0..9).collect();
        for ranks in [1usize, 2, 4, 8] {
            check_gather(&raw, &identity, ranks);
        }
        check_gather(&raw, &[0, 1, 2, 3, 4, 5, 8, 6, 7], 8);
    }

    #[test]
    fn gather_matches_the_fold_on_planned_layouts() {
        for c in [library::qft(9), library::random_circuit(8, 24, 42)] {
            for ranks in [2usize, 4, 8] {
                for kind in [DistPlanKind::Reorder, DistPlanKind::Overlap] {
                    let plan = plan_circuit(&c, ranks, kind).unwrap();
                    check_gather(&distinct(c.n_qubits()), &plan.logical_at, ranks);
                }
            }
        }
    }

    #[test]
    fn moved_swap_trades_buffers_with_the_partner() {
        // Each rank's outbox becomes its partner's scratch: the buffer
        // moved, nothing was copied into a fresh one. The shards then
        // hold the state with the two axes swapped.
        let mut rng = StdRng::seed_from_u64(44);
        let full = StateVector::random(6, &mut rng);
        let mut want = full.clone();
        let mut swap = Circuit::new(6);
        swap.swap(5, 1);
        Simulator::new().run(&swap, &mut want).unwrap();
        let got = World::run(2, |comm| {
            let mut st = DistState::from_full(&full, comm).unwrap();
            let scratch = AlignedAmps::zeroed(st.amps.len() / 2);
            let sent = scratch.as_ptr() as usize;
            st.scratch = Some(scratch);
            st.swap_global_local(comm, 5, 1).unwrap();
            let kept = st.scratch.as_ref().map(|b| b.as_ptr() as usize);
            (sent, kept, st.allgather_full(comm))
        });
        for (rank, (_, kept, state)) in got.iter().enumerate() {
            assert_eq!(*kept, Some(got[1 - rank].0), "rank {rank} kept a copy");
            assert_eq!(as_f64_slice(state.amplitudes()), as_f64_slice(want.amplitudes()));
        }
    }

    #[test]
    fn moved_runs_hold_no_exchange_buffer_after_the_last_swap() {
        // A reorder run swaps, then sweeps: by the gather no rank holds
        // a swap buffer, and the moved shards rebuild the serial state.
        let c = library::qft(6);
        for ranks in [2usize, 4] {
            let run =
                run_world(&c, ranks, DistPlanKind::Reorder, None, None, "", |st, comm, _, ops| {
                    st.run(comm, ops)?;
                    Ok(st.scratch.is_none())
                })
                .unwrap();
            assert_eq!(run.per_rank, vec![true; ranks], "ranks={ranks}");
            let want = serial_reference(&c);
            assert_eq!(as_f64_slice(run.state.amplitudes()), as_f64_slice(want.amplitudes()));
        }
    }

    /// The engine tests' circuit family, dressed so every amplitude is a
    /// full complex number before the circuit proper.
    fn tiling_family() -> Vec<Circuit> {
        let dress = |c: Circuit| {
            let mut d = Circuit::new(c.n_qubits());
            for q in 0..c.n_qubits() {
                d.ry(q, 0.4 + 0.3 * q as f64).rz(q, 0.9 - 0.2 * q as f64);
            }
            d.append(&c);
            d
        };
        [
            library::ghz(8),
            library::qft(7),
            library::random_circuit(7, 8, 1),
            library::quantum_volume(6, 5),
            library::trotter_ising(7, 3, 1.0, 0.6, 0.1),
        ]
        .into_iter()
        .map(dress)
        .collect()
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn tiled_runs_match_untiled_at_every_width() {
        // Untiled: every op on its own, so each sweep covers the shard.
        for c in tiling_family() {
            for ranks in [2usize, 4, 8] {
                for kind in DistPlanKind::ALL {
                    let run = |tile: Option<u32>| {
                        run_world(&c, ranks, kind, None, None, "", |st, comm, _, ops| match tile {
                            Some(w) => st.run_tiled(comm, ops, w),
                            None => {
                                ops.chunks(1).try_for_each(|op| st.run_tiled(comm, op, TILE_QUBITS))
                            }
                        })
                        .unwrap()
                        .state
                    };
                    let untiled = run(None);
                    for w in 1..=Partition::new(c.n_qubits(), ranks).unwrap().n_local() {
                        let tiled = run(Some(w));
                        assert!(
                            tiled.approx_eq(&untiled, 0.0),
                            "{kind} ranks={ranks} width={w}: max diff {}",
                            tiled.max_abs_diff(&untiled)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_sweeps_match_per_kernel_sweeps_on_one_shard() {
        // The serial twin of the test above, with no rank threads: each
        // rank's kernels that pin at the width, exchanges left out, as
        // one tiled run on a random shard against one full-shard sweep
        // per kernel.
        let mut rng = StdRng::seed_from_u64(35);
        for c in [library::qft(7), library::random_circuit(7, 8, 1)] {
            for ranks in [2usize, 4] {
                let plan = plan_circuit(&c, ranks, DistPlanKind::Reorder).unwrap();
                let n_local = plan.part.n_local();
                for rank in 0..ranks {
                    let shard = StateVector::random(n_local, &mut rng);
                    for w in 1..=n_local {
                        let run: Vec<_> = plan
                            .localize(rank)
                            .into_iter()
                            .filter_map(|op| match op {
                                Some(RankOp::Sweep(m)) if m.pins(w) => Some(m),
                                _ => None,
                            })
                            .collect();
                        let be = simd::active();
                        let mut want = AlignedAmps::from_slice(shard.amplitudes());
                        for m in &run {
                            m.apply(be, None, Schedule::default(), &mut want);
                        }
                        let mut got = AlignedAmps::from_slice(shard.amplitudes());
                        run_tiled(be, None, Schedule::default(), &mut got, w, run.iter());
                        assert_eq!(
                            as_f64_slice(&got),
                            as_f64_slice(&want),
                            "ranks={ranks} rank={rank} width={w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn grover_distributed() {
        let c = library::grover(6, 37);
        let (dist, _) = run_distributed(&c, 4).unwrap();
        let argmax =
            (0..64).max_by(|&a, &b| dist.probability(a).total_cmp(&dist.probability(b))).unwrap();
        assert_eq!(argmax, 37);
    }
}
