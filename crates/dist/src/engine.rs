//! The distributed state and its three communication regimes.
//!
//! 1. **No communication** — gates whose qubits are all local, and *any*
//!    diagonal gate (global bits are constant per rank, so the phase
//!    factor is a rank-local constant).
//! 2. **Pair exchange** — a dense 1-qubit (or controlled) gate on a
//!    global qubit: each rank exchanges its whole local buffer with the
//!    partner rank differing in that global bit, then combines rows.
//!    Cost: `2^{n_local}` amplitudes per rank per gate — the dominant
//!    communication term of distributed state-vector simulation.
//! 3. **Global–local qubit swap** — everything else (dense 2q+ gates on
//!    global qubits): swap the global qubit with a free local one (half a
//!    buffer exchanged), apply locally, swap back.

use std::sync::Arc;
use std::time::Instant;

use mpi_sim::Comm;
use qcs_core::align::AlignedAmps;
use qcs_core::circuit::{Circuit, Gate};
use qcs_core::complex::{as_f64_slice, C64};
use qcs_core::kernels::dispatch::apply_gate as apply_local;
use qcs_core::kernels::index::insert_zero_bit;
use qcs_core::state::StateVector;
use qcs_core::telemetry::{ExchangePhase, TelemetryConfig, Trace, Tracer};

use crate::error::DistError;
use crate::partition::Partition;

const TAG_XCHG: u32 = 0xD157_0001;
const TAG_SWAP: u32 = 0xD157_0002;
/// Base tag of the chunked overlapped exchange; chunk `i` travels as
/// `TAG_OVL + i`.
const TAG_OVL: u32 = 0xD157_0100;

/// Chunks an overlapped half-buffer exchange is split into.
pub(crate) const OVERLAP_CHUNKS: usize = 8;

/// Bytes on the wire for a C64 buffer (interleaved f64 pairs).
const C64_BYTES: u64 = 16;

/// One rank's slice of a distributed state vector.
///
/// The slice lives in [`AlignedAmps`] storage so the rank-local kernel
/// sweeps run on the same cache-line-aligned buffers as the serial
/// engine (the SIMD backends assert this in debug builds).
///
/// An attached [`Tracer`] (see [`DistState::set_tracer`]) records every
/// communication phase — pair exchanges, controlled exchanges,
/// global–local swaps, and collectives — as exchange spans carrying the
/// wire volume and the global qubit involved, so E5's communication
/// accounting comes straight out of the trace instead of
/// subtract-the-empty-circuit arithmetic.
#[derive(Debug, Clone)]
pub struct DistState {
    part: Partition,
    rank: usize,
    amps: AlignedAmps,
    tracer: Option<Arc<Tracer>>,
    /// Reusable exchange scratch, shared by every phase (pair-exchange
    /// doubled buffers and swap outboxes) so a long circuit allocates
    /// once instead of once per phase. 64-byte aligned like `amps`.
    scratch: Option<AlignedAmps>,
}

/// Send a complex slice as interleaved f64 (C64 is repr(C) f64-pairs).
/// Transport failures surface as [`DistError::Exchange`] so the caller
/// can roll back instead of tearing the world down.
fn sendrecv_c64(
    comm: &mut Comm,
    peer: usize,
    tag: u32,
    data: &[C64],
) -> Result<Vec<C64>, DistError> {
    let raw = comm.try_sendrecv(peer, tag, as_f64_slice(data))?;
    Ok(raw.chunks_exact(2).map(|p| C64::new(p[0], p[1])).collect())
}

/// The value of global qubit `q`'s bit on `rank`.
#[inline]
fn global_bit_of(part: &Partition, rank: usize, q: u32) -> bool {
    (rank >> part.global_bit(q)) & 1 == 1
}

impl DistState {
    /// The |0…0⟩ state distributed over the communicator's world.
    pub fn zero(n_qubits: u32, comm: &Comm) -> DistState {
        let part = Partition::new(n_qubits, comm.size());
        let mut amps = AlignedAmps::zeroed(part.local_len());
        if comm.rank() == 0 {
            amps[0] = C64::real(1.0);
        }
        DistState { part, rank: comm.rank(), amps, tracer: None, scratch: None }
    }

    /// Slice a full state vector (every rank passes the same `full`).
    pub fn from_full(full: &StateVector, comm: &Comm) -> DistState {
        let part = Partition::new(full.n_qubits(), comm.size());
        let rank = comm.rank();
        let start = part.global_index(rank, 0);
        let amps = AlignedAmps::from_slice(&full.amplitudes()[start..start + part.local_len()]);
        DistState { part, rank, amps, tracer: None, scratch: None }
    }

    /// Attach (or detach) a tracer; subsequent communication phases are
    /// recorded as exchange spans stamped with this rank.
    pub fn set_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.tracer = tracer;
    }

    pub(crate) fn record_exchange(
        &self,
        phase: ExchangePhase,
        qubits: &[u32],
        amps_moved: u64,
        started: Option<Instant>,
    ) {
        if let (Some(_), Some(t0)) = (&self.tracer, started) {
            self.record_exchange_ns(phase, qubits, amps_moved, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Like [`DistState::record_exchange`], with the wall time supplied
    /// by the caller — the overlapped exchange records only its
    /// *exposed* nanoseconds, excluding the compute hidden in flight.
    pub(crate) fn record_exchange_ns(
        &self,
        phase: ExchangePhase,
        qubits: &[u32],
        amps_moved: u64,
        wall_ns: u64,
    ) {
        if let Some(t) = &self.tracer {
            t.record_exchange(0, phase, qubits, amps_moved, amps_moved * C64_BYTES, wall_ns);
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

    /// Can `gate` run without communication under `part`? True for
    /// all-local gates, any diagonal gate (global bits are rank-wide
    /// constants), and controlled gates whose control is global but
    /// target local. The distributed planner's relocation rule is the
    /// complement of this predicate.
    pub(crate) fn is_comm_free(part: &Partition, gate: &Gate) -> bool {
        let qs = gate.qubits();
        if qs.iter().all(|&q| part.is_local(q)) {
            return true;
        }
        if gate.is_diagonal() {
            return true;
        }
        if let Some((c, t, _)) = gate.as_controlled() {
            if !part.is_local(c) && part.is_local(t) {
                return true;
            }
        }
        false
    }

    /// Apply one gate, communicating as needed.
    pub fn apply_gate(&mut self, comm: &mut Comm, gate: &Gate) -> Result<(), DistError> {
        if Self::is_comm_free(&self.part, gate) {
            return Self::apply_resident_slice(&self.part, self.rank, &mut self.amps, gate);
        }
        let vq = self.part.n_local();
        // Dense 1q on a global qubit: direct pair exchange, dispatching
        // the original gate variant at a virtual doubled-buffer axis so
        // the kernel (and its rounding) is the one the serial engine
        // would have run.
        if let Some((q, _)) = gate.as_single() {
            let virtual_gate = gate.remap(|_| vq);
            return self.pair_exchange_dispatch(
                comm,
                ExchangePhase::PairExchange,
                &[q],
                q,
                &virtual_gate,
            );
        }
        // Controlled dense gates get the cheap special cases.
        if let Some((c, t, m)) = gate.as_controlled() {
            let c_local = self.part.is_local(c);
            debug_assert!(!self.part.is_local(t), "comm-free controlled cases handled above");
            return if c_local {
                // Local control, global target: exchange, then run the
                // original controlled kernel against the virtual axis.
                let virtual_gate = gate.remap(|q| if q == t { vq } else { q });
                self.pair_exchange_dispatch(
                    comm,
                    ExchangePhase::CtrlExchange,
                    &[c, t],
                    t,
                    &virtual_gate,
                )
            } else if self.global_bit_value(c) {
                // Both global, control set here (and on the partner,
                // which differs only in the target bit): the control is
                // satisfied buffer-wide, so a dense 1q on the virtual
                // axis applies the same per-pair arithmetic the serial
                // controlled kernel would.
                self.pair_exchange_dispatch(
                    comm,
                    ExchangePhase::PairExchange,
                    &[t],
                    t,
                    &Gate::Unitary1(vq, m),
                )
            } else {
                // Partner has the same (clear) control bit and also
                // skips; no exchange needed.
                Ok(())
            };
        }
        // General fallback: relocate each global qubit to a free local
        // position, apply, relocate back.
        self.apply_via_remap(comm, gate)
    }

    /// Apply a communication-free gate (see [`DistState::is_comm_free`])
    /// to `amps` — the rank's full buffer, or one contiguous half of it
    /// during an overlapped exchange (legal whenever the gate does not
    /// touch the top local axis, because every kernel then acts
    /// independently within each half).
    fn apply_resident_slice(
        part: &Partition,
        rank: usize,
        amps: &mut [C64],
        gate: &Gate,
    ) -> Result<(), DistError> {
        let qs = gate.qubits();
        if qs.iter().all(|&q| part.is_local(q)) {
            apply_local(amps, gate);
            return Ok(());
        }
        if gate.is_diagonal() {
            return Self::apply_diagonal_with_globals(part, rank, amps, gate);
        }
        if let Some((c, t, m)) = gate.as_controlled() {
            if !part.is_local(c) && part.is_local(t) {
                // Global control: rank-constant predicate.
                if global_bit_of(part, rank, c) {
                    apply_local(amps, &Gate::Unitary1(t, m));
                }
                return Ok(());
            }
        }
        Err(DistError::internal(format!(
            "gate `{}` reached the resident path but needs communication",
            gate.name()
        )))
    }

    /// Apply a comm-free gate to a contiguous sub-range of the local
    /// buffer (the overlap engine's per-half application).
    pub(crate) fn apply_resident_on(
        &mut self,
        gate: &Gate,
        range: std::ops::Range<usize>,
    ) -> Result<(), DistError> {
        Self::apply_resident_slice(&self.part, self.rank, &mut self.amps[range], gate)
    }

    /// Run a whole circuit.
    pub fn apply_circuit(&mut self, comm: &mut Comm, circuit: &Circuit) -> Result<(), DistError> {
        if circuit.n_qubits() != self.part.n_qubits() {
            return Err(DistError::WidthMismatch {
                circuit: circuit.n_qubits(),
                state: self.part.n_qubits(),
            });
        }
        for g in circuit.gates() {
            self.apply_gate(comm, g)?;
        }
        Ok(())
    }

    /// The value of global qubit `q`'s bit on this rank.
    fn global_bit_value(&self, q: u32) -> bool {
        global_bit_of(&self.part, self.rank, q)
    }

    /// Dense gate touching global qubit `gq` by whole-buffer pair
    /// exchange: concatenate the two partner buffers into the scratch
    /// (this rank's half at index bit `vq = n_local` equal to its `gq`
    /// bit), dispatch `virtual_gate` — the original gate remapped onto
    /// `vq` — over the doubled buffer, and keep this rank's half.
    ///
    /// Routing through the ordinary kernel dispatch (instead of a
    /// hand-rolled row combine) makes the distributed arithmetic
    /// *bit-identical* to the serial engine: the same kernel variant
    /// runs with the same per-pair operation order, merely at a
    /// different stride.
    fn pair_exchange_dispatch(
        &mut self,
        comm: &mut Comm,
        phase: ExchangePhase,
        span_qubits: &[u32],
        gq: u32,
        virtual_gate: &Gate,
    ) -> Result<(), DistError> {
        let t0 = self.tracer.as_ref().map(|_| Instant::now());
        let partner = self.part.partner(self.rank, gq);
        let theirs = sendrecv_c64(comm, partner, TAG_XCHG, &self.amps);
        let l = self.amps.len();
        let mut buf = self.take_scratch(2 * l);
        let theirs = match theirs {
            Ok(t) => t,
            Err(e) => {
                self.scratch = Some(buf);
                return Err(e);
            }
        };
        let r = usize::from(self.global_bit_value(gq));
        buf[r * l..(r + 1) * l].copy_from_slice(&self.amps);
        buf[(1 - r) * l..(2 - r) * l].copy_from_slice(&theirs);
        apply_local(&mut buf[..2 * l], virtual_gate);
        self.amps.copy_from_slice(&buf[r * l..(r + 1) * l]);
        self.scratch = Some(buf);
        self.record_exchange(phase, span_qubits, l as u64, t0);
        Ok(())
    }

    /// Diagonal gate with ≥1 global qubit: every factor involving a
    /// global bit is a rank-wide constant. Operates on a slice so the
    /// overlap engine can run it per half (enumeration offsets only
    /// affect the top local bit, which a half-applied gate never uses).
    fn apply_diagonal_with_globals(
        part: &Partition,
        rank: usize,
        amps: &mut [C64],
        gate: &Gate,
    ) -> Result<(), DistError> {
        // Obtain the diagonal entries from the dense forms.
        match gate.arity() {
            1 => {
                let (q, m) = gate.as_single().ok_or_else(|| {
                    DistError::internal(format!(
                        "1-qubit diagonal gate `{}` has no dense 1q form",
                        gate.name()
                    ))
                })?;
                let d = if global_bit_of(part, rank, q) { m.m[1][1] } else { m.m[0][0] };
                for a in amps.iter_mut() {
                    *a *= d;
                }
            }
            2 => {
                let (h, l, m) = gate.as_two().ok_or_else(|| {
                    DistError::internal(format!(
                        "2-qubit diagonal gate `{}` has no dense 2q form",
                        gate.name()
                    ))
                })?;
                let d = [m.m[0][0], m.m[1][1], m.m[2][2], m.m[3][3]];
                let h_local = part.is_local(h);
                let l_local = part.is_local(l);
                match (h_local, l_local) {
                    (false, false) => {
                        let idx = ((global_bit_of(part, rank, h) as usize) << 1)
                            | global_bit_of(part, rank, l) as usize;
                        for a in amps.iter_mut() {
                            *a *= d[idx];
                        }
                    }
                    (false, true) => {
                        let hbit = global_bit_of(part, rank, h) as usize;
                        let lmask = 1usize << l;
                        for (x, a) in amps.iter_mut().enumerate() {
                            let idx = (hbit << 1) | usize::from(x & lmask != 0);
                            *a *= d[idx];
                        }
                    }
                    (true, false) => {
                        let lbit = global_bit_of(part, rank, l) as usize;
                        let hmask = 1usize << h;
                        for (x, a) in amps.iter_mut().enumerate() {
                            let idx = ((usize::from(x & hmask != 0)) << 1) | lbit;
                            *a *= d[idx];
                        }
                    }
                    (true, true) => {
                        return Err(DistError::internal(format!(
                            "diagonal gate `{}` with two local qubits reached the global path",
                            gate.name()
                        )))
                    }
                }
            }
            arity => {
                return Err(DistError::UnsupportedGate {
                    gate: gate.name().to_string(),
                    reason: format!(
                        "diagonal gates of arity {arity} are not in the distributed gate set"
                    ),
                })
            }
        }
        Ok(())
    }

    /// Swap global qubit `gq` with local qubit `lq` (a physical data
    /// exchange of half the local buffer), returning nothing; qubit
    /// *labels* are restored by the caller swapping back after use.
    fn swap_global_local(&mut self, comm: &mut Comm, gq: u32, lq: u32) -> Result<(), DistError> {
        debug_assert!(!self.part.is_local(gq) && self.part.is_local(lq));
        let t0 = self.tracer.as_ref().map(|_| Instant::now());
        let r = usize::from(self.global_bit_value(gq));
        let half = self.amps.len() / 2;
        // Ship amplitudes whose lq bit ≠ my global bit, gathered into the
        // reusable scratch (one allocation per run, not per phase).
        let want_bit = 1 - r;
        let mut outbox = self.take_scratch(half);
        for j in 0..half {
            let x = insert_zero_bit(j, lq) | (want_bit << lq);
            outbox[j] = self.amps[x];
        }
        let partner = self.part.partner(self.rank, gq);
        let inbox = sendrecv_c64(comm, partner, TAG_SWAP, &outbox[..half]);
        self.scratch = Some(outbox);
        for (j, v) in inbox?.into_iter().enumerate() {
            let x = insert_zero_bit(j, lq) | (want_bit << lq);
            self.amps[x] = v;
        }
        self.record_exchange(ExchangePhase::GlobalSwap, &[gq, lq], half as u64, t0);
        Ok(())
    }

    /// Overlapped global–local swap on the *top* local axis
    /// `lq = n_local − 1`: the outgoing contiguous half is sent in
    /// chunks through the nonblocking transport while `resident` —
    /// comm-free gates scheduled after this swap that do not touch
    /// `lq` — run on both halves (the outgoing half before departure,
    /// the resident half during flight). Bit-identical to
    /// `swap_global_local(gq, lq)` followed by full-buffer application
    /// of `resident`, because gates avoiding `lq` act independently
    /// within each half.
    ///
    /// The recorded [`ExchangePhase::OverlapSwap`] span carries only the
    /// *exposed* wall time (chunk posting + drain), not the hidden
    /// keep-half compute — the separation e5-style accounting needs.
    pub(crate) fn swap_top_overlapped(
        &mut self,
        comm: &mut Comm,
        gq: u32,
        resident: &[Gate],
        chunks: usize,
    ) -> Result<(), DistError> {
        let lq = self.part.n_local() - 1;
        debug_assert!(!self.part.is_local(gq));
        debug_assert!(resident.iter().all(|g| !g.qubits().contains(&lq)));
        let half = self.amps.len() / 2;
        let r = usize::from(self.global_bit_value(gq));
        let want = 1 - r;
        let ship = want * half..(want + 1) * half;
        let keep = (1 - want) * half..(2 - want) * half;
        for g in resident {
            self.apply_resident_on(g, ship.clone())?;
        }
        let partner = self.part.partner(self.rank, gq);
        let t0 = Instant::now();
        {
            let out = &self.amps[ship.clone()];
            let k = mpi_sim::chunk_count(out.len(), chunks);
            let mut off = 0;
            for i in 0..k {
                let len = out.len() / k + usize::from(i < out.len() % k);
                comm.try_send(partner, TAG_OVL + i as u32, as_f64_slice(&out[off..off + len]))?;
                off += len;
            }
        }
        let reqs = comm.irecv_chunked(partner, TAG_OVL, half, chunks);
        let mut exposed = t0.elapsed();
        for g in resident {
            self.apply_resident_on(g, keep.clone())?;
        }
        let t1 = Instant::now();
        let parts = comm.try_waitall::<f64>(reqs)?;
        let mut w = ship.start;
        for (_, data) in parts {
            for p in data.chunks_exact(2) {
                self.amps[w] = C64::new(p[0], p[1]);
                w += 1;
            }
        }
        exposed += t1.elapsed();
        if w != ship.end {
            return Err(DistError::internal(format!(
                "overlapped swap reassembled {} of {half} amplitudes",
                w - ship.start
            )));
        }
        self.record_exchange_ns(
            ExchangePhase::OverlapSwap,
            &[gq, lq],
            half as u64,
            exposed.as_nanos() as u64,
        );
        Ok(())
    }

    /// Apply a gate with global qubits by temporarily relocating each
    /// global qubit onto a free local qubit.
    fn apply_via_remap(&mut self, comm: &mut Comm, gate: &Gate) -> Result<(), DistError> {
        let qs = gate.qubits();
        let globals: Vec<u32> = qs.iter().copied().filter(|&q| !self.part.is_local(q)).collect();
        // Free local qubits: *highest* indices not used by the gate.
        // High victims keep the remapped gate's minimum axis at or above
        // the serial gate's, so both runs take the same SIMD-vs-scalar
        // kernel path and stay bit-identical.
        let mut free: Vec<u32> = (0..self.part.n_local())
            .rev()
            .filter(|q| !qs.contains(q))
            .take(globals.len())
            .collect();
        if free.len() != globals.len() {
            return Err(DistError::UnsupportedGate {
                gate: gate.name().to_string(),
                reason: format!(
                    "not enough free local qubits to relocate {} global qubits \
                     ({} local qubits per rank)",
                    globals.len(),
                    self.part.n_local()
                ),
            });
        }
        for (&g, &l) in globals.iter().zip(&free) {
            self.swap_global_local(comm, g, l)?;
        }
        let remapped = gate.remap(|q| {
            if let Some(pos) = globals.iter().position(|&g| g == q) {
                free[pos]
            } else {
                q
            }
        });
        apply_local(&mut self.amps, &remapped);
        // Swap back in reverse order.
        free.reverse();
        let mut globals_rev = globals.clone();
        globals_rev.reverse();
        for (&g, &l) in globals_rev.iter().zip(&free) {
            self.swap_global_local(comm, g, l)?;
        }
        Ok(())
    }

    /// Crate-internal: swap a global physical axis with a local one (the
    /// planned executors drive this directly).
    pub(crate) fn swap_physical(
        &mut self,
        comm: &mut Comm,
        gq: u32,
        lq: u32,
    ) -> Result<(), DistError> {
        self.swap_global_local(comm, gq, lq)
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
        } else if self.global_bit_value(q) {
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
        } else if self.global_bit_value(q) == keep_set {
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
        let t0 = self.tracer.as_ref().map(|_| Instant::now());
        let all_f64 = comm.allgather(as_f64_slice(&self.amps));
        let amps: Vec<C64> = all_f64.chunks_exact(2).map(|p| C64::new(p[0], p[1])).collect();
        self.record_exchange(ExchangePhase::Collective, &[], self.amps.len() as u64, t0);
        StateVector::from_amplitudes(&amps)
    }
}

/// Convenience harness: run `circuit` from |0…0⟩ on `n_ranks` ranks and
/// return the reassembled state plus per-rank communication statistics.
///
/// The scheduling policy is read from `QCS_DIST_PLAN`
/// (`naive|reorder|overlap`, default naive); use
/// [`crate::plan::run_distributed_planned`] to pin a kind explicitly.
/// All kinds produce bit-identical states.
///
/// Engine errors are deterministic and symmetric across ranks (they
/// depend only on the circuit and the partition geometry), so every
/// rank returns the same `Err` and the world tears down cleanly.
pub fn run_distributed(
    circuit: &Circuit,
    n_ranks: usize,
) -> Result<(StateVector, Vec<mpi_sim::CommStats>), DistError> {
    crate::plan::run_distributed_planned(circuit, n_ranks, crate::plan::DistPlanKind::from_env())
}

/// Like [`run_distributed`], but every rank records an exchange span per
/// communication phase (phase kind, partner qubits, amplitudes moved,
/// bytes on the wire, wall time). Returns one [`Trace`] per rank; when
/// `telemetry.trace_path` is set the traces are also written there as
/// JSONL, one run block per rank. The scheduling policy follows
/// `QCS_DIST_PLAN` like [`run_distributed`].
pub fn run_distributed_traced(
    circuit: &Circuit,
    n_ranks: usize,
    telemetry: &TelemetryConfig,
) -> Result<(StateVector, Vec<mpi_sim::CommStats>, Vec<Trace>), DistError> {
    crate::plan::run_distributed_planned_traced(
        circuit,
        n_ranks,
        crate::plan::DistPlanKind::from_env(),
        telemetry,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{run_distributed_planned, run_distributed_planned_traced, DistPlanKind};
    use mpi_sim::World;
    use qcs_core::library;
    use qcs_core::sim::Simulator;
    use qcs_core::telemetry::SpanKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-10;

    fn serial_reference(circuit: &Circuit) -> StateVector {
        let mut s = StateVector::zero(circuit.n_qubits());
        Simulator::new().run(circuit, &mut s).unwrap();
        s
    }

    fn check_distributed(circuit: &Circuit, n_ranks: usize) {
        let reference = serial_reference(circuit);
        let (dist, _) = run_distributed(circuit, n_ranks).unwrap();
        assert!(
            dist.approx_eq(&reference, EPS),
            "ranks={n_ranks}: max diff {}",
            dist.max_abs_diff(&reference)
        );
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
            // allgather at the end also communicates; subtract by checking
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
        // whole local buffer once (pair exchange) and once more for the
        // final allgather. The tracer must see exactly those spans with
        // the right amplitude counts — this is the volume accounting the
        // communication experiments read off the trace.
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
            assert_eq!(coll.len(), 1, "rank {rank}: one final allgather");
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
            let st = DistState::from_full(&full2, comm);
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
            let mut st = DistState::zero(8, comm);
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
                    let mut st = DistState::zero(8, comm);
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
            let mut st = DistState::zero(8, comm);
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
        use rand::Rng;
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
                let mut st = DistState::zero(8, comm);
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
            let mut st = DistState::zero(8, comm);
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

    #[test]
    fn grover_distributed() {
        let c = library::grover(6, 37);
        let (dist, _) = run_distributed(&c, 4).unwrap();
        let argmax =
            (0..64).max_by(|&a, &b| dist.probability(a).total_cmp(&dist.probability(b))).unwrap();
        assert_eq!(argmax, 37);
    }
}
