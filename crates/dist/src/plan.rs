//! The lowering: (circuit, partition, [`DistPlanKind`]) → one flat op
//! list, and the harness that runs it on a world of ranks.
//!
//! A distributed run is plan-then-execute, the shape mpiQulacs has
//! (PAPERS.md) and `qcs_core::program::lower` → `interpret` has for one
//! state: [`plan_circuit`] decides every exchange ahead of the run and
//! writes it down as a [`PlanOp`] beside the gates, so "local gate" and
//! "swap exchange" are sibling records; each rank resolves the list to
//! its own kernels once (`DistPlan::localize`) and
//! `DistState::run` executes it. Nothing is decided per gate at run
//! time.
//!
//! **Three lowering rules** say what a gate on physical axes costs:
//!
//! 1. *Nothing* ([`PlanOp::Gate`]) when every qubit is local; when the
//!    gate is diagonal (a global qubit's bit is constant on a rank, so
//!    its factor is a rank-local constant); or when only the *control*
//!    of a controlled gate is global (a rank-constant predicate).
//!    `localize` pins such a gate's [`GateKernel`] to the rank's bits.
//! 2. *Half a buffer* ([`PlanOp::Swap`]) to bring a global qubit onto a
//!    local axis, after which rule 1 applies.
//! 3. *A whole buffer* ([`PlanOp::PairExchange`], naive kind only) for a
//!    dense 1-qubit or controlled gate on a global target: partners
//!    trade shards and sweep the doubled buffer.
//!
//! The kinds differ in how they spend rule 2:
//!
//! * [`DistPlanKind::Naive`] plans one gate at a time: rule 3 where it
//!   applies, otherwise swap every global qubit in, run the gate, swap
//!   them back out — three explicit ops per relocation, nothing kept.
//! * [`DistPlanKind::Reorder`] tracks a logical→physical permutation
//!   over the whole circuit: a relocated qubit stays where it landed,
//!   the evicted slot is the one whose occupant's next dense use lies
//!   farthest ahead (Belady's rule), and a logical `Swap` is absorbed
//!   into the permutation at no cost. The only traffic is rule 2.
//! * [`DistPlanKind::Overlap`] is the reorder list with the comm-free
//!   gates that avoid the top local axis *deferred* into the next swap
//!   of that axis ([`PlanOp::OverlapSwap`]): each rank sweeps them over
//!   its outgoing half before departure and over its resident half
//!   while the chunked exchange is in flight.
//!
//! **Bit-exactness.** Every kind produces the serial engine's state to
//! the bit: a rank reaches its arithmetic through the same
//! [`GateKernel`] table, which gives a gate the same bits at any qubit
//! position and on any slice. The final layout is not restored with
//! swaps: rank 0 gathers every shard into logical order in one pass
//! ([`qcs_core::layout::gather`]) that writes each amplitude once.
//!
//! [`DistPlan::profile`] is one fold over the same op list, in the units
//! [`qcs_core::perf::predict_distributed`] consumes, so the α–β model
//! and the measured [`mpi_sim::CommStats`] join without out-of-band
//! accounting.

use mpi_sim::{Comm, CommStats, FaultPlan, World};
use qcs_core::circuit::{Circuit, Gate};
use qcs_core::kernels::blocked::Member;
use qcs_core::kernels::dispatch::GateKernel;
use qcs_core::perf::ExchangeProfile;
use qcs_core::state::StateVector;
use qcs_core::telemetry::{RunMeta, TelemetryConfig, Trace};

use crate::engine::{DistState, RankOp, OVERLAP_CHUNKS};
use crate::error::DistError;
use crate::partition::Partition;

/// How far ahead the planner scans when scoring eviction victims
/// (Belady's farthest-next-use rule); gates beyond the horizon count as
/// never used again.
const BELADY_HORIZON: usize = 4096;

/// How a distributed run schedules its communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistPlanKind {
    /// Per-gate exchanges, nothing amortised.
    #[default]
    Naive,
    /// Exchange-minimizing qubit reordering with blocking swaps.
    Reorder,
    /// Reordering plus comm/compute overlap: swaps of the top local
    /// axis run chunked and nonblocking while deferred comm-free gates
    /// execute on resident data.
    Overlap,
}

impl DistPlanKind {
    /// All plan kinds, in escalating-optimization order.
    pub const ALL: [DistPlanKind; 3] =
        [DistPlanKind::Naive, DistPlanKind::Reorder, DistPlanKind::Overlap];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            DistPlanKind::Naive => "naive",
            DistPlanKind::Reorder => "reorder",
            DistPlanKind::Overlap => "overlap",
        }
    }

    /// The `strategy` a plain run's trace header carries.
    fn strategy(self, n_ranks: usize) -> String {
        match self {
            DistPlanKind::Naive => format!("dist:{n_ranks}"),
            kind => format!("dist-{kind}:{n_ranks}"),
        }
    }
}

impl std::fmt::Display for DistPlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DistPlanKind {
    type Err = String;

    fn from_str(s: &str) -> Result<DistPlanKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Ok(DistPlanKind::Naive),
            "reorder" => Ok(DistPlanKind::Reorder),
            "overlap" => Ok(DistPlanKind::Overlap),
            other => Err(format!("unknown dist plan `{other}` (naive|reorder|overlap)")),
        }
    }
}

/// One record of a lowered circuit, the same on every rank. Gates are
/// on *physical* axes: the layout at any op is a pure function of the
/// list's prefix.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// A comm-free gate (lowering rule 1).
    Gate(Gate),
    /// Blocking half-buffer swap of physical axes `(global, local)`.
    Swap(u32, u32),
    /// Chunked nonblocking swap of `(gq, n_local − 1)` with the deferred
    /// comm-free gates swept per half around and during the flight.
    OverlapSwap {
        /// Global physical axis being swapped with the top local axis.
        gq: u32,
        /// Earlier comm-free gates (avoiding the top local axis) whose
        /// application is hidden behind the exchange.
        resident: Vec<Gate>,
    },
    /// Full-buffer exchange with the partner across global axis `gq`,
    /// then `gate` over the doubled buffer, where `gq` sits on the
    /// virtual axis `n_local`: the kernel the serial engine would run,
    /// at a different stride.
    PairExchange {
        /// Global axis whose two values the doubled buffer holds.
        gq: u32,
        /// The gate with `gq` renamed to `n_local`, all-local there.
        gate: Gate,
        /// A global control the gate was stripped of: only the ranks
        /// whose bit of it is set take part.
        ctrl: Option<u32>,
    },
}

/// A complete execution plan for one circuit over one partition.
#[derive(Debug, Clone)]
pub struct DistPlan {
    /// Scheduling policy this plan was built for.
    pub kind: DistPlanKind,
    /// Partition geometry the plan assumes.
    pub part: Partition,
    /// What every rank executes, in order.
    pub ops: Vec<PlanOp>,
    /// `gate_ends[i]` = ops lowered once circuit gate `i` is: under the
    /// blocking kinds `ops[..gate_ends[i]]` executes exactly gates
    /// `0..=i`, which is what lets the resilient envelope checkpoint at
    /// gate boundaries. Empty for [`DistPlanKind::Overlap`], whose
    /// deferred gates straddle them.
    pub gate_ends: Vec<usize>,
    /// Final layout: `logical_at[p]` = logical qubit living on physical
    /// axis `p` when the circuit ends. Identity for the naive kind.
    pub logical_at: Vec<u32>,
    /// Exact exchange accounting of this plan, in the per-rank units
    /// [`qcs_core::perf::predict_distributed`] consumes.
    pub profile: ExchangeProfile,
}

/// Lowering rule 1: can `gate` run without communication under `part`?
/// Exactly when its kernel pins to a rank's bits.
fn comm_free(part: &Partition, gate: &Gate) -> bool {
    GateKernel::from(gate).pin(part.n_local(), 0).is_some()
}

/// Does `gate` require qubit `q` to sit on a local axis? Diagonal gates
/// never do, and a controlled gate's *control* may stay global;
/// everything else dense does.
fn must_be_local(gate: &Gate, q: u32) -> bool {
    if gate.is_diagonal() || !gate.qubits().contains(&q) {
        return false;
    }
    match gate.as_controlled() {
        Some((c, _, _)) => q != c,
        None => true,
    }
}

/// Distance (in gates) from `gates[from]` to the next gate that needs
/// logical qubit `q` on a local axis, following `q` through future
/// absorbed `Swap` relabelings; [`BELADY_HORIZON`] when none. The
/// eviction rule built on this is Belady's optimal offline policy:
/// evict the occupant whose next dense use is farthest away.
fn next_dense_use(gates: &[Gate], from: usize, q: u32) -> usize {
    let mut q = q;
    for (d, g) in gates[from..].iter().take(BELADY_HORIZON).enumerate() {
        if let Gate::Swap(a, b) = *g {
            // Absorbed by planned kinds: only relabels the tracked qubit.
            if q == a {
                q = b;
            } else if q == b {
                q = a;
            }
            continue;
        }
        if must_be_local(g, q) {
            return d;
        }
    }
    BELADY_HORIZON
}

/// The naive kind's lowering of one gate that is not comm-free: rule 3
/// for a dense 1-qubit or controlled gate, else relocate in / apply /
/// relocate out onto the *highest* free local axes — high victims keep
/// the relocated gate's lowest axis at or above the serial gate's, so
/// both take the same vector-vs-scalar path.
fn lower_naive(part: &Partition, gate: &Gate, ops: &mut Vec<PlanOp>) {
    let vq = part.n_local();
    if let Some((q, _)) = gate.as_single() {
        return ops.push(PlanOp::PairExchange { gq: q, gate: gate.remap(|_| vq), ctrl: None });
    }
    if let Some((c, t, m)) = gate.as_controlled() {
        // With both qubits global the control is satisfied buffer-wide
        // or not at all, so what is left to sweep is the bare target.
        let (gate, ctrl) = match part.is_local(c) {
            true => (gate.remap(|q| if q == t { vq } else { q }), None),
            false => (Gate::Unitary1(vq, m), Some(c)),
        };
        return ops.push(PlanOp::PairExchange { gq: t, gate, ctrl });
    }
    let qs = gate.qubits();
    let moves: Vec<(u32, u32)> = qs
        .iter()
        .copied()
        .filter(|&q| !part.is_local(q))
        .zip((0..vq).rev().filter(|l| !qs.contains(l)))
        .collect();
    let swaps = moves.iter().map(|&(g, l)| PlanOp::Swap(g, l));
    ops.extend(swaps.clone());
    ops.push(PlanOp::Gate(gate.remap(|q| moves.iter().find(|m| m.0 == q).map_or(q, |m| m.1))));
    ops.extend(swaps.rev());
}

/// The overlap form of a blocking op list: comm-free gates that avoid
/// the top local axis `lq` wait, and ride the next swap *of* that axis
/// as its resident work; any other op flushes them first (they were
/// lowered for the layout it is about to change, or it reads what they
/// write).
fn defer_into_swaps(blocking: Vec<PlanOp>, lq: u32) -> Vec<PlanOp> {
    let mut ops = Vec::with_capacity(blocking.len());
    let mut pending: Vec<Gate> = Vec::new();
    for op in blocking {
        match op {
            PlanOp::Gate(g) if !g.qubits().contains(&lq) => pending.push(g),
            PlanOp::Swap(gq, l) if l == lq && !pending.is_empty() => {
                ops.push(PlanOp::OverlapSwap { gq, resident: std::mem::take(&mut pending) })
            }
            op => {
                ops.extend(pending.drain(..).map(PlanOp::Gate));
                ops.push(op);
            }
        }
    }
    ops.extend(pending.into_iter().map(PlanOp::Gate));
    ops
}

/// Lower `circuit` for `n_ranks` ranks. This is the door: a rank count
/// that is not a power of two or leaves fewer than 3 local qubits, and
/// a circuit with a measurement or a classically-controlled gate, are
/// rejected here, and nothing downstream checks again.
pub fn plan_circuit(
    circuit: &Circuit,
    n_ranks: usize,
    kind: DistPlanKind,
) -> Result<DistPlan, DistError> {
    let part = Partition::new(circuit.n_qubits(), n_ranks)?;
    let n = circuit.n_qubits();
    let gates = circuit.gates();
    if let Some(g) = gates.iter().find(|g| !g.is_unitary()) {
        return Err(DistError::UnsupportedGate {
            gate: g.name().to_string(),
            reason: "the distributed engine runs unitary circuits only".to_string(),
        });
    }

    let mut phys_of: Vec<u32> = (0..n).collect();
    let mut logical_at: Vec<u32> = (0..n).collect();
    let mut ops = Vec::with_capacity(gates.len());
    let mut gate_ends = Vec::with_capacity(gates.len());
    for (i, gate) in gates.iter().enumerate() {
        match (kind, gate) {
            (DistPlanKind::Naive, g) if comm_free(&part, g) => ops.push(PlanOp::Gate(g.clone())),
            (DistPlanKind::Naive, g) => lower_naive(&part, g, &mut ops),
            // A logical Swap is a pure relabeling of amplitude axes:
            // absorb it into the permutation and let the gather's
            // unpermutation realize it — no amplitude is touched.
            (_, &Gate::Swap(a, b)) => {
                logical_at.swap(phys_of[a as usize] as usize, phys_of[b as usize] as usize);
                phys_of.swap(a as usize, b as usize);
            }
            _ => {
                // Lowering rule 2 brings local the global axes the gate
                // needs there: none for a comm-free gate.
                let pg = gate.remap(|q| phys_of[q as usize]);
                for gq in
                    pg.qubits().into_iter().filter(|&q| !part.is_local(q) && must_be_local(&pg, q))
                {
                    // Evict the occupant whose next dense use lies
                    // farthest ahead (Belady), breaking ties toward the
                    // top slot (where the overlap kind hides swaps). Every
                    // slot will do: a gate gets the same bits at any
                    // qubit position.
                    let taken = gate.qubits();
                    let victim = (0..part.n_local())
                        .filter(|s| !taken.iter().any(|&q| phys_of[q as usize] == *s))
                        .max_by_key(|&s| (next_dense_use(gates, i + 1, logical_at[s as usize]), s))
                        .expect("3 local axes leave one free beside a gate's other qubits");
                    ops.push(PlanOp::Swap(gq, victim));
                    logical_at.swap(gq as usize, victim as usize);
                    phys_of[logical_at[gq as usize] as usize] = gq;
                    phys_of[logical_at[victim as usize] as usize] = victim;
                }
                let pg = gate.remap(|q| phys_of[q as usize]);
                debug_assert!(comm_free(&part, &pg), "planned gate must be comm-free");
                ops.push(PlanOp::Gate(pg));
            }
        }
        gate_ends.push(ops.len());
    }
    if kind == DistPlanKind::Overlap {
        ops = defer_into_swaps(ops, part.n_local() - 1);
        gate_ends.clear();
    }
    let profile = profile(&part, &ops);
    Ok(DistPlan { kind, part, ops, gate_ends, logical_at, profile })
}

/// The exchange accounting of an op list, per rank. A pair exchange
/// stripped of a global control involves only the control-set half of
/// the ranks, so it is averaged to half a buffer; chunking an overlapped
/// swap splits messages, not volume, and hides the resident gates'
/// half-buffer sweeps (16-byte amplitudes read and written) behind the
/// flight.
fn profile(part: &Partition, ops: &[PlanOp]) -> ExchangeProfile {
    let half_amps = part.local_len() as u64 / 2;
    let mut p = ExchangeProfile::default();
    for op in ops {
        let (bytes, messages) = match op {
            PlanOp::Gate(_) => continue,
            PlanOp::Swap(..) => (half_amps * 16, 1),
            PlanOp::OverlapSwap { resident, .. } => {
                p.hidden_bytes_per_rank += resident.len() as u64 * half_amps * 32;
                (half_amps * 16, mpi_sim::chunk_count(half_amps as usize, OVERLAP_CHUNKS) as u64)
            }
            PlanOp::PairExchange { ctrl: Some(_), .. } => (half_amps * 16, 1),
            PlanOp::PairExchange { ctrl: None, .. } => (half_amps * 32, 1),
        };
        p.bytes_per_rank += bytes;
        p.messages_per_rank += messages;
        p.phases += 1;
    }
    p
}

impl DistPlan {
    /// This plan as `rank` executes it: every gate resolved to the
    /// rank's kernel, once, ahead of the loop. Indices match
    /// [`DistPlan::ops`]; `None` marks an op the rank sits out. A global
    /// qubit's bit is constant on a rank, so a comm-free gate's kernel is
    /// pinned to the rank's bits ([`GateKernel::pin`]), the rule a tiled
    /// run pins each tile by.
    pub(crate) fn localize(&self, rank: usize) -> Vec<Option<RankOp>> {
        let w = self.part.n_local();
        let kernel = |g: &Gate| GateKernel::from(g).pin(w, rank << w).expect("comm-free");
        let set = |q: u32| self.part.rank_bit(rank, q) == 1;
        self.ops
            .iter()
            .map(|op| match op {
                PlanOp::Gate(g) => kernel(g).map(|k| RankOp::Sweep(Member::Gate(k))),
                &PlanOp::Swap(gq, lq) => Some(RankOp::Swap { gq, lq }),
                PlanOp::OverlapSwap { gq, resident } => Some(RankOp::OverlapSwap {
                    gq: *gq,
                    resident: resident.iter().filter_map(kernel).collect(),
                }),
                PlanOp::PairExchange { gq, gate, ctrl } => ctrl
                    .is_none_or(set)
                    .then(|| RankOp::PairExchange { gq: *gq, kernel: GateKernel::from(gate) }),
            })
            .collect()
    }
}

/// What [`run_world`] hands back: the reassembled state, and per rank
/// its communication statistics, its `body` result and (when tracing)
/// its trace.
pub(crate) struct WorldRun<R> {
    pub state: StateVector,
    pub stats: Vec<CommStats>,
    pub per_rank: Vec<R>,
    pub traces: Vec<Trace>,
}

/// The one run body: lower `circuit`, start a world of `n_ranks` ranks
/// from |0…0⟩, let `body` drive each rank through its op list, gather
/// the state at rank 0, and — when `telemetry` is given — finish one
/// trace per rank under the `strategy` label and write them to the
/// configured sink, one run block per rank.
pub(crate) fn run_world<R: Send>(
    circuit: &Circuit,
    n_ranks: usize,
    kind: DistPlanKind,
    faults: Option<FaultPlan>,
    telemetry: Option<&TelemetryConfig>,
    strategy: &str,
    body: impl Fn(&mut DistState, &mut Comm, &DistPlan, &[Option<RankOp>]) -> Result<R, DistError>
        + Sync,
) -> Result<WorldRun<R>, DistError> {
    let plan = plan_circuit(circuit, n_ranks, kind)?;
    type PerRank<R> = Result<(Option<StateVector>, R, Option<Trace>), DistError>;
    let (results, stats) = World::run_faulted_with_stats(n_ranks, faults, |comm| -> PerRank<R> {
        let mut st = DistState::new(plan.part, comm, telemetry.map(|t| t.capacity));
        let out = body(&mut st, comm, &plan, &plan.localize(comm.rank()))?;
        let (state, tracer) = st.into_state(comm, &plan.logical_at)?;
        let trace = tracer.zip(telemetry).map(|(t, cfg)| {
            t.finish(RunMeta {
                strategy: strategy.to_string(),
                backend: "exchange".to_string(),
                threads: 1,
                schedule: "static".to_string(),
                n_qubits: circuit.n_qubits(),
                label: cfg.label.clone(),
            })
        });
        Ok((state, out, trace))
    });
    let mut state = None;
    let mut per_rank = Vec::with_capacity(n_ranks);
    let mut traces = Vec::new();
    for r in results {
        let (s, out, trace) = r?;
        state = state.or(s);
        per_rank.push(out);
        traces.extend(trace);
    }
    if let Some(cfg) = telemetry {
        let mut cfg = cfg.clone();
        for trace in &traces {
            qcs_core::telemetry::write_configured(&cfg, trace).map_err(|e| {
                DistError::TraceIo(match &cfg.trace_path {
                    Some(p) => format!("{}: {e}", p.display()),
                    None => e.to_string(),
                })
            })?;
            cfg.append = true;
        }
    }
    let state = state.ok_or_else(|| DistError::internal("world produced no ranks"))?;
    Ok(WorldRun { state, stats, per_rank, traces })
}

/// A run with no envelope around the rank loop, traced or not.
fn run_plain(
    circuit: &Circuit,
    n_ranks: usize,
    kind: DistPlanKind,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(StateVector, Vec<CommStats>, Vec<Trace>), DistError> {
    let strategy = kind.strategy(n_ranks);
    let run = run_world(circuit, n_ranks, kind, None, telemetry, &strategy, |st, comm, _, ops| {
        st.run(comm, ops)
    })?;
    Ok((run.state, run.stats, run.traces))
}

/// Run `circuit` from |0…0⟩ over `n_ranks` under `kind`, returning the
/// reassembled state and per-rank communication statistics. All kinds
/// produce bit-identical states.
///
/// Errors are decided by the lowering, before any rank starts, or are
/// transport failures both partners of the failed exchange see.
pub fn run_distributed_planned(
    circuit: &Circuit,
    n_ranks: usize,
    kind: DistPlanKind,
) -> Result<(StateVector, Vec<CommStats>), DistError> {
    run_plain(circuit, n_ranks, kind, None).map(|(state, stats, _)| (state, stats))
}

/// [`run_distributed_planned`] with every rank recording an exchange
/// span per communication phase (phase kind, partner qubits, amplitudes
/// moved, bytes on the wire, wall time; an overlapped swap carries only
/// its *exposed* wall time). Returns one [`Trace`] per rank; when
/// `telemetry.trace_path` is set they are also written there as JSONL,
/// and a sink that cannot be written is [`DistError::TraceIo`].
pub fn run_distributed_planned_traced(
    circuit: &Circuit,
    n_ranks: usize,
    kind: DistPlanKind,
    telemetry: &TelemetryConfig,
) -> Result<(StateVector, Vec<CommStats>, Vec<Trace>), DistError> {
    run_plain(circuit, n_ranks, kind, Some(telemetry))
}

/// [`run_distributed_planned`] under [`DistPlanKind::Naive`].
pub fn run_distributed(
    circuit: &Circuit,
    n_ranks: usize,
) -> Result<(StateVector, Vec<CommStats>), DistError> {
    run_distributed_planned(circuit, n_ranks, DistPlanKind::Naive)
}

/// [`run_distributed_planned_traced`] under [`DistPlanKind::Naive`].
pub fn run_distributed_traced(
    circuit: &Circuit,
    n_ranks: usize,
    telemetry: &TelemetryConfig,
) -> Result<(StateVector, Vec<CommStats>, Vec<Trace>), DistError> {
    run_distributed_planned_traced(circuit, n_ranks, DistPlanKind::Naive, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_core::library;
    use qcs_core::sim::Simulator;
    use qcs_core::telemetry::{ExchangePhase, SpanKind};

    fn serial(circuit: &Circuit) -> StateVector {
        let mut s = StateVector::zero(circuit.n_qubits());
        Simulator::new().run(circuit, &mut s).unwrap();
        s
    }

    /// Algorithm-only bytes: subtract the final-gather baseline.
    fn algorithm_bytes(circuit: &Circuit, ranks: usize, kind: DistPlanKind) -> u64 {
        let (_, with) = run_distributed_planned(circuit, ranks, kind).unwrap();
        let (_, base) =
            run_distributed_planned(&Circuit::new(circuit.n_qubits()), ranks, kind).unwrap();
        with.iter().zip(&base).map(|(a, b)| a.bytes_sent.saturating_sub(b.bytes_sent)).sum()
    }

    #[test]
    fn kind_parses_and_round_trips() {
        for kind in DistPlanKind::ALL {
            assert_eq!(kind.name().parse::<DistPlanKind>().unwrap(), kind);
        }
        assert_eq!("OVERLAP".parse::<DistPlanKind>().unwrap(), DistPlanKind::Overlap);
        assert!("fancy".parse::<DistPlanKind>().is_err());
        assert_eq!(DistPlanKind::default(), DistPlanKind::Naive);
    }

    #[test]
    fn planned_gates_are_comm_free_and_swaps_land_on_local_slots() {
        let plan = plan_circuit(&library::qft(8), 4, DistPlanKind::Reorder).unwrap();
        assert_eq!(plan.gate_ends.len(), library::qft(8).len());
        assert_eq!(plan.gate_ends.last(), Some(&plan.ops.len()));
        for op in &plan.ops {
            match op {
                PlanOp::Gate(g) => assert!(comm_free(&plan.part, g), "{g:?}"),
                &PlanOp::Swap(g, l) => assert!(!plan.part.is_local(g) && plan.part.is_local(l)),
                other => panic!("a reorder plan holds gates and swaps only, not {other:?}"),
            }
        }
    }

    #[test]
    fn naive_relocation_is_three_explicit_ops_per_global() {
        // iswap on (local 0, global 7): swap in onto the top free local
        // axis, the gate there, swap back out.
        let mut c = Circuit::new(8);
        c.iswap(0, 7);
        let plan = plan_circuit(&c, 4, DistPlanKind::Naive).unwrap();
        match &plan.ops[..] {
            [PlanOp::Swap(7, 5), PlanOp::Gate(Gate::ISwap(0, 5)), PlanOp::Swap(7, 5)] => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(plan.logical_at, (0..8).collect::<Vec<u32>>());
    }

    /// Does `rank` sweep anything for a lone comm-free `gate` on 8 qubits
    /// over 4 ranks (qubits 6 and 7 global)?
    fn sweeps(rank: usize, gate: Gate) -> bool {
        let mut c = Circuit::new(8);
        c.push(gate);
        let op = plan_circuit(&c, 4, DistPlanKind::Naive).unwrap().localize(rank).remove(0);
        assert!(op.as_ref().is_none_or(|op| matches!(op, RankOp::Sweep(_))), "rank {rank}");
        op.is_some()
    }

    #[test]
    fn a_rank_sits_out_what_its_global_bits_switch_off() {
        for rank in 0..4 {
            let set = rank & 1 == 1; // qubit 6
            assert_eq!(sweeps(rank, Gate::Cx(6, 0)), set);
            assert_eq!(sweeps(rank, Gate::CPhase(6, 1, 0.3)), set);
            assert_eq!(sweeps(rank, Gate::T(6)), set);
            assert_eq!(sweeps(rank, Gate::Cz(6, 7)), rank == 3);
            assert!(sweeps(rank, Gate::Rz(6, 0.3)));
            assert!(sweeps(rank, Gate::Rzz(6, 7, 0.3)));
        }
    }

    #[test]
    fn reorder_slashes_qft_exchange_bytes() {
        // QFT's H ladder touches every global qubit with dense gates; the
        // naive kind pays a full buffer per touch, the planner one half
        // buffer per relocation.
        let c = library::qft(10);
        let naive = algorithm_bytes(&c, 4, DistPlanKind::Naive);
        let reorder = algorithm_bytes(&c, 4, DistPlanKind::Reorder);
        assert!(
            reorder * 2 <= naive,
            "reorder must at least halve QFT traffic: {reorder} vs {naive}"
        );
    }

    #[test]
    fn overlap_moves_the_same_bytes_and_hides_compute() {
        let c = library::qft(9);
        let ranks = 4usize;
        let reorder = plan_circuit(&c, ranks, DistPlanKind::Reorder).unwrap();
        let overlap = plan_circuit(&c, ranks, DistPlanKind::Overlap).unwrap();
        assert_eq!(reorder.profile.bytes_per_rank, overlap.profile.bytes_per_rank);
        assert_eq!(reorder.profile.phases, overlap.profile.phases);
        assert!(
            overlap.profile.hidden_bytes_per_rank > 0,
            "the overlap schedule must defer work behind at least one swap"
        );
        for plan in [reorder, overlap] {
            let measured_world = algorithm_bytes(&c, ranks, plan.kind);
            assert_eq!(plan.profile.bytes_per_rank * ranks as u64, measured_world);
        }
    }

    #[test]
    fn overlap_lowering_defers_gates_into_swaps() {
        let mut c = Circuit::new(8);
        // Local work, then a dense touch of a global qubit: the planner
        // swaps, and the overlap kind hides the local work in it.
        c.h(0).h(1).cx(0, 1).h(7);
        let plan = plan_circuit(&c, 4, DistPlanKind::Overlap).unwrap();
        let overlapped = plan
            .ops
            .iter()
            .filter_map(|op| match op {
                PlanOp::OverlapSwap { resident, .. } => Some(resident.len()),
                _ => None,
            })
            .sum::<usize>();
        assert!(overlapped >= 3, "three local gates should ride the swap, saw {overlapped}");
    }

    #[test]
    fn traced_overlap_records_exposed_only_spans() {
        let mut c = Circuit::new(8);
        c.h(0).h(1).h(7);
        let (state, _, traces) =
            run_distributed_planned_traced(&c, 4, DistPlanKind::Overlap, &TelemetryConfig::on())
                .unwrap();
        assert!(state.approx_eq(&serial(&c), 0.0));
        let mut seen = 0;
        for t in &traces {
            assert_eq!(t.meta.strategy, "dist-overlap:4");
            for s in &t.spans {
                if s.kind == SpanKind::Exchange(ExchangePhase::OverlapSwap) {
                    seen += 1;
                    assert_eq!(s.amps, 1 << 5, "half the local buffer per swap");
                    assert!(s.model_ns > 0.0, "overlap spans are priced by the link model");
                }
            }
        }
        assert_eq!(seen, 4, "one overlapped swap per rank");
    }

    #[test]
    fn gather_restores_logical_order() {
        // X on the top qubit, which the planner relocates and leaves
        // displaced: the gather must still produce |10…0⟩… pattern.
        let mut c = Circuit::new(8);
        c.x(7).h(0);
        let reference = serial(&c);
        let (state, _) = run_distributed_planned(&c, 4, DistPlanKind::Reorder).unwrap();
        assert!(state.approx_eq(&reference, 0.0), "diff {}", state.max_abs_diff(&reference));
    }
}
