//! The one executable form: a circuit and a strategy lowered to a flat
//! sequence of state sweeps.
//!
//! The paper's unit of analysis is the full-state sweep — bytes moved
//! per amplitude per gate. [`lower`] is the single place that decides
//! which sweeps a (circuit, strategy) pair becomes; everything
//! downstream reads the answer off the resulting [`Program`]:
//!
//! * the engines ([`Simulator`](crate::sim::Simulator),
//!   [`BatchSimulator`](crate::batch::BatchSimulator)) interpret
//!   `program.ops` one op at a time, each through the one executor
//!   behind both (`Kernel::exec`);
//! * the A64FX model ([`crate::perf::predict`]) and the tracer
//!   ([`Tracer::record_op`](crate::telemetry::Tracer::record_op)) both
//!   price an op with [`SweepOp::traffic`], so a measured span and its
//!   model price come from the same op by construction;
//! * the auto-tuner ([`crate::calibrate::choose`]) ranks candidate
//!   strategies by [`Program::calibrated_ns`].
//!
//! The lowering itself is assembled from the passes that already
//! existed — cost-aware fusion ([`fuse_costed`]) and the block-run
//! grouping, whose runs share a distributed rank's tiled runner
//! ([`run_tiled`]) — and is the flat gate-record shape plan-then-execute
//! simulators (mpiQulacs) use for the same reason. `planned` is that
//! grouping with the all-low stretches of each run fused in the block.

use std::borrow::Cow;

use a64fx_model::traffic::{GateTraffic, KernelKind, TrafficModel};
use omp_par::{Schedule, ThreadPool};

use crate::calibrate::{block_pass_ns, fused_per_amp, gate_per_amp, Calibration};
use crate::circuit::{Circuit, Gate};
use crate::complex::C64;
use crate::fusion::{fuse, fuse_costed, FuseCosts, FusedOp};
use crate::kernels::blocked::{run_tiled, Member};
use crate::kernels::dispatch::GateKernel;
use crate::kernels::fused::PreparedFused;
use crate::kernels::simd::KernelBackend;
use crate::perf::{classify, measure_traffic};
use crate::sim::Strategy;

/// One step of a [`Program`]: one pass over the state (or, for the two
/// barrier ops, one collapse / one classically-conditioned sweep).
#[derive(Debug)]
pub enum SweepOp<'c> {
    /// A gate through its own specialized kernel.
    Gate(&'c Gate),
    /// A fused block through the kernel matching its structure class.
    Fused(FusedOp),
    /// A cache-blocked pass ([`run_tiled`]): `Gate`s that pin to every
    /// block of the program's width, and (under `planned`) `Fused` ops
    /// over qubits below it, applied block by block.
    BlockPass(Vec<SweepOp<'c>>),
    /// Barrier: projective measurement of `q` into classical bit `creg`.
    Measure { q: u32, creg: u32 },
    /// Barrier: sweep `gate` iff the classical register satisfies
    /// `creg & mask == val`.
    Cif { mask: u64, val: u64, gate: &'c Gate },
}

/// A lowered circuit: what the engines execute, the model prices and
/// the tracer records.
#[derive(Debug)]
pub struct Program<'c> {
    /// One op per state sweep, in execution order.
    pub ops: Vec<SweepOp<'c>>,
    pub n_qubits: u32,
    /// The concrete strategy the ops were lowered under — never
    /// [`Strategy::Auto`], which [`lower`] resolves.
    pub strategy: Strategy,
    /// Block width of the `BlockPass` ops, clamped to the state (0 for
    /// strategies that emit none).
    pub block_qubits: u32,
}

/// Lower `circuit` under `strategy`, pricing fusion decisions from
/// `cal`. `None` means the process-wide
/// [`Calibration::get`] — measured on first use, and only by a strategy
/// that reads costs, so a naive or blocked run never pays for the
/// micro-benchmark.
///
/// [`Gate::Measure`] and [`Gate::Cif`] are barriers: each maximal
/// unitary run between them is lowered on its own, so no fusion or
/// block pass crosses a collapse. [`Strategy::Auto`] is resolved once
/// for the whole circuit against the process-wide calibration (the one
/// its memo belongs to, see [`crate::calibrate::choose`]).
pub fn lower<'c>(
    circuit: &'c Circuit,
    strategy: Strategy,
    cal: Option<&Calibration>,
) -> Program<'c> {
    let n = circuit.n_qubits();
    let strategy = match strategy {
        Strategy::Auto => crate::calibrate::choose(circuit),
        s => s,
    };
    let block_qubits = match strategy {
        Strategy::Blocked { block_qubits } | Strategy::Planned { block_qubits, .. } => {
            block_qubits.min(n)
        }
        _ => 0,
    };
    let gates = circuit.gates();
    let mut ops = Vec::new();
    let mut start = 0;
    for (i, g) in gates.iter().enumerate() {
        let barrier = match g {
            Gate::Measure { q, creg } => SweepOp::Measure { q: *q, creg: *creg },
            Gate::Cif { mask, val, gate } => SweepOp::Cif { mask: *mask, val: *val, gate },
            _ => continue,
        };
        lower_unitary(&mut ops, circuit, &gates[start..i], strategy, cal);
        ops.push(barrier);
        start = i + 1;
    }
    lower_unitary(&mut ops, circuit, &gates[start..], strategy, cal);
    Program { ops, n_qubits: n, strategy, block_qubits }
}

/// Lower one barrier-free run of `circuit`'s gates.
fn lower_unitary<'c>(
    ops: &mut Vec<SweepOp<'c>>,
    circuit: &'c Circuit,
    gates: &'c [Gate],
    strategy: Strategy,
    cal: Option<&Calibration>,
) {
    if gates.is_empty() {
        return;
    }
    // Fusion takes a whole `Circuit`: the source itself when no barrier
    // splits it, otherwise a copy of this run.
    let as_circuit = || {
        if gates.len() == circuit.len() {
            return Cow::Borrowed(circuit);
        }
        let mut run = Circuit::new(circuit.n_qubits());
        for g in gates {
            run.push(g.clone());
        }
        Cow::Owned(run)
    };
    let cal = || match cal {
        Some(table) => table,
        None => Calibration::get(),
    };
    let n = circuit.n_qubits();
    match strategy {
        Strategy::Naive => ops.extend(gates.iter().map(SweepOp::Gate)),
        Strategy::Fused { max_k } => {
            // Merge only where the calibrated block kernel beats the
            // member gates' own kernels.
            let fused = fuse_costed(&as_circuit(), max_k, &cal().fuse_costs());
            ops.extend(fused.into_iter().map(SweepOp::Fused))
        }
        Strategy::Blocked { block_qubits } => lower_blocked(ops, gates, block_qubits.min(n), None),
        Strategy::Planned { block_qubits, max_k } => {
            let costs = cal().block_fuse_costs();
            lower_blocked(ops, gates, block_qubits.min(n), Some((max_k, &costs)))
        }
        Strategy::Auto => unreachable!("lower resolves Auto before lowering any run"),
    }
}

/// Group each maximal run of gates whose kernels pin to a block of the
/// block width ([`GateKernel::pin`], the rule a distributed rank groups
/// its tiled runs by) into one block pass; a gate that moves amplitudes
/// between blocks keeps its own full-state sweep.
fn lower_blocked<'c>(
    ops: &mut Vec<SweepOp<'c>>,
    gates: &'c [Gate],
    block_qubits: u32,
    fusion: Option<(u32, &FuseCosts)>,
) {
    let pins = |g: &Gate| GateKernel::from(g).pin(block_qubits, 0).is_some();
    for run in gates.chunk_by(|a, b| pins(a) && pins(b)) {
        ops.push(match run {
            [g] if !pins(g) => SweepOp::Gate(g),
            _ => SweepOp::BlockPass(block_members(run, block_qubits, fusion)),
        });
    }
}

/// A block pass's members: the run's gates as they are, or, with
/// `fusion = Some((max_k, costs))` (`planned`), each maximal stretch of
/// gates below the block width fused in the block ([`fuse_costed`] at
/// `max_k` under the in-block table), between the gates pinned from
/// above.
fn block_members<'c>(
    run: &'c [Gate],
    block_qubits: u32,
    fusion: Option<(u32, &FuseCosts)>,
) -> Vec<SweepOp<'c>> {
    let Some((max_k, costs)) = fusion else {
        return run.iter().map(SweepOp::Gate).collect();
    };
    let low = |g: &Gate| g.qubits().iter().all(|&q| q < block_qubits);
    let mut members = Vec::new();
    for stretch in run.chunk_by(|a, b| low(a) == low(b)) {
        if !low(&stretch[0]) {
            members.extend(stretch.iter().map(SweepOp::Gate));
            continue;
        }
        let mut block = Circuit::new(block_qubits);
        for g in stretch {
            block.push(g.clone());
        }
        members.extend(fuse_costed(&block, max_k, costs).into_iter().map(SweepOp::Fused));
    }
    members
}

impl<'c> Program<'c> {
    /// The gate-by-gate lowering — one borrowed gate per sweep, no
    /// cost table read — for callers that want the per-gate model of a
    /// circuit.
    pub fn per_gate(circuit: &'c Circuit) -> Program<'c> {
        lower(circuit, Strategy::Naive, None)
    }

    /// The Aer-like comparator as a program: every merge that fits in
    /// `max_k` qubits taken, whatever it costs ([`fuse`]). The
    /// `fused:<k>` lowering is cost-aware and may decline merges on the
    /// host; the paper-scale model tables want the unconditional plan.
    pub fn greedy_fused(circuit: &Circuit, max_k: u32) -> Program<'static> {
        Program {
            ops: fuse(circuit, max_k).into_iter().map(SweepOp::Fused).collect(),
            n_qubits: circuit.n_qubits(),
            strategy: Strategy::Fused { max_k },
            block_qubits: 0,
        }
    }

    /// Maximal runs of sweep ops between barriers (1 for a non-empty
    /// unitary circuit).
    pub fn segments(&self) -> usize {
        let barrier = |op: &SweepOp| matches!(op, SweepOp::Measure { .. } | SweepOp::Cif { .. });
        let ops = &self.ops;
        (0..ops.len()).filter(|&i| !barrier(&ops[i]) && (i == 0 || barrier(&ops[i - 1]))).count()
    }

    /// Every op resolved to its kernel (offset tables, class dispatch),
    /// once, ahead of the sweeps; a collapse has none.
    pub(crate) fn kernels(&self) -> Vec<Option<Kernel<'_>>> {
        let w = self.block_qubits;
        self.ops
            .iter()
            .map(|op| match op {
                SweepOp::Measure { .. } => None,
                SweepOp::BlockPass(ops) => {
                    Some(Kernel::Tiled { w, run: ops.iter().map(SweepOp::member).collect() })
                }
                op => Some(Kernel::Sweep(op.member())),
            })
            .collect()
    }

    /// Predicted serial nanoseconds on this machine, from the calibrated
    /// per-kernel costs.
    pub fn calibrated_ns(&self, cal: &Calibration) -> f64 {
        let amps = (1u64 << self.n_qubits) as f64;
        self.ops.iter().map(|op| op.calibrated_ns(cal, amps)).sum()
    }
}

impl SweepOp<'_> {
    /// Kernel kind and memory/arithmetic traffic of this op on an
    /// `n`-qubit state — the figures both the predictor and the tracer
    /// report.
    ///
    /// A block op is *one* full-state memory sweep carrying the summed
    /// arithmetic of every member (they run out of cache-resident
    /// blocks); a `Cif` is priced as taken.
    pub fn traffic(&self, model: &TrafficModel, n: u32) -> (KernelKind, GateTraffic) {
        let gate = |g: &Gate| {
            let kind = classify(g);
            (kind, model.predict(kind, n, &g.qubits()))
        };
        match self {
            SweepOp::Gate(g) => gate(g),
            SweepOp::Cif { gate: g, .. } => gate(g),
            // A gate-backed singleton sweeps through its gate's own kernel.
            SweepOp::Fused(op) => match &op.gate {
                Some(g) => gate(g),
                None => {
                    let kind = KernelKind::FusedDense { k: op.qubits.len() as u8 };
                    (kind, model.predict(kind, n, &op.qubits))
                }
            },
            SweepOp::BlockPass(ops) => {
                // One streamed pass over the state with every member's
                // flops, one read per member per amplitude and one write.
                let widest = ops.iter().map(|o| o.qubits().len()).max().expect("non-empty pass");
                let kind = KernelKind::FusedDense { k: widest as u8 };
                let mut traffic = model.predict(kind, n, &ops[0].qubits());
                let amps = 1u64 << n;
                traffic.flops = ops.iter().map(|o| o.traffic(model, n).1.flops).sum();
                traffic.amps_read = amps * ops.len() as u64;
                traffic.amps_written = amps;
                traffic.arithmetic_intensity = if traffic.mem_bytes == 0 {
                    0.0
                } else {
                    traffic.flops as f64 / traffic.mem_bytes as f64
                };
                (kind, traffic)
            }
            SweepOp::Measure { .. } => (KernelKind::OneQubitDiagonal, measure_traffic(model, n)),
        }
    }

    /// The qubits a span of this op is tagged with (block ops: their
    /// first member's).
    pub fn qubits(&self) -> Vec<u32> {
        match self {
            SweepOp::Gate(g) => g.qubits(),
            SweepOp::Cif { gate, .. } => gate.qubits(),
            SweepOp::Fused(op) => {
                op.gate.as_ref().map_or_else(|| op.qubits.clone(), |g| g.qubits())
            }
            SweepOp::BlockPass(ops) => ops[0].qubits(),
            SweepOp::Measure { q, .. } => vec![*q],
        }
    }

    /// Predicted serial nanoseconds of this op over `amps` amplitudes,
    /// from the machine calibration. A collapse is not a kernel the
    /// calibration measures and costs the same under every strategy, so
    /// it prices at zero; a `Cif` is priced as taken.
    pub fn calibrated_ns(&self, cal: &Calibration, amps: f64) -> f64 {
        let per_amp = |op: &SweepOp| match op {
            SweepOp::Gate(g) => gate_per_amp(cal, g),
            SweepOp::Cif { gate, .. } => gate_per_amp(cal, gate),
            SweepOp::Fused(op) => fused_per_amp(cal, op),
            _ => unreachable!("a block pass does not nest"),
        };
        match self {
            SweepOp::BlockPass(ops) => block_pass_ns(cal, amps, ops.iter().map(per_amp)),
            SweepOp::Measure { .. } => 0.0,
            op => cal.sweep_overhead_ns + amps * per_amp(op),
        }
    }

    /// A `Gate`, `Cif` or `Fused` op resolved to its kernel: offset
    /// tables and class dispatch are built here, once.
    fn member(&self) -> Member<'_> {
        match self {
            SweepOp::Gate(g) => Member::Gate(GateKernel::from(*g)),
            SweepOp::Cif { gate, .. } => Member::Gate(GateKernel::from(*gate)),
            SweepOp::Fused(op) => Member::Fused(PreparedFused::new(op)),
            _ => unreachable!("a block pass does not nest, and a collapse has no kernel"),
        }
    }
}

/// A sweep op resolved to what executes it: one kernel over the whole
/// state, or a block pass's members tiled at width `w`.
///
/// Both engines funnel every sweep through [`Kernel::exec`], so a batch
/// member executes the *identical* kernel calls a lone run does: the
/// bit-exact batched-vs-sequential guarantee holds by construction,
/// because worksharing only changes which thread touches which disjoint
/// index range, never the per-amplitude arithmetic.
#[allow(clippy::large_enum_variant)] // most ops are one member; boxing it would allocate per op
pub(crate) enum Kernel<'p> {
    Sweep(Member<'p>),
    Tiled { w: u32, run: Vec<Member<'p>> },
}

impl Kernel<'_> {
    /// One pass over a full state: workshared across `pool`, or inline on
    /// the caller without one.
    pub(crate) fn exec(
        &self,
        be: &KernelBackend,
        pool: Option<&ThreadPool>,
        sched: Schedule,
        amps: &mut [C64],
    ) {
        match self {
            Kernel::Sweep(member) => member.apply(be, pool, sched, amps),
            Kernel::Tiled { w, run } => run_tiled(be, pool, sched, amps, *w, run.iter()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    fn all_strategies() -> [Strategy; 4] {
        [
            Strategy::Naive,
            Strategy::Fused { max_k: 3 },
            Strategy::Blocked { block_qubits: 4 },
            Strategy::Planned { block_qubits: 4, max_k: 3 },
        ]
    }

    #[test]
    fn naive_lowers_one_borrowed_gate_per_sweep() {
        let c = library::qft(5);
        let p = lower(&c, Strategy::Naive, None);
        assert_eq!(p.ops.len(), c.len());
        assert_eq!((p.strategy, p.block_qubits, p.segments()), (Strategy::Naive, 0, 1));
        for (op, g) in p.ops.iter().zip(c.gates()) {
            assert!(matches!(op, SweepOp::Gate(s) if std::ptr::eq(*s, g)));
        }
    }

    #[test]
    fn blocked_runs_cover_their_source_gates() {
        // Gates on qubits {0,1}, a CPhase(5, 0), which pins to every
        // 8-amplitude block, then an H(5), which moves amplitudes between
        // blocks: a run of three gates, the H's own sweep, and a run of
        // two. Each member is its source gate.
        let mut c = Circuit::new(6);
        c.h(0).cx(0, 1).cp(5, 0, 0.4).h(5).rz(1, 0.3).swap(0, 1);
        let p = lower(&c, Strategy::Blocked { block_qubits: 9 }, None);
        assert_eq!(p.block_qubits, 6, "clamped to the state");
        let p = lower(&c, Strategy::Blocked { block_qubits: 3 }, None);
        let mut members = Vec::new();
        let shape: Vec<usize> = p
            .ops
            .iter()
            .map(|op| match op {
                SweepOp::BlockPass(ops) => {
                    members.extend(ops.iter().map(|op| match op {
                        SweepOp::Gate(g) => *g,
                        other => panic!("member {other:?} is not a source gate"),
                    }));
                    ops.len()
                }
                SweepOp::Gate(_) => 0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(shape, vec![3, 0, 2]);
        let source = c.gates();
        assert_eq!(members, [&source[0], &source[1], &source[2], &source[4], &source[5]]);
    }

    #[test]
    fn barriers_split_the_lowering() {
        let mut c = Circuit::new(4);
        c.rz(0, 0.1).cp(0, 1, 0.2).measure(0, 0);
        c.cif_bit(0, 1, Gate::X(1));
        c.rz(2, 0.3).cp(2, 3, 0.4).measure(3, 1);
        let cal = Calibration::analytic();
        for s in all_strategies() {
            let p = lower(&c, s, Some(&cal));
            assert_eq!(p.segments(), 2, "{s}");
            let barriers: Vec<usize> = p
                .ops
                .iter()
                .enumerate()
                .filter(|(_, op)| matches!(op, SweepOp::Measure { .. } | SweepOp::Cif { .. }))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(barriers.len(), 3, "{s}");
            // Measure then Cif back to back, the last measure at the end.
            assert_eq!(barriers[1], barriers[0] + 1, "{s}");
            assert_eq!(barriers[2], p.ops.len() - 1, "{s}");
        }
        // Diagonal pairs merge under any cost table, but never across
        // the collapse: 1 fused op per side.
        let p = lower(&c, Strategy::Fused { max_k: 3 }, Some(&cal));
        assert_eq!(p.ops.len(), 2 + 3);
    }

    #[test]
    fn block_op_traffic_is_one_stream_with_summed_flops() {
        let model = TrafficModel::a64fx();
        let c = library::rotation_layers(10, 2, 0.2);
        let p = lower(&c, Strategy::Blocked { block_qubits: 10 }, None);
        assert_eq!(p.ops.len(), 1);
        let (_, t) = p.ops[0].traffic(&model, 10);
        let one = model.predict(KernelKind::OneQubitDense, 10, &[0]);
        assert_eq!(t.mem_bytes, one.mem_bytes);
        let flops: u64 =
            c.gates().iter().map(|g| crate::perf::gate_traffic(&model, g, 10).flops).sum();
        assert_eq!(t.flops, flops);
        assert_eq!(t.amps_read, (c.len() as u64) << 10);
    }
}
