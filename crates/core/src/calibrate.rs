//! Machine calibration and strategy auto-tuning.
//!
//! The analytic predictors in [`crate::perf`] price sweeps from A64FX
//! datasheet constants — which is exactly how the fused strategies got
//! promised a 2.2× win while measuring 3–6× *slower* on the host: the
//! host is not an A64FX, and the generic dense fused kernel was not the
//! kernel the model priced. This module closes that loop empirically.
//! On first use it runs a micro-benchmark on the actual machine — one
//! timed sweep per kernel cost kind, at two state sizes so the
//! per-amplitude slope and the per-sweep overhead separate, plus one
//! probe of the tiled runner that every cache-blocked pass runs
//! through — and caches the result process-wide.
//! [`Program::calibrated_ns`](crate::program::Program::calibrated_ns)
//! then prices any lowering of any circuit from those measured
//! constants, and [`choose`] (the engine behind [`Strategy::Auto`])
//! picks the cheapest candidate per circuit.
//!
//! Under Miri, or with `QCS_CALIBRATE=analytic`, measurement is skipped
//! and deterministic analytic defaults are used instead.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use omp_par::Schedule;

use crate::circuit::{Circuit, Gate};
use crate::complex::C64;
use crate::fusion::{fuse, fuse_costed, FuseCosts, FusedClass, FusedOp};
use crate::kernels::blocked::{run_tiled, Member};
use crate::kernels::dispatch::apply_gate_with;
use crate::kernels::fused::PreparedFused;
use crate::kernels::simd::{self, KernelBackend};
use crate::program::lower;
use crate::sim::Strategy;
use crate::state::StateVector;
use crate::testing::class_circuit;

/// State sizes the micro-benchmark sweeps: the big size must spill the
/// private caches (a 2^18 state is 4 MB) so gather-heavy kernels are
/// measured in the regime the strategy choice actually matters in — at
/// a cache-resident size they look several times cheaper than they run
/// at target sizes, and the tuner inherits that bias. The small size
/// pins the per-sweep overhead intercept.
const N_BIG: u32 = 18;
const N_SMALL: u32 = 12;
/// Timed repetitions per kind; the minimum is kept (noise is one-sided).
const REPS: usize = 3;
/// Every probe sweeps on the calling thread, where the schedule is moot.
const SERIAL: Schedule = Schedule::Static { chunk: None };

/// Measured per-kernel costs on this machine: nanoseconds per amplitude
/// per sweep, by cost kind, plus a flat per-sweep overhead.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Dense 1-qubit gate sweep (H).
    pub gate_1q_dense: f64,
    /// Diagonal 1-qubit gate sweep (Rz).
    pub gate_1q_diag: f64,
    /// Controlled dense sweep (CX).
    pub gate_controlled: f64,
    /// Diagonal 2-qubit sweep (Cz).
    pub gate_2q_diag: f64,
    /// Dense 2-qubit sweep (Rxx).
    pub gate_2q_dense: f64,
    /// Axis-swap / SWAP-gate sweep.
    pub swap: f64,
    /// Streaming diagonal fused sweep (k = 3 block).
    pub fused_diag: f64,
    /// Permutation fused sweep (k = 3 block): the block kernel with one
    /// nonzero per row, i.e. its gather/scatter floor.
    pub fused_perm: f64,
    /// Dense fused sweeps at k = 2, 3, 4, 5; wider blocks extrapolate
    /// at 2× per extra qubit (the `8·2^k` flops-per-amplitude law).
    /// Sparser blocks are priced per nonzero off these
    /// ([`FuseCosts::block`]).
    pub fused_dense: [f64; 4],
    /// Pure read-modify-write streaming pass (`scale_run`): the floor
    /// any full-state sweep pays. Cache-blocked passes are priced as
    /// one stream plus the members' arithmetic above the stream floor.
    pub stream: f64,
    /// How much of the memory stream each member of a cache-blocked
    /// pass still pays on this host, measured from a real block pass
    /// through the one tiled runner (`run_tiled`) that both
    /// [`Strategy::Blocked`] and [`Strategy::Planned`] (the same runs,
    /// with fused members) execute:
    /// 0 = ideal blocking (members share one stream and pay only their
    /// arithmetic above it), 1 = blocking amortizes nothing (each
    /// member pays its full sweep cost, e.g. because the benchmark
    /// state already sits in a large cache, or per-block dispatch eats
    /// the savings).
    pub block_stream_factor: f64,
    /// Flat cost per sweep (dispatch, loop setup), nanoseconds.
    pub sweep_overhead_ns: f64,
    /// Kernel backend the numbers were measured with.
    pub backend: &'static str,
    /// False when these are analytic fallback constants.
    pub measured: bool,
}

impl Calibration {
    /// Deterministic fallback constants in the same shape (rough host
    /// magnitudes, ns/amp serial). Used under Miri and
    /// `QCS_CALIBRATE=analytic`.
    pub fn analytic() -> Calibration {
        Calibration {
            gate_1q_dense: 2.0,
            gate_1q_diag: 1.2,
            gate_controlled: 1.5,
            gate_2q_diag: 1.2,
            gate_2q_dense: 4.0,
            swap: 1.0,
            fused_diag: 1.2,
            fused_perm: 2.0,
            fused_dense: [4.0, 8.0, 16.0, 32.0],
            stream: 0.5,
            block_stream_factor: 0.05,
            sweep_overhead_ns: 200.0,
            backend: "analytic",
            measured: false,
        }
    }

    /// The cost table [`fuse_costed`] uses when lowering full-state
    /// fused sweeps (`Strategy::Fused` and the batched equivalent).
    pub fn fuse_costs(&self) -> FuseCosts {
        FuseCosts {
            gate_1q_dense: self.gate_1q_dense,
            gate_1q_diag: self.gate_1q_diag,
            gate_controlled: self.gate_controlled,
            gate_2q_diag: self.gate_2q_diag,
            gate_2q_dense: self.gate_2q_dense,
            swap: self.swap,
            fused_diag: self.fused_diag,
            fused_perm: self.fused_perm,
            fused_dense: self.fused_dense,
        }
    }

    /// Per-amp cost one member contributes to a cache-blocked pass: its
    /// arithmetic above the stream floor, plus the share of the stream
    /// this host fails to amortize across the pass (see
    /// [`Calibration::block_stream_factor`]).
    fn in_block_per_amp(&self, c: f64) -> f64 {
        (c - self.stream).max(0.1 * c) + self.block_stream_factor * c.min(self.stream)
    }

    /// In-block variant for [`Strategy::Planned`]'s fusion inside each
    /// run: the cost table rewritten to what each member actually
    /// contributes to a cache-blocked pass (the same member pricing
    /// `block_pass_ns` charges), so in-block fusion decisions agree with
    /// the pass pricing.
    pub fn block_fuse_costs(&self) -> FuseCosts {
        let arith = |c: f64| self.in_block_per_amp(c);
        let full = self.fuse_costs();
        FuseCosts {
            gate_1q_dense: arith(full.gate_1q_dense),
            gate_1q_diag: arith(full.gate_1q_diag),
            gate_controlled: arith(full.gate_controlled),
            gate_2q_diag: arith(full.gate_2q_diag),
            gate_2q_dense: arith(full.gate_2q_dense),
            swap: arith(full.swap),
            fused_diag: arith(full.fused_diag),
            fused_perm: arith(full.fused_perm),
            fused_dense: full.fused_dense.map(arith),
        }
    }

    /// The process-wide calibration, measured on first use.
    pub fn get() -> &'static Calibration {
        static CAL: OnceLock<Calibration> = OnceLock::new();
        CAL.get_or_init(|| {
            if cfg!(miri) || std::env::var("QCS_CALIBRATE").as_deref() == Ok("analytic") {
                Calibration::analytic()
            } else {
                measure(simd::active())
            }
        })
    }
}

/// Deterministic non-trivial amplitude fill (values only shape timing;
/// unitarity keeps magnitudes bounded across repeated sweeps).
fn fill(amps: &mut [C64]) {
    for (i, a) in amps.iter_mut().enumerate() {
        let x = ((i.wrapping_mul(2654435761)) & 0xffff) as f64 / 65536.0;
        *a = C64::new(0.5 + 0.25 * x, 0.25 - 0.25 * x);
    }
}

/// Minimum-of-`REPS` wall time of one sweep over `amps`.
fn time_sweep(amps: &mut [C64], mut sweep: impl FnMut(&mut [C64])) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        sweep(amps);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Fit `t = per_amp·amps + overhead` through the two measured sizes.
/// Returns (ns/amp, overhead ns), both clamped non-negative.
fn fit(t_big: f64, t_small: f64) -> (f64, f64) {
    let (a_big, a_small) = ((1u64 << N_BIG) as f64, (1u64 << N_SMALL) as f64);
    let per_amp = ((t_big - t_small) / (a_big - a_small) * 1e9).max(1e-3);
    let overhead = (t_small * 1e9 - per_amp * a_small).max(0.0);
    (per_amp, overhead)
}

/// One `k`-qubit block of structure `class` on mid-register qubits.
fn class_op(class: FusedClass, n: u32, k: u32) -> FusedOp {
    let q0 = n / 2 - k / 2;
    let qubits: Vec<u32> = (q0..q0 + k).collect();
    let c = class_circuit(class, n, &qubits).expect("calibrated classes exist at every width");
    let mut ops = fuse(&c, k);
    assert_eq!((ops.len(), ops[0].class), (1, class), "calibration circuit must be one block");
    ops.remove(0)
}

/// Run the micro-benchmark with `be` and fit every cost kind.
fn measure(be: &'static KernelBackend) -> Calibration {
    // State vectors, not plain Vecs: the SIMD kernels require 64-byte
    // aligned amplitude buffers.
    let mut big_state = StateVector::zero(N_BIG);
    let mut small_state = StateVector::zero(N_SMALL);
    let big = big_state.amplitudes_mut();
    let small = small_state.amplitudes_mut();
    fill(big);
    fill(small);

    let mut overheads: Vec<f64> = Vec::new();
    let mut gate_cost = |g: Gate, overheads: &mut Vec<f64>| {
        let tb = time_sweep(big, |a| apply_gate_with(be, a, &g));
        let ts = time_sweep(small, |a| apply_gate_with(be, a, &g));
        let (per_amp, overhead) = fit(tb, ts);
        overheads.push(overhead);
        per_amp
    };
    let q = N_SMALL / 2;
    let gate_1q_dense = gate_cost(Gate::H(q), &mut overheads);
    let gate_1q_diag = gate_cost(Gate::Rz(q, 0.3), &mut overheads);
    let gate_controlled = gate_cost(Gate::Cx(q, q + 1), &mut overheads);
    // No unit entry: the full-state diagonal, not a controlled phase's
    // quarter of it.
    let gate_2q_diag = gate_cost(Gate::Rzz(q, q + 1, 0.3), &mut overheads);
    let gate_2q_dense = gate_cost(Gate::Rxx(q, q + 1, 0.5), &mut overheads);
    // Swap measured low↔high across the full register (per state size,
    // since the top axis moves with n): the stride a QFT's tail swaps
    // cross, and it costs several times an adjacent-axis swap on
    // cache-hostile hosts.
    let swap = {
        let gb = Gate::Swap(1, N_BIG - 1);
        let gs = Gate::Swap(1, N_SMALL - 1);
        let tb = time_sweep(big, |a| apply_gate_with(be, a, &gb));
        let ts = time_sweep(small, |a| apply_gate_with(be, a, &gs));
        let (per_amp, overhead) = fit(tb, ts);
        overheads.push(overhead);
        per_amp
    };

    let mut fused_cost = |op: &FusedOp, overheads: &mut Vec<f64>| {
        let prep = PreparedFused::new(op);
        let tb = time_sweep(big, |a| prep.apply(be, None, SERIAL, a));
        let ts = time_sweep(small, |a| prep.apply(be, None, SERIAL, a));
        let (per_amp, overhead) = fit(tb, ts);
        overheads.push(overhead);
        per_amp
    };
    let fused_diag = fused_cost(&class_op(FusedClass::Diagonal, N_SMALL, 3), &mut overheads);
    let fused_perm = fused_cost(&class_op(FusedClass::Permutation, N_SMALL, 3), &mut overheads);
    let fused_dense =
        [2, 3, 4, 5].map(|k| fused_cost(&class_op(FusedClass::Dense, N_SMALL, k), &mut overheads));

    let stream = {
        let d = C64::new(1.0, 0.0);
        let tb = time_sweep(big, |a| (be.scale_run)(a, d));
        let ts = time_sweep(small, |a| (be.scale_run)(a, d));
        fit(tb, ts).0
    };

    let sweep_overhead_ns =
        (overheads.iter().sum::<f64>() / overheads.len() as f64).clamp(10.0, 5e4);
    let mut cal = Calibration {
        gate_1q_dense,
        gate_1q_diag,
        gate_controlled,
        gate_2q_diag,
        gate_2q_dense,
        swap,
        fused_diag,
        fused_perm,
        fused_dense,
        stream,
        block_stream_factor: 0.0,
        sweep_overhead_ns,
        backend: be.name,
        measured: true,
    };

    // Block-pass probe: run a realistic low-register gate run through
    // the tiled runner and set the factor so the predicted block/naive
    // ratio reproduces the measured one. The naive reference is timed on
    // the same gates and strides — blocks always execute on low physical
    // strides, where kernels cost more than the mid-register constants
    // above, and comparing a block pass against those constants directly
    // would fold the stride penalty into the factor and bias every
    // block-vs-naive decision the tuner makes.
    {
        let bq = 13u32.min(N_BIG);
        let mut c = Circuit::new(N_BIG);
        for l in 0..2u32 {
            for q in 0..8u32 {
                c.ry(q, 0.1 + 0.01 * (l + q) as f64);
            }
            for q in 0..7u32 {
                c.cx(q, q + 1);
            }
        }
        let t_naive: f64 =
            c.gates().iter().map(|g| time_sweep(big, |a| apply_gate_with(be, a, g))).sum();
        let naive_ref: f64 = c.gates().iter().map(|g| gate_per_amp(&cal, g)).sum();

        // The planner lowers in-block runs with cost-aware fusion; use
        // the same lowering (at the ideal-model costs the provisional
        // factor implies) so the probe executes what plans execute.
        let ops = fuse_costed(&c, 4, &cal.block_fuse_costs());
        let run: Vec<Member> = ops.iter().map(|op| Member::Fused(PreparedFused::new(op))).collect();
        let t_pass = time_sweep(big, |a| run_tiled(be, None, SERIAL, a, bq, run.iter()));
        // Target total member cost: the calibrated naive total scaled by
        // the measured pass/naive ratio.
        let target = naive_ref * (t_pass / t_naive.max(1e-12));
        let members: Vec<f64> = ops.iter().map(|op| fused_per_amp(&cal, op)).collect();
        let arith: f64 = members.iter().map(|&m| (m - stream).max(0.1 * m)).sum();
        let streamable: f64 = members.iter().map(|&m| m.min(stream)).sum();
        cal.block_stream_factor =
            ((target - stream - arith) / streamable.max(1e-6)).clamp(0.0, 1.5);
    }
    cal
}

/// Calibrated ns/amp of one naive sweep of `g`.
pub(crate) fn gate_per_amp(cal: &Calibration, g: &Gate) -> f64 {
    cal.fuse_costs().gate(g)
}

/// Calibrated ns/amp of one specialized fused sweep of `op`; a
/// gate-backed singleton executes through the per-gate kernel.
pub(crate) fn fused_per_amp(cal: &Calibration, op: &FusedOp) -> f64 {
    match &op.gate {
        Some(g) => gate_per_amp(cal, g),
        None => cal.fuse_costs().block(op.class, op.qubits.len(), op.active_nnz),
    }
}

/// A pass that applies `per_amp_costs` members out of cache-resident
/// blocks pays one memory stream plus each member's in-block
/// contribution: arithmetic above the stream floor, plus the stream
/// share this host fails to amortize
/// ([`block_stream_factor`](Calibration::block_stream_factor)).
pub(crate) fn block_pass_ns(
    cal: &Calibration,
    amps: f64,
    per_amp_costs: impl Iterator<Item = f64>,
) -> f64 {
    let members: f64 = per_amp_costs.map(|c| cal.in_block_per_amp(c)).sum();
    cal.sweep_overhead_ns + amps * (cal.stream + members)
}

/// The concrete strategies [`choose`] prices against each other for an
/// `n`-qubit circuit.
pub fn candidates(n: u32) -> Vec<Strategy> {
    let mut out = vec![Strategy::Naive, Strategy::Fused { max_k: 3 }, Strategy::Fused { max_k: 4 }];
    for s in [
        Strategy::Blocked { block_qubits: 12.min(n) },
        Strategy::Blocked { block_qubits: 13.min(n) },
        Strategy::Planned { block_qubits: 10.min(n), max_k: 3 },
        Strategy::Planned { block_qubits: 12.min(n), max_k: 4 },
        Strategy::Planned { block_qubits: 13.min(n), max_k: 4 },
    ] {
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// How many circuits' [`Strategy::Auto`] resolutions are remembered.
/// Serving and variational loops alternate between a handful of circuit
/// shapes; past this many distinct ones the oldest entry is re-priced
/// on its next run.
const AUTO_MEMO_CAPACITY: usize = 64;

/// `(circuit fingerprint, resolved strategy)`, oldest first. Lives
/// beside the process-wide [`Calibration`] because a resolution is a
/// pure function of (circuit, that calibration).
static AUTO_MEMO: Mutex<Vec<(u64, Strategy)>> = Mutex::new(Vec::new());

/// Pick the cheapest concrete strategy for `circuit` from the machine
/// calibration — the resolver behind [`Strategy::Auto`]. Never returns
/// `Auto`.
///
/// Memoized on [`Circuit::fingerprint`], so repeated runs of the same
/// circuit (benchmark rounds, batch replicas, served jobs) skip
/// re-pricing every candidate lowering. A fingerprint collision would
/// still execute correctly — the choice affects speed, never semantics.
pub fn choose(circuit: &Circuit) -> Strategy {
    let fp = circuit.fingerprint();
    let lock = || AUTO_MEMO.lock().expect("auto memo updates cannot panic mid-way");
    if let Some(&(_, s)) = lock().iter().find(|(k, _)| *k == fp) {
        return s;
    }
    // Priced outside the lock: eight lowerings must not serialize
    // unrelated engines.
    let s = cheapest(Calibration::get(), circuit);
    let mut memo = lock();
    if memo.len() == AUTO_MEMO_CAPACITY {
        memo.remove(0);
    }
    memo.push((fp, s));
    s
}

/// Price every candidate lowering of `circuit` under `cal` and pick.
///
/// A prediction within the micro-benchmark's noise margin of the price
/// winner counts as a tie, and a tie goes to a strategy that sweeps
/// the full state substantially less: the costs the model cannot see
/// (consecutive-sweep cache effects, per-sweep engine overhead) favor
/// it. The sweep reduction must be meaningful (≥ 10 %) so a trivial
/// difference cannot override the price order.
fn cheapest(cal: &Calibration, circuit: &Circuit) -> Strategy {
    let scored: Vec<(f64, usize, Strategy)> = candidates(circuit.n_qubits())
        .into_iter()
        .map(|s| {
            let program = lower(circuit, s, Some(cal));
            (program.calibrated_ns(cal), program.ops.len(), s)
        })
        .collect();
    let Some(&(best_ns, best_sweeps, best)) = scored.iter().min_by(|a, b| a.0.total_cmp(&b.0))
    else {
        return Strategy::Naive;
    };
    scored
        .iter()
        .filter(|&&(ns, sweeps, _)| {
            ns <= best_ns * 1.15 && (sweeps as f64) < 0.9 * best_sweeps as f64
        })
        .min_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)))
        .map_or(best, |&(.., s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn analytic_defaults_are_positive_and_ordered() {
        let cal = Calibration::analytic();
        for v in [
            cal.gate_1q_dense,
            cal.gate_1q_diag,
            cal.gate_controlled,
            cal.gate_2q_diag,
            cal.gate_2q_dense,
            cal.swap,
            cal.fused_diag,
            cal.fused_perm,
            cal.stream,
            cal.block_stream_factor,
            cal.sweep_overhead_ns,
        ] {
            assert!(v > 0.0);
        }
        // Dense fused cost grows with block width.
        assert!(cal.fused_dense.windows(2).all(|w| w[0] < w[1]));
        assert!(!cal.measured);
    }

    #[test]
    fn calibration_is_cached_process_wide() {
        let a = Calibration::get() as *const Calibration;
        let b = Calibration::get() as *const Calibration;
        assert_eq!(a, b);
        assert!(!Calibration::get().backend.is_empty());
    }

    #[test]
    fn measured_costs_are_finite_and_positive() {
        let cal = Calibration::get();
        for v in [cal.gate_1q_dense, cal.fused_diag, cal.fused_dense[2], cal.stream] {
            assert!(v.is_finite() && v > 0.0, "{cal:?}");
        }
    }

    #[test]
    fn prediction_scales_with_circuit_depth() {
        let cal = Calibration::analytic();
        let short = library::qft(8);
        let mut long = library::qft(8);
        for g in short.gates().to_vec() {
            long.push(g);
        }
        for s in candidates(8) {
            let a = lower(&short, s, Some(&cal)).calibrated_ns(&cal);
            let b = lower(&long, s, Some(&cal)).calibrated_ns(&cal);
            assert!(b > a, "{s:?}: doubled circuit predicted {b} !> {a}");
        }
    }

    #[test]
    fn diag_heavy_circuits_prefer_specialization() {
        // 80 diagonal gates on 8 qubits: fused diagonal blocks collapse
        // ~4 gates into one cheap multiply pass each; naive pays 80
        // sweeps. The analytic constants must already rank them.
        let cal = Calibration::analytic();
        let mut c = Circuit::new(8);
        for i in 0..40 {
            let q = i % 7;
            c.rz(q, 0.1).cp(q, q + 1, 0.2);
        }
        let naive = lower(&c, Strategy::Naive, Some(&cal)).calibrated_ns(&cal);
        let fused = lower(&c, Strategy::Fused { max_k: 4 }, Some(&cal)).calibrated_ns(&cal);
        assert!(fused < naive, "fused {fused} !< naive {naive}");
    }

    #[test]
    fn choose_returns_a_concrete_candidate() {
        for c in [library::qft(10), library::ghz(6), library::random_circuit(8, 40, 3)] {
            let s = choose(&c);
            assert_ne!(s, Strategy::Auto);
            assert!(candidates(c.n_qubits()).contains(&s), "{s:?}");
        }
    }

    #[test]
    fn auto_prices_as_its_resolution() {
        let cal = Calibration::analytic();
        let c = library::qft(9);
        // With the process-wide calibration the identity holds exactly;
        // with analytic constants it holds whenever choose() and the
        // pricing agree on the resolution, which they do by definition
        // when the same calibration prices both sides.
        let live = Calibration::get();
        let auto = lower(&c, Strategy::Auto, Some(live)).calibrated_ns(live);
        let resolved = lower(&c, choose(&c), Some(live)).calibrated_ns(live);
        assert_eq!(auto, resolved);
        assert!(lower(&c, Strategy::Auto, Some(&cal)).calibrated_ns(&cal) > 0.0);
    }

    #[test]
    fn candidates_respect_narrow_registers() {
        for s in candidates(3) {
            match s {
                Strategy::Blocked { block_qubits } => assert!(block_qubits <= 3),
                Strategy::Planned { block_qubits, .. } => assert!(block_qubits <= 3),
                _ => {}
            }
        }
    }
    /// The e15 families at n = 18 under the analytic table: what `Auto`
    /// picks, and the exact prices of the `blocked:12` and `blocked:13`
    /// lowerings. Recorded when `blocked` ran an engine of its own;
    /// re-recorded when `blocked` took the tiled runner's pinning rule,
    /// under which the QFT, random and diagonal-heavy runs absorb their
    /// high diagonals and controls (those prices fell 8–20 %; the other
    /// two did not move).
    #[test]
    fn analytic_picks_and_blocked_prices_are_pinned() {
        let cal = Calibration::analytic();
        let n = 18;
        let mut low_dense = Circuit::new(n);
        let mut diag_heavy = Circuit::new(n);
        for l in 0..3 {
            for q in 0..8 {
                low_dense.ry(q, 0.1 + 0.01 * (l + q) as f64);
            }
            for q in 0..7 {
                low_dense.cx(q, q + 1);
            }
            for q in 0..n {
                diag_heavy.rz(q, 0.05 + 0.01 * (l + q) as f64);
            }
            for q in 0..n - 1 {
                diag_heavy.cp(q, q + 1, 0.3 + 0.02 * l as f64);
            }
        }
        let circuits = [
            library::qft(n),
            library::quantum_volume(n, 7),
            library::random_circuit(n, 3 * n as usize, 11),
            low_dense,
            diag_heavy,
        ];
        let picks: Vec<String> = circuits.iter().map(|c| cheapest(&cal, c).to_string()).collect();
        assert_eq!(picks, ["fused:4", "fused:3", "fused:4", "planned:10:3", "fused:4"]);
        let prices: Vec<u64> = circuits
            .iter()
            .flat_map(|c| {
                [12, 13].map(|b| {
                    let s = Strategy::Blocked { block_qubits: b };
                    lower(c, s, Some(&cal)).calibrated_ns(&cal).to_bits()
                })
            })
            .collect();
        assert_eq!(
            prices,
            [
                0x41830a105999999a,
                0x4182db9733333332,
                0x41a3bfc4dfffffff,
                0x41a39d839ccccccc,
                0x41baef967cccccc8,
                0x41ba5a5a54cccccc,
                0x416d5018fffffffa,
                0x416d5018fffffffa,
                0x4173280c7fffffff,
                0x4173280c7fffffff,
            ]
        );
    }
}
