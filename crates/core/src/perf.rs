//! Performance-model hooks: classify gates, predict per-sweep traffic
//! and time on the modelled A64FX.
//!
//! This is the bridge between the simulator and `a64fx-model` — it turns
//! a lowered [`Program`] into the table of predicted bytes / flops /
//! seconds the experiment harness prints next to measured values.

use std::collections::BTreeMap;

use a64fx_model::link::LinkModel;
use a64fx_model::timing::{self, Bottleneck, ExecConfig, KernelProfile};
use a64fx_model::traffic::{GateTraffic, KernelKind, TrafficModel, AMP_BYTES};
use a64fx_model::ChipParams;

use crate::circuit::Gate;
use crate::program::{Program, SweepOp};

/// Map a gate to the kernel-kind taxonomy of the traffic model.
pub fn classify(gate: &Gate) -> KernelKind {
    match gate {
        Gate::Cz(..) | Gate::CPhase(..) | Gate::Rzz(..) => KernelKind::TwoQubitDiagonal,
        Gate::Cx(..) | Gate::Cy(..) => KernelKind::ControlledDense,
        Gate::Swap(..) => KernelKind::Swap,
        g if g.arity() == 1 && g.is_diagonal() => KernelKind::OneQubitDiagonal,
        g if g.arity() == 1 => KernelKind::OneQubitDense,
        g if g.arity() == 2 => KernelKind::TwoQubitDense,
        // 3-qubit permutation gates sweep like a fused 3-qubit op.
        _ => KernelKind::FusedDense { k: 3 },
    }
}

/// Predicted traffic of one gate on an `n`-qubit state.
pub fn gate_traffic(model: &TrafficModel, gate: &Gate, n: u32) -> GateTraffic {
    model.predict(classify(gate), n, &gate.qubits())
}

/// Estimated dynamic SVE instruction count for a kernel moving
/// `amps_touched` amplitudes, at the chip's vector length.
///
/// Calibrated from the counted `kernels::sve` loops: a dense 1q pair
/// iteration at VL512 issues ~22 instructions for 8 pairs (ld2×2, st2×2,
/// 16 FP, 2 predicate) ⇒ ~2.8 instructions per amplitude; diagonal
/// kernels ~1.5.
pub fn estimate_instructions(kind: KernelKind, amps_touched: u64, simd_bits: u16) -> u64 {
    let lanes = (simd_bits as u64 / 64).max(1);
    let per_lane_iter = match kind {
        KernelKind::OneQubitDiagonal | KernelKind::TwoQubitDiagonal => 12,
        KernelKind::OneQubitDense | KernelKind::ControlledDense => 22,
        KernelKind::TwoQubitDense => 40,
        KernelKind::FusedDense { k } => 12u64 << k,
        // Pure data movement: paired ld/st plus index arithmetic.
        KernelKind::Swap => 8,
    };
    amps_touched.div_ceil(lanes) * per_lane_iter / 2
}

/// A predicted execution profile of a whole [`Program`].
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Predicted wall seconds on the modelled chip.
    pub seconds: f64,
    /// Total predicted HBM2 traffic in bytes.
    pub mem_bytes: u64,
    /// Total DP FLOPs.
    pub flops: u64,
    /// Number of state sweeps executed.
    pub sweeps: usize,
    /// How many gates hit each bottleneck.
    pub bottlenecks: BTreeMap<&'static str, usize>,
}

impl ModelReport {
    /// Effective bandwidth implied by the prediction (bytes/s).
    pub fn effective_bandwidth(&self) -> f64 {
        if self.seconds > 0.0 {
            self.mem_bytes as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Effective GFLOP/s.
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

fn bottleneck_name(b: Bottleneck) -> &'static str {
    match b {
        Bottleneck::FloatingPoint => "fp",
        Bottleneck::Memory => "memory",
        Bottleneck::Issue => "issue",
    }
}

/// Prediction for a single kernel sweep: seconds plus the bottleneck that
/// pins it. Shared by [`predict`] and by the telemetry layer, which
/// records one of these next to every measured span so the drift report
/// joins on identical model numbers.
#[derive(Debug, Clone, Copy)]
pub struct SweepPrediction {
    /// Predicted wall seconds of this one sweep on the modelled chip.
    pub seconds: f64,
    /// Name of the limiting resource (`"fp"`, `"memory"`, `"issue"`).
    pub bottleneck: &'static str,
}

/// Predict one kernel sweep from its traffic on an `n`-qubit state.
///
/// When the state fits in cache, the memory term uses the cache level's
/// bandwidth instead of HBM2 (the residency rule every predictor shares).
pub fn predict_sweep(
    chip: &ChipParams,
    cfg: &ExecConfig,
    model: &TrafficModel,
    kind: KernelKind,
    traffic: &GateTraffic,
    n: u32,
) -> SweepPrediction {
    let resident = model.residency(n);
    let mem_bytes = if resident == 2 { traffic.mem_bytes } else { 0 };
    let l2_bytes = if resident >= 1 { traffic.mem_bytes } else { 0 };
    let profile = KernelProfile {
        flops: traffic.flops,
        mem_bytes,
        l2_bytes,
        instructions: estimate_instructions(kind, traffic.amps_read, chip.simd_bits),
        gather_scatter: 0,
    };
    let p = timing::predict(chip, &profile, cfg);
    SweepPrediction { seconds: p.seconds, bottleneck: bottleneck_name(p.bottleneck) }
}

/// Predict the execution of a lowered `program`: one [`predict_sweep`]
/// per op, priced from [`SweepOp::traffic`] — the same figures a traced
/// run of the same program records span by span. Block ops are what
/// make the blocked and planned lowerings win on the model: one memory
/// sweep carries the arithmetic of every member.
pub fn predict(chip: &ChipParams, cfg: &ExecConfig, program: &Program) -> ModelReport {
    let model = TrafficModel::new(chip.clone());
    let n = program.n_qubits;
    let mut report = ModelReport {
        seconds: 0.0,
        mem_bytes: 0,
        flops: 0,
        sweeps: 0,
        bottlenecks: BTreeMap::new(),
    };
    for op in &program.ops {
        let (kind, traffic) = op.traffic(&model, n);
        let p = predict_sweep(chip, cfg, &model, kind, &traffic, n);
        report.seconds += p.seconds;
        report.mem_bytes += traffic.mem_bytes;
        report.flops += traffic.flops;
        report.sweeps += 1;
        *report.bottlenecks.entry(p.bottleneck).or_insert(0) += 1;
    }
    report
}

/// Traffic of one fused observable reduction over an `n`-qubit state:
/// `sweeps` *read-only* full-state passes (one per Pauli basis group —
/// the diagonal terms share one, each distinct flip mask adds one), with
/// no writebacks. The materialize pass costs ~3 flops per amplitude per
/// sweep (norm or conjugate product) and each of the `terms` sign folds
/// adds ~1 flop per amplitude over L1-resident scratch.
pub fn expectation_traffic(
    model: &TrafficModel,
    n: u32,
    terms: usize,
    sweeps: usize,
) -> GateTraffic {
    let amps = 1u64 << n;
    let line_bytes = model.chip().l2.line_bytes as u64;
    let total_lines = (amps * AMP_BYTES).div_ceil(line_bytes);
    let lines_touched = total_lines * sweeps as u64;
    // Read-only: every touched line is filled once, never written back.
    let mem_bytes = lines_touched * line_bytes;
    let flops = amps * (3 * sweeps as u64 + terms as u64);
    GateTraffic {
        amps_read: amps * sweeps as u64,
        amps_written: 0,
        lines_touched,
        mem_bytes,
        flops,
        arithmetic_intensity: if mem_bytes == 0 { 0.0 } else { flops as f64 / mem_bytes as f64 },
    }
}

/// Predict one fused observable evaluation (`terms` Pauli terms in
/// `sweeps` basis-group passes) on the modelled chip.
pub fn predict_expectation(
    chip: &ChipParams,
    cfg: &ExecConfig,
    n: u32,
    terms: usize,
    sweeps: usize,
) -> (GateTraffic, SweepPrediction) {
    let model = TrafficModel::new(chip.clone());
    let traffic = expectation_traffic(&model, n, terms, sweeps);
    let p = predict_sweep(chip, cfg, &model, KernelKind::OneQubitDiagonal, &traffic, n);
    (traffic, p)
}

/// Traffic of one projective measurement: a read-only probability pass
/// plus a single read+write collapse pass. `measure::collapse_with_prob`
/// reuses the probability from the outcome draw, so the collapse side is
/// exactly one sweep — the telemetry regression test pins this total so
/// a reintroduced second probability pass shows up as a price mismatch.
pub fn measure_traffic(model: &TrafficModel, n: u32) -> GateTraffic {
    let amps = 1u64 << n;
    let line_bytes = model.chip().l2.line_bytes as u64;
    let total_lines = (amps * AMP_BYTES).div_ceil(line_bytes);
    // Probability fill + collapse fill + collapse writeback.
    let lines_touched = 3 * total_lines;
    let mem_bytes = lines_touched * line_bytes;
    // Norm accumulate on the probability pass, scale-or-zero on collapse.
    let flops = amps * 5;
    GateTraffic {
        amps_read: 2 * amps,
        amps_written: amps,
        lines_touched,
        mem_bytes,
        flops,
        arithmetic_intensity: if mem_bytes == 0 { 0.0 } else { flops as f64 / mem_bytes as f64 },
    }
}

/// Approximate latency of warming a cold gate stream before a sweep can
/// start streaming amplitudes: one HBM2 round trip for the matrix/
/// descriptor line (A64FX main-memory latency per public
/// microbenchmark literature). Sequential runs pay it once per sweep;
/// gate-major batched runs pay it once per *op*, because the first
/// member's sweep leaves the stream hot for the remaining members.
const COLD_STREAM_LATENCY_S: f64 = 150e-9;

/// Prediction of a batched gate-major execution against the same
/// members run as independent sequential circuits.
#[derive(Debug, Clone)]
pub struct BatchPrediction {
    /// Batch members.
    pub members: usize,
    /// The amplitude-streaming profile of one member.
    pub per_member: ModelReport,
    /// Gate-stream bytes one run touches cold: matrix entries plus a
    /// descriptor line per sweep.
    pub gate_stream_bytes: u64,
    /// Predicted seconds for `members` independent sequential runs.
    pub sequential_seconds: f64,
    /// Predicted seconds for one gate-major batched run.
    pub batched_seconds: f64,
    /// `sequential_seconds / batched_seconds` (≥ 1).
    pub speedup: f64,
}

impl BatchPrediction {
    /// Predicted batched throughput in circuits per second.
    pub fn circuits_per_sec_batched(&self) -> f64 {
        if self.batched_seconds > 0.0 {
            self.members as f64 / self.batched_seconds
        } else {
            0.0
        }
    }

    /// Predicted sequential throughput in circuits per second.
    pub fn circuits_per_sec_sequential(&self) -> f64 {
        if self.sequential_seconds > 0.0 {
            self.members as f64 / self.sequential_seconds
        } else {
            0.0
        }
    }
}

/// Predict a batched execution of `program` over `members` independent
/// state vectors in gate-major order.
///
/// The amplitude work is strictly per member — batching never reduces
/// it. What batching amortizes is the *gate stream*: the per-sweep
/// matrix/descriptor fetch (cold-latency serialized, not
/// bandwidth-amortized) and its bytes. A sequential run pays the warmup
/// for every sweep of every member; the gate-major batch pays it once
/// per op. The gain is therefore largest at small `n`, where a sweep is
/// short relative to the warmup, and vanishes as the amplitude stream
/// approaches the HBM roof — the expected E14 shape.
pub fn predict_batched(
    chip: &ChipParams,
    cfg: &ExecConfig,
    program: &Program,
    members: usize,
) -> BatchPrediction {
    let per_member = predict(chip, cfg, program);
    // 16 B per complex matrix entry (4^k entries for a k-qubit member)
    // plus one 64 B dispatch-descriptor line per sweep.
    let matrix = |k: usize| 16u64 << (2 * k);
    let gate_stream_bytes: u64 = program
        .ops
        .iter()
        .map(|op| {
            64 + match op {
                SweepOp::Gate(g) => matrix(g.arity()),
                SweepOp::Cif { gate, .. } => matrix(gate.arity()),
                SweepOp::Fused(f) => matrix(f.qubits.len()),
                SweepOp::BlockRun(source) => source.iter().map(|g| matrix(g.arity())).sum(),
                SweepOp::BlockPass(fs) => fs.iter().map(|f| matrix(f.qubits.len())).sum(),
                SweepOp::AxisSwap(..) | SweepOp::Measure { .. } => 0,
            }
        })
        .sum();
    let stream_fetch_seconds = gate_stream_bytes as f64 / chip.peak_l2bw(cfg.active_cmgs)
        + program.ops.len() as f64 * COLD_STREAM_LATENCY_S;
    let m = members as f64;
    let sequential_seconds = m * (per_member.seconds + stream_fetch_seconds);
    let batched_seconds = m * per_member.seconds + stream_fetch_seconds;
    let speedup = if batched_seconds > 0.0 { sequential_seconds / batched_seconds } else { 1.0 };
    BatchPrediction {
        members,
        per_member,
        gate_stream_bytes,
        sequential_seconds,
        batched_seconds,
        speedup,
    }
}

/// What one rank exchanges over a whole distributed run — the planner's
/// exact accounting of its own plan, fed to [`predict_distributed`].
///
/// All quantities are *per rank* and symmetric across ranks (every
/// exchange in the engine is pairwise and simultaneous).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeProfile {
    /// Bytes each rank pushes onto the wire.
    pub bytes_per_rank: u64,
    /// Point-to-point messages each rank sends.
    pub messages_per_rank: u64,
    /// Exchange phases (pair exchanges plus global–local swaps).
    pub phases: u64,
    /// Amplitude bytes of local compute the overlap engine schedules
    /// *during* the wire time (keep-half sweeps); zero for plans that
    /// exchange synchronously.
    pub hidden_bytes_per_rank: u64,
}

/// Prediction of a distributed execution: local compute plus an α–β
/// exchange term, with overlap credited as hidden communication.
#[derive(Debug, Clone)]
pub struct DistPrediction {
    /// Ranks the state is sliced across.
    pub n_ranks: usize,
    /// Per-rank local compute (the full-circuit sweep work ÷ ranks).
    pub compute: ModelReport,
    /// Wire time per rank under the link model (α·msgs/links + B/inj).
    pub comm_seconds: f64,
    /// Local compute available to hide behind the wire, in seconds.
    pub hidden_seconds: f64,
    /// `max(0, comm − hidden)` — what the critical path actually sees.
    pub exposed_comm_seconds: f64,
    /// End-to-end: per-rank compute + exposed communication.
    pub seconds: f64,
    /// Bytes each rank exchanged (copied from the profile).
    pub exchanged_bytes_per_rank: u64,
}

impl DistPrediction {
    /// Fraction of the wire time the critical path sees (1.0 when
    /// nothing is hidden, 0.0 when overlap swallows it all).
    pub fn exposed_fraction(&self) -> f64 {
        if self.comm_seconds > 0.0 {
            self.exposed_comm_seconds / self.comm_seconds
        } else {
            0.0
        }
    }
}

/// Predict a distributed execution of `program` over `n_ranks` ranks
/// whose plan exchanges according to `profile`.
///
/// Compute is the program's sweep model divided evenly across ranks
/// (every rank sweeps its `2^{n−g}`-amplitude slice in parallel).
/// Communication is priced by the Tofu-D-style α–β [`LinkModel`]; the
/// overlap engine's keep-half compute (`hidden_bytes_per_rank`, priced
/// at the HBM roof) is subtracted from the wire time before it lands on
/// the critical path — the `max(0, comm − compute)` shape the planner
/// exists to reach.
pub fn predict_distributed(
    chip: &ChipParams,
    cfg: &ExecConfig,
    program: &Program,
    n_ranks: usize,
    link: &LinkModel,
    profile: &ExchangeProfile,
) -> DistPrediction {
    let full = predict(chip, cfg, program);
    let r = n_ranks.max(1) as u64;
    let compute = ModelReport {
        seconds: full.seconds / r as f64,
        mem_bytes: full.mem_bytes / r,
        flops: full.flops / r,
        sweeps: full.sweeps,
        bottlenecks: full.bottlenecks,
    };
    let comm_seconds = if profile.messages_per_rank == 0 && profile.bytes_per_rank == 0 {
        0.0
    } else {
        link.exchange_time(profile.messages_per_rank, profile.bytes_per_rank)
    };
    let hidden_seconds = profile.hidden_bytes_per_rank as f64 / chip.peak_membw(cfg.active_cmgs);
    let exposed_comm_seconds = (comm_seconds - hidden_seconds).max(0.0);
    DistPrediction {
        n_ranks,
        seconds: compute.seconds + exposed_comm_seconds,
        comm_seconds,
        hidden_seconds,
        exposed_comm_seconds,
        exchanged_bytes_per_rank: profile.bytes_per_rank,
        compute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::library;

    fn chip() -> ChipParams {
        ChipParams::a64fx()
    }

    #[test]
    fn batched_prediction_amortizes_the_gate_stream() {
        let chip = chip();
        let cfg = ExecConfig::full_chip();
        let circuit = library::qft(12);
        let p1 = predict_batched(&chip, &cfg, &Program::per_gate(&circuit), 1);
        let p8 = predict_batched(&chip, &cfg, &Program::per_gate(&circuit), 8);
        // One member: nothing to amortize.
        assert!((p1.speedup - 1.0).abs() < 1e-12);
        assert!((p1.sequential_seconds - p1.batched_seconds).abs() < 1e-15);
        // Eight members: the per-run stream warmup is paid once.
        assert!(p8.speedup > 1.0);
        assert!(p8.batched_seconds < p8.sequential_seconds);
        assert!(p8.circuits_per_sec_batched() > p8.circuits_per_sec_sequential());
        // The amplitude work itself is never reduced.
        assert!(p8.batched_seconds >= 8.0 * p8.per_member.seconds);
    }

    #[test]
    fn batched_gain_grows_with_members_and_shrinks_with_width() {
        let chip = chip();
        let cfg = ExecConfig::full_chip();
        let small = library::qft(10);
        let s2 = predict_batched(&chip, &cfg, &Program::per_gate(&small), 2);
        let s16 = predict_batched(&chip, &cfg, &Program::per_gate(&small), 16);
        assert!(s16.speedup > s2.speedup, "{} vs {}", s16.speedup, s2.speedup);
        // At large n the amplitude stream hits the HBM roof and the
        // warmup is negligible: the relative gain must collapse.
        let large = library::qft(26);
        let l16 = predict_batched(&chip, &cfg, &Program::per_gate(&large), 16);
        assert!(
            s16.speedup > l16.speedup,
            "small-n {} should out-gain large-n {}",
            s16.speedup,
            l16.speedup
        );
        assert!(l16.speedup < 1.05, "HBM-bound regime should be near-flat: {}", l16.speedup);
    }

    #[test]
    fn gate_stream_bytes_count_matrices_and_descriptors() {
        let chip = chip();
        let cfg = ExecConfig::single_core();
        let mut c = Circuit::new(4);
        c.h(0); // 1q: 16·4 + 64
        c.cx(0, 1); // 2q: 16·16 + 64
        c.ccx(0, 1, 2); // 3q: 16·64 + 64
        let p = predict_batched(&chip, &cfg, &Program::per_gate(&c), 4);
        assert_eq!(p.gate_stream_bytes, (64 + 64) + (256 + 64) + (1024 + 64));
        assert_eq!(p.members, 4);
    }

    #[test]
    fn classification_table() {
        assert_eq!(classify(&Gate::H(0)), KernelKind::OneQubitDense);
        assert_eq!(classify(&Gate::Rz(0, 0.1)), KernelKind::OneQubitDiagonal);
        assert_eq!(classify(&Gate::T(0)), KernelKind::OneQubitDiagonal);
        assert_eq!(classify(&Gate::Cx(0, 1)), KernelKind::ControlledDense);
        assert_eq!(classify(&Gate::Cz(0, 1)), KernelKind::TwoQubitDiagonal);
        assert_eq!(classify(&Gate::Rzz(0, 1, 0.2)), KernelKind::TwoQubitDiagonal);
        assert_eq!(classify(&Gate::Swap(0, 1)), KernelKind::Swap);
        assert_eq!(classify(&Gate::Ccx(0, 1, 2)), KernelKind::FusedDense { k: 3 });
    }

    #[test]
    fn large_state_circuit_is_memory_bound() {
        let c = library::hadamard_layers(26, 1);
        let report = predict(&chip(), &ExecConfig::full_chip(), &Program::per_gate(&c));
        assert_eq!(report.sweeps, 26);
        assert_eq!(report.bottlenecks.get("memory"), Some(&26));
        // Effective bandwidth is pinned at the HBM roof.
        let bw = report.effective_bandwidth();
        assert!((bw - 1.024e12).abs() / 1.024e12 < 0.01, "bw = {bw}");
    }

    #[test]
    fn small_state_circuit_is_not_memory_bound() {
        let c = library::hadamard_layers(10, 1);
        let report = predict(&chip(), &ExecConfig::single_core(), &Program::per_gate(&c));
        assert_eq!(report.bottlenecks.get("memory"), None, "{:?}", report.bottlenecks);
    }

    #[test]
    fn fusion_cuts_predicted_time_on_deep_circuits() {
        let c = library::rotation_layers(26, 4, 0.3);
        let cfg = ExecConfig::full_chip();
        let naive = predict(&chip(), &cfg, &Program::per_gate(&c));
        let fused = predict(&chip(), &cfg, &Program::greedy_fused(&c, 4));
        assert!(fused.sweeps < naive.sweeps);
        assert!(
            fused.seconds < naive.seconds / 2.0,
            "fused {} vs naive {}",
            fused.seconds,
            naive.seconds
        );
        assert!(fused.mem_bytes < naive.mem_bytes);
    }

    #[test]
    fn predicted_seconds_scale_with_qubits() {
        let cfg = ExecConfig::full_chip();
        let t24 =
            predict(&chip(), &cfg, &Program::per_gate(&library::hadamard_layers(24, 1))).seconds;
        let t26 =
            predict(&chip(), &cfg, &Program::per_gate(&library::hadamard_layers(26, 1))).seconds;
        // 4× amplitudes × 26/24 gates ≈ 4.33×.
        let ratio = t26 / t24;
        assert!((ratio - 4.0 * 26.0 / 24.0).abs() < 0.5, "ratio = {ratio}");
    }

    #[test]
    fn instruction_estimate_scales_inverse_with_simd() {
        let a = estimate_instructions(KernelKind::OneQubitDense, 1 << 20, 128);
        let b = estimate_instructions(KernelKind::OneQubitDense, 1 << 20, 512);
        assert_eq!(a, b * 4);
    }

    #[test]
    fn gflops_and_bandwidth_reported() {
        let c = library::hadamard_layers(25, 1);
        let r = predict(&chip(), &ExecConfig::full_chip(), &Program::per_gate(&c));
        assert!(r.gflops() > 0.0);
        assert!(r.effective_bandwidth() > 0.0);
    }

    #[test]
    fn distributed_prediction_charges_exposed_comm_only() {
        let cfg = ExecConfig::full_chip();
        let link = LinkModel::default();
        let c = library::qft(20);
        let none = ExchangeProfile::default();
        let sync = ExchangeProfile {
            bytes_per_rank: 1 << 28,
            messages_per_rank: 16,
            phases: 16,
            hidden_bytes_per_rank: 0,
        };
        let overlapped = ExchangeProfile { hidden_bytes_per_rank: u64::MAX / 2, ..sync };
        let p0 = predict_distributed(&chip(), &cfg, &Program::per_gate(&c), 4, &link, &none);
        let ps = predict_distributed(&chip(), &cfg, &Program::per_gate(&c), 4, &link, &sync);
        let po = predict_distributed(&chip(), &cfg, &Program::per_gate(&c), 4, &link, &overlapped);
        // No exchange: end-to-end is pure compute.
        assert_eq!(p0.comm_seconds, 0.0);
        assert!((p0.seconds - p0.compute.seconds).abs() < 1e-15);
        // Synchronous exchange pays the full wire time.
        assert!(ps.comm_seconds > 0.0);
        assert!((ps.exposed_comm_seconds - ps.comm_seconds).abs() < 1e-15);
        assert!((ps.exposed_fraction() - 1.0).abs() < 1e-12);
        // Full overlap hides it entirely; compute is unchanged.
        assert_eq!(po.exposed_comm_seconds, 0.0);
        assert_eq!(po.exposed_fraction(), 0.0);
        assert!(po.seconds < ps.seconds);
        assert!((po.compute.seconds - ps.compute.seconds).abs() < 1e-15);
    }

    #[test]
    fn distributed_compute_splits_across_ranks() {
        let cfg = ExecConfig::full_chip();
        let link = LinkModel::default();
        let c = library::hadamard_layers(22, 1);
        let none = ExchangeProfile::default();
        let p2 = predict_distributed(&chip(), &cfg, &Program::per_gate(&c), 2, &link, &none);
        let p8 = predict_distributed(&chip(), &cfg, &Program::per_gate(&c), 8, &link, &none);
        let ratio = p2.compute.seconds / p8.compute.seconds;
        assert!((ratio - 4.0).abs() < 1e-9, "ratio = {ratio}");
        assert_eq!(p2.compute.mem_bytes, 4 * p8.compute.mem_bytes);
    }
}
