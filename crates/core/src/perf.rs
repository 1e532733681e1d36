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
use crate::program::Program;

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
    predict_sweep_at(chip, cfg, kind, traffic, model.residency(n))
}

/// [`predict_sweep`] with the residency level (0 = L1, 1 = L2,
/// 2 = HBM2) stated by the caller — for working sets that are not one
/// lone state ([`predict_batched`]).
pub fn predict_sweep_at(
    chip: &ChipParams,
    cfg: &ExecConfig,
    kind: KernelKind,
    traffic: &GateTraffic,
    resident: u8,
) -> SweepPrediction {
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
/// per op, priced from [`SweepOp::traffic`](crate::program::SweepOp::traffic) — the same figures a traced
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

/// Fork–join cost of one worksharing region across the chip's threads:
/// the order of the EPCC-syncbench `parallel for` overhead public A64FX
/// studies report for 48 threads. A model constant for the A64FX
/// column; the host's own figure is measured (`omp.region_overhead_us`
/// in the benchmark) and never mixed with it.
const REGION_OVERHEAD_S: f64 = 5e-6;

/// Prediction of one batch under the two orders a batch can be walked
/// in: **member-major** (what [`BatchSimulator`](crate::batch::BatchSimulator)
/// runs — a core keeps one member for its whole program, one
/// worksharing region per batch) against **gate-major** (every op
/// across all members before the next op, one region per op).
#[derive(Debug, Clone)]
pub struct BatchPrediction {
    /// Batch members.
    pub members: usize,
    /// One member's program priced as a lone run, every core of the
    /// configuration worksharing inside each sweep.
    pub per_member: ModelReport,
    /// Predicted seconds of the member-major batch.
    pub member_major_seconds: f64,
    /// Predicted seconds of the same batch walked gate-major.
    pub gate_major_seconds: f64,
    /// `gate_major_seconds / member_major_seconds`: what the schedule
    /// is worth (≥ 1).
    pub speedup: f64,
}

impl BatchPrediction {
    /// Predicted throughput of the engine's member-major schedule, in
    /// circuits per second.
    pub fn circuits_per_sec_batched(&self) -> f64 {
        per_sec(self.members, self.member_major_seconds)
    }

    /// Predicted throughput of the gate-major order, in circuits per
    /// second.
    pub fn circuits_per_sec_gate_major(&self) -> f64 {
        per_sec(self.members, self.gate_major_seconds)
    }
}

fn per_sec(members: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        members as f64 / seconds
    } else {
        0.0
    }
}

/// Predict a batched execution of `program` over `members` independent
/// state vectors.
///
/// The amplitude work is strictly per member and the gate matrices are
/// L1-resident under any order, so the two orders differ in exactly two
/// things. **Where the working set lives**
/// ([`TrafficModel::residency_of`]): member-major revisits one member
/// per core until its program ends, so a core's L1 sees one state and a
/// CMG's L2 one state per core it runs; gate-major sweeps the whole
/// batch between two visits to the same member, so the caches see every
/// member a core, or a CMG, owns. **How many regions open**: one per
/// batch against one per op. The gain is largest where one member fits
/// a cache level the batch does not, and vanishes once a single member
/// streams from HBM2 under either order.
pub fn predict_batched(
    chip: &ChipParams,
    cfg: &ExecConfig,
    program: &Program,
    members: usize,
) -> BatchPrediction {
    let per_member = predict(chip, cfg, program);
    let model = TrafficModel::new(chip.clone());
    let n = program.n_qubits;
    let state_bytes = (1u64 << n) * AMP_BYTES;
    // A member is run by one core, so a batch keeps at most `members`
    // cores busy, spread over the CMGs; priced at those cores'
    // aggregate rates, `members` sweeps one after another is also
    // `busy.cores` of them at a time.
    let busy = ExecConfig {
        cores: cfg.cores.min(members).max(1),
        active_cmgs: cfg.active_cmgs.min(members).max(1),
        mode: cfg.mode,
    };
    // Seconds for the batch when a core revisits `per_core` member
    // states and a CMG `per_cmg`, under `regions` fork–joins.
    let price = |per_core: usize, per_cmg: usize, regions: usize| {
        let level = model.residency_of(state_bytes * per_core as u64, state_bytes * per_cmg as u64);
        let sweeps: f64 = program
            .ops
            .iter()
            .map(|op| {
                let (kind, traffic) = op.traffic(&model, n);
                predict_sweep_at(chip, &busy, kind, &traffic, level).seconds
            })
            .sum();
        members as f64 * sweeps + regions as f64 * REGION_OVERHEAD_S
    };
    let cores_per_cmg = busy.cores.div_ceil(busy.active_cmgs);
    let member_major_seconds = price(1, cores_per_cmg, 1);
    let gate_major_seconds =
        price(members.div_ceil(busy.cores), members.div_ceil(busy.active_cmgs), program.ops.len());
    let speedup =
        if member_major_seconds > 0.0 { gate_major_seconds / member_major_seconds } else { 1.0 };
    BatchPrediction { members, per_member, member_major_seconds, gate_major_seconds, speedup }
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
    use crate::library;

    fn chip() -> ChipParams {
        ChipParams::a64fx()
    }

    #[test]
    fn member_major_never_loses_and_prices_the_same_amplitude_work() {
        let chip = chip();
        let cfg = ExecConfig::full_chip();
        let circuit = library::qft(12);
        let program = Program::per_gate(&circuit);
        let p1 = predict_batched(&chip, &cfg, &program, 1);
        let p96 = predict_batched(&chip, &cfg, &program, 96);
        for p in [&p1, &p96] {
            assert!(p.speedup >= 1.0, "{}", p.speedup);
            assert!(p.member_major_seconds <= p.gate_major_seconds);
            assert!(p.circuits_per_sec_batched() >= p.circuits_per_sec_gate_major());
        }
        // Every core busy and a 64 KiB member L1-resident, the lone
        // run's level: member-major is `members` lone runs plus one
        // region.
        let lone_runs = 96.0 * p96.per_member.seconds;
        assert!((p96.member_major_seconds - lone_runs - REGION_OVERHEAD_S).abs() < 1e-12);
        // A lone member sits at the same level under either order and
        // differs only in the region count.
        let regions = (program.ops.len() - 1) as f64 * REGION_OVERHEAD_S;
        assert!((p1.gate_major_seconds - p1.member_major_seconds - regions).abs() < 1e-12);
    }

    #[test]
    fn the_gain_sits_where_a_member_fits_a_level_the_batch_does_not() {
        let chip = chip();
        let cfg = ExecConfig::full_chip();
        let speedup = |n: u32, members: usize| {
            let c = library::qft(n);
            predict_batched(&chip, &cfg, &Program::per_gate(&c), members).speedup
        };
        // n = 18: twelve 4 MiB members do not fit a CMG's 8 MiB L2 and
        // neither does the batch: both stream, and what is left is the
        // region count on long sweeps.
        assert!(speedup(18, 64) < 1.05, "{}", speedup(18, 64));
        // n = 12: a 64 KiB member is L1-resident for its whole program
        // member-major; two per core are not, gate-major.
        assert!(speedup(12, 96) > speedup(18, 64));
        // n = 26 streams from HBM2 under either order.
        assert!(speedup(26, 16) < 1.001, "{}", speedup(26, 16));
        // More members push the gate-major working set from L2 to HBM2;
        // the member-major one does not move.
        assert!(speedup(14, 512) > speedup(14, 64));
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
