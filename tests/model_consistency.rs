//! Cross-crate consistency of the performance model: the closed-form
//! traffic formulas, the executable cache simulator, the SVE instruction
//! counter, and the timing model must tell one coherent story.

use a64fx_qcs::a64fx::cache::MemoryHierarchy;
use a64fx_qcs::a64fx::roofline::{attainable_gflops, ridge_point};
use a64fx_qcs::a64fx::timing::{predict, Bottleneck, ExecConfig, KernelProfile};
use a64fx_qcs::a64fx::traffic::{KernelKind, TrafficModel};
use a64fx_qcs::a64fx::ChipParams;
use a64fx_qcs::core::circuit::Circuit;
use a64fx_qcs::core::gates::standard;
use a64fx_qcs::core::kernels::sve::apply_1q_sve;
use a64fx_qcs::core::perf::{self, predict_batched, ModelReport};
use a64fx_qcs::core::program::Program;
use a64fx_qcs::core::testing;
use a64fx_qcs::core::StateVector;
use a64fx_qcs::sve::{SveCtx, Vl};
use qcs_bench::replay_1q_stream;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn analytic_traffic_equals_simulated_traffic_for_dense_1q() {
    let chip = ChipParams::a64fx();
    let model = TrafficModel::a64fx();
    for n in [18u32, 20] {
        for t in [0u32, 7, n - 1] {
            let mut hier = MemoryHierarchy::new(chip.l1d, chip.l2);
            replay_1q_stream(&mut hier, n, t);
            hier.drain();
            let simulated = hier.stats().l2_mem_bytes;
            let analytic = model.predict(KernelKind::OneQubitDense, n, &[t]).mem_bytes;
            assert_eq!(simulated, analytic, "n={n} t={t}");
        }
    }
}

#[test]
fn sve_counted_flops_match_analytic_flops() {
    // The traffic model says a dense 1q gate costs 8 flops/amplitude
    // (4 complex FMA per pair). The counted SVE kernel must agree for a
    // full-lane target.
    let n = 12u32;
    let mut ctx = SveCtx::a64fx();
    let mut rng = StdRng::seed_from_u64(4);
    let mut state = StateVector::random(n, &mut rng);
    apply_1q_sve(&mut ctx, state.amplitudes_mut(), n - 1, &standard::h());
    let counted = ctx.flops();
    let analytic = TrafficModel::a64fx().predict(KernelKind::OneQubitDense, n, &[n - 1]).flops;
    // The split-complex kernel issues 4 fmul + 12 fma per amplitude pair;
    // counting fma as 2 flops that is 4 + 24 = 28 hardware flops/pair.
    // The model's *algorithmic* count is 16 flops/pair (8 per amplitude),
    // so the committed-ops/algorithmic ratio is exactly 28/16 = 1.75 —
    // the SVE overcount any A64FX hardware-counter measurement shows for
    // split-complex kernels. Pin it.
    let ratio = counted as f64 / analytic as f64;
    assert!(
        (ratio - 1.75).abs() < 1e-12,
        "counted {counted} vs analytic {analytic} (ratio {ratio})"
    );
}

#[test]
fn timing_model_is_monotone_in_resources() {
    let chip = ChipParams::a64fx();
    let amps = 1u64 << 26;
    let profile = KernelProfile {
        flops: amps * 8,
        mem_bytes: amps * 32,
        l2_bytes: amps * 32,
        instructions: amps,
        gather_scatter: 0,
    };
    let mut last = f64::MAX;
    for cmgs in 1..=4usize {
        let cfg = ExecConfig { cores: cmgs * 12, active_cmgs: cmgs, ..ExecConfig::full_chip() };
        let t = predict(&chip, &profile, &cfg).seconds;
        assert!(t < last, "more CMGs must not be slower");
        last = t;
    }
}

#[test]
fn bottleneck_transitions_match_roofline() {
    // Sweep arithmetic intensity through the ridge point: the timing
    // model's bottleneck must flip from memory to FP exactly where the
    // roofline says.
    let chip = ChipParams::a64fx();
    let ridge = ridge_point(chip.peak_flops_chip(), chip.peak_membw(4));
    let bytes = 1u64 << 30;
    for ai_tenths in 1..100u64 {
        let ai = ai_tenths as f64 / 10.0;
        let profile = KernelProfile {
            flops: (bytes as f64 * ai) as u64,
            mem_bytes: bytes,
            l2_bytes: bytes,
            instructions: 1,
            gather_scatter: 0,
        };
        let p = predict(&chip, &profile, &ExecConfig::full_chip());
        let expect_memory = ai < ridge;
        assert_eq!(
            p.bottleneck == Bottleneck::Memory,
            expect_memory,
            "ai={ai} ridge={ridge} bottleneck={:?}",
            p.bottleneck
        );
        // And the implied throughput sits on the roofline.
        let implied = profile.flops as f64 / p.seconds;
        let roof = attainable_gflops(ai, chip.peak_flops_chip(), chip.peak_membw(4));
        // 1e-6 tolerance: flops are u64-truncated from ai × bytes.
        assert!((implied - roof).abs() / roof < 1e-6, "ai={ai}");
    }
}

/// The gate-by-gate (naive) model of `circuit`.
fn predict_circuit(chip: &ChipParams, cfg: &ExecConfig, circuit: &Circuit) -> ModelReport {
    perf::predict(chip, cfg, &Program::per_gate(circuit))
}

#[test]
fn circuit_prediction_decomposes_into_gate_predictions() {
    // predict_circuit must equal the sum over gates of single-gate
    // circuits' predictions (the model is per-sweep additive) — for
    // arbitrary generated circuits, not just structured families.
    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    for seed in 0..8u64 {
        let circuit = testing::random_circuit_seeded(8, 30, seed);
        let whole = predict_circuit(&chip, &cfg, &circuit);
        let mut sum_seconds = 0.0;
        let mut sum_bytes = 0u64;
        for g in circuit.gates() {
            let mut single = Circuit::new(8);
            single.push(g.clone());
            let p = predict_circuit(&chip, &cfg, &single);
            sum_seconds += p.seconds;
            sum_bytes += p.mem_bytes;
        }
        assert!(
            (whole.seconds - sum_seconds).abs() / sum_seconds < 1e-12,
            "seed {seed}: per-sweep additivity broken"
        );
        assert_eq!(whole.mem_bytes, sum_bytes, "seed {seed}");
    }
}

#[test]
fn batched_prediction_is_consistent_with_the_single_run_model() {
    // The batched model must embed the single-run model exactly: its
    // per-member column is predict_circuit verbatim; once every core
    // has a member (a 256 KiB one per core sits in L2 like the lone
    // run) the member-major batch is m lone runs plus one region; and
    // keeping a member resident can only help (speedup ≥ 1).
    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    for seed in 0..4u64 {
        let circuit = testing::random_circuit_seeded(14, 50, seed);
        let single = predict_circuit(&chip, &cfg, &circuit);
        for members in [1usize, 8, 48, 96] {
            let b = predict_batched(&chip, &cfg, &Program::per_gate(&circuit), members);
            assert_eq!(b.members, members);
            assert_eq!(b.per_member.seconds, single.seconds, "seed {seed}");
            assert_eq!(b.per_member.mem_bytes, single.mem_bytes, "seed {seed}");
            assert!(b.speedup >= 1.0, "seed {seed}: residency cannot hurt");
            assert!(b.member_major_seconds <= b.gate_major_seconds, "seed {seed}");
            if members >= cfg.cores {
                let region = b.member_major_seconds - members as f64 * single.seconds;
                assert!((0.0..1e-4).contains(&region), "seed {seed}: one region, not {region} s");
            }
        }
    }
}

#[test]
fn vl_sweep_counted_instructions_halve_per_doubling() {
    // Full-lane kernel: dynamic instruction count ∝ 1/VL, the premise of
    // the E3 analysis.
    let n = 12u32;
    let mut counts = Vec::new();
    for vl in Vl::pow2_sweep() {
        let mut ctx = SveCtx::new(vl);
        let mut rng = StdRng::seed_from_u64(6);
        let mut state = StateVector::random(n, &mut rng);
        apply_1q_sve(&mut ctx, state.amplitudes_mut(), n - 1, &standard::h());
        counts.push(ctx.counts().total() as f64);
    }
    for w in counts.windows(2) {
        let ratio = w[0] / w[1];
        assert!((1.8..=2.2).contains(&ratio), "halving expected, got {ratio}");
    }
}
