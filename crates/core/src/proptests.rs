//! Property-based tests of simulator-wide invariants.

use proptest::prelude::*;

use crate::circuit::{Circuit, Gate};
use crate::config::SimConfig;
use crate::library;
use crate::sim::{Simulator, Strategy as ExecStrategy};
use crate::state::StateVector;
use crate::testing;

/// Strategy: a random circuit on exactly `n` qubits, drawn from the
/// shared [`testing`] generator so the property suite exercises every
/// gate constructor (including `Unitary1`/`Unitary2` matrices and the
/// three-qubit `Ccx`/`CSwap`) and shrinks over `(gates, seed)`.
fn arb_circuit(n: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (0..max_gates, any::<u64>())
        .prop_map(move |(gates, seed)| testing::random_circuit_seeded(n, gates, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unitarity: every circuit preserves the norm.
    #[test]
    fn circuits_preserve_norm(c in arb_circuit(5, 40)) {
        let mut s = StateVector::plus(5);
        Simulator::new().run(&c, &mut s).unwrap();
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Reversibility: C⁻¹(C(ψ)) = ψ.
    #[test]
    fn inverse_circuit_restores_state(c in arb_circuit(5, 25), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = StateVector::random(5, &mut rng);
        let mut s = init.clone();
        let sim = Simulator::new();
        sim.run(&c, &mut s).unwrap();
        sim.run(&c.inverse(), &mut s).unwrap();
        prop_assert!(s.approx_eq(&init, 1e-8), "max diff {}", s.max_abs_diff(&init));
    }

    /// Strategy equivalence: fused and blocked agree with naive on
    /// arbitrary circuits.
    #[test]
    fn strategies_equivalent(c in arb_circuit(5, 25), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = StateVector::random(5, &mut rng);
        let mut reference = init.clone();
        Simulator::new().run(&c, &mut reference).unwrap();
        for strat in [
            ExecStrategy::Fused { max_k: 3 },
            ExecStrategy::Fused { max_k: 5 },
            ExecStrategy::Blocked { block_qubits: 3 },
            ExecStrategy::Auto,
        ] {
            let mut s = init.clone();
            SimConfig::new().strategy(strat).build().unwrap().run(&c, &mut s).unwrap();
            prop_assert!(s.approx_eq(&reference, 1e-8), "{:?}", strat);
        }
    }

    /// Specialized fused kernels (diagonal / permutation / sparse /
    /// dense) agree with the generic scalar k-qubit path op-by-op and
    /// with naive execution end-to-end, on every available backend.
    #[test]
    fn specialized_fused_matches_generic_and_naive(
        c in arb_circuit(6, 30),
        seed in 0u64..1000,
        // Generated circuits include 3-qubit gates, so the fusion cap
        // must admit them.
        max_k in 3u32..6,
    ) {
        use rand::SeedableRng;
        use crate::kernels::fused::apply_fused;
        use crate::kernels::{scalar, simd};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = StateVector::random(6, &mut rng);
        let mut reference = init.clone();
        Simulator::new().run(&c, &mut reference).unwrap();
        let plan = crate::fusion::fuse(&c, max_k);
        for be in simd::available() {
            let mut spec = init.clone();
            let mut generic = init.clone();
            for op in &plan {
                apply_fused(be, spec.amplitudes_mut(), op);
                scalar::apply_kq(generic.amplitudes_mut(), &op.qubits, &op.matrix);
                prop_assert!(
                    spec.approx_eq(&generic, 1e-10),
                    "class {} diverged from generic scalar on {}",
                    op.class.name(),
                    be.name
                );
            }
            prop_assert!(spec.approx_eq(&reference, 1e-8), "fused != naive on {}", be.name);
        }
    }

    /// The planner agrees with naive execution on arbitrary circuits,
    /// across block widths and fusion caps.
    #[test]
    fn planned_equivalent_to_naive(
        c in arb_circuit(6, 30),
        seed in 0u64..1000,
        block_qubits in 2u32..7,
        // Generated circuits include 3-qubit gates, so the fusion cap
        // must admit them.
        max_k in 3u32..5,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = StateVector::random(6, &mut rng);
        let mut reference = init.clone();
        Simulator::new().run(&c, &mut reference).unwrap();
        let mut s = init.clone();
        SimConfig::new()
            .strategy(ExecStrategy::Planned { block_qubits, max_k })
            .build()
            .unwrap()
            .run(&c, &mut s)
            .unwrap();
        prop_assert!(s.approx_eq(&reference, 1e-10), "b={} k={}", block_qubits, max_k);
    }

    /// Threaded planned execution matches serial naive execution.
    #[test]
    fn planned_parallel_equivalent(
        c in arb_circuit(6, 25),
        threads in 2usize..6,
        block_qubits in 3u32..6,
    ) {
        let mut reference = StateVector::plus(6);
        Simulator::new().run(&c, &mut reference).unwrap();
        let mut s = StateVector::plus(6);
        SimConfig::new()
            .strategy(ExecStrategy::Planned { block_qubits, max_k: 3 })
            .threads(threads)
            .build()
            .unwrap()
            .run(&c, &mut s)
            .unwrap();
        prop_assert!(s.approx_eq(&reference, 1e-10), "b={} t={}", block_qubits, threads);
    }

    /// Threaded execution is bit-compatible with serial up to rounding.
    #[test]
    fn parallel_equivalent(c in arb_circuit(6, 20), threads in 2usize..6) {
        let mut serial = StateVector::plus(6);
        Simulator::new().run(&c, &mut serial).unwrap();
        let mut par = StateVector::plus(6);
        SimConfig::new().threads(threads).build().unwrap().run(&c, &mut par).unwrap();
        prop_assert!(par.approx_eq(&serial, 1e-10));
    }

    /// Diagonal gates never change probabilities.
    #[test]
    fn diagonal_gates_fix_probabilities(
        qubit in 0u32..5,
        angle in -6.3f64..6.3,
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = StateVector::random(5, &mut rng);
        let p_before = init.probabilities();
        let mut c = Circuit::new(5);
        c.rz(qubit, angle).p(qubit, angle / 2.0).z(qubit);
        let mut s = init;
        Simulator::new().run(&c, &mut s).unwrap();
        let p_after = s.probabilities();
        for (a, b) in p_before.iter().zip(&p_after) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    /// QFT is unitary on arbitrary basis states: probability mass is
    /// uniform after transforming any basis state.
    #[test]
    fn qft_uniformizes_basis_states(basis in 0usize..64) {
        let n = 6u32;
        let mut s = StateVector::basis(n, basis);
        Simulator::new().run(&library::qft(n), &mut s).unwrap();
        let expect = 1.0 / 64.0;
        for i in 0..64 {
            prop_assert!((s.probability(i) - expect).abs() < 1e-9);
        }
    }

    /// OpenQASM round trip: emit → parse reproduces the circuit's action
    /// on the zero state for any QASM-expressible circuit.
    #[test]
    fn qasm_roundtrip_preserves_action(c in arb_circuit(4, 20)) {
        // Replace or drop the gate shapes emit() rejects: ISwap becomes
        // a plain Swap, and raw unitary matrices (no QASM 2.0 form) are
        // elided — the property quantifies over whatever remains.
        let mut qasm_safe = Circuit::new(4);
        for g in c.gates() {
            match g {
                Gate::ISwap(a, b) => {
                    qasm_safe.swap(*a, *b);
                }
                Gate::Unitary1(..) | Gate::Unitary2(..) => {}
                other => {
                    qasm_safe.push(other.clone());
                }
            }
        }
        let text = crate::qasm::emit(&qasm_safe).expect("expressible");
        let reparsed = crate::qasm::parse(&text).expect("own output parses");
        let mut a = StateVector::zero(4);
        let mut b = StateVector::zero(4);
        Simulator::new().run(&qasm_safe, &mut a).unwrap();
        Simulator::new().run(&reparsed, &mut b).unwrap();
        prop_assert!(a.approx_eq(&b, 1e-10), "max diff {}", a.max_abs_diff(&b));
    }

    /// Noise trajectories keep the state normalized for any channel
    /// strength and circuit.
    #[test]
    fn noisy_trajectories_stay_normalized(
        c in arb_circuit(4, 12),
        p in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for channel in [
            crate::noise::NoiseChannel::Depolarizing { p },
            crate::noise::NoiseChannel::AmplitudeDamping { gamma: p },
        ] {
            let mut s = StateVector::zero(4);
            crate::noise::run_trajectory(crate::kernels::simd::active(), &c, &mut s, channel, &mut rng);
            prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-8, "{:?}", channel);
        }
    }

    /// Telemetry invariant: every traced naive-run span carries exactly
    /// the byte/flop counts the traffic model predicts for its gate, and
    /// tracing never perturbs the final state.
    #[test]
    fn traced_span_counters_match_gate_traffic(c in arb_circuit(5, 20), seed in 0u64..1000) {
        use a64fx_model::traffic::TrafficModel;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = StateVector::random(5, &mut rng);
        let mut plain = init.clone();
        Simulator::new().run(&c, &mut plain).unwrap();
        let mut s = init.clone();
        // Pinned to Naive: the property counts one span per gate, which
        // only the naive sweep emits.
        let sim = SimConfig::new()
            .strategy(ExecStrategy::Naive)
            .telemetry(crate::telemetry::TelemetryConfig::on())
            .build()
            .unwrap();
        let report = sim.run(&c, &mut s).unwrap();
        prop_assert!(s.approx_eq(&plain, 1e-12), "tracing changed the state");
        let trace = report.trace.expect("telemetry on");
        prop_assert_eq!(trace.spans.len(), c.len());
        let model = TrafficModel::a64fx();
        for (span, gate) in trace.spans.iter().zip(c.gates()) {
            let predicted = crate::perf::gate_traffic(&model, gate, 5);
            prop_assert_eq!(span.bytes, predicted.mem_bytes, "{:?}", gate);
            prop_assert_eq!(span.flops, predicted.flops, "{:?}", gate);
            prop_assert_eq!(span.amps, predicted.amps_read, "{:?}", gate);
            prop_assert_eq!(&span.qubits, &gate.qubits(), "{:?}", gate);
            prop_assert!(span.model_ns > 0.0, "{:?}", gate);
        }
    }

    /// Entanglement entropy is bounded by k·ln2 and symmetric across the
    /// bipartition, for arbitrary circuit-generated states.
    #[test]
    fn entropy_bounds_and_symmetry(c in arb_circuit(5, 20)) {
        let mut s = StateVector::zero(5);
        Simulator::new().run(&c, &mut s).unwrap();
        let part = [0u32, 2];
        let complement = [1u32, 3, 4];
        let sa = crate::analysis::entanglement_entropy(&s, &part);
        let sb = crate::analysis::entanglement_entropy(&s, &complement);
        prop_assert!(sa >= -1e-9, "entropy must be non-negative: {sa}");
        prop_assert!(sa <= 2.0 * std::f64::consts::LN_2 + 1e-6, "bounded by k ln 2: {sa}");
        prop_assert!((sa - sb).abs() < 1e-6, "pure-state symmetry: {sa} vs {sb}");
        // Purity consistent with entropy extremes.
        let purity = crate::analysis::purity(&s, &part);
        prop_assert!((0.25 - 1e-9..=1.0 + 1e-9).contains(&purity));
    }

    /// Checkpoint shards survive a save→restore roundtrip bit-exactly
    /// for arbitrary finite amplitude buffers and metadata.
    #[test]
    fn checkpoint_shard_roundtrip_is_bit_exact(
        raw in prop::collection::vec(
            (-1.0e3f64..1.0e3, -1.0e3f64..1.0e3),
            1..=64,
        ),
        rank in 0u32..16,
        step in 0u64..1_000_000,
    ) {
        use crate::checkpoint::{read_amps, write_amps, ShardMeta};
        // Pad to a power-of-two shard length with a plausible qubit count.
        let len = raw.len().next_power_of_two();
        let mut amps: Vec<crate::complex::C64> =
            raw.iter().map(|&(re, im)| crate::complex::C64::new(re, im)).collect();
        amps.resize(len, crate::complex::C64::default());
        let n_qubits = len.trailing_zeros().max(1);
        let meta = ShardMeta { n_qubits, rank, step };
        let mut buf = Vec::new();
        write_amps(&amps, &meta, &mut buf).unwrap();
        let (back, meta2) = read_amps(&buf[..]).unwrap();
        prop_assert_eq!(meta2, meta);
        prop_assert_eq!(back.len(), amps.len());
        for (a, b) in back.iter().zip(&amps) {
            prop_assert!(a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        }
    }

    /// Any single corrupted byte in a checkpoint shard is rejected on
    /// read — the checksum (or a stricter structural check) catches it.
    #[test]
    fn corrupted_checkpoint_shard_is_rejected(
        raw in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..=32),
        corrupt_at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        use crate::checkpoint::{read_amps, write_amps, ShardMeta};
        let len = raw.len().next_power_of_two();
        let mut amps: Vec<crate::complex::C64> =
            raw.iter().map(|&(re, im)| crate::complex::C64::new(re, im)).collect();
        amps.resize(len, crate::complex::C64::default());
        let meta = ShardMeta { n_qubits: len.trailing_zeros().max(1), rank: 0, step: 42 };
        let mut buf = Vec::new();
        write_amps(&amps, &meta, &mut buf).unwrap();
        let at = corrupt_at % buf.len();
        buf[at] ^= xor;
        prop_assert!(
            read_amps(&buf[..]).is_err(),
            "flipping byte {at} of {} must be detected",
            buf.len()
        );
    }
}
