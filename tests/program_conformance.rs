//! The `Program` contract, from the outside: the lowering, the engines,
//! the model and the tracer must all read the same sequence of sweeps.
//!
//! (a) a run executes exactly the ops `lower` emits; (b) a traced run's
//! span bytes/flops equal `perf::predict` of the same program, exactly;
//! (c) the final state bits of seeded circuits on the portable backend
//! match recorded checksums — the naive and blocked ones from *before*
//! the engines were rewritten as interpreters over `Program` — so a
//! reordered arithmetic sequence fails loudly, and every strategy's
//! state sits within 1e-12 of the naive one, so a checksum cannot bless
//! a wrong lowering; (d) `Circuit::fingerprint` separates what it must.

use a64fx_qcs::a64fx::timing::ExecConfig;
use a64fx_qcs::a64fx::ChipParams;
use a64fx_qcs::core::io::{fnv1a, fnv1a_update};
use a64fx_qcs::core::kernels::blocked::{run_tiled, Member};
use a64fx_qcs::core::kernels::dispatch::GateKernel;
use a64fx_qcs::core::kernels::fused::PreparedFused;
use a64fx_qcs::core::kernels::simd::{self, KernelBackend};
use a64fx_qcs::core::perf;
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::program::{lower, Program, SweepOp};
use a64fx_qcs::core::testing::random_circuit_seeded;

fn strategies() -> [Strategy; 4] {
    [
        Strategy::Naive,
        Strategy::Fused { max_k: 3 },
        Strategy::Blocked { block_qubits: 4 },
        Strategy::Planned { block_qubits: 4, max_k: 3 },
    ]
}

const SHAPES: [(u32, usize, u64); 3] = [(6, 40, 1), (8, 60, 2), (10, 80, 3)];

#[test]
fn a_run_executes_exactly_the_lowered_ops() {
    for seed in 0..6u64 {
        let circuit = random_circuit_seeded(7, 45, seed);
        for strategy in strategies() {
            let program = lower(&circuit, strategy);
            assert_eq!(program.strategy, strategy);
            let sim = SimConfig::default().strategy(strategy).build().unwrap();
            let mut state = StateVector::zero(7);
            let report = sim.run(&circuit, &mut state).unwrap();
            assert_eq!(report.sweeps, program.ops.len(), "{strategy} seed {seed}");

            let batch =
                BatchSimulator::from_config(SimConfig::default().strategy(strategy)).unwrap();
            let mut members = vec![StateVector::zero(7), StateVector::zero(7)];
            let report = batch.run(&circuit, &mut members).unwrap();
            assert_eq!(report.sweeps, program.ops.len(), "batched {strategy} seed {seed}");
        }
    }
}

/// A sweep runs the strategy it reports: every member executes its own
/// circuit lowered under the engine's strategy, so under `fused:3` a
/// hardware-efficient ansatz sweeps less often than it has gates, and
/// exactly as often as the serial engine of the same configuration.
#[test]
fn a_sweep_member_executes_its_circuit_under_the_engines_strategy() {
    let ansatz = hardware_efficient_ansatz(6, 2);
    let circuits: Vec<Circuit> = (0..3)
        .map(|m| {
            let theta: Vec<f64> =
                (0..ansatz.n_params()).map(|j| 0.3 + 0.11 * (m * 7 + j) as f64).collect();
            ansatz.bind(&theta)
        })
        .collect();
    for strategy in strategies() {
        let cfg = SimConfig::default().strategy(strategy);
        let serial = cfg.clone().build().unwrap();
        let batch = BatchSimulator::from_config(cfg).unwrap();
        let mut states = vec![StateVector::zero(6); circuits.len()];
        let report = batch.run_sweep(&circuits, &mut states).unwrap();
        for (m, (c, got)) in circuits.iter().zip(&states).enumerate() {
            let mut want = StateVector::zero(6);
            let run = serial.run(c, &mut want).unwrap();
            assert_eq!(state_checksum(got), state_checksum(&want), "{strategy} member {m}");
            if m == 0 {
                assert_eq!(report.sweeps, run.sweeps, "{strategy}");
            }
        }
        match strategy {
            Strategy::Naive => assert_eq!(report.sweeps, ansatz.len()),
            Strategy::Fused { .. } => assert!(report.sweeps < ansatz.len(), "{}", report.sweeps),
            _ => {}
        }
    }
}

#[test]
fn span_traffic_equals_the_model_of_the_same_program() {
    let (chip, cfg) = (ChipParams::a64fx(), ExecConfig::single_core());
    for seed in 0..6u64 {
        let circuit = random_circuit_seeded(8, 50, 100 + seed);
        for strategy in strategies() {
            let model = perf::predict(&chip, &cfg, &lower(&circuit, strategy));
            let sim = SimConfig::default()
                .strategy(strategy)
                .model(chip.clone(), cfg)
                .traced()
                .build()
                .unwrap();
            let mut state = StateVector::zero(8);
            let report = sim.run(&circuit, &mut state).unwrap();
            let trace = report.trace.expect("traced");
            assert_eq!(trace.spans.len(), model.sweeps, "{strategy} seed {seed}");
            assert_eq!(trace.summary.bytes, model.mem_bytes, "{strategy} seed {seed}");
            assert_eq!(trace.summary.flops, model.flops, "{strategy} seed {seed}");
            // And the report's own prediction is that same model.
            let predicted = report.predicted.expect("model attached");
            assert_eq!(predicted.mem_bytes, model.mem_bytes, "{strategy} seed {seed}");
            assert_eq!(predicted.flops, model.flops, "{strategy} seed {seed}");
        }
    }
}

/// FNV-1a over the IEEE-754 bits of every amplitude, in index order.
fn state_checksum(state: &StateVector) -> u64 {
    state.amplitudes().iter().fold(fnv1a(&[]), |h, a| {
        fnv1a_update(fnv1a_update(h, &a.re.to_bits().to_le_bytes()), &a.im.to_bits().to_le_bytes())
    })
}

#[test]
fn final_state_bits_match_the_recorded_engines() {
    // Portable backend, |0…0⟩ start. Rows follow SHAPES; columns
    // follow strategies(). The naive and blocked columns
    // were recorded under the per-strategy executors (`Prep`) that
    // `Program` replaced; the fused column when fusion learned to slide
    // gates past groups on other qubits; the planned column as below.
    const GOLDEN: [[u64; 4]; 3] = [
        [0x920e14d21fc5fbd9, 0x91f7309ed0d47bb1, 0x920e14d21fc5fbd9, 0x6d8f089d27690742],
        [0xe1ac15682fedd7f6, 0x7d62537e0635ae62, 0xe1ac15682fedd7f6, 0x458bdf5640a5684c],
        [0x01cd71aafe8fcc77, 0x50cd38b35ac85c80, 0x01cd71aafe8fcc77, 0x48c66b00058619f3],
    ];
    // The blocked column was re-recorded (from 31/54/74) when `blocked`
    // took the tiled runner's pinning rule: diagonals and controlled
    // gates with a qubit above the block now join runs; the states did
    // not change. The planned column (sweeps and checksums) was
    // re-recorded (sweeps from 26/50/80) when `planned` stopped
    // relocating qubits and became `blocked`'s runs with fused members:
    // it now sweeps exactly as often as `blocked`, and its arithmetic is
    // `blocked`'s with each all-low stretch of a run fused.
    const SWEEPS: [[usize; 4]; 3] = [[40, 10, 24, 24], [60, 16, 39, 39], [80, 22, 54, 54]];
    for (row, &(n, gates, seed)) in SHAPES.iter().enumerate() {
        let circuit = random_circuit_seeded(n, gates, seed);
        let mut naive = StateVector::zero(n);
        for (col, strategy) in strategies().into_iter().enumerate() {
            let config = SimConfig::default().strategy(strategy).backend(BackendChoice::Scalar);
            let mut state = StateVector::zero(n);
            let report = config.clone().build().unwrap().run(&circuit, &mut state).unwrap();
            if strategy == Strategy::Naive {
                naive = state.clone();
            }
            let off = state.max_abs_diff(&naive);
            assert!(off <= 1e-12, "{strategy} on {:?}: {off:e} off the naive state", SHAPES[row]);
            assert_eq!(report.sweeps, SWEEPS[row][col], "{strategy} on {:?}", SHAPES[row]);
            assert_eq!(
                state_checksum(&state),
                GOLDEN[row][col],
                "{strategy} on {:?}: the arithmetic sequence changed",
                SHAPES[row]
            );
            // The batch interpreter runs the same kernels per member.
            let mut members = vec![StateVector::zero(n), StateVector::zero(n)];
            BatchSimulator::from_config(config).unwrap().run(&circuit, &mut members).unwrap();
            for member in &members {
                assert_eq!(state_checksum(member), GOLDEN[row][col], "batched {strategy}");
            }
        }
    }
}

/// `program` swept serially on `be` through the public kernels and the
/// tiled runner: the engines' interpreter with the backend as an input.
fn run_on(be: &KernelBackend, program: &Program, state: &mut StateVector) {
    fn member<'p>(op: &'p SweepOp) -> Member<'p> {
        match op {
            SweepOp::Gate(g) => Member::Gate(GateKernel::from(*g)),
            SweepOp::Fused(f) => Member::Fused(PreparedFused::new(f)),
            other => panic!("{other:?} in a unitary program"),
        }
    }
    let sched = Schedule::default();
    for op in &program.ops {
        let amps = state.amplitudes_mut();
        match op {
            SweepOp::BlockPass(members) => {
                let run: Vec<Member> = members.iter().map(member).collect();
                run_tiled(be, None, sched, amps, program.block_qubits, run.iter());
            }
            op => member(op).apply(be, None, sched, amps),
        }
    }
}

/// `planned:b:k` is `blocked:b` with fused members: the same ops, a
/// block pass wherever `blocked` has one and a full-state gate wherever
/// it has one, and a state within 1e-12 of naive on every backend. The
/// random gate set includes `Ccx`/`CSwap`, so k = 2 also covers a gate
/// wider than the fusion width.
#[test]
fn planned_sweeps_as_blocked_and_runs_as_naive_on_every_backend() {
    let kind = |op: &SweepOp| match op {
        SweepOp::BlockPass(_) => "pass",
        SweepOp::Gate(_) => "gate",
        other => panic!("{other:?} at the top level of a unitary program"),
    };
    let backends = simd::available();
    for seed in 0..4u64 {
        let circuit = random_circuit_seeded(9, 60, 200 + seed);
        let mut naive = StateVector::zero(9);
        run_on(backends[0], &lower(&circuit, Strategy::Naive), &mut naive);
        for b in 3..=7u32 {
            let blocked = lower(&circuit, Strategy::Blocked { block_qubits: b });
            let blocked: Vec<&str> = blocked.ops.iter().map(kind).collect();
            for k in 2..=4u32 {
                let planned = lower(&circuit, Strategy::Planned { block_qubits: b, max_k: k });
                let shape: Vec<&str> = planned.ops.iter().map(kind).collect();
                assert_eq!(shape, blocked, "seed {seed} planned:{b}:{k}");
                for &be in &backends {
                    let mut state = StateVector::zero(9);
                    run_on(be, &planned, &mut state);
                    let off = state.max_abs_diff(&naive);
                    assert!(off <= 1e-12, "seed {seed} planned:{b}:{k} {}: {off:e}", be.name);
                }
            }
        }
    }
}

/// A fusion width below the widest gate is raised to it: `fused:1` and
/// `fused:2` on a circuit with a `Cx` and a `Ccx`, and `planned:3:1`,
/// run and match naive.
#[test]
fn a_fusion_width_below_the_widest_gate_runs_as_naive() {
    let mut circuit = Circuit::new(5);
    circuit.h(0).h(1).cx(0, 1).ccx(0, 1, 2).rz(2, 0.3).cx(2, 4).ccx(4, 3, 1).t(3);
    let run = |strategy| {
        let mut state = StateVector::zero(5);
        SimConfig::default().strategy(strategy).build().unwrap().run(&circuit, &mut state).unwrap();
        state
    };
    let naive = run(Strategy::Naive);
    for strategy in [
        Strategy::Fused { max_k: 1 },
        Strategy::Fused { max_k: 2 },
        Strategy::Planned { block_qubits: 3, max_k: 1 },
    ] {
        let off = run(strategy).max_abs_diff(&naive);
        assert!(off <= 1e-12, "{strategy}: {off:e}");
    }
}

#[test]
fn fingerprint_is_structural_and_bit_exact() {
    let a = random_circuit_seeded(6, 40, 9);
    let b = random_circuit_seeded(6, 40, 9);
    assert_eq!(a.fingerprint(), b.fingerprint(), "equal circuits hash equal");
    assert_ne!(a.fingerprint(), random_circuit_seeded(6, 40, 10).fingerprint());

    let theta = 0.4f64;
    let ulp_up = f64::from_bits(theta.to_bits() + 1);
    let with = |angle: f64| {
        let mut c = Circuit::new(3);
        c.h(0).rz(1, angle).cx(0, 2);
        c.fingerprint()
    };
    assert_eq!(with(theta), with(theta));
    assert_ne!(with(theta), with(ulp_up), "a one-ulp angle change must separate");

    // Same gates on a wider register, another qubit, another kind,
    // another order, another direction: all separate.
    let fp = |n: u32, gates: &[Gate]| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g.clone());
        }
        c.fingerprint()
    };
    let base = fp(3, &[Gate::H(0), Gate::Cx(0, 1)]);
    let variants = [
        fp(4, &[Gate::H(0), Gate::Cx(0, 1)]),
        fp(3, &[Gate::H(1), Gate::Cx(0, 1)]),
        fp(3, &[Gate::H(0), Gate::Cy(0, 1)]),
        fp(3, &[Gate::Cx(0, 1), Gate::H(0)]),
        fp(3, &[Gate::H(0), Gate::Cx(1, 0)]),
    ];
    for (i, v) in variants.into_iter().enumerate() {
        assert_ne!(base, v, "variant {i}");
    }
    // Another classical bit, another condition value.
    let measured = |creg: u32, val: u8| {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, creg);
        c.cif_bit(creg, val, Gate::X(1));
        c.fingerprint()
    };
    assert_eq!(measured(0, 1), measured(0, 1));
    assert_ne!(measured(0, 1), measured(1, 1));
    assert_ne!(measured(0, 1), measured(0, 0));
}

#[test]
fn auto_trace_header_names_what_ran() {
    let circuit = random_circuit_seeded(6, 30, 4);
    let sim = SimConfig::default().strategy(Strategy::Auto).traced().build().unwrap();
    let mut state = StateVector::zero(6);
    let trace = sim.run(&circuit, &mut state).unwrap().trace.expect("traced");
    let resolved = trace.meta.strategy.strip_prefix("auto=").expect("auto=<resolved>");
    let resolved: Strategy = resolved.parse().expect("the resolution is replayable");
    assert_ne!(resolved, Strategy::Auto);
    assert_eq!(resolved, lower(&circuit, Strategy::Auto).strategy);
}
