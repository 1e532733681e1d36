//! Differential-conformance matrix for batched execution.
//!
//! The contract under test: a `BatchSimulator` run over B members is
//! **bit-identical** (tolerance 0.0) to B independent *serial* single
//! runs of the same configuration — across every execution strategy,
//! every kernel backend, serial and threaded batch pools, and with
//! telemetry on or off. The serial reference is deliberate: a threaded
//! single-run engine splits amplitude sweeps at pool-dependent chunk
//! boundaries and may drift by an ulp (the property suite bounds it at
//! 1e-10), whereas the batch engine's one schedule hands each member,
//! whole, to one worker that runs the serial kernel sequence on it — so
//! its results are thread-count-invariant by construction. The schedule
//! matrix pins exactly that: members fewer than, equal to and not a
//! multiple of the threads, under every worksharing schedule, for all
//! three program sources (`run`, `run_sweep`, `run_measured`) and the
//! streaming `sweep_map`.
//!
//! A final section extends conformance to distributed members under
//! seeded transport faults: each member executed through the resilient
//! distributed path must be bit-identical to the clean distributed run
//! and agree with its batched counterpart.

use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::testing;
use a64fx_qcs::dist::{run_distributed, run_resilient, ResilienceConfig};
use a64fx_qcs::mpi::FaultPlan;
use a64fx_qcs::omp::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const MEMBERS: usize = 3;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Naive,
    Strategy::Fused { max_k: 3 },
    Strategy::Blocked { block_qubits: 3 },
    Strategy::Planned { block_qubits: 3, max_k: 3 },
    // `Auto` resolves per circuit from the process-wide calibration, so
    // the batched run and its serial references pick the same concrete
    // strategy and the bit-identical contract still holds.
    Strategy::Auto,
];

/// B independent single runs through the single-run engine, each from
/// a fresh zero state — the reference the batch must reproduce.
fn reference_members(circuit: &Circuit, config: &SimConfig) -> Vec<StateVector> {
    (0..MEMBERS)
        .map(|_| {
            let sim = config.clone().build().unwrap();
            let mut s = StateVector::zero(circuit.n_qubits());
            sim.run(circuit, &mut s).unwrap();
            s
        })
        .collect()
}

#[test]
fn batched_runs_are_bit_identical_across_the_conformance_matrix() {
    let circuit = testing::random_circuit_seeded(6, 36, 9001);
    let backends = [BackendChoice::Auto, BackendChoice::Scalar, BackendChoice::Simd];
    for strategy in STRATEGIES {
        for backend in backends {
            for threads in [1usize, 3] {
                for traced in [false, true] {
                    let mut config =
                        SimConfig::new().strategy(strategy).backend(backend).batch(MEMBERS);
                    if traced {
                        config = config.telemetry(TelemetryConfig::on());
                    }
                    let cell =
                        format!("{strategy:?} × {backend:?} × threads={threads} × traced={traced}");
                    // Serial single runs are the reference; the engine
                    // under test additionally gets the cell's pool.
                    let expected = reference_members(&circuit, &config);
                    let engine = BatchSimulator::from_config(config.threads(threads)).unwrap();
                    let (states, report) = engine.run_fresh(&circuit).unwrap();
                    assert_eq!(report.members, MEMBERS, "{cell}");
                    assert_eq!(report.traces.len(), if traced { MEMBERS } else { 0 }, "{cell}");
                    for (m, (got, want)) in states.iter().zip(&expected).enumerate() {
                        assert!(
                            got.approx_eq(want, 0.0),
                            "{cell}: member {m} diverged (max diff {})",
                            got.max_abs_diff(want)
                        );
                    }
                }
            }
        }
    }
}

/// What the schedule matrix runs per strategy, and the serial engine's
/// answer for each of the (at most) seven members.
struct Reference {
    circuit: Circuit,
    measured: Circuit,
    seeds: Vec<u64>,
    sweep: Vec<Circuit>,
    run_states: Vec<StateVector>,
    sweep_states: Vec<StateVector>,
    sweep_sweeps: Vec<usize>,
    measured_runs: Vec<(StateVector, MeasuredReport)>,
}

const MOST_MEMBERS: usize = 7;
const WIDTH: u32 = 5;

fn member_start(m: usize) -> StateVector {
    StateVector::random(WIDTH, &mut StdRng::seed_from_u64(300 + m as u64))
}

impl Reference {
    fn new(config: &SimConfig) -> Reference {
        let serial = config.clone().serial().build().unwrap();
        let circuit = testing::random_circuit_seeded(WIDTH, 30, 77);
        // Two collapses and a classically controlled gate between
        // unitary runs every strategy lowers on its own.
        let mut measured = Circuit::new(WIDTH);
        for g in testing::random_circuit_seeded(WIDTH, 12, 5).gates() {
            measured.push(g.clone());
        }
        measured.measure(1, 0);
        measured.cif_bit(0, 1, Gate::X(2));
        for g in testing::random_circuit_seeded(WIDTH, 10, 6).gates() {
            measured.push(g.clone());
        }
        measured.measure(3, 1);
        let seeds: Vec<u64> = (0..MOST_MEMBERS as u64).map(|m| 900 + 13 * m).collect();
        let ansatz = hardware_efficient_ansatz(WIDTH, 2);
        let sweep: Vec<Circuit> = (0..MOST_MEMBERS)
            .map(|m| {
                let point: Vec<f64> =
                    (0..ansatz.n_params()).map(|j| 0.37 * (m * 5 + j) as f64 + 0.1).collect();
                ansatz.bind(&point)
            })
            .collect();
        let run_states = (0..MOST_MEMBERS)
            .map(|m| {
                let mut s = member_start(m);
                serial.run(&circuit, &mut s).unwrap();
                s
            })
            .collect();
        let (sweep_states, sweep_sweeps) = sweep
            .iter()
            .map(|c| {
                let mut s = StateVector::zero(WIDTH);
                let report = serial.run(c, &mut s).unwrap();
                (s, report.sweeps)
            })
            .unzip();
        let measured_runs = seeds
            .iter()
            .map(|&seed| {
                let mut s = StateVector::zero(WIDTH);
                let report = serial.run_measured(&measured, &mut s, seed).unwrap();
                (s, report)
            })
            .collect();
        Reference {
            circuit,
            measured,
            seeds,
            sweep,
            run_states,
            sweep_states,
            sweep_sweeps,
            measured_runs,
        }
    }

    /// Every entry point of `engine` over the first `members` members,
    /// against the serial answers — and, of a `traced` engine, the
    /// traces; `cell` names a failure.
    fn check(&self, engine: &BatchSimulator, members: usize, traced: bool, cell: &str) {
        let same = |got: &StateVector, want: &StateVector, what: &str, m: usize| {
            assert!(
                got.approx_eq(want, 0.0),
                "{cell}: {what} member {m} diverged (max diff {})",
                got.max_abs_diff(want)
            );
        };
        let mut states: Vec<StateVector> = (0..members).map(member_start).collect();
        let report = engine.run(&self.circuit, &mut states).unwrap();
        assert_eq!(report.members, members, "{cell}");
        for (m, got) in states.iter().enumerate() {
            same(got, &self.run_states[m], "run", m);
        }
        if traced {
            check_traces(&report, &vec![report.sweeps; members], cell);
        }

        let circuits = &self.sweep[..members];
        let mut states: Vec<StateVector> = (0..members).map(|_| StateVector::zero(WIDTH)).collect();
        let report = engine.run_sweep(circuits, &mut states).unwrap();
        assert_eq!(report.sweeps, self.sweep_sweeps[0], "{cell}: run_sweep sweeps");
        for (m, got) in states.iter().enumerate() {
            same(got, &self.sweep_states[m], "run_sweep", m);
        }
        if traced {
            check_traces(&report, &self.sweep_sweeps[..members], cell);
        }
        // The streaming form hands `read` the state `run_sweep` leaves,
        // so reducing in the worker gives the bits of reducing after.
        let (be, h) = (engine.backend(), Hamiltonian::ising_chain(WIDTH, 1.0, 0.7).compile());
        let read = |m: usize, s: &StateVector| (m, s.clone(), h.expectation_with(be, s));
        let (streamed, report) = engine.sweep_map(circuits, read).unwrap();
        assert_eq!((report.members, report.sweeps), (members, self.sweep_sweeps[0]), "{cell}");
        for (m, (index, got, energy)) in streamed.iter().enumerate() {
            assert_eq!(*index, m, "{cell}: sweep_map results out of member order");
            same(got, &self.sweep_states[m], "sweep_map", m);
            let after = h.expectation_with(be, &states[m]);
            assert_eq!(energy.to_bits(), after.to_bits(), "{cell}: member {m} energy");
        }

        let mut states: Vec<StateVector> = (0..members).map(|_| StateVector::zero(WIDTH)).collect();
        let batch =
            engine.run_measured(&self.measured, &mut states, &self.seeds[..members]).unwrap();
        for (m, got) in states.iter().enumerate() {
            let (want, serial) = &self.measured_runs[m];
            same(got, want, "run_measured", m);
            assert_eq!(batch.cregs[m], serial.creg, "{cell}: member {m} creg");
            assert_eq!(batch.outcomes[m], serial.outcomes, "{cell}: member {m} outcomes");
        }
    }
}

/// One trace per member, one span per sweep, labelled with the batch
/// and the member.
fn check_traces(report: &BatchReport, sweeps: &[usize], cell: &str) {
    assert_eq!(report.traces.len(), sweeps.len(), "{cell}: one trace per member");
    for (m, trace) in report.traces.iter().enumerate() {
        assert_eq!(trace.summary.spans, sweeps[m], "{cell}: member {m} spans");
        let label = format!("batch={}/member={m}", report.batch_id);
        assert!(trace.meta.label.ends_with(&label), "{cell}: label {}", trace.meta.label);
    }
}

#[test]
fn every_schedule_runs_every_member_whole_on_one_worker() {
    let pools: Vec<Arc<ThreadPool>> =
        [2usize, 4].iter().map(|&t| Arc::new(ThreadPool::new(t))).collect();
    let schedules = ["static", "static:1", "dynamic", "guided"];
    for strategy in STRATEGIES {
        let base = SimConfig::default().strategy(strategy);
        let reference = Reference::new(&base);
        for threads in [1usize, 2, 4] {
            for schedule in schedules {
                let mut config = base.clone().schedule(schedule.parse::<Schedule>().unwrap());
                if let Some(pool) = pools.iter().find(|p| p.num_threads() == threads) {
                    config = config.pool(Arc::clone(pool));
                }
                // Fewer members than threads, as many, and not a multiple.
                for members in [1usize, 2, 5, 7] {
                    let cell =
                        format!("{strategy} × threads={threads} × {schedule} × members={members}");
                    let engine = BatchSimulator::from_config(config.clone()).unwrap();
                    reference.check(&engine, members, false, &cell);
                }
            }
            // Traced ≡ untraced: the same answers, plus the traces.
            let mut traced = base.clone().telemetry(TelemetryConfig::on().with_capacity(64));
            if let Some(pool) = pools.iter().find(|p| p.num_threads() == threads) {
                traced = traced.pool(Arc::clone(pool));
            }
            let engine = BatchSimulator::from_config(traced).unwrap();
            let cell = format!("{strategy} × threads={threads} × traced");
            reference.check(&engine, 5, true, &cell);
        }
    }
}

#[test]
fn batched_trajectories_are_bit_identical_across_backends_and_pools() {
    // Trajectory sampling is the same contract with a noise channel and
    // per-member RNG in the loop: batch member m must reproduce a
    // sequential `run_trajectory` with seed m on the chosen backend
    // exactly.
    use a64fx_qcs::core::kernels::simd::{backend_for, native};
    use a64fx_qcs::core::noise::run_trajectory;
    let circuit = testing::random_circuit_seeded(5, 40, 4242);
    let channel = NoiseChannel::Depolarizing { p: 0.08 };
    let seeds: Vec<u64> = (0..MEMBERS as u64).map(|i| 100 + i).collect();
    let mut per_backend = Vec::new();
    for backend in [BackendChoice::Auto, BackendChoice::Scalar] {
        for threads in [1usize, 3] {
            let engine =
                BatchSimulator::from_config(SimConfig::new().backend(backend).threads(threads))
                    .unwrap();
            let batch = engine.run_trajectories(&circuit, channel, &seeds).unwrap();
            for (m, &seed) in seeds.iter().enumerate() {
                let mut s = StateVector::zero(5);
                let mut rng = StdRng::seed_from_u64(seed);
                let errors =
                    run_trajectory(backend_for(backend), &circuit, &mut s, channel, &mut rng);
                assert!(
                    batch.states[m].approx_eq(&s, 0.0),
                    "{backend:?} × threads={threads}: trajectory {m} diverged"
                );
                assert_eq!(batch.errors[m], errors, "{backend:?} × threads={threads}");
            }
            per_backend.push(batch.states);
        }
    }
    // The circuit rounds differently on a native backend than on the
    // portable one, so an engine that ran `Scalar` natively would fail
    // the reference above.
    if native().is_some() {
        let (auto, scalar) = (&per_backend[0], &per_backend[2]);
        assert!(auto.iter().zip(scalar).any(|(a, s)| !a.approx_eq(s, 0.0)), "backends agree");
    }
}

#[test]
fn distributed_members_conform_under_the_fault_seed() {
    let seed = 42;
    let circuit = testing::random_circuit_seeded(8, 24, 7);
    // The single-process batched reference.
    let engine = BatchSimulator::from_config(SimConfig::new().batch(MEMBERS)).unwrap();
    let (members, _) = engine.run_fresh(&circuit).unwrap();
    // The clean distributed run the faulted members must reproduce.
    let (clean, _) = run_distributed(&circuit, 4).unwrap();
    for (m, member) in members.iter().enumerate() {
        let cfg = ResilienceConfig {
            fault_plan: Some(FaultPlan::default_intensity(seed + m as u64)),
            ..ResilienceConfig::default()
        };
        let run = run_resilient(&circuit, 4, &cfg).unwrap();
        assert!(
            run.state.approx_eq(&clean, 0.0),
            "member {m} (fault seed {}): transport faults leaked into the state",
            seed + m as u64
        );
        assert!(
            run.state.approx_eq(member, 1e-10),
            "member {m}: distributed result diverged from its batched counterpart \
             (max diff {})",
            run.state.max_abs_diff(member)
        );
    }
}
