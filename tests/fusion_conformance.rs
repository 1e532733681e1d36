//! Fusion and the fused block kernel, from the outside.
//!
//! The lowering: over seeded circuits drawing every gate constructor,
//! the blocks `fuse`/`fuse_costed` emit partition the circuit, keep every
//! qubit's gates in circuit order (so the reordering is one that only
//! moves gates past gates on other qubits), respect `max_k`, and
//! reproduce the naive state; `Measure`/`Cif` barriers are never
//! crossed. The kernel: every structure class × width × lowest target ×
//! backend against the generic scalar gather/mat-vec, and workshared
//! sweeps against serial ones bit for bit.

use a64fx_qcs::core::calibrate::Calibration;
use a64fx_qcs::core::circuit::Gate;
use a64fx_qcs::core::fusion::{fuse, fuse_costed, FusedClass, FusedOp};
use a64fx_qcs::core::kernels::fused::{apply_fused, PreparedFused};
use a64fx_qcs::core::kernels::{scalar, simd};
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::program::{lower, SweepOp};
use a64fx_qcs::core::testing::{class_circuit, random_circuit_seeded, random_gate};
use a64fx_qcs::omp::{Schedule, ThreadPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn backends() -> Vec<&'static simd::KernelBackend> {
    let mut v = vec![simd::backend_for(BackendChoice::Scalar)];
    v.extend(simd::native());
    v
}

fn random_state(n: u32, seed: u64) -> StateVector {
    StateVector::random(n, &mut StdRng::seed_from_u64(seed))
}

/// The blocks hold every gate exactly once, and reading the gates off
/// block by block keeps each qubit's gates in circuit order.
fn assert_legal(plan: &[FusedOp], circuit: &Circuit, max_k: u32, what: &str) {
    let gates = circuit.gates();
    let flat: Vec<usize> = plan.iter().flat_map(|op| op.members.iter().copied()).collect();
    let mut seen = flat.clone();
    seen.sort_unstable();
    assert_eq!(seen, (0..gates.len()).collect::<Vec<_>>(), "{what}: members partition the circuit");
    for q in 0..circuit.n_qubits() {
        let on_q: Vec<usize> =
            flat.iter().copied().filter(|&i| gates[i].qubits().contains(&q)).collect();
        assert!(on_q.windows(2).all(|w| w[0] < w[1]), "{what}: qubit {q} order {on_q:?}");
    }
    for op in plan {
        assert_eq!(op.n_gates, op.members.len(), "{what}");
        assert!(op.qubits.len() as u32 <= max_k, "{what}: block on {:?}", op.qubits);
        assert!(op.qubits.windows(2).all(|w| w[0] < w[1]), "{what}");
        let mut support: Vec<u32> = op.members.iter().flat_map(|&i| gates[i].qubits()).collect();
        support.sort_unstable();
        support.dedup();
        assert_eq!(support, op.qubits, "{what}: a block spans exactly its members' qubits");
        assert_eq!(op.gate.as_deref(), (op.n_gates == 1).then(|| &gates[op.members[0]]), "{what}");
    }
}

#[test]
fn fused_plans_are_legal_reorderings_that_reproduce_the_naive_state() {
    let analytic = Calibration::analytic().fuse_costs();
    let be = simd::active();
    for seed in 0..60u64 {
        let n = 3 + (seed % 6) as u32; // 3..=8
        let circuit = random_circuit_seeded(n, 20 + (seed % 30) as usize, seed);
        let init = random_state(n, 500 + seed);
        let mut naive = init.clone();
        SimConfig::new()
            .strategy(Strategy::Naive)
            .build()
            .unwrap()
            .run(&circuit, &mut naive)
            .unwrap();
        for max_k in 3..=5u32 {
            for (table, plan) in [
                ("every fit", fuse(&circuit, max_k)),
                ("analytic", fuse_costed(&circuit, max_k, &analytic)),
            ] {
                let what = format!("seed {seed} n={n} k={max_k} {table}");
                assert_legal(&plan, &circuit, max_k.min(n), &what);
                let mut state = init.clone();
                for op in &plan {
                    apply_fused(be, state.amplitudes_mut(), op);
                }
                let off = state.max_abs_diff(&naive);
                assert!(off <= 1e-12, "{what}: {off:e} off the naive state");
            }
        }
    }
}

#[test]
fn fusion_never_crosses_a_measurement_or_a_classical_condition() {
    for seed in 0..20u64 {
        let n = 4 + (seed % 3) as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut circuit = Circuit::new(n);
        for i in 0..40 {
            match i % 10 {
                6 => circuit.measure(rng.gen_range(0..n), (i / 10) as u32),
                8 => circuit.cif_bit((i / 10) as u32, 1, random_gate(&mut rng, n)),
                _ => circuit.push(random_gate(&mut rng, n)),
            };
        }
        let cal = Calibration::analytic();
        let program = lower(&circuit, Strategy::Fused { max_k: 4 }, Some(&cal));
        // Between two barriers the fused ops absorb exactly the unitary
        // gates the circuit has there.
        let mut absorbed = vec![0usize];
        for op in &program.ops {
            match op {
                SweepOp::Fused(f) => *absorbed.last_mut().unwrap() += f.n_gates,
                SweepOp::Measure { .. } | SweepOp::Cif { .. } => absorbed.push(0),
                other => panic!("a fused lowering emitted {other:?}"),
            }
        }
        let mut expected = vec![0usize];
        for g in circuit.gates() {
            match g {
                Gate::Measure { .. } | Gate::Cif { .. } => expected.push(0),
                _ => *expected.last_mut().unwrap() += 1,
            }
        }
        assert_eq!(absorbed, expected, "seed {seed}");
        // And the collapses land where the naive run's do.
        let run = |strategy: Strategy| {
            let sim = SimConfig::new().strategy(strategy).build().unwrap();
            let mut state = StateVector::zero(n);
            let report = sim.run_measured(&circuit, &mut state, 9).unwrap();
            (state, report.creg)
        };
        let (naive, naive_creg) = run(Strategy::Naive);
        let (fused, fused_creg) = run(Strategy::Fused { max_k: 4 });
        assert_eq!(fused_creg, naive_creg, "seed {seed}");
        let off = fused.max_abs_diff(&naive);
        assert!(off <= 1e-12, "seed {seed}: {off:e} off the naive state");
    }
}

const CLASSES: [FusedClass; 4] =
    [FusedClass::Diagonal, FusedClass::Permutation, FusedClass::Sparse, FusedClass::Dense];

/// One block of `class` on `k` qubits from `lowest` up, `stride` apart.
/// Stride 1 puts both of a 4-lane vector's lane bits among the targets
/// at `lowest` 0 and the upper one at `lowest` 1; stride 2 the lower one.
fn class_block(class: FusedClass, k: u32, lowest: u32, stride: u32, n: u32) -> Option<FusedOp> {
    let qubits: Vec<u32> = (0..k).map(|j| lowest + j * stride).collect();
    let mut plan = fuse(&class_circuit(class, n, &qubits)?, k);
    assert_eq!((plan.len(), plan[0].class), (1, class), "k={k} lowest={lowest}");
    assert!(plan[0].gate.is_none(), "the block must run the block kernel, not a gate's");
    Some(plan.remove(0))
}

#[test]
fn block_kernel_matches_the_generic_scalar_kernel_for_every_class_width_and_stride() {
    for class in CLASSES {
        for k in 1..=5u32 {
            for lowest in [0u32, 1, 2, 5] {
                for stride in [1u32, 2] {
                    // Three free qubits: whole vector steps; none: one group.
                    for spare in [0u32, 3] {
                        let n = lowest + (k - 1) * stride + 1 + spare;
                        let Some(op) = class_block(class, k, lowest, stride, n) else { continue };
                        for be in backends() {
                            let mut expected = random_state(n, 7);
                            let mut got = expected.clone();
                            scalar::apply_kq(expected.amplitudes_mut(), &op.qubits, &op.matrix);
                            apply_fused(be, got.amplitudes_mut(), &op);
                            let off = got.max_abs_diff(&expected);
                            assert!(
                                off <= 1e-12,
                                "{class:?} k={k} lowest={lowest} stride={stride} n={n} {}: {off:e}",
                                be.name
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn workshared_block_sweeps_are_bit_identical_to_serial_ones() {
    let schedules = [
        Schedule::default_static(),
        Schedule::Static { chunk: Some(3) },
        Schedule::Dynamic { chunk: 5 },
        Schedule::Guided { min_chunk: 1 },
    ];
    for threads in 1..=4usize {
        let pool = ThreadPool::new(threads);
        for class in CLASSES {
            for (k, lowest) in [(2u32, 0u32), (3, 0), (3, 1), (4, 2), (5, 0)] {
                let n = lowest + k + 4;
                let Some(op) = class_block(class, k, lowest, 1, n) else { continue };
                for be in backends() {
                    let mut serial = random_state(n, 31);
                    let start = serial.clone();
                    let prep = PreparedFused::new(&op);
                    prep.apply(be, None, schedules[0], serial.amplitudes_mut());
                    for sched in schedules {
                        let mut shared = start.clone();
                        prep.apply(be, Some(&pool), sched, shared.amplitudes_mut());
                        assert_eq!(
                            shared.max_abs_diff(&serial),
                            0.0,
                            "{class:?} k={k} lowest={lowest} {} threads={threads} {sched:?}",
                            be.name
                        );
                    }
                }
            }
        }
    }
}
