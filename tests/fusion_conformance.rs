//! Fusion and the fused block kernel, from the outside.
//!
//! The lowering: over seeded circuits drawing every gate constructor,
//! the blocks `fuse`/`fuse_costed` emit partition the circuit, keep every
//! qubit's gates in circuit order (so the reordering is one that only
//! moves gates past gates on other qubits), respect `max_k`, and
//! reproduce the naive state; `Measure`/`Cif` barriers are never
//! crossed. The kernel: every structure class × width × lowest target ×
//! backend (every set of low targets in the 8-lane window) against the
//! generic scalar gather/mat-vec; ragged ranges and workshared sweeps
//! against the whole serial sweep bit for bit; and, where the host runs
//! both, the 8-lane kernel against the 4-lane one bit for bit.

use a64fx_qcs::core::calibrate::Calibration;
use a64fx_qcs::core::circuit::Gate;
use a64fx_qcs::core::fusion::{fuse, fuse_costed, FusedClass, FusedOp};
use a64fx_qcs::core::kernels::fused::{apply_fused, Block, PreparedFused};
use a64fx_qcs::core::kernels::{scalar, simd};
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::program::{lower, SweepOp};
use a64fx_qcs::core::testing::{class_circuit, random_circuit_seeded, random_gate};
use a64fx_qcs::omp::{Schedule, ThreadPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// `simd::available()`, named in the test log (`-- --nocapture`), so a
/// runner without a native backend reads as partial coverage rather than
/// a silent pass.
fn covered(test: &str) -> Vec<&'static simd::KernelBackend> {
    let all = simd::available();
    let names: Vec<&str> = all.iter().map(|b| b.name).collect();
    eprintln!("{test}: backends covered: {}", names.join(", "));
    all
}

/// One block of `class` on `qubits`.
fn block_on(class: FusedClass, n: u32, qubits: &[u32]) -> Option<FusedOp> {
    let mut plan = fuse(&class_circuit(class, n, qubits)?, qubits.len() as u32);
    assert_eq!((plan.len(), plan[0].class), (1, class), "{qubits:?}");
    assert!(plan[0].gate.is_none(), "the block must run the block kernel, not a gate's");
    Some(plan.remove(0))
}

/// Every non-empty set of the 8-lane window's address bits {0, 1, 2} as
/// low targets, each with a target above the window, and with all three
/// lane bits free.
fn low_target_sets() -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> =
        (1..8u32).map(|mask| (0..3).filter(|b| mask >> b & 1 == 1).chain([5]).collect()).collect();
    sets.push(vec![3, 4, 6]);
    sets
}

#[test]
fn block_kernel_matches_the_generic_scalar_kernel_for_every_class_width_and_stride() {
    let backends = covered("block kernel vs scalar");
    // (qubits, n): k × lowest × stride with three free qubits (whole
    // vector steps) or none (one group), then every set of low targets.
    let mut cases: Vec<(Vec<u32>, u32)> = Vec::new();
    for k in 1..=5u32 {
        for lowest in [0u32, 1, 2, 3, 5] {
            for stride in [1u32, 2] {
                for spare in [0u32, 3] {
                    let qubits: Vec<u32> = (0..k).map(|j| lowest + j * stride).collect();
                    cases.push((qubits, lowest + (k - 1) * stride + 1 + spare));
                }
            }
        }
    }
    cases.extend(low_target_sets().into_iter().map(|qubits| (qubits, 8)));
    for class in CLASSES {
        for (qubits, n) in &cases {
            let Some(op) = block_on(class, *n, qubits) else { continue };
            let mut expected = random_state(*n, 7);
            let start = expected.clone();
            scalar::apply_kq(expected.amplitudes_mut(), &op.qubits, &op.matrix);
            for &be in &backends {
                let mut got = start.clone();
                apply_fused(be, got.amplitudes_mut(), &op);
                let off = got.max_abs_diff(&expected);
                assert!(off <= 1e-12, "{class:?} {qubits:?} n={n} {}: {off:e}", be.name);
            }
        }
    }
}

#[test]
fn ragged_block_ranges_produce_the_bits_of_the_whole_sweep() {
    // The same sweep cut in two at every group boundary: heads and tails
    // of vector steps run lane by lane and must not change a bit.
    let backends = covered("ragged block ranges");
    let n = 8;
    for qubits in low_target_sets() {
        for class in [FusedClass::Permutation, FusedClass::Sparse, FusedClass::Dense] {
            let Some(op) = block_on(class, n, &qubits) else { continue };
            let blk = Block::new(&op.qubits, &op.matrix);
            let groups = 1usize << (n as usize - qubits.len());
            let start = random_state(n, 19);
            for &be in &backends {
                let mut whole = start.clone();
                apply_fused(be, whole.amplitudes_mut(), &op);
                for at in 0..=groups {
                    let mut pieces = start.clone();
                    let p = pieces.amplitudes_mut().as_mut_ptr();
                    // SAFETY: the state is exclusively borrowed and the two
                    // ranges cover its groups once.
                    unsafe {
                        (be.block_range)(p, 0, at, &blk);
                        (be.block_range)(p, at, groups, &blk);
                    }
                    let off = pieces.max_abs_diff(&whole);
                    assert_eq!(off, 0.0, "{class:?} {qubits:?} {} cut at {at}", be.name);
                }
            }
        }
    }
}

#[test]
fn eight_lane_block_kernel_is_bit_identical_to_the_four_lane_one() {
    let all = simd::available();
    let find = |name: &str| all.iter().copied().find(|b| b.name == name);
    let (Some(avx2), Some(avx512)) = (find("avx2"), find("avx512")) else {
        let names: Vec<&str> = all.iter().map(|b| b.name).collect();
        eprintln!("avx512 vs avx2: skipped, the host runs only {}", names.join(", "));
        return;
    };
    eprintln!("avx512 vs avx2: backends covered: avx2, avx512");
    let apply_all = |be, start: &StateVector, ops: &[FusedOp]| {
        let mut state = start.clone();
        for op in ops {
            apply_fused(be, state.amplitudes_mut(), op);
        }
        state
    };
    let mut compared = 0;
    for qubits in low_target_sets() {
        for class in CLASSES {
            let Some(op) = block_on(class, 9, &qubits) else { continue };
            let ops = [op];
            let start = random_state(9, 5);
            let (four, eight) = (apply_all(avx2, &start, &ops), apply_all(avx512, &start, &ops));
            assert_eq!(eight.max_abs_diff(&four), 0.0, "{class:?} {qubits:?}");
            compared += 1;
        }
    }
    for seed in 0..24u64 {
        let n = 6 + (seed % 7) as u32; // 6..=12
        let circuit = random_circuit_seeded(n, 60, 100 + seed);
        let start = random_state(n, 200 + seed);
        for max_k in 3..=5u32 {
            let plan = fuse(&circuit, max_k);
            let (four, eight) = (apply_all(avx2, &start, &plan), apply_all(avx512, &start, &plan));
            assert_eq!(eight.max_abs_diff(&four), 0.0, "seed {seed} n={n} k={max_k}");
            compared += plan.iter().filter(|op| op.gate.is_none()).count();
        }
    }
    assert!(compared > 100, "only {compared} block ops compared");
}

#[test]
fn workshared_block_sweeps_are_bit_identical_to_serial_ones() {
    let backends = covered("workshared block sweeps");
    let schedules = [
        Schedule::default_static(),
        Schedule::Static { chunk: Some(3) },
        Schedule::Dynamic { chunk: 5 },
        Schedule::Guided { min_chunk: 1 },
    ];
    for threads in 1..=4usize {
        let pool = ThreadPool::new(threads);
        for class in CLASSES {
            for (k, lowest) in [(2u32, 0u32), (2, 1), (3, 0), (3, 1), (4, 2), (5, 0)] {
                let n = lowest + k + 4;
                let qubits: Vec<u32> = (lowest..lowest + k).collect();
                let Some(op) = block_on(class, n, &qubits) else { continue };
                for &be in &backends {
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
