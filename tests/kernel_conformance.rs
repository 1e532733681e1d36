//! One gate → kernel table, one range driver per index pattern — from the
//! outside.
//!
//! (a) every kernel shape, at every qubit placement of several register
//! sizes, on every backend the host runs (`simd::available`, enumerated
//! in-process), pool-less: within 1e-12 of the plain per-index loops in
//! `kernels::scalar` (exactly equal on the
//! portable backend, whose one-lane arithmetic is those loops'); (b) the same
//! shapes at the placements the drivers treat differently (qubits 0 and
//! 1, either side of the backend's vector window, mid-register, top; both
//! qubit orders), workshared over 1–4 threads under four schedules:
//! within 1e-12 of the reference and *bit-identical* to the pool-less
//! sweep, however the chunks cut the runs; (c) whole circuits through
//! `Simulator`, every concrete strategy: 2–4 threads bit-identical to one;
//! (d) every gate constructor: pooled ≡ pool-less, and a cache-blocked
//! run ≡ a naive one, because both read the same table; (e) the per-gate
//! bits of each backend pinned by a recorded checksum; (f) each run
//! primitive cut at every offset equal to the whole run, to the bit;
//! (g) every diagonal on every target pair of 1–10 qubits, bit for bit
//! the scalar loop that leaves an entry of exactly 1 alone, signed zeros
//! included; (h) where the host runs both, avx512 (8 lanes) ≡ avx2 (4
//! lanes) to the bit for every kind at every target, and their
//! reductions within 1e-12; (i) the fused-block bits of each backend —
//! every structure class × lowest target 0–3 × k = 1–5, pooled and
//! pool-less — pinned by a recorded checksum, avx512 ≡ avx2 to the bit.

use std::sync::Once;

use a64fx_qcs::core::calibrate::Calibration;
use a64fx_qcs::core::fusion::{fuse, FusedClass, FusedOp};
use a64fx_qcs::core::gates::standard;
use a64fx_qcs::core::kernels::dispatch::{apply_gate_parallel_with, apply_gate_with, GateKernel};
use a64fx_qcs::core::kernels::fused::PreparedFused;
use a64fx_qcs::core::kernels::reduce::expect_pauli_string;
use a64fx_qcs::core::kernels::scalar;
use a64fx_qcs::core::kernels::simd;
use a64fx_qcs::core::library::qft::qft;
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::testing::{class_circuit, random_circuit_seeded};
use a64fx_qcs::omp::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1e-12;
const SERIAL: Schedule = Schedule::Static { chunk: None };

fn schedules() -> [Schedule; 4] {
    [
        Schedule::default_static(),
        Schedule::Static { chunk: Some(5) },
        Schedule::Dynamic { chunk: 16 },
        Schedule::Guided { min_chunk: 4 },
    ]
}

fn random_state(n: u32, seed: u64) -> StateVector {
    StateVector::random(n, &mut StdRng::seed_from_u64(seed))
}

/// A dense, non-unitary, asymmetric 4×4: swapping the qubit order or two
/// basis states changes the result.
fn dense4() -> Mat4 {
    let mut rows = [[C64::default(); 4]; 4];
    for (r, row) in rows.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            let k = (4 * r + c) as f64;
            *e = C64::new((0.7 * k + 0.3).sin(), (1.3 * k - 0.2).cos());
        }
    }
    Mat4::from_rows(rows)
}

fn shapes_1q(t: u32) -> Vec<GateKernel> {
    vec![
        GateKernel::One(t, standard::u3(0.3, 1.0, -0.5)),
        GateKernel::Diag1(t, C64::exp_i(0.31), C64::exp_i(-1.27)),
        GateKernel::X(t),
    ]
}

fn shapes_2q(a: u32, b: u32) -> Vec<GateKernel> {
    let d = [C64::exp_i(0.3), C64::exp_i(-0.1), C64::exp_i(1.2), C64::exp_i(0.8)];
    let one = C64::real(1.0);
    vec![
        GateKernel::Controlled(a, b, standard::ry(0.7)),
        GateKernel::Diag2(a, b, d),
        // A controlled phase: the unit entries' runs are skipped.
        GateKernel::Diag2(a, b, [one, one, one, d[3]]),
        GateKernel::Two(a, b, dense4()),
        GateKernel::Swap(a, b),
    ]
}

fn shapes_3q(a: u32, b: u32, c: u32) -> Vec<GateKernel> {
    vec![GateKernel::Ccx(a, b, c), GateKernel::CSwap(a, b, c)]
}

/// The shape through the plain per-index loops.
fn reference(kernel: &GateKernel, amps: &mut [C64]) {
    match kernel {
        GateKernel::One(t, m) => scalar::apply_1q(amps, *t, m),
        GateKernel::Diag1(t, d0, d1) => scalar::apply_1q_diag(amps, *t, *d0, *d1),
        GateKernel::X(t) => scalar::apply_x(amps, *t),
        GateKernel::Controlled(c, t, m) => scalar::apply_controlled_1q(amps, *c, *t, m),
        GateKernel::Diag2(h, l, d) => scalar::apply_2q_diag(amps, *h, *l, *d),
        GateKernel::Two(h, l, m) => scalar::apply_2q(amps, *h, *l, m),
        GateKernel::Swap(a, b) => scalar::apply_swap(amps, *a, *b),
        GateKernel::Ccx(c1, c2, t) => scalar::apply_ccx(amps, *c1, *c2, *t),
        GateKernel::CSwap(c, a, b) => scalar::apply_cswap(amps, *c, *a, *b),
    }
}

/// Every shape at every placement of an `n`-qubit register (the 3-qubit
/// shapes at four spread placements).
fn every_placement(n: u32) -> Vec<GateKernel> {
    let mut kernels: Vec<GateKernel> = (0..n).flat_map(shapes_1q).collect();
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            kernels.extend(shapes_2q(a, b));
        }
    }
    if n >= 3 {
        for (a, b, c) in [(0, 1, 2), (n - 1, 0, 1), (1, n - 1, n - 2), (n / 2, n - 1, 0)] {
            kernels.extend(shapes_3q(a, b, c));
        }
    }
    kernels
}

#[test]
fn every_shape_at_every_placement_matches_the_scalar_loops() {
    for n in [1u32, 2, 3, 6, 10, 13] {
        let kernels = every_placement(n);
        let start = random_state(n, 7 + n as u64);
        for kernel in &kernels {
            let mut expected = start.clone();
            reference(kernel, expected.amplitudes_mut());
            for be in simd::available() {
                let mut got = start.clone();
                kernel.apply(be, None, SERIAL, got.amplitudes_mut());
                let off = got.max_abs_diff(&expected);
                // Width 1 is the scalar arithmetic itself, so a
                // forced-portable run is reproducible to the bit.
                let bound = if be.width == 1 { 0.0 } else { EPS };
                assert!(off <= bound, "{} n={n} {kernel:?}: {off:e}", be.name);
            }
        }
    }
}

#[test]
fn short_unaligned_scratch_buffers_are_accepted() {
    // The fusion layer builds product matrices in short Vec-backed
    // buffers; those are exempt from the state-alignment assertion.
    let mut amps = vec![C64::default(); 32];
    amps[0] = C64::real(1.0);
    for be in simd::available() {
        for _ in 0..2 {
            GateKernel::One(3, standard::h()).apply(be, None, SERIAL, &mut amps);
        }
    }
    assert!(amps[0].approx_eq(C64::real(1.0), 1e-10));
}

#[test]
fn workshared_sweeps_are_bit_identical_to_pool_less_ones() {
    let n = 10u32;
    let pools: Vec<ThreadPool> = (1..=4).map(ThreadPool::new).collect();
    let start = random_state(n, 5);
    for be in simd::available() {
        // 0, 1, the last stride below the vector window, the first one
        // inside it, mid-register, top.
        let window = be.width.trailing_zeros();
        let mut places = vec![0, 1, window.saturating_sub(1), window, n / 2, n - 1];
        places.sort_unstable();
        places.dedup();
        let mut kernels: Vec<GateKernel> = places.iter().copied().flat_map(shapes_1q).collect();
        for &a in &places {
            for &b in places.iter().filter(|&&b| b != a) {
                kernels.extend(shapes_2q(a, b));
            }
        }
        kernels.extend(shapes_3q(0, n - 1, 1));
        for kernel in &kernels {
            let mut expected = start.clone();
            reference(kernel, expected.amplitudes_mut());
            let mut serial = start.clone();
            kernel.apply(be, None, SERIAL, serial.amplitudes_mut());
            for pool in &pools {
                for sched in schedules() {
                    let mut shared = start.clone();
                    kernel.apply(be, Some(pool), sched, shared.amplitudes_mut());
                    let what =
                        format!("{} {kernel:?} threads={} {sched:?}", be.name, pool.num_threads());
                    assert!(shared.approx_eq(&expected, EPS), "{what}: off the scalar loops");
                    assert_eq!(shared.max_abs_diff(&serial), 0.0, "{what}: pooled ≠ pool-less");
                }
            }
        }
    }
}

/// FNV-1a over the bits of every amplitude.
fn fnv1a(hash: &mut u64, state: &StateVector) {
    for a in state.amplitudes() {
        for byte in [a.re, a.im].iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The per-gate checksum of each backend. The portable row was recorded
/// while every backend still kept its own copy of the run primitives and
/// assumes a baseline x86-64 build, where `C64::fma` is unfused. The
/// vector rows were re-recorded when targets below the vector window
/// left the per-index scalar steps for the exchange steps, which run the
/// vector FMA: every amplitude stayed within 1.7e-16 of the old bits.
/// avx512 runs every lane through avx2's FMA sequence, 8 lanes to
/// avx2's 4, and its permutations only move amplitudes, so the two rows
/// agree.
const PER_GATE_GOLDEN: [(&str, u64); 3] = [
    ("portable", 0x2c46_6d20_9a7f_25d1),
    ("avx2", 0x2db0_611f_c09f_ebbd),
    ("avx512", 0x2db0_611f_c09f_ebbd),
];

#[test]
fn per_gate_bits_match_the_recorded_checksums() {
    // Every shape × every placement at three register sizes, pool-less
    // and workshared in chunks of three indices, which cut runs at every
    // offset a vector step can have.
    let pool = ThreadPool::new(3);
    let sched = Schedule::Dynamic { chunk: 3 };
    for be in simd::available() {
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for n in [3u32, 6, 9] {
            let start = random_state(n, 7 + n as u64);
            for kernel in every_placement(n) {
                for pool in [None, Some(&pool)] {
                    let mut state = start.clone();
                    kernel.apply(be, pool, sched, state.amplitudes_mut());
                    fnv1a(&mut hash, &state);
                }
            }
        }
        match PER_GATE_GOLDEN.iter().find(|(name, _)| *name == be.name) {
            Some(&(_, want)) => {
                assert_eq!(hash, want, "{}: per-gate bits moved (got {hash:#018x})", be.name)
            }
            None => {
                println!("per-gate golden: {} skipped, no recorded row ({hash:#018x})", be.name)
            }
        }
    }
}

/// Every `class_circuit` class at lowest target 0–3 and k = 1–5, its
/// qubits 1 and 2 apart, fused to one op on a 12-qubit register.
fn every_block() -> Vec<FusedOp> {
    let classes =
        [FusedClass::Diagonal, FusedClass::Permutation, FusedClass::Sparse, FusedClass::Dense];
    let mut ops = Vec::new();
    for class in classes {
        for lowest in 0..4u32 {
            for (k, gap) in (1..=5u32).flat_map(|k| [(k, 1), (k, 2)]) {
                let qubits: Vec<u32> = (0..k).map(|j| lowest + gap * j).collect();
                let Some(c) = class_circuit(class, 12, &qubits) else { continue };
                let mut plan = fuse(&c, k);
                assert_eq!((plan.len(), plan[0].class), (1, class), "{qubits:?}");
                ops.push(plan.remove(0));
            }
        }
    }
    ops
}

/// Each of `ops` swept once over the same random state, pool-less and
/// workshared in chunks of three, which cut vector steps anywhere.
fn block_sweeps(be: &simd::KernelBackend, ops: &[FusedOp]) -> Vec<StateVector> {
    let pool = ThreadPool::new(3);
    let sched = Schedule::Dynamic { chunk: 3 };
    let start = random_state(12, 61);
    let mut states = Vec::new();
    for op in ops {
        let prepared = PreparedFused::new(op);
        for pool in [None, Some(&pool)] {
            let mut state = start.clone();
            prepared.apply(be, pool, sched, state.amplitudes_mut());
            states.push(state);
        }
    }
    states
}

/// The block checksum of each backend. avx512 runs the block kernel's
/// lane arithmetic through avx2's FMA sequence, 8 lanes to avx2's 4, so
/// the two rows agree.
const BLOCK_GOLDEN: [(&str, u64); 3] = [
    ("portable", 0x322f_5cf0_ab91_c4ad),
    ("avx2", 0xc6a6_c236_4e6c_4751),
    ("avx512", 0xc6a6_c236_4e6c_4751),
];

#[test]
fn block_bits_match_the_recorded_checksums() {
    let ops = every_block();
    for be in simd::available() {
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for state in block_sweeps(be, &ops) {
            fnv1a(&mut hash, &state);
        }
        match BLOCK_GOLDEN.iter().find(|(name, _)| *name == be.name) {
            Some(&(_, want)) => {
                assert_eq!(hash, want, "{}: block bits moved (got {hash:#018x})", be.name)
            }
            None => println!("block golden: {} skipped, no recorded row ({hash:#018x})", be.name),
        }
    }
    if let Some([avx2, avx512]) = four_and_eight_lanes("block kernel") {
        let (four, eight) = (block_sweeps(avx2, &ops), block_sweeps(avx512, &ops));
        for (i, (f, e)) in four.iter().zip(&eight).enumerate() {
            let op = &ops[i / 2];
            assert_eq!(e.max_abs_diff(f), 0.0, "{:?} {:?} pooled={}", op.class, op.qubits, i % 2);
        }
    }
}

/// avx2 and avx512, when the host runs both.
fn four_and_eight_lanes(what: &str) -> Option<[&'static simd::KernelBackend; 2]> {
    let all = simd::available();
    let find = |name: &str| all.iter().copied().find(|b| b.name == name);
    let (Some(avx2), Some(avx512)) = (find("avx2"), find("avx512")) else {
        let names: Vec<&str> = all.iter().map(|b| b.name).collect();
        println!("{what}: avx512 vs avx2 skipped, the host runs only {}", names.join(", "));
        return None;
    };
    assert_eq!((avx2.width, avx512.width), (4, 8), "avx512 runs every kernel at 8 lanes");
    println!("{what}: backends covered: avx2, avx512");
    Some([avx2, avx512])
}

#[test]
fn eight_lane_per_gate_kernels_give_the_four_lane_bits() {
    // Every kind at every target, so every position below the 8-lane
    // window (qubits 0–2: exchange steps, lane patterns and the
    // permutations' lane permute) meets its 4-lane counterpart, pool-less
    // and workshared in chunks that cut runs anywhere.
    let Some([avx2, avx512]) = four_and_eight_lanes("per-gate kernels") else { return };
    let pool = ThreadPool::new(3);
    let sched = Schedule::Dynamic { chunk: 3 };
    for n in [3u32, 6, 10] {
        let start = random_state(n, 40 + n as u64);
        for kernel in every_placement(n) {
            for pool in [None, Some(&pool)] {
                let [mut four, mut eight] = [start.clone(), start.clone()];
                kernel.apply(avx2, pool, sched, four.amplitudes_mut());
                kernel.apply(avx512, pool, sched, eight.amplitudes_mut());
                let pooled = pool.is_some();
                assert_eq!(eight.max_abs_diff(&four), 0.0, "n={n} {kernel:?} pooled={pooled}");
            }
        }
    }
}

#[test]
fn eight_lane_reductions_agree_with_four_lane_ones() {
    // Eight lanes sum in another order than four, so an expectation value
    // may move in its last bits: within 1e-12 of the state's unit norm.
    let Some([avx2, avx512]) = four_and_eight_lanes("reductions") else { return };
    for n in [3u32, 6, 9] {
        let start = random_state(n, 50 + n as u64);
        let amps = start.amplitudes();
        for flip in 0..1usize << n {
            for z in [0, 0b1, 0b110, (1 << n) - 1] {
                let z = z & !flip & ((1 << n) - 1);
                let y = flip & 0b101;
                let four = expect_pauli_string(avx2, amps, flip, z, y);
                let eight = expect_pauli_string(avx512, amps, flip, z, y);
                let off = (eight - four).abs();
                assert!(off <= 1e-12 * four.abs().max(1.0), "n={n} {flip:#b} {z:#b}: {off:e}");
            }
        }
    }
}

/// `pairs_1q` on runs 0 and 1, `scale_run` on run 2, `quads_2q` on a copy
/// of all four and `mul_conj_into_run` of runs 0 and 1, each called once
/// on `..at` and once on `at..`; the bits of the eight output runs.
fn cut_run_primitives(be: &simd::KernelBackend, runs: &[Vec<C64>], at: usize) -> Vec<Vec<u64>> {
    let (m2, m4, d) = (standard::u3(0.3, 1.0, -0.5), dense4(), C64::exp_i(0.31));
    let len = runs[0].len();
    let mut pairs = runs[..3].to_vec();
    let mut quads = runs.to_vec();
    let mut conj = vec![C64::default(); len];
    for piece in [0..at, at..len] {
        let [a0, a1, a2] = &mut pairs[..] else { unreachable!() };
        (be.pairs_1q)(&mut a0[piece.clone()], &mut a1[piece.clone()], &m2);
        (be.scale_run)(&mut a2[piece.clone()], d);
        let [b0, b1, b2, b3] = &mut quads[..] else { unreachable!() };
        let p = piece.clone();
        (be.quads_2q)(&mut b0[p.clone()], &mut b1[p.clone()], &mut b2[p.clone()], &mut b3[p], &m4);
        let (u, v) = (&runs[0][piece.clone()], &runs[1][piece.clone()]);
        (be.mul_conj_into_run)(u, v, &mut conj[piece]);
    }
    pairs
        .into_iter()
        .chain(quads)
        .chain([conj])
        .map(|run| run.iter().flat_map(|a| [a.re.to_bits(), a.im.to_bits()]).collect())
        .collect()
}

#[test]
fn run_primitives_cut_anywhere_give_the_bits_of_the_whole_run() {
    // A workshared sweep cuts runs at chunk boundaries: the pieces of a
    // run, each with its own vector body and ragged tail, must round
    // every amplitude as the whole run does.
    let mut rng = StdRng::seed_from_u64(29);
    for be in simd::available() {
        for len in 0..=2 * be.width + 3 {
            let runs: Vec<Vec<C64>> = (0..4)
                .map(|_| {
                    (0..len)
                        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                        .collect()
                })
                .collect();
            let whole = cut_run_primitives(be, &runs, 0);
            for at in 1..=len {
                let pieces = cut_run_primitives(be, &runs, at);
                assert_eq!(pieces, whole, "{} len={len} cut at {at}", be.name);
            }
        }
    }
}

/// `d[i]` of each amplitude's local index `i` over `targets` (by local
/// bit), applied as `if d != 1 { a * d }`.
fn skip_unit_reference(amps: &mut [C64], targets: &[u32], d: [C64; 4]) {
    for (i, a) in amps.iter_mut().enumerate() {
        let local = targets.iter().enumerate().map(|(j, &t)| (i >> t & 1) << j).sum::<usize>();
        if d[local] != C64::real(1.0) {
            *a *= d[local];
        }
    }
}

#[test]
fn diagonals_keep_unit_lanes_and_round_the_rest_as_the_scalar_product() {
    // Every target below, inside and above the vector window (n = 1..=10
    // includes states shorter than one vector and than one span), every
    // unit/non-unit pattern of the entries, and states whose parts are
    // partly -0.0 — which `amp·1` would turn into +0.0.
    let mut rng = StdRng::seed_from_u64(36);
    let pool = ThreadPool::new(2);
    let sched = Schedule::Dynamic { chunk: 3 };
    for n in 1u32..=10 {
        let mut start = random_state(n, 36 + n as u64);
        for a in start.amplitudes_mut() {
            match rng.gen_range(0..4) {
                0 => a.re = -0.0,
                1 => a.im = -0.0,
                2 => *a = C64::new(-0.0, -0.0),
                _ => {}
            }
        }
        let mut cases: Vec<(Vec<u32>, u32)> = (0..n).map(|t| (vec![t], 0b11)).collect();
        for h in 0..n {
            cases.extend((0..n).filter(|&l| l != h).map(|l| (vec![l, h], 0b1111)));
        }
        for (targets, all) in cases {
            for unit in 0..=all {
                // A unit entry is 1 as written or as `1 - 0i`.
                let one = |i: usize| C64::new(1.0, if i == 2 { -0.0 } else { 0.0 });
                let d: [C64; 4] = std::array::from_fn(|i| match unit >> i & 1 {
                    1 => one(i),
                    _ => C64::exp_i(rng.gen_range(-3.0..3.0)),
                });
                let kernel = match targets[..] {
                    [t] => GateKernel::Diag1(t, d[0], d[1]),
                    [l, h] => GateKernel::Diag2(h, l, d),
                    _ => unreachable!(),
                };
                let mut want = start.clone();
                skip_unit_reference(want.amplitudes_mut(), &targets, d);
                let bits = |s: &StateVector| {
                    s.amplitudes()
                        .iter()
                        .map(|a| [a.re.to_bits(), a.im.to_bits()])
                        .collect::<Vec<_>>()
                };
                for be in simd::available() {
                    for pool in [None, Some(&pool)] {
                        let mut got = start.clone();
                        kernel.apply(be, pool, sched, got.amplitudes_mut());
                        let pooled = pool.is_some();
                        assert!(
                            bits(&got) == bits(&want),
                            "{} n={n} {kernel:?} pooled={pooled}",
                            be.name
                        );
                    }
                }
            }
        }
    }
}

/// Fusion and planning price their merges from the process-wide
/// calibration; pin it to the analytic table so every simulator below
/// lowers a circuit the same way without the startup micro-benchmark.
fn pin_calibration() {
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        std::env::set_var("QCS_CALIBRATE", "analytic");
        assert!(!Calibration::get().measured, "calibration was measured before the pin");
    });
}

#[test]
fn every_strategy_is_bit_identical_at_every_thread_count() {
    pin_calibration();
    let strategies = [
        Strategy::Naive,
        Strategy::Fused { max_k: 3 },
        Strategy::Blocked { block_qubits: 5 },
        Strategy::Planned { block_qubits: 5, max_k: 3 },
    ];
    for (name, circuit) in [("qft(12)", qft(12)), ("random", random_circuit_seeded(10, 80, 5))] {
        let n = circuit.n_qubits();
        let start = random_state(n, 11);
        for backend in [BackendChoice::Scalar, BackendChoice::Simd] {
            for strategy in strategies {
                let run = |threads: usize, schedule: Schedule| {
                    let config = SimConfig::default().strategy(strategy).backend(backend);
                    let mut state = start.clone();
                    let sim = config.threads(threads).schedule(schedule).build().unwrap();
                    sim.run(&circuit, &mut state).unwrap();
                    state
                };
                let one = run(1, SERIAL);
                if let Strategy::Blocked { .. } = strategy {
                    let naive = SimConfig::default().strategy(Strategy::Naive).backend(backend);
                    let mut want = start.clone();
                    naive.build().unwrap().run(&circuit, &mut want).unwrap();
                    assert_eq!(one.max_abs_diff(&want), 0.0, "{name} {strategy} {backend:?}");
                }
                for threads in 2..=4 {
                    for schedule in [Schedule::default_static(), Schedule::Dynamic { chunk: 3 }] {
                        assert_eq!(
                            run(threads, schedule).max_abs_diff(&one),
                            0.0,
                            "{name} {strategy} {backend:?}: {threads} threads, {schedule:?}"
                        );
                    }
                }
            }
        }
    }
}

/// One gate per constructor, on qubits `a`, `b`, `c`.
fn every_gate(a: u32, b: u32, c: u32) -> Vec<Gate> {
    let (re, im) = (C64::new(0.6, 0.0), C64::new(0.0, 0.8));
    let u1 = Mat2::new(re, im, im, re);
    vec![
        Gate::H(a),
        Gate::X(a),
        Gate::Y(a),
        Gate::Z(a),
        Gate::S(a),
        Gate::Sdg(a),
        Gate::T(a),
        Gate::Tdg(a),
        Gate::Sx(a),
        Gate::Rx(a, 0.3),
        Gate::Ry(a, -0.7),
        Gate::Rz(a, 1.9),
        Gate::Phase(a, 0.4),
        Gate::U3(a, 0.1, 0.2, 0.3),
        Gate::Unitary1(a, u1),
        Gate::Cx(a, b),
        Gate::Cy(a, b),
        Gate::Cz(a, b),
        Gate::CPhase(a, b, 0.6),
        Gate::Swap(a, b),
        Gate::ISwap(a, b),
        Gate::Rzz(a, b, -0.5),
        Gate::Rxx(a, b, 0.8),
        Gate::Unitary2(a, b, standard::rxx_mat(0.35)),
        Gate::Ccx(a, b, c),
        Gate::CSwap(a, b, c),
    ]
}

#[test]
fn every_gate_runs_one_kernel_whoever_sweeps_it() {
    let n = 7u32;
    let pool = ThreadPool::new(3);
    let start = random_state(n, 23);
    // Low qubits in both orders (inside a 4-qubit block), then a spread
    // that a 4-qubit block cannot hold.
    for (a, b, c) in [(0, 2, 3), (3, 1, 0), (6, 0, 4)] {
        for gate in every_gate(a, b, c) {
            // The gate twice: a lone gate is a one-member run, which
            // sweeps the whole state; two make `blocked` walk the tiles.
            let mut circuit = Circuit::new(n);
            circuit.push(gate.clone()).push(gate.clone());
            for be in simd::available() {
                let mut serial = start.clone();
                let mut shared = start.clone();
                let sched = Schedule::Static { chunk: Some(5) };
                for _ in 0..2 {
                    apply_gate_with(be, serial.amplitudes_mut(), &gate);
                    apply_gate_parallel_with(be, &pool, sched, shared.amplitudes_mut(), &gate);
                }
                assert_eq!(shared.max_abs_diff(&serial), 0.0, "{} {gate:?}: pooled", be.name);

                // Engines: naive sweeps the whole state with the gate's
                // kernel, blocked sweeps it 16 amplitudes at a time with
                // the same kernel, pinned to the tile where a qubit lies
                // above it; each amplitude meets the same primitive, so
                // not one bit may differ.
                let choice =
                    if be.width == 1 { BackendChoice::Scalar } else { BackendChoice::Simd };
                let run = |strategy: Strategy| {
                    let config = SimConfig::default().strategy(strategy).backend(choice);
                    let mut state = start.clone();
                    config.build().unwrap().run(&circuit, &mut state).unwrap();
                    state
                };
                let naive = run(Strategy::Naive);
                assert_eq!(naive.max_abs_diff(&serial), 0.0, "{} {gate:?}: engine", be.name);
                let blocked = run(Strategy::Blocked { block_qubits: 4 });
                assert_eq!(blocked.max_abs_diff(&naive), 0.0, "{} {gate:?}: blocked", be.name);
            }
        }
    }
}
