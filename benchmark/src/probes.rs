//! Layer probes every traced pass takes at its workload's own width:
//! single kernel sweeps in ns per amplitude against a streaming roof
//! measured in the same run, the empty parallel region, and state
//! allocation.

use a64fx_qcs::core::calibrate::Calibration;
use a64fx_qcs::core::circuit::{Circuit, Gate};
use a64fx_qcs::core::complex::C64;
use a64fx_qcs::core::fusion::{fuse, fuse_costed, FusedOp};
use a64fx_qcs::core::kernels::dispatch::{apply_gate_parallel_with, apply_gate_with};
use a64fx_qcs::core::kernels::fused::apply_fused;
use a64fx_qcs::core::kernels::simd;
use a64fx_qcs::core::state::StateVector;
use a64fx_qcs::omp::{Schedule, ThreadPool};

use crate::workloads::{best_of_runs, rand_fused, touched_state, Ctx, Layers};

/// Sweeps per probe; the minimum is kept.
const SWEEPS: usize = 5;

/// The single-gate kinds probed in both flavours, on an `n`-qubit state.
fn gate_kinds(n: u32) -> [(&'static str, Gate); 6] {
    [
        ("h_low", Gate::H(1)),
        ("h_high", Gate::H(n - 1)),
        ("cp_low", Gate::CPhase(0, 3, 0.7)),
        ("cp_high", Gate::CPhase(n - 2, n - 1, 0.7)),
        ("swap", Gate::Swap(0, n - 1)),
        ("rxx", Gate::Rxx(2, n - 2, 0.9)),
    ]
}

/// The circuit must fuse into exactly one block of the wanted class.
fn one_block(c: &Circuit, k: u32, class: &str) -> FusedOp {
    let mut ops = fuse(c, k);
    assert!(ops.len() == 1 && ops[0].class.name() == class, "probe circuit is one {class} block");
    ops.remove(0)
}

/// A dense `k`-qubit block on strided mid-register qubits.
fn dense_block(n: u32, k: u32) -> FusedOp {
    let qs: Vec<u32> = (0..k).map(|j| 1 + j * ((n - 2) / k)).collect();
    let mut c = Circuit::new(n);
    for (j, &q) in qs.iter().enumerate() {
        c.h(q).rx(q, 0.3 + j as f64);
    }
    for pair in qs.windows(2) {
        c.cx(pair[0], pair[1]).ry(pair[1], 0.4);
    }
    one_block(&c, k, "dense")
}

fn diagonal_block(n: u32) -> FusedOp {
    let q = n / 2 - 1;
    let mut c = Circuit::new(n);
    c.rz(q, 0.4).cp(q, q + 1, 0.9).cz(q + 1, q + 2).rzz(q, q + 2, 0.3);
    one_block(&c, 3, "diagonal")
}

/// Unit-modulus fill: unitary sweeps keep it bounded however many run.
fn fill(state: &mut StateVector) {
    let scale = (state.len() as f64).sqrt().recip();
    for (i, a) in state.amplitudes_mut().iter_mut().enumerate() {
        *a = C64::exp_i(i as f64 * 0.37).scale(scale);
    }
}

/// Sweeps `rand22-fused4`'s circuit lowers to under the calibration in
/// force over the sweeps under the analytic constants: how far the
/// measured costs move a lowering (1 where the calibration is pinned).
fn sweeps_over_analytic(ctx: &Ctx) -> f64 {
    let circuit = rand_fused::seeded_circuit(ctx.width(rand_fused::WIDTH), ctx.seed);
    let sweeps = |cal: &Calibration| {
        fuse_costed(&circuit, rand_fused::MAX_K, &cal.fuse_costs()).len() as f64
    };
    sweeps(Calibration::get()) / sweeps(&Calibration::analytic())
}

/// Probe the layers every workload shares, on an `n`-qubit state
/// (`n ≥ 6`).
pub fn common(out: &mut Layers, n: u32, ctx: &Ctx) {
    out.set("calibrate.sweeps_over_analytic", sweeps_over_analytic(ctx));

    let be = simd::active();
    let pool = ThreadPool::new(2);
    let sched = Schedule::default_static();
    let amps_f = (1u64 << n) as f64;
    let ns_per_amp = |seconds: f64| seconds * 1e9 / amps_f;

    out.set(
        "state.alloc_touch_s",
        best_of_runs(3, || {
            std::hint::black_box(touched_state(n, 0));
        }),
    );

    let mut state = StateVector::zero(n);
    fill(&mut state);
    let amps = state.amplitudes_mut();

    // The roof: an in-place scale pass over the same array reads and
    // writes every amplitude once, which is the least any sweep does.
    let phase = C64::exp_i(0.3);
    let stream = ns_per_amp(best_of_runs(SWEEPS, || (be.scale_run)(amps, phase)));
    out.set("kernels.stream_ns_per_amp", stream);

    let mut worst = f64::INFINITY;
    for (kind, gate) in gate_kinds(n) {
        let ser = ns_per_amp(best_of_runs(SWEEPS, || apply_gate_with(be, amps, &gate)));
        let par = ns_per_amp(best_of_runs(SWEEPS, || {
            apply_gate_parallel_with(be, &pool, sched, amps, &gate)
        }));
        out.set(&format!("kernels.{kind}.ser_ns_per_amp"), ser);
        out.set(&format!("kernels.{kind}.par_ns_per_amp"), par);
        worst = worst.min(stream / ser);
    }
    out.set("kernels.roof_fraction_worst", worst);

    for (name, op) in [
        ("fused_k3_dense", dense_block(n, 3)),
        ("fused_k4_dense", dense_block(n, 4)),
        ("fused_diag", diagonal_block(n)),
    ] {
        let t = best_of_runs(SWEEPS, || apply_fused(be, amps, &op));
        out.set(&format!("kernels.{name}.ser_ns_per_amp"), ns_per_amp(t));
    }

    // Fork and join with nothing between them, averaged over a batch
    // because one region is shorter than the clock's resolution allows.
    const REGIONS: usize = 2000;
    let batch = best_of_runs(SWEEPS, || {
        for _ in 0..REGIONS {
            pool.parallel_for(0..2, sched, |r| {
                std::hint::black_box(r);
            });
        }
    });
    out.set("omp.region_overhead_us", batch * 1e6 / REGIONS as f64);
}
