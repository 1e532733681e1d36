//! `qft23-naive`: one streaming sweep per gate over a DRAM-sized
//! state. The parallel kernels and `omp` do all the work; lowering,
//! batch, serve and dist do none.

use a64fx_qcs::core::circuit::Circuit;
use a64fx_qcs::core::config::SimConfig;
use a64fx_qcs::core::kernels::dispatch::apply_gate_parallel_with;
use a64fx_qcs::core::kernels::simd;
use a64fx_qcs::core::library::qft::qft;
use a64fx_qcs::core::sim::{Simulator, Strategy};
use a64fx_qcs::core::state::StateVector;
use a64fx_qcs::omp::{Schedule, ThreadPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    best_of_runs, opaque_runs, run_window, timed, touched_state, Ctx, Layers, Measured, Ops,
    Workload,
};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;

pub const THREADS: usize = 2;
const WIDTH: u32 = 23;

/// `QFT|x⟩` has amplitude `2^(-n/2)·e^(2πi·x·y/2^n)` on `|y⟩`: the
/// largest deviation from that over every amplitude must stay within
/// `tol`.
pub fn qft_oracle(state: &StateVector, x: usize, tol: f64) -> Result<(), String> {
    let n = state.n_qubits();
    let len = state.len();
    let scale = (len as f64).sqrt().recip();
    let mut worst = 0.0f64;
    for (y, a) in state.amplitudes().iter().enumerate() {
        // x·y mod 2^n is exact in u64 for n ≤ 32.
        let turns = ((x as u64 * y as u64) & (len as u64 - 1)) as f64 / len as f64;
        let (s, c) = (std::f64::consts::TAU * turns).sin_cos();
        worst = worst.max((a.re - scale * c).abs()).max((a.im - scale * s).abs());
    }
    if worst <= tol {
        Ok(())
    } else {
        Err(format!("qft-{n} on |{x}>: amplitude off by {worst:e} (tolerance {tol:e})"))
    }
}

struct QftNaive {
    n: u32,
    /// The seeded input: basis state `|x⟩`. Every `x` costs the same.
    x: usize,
    circuit: Circuit,
}

impl QftNaive {
    fn new(ctx: &Ctx) -> QftNaive {
        let n = ctx.width(WIDTH);
        let x = StdRng::seed_from_u64(ctx.seed).gen_range(0..1usize << n);
        QftNaive { n, x, circuit: qft(n) }
    }

    fn engine(&self, threads: usize) -> Result<Simulator, String> {
        SimConfig::default()
            .strategy(Strategy::Naive)
            .threads(threads)
            .build()
            .map_err(|e| e.to_string())
    }
}

impl Workload for QftNaive {
    type Engine = (Simulator, StateVector);

    fn state_bytes(&self) -> u64 {
        16 << self.n
    }

    fn units_per_op(&self) -> f64 {
        1.0
    }

    fn setup(&self) -> Result<Self::Engine, String> {
        Ok((self.engine(THREADS)?, touched_state(self.n, self.x)))
    }

    fn solve(&self, (sim, state): &mut Self::Engine) -> Result<Ops, String> {
        sim.run(&self.circuit, state).map_err(|e| e.to_string())?;
        Ok(Ops::ONE)
    }

    fn oracle(&self, (_, state): Self::Engine) -> Result<(), String> {
        qft_oracle(&state, self.x, 1e-10)
    }
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (w, gen_s) = timed(|| QftNaive::new(ctx));
    run_window(&w, ctx, gen_s)
}

/// Traced pass: the opaque call against a gate-by-gate replay through
/// the parallel dispatch, the kernel probes at this width, and the
/// 1-thread/2-thread contrast that flags a slow serial path.
pub fn trace(ctx: &Ctx, tracer: &Tracer) -> Result<Layers, String> {
    let mut out = Layers::default();
    let w = QftNaive::new(ctx);
    out.state_bytes = w.state_bytes();
    probes::common(&mut out, w.n, ctx);

    let opaque = opaque_runs(&w, &w.circuit, 0.3 * ctx.seconds)?;
    let solve_untraced = stats::best_of(&opaque.seconds).expect("at least two runs");
    out.oracle = Some(qft_oracle(&opaque.engine.1, w.x, 1e-10));
    out.ops = opaque.ops;

    // The replay: what the public kernels cost when driven from outside.
    let be = simd::active();
    let pool = ThreadPool::new(THREADS);
    let sched = Schedule::default_static();
    let mut replay_s = f64::INFINITY;
    let mut replay_kernels_s = 0.0;
    for rep in 0..2u64 {
        let mut state = touched_state(w.n, w.x);
        let root = tracer.begin(None, "harness", "solve-replay", rep);
        let mut kernels_s = 0.0;
        for g in w.circuit.gates() {
            let ((), s) = tracer.span(Some(root), "kernels", g.name(), rep, || {
                apply_gate_parallel_with(be, &pool, sched, state.amplitudes_mut(), g)
            });
            kernels_s += s;
        }
        let total = tracer.end(root);
        if total < replay_s {
            (replay_s, replay_kernels_s) = (total, kernels_s);
        }
        if rep == 0 && state.max_abs_diff(&opaque.engine.1) != 0.0 {
            out.warnings.push("replay state differs from the opaque call's".to_string());
        }
    }
    out.set("sim.sweeps", opaque.sweeps as f64);
    out.set("sim.self_s", solve_untraced - replay_kernels_s);
    out.set("sim.unattributed_frac", (solve_untraced - replay_kernels_s) / solve_untraced);
    out.set("harness.trace_overhead_frac", replay_s / solve_untraced - 1.0);
    out.set_harness(opaque.warmup_s, &opaque.seconds);

    // One thread against two on the same circuit a size down: above 2
    // the serial kernels are slower per amplitude than the parallel.
    let n = w.n - 1;
    let circuit = qft(n);
    let time_with = |threads: usize, reps: usize| -> Result<f64, String> {
        let sim = w.engine(threads)?;
        let mut state = touched_state(n, 0);
        Ok(best_of_runs(reps, || {
            state = touched_state(n, 0);
            sim.run(&circuit, &mut state).expect("naive qft runs");
        }))
    };
    let serial = time_with(1, 1)?;
    let parallel = time_with(THREADS, 3)?;
    out.set("omp.speedup_qft22", serial / parallel);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use a64fx_qcs::core::complex::C64;

    #[test]
    fn oracle_accepts_the_transform_and_rejects_a_corrupted_amplitude() {
        let (n, x) = (6, 37);
        let mut state = StateVector::basis(n, x);
        Simulator::new().run(&qft(n), &mut state).unwrap();
        qft_oracle(&state, x, 1e-10).unwrap();
        assert!(qft_oracle(&state, x + 1, 1e-10).is_err(), "the phases depend on the input");
        state.amplitudes_mut()[5] = C64::new(0.0, 0.0);
        assert!(qft_oracle(&state, x, 1e-10).is_err());
    }
}
