//! `rand22-fused4`: a random circuit under `Strategy::Fused{max_k:4}`
//! on the serial executor path. `fusion` and the dense/sparse fused
//! kernels do the work; `omp`, batch, serve and dist do none.

use a64fx_qcs::core::calibrate::{candidates, Calibration};
use a64fx_qcs::core::circuit::{Circuit, Gate};
use a64fx_qcs::core::config::SimConfig;
use a64fx_qcs::core::fusion::fuse_costed;
use a64fx_qcs::core::kernels::fused::apply_fused;
use a64fx_qcs::core::kernels::simd;
use a64fx_qcs::core::library::qft::qft;
use a64fx_qcs::core::library::random::random_circuit;
use a64fx_qcs::core::plan::plan_circuit;
use a64fx_qcs::core::sim::{Simulator, Strategy};
use a64fx_qcs::core::state::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    best_of_runs, opaque_runs, run_window, timed, touched_state, Ctx, Layers, Measured, Ops,
    Workload,
};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;

pub const THREADS: usize = 1;
pub const WIDTH: u32 = 22;
const DEPTH: usize = 8;
pub const MAX_K: u32 = 4;
/// The gate layout is the same on every seed, so that every seed costs
/// the same sweeps; the seed draws the rotation angles.
const LAYOUT_SEED: u64 = 22;

/// `random_circuit`'s fixed layout with every rotation angle redrawn
/// from `seed`. Angles change no structural zero, so fusion classes
/// and sweep counts stay what the layout makes them.
pub fn seeded_circuit(n: u32, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut angle = || rng.gen_range(0.0..std::f64::consts::TAU);
    let mut out = Circuit::new(n);
    for g in random_circuit(n, DEPTH, LAYOUT_SEED).gates() {
        out.push(match *g {
            Gate::Rx(q, _) => Gate::Rx(q, angle()),
            Gate::Ry(q, _) => Gate::Ry(q, angle()),
            Gate::Rz(q, _) => Gate::Rz(q, angle()),
            ref other => other.clone(),
        });
    }
    out
}

fn engine(strategy: Strategy, threads: usize) -> Result<Simulator, String> {
    SimConfig::default().strategy(strategy).threads(threads).build().map_err(|e| e.to_string())
}

/// The same circuit through the naive engine, as the reference.
fn naive_reference(circuit: &Circuit) -> Result<StateVector, String> {
    let mut state = StateVector::zero(circuit.n_qubits());
    engine(Strategy::Naive, 2)?.run(circuit, &mut state).map_err(|e| e.to_string())?;
    Ok(state)
}

pub fn fused_oracle(state: &StateVector, reference: &StateVector) -> Result<(), String> {
    let diff = state.max_abs_diff(reference);
    if diff <= 1e-10 {
        Ok(())
    } else {
        Err(format!("fused state differs from the naive run by {diff:e} (tolerance 1e-10)"))
    }
}

struct RandFused {
    n: u32,
    circuit: Circuit,
}

impl RandFused {
    fn new(ctx: &Ctx) -> RandFused {
        let n = ctx.width(WIDTH);
        RandFused { n, circuit: seeded_circuit(n, ctx.seed) }
    }
}

impl Workload for RandFused {
    type Engine = (Simulator, StateVector);

    fn state_bytes(&self) -> u64 {
        16 << self.n
    }

    fn units_per_op(&self) -> f64 {
        1.0
    }

    fn setup(&self) -> Result<Self::Engine, String> {
        Ok((engine(Strategy::Fused { max_k: MAX_K }, THREADS)?, touched_state(self.n, 0)))
    }

    fn solve(&self, (sim, state): &mut Self::Engine) -> Result<Ops, String> {
        sim.run(&self.circuit, state).map_err(|e| e.to_string())?;
        Ok(Ops::ONE)
    }

    fn oracle(&self, (_, state): Self::Engine) -> Result<(), String> {
        fused_oracle(&state, &naive_reference(&self.circuit)?)
    }
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (w, gen_s) = timed(|| RandFused::new(ctx));
    run_window(&w, ctx, gen_s)
}

/// `Strategy::Auto`'s solve over the best fixed candidate's, on this
/// workload's layout at `n` qubits. Auto's pick rests on the measured
/// calibration, which is why it is a layer metric and no end-to-end
/// workload uses it; `serve-mixed` probes it, because `auto` is what a
/// served job gets when it names no strategy.
pub fn auto_over_best(n: u32, seed: u64) -> Result<f64, String> {
    let circuit = seeded_circuit(n, seed);
    let time_of = |strategy: Strategy| -> Result<f64, String> {
        let sim = engine(strategy, THREADS)?;
        let mut state = StateVector::zero(n);
        sim.run(&circuit, &mut state).map_err(|e| e.to_string())?;
        Ok(best_of_runs(2, || {
            state = touched_state(n, 0);
            sim.run(&circuit, &mut state).expect("ran once already");
        }))
    };
    let mut best = f64::INFINITY;
    for s in candidates(n) {
        best = best.min(time_of(s)?);
    }
    Ok(time_of(Strategy::Auto)? / best)
}

/// Cost of `SimConfig::traced()` on a qft two qubits down, as a share
/// of the untraced solve.
fn telemetry_overhead(n: u32) -> Result<f64, String> {
    let circuit = qft(n);
    let time_of = |cfg: SimConfig| -> Result<f64, String> {
        let sim = cfg.threads(2).build().map_err(|e| e.to_string())?;
        let mut state = StateVector::zero(n);
        Ok(best_of_runs(3, || {
            state = touched_state(n, 0);
            sim.run(&circuit, &mut state).expect("naive qft runs");
        }))
    };
    let plain = time_of(SimConfig::default())?;
    let traced = time_of(SimConfig::default().traced())?;
    Ok(traced / plain - 1.0)
}

/// Traced pass: lowering and block application replayed from outside
/// (`fuse_costed`, then `apply_fused` per block) against the opaque
/// call, plus the planner on the same circuit.
pub fn trace(ctx: &Ctx, tracer: &Tracer) -> Result<Layers, String> {
    let mut out = Layers::default();
    let w = RandFused::new(ctx);
    out.state_bytes = w.state_bytes();
    probes::common(&mut out, w.n, ctx);

    let opaque = opaque_runs(&w, &w.circuit, 0.3 * ctx.seconds)?;
    let solve_untraced = stats::best_of(&opaque.seconds).expect("at least two runs");
    let (engine, sweeps) = (&opaque.engine, opaque.sweeps);
    out.ops = opaque.ops;

    let be = simd::active();
    let costs = Calibration::get().fuse_costs();
    let mut replay_s = f64::INFINITY;
    let (mut fuse_s, mut apply_s) = (0.0, 0.0);
    let mut counts = (0usize, 0usize, 0usize);
    for rep in 0..2u64 {
        let mut state = touched_state(w.n, 0);
        let root = tracer.begin(None, "harness", "solve-replay", rep);
        let (ops, lower) = tracer.span(Some(root), "fusion", "fuse_costed", rep, || {
            fuse_costed(&w.circuit, MAX_K, &costs)
        });
        let mut apply = 0.0;
        for op in &ops {
            let ((), s) = tracer.span(Some(root), "kernels", op.class.name(), rep, || {
                apply_fused(be, state.amplitudes_mut(), op)
            });
            apply += s;
        }
        let total = tracer.end(root);
        if total < replay_s {
            (replay_s, fuse_s, apply_s) = (total, lower, apply);
        }
        let merged = ops.iter().filter(|o| o.n_gates >= 2);
        let now = (
            ops.len(),
            merged.clone().count(),
            merged.filter(|o| o.class.name() == "dense").count(),
        );
        if rep > 0 && now != counts {
            out.warnings.push(format!("fusion counts did not repeat: {counts:?} then {now:?}"));
        }
        counts = now;
        if rep == 0 {
            out.oracle = Some(
                fused_oracle(&engine.1, &naive_reference(&w.circuit)?)
                    .and_then(|()| fused_oracle(&state, &engine.1)),
            );
        }
    }
    let (total_sweeps, blocks, dense_blocks) = counts;
    out.set("fusion.fuse_s", fuse_s);
    out.set("fusion.sweeps", total_sweeps as f64);
    out.set("fusion.blocks", blocks as f64);
    out.set("fusion.dense_blocks", dense_blocks as f64);
    out.set("fusion.replay_apply_s", apply_s);
    if sweeps != total_sweeps {
        out.warnings.push(format!("the engine swept {sweeps} times, the replay {total_sweeps}"));
    }
    out.set("sim.sweeps", sweeps as f64);
    out.set("sim.self_s", solve_untraced - fuse_s - apply_s);
    out.set("sim.unattributed_frac", (solve_untraced - fuse_s - apply_s) / solve_untraced);
    out.set("harness.trace_overhead_frac", replay_s / solve_untraced - 1.0);
    out.set_harness(opaque.warmup_s, &opaque.seconds);

    let (plan, plan_s) = timed(|| plan_circuit(&w.circuit, 13.min(w.n), MAX_K));
    out.set("plan.plan_s", plan_s);
    out.set("plan.blocks", plan.blocks() as f64);
    out.set("plan.gates_fallback", plan.gates_fallback() as f64);

    out.set("telemetry.overhead_frac", telemetry_overhead(w.n - 2)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_draws_angles_and_never_the_layout() {
        let (a, b) = (seeded_circuit(8, 1), seeded_circuit(8, 2));
        assert_eq!(format!("{:?}", seeded_circuit(8, 1).gates()), format!("{:?}", a.gates()));
        assert_ne!(format!("{:?}", a.gates()), format!("{:?}", b.gates()));
        let shape = |c: &Circuit| -> Vec<(&'static str, Vec<u32>)> {
            c.gates().iter().map(|g| (g.name(), g.qubits())).collect()
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn oracle_rejects_a_state_off_the_reference() {
        let c = seeded_circuit(6, 3);
        let reference = naive_reference(&c).unwrap();
        let mut state = StateVector::zero(6);
        engine(Strategy::Fused { max_k: MAX_K }, 1).unwrap().run(&c, &mut state).unwrap();
        fused_oracle(&state, &reference).unwrap();
        state.amplitudes_mut()[9].re += 1e-6;
        assert!(fused_oracle(&state, &reference).is_err());
    }
}
