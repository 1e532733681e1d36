//! `vqe14-grad`: one parameter-shift gradient — 112 shifted circuits
//! on cache-sized states through the batch engine, then observable
//! reductions. The same kernels as `qft23-naive` used differently:
//! `batch`, `omp::batch`, `expectation` and `variational` do the work;
//! fusion, serve and dist do none.

use a64fx_qcs::core::batch::BatchSimulator;
use a64fx_qcs::core::circuit::Circuit;
use a64fx_qcs::core::config::SimConfig;
use a64fx_qcs::core::expectation::Hamiltonian;
use a64fx_qcs::core::sim::Simulator;
use a64fx_qcs::core::state::StateVector;
use a64fx_qcs::core::variational::{hardware_efficient_ansatz, ParamCircuit, VqeDriver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{best_of_runs, repeat_for, run_window, timed, Ctx, Layers, Measured, Ops, Workload};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;

pub const THREADS: usize = 2;
const WIDTH: u32 = 14;
const LAYERS: u32 = 3;
const SHIFT: f64 = std::f64::consts::FRAC_PI_2;

struct VqeGrad {
    n: u32,
    ansatz: ParamCircuit,
    hamiltonian: Hamiltonian,
    /// The seeded input: the point the gradient is taken at.
    theta: Vec<f64>,
}

impl VqeGrad {
    fn new(ctx: &Ctx) -> VqeGrad {
        VqeGrad::sized(ctx.width(WIDTH), ctx.seed)
    }

    fn sized(n: u32, seed: u64) -> VqeGrad {
        let ansatz = hardware_efficient_ansatz(n, LAYERS);
        let mut rng = StdRng::seed_from_u64(seed);
        let theta =
            (0..ansatz.n_params()).map(|_| rng.gen_range(0.0..std::f64::consts::TAU)).collect();
        VqeGrad { n, ansatz, hamiltonian: Hamiltonian::ising_chain(n, 1.0, 1.0), theta }
    }

    fn engine(&self) -> Result<BatchSimulator, String> {
        BatchSimulator::from_config(SimConfig::default().threads(THREADS))
            .map_err(|e| e.to_string())
    }

    /// The `2p` parameter-shift points, in the driver's order.
    fn shift_points(&self) -> Vec<Vec<f64>> {
        let mut points = Vec::with_capacity(2 * self.theta.len());
        for j in 0..self.theta.len() {
            for delta in [SHIFT, -SHIFT] {
                let mut p = self.theta.clone();
                p[j] += delta;
                points.push(p);
            }
        }
        points
    }

    /// Four shift points spread over the parameters, plus and minus
    /// alternating: the ones the oracle re-evaluates serially.
    fn sampled_points(&self) -> Vec<Vec<f64>> {
        let points = self.shift_points();
        let stride = points.len() / 4;
        (0..4).map(|i| points[i * stride + i % 2].clone()).collect()
    }
}

/// Energies of `points` through the serial single-circuit engine.
fn serial_energies(w: &VqeGrad, points: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let observable = w.hamiltonian.compile();
    let sim = Simulator::new();
    points
        .iter()
        .map(|p| {
            let mut state = StateVector::zero(w.n);
            sim.run(&w.ansatz.bind(p), &mut state).map_err(|e| e.to_string())?;
            Ok(observable.expectation(&state))
        })
        .collect()
}

/// Batched energies must equal the serial engine's bit for bit, and
/// the parameter-shift gradient must match a central finite difference
/// to rtol 1e-6.
pub fn gradient_oracle(
    batched: &[f64],
    serial: &[f64],
    shift: &[f64],
    fd: &[f64],
) -> Result<(), String> {
    for (i, (b, s)) in batched.iter().zip(serial).enumerate() {
        if b.to_bits() != s.to_bits() {
            return Err(format!("sampled point {i}: batched energy {b:e} != serial {s:e}"));
        }
    }
    for (j, (g, f)) in shift.iter().zip(fd).enumerate() {
        if (g - f).abs() > 1e-6 * f.abs().max(1.0) {
            return Err(format!("parameter {j}: shift gradient {g:e} vs finite difference {f:e}"));
        }
    }
    Ok(())
}

impl Workload for VqeGrad {
    /// The driver and the last gradient it returned.
    type Engine = (VqeDriver, Vec<f64>);

    fn state_bytes(&self) -> u64 {
        (2 * self.theta.len() as u64) * (16 << self.n)
    }

    fn units_per_op(&self) -> f64 {
        2.0 * self.theta.len() as f64
    }

    fn setup(&self) -> Result<Self::Engine, String> {
        let driver = VqeDriver::with_engine(self.ansatz.clone(), &self.hamiltonian, self.engine()?);
        Ok((driver, Vec::new()))
    }

    fn solve(&self, (driver, gradient): &mut Self::Engine) -> Result<Ops, String> {
        *gradient = driver.gradient(&self.theta).map_err(|e| e.to_string())?;
        Ok(Ops::ONE)
    }

    fn oracle(&self, (driver, gradient): Self::Engine) -> Result<(), String> {
        let sampled = self.sampled_points();
        let batched = driver.energies(&sampled).map_err(|e| e.to_string())?;
        let serial = serial_energies(self, &sampled)?;
        let fd = driver.gradient_fd(&self.theta, 1e-5).map_err(|e| e.to_string())?;
        let last = gradient.len() - 1;
        gradient_oracle(&batched, &serial, &[gradient[0], gradient[last]], &[fd[0], fd[last]])
    }
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (w, gen_s) = timed(|| VqeGrad::new(ctx));
    run_window(&w, ctx, gen_s)
}

/// Traced pass: the gradient's stages replayed from outside
/// (`bind` → `StateVector::zero` → `run_sweep` → `expectation`)
/// against the opaque call, and the same circuits one at a time.
pub fn trace(ctx: &Ctx, tracer: &Tracer) -> Result<Layers, String> {
    let mut out = Layers::default();
    let w = VqeGrad::new(ctx);
    out.state_bytes = w.state_bytes();
    probes::common(&mut out, w.n, ctx);

    let mut engine = w.setup()?;
    let (_, warmup_s) = timed(|| w.solve(&mut engine));
    let mut failed = 0;
    let opaque = repeat_for(0.3 * ctx.seconds, 2, || {
        if w.solve(&mut engine).is_err() {
            failed += 1;
        }
    });
    let solve_untraced = stats::best_of(&opaque).expect("at least two runs");
    out.ops = Ops { attempted: opaque.len() as u64 + 1, failed };
    let (driver, gradient) = &engine;

    let (observable, compile_s) = timed(|| w.hamiltonian.compile());
    out.set("expectation.compile_s", compile_s);
    out.set("expectation.terms", observable.terms() as f64);
    out.set("expectation.sweeps", observable.sweeps() as f64);

    let batch = w.engine()?;
    let points = w.shift_points();
    let mut replay_s = f64::INFINITY;
    let mut stages = [0.0; 4];
    let mut replayed = Vec::new();
    for rep in 0..(if ctx.quick { 2 } else { 5 }) {
        let root = tracer.begin(None, "variational", "gradient-replay", rep);
        let (circuits, bind_s) = tracer.span(Some(root), "batch", "bind", rep, || {
            points.iter().map(|p| w.ansatz.bind(p)).collect::<Vec<Circuit>>()
        });
        let (mut states, alloc_s) = tracer.span(Some(root), "state", "alloc", rep, || {
            points.iter().map(|_| StateVector::zero(w.n)).collect::<Vec<StateVector>>()
        });
        let (swept, sweep_s) = tracer.span(Some(root), "batch", "run_sweep", rep, || {
            batch.run_sweep(&circuits, &mut states)
        });
        swept.map_err(|e| e.to_string())?;
        let (energies, reduce_s) = tracer.span(Some(root), "expectation", "reduce", rep, || {
            states.iter().map(|s| observable.expectation(s)).collect::<Vec<f64>>()
        });
        let total = tracer.end(root);
        if total < replay_s {
            (replay_s, stages) = (total, [bind_s, alloc_s, sweep_s, reduce_s]);
        }
        replayed = energies;
    }
    let [bind_s, alloc_s, sweep_s, reduce_s] = stages;
    let staged: f64 = stages.iter().sum();
    out.set("batch.bind_s", bind_s);
    out.set("batch.alloc_s", alloc_s);
    out.set("batch.run_sweep_s", sweep_s);
    out.set("batch.members", points.len() as f64);
    out.set("expectation.reduce_s", reduce_s);
    out.set("variational.self_s", solve_untraced - staged);
    out.set("sim.unattributed_frac", (solve_untraced - staged) / solve_untraced);
    out.set("harness.trace_overhead_frac", replay_s / solve_untraced - 1.0);
    out.set_harness(warmup_s, &opaque);

    // The replayed energies must give the gradient the driver returned.
    let from_replay: Vec<f64> = replayed.chunks(2).map(|pair| (pair[0] - pair[1]) / 2.0).collect();
    let same = from_replay.iter().zip(gradient).all(|(a, b)| a.to_bits() == b.to_bits());
    out.oracle = Some(if same && from_replay.len() == gradient.len() {
        let sampled = w.sampled_points();
        let batched = driver.energies(&sampled).map_err(|e| e.to_string())?;
        gradient_oracle(&batched, &serial_energies(&w, &sampled)?, &[], &[])
    } else {
        Err("the replayed stages give a different gradient than the driver".to_string())
    });

    // The same circuits one at a time through the single-circuit
    // engine: what batching is worth on this host.
    let circuits: Vec<Circuit> = points.iter().map(|p| w.ansatz.bind(p)).collect();
    let sim = Simulator::new();
    let serial_equiv_s = best_of_runs(2, || {
        for c in &circuits {
            let mut state = StateVector::zero(w.n);
            sim.run(c, &mut state).expect("naive run of a bound ansatz");
            std::hint::black_box(&state);
        }
    });
    out.set("batch.serial_equiv_s", serial_equiv_s);
    out.set("batch.amortization", serial_equiv_s / sweep_s);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_wants_bit_identical_energies_and_matching_gradients() {
        gradient_oracle(&[1.5, -0.25], &[1.5, -0.25], &[0.3, 2.0e3], &[0.3 + 5e-7, 2.0e3 + 1e-3])
            .unwrap();
        let off_by_an_ulp = f64::from_bits(1.5f64.to_bits() + 1);
        assert!(gradient_oracle(&[off_by_an_ulp], &[1.5], &[], &[]).is_err());
        assert!(gradient_oracle(&[], &[], &[0.3], &[0.3 + 2e-6]).is_err());
    }

    #[test]
    fn a_small_instance_passes_its_own_oracle() {
        let w = VqeGrad::sized(4, 5);
        let mut engine = w.setup().unwrap();
        w.solve(&mut engine).unwrap();
        w.oracle(engine).unwrap();
    }
}
