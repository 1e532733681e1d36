//! `dist-qft22-r2`: the QFT over two in-process ranks under the
//! exchange-minimizing plan. The `dist` planner, the `mpi` transport
//! and per-rank serial kernels do the work; `omp`, fusion, batch and
//! serve do none. With ranks = processors no scaling claim is made.

use std::cell::Cell;

use a64fx_qcs::core::circuit::Circuit;
use a64fx_qcs::core::config::SimConfig;
use a64fx_qcs::core::library::qft::qft;
use a64fx_qcs::core::sim::Strategy;
use a64fx_qcs::core::state::StateVector;
use a64fx_qcs::dist::plan::{plan_circuit, run_distributed_planned, DistPlan, DistPlanKind};
use a64fx_qcs::mpi::{CommStats, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::qft::qft_oracle;
use super::{
    best_of_runs, repeat_for, run_window, timed, touched_state, Ctx, Layers, Measured, Ops,
    Workload,
};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;

pub const RANKS: usize = 2;
const WIDTH: u32 = 22;
/// Input bits the seed sets, always this many so that every seed costs
/// the same sweeps, and all on qubits both ranks hold locally so that
/// none costs an exchange.
const X_GATES: usize = 8;

/// Bytes and messages all ranks sent.
fn traffic(stats: &[CommStats]) -> (u64, u64) {
    stats.iter().fold((0, 0), |(b, m), s| (b + s.bytes_sent, m + s.messages_sent))
}

struct DistQft {
    n: u32,
    /// The seeded input `|x⟩`, prepared by `X` gates ahead of the QFT
    /// because the distributed entry point starts from `|0…0⟩`.
    x: usize,
    circuit: Circuit,
    /// `(bytes, messages)` the first run of the process exchanged:
    /// every later run must exchange exactly the same.
    first_traffic: Cell<Option<(u64, u64)>>,
}

impl DistQft {
    fn new(ctx: &Ctx) -> DistQft {
        let n = ctx.width(WIDTH);
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let mut low: Vec<u32> = (0..n - 6).collect();
        let mut circuit = Circuit::new(n);
        let mut x = 0;
        for _ in 0..X_GATES {
            let q = low.swap_remove(rng.gen_range(0..low.len()));
            circuit.x(q);
            x |= 1usize << q;
        }
        circuit.append(&qft(n));
        DistQft { n, x, circuit, first_traffic: Cell::new(None) }
    }
}

/// The plan one set-up pass built and what the run after it returned.
struct DistRun {
    plan: DistPlan,
    state: Option<StateVector>,
    traffic: (u64, u64),
}

impl Workload for DistQft {
    type Engine = DistRun;

    fn state_bytes(&self) -> u64 {
        16 << self.n
    }

    fn units_per_op(&self) -> f64 {
        1.0
    }

    fn setup(&self) -> Result<DistRun, String> {
        let plan =
            plan_circuit(&self.circuit, RANKS, DistPlanKind::Reorder).map_err(|e| e.to_string())?;
        Ok(DistRun { plan, state: None, traffic: (0, 0) })
    }

    fn solve(&self, run: &mut DistRun) -> Result<Ops, String> {
        let (state, stats) = run_distributed_planned(&self.circuit, RANKS, DistPlanKind::Reorder)
            .map_err(|e| e.to_string())?;
        run.traffic = traffic(&stats);
        run.state = Some(state);
        let first = self.first_traffic.get().unwrap_or(run.traffic);
        self.first_traffic.set(Some(first));
        if run.traffic != first {
            return Err(format!(
                "exchanged {:?} (bytes, messages), first run {first:?}",
                run.traffic
            ));
        }
        Ok(Ops::ONE)
    }

    fn oracle(&self, run: DistRun) -> Result<(), String> {
        let state = run.state.ok_or("no distributed run completed")?;
        qft_oracle(&state, self.x, 1e-10)?;
        let mut serial = StateVector::zero(self.n);
        SimConfig::default()
            .strategy(Strategy::Naive)
            .build()
            .and_then(|sim| sim.run(&self.circuit, &mut serial))
            .map_err(|e| e.to_string())?;
        match state.max_abs_diff(&serial) {
            0.0 => Ok(()),
            diff => Err(format!("gathered state differs from the serial engine by {diff:e}")),
        }
    }
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (w, gen_s) = timed(|| DistQft::new(ctx));
    run_window(&w, ctx, gen_s)
}

/// One-way bandwidth of the in-process transport on half-buffer
/// messages, the size the planned swaps send.
fn pingpong_gib_per_s(amps: usize) -> f64 {
    let payload = vec![0.5f64; 2 * amps];
    let bytes = (payload.len() * 8) as f64;
    let seconds = World::run_faulted(RANKS, None, |comm| {
        let peer = 1 - comm.rank();
        best_of_runs(5, || {
            std::hint::black_box(comm.sendrecv(peer, 7, &payload));
        })
    });
    bytes / seconds[0] / (1u64 << 30) as f64
}

/// Traced pass: planner and run as separate spans, the same circuit
/// under the naive and overlap plans, and the single-process 2-thread
/// solve the distributed one is an alternative to.
pub fn trace(ctx: &Ctx, tracer: &Tracer) -> Result<Layers, String> {
    let mut out = Layers::default();
    let w = DistQft::new(ctx);
    out.state_bytes = w.state_bytes();
    // Each rank sweeps its own half of the state.
    probes::common(&mut out, w.n - 1, ctx);

    let mut run = w.setup()?;
    let (_, warmup_s) = timed(|| w.solve(&mut run));
    let mut failed = 0;
    let mut rep = 0;
    let mut plan_s = f64::INFINITY;
    // Runs alternate between bare and wrapped in spans; the run alone is
    // what `solve_s` times, not the planning before it.
    let (mut bare_s, mut spanned_s) = (Vec::new(), Vec::new());
    repeat_for(0.4 * ctx.seconds, 4, || {
        let mut keep = |r: Result<DistRun, String>| match r {
            Ok(r) => run = r,
            Err(_) => failed += 1,
        };
        if rep % 2 == 0 {
            let planned = w.setup();
            let (done, s) = timed(|| planned.and_then(|mut r| w.solve(&mut r).map(|_| r)));
            bare_s.push(s);
            keep(done);
        } else {
            let root = tracer.begin(None, "harness", "solve", rep);
            let (planned, s) = tracer.span(Some(root), "dist", "plan_circuit", rep, || w.setup());
            plan_s = plan_s.min(s);
            let id = tracer.begin(Some(root), "dist", "run_distributed_planned", rep);
            let done = planned.and_then(|mut r| w.solve(&mut r).map(|_| r));
            spanned_s.push(tracer.end(id));
            tracer.end(root);
            keep(done);
        }
        rep += 1;
    });
    let solve_untraced = stats::best_of(&bare_s).expect("at least two bare runs");
    let solve_spanned = stats::best_of(&spanned_s).expect("at least two runs in spans");
    out.ops = Ops { attempted: rep + 1, failed };
    out.set("harness.trace_overhead_frac", solve_spanned / solve_untraced - 1.0);
    out.set_harness(warmup_s, &bare_s);
    out.set("dist.plan_s", plan_s);
    out.set("dist.exchange_bytes", run.traffic.0 as f64);
    out.set("dist.messages", run.traffic.1 as f64);
    out.set("dist.exchange_phases", run.plan.profile.phases as f64);

    let naive = plan_circuit(&w.circuit, RANKS, DistPlanKind::Naive).map_err(|e| e.to_string())?;
    out.set(
        "dist.bytes_naive_over_reorder",
        naive.profile.bytes_per_rank as f64 / run.plan.profile.bytes_per_rank as f64,
    );

    let mut overlap_state = None;
    let overlap_s = best_of_runs(2, || {
        overlap_state = run_distributed_planned(&w.circuit, RANKS, DistPlanKind::Overlap).ok();
    });
    out.set("dist.overlap_solve_s", overlap_s);

    let sim = SimConfig::default().threads(2).build().map_err(|e| e.to_string())?;
    let mut state = touched_state(w.n, 0);
    let single_s = best_of_runs(3, || {
        state = touched_state(w.n, 0);
        sim.run(&w.circuit, &mut state).expect("naive qft runs");
    });
    out.set("dist.efficiency", single_s / solve_untraced);
    out.set("mpi.pingpong_gib_per_s", pingpong_gib_per_s(1 << (w.n - 2)));

    let overlap_agrees = match (&overlap_state, &run.state) {
        (Some((o, _)), Some(r)) => o.max_abs_diff(r) == 0.0,
        _ => false,
    };
    out.oracle = Some(if overlap_agrees {
        qft_oracle(&state, w.x, 1e-10)
            .and_then(|()| qft_oracle(run.state.as_ref().expect("checked above"), w.x, 1e-10))
    } else {
        Err("the reorder and overlap plans gave different states".to_string())
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_sets_the_same_number_of_local_input_bits() {
        for seed in 0..20 {
            let w = DistQft::new(&Ctx { seed, seconds: 0.0, quick: true });
            assert_eq!(w.x.count_ones() as usize, X_GATES);
            assert!(w.x < 1 << (w.n - 6));
            assert_eq!(w.circuit.len(), X_GATES + qft(w.n).len());
        }
        let a = DistQft::new(&Ctx { seed: 1, seconds: 0.0, quick: true });
        let b = DistQft::new(&Ctx { seed: 2, seconds: 0.0, quick: true });
        assert_ne!(a.x, b.x);
    }
}
