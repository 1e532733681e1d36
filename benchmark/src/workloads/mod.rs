//! The five workloads and the measuring loop they share.
//!
//! To add a workload: implement [`Workload`] in a new module here (its
//! inputs from `ctx.seed`, sized so one run fits the contract's time
//! cap), give it a traced pass that replays its call from outside, add
//! it to [`REGISTRY`], and list it in
//! `BENCHMARK.json` with one line on which layers it exercises and
//! which it bypasses.

pub mod dist;
pub mod qft;
pub mod rand_fused;
pub mod serve;
pub mod vqe;

use std::time::Instant;

use a64fx_qcs::core::calibrate::Calibration;
use a64fx_qcs::core::circuit::Circuit;
use a64fx_qcs::core::sim::Simulator;
use a64fx_qcs::core::state::StateVector;

use crate::stats;
use crate::trace::Tracer;

/// What the command line fixes for one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed window; 0 in smoke mode, where the fewest
    /// repetitions run.
    pub seconds: f64,
    /// Smoke mode: every width 4 qubits smaller.
    pub quick: bool,
}

impl Ctx {
    /// `n` as specified, or 4 qubits narrower in quick mode.
    pub fn width(&self, n: u32) -> u32 {
        if self.quick {
            n - 4
        } else {
            n
        }
    }
}

/// Operations one timed call attempted and how many of them failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub const ONE: Ops = Ops { attempted: 1, failed: 0 };
}

impl std::ops::AddAssign for Ops {
    fn add_assign(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One workload: a repeatable set-up pass, a timed operation on what
/// it built, and an oracle for the result.
pub trait Workload {
    /// What [`Workload::setup`] builds: the engine and the state the
    /// timed call runs on.
    type Engine;

    /// Bytes of amplitudes one operation holds.
    fn state_bytes(&self) -> u64;

    /// Units of work (circuits or jobs) one operation completes.
    fn units_per_op(&self) -> f64;

    /// Engine construction and state allocation with first touch.
    /// Timed into `setup_s`, never into `solve_s`.
    fn setup(&self) -> Result<Self::Engine, String>;

    /// The timed operation.
    fn solve(&self, engine: &mut Self::Engine) -> Result<Ops, String>;

    /// Check the last operation's output; runs outside the timed
    /// window, after peak memory is read.
    fn oracle(&self, engine: Self::Engine) -> Result<(), String>;

    /// Called once the untimed warm-up operation is over, so that a
    /// workload keeping its own records can drop the warm-up's.
    fn warmed_up(&self) {}

    /// Latency in ms of every unit the timed operations completed, if
    /// the workload times its units itself (the server's jobs).
    fn unit_latencies_ms(&self) -> Vec<f64> {
        Vec::new()
    }
}

/// Everything one untraced run measured.
pub struct Measured {
    pub state_bytes: u64,
    pub units_per_op: f64,
    /// Input generation, once per process.
    pub gen_s: f64,
    pub warmup_s: f64,
    /// Repeatable set-up passes, one before every timed operation.
    pub setups: Vec<f64>,
    /// Timed operations.
    pub reps: Vec<f64>,
    /// Empty, or the latency of every unit the operations completed.
    pub unit_latencies_ms: Vec<f64>,
    pub window_s: f64,
    pub ops: Ops,
    /// High-water mark of live heap bytes over each set-up pass and
    /// the operation after it; the oracle's memory is in none.
    pub op_peaks_mib: Vec<f64>,
    pub oracle: Result<(), String>,
}

/// Fewest timed operations a run reports on, however short the window.
const MIN_REPS: usize = 2;

/// Run `workload` for `ctx.seconds`: one untimed warm-up operation,
/// then set-up pass and timed operation alternating until the window
/// closes, then the oracle. Set-up passes are interleaved with the
/// operations so that both sample the whole window: a burst of host
/// interference lasts seconds and would otherwise land on all of one
/// and none of the other.
pub fn run_window<W: Workload>(workload: &W, ctx: &Ctx, gen_s: f64) -> Result<Measured, String> {
    let mut ops = Ops::default();
    let mut count = |r: Result<Ops, String>| match r {
        Ok(o) => ops += o,
        Err(why) => {
            eprintln!("operation failed: {why}");
            ops += Ops { attempted: 1, failed: 1 };
        }
    };

    let mut engine = workload.setup()?;
    let t = Instant::now();
    count(workload.solve(&mut engine));
    let warmup_s = t.elapsed().as_secs_f64();
    workload.warmed_up();
    let mut last = Some(engine);

    let (mut setups, mut reps, mut op_peaks_mib) = (Vec::new(), Vec::new(), Vec::new());
    let window = Instant::now();
    while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < ctx.seconds {
        // One engine alive at a time, so peak memory is one operation's;
        // the one-shot calibration before the window is in none.
        drop(last.take());
        crate::heap::reset_peak();
        let t = Instant::now();
        let mut engine = workload.setup()?;
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let result = workload.solve(&mut engine);
        reps.push(t.elapsed().as_secs_f64());
        op_peaks_mib.push(crate::heap::peak_mib());
        count(result);
        last = Some(engine);
    }
    let window_s = window.elapsed().as_secs_f64();
    let oracle = workload.oracle(last.take().expect("at least one operation ran"));
    Ok(Measured {
        state_bytes: workload.state_bytes(),
        units_per_op: workload.units_per_op(),
        gen_s,
        warmup_s,
        setups,
        reps,
        unit_latencies_ms: workload.unit_latencies_ms(),
        window_s,
        ops,
        op_peaks_mib,
        oracle,
    })
}

/// Per-layer values one traced pass produced, by metric name, plus
/// lines to print as warnings.
#[derive(Default)]
pub struct Layers {
    pub values: Vec<(String, f64)>,
    pub warnings: Vec<String>,
    pub state_bytes: u64,
    pub ops: Ops,
    pub oracle: Option<Result<(), String>>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    /// The noise the pass itself saw: its warm-up and the spread of its
    /// untraced operations.
    pub fn set_harness(&mut self, warmup_s: f64, reps: &[f64]) {
        self.set("harness.warmup_s", warmup_s);
        self.set("harness.rep_p50_s", stats::median(reps).expect("the pass ran operations"));
        self.set("harness.rep_max_over_min", stats::max_over_min(reps).expect("non-empty"));
    }
}

/// The untraced half of a single-circuit workload's traced pass: one
/// warm-up, then the opaque `Simulator::run` on a fresh engine for
/// `budget_s` (at least twice).
pub struct OpaqueRuns {
    /// The engine and state of the last run.
    pub engine: (Simulator, StateVector),
    pub warmup_s: f64,
    pub seconds: Vec<f64>,
    /// Sweeps the engine reported.
    pub sweeps: usize,
    pub ops: Ops,
}

pub fn opaque_runs<W>(w: &W, circuit: &Circuit, budget_s: f64) -> Result<OpaqueRuns, String>
where
    W: Workload<Engine = (Simulator, StateVector)>,
{
    let mut engine = w.setup()?;
    let (_, warmup_s) = timed(|| w.solve(&mut engine));
    let (mut sweeps, mut failed) = (0, 0);
    let seconds = repeat_for(budget_s, 2, || {
        engine = w.setup().expect("set-up succeeded once already");
        match engine.0.run(circuit, &mut engine.1) {
            Ok(report) => sweeps = report.sweeps,
            Err(_) => failed += 1,
        }
    });
    let ops = Ops { attempted: seconds.len() as u64 + 1, failed };
    Ok(OpaqueRuns { engine, warmup_s, seconds, sweeps, ops })
}

/// Zeroed state with every page touched, so the timed call never pays
/// a first-touch fault.
pub fn touched_state(n: u32, basis: usize) -> StateVector {
    let mut s = StateVector::basis(n, basis);
    // `basis` allocates zeroed pages lazily; writing the zeros again
    // faults every page in.
    for a in s.amplitudes_mut().iter_mut().step_by(256) {
        *a = std::hint::black_box(*a);
    }
    s
}

/// Time `work` once, in seconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = work();
    (out, t.elapsed().as_secs_f64())
}

/// Best of `reps` timings of `work`, in seconds.
pub fn best_of_runs(reps: usize, mut work: impl FnMut()) -> f64 {
    (0..reps).map(|_| timed(&mut work).1).fold(f64::INFINITY, f64::min)
}

/// Force the process-wide calibration, pinned to its analytic constants
/// if the workload says so, and return what that cost in seconds.
pub fn force_calibration(analytic: bool) -> Result<f64, String> {
    if analytic {
        std::env::set_var("QCS_CALIBRATE", "analytic");
    }
    let ((), seconds) = timed(|| {
        std::hint::black_box(Calibration::get());
    });
    if Calibration::get().measured == analytic {
        return Err("the calibration was forced before the workload could choose it".to_string());
    }
    Ok(seconds)
}

/// One row of the registry.
pub struct Entry {
    pub name: &'static str,
    /// Threads the workload keeps busy; the harness refuses to run it
    /// on fewer processors.
    pub threads: usize,
    /// Run on the calibration's analytic constants, not the measured
    /// ones. Stamped on the host-facts line.
    pub analytic_calibration: bool,
    /// The per-layer metrics the traced pass must set beyond
    /// [`EVERY_PASS`], by name or by prefix (`"serve."`); every other
    /// listed metric is bypassed, and setting one of those is as much a
    /// harness bug as missing one of these.
    pub layers: &'static [&'static str],
    pub measure: fn(&Ctx) -> Result<Measured, String>,
    pub trace: fn(&Ctx, &Tracer) -> Result<Layers, String>,
}

/// What every traced pass sets: the shared probes and its own noise.
const EVERY_PASS: [&str; 5] =
    ["calibrate.", "state.", "kernels.", "omp.region_overhead_us", "harness."];

impl Entry {
    pub fn measures(&self, metric: &str) -> bool {
        EVERY_PASS.iter().chain(self.layers).any(|l| match l.strip_suffix('.') {
            Some(_) => metric.starts_with(l),
            None => metric == *l,
        })
    }
}

/// In `BENCHMARK.json` order.
pub const REGISTRY: [Entry; 5] = [
    Entry {
        name: "qft23-naive",
        threads: qft::THREADS,
        analytic_calibration: false,
        layers: &["omp.speedup_qft22", "sim.sweeps", "sim.self_s", "sim.unattributed_frac"],
        measure: qft::measure,
        trace: qft::trace,
    },
    // `fuse_costed` merges gates on the calibrated per-kernel costs, and
    // the ~130 ms micro-calibration that measures them is noisy enough
    // to flip merges: on identical code this circuit solved in anything
    // from 1.10 s to 2.33 s from one process to the next, both faster
    // and slower than under the analytic costs. That is why
    // `Strategy::Auto` is in no end-to-end workload, and it holds for
    // `Fused` as well, so this workload runs the lowering the analytic
    // costs give, which repeats exactly. What the measured calibration
    // does to the same circuit is `calibrate.sweeps_over_analytic` on
    // the other workloads.
    Entry {
        name: "rand22-fused4",
        threads: rand_fused::THREADS,
        analytic_calibration: true,
        layers: &[
            "fusion.",
            "plan.",
            "telemetry.",
            "sim.sweeps",
            "sim.self_s",
            "sim.unattributed_frac",
        ],
        measure: rand_fused::measure,
        trace: rand_fused::trace,
    },
    Entry {
        name: "vqe14-grad",
        threads: vqe::THREADS,
        analytic_calibration: false,
        layers: &["batch.", "expectation.", "variational.", "sim.unattributed_frac"],
        measure: vqe::measure,
        trace: vqe::trace,
    },
    Entry {
        name: "serve-mixed",
        threads: serve::THREADS,
        analytic_calibration: false,
        layers: &["serve.", "qasm.", "measure.", "sim.unattributed_frac", "sim.auto_over_best_n18"],
        measure: serve::measure,
        trace: serve::trace,
    },
    Entry {
        name: "dist-qft22-r2",
        threads: dist::RANKS,
        analytic_calibration: false,
        layers: &["dist.", "mpi."],
        measure: dist::measure,
        trace: dist::trace,
    },
];

pub fn find(name: &str) -> Result<&'static Entry, String> {
    REGISTRY.iter().find(|e| e.name == name).ok_or_else(|| {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })
}

/// Run `work` at least `min` times and until `budget_s` is spent;
/// returns each run's seconds.
pub fn repeat_for(budget_s: f64, min: usize, mut work: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < budget_s {
        out.push(timed(&mut work).1);
    }
    out
}
