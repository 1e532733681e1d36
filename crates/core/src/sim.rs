//! The execution engine: strategies, threading, timing, and model hooks.

use std::sync::Arc;
use std::time::Instant;

use a64fx_model::timing::ExecConfig;
use a64fx_model::ChipParams;
use omp_par::{RegionObserver, Schedule, ThreadPool};
use rand::SeedableRng;

use crate::checkpoint::{Checkpointer, ShardMeta};
use crate::circuit::Circuit;
use crate::complex::C64;
use crate::config::{CheckpointConfig, PoolSpec, SimConfig};
use crate::integrity::{self, IntegrityMode, IntegrityPolicy, IntegrityViolation, Outcome};
use crate::kernels::simd::{self, KernelBackend};
use crate::measure::{measure_qubit, MeasurementResult};
use crate::perf::{predict, ModelReport};
use crate::program::{lower, Program, SweepOp};
use crate::state::StateVector;
use crate::telemetry::{self, RunMeta, TelemetryConfig, Trace, Tracer};

/// How the engine maps a circuit onto kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// One sweep per gate with specialized kernels (the QuEST-style
    /// baseline).
    #[default]
    Naive,
    /// Fuse gates into ≤ `max_k`-qubit blocks first, sliding each gate
    /// past gates on other qubits to the group it merges with most
    /// cheaply (the Qiskit-Aer-style optimization, commutation- and
    /// cost-aware: see [`crate::fusion`]).
    Fused { max_k: u32 },
    /// Apply each run of gates that pin to every `2^block_qubits` block
    /// one cache-resident block at a time; other gates fall back to naive.
    Blocked { block_qubits: u32 },
    /// [`Strategy::Blocked`]'s runs, with each stretch of a run below
    /// `block_qubits` fused into ≤ `max_k`-qubit blocks inside the pass.
    Planned { block_qubits: u32, max_k: u32 },
    /// Choose per circuit: the concrete candidate strategy whose
    /// lowering the fixed cost table ([`crate::calibrate`]) prices
    /// cheapest — the same pick in every process.
    Auto,
}

/// Renders in the CLI's `name[:param…]` syntax, the exact inverse of
/// the `FromStr` parse — trace headers and `--verbose` output are
/// paste-able back into a command line.
impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Naive => write!(f, "naive"),
            Strategy::Fused { max_k } => write!(f, "fused:{max_k}"),
            Strategy::Blocked { block_qubits } => write!(f, "blocked:{block_qubits}"),
            Strategy::Planned { block_qubits, max_k } => {
                write!(f, "planned:{block_qubits}:{max_k}")
            }
            Strategy::Auto => write!(f, "auto"),
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parse `naive | fused:<k> | blocked:<b> | planned:<b>:<k> | auto`.
    /// Errors name the valid variants.
    fn from_str(text: &str) -> Result<Strategy, String> {
        if text == "naive" {
            return Ok(Strategy::Naive);
        }
        if text == "auto" {
            return Ok(Strategy::Auto);
        }
        if let Some(k) = text.strip_prefix("fused:") {
            let k: u32 = k.parse().map_err(|e| format!("fused:<k>: {e}"))?;
            return Ok(Strategy::Fused { max_k: k });
        }
        if let Some(b) = text.strip_prefix("blocked:") {
            let b: u32 = b.parse().map_err(|e| format!("blocked:<b>: {e}"))?;
            return Ok(Strategy::Blocked { block_qubits: b });
        }
        if let Some(rest) = text.strip_prefix("planned:") {
            let (b, k) = rest
                .split_once(':')
                .ok_or_else(|| "planned takes two parameters: planned:<b>:<k>".to_string())?;
            let b: u32 = b.parse().map_err(|e| format!("planned:<b>: {e}"))?;
            let k: u32 = k.parse().map_err(|e| format!("planned:<k>: {e}"))?;
            return Ok(Strategy::Planned { block_qubits: b, max_k: k });
        }
        Err(format!(
            "unknown strategy `{text}` (valid: naive | fused:<k> | blocked:<b> | \
             planned:<b>:<k> | auto; every strategy also runs batched — set the batch \
             size separately, 1..={} members)",
            crate::batch::MAX_BATCH
        ))
    }
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Circuit and state widths differ.
    QubitMismatch { circuit: u32, state: u32 },
    /// A [`SimConfig`] that cannot be built (e.g. zero threads).
    InvalidConfig(String),
    /// Writing the configured trace output failed.
    TraceIo(String),
    /// An integrity sweep found unrecoverable damage.
    Integrity(IntegrityViolation),
    /// Saving or restoring a checkpoint failed.
    Checkpoint(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::QubitMismatch { circuit, state } => {
                write!(f, "circuit has {circuit} qubits but the state has {state}")
            }
            SimError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            SimError::TraceIo(why) => write!(f, "cannot write trace: {why}"),
            SimError::Integrity(v) => write!(f, "{v}"),
            SimError::Checkpoint(why) => write!(f, "checkpoint failure: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<IntegrityViolation> for SimError {
    fn from(v: IntegrityViolation) -> SimError {
        SimError::Integrity(v)
    }
}

/// What the resilience guard did during one run (absent when both
/// integrity sweeps and checkpointing are disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardReport {
    /// Integrity sweeps executed.
    pub sweeps_checked: u64,
    /// Drifted norms renormalized in place (`repair` mode).
    pub repairs: u64,
    /// Snapshots written.
    pub checkpoints: u64,
    /// Rollback-and-replay recoveries (`restore` mode).
    pub restores: u64,
}

/// What the executor loop should do after a guard sweep.
#[derive(Debug)]
enum GuardAction {
    /// Keep going with the next item.
    Continue,
    /// The state was rolled back to a snapshot taken after this many
    /// items; resume execution from there.
    Restored(usize),
}

/// Per-run resilience machinery: integrity sweeps on a cadence, periodic
/// snapshots, and rollback-and-replay recovery. Built only when the
/// configuration asks for it — a disabled guard is `None` all the way
/// down and the executors pay a single `Option` branch per item.
struct RunGuard {
    policy: IntegrityPolicy,
    ckpt: Option<(Checkpointer, usize)>,
    n_qubits: u32,
    replays_left: u32,
    report: GuardReport,
}

impl RunGuard {
    /// `Ok(None)` when neither integrity nor checkpointing is on.
    fn new(
        policy: &IntegrityPolicy,
        checkpoint: Option<&CheckpointConfig>,
        n_qubits: u32,
    ) -> Result<Option<RunGuard>, SimError> {
        if !policy.enabled() && checkpoint.is_none() {
            return Ok(None);
        }
        let ckpt = match checkpoint {
            Some(cfg) => {
                let ck = Checkpointer::new(&cfg.dir, "state", cfg.keep)
                    .map_err(|e| SimError::Checkpoint(e.to_string()))?;
                Some((ck, cfg.every))
            }
            None => None,
        };
        Ok(Some(RunGuard {
            policy: policy.clone(),
            ckpt,
            n_qubits,
            replays_left: checkpoint.map_or(0, |c| c.max_replays),
            report: GuardReport::default(),
        }))
    }

    /// Run the guard work due after executing item `i`: integrity sweep
    /// (with repair or rollback according to the policy), then a
    /// snapshot if the checkpoint cadence hits.
    fn after_item(&mut self, amps: &mut [C64], i: usize) -> Result<GuardAction, SimError> {
        if self.policy.due(i) {
            self.report.sweeps_checked += 1;
            match integrity::enforce(&self.policy, amps, i) {
                Ok(Outcome::Clean) => {}
                Ok(Outcome::Renormalized { .. }) => self.report.repairs += 1,
                Err(violation) => return self.try_restore(amps, violation),
            }
        }
        if let Some((ckpt, every)) = &self.ckpt {
            if (i + 1).is_multiple_of(*every) {
                let meta = ShardMeta { n_qubits: self.n_qubits, rank: 0, step: (i + 1) as u64 };
                ckpt.save(amps, &meta).map_err(|e| SimError::Checkpoint(e.to_string()))?;
                self.report.checkpoints += 1;
            }
        }
        Ok(GuardAction::Continue)
    }

    /// Roll back to the newest good snapshot (restore mode), or fail
    /// with the violation.
    fn try_restore(
        &mut self,
        amps: &mut [C64],
        violation: IntegrityViolation,
    ) -> Result<GuardAction, SimError> {
        if self.policy.mode != IntegrityMode::Restore || self.replays_left == 0 {
            return Err(violation.into());
        }
        let Some((ckpt, _)) = &self.ckpt else { return Err(violation.into()) };
        match ckpt.load_latest().map_err(|e| SimError::Checkpoint(e.to_string()))? {
            Some((saved, meta)) if saved.len() == amps.len() => {
                amps.copy_from_slice(&saved);
                self.replays_left -= 1;
                self.report.restores += 1;
                Ok(GuardAction::Restored(meta.step as usize))
            }
            _ => Err(violation.into()),
        }
    }
}

/// Execution report of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Measured wall time of the host execution.
    pub wall_seconds: f64,
    /// Gates in the source circuit.
    pub gates: usize,
    /// State sweeps actually executed (= gates for naive, fewer for
    /// fused/blocked).
    pub sweeps: usize,
    /// Name of the SIMD kernel backend that executed the sweeps
    /// (`"avx512"`, `"avx2"`, `"neon"`, or `"portable"`).
    pub backend: &'static str,
    /// A64FX-model prediction, when a chip model is attached.
    pub predicted: Option<ModelReport>,
    /// The full telemetry trace, when telemetry is enabled.
    pub trace: Option<Trace>,
    /// Resilience-guard activity, when integrity sweeps or
    /// checkpointing were enabled.
    pub guard: Option<GuardReport>,
}

/// The simulator engine.
#[derive(Clone)]
pub struct Simulator {
    pub(crate) strategy: Strategy,
    pub(crate) pool: Option<Arc<ThreadPool>>,
    pub(crate) sched: Schedule,
    pub(crate) chip: Option<(ChipParams, ExecConfig)>,
    backend: &'static KernelBackend,
    pub(crate) telemetry: TelemetryConfig,
    integrity: IntegrityPolicy,
    checkpoint: Option<CheckpointConfig>,
}

impl Simulator {
    /// Single-threaded, gate-by-gate, no model, telemetry off.
    pub fn new() -> Simulator {
        Simulator::from_config(SimConfig::default()).expect("the default configuration is valid")
    }

    /// Build an engine from a validated [`SimConfig`] — the primary
    /// construction path. Returns [`SimError::InvalidConfig`] rather
    /// than panicking on impossible configurations (zero threads, a
    /// fusion width outside 1..=5).
    pub fn from_config(config: SimConfig) -> Result<Simulator, SimError> {
        config.validate()?;
        let SimConfig {
            strategy,
            backend,
            pool,
            schedule,
            model,
            telemetry,
            integrity,
            checkpoint,
            // Batch size only matters to `BatchSimulator`; a single-run
            // engine built from a batched config is still valid (it is
            // how the conformance suite builds its reference runs).
            batch: _,
        } = config;
        let pool = match pool {
            // One thread is the calling thread: skip the pool entirely.
            PoolSpec::Serial | PoolSpec::Threads(1) => None,
            PoolSpec::Threads(n) => Some(Arc::new(ThreadPool::new(n))),
            PoolSpec::Shared(p) => Some(p),
        };
        Ok(Simulator {
            strategy,
            pool,
            sched: schedule,
            chip: model,
            backend: simd::backend_for(backend),
            telemetry,
            integrity,
            checkpoint,
        })
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The worksharing threads this engine runs with (1 when serial).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.num_threads())
    }

    /// The kernel backend this simulator will execute with.
    pub fn backend(&self) -> &'static KernelBackend {
        self.backend
    }

    /// Execute the unitary `circuit` on `state`: lower it under the
    /// configured strategy ([`lower`]) and interpret the resulting
    /// program, one sweep per op. Circuits holding measurements or
    /// classically-controlled gates go through
    /// [`run_measured`](Simulator::run_measured).
    pub fn run(&self, circuit: &Circuit, state: &mut StateVector) -> Result<RunReport, SimError> {
        if circuit.has_nonunitary() {
            return Err(SimError::InvalidConfig(
                "circuit contains measurement or classically-controlled ops; run it \
                 through `Simulator::run_measured` (unitary strategies cannot fuse or \
                 reorder across a collapse)"
                    .to_string(),
            ));
        }
        let (program, run) = self.interpret(circuit, state, 0, self.checkpoint.as_ref())?;
        Ok(RunReport {
            wall_seconds: run.wall_seconds,
            gates: run.gates,
            sweeps: run.sweeps,
            backend: run.backend,
            predicted: self.chip.as_ref().map(|(chip, cfg)| predict(chip, cfg, &program)),
            trace: run.trace,
            guard: run.guard,
        })
    }

    /// Execute a circuit that may contain [`Gate::Measure`] and
    /// [`Gate::Cif`] ops.
    ///
    /// [`lower`] treats every non-unitary op as a barrier: each maximal
    /// unitary run is lowered under the configured strategy on its own
    /// (no fusion or block pass crosses a collapse), the measurement
    /// itself draws from `StdRng::seed_from_u64(seed)` and collapses in
    /// two sweeps ([`crate::measure::measure_qubit`]), and
    /// classically-controlled gates consult the classical register
    /// accumulated so far.
    ///
    /// **RNG-stream contract:** all randomness comes from the one seeded
    /// stream, consumed in circuit order (one draw per `Measure`). The
    /// batched engine gives member `m` its own stream seeded with
    /// `seeds[m]`, so a batched member is bit-identical to a serial
    /// `run_measured` call with that seed.
    ///
    /// Checkpoint snapshots are not taken (a rollback cannot rewind the
    /// RNG stream across a collapse); integrity sweeps still run, on a
    /// cadence counted in program ops.
    ///
    /// [`Gate::Measure`]: crate::circuit::Gate::Measure
    /// [`Gate::Cif`]: crate::circuit::Gate::Cif
    pub fn run_measured(
        &self,
        circuit: &Circuit,
        state: &mut StateVector,
        seed: u64,
    ) -> Result<MeasuredReport, SimError> {
        Ok(self.interpret(circuit, state, seed, None)?.1)
    }

    /// The interpreter: lower `circuit`, then execute `program.ops` in
    /// order on `state`. Index-based, so a guard rollback can rewind to
    /// any op boundary and replay. Returns the program beside the
    /// measured report; `run` reports the part a unitary run has.
    fn interpret<'c>(
        &self,
        circuit: &'c Circuit,
        state: &mut StateVector,
        seed: u64,
        checkpoint: Option<&CheckpointConfig>,
    ) -> Result<(Program<'c>, MeasuredReport), SimError> {
        let n = circuit.n_qubits();
        if n != state.n_qubits() {
            return Err(SimError::QubitMismatch { circuit: n, state: state.n_qubits() });
        }
        let be = self.backend();
        // Telemetry setup stays outside the timed region; when disabled
        // the run pays exactly one `Option` branch per sweep.
        let tracer = self.telemetry.tracer(self.chip.as_ref(), n, self.threads()).map(Arc::new);
        if let (Some(t), Some(pool)) = (&tracer, &self.pool) {
            pool.set_observer(Some(t.clone() as Arc<dyn RegionObserver>));
        }
        let tr = tracer.as_deref();
        let mut guard = RunGuard::new(&self.integrity, checkpoint, n)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut outcomes: Vec<MeasurementResult> = Vec::new();
        let mut creg: u64 = 0;
        // Ops that were not state sweeps: collapses and untaken `Cif`s.
        let mut not_swept = 0usize;
        // `Auto` resolves before the clock starts: pricing the
        // candidate lowerings is not part of this run.
        let strategy = match self.strategy {
            Strategy::Auto => crate::calibrate::choose(circuit),
            s => s,
        };
        let start = Instant::now();
        let program = lower(circuit, strategy);
        // Built once, ahead of the spans; they survive a guard replay.
        let kernels = program.kernels();
        let mut i = 0;
        while i < program.ops.len() {
            let op = &program.ops[i];
            if matches!(op, SweepOp::Cif { mask, val, .. } if creg & mask != *val) {
                // Untaken: touches nothing, so no sweep, no span, and no
                // guard work is due.
                not_swept += 1;
                i += 1;
                continue;
            }
            let t0 = tr.map(|_| Instant::now());
            match op {
                SweepOp::Measure { q, creg: bit } => {
                    let r = measure_qubit(state, *q, &mut rng);
                    creg = (creg & !(1 << bit)) | ((r.outcome as u64) << bit);
                    outcomes.push(r);
                    not_swept += 1;
                }
                _ => kernels[i].as_ref().expect("every sweep op has a kernel").exec(
                    be,
                    self.pool.as_deref(),
                    self.sched,
                    state.amplitudes_mut(),
                ),
            }
            if let (Some(t), Some(t0)) = (tr, t0) {
                t.record_op(0, op, t0.elapsed().as_nanos() as u64);
            }
            i = advance(&mut guard, state.amplitudes_mut(), i)?;
        }
        let wall_seconds = start.elapsed().as_secs_f64();
        let trace = match tracer {
            Some(t) => Some(self.finish_trace(t, be, &program)?),
            None => None,
        };
        let report = MeasuredReport {
            wall_seconds,
            gates: circuit.len(),
            segments: program.segments(),
            sweeps: program.ops.len() - not_swept,
            outcomes,
            creg,
            backend: be.name,
            trace,
            guard: guard.map(|g| g.report),
        };
        Ok((program, report))
    }

    /// Detach the tracer from the pool, close it, and write the
    /// configured sink.
    fn finish_trace(
        &self,
        tracer: Arc<Tracer>,
        be: &KernelBackend,
        program: &Program,
    ) -> Result<Trace, SimError> {
        if let Some(pool) = &self.pool {
            pool.set_observer(None);
        }
        // Detaching the observer dropped the pool's clone; the
        // tracer is exclusively ours again.
        let t = Arc::try_unwrap(tracer)
            .unwrap_or_else(|_| unreachable!("tracer still shared after detach"));
        let meta = RunMeta {
            strategy: strategy_label(self.strategy, program.strategy),
            backend: be.name.to_string(),
            threads: self.threads() as u32,
            schedule: self.sched.to_string(),
            n_qubits: program.n_qubits,
            label: self.telemetry.label.clone(),
        };
        let trace = t.finish(meta);
        telemetry::write_configured(&self.telemetry, &trace)
            .map_err(|e| trace_io_error(&self.telemetry, e))?;
        Ok(trace)
    }
}

/// The strategy a trace header names: what actually ran. A configured
/// `auto` is written with its resolution (`auto=fused:4`), so a reader
/// of the trace sees which lowering ran without re-pricing it.
pub(crate) fn strategy_label(configured: Strategy, resolved: Strategy) -> String {
    match configured {
        Strategy::Auto => format!("auto={resolved}"),
        _ => resolved.to_string(),
    }
}

/// The error for a trace sink that could not be written.
pub(crate) fn trace_io_error(cfg: &TelemetryConfig, e: std::io::Error) -> SimError {
    SimError::TraceIo(match &cfg.trace_path {
        Some(p) => format!("{}: {e}", p.display()),
        None => e.to_string(),
    })
}

/// Report of one [`Simulator::run_measured`] execution.
#[derive(Debug, Clone)]
pub struct MeasuredReport {
    /// Measured wall time of the host execution.
    pub wall_seconds: f64,
    /// Gates (unitary + non-unitary) in the source circuit.
    pub gates: usize,
    /// Maximal unitary segments executed between collapse barriers.
    pub segments: usize,
    /// State sweeps across all unitary segments plus taken `Cif` gates
    /// (measurement collapse passes are not counted here).
    pub sweeps: usize,
    /// Every projective measurement, in circuit order.
    pub outcomes: Vec<crate::measure::MeasurementResult>,
    /// Final classical register: bit `creg` of each `Measure` holds its
    /// observed outcome.
    pub creg: u64,
    /// Name of the SIMD kernel backend that executed the sweeps.
    pub backend: &'static str,
    /// The full telemetry trace, when telemetry is enabled.
    pub trace: Option<Trace>,
    /// Resilience-guard activity, when integrity sweeps were enabled.
    pub guard: Option<GuardReport>,
}

/// Advance the executor index past item `i`, running any guard work
/// that is due; a guard rollback rewinds the index instead.
#[inline]
fn advance(guard: &mut Option<RunGuard>, amps: &mut [C64], i: usize) -> Result<usize, SimError> {
    match guard {
        None => Ok(i + 1),
        Some(g) => match g.after_item(amps, i)? {
            GuardAction::Continue => Ok(i + 1),
            GuardAction::Restored(step) => Ok(step),
        },
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new()
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("strategy", &self.strategy)
            .field("threads", &self.threads())
            .field("schedule", &self.sched)
            .field("model", &self.chip.as_ref().map(|(_, cfg)| cfg))
            .field("backend", &self.backend.name)
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Gate;
    use crate::kernels::simd::BackendChoice;
    use crate::library;
    use rand::rngs::StdRng;

    const EPS: f64 = 1e-10;

    fn random_init(n: u32, seed: u64) -> StateVector {
        let mut rng = StdRng::seed_from_u64(seed);
        StateVector::random(n, &mut rng)
    }

    #[test]
    fn quickstart_ghz() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut s = StateVector::zero(3);
        let report = Simulator::new().run(&c, &mut s).unwrap();
        assert_eq!(report.gates, 3);
        assert_eq!(report.sweeps, 3);
        assert!((s.probability(0) - 0.5).abs() < EPS);
        assert!((s.probability(7) - 0.5).abs() < EPS);
    }

    #[test]
    fn qubit_mismatch_rejected() {
        let c = Circuit::new(3);
        let mut s = StateVector::zero(4);
        let err = Simulator::new().run(&c, &mut s).unwrap_err();
        assert_eq!(err, SimError::QubitMismatch { circuit: 3, state: 4 });
        assert!(err.to_string().contains("3 qubits"));
    }

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::Naive,
            Strategy::Fused { max_k: 3 },
            Strategy::Fused { max_k: 5 },
            Strategy::Blocked { block_qubits: 4 },
            Strategy::Planned { block_qubits: 4, max_k: 3 },
            Strategy::Planned { block_qubits: 6, max_k: 4 },
            Strategy::Auto,
        ]
    }

    #[test]
    fn strategies_agree_on_random_circuits() {
        for seed in 0..3u64 {
            let c = library::random_circuit(7, 15, seed);
            let init = random_init(7, seed + 50);
            let mut reference = init.clone();
            Simulator::new().run(&c, &mut reference).unwrap();
            for strat in all_strategies() {
                let mut s = init.clone();
                SimConfig::new().strategy(strat).build().unwrap().run(&c, &mut s).unwrap();
                assert!(s.approx_eq(&reference, EPS), "{strat:?} seed={seed}");
            }
        }
    }

    #[test]
    fn strategies_agree_on_qft() {
        let c = library::qft(7);
        let init = random_init(7, 4);
        let mut reference = init.clone();
        Simulator::new().run(&c, &mut reference).unwrap();
        for strat in all_strategies() {
            let mut s = init.clone();
            SimConfig::new().strategy(strat).build().unwrap().run(&c, &mut s).unwrap();
            assert!(s.approx_eq(&reference, EPS), "{strat:?}");
        }
    }

    #[test]
    fn threaded_run_matches_serial() {
        let c = library::random_circuit(8, 12, 9);
        let init = random_init(8, 60);
        let mut serial = init.clone();
        Simulator::new().run(&c, &mut serial).unwrap();
        for threads in [2usize, 4, 8] {
            for sched in [Schedule::Static { chunk: None }, Schedule::Dynamic { chunk: 32 }] {
                let mut s = init.clone();
                SimConfig::new()
                    .threads(threads)
                    .schedule(sched)
                    .build()
                    .unwrap()
                    .run(&c, &mut s)
                    .unwrap();
                assert!(s.approx_eq(&serial, EPS), "threads={threads} sched={sched:?}");
            }
        }
    }

    #[test]
    fn threaded_fused_matches_serial() {
        let c = library::quantum_volume(7, 8);
        let init = random_init(7, 70);
        let mut serial = init.clone();
        Simulator::new().run(&c, &mut serial).unwrap();
        let mut s = init.clone();
        SimConfig::new()
            .strategy(Strategy::Fused { max_k: 4 })
            .threads(4)
            .build()
            .unwrap()
            .run(&c, &mut s)
            .unwrap();
        assert!(s.approx_eq(&serial, EPS));
    }

    #[test]
    fn fused_strategy_reduces_sweeps() {
        // Diagonal-heavy, so the cost table, which prices a merged
        // diagonal block as one diagonal sweep, merges it.
        let mut c = Circuit::new(8);
        for i in 0..15u32 {
            let q = i % 7;
            c.rz(q, 0.1).cp(q, q + 1, 0.2);
        }
        let strategy = Strategy::Fused { max_k: 4 };
        let lowered = lower(&c, strategy).ops.len();
        assert!(lowered < c.len(), "{lowered} !< {}", c.len());
        let mut s = StateVector::zero(8);
        let naive = Simulator::new().run(&c, &mut s).unwrap();
        let mut s = StateVector::zero(8);
        let fused = SimConfig::new().strategy(strategy).build().unwrap().run(&c, &mut s).unwrap();
        assert_eq!(fused.sweeps, lowered);
        assert!(fused.sweeps < naive.sweeps, "{} !< {}", fused.sweeps, naive.sweeps);
        assert_eq!(fused.gates, naive.gates);
    }

    #[test]
    fn blocked_strategy_reduces_sweeps_on_low_targets() {
        // All gates below the block width: everything lands in one run.
        let c = library::rotation_layers(10, 3, 0.2); // targets 0..9
        let mut s = StateVector::zero(10);
        let blocked = SimConfig::new()
            .strategy(Strategy::Blocked { block_qubits: 10 })
            .build()
            .unwrap()
            .run(&c, &mut s)
            .unwrap();
        assert_eq!(blocked.sweeps, 1);
    }

    #[test]
    fn planned_threaded_matches_serial() {
        let c = library::random_circuit(9, 60, 5);
        let mut reference = StateVector::zero(9);
        SimConfig::new()
            .strategy(Strategy::Planned { block_qubits: 5, max_k: 3 })
            .build()
            .unwrap()
            .run(&c, &mut reference)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let mut s = StateVector::zero(9);
            SimConfig::new()
                .strategy(Strategy::Planned { block_qubits: 5, max_k: 3 })
                .threads(threads)
                .build()
                .unwrap()
                .run(&c, &mut s)
                .unwrap();
            assert!(s.approx_eq(&reference, 1e-10), "threads={threads}");
        }
    }

    #[test]
    fn planned_model_report_attached() {
        let c = library::qft(6);
        let mut s = StateVector::zero(6);
        let report = SimConfig::new()
            .strategy(Strategy::Planned { block_qubits: 4, max_k: 3 })
            .model(ChipParams::a64fx(), ExecConfig::single_core())
            .build()
            .unwrap()
            .run(&c, &mut s)
            .unwrap();
        let predicted = report.predicted.expect("model attached");
        assert_eq!(predicted.sweeps, report.sweeps);
        assert!(predicted.seconds > 0.0);
    }

    #[test]
    fn model_report_attached_when_requested() {
        let c = library::qft(6);
        let mut s = StateVector::zero(6);
        // Naive pinned: the sweep-count assertion below is
        // strategy-dependent.
        let report = SimConfig::new()
            .strategy(Strategy::Naive)
            .model(ChipParams::a64fx(), ExecConfig::full_chip())
            .build()
            .unwrap()
            .run(&c, &mut s)
            .unwrap();
        let model = report.predicted.expect("model attached");
        assert!(model.seconds > 0.0);
        assert_eq!(model.sweeps, c.len());
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn model_report_absent_by_default() {
        let c = library::ghz(4);
        let mut s = StateVector::zero(4);
        let report = Simulator::new().run(&c, &mut s).unwrap();
        assert!(report.predicted.is_none());
    }

    #[test]
    fn config_covers_every_removed_builder_knob() {
        // The `with_*` forwarders are gone; `SimConfig` is the only way
        // to reach every knob they used to set, so pin that coverage.
        let sim = SimConfig::default()
            .strategy(Strategy::Fused { max_k: 3 })
            .threads(2)
            .schedule(Schedule::Dynamic { chunk: 32 })
            .backend(BackendChoice::Scalar)
            .model(ChipParams::a64fx(), ExecConfig::single_core())
            .build()
            .unwrap();
        let c = library::ghz(4);
        let mut s = StateVector::zero(4);
        let report = sim.run(&c, &mut s).unwrap();
        assert_eq!(sim.strategy(), Strategy::Fused { max_k: 3 });
        assert_eq!(sim.threads(), 2);
        assert!(report.predicted.is_some());
        assert!((s.probability(0) - 0.5).abs() < EPS);
    }

    #[test]
    fn traced_run_matches_untraced_state() {
        for strat in all_strategies() {
            let c = library::random_circuit(7, 20, 11);
            let init = random_init(7, 80);
            let mut plain = init.clone();
            let untraced = SimConfig::new().strategy(strat).build().unwrap();
            untraced.run(&c, &mut plain).unwrap();
            let mut traced_state = init.clone();
            let traced =
                SimConfig::new().strategy(strat).telemetry(TelemetryConfig::on()).build().unwrap();
            let report = traced.run(&c, &mut traced_state).unwrap();
            assert!(traced_state.approx_eq(&plain, EPS), "{strat:?}");
            let trace = report.trace.expect("telemetry enabled");
            assert_eq!(trace.spans.len(), report.sweeps, "{strat:?}");
            assert_eq!(trace.summary.spans, report.sweeps, "{strat:?}");
            assert!(trace.spans.iter().all(|sp| sp.bytes > 0), "{strat:?}");
        }
    }

    #[test]
    fn untraced_run_has_no_trace() {
        let c = library::ghz(4);
        let mut s = StateVector::zero(4);
        let report = Simulator::new().run(&c, &mut s).unwrap();
        assert!(report.trace.is_none());
    }

    #[test]
    fn traced_threaded_run_collects_busy_clocks() {
        let c = library::random_circuit(8, 10, 3);
        let mut s = StateVector::zero(8);
        // Naive pinned: the meta assertion below is strategy-dependent.
        let sim = SimConfig::new()
            .strategy(Strategy::Naive)
            .threads(4)
            .telemetry(TelemetryConfig::on().with_label("clocks"))
            .build()
            .unwrap();
        let report = sim.run(&c, &mut s).unwrap();
        let trace = report.trace.unwrap();
        assert_eq!(trace.meta.threads, 4);
        assert_eq!(trace.meta.label, "clocks");
        assert_eq!(trace.meta.strategy, "naive");
        assert_eq!(trace.summary.busy_ns_per_thread.len(), 4);
        // Every worksharing region ran: at least the master accumulated
        // busy time and chunks.
        assert!(trace.summary.busy_ns_per_thread.iter().sum::<u64>() > 0);
        assert!(trace.summary.chunks_per_thread.iter().sum::<u64>() > 0);
        assert!(trace.summary.busy_imbalance() >= 1.0);
        // The observer was uninstalled at run end.
        let mut s2 = StateVector::zero(8);
        SimConfig::new().threads(2).build().unwrap().run(&c, &mut s2).unwrap();
    }

    #[test]
    fn trace_jsonl_written_and_parseable() {
        let path = std::env::temp_dir().join("qcs_sim_trace_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let c = library::qft(6);
        let mut s = StateVector::zero(6);
        let sim = SimConfig::new()
            .strategy(Strategy::Fused { max_k: 3 })
            .telemetry(TelemetryConfig::off().with_output(&path).with_label("qft6"))
            .build()
            .unwrap();
        let report = sim.run(&c, &mut s).unwrap();
        let runs = crate::telemetry::sink::read_jsonl(&path).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].meta.label, "qft6");
        assert_eq!(runs[0].meta.strategy, "fused:3");
        assert_eq!(runs[0].spans.len(), report.sweeps);
        assert_eq!(runs[0].spans, report.trace.unwrap().spans);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn strategy_display_parse_round_trips() {
        for strat in all_strategies() {
            let text = strat.to_string();
            assert_eq!(text.parse::<Strategy>().unwrap(), strat, "{text}");
        }
        let err = "warp".parse::<Strategy>().unwrap_err();
        assert!(err.contains("unknown strategy"));
        assert!(err.contains("planned:<b>:<k>"), "{err}");
    }

    fn guard_tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qcs_sim_guard_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn integrity_check_run_matches_plain_run() {
        let c = library::random_circuit(7, 20, 21);
        let init = random_init(7, 90);
        let mut plain = init.clone();
        Simulator::new().run(&c, &mut plain).unwrap();
        for strat in all_strategies() {
            let mut s = init.clone();
            let report = SimConfig::new()
                .strategy(strat)
                .integrity_mode(crate::integrity::IntegrityMode::Check)
                .build()
                .unwrap()
                .run(&c, &mut s)
                .unwrap();
            assert!(s.approx_eq(&plain, EPS), "{strat:?}");
            let guard = report.guard.expect("integrity on");
            assert_eq!(guard.sweeps_checked as usize, report.sweeps, "{strat:?}");
            assert_eq!(guard.repairs, 0);
        }
    }

    #[test]
    fn guard_absent_when_disabled() {
        let c = library::ghz(4);
        let mut s = StateVector::zero(4);
        let report = Simulator::new().run(&c, &mut s).unwrap();
        assert!(report.guard.is_none());
    }

    #[test]
    fn checkpointed_run_writes_snapshots_and_matches() {
        let dir = guard_tmpdir("periodic");
        let c = library::qft(6);
        let mut plain = StateVector::zero(6);
        Simulator::new().run(&c, &mut plain).unwrap();
        let mut s = StateVector::zero(6);
        // Naive pinned: the checkpoint cadence below counts sweeps.
        let report = SimConfig::new()
            .strategy(Strategy::Naive)
            .checkpoint_every(5, &dir)
            .build()
            .unwrap()
            .run(&c, &mut s)
            .unwrap();
        assert!(s.approx_eq(&plain, EPS));
        let guard = report.guard.unwrap();
        assert_eq!(guard.checkpoints as usize, c.len() / 5);
        // The newest snapshot is a loadable shard at the right step.
        let ckpt = crate::checkpoint::Checkpointer::new(&dir, "state", 2).unwrap();
        let (amps, meta) = ckpt.load_latest().unwrap().expect("snapshots written");
        assert_eq!(meta.step as usize, (c.len() / 5) * 5);
        assert_eq!(amps.len(), 1 << 6);
    }

    #[test]
    fn restore_guard_rolls_back_corruption() {
        use crate::integrity::{IntegrityMode, IntegrityPolicy};
        let dir = guard_tmpdir("restore");
        let policy = IntegrityPolicy { mode: IntegrityMode::Restore, ..IntegrityPolicy::default() };
        let ck = CheckpointConfig::new(1, &dir);
        let mut guard = RunGuard::new(&policy, Some(&ck), 3).unwrap().unwrap();
        let mut amps = vec![C64::new(0.0, 0.0); 8];
        amps[0] = C64::new(1.0, 0.0);
        let good = amps.clone();
        // Item 0 executes cleanly: sweep passes, snapshot taken.
        assert!(matches!(guard.after_item(&mut amps, 0), Ok(GuardAction::Continue)));
        // Item 1 corrupts the state: the guard restores the snapshot and
        // rewinds to step 1.
        amps[2] = C64::new(f64::NAN, 0.0);
        match guard.after_item(&mut amps, 1) {
            Ok(GuardAction::Restored(step)) => assert_eq!(step, 1),
            other => panic!("expected a restore, got {other:?}"),
        }
        for (a, b) in amps.iter().zip(&good) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
        }
        assert_eq!(guard.report.restores, 1);
        // Replay budget is finite: exhaust it and the violation surfaces.
        for _ in 0..ck.max_replays {
            amps[2] = C64::new(f64::NAN, 0.0);
            let _ = guard.after_item(&mut amps, 1);
        }
        amps[2] = C64::new(f64::NAN, 0.0);
        assert!(matches!(guard.after_item(&mut amps, 1), Err(SimError::Integrity(_))));
    }

    #[test]
    fn repair_guard_renormalizes_in_place() {
        use crate::integrity::{IntegrityMode, IntegrityPolicy};
        let policy = IntegrityPolicy { mode: IntegrityMode::Repair, ..IntegrityPolicy::default() };
        let mut guard = RunGuard::new(&policy, None, 3).unwrap().unwrap();
        let mut amps = vec![C64::new(0.0, 0.0); 8];
        amps[0] = C64::new(2.0, 0.0); // norm² = 4
        assert!(matches!(guard.after_item(&mut amps, 0), Ok(GuardAction::Continue)));
        assert_eq!(guard.report.repairs, 1);
        assert!((amps[0].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_rejects_nonunitary_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        let mut s = StateVector::zero(2);
        let err = Simulator::new().run(&c, &mut s).unwrap_err();
        assert!(err.to_string().contains("run_measured"), "{err}");
    }

    #[test]
    fn run_measured_on_unitary_circuit_matches_run() {
        let c = library::qft(5);
        let init = random_init(5, 33);
        let mut plain = init.clone();
        Simulator::new().run(&c, &mut plain).unwrap();
        for strat in all_strategies() {
            let mut s = init.clone();
            let report = SimConfig::new()
                .strategy(strat)
                .build()
                .unwrap()
                .run_measured(&c, &mut s, 1)
                .unwrap();
            assert!(s.approx_eq(&plain, EPS), "{strat:?}");
            assert_eq!(report.segments, 1);
            assert!(report.outcomes.is_empty());
            assert_eq!(report.creg, 0);
        }
    }

    #[test]
    fn measured_run_collapses_and_fills_creg() {
        // GHZ then measure qubit 0: qubits 1,2 must agree with the
        // observed bit, and the creg records it.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure(0, 0);
        for seed in 0..20u64 {
            let mut s = StateVector::zero(3);
            let report = Simulator::new().run_measured(&c, &mut s, seed).unwrap();
            assert_eq!(report.outcomes.len(), 1);
            let bit = report.outcomes[0].outcome;
            assert_eq!(report.creg, bit as u64);
            let expect = if bit == 1 { 0b111 } else { 0b000 };
            assert!((s.probability(expect) - 1.0).abs() < EPS, "seed {seed}");
        }
    }

    #[test]
    fn cif_consults_the_classical_register() {
        // Active teleport-style correction: measure q0, X on q1 iff 1.
        // Afterwards q1 is deterministically |0⟩... flipped to match.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure(0, 0);
        c.cif_bit(0, 1, Gate::X(1));
        for seed in 0..20u64 {
            let mut s = StateVector::zero(2);
            let report = Simulator::new().run_measured(&c, &mut s, seed).unwrap();
            let bit = report.outcomes[0].outcome as usize;
            // Bell + measure: q1 == q0; the conditional X undoes a 1.
            let expect = bit; // q0 stays `bit`, q1 flipped back to 0
            assert!((s.probability(expect) - 1.0).abs() < EPS, "seed {seed}");
        }
    }

    #[test]
    fn measured_run_strategies_agree_per_seed() {
        // Strategy changes lowering of unitary segments only; the RNG
        // stream (one draw per measure, in order) is identical, so all
        // strategies observe the same outcomes and final state.
        let mut c = Circuit::new(5);
        for g in library::random_circuit(5, 12, 3).gates() {
            c.push(g.clone());
        }
        c.measure(2, 0);
        for g in library::random_circuit(5, 8, 4).gates() {
            c.push(g.clone());
        }
        c.cif_bit(0, 1, Gate::Z(0));
        c.measure(4, 1);
        let mut reference = StateVector::zero(5);
        let ref_report = Simulator::new().run_measured(&c, &mut reference, 9).unwrap();
        assert_eq!(ref_report.segments, 2);
        for strat in all_strategies() {
            let mut s = StateVector::zero(5);
            let report = SimConfig::new()
                .strategy(strat)
                .build()
                .unwrap()
                .run_measured(&c, &mut s, 9)
                .unwrap();
            assert_eq!(report.creg, ref_report.creg, "{strat:?}");
            assert_eq!(report.outcomes, ref_report.outcomes, "{strat:?}");
            assert!(s.approx_eq(&reference, EPS), "{strat:?}");
        }
    }

    #[test]
    fn measured_run_records_measure_spans() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let mut s = StateVector::zero(3);
        let sim = SimConfig::new().telemetry(TelemetryConfig::on()).build().unwrap();
        let report = sim.run_measured(&c, &mut s, 5).unwrap();
        let trace = report.trace.expect("telemetry enabled");
        let measures =
            trace.spans.iter().filter(|sp| matches!(sp.kind, telemetry::SpanKind::Measure)).count();
        assert_eq!(measures, 2);
    }

    #[test]
    fn grover_runs_through_engine() {
        let c = library::grover(4, 9);
        let mut s = StateVector::zero(4);
        SimConfig::new()
            .strategy(Strategy::Fused { max_k: 4 })
            .build()
            .unwrap()
            .run(&c, &mut s)
            .unwrap();
        let argmax =
            (0..16).max_by(|&a, &b| s.probability(a).total_cmp(&s.probability(b))).unwrap();
        assert_eq!(argmax, 9);
    }
}
