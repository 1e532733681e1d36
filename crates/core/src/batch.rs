//! Batched multi-circuit execution.
//!
//! A [`BatchSimulator`] owns nothing between calls. Every batched call
//! runs one schedule, *member-major*: one worksharing region over the
//! members, and a worker runs **every** op of a member's program on that
//! member before it claims the next one. A member that fits a core's
//! L2 is fetched once and stays there for its whole program — the
//! cache-resident plateau of the paper's target-qubit analysis (E1),
//! kept along the batch axis the way mpiQulacs keeps a rank's working
//! set resident across consecutive local gates — and the batch pays one
//! region, not one per op. What the members of
//! [`run`](BatchSimulator::run) share is the lowering: the circuit is
//! lowered once ([`lower`]) and its kernels are built once.
//!
//! A member is executed by the *serial* kernel path a single-threaded
//! [`Simulator`] uses (the same `program::Kernel` sits behind both
//! interpreters); worksharing only decides which thread owns which
//! member. Batched results are therefore bit-identical to running the
//! members one after another, for every strategy × backend × schedule ×
//! thread count — the property the differential-conformance suite pins
//! down. The price of the one schedule: a batch with fewer members than
//! threads leaves threads idle (a lone wide state belongs in
//! [`Simulator`], which workshares inside the sweep).
//!
//! Trajectory sampling rides the same schedule:
//! [`BatchSimulator::run_trajectories`] runs one noisy trajectory per
//! member, each with its own seeded RNG, in a single batched call.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calibrate::Calibration;
use crate::circuit::Circuit;
use crate::config::SimConfig;
use crate::kernels::simd::KernelBackend;
use crate::measure::{measure_qubit, MeasurementResult};
use crate::noise::{run_trajectory, NoiseChannel};
use crate::perf::{predict_batched, BatchPrediction};
use crate::program::{lower, Kernel, Program, SweepOp};
use crate::sim::{strategy_label, trace_io_error, SimError, Simulator, Strategy};
use crate::state::StateVector;
use crate::telemetry::{self, RunMeta, Trace};

/// Most members one batched call accepts. Far above any host memory
/// budget for interesting widths; the cap exists so configuration
/// errors (e.g. passing an amplitude count as a batch size) fail with a
/// message instead of an allocation storm.
pub const MAX_BATCH: usize = 4096;

/// Process-wide batch identity; tags every per-member trace so one
/// JSONL sink can hold many batched runs.
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

fn next_batch_id() -> u64 {
    NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed)
}

/// A raw pointer to row `i` of a table the region shares (member
/// states, result slots, per-thread scratch), `Copy` so the worksharing
/// closure can capture it.
///
/// Disjointness contract: a member row is touched only by the worker
/// that claimed the member, a thread row only by that thread, and the
/// region barrier in [`BatchSimulator::for_each_member`] orders every
/// write before the caller reads the tables again.
struct RowPtr<T>(*mut T);

impl<T> Clone for RowPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RowPtr<T> {}

// SAFETY: each row is handed to exactly one thread of the region, so no
// two threads alias the same element; that thread mutates (and may
// drop) the row's `T`, hence `T: Send`.
unsafe impl<T: Send> Send for RowPtr<T> {}
unsafe impl<T: Send> Sync for RowPtr<T> {}

impl<T> RowPtr<T> {
    /// # Safety
    /// `i` must be in bounds and exclusively owned by the calling thread.
    #[inline(always)]
    unsafe fn at<'r>(self, i: usize) -> &'r mut T {
        &mut *self.0.add(i)
    }
}

/// Report of one batched execution.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Process-unique id of this batched call (also tagged into every
    /// member's trace label).
    pub batch_id: u64,
    /// Wall time of the whole batch, planning included.
    pub wall_seconds: f64,
    /// Member states executed.
    pub members: usize,
    /// Gates in the source circuit.
    pub gates: usize,
    /// Sweeps executed *per member* (= the single-run sweep count;
    /// member 0's when every member runs its own circuit).
    pub sweeps: usize,
    /// Kernel backend name.
    pub backend: &'static str,
    /// Measured throughput: `members / wall_seconds`.
    pub circuits_per_sec: f64,
    /// A64FX-model prediction of this schedule against the gate-major
    /// one, when a chip model is attached.
    pub predicted: Option<BatchPrediction>,
    /// One telemetry trace per member, when telemetry is enabled.
    pub traces: Vec<Trace>,
}

/// Result of one batched measured ([`BatchSimulator::run_measured`])
/// execution.
#[derive(Debug, Clone)]
pub struct MeasuredBatch {
    /// Process-unique id of this batched call.
    pub batch_id: u64,
    /// Wall time of the whole batch.
    pub wall_seconds: f64,
    /// Per-member measurement records, in circuit order.
    pub outcomes: Vec<Vec<MeasurementResult>>,
    /// Per-member final classical registers.
    pub cregs: Vec<u64>,
}

/// Result of one batched trajectory-sampling call.
#[derive(Debug, Clone)]
pub struct TrajectoryBatch {
    /// Process-unique id of this batched call.
    pub batch_id: u64,
    /// Wall time of the whole batch.
    pub wall_seconds: f64,
    /// Final state of each trajectory, member-major.
    pub states: Vec<StateVector>,
    /// Stochastic error events injected into each trajectory.
    pub errors: Vec<usize>,
}

/// Where the member states of one batched call live.
enum Members<'s> {
    /// The caller's states, member `m` in row `m`.
    Given(&'s mut [StateVector]),
    /// `count` members that each start from `|0…0⟩`, run in one scratch
    /// state per worker: a member's state exists only while its worker
    /// runs it, so the call's footprint is `threads` states, not `count`.
    Scratch { count: usize, n_qubits: u32 },
}

impl Members<'_> {
    fn len(&self) -> usize {
        match self {
            Members::Given(states) => states.len(),
            Members::Scratch { count, .. } => *count,
        }
    }

    /// The size and width limits every batched entry point enforces.
    fn check(&self, n_qubits: u32) -> Result<(), SimError> {
        if self.len() > MAX_BATCH {
            return Err(SimError::InvalidConfig(format!(
                "batch of {} members exceeds the limit of {MAX_BATCH}",
                self.len()
            )));
        }
        let Members::Given(states) = self else { return Ok(()) };
        match states.iter().find(|s| s.n_qubits() != n_qubits) {
            Some(s) => Err(SimError::QubitMismatch { circuit: n_qubits, state: s.n_qubits() }),
            None => Ok(()),
        }
    }
}

/// What one member's run leaves behind beside its state.
struct MemberRun {
    /// Ops of the member's program (= sweeps of a unitary run).
    sweeps: usize,
    creg: u64,
    outcomes: Vec<MeasurementResult>,
    trace: Option<Trace>,
}

/// One finished region: what every entry point builds its result from.
struct Executed {
    batch_id: u64,
    wall_seconds: f64,
    runs: Vec<MemberRun>,
}

/// The batched execution engine.
///
/// Configured through [`SimConfig`] like the single-run engine; the
/// extra knob is [`SimConfig::batch`](SimConfig::batch), which sizes
/// [`run_fresh`](BatchSimulator::run_fresh). Per-run resilience state
/// (integrity sweeps, checkpointing) is rejected at construction —
/// those are single-trajectory features.
#[derive(Clone)]
pub struct BatchSimulator {
    /// Strategy, pool, schedule, model, backend and telemetry resolve
    /// exactly as for the single-run engine.
    engine: Simulator,
    default_batch: usize,
}

impl BatchSimulator {
    /// Single-threaded, gate-by-gate, batch size 1, telemetry off.
    pub fn new() -> BatchSimulator {
        BatchSimulator { engine: Simulator::new(), default_batch: 1 }
    }

    /// Build a batched engine from a validated [`SimConfig`].
    ///
    /// Integrity sweeps and checkpointing are per-run rollback state
    /// the batch engine does not carry per member; configs enabling
    /// them are rejected with [`SimError::InvalidConfig`].
    pub fn from_config(config: SimConfig) -> Result<BatchSimulator, SimError> {
        if config.integrity.enabled() {
            return Err(SimError::InvalidConfig(
                "integrity sweeps are per-run rollback state and do not compose with \
                 batched execution; run members through `Simulator` individually"
                    .to_string(),
            ));
        }
        if config.checkpoint.is_some() {
            return Err(SimError::InvalidConfig(
                "checkpointing is per-run rollback state and does not compose with \
                 batched execution; run members through `Simulator` individually"
                    .to_string(),
            ));
        }
        let default_batch = config.batch;
        Ok(BatchSimulator { engine: Simulator::from_config(config)?, default_batch })
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.engine.strategy
    }

    /// Worksharing threads (1 when serial).
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The batch size [`run_fresh`](BatchSimulator::run_fresh) uses.
    pub fn batch_size(&self) -> usize {
        self.default_batch
    }

    /// The kernel backend this engine executes with.
    pub fn backend(&self) -> &'static KernelBackend {
        self.engine.backend()
    }

    /// Execute `circuit` on every member of `states`: lowered once,
    /// kernels built once, then each member runs the whole program.
    ///
    /// Results are bit-identical to running each member through a
    /// *serial* single-run [`Simulator`] with the same strategy and
    /// backend — regardless of this engine's thread count, because a
    /// member is only ever touched by the one worker that claimed it.
    pub fn run(
        &self,
        circuit: &Circuit,
        states: &mut [StateVector],
    ) -> Result<BatchReport, SimError> {
        if states.is_empty() {
            return Err(SimError::InvalidConfig(
                "batch needs at least 1 member state (got an empty batch)".to_string(),
            ));
        }
        if circuit.has_nonunitary() {
            return Err(SimError::InvalidConfig(
                "circuit contains measurement or classically-controlled ops; use \
                 `BatchSimulator::run_measured` (per-member RNG streams)"
                    .to_string(),
            ));
        }
        let (program, done) = self.run_shared(circuit, states, None)?;
        let model = self.engine.chip.as_ref();
        let predicted =
            model.map(|(chip, cfg)| predict_batched(chip, cfg, &program, done.runs.len()));
        self.report(done, circuit.len(), predicted)
    }

    /// Run `circuit` on [`batch_size`](BatchSimulator::batch_size)
    /// fresh `|0…0⟩` members; returns the final states with the report.
    pub fn run_fresh(
        &self,
        circuit: &Circuit,
    ) -> Result<(Vec<StateVector>, BatchReport), SimError> {
        let mut states: Vec<StateVector> =
            (0..self.default_batch).map(|_| StateVector::zero(circuit.n_qubits())).collect();
        let report = self.run(circuit, &mut states)?;
        Ok((states, report))
    }

    /// Execute one circuit *per member*: member `m` runs all of
    /// `circuits[m]`, lowered under the engine's strategy by the worker
    /// that claims it. Circuits must be same-shaped — equal width and
    /// equal gate count — which is exactly what a parameter sweep of one
    /// parameterized circuit produces ([`crate::variational`]).
    ///
    /// Member `m`'s final state is bit-identical to running
    /// `circuits[m]` through a serial [`Simulator`] with this engine's
    /// strategy and backend, and [`BatchReport::sweeps`] is that run's
    /// sweep count (member 0's).
    pub fn run_sweep(
        &self,
        circuits: &[Circuit],
        states: &mut [StateVector],
    ) -> Result<BatchReport, SimError> {
        Ok(self.sweep(circuits, Members::Given(states), |_, _| ())?.1)
    }

    /// [`run_sweep`](BatchSimulator::run_sweep) from `|0…0⟩` without
    /// keeping the states: each worker owns one scratch state for the
    /// call, re-zeroes it per member, runs the member's circuit and
    /// hands the final state to `read(m, state)` while it is still in
    /// cache. Returns what `read` returned, in member order — for every
    /// member the value `run_sweep` followed by `read` on its state
    /// gives, bit for bit — while the call holds `threads` states
    /// instead of one per member.
    pub fn sweep_map<R: Send>(
        &self,
        circuits: &[Circuit],
        read: impl Fn(usize, &StateVector) -> R + Sync,
    ) -> Result<(Vec<R>, BatchReport), SimError> {
        let n_qubits = circuits.first().map_or(0, Circuit::n_qubits);
        self.sweep(circuits, Members::Scratch { count: circuits.len(), n_qubits }, read)
    }

    /// Both sweep entry points: validate, then one region in which each
    /// member lowers and runs its own circuit and is `read`.
    fn sweep<R: Send>(
        &self,
        circuits: &[Circuit],
        members: Members,
        read: impl Fn(usize, &StateVector) -> R + Sync,
    ) -> Result<(Vec<R>, BatchReport), SimError> {
        if circuits.is_empty() || circuits.len() != members.len() {
            return Err(SimError::InvalidConfig(format!(
                "sweep needs one circuit per member state (got {} circuits, {} states)",
                circuits.len(),
                members.len()
            )));
        }
        let n = circuits[0].n_qubits();
        let gate_count = circuits[0].len();
        for c in circuits {
            if c.n_qubits() != n || c.len() != gate_count {
                return Err(SimError::InvalidConfig(format!(
                    "sweep circuits must be same-shaped: expected {n} qubits × {gate_count} \
                     gates, got {} × {}",
                    c.n_qubits(),
                    c.len()
                )));
            }
            if c.has_nonunitary() {
                return Err(SimError::InvalidConfig(
                    "sweep circuits must be unitary; mid-circuit measurement runs \
                     through `BatchSimulator::run_measured`"
                        .to_string(),
                ));
            }
        }
        members.check(n)?;
        let strategy = self.engine.strategy;
        if !matches!(strategy, Strategy::Naive | Strategy::Blocked { .. }) {
            // The one-time startup calibration is a timing measurement:
            // take it here, not in a worker beside running members.
            Calibration::get();
        }
        let batch_id = next_batch_id();
        let start = Instant::now();
        let (runs, values) = self
            .for_each_member(members, |m, state| {
                let program = lower(&circuits[m], strategy, None);
                let run = self.run_member(&program, &program.kernels(), state, None, (batch_id, m));
                (run, read(m, state))
            })
            .into_iter()
            .unzip();
        let done = Executed { batch_id, wall_seconds: start.elapsed().as_secs_f64(), runs };
        // Member 0's program stands for the shape in the model.
        let predicted = self.engine.chip.as_ref().map(|(chip, cfg)| {
            predict_batched(chip, cfg, &lower(&circuits[0], strategy, None), circuits.len())
        });
        Ok((values, self.report(done, gate_count, predicted)?))
    }

    /// Execute one circuit containing [`Gate::Measure`] /
    /// [`Gate::Cif`] ops on every member, with **per-member RNG
    /// streams**: member `m` draws from
    /// `StdRng::seed_from_u64(seeds[m])`, one draw per `Measure`, in
    /// circuit order.
    ///
    /// Every member therefore produces the bit-identical state,
    /// outcome list, and classical register a serial
    /// [`Simulator::run_measured`](crate::sim::Simulator::run_measured)
    /// call with the same strategy and seed produces — regardless of
    /// this engine's thread count. The unitary runs between collapses
    /// are lowered once and shared by every member, exactly as in
    /// [`run`](BatchSimulator::run).
    ///
    /// [`Gate::Measure`]: crate::circuit::Gate::Measure
    /// [`Gate::Cif`]: crate::circuit::Gate::Cif
    pub fn run_measured(
        &self,
        circuit: &Circuit,
        states: &mut [StateVector],
        seeds: &[u64],
    ) -> Result<MeasuredBatch, SimError> {
        if states.is_empty() || seeds.len() != states.len() {
            return Err(SimError::InvalidConfig(format!(
                "measured batch needs one seed per member state (got {} seeds, {} states)",
                seeds.len(),
                states.len()
            )));
        }
        let Executed { batch_id, wall_seconds, runs } =
            self.run_shared(circuit, states, Some(seeds))?.1;
        let (outcomes, cregs) = runs.into_iter().map(|r| (r.outcomes, r.creg)).unzip();
        Ok(MeasuredBatch { batch_id, wall_seconds, outcomes, cregs })
    }

    /// `run` and `run_measured`: lower `circuit` and build its kernels
    /// once, then one region in which every member runs that program.
    /// `seeds` (one per member) start the RNG streams of a measured run.
    fn run_shared<'c>(
        &self,
        circuit: &'c Circuit,
        states: &mut [StateVector],
        seeds: Option<&[u64]>,
    ) -> Result<(Program<'c>, Executed), SimError> {
        let members = Members::Given(states);
        members.check(circuit.n_qubits())?;
        let batch_id = next_batch_id();
        let start = Instant::now();
        let program = lower(circuit, self.engine.strategy, None);
        let runs = {
            let kernels = program.kernels();
            self.for_each_member(members, |m, state| {
                self.run_member(&program, &kernels, state, seeds.map(|s| s[m]), (batch_id, m))
            })
        };
        let done = Executed { batch_id, wall_seconds: start.elapsed().as_secs_f64(), runs };
        Ok((program, done))
    }

    /// The schedule, and the only place a batched call opens a
    /// worksharing region: one region over the members, `body(m, state)`
    /// once per member on the worker that claimed it (inline on the
    /// caller without a pool), results returned in member order.
    fn for_each_member<R: Send>(
        &self,
        members: Members,
        body: impl Fn(usize, &mut StateVector) -> R + Sync,
    ) -> Vec<R> {
        let (count, given, n_qubits) = match members {
            Members::Given(states) => (states.len(), Some(RowPtr(states.as_mut_ptr())), 0),
            Members::Scratch { count, n_qubits } => (count, None, n_qubits),
        };
        let mut results: Vec<Option<R>> = (0..count).map(|_| None).collect();
        let mut scratch: Vec<Option<StateVector>> = vec![None; self.threads()];
        let (results_ptr, scratch_ptr) =
            (RowPtr(results.as_mut_ptr()), RowPtr(scratch.as_mut_ptr()));
        let claim = |thread: usize, claimed: Range<usize>| {
            for m in claimed {
                // SAFETY: worksharing hands member `m` — its state row
                // and its result slot — to exactly this worker, scratch
                // row `thread` belongs to this thread, and the region
                // barrier orders every write before the reads below.
                let state = match given {
                    Some(rows) => unsafe { rows.at(m) },
                    None => {
                        // Allocated by the worker that uses it, on its
                        // first member; re-zeroed for every member.
                        let state = unsafe { scratch_ptr.at(thread) }
                            .get_or_insert_with(|| StateVector::zero(n_qubits));
                        state.reset();
                        state
                    }
                };
                *unsafe { results_ptr.at(m) } = Some(body(m, state));
            }
        };
        match self.engine.pool.as_deref() {
            Some(pool) => pool.parallel_for_indexed(0..count, self.engine.sched, claim),
            None => claim(0, 0..count),
        }
        results.into_iter().map(|r| r.expect("the region runs every member")).collect()
    }

    /// One member's whole program on the calling worker: every op in
    /// order through the serial kernel path, with the member's RNG
    /// stream, classical register, outcome list and tracer as locals.
    /// `seed` starts the stream `Measure` ops draw from; a run without
    /// one is unitary, and is the kind that is traced (one trace per
    /// member, a drop-in for the single-run trace of the same circuit).
    fn run_member(
        &self,
        program: &Program,
        kernels: &[Option<Kernel>],
        state: &mut StateVector,
        seed: Option<u64>,
        (batch_id, member): (u64, usize),
    ) -> MemberRun {
        let (be, sched) = (self.backend(), self.engine.sched);
        let n_qubits = program.n_qubits;
        let tracer = match seed {
            None => {
                self.engine.telemetry.tracer(self.engine.chip.as_ref(), n_qubits, self.threads())
            }
            Some(_) => None,
        };
        let mut rng = StdRng::seed_from_u64(seed.unwrap_or(0));
        let mut creg = 0u64;
        let mut outcomes = Vec::new();
        for (op, kernel) in program.ops.iter().zip(kernels) {
            match (op, kernel) {
                (SweepOp::Measure { q, creg: bit }, _) => {
                    let r = measure_qubit(state, *q, &mut rng);
                    creg = (creg & !(1 << bit)) | ((r.outcome as u64) << bit);
                    outcomes.push(r);
                }
                (SweepOp::Cif { mask, val, .. }, _) if creg & mask != *val => {}
                (_, None) => unreachable!("every sweep op has a kernel"),
                (_, Some(kernel)) => match &tracer {
                    Some(t) => {
                        let t0 = Instant::now();
                        kernel.exec(be, None, sched, state.amplitudes_mut());
                        t.record_op(0, op, t0.elapsed().as_nanos() as u64);
                    }
                    None => kernel.exec(be, None, sched, state.amplitudes_mut()),
                },
            }
        }
        let trace = tracer.map(|t| {
            t.finish(RunMeta {
                strategy: strategy_label(self.engine.strategy, program.strategy),
                backend: be.name.to_string(),
                threads: self.threads() as u32,
                schedule: sched.to_string(),
                n_qubits,
                label: member_label(&self.engine.telemetry.label, batch_id, member),
            })
        });
        MemberRun { sweeps: program.ops.len(), creg, outcomes, trace }
    }

    /// Write the members' traces to the configured sink and assemble
    /// the report.
    fn report(
        &self,
        done: Executed,
        gates: usize,
        predicted: Option<BatchPrediction>,
    ) -> Result<BatchReport, SimError> {
        let Executed { batch_id, wall_seconds, runs } = done;
        let members = runs.len();
        let sweeps = runs[0].sweeps;
        let traces: Vec<Trace> = runs.into_iter().filter_map(|r| r.trace).collect();
        for (m, trace) in traces.iter().enumerate() {
            // Member 0 honors the configured truncate/append choice;
            // later members append, so one batched run lands in the
            // JSONL sink as one contiguous group.
            let sink_cfg = if m == 0 {
                self.engine.telemetry.clone()
            } else {
                self.engine.telemetry.clone().appending(true)
            };
            telemetry::write_configured(&sink_cfg, trace)
                .map_err(|e| trace_io_error(&self.engine.telemetry, e))?;
        }
        Ok(BatchReport {
            batch_id,
            wall_seconds,
            members,
            gates,
            sweeps,
            backend: self.backend().name,
            circuits_per_sec: if wall_seconds > 0.0 { members as f64 / wall_seconds } else { 0.0 },
            predicted,
            traces,
        })
    }

    /// Sample one noisy trajectory per seed, batched: member `m` starts
    /// from `|0…0⟩`, draws from `StdRng::seed_from_u64(seeds[m])`, and
    /// produces exactly the state and error count a sequential
    /// [`run_trajectory`] call with the same seed produces on this
    /// engine's [`backend`](BatchSimulator::backend).
    pub fn run_trajectories(
        &self,
        circuit: &Circuit,
        channel: NoiseChannel,
        seeds: &[u64],
    ) -> Result<TrajectoryBatch, SimError> {
        let members: Vec<(NoiseChannel, u64)> = seeds.iter().map(|&s| (channel, s)).collect();
        self.run_trajectories_mixed(circuit, &members)
    }

    /// Trajectory sampling with a per-member `(channel, seed)` pair —
    /// one batched call can mix noise models.
    pub fn run_trajectories_mixed(
        &self,
        circuit: &Circuit,
        members: &[(NoiseChannel, u64)],
    ) -> Result<TrajectoryBatch, SimError> {
        if members.is_empty() {
            return Err(SimError::InvalidConfig(
                "batch needs at least 1 trajectory seed (got an empty batch)".to_string(),
            ));
        }
        if members.len() > MAX_BATCH {
            return Err(SimError::InvalidConfig(format!(
                "batch of {} trajectories exceeds the limit of {MAX_BATCH}",
                members.len()
            )));
        }
        if circuit.has_nonunitary() {
            return Err(SimError::InvalidConfig(
                "trajectory circuits must be unitary; mid-circuit measurement runs \
                 through `BatchSimulator::run_measured`"
                    .to_string(),
            ));
        }
        let batch_id = next_batch_id();
        let start = Instant::now();
        let mut states: Vec<StateVector> =
            members.iter().map(|_| StateVector::zero(circuit.n_qubits())).collect();
        let errors = self.for_each_member(Members::Given(&mut states), |m, state| {
            let (channel, seed) = members[m];
            let mut rng = StdRng::seed_from_u64(seed);
            run_trajectory(self.backend(), circuit, state, channel, &mut rng)
        });
        Ok(TrajectoryBatch {
            batch_id,
            wall_seconds: start.elapsed().as_secs_f64(),
            states,
            errors,
        })
    }
}

impl Default for BatchSimulator {
    fn default() -> Self {
        BatchSimulator::new()
    }
}

impl std::fmt::Debug for BatchSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSimulator")
            .field("strategy", &self.engine.strategy)
            .field("threads", &self.threads())
            .field("schedule", &self.engine.sched)
            .field("batch", &self.default_batch)
            .finish_non_exhaustive()
    }
}

/// Trace label for one member: `[<base>/]batch=<id>/member=<m>`.
fn member_label(base: &str, batch_id: u64, member: usize) -> String {
    if base.is_empty() {
        format!("batch={batch_id}/member={member}")
    } else {
        format!("{base}/batch={batch_id}/member={member}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryConfig;
    use crate::testing::random_circuit_seeded;
    use a64fx_model::timing::ExecConfig;
    use a64fx_model::ChipParams;
    use rand::Rng;

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::Naive,
            Strategy::Fused { max_k: 3 },
            Strategy::Blocked { block_qubits: 3 },
            Strategy::Planned { block_qubits: 3, max_k: 3 },
        ]
    }

    fn random_members(n: u32, count: usize, seed: u64) -> Vec<StateVector> {
        (0..count)
            .map(|m| {
                let mut rng = StdRng::seed_from_u64(seed + m as u64);
                StateVector::random(n, &mut rng)
            })
            .collect()
    }

    #[test]
    fn serial_batch_is_bit_identical_to_sequential_runs() {
        let circuit = random_circuit_seeded(5, 40, 7);
        for strategy in all_strategies() {
            let cfg = SimConfig::default().strategy(strategy).serial();
            let single = Simulator::from_config(cfg.clone()).unwrap();
            let batch = BatchSimulator::from_config(cfg).unwrap();
            let mut expect = random_members(5, 3, 900);
            for s in expect.iter_mut() {
                single.run(&circuit, s).unwrap();
            }
            let mut got = random_members(5, 3, 900);
            let report = batch.run(&circuit, &mut got).unwrap();
            assert_eq!(report.members, 3);
            assert_eq!(report.gates, circuit.len());
            for (g, e) in got.iter().zip(&expect) {
                assert!(g.approx_eq(e, 0.0), "strategy {strategy} diverged from sequential");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns worker threads; covered serially above
    fn threaded_batch_is_bit_identical_to_serial_members() {
        let circuit = random_circuit_seeded(6, 50, 13);
        for strategy in all_strategies() {
            let serial =
                Simulator::from_config(SimConfig::default().strategy(strategy).serial()).unwrap();
            let batch =
                BatchSimulator::from_config(SimConfig::default().strategy(strategy).threads(4))
                    .unwrap();
            let mut expect = random_members(6, 5, 31);
            for s in expect.iter_mut() {
                serial.run(&circuit, s).unwrap();
            }
            let mut got = random_members(6, 5, 31);
            batch.run(&circuit, &mut got).unwrap();
            for (g, e) in got.iter().zip(&expect) {
                assert!(g.approx_eq(e, 0.0), "strategy {strategy} diverged under threads");
            }
        }
    }

    #[test]
    fn batched_trajectories_match_sequential_sampling() {
        let circuit = random_circuit_seeded(4, 30, 11);
        let channel = NoiseChannel::BitFlip { p: 0.3 };
        let seeds = [1u64, 2, 3];
        let batch = BatchSimulator::new();
        let got = batch.run_trajectories(&circuit, channel, &seeds).unwrap();
        assert_eq!(got.states.len(), 3);
        for (m, &seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = StateVector::zero(4);
            let errors = run_trajectory(batch.backend(), &circuit, &mut state, channel, &mut rng);
            assert!(got.states[m].approx_eq(&state, 0.0), "trajectory {m} diverged");
            assert_eq!(got.errors[m], errors, "trajectory {m} error count diverged");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns worker threads
    fn threaded_trajectories_match_serial_trajectories() {
        let circuit = random_circuit_seeded(4, 25, 17);
        let mixed = [
            (NoiseChannel::BitFlip { p: 0.2 }, 5u64),
            (NoiseChannel::Depolarizing { p: 0.1 }, 6),
            (NoiseChannel::AmplitudeDamping { gamma: 0.15 }, 7),
            (NoiseChannel::PhaseFlip { p: 0.25 }, 8),
        ];
        let serial = BatchSimulator::new();
        let threaded = BatchSimulator::from_config(SimConfig::default().threads(3)).unwrap();
        let a = serial.run_trajectories_mixed(&circuit, &mixed).unwrap();
        let b = threaded.run_trajectories_mixed(&circuit, &mixed).unwrap();
        assert_eq!(a.errors, b.errors);
        for (x, y) in a.states.iter().zip(&b.states) {
            assert!(x.approx_eq(y, 0.0));
        }
    }

    #[test]
    fn traced_batch_produces_per_member_traces() {
        let circuit = random_circuit_seeded(4, 12, 3);
        for strategy in all_strategies() {
            let cfg = SimConfig::default().strategy(strategy).traced();
            let batch = BatchSimulator::from_config(cfg.clone()).unwrap();
            let untraced =
                BatchSimulator::from_config(cfg.telemetry(TelemetryConfig::off())).unwrap();
            let mut traced_states = random_members(4, 2, 50);
            let report = batch.run(&circuit, &mut traced_states).unwrap();
            assert_eq!(report.traces.len(), 2, "strategy {strategy}");
            for (m, trace) in report.traces.iter().enumerate() {
                assert_eq!(trace.summary.spans, report.sweeps, "strategy {strategy}");
                let label = &trace.meta.label;
                assert!(label.contains(&format!("batch={}", report.batch_id)), "{label}");
                assert!(label.contains(&format!("member={m}")), "{label}");
            }
            // Tracing must not perturb the arithmetic.
            let mut plain_states = random_members(4, 2, 50);
            untraced.run(&circuit, &mut plain_states).unwrap();
            for (t, p) in traced_states.iter().zip(&plain_states) {
                assert!(t.approx_eq(p, 0.0), "strategy {strategy}: tracing changed results");
            }
        }
    }

    #[test]
    fn batch_size_and_width_limits_are_enforced() {
        let sim = BatchSimulator::new();
        let circuit = random_circuit_seeded(2, 5, 1);
        let mut empty: Vec<StateVector> = Vec::new();
        let err = sim.run(&circuit, &mut empty).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let mut mismatched = vec![StateVector::zero(3)];
        assert!(matches!(
            sim.run(&circuit, &mut mismatched).unwrap_err(),
            SimError::QubitMismatch { circuit: 2, state: 3 }
        ));
        let wide = random_circuit_seeded(1, 3, 2);
        let mut too_many: Vec<StateVector> =
            (0..MAX_BATCH + 1).map(|_| StateVector::zero(1)).collect();
        let err = sim.run(&wide, &mut too_many).unwrap_err();
        assert!(err.to_string().contains(&MAX_BATCH.to_string()), "{err}");
        assert!(sim
            .run_trajectories(&wide, NoiseChannel::BitFlip { p: 0.1 }, &[])
            .unwrap_err()
            .to_string()
            .contains("at least 1"));
    }

    #[test]
    fn run_rejects_nonunitary_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        let sim = BatchSimulator::new();
        let mut states = vec![StateVector::zero(2)];
        let err = sim.run(&c, &mut states).unwrap_err();
        assert!(err.to_string().contains("run_measured"), "{err}");
        let err = sim.run_trajectories(&c, NoiseChannel::BitFlip { p: 0.1 }, &[1]).unwrap_err();
        assert!(err.to_string().contains("unitary"), "{err}");
    }

    /// Six bound points of a 5-qubit ansatz.
    fn sweep_circuits() -> Vec<Circuit> {
        use crate::variational::hardware_efficient_ansatz;
        let pc = hardware_efficient_ansatz(5, 2);
        (0..6)
            .map(|i| {
                pc.bind(&(0..pc.n_params()).map(|j| 0.1 * (i * 3 + j) as f64).collect::<Vec<_>>())
            })
            .collect()
    }

    /// `run_sweep` and `sweep_map` on `threads` threads against a
    /// serial `Simulator` of the same strategy, circuit by circuit.
    fn sweep_matches_serial_runs(threads: usize) {
        let circuits = sweep_circuits();
        for strategy in all_strategies() {
            let cfg = SimConfig::default().strategy(strategy);
            let serial = Simulator::from_config(cfg.clone().serial()).unwrap();
            let batch = BatchSimulator::from_config(cfg.threads(threads)).unwrap();
            let mut got: Vec<StateVector> = circuits.iter().map(|_| StateVector::zero(5)).collect();
            let report = batch.run_sweep(&circuits, &mut got).unwrap();
            let (streamed, _) = batch.sweep_map(&circuits, |m, s| (m, s.clone())).unwrap();
            for (m, c) in circuits.iter().enumerate() {
                let mut expect = StateVector::zero(5);
                let run = serial.run(c, &mut expect).unwrap();
                let cell = format!("member {m} ({strategy}, threads={threads})");
                if m == 0 {
                    // Cost-aware lowerings may sweep another member's
                    // angles differently; the report carries member 0's.
                    assert_eq!(report.sweeps, run.sweeps, "{cell}");
                }
                assert!(got[m].approx_eq(&expect, 0.0), "{cell}: run_sweep diverged");
                assert_eq!(streamed[m].0, m, "{cell}: results out of member order");
                assert!(streamed[m].1.approx_eq(&expect, 0.0), "{cell}: sweep_map diverged");
            }
        }
    }

    #[test]
    fn sweeps_are_bit_identical_to_serial_runs_of_the_same_strategy() {
        sweep_matches_serial_runs(1);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns worker threads; covered serially above
    fn threaded_sweeps_are_bit_identical_to_serial_runs_of_the_same_strategy() {
        sweep_matches_serial_runs(2);
        sweep_matches_serial_runs(4);
    }

    #[test]
    fn sweep_validates_shapes() {
        let sim = BatchSimulator::new();
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(3);
        b.h(0).h(1);
        let mut states = vec![StateVector::zero(3), StateVector::zero(3)];
        let err = sim.run_sweep(&[a.clone(), b], &mut states).unwrap_err();
        assert!(err.to_string().contains("same-shaped"), "{err}");
        let err = sim.run_sweep(&[a.clone()], &mut states).unwrap_err();
        assert!(err.to_string().contains("one circuit per member"), "{err}");
        let mut m = Circuit::new(3);
        m.measure(0, 0);
        let mut one = vec![StateVector::zero(3)];
        let err = sim.run_sweep(std::slice::from_ref(&m), &mut one).unwrap_err();
        assert!(err.to_string().contains("unitary"), "{err}");
        // The streaming form goes through the same door.
        let err = sim.sweep_map(&[m], |_, _| ()).unwrap_err();
        assert!(err.to_string().contains("unitary"), "{err}");
        let err = sim.sweep_map(&[], |_, _| ()).unwrap_err();
        assert!(err.to_string().contains("one circuit per member"), "{err}");
    }

    #[test]
    fn batched_measured_matches_serial_per_seed() {
        let mut circuit = Circuit::new(4);
        for g in random_circuit_seeded(4, 10, 2).gates() {
            circuit.push(g.clone());
        }
        circuit.measure(1, 0);
        circuit.cif_bit(0, 1, crate::circuit::Gate::X(2));
        for g in random_circuit_seeded(4, 6, 5).gates() {
            circuit.push(g.clone());
        }
        circuit.measure(3, 1);
        let seeds = [11u64, 12, 13, 14];
        for strategy in all_strategies() {
            let cfg = SimConfig::default().strategy(strategy);
            let serial = Simulator::from_config(cfg.clone()).unwrap();
            for threads in [1usize, 3] {
                let batch = BatchSimulator::from_config(cfg.clone().threads(threads)).unwrap();
                let mut states: Vec<StateVector> =
                    seeds.iter().map(|_| StateVector::zero(4)).collect();
                let got = batch.run_measured(&circuit, &mut states, &seeds).unwrap();
                for (m, &seed) in seeds.iter().enumerate() {
                    let mut expect = StateVector::zero(4);
                    let report = serial.run_measured(&circuit, &mut expect, seed).unwrap();
                    assert!(
                        states[m].approx_eq(&expect, 0.0),
                        "member {m} state diverged ({strategy}, threads={threads})"
                    );
                    assert_eq!(got.cregs[m], report.creg, "member {m} creg");
                    assert_eq!(got.outcomes[m], report.outcomes, "member {m} outcomes");
                }
            }
        }
    }

    #[test]
    fn measured_batch_validates_seeds() {
        let sim = BatchSimulator::new();
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        let mut states = vec![StateVector::zero(2), StateVector::zero(2)];
        let err = sim.run_measured(&c, &mut states, &[1]).unwrap_err();
        assert!(err.to_string().contains("one seed per member"), "{err}");
    }

    #[test]
    fn rejects_per_run_resilience_configs() {
        use crate::integrity::IntegrityMode;
        let err =
            BatchSimulator::from_config(SimConfig::default().integrity_mode(IntegrityMode::Check))
                .unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        let err = BatchSimulator::from_config(
            SimConfig::default().checkpoint_every(4, std::env::temp_dir()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn run_fresh_uses_configured_batch_size() {
        let batch = BatchSimulator::from_config(SimConfig::default().batch(4)).unwrap();
        assert_eq!(batch.batch_size(), 4);
        let circuit = random_circuit_seeded(3, 10, 5);
        let (states, report) = batch.run_fresh(&circuit).unwrap();
        assert_eq!(states.len(), 4);
        assert_eq!(report.members, 4);
        // Identical circuit from identical |0…0⟩ starts: members agree.
        for s in &states[1..] {
            assert!(s.approx_eq(&states[0], 0.0));
        }
        assert!(report.circuits_per_sec > 0.0);
    }

    #[test]
    fn batch_ids_are_unique_and_tagged() {
        let sim = BatchSimulator::new();
        let circuit = random_circuit_seeded(3, 6, 9);
        let mut a = vec![StateVector::zero(3)];
        let mut b = vec![StateVector::zero(3)];
        let ra = sim.run(&circuit, &mut a).unwrap();
        let rb = sim.run(&circuit, &mut b).unwrap();
        assert_ne!(ra.batch_id, rb.batch_id);
    }

    #[test]
    fn attached_model_predicts_batched_gains() {
        let cfg = SimConfig::default()
            .strategy(Strategy::Fused { max_k: 3 })
            .model(ChipParams::a64fx(), ExecConfig::full_chip());
        let batch = BatchSimulator::from_config(cfg).unwrap();
        let circuit = random_circuit_seeded(6, 20, 21);
        let mut states = random_members(6, 8, 70);
        let report = batch.run(&circuit, &mut states).unwrap();
        let p = report.predicted.expect("model attached");
        assert_eq!(p.members, 8);
        assert!(p.speedup >= 1.0);
        assert!(p.member_major_seconds <= p.gate_major_seconds);
    }

    // Seeds reaching `StateVector::random` must not collide with the
    // gate-stream seeds, or members become correlated; keep this a
    // compile-time reminder that `random_members` offsets its seeds.
    #[test]
    fn random_members_are_distinct() {
        let ms = random_members(4, 3, 200);
        let mut rng = StdRng::seed_from_u64(200);
        let _ = rng.gen_bool(0.5);
        assert!(!ms[0].approx_eq(&ms[1], 1e-6));
        assert!(!ms[1].approx_eq(&ms[2], 1e-6));
    }
}
