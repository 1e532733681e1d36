//! Batched multi-circuit execution.
//!
//! A [`BatchSimulator`] owns nothing between calls; [`BatchSimulator::run`]
//! applies one circuit to a batch of independent state vectors in
//! *gate-major* order: the circuit is lowered once ([`lower`]), then
//! each op of the program is applied to every member before the next op
//! starts. The gate stream (matrices, offset tables) stays hot across
//! members — the locality argument of the paper's cache-blocking
//! analysis applied along the batch axis — while the amplitude work per
//! member is exactly what a lone run performs.
//!
//! Every (member, block) cell executes the *serial* kernel path a
//! single-threaded [`Simulator`] run uses (the same `program::Kernel`
//! sits behind both interpreters), and worksharing only decides which
//! thread owns which disjoint cell. Batched results are therefore
//! bit-identical to running the members sequentially, for every
//! strategy × backend × schedule combination — the property the
//! differential-conformance suite pins down.
//!
//! Trajectory sampling rides the same machinery:
//! [`BatchSimulator::run_trajectories`] runs one noisy trajectory per
//! member, each with its own seeded RNG, in a single batched call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use omp_par::{for_each_cell, CellGrid, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::circuit::Circuit;
use crate::complex::C64;
use crate::config::SimConfig;
use crate::kernels::simd::KernelBackend;
use crate::kernels::AmpPtr;
use crate::measure::{measure_qubit, MeasurementResult};
use crate::noise::{run_trajectory, NoiseChannel};
use crate::perf::{predict_batched, BatchPrediction};
use crate::program::{lower, GateRef, Kernel, Program, SweepOp};
use crate::sim::{strategy_label, trace_io_error, SimError, Simulator, Strategy};
use crate::state::StateVector;
use crate::telemetry::{self, RunMeta, Trace, Tracer};

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

/// A raw pointer to row `i` of a batch-owned table (states, RNGs,
/// error counters), `Copy` so worksharing closures can capture it.
///
/// Same disjointness contract as [`AmpPtr`]: each row index is touched
/// by exactly one (member, block) cell, and the region barrier in
/// [`for_each_cell`] orders all cell writes before the caller reads the
/// tables again.
struct RowPtr<T>(*mut T);

impl<T> Clone for RowPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RowPtr<T> {}

// SAFETY: rows are handed to exactly one cell each (per-member grids),
// so no two threads alias the same element.
unsafe impl<T> Send for RowPtr<T> {}
unsafe impl<T> Sync for RowPtr<T> {}

impl<T> RowPtr<T> {
    /// # Safety
    /// `i` must be in bounds and exclusively owned by the calling cell.
    #[inline(always)]
    unsafe fn at(self, i: usize) -> &'static mut T {
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
    /// Sweeps executed *per member* (= the single-run sweep count).
    pub sweeps: usize,
    /// Kernel backend name.
    pub backend: &'static str,
    /// Measured throughput: `members / wall_seconds`.
    pub circuits_per_sec: f64,
    /// A64FX-model batched-vs-sequential prediction, when a chip model
    /// is attached.
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
    /// Integrity sweeps and checkpointing are per-run rollback state and
    /// do not compose with gate-major interleaving; configs enabling
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

    /// Execute `circuit` on every member of `states`, gate-major.
    ///
    /// Results are bit-identical to running each member through a
    /// *serial* single-run [`Simulator`] with
    /// the same strategy and backend — regardless of this engine's
    /// thread count, because work is sharded at (member × block)
    /// granularity and every cell executes the serial kernel sequence.
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
        let (program, run, traces) = self.interpret(circuit, states, &[])?;
        let members = states.len();
        let predicted = self
            .engine
            .chip
            .as_ref()
            .map(|(chip, cfg)| predict_batched(chip, cfg, &program, members));
        Ok(BatchReport {
            batch_id: run.batch_id,
            wall_seconds: run.wall_seconds,
            members,
            gates: circuit.len(),
            sweeps: program.ops.len(),
            backend: self.backend().name,
            circuits_per_sec: circuits_per_sec(members, run.wall_seconds),
            predicted,
            traces,
        })
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

    /// Execute one circuit *per member*, gate-major: gate position `j`
    /// of every member's circuit is applied across the whole batch
    /// before position `j+1` starts. Circuits must be same-shaped —
    /// equal width and equal gate count — which is exactly what a
    /// parameter sweep of one parameterized circuit produces
    /// ([`crate::variational`]): the gate stream stays hot along the
    /// batch axis while each member applies its own angles.
    ///
    /// Each member's circuit is interpreted in place as its per-gate
    /// program (no per-member [`Program`] is built), so member `m`'s
    /// final state is bit-identical to running `circuits[m]` through a
    /// serial `Strategy::Naive` [`Simulator`].
    pub fn run_sweep(
        &self,
        circuits: &[Circuit],
        states: &mut [StateVector],
    ) -> Result<BatchReport, SimError> {
        let members = states.len();
        if members == 0 || circuits.len() != members {
            return Err(SimError::InvalidConfig(format!(
                "sweep needs one circuit per member state (got {} circuits, {members} states)",
                circuits.len()
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
        check_members(states, n)?;
        let len = 1usize << n;
        let be = self.backend();
        let batch_id = next_batch_id();
        let tracers = self.tracers(n, members);
        let start = Instant::now();
        let ptrs = amp_ptrs(states);
        for j in 0..gate_count {
            self.for_each_member(&ptrs, len, |m, amps| {
                let op = SweepOp::Gate(GateRef::Source(&circuits[m].gates()[j]));
                exec_member(
                    be,
                    self.engine.sched,
                    &op.kernel(0),
                    &op,
                    amps,
                    tracers.as_ref().map(|t| &t[m]),
                );
            });
        }
        let wall_seconds = start.elapsed().as_secs_f64();
        // Every member runs the per-gate program of its own circuit;
        // member 0's stands for the shape in the header and the model.
        let shape = || Program::per_gate(&circuits[0]);
        let traces = match tracers {
            Some(ts) => self.finish_traces(ts, shape().strategy.to_string(), be, n, batch_id)?,
            None => Vec::new(),
        };
        let predicted = self
            .engine
            .chip
            .as_ref()
            .map(|(chip, cfg)| predict_batched(chip, cfg, &shape(), members));
        Ok(BatchReport {
            batch_id,
            wall_seconds,
            members,
            gates: gate_count,
            sweeps: gate_count,
            backend: be.name,
            circuits_per_sec: circuits_per_sec(members, wall_seconds),
            predicted,
            traces,
        })
    }

    /// Execute one circuit containing [`Gate::Measure`] /
    /// [`Gate::Cif`] ops on every member, gate-major, with **per-member
    /// RNG streams**: member `m` draws from
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
        Ok(self.interpret(circuit, states, seeds)?.1)
    }

    /// The interpreter: lower `circuit` once, then apply each op of the
    /// program to every member before the next op starts. Block ops run
    /// on the fine (member × block) grid when untraced; everything else
    /// — and every traced op, so each member's sweep is timed as one
    /// span — runs one cell per member. `seeds` (one per member, or
    /// empty for a barrier-free circuit) start the per-member RNG
    /// streams that `Measure` ops draw from; only unseeded (unitary)
    /// runs are traced, and return one trace per member.
    fn interpret<'c>(
        &self,
        circuit: &'c Circuit,
        states: &mut [StateVector],
        seeds: &[u64],
    ) -> Result<(Program<'c>, MeasuredBatch, Vec<Trace>), SimError> {
        let members = states.len();
        let n = circuit.n_qubits();
        check_members(states, n)?;
        let len = 1usize << n;
        let be = self.backend();
        let batch_id = next_batch_id();
        let tracers = seeds.is_empty().then(|| self.tracers(n, members)).flatten();
        let trs = tracers.as_deref();
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let mut cregs: Vec<u64> = vec![0; seeds.len()];
        let mut outcomes: Vec<Vec<MeasurementResult>> = vec![Vec::new(); seeds.len()];
        let start = Instant::now();
        // Lowered ONCE and shared by every member — the amortization
        // the batch engine exists for.
        let program = lower(circuit, self.engine.strategy, None);
        let mut ptrs = amp_ptrs(states);
        let (rngs_ptr, cregs_ptr, outcomes_ptr) =
            (RowPtr(rngs.as_mut_ptr()), RowPtr(cregs.as_mut_ptr()), RowPtr(outcomes.as_mut_ptr()));
        for op in &program.ops {
            match op {
                SweepOp::Measure { q, creg: bit } => {
                    let states_ptr = RowPtr(states.as_mut_ptr());
                    let grid = CellGrid::per_member(members);
                    for_each_cell(self.engine.pool.as_deref(), self.engine.sched, grid, |m, _| {
                        // SAFETY: the per-member grid hands row `m` of
                        // every table to exactly this cell; the region
                        // barrier orders all writes before the next
                        // op's cells (or the caller) read them.
                        let (state, rng, cr, outs) = unsafe {
                            (states_ptr.at(m), rngs_ptr.at(m), cregs_ptr.at(m), outcomes_ptr.at(m))
                        };
                        let r = measure_qubit(state, *q, rng);
                        *cr = (*cr & !(1 << bit)) | ((r.outcome as u64) << bit);
                        outs.push(r);
                    });
                    // The collapse reborrowed every member's buffer
                    // through its `StateVector`: re-derive the raw
                    // amplitude pointers the sweeps below go through.
                    ptrs = amp_ptrs(states);
                }
                op => {
                    let kernel = op.kernel(program.block_qubits);
                    match kernel.block_len().filter(|_| trs.is_none()) {
                        Some(block) => {
                            let grid = CellGrid::new(members, len / block);
                            for_each_cell(
                                self.engine.pool.as_deref(),
                                self.engine.sched,
                                grid,
                                |m, b| {
                                    // SAFETY: cells are disjoint (member,
                                    // block) slices; the region barrier ends
                                    // all access before the next op.
                                    let chunk = unsafe { ptrs[m].slice(b * block, block) };
                                    kernel.exec_chunk(be, chunk);
                                },
                            );
                        }
                        None => self.for_each_member(&ptrs, len, |m, amps| {
                            if let SweepOp::Cif { mask, val, .. } = op {
                                // SAFETY: row `m` belongs to this cell.
                                if *unsafe { cregs_ptr.at(m) } & mask != *val {
                                    return;
                                }
                            }
                            exec_member(
                                be,
                                self.engine.sched,
                                &kernel,
                                op,
                                amps,
                                trs.map(|ts| &ts[m]),
                            );
                        }),
                    }
                }
            }
        }
        let wall_seconds = start.elapsed().as_secs_f64();
        let traces = match tracers {
            Some(ts) => {
                let strategy = strategy_label(self.engine.strategy, program.strategy);
                self.finish_traces(ts, strategy, be, n, batch_id)?
            }
            None => Vec::new(),
        };
        Ok((program, MeasuredBatch { batch_id, wall_seconds, outcomes, cregs }, traces))
    }

    /// One tracer per member, when telemetry is on: spans stay
    /// attributable, and each member's trace is a drop-in for the
    /// single-run trace of the same circuit.
    fn tracers(&self, n_qubits: u32, members: usize) -> Option<Vec<Tracer>> {
        (0..members)
            .map(|_| {
                self.engine.telemetry.tracer(self.engine.chip.as_ref(), n_qubits, self.threads())
            })
            .collect()
    }

    /// Close every member's tracer and write the configured sink.
    fn finish_traces(
        &self,
        tracers: Vec<Tracer>,
        strategy: String,
        be: &KernelBackend,
        n_qubits: u32,
        batch_id: u64,
    ) -> Result<Vec<Trace>, SimError> {
        let mut traces = Vec::with_capacity(tracers.len());
        for (m, t) in tracers.into_iter().enumerate() {
            let trace = t.finish(RunMeta {
                strategy: strategy.clone(),
                backend: be.name.to_string(),
                threads: self.threads() as u32,
                schedule: self.engine.sched.to_string(),
                n_qubits,
                label: member_label(&self.engine.telemetry.label, batch_id, m),
            });
            // Member 0 honors the configured truncate/append choice;
            // later members append, so one batched run lands in the
            // JSONL sink as one contiguous group.
            let sink_cfg = if m == 0 {
                self.engine.telemetry.clone()
            } else {
                self.engine.telemetry.clone().appending(true)
            };
            telemetry::write_configured(&sink_cfg, &trace)
                .map_err(|e| trace_io_error(&self.engine.telemetry, e))?;
            traces.push(trace);
        }
        Ok(traces)
    }

    /// Sample one noisy trajectory per seed, batched: member `m` starts
    /// from `|0…0⟩`, draws from `StdRng::seed_from_u64(seeds[m])`, and
    /// produces exactly the state and error count a sequential
    /// [`run_trajectory`] call with the same seed produces.
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
        let n = circuit.n_qubits();
        let batch_id = next_batch_id();
        let start = Instant::now();
        let mut states: Vec<StateVector> = members.iter().map(|_| StateVector::zero(n)).collect();
        let mut rngs: Vec<StdRng> =
            members.iter().map(|&(_, seed)| StdRng::seed_from_u64(seed)).collect();
        let mut errors: Vec<usize> = vec![0; members.len()];
        {
            let states_ptr = RowPtr(states.as_mut_ptr());
            let rngs_ptr = RowPtr(rngs.as_mut_ptr());
            let errors_ptr = RowPtr(errors.as_mut_ptr());
            for_each_cell(
                self.engine.pool.as_deref(),
                self.engine.sched,
                CellGrid::per_member(members.len()),
                |m, _| {
                    // SAFETY: the per-member grid hands row `m` of every
                    // table to exactly this cell; the region barrier
                    // orders all writes before the tables are read below.
                    let state = unsafe { states_ptr.at(m) };
                    let rng = unsafe { rngs_ptr.at(m) };
                    let errs = unsafe { errors_ptr.at(m) };
                    *errs = run_trajectory(circuit, state, members[m].0, rng);
                },
            );
        }
        Ok(TrajectoryBatch {
            batch_id,
            wall_seconds: start.elapsed().as_secs_f64(),
            states,
            errors,
        })
    }

    /// Run `body(member, amplitudes)` once per member, one cell each.
    fn for_each_member(
        &self,
        ptrs: &[AmpPtr],
        len: usize,
        body: impl Fn(usize, &mut [C64]) + Sync,
    ) {
        let grid = CellGrid::per_member(ptrs.len());
        for_each_cell(self.engine.pool.as_deref(), self.engine.sched, grid, |m, _| {
            // SAFETY: cell (m, 0) is the only cell touching member m's
            // amplitudes; the region barrier ends all access on return.
            body(m, unsafe { ptrs[m].slice(0, len) })
        });
    }
}

/// One member's share of one op: the *serial* kernel path, timed into
/// the member's tracer when tracing.
fn exec_member(
    be: &KernelBackend,
    sched: Schedule,
    kernel: &Kernel,
    op: &SweepOp,
    amps: &mut [C64],
    tracer: Option<&Tracer>,
) {
    match tracer {
        Some(t) => {
            let t0 = Instant::now();
            kernel.exec(be, None, sched, amps);
            t.record_op(0, op, t0.elapsed().as_nanos() as u64);
        }
        None => kernel.exec(be, None, sched, amps),
    }
}

/// Raw base pointers of every member's amplitude buffer, for cells to
/// carve their disjoint slices from.
fn amp_ptrs(states: &mut [StateVector]) -> Vec<AmpPtr> {
    states.iter_mut().map(|s| AmpPtr(s.amplitudes_mut().as_mut_ptr())).collect()
}

/// The size and width limits every batched entry point enforces.
fn check_members(states: &[StateVector], n_qubits: u32) -> Result<(), SimError> {
    if states.len() > MAX_BATCH {
        return Err(SimError::InvalidConfig(format!(
            "batch of {} members exceeds the limit of {MAX_BATCH}",
            states.len()
        )));
    }
    match states.iter().find(|s| s.n_qubits() != n_qubits) {
        Some(s) => Err(SimError::QubitMismatch { circuit: n_qubits, state: s.n_qubits() }),
        None => Ok(()),
    }
}

fn circuits_per_sec(members: usize, wall_seconds: f64) -> f64 {
    if wall_seconds > 0.0 {
        members as f64 / wall_seconds
    } else {
        0.0
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
            let errors = run_trajectory(&circuit, &mut state, channel, &mut rng);
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

    #[test]
    fn sweep_is_bit_identical_to_serial_naive_runs() {
        use crate::variational::hardware_efficient_ansatz;
        let pc = hardware_efficient_ansatz(5, 2);
        let points: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..pc.n_params()).map(|j| 0.1 * (i * 3 + j) as f64).collect())
            .collect();
        let circuits: Vec<Circuit> = points.iter().map(|p| pc.bind(p)).collect();
        let serial = Simulator::new();
        let mut expect: Vec<StateVector> = circuits.iter().map(|_| StateVector::zero(5)).collect();
        for (c, s) in circuits.iter().zip(expect.iter_mut()) {
            serial.run(c, s).unwrap();
        }
        for threads in [1usize, 4] {
            let batch = BatchSimulator::from_config(SimConfig::default().threads(threads)).unwrap();
            let mut got: Vec<StateVector> = circuits.iter().map(|_| StateVector::zero(5)).collect();
            let report = batch.run_sweep(&circuits, &mut got).unwrap();
            assert_eq!(report.sweeps, pc.len());
            for (m, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!(g.approx_eq(e, 0.0), "member {m} diverged (threads={threads})");
            }
        }
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
        let err = sim.run_sweep(&[m], &mut one).unwrap_err();
        assert!(err.to_string().contains("unitary"), "{err}");
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
        assert!(p.batched_seconds < p.sequential_seconds);
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
