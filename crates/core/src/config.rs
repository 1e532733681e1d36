//! [`SimConfig`]: the single front door for configuring a run.
//!
//! Strategy, kernel backend, threading, worksharing schedule, the A64FX
//! model, and telemetry were historically six separate `with_*` knobs on
//! [`Simulator`] plus environment variables and four CLI flags.
//! `SimConfig` collects them into one value that
//! can be built fluently, validated as a whole, printed back to the user
//! (`--verbose`), and stamped into every trace header — so a recorded
//! run is reproducible from its own metadata. The environment never
//! changes it: what a run does is what its `SimConfig` says.
//!
//! ```
//! use qcs_core::prelude::*;
//!
//! let sim = SimConfig::new()
//!     .strategy(Strategy::Fused { max_k: 4 })
//!     .threads(2)
//!     .schedule(Schedule::Dynamic { chunk: 64 })
//!     .build()
//!     .unwrap();
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let mut s = StateVector::zero(2);
//! sim.run(&c, &mut s).unwrap();
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use a64fx_model::timing::ExecConfig;
use a64fx_model::ChipParams;
use omp_par::{Schedule, ThreadPool};

use crate::integrity::{IntegrityMode, IntegrityPolicy};
use crate::kernels::simd::BackendChoice;
use crate::sim::{SimError, Simulator, Strategy};
use crate::telemetry::TelemetryConfig;

/// How the engine obtains worker threads.
#[derive(Clone, Default)]
pub enum PoolSpec {
    /// No worksharing: every sweep runs on the calling thread.
    #[default]
    Serial,
    /// Own a fresh pool of this many threads (including the caller).
    /// `1` is equivalent to [`PoolSpec::Serial`]; `0` is rejected by
    /// [`SimConfig::validate`].
    Threads(usize),
    /// Share an existing pool (several simulators, one set of workers).
    Shared(Arc<ThreadPool>),
}

impl PoolSpec {
    /// The number of threads this spec resolves to.
    pub fn threads(&self) -> usize {
        match self {
            PoolSpec::Serial => 1,
            PoolSpec::Threads(n) => *n,
            PoolSpec::Shared(pool) => pool.num_threads(),
        }
    }
}

impl std::fmt::Debug for PoolSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolSpec::Serial => write!(f, "Serial"),
            PoolSpec::Threads(n) => write!(f, "Threads({n})"),
            PoolSpec::Shared(pool) => write!(f, "Shared({} threads)", pool.num_threads()),
        }
    }
}

/// Periodic checkpointing of the evolving state during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Snapshot after every `every` executed items (gates/sweeps).
    pub every: usize,
    /// Directory the snapshot files live in (created if missing).
    pub dir: PathBuf,
    /// How many most-recent snapshots to retain.
    pub keep: usize,
    /// How many restore-and-replay attempts an
    /// [`IntegrityMode::Restore`] run may make before giving up.
    pub max_replays: u32,
}

impl CheckpointConfig {
    /// Checkpoint every `every` items into `dir`, keeping the 2 newest
    /// snapshots and allowing 3 replays.
    pub fn new(every: usize, dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig { every, dir: dir.into(), keep: 2, max_replays: 3 }
    }
}

/// Complete configuration of a [`Simulator`].
///
/// All fields are public — construct literally or through the fluent
/// builder methods; [`SimConfig::build`] (or
/// [`Simulator::from_config`]) validates and instantiates the engine.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How the circuit maps onto kernel sweeps.
    pub strategy: Strategy,
    /// SIMD kernel backend. [`BackendChoice::Auto`] takes the best one
    /// the host's runtime feature detection finds.
    pub backend: BackendChoice,
    /// Worker threads.
    pub pool: PoolSpec,
    /// Worksharing schedule for parallel sweeps.
    pub schedule: Schedule,
    /// Attach the A64FX analytical model: run reports gain a predicted
    /// time/traffic/bottleneck decomposition, and traced spans price
    /// against this chip instead of the defaults.
    pub model: Option<(ChipParams, ExecConfig)>,
    /// Telemetry behaviour (off by default).
    pub telemetry: TelemetryConfig,
    /// Numerical integrity sweeps (off by default — zero overhead).
    pub integrity: IntegrityPolicy,
    /// Periodic state checkpointing (off by default).
    pub checkpoint: Option<CheckpointConfig>,
    /// Batch size for [`BatchSimulator::run_fresh`](crate::batch::BatchSimulator::run_fresh)
    /// and the CLI's
    /// `--batch` flag (1 = single-run behaviour; at most
    /// [`MAX_BATCH`](crate::batch::MAX_BATCH) members).
    pub batch: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            strategy: Strategy::default(),
            backend: BackendChoice::default(),
            pool: PoolSpec::default(),
            schedule: Schedule::default(),
            model: None,
            telemetry: TelemetryConfig::default(),
            integrity: IntegrityPolicy::default(),
            checkpoint: None,
            batch: 1,
        }
    }
}

impl SimConfig {
    /// The default configuration ([`SimConfig::default`]): naive
    /// strategy, auto backend, serial, static schedule, no model,
    /// telemetry off.
    pub fn new() -> SimConfig {
        SimConfig::default()
    }

    /// Select the execution strategy.
    pub fn strategy(mut self, strategy: Strategy) -> SimConfig {
        self.strategy = strategy;
        self
    }

    /// Select the kernel backend.
    pub fn backend(mut self, backend: BackendChoice) -> SimConfig {
        self.backend = backend;
        self
    }

    /// Workshare across `n` threads (including the caller).
    pub fn threads(mut self, n: usize) -> SimConfig {
        self.pool = if n == 1 { PoolSpec::Serial } else { PoolSpec::Threads(n) };
        self
    }

    /// Share an existing thread pool.
    pub fn pool(mut self, pool: Arc<ThreadPool>) -> SimConfig {
        self.pool = PoolSpec::Shared(pool);
        self
    }

    /// Run serially (the default).
    pub fn serial(mut self) -> SimConfig {
        self.pool = PoolSpec::Serial;
        self
    }

    /// Choose the worksharing schedule.
    pub fn schedule(mut self, schedule: Schedule) -> SimConfig {
        self.schedule = schedule;
        self
    }

    /// Attach the A64FX model.
    pub fn model(mut self, chip: ChipParams, cfg: ExecConfig) -> SimConfig {
        self.model = Some((chip, cfg));
        self
    }

    /// Configure telemetry.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> SimConfig {
        self.telemetry = telemetry;
        self
    }

    /// Shorthand: enable span recording with no file output.
    pub fn traced(mut self) -> SimConfig {
        self.telemetry.enabled = true;
        self
    }

    /// Configure integrity sweeps in full.
    pub fn integrity(mut self, policy: IntegrityPolicy) -> SimConfig {
        self.integrity = policy;
        self
    }

    /// Shorthand: pick an integrity mode with the default tolerance and
    /// every-gate cadence.
    pub fn integrity_mode(mut self, mode: IntegrityMode) -> SimConfig {
        self.integrity.mode = mode;
        self
    }

    /// Configure periodic checkpointing in full.
    pub fn checkpoint(mut self, checkpoint: CheckpointConfig) -> SimConfig {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Shorthand: snapshot into `dir` every `every` executed items.
    pub fn checkpoint_every(mut self, every: usize, dir: impl Into<PathBuf>) -> SimConfig {
        self.checkpoint = Some(CheckpointConfig::new(every, dir));
        self
    }

    /// Batch size for batched execution ([`BatchSimulator`] /
    /// `--batch`). Single-run engines ignore it.
    ///
    /// [`BatchSimulator`]: crate::batch::BatchSimulator
    pub fn batch(mut self, members: usize) -> SimConfig {
        self.batch = members;
        self
    }

    /// Check the configuration without building an engine.
    pub fn validate(&self) -> Result<(), SimError> {
        if let PoolSpec::Threads(0) = self.pool {
            return Err(SimError::InvalidConfig(
                "thread count must be at least 1 (the calling thread counts)".to_string(),
            ));
        }
        if let Strategy::Fused { max_k } | Strategy::Planned { max_k, .. } = self.strategy {
            // A fused block holds a dense 4^k matrix; 5 is the widest the
            // cost table prices.
            if !(1..=5).contains(&max_k) {
                return Err(SimError::InvalidConfig(format!(
                    "fusion width max_k must be in 1..=5, not {max_k}"
                )));
            }
        }
        if let Strategy::Blocked { block_qubits: 0 } | Strategy::Planned { block_qubits: 0, .. } =
            self.strategy
        {
            return Err(SimError::InvalidConfig("block width must be at least 1 qubit".into()));
        }
        if let Some(ck) = &self.checkpoint {
            if ck.every == 0 {
                return Err(SimError::InvalidConfig(
                    "checkpoint interval must be at least 1 gate".to_string(),
                ));
            }
        }
        if self.integrity.enabled() && self.integrity.every == 0 {
            return Err(SimError::InvalidConfig(
                "integrity sweep cadence must be at least 1 gate".to_string(),
            ));
        }
        if self.integrity.mode == IntegrityMode::Restore && self.checkpoint.is_none() {
            return Err(SimError::InvalidConfig(
                "integrity mode `restore` needs checkpointing (set --checkpoint-every)".to_string(),
            ));
        }
        if self.batch == 0 {
            return Err(SimError::InvalidConfig(
                "batch size must be at least 1 member (1 = single-run behaviour)".to_string(),
            ));
        }
        if self.batch > crate::batch::MAX_BATCH {
            return Err(SimError::InvalidConfig(format!(
                "batch size {} exceeds the limit of {} members",
                self.batch,
                crate::batch::MAX_BATCH
            )));
        }
        Ok(())
    }

    /// Validate and build the engine.
    pub fn build(self) -> Result<Simulator, SimError> {
        Simulator::from_config(self)
    }

    /// A human-readable one-line-per-field rendering; what the CLI
    /// prints under `--verbose`.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("  strategy:  {}\n", self.strategy));
        out.push_str(&format!("  backend:   {:?}\n", self.backend));
        out.push_str(&format!("  threads:   {}\n", self.pool.threads()));
        out.push_str(&format!("  schedule:  {}\n", self.schedule));
        out.push_str(&format!(
            "  model:     {}\n",
            match &self.model {
                Some((_, cfg)) => format!("a64fx ({} cores)", cfg.cores),
                None => "off".to_string(),
            }
        ));
        out.push_str(&format!(
            "  telemetry: {}{}\n",
            if self.telemetry.enabled { "on" } else { "off" },
            match &self.telemetry.trace_path {
                Some(p) => format!(" -> {}", p.display()),
                None => String::new(),
            }
        ));
        out.push_str(&format!(
            "  integrity: {}{}\n",
            self.integrity.mode.name(),
            if self.integrity.enabled() {
                format!(
                    " (every {} gates, tol {:.0e})",
                    self.integrity.every, self.integrity.norm_tol
                )
            } else {
                String::new()
            }
        ));
        out.push_str(&format!(
            "  checkpoint: {}\n",
            match &self.checkpoint {
                Some(ck) => format!("every {} gates -> {}", ck.every, ck.dir.display()),
                None => "off".to_string(),
            }
        ));
        out.push_str(&format!(
            "  batch:     {}{}\n",
            self.batch,
            if self.batch == 1 { " (single run)" } else { " members" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_field() {
        let cfg = SimConfig::new()
            .strategy(Strategy::Planned { block_qubits: 5, max_k: 3 })
            .backend(BackendChoice::Scalar)
            .threads(4)
            .schedule(Schedule::Dynamic { chunk: 16 })
            .model(ChipParams::a64fx(), ExecConfig::single_core())
            .telemetry(TelemetryConfig::on().with_label("t"));
        assert_eq!(cfg.strategy, Strategy::Planned { block_qubits: 5, max_k: 3 });
        assert_eq!(cfg.backend, BackendChoice::Scalar);
        assert_eq!(cfg.pool.threads(), 4);
        assert_eq!(cfg.schedule, Schedule::Dynamic { chunk: 16 });
        assert!(cfg.model.is_some());
        assert!(cfg.telemetry.enabled);
        assert_eq!(cfg.telemetry.label, "t");
    }

    #[test]
    fn zero_threads_is_a_clean_error() {
        let err = SimConfig::new().pool_threads_zero().validate().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn fusion_width_outside_1_to_5_is_a_clean_error() {
        for max_k in [0, 6, u32::MAX] {
            for strategy in
                [Strategy::Fused { max_k }, Strategy::Planned { block_qubits: 10, max_k }]
            {
                let err = SimConfig::new().strategy(strategy).build().unwrap_err();
                assert!(matches!(err, SimError::InvalidConfig(_)), "{strategy}");
                assert!(err.to_string().contains("max_k must be in 1..=5"), "{strategy}: {err}");
            }
        }
        assert!(SimConfig::new().strategy(Strategy::Fused { max_k: 5 }).validate().is_ok());
    }

    #[test]
    fn zero_block_width_is_a_clean_error() {
        for strategy in
            [Strategy::Blocked { block_qubits: 0 }, Strategy::Planned { block_qubits: 0, max_k: 3 }]
        {
            let err = SimConfig::new().strategy(strategy).build().unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{strategy}");
            assert!(err.to_string().contains("block width"), "{strategy}");
        }
        assert!(SimConfig::new()
            .strategy(Strategy::Blocked { block_qubits: 1 })
            .validate()
            .is_ok());
    }

    #[test]
    fn restore_without_checkpoint_is_a_clean_error() {
        let err = SimConfig::new().integrity_mode(IntegrityMode::Restore).validate().unwrap_err();
        assert!(err.to_string().contains("restore"));
        // With a checkpoint directory configured it validates.
        SimConfig::new()
            .integrity_mode(IntegrityMode::Restore)
            .checkpoint_every(8, std::env::temp_dir().join("qcs_cfg_test"))
            .validate()
            .unwrap();
    }

    #[test]
    fn zero_checkpoint_interval_rejected() {
        let err = SimConfig::new().checkpoint_every(0, "/tmp/x").validate().unwrap_err();
        assert!(err.to_string().contains("checkpoint interval"));
    }

    #[test]
    fn zero_batch_is_a_clean_error() {
        let err = SimConfig::new().batch(0).validate().unwrap_err();
        assert!(err.to_string().contains("batch size must be at least 1"), "{err}");
    }

    #[test]
    fn oversized_batch_is_a_clean_error() {
        let err = SimConfig::new().batch(crate::batch::MAX_BATCH + 1).validate().unwrap_err();
        assert!(err.to_string().contains("exceeds the limit"), "{err}");
        SimConfig::new().batch(crate::batch::MAX_BATCH).validate().unwrap();
    }

    #[test]
    fn batch_defaults_to_one_and_describes_itself() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.batch, 1);
        assert!(cfg.describe().contains("batch:     1 (single run)"));
        assert!(SimConfig::new().batch(8).describe().contains("batch:     8 members"));
    }

    #[test]
    fn auto_strategy_validates_and_describes() {
        let cfg = SimConfig::default().strategy(Strategy::Auto);
        cfg.validate().unwrap();
        assert!(cfg.describe().contains("strategy:  auto"));
        cfg.build().unwrap();
    }

    #[test]
    fn one_thread_collapses_to_serial() {
        let cfg = SimConfig::new().threads(1);
        assert!(matches!(cfg.pool, PoolSpec::Serial));
    }

    #[test]
    fn describe_round_trips_the_interesting_fields() {
        let cfg = SimConfig::new()
            .strategy(Strategy::Fused { max_k: 4 })
            .threads(2)
            .telemetry(TelemetryConfig::off().with_output("/tmp/t.jsonl"));
        let d = cfg.describe();
        assert!(d.contains("fused:4"));
        assert!(d.contains("threads:   2"));
        assert!(d.contains("/tmp/t.jsonl"));
    }

    impl SimConfig {
        /// Test helper: the invalid state `threads(0)` refuses to build.
        fn pool_threads_zero(mut self) -> SimConfig {
            self.pool = PoolSpec::Threads(0);
            self
        }
    }
}
