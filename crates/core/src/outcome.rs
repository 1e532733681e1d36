//! [`Outcome`]: the one serializable result schema every runner emits.
//!
//! [`RunReport`], [`BatchReport`], and the distributed
//! recovery reports historically each carried their own shape; anything
//! that wanted to ship results over a wire (the job server), print them
//! (`--verbose`), or log them (the JSONL sink) had to know all three.
//! `Outcome` extracts the shared core — elapsed time, strategy, backend,
//! span summary, per-member statistics, recovery counters — into one
//! flat struct with a stable single-line JSON rendering
//! ([`Outcome::to_json`]) that drops straight into the telemetry JSONL
//! format as a `{"type":"outcome",...}` line
//! ([`crate::telemetry::sink::append_outcome`]).
//!
//! Like the trace sink, the line is built with [`crate::json`]'s field
//! writers against this small flat schema.

use crate::batch::BatchReport;
use crate::json::{push_num_field, push_str_field};
use crate::sim::RunReport;
use crate::telemetry::Trace;

/// Per-member execution statistics (one row per batch member; a single
/// run is one member). Populated from traces when telemetry was on,
/// otherwise only `member` is meaningful.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemberStats {
    /// Member index within the batch (0 for single runs).
    pub member: u32,
    /// Trace spans recorded for this member (0 untraced).
    pub spans: u64,
    /// Bytes touched per the traced spans (0 untraced).
    pub bytes: u64,
    /// Measured wall nanoseconds summed over this member's spans.
    pub wall_ns: u64,
}

/// The unified, serializable result of one execution — single run,
/// batched run, or resilient distributed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// What produced this outcome: `"run"`, `"batch"`, or
    /// `"resilient"`.
    pub kind: String,
    /// Free-form label (CLI family, job id, tenant, sweep point).
    pub label: String,
    /// Measured wall seconds of the execution.
    pub elapsed_seconds: f64,
    /// Execution strategy in CLI syntax (`naive`, `fused:4`, …; empty
    /// when the producer did not know it).
    pub strategy: String,
    /// Kernel backend name (`avx512` / `avx2` / `neon` / `portable`).
    pub backend: String,
    /// Worksharing threads.
    pub threads: u32,
    /// State width.
    pub n_qubits: u32,
    /// Gates in the source circuit.
    pub gates: u64,
    /// Sweeps executed per member.
    pub sweeps: u64,
    /// Batch members (1 for single runs; ranks for distributed runs).
    pub members: u64,
    /// Batch id (0 when not batched).
    pub batch_id: u64,
    /// Total trace spans across members (0 untraced).
    pub spans: u64,
    /// Total bytes touched per the traced spans (0 untraced).
    pub bytes: u64,
    /// Rollback-and-replay recoveries (guard restores / distributed
    /// recoveries).
    pub recoveries: u64,
    /// Snapshots written.
    pub checkpoints: u64,
    /// In-place integrity repairs (renormalizations).
    pub repairs: u64,
    /// Per-member statistics.
    pub member_stats: Vec<MemberStats>,
}

impl Outcome {
    /// Fluent label setter (tenant, job id, experiment tag, …).
    pub fn with_label(mut self, label: impl Into<String>) -> Outcome {
        self.label = label.into();
        self
    }

    /// Fill the configuration fields a report cannot know by itself.
    pub fn with_config(mut self, strategy: &str, threads: u32, n_qubits: u32) -> Outcome {
        self.strategy = strategy.to_string();
        self.threads = threads;
        self.n_qubits = n_qubits;
        self
    }

    /// One-line JSON rendering, `{"type":"outcome",...}` — the schema
    /// the CLI's `--verbose` prints, the job server's usage ledger
    /// records, and the JSONL sink appends.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        push_str_field(&mut s, "type", "outcome");
        push_str_field(&mut s, "kind", &self.kind);
        push_str_field(&mut s, "label", &self.label);
        push_num_field(&mut s, "elapsed_seconds", self.elapsed_seconds);
        push_str_field(&mut s, "strategy", &self.strategy);
        push_str_field(&mut s, "backend", &self.backend);
        push_num_field(&mut s, "threads", self.threads);
        push_num_field(&mut s, "n_qubits", self.n_qubits);
        push_num_field(&mut s, "gates", self.gates);
        push_num_field(&mut s, "sweeps", self.sweeps);
        push_num_field(&mut s, "members", self.members);
        push_num_field(&mut s, "batch_id", self.batch_id);
        push_num_field(&mut s, "spans", self.spans);
        push_num_field(&mut s, "bytes", self.bytes);
        push_num_field(&mut s, "recoveries", self.recoveries);
        push_num_field(&mut s, "checkpoints", self.checkpoints);
        push_num_field(&mut s, "repairs", self.repairs);
        s.push_str("\"member_stats\":[");
        for (i, m) in self.member_stats.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"member\":{},\"spans\":{},\"bytes\":{},\"wall_ns\":{}}}",
                m.member, m.spans, m.bytes, m.wall_ns
            ));
        }
        s.push_str("]}");
        s
    }

    /// A compact human-readable rendering for `--verbose` output.
    pub fn describe(&self) -> String {
        format!(
            "{} [{}] {} on {} ({} threads): {} members × {} sweeps of {} gates \
             in {:.3} ms",
            self.kind,
            self.label,
            if self.strategy.is_empty() { "?" } else { &self.strategy },
            self.backend,
            self.threads,
            self.members,
            self.sweeps,
            self.gates,
            self.elapsed_seconds * 1e3
        )
    }
}

fn member_stats_from_traces(traces: &[Trace]) -> Vec<MemberStats> {
    traces
        .iter()
        .enumerate()
        .map(|(m, t)| MemberStats {
            member: m as u32,
            spans: t.summary.spans as u64,
            bytes: t.summary.bytes,
            wall_ns: t.summary.wall_ns,
        })
        .collect()
}

/// A single run: strategy/threads come from the trace when telemetry was
/// on; otherwise fill them with [`Outcome::with_config`].
impl From<&RunReport> for Outcome {
    fn from(r: &RunReport) -> Outcome {
        let (strategy, threads, n_qubits) = match &r.trace {
            Some(t) => (t.meta.strategy.clone(), t.meta.threads, t.meta.n_qubits),
            None => (String::new(), 1, 0),
        };
        let guard = r.guard.unwrap_or_default();
        Outcome {
            kind: "run".to_string(),
            label: String::new(),
            elapsed_seconds: r.wall_seconds,
            strategy,
            backend: r.backend.to_string(),
            threads,
            n_qubits,
            gates: r.gates as u64,
            sweeps: r.sweeps as u64,
            members: 1,
            batch_id: 0,
            spans: r.trace.as_ref().map_or(0, |t| t.summary.spans as u64),
            bytes: r.trace.as_ref().map_or(0, |t| t.summary.bytes),
            recoveries: guard.restores,
            checkpoints: guard.checkpoints,
            repairs: guard.repairs,
            member_stats: r
                .trace
                .as_ref()
                .map(|t| member_stats_from_traces(std::slice::from_ref(t)))
                .unwrap_or_default(),
        }
    }
}

impl From<&BatchReport> for Outcome {
    fn from(r: &BatchReport) -> Outcome {
        let (strategy, threads, n_qubits) = match r.traces.first() {
            Some(t) => (t.meta.strategy.clone(), t.meta.threads, t.meta.n_qubits),
            None => (String::new(), 1, 0),
        };
        Outcome {
            kind: "batch".to_string(),
            label: String::new(),
            elapsed_seconds: r.wall_seconds,
            strategy,
            backend: r.backend.to_string(),
            threads,
            n_qubits,
            gates: r.gates as u64,
            sweeps: r.sweeps as u64,
            members: r.members as u64,
            batch_id: r.batch_id,
            spans: r.traces.iter().map(|t| t.summary.spans as u64).sum(),
            bytes: r.traces.iter().map(|t| t.summary.bytes).sum(),
            recoveries: 0,
            checkpoints: 0,
            repairs: 0,
            member_stats: member_stats_from_traces(&r.traces),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::library;
    use crate::prelude::{BatchSimulator, Simulator, StateVector, Strategy};
    use crate::telemetry::TelemetryConfig;

    #[test]
    fn run_report_converts_with_trace_metadata() {
        let c = library::qft(5);
        let mut s = StateVector::zero(5);
        let sim = SimConfig::default()
            .strategy(Strategy::Fused { max_k: 3 })
            .telemetry(TelemetryConfig::on())
            .build()
            .unwrap();
        let report = sim.run(&c, &mut s).unwrap();
        let o = Outcome::from(&report).with_label("qft5");
        assert_eq!(o.kind, "run");
        assert_eq!(o.label, "qft5");
        assert_eq!(o.strategy, "fused:3");
        assert_eq!(o.members, 1);
        assert_eq!(o.sweeps, report.sweeps as u64);
        assert_eq!(o.n_qubits, 5);
        assert_eq!(o.member_stats.len(), 1);
        assert_eq!(o.member_stats[0].spans, o.spans);
        assert!(o.spans > 0);
        assert!(o.elapsed_seconds > 0.0);
    }

    #[test]
    fn untraced_run_needs_explicit_config() {
        let c = library::ghz(4);
        let mut s = StateVector::zero(4);
        let report = Simulator::new().run(&c, &mut s).unwrap();
        let o = Outcome::from(&report).with_config("naive", 1, 4);
        assert_eq!(o.strategy, "naive");
        assert_eq!(o.n_qubits, 4);
        assert_eq!(o.spans, 0);
        assert!(o.member_stats.is_empty());
    }

    #[test]
    fn batch_report_converts_with_member_stats() {
        let c = library::qft(4);
        let batch = BatchSimulator::from_config(SimConfig::default().batch(3).traced()).unwrap();
        let (_, report) = batch.run_fresh(&c).unwrap();
        let o = Outcome::from(&report);
        assert_eq!(o.kind, "batch");
        assert_eq!(o.members, 3);
        assert_eq!(o.batch_id, report.batch_id);
        assert_eq!(o.member_stats.len(), 3);
        assert_eq!(o.spans, 3 * report.sweeps as u64);
    }

    #[test]
    fn json_is_one_line_and_tagged() {
        let o = Outcome {
            kind: "run".to_string(),
            label: "a \"b\"".to_string(),
            elapsed_seconds: 0.25,
            strategy: "planned:4:3".to_string(),
            backend: "portable".to_string(),
            threads: 2,
            n_qubits: 7,
            gates: 10,
            sweeps: 4,
            members: 1,
            batch_id: 0,
            spans: 4,
            bytes: 1024,
            recoveries: 1,
            checkpoints: 2,
            repairs: 0,
            member_stats: vec![MemberStats { member: 0, spans: 4, bytes: 1024, wall_ns: 55 }],
        };
        let j = o.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"type\":\"outcome\""));
        assert!(j.contains("\"label\":\"a \\\"b\\\"\""));
        assert!(j.contains("\"strategy\":\"planned:4:3\""));
        assert!(j.contains("\"member_stats\":[{\"member\":0,\"spans\":4"));
        assert!(o.describe().contains("planned:4:3"));
    }
}
