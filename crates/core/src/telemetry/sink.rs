//! Trace sinks: where a finished [`Trace`] goes.
//!
//! The on-disk format is JSON lines — one `{"type":"run",...}` header
//! per run followed by one `{"type":"span",...}` line per span — chosen
//! so multi-run files (e.g. a fusion-width sweep appending one run per
//! `k`) concatenate trivially and parse a line at a time. Lines are
//! built with [`crate::json`]'s field writers against the small, flat
//! schema of [`Span`] and [`RunMeta`]; [`read_jsonl`] is the exact
//! inverse and the round-trip is pinned by tests.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use super::{RunMeta, Span, SpanKind, Trace};
use crate::json::{self, push_num_field, push_str_field, Value};
use crate::outcome::Outcome;

/// A destination for completed traces.
pub trait TraceSink {
    fn consume(&mut self, trace: &Trace) -> std::io::Result<()>;
}

/// Discards traces; the zero-cost default when no output path is set.
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn consume(&mut self, _trace: &Trace) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects traces in memory; the test sink.
#[derive(Default)]
pub struct MemorySink {
    pub traces: Vec<Trace>,
}

impl TraceSink for MemorySink {
    fn consume(&mut self, trace: &Trace) -> std::io::Result<()> {
        self.traces.push(trace.clone());
        Ok(())
    }
}

/// Writes traces as JSON lines to a file.
pub struct JsonlSink {
    path: PathBuf,
    append: bool,
}

impl JsonlSink {
    pub fn new(path: impl Into<PathBuf>, append: bool) -> JsonlSink {
        JsonlSink { path: path.into(), append }
    }
}

impl TraceSink for JsonlSink {
    fn consume(&mut self, trace: &Trace) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = if self.append {
            OpenOptions::new().create(true).append(true).open(&self.path)?
        } else {
            File::create(&self.path)?
        };
        let mut w = BufWriter::new(file);
        writeln!(w, "{}", run_to_json(&trace.meta))?;
        for span in &trace.spans {
            writeln!(w, "{}", span_to_json(span))?;
        }
        w.flush()?;
        // Subsequent runs through the same sink extend the file.
        self.append = true;
        Ok(())
    }
}

/// Append one `{"type":"outcome",...}` line to a JSONL file (creating
/// parent directories as needed). Outcome lines interleave freely with
/// run/span lines: [`read_jsonl`] skips unknown `type` tags, so a trace
/// file doubles as a usage-accounting ledger. This is what the job
/// server's per-tenant accounting writes.
pub fn append_outcome(path: impl AsRef<Path>, outcome: &Outcome) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut w = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(w, "{}", outcome.to_json())
}

/// Serialize a run header line.
pub fn run_to_json(meta: &RunMeta) -> String {
    let mut s = String::from("{");
    push_str_field(&mut s, "type", "run");
    push_str_field(&mut s, "strategy", &meta.strategy);
    push_str_field(&mut s, "backend", &meta.backend);
    push_num_field(&mut s, "threads", meta.threads);
    push_str_field(&mut s, "schedule", &meta.schedule);
    push_num_field(&mut s, "n_qubits", meta.n_qubits);
    push_str_field(&mut s, "label", &meta.label);
    s.pop();
    s.push('}');
    s
}

/// Serialize one span line.
pub fn span_to_json(span: &Span) -> String {
    let mut s = String::from("{");
    push_str_field(&mut s, "type", "span");
    push_num_field(&mut s, "seq", span.seq);
    push_str_field(&mut s, "kind", &span.kind.label());
    s.push_str("\"qubits\":[");
    for (i, q) in span.qubits.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&q.to_string());
    }
    s.push_str("],");
    push_num_field(&mut s, "wall_ns", span.wall_ns);
    push_num_field(&mut s, "amps", span.amps);
    push_num_field(&mut s, "bytes", span.bytes);
    push_num_field(&mut s, "flops", span.flops);
    push_num_field(&mut s, "model_ns", span.model_ns);
    push_str_field(&mut s, "bottleneck", span.bottleneck);
    push_num_field(&mut s, "thread", span.thread);
    push_num_field(&mut s, "rank", span.rank);
    s.pop();
    s.push('}');
    s
}

/// Map a parsed bottleneck name back onto the `&'static str` vocabulary
/// the predictors use.
fn static_bottleneck(s: &str) -> &'static str {
    match s {
        "fp" => "fp",
        "memory" => "memory",
        "issue" => "issue",
        "network" => "network",
        _ => "other",
    }
}

fn meta_from_line(line: &Value) -> RunMeta {
    let get_s = |k: &str| line.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let get_n = |k: &str| line.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    RunMeta {
        strategy: get_s("strategy"),
        backend: get_s("backend"),
        threads: get_n("threads") as u32,
        schedule: get_s("schedule"),
        n_qubits: get_n("n_qubits") as u32,
        label: get_s("label"),
    }
}

fn span_from_line(line: &Value) -> Option<Span> {
    let get_n = |k: &str| line.get(k).and_then(Value::as_f64);
    Some(Span {
        seq: get_n("seq")? as u64,
        kind: SpanKind::from_label(line.get("kind")?.as_str()?)?,
        qubits: match line.get("qubits").and_then(Value::as_arr) {
            Some(a) => a.iter().filter_map(Value::as_u64).map(|q| q as u32).collect(),
            None => Vec::new(),
        },
        wall_ns: get_n("wall_ns")? as u64,
        amps: get_n("amps").unwrap_or(0.0) as u64,
        bytes: get_n("bytes").unwrap_or(0.0) as u64,
        flops: get_n("flops").unwrap_or(0.0) as u64,
        model_ns: get_n("model_ns").unwrap_or(0.0),
        bottleneck: static_bottleneck(
            line.get("bottleneck").and_then(Value::as_str).unwrap_or("other"),
        ),
        thread: get_n("thread").unwrap_or(0.0) as u32,
        rank: get_n("rank").unwrap_or(-1.0) as i32,
    })
}

/// Parse a trace file back into runs. Each `{"type":"run"}` line starts
/// a new [`Trace`]; span lines attach to the most recent run. Malformed
/// lines are skipped (truncated files parse to their valid prefix).
pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<Trace>> {
    let reader = BufReader::new(File::open(path)?);
    let mut runs: Vec<(RunMeta, Vec<Span>)> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(line) = json::parse(&line) else { continue };
        match line.get("type").and_then(Value::as_str) {
            Some("run") => runs.push((meta_from_line(&line), Vec::new())),
            Some("span") => {
                if let (Some(span), Some(run)) = (span_from_line(&line), runs.last_mut()) {
                    run.1.push(span);
                }
            }
            _ => {}
        }
    }
    Ok(runs.into_iter().map(|(meta, spans)| Trace::from_parts(meta, spans)).collect())
}

#[cfg(test)]
mod tests {
    use super::super::{ExchangePhase, RunMeta, Span, SpanKind, Trace};
    use super::*;
    use a64fx_model::traffic::KernelKind;

    fn sample_trace() -> Trace {
        let meta = RunMeta {
            strategy: "fused:4".to_string(),
            backend: "portable".to_string(),
            threads: 4,
            schedule: "dynamic:32".to_string(),
            n_qubits: 18,
            label: "k=4 \"sweep\"".to_string(),
        };
        let spans = vec![
            Span {
                seq: 0,
                kind: SpanKind::Kernel(KernelKind::FusedDense { k: 4 }),
                qubits: vec![0, 3, 5, 9],
                wall_ns: 120_456,
                amps: 262_144,
                bytes: 8_388_608,
                flops: 33_554_432,
                model_ns: 98_304.5,
                bottleneck: "memory",
                thread: 0,
                rank: -1,
            },
            Span {
                seq: 1,
                kind: SpanKind::Exchange(ExchangePhase::GlobalSwap),
                qubits: vec![17],
                wall_ns: 55,
                amps: 128,
                bytes: 2048,
                flops: 0,
                model_ns: 0.0,
                bottleneck: "network",
                thread: 0,
                rank: 2,
            },
        ];
        Trace::from_parts(meta, spans)
    }

    #[test]
    fn span_json_round_trips() {
        let trace = sample_trace();
        for span in &trace.spans {
            let line = span_to_json(span);
            let parsed = json::parse(&line).expect("parse");
            let back = span_from_line(&parsed).expect("span");
            assert_eq!(&back, span);
        }
    }

    #[test]
    fn run_header_round_trips_with_escapes() {
        let trace = sample_trace();
        let line = run_to_json(&trace.meta);
        let parsed = json::parse(&line).expect("parse");
        assert_eq!(meta_from_line(&parsed), trace.meta);
    }

    #[test]
    fn jsonl_file_round_trips_multiple_runs() {
        let dir = std::env::temp_dir().join("qcs_telemetry_sink_test");
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let trace = sample_trace();
        let mut second = sample_trace();
        second.meta.label = "second".to_string();
        let mut sink = JsonlSink::new(&path, false);
        sink.consume(&trace).unwrap();
        sink.consume(&second).unwrap();
        let runs = read_jsonl(&path).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], trace);
        assert_eq!(runs[1].meta.label, "second");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_parses_valid_prefix() {
        let dir = std::env::temp_dir().join("qcs_telemetry_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.jsonl");
        let trace = sample_trace();
        let mut content = run_to_json(&trace.meta);
        content.push('\n');
        content.push_str(&span_to_json(&trace.spans[0]));
        content.push('\n');
        // A line chopped mid-write by a killed run.
        content.push_str("{\"type\":\"span\",\"seq\":9,\"ki");
        std::fs::write(&path, content).unwrap();
        let runs = read_jsonl(&path).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].spans.len(), 1);
        assert_eq!(runs[0].spans[0], trace.spans[0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn outcome_lines_interleave_with_traces() {
        let dir = std::env::temp_dir().join("qcs_telemetry_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("usage.jsonl");
        let _ = std::fs::remove_file(&path);
        let trace = sample_trace();
        let mut sink = JsonlSink::new(&path, false);
        sink.consume(&trace).unwrap();
        let outcome =
            Outcome { kind: "run".to_string(), ..Outcome::default() }.with_label("tenant-a");
        append_outcome(&path, &outcome).unwrap();
        sink.consume(&trace).unwrap();
        // The trace reader sees both runs and silently skips the
        // outcome line in between.
        let runs = read_jsonl(&path).unwrap();
        assert_eq!(runs.len(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("{\"type\":\"outcome\"")).count(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_sink_collects() {
        let mut sink = MemorySink::default();
        sink.consume(&sample_trace()).unwrap();
        assert_eq!(sink.traces.len(), 1);
    }
}
