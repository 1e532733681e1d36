//! Built-in observability: per-sweep spans, per-thread counters, and
//! pluggable trace sinks.
//!
//! The paper's contribution is *performance analysis* — attributing time
//! to kernels, placement, and communication. This module makes that
//! attribution a first-class product of every run instead of ad-hoc
//! arithmetic in each experiment binary:
//!
//! * [`Span`] — one measured unit of work (a gate sweep, a fused op, a
//!   cache-blocked pass, or a distributed exchange phase) carrying wall time, the kernel taxonomy, the qubits it
//!   touched, and its model-side traffic/time prediction.
//! * [`Tracer`] — the recording engine: lock-free single-producer
//!   [`ring::SpanRing`]s (one per thread), merged at run end, plus
//!   per-thread busy clocks fed by the `omp` pool's
//!   [`omp_par::RegionObserver`] hook.
//! * [`Trace`] / [`TraceSummary`] — the merged result: the ordered span
//!   list, per-kind aggregates, and per-thread load statistics. A
//!   summary rides on every [`RunReport`](crate::sim::RunReport).
//! * [`sink`] — where traces go: a JSON-lines writer
//!   ([`sink::JsonlSink`]) for offline analysis, [`sink::MemorySink`]
//!   for tests, and [`sink::NoopSink`]. When telemetry is disabled the
//!   engine never constructs a tracer, so the untraced path costs one
//!   `Option` branch per sweep.
//! * [`drift`] — the model-drift report: measured spans joined against
//!   [`perf`] predictions per kernel kind, which turns
//!   EXPERIMENTS claims ("diag is memory-bound", "fusion optimum at
//!   k=4") into machine-checkable numbers.
//!
//! Every sweep span is recorded from the [`SweepOp`] that executed
//! ([`Tracer::record_op`]) and priced by the same
//! [`SweepOp::traffic`] [`crate::perf::predict`] sums, so a traced run's
//! span bytes and flops equal the model's for the same program by
//! construction.

pub mod drift;
pub mod ring;
pub mod sink;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use a64fx_model::timing::ExecConfig;
use a64fx_model::traffic::{GateTraffic, KernelKind, TrafficModel};
use a64fx_model::ChipParams;
use omp_par::RegionObserver;

use crate::perf;
use crate::program::SweepOp;
use ring::SpanRing;

/// Default per-thread ring capacity in spans.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// The communication phase of a distributed-exchange span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExchangePhase {
    /// Whole-buffer pair exchange for a dense gate on a global qubit.
    PairExchange,
    /// Pair exchange gated on a local control bit.
    CtrlExchange,
    /// Half-buffer global–local qubit swap (the remap primitive).
    GlobalSwap,
    /// Chunked nonblocking global–local swap with resident compute
    /// scheduled during the flight; `wall_ns` records only the *exposed*
    /// time (post/wait), not the hidden keep-half compute.
    OverlapSwap,
    /// Collective (allgather/allreduce) traffic.
    Collective,
    /// Fault recovery: rollback to a checkpoint and replay.
    Recovery,
}

impl ExchangePhase {
    pub fn name(self) -> &'static str {
        match self {
            ExchangePhase::PairExchange => "pair-exchange",
            ExchangePhase::CtrlExchange => "ctrl-exchange",
            ExchangePhase::GlobalSwap => "global-swap",
            ExchangePhase::OverlapSwap => "overlap-swap",
            ExchangePhase::Collective => "collective",
            ExchangePhase::Recovery => "recovery",
        }
    }

    pub fn from_name(s: &str) -> Option<ExchangePhase> {
        Some(match s {
            "pair-exchange" => ExchangePhase::PairExchange,
            "ctrl-exchange" => ExchangePhase::CtrlExchange,
            "global-swap" => ExchangePhase::GlobalSwap,
            "overlap-swap" => ExchangePhase::OverlapSwap,
            "collective" => ExchangePhase::Collective,
            "recovery" => ExchangePhase::Recovery,
            _ => return None,
        })
    }
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// One state sweep applying a single kernel (gate or fused op).
    Kernel(KernelKind),
    /// One cache-blocked pass applying `gates` member ops; `k` is the
    /// widest member's width.
    Block { gates: u32, k: u8 },
    /// One distributed communication phase.
    Exchange(ExchangePhase),
    /// One fused observable reduction: `terms` Pauli terms evaluated in
    /// `sweeps` read-only basis-group passes over the state.
    Reduce { terms: u32, sweeps: u32 },
    /// One projective measurement: a probability pass plus a single
    /// collapse pass.
    Measure,
}

impl SpanKind {
    /// Stable label used for aggregation keys and JSON serialization.
    pub fn label(&self) -> String {
        match self {
            SpanKind::Kernel(k) => format!("kernel:{}", kernel_kind_name(*k)),
            SpanKind::Block { gates, k } => format!("block:g{gates}:k{k}"),
            SpanKind::Exchange(p) => format!("exchange:{}", p.name()),
            SpanKind::Reduce { terms, sweeps } => format!("reduce:t{terms}:s{sweeps}"),
            SpanKind::Measure => "measure".to_string(),
        }
    }

    /// Inverse of [`SpanKind::label`].
    pub fn from_label(s: &str) -> Option<SpanKind> {
        if let Some(rest) = s.strip_prefix("kernel:") {
            return kernel_kind_from_name(rest).map(SpanKind::Kernel);
        }
        if let Some(rest) = s.strip_prefix("block:") {
            let (g, k) = rest.split_once(":k")?;
            let gates: u32 = g.strip_prefix('g')?.parse().ok()?;
            let k: u8 = k.parse().ok()?;
            return Some(SpanKind::Block { gates, k });
        }
        if let Some(rest) = s.strip_prefix("exchange:") {
            return ExchangePhase::from_name(rest).map(SpanKind::Exchange);
        }
        if let Some(rest) = s.strip_prefix("reduce:") {
            let (t, sw) = rest.split_once(":s")?;
            let terms: u32 = t.strip_prefix('t')?.parse().ok()?;
            let sweeps: u32 = sw.parse().ok()?;
            return Some(SpanKind::Reduce { terms, sweeps });
        }
        if s == "measure" {
            return Some(SpanKind::Measure);
        }
        None
    }
}

/// Stable text name of a [`KernelKind`].
pub fn kernel_kind_name(k: KernelKind) -> String {
    match k {
        KernelKind::OneQubitDense => "1q-dense".to_string(),
        KernelKind::OneQubitDiagonal => "1q-diag".to_string(),
        KernelKind::ControlledDense => "controlled".to_string(),
        KernelKind::TwoQubitDiagonal => "2q-diag".to_string(),
        KernelKind::TwoQubitDense => "2q-dense".to_string(),
        KernelKind::FusedDense { k } => format!("fused-{k}"),
        KernelKind::Swap => "swap".to_string(),
    }
}

/// Inverse of [`kernel_kind_name`].
pub fn kernel_kind_from_name(s: &str) -> Option<KernelKind> {
    Some(match s {
        "1q-dense" => KernelKind::OneQubitDense,
        "1q-diag" => KernelKind::OneQubitDiagonal,
        "controlled" => KernelKind::ControlledDense,
        "2q-diag" => KernelKind::TwoQubitDiagonal,
        "2q-dense" => KernelKind::TwoQubitDense,
        "swap" => KernelKind::Swap,
        other => KernelKind::FusedDense { k: other.strip_prefix("fused-")?.parse().ok()? },
    })
}

/// One measured unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Record order within the run (monotonic across threads).
    pub seq: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Target/control qubits (exchange spans: the global qubit).
    pub qubits: Vec<u32>,
    /// Measured wall nanoseconds.
    pub wall_ns: u64,
    /// Amplitudes visited (reads; model-derived for kernels, exact
    /// buffer lengths for exchanges).
    pub amps: u64,
    /// Bytes touched: model memory traffic for kernels, wire volume for
    /// exchange spans.
    pub bytes: u64,
    /// DP FLOPs executed.
    pub flops: u64,
    /// Model-predicted nanoseconds: the sweep model for kernel/block
    /// spans, the Tofu-D α–β link model for wire exchange spans (0 for
    /// recovery spans, which move no wire bytes of their own).
    pub model_ns: f64,
    /// The model's limiting resource (`"fp"`/`"memory"`/`"issue"`, or
    /// `"network"` for exchange spans).
    pub bottleneck: &'static str,
    /// Thread that recorded the span.
    pub thread: u32,
    /// Distributed rank (-1 outside the distributed engine).
    pub rank: i32,
}

/// Identity of one run; the JSONL header line and the trace's context.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMeta {
    /// Execution strategy in CLI syntax (`naive`, `fused:4`, …).
    pub strategy: String,
    /// Kernel backend name (`avx512` / `avx2` / `neon` / `portable`).
    pub backend: String,
    /// Worksharing threads.
    pub threads: u32,
    /// Worksharing schedule in CLI syntax.
    pub schedule: String,
    /// State width.
    pub n_qubits: u32,
    /// Free-form run label (experiment binaries tag sweep points here).
    pub label: String,
}

/// Aggregate over all spans of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindAgg {
    pub count: usize,
    pub wall_ns: u64,
    pub bytes: u64,
    pub flops: u64,
    pub model_ns: f64,
}

/// Run-level aggregates embedded in the [`RunReport`](crate::sim::RunReport).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Spans recorded (after ring truncation).
    pub spans: usize,
    /// Spans lost to ring overflow (oldest-first).
    pub dropped: u64,
    /// Total measured wall nanoseconds across spans.
    pub wall_ns: u64,
    /// Total bytes touched.
    pub bytes: u64,
    /// Total DP FLOPs.
    pub flops: u64,
    /// Total model-predicted nanoseconds.
    pub model_ns: f64,
    /// Aggregates keyed by span-kind label.
    pub by_kind: std::collections::BTreeMap<String, KindAgg>,
    /// Busy nanoseconds per pool thread (worksharing regions only).
    pub busy_ns_per_thread: Vec<u64>,
    /// Chunks executed per pool thread.
    pub chunks_per_thread: Vec<u64>,
}

impl TraceSummary {
    fn from_spans(spans: &[Span], dropped: u64, clocks: &ThreadClocks) -> TraceSummary {
        let mut s = TraceSummary {
            spans: spans.len(),
            dropped,
            busy_ns_per_thread: clocks
                .busy_ns
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .collect(),
            chunks_per_thread: clocks.chunks.iter().map(|c| c.0.load(Ordering::Relaxed)).collect(),
            ..TraceSummary::default()
        };
        for sp in spans {
            s.wall_ns += sp.wall_ns;
            s.bytes += sp.bytes;
            s.flops += sp.flops;
            s.model_ns += sp.model_ns;
            let agg = s.by_kind.entry(sp.kind.label()).or_default();
            agg.count += 1;
            agg.wall_ns += sp.wall_ns;
            agg.bytes += sp.bytes;
            agg.flops += sp.flops;
            agg.model_ns += sp.model_ns;
        }
        s
    }

    /// Load imbalance across pool threads: max/mean busy time (1.0 =
    /// perfectly balanced; 0.0 when no worksharing ran).
    pub fn busy_imbalance(&self) -> f64 {
        let max = self.busy_ns_per_thread.iter().copied().max().unwrap_or(0) as f64;
        let total: u64 = self.busy_ns_per_thread.iter().sum();
        if total == 0 {
            return 0.0;
        }
        max / (total as f64 / self.busy_ns_per_thread.len() as f64)
    }
}

/// A completed, merged trace of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub meta: RunMeta,
    pub spans: Vec<Span>,
    pub summary: TraceSummary,
}

impl Trace {
    /// Rebuild a trace from raw parts (the JSONL reader path); the
    /// summary is recomputed from the spans, with thread statistics lost.
    pub fn from_parts(meta: RunMeta, spans: Vec<Span>) -> Trace {
        let clocks = ThreadClocks::new(0);
        let summary = TraceSummary::from_spans(&spans, 0, &clocks);
        Trace { meta, spans, summary }
    }
}

/// How telemetry behaves for a run. Disabled by default: the engine then
/// records nothing and pays one branch per sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Record spans at all.
    pub enabled: bool,
    /// Write the trace as JSON lines to this path at run end.
    pub trace_path: Option<PathBuf>,
    /// Append to `trace_path` instead of truncating (multi-run files).
    pub append: bool,
    /// Per-thread ring capacity in spans (oldest spans are overwritten
    /// past this); 0 selects [`DEFAULT_RING_CAPACITY`].
    pub capacity: usize,
    /// Free-form label stamped into the run's [`RunMeta`].
    pub label: String,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            trace_path: None,
            append: false,
            capacity: DEFAULT_RING_CAPACITY,
            label: String::new(),
        }
    }
}

impl TelemetryConfig {
    /// Telemetry off (the default).
    pub fn off() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    /// Telemetry on, summary only (no file output).
    pub fn on() -> TelemetryConfig {
        TelemetryConfig { enabled: true, ..TelemetryConfig::default() }
    }

    /// Enable and write JSON lines to `path`.
    pub fn with_output(mut self, path: impl Into<PathBuf>) -> TelemetryConfig {
        self.enabled = true;
        self.trace_path = Some(path.into());
        self
    }

    /// Append to the output file instead of truncating it.
    pub fn appending(mut self, append: bool) -> TelemetryConfig {
        self.append = append;
        self
    }

    /// Tag the run (shows up in the JSONL header and drift tables).
    pub fn with_label(mut self, label: impl Into<String>) -> TelemetryConfig {
        self.label = label.into();
        self
    }

    /// Per-thread ring capacity in spans.
    pub fn with_capacity(mut self, capacity: usize) -> TelemetryConfig {
        self.capacity = capacity;
        self
    }

    /// The tracer for one `n_qubits` run on `threads` threads — `None`
    /// when telemetry is off. Spans price against `model`, or the
    /// default A64FX single-core configuration when none is attached.
    pub fn tracer(
        &self,
        model: Option<&(ChipParams, ExecConfig)>,
        n_qubits: u32,
        threads: usize,
    ) -> Option<Tracer> {
        self.enabled.then(|| match model {
            Some((chip, cfg)) => Tracer::new(n_qubits, threads, chip.clone(), *cfg, self.capacity),
            None => Tracer::with_defaults(n_qubits, threads, self.capacity),
        })
    }
}

/// Cache-line-padded atomic counter (one writer thread each; padding
/// stops the per-thread clocks from false-sharing a line).
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Per-thread busy clocks and chunk counters, fed by the pool's
/// [`RegionObserver`] hook.
struct ThreadClocks {
    busy_ns: Vec<PaddedU64>,
    chunks: Vec<PaddedU64>,
}

impl ThreadClocks {
    fn new(n_threads: usize) -> ThreadClocks {
        ThreadClocks {
            busy_ns: (0..n_threads).map(|_| PaddedU64::default()).collect(),
            chunks: (0..n_threads).map(|_| PaddedU64::default()).collect(),
        }
    }
}

/// The recording engine for one run.
///
/// Spans go into per-thread single-producer rings ([`ring::SpanRing`]);
/// the per-thread busy clocks accumulate via the pool observer. At run
/// end [`Tracer::finish`] merges everything into a [`Trace`].
pub struct Tracer {
    chip: ChipParams,
    cfg: ExecConfig,
    model: TrafficModel,
    n_qubits: u32,
    rank: i32,
    rings: Vec<SpanRing>,
    clocks: ThreadClocks,
    seq: AtomicU64,
}

impl Tracer {
    /// A tracer for an `n_qubits` run on `n_threads` threads, predicting
    /// the model side of every span under `(chip, cfg)`.
    pub fn new(
        n_qubits: u32,
        n_threads: usize,
        chip: ChipParams,
        cfg: ExecConfig,
        capacity: usize,
    ) -> Tracer {
        let capacity = if capacity == 0 { DEFAULT_RING_CAPACITY } else { capacity };
        let n_threads = n_threads.max(1);
        Tracer {
            model: TrafficModel::new(chip.clone()),
            chip,
            cfg,
            n_qubits,
            rank: -1,
            rings: (0..n_threads).map(|_| SpanRing::new(capacity)).collect(),
            clocks: ThreadClocks::new(n_threads),
            seq: AtomicU64::new(0),
        }
    }

    /// A tracer with defaults (A64FX chip, single-core config) — what
    /// the engine uses when no explicit model is attached.
    pub fn with_defaults(n_qubits: u32, n_threads: usize, capacity: usize) -> Tracer {
        Tracer::new(n_qubits, n_threads, ChipParams::a64fx(), ExecConfig::single_core(), capacity)
    }

    /// Stamp all spans recorded by this tracer with a distributed rank.
    pub fn set_rank(&mut self, rank: i32) {
        self.rank = rank;
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, thread: usize, span: Span) {
        debug_assert!(thread < self.rings.len(), "thread index outside tracer");
        // SAFETY: the engine contract — each ring index is only pushed
        // to by the thread owning it (the per-rank/serial gate loop uses
        // index 0; worker-thread recording would pass its pool index).
        unsafe { self.rings[thread].push(span) };
    }

    /// Record one executed op of a [`Program`](crate::program::Program).
    /// Traffic counters and the model-side time come from
    /// [`SweepOp::traffic`], the same figures [`perf::predict`] sums, so
    /// drift reports join on identical numbers. A gate-backed fused
    /// singleton runs its gate's own kernel and is recorded as that
    /// kernel; a measurement prices as one probability pass plus ONE
    /// collapse pass — its byte counter is the regression guard against
    /// reintroducing a second probability sweep into the collapse.
    pub fn record_op(&self, thread: usize, op: &SweepOp, wall_ns: u64) {
        let (kind, traffic) = op.traffic(&self.model, self.n_qubits);
        let span_kind = match op {
            SweepOp::BlockPass(ops) => {
                let KernelKind::FusedDense { k } = kind else {
                    unreachable!("a block pass prices as its widest fused member")
                };
                SpanKind::Block { gates: ops.len() as u32, k }
            }
            SweepOp::Measure { .. } => SpanKind::Measure,
            _ => SpanKind::Kernel(kind),
        };
        self.record_traffic(thread, span_kind, op.qubits(), kind, &traffic, wall_ns);
    }

    fn record_traffic(
        &self,
        thread: usize,
        span_kind: SpanKind,
        qubits: Vec<u32>,
        kind: KernelKind,
        traffic: &GateTraffic,
        wall_ns: u64,
    ) {
        let p =
            perf::predict_sweep(&self.chip, &self.cfg, &self.model, kind, traffic, self.n_qubits);
        self.push(
            thread,
            Span {
                seq: self.next_seq(),
                kind: span_kind,
                qubits,
                wall_ns,
                amps: traffic.amps_read,
                bytes: traffic.mem_bytes,
                flops: traffic.flops,
                model_ns: p.seconds * 1e9,
                bottleneck: p.bottleneck,
                thread: thread as u32,
                rank: self.rank,
            },
        );
    }

    /// Record one fused observable reduction (`terms` Pauli terms in
    /// `sweeps` basis-group passes). Priced by
    /// [`perf::expectation_traffic`]: read-only passes, no writebacks.
    pub fn record_reduce(&self, thread: usize, terms: usize, sweeps: usize, wall_ns: u64) {
        let traffic = perf::expectation_traffic(&self.model, self.n_qubits, terms, sweeps);
        let span_kind = SpanKind::Reduce { terms: terms as u32, sweeps: sweeps as u32 };
        let kind = KernelKind::OneQubitDiagonal;
        self.record_traffic(thread, span_kind, Vec::new(), kind, &traffic, wall_ns);
    }

    /// Record one distributed communication phase: `bytes` is the wire
    /// volume this rank moved, `amps` the amplitudes shipped.
    ///
    /// Wire phases carry a `model_ns` priced by the Tofu-D α–β link
    /// model (one logical message of `bytes`), so drift reports can
    /// compare measured exchange time against the interconnect model
    /// exactly as they compare kernels against the sweep model.
    /// [`ExchangePhase::Recovery`] moves no wire bytes of its own and
    /// stays unpriced.
    pub fn record_exchange(
        &self,
        thread: usize,
        phase: ExchangePhase,
        qubits: &[u32],
        amps: u64,
        bytes: u64,
        wall_ns: u64,
    ) {
        let model_ns = match phase {
            ExchangePhase::Recovery => 0.0,
            _ => a64fx_model::link::LinkModel::default().span_ns(bytes),
        };
        self.push(
            thread,
            Span {
                seq: self.next_seq(),
                kind: SpanKind::Exchange(phase),
                qubits: qubits.to_vec(),
                wall_ns,
                amps,
                bytes,
                flops: 0,
                model_ns,
                bottleneck: "network",
                thread: thread as u32,
                rank: self.rank,
            },
        );
    }

    /// Merge the rings into one ordered trace. Consumes the tracer; the
    /// caller must have detached it from any pool observer slot first
    /// (enforced by the `Arc::try_unwrap` the engine performs).
    pub fn finish(self, meta: RunMeta) -> Trace {
        let mut spans: Vec<Span> = Vec::new();
        let mut dropped = 0u64;
        for ring in &self.rings {
            let (ring_spans, ring_dropped) = ring.drain();
            spans.extend(ring_spans);
            dropped += ring_dropped;
        }
        spans.sort_by_key(|s| s.seq);
        let summary = TraceSummary::from_spans(&spans, dropped, &self.clocks);
        Trace { meta, spans, summary }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("n_qubits", &self.n_qubits)
            .field("rank", &self.rank)
            .field("rings", &self.rings.len())
            .field("recorded", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// The pool observer: accumulate per-thread busy time and chunk counts
/// from every worksharing region executed while tracing.
impl RegionObserver for Tracer {
    fn worksharing(&self, thread: usize, busy_nanos: u64, chunks: usize, _iters: usize) {
        if let (Some(b), Some(c)) =
            (self.clocks.busy_ns.get(thread), self.clocks.chunks.get(thread))
        {
            b.0.fetch_add(busy_nanos, Ordering::Relaxed);
            c.0.fetch_add(chunks as u64, Ordering::Relaxed);
        }
    }
}

/// Write `trace` through the sink selected by `cfg` (JSONL when a path
/// is set, no-op otherwise).
pub fn write_configured(cfg: &TelemetryConfig, trace: &Trace) -> std::io::Result<()> {
    use sink::TraceSink;
    match &cfg.trace_path {
        Some(path) => sink::JsonlSink::new(path.clone(), cfg.append).consume(trace),
        None => sink::NoopSink.consume(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Gate;
    use crate::fusion::FusedOp;
    use crate::perf::gate_traffic;

    fn tracer(n: u32) -> Tracer {
        Tracer::with_defaults(n, 2, 64)
    }

    fn record_gate(tr: &Tracer, g: &Gate, wall_ns: u64) {
        tr.record_op(0, &SweepOp::Gate(g), wall_ns);
    }

    #[test]
    fn kernel_kind_names_round_trip() {
        for k in [
            KernelKind::OneQubitDense,
            KernelKind::OneQubitDiagonal,
            KernelKind::ControlledDense,
            KernelKind::TwoQubitDiagonal,
            KernelKind::TwoQubitDense,
            KernelKind::FusedDense { k: 4 },
            KernelKind::Swap,
        ] {
            assert_eq!(kernel_kind_from_name(&kernel_kind_name(k)), Some(k));
        }
        assert_eq!(kernel_kind_from_name("tensor-core"), None);
    }

    #[test]
    fn span_kind_labels_round_trip() {
        for kind in [
            SpanKind::Kernel(KernelKind::OneQubitDense),
            SpanKind::Kernel(KernelKind::FusedDense { k: 3 }),
            SpanKind::Block { gates: 7, k: 4 },
            SpanKind::Block { gates: 2, k: 0 },
            SpanKind::Exchange(ExchangePhase::PairExchange),
            SpanKind::Exchange(ExchangePhase::GlobalSwap),
            SpanKind::Exchange(ExchangePhase::OverlapSwap),
            SpanKind::Reduce { terms: 12, sweeps: 5 },
            SpanKind::Measure,
        ] {
            assert_eq!(SpanKind::from_label(&kind.label()), Some(kind), "{}", kind.label());
        }
        assert_eq!(SpanKind::from_label("kernel:warp"), None);
    }

    #[test]
    fn recorded_span_counters_match_gate_traffic() {
        let tr = tracer(10);
        let g = Gate::H(3);
        record_gate(&tr, &g, 1234);
        let trace = tr.finish(RunMeta::default());
        assert_eq!(trace.spans.len(), 1);
        let span = &trace.spans[0];
        let expected = gate_traffic(&TrafficModel::a64fx(), &g, 10);
        assert_eq!(span.bytes, expected.mem_bytes);
        assert_eq!(span.flops, expected.flops);
        assert_eq!(span.amps, expected.amps_read);
        assert_eq!(span.wall_ns, 1234);
        assert!(span.model_ns > 0.0);
    }

    #[test]
    fn summary_aggregates_by_kind() {
        let tr = tracer(8);
        record_gate(&tr, &Gate::H(0), 100);
        record_gate(&tr, &Gate::H(1), 150);
        record_gate(&tr, &Gate::Rz(2, 0.5), 50);
        let trace = tr.finish(RunMeta::default());
        assert_eq!(trace.summary.spans, 3);
        assert_eq!(trace.summary.wall_ns, 300);
        let dense = &trace.summary.by_kind["kernel:1q-dense"];
        assert_eq!(dense.count, 2);
        assert_eq!(dense.wall_ns, 250);
        assert_eq!(trace.summary.by_kind["kernel:1q-diag"].count, 1);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let tr = Tracer::with_defaults(6, 1, 4);
        for i in 0..10 {
            record_gate(&tr, &Gate::H(i % 6), i as u64);
        }
        let trace = tr.finish(RunMeta::default());
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.summary.dropped, 6);
        // The survivors are the newest four, in order.
        let seqs: Vec<u64> = trace.spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn exchange_spans_carry_volume() {
        let mut tr = Tracer::with_defaults(8, 1, 16);
        tr.set_rank(3);
        tr.record_exchange(0, ExchangePhase::PairExchange, &[7], 256, 4096, 999);
        let trace = tr.finish(RunMeta::default());
        let s = &trace.spans[0];
        assert_eq!(s.kind, SpanKind::Exchange(ExchangePhase::PairExchange));
        assert_eq!(s.bytes, 4096);
        assert_eq!(s.rank, 3);
        assert_eq!(s.bottleneck, "network");
        // Wire phases are priced by the link model…
        let expect = a64fx_model::link::LinkModel::default().span_ns(4096);
        assert_eq!(s.model_ns, expect);
        assert!(s.model_ns > 0.0);
    }

    #[test]
    fn recovery_spans_stay_unpriced() {
        let tr = Tracer::with_defaults(8, 1, 16);
        tr.record_exchange(0, ExchangePhase::Recovery, &[2], 0, 0, 55);
        let trace = tr.finish(RunMeta::default());
        assert_eq!(trace.spans[0].model_ns, 0.0);
    }

    #[test]
    fn block_pass_span_sums_member_flops() {
        use crate::gates::matrices::DenseMatrix;
        let mk = |qubits: Vec<u32>, k: u32| {
            let matrix = DenseMatrix::identity(k);
            let class = crate::fusion::classify_matrix(&matrix);
            FusedOp {
                qubits,
                matrix,
                n_gates: 1,
                members: vec![0],
                class,
                active_nnz: 0,
                gate: None,
            }
        };
        let ops = vec![SweepOp::Fused(mk(vec![0, 1], 2)), SweepOp::Fused(mk(vec![1, 2, 3], 3))];
        let tr = tracer(10);
        tr.record_op(0, &SweepOp::BlockPass(ops), 500);
        let trace = tr.finish(RunMeta::default());
        let s = &trace.spans[0];
        assert_eq!(s.kind, SpanKind::Block { gates: 2, k: 3 });
        let amps = 1u64 << 10;
        assert_eq!(s.flops, amps * (8 << 2) + amps * (8 << 3));
    }

    #[test]
    fn reduce_span_prices_read_only_group_sweeps() {
        let tr = tracer(12);
        tr.record_reduce(0, 9, 3, 777);
        let trace = tr.finish(RunMeta::default());
        let s = &trace.spans[0];
        assert_eq!(s.kind, SpanKind::Reduce { terms: 9, sweeps: 3 });
        let expected = crate::perf::expectation_traffic(&TrafficModel::a64fx(), 12, 9, 3);
        assert_eq!(s.bytes, expected.mem_bytes);
        assert_eq!(s.flops, expected.flops);
        assert_eq!(s.amps, expected.amps_read);
        assert_eq!(s.wall_ns, 777);
    }

    #[test]
    fn measure_span_prices_single_pass_collapse() {
        let tr = tracer(10);
        tr.record_op(0, &SweepOp::Measure { q: 4, creg: 0 }, 321);
        let trace = tr.finish(RunMeta::default());
        let s = &trace.spans[0];
        assert_eq!(s.kind, SpanKind::Measure);
        assert_eq!(s.qubits, vec![4]);
        // One probability fill + one collapse fill + writeback: 48 B/amp.
        // A double-probability collapse would price 64 B/amp instead.
        assert_eq!(s.bytes, 48 << 10);
        assert_eq!(s.amps, 2 << 10);
    }

    #[test]
    fn busy_imbalance_of_idle_trace_is_zero() {
        let tr = tracer(6);
        let trace = tr.finish(RunMeta::default());
        assert_eq!(trace.summary.busy_imbalance(), 0.0);
    }
}
