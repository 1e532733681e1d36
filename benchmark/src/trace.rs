//! In-memory spans recorded by the harness around its own calls into
//! each layer, written out as JSONL when the traced pass ends.
//!
//! A layer's self time is its spans' duration minus the part of each
//! span's interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Repetition (or, for `serve-mixed`, job id): the identifier the
    /// spans of one operation share.
    pub rep: u64,
}

/// Span recorder shared by the harness threads of one traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, parent: Option<u32>, layer: &'static str, name: &str, rep: u64) -> u32 {
        self.begin_at(parent, layer, name, rep, self.now_ns())
    }

    /// Open a span that started at `start_ns` (from [`Tracer::now_ns`]):
    /// for work whose identifier is known only once it has begun.
    pub fn begin_at(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        name: &str,
        rep: u64,
        start_ns: u64,
    ) -> u32 {
        let mut spans = self.spans.lock().expect("no recorder panics while holding the lock");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            rep,
        });
        id
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no recorder panics while holding the lock");
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Run `work` inside a span; returns its result and the duration.
    pub fn span<T>(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        name: &str,
        rep: u64,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(parent, layer, name, rep);
        let out = work();
        (out, self.end(id))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no recorder panics while holding the lock").clone()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time in seconds per layer, summed over all spans.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = match children.get_mut(&s.id) {
            Some(kids) => covered_ns(s.start_ns, s.end_ns, kids),
            None => 0,
        };
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// One JSON object per span: `{id, parent, layer, name, start_ns,
/// end_ns, workload, rep}`.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\
             \"workload\":{},\"rep\":{}}}",
            s.id,
            parent,
            crate::json::quote(s.layer),
            crate::json::quote(&s.name),
            s.start_ns,
            s.end_ns,
            crate::json::quote(workload),
            s.rep,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, layer, name: String::new(), start_ns: start, end_ns: end, rep: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // root 0..100; kernels 10..40 and 50..90; omp 20..30 inside the first.
        let spans = [
            span(0, None, "harness", 0, 100),
            span(1, Some(0), "kernels", 10, 40),
            span(2, Some(0), "kernels", 50, 90),
            span(3, Some(1), "omp", 20, 30),
        ];
        let by = self_seconds_by_layer(&spans);
        assert!((by["harness"] - 30e-9).abs() < 1e-18);
        assert!((by["kernels"] - 60e-9).abs() < 1e-18);
        assert!((by["omp"] - 10e-9).abs() < 1e-18);
        let total: f64 = by.values().sum();
        assert!((total - 100e-9).abs() < 1e-18, "self times partition the root span");
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span(0, None, "serve", 100, 200),
            span(1, Some(0), "kernels", 110, 150),
            span(2, Some(0), "kernels", 140, 180),
            span(3, Some(0), "kernels", 190, 260),
        ];
        let by = self_seconds_by_layer(&spans);
        // cover = [110,180) + [190,200) = 80 of 100
        assert!((by["serve"] - 20e-9).abs() < 1e-18);
    }

    #[test]
    fn recorder_nests_and_round_trips_to_jsonl() {
        let t = Tracer::new();
        let root = t.begin(None, "harness", "solve", 3);
        let ((), inner) = t.span(Some(root), "kernels", "h", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = t.end(root);
        assert!(inner >= 2e-3 && outer >= inner);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        let dir = crate::host::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        write_jsonl(&path, "unit", &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = crate::json::parse(lines[1]).unwrap();
        assert_eq!(v.get("layer").and_then(|l| l.as_str()), Some("kernels"));
        assert_eq!(v.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("unit"));
        assert_eq!(v.get("rep").and_then(|r| r.as_f64()), Some(3.0));
    }
}
