//! Shared infrastructure for the experiment harness.
//!
//! Each `src/bin/eN_*.rs` binary regenerates one reconstructed
//! table/figure (see DESIGN.md's experiment index). This library holds
//! the pieces they share: wall-clock measurement, table rendering, the
//! one result writer ([`Record`]), and the address-stream replayer that
//! validates the analytical traffic model against the executable cache
//! simulator (E6).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use a64fx_model::cache::MemoryHierarchy;
use qcs_core::complex::C64;
use qcs_core::json::{quote, Value};
use qcs_core::kernels::index::insert_zero_bit;
use qcs_core::kernels::simd;
use qcs_core::state::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Wall-clock a closure: one warm-up call, then the minimum of `reps`
/// timed calls (minimum filters scheduler noise for short kernels).
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// A deterministic random state for benchmarking.
pub fn bench_state(n: u32, seed: u64) -> StateVector {
    let mut rng = StdRng::seed_from_u64(seed);
    StateVector::random(n, &mut rng)
}

/// Render a fixed-width text table (the harness's "figure").
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Column widths: max of header and cells.
    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }

    /// Print to stdout with a separator line under the header.
    pub fn print(&self) {
        let w = self.widths();
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = w[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!("{}", w.iter().map(|&x| "-".repeat(x)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Named values in the order they are written.
pub type Fields = Vec<(&'static str, Value)>;

/// One experiment's machine-readable result: its name, the host stamp
/// ([`host`]), headline fields and named tables of rows. Every
/// `results/BENCH_<file>.json` is one record, written by [`Record::write`].
pub struct Record {
    experiment: &'static str,
    host: Value,
    headline: Fields,
    tables: Vec<(&'static str, Vec<Fields>)>,
}

impl Record {
    /// An empty record for `experiment`, stamped with this host.
    pub fn new(experiment: &'static str) -> Record {
        Record { experiment, host: host(), headline: Vec::new(), tables: Vec::new() }
    }

    pub fn headline(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Record {
        self.headline.push((key, value.into()));
        self
    }

    pub fn table(&mut self, key: &'static str, rows: Vec<Fields>) -> &mut Record {
        self.tables.push((key, rows));
        self
    }

    /// The record as one JSON object: one headline field and one table
    /// row per line, keys in insertion order.
    fn to_json(&self) -> String {
        let mut out =
            format!("{{\n  \"experiment\": {},\n  \"host\": {}", quote(self.experiment), self.host);
        let _ =
            write!(out, ",\n  \"headline\": {{\n    {}\n  }}", members(&self.headline, ",\n    "));
        for (key, rows) in &self.tables {
            let _ = write!(out, ",\n  {}: [", quote(key));
            for (i, row) in rows.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\n    {{{}}}", members(row, ", "));
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Write `results/BENCH_<file>.json` and say where it went.
    pub fn write(&self, file: &str) {
        match self.write_in(Path::new("results"), file) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\ncould not write results/BENCH_{file}.json: {e}"),
        }
    }

    /// Write `<dir>/BENCH_<file>.json`, creating `dir` if needed.
    fn write_in(&self, dir: &Path, file: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{file}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// `"key": value` pairs joined by `sep`.
fn members(fields: &Fields, sep: &str) -> String {
    let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    pairs.join(sep)
}

/// The host facts every record carries: architecture, logical CPUs,
/// CPU model, the kernel backends this host runs and the active one.
pub fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let backends = simd::available().iter().map(|b| Value::from(b.name)).collect();
    Value::Obj(BTreeMap::from([
        ("arch".to_string(), Value::from(std::env::consts::ARCH)),
        ("nproc".to_string(), Value::from(threads())),
        ("cpu".to_string(), Value::from(cpu)),
        ("backends".to_string(), Value::Arr(backends)),
        ("active".to_string(), Value::from(simd::active().name)),
    ]))
}

/// Logical CPUs this process may use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Format seconds with an adaptive unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Format bytes/s as GB/s.
pub fn fmt_gbs(bps: f64) -> String {
    format!("{:.1} GB/s", bps / 1e9)
}

/// Effective memory traffic of one dense 1q sweep on `n` qubits
/// (read + write every amplitude).
pub fn sweep_bytes(n: u32) -> u64 {
    (1u64 << n) * 32
}

/// Replay the exact address stream of a dense 1-qubit gate sweep through
/// a cache hierarchy (base address 0, 16 B amplitudes).
pub fn replay_1q_stream(hier: &mut MemoryHierarchy, n: u32, t: u32) {
    let half = 1usize << (n - 1);
    let bit = 1u64 << t;
    for i in 0..half {
        let i0 = insert_zero_bit(i, t) as u64;
        let i1 = i0 | bit;
        hier.access(i0 * 16, 16, false);
        hier.access(i1 * 16, 16, false);
        hier.access(i0 * 16, 16, true);
        hier.access(i1 * 16, 16, true);
    }
}

/// Replay the address stream of a controlled 1q gate (control `c`,
/// target `t`): only control-set amplitudes are touched.
pub fn replay_controlled_stream(hier: &mut MemoryHierarchy, n: u32, c: u32, t: u32) {
    let quarter = 1usize << (n - 2);
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    let cbit = 1u64 << c;
    let tbit = 1u64 << t;
    for i in 0..quarter {
        let base = qcs_core::kernels::index::insert_two_zero_bits(i, lo, hi) as u64;
        let i0 = base | cbit;
        let i1 = i0 | tbit;
        hier.access(i0 * 16, 16, false);
        hier.access(i1 * 16, 16, false);
        hier.access(i0 * 16, 16, true);
        hier.access(i1 * 16, 16, true);
    }
}

/// Sum of |amp|² — cheap correctness guard inside benches (optimizer
/// cannot drop a sweep whose result feeds this).
pub fn checksum(amps: &[C64]) -> f64 {
    amps.iter().map(|a| a.norm_sqr()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use a64fx_model::ChipParams;

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        assert_eq!(t.widths(), vec![3, 4]);
        t.print(); // smoke: no panic
    }

    #[test]
    fn fmt_units() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(2.5e-3), "2.500 ms");
        assert_eq!(fmt_secs(2.5e-6), "2.500 µs");
        assert_eq!(fmt_secs(2.5e-9), "2.5 ns");
        assert_eq!(fmt_gbs(256.0e9), "256.0 GB/s");
    }

    #[test]
    fn record_file_parses_back() {
        let awkward = "say \"hi\"\\ then\nbreak";
        let mut record = Record::new("writer_test");
        record
            .headline("note", awkward)
            .headline("count", 7u32)
            .headline("ratio", 0.125)
            .headline("nan", f64::NAN)
            .headline("inf", f64::INFINITY)
            .headline("flag", true)
            .headline("missing", None::<u32>)
            .table(
                "rows",
                vec![
                    vec![("name", Value::from(awkward)), ("secs", Value::from(1.5e-9))],
                    vec![("name", Value::from("b")), ("secs", Value::from(f64::NEG_INFINITY))],
                ],
            );
        let dir = std::env::temp_dir().join(format!("qcs-bench-record-{}", std::process::id()));
        let path = record.write_in(&dir, "writer_test").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let v = qcs_core::json::parse(&text).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("writer_test"));
        let headline = v.get("headline").unwrap();
        assert_eq!(headline.get("note").unwrap().as_str(), Some(awkward));
        assert_eq!(headline.get("count").unwrap().as_u64(), Some(7));
        assert_eq!(headline.get("ratio").unwrap().as_f64(), Some(0.125));
        assert_eq!(headline.get("nan"), Some(&Value::Null));
        assert_eq!(headline.get("inf"), Some(&Value::Null));
        assert_eq!(headline.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(headline.get("missing"), Some(&Value::Null));
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some(awkward));
        assert_eq!(rows[0].get("secs").unwrap().as_f64(), Some(1.5e-9));
        assert_eq!(rows[1].get("secs"), Some(&Value::Null));
        let host = v.get("host").unwrap();
        assert_eq!(host.get("arch").unwrap().as_str(), Some(std::env::consts::ARCH));
        assert_eq!(host.get("nproc").unwrap().as_u64(), Some(threads() as u64));
        assert!(host.get("cpu").unwrap().as_str().is_some());
        assert_eq!(host.get("active").unwrap().as_str(), Some(simd::active().name));
        assert!(!host.get("backends").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn time_best_positive() {
        let t = time_best(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t > 0.0);
    }

    #[test]
    fn replay_matches_analytic_traffic_cold() {
        // Dense 1q sweep over a state far beyond L2: measured memory
        // traffic must equal the analytical 2 × state bytes (fills +
        // writebacks), within the tail of unevicted dirty lines.
        let chip = ChipParams::a64fx();
        let n = 21u32; // 32 MiB state > 8 MiB L2
        for t in [2u32, 12, 20] {
            let mut hier = MemoryHierarchy::new(chip.l1d, chip.l2);
            replay_1q_stream(&mut hier, n, t);
            hier.drain();
            let measured = hier.stats().l2_mem_bytes;
            let expected = sweep_bytes(n);
            let ratio = measured as f64 / expected as f64;
            assert!(
                (0.98..1.02).contains(&ratio),
                "t={t}: measured {measured} vs expected {expected} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn replay_cache_resident_state_has_little_mem_traffic() {
        let chip = ChipParams::a64fx();
        let n = 15u32; // 512 KiB < 8 MiB L2
        let mut hier = MemoryHierarchy::new(chip.l1d, chip.l2);
        replay_1q_stream(&mut hier, n, 3); // warm
        hier.reset_stats();
        replay_1q_stream(&mut hier, n, 3);
        assert_eq!(hier.stats().l2_mem_bytes, 0, "L2-resident sweep must not hit memory");
    }

    #[test]
    fn controlled_replay_high_control_halves_traffic() {
        let chip = ChipParams::a64fx();
        let n = 20u32;
        let mut hi = MemoryHierarchy::new(chip.l1d, chip.l2);
        replay_controlled_stream(&mut hi, n, 12, 5);
        hi.drain();
        let mut lo = MemoryHierarchy::new(chip.l1d, chip.l2);
        replay_controlled_stream(&mut lo, n, 1, 5);
        lo.drain();
        let hi_bytes = hi.stats().l2_mem_bytes as f64;
        let lo_bytes = lo.stats().l2_mem_bytes as f64;
        let ratio = lo_bytes / hi_bytes;
        assert!(
            (1.9..2.1).contains(&ratio),
            "low control should touch ~2× the lines: {lo_bytes} vs {hi_bytes}"
        );
    }
}
