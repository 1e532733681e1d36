//! E17 — serving throughput: the job server over the batch engine.
//!
//! Starts an in-process `qcs-serve` server on a loopback socket and
//! drives it the way a fleet of tenants would, at mixed widths:
//!
//! 1. **serial**: jobs submitted one at a time, each waited on before
//!    the next — every job runs as a batch of one (the no-service
//!    baseline shape);
//! 2. **packed**: the same jobs submitted together inside the packing
//!    window, so the scheduler serves them from one batch;
//! 3. **cached**: the packed round resubmitted verbatim — every job is
//!    answered from the result cache without touching the engine.
//!
//! The packed-vs-serial gain is what one batch saves over N batches of
//! one: the packed jobs differ only in tenant and seed, so they are six
//! copies of one circuit and the scheduler simulates it once, then
//! samples each job's counts from that one state; the serial round
//! simulates it six times and waits out six packing windows. Results
//! land in `results/BENCH_serve.json`.

use qcs_bench::{fmt_secs, Table};
use qcs_serve::client::{http_request, submit_job, wait_for_job};
use qcs_serve::{ServeConfig, Server};
use std::time::Instant;

/// Widths of the mixed workload; each gets its own batch group.
const WIDTHS: [u32; 3] = [8, 10, 12];
/// Independent submissions (distinct tenants and seeds) per width.
const JOBS_PER_WIDTH: usize = 6;
/// Entangling layers in the benchmark circuit.
const DEPTH: usize = 4;
const SHOTS: u64 = 256;

/// The benchmark circuit as a gate-list submission body: `DEPTH` layers
/// of H + CX-chain + RZ — enough real sweep work that serving overhead
/// doesn't dominate.
fn submission(n: u32, tenant: &str, seed: u64) -> String {
    let mut gates = String::new();
    for layer in 0..DEPTH {
        for q in 0..n {
            gates.push_str(&format!("{{\"gate\":\"h\",\"q\":[{q}]}},"));
        }
        for q in 0..n - 1 {
            gates.push_str(&format!("{{\"gate\":\"cx\",\"q\":[{q},{}]}},", q + 1));
        }
        for q in 0..n {
            gates.push_str(&format!(
                "{{\"gate\":\"rz\",\"q\":[{q}],\"theta\":{}}},",
                0.1 * (layer as f64 + 1.0) + q as f64 * 0.01
            ));
        }
    }
    gates.pop(); // trailing comma
    format!(
        "{{\"tenant\":\"{tenant}\",\"n\":{n},\"shots\":{SHOTS},\"seed\":{seed},\
         \"strategy\":\"fused:3\",\"backend\":\"auto\",\"circuit\":[{gates}]}}"
    )
}

struct Row {
    n: u32,
    jobs: usize,
    serial_s: f64,
    packed_s: f64,
    cached_s: f64,
    measured_speedup: f64,
}

fn drive_width(server: &Server, n: u32, rows: &mut Vec<Row>) {
    let addr = server.addr();

    // Serial: one at a time, so the scheduler never sees two jobs.
    let t0 = Instant::now();
    for i in 0..JOBS_PER_WIDTH {
        let id = submit_job(addr, &submission(n, &format!("serial-{n}-{i}"), i as u64)).unwrap();
        assert_eq!(wait_for_job(addr, id).unwrap(), "done");
    }
    let serial_s = t0.elapsed().as_secs_f64();

    // Packed: all submissions land inside one packing window.
    let t0 = Instant::now();
    let ids: Vec<u64> = (0..JOBS_PER_WIDTH)
        .map(|i| {
            submit_job(addr, &submission(n, &format!("packed-{n}-{i}"), 1_000 + i as u64)).unwrap()
        })
        .collect();
    for &id in &ids {
        assert_eq!(wait_for_job(addr, id).unwrap(), "done");
    }
    let packed_s = t0.elapsed().as_secs_f64();

    // Every packed job must actually have shared one batch: one
    // simulation serving all six jobs' points.
    for &id in &ids {
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}"), "").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains(&format!("\"members\":{JOBS_PER_WIDTH}")),
            "packed job {id} did not share the batch: {body}"
        );
    }

    // Cached: the packed round again, byte-for-byte — pure cache hits.
    let t0 = Instant::now();
    for i in 0..JOBS_PER_WIDTH {
        let id =
            submit_job(addr, &submission(n, &format!("packed-{n}-{i}"), 1_000 + i as u64)).unwrap();
        assert_eq!(wait_for_job(addr, id).unwrap(), "done");
    }
    let cached_s = t0.elapsed().as_secs_f64();

    rows.push(Row {
        n,
        jobs: JOBS_PER_WIDTH,
        serial_s,
        packed_s,
        cached_s,
        measured_speedup: serial_s / packed_s,
    });
}

fn write_json(rows: &[Row], jobs_per_sec: f64, pack_rate: f64, cache_hit_rate: f64) {
    let body: String = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"jobs\": {}, \"serial_seconds\": {:.6}, \
                 \"packed_seconds\": {:.6}, \"cached_seconds\": {:.6}, \
                 \"measured_amortization\": {:.4}}}",
                r.n, r.jobs, r.serial_s, r.packed_s, r.cached_s, r.measured_speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"e17_serve\",\n  \"headline\": {{\n\
         \x20   \"jobs_per_sec\": {jobs_per_sec:.2},\n\
         \x20   \"batch_pack_rate\": {pack_rate:.4},\n\
         \x20   \"cache_hit_rate\": {cache_hit_rate:.4},\n\
         \x20   \"note\": \"packed/serial is measured on this host: one batch \
         that simulates the six jobs' one circuit once, against six batches of \
         one and six packing windows\"\n  }},\n\
         \x20 \"rows\": [\n{body}\n  ]\n}}\n"
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/BENCH_serve.json", &json) {
        Ok(()) => println!("\nwrote results/BENCH_serve.json"),
        Err(e) => eprintln!("\ncould not write results/BENCH_serve.json: {e}"),
    }
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()).min(4);
    let cfg = ServeConfig {
        // Wide enough that a burst of local submissions always packs.
        window_ms: 30,
        threads,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    println!("e17_serve: {} worker thread(s), window 30 ms, widths {WIDTHS:?}", threads);

    let t0 = Instant::now();
    let mut rows = Vec::new();
    for &n in &WIDTHS {
        drive_width(&server, n, &mut rows);
    }
    let wall = t0.elapsed().as_secs_f64();

    let stats = server.stats();
    assert!(
        stats.max_batch_members as usize >= JOBS_PER_WIDTH,
        "scheduler never packed a full group: {stats:?}"
    );
    let jobs_per_sec = stats.completed as f64 / wall;
    let pack_rate = stats.packed_jobs as f64 / stats.completed.max(1) as f64;
    let cache_hit_rate =
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;

    let mut table = Table::new(&["n", "jobs", "serial", "packed", "cached", "measured x"]);
    for r in &rows {
        table.row(&[
            r.n.to_string(),
            r.jobs.to_string(),
            fmt_secs(r.serial_s),
            fmt_secs(r.packed_s),
            fmt_secs(r.cached_s),
            format!("{:.2}", r.measured_speedup),
        ]);
    }
    table.print();

    println!();
    println!(
        "{} jobs in {}: {jobs_per_sec:.1} jobs/s; pack rate {:.0}%; cache hit rate {:.0}%",
        stats.completed,
        fmt_secs(wall),
        pack_rate * 100.0,
        cache_hit_rate * 100.0,
    );
    println!(
        "largest batch served {} points, one per independent submission (window 30 ms)",
        stats.max_batch_members
    );
    println!();
    println!("Expected shape: the serial column pays a packing window, a simulation and an");
    println!("HTTP round trip per job; the packed column pays one window and one simulation");
    println!("for all six jobs (they are one circuit), then samples each job's counts. The");
    println!("cached column is pure lookup: no engine time at all.");

    write_json(&rows, jobs_per_sec, pack_rate, cache_hit_rate);
    server.shutdown();
}
