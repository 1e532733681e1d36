//! `serve-mixed`: a closed loop of optimiser-style clients against the
//! job server over loopback HTTP. `serve` (http, json, admission, the
//! packing window, the result cache) dominates; the kernels are a
//! minority share; `omp`, fusion and dist do none of the work.
//!
//! Closed, because the server's real callers are optimiser loops that
//! wait for energies: each of [`CLIENTS`] clients submits a burst of
//! [`BURST`] jobs, polls them round-robin until done, fetches the
//! results, and only then submits its next burst. One timed operation
//! is one *round*: a fresh server and every client working through its
//! whole deck, so every round is the same work and memory stays one
//! round's.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use a64fx_qcs::core::batch::BatchSimulator;
use a64fx_qcs::core::config::SimConfig;
use a64fx_qcs::core::measure::sample_counts;
use a64fx_qcs::core::qasm;
use a64fx_qcs::core::state::StateVector;
use a64fx_qcs::serve::{JobSpec, ServeConfig, Server, ServerStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{best_of_runs, repeat_for, run_window, timed, Ctx, Layers, Measured, Ops, Workload};
use crate::json::{self, quote, Value};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;

/// The two clients; the server's one simulation thread shares the
/// processors with them.
pub const THREADS: usize = 2;
const CLIENTS: usize = THREADS;
const BURST: usize = 4;
/// Bursts per client per round; a multiple of the 15-burst cycle over
/// which job kinds and widths repeat.
const BURSTS: usize = 30;
const WIDTHS: [u32; 3] = [12, 14, 16];
const SHOTS: u64 = 256;
const SWEEP_POINTS: usize = 8;
const POLL_EVERY: Duration = Duration::from_millis(1);
/// One job in this many is checked against a direct simulation.
const SAMPLE_ONE_IN: usize = 100;

// ---------------------------------------------------------------------------
// The seeded job mix
// ---------------------------------------------------------------------------

enum G {
    H(u32),
    Cx(u32, u32),
    Rz(u32, f64),
}

/// Four H/CX/RZ layers on `n` qubits with seeded angles, each kind on
/// every fourth qubit so that a job's simulation stays a minority of
/// its latency. The layout depends on `n` alone, so the work does not
/// depend on the seed.
fn layers(n: u32, rng: &mut StdRng) -> Vec<G> {
    let mut gates = Vec::new();
    for layer in 0..4 {
        for q in (layer..n).step_by(4) {
            gates.push(G::H(q));
        }
        for q in (layer..n - 1).step_by(4) {
            gates.push(G::Cx(q, q + 1));
        }
        for q in ((layer + 2) % 4..n).step_by(4) {
            gates.push(G::Rz(q, rng.gen_range(0.0..std::f64::consts::TAU)));
        }
    }
    gates
}

/// The gate-list form. With `params`, the first `params` rotations
/// carry parameter slots instead of angles.
fn gate_list(gates: &[G], params: usize) -> String {
    let mut slot = 0;
    let items: Vec<String> = gates
        .iter()
        .map(|g| match *g {
            G::H(q) => format!("{{\"gate\":\"h\",\"q\":[{q}]}}"),
            G::Cx(a, b) => format!("{{\"gate\":\"cx\",\"q\":[{a},{b}]}}"),
            G::Rz(q, _) if slot < params => {
                slot += 1;
                format!("{{\"gate\":\"rz\",\"q\":[{q}],\"param\":{}}}", slot - 1)
            }
            G::Rz(q, theta) => format!("{{\"gate\":\"rz\",\"q\":[{q}],\"theta\":{theta:?}}}"),
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn qasm_program(n: u32, gates: &[G]) -> String {
    let mut src = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
    for g in gates {
        src.push_str(&match *g {
            G::H(q) => format!("h q[{q}];\n"),
            G::Cx(a, b) => format!("cx q[{a}],q[{b}];\n"),
            G::Rz(q, theta) => format!("rz({theta:.15}) q[{q}];\n"),
        });
    }
    src
}

/// One submission and how many result blocks it must come back with.
pub struct Job {
    pub body: String,
    /// 1, or the number of sweep points.
    pub blocks: usize,
}

fn body(tenant: usize, n: u32, seed: u64, rest: &str) -> String {
    format!(
        "{{\"tenant\":\"tenant-{tenant}\",\"n\":{n},\"shots\":{SHOTS},\"seed\":{seed},\
         \"strategy\":\"naive\",{rest}}}"
    )
}

/// One client's jobs for a round, `BURST` per burst. Per burst: jobs 0
/// and 1 are one circuit under two tenants and two sampling seeds (so
/// the scheduler can pack them into one batch); job 2 carries four
/// Pauli observables, or arrives as OpenQASM, or is an 8-point
/// parameter sweep; job 3 resubmits an earlier job verbatim (a cache
/// hit beside the misses) or is one more plain job. Over a round that
/// is about 20 % resubmissions, 10 % observables, 10 % OpenQASM and
/// 5 % sweeps, in fixed positions: the seed draws angles, never the
/// mix.
pub fn deck(seed: u64, client: usize, widths: [u32; 3], bursts: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (client as u64 + 1)));
    let mut jobs: Vec<Job> = Vec::with_capacity(bursts * BURST);
    for b in 0..bursts {
        let n = widths[b % 3];
        let job_seed = |slot: usize| (client * bursts * BURST + b * BURST + slot) as u64;
        let plain = |tenant: usize, slot: usize, gates: &[G]| Job {
            body: body(tenant, n, job_seed(slot), &format!("\"circuit\":{}", gate_list(gates, 0))),
            blocks: 1,
        };
        let shared = layers(n, &mut rng);
        jobs.push(plain(b % 4, 0, &shared));
        jobs.push(plain((b + 1) % 4, 1, &shared));
        let special = layers(n, &mut rng);
        jobs.push(match b % 5 {
            0 | 1 => Job {
                body: body(
                    (b + 2) % 4,
                    n,
                    job_seed(2),
                    &format!(
                        "\"circuit\":{},\"observables\":[\"Z0 Z1\",\"X2\",\"Y1 Z3\",\"Z{}\"]",
                        gate_list(&special, 0),
                        n - 1
                    ),
                ),
                blocks: 1,
            },
            2 | 3 => Job {
                body: body(
                    (b + 2) % 4,
                    n,
                    job_seed(2),
                    &format!("\"qasm\":{}", quote(&qasm_program(n, &special))),
                ),
                blocks: 1,
            },
            _ => {
                let n = widths[0];
                let template = layers(n, &mut rng);
                let points: Vec<String> = (0..SWEEP_POINTS)
                    .map(|_| {
                        let p: Vec<String> = (0..4)
                            .map(|_| format!("{:?}", rng.gen_range(0.0..std::f64::consts::TAU)))
                            .collect();
                        format!("[{}]", p.join(","))
                    })
                    .collect();
                Job {
                    body: body(
                        (b + 2) % 4,
                        n,
                        job_seed(2),
                        &format!(
                            "\"circuit\":{},\"points\":[{}]",
                            gate_list(&template, 4),
                            points.join(",")
                        ),
                    ),
                    blocks: SWEEP_POINTS,
                }
            }
        });
        // A resubmission copies the first job of two bursts ago, which
        // completed before this burst was sent.
        jobs.push(if b % 5 != 4 && b >= 2 {
            let earlier = &jobs[(b - 2) * BURST];
            Job { body: earlier.body.clone(), blocks: earlier.blocks }
        } else {
            plain((b + 3) % 4, 3, &layers(n, &mut rng))
        });
    }
    jobs
}

// ---------------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------------

/// One request on its own connection, as `serve::client::http_request`
/// sends it at this commit. The load generator keeps its own copy so
/// that a later change to the shipped client cannot change the load
/// this workload puts on the server. A kept-alive connection is no
/// alternative at this commit: the
/// server writes a reply's head and body separately without
/// `TCP_NODELAY`, so every reply on a persistent connection waits out
/// the client's 40 ms delayed ACK (a round measured 15.8 s instead of
/// 0.45 s).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    Ok((status, body.to_string()))
}

/// `(counts, expectation bits)` of one point of a result body, as the
/// oracle compares them.
type Block = (Vec<(u64, u64)>, Vec<u64>);
type Blocks = Vec<Block>;

fn result_blocks(body: &str) -> Result<Blocks, String> {
    let v = json::parse(body)?;
    let block = |b: &Value| -> Option<Block> {
        let counts = b
            .get("counts")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr()?;
                Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
            })
            .collect::<Option<_>>()?;
        let values = b
            .get("expectations")?
            .as_arr()?
            .iter()
            .map(|e| Some(e.get("value")?.as_f64()?.to_bits()))
            .collect::<Option<_>>()?;
        Some((counts, values))
    };
    match v.get("results").and_then(Value::as_arr) {
        Some(points) => points.iter().map(block).collect::<Option<_>>(),
        None => block(&v).map(|b| vec![b]),
    }
    .ok_or_else(|| "result body has no counts/expectations".to_string())
}

/// Every block's counts must sum to the shots asked for.
fn check_result(body: &str, job: &Job) -> Result<(), String> {
    let blocks = result_blocks(body)?;
    if blocks.len() != job.blocks {
        return Err(format!("{} result blocks, expected {}", blocks.len(), job.blocks));
    }
    for (counts, _) in &blocks {
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        if total != SHOTS {
            return Err(format!("counts sum to {total}, expected {SHOTS}"));
        }
    }
    Ok(())
}

/// What the clients recorded over the rounds since the last reset.
#[derive(Default)]
struct Records {
    /// Submit→result-fetched latency of every job, round after round.
    latency_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    result_ms: Vec<f64>,
}

/// What one client brings back from a round.
#[derive(Default)]
struct ClientRound {
    records: Records,
    ops: Ops,
    /// `(index into the deck, result body)` of the sampled jobs.
    sampled: Vec<(usize, String)>,
}

/// A job in flight: where it sits in the deck, its id, when it was
/// submitted, and its job and wait spans when tracing.
struct InFlight {
    index: usize,
    id: u64,
    submitted: Instant,
    spans: Option<(u32, u32)>,
}

fn job_status(addr: SocketAddr, id: u64) -> Option<String> {
    let (code, text) = http(addr, "GET", &format!("/jobs/{id}"), "").ok()?;
    if code != 200 {
        return None;
    }
    json::parse(&text).ok()?.get("status")?.as_str().map(str::to_string)
}

/// Work through `jobs` burst by burst. With a tracer, every job gets
/// a span whose children are its submit, its wait and its fetch; the
/// job id is the identifier they share.
fn client_round(
    addr: SocketAddr,
    client: usize,
    jobs: &[Job],
    tracer: Option<&Tracer>,
) -> ClientRound {
    let mut out = ClientRound::default();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for (b, burst) in jobs.chunks(BURST).enumerate() {
        let mut pending: Vec<InFlight> = Vec::new();
        for (slot, job) in burst.iter().enumerate() {
            let index = b * BURST + slot;
            out.ops.attempted += 1;
            let start_ns = tracer.map(Tracer::now_ns);
            let submitted = Instant::now();
            let reply = http(addr, "POST", "/jobs", &job.body);
            out.records.submit_ms.push(ms(submitted));
            let id = match &reply {
                Ok((202, text)) => {
                    json::parse(text).ok().and_then(|v| v.get("job_id").and_then(Value::as_u64))
                }
                _ => None,
            };
            let Some(id) = id else {
                eprintln!("client {client}: submit of job {index} failed: {reply:?}");
                out.ops.failed += 1;
                continue;
            };
            // The id is known only now; the spans start when the submit did.
            let spans = tracer.zip(start_ns).map(|(t, start_ns)| {
                let job = t.begin_at(None, "serve", "job", id, start_ns);
                t.end(t.begin_at(Some(job), "serve", "submit", id, start_ns));
                (job, t.begin(Some(job), "serve", "wait", id))
            });
            pending.push(InFlight { index, id, submitted, spans });
        }
        let mut next = 0;
        while !pending.is_empty() {
            next %= pending.len();
            let id = pending[next].id;
            let t = Instant::now();
            let status = job_status(addr, id);
            out.records.poll_ms.push(ms(t));
            if matches!(status.as_deref(), Some("queued" | "running")) {
                next += 1;
                std::thread::sleep(POLL_EVERY);
                continue;
            }
            let job = pending.remove(next);
            let fetch_span = tracer.zip(job.spans).map(|(t, (job_span, wait_span))| {
                t.end(wait_span);
                t.begin(Some(job_span), "serve", "result", id)
            });
            let fetched = if status.as_deref() == Some("done") {
                let t = Instant::now();
                let fetched = http(addr, "GET", &format!("/jobs/{id}/result"), "");
                out.records.result_ms.push(ms(t));
                out.records.latency_ms.push(ms(job.submitted));
                fetched.map_err(|e| e.to_string())
            } else {
                Err(format!("ended as {status:?}"))
            };
            if let (Some(t), Some(fetch), Some((job_span, _))) = (tracer, fetch_span, job.spans) {
                t.end(fetch);
                t.end(job_span);
            }
            let checked = fetched.and_then(|(code, text)| match code {
                200 => check_result(&text, &jobs[job.index]).map(|()| text),
                other => Err(format!("result fetch returned {other}: {text}")),
            });
            match checked {
                Ok(text) if job.index % SAMPLE_ONE_IN == client => {
                    out.sampled.push((job.index, text))
                }
                Ok(_) => {}
                Err(why) => {
                    eprintln!("client {client}: job {id}: {why}");
                    out.ops.failed += 1;
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Direct simulation of a job, for the oracle and the compute baseline
// ---------------------------------------------------------------------------

/// The job's result blocks computed without a server: parse, run
/// through the batch engine, sample, reduce.
fn direct_blocks(engine: &BatchSimulator, body: &str) -> Result<Blocks, String> {
    let spec = JobSpec::parse(body).map_err(|e| e.to_string())?;
    let states: Vec<StateVector> = match &spec.ansatz {
        Some(template) => {
            let circuits: Vec<_> = spec.points.iter().map(|p| template.bind(p)).collect();
            let mut states: Vec<StateVector> =
                circuits.iter().map(|c| StateVector::zero(c.n_qubits())).collect();
            engine.run_sweep(&circuits, &mut states).map_err(|e| e.to_string())?;
            states
        }
        None => engine.run_fresh(&spec.circuit).map_err(|e| e.to_string())?.0,
    };
    Ok(states
        .iter()
        .enumerate()
        .map(|(i, state)| {
            let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(i as u64));
            let counts = sample_counts(state, spec.shots as usize, &mut rng)
                .into_iter()
                .map(|(index, count)| (index as u64, count))
                .collect();
            let values =
                spec.observables.iter().map(|(_, op)| op.expectation(state).to_bits()).collect();
            (counts, values)
        })
        .collect())
}

fn direct_engine() -> Result<BatchSimulator, String> {
    BatchSimulator::from_config(SimConfig::default()).map_err(|e| e.to_string())
}

/// A sampled job's served result must equal its direct simulation bit
/// for bit: same counts, same expectation values.
pub fn served_oracle(served: &str, job_body: &str) -> Result<(), String> {
    let direct = direct_blocks(&direct_engine()?, job_body)?;
    if result_blocks(served)? == direct {
        Ok(())
    } else {
        Err("served result differs from the direct simulation of the same job".to_string())
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

struct ServeMixed<'t> {
    decks: Vec<Vec<Job>>,
    widest: u32,
    records: Mutex<Records>,
    /// Set for the traced rounds of the traced pass.
    tracer: Option<&'t Tracer>,
}

/// A running server and what the last round on it left behind.
struct Round {
    server: Server,
    stats: ServerStats,
    /// `(client, deck index, result body)`.
    sampled: Vec<(usize, usize, String)>,
}

impl<'t> ServeMixed<'t> {
    fn new(ctx: &Ctx) -> ServeMixed<'t> {
        let widths = WIDTHS.map(|n| ctx.width(n));
        let bursts = if ctx.quick { BURSTS / 5 } else { BURSTS };
        ServeMixed {
            decks: (0..CLIENTS).map(|c| deck(ctx.seed, c, widths, bursts)).collect(),
            widest: widths[2],
            records: Mutex::new(Records::default()),
            tracer: None,
        }
    }

    fn jobs_per_round(&self) -> usize {
        self.decks.iter().map(Vec::len).sum()
    }

    fn take_records(&self) -> Records {
        std::mem::take(&mut *self.records.lock().expect("clients hold no lock when they panic"))
    }
}

impl Workload for ServeMixed<'_> {
    type Engine = Round;

    fn state_bytes(&self) -> u64 {
        16 << self.widest
    }

    fn units_per_op(&self) -> f64 {
        self.jobs_per_round() as f64
    }

    fn setup(&self) -> Result<Round, String> {
        let server = Server::start(ServeConfig { threads: 1, ..ServeConfig::default() })
            .map_err(|e| e.to_string())?;
        Ok(Round { server, stats: ServerStats::default(), sampled: Vec::new() })
    }

    fn solve(&self, round: &mut Round) -> Result<Ops, String> {
        let addr = round.server.addr();
        let results: Vec<ClientRound> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .decks
                .iter()
                .enumerate()
                .map(|(c, jobs)| scope.spawn(move || client_round(addr, c, jobs, self.tracer)))
                .collect();
            clients.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        round.stats = round.server.stats();
        let mut ops = Ops::default();
        let mut all = self.records.lock().expect("clients hold no lock when they panic");
        round.sampled.clear();
        for (c, r) in results.into_iter().enumerate() {
            ops += r.ops;
            all.latency_ms.extend(r.records.latency_ms);
            all.submit_ms.extend(r.records.submit_ms);
            all.poll_ms.extend(r.records.poll_ms);
            all.result_ms.extend(r.records.result_ms);
            round.sampled.extend(r.sampled.into_iter().map(|(i, text)| (c, i, text)));
        }
        Ok(ops)
    }

    fn warmed_up(&self) {
        self.take_records();
    }

    fn oracle(&self, round: Round) -> Result<(), String> {
        if round.sampled.is_empty() {
            return Err("no job was sampled for the oracle".to_string());
        }
        for (client, index, served) in &round.sampled {
            served_oracle(served, &self.decks[*client][*index].body)
                .map_err(|why| format!("client {client} job {index}: {why}"))?;
        }
        if round.stats.failed != 0 {
            return Err(format!("the server failed {} jobs", round.stats.failed));
        }
        Ok(())
    }

    fn unit_latencies_ms(&self) -> Vec<f64> {
        self.records.lock().expect("clients hold no lock when they panic").latency_ms.clone()
    }
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (w, gen_s) = timed(|| ServeMixed::new(ctx));
    run_window(&w, ctx, gen_s)
}

/// Traced pass: per-job spans from the client side, the server's own
/// counters, and the same jobs parsed and simulated with no server in
/// between.
pub fn trace(ctx: &Ctx, tracer: &Tracer) -> Result<Layers, String> {
    let mut out = Layers::default();
    let mut w = ServeMixed::new(ctx);
    out.state_bytes = w.state_bytes();
    probes::common(&mut out, ctx.width(WIDTHS[1]), ctx);

    // Untraced rounds first: the latency the spans must reproduce.
    let mut round = w.setup()?;
    let (_, warmup_s) = timed(|| w.solve(&mut round));
    w.take_records();
    let mut ops = Ops::default();
    let untraced = repeat_for(0.25 * ctx.seconds, 2, || {
        round = w.setup().expect("set-up succeeded once already");
        ops += w.solve(&mut round).expect("a round reports failures, it does not fail");
    });
    let plain = w.take_records();
    let untraced_mean_ms = plain.latency_ms.iter().sum::<f64>() / plain.latency_ms.len() as f64;

    w.tracer = Some(tracer);
    repeat_for(0.25 * ctx.seconds, 2, || {
        round = w.setup().expect("set-up succeeded once already");
        ops += w.solve(&mut round).expect("a round reports failures, it does not fail");
    });
    let rec = w.take_records();
    let stats = round.stats;
    out.ops = ops;
    let jobs = rec.latency_ms.len() as f64;
    let mean_ms = rec.latency_ms.iter().sum::<f64>() / jobs;
    let q = |xs: &[f64], q: f64| stats::quantile(xs, q).unwrap_or(f64::NAN);
    out.set("serve.submit_p50_ms", q(&rec.submit_ms, 0.5));
    out.set("serve.poll_p50_ms", q(&rec.poll_ms, 0.5));
    out.set("serve.result_p50_ms", q(&rec.result_ms, 0.5));
    out.set("serve.polls_per_job", rec.poll_ms.len() as f64 / jobs);
    out.set("serve.job_p95_ms", q(&rec.latency_ms, 0.95));
    out.set("serve.job_p99_ms", q(&rec.latency_ms, 0.99));
    out.set("serve.batches", stats.batches as f64);
    out.set("serve.pack_rate", stats.packed_jobs as f64 / stats.completed.max(1) as f64);
    out.set("serve.mean_batch_members", stats.cache_misses as f64 / stats.batches.max(1) as f64);
    out.set(
        "serve.cache_hit_rate",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
    out.set("harness.trace_overhead_frac", mean_ms / untraced_mean_ms - 1.0);
    out.set_harness(warmup_s, &untraced);
    if stats.rejected != 0 {
        out.warnings.push(format!("the server rejected {} submissions", stats.rejected));
    }

    // What of a job's span is neither its submit, its wait nor its fetch.
    let spans = tracer.spans();
    let seconds = |s: &crate::trace::Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
    let job_total: f64 = spans.iter().filter(|s| s.parent.is_none()).map(seconds).sum();
    let staged: f64 = spans.iter().filter(|s| s.parent.is_some()).map(seconds).sum();
    out.set("sim.unattributed_frac", (job_total - staged) / job_total);

    // The same jobs with no server: parse alone, then parse, simulate,
    // sample and reduce.
    let bodies: Vec<&str> = w.decks.iter().flatten().map(|j| j.body.as_str()).collect();
    let parse_s = best_of_runs(3, || {
        for b in &bodies {
            std::hint::black_box(JobSpec::parse(b).expect("the deck parses"));
        }
    });
    out.set("serve.parse_us_per_job", parse_s * 1e6 / bodies.len() as f64);
    let engine = direct_engine()?;
    let direct_s = best_of_runs(2, || {
        for b in &bodies {
            std::hint::black_box(direct_blocks(&engine, b).expect("the deck simulates"));
        }
    });
    let direct_ms = direct_s * 1e3 / bodies.len() as f64;
    out.set("serve.direct_compute_ms_per_job", direct_ms);
    out.set("serve.latency_over_compute", mean_ms / direct_ms);

    let n = ctx.width(WIDTHS[1]);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let gates = layers(n, &mut rng);
    let program = qasm_program(n, &gates);
    let qasm_s = best_of_runs(5, || {
        std::hint::black_box(qasm::parse(&program).expect("generated qasm parses"));
    });
    out.set("qasm.parse_gates_per_s", gates.len() as f64 / qasm_s);
    let state = engine
        .run_fresh(&qasm::parse(&program).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?
        .0
        .remove(0);
    const PROBE_SHOTS: usize = 1 << 14;
    let sample_s = best_of_runs(5, || {
        std::hint::black_box(sample_counts(&state, PROBE_SHOTS, &mut rng));
    });
    out.set("measure.sample_ns_per_shot", sample_s * 1e9 / PROBE_SHOTS as f64);
    out.set("sim.auto_over_best_n18", super::rand_fused::auto_over_best(ctx.width(18), ctx.seed)?);

    out.oracle = Some(w.oracle(round));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(seed: u64, client: usize) -> Vec<String> {
        deck(seed, client, [4, 5, 6], 15).into_iter().map(|j| j.body).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_bodies() {
        assert_eq!(bodies(7, 0), bodies(7, 0));
        assert_ne!(bodies(7, 0), bodies(8, 0));
        assert_ne!(bodies(7, 0), bodies(7, 1));
    }

    #[test]
    fn the_mix_is_fixed_and_every_body_is_a_valid_submission() {
        let jobs = deck(3, 0, [4, 5, 6], 15);
        assert_eq!(jobs.len(), 60);
        let count = |pred: &dyn Fn(&Job) -> bool| jobs.iter().filter(|j| pred(j)).count();
        assert_eq!(count(&|j| j.body.contains("\"observables\"")), 6);
        assert_eq!(count(&|j| j.body.contains("\"qasm\"")), 6);
        assert_eq!(count(&|j| j.blocks == SWEEP_POINTS), 3);
        let mut seen = std::collections::BTreeSet::new();
        let resubmitted = jobs.iter().filter(|j| !seen.insert(j.body.as_str())).count();
        assert_eq!(resubmitted, 10, "12 of 60 slots less the two bursts with nothing to repeat");
        for j in &jobs {
            let spec = JobSpec::parse(&j.body).unwrap();
            assert_eq!(spec.shots, SHOTS);
            assert_eq!(spec.points.len().max(1), j.blocks);
        }
        // Jobs 0 and 1 of a burst are one circuit, so they can share a batch.
        let (a, b) =
            (JobSpec::parse(&jobs[0].body).unwrap(), JobSpec::parse(&jobs[1].body).unwrap());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!((a.seed, a.tenant), (b.seed, b.tenant));
    }

    #[test]
    fn oracle_accepts_the_direct_result_and_rejects_a_changed_count() {
        let job = &deck(1, 0, [4, 5, 6], 15)[2];
        let blocks = direct_blocks(&direct_engine().unwrap(), &job.body).unwrap();
        let render = |blocks: &Blocks| {
            let (counts, values) = &blocks[0];
            let counts: Vec<String> = counts.iter().map(|(i, c)| format!("[{i},{c}]")).collect();
            let values: Vec<String> = values
                .iter()
                .map(|v| format!("{{\"observable\":\"o\",\"value\":{}}}", f64::from_bits(*v)))
                .collect();
            format!("{{\"counts\":[{}],\"expectations\":[{}]}}", counts.join(","), values.join(","))
        };
        let served = render(&blocks);
        check_result(&served, job).unwrap();
        served_oracle(&served, &job.body).unwrap();
        let mut wrong = blocks.clone();
        wrong[0].0[0].1 += 1;
        assert!(check_result(&render(&wrong), job).is_err(), "counts no longer sum to the shots");
        wrong[0].0[1].1 -= 1;
        check_result(&render(&wrong), job).unwrap();
        assert!(served_oracle(&render(&wrong), &job.body).is_err());
    }
}
