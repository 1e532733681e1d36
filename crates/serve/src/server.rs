//! The job server: accept loop, scheduler thread, endpoints.
//!
//! Lifecycle of a submission:
//!
//! 1. `POST /jobs` — parsed and validated on the connection thread
//!    ([`JobSpec::parse`]); admission control (width limit, per-tenant
//!    quota, global queue bound) and the result-cache lookup happen
//!    under the core lock. A cache hit completes the job immediately;
//!    otherwise it enters the queue and the scheduler is woken.
//! 2. The scheduler sleeps one packing window so concurrent submitters
//!    can land, then drains the queue and groups jobs by fingerprint —
//!    same width, gate stream or template, strategy, backend and
//!    observables, so a group's jobs differ only in seed, shots and
//!    points. One runner serves plain jobs and sweeps alike: it binds
//!    the group's *distinct* circuits (a plain job is its circuit at the
//!    single empty point) and simulates each once through
//!    [`BatchSimulator::run_sweep`], up to [`MAX_BATCH`] per call — one
//!    worksharing region shared across *independent tenants*.
//! 3. Each job is rendered from the states its points map to, as counts
//!    and expectation values — never raw `2^n` amplitude dumps —
//!    *before* the job table is locked, then published under one lock:
//!    cached, and (optionally) accounted per tenant as one
//!    `{"type":"outcome",...}` JSONL line per job.
//! 4. `GET /jobs/<id>` polls status; `GET /jobs/<id>/result` fetches
//!    the stored body (cache hits return the stored bytes unchanged, so
//!    responses are byte-identical to the first computation).

use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use omp_par::ThreadPool;
use qcs_core::batch::{BatchSimulator, MAX_BATCH};
use qcs_core::circuit::Circuit;
use qcs_core::config::SimConfig;
use qcs_core::measure::sample_counts;
use qcs_core::outcome::Outcome;
use qcs_core::state::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::ResultCache;
use crate::error::{error_body, QcsError};
use crate::http::{read_request, write_response, Request};
use crate::job::JobSpec;
use crate::json::quote;

/// Server tuning; every knob has a `QCS_SERVE_*` environment override.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Per-tenant cap on jobs queued or running at once
    /// (`QCS_SERVE_QUOTA`).
    pub quota: usize,
    /// Global admission-queue bound (`QCS_SERVE_MAX_PENDING`).
    pub max_pending: usize,
    /// Widest circuit this server admits (`QCS_SERVE_MAX_QUBITS`).
    pub max_qubits: u32,
    /// How long the scheduler waits after the first queued job for
    /// compatible jobs to pack with it (`QCS_SERVE_WINDOW_MS`).
    pub window_ms: u64,
    /// Simulation worker threads (`QCS_SERVE_THREADS`); 1 = serial.
    pub threads: usize,
    /// Result-cache entries (`QCS_SERVE_CACHE`); 0 disables caching.
    pub cache_capacity: usize,
    /// Per-tenant usage ledger, JSONL `{"type":"outcome",...}` lines
    /// (`QCS_SERVE_USAGE`); unset = no ledger.
    pub usage_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            quota: 64,
            max_pending: 1024,
            max_qubits: 24,
            window_ms: 5,
            threads: 1,
            cache_capacity: 1024,
            usage_path: None,
        }
    }
}

impl ServeConfig {
    /// Defaults with every `QCS_SERVE_*` environment override applied.
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        let num = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<u64>().ok());
        if let Some(v) = num("QCS_SERVE_QUOTA") {
            cfg.quota = v as usize;
        }
        if let Some(v) = num("QCS_SERVE_MAX_PENDING") {
            cfg.max_pending = v as usize;
        }
        if let Some(v) = num("QCS_SERVE_MAX_QUBITS") {
            cfg.max_qubits = v as u32;
        }
        if let Some(v) = num("QCS_SERVE_WINDOW_MS") {
            cfg.window_ms = v;
        }
        if let Some(v) = num("QCS_SERVE_THREADS") {
            cfg.threads = (v as usize).max(1);
        }
        if let Some(v) = num("QCS_SERVE_CACHE") {
            cfg.cache_capacity = v as usize;
        }
        if let Ok(path) = std::env::var("QCS_SERVE_USAGE") {
            if !path.is_empty() {
                cfg.usage_path = Some(PathBuf::from(path));
            }
        }
        cfg
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

struct JobRecord {
    tenant: String,
    /// Taken by the scheduler when the job starts running.
    spec: Option<JobSpec>,
    state: JobState,
    cached: bool,
    batch_id: u64,
    /// Points served by the batched call this job ran in, a plain job
    /// being one point (0 until it ran).
    members: u64,
    /// The job's share of the batch wall time, split by points.
    elapsed_seconds: f64,
    result: Option<String>,
    error: Option<(&'static str, u16, String)>,
}

/// Aggregate serving counters, as reported by `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Admission rejections (quota, queue, width).
    pub rejected: u64,
    /// Batched simulator calls issued.
    pub batches: u64,
    /// Jobs that shared their batch with at least one other job.
    pub packed_jobs: u64,
    /// Most points one batched call served.
    pub max_batch_members: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Per-tenant usage accounting.
#[derive(Debug, Clone, Default)]
pub struct TenantUsage {
    /// Jobs currently queued or running (what the quota bounds).
    pub active: usize,
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub cache_hits: u64,
    pub shots: u64,
    /// Summed amortized wall seconds across this tenant's jobs.
    pub elapsed_seconds: f64,
}

struct Core {
    jobs: HashMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    next_id: u64,
    cache: ResultCache,
    tenants: HashMap<String, TenantUsage>,
    stats: ServerStats,
    shutdown: bool,
}

struct Shared {
    core: Mutex<Core>,
    work: Condvar,
    cfg: ServeConfig,
    pool: Option<Arc<ThreadPool>>,
    stopping: AtomicBool,
    /// Bound address; `POST /shutdown` pokes it to unblock the accept
    /// loop.
    addr: SocketAddr,
}

impl Shared {
    /// Flag shutdown and wake the scheduler. It runs from `Drop`, so it
    /// recovers a poisoned lock: the flag is valid whatever was left.
    fn begin_shutdown(&self) {
        self.core.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.work.notify_all();
    }
}

/// A running job server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    sched_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and the scheduler, and return.
    pub fn start(cfg: ServeConfig) -> Result<Server, QcsError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| QcsError::BadRequest(format!("cannot bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| QcsError::BadRequest(format!("no local addr: {e}")))?;
        let pool = (cfg.threads > 1).then(|| Arc::new(ThreadPool::named(cfg.threads, "serve")));
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                next_id: 1,
                cache: ResultCache::new(cfg.cache_capacity),
                tenants: HashMap::new(),
                stats: ServerStats::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
            cfg,
            pool,
            stopping: AtomicBool::new(false),
            addr,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        let sched_shared = Arc::clone(&shared);
        let sched_handle = std::thread::Builder::new()
            .name("serve-sched".to_string())
            .spawn(move || scheduler_loop(sched_shared))
            .expect("spawn scheduler thread");

        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            sched_handle: Some(sched_handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.core.lock().unwrap().stats
    }

    /// Stop accepting, finish nothing further, join the service threads.
    /// Queued jobs that have not started are abandoned.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Block until the server stops — via `POST /shutdown` or a
    /// [`Server::shutdown`] from another thread. What the CLI `serve`
    /// subcommand parks on.
    pub fn wait(mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        self.shared.begin_shutdown();
        if let Some(h) = self.sched_handle.take() {
            let _ = h.join();
        }
        self.shared.stopping.store(true, Ordering::SeqCst);
    }

    fn stop(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.begin_shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sched_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Accept + connection handling
// ---------------------------------------------------------------------------

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) || shared.core.lock().unwrap().shutdown {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Idle keep-alive connections release their thread eventually.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_connection(stream, conn_shared));
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = std::io::BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                let keep_alive = req.keep_alive && !shared.stopping.load(Ordering::SeqCst);
                let (status, body) = route(&req, &shared);
                if write_response(&mut writer, status, &body, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let err = QcsError::BadRequest(e.to_string());
                let _ = write_response(&mut writer, err.http_status(), &error_body(&err), false);
                return;
            }
            Err(_) => return,
        }
    }
}

fn route(req: &Request, shared: &Arc<Shared>) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => match submit(shared, &req.body) {
            Ok(body) => (202, body),
            Err(e) => (e.http_status(), error_body(&e)),
        },
        ("GET", "/healthz") => (200, "{\"ok\":true}".to_string()),
        ("GET", "/stats") => (200, stats_body(shared)),
        ("POST", "/shutdown") => {
            shared.begin_shutdown();
            shared.stopping.store(true, Ordering::SeqCst);
            // Poke the accept loop so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
            (200, "{\"ok\":true}".to_string())
        }
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                match rest.strip_suffix("/result") {
                    Some(id) => with_job(shared, id, job_result),
                    None => with_job(shared, rest, job_status),
                }
            } else {
                let e = QcsError::NotFound(path.to_string());
                (e.http_status(), error_body(&e))
            }
        }
        (_, path) => {
            let e = QcsError::NotFound(format!("{} {}", req.method, path));
            (e.http_status(), error_body(&e))
        }
    }
}

fn parse_job_id(text: &str) -> Result<u64, QcsError> {
    text.parse().map_err(|_| QcsError::NotFound(format!("job '{text}'")))
}

fn submit(shared: &Arc<Shared>, body: &str) -> Result<String, QcsError> {
    let spec = JobSpec::parse(body)?;
    let cfg = &shared.cfg;
    if spec.n > cfg.max_qubits {
        shared.core.lock().unwrap().stats.rejected += 1;
        return Err(QcsError::TooWide { n: spec.n, max: cfg.max_qubits });
    }
    // Cache key uses the *cache* fingerprint (template + concrete
    // points); batch grouping below uses the structural fingerprint.
    let key = (spec.cache_fingerprint(), spec.seed, spec.shots);
    let mut core = shared.core.lock().unwrap();
    let active = core.tenants.get(&spec.tenant).map_or(0, |t| t.active);
    if active >= cfg.quota {
        core.stats.rejected += 1;
        return Err(QcsError::QuotaExceeded { tenant: spec.tenant.clone(), limit: cfg.quota });
    }
    if core.queue.len() >= cfg.max_pending {
        core.stats.rejected += 1;
        return Err(QcsError::QueueFull { limit: cfg.max_pending });
    }
    let id = core.next_id;
    core.next_id += 1;
    core.stats.submitted += 1;
    let core = &mut *core;
    let cached = core.cache.lookup(key);
    let hit = cached.is_some();
    let usage = core.tenants.entry(spec.tenant.clone()).or_default();
    usage.submitted += 1;
    usage.shots += spec.shots;
    if hit {
        core.stats.cache_hits += 1;
        core.stats.completed += 1;
        usage.cache_hits += 1;
        usage.completed += 1;
    } else {
        core.stats.cache_misses += 1;
        usage.active += 1;
        core.queue.push_back(id);
        shared.work.notify_all();
    }
    let state = if hit { JobState::Done } else { JobState::Queued };
    let record = JobRecord {
        tenant: spec.tenant.clone(),
        spec: (!hit).then_some(spec),
        state,
        cached: hit,
        batch_id: 0,
        members: 0,
        elapsed_seconds: 0.0,
        result: cached,
        error: None,
    };
    core.jobs.insert(id, record);
    Ok(format!("{{\"job_id\":{id},\"status\":{},\"cached\":{hit}}}", quote(state.label())))
}

/// Answer a `GET /jobs/<id>[/result]` from the job's record.
fn with_job(
    shared: &Shared,
    id_text: &str,
    answer: impl FnOnce(u64, &JobRecord) -> (u16, String),
) -> (u16, String) {
    let answered = parse_job_id(id_text).and_then(|id| {
        let core = shared.core.lock().expect("no thread panics holding the job table");
        let job = core.jobs.get(&id).ok_or_else(|| QcsError::NotFound(format!("job {id}")))?;
        Ok(answer(id, job))
    });
    answered.unwrap_or_else(|e| (e.http_status(), error_body(&e)))
}

fn job_status(id: u64, job: &JobRecord) -> (u16, String) {
    let mut body = format!(
        "{{\"job_id\":{id},\"tenant\":{},\"status\":{},\"cached\":{},\
         \"batch_id\":{},\"members\":{},\"elapsed_seconds\":{}",
        quote(&job.tenant),
        quote(job.state.label()),
        job.cached,
        job.batch_id,
        job.members,
        job.elapsed_seconds,
    );
    if let Some((code, _, msg)) = &job.error {
        body.push_str(&format!(",\"error\":{},\"message\":{}", quote(code), quote(msg)));
    }
    body.push('}');
    (200, body)
}

fn job_result(id: u64, job: &JobRecord) -> (u16, String) {
    match (job.state, &job.result, &job.error) {
        (JobState::Done, Some(body), _) => (200, body.clone()),
        (JobState::Failed, _, Some((code, status, msg))) => {
            (*status, format!("{{\"error\":{},\"message\":{}}}", quote(code), quote(msg)))
        }
        _ => (
            409,
            format!(
                "{{\"error\":\"serve/not-ready\",\"message\":\"job {id} is {}\"}}",
                job.state.label()
            ),
        ),
    }
}

fn stats_body(shared: &Arc<Shared>) -> String {
    let core = shared.core.lock().unwrap();
    let s = core.stats;
    let mut body = format!(
        "{{\"submitted\":{},\"completed\":{},\"failed\":{},\"rejected\":{},\
         \"batches\":{},\"packed_jobs\":{},\"max_batch_members\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"queued\":{},\"tenants\":{{",
        s.submitted,
        s.completed,
        s.failed,
        s.rejected,
        s.batches,
        s.packed_jobs,
        s.max_batch_members,
        s.cache_hits,
        s.cache_misses,
        core.queue.len(),
    );
    // BTreeMap-style determinism: render tenants in sorted order.
    let mut names: Vec<&String> = core.tenants.keys().collect();
    names.sort();
    for (i, name) in names.iter().enumerate() {
        let t = &core.tenants[*name];
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{}:{{\"active\":{},\"submitted\":{},\"completed\":{},\"failed\":{},\
             \"cache_hits\":{},\"shots\":{},\"elapsed_seconds\":{}}}",
            quote(name),
            t.active,
            t.submitted,
            t.completed,
            t.failed,
            t.cache_hits,
            t.shots,
            t.elapsed_seconds,
        ));
    }
    body.push_str("}}");
    body
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

fn scheduler_loop(shared: Arc<Shared>) {
    loop {
        // Wait for work (or shutdown).
        {
            let mut core = shared.core.lock().unwrap();
            while core.queue.is_empty() && !core.shutdown {
                core = shared.work.wait(core).unwrap();
            }
            if core.shutdown {
                return;
            }
        }
        // Packing window: let concurrent submitters land before the
        // queue is drained, so compatible jobs share a batch.
        if shared.cfg.window_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.cfg.window_ms));
        }
        // Drain and group by fingerprint.
        let mut groups: Vec<(u64, Vec<(u64, JobSpec)>)> = Vec::new();
        {
            let mut core = shared.core.lock().unwrap();
            let ids: Vec<u64> = core.queue.drain(..).collect();
            for id in ids {
                let Some(job) = core.jobs.get_mut(&id) else { continue };
                let Some(spec) = job.spec.take() else { continue };
                job.state = JobState::Running;
                let fp = spec.fingerprint();
                match groups.iter_mut().find(|(g, _)| *g == fp) {
                    Some((_, jobs)) => jobs.push((id, spec)),
                    None => groups.push((fp, vec![(id, spec)])),
                }
            }
        }
        for (_, jobs) in groups {
            run_group(&shared, jobs);
        }
    }
}

/// A fingerprint group's distinct bound circuits, and each job's
/// indices into them, one per point. A plain job is its circuit at the
/// single empty point. The group's jobs share one template (that is
/// what the fingerprint hashes), so points with the same `f64` bits
/// bind to one circuit.
fn distinct_circuits(jobs: &[(u64, JobSpec)]) -> (Vec<Circuit>, Vec<Vec<usize>>) {
    const PLAIN: &[Vec<f64>] = &[Vec::new()];
    let mut circuits = Vec::new();
    let mut seen: HashMap<Vec<u64>, usize> = HashMap::new();
    let indices = jobs
        .iter()
        .map(|(_, spec)| {
            let points = if spec.is_sweep() { spec.points.as_slice() } else { PLAIN };
            points
                .iter()
                .map(|point| {
                    let bits = point.iter().map(|x| x.to_bits()).collect();
                    *seen.entry(bits).or_insert_with(|| {
                        circuits.push(match &spec.ansatz {
                            Some(template) => template.bind(point),
                            None => spec.circuit.clone(),
                        });
                        circuits.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    (circuits, indices)
}

/// Execute one fingerprint group and complete every job in it. Each
/// distinct circuit ([`distinct_circuits`]) is simulated once, by
/// [`BatchSimulator::run_sweep`] in `MAX_BATCH`-sized waves: one
/// lowering per member and one worksharing region per wave, shared
/// across *independent tenants*. Every job is then rendered from the
/// states its points map to.
fn run_group(shared: &Shared, jobs: Vec<(u64, JobSpec)>) {
    let (circuits, indices) = distinct_circuits(&jobs);
    let spec0 = &jobs[0].1;
    let mut cfg = SimConfig::default().strategy(spec0.strategy).backend(spec0.backend);
    if let Some(pool) = &shared.pool {
        cfg = cfg.pool(Arc::clone(pool));
    }
    // The states, the most points one wave served, and the group as the
    // ledger records it: every point and the summed wall time, under
    // the last wave's batch id.
    let ran = BatchSimulator::from_config(cfg).and_then(|engine| {
        let mut states = Vec::with_capacity(circuits.len());
        let mut fullest = 0;
        let mut outcome = Outcome::default();
        for (w, wave) in circuits.chunks(MAX_BATCH).enumerate() {
            let mut members: Vec<StateVector> =
                wave.iter().map(|c| StateVector::zero(c.n_qubits())).collect();
            let report = engine.run_sweep(wave, &mut members)?;
            let served = indices.iter().flatten().filter(|&&i| i / MAX_BATCH == w).count() as u64;
            outcome = Outcome {
                elapsed_seconds: outcome.elapsed_seconds + report.wall_seconds,
                members: outcome.members + served,
                ..Outcome::from(&report)
            };
            fullest = fullest.max(served);
            states.extend(members);
        }
        let threads = engine.threads() as u32;
        Ok((states, fullest, outcome.with_config(&spec0.strategy_str, threads, spec0.n)))
    });
    // Rendering samples and reduces every point's state — O(2ⁿ) per
    // point — before the job table is locked, so submitters and
    // pollers never wait on it.
    let mut result = ran
        .map(|(states, fullest, outcome)| {
            let bodies: Vec<String> = jobs
                .iter()
                .zip(&indices)
                .map(|((_, spec), mine)| render(spec, mine.iter().map(|&i| &states[i]), &outcome))
                .collect();
            (bodies, fullest, outcome)
        })
        .map_err(|e| {
            let err = QcsError::from(e);
            (err.code(), err.http_status(), err.to_string())
        });
    let mut guard = shared.core.lock().expect("no thread panics holding the job table");
    let core = &mut *guard;
    if let Ok((_, fullest, _)) = &result {
        core.stats.batches += circuits.len().div_ceil(MAX_BATCH) as u64;
        core.stats.max_batch_members = core.stats.max_batch_members.max(*fullest);
        if jobs.len() >= 2 {
            core.stats.packed_jobs += jobs.len() as u64;
        }
    }
    for (j, ((id, spec), mine)) in jobs.iter().zip(&indices).enumerate() {
        let Some(job) = core.jobs.get_mut(id) else { continue };
        let usage = core.tenants.entry(spec.tenant.clone()).or_default();
        usage.active = usage.active.saturating_sub(1);
        match &mut result {
            Ok((bodies, _, outcome)) => {
                let body = std::mem::take(&mut bodies[j]);
                let share = outcome.elapsed_seconds * mine.len() as f64 / outcome.members as f64;
                core.cache.insert((spec.cache_fingerprint(), spec.seed, spec.shots), body.clone());
                core.stats.completed += 1;
                usage.completed += 1;
                usage.elapsed_seconds += share;
                job.state = JobState::Done;
                job.batch_id = outcome.batch_id;
                job.members = outcome.members;
                job.elapsed_seconds = share;
                job.result = Some(body);
            }
            Err(error) => {
                core.stats.failed += 1;
                usage.failed += 1;
                job.state = JobState::Failed;
                job.error = Some(error.clone());
            }
        }
    }
    drop(guard);
    // Usage ledger, outside the lock: one line per completed job.
    if let (Some(path), Ok((_, _, outcome))) = (&shared.cfg.usage_path, &result) {
        for (id, spec) in &jobs {
            let line = outcome.clone().with_label(format!("tenant={};job={id}", spec.tenant));
            let _ = qcs_core::telemetry::sink::append_outcome(path, &line);
        }
    }
}

/// The public result body: a `"result"` for a plain job, a
/// `"sweep_result"` with one block per point for a sweep (point `i`
/// sampled under `seed + i`). Deliberately excludes job id, timing and
/// cache status — everything here is a pure function of the work, so a
/// cache hit serves these exact bytes again.
fn render<'s>(
    spec: &JobSpec,
    mut states: impl ExactSizeIterator<Item = &'s StateVector>,
    outcome: &Outcome,
) -> String {
    let config = format!(
        "\"shots\":{},\"seed\":{},\"strategy\":{},\"backend\":{}",
        spec.shots,
        spec.seed,
        quote(&spec.strategy_str),
        quote(&outcome.backend)
    );
    let (n, gates, hash) =
        (spec.n, spec.circuit.len(), quote(&format!("{:016x}", spec.fingerprint())));
    if !spec.is_sweep() {
        let mut body = format!(
            "{{\"type\":\"result\",\"n_qubits\":{n},{config},\"circuit_fnv1a\":{hash},\
             \"gates\":{gates},\"sweeps\":{},",
            outcome.sweeps
        );
        write_point(&mut body, spec, states.next().expect("a plain job has one point"), spec.seed);
        body.push('}');
        return body;
    }
    let mut body = format!(
        "{{\"type\":\"sweep_result\",\"n_qubits\":{n},\"points\":{},{config},\
         \"template_fnv1a\":{hash},\"gates\":{gates},\"results\":[",
        states.len()
    );
    for (i, state) in states.enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(body, "{sep}{{\"point\":{i},");
        write_point(&mut body, spec, state, spec.seed.wrapping_add(i as u64));
        body.push('}');
    }
    body.push_str("]}");
    body
}

/// One point's `"counts":[…],"expectations":[…]`: `shots` samples drawn
/// under `seed`, then each observable's expectation value.
fn write_point(body: &mut String, spec: &JobSpec, state: &StateVector, seed: u64) {
    let counts = sample_counts(state, spec.shots as usize, &mut StdRng::seed_from_u64(seed));
    body.push_str("\"counts\":[");
    for (k, (index, count)) in counts.iter().enumerate() {
        let sep = if k > 0 { "," } else { "" };
        let _ = write!(body, "{sep}[{index},{count}]");
    }
    body.push_str("],\"expectations\":[");
    for (k, (source, op)) in spec.observables.iter().enumerate() {
        let sep = if k > 0 { "," } else { "" };
        let _ = write!(
            body,
            "{sep}{{\"observable\":{},\"value\":{}}}",
            quote(source),
            op.expectation(state)
        );
    }
    body.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many distinct circuits a group of submissions binds, and
    /// each job's indices into them.
    fn group(bodies: &[String]) -> (usize, Vec<Vec<usize>>) {
        let jobs: Vec<_> = bodies.iter().map(|b| (0, JobSpec::parse(b).unwrap())).collect();
        let (circuits, indices) = distinct_circuits(&jobs);
        (circuits.len(), indices)
    }

    #[test]
    fn a_group_simulates_each_distinct_circuit_once() {
        let plain = |seed: u64| {
            format!(
                r#"{{"tenant":"t{seed}","n":2,"seed":{seed},
                    "circuit":[{{"gate":"h","q":[0]}},{{"gate":"cx","q":[0,1]}}]}}"#
            )
        };
        let sweep = |points: &str| {
            format!(
                r#"{{"tenant":"t","n":2,"points":{points},
                    "circuit":[{{"gate":"ry","q":[0],"param":0}},{{"gate":"cx","q":[0,1]}}]}}"#
            )
        };
        // Seeds and shots stay out of the fingerprint: one circuit.
        assert_eq!(group(&[plain(1), plain(2), plain(3)]), (1, vec![vec![0]; 3]));
        assert_eq!(
            group(&[sweep("[[0.1],[0.2]]"), sweep("[[0.3]]")]),
            (3, vec![vec![0, 1], vec![2]])
        );
        assert_eq!(
            group(&[sweep("[[0.1],[0.2]]"), sweep("[[0.1],[0.2]]")]),
            (2, vec![vec![0, 1], vec![0, 1]])
        );
        // The circuit at a point is the template bound there.
        let jobs = [(0, JobSpec::parse(&sweep("[[0.1],[0.2]]")).unwrap())];
        let bound = jobs[0].1.ansatz.as_ref().unwrap().bind(&[0.2]);
        assert_eq!(distinct_circuits(&jobs).0[1].fingerprint(), bound.fingerprint());
    }
}
