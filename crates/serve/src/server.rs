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
//!    same width, gate stream, strategy, backend — exactly the jobs
//!    whose member states a [`BatchSimulator`](qcs_core::batch::BatchSimulator)
//!    call can carry in one batch (up to [`MAX_BATCH`] per call): one
//!    lowering and one worksharing region shared across *independent
//!    tenants*, each member run whole by one worker.
//! 3. Results are rendered as counts and expectation values — never raw
//!    `2^n` amplitude dumps — *before* the job table is locked (each
//!    body is O(2ⁿ) of sampling and reduction), then published under
//!    one lock: cached, and (optionally) accounted per tenant as
//!    `{"type":"outcome",...}` JSONL lines.
//! 4. `GET /jobs/<id>` polls status; `GET /jobs/<id>/result` fetches
//!    the stored body (cache hits return the stored bytes unchanged, so
//!    responses are byte-identical to the first computation).

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use omp_par::ThreadPool;
use qcs_core::batch::MAX_BATCH;
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
    /// Members of the batch this job executed in (0 until it ran).
    members: u64,
    /// Amortized share of the batch wall time.
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
        {
            let mut core = self.shared.core.lock().unwrap();
            core.shutdown = true;
            self.shared.work.notify_all();
        }
        if let Some(h) = self.sched_handle.take() {
            let _ = h.join();
        }
        self.shared.stopping.store(true, Ordering::SeqCst);
    }

    fn stop(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut core = self.shared.core.lock().unwrap();
            core.shutdown = true;
            self.shared.work.notify_all();
        }
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
            {
                let mut core = shared.core.lock().unwrap();
                core.shutdown = true;
                shared.work.notify_all();
            }
            shared.stopping.store(true, Ordering::SeqCst);
            // Poke the accept loop so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
            (200, "{\"ok\":true}".to_string())
        }
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                match rest.strip_suffix("/result") {
                    Some(id) => job_result(shared, id),
                    None => job_status(shared, rest),
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
    let tenant = spec.tenant.clone();
    let shots = spec.shots;
    let usage = core.tenants.entry(tenant.clone()).or_default();
    usage.submitted += 1;

    if let Some(cached_body) = core.cache.lookup(key) {
        core.stats.cache_hits += 1;
        core.stats.completed += 1;
        let usage = core.tenants.entry(tenant.clone()).or_default();
        usage.cache_hits += 1;
        usage.completed += 1;
        usage.shots += shots;
        core.jobs.insert(
            id,
            JobRecord {
                tenant,
                spec: None,
                state: JobState::Done,
                cached: true,
                batch_id: 0,
                members: 0,
                elapsed_seconds: 0.0,
                result: Some(cached_body),
                error: None,
            },
        );
        return Ok(format!("{{\"job_id\":{id},\"status\":\"done\",\"cached\":true}}"));
    }
    core.stats.cache_misses += 1;
    let usage = core.tenants.entry(tenant.clone()).or_default();
    usage.active += 1;
    usage.shots += shots;
    core.jobs.insert(
        id,
        JobRecord {
            tenant,
            spec: Some(spec),
            state: JobState::Queued,
            cached: false,
            batch_id: 0,
            members: 0,
            elapsed_seconds: 0.0,
            result: None,
            error: None,
        },
    );
    core.queue.push_back(id);
    shared.work.notify_all();
    Ok(format!("{{\"job_id\":{id},\"status\":\"queued\",\"cached\":false}}"))
}

fn job_status(shared: &Arc<Shared>, id_text: &str) -> (u16, String) {
    let id = match parse_job_id(id_text) {
        Ok(id) => id,
        Err(e) => return (e.http_status(), error_body(&e)),
    };
    let core = shared.core.lock().unwrap();
    match core.jobs.get(&id) {
        None => {
            let e = QcsError::NotFound(format!("job {id}"));
            (e.http_status(), error_body(&e))
        }
        Some(job) => {
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
    }
}

fn job_result(shared: &Arc<Shared>, id_text: &str) -> (u16, String) {
    let id = match parse_job_id(id_text) {
        Ok(id) => id,
        Err(e) => return (e.http_status(), error_body(&e)),
    };
    let core = shared.core.lock().unwrap();
    match core.jobs.get(&id) {
        None => {
            let e = QcsError::NotFound(format!("job {id}"));
            (e.http_status(), error_body(&e))
        }
        Some(job) => match (job.state, &job.result, &job.error) {
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
        },
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
                    Some((_, members)) => members.push((id, spec)),
                    None => groups.push((fp, vec![(id, spec)])),
                }
            }
        }
        for (fp, members) in groups {
            // A group larger than the batch engine's limit runs in
            // MAX_BATCH-sized waves.
            let mut members = members;
            while !members.is_empty() {
                let rest = members.split_off(members.len().min(MAX_BATCH));
                run_group(&shared, fp, members);
                members = rest;
            }
        }
    }
}

/// Execute one fingerprint-group as a single batch and complete every
/// member job.
fn run_group(shared: &Arc<Shared>, fingerprint: u64, members: Vec<(u64, JobSpec)>) {
    if members[0].1.is_sweep() {
        return run_sweep_group(shared, members);
    }
    let spec0 = &members[0].1;
    let mut cfg =
        SimConfig::default().strategy(spec0.strategy).backend(spec0.backend).batch(members.len());
    if let Some(pool) = &shared.pool {
        cfg = cfg.pool(Arc::clone(pool));
    }
    let outcome = match qcs_core::batch::BatchSimulator::from_config(cfg)
        .and_then(|batch| batch.run_fresh(&spec0.circuit))
    {
        Ok((states, report)) => {
            // Rendering samples and reduces over every member's state:
            // O(2ⁿ) per job, done before the job table is locked so
            // submitters and pollers never wait on it.
            let bodies: Vec<String> = members
                .iter()
                .zip(&states)
                .map(|((_, spec), state)| render_result(spec, state, &report))
                .collect();
            let mut core = shared.core.lock().unwrap();
            core.stats.batches += 1;
            core.stats.max_batch_members = core.stats.max_batch_members.max(report.members as u64);
            if report.members >= 2 {
                core.stats.packed_jobs += report.members as u64;
            }
            let share = report.wall_seconds / report.members.max(1) as f64;
            for ((id, spec), body) in members.iter().zip(bodies) {
                core.cache.insert((fingerprint, spec.seed, spec.shots), body.clone());
                core.stats.completed += 1;
                let usage = core.tenants.entry(spec.tenant.clone()).or_default();
                usage.active = usage.active.saturating_sub(1);
                usage.completed += 1;
                usage.elapsed_seconds += share;
                if let Some(job) = core.jobs.get_mut(id) {
                    job.state = JobState::Done;
                    job.batch_id = report.batch_id;
                    job.members = report.members as u64;
                    job.elapsed_seconds = share;
                    job.result = Some(body);
                }
            }
            drop(core);
            let outcome = Outcome::from(&report).with_config(
                &spec0.strategy_str,
                shared.pool.as_ref().map_or(1, |p| p.num_threads() as u32),
                spec0.n,
            );
            Some(outcome)
        }
        Err(e) => {
            let err = QcsError::from(e);
            let (code, status, msg) = (err.code(), err.http_status(), err.to_string());
            let mut core = shared.core.lock().unwrap();
            for (id, spec) in &members {
                core.stats.failed += 1;
                let usage = core.tenants.entry(spec.tenant.clone()).or_default();
                usage.active = usage.active.saturating_sub(1);
                usage.failed += 1;
                if let Some(job) = core.jobs.get_mut(id) {
                    job.state = JobState::Failed;
                    job.error = Some((code, status, msg.clone()));
                }
            }
            None
        }
    };
    // Usage ledger, outside the lock: one line per member job.
    if let (Some(path), Some(outcome)) = (&shared.cfg.usage_path, outcome) {
        for (id, spec) in &members {
            let line = outcome.clone().with_label(format!("tenant={};job={}", spec.tenant, id));
            let _ = qcs_core::telemetry::sink::append_outcome(path, &line);
        }
    }
}

/// Execute one sweep-fingerprint group. Every member job's points are
/// flattened into one circuit list — the templates are structurally
/// identical (that is what the fingerprint hashes), so the bound
/// circuits are same-shaped and [`run_sweep`] carries them, each under
/// the jobs' strategy, in `MAX_BATCH`-sized waves: the cross-tenant
/// packing win, per *point* rather than per job.
///
/// [`run_sweep`]: qcs_core::batch::BatchSimulator::run_sweep
fn run_sweep_group(shared: &Arc<Shared>, members: Vec<(u64, JobSpec)>) {
    let spec0 = &members[0].1;
    let mut cfg = SimConfig::default().strategy(spec0.strategy).backend(spec0.backend);
    if let Some(pool) = &shared.pool {
        cfg = cfg.pool(Arc::clone(pool));
    }
    let circuits: Vec<_> = members
        .iter()
        .flat_map(|(_, spec)| {
            let template = spec.ansatz.as_ref().expect("sweep group member has a template");
            spec.points.iter().map(move |p| template.bind(p))
        })
        .collect();
    let result = qcs_core::batch::BatchSimulator::from_config(cfg).and_then(|engine| {
        let mut states: Vec<StateVector> = Vec::with_capacity(circuits.len());
        let mut wall = 0.0;
        let mut batch_id = 0;
        let mut backend = "";
        let mut waves = 0u64;
        let mut max_members = 0usize;
        for chunk in circuits.chunks(MAX_BATCH) {
            let mut wave: Vec<StateVector> =
                chunk.iter().map(|c| StateVector::zero(c.n_qubits())).collect();
            let report = engine.run_sweep(chunk, &mut wave)?;
            wall += report.wall_seconds;
            batch_id = report.batch_id;
            backend = report.backend;
            waves += 1;
            max_members = max_members.max(report.members);
            states.extend(wave);
        }
        Ok((states, wall, batch_id, backend, waves, max_members))
    });
    match result {
        Ok((states, wall, batch_id, backend, waves, max_members)) => {
            let total_points = states.len().max(1);
            // Bodies first, outside the job-table lock (see `run_group`).
            let mut offset = 0usize;
            let bodies: Vec<String> = members
                .iter()
                .map(|(_, spec)| {
                    let mine = &states[offset..offset + spec.points.len()];
                    offset += spec.points.len();
                    render_sweep_result(spec, mine, backend)
                })
                .collect();
            let mut core = shared.core.lock().unwrap();
            core.stats.batches += waves;
            core.stats.max_batch_members = core.stats.max_batch_members.max(max_members as u64);
            if members.len() >= 2 {
                core.stats.packed_jobs += members.len() as u64;
            }
            for ((id, spec), body) in members.iter().zip(bodies) {
                core.cache.insert((spec.cache_fingerprint(), spec.seed, spec.shots), body.clone());
                core.stats.completed += 1;
                let share = wall * spec.points.len() as f64 / total_points as f64;
                let usage = core.tenants.entry(spec.tenant.clone()).or_default();
                usage.active = usage.active.saturating_sub(1);
                usage.completed += 1;
                usage.elapsed_seconds += share;
                if let Some(job) = core.jobs.get_mut(id) {
                    job.state = JobState::Done;
                    job.batch_id = batch_id;
                    job.members = total_points as u64;
                    job.elapsed_seconds = share;
                    job.result = Some(body);
                }
            }
        }
        Err(e) => {
            let err = QcsError::from(e);
            let (code, status, msg) = (err.code(), err.http_status(), err.to_string());
            let mut core = shared.core.lock().unwrap();
            for (id, spec) in &members {
                core.stats.failed += 1;
                let usage = core.tenants.entry(spec.tenant.clone()).or_default();
                usage.active = usage.active.saturating_sub(1);
                usage.failed += 1;
                if let Some(job) = core.jobs.get_mut(id) {
                    job.state = JobState::Failed;
                    job.error = Some((code, status, msg.clone()));
                }
            }
        }
    }
}

/// The public sweep-result body: one entry per point, counts sampled
/// with `seed + point_index`, expectations per observable. Like
/// [`render_result`], a pure function of the work, so cache hits serve
/// these exact bytes again.
fn render_sweep_result(spec: &JobSpec, states: &[StateVector], backend: &str) -> String {
    let mut body = format!(
        "{{\"type\":\"sweep_result\",\"n_qubits\":{},\"points\":{},\"shots\":{},\"seed\":{},\
         \"strategy\":{},\"backend\":{},\"template_fnv1a\":{},\"gates\":{},\"results\":[",
        spec.n,
        states.len(),
        spec.shots,
        spec.seed,
        quote(&spec.strategy_str),
        quote(backend),
        quote(&format!("{:016x}", spec.fingerprint())),
        spec.circuit.len(),
    );
    for (i, state) in states.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(i as u64));
        let counts = sample_counts(state, spec.shots as usize, &mut rng);
        body.push_str(&format!("{{\"point\":{i},\"counts\":["));
        for (k, (index, count)) in counts.iter().enumerate() {
            if k > 0 {
                body.push(',');
            }
            body.push_str(&format!("[{index},{count}]"));
        }
        body.push_str("],\"expectations\":[");
        for (k, (source, op)) in spec.observables.iter().enumerate() {
            if k > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"observable\":{},\"value\":{}}}",
                quote(source),
                op.expectation(state)
            ));
        }
        body.push_str("]}");
    }
    body.push_str("]}");
    body
}

/// Render the public result body. Deliberately excludes job id, timing,
/// and cache status — everything here is a pure function of the work,
/// so a cache hit serves these exact bytes again.
fn render_result(
    spec: &JobSpec,
    state: &StateVector,
    report: &qcs_core::batch::BatchReport,
) -> String {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let counts = sample_counts(state, spec.shots as usize, &mut rng);
    let mut body = format!(
        "{{\"type\":\"result\",\"n_qubits\":{},\"shots\":{},\"seed\":{},\
         \"strategy\":{},\"backend\":{},\"circuit_fnv1a\":{},\"gates\":{},\
         \"sweeps\":{},\"counts\":[",
        spec.n,
        spec.shots,
        spec.seed,
        quote(&spec.strategy_str),
        quote(report.backend),
        quote(&format!("{:016x}", spec.fingerprint())),
        report.gates,
        report.sweeps,
    );
    for (i, (index, count)) in counts.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("[{index},{count}]"));
    }
    body.push_str("],\"expectations\":[");
    for (i, (source, op)) in spec.observables.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"observable\":{},\"value\":{}}}",
            quote(source),
            op.expectation(state)
        ));
    }
    body.push_str("]}");
    body
}
