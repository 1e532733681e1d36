//! The job server: accept loop, scheduler thread, endpoints.
//!
//! Lifecycle of a submission:
//!
//! 1. `POST /jobs` — parsed and validated on the connection thread
//!    ([`JobSpec::parse`]); admission control (width limit, per-tenant
//!    quota, global queue bound) and the result-cache lookup happen
//!    under the core lock. A cache hit completes the job immediately;
//!    otherwise it enters the queue and the scheduler is woken.
//! 2. The scheduler is work-conserving: once free, it drains the queue
//!    (after the opt-in [`ServeConfig::window_ms`], if set) and groups
//!    jobs by fingerprint — same width, gate stream or template,
//!    strategy, backend and observables, so a group's jobs differ only
//!    in seed, shots and points. One runner serves plain jobs and sweeps
//!    alike: it binds the group's *distinct* circuits (a plain job is
//!    its circuit at the single empty point) and simulates each once
//!    through [`BatchSimulator::run_sweep`], up to [`MAX_BATCH`] per
//!    call — one worksharing region shared across *independent
//!    tenants*. Late twins then join: queued jobs of the group's
//!    fingerprint whose every point the group already simulated.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use omp_par::ThreadPool;
use qcs_core::batch::{BatchSimulator, MAX_BATCH};
use qcs_core::circuit::Circuit;
use qcs_core::config::SimConfig;
use qcs_core::kernels::simd::KernelBackend;
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

/// Server tuning, always passed in: `serve` has a flag for each knob.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Per-tenant cap on jobs queued or running at once.
    pub quota: usize,
    /// Global admission-queue bound.
    pub max_pending: usize,
    /// Widest circuit this server admits.
    pub max_qubits: u32,
    /// Opt-in packing window: how long the scheduler holds the first
    /// queued job for compatible jobs to land with it. It closes early
    /// on shutdown or once [`MAX_BATCH`] points are queued. 0 (the
    /// default) runs work as soon as the scheduler is free.
    pub window_ms: u64,
    /// Simulation worker threads; 1 = serial.
    pub threads: usize,
    /// Result-cache entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Per-tenant usage ledger, JSONL `{"type":"outcome",...}` lines;
    /// `None` = no ledger.
    pub usage_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            quota: 64,
            max_pending: 1024,
            max_qubits: 24,
            window_ms: 0,
            threads: 1,
            cache_capacity: 1024,
            usage_path: None,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobState {
    #[default]
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

#[derive(Default)]
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
    /// The result body, shared with the cache.
    result: Option<Arc<str>>,
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

#[derive(Default)]
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
    /// Bound address; poked to unblock the accept loop on shutdown.
    addr: SocketAddr,
}

impl Core {
    /// Take, in queue order and marked running, the queued jobs a group
    /// already answers: its fingerprint, and every point in `bound`. Each
    /// comes with its indices into `bound`; the rest keep their order.
    fn take_twins(&mut self, fingerprint: u64, bound: &Bound) -> Vec<(u64, JobSpec, Vec<usize>)> {
        let mut twins = Vec::new();
        let jobs = &mut self.jobs;
        self.queue.retain(|id| {
            let Some(job) = jobs.get_mut(id) else { return true };
            let spec = job.spec.as_ref().filter(|spec| spec.fingerprint() == fingerprint);
            let Some(mine) = spec.and_then(|spec| bound.lookup(spec)) else { return true };
            job.state = JobState::Running;
            twins.push((*id, job.spec.take().expect("a queued job has its spec"), mine));
            false
        });
        twins
    }
}

impl Shared {
    /// The job table. No critical section can panic part-way (each only
    /// moves records and counters), so a poisoned lock is recovered.
    fn core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flag shutdown and wake the scheduler.
    fn begin_shutdown(&self) {
        self.core().shutdown = true;
        self.work.notify_all();
    }
}

/// A running job server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    sched_handle: Option<JoinHandle<()>>,
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
                next_id: 1,
                cache: ResultCache::new(cfg.cache_capacity),
                ..Core::default()
            }),
            work: Condvar::new(),
            cfg,
            pool,
            stopping: AtomicBool::new(false),
            addr,
        });

        let accept_shared = Arc::clone(&shared);
        let accept = spawn("serve-accept", move || accept_loop(listener, accept_shared));
        let sched_shared = Arc::clone(&shared);
        let sched = spawn("serve-sched", move || scheduler_loop(sched_shared));
        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept.expect("spawn accept thread")),
            sched_handle: Some(sched.expect("spawn scheduler thread")),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.core().stats
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
        self.stop();
    }

    fn stop(&mut self) {
        if !self.shared.stopping.swap(true, Ordering::SeqCst) {
            self.shared.begin_shutdown();
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        for handle in [self.accept_handle.take(), self.sched_handle.take()].into_iter().flatten() {
            let _ = handle.join();
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
        if shared.stopping.load(Ordering::SeqCst) || shared.core().shutdown {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies leave in one write; do not hold it back for an ACK.
        let _ = stream.set_nodelay(true);
        // Idle keep-alive connections release their thread eventually.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let conn_shared = Arc::clone(&shared);
        let _ = spawn("serve-conn", move || handle_connection(stream, conn_shared));
    }
}

fn spawn(name: &str, run: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name.to_string()).spawn(run)
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = std::io::BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                let keep_alive = req.keep_alive && !shared.stopping.load(Ordering::SeqCst);
                let (status, body) = route(&req, &shared);
                let sent = write_response(&mut writer, status, &body, keep_alive);
                if (status, req.path.as_str()) == (200, "/shutdown") {
                    // Only now that the reply is out: the process may exit.
                    let _ = TcpStream::connect(shared.addr);
                }
                if sent.is_err() || !keep_alive {
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

fn submit(shared: &Arc<Shared>, body: &str) -> Result<String, QcsError> {
    let spec = JobSpec::parse(body)?;
    let cfg = &shared.cfg;
    if spec.n > cfg.max_qubits {
        shared.core().stats.rejected += 1;
        return Err(QcsError::TooWide { n: spec.n, max: cfg.max_qubits });
    }
    // Cache key uses the *cache* fingerprint (template + concrete
    // points); batch grouping below uses the structural fingerprint.
    let key = (spec.cache_fingerprint(), spec.seed, spec.shots);
    let mut core = shared.core();
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
        result: cached,
        ..JobRecord::default()
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
    let id = id_text.parse().map_err(|_| QcsError::NotFound(format!("job '{id_text}'")));
    let answered = id.and_then(|id| {
        let core = shared.core();
        let job = core.jobs.get(&id).ok_or_else(|| QcsError::NotFound(format!("job {id}")))?;
        Ok(answer(id, job))
    });
    answered.unwrap_or_else(|e| (e.http_status(), error_body(&e)))
}

fn job_status(id: u64, job: &JobRecord) -> (u16, String) {
    let JobRecord { cached, batch_id, members, elapsed_seconds, .. } = job;
    let mut body = format!(
        "{{\"job_id\":{id},\"tenant\":{},\"status\":{},\"cached\":{cached},\
         \"batch_id\":{batch_id},\"members\":{members},\"elapsed_seconds\":{elapsed_seconds}",
        quote(&job.tenant),
        quote(job.state.label()),
    );
    if let Some((code, _, msg)) = &job.error {
        body.push_str(&format!(",\"error\":{},\"message\":{}", quote(code), quote(msg)));
    }
    body.push('}');
    (200, body)
}

fn job_result(id: u64, job: &JobRecord) -> (u16, String) {
    match (job.state, &job.result, &job.error) {
        (JobState::Done, Some(body), _) => (200, body.to_string()),
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
    let core = shared.core();
    let ServerStats { submitted, completed, failed, rejected, batches, .. } = core.stats;
    let ServerStats { packed_jobs, max_batch_members, cache_hits, cache_misses, .. } = core.stats;
    let mut body = format!(
        "{{\"submitted\":{submitted},\"completed\":{completed},\"failed\":{failed},\
         \"rejected\":{rejected},\"batches\":{batches},\"packed_jobs\":{packed_jobs},\
         \"max_batch_members\":{max_batch_members},\"cache_hits\":{cache_hits},\
         \"cache_misses\":{cache_misses},\"queued\":{},\"tenants\":{{",
        core.queue.len(),
    );
    // BTreeMap-style determinism: render tenants in sorted order.
    let mut names: Vec<&String> = core.tenants.keys().collect();
    names.sort();
    for (i, name) in names.iter().enumerate() {
        let TenantUsage {
            active,
            submitted,
            completed,
            failed,
            cache_hits,
            shots,
            elapsed_seconds,
        } = &core.tenants[*name];
        let _ = write!(
            body,
            "{}{}:{{\"active\":{active},\"submitted\":{submitted},\"completed\":{completed},\
             \"failed\":{failed},\"cache_hits\":{cache_hits},\"shots\":{shots},\
             \"elapsed_seconds\":{elapsed_seconds}}}",
            if i > 0 { "," } else { "" },
            quote(name),
        );
    }
    body.push_str("}}");
    body
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

fn scheduler_loop(shared: Arc<Shared>) {
    let window = Duration::from_millis(shared.cfg.window_ms);
    loop {
        let idle = |core: &mut Core| core.queue.is_empty() && !core.shutdown;
        let mut core =
            shared.work.wait_while(shared.core(), idle).unwrap_or_else(PoisonError::into_inner);
        if !window.is_zero() {
            // The opt-in packing window: let compatible submitters land
            // until the deadline, a full batch or shutdown.
            let filling = |core: &mut Core| {
                let queued = core.queue.iter().filter_map(|id| core.jobs.get(id)?.spec.as_ref());
                !core.shutdown && queued.map(|spec| points(spec).len()).sum::<usize>() < MAX_BATCH
            };
            core = shared
                .work
                .wait_timeout_while(core, window, filling)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        if core.shutdown {
            return;
        }
        // Drain and group by fingerprint.
        let mut groups: Vec<(u64, Vec<(u64, JobSpec)>)> = Vec::new();
        for id in std::mem::take(&mut core.queue) {
            let Some(job) = core.jobs.get_mut(&id) else { continue };
            let Some(spec) = job.spec.take() else { continue };
            job.state = JobState::Running;
            let fp = spec.fingerprint();
            match groups.iter_mut().find(|(g, _)| *g == fp) {
                Some((_, jobs)) => jobs.push((id, spec)),
                None => groups.push((fp, vec![(id, spec)])),
            }
        }
        drop(core);
        for (fp, jobs) in groups {
            run_group(&shared, fp, jobs);
        }
    }
}

/// A job's points: a plain job is its circuit at the single empty point.
fn points(spec: &JobSpec) -> &[Vec<f64>] {
    const PLAIN: &[Vec<f64>] = &[Vec::new()];
    spec.ansatz.as_ref().map_or(PLAIN, |_| &spec.points)
}

fn bits(point: &[f64]) -> Vec<u64> {
    point.iter().map(|x| x.to_bits()).collect()
}

/// A fingerprint group's distinct bound circuits, keyed by the `f64`
/// bits of the point that binds each. The group's jobs share one
/// template (that is what the fingerprint hashes), so points with the
/// same bits bind to one circuit.
#[derive(Default)]
struct Bound {
    circuits: Vec<Circuit>,
    index: HashMap<Vec<u64>, usize>,
}

impl Bound {
    /// `spec`'s indices into the circuits, one per point, binding the
    /// points not seen before.
    fn bind(&mut self, spec: &JobSpec) -> Vec<usize> {
        let circuits = &mut self.circuits;
        let index = points(spec).iter().map(|point| {
            *self.index.entry(bits(point)).or_insert_with(|| {
                circuits.push(match &spec.ansatz {
                    Some(template) => template.bind(point),
                    None => spec.circuit.clone(),
                });
                circuits.len() - 1
            })
        });
        index.collect()
    }

    /// `spec`'s indices if every one of its points is already bound.
    fn lookup(&self, spec: &JobSpec) -> Option<Vec<usize>> {
        points(spec).iter().map(|point| self.index.get(&bits(point)).copied()).collect()
    }
}

/// A fingerprint group's distinct bound circuits, and each job's
/// indices into them, one per point.
fn distinct_circuits(jobs: &[(u64, JobSpec)]) -> (Bound, Vec<Vec<usize>>) {
    let mut bound = Bound::default();
    let indices = jobs.iter().map(|(_, spec)| bound.bind(spec)).collect();
    (bound, indices)
}

/// Execute one fingerprint group and complete every job in it. Each
/// distinct circuit ([`distinct_circuits`]) is simulated once, by
/// [`BatchSimulator::run_sweep`] in `MAX_BATCH`-sized waves: one
/// lowering per member and one worksharing region per wave, shared
/// across *independent tenants*. Late twins ([`Core::take_twins`]) then
/// join, and every job is rendered from the states its points map to.
fn run_group(shared: &Shared, fingerprint: u64, mut jobs: Vec<(u64, JobSpec)>) {
    let (bound, mut indices) = distinct_circuits(&jobs);
    let circuits = &bound.circuits;
    let spec0 = &jobs[0].1;
    let mut cfg = SimConfig::default().strategy(spec0.strategy).backend(spec0.backend);
    if let Some(pool) = &shared.pool {
        cfg = cfg.pool(Arc::clone(pool));
    }
    // The states, and the group as the ledger records it: the summed
    // wall time under the last wave's batch id.
    let ran = BatchSimulator::from_config(cfg).and_then(|engine| {
        let mut states = Vec::with_capacity(circuits.len());
        let mut outcome = Outcome::default();
        for wave in circuits.chunks(MAX_BATCH) {
            let mut members: Vec<StateVector> =
                wave.iter().map(|c| StateVector::zero(c.n_qubits())).collect();
            let report = engine.run_sweep(wave, &mut members)?;
            outcome = Outcome {
                elapsed_seconds: outcome.elapsed_seconds + report.wall_seconds,
                ..Outcome::from(&report)
            };
            states.extend(members);
        }
        let threads = engine.threads() as u32;
        Ok((states, outcome.with_config(&spec0.strategy_str, threads, spec0.n), engine.backend()))
    });
    if ran.is_ok() {
        for (id, spec, mine) in shared.core().take_twins(fingerprint, &bound) {
            jobs.push((id, spec));
            indices.push(mine);
        }
    }
    // Points served per wave, late twins' included.
    let mut served = vec![0u64; circuits.len().div_ceil(MAX_BATCH)];
    for &i in indices.iter().flatten() {
        served[i / MAX_BATCH] += 1;
    }
    // Rendering samples and reduces every point's state — O(2ⁿ) per
    // point — before the job table is locked, so submitters and
    // pollers never wait on it.
    let result = ran
        .map(|(states, outcome, be)| {
            let outcome = Outcome { members: served.iter().sum(), ..outcome };
            let bodies: Vec<Arc<str>> = jobs
                .iter()
                .zip(&indices)
                .map(|((_, spec), mine)| {
                    render(spec, mine.iter().map(|&i| &states[i]), &outcome, be).into()
                })
                .collect();
            (bodies, outcome)
        })
        .map_err(|e| {
            let err = QcsError::from(e);
            (err.code(), err.http_status(), err.to_string())
        });
    let mut guard = shared.core();
    let core = &mut *guard;
    if result.is_ok() {
        core.stats.batches += served.len() as u64;
        core.stats.max_batch_members =
            served.iter().copied().fold(core.stats.max_batch_members, u64::max);
        if jobs.len() >= 2 {
            core.stats.packed_jobs += jobs.len() as u64;
        }
    }
    for (j, ((id, spec), mine)) in jobs.iter().zip(&indices).enumerate() {
        let Some(job) = core.jobs.get_mut(id) else { continue };
        let usage = core.tenants.entry(spec.tenant.clone()).or_default();
        usage.active = usage.active.saturating_sub(1);
        match &result {
            Ok((bodies, outcome)) => {
                let share = outcome.elapsed_seconds * mine.len() as f64 / outcome.members as f64;
                let key = (spec.cache_fingerprint(), spec.seed, spec.shots);
                core.cache.insert(key, Arc::clone(&bodies[j]));
                core.stats.completed += 1;
                usage.completed += 1;
                usage.elapsed_seconds += share;
                job.state = JobState::Done;
                job.batch_id = outcome.batch_id;
                job.members = outcome.members;
                job.elapsed_seconds = share;
                job.result = Some(Arc::clone(&bodies[j]));
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
    if let (Some(path), Ok((_, outcome))) = (&shared.cfg.usage_path, &result) {
        for (id, spec) in &jobs {
            let line = outcome.clone().with_label(format!("tenant={};job={id}", spec.tenant));
            let _ = qcs_core::telemetry::sink::append_outcome(path, &line);
        }
    }
}

/// The public result body: a `"result"` for a plain job, a
/// `"sweep_result"` with one block per point for a sweep (point `i`
/// sampled under `seed + i`), its expectations reduced on `be`, the
/// backend the states were swept on. Deliberately excludes job id,
/// timing and cache status — everything here is a pure function of the
/// work, so a cache hit serves these exact bytes again.
fn render<'s>(
    spec: &JobSpec,
    mut states: impl ExactSizeIterator<Item = &'s StateVector>,
    outcome: &Outcome,
    be: &KernelBackend,
) -> String {
    let JobSpec { n, shots, seed, .. } = spec;
    let (strategy, backend) = (quote(&spec.strategy_str), quote(&outcome.backend));
    let config =
        format!("\"shots\":{shots},\"seed\":{seed},\"strategy\":{strategy},\"backend\":{backend}");
    let (gates, hash) = (spec.circuit.len(), quote(&format!("{:016x}", spec.fingerprint())));
    if !spec.is_sweep() {
        let mut body = format!(
            "{{\"type\":\"result\",\"n_qubits\":{n},{config},\"circuit_fnv1a\":{hash},\
             \"gates\":{gates},\"sweeps\":{},",
            outcome.sweeps
        );
        let state = states.next().expect("a plain job has one point");
        write_point(&mut body, spec, state, spec.seed, be);
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
        write_point(&mut body, spec, state, spec.seed.wrapping_add(i as u64), be);
        body.push('}');
    }
    body.push_str("]}");
    body
}

/// One point's `"counts":[…],"expectations":[…]`: `shots` samples drawn
/// under `seed`, then each observable's expectation value, reduced on
/// `be`.
fn write_point(
    body: &mut String,
    spec: &JobSpec,
    state: &StateVector,
    seed: u64,
    be: &KernelBackend,
) {
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
            op.expectation_with(be, state)
        );
    }
    body.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(seed: u64) -> String {
        format!(
            r#"{{"tenant":"t{seed}","n":2,"seed":{seed},
                "circuit":[{{"gate":"h","q":[0]}},{{"gate":"cx","q":[0,1]}}]}}"#
        )
    }

    fn sweep(points: &str) -> String {
        format!(
            r#"{{"tenant":"t","n":2,"points":{points},
                "circuit":[{{"gate":"ry","q":[0],"param":0}},{{"gate":"cx","q":[0,1]}}]}}"#
        )
    }

    fn jobs(bodies: &[String]) -> Vec<(u64, JobSpec)> {
        bodies.iter().map(|b| (0, JobSpec::parse(b).unwrap())).collect()
    }

    /// How many distinct circuits a group of submissions binds, and
    /// each job's indices into them.
    fn group(bodies: &[String]) -> (usize, Vec<Vec<usize>>) {
        let (bound, indices) = distinct_circuits(&jobs(bodies));
        (bound.circuits.len(), indices)
    }

    #[test]
    fn a_group_simulates_each_distinct_circuit_once() {
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
        let jobs = jobs(&[sweep("[[0.1],[0.2]]")]);
        let bound = jobs[0].1.ansatz.as_ref().unwrap().bind(&[0.2]);
        assert_eq!(distinct_circuits(&jobs).0.circuits[1].fingerprint(), bound.fingerprint());
    }

    #[test]
    fn late_twins_are_the_queued_jobs_a_group_already_answers() {
        let mut core = Core::default();
        let mut enqueue = |body: String| {
            let id = core.next_id;
            core.next_id += 1;
            let record =
                JobRecord { spec: Some(JobSpec::parse(&body).unwrap()), ..JobRecord::default() };
            core.jobs.insert(id, record);
            core.queue.push_back(id);
            id
        };
        let other_circuit = plain(4).replace(r#""gate":"h""#, r#""gate":"x""#);
        let ids = [
            enqueue(sweep("[[0.2],[0.3]]")), // the sweep group's template, one new point
            enqueue(plain(2)),               // a plain twin
            enqueue(other_circuit),          // another fingerprint
            enqueue(sweep("[[0.2]]")),       // the sweep group's template, a bound point
            enqueue(plain(3)),               // a plain twin
        ];
        let mut take = |group: &[(u64, JobSpec)]| {
            let (bound, _) = distinct_circuits(group);
            let twins = core.take_twins(group[0].1.fingerprint(), &bound);
            twins.into_iter().map(|(id, _, mine)| (id, mine)).collect::<Vec<_>>()
        };
        assert_eq!(take(&jobs(&[plain(1)])), [(ids[1], vec![0]), (ids[4], vec![0])]);
        assert_eq!(take(&jobs(&[sweep("[[0.1],[0.2]]")])), [(ids[3], vec![1])]);
        assert_eq!(core.queue, [ids[0], ids[2]], "what stays keeps its order");
        for (k, id) in ids.iter().enumerate() {
            let job = &core.jobs[id];
            let queued = k == 0 || k == 2;
            let want = if queued { JobState::Queued } else { JobState::Running };
            assert_eq!((job.state, job.spec.is_some()), (want, queued), "job {k}");
        }
    }
}
