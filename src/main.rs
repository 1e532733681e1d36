//! `a64fx-qcs` — command-line front-end for the simulator.
//!
//! ```text
//! a64fx-qcs run <circuit.qasm> [options]     simulate an OpenQASM 2.0 file
//! a64fx-qcs demo <family> <n> [options]      run a built-in circuit family
//! a64fx-qcs emit <family> <n>                print a family as OpenQASM 2.0
//! a64fx-qcs vqe <n> [vqe options] [options]  variational ground-state search (TFIM)
//! a64fx-qcs serve [serve options] [--verbose] start the multi-tenant job server
//!
//! families: ghz qft random qv trotter qaoa grover shor
//!
//! vqe options:
//!   --layers <l>                              hardware-efficient ansatz layers [2]
//!   --iters <k>                               optimizer iterations [60]
//!   --optimizer spsa|gd                       optimizer [spsa]
//!   --lr <f>                                  gradient-descent learning rate [0.1]
//!   --spsa-a <f> / --spsa-c <f>               SPSA gain constants [0.4 / 0.15]
//!   --coupling <J> / --field <h>              TFIM H = -J Σ ZZ - h Σ X [1.0 / 0.7]
//!
//! serve options:
//!   --addr <host:port>                        bind address [127.0.0.1:0]
//!   --threads <t>                             simulation worker threads [1]
//!   --quota <j>                               per-tenant cap on queued + running jobs [64]
//!   --max-pending <j>                         global admission-queue bound [1024]
//!   --max-qubits <n>                          widest admitted circuit [24]
//!   --window-ms <ms>                          opt-in packing window; 0 runs work at once [0]
//!   --cache <entries>                         result-cache entries; 0 disables it [1024]
//!   --usage <file.jsonl>                      per-tenant usage ledger [off]
//!
//! options:
//!   --strategy naive|fused:<k>|blocked:<b>|planned:<b>:<k>|auto   execution strategy [naive]
//!   --backend auto|scalar|simd               kernel SIMD backend [auto]
//!   --threads <t>                            worksharing threads [1]
//!   --schedule static[:c]|dynamic[:c]|guided[:c]   worksharing schedule [static]
//!   --ranks <r>                              distributed ranks (power of 2)
//!   --dist-plan naive|reorder|overlap        distributed exchange plan [naive]
//!   --shots <s>                              sample and print counts
//!   --probs <top>                            print the top-N probabilities
//!   --batch <b>                              run b independent members as one batch (single process)
//!   --trajectories <n>                       sample n noisy trajectories in one batch (needs --noise)
//!   --noise bitflip:p|phaseflip:p|depolarizing:p|damping:g   per-gate noise channel
//!   --model                                  attach the A64FX model report
//!   --trace                                  record per-sweep telemetry spans
//!   --trace-out <file.jsonl>                 write the trace as JSONL (implies --trace)
//!   --faults <spec>                          inject transport faults (needs --ranks > 1);
//!                                            spec: drop=p,dup=p,flip=p,delay=p:dur,… or "default"
//!   --checkpoint-every <n>                   snapshot the state every n gates
//!   --checkpoint-dir <path>                  where checkpoints live [qcs-checkpoints]
//!   --integrity off|check|repair|restore     amplitude integrity guard [off]
//!   --verbose                                print the resolved configuration
//!   --seed <u64>                             RNG seed [1]
//! ```
//!
//! All execution flags funnel into a single [`SimConfig`]; `--verbose`
//! prints it back (plus the run's unified `{"type":"outcome",...}` JSON
//! line — the same schema the job server returns and the JSONL usage
//! ledger appends), and the same value stamps every trace header. The
//! environment does not change a run: `fused`, `planned` and `auto`
//! lower on one fixed cost table, so a circuit and a strategy sweep the
//! same program in every process, whatever `QCS_CALIBRATE` says. `serve`
//! takes every server knob as a flag.

use std::path::PathBuf;
use std::process::ExitCode;

use a64fx_qcs::a64fx::timing::ExecConfig;
use a64fx_qcs::a64fx::ChipParams;
use a64fx_qcs::core::config::CheckpointConfig;
use a64fx_qcs::core::measure::sample_counts;
use a64fx_qcs::core::prelude::*;
use a64fx_qcs::core::telemetry::drift::DriftReport;
use a64fx_qcs::core::{library, qasm};
use a64fx_qcs::dist::{
    run_distributed_planned, run_distributed_planned_traced, run_resilient, DistPlanKind,
    ResilienceConfig,
};
use a64fx_qcs::mpi::FaultPlan;
use a64fx_qcs::serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Options {
    config: SimConfig,
    ranks: usize,
    dist_plan: Option<DistPlanKind>,
    shots: usize,
    probs: usize,
    verbose: bool,
    seed: u64,
    faults: Option<String>,
    checkpoint_every: usize,
    checkpoint_dir: Option<PathBuf>,
    trajectories: usize,
    noise: Option<NoiseChannel>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            config: SimConfig::new(),
            ranks: 1,
            dist_plan: None,
            shots: 0,
            probs: 0,
            verbose: false,
            seed: 1,
            faults: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            trajectories: 0,
            noise: None,
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args.split_first().ok_or_else(usage)?;
    match command.as_str() {
        "run" => {
            let (path, opts) = parse_run_args(rest)?;
            let source =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let circuit = qasm::parse(&source).map_err(|e| e.to_string())?;
            execute(&circuit, &opts)
        }
        "demo" => {
            let (family, n, opts) = parse_demo_args(rest)?;
            let circuit = build_family(&family, n, opts.seed)?;
            execute(&circuit, &opts)
        }
        "emit" => {
            let (family, n, opts) = parse_demo_args(rest)?;
            let circuit = build_family(&family, n, opts.seed)?;
            let text = qasm::emit(&circuit)?;
            print!("{text}");
            Ok(())
        }
        "vqe" => vqe_command(rest),
        "serve" => serve_command(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: a64fx-qcs run <file.qasm> [opts] | demo <family> <n> [opts] | emit <family> <n>\n\
            a64fx-qcs vqe <n> [--layers <l>] [--iters <k>] [--optimizer spsa|gd] [opts]\n\
            a64fx-qcs serve [--addr host:port] [--threads <t>] [--quota <j>] [--max-pending <j>]\n\
                            [--max-qubits <n>] [--window-ms <ms>] [--cache <entries>]\n\
                            [--usage <file.jsonl>] [--verbose]\n\
     families: ghz qft random qv trotter qaoa grover shor\n\
     vqe opts: --layers <l>  --iters <k>  --optimizer spsa|gd  --lr <f>\n\
           --spsa-a <f>  --spsa-c <f>  --coupling <J>  --field <h>\n\
     opts: --strategy naive|fused:<k>|blocked:<b>|planned:<b>:<k>|auto  --threads <t>  --ranks <r>\n\
           --dist-plan naive|reorder|overlap\n\
           --backend auto|scalar|simd  --schedule static[:c]|dynamic[:c]|guided[:c]\n\
           --shots <s>  --probs <top>  --model  --trace  --trace-out <file>  --verbose\n\
           --batch <b>  --trajectories <n>  --noise bitflip:p|phaseflip:p|depolarizing:p|damping:g\n\
           --faults <spec|default>  --checkpoint-every <n>  --checkpoint-dir <path>\n\
           --integrity off|check|repair|restore  --seed <u64>"
        .to_string()
}

/// `vqe`: variational ground-state search on the transverse-field
/// Ising chain. Every iteration's parameter sweep (shift points plus
/// the current point) executes as one member-major batch through
/// [`VqeDriver`]; for n ≤ 10 the final energy is compared against the
/// exact dense ground state.
fn vqe_command(args: &[String]) -> Result<(), String> {
    let (n, rest) = args.split_first().ok_or("vqe needs a qubit count")?;
    let n: u32 = n.parse().map_err(|e| format!("qubit count: {e}"))?;
    if n < 2 {
        return Err("vqe needs at least 2 qubits for the ZZ chain".to_string());
    }

    // Peel the vqe-specific flags off first; everything left goes
    // through the shared `parse_options` (threads/backend/seed/…).
    let mut layers: u32 = 2;
    let mut iters: usize = 60;
    let mut optimizer = "spsa".to_string();
    let mut lr = 0.1;
    let mut spsa_a = 0.4;
    let mut spsa_c = 0.15;
    let mut coupling = 1.0;
    let mut field = 0.7;
    let mut passthrough: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--layers" => {
                layers = value("--layers")?.parse().map_err(|e| format!("--layers: {e}"))?
            }
            "--iters" => iters = value("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?,
            "--optimizer" => optimizer = value("--optimizer")?,
            "--lr" => lr = value("--lr")?.parse().map_err(|e| format!("--lr: {e}"))?,
            "--spsa-a" => {
                spsa_a = value("--spsa-a")?.parse().map_err(|e| format!("--spsa-a: {e}"))?
            }
            "--spsa-c" => {
                spsa_c = value("--spsa-c")?.parse().map_err(|e| format!("--spsa-c: {e}"))?
            }
            "--coupling" => {
                coupling = value("--coupling")?.parse().map_err(|e| format!("--coupling: {e}"))?
            }
            "--field" => field = value("--field")?.parse().map_err(|e| format!("--field: {e}"))?,
            other => passthrough.push(other.to_string()),
        }
    }
    let opts = parse_options(&passthrough)?;
    if iters == 0 {
        return Err("--iters needs at least 1 iteration".to_string());
    }

    let ham = Hamiltonian::ising_chain(n, coupling, field);
    let ansatz = hardware_efficient_ansatz(n, layers);
    let n_params = ansatz.n_params();
    println!(
        "vqe: TFIM chain n={n} (J={coupling}, h={field}), hardware-efficient ansatz \
         {layers} layers ({n_params} params)"
    );
    if opts.verbose {
        print!("configuration:\n{}", opts.config.describe());
    }

    let engine = BatchSimulator::from_config(opts.config.clone()).map_err(|e| e.to_string())?;
    let driver = VqeDriver::with_engine(ansatz, &ham, engine);

    // Deterministic small random start so the optimizer does not sit
    // on the zero-gradient symmetric point.
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let theta0: Vec<f64> = (0..n_params).map(|_| rng.gen_range(-0.3..0.3)).collect();

    let start = std::time::Instant::now();
    let result = match optimizer.as_str() {
        "spsa" => {
            println!(
                "optimizer: SPSA, {iters} iterations (a={spsa_a}, c={spsa_c}, 3-point batches)"
            );
            driver.minimize_spsa(&theta0, iters, spsa_a, spsa_c, opts.seed)
        }
        "gd" => {
            println!(
                "optimizer: parameter-shift gradient descent, {iters} iterations \
                 (lr={lr}, {}-point batches)",
                2 * n_params + 1
            );
            driver.minimize_gd(&theta0, iters, lr)
        }
        other => return Err(format!("--optimizer: unknown optimizer `{other}` (valid: spsa, gd)")),
    }
    .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();

    let stride = (iters / 10).max(1);
    for (k, e) in result.energies.iter().enumerate() {
        if k % stride == 0 || k + 1 == result.energies.len() {
            println!("  iter {k:>4}  E = {e:+.9}");
        }
    }
    println!(
        "final energy {:+.9} after {} circuit evaluations in {:.3} ms \
         ({:.1} evals/s, batched member-major)",
        result.energy,
        result.evals,
        wall * 1e3,
        result.evals as f64 / wall
    );
    if n <= 10 {
        let exact = ham.ground_energy(n);
        println!(
            "exact ground energy {:+.9} (gap {:.3e}, {:.2}% of |E0|)",
            exact,
            result.energy - exact,
            (result.energy - exact).abs() / exact.abs() * 100.0
        );
    }
    Ok(())
}

/// A flag's numeric value.
fn number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{name}: {e}"))
}

/// `serve`: start the job server and park until `POST /shutdown`. Every
/// [`ServeConfig`] field has a flag; the rest keep their defaults.
fn serve_command(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut verbose = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = value(a)?,
            "--threads" => {
                cfg.threads = number(a, value(a)?)?;
                if cfg.threads == 0 {
                    return Err("--threads needs at least 1".to_string());
                }
            }
            "--quota" => cfg.quota = number(a, value(a)?)?,
            "--max-pending" => cfg.max_pending = number(a, value(a)?)?,
            "--max-qubits" => cfg.max_qubits = number(a, value(a)?)?,
            "--window-ms" => cfg.window_ms = number(a, value(a)?)?,
            "--cache" => cfg.cache_capacity = number(a, value(a)?)?,
            "--usage" => cfg.usage_path = Some(PathBuf::from(value(a)?)),
            "--verbose" => verbose = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if verbose {
        println!(
            "serve config: quota={} max_pending={} max_qubits={} window_ms={} threads={} \
             cache={} usage={}",
            cfg.quota,
            cfg.max_pending,
            cfg.max_qubits,
            cfg.window_ms,
            cfg.threads,
            cfg.cache_capacity,
            cfg.usage_path.as_ref().map_or("off".to_string(), |p| p.display().to_string()),
        );
    }
    let server = Server::start(cfg).map_err(|e| e.to_string())?;
    println!("serving on http://{}", server.addr());
    server.wait();
    println!("server stopped");
    Ok(())
}

/// One parsing pass builds the complete [`SimConfig`] plus the
/// run-level knobs that live outside it (ranks, shots, output).
fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--strategy" => {
                opts.config.strategy = value("--strategy")?.parse()?;
            }
            "--backend" => {
                let v = value("--backend")?;
                opts.config.backend = v.parse().map_err(|e| format!("--backend: {e}"))?;
            }
            "--threads" => {
                let t: usize =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                // Set the pool spec verbatim: `SimConfig::validate` turns
                // `--threads 0` into a clean error instead of a clamp.
                opts.config.pool = if t == 1 { PoolSpec::Serial } else { PoolSpec::Threads(t) };
            }
            "--schedule" => {
                opts.config.schedule =
                    value("--schedule")?.parse().map_err(|e| format!("--schedule: {e}"))?;
            }
            "--model" => {
                opts.config.model = Some((ChipParams::a64fx(), ExecConfig::full_chip()));
            }
            "--trace" => opts.config.telemetry.enabled = true,
            "--trace-out" => {
                let path = value("--trace-out")?;
                opts.config.telemetry = opts.config.telemetry.clone().with_output(path);
            }
            "--verbose" => opts.verbose = true,
            "--ranks" => {
                opts.ranks = value("--ranks")?.parse().map_err(|e| format!("--ranks: {e}"))?
            }
            "--dist-plan" => {
                opts.dist_plan =
                    Some(value("--dist-plan")?.parse().map_err(|e| format!("--dist-plan: {e}"))?);
            }
            "--shots" => {
                opts.shots = value("--shots")?.parse().map_err(|e| format!("--shots: {e}"))?
            }
            "--probs" => {
                opts.probs = value("--probs")?.parse().map_err(|e| format!("--probs: {e}"))?
            }
            "--batch" => {
                // Folded into the SimConfig so `validate()` owns the
                // limits (≥ 1 member, ≤ MAX_BATCH).
                opts.config.batch =
                    value("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?;
            }
            "--trajectories" => {
                opts.trajectories =
                    value("--trajectories")?.parse().map_err(|e| format!("--trajectories: {e}"))?;
                if opts.trajectories == 0 {
                    return Err("--trajectories needs at least 1 trajectory".to_string());
                }
            }
            "--noise" => opts.noise = Some(parse_noise(&value("--noise")?)?),
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faults" => opts.faults = Some(value("--faults")?),
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?));
            }
            "--integrity" => {
                let mode: IntegrityMode =
                    value("--integrity")?.parse().map_err(|e| format!("--integrity: {e}"))?;
                opts.config.integrity = IntegrityPolicy { mode, ..IntegrityPolicy::default() };
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    // The checkpoint knobs fold into the SimConfig so the single-process
    // engine validates and uses them; the distributed path reads the
    // same fields back out of the config.
    if opts.checkpoint_every > 0 {
        let dir = opts.checkpoint_dir.clone().unwrap_or_else(|| PathBuf::from("qcs-checkpoints"));
        opts.config.checkpoint = Some(CheckpointConfig::new(opts.checkpoint_every, dir));
    } else if opts.checkpoint_dir.is_some() {
        return Err("--checkpoint-dir needs --checkpoint-every".to_string());
    }
    if opts.faults.is_some() && opts.ranks <= 1 {
        return Err("--faults injects transport faults and needs --ranks > 1".to_string());
    }
    if opts.dist_plan.is_some() && opts.ranks <= 1 {
        return Err("--dist-plan schedules distributed exchanges and needs --ranks > 1".to_string());
    }
    if (opts.config.batch > 1 || opts.trajectories > 0) && opts.ranks > 1 {
        return Err("--batch/--trajectories run as one batch in a single process and do not \
             compose with --ranks > 1"
            .to_string());
    }
    if opts.trajectories > 0 && opts.noise.is_none() {
        return Err(
            "--trajectories samples noisy trajectories and needs --noise <channel>".to_string()
        );
    }
    if opts.noise.is_some() && opts.trajectories == 0 {
        return Err("--noise needs --trajectories <n> to sample against".to_string());
    }
    Ok(opts)
}

/// Resolve `--noise` into a channel: `<kind>:<prob>` with kind one of
/// `bitflip`, `phaseflip`, `depolarizing`, `damping`.
fn parse_noise(spec: &str) -> Result<NoiseChannel, String> {
    let (kind, prob) = spec
        .split_once(':')
        .ok_or_else(|| format!("--noise: `{spec}` is not of the form <kind>:<prob>"))?;
    let p: f64 = prob.parse().map_err(|e| format!("--noise: probability `{prob}`: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--noise: probability {p} outside [0, 1]"));
    }
    Ok(match kind {
        "bitflip" => NoiseChannel::BitFlip { p },
        "phaseflip" => NoiseChannel::PhaseFlip { p },
        "depolarizing" => NoiseChannel::Depolarizing { p },
        "damping" => NoiseChannel::AmplitudeDamping { gamma: p },
        other => {
            return Err(format!(
                "--noise: unknown channel `{other}` \
                 (valid: bitflip, phaseflip, depolarizing, damping)"
            ))
        }
    })
}

/// Resolve `--faults` into a plan seeded by `--seed`: `default` scales
/// to the paper's default intensity, anything else is a `drop=…,dup=…`
/// spec.
fn parse_fault_plan(spec: &str, seed: u64) -> Result<FaultPlan, String> {
    if spec == "default" {
        return Ok(FaultPlan::default_intensity(seed));
    }
    FaultPlan::parse(spec, seed).map_err(|e| format!("--faults: {e}"))
}

fn parse_run_args(args: &[String]) -> Result<(String, Options), String> {
    let (path, rest) = args.split_first().ok_or("run needs a .qasm path")?;
    Ok((path.clone(), parse_options(rest)?))
}

fn parse_demo_args(args: &[String]) -> Result<(String, u32, Options), String> {
    let (family, rest) = args.split_first().ok_or("demo needs a family name")?;
    let (n, rest) = rest.split_first().ok_or("demo needs a qubit count")?;
    let n: u32 = n.parse().map_err(|e| format!("qubit count: {e}"))?;
    Ok((family.clone(), n, parse_options(rest)?))
}

fn build_family(family: &str, n: u32, seed: u64) -> Result<Circuit, String> {
    Ok(match family {
        "ghz" => library::ghz(n),
        "qft" => library::qft(n),
        "random" => library::random_circuit(n, 2 * n as usize, seed),
        "qv" => library::quantum_volume(n, seed),
        "trotter" => library::trotter_ising(n, 8, 1.0, 0.8, 0.1),
        "qaoa" => library::qaoa_maxcut_ring(n, 2, &[0.6, 0.4], &[0.3, 0.2]),
        "grover" => library::grover(n, (1usize << n) - 2),
        "shor" => {
            let t = n
                .checked_sub(4)
                .filter(|&t| t >= 2)
                .ok_or("shor needs n ≥ 6 (4 work + ≥2 counting qubits)")?;
            library::shor15_order_finding(7, t)
        }
        other => return Err(format!("unknown family `{other}`")),
    })
}

fn execute(circuit: &Circuit, opts: &Options) -> Result<(), String> {
    println!(
        "circuit: {} qubits, {} gates, depth {}",
        circuit.n_qubits(),
        circuit.len(),
        circuit.depth()
    );
    if opts.verbose {
        print!("configuration:\n{}", opts.config.describe());
    }

    let state = if opts.ranks > 1 {
        execute_distributed(circuit, opts)?
    } else if opts.trajectories > 0 || opts.config.batch > 1 {
        execute_batched(circuit, opts)?
    } else {
        let sim = opts.config.clone().build().map_err(|e| e.to_string())?;
        let mut state = StateVector::zero(circuit.n_qubits());
        let report = sim.run(circuit, &mut state).map_err(|e| e.to_string())?;
        println!(
            "executed {} sweeps in {:.3} ms (host, {} kernels)",
            report.sweeps,
            report.wall_seconds * 1e3,
            report.backend
        );
        if let Some(model) = &report.predicted {
            println!(
                "A64FX model: {:.3} µs, {:.1} MiB HBM traffic, {:.1} GF/s effective, bottlenecks {:?}",
                model.seconds * 1e6,
                model.mem_bytes as f64 / (1 << 20) as f64,
                model.gflops(),
                model.bottlenecks
            );
        }
        if let Some(trace) = &report.trace {
            println!(
                "trace: {} spans ({} dropped), {:.1} MiB touched",
                trace.summary.spans,
                trace.summary.dropped,
                trace.summary.bytes as f64 / (1 << 20) as f64
            );
            if opts.verbose {
                print!("{}", DriftReport::from_trace(trace).to_table());
            }
            if let Some(path) = &opts.config.telemetry.trace_path {
                println!("trace written to {}", path.display());
            }
        }
        if opts.verbose {
            // The unified result schema — same line the job server's
            // usage ledger appends and `GET /stats` aggregates from.
            let outcome = Outcome::from(&report)
                .with_config(
                    &opts.config.strategy.to_string(),
                    opts.config.pool.threads() as u32,
                    circuit.n_qubits(),
                )
                .with_label("cli");
            println!("outcome: {}", outcome.to_json());
        }
        state
    };

    if opts.probs > 0 {
        let mut probs: Vec<(usize, f64)> = state.probabilities().into_iter().enumerate().collect();
        probs.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("top {} probabilities:", opts.probs);
        let width = circuit.n_qubits() as usize;
        for &(basis, p) in probs.iter().take(opts.probs) {
            println!("  |{basis:0width$b}⟩  {p:.6}");
        }
    }

    if opts.shots > 0 {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        println!("{} shots:", opts.shots);
        let width = circuit.n_qubits() as usize;
        for (basis, count) in sample_counts(&state, opts.shots, &mut rng) {
            println!("  |{basis:0width$b}⟩  {count}");
        }
    }
    Ok(())
}

/// Gate-major batched execution: `--batch` runs B fresh members of the
/// same circuit, `--trajectories` samples N noisy trajectories. Both
/// are bit-identical to the equivalent sequence of single runs; the
/// returned state (member 0) feeds `--probs` / `--shots` like a single
/// run's would.
fn execute_batched(circuit: &Circuit, opts: &Options) -> Result<StateVector, String> {
    let engine = BatchSimulator::from_config(opts.config.clone()).map_err(|e| e.to_string())?;
    if opts.trajectories > 0 {
        let channel = opts.noise.expect("parse_options guarantees --noise with --trajectories");
        let seeds: Vec<u64> =
            (0..opts.trajectories as u64).map(|i| opts.seed.wrapping_add(i)).collect();
        let batch = engine.run_trajectories(circuit, channel, &seeds).map_err(|e| e.to_string())?;
        let total: usize = batch.errors.iter().sum();
        println!(
            "sampled {} trajectories in {:.3} ms (batch #{}, {:.1} trajectories/s)",
            batch.states.len(),
            batch.wall_seconds * 1e3,
            batch.batch_id,
            batch.states.len() as f64 / batch.wall_seconds
        );
        println!(
            "noise: {:?}, {} error events total ({:.2} per trajectory)",
            channel,
            total,
            total as f64 / batch.states.len() as f64
        );
        let mut states = batch.states;
        Ok(states.swap_remove(0))
    } else {
        let (mut states, report) = engine.run_fresh(circuit).map_err(|e| e.to_string())?;
        println!(
            "executed {} members × {} sweeps in {:.3} ms (batch #{}, {} kernels, \
             {:.1} circuits/s)",
            report.members,
            report.sweeps,
            report.wall_seconds * 1e3,
            report.batch_id,
            report.backend,
            report.circuits_per_sec
        );
        if let Some(model) = &report.predicted {
            println!(
                "A64FX model: {:.1} circuits/s batched member-major vs {:.1} gate-major \
                 ({:.2}× from cache residency and one region per batch)",
                model.circuits_per_sec_batched(),
                model.circuits_per_sec_gate_major(),
                model.speedup
            );
        }
        if !report.traces.is_empty() {
            let spans: usize = report.traces.iter().map(|t| t.summary.spans).sum();
            println!("trace: {} member traces, {} spans total", report.traces.len(), spans);
            if let Some(path) = &opts.config.telemetry.trace_path {
                println!("traces written to {}", path.display());
            }
        }
        if opts.verbose {
            let outcome = Outcome::from(&report)
                .with_config(
                    &opts.config.strategy.to_string(),
                    opts.config.pool.threads() as u32,
                    circuit.n_qubits(),
                )
                .with_label("cli");
            println!("outcome: {}", outcome.to_json());
        }
        Ok(states.swap_remove(0))
    }
}

fn execute_distributed(circuit: &Circuit, opts: &Options) -> Result<StateVector, String> {
    let plan = opts.dist_plan.unwrap_or_default();
    println!("running on {} in-process ranks ({plan} plan)…", opts.ranks);
    let telemetry = &opts.config.telemetry;
    let resilient = opts.faults.is_some()
        || opts.config.checkpoint.is_some()
        || opts.config.integrity.enabled();
    if resilient {
        return execute_resilient(circuit, opts);
    }
    let state = if telemetry.enabled {
        let (state, stats, traces) =
            run_distributed_planned_traced(circuit, opts.ranks, plan, telemetry)
                .map_err(|e| e.to_string())?;
        let total: u64 = stats.iter().map(|s| s.bytes_sent).sum();
        println!("communication: {:.2} MiB total across ranks", total as f64 / (1 << 20) as f64);
        for trace in &traces {
            let rank = trace.spans.first().map_or(0, |s| s.rank);
            println!(
                "rank {rank}: {} exchange spans, {:.2} MiB on the wire, {:.3} ms in exchanges",
                trace.summary.spans,
                trace.summary.bytes as f64 / (1 << 20) as f64,
                trace.summary.wall_ns as f64 / 1e6
            );
        }
        if let Some(path) = &telemetry.trace_path {
            println!("trace written to {}", path.display());
        }
        state
    } else {
        let (state, stats) =
            run_distributed_planned(circuit, opts.ranks, plan).map_err(|e| e.to_string())?;
        let total: u64 = stats.iter().map(|s| s.bytes_sent).sum();
        println!("communication: {:.2} MiB total across ranks", total as f64 / (1 << 20) as f64);
        state
    };
    Ok(state)
}

/// Distributed execution through the recovery envelope: fault plan on
/// the transport, coordinated checkpoints, integrity guards.
fn execute_resilient(circuit: &Circuit, opts: &Options) -> Result<StateVector, String> {
    let fault_plan =
        opts.faults.as_deref().map(|spec| parse_fault_plan(spec, opts.seed)).transpose()?;
    let cfg = ResilienceConfig {
        fault_plan,
        checkpoint_every: opts.config.checkpoint.as_ref().map_or(0, |c| c.every),
        checkpoint_dir: opts.config.checkpoint.as_ref().map(|c| c.dir.clone()),
        max_replays: opts.config.checkpoint.as_ref().map_or(3, |c| c.max_replays),
        integrity: opts.config.integrity.clone(),
        telemetry: opts.config.telemetry.clone(),
        dist_plan: opts.dist_plan.unwrap_or_default(),
        ..ResilienceConfig::default()
    };
    let run = run_resilient(circuit, opts.ranks, &cfg).map_err(|e| e.to_string())?;
    let total: u64 = run.stats.iter().map(|s| s.bytes_sent).sum();
    let retries: u64 = run.stats.iter().map(|s| s.retries).sum();
    let corrupt: u64 = run.stats.iter().map(|s| s.corrupt_dropped).sum();
    let injected: u64 = run.stats.iter().map(|s| s.faults_injected).sum();
    println!("communication: {:.2} MiB total across ranks", total as f64 / (1 << 20) as f64);
    println!(
        "resilience: {} faults injected, {} retries, {} corrupt frames dropped, \
         {} rollbacks, {} checkpoints",
        injected,
        retries,
        corrupt,
        run.total_recoveries(),
        run.recovery.iter().map(|r| r.checkpoints).sum::<u64>()
    );
    for (rank, trace) in run.traces.iter().enumerate() {
        println!(
            "rank {rank}: {} exchange spans, {:.2} MiB on the wire, {:.3} ms in exchanges",
            trace.summary.spans,
            trace.summary.bytes as f64 / (1 << 20) as f64,
            trace.summary.wall_ns as f64 / 1e6
        );
    }
    if let Some(path) = &opts.config.telemetry.trace_path {
        println!("trace written to {}", path.display());
    }
    Ok(run.state)
}
