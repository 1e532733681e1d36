//! Service conformance: the job server must be a transparent front on
//! the batch engine.
//!
//! Every test talks to a real `Server` over a loopback TCP socket —
//! nothing is mocked below the HTTP layer — and the headline matrix
//! compares the served counts and expectation values against a direct
//! in-process `BatchSimulator` run at tolerance **zero**: counts must
//! match exactly and expectation values must match to the bit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use a64fx_qcs::core::batch::BatchSimulator;
use a64fx_qcs::core::circuit::{Circuit, Gate};
use a64fx_qcs::core::config::SimConfig;
use a64fx_qcs::core::expectation::{Pauli, PauliString};
use a64fx_qcs::core::kernels::simd::BackendChoice;
use a64fx_qcs::core::measure::sample_counts;
use a64fx_qcs::core::sim::Strategy;
use a64fx_qcs::core::state::StateVector;
use a64fx_qcs::core::variational::ParamCircuit;
use a64fx_qcs::serve::client::{http_request, submit_job, wait_for_job};
use a64fx_qcs::serve::json::{parse, Value};
use a64fx_qcs::serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: u32 = 6;
const SHOTS: u64 = 200;
const SEED: u64 = 11;

/// The circuit every matrix cell submits: an entangling layer plus
/// rotations so no amplitude is trivially 0 or 1.
fn reference_circuit() -> Circuit {
    let mut c = Circuit::new(N);
    for q in 0..N {
        c.push(Gate::H(q));
    }
    c.push(Gate::Cx(0, 1));
    c.push(Gate::Cx(2, 3));
    c.push(Gate::Cx(4, 5));
    c.push(Gate::Rz(1, 0.3));
    c.push(Gate::Ry(3, -0.7));
    c.push(Gate::Rx(5, 1.1));
    c.push(Gate::Cz(1, 4));
    c.push(Gate::T(0));
    c
}

/// JSON gate list matching [`reference_circuit`] exactly.
fn reference_circuit_json() -> &'static str {
    r#"[
        {"gate":"h","q":[0]},{"gate":"h","q":[1]},{"gate":"h","q":[2]},
        {"gate":"h","q":[3]},{"gate":"h","q":[4]},{"gate":"h","q":[5]},
        {"gate":"cx","q":[0,1]},{"gate":"cx","q":[2,3]},{"gate":"cx","q":[4,5]},
        {"gate":"rz","q":[1],"theta":0.3},
        {"gate":"ry","q":[3],"theta":-0.7},
        {"gate":"rx","q":[5],"theta":1.1},
        {"gate":"cz","q":[1,4]},
        {"gate":"t","q":[0]}
    ]"#
}

fn submit_body(tenant: &str, strategy: &str, backend: &str, seed: u64) -> String {
    format!(
        r#"{{"tenant":"{tenant}","n":{N},"shots":{SHOTS},"seed":{seed},
            "strategy":"{strategy}","backend":"{backend}",
            "observables":["Z0 Z1","X2"],
            "circuit":{}}}"#,
        reference_circuit_json()
    )
}

/// What the server should have computed, straight from the batch engine.
fn direct_run(strategy: &str, backend: &str) -> (Vec<(usize, u64)>, Vec<f64>) {
    direct_run_of(&reference_circuit(), strategy, backend, SEED)
}

/// [`direct_run`] of any circuit, sampled under `seed`.
fn direct_run_of(
    circuit: &Circuit,
    strategy: &str,
    backend: &str,
    seed: u64,
) -> (Vec<(usize, u64)>, Vec<f64>) {
    let cfg = SimConfig::default()
        .strategy(strategy.parse::<Strategy>().unwrap())
        .backend(backend.parse::<BackendChoice>().unwrap())
        .batch(1);
    let sim = BatchSimulator::from_config(cfg).unwrap();
    let (states, _report) = sim.run_fresh(circuit).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let counts = sample_counts(&states[0], SHOTS as usize, &mut rng);
    let z0z1 = PauliString::new(vec![(0, Pauli::Z), (1, Pauli::Z)]);
    let x2 = PauliString::new(vec![(2, Pauli::X)]);
    let expectations = vec![z0z1.expectation(&states[0]), x2.expectation(&states[0])];
    (counts, expectations)
}

fn served_counts(result: &Value) -> Vec<(usize, u64)> {
    result
        .get("counts")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().unwrap();
            (pair[0].as_u64().unwrap() as usize, pair[1].as_u64().unwrap())
        })
        .collect()
}

fn served_expectations(result: &Value) -> Vec<f64> {
    result
        .get("expectations")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|e| e.get("value").and_then(Value::as_f64).unwrap())
        .collect()
}

#[test]
fn served_results_are_bit_identical_to_direct_batch_runs() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    for strategy in ["naive", "fused:3", "planned:4:3", "auto"] {
        for backend in ["auto", "scalar"] {
            let body = submit_body("conformance", strategy, backend, SEED);
            let id = submit_job(addr, &body).unwrap();
            assert_eq!(
                wait_for_job(addr, id).unwrap(),
                "done",
                "job failed for {strategy}/{backend}"
            );
            let (status, raw) =
                http_request(addr, "GET", &format!("/jobs/{id}/result"), "").unwrap();
            assert_eq!(status, 200, "result fetch failed for {strategy}/{backend}: {raw}");
            let result = parse(&raw).unwrap();
            assert_eq!(result.get("n_qubits").and_then(Value::as_u64), Some(u64::from(N)));
            assert_eq!(result.get("shots").and_then(Value::as_u64), Some(SHOTS));
            assert_eq!(
                result.get("strategy").and_then(|s| s.as_str().map(String::from)),
                Some(strategy.to_string())
            );

            let (want_counts, want_exp) = direct_run(strategy, backend);
            assert_eq!(
                served_counts(&result),
                want_counts,
                "counts diverge for {strategy}/{backend}"
            );
            let got_exp = served_expectations(&result);
            assert_eq!(got_exp.len(), want_exp.len());
            for (i, (got, want)) in got_exp.iter().zip(&want_exp).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "expectation {i} diverges for {strategy}/{backend}: {got} vs {want}"
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn cache_hit_returns_byte_identical_json() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let body = submit_body("cache-tenant", "fused:3", "auto", SEED);

    let first = submit_job(addr, &body).unwrap();
    assert_eq!(wait_for_job(addr, first).unwrap(), "done");
    let (status, first_body) =
        http_request(addr, "GET", &format!("/jobs/{first}/result"), "").unwrap();
    assert_eq!(status, 200);

    // Same (circuit, seed, shots): must be answered from cache, and the
    // result bytes must be indistinguishable from the computed ones.
    let (status, resp) = http_request(addr, "POST", "/jobs", &body).unwrap();
    assert_eq!(status, 202);
    assert!(resp.contains("\"cached\":true"), "second submit not served from cache: {resp}");
    let second = parse(&resp).unwrap().get("job_id").and_then(Value::as_u64).unwrap();
    let (status, second_body) =
        http_request(addr, "GET", &format!("/jobs/{second}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(first_body, second_body, "cache hit must be byte-identical");

    // A different seed is a different result: miss, not a stale hit.
    let third =
        submit_job(addr, &submit_body("cache-tenant", "fused:3", "auto", SEED + 1)).unwrap();
    assert_eq!(wait_for_job(addr, third).unwrap(), "done");
    let (_, third_body) = http_request(addr, "GET", &format!("/jobs/{third}/result"), "").unwrap();
    assert_ne!(first_body, third_body);

    let stats = server.stats();
    assert_eq!(stats.cache_hits, 1);
    assert!(stats.cache_misses >= 2);
    server.shutdown();
}

#[test]
fn over_quota_tenant_is_rejected_cleanly() {
    let cfg = ServeConfig {
        quota: 1,
        // Long packing window: the first job stays queued while the
        // second submission arrives, so the quota is actually exercised.
        window_ms: 1_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let first = submit_job(addr, &submit_body("greedy", "naive", "auto", 1)).unwrap();
    let (status, resp) =
        http_request(addr, "POST", "/jobs", &submit_body("greedy", "naive", "auto", 2)).unwrap();
    assert_eq!(status, 429, "second active job must trip the quota: {resp}");
    assert!(resp.contains("serve/quota-exceeded"), "wrong error code: {resp}");

    // Quotas are per tenant: another tenant is admitted immediately.
    let other = submit_job(addr, &submit_body("patient", "naive", "auto", 3)).unwrap();

    assert_eq!(wait_for_job(addr, first).unwrap(), "done");
    assert_eq!(wait_for_job(addr, other).unwrap(), "done");

    // With the first job finished, the tenant's slot is free again.
    let retry = submit_job(addr, &submit_body("greedy", "naive", "auto", 2)).unwrap();
    assert_eq!(wait_for_job(addr, retry).unwrap(), "done");

    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
    server.shutdown();
}

#[test]
fn malformed_submissions_are_rejected_without_killing_the_worker() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    // Nested past the parser's depth bound: one stack frame per byte
    // would overflow the connection thread's stack and abort the server.
    let bottomless = "[".repeat(100_000);
    let malformed = [
        bottomless.as_str(),
        // Not JSON at all.
        "{{{{",
        // Missing the circuit.
        r#"{"tenant":"t","n":2,"shots":8,"seed":1}"#,
        // Qubit out of range.
        r#"{"tenant":"t","n":2,"shots":8,"seed":1,"circuit":[{"gate":"h","q":[7]}]}"#,
        // Duplicate qubits on a two-qubit gate (would assert in Circuit::push).
        r#"{"tenant":"t","n":2,"shots":8,"seed":1,"circuit":[{"gate":"cx","q":[0,0]}]}"#,
        // Unknown gate name.
        r#"{"tenant":"t","n":2,"shots":8,"seed":1,"circuit":[{"gate":"warp","q":[0]}]}"#,
        // QASM with duplicate operands: the parser's own error.
        r#"{"tenant":"t","n":2,"shots":8,"seed":1,
            "qasm":"OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n"}"#,
        // A non-finite angle through either door: the NaN state it makes
        // would panic the sampler and wedge every later job.
        r#"{"tenant":"t","n":2,"shots":8,"seed":1,
            "circuit":[{"gate":"rx","q":[0],"theta":1e999}]}"#,
        r#"{"tenant":"t","n":2,"shots":8,"seed":1,
            "qasm":"OPENQASM 2.0;\nqreg q[2];\nrz(1e999) q[0];\n"}"#,
        // Observable wider than the register.
        r#"{"tenant":"t","n":2,"shots":8,"seed":1,"observables":["Z5"],
            "circuit":[{"gate":"h","q":[0]}]}"#,
    ];
    for body in malformed {
        let (status, resp) = http_request(addr, "POST", "/jobs", body).unwrap();
        let shown = &body[..body.len().min(120)];
        assert_eq!(status, 400, "expected a 400 for {shown:?}, got {status}: {resp}");
        assert!(resp.contains("\"error\""), "error body missing code: {resp}");
    }

    // The server shrugged all of that off and still does real work.
    let id = submit_job(addr, &submit_body("survivor", "auto", "auto", SEED)).unwrap();
    assert_eq!(wait_for_job(addr, id).unwrap(), "done");
    assert_eq!(server.stats().completed, 1);
    server.shutdown();
}

/// A fusion width narrower than a gate is raised to the gate's width,
/// so the job runs instead of panicking the scheduler thread (which
/// left it "running" and every later job "queued"); a width above 5,
/// whose fused blocks would hold dense 4^k matrices, is a 400.
#[test]
fn a_narrow_fusion_width_runs_and_a_wide_one_is_rejected() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let status = |id: u64| {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (code, body) = http_request(addr, "GET", &format!("/jobs/{id}"), "").unwrap();
            assert_eq!(code, 200, "{body}");
            let state =
                parse(&body).unwrap().get("status").and_then(Value::as_str).map(String::from);
            match state.as_deref() {
                Some("done" | "failed") => return state.unwrap(),
                _ if Instant::now() > deadline => panic!("job {id} is stuck: {body}"),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    };
    let narrow = submit_job(addr, &submit_body("narrow", "fused:1", "auto", SEED)).unwrap();
    assert_eq!(status(narrow), "done");
    let next = submit_job(addr, &submit_body("next", "naive", "auto", SEED)).unwrap();
    assert_eq!(status(next), "done");
    let (code, resp) =
        http_request(addr, "POST", "/jobs", &submit_body("wide", "fused:6", "auto", SEED)).unwrap();
    assert_eq!(code, 400, "{resp}");
    assert!(resp.contains("max_k"), "{resp}");
    server.shutdown();
}

#[test]
fn compatible_jobs_from_independent_tenants_share_one_batch() {
    let cfg = ServeConfig { window_ms: 400, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // Same circuit/strategy/backend, different tenants and seeds: the
    // scheduler must pack all three into one batch.
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            submit_job(addr, &submit_body(&format!("tenant-{i}"), "fused:3", "auto", 100 + i))
                .unwrap()
        })
        .collect();
    for &id in &ids {
        assert_eq!(wait_for_job(addr, id).unwrap(), "done");
    }

    let mut batch_ids = Vec::new();
    for &id in &ids {
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}"), "").unwrap();
        assert_eq!(status, 200);
        let v = parse(&body).unwrap();
        assert_eq!(v.get("members").and_then(Value::as_u64), Some(3), "not packed: {body}");
        batch_ids.push(v.get("batch_id").and_then(Value::as_u64).unwrap());
    }
    assert!(
        batch_ids.windows(2).all(|w| w[0] == w[1]),
        "jobs landed in different batches: {batch_ids:?}"
    );

    let stats = server.stats();
    assert_eq!(stats.batches, 1, "three compatible jobs should cost one batch run");
    assert_eq!(stats.packed_jobs, 3);
    assert_eq!(stats.max_batch_members, 3);
    server.shutdown();
}

#[test]
fn sweep_jobs_pack_per_point_across_tenants() {
    let cfg = ServeConfig { window_ms: 400, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // Two tenants sweep the same template at different points: the
    // structural fingerprint matches, so all three points ride one
    // batch.
    let sweep_body = |tenant: &str, points: &str| {
        format!(
            r#"{{"tenant":"{tenant}","n":3,"shots":0,"seed":5,
                "circuit":[{{"gate":"ry","q":[0],"param":0}},
                           {{"gate":"cx","q":[0,1]}},
                           {{"gate":"cx","q":[1,2]}},
                           {{"gate":"ry","q":[2],"param":1}}],
                "points":{points},
                "observables":["Z0 Z2","X0"]}}"#
        )
    };
    let alice_points = [[0.3, 0.9], [1.2, -0.4]];
    let a = submit_job(addr, &sweep_body("alice", "[[0.3,0.9],[1.2,-0.4]]")).unwrap();
    let b = submit_job(addr, &sweep_body("bob", "[[0.0,2.2]]")).unwrap();
    assert_eq!(wait_for_job(addr, a).unwrap(), "done");
    assert_eq!(wait_for_job(addr, b).unwrap(), "done");

    let stats = server.stats();
    assert_eq!(stats.batches, 1, "three points over one template should cost one batch");
    assert_eq!(stats.max_batch_members, 3, "per-point packing: 2 + 1 points in one batch");
    assert_eq!(stats.packed_jobs, 2);

    // Alice's per-point expectations are bit-identical to binding the
    // template and running each point serially under the strategy the
    // job ran with (none named: the server's default, `auto`).
    let (status, raw) = http_request(addr, "GET", &format!("/jobs/{a}/result"), "").unwrap();
    assert_eq!(status, 200, "{raw}");
    let result = parse(&raw).unwrap();
    assert_eq!(
        result.get("type").and_then(|t| t.as_str().map(String::from)).as_deref(),
        Some("sweep_result")
    );
    assert_eq!(result.get("points").and_then(Value::as_u64), Some(2));
    let per_point = result.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(per_point.len(), 2);
    let z0z2 = PauliString::new(vec![(0, Pauli::Z), (2, Pauli::Z)]);
    let x0 = PauliString::new(vec![(0, Pauli::X)]);
    for (i, point) in alice_points.iter().enumerate() {
        let mut template = ParamCircuit::new(3);
        template.ry(0).fixed(Gate::Cx(0, 1)).fixed(Gate::Cx(1, 2)).ry(2);
        let mut state = StateVector::zero(3);
        let serial = SimConfig::default().strategy(Strategy::Auto).build().unwrap();
        serial.run(&template.bind(point), &mut state).unwrap();
        let want = [z0z2.expectation(&state), x0.expectation(&state)];
        let got = served_expectations(&per_point[i]);
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "point {i} expectation {k}: {g} vs {w}");
        }
    }

    // Same template, different points: packs, but never a cache hit.
    let c = submit_job(addr, &sweep_body("alice", "[[0.7,0.7]]")).unwrap();
    assert_eq!(wait_for_job(addr, c).unwrap(), "done");
    assert_eq!(server.stats().cache_hits, 0);

    // Identical resubmission: a cache hit with byte-identical body.
    let (status, resp) =
        http_request(addr, "POST", "/jobs", &sweep_body("alice", "[[0.7,0.7]]")).unwrap();
    assert_eq!(status, 202);
    assert!(resp.contains("\"cached\":true"), "identical sweep not cached: {resp}");
    server.shutdown();
}

#[test]
fn the_usage_ledger_has_one_line_per_job_of_either_kind() {
    let ledger =
        std::env::temp_dir().join(format!("a64fx_qcs_serve_ledger_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&ledger);
    let cfg =
        ServeConfig { window_ms: 400, usage_path: Some(ledger.clone()), ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // Three packed plain jobs and one sweep job from four tenants.
    let mut jobs: Vec<(String, u64)> = (0..3)
        .map(|i| {
            let tenant = format!("plain-{i}");
            let id = submit_job(addr, &submit_body(&tenant, "naive", "auto", 300 + i)).unwrap();
            (tenant, id)
        })
        .collect();
    let sweep = r#"{"tenant":"sweeper","n":2,"shots":16,"seed":1,
        "circuit":[{"gate":"ry","q":[0],"param":0},{"gate":"cx","q":[0,1]}],
        "points":[[0.4],[1.3]]}"#;
    jobs.push(("sweeper".to_string(), submit_job(addr, sweep).unwrap()));
    for (_, id) in &jobs {
        assert_eq!(wait_for_job(addr, *id).unwrap(), "done");
    }
    // Shutting down joins the scheduler, which appends a group's lines
    // after it publishes the group's jobs.
    server.shutdown();

    let text = std::fs::read_to_string(&ledger).unwrap();
    let _ = std::fs::remove_file(&ledger);
    let mut labels: Vec<String> = text
        .lines()
        .map(|line| {
            let outcome = parse(line).unwrap();
            assert_eq!(outcome.get("type").and_then(Value::as_str), Some("outcome"), "{line}");
            outcome.get("label").and_then(Value::as_str).unwrap().to_string()
        })
        .collect();
    let mut want: Vec<String> =
        jobs.iter().map(|(tenant, id)| format!("tenant={tenant};job={id}")).collect();
    labels.sort();
    want.sort();
    assert_eq!(labels, want, "one ledger line per job, plain and sweep alike");
}

#[test]
fn a_late_twin_gets_the_bits_of_a_direct_run() {
    // A group slow enough that a twin submitted right after it usually
    // lands while it runs. Whether the twin joins it or runs next is
    // timing; its bits must be a direct run's either way.
    const WIDE: u32 = 16;
    let mut circuit = Circuit::new(WIDE);
    let mut gates = Vec::new();
    for layer in 0..6 {
        for q in 0..WIDE {
            let theta = 0.125 * f64::from(layer + q % 3 + 1);
            circuit.push(Gate::H(q));
            circuit.push(Gate::Rz(q, theta));
            gates.push(format!(
                r#"{{"gate":"h","q":[{q}]}},{{"gate":"rz","q":[{q}],"theta":{theta}}}"#
            ));
        }
        for q in 0..WIDE - 1 {
            circuit.push(Gate::Cx(q, q + 1));
            gates.push(format!(r#"{{"gate":"cx","q":[{q},{}]}}"#, q + 1));
        }
    }
    let body = |tenant: &str, seed: u64| {
        format!(
            r#"{{"tenant":"{tenant}","n":{WIDE},"shots":{SHOTS},"seed":{seed},"strategy":"naive",
                "observables":["Z0 Z1","X2"],"circuit":[{}]}}"#,
            gates.join(",")
        )
    };
    let ledger =
        std::env::temp_dir().join(format!("a64fx_qcs_serve_twins_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&ledger);
    let server =
        Server::start(ServeConfig { usage_path: Some(ledger.clone()), ..ServeConfig::default() })
            .unwrap();
    let addr = server.addr();
    let jobs: Vec<(&str, u64, u64)> = [("first", 21), ("twin", 22)]
        .into_iter()
        .map(|(tenant, seed)| (tenant, seed, submit_job(addr, &body(tenant, seed)).unwrap()))
        .collect();
    for &(tenant, seed, id) in &jobs {
        assert_eq!(wait_for_job(addr, id).unwrap(), "done");
        let (status, raw) = http_request(addr, "GET", &format!("/jobs/{id}/result"), "").unwrap();
        assert_eq!(status, 200, "{raw}");
        let result = parse(&raw).unwrap();
        let (want_counts, want_exp) = direct_run_of(&circuit, "naive", "auto", seed);
        assert_eq!(served_counts(&result), want_counts, "{tenant}'s counts");
        let got_exp = served_expectations(&result);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got_exp), bits(&want_exp), "{tenant}'s expectations");
    }
    server.shutdown();

    let text = std::fs::read_to_string(&ledger).unwrap();
    let _ = std::fs::remove_file(&ledger);
    let mut labels: Vec<String> = text
        .lines()
        .map(|line| parse(line).unwrap().get("label").and_then(Value::as_str).unwrap().to_string())
        .collect();
    labels.sort();
    let want: Vec<String> =
        jobs.iter().map(|(tenant, _, id)| format!("tenant={tenant};job={id}")).collect();
    assert_eq!(labels, want, "one ledger line per job");
}

#[test]
fn shutdown_never_waits_out_the_packing_window() {
    let server =
        Server::start(ServeConfig { window_ms: 10_000, ..ServeConfig::default() }).unwrap();
    let addr = server.addr();
    let id = submit_job(addr, &submit_body("patient", "naive", "auto", SEED)).unwrap();
    let (_, status) = http_request(addr, "GET", &format!("/jobs/{id}"), "").unwrap();
    assert!(status.contains("\"status\":\"queued\""), "the window holds the job: {status}");
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown waited {took:?}");
}

#[test]
fn replies_on_a_kept_alive_connection_never_wait_for_a_delayed_ack() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    for _ in 0..20 {
        writer.write_all(b"GET /healthz HTTP/1.1\r\nHost: conformance\r\n\r\n").unwrap();
        let mut length = 0;
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "connection closed");
            if line == "\r\n" {
                break;
            }
            if let Some(value) = line.strip_prefix("Content-Length:") {
                length = value.trim().parse().unwrap();
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body).unwrap();
        assert_eq!(body, b"{\"ok\":true}");
    }
    // One 40 ms delayed-ACK stall per reply would take 800 ms.
    let took = start.elapsed();
    assert!(took < Duration::from_millis(200), "20 kept-alive replies took {took:?}");
    server.shutdown();
}
