//! Job submissions: parsing, validation, and fingerprinting.
//!
//! A submission is a JSON object:
//!
//! ```json
//! {
//!   "tenant": "acme",
//!   "n": 12,
//!   "shots": 1000,
//!   "seed": 7,
//!   "strategy": "fused:4",
//!   "backend": "auto",
//!   "circuit": [{"gate":"h","q":[0]}, {"gate":"cx","q":[0,1]}],
//!   "observables": ["Z0 Z1", "X0"]
//! }
//! ```
//!
//! `circuit` is a gate list in the [`Circuit`] builder vocabulary;
//! alternatively `"qasm"` carries an OpenQASM 2 program for the
//! existing parser. Everything is validated here, *before* a job
//! reaches the queue — [`Circuit::push`] asserts on bad qubit indices,
//! and a panic in the scheduler would take the worker down, so the
//! worker must only ever see well-formed circuits and strategies the
//! engine accepts ([`SimConfig::validate`]).
//!
//! # Parameter sweeps
//!
//! Rotation gates may carry `"param": <slot>` instead of a concrete
//! `"theta"`, turning the submission into a *sweep*: a top-level
//! `"points"` array then lists the parameter vectors to evaluate, and
//! the result reports counts/expectations per point. The
//! [`fingerprint`](JobSpec::fingerprint) covers the *structure* (slots,
//! not values), so sweeps over the same template — different points,
//! different tenants — pack into one batch; the concrete
//! points only enter the result-cache key
//! ([`cache_fingerprint`](JobSpec::cache_fingerprint)).

use std::str::FromStr;

use qcs_core::circuit::{Circuit, Gate};
use qcs_core::config::SimConfig;
use qcs_core::expectation::{Pauli, PauliString};
use qcs_core::io::{fnv1a, fnv1a_update};
use qcs_core::kernels::simd::BackendChoice;
use qcs_core::sim::Strategy;
use qcs_core::variational::ParamCircuit;

use crate::error::QcsError;
use crate::json::Value;

/// A validated job, ready for the scheduler.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub tenant: String,
    pub n: u32,
    pub shots: u64,
    pub seed: u64,
    pub strategy: Strategy,
    pub backend: BackendChoice,
    /// Canonical strategy string (via `Display` — round-trips `FromStr`).
    pub strategy_str: String,
    /// Canonical backend string (`auto` / `scalar` / `simd`).
    pub backend_str: String,
    pub circuit: Circuit,
    /// `(source text, parsed operator)` pairs; the source text is echoed
    /// back in the result body.
    pub observables: Vec<(String, PauliString)>,
    /// The parameterized template, when any gate carried `"param"`.
    /// `circuit` then holds the template bound at `points[0]`.
    pub ansatz: Option<ParamCircuit>,
    /// Parameter points to evaluate (empty for plain jobs).
    pub points: Vec<Vec<f64>>,
}

fn bad(why: impl Into<String>) -> QcsError {
    QcsError::BadRequest(why.into())
}

impl JobSpec {
    /// Parse and validate one submission body.
    pub fn parse(body: &str) -> Result<JobSpec, QcsError> {
        let v = crate::json::parse(body).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        if !matches!(v, Value::Obj(_)) {
            return Err(bad("submission must be a JSON object"));
        }
        let tenant = v
            .get("tenant")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing string field 'tenant'"))?
            .to_string();
        if tenant.is_empty() || tenant.len() > 64 {
            return Err(bad("'tenant' must be 1..=64 characters"));
        }
        let shots = match v.get("shots") {
            None => 0,
            Some(s) => s.as_u64().ok_or_else(|| bad("'shots' must be a non-negative integer"))?,
        };
        if shots > 10_000_000 {
            return Err(bad("'shots' exceeds the 10M limit"));
        }
        let seed = match v.get("seed") {
            None => 0,
            Some(s) => s.as_u64().ok_or_else(|| bad("'seed' must be a non-negative integer"))?,
        };
        let strategy_text = v.get("strategy").and_then(Value::as_str).unwrap_or("auto");
        let strategy = Strategy::from_str(strategy_text).map_err(bad)?;
        SimConfig::default().strategy(strategy).validate().map_err(|e| bad(e.to_string()))?;
        let strategy_str = strategy.to_string();
        let backend_text = v.get("backend").and_then(Value::as_str).unwrap_or("auto");
        let backend = BackendChoice::from_str(backend_text).map_err(bad)?;
        let backend_str = match backend {
            BackendChoice::Auto => "auto",
            BackendChoice::Scalar => "scalar",
            BackendChoice::Simd => "simd",
        }
        .to_string();

        let (circuit, ansatz, points) = match (v.get("circuit"), v.get("qasm")) {
            (Some(_), Some(_)) => {
                return Err(bad("give either 'circuit' or 'qasm', not both"));
            }
            (Some(list), None) => {
                let n = v
                    .get("n")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad("missing integer field 'n'"))?;
                if n == 0 || n > 30 {
                    return Err(bad("'n' must be in 1..=30"));
                }
                let (template, saw_param) = parse_gate_list(n as u32, list)?;
                if saw_param {
                    let points = parse_points(&v, template.n_params())?;
                    let circuit = template.bind(&points[0]);
                    (circuit, Some(template), points)
                } else {
                    if v.get("points").is_some() {
                        return Err(bad(
                            "'points' needs parameterized gates ('param' slots) to bind",
                        ));
                    }
                    (template.bind(&[]), None, Vec::new())
                }
            }
            (None, Some(src)) => {
                if v.get("points").is_some() {
                    return Err(bad(
                        "'points' sweeps use the 'circuit' gate-list form, not 'qasm'",
                    ));
                }
                let src = src.as_str().ok_or_else(|| bad("'qasm' must be a string"))?;
                let c = qcs_core::qasm::parse(src)?;
                if let Some(n) = v.get("n").and_then(Value::as_u64) {
                    if n as u32 != c.n_qubits() {
                        return Err(bad(format!(
                            "'n' is {n} but the qasm program declares {}",
                            c.n_qubits()
                        )));
                    }
                }
                (strip_terminal_measurements(c)?, None, Vec::new())
            }
            (None, None) => return Err(bad("missing 'circuit' (gate list) or 'qasm'")),
        };
        let n = circuit.n_qubits();

        let mut observables = Vec::new();
        if let Some(list) = v.get("observables") {
            let list = list.as_arr().ok_or_else(|| bad("'observables' must be an array"))?;
            if list.len() > 64 {
                return Err(bad("at most 64 observables per job"));
            }
            for o in list {
                let text = o.as_str().ok_or_else(|| bad("observables are strings"))?;
                observables.push((text.to_string(), parse_pauli(text, n)?));
            }
        }

        Ok(JobSpec {
            tenant,
            n,
            shots,
            seed,
            strategy,
            backend,
            strategy_str,
            backend_str,
            circuit,
            observables,
            ansatz,
            points,
        })
    }

    /// Whether this job sweeps a parameterized template over points.
    pub fn is_sweep(&self) -> bool {
        self.ansatz.is_some()
    }

    /// FNV-1a fingerprint of everything that determines the *work* and
    /// its exact numerical result: width, gate sequence, strategy, and
    /// backend (different strategies agree only to rounding, so they
    /// must never share cache entries), plus the observable list (it
    /// shapes the result body). Jobs with equal fingerprints are
    /// batch-compatible; for sweeps the *template structure* (slots,
    /// fixed gates) is hashed — not the concrete points — so sweeps
    /// over the same template pack into one batch across tenants.
    /// `(cache_fingerprint, seed, shots)` keys the cache.
    pub fn fingerprint(&self) -> u64 {
        let header =
            format!("n={};strategy={};backend={};", self.n, self.strategy_str, self.backend_str);
        // A template hashes its own structure (fixed gates, which slot
        // drives which rotation), never a circuit bound at some point.
        let circuit = match &self.ansatz {
            Some(template) => template.fingerprint(),
            None => self.circuit.fingerprint(),
        };
        let mut h = fnv1a_update(fnv1a(header.as_bytes()), &circuit.to_le_bytes());
        for (src, _) in &self.observables {
            h = fnv1a_update(h, b"obs=");
            h = fnv1a_update(h, src.as_bytes());
            h = fnv1a_update(h, b";");
        }
        h
    }

    /// The result-cache key: the batch [`fingerprint`](JobSpec::fingerprint)
    /// plus the concrete parameter points — two sweeps over the same
    /// template share a batch but must never share cached results.
    pub fn cache_fingerprint(&self) -> u64 {
        let mut h = self.fingerprint();
        for point in &self.points {
            h = fnv1a_update(h, b"pt=");
            for val in point {
                h = fnv1a_update(h, &val.to_bits().to_le_bytes());
            }
            h = fnv1a_update(h, b";");
        }
        h
    }
}

/// A qasm program's trailing measurement layer is implied by `shots`
/// and dropped; anything *mid-circuit* (a measurement feeding later
/// gates, or any classically-controlled gate) cannot run under the
/// batch engine and is a clean 400.
fn strip_terminal_measurements(c: Circuit) -> Result<Circuit, QcsError> {
    if !c.has_nonunitary() {
        return Ok(c);
    }
    let gates = c.gates();
    let cut = gates.iter().rposition(|g| g.is_unitary()).map_or(0, |i| i + 1);
    for g in &gates[..cut] {
        if !g.is_unitary() {
            return Err(bad(
                "qasm: mid-circuit measurement / classical control is not supported by the \
                 job server; only a terminal measurement layer (implied by 'shots') is",
            ));
        }
    }
    if gates[cut..].iter().any(|g| !matches!(g, Gate::Measure { .. })) {
        return Err(bad("qasm: classically-controlled gates are not supported by the job server"));
    }
    let mut out = Circuit::new(c.n_qubits());
    for g in &gates[..cut] {
        out.push(g.clone());
    }
    Ok(out)
}

/// The `"points"` array of a sweep submission: 1..=256 parameter
/// vectors, each exactly `n_params` finite numbers long.
fn parse_points(v: &Value, n_params: usize) -> Result<Vec<Vec<f64>>, QcsError> {
    let list = v
        .get("points")
        .ok_or_else(|| bad("parameterized gates need a 'points' array of parameter vectors"))?;
    let list =
        list.as_arr().ok_or_else(|| bad("'points' must be an array of parameter vectors"))?;
    if list.is_empty() {
        return Err(bad("'points' must list at least one parameter vector"));
    }
    if list.len() > 256 {
        return Err(bad("at most 256 points per sweep job"));
    }
    let mut out = Vec::with_capacity(list.len());
    for (i, p) in list.iter().enumerate() {
        let arr =
            p.as_arr().ok_or_else(|| bad(format!("points[{i}] must be an array of numbers")))?;
        if arr.len() != n_params {
            return Err(bad(format!(
                "points[{i}] has {} values; the template has {n_params} parameter slot(s)",
                arr.len()
            )));
        }
        let vals: Vec<f64> = arr
            .iter()
            .map(Value::as_f64)
            .collect::<Option<_>>()
            .ok_or_else(|| bad(format!("points[{i}] entries must be numbers")))?;
        if vals.iter().any(|x| !x.is_finite()) {
            return Err(bad(format!("points[{i}] contains a non-finite value")));
        }
        out.push(vals);
    }
    Ok(out)
}

/// Gate-list vocabulary: the [`Circuit`] fluent-builder names, each with
/// its qubit arity and angle parameters. Returns the circuit as a
/// [`ParamCircuit`] template (binding a 0-parameter template yields the
/// plain circuit) plus whether any gate carried a `"param"` slot.
fn parse_gate_list(n: u32, list: &Value) -> Result<(ParamCircuit, bool), QcsError> {
    let list = list.as_arr().ok_or_else(|| bad("'circuit' must be an array"))?;
    if list.len() > 100_000 {
        return Err(bad("circuit exceeds the 100k-gate limit"));
    }
    let mut template = ParamCircuit::new(n);
    let mut saw_param = false;
    for (i, item) in list.iter().enumerate() {
        let at = |e: QcsError| match e {
            QcsError::BadRequest(why) => bad(format!("circuit[{i}]: {why}")),
            other => other,
        };
        if item.get("param").is_some() {
            saw_param = true;
            push_param_gate(&mut template, item).map_err(at)?;
            continue;
        }
        let gate = build_gate(item).map_err(at)?;
        // Validate before `fixed`, which asserts (and would panic).
        let qs = gate.qubits();
        for &q in &qs {
            if q >= n {
                return Err(bad(format!(
                    "circuit[{i}]: qubit {q} out of range for a {n}-qubit circuit"
                )));
            }
        }
        for (a, &qa) in qs.iter().enumerate() {
            if qs[a + 1..].contains(&qa) {
                return Err(bad(format!("circuit[{i}]: qubit {qa} used twice")));
            }
        }
        template.fixed(gate);
    }
    Ok((template, saw_param))
}

/// One `"param"`-carrying rotation: slot `p` may re-use any slot the
/// template already has, or be exactly the next fresh one — the same
/// allocate-in-order discipline the [`ParamCircuit`] builder asserts,
/// surfaced here as a 400.
fn push_param_gate(template: &mut ParamCircuit, item: &Value) -> Result<(), QcsError> {
    let name = item
        .get("gate")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing string field 'gate'"))?;
    if item.get("theta").is_some() {
        return Err(bad(format!("gate '{name}': give 'param' or 'theta', not both")));
    }
    let slot = item
        .get("param")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("'param' must be a non-negative integer slot"))? as usize;
    let qs: Vec<u32> = match item.get("q").and_then(Value::as_arr) {
        Some(arr) => arr
            .iter()
            .map(|q| q.as_u64().map(|q| q as u32))
            .collect::<Option<_>>()
            .ok_or_else(|| bad("'q' entries must be non-negative integers"))?,
        None => return Err(bad("missing array field 'q'")),
    };
    let n = template.n_qubits();
    for &q in &qs {
        if q >= n {
            return Err(bad(format!("qubit {q} out of range for a {n}-qubit circuit")));
        }
    }
    if qs.len() == 2 && qs[0] == qs[1] {
        return Err(bad(format!("gate '{name}': qubit {} used twice", qs[0])));
    }
    if slot > template.n_params() {
        return Err(bad(format!(
            "gate '{name}': parameter slot {slot} introduced out of order \
             ({} allocated so far; slots are dense, in first-use order)",
            template.n_params()
        )));
    }
    let fresh = slot == template.n_params();
    match (name, qs.len()) {
        ("rx", 1) => {
            if fresh {
                template.rx(qs[0]);
            } else {
                template.rx_param(qs[0], slot);
            }
        }
        ("ry", 1) => {
            if fresh {
                template.ry(qs[0]);
            } else {
                template.ry_param(qs[0], slot);
            }
        }
        ("rz", 1) => {
            if fresh {
                template.rz(qs[0]);
            } else {
                template.rz_param(qs[0], slot);
            }
        }
        ("rzz", 2) => {
            if fresh {
                template.rzz(qs[0], qs[1]);
            } else {
                template.rzz_param(qs[0], qs[1], slot);
            }
        }
        ("rxx", 2) => {
            if fresh {
                template.rxx(qs[0], qs[1]);
            } else {
                template.rxx_param(qs[0], qs[1], slot);
            }
        }
        _ => {
            return Err(bad(format!(
                "gate '{name}' with {} qubit(s) cannot take 'param' \
                 (parameterized gates: rx/ry/rz on 1 qubit, rzz/rxx on 2)",
                qs.len()
            )))
        }
    }
    Ok(())
}

fn build_gate(item: &Value) -> Result<Gate, QcsError> {
    let name = item
        .get("gate")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing string field 'gate'"))?;
    let qs: Vec<u32> = match item.get("q").and_then(Value::as_arr) {
        Some(arr) => arr
            .iter()
            .map(|q| q.as_u64().map(|q| q as u32))
            .collect::<Option<_>>()
            .ok_or_else(|| bad("'q' entries must be non-negative integers"))?,
        None => return Err(bad("missing array field 'q'")),
    };
    let q = |i: usize| -> Result<u32, QcsError> {
        qs.get(i).copied().ok_or_else(|| bad(format!("gate '{name}' needs more qubits")))
    };
    let angle = |field: &str| -> Result<f64, QcsError> {
        item.get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| bad(format!("gate '{name}' needs number field '{field}'")))
    };
    let arity = |want: usize| -> Result<(), QcsError> {
        if qs.len() == want {
            Ok(())
        } else {
            Err(bad(format!("gate '{name}' takes {want} qubit(s), got {}", qs.len())))
        }
    };
    let gate = match name {
        "h" => Gate::H(q(0)?),
        "x" => Gate::X(q(0)?),
        "y" => Gate::Y(q(0)?),
        "z" => Gate::Z(q(0)?),
        "s" => Gate::S(q(0)?),
        "sdg" => Gate::Sdg(q(0)?),
        "t" => Gate::T(q(0)?),
        "tdg" => Gate::Tdg(q(0)?),
        "sx" => Gate::Sx(q(0)?),
        "rx" => Gate::Rx(q(0)?, angle("theta")?),
        "ry" => Gate::Ry(q(0)?, angle("theta")?),
        "rz" => Gate::Rz(q(0)?, angle("theta")?),
        "p" => Gate::Phase(q(0)?, angle("theta")?),
        "u3" => Gate::U3(q(0)?, angle("theta")?, angle("phi")?, angle("lambda")?),
        "cx" => Gate::Cx(q(0)?, q(1)?),
        "cy" => Gate::Cy(q(0)?, q(1)?),
        "cz" => Gate::Cz(q(0)?, q(1)?),
        "cp" => Gate::CPhase(q(0)?, q(1)?, angle("theta")?),
        "swap" => Gate::Swap(q(0)?, q(1)?),
        "iswap" => Gate::ISwap(q(0)?, q(1)?),
        "rzz" => Gate::Rzz(q(0)?, q(1)?, angle("theta")?),
        "rxx" => Gate::Rxx(q(0)?, q(1)?, angle("theta")?),
        "ccx" => Gate::Ccx(q(0)?, q(1)?, q(2)?),
        "cswap" => Gate::CSwap(q(0)?, q(1)?, q(2)?),
        other => return Err(bad(format!("unknown gate '{other}'"))),
    };
    let want = gate.qubits().len();
    arity(want)?;
    Ok(gate)
}

/// Parse `"Z0 Z1"`-style Pauli strings: whitespace-separated terms, each
/// one of `X`/`Y`/`Z` followed by a qubit index.
fn parse_pauli(text: &str, n: u32) -> Result<PauliString, QcsError> {
    let mut ops = Vec::new();
    for term in text.split_whitespace() {
        let (p, idx) = term.split_at(1);
        let p = match p {
            "X" | "x" => Pauli::X,
            "Y" | "y" => Pauli::Y,
            "Z" | "z" => Pauli::Z,
            _ => return Err(bad(format!("observable term '{term}': expected X/Y/Z"))),
        };
        let q: u32 =
            idx.parse().map_err(|_| bad(format!("observable term '{term}': bad qubit index")))?;
        if q >= n {
            return Err(bad(format!("observable qubit {q} out of range (n={n})")));
        }
        if ops.iter().any(|&(oq, _)| oq == q) {
            return Err(bad(format!("observable '{text}' uses qubit {q} twice")));
        }
        ops.push((q, p));
    }
    if ops.is_empty() {
        return Err(bad("empty observable"));
    }
    Ok(PauliString::new(ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission(extra: &str) -> String {
        format!(
            r#"{{"tenant":"acme","n":3,"shots":64,"seed":9,"strategy":"fused:2",
                "backend":"scalar",
                "circuit":[{{"gate":"h","q":[0]}},{{"gate":"cx","q":[0,1]}},
                           {{"gate":"rx","q":[2],"theta":0.25}}]{extra}}}"#
        )
    }

    #[test]
    fn well_formed_submission_parses() {
        let spec = JobSpec::parse(&submission(",\"observables\":[\"Z0 Z1\",\"X2\"]")).unwrap();
        assert_eq!(spec.tenant, "acme");
        assert_eq!(spec.n, 3);
        assert_eq!(spec.circuit.len(), 3);
        assert_eq!(spec.strategy_str, "fused:2");
        assert_eq!(spec.backend_str, "scalar");
        assert_eq!(spec.observables.len(), 2);
    }

    #[test]
    fn qasm_submission_parses() {
        let spec = JobSpec::parse(
            r#"{"tenant":"t","qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"}"#,
        )
        .unwrap();
        assert_eq!(spec.n, 2);
        assert_eq!(spec.circuit.len(), 2);
    }

    #[test]
    fn bad_submissions_are_rejected_not_panicked() {
        let cases = [
            "not json".to_string(),
            "{}".to_string(),
            r#"{"tenant":"t","n":3,"circuit":[{"gate":"zap","q":[0]}]}"#.to_string(),
            r#"{"tenant":"t","n":3,"circuit":[{"gate":"h","q":[5]}]}"#.to_string(),
            r#"{"tenant":"t","n":3,"circuit":[{"gate":"cx","q":[1,1]}]}"#.to_string(),
            r#"{"tenant":"t","n":3,"circuit":[{"gate":"rx","q":[0]}]}"#.to_string(),
            r#"{"tenant":"t","n":3,"circuit":[{"gate":"h","q":[0,1]}]}"#.to_string(),
            r#"{"tenant":"t","n":0,"circuit":[]}"#.to_string(),
            r#"{"tenant":"t","n":3,"strategy":"warp","circuit":[]}"#.to_string(),
            submission("").replace("fused:2", "fused:6"),
            submission("").replace("fused:2", "planned:4:9"),
            submission("").replace("fused:2", "blocked:0"),
            submission(",\"observables\":[\"Q0\"]"),
            submission(",\"observables\":[\"Z0 Z0\"]"),
            submission(",\"observables\":[\"Z9\"]"),
        ];
        for body in &cases {
            let err = JobSpec::parse(body).unwrap_err();
            assert_eq!(err.code(), "serve/bad-request", "{body}");
        }
    }

    #[test]
    fn qasm_terminal_measurements_are_stripped() {
        let spec = JobSpec::parse(
            r#"{"tenant":"t","qasm":"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"}"#,
        )
        .unwrap();
        assert_eq!(spec.circuit.len(), 2, "the terminal measure layer is implied by shots");
        assert!(!spec.circuit.has_nonunitary());
    }

    #[test]
    fn qasm_mid_circuit_measurement_is_a_clean_400() {
        let mid = JobSpec::parse(
            r#"{"tenant":"t","qasm":"OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\nx q[1];\n"}"#,
        )
        .unwrap_err();
        assert_eq!(mid.code(), "serve/bad-request");
        let cif = JobSpec::parse(
            r#"{"tenant":"t","qasm":"OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\nif(c==1) x q[1];\n"}"#,
        )
        .unwrap_err();
        assert_eq!(cif.code(), "serve/bad-request");
    }

    fn sweep_submission(points: &str) -> String {
        format!(
            r#"{{"tenant":"acme","n":2,"seed":3,"backend":"scalar",
                "circuit":[{{"gate":"ry","q":[0],"param":0}},
                           {{"gate":"cz","q":[0,1]}},
                           {{"gate":"ry","q":[1],"param":1}}],
                "points":{points},
                "observables":["Z0 Z1"]}}"#
        )
    }

    #[test]
    fn sweep_submission_parses() {
        let spec = JobSpec::parse(&sweep_submission("[[0.1,0.2],[0.3,0.4]]")).unwrap();
        assert!(spec.is_sweep());
        assert_eq!(spec.points.len(), 2);
        assert_eq!(spec.ansatz.as_ref().unwrap().n_params(), 2);
        // `circuit` is the template bound at points[0].
        assert_eq!(spec.circuit.len(), 3);
    }

    #[test]
    fn sweep_fingerprint_covers_structure_not_points() {
        let a = JobSpec::parse(&sweep_submission("[[0.1,0.2]]")).unwrap();
        let b = JobSpec::parse(&sweep_submission("[[0.5,0.6],[0.7,0.8]]")).unwrap();
        // Same template ⇒ same batch fingerprint: the jobs pack.
        assert_eq!(a.fingerprint(), b.fingerprint());
        // …but never share cache entries.
        assert_ne!(a.cache_fingerprint(), b.cache_fingerprint());
        // A plain job never collides with a sweep job's cache key.
        let plain = JobSpec::parse(&submission("")).unwrap();
        assert_eq!(plain.fingerprint(), plain.cache_fingerprint());
    }

    #[test]
    fn param_slot_never_hashes_like_a_fixed_angle() {
        // Slot k must not stand in for the angle k.0: these two are
        // different circuits at the same point and may share neither a
        // batch nor a cache entry.
        let job = |second: &str| {
            JobSpec::parse(&format!(
                r#"{{"tenant":"t","n":2,
                    "circuit":[{{"gate":"ry","q":[0],"param":0}},
                               {{"gate":"ry","q":[1],{second}}}],
                    "points":[[0.7]]}}"#
            ))
            .unwrap()
        };
        let (shared, fixed) = (job("\"param\":0"), job("\"theta\":0.0"));
        assert_ne!(shared.fingerprint(), fixed.fingerprint());
        assert_ne!(shared.cache_fingerprint(), fixed.cache_fingerprint());
    }

    #[test]
    fn bad_sweep_submissions_are_rejected() {
        let cases = [
            // wrong point arity
            sweep_submission("[[0.1]]"),
            // empty and missing points
            sweep_submission("[]"),
            sweep_submission("null"),
            // non-finite value
            sweep_submission("[[0.1,\"nan\"]]"),
            // points without params
            submission(",\"points\":[[0.1]]"),
            // param slot out of order
            r#"{"tenant":"t","n":1,"circuit":[{"gate":"rx","q":[0],"param":1}],"points":[[0.1]]}"#
                .to_string(),
            // param on a non-rotation gate
            r#"{"tenant":"t","n":1,"circuit":[{"gate":"h","q":[0],"param":0}],"points":[[0.1]]}"#
                .to_string(),
            // both param and theta
            r#"{"tenant":"t","n":1,"circuit":[{"gate":"rx","q":[0],"param":0,"theta":0.5}],"points":[[0.1]]}"#
                .to_string(),
        ];
        for body in &cases {
            let err = JobSpec::parse(body).unwrap_err();
            assert_eq!(err.code(), "serve/bad-request", "{body}");
        }
    }

    #[test]
    fn shared_param_slot_drives_several_gates() {
        let spec = JobSpec::parse(
            r#"{"tenant":"t","n":2,
                "circuit":[{"gate":"rx","q":[0],"param":0},
                           {"gate":"rx","q":[1],"param":0}],
                "points":[[1.5]]}"#,
        )
        .unwrap();
        assert_eq!(spec.ansatz.as_ref().unwrap().n_params(), 1);
        assert_eq!(spec.circuit.len(), 2);
    }

    #[test]
    fn fingerprint_separates_work_that_differs() {
        let base = JobSpec::parse(&submission("")).unwrap();
        let same = JobSpec::parse(&submission("")).unwrap();
        assert_eq!(base.fingerprint(), same.fingerprint());
        // seed/shots do NOT enter the fingerprint (they share a batch)…
        let reseeded =
            JobSpec::parse(&submission("").replace("\"seed\":9", "\"seed\":10")).unwrap();
        assert_eq!(base.fingerprint(), reseeded.fingerprint());
        // …but strategy, backend, gates, and observables all do.
        let other_strategy = JobSpec::parse(&submission("").replace("fused:2", "naive")).unwrap();
        assert_ne!(base.fingerprint(), other_strategy.fingerprint());
        let other_backend =
            JobSpec::parse(&submission("").replace("\"scalar\"", "\"auto\"")).unwrap();
        assert_ne!(base.fingerprint(), other_backend.fingerprint());
        let other_angle = JobSpec::parse(&submission("").replace("0.25", "0.5")).unwrap();
        assert_ne!(base.fingerprint(), other_angle.fingerprint());
        let with_obs = JobSpec::parse(&submission(",\"observables\":[\"Z0\"]")).unwrap();
        assert_ne!(base.fingerprint(), with_obs.fingerprint());
    }
}
