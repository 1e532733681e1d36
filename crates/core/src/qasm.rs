//! A minimal OpenQASM 2.0 front-end.
//!
//! Parses the common single-register subset of OpenQASM 2.0 into a
//! [`Circuit`], so benchmark circuits exported from Qiskit/QuEST
//! tooling run directly:
//!
//! * header (`OPENQASM 2.0;`) and `include` lines are accepted and
//!   ignored;
//! * one `qreg` declares the circuit width; one `creg` (≤ 64 bits)
//!   declares the classical register;
//! * gates: `h x y z s sdg t tdg sx rx ry rz p u1 u3 cx cy cz cp cu1
//!   swap rzz rxx ccx cswap id`;
//! * angle expressions support numbers, `pi`, `+ - * /`, unary minus,
//!   and parentheses;
//! * `measure q[i] -> c[j];` becomes [`Gate::Measure`] and
//!   `if(c==val) gate ...;` becomes [`Gate::Cif`] over the full creg
//!   mask (OpenQASM 2.0 `if` compares the whole register);
//! * `barrier` and comments are accepted and ignored.
//!
//! Anything else produces a [`QasmError`] with the line number.

use crate::circuit::{Circuit, Gate};

/// Parse failure with location.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QASM parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for QasmError {}

fn err(line: usize, message: impl Into<String>) -> QasmError {
    QasmError { line, message: message.into() }
}

/// Parse OpenQASM 2.0 source into a circuit.
pub fn parse(source: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    let mut qreg_name = String::new();
    let mut creg_name = String::new();
    let mut creg_size: u32 = 0;

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        // Strip // comments.
        let stmt_text = match raw.find("//") {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        for stmt in stmt_text.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                if circuit.is_some() {
                    return Err(err(line, "only one qreg is supported"));
                }
                let (name, size) = parse_reg(rest.trim(), line)?;
                qreg_name = name;
                circuit = Some(Circuit::new(size));
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("creg") {
                if creg_size != 0 {
                    return Err(err(line, "only one creg is supported"));
                }
                let (name, size) = parse_reg(rest.trim(), line)?;
                if size > 64 {
                    return Err(err(line, format!("creg size {size} exceeds the 64-bit register")));
                }
                creg_name = name;
                creg_size = size;
                continue;
            }
            if stmt.starts_with("barrier") {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("measure") {
                let c =
                    circuit.as_mut().ok_or_else(|| err(line, "measure before qreg declaration"))?;
                let (src, dst) = rest
                    .split_once("->")
                    .ok_or_else(|| err(line, "expected `measure q[i] -> c[j]`"))?;
                let q = parse_qubit(src, &qreg_name, line)?;
                let width = c.n_qubits();
                if q >= width {
                    return Err(err(line, format!("qubit index {q} exceeds qreg size {width}")));
                }
                if creg_size == 0 {
                    return Err(err(line, "measure before creg declaration"));
                }
                let bit = parse_qubit(dst, &creg_name, line)?;
                if bit >= creg_size {
                    return Err(err(
                        line,
                        format!("classical bit {bit} exceeds creg size {creg_size}"),
                    ));
                }
                c.push(Gate::Measure { q, creg: bit });
                continue;
            }
            if stmt.starts_with("if") && stmt[2..].trim_start().starts_with('(') {
                let rest = stmt[2..].trim_start();
                let rest = &rest[1..]; // consume `(`
                let close =
                    rest.find(')').ok_or_else(|| err(line, "missing `)` in if condition"))?;
                let cond = &rest[..close];
                let body = rest[close + 1..].trim();
                let (name, val_text) = cond
                    .split_once("==")
                    .ok_or_else(|| err(line, "if condition must be `creg==value`"))?;
                if creg_size == 0 {
                    return Err(err(line, "if before creg declaration"));
                }
                let name = name.trim();
                if name != creg_name {
                    return Err(err(
                        line,
                        format!("unknown register `{name}` (declared: `{creg_name}`)"),
                    ));
                }
                let val: u64 = val_text
                    .trim()
                    .parse()
                    .map_err(|_| err(line, "if value must be an unsigned integer"))?;
                let mask: u64 = if creg_size == 64 { u64::MAX } else { (1u64 << creg_size) - 1 };
                if val & !mask != 0 {
                    return Err(err(line, format!("if value {val} exceeds creg size {creg_size}")));
                }
                let c =
                    circuit.as_mut().ok_or_else(|| err(line, "gate before qreg declaration"))?;
                let gate = parse_gate(body, &qreg_name, c.n_qubits(), line)?;
                c.push(Gate::Cif { mask, val, gate: Box::new(gate) });
                continue;
            }
            // A gate statement: name[(params)] args.
            let c = circuit.as_mut().ok_or_else(|| err(line, "gate before qreg declaration"))?;
            let gate = parse_gate(stmt, &qreg_name, c.n_qubits(), line)?;
            c.push(gate);
        }
    }
    circuit.ok_or_else(|| err(0, "no qreg declaration found"))
}

/// `name[index]` → (`name`, `index`), both trimmed; `form` is the error
/// for text with no `[`.
fn indexed<'t>(text: &'t str, line: usize, form: &str) -> Result<(&'t str, &'t str), QasmError> {
    let (name, rest) = text.split_once('[').ok_or_else(|| err(line, form))?;
    let (index, _) = rest.split_once(']').ok_or_else(|| err(line, "missing `]`"))?;
    Ok((name.trim(), index.trim()))
}

/// `q[5]` → ("q", 5).
fn parse_reg(text: &str, line: usize) -> Result<(String, u32), QasmError> {
    let (name, size) = indexed(text, line, "expected `name[size]`")?;
    let size: u32 = size.parse().map_err(|_| err(line, "register size must be an integer"))?;
    if name.is_empty() || size == 0 {
        return Err(err(line, "register needs a name and nonzero size"));
    }
    Ok((name.to_string(), size))
}

/// One qubit operand `q[3]` → 3.
fn parse_qubit(text: &str, qreg: &str, line: usize) -> Result<u32, QasmError> {
    let text = text.trim();
    let (name, index) = indexed(text, line, &format!("expected `{qreg}[i]`, got `{text}`"))?;
    if name != qreg {
        return Err(err(line, format!("unknown register `{name}` (declared: `{qreg}`)")));
    }
    index.parse().map_err(|_| err(line, "qubit index must be an integer"))
}

/// One gate statement on a `width`-qubit register, its operands checked
/// the way [`Circuit::push`] asserts them: in range and distinct.
fn parse_gate(stmt: &str, qreg: &str, width: u32, line: usize) -> Result<Gate, QasmError> {
    // Split `name(params)` from operands.
    let (head, operands) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos) if stmt[..pos].find('(').is_none() || stmt[..pos].contains(')') => {
            (&stmt[..pos], &stmt[pos..])
        }
        _ => {
            // Parameters may contain spaces: split after the closing ')'.
            match stmt.find(')') {
                Some(pos) => (&stmt[..=pos], &stmt[pos + 1..]),
                None => {
                    let pos = stmt
                        .find(|c: char| c.is_whitespace())
                        .ok_or_else(|| err(line, "gate needs operands"))?;
                    (&stmt[..pos], &stmt[pos..])
                }
            }
        }
    };
    let (name, params) = match head.find('(') {
        Some(open) => {
            let close = open + head[open..].rfind(')').ok_or_else(|| err(line, "missing `)`"))?;
            let name = head[..open].trim();
            let params: Result<Vec<f64>, QasmError> =
                head[open + 1..close].split(',').map(|e| eval_expr(e, line)).collect();
            (name, params?)
        }
        None => (head.trim(), Vec::new()),
    };
    let qubits: Result<Vec<u32>, QasmError> =
        operands.split(',').map(|o| parse_qubit(o, qreg, line)).collect();
    let q = qubits?;

    let need = |n: usize, p: usize| -> Result<(), QasmError> {
        if q.len() != n {
            return Err(err(line, format!("`{name}` expects {n} qubit(s), got {}", q.len())));
        }
        if params.len() != p {
            return Err(err(
                line,
                format!("`{name}` expects {p} parameter(s), got {}", params.len()),
            ));
        }
        Ok(())
    };

    let gate = match name {
        "h" => {
            need(1, 0)?;
            Gate::H(q[0])
        }
        "x" => {
            need(1, 0)?;
            Gate::X(q[0])
        }
        "y" => {
            need(1, 0)?;
            Gate::Y(q[0])
        }
        "z" => {
            need(1, 0)?;
            Gate::Z(q[0])
        }
        "s" => {
            need(1, 0)?;
            Gate::S(q[0])
        }
        "sdg" => {
            need(1, 0)?;
            Gate::Sdg(q[0])
        }
        "t" => {
            need(1, 0)?;
            Gate::T(q[0])
        }
        "tdg" => {
            need(1, 0)?;
            Gate::Tdg(q[0])
        }
        "sx" => {
            need(1, 0)?;
            Gate::Sx(q[0])
        }
        "id" => {
            need(1, 0)?;
            Gate::Phase(q[0], 0.0)
        }
        "rx" => {
            need(1, 1)?;
            Gate::Rx(q[0], params[0])
        }
        "ry" => {
            need(1, 1)?;
            Gate::Ry(q[0], params[0])
        }
        "rz" => {
            need(1, 1)?;
            Gate::Rz(q[0], params[0])
        }
        "p" | "u1" => {
            need(1, 1)?;
            Gate::Phase(q[0], params[0])
        }
        "u3" | "u" => {
            need(1, 3)?;
            Gate::U3(q[0], params[0], params[1], params[2])
        }
        "cx" | "CX" => {
            need(2, 0)?;
            Gate::Cx(q[0], q[1])
        }
        "cy" => {
            need(2, 0)?;
            Gate::Cy(q[0], q[1])
        }
        "cz" => {
            need(2, 0)?;
            Gate::Cz(q[0], q[1])
        }
        "cp" | "cu1" => {
            need(2, 1)?;
            Gate::CPhase(q[0], q[1], params[0])
        }
        "swap" => {
            need(2, 0)?;
            Gate::Swap(q[0], q[1])
        }
        "rzz" => {
            need(2, 1)?;
            Gate::Rzz(q[0], q[1], params[0])
        }
        "rxx" => {
            need(2, 1)?;
            Gate::Rxx(q[0], q[1], params[0])
        }
        "ccx" => {
            need(3, 0)?;
            Gate::Ccx(q[0], q[1], q[2])
        }
        "cswap" => {
            need(3, 0)?;
            Gate::CSwap(q[0], q[1], q[2])
        }
        other => return Err(err(line, format!("unsupported gate `{other}`"))),
    };
    if let Some(&q) = q.iter().find(|&&q| q >= width) {
        return Err(err(line, format!("qubit index {q} exceeds qreg size {width}")));
    }
    if let Some(i) = (1..q.len()).find(|&i| q[..i].contains(&q[i])) {
        return Err(err(line, format!("`{name}` uses qubit {} twice", q[i])));
    }
    Ok(gate)
}

// ----- angle-expression evaluator (numbers, pi, + - * /, parens) --------

struct ExprParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

/// Evaluate an angle expression like `-3*pi/4` or `(pi + 1.5)/2`.
pub fn eval_expr(text: &str, line: usize) -> Result<f64, QasmError> {
    let mut p = ExprParser { chars: text.chars().peekable(), line };
    let v = p.expr()?;
    p.skip_ws();
    if p.chars.peek().is_some() {
        return Err(err(line, format!("trailing characters in expression `{text}`")));
    }
    // `1e999` or `1e308*10`: no gate has an infinite angle.
    if !v.is_finite() {
        return Err(err(line, format!("expression `{text}` is not a finite number")));
    }
    Ok(v)
}

impl ExprParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn expr(&mut self) -> Result<f64, QasmError> {
        let mut acc = self.term()?;
        loop {
            self.skip_ws();
            match self.chars.peek() {
                Some('+') => {
                    self.chars.next();
                    acc += self.term()?;
                }
                Some('-') => {
                    self.chars.next();
                    acc -= self.term()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn term(&mut self) -> Result<f64, QasmError> {
        let mut acc = self.factor()?;
        loop {
            self.skip_ws();
            match self.chars.peek() {
                Some('*') => {
                    self.chars.next();
                    acc *= self.factor()?;
                }
                Some('/') => {
                    self.chars.next();
                    let d = self.factor()?;
                    if d == 0.0 {
                        return Err(err(self.line, "division by zero in expression"));
                    }
                    acc /= d;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn factor(&mut self) -> Result<f64, QasmError> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some('-') => {
                self.chars.next();
                Ok(-self.factor()?)
            }
            Some('+') => {
                self.chars.next();
                self.factor()
            }
            Some('(') => {
                self.chars.next();
                let v = self.expr()?;
                self.skip_ws();
                if self.chars.next() != Some(')') {
                    return Err(err(self.line, "missing `)` in expression"));
                }
                Ok(v)
            }
            Some(c) if c.is_ascii_digit() || c == '.' => {
                let mut num = String::new();
                while matches!(self.chars.peek(), Some(&c) if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E')
                {
                    let c = self.chars.next().expect("peeked");
                    num.push(c);
                    // Exponent sign: `2e-3`, `1E+5`.
                    if (c == 'e' || c == 'E')
                        && matches!(self.chars.peek(), Some(&s) if s == '+' || s == '-')
                    {
                        num.push(self.chars.next().expect("peeked"));
                    }
                }
                num.parse().map_err(|_| err(self.line, format!("bad number `{num}`")))
            }
            Some(c) if c.is_alphabetic() => {
                let mut word = String::new();
                while matches!(self.chars.peek(), Some(&c) if c.is_alphanumeric() || c == '_') {
                    word.push(self.chars.next().expect("peeked"));
                }
                if word == "pi" {
                    Ok(std::f64::consts::PI)
                } else {
                    Err(err(self.line, format!("unknown identifier `{word}`")))
                }
            }
            other => Err(err(self.line, format!("unexpected `{other:?}` in expression"))),
        }
    }
}

/// Serialize a circuit back to OpenQASM 2.0 (round-trip support; custom
/// `Unitary1/Unitary2` matrices have no QASM form and are rejected).
pub fn emit(circuit: &Circuit) -> Result<String, String> {
    let mut out = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.n_qubits()));
    let creg_bits = circuit.creg_bits();
    if creg_bits > 0 {
        out.push_str(&format!("creg c[{creg_bits}];\n"));
    }
    for g in circuit.gates() {
        out.push_str(&gate_stmt(g, creg_bits)?);
        out.push('\n');
    }
    Ok(out)
}

/// One gate as a QASM statement. `creg_bits` is the emitted classical
/// register width — OpenQASM 2.0 `if` compares the whole register, so a
/// [`Gate::Cif`] is expressible only when its mask covers exactly that.
fn gate_stmt(g: &Gate, creg_bits: u32) -> Result<String, String> {
    let q = g.qubits();
    let stmt = match g {
        Gate::H(_)
        | Gate::X(_)
        | Gate::Y(_)
        | Gate::Z(_)
        | Gate::S(_)
        | Gate::Sdg(_)
        | Gate::T(_)
        | Gate::Tdg(_)
        | Gate::Sx(_) => {
            format!("{} q[{}];", g.name(), q[0])
        }
        Gate::Rx(_, a) | Gate::Ry(_, a) | Gate::Rz(_, a) | Gate::Phase(_, a) => {
            format!("{}({}) q[{}];", g.name(), a, q[0])
        }
        Gate::U3(_, t, p, l) => format!("u3({t},{p},{l}) q[{}];", q[0]),
        Gate::Cx(..) | Gate::Cy(..) | Gate::Cz(..) | Gate::Swap(..) => {
            format!("{} q[{}],q[{}];", g.name(), q[0], q[1])
        }
        Gate::CPhase(_, _, a) => format!("cp({a}) q[{}],q[{}];", q[0], q[1]),
        Gate::Rzz(_, _, a) => format!("rzz({a}) q[{}],q[{}];", q[0], q[1]),
        Gate::Rxx(_, _, a) => format!("rxx({a}) q[{}],q[{}];", q[0], q[1]),
        Gate::Ccx(..) => format!("ccx q[{}],q[{}],q[{}];", q[0], q[1], q[2]),
        Gate::CSwap(..) => format!("cswap q[{}],q[{}],q[{}];", q[0], q[1], q[2]),
        Gate::Measure { q, creg } => format!("measure q[{q}] -> c[{creg}];"),
        Gate::Cif { mask, val, gate } => {
            let full = if creg_bits >= 64 { u64::MAX } else { (1u64 << creg_bits) - 1 };
            if *mask != full {
                return Err(format!(
                    "cif mask {mask:#x} is not the full {creg_bits}-bit register; \
                     OpenQASM 2.0 `if` compares the whole creg"
                ));
            }
            format!("if(c=={val}) {}", gate_stmt(gate, creg_bits)?)
        }
        Gate::ISwap(..) | Gate::Unitary1(..) | Gate::Unitary2(..) => {
            return Err(format!("gate `{}` has no OpenQASM 2.0 form", g.name()))
        }
    };
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::sim::Simulator;
    use crate::state::StateVector;

    #[test]
    fn parse_bell_circuit() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            creg c[2];
            h q[0];
            cx q[0],q[1];
            measure q[0] -> c[0];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.gates(), &[Gate::H(0), Gate::Cx(0, 1), Gate::Measure { q: 0, creg: 0 }]);
        assert_eq!(c.creg_bits(), 1);
        assert!(c.has_nonunitary());
    }

    #[test]
    fn parse_measure_and_classical_if() {
        let src = r#"
            qreg q[2];
            creg c[2];
            h q[0];
            measure q[0] -> c[0];
            if(c==1) x q[1];
            measure q[1] -> c[1];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.gates().len(), 4);
        assert_eq!(c.gates()[1], Gate::Measure { q: 0, creg: 0 });
        match &c.gates()[2] {
            Gate::Cif { mask, val, gate } => {
                assert_eq!(*mask, 0b11);
                assert_eq!(*val, 1);
                assert_eq!(**gate, Gate::X(1));
            }
            g => panic!("{g:?}"),
        }
        assert_eq!(c.creg_bits(), 2);
    }

    #[test]
    fn measure_and_if_roundtrip_through_emit() {
        let mut c = Circuit::new(3);
        c.h(0).measure(0, 0).measure(1, 1);
        c.cif(0b11, 0b01, Gate::X(2));
        let text = emit(&c).unwrap();
        assert!(text.contains("creg c[2];"));
        assert!(text.contains("measure q[0] -> c[0];"));
        assert!(text.contains("if(c==1) x q[2];"));
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.gates(), c.gates());
    }

    #[test]
    fn emit_rejects_partial_creg_mask_cif() {
        let mut c = Circuit::new(2);
        c.measure(0, 0).measure(1, 1);
        // Single-bit condition over a 2-bit creg: no QASM 2.0 form.
        c.cif_bit(0, 1, Gate::X(1));
        let e = emit(&c).unwrap_err();
        assert!(e.contains("full"), "{e}");
    }

    #[test]
    fn measure_before_creg_rejected() {
        let e = parse("qreg q[2]; measure q[0] -> c[0];").unwrap_err();
        assert!(e.message.contains("before creg"));
    }

    #[test]
    fn if_value_beyond_creg_rejected() {
        let e = parse("qreg q[1]; creg c[1]; if(c==2) x q[0];").unwrap_err();
        assert!(e.message.contains("exceeds creg size"));
    }

    #[test]
    fn classical_bit_beyond_creg_rejected() {
        let e = parse("qreg q[2]; creg c[1]; measure q[0] -> c[1];").unwrap_err();
        assert!(e.message.contains("exceeds creg size"));
    }

    #[test]
    fn parse_parameterized_gates_and_pi() {
        let src = "qreg q[3]; rx(pi/2) q[0]; rz(-pi/4) q[1]; cp(2*pi/8) q[0],q[2]; u3(0.1, pi, -pi/2) q[2];";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 4);
        match &c.gates()[0] {
            Gate::Rx(0, a) => assert!((a - std::f64::consts::FRAC_PI_2).abs() < 1e-15),
            g => panic!("{g:?}"),
        }
        match &c.gates()[2] {
            Gate::CPhase(0, 2, a) => assert!((a - std::f64::consts::FRAC_PI_4).abs() < 1e-15),
            g => panic!("{g:?}"),
        }
    }

    #[test]
    fn expression_evaluator() {
        assert!((eval_expr("pi", 1).unwrap() - std::f64::consts::PI).abs() < 1e-15);
        assert!((eval_expr("-pi/2", 1).unwrap() + std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert!((eval_expr("(1 + 2) * 3", 1).unwrap() - 9.0).abs() < 1e-15);
        assert!((eval_expr("2e-3", 1).unwrap() - 0.002).abs() < 1e-18);
        assert!((eval_expr("3*pi/4", 1).unwrap() - 2.356194490192345).abs() < 1e-12);
        assert!(eval_expr("1/0", 1).is_err());
        assert!(eval_expr("foo", 1).is_err());
        assert!(eval_expr("1 +", 1).is_err());
        assert!(eval_expr("(1", 1).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "qreg q[2];\nh q[0];\nbogus q[1];";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn qubit_out_of_range_rejected() {
        let e = parse("qreg q[2]; h q[5];").unwrap_err();
        assert!(e.message.contains("exceeds"));
    }

    #[test]
    fn gate_before_qreg_rejected() {
        let e = parse("h q[0]; qreg q[2];").unwrap_err();
        assert!(e.message.contains("before qreg"));
    }

    #[test]
    fn wrong_arity_rejected() {
        assert!(parse("qreg q[3]; cx q[0];").unwrap_err().message.contains("expects 2"));
        assert!(parse("qreg q[3]; rx q[0];").unwrap_err().message.contains("1 parameter"));
    }

    #[test]
    fn unknown_register_rejected() {
        let e = parse("qreg q[2]; h r[0];").unwrap_err();
        assert!(e.message.contains("unknown register"));
    }

    #[test]
    fn roundtrip_qft_through_emit_and_parse() {
        let original = library::qft(5);
        let text = emit(&original).unwrap();
        let reparsed = parse(&text).unwrap();
        // Equivalent by state action (floating-point angle text round-trip
        // is exact for f64 Display? — not guaranteed; compare states).
        let mut a = StateVector::zero(5);
        let mut b = StateVector::zero(5);
        Simulator::new().run(&original, &mut a).unwrap();
        Simulator::new().run(&reparsed, &mut b).unwrap();
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn emit_rejects_custom_unitaries() {
        let qv = library::quantum_volume(4, 1);
        assert!(emit(&qv).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "// header\nqreg q[1];\n\n// a comment\nh q[0]; // trailing\n";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn malformed_operands_are_errors_not_panics() {
        for (src, line, message) in [
            ("qreg q[2];\ncx q[0],q[0];", 2, "`cx` uses qubit 0 twice"),
            ("qreg q[2];\nccx q[1],q[0],q[1];", 2, "`ccx` uses qubit 1 twice"),
            ("qreg q[2];\ncreg c[1];\nif(c==1) cx q[1],q[1];", 3, "`cx` uses qubit 1 twice"),
            ("qreg q]2[;", 1, "missing `]`"),
            ("qreg q[1];\nrx)0( q[0];", 2, "missing `)`"),
        ] {
            assert_eq!(parse(src).err(), Some(err(line, message)), "{src:?}");
        }
    }

    #[test]
    fn non_finite_angles_are_rejected() {
        assert!(eval_expr("1e999", 1).unwrap_err().message.contains("not a finite number"));
        assert!(eval_expr("1e308*10", 1).is_err());
        let e = parse("qreg q[1];\nrz(1e999) q[0];").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("not a finite number"), "{}", e.message);
    }

    #[test]
    fn multiple_statements_per_line() {
        let c = parse("qreg q[2]; h q[0]; h q[1]; cz q[0],q[1];").unwrap();
        assert_eq!(c.len(), 3);
    }
}
