//! The one JSON reader and writer: the job server's wire protocol, the
//! trace sink's JSON lines, the `Outcome` ledger and the experiment
//! records all go through it.
//!
//! The schemas are small and known, so a recursive-descent parser into a
//! DOM of a few dozen nodes per document is all the reading there is.
//! Input arrives from the network: nesting is bounded ([`MAX_DEPTH`]), so
//! a body of four million `[` is a parse error, not a stack overflow.
//!
//! Writing stays string-building ([`escape_into`], [`push_str_field`],
//! [`push_num_field`], [`Value`]'s `Display`, and the response renderers
//! in the server) — `f64` values go through `Display`, which in Rust
//! prints the shortest round-trip representation, so a given result
//! renders to *byte-identical* JSON every time. The result cache and the
//! conformance suite rely on that.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers parse as `f64`; integral accessors check range.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A non-negative integer that fits exactly in an `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// The value as JSON, members separated by `", "` and keys by `": "`.
/// JSON has no NaN or infinity: a non-finite number is written as `null`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) if x.is_finite() => write!(f, "{x}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => f.write_str(&quote(s)),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("]")
            }
            Value::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    write!(f, "{}{}: {v}", if i > 0 { ", " } else { "" }, quote(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

macro_rules! value_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::Num(x as f64)
            }
        }
    )*};
}
value_from_number!(f64, u32, u64, usize);

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(x: Option<T>) -> Value {
        x.map_or(Value::Null, Into::into)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Every level
/// is one parser stack frame; the deepest document in any schema here
/// (a sweep job: object → `points` array → point array) has three.
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document. Returns `Err` with a short human-readable
/// reason on malformed or over-nested input — the server maps it to a
/// 400, never a panic.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// `depth` counts the arrays and objects already open around this value.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}", pos = *pos))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at offset {pos}", pos = *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut arr = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(arr));
    }
    loop {
        arr.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input arrived as &str, so
                // boundaries are valid).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad utf-8")?;
                let c = rest.chars().next().unwrap();
                if (c as u32) < 0x20 {
                    return Err("control character in string".to_string());
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
    // `1e999` parses to infinity; no field of any document means that.
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Value::Num(x)),
        _ => Err(format!("invalid number '{text}' at offset {start}")),
    }
}

/// Append `s` JSON-escaped (without surrounding quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// `"s"` with escaping, as a fresh string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Append `"key":"val",` (`val` escaped; `key` a literal that needs no
/// escaping) — one member of a flat object under construction, trailing
/// comma included.
pub fn push_str_field(out: &mut String, key: &str, val: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, val);
    out.push_str("\",");
}

/// Append `"key":val,` with `val` through `Display`.
pub fn push_num_field(out: &mut String, key: &str, val: impl std::fmt::Display) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&val.to_string());
    out.push(',');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_job_submission() {
        let v = parse(
            r#"{"tenant":"acme","n":3,"shots":100,"seed":7,
                "circuit":[{"gate":"h","q":[0]},{"gate":"rx","q":[1],"theta":0.5}],
                "observables":["Z0 Z1"]}"#,
        )
        .unwrap();
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("acme"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        let gates = v.get("circuit").unwrap().as_arr().unwrap();
        assert_eq!(gates.len(), 2);
        assert_eq!(gates[1].get("theta").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("observables").unwrap().as_arr().unwrap()[0].as_str(), Some("Z0 Z1"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok(), "the limit's depth parses");
        assert!(parse(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        // One stack frame per byte would overflow long before this ends.
        assert!(parse(&"[".repeat(100_000)).unwrap_err().contains("nesting"));
        assert!(parse(&"{\"a\":".repeat(100_000)).unwrap_err().contains("nesting"));
        // Depth counts open containers, not siblings.
        let wide = format!("[{}]", vec!["[]"; 1000].join(","));
        assert_eq!(parse(&wide).unwrap().as_arr().unwrap().len(), 1000);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }

    #[test]
    fn integral_accessor_guards_range() {
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for text in ["1e999", "-1e999", r#"{"theta":1e999}"#, "[0.5,-2e400]"] {
            assert!(parse(text).unwrap_err().contains("invalid number"), "{text}");
        }
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
    }
}
