//! JSON for the harness: the served library's reader and quoting
//! (`serve::json`), plus number printing with all digits.

use std::collections::BTreeMap;

pub use a64fx_qcs::serve::json::{parse, quote, Value};

/// A finite number with all its digits (`{:?}` round-trips an `f64`);
/// JSON has no NaN or infinity, so those become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

pub fn as_obj(v: &Value) -> Option<&BTreeMap<String, Value>> {
    match v {
        Value::Obj(fields) => Some(fields),
        _ => None,
    }
}

pub fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_non_finite_ones_become_null() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(parse(&num(0.1 + 0.2)).unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
