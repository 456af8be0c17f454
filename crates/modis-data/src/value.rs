//! Cell values stored in MODis datasets.
//!
//! The paper works over structured tables whose cells may hold numbers,
//! categorical strings, booleans, or be missing (`Null`). Values must be
//! orderable and hashable so that active domains, equality literals and
//! cluster assignments are well defined.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single cell value.
///
/// `Null` represents a missing value (`t.A = ∅` in the paper). `Float` values
/// are compared with a total order (NaN sorts last) so `Value` can be used as
/// a key in ordered collections.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Missing value.
    #[default]
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Categorical / free-text value.
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Returns `true` if the value is missing.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Converts the value into `f64` when it has a natural numeric reading.
    ///
    /// Strings are parsed when possible; booleans map to 0/1; `Null` returns
    /// `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.trim().parse::<f64>().ok(),
        }
    }

    /// Returns the string payload if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns `true` when the value is numeric (`Int` or `Float`).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Parses a raw text token into the most specific value type.
    ///
    /// Empty strings, `"null"`, `"na"`, `"nan"` (case-insensitive) become
    /// `Null`; integers and floats are recognised; everything else is kept as
    /// a string.
    pub fn parse(token: &str) -> Value {
        let t = token.trim();
        if t.is_empty() {
            return Value::Null;
        }
        let lower = t.to_ascii_lowercase();
        if lower == "null" || lower == "na" || lower == "nan" || lower == "none" {
            return Value::Null;
        }
        if lower == "true" {
            return Value::Bool(true);
        }
        if lower == "false" {
            return Value::Bool(false);
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        Value::Str(t.to_string())
    }

    /// Rank of the variant used to order heterogeneous values.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                (a.is_nan() && b.is_nan()) || (a - b).abs() == 0.0
            }
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64 - b).abs() == 0.0
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        let (ra, rb) = (self.variant_rank(), other.variant_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => {
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                total_cmp_f64(a, b)
            }
        }
    }
}

/// Total order over floats with NaN sorted last.
fn total_cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.variant_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Str(s) => s.hash(state),
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) => {
                if f.is_nan() {
                    u64::MAX.hash(state)
                } else {
                    f.to_bits().hash(state)
                }
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn parse_recognises_types() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse("true"), Value::Bool(true));
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("NaN"), Value::Null);
        assert_eq!(Value::parse("hello"), Value::Str("hello".into()));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("2.5".into()).as_f64(), Some(2.5));
        assert_eq!(Value::Str("abc".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn ordering_is_total_and_null_first() {
        let mut vs = [
            Value::Str("b".into()),
            Value::Int(10),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert!(matches!(vs.last().unwrap(), Value::Str(_)));
    }

    #[test]
    fn hash_consistent_with_eq_for_int_float() {
        let mut set = HashSet::new();
        set.insert(Value::Int(7));
        assert!(set.contains(&Value::Float(7.0)));
    }

    #[test]
    fn display_roundtrip_for_ints() {
        assert_eq!(Value::Int(12).to_string(), "12");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn nan_handling() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert_eq!(nan.cmp(&Value::Float(1.0)), Ordering::Greater);
    }
}
