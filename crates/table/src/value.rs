//! Cell values.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value in a table.
///
/// The DSL's `Literal` production (`String ∪ Number ∪ Boolean`, Fig. 2 of the
/// paper) maps directly onto this enum, with `Null` added to represent missing
/// data and the `coerce` error-handling scheme's NaN-like placeholder.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing / coerced value.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal. `NaN` is normalized to [`Value::Null`] on
    /// construction via [`Value::float`].
    Float(f64),
    /// String literal.
    Str(String),
}

impl Value {
    /// Builds a float value, normalizing `NaN` to `Null` so that equality and
    /// hashing stay total.
    pub fn float(f: f64) -> Self {
        if f.is_nan() {
            Value::Null
        } else {
            Value::Float(f)
        }
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one. Booleans read as 0/1 so that
    /// aggregate queries like `AVG(CASE WHEN ... THEN 1 ELSE 0 END)` work over
    /// any encoding.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.parse::<f64>().ok(),
            Value::Null => None,
        }
    }

    /// Integer view of the value, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view of the value, without converting other types.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a raw CSV token into the most specific value type.
    ///
    /// Empty strings and the common NA spellings become `Null`; `true`/`false`
    /// become booleans; integer- and float-shaped tokens become numbers;
    /// everything else stays a string.
    pub fn parse_token(token: &str) -> Self {
        let t = token.trim();
        if t.is_empty() || t.eq_ignore_ascii_case("na") || t.eq_ignore_ascii_case("nan") || t == "?"
        {
            return Value::Null;
        }
        if t.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if t.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::float(f);
        }
        Value::Str(t.to_string())
    }

    /// A stable discriminant used for cross-type ordering.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats compare numerically
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equal; hash every
            // numeric through its f64 bit pattern (NaN is excluded by
            // `Value::float`), with `-0.0` as `+0.0` since the two are equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                (if *f == 0.0 { 0.0f64 } else { *f }).to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if a.type_rank() == 2 && b.type_rank() == 2 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn parse_token_types() {
        assert_eq!(Value::parse_token("42"), Value::Int(42));
        assert_eq!(Value::parse_token("4.5"), Value::Float(4.5));
        assert_eq!(Value::parse_token("true"), Value::Bool(true));
        assert_eq!(Value::parse_token("FALSE"), Value::Bool(false));
        assert_eq!(Value::parse_token("abc"), Value::from("abc"));
        assert_eq!(Value::parse_token(""), Value::Null);
        assert_eq!(Value::parse_token("NA"), Value::Null);
        assert_eq!(Value::parse_token("?"), Value::Null);
    }

    #[test]
    fn nan_normalizes_to_null() {
        assert_eq!(Value::float(f64::NAN), Value::Null);
        assert_eq!(Value::parse_token("NaN"), Value::Null);
    }

    #[test]
    fn int_float_equality_and_hash_consistency() {
        let i = Value::Int(3);
        let f = Value::Float(3.0);
        assert_eq!(i, f);
        assert_eq!(hash_of(&i), hash_of(&f));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        // Signed zero: `-0.0 == 0 == 0.0`, so all three hash alike.
        assert_eq!(Value::Float(-0.0), Value::Int(0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Int(0)));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            Value::from("b"),
            Value::Int(2),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
            Value::from("a"),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(1.5));
        assert_eq!(vals[3], Value::Int(2));
        assert_eq!(vals[4], Value::from("a"));
        assert_eq!(vals[5], Value::from("b"));
    }

    #[test]
    fn as_f64_coercions() {
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::from("2.5").as_f64(), Some(2.5));
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::from("xyz").as_f64(), None);
    }
}
