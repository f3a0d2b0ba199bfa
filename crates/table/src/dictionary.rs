//! Per-column dictionaries mapping codes to distinct values.

use crate::value::Value;
use std::collections::HashMap;

/// Dictionary code for a cell. `NULL_CODE` marks missing values; all other
/// codes index into the owning column's [`Dictionary`].
pub type Code = u32;

/// Sentinel code for `Value::Null`. Nulls are kept out of the dictionary so
/// that `distinct_count` and value enumeration reflect observed non-null
/// values only (the paper's DSL never asserts over missing cells).
pub const NULL_CODE: Code = u32::MAX;

/// An append-only mapping between distinct [`Value`]s and dense `u32` codes.
///
/// Codes are assigned in first-observation order, which keeps encoding
/// deterministic for a given input — a property the synthesis pipeline relies
/// on for reproducible runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dictionary {
    values: Vec<Value>,
    index: HashMap<Value, Code>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct non-null values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Interns `value`, returning its code. Null always returns [`NULL_CODE`].
    pub fn encode(&mut self, value: Value) -> Code {
        if value.is_null() {
            return NULL_CODE;
        }
        if let Some(&code) = self.index.get(&value) {
            return code;
        }
        let code = self.values.len() as Code;
        assert!(code < NULL_CODE, "dictionary overflow: more than u32::MAX - 1 distinct values");
        self.index.insert(value.clone(), code);
        self.values.push(value);
        code
    }

    /// Looks up the code of an already-interned value without inserting.
    pub fn lookup(&self, value: &Value) -> Option<Code> {
        if value.is_null() {
            return Some(NULL_CODE);
        }
        self.index.get(value).copied()
    }

    /// Decodes a code back into its value. [`NULL_CODE`] decodes to `Null`.
    pub fn decode(&self, code: Code) -> Value {
        if code == NULL_CODE {
            Value::Null
        } else {
            self.values[code as usize].clone()
        }
    }

    /// Borrowing variant of [`Dictionary::decode`]; `None` for null.
    pub fn get(&self, code: Code) -> Option<&Value> {
        if code == NULL_CODE {
            None
        } else {
            self.values.get(code as usize)
        }
    }

    /// Iterates over `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (Code, &Value)> {
        self.values.iter().enumerate().map(|(i, v)| (i as Code, v))
    }

    /// All distinct values, in code order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The one binder from a table's codes into a fixed code space (this
    /// dictionary): extends `out`, indexed by `from`'s codes, with
    /// `code(self.lookup(value))` for each value `from` interned at or past
    /// `out.len()`. One hash lookup per distinct value, none per row, and a
    /// second call after `from` grew translates only the new values.
    pub fn translate_into<T>(
        &self,
        from: &Dictionary,
        out: &mut Vec<T>,
        code: impl Fn(Option<Code>) -> T,
    ) {
        let start = out.len().min(from.len());
        out.extend(from.values[start..].iter().map(|v| code(self.index.get(v).copied())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut d = Dictionary::new();
        let a = d.encode(Value::from("x"));
        let b = d.encode(Value::Int(7));
        let a2 = d.encode(Value::from("x"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.decode(a), Value::from("x"));
        assert_eq!(d.decode(b), Value::Int(7));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn null_uses_sentinel() {
        let mut d = Dictionary::new();
        assert_eq!(d.encode(Value::Null), NULL_CODE);
        assert_eq!(d.decode(NULL_CODE), Value::Null);
        assert!(d.is_empty());
        assert_eq!(d.lookup(&Value::Null), Some(NULL_CODE));
    }

    #[test]
    fn lookup_does_not_insert() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Value::from("missing")), None);
    }

    #[test]
    fn translate_into_extends_with_new_values_only() {
        let mut space = Dictionary::new();
        space.encode(Value::from("b"));
        let mut from = Dictionary::new();
        from.encode(Value::from("a"));
        from.encode(Value::from("b"));
        let mut out = Vec::new();
        space.translate_into(&from, &mut out, |c| c);
        assert_eq!(out, vec![None, Some(0)]);
        from.encode(Value::from("c"));
        space.encode(Value::from("c"));
        space.translate_into(&from, &mut out, |c| c);
        assert_eq!(out, vec![None, Some(0), Some(1)], "earlier entries stay as translated");
    }

    #[test]
    fn codes_are_first_observation_order() {
        let mut d = Dictionary::new();
        for (i, s) in ["c", "a", "b"].iter().enumerate() {
            assert_eq!(d.encode(Value::from(*s)), i as Code);
        }
    }
}
