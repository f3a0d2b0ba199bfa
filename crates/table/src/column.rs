//! Dictionary-encoded columns.

use crate::dictionary::{Code, Dictionary, NULL_CODE};
use crate::schema::DataType;
use crate::value::Value;

/// A dictionary-encoded column: a dense code vector plus the dictionary of
/// distinct values those codes index.
///
/// All analytical work in the workspace — independence tests, FD partitions,
/// DSL condition matching — operates on the `codes` slice directly; values are
/// only materialized at API boundaries (CSV output, SQL results, DSL
/// literals).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Column {
    codes: Vec<Code>,
    dict: Dictionary,
}

impl Column {
    /// Creates an empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a column from values, interning each one.
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Self {
        let mut col = Column::new();
        for v in values {
            col.push(v);
        }
        col
    }

    /// Builds a column directly from codes and a dictionary.
    ///
    /// # Panics
    /// Panics if any non-null code is outside the dictionary.
    pub fn from_parts(codes: Vec<Code>, dict: Dictionary) -> Self {
        for &c in &codes {
            assert!(c == NULL_CODE || (c as usize) < dict.len(), "code {c} outside dictionary");
        }
        Self { codes, dict }
    }

    /// Appends a value, interning it.
    pub fn push(&mut self, value: Value) {
        let code = self.dict.encode(value);
        self.codes.push(code);
    }

    /// Appends an already-encoded code.
    ///
    /// # Panics
    /// Panics if the code is not in this column's dictionary.
    pub fn push_code(&mut self, code: Code) {
        assert!(
            code == NULL_CODE || (code as usize) < self.dict.len(),
            "code {code} outside dictionary"
        );
        self.codes.push(code);
    }

    /// Appends `other`'s cells, interning each of its values the first time
    /// one of its cells is copied (row order), then reusing the code: one
    /// hash lookup per distinct value, one array lookup per cell.
    pub(crate) fn append(&mut self, other: &Column) {
        let mut mapped = vec![NULL_CODE; other.dict.len()];
        self.codes.reserve(other.codes.len());
        for &code in &other.codes {
            if code == NULL_CODE {
                self.codes.push(NULL_CODE);
                continue;
            }
            let slot = &mut mapped[code as usize];
            if *slot == NULL_CODE {
                *slot = self.dict.encode(other.dict.values()[code as usize].clone());
            }
            self.codes.push(*slot);
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Raw code slice.
    pub fn codes(&self) -> &[Code] {
        &self.codes
    }

    /// The column's dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable access to the dictionary, for interning new literals (used by
    /// the rectifier when a synthesized literal did not occur in this split).
    pub fn dictionary_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Code of the cell at `row`.
    pub fn code(&self, row: usize) -> Code {
        self.codes[row]
    }

    /// Overwrites the cell at `row` with `value`, interning it if necessary.
    pub fn set(&mut self, row: usize, value: Value) {
        let code = self.dict.encode(value);
        self.codes[row] = code;
    }

    /// Overwrites the cell at `row` with an existing code.
    pub fn set_code(&mut self, row: usize, code: Code) {
        assert!(
            code == NULL_CODE || (code as usize) < self.dict.len(),
            "code {code} outside dictionary"
        );
        self.codes[row] = code;
    }

    /// Decoded value of the cell at `row` (`None` if out of bounds).
    pub fn get(&self, row: usize) -> Option<Value> {
        self.codes.get(row).map(|&c| self.dict.decode(c))
    }

    /// Number of distinct non-null values observed.
    pub fn distinct_count(&self) -> usize {
        self.dict.len()
    }

    /// Count of null cells.
    pub fn null_count(&self) -> usize {
        self.codes.iter().filter(|&&c| c == NULL_CODE).count()
    }

    /// Infers the narrowest [`DataType`] covering the dictionary.
    pub fn infer_type(&self) -> DataType {
        let mut ty: Option<DataType> = None;
        for v in self.dict.values() {
            let t = match v {
                Value::Bool(_) => DataType::Bool,
                Value::Int(_) => DataType::Int,
                Value::Float(_) => DataType::Float,
                Value::Str(_) => DataType::Str,
                Value::Null => continue,
            };
            ty = Some(match ty {
                None => t,
                Some(prev) if prev == t => t,
                Some(DataType::Int) if t == DataType::Float => DataType::Float,
                Some(DataType::Float) if t == DataType::Int => DataType::Float,
                Some(_) => DataType::Mixed,
            });
        }
        ty.unwrap_or(DataType::Mixed)
    }

    /// New column with only the rows at `indices` (gather).
    pub fn take(&self, indices: &[usize]) -> Column {
        let codes = indices.iter().map(|&i| self.codes[i]).collect();
        Column { codes, dict: self.dict.clone() }
    }

    /// Iterates decoded values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.codes.iter().map(move |&c| self.dict.decode(c))
    }

    /// Per-code occurrence counts (index = code). Nulls are not counted.
    pub fn value_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.dict.len()];
        for &c in &self.codes {
            if c != NULL_CODE {
                counts[c as usize] += 1;
            }
        }
        counts
    }

    /// The most frequent code, if any non-null value exists. Ties break toward
    /// the lower code (first observed), keeping results deterministic.
    pub fn mode_code(&self) -> Option<Code> {
        let counts = self.value_counts();
        counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i as Code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[&str]) -> Column {
        Column::from_values(vals.iter().map(|s| Value::from(*s)))
    }

    #[test]
    fn build_and_read() {
        let c = col(&["a", "b", "a"]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.code(0), c.code(2));
        assert_eq!(c.get(1), Some(Value::from("b")));
        assert_eq!(c.get(3), None);
    }

    #[test]
    fn set_interns_new_values() {
        let mut c = col(&["a", "b"]);
        c.set(0, Value::from("c"));
        assert_eq!(c.get(0), Some(Value::from("c")));
        assert_eq!(c.distinct_count(), 3);
    }

    #[test]
    fn take_gathers_rows() {
        let c = col(&["a", "b", "c", "d"]);
        let t = c.take(&[3, 1]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), Some(Value::from("d")));
        assert_eq!(t.get(1), Some(Value::from("b")));
    }

    #[test]
    fn null_handling() {
        let c = Column::from_values(vec![Value::Null, Value::Int(1), Value::Null]);
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.distinct_count(), 1);
        assert_eq!(c.get(0), Some(Value::Null));
    }

    #[test]
    fn mode_prefers_first_observed_on_tie() {
        let c = col(&["x", "y", "x", "y"]);
        assert_eq!(c.mode_code(), Some(0));
        let c2 = col(&["y", "x", "x"]);
        assert_eq!(c2.dictionary().decode(c2.mode_code().unwrap()), Value::from("x"));
    }

    #[test]
    fn infer_type_widening() {
        let ints = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(ints.infer_type(), DataType::Int);
        let nums = Column::from_values(vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(nums.infer_type(), DataType::Float);
        let mixed = Column::from_values(vec![Value::Int(1), Value::from("a")]);
        assert_eq!(mixed.infer_type(), DataType::Mixed);
    }

    #[test]
    #[should_panic(expected = "outside dictionary")]
    fn push_code_validates() {
        let mut c = col(&["a"]);
        c.push_code(5);
    }
}
