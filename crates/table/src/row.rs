//! Row views and owned rows.

use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::fmt;

/// A borrowed view of one table row.
///
/// In DSL terms a row is a *program state* `t`; the interpreter reads
/// attribute values through this view.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    table: &'a Table,
    row: usize,
}

impl<'a> RowView<'a> {
    pub(crate) fn new(table: &'a Table, row: usize) -> Self {
        Self { table, row }
    }

    /// Index of this row in its table.
    pub fn index(&self) -> usize {
        self.row
    }

    /// Value of the column at `col`.
    pub fn get(&self, col: usize) -> Option<Value> {
        self.table.get(self.row, col)
    }

    /// Value of the named column.
    pub fn get_by_name(&self, name: &str) -> Option<Value> {
        self.table.schema().index_of(name).and_then(|i| self.get(i))
    }

    /// Dictionary code of the column at `col`.
    pub fn code(&self, col: usize) -> u32 {
        self.table.column(col).expect("column in range").code(self.row)
    }

    /// The table this view borrows.
    pub fn table(&self) -> &'a Table {
        self.table
    }
}

impl fmt::Debug for RowView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (i, field) in self.table.schema().fields().iter().enumerate() {
            map.entry(&field.name(), &self.get(i).unwrap_or(Value::Null));
        }
        map.finish()
    }
}

/// An owned row: a schema plus one value per field.
///
/// Used as the mutable program state for `guardrail-dsl`'s interpreter
/// (rows are updated in place by `THEN a ← l` assignments) and as the unit of
/// data flowing through the SQL executor.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    schema: Schema,
    values: Vec<Value>,
}

impl Row {
    /// Creates a row. The value count must match the schema length.
    pub fn new(schema: Schema, values: Vec<Value>) -> Self {
        assert_eq!(schema.len(), values.len(), "row arity must match schema");
        Self { schema, values }
    }

    /// The row's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Value at position `col`.
    pub fn get(&self, col: usize) -> Option<&Value> {
        self.values.get(col)
    }

    /// Value of the named column.
    pub fn get_by_name(&self, name: &str) -> Option<&Value> {
        self.schema.index_of(name).and_then(|i| self.values.get(i))
    }

    /// Overwrites the value at `col`.
    pub fn set(&mut self, col: usize, value: Value) {
        self.values[col] = value;
    }

    /// Overwrites the named column's value; `false` if the name is unknown.
    pub fn set_by_name(&mut self, name: &str, value: Value) -> bool {
        match self.schema.index_of(name) {
            Some(i) => {
                self.values[i] = value;
                true
            }
            None => false,
        }
    }

    /// All values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the row, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn table() -> Table {
        let mut b = TableBuilder::new(vec!["a".into(), "b".into()]);
        b.push_row(vec![Value::Int(1), Value::from("x")]).unwrap();
        b.push_row(vec![Value::Int(2), Value::from("y")]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn view_reads() {
        let t = table();
        let r = t.row(1).unwrap();
        assert_eq!(r.index(), 1);
        assert_eq!(r.get(0), Some(Value::Int(2)));
        assert_eq!(r.get_by_name("b"), Some(Value::from("y")));
        assert_eq!(r.get_by_name("zz"), None);
        assert!(t.row(5).is_none());
    }

    #[test]
    fn owned_row_mutation() {
        let t = table();
        let mut r = t.row_owned(0).unwrap();
        assert_eq!(r.get_by_name("a"), Some(&Value::Int(1)));
        assert!(r.set_by_name("a", Value::Int(9)));
        assert_eq!(r.get(0), Some(&Value::Int(9)));
        assert!(!r.set_by_name("zz", Value::Null));
        // original table untouched
        assert_eq!(t.get(0, 0), Some(Value::Int(1)));
    }

    #[test]
    fn debug_format_names_columns() {
        let t = table();
        let s = format!("{:?}", t.row(0).unwrap());
        assert!(s.contains("\"a\""), "{s}");
    }
}
