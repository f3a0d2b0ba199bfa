//! The [`Table`] type and its builder.

use crate::column::Column;
use crate::dictionary::Code;
use crate::error::TableError;
use crate::row::{Row, RowView};
use crate::schema::{DataType, Field, Schema};
use crate::value::Value;
use crate::Result;

/// An immutable-schema, column-major relation.
///
/// A `Table` corresponds to the dataset `D` in the paper: rows are program
/// states for the DSL interpreter, columns are attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Builds a table from named columns, inferring field types.
    pub fn from_columns<S: Into<String>>(named: Vec<(S, Column)>) -> Result<Self> {
        let mut fields = Vec::with_capacity(named.len());
        let mut columns = Vec::with_capacity(named.len());
        let mut num_rows = None;
        for (name, col) in named {
            let name = name.into();
            let n = col.len();
            match num_rows {
                None => num_rows = Some(n),
                Some(expected) if expected != n => {
                    return Err(TableError::LengthMismatch { expected, actual: n, column: name })
                }
                _ => {}
            }
            fields.push(Field::new(name, col.infer_type()));
            columns.push(col);
        }
        let schema = Schema::new(fields)?;
        Ok(Self { schema, columns, num_rows: num_rows.unwrap_or(0) })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column at index `i`.
    pub fn column(&self, i: usize) -> Option<&Column> {
        self.columns.get(i)
    }

    /// Mutable column at index `i`.
    pub fn column_mut(&mut self, i: usize) -> Option<&mut Column> {
        self.columns.get_mut(i)
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).and_then(|i| self.columns.get(i))
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Decoded value at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> Option<Value> {
        self.columns.get(col).and_then(|c| c.get(row))
    }

    /// Overwrites the cell at (`row`, `col`).
    pub fn set(&mut self, row: usize, col: usize, value: Value) -> Result<()> {
        if col >= self.columns.len() {
            return Err(TableError::ColumnIndexOutOfBounds {
                index: col,
                num_columns: self.columns.len(),
            });
        }
        if row >= self.num_rows {
            return Err(TableError::RowIndexOutOfBounds { index: row, num_rows: self.num_rows });
        }
        self.columns[col].set(row, value);
        Ok(())
    }

    /// Borrow-free row view for hot loops (codes only).
    pub fn row_codes(&self, row: usize, buf: &mut Vec<Code>) {
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c.code(row)));
    }

    /// A lightweight row view borrowing this table.
    pub fn row(&self, row: usize) -> Option<RowView<'_>> {
        if row < self.num_rows {
            Some(RowView::new(self, row))
        } else {
            None
        }
    }

    /// Materializes row `row` as an owned [`Row`].
    pub fn row_owned(&self, row: usize) -> Option<Row> {
        if row >= self.num_rows {
            return None;
        }
        Some(Row::new(
            self.schema.clone(),
            self.columns.iter().map(|c| c.get(row).unwrap()).collect(),
        ))
    }

    /// Iterates over row views.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        (0..self.num_rows).map(move |i| RowView::new(self, i))
    }

    /// New table containing only the rows at `indices` (gather).
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Table { schema: self.schema.clone(), columns, num_rows: indices.len() }
    }

    /// New table with the first `n` rows.
    pub fn head(&self, n: usize) -> Table {
        let n = n.min(self.num_rows);
        let indices: Vec<usize> = (0..n).collect();
        self.take(&indices)
    }

    /// New table with only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let mut named = Vec::with_capacity(names.len());
        for &name in names {
            let i = self.schema.try_index_of(name)?;
            named.push((name.to_string(), self.columns[i].clone()));
        }
        Table::from_columns(named)
    }

    /// Appends every row of `batch`, matching its columns to this table's
    /// **by name** (order may differ; extra or missing columns are an error).
    /// This is the one append path: store appends, WAL replay and
    /// [`Table::append_rows`] all run it. Per column, each batch value is
    /// interned the first time one of its cells is copied, which is the order
    /// a row-major push of the same rows interns in — so the result is
    /// bit-identical to building the table from the concatenated rows. That
    /// is O(distinct) hash work per column and no [`Value`] per cell.
    pub fn append_table(&mut self, batch: &Table) -> Result<()> {
        let sources = self.batch_columns(batch)?;
        for (column, source) in self.columns.iter_mut().zip(sources) {
            column.append(&batch.columns[source]);
        }
        self.num_rows += batch.num_rows;
        // Re-infer field types from the grown dictionaries, as
        // `Table::from_columns` would from the same columns.
        let fields = self
            .schema
            .fields()
            .iter()
            .zip(&self.columns)
            .map(|(f, c)| Field::new(f.name().to_string(), c.infer_type()))
            .collect();
        self.schema = Schema::new(fields).expect("column names are unchanged");
        Ok(())
    }

    /// For each column of this table, the index of `batch`'s column of the
    /// same name; an error when the two do not hold the same names.
    pub(crate) fn batch_columns(&self, batch: &Table) -> Result<Vec<usize>> {
        if batch.num_columns() != self.num_columns() {
            return Err(TableError::Storage(format!(
                "appended table has {} columns, store has {}",
                batch.num_columns(),
                self.num_columns()
            )));
        }
        self.schema.fields().iter().map(|f| batch.schema.try_index_of(f.name())).collect()
    }

    /// `rows` (row-major, one cell per column) as a batch with this table's
    /// column names, built by [`TableBuilder`].
    pub(crate) fn batch_of(&self, rows: &[Vec<Value>]) -> Result<Table> {
        let mut builder =
            TableBuilder::new(self.schema.names().into_iter().map(String::from).collect());
        for row in rows {
            builder.push_row(row.clone())?;
        }
        builder.finish()
    }

    /// Appends rows in row-major order through [`Table::append_table`]. Every
    /// row must have exactly one cell per column.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        let batch = self.batch_of(rows)?;
        self.append_table(&batch)
    }

    /// Returns fields whose inferred type is in `types`.
    pub fn columns_of_type(&self, types: &[DataType]) -> Vec<usize> {
        self.schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| types.contains(&f.data_type()))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Row-major incremental builder for [`Table`].
///
/// ```
/// use guardrail_table::{TableBuilder, Value};
///
/// let mut b = TableBuilder::new(vec!["a".into(), "b".into()]);
/// b.push_row(vec![Value::Int(1), Value::from("x")]).unwrap();
/// b.push_row(vec![Value::Int(2), Value::from("y")]).unwrap();
/// let t = b.finish().unwrap();
/// assert_eq!(t.num_rows(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    names: Vec<String>,
    columns: Vec<Column>,
    num_rows: usize,
}

impl TableBuilder {
    /// Starts a builder with the given column names.
    pub fn new(names: Vec<String>) -> Self {
        let columns = names.iter().map(|_| Column::new()).collect();
        Self { names, columns, num_rows: 0 }
    }

    /// Appends one row. The value count must match the column count.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(TableError::LengthMismatch {
                expected: self.columns.len(),
                actual: values.len(),
                column: format!("row {}", self.num_rows),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        self.num_rows += 1;
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.num_rows
    }

    /// `true` when no rows were appended.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Finalizes into a [`Table`].
    pub fn finish(self) -> Result<Table> {
        if self.names.is_empty() {
            return Err(TableError::Empty);
        }
        Table::from_columns(self.names.into_iter().zip(self.columns).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut b = TableBuilder::new(vec!["zip".into(), "city".into(), "pop".into()]);
        b.push_row(vec![Value::Int(94704), Value::from("Berkeley"), Value::Int(120)]).unwrap();
        b.push_row(vec![Value::Int(97201), Value::from("Portland"), Value::Int(650)]).unwrap();
        b.push_row(vec![Value::Int(94704), Value::from("Berkeley"), Value::Int(121)]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.get(1, 1), Some(Value::from("Portland")));
        assert_eq!(t.schema().field(2).unwrap().data_type(), DataType::Int);
    }

    #[test]
    fn mismatched_row_rejected() {
        let mut b = TableBuilder::new(vec!["a".into()]);
        assert!(b.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn take_and_select() {
        let t = sample();
        let sub = t.take(&[2, 0]);
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.get(0, 2), Some(Value::Int(121)));

        let proj = t.select(&["city", "zip"]).unwrap();
        assert_eq!(proj.schema().names(), vec!["city", "zip"]);
        assert_eq!(proj.get(0, 0), Some(Value::from("Berkeley")));
        assert!(t.select(&["nope"]).is_err());
    }

    #[test]
    fn set_updates_cell() {
        let mut t = sample();
        t.set(0, 1, Value::from("Oakland")).unwrap();
        assert_eq!(t.get(0, 1), Some(Value::from("Oakland")));
        assert!(t.set(9, 0, Value::Null).is_err());
        assert!(t.set(0, 9, Value::Null).is_err());
    }

    #[test]
    fn row_codes_buffer() {
        let t = sample();
        let mut buf = Vec::new();
        t.row_codes(0, &mut buf);
        assert_eq!(buf.len(), 3);
        let mut buf2 = Vec::new();
        t.row_codes(2, &mut buf2);
        // rows 0 and 2 share zip+city codes but differ in pop.
        assert_eq!(buf[0], buf2[0]);
        assert_eq!(buf[1], buf2[1]);
        assert_ne!(buf[2], buf2[2]);
    }

    #[test]
    fn columns_of_type() {
        let t = sample();
        assert_eq!(t.columns_of_type(&[DataType::Int]), vec![0, 2]);
        assert_eq!(t.columns_of_type(&[DataType::Str]), vec![1]);
    }
}
