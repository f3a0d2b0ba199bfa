//! The [`TableSource`] trait: the columnar access seam shared by in-memory
//! tables and persistent stores.
//!
//! Synthesis, the vectorized detect engine, and the server all consume the
//! same columnar view — a [`Schema`] plus per-column dictionary codes — but
//! until this trait existed they were hard-wired to the owned in-memory
//! [`Table`]. `TableSource` abstracts *provenance*: an implementor promises a
//! zero-copy columnar view ([`TableSource::as_table`]) plus the row-batch
//! structure of how those rows arrived ([`TableSource::batches`]). In-memory
//! tables are a single batch; a persistent [`crate::TableStore`] exposes its
//! base segment followed by every write-ahead-log batch, which is what lets
//! incremental consumers (batch detect) process only the rows that changed.
//!
//! Consumers should be generic over `S: TableSource + ?Sized` so call sites
//! holding a `&Table`, a `&Segment`, or a `&TableStore` all work unchanged.

use crate::schema::Schema;
use crate::table::Table;
use crate::{Code, Dictionary};
use std::ops::Range;

/// One contiguous run of rows that arrived together.
///
/// Batches partition `0..num_rows` in row order: the base relation first,
/// then each appended batch in append order. Batch ids are stable across
/// reopen (they are the WAL batch ids; the base is id 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBatch {
    /// Stable batch id (0 = base relation, WAL ids for appended batches).
    pub id: u64,
    /// Half-open row range this batch occupies in the full relation.
    pub rows: Range<usize>,
}

impl RowBatch {
    /// Rows in this batch.
    pub fn len(&self) -> usize {
        self.rows.end - self.rows.start
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A source of dictionary-encoded columnar rows.
///
/// The contract every implementor must uphold:
///
/// - [`as_table`](TableSource::as_table) is a **zero-copy** borrow of the
///   full relation; its dictionary code assignment is deterministic for a
///   given ingestion history (first-observation order).
/// - [`batches`](TableSource::batches) partitions `0..num_rows` in row
///   order, and appends only ever add batches at the end — existing rows
///   and their codes never move or change under append.
pub trait TableSource {
    /// Zero-copy columnar view of the full relation.
    fn as_table(&self) -> &Table;

    /// Row-batch boundaries in row order (see [`RowBatch`]). The default is
    /// a single base batch covering every row.
    fn batches(&self) -> Vec<RowBatch> {
        vec![RowBatch { id: 0, rows: 0..self.num_rows() }]
    }

    /// Short provenance label for diagnostics (`"memory"`, `"segment"`,
    /// `"store"`).
    fn source_kind(&self) -> &'static str {
        "memory"
    }

    /// The schema.
    fn schema(&self) -> &Schema {
        self.as_table().schema()
    }

    /// Total rows across all batches.
    fn num_rows(&self) -> usize {
        self.as_table().num_rows()
    }

    /// Number of columns.
    fn num_columns(&self) -> usize {
        self.as_table().num_columns()
    }

    /// The packed dictionary codes of column `col`.
    fn column_codes(&self, col: usize) -> Option<&[Code]> {
        self.as_table().column(col).map(|c| c.codes())
    }

    /// The dictionary of column `col`.
    fn dictionary(&self, col: usize) -> Option<&Dictionary> {
        self.as_table().column(col).map(|c| c.dictionary())
    }

    /// Rows in every batch after the first `keep` batches — the "changed
    /// tail" an incremental consumer still has to process once it has seen
    /// `keep` batches.
    fn rows_after_batch(&self, keep: usize) -> Range<usize> {
        let batches = self.batches();
        let start = if keep == 0 {
            0
        } else {
            batches.get(keep - 1).map(|b| b.rows.end).unwrap_or(self.num_rows())
        };
        start..self.num_rows()
    }
}

impl TableSource for Table {
    fn as_table(&self) -> &Table {
        self
    }
}

// A reference to a source is itself a source, so `&dyn TableSource` and
// nested generics both work without re-borrowing gymnastics.
impl<S: TableSource + ?Sized> TableSource for &S {
    fn as_table(&self) -> &Table {
        (**self).as_table()
    }

    fn batches(&self) -> Vec<RowBatch> {
        (**self).batches()
    }

    fn source_kind(&self) -> &'static str {
        (**self).source_kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_csv_str("a,b\n1,x\n2,y\n3,z\n").unwrap()
    }

    #[test]
    fn table_is_a_single_base_batch() {
        let t = sample();
        let batches = TableSource::batches(&t);
        assert_eq!(batches, vec![RowBatch { id: 0, rows: 0..3 }]);
        assert_eq!(TableSource::num_rows(&t), 3);
        assert_eq!(TableSource::num_columns(&t), 2);
        assert_eq!(t.source_kind(), "memory");
        assert!(std::ptr::eq(t.as_table(), &t), "as_table is zero-copy");
    }

    #[test]
    fn column_codes_match_the_table() {
        let t = sample();
        assert_eq!(TableSource::column_codes(&t, 0).unwrap(), t.column(0).unwrap().codes());
        assert!(TableSource::column_codes(&t, 9).is_none());
        assert_eq!(TableSource::dictionary(&t, 1).unwrap().len(), 3);
    }

    #[test]
    fn rows_after_batch_covers_the_tail() {
        let t = sample();
        assert_eq!(t.rows_after_batch(0), 0..3);
        assert_eq!(t.rows_after_batch(1), 3..3);
        assert_eq!(t.rows_after_batch(7), 3..3);
    }

    #[test]
    fn references_delegate() {
        let t = sample();
        let r: &dyn TableSource = &t;
        assert_eq!(TableSource::num_rows(&r), 3);
        assert_eq!(r.batches().len(), 1);
    }
}
