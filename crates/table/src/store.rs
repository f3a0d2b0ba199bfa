//! [`TableStore`]: a persistent table = an immutable base segment
//! (`base.seg`) + a write-ahead log of appended batches (`wal.log`).
//!
//! Both files hold the same columnar batch body (per column: name,
//! dictionary page in code order, `u32` code page). The store keeps the
//! *live* relation in memory as an ordinary [`Table`] (base rows followed by
//! every appended batch), so reads are exactly as fast as the in-memory
//! path — persistence changes durability, not the scan representation.
//! Appends write to the WAL first (fsync) and only then extend the
//! in-memory columns; a crash between the two is invisible because reopen
//! replays the WAL into the same state.
//!
//! Determinism contract: the in-memory table after `create` + N appends is
//! **bit-identical** (codes and dictionaries included) to the table
//! produced by `open` on the resulting directory, and to a from-scratch
//! load of the same rows through [`TableBuilder`](crate::TableBuilder):
//! appends and replay both run [`Table::append_table`], which interns in
//! row-major first-observation order.
//!
//! Append-only contract: an append only adds rows at the end, so existing
//! rows and their dictionary codes never move or change. Incremental
//! consumers (`IncrementalDetector` in `guardrail-dsl`) rely on it to probe
//! only the rows past the last ones they saw.

use crate::error::TableError;
use crate::segment;
use crate::table::Table;
use crate::value::Value;
use crate::wal::Wal;
use crate::Result;
use guardrail_obs::metrics;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Base segment file name inside a store directory.
pub const SEGMENT_FILE: &str = "base.seg";
/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// One contiguous run of rows that arrived together in one append.
///
/// Batch ids are the WAL batch ids, stable across reopen; the base segment
/// is not a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBatch {
    /// Stable WAL batch id (the first append is id 1).
    pub id: u64,
    /// Half-open row range this batch occupies in the full relation.
    pub rows: Range<usize>,
}

/// What recovery found when a store was opened.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Complete batches replayed from the WAL.
    pub batches_replayed: usize,
    /// Rows those batches contributed.
    pub rows_replayed: usize,
    /// Whether a torn tail was truncated away.
    pub truncated_tail: bool,
    /// Duplicate batch records skipped.
    pub duplicates_skipped: usize,
}

/// A persistent table rooted at a directory (`base.seg` + `wal.log`).
#[derive(Debug)]
pub struct TableStore {
    dir: PathBuf,
    table: Table,
    /// Row count of the base segment (rows before the first WAL batch).
    base_rows: usize,
    /// Appended batches in row order.
    batches: Vec<RowBatch>,
    wal: Wal,
    next_batch_id: u64,
    recovery: RecoveryReport,
}

impl TableStore {
    /// Creates a new store at `dir` (which must not already contain one)
    /// from an initial table: writes the base segment and an empty WAL.
    pub fn create(dir: impl AsRef<Path>, table: Table) -> Result<TableStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let seg_path = dir.join(SEGMENT_FILE);
        if seg_path.exists() {
            return Err(TableError::Storage(format!("store already exists at {}", dir.display())));
        }
        segment::write(&seg_path, &table)?;
        let wal = Wal::create(dir.join(WAL_FILE))?;
        Ok(TableStore {
            dir,
            base_rows: table.num_rows(),
            table,
            batches: Vec::new(),
            wal,
            next_batch_id: 1,
            recovery: RecoveryReport::default(),
        })
    }

    /// Opens the store at `dir`: loads and verifies the base segment, then
    /// replays the WAL one batch at a time, running crash recovery (a torn
    /// tail is truncated, duplicate batch ids are skipped).
    pub fn open(dir: impl AsRef<Path>) -> Result<TableStore> {
        let dir = dir.as_ref().to_path_buf();
        let mut table = segment::read(&dir.join(SEGMENT_FILE))?;
        let base_rows = table.num_rows();
        let mut batches = Vec::new();
        let (wal, scan) = Wal::open(dir.join(WAL_FILE), |id, batch| {
            let start = table.num_rows();
            table.append_table(&batch)?;
            batches.push(RowBatch { id, rows: start..table.num_rows() });
            Ok(())
        })?;
        let next_batch_id = batches.iter().map(|b| b.id + 1).max().unwrap_or(1);
        let recovery = RecoveryReport {
            batches_replayed: batches.len(),
            rows_replayed: table.num_rows() - base_rows,
            truncated_tail: scan.truncated_tail,
            duplicates_skipped: scan.duplicates_skipped,
        };
        Ok(TableStore { dir, table, base_rows, batches, wal, next_batch_id, recovery })
    }

    /// Whether `dir` holds a store (has a base segment).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(SEGMENT_FILE).is_file()
    }

    /// Appends one batch of rows (row-major values; each row must have the
    /// store's column count) through [`TableStore::append_table`].
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<RowBatch> {
        let batch = self.table.batch_of(rows)?;
        self.append_table(&batch)
    }

    /// Appends every row of `batch`, matching columns **by name** against
    /// the store schema (order may differ; extra or missing columns are an
    /// error, raised before anything is written). The batch is durable (WAL
    /// record fsynced) before the in-memory table is extended. Returns the
    /// new batch.
    pub fn append_table(&mut self, batch: &Table) -> Result<RowBatch> {
        self.table.batch_columns(batch)?;
        let id = self.next_batch_id;
        // Timing only when metrics are armed: the disarmed append path
        // stays free of clock reads and label work.
        let t_append = metrics::metrics_on().then(Instant::now);
        self.wal.append(id, batch)?;
        if let Some(t0) = t_append {
            // `Wal::append` is encode + write + fsync; fsync dominates.
            metrics::observe("guardrail_store_wal_fsync_us", "", t0.elapsed().as_micros() as u64);
        }
        self.next_batch_id += 1;
        let start = self.table.num_rows();
        self.table.append_table(batch)?;
        let batch = RowBatch { id, rows: start..self.table.num_rows() };
        self.batches.push(batch.clone());
        if let Some(t0) = t_append {
            metrics::observe("guardrail_store_append_us", "", t0.elapsed().as_micros() as u64);
        }
        Ok(batch)
    }

    /// The live relation (base + all appended batches).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rows in the base segment.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// What recovery found when this store was opened (all-default for a
    /// freshly created store).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Appended batches currently sitting in the WAL.
    pub fn wal_batches(&self) -> &[RowBatch] {
        &self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("guardrail_store_tests").join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn base() -> Table {
        Table::from_csv_str("zip,city\n94704,Berkeley\n97201,Portland\n").unwrap()
    }

    fn rows(n: usize, tag: &str) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int(90000 + i as i64), Value::from(format!("{tag}{i}"))])
            .collect()
    }

    #[test]
    fn create_append_reopen_is_bit_identical() {
        let d = dir("reopen");
        let mut store = TableStore::create(&d, base()).unwrap();
        store.append_rows(&rows(3, "a")).unwrap();
        store.append_rows(&rows(2, "b")).unwrap();
        let live = store.table().clone();
        drop(store);
        let reopened = TableStore::open(&d).unwrap();
        assert_eq!(reopened.table(), &live);
        assert_eq!(reopened.recovery().batches_replayed, 2);
        assert_eq!(reopened.recovery().rows_replayed, 5);
        assert!(!reopened.recovery().truncated_tail);
        assert_eq!(reopened.base_rows(), 2);
        assert_eq!(
            reopened.wal_batches(),
            [RowBatch { id: 1, rows: 2..5 }, RowBatch { id: 2, rows: 5..7 }]
        );
    }

    #[test]
    fn store_matches_from_scratch_builder_load() {
        let d = dir("scratch");
        let mut store = TableStore::create(&d, base()).unwrap();
        store.append_rows(&rows(4, "x")).unwrap();
        // Build the same relation in one pass.
        let mut builder = TableBuilder::new(vec!["zip".into(), "city".into()]);
        for r in 0..base().num_rows() {
            builder.push_row(base().row_owned(r).unwrap().into_values()).unwrap();
        }
        for row in rows(4, "x") {
            builder.push_row(row).unwrap();
        }
        let scratch = builder.finish().unwrap();
        assert_eq!(store.table(), &scratch, "append interning matches builder interning");
    }

    #[test]
    fn append_is_durable_before_memory() {
        let d = dir("durable");
        let mut store = TableStore::create(&d, base()).unwrap();
        store.append_rows(&rows(1, "a")).unwrap();
        // Simulate a crash: drop, reopen from disk only.
        drop(store);
        let store = TableStore::open(&d).unwrap();
        assert_eq!(store.table().num_rows(), 3);
    }

    #[test]
    fn append_table_maps_columns_by_name() {
        let d = dir("byname");
        let mut store = TableStore::create(&d, base()).unwrap();
        // Reversed column order must still land in the right columns.
        let batch = Table::from_csv_str("city,zip\nOakland,94601\n").unwrap();
        store.append_table(&batch).unwrap();
        assert_eq!(store.table().get(2, 0), Some(Value::Int(94601)));
        assert_eq!(store.table().get(2, 1), Some(Value::from("Oakland")));
    }

    #[test]
    fn ragged_append_is_rejected_without_side_effects() {
        let d = dir("ragged");
        let mut store = TableStore::create(&d, base()).unwrap();
        let err = store.append_rows(&[vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(err, TableError::LengthMismatch { .. }));
        assert_eq!(store.table().num_rows(), 2, "failed append leaves the store untouched");
        drop(store);
        assert_eq!(TableStore::open(&d).unwrap().table().num_rows(), 2);
    }

    #[test]
    fn create_refuses_to_clobber() {
        let d = dir("clobber");
        let _ = TableStore::create(&d, base()).unwrap();
        assert!(TableStore::create(&d, base()).is_err());
        assert!(TableStore::exists(&d));
        assert!(!TableStore::exists(d.join("nope")));
    }
}
