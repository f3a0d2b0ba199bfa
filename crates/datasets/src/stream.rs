//! Streaming batch ingestion: CSV files → persistent [`TableStore`]s.
//!
//! The whole-file loaders elsewhere in the workspace cap table size at
//! available RAM and make every append a full reload. This module is the
//! loader the CLI's `ingest` command drives instead: a [`CsvStream`] pulls
//! bounded row batches off a [`CsvBatchReader`] (same record grammar and
//! type inference as `Table::from_csv_str`, so streamed ingestion is
//! bit-identical to a whole-file load), and [`ingest_csv`] feeds those
//! batches into a segment + WAL store — the first batch becomes the base
//! segment on a fresh store, every later batch a durable WAL append.
//!
//! ```no_run
//! use guardrail_datasets::stream::ingest_csv;
//!
//! let report = ingest_csv("data.csv", "store_dir", 8192).unwrap();
//! eprintln!("{} rows in {} batch(es)", report.rows_ingested, report.batches);
//! ```

use guardrail_table::{CsvBatchReader, Table, TableBuilder, TableError, TableStore};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// A streaming CSV source yielding row batches of bounded size, with
/// running row/batch accounting for progress reporting.
pub struct CsvStream {
    reader: CsvBatchReader<BufReader<File>>,
    rows_read: usize,
    batches_read: usize,
}

impl CsvStream {
    /// Opens `path` and parses the header; batches hold at most
    /// `batch_rows` rows (minimum 1).
    pub fn open(path: impl AsRef<Path>, batch_rows: usize) -> Result<Self, TableError> {
        let file = File::open(path.as_ref())?;
        let reader = CsvBatchReader::new(BufReader::new(file), batch_rows)?;
        Ok(CsvStream { reader, rows_read: 0, batches_read: 0 })
    }

    /// The trimmed header fields.
    pub fn header(&self) -> &[String] {
        self.reader.header()
    }

    /// The next batch of rows, or `None` once the file is exhausted.
    pub fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        let batch = self.reader.next_batch()?;
        if let Some(batch) = &batch {
            self.rows_read += batch.num_rows();
            self.batches_read += 1;
        }
        Ok(batch)
    }

    /// Data rows yielded so far (header excluded).
    pub fn rows_read(&self) -> usize {
        self.rows_read
    }

    /// Batches yielded so far.
    pub fn batches_read(&self) -> usize {
        self.batches_read
    }
}

/// What [`ingest_csv`] did, for `--report`-style output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Whether the store was created by this ingest (vs appended to).
    pub created: bool,
    /// Rows read from the CSV and written to the store.
    pub rows_ingested: usize,
    /// Batches the rows arrived in.
    pub batches: usize,
    /// Store row count after the ingest.
    pub rows_total: usize,
    /// WAL batches pending compaction after the ingest.
    pub wal_batches: usize,
}

/// Streams `csv_path` into the store at `store_dir` in `batch_rows`-row
/// batches.
///
/// A fresh store is created with the first batch as its base segment (or
/// an empty table of the CSV's schema when the file holds only a header);
/// an existing store gains one durable WAL batch per streamed batch.
/// Because batches are interned in row order, the resulting store is
/// bit-identical to one created from the whole file at once.
pub fn ingest_csv(
    csv_path: impl AsRef<Path>,
    store_dir: impl AsRef<Path>,
    batch_rows: usize,
) -> Result<IngestReport, TableError> {
    let mut stream = CsvStream::open(csv_path, batch_rows)?;
    let mut store: Option<TableStore> =
        if TableStore::exists(&store_dir) { Some(TableStore::open(&store_dir)?) } else { None };
    let created = store.is_none();
    while let Some(batch) = stream.next_batch()? {
        match &mut store {
            Some(store) => {
                store.append_table(&batch)?;
            }
            None => store = Some(TableStore::create(&store_dir, &batch)?),
        }
    }
    let store = match store {
        Some(store) => store,
        // Header-only CSV onto a fresh store: create it empty so the
        // schema is pinned and later appends have something to land in.
        None => {
            let empty = TableBuilder::new(stream.header().to_vec()).finish()?;
            TableStore::create(&store_dir, &empty)?
        }
    };
    Ok(IngestReport {
        created,
        rows_ingested: stream.rows_read(),
        batches: stream.batches_read(),
        rows_total: store.table().num_rows(),
        wal_batches: store.wal_batches().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("guardrail-stream-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_csv(dir: &Path, name: &str, rows: usize) -> std::path::PathBuf {
        let mut csv = String::from("zip,city\n");
        for i in 0..rows {
            csv.push_str(if i % 2 == 0 { "west,Berkeley\n" } else { "north,Portland\n" });
        }
        let path = dir.join(name);
        std::fs::write(&path, csv).unwrap();
        path
    }

    #[test]
    fn streamed_ingest_matches_whole_file_load() {
        let dir = tmp("match");
        let csv = write_csv(&dir, "data.csv", 1000);
        let report = ingest_csv(&csv, dir.join("store"), 64).unwrap();
        assert!(report.created);
        assert_eq!((report.rows_ingested, report.rows_total), (1000, 1000));
        assert_eq!(report.batches, 16, "1000 rows in 64-row batches");
        let store = TableStore::open(dir.join("store")).unwrap();
        let whole = Table::from_csv_path(&csv).unwrap();
        assert_eq!(*store.table(), whole, "streamed store equals whole-file load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_ingest_appends_to_the_existing_store() {
        let dir = tmp("append");
        let csv = write_csv(&dir, "data.csv", 10);
        let first = ingest_csv(&csv, dir.join("store"), 4).unwrap();
        assert!(first.created);
        let second = ingest_csv(&csv, dir.join("store"), 4).unwrap();
        assert!(!second.created);
        assert_eq!(second.rows_total, 20);
        // First ingest: base segment + 2 WAL batches; second: 3 more.
        assert_eq!(second.wal_batches, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_only_csv_creates_an_empty_store_with_schema() {
        let dir = tmp("empty");
        let csv = dir.join("data.csv");
        std::fs::write(&csv, "zip,city\n").unwrap();
        let report = ingest_csv(&csv, dir.join("store"), 8).unwrap();
        assert!(report.created);
        assert_eq!((report.rows_ingested, report.rows_total), (0, 0));
        let store = TableStore::open(dir.join("store")).unwrap();
        assert_eq!(store.table().schema().names(), ["zip", "city"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
