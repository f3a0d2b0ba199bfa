//! Write-ahead log for appended row batches.
//!
//! Appends to a persistent table are durable the moment their WAL record
//! hits disk; the base segment is written once, when the store is created,
//! and never rewritten. Each record carries one row
//! batch as **values** (not codes): replay re-interns values through the
//! live dictionaries in row-major order, which reproduces the exact code
//! assignment of the original append — the determinism the engine and
//! statistics layers depend on.
//!
//! ```text
//! file   := header record*
//! header := magic "GRWAL001"
//! record := marker "GWAL" (u32)
//!           batch_id: u64 LE
//!           payload_len: u32 LE
//!           payload
//!           checksum64(batch_id ++ payload): u64 LE
//! payload:= nrows: u32, ncols: u32, then row-major tagged cell values
//! ```
//!
//! # Recovery rules
//!
//! On open the log is scanned record by record:
//!
//! 1. A record that is incomplete, has a bad marker, or fails its checksum
//!    ends the scan — it and everything after it are a **torn tail**, and
//!    the file is truncated back to the last complete record. A torn tail
//!    can only be the suffix interrupted by the crash: every earlier
//!    record was complete when its append returned.
//! 2. A record whose `batch_id` was already replayed is **skipped but kept**
//!    (a retried append may have been written twice; replay is idempotent).
//! 3. Batches replay in file order, so recovery is bit-identical to a
//!    process that appended the same batches and never crashed.

use crate::codec::{checksum64, get_value, put_u32, put_u64, put_value, Cursor};
use crate::error::TableError;
use crate::value::Value;
use crate::Result;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC_HEAD: &[u8; 8] = b"GRWAL001";
const RECORD_MARKER: u32 = 0x4c41_5747; // "GWAL" little-endian

/// One recovered (or about-to-be-written) row batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WalBatch {
    /// Monotonic batch id assigned by the store.
    pub id: u64,
    /// Row-major cell values; every row has the store's column count.
    pub rows: Vec<Vec<Value>>,
}

/// Outcome of scanning a WAL file on open.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalScan {
    /// Complete, checksum-valid batches in file order, duplicates removed.
    pub batches: Vec<WalBatch>,
    /// File offset just past the last complete record.
    pub valid_len: u64,
    /// Whether a torn tail was truncated away.
    pub truncated_tail: bool,
    /// Duplicate records skipped during replay.
    pub duplicates_skipped: usize,
}

/// `len` as a `u32` length field, or a storage error when it does not fit.
/// A wrapped length would fail its checksum on reopen and be truncated as a
/// torn tail, losing an acknowledged append without notice.
fn len_u32(len: usize, what: &str) -> Result<u32> {
    u32::try_from(len)
        .map_err(|_| TableError::Storage(format!("wal record {what} {len} does not fit in u32")))
}

/// Encodes one record (marker + id + payload + checksum).
fn encode_record(id: u64, rows: &[Vec<Value>], ncols: usize) -> Result<Vec<u8>> {
    let mut payload = Vec::new();
    put_u32(&mut payload, len_u32(rows.len(), "row count")?);
    put_u32(&mut payload, ncols as u32);
    for row in rows {
        for value in row {
            put_value(&mut payload, value);
        }
    }
    let mut sum_input = Vec::with_capacity(8 + payload.len());
    put_u64(&mut sum_input, id);
    sum_input.extend_from_slice(&payload);
    let sum = checksum64(&sum_input);

    let mut out = Vec::with_capacity(24 + payload.len());
    put_u32(&mut out, RECORD_MARKER);
    put_u64(&mut out, id);
    put_u32(&mut out, len_u32(payload.len(), "payload length")?);
    out.extend_from_slice(&payload);
    put_u64(&mut out, sum);
    Ok(out)
}

/// Decodes a record payload into rows, validating the column count.
fn decode_payload(payload: &[u8], ncols_expected: usize) -> Result<Vec<Vec<Value>>> {
    let mut cur = Cursor::new(payload, "wal record");
    let nrows = cur.u32()? as usize;
    let ncols = cur.u32()? as usize;
    if ncols != ncols_expected {
        return Err(TableError::Storage(format!(
            "wal batch has {ncols} columns, store has {ncols_expected}"
        )));
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(get_value(&mut cur)?);
        }
        rows.push(row);
    }
    if cur.remaining() != 0 {
        return Err(TableError::Storage("wal record has trailing bytes".into()));
    }
    Ok(rows)
}

/// Scans WAL bytes, applying the recovery rules above. Records after the
/// first invalid one are ignored (torn tail).
pub(crate) fn scan(bytes: &[u8], ncols: usize) -> WalScan {
    let mut batches = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut duplicates_skipped = 0usize;
    // A file too short for (or without) the header magic is itself a torn
    // tail: recover to an empty log.
    if bytes.len() < MAGIC_HEAD.len() || &bytes[..8] != MAGIC_HEAD {
        return WalScan { batches, valid_len: 0, truncated_tail: true, duplicates_skipped };
    }
    let mut pos = MAGIC_HEAD.len();
    let mut truncated_tail = false;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break; // clean end of log
        }
        // marker(4) + id(8) + len(4) + payload + checksum(8)
        let parsed = (|| -> Option<(u64, &[u8], usize)> {
            if rest.len() < 16 {
                return None;
            }
            let marker = u32::from_le_bytes(rest[0..4].try_into().unwrap());
            if marker != RECORD_MARKER {
                return None;
            }
            let id = u64::from_le_bytes(rest[4..12].try_into().unwrap());
            let len = u32::from_le_bytes(rest[12..16].try_into().unwrap()) as usize;
            let total = 16usize.checked_add(len)?.checked_add(8)?;
            if rest.len() < total {
                return None;
            }
            let payload = &rest[16..16 + len];
            let stored = u64::from_le_bytes(rest[16 + len..total].try_into().unwrap());
            let mut sum_input = Vec::with_capacity(8 + len);
            put_u64(&mut sum_input, id);
            sum_input.extend_from_slice(payload);
            if checksum64(&sum_input) != stored {
                return None;
            }
            Some((id, payload, total))
        })();
        let Some((id, payload, total)) = parsed else {
            truncated_tail = true;
            break;
        };
        // The record is complete and checksum-valid; a payload that fails
        // structural decode is corruption the checksum should have caught —
        // treat it as tail damage too rather than replaying garbage.
        let Ok(rows) = decode_payload(payload, ncols) else {
            truncated_tail = true;
            break;
        };
        pos += total;
        if !seen.insert(id) {
            duplicates_skipped += 1;
            continue;
        }
        batches.push(WalBatch { id, rows });
    }
    WalScan { batches, valid_len: pos as u64, truncated_tail, duplicates_skipped }
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Creates a fresh, empty log (header only), fsynced.
    pub(crate) fn create(path: impl AsRef<Path>) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        file.write_all(MAGIC_HEAD)?;
        file.sync_all()?;
        Ok(Wal { file, path })
    }

    /// Opens the log at `path`, running recovery. Returns the log
    /// positioned for appends plus the scan outcome. A torn tail is
    /// physically truncated away so later appends extend a valid file.
    pub(crate) fn open(path: impl AsRef<Path>, ncols: usize) -> Result<(Wal, WalScan)> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path)?;
        let scan = scan(&bytes, ncols);
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        if scan.truncated_tail {
            if scan.valid_len == 0 {
                // Header itself was torn: rewrite it.
                file.set_len(0)?;
                file.write_all(MAGIC_HEAD)?;
            } else {
                file.set_len(scan.valid_len)?;
            }
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((Wal { file, path }, scan))
    }

    /// Appends one batch record and fsyncs. The batch is durable when this
    /// returns. A batch whose row count or payload length does not fit the
    /// record's `u32` fields is refused before anything is written.
    pub(crate) fn append(&mut self, id: u64, rows: &[Vec<Value>], ncols: usize) -> Result<()> {
        let record = encode_record(id, rows, ncols)?;
        self.file.write_all(&record)?;
        self.file.sync_all()?;
        Ok(())
    }

    /// The log's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file length in bytes (test hook, like `read_back`).
    #[cfg(test)]
    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Re-reads the file and returns its bytes (test + tooling hook).
    #[cfg(test)]
    fn read_back(&mut self) -> Vec<u8> {
        use std::io::Read;
        let mut buf = Vec::new();
        self.file.seek(SeekFrom::Start(0)).unwrap();
        self.file.read_to_end(&mut buf).unwrap();
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("guardrail_wal_tests").join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn batch(id: u64) -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(id as i64), Value::from(format!("v{id}"))],
            vec![Value::Null, Value::Bool(id % 2 == 0)],
        ]
    }

    #[test]
    fn append_then_open_replays_in_order() {
        let d = dir("replay");
        let mut wal = Wal::create(d.join("wal.log")).unwrap();
        for id in 1..=3u64 {
            wal.append(id, &batch(id), 2).unwrap();
        }
        drop(wal);
        let (_, scan) = Wal::open(d.join("wal.log"), 2).unwrap();
        assert_eq!(scan.batches.len(), 3);
        assert_eq!(scan.batches.iter().map(|b| b.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(scan.batches[0].rows, batch(1));
        assert!(!scan.truncated_tail);
        assert_eq!(scan.duplicates_skipped, 0);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let d = dir("torn");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1), 2).unwrap();
        let good_len = wal.len().unwrap();
        wal.append(2, &batch(2), 2).unwrap();
        let full = wal.read_back();
        drop(wal);
        // Cut the second record at every possible byte boundary (strictly
        // inside it): recovery must always land exactly on the end of
        // record 1.
        for cut in good_len as usize + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (reopened, scan) = Wal::open(&path, 2).unwrap();
            assert_eq!(scan.batches.len(), 1, "cut at {cut}");
            assert!(scan.truncated_tail, "cut at {cut}");
            assert_eq!(reopened.len().unwrap(), good_len, "cut at {cut} truncates to last good");
        }
    }

    #[test]
    fn corrupted_record_ends_the_scan() {
        let d = dir("flip");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1), 2).unwrap();
        let good_len = wal.len().unwrap() as usize;
        wal.append(2, &batch(2), 2).unwrap();
        let mut bytes = wal.read_back();
        drop(wal);
        bytes[good_len + 20] ^= 0xff; // inside record 2's payload
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = Wal::open(&path, 2).unwrap();
        assert_eq!(scan.batches.len(), 1);
        assert!(scan.truncated_tail);
    }

    #[test]
    fn duplicate_batch_ids_replay_once() {
        let d = dir("dup");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1), 2).unwrap();
        wal.append(1, &batch(1), 2).unwrap(); // retried append
        wal.append(2, &batch(2), 2).unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path, 2).unwrap();
        assert_eq!(scan.batches.iter().map(|b| b.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(scan.duplicates_skipped, 1);
        assert!(!scan.truncated_tail, "duplicates are kept, not treated as damage");
    }

    #[test]
    fn torn_header_recovers_to_empty_log() {
        let d = dir("header");
        let path = d.join("wal.log");
        std::fs::write(&path, &MAGIC_HEAD[..3]).unwrap();
        let (mut wal, scan) = Wal::open(&path, 2).unwrap();
        assert!(scan.batches.is_empty());
        assert!(scan.truncated_tail);
        // The reopened log is usable.
        wal.append(1, &batch(1), 2).unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path, 2).unwrap();
        assert_eq!(scan.batches.len(), 1);
        assert!(!scan.truncated_tail);
    }

    #[test]
    fn lengths_past_u32_are_refused() {
        assert_eq!(len_u32(u32::MAX as usize, "payload length").unwrap(), u32::MAX);
        let err = len_u32(u32::MAX as usize + 1, "payload length").unwrap_err();
        assert!(matches!(err, TableError::Storage(_)), "{err}");
    }

    #[test]
    fn column_count_mismatch_is_tail_damage() {
        let d = dir("ncols");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1), 2).unwrap();
        drop(wal);
        // Scanning with the wrong store arity rejects the record.
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan(&bytes, 3);
        assert!(scan.batches.is_empty());
        assert!(scan.truncated_tail);
    }
}
