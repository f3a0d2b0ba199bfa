//! Write-ahead log for appended row batches.
//!
//! Appends to a persistent table are durable the moment their WAL record
//! hits disk; the base segment is written once, when the store is created,
//! and never rewritten. Each record carries one batch as the columnar body
//! of [`crate::codec`] (dictionary pages in code order plus `u32` code
//! pages), the same body the base segment holds. Replay appends each batch
//! through [`Table::append_table`], the one append path, which interns a
//! column's values in the order a row-major push would — so the replayed
//! codes and dictionaries are those of the original append, the determinism
//! the engine and statistics layers depend on.
//!
//! ```text
//! file   := header record*
//! header := magic "GRWAL002"
//! record := marker "GWAL" (u32)
//!           batch_id: u64 LE
//!           payload_len: u32 LE
//!           payload                      (one body)
//!           checksum64(batch_id ++ payload): u64 LE
//! ```
//!
//! # Recovery rules
//!
//! On open the log is replayed record by record; only one record's bytes
//! and its decoded batch are held at a time.
//!
//! 1. A file shorter than the header is a torn header and recovers to an
//!    empty log. A full-length header with any other magic — an older
//!    format version included — is a typed error, and the file is left
//!    untouched.
//! 2. A record that is incomplete, has a bad marker, fails its checksum, or
//!    holds a batch the table cannot take ends the scan — it and everything
//!    after it are a **torn tail**, and the file is truncated back to the
//!    last complete record. A torn tail can only be the suffix interrupted
//!    by the crash: every earlier record was complete when its append
//!    returned.
//! 3. A record whose `batch_id` was already replayed is **skipped but kept**
//!    (a retried append may have been written twice; replay is idempotent).
//! 4. Batches replay in file order, so recovery is bit-identical to a
//!    process that appended the same batches and never crashed.

use crate::codec::{Body, BodyReader, SumWriter, IO_BUFFER};
use crate::error::TableError;
use crate::table::Table;
use crate::Result;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC_HEAD: &[u8; 8] = b"GRWAL002";
const RECORD_MARKER: u32 = 0x4c41_5747; // "GWAL" little-endian
/// marker (4) + batch id (8) + payload length (4).
const RECORD_HEAD: usize = 16;
const CHECKSUM_LEN: usize = 8;

/// What replaying a WAL file found, besides the batches it applied.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
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

/// Reads the record at the reader's position, `remaining` bytes before the
/// end of the file, decoding its batch straight from the reader. `None`
/// when it is torn: incomplete, a bad marker, a bad checksum, or a body that
/// does not decode (corruption the checksum should have caught, treated as
/// tail damage rather than replayed).
fn read_record(reader: &mut impl BufRead, remaining: u64) -> Result<Option<(u64, Table, u64)>> {
    if remaining < (RECORD_HEAD + CHECKSUM_LEN) as u64 {
        return Ok(None);
    }
    let mut head = [0u8; RECORD_HEAD];
    reader.read_exact(&mut head)?;
    if u32::from_le_bytes(head[0..4].try_into().unwrap()) != RECORD_MARKER {
        return Ok(None);
    }
    let id = u64::from_le_bytes(head[4..12].try_into().unwrap());
    let len = u32::from_le_bytes(head[12..16].try_into().unwrap()) as u64;
    let total = (RECORD_HEAD + CHECKSUM_LEN) as u64 + len;
    if total > remaining {
        return Ok(None);
    }
    let mut body = BodyReader::new(&mut *reader, len, &id.to_le_bytes(), "wal record");
    let batch = match body.read_table() {
        Err(TableError::Io(e)) => return Err(TableError::Io(e)),
        Err(_) => return Ok(None),
        Ok(batch) => batch,
    };
    let sum = body.finish();
    let mut stored = [0u8; CHECKSUM_LEN];
    reader.read_exact(&mut stored)?;
    Ok((u64::from_le_bytes(stored) == sum).then_some((id, batch, total)))
}

/// An open write-ahead log.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
}

impl Wal {
    /// Creates a fresh, empty log (header only), fsynced.
    pub(crate) fn create(path: impl AsRef<Path>) -> Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        file.write_all(MAGIC_HEAD)?;
        file.sync_all()?;
        Ok(Wal { file })
    }

    /// Opens the log at `path`, running recovery: every complete batch goes
    /// to `apply(id, batch)` in file order, one at a time. An `apply` error
    /// ends the scan as tail damage. Returns the log positioned for appends;
    /// a torn tail is physically truncated away so later appends extend a
    /// valid file.
    pub(crate) fn open(
        path: impl AsRef<Path>,
        mut apply: impl FnMut(u64, Table) -> Result<()>,
    ) -> Result<(Wal, WalScan)> {
        let path = path.as_ref();
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        let mut scan = WalScan::default();
        if file_len < MAGIC_HEAD.len() as u64 {
            // A torn header: recover to an empty log.
            file.set_len(0)?;
            file.write_all(MAGIC_HEAD)?;
            file.sync_all()?;
            scan.truncated_tail = true;
            return Ok((Wal { file }, scan));
        }
        let mut reader = BufReader::with_capacity(IO_BUFFER, &file);
        let mut head = [0u8; 8];
        reader.read_exact(&mut head)?;
        if &head != MAGIC_HEAD {
            return Err(TableError::Storage(format!(
                "wal {}: unknown format {:?}, expected {:?}",
                path.display(),
                String::from_utf8_lossy(&head),
                String::from_utf8_lossy(MAGIC_HEAD),
            )));
        }
        let mut valid_len = MAGIC_HEAD.len() as u64;
        let mut seen: HashSet<u64> = HashSet::new();
        while valid_len < file_len {
            let Some((id, batch, total)) = read_record(&mut reader, file_len - valid_len)? else {
                scan.truncated_tail = true;
                break;
            };
            if !seen.insert(id) {
                scan.duplicates_skipped += 1;
            } else if apply(id, batch).is_err() {
                scan.truncated_tail = true;
                break;
            }
            valid_len += total;
        }
        drop(reader);
        if scan.truncated_tail {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((Wal { file }, scan))
    }

    /// Appends one batch record, streamed and checksummed as it is written,
    /// and fsyncs. The batch is durable when this returns. A batch whose
    /// payload length does not fit the record's `u32` field is refused
    /// before anything is written.
    pub(crate) fn append(&mut self, id: u64, batch: &Table) -> Result<()> {
        let body = Body::new(batch);
        let len = len_u32(body.len(), "payload length")?;
        let mut out = BufWriter::with_capacity(IO_BUFFER, &self.file);
        out.write_all(&RECORD_MARKER.to_le_bytes())?;
        out.write_all(&id.to_le_bytes())?;
        out.write_all(&len.to_le_bytes())?;
        let mut payload = SumWriter::new(out, &id.to_le_bytes());
        body.write_to(&mut payload)?;
        let (mut out, sum) = payload.finish();
        out.write_all(&sum.to_le_bytes())?;
        out.into_inner().map_err(|e| e.into_error())?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Current file length in bytes (test hook, like `read_back`).
    #[cfg(test)]
    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Re-reads the file and returns its bytes (test + tooling hook).
    #[cfg(test)]
    fn read_back(&mut self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.file.seek(SeekFrom::Start(0)).unwrap();
        self.file.read_to_end(&mut buf).unwrap();
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use std::path::PathBuf;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("guardrail_wal_tests").join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn batch(id: u64) -> Table {
        let mut b = TableBuilder::new(vec!["n".into(), "v".into()]);
        b.push_row(vec![Value::Int(id as i64), Value::from(format!("v{id}"))]).unwrap();
        b.push_row(vec![Value::Null, Value::Bool(id % 2 == 0)]).unwrap();
        b.finish().unwrap()
    }

    /// Opens the log at `path`, collecting every replayed batch.
    fn open(path: &Path) -> (Wal, Vec<(u64, Table)>, WalScan) {
        let mut batches = Vec::new();
        let (wal, scan) = Wal::open(path, |id, b| {
            batches.push((id, b));
            Ok(())
        })
        .unwrap();
        (wal, batches, scan)
    }

    #[test]
    fn append_then_open_replays_in_order() {
        let d = dir("replay");
        let mut wal = Wal::create(d.join("wal.log")).unwrap();
        for id in 1..=3u64 {
            wal.append(id, &batch(id)).unwrap();
        }
        drop(wal);
        let (_, batches, scan) = open(&d.join("wal.log"));
        assert_eq!(batches.len(), 3);
        assert_eq!(batches.iter().map(|b| b.0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(batches[0].1, batch(1));
        assert!(!scan.truncated_tail);
        assert_eq!(scan.duplicates_skipped, 0);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let d = dir("torn");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1)).unwrap();
        let good_len = wal.len().unwrap();
        wal.append(2, &batch(2)).unwrap();
        let full = wal.read_back();
        drop(wal);
        // Cut the second record at every possible byte boundary (strictly
        // inside it): recovery must always land exactly on the end of
        // record 1.
        for cut in good_len as usize + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (reopened, batches, scan) = open(&path);
            assert_eq!(batches.len(), 1, "cut at {cut}");
            assert!(scan.truncated_tail, "cut at {cut}");
            assert_eq!(reopened.len().unwrap(), good_len, "cut at {cut} truncates to last good");
        }
    }

    #[test]
    fn corrupted_record_ends_the_scan() {
        let d = dir("flip");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1)).unwrap();
        let good_len = wal.len().unwrap() as usize;
        wal.append(2, &batch(2)).unwrap();
        let mut bytes = wal.read_back();
        drop(wal);
        bytes[good_len + 20] ^= 0xff; // inside record 2's payload
        std::fs::write(&path, &bytes).unwrap();
        let (_, batches, scan) = open(&path);
        assert_eq!(batches.len(), 1);
        assert!(scan.truncated_tail);
    }

    #[test]
    fn duplicate_batch_ids_replay_once() {
        let d = dir("dup");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1)).unwrap();
        wal.append(1, &batch(1)).unwrap(); // retried append
        wal.append(2, &batch(2)).unwrap();
        drop(wal);
        let (_, batches, scan) = open(&path);
        assert_eq!(batches.iter().map(|b| b.0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(scan.duplicates_skipped, 1);
        assert!(!scan.truncated_tail, "duplicates are kept, not treated as damage");
    }

    #[test]
    fn torn_header_recovers_to_empty_log() {
        let d = dir("header");
        let path = d.join("wal.log");
        std::fs::write(&path, &MAGIC_HEAD[..3]).unwrap();
        let (mut wal, batches, scan) = open(&path);
        assert!(batches.is_empty());
        assert!(scan.truncated_tail);
        // The reopened log is usable.
        wal.append(1, &batch(1)).unwrap();
        drop(wal);
        let (_, batches, scan) = open(&path);
        assert_eq!(batches.len(), 1);
        assert!(!scan.truncated_tail);
    }

    #[test]
    fn a_foreign_header_is_an_error_and_leaves_the_file() {
        let d = dir("foreign");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1)).unwrap();
        let clean = wal.read_back();
        drop(wal);
        let mut flipped = clean.clone();
        flipped[0] ^= 0xff;
        let mut older = clean;
        older[..8].copy_from_slice(b"GRWAL001");
        for bytes in [flipped, older] {
            std::fs::write(&path, &bytes).unwrap();
            let err = Wal::open(&path, |_, _| Ok(())).unwrap_err();
            assert!(matches!(err, TableError::Storage(_)), "{err}");
            assert!(err.to_string().contains("unknown format"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "the log is left untouched");
        }
    }

    #[test]
    fn lengths_past_u32_are_refused() {
        assert_eq!(len_u32(u32::MAX as usize, "payload length").unwrap(), u32::MAX);
        let err = len_u32(u32::MAX as usize + 1, "payload length").unwrap_err();
        assert!(matches!(err, TableError::Storage(_)), "{err}");
    }

    #[test]
    fn a_batch_the_table_refuses_is_tail_damage() {
        let d = dir("ncols");
        let path = d.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &batch(1)).unwrap();
        drop(wal);
        // A store whose schema does not take the batch rejects the record.
        let refuse = |_, _| Err(TableError::Storage("schema mismatch".into()));
        let (wal, scan) = Wal::open(&path, refuse).unwrap();
        assert!(scan.truncated_tail);
        assert_eq!(wal.len().unwrap(), MAGIC_HEAD.len() as u64);
    }
}
