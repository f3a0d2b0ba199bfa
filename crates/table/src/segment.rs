//! The on-disk base segment: the immutable rows a store was created with.
//!
//! ```text
//! segment := magic "GRSEG002"
//!            body                        (the batch body of `codec`)
//!            checksum64 of all preceding bytes: u64 LE
//!            magic "GRSEGEND"
//! ```
//!
//! The body is the same columnar batch body every WAL record carries, so
//! reopening a segment reproduces the exact code assignment of the table
//! that wrote it — dictionary determinism is load-bearing for everything
//! downstream (the decision-table engine translates dictionaries into
//! program code spaces, sufficient statistics pack codes into mixed-radix
//! keys). A file with any other head magic, an older format version
//! included, is refused with a typed error.

use crate::codec::{Body, BodyReader, SumWriter, IO_BUFFER};
use crate::error::TableError;
use crate::table::Table;
use crate::Result;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

const MAGIC_HEAD: &[u8; 8] = b"GRSEG002";
const MAGIC_TAIL: &[u8; 8] = b"GRSEGEND";
/// Footer = checksum (8) + tail magic (8).
const FOOTER_LEN: usize = 16;

fn corrupt(path: &Path, message: impl Into<String>) -> TableError {
    TableError::Storage(format!("segment {}: {}", path.display(), message.into()))
}

/// Writes `table` as a segment at `path` (atomically: temp file + rename),
/// checksumming the bytes as they stream out, and fsyncs before the rename
/// so a crash never leaves a half-written segment under the final name.
pub(crate) fn write(path: &Path, table: &Table) -> Result<()> {
    let tmp = path.with_extension("seg.tmp");
    let mut out = SumWriter::new(BufWriter::with_capacity(IO_BUFFER, File::create(&tmp)?), &[]);
    out.write_all(MAGIC_HEAD)?;
    Body::new(table).write_to(&mut out)?;
    let (mut out, sum) = out.finish();
    out.write_all(&sum.to_le_bytes())?;
    out.write_all(MAGIC_TAIL)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and verifies the segment at `path`: the file is read whole, then
/// decoded and checksummed in one pass.
pub(crate) fn read(path: &Path) -> Result<Table> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC_HEAD.len() + FOOTER_LEN {
        return Err(corrupt(path, "truncated header"));
    }
    if &bytes[..8] != MAGIC_HEAD {
        let (head, expected) =
            (String::from_utf8_lossy(&bytes[..8]), String::from_utf8_lossy(MAGIC_HEAD));
        return Err(corrupt(path, format!("unknown format {head:?}, expected {expected:?}")));
    }
    let body_len = bytes.len() - FOOTER_LEN;
    if &bytes[body_len + 8..] != MAGIC_TAIL {
        return Err(corrupt(path, "missing footer magic (torn write?)"));
    }
    let body = &bytes[8..body_len];
    let mut reader = BodyReader::new(body, body.len() as u64, MAGIC_HEAD, "segment");
    let table = reader.read_table();
    let actual = reader.finish();
    let stored = u64::from_le_bytes(bytes[body_len..body_len + 8].try_into().unwrap());
    if stored != actual {
        return Err(corrupt(path, format!("checksum mismatch ({stored:#x} != {actual:#x})")));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::path::PathBuf;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("guardrail_segment_tests").join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn mixed_table() -> Table {
        Table::from_csv_str("city,pop,rate,flag\nBerkeley,120000,0.5,true\nPortland,650000,1.25,false\n,,,\nBerkeley,120000,0.5,true\n").unwrap()
    }

    #[test]
    fn roundtrip_preserves_codes_and_dictionaries() {
        let d = dir("roundtrip");
        let path = d.join("base.seg");
        let t = mixed_table();
        write(&path, &t).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back, t, "codes and dictionaries are bit-identical");
        assert_eq!(back.get(2, 0), Some(Value::Null));
    }

    #[test]
    fn flipping_any_byte_is_detected() {
        let d = dir("corrupt");
        let path = d.join("base.seg");
        write(&path, &mixed_table()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip a byte in the header, the middle, and the checksum itself.
        for &at in &[3usize, clean.len() / 2, clean.len() - 12] {
            let mut bad = clean.clone();
            bad[at] ^= 0xff;
            std::fs::write(&path, &bad).unwrap();
            assert!(read(&path).is_err(), "corruption at byte {at} must be detected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let d = dir("truncate");
        let path = d.join("base.seg");
        write(&path, &mixed_table()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for cut in [0, 1, 7, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(read(&path).is_err(), "truncation to {cut} bytes must be detected");
        }
    }

    #[test]
    fn write_is_atomic_no_tmp_left_behind() {
        let d = dir("atomic");
        let path = d.join("base.seg");
        write(&path, &mixed_table()).unwrap();
        assert!(path.exists());
        assert!(!d.join("base.seg.tmp").exists());
    }

    #[test]
    fn an_older_format_is_refused_by_name() {
        let d = dir("version");
        let path = d.join("base.seg");
        write(&path, &mixed_table()).unwrap();
        let mut old = std::fs::read(&path).unwrap();
        old[..8].copy_from_slice(b"GRSEG001");
        std::fs::write(&path, &old).unwrap();
        let err = read(&path).unwrap_err().to_string();
        assert!(err.contains("unknown format \"GRSEG001\""), "{err}");
    }
}
