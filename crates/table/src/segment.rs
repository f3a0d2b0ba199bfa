//! The on-disk columnar segment format.
//!
//! A segment is the immutable base of a persistent table: one file holding
//! every column's dictionary page followed by its packed code page, closed
//! by a checksummed footer. The layout is deliberately *mmap-able* — code
//! pages are contiguous fixed-width `u32` little-endian arrays whose
//! absolute file offsets are recorded in a directory, so a zero-copy reader
//! can map the file and slice pages directly. This crate's reader stays
//! within `#![forbid(unsafe_code)]` and loads pages through `std::fs`
//! instead; the format does not care which way it is scanned.
//!
//! ```text
//! +------------------+  magic "GRSEG001"
//! | header           |  ncols: u32, nrows: u64
//! +------------------+
//! | column 0         |  name (u16 len + utf8)
//! |   dict page      |  nvalues: u32, tagged values in code order
//! |   code page      |  nrows × u32 LE   (NULL_CODE for null cells)
//! | column 1 ...     |
//! +------------------+
//! | directory        |  ncols × u64 LE: absolute offset of each code page
//! +------------------+
//! | footer           |  checksum64 of all preceding bytes: u64 LE
//! |                  |  magic "GRSEGEND"
//! +------------------+
//! ```
//!
//! Dictionary pages store values in **code order**, so reopening a segment
//! reproduces the exact code assignment of the table that wrote it —
//! dictionary determinism is load-bearing for everything downstream (the
//! decision-table engine compiles literal codes, sufficient statistics pack
//! codes into mixed-radix keys).

use crate::codec::{checksum64, get_value, put_u16, put_u32, put_u64, put_value, Cursor};
use crate::column::Column;
use crate::dictionary::{Dictionary, NULL_CODE};
use crate::error::TableError;
use crate::table::Table;
use crate::Result;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC_HEAD: &[u8; 8] = b"GRSEG001";
const MAGIC_TAIL: &[u8; 8] = b"GRSEGEND";
/// Footer = checksum (8) + tail magic (8).
const FOOTER_LEN: usize = 16;

fn corrupt(path: &Path, message: impl Into<String>) -> TableError {
    TableError::Storage(format!("segment {}: {}", path.display(), message.into()))
}

/// Serializes `table` into the segment byte format.
pub(crate) fn encode_segment(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC_HEAD);
    put_u32(&mut out, table.num_columns() as u32);
    put_u64(&mut out, table.num_rows() as u64);
    let mut code_offsets = Vec::with_capacity(table.num_columns());
    for (field, col) in table.schema().fields().iter().zip(table.columns()) {
        let name = field.name().as_bytes();
        put_u16(&mut out, name.len() as u16);
        out.extend_from_slice(name);
        let dict = col.dictionary();
        put_u32(&mut out, dict.len() as u32);
        for value in dict.values() {
            put_value(&mut out, value);
        }
        code_offsets.push(out.len() as u64);
        for &code in col.codes() {
            put_u32(&mut out, code);
        }
    }
    for off in code_offsets {
        put_u64(&mut out, off);
    }
    let sum = checksum64(&out);
    put_u64(&mut out, sum);
    out.extend_from_slice(MAGIC_TAIL);
    out
}

/// Decodes segment bytes back into a table, verifying magic and checksum.
pub(crate) fn decode_segment(bytes: &[u8], path: &Path) -> Result<Table> {
    if bytes.len() < MAGIC_HEAD.len() + FOOTER_LEN || &bytes[..8] != MAGIC_HEAD {
        return Err(corrupt(path, "missing or truncated header"));
    }
    let body_len = bytes.len() - FOOTER_LEN;
    if &bytes[body_len + 8..] != MAGIC_TAIL {
        return Err(corrupt(path, "missing footer magic (torn write?)"));
    }
    let stored = u64::from_le_bytes(bytes[body_len..body_len + 8].try_into().unwrap());
    let actual = checksum64(&bytes[..body_len]);
    if stored != actual {
        return Err(corrupt(path, format!("checksum mismatch ({stored:#x} != {actual:#x})")));
    }

    let mut cur = Cursor::new(&bytes[8..body_len], "segment");
    let ncols = cur.u32()? as usize;
    let nrows = cur.u64()? as usize;
    let mut named: Vec<(String, Column)> = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name_len = cur.u16()? as usize;
        let name = cur.str(name_len)?;
        let dict_len = cur.u32()? as usize;
        let mut dict = Dictionary::new();
        for code in 0..dict_len {
            let value = get_value(&mut cur)?;
            let assigned = dict.encode(value);
            if assigned as usize != code {
                return Err(corrupt(
                    path,
                    format!("dictionary page of {name:?} is not in code order"),
                ));
            }
        }
        // Bulk code-page decode: take the whole fixed-width page in one
        // bounds check and convert it into the column's single code buffer,
        // instead of a per-value cursor read. The buffer built here is the
        // one every later reader borrows (via [`Column::codes`]) — pages are
        // decoded once per open, never per read.
        let page_len = nrows.checked_mul(4).ok_or_else(|| corrupt(path, "code page overflow"))?;
        let page = cur.take(page_len)?;
        let mut codes = Vec::with_capacity(nrows);
        for chunk in page.chunks_exact(4) {
            let code = u32::from_le_bytes(chunk.try_into().expect("chunks_exact yields 4 bytes"));
            if code != NULL_CODE && code as usize >= dict_len {
                return Err(corrupt(path, format!("code {code} out of dictionary in {name:?}")));
            }
            codes.push(code);
        }
        named.push((name, Column::from_parts(codes, dict)));
    }
    // Directory: one offset per column; validated for monotonicity only —
    // a slicing reader would use these, the sequential path already has
    // everything it needs.
    let mut prev = 0u64;
    for _ in 0..ncols {
        let off = cur.u64()?;
        if off < prev || off as usize > body_len {
            return Err(corrupt(path, "code-page directory out of order"));
        }
        prev = off;
    }
    if cur.remaining() != 0 {
        return Err(corrupt(path, format!("{} trailing bytes after directory", cur.remaining())));
    }
    if ncols == 0 {
        return Err(corrupt(path, "segment has no columns"));
    }
    Table::from_columns(named)
}

/// An immutable, checksum-verified on-disk segment.
///
/// Opening a segment loads its columns into memory (dictionary pages decode
/// into [`Dictionary`]s, code pages into packed `Vec<u32>`), after which it
/// serves its columns through [`Segment::table`] like any in-memory table.
#[derive(Debug, Clone)]
pub struct Segment {
    table: Table,
    path: PathBuf,
}

impl Segment {
    /// Writes `table` as a segment at `path` (atomically: temp file +
    /// rename) and fsyncs before the rename so a crash never leaves a
    /// half-written segment under the final name.
    pub fn write(path: impl AsRef<Path>, table: &Table) -> Result<()> {
        let path = path.as_ref();
        let bytes = encode_segment(table);
        let tmp = path.with_extension("seg.tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Opens and verifies the segment at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Segment> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path)?;
        let table = decode_segment(&bytes, &path)?;
        Ok(Segment { table, path })
    }

    /// The segment's columnar view.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Consumes the segment, yielding the owned table.
    pub fn into_table(self) -> Table {
        self.table
    }

    /// Where the segment lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

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
        Segment::write(&path, &t).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.table(), &t, "codes and dictionaries are bit-identical");
        assert_eq!(seg.table().get(2, 0), Some(Value::Null));
    }

    #[test]
    fn flipping_any_byte_is_detected() {
        let d = dir("corrupt");
        let path = d.join("base.seg");
        Segment::write(&path, &mixed_table()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip a byte in the header, the middle, and the checksum itself.
        for &at in &[3usize, clean.len() / 2, clean.len() - 12] {
            let mut bad = clean.clone();
            bad[at] ^= 0xff;
            std::fs::write(&path, &bad).unwrap();
            assert!(Segment::open(&path).is_err(), "corruption at byte {at} must be detected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let d = dir("truncate");
        let path = d.join("base.seg");
        Segment::write(&path, &mixed_table()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for cut in [0, 1, 7, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(Segment::open(&path).is_err(), "truncation to {cut} bytes must be detected");
        }
    }

    #[test]
    fn write_is_atomic_no_tmp_left_behind() {
        let d = dir("atomic");
        let path = d.join("base.seg");
        Segment::write(&path, &mixed_table()).unwrap();
        assert!(path.exists());
        assert!(!d.join("base.seg.tmp").exists());
    }
}
