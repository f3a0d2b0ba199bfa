//! The one byte codec of the storage layer: a columnar batch body shared by
//! the base segment and every WAL record.
//!
//! ```text
//! body   := ncols: u32, nrows: u64, column*
//! column := name (u16 len + utf8)
//!           nvalues: u32, tagged values in code order   (dictionary page)
//!           nrows × u32 LE codes, NULL_CODE for null     (code page)
//! ```
//!
//! Everything is little-endian and hand-rolled: the workspace takes no
//! serialization dependency. Values are tagged (`0=Null, 1=Bool, 2=Int,
//! 3=Float, 4=Str`); floats are stored as raw IEEE-754 bits so the encode →
//! decode roundtrip is bit-exact. Dictionary pages hold values in **code
//! order**, so a decoded body reproduces the exact code assignment of the
//! table that wrote it. Integrity is guarded by a 64-bit FNV-1a checksum,
//! computed as the bytes stream through [`SumWriter`] and [`BodyReader`] —
//! cheap, dependency-free, and plenty to catch the torn or bit-rotted tails
//! the recovery path must detect (it is not a cryptographic MAC and does not
//! need to be).

use crate::column::Column;
use crate::dictionary::{Code, Dictionary, NULL_CODE};
use crate::error::TableError;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::io::{self, BufRead, Write};

/// Buffer size of the file readers and writers the codec streams through.
pub(crate) const IO_BUFFER: usize = 1 << 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues a 64-bit FNV-1a hash `hash` over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 64-bit FNV-1a over `bytes`.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// A writer that checksums every byte it passes on, so a file is hashed as
/// it streams out instead of being built in memory first.
pub(crate) struct SumWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> SumWriter<W> {
    /// Starts a checksum that already covers `prefix` (bytes hashed but not
    /// written here).
    pub(crate) fn new(inner: W, prefix: &[u8]) -> Self {
        SumWriter { inner, hash: checksum64(prefix) }
    }

    /// The inner writer, and the checksum of everything hashed.
    pub(crate) fn finish(self) -> (W, u64) {
        (self.inner, self.hash)
    }
}

impl<W: Write> Write for SumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Appends the tagged encoding of `v` to `out`.
fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// A table staged as a body: each column's name and dictionary page are
/// encoded up front (bytes proportional to the distinct values), and the
/// code pages stream from the table itself when the body is written.
pub(crate) struct Body<'a> {
    table: &'a Table,
    pages: Vec<Vec<u8>>,
}

impl<'a> Body<'a> {
    pub(crate) fn new(table: &'a Table) -> Self {
        let pages = table
            .schema()
            .fields()
            .iter()
            .zip(table.columns())
            .map(|(field, column)| {
                let name = field.name().as_bytes();
                let mut page = (name.len() as u16).to_le_bytes().to_vec();
                page.extend_from_slice(name);
                page.extend_from_slice(&(column.dictionary().len() as u32).to_le_bytes());
                for value in column.dictionary().values() {
                    put_value(&mut page, value);
                }
                page
            })
            .collect();
        Body { table, pages }
    }

    /// Encoded length in bytes.
    pub(crate) fn len(&self) -> usize {
        let code_pages = 4 * self.table.num_rows() * self.table.num_columns();
        12 + self.pages.iter().map(Vec::len).sum::<usize>() + code_pages
    }

    pub(crate) fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(&(self.table.num_columns() as u32).to_le_bytes())?;
        out.write_all(&(self.table.num_rows() as u64).to_le_bytes())?;
        let mut buf = [0u8; 4096];
        for (page, column) in self.pages.iter().zip(self.table.columns()) {
            out.write_all(page)?;
            for chunk in column.codes().chunks(buf.len() / 4) {
                for (dst, code) in buf.chunks_exact_mut(4).zip(chunk) {
                    dst.copy_from_slice(&code.to_le_bytes());
                }
                out.write_all(&buf[..4 * chunk.len()])?;
            }
        }
        Ok(())
    }
}

/// Decodes one body of a known length from a buffered reader, checksumming
/// the bytes as it consumes them. No read goes past the body, and no
/// allocation is larger than the bytes left in it, so a corrupt length
/// field fails as a typed error before its checksum is compared.
pub(crate) struct BodyReader<R> {
    inner: R,
    left: u64,
    hash: u64,
    what: &'static str,
}

impl<R: BufRead> BodyReader<R> {
    /// A reader of the `len`-byte body at `inner`'s position, whose checksum
    /// starts already covering `prefix`.
    pub(crate) fn new(inner: R, len: u64, prefix: &[u8], what: &'static str) -> Self {
        BodyReader { inner, left: len, hash: checksum64(prefix), what }
    }

    /// The checksum of the prefix and every byte consumed.
    pub(crate) fn finish(self) -> u64 {
        self.hash
    }

    fn corrupt(&self, message: impl std::fmt::Display) -> TableError {
        TableError::Storage(format!("{}: {message}", self.what))
    }

    /// Fails unless `n` more bytes are left in the body.
    fn reserve(&self, n: u64) -> Result<()> {
        if n > self.left {
            return Err(self.corrupt(format!("truncated with {} bytes left", self.left)));
        }
        Ok(())
    }

    fn fill(&mut self, out: &mut [u8]) -> Result<()> {
        self.reserve(out.len() as u64)?;
        self.inner.read_exact(out)?;
        self.hash = fnv1a(self.hash, out);
        self.left -= out.len() as u64;
        Ok(())
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        self.fill(&mut out)?;
        Ok(out)
    }

    fn string(&mut self, len: usize) -> Result<String> {
        self.reserve(len as u64)?;
        let mut out = vec![0u8; len];
        self.fill(&mut out)?;
        String::from_utf8(out).map_err(|_| self.corrupt("invalid UTF-8"))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.bytes::<1>()?[0] {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(self.bytes::<1>()?[0] != 0),
            TAG_INT => Value::Int(i64::from_le_bytes(self.bytes()?)),
            TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(self.bytes()?))),
            TAG_STR => {
                let len = u32::from_le_bytes(self.bytes()?) as usize;
                Value::Str(self.string(len)?)
            }
            tag => return Err(self.corrupt(format!("unknown value tag {tag}"))),
        })
    }

    /// One code page of `nrows` codes, each checked against `dict_len`,
    /// decoded straight out of the reader's buffer.
    fn codes(&mut self, nrows: usize, dict_len: usize) -> Result<Vec<Code>> {
        self.reserve((nrows as u64).saturating_mul(4))?;
        let what = self.what;
        let checked = |code: Code| {
            if code == NULL_CODE || (code as usize) < dict_len {
                Ok(code)
            } else {
                Err(TableError::Storage(format!("{what}: code {code} out of dictionary")))
            }
        };
        let mut codes = Vec::with_capacity(nrows);
        while codes.len() < nrows {
            let buf = self.inner.fill_buf()?;
            if buf.len() < 4 {
                // A code split across the end of the reader's buffer.
                codes.push(checked(u32::from_le_bytes(self.bytes()?))?);
                continue;
            }
            let take = 4 * (buf.len() / 4).min(nrows - codes.len());
            let page = &buf[..take];
            self.hash = fnv1a(self.hash, page);
            for chunk in page.chunks_exact(4) {
                codes.push(checked(u32::from_le_bytes(chunk.try_into().expect("4 bytes")))?);
            }
            self.inner.consume(take);
            self.left -= take as u64;
        }
        Ok(codes)
    }

    /// Decodes the whole body, validating that every dictionary page is in
    /// code order, every code is in its dictionary, and the body ends where
    /// its length says.
    pub(crate) fn read_table(&mut self) -> Result<Table> {
        let ncols = u32::from_le_bytes(self.bytes()?) as usize;
        let nrows = u64::from_le_bytes(self.bytes()?) as usize;
        if ncols == 0 {
            return Err(self.corrupt("no columns"));
        }
        let mut named: Vec<(String, Column)> = Vec::new();
        for _ in 0..ncols {
            let name_len = u16::from_le_bytes(self.bytes()?) as usize;
            let name = self.string(name_len)?;
            let dict_len = u32::from_le_bytes(self.bytes()?) as usize;
            let mut dict = Dictionary::new();
            for code in 0..dict_len {
                if dict.encode(self.value()?) as usize != code {
                    return Err(
                        self.corrupt(format!("dictionary page of {name:?} is not in code order"))
                    );
                }
            }
            let codes = self.codes(nrows, dict_len)?;
            named.push((name, Column::from_parts(codes, dict)));
        }
        if self.left != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.left)));
        }
        Table::from_columns(named)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> BodyReader<&[u8]> {
        BodyReader::new(bytes, bytes.len() as u64, &[], "test")
    }

    #[test]
    fn value_roundtrip_is_bit_exact() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.5),
            Value::Float(-0.0),
            Value::Str(String::new()),
            Value::Str("héllo, wörld".into()),
        ];
        let mut buf = Vec::new();
        for v in &values {
            put_value(&mut buf, v);
        }
        let mut cur = reader(&buf);
        for v in &values {
            let back = cur.value().unwrap();
            match (v, &back) {
                // -0.0 == 0.0 under PartialEq; compare bits to prove exactness.
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, back),
            }
        }
        assert_eq!(cur.left, 0);
        assert_eq!(cur.finish(), checksum64(&buf), "the reader hashes what it consumes");
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Str("hello".into()));
        for cut in 0..buf.len() {
            assert!(reader(&buf[..cut]).value().is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn body_len_is_the_written_length_and_the_body_roundtrips() {
        let t = Table::from_csv_str("s,n,x\nü東,1,0.5\n,2,-0.0\nb,,true\n").unwrap();
        let body = Body::new(&t);
        let mut buf = Vec::new();
        body.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), body.len());
        assert_eq!(reader(&buf).read_table().unwrap(), t);
        for cut in 0..buf.len() {
            assert!(reader(&buf[..cut]).read_table().is_err(), "cut at {cut}");
        }
        // Code pages decode across any split of the reader's buffer.
        let split = std::io::BufReader::with_capacity(7, buf.as_slice());
        let mut split = BodyReader::new(split, buf.len() as u64, &[], "test");
        assert_eq!(split.read_table().unwrap(), t);
        assert_eq!(split.finish(), checksum64(&buf));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum64(b"guardrail");
        assert_eq!(a, checksum64(b"guardrail"), "deterministic");
        assert_ne!(a, checksum64(b"guardrail\0"), "length-sensitive");
        assert_ne!(a, checksum64(b"guardrails"), "content-sensitive");
        assert_eq!(checksum64(b""), FNV_OFFSET);
    }
}
