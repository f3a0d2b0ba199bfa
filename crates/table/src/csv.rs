//! Minimal RFC-4180-style CSV reader/writer.
//!
//! Supports quoted fields, embedded commas/newlines/escaped quotes, and type
//! inference per cell via [`Value::parse_token`]. This is the only ingestion
//! path the workspace needs, so we implement it directly rather than pulling
//! in a CSV dependency.

use crate::error::TableError;
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use crate::Result;
use std::io::Write;
use std::path::Path;

/// Parses one CSV record starting at `pos`; returns fields and the position
/// just past the record's trailing newline. ASCII bytes are copied one at a
/// time; a run of non-ASCII bytes is copied whole after one UTF-8 check, so
/// multi-byte characters pass through intact (every delimiter is ASCII, and
/// UTF-8 never uses an ASCII byte inside a multi-byte character).
fn parse_record(data: &[u8], mut pos: usize, line: usize) -> Result<(Vec<String>, usize)> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    while pos < data.len() {
        let c = data[pos];
        if !c.is_ascii() {
            pos = push_non_ascii_run(data, pos, line, &mut field)?;
            continue;
        }
        if in_quotes {
            match c {
                b'"' => {
                    if data.get(pos + 1) == Some(&b'"') {
                        field.push('"');
                        pos += 2;
                    } else {
                        in_quotes = false;
                        pos += 1;
                    }
                }
                _ => {
                    field.push(c as char);
                    pos += 1;
                }
            }
        } else {
            match c {
                b'"' => {
                    if !field.is_empty() {
                        return Err(TableError::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                    pos += 1;
                }
                b',' => {
                    fields.push(std::mem::take(&mut field));
                    pos += 1;
                }
                b'\r' => {
                    pos += 1;
                }
                b'\n' => {
                    pos += 1;
                    fields.push(field);
                    return Ok((fields, pos));
                }
                _ => {
                    field.push(c as char);
                    pos += 1;
                }
            }
        }
    }
    if in_quotes {
        return Err(TableError::Csv { line, message: "unterminated quoted field".into() });
    }
    fields.push(field);
    Ok((fields, pos))
}

/// Appends the run of non-ASCII bytes at `pos` to `field` after one UTF-8
/// check; returns the position past the run. Kept out of line so the
/// per-byte loop over ASCII stays as small as it was before.
#[cold]
#[inline(never)]
fn push_non_ascii_run(data: &[u8], pos: usize, line: usize, field: &mut String) -> Result<usize> {
    let run = data[pos..].iter().position(u8::is_ascii).unwrap_or(data.len() - pos);
    let text = std::str::from_utf8(&data[pos..pos + run])
        .map_err(|_| TableError::Csv { line, message: "invalid UTF-8".into() })?;
    field.push_str(text);
    Ok(pos + run)
}

impl Table {
    /// Parses a table from CSV text. The first record is the header.
    pub fn from_csv_str(csv: &str) -> Result<Table> {
        Self::from_csv_bytes(csv.as_bytes())
    }

    /// Parses a table from CSV bytes. The first record is the header.
    pub fn from_csv_bytes(data: impl AsRef<[u8]>) -> Result<Table> {
        let bytes = data.as_ref();
        if bytes.is_empty() {
            return Err(TableError::Empty);
        }
        let (header, mut pos) = parse_record(bytes, 0, 1)?;
        if header.iter().all(|h| h.trim().is_empty()) {
            return Err(TableError::Empty);
        }
        let mut builder = TableBuilder::new(header.iter().map(|h| h.trim().to_string()).collect());
        let mut line = 2usize;
        while pos < bytes.len() {
            let (fields, next) = parse_record(bytes, pos, line)?;
            pos = next;
            if fields.len() == 1 && fields[0].is_empty() {
                line += 1;
                continue; // blank line
            }
            if fields.len() != header.len() {
                return Err(TableError::Csv {
                    line,
                    message: format!("expected {} fields, found {}", header.len(), fields.len()),
                });
            }
            builder.push_row(fields.iter().map(|f| Value::parse_token(f)).collect())?;
            line += 1;
        }
        builder.finish()
    }

    /// Reads a CSV file from disk.
    pub fn from_csv_path(path: impl AsRef<Path>) -> Result<Table> {
        let data = std::fs::read(path)?;
        Self::from_csv_bytes(data)
    }

    /// Serializes the table to CSV text (header + rows).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self.schema().names();
        out.push_str(&names.iter().map(|n| escape(n)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in 0..self.num_rows() {
            let mut first = true;
            for col in 0..self.num_columns() {
                if !first {
                    out.push(',');
                }
                first = false;
                let v = self.get(row, col).unwrap_or(Value::Null);
                out.push_str(&escape(&v.to_string()));
            }
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV to `path`.
    pub fn write_csv_path(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv_string().as_bytes())?;
        Ok(())
    }
}

/// A streaming CSV reader that yields row batches without loading the whole
/// file, for ingesting large files into a persistent store.
///
/// Semantics match [`Table::from_csv_bytes`] exactly — same record parser,
/// same blank-line skipping, same [`Value::parse_token`] typing — so
/// batch-wise ingestion of a file produces the same rows, in the same
/// order, as a whole-file load.
///
/// ```
/// use guardrail_table::csv::CsvBatchReader;
///
/// let data = "a,b\n1,x\n2,y\n3,z\n";
/// let mut reader = CsvBatchReader::new(data.as_bytes(), 2).unwrap();
/// let first = reader.next_batch().unwrap().unwrap();
/// assert_eq!(first.num_rows(), 2);
/// let second = reader.next_batch().unwrap().unwrap();
/// assert_eq!(second.num_rows(), 1);
/// assert!(reader.next_batch().unwrap().is_none());
/// ```
pub struct CsvBatchReader<R: std::io::Read> {
    reader: R,
    /// Unconsumed bytes; `pos` is the parse cursor into it.
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    header: Vec<String>,
    line: usize,
    batch_rows: usize,
}

/// Bytes pulled from the underlying reader per refill.
const READ_CHUNK: usize = 64 * 1024;

impl<R: std::io::Read> CsvBatchReader<R> {
    /// Wraps `reader`, immediately parsing the header record. Batches hold
    /// at most `batch_rows` rows (minimum 1).
    pub fn new(reader: R, batch_rows: usize) -> Result<Self> {
        let mut r = CsvBatchReader {
            reader,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            header: Vec::new(),
            line: 1,
            batch_rows: batch_rows.max(1),
        };
        match r.next_record()? {
            Some(header) if !header.iter().all(|h| h.trim().is_empty()) => {
                r.header = header.iter().map(|h| h.trim().to_string()).collect();
                Ok(r)
            }
            _ => Err(TableError::Empty),
        }
    }

    /// The trimmed header fields.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Reads the next batch of up to `batch_rows` rows; `None` at EOF.
    pub fn next_batch(&mut self) -> Result<Option<Table>> {
        let mut builder = TableBuilder::new(self.header.clone());
        while builder.len() < self.batch_rows {
            let Some(fields) = self.next_record()? else { break };
            if fields.len() == 1 && fields[0].is_empty() {
                continue; // blank line, same as the whole-file loader
            }
            if fields.len() != self.header.len() {
                return Err(TableError::Csv {
                    line: self.line - 1,
                    message: format!(
                        "expected {} fields, found {}",
                        self.header.len(),
                        fields.len()
                    ),
                });
            }
            builder.push_row(fields.iter().map(|f| Value::parse_token(f)).collect())?;
        }
        if builder.is_empty() {
            return Ok(None);
        }
        builder.finish().map(Some)
    }

    /// Parses one record, refilling from the reader when the buffered bytes
    /// may end mid-record. Returns `None` at end of input.
    fn next_record(&mut self) -> Result<Option<Vec<String>>> {
        loop {
            if self.pos >= self.buf.len() {
                if !self.fill()? {
                    return Ok(None);
                }
                continue;
            }
            match parse_record(&self.buf, self.pos, self.line) {
                // A record that ran to the end of the buffer is only
                // complete if the input is exhausted — otherwise the tail
                // of the record may still be in the reader.
                Ok((fields, next)) if next < self.buf.len() || self.eof => {
                    self.pos = next;
                    self.line += 1;
                    self.compact();
                    return Ok(Some(fields));
                }
                Ok(_) => {
                    self.fill()?;
                }
                // An unterminated quote is an error only at true EOF.
                Err(e) => {
                    if self.eof {
                        return Err(e);
                    }
                    self.fill()?;
                }
            }
        }
    }

    /// Pulls one chunk from the reader; `false` when nothing is left.
    fn fill(&mut self) -> Result<bool> {
        if self.eof {
            return Ok(false);
        }
        let start = self.buf.len();
        self.buf.resize(start + READ_CHUNK, 0);
        let n = self.reader.read(&mut self.buf[start..])?;
        self.buf.truncate(start + n);
        if n == 0 {
            self.eof = true;
        }
        Ok(n > 0)
    }

    /// Drops consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.pos > READ_CHUNK && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Quotes a field if it contains a delimiter, quote, or newline.
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_roundtrip() {
        let csv = "a,b\n1,x\n2,y\n";
        let t = Table::from_csv_str(csv).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.get(0, 0), Some(Value::Int(1)));
        assert_eq!(t.to_csv_string(), csv);
    }

    #[test]
    fn quoted_fields() {
        let csv = "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n";
        let t = Table::from_csv_str(csv).unwrap();
        assert_eq!(t.get(0, 0), Some(Value::from("hello, world")));
        assert_eq!(t.get(0, 1), Some(Value::from("say \"hi\"")));
        // roundtrip re-escapes
        let again = Table::from_csv_str(&t.to_csv_string()).unwrap();
        assert_eq!(again.get(0, 0), t.get(0, 0));
    }

    #[test]
    fn crlf_and_blank_lines() {
        let csv = "a,b\r\n1,x\r\n\r\n2,y\r\n";
        let t = Table::from_csv_str(csv).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn field_count_mismatch_rejected() {
        let err = Table::from_csv_str("a,b\n1\n").unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 2, .. }));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(Table::from_csv_str(""), Err(TableError::Empty)));
    }

    #[test]
    fn missing_values_become_null() {
        let t = Table::from_csv_str("a,b\n1,\n,x\n").unwrap();
        assert_eq!(t.get(0, 1), Some(Value::Null));
        assert_eq!(t.get(1, 0), Some(Value::Null));
    }

    #[test]
    fn no_trailing_newline() {
        let t = Table::from_csv_str("a,b\n1,x").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get(0, 1), Some(Value::from("x")));
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(Table::from_csv_str("a\n\"oops").is_err());
    }

    #[test]
    fn non_ascii_text_stays_intact() {
        let csv = "city,note\nZürich,\"Genève, \"\"Ω\"\"\"\n東京,😀\n";
        let t = Table::from_csv_str(csv).unwrap();
        assert_eq!(t.get(0, 0), Some(Value::from("Zürich")));
        assert_eq!(t.get(0, 1), Some(Value::from("Genève, \"Ω\"")));
        assert_eq!(t.get(1, 1), Some(Value::from("😀")));
        assert_eq!(t.to_csv_string(), csv);
    }

    #[test]
    fn invalid_utf8_is_a_typed_csv_error() {
        let err = Table::from_csv_bytes(b"a,b\n1,\xff\xfe\n").unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 2, .. }), "{err}");
        let mut r = CsvBatchReader::new(&b"a,b\n1,\xff\n2,x\n"[..], 8).unwrap();
        assert!(matches!(r.next_batch(), Err(TableError::Csv { line: 2, .. })));
    }

    #[test]
    fn batch_reader_keeps_characters_split_across_refills() {
        // A 2-byte header, then 10-byte records of three 3-byte characters:
        // the first refill boundary falls (READ_CHUNK - 2) % 10 = 4 bytes
        // into a record, inside its second character.
        let mut csv = String::from("c\n");
        for _ in 0..20_000 {
            csv.push_str("€€€\n");
        }
        let mut reader = CsvBatchReader::new(csv.as_bytes(), 1000).unwrap();
        let mut rows = 0;
        while let Some(batch) = reader.next_batch().unwrap() {
            for r in 0..batch.num_rows() {
                assert_eq!(batch.get(r, 0), Some(Value::from("€€€")), "row {}", rows + r);
            }
            rows += batch.num_rows();
        }
        assert_eq!(rows, 20_000);
    }

    #[test]
    fn batch_reader_matches_whole_file_load() {
        // Big enough to span several read chunks, with quoted commas,
        // embedded newlines, blank lines, and a missing trailing newline.
        let mut csv = String::from("a,b\n");
        for i in 0..20_000 {
            if i % 97 == 0 {
                csv.push('\n'); // blank line
            }
            csv.push_str(&format!("{i},\"x,{i}\ny\"\n"));
        }
        csv.pop(); // no trailing newline on the last record
        let whole = Table::from_csv_str(&csv).unwrap();

        let mut reader = CsvBatchReader::new(csv.as_bytes(), 333).unwrap();
        assert_eq!(reader.header(), ["a", "b"]);
        let mut streamed = TableBuilder::new(vec!["a".into(), "b".into()]);
        while let Some(batch) = reader.next_batch().unwrap() {
            assert!(batch.num_rows() <= 333);
            for r in 0..batch.num_rows() {
                streamed.push_row(batch.row_owned(r).unwrap().into_values()).unwrap();
            }
        }
        let streamed = streamed.finish().unwrap();
        assert_eq!(streamed, whole, "streamed batches re-assemble the whole-file load exactly");
    }

    #[test]
    fn batch_reader_rejects_bad_input_like_whole_file_load() {
        assert!(matches!(CsvBatchReader::new("".as_bytes(), 8), Err(TableError::Empty)));
        let mut r = CsvBatchReader::new("a,b\n1\n".as_bytes(), 8).unwrap();
        assert!(matches!(r.next_batch(), Err(TableError::Csv { .. })));
        let mut r = CsvBatchReader::new("a\n\"oops".as_bytes(), 8).unwrap();
        assert!(r.next_batch().is_err(), "unterminated quote surfaces at EOF");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("guardrail_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let t = Table::from_csv_str("a,b\n1,x\n").unwrap();
        t.write_csv_path(&path).unwrap();
        let back = Table::from_csv_path(&path).unwrap();
        assert_eq!(back.num_rows(), 1);
        assert_eq!(back.get(0, 1), Some(Value::from("x")));
    }
}
