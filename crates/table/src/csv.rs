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
