//! Minimal RFC-4180-style CSV reader/writer.
//!
//! Supports quoted fields, embedded commas/newlines/escaped quotes, and type
//! inference via [`Value::parse_token`]. This is the only ingestion path the
//! workspace needs, so we implement it directly rather than pulling in a CSV
//! dependency.
//!
//! There is one reader, [`Table::from_csv_bytes`]. It scans each field as a
//! byte span into the input. A plain field (ASCII, no `"`, no lone `\r`)
//! stays a borrowed span; any other field is decoded by the full quoting
//! state machine into a reused buffer. Each column memoizes the code of
//! every raw token it has seen, so types are inferred — and the dictionary
//! consulted — once per distinct token per column, not once per cell. The
//! tests keep the earlier record-at-a-time reader as the spec the span
//! reader must match byte for byte: same codes, dictionaries, types and
//! errors.

use crate::column::Column;
use crate::dictionary::{Code, Dictionary};
use crate::error::TableError;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// One scanned field: its raw bytes are `data[start..end]`; its text is
/// those bytes when `plain`, else the scanner's buffer.
struct Field {
    start: usize,
    end: usize,
    plain: bool,
    /// The field ended its record (newline or end of input).
    last: bool,
}

/// Splits CSV bytes into fields, record by record.
struct Scanner<'a> {
    data: &'a [u8],
    pos: usize,
    /// 1-based record number, for error messages.
    line: usize,
    /// Decoded text of the last field that was not plain.
    buf: String,
}

impl<'a> Scanner<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, line: 1, buf: String::new() }
    }

    /// Scans the field at the cursor. A plain field ends at `,`, `\n`,
    /// `\r\n` or the end of input; the first byte that is none of those and
    /// may need decoding sends the whole field down the slow path.
    fn field(&mut self) -> Result<Field> {
        let data = self.data;
        let start = self.pos;
        let mut i = start;
        while i < data.len() {
            match data[i] {
                b',' => {
                    self.pos = i + 1;
                    return Ok(Field { start, end: i, plain: true, last: false });
                }
                b'\n' => {
                    self.pos = i + 1;
                    return Ok(Field { start, end: i, plain: true, last: true });
                }
                b'\r' if data.get(i + 1) == Some(&b'\n') => {
                    self.pos = i + 2;
                    return Ok(Field { start, end: i, plain: true, last: true });
                }
                b'"' | b'\r' | 0x80.. => return self.slow_field(start),
                _ => i += 1,
            }
        }
        self.pos = i;
        Ok(Field { start, end: i, plain: true, last: true })
    }

    /// Decodes the field starting at `start` into `buf`: quoted sections,
    /// escaped `""`, dropped unquoted `\r`, and one UTF-8 check per run of
    /// non-ASCII bytes. The raw span ends at the terminating `,` or `\n`.
    #[cold]
    #[inline(never)]
    fn slow_field(&mut self, start: usize) -> Result<Field> {
        let (data, line) = (self.data, self.line);
        self.buf.clear();
        let mut pos = start;
        let mut in_quotes = false;
        while pos < data.len() {
            let c = data[pos];
            if !c.is_ascii() {
                pos = push_non_ascii_run(data, pos, line, &mut self.buf)?;
                continue;
            }
            match (in_quotes, c) {
                (true, b'"') if data.get(pos + 1) == Some(&b'"') => {
                    self.buf.push('"');
                    pos += 2;
                    continue;
                }
                (true, b'"') => in_quotes = false,
                (false, b'"') => {
                    if !self.buf.is_empty() {
                        return Err(TableError::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                (false, b'\r') => {}
                (false, b',' | b'\n') => {
                    self.pos = pos + 1;
                    return Ok(Field { start, end: pos, plain: false, last: c == b'\n' });
                }
                _ => self.buf.push(c as char),
            }
            pos += 1;
        }
        if in_quotes {
            return Err(TableError::Csv { line, message: "unterminated quoted field".into() });
        }
        self.pos = pos;
        Ok(Field { start, end: pos, plain: false, last: true })
    }

    /// Decoded text of `field`, the last one scanned.
    fn text(&self, field: &Field) -> &str {
        if field.plain {
            std::str::from_utf8(&self.data[field.start..field.end]).expect("a plain field is ASCII")
        } else {
            &self.buf
        }
    }
}

/// Appends the run of non-ASCII bytes at `pos` to `field` after one UTF-8
/// check; returns the position past the run. Every delimiter is ASCII, and
/// UTF-8 never uses an ASCII byte inside a multi-byte character, so checking
/// run by run accepts exactly the valid fields.
fn push_non_ascii_run(data: &[u8], pos: usize, line: usize, field: &mut String) -> Result<usize> {
    let run = data[pos..].iter().position(u8::is_ascii).unwrap_or(data.len() - pos);
    let text = std::str::from_utf8(&data[pos..pos + run])
        .map_err(|_| TableError::Csv { line, message: "invalid UTF-8".into() })?;
    field.push_str(text);
    Ok(pos + run)
}

/// One column under construction: its codes, its dictionary, and the code
/// each raw token received the first time it was seen. A raw token decides
/// its text, so its `Value`, and the dictionary only ever appends; the memo
/// therefore returns exactly what `dict.encode(Value::parse_token(text))`
/// would. The map keeps std's per-process random SipHash keys, since request
/// payloads decode through here.
struct ColumnDecoder<'a> {
    tokens: HashMap<&'a [u8], Code>,
    dict: Dictionary,
    codes: Vec<Code>,
}

impl<'a> ColumnDecoder<'a> {
    fn new() -> Self {
        Self { tokens: HashMap::new(), dict: Dictionary::new(), codes: Vec::new() }
    }

    fn push<'t>(&mut self, raw: &'a [u8], text: impl FnOnce() -> &'t str) {
        let code = match self.tokens.get(raw) {
            Some(&code) => code,
            None => {
                let code = self.dict.encode(Value::parse_token(text()));
                self.tokens.insert(raw, code);
                code
            }
        };
        self.codes.push(code);
    }
}

impl Table {
    /// Parses a table from CSV text. The first record is the header.
    pub fn from_csv_str(csv: &str) -> Result<Table> {
        Self::from_csv_bytes(csv.as_bytes())
    }

    /// Parses a table from CSV bytes. The first record is the header; blank
    /// records are skipped, and every other record must have one field per
    /// header name.
    pub fn from_csv_bytes(data: impl AsRef<[u8]>) -> Result<Table> {
        let bytes = data.as_ref();
        if bytes.is_empty() {
            return Err(TableError::Empty);
        }
        let mut scanner = Scanner::new(bytes);
        let mut names = Vec::new();
        loop {
            let field = scanner.field()?;
            names.push(scanner.text(&field).trim().to_string());
            if field.last {
                break;
            }
        }
        if names.iter().all(|n| n.is_empty()) {
            return Err(TableError::Empty);
        }
        let mut columns: Vec<ColumnDecoder<'_>> =
            names.iter().map(|_| ColumnDecoder::new()).collect();
        while scanner.pos < bytes.len() {
            scanner.line += 1;
            let mut count = 0;
            loop {
                let field = scanner.field()?;
                if count == 0 && field.last && scanner.text(&field).is_empty() {
                    break; // blank record
                }
                if let Some(column) = columns.get_mut(count) {
                    let raw = &bytes[field.start..field.end];
                    column.push(raw, || scanner.text(&field));
                }
                count += 1;
                if field.last {
                    break;
                }
            }
            if count != 0 && count != names.len() {
                return Err(TableError::Csv {
                    line: scanner.line,
                    message: format!("expected {} fields, found {count}", names.len()),
                });
            }
        }
        let columns = columns.into_iter().map(|c| Column::from_parts(c.codes, c.dict));
        Table::from_columns(names.into_iter().zip(columns).collect())
    }

    /// Reads a CSV file from disk.
    pub fn from_csv_path(path: impl AsRef<Path>) -> Result<Table> {
        let data = std::fs::read(path)?;
        Self::from_csv_bytes(data)
    }

    /// Serializes the table to CSV text (header + rows). Each cell is
    /// written straight from its column's dictionary; only text holding a
    /// delimiter, quote or line break is quoted.
    pub fn to_csv_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, name) in self.schema().names().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_escaped(&mut out, name);
        }
        out.push('\n');
        let columns = self.columns();
        for row in 0..self.num_rows() {
            for (i, column) in columns.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match column.dictionary().get(column.code(row)) {
                    None => {}
                    Some(Value::Str(s)) => push_escaped(&mut out, s),
                    Some(v) => write!(out, "{v}").expect("writing to a String cannot fail"),
                }
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

/// Appends `field`, quoted (inner quotes doubled) if it contains a
/// delimiter, quote, or line break.
fn push_escaped(out: &mut String, field: &str) {
    if !field.contains([',', '"', '\n', '\r']) {
        out.push_str(field);
        return;
    }
    out.push('"');
    let mut parts = field.split('"');
    out.push_str(parts.next().unwrap_or_default());
    for part in parts {
        out.push_str("\"\"");
        out.push_str(part);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use proptest::prelude::*;

    /// Parses one CSV record starting at `pos`; returns fields and the
    /// position just past the record's trailing newline. The record-at-a-time
    /// spec the span reader is checked against.
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

    /// The spec reader: records through [`parse_record`], every cell typed
    /// by [`Value::parse_token`] and interned row by row.
    fn oracle(bytes: &[u8]) -> Result<Table> {
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

    /// Fails unless the span reader and the spec agree on `bytes`: equal
    /// tables down to each dictionary's first-interned spelling (`Value`
    /// equality calls `1` and `1.0` equal, its `Debug` does not), or equal
    /// error messages.
    fn agree(bytes: &[u8]) -> std::result::Result<(), TestCaseError> {
        match (Table::from_csv_bytes(bytes), oracle(bytes)) {
            (Ok(fast), Ok(spec)) => {
                prop_assert_eq!(&fast, &spec);
                for (f, s) in fast.columns().iter().zip(spec.columns()) {
                    let (f, s) = (f.dictionary().values(), s.dictionary().values());
                    prop_assert_eq!(format!("{f:?}"), format!("{s:?}"));
                }
                prop_assert_eq!(
                    format!("{:?}", fast.schema().fields()),
                    format!("{:?}", spec.schema().fields())
                );
            }
            (Err(fast), Err(spec)) => prop_assert_eq!(fast.to_string(), spec.to_string()),
            (fast, spec) => {
                return Err(TestCaseError::fail(format!(
                    "{:?}: reader {:?}, spec {:?}",
                    String::from_utf8_lossy(bytes),
                    fast.err(),
                    spec.err()
                )))
            }
        }
        Ok(())
    }

    fn assert_agree(bytes: &[u8]) {
        if let Err(e) = agree(bytes) {
            panic!("{:?}: {e}", String::from_utf8_lossy(bytes));
        }
    }

    /// Byte pieces weighted toward what CSV decoding and type inference
    /// branch on: delimiters, quotes, line breaks, padding, number shapes,
    /// NA spellings, booleans, multi-byte text and a stray invalid byte.
    fn arb_piece() -> impl Strategy<Value = &'static [u8]> {
        prop_oneof![
            Just(&b","[..]),
            Just(&b","[..]),
            Just(&b","[..]),
            Just(&b"\""[..]),
            Just(&b"\""[..]),
            Just(&b"\r"[..]),
            Just(&b"\n"[..]),
            Just(&b"\n"[..]),
            Just(&b"\r\n"[..]),
            Just(&b" "[..]),
            Just(&b"0"[..]),
            Just(&b"1"[..]),
            Just(&b"7"[..]),
            Just(&b"-"[..]),
            Just(&b"."[..]),
            Just(&b"e"[..]),
            Just(&b"NA"[..]),
            Just(&b"?"[..]),
            Just(&b"true"[..]),
            Just(&b"x"[..]),
            Just("ü".as_bytes()),
            Just("東".as_bytes()),
            Just(&b"\xff"[..]),
        ]
    }

    /// Pieces a cell may hold unquoted without ending it or failing.
    fn arb_text_piece() -> impl Strategy<Value = &'static [u8]> {
        prop_oneof![
            Just(&b" "[..]),
            Just(&b"0"[..]),
            Just(&b"1"[..]),
            Just(&b"-"[..]),
            Just(&b"."[..]),
            Just(&b"e"[..]),
            Just(&b"NA"[..]),
            Just(&b"?"[..]),
            Just(&b"true"[..]),
            Just("ü".as_bytes()),
            Just("東".as_bytes()),
        ]
    }

    /// A cell for the structured inputs: mostly text pieces, bare or quoted
    /// (quoted cells also carry delimiters, quotes and line breaks, escaped),
    /// and sometimes arbitrary pieces that may break the record.
    fn arb_cell() -> impl Strategy<Value = Vec<u8>> {
        let text =
            proptest::collection::vec(arb_text_piece(), 0..3).prop_map(|p| p.concat()).boxed();
        let quoted = proptest::collection::vec(
            prop_oneof![arb_text_piece(), arb_text_piece(), arb_piece()],
            0..4,
        )
        .prop_map(|parts| {
            let mut q = vec![b'"'];
            for b in parts.concat() {
                q.push(b);
                if b == b'"' {
                    q.push(b'"');
                }
            }
            q.push(b'"');
            q
        })
        .boxed();
        let raw = proptest::collection::vec(arb_piece(), 0..3).prop_map(|p| p.concat());
        prop_oneof![text.clone(), text.clone(), text, quoted.clone(), quoted, raw]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(768))]

        /// Arbitrary byte strings: mostly errors and ragged records, which
        /// must fail with the spec's message and line.
        #[test]
        fn span_reader_matches_spec_on_raw_bytes(
            parts in proptest::collection::vec(arb_piece(), 0..48)
        ) {
            agree(&parts.concat())?;
        }

        /// Three-column records of random cells, mostly well formed, so the
        /// tables themselves (codes, dictionaries, types) are compared.
        #[test]
        fn span_reader_matches_spec_on_records(
            rows in proptest::collection::vec(
                (proptest::collection::vec(arb_cell(), 3..=3), any::<bool>()),
                0..12,
            )
        ) {
            let mut bytes = b"a,b,c\n".to_vec();
            for (cells, crlf) in rows {
                bytes.extend_from_slice(&cells.join(&b","[..]));
                bytes.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            }
            agree(&bytes)?;
        }
    }

    #[test]
    fn span_reader_matches_spec_on_edge_cases() {
        let cases: &[&[u8]] = &[
            b"a,b\n\"\"\n1,2\n",          // a record holding only `""` is blank
            b"a\n\"a\"b\n",               // text after a closing quote is kept
            b"a\nab\"\n",                 // a quote inside an unquoted field
            b"a,b\nx\ry,2\n",             // a mid-field `\r` is dropped
            b"a,b\n1,2\r\r\n3,4\n",       // `\r\r\n` ends the record
            b"a,b\n1,2",                  // no trailing newline
            b"a,b\n",                     // header only
            b"a,b",                       // header only, no newline
            b"a\n 1\n01\n1.0\n-0.0\n0\n", // equal numbers, first spelling kept
            b"a,b\n1,2\n\n3,\xff\n",      // invalid UTF-8 on line 4, after a blank line
            b"a\n\n\xfe\n",               // invalid UTF-8 on line 3
            b"a,b\n1,2,\"oops\n",         // unterminated beats the field count
            b"a,b\n\"\"\r\"x\"\n",        // a quote may reopen after a dropped `\r`
            b"a,a\n1,2\n",                // duplicate header names
            b" , \n1,2\n",                // a blank header
            b"\n",
            b"\"a\nb\",c\n1,2\n", // a line break inside a quoted header name
            "h\n\"Zürich, \"\"ü\"\"\"\n東京\n".as_bytes(),
        ];
        for &bytes in cases {
            assert_agree(bytes);
        }
    }

    #[test]
    fn equal_numbers_share_a_code_and_keep_the_first_spelling() {
        let t = Table::from_csv_str("a\n 1\n01\n1.0\n-0.0\n0\n").unwrap();
        let col = t.column(0).unwrap();
        assert_eq!(col.codes(), &[0, 0, 0, 1, 1]);
        assert_eq!(format!("{:?}", col.dictionary().values()), "[Int(1), Float(-0.0)]");
        assert_eq!(t.to_csv_string(), "a\n1\n1\n1\n-0\n-0\n");
    }

    #[test]
    fn to_csv_string_quotes_only_text_that_needs_it() {
        let t =
            Table::from_csv_str("s,n\n\"a,b\",1.5\n\"say \"\"hi\"\"\",\n\"x\ny\",true\n").unwrap();
        assert_eq!(t.to_csv_string(), "s,n\n\"a,b\",1.5\n\"say \"\"hi\"\"\",\n\"x\ny\",true\n");
        let sub = t.take(&[1]);
        assert_eq!(sub.to_csv_string(), "s,n\n\"say \"\"hi\"\"\",\n");
    }

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
        // A blank line counts as a record.
        let err = Table::from_csv_bytes(b"a\n\n\xfe\n").unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 3, .. }), "{err}");
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
