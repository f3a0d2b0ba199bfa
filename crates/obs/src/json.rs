//! A minimal, dependency-free JSON reader and string escaper.
//!
//! The workspace bans external dependencies (vendored subsets aside), so
//! the trace tooling — JSONL round-trip tests, the `trace_check` CI
//! validator, Chrome-trace inspection — needs its own parser. This is a
//! straightforward recursive-descent reader over the full JSON grammar,
//! sized for trace files rather than adversarial input (recursion depth is
//! bounded to keep hostile nesting from overflowing the stack).

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`].
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object members keep their document order (trace
/// events are order-sensitive in tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (as f64, like every JS consumer sees it).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (first match; `None` on other kinds).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as u64, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included) — the same escaping the vendored criterion's JSON records use,
/// so both emitters stay parseable by [`parse`].
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", byte as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are irrelevant to our emitters;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the run up to the next quote or backslash in one
                // step. Both are ASCII, so the run ends on a char boundary of
                // the (valid UTF-8) input; validating only the run keeps the
                // parse linear in the line length.
                let rest = &bytes[*pos..];
                let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Json::Str("a\nbA".into()));
        assert_eq!(
            parse(r#"[1, "two", [3]]"#).unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("two".into()),
                Json::Arr(vec![Json::Num(3.0)])
            ])
        );
        let obj = parse(r#"{"a": 1, "b": {"c": []}}"#).unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(obj.get("b").and_then(|b| b.get("c")).and_then(Json::as_arr), Some(&[][..]));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}{}").is_err(), "trailing data");
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated é").is_err());
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err(), "depth bound");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode→";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Json::Str(nasty.into()));
    }

    #[test]
    fn parses_criterion_bench_records_with_the_same_parser() {
        // The shared-schema contract: bench JSONL lines are readable by the
        // trace tooling's parser.
        let line =
            r#"{"name":"detect/vector/1M","mean_ns":123456.7,"min_ns":120000.1,"samples":20}"#;
        let record = parse(line).unwrap();
        assert_eq!(record.get("name").and_then(Json::as_str), Some("detect/vector/1M"));
        assert_eq!(record.get("mean_ns").and_then(Json::as_num), Some(123456.7));
    }
}
