//! SQL tokenizer.

use crate::error::SqlError;
use guardrail_table::Value;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords are matched
    /// case-insensitively at parse time; the original spelling is kept).
    Word(String),
    /// Numeric / string / boolean / NULL literal.
    Literal(Value),
    /// Punctuation: `( ) , * . = != <> < <= > >= + -`
    Punct(&'static str),
}

/// A token with its source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset in the source.
    pub position: usize,
}

/// Tokenizes a query string.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, SqlError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let c = bytes[pos];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                // comment to end of line
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'\'' => {
                let start = pos;
                pos += 1;
                let mut s = String::new();
                loop {
                    // Copy the run up to the next quote whole: a quote is
                    // ASCII, so the cut never splits a multi-byte character.
                    let run = bytes[pos..].iter().position(|&b| b == b'\'').ok_or_else(|| {
                        SqlError::Parse {
                            position: start,
                            message: "unterminated string literal".into(),
                        }
                    })?;
                    s.push_str(&input[pos..pos + run]);
                    pos += run + 1;
                    if bytes.get(pos) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    pos += 1;
                }
                out.push(Spanned { token: Token::Literal(Value::Str(s)), position: start });
            }
            b'0'..=b'9' => {
                let start = pos;
                let mut is_float = false;
                while pos < bytes.len() {
                    match bytes[pos] {
                        b'0'..=b'9' => pos += 1,
                        b'.' if !is_float => {
                            is_float = true;
                            pos += 1;
                        }
                        b'e' | b'E' => {
                            is_float = true;
                            pos += 1;
                            if matches!(bytes.get(pos), Some(b'+') | Some(b'-')) {
                                pos += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let tok = &input[start..pos];
                let value = if is_float {
                    tok.parse::<f64>().map(Value::float).map_err(|_| SqlError::Parse {
                        position: start,
                        message: format!("bad number {tok:?}"),
                    })?
                } else {
                    tok.parse::<i64>().map(Value::Int).map_err(|_| SqlError::Parse {
                        position: start,
                        message: format!("bad number {tok:?}"),
                    })?
                };
                out.push(Spanned { token: Token::Literal(value), position: start });
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' | b'"' => {
                let start = pos;
                let word = if c == b'"' {
                    // quoted identifier
                    pos += 1;
                    let s = pos;
                    while pos < bytes.len() && bytes[pos] != b'"' {
                        pos += 1;
                    }
                    if pos >= bytes.len() {
                        return Err(SqlError::Parse {
                            position: start,
                            message: "unterminated quoted identifier".into(),
                        });
                    }
                    let w = input[s..pos].to_string();
                    pos += 1;
                    w
                } else {
                    while pos < bytes.len()
                        && (bytes[pos].is_ascii_alphanumeric()
                            || bytes[pos] == b'_'
                            || bytes[pos] == b'-')
                    {
                        // Hyphenated column names (marital-status) are words
                        // unless the hyphen is followed by a digit-only tail
                        // starting an arithmetic context; the paper's schemas
                        // use hyphens, arithmetic uses spaces.
                        pos += 1;
                    }
                    input[start..pos].to_string()
                };
                match word.to_ascii_uppercase().as_str() {
                    "TRUE" => out.push(Spanned {
                        token: Token::Literal(Value::Bool(true)),
                        position: start,
                    }),
                    "FALSE" => out.push(Spanned {
                        token: Token::Literal(Value::Bool(false)),
                        position: start,
                    }),
                    "NULL" => {
                        out.push(Spanned { token: Token::Literal(Value::Null), position: start })
                    }
                    _ => out.push(Spanned { token: Token::Word(word), position: start }),
                }
            }
            _ => {
                let two = input.get(pos..pos + 2);
                let punct: &'static str = match (c, two) {
                    (_, Some("!=")) => "!=",
                    (_, Some("<>")) => "<>",
                    (_, Some("<=")) => "<=",
                    (_, Some(">=")) => ">=",
                    (_, Some("==")) => "==",
                    (b'(', _) => "(",
                    (b')', _) => ")",
                    (b',', _) => ",",
                    (b'*', _) => "*",
                    (b'.', _) => ".",
                    (b'=', _) => "=",
                    (b'<', _) => "<",
                    (b'>', _) => ">",
                    (b'+', _) => "+",
                    (b'-', _) => "-",
                    (b'/', _) => "/",
                    _ => {
                        return Err(SqlError::Parse {
                            position: pos,
                            message: format!(
                                "unexpected character {:?}",
                                input[pos..].chars().next().unwrap_or('?')
                            ),
                        })
                    }
                };
                pos += punct.len();
                out.push(Spanned { token: Token::Punct(punct), position: pos - punct.len() });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(sql: &str) -> Vec<Token> {
        tokenize(sql).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn words_literals_puncts() {
        let t = toks("SELECT a, AVG(b) FROM t WHERE c = 'x y' AND d >= 4.5");
        assert!(t.contains(&Token::Word("SELECT".into())));
        assert!(t.contains(&Token::Punct("(")));
        assert!(t.contains(&Token::Literal(Value::from("x y"))));
        assert!(t.contains(&Token::Punct(">=")));
        assert!(t.contains(&Token::Literal(Value::Float(4.5))));
    }

    #[test]
    fn escaped_quotes_and_keywords() {
        let t = toks("'it''s' TRUE null");
        assert_eq!(t[0], Token::Literal(Value::from("it's")));
        assert_eq!(t[1], Token::Literal(Value::Bool(true)));
        assert_eq!(t[2], Token::Literal(Value::Null));
    }

    #[test]
    fn hyphenated_identifiers() {
        let t = toks("marital-status");
        assert_eq!(t, vec![Token::Word("marital-status".into())]);
    }

    #[test]
    fn comments_skipped() {
        let t = toks("SELECT 1 -- trailing\n, 2");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn double_equals_and_neq() {
        assert_eq!(toks("a == b")[1], Token::Punct("=="));
        assert_eq!(toks("a <> b")[1], Token::Punct("<>"));
    }

    #[test]
    fn errors_reported_with_position() {
        assert!(matches!(tokenize("SELECT 'oops"), Err(SqlError::Parse { .. })));
        assert!(matches!(tokenize("a ; b"), Err(SqlError::Parse { position: 2, .. })));
    }

    #[test]
    fn non_ascii_literals_stay_intact() {
        let t = toks("city = 'Zürich' OR city = 'l''Aquila-Ω'");
        assert_eq!(t[2], Token::Literal(Value::from("Zürich")));
        assert_eq!(t[6], Token::Literal(Value::from("l'Aquila-Ω")));
        let err = tokenize("a = ä").unwrap_err();
        assert!(err.to_string().contains("'ä'"), "{err}");
    }

    #[test]
    fn quoted_identifier() {
        assert_eq!(toks("\"weird col\""), vec![Token::Word("weird col".into())]);
    }
}
