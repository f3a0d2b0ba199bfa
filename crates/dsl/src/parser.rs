//! Recursive-descent parser for the DSL's concrete syntax.
//!
//! ```text
//! program    := statement*
//! statement  := GIVEN ident ("," ident)* ON ident HAVING branch+
//! branch     := IF condition THEN ident "<-" literal ";"
//! condition  := equality (AND equality)*
//! equality   := ident "=" literal
//! ident      := [A-Za-z][A-Za-z0-9_-]* | "`" any* "`"
//! literal    := string | number | true | false | NULL
//! ```
//!
//! Keywords are case-insensitive; `←` is accepted as a synonym for `<-`.

use crate::ast::{is_keyword, Branch, Condition, Program, Statement};
use crate::error::DslError;
use guardrail_table::Value;

/// Parses a full program and validates its structure.
pub fn parse_program(input: &str) -> Result<Program, DslError> {
    let mut parser = Parser { input: input.as_bytes(), pos: 0, text: input };
    let mut statements = Vec::new();
    parser.skip_ws();
    while !parser.at_end() {
        statements.push(parser.statement()?);
        parser.skip_ws();
    }
    let program = Program { statements };
    program.validate()?;
    Ok(program)
}

struct Parser<'a> {
    input: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> DslError {
        DslError::Parse { position: self.pos, message: message.into() }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    /// Appends the source text up to (not including) the next byte that
    /// satisfies `stop`, or to the end. `stop` only ever matches ASCII, so
    /// the cut never splits a multi-byte character.
    fn copy_run_until(&mut self, out: &mut String, stop: impl Fn(u8) -> bool) {
        let run = self.input[self.pos..].iter().position(|&c| stop(c));
        let end = run.map_or(self.input.len(), |n| self.pos + n);
        out.push_str(&self.text[self.pos..end]);
        self.pos = end;
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'#' => {
                    // comment to end of line
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    /// Reads a bare word (letters, digits, `_`, `-`).
    fn word(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() => {}
            _ => return None,
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        Some(&self.text[start..self.pos])
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DslError> {
        let save = self.pos;
        match self.word() {
            Some(w) if w.eq_ignore_ascii_case(kw) => Ok(()),
            Some(w) => {
                self.pos = save;
                Err(self.err(format!("expected keyword {kw}, found {w:?}")))
            }
            None => {
                self.pos = save;
                Err(self.err(format!("expected keyword {kw}")))
            }
        }
    }

    fn peek_keyword(&mut self, kw: &str) -> bool {
        let save = self.pos;
        let found = matches!(self.word(), Some(w) if w.eq_ignore_ascii_case(kw));
        self.pos = save;
        found
    }

    fn ident(&mut self) -> Result<String, DslError> {
        self.skip_ws();
        if self.peek() == Some(b'`') {
            // Backquoted identifier; `` escapes a literal backquote.
            self.pos += 1;
            let mut out = String::new();
            loop {
                self.copy_run_until(&mut out, |c| c == b'`');
                if self.at_end() {
                    return Err(self.err("unterminated backquoted identifier"));
                }
                self.pos += 1;
                if self.peek() != Some(b'`') {
                    return Ok(out);
                }
                out.push('`');
                self.pos += 1;
            }
        }
        match self.word() {
            Some(w) if !is_keyword(w) => Ok(w.to_string()),
            Some(w) => Err(self.err(format!("keyword {w:?} cannot be an identifier"))),
            None => Err(self.err("expected identifier")),
        }
    }

    fn literal(&mut self) -> Result<Value, DslError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                let mut out = String::new();
                loop {
                    self.copy_run_until(&mut out, |c| c == b'"' || c == b'\\');
                    match self.peek() {
                        None => return Err(self.err("unterminated string literal")),
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.peek() {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'n') => out.push('\n'),
                                Some(b't') => out.push('\t'),
                                other => return Err(self.err(format!("bad escape: {other:?}"))),
                            }
                            self.pos += 1;
                        }
                        Some(_) => {
                            self.pos += 1; // the closing quote
                            return Ok(Value::Str(out));
                        }
                    }
                }
            }
            Some(c) if c == b'-' || c == b'+' || c.is_ascii_digit() => {
                let start = self.pos;
                self.pos += 1;
                let mut is_float = false;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        self.pos += 1;
                    } else if c == b'.' || c == b'e' || c == b'E' || c == b'-' || c == b'+' {
                        // exponent sign only valid right after e/E, but we let
                        // the f64 parser decide.
                        let prev = self.input[self.pos - 1];
                        if (c == b'-' || c == b'+') && !(prev == b'e' || prev == b'E') {
                            break;
                        }
                        is_float = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let tok = &self.text[start..self.pos];
                if !is_float {
                    if let Ok(i) = tok.parse::<i64>() {
                        return Ok(Value::Int(i));
                    }
                }
                tok.parse::<f64>()
                    .map(Value::float)
                    .map_err(|_| self.err(format!("bad numeric literal {tok:?}")))
            }
            _ => {
                let save = self.pos;
                match self.word() {
                    Some(w) if w.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
                    Some(w) if w.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
                    Some(w) if w.eq_ignore_ascii_case("null") => Ok(Value::Null),
                    _ => {
                        self.pos = save;
                        Err(self.err("expected literal"))
                    }
                }
            }
        }
    }

    fn punct(&mut self, tok: &str) -> Result<(), DslError> {
        self.skip_ws();
        if self.text[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {tok:?}")))
        }
    }

    fn try_punct(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn statement(&mut self) -> Result<Statement, DslError> {
        self.keyword("GIVEN")?;
        let mut given = vec![self.ident()?];
        while self.try_punct(",") {
            given.push(self.ident()?);
        }
        self.keyword("ON")?;
        let on = self.ident()?;
        self.keyword("HAVING")?;
        let mut branches = Vec::new();
        while self.peek_keyword("IF") {
            branches.push(self.branch()?);
        }
        if branches.is_empty() {
            return Err(self.err("HAVING clause needs at least one IF branch"));
        }
        Ok(Statement { given, on, branches })
    }

    fn branch(&mut self) -> Result<Branch, DslError> {
        self.keyword("IF")?;
        let mut conjuncts = vec![self.equality()?];
        while self.peek_keyword("AND") {
            self.keyword("AND")?;
            conjuncts.push(self.equality()?);
        }
        self.keyword("THEN")?;
        let target = self.ident()?;
        self.skip_ws();
        if !self.try_punct("<-") && !self.try_punct("\u{2190}") {
            return Err(self.err("expected `<-` after assignment target"));
        }
        let literal = self.literal()?;
        self.punct(";")?;
        Ok(Branch { condition: Condition::new(conjuncts), target, literal })
    }

    fn equality(&mut self) -> Result<(String, Value), DslError> {
        let attr = self.ident()?;
        self.punct("=")?;
        let lit = self.literal()?;
        Ok((attr, lit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // The constraint from the paper's case study (Eqn. 9).
        let src = r#"
            GIVEN rel ON marital-status HAVING
                IF rel = "Husband" THEN marital-status <- "Married-civ-spouse";
                IF rel = "Wife" THEN marital-status <- "Married-civ-spouse";
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.statements.len(), 1);
        let s = &p.statements[0];
        assert_eq!(s.given, vec!["rel"]);
        assert_eq!(s.on, "marital-status");
        assert_eq!(s.branches.len(), 2);
        assert_eq!(s.branches[0].literal, Value::from("Married-civ-spouse"));
    }

    #[test]
    fn parses_multi_statement_multi_conjunct() {
        let src = r#"
            GIVEN zip ON city HAVING
                IF zip = 94704 THEN city <- "Berkeley";
            GIVEN city, state ON country HAVING
                IF city = "Berkeley" AND state = "CA" THEN country <- "USA";
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.statements.len(), 2);
        assert_eq!(p.statements[1].given, vec!["city", "state"]);
        assert_eq!(p.statements[1].branches[0].condition.conjuncts().len(), 2);
    }

    #[test]
    fn roundtrip_print_parse() {
        let src = r#"
            GIVEN a ON b HAVING
                IF a = 1 THEN b <- 2.5;
                IF a = 2 THEN b <- true;
                IF a = 3 THEN b <- NULL;
            GIVEN b ON c HAVING
                IF b = "x y" THEN c <- "quote\"inside";
        "#;
        let p = parse_program(src).unwrap();
        let printed = p.to_string();
        let again = parse_program(&printed).unwrap();
        assert_eq!(p, again, "print→parse must round-trip\n{printed}");
    }

    #[test]
    fn unicode_arrow_accepted() {
        let p = parse_program("GIVEN a ON b HAVING IF a = 1 THEN b \u{2190} 2;").unwrap();
        assert_eq!(p.statements[0].branches[0].literal, Value::Int(2));
    }

    #[test]
    fn comments_and_case_insensitive_keywords() {
        let src = "# leading comment\ngiven a on b having # trailing\nif a = 1 then b <- 2;";
        let p = parse_program(src).unwrap();
        assert_eq!(p.statements.len(), 1);
    }

    #[test]
    fn backquoted_identifiers() {
        let p =
            parse_program("GIVEN `odd name` ON `x``y` HAVING IF `odd name` = 1 THEN `x``y` <- 2;")
                .unwrap();
        assert_eq!(p.statements[0].given, vec!["odd name"]);
        assert_eq!(p.statements[0].on, "x`y");
    }

    #[test]
    fn non_ascii_text_stays_intact() {
        let src =
            r#"GIVEN `Straße` ON city HAVING IF `Straße` = "Zürich \"Ω\"" THEN city <- "München";"#;
        let p = parse_program(src).unwrap();
        let branch = &p.statements[0].branches[0];
        assert_eq!(p.statements[0].given, vec!["Straße"]);
        assert_eq!(branch.condition.conjuncts()[0].1, Value::from("Zürich \"Ω\""));
        assert_eq!(branch.literal, Value::from("München"));
        assert_eq!(parse_program(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn negative_and_float_literals() {
        let p = parse_program("GIVEN a ON b HAVING IF a = -5 THEN b <- 1e3;").unwrap();
        assert_eq!(p.statements[0].branches[0].condition.conjuncts()[0].1, Value::Int(-5));
        assert_eq!(p.statements[0].branches[0].literal, Value::Float(1000.0));
    }

    #[test]
    fn error_positions_reported() {
        let err = parse_program("GIVEN a ON b HAVING IF a = 1 THEN b 2;").unwrap_err();
        assert!(matches!(err, DslError::Parse { .. }), "{err}");
        let err = parse_program("GIVEN a HAVING b;").unwrap_err();
        assert!(matches!(err, DslError::Parse { .. }));
        let err = parse_program("GIVEN a ON b HAVING").unwrap_err();
        assert!(matches!(err, DslError::Parse { .. }));
    }

    #[test]
    fn validation_runs_after_parse() {
        // Branch target differs from ON attribute.
        let err = parse_program("GIVEN a ON b HAVING IF a = 1 THEN c <- 2;").unwrap_err();
        assert!(matches!(err, DslError::BranchTargetMismatch { .. }));
    }

    #[test]
    fn empty_program_parses() {
        assert_eq!(parse_program("").unwrap(), Program::empty());
        assert_eq!(parse_program("  # just a comment\n").unwrap(), Program::empty());
    }
}
