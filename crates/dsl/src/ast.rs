//! Abstract syntax of the Guardrail DSL.

use crate::error::DslError;
use guardrail_table::{Row, Schema, Value};
use std::fmt;

/// An equality conjunction: `a₁ = l₁ AND … AND aₖ = lₖ`.
///
/// The grammar's `Condition` production. Conjuncts are kept in insertion
/// order for printing; evaluation is order-insensitive.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    conjuncts: Vec<(String, Value)>,
}

impl Condition {
    /// Builds a condition from `(attribute, literal)` pairs.
    ///
    /// # Panics
    /// Panics if `conjuncts` is empty — the grammar has no empty condition.
    pub fn new(conjuncts: Vec<(String, Value)>) -> Self {
        assert!(!conjuncts.is_empty(), "a condition needs at least one conjunct");
        Self { conjuncts }
    }

    /// The conjuncts in order.
    pub fn conjuncts(&self) -> &[(String, Value)] {
        &self.conjuncts
    }

    /// `true` when every conjunct holds on `row` under value equality — the
    /// one condition matcher of the value-level semantics. An attribute the
    /// row lacks never matches.
    pub fn holds(&self, row: &Row) -> bool {
        self.conjuncts.iter().all(|(attr, lit)| row.get_by_name(attr) == Some(lit))
    }

    /// Attributes mentioned by the condition.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.conjuncts.iter().map(|(a, _)| a.as_str())
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (a, l)) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "{} = {}", ident(a), literal(l))?;
        }
        Ok(())
    }
}

/// `IF c THEN a ← l`: a conditional assignment of literal `l` to attribute
/// `a`.
#[derive(Debug, Clone, PartialEq)]
pub struct Branch {
    /// Guard condition.
    pub condition: Condition,
    /// Assigned (dependent) attribute; must equal the enclosing statement's
    /// ON attribute (checked by [`Statement::validate`]).
    pub target: String,
    /// Assigned literal.
    pub literal: Value,
}

impl fmt::Display for Branch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IF {} THEN {} <- {}",
            self.condition,
            ident(&self.target),
            literal(&self.literal)
        )
    }
}

/// `GIVEN a⁺ ON a HAVING b⁺`: the DGP of one dependent attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Determinant attributes.
    pub given: Vec<String>,
    /// Dependent attribute.
    pub on: String,
    /// Conditional assignments.
    pub branches: Vec<Branch>,
}

impl Statement {
    /// Structural validation: non-empty GIVEN, at least one branch, branch
    /// targets match ON, no self-dependence, and branch conditions only
    /// mention GIVEN attributes.
    pub fn validate(&self) -> Result<(), DslError> {
        if self.given.is_empty() {
            return Err(DslError::MalformedStatement("empty GIVEN clause".into()));
        }
        if self.branches.is_empty() {
            return Err(DslError::MalformedStatement("no branches in HAVING clause".into()));
        }
        if self.given.iter().any(|g| g == &self.on) {
            return Err(DslError::SelfDependence(self.on.clone()));
        }
        for b in &self.branches {
            if b.target != self.on {
                return Err(DslError::BranchTargetMismatch {
                    expected: self.on.clone(),
                    actual: b.target.clone(),
                });
            }
            for attr in b.condition.attributes() {
                if !self.given.iter().any(|g| g == attr) {
                    return Err(DslError::MalformedStatement(format!(
                        "condition attribute {attr:?} is not in the GIVEN clause"
                    )));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GIVEN ")?;
        for (i, g) in self.given.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(&ident(g))?;
        }
        writeln!(f, " ON {} HAVING", ident(&self.on))?;
        for b in &self.branches {
            writeln!(f, "    {b};")?;
        }
        Ok(())
    }
}

/// A whole program: a sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// The statements, applied in order.
    pub statements: Vec<Statement>,
}

impl Program {
    /// The empty program (always 0-loss, detects nothing — `p₁` in
    /// Example 3.1).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Validates every statement.
    pub fn validate(&self) -> Result<(), DslError> {
        self.statements.iter().try_for_each(Statement::validate)
    }

    /// Total number of branches across statements.
    pub fn num_branches(&self) -> usize {
        self.statements.iter().map(|s| s.branches.len()).sum()
    }

    /// Whether the program has no statements (detects nothing). Serving
    /// registries treat an empty re-synthesis as a failed fit when a
    /// non-empty predecessor exists.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// The statements that do not bind to `schema`, in program order: a
    /// statement binds when every GIVEN and ON attribute is a column. The
    /// one bind decision every entry point uses — bound statements run,
    /// the rest are reported, never read as clean.
    pub fn unbound(&self, schema: &Schema) -> Vec<Unbound> {
        let mut out = Vec::new();
        for (statement, s) in self.statements.iter().enumerate() {
            let mut missing: Vec<String> = Vec::new();
            for a in s.given.iter().chain([&s.on]) {
                if schema.index_of(a).is_none() && !missing.contains(a) {
                    missing.push(a.clone());
                }
            }
            if !missing.is_empty() {
                out.push(Unbound { statement, missing });
            }
        }
        out
    }
}

/// A statement that does not bind to a schema ([`Program::unbound`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unbound {
    /// Index of the statement in the program.
    pub statement: usize,
    /// Its GIVEN and ON attributes the schema lacks, GIVEN first, each once.
    pub missing: Vec<String>,
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.statements {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Quotes an identifier when it is not a plain word.
fn ident(name: &str) -> String {
    let plain = !name.is_empty()
        && name.chars().next().unwrap().is_ascii_alphabetic()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && !is_keyword(name);
    if plain {
        name.to_string()
    } else {
        format!("`{}`", name.replace('`', "``"))
    }
}

/// Renders a literal in parseable form.
fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            // Guarantee a float-shaped token so parsing preserves the type.
            let s = f.to_string();
            if s.contains('.') || s.contains('e') || s.contains("inf") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
    }
}

pub(crate) fn is_keyword(word: &str) -> bool {
    matches!(
        word.to_ascii_uppercase().as_str(),
        "GIVEN" | "ON" | "HAVING" | "IF" | "THEN" | "AND" | "NULL" | "TRUE" | "FALSE"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch(cond: Vec<(&str, Value)>, target: &str, lit: Value) -> Branch {
        Branch {
            condition: Condition::new(cond.into_iter().map(|(a, v)| (a.to_string(), v)).collect()),
            target: target.to_string(),
            literal: lit,
        }
    }

    #[test]
    fn statement_validation_passes() {
        let s = Statement {
            given: vec!["zip".into()],
            on: "city".into(),
            branches: vec![branch(
                vec![("zip", Value::Int(94704))],
                "city",
                Value::from("Berkeley"),
            )],
        };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_catches_structure_errors() {
        let good = branch(vec![("zip", Value::Int(1))], "city", Value::from("x"));
        let empty_given =
            Statement { given: vec![], on: "city".into(), branches: vec![good.clone()] };
        assert!(matches!(empty_given.validate(), Err(DslError::MalformedStatement(_))));

        let no_branches =
            Statement { given: vec!["zip".into()], on: "city".into(), branches: vec![] };
        assert!(matches!(no_branches.validate(), Err(DslError::MalformedStatement(_))));

        let self_dep = Statement {
            given: vec!["city".into()],
            on: "city".into(),
            branches: vec![branch(vec![("city", Value::Int(1))], "city", Value::Int(1))],
        };
        assert!(matches!(self_dep.validate(), Err(DslError::SelfDependence(_))));

        let wrong_target = Statement {
            given: vec!["zip".into()],
            on: "city".into(),
            branches: vec![branch(vec![("zip", Value::Int(1))], "state", Value::from("CA"))],
        };
        assert!(matches!(wrong_target.validate(), Err(DslError::BranchTargetMismatch { .. })));

        let foreign_attr = Statement {
            given: vec!["zip".into()],
            on: "city".into(),
            branches: vec![branch(vec![("state", Value::from("CA"))], "city", Value::from("x"))],
        };
        assert!(matches!(foreign_attr.validate(), Err(DslError::MalformedStatement(_))));
    }

    #[test]
    fn display_is_stable() {
        let s = Statement {
            given: vec!["rel".into()],
            on: "marital".into(),
            branches: vec![branch(
                vec![("rel", Value::from("Husband"))],
                "marital",
                Value::from("Married"),
            )],
        };
        let text = s.to_string();
        assert!(text.starts_with("GIVEN rel ON marital HAVING"));
        assert!(text.contains("IF rel = \"Husband\" THEN marital <- \"Married\";"));
    }

    #[test]
    fn odd_identifiers_are_quoted() {
        assert_eq!(ident("marital-status"), "marital-status");
        assert_eq!(ident("has space"), "`has space`");
        assert_eq!(ident("1starts_digit"), "`1starts_digit`");
        assert_eq!(ident("GIVEN"), "`GIVEN`");
    }

    #[test]
    fn literal_rendering() {
        assert_eq!(literal(&Value::Int(3)), "3");
        assert_eq!(literal(&Value::Float(3.0)), "3.0");
        assert_eq!(literal(&Value::Bool(true)), "true");
        assert_eq!(literal(&Value::Null), "NULL");
        assert_eq!(literal(&Value::from("a\"b")), "\"a\\\"b\"");
    }

    #[test]
    fn empty_program_properties() {
        let p = Program::empty();
        assert!(p.validate().is_ok());
        assert_eq!(p.num_branches(), 0);
        assert_eq!(p.to_string(), "");
    }

    #[test]
    #[should_panic(expected = "at least one conjunct")]
    fn empty_condition_rejected() {
        Condition::new(vec![]);
    }
}
