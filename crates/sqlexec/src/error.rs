//! SQL errors.

use std::fmt;

/// Errors from parsing or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical/syntactic problem.
    Parse {
        /// Byte offset in the source.
        position: usize,
        /// What went wrong.
        message: String,
    },
    /// Unknown table in FROM.
    UnknownTable(String),
    /// Unknown model in PREDICT.
    UnknownModel(String),
    /// Unknown column reference.
    UnknownColumn(String),
    /// An expression was used in an invalid position (e.g. aggregate inside
    /// WHERE, bare column outside GROUP BY).
    Semantic(String),
    /// The guardrail raised on a violating row under `ErrorScheme::Raise`.
    GuardrailRaise {
        /// The violating row's index in the base table.
        row: usize,
        /// Human-readable description of the first violation.
        detail: String,
    },
    /// A guardrail intercepts the query, but no statement of its program
    /// binds to the FROM table (each names a column the table lacks), so
    /// nothing could be vetted.
    GuardrailUnbound {
        /// The FROM table.
        table: String,
        /// Program attributes absent from the table, in first-use order.
        missing: Vec<String>,
    },
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse { position, message } => {
                write!(f, "SQL parse error at byte {position}: {message}")
            }
            SqlError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            SqlError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            SqlError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            SqlError::Semantic(m) => write!(f, "semantic error: {m}"),
            SqlError::GuardrailRaise { row, detail } => {
                write!(f, "guardrail raised on row {row}: {detail}")
            }
            SqlError::GuardrailUnbound { table, missing } => {
                write!(f, "guardrail program does not bind to table {table:?}: missing {missing:?}")
            }
        }
    }
}

impl std::error::Error for SqlError {}
