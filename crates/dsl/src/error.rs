//! DSL errors.

use std::fmt;

/// Errors from parsing or validating DSL programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslError {
    /// Lexical or syntactic error with position information.
    Parse {
        /// Byte offset in the source.
        position: usize,
        /// What went wrong.
        message: String,
    },
    /// A branch assigns an attribute different from its statement's ON
    /// attribute.
    BranchTargetMismatch {
        /// The statement's ON attribute.
        expected: String,
        /// The branch's assignment target.
        actual: String,
    },
    /// A statement has an empty GIVEN clause or no branches.
    MalformedStatement(String),
    /// The dependent attribute also appears in the GIVEN clause.
    SelfDependence(String),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Parse { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            DslError::BranchTargetMismatch { expected, actual } => write!(
                f,
                "branch assigns {actual:?} but the statement's ON clause names {expected:?}"
            ),
            DslError::MalformedStatement(msg) => write!(f, "malformed statement: {msg}"),
            DslError::SelfDependence(a) => {
                write!(f, "attribute {a:?} cannot appear in both GIVEN and ON")
            }
        }
    }
}

impl std::error::Error for DslError {}
