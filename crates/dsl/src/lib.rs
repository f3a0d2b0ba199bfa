//! The Guardrail DSL (§2.2 of the paper).
//!
//! Integrity constraints are programs in a small language whose statements
//! model one step of the data-generating process each:
//!
//! ```text
//! p ∈ Prog      := s*
//! s ∈ Stmt      := GIVEN a+ ON a HAVING b+
//! b ∈ Branch    := IF c THEN a ← l
//! c ∈ Condition := a = l | c AND c
//! ```
//!
//! This crate provides the AST ([`ast`]), a concrete text syntax with parser
//! ([`parser`]) and pretty-printer (the `Display` impls), the denotational
//! interpreter over rows ([`interp`]), and the quantitative semantics the
//! synthesizer optimizes: branch-level 0/1 loss (Eqn. 2), ε-validity
//! (Eqn. 3–4), and coverage (Eqn. 5–6) in [`semantics`].
//!
//! # Example
//!
//! ```
//! use guardrail_dsl::{parse_program, CompiledProgram};
//! use guardrail_table::Table;
//!
//! let program = parse_program(
//!     r#"GIVEN rel ON marital HAVING
//!            IF rel = "Husband" THEN marital <- "Married";
//!            IF rel = "Wife" THEN marital <- "Married";"#,
//! ).unwrap();
//! let data = Table::from_csv_str("rel,marital\nHusband,Married\nWife,Single\n").unwrap();
//! let compiled = CompiledProgram::compile(&program, &data).unwrap();
//! let violations = compiled.check_table(&data);
//! assert_eq!(violations.len(), 1); // the Wife/Single row
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod drift;
pub mod engine;
pub mod error;
pub mod incremental;
pub mod interp;
pub mod parser;
pub mod semantics;

pub use ast::{Branch, Condition, Program, Statement, Unbound};
pub use drift::{DriftConfig, DriftMonitor, StalenessAlert};
pub use engine::{DetectScratch, RawViolation};
pub use error::DslError;
pub use incremental::{IncrementalDetector, IncrementalScan};
pub use interp::{CompiledProgram, Violation};
pub use parser::parse_program;
pub use semantics::{branch_loss, coverage, epsilon_valid, program_coverage, statement_coverage};
