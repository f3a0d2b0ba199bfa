//! Sketch-based program synthesis (§3–§4 of the paper).
//!
//! The synthesis problem — find an ε-valid, maximal-coverage program of the
//! DSL from noisy data — is split into two stages exactly as in the paper:
//!
//! 1. **Sketch learning** (`guardrail-pgm`): learn the CPDAG of the data's
//!    Markov equivalence class; each DAG in the class induces a program
//!    sketch `{ GIVEN Pa(a) ON a HAVING □ }` ([`sketch`]).
//! 2. **Synthesis from sketch** ([`fill`], Alg. 1): for each statement
//!    sketch, enumerate the warranted conditions (observed determinant
//!    valuations), pick the loss-minimizing literal per condition, and keep
//!    the ε-valid branches.
//!
//! [`mec`] implements Alg. 2: enumerate the DAGs of the MEC, synthesize a
//! concrete program per DAG (deduplicated through the statement-level
//! [`cache`] of §7), and return the program with the highest coverage.
//!
//! [`optsmt`] is the scalability baseline of §8.3: a sketch-free enumerative
//! synthesizer with explicit constraint accounting that demonstrates the
//! search-space blow-up the MEC restriction avoids.
//!
//! [`nontrivial`] provides the statistical LNT/GNT checks of Defs. 4.1–4.2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod fill;
pub mod mec;
pub mod nontrivial;
pub mod optsmt;
pub mod sketch;

pub use cache::{CacheStats, StatementCache};
pub use config::SynthesisConfig;
pub use fill::{
    fill_program_sketch, fill_statement_sketch, fill_statement_sketch_governed, FilledStatement,
    FILL_STAGE,
};
pub use mec::{
    synthesize, synthesize_from_cpdag, synthesize_from_cpdag_governed, synthesize_governed,
    SynthesisOutcome,
};
pub use optsmt::{
    optsmt_synthesize, OptSmtConfig, OptSmtOutcome, DEFAULT_CONSTRAINT_CAP, OPTSMT_STAGE,
};
pub use sketch::{ProgramSketch, StatementSketch};
