//! Guardrail: the end-to-end integrity-constraint API.
//!
//! This crate ties the pipeline together behind the interface a user of the
//! paper's system sees:
//!
//! ```text
//! Guardrail::fit(&clean_split, &config)      // offline synthesis (§3–4)
//!     .detect(&incoming)                     // Eqn. 1 error detection
//!     / .apply(&incoming, ErrorScheme::...)  // raise | ignore | coerce | rectify (§7)
//!     / .vet_rows_narrow(&t, &rows, scheme)  // batched query-time guardrail (Fig. 1)
//! ```
//!
//! Every entry point takes a `&Table`; a persistent store or an on-disk
//! segment passes its `table()`. `apply`, `vet_rows` and `vet_rows_narrow`
//! share one compile → scan → scheme body, so each scans its rows once.
//! Each runs the program's statements that bind to the table
//! ([`Program::unbound`] is the one bind decision) and lists the rest in its
//! report's `unbound`, so a missing column never reads as clean. The
//! value-level `Program::check_row` / `execute_row` are the test oracle
//! only.
//!
//! # Example
//!
//! ```
//! use guardrail_core::{ErrorScheme, Guardrail, GuardrailConfig};
//! use guardrail_table::{Table, Value};
//!
//! // Clean training data: city is determined by zip.
//! let csv = "zip,city\n".to_string()
//!     + &"94704,Berkeley\n97201,Portland\n".repeat(200);
//! let clean = Table::from_csv_str(&csv).unwrap();
//! let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
//!
//! // A corrupted row arrives at query time.
//! let dirty = Table::from_csv_str("zip,city\n94704,gibbon\n").unwrap();
//! let report = guard.detect(&dirty);
//! assert_eq!(report.dirty_rows(), vec![0]);
//!
//! let (fixed, _) = guard.apply(&dirty, ErrorScheme::Rectify);
//! assert_eq!(fixed.get(0, 1), Some(Value::from("Berkeley")));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod guardrail;
pub mod numeric;
pub mod report;
pub mod scheme;

pub use error::GuardrailError;
pub use guardrail::{BatchVet, Guardrail, GuardrailBuilder, GuardrailConfig, RectifyConflict};
pub use numeric::{NumericGuard, NumericGuardConfig, NumericViolation};
pub use report::{ApplyReport, DetectionReport};
pub use scheme::ErrorScheme;

pub use guardrail_dsl::{DslError, Program, Unbound, Violation};
pub use guardrail_governor::{
    Budget, CancellationToken, Degradation, DegradationReport, ExhaustionReason, Parallelism,
    StageStatus,
};
pub use guardrail_obs::{PipelineReport, StageReport};
pub use guardrail_synth::SynthesisOutcome;
pub use guardrail_table::TableError;

/// One-line import for the common workflow:
/// `use guardrail_core::prelude::*;` brings in the fit entry points
/// ([`Guardrail`], [`GuardrailBuilder`], [`GuardrailConfig`]), the governor
/// knobs ([`Budget`], [`Parallelism`], [`DegradationReport`]), the error
/// schemes, and the table types.
pub mod prelude {
    pub use crate::{
        Budget, DegradationReport, ErrorScheme, Guardrail, GuardrailBuilder, GuardrailConfig,
        GuardrailError, Parallelism,
    };
    pub use guardrail_table::{Row, Table, TableBuilder, Value};
}
