//! # Guardrail
//!
//! A from-scratch Rust reproduction of *"Guardrail: Automated Integrity
//! Constraint Synthesis From Noisy Data"* (SIGMOD 2025): integrity
//! constraints are synthesized as programs of a small DSL by learning the
//! statistical structure of the data (PC algorithm → Markov equivalence
//! class → program sketches → sketch filling), then used to detect and
//! rectify row-level errors — including as a runtime guardrail in front of
//! ML-integrated SQL queries.
//!
//! This crate is a facade: it re-exports every subsystem crate of the
//! workspace under one roof. See `README.md` for the architecture tour and
//! `DESIGN.md` for the paper-to-module map.
//!
//! ```
//! use guardrail::prelude::*;
//!
//! // City is determined by zip in the clean training data.
//! let csv = "zip,city\n".to_string() + &"94704,Berkeley\n97201,Portland\n".repeat(150);
//! let clean = Table::from_csv_str(&csv).unwrap();
//!
//! // Offline: synthesize integrity constraints.
//! let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
//!
//! // Online: a corrupted row arrives.
//! let dirty = Table::from_csv_str("zip,city\n94704,gibbon\n").unwrap();
//! assert_eq!(guard.detect(&dirty).dirty_rows(), vec![0]);
//! let (fixed, _) = guard.apply(&dirty, ErrorScheme::Rectify);
//! assert_eq!(fixed.get(0, 1), Some(Value::from("Berkeley")));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use guardrail_baselines as baselines;
pub use guardrail_core as core;
pub use guardrail_datasets as datasets;
pub use guardrail_dsl as dsl;
pub use guardrail_governor as governor;
pub use guardrail_graph as graph;
pub use guardrail_ml as ml;
pub use guardrail_obs as obs;
pub use guardrail_pgm as pgm;
pub use guardrail_server as server;
pub use guardrail_sqlexec as sqlexec;
pub use guardrail_stats as stats;
pub use guardrail_synth as synth;
pub use guardrail_table as table;

/// The most common imports in one place.
pub mod prelude {
    pub use guardrail_core::{
        ApplyReport, DetectionReport, ErrorScheme, Guardrail, GuardrailBuilder, GuardrailConfig,
        GuardrailError,
    };
    pub use guardrail_dsl::{parse_program, CompiledProgram, Program, Violation};
    pub use guardrail_governor::{Budget, DegradationReport, Parallelism, StageStatus};
    pub use guardrail_ml::{Classifier, DecisionTree, Ensemble, NaiveBayes};
    pub use guardrail_obs::{PipelineReport, StageReport};
    pub use guardrail_sqlexec::{Catalog, Executor};
    pub use guardrail_synth::SynthesisConfig;
    pub use guardrail_table::{Row, Schema, SplitSpec, Table, TableBuilder, TableStore, Value};
}
