//! Shared harness for the paper-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for
//! recorded results). This library holds what they share: dataset
//! preparation (materialize → split → inject), the per-dataset ML model,
//! result-table formatting, and the paper's reference numbers for
//! side-by-side printing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod prep;
pub mod printing;
pub mod queries;
pub mod reference;

pub use config::HarnessConfig;
pub use prep::{prepare, PreparedDataset};
pub use printing::{fmt_metric, fmt_opt};

/// Environment variable naming the Chrome-trace JSON file a bench binary
/// writes its run's span and counter events to.
pub const TRACE_ENV: &str = "GUARDRAIL_TRACE";

/// Starts tracing into the file [`TRACE_ENV`] names, if set; the returned
/// guard writes the trace when the binary drops it at exit.
pub fn arm_from_env() -> Option<guardrail_obs::TraceFile> {
    std::env::var(TRACE_ENV).ok().filter(|p| !p.is_empty()).map(guardrail_obs::TraceFile::start)
}
