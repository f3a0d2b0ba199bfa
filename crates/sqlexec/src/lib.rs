//! ML-integrated SQL execution with Guardrail interception (§7).
//!
//! Off-the-shelf ML-in-SQL engines give no hook between the row and the
//! model, so the paper's authors built their own executor on pandas; this is
//! the Rust equivalent on `guardrail-table`:
//!
//! * [`token`] / [`parser`] / [`ast`] — a SQL dialect covering the paper's
//!   48 evaluation queries: `SELECT` with expressions and aliases,
//!   `CASE WHEN`, `WHERE`, `GROUP BY`, `ORDER BY`, aggregates
//!   (`AVG/SUM/COUNT/MIN/MAX`), and the ML hook `PREDICT(model)`.
//! * [`catalog`] — named tables and fitted models.
//! * [`exec`] — the executor: every row that reaches a `PREDICT` is first
//!   vetted by the configured [`guardrail_core::Guardrail`] under an
//!   [`guardrail_core::ErrorScheme`] (the Fig. 1 interception point), and
//!   the stats it returns break down guardrail vs inference time (Table 6).
//! * [`optimizer`] — the conjunct helpers (split, join, pushability) that
//!   the [`hep`] pushdown rules use: WHERE conjuncts that do not depend on
//!   model output filter rows *before* any inference runs.
//!
//! # Example
//!
//! ```
//! use guardrail_sqlexec::{Catalog, Executor};
//! use guardrail_table::Table;
//!
//! let t = Table::from_csv_str("age,city\n30,A\n40,A\n50,B\n").unwrap();
//! let mut catalog = Catalog::new();
//! catalog.add_table("people", t);
//! let exec = Executor::new(&catalog);
//! let out = exec
//!     .run("SELECT city, AVG(age) AS avg_age FROM people GROUP BY city ORDER BY city")
//!     .unwrap();
//! assert_eq!(out.table.num_rows(), 2);
//! assert_eq!(out.table.get(0, 1).unwrap().as_f64(), Some(35.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod hep;
pub mod optimizer;
pub mod parser;
pub mod planner;
pub mod token;

pub use catalog::Catalog;
pub use error::SqlError;
pub use exec::{ExecutionStats, Executor, QueryOutput};
pub use hep::{HepBatch, HepBatchStrategy, HepOptimizer, OptOutcome, OptRule};
pub use parser::parse_query;
pub use planner::{lift, Plan, PlanContext};
