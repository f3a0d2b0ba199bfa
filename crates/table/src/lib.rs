//! Columnar table engine for Guardrail.
//!
//! This crate is the dataframe substrate that the rest of the workspace builds
//! on. It plays the role pandas plays in the paper's reference implementation:
//! it loads relations from CSV, stores them column-major, and exposes typed
//! row/column views to the statistics, synthesis, and query layers.
//!
//! # Representation
//!
//! Every column is **dictionary encoded**: cell values are stored as `u32`
//! codes into a per-column [`Dictionary`] of distinct [`Value`]s. Guardrail's
//! workloads are dominated by categorical equality — contingency tables for
//! conditional-independence tests, partition refinement for FD discovery, and
//! `IF a = l` conditions in the DSL — so uniform O(1) code comparison is the
//! right trade-off, and it mirrors how analytical engines encode low-cardinality
//! string columns.
//!
//! # Example
//!
//! ```
//! use guardrail_table::{Table, Value};
//!
//! let csv = "city,state\nBerkeley,CA\nPortland,OR\nBerkeley,CA\n";
//! let table = Table::from_csv_str(csv).unwrap();
//! assert_eq!(table.num_rows(), 3);
//! assert_eq!(table.column(0).unwrap().distinct_count(), 2);
//! assert_eq!(table.get(0, 0), Some(Value::from("Berkeley")));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod codec;
pub mod column;
pub mod csv;
pub mod dictionary;
pub mod error;
pub mod row;
pub mod schema;
pub mod segment;
pub mod split;
pub mod store;
pub mod table;
pub mod value;
pub mod wal;

pub use column::Column;
pub use dictionary::{Code, Dictionary, NULL_CODE};
pub use error::TableError;
pub use row::{Row, RowView};
pub use schema::{DataType, Field, Schema};
pub use segment::Segment;
pub use split::SplitSpec;
pub use store::{RecoveryReport, RowBatch, TableStore};
pub use table::{Table, TableBuilder};
pub use value::Value;
pub use wal::{Wal, WalBatch};

/// Convenient `Result` alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TableError>;
