//! Graph substrate for Guardrail's structure-learning pipeline.
//!
//! The paper's sketch learner works with probabilistic graphical models: it
//! learns a **CPDAG** (the graph representation of a Markov equivalence
//! class) from data, enumerates the DAGs inside that class (Alg. 2), and
//! reads program sketches off each DAG's parent sets. This crate provides all
//! of the required graph machinery, replacing the Julia PDAG enumerator of
//! Wienöbst et al. \[36\] that the reference implementation shells out to:
//!
//! * [`NodeSet`] — a `u128` bitset over node indices (≤ 128 nodes).
//! * [`Dag`] — directed acyclic graphs with topological sorting, ancestor
//!   queries, and conversion to the CPDAG of their equivalence class.
//! * [`Pdag`] — partially directed graphs with v-structure detection and
//!   Meek-rule closure.
//! * [`dsep`] — d-separation queries (used by tests to validate the PC
//!   implementation against ground truth).
//! * [`enumerate`] — enumeration/counting of the consistent extensions of a
//!   CPDAG, i.e. all DAGs in the MEC (Table 7, "w/ MEC" column).
//! * [`count`] — acyclic-orientation counting of a skeleton via
//!   deletion–contraction (Table 7, "w/o MEC" column).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chickering;
pub mod count;
pub mod dag;
pub mod dsep;
pub mod enumerate;
pub mod nodeset;
pub mod pdag;

pub use chickering::cpdag_by_compelled_edges;
pub use count::acyclic_orientations;
pub use dag::Dag;
pub use dsep::d_separated;
pub use enumerate::{count_extensions, enumerate_extensions, ENUMERATE_STAGE};
pub use nodeset::NodeSet;
pub use pdag::Pdag;

/// Maximum number of nodes supported by [`NodeSet`]-backed graphs.
pub const MAX_NODES: usize = 128;
