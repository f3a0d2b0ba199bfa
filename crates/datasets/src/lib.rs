//! Dataset substrate: synthetic stand-ins for the paper's 12 datasets.
//!
//! The paper evaluates on UCI / OpenML / Kaggle datasets (Table 2) with
//! synthetically injected errors. Those files are not available offline, so —
//! per the substitution policy in `DESIGN.md` — this crate generates
//! datasets from known **structural equation models** (Def. 4.3):
//!
//! * [`sem`] — discrete SEMs: a DAG, per-node categorical functions
//!   (deterministic maps with flip noise, or full CPTs), and a sampler.
//! * [`cancer`] — the CANCER Bayesian network (bnlearn), the actual source
//!   the paper cites for its Lung Cancer dataset.
//! * [`random`] — seeded random SEM generation with a deterministic
//!   "backbone" (the relationships Guardrail can discover) plus noisy and
//!   independent attributes.
//! * [`paper`] — the 12 dataset specs mirroring Table 2 (ids, names,
//!   attribute counts, row counts) built on the generators above.
//! * [`inject`] — cell-level error injection with ground-truth tracking
//!   (§8's 1% rate with a small-dataset cap).
//! * [`chaos`] — fault-injection inputs (malformed CSV, adversarial
//!   schemas, statistically hostile tables) for the robustness suite.
//!
//! Because the generating SEM is known, every experiment gains exact ground
//! truth: the true DAG, the true deterministic constraints, and the exact
//! set of corrupted cells.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancer;
pub mod chaos;
pub mod inject;
pub mod paper;
pub mod random;
pub mod sem;

pub use cancer::cancer_network;
pub use inject::{inject_errors, InjectConfig, InjectedError, InjectionReport};
pub use paper::{paper_dataset, paper_dataset_ids, DatasetSpec, GeneratedDataset};
pub use random::{random_sem, RandomSemConfig};
pub use sem::{DiscreteSem, NodeFunction};
