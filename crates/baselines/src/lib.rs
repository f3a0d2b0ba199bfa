//! FD-discovery baselines for the Table 3 comparison.
//!
//! * [`tane`] — TANE \[19\]: level-wise lattice search with stripped
//!   partitions, C⁺ pruning, and g₃-error approximate dependencies.
//! * [`ctane`] — CTANE \[9\]: conditional FD discovery with constant pattern
//!   tableaux (support/confidence thresholded).
//! * [`fdx`] — FDX \[43\]: statistical FD discovery on the auxiliary binary
//!   distribution via precision-matrix estimation — including its documented
//!   failure modes (ill-conditioned inversion, all-rows-flagged collapse).
//! * [`fd`] / [`detect`] — the shared FD representation and the
//!   majority-vote violation detector used to score all baselines on error
//!   detection.
//!
//! All discovery functions are fallible: resource exhaustion and numerical
//! failure map to [`BaselineError`], which the harness renders as the
//! paper's "–" table entries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ctane;
pub mod detect;
pub mod fd;
pub mod fdx;
pub mod tane;

pub use ctane::{
    ctane_discover, ctane_discover_variable, detect_variable_cfd_violations, Cfd, CtaneConfig,
    VariableCfd,
};
pub use detect::{detect_cfd_violations, detect_fd_violations, detect_fd_violations_minority};
pub use fd::Fd;
pub use fdx::{fdx_discover, FdxConfig};
pub use tane::{tane_discover, TaneConfig};

/// Why a baseline failed to produce constraints (rendered as "–" in Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// Candidate lattice outgrew the configured budget (TANE/CTANE on wide
    /// schemas — the paper's out-of-memory case).
    ResourceExhausted {
        /// Candidates generated before giving up.
        candidates: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A numerical step failed (FDX's ill-conditioned matrix inversion on
    /// dataset #3).
    Numerical(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::ResourceExhausted { candidates, budget } => {
                write!(f, "candidate lattice exhausted budget ({candidates} > {budget})")
            }
            BaselineError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for BaselineError {}
