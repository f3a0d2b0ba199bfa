//! Statistics kernel for Guardrail.
//!
//! Everything the rest of the workspace needs from `scipy.stats` is
//! implemented here from first principles:
//!
//! * [`special`] — log-gamma, regularized incomplete gamma and beta functions.
//! * [`chi2`] — the chi-squared distribution (CDF / survival function).
//! * [`contingency`] — contingency tables over dictionary codes.
//! * [`independence`] — Pearson X² and G² (likelihood-ratio) conditional
//!   independence tests: the oracle behind the PC algorithm (§4 of the paper).
//! * [`suffstats`] — the fused, allocation-free sufficient-statistics kernel
//!   the CI tests run on (dense flat-tensor tabulation with a counting-sort
//!   sparse fallback, bit-identical to the contingency-table reference).
//! * [`metrics`] — F1, MCC, precision/recall and normalization helpers used by
//!   the evaluation harness (Tables 3, 5, 8; Fig. 6).
//! * [`rank`] — Spearman rank correlation with a Student-t p-value (Table 1's
//!   ρ = 0.947 claim).
//! * [`descriptive`] — mean/variance/covariance helpers (used by FDX).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chi2;
pub mod contingency;
pub mod descriptive;
pub mod independence;
pub mod metrics;
pub mod rank;
pub mod special;
pub mod suffstats;

pub use chi2::ChiSquared;
pub use contingency::ContingencyTable;
pub use independence::{ci_test_reference, CiTestKind, CiTestResult};
pub use metrics::BinaryConfusion;
pub use rank::spearman;
pub use suffstats::{choose_path, fold_mixed_radix, CiScratch, KernelPath, Strata, StratumPack};
