//! Statement-level concretization cache (§7, optimization 2).
//!
//! Alg. 2 synthesizes one program per DAG in the MEC, but different DAGs
//! share most parent sets — re-filling `GIVEN Pa ON a` for every DAG would
//! repeat the grouping scan. The cache keys on `(given, on)` and memoizes the
//! fill result (including the `⊥` outcome), and is shared across worker
//! threads when parallel synthesis is enabled. It is a governor [`Memo`]:
//! each key is filled once, and a fill aborted by the budget is not
//! memoized.

use crate::fill::FilledStatement;
use crate::sketch::StatementSketch;
use guardrail_governor::{Memo, MemoStats};

/// Memo table from statement sketches to fill outcomes (`None` = `⊥`).
pub type StatementCache = Memo<StatementSketch, Option<FilledStatement>>;

/// Hit/miss counters of a [`StatementCache`].
pub type CacheStats = MemoStats;
