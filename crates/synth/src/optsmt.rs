//! The sketch-free "OptSMT-style" baseline (§3.1 and §8.3).
//!
//! The paper implements a νZ-based synthesizer that encodes every row as a
//! soft constraint and searches the unsketched program space; it generates
//! tens of millions of clauses and times out even on the 4-attribute
//! dataset. We reproduce that negative result with an honest cost model: the
//! baseline enumerates **every** candidate statement sketch (all
//! `(determinant set, dependent)` pairs up to `max_given_size`) and accounts
//! one *constraint* per (candidate branch × covered row) — the unit of work
//! an OptSMT encoding pays per soft clause. The run's [`Budget`] plays the
//! role of the wall-clock timeout: constraints are charged as work units, so
//! either a work cap (the classic "constraint budget") or a deadline trips
//! the search into [`OptSmtOutcome::Timeout`].
//!
//! On tiny inputs the search completes and yields the loss-minimal program;
//! on realistic schemas the budget trips first, which is the paper's point.

use crate::fill::{fill_statement_sketch, FilledStatement};
use crate::sketch::StatementSketch;
use guardrail_dsl::ast::Program;
use guardrail_governor::Budget;
use guardrail_table::Table;

/// Stage name for the baseline's constraint generation.
pub const OPTSMT_STAGE: &str = "optsmt_constraints";

/// The constraint cap standing in for the paper's 24-hour timeout; pair it
/// with [`Budget::with_work_cap`] for the classic configuration.
pub const DEFAULT_CONSTRAINT_CAP: u64 = 5_000_000;

/// Baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct OptSmtConfig {
    /// Noise tolerance, as in the main synthesizer.
    pub epsilon: f64,
    /// Largest determinant set enumerated.
    pub max_given_size: usize,
}

impl Default for OptSmtConfig {
    fn default() -> Self {
        Self { epsilon: 0.02, max_given_size: 3 }
    }
}

/// What the baseline produced.
#[derive(Debug, Clone)]
pub enum OptSmtOutcome {
    /// The search completed within budget.
    Solved {
        /// Best program found (max coverage per dependent, ε-valid).
        program: Program,
        /// Coverage of the returned program.
        coverage: f64,
        /// Constraints generated during the search.
        constraints: u64,
        /// Candidate sketches enumerated.
        candidates: u64,
    },
    /// The constraint budget was exhausted — the paper's observed outcome.
    Timeout {
        /// Constraints generated before giving up.
        constraints: u64,
        /// Candidates processed before giving up.
        candidates: u64,
        /// Total size of the candidate space that *would* have been explored.
        search_space: u64,
    },
}

/// Number of candidate statement sketches for `attrs` attributes with
/// determinant sets of size `1..=max_given`: `n · Σ_k C(n−1, k)`.
pub fn candidate_space(attrs: usize, max_given: usize) -> u64 {
    let mut per_dependent = 0u64;
    for k in 1..=max_given.min(attrs - 1) {
        per_dependent = per_dependent.saturating_add(binomial(attrs - 1, k));
    }
    (attrs as u64).saturating_mul(per_dependent)
}

fn binomial(n: usize, k: usize) -> u64 {
    let k = k.min(n - k);
    let mut result = 1u64;
    for i in 0..k {
        result = result.saturating_mul((n - i) as u64) / (i as u64 + 1);
    }
    result
}

/// Runs the sketch-free baseline under `budget` (one work unit per generated
/// constraint).
pub fn optsmt_synthesize(table: &Table, config: &OptSmtConfig, budget: &Budget) -> OptSmtOutcome {
    let attrs = table.num_columns();
    let rows = table.num_rows() as u64;
    let search_space = candidate_space(attrs, config.max_given_size);

    let mut smt_span = guardrail_obs::span(OPTSMT_STAGE);
    smt_span.arg("search_space", search_space);
    let mut constraints = 0u64;
    let mut candidates = 0u64;
    // Best ε-valid statement per dependent, by coverage.
    let mut best: Vec<Option<FilledStatement>> = vec![None; attrs];

    for (on, slot) in best.iter_mut().enumerate() {
        let others: Vec<usize> = (0..attrs).filter(|&a| a != on).collect();
        for size in 1..=config.max_given_size.min(others.len()) {
            for combo in combinations(&others, size) {
                candidates += 1;
                let sketch = StatementSketch::new(combo, on);
                // OptSMT charges `budget` per generated constraint below, not
                // per scanned row, so the fill itself runs unlimited.
                let filled =
                    fill_statement_sketch(table, &sketch, config.epsilon, &Budget::unlimited())
                        .expect("an unlimited budget never exhausts");
                // Cost model: every candidate branch contributes one soft
                // clause per covered row; candidates that fill to ⊥ still
                // paid for the grouping scan (one clause per row).
                let branch_cost = filled
                    .as_ref()
                    .map(|f| (f.statement.branches.len() as u64).saturating_mul(f.support as u64))
                    .unwrap_or(0);
                let cost = rows.saturating_add(branch_cost);
                constraints = constraints.saturating_add(cost);
                if budget.charge(cost).is_err() {
                    smt_span.arg("candidates", candidates);
                    smt_span.arg("constraints", constraints);
                    smt_span.arg("timeout", 1);
                    return OptSmtOutcome::Timeout { constraints, candidates, search_space };
                }
                if let Some(f) = filled {
                    let better = match &*slot {
                        None => true,
                        Some(cur) => f.coverage > cur.coverage,
                    };
                    if better {
                        *slot = Some(f);
                    }
                }
            }
        }
    }

    smt_span.arg("candidates", candidates);
    smt_span.arg("constraints", constraints);
    let chosen: Vec<FilledStatement> = best.into_iter().flatten().collect();
    let coverage = if chosen.is_empty() {
        0.0
    } else {
        chosen.iter().map(|f| f.coverage).sum::<f64>() / chosen.len() as f64
    };
    let program = Program { statements: chosen.into_iter().map(|f| f.statement).collect() };
    OptSmtOutcome::Solved { program, coverage, constraints, candidates }
}

/// All `size`-subsets of `items`, in lexicographic order.
fn combinations(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..size).collect();
    if size > items.len() {
        return out;
    }
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - size {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..size {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_table() -> Table {
        Table::from_csv_str("a,b\n0,x\n0,x\n1,y\n1,y\n").unwrap()
    }

    #[test]
    fn solves_tiny_instance() {
        let budget = Budget::with_work_cap(DEFAULT_CONSTRAINT_CAP);
        match optsmt_synthesize(&tiny_table(), &OptSmtConfig::default(), &budget) {
            OptSmtOutcome::Solved { program, coverage, constraints, candidates } => {
                assert!(coverage > 0.99);
                assert!(!program.statements.is_empty());
                assert!(constraints > 0);
                assert_eq!(candidates, 2); // a→b and b→a
            }
            OptSmtOutcome::Timeout { .. } => panic!("tiny instance must solve"),
        }
    }

    #[test]
    fn times_out_under_budget() {
        let out =
            optsmt_synthesize(&tiny_table(), &OptSmtConfig::default(), &Budget::with_work_cap(3));
        match out {
            OptSmtOutcome::Timeout { constraints, search_space, .. } => {
                assert!(constraints > 3);
                assert_eq!(search_space, 2);
            }
            OptSmtOutcome::Solved { .. } => panic!("budget of 3 cannot complete"),
        }
    }

    #[test]
    fn candidate_space_blows_up_combinatorially() {
        // 4 attrs: 4 · (C(3,1)+C(3,2)+C(3,3)) = 4·7 = 28.
        assert_eq!(candidate_space(4, 3), 28);
        // 15 attrs (Adult): 15 · (14 + 91 + 364) = 7035.
        assert_eq!(candidate_space(15, 3), 7035);
        // 40 attrs (Cylinder Bands): 40 · (39 + 741 + 9139) = 396,760
        // candidate *sketches*, each multiplied by ~#configs branches × rows
        // of clauses in a real encoding.
        assert_eq!(candidate_space(40, 3), 396_760);
        assert!(candidate_space(40, 5) > 25_000_000);
    }

    #[test]
    fn sketchfree_search_finds_both_orientations_symmetric() {
        // The baseline has no MEC guidance: with a = b exactly it keeps one
        // statement per dependent, i.e. both a→b and b→a (the saturated
        // program p₂ failure mode of Example 3.1).
        match optsmt_synthesize(&tiny_table(), &OptSmtConfig::default(), &Budget::unlimited()) {
            OptSmtOutcome::Solved { program, .. } => {
                assert_eq!(program.statements.len(), 2, "{program}");
            }
            _ => panic!("must solve"),
        }
    }
}
