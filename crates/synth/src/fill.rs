//! Alg. 1: filling program sketches.
//!
//! For one statement sketch `GIVEN det ON dep HAVING □`:
//!
//! 1. The **warranted conditions** `C = comb(det)` are the determinant
//!    valuations actually observed in the data (a single grouping pass; the
//!    unobserved part of the Cartesian product can never produce an ε-valid
//!    branch since its support is zero).
//! 2. For each condition, the loss-minimizing literal `l* = argmin_l
//!    L(b*[l], D)` is the **mode** of the dependent attribute within the
//!    group — computed from the same grouping pass.
//! 3. A branch is kept iff it is ε-valid: `loss ≤ |D^b| · ε`.

use crate::sketch::{ProgramSketch, StatementSketch};
use guardrail_dsl::ast::{Branch, Condition, Program, Statement};
use guardrail_governor::{parallel_map, Budget, Exhausted, Parallelism, StageStatus};
use guardrail_obs as obs;
use guardrail_table::{Table, NULL_CODE};
use std::collections::HashMap;

/// Stage name reported when a fill runs out of budget.
pub const FILL_STAGE: &str = "sketch_fill";

/// Rows grouped per budget charge: fine enough that a deadline interrupts a
/// scan within microseconds, coarse enough that the atomic is off the
/// per-row hot path.
const CHARGE_CHUNK: u64 = 4096;

/// A concretized statement together with its quality statistics.
#[derive(Debug, Clone)]
pub struct FilledStatement {
    /// The AST statement (attribute names resolved from the table schema).
    pub statement: Statement,
    /// `|D^s|`: rows covered by the kept branches.
    pub support: usize,
    /// Total loss of the kept branches.
    pub loss: usize,
    /// `cov(s, D) = |D^s| / |D|`.
    pub coverage: f64,
}

/// Fills one statement sketch (Alg. 1, `FillStmtSketch`). Returns `None`
/// (the algorithm's `⊥`) when no branch is ε-valid.
pub fn fill_statement_sketch(
    table: &Table,
    sketch: &StatementSketch,
    epsilon: f64,
) -> Option<FilledStatement> {
    match fill_statement_sketch_governed(table, sketch, epsilon, &Budget::unlimited()) {
        Ok(outcome) => outcome,
        Err(_) => unreachable!("unlimited budget never exhausts"),
    }
}

/// Grouping result: determinant valuation → dependent-code counts, under
/// whichever key representation the sketch's key space admits.
enum GroupCounts {
    /// Mixed-radix packed keys (the key space fits in a `u128`).
    Packed(HashMap<u128, HashMap<u32, u32>>),
    /// Raw code-vector keys (adversarially wide schema fallback).
    Vectors(HashMap<Vec<u32>, HashMap<u32, u32>>),
}

impl GroupCounts {
    /// Converts to `(determinant codes, dependent counts)` pairs.
    /// Lexicographic order of the code vectors equals numeric order of the
    /// packed keys (same most-significant-first radix), so both variants
    /// sort to identical branch order downstream.
    fn into_pairs(self, cards: &[u128]) -> Vec<(Vec<u32>, HashMap<u32, u32>)> {
        match self {
            GroupCounts::Packed(groups) => groups
                .into_iter()
                .map(|(key, counts)| {
                    // Decode the determinant valuation back out of the key.
                    let mut codes = vec![0u32; cards.len()];
                    let mut rem = key;
                    for (slot, &card) in codes.iter_mut().zip(cards).rev() {
                        *slot = (rem % card) as u32;
                        rem /= card;
                    }
                    (codes, counts)
                })
                .collect(),
            GroupCounts::Vectors(groups) => groups.into_iter().collect(),
        }
    }
}

/// One grouping scan over every row: determinant valuation → dependent-code
/// counts, charging `budget` one unit per row in chunks of
/// [`CHARGE_CHUNK`].
fn group_rows(
    det_cols: &[&[u32]],
    dep_codes: &[u32],
    cards: &[u128],
    packable: bool,
    budget: &Budget,
) -> Result<GroupCounts, Exhausted> {
    let rows = 0..dep_codes.len();
    let mut pending: u64 = 0;
    let grouped = if packable {
        let mut groups: HashMap<u128, HashMap<u32, u32>> = HashMap::new();
        'rows: for row in rows {
            pending += 1;
            if pending == CHARGE_CHUNK {
                budget.charge(pending)?;
                pending = 0;
            }
            let mut key: u128 = 0;
            for (col, &card) in det_cols.iter().zip(cards) {
                let code = col[row];
                if code == NULL_CODE {
                    continue 'rows; // conditions never assert over missing cells
                }
                // In range: every code < card and Π cards fits in u128.
                key = key * card + code as u128;
            }
            *groups.entry(key).or_default().entry(dep_codes[row]).or_default() += 1;
        }
        GroupCounts::Packed(groups)
    } else {
        let mut groups: HashMap<Vec<u32>, HashMap<u32, u32>> = HashMap::new();
        'rows: for row in rows {
            pending += 1;
            if pending == CHARGE_CHUNK {
                budget.charge(pending)?;
                pending = 0;
            }
            let mut codes = Vec::with_capacity(det_cols.len());
            for col in det_cols {
                let code = col[row];
                if code == NULL_CODE {
                    continue 'rows;
                }
                codes.push(code);
            }
            *groups.entry(codes).or_default().entry(dep_codes[row]).or_default() += 1;
        }
        GroupCounts::Vectors(groups)
    };
    if pending > 0 {
        budget.charge(pending)?;
    }
    Ok(grouped)
}

/// Budgeted [`fill_statement_sketch`]: one work unit per row grouped,
/// charged in chunks of [`CHARGE_CHUNK`]. On exhaustion the partial scan is
/// discarded (granularity is the whole statement — callers keep previously
/// filled statements and degrade).
pub fn fill_statement_sketch_governed(
    table: &Table,
    sketch: &StatementSketch,
    epsilon: f64,
    budget: &Budget,
) -> Result<Option<FilledStatement>, Exhausted> {
    assert!((0.0..1.0).contains(&epsilon), "epsilon must be in [0,1)");
    let n = table.num_rows();
    if n == 0 {
        return Ok(None);
    }
    let mut fill_span = obs::span("fill_statement");
    fill_span.arg("rows", n as u64);
    let det_cols: Vec<&[u32]> = sketch
        .given
        .iter()
        .map(|&c| table.column(c).expect("sketch column in range").codes())
        .collect();
    let dep_codes = table.column(sketch.on).expect("sketch column in range").codes();

    // Grouping pass: determinant valuation → dependent-code counts. Keys
    // pack determinant codes mixed-radix into a u128 when the key space
    // fits; adversarially wide / high-cardinality schemas overflow u128, so
    // those fall back to hashing the code vectors directly — slower, but
    // graceful instead of panicking on hostile input.
    let cards: Vec<u128> = sketch
        .given
        .iter()
        .map(|&c| table.column(c).expect("in range").distinct_count() as u128 + 1)
        .collect();
    let packable = cards.iter().try_fold(1u128, |acc, &c| acc.checked_mul(c)).is_some();

    let grouped = group_rows(&det_cols, dep_codes, &cards, packable, budget)?;

    // Sorted for deterministic branch order.
    let mut ordered = grouped.into_pairs(&cards);
    ordered.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    let candidate_groups = ordered.len();
    fill_span.arg("candidate_groups", candidate_groups as u64);

    let schema = table.schema();
    let name = |i: usize| schema.field(i).expect("in range").name().to_string();
    let mut branches = Vec::new();
    let mut support = 0usize;
    let mut total_loss = 0usize;
    for (codes, counts) in ordered {
        let group_size: u32 = counts.values().sum();
        // Best-fit literal: the dependent mode (ties toward the lower code
        // for determinism). Skip groups whose mode is a missing value.
        let (&mode, &mode_count) = counts
            .iter()
            .max_by(|(ca, na), (cb, nb)| na.cmp(nb).then(cb.cmp(ca)))
            .expect("group is non-empty");
        if mode == NULL_CODE {
            continue;
        }
        let loss = (group_size - mode_count) as usize;
        if (loss as f64) > (group_size as f64) * epsilon {
            continue; // not ε-valid
        }
        let mut conjuncts = Vec::with_capacity(sketch.given.len());
        for (&col, &code) in sketch.given.iter().zip(&codes) {
            let value = table.column(col).expect("in range").dictionary().decode(code);
            conjuncts.push((name(col), value));
        }
        let literal = table.column(sketch.on).expect("in range").dictionary().decode(mode);
        branches.push(Branch {
            condition: Condition::new(conjuncts),
            target: name(sketch.on),
            literal,
        });
        support += group_size as usize;
        total_loss += loss;
    }

    fill_span.arg("branches_kept", branches.len() as u64);
    fill_span.arg("branches_pruned", (candidate_groups - branches.len()) as u64);
    if branches.is_empty() {
        return Ok(None);
    }
    let statement = Statement {
        given: sketch.given.iter().map(|&c| name(c)).collect(),
        on: name(sketch.on),
        branches,
    };
    debug_assert!(statement.validate().is_ok());
    Ok(Some(FilledStatement {
        statement,
        support,
        loss: total_loss,
        coverage: support as f64 / n as f64,
    }))
}

/// Fills every statement of `sketch` with `fill_one` across worker threads,
/// merging in statement order. Returns the filled statements, the number of
/// statements skipped by budget exhaustion, and the stage status (the first
/// exhaustion in statement order, when any).
///
/// Statements read only the immutable table, so they are independent work
/// items; the shared [`Budget`] inside `fill_one` is the only cross-thread
/// state (an atomic work counter, charged cooperatively). The merge keeps
/// every completed fill — each is bit-identical to what an unbudgeted run
/// would produce — and counts exhausted statements as skipped, so a degraded
/// program scores with those statements as zeros and can never outrank the
/// complete fill of the same sketch.
pub fn fill_sketch_statements_governed<F>(
    sketch: &ProgramSketch,
    parallelism: Parallelism,
    fill_one: F,
) -> (Vec<FilledStatement>, usize, StageStatus)
where
    F: Fn(&StatementSketch) -> Result<Option<FilledStatement>, Exhausted> + Sync,
{
    let outcomes = parallel_map(parallelism, &sketch.statements, &|s| fill_one(s));
    let mut filled = Vec::new();
    let mut skipped = 0usize;
    let mut status = StageStatus::Complete;
    for outcome in outcomes {
        match outcome {
            Ok(Some(f)) => filled.push(f),
            Ok(None) => {} // ⊥: a completed verdict, not a skip
            Err(e) => {
                skipped += 1;
                if status.is_complete() {
                    status = StageStatus::degraded(FILL_STAGE, e);
                }
            }
        }
    }
    (filled, skipped, status)
}

/// Fills a whole program sketch (Alg. 1). Statements that fill to `⊥` are
/// dropped; returns the concrete program and per-statement statistics.
pub fn fill_program_sketch(
    table: &Table,
    sketch: &ProgramSketch,
    epsilon: f64,
) -> (Program, Vec<FilledStatement>) {
    let mut filled = Vec::new();
    for s in &sketch.statements {
        if let Some(f) = fill_statement_sketch(table, s, epsilon) {
            filled.push(f);
        }
    }
    let program = Program { statements: filled.iter().map(|f| f.statement.clone()).collect() };
    (program, filled)
}

/// Coverage of a filled program: the average statement coverage (§2.2),
/// zero for the empty program.
pub fn filled_coverage(filled: &[FilledStatement]) -> f64 {
    if filled.is_empty() {
        return 0.0;
    }
    filled.iter().map(|f| f.coverage).sum::<f64>() / filled.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_table::Value;

    fn zip_city_table() -> Table {
        Table::from_csv_str(
            "zip,city\n\
             94704,Berkeley\n94704,Berkeley\n94704,Berkeley\n94704,Berkeley\n\
             94704,gibbon\n\
             97201,Portland\n97201,Portland\n97201,Portland\n",
        )
        .unwrap()
    }

    #[test]
    fn fills_noisy_fd() {
        let t = zip_city_table();
        let sketch = StatementSketch::new(vec![0], 1);
        let f = fill_statement_sketch(&t, &sketch, 0.25).unwrap();
        assert_eq!(f.statement.branches.len(), 2);
        assert_eq!(f.support, 8);
        assert_eq!(f.loss, 1);
        assert!((f.coverage - 1.0).abs() < 1e-12);
        // Branch literals are the group modes.
        let lits: Vec<&Value> = f.statement.branches.iter().map(|b| &b.literal).collect();
        assert!(lits.contains(&&Value::from("Berkeley")));
        assert!(lits.contains(&&Value::from("Portland")));
    }

    #[test]
    fn strict_epsilon_drops_noisy_branch() {
        let t = zip_city_table();
        let sketch = StatementSketch::new(vec![0], 1);
        // Berkeley group has loss 1/5 = 0.2 > ε = 0.1 → dropped;
        // Portland group is clean → kept.
        let f = fill_statement_sketch(&t, &sketch, 0.1).unwrap();
        assert_eq!(f.statement.branches.len(), 1);
        assert_eq!(f.statement.branches[0].literal, Value::from("Portland"));
        assert_eq!(f.support, 3);
        assert_eq!(f.loss, 0);
    }

    #[test]
    fn returns_bottom_when_nothing_valid() {
        // Dependent is uniform noise: every 4-row group splits 2/2 at best.
        let t = Table::from_csv_str("a,b\n0,x\n0,y\n1,x\n1,y\n").unwrap();
        let sketch = StatementSketch::new(vec![0], 1);
        assert!(fill_statement_sketch(&t, &sketch, 0.25).is_none());
        // ε = 0.5 tolerates a 50% loss → branches appear.
        assert!(fill_statement_sketch(&t, &sketch, 0.5).is_some());
    }

    #[test]
    fn multi_determinant_conditions() {
        let t =
            Table::from_csv_str("a,b,c\n0,0,x\n0,0,x\n0,1,y\n0,1,y\n1,0,y\n1,0,y\n1,1,x\n1,1,x\n")
                .unwrap();
        // c = XOR(a, b): needs both determinants.
        let xor = StatementSketch::new(vec![0, 1], 2);
        let f = fill_statement_sketch(&t, &xor, 0.0).unwrap();
        assert_eq!(f.statement.branches.len(), 4);
        assert_eq!(f.loss, 0);
        for b in &f.statement.branches {
            assert_eq!(b.condition.conjuncts().len(), 2);
        }
        // A single determinant explains nothing (every group splits 50/50).
        assert!(fill_statement_sketch(&t, &StatementSketch::new(vec![0], 2), 0.3).is_none());
    }

    #[test]
    fn null_determinants_are_skipped() {
        let t = Table::from_csv_str("a,b\n0,x\n,y\n0,x\n").unwrap();
        let sketch = StatementSketch::new(vec![0], 1);
        let f = fill_statement_sketch(&t, &sketch, 0.0).unwrap();
        // Only the two non-null `a` rows participate.
        assert_eq!(f.support, 2);
        assert_eq!(f.statement.branches.len(), 1);
    }

    #[test]
    fn null_mode_groups_are_dropped() {
        let t = Table::from_csv_str("a,b\n0,\n0,\n0,x\n1,y\n").unwrap();
        let sketch = StatementSketch::new(vec![0], 1);
        let f = fill_statement_sketch(&t, &sketch, 0.5).unwrap();
        // Group a=0 has mode NULL → dropped; only a=1 branch remains.
        assert_eq!(f.statement.branches.len(), 1);
        assert_eq!(f.statement.branches[0].literal, Value::from("y"));
    }

    #[test]
    fn empty_table_fills_to_bottom() {
        let t = Table::from_csv_str("a,b\n").unwrap();
        assert!(fill_statement_sketch(&t, &StatementSketch::new(vec![0], 1), 0.1).is_none());
    }

    #[test]
    fn program_sketch_fill_drops_bottom_statements() {
        let t = Table::from_csv_str("a,b,c\n0,x,0\n0,x,1\n1,y,0\n1,y,1\n").unwrap();
        let sketch = ProgramSketch {
            statements: vec![
                StatementSketch::new(vec![0], 1), // b = f(a): deterministic
                StatementSketch::new(vec![0], 2), // c ⫫ a: fills to ⊥
            ],
        };
        let (program, filled) = fill_program_sketch(&t, &sketch, 0.1);
        assert_eq!(program.statements.len(), 1);
        assert_eq!(filled.len(), 1);
        assert_eq!(program.statements[0].on, "b");
        assert!((filled_coverage(&filled) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wide_determinant_key_overflow_falls_back_gracefully() {
        // 48 determinant columns with 8 distinct values each: the mixed-radix
        // key space is 9^48 ≫ u128::MAX, which the packed path cannot
        // represent. The vector-key fallback must fill it without panicking.
        let cols = 48usize;
        let mut header: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        header.push("dep".into());
        let mut csv = header.join(",");
        csv.push('\n');
        for row in 0..32 {
            let v = row % 8;
            let mut cells: Vec<String> = (0..cols).map(|c| ((v + c) % 8).to_string()).collect();
            cells.push(format!("d{v}"));
            csv.push_str(&cells.join(","));
            csv.push('\n');
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let sketch = StatementSketch::new((0..cols).collect(), cols);
        let f = fill_statement_sketch(&t, &sketch, 0.0).unwrap();
        assert_eq!(f.statement.branches.len(), 8);
        assert_eq!(f.loss, 0);
        assert_eq!(f.support, 32);
    }

    #[test]
    fn exhausted_budget_aborts_fill() {
        use guardrail_governor::{Budget, ExhaustionReason};
        let t = zip_city_table();
        let sketch = StatementSketch::new(vec![0], 1);
        // 8 rows to scan; a 2-unit cap trips on the first (batched) charge.
        let err = fill_statement_sketch_governed(&t, &sketch, 0.25, &Budget::with_work_cap(2))
            .unwrap_err();
        assert_eq!(err.reason, ExhaustionReason::WorkCapReached);
        // An ample cap completes and matches the ungoverned fill.
        let governed =
            fill_statement_sketch_governed(&t, &sketch, 0.25, &Budget::with_work_cap(100))
                .unwrap()
                .unwrap();
        let plain = fill_statement_sketch(&t, &sketch, 0.25).unwrap();
        assert_eq!(governed.statement, plain.statement);
    }

    #[test]
    fn filled_program_detects_errors_via_dsl() {
        let t = zip_city_table();
        let sketch = ProgramSketch { statements: vec![StatementSketch::new(vec![0], 1)] };
        let (program, _) = fill_program_sketch(&t, &sketch, 0.25);
        let compiled = program.compile_for(&t).unwrap();
        assert_eq!(compiled.violating_rows(&t), vec![4]); // the gibbon row
    }
}
