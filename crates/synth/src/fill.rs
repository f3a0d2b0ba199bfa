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
//!
//! The grouping pass is `guardrail-stats`' group-by kernel, the one PC's CI
//! tests count through; steps 2–3 are its reducer.

use crate::config::SynthesisConfig;
use crate::sketch::{ProgramSketch, StatementSketch};
use guardrail_dsl::ast::{Branch, Condition, Statement};
use guardrail_governor::{parallel_map, Budget, Exhausted, Parallelism, StageStatus};
use guardrail_obs as obs;
use guardrail_stats::suffstats::{choose_path, group_by_stratum, pack_ranked, GroupScratch};
use guardrail_table::Table;

/// Stage name reported when a fill runs out of budget.
pub const FILL_STAGE: &str = "sketch_fill";

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
///
/// Charges `budget` one work unit per row, in chunks of 4,096 rows
/// (`PACK_CHUNK`) while the determinant keys are packed, so a deadline
/// interrupts the scan within microseconds. On exhaustion the partial scan
/// is discarded (granularity is the whole statement — callers keep
/// previously filled statements and degrade).
pub fn fill_statement_sketch(
    table: &Table,
    sketch: &StatementSketch,
    epsilon: f64,
    budget: &Budget,
) -> Result<Option<FilledStatement>, Exhausted> {
    SynthesisConfig::check_epsilon(epsilon).unwrap_or_else(|e| panic!("{e}"));
    let n = table.num_rows();
    if n == 0 {
        return Ok(None);
    }
    let mut fill_span = obs::span("fill_statement");
    fill_span.arg("rows", n as u64);
    let column = |c: usize| table.column(c).expect("sketch column in range");
    let det_cols: Vec<&[u32]> = sketch.given.iter().map(|&c| column(c).codes()).collect();
    // Radix `distinct + 1`: codes fold to themselves and NULL to the top
    // digit, so keys order like code tuples and wide schemas rank instead
    // of overflowing.
    let radices: Vec<u64> =
        sketch.given.iter().map(|&c| column(c).distinct_count() as u64 + 1).collect();
    let pack = pack_ranked(n, &det_cols, &radices, |rows| budget.charge(rows as u64))?;
    let dep = column(sketch.on);
    let dep_codes = dep.codes();
    let null = dep.distinct_count(); // each group's NULL cell
    let strata = pack.pack.strata();
    let path = choose_path(n, 1, null + 1, strata.domain);

    let schema = table.schema();
    let name = |i: usize| schema.field(i).expect("in range").name().to_string();
    let mut digits = vec![0u64; det_cols.len()];
    let mut candidate_groups = 0usize;
    let mut branches = Vec::new();
    let mut support = 0usize;
    let mut total_loss = 0usize;
    let cell = |i: usize| (dep_codes[i] as usize).min(null);
    let mut scratch = GroupScratch::default();
    // Groups arrive in ascending key order: deterministic branch order.
    group_by_stratum(n, Some(strata), null + 1, cell, path, &mut scratch, |key, counts| {
        pack.digits(key, &det_cols, &radices, &mut digits);
        if digits.iter().zip(&radices).any(|(&d, &r)| d == r - 1) {
            return; // conditions never assert over missing cells
        }
        candidate_groups += 1;
        let group_size: u64 = counts.iter().sum();
        // Best-fit literal: the dependent mode, ties toward the lower code
        // (`max_by_key` keeps the last maximum of the reversed walk). Skip
        // groups whose mode is a missing value.
        let (mode, &mode_count) =
            counts.iter().enumerate().rev().max_by_key(|&(_, &c)| c).expect("group is non-empty");
        if mode == null {
            return;
        }
        let loss = (group_size - mode_count) as usize;
        if (loss as f64) > (group_size as f64) * epsilon {
            return; // not ε-valid
        }
        let conjuncts = sketch
            .given
            .iter()
            .zip(&digits)
            .map(|(&col, &code)| (name(col), column(col).dictionary().decode(code as u32)))
            .collect();
        branches.push(Branch {
            condition: Condition::new(conjuncts),
            target: name(sketch.on),
            literal: dep.dictionary().decode(mode as u32),
        });
        support += group_size as usize;
        total_loss += loss;
    });

    fill_span.arg("candidate_groups", candidate_groups as u64);
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
pub fn fill_sketch_statements<F>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_dsl::ast::Program;
    use guardrail_dsl::CompiledProgram;
    use guardrail_table::Value;

    fn unlimited(t: &Table, sketch: &StatementSketch, epsilon: f64) -> Option<FilledStatement> {
        fill_statement_sketch(t, sketch, epsilon, &Budget::unlimited()).unwrap()
    }

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
        let f = unlimited(&t, &sketch, 0.25).unwrap();
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
        let f = unlimited(&t, &sketch, 0.1).unwrap();
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
        assert!(unlimited(&t, &sketch, 0.25).is_none());
        // ε = 0.5 tolerates a 50% loss → branches appear.
        assert!(unlimited(&t, &sketch, 0.5).is_some());
    }

    #[test]
    fn multi_determinant_conditions() {
        let t =
            Table::from_csv_str("a,b,c\n0,0,x\n0,0,x\n0,1,y\n0,1,y\n1,0,y\n1,0,y\n1,1,x\n1,1,x\n")
                .unwrap();
        // c = XOR(a, b): needs both determinants.
        let xor = StatementSketch::new(vec![0, 1], 2);
        let f = unlimited(&t, &xor, 0.0).unwrap();
        assert_eq!(f.statement.branches.len(), 4);
        assert_eq!(f.loss, 0);
        for b in &f.statement.branches {
            assert_eq!(b.condition.conjuncts().len(), 2);
        }
        // A single determinant explains nothing (every group splits 50/50).
        assert!(unlimited(&t, &StatementSketch::new(vec![0], 2), 0.3).is_none());
    }

    #[test]
    fn null_determinants_are_skipped() {
        let t = Table::from_csv_str("a,b\n0,x\n,y\n0,x\n").unwrap();
        let sketch = StatementSketch::new(vec![0], 1);
        let f = unlimited(&t, &sketch, 0.0).unwrap();
        // Only the two non-null `a` rows participate.
        assert_eq!(f.support, 2);
        assert_eq!(f.statement.branches.len(), 1);
    }

    #[test]
    fn null_mode_groups_are_dropped() {
        let t = Table::from_csv_str("a,b\n0,\n0,\n0,x\n1,y\n").unwrap();
        let sketch = StatementSketch::new(vec![0], 1);
        let f = unlimited(&t, &sketch, 0.5).unwrap();
        // Group a=0 has mode NULL → dropped; only a=1 branch remains.
        assert_eq!(f.statement.branches.len(), 1);
        assert_eq!(f.statement.branches[0].literal, Value::from("y"));
    }

    #[test]
    fn empty_table_fills_to_bottom() {
        let t = Table::from_csv_str("a,b\n").unwrap();
        assert!(unlimited(&t, &StatementSketch::new(vec![0], 1), 0.1).is_none());
    }

    #[test]
    fn sketch_fill_drops_bottom_statements() {
        let t = Table::from_csv_str("a,b,c\n0,x,0\n0,x,1\n1,y,0\n1,y,1\n").unwrap();
        let sketch = ProgramSketch {
            statements: vec![
                StatementSketch::new(vec![0], 1), // b = f(a): deterministic
                StatementSketch::new(vec![0], 2), // c ⫫ a: fills to ⊥
            ],
        };
        let (filled, skipped, status) =
            fill_sketch_statements(&sketch, Parallelism::Sequential, |s| {
                fill_statement_sketch(&t, s, 0.1, &Budget::unlimited())
            });
        assert_eq!(filled.len(), 1);
        assert_eq!((skipped, status.is_complete()), (0, true)); // ⊥ is not a skip
        assert_eq!(filled[0].statement.on, "b");
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
        let f = unlimited(&t, &sketch, 0.0).unwrap();
        assert_eq!(f.statement.branches.len(), 8);
        assert_eq!(f.loss, 0);
        assert_eq!(f.support, 32);
    }

    #[test]
    fn exhausted_budget_aborts_fill() {
        use guardrail_governor::ExhaustionReason;
        let t = zip_city_table();
        let sketch = StatementSketch::new(vec![0], 1);
        // 8 rows to scan; a 2-unit cap trips on the first (batched) charge.
        let err = fill_statement_sketch(&t, &sketch, 0.25, &Budget::with_work_cap(2)).unwrap_err();
        assert_eq!(err.reason, ExhaustionReason::WorkCapReached);
        // An ample cap completes and matches the unlimited fill.
        let capped =
            fill_statement_sketch(&t, &sketch, 0.25, &Budget::with_work_cap(100)).unwrap().unwrap();
        let plain = unlimited(&t, &sketch, 0.25).unwrap();
        assert_eq!(capped.statement, plain.statement);
    }

    #[test]
    fn filled_program_detects_errors_via_dsl() {
        let t = zip_city_table();
        let filled = unlimited(&t, &StatementSketch::new(vec![0], 1), 0.25).unwrap();
        let program = Program { statements: vec![filled.statement] };
        let compiled = CompiledProgram::compile(&program, &t).unwrap();
        assert_eq!(compiled.violating_rows(&t), vec![4]); // the gibbon row
    }
}
