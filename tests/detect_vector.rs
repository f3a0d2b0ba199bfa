//! Differential suite for the vectorized decision-table engine.
//!
//! Every bulk operation of [`guardrail::dsl::CompiledProgram`] — check,
//! rectify, coerce, at any worker count — must be bit-identical to the
//! code-level test oracles (`check_table_reference` /
//! `rectify_table_reference`), the same discipline `tests/ci_kernel.rs`
//! applies to the fused CI kernel. On same-table cases the engine must
//! also agree with the value-level spec, `Program::check_row` /
//! `Program::execute_row`, row by row. The generators deliberately cover
//! the engine's edge regimes:
//!
//! * NULL determinants (conjunct literals and cells that are `Null`),
//! * un-interned literals (`literal_code == None` expected values and
//!   conjuncts over values absent from the table's dictionary),
//! * duplicate-condition branches (several branches covering the same key,
//!   merged into multi-branch outcomes),
//! * branches pinning different column subsets of one statement (one
//!   decision table per pinned-column set),
//! * chained statements whose conditions test a literal only an earlier
//!   statement's repair interns,
//! * cross-table binding (a program compiled against one table scanned
//!   over another whose dictionaries lack — or re-number — the training
//!   values, exercising the alien-code digit),
//! * Int/Float literals that collide under value equality (`1 == 1.0`).
//!
//! The same program × table cases also pin the guardrail's batched vetting
//! hook (`Guardrail::vet_rows`) to `Guardrail::apply` under every error
//! scheme. A dropped-column perturbation pins every entry point — `detect`,
//! `apply`, `vet_rows` and incremental detection — to the spec restricted
//! to the statements that bind, each reporting `Program::unbound` for the
//! rest.
//!
//! Deterministic tests pin the shapes that need large dictionaries: a
//! wildcard branch whose free column has more than 2²⁰ digits, and a
//! statement whose packed key domain overflows `u64`.

use guardrail::core::{ErrorScheme, Guardrail};
use guardrail::dsl::ast::{Branch, Condition, Program, Statement};
use guardrail::dsl::{CompiledProgram, DetectScratch, Unbound, Violation};
use guardrail::governor::Parallelism;
use guardrail::table::{Column, Dictionary, Table, TableBuilder, Value, NULL_CODE};
use proptest::prelude::*;

const COLS: [&str; 4] = ["c0", "c1", "c2", "c3"];

/// Values a generated table cell can hold.
fn cell_pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::from("v0"),
        Value::from("v1"),
    ]
}

/// Values a program literal can hold: the cell pool plus values never
/// interned in any generated table, and a float colliding with `Int(1)`
/// under value equality.
fn literal_pool() -> Vec<Value> {
    let mut pool = cell_pool();
    pool.push(Value::from("ghost"));
    pool.push(Value::Int(9));
    pool.push(Value::Float(1.0));
    pool
}

fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    let pool = cell_pool();
    let indices = proptest::collection::vec(0..pool.len(), COLS.len()..=COLS.len());
    proptest::collection::vec(indices, 1..max_rows).prop_map(|rows| {
        let pool = cell_pool();
        let mut builder = TableBuilder::new(COLS.iter().map(|c| c.to_string()).collect());
        for row in rows {
            builder.push_row(row.into_iter().map(|i| pool[i].clone()).collect()).unwrap();
        }
        builder.finish().unwrap()
    })
}

/// Seed for one branch: a literal index per given column, which given
/// columns the branch pins (at least one is always kept), an optional
/// repeated conjunct (same column constrained twice — possibly
/// contradictorily), and the assigned literal's index.
type BranchSeed = (Vec<usize>, Vec<bool>, Option<(usize, usize)>, usize);

fn arb_branch_seed() -> impl Strategy<Value = BranchSeed> {
    let lits = literal_pool().len();
    (
        proptest::collection::vec(0..lits, COLS.len()..=COLS.len()),
        // Mostly pin every given column, as the synthesizer does; the rest
        // drop a random subset so statements mix pinned-column sets.
        (0..3usize, proptest::collection::vec(any::<bool>(), COLS.len()..=COLS.len()))
            .prop_map(|(all, keep)| if all > 0 { vec![true; COLS.len()] } else { keep }),
        // The vendored proptest has no `option::of`; model Option by hand.
        (any::<bool>(), 0..COLS.len(), 0..lits).prop_map(|(some, gi, li)| some.then_some((gi, li))),
        0..lits,
    )
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    (
        0..COLS.len(),
        proptest::collection::vec(any::<bool>(), COLS.len()..=COLS.len()),
        proptest::collection::vec(arb_branch_seed(), 1..6),
    )
        .prop_filter_map("statement needs determinants", |(on_i, mask, seeds)| {
            let pool = literal_pool();
            let on = COLS[on_i].to_string();
            let given: Vec<String> = COLS
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != on_i && mask[i])
                .map(|(_, c)| c.to_string())
                .collect();
            if given.is_empty() {
                return None;
            }
            let branches = seeds
                .into_iter()
                .map(|(lit_is, keep, dup, lit_i)| {
                    let mut conjuncts: Vec<(String, Value)> = given
                        .iter()
                        .zip(&lit_is)
                        .zip(&keep)
                        .filter(|&(_, &k)| k)
                        .map(|((g, &li), _)| (g.clone(), pool[li].clone()))
                        .collect();
                    if conjuncts.is_empty() {
                        conjuncts.push((given[0].clone(), pool[lit_is[0]].clone()));
                    }
                    if let Some((gi, li)) = dup {
                        conjuncts.push((given[gi % given.len()].clone(), pool[li].clone()));
                    }
                    Branch {
                        condition: Condition::new(conjuncts),
                        target: on.clone(),
                        literal: pool[lit_i].clone(),
                    }
                })
                .collect();
            Some(Statement { given, on, branches })
        })
}

fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(arb_statement(), 1..4)
        .prop_map(|statements| Program { statements })
        .prop_filter("valid program", |p| p.validate().is_ok())
}

/// The spec's detection: per-row `Program::check_row`, row index set.
fn spec_check(program: &Program, table: &Table) -> Vec<Violation> {
    (0..table.num_rows())
        .flat_map(|row| {
            program
                .check_row(&table.row_owned(row).unwrap())
                .into_iter()
                .map(move |v| Violation { row, ..v })
        })
        .collect()
}

/// Asserts `rectified` holds, row by row, the spec's `execute_row` of
/// `original`.
fn assert_spec_rectified(program: &Program, original: &Table, rectified: &Table, context: &str) {
    for row in 0..original.num_rows() {
        let spec = program.execute_row(&original.row_owned(row).unwrap());
        assert_eq!(rectified.row_owned(row).unwrap(), spec, "{context}: row {row}");
    }
}

/// The coerce write protocol over a violation list: null every violated
/// dependent cell once. Returns the number of cells coerced.
fn coerce_by(compiled: &CompiledProgram, violations: &[Violation], table: &mut Table) -> usize {
    let mut coerced = 0;
    for v in violations {
        let col = table.column_mut(compiled.statements()[v.statement].on_col).unwrap();
        if col.code(v.row) != NULL_CODE {
            col.set_code(v.row, NULL_CODE);
            coerced += 1;
        }
    }
    coerced
}

/// `table` without column `drop`.
fn drop_column(table: &Table, drop: usize) -> Table {
    let names = table.schema().names();
    let kept = (0..table.num_columns()).filter(|&c| c != drop);
    Table::from_columns(
        kept.map(|c| (names[c].to_string(), table.column(c).unwrap().clone())).collect(),
    )
    .unwrap()
}

/// The program's statements that bind, and each one's program index.
fn bound_part(program: &Program, unbound: &[Unbound]) -> (Program, Vec<usize>) {
    let kept: Vec<usize> = (0..program.statements.len())
        .filter(|&i| unbound.iter().all(|u| u.statement != i))
        .collect();
    let statements = kept.iter().map(|&i| program.statements[i].clone()).collect();
    (Program { statements }, kept)
}

fn assert_same_cells(a: &Table, b: &Table, context: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{context}: row count");
    assert_eq!(a.num_columns(), b.num_columns(), "{context}: column count");
    for row in 0..a.num_rows() {
        for col in 0..a.num_columns() {
            assert_eq!(a.get(row, col), b.get(row, col), "{context}: cell ({row},{col})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vectorized_check_matches_reference(
        table in arb_table(120),
        other in arb_table(80),
        program in arb_program(),
    ) {
        let compiled = CompiledProgram::compile(&program, &table).unwrap();
        let reference = compiled.check_table_reference(&table);
        prop_assert_eq!(&compiled.check_table(&table), &reference);
        prop_assert_eq!(&spec_check(&program, &table), &reference, "spec");
        for threads in [2usize, 5] {
            prop_assert_eq!(
                &compiled.check_table_parallel(&table, Parallelism::threads(threads)),
                &reference,
                "{} threads", threads
            );
        }
        // The raw index form agrees field-for-field with the boundary form.
        let (mut raw, mut scratch) = (Vec::new(), DetectScratch::default());
        compiled.check_table_raw_into(&table, &mut raw, &mut scratch);
        prop_assert_eq!(raw.len(), reference.len());
        for (r, v) in raw.iter().zip(&reference) {
            prop_assert_eq!(
                (r.row, r.statement as usize, r.branch as usize),
                (v.row, v.statement, v.branch)
            );
        }
        // Cross-table binding: the program stays compiled against `table`
        // but scans `other`, whose dictionaries assign different (or no)
        // codes to the training values.
        prop_assert_eq!(
            compiled.check_table(&other),
            compiled.check_table_reference(&other)
        );
        // ... and both give the spec's answer there, restricted to the
        // statements that bind to `other`.
        let (bound, index) = bound_part(&program, &program.unbound(other.schema()));
        let spec_other: Vec<Violation> = spec_check(&bound, &other)
            .into_iter()
            .map(|v| Violation { statement: index[v.statement], ..v })
            .collect();
        prop_assert_eq!(compiled.check_table(&other), spec_other, "cross-table spec");
        // The vetting hooks agree with bulk `apply` under every scheme.
        let guard = Guardrail::from_program(program.clone());
        let all: Vec<usize> = (0..table.num_rows()).collect();
        for scheme in
            [ErrorScheme::Raise, ErrorScheme::Ignore, ErrorScheme::Coerce, ErrorScheme::Rectify]
        {
            let (applied, report) = guard.apply(&table, scheme);
            let vet = guard.vet_rows(&table, &all, scheme).unwrap();
            prop_assert_eq!(vet.table.to_csv_string(), applied.to_csv_string(), "{:?}", scheme);
            prop_assert_eq!(&vet.violations, &report.violations, "{:?}", scheme);
            prop_assert_eq!(vet.cells_changed, report.cells_changed, "{:?}", scheme);
        }
    }

    #[test]
    fn vectorized_rectify_matches_reference(
        table in arb_table(120),
        other in arb_table(80),
        program in arb_program(),
    ) {
        for threads in [1usize, 3] {
            let (mut vec_t, mut ref_t) = (table.clone(), table.clone());
            let compiled = CompiledProgram::compile(&program, &table).unwrap();
            let vec_changed = compiled.rectify_table_parallel(&mut vec_t, Parallelism::threads(threads));
            let ref_changed = compiled.rectify_table_reference(&mut ref_t);
            prop_assert_eq!(vec_changed, ref_changed, "{} threads: change count", threads);
            assert_same_cells(&vec_t, &ref_t, &format!("rectify, {threads} threads"));
            assert_spec_rectified(&program, &table, &vec_t, &format!("spec, {threads} threads"));
        }
        // Cross-table rectify: writes intern literals into the scanned
        // table's dictionary, not the compile-time one.
        let (mut vec_t, mut ref_t) = (other.clone(), other.clone());
        let compiled = CompiledProgram::compile(&program, &table).unwrap();
        let vec_changed = compiled.rectify_table_parallel(&mut vec_t, Parallelism::threads(2));
        let ref_changed = compiled.rectify_table_reference(&mut ref_t);
        prop_assert_eq!(vec_changed, ref_changed, "cross-table change count");
        assert_same_cells(&vec_t, &ref_t, "cross-table rectify");
        let (bound, _) = bound_part(&program, &program.unbound(other.schema()));
        assert_spec_rectified(&bound, &other, &vec_t, "cross-table spec rectify");
    }

    #[test]
    fn dropped_column_runs_only_the_bound_statements(
        full in arb_table(120),
        program in arb_program(),
        drop in 0..COLS.len(),
    ) {
        let table = drop_column(&full, drop);
        let unbound = program.unbound(table.schema());
        let (bound, index) = bound_part(&program, &unbound);
        let spec: Vec<Violation> = spec_check(&bound, &table)
            .into_iter()
            .map(|v| Violation { statement: index[v.statement], ..v })
            .collect();
        let guard = Guardrail::from_program(program.clone());
        let report = guard.detect(&table);
        prop_assert_eq!(&report.violations, &spec);
        prop_assert_eq!(&report.unbound, &unbound);
        let all: Vec<usize> = (0..table.num_rows()).collect();
        for scheme in
            [ErrorScheme::Raise, ErrorScheme::Ignore, ErrorScheme::Coerce, ErrorScheme::Rectify]
        {
            let (applied, applied_report) = guard.apply(&table, scheme);
            prop_assert_eq!(&applied_report.violations, &spec, "{:?}", scheme);
            prop_assert_eq!(&applied_report.unbound, &unbound, "{:?}", scheme);
            let mut expected = table.clone();
            match scheme {
                ErrorScheme::Raise | ErrorScheme::Ignore => {}
                ErrorScheme::Coerce => {
                    for v in &spec {
                        let col = expected.schema().index_of(&v.attribute).unwrap();
                        expected.column_mut(col).unwrap().set_code(v.row, NULL_CODE);
                    }
                }
                ErrorScheme::Rectify => {
                    assert_spec_rectified(&bound, &table, &applied, "bound statements");
                    expected = applied.clone();
                }
            }
            assert_same_cells(&applied, &expected, &format!("{scheme:?}"));
            let vet = guard.vet_rows(&table, &all, scheme);
            prop_assert_eq!(vet.is_some(), !index.is_empty(), "{:?}", scheme);
            if let Some(vet) = vet {
                prop_assert_eq!(vet.table.to_csv_string(), applied.to_csv_string());
                prop_assert_eq!((&vet.violations, &vet.unbound), (&spec, &unbound));
            }
        }
        let incremental = guard.incremental(&table);
        prop_assert_eq!(incremental.is_some(), !index.is_empty());
        if let Some(det) = incremental {
            prop_assert_eq!(det.violations(), spec.as_slice());
            prop_assert_eq!(det.compiled().unbound(), unbound.as_slice());
        }
    }

    #[test]
    fn vectorized_coerce_matches_reference(
        table in arb_table(120),
        program in arb_program(),
    ) {
        let compiled = CompiledProgram::compile(&program, &table).unwrap();
        // Reference: the oracle's check + the coerce write protocol; the
        // spec's violations must drive the same writes.
        let mut ref_t = table.clone();
        let ref_coerced = coerce_by(&compiled, &compiled.check_table_reference(&table), &mut ref_t);
        let mut spec_t = table.clone();
        prop_assert_eq!(coerce_by(&compiled, &spec_check(&program, &table), &mut spec_t), ref_coerced);
        assert_same_cells(&spec_t, &ref_t, "spec coerce");
        for threads in [1usize, 4] {
            let mut vec_t = table.clone();
            let violations = compiled.check_table_parallel(&table, Parallelism::threads(threads));
            let coerced = compiled.coerce_violations(&mut vec_t, &violations);
            prop_assert_eq!(coerced, ref_coerced, "{} threads: coerce count", threads);
            assert_same_cells(&vec_t, &ref_t, &format!("coerce, {threads} threads"));
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases (kept out of proptest so they always run).
// ---------------------------------------------------------------------------

fn table_of(rows: &[[&str; 2]]) -> Table {
    let mut builder = TableBuilder::new(vec!["a".to_string(), "b".to_string()]);
    for row in rows {
        builder
            .push_row(
                row.iter()
                    .map(|s| if s.is_empty() { Value::Null } else { Value::from(*s) })
                    .collect(),
            )
            .unwrap();
    }
    builder.finish().unwrap()
}

fn statement(branches: Vec<(Vec<(&str, Value)>, Value)>) -> Program {
    Program {
        statements: vec![Statement {
            given: vec!["a".to_string()],
            on: "b".to_string(),
            branches: branches
                .into_iter()
                .map(|(conj, literal)| Branch {
                    condition: Condition::new(
                        conj.into_iter().map(|(c, v)| (c.to_string(), v)).collect(),
                    ),
                    target: "b".to_string(),
                    literal,
                })
                .collect(),
        }],
    }
}

#[test]
fn duplicate_condition_branches_emit_one_violation_each() {
    let table = table_of(&[["x", "p"], ["x", "q"], ["y", "p"]]);
    // Two branches with the same condition and *different* literals: no
    // value satisfies both, so every matching row violates at least one.
    let program = statement(vec![
        (vec![("a", Value::from("x"))], Value::from("p")),
        (vec![("a", Value::from("x"))], Value::from("q")),
    ]);
    let compiled = CompiledProgram::compile(&program, &table).unwrap();
    let violations = compiled.check_table(&table);
    assert_eq!(violations, compiled.check_table_reference(&table));
    // Rows 0 and 1 each violate exactly one of the two branches.
    assert_eq!(violations.len(), 2);
    assert_eq!((violations[0].row, violations[0].branch), (0, 1));
    assert_eq!((violations[1].row, violations[1].branch), (1, 0));
}

#[test]
fn null_determinants_match_null_conditions_only() {
    let table = table_of(&[["", "p"], ["x", "p"], ["", "q"]]);
    let program = statement(vec![(vec![("a", Value::Null)], Value::from("p"))]);
    let compiled = CompiledProgram::compile(&program, &table).unwrap();
    let violations = compiled.check_table(&table);
    assert_eq!(violations, compiled.check_table_reference(&table));
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].row, 2);
}

#[test]
fn uninterned_expected_literal_flags_every_matching_row() {
    let table = table_of(&[["x", "p"], ["x", "q"]]);
    let program = statement(vec![(vec![("a", Value::from("x"))], Value::from("ghost"))]);
    let compiled = CompiledProgram::compile(&program, &table).unwrap();
    let violations = compiled.check_table(&table);
    assert_eq!(violations, compiled.check_table_reference(&table));
    assert_eq!(violations.len(), 2, "ghost is interned nowhere: both rows disagree");
}

#[test]
fn contradictory_repeated_conjunct_matches_nothing() {
    let table = table_of(&[["x", "p"], ["y", "q"]]);
    let program =
        statement(vec![(vec![("a", Value::from("x")), ("a", Value::from("y"))], Value::from("p"))]);
    let compiled = CompiledProgram::compile(&program, &table).unwrap();
    assert!(compiled.check_table(&table).is_empty());
    assert!(compiled.check_table_reference(&table).is_empty());
}

#[test]
fn codes_minted_after_compile_match_no_branch() {
    // Compile against a table, then scan a second table where the branch's
    // determinant value has a different code and extra values exist beyond
    // the training dictionary (the alien digit).
    let train = table_of(&[["x", "p"], ["y", "q"]]);
    let program = statement(vec![(vec![("a", Value::from("x"))], Value::from("p"))]);
    let compiled = CompiledProgram::compile(&program, &train).unwrap();
    let serve = table_of(&[["z", "p"], ["y", "r"], ["x", "q"]]);
    assert_eq!(compiled.check_table(&serve), compiled.check_table_reference(&serve));
}

#[test]
fn signed_zero_determinant_matches_like_the_spec() {
    // `-0.0 == 0` under value equality, so the spec fires the `x = 0`
    // branch on row 1; the engine must not give `-0.0` a code of its own.
    let table = Table::from_csv_str("x,y\n0,a\n-0.0,b\n").unwrap();
    let program =
        guardrail::dsl::parse_program("GIVEN x ON y HAVING IF x = 0 THEN y <- \"a\";").unwrap();
    let spec = spec_check(&program, &table);
    assert_eq!(spec.iter().map(|v| v.row).collect::<Vec<_>>(), vec![1]);
    let compiled = CompiledProgram::compile(&program, &table).unwrap();
    assert_eq!(compiled.check_table(&table), spec);
}

// ---------------------------------------------------------------------------
// Shapes that need large dictionaries.
// ---------------------------------------------------------------------------

/// One same-table case through every check: engine check, rectify and
/// coerce against the code-level references and the spec, and
/// `implied_assignments` against rectifying the rows that carry each pin
/// set. `probes` pairs a pin set with the assignments it must imply.
type Probe = (Vec<(usize, Value)>, Vec<(usize, Value)>);

fn assert_engine_agrees(program: &Program, table: &Table, probes: &[Probe]) {
    let compiled = CompiledProgram::compile(program, table).unwrap();
    let reference = compiled.check_table_reference(table);
    assert!(!reference.is_empty(), "the case must exercise the violation path");
    assert_eq!(compiled.check_table(table), reference, "check");
    assert_eq!(compiled.check_table_parallel(table, Parallelism::threads(3)), reference);
    assert_eq!(spec_check(program, table), reference, "spec check");

    let mut coerced = table.clone();
    let changed = compiled.coerce_violations(&mut coerced, &compiled.check_table(table));
    let expected: Vec<Vec<Value>> = {
        let mut ref_t = table.clone();
        assert_eq!(coerce_by(&compiled, &spec_check(program, table), &mut ref_t), changed);
        (0..ref_t.num_rows()).map(|r| ref_t.row_owned(r).unwrap().values().to_vec()).collect()
    };
    for (row, cells) in expected.iter().enumerate() {
        assert_eq!(coerced.row_owned(row).unwrap().values(), cells.as_slice(), "coerce row {row}");
    }
    drop(coerced);

    let mut rectified = table.clone();
    let changed = compiled.rectify_table_parallel(&mut rectified, Parallelism::threads(2));
    assert!(changed > 0);
    let expected: Vec<Vec<Value>> = {
        let mut ref_t = table.clone();
        assert_eq!(compiled.rectify_table_reference(&mut ref_t), changed, "rectify change count");
        (0..ref_t.num_rows()).map(|r| ref_t.row_owned(r).unwrap().values().to_vec()).collect()
    };
    for (row, cells) in expected.iter().enumerate() {
        assert_eq!(
            rectified.row_owned(row).unwrap().values(),
            cells.as_slice(),
            "rectify row {row}"
        );
    }
    assert_spec_rectified(program, table, &rectified, "spec rectify");

    for (pins, implied) in probes {
        assert_eq!(&compiled.implied_assignments(table, pins), implied, "pins {pins:?}");
        let pinned_rows: Vec<usize> = (0..table.num_rows())
            .filter(|&r| pins.iter().all(|(c, v)| table.get(r, *c).as_ref() == Some(v)))
            .collect();
        assert!(!pinned_rows.is_empty(), "pins {pins:?} must select rows");
        for &row in &pinned_rows {
            for (col, value) in implied {
                assert_eq!(rectified.get(row, *col).as_ref(), Some(value), "row {row}");
            }
        }
    }
}

fn branch(conjuncts: &[(&str, Value)], on: &str, literal: &str) -> Branch {
    Branch {
        condition: Condition::new(
            conjuncts.iter().map(|(c, v)| (c.to_string(), v.clone())).collect(),
        ),
        target: on.to_string(),
        literal: Value::from(literal),
    }
}

#[test]
fn wildcard_branch_over_a_column_past_two_to_the_twenty_digits() {
    // Column `b` holds 2²⁰ − 1 distinct values in its dictionary (2²⁰ + 1
    // digits with NULL and alien) although the table has six rows — the
    // shape of a small batch gathered from a large relation, since
    // `Table::take` keeps the source dictionaries.
    let rows: [(&str, i64, &str); 6] =
        [("x", 0, "p"), ("x", 1, "q"), ("x", 2, "r"), ("y", 0, "p"), ("y", 1, "q"), ("x", 0, "")];
    let mut dict = Dictionary::new();
    for i in 0..(1i64 << 20) - 1 {
        dict.encode(Value::Int(i));
    }
    let b_codes = rows.iter().map(|r| dict.lookup(&Value::Int(r.1)).unwrap()).collect();
    let cell = |s: &str| if s.is_empty() { Value::Null } else { Value::from(s) };
    let table = Table::from_columns(vec![
        ("a", Column::from_values(rows.iter().map(|r| Value::from(r.0)))),
        ("b", Column::from_parts(b_codes, dict)),
        ("c", Column::from_values(rows.iter().map(|r| cell(r.2)))),
    ])
    .unwrap();
    let (x, y) = (Value::from("x"), Value::from("y"));
    // Branch 0 leaves `b` free; branches 1–2 pin it. Rows (x, 0) are
    // covered by branches 0 and 1, so the cascade ends on branch 1's "p".
    let program = Program {
        statements: vec![Statement {
            given: vec!["a".to_string(), "b".to_string()],
            on: "c".to_string(),
            branches: vec![
                branch(&[("a", x.clone())], "c", "q"),
                branch(&[("a", x.clone()), ("b", Value::Int(0))], "c", "p"),
                branch(&[("b", Value::Int(1)), ("a", y.clone())], "c", "p"),
            ],
        }],
    };
    let compiled = CompiledProgram::compile(&program, &table).unwrap();
    assert_eq!(compiled.legacy_statement_count(), 1, "two pinned-column sets, two tables");
    drop(compiled);
    let probes = [
        (vec![(0, x.clone()), (1, Value::Int(0))], vec![(2, Value::from("p"))]),
        (vec![(0, x.clone()), (1, Value::Int(2))], vec![(2, Value::from("q"))]),
        (vec![(0, y.clone()), (1, Value::Int(1))], vec![(2, Value::from("p"))]),
        // Uncovered key: the dependent keeps its (unknown) raw state.
        (vec![(0, y), (1, Value::Int(0))], vec![]),
    ];
    assert_engine_agrees(&program, &table, &probes);
}

#[test]
fn determinant_domain_past_u64_keys_on_code_vectors() {
    // Five determinants with 8,200 distinct values each: Π(card + 2) =
    // 8202⁵ > 2⁶⁴, so the statement cannot pack its key into a u64.
    const ROWS: i64 = 8_200;
    const MULTIPLIERS: [i64; 5] = [1, 3, 7, 9, 11]; // coprime with 8,200
    let names: Vec<String> = (0..5).map(|k| format!("d{k}")).chain(["y".to_string()]).collect();
    let det = |row: i64| MULTIPLIERS.map(|m| (row * m) % ROWS);
    let label = |row: i64| format!("y{}", row % 3);
    let mut builder = TableBuilder::new(names.clone());
    for row in 0..ROWS {
        let mut cells: Vec<Value> = det(row).iter().map(|&v| Value::Int(v)).collect();
        cells.push(Value::from(if row % 7 == 0 { "bad".to_string() } else { label(row) }));
        builder.push_row(cells).unwrap();
    }
    let table = builder.finish().unwrap();
    let pin_row = |row: i64| -> Vec<(&str, Value)> {
        names[..5].iter().map(String::as_str).zip(det(row).map(Value::Int)).collect()
    };
    let mut branches: Vec<Branch> =
        (0..60).map(|row| branch(&pin_row(row), "y", &label(row))).collect();
    // A duplicate condition with a different literal: rows keyed like row
    // 5 are covered twice and always violate one branch.
    branches.push(branch(&pin_row(5), "y", "other"));
    let program = Program {
        statements: vec![Statement { given: names[..5].to_vec(), on: "y".to_string(), branches }],
    };
    let compiled = CompiledProgram::compile(&program, &table).unwrap();
    assert_eq!(compiled.legacy_statement_count(), 0, "every branch pins all five columns");
    let pins = |row: i64| -> Vec<(usize, Value)> { (0..5).zip(det(row).map(Value::Int)).collect() };
    let probes = [
        (pins(14), vec![(5, Value::from(label(14)))]),
        (pins(5), vec![(5, Value::from("other"))]),
        (pins(4_000), vec![]),
    ];
    assert_engine_agrees(&program, &table, &probes);
}
