//! Differential property tests for the SQL planner: on random well-typed
//! queries, the optimized plan must produce exactly the output of the
//! unoptimized (`with_pushdown(false)`) reference plan, under every error
//! scheme. The reference plan's vetting is itself pinned to the DSL spec
//! (`Program::check_row` / `execute_row`) applied row by row.

use guardrail::prelude::*;
use guardrail::sqlexec::SqlError;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The shared scenario: `city` functionally determines `income` in the
/// clean data (so the guardrail learns `city -> income`), `note` is free
/// text no constraint binds, and the dirty table mixes clean rows,
/// violations, and a NULL determinant.
struct Fixture {
    guard: Guardrail,
    model: Arc<NaiveBayes>,
    dirty: Table,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let mut csv = String::from("city,income,note\n");
        for i in 0..120 {
            csv.push_str(&format!("A,high,n{i}\nB,low,n{i}\nC,mid,n{i}\n"));
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::builder().fit(&clean).unwrap();
        let model = Arc::new(NaiveBayes::fit(&clean, 1));

        let mut b = TableBuilder::new(vec!["city".into(), "income".into(), "note".into()]);
        let rows: &[(&str, &str, &str)] = &[
            ("A", "low", "x"),  // violation
            ("A", "high", "y"), // clean
            ("B", "low", "z"),  // clean
            ("B", "mid", "x"),  // violation
            ("C", "mid", "y"),  // clean
            ("A", "low", "w"),  // violation
            ("C", "high", "x"), // violation
            ("B", "low", "q"),  // clean
            ("A", "high", "x"), // clean
            ("C", "mid", "z"),  // clean
        ];
        for &(c, i, n) in rows {
            b.push_row(vec![Value::from(c), Value::from(i), Value::from(n)]).unwrap();
        }
        // A NULL determinant: vetting and pushdown must agree on its fate.
        b.push_row(vec![Value::Null, Value::from("high"), Value::from("z")]).unwrap();
        let dirty = b.finish().unwrap();
        Fixture { guard, model, dirty }
    })
}

fn catalog(fx: &Fixture) -> Catalog {
    let mut c = Catalog::new();
    c.add_table("d", fx.dirty.clone());
    c.add_model("m", fx.model.clone());
    c
}

/// Conjunct atoms over base columns: in-dictionary pins, out-of-dictionary
/// pins (contradiction bait), inequalities, a NULL comparison (never
/// truthy), and PREDICT calls in the WHERE clause itself.
fn arb_base_atom() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![Just("A"), Just("B"), Just("C"), Just("Z")]
            .prop_map(|v| format!("city = '{v}'")),
        prop_oneof![Just("high"), Just("low"), Just("mid"), Just("none")]
            .prop_map(|v| format!("income = '{v}'")),
        prop_oneof![Just("high"), Just("low")].prop_map(|v| format!("income != '{v}'")),
        prop_oneof![Just("x"), Just("y"), Just("zz")].prop_map(|v| format!("note = '{v}'")),
        Just("city = NULL".to_string()),
        Just("PREDICT(m) = 'high'".to_string()),
        Just("PREDICT(m) != 'low'".to_string()),
    ]
}

/// AND/OR trees over the atoms; when the projection defines alias `p`,
/// atoms may reference it (those conjuncts must never cross the barrier).
fn arb_where(allow_alias: bool) -> impl Strategy<Value = String> {
    let atom = if allow_alias {
        prop_oneof![
            arb_base_atom().boxed(),
            arb_base_atom().boxed(),
            Just("p = 'high'".to_string()).boxed(),
            Just("p != 'mid'".to_string()).boxed(),
        ]
        .boxed()
    } else {
        arb_base_atom().boxed()
    };
    atom.prop_recursive(3, 12, 2, |inner| {
        (inner.clone(), prop_oneof![Just("AND"), Just("OR")], inner)
            .prop_map(|(l, op, r)| format!("({l} {op} {r})"))
    })
}

#[derive(Clone, Debug, Copy, PartialEq)]
enum Select {
    Plain,
    Predicted,
    Aliased,
}

impl Select {
    fn sql(self) -> &'static str {
        match self {
            Select::Plain => "city, income",
            Select::Predicted => "PREDICT(m) AS p, city, income",
            Select::Aliased => "city AS c, PREDICT(m) AS p",
        }
    }
}

fn arb_scheme() -> impl Strategy<Value = ErrorScheme> {
    prop_oneof![
        Just(ErrorScheme::Raise),
        Just(ErrorScheme::Ignore),
        Just(ErrorScheme::Coerce),
        Just(ErrorScheme::Rectify),
    ]
}

fn arb_query() -> impl Strategy<Value = String> {
    let select = prop_oneof![Just(Select::Plain), Just(Select::Predicted), Just(Select::Aliased)];
    select.prop_flat_map(|sel| {
        let wher = prop_oneof![
            Just(None).boxed(),
            arb_where(sel != Select::Plain).prop_map(Some).boxed(),
        ];
        let limit = prop_oneof![Just(None).boxed(), (0usize..6).prop_map(Some).boxed(),];
        (Just(sel), wher, limit).prop_map(|(sel, wher, limit)| {
            let mut sql = format!("SELECT {} FROM d", sel.sql());
            if let Some(w) = wher {
                sql.push_str(&format!(" WHERE {w}"));
            }
            if let Some(n) = limit {
                sql.push_str(&format!(" LIMIT {n}"));
            }
            sql
        })
    })
}

/// Runs one query both ways and demands identical observable behaviour:
/// same table bytes on success, or a `GuardrailRaise` from both.
fn assert_differential(sql: &str, scheme: ErrorScheme) -> Result<(), TestCaseError> {
    let fx = fixture();
    let c = catalog(fx);
    let optimized = Executor::new(&c).with_guardrail(&fx.guard, scheme).run(sql);
    let naive = Executor::new(&c).with_guardrail(&fx.guard, scheme).with_pushdown(false).run(sql);
    match (optimized, naive) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(
                a.table.to_csv_string(),
                b.table.to_csv_string(),
                "row divergence on {} under {:?}",
                sql,
                scheme
            );
        }
        (Err(SqlError::GuardrailRaise { .. }), Err(SqlError::GuardrailRaise { .. })) => {}
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "outcome divergence on {sql} under {scheme:?}: optimized={:?} naive={:?}",
                a.err(),
                b.err()
            )));
        }
    }
    Ok(())
}

/// `fx.dirty` vetted row by row through the AST spec under `scheme`, plus
/// the index of the first dirty row.
fn spec_vetted(fx: &Fixture, scheme: ErrorScheme) -> (Table, Option<usize>) {
    let program = fx.guard.program();
    let mut b =
        TableBuilder::new(fx.dirty.schema().names().iter().map(|n| n.to_string()).collect());
    let mut first_dirty = None;
    for i in 0..fx.dirty.num_rows() {
        let mut row = fx.dirty.row_owned(i).unwrap();
        let violations = program.check_row(&row);
        if !violations.is_empty() {
            first_dirty = first_dirty.or(Some(i));
        }
        match scheme {
            ErrorScheme::Raise | ErrorScheme::Ignore => {}
            ErrorScheme::Coerce => {
                for v in &violations {
                    row.set_by_name(&v.attribute, Value::Null);
                }
            }
            ErrorScheme::Rectify => row = program.execute_row(&row),
        }
        b.push_row(row.into_values()).unwrap();
    }
    (b.finish().unwrap(), first_dirty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The reference plan's vetting is the spec's: a guarded naive run
    /// equals an unguarded naive run over the spec-vetted rows, and under
    /// `Raise` a query that calls a model aborts on the first dirty row.
    #[test]
    fn naive_guarded_matches_spec_vetted_copy(sql in arb_query(), scheme in arb_scheme()) {
        let fx = fixture();
        let c = catalog(fx);
        let guarded =
            Executor::new(&c).with_guardrail(&fx.guard, scheme).with_pushdown(false).run(&sql);
        let intercepts = sql.contains("PREDICT");
        let (vetted, first_dirty) = spec_vetted(fx, scheme);
        if intercepts && scheme == ErrorScheme::Raise {
            match (guarded, first_dirty) {
                (Err(SqlError::GuardrailRaise { row, .. }), Some(first)) => {
                    prop_assert_eq!(row, first, "{}", sql);
                }
                (Ok(_), None) => {}
                (other, first) => {
                    return Err(TestCaseError::fail(format!(
                        "{sql}: {:?} with first dirty row {first:?}", other.err())));
                }
            }
            return Ok(());
        }
        let mut spec = Catalog::new();
        spec.add_table("d", if intercepts { vetted } else { fx.dirty.clone() });
        spec.add_model("m", fx.model.clone());
        let expected = Executor::new(&spec).with_pushdown(false).run(&sql);
        match (guarded, expected) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                a.table.to_csv_string(),
                b.table.to_csv_string(),
                "{} under {:?}",
                sql,
                scheme
            ),
            (a, b) => prop_assert_eq!(a.err(), b.err(), "{} under {:?}", sql, scheme),
        }
    }

    /// The optimizer is semantics-preserving: identical rows (or identical
    /// Raise abort) on arbitrary WHERE trees — including contradictions,
    /// constraint-entailed conjuncts, PREDICT and alias references, NULL
    /// comparisons — across all four error schemes.
    #[test]
    fn optimized_matches_naive(sql in arb_query(), scheme in arb_scheme()) {
        assert_differential(&sql, scheme)?;
    }
}

/// Known-tricky shapes pinned explicitly so a shrunk proptest failure is
/// never the only witness.
#[test]
fn pinned_regression_queries() {
    let cases: &[(&str, ErrorScheme)] = &[
        // Contradiction (out-of-dictionary pin) with inference in scope.
        ("SELECT PREDICT(m) AS p, city FROM d WHERE city = 'Z'", ErrorScheme::Rectify),
        // Same contradiction must NOT empty the scan under Raise.
        ("SELECT PREDICT(m) AS p, city FROM d WHERE city = 'Z'", ErrorScheme::Raise),
        // Entailed conjunct: city = 'A' forces income = 'high' post-rectify.
        (
            "SELECT PREDICT(m) AS p, city FROM d WHERE city = 'A' AND income = 'high'",
            ErrorScheme::Rectify,
        ),
        // Duplicate conjunct: pruning must keep at least one copy.
        ("SELECT city, income FROM d WHERE city = 'A' AND city = 'A'", ErrorScheme::Ignore),
        // NULL comparison is never truthy — contradiction to empty scan.
        ("SELECT PREDICT(m) AS p FROM d WHERE city = NULL", ErrorScheme::Coerce),
        // Alias conjunct must stay residual above the barrier.
        (
            "SELECT city AS c, PREDICT(m) AS p FROM d WHERE p = 'high' AND city = 'B'",
            ErrorScheme::Rectify,
        ),
        // OR tree: no conjunct-level pushdown applies to the disjunction.
        (
            "SELECT PREDICT(m) AS p, city FROM d \
             WHERE (city = 'A' OR income = 'low') AND note != 'zz'",
            ErrorScheme::Rectify,
        ),
        // LIMIT 0 under Raise must still vet (and therefore abort).
        ("SELECT PREDICT(m) AS p FROM d LIMIT 0", ErrorScheme::Raise),
        // LIMIT with residual filter: plan-limit stops after the residual.
        ("SELECT PREDICT(m) AS p, city FROM d WHERE p != 'mid' LIMIT 2", ErrorScheme::Rectify),
    ];
    for &(sql, scheme) in cases {
        assert_differential(sql, scheme).unwrap_or_else(|e| panic!("{e}"));
    }
}
