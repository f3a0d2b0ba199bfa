//! Robustness suite: Guardrail under fault injection and resource pressure.
//!
//! Two invariants, checked end-to-end through the public facade:
//!
//! 1. **Never panic.** Malformed CSV, binary garbage, and unsupported
//!    schemas surface as typed errors ([`TableError`], [`GuardrailError`]),
//!    never as panics.
//! 2. **Always return within budget.** Budgeted synthesis on adversarial,
//!    dataset-scale input returns promptly with a *valid* (possibly empty)
//!    program and an honest [`DegradationReport`] — exhaustion is an anytime
//!    result, not an error.

use std::time::{Duration, Instant};

use guardrail::core::GuardrailError;
use guardrail::datasets::chaos;
use guardrail::governor::{Budget, Exhausted};
use guardrail::pgm::{
    learn_cpdag, pc_algorithm, DataOracle, EncodedData, LearnConfig, PcConfig, SlowOracle,
};
use guardrail::prelude::*;
use guardrail::synth::sketch::StatementSketch;
use guardrail::synth::{fill_statement_sketch, synthesize_from_cpdag};
use guardrail::table::TableError;
use proptest::prelude::*;

/// Generous wall-clock ceiling for "returned promptly": orders of magnitude
/// above any budget used here, but small enough to catch a runaway loop even
/// on a slow debug build.
const PROMPT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Never panic: malformed bytes → typed errors
// ---------------------------------------------------------------------------

#[test]
fn malformed_csv_is_a_typed_error() {
    let err = Table::from_csv_str(&chaos::ragged_csv(3, 100)).unwrap_err();
    assert!(matches!(err, TableError::Csv { .. }), "ragged rows: {err:?}");

    let err = Table::from_csv_str(&chaos::quote_bomb()).unwrap_err();
    assert!(matches!(err, TableError::Csv { .. }), "quote bomb: {err:?}");

    assert!(matches!(Table::from_csv_str("").unwrap_err(), TableError::Empty));
}

#[test]
fn binary_garbage_never_panics() {
    for seed in 0..64 {
        // Any outcome is fine — a table of opaque strings or a typed error —
        // as long as the parser neither panics nor loops.
        let _ = Table::from_csv_bytes(chaos::garbage_bytes(seed, 2048));
    }
}

#[test]
fn oversized_schema_is_a_typed_error() {
    let wide = Table::from_csv_str(&chaos::wide_csv(200, 6)).expect("syntactically valid");
    match Guardrail::builder().fit(&wide) {
        Err(GuardrailError::TooManyAttributes { got, max }) => {
            assert_eq!(got, 200);
            assert!(max < 200);
        }
        other => panic!("expected TooManyAttributes, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Always return within budget: anytime synthesis under pressure
// ---------------------------------------------------------------------------

#[test]
fn deadline_on_dataset_scale_input_degrades_gracefully() {
    // Dense pairwise dependence: the CPDAG stays largely undirected, so the
    // MEC is combinatorially large and an unbudgeted run would grind through
    // thousands of DAG fills. 50ms cannot finish that.
    let table = chaos::entangled_table(16, 4000, 42);
    let start = Instant::now();
    let guard = Guardrail::builder()
        .budget(Budget::with_deadline(Duration::from_millis(50)))
        .fit(&table)
        .expect("schema is supported; exhaustion must not be an error");
    assert!(start.elapsed() < PROMPT, "took {:?}", start.elapsed());

    assert!(!guard.degradation().is_complete(), "50ms cannot complete this input");
    // The anytime result is still a valid, usable program.
    guard.program().validate().expect("degraded program must be well-formed");
    let report = guard.detect(&table);
    assert_eq!(report.rows_checked, table.num_rows());
}

#[test]
fn budget_ladder_always_returns_a_valid_program() {
    let table = chaos::entangled_table(10, 800, 7);
    let budgets = [
        Budget::with_deadline(Duration::ZERO),
        Budget::with_deadline(Duration::from_millis(1)),
        Budget::with_deadline(Duration::from_millis(50)),
        Budget::with_work_cap(0),
        Budget::with_work_cap(1),
        Budget::with_work_cap(64),
        Budget::with_deadline_and_work_cap(Duration::from_millis(10), 10_000),
    ];
    for budget in &budgets {
        let start = Instant::now();
        let guard = Guardrail::builder()
            .budget(budget.clone())
            .fit(&table)
            .expect("exhaustion is not an error");
        assert!(start.elapsed() < PROMPT, "took {:?}", start.elapsed());
        guard.program().validate().expect("program must be well-formed at every budget");
        // The program must also be usable for detection and repair.
        let (_, _report) = guard.apply(&table, ErrorScheme::Rectify);
    }
}

#[test]
fn expired_deadline_stops_synthesis() {
    let table = chaos::entangled_table(12, 1000, 5);
    let budget = Budget::with_deadline(Duration::ZERO);
    let guard =
        Guardrail::builder().budget(budget).fit(&table).expect("exhaustion is not an error");
    assert!(!guard.degradation().is_complete(), "an expired run must report degradation");
}

#[test]
fn slow_oracle_deadline_bounds_pc_wall_clock() {
    // Each CI test spins ~1ms of opaque arithmetic: a deterministic stand-in
    // for expensive tests. Unbudgeted PC on 12 variables would run hundreds
    // of them; the deadline must cut it off after a handful.
    let table = chaos::entangled_table(12, 400, 11);
    let encoded = EncodedData::from_table(&table);
    let slow = SlowOracle::new(DataOracle::new(&encoded), 2_000_000);
    let start = Instant::now();
    let (pdag, status) = pc_algorithm(
        &slow,
        PcConfig { max_cond_size: 3, ..PcConfig::default() },
        &Budget::with_deadline(Duration::from_millis(50)),
    );
    assert!(start.elapsed() < PROMPT, "took {:?}", start.elapsed());
    assert!(!status.is_complete(), "slow oracle cannot finish inside 50ms");
    assert_eq!(pdag.num_nodes(), 12, "degraded skeleton still covers all variables");
}

#[test]
fn near_uniform_noise_completes_without_inventing_structure() {
    // I.i.d. noise has nothing to synthesize: the run should complete on an
    // unlimited budget and flag at most a sliver of its own training rows.
    let table = chaos::near_uniform_table(6, 1500, 4, 9);
    let guard = Guardrail::builder().fit(&table).unwrap();
    assert!(guard.degradation().is_complete());
    let dirty = guard.detect(&table).dirty_rows().len();
    assert!(dirty <= table.num_rows() / 5, "{dirty} of {} rows flagged", table.num_rows());
}

// ---------------------------------------------------------------------------
// Governor properties
// ---------------------------------------------------------------------------

/// A small discoverable table (zip → city with mild noise) plus extras, used
/// where the property needs real structure but cheap synthesis.
fn structured_table(seed: u64, rows: usize) -> Table {
    let mut csv = String::from("zip,city,extra\n");
    let mut s = seed.wrapping_mul(2654435761).max(1);
    for _ in 0..rows {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let z = s % 6;
        let c = if s % 97 == 0 { (z + 1) % 3 } else { z % 3 };
        let e = (s >> 8) % 4;
        csv.push_str(&format!("{z},c{c},{e}\n"));
    }
    Table::from_csv_str(&csv).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// At a fixed CPDAG, a budgeted run can only lose coverage relative to
    /// the unbudgeted run: skipped fills count as zeros and truncation only
    /// shrinks the candidate set of the argmax.
    #[test]
    fn degraded_coverage_never_exceeds_unbudgeted(seed in 0u64..1000, cap in 1u64..3000) {
        let table = structured_table(seed, 300);
        let config = SynthesisConfig::default();
        let unlimited = Budget::unlimited();
        let cpdag =
            learn_cpdag(&table, &LearnConfig::default(), Parallelism::Auto, &unlimited).cpdag;
        let full = synthesize_from_cpdag(&table, &cpdag, &config, &unlimited);
        let capped = Budget::with_work_cap(cap);
        let degraded = synthesize_from_cpdag(&table, &cpdag, &config, &capped);
        prop_assert!(
            degraded.coverage <= full.coverage + 1e-12,
            "degraded {} > full {}",
            degraded.coverage,
            full.coverage
        );
    }

    /// Rectification stays idempotent even when the program came from a
    /// budget-starved (degraded) run.
    #[test]
    fn rectify_is_idempotent_under_degraded_programs(seed in 0u64..1000, cap in 0u64..500) {
        let table = structured_table(seed, 300);
        let guard =
            Guardrail::builder().budget(Budget::with_work_cap(cap)).fit(&table).unwrap();
        let (once, _) = guard.apply(&table, ErrorScheme::Rectify);
        let (twice, second) = guard.apply(&once, ErrorScheme::Rectify);
        prop_assert_eq!(second.cells_changed, 0, "second pass must be a fixpoint");
        prop_assert_eq!(once.to_csv_string(), twice.to_csv_string());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every work cap, a sketch fill either completes bit-identically to
    /// the unbudgeted fill or fails with the typed exhaustion — exactly when
    /// the cap is below the row count. There is no third outcome built from
    /// a partial scan.
    #[test]
    fn capped_fill_is_exhausted_or_complete(
        rows in 8usize..120,
        cap in 0u64..200,
        seed in any::<u64>(),
    ) {
        let table = structured_table(seed, rows);
        let sketch = StatementSketch::new(vec![0], 1);
        let full = fill_statement_sketch(&table, &sketch, 0.1, &Budget::unlimited()).unwrap();
        match fill_statement_sketch(&table, &sketch, 0.1, &Budget::with_work_cap(cap)) {
            Err(Exhausted { .. }) => prop_assert!(
                cap < rows as u64,
                "exhausted under an ample cap ({cap} ≥ {rows})"
            ),
            Ok(filled) => {
                prop_assert!(cap >= rows as u64, "cap {} admitted {} rows", cap, rows);
                match (&full, &filled) {
                    (None, None) => {}
                    (Some(a), Some(b)) => prop_assert_eq!(&a.statement, &b.statement),
                    _ => prop_assert!(false, "capped fill disagrees about ⊥"),
                }
            }
        }
    }
}
