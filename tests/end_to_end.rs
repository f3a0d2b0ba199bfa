//! End-to-end integration: synthesis → detection → rectification across the
//! workspace crates, with ground truth supplied by known SEMs.

use guardrail::datasets::{cancer_network, inject_errors, paper_dataset, InjectConfig};
use guardrail::prelude::*;
use guardrail::stats::metrics::confusion_from_indices;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fit_config() -> GuardrailConfig {
    GuardrailConfig::default()
}

#[test]
fn cancer_network_pipeline_detects_injected_errors() {
    let sem = cancer_network(0.997);
    let mut rng = StdRng::seed_from_u64(31);
    let clean = sem.sample(5000, &mut rng);
    let (train, test) = SplitSpec::new(0.6, 3).split(&clean);

    let guard = Guardrail::builder().config(fit_config()).fit(&train).unwrap();
    assert!(!guard.program().statements.is_empty(), "nothing synthesized");

    // Clean test split: near-zero flagging (only residual SEM noise).
    let clean_report = guard.detect(&test);
    let clean_rate = clean_report.dirty_fraction();
    assert!(clean_rate < 0.02, "clean data flagged at rate {clean_rate}");

    // Corrupt the symptom columns and measure recovery.
    let xray = test.schema().index_of("xray").unwrap();
    let dysp = test.schema().index_of("dysp").unwrap();
    let mut dirty = test.clone();
    let report = inject_errors(
        &mut dirty,
        &InjectConfig { count: Some(60), columns: Some(vec![xray, dysp]), ..Default::default() },
    );
    let detected = guard.detect(&dirty).dirty_rows();
    let c = confusion_from_indices(&detected, &report.dirty_rows(), dirty.num_rows());
    assert!(c.recall() > 0.8, "recall {} too low", c.recall());
    assert!(c.precision() > 0.5, "precision {} too low", c.precision());

    // Rectify restores most corrupted cells to their original values.
    let (fixed, _) = guard.apply(&dirty, ErrorScheme::Rectify);
    let restored = report
        .errors
        .iter()
        .filter(|e| fixed.get(e.row, e.col) == Some(e.original.clone()))
        .count();
    assert!(
        restored as f64 >= 0.8 * report.errors.len() as f64,
        "only {restored}/{} cells restored",
        report.errors.len()
    );
}

#[test]
fn synthesized_program_is_parseable_and_roundtrips() {
    let dataset = paper_dataset(2, 3000);
    let guard = Guardrail::builder().config(fit_config()).fit(&dataset.clean).unwrap();
    let text = guard.program().to_string();
    let reparsed = guardrail::dsl::parse_program(&text).expect("printed program parses");
    assert_eq!(&reparsed, guard.program());
}

#[test]
fn sketch_respects_ground_truth_dag_on_cancer() {
    // The synthesized statements' (given, on) pairs must be edges of the
    // ground-truth DAG (Markov-equivalence caveat: orientations may flip,
    // but no statement may connect non-adjacent attributes).
    let dataset = paper_dataset(2, 8000);
    let guard = Guardrail::builder().config(fit_config()).fit(&dataset.clean).unwrap();
    let dag = dataset.sem.dag();
    let schema = dataset.clean.schema();
    for stmt in &guard.program().statements {
        let on = schema.index_of(&stmt.on).unwrap();
        for g in &stmt.given {
            let gi = schema.index_of(g).unwrap();
            assert!(
                dag.has_edge(gi, on) || dag.has_edge(on, gi),
                "statement GIVEN {g} ON {} connects non-adjacent attributes",
                stmt.on
            );
        }
    }
}

#[test]
fn coverage_is_monotone_in_epsilon() {
    let dataset = paper_dataset(6, 748);
    let mut last = -1.0;
    for eps in [0.0, 0.01, 0.05, 0.2] {
        let guard = Guardrail::builder()
            .config(GuardrailConfig::default().with_epsilon(eps))
            .fit(&dataset.clean)
            .unwrap();
        let cov = if guard.coverage().is_nan() { 0.0 } else { guard.coverage() };
        assert!(cov >= last - 1e-9, "coverage decreased from {last} to {cov} at eps {eps}");
        last = cov;
    }
}

#[test]
fn all_twelve_datasets_synthesize_without_panic() {
    for id in 1..=12u8 {
        let dataset = paper_dataset(id, 800);
        let guard = Guardrail::builder().config(fit_config()).fit(&dataset.clean).unwrap();
        // Sanity only: the pipeline runs end to end and detection works on
        // the training data itself.
        let report = guard.detect(&dataset.clean);
        assert!(report.rows_checked == dataset.clean.num_rows());
    }
}

#[test]
fn rectify_then_detect_is_clean() {
    let dataset = paper_dataset(2, 4000);
    let (train, test) = SplitSpec::default().split(&dataset.clean);
    let guard = Guardrail::builder().config(fit_config()).fit(&train).unwrap();
    let mut dirty = test.clone();
    inject_errors(&mut dirty, &InjectConfig { count: Some(40), ..Default::default() });
    let (fixed, _) = guard.apply(&dirty, ErrorScheme::Rectify);
    // After rectification the program finds nothing left to fix.
    assert!(guard.detect(&fixed).is_clean());
}

#[test]
fn coerce_nulls_every_violating_cell() {
    let dataset = paper_dataset(2, 3000);
    let (train, test) = SplitSpec::default().split(&dataset.clean);
    let guard = Guardrail::builder().config(fit_config()).fit(&train).unwrap();
    let mut dirty = test.clone();
    inject_errors(&mut dirty, &InjectConfig { count: Some(30), ..Default::default() });
    let before = guard.detect(&dirty);
    let (coerced, rep) = guard.apply(&dirty, ErrorScheme::Coerce);
    assert!(rep.cells_changed >= 1, "some injected error must trigger a coercion");
    // Every previously violating dependent cell is now NULL.
    for v in &before.violations {
        let col = coerced.schema().index_of(&v.attribute).unwrap();
        assert_eq!(coerced.get(v.row, col), Some(Value::Null));
    }
}
