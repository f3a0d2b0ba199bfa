//! Integration: SQL executor + ML models + Guardrail interception, the
//! Fig. 1 pipeline end to end.

use guardrail::datasets::{cancer_network, inject_errors, InjectConfig};
use guardrail::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds the hospital scenario: clean/train data, model, guardrail.
fn hospital() -> (Table, Table, Ensemble, Guardrail) {
    let sem = cancer_network(0.997);
    let mut rng = StdRng::seed_from_u64(404);
    let clean = sem.sample(4000, &mut rng);
    let (train, test) = SplitSpec::new(0.6, 5).split(&clean);
    // The model predicts dyspnoea from *observable* attributes (no latent
    // cancer diagnosis), making the X-ray its key signal — the regime where
    // guardrail rectification of corrupted X-rays pays off.
    let model_train = train.select(&["pollution", "smoker", "xray", "dysp"]).unwrap();
    let dysp = model_train.schema().index_of("dysp").unwrap();
    let model = Ensemble::fit(&model_train, dysp);
    let guard = Guardrail::builder().fit(&train).unwrap();
    (train, test, model, guard)
}

#[test]
fn guarded_query_beats_vanilla_on_dirty_data() {
    let (_, test, model, guard) = hospital();
    let xray = test.schema().index_of("xray").unwrap();
    let mut dirty = test.clone();
    inject_errors(
        &mut dirty,
        &InjectConfig { count: Some(120), columns: Some(vec![xray]), ..Default::default() },
    );

    let sql = "SELECT AVG(CASE WHEN PREDICT(m) = 'yes' THEN 1 ELSE 0 END) AS rate FROM t";
    let run = |table: &Table, guarded: bool| -> f64 {
        let mut c = Catalog::new();
        c.add_table("t", table.clone());
        c.add_model("m", Arc::new(model.clone()));
        let exec = Executor::new(&c);
        let exec = if guarded { exec.with_guardrail(&guard, ErrorScheme::Rectify) } else { exec };
        exec.run(sql).unwrap().table.get(0, 0).unwrap().as_f64().unwrap()
    };

    let truth = run(&test, false);
    let vanilla = run(&dirty, false);
    let guarded = run(&dirty, true);
    let err_vanilla = (vanilla - truth).abs();
    let err_guarded = (guarded - truth).abs();
    assert!(
        err_guarded <= err_vanilla,
        "guardrail must not increase error: {err_guarded} vs {err_vanilla}"
    );
    assert!(err_vanilla > 0.0, "corruption must move the vanilla result");
}

#[test]
fn execution_stats_break_down_guardrail_and_inference_time() {
    let (_, test, model, guard) = hospital();
    let mut c = Catalog::new();
    c.add_table("t", test.clone());
    c.add_model("m", Arc::new(model));
    let out = Executor::new(&c)
        .with_guardrail(&guard, ErrorScheme::Rectify)
        .run("SELECT PREDICT(m) AS p, COUNT(*) AS n FROM t GROUP BY p")
        .unwrap();
    assert_eq!(out.stats.predictions, test.num_rows());
    assert!(out.stats.inference_nanos > 0);
    assert!(out.stats.guardrail_nanos > 0);
    // Guardrail checking is lightweight relative to model inference — the
    // Table 6 claim, asserted loosely.
    assert!(
        out.stats.guardrail_nanos < out.stats.inference_nanos * 20,
        "guardrail {}ns vs inference {}ns",
        out.stats.guardrail_nanos,
        out.stats.inference_nanos
    );
}

#[test]
fn pushdown_and_no_pushdown_agree_under_guardrail() {
    let (_, test, model, guard) = hospital();
    let mut c = Catalog::new();
    c.add_table("t", test.clone());
    c.add_model("m", Arc::new(model));
    let sql = "SELECT PREDICT(m) AS p, COUNT(*) AS n FROM t \
               WHERE smoker = 'yes' GROUP BY p ORDER BY p";
    let a = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify).run(sql).unwrap();
    let b = Executor::new(&c)
        .with_guardrail(&guard, ErrorScheme::Rectify)
        .with_pushdown(false)
        .run(sql)
        .unwrap();
    assert_eq!(a.table.to_csv_string(), b.table.to_csv_string());
    assert!(a.stats.predictions <= b.stats.predictions);
}

#[test]
fn forty_eight_query_shapes_parse_and_run() {
    // The four query templates used per dataset in the Fig. 6 harness, on a
    // plain table (no ML) to pin down executor semantics.
    let (_, test, _, _) = hospital();
    let mut c = Catalog::new();
    c.add_table("t", test.clone());
    let exec = Executor::new(&c);
    let queries = [
        "SELECT smoker, COUNT(*) AS n FROM t GROUP BY smoker ORDER BY smoker",
        "SELECT AVG(CASE WHEN dysp = 'yes' THEN 1 ELSE 0 END) AS rate FROM t",
        "SELECT pollution, AVG(CASE WHEN cancer = 'yes' THEN 1 ELSE 0 END) AS r \
         FROM t WHERE smoker = 'yes' GROUP BY pollution ORDER BY pollution",
        "SELECT COUNT(*) AS n FROM t WHERE xray = 'positive' AND dysp = 'yes'",
    ];
    for q in queries {
        let out = exec.run(q).unwrap();
        assert!(out.table.num_rows() >= 1, "query produced no rows: {q}");
    }
}

#[test]
fn raise_scheme_propagates_as_query_error() {
    let (_, test, model, guard) = hospital();
    let xray = test.schema().index_of("xray").unwrap();
    let mut dirty = test.clone();
    inject_errors(
        &mut dirty,
        &InjectConfig { count: Some(30), columns: Some(vec![xray]), ..Default::default() },
    );
    let mut c = Catalog::new();
    c.add_table("t", dirty);
    c.add_model("m", Arc::new(model));
    let out = Executor::new(&c)
        .with_guardrail(&guard, ErrorScheme::Raise)
        .run("SELECT PREDICT(m) AS p FROM t");
    assert!(matches!(out, Err(guardrail::sqlexec::SqlError::GuardrailRaise { .. })));
}
