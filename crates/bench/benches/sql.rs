//! Criterion: the ML-integrated SQL executor — parse cost, execution with
//! and without predicate pushdown, and the guardrail interception overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_datasets::paper_dataset;
use guardrail_ml::NaiveBayes;
use guardrail_sqlexec::{parse_query, Catalog, Executor};
use guardrail_table::SplitSpec;
use std::sync::Arc;

const QUERY: &str =
    "SELECT PREDICT(m) AS pred, AVG(CASE WHEN pollution = 'high' THEN 1 ELSE 0 END) AS r \
                     FROM t WHERE smoker = 'yes' GROUP BY pred ORDER BY pred";

fn bench_parse(c: &mut Criterion) {
    c.bench_function("sql_parse", |b| b.iter(|| parse_query(black_box(QUERY))));
}

fn setup() -> (Catalog, Guardrail) {
    let dataset = paper_dataset(2, 6000);
    let (train, test) = SplitSpec::default().split(&dataset.clean);
    let model = NaiveBayes::fit(&train, dataset.label_col);
    let guard = Guardrail::builder().fit(&train).expect("schema is supported");
    let mut catalog = Catalog::new();
    catalog.add_table("t", test);
    catalog.add_model("m", Arc::new(model));
    (catalog, guard)
}

fn bench_execution(c: &mut Criterion) {
    let (catalog, guard) = setup();
    let mut group = c.benchmark_group("sql_execution");
    group.sample_size(20);
    group.bench_function("pushdown", |b| {
        let exec = Executor::new(&catalog);
        b.iter(|| exec.run(black_box(QUERY)).unwrap())
    });
    group.bench_function("no_pushdown", |b| {
        let exec = Executor::new(&catalog).with_pushdown(false);
        b.iter(|| exec.run(black_box(QUERY)).unwrap())
    });
    group.bench_function("guarded_rectify", |b| {
        let exec = Executor::new(&catalog).with_guardrail(&guard, ErrorScheme::Rectify);
        b.iter(|| exec.run(black_box(QUERY)).unwrap())
    });
    group.finish();
}

fn bench_plain_aggregation(c: &mut Criterion) {
    let (catalog, _) = setup();
    let exec = Executor::new(&catalog);
    c.bench_function("sql_group_by_no_ml", |b| {
        b.iter(|| {
            exec.run(black_box(
                "SELECT smoker, COUNT(*) AS n FROM t GROUP BY smoker ORDER BY smoker",
            ))
            .unwrap()
        })
    });
}

criterion_group!(benches, bench_parse, bench_execution, bench_plain_aggregation);
criterion_main!(benches);
