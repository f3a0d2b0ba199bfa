//! Criterion: the SQL planner's optimized plan vs the naive reference plan
//! on constraint-prunable serving queries.
//!
//! The naive plan (`with_pushdown(false)`) vets and predicts every row of
//! the 1M-row serving table before the WHERE clause runs. The planning pass
//! shapes the same queries so the vectorized engine touches only what the
//! constraints cannot rule out:
//!
//! * **contradiction** — `WHERE zip = 'z_nope'` pins a value absent from
//!   the column dictionary; the contradiction check empties the scan (zero
//!   rows scanned, zero model calls).
//! * **entailment** — `WHERE zip = 'z3' AND city = 'c3'` under `Rectify`;
//!   the compiled decision table proves the rectified `city` is implied by
//!   the `zip` pin, so the conjunct is pruned and the remaining pin pushes
//!   below the vet into the scan (~1/64 of rows vetted and predicted).
//!
//! Both rewrites must be **result-identical** to the naive plan — the CSV
//! bytes are asserted equal before any timing, and an `Instant`-based gate
//! demands the optimized path be at least 2x faster, so a "speedup" that
//! changes an answer (or fails to materialize) fails the bench.
//!
//! `CRITERION_JSON=<path>` archives the timings as JSON lines;
//! `results/bench/sql_opt.jsonl` holds the seeded reference run that
//! `bench_diff` guards against regressions.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_ml::NaiveBayes;
use guardrail_sqlexec::{parse_query, plan, Catalog, Executor, PlanContext};
use guardrail_table::{Table, TableBuilder, Value};
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 1_000_000;
const ZIPS: u64 = 64;
const CITIES: u64 = 16;

const CONTRADICTION: &str = "SELECT PREDICT(m) AS p, zip FROM serve WHERE zip = 'z_nope'";
const ENTAILMENT: &str = "SELECT PREDICT(m) AS p, zip FROM serve WHERE zip = 'z3' AND city = 'c3'";

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// zip → city with ~2% noise in the dependent column.
fn serving_table(seed: u64, rows: usize, noisy: bool) -> Table {
    let mut rng = xorshift(seed);
    let mut builder = TableBuilder::new(vec!["zip".to_string(), "city".to_string()]);
    for _ in 0..rows {
        let z = rng() % ZIPS;
        let c = if noisy && rng() % 50 == 0 { (z + 1) % CITIES } else { z % CITIES };
        builder.push_row(vec![Value::from(format!("z{z}")), Value::from(format!("c{c}"))]).unwrap();
    }
    builder.finish().unwrap()
}

/// Runs one query through the optimized and reference executors and demands
/// identical bytes; returns the optimized output's stats for extra asserts.
fn assert_result_identical(
    catalog: &Catalog,
    guard: &Guardrail,
    sql: &str,
) -> guardrail_sqlexec::ExecutionStats {
    let opt = Executor::new(catalog).with_guardrail(guard, ErrorScheme::Rectify).run(sql).unwrap();
    let naive = Executor::new(catalog)
        .with_guardrail(guard, ErrorScheme::Rectify)
        .with_pushdown(false)
        .run(sql)
        .unwrap();
    assert_eq!(
        opt.table.to_csv_string(),
        naive.table.to_csv_string(),
        "optimizer changed the answer for: {sql}"
    );
    opt.stats
}

/// Wall-clock one run of `sql` on the given executor configuration.
fn time_once(catalog: &Catalog, guard: &Guardrail, sql: &str, pushdown: bool) -> f64 {
    let exec = Executor::new(catalog).with_guardrail(guard, ErrorScheme::Rectify);
    let exec = if pushdown { exec } else { exec.with_pushdown(false) };
    let start = Instant::now();
    black_box(exec.run(sql).unwrap());
    start.elapsed().as_secs_f64()
}

fn bench_sql_opt(c: &mut Criterion) {
    // Constraints come from a clean sample of the same FD the serving table
    // follows; the model predicts `city` from `zip`.
    let clean = serving_table(11, 6400, false);
    let guard = Guardrail::builder().fit(&clean).expect("schema is supported");
    let model = NaiveBayes::fit(&clean, 1);
    let serve = serving_table(7, ROWS, true);
    let mut catalog = Catalog::new();
    catalog.add_table("serve", serve.clone());
    catalog.add_model("m", Arc::new(model));

    // Result-equality gates: each workload must exercise its rewrite AND
    // return the reference answer before it is worth timing.
    let stats = assert_result_identical(&catalog, &guard, CONTRADICTION);
    assert_eq!(stats.rows_skipped_by_contradiction, ROWS, "EmptyScan must skip the scan");
    assert_eq!(stats.predictions, 0, "contradiction must cost zero model calls");

    let stats = assert_result_identical(&catalog, &guard, ENTAILMENT);
    assert!(stats.predicates_pruned >= 1, "entailment must prune the implied conjunct");
    assert!(
        stats.rows_after_pushdown < ROWS / 32,
        "the surviving pin must push below the vet ({} rows passed)",
        stats.rows_after_pushdown
    );

    // Speedup gate: 2x is the floor the optimizer must clear on
    // constraint-prunable queries; in practice both workloads clear ~50x.
    for sql in [CONTRADICTION, ENTAILMENT] {
        let fast = time_once(&catalog, &guard, sql, true);
        let slow = time_once(&catalog, &guard, sql, false);
        assert!(
            slow >= 2.0 * fast,
            "optimizer under 2x on {sql}: {fast:.4}s optimized vs {slow:.4}s naive"
        );
    }

    let mut group = c.benchmark_group("sql_opt");
    group.sample_size(10);
    for (name, sql) in [("contradiction", CONTRADICTION), ("entailment", ENTAILMENT)] {
        group.bench_function(format!("{name}/optimized"), |b| {
            let exec = Executor::new(&catalog).with_guardrail(&guard, ErrorScheme::Rectify);
            b.iter(|| exec.run(black_box(sql)).unwrap())
        });
        group.bench_function(format!("{name}/naive"), |b| {
            let exec = Executor::new(&catalog)
                .with_guardrail(&guard, ErrorScheme::Rectify)
                .with_pushdown(false);
            b.iter(|| exec.run(black_box(sql)).unwrap())
        });
    }
    // Planning itself: parse + the planning pass, no execution — the
    // per-query overhead the speedups pay for.
    group.bench_function("plan/optimize", |b| {
        let ctx = PlanContext::new(&serve).with_guardrail(&guard, ErrorScheme::Rectify);
        b.iter(|| plan(&parse_query(black_box(ENTAILMENT)).unwrap(), &ctx, true))
    });
    group.finish();
}

criterion_group!(benches, bench_sql_opt);
criterion_main!(benches);
