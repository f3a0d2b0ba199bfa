//! Criterion: resource-governor overhead.
//!
//! The budget is threaded through every hot loop of the pipeline, so its
//! checks must be close to free. Three measurements back the <2% overhead
//! claim:
//!
//! * `budget_charge` — the raw cost of `Budget::charge` per call, against an
//!   uninstrumented counter loop, for unlimited / work-capped / deadline
//!   budgets.
//! * `pc_hot_loop` — PC-stable structure learning (one charge per CI test)
//!   on an unlimited budget vs. a generous live deadline + work cap.
//! * `fill_hot_loop` — sketch filling's row scan (charges batched every 4096
//!   rows) under the same pair of budgets.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guardrail_datasets::paper_dataset;
use guardrail_governor::Budget;
use guardrail_pgm::{pc_algorithm, DataOracle, EncodedData, PcConfig};
use guardrail_synth::{fill_statement_sketch, StatementSketch};

/// A budget that actively checks a wall-clock deadline and a work cap on
/// every charge but never trips — the worst case for overhead.
fn live_budget() -> Budget {
    Budget::with_deadline_and_work_cap(Duration::from_secs(3600), u64::MAX / 2)
}

fn bench_budget_charge(c: &mut Criterion) {
    let mut group = c.benchmark_group("budget_charge");
    const N: u64 = 10_000;
    group.bench_function("baseline_counter_x10k", |b| {
        b.iter(|| {
            let mut done = 0u64;
            for _ in 0..N {
                done = black_box(done + 1);
            }
            done
        })
    });
    for (name, budget) in [
        ("unlimited_x10k", Budget::unlimited()),
        ("work_cap_x10k", Budget::with_work_cap(u64::MAX / 2)),
        ("deadline_and_cap_x10k", live_budget()),
        ("child_chain_x10k", live_budget().child(Some(u64::MAX / 4))),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..N {
                    black_box(budget.charge(1)).unwrap();
                }
                budget.work_done()
            })
        });
    }
    group.finish();
}

fn bench_pc_hot_loop(c: &mut Criterion) {
    let dataset = paper_dataset(2, 4000);
    let encoded = EncodedData::from_table(&dataset.clean);
    let oracle = DataOracle::new(&encoded);
    let config = PcConfig { max_cond_size: 3, ..PcConfig::default() };
    let mut group = c.benchmark_group("pc_hot_loop");
    group.sample_size(20);
    group.bench_function("unlimited", |b| {
        b.iter(|| pc_algorithm(black_box(&oracle), config, &Budget::unlimited()))
    });
    group.bench_function("live_deadline_and_cap", |b| {
        let budget = live_budget();
        b.iter(|| pc_algorithm(black_box(&oracle), config, &budget))
    });
    group.finish();
}

fn bench_fill_hot_loop(c: &mut Criterion) {
    let dataset = paper_dataset(2, 10_000);
    let table = &dataset.clean;
    let sketch = StatementSketch::new(vec![0, 1], 2);
    let mut group = c.benchmark_group("fill_hot_loop");
    group.bench_function("unlimited", |b| {
        b.iter(|| {
            fill_statement_sketch(black_box(table), black_box(&sketch), 0.02, &Budget::unlimited())
        })
    });
    group.bench_function("live_deadline_and_cap", |b| {
        let budget = live_budget();
        b.iter(|| fill_statement_sketch(black_box(table), black_box(&sketch), 0.02, &budget))
    });
    group.finish();
}

criterion_group!(benches, bench_budget_charge, bench_pc_hot_loop, bench_fill_hot_loop);
criterion_main!(benches);
