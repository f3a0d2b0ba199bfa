//! Criterion: vectorized decision-table detect/rectify vs the legacy
//! row-at-a-time interpreter.
//!
//! The legacy path (`check_table_reference`) walks every branch of every
//! statement per row — O(rows × branches) condition evaluations. The
//! vectorized engine packs each row's determinant codes into a mixed-radix
//! key at scan time and resolves the whole branch list with one table
//! lookup and one comparison per (row, statement). The program below
//! carries ~80 branches across two statements, so the legacy path pays
//! ~80 conjunct evaluations per row where the engine pays two lookups.
//!
//! Both paths must return **bit-identical** results — violations, rectified
//! cells, and change counts are asserted equal before any timing, so a
//! "speedup" that changes an answer fails the bench.
//!
//! Shape: one 1M-row serving table (zip → city → state chain, ~2% noise per
//! dependent), detect and rectify, sequential and chunk-parallel.
//!
//! `CRITERION_JSON=<path>` archives the timings as JSON lines;
//! `results/bench/detect_vector.jsonl` holds the seeded reference run that
//! `bench_diff` guards against regressions.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guardrail_dsl::ast::{Branch, Condition, Program, Statement};
use guardrail_dsl::CompiledProgram;
use guardrail_governor::Parallelism;
use guardrail_table::{Table, TableBuilder, Value};

const ROWS: usize = 1_000_000;
const ZIPS: u64 = 64;
const CITIES: u64 = 16;
const STATES: u64 = 8;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// zip → city → state chain with ~2% noise per dependent column.
fn serving_table(seed: u64, rows: usize) -> Table {
    let mut rng = xorshift(seed);
    let mut builder =
        TableBuilder::new(vec!["zip".to_string(), "city".to_string(), "state".to_string()]);
    for _ in 0..rows {
        let z = rng() % ZIPS;
        let c = if rng() % 50 == 0 { (z + 1) % CITIES } else { z % CITIES };
        let s = if rng() % 50 == 0 { (c + 1) % STATES } else { c % STATES };
        builder
            .push_row(vec![
                Value::from(format!("z{z}")),
                Value::from(format!("c{c}")),
                Value::from(format!("s{s}")),
            ])
            .unwrap();
    }
    builder.finish().unwrap()
}

/// A single-determinant functional dependency spelled out branch by branch.
fn fd(given: &str, on: &str, pairs: impl Iterator<Item = (String, String)>) -> Statement {
    Statement {
        given: vec![given.to_string()],
        on: on.to_string(),
        branches: pairs
            .map(|(lhs, rhs)| Branch {
                condition: Condition::new(vec![(given.to_string(), Value::from(lhs))]),
                target: on.to_string(),
                literal: Value::from(rhs),
            })
            .collect(),
    }
}

/// The ground-truth program for [`serving_table`]: 64 + 16 = 80 branches.
fn chain_program() -> Program {
    Program {
        statements: vec![
            fd("zip", "city", (0..ZIPS).map(|z| (format!("z{z}"), format!("c{}", z % CITIES)))),
            fd("city", "state", (0..CITIES).map(|c| (format!("c{c}"), format!("s{}", c % STATES)))),
        ],
    }
}

/// Every measured operation must agree bit-for-bit with the legacy
/// interpreter before it is worth timing.
fn assert_paths_identical(compiled: &CompiledProgram, table: &Table, threads: usize) {
    let legacy = compiled.check_table_reference(table);
    assert!(!legacy.is_empty(), "noise must produce violations");
    assert_eq!(compiled.check_table(table), legacy, "sequential vectorized detect");
    assert_eq!(
        compiled.check_table_parallel(table, Parallelism::threads(threads)),
        legacy,
        "parallel vectorized detect"
    );

    let mut ref_t = table.clone();
    let ref_changed = compiled.rectify_table_reference(&mut ref_t);
    assert!(ref_changed > 0, "noise must produce repairs");
    for (name, par) in
        [("sequential", Parallelism::Sequential), ("parallel", Parallelism::threads(threads))]
    {
        let mut vec_t = table.clone();
        let vec_changed = compiled.rectify_table_parallel(&mut vec_t, par);
        assert_eq!(vec_changed, ref_changed, "{name} rectify change count");
        assert_eq!(vec_t.to_csv_string(), ref_t.to_csv_string(), "{name} rectified bytes");
    }
}

fn bench_detect_vector(c: &mut Criterion) {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
    let table = serving_table(7, ROWS);
    let program = chain_program();
    let compiled =
        CompiledProgram::compile(&program, &table).expect("program binds to the serving schema");
    assert_paths_identical(&compiled, &table, threads);

    // Rectify is benched on an already-repaired table: the pass is then
    // idempotent (scan + zero writes), so iterations need no per-iter clone
    // and time the steady-state scan cost, the serving-path regime.
    let mut clean = table.clone();
    compiled.rectify_table_parallel(&mut clean, Parallelism::threads(threads));
    assert_eq!(compiled.check_table(&clean), Vec::new(), "rectified table must be clean");

    let mut group = c.benchmark_group("detect_vector");
    group.sample_size(10);
    group.bench_function("detect/legacy", |b| {
        b.iter(|| compiled.check_table_reference(black_box(&table)))
    });
    group.bench_function("detect/vectorized", |b| {
        b.iter(|| compiled.check_table(black_box(&table)))
    });
    group.bench_function(format!("detect/vectorized-threads-{threads}"), |b| {
        b.iter(|| compiled.check_table_parallel(black_box(&table), Parallelism::threads(threads)))
    });
    group.bench_function("rectify/legacy", |b| {
        b.iter(|| compiled.rectify_table_reference(black_box(&mut clean)))
    });
    group.bench_function("rectify/vectorized", |b| {
        b.iter(|| compiled.rectify_table_parallel(black_box(&mut clean), Parallelism::Sequential))
    });
    group.bench_function(format!("rectify/vectorized-threads-{threads}"), |b| {
        b.iter(|| {
            compiled.rectify_table_parallel(black_box(&mut clean), Parallelism::threads(threads))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_detect_vector);
criterion_main!(benches);
