//! Criterion: incremental detect over an appended batch vs a full-table
//! pass on a persistent 1M-row `TableStore`.
//!
//! The serving claim for the storage layer (DESIGN.md §5): once a relation
//! has been scanned, detecting errors in a freshly appended batch costs
//! work proportional to the *batch*, not the relation. This bench pins that
//! claim at the acceptance shape — incremental detect on a 10k-row append
//! (1% of a 1M-row store) must come in ≥10× under a full `check_table`
//! scan of the same relation.
//!
//! Three timings are archived:
//!
//! * `detect/full_1m` — a full vectorized pass over the whole store.
//! * `detect/incremental_10k` — `detect_appended` over a freshly appended
//!   10k batch. The append itself (value interning) runs as untimed
//!   `iter_batched` setup: the line isolates the detection cost the ≥10×
//!   floor gates (asserted from best-of-N wall-clock before the criterion
//!   loop, so the acceptance criterion fails loudly, not just in a diff of
//!   archived JSON).
//! * `ingest/append_detect_10k` — the same batch through the persistent
//!   store: WAL encode + fsync + intern + probe. Durability is bounded by
//!   the disk's sync latency, so this line is archived for regression
//!   tracking but carries no cross-machine ratio assertion.
//!
//! Before any timing, a bit-identity gate asserts that the incremental
//! detector's accumulated violations equal a from-scratch `check_table`
//! over the grown store — a "speedup" that changes an answer fails the
//! bench.
//!
//! `CRITERION_JSON=<path>` archives the timings as JSON lines;
//! `results/bench/storage.jsonl` holds the seeded reference run that
//! `bench_diff` guards against regressions.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use guardrail_dsl::ast::{Branch, Condition, Program, Statement};
use guardrail_dsl::{CompiledProgram, IncrementalDetector};
use guardrail_governor::Budget;
use guardrail_table::{Table, TableBuilder, TableStore, Value};
use std::time::Instant;

const ROWS: usize = 1_000_000;
const BATCH: usize = 10_000; // 1% of the base relation
const POOL: usize = 16; // pre-generated batches, cycled by the timed loops
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

/// One (zip, city, state) row of the chain with ~2% noise per dependent.
fn chain_row(rng: &mut impl FnMut() -> u64) -> Vec<Value> {
    let z = rng() % ZIPS;
    let c = if rng() % 50 == 0 { (z + 1) % CITIES } else { z % CITIES };
    let s = if rng() % 50 == 0 { (c + 1) % STATES } else { c % STATES };
    vec![Value::from(format!("z{z}")), Value::from(format!("c{c}")), Value::from(format!("s{s}"))]
}

/// zip → city → state chain, same shape as the `detect_vector` bench.
fn serving_table(seed: u64, rows: usize) -> Table {
    let mut rng = xorshift(seed);
    let mut builder =
        TableBuilder::new(vec!["zip".to_string(), "city".to_string(), "state".to_string()]);
    for _ in 0..rows {
        builder.push_row(chain_row(&mut rng)).unwrap();
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

fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_storage(c: &mut Criterion) {
    let dir = std::env::temp_dir()
        .join("guardrail_bench_storage")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = TableStore::create(&dir, serving_table(7, ROWS)).expect("create 1M-row store");
    let program = chain_program();
    let budget = Budget::unlimited();

    // Seed the detector with one full pass over the base relation, then
    // run the bit-identity gate: after one appended batch, the incremental
    // detector's violation list must equal a from-scratch full pass.
    let mut det =
        IncrementalDetector::new(&program, store.table()).expect("program binds to the store");
    let mut rng = xorshift(1009);
    let gate_batch: Vec<Vec<Value>> = (0..BATCH).map(|_| chain_row(&mut rng)).collect();
    store.append_rows(&gate_batch).expect("append gate batch");
    let scan = det.detect_appended(store.table(), &budget).expect("unlimited budget");
    assert_eq!(scan.rows_scanned, BATCH, "incremental pass scans exactly the appended batch");
    let compiled = CompiledProgram::compile(&program, store.table())
        .expect("program binds to the grown store");
    let full = compiled.check_table(store.table());
    assert!(!full.is_empty(), "noise must produce violations");
    assert_eq!(det.violations(), full.as_slice(), "incremental == full, bit for bit");

    // Batches are generated outside the timed loops: the floor gates the
    // detection path, not `format!` and friends.
    let pool: Vec<Vec<Vec<Value>>> =
        (0..POOL).map(|_| (0..BATCH).map(|_| chain_row(&mut rng)).collect()).collect();

    // The pure-detect measurements append to an in-memory continuation of
    // the same relation (identical rows and dictionaries, so the probe work
    // equals the store's) and keep the append outside the clock: the floor
    // gates detection, not interning or disk sync latency. `RefCell` lets
    // the untimed setup closure and the timed routine share the table.
    let work = std::cell::RefCell::new(store.table().clone());
    let mut next = 0usize;

    // Acceptance floor, measured directly: incremental detect on a 1% batch
    // must be ≥10× faster than a full scan of the relation.
    let full_s = best_of(3, || compiled.check_table(store.table()));
    let mut inc_s = f64::INFINITY;
    for _ in 0..3 {
        work.borrow_mut().append_rows(&pool[next % POOL]).expect("append bench batch");
        next += 1;
        let table = work.borrow();
        let start = Instant::now();
        black_box(det.detect_appended(&table, &budget).expect("unlimited budget"));
        inc_s = inc_s.min(start.elapsed().as_secs_f64());
    }
    assert!(
        full_s >= 10.0 * inc_s,
        "incremental detect ({:.3}ms) must be ≥10× under a full pass ({:.3}ms)",
        inc_s * 1e3,
        full_s * 1e3,
    );

    let mut group = c.benchmark_group("storage");
    group.sample_size(10);
    group.bench_function("detect/full_1m", |b| {
        b.iter(|| compiled.check_table(black_box(store.table())))
    });
    group.bench_function("detect/incremental_10k", |b| {
        b.iter_batched(
            || {
                work.borrow_mut().append_rows(&pool[next % POOL]).expect("append bench batch");
                next += 1;
            },
            |()| {
                let table = work.borrow();
                det.detect_appended(&table, &budget).expect("unlimited budget")
            },
            BatchSize::LargeInput,
        )
    });
    // The persistent path: same batch shape through the WAL, fsync included.
    let mut det_store =
        IncrementalDetector::new(&program, store.table()).expect("program binds to the store");
    group.bench_function("ingest/append_detect_10k", |b| {
        b.iter(|| {
            store.append_rows(&pool[next % POOL]).expect("append bench batch");
            next += 1;
            det_store.detect_appended(store.table(), &budget).expect("unlimited budget")
        })
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
