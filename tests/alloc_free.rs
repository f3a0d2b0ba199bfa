//! Proves the steady-state allocation claims of the hot serving kernels:
//! once scratch buffers are warm, further work touches the heap zero times.
//! Covered here:
//!
//! * the fused CI-test kernel (dense tabulation, statistic folding, and the
//!   chi-squared p-value),
//! * the vectorized decision-table detect pass
//!   (`CompiledProgram::check_table_raw_into` with a caller-owned
//!   [`DetectScratch`]), on packed `u64` keys and on code-vector keys
//!   (a determinant domain past `u64`), and
//! * the same detect pass with the observability layer's [`NoopRecorder`]
//!   explicitly installed — the tracing instrumentation's zero-overhead
//!   contract (a disarmed span is one relaxed atomic load, no heap), and
//! * the same detect pass with disarmed *metrics* call sites in the loop —
//!   the metrics layer's twin contract (a disarmed `observe`/`add` is one
//!   relaxed atomic load: no label formatting, no registry, no heap).
//!
//! The whole test binary runs under a counting global allocator (its own
//! integration-test binary, so no other tests pollute the counter). The
//! counter is still process-global, so the tests serialize on a mutex —
//! cargo's default parallel test threads would otherwise attribute one
//! test's allocations to the other's measured window. Each test warms its
//! kernel on every shape it will measure, snapshots the allocation counter,
//! and then requires hundreds of further passes to leave it untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use guardrail::dsl::ast::{Branch, Condition, Program, Statement};
use guardrail::dsl::{CompiledProgram, DetectScratch};
use guardrail::obs::{self, NoopRecorder};
use guardrail::stats::suffstats::{ci_test_fused, Strata, StratumPack};
use guardrail::stats::CiTestKind;
use guardrail::table::{Table, TableBuilder, Value};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests: `ALLOCATIONS` is process-global, so concurrent
/// tests would pollute each other's measured windows.
static SERIAL: Mutex<()> = Mutex::new(());

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

#[test]
fn steady_state_ci_tests_do_not_allocate() {
    let _guard = SERIAL.lock().unwrap();
    let mut rng = xorshift(1234);
    let n = 20_000;
    let (nx, ny) = (3usize, 4usize);
    let x: Vec<u32> = (0..n).map(|_| (rng() % nx as u64) as u32).collect();
    let y: Vec<u32> = (0..n).map(|_| (rng() % ny as u64) as u32).collect();
    let z1: Vec<u32> = (0..n).map(|_| (rng() % 4) as u32).collect();
    let z2: Vec<u32> = (0..n).map(|_| (rng() % 5) as u32).collect();
    let pack1 = StratumPack::pack(&[&z1], &[4]).unwrap();
    let pack2 = pack1.extend(&z2, 5).unwrap();

    let run_all = |salt: u32| {
        // `salt` perturbs nothing statistically relevant; it only keeps the
        // optimizer from hoisting the calls.
        let strata1 = Strata { keys: pack1.keys(), domain: pack1.domain() };
        let strata2 = Strata { keys: pack2.keys(), domain: pack2.domain() };
        let mut acc = 0.0;
        for kind in [CiTestKind::G2, CiTestKind::Pearson] {
            acc += ci_test_fused(kind, &x, &y, None, nx, ny).statistic;
            acc += ci_test_fused(kind, &x, &y, Some(strata1), nx, ny).statistic;
            acc += ci_test_fused(kind, &x, &y, Some(strata2), nx, ny).statistic;
        }
        std::hint::black_box(acc + salt as f64);
    };

    // Warm the thread-local scratch on every shape measured below.
    for salt in 0..3 {
        run_all(salt);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for salt in 0..500 {
        run_all(salt);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warmed dense-path CI tests must not touch the heap ({} allocations over 3000 tests)",
        after - before
    );
}

/// A noisy two-statement serving table: zip determines city, city determines
/// state, with a sprinkle of corrupted dependents so the detect pass emits
/// violations (the emit path is the part most tempted to allocate).
fn noisy_table(rows: usize) -> (Table, Program) {
    let mut rng = xorshift(987);
    let mut builder =
        TableBuilder::new(vec!["zip".to_string(), "city".to_string(), "state".to_string()]);
    for _ in 0..rows {
        let z = rng() % 16;
        let city = if rng() % 50 == 0 { (z + 1) % 8 } else { z % 8 };
        let state = if rng() % 50 == 0 { (city + 1) % 4 } else { city % 4 };
        builder
            .push_row(vec![
                Value::from(format!("z{z}")),
                Value::from(format!("c{city}")),
                Value::from(format!("s{state}")),
            ])
            .unwrap();
    }
    let table = builder.finish().unwrap();

    let fd = |given: &str, on: &str, pairs: Vec<(String, String)>| Statement {
        given: vec![given.to_string()],
        on: on.to_string(),
        branches: pairs
            .into_iter()
            .map(|(lhs, rhs)| Branch {
                condition: Condition::new(vec![(given.to_string(), Value::from(lhs))]),
                target: on.to_string(),
                literal: Value::from(rhs),
            })
            .collect(),
    };
    let program = Program {
        statements: vec![
            fd("zip", "city", (0..16).map(|z| (format!("z{z}"), format!("c{}", z % 8))).collect()),
            fd("city", "state", (0..8).map(|c| (format!("c{c}"), format!("s{}", c % 4))).collect()),
        ],
    };
    (table, program)
}

#[test]
fn steady_state_vectorized_detect_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap();
    let (table, program) = noisy_table(12_000);
    let compiled = CompiledProgram::compile(&program, &table).unwrap();

    let mut out = Vec::new();
    let mut scratch = DetectScratch::default();
    // Warm: first passes size the key buffer and the output vector.
    for _ in 0..3 {
        compiled.check_table_raw_into(&table, &mut out, &mut scratch);
    }
    assert!(!out.is_empty(), "the noisy table must produce violations to exercise the emit path");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..200 {
        compiled.check_table_raw_into(&table, &mut out, &mut scratch);
        std::hint::black_box(out.len());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warmed vectorized detect must not touch the heap ({} allocations over 200 passes)",
        after - before
    );
}

#[test]
fn steady_state_code_vector_detect_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap();
    // Five determinants with 8,192 distinct values each: 8194⁵ > 2⁶⁴, so the
    // statement's decision table is keyed on digit vectors, not u64s.
    let names: Vec<String> = (0..5).map(|k| format!("d{k}")).chain(["y".to_string()]).collect();
    let mut builder = TableBuilder::new(names.clone());
    for row in 0..8_192i64 {
        let mut cells: Vec<Value> =
            (0..5).map(|k| Value::Int((row * (2 * k + 1)) % 8_192)).collect();
        cells.push(Value::from(if row % 50 == 0 { "bad" } else { "ok" }));
        builder.push_row(cells).unwrap();
    }
    let table = builder.finish().unwrap();
    let branches = (0..500i64)
        .map(|row| Branch {
            condition: Condition::new(
                (0..5)
                    .map(|k| (names[k as usize].clone(), Value::Int((row * (2 * k + 1)) % 8_192)))
                    .collect(),
            ),
            target: "y".to_string(),
            literal: Value::from("ok"),
        })
        .collect();
    let program = Program {
        statements: vec![Statement { given: names[..5].to_vec(), on: "y".to_string(), branches }],
    };
    let compiled = CompiledProgram::compile(&program, &table).unwrap();

    let mut out = Vec::new();
    let mut scratch = DetectScratch::default();
    for _ in 0..3 {
        compiled.check_table_raw_into(&table, &mut out, &mut scratch);
    }
    assert_eq!(out.len(), 10, "rows 0, 50, …, 450 are covered and dirty");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        compiled.check_table_raw_into(&table, &mut out, &mut scratch);
        std::hint::black_box(out.len());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warmed code-vector detect must not touch the heap ({} allocations over 100 passes)",
        after - before
    );
}

#[test]
fn detect_with_noop_recorder_installed_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap();
    // Installing the Noop recorder is the observability layer's "off" state
    // made explicit: the gate stays closed, so every span/counter call in
    // the instrumented detect path must stay a single relaxed atomic load.
    obs::install(std::sync::Arc::new(NoopRecorder));
    assert!(!obs::recording(), "Noop recorder must keep the gate closed");
    let (table, program) = noisy_table(12_000);
    let compiled = CompiledProgram::compile(&program, &table).unwrap();

    let mut out = Vec::new();
    let mut scratch = DetectScratch::default();
    for _ in 0..3 {
        compiled.check_table_raw_into(&table, &mut out, &mut scratch);
    }
    assert!(!out.is_empty());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..200 {
        compiled.check_table_raw_into(&table, &mut out, &mut scratch);
        std::hint::black_box(out.len());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disarmed tracing must add zero allocations ({} over 200 passes)",
        after - before
    );
}

#[test]
fn detect_with_disarmed_metrics_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap();
    // This binary never arms the metrics gate, so these call sites — the
    // exact shapes used at the serving hot boundaries — must stay a single
    // relaxed atomic load each: no label formatting, no registry insert,
    // no heap.
    assert!(!obs::metrics_on(), "metrics must stay disarmed in this binary");
    let (table, program) = noisy_table(12_000);
    let compiled = CompiledProgram::compile(&program, &table).unwrap();

    let mut out = Vec::new();
    let mut scratch = DetectScratch::default();
    for _ in 0..3 {
        compiled.check_table_raw_into(&table, &mut out, &mut scratch);
    }
    assert!(!out.is_empty());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for pass in 0..200u64 {
        compiled.check_table_raw_into(&table, &mut out, &mut scratch);
        obs::metrics::observe("guardrail_incremental_probed_rows", "", out.len() as u64);
        obs::metrics::add("guardrail_server_requests_total", "tenant=\"t\",verb=\"detect\"", pass);
        std::hint::black_box(out.len());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disarmed metrics must add zero allocations ({} over 200 passes)",
        after - before
    );
    assert_eq!(obs::metrics::series_count(), 0, "disarmed observes must register nothing");
}
