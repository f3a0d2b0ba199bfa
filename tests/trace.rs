//! Trace-schema integration tests: arm a recorder, run the real pipeline,
//! and validate the event stream end to end — spans nest and balance per
//! thread, counter samples are per-series running totals, and the
//! Chrome-trace export carries every expected stage with its counters.
//!
//! The recorder registry is process-global, so every test that arms it
//! serializes on [`SERIAL`].

use guardrail::obs;
use guardrail::obs::{Event, RingRecorder};
use guardrail::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

fn clean_table(rows: usize) -> Table {
    let mut csv = String::from("zip,city,weather\n");
    for i in 0..rows {
        let (zip, city) = if i % 2 == 0 { (94704, "Berkeley") } else { (97201, "Portland") };
        csv.push_str(&format!("{zip},{city},w{}\n", i % 7));
    }
    Table::from_csv_str(&csv).unwrap()
}

/// Runs one fit and one detection under an armed ring recorder and returns
/// the captured events.
fn traced_fit_and_check() -> Vec<Event> {
    let ring = Arc::new(RingRecorder::with_capacity(1 << 20));
    obs::install(ring.clone());
    let table = clean_table(2000);
    let guard = Guardrail::builder().fit(&table).unwrap();
    assert!(!guard.program().statements.is_empty(), "fixture must synthesize");
    let dirty = Table::from_csv_str("zip,city,weather\n94704,gibbon,w0\n").unwrap();
    let _ = guard.detect(&dirty);
    obs::uninstall();
    ring.take()
}

#[test]
fn spans_nest_and_balance_per_thread() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let events = traced_fit_and_check();
    assert!(!events.is_empty());
    let mut stacks: HashMap<u64, Vec<u64>> = HashMap::new();
    for event in &events {
        match event {
            Event::SpanStart { id, parent, tid, .. } => {
                let stack = stacks.entry(*tid).or_default();
                // The recorded parent is whatever span was open on this
                // thread when the child started.
                assert_eq!(*parent, stack.last().copied().unwrap_or(0), "bad parent for {id}");
                stack.push(*id);
            }
            Event::SpanEnd { id, tid, .. } => {
                assert_eq!(stacks.entry(*tid).or_default().pop(), Some(*id), "unbalanced end");
            }
            Event::Counter { .. } => {}
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
    }
}

#[test]
fn counters_are_per_series_monotone() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!obs::metrics_on(), "this binary never arms metrics");
    let ring = Arc::new(RingRecorder::with_capacity(1 << 20));
    obs::install(ring.clone());
    let table = clean_table(2000);
    let mut catalog = Catalog::new();
    catalog.add_table("t", table.clone());
    let out = Executor::new(&catalog).run("SELECT city FROM t WHERE zip = 94704 LIMIT 2").unwrap();
    assert!(out.stats.rules_applied > 0, "the query must fire an optimizer rule");
    let guard = Guardrail::builder().budget(Budget::with_work_cap(1)).fit(&table).unwrap();
    assert!(!guard.report().is_complete(), "the work cap must degrade the fit");
    obs::uninstall();
    let trace = obs::chrome_trace(&ring.take());
    let doc = obs::json::parse(&trace).expect("trace is valid JSON");

    let mut last: HashMap<(u64, String), u64> = HashMap::new();
    for e in doc.get("traceEvents").and_then(obs::json::Json::as_arr).unwrap() {
        if e.get("ph").and_then(obs::json::Json::as_str) != Some("C") {
            continue;
        }
        let name = e.get("name").and_then(obs::json::Json::as_str).unwrap().to_string();
        let tid = e.get("tid").and_then(obs::json::Json::as_u64).unwrap();
        let value = e.get("args").and_then(|a| a.get("value")).and_then(obs::json::Json::as_u64);
        let value = value.expect("counter sample carries args.value");
        let prev = last.insert((tid, name.clone()), value).unwrap_or(0);
        assert!(value >= prev, "{name} on tid {tid} went {prev} -> {value}");
    }
    let has = |prefix: &str| last.keys().any(|(_, n)| n.starts_with(prefix) && n.ends_with("\"}"));
    assert!(has("guardrail_sql_opt_rule_applications_total{rule=\""), "{:?}", last.keys());
    assert!(has("guardrail_governor_degradations_total{stage=\""), "{:?}", last.keys());
}

#[test]
fn chrome_trace_carries_every_stage_with_counters() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let events = traced_fit_and_check();
    let trace = obs::chrome_trace(&events);
    let doc = obs::json::parse(&trace).expect("trace is valid JSON");
    let trace_events = doc.get("traceEvents").and_then(obs::json::Json::as_arr).unwrap();

    let names: Vec<&str> = trace_events
        .iter()
        .filter(|e| e.get("ph").and_then(obs::json::Json::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(obs::json::Json::as_str))
        .collect();
    for stage in [
        "synthesis",
        "structure_learning",
        "pc_skeleton",
        "pc_level",
        "mec_enumeration",
        "sketch_fill",
        "fill_statement",
        "detect",
        "check_table",
        "detect_chunk",
    ] {
        assert!(names.contains(&stage), "stage {stage} missing from trace; have {names:?}");
    }

    // Work-unit / cache counters ride as args on the end events.
    let arg_of = |span: &str, key: &str| {
        trace_events.iter().find_map(|e| {
            (e.get("ph").and_then(obs::json::Json::as_str) == Some("E")
                && e.get("name").and_then(obs::json::Json::as_str) == Some(span))
            .then(|| e.get("args").and_then(|a| a.get(key)).and_then(obs::json::Json::as_u64))
            .flatten()
        })
    };
    assert!(arg_of("pc_level", "cache_hits").is_some(), "pc_level lost its cache-hit arg");
    assert!(arg_of("pc_level", "edges_tested").is_some());
    assert!(arg_of("pc_level", "rows").unwrap_or(0) > 0, "pc_level lost its rows arg");
    // Every CI test on the auxiliary sample runs on the bit kernel.
    assert!(arg_of("pc_level", "bit_tests").unwrap_or(0) > 0);
    assert_eq!(arg_of("pc_level", "packed_tests"), Some(0));
    assert_eq!(arg_of("mec_enumeration", "truncated"), Some(0));
    assert!(arg_of("fill_statement", "candidate_groups").is_some());
    assert!(arg_of("synthesis", "work_units").unwrap_or(0) > 0, "no work charged");
    assert_eq!(arg_of("detect", "violations"), Some(1));
}

/// `Coerce` nulls the cells of the violations its one scan found: each
/// table-in entry point records exactly one `check_table` span.
#[test]
fn coerce_scans_each_table_once() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let guard = Guardrail::builder().fit(&clean_table(600)).unwrap();
    let dirty =
        Table::from_csv_str("zip,city,weather\n94704,gibbon,w0\n97201,Portland,w1\n").unwrap();
    let rows = [0, 1];
    let scans = |run: &dyn Fn()| {
        let ring = Arc::new(RingRecorder::with_capacity(1 << 12));
        obs::install(ring.clone());
        run();
        obs::uninstall();
        let events = ring.take();
        events.iter().filter(|e| matches!(e, Event::SpanStart { name: "check_table", .. })).count()
    };
    let scheme = ErrorScheme::Coerce;
    let applied = || assert_eq!(guard.apply(&dirty, scheme).1.cells_changed, 1);
    assert_eq!(scans(&applied), 1, "apply");
    let vetted = || assert_eq!(guard.vet_rows(&dirty, &rows, scheme).unwrap().cells_changed, 1);
    assert_eq!(scans(&vetted), 1, "vet_rows");
}

#[test]
fn disarmed_pipeline_records_nothing() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::uninstall();
    let table = clean_table(400);
    let guard = Guardrail::builder().fit(&table).unwrap();
    let _ = guard.detect(&table);
    assert!(!obs::recording());
    // Arm a ring afterwards: nothing from the disarmed run leaks in.
    let ring = Arc::new(RingRecorder::with_capacity(64));
    obs::install(ring.clone());
    obs::uninstall();
    assert!(ring.take().is_empty());
}
