//! One bind decision: a statement binds to a table when every one of its
//! GIVEN and ON attributes is a column (`Program::unbound`). Every entry
//! point, guarded SQL included, runs the statements that bind and reports
//! the rest. The differential proptest over dropped columns lives in
//! `tests/detect_vector.rs`; these are the deterministic probes.

use guardrail::core::{ErrorScheme, Guardrail};
use guardrail::dsl::{parse_program, DriftConfig, DriftMonitor, IncrementalDetector, Unbound};
use guardrail::governor::Budget;
use guardrail::ml::NaiveBayes;
use guardrail::obs::json::{self, Json};
use guardrail::server::chaos::Client;
use guardrail::server::{Server, ServerConfig};
use guardrail::sqlexec::{Catalog, Executor, SqlError};
use guardrail::table::{Table, Value};
use std::sync::Arc;

/// `a → b` then `g → h`.
const TWO_STATEMENTS: &str = r#"
    GIVEN a ON b HAVING IF a = 0 THEN b <- 0; IF a = 1 THEN b <- 10;
    GIVEN g ON h HAVING IF g = 0 THEN h <- 100; IF g = 1 THEN h <- 101;"#;

/// `rows` rows over `header` (four columns): `a`, `b = 10a`, `g`,
/// `h = 100 + g`, with `h` broken on every row in `dirty`.
fn probe_csv(header: &str, rows: usize, dirty: &[usize]) -> String {
    let mut csv = format!("{header}\n");
    for i in 0..rows {
        let (a, g) = (i % 2, (i / 2) % 2);
        let h = if dirty.contains(&i) { 101 - g } else { 100 + g };
        csv.push_str(&format!("{a},{},{g},{h}\n", a * 10));
    }
    csv
}

#[test]
fn given_attribute_no_branch_tests_must_still_be_a_column() {
    // `a` is in GIVEN but no branch condition tests it, and the table
    // lacks it: the statement does not bind, in detect, in the vetting
    // hook, and in SQL alike; with no statement bound, SQL fails before
    // the scan.
    let program =
        parse_program(r#"GIVEN g, a ON h HAVING IF g = 0 THEN h <- 100; IF g = 1 THEN h <- 101;"#)
            .unwrap();
    let unbound = vec![Unbound { statement: 0, missing: vec!["a".to_string()] }];
    let table = Table::from_csv_str("g,h\n0,100\n1,100\n0,100\n").unwrap();
    assert_eq!(program.unbound(table.schema()), unbound);
    let guard = Guardrail::from_program(program);

    let report = guard.detect(&table);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.unbound, unbound);
    assert!(!report.is_clean());
    assert!(guard.vet_rows(&table, &[0, 1, 2], ErrorScheme::Rectify).is_none());

    let mut catalog = Catalog::new();
    catalog.add_table("d", table.clone());
    catalog.add_model("m", Arc::new(NaiveBayes::fit(&table, 1)));
    let exec = Executor::new(&catalog).with_guardrail(&guard, ErrorScheme::Rectify);
    match exec.run("SELECT PREDICT(m) AS p FROM d") {
        Err(SqlError::GuardrailUnbound { table, missing }) => {
            assert_eq!((table.as_str(), missing), ("d", vec!["a".to_string()]));
        }
        other => panic!("expected GuardrailUnbound, got {other:?}"),
    }
}

#[test]
fn drift_alerts_carry_the_program_statement_index() {
    // Statement 0 does not bind, so the detector compiles statement 1
    // alone; its alert must still name statement 1.
    let program = parse_program(TWO_STATEMENTS).unwrap();
    let mut table = Table::from_csv_str(&probe_csv("A,B,g,h", 200, &[])).unwrap();
    let mut det = IncrementalDetector::new(&program, &table).unwrap();
    assert_eq!(det.compiled().unbound(), program.unbound(table.schema()).as_slice());
    let mut monitor = DriftMonitor::from_compiled(det.compiled(), DriftConfig::default()).unwrap();
    let seen = det.rows_seen();
    let batch: Vec<Vec<Value>> = (0..64)
        .map(|_| vec![Value::Int(0), Value::Int(0), Value::Int(0), Value::Int(101)])
        .collect();
    table.append_rows(&batch).unwrap();
    det.detect_appended(&table, &Budget::unlimited()).unwrap();
    let appended = det.violations_in(seen..det.rows_seen());
    assert!(appended.len() == 64 && appended.iter().all(|v| v.statement == 1));
    let alerts = monitor.observe_batch(&monitor.batch_counts(appended), 64);
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!((alerts[0].statement, &*alerts[0].attribute), (1, "h"));
    assert_eq!(monitor.observed_rate(1), Some(1.0));
}

#[test]
fn guarded_sql_vets_the_statements_that_bind() {
    // Statement 0 (`a → b`) does not bind to `A,B,g,h`; statement 1
    // (`g → h`) does, and row 3 breaks it.
    let guard = Guardrail::from_program(parse_program(TWO_STATEMENTS).unwrap());
    let table = Table::from_csv_str(&probe_csv("A,B,g,h", 40, &[3])).unwrap();
    let unbound = vec![Unbound { statement: 0, missing: vec!["a".to_string(), "b".to_string()] }];
    let model = Arc::new(NaiveBayes::fit(&table, 0));
    let catalog_of = |t: &Table| {
        let mut catalog = Catalog::new();
        catalog.add_table("d", t.clone());
        catalog.add_model("m", model.clone());
        catalog
    };
    let catalog = catalog_of(&table);
    let all: Vec<usize> = (0..table.num_rows()).collect();
    let queries = [
        "SELECT PREDICT(m) AS p, A, B, g, h FROM d",
        "SELECT h, PREDICT(m) AS p, COUNT(*) AS n FROM d WHERE g = 1 GROUP BY h, p ORDER BY h",
    ];
    for scheme in
        [ErrorScheme::Raise, ErrorScheme::Ignore, ErrorScheme::Coerce, ErrorScheme::Rectify]
    {
        let vet = guard.vet_rows(&table, &all, scheme).expect("statement 1 binds");
        assert_eq!(vet.unbound, unbound, "{scheme:?}");
        assert!(vet.violations.iter().all(|v| v.statement == 1), "{scheme:?}");
        assert_eq!(vet.violations.iter().map(|v| v.row).collect::<Vec<_>>(), [3], "{scheme:?}");
        // The reference: the naive plan, unguarded, over the vetted rows.
        let vetted = catalog_of(&vet.table);
        let reference = Executor::new(&vetted).with_pushdown(false);
        for pushdown in [true, false] {
            let exec =
                Executor::new(&catalog).with_guardrail(&guard, scheme).with_pushdown(pushdown);
            for sql in queries {
                let context = format!("{sql} under {scheme:?}, pushdown {pushdown}");
                let out = match exec.run(sql) {
                    Err(SqlError::GuardrailRaise { row, .. }) if scheme == ErrorScheme::Raise => {
                        assert_eq!(row, 3, "{context}");
                        continue;
                    }
                    other => other.unwrap_or_else(|e| panic!("{context}: {e}")),
                };
                assert_ne!(scheme, ErrorScheme::Raise, "{context}: row 3 must raise");
                let expected = reference.run(sql).unwrap().table.to_csv_string();
                assert_eq!(out.table.to_csv_string(), expected, "{context}");
                assert_eq!(
                    (out.stats.violations, out.stats.unbound_statements),
                    (1, 1),
                    "{context}"
                );
                let analyzed = exec.explain_analyze(sql).unwrap();
                assert!(analyzed.contains(", 1 unbound statements)"), "{context}: {analyzed}");
            }
        }
    }
}

#[test]
fn a_column_only_unbound_statements_write_crosses_the_vet() {
    // Statement 0 writes `city` but `zip` is missing, so it does not bind
    // and nothing rewrites `city`: a pin on it is pushed into the scan.
    let program = parse_program(
        r#"GIVEN zip ON city HAVING IF zip = 94704 THEN city <- "Berkeley";
           GIVEN city ON state HAVING IF city = "Berkeley" THEN state <- "CA";"#,
    )
    .unwrap();
    let guard = Guardrail::from_program(program);
    let table = Table::from_csv_str("city,state\nBerkeley,CA\nPortland,OR\nBerkeley,XX\n").unwrap();
    let mut catalog = Catalog::new();
    catalog.add_table("t", table.clone());
    catalog.add_model("m", Arc::new(NaiveBayes::fit(&table, 1)));
    let sql = "SELECT PREDICT(m) AS p, state FROM t WHERE city = 'Portland'";
    let exec = Executor::new(&catalog).with_guardrail(&guard, ErrorScheme::Rectify);
    let plan = exec.explain(sql).unwrap();
    assert!(
        plan.contains("Scan t (3 rows, 2 columns)\n  Pushdown filter: (city = 'Portland')"),
        "{plan}"
    );
    let out = exec.run(sql).unwrap();
    assert_eq!((out.stats.rows_after_pushdown, out.stats.unbound_statements), (1, 1));
    let naive = exec.with_pushdown(false).run(sql).unwrap();
    assert_eq!(out.table.to_csv_string(), naive.table.to_csv_string());
}

fn request(client: &mut Client, op: &str, table: &str, csv: Option<&str>) -> Json {
    let csv = csv.map_or(String::new(), |c| format!(r#","csv":"{}""#, json::escape(c)));
    client.request(&format!(r#"{{"op":"{op}","table":"{table}"{csv}}}"#)).unwrap()
}

fn error_kind(resp: &Json) -> Option<&str> {
    resp.get("error")?.get("kind")?.as_str()
}

/// `[{"statement":0,"missing":["a","b"]}]` as the wire renders it.
fn assert_statement_0_lacks_a_b(resp: &Json) {
    let unbound = resp.get("unbound_statements").and_then(Json::as_arr).expect("unbound field");
    assert_eq!(unbound.len(), 1, "{resp:?}");
    assert_eq!(unbound[0].get("statement").and_then(Json::as_u64), Some(0));
    let missing: Vec<&str> = unbound[0]
        .get("missing")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(missing, ["a", "b"]);
}

#[test]
fn server_runs_bound_statements_and_types_a_schema_mismatch() {
    // Arming is process-global and sticky; no other test in this binary
    // reads the registry.
    guardrail::obs::arm_metrics(true);
    let root = std::env::temp_dir().join(format!("guardrail-bind-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let handle =
        Server::spawn(ServerConfig { store_root: Some(root.clone()), ..ServerConfig::default() })
            .expect("bind");
    for table in ["partial", "unrelated"] {
        let guard = Guardrail::from_program(parse_program(TWO_STATEMENTS).unwrap());
        handle.ctx().registry.publish("default", table, guard, 0);
    }
    let mut client = Client::connect(handle.addr()).unwrap();

    // Fully bound input: no `unbound_statements` member at all.
    let bound = probe_csv("a,b,g,h", 8, &[3]);
    let resp = request(&mut client, "detect", "partial", Some(&bound));
    assert_eq!(resp.get("dirty_rows").and_then(Json::as_u64), Some(1), "{resp:?}");
    assert!(resp.get("unbound_statements").is_none(), "{resp:?}");

    // Renamed `a,b`: `g → h` still runs and finds the same violation.
    let partial = probe_csv("A,B,g,h", 8, &[3]);
    for op in ["detect", "rectify", "vet"] {
        let resp = request(&mut client, op, "partial", Some(&partial));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{op}: {resp:?}");
        let violations = resp.get("violations").and_then(Json::as_arr).unwrap();
        assert_eq!(violations.len(), 1, "{op}: {resp:?}");
        assert_eq!(violations[0].get("row").and_then(Json::as_u64), Some(3));
        assert_eq!(violations[0].get("statement").and_then(Json::as_u64), Some(1));
        assert_statement_0_lacks_a_b(&resp);
    }

    // A payload no statement binds to is a typed error on every verb.
    let unrelated = "x,y\n1,2\n";
    for op in ["detect", "rectify", "vet"] {
        let resp = request(&mut client, op, "partial", Some(unrelated));
        assert_eq!(error_kind(&resp), Some("SCHEMA_MISMATCH"), "{op}: {resp:?}");
    }

    // `detect_batch` binds against the store's schema the same way.
    let created = request(&mut client, "append", "partial", Some(&partial));
    assert_eq!(created.get("created"), Some(&Json::Bool(true)), "{created:?}");
    let seed = request(&mut client, "detect_batch", "partial", None);
    assert_eq!(seed.get("seeded"), Some(&Json::Bool(true)), "{seed:?}");
    assert_eq!(seed.get("violations").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    assert_statement_0_lacks_a_b(&seed);
    request(&mut client, "append", "unrelated", Some(unrelated));
    let resp = request(&mut client, "detect_batch", "unrelated", None);
    assert_eq!(error_kind(&resp), Some("SCHEMA_MISMATCH"), "{resp:?}");

    // `status` counts the requests that ran with a statement unbound:
    // `detect`, `rectify`, `vet` and `detect_batch` on `partial`. Fully
    // bound requests and `SCHEMA_MISMATCH` errors are not counted.
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    let engines = status.get("engines").and_then(Json::as_arr).expect("engines");
    let counts: Vec<(&str, Option<u64>)> = engines
        .iter()
        .map(|e| {
            let table = e.get("table").and_then(Json::as_str).unwrap();
            (table, e.get("requests_with_unbound").and_then(Json::as_u64))
        })
        .collect();
    assert_eq!(counts, [("partial", Some(4)), ("unrelated", Some(0))], "{status:?}");
    // With metrics armed, each of them adds its one unbound statement.
    let metrics = client.request(r#"{"op":"metrics"}"#).unwrap();
    let text = metrics.get("prometheus").and_then(Json::as_str).unwrap();
    for verb in ["detect", "rectify", "vet", "detect_batch"] {
        let series = format!(
            r#"guardrail_unbound_statements_total{{tenant="default",table="partial",verb="{verb}"}} 1"#
        );
        assert!(text.contains(&series), "missing {series:?} in:\n{text}");
    }
    assert!(!text.contains(r#"table="unrelated",verb"#), "{text}");

    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
