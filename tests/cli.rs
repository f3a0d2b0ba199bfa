//! Integration tests for the `guardrail` CLI binary.

use guardrail::prelude::TableStore;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_guardrail")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("binary runs")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("guardrail_cli_tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_clean_csv(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("clean.csv");
    let mut csv = String::from("zip,city\n");
    for _ in 0..150 {
        csv.push_str("94704,Berkeley\n97201,Portland\n");
    }
    std::fs::write(&path, csv).unwrap();
    path
}

#[test]
fn synth_check_repair_roundtrip() {
    let dir = tmpdir("roundtrip");
    let clean = write_clean_csv(&dir);
    let constraints = dir.join("constraints.gr");

    // synth writes a parseable constraint file.
    let out = run(&["synth", clean.to_str().unwrap(), "--output", constraints.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&constraints).unwrap();
    assert!(text.contains("GIVEN"), "{text}");

    // check on clean data exits 0.
    let out =
        run(&["check", clean.to_str().unwrap(), "--constraints", constraints.to_str().unwrap()]);
    assert!(out.status.success());

    // check on dirty data exits 1 and reports the row.
    let dirty = dir.join("dirty.csv");
    std::fs::write(&dirty, "zip,city\n94704,gibbon\n97201,Portland\n").unwrap();
    let out =
        run(&["check", dirty.to_str().unwrap(), "--constraints", constraints.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("row 0"), "{stdout}");

    // repair rectifies and the result passes check.
    let fixed = dir.join("fixed.csv");
    let out = run(&[
        "repair",
        dirty.to_str().unwrap(),
        "--constraints",
        constraints.to_str().unwrap(),
        "--output",
        fixed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let fixed_text = std::fs::read_to_string(&fixed).unwrap();
    assert!(fixed_text.contains("Berkeley"), "{fixed_text}");
    assert!(!fixed_text.contains("gibbon"));
    let out =
        run(&["check", fixed.to_str().unwrap(), "--constraints", constraints.to_str().unwrap()]);
    assert!(out.status.success());
}

#[test]
fn repair_coerce_scheme() {
    let dir = tmpdir("coerce");
    let clean = write_clean_csv(&dir);
    let constraints = dir.join("c.gr");
    run(&["synth", clean.to_str().unwrap(), "--output", constraints.to_str().unwrap()]);
    let dirty = dir.join("dirty.csv");
    std::fs::write(&dirty, "zip,city\n94704,gibbon\n").unwrap();
    let out = run(&[
        "repair",
        dirty.to_str().unwrap(),
        "--constraints",
        constraints.to_str().unwrap(),
        "--scheme",
        "coerce",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("94704,\n"), "coerced cell should be empty: {stdout}");
}

/// A chained repair gives the same answer whether or not the batch already
/// holds the intermediate literal ("Berkeley" is what `city` is repaired
/// to, and what `state`'s condition tests).
#[test]
fn repair_chains_through_a_freshly_interned_literal() {
    let dir = tmpdir("chained");
    let constraints = dir.join("chain.gr");
    std::fs::write(
        &constraints,
        "GIVEN zip ON city HAVING IF zip = 94704 THEN city <- \"Berkeley\";\n\
         GIVEN city ON state HAVING IF city = \"Berkeley\" THEN state <- \"CA\";\n",
    )
    .unwrap();
    for (name, csv) in [
        ("one_row.csv", "zip,city,state\n94704,gibbon,XX\n"),
        ("two_rows.csv", "zip,city,state\n94704,gibbon,XX\n94704,Berkeley,CA\n"),
    ] {
        let dirty = dir.join(name);
        std::fs::write(&dirty, csv).unwrap();
        let out = run(&[
            "repair",
            dirty.to_str().unwrap(),
            "--constraints",
            constraints.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().nth(1), Some("94704,Berkeley,CA"), "{name}: {stdout}");
    }
}

#[test]
fn structure_prints_edges() {
    let dir = tmpdir("structure");
    let clean = write_clean_csv(&dir);
    let out = run(&["structure", clean.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("zip"), "{stdout}");
    assert!(stdout.contains("--") || stdout.contains("->"), "{stdout}");
}

#[test]
fn bad_invocations_fail_cleanly() {
    assert_eq!(run(&["bogus"]).status.code(), Some(2));
    assert_eq!(run(&["synth"]).status.code(), Some(2));
    assert_eq!(run(&["check", "nope.csv", "--constraints", "also-nope"]).status.code(), Some(2));
    assert_eq!(run(&["synth", "x.csv", "--unknown-flag", "v"]).status.code(), Some(2));
    // --help prints usage and succeeds.
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn synth_respects_epsilon_flag() {
    let dir = tmpdir("epsilon");
    // a → b with 10% flip noise, and b → a non-functional (b=x maps to two
    // distinct a values), so only the a → b direction is synthesizable:
    // ε = 0.2 accepts its noisy branches, ε = 0.01 rejects them all.
    let path = dir.join("noisy.csv");
    let mut csv = String::from("a,b\n");
    for i in 0..100 {
        let noisy = i % 10 == 0;
        csv.push_str(&format!("0,{}\n", if noisy { "y" } else { "x" }));
        csv.push_str(&format!("1,{}\n", if noisy { "y" } else { "x" }));
        csv.push_str(&format!("2,{}\n", if noisy { "x" } else { "y" }));
    }
    std::fs::write(&path, csv).unwrap();
    let strict = run(&["synth", path.to_str().unwrap(), "--epsilon", "0.01"]);
    let loose = run(&["synth", path.to_str().unwrap(), "--epsilon", "0.2"]);
    assert!(strict.status.success() && loose.status.success());
    let strict_out = String::from_utf8_lossy(&strict.stdout);
    let loose_out = String::from_utf8_lossy(&loose.stdout);
    assert_eq!(
        strict_out.matches("IF").count(),
        0,
        "strict ε must reject noisy branches:\n{strict_out}"
    );
    assert!(loose_out.matches("IF").count() >= 2, "loose ε must keep them:\n{loose_out}");
}

#[test]
fn synth_rejects_epsilon_out_of_range() {
    let dir = tmpdir("epsilon_range");
    let clean = write_clean_csv(&dir);
    for eps in ["1", "1.5", "-0.1", "nan"] {
        let out = run(&["synth", clean.to_str().unwrap(), "--epsilon", eps]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--epsilon {eps}: {stderr}");
        assert!(stderr.contains("epsilon must be in [0,1)"), "--epsilon {eps}: {stderr}");
        assert!(!stderr.contains("panicked"), "--epsilon {eps}: {stderr}");
    }
}

#[test]
fn report_and_trace_flags() {
    let dir = tmpdir("report_trace");
    let clean = write_clean_csv(&dir);
    let constraints = dir.join("c.gr");
    let fit_trace = dir.join("fit_trace.json");

    // --report prints the stage tree; --trace-out writes a Chrome trace.
    let out = run(&[
        "synth",
        clean.to_str().unwrap(),
        "--output",
        constraints.to_str().unwrap(),
        "--report",
        "--trace-out",
        fit_trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pipeline report"), "{stderr}");
    assert!(stderr.contains("synthesis"), "{stderr}");
    assert!(stderr.contains("structure_learning"), "{stderr}");
    assert!(stderr.contains("mec_enumeration"), "{stderr}");
    assert!(stderr.contains("sketch_fill"), "{stderr}");
    assert!(stderr.contains("ci_cache_hit_rate="), "{stderr}");
    assert!(stderr.contains("work_units="), "{stderr}");
    assert!(stderr.contains("degradations: none"), "{stderr}");

    // The trace file is Perfetto-shaped JSON with the synthesis stage spans.
    let trace = std::fs::read_to_string(&fit_trace).unwrap();
    assert!(trace.starts_with('{'), "{trace}");
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    for name in ["pc_level", "mec_enumeration", "fill_statement", "synthesis"] {
        assert!(trace.contains(&format!("\"name\":\"{name}\"")), "missing {name} span:\n{trace}");
    }
    assert!(trace.contains("\"cache_hits\""), "pc_level cache args missing:\n{trace}");

    // check --report surfaces serving-side metrics, including the
    // engine-fallback count.
    let check_trace = dir.join("check_trace.json");
    let out = run(&[
        "check",
        clean.to_str().unwrap(),
        "--constraints",
        constraints.to_str().unwrap(),
        "--report",
        "--trace-out",
        check_trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pipeline report"), "{stderr}");
    assert!(stderr.contains("check_table"), "{stderr}");
    assert!(stderr.contains("engine_fallback_statements=0"), "{stderr}");
    let trace = std::fs::read_to_string(&check_trace).unwrap();
    assert!(trace.contains("\"name\":\"detect_chunk\""), "{trace}");

    // A degraded fit routes its degradations through the report.
    let out = run(&["synth", clean.to_str().unwrap(), "--budget-ms", "0", "--report"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degradations:"), "{stderr}");
    assert!(!stderr.contains("degradations: none"), "{stderr}");
}

#[test]
fn synth_budget_flags_degrade_gracefully() {
    let dir = tmpdir("budget");
    let clean = write_clean_csv(&dir);

    // A zero wall-clock budget still succeeds: synth is anytime, so it emits
    // whatever it found (possibly nothing) and says which stage was cut.
    let out = run(&["synth", clean.to_str().unwrap(), "--budget-ms", "0"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget exhausted"), "{stderr}");

    // An ample work cap completes without any degradation notice.
    let out = run(&["synth", clean.to_str().unwrap(), "--max-work", "100000000"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("budget exhausted"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("GIVEN"));

    // Malformed budget values are usage errors.
    assert_eq!(
        run(&["synth", clean.to_str().unwrap(), "--budget-ms", "soon"]).status.code(),
        Some(2)
    );
    assert_eq!(run(&["synth", clean.to_str().unwrap(), "--max-work", "-1"]).status.code(), Some(2));
}

#[test]
fn ingest_then_synth_and_check_from_store() {
    let dir = tmpdir("store");
    let _ = std::fs::remove_dir_all(dir.join("tbl"));
    let clean = write_clean_csv(&dir);
    let store = dir.join("tbl");
    let store_arg = store.to_str().unwrap();

    // ingest loads the CSV into a fresh store: every row in the base
    // segment, the WAL just its 8-byte header.
    let out = run(&["ingest", clean.to_str().unwrap(), "--store", store_arg]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("created"), "{stderr}");
    assert!(stderr.contains("300 row(s)"), "{stderr}");
    assert_eq!(std::fs::metadata(store.join("wal.log")).unwrap().len(), 8);
    assert_eq!(TableStore::open(&store).unwrap().base_rows(), 300);

    // a second ingest appends the file as one durable WAL batch, with
    // --report metrics.
    let dirty = dir.join("dirty.csv");
    std::fs::write(&dirty, "zip,city\n94704,gibbon\n").unwrap();
    let out = run(&["ingest", dirty.to_str().unwrap(), "--store", store_arg, "--report"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("appended to"), "{stderr}");
    assert!(stderr.contains("rows_total=301"), "{stderr}");
    assert!(stderr.contains("wal_batches=1"), "{stderr}");

    // synth runs off the store; check finds the appended dirty row.
    let constraints = dir.join("constraints.gr");
    let out = run(&["synth", "--store", store_arg, "--output", constraints.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = run(&["check", "--store", store_arg, "--constraints", constraints.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("row 300"), "{stdout}");

    // Giving both a CSV path and --store is a usage error, as is neither.
    let both = run(&[
        "check",
        clean.to_str().unwrap(),
        "--store",
        store_arg,
        "--constraints",
        constraints.to_str().unwrap(),
    ]);
    assert_eq!(both.status.code(), Some(2));
    let neither = run(&["check", "--constraints", constraints.to_str().unwrap()]);
    assert_eq!(neither.status.code(), Some(2));

    // ingest without --store is a usage error, and there is no batch size.
    assert_eq!(run(&["ingest", clean.to_str().unwrap()]).status.code(), Some(2));
    let batched = ["ingest", clean.to_str().unwrap(), "--store", store_arg, "--batch-rows", "64"];
    assert_eq!(run(&batched).status.code(), Some(2));

    // A header-only CSV creates an empty store with the header as schema.
    let header_only = dir.join("header_only.csv");
    std::fs::write(&header_only, "zip,city\n").unwrap();
    let empty = dir.join("empty");
    let _ = std::fs::remove_dir_all(&empty);
    let out = run(&["ingest", header_only.to_str().unwrap(), "--store", empty.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let opened = TableStore::open(&empty).unwrap();
    assert_eq!(opened.table().num_rows(), 0);
    assert_eq!(opened.table().schema().names(), ["zip", "city"]);
}

/// 3,000 clean rows where `city` determines `zip`, over four cities with
/// non-ASCII names plus Bern, and 300 rows to check with 30 wrong zips (six
/// per city, each another city's zip).
fn write_non_ascii_probe(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let cities =
        [("Zürich", 8001), ("München", 80331), ("Genève", 1201), ("Kraków", 30001), ("Bern", 3011)];
    let mut clean = String::from("city,zip\n");
    for i in 0..3000 {
        let (city, zip) = cities[i % 5];
        clean.push_str(&format!("{city},{zip}\n"));
    }
    let mut dirty = String::from("city,zip\n");
    for i in 0..300 {
        let (city, mut zip) = cities[i % 5];
        if i % 10 == (i / 10) % 5 {
            zip = cities[(i + 1) % 5].1;
        }
        dirty.push_str(&format!("{city},{zip}\n"));
    }
    let (clean_path, dirty_path) = (dir.join("clean.csv"), dir.join("dirty.csv"));
    std::fs::write(&clean_path, clean).unwrap();
    std::fs::write(&dirty_path, dirty).unwrap();
    (clean_path, dirty_path)
}

#[test]
fn non_ascii_constraints_fire_on_every_city() {
    let dir = tmpdir("non_ascii");
    let (clean, dirty) = write_non_ascii_probe(&dir);
    let constraints = dir.join("constraints.gr");
    let out = run(&["synth", clean.to_str().unwrap(), "--output", constraints.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&constraints).unwrap();
    assert!(text.contains("\"Zürich\"") && text.contains("\"Kraków\""), "{text}");

    let out =
        run(&["check", dirty.to_str().unwrap(), "--constraints", constraints.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("30 violation(s) on 30 of 300 rows"), "{stderr}");

    // A store ingested from the same file prints the same violations.
    let store = dir.join("dirty_store");
    let _ = std::fs::remove_dir_all(&store);
    let ingest = run(&["ingest", dirty.to_str().unwrap(), "--store", store.to_str().unwrap()]);
    assert!(ingest.status.success(), "{}", String::from_utf8_lossy(&ingest.stderr));
    let gr = constraints.to_str().unwrap();
    let from_store = run(&["check", "--store", store.to_str().unwrap(), "--constraints", gr]);
    assert_eq!(from_store.status.code(), Some(1));
    assert_eq!(from_store.stdout, out.stdout, "store and CSV print the same violations");

    // Repair writes the names back as they were read.
    let fixed = dir.join("fixed.csv");
    let args =
        ["--constraints", constraints.to_str().unwrap(), "--output", fixed.to_str().unwrap()];
    let out = run(&[&["repair", dirty.to_str().unwrap()][..], &args].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let fixed_text = std::fs::read_to_string(&fixed).unwrap();
    assert!(fixed_text.contains("München,80331\n"), "{fixed_text}");
}

#[test]
fn query_where_matches_a_non_ascii_literal() {
    let dir = tmpdir("non_ascii_query");
    let (_, dirty) = write_non_ascii_probe(&dir);
    let sql = "SELECT city, COUNT(*) AS n FROM dirty WHERE city = 'Zürich' GROUP BY city";
    let out = run(&["query", dirty.to_str().unwrap(), "--sql", sql]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "city,n\nZürich,60\n");
}

#[test]
fn query_aggregate_arithmetic_over_no_rows_is_one_null_row() {
    let dir = tmpdir("empty_aggregate_arithmetic");
    let csv = dir.join("p.csv");
    std::fs::write(&csv, "age,city\n30,A\n40,B\n").unwrap();
    for sql in [
        "SELECT AVG(age) * 2 AS d FROM p WHERE age > 1000",
        "SELECT AVG(age) AS d FROM p WHERE age > 1000",
    ] {
        let out = run(&["query", csv.to_str().unwrap(), "--sql", sql]);
        assert!(out.status.success(), "{sql}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8_lossy(&out.stdout), "d\n\n", "{sql}");
    }
}

#[test]
fn query_has_no_opt_budget_flag() {
    let dir = tmpdir("opt_budget");
    let clean = write_clean_csv(&dir);
    let sql = "SELECT city FROM clean WHERE zip = 94704 LIMIT 2";
    let out = run(&["query", clean.to_str().unwrap(), "--sql", sql, "--opt-budget", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--opt-budget\""), "{stderr}");
}

#[test]
fn serve_runs_the_daemon_with_metrics_armed() {
    use guardrail::obs::json::Json;
    use guardrail::server::chaos::Client;
    use std::io::{BufRead, BufReader};
    use std::time::{Duration, Instant};

    /// Kills the daemon if the test fails before it drains.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = Daemon(
        Command::new(bin())
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs"),
    );
    // Read stderr to the end: a daemon whose stderr pipe closed would die
    // on its next log line.
    let mut stderr = BufReader::new(daemon.0.stderr.take().unwrap()).lines();
    let addr = stderr
        .by_ref()
        .map_while(Result::ok)
        .find_map(|line| line.strip_prefix("listening on ").map(str::to_string))
        .expect("the daemon reports its address");
    let mut client = Client::connect(addr.parse().unwrap()).unwrap();
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    let armed = status.get("metrics").and_then(|m| m.get("armed"));
    assert_eq!(armed, Some(&Json::Bool(true)), "{status:?}");

    let bye = client.request(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)), "{bye:?}");
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(10);
    let exit = loop {
        if let Some(exit) = daemon.0.try_wait().unwrap() {
            break exit;
        }
        assert!(Instant::now() < deadline, "the daemon did not drain");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(exit.success(), "{exit:?}");
    let rest: Vec<String> = stderr.map_while(Result::ok).collect();
    assert!(rest.iter().any(|l| l == "drained; bye"), "{rest:?}");
}

/// The schema-drift probe: `a → b` and `g → h` over 2,000 rows, 40 of
/// which break `g → h`. Returns (clean, dirty) with the dirty header as
/// given.
fn write_drift_probe(dir: &std::path::Path, dirty_header: &str) -> (PathBuf, PathBuf) {
    let rows = |dirty: bool| -> String {
        (0..2000)
            .map(|i| {
                let (a, g) = (i % 5, (i / 5) % 4);
                let h = if dirty && i % 50 == 7 { 100 + (g + 1) % 4 } else { 100 + g };
                format!("{a},{},{g},{h}\n", a * 10)
            })
            .collect()
    };
    let (clean, dirty) = (dir.join("clean.csv"), dir.join("dirty.csv"));
    std::fs::write(&clean, format!("a,b,g,h\n{}", rows(false))).unwrap();
    std::fs::write(&dirty, format!("{dirty_header}\n{}", rows(true))).unwrap();
    (clean, dirty)
}

#[test]
fn check_names_unbound_statements_and_exits_3() {
    let dir = tmpdir("schema_drift");
    let (clean, renamed) = write_drift_probe(&dir, "A,B,g,h");
    let gr = dir.join("c.gr");
    let gr = gr.to_str().unwrap();
    // A hand-written program keeps the statement order fixed.
    std::fs::write(
        gr,
        "GIVEN a ON b HAVING IF a = 0 THEN b <- 0; IF a = 1 THEN b <- 10;\n\
         GIVEN g ON h HAVING IF g = 0 THEN h <- 100; IF g = 1 THEN h <- 101;\n\
         IF g = 2 THEN h <- 102; IF g = 3 THEN h <- 103;\n",
    )
    .unwrap();
    let out = run(&["check", clean.to_str().unwrap(), "--constraints", gr]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = run(&["check", renamed.to_str().unwrap(), "--constraints", gr]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("40 violation(s) on 40 of 2000 rows"), "{stderr}");
    assert!(
        stderr.contains(r#"warning: statement 0 not checked: data lacks ["a", "b"]"#),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 40);
    assert!(stdout.lines().all(|l| l.contains("violates statement 1")), "{stdout}");

    // repair applies the statement that binds and warns about the other.
    let out = run(&["repair", renamed.to_str().unwrap(), "--constraints", gr]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("40 violation(s); 40 cell(s) changed"), "{stderr}");
    assert!(stderr.contains("warning: statement 0 not applied"), "{stderr}");
}

#[test]
fn check_into_a_closed_pipe_keeps_its_exit_code() {
    use std::io::{BufRead, BufReader};
    let dir = tmpdir("closed_pipe");
    let data = dir.join("big.csv");
    let mut csv = String::from("a,b\n");
    for i in 0..24_000 {
        csv.push_str(&format!("{},{}\n", i % 4, (i % 4) * 2 + usize::from(i % 3 == 0)));
    }
    std::fs::write(&data, csv).unwrap();
    let gr = dir.join("big.gr");
    std::fs::write(
        &gr,
        "GIVEN a ON b HAVING IF a = 0 THEN b <- 0; IF a = 1 THEN b <- 2;\n\
         IF a = 2 THEN b <- 4; IF a = 3 THEN b <- 6;\n",
    )
    .unwrap();
    let mut child = Command::new(bin())
        .args(["check", data.to_str().unwrap(), "--constraints", gr.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Read one line of the 8,000 violations, then close the pipe.
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(first.starts_with("row 0:"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("8000 violation(s) on 8000 of 24000 rows"), "{stderr}");
}

/// Runs `guardrail serve --metrics-out` with `extra` flags, closes the read
/// end of its stderr after the address line, sends `shutdown`, and asserts
/// that the daemon exits successfully within `limit`. Returns the metrics
/// file.
fn serve_until_shutdown(name: &str, extra: &[&str], limit: std::time::Duration) -> PathBuf {
    use guardrail::obs::json::Json;
    use guardrail::server::chaos::Client;
    use std::io::{BufRead, BufReader};
    use std::time::Instant;

    let dir = tmpdir(name);
    let metrics = dir.join("metrics.jsonl");
    let _ = std::fs::remove_file(&metrics);
    let mut daemon = Command::new(bin())
        .args(["serve", "--listen", "127.0.0.1:0", "--metrics-out", metrics.to_str().unwrap()])
        .args(extra)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let addr = {
        let mut stderr = BufReader::new(daemon.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        line.trim_end().strip_prefix("listening on ").expect("address line").to_string()
        // The read end of the daemon's stderr closes here.
    };
    let mut client = Client::connect(addr.parse().unwrap()).unwrap();
    let bye = client.request(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)), "{bye:?}");
    drop(client);
    let deadline = Instant::now() + limit;
    let exit = loop {
        if let Some(exit) = daemon.try_wait().unwrap() {
            break exit;
        }
        if Instant::now() > deadline {
            let _ = daemon.kill();
            panic!("the daemon had not exited {limit:?} after shutdown");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(exit.success(), "{exit:?}");
    metrics
}

#[test]
fn daemon_with_a_closed_stderr_drains_and_dumps() {
    let metrics = serve_until_shutdown("closed_stderr", &[], std::time::Duration::from_secs(10));
    assert!(metrics.exists(), "the final metrics snapshot was not written");
}

#[test]
fn daemon_exits_promptly_with_a_long_metrics_interval() {
    let metrics = serve_until_shutdown(
        "long_metrics_interval",
        &["--metrics-interval-ms", "60000"],
        std::time::Duration::from_secs(5),
    );
    // One snapshot only, the final one: every line carries its time stamp.
    let dump = std::fs::read_to_string(&metrics).expect("the final metrics snapshot was written");
    let stamps: std::collections::BTreeSet<&str> = dump
        .lines()
        .filter_map(|l| l.split("\"t_ns\":").nth(1)?.split([',', '}']).next())
        .collect();
    assert_eq!(stamps.len(), 1, "{dump}");
}
