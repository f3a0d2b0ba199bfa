//! Chaos and robustness suite for `guardrail-server` (DESIGN.md §4).
//!
//! The acceptance property, end to end: under overload chaos — quotas
//! saturated, slow-loris writers, mid-request disconnects, garbage frames —
//! the server sheds with typed `RETRY_AFTER`, completes admitted requests
//! within their deadlines or returns a degraded result that says so,
//! never panics, and a fresh well-formed request succeeds afterwards.

use guardrail::datasets::chaos::{self as data_chaos, ErrorModel};
use guardrail::obs::json::{self, Json};
use guardrail::server::chaos::{self, Client};
use guardrail::server::{Server, ServerConfig, ServerHandle};
use guardrail::table::Table;
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held by every test that sends frames the server cannot parse. Those
/// count into the process-global metrics registry under empty tenant and
/// verb labels, which `frame_failures_reach_the_metrics_scrape` reads.
static UNPARSED_FRAMES: Mutex<()> = Mutex::new(());

/// Training data with an exact DGP (zip determines city), large enough
/// that synthesis always keeps the dependency.
fn zip_city_csv(repeats: usize) -> String {
    let mut csv = String::from("zip,city\n");
    for _ in 0..repeats {
        csv.push_str("94704,Berkeley\n97201,Portland\n10001,NewYork\n");
    }
    csv
}

/// A server tuned for tests: tight quotas and timeouts, debug verbs on.
fn chaos_server() -> ServerHandle {
    Server::spawn(ServerConfig {
        tenant_inflight: 2,
        global_inflight: 4,
        max_frame_bytes: 64 << 10,
        read_timeout: Duration::from_millis(250),
        idle_timeout: Duration::from_secs(5),
        default_deadline: Duration::from_secs(2),
        retry_after_ms: 25,
        debug_ops: true,
        ..ServerConfig::default()
    })
    .expect("bind")
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok") == Some(&Json::Bool(true))
}

fn error_kind(resp: &Json) -> Option<&str> {
    resp.get("error")?.get("kind")?.as_str()
}

fn fit_req(csv: &str) -> String {
    format!(r#"{{"op":"fit","table":"zips","csv":{}}}"#, quote(csv))
}

fn quote(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

#[test]
fn fit_detect_rectify_vet_round_trip() {
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    let fit = client.request(&fit_req(&zip_city_csv(100))).unwrap();
    assert!(is_ok(&fit), "{fit:?}");
    assert_eq!(fit.get("version").and_then(Json::as_u64), Some(1));
    assert!(fit.get("statements").and_then(Json::as_u64).unwrap() >= 1);

    let dirty =
        r#"{"op":"detect","table":"zips","csv":"zip,city\n94704,Portland\n97201,Portland\n"}"#;
    let detect = client.request(dirty).unwrap();
    assert!(is_ok(&detect), "{detect:?}");
    assert_eq!(detect.get("dirty_rows").and_then(Json::as_u64), Some(1));
    assert_eq!(detect.get("status").and_then(Json::as_str), Some("clean"));

    let rectify = client
        .request(r#"{"op":"rectify","table":"zips","csv":"zip,city\n94704,Portland\n"}"#)
        .unwrap();
    assert!(is_ok(&rectify), "{rectify:?}");
    assert_eq!(rectify.get("cells_changed").and_then(Json::as_u64), Some(1));
    let fixed = Table::from_csv_str(rectify.get("csv").and_then(Json::as_str).unwrap()).unwrap();
    assert_eq!(fixed.get(0, 1).unwrap().to_string(), "Berkeley");

    let vet = client
        .request(
            r#"{"op":"vet","table":"zips","scheme":"coerce","csv":"zip,city\n94704,Portland\n"}"#,
        )
        .unwrap();
    assert!(is_ok(&vet), "{vet:?}");
    assert_eq!(vet.get("violations").and_then(Json::as_arr).unwrap().len(), 1);

    let status = client.request(r#"{"op":"status"}"#).unwrap();
    assert!(is_ok(&status), "{status:?}");
    let engines = status.get("engines").and_then(Json::as_arr).unwrap();
    assert_eq!(engines.len(), 1);
    assert_eq!(engines[0].get("version").and_then(Json::as_u64), Some(1));
    // The status counters are this server's own request totals (4 ok so
    // far: fit, detect, rectify, vet — status snapshots before counting
    // itself).
    let counters = status.get("counters").unwrap();
    assert_eq!(counters.get("ok").and_then(Json::as_u64), Some(4));
    assert_eq!(counters.get("shed").and_then(Json::as_u64), Some(0));

    handle.shutdown();
}

#[test]
fn each_server_status_counts_only_its_own_traffic() {
    let a = chaos_server();
    let b = chaos_server();
    let mut to_b = Client::connect(b.addr()).unwrap();
    for _ in 0..3 {
        assert!(is_ok(&to_b.request(r#"{"op":"status"}"#).unwrap()));
    }
    let b_status = to_b.request(r#"{"op":"status"}"#).unwrap();
    assert_eq!(b_status.get("counters").unwrap().get("ok").and_then(Json::as_u64), Some(3));
    let a_status = Client::connect(a.addr()).unwrap().request(r#"{"op":"status"}"#).unwrap();
    let a_counters = a_status.get("counters").unwrap();
    for outcome in ["ok", "degraded", "shed", "error"] {
        assert_eq!(
            a_counters.get(outcome).and_then(Json::as_u64),
            Some(0),
            "server A saw B's traffic: {a_status:?}"
        );
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn unknown_engine_is_a_typed_not_found() {
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request(r#"{"op":"detect","table":"nope","csv":"a\n1\n"}"#).unwrap();
    assert!(!is_ok(&resp));
    assert_eq!(error_kind(&resp), Some("NOT_FOUND"));
    handle.shutdown();
}

#[test]
fn hot_swap_republishes_and_failed_fit_rolls_back() {
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(is_ok(&client.request(&fit_req(&zip_city_csv(100))).unwrap()));

    // Hot swap: re-fit the same (tenant, table) → version 2.
    let refit = client.request(&fit_req(&zip_city_csv(120))).unwrap();
    assert!(is_ok(&refit), "{refit:?}");
    assert_eq!(refit.get("version").and_then(Json::as_u64), Some(2));
    assert_eq!(handle.registry().previous("default", "zips").unwrap().version, 1);

    // A re-synthesis that collapses to an empty program (single column ⇒
    // no dependencies to learn) must NOT replace the working version.
    let empty = client.request(&fit_req("a\n1\n2\n3\n")).unwrap();
    assert!(!is_ok(&empty), "{empty:?}");
    assert_eq!(error_kind(&empty), Some("FIT_FAILED"));

    // Rollback is observable: v2 still serves, and status counts the flap.
    let detect = client
        .request(r#"{"op":"detect","table":"zips","csv":"zip,city\n94704,Portland\n"}"#)
        .unwrap();
    assert!(is_ok(&detect), "{detect:?}");
    assert_eq!(detect.get("version").and_then(Json::as_u64), Some(2));
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    let engines = status.get("engines").and_then(Json::as_arr).unwrap();
    assert_eq!(engines[0].get("version").and_then(Json::as_u64), Some(2));
    assert_eq!(engines[0].get("failed_fits").and_then(Json::as_u64), Some(1));
    handle.shutdown();
}

#[test]
fn hot_swap_under_load_never_breaks_in_flight_reads() {
    let handle = chaos_server();
    let mut seed_client = Client::connect(handle.addr()).unwrap();
    assert!(is_ok(&seed_client.request(&fit_req(&zip_city_csv(100))).unwrap()));

    let addr = handle.addr();
    std::thread::scope(|s| {
        // Reader: hammers detect while the writer hot-swaps versions.
        let reader = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut seen = Vec::new();
            for _ in 0..40 {
                let resp = client
                    .request(r#"{"op":"detect","table":"zips","csv":"zip,city\n94704,Berkeley\n"}"#)
                    .unwrap();
                // Shed is acceptable under quota pressure; a served read
                // must be coherent (a real published version, no violations
                // on a clean row).
                if is_ok(&resp) {
                    assert_eq!(resp.get("dirty_rows").and_then(Json::as_u64), Some(0));
                    seen.push(resp.get("version").and_then(Json::as_u64).unwrap());
                } else {
                    assert_eq!(error_kind(&resp), Some("RETRY_AFTER"), "{resp:?}");
                }
            }
            seen
        });
        let writer = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for i in 0..5 {
                let resp = client.request(&fit_req(&zip_city_csv(100 + i))).unwrap();
                if is_ok(&resp) {
                    assert!(resp.get("version").and_then(Json::as_u64).unwrap() >= 2);
                } else {
                    assert_eq!(error_kind(&resp), Some("RETRY_AFTER"), "{resp:?}");
                }
            }
        });
        writer.join().unwrap();
        let seen = reader.join().unwrap();
        assert!(!seen.is_empty());
        // Versions move forward only.
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
    });
    handle.shutdown();
}

#[test]
fn overload_sheds_with_retry_after_and_recovers() {
    let handle = chaos_server();
    let addr = handle.addr();
    // 8 concurrent holders against tenant quota 2 / global 4: some must
    // be shed, the admitted ones must finish within their deadlines.
    let results: Vec<(bool, Option<u64>, Duration)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let started = Instant::now();
                    let resp = client
                        .request(r#"{"op":"sleep","sleep_ms":300,"deadline_ms":1000}"#)
                        .unwrap();
                    let wall = started.elapsed();
                    let retry = resp
                        .get("error")
                        .and_then(|e| e.get("retry_after_ms"))
                        .and_then(Json::as_u64);
                    (is_ok(&resp), retry, wall)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let admitted = results.iter().filter(|(ok, _, _)| *ok).count();
    let shed = results.len() - admitted;
    assert!(admitted >= 1, "{results:?}");
    assert!(shed >= 1, "quota 2 with 8 holders must shed: {results:?}");
    for (ok, retry, wall) in &results {
        if *ok {
            // Admitted: completed within deadline plus scheduling slack.
            assert!(*wall < Duration::from_secs(2), "admitted took {wall:?}");
        } else {
            // Shed: typed RETRY_AFTER with the configured hint, and fast.
            assert_eq!(*retry, Some(25));
            assert!(*wall < Duration::from_millis(500), "shed took {wall:?}");
        }
    }
    // Recovery: capacity fully released, fresh request succeeds.
    assert_eq!(handle.admission().global_in_flight(), 0);
    let mut client = Client::connect(addr).unwrap();
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    assert!(is_ok(&status));
    let counters = status.get("counters").unwrap();
    assert_eq!(counters.get("shed").and_then(Json::as_u64), Some(shed as u64));
    let tenants = status.get("tenants").and_then(Json::as_arr).unwrap();
    assert!(tenants[0].get("high_water").and_then(Json::as_u64).unwrap() <= 2);
    handle.shutdown();
}

#[test]
fn deadline_pressure_degrades_instead_of_overrunning() {
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Mid-verb expiry: best-effort result plus an explicit degradation.
    let started = Instant::now();
    let resp = client.request(r#"{"op":"sleep","sleep_ms":5000,"deadline_ms":100}"#).unwrap();
    assert!(started.elapsed() < Duration::from_secs(1), "deadline ignored");
    assert!(is_ok(&resp), "{resp:?}");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("degraded"));
    let stages = resp.get("degradation").and_then(Json::as_arr).unwrap();
    assert_eq!(stages[0].get("stage").and_then(Json::as_str), Some("serve_sleep"));
    assert!(resp.get("slept_ms").and_then(Json::as_u64).unwrap() < 5000);

    // Zero deadline: refused up front with a typed error, not a hang and
    // not an unbounded run (the governor saturation audit, end to end).
    let resp = client.request(r#"{"op":"sleep","sleep_ms":5000,"deadline_ms":0}"#).unwrap();
    assert!(!is_ok(&resp));
    assert_eq!(error_kind(&resp), Some("BUDGET_EXHAUSTED"));

    // Absurd deadline: clamped, still served.
    let resp = client
        .request(r#"{"op":"sleep","sleep_ms":1,"deadline_ms":18446744073709551615}"#)
        .unwrap();
    assert!(is_ok(&resp), "{resp:?}");
    handle.shutdown();
}

#[test]
fn panic_isolation_returns_internal_and_leaks_nothing() {
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request(r#"{"op":"boom"}"#).unwrap();
    assert!(!is_ok(&resp));
    assert_eq!(error_kind(&resp), Some("INTERNAL"));
    // Same connection still serves; the permit was released by the unwind.
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    assert!(is_ok(&status), "{status:?}");
    assert_eq!(handle.admission().global_in_flight(), 0);
    assert_eq!(status.get("counters").unwrap().get("error").and_then(Json::as_u64), Some(1));
    // Other connections too.
    let mut other = Client::connect(handle.addr()).unwrap();
    assert!(is_ok(&other.request(r#"{"op":"status"}"#).unwrap()));
    handle.shutdown();
}

#[test]
fn slow_loris_is_cut_loose_and_service_continues() {
    let handle = chaos_server();
    // Trickle a frame one byte every 50 ms against a 250 ms read timeout:
    // the server must hang up long before the frame completes.
    let sent = chaos::slow_loris(
        handle.addr(),
        br#"{"op":"status"}"#,
        Duration::from_millis(50),
        Duration::from_secs(3),
    )
    .unwrap();
    assert!(sent < 40, "server accepted {sent} trickled bytes without hanging up");
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(is_ok(&client.request(r#"{"op":"status"}"#).unwrap()));
    handle.shutdown();
}

#[test]
fn mid_frame_disconnects_are_harmless() {
    let handle = chaos_server();
    for i in 0..10 {
        chaos::disconnect_mid_frame(
            handle.addr(),
            format!(r#"{{"op":"detect","table":"t{i}","csv":"a,b"#).as_bytes(),
        )
        .unwrap();
    }
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(is_ok(&client.request(r#"{"op":"status"}"#).unwrap()));
    assert_eq!(handle.admission().global_in_flight(), 0);
    handle.shutdown();
}

#[test]
fn garbage_frames_get_typed_errors_never_crashes() {
    let _lock = UNPARSED_FRAMES.lock().unwrap_or_else(|e| e.into_inner());
    let handle = chaos_server();
    for seed in 0..12 {
        let mut payload = data_chaos::garbage_bytes(seed, 512);
        payload.push(b'\n');
        let reply = chaos::blast(handle.addr(), &payload, Duration::from_millis(600)).unwrap();
        // Every reply line must be a parseable typed error (the server may
        // also simply hang up on binary junk mid-frame).
        for line in reply.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let text = std::str::from_utf8(line).expect("server output is UTF-8");
            let doc = json::parse(text).expect("server output parses");
            assert!(!is_ok(&doc));
        }
    }
    // Deeply nested JSON: recursion-bounded parse → typed BAD_REQUEST.
    let mut client = Client::connect(handle.addr()).unwrap();
    let deep = format!("{}1{}", "[".repeat(500), "]".repeat(500));
    let resp = client.request(&deep).unwrap();
    assert_eq!(error_kind(&resp), Some("BAD_REQUEST"));
    // Truncated frame, wrong types, unknown fields: same taxonomy.
    for req in [r#"{"op":"fit","csv":42}"#, r#"{"op":"fit","x":1}"#, "null"] {
        assert_eq!(error_kind(&client.request(req).unwrap()), Some("BAD_REQUEST"));
    }
    assert!(is_ok(&client.request(r#"{"op":"status"}"#).unwrap()));
    handle.shutdown();
}

#[test]
fn oversized_frame_rejected_with_typed_error() {
    let _lock = UNPARSED_FRAMES.lock().unwrap_or_else(|e| e.into_inner());
    let handle =
        Server::spawn(ServerConfig { max_frame_bytes: 1 << 10, ..ServerConfig::default() })
            .expect("bind");
    let big = format!(r#"{{"op":"fit","csv":"{}"}}"#, "x".repeat(8 << 10));
    let reply = chaos::blast(handle.addr(), big.as_bytes(), Duration::from_secs(2)).unwrap();
    let text = String::from_utf8(reply).unwrap();
    assert!(text.contains("PAYLOAD_TOO_LARGE"), "{text:?}");
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(is_ok(&client.request(r#"{"op":"status"}"#).unwrap()));
    handle.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_then_refuses() {
    let handle = chaos_server();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    assert!(is_ok(&client.request(&fit_req(&zip_city_csv(50))).unwrap()));

    // A request in flight when shutdown lands must still complete.
    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request(r#"{"op":"sleep","sleep_ms":400,"deadline_ms":2000}"#).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    let resp = client.request(r#"{"op":"shutdown"}"#).unwrap();
    assert!(is_ok(&resp));
    assert_eq!(resp.get("draining"), Some(&Json::Bool(true)));
    let slept = in_flight.join().unwrap();
    assert!(is_ok(&slept), "in-flight request dropped during drain: {slept:?}");

    handle.shutdown(); // joins: acceptor and connections are gone
                       // New connections are refused (or immediately closed) after drain.
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.request(r#"{"op":"status"}"#).is_err(),
    };
    assert!(refused, "server still serving after drain");
}

#[test]
fn adversarial_error_models_flow_through_the_server() {
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let clean = Table::from_csv_str(&zip_city_csv(100)).unwrap();
    assert!(is_ok(&client.request(&fit_req(&zip_city_csv(100))).unwrap()));

    for (model, seed) in [
        (ErrorModel::Correlated { rows: 12, cells_per_row: 2 }, 7),
        (ErrorModel::Bursty { bursts: 3, burst_len: 5 }, 11),
    ] {
        let mut dirty = clean.clone();
        let truth = data_chaos::inject_adversarial(&mut dirty, &model, seed);
        assert!(!truth.errors.is_empty());
        let req =
            format!(r#"{{"op":"detect","table":"zips","csv":{}}}"#, quote(&dirty.to_csv_string()));
        let resp = client.request(&req).unwrap();
        assert!(is_ok(&resp), "{model:?}: {resp:?}");
        let violations = resp.get("violations").and_then(Json::as_arr).unwrap();
        // Soundness: the synthesized DGP is exact on this data, so every
        // flagged row must be genuinely corrupted (no false positives).
        for v in violations {
            let row = v.get("row").and_then(Json::as_u64).unwrap() as usize;
            assert!(truth.is_dirty(row), "{model:?}: clean row {row} flagged");
        }
        // Completeness on the easy half: a row whose *only* corruption hit
        // the dependent column (city) must be flagged.
        let flagged: Vec<usize> = violations
            .iter()
            .map(|v| v.get("row").and_then(Json::as_u64).unwrap() as usize)
            .collect();
        for row in truth.dirty_rows() {
            let cols: Vec<usize> =
                truth.errors.iter().filter(|e| e.row == row).map(|e| e.col).collect();
            if cols == [1] {
                assert!(flagged.contains(&row), "{model:?}: city-corrupted row {row} missed");
            }
        }
    }
    handle.shutdown();
}

/// Persistent-store round trip: `append` creates the store and durably
/// ingests batches; `detect_batch` probes only the appended rows through
/// the cached incremental detector; a server restart over the same store
/// root replays the WAL and picks up where it left off.
#[test]
fn append_and_detect_batch_round_trip_and_survive_restart() {
    let store_root =
        std::env::temp_dir().join(format!("guardrail-srv-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let spawn = || {
        Server::spawn(ServerConfig {
            store_root: Some(store_root.clone()),
            debug_ops: true,
            ..ServerConfig::default()
        })
        .expect("bind")
    };

    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let fit = client.request(&fit_req(&zip_city_csv(100))).unwrap();
    assert!(is_ok(&fit), "{fit:?}");

    // detect_batch before any append is a typed NOT_FOUND, not a crash.
    let missing = client.request(r#"{"op":"detect_batch","table":"zips"}"#).unwrap();
    assert_eq!(error_kind(&missing), Some("NOT_FOUND"), "{missing:?}");

    // First append creates the store with the payload as its base segment.
    let append = |client: &mut Client, csv: &str| {
        let req = format!(r#"{{"op":"append","table":"zips","csv":{}}}"#, quote(csv));
        client.request(&req).unwrap()
    };
    let created = append(&mut client, &zip_city_csv(10));
    assert!(is_ok(&created), "{created:?}");
    assert_eq!(created.get("created"), Some(&Json::Bool(true)));
    assert_eq!(created.get("rows_total").and_then(Json::as_u64), Some(30));

    // Seeding pass: the detector's one-time full scan is not billed as an
    // incremental scan, and a clean base yields no new violations.
    let seed = client.request(r#"{"op":"detect_batch","table":"zips"}"#).unwrap();
    assert!(is_ok(&seed), "{seed:?}");
    assert_eq!(seed.get("seeded"), Some(&Json::Bool(true)), "{seed:?}");
    assert_eq!(seed.get("rows_scanned").and_then(Json::as_u64), Some(0));
    assert_eq!(seed.get("violations").and_then(Json::as_arr).unwrap().len(), 0);

    // A dirty appended batch is probed alone: 2 rows scanned, 1 violation.
    let batch = append(&mut client, "zip,city\n94704,Portland\n97201,Portland\n");
    assert!(is_ok(&batch), "{batch:?}");
    assert_eq!(batch.get("created"), Some(&Json::Bool(false)));
    assert_eq!(batch.get("rows_appended").and_then(Json::as_u64), Some(2));
    let scan = client.request(r#"{"op":"detect_batch","table":"zips"}"#).unwrap();
    assert!(is_ok(&scan), "{scan:?}");
    assert_eq!(scan.get("seeded"), Some(&Json::Bool(false)), "{scan:?}");
    assert_eq!(scan.get("rows_scanned").and_then(Json::as_u64), Some(2));
    assert!(scan.get("rows_probed").and_then(Json::as_u64).unwrap() >= 2);
    let violations = scan.get("violations").and_then(Json::as_arr).unwrap();
    assert_eq!(violations.len(), 1, "{scan:?}");
    assert_eq!(violations[0].get("row").and_then(Json::as_u64), Some(30));

    // The store shows up in status alongside the engines.
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    let stores = status.get("stores").and_then(Json::as_arr).unwrap();
    assert_eq!(stores.len(), 1, "{status:?}");
    assert_eq!(stores[0].get("rows").and_then(Json::as_u64), Some(32));
    assert_eq!(stores[0].get("wal_batches").and_then(Json::as_u64), Some(1));
    handle.shutdown();

    // Restart over the same root: the WAL replays, the engine refits, and
    // incremental detection finds the same violation plus the new batch's.
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let refit = client.request(&fit_req(&zip_city_csv(100))).unwrap();
    assert!(is_ok(&refit), "{refit:?}");
    // Seeding pass on the reopened store: its full scan covers the 32
    // replayed rows (31 clean + the dirty row from before the restart), and
    // reports that dirty row.
    let seed = client.request(r#"{"op":"detect_batch","table":"zips"}"#).unwrap();
    assert!(is_ok(&seed), "{seed:?}");
    assert_eq!(seed.get("rows_total").and_then(Json::as_u64), Some(32));
    assert_eq!(seed.get("seeded"), Some(&Json::Bool(true)), "{seed:?}");
    let rows = |resp: &Json| -> Vec<u64> {
        let violations = resp.get("violations").and_then(Json::as_arr).unwrap();
        violations.iter().map(|v| v.get("row").and_then(Json::as_u64).unwrap()).collect()
    };
    assert_eq!(rows(&seed), vec![30], "{seed:?}");
    let more = append(&mut client, "zip,city\n10001,Berkeley\n");
    assert!(is_ok(&more), "{more:?}");
    assert_eq!(more.get("rows_total").and_then(Json::as_u64), Some(33));
    let scan = client.request(r#"{"op":"detect_batch","table":"zips"}"#).unwrap();
    assert!(is_ok(&scan), "{scan:?}");
    assert_eq!(scan.get("rows_scanned").and_then(Json::as_u64), Some(1));
    assert_eq!(scan.get("seeded"), Some(&Json::Bool(false)), "{scan:?}");
    assert_eq!(rows(&scan), vec![32], "{scan:?}");
    // A re-fit in the same server hot-swaps the engine: the next pass
    // reseeds and reports every violation already in the store.
    let refit = client.request(&fit_req(&zip_city_csv(100))).unwrap();
    assert!(is_ok(&refit), "{refit:?}");
    let reseed = client.request(r#"{"op":"detect_batch","table":"zips"}"#).unwrap();
    assert!(is_ok(&reseed), "{reseed:?}");
    assert_eq!(reseed.get("seeded"), Some(&Json::Bool(true)), "{reseed:?}");
    assert_eq!(rows(&reseed), vec![30, 32], "{reseed:?}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&store_root);
}

/// The `metrics` verb round-trips an armed registry: traffic shows up as
/// Prometheus text with the expected request/engine families, labeled by
/// tenant and verb, and `status` carries the registry summary plus the
/// per-tenant `last_request_ms` stamp.
#[test]
fn metrics_verb_exposes_request_telemetry() {
    // Arming is process-global and sticky; the only effect on sibling
    // tests is that their traffic also lands in the registry, which the
    // contains-style assertions here tolerate.
    guardrail::obs::arm_metrics(true);
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    let fit = client
        .request(&format!(
            r#"{{"op":"fit","tenant":"acme","table":"zips","csv":{}}}"#,
            quote(&zip_city_csv(50))
        ))
        .unwrap();
    assert!(is_ok(&fit), "{fit:?}");
    for _ in 0..3 {
        let detect = client
            .request(r#"{"op":"detect","tenant":"acme","table":"zips","csv":"zip,city\n94704,Berkeley\n"}"#)
            .unwrap();
        assert!(is_ok(&detect), "{detect:?}");
    }

    let metrics = client.request(r#"{"op":"metrics"}"#).unwrap();
    assert!(is_ok(&metrics), "{metrics:?}");
    assert_eq!(metrics.get("armed"), Some(&Json::Bool(true)));
    assert!(metrics.get("series").and_then(Json::as_u64).unwrap() > 0);
    let text = metrics.get("prometheus").and_then(Json::as_str).unwrap();
    for needle in [
        "# TYPE guardrail_server_request_duration_us summary",
        r#"guardrail_server_request_duration_us{tenant="acme",verb="detect",quantile="0.5"}"#,
        r#"guardrail_server_requests_total{tenant="acme",verb="fit",outcome="ok"} 1"#,
        "# TYPE guardrail_engine_epoch gauge",
        r#"guardrail_engine_epoch{tenant="acme",table="zips"} 1"#,
        "guardrail_server_payload_bytes",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The status view agrees: registry summary present, and the tenant
    // carries a last-request stamp.
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    assert!(is_ok(&status), "{status:?}");
    let m = status.get("metrics").unwrap();
    assert_eq!(m.get("armed"), Some(&Json::Bool(true)));
    assert!(m.get("series").and_then(Json::as_u64).unwrap() > 0);
    let tenants = status.get("tenants").and_then(Json::as_arr).unwrap();
    let acme = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(Json::as_str) == Some("acme"))
        .expect("acme tenant listed");
    assert!(acme.get("last_request_ms").and_then(Json::as_u64).is_some(), "{acme:?}");
    handle.shutdown();
}

/// Frame-level failures (an unparseable frame, an unknown op, a handler
/// panic) reach the Prometheus scrape as `outcome="error"`, as many as
/// `status.counters.error` reports.
#[test]
fn frame_failures_reach_the_metrics_scrape() {
    let _lock = UNPARSED_FRAMES.lock().unwrap_or_else(|e| e.into_inner());
    guardrail::obs::arm_metrics(true);
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // Errors under this test's labels: empty for frames that did not parse,
    // the probe tenant's for the panic. Sibling tests' parsed requests
    // carry their own tenants.
    let scrape_errors = |client: &mut Client| {
        let metrics = client.request(r#"{"op":"metrics"}"#).unwrap();
        let text = metrics.get("prometheus").and_then(Json::as_str).unwrap().to_string();
        text.lines()
            .filter(|l| l.starts_with("guardrail_server_requests_total{"))
            .filter(|l| l.contains(r#"outcome="error""#))
            .filter(|l| l.contains(r#"tenant="""#) || l.contains(r#"tenant="frame-probe""#))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum::<u64>()
    };
    let before = scrape_errors(&mut client);
    for req in ["not json", r#"{"op":"nope"}"#, r#"{"op":"boom","tenant":"frame-probe"}"#] {
        let resp = client.request(req).unwrap();
        assert!(!is_ok(&resp), "{req}: {resp:?}");
    }
    let scraped = scrape_errors(&mut client) - before;
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    let counted = status.get("counters").unwrap().get("error").and_then(Json::as_u64);
    assert_eq!(counted, Some(3), "{status:?}");
    assert_eq!(Some(scraped), counted, "scrape and status disagree");
    handle.shutdown();
}

/// Without `--store-root`, the store verbs are a typed BAD_REQUEST.
#[test]
fn store_verbs_require_a_store_root() {
    let handle = chaos_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    for req in [
        r#"{"op":"append","table":"zips","csv":"zip,city\n94704,Berkeley\n"}"#,
        r#"{"op":"detect_batch","table":"zips"}"#,
    ] {
        let resp = client.request(req).unwrap();
        assert_eq!(error_kind(&resp), Some("BAD_REQUEST"), "{resp:?}");
    }
    handle.shutdown();
}

proptest! {
    /// Satellite 3 (pure half): the request parser never panics and always
    /// yields a typed error on arbitrary input. The socket half of the
    /// fuzz story is `garbage_frames_get_typed_errors_never_crashes`.
    #[test]
    fn parse_request_never_panics(line in "[ -~\n\t\u{fe}\u{3b1}]{0,300}") {
        let _ = guardrail::server::parse_request(&line);
    }

    /// Valid requests round-trip; any mutation of the op is typed.
    #[test]
    fn parse_request_typed_errors_on_op_mutation(op in "[a-z]{1,12}") {
        let line = format!(r#"{{"op":"{op}"}}"#);
        match guardrail::server::parse_request(&line) {
            Ok(req) => prop_assert_eq!(req.op.wire_name(), op.as_str()),
            Err(err) => prop_assert_eq!(err.kind, guardrail::server::ErrorKind::BadRequest),
        }
    }
}
