//! The `guardrail-server` daemon and its one-shot clients.
//!
//! ```text
//! guardrail-server --listen <addr> [--tenant-inflight N] [--global-inflight N]
//!                  [--default-deadline-ms MS] [--max-deadline-ms MS]
//!                  [--max-frame-bytes N] [--read-timeout-ms MS]
//!                  [--idle-timeout-ms MS] [--retry-after-ms MS]
//!                  [--store-root DIR] [--debug-ops] [--trace-out trace.json]
//!                  [--metrics-out metrics.jsonl] [--metrics-interval-ms MS]
//! guardrail-server send <addr> <request-json>...
//! guardrail-server metrics <addr>
//! ```
//!
//! The daemon itself is [`guardrail_server::daemon::run`], which
//! `guardrail serve` runs too: it prints `listening on <addr>` to stderr
//! once bound, serves until a `shutdown` request arrives, drains, and writes
//! the trace and metrics dumps it was asked for.
//!
//! `send` opens one connection, sends each argument as a request line, and
//! prints each response line to stdout — the scripted-session client the
//! CI smoke job drives. `metrics` scrapes the `metrics` verb and prints
//! the Prometheus text-format payload, ready to pipe into a file or a
//! pushgateway-style relay.

use guardrail_obs::json::{self, Json};
use guardrail_server::chaos::Client;
use guardrail_server::daemon;
use std::process::ExitCode;

const USAGE: &str = "\
guardrail-server — fault-tolerant multi-tenant serving daemon

USAGE:
  guardrail-server --listen <addr> [--tenant-inflight N] [--global-inflight N]
                   [--default-deadline-ms MS] [--max-deadline-ms MS]
                   [--max-frame-bytes N] [--read-timeout-ms MS]
                   [--idle-timeout-ms MS] [--retry-after-ms MS]
                   [--store-root DIR] [--debug-ops] [--trace-out trace.json]
                   [--metrics-out metrics.jsonl] [--metrics-interval-ms MS]
  guardrail-server send <addr> <request-json>...
  guardrail-server metrics <addr>

Protocol: newline-delimited JSON over TCP; one request object per line, one
response object per line. Ops: fit, detect, rectify, vet, status, metrics,
shutdown, plus append and detect_batch against persistent stores when
--store-root is given (stores live at DIR/<tenant>/<table>/, segment + WAL).
`metrics <addr>` prints the server's Prometheus text-format snapshot.
See DESIGN.md §4 for the grammar and the shed/degrade/clean taxonomy.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("send") => cmd_send(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => daemon::run(&args).map(|()| ExitCode::SUCCESS),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn cmd_send(args: &[String]) -> Result<ExitCode, String> {
    let [addr, requests @ ..] = args else {
        return Err(format!("send needs <addr> and at least one request\n{USAGE}"));
    };
    if requests.is_empty() {
        return Err(format!("send needs at least one request line\n{USAGE}"));
    }
    let addr = addr.parse().map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for request in requests {
        let response = client.call(request).map_err(|e| format!("round trip: {e}"))?;
        println!("{response}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Scrapes the `metrics` verb and prints the Prometheus text payload.
fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    let [addr] = args else {
        return Err(format!("metrics needs exactly <addr>\n{USAGE}"));
    };
    let addr = addr.parse().map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = client.call(r#"{"op":"metrics"}"#).map_err(|e| format!("round trip: {e}"))?;
    let doc = json::parse(&response).map_err(|e| format!("unparseable response: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("server refused metrics scrape: {response}"));
    }
    let text = doc
        .get("prometheus")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("response lacks \"prometheus\": {response}"))?;
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}
