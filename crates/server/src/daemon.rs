//! The daemon's command line, shared by `guardrail-server` and
//! `guardrail serve`.
//!
//! ```text
//! --listen <addr> [--tenant-inflight N] [--global-inflight N]
//! [--default-deadline-ms MS] [--max-deadline-ms MS] [--max-frame-bytes N]
//! [--read-timeout-ms MS] [--idle-timeout-ms MS] [--retry-after-ms MS]
//! [--store-root DIR] [--debug-ops] [--trace-out trace.json]
//! [--metrics-out metrics.jsonl] [--metrics-interval-ms MS]
//! ```
//!
//! [`run`] prints `listening on <addr>` to stderr once bound (scripts wait
//! for that line), serves until a `shutdown` request arrives, drains, and —
//! when `--trace-out` was given — writes a Chrome-trace JSON of the run's
//! `serve_*` spans and its counter samples (every `add` into the metrics
//! registry, `guardrail_server_requests_total` included). The metrics layer
//! is armed for the daemon's lifetime; `--metrics-out` additionally appends
//! a JSONL registry snapshot every `--metrics-interval-ms` (default 1000)
//! plus one final snapshot at drain. A closed stderr stops neither.

use crate::{Server, ServerConfig};
use guardrail_obs as obs;
use std::io::{self, Write as _};
use std::time::Duration;

/// (positional args, `--flag value` values, bare `--switch` states).
pub type ParsedArgs = (Vec<String>, Vec<Option<String>>, Vec<bool>);

/// Pulls `--flag value` pairs and bare `--switch` toggles out of an
/// argument list; returns (positional, values, switch states).
pub fn parse_flags(
    args: &[String],
    flags: &[&str],
    switches: &[&str],
) -> Result<ParsedArgs, String> {
    let mut positional = Vec::new();
    let mut values: Vec<Option<String>> = vec![None; flags.len()];
    let mut toggles = vec![false; switches.len()];
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(idx) = flags.iter().position(|f| f == arg) {
            let v = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
            values[idx] = Some(v.clone());
        } else if let Some(idx) = switches.iter().position(|s| s == arg) {
            toggles[idx] = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg:?}"));
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, values, toggles))
}

fn parse_ms(value: &Option<String>, flag: &str) -> Result<Option<Duration>, String> {
    value
        .as_ref()
        .map(|v| v.parse::<u64>().map(Duration::from_millis).map_err(|_| format!("bad {flag}")))
        .transpose()
}

/// Runs the daemon configured by `args` (the flags above, no command word)
/// until a `shutdown` request drains it.
pub fn run(args: &[String]) -> Result<(), String> {
    let flag_names = [
        "--listen",
        "--tenant-inflight",
        "--global-inflight",
        "--default-deadline-ms",
        "--max-deadline-ms",
        "--max-frame-bytes",
        "--read-timeout-ms",
        "--idle-timeout-ms",
        "--retry-after-ms",
        "--trace-out",
        "--store-root",
        "--metrics-out",
        "--metrics-interval-ms",
    ];
    let (pos, flags, switches) = parse_flags(args, &flag_names, &["--debug-ops"])?;
    if !pos.is_empty() {
        return Err(format!("unexpected argument {:?} (see --help)", pos[0]));
    }
    let mut config = ServerConfig {
        addr: flags[0].clone().ok_or("the daemon needs --listen <addr>")?,
        debug_ops: switches[0],
        ..ServerConfig::default()
    };
    if let Some(v) = &flags[1] {
        config.tenant_inflight = v.parse().map_err(|_| "bad --tenant-inflight")?;
    }
    if let Some(v) = &flags[2] {
        config.global_inflight = v.parse().map_err(|_| "bad --global-inflight")?;
    }
    if let Some(d) = parse_ms(&flags[3], "--default-deadline-ms")? {
        config.default_deadline = d;
    }
    if let Some(d) = parse_ms(&flags[4], "--max-deadline-ms")? {
        config.max_deadline = d;
    }
    if let Some(v) = &flags[5] {
        config.max_frame_bytes = v.parse().map_err(|_| "bad --max-frame-bytes")?;
    }
    if let Some(d) = parse_ms(&flags[6], "--read-timeout-ms")? {
        config.read_timeout = d;
    }
    if let Some(d) = parse_ms(&flags[7], "--idle-timeout-ms")? {
        config.idle_timeout = d;
    }
    if let Some(v) = &flags[8] {
        config.retry_after_ms = v.parse().map_err(|_| "bad --retry-after-ms")?;
    }
    let trace_out = flags[9].clone();
    if let Some(v) = &flags[10] {
        config.store_root = Some(std::path::PathBuf::from(v));
    }
    let metrics_out = flags[11].clone();
    let metrics_interval = parse_ms(&flags[12], "--metrics-interval-ms")?
        .unwrap_or(Duration::from_millis(1000))
        .max(Duration::from_millis(10));

    let trace = trace_out.map(obs::TraceFile::start);
    // A serving daemon always wants its telemetry live: the `metrics` verb
    // and `status.metrics` are useless against a disarmed registry, and
    // the armed histogram-record cost is tens of nanoseconds (the bench
    // gate in `crates/bench/benches/metrics.rs` pins it under 100ns).
    obs::arm_metrics(true);
    let handle = Server::spawn(config).map_err(|e| format!("bind failed: {e}"))?;
    let _ = writeln!(io::stderr(), "listening on {}", handle.addr());

    // Periodic JSONL metrics dump, if asked for. The thread watches the
    // drain flag so it dies with the accept loop; the final snapshot below
    // covers whatever it missed.
    let dump_thread = metrics_out.clone().map(|path| {
        let lifecycle = handle.ctx().lifecycle.clone();
        std::thread::spawn(move || {
            while !lifecycle.is_draining() {
                std::thread::sleep(metrics_interval);
                append_metrics_snapshot(&path);
            }
        })
    });

    // Serve until a `shutdown` request flips the drain flag.
    while !handle.ctx().lifecycle.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = writeln!(io::stderr(), "draining…");
    handle.shutdown();
    if let Some(t) = dump_thread {
        let _ = t.join();
    }
    if let Some(path) = &metrics_out {
        append_metrics_snapshot(path);
        let _ = writeln!(io::stderr(), "metrics snapshot appended to {path}");
    }
    if let Some(trace) = trace {
        trace.finish()?;
    }
    let _ = writeln!(io::stderr(), "drained; bye");
    Ok(())
}

/// Appends one registry snapshot (one JSON object per series) to `path`.
/// Dump failures are reported, never fatal — metrics must not take down
/// serving.
fn append_metrics_snapshot(path: &str) {
    let snapshot = obs::metrics::snapshot_jsonl();
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(snapshot.as_bytes()));
    if let Err(e) = result {
        let _ = writeln!(io::stderr(), "metrics dump to {path:?} failed: {e}");
    }
}
