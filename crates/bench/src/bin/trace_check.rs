//! Validates a Chrome-trace JSON file written by `--trace-out` (CLI or
//! daemon) or by a bench binary under `GUARDRAIL_TRACE`.
//!
//! ```text
//! trace_check <trace.json> [required-span-name ...]
//! ```
//!
//! Checks, in order: the file parses with the workspace's own JSON parser
//! (the one `bench_diff` uses for `results/bench/*.jsonl`, keeping the two
//! schemas honest against each other), `traceEvents` is present, every
//! begin (`B`) event has a matching end (`E`) in LIFO order per thread,
//! counter (`C`) samples never decrease per `(tid, name)` — a counter's
//! name is its metrics series (`family{labels}`) and the recorder emits
//! the series' post-`fetch_add` total, so a decrease means a dropped or
//! reordered event — and each required span name occurs at least once.
//! Exits non-zero with a description on the first failure — CI's trace
//! smoke step gates on this.
//!
//! Monotonicity is deliberately scoped per thread: two threads bumping the
//! same counter publish their totals into the ring in whatever order the
//! scheduler serves, so a *global* decreasing pair is legal; within one
//! thread the totals it observed are strictly ordered.

use guardrail_obs::json::{self, Json};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((path, required)) = args.split_first() else {
        eprintln!("usage: trace_check <trace.json> [required-span-name ...]");
        return ExitCode::from(2);
    };
    match validate(path, required) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("trace_check: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn validate(path: &str, required: &[String]) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    validate_text(&text, required)
}

fn validate_text(text: &str, required: &[String]) -> Result<String, String> {
    let root = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events =
        root.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;

    // Per-thread LIFO check: spans must nest, exactly as Perfetto renders
    // them.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut counter_last: HashMap<(u64, String), u64> = HashMap::new();
    let mut spans = 0usize;
    let mut counters = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).ok_or(format!("event {i}: missing ph"))?;
        let name =
            ev.get("name").and_then(Json::as_str).ok_or(format!("event {i}: missing name"))?;
        let tid = ev.get("tid").and_then(Json::as_u64).ok_or(format!("event {i}: missing tid"))?;
        match ph {
            "B" => {
                stacks.entry(tid).or_default().push(name.to_string());
                *seen.entry(name.to_string()).or_default() += 1;
                spans += 1;
            }
            "E" => {
                let top = stacks.entry(tid).or_default().pop();
                if top.as_deref() != Some(name) {
                    return Err(format!(
                        "event {i}: E {name:?} on tid {tid} does not close {top:?}"
                    ));
                }
            }
            "C" => {
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_u64)
                    .ok_or(format!("event {i}: counter {name:?} missing args.value"))?;
                let last = counter_last.entry((tid, name.to_string())).or_insert(0);
                if value < *last {
                    return Err(format!(
                        "event {i}: counter {name:?} on tid {tid} decreased {last} -> {value}"
                    ));
                }
                *last = value;
                counters += 1;
            }
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} span(s) never closed: {stack:?}", stack.len()));
        }
    }
    for want in required {
        if !seen.contains_key(want) {
            let mut have: Vec<&String> = seen.keys().collect();
            have.sort();
            return Err(format!("required span {want:?} absent (have: {have:?})"));
        }
    }
    Ok(format!(
        "ok: {spans} span(s), {counters} counter sample(s), {} distinct name(s), {} thread(s)",
        seen.len(),
        stacks.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(events: &[&str]) -> String {
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    const B: &str = r#"{"ph":"B","name":"fit","tid":1,"ts":0}"#;
    const E: &str = r#"{"ph":"E","name":"fit","tid":1,"ts":9}"#;

    fn counter(tid: u64, value: u64) -> String {
        format!(r#"{{"ph":"C","name":"reqs","tid":{tid},"ts":1,"args":{{"value":{value}}}}}"#)
    }

    #[test]
    fn monotone_counters_pass() {
        let t = trace(&[B, &counter(1, 1), &counter(1, 1), &counter(1, 5), E]);
        let summary = validate_text(&t, &[]).unwrap();
        assert!(summary.contains("3 counter sample(s)"), "{summary}");
    }

    #[test]
    fn decreasing_counter_on_one_thread_is_rejected() {
        let t = trace(&[B, &counter(1, 5), &counter(1, 3), E]);
        let err = validate_text(&t, &[]).unwrap_err();
        assert!(err.contains("decreased 5 -> 3"), "{err}");
    }

    #[test]
    fn cross_thread_decrease_is_legal() {
        // Thread 2 published a smaller total after thread 1's larger one:
        // fine — each thread's own sequence is still ordered.
        let t = trace(&[B, &counter(1, 7), &counter(2, 2), &counter(2, 4), E]);
        assert!(validate_text(&t, &[]).is_ok());
    }

    #[test]
    fn counter_without_value_is_rejected() {
        let t = trace(&[r#"{"ph":"C","name":"reqs","tid":1,"ts":1,"args":{}}"#]);
        let err = validate_text(&t, &[]).unwrap_err();
        assert!(err.contains("missing args.value"), "{err}");
    }

    #[test]
    fn unbalanced_span_is_still_rejected() {
        let t = trace(&[B]);
        let err = validate_text(&t, &[]).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn required_span_enforced() {
        let t = trace(&[B, E]);
        assert!(validate_text(&t, &["fit".into()]).is_ok());
        let err = validate_text(&t, &["serve_fit".into()]).unwrap_err();
        assert!(err.contains("required span"), "{err}");
    }
}
