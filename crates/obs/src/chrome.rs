//! Chrome-trace (Trace Event Format) export — the one trace format.
//!
//! Produces the JSON object `chrome://tracing` and [Perfetto] open
//! directly: a `traceEvents` array of duration (`"B"`/`"E"`) events with
//! microsecond timestamps, one lane per thread, plus counter (`"C"`)
//! events named after their metrics series (`family{labels}`). Span args
//! attached via [`crate::Span::arg`] appear on the end event and show up
//! in the Perfetto span-details panel.
//!
//! [Perfetto]: https://ui.perfetto.dev

use crate::event::Event;
use crate::json::escape;
use crate::recorder::RingRecorder;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;

/// The `pid` every lane reports (single-process tracing).
const PID: u64 = 1;

/// Renders `events` (in emission order) as a complete Chrome-trace JSON
/// document. An end event whose start is not in `events` — a full ring
/// evicted it — is left out, so the document stays balanced per thread.
pub fn chrome_trace(events: &[Event]) -> String {
    let started: HashSet<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStart { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for event in events {
        if matches!(event, Event::SpanEnd { id, .. } if !started.contains(id)) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        match event {
            Event::SpanStart { tid, name, t_ns, .. } => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"B\",\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\
                     \"cat\":\"guardrail\"}}",
                    micros(*t_ns),
                    escape(name)
                );
            }
            Event::SpanEnd { tid, name, t_ns, args, .. } => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"E\",\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\
                     \"cat\":\"guardrail\",\"args\":{{",
                    micros(*t_ns),
                    escape(name)
                );
                for (i, (key, value)) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{value}", escape(key));
                }
                out.push_str("}}");
            }
            Event::Counter { name, labels, tid, value, t_ns } => {
                let series = if labels.is_empty() {
                    name.to_string()
                } else {
                    format!("{name}{{{labels}}}")
                };
                let _ = write!(
                    out,
                    "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\
                     \"cat\":\"guardrail\",\"args\":{{\"value\":{value}}}}}",
                    micros(*t_ns),
                    escape(&series)
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// A run traced into a Chrome-trace file: [`TraceFile::start`] installs a
/// ring recorder, and [`TraceFile::finish`] (or dropping the guard)
/// uninstalls it and writes the file, reporting on stderr how many events
/// the ring evicted. The CLI's and the daemon's `--trace-out` and the
/// bench binaries' `GUARDRAIL_TRACE` all go through this.
#[derive(Debug)]
pub struct TraceFile {
    path: String,
    /// `None` once written.
    ring: Option<Arc<RingRecorder>>,
}

impl TraceFile {
    /// Installs a ring of 2^20 events that will be written to `path`.
    pub fn start(path: impl Into<String>) -> Self {
        let ring = Arc::new(RingRecorder::with_capacity(1 << 20));
        crate::install(ring.clone());
        Self { path: path.into(), ring: Some(ring) }
    }

    /// Uninstalls the ring and writes the trace.
    pub fn finish(mut self) -> Result<(), String> {
        self.write()
    }

    fn write(&mut self) -> Result<(), String> {
        let Some(ring) = self.ring.take() else { return Ok(()) };
        crate::uninstall();
        let events = ring.take();
        let path = &self.path;
        std::fs::write(path, chrome_trace(&events))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        let (n, evicted) = (events.len(), ring.dropped());
        let _ =
            writeln!(std::io::stderr(), "trace ({n} events, {evicted} evicted) written to {path}");
        Ok(())
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        if let Err(e) = self.write() {
            let _ = writeln!(std::io::stderr(), "{e}");
        }
    }
}

/// Trace-event timestamps are microseconds; keep nanosecond precision as a
/// fraction.
fn micros(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn export_is_valid_json_with_balanced_phases() {
        let events = vec![
            Event::SpanStart { id: 1, parent: 0, tid: 1, name: "fit", t_ns: 1_000 },
            Event::SpanStart { id: 2, parent: 1, tid: 1, name: "pc_level", t_ns: 2_500 },
            Event::Counter {
                name: "ci_tests",
                labels: "level=\"1\"".into(),
                tid: 1,
                value: 12,
                t_ns: 3_000,
            },
            Event::SpanEnd {
                id: 2,
                tid: 1,
                name: "pc_level",
                t_ns: 4_000,
                args: vec![("edges", 6)],
            },
            Event::SpanEnd { id: 1, tid: 1, name: "fit", t_ns: 9_999, args: vec![] },
        ];
        let doc = parse(&chrome_trace(&events)).unwrap();
        let trace_events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(trace_events.len(), events.len());
        let phase = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
        let begins = trace_events.iter().filter(|e| phase(e) == "B").count();
        let ends = trace_events.iter().filter(|e| phase(e) == "E").count();
        assert_eq!(begins, ends);
        // Microsecond timestamps with the ns remainder as fraction.
        assert_eq!(trace_events[0].get("ts").and_then(Json::as_num), Some(1.0));
        assert_eq!(trace_events[1].get("ts").and_then(Json::as_num), Some(2.5));
        // Args survive on the end event.
        assert_eq!(
            trace_events[3].get("args").and_then(|a| a.get("edges")).and_then(Json::as_u64),
            Some(6)
        );
        // Counters are named by series.
        assert_eq!(
            trace_events[2].get("name").and_then(Json::as_str),
            Some("ci_tests{level=\"1\"}")
        );
    }

    #[test]
    fn overflowed_ring_still_exports_balanced_spans() {
        use crate::Recorder;
        let ring = RingRecorder::with_capacity(3);
        ring.record(Event::SpanStart { id: 1, parent: 0, tid: 1, name: "outer", t_ns: 0 });
        ring.record(Event::SpanStart { id: 2, parent: 1, tid: 1, name: "inner", t_ns: 1 });
        ring.record(Event::SpanEnd { id: 2, tid: 1, name: "inner", t_ns: 2, args: vec![] });
        ring.record(Event::SpanStart { id: 3, parent: 1, tid: 2, name: "other", t_ns: 3 });
        ring.record(Event::SpanEnd { id: 3, tid: 2, name: "other", t_ns: 4, args: vec![] });
        ring.record(Event::SpanEnd { id: 1, tid: 1, name: "outer", t_ns: 5, args: vec![] });
        assert_eq!(ring.dropped(), 3, "outer's and inner's starts are gone");
        let doc = parse(&chrome_trace(&ring.take())).unwrap();
        let mut open: std::collections::HashMap<u64, Vec<String>> = Default::default();
        for e in doc.get("traceEvents").and_then(Json::as_arr).unwrap() {
            let tid = e.get("tid").and_then(Json::as_u64).unwrap();
            let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
            match e.get("ph").and_then(Json::as_str).unwrap() {
                "B" => open.entry(tid).or_default().push(name),
                "E" => assert_eq!(open.entry(tid).or_default().pop(), Some(name), "orphan E"),
                ph => panic!("unexpected phase {ph}"),
            }
        }
        assert!(open.values().all(Vec::is_empty), "unclosed spans: {open:?}");
        assert_eq!(open.len(), 1, "only tid 2's span survives");
    }
}
