//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions: name, start, end, parent span and the id of the op
//! they belong to. They stay in memory and are written once, at exit, as
//! Chrome-trace JSON through `guardrail_obs::chrome_trace`. The program's
//! own recorder stays disarmed, so the only spans are the benchmark's.
//!
//! With tracing off, [`Tracer::span`] only calls its closure: the untraced
//! and traced runs execute the same calls.

use guardrail_obs::{self as obs, Event};
use std::collections::BTreeMap;

/// Trace lane of every span: the benchmark drives each workload from one
/// thread.
const TID: u64 = 1;

struct SpanRecord {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    op: u64,
    next_id: u64,
    stack: Vec<(u64, &'static str, u64)>,
    spans: Vec<SpanRecord>,
    events: Vec<Event>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            op: 0,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            events: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; every span opened until the matching [`close`] nests
    /// under it.
    ///
    /// [`close`]: Tracer::close
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |s| s.0);
        let t_ns = obs::now_ns();
        self.events.push(Event::SpanStart { id, parent, tid: TID, name, t_ns });
        self.stack.push((id, name, t_ns));
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let (id, name, start_ns) = self.stack.pop().expect("close matches an open span");
        let end_ns = obs::now_ns();
        let parent = self.stack.last().map_or(0, |s| s.0);
        self.events.push(Event::SpanEnd {
            id,
            tid: TID,
            name,
            t_ns: end_ns,
            args: vec![("op", self.op)],
        });
        self.spans.push(SpanRecord { id, parent, name, start_ns, end_ns });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Starts op `op`: opens its root span, which every layer span of the
    /// op nests under.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.open("op");
    }

    pub fn end_op(&mut self) {
        self.close();
    }

    /// Per span name, the summed self time in nanoseconds: each span's
    /// duration minus the part of it that its child spans cover.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// The recorded spans as a Chrome-trace JSON document.
    pub fn chrome_trace(&self) -> String {
        obs::chrome_trace(&self.events)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// Length of the union of `intervals`, clipped to `start..end`.
fn covered_ns(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10)], 5, 8), 3);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin_op(7);
        t.span("child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end_op();
        let times = t.self_times_ns();
        assert!(times["child"] >= 2_000_000);
        assert!(times["op"] < times["child"]);
        let doc = t.chrome_trace();
        assert!(doc.contains("\"op\":7"), "{doc}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op(1);
        assert_eq!(t.span("x", || 3), 3);
        t.end_op();
        assert_eq!(t.span_count(), 0);
    }
}
