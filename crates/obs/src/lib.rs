//! Zero-overhead-when-off tracing and metrics for the Guardrail pipeline.
//!
//! Every stage boundary of the pipeline — PC levels, MEC enumeration,
//! sketch fills, OptSMT, and the serving path's detect/rectify chunks —
//! brackets itself with a [`Span`] and attaches work-unit counts as span
//! arguments. Counting goes through one place, [`metrics::add`], whose
//! labelled series live in the [`metrics`] registry. Where span and
//! counter events go is decided once per process by installing a
//! [`Recorder`]:
//!
//! * [`NoopRecorder`] (the default) — recording stays **off**: the entire
//!   hot-path cost of an instrumentation site is one relaxed atomic load,
//!   and no span allocates. The repo's `tests/alloc_free.rs` pins hold with
//!   this recorder installed.
//! * [`RingRecorder`] — an in-memory ring buffer, drained after a run to
//!   build a Chrome-trace file ([`chrome_trace`]) or inspect events in
//!   tests. [`TraceFile`] wraps the whole install → run → write sequence
//!   that `--trace-out` and `GUARDRAIL_TRACE` share.
//!
//! ```
//! use guardrail_obs as obs;
//! use std::sync::Arc;
//!
//! let ring = Arc::new(obs::RingRecorder::with_capacity(1024));
//! obs::install(ring.clone());
//! {
//!     let mut span = obs::span("demo_stage");
//!     span.arg("work_units", 42);
//! } // span end recorded here
//! obs::uninstall();
//! let events = ring.take();
//! assert_eq!(events.len(), 2); // start + end
//! let trace = obs::chrome_trace(&events);
//! assert!(trace.contains("\"demo_stage\""));
//! ```
//!
//! # Overhead contract
//!
//! Spans and metrics share one gate word: one bit says a recorder is
//! installed, another that the metrics registry is armed. With neither set
//! (the [`NoopRecorder`] installed, or nothing installed, and metrics
//! disarmed), every public entry point below loads that word once with
//! `Ordering::Relaxed` and returns. [`span`] hands back a disarmed guard
//! whose `Vec` of arguments is never allocated (`Vec::new` is
//! allocation-free) and whose `Drop` is a branch on a dead flag. No
//! timestamps are taken, no thread-locals touched, no locks acquired.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use chrome::{chrome_trace, TraceFile};
pub use event::Event;
pub use metrics::{arm_metrics, metrics_on, Histogram};
pub use recorder::{NoopRecorder, Recorder, RingRecorder};
pub use report::{PipelineReport, StageReport};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Gate bit: an enabled recorder is installed (spans and counter events).
const SPANS: u8 = 1;
/// Gate bit: the metrics registry is armed ([`arm_metrics`]).
const METRICS: u8 = 2;

/// The one-load fast-path gate shared by spans and metrics. `install`
/// keeps [`SPANS`] in sync with the active recorder's
/// [`Recorder::enabled`] verdict, so a Noop install leaves every
/// instrumentation site on its single-atomic-load path; `arm_metrics`
/// owns [`METRICS`].
static GATE: AtomicU8 = AtomicU8::new(0);

#[inline(always)]
fn gate() -> u8 {
    GATE.load(Ordering::Relaxed)
}

fn set_gate(bit: u8, on: bool) {
    if on {
        GATE.fetch_or(bit, Ordering::SeqCst);
    } else {
        GATE.fetch_and(!bit, Ordering::SeqCst);
    }
}

/// Monotonic span ids, unique per process (0 is reserved for "disarmed" /
/// "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids for trace lanes (std's `ThreadId` is opaque).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's trace lane.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open span ids, innermost last — gives every span its parent and
    /// guarantees begin/end events balance LIFO per thread (RAII).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> &'static RwLock<Arc<dyn Recorder>> {
    static REGISTRY: OnceLock<RwLock<Arc<dyn Recorder>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Arc::new(NoopRecorder)))
}

/// Installs `recorder` as the process-global event sink and arms (or
/// disarms, for a [`NoopRecorder`]) the fast-path gate.
///
/// Instrumented library code never calls this: recording is an application
/// decision (the CLI's `--trace-out`, a test, a bench run). Installing is
/// not thread-safe *semantically* — events from concurrently running work
/// land in whichever recorder is current — so do it around a run, not
/// during one.
pub fn install(recorder: Arc<dyn Recorder>) {
    let enabled = recorder.enabled();
    *registry().write().unwrap_or_else(|e| e.into_inner()) = recorder;
    set_gate(SPANS, enabled);
}

/// Restores the default [`NoopRecorder`], disarming the fast-path gate.
pub fn uninstall() {
    install(Arc::new(NoopRecorder));
}

/// Whether a recorder is armed. The only cost an instrumentation site pays
/// when recording is off.
#[inline(always)]
pub fn recording() -> bool {
    gate() & SPANS != 0
}

/// Nanoseconds since the process's trace epoch (the first observability
/// call). Monotonic; shared by every event so traces line up across
/// threads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn dispatch(event: Event) {
    let recorder = registry().read().unwrap_or_else(|e| e.into_inner()).clone();
    recorder.record(event);
}

/// An RAII span guard: records a begin event on creation (when recording)
/// and the matching end event — carrying any [`Span::arg`] attachments — on
/// drop. Disarmed spans (recording off) cost one branch in `Drop` and never
/// allocate.
#[must_use = "a span measures the scope it lives in; binding it to _ ends it immediately"]
#[derive(Debug)]
pub struct Span {
    /// 0 when disarmed.
    id: u64,
    name: &'static str,
    args: Vec<(&'static str, u64)>,
}

/// Opens a span named `name` under the innermost open span of this thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !recording() {
        return Span { id: 0, name, args: Vec::new() };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let tid = TID.with(|t| *t);
    dispatch(Event::SpanStart { id, parent, tid, name, t_ns: now_ns() });
    Span { id, name, args: Vec::new() }
}

impl Span {
    /// Attaches a `key = value` argument to the span's end event (shown as
    /// span args in Perfetto). A no-op on a disarmed span.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.id != 0 {
            self.args.push((key, value));
        }
    }

    /// Whether this span is actually recording (useful to skip arg
    /// computations that are themselves costly).
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.id != 0
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // RAII makes LIFO the overwhelmingly common case; out-of-order
            // drops (spans moved across scopes) are still removed correctly.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                stack.retain(|&open| open != self.id);
            }
        });
        let tid = TID.with(|t| *t);
        dispatch(Event::SpanEnd {
            id: self.id,
            tid,
            name: self.name,
            t_ns: now_ns(),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Emits the [`Event::Counter`] sample for series `name{labels}` after an
/// increment brought it to `value` (called by [`metrics::add`] when a
/// recorder is installed).
fn emit_counter(name: &'static str, labels: &str, value: u64) {
    let tid = TID.with(|t| *t);
    dispatch(Event::Counter { name, labels: labels.into(), tid, value, t_ns: now_ns() });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate and the recorder are process state; every unit test in
    /// this crate that touches them serializes here.
    pub(crate) static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn series_samples(events: Vec<Event>, series: &str) -> Vec<u64> {
        events
            .into_iter()
            .filter_map(|e| match e {
                Event::Counter { name, labels, value, .. } if name == series => {
                    assert_eq!(&*labels, "k=\"v\"");
                    Some(value)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disarmed_spans_and_adds_are_inert() {
        let _guard = serial();
        let ring = Arc::new(RingRecorder::with_capacity(16));
        install(ring.clone());
        uninstall();
        arm_metrics(false);
        metrics::reset_metrics();
        assert!(!recording());
        let mut s = span("never_recorded");
        assert!(!s.is_armed());
        s.arg("ignored", 1);
        drop(s);
        metrics::add("test_disarmed_total", "", 5);
        assert_eq!(metrics::series_count(), 0, "a disarmed add registers nothing");
        assert!(ring.take().is_empty(), "a disarmed add emits nothing");
    }

    #[test]
    fn ring_recorder_captures_nested_spans_and_counters() {
        let _guard = serial();
        let ring = Arc::new(RingRecorder::with_capacity(64));
        install(ring.clone());
        {
            let mut outer = span("outer");
            outer.arg("outer_arg", 7);
            {
                let _inner = span("inner");
                metrics::add("test_events_seen", "", 3);
            }
        }
        uninstall();
        metrics::reset_metrics();
        let events = ring.take();
        assert_eq!(events.len(), 5, "{events:?}");
        let (outer_id, inner_parent) = match (&events[0], &events[1]) {
            (
                Event::SpanStart { id, parent: 0, name: "outer", .. },
                Event::SpanStart { parent, name: "inner", .. },
            ) => (*id, *parent),
            other => panic!("unexpected prefix {other:?}"),
        };
        assert_eq!(inner_parent, outer_id, "inner span must nest under outer");
        assert!(matches!(&events[2], Event::Counter { name: "test_events_seen", value: 3, .. }));
        assert!(matches!(&events[3], Event::SpanEnd { name: "inner", .. }));
        match &events[4] {
            Event::SpanEnd { id, name: "outer", args, .. } => {
                assert_eq!(*id, outer_id);
                assert_eq!(args.as_slice(), &[("outer_arg", 7)]);
            }
            other => panic!("expected outer end, got {other:?}"),
        }
    }

    #[test]
    fn recorder_only_add_emits_running_totals() {
        let _guard = serial();
        arm_metrics(false);
        metrics::reset_metrics();
        let ring = Arc::new(RingRecorder::with_capacity(16));
        install(ring.clone());
        metrics::add("test_accum_total", "k=\"v\"", 2);
        metrics::add("test_accum_total", "k=\"v\"", 3);
        uninstall();
        assert!(!metrics_on(), "a recorder must not arm metrics");
        assert_eq!(series_samples(ring.take(), "test_accum_total"), vec![2, 5]);
        metrics::reset_metrics();
    }

    #[test]
    fn armed_metrics_count_and_also_trace_when_recording() {
        let _guard = serial();
        metrics::reset_metrics();
        arm_metrics(true);
        assert!(!recording(), "arming metrics must not arm spans");
        assert!(!span("metrics_only").is_armed());
        metrics::add("test_both_total", "k=\"v\"", 4);
        let ring = Arc::new(RingRecorder::with_capacity(16));
        install(ring.clone());
        metrics::add("test_both_total", "k=\"v\"", 1);
        uninstall();
        arm_metrics(false);
        assert_eq!(series_samples(ring.take(), "test_both_total"), vec![5]);
        assert!(metrics::render_prometheus().contains("test_both_total{k=\"v\"} 5"));
        metrics::reset_metrics();
    }

    #[test]
    fn noop_install_keeps_gate_closed() {
        let _guard = serial();
        arm_metrics(false);
        metrics::reset_metrics();
        install(Arc::new(NoopRecorder));
        assert!(!recording(), "installing Noop must leave the fast path disarmed");
        assert_eq!(gate(), 0);
        metrics::add("test_noop_total", "", 1);
        assert_eq!(metrics::series_count(), 0);
        uninstall();
    }
}
