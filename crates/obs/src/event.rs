//! The observability event model.
//!
//! Three event kinds exist: a span opened, a span closed (carrying its
//! args), and a counter sample (the running total of one labelled metrics
//! series after an increment). Recorders receive them in emission order;
//! [`crate::chrome_trace`] renders them as the one trace format.

/// One observability event. Span and counter family names are
/// `&'static str` by construction — instrumentation sites name their
/// stages and families with literals — so recording a begin/end pair moves
/// no owned strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Process-unique span id (never 0).
        id: u64,
        /// Enclosing span's id on the same thread, or 0 at top level.
        parent: u64,
        /// Dense per-thread lane id.
        tid: u64,
        /// Stage name.
        name: &'static str,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
    },
    /// A span closed; `args` carries its attached metrics.
    SpanEnd {
        /// Id of the span being closed.
        id: u64,
        /// Lane of the closing thread (always the opening thread: spans are
        /// RAII guards and `Span` is not `Send`-hostile but never migrates
        /// in practice).
        tid: u64,
        /// Stage name (repeated so end events are self-describing).
        name: &'static str,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
        /// `key = value` metrics attached via [`crate::Span::arg`].
        args: Vec<(&'static str, u64)>,
    },
    /// A counter sample: the running total of the metrics series
    /// `name{labels}` after the [`crate::metrics::add`] that emitted it.
    Counter {
        /// Metrics family name.
        name: &'static str,
        /// The series' rendered label set (`rule="combine_filter"`, no
        /// braces; empty for none).
        labels: Box<str>,
        /// Lane of the sampling thread.
        tid: u64,
        /// Series total after the increment that emitted this sample.
        value: u64,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
    },
}
