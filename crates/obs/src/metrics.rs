//! Lock-free metrics: log-bucketed histograms, monotonic counters, and
//! gauges in a process-global registry, with the same
//! zero-overhead-when-off arming discipline as spans.
//!
//! # Arming
//!
//! Metrics are **disarmed by default**. Every hot-path helper
//! ([`observe`], [`add`], [`gauge_set`]) loads the crate's one gate word
//! once and returns immediately when it is closed — no heap allocation,
//! no lock, no label formatting (callers must format labels *after*
//! checking [`metrics_on`] or [`counting`], or pass through these gated
//! helpers). The counting allocator in `tests/alloc_free.rs` pins the
//! disarmed path at zero allocations.
//!
//! [`add`] is the only way anything in the workspace counts. It updates
//! its series when metrics are armed **or** a recorder is installed, and
//! in the latter case also emits an [`crate::Event::Counter`] carrying
//! the series' new total, so traces and the registry read the same cell.
//!
//! # Histogram bucket scheme
//!
//! Values `0..16` get one exact bucket each; every value `>= 16` lands
//! in one of four sub-buckets per power of two (the two bits below the
//! most significant bit select the sub-bucket). That is 16 + 4×60 = 256
//! buckets covering all of `u64` with ≤ 25% relative width, so quantile
//! estimates are within one bucket boundary of the exact sample
//! quantile. Buckets are relaxed `AtomicU64`s: recording is lock-free,
//! and two histograms merge by element-wise addition (associative and
//! commutative, so shard-local histograms can be reduced in any order).
//!
//! # Exposition
//!
//! [`render_prometheus`] emits the Prometheus text format (summary
//! families with `quantile` labels plus `_sum`/`_count`, counter and
//! gauge families with `# TYPE` lines); [`snapshot_jsonl`] emits one
//! flat JSON object per series for the `--metrics-out` dump, parseable
//! by `obs::json` like every other artifact in the workspace.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Bucket count: 16 exact buckets for values `0..16`, then 4
/// sub-buckets for each power of two from `2^4` through `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 16 + 4 * 60;

/// The quantiles rendered for each histogram series (`1.0` is the
/// recorded maximum, reported exactly rather than by bucket bound).
pub const RENDERED_QUANTILES: [f64; 4] = [0.5, 0.95, 0.99, 1.0];

/// Whether metrics are armed. One relaxed atomic load — this is the
/// *only* cost instrumentation sites pay when metrics are off.
#[inline(always)]
pub fn metrics_on() -> bool {
    crate::gate() & crate::METRICS != 0
}

/// Whether [`add`] records anything: metrics are armed or a recorder is
/// installed. Counter call sites that format labels check this first.
#[inline(always)]
pub fn counting() -> bool {
    crate::gate() != 0
}

/// Arms or disarms the metrics layer. Its gate bit is independent of the
/// span recorder's, so traces can run without metrics and vice versa.
pub fn arm_metrics(enabled: bool) {
    crate::set_gate(crate::METRICS, enabled);
}

/// Maps a value to its bucket index. Exact below 16; above, the two
/// bits under the MSB pick one of four sub-buckets per power of two.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < 16 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros() as usize; // 4..=63
        let sub = ((value >> (msb - 2)) & 3) as usize;
        16 + (msb - 4) * 4 + sub
    }
}

/// The largest value that lands in bucket `index` (inclusive upper
/// bound). Quantile estimation reports this bound.
pub fn bucket_upper(index: usize) -> u64 {
    if index < 16 {
        index as u64
    } else {
        let msb = (index - 16) / 4 + 4;
        let sub = ((index - 16) % 4) as u64;
        let upper = (1u128 << msb) + u128::from(sub + 1) * (1u128 << (msb - 2)) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }
}

/// A lock-free log-bucketed histogram: 256 relaxed atomic buckets plus
/// running count, sum, and max. Recording is wait-free; merging is
/// element-wise atomic addition.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Three relaxed atomic RMWs and one
    /// atomic max — no locks, no allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (wrapping on overflow, like the
    /// bucket counts themselves).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Folds `other`'s observations into `self` by element-wise bucket
    /// addition. Associative and commutative up to concurrent interleaving,
    /// so shard-local histograms reduce in any order.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts (for merging tests and
    /// external exposition).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) as the inclusive upper
    /// bound of the bucket holding the rank-`ceil(q·n)` observation —
    /// within one bucket boundary of the exact sample quantile. `q >=
    /// 1.0` returns the exact recorded maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if q >= 1.0 {
            return self.max();
        }
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

/// One registered series: a histogram, a monotonic counter, or a gauge
/// (gauges store `f64` bits in the atomic).
#[derive(Clone)]
enum Metric {
    Histogram(Arc<Histogram>),
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Histogram(_) => "histogram",
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
        }
    }
}

struct Entry {
    name: &'static str,
    labels: Box<str>,
    metric: Metric,
}

/// The process-global metrics registry: series keyed by (family name,
/// rendered label set), registration order preserved for exposition.
#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    index: HashMap<&'static str, HashMap<Box<str>, usize>>,
}

static REGISTRY: OnceLock<RwLock<Inner>> = OnceLock::new();

fn registry() -> &'static RwLock<Inner> {
    REGISTRY.get_or_init(Default::default)
}

fn read_inner() -> std::sync::RwLockReadGuard<'static, Inner> {
    registry().read().unwrap_or_else(|p| p.into_inner())
}

fn write_inner() -> std::sync::RwLockWriteGuard<'static, Inner> {
    registry().write().unwrap_or_else(|p| p.into_inner())
}

fn lookup(name: &'static str, labels: &str) -> Option<Metric> {
    let inner = read_inner();
    let idx = *inner.index.get(name)?.get(labels)?;
    Some(inner.entries[idx].metric.clone())
}

fn get_or_insert(name: &'static str, labels: &str, make: impl Fn() -> Metric) -> Metric {
    if let Some(m) = lookup(name, labels) {
        return m;
    }
    let mut inner = write_inner();
    if let Some(&idx) = inner.index.get(name).and_then(|by_label| by_label.get(labels)) {
        return inner.entries[idx].metric.clone();
    }
    let metric = make();
    let idx = inner.entries.len();
    inner.entries.push(Entry { name, labels: labels.into(), metric: metric.clone() });
    inner.index.entry(name).or_default().insert(labels.into(), idx);
    metric
}

/// Returns (registering on first use) the histogram series `name` with
/// the pre-rendered label set `labels` (e.g. `tenant="a",verb="fit"`,
/// no braces; empty for none). If the series already exists with a
/// different kind, a detached histogram is returned so instrumentation
/// never panics — the registered series is left untouched.
pub fn histogram(name: &'static str, labels: &str) -> Arc<Histogram> {
    match get_or_insert(name, labels, || Metric::Histogram(Arc::new(Histogram::new()))) {
        Metric::Histogram(h) => h,
        _ => Arc::new(Histogram::new()),
    }
}

/// Returns (registering on first use) the monotonic counter series
/// `name` / `labels`. Kind mismatch yields a detached cell (see
/// [`histogram`]).
pub fn counter(name: &'static str, labels: &str) -> Arc<AtomicU64> {
    match get_or_insert(name, labels, || Metric::Counter(Arc::new(AtomicU64::new(0)))) {
        Metric::Counter(c) => c,
        _ => Arc::new(AtomicU64::new(0)),
    }
}

/// Returns (registering on first use) the gauge series `name` /
/// `labels`. The cell stores `f64` bits; use [`gauge_set`] /
/// [`gauge_value`] rather than integer arithmetic on it.
pub fn gauge(name: &'static str, labels: &str) -> Arc<AtomicU64> {
    match get_or_insert(name, labels, || Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))) {
        Metric::Gauge(g) => g,
        _ => Arc::new(AtomicU64::new(0f64.to_bits())),
    }
}

/// Records `value` into histogram `name`/`labels` — when armed. The
/// disarmed path is one relaxed load and a return.
#[inline]
pub fn observe(name: &'static str, labels: &str, value: u64) {
    if metrics_on() {
        observe_slow(name, labels, value);
    }
}

#[cold]
fn observe_slow(name: &'static str, labels: &str, value: u64) {
    histogram(name, labels).record(value);
}

/// Adds `delta` to counter `name`/`labels` when metrics are armed or a
/// recorder is installed; with a recorder, also emits the series' new
/// total as an [`crate::Event::Counter`].
#[inline]
pub fn add(name: &'static str, labels: &str, delta: u64) {
    let gate = crate::gate();
    if gate != 0 {
        add_slow(gate, name, labels, delta);
    }
}

#[cold]
fn add_slow(gate: u8, name: &'static str, labels: &str, delta: u64) {
    let total = counter(name, labels).fetch_add(delta, Ordering::Relaxed) + delta;
    if gate & crate::SPANS != 0 {
        crate::emit_counter(name, labels, total);
    }
}

/// Sets gauge `name`/`labels` to `value` — when armed.
#[inline]
pub fn gauge_set(name: &'static str, labels: &str, value: f64) {
    if metrics_on() {
        gauge_set_slow(name, labels, value);
    }
}

#[cold]
fn gauge_set_slow(name: &'static str, labels: &str, value: f64) {
    gauge(name, labels).store(value.to_bits(), Ordering::Relaxed);
}

/// Reads a gauge cell back as `f64`.
pub fn gauge_value(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// Number of registered series.
pub fn series_count() -> usize {
    read_inner().entries.len()
}

/// Clears every registered series (test isolation; running
/// instrumentation holding an `Arc` keeps recording into the detached
/// cells harmlessly).
pub fn reset_metrics() {
    let mut inner = write_inner();
    inner.entries.clear();
    inner.index.clear();
}

fn write_series_name(out: &mut String, name: &str, suffix: &str, labels: &str, extra: &str) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        out.push_str(labels);
        if !labels.is_empty() && !extra.is_empty() {
            out.push(',');
        }
        out.push_str(extra);
        out.push('}');
    }
}

/// Renders every registered series in the Prometheus text exposition
/// format. Histograms render as `summary` families (`quantile` labels
/// for p50/p95/p99 plus `quantile="1"` for the max, then `_sum` and
/// `_count`); counters and gauges render one sample each. `# TYPE`
/// lines are emitted once per family, families in first-registration
/// order.
pub fn render_prometheus() -> String {
    let inner = read_inner();
    let mut out = String::new();
    let mut families: Vec<&'static str> = Vec::new();
    for e in &inner.entries {
        if !families.contains(&e.name) {
            families.push(e.name);
        }
    }
    for family in families {
        let mut typed = false;
        for e in inner.entries.iter().filter(|e| e.name == family) {
            if !typed {
                let kind = match e.metric {
                    Metric::Histogram(_) => "summary",
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                };
                let _ = writeln!(out, "# TYPE {family} {kind}");
                typed = true;
            }
            match &e.metric {
                Metric::Histogram(h) => {
                    for q in RENDERED_QUANTILES {
                        let mut ql = String::new();
                        let _ = write!(ql, "quantile=\"{q}\"");
                        write_series_name(&mut out, family, "", &e.labels, &ql);
                        let _ = writeln!(out, " {}", h.quantile(q));
                    }
                    write_series_name(&mut out, family, "_sum", &e.labels, "");
                    let _ = writeln!(out, " {}", h.sum());
                    write_series_name(&mut out, family, "_count", &e.labels, "");
                    let _ = writeln!(out, " {}", h.count());
                }
                Metric::Counter(c) => {
                    write_series_name(&mut out, family, "", &e.labels, "");
                    let _ = writeln!(out, " {}", c.load(Ordering::Relaxed));
                }
                Metric::Gauge(g) => {
                    write_series_name(&mut out, family, "", &e.labels, "");
                    let _ = writeln!(out, " {}", gauge_value(g));
                }
            }
        }
    }
    out
}

/// Renders every registered series as one flat JSON object per line
/// (the `--metrics-out` dump format), parseable by [`crate::json`].
/// `t_ns` stamps each line with the shared monotonic clock.
pub fn snapshot_jsonl() -> String {
    let inner = read_inner();
    let t_ns = crate::now_ns();
    let mut out = String::new();
    for e in &inner.entries {
        let labels = crate::json::escape(&e.labels);
        let _ = write!(
            out,
            "{{\"metric\":\"{}\",\"labels\":\"{}\",\"kind\":\"{}\",\"t_ns\":{}",
            crate::json::escape(e.name),
            labels,
            e.metric.kind(),
            t_ns
        );
        match &e.metric {
            Metric::Histogram(h) => {
                let _ = write!(
                    out,
                    ",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}",
                    h.count(),
                    h.sum(),
                    h.max(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.quantile(0.99)
                );
            }
            Metric::Counter(c) => {
                let _ = write!(out, ",\"value\":{}", c.load(Ordering::Relaxed));
            }
            Metric::Gauge(g) => {
                let v = gauge_value(g);
                if v.is_finite() {
                    let _ = write!(out, ",\"value\":{v}");
                } else {
                    let _ = write!(out, ",\"value\":null");
                }
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Tests that touch the process-global registry or gate serialize
    /// with the crate's other gate tests so `reset_metrics` cannot race.
    use crate::tests::serial as registry_guard;

    #[test]
    fn bucket_index_is_monotone_and_upper_bounds_are_consistent() {
        let mut prev = 0usize;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev, "index must not decrease: {v} -> {i}");
            assert!(v <= bucket_upper(i), "{v} above its bucket upper {}", bucket_upper(i));
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound must stay in bucket {i}");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Relative width ≤ 25% above the exact range.
        for i in 16..HISTOGRAM_BUCKETS - 1 {
            let hi = bucket_upper(i) as f64;
            let lo = bucket_upper(i - 1) as f64 + 1.0;
            assert!(hi / lo <= 1.26, "bucket {i} too wide: [{lo}, {hi}]");
        }
    }

    #[test]
    fn histogram_records_and_estimates_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert_eq!(h.quantile(1.0), 100);
        // p50 exact value is 50; the estimate shares its bucket.
        assert_eq!(bucket_index(h.quantile(0.5)), bucket_index(50));
        assert_eq!(bucket_index(h.quantile(0.99)), bucket_index(99));
    }

    #[test]
    fn merge_accumulates_everything() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..50u64 {
            a.record(v);
        }
        for v in 50..100u64 {
            b.record(v * 17);
        }
        let merged = Histogram::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        assert_eq!(merged.sum(), a.sum() + b.sum());
        assert_eq!(merged.max(), a.max().max(b.max()));
        let want: Vec<u64> =
            a.bucket_counts().iter().zip(b.bucket_counts().iter()).map(|(x, y)| x + y).collect();
        assert_eq!(merged.bucket_counts(), want);
    }

    #[test]
    fn disarmed_helpers_register_nothing() {
        let _guard = registry_guard();
        reset_metrics();
        arm_metrics(false);
        observe("test_disarmed_hist", "", 7);
        add("test_disarmed_ctr", "", 1);
        gauge_set("test_disarmed_gauge", "", 1.0);
        assert_eq!(series_count(), 0);
    }

    #[test]
    fn registry_round_trips_through_both_renderers() {
        let _guard = registry_guard();
        reset_metrics();
        arm_metrics(true);
        observe("test_render_latency_us", "tenant=\"a\",verb=\"fit\"", 120);
        observe("test_render_latency_us", "tenant=\"a\",verb=\"fit\"", 80);
        add("test_render_requests_total", "tenant=\"a\"", 3);
        gauge_set("test_render_epoch", "", 4.0);
        arm_metrics(false);

        let text = render_prometheus();
        assert!(text.contains("# TYPE test_render_latency_us summary"), "{text}");
        assert!(
            text.contains("test_render_latency_us{tenant=\"a\",verb=\"fit\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("test_render_latency_us_count{tenant=\"a\",verb=\"fit\"} 2"));
        assert!(text.contains("test_render_latency_us_sum{tenant=\"a\",verb=\"fit\"} 200"));
        assert!(text.contains("# TYPE test_render_requests_total counter"));
        assert!(text.contains("test_render_requests_total{tenant=\"a\"} 3"));
        assert!(text.contains("# TYPE test_render_epoch gauge"));
        assert!(text.contains("test_render_epoch 4"));

        for line in snapshot_jsonl().lines() {
            let doc = crate::json::parse(line).expect("snapshot line parses");
            assert!(doc.get("metric").is_some(), "{line}");
            assert!(doc.get("kind").is_some(), "{line}");
        }
        reset_metrics();
    }

    #[test]
    fn kind_mismatch_returns_detached_cells_not_panics() {
        let _guard = registry_guard();
        reset_metrics();
        let h = histogram("test_mismatch", "");
        h.record(5);
        let c = counter("test_mismatch", "");
        c.fetch_add(99, Ordering::Relaxed);
        // The registered series is still the histogram, untouched.
        assert_eq!(histogram("test_mismatch", "").count(), 1);
        assert_eq!(series_count(), 1);
        reset_metrics();
    }
}
