//! Constraint drift monitoring: per-statement violation-rate tracking
//! over appended batches.
//!
//! A synthesized program is a snapshot of the data-generating process at
//! fit time; ROADMAP item 5 asks *when does a constraint go stale?* The
//! [`DriftMonitor`] answers it where data arrives: every appended batch
//! is reduced to per-statement violation counts (the server derives them
//! from `IncrementalDetector::violations_in` on the batch's row range),
//! folded into a windowed EWMA of the violation rate, and compared
//! against the **fit-time baseline rate** recorded in
//! [`CompiledProgram`] by `IncrementalDetector::new`'s training scan.
//!
//! # The drift statistic
//!
//! For statement `s` with baseline rate `p₀` and batch rates `rᵢ` over
//! `nᵢ` rows, the monitor keeps exponentially weighted moving averages
//! `r̂ = EWMA_α(rᵢ)` and `n̂ = EWMA_α(nᵢ)`. The EWMA of i.i.d. batch
//! rates has variance `≈ p(1−p)/n · α/(2−α)`, so the effective sample
//! size is `n_eff = n̂·(2−α)/α` and the one-sided z-score is
//!
//! ```text
//! z = (r̂ − p₀) / sqrt(p₀'(1 − p₀') / n_eff)
//! ```
//!
//! with `p₀' = clamp(p₀, 1/(n_eff+2), 1 − 1/(n_eff+2))` — a Laplace
//! floor so a clean fit (`p₀ = 0`) still has finite variance and any
//! sustained violation burst drives `z` up fast. A
//! [`StalenessAlert`] is emitted for every batch where `z` exceeds the
//! configured threshold, the EWMA rate sits above baseline, and at
//! least [`DriftConfig::min_rows`] rows have been observed (so one
//! noisy micro-batch cannot trip it).
//!
//! The monitor is deliberately detection-only: re-synthesis is a policy
//! decision for the caller (the serving daemon surfaces alerts through
//! `status` and the metrics layer; a future governor hook can trigger
//! governed re-fit).

use crate::interp::{CompiledProgram, Violation};
use std::sync::Arc;

/// Tuning for [`DriftMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// EWMA smoothing factor in `(0, 1]`; higher weighs recent batches
    /// more. 1.0 degenerates to "last batch only".
    pub alpha: f64,
    /// One-sided z-score threshold above which a statement is declared
    /// drifting.
    pub z_threshold: f64,
    /// Minimum cumulative appended rows before any alert may fire.
    pub min_rows: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self { alpha: 0.3, z_threshold: 4.0, min_rows: 32 }
    }
}

/// A typed drift alert: statement `statement`'s observed violation rate
/// has shifted beyond the configured z-threshold from its fit-time
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct StalenessAlert {
    /// Statement index within the program.
    pub statement: usize,
    /// The statement's dependent attribute (what the constraint writes).
    pub attribute: Arc<str>,
    /// Fit-time violation rate.
    pub baseline_rate: f64,
    /// Current EWMA violation rate over appended batches.
    pub observed_rate: f64,
    /// The one-sided drift z-score that tripped the threshold.
    pub z_score: f64,
    /// Cumulative appended rows observed when the alert fired.
    pub rows_observed: usize,
}

#[derive(Debug, Clone)]
struct StatementTrack {
    statement: usize,
    attribute: Arc<str>,
    baseline: f64,
    ewma_rate: Option<f64>,
    ewma_rows: f64,
}

/// Windowed EWMA violation-rate tracker, one track per statement. Feed
/// it each appended batch's per-statement violation counts; it returns
/// the alerts that batch triggered.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: DriftConfig,
    tracks: Vec<StatementTrack>,
    rows_observed: usize,
    batches_seen: u64,
    alerts_total: u64,
}

impl DriftMonitor {
    /// A monitor over explicit `(statement index, baseline rate, dependent
    /// attribute)` triples, one per tracked statement, in ascending
    /// statement order.
    pub fn new(baselines: Vec<(usize, f64, Arc<str>)>, config: DriftConfig) -> Self {
        let tracks = baselines
            .into_iter()
            .map(|(statement, baseline, attribute)| StatementTrack {
                statement,
                attribute,
                baseline: baseline.clamp(0.0, 1.0),
                ewma_rate: None,
                ewma_rows: 0.0,
            })
            .collect();
        Self { config, tracks, rows_observed: 0, batches_seen: 0, alerts_total: 0 }
    }

    /// A monitor seeded from the fit-time baseline a training scan
    /// recorded into `compiled` (see
    /// [`CompiledProgram::baseline_rates`]), one track per compiled (bound)
    /// statement. `None` when no baseline has been recorded or no statement
    /// is compiled.
    pub fn from_compiled(compiled: &CompiledProgram, config: DriftConfig) -> Option<Self> {
        let rates = compiled.baseline_rates()?;
        if compiled.statement_count() == 0 {
            return None;
        }
        let baselines = compiled
            .statements()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.statement_index, rates.get(i).map_or(0.0, |&r| r), s.on_name.clone()))
            .collect();
        Some(Self::new(baselines, config))
    }

    /// Reduces a batch's violations to per-statement counts, aligned
    /// with the monitor's tracks (violations of untracked statements are
    /// ignored).
    pub fn batch_counts(&self, violations: &[Violation]) -> Vec<u64> {
        let mut counts = vec![0u64; self.tracks.len()];
        for v in violations {
            if let Ok(i) = self.tracks.binary_search_by_key(&v.statement, |t| t.statement) {
                counts[i] += 1;
            }
        }
        counts
    }

    /// Folds one appended batch into the per-statement EWMAs and
    /// returns the alerts it triggered. `violations` holds this batch's
    /// violation count per track (see
    /// [`batch_counts`](Self::batch_counts)); `batch_rows` is the
    /// batch's row count. Empty batches are ignored.
    pub fn observe_batch(&mut self, violations: &[u64], batch_rows: usize) -> Vec<StalenessAlert> {
        if batch_rows == 0 {
            return Vec::new();
        }
        self.batches_seen += 1;
        self.rows_observed += batch_rows;
        let alpha = self.config.alpha.clamp(1e-3, 1.0);
        let mut alerts = Vec::new();
        for (i, track) in self.tracks.iter_mut().enumerate() {
            let v = violations.get(i).copied().unwrap_or(0);
            let rate = (v as f64 / batch_rows as f64).min(1.0);
            let prev = track.ewma_rate.unwrap_or(rate);
            let ewma = alpha * rate + (1.0 - alpha) * prev;
            track.ewma_rate = Some(ewma);
            track.ewma_rows = alpha * batch_rows as f64 + (1.0 - alpha) * track.ewma_rows;

            let n_eff = (track.ewma_rows * (2.0 - alpha) / alpha).max(1.0);
            let floor = 1.0 / (n_eff + 2.0);
            let p0 = track.baseline.clamp(floor, 1.0 - floor);
            let z = (ewma - p0) / (p0 * (1.0 - p0) / n_eff).sqrt();
            if self.rows_observed >= self.config.min_rows
                && ewma > track.baseline
                && z >= self.config.z_threshold
            {
                alerts.push(StalenessAlert {
                    statement: track.statement,
                    attribute: track.attribute.clone(),
                    baseline_rate: track.baseline,
                    observed_rate: ewma,
                    z_score: z,
                    rows_observed: self.rows_observed,
                });
            }
        }
        self.alerts_total += alerts.len() as u64;
        alerts
    }

    /// Number of statements tracked.
    pub fn statement_count(&self) -> usize {
        self.tracks.len()
    }

    /// Batches folded in so far.
    pub fn batches_seen(&self) -> u64 {
        self.batches_seen
    }

    /// Cumulative appended rows observed.
    pub fn rows_observed(&self) -> usize {
        self.rows_observed
    }

    /// Total alerts emitted across all batches.
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total
    }

    /// Current EWMA violation rate of statement `i` (`None` before its
    /// first non-empty batch, or when `i` is not tracked).
    pub fn observed_rate(&self, i: usize) -> Option<f64> {
        self.tracks.iter().find(|t| t.statement == i).and_then(|t| t.ewma_rate)
    }

    /// Fit-time baseline rate of statement `i`.
    pub fn baseline_rate(&self, i: usize) -> Option<f64> {
        self.tracks.iter().find(|t| t.statement == i).map(|t| t.baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(baselines: &[f64]) -> DriftMonitor {
        DriftMonitor::new(
            baselines.iter().enumerate().map(|(i, &p)| (i, p, Arc::from("attr"))).collect(),
            DriftConfig::default(),
        )
    }

    #[test]
    fn clean_batches_stay_silent() {
        let mut m = monitor(&[0.0, 0.0]);
        for _ in 0..100 {
            assert!(m.observe_batch(&[0, 0], 50).is_empty());
        }
        assert_eq!(m.alerts_total(), 0);
        assert_eq!(m.batches_seen(), 100);
    }

    #[test]
    fn rates_near_a_noisy_baseline_stay_silent() {
        // Fit saw 5% violations; serving traffic at 4–6% is not drift.
        let mut m = monitor(&[0.05]);
        for i in 0..50 {
            let v = if i % 2 == 0 { 2 } else { 3 }; // 4% / 6% of 50 rows
            assert!(m.observe_batch(&[v], 50).is_empty(), "batch {i}");
        }
    }

    #[test]
    fn sustained_burst_above_clean_baseline_alerts() {
        let mut m = monitor(&[0.0, 0.0]);
        // Warm up clean, then statement 1 starts violating at 20%.
        for _ in 0..10 {
            m.observe_batch(&[0, 0], 50);
        }
        let mut alerted = Vec::new();
        for _ in 0..10 {
            alerted.extend(m.observe_batch(&[0, 10], 50));
        }
        assert!(!alerted.is_empty(), "20% sustained violations must alert");
        assert!(alerted.iter().all(|a| a.statement == 1), "only the drifting statement");
        assert!(alerted.iter().all(|a| a.z_score >= DriftConfig::default().z_threshold));
        assert!(m.alerts_total() > 0);
    }

    #[test]
    fn min_rows_suppresses_early_micro_batches() {
        let cfg = DriftConfig { min_rows: 1000, ..DriftConfig::default() };
        let mut m = DriftMonitor::new(vec![(0, 0.0, Arc::from("a"))], cfg);
        // Wildly violating, but under the row floor.
        for _ in 0..5 {
            assert!(m.observe_batch(&[10], 10).is_empty());
        }
        // Crossing the floor with the burst sustained fires.
        let mut fired = false;
        for _ in 0..100 {
            fired |= !m.observe_batch(&[10], 10).is_empty();
        }
        assert!(fired);
    }

    #[test]
    fn empty_batches_are_ignored() {
        let mut m = monitor(&[0.0]);
        assert!(m.observe_batch(&[0], 0).is_empty());
        assert_eq!(m.batches_seen(), 0);
        assert_eq!(m.rows_observed(), 0);
    }

    #[test]
    fn ewma_recovers_after_a_transient() {
        let mut m = monitor(&[0.0]);
        for _ in 0..10 {
            m.observe_batch(&[0], 100);
        }
        // One bad batch, then clean again: the EWMA decays back below
        // threshold within a few clean batches.
        m.observe_batch(&[30], 100);
        let mut last_alerting = 0;
        for i in 0..20 {
            if !m.observe_batch(&[0], 100).is_empty() {
                last_alerting = i + 1;
            }
        }
        assert!(last_alerting < 20, "clean traffic must eventually clear the alert");
        assert!(m.observed_rate(0).unwrap() < 0.01);
    }
}
