//! Unified resource governor for anytime synthesis.
//!
//! Guardrail's pipeline (PC → MEC enumeration → sketch filling) is
//! super-exponential in the worst case. Instead of three unrelated ad-hoc
//! caps scattered across crates, every unbounded loop charges a single
//! [`Budget`]: a wall-clock deadline (monotonic clock) and a work-unit cap.
//!
//! Exhaustion is **not an error**. A stage that runs out of budget stops at
//! a consistent point and reports [`StageStatus::Degraded`]; callers keep
//! the best result found so far. End-to-end entry points aggregate statuses
//! into a [`DegradationReport`] so downstream consumers (CLI, bench
//! binaries) can tell a complete run from a truncated one.
//!
//! # Charging discipline
//!
//! `charge(units)` both counts work and checks the deadline, so its cost is
//! one `Instant::now()` call. Hot loops amortise this by charging in batches
//! (e.g. one charge per 4096 rows, per CI test, or per enumerated DAG) —
//! see `Budget::charge` docs. `check()` ticks the deadline and a saturated
//! cap without consuming work units; recursive searches call it on interior
//! nodes so a deadline can interrupt the search between results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;

pub use parallel::{parallel_chunks, parallel_map, Memo, MemoStats, Parallelism};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budget stopped a stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The work-unit cap was consumed.
    WorkCapReached,
    /// Not a budget cut: MEC enumeration ran to completion and found no DAG,
    /// because the learned PDAG has no consistent extension.
    NotExtendable,
}

impl fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustionReason::DeadlineExpired => write!(f, "deadline expired"),
            ExhaustionReason::WorkCapReached => write!(f, "work cap reached"),
            ExhaustionReason::NotExtendable => write!(f, "PDAG has no consistent extension"),
        }
    }
}

/// Returned by [`Budget::charge`] / [`Budget::check`] when the budget is
/// spent. Carries the work accounted to the budget that tripped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exhausted {
    /// What limit tripped.
    pub reason: ExhaustionReason,
    /// Work units recorded on the tripping budget at that moment.
    pub work_done: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "budget exhausted ({}) after {} work units", self.reason, self.work_done)
    }
}

impl std::error::Error for Exhausted {}

struct BudgetInner {
    /// Absolute deadline on the monotonic clock, if any.
    deadline: Option<Instant>,
    /// Maximum work units chargeable to this budget, if any.
    work_cap: Option<u64>,
    work_done: AtomicU64,
    /// Stage budgets chain to their parent: charging a child also charges
    /// every ancestor, so a stage cap can never exceed the global budget.
    parent: Option<Arc<BudgetInner>>,
}

impl BudgetInner {
    fn try_consume(&self, units: u64, now: &mut Option<Instant>) -> Result<(), Exhausted> {
        if let Some(deadline) = self.deadline {
            let t = *now.get_or_insert_with(Instant::now);
            if t >= deadline {
                return Err(self.exhausted(ExhaustionReason::DeadlineExpired));
            }
        }
        if units > 0 {
            let done = self.work_done.fetch_add(units, Ordering::Relaxed) + units;
            if let Some(cap) = self.work_cap {
                if done > cap {
                    // Leave the counter past the cap: concurrent chargers all
                    // observe exhaustion, and `work_done` reports real work.
                    return Err(self.exhausted(ExhaustionReason::WorkCapReached));
                }
            }
        } else if let Some(cap) = self.work_cap {
            // A pure check (`charge(0)`) trips on a saturated cap: no further
            // work can be charged, so loops should stop expanding now.
            if self.work_done.load(Ordering::Relaxed) >= cap {
                return Err(self.exhausted(ExhaustionReason::WorkCapReached));
            }
        }
        Ok(())
    }

    fn exhausted(&self, reason: ExhaustionReason) -> Exhausted {
        Exhausted { reason, work_done: self.work_done.load(Ordering::Relaxed) }
    }
}

/// An anytime computation budget: an optional wall-clock deadline and an
/// optional work-unit cap.
///
/// `Budget` is cheap to clone (clones share state) and safe to share across
/// threads. Stage-scoped sub-limits are expressed as [child](Budget::child)
/// budgets: a child has its own work cap but charges its ancestors too, and
/// inherits the tightest deadline, so no stage can outlive the budget that
/// contains it.
#[derive(Clone)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("deadline", &self.inner.deadline)
            .field("work_cap", &self.inner.work_cap)
            .field("work_done", &self.work_done())
            .finish()
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    fn build(deadline: Option<Instant>, work_cap: Option<u64>) -> Self {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline,
                work_cap,
                work_done: AtomicU64::new(0),
                parent: None,
            }),
        }
    }

    /// No deadline, no work cap: every charge succeeds.
    pub fn unlimited() -> Self {
        Budget::build(None, None)
    }

    /// Budget that expires `timeout` from now (monotonic clock).
    ///
    /// Timeouts are saturating: a `Duration::ZERO` (or otherwise already
    /// expired) deadline trips the very next `charge`/`check` with a typed
    /// [`Exhausted`], and an absurdly large timeout (e.g. `Duration::MAX`
    /// from unvalidated client input) is clamped to [`MAX_TIMEOUT`] instead
    /// of overflowing `Instant` arithmetic into *no deadline at all* — a
    /// client must never be able to request an unbounded run by accident.
    pub fn with_deadline(timeout: Duration) -> Self {
        Budget::build(Some(deadline_after(timeout)), None)
    }

    /// Budget capped at `cap` work units, with no deadline. Deterministic —
    /// useful for reproducible degradation in tests.
    pub fn with_work_cap(cap: u64) -> Self {
        Budget::build(None, Some(cap))
    }

    /// Budget with both a deadline and a work cap. The deadline saturates
    /// exactly as in [`Budget::with_deadline`].
    pub fn with_deadline_and_work_cap(timeout: Duration, cap: u64) -> Self {
        Budget::build(Some(deadline_after(timeout)), Some(cap))
    }

    /// A stage-scoped child: its own `work_cap` (None = uncapped locally),
    /// chained to `self` so the child's work also charges this budget and
    /// this budget's deadline still applies.
    pub fn child(&self, work_cap: Option<u64>) -> Budget {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline: None, // parent's deadline is checked via the chain
                work_cap,
                work_done: AtomicU64::new(0),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Records `units` of work and checks both limits (cap, deadline) on
    /// this budget and its ancestors.
    ///
    /// Cost is one `Instant::now()` when any budget in the chain has a
    /// deadline; hot loops should charge in batches (rows per chunk, one
    /// unit per CI test / DAG) rather than per element.
    pub fn charge(&self, units: u64) -> Result<(), Exhausted> {
        // Resolve the clock at most once even across the ancestor chain.
        let mut now = None;
        let mut cur: Option<&BudgetInner> = Some(&self.inner);
        while let Some(inner) = cur {
            inner.try_consume(units, &mut now)?;
            cur = inner.parent.as_deref();
        }
        Ok(())
    }

    /// Checks the deadline and cap without consuming work units.
    /// Recursive searches call this on interior nodes.
    pub fn check(&self) -> Result<(), Exhausted> {
        self.charge(0)
    }

    /// Work units charged to this budget so far (including its children's).
    pub fn work_done(&self) -> u64 {
        self.inner.work_done.load(Ordering::Relaxed)
    }

    /// Time left until the tightest deadline in this budget's ancestor
    /// chain: `None` when no deadline exists anywhere, `Some(ZERO)` once a
    /// deadline has passed (saturating — never underflows). Servers use
    /// this to size `RETRY_AFTER` hints and to refuse work whose deadline
    /// already expired without running it.
    pub fn remaining(&self) -> Option<Duration> {
        let mut tightest: Option<Instant> = None;
        let mut cur: Option<&BudgetInner> = Some(&self.inner);
        while let Some(inner) = cur {
            if let Some(d) = inner.deadline {
                tightest = Some(tightest.map_or(d, |t| t.min(d)));
            }
            cur = inner.parent.as_deref();
        }
        tightest.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether this budget (or an ancestor) can never trip: no deadline and
    /// no cap. Lets callers skip degraded-path bookkeeping entirely on the
    /// default configuration.
    pub fn is_unlimited(&self) -> bool {
        let mut cur: Option<&BudgetInner> = Some(&self.inner);
        while let Some(inner) = cur {
            if inner.deadline.is_some() || inner.work_cap.is_some() {
                return false;
            }
            cur = inner.parent.as_deref();
        }
        true
    }
}

/// Largest timeout [`Budget::with_deadline`] accepts before clamping
/// (~100 years): far beyond any real run, small enough that
/// `Instant + timeout` can never overflow into "no deadline".
pub const MAX_TIMEOUT: Duration = Duration::from_secs(100 * 365 * 24 * 60 * 60);

/// Absolute deadline `timeout` from now, saturating at [`MAX_TIMEOUT`].
///
/// `Instant::checked_add` returns `None` on overflow; mapping that `None`
/// to "no deadline" (as a naive implementation would) turns the *largest*
/// requested timeout into the *loosest* possible budget. Clamping first
/// keeps the monotonicity a deadline must have: more timeout never means
/// less enforcement.
fn deadline_after(timeout: Duration) -> Instant {
    let now = Instant::now();
    now.checked_add(timeout.min(MAX_TIMEOUT))
        // Unreachable on real platforms (Instant has centuries of headroom);
        // an immediate deadline is the fail-safe direction if it ever isn't.
        .unwrap_or(now)
}

/// How a pipeline stage ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageStatus {
    /// The stage ran to completion; its result is exact.
    Complete,
    /// The stage ran out of budget (or, for MEC enumeration, found no DAG:
    /// [`ExhaustionReason::NotExtendable`]) and returned its best partial
    /// result.
    Degraded(Degradation),
}

impl StageStatus {
    /// Builds a `Degraded` status for `stage` from a budget error. Every
    /// degradation counts into
    /// `guardrail_governor_degradations_total{stage="<stage>"}`, so the
    /// metrics registry and an armed recorder both see budget cuts, the
    /// latter inline with the stage spans.
    pub fn degraded(stage: &'static str, err: Exhausted) -> Self {
        if guardrail_obs::metrics::counting() {
            let labels = format!("stage=\"{stage}\"");
            guardrail_obs::metrics::add("guardrail_governor_degradations_total", &labels, 1);
        }
        StageStatus::Degraded(Degradation { stage, reason: err.reason, work_done: err.work_done })
    }

    /// True for [`StageStatus::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, StageStatus::Complete)
    }
}

/// One degraded stage: where, why, and how much work was done first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Degradation {
    /// Pipeline stage name, e.g. `"pc"`, `"mec_enumeration"`, `"fill"`.
    pub stage: &'static str,
    /// What limit tripped.
    pub reason: ExhaustionReason,
    /// Work units the stage completed before stopping.
    pub work_done: u64,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} after {} work units", self.stage, self.reason, self.work_done)
    }
}

/// Aggregate degradation across an end-to-end run. Empty means every stage
/// completed; results are exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Degraded stages in pipeline order. Empty = fully complete run.
    pub stages: Vec<Degradation>,
}

impl DegradationReport {
    /// A report with no degradations.
    pub fn complete() -> Self {
        Self::default()
    }

    /// Whether every stage completed.
    pub fn is_complete(&self) -> bool {
        self.stages.is_empty()
    }

    /// Folds a stage status into the report.
    pub fn record(&mut self, status: StageStatus) {
        if let StageStatus::Degraded(d) = status {
            self.stages.push(d);
        }
    }

    /// Appends another report's degradations.
    pub fn merge(&mut self, other: DegradationReport) {
        self.stages.extend(other.stages);
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stages.is_empty() {
            return write!(f, "complete (no degradation)");
        }
        write!(f, "degraded: ")?;
        for (i, d) in self.stages.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10_000 {
            b.charge(1_000_000).unwrap();
        }
        b.check().unwrap();
    }

    #[test]
    fn work_cap_trips_at_boundary() {
        let b = Budget::with_work_cap(10);
        assert!(!b.is_unlimited());
        b.charge(10).unwrap(); // exactly at cap is fine
        let err = b.charge(1).unwrap_err();
        assert_eq!(err.reason, ExhaustionReason::WorkCapReached);
        assert!(err.work_done >= 10);
        // A saturated cap also trips pure checks: nothing more can run.
        assert_eq!(b.check().unwrap_err().reason, ExhaustionReason::WorkCapReached);
        // An unsaturated cap does not.
        let fresh = Budget::with_work_cap(10);
        fresh.charge(9).unwrap();
        fresh.check().unwrap();
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let b = Budget::with_deadline(Duration::from_millis(5));
        b.check().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let err = b.check().unwrap_err();
        assert_eq!(err.reason, ExhaustionReason::DeadlineExpired);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert_eq!(b.check().unwrap_err().reason, ExhaustionReason::DeadlineExpired);
        // Work is refused too, not just pure checks.
        assert_eq!(b.charge(1).unwrap_err().reason, ExhaustionReason::DeadlineExpired);
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn huge_deadline_saturates_instead_of_disabling_enforcement() {
        // A client-supplied Duration::MAX must clamp to a real (far-future)
        // deadline, not overflow Instant arithmetic into "unlimited".
        for timeout in [Duration::MAX, MAX_TIMEOUT, MAX_TIMEOUT.saturating_add(Duration::MAX)] {
            let b = Budget::with_deadline(timeout);
            assert!(!b.is_unlimited(), "{timeout:?} must keep a deadline");
            b.check().unwrap(); // ...but obviously not trip now
            let rem = b.remaining().expect("deadline exists");
            assert!(rem > Duration::ZERO && rem <= MAX_TIMEOUT);
        }
        let capped = Budget::with_deadline_and_work_cap(Duration::MAX, 5);
        assert!(!capped.is_unlimited());
        capped.charge(5).unwrap();
        assert_eq!(capped.charge(1).unwrap_err().reason, ExhaustionReason::WorkCapReached);
    }

    #[test]
    fn remaining_reports_tightest_deadline_in_chain() {
        assert_eq!(Budget::unlimited().remaining(), None);
        let parent = Budget::with_deadline(Duration::from_secs(3600));
        let child = parent.child(Some(10));
        let rem = child.remaining().expect("inherits parent deadline");
        assert!(rem <= Duration::from_secs(3600) && rem > Duration::from_secs(3500));
        // An expired budget saturates to zero rather than underflowing.
        let expired = Budget::with_deadline(Duration::ZERO);
        assert_eq!(expired.child(None).remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn child_charges_propagate_to_parent() {
        let parent = Budget::with_work_cap(100);
        let child = parent.child(Some(1_000)); // local cap looser than parent
        child.charge(60).unwrap();
        assert_eq!(parent.work_done(), 60);
        // Parent's cap trips even though the child's own cap has room.
        let err = child.charge(60).unwrap_err();
        assert_eq!(err.reason, ExhaustionReason::WorkCapReached);
    }

    #[test]
    fn child_cap_is_local() {
        let parent = Budget::unlimited();
        let a = parent.child(Some(5));
        let b = parent.child(Some(5));
        a.charge(5).unwrap();
        assert_eq!(a.charge(1).unwrap_err().reason, ExhaustionReason::WorkCapReached);
        // Sibling has its own cap; parent is uncapped. The rejected charge
        // stopped at the tripping child, so the parent never saw it.
        b.charge(5).unwrap();
        assert_eq!(parent.work_done(), 10);
    }

    #[test]
    fn unlimited_child_of_unlimited_is_unlimited() {
        let parent = Budget::unlimited();
        assert!(parent.child(None).is_unlimited());
        assert!(!parent.child(Some(3)).is_unlimited());
        let capped = Budget::with_work_cap(1);
        assert!(!capped.child(None).is_unlimited());
    }

    #[test]
    fn concurrent_charging_is_safe_and_cap_respected() {
        let b = Budget::with_work_cap(10_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    let mut ok = 0u64;
                    while b.charge(1).is_ok() {
                        ok += 1;
                    }
                    ok
                });
            }
        });
        // All 8 workers stopped; total successful work is at most the cap.
        assert!(b.work_done() >= 10_000);
    }

    #[test]
    fn report_formatting_and_merge() {
        let mut report = DegradationReport::complete();
        assert!(report.is_complete());
        assert_eq!(report.to_string(), "complete (no degradation)");
        report.record(StageStatus::Complete);
        assert!(report.is_complete());
        report.record(StageStatus::degraded(
            "mec_enumeration",
            Exhausted { reason: ExhaustionReason::WorkCapReached, work_done: 4096 },
        ));
        let mut other = DegradationReport::complete();
        other.record(StageStatus::degraded(
            "fill",
            Exhausted { reason: ExhaustionReason::DeadlineExpired, work_done: 123 },
        ));
        report.merge(other);
        assert!(!report.is_complete());
        assert_eq!(report.stages.len(), 2);
        let s = report.to_string();
        assert!(s.contains("mec_enumeration: work cap reached after 4096 work units"), "{s}");
        assert!(s.contains("fill: deadline expired after 123 work units"), "{s}");
    }
}
