//! The engine registry: versioned, hot-swappable fitted guardrails keyed
//! by `(tenant, table)`.
//!
//! Serving reads take an `Arc` snapshot of the current version under a
//! short read lock and then run entirely lock-free: a concurrent `fit`
//! publishing version *n+1* never stalls or torments requests already
//! executing against version *n* — they finish on the snapshot they
//! started with (atomic hot-swap).
//!
//! Publication is all-or-nothing. A fit that errors, or that degrades all
//! the way to an *empty* program while a non-empty predecessor exists,
//! does not publish: the previous version simply stays current (rollback
//! on a failed fit), and the failure is counted so `status` can surface
//! flapping re-synthesis. The immediately preceding version is retained
//! per key, so operators can also inspect what a hot-swap replaced.

use guardrail_core::Guardrail;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One published engine version.
#[derive(Debug)]
pub struct EngineVersion {
    /// Monotonic per-(tenant, table) version, starting at 1.
    pub version: u64,
    /// The fitted guardrail (program + diagnostics).
    pub guard: Guardrail,
    /// Rows in the training payload.
    pub trained_rows: usize,
    /// The program in DSL text form (what `fit` returns to the client).
    pub constraints: String,
    /// Requests that ran this version with some of its statements unbound
    /// to the request's columns.
    pub requests_with_unbound: AtomicU64,
}

#[derive(Debug, Default)]
struct Slot {
    current: Option<Arc<EngineVersion>>,
    previous: Option<Arc<EngineVersion>>,
    next_version: u64,
    failed_fits: u64,
}

/// Row in a [`EngineRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Tenant key.
    pub tenant: String,
    /// Table key.
    pub table: String,
    /// Current published version (0 = none yet).
    pub version: u64,
    /// Statements in the current program.
    pub statements: usize,
    /// Fits that failed (and were rolled back) since the slot appeared.
    pub failed_fits: u64,
    /// Requests that ran the current version with some statements unbound.
    pub requests_with_unbound: u64,
}

/// The registry. Cheap to share (`Arc`); all methods take `&self`.
#[derive(Debug, Default)]
pub struct EngineRegistry {
    slots: RwLock<HashMap<(String, String), Slot>>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of the current version for `(tenant, table)`, if any.
    /// Lock held only for the map lookup; the returned `Arc` stays valid
    /// across any number of concurrent hot-swaps.
    pub fn current(&self, tenant: &str, table: &str) -> Option<Arc<EngineVersion>> {
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        slots.get(&(tenant.to_string(), table.to_string()))?.current.clone()
    }

    /// Atomically publishes a freshly fitted guardrail as the new current
    /// version, demoting the old current to `previous`. Returns the new
    /// version number.
    pub fn publish(&self, tenant: &str, table: &str, guard: Guardrail, trained_rows: usize) -> u64 {
        let constraints = guard.program().to_string();
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        let slot = slots.entry((tenant.to_string(), table.to_string())).or_default();
        slot.next_version += 1;
        let version = slot.next_version;
        let fresh = Arc::new(EngineVersion {
            version,
            guard,
            trained_rows,
            constraints,
            requests_with_unbound: AtomicU64::new(0),
        });
        slot.previous = slot.current.replace(fresh);
        version
    }

    /// Records a failed fit for the slot (the current version, if any,
    /// stays published — that *is* the rollback). Returns the retained
    /// current version number (0 when the slot never had one).
    pub fn record_failed_fit(&self, tenant: &str, table: &str) -> u64 {
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        let slot = slots.entry((tenant.to_string(), table.to_string())).or_default();
        slot.failed_fits += 1;
        slot.current.as_ref().map(|v| v.version).unwrap_or(0)
    }

    /// The version a hot-swap most recently replaced, if retained.
    pub fn previous(&self, tenant: &str, table: &str) -> Option<Arc<EngineVersion>> {
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        slots.get(&(tenant.to_string(), table.to_string()))?.previous.clone()
    }

    /// All slots, sorted by (tenant, table) for stable `status` output.
    pub fn snapshot(&self) -> Vec<EngineSnapshot> {
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<EngineSnapshot> = slots
            .iter()
            .map(|((tenant, table), slot)| EngineSnapshot {
                tenant: tenant.clone(),
                table: table.clone(),
                version: slot.current.as_ref().map(|v| v.version).unwrap_or(0),
                statements: slot
                    .current
                    .as_ref()
                    .map(|v| v.guard.program().statements.len())
                    .unwrap_or(0),
                failed_fits: slot.failed_fits,
                requests_with_unbound: slot
                    .current
                    .as_ref()
                    .map_or(0, |v| v.requests_with_unbound.load(Ordering::Relaxed)),
            })
            .collect();
        out.sort_by(|a, b| (&a.tenant, &a.table).cmp(&(&b.tenant, &b.table)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_dsl::{parse_program, Program};

    fn guard(text: &str) -> Guardrail {
        Guardrail::from_program(parse_program(text).unwrap())
    }

    const P1: &str = r#"GIVEN a ON b HAVING IF a = "1" THEN b <- "x";"#;
    const P2: &str = r#"GIVEN a ON b HAVING IF a = "2" THEN b <- "y";"#;

    #[test]
    fn publish_hot_swaps_and_retains_previous() {
        let reg = EngineRegistry::new();
        assert!(reg.current("t", "tbl").is_none());
        assert_eq!(reg.publish("t", "tbl", guard(P1), 10), 1);
        // A request holding v1 keeps it across the v2 swap.
        let held = reg.current("t", "tbl").unwrap();
        assert_eq!(reg.publish("t", "tbl", guard(P2), 20), 2);
        assert_eq!(held.version, 1);
        assert!(held.constraints.contains("\"1\""));
        let now = reg.current("t", "tbl").unwrap();
        assert_eq!(now.version, 2);
        assert_eq!(reg.previous("t", "tbl").unwrap().version, 1);
        // Tenancy is a real namespace: other keys are untouched.
        assert!(reg.current("t", "other").is_none());
        assert!(reg.current("u", "tbl").is_none());
    }

    #[test]
    fn failed_fit_rolls_back_to_retained_current() {
        let reg = EngineRegistry::new();
        assert_eq!(reg.record_failed_fit("t", "tbl"), 0, "no version to retain yet");
        reg.publish("t", "tbl", guard(P1), 10);
        assert_eq!(reg.record_failed_fit("t", "tbl"), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!((snap[0].version, snap[0].failed_fits), (1, 2));
        // The published program is still the one that succeeded.
        assert!(reg.current("t", "tbl").unwrap().constraints.contains("\"1\""));
    }

    #[test]
    fn concurrent_swap_and_read_never_observe_torn_state() {
        let reg = EngineRegistry::new();
        reg.publish("t", "tbl", guard(P1), 1);
        std::thread::scope(|s| {
            let r = &reg;
            s.spawn(move || {
                for i in 0..50 {
                    let g = if i % 2 == 0 { guard(P2) } else { guard(P1) };
                    r.publish("t", "tbl", g, i);
                }
            });
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..200 {
                        let v = r.current("t", "tbl").expect("always published");
                        // A snapshot is internally consistent: its text
                        // matches its own program, whatever version it is.
                        assert_eq!(v.constraints, v.guard.program().to_string());
                    }
                });
            }
        });
        assert_eq!(reg.current("t", "tbl").unwrap().version, 51);
    }

    #[test]
    fn empty_program_snapshot_reports_zero_statements() {
        let reg = EngineRegistry::new();
        reg.publish("t", "tbl", Guardrail::from_program(Program::empty()), 0);
        assert_eq!(reg.snapshot()[0].statements, 0);
    }
}
