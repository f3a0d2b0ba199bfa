//! The store registry: persistent [`TableStore`]s keyed by
//! `(tenant, table)`, with a cached [`IncrementalDetector`] per store.
//!
//! The engine registry hot-swaps immutable fitted programs; stores are the
//! opposite — long-lived mutable state (segment + WAL on disk, appended to
//! by the `append` verb). Each key therefore gets its own `Mutex`-guarded
//! slot: appends and incremental detects on one `(tenant, table)` are
//! serialized (the WAL demands a single writer), while different keys
//! proceed in parallel. The outer map lock is held only for the lookup.
//!
//! The cached detector is versioned by the engine version it was built
//! from: a hot-swapped `fit` invalidates it lazily — the next
//! `detect_batch` rebuilds against the new program (one full scan), and
//! every call after that is O(appended batch) again.

use guardrail_core::Guardrail;
use guardrail_dsl::{
    DriftConfig, DriftMonitor, IncrementalDetector, IncrementalScan, StalenessAlert,
};
use guardrail_governor::{Budget, Exhausted};
use guardrail_table::{Table, TableError, TableStore};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Cap on retained per-slot drift alerts: `status` reports the most
/// recent ones, not an unbounded history.
const MAX_RETAINED_ALERTS: usize = 64;

/// One incremental pass over a store.
#[derive(Debug)]
pub struct AppendPass {
    /// Whether this pass built the detector (a cold slot or an engine
    /// hot-swap). Its seeding scan covered every row already stored, so all
    /// of the detector's violations are new to the caller.
    pub seeded: bool,
    /// Rows the detector had seen before the pass (for slicing out the new
    /// violations).
    pub seen_before: usize,
    /// The scan itself.
    pub scan: IncrementalScan,
    /// Drift alerts the appended batch tripped.
    pub alerts: Vec<StalenessAlert>,
}

/// Outcome of one incremental pass, or the budget error that refused it.
pub type AppendOutcome = Result<AppendPass, Exhausted>;

/// One registered store plus its lazily built incremental detector and
/// the drift monitor tracking violation-rate shift per statement.
#[derive(Debug)]
pub struct StoreSlot {
    /// The persistent store (segment + WAL under the server's store root).
    pub store: TableStore,
    /// Incremental detector built against `detector_version`'s program.
    detector: Option<IncrementalDetector>,
    /// Engine version the cached detector was compiled from.
    detector_version: u64,
    /// EWMA drift tracker seeded from the detector's fit-time baseline;
    /// rebuilt alongside the detector on engine hot-swap.
    drift: Option<DriftMonitor>,
    /// Most recent alerts (bounded ring, newest last) for `status`.
    alerts: Vec<StalenessAlert>,
}

impl StoreSlot {
    /// Runs one incremental pass over rows appended since the previous
    /// pass, rebuilding the cached detector (one full scan + index build)
    /// when it is cold or was built against a different engine version.
    /// The appended batch is also folded into the slot's [`DriftMonitor`];
    /// any [`StalenessAlert`]s it trips ride back with the scan.
    ///
    /// `None` when no statement of the guard's program binds to the
    /// store's schema, the empty program included; otherwise the pass, which says whether it seeded the detector. Only
    /// the rows the pass appended feed the drift monitor, never the seeded
    /// base.
    pub fn detect_appended(
        &mut self,
        guard: &Guardrail,
        engine_version: u64,
        budget: &Budget,
    ) -> Option<AppendOutcome> {
        let seeded = self.detector.is_none() || self.detector_version != engine_version;
        if seeded {
            self.detector = guard.incremental(self.store.table());
            self.detector_version = engine_version;
            self.drift = self
                .detector
                .as_ref()
                .and_then(|d| DriftMonitor::from_compiled(d.compiled(), DriftConfig::default()));
        }
        let det = self.detector.as_mut()?;
        let seen_before = det.rows_seen();
        let result = det.detect_appended(self.store.table(), budget);
        Some(result.map(|scan| {
            let mut alerts = Vec::new();
            if let Some(drift) = self.drift.as_mut() {
                let appended = seen_before..det.rows_seen();
                let counts = drift.batch_counts(det.violations_in(appended.clone()));
                alerts = drift.observe_batch(&counts, appended.len());
                self.alerts.extend(alerts.iter().cloned());
                if self.alerts.len() > MAX_RETAINED_ALERTS {
                    let excess = self.alerts.len() - MAX_RETAINED_ALERTS;
                    self.alerts.drain(..excess);
                }
            }
            AppendPass { seeded, seen_before, scan, alerts }
        }))
    }

    /// The cached detector, if one is built (read-only view for slicing
    /// cumulative violations after [`detect_appended`](Self::detect_appended)).
    pub fn detector(&self) -> Option<&IncrementalDetector> {
        self.detector.as_ref()
    }

    /// The slot's drift monitor, if a detector (and a recorded baseline)
    /// exists.
    pub fn drift(&self) -> Option<&DriftMonitor> {
        self.drift.as_ref()
    }

    /// Most recent retained drift alerts, oldest first (bounded at
    /// `MAX_RETAINED_ALERTS`).
    pub fn drift_alerts(&self) -> &[StalenessAlert] {
        &self.alerts
    }
}

/// One row of the store registry's `status` snapshot.
#[derive(Debug, Clone)]
pub struct StoreStatus {
    /// Tenant key.
    pub tenant: String,
    /// Table key.
    pub table: String,
    /// Live row count (base segment + appended batches).
    pub rows: usize,
    /// Appended WAL batches.
    pub wal_batches: usize,
    /// Batches the drift monitor has folded in.
    pub drift_batches: u64,
    /// Total drift alerts emitted for this store.
    pub drift_alerts_total: u64,
    /// The most recent drift alert, if any.
    pub last_alert: Option<StalenessAlert>,
}

/// Registered slots, keyed by `(tenant, table)`.
type SlotMap = HashMap<(String, String), Arc<Mutex<StoreSlot>>>;

/// The registry. Cheap to share (`Arc`); all methods take `&self`.
#[derive(Debug)]
pub struct StoreRegistry {
    root: PathBuf,
    slots: RwLock<SlotMap>,
}

impl StoreRegistry {
    /// A registry rooted at `root`; stores live at `root/tenant/table/`.
    pub fn new(root: impl Into<PathBuf>) -> Arc<Self> {
        Arc::new(Self { root: root.into(), slots: RwLock::new(HashMap::new()) })
    }

    /// On-disk directory for a key. Safe to join blindly: tenant and table
    /// names are validated to `[A-Za-z0-9_.-]` at the protocol boundary.
    pub fn dir(&self, tenant: &str, table: &str) -> PathBuf {
        self.root.join(tenant).join(table)
    }

    /// The slot for `(tenant, table)` if it is registered in memory or
    /// already exists on disk (opened lazily, WAL replayed).
    pub fn open(
        &self,
        tenant: &str,
        table: &str,
    ) -> Result<Option<Arc<Mutex<StoreSlot>>>, TableError> {
        if let Some(slot) = self.lookup(tenant, table) {
            return Ok(Some(slot));
        }
        let dir = self.dir(tenant, table);
        if !TableStore::exists(&dir) {
            return Ok(None);
        }
        let store = TableStore::open(&dir)?;
        Ok(Some(self.insert(tenant, table, store)))
    }

    /// The slot for `(tenant, table)`, creating the on-disk store with
    /// `base` as its segment when none exists yet. Returns `(slot,
    /// created)`.
    pub fn open_or_create(
        &self,
        tenant: &str,
        table: &str,
        base: &Table,
    ) -> Result<(Arc<Mutex<StoreSlot>>, bool), TableError> {
        if let Some(slot) = self.open(tenant, table)? {
            return Ok((slot, false));
        }
        let dir = self.dir(tenant, table);
        std::fs::create_dir_all(dir.parent().unwrap_or(Path::new(".")))?;
        let store = TableStore::create(&dir, base.clone())?;
        Ok((self.insert(tenant, table, store), true))
    }

    /// Per-store health for every registered store, sorted by
    /// `(tenant, table)` for stable `status` output.
    pub fn snapshot(&self) -> Vec<StoreStatus> {
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<_> = slots
            .iter()
            .map(|((tenant, table), slot)| {
                let slot = slot.lock().unwrap_or_else(|e| e.into_inner());
                StoreStatus {
                    tenant: tenant.clone(),
                    table: table.clone(),
                    rows: slot.store.table().num_rows(),
                    wal_batches: slot.store.wal_batches().len(),
                    drift_batches: slot.drift.as_ref().map_or(0, |d| d.batches_seen()),
                    drift_alerts_total: slot.drift.as_ref().map_or(0, |d| d.alerts_total()),
                    last_alert: slot.alerts.last().cloned(),
                }
            })
            .collect();
        out.sort_by(|a, b| (&a.tenant, &a.table).cmp(&(&b.tenant, &b.table)));
        out
    }

    fn lookup(&self, tenant: &str, table: &str) -> Option<Arc<Mutex<StoreSlot>>> {
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        slots.get(&(tenant.to_string(), table.to_string())).cloned()
    }

    fn insert(&self, tenant: &str, table: &str, store: TableStore) -> Arc<Mutex<StoreSlot>> {
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        slots
            .entry((tenant.to_string(), table.to_string()))
            .or_insert_with(|| {
                Arc::new(Mutex::new(StoreSlot {
                    store,
                    detector: None,
                    detector_version: 0,
                    drift: None,
                    alerts: Vec::new(),
                }))
            })
            .clone()
    }
}

/// Locks a slot, recovering from a poisoned mutex (a panicking handler
/// must not wedge the store for every later request — the store's on-disk
/// state is consistent at every WAL record boundary by construction).
pub fn lock_slot(slot: &Arc<Mutex<StoreSlot>>) -> MutexGuard<'_, StoreSlot> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Table {
        Table::from_csv_str("zip,city\nwest,Berkeley\nnorth,Portland\n").unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("guardrail-stores-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_append_and_lazy_reopen() {
        let root = tmp("reopen");
        {
            let reg = StoreRegistry::new(&root);
            assert!(reg.open("t", "tbl").unwrap().is_none(), "nothing registered yet");
            let (slot, created) = reg.open_or_create("t", "tbl", &base()).unwrap();
            assert!(created);
            let mut slot = lock_slot(&slot);
            slot.store.append_table(&base()).unwrap();
            assert_eq!(slot.store.table().num_rows(), 4);
        }
        // A fresh registry (server restart) finds the store on disk.
        let reg = StoreRegistry::new(&root);
        let slot = reg.open("t", "tbl").unwrap().expect("store exists on disk");
        assert_eq!(lock_slot(&slot).store.table().num_rows(), 4);
        let (_, created) = reg.open_or_create("t", "tbl", &base()).unwrap();
        assert!(!created, "existing store is opened, not clobbered");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn incremental_pass_probes_only_appends_and_tracks_engine_versions() {
        use guardrail_dsl::parse_program;
        let root = tmp("detector");
        let reg = StoreRegistry::new(&root);
        let (slot, _) = reg.open_or_create("t", "tbl", &base()).unwrap();
        let mut slot = lock_slot(&slot);
        let g1 = Guardrail::from_program(
            parse_program(r#"GIVEN zip ON city HAVING IF zip = "west" THEN city <- "Berkeley";"#)
                .unwrap(),
        );
        let budget = Budget::unlimited();
        // First pass seeds the detector (full scan: nothing appended yet).
        let pass = slot.detect_appended(&g1, 1, &budget).unwrap().unwrap();
        assert_eq!((pass.seeded, pass.seen_before, pass.scan.rows_scanned), (true, 2, 0));
        assert!(slot.drift().is_some(), "detector seeds the drift monitor");
        // An appended dirty row is probed alone on the next pass.
        let dirty = Table::from_csv_str("zip,city\nwest,Oops\n").unwrap();
        slot.store.append_table(&dirty).unwrap();
        let pass = slot.detect_appended(&g1, 1, &budget).unwrap().unwrap();
        assert!(!pass.seeded);
        assert_eq!((pass.seen_before, pass.scan.rows_scanned, pass.scan.new_violations), (2, 1, 1));
        assert_eq!(slot.detector().unwrap().violations().len(), 1);
        // A hot-swapped engine version rebuilds the detector from scratch.
        let g2 = Guardrail::from_program(
            parse_program(r#"GIVEN zip ON city HAVING IF zip = "north" THEN city <- "Portland";"#)
                .unwrap(),
        );
        let pass = slot.detect_appended(&g2, 2, &budget).unwrap().unwrap();
        assert!(pass.seeded, "a hot-swap reseeds");
        assert_eq!(
            (pass.seen_before, pass.scan.rows_scanned),
            (3, 0),
            "rebuild already saw all rows"
        );
        assert_eq!(slot.detector().unwrap().violations().len(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sustained_dirty_appends_trip_drift_alerts() {
        use guardrail_dsl::parse_program;
        let root = tmp("drift");
        let reg = StoreRegistry::new(&root);
        // A clean 40-row base so the fit-time baseline is 0.
        let mut csv = String::from("zip,city\n");
        for _ in 0..20 {
            csv.push_str("west,Berkeley\nnorth,Portland\n");
        }
        let base = Table::from_csv_str(&csv).unwrap();
        let (slot, _) = reg.open_or_create("t", "tbl", &base).unwrap();
        let mut slot = lock_slot(&slot);
        let g = Guardrail::from_program(
            parse_program(r#"GIVEN zip ON city HAVING IF zip = "west" THEN city <- "Berkeley";"#)
                .unwrap(),
        );
        let budget = Budget::unlimited();
        slot.detect_appended(&g, 1, &budget).unwrap().unwrap();
        // Sustained 50%-dirty batches must eventually alert.
        let mut alerted = false;
        for _ in 0..10 {
            let batch = Table::from_csv_str(
                "zip,city\nwest,Oops\nwest,Oops\nwest,Berkeley\nwest,Berkeley\n",
            )
            .unwrap();
            slot.store.append_table(&batch).unwrap();
            let pass = slot.detect_appended(&g, 1, &budget).unwrap().unwrap();
            alerted |= !pass.alerts.is_empty();
        }
        assert!(alerted, "sustained 50% violation rate over a clean baseline must alert");
        assert!(!slot.drift_alerts().is_empty());
        assert!(slot.drift().unwrap().alerts_total() > 0);
        // Release the slot before snapshotting — snapshot() locks every slot.
        drop(slot);
        let snap = reg.snapshot();
        assert!(snap[0].drift_alerts_total > 0);
        assert!(snap[0].last_alert.is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_lists_registered_stores() {
        let root = tmp("snapshot");
        let reg = StoreRegistry::new(&root);
        reg.open_or_create("t", "b", &base()).unwrap();
        reg.open_or_create("t", "a", &base()).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].table, "a");
        assert_eq!(snap[1].table, "b");
        let _ = std::fs::remove_dir_all(&root);
    }
}
