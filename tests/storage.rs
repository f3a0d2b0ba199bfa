//! Storage-layer acceptance suite: WAL crash recovery and incremental
//! detection (DESIGN.md §5).
//!
//! The properties, end to end:
//!
//! * **Torn writes** — a crash may cut the WAL at *any* byte. Reopen must
//!   recover exactly the batches whose records were complete before the
//!   cut, bit-identical (codes and dictionaries included) to a
//!   from-scratch build of the same rows, and the recovered store must
//!   remain appendable.
//! * **Duplicate batch ids** — a retried append that wrote its record
//!   twice replays once; the relation is unchanged.
//! * **Differential detection** — incremental detect
//!   over appended batches reports exactly the violations of a full
//!   `check_table` pass, in the same order, for arbitrary data.

use guardrail::dsl::IncrementalDetector;
use guardrail::governor::Budget;
use guardrail::prelude::*;
use guardrail::table::store::WAL_FILE;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per proptest case (cases run concurrently).
fn tmp(name: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("guardrail_storage_tests")
        .join(format!("{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const REGIONS: [&str; 4] = ["west", "north", "east", "south"];
const CITIES: [&str; 4] = ["Berkeley", "Portland", "Albany", "Salem"];

fn arb_cell(pool: &'static [&'static str; 4]) -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..pool.len()).prop_map(|i| Value::from(pool[i])),
        (0..pool.len()).prop_map(|i| Value::from(pool[i])),
        (0..pool.len()).prop_map(|i| Value::from(pool[i])),
        Just(Value::Null),
        (0..4i64).prop_map(Value::Int),
    ]
}

/// A (region, city) row drawn from small pools so determinant keys repeat
/// across batches, and appends keep hitting keys scanned earlier.
fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (arb_cell(&REGIONS), arb_cell(&CITIES)).prop_map(|(r, c)| vec![r, c])
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(arb_row(), 1..=max)
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Vec<Value>>>> {
    proptest::collection::vec(arb_rows(6), 0..5)
}

fn base_table(rows: &[Vec<Value>]) -> Table {
    let mut builder = TableBuilder::new(vec!["region".into(), "city".into()]);
    for row in rows {
        builder.push_row(row.clone()).unwrap();
    }
    builder.finish().unwrap()
}

/// From-scratch reference build: the same rows through `TableBuilder` in
/// one pass — the bit-identity yardstick for every recovery path.
fn reference(base: &[Vec<Value>], batches: &[Vec<Vec<Value>>]) -> Table {
    let mut rows: Vec<Vec<Value>> = base.to_vec();
    for batch in batches {
        rows.extend(batch.iter().cloned());
    }
    base_table(&rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cut the WAL at an arbitrary byte and reopen: the store recovers to
    /// the last complete batch, bit-identical to a from-scratch build, and
    /// stays appendable.
    #[test]
    fn torn_wal_recovers_to_last_complete_batch(
        base in arb_rows(8),
        batches in arb_batches(),
        cut_frac in 0.0f64..1.0,
        tail in arb_rows(3),
    ) {
        let dir = tmp("torn");
        let mut store = TableStore::create(&dir, base_table(&base)).unwrap();
        let wal_path = dir.join(WAL_FILE);
        // WAL length after each append tells us which batches survive a cut.
        let mut len_after = vec![std::fs::metadata(&wal_path).unwrap().len()];
        for batch in &batches {
            store.append_rows(batch).unwrap();
            len_after.push(std::fs::metadata(&wal_path).unwrap().len());
        }
        drop(store);

        let bytes = std::fs::read(&wal_path).unwrap();
        let cut = (cut_frac * bytes.len() as f64) as usize;
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();
        let survivors =
            len_after.iter().filter(|&&l| l <= cut as u64).count().saturating_sub(1);

        let mut reopened = TableStore::open(&dir).unwrap();
        prop_assert_eq!(reopened.recovery().batches_replayed, survivors);
        prop_assert_eq!(
            reopened.table(),
            &reference(&base, &batches[..survivors]),
            "recovered store is bit-identical to a from-scratch build"
        );
        // A cut strictly inside a record (or the header) is a torn tail.
        let on_boundary = len_after.contains(&(cut as u64));
        prop_assert_eq!(reopened.recovery().truncated_tail, !on_boundary);

        // The truncated log accepts new appends and replays them on reopen.
        reopened.append_rows(&tail).unwrap();
        let live = reopened.table().clone();
        drop(reopened);
        let again = TableStore::open(&dir).unwrap();
        prop_assert_eq!(again.table(), &live);
        prop_assert!(!again.recovery().truncated_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Duplicate a random WAL record (a retried append written twice):
    /// replay skips it and the relation is unchanged.
    #[test]
    fn duplicate_wal_records_replay_once(
        base in arb_rows(8),
        batches in proptest::collection::vec(arb_rows(6), 1..5),
        dup_sel in 0..1usize << 16,
    ) {
        let dir = tmp("dup");
        let mut store = TableStore::create(&dir, base_table(&base)).unwrap();
        let wal_path = dir.join(WAL_FILE);
        let mut len_after = vec![std::fs::metadata(&wal_path).unwrap().len()];
        for batch in &batches {
            store.append_rows(batch).unwrap();
            len_after.push(std::fs::metadata(&wal_path).unwrap().len());
        }
        drop(store);

        // Re-append the byte range of one record verbatim.
        let k = dup_sel % batches.len();
        let bytes = std::fs::read(&wal_path).unwrap();
        let record = &bytes[len_after[k] as usize..len_after[k + 1] as usize];
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(record);
        std::fs::write(&wal_path, &doubled).unwrap();

        let reopened = TableStore::open(&dir).unwrap();
        prop_assert_eq!(reopened.recovery().duplicates_skipped, 1);
        prop_assert!(!reopened.recovery().truncated_tail);
        prop_assert_eq!(reopened.table(), &reference(&base, &batches));
        prop_assert_eq!(reopened.wal_batches().len(), batches.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Indexed incremental detect over appended batches equals a full
    /// `check_table` pass on the final relation — same violations, same
    /// order — for arbitrary data and batch boundaries.
    #[test]
    fn incremental_detect_is_differential_with_check_table(
        base in arb_rows(10),
        batches in arb_batches(),
    ) {
        let dir = tmp("diff");
        let program = parse_program(concat!(
            r#"GIVEN region ON city HAVING "#,
            r#"IF region = "west" THEN city <- "Berkeley"; "#,
            r#"IF region = "north" THEN city <- "Portland";"#,
        )).unwrap();
        let mut store = TableStore::create(&dir, base_table(&base)).unwrap();
        let mut det = IncrementalDetector::new(&program, store.table()).unwrap();
        let budget = Budget::unlimited();
        for batch in &batches {
            store.append_rows(batch).unwrap();
            det.detect_appended(store.table(), &budget).unwrap();
        }
        let full = CompiledProgram::compile(&program, store.table()).unwrap().check_table(store.table());
        prop_assert_eq!(det.violations(), full.as_slice());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic spot check alongside the properties: recovery after a cut
/// mid-record lands exactly on the pre-crash durable state.
#[test]
fn mid_batch_truncation_recovers_prior_durable_state() {
    let dir = tmp("midbatch");
    let base = Table::from_csv_str("region,city\nwest,Berkeley\nnorth,Portland\n").unwrap();
    let mut store = TableStore::create(&dir, base).unwrap();
    let wal_path = dir.join(WAL_FILE);
    store.append_rows(&[vec![Value::from("west"), Value::from("Albany")]]).unwrap();
    let durable = store.table().clone();
    let durable_len = std::fs::metadata(&wal_path).unwrap().len();
    store.append_rows(&[vec![Value::from("east"), Value::from("Salem")]]).unwrap();
    drop(store);

    // Crash mid-way through the second record.
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..durable_len as usize + 7]).unwrap();
    let reopened = TableStore::open(&dir).unwrap();
    assert!(reopened.recovery().truncated_tail);
    assert_eq!(reopened.recovery().batches_replayed, 1);
    assert_eq!(reopened.table(), &durable, "exact pre-crash durable state");
    let _ = std::fs::remove_dir_all(&dir);
}
