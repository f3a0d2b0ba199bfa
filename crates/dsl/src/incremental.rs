//! Incremental detection over an append-only table.
//!
//! A full `check_table` pass re-scans every row even when only a small
//! batch was appended — the dominant serving pattern once tables live in a
//! persistent store. [`IncrementalDetector`] exploits the store's
//! append-only contract (stated on `guardrail_table::TableStore`): appends
//! never move or change existing rows, and a row's violation status depends
//! only on its own cells, so rows scanned earlier can never change and the
//! detector probes **only the appended rows** against each statement's
//! decision table, merging their violations into a cumulative report that
//! stays bit-identical to a from-scratch `check_table` over the whole
//! relation.
//!
//! # Dictionaries that grow
//!
//! The compiled program does not depend on the table: its decision tables
//! are keyed on the program's own literals. What the detector keeps per
//! table is the translation of each bound column's codes into those
//! literals' digits. Appends only add codes, so every pass first extends
//! the translation by the values the batch interned — a value the program
//! names translates to its literal's digit, any other value to the *other*
//! digit — and then probes the batch. Existing rows keep their codes and
//! their digits, so nothing is ever rescanned.
//!
//! # Work accounting
//!
//! Governed scans charge the budget with **probed rows** — appended rows ×
//! statements — not the full table size. A 10k-row batch probed against a
//! 1M-row table costs 10k·S work units, which is what `--report` should
//! show for honest incremental accounting.

use crate::ast::Program;
use crate::engine::DetectScratch;
use crate::error::DslError;
use crate::interp::{CompiledProgram, Violation, ROW_CHUNK};
use guardrail_governor::{Budget, Exhausted};
use guardrail_obs as obs;
use guardrail_table::Table;
use std::ops::Range;

/// Outcome of one incremental pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IncrementalScan {
    /// Rows scanned by this pass: the appended tail.
    pub rows_scanned: usize,
    /// Violations this pass added to the cumulative report.
    pub new_violations: usize,
    /// Work units charged: probed rows × statements.
    pub rows_probed: u64,
}

/// Cumulative detection state over an append-only table.
#[derive(Debug)]
pub struct IncrementalDetector {
    compiled: CompiledProgram,
    /// Cumulative violations in `(row, statement, branch)` order.
    violations: Vec<Violation>,
    rows_seen: usize,
    rows_probed: u64,
    /// Key buffers and the table's code translations, extended pass by
    /// pass.
    scratch: DetectScratch,
}

impl IncrementalDetector {
    /// Compiles `program` (its statements that bind to `table`;
    /// `compiled().unbound()` lists the rest) and scans all existing rows
    /// (the one unavoidable full pass). Subsequent
    /// [`detect_appended`](Self::detect_appended) calls are O(batch).
    pub fn new(program: &Program, table: &Table) -> Result<Self, DslError> {
        Ok(Self::from_compiled(CompiledProgram::compile(program, table)?, table))
    }

    /// [`new`](Self::new) for a program already compiled and bound to
    /// `table`'s schema ([`CompiledProgram::bind`]).
    pub fn from_compiled(compiled: CompiledProgram, table: &Table) -> Self {
        let mut detector = IncrementalDetector {
            compiled,
            violations: Vec::new(),
            rows_seen: 0,
            rows_probed: 0,
            scratch: DetectScratch::default(),
        };
        detector.scan_tail(table, 0..table.num_rows());
        detector.rows_seen = table.num_rows();
        detector.record_baseline();
        detector
    }

    /// Records the training scan's per-statement violation rates into the
    /// compiled program — the fit-time baseline `drift::DriftMonitor`
    /// compares appended batches against.
    fn record_baseline(&mut self) {
        let mut counts = vec![0u64; self.compiled.statement_count()];
        for v in &self.violations {
            counts[self.compiled.position(v.statement)] += 1;
        }
        let rates = if self.rows_seen == 0 {
            vec![0.0; counts.len()]
        } else {
            counts.iter().map(|&c| c as f64 / self.rows_seen as f64).collect()
        };
        self.compiled.set_baseline_rates(rates);
    }

    /// Probes the rows appended since the last pass against every
    /// statement, charging `budget` with the probed-row work **before**
    /// scanning (an exhausted budget leaves the detector unchanged and
    /// retryable). Returns what the pass did.
    pub fn detect_appended(
        &mut self,
        table: &Table,
        budget: &Budget,
    ) -> Result<IncrementalScan, Exhausted> {
        assert!(
            table.num_rows() >= self.rows_seen,
            "the table is append-only: rows cannot disappear ({} < {})",
            table.num_rows(),
            self.rows_seen
        );
        let mut span = obs::span("detect_incremental");
        let range = self.rows_seen..table.num_rows();
        let probes = (range.len() as u64) * self.compiled.statement_count() as u64;
        span.arg("rows", range.len() as u64);
        span.arg("rows_probed", probes);
        // Honest governed accounting: charge what this pass probes (batch
        // rows × statements), never the table size.
        budget.charge(probes)?;
        let before = self.violations.len();
        self.scan_tail(table, range.clone());
        self.rows_seen = table.num_rows();
        self.rows_probed += probes;
        obs::metrics::observe("guardrail_incremental_probed_rows", "", probes);
        span.arg("violations", (self.violations.len() - before) as u64);
        Ok(IncrementalScan {
            rows_scanned: range.len(),
            new_violations: self.violations.len() - before,
            rows_probed: probes,
        })
    }

    /// Cumulative violations over every row seen so far — bit-identical to
    /// `compiled().check_table(table)`.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations whose row falls in `range` (e.g. one appended batch).
    pub fn violations_in(&self, range: Range<usize>) -> &[Violation] {
        let start = self.violations.partition_point(|v| v.row < range.start);
        let end = self.violations.partition_point(|v| v.row < range.end);
        &self.violations[start..end]
    }

    /// Rows processed so far.
    pub fn rows_seen(&self) -> usize {
        self.rows_seen
    }

    /// Total probed-row work units charged across all passes.
    pub fn rows_probed(&self) -> u64 {
        self.rows_probed
    }

    /// The compiled program, bound to the table's schema.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Extends the code translations by what the table's dictionaries
    /// interned since the last pass, then scans `range`, appending
    /// violations (row-major, preserving global `(row, statement, branch)`
    /// order).
    fn scan_tail(&mut self, table: &Table, range: Range<usize>) {
        let DetectScratch { keys, raw, codes } = &mut self.scratch;
        self.compiled.translate(table, codes);
        let scan = self.compiled.scan(table, codes);
        let mut start = range.start;
        while start < range.end {
            let end = (start + ROW_CHUNK).min(range.end);
            raw.clear();
            self.compiled.check_chunk_raw(scan, start..end, keys, raw);
            self.violations.extend(raw.iter().map(|r| self.compiled.raw_to_violation(table, r)));
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use guardrail_table::Value;

    fn budget() -> Budget {
        Budget::unlimited()
    }

    fn table(rows: &[(&str, &str)]) -> Table {
        let mut csv = String::from("zip,city\n");
        for (z, c) in rows {
            csv.push_str(&format!("{z},{c}\n"));
        }
        Table::from_csv_str(&csv).unwrap()
    }

    fn row(cells: &[&str]) -> Vec<Value> {
        cells.iter().map(|&c| Value::from(c)).collect()
    }

    const PROGRAM: &str = r#"GIVEN zip ON city HAVING
        IF zip = "west" THEN city <- "Berkeley";
        IF zip = "north" THEN city <- "Portland";"#;

    #[test]
    fn incremental_equals_full_check_table() {
        let program = parse_program(PROGRAM).unwrap();
        let mut t = table(&[("west", "Berkeley"), ("north", "Portland"), ("west", "Oops")]);
        let mut det = IncrementalDetector::new(&program, &t).unwrap();
        assert_eq!(det.violations().len(), 1);

        // Append clean and dirty batches through the plain in-memory path.
        for batch in [
            vec![row(&["west", "Berkeley"])],
            vec![row(&["north", "Wrong"]), row(&["west", "Berkeley"])],
        ] {
            t.append_rows(&batch).unwrap();
            det.detect_appended(&t, &budget()).unwrap();
        }

        let full = CompiledProgram::compile(&program, &t).unwrap().check_table(&t);
        assert_eq!(det.violations(), full.as_slice(), "cumulative report equals full scan");
        assert_eq!(det.rows_seen(), 6);
    }

    #[test]
    fn appended_batch_probes_charge_batch_not_table() {
        let program = parse_program(PROGRAM).unwrap();
        // Base interns every program literal so the append cannot force a
        // recompile; the new row's "Nope" is merely an alien code.
        let mut base = vec![("west", "Berkeley"); 499];
        base.push(("north", "Portland"));
        let mut t = table(&base);
        let mut det = IncrementalDetector::new(&program, &t).unwrap();
        t.append_rows(&[row(&["north", "Nope"])]).unwrap();
        let scan = det.detect_appended(&t, &budget()).unwrap();
        assert_eq!(scan.rows_scanned, 1);
        assert_eq!(scan.rows_probed, 1, "1 appended row × 1 statement, not 501 table rows");
        assert_eq!(scan.new_violations, 1);
    }

    #[test]
    fn exhausted_budget_leaves_detector_retryable() {
        let program = parse_program(PROGRAM).unwrap();
        let mut t = table(&[("west", "Berkeley")]);
        let mut det = IncrementalDetector::new(&program, &t).unwrap();
        let batch: Vec<_> = (0..8).map(|_| row(&["west", "Wrong"])).collect();
        t.append_rows(&batch).unwrap();
        let tiny = Budget::with_work_cap(4);
        assert!(det.detect_appended(&t, &tiny).is_err(), "8 probes exceed a 4-unit cap");
        assert_eq!(det.rows_seen(), 1, "failed pass left state unchanged");
        let scan = det.detect_appended(&t, &budget()).unwrap();
        assert_eq!(scan.new_violations, 8, "retry with headroom completes");
    }

    #[test]
    fn newly_interned_literal_forces_recompile_and_stays_exact() {
        // "Emeryville" is assigned by the program but absent from the base
        // table: its literal cannot bind at compile time.
        let program =
            parse_program(r#"GIVEN zip ON city HAVING IF zip = "east" THEN city <- "Emeryville";"#)
                .unwrap();
        let mut t = table(&[("east", "Oakland")]);
        let mut det = IncrementalDetector::new(&program, &t).unwrap();
        assert_eq!(det.violations().len(), 1, "unbound literal: every matching row violates");

        // The appended batch interns "Emeryville" — without a recompile the
        // old engine would keep flagging rows that are now clean.
        t.append_rows(&[row(&["east", "Emeryville"])]).unwrap();
        det.detect_appended(&t, &budget()).unwrap();
        let full = CompiledProgram::compile(&program, &t).unwrap().check_table(&t);
        assert_eq!(det.violations(), full.as_slice());
    }

    #[test]
    fn alien_codes_do_not_force_recompile() {
        let program = parse_program(PROGRAM).unwrap();
        let mut t = table(&[("west", "Berkeley")]);
        let mut det = IncrementalDetector::new(&program, &t).unwrap();
        // Brand-new zip and city values (alien codes), but no program
        // literal becomes resolvable: the O(batch) path must suffice.
        t.append_rows(&[row(&["south", "New York"])]).unwrap();
        det.detect_appended(&t, &budget()).unwrap();
        let full = CompiledProgram::compile(&program, &t).unwrap().check_table(&t);
        assert_eq!(det.violations(), full.as_slice());
    }

    #[test]
    fn violations_in_slices_by_row_range() {
        let program = parse_program(PROGRAM).unwrap();
        let t = table(&[("west", "Oops"), ("north", "Portland"), ("north", "Nope")]);
        let det = IncrementalDetector::new(&program, &t).unwrap();
        assert_eq!(det.violations().len(), 2);
        assert_eq!(det.violations_in(0..1).len(), 1);
        assert_eq!(det.violations_in(1..3).len(), 1);
        assert_eq!(det.violations_in(1..2).len(), 0);
    }
}
