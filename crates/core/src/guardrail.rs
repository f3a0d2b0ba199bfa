//! The [`Guardrail`] type.

use crate::error::GuardrailError;
use crate::report::{ApplyReport, DetectionReport};
use crate::scheme::ErrorScheme;
use guardrail_dsl::{CompiledProgram, IncrementalDetector, Program, Unbound, Violation, ROW_CHUNK};
use guardrail_governor::{Budget, DegradationReport, Parallelism};
use guardrail_obs::{self as obs, PipelineReport};
use guardrail_synth::{synthesize, SynthesisConfig, SynthesisOutcome};
use guardrail_table::{Table, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Why compiling a guardrail's program cannot fail: it was synthesized or
/// parsed, and both validate.
const VALIDATED: &str = "a guardrail's program validates";

/// Synthesis configuration for [`GuardrailBuilder::fit`] (re-exported alias of the
/// synthesis crate's config so downstream users need only this crate).
pub type GuardrailConfig = SynthesisConfig;

/// Outcome of batched vetting ([`Guardrail::vet_rows`]): the gathered rows
/// after the error scheme was applied, plus every violation found.
#[derive(Debug, Clone)]
pub struct BatchVet {
    /// The vetted rows, at full width and in input order, processed under
    /// the requested [`ErrorScheme`] (untouched for `Raise`/`Ignore`).
    pub table: Table,
    /// All violations, ordered by row (indices into `table`, i.e. positions
    /// in the caller's row list), then statement, then branch.
    pub violations: Vec<Violation>,
    /// How many program statements mix pinned-column sets, so that the
    /// engine looks each row up in more than one decision table. Zero for
    /// synthesized programs and for the empty program.
    pub legacy_statements: usize,
    /// Cells the scheme changed (0 for `Raise`/`Ignore`).
    pub cells_changed: usize,
    /// Statements not applied: they do not bind to the caller's table.
    pub unbound: Vec<Unbound>,
}

/// A rectification ambiguity: several matching branches disagree about the
/// value one attribute should take on one row.
#[derive(Debug, Clone, PartialEq)]
pub struct RectifyConflict {
    /// Row index.
    pub row: usize,
    /// The contested attribute.
    pub attribute: String,
    /// The literals proposed by the matching branches (≥ 2, not all equal).
    pub candidates: Vec<Value>,
}

/// A fitted set of integrity constraints.
///
/// Construction runs the full offline pipeline (sketch learning → Alg. 2);
/// the fitted object then validates / repairs incoming data, either in bulk
/// ([`Guardrail::detect`] / [`Guardrail::apply`]) or in batches at query
/// time ([`Guardrail::vet_rows`]). Each binds the program, compiled once,
/// to the table it is given by name, runs the statements that bind and
/// reports the rest as `unbound`.
#[derive(Debug, Clone)]
pub struct Guardrail {
    outcome: SynthesisOutcome,
    /// The program compiled against its own literals, on first use.
    compiled: OnceLock<CompiledProgram>,
    /// Worker-count policy for the bulk table scans of
    /// [`detect`](Guardrail::detect) / [`apply`](Guardrail::apply)
    /// (inherited from the fit-time configuration; results are identical for
    /// any worker count).
    parallelism: Parallelism,
}

/// Fluent constructor for [`Guardrail`] — the one way to fit, and the one
/// that exposes every fit-time knob:
///
/// ```
/// use guardrail_core::prelude::*;
///
/// let csv = "zip,city\n".to_string() + &"94704,Berkeley\n".repeat(300);
/// let clean = Table::from_csv_str(&csv).unwrap();
/// let config = GuardrailConfig::default()
///     .with_epsilon(0.02)
///     .with_parallelism(Parallelism::threads(2));
/// let guard = Guardrail::builder()
///     .config(config)
///     .budget(Budget::unlimited())
///     .fit(&clean)
///     .unwrap();
/// assert!(guard.degradation().is_complete());
/// ```
///
/// Unset knobs keep their defaults: [`GuardrailConfig::default`] (whose
/// worker policy is [`Parallelism::Auto`]) and an unlimited [`Budget`].
#[derive(Debug, Clone, Default)]
pub struct GuardrailBuilder {
    config: GuardrailConfig,
    budget: Option<Budget>,
}

impl GuardrailBuilder {
    /// Sets the synthesis configuration (ε, structure learning, MEC cap,
    /// worker count, …).
    pub fn config(mut self, config: GuardrailConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the resource budget for the whole pipeline. On exhaustion the
    /// fit degrades to the best program found so far — inspect
    /// [`Guardrail::degradation`] for what was cut short.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Runs the offline synthesis pipeline on `table` (a segment or a
    /// persistent store passes its `table()`). A schema wider than
    /// [`guardrail_graph::MAX_NODES`] attributes is a typed error.
    pub fn fit(self, table: &Table) -> Result<Guardrail, GuardrailError> {
        let budget = self.budget.unwrap_or_else(Budget::unlimited);
        let attrs = table.num_columns();
        if attrs > guardrail_graph::MAX_NODES {
            return Err(GuardrailError::TooManyAttributes {
                got: attrs,
                max: guardrail_graph::MAX_NODES,
            });
        }
        Ok(Guardrail {
            outcome: synthesize(table, &self.config, &budget),
            compiled: OnceLock::new(),
            parallelism: self.config.parallelism,
        })
    }
}

impl Guardrail {
    /// Starts a fluent fit: `Guardrail::builder().config(…).budget(…)
    /// .fit(&table)` synthesizes constraints from (ideally clean) training
    /// data.
    pub fn builder() -> GuardrailBuilder {
        GuardrailBuilder::default()
    }

    /// Wraps a hand-written or previously synthesized program, which must
    /// validate ([`guardrail_dsl::parse_program`] checks it).
    pub fn from_program(program: Program) -> Self {
        let outcome = SynthesisOutcome {
            program,
            coverage: f64::NAN,
            cpdag: guardrail_graph::Pdag::new(0),
            mec_size: 0,
            truncated: false,
            chosen_dag: None,
            cache_stats: Default::default(),
            oracle_cache: Default::default(),
            statements: Vec::new(),
            degradation: DegradationReport::complete(),
            report: Default::default(),
        };
        Self { outcome, compiled: OnceLock::new(), parallelism: Parallelism::Auto }
    }

    /// The synthesized DSL program.
    pub fn program(&self) -> &Program {
        &self.outcome.program
    }

    /// The program compiled once, against its own literals (built on first
    /// use). Every scan binds it to the table it is given.
    pub fn compiled(&self) -> &CompiledProgram {
        self.compiled.get_or_init(|| CompiledProgram::new(&self.outcome.program).expect(VALIDATED))
    }

    /// Full synthesis diagnostics (MEC size, coverage, cache stats, …).
    pub fn outcome(&self) -> &SynthesisOutcome {
        &self.outcome
    }

    /// Coverage of the fitted program on its training data.
    pub fn coverage(&self) -> f64 {
        self.outcome.coverage
    }

    /// Which synthesis stages (if any) ran out of budget during fitting.
    pub fn degradation(&self) -> &DegradationReport {
        &self.outcome.degradation
    }

    /// The fit's stage-tree report: wall time, work units, and cache ratios
    /// per pipeline stage, plus governor degradations. Always populated by
    /// a fit (recorder or not); empty for [`Guardrail::from_program`].
    pub fn report(&self) -> &PipelineReport {
        &self.outcome.report
    }

    /// Detects violations across `table` (Eqn. 1 applied row-wise) under
    /// the statements that bind to it; the report lists the rest. Row
    /// chunks are scanned on worker threads per the fit-time
    /// [`Parallelism`]; the report is bit-identical for any worker count.
    pub fn detect(&self, table: &Table) -> DetectionReport {
        let mut detect_span = obs::span("detect");
        detect_span.arg("rows", table.num_rows() as u64);
        let compiled = self.bind(table);
        let violations = match compiled.statement_count() {
            0 => Vec::new(),
            _ => compiled.check_table_parallel(table, self.parallelism),
        };
        detect_span.arg("violations", violations.len() as u64);
        let unbound = compiled.unbound().to_vec();
        DetectionReport { violations, rows_checked: table.num_rows(), unbound }
    }

    /// Starts incremental detection over an append-only `table`: binds the
    /// compiled program to `table`, scans the rows present now, and returns a
    /// detector whose `detect_appended` probes only rows appended later
    /// (its `compiled().unbound()` lists the statements it skips). `None`
    /// when no statement binds, the empty program included.
    pub fn incremental(&self, table: &Table) -> Option<IncrementalDetector> {
        let compiled = self.bind(table);
        (compiled.statement_count() > 0)
            .then(|| IncrementalDetector::from_compiled(compiled, table))
    }

    /// Applies `scheme` to a copy of `table`, returning the processed table
    /// and what was done.
    ///
    /// `Raise` performs detection only (callers inspect the report and abort
    /// themselves — a library cannot meaningfully panic on data errors);
    /// `Ignore` detects and leaves data untouched; `Coerce` nulls violated
    /// dependent cells; `Rectify` overwrites them with the constraint's
    /// literal.
    pub fn apply(&self, table: &Table, scheme: ErrorScheme) -> (Table, ApplyReport) {
        let vet = self.vet(self.bind(table), table.clone(), scheme);
        let report = ApplyReport {
            violations: vet.violations,
            cells_changed: vet.cells_changed,
            unbound: vet.unbound,
        };
        (vet.table, report)
    }

    /// Vets a batch of rows in one vectorized pass: gathers `rows` from
    /// `table` at full width (`Table::take`, which keeps each column's
    /// dictionary), runs the compiled program's decision-table scan over the
    /// sub-table, and applies `scheme` table-wide. Equivalent to the spec
    /// (`Program::check_row` / `execute_row`) on each row, restricted to the
    /// statements that bind. Row `k` of the returned table is row
    /// `rows[k]` of `table` after vetting, so a caller reads every later
    /// step (model calls, filters, grouping) from that one table.
    ///
    /// `Raise` does not abort here (a library cannot meaningfully panic on
    /// data errors): the violations are ordered by row, so callers abort on
    /// `violations.first()`, the first dirty row.
    ///
    /// An empty program returns the gathered rows untouched. Returns `None`
    /// when no statement of a non-empty program binds to `table`.
    pub fn vet_rows(&self, table: &Table, rows: &[usize], scheme: ErrorScheme) -> Option<BatchVet> {
        let mut vet_span = obs::span("vet_rows");
        vet_span.arg("rows", rows.len() as u64);
        vet_span.arg("columns", table.num_columns() as u64);
        let compiled = self.bind(table);
        if compiled.statement_count() == 0 && !self.outcome.program.is_empty() {
            return None;
        }
        let vet = self.vet(compiled, table.take(rows), scheme);
        vet_span.arg("violations", vet.violations.len() as u64);
        vet_span.arg("legacy_statements", vet.legacy_statements as u64);
        Some(vet)
    }

    /// The body [`apply`](Self::apply) and [`vet_rows`](Self::vet_rows)
    /// share: scans `table` once with `compiled`, the program bound to its
    /// schema, and applies `scheme` in place (`Coerce` nulls the cells of
    /// the violations that scan found). With no statement bound, `table`
    /// comes back untouched. A table of fewer than 8 row chunks is checked
    /// and rectified on the calling thread: at that size a worker round
    /// per statement costs more than it saves.
    fn vet(&self, compiled: CompiledProgram, mut table: Table, scheme: ErrorScheme) -> BatchVet {
        let (mut violations, mut cells_changed) = (Vec::new(), 0);
        let parallelism = if table.num_rows() < 8 * ROW_CHUNK {
            Parallelism::Sequential
        } else {
            self.parallelism
        };
        if compiled.statement_count() > 0 {
            violations = compiled.check_table_parallel(&table, parallelism);
            cells_changed = match scheme {
                ErrorScheme::Raise | ErrorScheme::Ignore => 0,
                ErrorScheme::Coerce => compiled.coerce_violations(&mut table, &violations),
                ErrorScheme::Rectify => compiled.rectify_table_parallel(&mut table, parallelism),
            };
        }
        let legacy_statements = compiled.legacy_statement_count();
        let unbound = compiled.unbound().to_vec();
        BatchVet { table, violations, legacy_statements, cells_changed, unbound }
    }

    /// Finds rows where rectification would be ambiguous: two or more
    /// matching branches of the bound statements assign *different*
    /// literals to the same attribute (the appendix-F "both attributes
    /// corrupted" regime, where blind rectification can cascade a wrong
    /// value). `apply(Rectify)` resolves such rows last-statement-wins;
    /// callers that prefer to quarantine them can exclude these rows first.
    /// Ordered by row, then attribute; candidates in branch order.
    pub fn conflicts(&self, table: &Table) -> Vec<RectifyConflict> {
        let mut proposed: BTreeMap<(usize, &str), Vec<Value>> = BTreeMap::new();
        for s in self.bind(table).statements() {
            let statement = &self.outcome.program.statements[s.statement_index];
            for b in &statement.branches {
                for row in b.condition.matching_rows(table) {
                    proposed.entry((row, &statement.on)).or_default().push(b.literal.clone());
                }
            }
        }
        proposed
            .into_iter()
            .filter(|(_, literals)| literals.windows(2).any(|w| w[0] != w[1]))
            .map(|((row, attribute), candidates)| RectifyConflict {
                row,
                attribute: attribute.to_string(),
                candidates,
            })
            .collect()
    }

    /// The compiled program bound to `table`'s schema: the statements that
    /// bind, and the list of those that do not.
    fn bind(&self, table: &Table) -> CompiledProgram {
        self.compiled().bind(table.schema())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_dsl::parse_program;

    fn clean_table(rows: usize) -> Table {
        let mut csv = String::from("zip,city,weather\n");
        for i in 0..rows {
            let (zip, city) = if i % 2 == 0 { (94704, "Berkeley") } else { (97201, "Portland") };
            csv.push_str(&format!("{zip},{city},w{}\n", i % 7));
        }
        Table::from_csv_str(&csv).unwrap()
    }

    fn fitted(rows: usize) -> Guardrail {
        Guardrail::builder().fit(&clean_table(rows)).unwrap()
    }

    #[test]
    fn fit_learns_zip_city_constraint() {
        let g = fitted(600);
        let stmts = &g.program().statements;
        assert!(!stmts.is_empty(), "nothing learned");
        assert!(
            stmts.iter().any(|s| (s.on == "city") || (s.on == "zip")),
            "zip↔city relationship missing: {}",
            g.program()
        );
        // The weather column is pure noise: never constrained.
        assert!(stmts.iter().all(|s| s.on != "weather"));
        assert!(g.coverage() > 0.9);
    }

    #[test]
    fn detect_and_schemes() {
        let g = fitted(600);
        let dirty =
            Table::from_csv_str("zip,city,weather\n94704,gibbon,w0\n97201,Portland,w1\n").unwrap();
        let report = g.detect(&dirty);
        assert_eq!(report.dirty_rows(), vec![0]);
        assert!((report.dirty_fraction() - 0.5).abs() < 1e-12);

        let (ignored, rep) = g.apply(&dirty, ErrorScheme::Ignore);
        assert_eq!(ignored.get(0, 1), Some(Value::from("gibbon")));
        assert_eq!(rep.cells_changed, 0);
        assert_eq!(rep.violations.iter().map(|v| v.row).collect::<Vec<_>>(), vec![0]);

        let (coerced, rep) = g.apply(&dirty, ErrorScheme::Coerce);
        assert_eq!(coerced.get(0, 1), Some(Value::Null));
        assert_eq!(rep.cells_changed, 1);

        let (rectified, rep) = g.apply(&dirty, ErrorScheme::Rectify);
        assert_eq!(rectified.get(0, 1), Some(Value::from("Berkeley")));
        assert_eq!(rep.cells_changed, 1);
        // Clean row untouched by any scheme.
        assert_eq!(rectified.get(1, 1), Some(Value::from("Portland")));
    }

    #[test]
    fn conflict_detection_flags_ambiguous_rectification() {
        // Two statements both constrain `status`: rel → status and
        // household → status. A row whose rel and household disagree about
        // status cannot be rectified unambiguously.
        let program = parse_program(
            r#"GIVEN rel ON status HAVING
                   IF rel = "Husband" THEN status <- "Married";
               GIVEN household ON status HAVING
                   IF household = "Single-occupant" THEN status <- "Single";"#,
        )
        .unwrap();
        let g = Guardrail::from_program(program);
        let t = Table::from_csv_str(
            "rel,household,status\n\
             Husband,Family,Married\n\
             Husband,Single-occupant,???\n\
             Other,Single-occupant,Single\n",
        )
        .unwrap();
        let conflicts = g.conflicts(&t);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].row, 1);
        assert_eq!(conflicts[0].attribute, "status");
        assert_eq!(conflicts[0].candidates.len(), 2);
        assert!(conflicts[0].candidates.contains(&Value::from("Married")));
        assert!(conflicts[0].candidates.contains(&Value::from("Single")));
        // Agreeing branches are not conflicts.
        let agreeing = parse_program(
            r#"GIVEN rel ON status HAVING
                   IF rel = "Husband" THEN status <- "Married";
                   IF rel = "Wife" THEN status <- "Married";"#,
        )
        .unwrap();
        let g = Guardrail::from_program(agreeing);
        assert!(g.conflicts(&t).is_empty());
    }

    /// A chained repair whose intermediate literal is absent from the batch
    /// gives the spec's answer through every entry point.
    #[test]
    fn chained_repair_through_a_freshly_interned_literal() {
        let program = parse_program(
            r#"GIVEN zip ON city HAVING
                   IF zip = 94704 THEN city <- "Berkeley";
               GIVEN city ON state HAVING
                   IF city = "Berkeley" THEN state <- "CA";"#,
        )
        .unwrap();
        let g = Guardrail::from_program(program);
        let t = Table::from_csv_str("zip,city,state\n94704,gibbon,XX\n").unwrap();
        let expected = "zip,city,state\n94704,Berkeley,CA\n";
        assert_eq!(g.apply(&t, ErrorScheme::Rectify).0.to_csv_string(), expected);
        let vet = g.vet_rows(&t, &[0], ErrorScheme::Rectify).unwrap();
        assert_eq!(vet.table.to_csv_string(), expected);
    }

    #[test]
    fn from_program_wraps_handwritten_constraints() {
        let program = parse_program(
            r#"GIVEN rel ON marital HAVING IF rel = "Husband" THEN marital <- "Married";"#,
        )
        .unwrap();
        let g = Guardrail::from_program(program);
        let dirty = Table::from_csv_str("rel,marital\nHusband,Separated\n").unwrap();
        assert_eq!(g.detect(&dirty).dirty_rows(), vec![0]);
        assert!(g.coverage().is_nan());
    }

    #[test]
    fn empty_program_is_a_noop() {
        let g = Guardrail::from_program(Program::empty());
        let t = clean_table(10);
        assert!(g.detect(&t).is_clean());
        let (out, rep) = g.apply(&t, ErrorScheme::Rectify);
        assert_eq!(out.to_csv_string(), t.to_csv_string());
        assert_eq!(rep.cells_changed, 0);
    }

    #[test]
    fn fit_rejects_oversized_schema_with_typed_error() {
        // 200 columns exceeds the graph substrate's 128-node capacity: the
        // fit reports it as data.
        let header: Vec<String> = (0..200).map(|i| format!("c{i}")).collect();
        let csv = header.join(",") + "\n" + &vec!["1"; 200].join(",") + "\n";
        let t = Table::from_csv_str(&csv).unwrap();
        match Guardrail::builder().fit(&t) {
            Err(crate::error::GuardrailError::TooManyAttributes { got: 200, max }) => {
                assert_eq!(max, guardrail_graph::MAX_NODES);
            }
            other => panic!("expected TooManyAttributes, got {other:?}"),
        }
    }

    #[test]
    fn governed_fit_reports_degradation() {
        let table = clean_table(400);
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let g = Guardrail::builder().budget(budget).fit(&table).unwrap();
        assert!(!g.degradation().is_complete());
        // The degraded guardrail is still usable end to end.
        assert!(g.detect(&table).rows_checked == 400);
        let unbudgeted = fitted(400);
        assert!(unbudgeted.degradation().is_complete());
    }

    #[test]
    fn fit_is_identical_at_any_thread_count() {
        let table = clean_table(600);
        let fit = |p| {
            let config = GuardrailConfig::default().with_parallelism(p);
            Guardrail::builder().config(config).fit(&table).unwrap()
        };
        let baseline = fit(Parallelism::Sequential);
        for threads in [2, 8] {
            let g = fit(Parallelism::threads(threads));
            assert_eq!(g.program(), baseline.program(), "{threads} threads");
            assert_eq!(g.coverage(), baseline.coverage(), "{threads} threads");
        }
    }

    #[test]
    fn schema_mismatch_is_reported_never_clean() {
        let g = fitted(300);
        let unrelated = Table::from_csv_str("x,y\n1,2\n").unwrap();
        let report = g.detect(&unrelated);
        assert!(report.violations.is_empty() && !report.is_clean());
        assert_eq!(report.unbound, g.program().unbound(unrelated.schema()));
        assert_eq!(report.unbound.len(), g.program().statements.len());
        let (out, applied) = g.apply(&unrelated, ErrorScheme::Rectify);
        assert_eq!(out.to_csv_string(), unrelated.to_csv_string());
        assert_eq!(applied.unbound, report.unbound);
        assert!(g.vet_rows(&unrelated, &[0], ErrorScheme::Rectify).is_none());
        assert!(g.incremental(&unrelated).is_none());
    }

    #[test]
    fn fit_and_detect_read_a_persistent_store() {
        use guardrail_table::TableStore;
        let dir = std::env::temp_dir()
            .join(format!("guardrail-core-store-{}", std::process::id()))
            .join("store");
        let _ = std::fs::remove_dir_all(&dir);
        let store = TableStore::create(&dir, clean_table(400)).unwrap();

        // A store serves its live relation as a plain table.
        let g = Guardrail::builder().fit(store.table()).unwrap();
        let from_table = fitted(400);
        assert_eq!(g.program(), from_table.program(), "a store fits like the table it holds");

        let report = g.detect(store.table());
        assert_eq!(report.rows_checked, 400);
        assert!(report.is_clean());
        let (out, rep) = g.apply(store.table(), ErrorScheme::Rectify);
        assert_eq!(out.num_rows(), 400);
        assert_eq!(rep.cells_changed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_detector_tracks_appends() {
        let g = fitted(400);
        let mut t = Table::from_csv_str("zip,city,weather\n94704,Berkeley,w0\n97201,Portland,w1\n")
            .unwrap();
        let mut det = g.incremental(&t).expect("fitted program binds to its own schema");
        assert_eq!(det.violations().len(), g.detect(&t).violations.len());
        t.append_rows(&[vec![Value::from(94704i64), Value::from("gibbon"), Value::from("w2")]])
            .unwrap();
        det.detect_appended(&t, &Budget::unlimited()).unwrap();
        assert_eq!(det.violations(), g.detect(&t).violations.as_slice());

        // Empty programs have nothing to track.
        assert!(Guardrail::from_program(Program::empty()).incremental(&t).is_none());
    }
}
