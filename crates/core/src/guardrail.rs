//! The [`Guardrail`] type.

use crate::error::GuardrailError;
use crate::report::{ApplyReport, DetectionReport};
use crate::scheme::ErrorScheme;
use guardrail_dsl::{CompiledProgram, IncrementalDetector, Program, Unbound, Violation};
use guardrail_governor::{Budget, DegradationReport, Parallelism};
use guardrail_obs::{self as obs, PipelineReport};
use guardrail_synth::{synthesize_governed, SynthesisConfig, SynthesisOutcome};
use guardrail_table::{Table, Value};
use std::collections::BTreeMap;

/// Why compiling a guardrail's program cannot fail: it was synthesized or
/// parsed, and both validate.
const VALIDATED: &str = "a guardrail's program validates";

/// Synthesis configuration for [`Guardrail::fit`] (re-exported alias of the
/// synthesis crate's config so downstream users need only this crate).
pub type GuardrailConfig = SynthesisConfig;

/// Outcome of batched vetting ([`Guardrail::vet_rows`] at full width,
/// [`Guardrail::vet_rows_narrow`] over the program-bound columns): the
/// gathered rows after the error scheme was applied, plus every violation
/// found.
#[derive(Debug, Clone)]
pub struct BatchVet {
    /// The vetted rows, in input order, processed under the requested
    /// [`ErrorScheme`] (untouched for `Raise`/`Ignore`). From
    /// `vet_rows_narrow` it holds only the attributes of the statements
    /// that bind (determinants ∪ dependents).
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
    /// Attribute names the scheme may have rewritten (dependents): the
    /// columns of a narrowed `table` a caller copies back onto its own raw
    /// rows to rebuild full vetted rows. Empty for `Raise`/`Ignore`.
    pub written: Vec<String>,
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
/// time ([`Guardrail::vet_rows`] / [`Guardrail::vet_rows_narrow`]). Each
/// runs the statements that bind to the table it is given and reports the
/// rest as `unbound`.
#[derive(Debug, Clone)]
pub struct Guardrail {
    outcome: SynthesisOutcome,
    /// Worker-count policy for the bulk table scans of
    /// [`detect`](Guardrail::detect) / [`apply`](Guardrail::apply)
    /// (inherited from the fit-time configuration; results are identical for
    /// any worker count).
    parallelism: Parallelism,
}

/// Fluent constructor for [`Guardrail`] — the one entry point that exposes
/// every fit-time knob:
///
/// ```
/// use guardrail_core::prelude::*;
///
/// let csv = "zip,city\n".to_string() + &"94704,Berkeley\n".repeat(300);
/// let clean = Table::from_csv_str(&csv).unwrap();
/// let guard = Guardrail::builder()
///     .config(GuardrailConfig::default().with_epsilon(0.02))
///     .budget(Budget::unlimited())
///     .parallelism(Parallelism::threads(2))
///     .fit(&clean)
///     .unwrap();
/// assert!(guard.degradation().is_complete());
/// ```
///
/// Unset knobs keep their defaults: [`GuardrailConfig::default`], an
/// unlimited [`Budget`], and the config's own worker policy
/// ([`Parallelism::Auto`] unless the config says otherwise).
#[derive(Debug, Clone, Default)]
pub struct GuardrailBuilder {
    config: GuardrailConfig,
    budget: Option<Budget>,
    parallelism: Option<Parallelism>,
}

impl GuardrailBuilder {
    /// Sets the synthesis configuration (ε, structure learning, MEC cap, …).
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

    /// Sets the worker-count policy for every parallel stage: PC's CI tests,
    /// sketch fills, and the fitted guardrail's bulk detection/repair scans.
    /// Overrides whatever the config says. Results are identical for any
    /// worker count.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Runs the offline synthesis pipeline on `table` (a segment or a
    /// persistent store passes its `table()`).
    pub fn fit(self, table: &Table) -> Result<Guardrail, GuardrailError> {
        let config = match self.parallelism {
            Some(p) => self.config.with_parallelism(p),
            None => self.config,
        };
        let budget = self.budget.unwrap_or_else(Budget::unlimited);
        let attrs = table.num_columns();
        if attrs > guardrail_graph::MAX_NODES {
            return Err(GuardrailError::TooManyAttributes {
                got: attrs,
                max: guardrail_graph::MAX_NODES,
            });
        }
        Ok(Guardrail {
            outcome: synthesize_governed(table, &config, &budget),
            parallelism: config.parallelism,
        })
    }
}

impl Guardrail {
    /// Starts a fluent fit: `Guardrail::builder().config(…).budget(…)
    /// .parallelism(…).fit(&table)`.
    pub fn builder() -> GuardrailBuilder {
        GuardrailBuilder::default()
    }

    /// Synthesizes constraints from (ideally clean) training data.
    ///
    /// Panics when the schema is unsupported (more attributes than
    /// [`guardrail_graph::MAX_NODES`]); untrusted input should go through
    /// [`Guardrail::try_fit`] instead.
    pub fn fit(table: &Table, config: &GuardrailConfig) -> Self {
        Self::try_fit(table, config).expect("unsupported schema; use try_fit for untrusted input")
    }

    /// Fallible [`Guardrail::fit`] for untrusted input: returns a typed
    /// error instead of panicking on unsupported schemas. Thin wrapper over
    /// [`Guardrail::builder`].
    pub fn try_fit(table: &Table, config: &GuardrailConfig) -> Result<Self, GuardrailError> {
        Self::builder().config(*config).fit(table)
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
        Self { outcome, parallelism: Parallelism::Auto }
    }

    /// The synthesized DSL program.
    pub fn program(&self) -> &Program {
        &self.outcome.program
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
        let compiled = self.compile(table);
        let violations = match compiled.statement_count() {
            0 => Vec::new(),
            _ => compiled.check_table_parallel(table, self.parallelism),
        };
        detect_span.arg("violations", violations.len() as u64);
        let unbound = compiled.unbound().to_vec();
        DetectionReport { violations, rows_checked: table.num_rows(), unbound }
    }

    /// Starts incremental detection over an append-only `table`: compiles
    /// the statements that bind, scans the rows present now, and returns a
    /// detector whose `detect_appended` probes only rows appended later
    /// (its `compiled().unbound()` lists the statements it skips). `None`
    /// when no statement binds, the empty program included.
    pub fn incremental(&self, table: &Table) -> Option<IncrementalDetector> {
        let detector = IncrementalDetector::new(&self.outcome.program, table).expect(VALIDATED);
        (detector.compiled().statement_count() > 0).then_some(detector)
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
        let vet = self.vet(table.clone(), scheme);
        let report = ApplyReport {
            violations: vet.violations,
            cells_changed: vet.cells_changed,
            unbound: vet.unbound,
        };
        (vet.table, report)
    }

    /// Vets a batch of rows in one vectorized pass: gathers `rows` from
    /// `table` at full width, runs the compiled program's decision-table
    /// scan over the sub-table, and applies `scheme` table-wide. Equivalent
    /// to the spec (`Program::check_row` / `execute_row`) on each row,
    /// restricted to the statements that bind.
    ///
    /// `Raise` does not abort here (a library cannot meaningfully panic on
    /// data errors): the violations are ordered by row, so callers abort on
    /// `violations.first()`, the first dirty row.
    ///
    /// An empty program returns the gathered rows untouched. Returns `None`
    /// when no statement of a non-empty program binds to `table`.
    pub fn vet_rows(&self, table: &Table, rows: &[usize], scheme: ErrorScheme) -> Option<BatchVet> {
        let sub = table.take(rows);
        if self.outcome.program.statements.is_empty() {
            return Some(self.vet(sub, scheme));
        }
        self.vet_traced(sub, scheme)
    }

    /// Dependent attribute names, deduplicated, in statement order: the
    /// only columns an error scheme ever writes.
    pub fn written_attributes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.outcome.program.statements {
            if !out.iter().any(|n| n == &s.on) {
                out.push(s.on.clone());
            }
        }
        out
    }

    /// [`vet_rows`](Guardrail::vet_rows) over only the columns the bound
    /// statements read or write (determinants and dependents, deduplicated,
    /// in first-use order), instead of the full row width. The returned
    /// [`BatchVet::table`] therefore holds *only* those columns; callers
    /// reconstruct full vetted rows by overlaying the [`BatchVet::written`]
    /// columns onto the raw rows. No scheme writes any other column, so the
    /// overlay is exact.
    ///
    /// Returns `None` when no statement binds to `table` (for the empty
    /// program there is nothing to gather).
    pub fn vet_rows_narrow(
        &self,
        table: &Table,
        rows: &[usize],
        scheme: ErrorScheme,
    ) -> Option<BatchVet> {
        let unbound = self.outcome.program.unbound(table.schema());
        let mut named = Vec::new();
        for (si, s) in self.outcome.program.statements.iter().enumerate() {
            if unbound.iter().any(|u| u.statement == si) {
                continue;
            }
            for name in s.given.iter().chain([&s.on]) {
                if !named.iter().any(|(n, _)| n == name) {
                    let col = table.column_by_name(name).expect("a bound statement's attribute");
                    named.push((name.clone(), col.take(rows)));
                }
            }
        }
        if named.is_empty() {
            return None;
        }
        let sub = Table::from_columns(named).expect("distinct columns of one table");
        let vet = self.vet_traced(sub, scheme)?;
        Some(BatchVet { unbound, ..vet })
    }

    /// [`vet`](Self::vet) over rows the query-time hooks gathered, under
    /// their `vet_rows` span. `None` when no statement binds to `sub`.
    fn vet_traced(&self, sub: Table, scheme: ErrorScheme) -> Option<BatchVet> {
        let mut vet_span = obs::span("vet_rows");
        vet_span.arg("rows", sub.num_rows() as u64);
        vet_span.arg("columns", sub.num_columns() as u64);
        let vet = self.vet(sub, scheme);
        if vet.unbound.len() == self.outcome.program.statements.len() {
            return None;
        }
        vet_span.arg("violations", vet.violations.len() as u64);
        vet_span.arg("legacy_statements", vet.legacy_statements as u64);
        Some(vet)
    }

    /// The body [`apply`](Self::apply), [`vet_rows`](Self::vet_rows) and
    /// [`vet_rows_narrow`](Self::vet_rows_narrow) share: compiles the
    /// statements that bind to `table`, scans it once, and applies `scheme`
    /// in place (`Coerce` nulls the cells of the violations that scan
    /// found). With no statement bound, `table` comes back untouched.
    fn vet(&self, mut table: Table, scheme: ErrorScheme) -> BatchVet {
        let compiled = self.compile(&table);
        let (mut violations, mut written, mut cells_changed) = (Vec::new(), Vec::new(), 0);
        if compiled.statement_count() > 0 {
            violations = compiled.check_table_parallel(&table, self.parallelism);
            if matches!(scheme, ErrorScheme::Coerce | ErrorScheme::Rectify) {
                let name = |c| table.schema().field(c).expect("bound column").name().to_string();
                written = compiled.written_columns().into_iter().map(name).collect();
            }
            cells_changed = match scheme {
                ErrorScheme::Raise | ErrorScheme::Ignore => 0,
                ErrorScheme::Coerce => compiled.coerce_violations(&mut table, &violations),
                ErrorScheme::Rectify => {
                    compiled.rectify_table_parallel(&mut table, self.parallelism)
                }
            };
        }
        let legacy_statements = compiled.legacy_statement_count();
        let unbound = compiled.unbound().to_vec();
        BatchVet { table, violations, legacy_statements, cells_changed, written, unbound }
    }

    /// Finds rows where rectification would be ambiguous: two or more
    /// matching branches of the bound statements assign *different*
    /// literals to the same attribute (the appendix-F "both attributes
    /// corrupted" regime, where blind rectification can cascade a wrong
    /// value). `apply(Rectify)` resolves such rows last-statement-wins;
    /// callers that prefer to quarantine them can exclude these rows first.
    /// Ordered by row, then attribute; candidates in branch order.
    pub fn conflicts(&self, table: &Table) -> Vec<RectifyConflict> {
        let compiled = self.compile(table);
        let mut proposed: BTreeMap<(usize, &str), Vec<Value>> = BTreeMap::new();
        for s in compiled.statements() {
            for b in s.branches() {
                for row in b.matching_rows(table) {
                    proposed.entry((row, &s.on_name)).or_default().push(b.literal.clone());
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

    /// The program compiled against `table`: the statements that bind, and
    /// the list of those that do not.
    fn compile(&self, table: &Table) -> CompiledProgram {
        CompiledProgram::compile(&self.outcome.program, table).expect(VALIDATED)
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
        Guardrail::fit(&clean_table(rows), &GuardrailConfig::default())
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
        assert_eq!(rep.affected_rows(), vec![0]);

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
        let narrow = g.vet_rows_narrow(&t, &[0], ErrorScheme::Rectify).unwrap();
        assert_eq!(narrow.table.to_csv_string(), expected);
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
    fn try_fit_rejects_oversized_schema_with_typed_error() {
        // 200 columns exceeds the graph substrate's 128-node capacity: fit
        // would panic, try_fit reports it as data.
        let header: Vec<String> = (0..200).map(|i| format!("c{i}")).collect();
        let csv = header.join(",") + "\n" + &vec!["1"; 200].join(",") + "\n";
        let t = Table::from_csv_str(&csv).unwrap();
        match Guardrail::try_fit(&t, &GuardrailConfig::default()) {
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
    fn builder_fit_matches_plain_fit_at_any_thread_count() {
        let table = clean_table(600);
        let baseline =
            Guardrail::builder().parallelism(Parallelism::Sequential).fit(&table).unwrap();
        for threads in [2, 8] {
            let g = Guardrail::builder()
                .parallelism(Parallelism::threads(threads))
                .fit(&table)
                .unwrap();
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
        assert!(g.vet_rows_narrow(&unrelated, &[0], ErrorScheme::Rectify).is_none());
        assert!(g.incremental(&unrelated).is_none());
    }

    #[test]
    fn fit_and_detect_read_a_persistent_store() {
        use guardrail_table::TableStore;
        let dir = std::env::temp_dir()
            .join(format!("guardrail-core-store-{}", std::process::id()))
            .join("store");
        let _ = std::fs::remove_dir_all(&dir);
        let store = TableStore::create(&dir, &clean_table(400)).unwrap();

        // A store serves its live relation as a plain table.
        let g = Guardrail::fit(store.table(), &GuardrailConfig::default());
        let from_table = Guardrail::fit(&clean_table(400), &GuardrailConfig::default());
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
