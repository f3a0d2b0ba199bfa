//! The [`Guardrail`] type.

use crate::error::GuardrailError;
use crate::report::{ApplyReport, DetectionReport};
use crate::scheme::{ErrorScheme, RowOutcome};
use guardrail_dsl::{CompiledProgram, IncrementalDetector, Program, Violation};
use guardrail_governor::{Budget, DegradationReport, Parallelism};
use guardrail_obs::{self as obs, PipelineReport};
use guardrail_synth::{synthesize_governed, SynthesisConfig, SynthesisOutcome};
use guardrail_table::{Row, Table, Value};

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
    /// `vet_rows_narrow` it holds only the attributes the program binds
    /// (determinants ∪ dependents).
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
/// ([`Guardrail::detect`] / [`Guardrail::apply`]), in batches at query time
/// ([`Guardrail::vet_rows_narrow`]), or one row at a time
/// ([`Guardrail::handle_row`]).
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

    /// Wraps a hand-written or previously synthesized program.
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

    /// Detects violations across `table` (Eqn. 1 applied row-wise). Row
    /// chunks are scanned on worker threads per the fit-time
    /// [`Parallelism`]; the report is bit-identical for any worker count.
    pub fn detect(&self, table: &Table) -> DetectionReport {
        let mut detect_span = obs::span("detect");
        detect_span.arg("rows", table.num_rows() as u64);
        let violations = match self.compile(table) {
            Some(compiled) => compiled.check_table_parallel(table, self.parallelism),
            None => Vec::new(),
        };
        detect_span.arg("violations", violations.len() as u64);
        DetectionReport { violations, rows_checked: table.num_rows() }
    }

    /// Starts incremental detection over an append-only `table`: compiles
    /// the fitted program, scans the rows present now, and returns a
    /// detector whose `detect_appended` probes only rows appended later.
    /// `None` when the program is empty or does not bind to the table's
    /// schema — the same regimes where [`detect`](Guardrail::detect)
    /// reports clean.
    pub fn incremental(&self, table: &Table) -> Option<IncrementalDetector> {
        if self.outcome.program.statements.is_empty() {
            return None;
        }
        IncrementalDetector::new(&self.outcome.program, table).ok()
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
        match self.vet(table.clone(), scheme) {
            Ok(vet) => {
                let report =
                    ApplyReport { violations: vet.violations, cells_changed: vet.cells_changed };
                (vet.table, report)
            }
            Err(out) => (out, ApplyReport::default()),
        }
    }

    /// Vets one incoming row under `scheme` through the value-level spec
    /// (`Program::check_row` / `execute_row`): the per-row form of the
    /// query-time hook of Fig. 1, for callers that hold one row at a time.
    /// The SQL executor vets whole scans with
    /// [`vet_rows_narrow`](Guardrail::vet_rows_narrow) instead.
    pub fn handle_row(&self, row: &Row, scheme: ErrorScheme) -> RowOutcome {
        let program = self.program();
        let violations = program.check_row(row);
        if violations.is_empty() {
            return RowOutcome::Clean(row.clone());
        }
        match scheme {
            ErrorScheme::Raise => RowOutcome::Raised(violations),
            ErrorScheme::Ignore => RowOutcome::Ignored(row.clone(), violations),
            ErrorScheme::Coerce => {
                let mut fixed = row.clone();
                for v in &violations {
                    fixed.set_by_name(&v.attribute, Value::Null);
                }
                RowOutcome::Coerced(fixed, violations)
            }
            ErrorScheme::Rectify => {
                let fixed = program.execute_row(row);
                RowOutcome::Rectified(fixed, violations)
            }
        }
    }

    /// Vets a batch of rows in one vectorized pass: gathers `rows` from
    /// `table` at full width, runs the compiled program's decision-table
    /// scan over the sub-table, and applies `scheme` table-wide. Equivalent
    /// to [`handle_row`](Guardrail::handle_row) on each row.
    ///
    /// `Raise` does not abort here (a library cannot meaningfully panic on
    /// data errors): the violations are ordered by row, so callers abort on
    /// `violations.first()`, the first dirty row.
    ///
    /// An empty program returns the gathered rows untouched. Returns `None`
    /// when the program references attributes `table` lacks.
    pub fn vet_rows(&self, table: &Table, rows: &[usize], scheme: ErrorScheme) -> Option<BatchVet> {
        let sub = table.take(rows);
        if self.outcome.program.statements.is_empty() {
            return Some(BatchVet {
                table: sub,
                violations: Vec::new(),
                legacy_statements: 0,
                cells_changed: 0,
                written: Vec::new(),
            });
        }
        self.vet_traced(sub, scheme)
    }

    /// Attribute names the fitted program reads or writes (determinants and
    /// dependents), deduplicated, in first-use order. The minimal column
    /// set [`vet_rows_narrow`](Guardrail::vet_rows_narrow) decodes.
    pub fn bound_attributes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.outcome.program.statements {
            for name in s.given.iter().chain(std::iter::once(&s.on)) {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
        }
        out
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

    /// [`vet_rows`](Guardrail::vet_rows) over only the columns the program
    /// reads or writes ([`bound_attributes`](Guardrail::bound_attributes)),
    /// instead of the full row width. The returned [`BatchVet::table`]
    /// therefore holds *only* those columns; callers reconstruct full
    /// vetted rows by overlaying the [`BatchVet::written`] columns onto
    /// the raw rows. No scheme writes any other column, so the overlay is
    /// exact.
    ///
    /// Returns `None` when the program is empty (there is nothing to
    /// gather) or references attributes `table` lacks.
    pub fn vet_rows_narrow(
        &self,
        table: &Table,
        rows: &[usize],
        scheme: ErrorScheme,
    ) -> Option<BatchVet> {
        if self.outcome.program.statements.is_empty() {
            return None;
        }
        let mut named = Vec::new();
        for name in self.bound_attributes() {
            let col = table.column_by_name(&name)?.take(rows);
            named.push((name, col));
        }
        self.vet_traced(Table::from_columns(named).ok()?, scheme)
    }

    /// [`vet`](Self::vet) over rows the query-time hooks gathered, under
    /// their `vet_rows` span. `None` when the program does not bind to
    /// `sub`.
    fn vet_traced(&self, sub: Table, scheme: ErrorScheme) -> Option<BatchVet> {
        let mut vet_span = obs::span("vet_rows");
        vet_span.arg("rows", sub.num_rows() as u64);
        vet_span.arg("columns", sub.num_columns() as u64);
        let vet = self.vet(sub, scheme).ok()?;
        vet_span.arg("violations", vet.violations.len() as u64);
        vet_span.arg("legacy_statements", vet.legacy_statements as u64);
        Some(vet)
    }

    /// The body [`apply`](Self::apply), [`vet_rows`](Self::vet_rows) and
    /// [`vet_rows_narrow`](Self::vet_rows_narrow) share: compiles the
    /// program against `table`, scans it once, and applies `scheme` in
    /// place (`Coerce` nulls the cells of the violations that scan found).
    /// `Err` hands `table` back untouched when the program is empty or does
    /// not bind to it.
    fn vet(&self, mut table: Table, scheme: ErrorScheme) -> Result<BatchVet, Table> {
        let Some(compiled) = self.compile(&table) else { return Err(table) };
        let violations = compiled.check_table_parallel(&table, self.parallelism);
        let (cells_changed, written) = match scheme {
            ErrorScheme::Raise | ErrorScheme::Ignore => (0, Vec::new()),
            ErrorScheme::Coerce => {
                (compiled.coerce_violations(&mut table, &violations), self.written_attributes())
            }
            ErrorScheme::Rectify => (
                compiled.rectify_table_parallel(&mut table, self.parallelism),
                self.written_attributes(),
            ),
        };
        let legacy_statements = compiled.legacy_statement_count();
        Ok(BatchVet { table, violations, legacy_statements, cells_changed, written })
    }

    /// Finds rows where rectification would be ambiguous: two or more
    /// matching branches assign *different* literals to the same attribute
    /// (the appendix-F "both attributes corrupted" regime, where blind
    /// rectification can cascade a wrong value). `apply(Rectify)` resolves
    /// such rows last-statement-wins; callers that prefer to quarantine them
    /// can exclude these rows first.
    pub fn conflicts(&self, table: &Table) -> Vec<RectifyConflict> {
        let mut out = Vec::new();
        let program = self.program();
        for row_idx in 0..table.num_rows() {
            let Some(row) = table.row_owned(row_idx) else { continue };
            // Collect every matching branch's (attribute, literal) pair.
            let mut assignments: std::collections::HashMap<&str, Vec<Value>> =
                std::collections::HashMap::new();
            for s in &program.statements {
                for b in &s.branches {
                    if b.condition.holds(&row) {
                        assignments.entry(s.on.as_str()).or_default().push(b.literal.clone());
                    }
                }
            }
            for (attr, literals) in assignments {
                let disagree = literals.windows(2).any(|w| w[0] != w[1]);
                if disagree {
                    out.push(RectifyConflict {
                        row: row_idx,
                        attribute: attr.to_string(),
                        candidates: literals,
                    });
                }
            }
        }
        out.sort_by(|a, b| a.row.cmp(&b.row).then(a.attribute.cmp(&b.attribute)));
        out
    }

    fn compile(&self, table: &Table) -> Option<CompiledProgram> {
        if self.outcome.program.statements.is_empty() {
            return None;
        }
        // Compilation fails only when the program references attributes the
        // table lacks; treat that as "no applicable constraints".
        CompiledProgram::compile(&self.outcome.program, table).ok()
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
    fn handle_row_outcomes() {
        let g = fitted(400);
        let dirty = Table::from_csv_str("zip,city,weather\n94704,gibbon,w0\n").unwrap();
        let row = dirty.row_owned(0).unwrap();

        match g.handle_row(&row, ErrorScheme::Raise) {
            RowOutcome::Raised(v) => assert!(!v.is_empty()),
            other => panic!("expected Raised, got {other:?}"),
        }
        match g.handle_row(&row, ErrorScheme::Rectify) {
            RowOutcome::Rectified(fixed, v) => {
                assert_eq!(fixed.get_by_name("city"), Some(&Value::from("Berkeley")));
                assert_eq!(v.len(), 1);
            }
            other => panic!("expected Rectified, got {other:?}"),
        }
        match g.handle_row(&row, ErrorScheme::Coerce) {
            RowOutcome::Coerced(fixed, _) => {
                assert_eq!(fixed.get_by_name("city"), Some(&Value::Null));
            }
            other => panic!("expected Coerced, got {other:?}"),
        }

        let clean = Table::from_csv_str("zip,city,weather\n94704,Berkeley,w0\n").unwrap();
        let outcome = g.handle_row(&clean.row_owned(0).unwrap(), ErrorScheme::Raise);
        assert!(outcome.is_clean());
        assert!(outcome.violations().is_empty());
        assert!(outcome.row().is_some());
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
        match g.handle_row(&t.row_owned(0).unwrap(), ErrorScheme::Rectify) {
            RowOutcome::Rectified(fixed, _) => {
                assert_eq!(fixed.get_by_name("state"), Some(&Value::from("CA")));
            }
            other => panic!("expected Rectified, got {other:?}"),
        }
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
    fn schema_mismatch_degrades_gracefully() {
        let g = fitted(300);
        let unrelated = Table::from_csv_str("x,y\n1,2\n").unwrap();
        assert!(g.detect(&unrelated).is_clean());
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
