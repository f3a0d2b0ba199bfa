//! The DSL interpreter: denotational semantics over rows and tables.
//!
//! One semantics, three evaluators with distinct jobs:
//!
//! * **Spec (value-level)** — [`Program::check_row`] /
//!   [`Program::execute_row`] interpret a program over one owned [`Row`]
//!   by name: the denotation `⟦p⟧t` of §2.2. They have no production
//!   caller: they are the oracle every other evaluator is tested against.
//! * **Engine (code-level, production)** — [`CompiledProgram`] compiles a
//!   program once, against its own literals: per attribute, a code space of
//!   the distinct literals the program names plus one *other* digit for
//!   every value it does not name, and per statement the
//!   [decision tables](crate::engine) over those digits. No table is
//!   consulted, so one compiled program serves every table. A scan binds a
//!   table by name ([`CompiledProgram::bind`]; [`Program::unbound`] decides
//!   which statements bind) and translates each bound column's dictionary
//!   into code-space digits, at O(distinct values) per column; bulk scans
//!   then pack the translated determinant digits into keys and do one
//!   lookup + one compare per row. [`CompiledProgram::check_table`],
//!   [`CompiledProgram::rectify_table`], their `_parallel` variants,
//!   [`CompiledProgram::coerce_violations`] (which nulls the cells a check
//!   found) and [`CompiledProgram::implied_assignments`] all run on it.
//! * **References (code-level, test-only)** —
//!   [`CompiledProgram::check_table_reference`] /
//!   [`CompiledProgram::rectify_table_reference`] walk branches over the
//!   scanned table's codes, resolving every literal against that table's
//!   own dictionaries ([`matching_rows`](crate::Condition::matching_rows))
//!   and sharing no translation with the engine. They have no production
//!   caller; the differential suites compare the engine against them and
//!   the spec.
//!
//! # Dictionaries that grow
//!
//! A translation covers the codes a column's dictionary held when it was
//! made. When the dictionary grows — a rectify write interns a literal, an
//! append interns a value — the scan extends the translation by the new
//! values before it reads the column again. That one rule lets a chained
//! repair (`zip → city → state` where the repaired city was absent from the
//! batch) and incremental detection over appends give the spec's answer.

use crate::ast::{Program, Unbound};
use crate::engine::{Attribute, Codes, DetectScratch, KeyBuf, RawViolation, Scan, StatementEngine};
use crate::error::DslError;
use guardrail_governor::{parallel_chunks, Parallelism};
use guardrail_obs as obs;
use guardrail_table::{Code, Dictionary, Row, Schema, Table, Value, NULL_CODE};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Rows per work item in the chunk-parallel table scans: coarse enough that
/// per-chunk bookkeeping is negligible, fine enough that mid-size tables
/// still split across workers (and that per-chunk key buffers stay
/// cache-resident).
pub const ROW_CHUNK: usize = 4096;

thread_local! {
    /// Per-thread scan scratch: key and raw-violation buffers warm up to
    /// chunk size and are reused across chunks, statements, and calls.
    static SCRATCH: RefCell<DetectScratch> = RefCell::new(DetectScratch::default());
}

/// One detected constraint violation: executing branch `branch` of statement
/// `statement` on row `row` would assign `expected`, but the row holds
/// `actual` (Eqn. 1's `⟦p⟧t ≠ t`).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Row index in the checked table (0 for single-row checks).
    pub row: usize,
    /// Statement index within the program.
    pub statement: usize,
    /// Branch index within the statement.
    pub branch: usize,
    /// The dependent attribute. Interned once per compiled program:
    /// emitting a violation bumps a refcount instead of copying the name.
    pub attribute: Arc<str>,
    /// Value the DGP program assigns.
    pub expected: Value,
    /// Value found in the data.
    pub actual: Value,
}

/// A compiled program bound to one schema: the compiled statements that
/// bind to it, in program order, plus the ones that do not.
///
/// The compiled part (code spaces and decision tables) is built once and
/// shared by every binding; [`bind`](Self::bind) only resolves names.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    core: Arc<Core>,
    /// Per program attribute, its column in the bound schema.
    columns: Vec<Option<usize>>,
    statements: Vec<CompiledStatement>,
    /// The program's statements that do not bind to the schema.
    unbound: Vec<Unbound>,
    /// Fit-time violation rate per compiled statement (violations ÷ rows
    /// observed on the training scan), recorded by `IncrementalDetector`
    /// and read by `drift::DriftMonitor` as the drift baseline. `None` until
    /// a full scan has established it.
    baseline_rates: Option<Arc<[f64]>>,
}

/// The table-free part of a compiled program.
#[derive(Debug)]
struct Core {
    program: Program,
    /// The program's attributes in first-use order, each with its code
    /// space.
    attributes: Vec<Attribute>,
    /// One decision-table engine per program statement.
    engines: Vec<StatementEngine>,
}

/// A compiled statement, as bound to a schema.
#[derive(Debug, Clone)]
pub struct CompiledStatement {
    /// Index of this statement in the source program.
    pub statement_index: usize,
    /// Column index of the dependent attribute in the bound schema.
    pub on_col: usize,
    /// Dependent attribute name (interned for violation reporting).
    pub on_name: Arc<str>,
}

impl CompiledProgram {
    /// Compiles `program` against its own literals, bound to its own
    /// attributes (every statement binds; `on_col` indexes the program's
    /// attributes in first-use order). Fails only when `program` does not
    /// validate.
    pub fn new(program: &Program) -> Result<Self, DslError> {
        program.validate()?;
        let mut attributes: Vec<Attribute> = Vec::new();
        let mut attribute = |name: &str| match attributes.iter().position(|a| &*a.name == name) {
            Some(a) => a,
            None => {
                attributes.push(Attribute { name: Arc::from(name), space: Dictionary::new() });
                attributes.len() - 1
            }
        };
        let mut literals = Vec::new();
        for s in &program.statements {
            for g in &s.given {
                attribute(g);
            }
            let on = attribute(&s.on);
            for b in &s.branches {
                for (name, lit) in b.condition.conjuncts() {
                    literals.push((attribute(name), lit));
                }
                literals.push((on, &b.literal));
            }
        }
        for (a, lit) in literals {
            attributes[a].space.encode(lit.clone());
        }
        let engines =
            program.statements.iter().map(|s| StatementEngine::build(s, &attributes)).collect();
        let columns = (0..attributes.len()).map(Some).collect();
        let core = Core { program: program.clone(), attributes, engines };
        Ok(Self::bound(Arc::new(core), columns, Vec::new()))
    }

    /// Compiles the statements of `program` that bind to `table`, listing
    /// the rest in [`unbound`](Self::unbound): [`new`](Self::new) bound to
    /// `table`'s schema. Fails only when `program` does not validate.
    pub fn compile(program: &Program, table: &Table) -> Result<Self, DslError> {
        Ok(Self::new(program)?.bind(table.schema()))
    }

    /// This compiled program bound to `schema` by name: the statements
    /// that bind run on tables of that schema, the rest are listed in
    /// [`unbound`](Self::unbound). Resolves names only; nothing is
    /// recompiled.
    pub fn bind(&self, schema: &Schema) -> Self {
        let columns = self.core.attributes.iter().map(|a| schema.index_of(&a.name)).collect();
        Self::bound(Arc::clone(&self.core), columns, self.core.program.unbound(schema))
    }

    /// The binding that resolves attribute `a` to `columns[a]`, with the
    /// statements listed in `unbound` left out.
    fn bound(core: Arc<Core>, columns: Vec<Option<usize>>, unbound: Vec<Unbound>) -> Self {
        let statements = core
            .engines
            .iter()
            .enumerate()
            .filter(|(si, _)| unbound.iter().all(|u| u.statement != *si))
            .map(|(si, e)| CompiledStatement {
                statement_index: si,
                on_col: columns[e.on].expect("a bound statement's attribute"),
                on_name: Arc::clone(&core.attributes[e.on].name),
            })
            .collect();
        Self { core, columns, statements, unbound, baseline_rates: None }
    }

    /// Compiled statements: the program's statements that bind, in order.
    pub fn statements(&self) -> &[CompiledStatement] {
        &self.statements
    }

    /// The program's statements that do not bind to the bound schema.
    pub fn unbound(&self) -> &[Unbound] {
        &self.unbound
    }

    /// Position in [`statements`](Self::statements) of program statement
    /// `statement`, which must be bound.
    pub(crate) fn position(&self, statement: usize) -> usize {
        self.statements.partition_point(|s| s.statement_index < statement)
    }

    /// Records the fit-time per-statement violation rates (the drift
    /// baseline). `rates` must be aligned with
    /// [`statements`](Self::statements); extra or missing entries are a
    /// caller bug but are tolerated (the drift monitor compares only the
    /// common prefix).
    pub fn set_baseline_rates(&mut self, rates: Vec<f64>) {
        self.baseline_rates = Some(rates.into());
    }

    /// Fit-time per-statement violation rates, if a training scan has
    /// recorded them (see [`set_baseline_rates`](Self::set_baseline_rates)).
    pub fn baseline_rates(&self) -> Option<&[f64]> {
        self.baseline_rates.as_deref()
    }

    /// Number of statements in the compiled program.
    pub fn statement_count(&self) -> usize {
        self.statements.len()
    }

    /// Number of bound statements whose branches mix pinned-column sets, so
    /// that each row is looked up in more than one decision table. Zero for
    /// every synthesized program (the synthesizer pins every determinant in
    /// every branch).
    pub fn legacy_statement_count(&self) -> usize {
        self.statements.iter().filter(|s| self.engine(s).scans_several_tables()).count()
    }

    pub(crate) fn engine(&self, s: &CompiledStatement) -> &StatementEngine {
        &self.core.engines[s.statement_index]
    }

    /// Extends `codes` with the translation of every bound column's codes
    /// that `table`'s dictionaries interned since `codes` was last extended
    /// (all of them for empty `codes`).
    pub(crate) fn translate(&self, table: &Table, codes: &mut Codes) {
        codes.resize_with(self.columns.len(), Vec::new);
        for ((attribute, col), out) in self.core.attributes.iter().zip(&self.columns).zip(codes) {
            if let Some(column) = col.and_then(|c| table.column(c)) {
                attribute.translate(column.dictionary(), out);
            }
        }
    }

    /// `table` as a scan of this binding sees it, through `codes`.
    pub(crate) fn scan<'a>(&'a self, table: &'a Table, codes: &'a Codes) -> Scan<'a> {
        Scan { table, columns: &self.columns, codes }
    }

    /// The planner's entailment probe: values forced onto dependent columns
    /// by rectification, given that every row satisfies `pinned` (equality
    /// pins `(column, value)` on the bound table, e.g. pushed-down SQL
    /// `col = literal` conjuncts).
    ///
    /// Returns `(column, value)` pairs such that **after
    /// `rectify`** every row satisfying all of `pinned` holds exactly
    /// `value` in `column`. The proof reads the compiled decision tables —
    /// the same keys the bulk scan uses — so no separate solver exists to
    /// disagree with the runtime:
    ///
    /// * pins on columns the program itself writes are discarded (their
    ///   pinned value is the *raw* value, which rectification may change);
    /// * a statement whose conditioned columns are all pinned looks up one
    ///   key per decision table: the last covering branch's literal is the
    ///   cascade's final value, forced regardless of the column's prior
    ///   state, and an uncovered key leaves the prior state alone;
    /// * a statement with an unpinned conditioned column may or may not
    ///   fire per row, so it taints its dependent.
    ///
    /// Statements are composed in program order, mirroring the rectify
    /// cascade. The result is conservative: absence of a pair means
    /// "unknown", never "known different".
    pub fn implied_assignments(
        &self,
        table: &Table,
        pinned: &[(usize, Value)],
    ) -> Vec<(usize, Value)> {
        let written: Vec<usize> = self.statements.iter().map(|s| s.on_col).collect();
        let pinned: Vec<(usize, &Value)> = pinned
            .iter()
            .filter(|(col, _)| !written.contains(col))
            .map(|(col, v)| (*col, v))
            .collect();
        // Per dependent column: `Some(value)` = determined, `None` = tainted.
        // Columns never touched stay out of the map entirely.
        let mut state: Vec<(usize, Option<Value>)> = Vec::new();
        for stmt in &self.statements {
            let effect = self.statement_effect(stmt, table, &pinned);
            let slot = match state.iter_mut().find(|(col, _)| *col == stmt.on_col) {
                Some((_, v)) => v,
                None => {
                    state.push((stmt.on_col, None));
                    &mut state.last_mut().expect("just pushed").1
                }
            };
            match effect {
                // A determined write overrides whatever came before.
                Some(Some(value)) => *slot = Some(value),
                // Uncovered: the prior state (raw column on first touch,
                // which is unknown → tainted) flows through.
                Some(None) => {}
                // Unknown effect taints the column.
                None => *slot = None,
            }
        }
        state.into_iter().filter_map(|(col, v)| v.map(|value| (col, value))).collect()
    }

    /// The effect of one statement on its dependent column when every row
    /// satisfies `pinned`: `Some(Some(v))` forces `v`, `Some(None)` leaves
    /// the column untouched, `None` is unknown.
    fn statement_effect(
        &self,
        stmt: &CompiledStatement,
        table: &Table,
        pinned: &[(usize, &Value)],
    ) -> Option<Option<Value>> {
        // Every conditioned column must be pinned. A pin on a value the
        // table never interned takes the other digit: no row can carry the
        // value, so any conclusion is vacuous (and therefore sound).
        let engine = self.engine(stmt);
        let mut digits: Vec<(usize, u32)> = Vec::with_capacity(engine.pinned.len());
        for &attr in &engine.pinned {
            let col = self.columns[attr].expect("a bound statement's attribute");
            let (_, value) = pinned.iter().find(|&&(c, _)| c == col)?;
            let attribute = &self.core.attributes[attr];
            let interned = table.column(col).expect("bound column").dictionary().lookup(value);
            let other = attribute.space.len() as u32 + 1;
            digits.push((attr, interned.map_or(other, |_| attribute.digit_of(value))));
        }
        let last = engine.last_covering(|attr| {
            digits.iter().find(|&&(a, _)| a == attr).expect("every attribute pinned").1
        });
        Some(last.map(|bi| {
            // The value rectify writes: the dictionary's representative of
            // the literal, or the literal itself when it is not interned.
            let literal =
                &self.core.program.statements[stmt.statement_index].branches[bi as usize].literal;
            let dictionary = table.column(stmt.on_col).expect("bound column").dictionary();
            dictionary.lookup(literal).map_or_else(|| literal.clone(), |c| dictionary.decode(c))
        }))
    }

    /// All violations across the table's rows (vectorized decision-table
    /// scan).
    pub fn check_table(&self, table: &Table) -> Vec<Violation> {
        self.check_table_parallel(table, Parallelism::Sequential)
    }

    /// [`check_table`](Self::check_table) with row chunks scanned on worker
    /// threads. Checking only reads the table, so chunks are independent;
    /// per-chunk violation lists concatenate in range order, making the
    /// output bit-identical to the sequential scan for any worker count.
    pub fn check_table_parallel(&self, table: &Table, parallelism: Parallelism) -> Vec<Violation> {
        let mut check_span = obs::span("check_table");
        check_span.arg("rows", table.num_rows() as u64);
        check_span.arg("statements", self.statements.len() as u64);
        check_span.arg("legacy_statements", self.legacy_statement_count() as u64);
        let mut codes = Codes::new();
        self.translate(table, &mut codes);
        let scan = self.scan(table, &codes);
        let per_chunk = parallel_chunks(parallelism, table.num_rows(), ROW_CHUNK, &|range| {
            let mut chunk_span = obs::span("detect_chunk");
            chunk_span.arg("rows", range.len() as u64);
            SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                let DetectScratch { keys, raw, .. } = &mut *scratch;
                raw.clear();
                self.check_chunk_raw(scan, range, keys, raw);
                chunk_span.arg("violations", raw.len() as u64);
                raw.iter().map(|r| self.raw_to_violation(table, r)).collect::<Vec<_>>()
            })
        });
        let violations = per_chunk.concat();
        check_span.arg("violations", violations.len() as u64);
        violations
    }

    /// Allocation-free core of the vectorized scan: fills `out` with the
    /// table's violations in index form (same order as
    /// [`check_table`](Self::check_table)), reusing `out`'s and `scratch`'s
    /// buffers, the column translations included. Once those are warm,
    /// detection performs **zero** heap allocation — no name interning, no
    /// value decoding, no per-chunk lists.
    pub fn check_table_raw_into(
        &self,
        table: &Table,
        out: &mut Vec<RawViolation>,
        scratch: &mut DetectScratch,
    ) {
        out.clear();
        let mut check_span = obs::span("check_table");
        check_span.arg("rows", table.num_rows() as u64);
        let DetectScratch { keys, codes, .. } = scratch;
        codes.iter_mut().for_each(Vec::clear);
        self.translate(table, codes);
        let scan = self.scan(table, codes);
        let rows = table.num_rows();
        let mut start = 0;
        while start < rows {
            let end = (start + ROW_CHUNK).min(rows);
            let mut chunk_span = obs::span("detect_chunk");
            chunk_span.arg("rows", (end - start) as u64);
            self.check_chunk_raw(scan, start..end, keys, out);
            start = end;
        }
        check_span.arg("violations", out.len() as u64);
    }

    /// Scans one row chunk statement-by-statement, then sorts the appended
    /// segment into `(row, statement, branch)` order.
    pub(crate) fn check_chunk_raw(
        &self,
        scan: Scan<'_>,
        range: Range<usize>,
        keys: &mut KeyBuf,
        out: &mut Vec<RawViolation>,
    ) {
        let start = out.len();
        for s in &self.statements {
            self.engine(s).check_range(s.statement_index as u32, scan, range.clone(), keys, out);
        }
        out[start..].sort_unstable();
    }

    /// Upgrades a raw violation at the API boundary: one `Arc` bump for the
    /// attribute name, one dictionary decode for the offending cell.
    pub(crate) fn raw_to_violation(&self, table: &Table, raw: &RawViolation) -> Violation {
        let s = &self.statements[self.position(raw.statement as usize)];
        let branch = raw.branch as usize;
        let col = table.column(s.on_col).expect("bound column");
        Violation {
            row: raw.row,
            statement: s.statement_index,
            branch,
            attribute: s.on_name.clone(),
            expected: self.core.program.statements[s.statement_index].branches[branch]
                .literal
                .clone(),
            actual: col.dictionary().decode(col.code(raw.row)),
        }
    }

    /// Branch-at-a-time detection over the scanned table's own codes: the
    /// test oracle for [`check_table`](Self::check_table) (no production
    /// caller). Each branch's literals are resolved against `table`'s
    /// dictionaries ([`matching_rows`](crate::Condition::matching_rows)),
    /// as a compile against `table` would resolve them.
    pub fn check_table_reference(&self, table: &Table) -> Vec<Violation> {
        let mut out = Vec::new();
        for s in &self.statements {
            let statement = &self.core.program.statements[s.statement_index];
            let on = table.column_by_name(&statement.on).expect("bound column");
            for (bi, b) in statement.branches.iter().enumerate() {
                // `None`: the literal was never interned in this table, so
                // every matching row disagrees with the assignment.
                let literal = on.dictionary().lookup(&b.literal);
                for row in b.condition.matching_rows(table) {
                    if Some(on.code(row)) != literal {
                        out.push(Violation {
                            row,
                            statement: s.statement_index,
                            branch: bi,
                            attribute: s.on_name.clone(),
                            expected: b.literal.clone(),
                            actual: on.dictionary().decode(on.code(row)),
                        });
                    }
                }
            }
        }
        out.sort_by_key(|v| (v.row, v.statement, v.branch));
        out
    }

    /// Distinct row indices with at least one violation.
    pub fn violating_rows(&self, table: &Table) -> Vec<usize> {
        let mut rows: Vec<usize> = self.check_table(table).into_iter().map(|v| v.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Executes the program over the whole table **in place**: every matching
    /// branch writes its literal into the dependent cell (the paper's
    /// `rectify` scheme). Returns the number of cells changed.
    pub fn rectify_table(&self, table: &mut Table) -> usize {
        self.rectify_table_parallel(table, Parallelism::Sequential)
    }

    /// [`rectify_table`](Self::rectify_table) with row chunks scanned on
    /// worker threads, on the decision-table engine.
    ///
    /// Statements stay sequential — later statements must see earlier
    /// statements' writes (chained repairs, e.g. fix `city` then derive
    /// `state` from the corrected `city`), so each statement re-packs its
    /// determinant keys from the updated table, after extending the column
    /// translations by any literal an earlier write interned. Within one
    /// statement every row is independent: validated programs never read a
    /// statement's dependent column in its own conditions, so the per-row
    /// branch cascade at a covered key is a static function of the key —
    /// workers scan an immutable snapshot and push `(row, code)` write lists
    /// that a sequential pass applies in range order. Cell contents and the
    /// returned change count are bit-identical to
    /// [`rectify_table_reference`](Self::rectify_table_reference) for any
    /// worker count.
    pub fn rectify_table_parallel(&self, table: &mut Table, parallelism: Parallelism) -> usize {
        let mut rect_span = obs::span("rectify_table");
        rect_span.arg("rows", table.num_rows() as u64);
        rect_span.arg("statements", self.statements.len() as u64);
        rect_span.arg("legacy_statements", self.legacy_statement_count() as u64);
        let mut codes = Codes::new();
        let mut changed = 0;
        for s in &self.statements {
            let engine = self.engine(s);
            let rect = engine.rect_entries(&self.intern_branch_codes(s, table));
            self.translate(table, &mut codes);
            let per_chunk: Vec<(usize, Vec<(usize, Code)>)> = {
                let scan = self.scan(table, &codes);
                parallel_chunks(parallelism, table.num_rows(), ROW_CHUNK, &|range| {
                    let mut chunk_span = obs::span("rectify_chunk");
                    chunk_span.arg("rows", range.len() as u64);
                    SCRATCH.with(|scratch| {
                        let mut scratch = scratch.borrow_mut();
                        let mut writes: Vec<(usize, Code)> = Vec::new();
                        let delta = engine.rectify_range(
                            scan,
                            range,
                            &rect,
                            &mut scratch.keys,
                            &mut writes,
                        );
                        chunk_span.arg("cells_changed", delta as u64);
                        (delta, writes)
                    })
                })
            };
            for (delta, writes) in per_chunk {
                changed += delta;
                let col = table.column_mut(s.on_col).expect("bound column");
                for (row, code) in writes {
                    col.set_code(row, code);
                }
            }
        }
        rect_span.arg("cells_changed", changed as u64);
        changed
    }

    /// Branch-at-a-time rectify over the scanned table's own codes: the test
    /// oracle for [`rectify_table_parallel`](Self::rectify_table_parallel)
    /// (no production caller). Statement by statement, it resolves each
    /// branch against the dictionaries as earlier writes left them, then
    /// runs every matching row's branch cascade.
    pub fn rectify_table_reference(&self, table: &mut Table) -> usize {
        let mut changed = 0;
        for s in &self.statements {
            let branch_codes = self.intern_branch_codes(s, table);
            let statement = &self.core.program.statements[s.statement_index];
            let on = table.column_by_name(&statement.on).expect("bound column");
            let mut cells = on.codes().to_vec();
            for (b, &code) in statement.branches.iter().zip(&branch_codes) {
                for row in b.condition.matching_rows(table) {
                    if cells[row] != code {
                        cells[row] = code;
                        changed += 1;
                    }
                }
            }
            let col = table.column_mut(s.on_col).expect("bound column");
            for (row, code) in cells.into_iter().enumerate() {
                col.set_code(row, code);
            }
        }
        changed
    }

    /// Interns a statement's branch literals once so new values (absent
    /// from this table's dictionary) can be written.
    fn intern_branch_codes(&self, s: &CompiledStatement, table: &mut Table) -> Vec<Code> {
        let col = table.column_mut(s.on_col).expect("bound column");
        let branches = &self.core.program.statements[s.statement_index].branches;
        branches.iter().map(|b| col.dictionary_mut().encode(b.literal.clone())).collect()
    }

    /// The paper's `coerce` scheme: nulls the dependent cell of each of
    /// `violations` — a scan of this same `table` — without scanning again.
    /// Returns the number of cells coerced (a cell already `Null`, or named
    /// twice, counts once).
    pub fn coerce_violations(&self, table: &mut Table, violations: &[Violation]) -> usize {
        let mut coerce_span = obs::span("coerce_violations");
        coerce_span.arg("rows", table.num_rows() as u64);
        let mut coerced = 0;
        for v in violations {
            let s = &self.statements[self.position(v.statement)];
            let col = table.column_mut(s.on_col).expect("bound column");
            if col.code(v.row) != NULL_CODE {
                col.set_code(v.row, NULL_CODE);
                coerced += 1;
            }
        }
        coerce_span.arg("cells_coerced", coerced as u64);
        coerced
    }
}

impl Program {
    /// Denotational execution on an owned row: `⟦p⟧t = t'`. Branches whose
    /// conditions match assign their literal; everything else is untouched.
    /// Later statements see earlier statements' assignments.
    pub fn execute_row(&self, row: &Row) -> Row {
        let mut out = row.clone();
        for s in &self.statements {
            for b in &s.branches {
                if b.condition.holds(&out) {
                    out.set_by_name(&b.target, b.literal.clone());
                }
            }
        }
        out
    }

    /// Violations of this program on a single row (value-level spec; the
    /// test oracle). The reported `row` index is 0.
    pub fn check_row(&self, row: &Row) -> Vec<Violation> {
        let mut out = Vec::new();
        for (si, s) in self.statements.iter().enumerate() {
            for (bi, b) in s.branches.iter().enumerate() {
                if b.condition.holds(row) {
                    let actual = row.get_by_name(&s.on).cloned().unwrap_or(Value::Null);
                    if actual != b.literal {
                        out.push(Violation {
                            row: 0,
                            statement: si,
                            branch: bi,
                            attribute: Arc::from(s.on.as_str()),
                            expected: b.literal.clone(),
                            actual,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn zip_table() -> Table {
        Table::from_csv_str("zip,city\n94704,Berkeley\n94704,gibbon\n97201,Portland\n10001,NYC\n")
            .unwrap()
    }

    fn zip_program() -> Program {
        parse_program(
            r#"GIVEN zip ON city HAVING
                   IF zip = 94704 THEN city <- "Berkeley";
                   IF zip = 97201 THEN city <- "Portland";"#,
        )
        .unwrap()
    }

    #[test]
    fn detects_paper_example_error() {
        let table = zip_table();
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        let violations = compiled.check_table(&table);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(v.row, 1);
        assert_eq!(&*v.attribute, "city");
        assert_eq!(v.expected, Value::from("Berkeley"));
        assert_eq!(v.actual, Value::from("gibbon"));
        assert_eq!(compiled.violating_rows(&table), vec![1]);
    }

    /// A program compiled against one table gives the spec's answer on
    /// another whose dictionary numbers the same values differently.
    #[test]
    fn a_compiled_program_answers_like_the_spec_on_every_table() {
        let program = zip_program();
        let train = Table::from_csv_str("zip,city\n94704,Berkeley\n97201,Portland\n").unwrap();
        let clean =
            Table::from_csv_str("zip,city\n10001,Berkeley\n94704,Berkeley\n97201,Portland\n")
                .unwrap();
        for row in 0..clean.num_rows() {
            assert!(program.check_row(&clean.row_owned(row).unwrap()).is_empty(), "row {row}");
        }
        for compiled in [
            CompiledProgram::compile(&program, &train).unwrap(),
            CompiledProgram::compile(&program, &clean).unwrap(),
        ] {
            assert_eq!(compiled.check_table(&clean), []);
            assert_eq!(compiled.check_table_reference(&clean), []);
            let mut rectified = clean.clone();
            assert_eq!(compiled.rectify_table(&mut rectified), 0);
            assert_eq!(rectified.to_csv_string(), clean.to_csv_string());
        }
    }

    #[test]
    fn uncovered_rows_are_not_flagged() {
        let table = zip_table();
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        // Row 3 (zip 10001) matches no branch — never a violation.
        assert!(compiled.check_table(&table).iter().all(|v| v.row != 3));
    }

    #[test]
    fn rectify_fixes_and_is_idempotent() {
        let mut table = zip_table();
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        let changed = compiled.rectify_table(&mut table);
        assert_eq!(changed, 1);
        assert_eq!(table.get(1, 1), Some(Value::from("Berkeley")));
        // Idempotent: second run changes nothing.
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        assert_eq!(compiled.rectify_table(&mut table), 0);
        assert!(compiled.check_table(&table).is_empty());
    }

    #[test]
    fn rectify_interns_unseen_literal() {
        let mut table = Table::from_csv_str("zip,city\n94704,gibbon\n").unwrap();
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        assert_eq!(compiled.rectify_table(&mut table), 1);
        assert_eq!(table.get(0, 1), Some(Value::from("Berkeley")));
    }

    #[test]
    fn coerce_nulls_bad_cells() {
        let mut table = zip_table();
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        let violations = compiled.check_table(&table);
        assert_eq!(compiled.coerce_violations(&mut table, &violations), 1);
        assert_eq!(table.get(1, 1), Some(Value::Null));
        // clean rows untouched
        assert_eq!(table.get(0, 1), Some(Value::from("Berkeley")));
    }

    #[test]
    fn row_level_execute_matches_eqn1() {
        let program = zip_program();
        let table = zip_table();
        let bad = table.row_owned(1).unwrap();
        let fixed = program.execute_row(&bad);
        assert_eq!(fixed.get_by_name("city"), Some(&Value::from("Berkeley")));
        assert_ne!(&fixed, &bad, "⟦p⟧t ≠ t flags the error");
        let good = table.row_owned(0).unwrap();
        assert_eq!(program.execute_row(&good), good);
    }

    #[test]
    fn row_level_check() {
        let program = zip_program();
        let table = zip_table();
        assert_eq!(program.check_row(&table.row_owned(1).unwrap()).len(), 1);
        assert!(program.check_row(&table.row_owned(0).unwrap()).is_empty());
        assert!(program.check_row(&table.row_owned(3).unwrap()).is_empty());
    }

    #[test]
    fn literal_absent_from_dictionary_matches_nothing() {
        let table = Table::from_csv_str("zip,city\n11111,Nowhere\n").unwrap();
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        assert!(compiled.check_table(&table).is_empty());
    }

    #[test]
    fn expected_literal_absent_flags_matching_rows() {
        // Condition matches but "Berkeley" is not in this table's dictionary.
        let table = Table::from_csv_str("zip,city\n94704,Oakland\n").unwrap();
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        let violations = compiled.check_table(&table);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].expected, Value::from("Berkeley"));
    }

    #[test]
    fn unbound_statements_are_skipped_and_listed() {
        let table = Table::from_csv_str("a,b\n1,2\n").unwrap();
        let compiled = CompiledProgram::compile(&zip_program(), &table).unwrap();
        assert_eq!(compiled.statement_count(), 0);
        let missing = vec!["zip".to_string(), "city".to_string()];
        assert_eq!(compiled.unbound(), [Unbound { statement: 0, missing }]);
        // Statement 1 binds past an unbound statement 0: violations keep
        // their program statement index.
        let program = parse_program(
            r#"GIVEN state ON city HAVING IF state = "CA" THEN city <- "Berkeley";
               GIVEN zip ON city HAVING IF zip = 94704 THEN city <- "Berkeley";"#,
        )
        .unwrap();
        let mut table = zip_table();
        let compiled = CompiledProgram::compile(&program, &table).unwrap();
        assert_eq!(compiled.unbound(), [Unbound { statement: 0, missing: vec!["state".into()] }]);
        let violations = compiled.check_table(&table);
        assert_eq!((violations.len(), violations[0].statement), (1, 1));
        assert_eq!(compiled.coerce_violations(&mut table, &violations), 1);
    }

    /// A few-thousand-row table over (zip, city, state) with injected noise,
    /// plus a two-statement chained-repair program.
    fn noisy_chain() -> (Table, Program) {
        let cities = ["Berkeley", "Portland", "NYC"];
        let states = ["CA", "OR", "NY"];
        let mut csv = String::from("zip,city,state\n");
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..5000 {
            let z = (rng() % 3) as usize;
            let city = if rng() % 10 == 0 { "gibbon" } else { cities[z] };
            let state = if rng() % 10 == 0 { "XX" } else { states[z] };
            csv.push_str(&format!("{},{city},{state}\n", 94704 + z));
        }
        let table = Table::from_csv_str(&csv).unwrap();
        let program = parse_program(
            r#"GIVEN zip ON city HAVING
                   IF zip = 94704 THEN city <- "Berkeley";
                   IF zip = 94705 THEN city <- "Portland";
                   IF zip = 94706 THEN city <- "NYC";
               GIVEN city ON state HAVING
                   IF city = "Berkeley" THEN state <- "CA";
                   IF city = "Portland" THEN state <- "OR";
                   IF city = "NYC" THEN state <- "NY";"#,
        )
        .unwrap();
        (table, program)
    }

    fn assert_same_cells(a: &Table, b: &Table, context: &str) {
        assert_eq!(a.num_rows(), b.num_rows(), "{context}");
        assert_eq!(a.num_columns(), b.num_columns(), "{context}");
        for row in 0..a.num_rows() {
            for col in 0..a.num_columns() {
                assert_eq!(a.get(row, col), b.get(row, col), "{context}: cell ({row},{col})");
            }
        }
    }

    #[test]
    fn parallel_check_is_bit_identical() {
        let (table, program) = noisy_chain();
        let compiled = CompiledProgram::compile(&program, &table).unwrap();
        let seq = compiled.check_table(&table);
        assert!(!seq.is_empty());
        for threads in [2, 3, 8, 64] {
            let par = compiled.check_table_parallel(&table, Parallelism::threads(threads));
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn parallel_rectify_is_bit_identical() {
        let (table, program) = noisy_chain();
        for threads in [2, 3, 8, 64] {
            let mut seq_table = table.clone();
            let mut par_table = table.clone();
            let seq_changed = CompiledProgram::compile(&program, &seq_table)
                .unwrap()
                .rectify_table(&mut seq_table);
            let par_changed = CompiledProgram::compile(&program, &par_table)
                .unwrap()
                .rectify_table_parallel(&mut par_table, Parallelism::threads(threads));
            assert!(seq_changed > 0);
            assert_eq!(seq_changed, par_changed, "{threads} threads: change count");
            assert_same_cells(&seq_table, &par_table, &format!("{threads} threads"));
            // The chained second statement must have seen the repaired city:
            // every row is clean after one pass.
            assert!(CompiledProgram::compile(&program, &par_table)
                .unwrap()
                .check_table(&par_table)
                .is_empty());
        }
    }

    #[test]
    fn parallel_coerce_is_bit_identical() {
        let (table, program) = noisy_chain();
        let compiled = CompiledProgram::compile(&program, &table).unwrap();
        let mut seq_table = table.clone();
        let violations = compiled.check_table(&table);
        let seq_coerced = compiled.coerce_violations(&mut seq_table, &violations);
        for threads in [2, 8] {
            let mut par_table = table.clone();
            let violations = compiled.check_table_parallel(&table, Parallelism::threads(threads));
            let par_coerced = compiled.coerce_violations(&mut par_table, &violations);
            assert!(seq_coerced > 0);
            assert_eq!(seq_coerced, par_coerced, "{threads} threads");
            assert_same_cells(&seq_table, &par_table, &format!("{threads} threads"));
        }
    }

    #[test]
    fn later_statements_see_earlier_assignments() {
        // Statement order matters in execute_row: city is fixed first, then
        // state derives from the corrected city.
        let program = parse_program(
            r#"GIVEN zip ON city HAVING
                   IF zip = 94704 THEN city <- "Berkeley";
               GIVEN city ON state HAVING
                   IF city = "Berkeley" THEN state <- "CA";"#,
        )
        .unwrap();
        let table = Table::from_csv_str("zip,city,state\n94704,gibbon,XX\n").unwrap();
        let fixed = program.execute_row(&table.row_owned(0).unwrap());
        assert_eq!(fixed.get_by_name("city"), Some(&Value::from("Berkeley")));
        assert_eq!(fixed.get_by_name("state"), Some(&Value::from("CA")));
    }

    #[test]
    fn rectify_sees_literals_interned_by_earlier_writes() {
        // "Berkeley" is absent from the table, so statement 1's condition
        // cannot resolve at compile time; statement 0's write interns it.
        let program = parse_program(
            r#"GIVEN zip ON city HAVING
                   IF zip = 94704 THEN city <- "Berkeley";
               GIVEN city ON state HAVING
                   IF city = "Berkeley" THEN state <- "CA";"#,
        )
        .unwrap();
        let table = Table::from_csv_str("zip,city,state\n94704,gibbon,XX\n").unwrap();
        let compiled = CompiledProgram::compile(&program, &table).unwrap();
        let spec = program.execute_row(&table.row_owned(0).unwrap());
        let (mut fast, mut reference) = (table.clone(), table.clone());
        assert_eq!(compiled.rectify_table(&mut fast), 2);
        assert_eq!(compiled.rectify_table_reference(&mut reference), 2);
        for t in [&fast, &reference] {
            assert_eq!(&t.row_owned(0).unwrap(), &spec);
            assert_eq!(t.get(0, 2), Some(Value::from("CA")));
        }
    }
}
