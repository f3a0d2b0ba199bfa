//! The DSL interpreter: denotational semantics over rows and tables.
//!
//! One semantics, three evaluators with distinct jobs:
//!
//! * **Spec (value-level)** — [`Program::check_row`] /
//!   [`Program::execute_row`] interpret a program over one owned [`Row`]
//!   by name: the denotation `⟦p⟧t` of §2.2. They have no production
//!   caller: they are the oracle every other evaluator is tested against.
//! * **Engine (code-level, production)** — [`CompiledProgram`] binds a
//!   program to a concrete [`Table`], resolving attribute names to column
//!   indices and literals to dictionary codes once, and compiles each
//!   statement that binds ([`Program::unbound`] decides which) into
//!   [decision tables](crate::engine): bulk scans pack
//!   determinant codes into keys and do one lookup + one compare per row.
//!   [`CompiledProgram::check_table`], [`CompiledProgram::rectify_table`],
//!   [`CompiledProgram::coerce_table`], their `_parallel` variants and
//!   [`CompiledProgram::implied_assignments`] all run on it.
//! * **References (code-level, test-only)** —
//!   [`CompiledProgram::check_table_reference`] /
//!   [`CompiledProgram::rectify_table_reference`] walk branches row at a
//!   time over the same codes. They have no production caller; the
//!   differential suites compare the engine against them and the spec.
//!
//! # Literals interned after compilation
//!
//! Conjunct literals resolve to codes once, at compile time; a literal the
//! table does not hold yet resolves to nothing and its branch matches no
//! row. One rule keeps that sound when the dictionaries grow: a rectify
//! pass rebuilds a statement against the current dictionaries when an
//! earlier statement's write interned one of its unresolved conjunct
//! literals (the chained repair `zip → city → state` where the repaired
//! city was absent from the batch), and incremental detection recompiles
//! when an append interns any unresolved literal
//! ([`CompiledProgram::interns_unresolved_literal`]).

use crate::ast::{Program, Unbound};
use crate::engine::{DetectScratch, KeyBuf, RawViolation, StatementEngine};
use crate::error::DslError;
use guardrail_governor::{parallel_chunks, Parallelism};
use guardrail_obs as obs;
use guardrail_table::{Code, Row, Table, Value, NULL_CODE};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Rows per work item in the chunk-parallel table scans: coarse enough that
/// per-chunk bookkeeping is negligible, fine enough that mid-size tables
/// still split across workers (and that per-chunk key buffers stay
/// cache-resident).
pub(crate) const ROW_CHUNK: usize = 4096;

thread_local! {
    /// Per-thread scan scratch: key and raw-violation buffers warm up to
    /// chunk size and are reused across chunks, statements, and calls, so
    /// steady-state detection does zero heap allocation (pinned by
    /// `tests/alloc_free.rs`).
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
    /// The dependent attribute. Interned once per compiled statement:
    /// emitting a violation bumps a refcount instead of copying the name.
    pub attribute: Arc<str>,
    /// Value the DGP program assigns.
    pub expected: Value,
    /// Value found in the data.
    pub actual: Value,
}

/// A program compiled against one table's schema and dictionaries: its
/// statements that bind, in program order, plus the ones that do not.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    statements: Vec<CompiledStatement>,
    /// One decision-table engine per statement, aligned with `statements`.
    engines: Vec<StatementEngine>,
    /// The program's statements that do not bind to the table.
    unbound: Vec<Unbound>,
    /// Fit-time violation rate per compiled statement (violations ÷ rows
    /// observed on the training scan), recorded by `IncrementalDetector::new`
    /// and read by `drift::DriftMonitor` as the drift baseline. `None` until
    /// a full scan has established it.
    baseline_rates: Option<Arc<[f64]>>,
}

/// A compiled statement.
#[derive(Debug, Clone)]
pub struct CompiledStatement {
    /// Index of this statement in the source program.
    pub statement_index: usize,
    /// Column index of the dependent attribute.
    pub on_col: usize,
    /// Dependent attribute name (interned for violation reporting).
    pub on_name: Arc<str>,
    branches: Vec<CompiledBranch>,
    /// Conjunct literals absent from their column's dictionary at compile
    /// time, as `(branch, conjunct position, literal)`.
    unresolved: Vec<(usize, usize, Value)>,
}

/// A compiled branch.
#[derive(Debug, Clone)]
pub struct CompiledBranch {
    /// Index of this branch in the source statement.
    pub branch_index: usize,
    /// `(column, code)` conjuncts; `code == None` means the literal does not
    /// occur in that column's dictionary, so the condition matches no row.
    pub(crate) conjuncts: Vec<(usize, Option<Code>)>,
    /// The assigned literal.
    pub literal: Value,
    /// Dictionary code of the literal in the dependent column, if interned.
    pub literal_code: Option<Code>,
}

impl CompiledBranch {
    /// The `(column, code)` conjuncts of the branch condition.
    pub(crate) fn conjuncts(&self) -> &[(usize, Option<Code>)] {
        &self.conjuncts
    }

    /// Binds the branch's conjuncts to their column code slices, hoisting
    /// `table.column(..)` resolution out of row loops. `None` when some
    /// conjunct literal is absent from the bound dictionary — such a
    /// condition matches no row.
    pub(crate) fn bind<'t>(&self, table: &'t Table) -> Option<Vec<(&'t [Code], Code)>> {
        self.conjuncts
            .iter()
            .map(|&(col, code)| code.map(|c| (table.column(col).expect("bound column").codes(), c)))
            .collect()
    }

    /// Row indices of `D^b`: rows satisfying the branch condition.
    pub fn matching_rows(&self, table: &Table) -> Vec<usize> {
        match self.bind(table) {
            None => Vec::new(),
            Some(conj) => (0..table.num_rows())
                .filter(|&row| conj.iter().all(|&(codes, c)| codes[row] == c))
                .collect(),
        }
    }
}

impl CompiledStatement {
    /// The compiled branches.
    pub fn branches(&self) -> &[CompiledBranch] {
        &self.branches
    }

    /// This statement re-bound against `table`'s current dictionaries, when
    /// a write of the current rectify pass interned one of its unresolved
    /// conjunct literals (a code at or past `base[col]`, the column's
    /// dictionary size when the pass began). `None` when the compiled
    /// statement still holds.
    fn rebound(&self, table: &Table, base: &[usize]) -> Option<CompiledStatement> {
        let dictionary = |bi: usize, ci: usize| {
            let col = self.branches[bi].conjuncts[ci].0;
            (col, table.column(col).expect("bound column").dictionary())
        };
        // Only a column whose dictionary grew during the pass can hold a
        // minted code; the size compare spares the lookups otherwise.
        let minted = self.unresolved.iter().any(|(bi, ci, lit)| {
            let (col, dict) = dictionary(*bi, *ci);
            dict.len() > base[col] && dict.lookup(lit).is_some_and(|c| c as usize >= base[col])
        });
        if !minted {
            return None;
        }
        let mut out = self.clone();
        out.unresolved.retain(|(bi, ci, lit)| match dictionary(*bi, *ci).1.lookup(lit) {
            Some(code) => {
                out.branches[*bi].conjuncts[*ci].1 = Some(code);
                false
            }
            None => true,
        });
        Some(out)
    }
}

/// Each column's dictionary size: the mark [`CompiledStatement::rebound`]
/// tells minted codes by.
fn dictionary_sizes(table: &Table) -> Vec<usize> {
    (0..table.num_columns())
        .map(|c| table.column(c).expect("column in range").dictionary().len())
        .collect()
}

impl CompiledProgram {
    /// Compiles the statements of `program` that bind to `table`, resolving
    /// names and literals; the rest are listed in
    /// [`unbound`](Self::unbound). Fails only when `program` does not
    /// validate.
    pub fn compile(program: &Program, table: &Table) -> Result<Self, DslError> {
        program.validate()?;
        let schema = table.schema();
        let unbound = program.unbound(schema);
        let column = |name: &str| schema.index_of(name).expect("a bound statement's attribute");
        let mut statements = Vec::with_capacity(program.statements.len());
        for (si, s) in program.statements.iter().enumerate() {
            if unbound.iter().any(|u| u.statement == si) {
                continue;
            }
            let on_col = column(&s.on);
            let mut branches = Vec::with_capacity(s.branches.len());
            let mut unresolved = Vec::new();
            for (bi, b) in s.branches.iter().enumerate() {
                let mut conjuncts = Vec::with_capacity(b.condition.conjuncts().len());
                for (ci, (attr, lit)) in b.condition.conjuncts().iter().enumerate() {
                    let col = column(attr);
                    let code =
                        table.column(col).expect("schema-resolved column").dictionary().lookup(lit);
                    if code.is_none() {
                        unresolved.push((bi, ci, lit.clone()));
                    }
                    conjuncts.push((col, code));
                }
                let literal_code =
                    table.column(on_col).expect("bound column").dictionary().lookup(&b.literal);
                branches.push(CompiledBranch {
                    branch_index: bi,
                    conjuncts,
                    literal: b.literal.clone(),
                    literal_code,
                });
            }
            statements.push(CompiledStatement {
                statement_index: si,
                on_col,
                on_name: Arc::from(s.on.as_str()),
                branches,
                unresolved,
            });
        }
        let engines = statements.iter().map(|s| StatementEngine::build(s, table)).collect();
        Ok(Self { statements, engines, unbound, baseline_rates: None })
    }

    /// Compiled statements: the program's statements that bind, in order.
    pub fn statements(&self) -> &[CompiledStatement] {
        &self.statements
    }

    /// The program's statements that do not bind to the compiled table.
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

    /// Number of statements whose branches mix pinned-column sets, so that
    /// each row is looked up in more than one decision table. Zero for
    /// every synthesized program (the synthesizer pins every determinant in
    /// every branch).
    pub fn legacy_statement_count(&self) -> usize {
        self.engines.iter().filter(|e| e.scans_several_tables()).count()
    }

    /// Whether `table`'s dictionaries now intern a program literal —
    /// conjunct or assigned — that was absent at compile time. Such a
    /// program must be recompiled before it scans `table` again; every
    /// other dictionary growth is absorbed by the engine's alien digit.
    pub fn interns_unresolved_literal(&self, table: &Table) -> bool {
        let interned = |col: usize, lit: &Value| {
            table.column(col).is_some_and(|c| c.dictionary().lookup(lit).is_some())
        };
        self.statements.iter().any(|s| {
            s.unresolved.iter().any(|(bi, ci, lit)| interned(s.branches[*bi].conjuncts[*ci].0, lit))
                || s.branches
                    .iter()
                    .any(|b| b.literal_code.is_none() && interned(s.on_col, &b.literal))
        })
    }

    /// Column indices the program can write (the `ON` attribute of each
    /// statement), deduplicated, in first-use order.
    pub fn written_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for s in &self.statements {
            if !out.contains(&s.on_col) {
                out.push(s.on_col);
            }
        }
        out
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
        let written = self.written_columns();
        let pinned: Vec<(usize, &Value)> = pinned
            .iter()
            .filter(|(col, _)| !written.contains(col))
            .map(|(col, v)| (*col, v))
            .collect();
        // Per dependent column: `Some(value)` = determined, `None` = tainted.
        // Columns never touched stay out of the map entirely.
        let mut state: Vec<(usize, Option<Value>)> = Vec::new();
        for (stmt, engine) in self.statements.iter().zip(&self.engines) {
            let effect = Self::statement_effect(stmt, engine, table, &pinned);
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
        stmt: &CompiledStatement,
        engine: &StatementEngine,
        table: &Table,
        pinned: &[(usize, &Value)],
    ) -> Option<Option<Value>> {
        // Every conditioned column must be pinned — unsatisfiable branches'
        // too, since a write earlier in the cascade could satisfy them.
        // Un-interned pins take the alien digit, as in the scan: no row can
        // carry the value, so any conclusion is vacuous (and therefore
        // sound).
        let mut codes: Vec<(usize, Code)> = Vec::new();
        for &(col, _) in stmt.branches.iter().flat_map(|b| &b.conjuncts) {
            if codes.iter().any(|&(c, _)| c == col) {
                continue;
            }
            let (_, value) = pinned.iter().find(|&&(c, _)| c == col)?;
            let dictionary = table.column(col).expect("bound column").dictionary();
            codes.push((col, dictionary.lookup(value).unwrap_or(NULL_CODE - 1)));
        }
        let last = engine.last_covering(|col| {
            codes.iter().find(|&&(c, _)| c == col).expect("every column pinned").1
        });
        Some(last.map(|bi| {
            // The value rectify writes: the dictionary's representative of
            // the literal, or the literal itself when it is not interned.
            let literal = &stmt.branches[bi as usize].literal;
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
        let per_chunk = parallel_chunks(parallelism, table.num_rows(), ROW_CHUNK, &|range| {
            let mut chunk_span = obs::span("detect_chunk");
            chunk_span.arg("rows", range.len() as u64);
            SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                let DetectScratch { keys, raw } = &mut *scratch;
                raw.clear();
                self.check_chunk_raw(table, range, keys, raw);
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
    /// buffers. Once those are warm, detection performs **zero** heap
    /// allocation — no name interning, no value decoding, no per-chunk
    /// lists.
    pub fn check_table_raw_into(
        &self,
        table: &Table,
        out: &mut Vec<RawViolation>,
        scratch: &mut DetectScratch,
    ) {
        out.clear();
        let mut check_span = obs::span("check_table");
        check_span.arg("rows", table.num_rows() as u64);
        let rows = table.num_rows();
        let mut start = 0;
        while start < rows {
            let end = (start + ROW_CHUNK).min(rows);
            let mut chunk_span = obs::span("detect_chunk");
            chunk_span.arg("rows", (end - start) as u64);
            self.check_chunk_raw(table, start..end, &mut scratch.keys, out);
            start = end;
        }
        check_span.arg("violations", out.len() as u64);
    }

    /// Scans one row chunk statement-by-statement, then sorts the appended
    /// segment into `(row, statement, branch)` order.
    pub(crate) fn check_chunk_raw(
        &self,
        table: &Table,
        range: Range<usize>,
        keys: &mut KeyBuf,
        out: &mut Vec<RawViolation>,
    ) {
        let start = out.len();
        for (s, engine) in self.statements.iter().zip(&self.engines) {
            engine.check_range(s, table, range.clone(), keys, out);
        }
        out[start..].sort_unstable();
    }

    /// Upgrades a raw violation at the API boundary: one `Arc` bump for the
    /// attribute name, one dictionary decode for the offending cell.
    pub(crate) fn raw_to_violation(&self, table: &Table, raw: &RawViolation) -> Violation {
        let s = &self.statements[self.position(raw.statement as usize)];
        let b = &s.branches[raw.branch as usize];
        let col = table.column(s.on_col).expect("bound column");
        Violation {
            row: raw.row,
            statement: s.statement_index,
            branch: b.branch_index,
            attribute: s.on_name.clone(),
            expected: b.literal.clone(),
            actual: col.dictionary().decode(col.code(raw.row)),
        }
    }

    /// Row-at-a-time detection over the compiled codes: the test oracle
    /// for [`check_table`](Self::check_table) (no production caller).
    /// Conjunct code slices are bound once per scan.
    pub fn check_table_reference(&self, table: &Table) -> Vec<Violation> {
        let bound: Vec<_> = self
            .statements
            .iter()
            .map(|s| {
                let on = table.column(s.on_col).expect("bound column");
                let conj: Vec<_> = s.branches.iter().map(|b| b.bind(table)).collect();
                (s, on, conj)
            })
            .collect();
        let mut out = Vec::new();
        for row in 0..table.num_rows() {
            for (s, on, conj) in &bound {
                let actual_code = on.codes()[row];
                for (b, conj) in s.branches.iter().zip(conj) {
                    let Some(conj) = conj else { continue };
                    if !conj.iter().all(|&(codes, c)| codes[row] == c) {
                        continue;
                    }
                    let violated = match b.literal_code {
                        Some(code) => actual_code != code,
                        // Literal never interned in this table: every
                        // matching row disagrees with the assignment.
                        None => true,
                    };
                    if violated {
                        out.push(Violation {
                            row,
                            statement: s.statement_index,
                            branch: b.branch_index,
                            attribute: s.on_name.clone(),
                            expected: b.literal.clone(),
                            actual: on.dictionary().decode(actual_code),
                        });
                    }
                }
            }
        }
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
    /// `state` from the corrected `city`), so the determinant keys of each
    /// statement are re-packed from the updated table, and a statement is
    /// rebuilt when an earlier write interned one of its unresolved
    /// conjunct literals. Within one statement every row is independent:
    /// validated programs never read a statement's dependent column in its
    /// own conditions, so the per-row branch cascade at a covered key is a
    /// static function of the key — workers scan an immutable snapshot and
    /// push `(row, code)` write lists that a sequential pass applies in
    /// range order. Cell contents and the returned change count are
    /// bit-identical to [`rectify_table_reference`](Self::rectify_table_reference)
    /// for any worker count.
    pub fn rectify_table_parallel(&self, table: &mut Table, parallelism: Parallelism) -> usize {
        let mut rect_span = obs::span("rectify_table");
        rect_span.arg("rows", table.num_rows() as u64);
        rect_span.arg("statements", self.statements.len() as u64);
        rect_span.arg("legacy_statements", self.legacy_statement_count() as u64);
        let base = dictionary_sizes(table);
        let mut changed = 0;
        for (s, engine) in self.statements.iter().zip(&self.engines) {
            let rebuilt = s.rebound(table, &base).map(|s| {
                let engine = StatementEngine::build(&s, table);
                (s, engine)
            });
            let (s, engine) = rebuilt.as_ref().map_or((s, engine), |(s, e)| (s, e));
            let branch_codes = Self::intern_branch_codes(s, table);
            let rect = engine.rect_entries(&branch_codes);
            let per_chunk: Vec<(usize, Vec<(usize, Code)>)> = {
                let snapshot: &Table = table;
                parallel_chunks(parallelism, snapshot.num_rows(), ROW_CHUNK, &|range| {
                    let mut chunk_span = obs::span("rectify_chunk");
                    chunk_span.arg("rows", range.len() as u64);
                    SCRATCH.with(|scratch| {
                        let mut scratch = scratch.borrow_mut();
                        let mut writes: Vec<(usize, Code)> = Vec::new();
                        let delta = engine.rectify_range(
                            s,
                            snapshot,
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

    /// Row-at-a-time rectify over the compiled codes: the test oracle for
    /// [`rectify_table_parallel`](Self::rectify_table_parallel) (no
    /// production caller). Simulates each row's branch cascade statement by
    /// statement, with the same rebuild rule for literals interned by
    /// earlier writes.
    pub fn rectify_table_reference(&self, table: &mut Table) -> usize {
        let base = dictionary_sizes(table);
        let mut changed = 0;
        for s in &self.statements {
            let rebuilt = s.rebound(table, &base);
            let s = rebuilt.as_ref().unwrap_or(s);
            let branch_codes = Self::intern_branch_codes(s, table);
            let mut writes: Vec<(usize, Code)> = Vec::new();
            {
                let bound: Vec<_> = s.branches.iter().map(|b| b.bind(table)).collect();
                let on = table.column(s.on_col).expect("bound column").codes();
                for (row, &original) in on.iter().enumerate() {
                    let mut cur = original;
                    for (conj, &code) in bound.iter().zip(&branch_codes) {
                        let Some(conj) = conj else { continue };
                        if conj.iter().all(|&(codes, c)| codes[row] == c) && cur != code {
                            cur = code;
                            changed += 1;
                        }
                    }
                    if cur != original {
                        writes.push((row, cur));
                    }
                }
            }
            let col = table.column_mut(s.on_col).expect("bound column");
            for (row, code) in writes {
                col.set_code(row, code);
            }
        }
        changed
    }

    /// Interns a statement's branch literals once so new values (absent
    /// from this split's dictionary) can be written.
    fn intern_branch_codes(s: &CompiledStatement, table: &mut Table) -> Vec<Code> {
        let col = table.column_mut(s.on_col).expect("bound column");
        s.branches.iter().map(|b| col.dictionary_mut().encode(b.literal.clone())).collect()
    }

    /// Replaces the dependent cell of every violating row with `Null`
    /// (the paper's `coerce` scheme). Returns the number of cells coerced.
    pub fn coerce_table(&self, table: &mut Table) -> usize {
        self.coerce_table_parallel(table, Parallelism::Sequential)
    }

    /// [`coerce_table`](Self::coerce_table) with the violation scan run on
    /// worker threads; the null writes themselves are a cheap sequential
    /// pass over the (deterministically ordered) violation list.
    pub fn coerce_table_parallel(&self, table: &mut Table, parallelism: Parallelism) -> usize {
        let violations = self.check_table_parallel(table, parallelism);
        self.coerce_violations(table, &violations)
    }

    /// Nulls the dependent cell of each of `violations` — a scan of this
    /// same `table` — without scanning again. Returns the number of cells
    /// coerced (a cell already `Null`, or named twice, counts once).
    pub fn coerce_violations(&self, table: &mut Table, violations: &[Violation]) -> usize {
        let mut coerce_span = obs::span("coerce_table");
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
        assert_eq!(compiled.coerce_table(&mut table), 1);
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
        let mut seq_table = table.clone();
        let seq_coerced =
            CompiledProgram::compile(&program, &seq_table).unwrap().coerce_table(&mut seq_table);
        for threads in [2, 8] {
            let mut par_table = table.clone();
            let par_coerced = CompiledProgram::compile(&program, &par_table)
                .unwrap()
                .coerce_table_parallel(&mut par_table, Parallelism::threads(threads));
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
