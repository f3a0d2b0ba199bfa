//! Vectorized decision-table engine: the one production path for detection
//! and repair.
//!
//! Each statement is compiled into **decision tables** once, at
//! [`CompiledProgram`](crate::CompiledProgram) build time, after which
//! every bulk scan is a branch-free column-at-a-time pass per table:
//!
//! 1. **Grouping** — a statement's branches are grouped by the set of
//!    columns their conditions pin, and each set gets its own table keyed
//!    on those columns only. Every branch therefore fills exactly one key
//!    (or none, when its condition is unsatisfiable). The synthesizer pins
//!    every determinant in every branch, so synthesized statements keep a
//!    single table; hand-written statements that mix pinned-column sets
//!    scan one table per set.
//! 2. **Key packing** — a table's columns are folded into one mixed-radix
//!    `u64` key per row with
//!    [`guardrail_stats::suffstats::fold_mixed_radix`], the same primitive
//!    (and fold order) as the CI-test kernel's
//!    [`StratumPack`](guardrail_stats::suffstats::StratumPack). Each
//!    column's radix is `|dictionary| + 2`: one digit per compile-time
//!    code, one for `NULL`, and one *alien* digit absorbing codes minted
//!    after compilation (rectify writes, cross-table binding) — aliens
//!    equal no compile-time conjunct code, so they match no branch. A table
//!    whose packed domain overflows `u64` is keyed on the digit vector
//!    instead, as the synthesizer's wide-schema grouping is.
//! 3. **Lookup** — the key indexes a dense `Vec<u64>` of entries (or a
//!    `HashMap` when the key domain outgrows the dense budget of
//!    [`choose_path`]); each entry packs `(outcome id << 32) | clean
//!    code`. A row is clean iff its dependent code equals the entry's low
//!    half, so the hot loop is one lookup and one compare per row, with
//!    uncovered keys rejected by the same compare (their clean half is a
//!    sentinel no real code equals).
//! 4. **Outcomes** — the rare slow path. An outcome records *which*
//!    branches cover a key (usually one; duplicated conditions merge into
//!    shared multi-branch outcomes), so violation emission and the rectify
//!    cascade follow the per-branch semantics exactly.

use crate::interp::CompiledStatement;
use guardrail_stats::suffstats::{choose_path, fold_mixed_radix, KernelPath};
use guardrail_table::{Code, Table, NULL_CODE};
use std::collections::HashMap;
use std::ops::Range;

/// Outcome-id sentinel: the key is covered by no branch.
const NO_MATCH: u32 = u32::MAX;

/// Clean-code sentinel that equals no dictionary code (codes are
/// `< NULL_CODE`, and `NULL_CODE` itself maps to its own digit), so
/// entries carrying it always take the slow path / never compare clean.
const NEVER_CODE: u32 = u32::MAX - 1;

/// The entry of a key no branch covers.
const MISS: u64 = entry(NO_MATCH, NEVER_CODE);

/// A violation in pure index form, as emitted by the vectorized scan.
///
/// No name is interned and no [`guardrail_table::Value`] is decoded per
/// violation — [`CompiledProgram::check_table`](crate::CompiledProgram::check_table)
/// upgrades raw violations to [`Violation`](crate::Violation) only at the
/// API boundary, and allocation-sensitive callers can stay raw via
/// [`check_table_raw_into`](crate::CompiledProgram::check_table_raw_into).
///
/// The derived ordering — row, then statement, then branch — is the
/// program's row-major emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawViolation {
    /// Row index in the scanned table.
    pub row: usize,
    /// Statement index within the program.
    pub statement: u32,
    /// Branch index within the statement.
    pub branch: u32,
}

/// Reusable key buffers for one row chunk.
#[derive(Debug, Default)]
pub(crate) struct KeyBuf {
    /// Packed `u64` keys, one per row.
    packed: Vec<u64>,
    /// Row-major digit vectors, for tables keyed on the code vector.
    digits: Vec<u32>,
}

/// Reusable scratch for the vectorized scans.
///
/// Buffers grow to the high-water mark of the chunks they serve and never
/// shrink, so a warmed scratch makes further detect passes
/// allocation-free, whatever the tables' key representation (pinned by
/// `tests/alloc_free.rs`).
#[derive(Debug, Default)]
pub struct DetectScratch {
    /// Determinant keys for the chunk being scanned.
    pub(crate) keys: KeyBuf,
    /// Raw-violation staging area for paths that convert per chunk.
    pub(crate) raw: Vec<RawViolation>,
}

/// The set of branches covering one determinant key.
///
/// Most keys are covered by exactly one branch; branches with duplicated
/// conditions merge into shared multi-branch outcomes (branch ids
/// ascending, the emission and cascade order).
#[derive(Debug, Clone)]
struct Outcome {
    /// Covering branch indices, ascending.
    branches: Vec<u32>,
    /// Dependent code that satisfies *every* covering branch, or
    /// [`NEVER_CODE`] when none exists (branches disagree, or a literal is
    /// not interned in the bound table).
    clean: u32,
}

/// Per-outcome rectify summary. The cascade at a covered key —
/// `cur := original; for each covering branch: if cur ≠ code { cur :=
/// code; changed += 1 }` — always leaves `cur` equal to the branch's code
/// after each step, so it collapses to: `changed += base + (original ≠
/// first)`, final value `last`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RectEntry {
    /// First covering branch's (freshly interned) literal code.
    first: Code,
    /// Last covering branch's literal code — the value written.
    last: Code,
    /// Disagreements between consecutive covering branches' codes.
    base: usize,
}

/// How a decision table maps keys to entries.
#[derive(Debug, Clone)]
enum Repr {
    /// Flat entry per packed key; the domain fits the [`choose_path`]
    /// dense budget.
    Dense(Vec<u64>),
    /// Covered packed keys only; the domain fits `u64` but is too large
    /// for a flat table.
    Hash(HashMap<u64, u64>),
    /// Covered digit vectors; the packed domain overflows `u64`.
    Vectors(HashMap<Box<[u32]>, u64>),
}

/// One pinned-column set's decision table.
#[derive(Debug, Clone)]
struct KeyTable {
    /// The pinned columns, ascending: the set and the key's digit order.
    cols: Vec<usize>,
    /// Compile-time dictionary size of each column.
    cards: Vec<u32>,
    /// Key→entry mapping; entries pack `(outcome id << 32) | clean code`.
    repr: Repr,
}

/// Branches sharing one pinned-column set, while a statement is built.
struct Group {
    /// The pinned columns, ascending.
    cols: Vec<usize>,
    /// Compile-time dictionary size of each column of `cols`.
    cards: Vec<u32>,
    /// Satisfiable member branches, ascending.
    branches: Vec<u32>,
    /// Row-major key digits of the member branches, aligned with `cols`.
    digits: Vec<u32>,
}

/// One statement's compiled decision tables.
#[derive(Debug, Clone)]
pub(crate) struct StatementEngine {
    /// One table per pinned-column set of the satisfiable branches.
    tables: Vec<KeyTable>,
    /// Outcome table shared by all key tables; ids `0..branches.len()` are
    /// the per-branch singleton outcomes, higher ids are merged
    /// multi-branch outcomes.
    outcomes: Vec<Outcome>,
}

/// Packs `(outcome id, clean code)` into one table entry.
#[inline]
const fn entry(oid: u32, clean: u32) -> u64 {
    ((oid as u64) << 32) | clean as u64
}

/// Maps a runtime code to its mixed-radix digit: `NULL` and alien codes
/// (minted after compilation) get the two reserved digits past the
/// compile-time dictionary.
#[inline]
fn digit_of(code: u32, card: u32) -> u64 {
    if code == NULL_CODE {
        u64::from(card)
    } else if code >= card {
        u64::from(card) + 1
    } else {
        u64::from(code)
    }
}

/// Packs one digit vector into a `u64` key, folding most-significant
/// column first exactly as the scan's [`fold_mixed_radix`] passes do.
fn pack_digits(cards: &[u32], digits: &[u32]) -> u64 {
    digits.iter().zip(cards).fold(0, |key, (&d, &card)| key * (u64::from(card) + 2) + u64::from(d))
}

impl KeyTable {
    /// The entry covering one digit vector (aligned with `cols`).
    fn lookup(&self, digits: &[u32]) -> u64 {
        match &self.repr {
            Repr::Dense(entries) => entries[pack_digits(&self.cards, digits) as usize],
            Repr::Hash(map) => map.get(&pack_digits(&self.cards, digits)).copied().unwrap_or(MISS),
            Repr::Vectors(map) => map.get(digits).copied().unwrap_or(MISS),
        }
    }

    /// The entry of every row of `range` (its key's outcome and clean
    /// code, [`MISS`] when uncovered), built column-at-a-time into `keys`'
    /// reusable buffers.
    fn entries<'k>(&self, table: &Table, range: Range<usize>, keys: &'k mut KeyBuf) -> &'k [u64] {
        let column = |col: usize| &table.column(col).expect("bound column").codes()[range.clone()];
        let out = &mut keys.packed;
        out.clear();
        out.resize(range.len(), 0);
        if let Repr::Vectors(map) = &self.repr {
            let width = self.cols.len();
            let digits = &mut keys.digits;
            digits.clear();
            digits.resize(range.len() * width, 0);
            for (j, (&col, &card)) in self.cols.iter().zip(&self.cards).enumerate() {
                for (i, &code) in column(col).iter().enumerate() {
                    digits[i * width + j] = digit_of(code, card) as u32;
                }
            }
            for (e, key) in out.iter_mut().zip(digits.chunks_exact(width)) {
                *e = map.get(key).copied().unwrap_or(MISS);
            }
            return out;
        }
        for (&col, &card) in self.cols.iter().zip(&self.cards) {
            fold_mixed_radix(out, column(col), u64::from(card) + 2, |c| digit_of(c, card));
        }
        match &self.repr {
            Repr::Dense(entries) => out.iter_mut().for_each(|k| *k = entries[*k as usize]),
            Repr::Hash(map) => {
                out.iter_mut().for_each(|k| *k = map.get(k).copied().unwrap_or(MISS))
            }
            Repr::Vectors(_) => unreachable!("handled above"),
        }
        out
    }
}

impl StatementEngine {
    /// Builds the decision tables for `stmt` against the dictionaries of
    /// `table`. Never fails: every statement shape has a representation.
    pub(crate) fn build(stmt: &CompiledStatement, table: &Table) -> Self {
        let branches = stmt.branches();
        let mut outcomes: Vec<Outcome> = branches
            .iter()
            .enumerate()
            .map(|(bi, b)| Outcome {
                branches: vec![bi as u32],
                clean: b.literal_code.unwrap_or(NEVER_CODE),
            })
            .collect();
        // Satisfiable branches grouped by pinned-column set. A branch with
        // an un-interned conjunct literal, or one pinning a column to two
        // different codes, matches no row and joins no table.
        let mut groups: Vec<Group> = Vec::new();
        let (mut cols, mut digits) = (Vec::new(), Vec::new());
        for (bi, b) in branches.iter().enumerate() {
            cols.clear();
            cols.extend(b.conjuncts().iter().map(|&(col, _)| col));
            cols.sort_unstable();
            cols.dedup();
            let gi = match groups.iter().position(|g| g.cols == cols) {
                Some(gi) => gi,
                None => {
                    let cards = cols
                        .iter()
                        .map(|&c| table.column(c).expect("bound column").dictionary().len() as u32)
                        .collect();
                    groups.push(Group {
                        cols: cols.clone(),
                        cards,
                        branches: Vec::new(),
                        digits: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            let group = &mut groups[gi];
            digits.clear();
            digits.resize(group.cols.len(), None);
            let satisfiable = b.conjuncts().iter().all(|&(col, code)| {
                let ci = group.cols.iter().position(|&c| c == col).expect("registered column");
                let Some(code) = code else { return false };
                let d = digit_of(code, group.cards[ci]) as u32;
                let consistent = !digits[ci].is_some_and(|prev| prev != d);
                digits[ci] = Some(d);
                consistent
            });
            if satisfiable {
                group.branches.push(bi as u32);
                group.digits.extend(digits.iter().map(|d| d.expect("every column pinned")));
            }
        }

        // Multi-branch outcome interning: covering branch list → outcome id.
        let mut multi: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut tables = Vec::new();
        for Group { cols, cards, branches, digits, .. } in groups {
            if branches.is_empty() {
                continue;
            }
            let domain = cards.iter().try_fold(1u64, |d, &card| d.checked_mul(u64::from(card) + 2));
            let mut repr = match domain {
                Some(domain)
                    if matches!(choose_path(table.num_rows(), 1, 1, domain), KernelPath::Dense) =>
                {
                    Repr::Dense(vec![MISS; domain as usize])
                }
                Some(_) => Repr::Hash(HashMap::new()),
                None => Repr::Vectors(HashMap::new()),
            };
            let width = cols.len();
            for (i, &bi) in branches.iter().enumerate() {
                let key = &digits[i * width..(i + 1) * width];
                let slot = match &mut repr {
                    Repr::Dense(entries) => &mut entries[pack_digits(&cards, key) as usize],
                    Repr::Hash(map) => map.entry(pack_digits(&cards, key)).or_insert(MISS),
                    Repr::Vectors(map) => map.entry(key.into()).or_insert(MISS),
                };
                let oid = (*slot >> 32) as u32;
                let new_oid = if oid == NO_MATCH {
                    bi
                } else {
                    merge_outcome(&mut outcomes, &mut multi, oid, bi)
                };
                *slot = entry(new_oid, outcomes[new_oid as usize].clean);
            }
            tables.push(KeyTable { cols, cards, repr });
        }
        Self { tables, outcomes }
    }

    /// `true` when the statement mixes pinned-column sets and so scans more
    /// than one table per row. Never the case for synthesized statements.
    pub(crate) fn scans_several_tables(&self) -> bool {
        self.tables.len() > 1
    }

    /// The last branch covering a row whose determinant codes are given by
    /// `code_of(column)`, or `None` when no branch covers it — the branch
    /// whose literal the rectify cascade leaves in the dependent cell.
    ///
    /// This is the planner-facing entailment primitive: keys are built with
    /// the *same* fold order and digit map as the bulk scan (`NULL` → the
    /// null digit, un-interned codes → the alien digit), so the answer
    /// agrees with the scan bit for bit.
    pub(crate) fn last_covering(&self, code_of: impl Fn(usize) -> Code) -> Option<u32> {
        let mut digits = Vec::new();
        self.tables
            .iter()
            .filter_map(|t| {
                digits.clear();
                digits.extend(
                    t.cols
                        .iter()
                        .zip(&t.cards)
                        .map(|(&col, &card)| digit_of(code_of(col), card) as u32),
                );
                let oid = (t.lookup(&digits) >> 32) as u32;
                (oid != NO_MATCH)
                    .then(|| *self.outcomes[oid as usize].branches.last().expect("non-empty"))
            })
            .max()
    }

    /// Appends this statement's raw violations over `range` to `out`
    /// (row-major within each table; callers restore the global
    /// `(row, statement, branch)` order by sorting).
    pub(crate) fn check_range(
        &self,
        stmt: &CompiledStatement,
        table: &Table,
        range: Range<usize>,
        keys: &mut KeyBuf,
        out: &mut Vec<RawViolation>,
    ) {
        let dep = &table.column(stmt.on_col).expect("bound column").codes()[range.clone()];
        let statement = stmt.statement_index as u32;
        for t in &self.tables {
            let entries = t.entries(table, range.clone(), keys);
            for (i, (&e, &actual)) in entries.iter().zip(dep).enumerate() {
                if e as u32 == actual {
                    continue;
                }
                let oid = (e >> 32) as u32;
                if oid == NO_MATCH {
                    continue;
                }
                // Slow path: the key is covered and the dependent is not
                // clean — one violation per covering branch that disagrees.
                for &bi in &self.outcomes[oid as usize].branches {
                    let violated = match stmt.branches()[bi as usize].literal_code {
                        Some(code) => code != actual,
                        None => true,
                    };
                    if violated {
                        out.push(RawViolation { row: range.start + i, statement, branch: bi });
                    }
                }
            }
        }
    }

    /// Collapses each outcome's branch cascade against the freshly
    /// interned `branch_codes` (see [`RectEntry`]).
    pub(crate) fn rect_entries(&self, branch_codes: &[Code]) -> Vec<RectEntry> {
        self.outcomes
            .iter()
            .map(|o| {
                let first = branch_codes[o.branches[0] as usize];
                let mut base = 0usize;
                let mut prev = first;
                for &bi in &o.branches[1..] {
                    let code = branch_codes[bi as usize];
                    if code != prev {
                        base += 1;
                    }
                    prev = code;
                }
                RectEntry { first, last: prev, base }
            })
            .collect()
    }

    /// Rectify scan over `range` against an immutable `snapshot`:
    /// accumulates the cascade's change count and pushes `(row, code)`
    /// writes for rows whose final cascade value differs from the stored
    /// one. Single-table statements read each key's collapsed cascade from
    /// `rect`; statements mixing pinned-column sets merge their covering
    /// branches across tables and run the cascade in branch-index order,
    /// reading branch `b`'s code from its singleton outcome `rect[b]`.
    pub(crate) fn rectify_range(
        &self,
        stmt: &CompiledStatement,
        snapshot: &Table,
        range: Range<usize>,
        rect: &[RectEntry],
        keys: &mut KeyBuf,
        writes: &mut Vec<(usize, Code)>,
    ) -> usize {
        let dep = &snapshot.column(stmt.on_col).expect("bound column").codes()[range.clone()];
        let mut delta = 0usize;
        if let [t] = self.tables.as_slice() {
            let entries = t.entries(snapshot, range.clone(), keys);
            for (i, (&e, &original)) in entries.iter().zip(dep).enumerate() {
                let oid = (e >> 32) as u32;
                if oid == NO_MATCH {
                    continue;
                }
                let r = rect[oid as usize];
                delta += r.base + usize::from(original != r.first);
                if original != r.last {
                    writes.push((range.start + i, r.last));
                }
            }
            return delta;
        }
        let mut hits: Vec<(usize, u32)> = Vec::new();
        for t in &self.tables {
            for (i, &e) in t.entries(snapshot, range.clone(), keys).iter().enumerate() {
                let oid = (e >> 32) as u32;
                if oid != NO_MATCH {
                    hits.extend(self.outcomes[oid as usize].branches.iter().map(|&bi| (i, bi)));
                }
            }
        }
        hits.sort_unstable();
        let mut run = 0;
        while run < hits.len() {
            let i = hits[run].0;
            let original = dep[i];
            let mut cur = original;
            while run < hits.len() && hits[run].0 == i {
                let code = rect[hits[run].1 as usize].last;
                if cur != code {
                    cur = code;
                    delta += 1;
                }
                run += 1;
            }
            if cur != original {
                writes.push((range.start + i, cur));
            }
        }
        delta
    }
}

/// Interns the outcome covering `outcomes[oid].branches + [bi]`, creating
/// it on first sight. Branches insert keys in ascending index order and
/// each key at most once per branch, so the appended list stays sorted and
/// duplicate-free.
fn merge_outcome(
    outcomes: &mut Vec<Outcome>,
    multi: &mut HashMap<Vec<u32>, u32>,
    oid: u32,
    bi: u32,
) -> u32 {
    let mut branches = outcomes[oid as usize].branches.clone();
    debug_assert!(branches.last().is_some_and(|&last| last < bi));
    branches.push(bi);
    if let Some(&id) = multi.get(&branches) {
        return id;
    }
    let prev_clean = outcomes[oid as usize].clean;
    let bi_clean = outcomes[bi as usize].clean;
    let clean =
        if prev_clean != NEVER_CODE && prev_clean == bi_clean { prev_clean } else { NEVER_CODE };
    let id = outcomes.len() as u32;
    outcomes.push(Outcome { branches: branches.clone(), clean });
    multi.insert(branches, id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::CompiledProgram;
    use guardrail_table::{TableBuilder, Value};

    fn engine_for(program: &str, table: &Table) -> StatementEngine {
        let compiled = parse_program(program).unwrap().compile_for(table).unwrap();
        StatementEngine::build(&compiled.statements()[0], table)
    }

    fn zip_table() -> Table {
        Table::from_csv_str("zip,kind,city\n94704,a,Berkeley\n97201,b,Portland\n94704,b,gibbon\n")
            .unwrap()
    }

    #[test]
    fn fully_pinned_statements_keep_one_dense_table() {
        let engine = engine_for(
            r#"GIVEN zip, kind ON city HAVING
                   IF zip = 94704 AND kind = "a" THEN city <- "Berkeley";
                   IF kind = "b" AND zip = 97201 THEN city <- "Portland";"#,
            &zip_table(),
        );
        assert_eq!(engine.tables.len(), 1);
        assert!(matches!(engine.tables[0].repr, Repr::Dense(_)));
        assert!(!engine.scans_several_tables());
    }

    #[test]
    fn mixed_pinned_sets_get_one_table_each() {
        let engine = engine_for(
            r#"GIVEN zip, kind ON city HAVING
                   IF zip = 94704 THEN city <- "Berkeley";
                   IF zip = 97201 AND kind = "b" THEN city <- "Portland";
                   IF kind = "a" AND zip = 97201 THEN city <- "Portland";
                   IF zip = 10001 THEN city <- "NYC";"#,
            &zip_table(),
        );
        // {zip} and {zip, kind}; the NYC branch is unsatisfiable (10001 is
        // not interned) and fills no key.
        assert_eq!(engine.tables.len(), 2);
        assert!(engine.scans_several_tables());
        let covering =
            |zip: Code, kind: Code| engine.last_covering(|col| if col == 0 { zip } else { kind });
        assert_eq!(covering(0, 1), Some(0));
        assert_eq!(covering(1, 1), Some(1));
        assert_eq!(covering(1, NULL_CODE), None);
    }

    #[test]
    fn overflowing_domains_key_on_code_vectors() {
        // Five columns with 8,192 values each: 8194⁵ > 2⁶⁴.
        let names: Vec<String> = (0..5).map(|k| format!("d{k}")).chain(["y".into()]).collect();
        let mut builder = TableBuilder::new(names);
        for row in 0..8_192i64 {
            let mut cells: Vec<Value> = (0..5).map(|_| Value::Int(row)).collect();
            cells.push(Value::from("ok"));
            builder.push_row(cells).unwrap();
        }
        let table = builder.finish().unwrap();
        let engine = engine_for(
            r#"GIVEN d0, d1, d2, d3, d4 ON y HAVING
                   IF d0 = 3 AND d1 = 3 AND d2 = 3 AND d3 = 3 AND d4 = 3 THEN y <- "ok";"#,
            &table,
        );
        assert!(matches!(engine.tables[0].repr, Repr::Vectors(_)));
        assert_eq!(engine.last_covering(|_| 3), Some(0));
        assert_eq!(engine.last_covering(|col| if col == 4 { 2 } else { 3 }), None);
        let program = parse_program(
            r#"GIVEN d0, d1, d2, d3, d4 ON y HAVING
                   IF d0 = 3 AND d1 = 3 AND d2 = 3 AND d3 = 3 AND d4 = 3 THEN y <- "no";"#,
        )
        .unwrap();
        let violations = CompiledProgram::compile(&program, &table).unwrap().check_table(&table);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].row, 3);
    }

    #[test]
    fn sparse_domains_hash_covered_keys() {
        // 2,000 distinct values per column over 2,000 rows: the 2002²-key
        // domain outgrows the dense budget of 4 cells per row.
        let mut csv = String::from("zip,kind,city\n");
        for i in 0..2_000 {
            csv.push_str(&format!("z{i},k{i},c\n"));
        }
        let table = Table::from_csv_str(&csv).unwrap();
        let engine = engine_for(
            r#"GIVEN zip, kind ON city HAVING IF zip = "z1" AND kind = "k1" THEN city <- "c";"#,
            &table,
        );
        assert!(matches!(engine.tables[0].repr, Repr::Hash(_)));
    }
}
