//! Vectorized decision-table engine: the one production path for detection
//! and repair.
//!
//! Each statement is compiled into **decision tables** once, when its
//! program is compiled, against the program's own literals and never
//! against a table:
//!
//! 1. **Code spaces** — per attribute, the program's code space holds the
//!    distinct non-null literals the program names for it (in conditions
//!    and assignments), digits `0..n`, plus the `NULL` digit `n` and one
//!    *other* digit `n + 1` that stands for every value no literal names.
//!    A scan translates each bound column's dictionary into these digits
//!    with [`Dictionary::translate_into`]; a `NULL` cell reads as the
//!    `NULL` digit.
//! 2. **Grouping** — a statement's branches are grouped by the set of
//!    attributes their conditions pin, and each set gets its own table
//!    keyed on those attributes only. Every branch therefore fills exactly
//!    one key (or none, when it pins one attribute to two literals). The
//!    synthesizer pins every determinant in every branch, so synthesized
//!    statements keep a single table; hand-written statements that mix
//!    pinned sets scan one table per set.
//! 3. **Key packing** — a table's digits are folded into one mixed-radix
//!    `u64` key per row with
//!    [`guardrail_stats::suffstats::fold_mixed_radix`], the same primitive
//!    (and fold order) as the CI-test kernel's
//!    [`StratumPack`](guardrail_stats::suffstats::StratumPack); each
//!    attribute's radix is `n + 2`. A table whose packed domain overflows
//!    `u64` is keyed on the digit vector instead, as the synthesizer's
//!    wide-schema grouping is.
//! 4. **Lookup** — the key indexes a dense `Vec<u64>` of entries (or a
//!    `HashMap` when the key domain outgrows the dense budget of
//!    [`choose_path`]); each entry packs `(outcome id << 32) | clean
//!    digit`. A row is clean iff its dependent digit equals the entry's low
//!    half, so the hot loop is one lookup and one compare per row, with
//!    uncovered keys rejected by the same compare (their clean half is a
//!    sentinel no digit equals).
//! 5. **Outcomes** — the rare slow path. An outcome records *which*
//!    branches cover a key (usually one; duplicated conditions merge into
//!    shared multi-branch outcomes), so violation emission and the rectify
//!    cascade follow the per-branch semantics exactly.

use crate::ast::Statement;
use guardrail_stats::suffstats::{choose_path, fold_mixed_radix, KernelPath};
use guardrail_table::{Code, Dictionary, Table, Value, NULL_CODE};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Outcome-id sentinel: the key is covered by no branch.
const NO_MATCH: u32 = u32::MAX;

/// Clean-digit sentinel that equals no digit, so entries carrying it
/// always take the slow path / never compare clean.
const NEVER_CODE: u32 = u32::MAX - 1;

/// The entry of a key no branch covers.
const MISS: u64 = entry(NO_MATCH, NEVER_CODE);

/// Dense-table budget: a decision table is a flat array when its key
/// domain fits [`choose_path`]'s budget for this many rows per branch. A
/// program is compiled once, so the budget is set by its branches, not by
/// any table it scans.
const DENSE_ROWS_PER_BRANCH: usize = 16;

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

/// Per program attribute, the scanned table's dictionary codes translated
/// into the attribute's code space: entry `c` is the digit of the value
/// with code `c` (empty for an attribute the table lacks). `NULL_CODE` lies
/// past every translation and reads as the `NULL` digit.
pub(crate) type Codes = Vec<Vec<u32>>;

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
    /// The scanned table's code translations.
    pub(crate) codes: Codes,
}

/// A program attribute: its name and its code space.
#[derive(Debug)]
pub(crate) struct Attribute {
    /// The attribute (column) name, interned for violation reporting.
    pub(crate) name: Arc<str>,
    /// The distinct non-null literals the program names for it.
    pub(crate) space: Dictionary,
}

impl Attribute {
    /// Digit of `code` in this attribute's code space (`NULL` → `n`,
    /// a value no literal names → `n + 1`).
    fn digit(&self, code: Option<Code>) -> u32 {
        match code {
            Some(NULL_CODE) => self.space.len() as u32,
            Some(code) => code,
            None => self.space.len() as u32 + 1,
        }
    }

    /// Extends `out` with the translation of the codes `dictionary`
    /// interned past `out.len()`.
    pub(crate) fn translate(&self, dictionary: &Dictionary, out: &mut Vec<u32>) {
        self.space.translate_into(dictionary, out, |code| self.digit(code));
    }

    /// Digit of a literal or pinned value.
    pub(crate) fn digit_of(&self, value: &Value) -> u32 {
        self.digit(self.space.lookup(value))
    }
}

/// One table as a scan sees it: per program attribute, the column it reads
/// and that column's translation.
#[derive(Clone, Copy)]
pub(crate) struct Scan<'a> {
    /// The scanned table.
    pub(crate) table: &'a Table,
    /// Per attribute, its column in `table`.
    pub(crate) columns: &'a [Option<usize>],
    /// Per attribute, the column's translated codes.
    pub(crate) codes: &'a [Vec<u32>],
}

impl<'a> Scan<'a> {
    /// Attribute `attr`'s cell codes over `range` and their translation.
    fn column(&self, attr: usize, range: Range<usize>) -> (&'a [Code], &'a [u32]) {
        let col = self.columns[attr].expect("a bound statement's attribute");
        (&self.table.column(col).expect("bound column").codes()[range], &self.codes[attr])
    }
}

/// Digit of a cell `code` through its column's translation `codes`; a
/// `NULL` cell (past every translation) reads as the `NULL` digit `card`.
#[inline]
fn digit(codes: &[u32], code: Code, card: u32) -> u32 {
    codes.get(code as usize).copied().unwrap_or(card)
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
    /// Dependent digit that satisfies *every* covering branch, or
    /// [`NEVER_CODE`] when the branches disagree.
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

/// One pinned-attribute set's decision table.
#[derive(Debug, Clone)]
struct KeyTable {
    /// The pinned attributes, ascending: the set and the key's digit order.
    cols: Vec<usize>,
    /// Code-space size `n` of each attribute (its radix is `n + 2`).
    cards: Vec<u32>,
    /// Key→entry mapping; entries pack `(outcome id << 32) | clean digit`.
    repr: Repr,
}

/// Branches sharing one pinned-attribute set, while a statement is built.
struct Group {
    /// The pinned attributes, ascending.
    cols: Vec<usize>,
    /// Satisfiable member branches, ascending.
    branches: Vec<u32>,
    /// Row-major key digits of the member branches, aligned with `cols`.
    digits: Vec<u32>,
}

/// One statement's compiled decision tables.
#[derive(Debug, Clone)]
pub(crate) struct StatementEngine {
    /// The dependent attribute.
    pub(crate) on: usize,
    /// Code-space size of the dependent attribute (its `NULL` digit).
    on_card: u32,
    /// Every attribute a branch condition pins, ascending.
    pub(crate) pinned: Vec<usize>,
    /// Per branch, its literal's digit in the dependent attribute's space.
    literals: Vec<u32>,
    /// One table per pinned-attribute set of the satisfiable branches.
    tables: Vec<KeyTable>,
    /// Outcome table shared by all key tables; ids `0..branches.len()` are
    /// the per-branch singleton outcomes, higher ids are merged
    /// multi-branch outcomes.
    outcomes: Vec<Outcome>,
}

/// Packs `(outcome id, clean digit)` into one table entry.
#[inline]
const fn entry(oid: u32, clean: u32) -> u64 {
    ((oid as u64) << 32) | clean as u64
}

/// Packs one digit vector into a `u64` key, folding most-significant
/// attribute first exactly as the scan's [`fold_mixed_radix`] passes do.
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
    /// digit, [`MISS`] when uncovered), built column-at-a-time into `keys`'
    /// reusable buffers.
    fn entries<'k>(&self, scan: Scan<'_>, range: Range<usize>, keys: &'k mut KeyBuf) -> &'k [u64] {
        let out = &mut keys.packed;
        out.clear();
        out.resize(range.len(), 0);
        if let Repr::Vectors(map) = &self.repr {
            let width = self.cols.len();
            let digits = &mut keys.digits;
            digits.clear();
            digits.resize(range.len() * width, 0);
            for (j, (&attr, &card)) in self.cols.iter().zip(&self.cards).enumerate() {
                let (cells, codes) = scan.column(attr, range.clone());
                for (i, &code) in cells.iter().enumerate() {
                    digits[i * width + j] = digit(codes, code, card);
                }
            }
            for (e, key) in out.iter_mut().zip(digits.chunks_exact(width)) {
                *e = map.get(key).copied().unwrap_or(MISS);
            }
            return out;
        }
        for (&attr, &card) in self.cols.iter().zip(&self.cards) {
            let (cells, codes) = scan.column(attr, range.clone());
            fold_mixed_radix(out, cells, u64::from(card) + 2, |c| u64::from(digit(codes, c, card)));
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
    /// Builds the decision tables of `stmt` over the program's code spaces
    /// `attributes`, which hold every literal `stmt` names. Never fails:
    /// every statement shape has a representation.
    pub(crate) fn build(stmt: &Statement, attributes: &[Attribute]) -> Self {
        let attr = |name: &str| {
            attributes.iter().position(|a| &*a.name == name).expect("an attribute of the program")
        };
        let on = attr(&stmt.on);
        let literals: Vec<u32> =
            stmt.branches.iter().map(|b| attributes[on].digit_of(&b.literal)).collect();
        let mut outcomes: Vec<Outcome> = literals
            .iter()
            .enumerate()
            .map(|(bi, &clean)| Outcome { branches: vec![bi as u32], clean })
            .collect();
        // Satisfiable branches grouped by pinned-attribute set. A branch
        // pinning one attribute to two different literals matches no row
        // and joins no table.
        let mut groups: Vec<Group> = Vec::new();
        let mut pinned = Vec::new();
        let (mut cols, mut digits) = (Vec::new(), Vec::new());
        for (bi, b) in stmt.branches.iter().enumerate() {
            let conjuncts: Vec<(usize, u32)> = b
                .condition
                .conjuncts()
                .iter()
                .map(|(name, lit)| {
                    let a = attr(name);
                    (a, attributes[a].digit_of(lit))
                })
                .collect();
            cols.clear();
            cols.extend(conjuncts.iter().map(|&(a, _)| a));
            cols.sort_unstable();
            cols.dedup();
            pinned.extend_from_slice(&cols);
            let gi = match groups.iter().position(|g| g.cols == cols) {
                Some(gi) => gi,
                None => {
                    groups.push(Group {
                        cols: cols.clone(),
                        branches: Vec::new(),
                        digits: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            let group = &mut groups[gi];
            digits.clear();
            digits.resize(group.cols.len(), None);
            let satisfiable = conjuncts.iter().all(|&(a, d)| {
                let ci = group.cols.iter().position(|&c| c == a).expect("registered attribute");
                let consistent = !digits[ci].is_some_and(|prev| prev != d);
                digits[ci] = Some(d);
                consistent
            });
            if satisfiable {
                group.branches.push(bi as u32);
                group.digits.extend(digits.iter().map(|d| d.expect("every attribute pinned")));
            }
        }
        pinned.sort_unstable();
        pinned.dedup();

        // Multi-branch outcome interning: covering branch list → outcome id.
        let mut multi: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut tables = Vec::new();
        for Group { cols, branches, digits } in groups {
            if branches.is_empty() {
                continue;
            }
            let cards: Vec<u32> = cols.iter().map(|&a| attributes[a].space.len() as u32).collect();
            let domain = cards.iter().try_fold(1u64, |d, &card| d.checked_mul(u64::from(card) + 2));
            let mut repr = match domain {
                Some(domain)
                    if matches!(
                        choose_path(branches.len() * DENSE_ROWS_PER_BRANCH, 1, 1, domain),
                        KernelPath::Dense
                    ) =>
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
        let on_card = attributes[on].space.len() as u32;
        Self { on, on_card, pinned, literals, tables, outcomes }
    }

    /// `true` when the statement mixes pinned-attribute sets and so scans
    /// more than one table per row. Never the case for synthesized
    /// statements.
    pub(crate) fn scans_several_tables(&self) -> bool {
        self.tables.len() > 1
    }

    /// The last branch covering a row whose determinant digits are given by
    /// `digit_of(attribute)`, or `None` when no branch covers it — the
    /// branch whose literal the rectify cascade leaves in the dependent
    /// cell.
    ///
    /// This is the planner-facing entailment primitive: keys are built with
    /// the *same* fold order as the bulk scan, so the answer agrees with
    /// the scan bit for bit.
    pub(crate) fn last_covering(&self, digit_of: impl Fn(usize) -> u32) -> Option<u32> {
        let mut digits = Vec::new();
        self.tables
            .iter()
            .filter_map(|t| {
                digits.clear();
                digits.extend(t.cols.iter().map(|&attr| digit_of(attr)));
                let oid = (t.lookup(&digits) >> 32) as u32;
                (oid != NO_MATCH)
                    .then(|| *self.outcomes[oid as usize].branches.last().expect("non-empty"))
            })
            .max()
    }

    /// Appends statement `statement`'s raw violations over `range` to `out`
    /// (row-major within each table; callers restore the global
    /// `(row, statement, branch)` order by sorting).
    pub(crate) fn check_range(
        &self,
        statement: u32,
        scan: Scan<'_>,
        range: Range<usize>,
        keys: &mut KeyBuf,
        out: &mut Vec<RawViolation>,
    ) {
        let (dep, dep_codes) = scan.column(self.on, range.clone());
        for t in &self.tables {
            let entries = t.entries(scan, range.clone(), keys);
            for (i, (&e, &code)) in entries.iter().zip(dep).enumerate() {
                let actual = digit(dep_codes, code, self.on_card);
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
                    if self.literals[bi as usize] != actual {
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

    /// Rectify scan over `range` of an immutable snapshot: accumulates the
    /// cascade's change count and pushes `(row, code)` writes for rows
    /// whose final cascade value differs from the stored one.
    /// Single-table statements read each key's collapsed cascade from
    /// `rect`; statements mixing pinned sets merge their covering branches
    /// across tables and run the cascade in branch-index order, reading
    /// branch `b`'s code from its singleton outcome `rect[b]`.
    pub(crate) fn rectify_range(
        &self,
        scan: Scan<'_>,
        range: Range<usize>,
        rect: &[RectEntry],
        keys: &mut KeyBuf,
        writes: &mut Vec<(usize, Code)>,
    ) -> usize {
        let (dep, _) = scan.column(self.on, range.clone());
        let mut delta = 0usize;
        if let [t] = self.tables.as_slice() {
            let entries = t.entries(scan, range.clone(), keys);
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
            for (i, &e) in t.entries(scan, range.clone(), keys).iter().enumerate() {
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
    use guardrail_table::TableBuilder;

    fn engine_for(program: &str) -> StatementEngine {
        let compiled = CompiledProgram::new(&parse_program(program).unwrap()).unwrap();
        compiled.engine(&compiled.statements()[0]).clone()
    }

    #[test]
    fn fully_pinned_statements_keep_one_dense_table() {
        let engine = engine_for(
            r#"GIVEN zip, kind ON city HAVING
                   IF zip = 94704 AND kind = "a" THEN city <- "Berkeley";
                   IF kind = "b" AND zip = 97201 THEN city <- "Portland";"#,
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
        );
        // {zip} and {zip, kind}. Digits follow first use: zip 94704 → 0,
        // 97201 → 1, 10001 → 2; kind "b" → 0, "a" → 1, NULL → 2.
        assert_eq!(engine.tables.len(), 2);
        assert!(engine.scans_several_tables());
        let covering =
            |zip: u32, kind: u32| engine.last_covering(|attr| if attr == 0 { zip } else { kind });
        assert_eq!(covering(0, 1), Some(0));
        assert_eq!(covering(1, 0), Some(1));
        assert_eq!(covering(1, 1), Some(2));
        assert_eq!(covering(1, 2), None);
        assert_eq!(covering(2, 2), Some(3));
    }

    /// `GIVEN d0..d7 ON y` with one branch per `r < 300` pinning every
    /// determinant to `r`, the branch of row `dirty` assigning "no".
    fn wide_program(dirty: i64) -> crate::Program {
        let names: Vec<String> = (0..8).map(|k| format!("d{k}")).collect();
        let branches = (0..300i64)
            .map(|r| {
                let conjuncts = names.iter().map(|n| format!("{n} = {r}")).collect::<Vec<_>>();
                let y = if r == dirty { "no" } else { "ok" };
                format!("IF {} THEN y <- \"{y}\";", conjuncts.join(" AND "))
            })
            .collect::<String>();
        parse_program(&format!("GIVEN {} ON y HAVING {branches}", names.join(", "))).unwrap()
    }

    #[test]
    fn overflowing_domains_key_on_code_vectors() {
        // Eight determinants naming 300 literals each: 302⁸ > 2⁶⁴.
        let compiled = CompiledProgram::new(&wide_program(-1)).unwrap();
        let engine = compiled.engine(&compiled.statements()[0]);
        assert!(matches!(engine.tables[0].repr, Repr::Vectors(_)));
        assert_eq!(engine.last_covering(|_| 3), Some(3));
        assert_eq!(engine.last_covering(|attr| if attr == 4 { 2 } else { 3 }), None);
        let names: Vec<String> = (0..8).map(|k| format!("d{k}")).chain(["y".into()]).collect();
        let mut builder = TableBuilder::new(names);
        for row in 0..300i64 {
            let mut cells: Vec<Value> = (0..8).map(|_| Value::Int(row)).collect();
            cells.push(Value::from("ok"));
            builder.push_row(cells).unwrap();
        }
        let table = builder.finish().unwrap();
        let violations =
            CompiledProgram::compile(&wide_program(3), &table).unwrap().check_table(&table);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].row, 3);
    }

    #[test]
    fn sparse_domains_hash_covered_keys() {
        // 200 literals per determinant: the 202²-key domain outgrows the
        // dense budget of 200 branches.
        let branches: String = (0..200)
            .map(|i| format!("IF zip = \"z{i}\" AND kind = \"k{i}\" THEN city <- \"c\";"))
            .collect();
        let engine = engine_for(&format!("GIVEN zip, kind ON city HAVING {branches}"));
        assert!(matches!(engine.tables[0].repr, Repr::Hash(_)));
    }
}
