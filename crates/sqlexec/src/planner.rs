//! Query planning: one pass from a parsed query to the physical spec the
//! executor runs and `EXPLAIN` renders.
//!
//! Every query has the same shape — scan, vet (when a guardrail
//! intercepts), predict (when the query calls a model), project, filter,
//! limit — so planning is not a tree rewrite but a handful of decisions,
//! which [`plan`] makes in one pass and records in a [`Physical`]:
//!
//! 1. **Contradiction**: a conjunct that can never be truthy empties the
//!    scan. The proofs are a `NULL` comparison, a literal the column's
//!    dictionary has never interned, and constant folding to false/`NULL`
//!    under the predicate's own equality pins plus, under `Rectify`, the
//!    values the fitted program's decision tables
//!    ([`CompiledProgram::implied_assignments`]) force onto dependent
//!    columns.
//! 2. **Implied-predicate pruning**: a conjunct that folds to `TRUE` under
//!    the other conjuncts' pins (and, under `Rectify`, the implied values)
//!    never changes the result, so it is dropped.
//! 3. **Partition** (§7's predicate pushdown): a conjunct that calls no
//!    model, has no aggregate and reads only base columns runs on raw scan
//!    rows, before any vetting or inference; when a guardrail intercepts it
//!    must also read no column the program writes, and the scheme must not
//!    be `Raise`. A conjunct that is barred only by those two rules is a
//!    row filter: it runs on each vetted row before that row's model calls,
//!    so a row it drops is never predicted. Every other conjunct is
//!    residual: it runs after vet and predict, with projection aliases
//!    visible.
//! 4. **Limits**: a plain query's `LIMIT` caps the scan when no row-filter
//!    or residual conjunct follows it, and the rows passing the residual
//!    otherwise; `LIMIT 0` empties the scan.
//!
//! Under `Raise` vetting itself is the observable result (the abort), so no
//! step may skip or reorder it: contradictions are not sought, nothing is
//! pushed below the vet, and neither limit empties nor caps the scan.
//!
//! The reference plan (`Executor::with_pushdown(false)`) runs none of the
//! rewrites: a query that calls a model evaluates its whole `WHERE` clause
//! after vet and predict. Every rewrite must be result-identical to it (for
//! queries whose evaluation does not error — like any production optimizer,
//! reordering may skip a predicate that would have raised a type error on
//! some row).
//!
//! [`CompiledProgram::implied_assignments`]:
//!     guardrail_dsl::CompiledProgram::implied_assignments

use crate::ast::{BinOp, Expr, Query};
use crate::exec::const_fold;
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_dsl::CompiledProgram;
use guardrail_obs as obs;
use guardrail_table::{Schema, Table, Value};
use std::collections::HashMap;

/// What the executor runs for one query, and what `EXPLAIN` renders.
#[derive(Debug, Default)]
pub struct Physical {
    /// Conjuncts evaluated on raw scan rows, before vetting and inference.
    pub pushed: Vec<Expr>,
    /// Conjuncts that call no model and read only row cells but may not
    /// cross below the vet: evaluated on each vetted row before inference.
    pub row_filter: Vec<Expr>,
    /// Conjuncts evaluated after vetting and inference, with projection
    /// aliases visible.
    pub residual: Vec<Expr>,
    /// The scan stops once this many rows pass `pushed`.
    pub scan_limit: Option<usize>,
    /// Processing stops once this many rows pass `residual`.
    pub row_limit: Option<usize>,
    /// Why no row can qualify; when set, nothing is scanned, vetted or
    /// predicted.
    pub empty: Option<String>,
    /// `WHERE` conjuncts dropped because the other conjuncts (and, under
    /// `Rectify`, the program) entail them.
    pub predicates_pruned: usize,
    /// The rewrites that fired, in the order the pass ran them.
    pub rewrites: Vec<&'static str>,
}

/// Everything the planning pass may consult: the base table (schemas and
/// dictionaries), the guardrail interception scheme, and the fitted
/// program bound to the base table, for entailment probes.
pub struct PlanContext<'a> {
    /// The FROM table.
    pub base: &'a Table,
    /// `Some` iff a guardrail intercepts this query (a guardrail is
    /// installed *and* the query calls `PREDICT`).
    pub scheme: Option<ErrorScheme>,
    /// Dependent attribute names of the program statements that bind to
    /// `base`; empty without a guardrail. Conjuncts touching these columns
    /// never run before the vet — their raw and rectified values may
    /// differ. No other column is ever written.
    pub written: Vec<String>,
    /// The guardrail's compiled program bound to `base`, for
    /// decision-table entailment probes; consulted only under `Rectify`
    /// (the one scheme that forces dependent columns to their determined
    /// values).
    pub analysis: Option<CompiledProgram>,
}

impl<'a> PlanContext<'a> {
    /// A context with no guardrail interception.
    pub fn new(base: &'a Table) -> Self {
        Self { base, scheme: None, written: Vec::new(), analysis: None }
    }

    /// Installs the guardrail interception facts: binds the guardrail's
    /// compiled program to `base` once, for the written columns and the
    /// constraint-aware rewrites.
    pub fn with_guardrail(mut self, guardrail: &Guardrail, scheme: ErrorScheme) -> Self {
        self.scheme = Some(scheme);
        let bound = guardrail.compiled().bind(self.base.schema());
        for s in bound.statements() {
            if !self.written.iter().any(|w| **w == *s.on_name) {
                self.written.push(s.on_name.to_string());
            }
        }
        self.analysis = Some(bound);
        self
    }
}

/// Plans `query` in one pass (the module doc lists the steps). With
/// `pushdown` off this is the reference plan: no rewrite runs, a query that
/// calls a model keeps its whole `WHERE` clause residual, and a plain
/// query's `LIMIT` caps the rows passing it.
pub fn plan(query: &Query, ctx: &PlanContext<'_>, pushdown: bool) -> Physical {
    let conjuncts = query.where_clause.as_ref().map_or_else(Vec::new, split_conjuncts);
    let base = ctx.base.schema();
    let plain = query.group_by.is_empty()
        && query.order_by.is_empty()
        && query.having.is_none()
        && !query.projections.iter().any(|p| p.expr.has_aggregate());
    let limit = query.limit.filter(|_| plain);
    let mut phys = Physical::default();
    if !pushdown {
        let calls_model = !collect_models(query).is_empty();
        for c in conjuncts {
            let raw = !calls_model && is_pushable(c, base);
            (if raw { &mut phys.pushed } else { &mut phys.residual }).push(c.clone());
        }
        phys.row_limit = limit;
        return phys;
    }

    let mut span = obs::span("sql_optimize");
    let raise = ctx.scheme == Some(ErrorScheme::Raise);
    phys.empty = if raise { None } else { contradiction(&conjuncts, ctx) };
    if phys.empty.is_some() {
        phys.rewrites.push("ContradictionDetection");
    } else {
        // Pins for conjunct `i` come only from conjuncts that survive: the
        // ones already kept and the ones not yet examined. Using
        // all-but-self would let `a = 1 AND a = 1` prune both copies via
        // each other.
        let mut kept: Vec<&Expr> = Vec::with_capacity(conjuncts.len());
        for (i, &conjunct) in conjuncts.iter().enumerate() {
            let others: Vec<&Expr> = kept.iter().chain(&conjuncts[i + 1..]).copied().collect();
            let mut subst = raw_pins(&others, ctx);
            subst.extend(implied_pins(&subst, ctx));
            match const_fold(conjunct, &subst) {
                Some(Value::Bool(true)) => phys.predicates_pruned += 1,
                _ => kept.push(conjunct),
            }
        }
        if phys.predicates_pruned > 0 {
            phys.rewrites.push("ImpliedPredicatePruning");
        }
        for c in kept {
            let filter = match is_pushable(c, base) {
                true if !raise && !reads_any(c, &ctx.written) => &mut phys.pushed,
                true => &mut phys.row_filter,
                false => &mut phys.residual,
            };
            filter.push(c.clone());
        }
        if !phys.pushed.is_empty() {
            phys.rewrites.push("PushPredicateThroughNonJoin");
        }
        match limit {
            Some(0) if !raise => {
                phys.empty = Some("LIMIT 0".to_string());
                phys.rewrites.push("EliminateLimits");
            }
            Some(n) if phys.row_filter.is_empty() && phys.residual.is_empty() && !raise => {
                phys.scan_limit = Some(n);
                phys.rewrites.push("PushLimitIntoTableScan");
            }
            other => phys.row_limit = other,
        }
    }
    if obs::metrics::counting() {
        for rule in &phys.rewrites {
            let labels = format!("rule=\"{rule}\"");
            obs::metrics::add("guardrail_sql_opt_rule_applications_total", &labels, 1);
        }
    }
    span.arg("rules_applied", phys.rewrites.len() as u64);
    span.arg("predicates_pruned", phys.predicates_pruned as u64);
    phys
}

/// Why the conjunction can never be truthy, if one of its conjuncts proves
/// it; the first proof found, conjunct by conjunct.
fn contradiction(conjuncts: &[&Expr], ctx: &PlanContext<'_>) -> Option<String> {
    let mut subst = raw_pins(conjuncts, ctx);
    subst.extend(implied_pins(&subst, ctx));
    let base = ctx.base.schema();
    for conjunct in conjuncts {
        // NULL comparison: `col <op> NULL` is NULL on every row.
        if let Expr::Binary { op, left, right } = conjunct {
            use BinOp as B;
            if matches!(op, B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge) {
                let null_vs_col = |a: &Expr, b: &Expr| {
                    matches!(a, Expr::Literal(v) if v.is_null())
                        && matches!(b, Expr::Column(c) if base.index_of(c).is_some())
                };
                if null_vs_col(left, right) || null_vs_col(right, left) {
                    return Some(format!("{conjunct} is NULL on every row"));
                }
            }
        }
        // Dictionary absence: an equality against a literal the column has
        // never interned matches nothing. Unsound for program-written
        // columns (rectification may introduce values the dirty table
        // never held).
        if let Some((col, lit)) = pin_of(conjunct) {
            if !ctx.written.iter().any(|w| w == col) {
                if let Some(column) = ctx.base.column_by_name(col) {
                    if column.dictionary().lookup(lit).is_none() {
                        return Some(format!("{conjunct}: value absent from column dictionary"));
                    }
                }
            }
        }
        // A fold to false/NULL under the pins (plus constraint-implied
        // values) proves the conjunction rejects every row.
        if let Some(v) = const_fold(conjunct, &subst) {
            if v.is_null() || v == Value::Bool(false) {
                return Some(format!("{conjunct} is never true"));
            }
        }
    }
    None
}

/// Equality pins on non-written base columns, extracted from conjuncts.
/// Written columns are excluded: their pinned value is the raw value, which
/// the error scheme may rewrite. First pin per column wins (a conflicting
/// second pin is a contradiction the fold then discovers).
fn raw_pins(conjuncts: &[&Expr], ctx: &PlanContext<'_>) -> HashMap<String, Value> {
    let mut pins = HashMap::new();
    for c in conjuncts {
        if let Some((col, v)) = pin_of(c) {
            if ctx.base.schema().index_of(col).is_some()
                && !ctx.written.iter().any(|w| w == col)
                && !pins.contains_key(col)
            {
                pins.insert(col.to_string(), v.clone());
            }
        }
    }
    pins
}

/// Values rectification forces onto dependent columns given `pins`, as
/// name-keyed substitutions. Empty without an entailment-capable context.
fn implied_pins(pins: &HashMap<String, Value>, ctx: &PlanContext<'_>) -> HashMap<String, Value> {
    let Some(analysis) = ctx.analysis.as_ref().filter(|_| ctx.scheme == Some(ErrorScheme::Rectify))
    else {
        return HashMap::new();
    };
    let idx_pins: Vec<(usize, Value)> = pins
        .iter()
        .filter_map(|(name, v)| ctx.base.schema().index_of(name).map(|i| (i, v.clone())))
        .collect();
    analysis
        .implied_assignments(ctx.base, &idx_pins)
        .into_iter()
        .map(|(col, v)| (ctx.base.schema().names()[col].to_string(), v))
        .collect()
}

/// If `conjunct` is an equality pin `col = literal` (either operand order)
/// with a non-null literal, returns `(column, value)`.
pub(crate) fn pin_of(conjunct: &Expr) -> Option<(&str, &Value)> {
    let Expr::Binary { op: BinOp::Eq, left, right } = conjunct else { return None };
    let (col, lit) = match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => (c, v),
        _ => return None,
    };
    if lit.is_null() {
        return None;
    }
    Some((col.as_str(), lit))
}

/// Splits an expression into its top-level AND conjuncts, as references
/// into `expr`.
pub(crate) fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    fn walk<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
        match expr {
            Expr::Binary { op: BinOp::And, left, right } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Rebuilds a conjunction from conjuncts, nested to the left as the parser
/// nests `a AND b AND c`; `None` for an empty list.
pub(crate) fn join_conjuncts(conjuncts: &[Expr]) -> Option<Expr> {
    let (first, rest) = conjuncts.split_first()?;
    Some(rest.iter().fold(first.clone(), |expr, next| Expr::Binary {
        op: BinOp::And,
        left: Box::new(expr),
        right: Box::new(next.clone()),
    }))
}

/// `true` when the conjunct can be evaluated on the raw base row: it calls
/// no model, has no aggregate and reads only base columns.
fn is_pushable(expr: &Expr, base: &Schema) -> bool {
    if expr.has_predict() || expr.has_aggregate() {
        return false;
    }
    let mut cols = Vec::new();
    expr.columns(&mut cols);
    cols.iter().all(|c| base.index_of(c).is_some())
}

/// `true` when `expr` reads any of `names`.
fn reads_any(expr: &Expr, names: &[String]) -> bool {
    let mut cols = Vec::new();
    expr.columns(&mut cols);
    cols.iter().any(|c| names.contains(c))
}

/// Model names called anywhere in the query, in first-use order.
pub(crate) fn collect_models(query: &Query) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let exprs = query.projections.iter().map(|p| &p.expr);
    let exprs = exprs.chain(&query.where_clause).chain(&query.group_by);
    for expr in exprs.chain(query.order_by.iter().map(|(e, _)| e)) {
        expr.visit(&mut |e| {
            if let Expr::Predict { model } = e {
                if !out.contains(model) {
                    out.push(model.clone());
                }
            }
        });
    }
    out
}

/// Renders `phys` plus the query epilogue (aggregation, sort, limit) in
/// the executor's `EXPLAIN` format, one line per stage in the order the
/// executor runs them.
pub(crate) fn render(phys: &Physical, query: &Query, ctx: &PlanContext<'_>) -> String {
    let mut out = String::new();
    if let Some(reason) = &phys.empty {
        out.push_str(&format!("EmptyScan {} (0 rows: {reason})\n", query.from));
    } else {
        let (rows, columns) = (ctx.base.num_rows(), ctx.base.num_columns());
        out.push_str(&format!("Scan {} ({rows} rows, {columns} columns)\n", query.from));
        if let Some(p) = join_conjuncts(&phys.pushed) {
            out.push_str(&format!("  Pushdown filter: {p}\n"));
        }
        if let Some(n) = phys.scan_limit {
            out.push_str(&format!("  Scan limit: {n}\n"));
        }
        if let Some(scheme) = ctx.scheme {
            out.push_str(&format!("  Guardrail: {scheme:?}\n"));
        }
        if let Some(p) = join_conjuncts(&phys.row_filter) {
            out.push_str(&format!("  Row filter: {p}\n"));
        }
        let models = collect_models(query);
        if !models.is_empty() {
            out.push_str(&format!("  Predict: {}\n", models.join(", ")));
        }
        if let Some(p) = join_conjuncts(&phys.residual) {
            out.push_str(&format!("  Residual filter: {p}\n"));
        }
        if let Some(n) = phys.row_limit {
            out.push_str(&format!("  Limit: {n}\n"));
        }
    }
    let projections: Vec<String> =
        query.projections.iter().map(|p| format!("{} AS {}", p.expr, p.name)).collect();
    if !query.group_by.is_empty() || query.projections.iter().any(|p| p.expr.has_aggregate()) {
        let keys: Vec<String> = query.group_by.iter().map(|g| g.to_string()).collect();
        out.push_str(&format!(
            "  Aggregate: GROUP BY [{}] -> [{}]\n",
            keys.join(", "),
            projections.join(", ")
        ));
        if let Some(h) = &query.having {
            out.push_str(&format!("  Having: {h}\n"));
        }
    } else {
        out.push_str(&format!("  Project: [{}]\n", projections.join(", ")));
    }
    if !query.order_by.is_empty() {
        let keys: Vec<String> =
            query.order_by.iter().map(|(e, o)| format!("{e} {:?}", o).to_uppercase()).collect();
        out.push_str(&format!("  Sort: {}\n", keys.join(", ")));
    }
    if let (Some(l), None, None) = (query.limit, phys.scan_limit, phys.row_limit) {
        out.push_str(&format!("  Limit: {l}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn table() -> Table {
        Table::from_csv_str("a,b\n1,x\n2,y\n3,x\n").unwrap()
    }

    fn plan_of(sql: &str, t: &Table) -> Physical {
        plan(&parse_query(sql).unwrap(), &PlanContext::new(t), true)
    }

    fn where_of(sql: &str) -> Expr {
        parse_query(sql).unwrap().where_clause.unwrap()
    }

    #[test]
    fn pushdown_lands_in_the_scan() {
        let out = plan_of("SELECT a FROM t WHERE a = 1 AND b = 'x'", &table());
        assert_eq!(out.pushed.len(), 2, "{out:?}");
        assert!(out.residual.is_empty(), "{out:?}");
        assert_eq!(out.rewrites, ["PushPredicateThroughNonJoin"]);
    }

    #[test]
    fn alias_and_model_conjuncts_stay_residual() {
        let t = table();
        let out = plan_of("SELECT a AS c FROM t WHERE c = 1 AND b = 'x'", &t);
        assert_eq!(out.pushed, [where_of("SELECT a FROM t WHERE b = 'x'")], "{out:?}");
        assert_eq!(out.residual, [where_of("SELECT a FROM t WHERE c = 1")], "{out:?}");
        let out = plan_of("SELECT a FROM t WHERE PREDICT(m) = 'x'", &t);
        assert!(out.pushed.is_empty() && out.residual.len() == 1, "{out:?}");
    }

    #[test]
    fn limit_sinks_into_a_filter_free_scan() {
        let t = table();
        let out = plan_of("SELECT a FROM t WHERE a > 1 LIMIT 2", &t);
        assert_eq!((out.scan_limit, out.row_limit), (Some(2), None), "{out:?}");
        // A residual conjunct caps the rows passing it instead.
        let out = plan_of("SELECT a AS c FROM t WHERE c > 1 LIMIT 2", &t);
        assert_eq!((out.scan_limit, out.row_limit), (None, Some(2)), "{out:?}");
        // LIMIT after ORDER BY stays in the epilogue.
        let out = plan_of("SELECT a FROM t ORDER BY a LIMIT 2", &t);
        assert_eq!((out.scan_limit, out.row_limit), (None, None), "{out:?}");
    }

    #[test]
    fn limit_zero_empties_the_scan() {
        let out = plan_of("SELECT a FROM t LIMIT 0", &table());
        assert_eq!(out.empty.as_deref(), Some("LIMIT 0"), "{out:?}");
    }

    #[test]
    fn conflicting_pins_contradict() {
        let out = plan_of("SELECT a FROM t WHERE a = 1 AND a = 2", &table());
        assert_eq!(out.empty.as_deref(), Some("(a = 2) is never true"), "{out:?}");
        assert_eq!(out.rewrites, ["ContradictionDetection"]);
    }

    #[test]
    fn dictionary_absence_contradicts() {
        let out = plan_of("SELECT a FROM t WHERE b = 'zebra'", &table());
        assert!(out.empty.unwrap().contains("absent from column dictionary"));
    }

    #[test]
    fn duplicate_conjunct_pruned() {
        let out = plan_of("SELECT a FROM t WHERE a = 1 AND a = 1", &table());
        assert_eq!(out.predicates_pruned, 1, "{out:?}");
        assert_eq!(out.pushed, [where_of("SELECT a FROM t WHERE a = 1")], "{out:?}");
    }

    #[test]
    fn reference_plan_runs_no_rewrite() {
        let t = table();
        let q =
            parse_query("SELECT a AS c FROM t WHERE a = 1 AND a = 1 AND c > 0 LIMIT 0").unwrap();
        let out = plan(&q, &PlanContext::new(&t), false);
        assert_eq!((out.pushed.len(), out.residual.len()), (2, 1), "{out:?}");
        assert_eq!((out.empty, out.row_limit, out.predicates_pruned), (None, Some(0), 0));
        assert!(out.rewrites.is_empty());
        let q = parse_query("SELECT PREDICT(m) AS p FROM t WHERE a = 1").unwrap();
        let out = plan(&q, &PlanContext::new(&t), false);
        assert!(out.pushed.is_empty() && out.residual.len() == 1, "{out:?}");
    }

    #[test]
    fn conjunct_splitting_and_joining() {
        let e = where_of("SELECT a FROM t WHERE a = 1 AND b = 'x' AND a < 5");
        let parts: Vec<Expr> = split_conjuncts(&e).into_iter().cloned().collect();
        assert_eq!(parts.len(), 3);
        let joined = join_conjuncts(&parts).unwrap();
        assert_eq!(split_conjuncts(&joined), parts.iter().collect::<Vec<_>>());
        assert!(join_conjuncts(&[]).is_none());
        // OR does not split.
        assert_eq!(split_conjuncts(&where_of("SELECT a FROM t WHERE a = 1 OR b = 'x'")).len(), 1);
    }

    #[test]
    fn pin_extraction() {
        assert!(pin_of(&where_of("SELECT a FROM t WHERE a = 1")).is_some());
        assert!(pin_of(&where_of("SELECT a FROM t WHERE 1 = a")).is_some());
        assert!(pin_of(&where_of("SELECT a FROM t WHERE a = NULL")).is_none());
        assert!(pin_of(&where_of("SELECT a FROM t WHERE a > 1")).is_none());
        assert!(pin_of(&where_of("SELECT a FROM t WHERE a = b")).is_none());
    }
}
