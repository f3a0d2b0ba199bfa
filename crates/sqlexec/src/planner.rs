//! Logical plan IR lifted from the parsed AST.
//!
//! [`lift`] turns a parsed [`Query`] into a small relational spine —
//! `Scan → Vet? → Predict? → Project → Filter? → Limit?` — which the
//! [`crate::hep`] rule framework rewrites and the executor consumes. The
//! *naive* spine is the engine's reference semantics: the whole `WHERE`
//! clause evaluates as a residual filter above the guardrail interception
//! point, exactly like `Executor::with_pushdown(false)`. Every rewrite the
//! optimizer performs must be result-identical to that plan (for queries
//! whose evaluation does not error — like any production optimizer,
//! reordering may skip a predicate that would have raised a type error on
//! some row).
//!
//! The constraint-aware rewrites lean on [`PlanContext`]: equality pins from
//! the predicate are pushed through the fitted program's decision tables
//! ([`CompiledProgram::implied_assignments`]) to discover values that
//! rectification *forces* onto dependent columns, letting the optimizer
//! drop entailed conjuncts or collapse contradictory plans to an
//! [`Plan::EmptyScan`] before a single row is vetted.

use crate::ast::{BinOp, Expr, Query, SelectItem};
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_dsl::CompiledProgram;
use guardrail_table::{Table, Value};

/// A logical plan node. Plans are linear spines (every node has at most one
/// input); joins are out of dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Leaf: scan `table`, keeping rows satisfying every `filters` conjunct
    /// (evaluated on raw rows, before any vetting), stopping after `limit`
    /// surviving rows when set.
    Scan {
        /// Catalog table name.
        table: String,
        /// Pushed-down conjuncts, AND-ed.
        filters: Vec<Expr>,
        /// Early-stop cap on surviving rows.
        limit: Option<usize>,
    },
    /// A scan proven to yield zero rows — the contradiction-detection
    /// rewrite target. No rows are scanned, vetted, or predicted.
    EmptyScan {
        /// Catalog table name (kept for rendering).
        table: String,
        /// Why the plan is empty, for `EXPLAIN`.
        reason: String,
    },
    /// Keep rows whose predicate is truthy.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// The predicate.
        predicate: Expr,
    },
    /// The guardrail interception point: every row is vetted under `scheme`
    /// before it may feed a model.
    Vet {
        /// Input plan.
        input: Box<Plan>,
        /// Error scheme applied to dirty rows.
        scheme: ErrorScheme,
    },
    /// Run every model in `models` on each row.
    Predict {
        /// Input plan.
        input: Box<Plan>,
        /// Catalog model names, in first-use order.
        models: Vec<String>,
    },
    /// Compute the SELECT-list expressions (aliases become visible above).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// SELECT-list items.
        items: Vec<SelectItem>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row cap.
        n: usize,
    },
}

impl Plan {
    /// The node's input, if any (leaves return `None`).
    pub fn input(&self) -> Option<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::EmptyScan { .. } => None,
            Plan::Filter { input, .. }
            | Plan::Vet { input, .. }
            | Plan::Predict { input, .. }
            | Plan::Project { input, .. }
            | Plan::Limit { input, .. } => Some(input),
        }
    }

    /// Rebuilds this node over a new input (leaves return a clone).
    pub(crate) fn with_input(&self, new_input: Plan) -> Plan {
        let mut out = self.clone();
        match &mut out {
            Plan::Scan { .. } | Plan::EmptyScan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Vet { input, .. }
            | Plan::Predict { input, .. }
            | Plan::Project { input, .. }
            | Plan::Limit { input, .. } => **input = new_input,
        }
        out
    }

    /// The scheme of the `Vet` node in this subtree, if one exists.
    pub fn vet_scheme(&self) -> Option<ErrorScheme> {
        match self {
            Plan::Vet { scheme, .. } => Some(*scheme),
            other => other.input().and_then(Plan::vet_scheme),
        }
    }

    /// The table name of the leaf `Scan`/`EmptyScan`.
    pub fn scan_table(&self) -> &str {
        match self {
            Plan::Scan { table, .. } | Plan::EmptyScan { table, .. } => table,
            other => other.input().expect("non-leaf has input").scan_table(),
        }
    }

    /// `true` when the subtree contains a `Limit` node or a scan-level
    /// row cap (used to avoid double-rendering `LIMIT` in explain output).
    pub fn has_limit(&self) -> bool {
        match self {
            Plan::Limit { .. } => true,
            Plan::Scan { limit, .. } => limit.is_some(),
            other => other.input().map(Plan::has_limit).unwrap_or(false),
        }
    }
}

/// Everything the rewrite rules may consult: the base table (schemas and
/// dictionaries), the guardrail interception scheme, and the compiled
/// program used for entailment probes.
pub struct PlanContext<'a> {
    /// The FROM table.
    pub base: &'a Table,
    /// `Some` iff a guardrail intercepts this query (a guardrail is
    /// installed *and* the query calls `PREDICT`).
    pub scheme: Option<ErrorScheme>,
    /// Dependent attribute names of the program statements that bind to
    /// `base`; empty without a guardrail. Conjuncts touching these columns
    /// never cross the `Vet` barrier — their raw and rectified values may
    /// differ. No other column is ever written.
    pub written: Vec<String>,
    /// The program compiled against `base`, for decision-table entailment
    /// probes. Only populated under `Rectify` (the one scheme that forces
    /// dependent columns to their determined values).
    pub analysis: Option<CompiledProgram>,
}

impl<'a> PlanContext<'a> {
    /// A context with no guardrail interception.
    pub fn new(base: &'a Table) -> Self {
        Self { base, scheme: None, written: Vec::new(), analysis: None }
    }

    /// Installs the guardrail interception facts. `probe_entailment`
    /// additionally compiles the fitted program against `base` so the
    /// constraint-aware rules can run (callers pass `false` when the query
    /// has no `WHERE` clause — there is nothing to prune).
    pub fn with_guardrail(
        mut self,
        guardrail: &Guardrail,
        scheme: ErrorScheme,
        probe_entailment: bool,
    ) -> Self {
        self.scheme = Some(scheme);
        let program = guardrail.program();
        let unbound = program.unbound(self.base.schema());
        for (i, s) in program.statements.iter().enumerate() {
            if unbound.iter().all(|u| u.statement != i) && !self.written.contains(&s.on) {
                self.written.push(s.on.clone());
            }
        }
        if probe_entailment && scheme == ErrorScheme::Rectify {
            let compiled = CompiledProgram::compile(guardrail.program(), self.base);
            self.analysis = Some(compiled.expect("a guardrail's program validates"));
        }
        self
    }
}

/// Lifts a parsed query into the naive plan spine. `LIMIT` becomes a plan
/// node only for plain queries (no aggregate, `GROUP BY`, or `ORDER BY`);
/// otherwise it applies to the epilogue's output relation, after sorting.
pub fn lift(query: &Query, ctx: &PlanContext<'_>) -> Plan {
    let models = collect_models(query);
    let mut plan = Plan::Scan { table: query.from.clone(), filters: Vec::new(), limit: None };
    if !models.is_empty() {
        if let Some(scheme) = ctx.scheme {
            plan = Plan::Vet { input: Box::new(plan), scheme };
        }
        plan = Plan::Predict { input: Box::new(plan), models };
    }
    plan = Plan::Project { input: Box::new(plan), items: query.projections.clone() };
    if let Some(w) = &query.where_clause {
        plan = Plan::Filter { input: Box::new(plan), predicate: w.clone() };
    }
    let plain = query.group_by.is_empty()
        && query.order_by.is_empty()
        && query.having.is_none()
        && !query.projections.iter().any(|p| p.expr.has_aggregate());
    if let (Some(n), true) = (query.limit, plain) {
        plan = Plan::Limit { input: Box::new(plan), n };
    }
    plan
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

/// Renders the optimized plan plus the query epilogue (aggregation, sort,
/// limit) in the executor's established `EXPLAIN` format.
pub fn render(plan: &Plan, query: &Query, ctx: &PlanContext<'_>) -> String {
    use crate::optimizer::join_conjuncts;
    let mut out = String::new();
    fn spine<'p>(plan: &'p Plan, out: &mut Vec<&'p Plan>) {
        if let Some(input) = plan.input() {
            spine(input, out);
        }
        out.push(plan);
    }
    let mut nodes = Vec::new();
    spine(plan, &mut nodes);
    for (pos, node) in nodes.iter().enumerate() {
        match node {
            Plan::Scan { table, filters, limit } => {
                out.push_str(&format!(
                    "Scan {} ({} rows, {} columns)\n",
                    table,
                    ctx.base.num_rows(),
                    ctx.base.num_columns()
                ));
                if let Some(p) = join_conjuncts(filters.clone()) {
                    out.push_str(&format!("  Pushdown filter: {p}\n"));
                }
                if let Some(n) = limit {
                    out.push_str(&format!("  Scan limit: {n}\n"));
                }
            }
            Plan::EmptyScan { table, reason } => {
                out.push_str(&format!("EmptyScan {table} (0 rows: {reason})\n"));
            }
            Plan::Vet { scheme, .. } => {
                out.push_str(&format!("  Guardrail: {scheme:?}\n"));
            }
            Plan::Predict { models, .. } => {
                out.push_str(&format!("  Predict: {}\n", models.join(", ")));
            }
            Plan::Filter { predicate, .. } => {
                // A filter with the model/vet stages still above it runs on
                // raw scan rows; one above them is the residual predicate.
                let below_barrier = nodes[pos + 1..]
                    .iter()
                    .any(|n| matches!(n, Plan::Vet { .. } | Plan::Predict { .. }));
                if below_barrier {
                    out.push_str(&format!("  Pushdown filter: {predicate}\n"));
                } else {
                    out.push_str(&format!("  Residual filter: {predicate}\n"));
                }
            }
            Plan::Limit { n, .. } => {
                out.push_str(&format!("  Limit: {n}\n"));
            }
            Plan::Project { .. } => {} // rendered from the query epilogue
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
    if let (Some(l), false) = (query.limit, plan.has_limit()) {
        out.push_str(&format!("  Limit: {l}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn where_of(sql: &str) -> Expr {
        parse_query(sql).unwrap().where_clause.unwrap()
    }

    #[test]
    fn lift_builds_naive_spine() {
        let t = Table::from_csv_str("a,b\n1,x\n").unwrap();
        let ctx = PlanContext::new(&t);
        let q = parse_query("SELECT a FROM t WHERE a = 1 LIMIT 2").unwrap();
        let plan = lift(&q, &ctx);
        // Limit over Filter over Project over Scan.
        let Plan::Limit { input, n: 2 } = &plan else { panic!("{plan:?}") };
        let Plan::Filter { input, .. } = input.as_ref() else { panic!("{plan:?}") };
        let Plan::Project { input, .. } = input.as_ref() else { panic!("{plan:?}") };
        assert!(matches!(input.as_ref(), Plan::Scan { .. }));
    }

    #[test]
    fn lift_keeps_limit_out_of_sorted_plans() {
        let t = Table::from_csv_str("a,b\n1,x\n").unwrap();
        let ctx = PlanContext::new(&t);
        let q = parse_query("SELECT a FROM t ORDER BY a LIMIT 2").unwrap();
        let plan = lift(&q, &ctx);
        assert!(!plan.has_limit(), "LIMIT after ORDER BY stays in the epilogue");
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
