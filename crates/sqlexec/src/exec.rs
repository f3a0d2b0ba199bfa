//! The query executor.

use crate::ast::{AggFunc, BinOp, Expr, Query, SortOrder};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::hep::{HepOptimizer, OptOutcome};
use crate::optimizer::{join_conjuncts, split_conjuncts_ref};
use crate::parser::parse_query;
use crate::planner::{self, collect_models, lift, Plan, PlanContext};
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_governor::{Budget, DegradationReport};
use guardrail_table::{Row, Table, TableBuilder, Value};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Per-query execution statistics (the Table 6 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Rows in the base table.
    pub rows_scanned: usize,
    /// Rows surviving pushed-down predicates (== `rows_scanned` when no
    /// predicate was pushable).
    pub rows_after_pushdown: usize,
    /// Rows vetted by the guardrail before inference.
    pub rows_vetted: usize,
    /// Model invocations performed.
    pub predictions: usize,
    /// Nanoseconds spent in Guardrail row vetting.
    pub guardrail_nanos: u128,
    /// Nanoseconds spent in ML inference.
    pub inference_nanos: u128,
    /// Constraint violations encountered.
    pub violations: usize,
    /// Program statements whose branches mix pinned-column sets, so that
    /// batched vetting looked each row up in more than one decision table.
    /// Zero for synthesized programs and for the empty program.
    pub engine_fallback_statements: usize,
    /// Optimizer rule applications that shaped this query's plan.
    pub rules_applied: usize,
    /// `WHERE` conjuncts dropped because a synthesized constraint (or
    /// another conjunct) entails them.
    pub predicates_pruned: usize,
    /// Rows never scanned because the optimizer proved the predicate
    /// contradicts the constraints (or the scan dictionaries) and collapsed
    /// the plan to an empty scan.
    pub rows_skipped_by_contradiction: usize,
}

impl fmt::Display for ExecutionStats {
    /// `EXPLAIN ANALYZE`-style rendering, one stage per line (the format
    /// [`Executor::explain_analyze`] appends below the plan).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Execution: scanned {} rows, {} after pushdown",
            self.rows_scanned, self.rows_after_pushdown
        )?;
        writeln!(
            f,
            "  Guardrail: vetted {} rows, {} violations, {:.3} ms ({} multi-table statements)",
            self.rows_vetted,
            self.violations,
            self.guardrail_nanos as f64 / 1e6,
            self.engine_fallback_statements
        )?;
        writeln!(
            f,
            "  Inference: {} predictions, {:.3} ms",
            self.predictions,
            self.inference_nanos as f64 / 1e6
        )?;
        writeln!(
            f,
            "  Optimizer: {} rules applied, {} predicates pruned, {} rows skipped by contradiction",
            self.rules_applied, self.predicates_pruned, self.rows_skipped_by_contradiction
        )
    }
}

/// A query result: the output relation plus execution statistics.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result rows.
    pub table: Table,
    /// Statistics.
    pub stats: ExecutionStats,
    /// Complete when the optimizer ran within budget; degraded (with the
    /// `sql_optimize` stage recorded) when rule applications exhausted the
    /// work cap and the naive plan was executed instead. Degradation is
    /// never an error and never a wrong answer — only a slower plan.
    pub degradation: DegradationReport,
}

/// Executes SQL against a [`Catalog`], optionally guarding every ML
/// inference with a fitted [`Guardrail`].
pub struct Executor<'a> {
    catalog: &'a Catalog,
    guardrail: Option<(&'a Guardrail, ErrorScheme)>,
    pushdown: bool,
    opt_budget: u64,
}

/// What the planning prologue hands to `explain` and `run_query`.
struct Planned<'a> {
    /// The rewrite context; `ctx.base` is the FROM table.
    ctx: PlanContext<'a>,
    /// Models the query calls, in first-use order.
    models: Vec<String>,
    /// The guardrail that intercepts the query, if any.
    intercept: Option<(&'a Guardrail, ErrorScheme)>,
    /// The plan to run: the naive plan without pushdown.
    outcome: OptOutcome,
}

/// Default work cap on optimizer rule applications per query — far above
/// what any spine-shaped plan needs, so exhaustion only fires on
/// deliberately tiny caps (tests) or pathological predicates.
const DEFAULT_OPT_BUDGET: u64 = 4096;

impl<'a> Executor<'a> {
    /// An executor with plan optimization enabled and no guardrail.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog, guardrail: None, pushdown: true, opt_budget: DEFAULT_OPT_BUDGET }
    }

    /// Installs a guardrail: every row feeding a `PREDICT` is vetted under
    /// `scheme` first (Fig. 1's interception point).
    pub fn with_guardrail(mut self, guardrail: &'a Guardrail, scheme: ErrorScheme) -> Self {
        self.guardrail = Some((guardrail, scheme));
        self
    }

    /// Toggles plan optimization (ablation hook). Disabled, every query
    /// runs its naive plan: the whole `WHERE` clause evaluates as a
    /// residual filter above the guardrail interception point.
    pub fn with_pushdown(mut self, enabled: bool) -> Self {
        self.pushdown = enabled;
        self
    }

    /// Caps optimizer rule applications per query (governor work units).
    /// Exhaustion degrades to the naive plan — see [`QueryOutput::degradation`].
    pub fn with_opt_budget(mut self, cap: u64) -> Self {
        self.opt_budget = cap;
        self
    }

    /// The guardrail that intercepts `query` — `None` without an installed
    /// guardrail or a `PREDICT` call — after checking, before any scan, that
    /// every statement of its program binds to `base` (SQL vetting is
    /// all-or-nothing).
    fn intercept(
        &self,
        query: &Query,
        base: &Table,
        models: &[String],
    ) -> Result<Option<(&'a Guardrail, ErrorScheme)>, SqlError> {
        let Some((guard, scheme)) = self.guardrail.filter(|_| !models.is_empty()) else {
            return Ok(None);
        };
        let mut missing: Vec<String> = Vec::new();
        for name in guard.program().unbound(base.schema()).into_iter().flat_map(|u| u.missing) {
            if !missing.contains(&name) {
                missing.push(name);
            }
        }
        if !missing.is_empty() {
            return Err(SqlError::GuardrailUnbound { table: query.from.clone(), missing });
        }
        Ok(Some((guard, scheme)))
    }

    /// The planning prologue `explain` and `run_query` share: resolves the
    /// FROM table, the models the query calls and the guardrail that
    /// intercepts it, then lifts the naive plan and, with pushdown on,
    /// rewrites it to fixpoint. The naive spine *is* this engine's reference
    /// semantics; exhausting the optimizer budget degrades back to it
    /// (recorded in the report), never to an error. `require_models` makes
    /// a model missing from the catalog an error (`explain` renders it).
    fn plan(&self, query: &Query, require_models: bool) -> Result<Planned<'a>, SqlError> {
        let base = self
            .catalog
            .table(&query.from)
            .ok_or_else(|| SqlError::UnknownTable(query.from.clone()))?;
        let models = collect_models(query);
        if require_models {
            if let Some(m) = models.iter().find(|m| self.catalog.model(m).is_none()) {
                return Err(SqlError::UnknownModel(m.clone()));
            }
        }
        let intercept = self.intercept(query, base, &models)?;
        let mut ctx = PlanContext::new(base);
        if let Some((guard, scheme)) = intercept {
            ctx = ctx.with_guardrail(guard, scheme, query.where_clause.is_some());
        }
        let naive = lift(query, &ctx);
        let outcome = if self.pushdown {
            HepOptimizer::standard().optimize(&naive, &ctx, &Budget::with_work_cap(self.opt_budget))
        } else {
            OptOutcome::naive(naive, DegradationReport::default())
        };
        Ok(Planned { ctx, models, intercept, outcome })
    }

    /// Parses and executes `sql`.
    pub fn run(&self, sql: &str) -> Result<QueryOutput, SqlError> {
        let query = parse_query(sql)?;
        self.run_query(&query)
    }

    /// Renders the execution plan for `sql` without running it — which
    /// predicates are pushed below the ML stage, where the guardrail
    /// intercepts, the shape of the aggregation, and which optimizer rules
    /// fired.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        let query = parse_query(sql)?;
        let Planned { ctx, outcome, .. } = self.plan(&query, false)?;
        let mut out = planner::render(&outcome.plan, &query, &ctx);
        if !self.pushdown {
            return Ok(out);
        }
        if outcome.applied.is_empty() {
            out.push_str("  Rules: none\n");
        } else {
            let parts: Vec<String> = outcome
                .applied
                .iter()
                .map(|(n, c)| if *c > 1 { format!("{n} x{c}") } else { (*n).to_string() })
                .collect();
            out.push_str(&format!("  Rules: {}\n", parts.join(", ")));
        }
        if !outcome.degradation.is_complete() {
            out.push_str("  Degraded: optimizer budget exhausted, naive plan kept\n");
        }
        Ok(out)
    }

    /// `EXPLAIN ANALYZE`: renders the plan, executes the query, and appends
    /// the observed [`ExecutionStats`] below it.
    pub fn explain_analyze(&self, sql: &str) -> Result<String, SqlError> {
        let plan = self.explain(sql)?;
        let out = self.run(sql)?;
        Ok(format!("{plan}{}", out.stats))
    }

    /// Executes a parsed query.
    pub fn run_query(&self, query: &Query) -> Result<QueryOutput, SqlError> {
        let mut query_span = guardrail_obs::span("run_query");
        let Planned { ctx, models, intercept, outcome } = self.plan(query, true)?;
        let base = ctx.base;
        query_span.arg("rows_scanned", base.num_rows() as u64);
        let mut stats = ExecutionStats {
            rows_scanned: base.num_rows(),
            rules_applied: outcome.rules_applied,
            predicates_pruned: outcome.predicates_pruned,
            ..ExecutionStats::default()
        };
        let (plan, degradation) = (outcome.plan, outcome.degradation);

        // Flatten the linear spine into a physical spec: which conjuncts
        // run on raw scan rows vs after vet/predict, the scan's early-stop
        // cap, and the post-residual row cap.
        fn has_barrier(p: &Plan) -> bool {
            match p {
                Plan::Vet { .. } | Plan::Predict { .. } => true,
                other => other.input().map(has_barrier).unwrap_or(false),
            }
        }
        let mut pushed_parts: Vec<Expr> = Vec::new();
        let mut residual_parts: Vec<Expr> = Vec::new();
        let mut scan_limit: Option<usize> = None;
        let mut plan_limit: Option<usize> = None;
        let mut empty_reason: Option<String> = None;
        {
            let mut node = &plan;
            loop {
                match node {
                    Plan::Limit { input, n } => {
                        plan_limit = Some(plan_limit.map_or(*n, |c| c.min(*n)));
                        node = input;
                    }
                    Plan::Filter { input, predicate } => {
                        let parts = split_conjuncts_ref(predicate).into_iter().cloned();
                        if has_barrier(input) {
                            residual_parts.extend(parts);
                        } else {
                            pushed_parts.extend(parts);
                        }
                        node = input;
                    }
                    Plan::Vet { input, .. }
                    | Plan::Predict { input, .. }
                    | Plan::Project { input, .. } => node = input,
                    Plan::Scan { filters, limit, .. } => {
                        pushed_parts.extend(filters.iter().cloned());
                        scan_limit = *limit;
                        break;
                    }
                    Plan::EmptyScan { reason, .. } => {
                        empty_reason = Some(reason.clone());
                        break;
                    }
                }
            }
        }
        let pushed = join_conjuncts(pushed_parts);
        let residual = join_conjuncts(residual_parts);

        // Phase 1: pushed-down predicates on the raw table. A proven
        // contradiction skips the scan entirely.
        let empty_env = Env { row: None, aliases: &HashMap::new(), predictions: &HashMap::new() };
        let mut surviving: Vec<usize> = Vec::new();
        if empty_reason.is_some() {
            stats.rows_skipped_by_contradiction = base.num_rows();
        } else {
            surviving.reserve(base.num_rows());
            for i in 0..base.num_rows() {
                if let Some(cap) = scan_limit {
                    if surviving.len() >= cap {
                        break;
                    }
                }
                match &pushed {
                    None => surviving.push(i),
                    Some(pred) => {
                        let row = base.row_owned(i).expect("row in range");
                        let env = Env { row: Some(&row), ..empty_env };
                        if truthy(&eval(pred, &env)?)? {
                            surviving.push(i);
                        }
                    }
                }
            }
        }
        stats.rows_after_pushdown = surviving.len();

        // Phase 2: guardrail vetting, inference, alias computation, residual
        // filtering. Vetting is batched: only the columns the program binds
        // are gathered from the surviving rows and checked in one vectorized
        // decision-table pass; the rewritten dependents are overlaid back
        // onto the raw rows below. Binding was checked before the scan.
        let scalar_projections: Vec<(usize, &Expr, &str)> = query
            .projections
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.expr.has_aggregate())
            .map(|(i, p)| (i, &p.expr, p.name.as_str()))
            .collect();

        let mut vetted: Option<(Table, Vec<(String, usize)>)> = None;
        if let (Some((guard, scheme)), None) = (intercept, &empty_reason) {
            let t0 = Instant::now();
            stats.rows_vetted = surviving.len();
            // `None` here means the program is empty: it vets nothing.
            if let Some(nv) = guard.vet_rows_narrow(base, &surviving, scheme) {
                stats.violations = nv.violations.len();
                stats.engine_fallback_statements = nv.legacy_statements;
                if scheme == ErrorScheme::Raise {
                    // Violations are row-ordered: the first is on the first
                    // dirty row.
                    if let Some(v) = nv.violations.first() {
                        return Err(SqlError::GuardrailRaise {
                            row: surviving[v.row],
                            detail: format!(
                                "{} should be {} (found {})",
                                v.attribute, v.expected, v.actual
                            ),
                        });
                    }
                }
                let written = nv
                    .written
                    .iter()
                    .filter_map(|name| {
                        nv.table.schema().index_of(name).map(|ci| (name.clone(), ci))
                    })
                    .collect();
                vetted = Some((nv.table, written));
            }
            stats.guardrail_nanos += t0.elapsed().as_nanos();
        }

        struct Processed {
            row: Row,
            predictions: HashMap<String, Value>,
            aliases: HashMap<String, Value>,
        }
        let mut processed: Vec<Processed> = Vec::with_capacity(surviving.len());
        for (k, &i) in surviving.iter().enumerate() {
            if let Some(cap) = plan_limit {
                if processed.len() >= cap {
                    break;
                }
            }
            let mut row = base.row_owned(i).expect("row in range");
            if let Some((nt, written)) = &vetted {
                // Row k of the vetted sub-table is base row `surviving[k]`.
                for (name, ci) in written {
                    row.set_by_name(name, nt.get(k, *ci).expect("cell in range"));
                }
            }
            let mut predictions = HashMap::new();
            if !models.is_empty() {
                let t0 = Instant::now();
                for m in &models {
                    let model = self.catalog.model(m).expect("checked above");
                    predictions.insert(m.clone(), model.predict_row(&row));
                    stats.predictions += 1;
                }
                stats.inference_nanos += t0.elapsed().as_nanos();
            }
            // Aliases for scalar projections (GROUP BY income_pred support).
            let mut aliases = HashMap::new();
            {
                let env = Env { row: Some(&row), aliases: &aliases, predictions: &predictions };
                let mut computed = Vec::new();
                for &(_, expr, name) in &scalar_projections {
                    computed.push((name.to_string(), eval(expr, &env)?));
                }
                aliases.extend(computed);
            }
            // Residual predicate.
            if let Some(pred) = &residual {
                let env = Env { row: Some(&row), aliases: &aliases, predictions: &predictions };
                if !truthy(&eval(pred, &env)?)? {
                    continue;
                }
            }
            processed.push(Processed { row, predictions, aliases });
        }

        // Phase 3: aggregation / projection.
        let has_aggregate = query.projections.iter().any(|p| p.expr.has_aggregate());
        let names: Vec<String> = query.projections.iter().map(|p| p.name.clone()).collect();
        let mut builder = TableBuilder::new(names);

        if has_aggregate || !query.group_by.is_empty() {
            // Group rows by the GROUP BY key.
            let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
            let mut index: HashMap<String, usize> = HashMap::new();
            for (ri, p) in processed.iter().enumerate() {
                let env =
                    Env { row: Some(&p.row), aliases: &p.aliases, predictions: &p.predictions };
                let mut key = Vec::with_capacity(query.group_by.len());
                for g in &query.group_by {
                    key.push(eval(g, &env)?);
                }
                let fingerprint = format!("{key:?}");
                match index.get(&fingerprint) {
                    Some(&gi) => groups[gi].1.push(ri),
                    None => {
                        index.insert(fingerprint, groups.len());
                        groups.push((key, vec![ri]));
                    }
                }
            }
            if groups.is_empty() && query.group_by.is_empty() {
                // Aggregates over an empty input still yield one row.
                groups.push((Vec::new(), Vec::new()));
            }
            groups.sort_by(|(ka, _), (kb, _)| ka.cmp(kb)); // deterministic output
                                                           // HAVING filters whole groups; aggregates inside it evaluate
                                                           // over the group's members.
            if let Some(having) = &query.having {
                let mut kept = Vec::with_capacity(groups.len());
                for (key, members) in groups {
                    let value = eval_aggregate(having, &members, |ri| Env {
                        row: Some(&processed[ri].row),
                        aliases: &processed[ri].aliases,
                        predictions: &processed[ri].predictions,
                    })?;
                    if truthy(&value)? {
                        kept.push((key, members));
                    }
                }
                groups = kept;
            }
            for (_, members) in &groups {
                let mut out_row = Vec::with_capacity(query.projections.len());
                for p in &query.projections {
                    if p.expr.has_aggregate() {
                        out_row.push(eval_aggregate(&p.expr, members, |ri| Env {
                            row: Some(&processed[ri].row),
                            aliases: &processed[ri].aliases,
                            predictions: &processed[ri].predictions,
                        })?);
                    } else {
                        // Scalar in a grouped query: value from the first
                        // member (callers group by it, per SQL convention).
                        match members.first() {
                            Some(&ri) => {
                                out_row.push(processed[ri].aliases[&p.name].clone());
                            }
                            None => out_row.push(Value::Null),
                        }
                    }
                }
                builder.push_row(out_row).expect("arity matches");
            }
        } else {
            for p in &processed {
                let out_row =
                    query.projections.iter().map(|item| p.aliases[&item.name].clone()).collect();
                builder.push_row(out_row).expect("arity matches");
            }
        }
        let mut table = builder.finish().map_err(|e| SqlError::Semantic(e.to_string()))?;

        // Phase 4: ORDER BY over the output relation.
        if !query.order_by.is_empty() {
            let mut keys: Vec<(Vec<Value>, Vec<SortOrder>, usize)> = Vec::new();
            for i in 0..table.num_rows() {
                let row = table.row_owned(i).expect("in range");
                let mut key = Vec::new();
                let mut orders = Vec::new();
                for (e, ord) in &query.order_by {
                    let env = Env {
                        row: Some(&row),
                        aliases: &HashMap::new(),
                        predictions: &HashMap::new(),
                    };
                    key.push(eval(e, &env)?);
                    orders.push(*ord);
                }
                keys.push((key, orders, i));
            }
            keys.sort_by(|(ka, orders, _), (kb, _, _)| {
                for ((a, b), ord) in ka.iter().zip(kb).zip(orders) {
                    let c = a.cmp(b);
                    let c = match ord {
                        SortOrder::Asc => c,
                        SortOrder::Desc => c.reverse(),
                    };
                    if c != std::cmp::Ordering::Equal {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let order: Vec<usize> = keys.into_iter().map(|(_, _, i)| i).collect();
            table = table.take(&order);
        }

        // Phase 5: LIMIT.
        if let Some(limit) = query.limit {
            table = table.head(limit);
        }

        query_span.arg("rows_vetted", stats.rows_vetted as u64);
        query_span.arg("violations", stats.violations as u64);
        query_span.arg("predictions", stats.predictions as u64);
        Ok(QueryOutput { table, stats, degradation })
    }
}

/// Evaluation environment for one row.
struct Env<'a> {
    row: Option<&'a Row>,
    aliases: &'a HashMap<String, Value>,
    predictions: &'a HashMap<String, Value>,
}

/// Constant folding: [`eval`] with no row, so a column resolves only
/// through `pins`. `None` wherever `eval` errors (an unpinned column,
/// `PREDICT`, an aggregate, arithmetic on non-numbers, truthiness of a
/// non-boolean), so a successful fold proves the runtime value on every row
/// that carries the pinned values.
pub(crate) fn const_fold(expr: &Expr, pins: &HashMap<String, Value>) -> Option<Value> {
    eval(expr, &Env { row: None, aliases: pins, predictions: &HashMap::new() }).ok()
}

/// The one expression evaluator: SQL three-valued logic, `AND`/`OR`
/// short-circuiting, integer-preserving arithmetic, division by zero as
/// `NULL`. Row values shadow aliases.
fn eval(expr: &Expr, env: &Env<'_>) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            if let Some(row) = env.row {
                if let Some(v) = row.get_by_name(name) {
                    return Ok(v.clone());
                }
            }
            if let Some(v) = env.aliases.get(name) {
                return Ok(v.clone());
            }
            Err(SqlError::UnknownColumn(name.clone()))
        }
        Expr::Predict { model } => {
            env.predictions.get(model).cloned().ok_or_else(|| SqlError::UnknownModel(model.clone()))
        }
        Expr::Not(e) => {
            let v = eval(e, env)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!truthy(&v)?))
            }
        }
        Expr::Case { branches, otherwise } => {
            for (cond, value) in branches {
                let c = eval(cond, env)?;
                if !c.is_null() && truthy(&c)? {
                    return eval(value, env);
                }
            }
            match otherwise {
                Some(e) => eval(e, env),
                None => Ok(Value::Null),
            }
        }
        Expr::Binary { op, left, right } => {
            match op {
                BinOp::And => {
                    let l = eval(left, env)?;
                    if !l.is_null() && !truthy(&l)? {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval(right, env)?;
                    if !r.is_null() && !truthy(&r)? {
                        return Ok(Value::Bool(false));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Bool(true))
                }
                BinOp::Or => {
                    let l = eval(left, env)?;
                    if !l.is_null() && truthy(&l)? {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval(right, env)?;
                    if !r.is_null() && truthy(&r)? {
                        return Ok(Value::Bool(true));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Bool(false))
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let l = eval(left, env)?;
                    let r = eval(right, env)?;
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null); // SQL three-valued logic
                    }
                    let out = match op {
                        BinOp::Eq => l == r,
                        BinOp::Ne => l != r,
                        BinOp::Lt => l < r,
                        BinOp::Le => l <= r,
                        BinOp::Gt => l > r,
                        BinOp::Ge => l >= r,
                        _ => unreachable!(),
                    };
                    Ok(Value::Bool(out))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    let l = eval(left, env)?;
                    let r = eval(right, env)?;
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    let (a, b) = match (l.as_f64(), r.as_f64()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            return Err(SqlError::Semantic(format!(
                                "arithmetic on non-numeric values {l} and {r}"
                            )))
                        }
                    };
                    let result = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => {
                            if b == 0.0 {
                                return Ok(Value::Null);
                            }
                            a / b
                        }
                        _ => unreachable!(),
                    };
                    // Keep integers integral when possible.
                    if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
                        && matches!((&l, &r), (Value::Int(_), Value::Int(_)))
                    {
                        Ok(Value::Int(result as i64))
                    } else {
                        Ok(Value::float(result))
                    }
                }
            }
        }
        Expr::Aggregate { .. } => {
            Err(SqlError::Semantic("aggregate used in a scalar context".into()))
        }
    }
}

fn eval_aggregate<'p, F>(expr: &Expr, members: &[usize], env_of: F) -> Result<Value, SqlError>
where
    F: Fn(usize) -> Env<'p> + Copy,
{
    match expr {
        Expr::Aggregate { func, arg } => match func {
            AggFunc::Count if arg.is_none() => Ok(Value::Int(members.len() as i64)),
            _ => {
                let arg = arg.as_ref().expect("non-COUNT(*) aggregate has an argument");
                let mut values = Vec::with_capacity(members.len());
                for &ri in members {
                    let v = eval(arg, &env_of(ri))?;
                    if !v.is_null() {
                        values.push(v);
                    }
                }
                match func {
                    AggFunc::Count => Ok(Value::Int(values.len() as i64)),
                    AggFunc::Min => Ok(values.iter().min().cloned().unwrap_or(Value::Null)),
                    AggFunc::Max => Ok(values.iter().max().cloned().unwrap_or(Value::Null)),
                    AggFunc::Sum | AggFunc::Avg => {
                        let nums: Option<Vec<f64>> = values.iter().map(|v| v.as_f64()).collect();
                        let nums = nums.ok_or_else(|| {
                            SqlError::Semantic("SUM/AVG over non-numeric values".into())
                        })?;
                        if nums.is_empty() {
                            return Ok(Value::Null);
                        }
                        let sum: f64 = nums.iter().sum();
                        match func {
                            AggFunc::Sum => Ok(Value::float(sum)),
                            AggFunc::Avg => Ok(Value::float(sum / nums.len() as f64)),
                            _ => unreachable!(),
                        }
                    }
                }
            }
        },
        // Aggregate embedded in arithmetic, e.g. `AVG(x) * 100`.
        Expr::Binary { op, left, right } => {
            let l = eval_aggregate(left, members, env_of)?;
            let r = eval_aggregate(right, members, env_of)?;
            let reduced = Expr::Binary {
                op: *op,
                left: Box::new(Expr::Literal(l)),
                right: Box::new(Expr::Literal(r)),
            };
            eval(&reduced, &env_of(*members.first().unwrap_or(&0)))
        }
        // Non-aggregate sub-expression inside an aggregate projection:
        // evaluate on the first member.
        other => match members.first() {
            Some(&ri) => eval(other, &env_of(ri)),
            None => Ok(Value::Null),
        },
    }
}

fn truthy(v: &Value) -> Result<bool, SqlError> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Null => Ok(false),
        other => Err(SqlError::Semantic(format!("expected boolean, got {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_core::GuardrailConfig;
    use guardrail_ml::NaiveBayes;
    use std::sync::Arc;

    fn people() -> Table {
        Table::from_csv_str(
            "age,city,income\n30,A,low\n40,A,high\n50,B,high\n20,B,low\n60,A,high\n",
        )
        .unwrap()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("people", people());
        c
    }

    fn run(sql: &str) -> Table {
        let c = catalog();
        Executor::new(&c).run(sql).unwrap().table
    }

    fn pins(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn where_of(sql: &str) -> Expr {
        parse_query(sql).unwrap().where_clause.unwrap()
    }

    #[test]
    fn const_fold_mirrors_three_valued_logic() {
        let e = where_of("SELECT a FROM t WHERE a = 1 AND b = 'x'");
        assert_eq!(
            const_fold(&e, &pins(&[("a", Value::Int(1)), ("b", Value::from("x"))])),
            Some(Value::Bool(true))
        );
        assert_eq!(
            const_fold(&e, &pins(&[("a", Value::Int(2)), ("b", Value::from("x"))])),
            Some(Value::Bool(false))
        );
        // Unpinned column: unknown.
        assert_eq!(const_fold(&e, &pins(&[("a", Value::Int(1))])), None);
        // NULL comparisons stay NULL; AND(false, NULL) short-circuits false.
        assert_eq!(
            const_fold(&e, &pins(&[("a", Value::Null), ("b", Value::from("x"))])),
            Some(Value::Null)
        );
        assert_eq!(
            const_fold(&e, &pins(&[("a", Value::Int(2)), ("b", Value::Null)])),
            Some(Value::Bool(false))
        );
        // OR short-circuits on a known-true side even if the other side is
        // unknown — but only when the known side folds first.
        let e = where_of("SELECT a FROM t WHERE a = 1 OR zzz = 2");
        assert_eq!(const_fold(&e, &pins(&[("a", Value::Int(1))])), Some(Value::Bool(true)));
        assert_eq!(const_fold(&e, &pins(&[("a", Value::Int(2))])), None);
    }

    #[test]
    fn const_fold_arithmetic_matches_eval() {
        let e = where_of("SELECT a FROM t WHERE a + 1 > 3");
        assert_eq!(const_fold(&e, &pins(&[("a", Value::Int(3))])), Some(Value::Bool(true)));
        assert_eq!(const_fold(&e, &pins(&[("a", Value::Int(1))])), Some(Value::Bool(false)));
        // Arithmetic on a string would error at runtime: no fold.
        assert_eq!(const_fold(&e, &pins(&[("a", Value::from("s"))])), None);
        // Division by zero is NULL, not an error.
        let e = where_of("SELECT a FROM t WHERE a / 0 = 1");
        assert_eq!(const_fold(&e, &pins(&[("a", Value::Int(4))])), Some(Value::Null));
    }

    #[test]
    fn select_where_projection() {
        let t = run("SELECT age, city FROM people WHERE age >= 40");
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema().names(), vec!["age", "city"]);
    }

    #[test]
    fn group_by_aggregates() {
        let t = run(
            "SELECT city, AVG(age) AS a, COUNT(*) AS n FROM people GROUP BY city ORDER BY city",
        );
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.get(0, 0), Some(Value::from("A")));
        assert!((t.get(0, 1).unwrap().as_f64().unwrap() - 130.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.get(0, 2), Some(Value::Int(3)));
        assert_eq!(t.get(1, 2), Some(Value::Int(2)));
    }

    #[test]
    fn case_when_inside_avg() {
        let t = run("SELECT AVG(CASE WHEN income = 'high' THEN 1 ELSE 0 END) AS frac FROM people");
        assert!((t.get(0, 0).unwrap().as_f64().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn global_aggregate_without_group() {
        let t =
            run("SELECT COUNT(*) AS n, MIN(age) AS lo, MAX(age) AS hi, SUM(age) AS s FROM people");
        assert_eq!(t.get(0, 0), Some(Value::Int(5)));
        assert_eq!(t.get(0, 1), Some(Value::Int(20)));
        assert_eq!(t.get(0, 2), Some(Value::Int(60)));
        assert_eq!(t.get(0, 3).unwrap().as_f64(), Some(200.0));
    }

    #[test]
    fn explain_shows_pushdown_and_stages() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2);
        let mut c = catalog();
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c);
        let plan = exec
            .explain(
                "SELECT PREDICT(m) AS p, AVG(age) AS a FROM people \
                 WHERE city = 'A' AND PREDICT(m) = 'high' GROUP BY p ORDER BY p LIMIT 3",
            )
            .unwrap();
        assert!(plan.contains("Scan people"), "{plan}");
        assert!(plan.contains("Pushdown filter: (city = 'A')"), "{plan}");
        assert!(plan.contains("Residual filter: (PREDICT(m) = 'high')"), "{plan}");
        assert!(plan.contains("Predict: m"), "{plan}");
        assert!(plan.contains("Aggregate: GROUP BY [p]"), "{plan}");
        assert!(plan.contains("Limit: 3"), "{plan}");
        // With pushdown disabled the whole WHERE becomes residual.
        let plan =
            exec.with_pushdown(false).explain("SELECT age FROM people WHERE city = 'A'").unwrap();
        assert!(!plan.contains("Pushdown filter"), "{plan}");
        assert!(plan.contains("Residual filter"), "{plan}");
    }

    #[test]
    fn in_between_execution() {
        let t = run("SELECT age FROM people WHERE age IN (30, 50) ORDER BY age");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.get(1, 0), Some(Value::Int(50)));
        let t = run("SELECT age FROM people WHERE age BETWEEN 35 AND 55 ORDER BY age");
        assert_eq!(t.num_rows(), 2); // 40 and 50
        let t = run("SELECT age FROM people WHERE city NOT IN ('A') ORDER BY age");
        assert_eq!(t.num_rows(), 2); // city B rows
    }

    #[test]
    fn having_filters_groups() {
        let t = run(
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city HAVING COUNT(*) > 2 ORDER BY city",
        );
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get(0, 0), Some(Value::from("A")));
        assert_eq!(t.get(0, 1), Some(Value::Int(3)));
        // HAVING on an aggregate not in the SELECT list.
        let t = run("SELECT city FROM people GROUP BY city HAVING AVG(age) < 40 ORDER BY city");
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get(0, 0), Some(Value::from("B")));
        // HAVING that keeps nothing.
        let t = run("SELECT city FROM people GROUP BY city HAVING COUNT(*) > 99");
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn order_and_limit() {
        let t = run("SELECT age FROM people ORDER BY age DESC LIMIT 2");
        assert_eq!(t.get(0, 0), Some(Value::Int(60)));
        assert_eq!(t.get(1, 0), Some(Value::Int(50)));
    }

    #[test]
    fn arithmetic_in_projection() {
        let t = run("SELECT AVG(age) * 2 AS double_avg FROM people");
        assert_eq!(t.get(0, 0).unwrap().as_f64(), Some(80.0));
    }

    #[test]
    fn three_valued_logic_with_nulls() {
        let mut c = Catalog::new();
        c.add_table("t", Table::from_csv_str("a,b\n1,\n2,5\n").unwrap());
        let out = Executor::new(&c).run("SELECT a FROM t WHERE b > 1").unwrap().table;
        // NULL > 1 is NULL → filtered out.
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.get(0, 0), Some(Value::Int(2)));
    }

    #[test]
    fn errors() {
        let c = catalog();
        let e = Executor::new(&c);
        assert!(matches!(e.run("SELECT a FROM missing"), Err(SqlError::UnknownTable(_))));
        assert!(matches!(e.run("SELECT nope FROM people"), Err(SqlError::UnknownColumn(_))));
        assert!(matches!(
            e.run("SELECT PREDICT(ghost) FROM people"),
            Err(SqlError::UnknownModel(_))
        ));
        assert!(matches!(
            e.run("SELECT age FROM people WHERE age + 1"),
            Err(SqlError::Semantic(_))
        ));
    }

    #[test]
    fn predict_with_model() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2); // income from age+city
        let mut c = catalog();
        c.add_model("income_model", Arc::new(model));
        let exec = Executor::new(&c);
        let out = exec
            .run("SELECT PREDICT(income_model) AS income_pred, COUNT(*) AS n FROM people GROUP BY income_pred ORDER BY income_pred")
            .unwrap();
        assert_eq!(out.stats.predictions, 5);
        let total: i64 =
            (0..out.table.num_rows()).map(|i| out.table.get(i, 1).unwrap().as_i64().unwrap()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn pushdown_reduces_inference() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2);
        let mut c = catalog();
        c.add_model("m", Arc::new(model));
        let sql = "SELECT PREDICT(m) AS p FROM people WHERE city = 'A'";
        let with = Executor::new(&c).run(sql).unwrap();
        let without = Executor::new(&c).with_pushdown(false).run(sql).unwrap();
        assert_eq!(with.stats.predictions, 3, "pushdown must skip city B rows");
        assert_eq!(without.stats.predictions, 5);
        assert_eq!(with.table.num_rows(), without.table.num_rows());
        assert_eq!(with.stats.rows_after_pushdown, 3);
    }

    #[test]
    fn guardrail_rectifies_before_inference() {
        // Train guardrail + model on clean data where city determines income.
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        // Dirty inference data: income column corrupted (model input is city
        // + income? — use a model over city only by predicting income).
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income\nA,low\nB,low\n").unwrap());
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify);
        let out = exec.run("SELECT PREDICT(m) AS p, city FROM d ORDER BY city").unwrap();
        assert!(out.stats.violations > 0, "corrupted row must be flagged");
        assert!(out.stats.guardrail_nanos > 0);
        assert_eq!(out.stats.rows_vetted, 2, "both surviving rows are vetted in the batch");
        assert_eq!(out.table.num_rows(), 2);
    }

    #[test]
    fn explain_analyze_surfaces_vetting_counters() {
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income\nA,low\nB,low\n").unwrap());
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify);
        let report = exec.explain_analyze("SELECT PREDICT(m) AS p, city FROM d").unwrap();
        assert!(report.contains("Scan d"), "{report}");
        assert!(report.contains("Guardrail: vetted 2 rows, 1 violations"), "{report}");
        assert!(report.contains("Inference: 2 predictions"), "{report}");
    }

    #[test]
    fn unbindable_program_is_a_typed_error() {
        // The guardrail's program mentions `income`, which the queried table
        // lacks: every guarded query fails before the scan, whatever the
        // scheme or plan, even one the optimizer proves empty.
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city\nA\n").unwrap());
        c.add_model("m", Arc::new(model));
        let schemes =
            [ErrorScheme::Raise, ErrorScheme::Ignore, ErrorScheme::Coerce, ErrorScheme::Rectify];
        for scheme in schemes {
            for pushdown in [true, false] {
                let exec = Executor::new(&c).with_guardrail(&guard, scheme).with_pushdown(pushdown);
                for sql in [
                    "SELECT PREDICT(m) AS p FROM d",
                    "SELECT PREDICT(m) AS p FROM d WHERE city = 'Z'",
                ] {
                    match exec.run(sql) {
                        Err(SqlError::GuardrailUnbound { table, missing }) => {
                            assert_eq!(table, "d");
                            assert_eq!(missing, vec!["income".to_string()]);
                        }
                        other => panic!("{sql} under {scheme:?}, pushdown {pushdown}: {other:?}"),
                    }
                }
            }
        }
        // Without PREDICT the guardrail does not intercept, so the query runs.
        let out = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Raise)
            .run("SELECT city FROM d")
            .unwrap();
        assert_eq!(out.table.num_rows(), 1);
    }

    #[test]
    fn empty_program_vets_nothing_but_counts_rows() {
        let guard = Guardrail::from_program(guardrail_core::Program::empty());
        let train = people();
        let mut c = catalog();
        c.add_model("m", Arc::new(NaiveBayes::fit(&train, 2)));
        let out = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Rectify)
            .run("SELECT PREDICT(m) AS p FROM people WHERE city = 'A'")
            .unwrap();
        assert_eq!(out.stats.rows_vetted, 3, "every surviving row counts as vetted");
        assert_eq!(out.stats.violations, 0);
        assert_eq!(out.table.num_rows(), 3);
    }

    #[test]
    fn guardrail_raise_aborts_query() {
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income\nA,low\n").unwrap());
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Raise);
        let out = exec.run("SELECT PREDICT(m) AS p FROM d");
        assert!(matches!(out, Err(SqlError::GuardrailRaise { .. })), "{out:?}");
    }

    #[test]
    fn guardrail_only_intercepts_ml_queries() {
        // No PREDICT in the query → no vetting, no guardrail time, even with
        // a guardrail installed (the interception point is the model input).
        let mut csv = String::from("city,income\n");
        for _ in 0..50 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income\nA,low\n").unwrap());
        let out = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Raise)
            .run("SELECT city FROM d")
            .unwrap();
        assert_eq!(out.stats.guardrail_nanos, 0);
        assert_eq!(out.stats.violations, 0);
        assert_eq!(out.stats.rows_vetted, 0);
        assert_eq!(out.table.num_rows(), 1);
    }

    #[test]
    fn empty_result_keeps_schema() {
        let t = run("SELECT age FROM people WHERE age > 1000");
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.schema().names(), vec!["age"]);
    }

    /// A clean table where `city` determines `income`, with an unrelated
    /// wide column the program never binds.
    fn city_income_catalog() -> (Guardrail, Catalog) {
        let mut csv = String::from("city,income,note\n");
        for i in 0..100 {
            csv.push_str(&format!("A,high,n{i}\nB,low,n{i}\n"));
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income,note\nA,low,x\nB,low,y\n").unwrap());
        c.add_model("m", Arc::new(model));
        (guard, c)
    }

    #[test]
    fn narrow_vet_matches_full_width_vet() {
        let (guard, c) = city_income_catalog();
        let sql = "SELECT PREDICT(m) AS p, city, income FROM d ORDER BY city";
        let narrow =
            Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify).run(sql).unwrap();
        let full = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Rectify)
            .with_pushdown(false)
            .run(sql)
            .unwrap();
        assert_eq!(narrow.table.to_csv_string(), full.table.to_csv_string());
        assert_eq!(narrow.stats.rows_vetted, full.stats.rows_vetted);
        assert_eq!(narrow.stats.violations, full.stats.violations);
    }

    #[test]
    fn contradiction_skips_scan_and_inference() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2);
        let mut c = catalog();
        c.add_model("m", Arc::new(model));
        // 'Z' was never interned into the city dictionary.
        let out = Executor::new(&c)
            .run("SELECT PREDICT(m) AS p, age FROM people WHERE city = 'Z'")
            .unwrap();
        assert_eq!(out.table.num_rows(), 0);
        assert_eq!(out.table.schema().names(), vec!["p", "age"]);
        assert_eq!(out.stats.rows_skipped_by_contradiction, 5);
        assert_eq!(out.stats.predictions, 0, "no model call on a proven-empty plan");
        assert_eq!(out.stats.rows_vetted, 0);
    }

    #[test]
    fn constraint_entailment_prunes_predicate() {
        let (guard, c) = city_income_catalog();
        // `city = 'A'` pins the determinant; rectification forces
        // `income = 'high'` on those rows, so the second conjunct is
        // tautological above the vet and gets pruned.
        let sql = "SELECT PREDICT(m) AS p, city FROM d WHERE city = 'A' AND income = 'high'";
        let opt = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify).run(sql).unwrap();
        let naive = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Rectify)
            .with_pushdown(false)
            .run(sql)
            .unwrap();
        assert_eq!(opt.table.to_csv_string(), naive.table.to_csv_string());
        assert_eq!(opt.table.num_rows(), 1, "rectified A row passes both conjuncts");
        assert!(opt.stats.predicates_pruned >= 1, "{:?}", opt.stats);
        assert!(opt.stats.predictions <= naive.stats.predictions);
    }

    #[test]
    fn exhausted_opt_budget_degrades_not_errors() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2);
        let mut c = catalog();
        c.add_model("m", Arc::new(model));
        let sql = "SELECT PREDICT(m) AS p, age FROM people WHERE city = 'A' LIMIT 2";
        let starved = Executor::new(&c).with_opt_budget(1).run(sql).unwrap();
        let naive = Executor::new(&c).with_pushdown(false).run(sql).unwrap();
        assert!(!starved.degradation.is_complete(), "budget of 1 must exhaust");
        assert_eq!(starved.stats.rules_applied, 0);
        assert_eq!(starved.table.to_csv_string(), naive.table.to_csv_string());
        // A healthy budget reports a complete pass and applied rules.
        let healthy = Executor::new(&c).run(sql).unwrap();
        assert!(healthy.degradation.is_complete());
        assert!(healthy.stats.rules_applied > 0);
        assert_eq!(healthy.table.to_csv_string(), naive.table.to_csv_string());
    }

    #[test]
    fn explain_surfaces_applied_rules() {
        let c = catalog();
        let exec = Executor::new(&c);
        let plan = exec.explain("SELECT age FROM people WHERE city = 'A' AND city = 'A'").unwrap();
        assert!(plan.contains("Rules:"), "{plan}");
        assert!(plan.contains("ImpliedPredicatePruning"), "{plan}");
        assert!(plan.contains("PushPredicateThroughNonJoin"), "{plan}");
        // No optimizer run without pushdown: rules line absent.
        let plan = exec.with_pushdown(false).explain("SELECT age FROM people").unwrap();
        assert!(!plan.contains("Rules:"), "{plan}");
    }

    #[test]
    fn explain_analyze_surfaces_optimizer_counters() {
        let c = catalog();
        let report =
            Executor::new(&c).explain_analyze("SELECT age FROM people WHERE city = 'Z'").unwrap();
        assert!(report.contains("Optimizer:"), "{report}");
        assert!(report.contains("5 rows skipped by contradiction"), "{report}");
    }

    #[test]
    fn scan_limit_stops_scan_early() {
        let c = catalog();
        let out = Executor::new(&c).run("SELECT age FROM people LIMIT 2").unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.stats.rows_after_pushdown, 2, "scan stops at the pushed limit");
        let naive =
            Executor::new(&c).with_pushdown(false).run("SELECT age FROM people LIMIT 2").unwrap();
        assert_eq!(out.table.to_csv_string(), naive.table.to_csv_string());
    }
}
