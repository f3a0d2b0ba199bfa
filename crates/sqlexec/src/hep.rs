//! Heuristic (HepOptimizer-style) plan rewriting.
//!
//! Rules are grouped into [`HepBatch`]es; each batch runs its rules to a
//! fixpoint — repeatedly applying the *first* matching rule anywhere in the
//! plan (top-down) until no rule matches or 64 rules have fired in it.
//! Every single rule application charges one unit against the caller's
//! governor [`Budget`]; exhaustion is not an error but a typed
//! degradation — [`HepOptimizer::optimize`] hands back the pristine naive
//! plan together with a [`DegradationReport`], never a panic and never a
//! half-rewritten plan.
//!
//! The classic batches (filter merging and predicate pushdown, then limit
//! elimination and sinking) do the standard rewrites. The constraint-aware
//! batch is the part only Guardrail can do: it replays
//! equality pins from the predicate through the fitted program's packed
//! mixed-radix decision tables ([`CompiledProgram::implied_assignments`])
//! to drop conjuncts that rectification makes tautological, and collapses
//! plans whose predicate contradicts the synthesized constraints (or the
//! scan's own dictionaries) to an [`Plan::EmptyScan`]. Both prove their
//! rewrites by constant folding, which is the executor's own expression
//! evaluator run over the pinned values, with no row.
//!
//! [`CompiledProgram::implied_assignments`]:
//!     guardrail_dsl::CompiledProgram::implied_assignments

use crate::ast::Expr;
use crate::exec::const_fold;
use crate::optimizer::{is_pushable, join_conjuncts, split_conjuncts_ref};
use crate::planner::{pin_of, Plan, PlanContext};
use guardrail_core::ErrorScheme;
use guardrail_governor::{Budget, DegradationReport, StageStatus};
use guardrail_obs as obs;
use guardrail_table::Value;
use std::collections::HashMap;

/// Side effects a rule reports beyond the rewritten plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleEffects {
    /// Conjuncts dropped because a constraint entails them.
    pub predicates_pruned: usize,
}

/// One rewrite rule. `apply` inspects a single node (the framework walks
/// the tree) and returns the replacement subtree when the rule fires.
pub trait OptRule {
    /// Rule name, rendered in `EXPLAIN` output.
    fn name(&self) -> &'static str;
    /// Attempts the rewrite at `plan`; `None` when the rule does not match.
    fn apply(&self, plan: &Plan, ctx: &PlanContext<'_>, fx: &mut RuleEffects) -> Option<Plan>;
}

/// Ceiling on rule applications within one batch: a structural backstop on
/// top of the governor budget.
const MAX_BATCH_APPLICATIONS: usize = 64;

/// A group of rules run together to fixpoint.
pub struct HepBatch {
    /// The rules, tried in order at every node.
    pub rules: Vec<Box<dyn OptRule>>,
}

/// The outcome of an optimization pass.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// The plan to execute (the input plan, untouched, when degraded).
    pub plan: Plan,
    /// `(rule name, fire count)` in first-fire order.
    pub applied: Vec<(&'static str, usize)>,
    /// Total rule applications.
    pub rules_applied: usize,
    /// Conjuncts dropped by constraint entailment.
    pub predicates_pruned: usize,
    /// Complete on success; records the `sql_optimize` stage when the
    /// budget ran out and the naive plan was kept.
    pub degradation: DegradationReport,
}

impl OptOutcome {
    /// `plan` run as given, with no rule applied.
    pub(crate) fn naive(plan: Plan, degradation: DegradationReport) -> Self {
        Self { plan, applied: Vec::new(), rules_applied: 0, predicates_pruned: 0, degradation }
    }
}

/// The rule engine: batches applied in order, each to fixpoint.
pub struct HepOptimizer {
    /// The batches, in execution order.
    pub batches: Vec<HepBatch>,
}

impl HepOptimizer {
    /// The standard pipeline: constraint simplification, predicate
    /// pushdown, then limit sinking.
    pub fn standard() -> Self {
        Self {
            batches: vec![
                HepBatch {
                    rules: vec![
                        Box::new(ContradictionDetection),
                        Box::new(ImpliedPredicatePruning),
                    ],
                },
                HepBatch {
                    rules: vec![Box::new(CombineFilter), Box::new(PushPredicateThroughNonJoin)],
                },
                HepBatch {
                    rules: vec![Box::new(EliminateLimits), Box::new(PushLimitIntoTableScan)],
                },
            ],
        }
    }

    /// Rewrites `plan` to fixpoint under the configured batches. Each rule
    /// application charges one unit of `budget`; on exhaustion the naive
    /// input plan is returned unchanged with a degraded report.
    pub fn optimize(&self, plan: &Plan, ctx: &PlanContext<'_>, budget: &Budget) -> OptOutcome {
        let mut span = obs::span("sql_optimize");
        let mut current = plan.clone();
        let mut fx = RuleEffects::default();
        let mut applied: Vec<(&'static str, usize)> = Vec::new();
        let mut total = 0usize;
        for batch in &self.batches {
            let mut fired = 0usize;
            while fired < MAX_BATCH_APPLICATIONS {
                let Some((next, name)) = rewrite_first(&current, &batch.rules, ctx, &mut fx) else {
                    break; // fixpoint
                };
                if let Err(e) = budget.charge(1) {
                    let mut degradation = DegradationReport::default();
                    degradation.record(StageStatus::degraded("sql_optimize", e));
                    span.arg("degraded", 1);
                    return OptOutcome::naive(plan.clone(), degradation);
                }
                if obs::metrics::counting() {
                    obs::metrics::add(
                        "guardrail_sql_opt_rule_applications_total",
                        &format!("rule=\"{name}\""),
                        1,
                    );
                }
                match applied.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, count)) => *count += 1,
                    None => applied.push((name, 1)),
                }
                total += 1;
                fired += 1;
                current = next;
            }
        }
        span.arg("rules_applied", total as u64);
        span.arg("predicates_pruned", fx.predicates_pruned as u64);
        OptOutcome {
            plan: current,
            applied,
            rules_applied: total,
            predicates_pruned: fx.predicates_pruned,
            degradation: DegradationReport::default(),
        }
    }
}

/// Applies the first matching rule anywhere in the tree, top-down.
fn rewrite_first(
    plan: &Plan,
    rules: &[Box<dyn OptRule>],
    ctx: &PlanContext<'_>,
    fx: &mut RuleEffects,
) -> Option<(Plan, &'static str)> {
    for rule in rules {
        if let Some(next) = rule.apply(plan, ctx, fx) {
            debug_assert!(next != *plan, "rule {} produced an identical plan", rule.name());
            return Some((next, rule.name()));
        }
    }
    let input = plan.input()?;
    let (new_input, name) = rewrite_first(input, rules, ctx, fx)?;
    Some((plan.with_input(new_input), name))
}

/// Every predicate conjunct in the subtree, tagged with whether it sits
/// *above* the Vet barrier (i.e. evaluates on vetted rows).
fn collect_conjuncts<'p>(plan: &'p Plan, out: &mut Vec<(&'p Expr, bool)>) {
    match plan {
        Plan::Filter { input, predicate } => {
            let above_vet = input.vet_scheme().is_some();
            for c in split_conjuncts_ref(predicate) {
                out.push((c, above_vet));
            }
            collect_conjuncts(input, out);
        }
        Plan::Scan { filters, .. } => {
            for f in filters {
                out.push((f, false));
            }
        }
        other => {
            if let Some(input) = other.input() {
                collect_conjuncts(input, out);
            }
        }
    }
}

/// Equality pins on non-written base columns, extracted from conjuncts.
/// Written columns are excluded: their pinned value is the raw value, which
/// the error scheme may rewrite. First pin per column wins (a conflicting
/// second pin is a contradiction the fold then discovers).
fn raw_pins(conjuncts: &[(&Expr, bool)], ctx: &PlanContext<'_>) -> HashMap<String, Value> {
    let mut pins = HashMap::new();
    for (c, _) in conjuncts {
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
    let Some(analysis) = &ctx.analysis else { return HashMap::new() };
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

fn never_truthy(v: &Value) -> bool {
    v.is_null() || *v == Value::Bool(false)
}

/// Merges adjacent `Filter` nodes into one conjunction (inner first).
pub struct CombineFilter;

impl OptRule for CombineFilter {
    fn name(&self) -> &'static str {
        "CombineFilter"
    }
    fn apply(&self, plan: &Plan, _ctx: &PlanContext<'_>, _fx: &mut RuleEffects) -> Option<Plan> {
        let Plan::Filter { input, predicate: outer } = plan else { return None };
        let Plan::Filter { input: inner_input, predicate: inner } = input.as_ref() else {
            return None;
        };
        let mut conjuncts: Vec<Expr> = split_conjuncts_ref(inner).into_iter().cloned().collect();
        conjuncts.extend(split_conjuncts_ref(outer).into_iter().cloned());
        Some(Plan::Filter {
            input: inner_input.clone(),
            predicate: join_conjuncts(conjuncts).expect("two filters have conjuncts"),
        })
    }
}

/// Pushes filter conjuncts through row-preserving unary nodes (the spine
/// has no joins): through `Project` when every referenced column exists in
/// the base schema (row values take precedence over aliases, so the
/// conjunct reads the same values on either side), through `Predict` when
/// the conjunct calls no model, through `Vet` when the scheme is not
/// `Raise` *and* the conjunct touches no program-written column (raw and
/// vetted values agree on everything else), and finally into the scan's
/// filter list. Under `Raise` the Vet node is a hard barrier: filtering
/// first would change which rows get vetted, i.e. whether the query aborts.
pub struct PushPredicateThroughNonJoin;

impl OptRule for PushPredicateThroughNonJoin {
    fn name(&self) -> &'static str {
        "PushPredicateThroughNonJoin"
    }
    fn apply(&self, plan: &Plan, ctx: &PlanContext<'_>, _fx: &mut RuleEffects) -> Option<Plan> {
        let Plan::Filter { input, predicate } = plan else { return None };
        let base = ctx.base.schema();
        let on_base = |c: &Expr| {
            let mut cols = Vec::new();
            c.columns(&mut cols);
            cols.iter().all(|name| base.index_of(name).is_some())
        };
        let movable = |c: &&Expr| -> bool {
            if c.has_aggregate() || !on_base(c) {
                return false;
            }
            match input.as_ref() {
                Plan::Project { .. } => true,
                Plan::Predict { .. } => !c.has_predict(),
                Plan::Vet { scheme, .. } => {
                    if c.has_predict() || matches!(scheme, ErrorScheme::Raise) {
                        return false;
                    }
                    let mut cols = Vec::new();
                    c.columns(&mut cols);
                    cols.iter().all(|name| !ctx.written.iter().any(|w| w == name))
                }
                Plan::Scan { .. } => is_pushable(c, base),
                _ => false,
            }
        };
        let conjuncts = split_conjuncts_ref(predicate);
        let (push, rest): (Vec<&Expr>, Vec<&Expr>) = conjuncts.into_iter().partition(movable);
        if push.is_empty() {
            return None;
        }
        let pushed: Vec<Expr> = push.into_iter().cloned().collect();
        let new_input = match input.as_ref() {
            Plan::Scan { table, filters, limit } => {
                let mut filters = filters.clone();
                filters.extend(pushed);
                Plan::Scan { table: table.clone(), filters, limit: *limit }
            }
            node => {
                let inner = node.input().expect("unary node").clone();
                node.with_input(Plan::Filter {
                    input: Box::new(inner),
                    predicate: join_conjuncts(pushed).expect("non-empty"),
                })
            }
        };
        match join_conjuncts(rest.into_iter().cloned().collect()) {
            Some(residual) => {
                Some(Plan::Filter { input: Box::new(new_input), predicate: residual })
            }
            None => Some(new_input),
        }
    }
}

/// Merges stacked limits and turns `LIMIT 0` into an empty scan (except
/// under `Raise`, where skipping the vet stage would skip the abort).
pub struct EliminateLimits;

impl OptRule for EliminateLimits {
    fn name(&self) -> &'static str {
        "EliminateLimits"
    }
    fn apply(&self, plan: &Plan, _ctx: &PlanContext<'_>, _fx: &mut RuleEffects) -> Option<Plan> {
        let Plan::Limit { input, n } = plan else { return None };
        if *n == 0 && input.vet_scheme() != Some(ErrorScheme::Raise) {
            return Some(Plan::EmptyScan {
                table: input.scan_table().to_string(),
                reason: "LIMIT 0".to_string(),
            });
        }
        if let Plan::Limit { input: inner, n: m } = input.as_ref() {
            return Some(Plan::Limit { input: inner.clone(), n: (*n).min(*m) });
        }
        None
    }
}

/// Sinks a `Limit` through row-preserving nodes (`Project`, `Predict`, and
/// non-`Raise` `Vet` — fewer rows vetted means fewer model calls) until it
/// merges into the scan's row cap. Filters block the descent: a limit
/// above a filter caps *surviving* rows.
pub struct PushLimitIntoTableScan;

impl OptRule for PushLimitIntoTableScan {
    fn name(&self) -> &'static str {
        "PushLimitIntoTableScan"
    }
    fn apply(&self, plan: &Plan, _ctx: &PlanContext<'_>, _fx: &mut RuleEffects) -> Option<Plan> {
        let Plan::Limit { input, n } = plan else { return None };
        match input.as_ref() {
            Plan::Project { .. } | Plan::Predict { .. } => {
                let inner = input.input().expect("unary node").clone();
                Some(input.with_input(Plan::Limit { input: Box::new(inner), n: *n }))
            }
            Plan::Vet { input: inner, scheme, .. } if !matches!(scheme, ErrorScheme::Raise) => {
                Some(input.with_input(Plan::Limit { input: inner.clone(), n: *n }))
            }
            Plan::Scan { table, filters, limit } => Some(Plan::Scan {
                table: table.clone(),
                filters: filters.clone(),
                limit: Some(limit.map_or(*n, |l| l.min(*n))),
            }),
            _ => None,
        }
    }
}

/// Contradiction detection: collapses a subtree to [`Plan::EmptyScan`] when
/// some conjunct can never be truthy — proven by constant-folding under the
/// predicate's own equality pins plus the values rectification forces onto
/// dependent columns, by a literal that the scan column's dictionary has
/// never interned, or by a `NULL` comparison. Also lifts an `EmptyScan`
/// child through any node. Never fires above a `Raise` vet: the empty
/// rewrite would skip vetting, and under `Raise` vetting itself is the
/// observable result (the abort).
pub struct ContradictionDetection;

impl OptRule for ContradictionDetection {
    fn name(&self) -> &'static str {
        "ContradictionDetection"
    }
    fn apply(&self, plan: &Plan, ctx: &PlanContext<'_>, _fx: &mut RuleEffects) -> Option<Plan> {
        // Propagation: anything over an empty scan is empty.
        if let Some(Plan::EmptyScan { table, reason }) = plan.input() {
            return Some(Plan::EmptyScan { table: table.clone(), reason: reason.clone() });
        }
        let analyzable = matches!(plan, Plan::Filter { .. })
            || matches!(plan, Plan::Scan { filters, .. } if !filters.is_empty());
        if !analyzable {
            return None;
        }
        let vet = plan.vet_scheme();
        if vet == Some(ErrorScheme::Raise) {
            return None;
        }
        let mut conjuncts = Vec::new();
        collect_conjuncts(plan, &mut conjuncts);
        let pins = raw_pins(&conjuncts, ctx);
        let implied = if vet == Some(ErrorScheme::Rectify) {
            implied_pins(&pins, ctx)
        } else {
            HashMap::new()
        };
        let mut above_subst = pins.clone();
        above_subst.extend(implied);
        let base = ctx.base.schema();
        for (conjunct, above_vet) in &conjuncts {
            // NULL comparison: `col <op> NULL` is NULL on every row.
            if let Expr::Binary { op, left, right } = conjunct {
                use crate::ast::BinOp as B;
                if matches!(op, B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge) {
                    let null_vs_col = |a: &Expr, b: &Expr| {
                        matches!(a, Expr::Literal(v) if v.is_null())
                            && matches!(b, Expr::Column(c) if base.index_of(c).is_some())
                    };
                    if null_vs_col(left, right) || null_vs_col(right, left) {
                        return Some(Plan::EmptyScan {
                            table: plan.scan_table().to_string(),
                            reason: format!("{conjunct} is NULL on every row"),
                        });
                    }
                }
            }
            // Dictionary absence: an equality against a literal the column
            // has never interned matches nothing. Unsound for program-
            // written columns above the vet (rectification may introduce
            // values the dirty table never held).
            if let Some((col, lit)) = pin_of(conjunct) {
                let raw_visible = !*above_vet || !ctx.written.iter().any(|w| w == col);
                if raw_visible {
                    if let Some(column) = ctx.base.column_by_name(col) {
                        if column.dictionary().lookup(lit).is_none() {
                            return Some(Plan::EmptyScan {
                                table: plan.scan_table().to_string(),
                                reason: format!("{conjunct}: value absent from column dictionary"),
                            });
                        }
                    }
                }
            }
            // Constant fold under pins (+ constraint-implied values above
            // the vet). A successful fold to false/NULL is a proof that the
            // conjunction rejects every row.
            let subst = if *above_vet { &above_subst } else { &pins };
            if let Some(v) = const_fold(conjunct, subst) {
                if never_truthy(&v) {
                    return Some(Plan::EmptyScan {
                        table: plan.scan_table().to_string(),
                        reason: format!("{conjunct} is never true"),
                    });
                }
            }
        }
        None
    }
}

/// Implied-predicate pruning: drops a conjunct that constant-folds to
/// `TRUE` under the *other* conjuncts' equality pins plus the values
/// rectification forces onto dependent columns. Rows satisfying the pins
/// make the conjunct true; rows violating them fail the conjunction
/// anyway — either way the conjunct never changes the result.
pub struct ImpliedPredicatePruning;

impl OptRule for ImpliedPredicatePruning {
    fn name(&self) -> &'static str {
        "ImpliedPredicatePruning"
    }
    fn apply(&self, plan: &Plan, ctx: &PlanContext<'_>, fx: &mut RuleEffects) -> Option<Plan> {
        let Plan::Filter { input, predicate } = plan else { return None };
        let above_vet = input.vet_scheme().is_some();
        let entailment = input.vet_scheme() == Some(ErrorScheme::Rectify) && above_vet;
        let conjuncts = split_conjuncts_ref(predicate);
        let mut below = Vec::new();
        collect_conjuncts(input, &mut below);
        let mut kept: Vec<Expr> = Vec::new();
        let mut pruned = 0usize;
        for (i, conjunct) in conjuncts.iter().enumerate() {
            // Pins come only from conjuncts that survive: the ones already
            // kept and the ones not yet examined. Using all-but-self would
            // let `a = 1 AND a = 1` prune both copies via each other.
            let others: Vec<(&Expr, bool)> = kept
                .iter()
                .map(|c| (c, above_vet))
                .chain(conjuncts[i + 1..].iter().map(|c| (*c, above_vet)))
                .chain(below.iter().copied())
                .collect();
            let mut subst = raw_pins(&others, ctx);
            if entailment {
                let implied = implied_pins(&subst, ctx);
                subst.extend(implied);
            }
            match const_fold(conjunct, &subst) {
                Some(Value::Bool(true)) => pruned += 1,
                _ => kept.push((*conjunct).clone()),
            }
        }
        if pruned == 0 {
            return None;
        }
        fx.predicates_pruned += pruned;
        match join_conjuncts(kept) {
            Some(predicate) => Some(Plan::Filter { input: input.clone(), predicate }),
            None => Some(input.as_ref().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::planner::lift;
    use guardrail_table::Table;

    fn table() -> Table {
        Table::from_csv_str("a,b\n1,x\n2,y\n3,x\n").unwrap()
    }

    fn optimize(sql: &str, t: &Table) -> OptOutcome {
        let ctx = PlanContext::new(t);
        let q = parse_query(sql).unwrap();
        let plan = lift(&q, &ctx);
        HepOptimizer::standard().optimize(&plan, &ctx, &Budget::unlimited())
    }

    #[test]
    fn pushdown_lands_in_scan_filters() {
        let t = table();
        let out = optimize("SELECT a FROM t WHERE a = 1 AND b = 'x'", &t);
        assert!(out.degradation.is_complete());
        let mut plan = &out.plan;
        while let Some(input) = plan.input() {
            plan = input;
        }
        let Plan::Scan { filters, .. } = plan else { panic!("{:?}", out.plan) };
        assert_eq!(filters.len(), 2, "{:?}", out.plan);
        assert!(out.applied.iter().any(|(n, _)| *n == "PushPredicateThroughNonJoin"));
    }

    #[test]
    fn limit_sinks_into_scan_without_filters() {
        let t = table();
        let out = optimize("SELECT a FROM t LIMIT 2", &t);
        let mut plan = &out.plan;
        while let Some(input) = plan.input() {
            plan = input;
        }
        assert!(matches!(plan, Plan::Scan { limit: Some(2), .. }), "{:?}", out.plan);
    }

    #[test]
    fn limit_zero_becomes_empty_scan() {
        let t = table();
        let out = optimize("SELECT a FROM t LIMIT 0", &t);
        assert!(matches!(out.plan, Plan::EmptyScan { .. }), "{:?}", out.plan);
    }

    #[test]
    fn conflicting_pins_contradict() {
        let t = table();
        let out = optimize("SELECT a FROM t WHERE a = 1 AND a = 2", &t);
        assert!(matches!(out.plan, Plan::EmptyScan { .. }), "{:?}", out.plan);
    }

    #[test]
    fn dictionary_absence_contradicts() {
        let t = table();
        let out = optimize("SELECT a FROM t WHERE b = 'zebra'", &t);
        assert!(matches!(out.plan, Plan::EmptyScan { .. }), "{:?}", out.plan);
    }

    #[test]
    fn duplicate_conjunct_pruned() {
        let t = table();
        let out = optimize("SELECT a FROM t WHERE a = 1 AND a = 1", &t);
        assert_eq!(out.predicates_pruned, 1, "{:?}", out.applied);
    }

    #[test]
    fn exhausted_budget_degrades_to_naive_plan() {
        let t = table();
        let ctx = PlanContext::new(&t);
        let q = parse_query("SELECT a FROM t WHERE a = 1 AND b = 'x' LIMIT 2").unwrap();
        let plan = lift(&q, &ctx);
        let out = HepOptimizer::standard().optimize(&plan, &ctx, &Budget::with_work_cap(1));
        assert!(!out.degradation.is_complete());
        assert_eq!(out.plan, plan, "degraded optimization must return the naive plan");
        assert_eq!(out.rules_applied, 0);
    }

    #[test]
    fn fixpoint_is_stable() {
        let t = table();
        let ctx = PlanContext::new(&t);
        let q = parse_query("SELECT a FROM t WHERE a = 1 AND b = 'x' LIMIT 2").unwrap();
        let plan = lift(&q, &ctx);
        let opt = HepOptimizer::standard();
        let once = opt.optimize(&plan, &ctx, &Budget::unlimited());
        let twice = opt.optimize(&once.plan, &ctx, &Budget::unlimited());
        assert_eq!(twice.rules_applied, 0, "{:?}", twice.applied);
        assert_eq!(once.plan, twice.plan);
    }
}
