//! The query executor.

use crate::ast::{AggFunc, BinOp, Expr, Query, SortOrder};
use crate::catalog::{Catalog, ModelRef};
use crate::error::SqlError;
use crate::parser::parse_query;
use crate::planner::{self, collect_models, join_conjuncts, Physical, PlanContext};
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_table::{Code, Table, TableBuilder, Value};
use std::collections::{BTreeSet, HashMap};
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
    /// Statements of the intercepting guardrail's program that do not bind
    /// to the queried table, so vetting skipped them. Zero without an
    /// intercepting guardrail.
    pub unbound_statements: usize,
    /// Planner rewrites that fired for this query.
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
            "  Guardrail: vetted {} rows, {} violations, {:.3} ms ({} multi-table statements, \
             {} unbound statements)",
            self.rows_vetted,
            self.violations,
            self.guardrail_nanos as f64 / 1e6,
            self.engine_fallback_statements,
            self.unbound_statements
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
}

/// A guardrail and the scheme it vets under, when one is installed.
type Guard<'a> = Option<(&'a Guardrail, ErrorScheme)>;

/// Executes SQL against a [`Catalog`], optionally guarding every ML
/// inference with a fitted [`Guardrail`].
pub struct Executor<'a> {
    catalog: &'a Catalog,
    guardrail: Guard<'a>,
    pushdown: bool,
}

/// What the planning prologue hands to `explain` and `run_query`.
struct Planned<'a> {
    /// The rewrite context; `ctx.base` is the FROM table.
    ctx: PlanContext<'a>,
    /// Models the query calls, in first-use order.
    models: Vec<String>,
    /// The guardrail that intercepts the query, if any.
    intercept: Guard<'a>,
    /// The physical spec to run: the reference plan without pushdown.
    phys: Physical,
}

impl<'a> Executor<'a> {
    /// An executor with plan optimization enabled and no guardrail.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog, guardrail: None, pushdown: true }
    }

    /// Installs a guardrail: every row feeding a `PREDICT` is vetted under
    /// `scheme` first (Fig. 1's interception point).
    pub fn with_guardrail(mut self, guardrail: &'a Guardrail, scheme: ErrorScheme) -> Self {
        self.guardrail = Some((guardrail, scheme));
        self
    }

    /// Toggles plan optimization (ablation hook). Disabled, every query
    /// runs the reference plan: a query that calls a model evaluates its
    /// whole `WHERE` clause as a residual filter above the guardrail
    /// interception point.
    pub fn with_pushdown(mut self, enabled: bool) -> Self {
        self.pushdown = enabled;
        self
    }

    /// The guardrail that intercepts `query` — `None` without an installed
    /// guardrail or a `PREDICT` call — and the plan context, holding its
    /// program bound to `base`. Vetting runs the statements that bind, like
    /// every other entry point; a non-empty program none of whose
    /// statements binds fails here, before any scan.
    fn intercept(
        &self,
        query: &Query,
        base: &'a Table,
        models: &[String],
    ) -> Result<(Guard<'a>, PlanContext<'a>), SqlError> {
        let ctx = PlanContext::new(base);
        let Some((guard, scheme)) = self.guardrail.filter(|_| !models.is_empty()) else {
            return Ok((None, ctx));
        };
        let ctx = ctx.with_guardrail(guard, scheme);
        let bound = ctx.analysis.as_ref().expect("installed with the guardrail");
        if bound.statement_count() == 0 && !guard.program().is_empty() {
            let mut missing: Vec<String> = Vec::new();
            for name in bound.unbound().iter().flat_map(|u| &u.missing) {
                if !missing.contains(name) {
                    missing.push(name.clone());
                }
            }
            return Err(SqlError::GuardrailUnbound { table: query.from.clone(), missing });
        }
        Ok((Some((guard, scheme)), ctx))
    }

    /// The planning prologue `explain` and `run_query` share: resolves the
    /// FROM table, the models the query calls and the guardrail that
    /// intercepts it, then plans the query (the reference plan without
    /// pushdown). `require_models` makes a model missing from the catalog
    /// an error (`explain` renders it).
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
        let (intercept, ctx) = self.intercept(query, base, &models)?;
        // A WHERE column resolves to a base column or a scalar projection
        // alias; any other name fails here, so no pushed conjunct, cap or
        // empty table can turn a typo into an empty result.
        let mut read = Vec::new();
        if let Some(w) = &query.where_clause {
            w.columns(&mut read);
        }
        let alias =
            |c: &String| query.projections.iter().any(|p| &p.name == c && !p.expr.has_aggregate());
        if let Some(c) = read.into_iter().find(|c| base.schema().index_of(c).is_none() && !alias(c))
        {
            return Err(SqlError::UnknownColumn(c));
        }
        let phys = planner::plan(query, &ctx, self.pushdown);
        Ok(Planned { ctx, models, intercept, phys })
    }

    /// Parses and executes `sql`.
    pub fn run(&self, sql: &str) -> Result<QueryOutput, SqlError> {
        let query = parse_query(sql)?;
        self.run_query(&query)
    }

    /// Renders the execution plan for `sql` without running it — which
    /// predicates are pushed below the ML stage, where the guardrail
    /// intercepts, the shape of the aggregation, and which planner rewrites
    /// fired.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        let query = parse_query(sql)?;
        let Planned { ctx, phys, .. } = self.plan(&query, false)?;
        let mut out = planner::render(&phys, &query, &ctx);
        if self.pushdown {
            let rules =
                if phys.rewrites.is_empty() { "none".into() } else { phys.rewrites.join(", ") };
            out.push_str(&format!("  Rules: {rules}\n"));
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
    ///
    /// Phases 1–3 evaluate on codes: an expression reads a row only through
    /// the dictionary codes of the base columns it names (aliases expanded)
    /// and the label codes of the models it calls, so `eval` runs once
    /// per distinct `Memo` key, at the first row carrying it, and later
    /// rows reuse its value. Rows are visited in order and evaluate their
    /// expressions in the per-row order, so the first error is the same.
    pub fn run_query(&self, query: &Query) -> Result<QueryOutput, SqlError> {
        let mut query_span = guardrail_obs::span("run_query");
        let Planned { ctx, models, intercept, phys } = self.plan(query, true)?;
        let base = ctx.base;
        query_span.arg("rows_scanned", base.num_rows() as u64);
        let mut stats = ExecutionStats {
            rows_scanned: base.num_rows(),
            rules_applied: phys.rewrites.len(),
            predicates_pruned: phys.predicates_pruned,
            unbound_statements: ctx.analysis.as_ref().map_or(0, |a| a.unbound().len()),
            ..ExecutionStats::default()
        };

        // Phase 1: pushed-down predicates on the raw table. A proven
        // contradiction skips the scan entirely.
        let mut surviving: Vec<usize> = Vec::new();
        if phys.empty.is_some() {
            stats.rows_skipped_by_contradiction = base.num_rows();
        } else {
            surviving.reserve(base.num_rows());
            let mut pushed = filter(base, &phys.pushed);
            for i in 0..base.num_rows() {
                if phys.scan_limit.is_some_and(|cap| surviving.len() >= cap) {
                    break;
                }
                if pushed(i)? {
                    surviving.push(i);
                }
            }
        }
        stats.rows_after_pushdown = surviving.len();

        // Phase 2: the surviving rows as one sub-table at full width, vetted
        // in one batched pass when a guardrail intercepts. Row `k` of `rows`
        // is base row `surviving[k]`; the row filter, inference, aliases,
        // the residual filter and grouping all read it in place, in that
        // order, so a row the row filter drops is never predicted.
        let scalar_projections: Vec<(&Expr, &str)> = query
            .projections
            .iter()
            .filter(|p| !p.expr.has_aggregate())
            .map(|p| (&p.expr, p.name.as_str()))
            .collect();
        let alias_names: Vec<&str> = scalar_projections.iter().map(|&(_, name)| name).collect();

        let rows = match (intercept, &phys.empty) {
            (Some((guard, scheme)), None) => {
                let t0 = Instant::now();
                stats.rows_vetted = surviving.len();
                let vet = guard.vet_rows(base, &surviving, scheme).expect("bound before the scan");
                stats.violations = vet.violations.len();
                stats.engine_fallback_statements = vet.legacy_statements;
                // Violations are row-ordered: the first is on the first
                // dirty row.
                if let Some(v) = vet.violations.first().filter(|_| scheme == ErrorScheme::Raise) {
                    let detail =
                        format!("{} should be {} (found {})", v.attribute, v.expected, v.actual);
                    return Err(SqlError::GuardrailRaise { row: surviving[v.row], detail });
                }
                stats.guardrail_nanos += t0.elapsed().as_nanos();
                vet.table
            }
            _ => base.take(&surviving),
        };
        let model_refs: Vec<&ModelRef> =
            models.iter().map(|m| self.catalog.model(m).expect("checked above")).collect();
        let (nm, na) = (models.len(), scalar_projections.len());
        let mut row_filter = filter(&rows, &phys.row_filter);
        let residual = join_conjuncts(&phys.residual);
        // One key for every expression phases 2 and 3 read per row; per
        // key, its first row and label codes, its aliases and whether the
        // residual passes. A kept row is its key.
        let exprs = query.projections.iter().map(|p| &p.expr).chain(&residual);
        let exprs = exprs.chain(&query.group_by).chain(&query.having);
        let mut memo = Memo::new(&rows, exprs, &scalar_projections, &models);
        let (mut key_rows, mut key_labels, mut key_aliases) = (Vec::new(), Vec::new(), Vec::new());
        let (mut key_pass, mut kept, mut labels) = (Vec::new(), Vec::new(), Vec::new());
        let mut next = 0;
        loop {
            // Each chunk holds exactly the rows still needed under a row
            // cap (all of them without one), so no row past the cap is
            // filtered or predicted.
            let want = phys.row_limit.map_or(usize::MAX, |cap| cap - kept.len());
            let mut chunk = Vec::new();
            while next < rows.num_rows() && chunk.len() < want {
                if row_filter(next)? {
                    chunk.push(next);
                }
                next += 1;
            }
            if chunk.is_empty() {
                break;
            }
            let t0 = Instant::now();
            let outputs: Vec<Vec<u32>> = model_refs
                .iter()
                .enumerate()
                .map(|(i, model)| {
                    let mut span = guardrail_obs::span("predict");
                    span.arg("model", i as u64);
                    span.arg("rows", chunk.len() as u64);
                    model.predict_labels(&rows, &chunk)
                })
                .collect();
            if !models.is_empty() {
                stats.inference_nanos += t0.elapsed().as_nanos();
                stats.predictions += chunk.len() * models.len();
            }
            for (j, &k) in chunk.iter().enumerate() {
                labels.clear();
                labels.extend(outputs.iter().map(|o| o[j]));
                let (key, new) = memo.key(k, &labels);
                if new {
                    key_rows.push(k);
                    key_labels.extend_from_slice(&labels);
                    let predictions = decode(&model_refs, &labels);
                    let env = Env {
                        row: Some((&rows, k)),
                        predictions: (&models, &predictions),
                        ..NO_ENV
                    };
                    let a0 = key_aliases.len();
                    for &(expr, _) in &scalar_projections {
                        key_aliases.push(eval(expr, &env)?);
                    }
                    key_pass.push(match &residual {
                        None => true,
                        Some(pred) => {
                            let env = Env { aliases: (&alias_names, &key_aliases[a0..]), ..env };
                            truthy(&eval(pred, &env)?)?
                        }
                    });
                }
                if key_pass[key] {
                    kept.push(key);
                }
            }
        }
        let aliases_of = |key: usize| &key_aliases[key * na..(key + 1) * na];
        let eval_at = |expr: &Expr, key: usize| {
            let predictions = decode(&model_refs, &key_labels[key * nm..(key + 1) * nm]);
            let env = Env {
                row: Some((&rows, key_rows[key])),
                aliases: (&alias_names, aliases_of(key)),
                predictions: (&models, &predictions),
            };
            eval(expr, &env)
        };
        // A scalar projection outputs its alias slot (the last one of a
        // duplicate name).
        let alias_at = |key: usize, name: &str| {
            aliases_of(key)[alias_names.iter().rposition(|n| *n == name).expect("scalar")].clone()
        };

        // Phase 3: aggregation / projection. Group members are keys, one
        // per kept row, in row order.
        let has_aggregate = query.projections.iter().any(|p| p.expr.has_aggregate());
        let names: Vec<String> = query.projections.iter().map(|p| p.name.clone()).collect();
        let mut builder = TableBuilder::new(names);
        if has_aggregate || !query.group_by.is_empty() {
            // Group rows by the GROUP BY key's values, so keys that compare
            // equal (`1` and `1.0`, `-0.0` and `0.0`) share a group; the
            // first key seen names it.
            let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut key_group = vec![None; key_rows.len()];
            for &key in &kept {
                if key_group[key].is_none() {
                    let values: Vec<Value> =
                        query.group_by.iter().map(|g| eval_at(g, key)).collect::<Result<_, _>>()?;
                    key_group[key] = Some(*index.entry(values.clone()).or_insert_with(|| {
                        groups.push((values, Vec::new()));
                        groups.len() - 1
                    }));
                }
                groups[key_group[key].expect("grouped")].1.push(key);
            }
            if groups.is_empty() && query.group_by.is_empty() {
                // Aggregates over an empty input still yield one row.
                groups.push((Vec::new(), Vec::new()));
            }
            groups.sort_by(|(ka, _), (kb, _)| ka.cmp(kb)); // deterministic output

            // Aggregate arguments, memoized per key and sub-expression (told
            // apart by address: each lives in `query`).
            let mut values: Vec<Vec<(*const Expr, Value)>> = vec![Vec::new(); key_rows.len()];
            let mut at = |expr: &Expr, key: usize| {
                if let Some((_, v)) = values[key].iter().find(|(e, _)| std::ptr::eq(*e, expr)) {
                    return Ok(v.clone());
                }
                let v = eval_at(expr, key)?;
                values[key].push((expr, v.clone()));
                Ok(v)
            };

            // HAVING filters whole groups; aggregates inside it evaluate over
            // the group's members.
            if let Some(having) = &query.having {
                let mut kept = Vec::with_capacity(groups.len());
                for (key, members) in groups {
                    if truthy(&eval_aggregate(having, &members, &mut at)?)? {
                        kept.push((key, members));
                    }
                }
                groups = kept;
            }
            for (_, members) in &groups {
                let mut out_row = Vec::with_capacity(query.projections.len());
                for p in &query.projections {
                    if p.expr.has_aggregate() {
                        out_row.push(eval_aggregate(&p.expr, members, &mut at)?);
                    } else {
                        // Scalar in a grouped query: value from the first
                        // member (callers group by it, per SQL convention).
                        out_row
                            .push(members.first().map_or(Value::Null, |&m| alias_at(m, &p.name)));
                    }
                }
                builder.push_row(out_row).expect("arity matches");
            }
        } else {
            for &key in &kept {
                let out_row = query.projections.iter().map(|p| alias_at(key, &p.name)).collect();
                builder.push_row(out_row).expect("arity matches");
            }
        }
        let table = builder.finish().map_err(|e| SqlError::Semantic(e.to_string()))?;
        let table = order_and_limit(query, table)?;
        query_span.arg("rows_vetted", stats.rows_vetted as u64);
        query_span.arg("violations", stats.violations as u64);
        query_span.arg("predictions", stats.predictions as u64);
        Ok(QueryOutput { table, stats })
    }
}

/// One row's model outputs, decoded from its label codes.
fn decode(models: &[&ModelRef], labels: &[u32]) -> Vec<Value> {
    models.iter().zip(labels).map(|(m, &code)| m.label_value(code)).collect()
}

/// Phases 4 and 5: `ORDER BY` over the output relation, then `LIMIT`.
fn order_and_limit(query: &Query, mut table: Table) -> Result<Table, SqlError> {
    if !query.order_by.is_empty() {
        let mut keys: Vec<(Vec<Value>, usize)> = Vec::with_capacity(table.num_rows());
        for i in 0..table.num_rows() {
            let env = Env { row: Some((&table, i)), ..NO_ENV };
            let key = query.order_by.iter().map(|(e, _)| eval(e, &env));
            keys.push((key.collect::<Result<_, _>>()?, i));
        }
        keys.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), (_, ord)) in ka.iter().zip(kb).zip(&query.order_by) {
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
        let order: Vec<usize> = keys.into_iter().map(|(_, i)| i).collect();
        table = table.take(&order);
    }
    if let Some(limit) = query.limit {
        table = table.head(limit);
    }
    Ok(table)
}

/// The distinct keys of some expressions over the rows of one table. A
/// row's key packs, mixed-radix, the codes of the columns they read (NULL
/// as the digit past the dictionary; an alias reads its projection's
/// columns) and the label codes of the models they call. When the packed
/// domain overflows `u64`, every row is a key of its own.
struct Memo<'t> {
    /// The digits; `None` on overflow.
    digits: Option<Vec<Digit<'t>>>,
    keys: HashMap<u64, usize>,
    len: usize,
}

/// A [`Memo`] key digit: a column's codes and NULL digit, or `None` and
/// the index of a model's label code; and its stride.
type Digit<'t> = (Option<(&'t [Code], Code)>, usize, u64);

impl<'t> Memo<'t> {
    /// Keys of `exprs` over `table`'s rows; a name resolves to a column of
    /// `table`, else to the projections of `aliases` it names, and
    /// `PREDICT(m)` to the label code of `m` in `models`.
    fn new<'e>(
        table: &'t Table,
        exprs: impl IntoIterator<Item = &'e Expr>,
        aliases: &[(&Expr, &str)],
        models: &[String],
    ) -> Self {
        let (mut cols, mut labels) = (BTreeSet::new(), BTreeSet::new());
        let mut leaf = |e: &Expr| match e {
            Expr::Column(name) => cols.extend(table.schema().index_of(name)),
            Expr::Predict { model } => labels.extend(models.iter().position(|m| m == model)),
            _ => {}
        };
        for expr in exprs {
            expr.visit(&mut |e| {
                leaf(e);
                if let Expr::Column(name) = e {
                    aliases.iter().filter(|a| a.1 == name).for_each(|a| a.0.visit(&mut leaf));
                }
            });
        }
        let cells = cols.into_iter().map(|c| {
            let column = &table.columns()[c];
            let null = column.dictionary().len() as Code;
            ((Some((column.codes(), null)), 0), u64::from(null) + 1)
        });
        let mut domain = Some(1u64);
        let digits = cells
            .chain(labels.into_iter().map(|i| ((None, i), 1 << 32)))
            .map(|((cell, label), radix)| {
                let stride = domain.unwrap_or(0);
                domain = domain.and_then(|d| d.checked_mul(radix));
                (cell, label, stride)
            })
            .collect();
        Self { digits: domain.map(|_| digits), keys: HashMap::default(), len: 0 }
    }

    /// The key of row `row`, whose label codes are `labels`, and whether it
    /// is new. Keys count up from 0 in first-seen order.
    fn key(&mut self, row: usize, labels: &[u32]) -> (usize, bool) {
        let next = self.len;
        let key = match &self.digits {
            None => next,
            Some(digits) => {
                let packed = digits.iter().map(|&(cell, label, stride)| match cell {
                    Some((codes, null)) => stride * u64::from(codes[row].min(null)),
                    None => stride * u64::from(labels[label]),
                });
                *self.keys.entry(packed.sum()).or_insert(next)
            }
        };
        self.len += usize::from(key == next);
        (key, key == next)
    }
}

/// `conjuncts` over `table`'s rows: whether row `i` passes, evaluated once
/// per [`Memo`] key.
fn filter<'t>(
    table: &'t Table,
    conjuncts: &[Expr],
) -> impl FnMut(usize) -> Result<bool, SqlError> + 't {
    let pred = join_conjuncts(conjuncts);
    let mut memo = Memo::new(table, &pred, &[], &[]);
    let mut pass = Vec::new();
    move |i| {
        let Some(pred) = &pred else { return Ok(true) };
        let (key, new) = memo.key(i, &[]);
        if new {
            pass.push(truthy(&eval(pred, &Env { row: Some((table, i)), ..NO_ENV })?)?);
        }
        Ok(pass[key])
    }
}

/// Evaluation environment: the cells of one table row, read in place, and
/// that row's scalar-projection aliases and model outputs as slots paired
/// with their names.
#[derive(Clone, Copy)]
struct Env<'a> {
    row: Option<(&'a Table, usize)>,
    /// Alias names and values, in projection order.
    aliases: (&'a [&'a str], &'a [Value]),
    /// Model names, in the query's first-use order, and their outputs.
    predictions: (&'a [String], &'a [Value]),
}

/// No row, no alias, no model output.
const NO_ENV: Env<'static> = Env { row: None, aliases: (&[], &[]), predictions: (&[], &[]) };

impl Env<'_> {
    /// The alias `name`; the last of a duplicate name wins.
    fn alias(&self, name: &str) -> Option<&Value> {
        let (names, values) = self.aliases;
        names.iter().rposition(|n| *n == name).map(|i| &values[i])
    }
}

/// Constant folding: [`eval`] with no row, so a column resolves only
/// through `pins`. `None` wherever `eval` errors (an unpinned column,
/// `PREDICT`, an aggregate, arithmetic on non-numbers, truthiness of a
/// non-boolean), so a successful fold proves the runtime value on every row
/// that carries the pinned values.
pub(crate) fn const_fold(expr: &Expr, pins: &HashMap<String, Value>) -> Option<Value> {
    let (names, values): (Vec<&str>, Vec<Value>) =
        pins.iter().map(|(name, v)| (name.as_str(), v.clone())).unzip();
    eval(expr, &Env { aliases: (&names, &values), ..NO_ENV }).ok()
}

/// The one expression evaluator: SQL three-valued logic, `AND`/`OR`
/// short-circuiting, integer-preserving arithmetic, division by zero as
/// `NULL`. Row values shadow aliases.
fn eval(expr: &Expr, env: &Env<'_>) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            if let Some((table, row)) = env.row {
                if let Some(col) = table.schema().index_of(name) {
                    return Ok(table.get(row, col).expect("row in range"));
                }
            }
            env.alias(name).cloned().ok_or_else(|| SqlError::UnknownColumn(name.clone()))
        }
        Expr::Predict { model } => {
            let (names, values) = env.predictions;
            let slot = names.iter().position(|m| m == model);
            slot.map(|i| values[i].clone()).ok_or_else(|| SqlError::UnknownModel(model.clone()))
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

/// An aggregate-bearing expression over a group's `members`; `at(e, ri)`
/// evaluates the scalar `e` on member `ri`.
fn eval_aggregate(
    expr: &Expr,
    members: &[usize],
    at: &mut impl FnMut(&Expr, usize) -> Result<Value, SqlError>,
) -> Result<Value, SqlError> {
    match expr {
        Expr::Aggregate { func, arg } => match func {
            AggFunc::Count if arg.is_none() => Ok(Value::Int(members.len() as i64)),
            _ => {
                let arg = arg.as_ref().expect("non-COUNT(*) aggregate has an argument");
                let mut values = Vec::with_capacity(members.len());
                for &ri in members {
                    let v = at(arg, ri)?;
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
        // Aggregate embedded in arithmetic, e.g. `AVG(x) * 100`: both sides
        // reduce to literals, so no row is read (a group may be empty).
        Expr::Binary { op, left, right } => {
            let l = eval_aggregate(left, members, at)?;
            let r = eval_aggregate(right, members, at)?;
            let reduced = Expr::Binary {
                op: *op,
                left: Box::new(Expr::Literal(l)),
                right: Box::new(Expr::Literal(r)),
            };
            eval(&reduced, &NO_ENV)
        }
        // Non-aggregate sub-expression inside an aggregate projection:
        // evaluate on the first member.
        other => match members.first() {
            Some(&ri) => at(other, ri),
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
    use guardrail_ml::NaiveBayes;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The per-row `Value` path of phases 1–3: every expression evaluated on
    /// every row, model outputs decoded per row, rows grouped by hashed
    /// `Vec<Value>` keys. The spec `Executor::run_query` is tested against.
    fn run_spec(exec: &Executor<'_>, sql: &str) -> Result<QueryOutput, SqlError> {
        let query = parse_query(sql)?;
        let Planned { ctx, models, intercept, phys } = exec.plan(&query, true)?;
        let base = ctx.base;
        let mut stats = ExecutionStats {
            rows_scanned: base.num_rows(),
            rules_applied: phys.rewrites.len(),
            predicates_pruned: phys.predicates_pruned,
            unbound_statements: ctx.analysis.as_ref().map_or(0, |a| a.unbound().len()),
            ..ExecutionStats::default()
        };
        let pushed = join_conjuncts(&phys.pushed);
        let row_filter = join_conjuncts(&phys.row_filter);
        let residual = join_conjuncts(&phys.residual);

        let mut surviving: Vec<usize> = Vec::new();
        if phys.empty.is_some() {
            stats.rows_skipped_by_contradiction = base.num_rows();
        } else {
            for i in 0..base.num_rows() {
                if phys.scan_limit.is_some_and(|cap| surviving.len() >= cap) {
                    break;
                }
                let keep = match &pushed {
                    None => true,
                    Some(pred) => truthy(&eval(pred, &Env { row: Some((base, i)), ..NO_ENV })?)?,
                };
                if keep {
                    surviving.push(i);
                }
            }
        }
        stats.rows_after_pushdown = surviving.len();
        let rows = match (intercept, &phys.empty) {
            (Some((guard, scheme)), None) => {
                stats.rows_vetted = surviving.len();
                let vet = guard.vet_rows(base, &surviving, scheme).unwrap();
                stats.violations = vet.violations.len();
                stats.engine_fallback_statements = vet.legacy_statements;
                if let Some(v) = vet.violations.first().filter(|_| scheme == ErrorScheme::Raise) {
                    let detail =
                        format!("{} should be {} (found {})", v.attribute, v.expected, v.actual);
                    return Err(SqlError::GuardrailRaise { row: surviving[v.row], detail });
                }
                vet.table
            }
            _ => base.take(&surviving),
        };

        let scalar_projections: Vec<(&Expr, &str)> = query
            .projections
            .iter()
            .filter(|p| !p.expr.has_aggregate())
            .map(|p| (&p.expr, p.name.as_str()))
            .collect();
        let alias_names: Vec<&str> = scalar_projections.iter().map(|&(_, name)| name).collect();
        let (mut kept, mut predictions, mut aliases) = (Vec::new(), Vec::new(), Vec::new());
        let mut next = 0;
        loop {
            let want = phys.row_limit.map_or(usize::MAX, |cap| cap - kept.len());
            let mut chunk = Vec::new();
            while next < rows.num_rows() && chunk.len() < want {
                let pass = match &row_filter {
                    None => true,
                    Some(pred) => {
                        truthy(&eval(pred, &Env { row: Some((&rows, next)), ..NO_ENV })?)?
                    }
                };
                if pass {
                    chunk.push(next);
                }
                next += 1;
            }
            if chunk.is_empty() {
                break;
            }
            let mut outputs: Vec<_> = models
                .iter()
                .map(|m| exec.catalog.model(m).unwrap().predict_rows(&rows, &chunk).into_iter())
                .collect();
            stats.predictions += chunk.len() * models.len();
            for &k in &chunk {
                let (p0, a0) = (predictions.len(), aliases.len());
                predictions.extend(outputs.iter_mut().map(|o| o.next().expect("one per row")));
                let env = Env {
                    row: Some((&rows, k)),
                    predictions: (&models, &predictions[p0..]),
                    ..NO_ENV
                };
                for &(expr, _) in &scalar_projections {
                    aliases.push(eval(expr, &env)?);
                }
                if let Some(pred) = &residual {
                    let env = Env { aliases: (&alias_names, &aliases[a0..]), ..env };
                    if !truthy(&eval(pred, &env)?)? {
                        predictions.truncate(p0);
                        aliases.truncate(a0);
                        continue;
                    }
                }
                kept.push(k);
            }
        }
        let (nm, na) = (models.len(), alias_names.len());
        let env_of = |ri: usize| Env {
            row: Some((&rows, kept[ri])),
            aliases: (&alias_names, &aliases[ri * na..(ri + 1) * na]),
            predictions: (&models, &predictions[ri * nm..(ri + 1) * nm]),
        };
        let mut at = |e: &Expr, ri: usize| eval(e, &env_of(ri));

        let has_aggregate = query.projections.iter().any(|p| p.expr.has_aggregate());
        let names: Vec<String> = query.projections.iter().map(|p| p.name.clone()).collect();
        let mut builder = TableBuilder::new(names);
        if has_aggregate || !query.group_by.is_empty() {
            let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            for ri in 0..kept.len() {
                let env = env_of(ri);
                let key: Vec<Value> =
                    query.group_by.iter().map(|g| eval(g, &env)).collect::<Result<_, _>>()?;
                match index.get(&key) {
                    Some(&gi) => groups[gi].1.push(ri),
                    None => {
                        index.insert(key.clone(), groups.len());
                        groups.push((key, vec![ri]));
                    }
                }
            }
            if groups.is_empty() && query.group_by.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            groups.sort_by(|(ka, _), (kb, _)| ka.cmp(kb));
            if let Some(having) = &query.having {
                let mut kept = Vec::with_capacity(groups.len());
                for (key, members) in groups {
                    if truthy(&eval_aggregate(having, &members, &mut at)?)? {
                        kept.push((key, members));
                    }
                }
                groups = kept;
            }
            for (_, members) in &groups {
                let mut out_row = Vec::with_capacity(query.projections.len());
                for p in &query.projections {
                    if p.expr.has_aggregate() {
                        out_row.push(eval_aggregate(&p.expr, members, &mut at)?);
                    } else {
                        out_row.push(match members.first() {
                            Some(&ri) => env_of(ri).alias(&p.name).expect("scalar").clone(),
                            None => Value::Null,
                        });
                    }
                }
                builder.push_row(out_row).expect("arity matches");
            }
        } else {
            for ri in 0..kept.len() {
                let env = env_of(ri);
                let out_row = query
                    .projections
                    .iter()
                    .map(|item| env.alias(&item.name).expect("scalar").clone())
                    .collect();
                builder.push_row(out_row).expect("arity matches");
            }
        }
        let table = builder.finish().map_err(|e| SqlError::Semantic(e.to_string()))?;
        Ok(QueryOutput { table: super::order_and_limit(&query, table)?, stats })
    }

    /// A query's outcome in comparable form: the output CSV and the
    /// statistics with timings zeroed, or the error.
    fn outcome(out: Result<QueryOutput, SqlError>) -> Result<(String, ExecutionStats), String> {
        out.map(|o| {
            let stats = ExecutionStats { guardrail_nanos: 0, inference_nanos: 0, ..o.stats };
            (o.table.to_csv_string(), stats)
        })
        .map_err(|e| format!("{e:?}"))
    }

    /// Draws from a fixed stream of choices.
    struct Picks<'p>(&'p [u32], usize);

    impl Picks<'_> {
        fn pick(&mut self, n: usize) -> usize {
            self.1 += 1;
            self.0[self.1 % self.0.len()] as usize % n
        }

        fn of<'s>(&mut self, options: &[&'s str]) -> &'s str {
            options[self.pick(options.len())]
        }
    }

    const A: [&str; 7] = ["0", "1", "1.0", "-0.0", "0.0", "2", ""];
    const B: [&str; 5] = ["x", "é", "日本", "y", ""];
    const C: [&str; 5] = ["1", "s", "2.5", "", "-1"];
    const LABEL: [&str; 3] = ["hi", "lo", ""];

    /// A scalar expression of depth at most `depth`; `PREDICT` only when
    /// `models` is set.
    fn scalar(p: &mut Picks<'_>, depth: usize, models: bool) -> String {
        let leaf = |p: &mut Picks<'_>| match p.pick(if models { 4 } else { 3 }) {
            0 => p.of(&["a", "b", "c", "label"]).to_string(),
            1 => p.of(&["0", "1", "1.0", "-0.0", "2", "'x'", "'é'", "'日本'", "NULL"]).to_string(),
            2 => p.of(&["a", "c"]).to_string(),
            _ => p.of(&["PREDICT(m)", "PREDICT(m2)"]).to_string(),
        };
        if depth == 0 {
            return leaf(p);
        }
        match p.pick(5) {
            0 => format!(
                "({} {} {})",
                scalar(p, depth - 1, models),
                p.of(&["+", "-", "*", "/"]),
                leaf(p)
            ),
            1 => format!(
                "CASE WHEN {} THEN {} ELSE {} END",
                predicate(p, depth - 1, models),
                scalar(p, depth - 1, models),
                leaf(p)
            ),
            _ => leaf(p),
        }
    }

    /// A predicate of depth at most `depth`.
    fn predicate(p: &mut Picks<'_>, depth: usize, models: bool) -> String {
        let s = |p: &mut Picks<'_>| scalar(p, depth.saturating_sub(1), models);
        match p.pick(if depth == 0 { 4 } else { 7 }) {
            0 => format!("{} {} {}", s(p), p.of(&["=", "<", "<>", ">="]), s(p)),
            1 => format!("{} IN ({}, {})", s(p), s(p), p.of(&["1", "'x'", "NULL"])),
            2 => format!("{} BETWEEN {} AND {}", s(p), p.of(&["0", "-1"]), p.of(&["1", "2.5"])),
            3 => format!("{} {} 'é'", p.of(&["b", "label"]), p.of(&["=", "<"])),
            4 => format!("NOT {}", predicate(p, depth - 1, models)),
            5 => format!(
                "({} AND {})",
                predicate(p, depth - 1, models),
                predicate(p, depth - 1, models)
            ),
            _ => format!(
                "({} OR {})",
                predicate(p, depth - 1, models),
                predicate(p, depth - 1, models)
            ),
        }
    }

    /// A query over `t` from the grammar: plain projections, a grouped
    /// aggregate (on a column, an alias or `PREDICT`) or a global one, with
    /// optional `WHERE`, `HAVING`, `ORDER BY` and `LIMIT`.
    fn query(p: &mut Picks<'_>, models: bool) -> String {
        let agg = |p: &mut Picks<'_>| {
            let arg = scalar(p, 1, models);
            match p.pick(7) {
                0 => "COUNT(*)".to_string(),
                1 => format!("AVG({arg}) * 2"),
                i => format!("{}({arg})", ["COUNT", "SUM", "AVG", "MIN", "MAX"][i - 2]),
            }
        };
        let (select, group, order) = match p.pick(3) {
            0 => {
                let select =
                    format!("{} AS p0, {} AS p1", scalar(p, 2, models), scalar(p, 1, models));
                (select, String::new(), p.of(&["p0", "p1 DESC", "p0, p1"]))
            }
            1 => {
                let key = match p.pick(3) {
                    0 => p.of(&["a", "b", "c"]).to_string(),
                    1 if models => "PREDICT(m)".to_string(),
                    _ => scalar(p, 1, models),
                };
                let mut group = " GROUP BY k".to_string();
                if p.pick(2) == 0 {
                    group += &format!(" HAVING {} > {}", agg(p), p.of(&["1", "0", "'x'"]));
                }
                (
                    format!("{key} AS k, COUNT(*) AS n, {} AS v", agg(p)),
                    group,
                    p.of(&["k", "n DESC, k"]),
                )
            }
            _ => (format!("{} AS v, COUNT(*) AS n", agg(p)), String::new(), "v"),
        };
        let mut sql = format!("SELECT {select} FROM t");
        if p.pick(3) > 0 {
            sql += &format!(" WHERE {}", predicate(p, 2, models));
        }
        sql += &group;
        if p.pick(2) == 0 {
            sql += &format!(" ORDER BY {order}");
        }
        if p.pick(3) == 0 {
            sql += &format!(" LIMIT {}", p.pick(4));
        }
        sql
    }

    /// The training table of the differential test's model and guard: `a`
    /// determines `b` and `label`.
    fn differential_train() -> Table {
        let mut csv = String::from("a,b,c,label\n");
        for i in 0..60 {
            let a = i % 3;
            csv += &format!("{a},{},{},{}\n", B[a], C[i % 5], LABEL[usize::from(a == 0)]);
        }
        Table::from_csv_str(&csv).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The code-level executor gives the per-row spec's output CSV,
        /// statistics and errors, with and without a `Rectify` guard and
        /// models, under both plans.
        #[test]
        fn code_level_execution_matches_the_row_spec(
            cells in vec((0..A.len(), 0..B.len(), 0..C.len(), 0..LABEL.len()), 0..12),
            picks in vec(any::<u32>(), 64..65),
            models in any::<bool>(),
        ) {
            let mut csv = String::from("a,b,c,label\n");
            for &(a, b, c, l) in &cells {
                csv += &format!("{},{},{},{}\n", A[a], B[b], C[c], LABEL[l]);
            }
            let train = differential_train();
            let guard = Guardrail::from_program(
                guardrail_dsl::parse_program(
                    r#"GIVEN a ON b HAVING IF a = 0 THEN b <- "x"; IF a = 1 THEN b <- "é";"#,
                )
                .unwrap(),
            );
            let mut c = Catalog::new();
            c.add_table("t", Table::from_csv_str(&csv).unwrap_or_else(|_| train.clone()));
            if models {
                c.add_model("m", Arc::new(NaiveBayes::fit(&train, 3)));
                c.add_model("m2", Arc::new(guardrail_ml::Ensemble::fit(&train, 3)));
            }
            let mut p = Picks(&picks, 0);
            for _ in 0..3 {
                let sql = query(&mut p, models);
                for pushdown in [true, false] {
                    for guarded in [false, true] {
                        let mut exec = Executor::new(&c).with_pushdown(pushdown);
                        if guarded {
                            exec = exec.with_guardrail(&guard, ErrorScheme::Rectify);
                        }
                        prop_assert_eq!(
                            outcome(exec.run(&sql)),
                            outcome(run_spec(&exec, &sql)),
                            "{} (pushdown {}, guarded {})", sql, pushdown, guarded
                        );
                    }
                }
            }
        }
    }

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
        // With pushdown disabled the whole WHERE of a model query is
        // residual; a query without a model filters raw rows, as it runs.
        let exec = exec.with_pushdown(false);
        let plan = exec.explain("SELECT PREDICT(m) AS p FROM people WHERE city = 'A'").unwrap();
        assert!(!plan.contains("Pushdown filter"), "{plan}");
        assert!(plan.contains("Residual filter: (city = 'A')"), "{plan}");
        let plan = exec.explain("SELECT age FROM people WHERE city = 'A'").unwrap();
        assert!(plan.contains("Pushdown filter: (city = 'A')"), "{plan}");
        assert!(!plan.contains("Residual filter"), "{plan}");
    }

    #[test]
    fn row_filter_runs_before_inference() {
        // `city -> income` in the clean data, so `income` is a column the
        // program writes and `income = 'high'` cannot cross below the vet.
        let mut csv = String::from("city,income\n");
        for _ in 0..40 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::builder().fit(&clean).unwrap();
        let dirty = "city,income\nA,high\nA,low\nB,low\nB,high\nA,high\nB,low\n";
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str(dirty).unwrap());
        c.add_model("m", Arc::new(NaiveBayes::fit(&clean, 1)));
        let sql = "SELECT PREDICT(m) AS p, income FROM d WHERE income = 'high'";
        let exec = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify);
        let plan = exec.explain(sql).unwrap();
        assert!(plan.contains("Guardrail: Rectify\n  Row filter: (income = 'high')\n  Predict: m"));
        let out = exec.run(sql).unwrap();
        // Rectified, the three `A` rows read `high`; only they are predicted.
        assert_eq!((out.table.num_rows(), out.stats.rows_vetted), (3, 6));
        assert_eq!(out.stats.predictions, 3);
        // The reference plan predicts every vetted row, then filters.
        let naive = exec.with_pushdown(false).run(sql).unwrap();
        assert_eq!(naive.table.to_csv_string(), out.table.to_csv_string());
        assert_eq!(naive.stats.predictions, 6);
    }

    #[test]
    fn limit_caps_predictions_row_for_row() {
        // Under a row cap the models see exactly the rows still needed, so
        // a query makes the predictions row-at-a-time execution makes.
        let mut c = catalog();
        c.add_model("m", Arc::new(NaiveBayes::fit(&people(), 2)));
        let sql = "SELECT PREDICT(m) AS p, age FROM people WHERE PREDICT(m) = 'high' LIMIT 2";
        for (pushdown, predictions) in [(true, 3), (false, 3)] {
            let out = Executor::new(&c).with_pushdown(pushdown).run(sql).unwrap();
            assert_eq!(out.table.to_csv_string(), "p,age\nhigh,40\nhigh,50\n");
            assert_eq!(out.stats.predictions, predictions, "pushdown {pushdown}");
        }
        // A guarded row filter under the cap: rectified, rows 0, 1 and 4
        // read `high`; the model predicts `high` for every `A` row.
        let mut csv = String::from("city,income\n");
        for _ in 0..40 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::builder().fit(&clean).unwrap();
        let dirty = "city,income\nA,high\nA,low\nB,low\nB,high\nA,high\nB,low\n";
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str(dirty).unwrap());
        c.add_model("m", Arc::new(NaiveBayes::fit(&clean, 1)));
        let exec = |pushdown| {
            Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify).with_pushdown(pushdown)
        };
        for (sql, rows, optimized, reference) in [
            ("SELECT PREDICT(m) AS p FROM d WHERE income = 'high' LIMIT 2", 2, 2, 2),
            ("SELECT PREDICT(m) AS p FROM d WHERE income = 'high' AND p = 'low' LIMIT 1", 0, 3, 6),
        ] {
            assert!(exec(true).explain(sql).unwrap().contains("Row filter: (income = 'high')"));
            let out = exec(true).run(sql).unwrap();
            let naive = exec(false).run(sql).unwrap();
            assert_eq!(out.table.to_csv_string(), naive.table.to_csv_string(), "{sql}");
            assert_eq!(out.table.num_rows(), rows, "{sql}");
            assert_eq!(out.stats.predictions, optimized, "{sql}");
            assert_eq!(naive.stats.predictions, reference, "{sql}");
        }
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
    fn aggregate_arithmetic_over_no_rows_is_null() {
        // Both sides reduce to literals before the arithmetic, so an empty
        // input reads no row: one NULL row, as for the bare aggregate.
        for sql in [
            "SELECT AVG(age) * 2 AS d FROM people WHERE age > 1000",
            "SELECT MAX(age) - MIN(age) AS d FROM people WHERE age > 1000",
        ] {
            let t = run(sql);
            assert_eq!((t.num_rows(), t.get(0, 0)), (1, Some(Value::Null)), "{sql}");
        }
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
        let guard = Guardrail::builder().fit(&clean).unwrap();
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
        let guard = Guardrail::builder().fit(&clean).unwrap();
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
        // The guardrail's one statement mentions `income`, which the queried
        // table lacks, so no statement binds: every guarded query fails
        // before the scan, whatever the scheme or plan, even one the
        // optimizer proves empty.
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::builder().fit(&clean).unwrap();
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
        let guard = Guardrail::builder().fit(&clean).unwrap();
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
        let guard = Guardrail::builder().fit(&clean).unwrap();
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
        let guard = Guardrail::builder().fit(&clean).unwrap();
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income,note\nA,low,x\nB,low,y\n").unwrap());
        c.add_model("m", Arc::new(model));
        (guard, c)
    }

    #[test]
    fn optimized_plan_matches_naive_plan_under_rectify() {
        let (guard, c) = city_income_catalog();
        let sql = "SELECT PREDICT(m) AS p, city, income, note FROM d ORDER BY city";
        let optimized =
            Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify).run(sql).unwrap();
        let naive = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Rectify)
            .with_pushdown(false)
            .run(sql)
            .unwrap();
        assert_eq!(optimized.table.to_csv_string(), naive.table.to_csv_string());
        assert_eq!(
            optimized.table.to_csv_string(),
            "p,city,income,note\nhigh,A,high,x\nlow,B,low,y\n"
        );
        assert_eq!(optimized.stats.rows_vetted, naive.stats.rows_vetted);
        assert_eq!(optimized.stats.violations, naive.stats.violations);
    }

    #[test]
    fn group_by_merges_keys_that_compare_equal() {
        // `1` and `1.0` are one value, as are `-0.0` and `0.0`: one group
        // each, named by the first key seen.
        let mut c = Catalog::new();
        c.add_table("t", Table::from_csv_str("city,age\nA,1\nB,2\nA,3\nB,4\n").unwrap());
        let exec = Executor::new(&c);
        let out = exec
            .run(
                "SELECT CASE WHEN city = 'A' THEN 1 ELSE 1.0 END AS k, COUNT(*) AS n \
                 FROM t GROUP BY k",
            )
            .unwrap()
            .table;
        assert_eq!(out.num_rows(), 1, "{}", out.to_csv_string());
        assert_eq!((out.get(0, 0), out.get(0, 1)), (Some(Value::Int(1)), Some(Value::Int(4))));
        let out = exec
            .run("SELECT age * 0.0 * (2 - age) AS z, COUNT(*) AS n FROM t GROUP BY z")
            .unwrap()
            .table;
        assert_eq!(out.num_rows(), 1, "{}", out.to_csv_string());
        assert_eq!(out.get(0, 1), Some(Value::Int(4)));
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
    fn where_reads_projection_aliases_without_predict() {
        // An alias conjunct runs after projection, like in a query that
        // calls a model, with the plan optimized or not.
        let mut c = catalog();
        c.add_model("m", Arc::new(NaiveBayes::fit(&people(), 2)));
        for pushdown in [true, false] {
            let exec = Executor::new(&c).with_pushdown(pushdown);
            let out = exec.run("SELECT city AS c FROM people WHERE c = 'A'").unwrap();
            assert_eq!(out.table.to_csv_string(), "c\nA\nA\nA\n", "pushdown {pushdown}");
            let out = exec.run("SELECT age * 2 AS dbl FROM people WHERE dbl > 70").unwrap();
            assert_eq!(out.table.to_csv_string(), "dbl\n80\n100\n120\n", "pushdown {pushdown}");
            // A name that is neither a column nor an alias still fails,
            // even when the other conjunct would reject every row first.
            for sql in [
                "SELECT age FROM people WHERE nope = 1 AND age > 1000",
                "SELECT age FROM people WHERE age > 1000 AND nope = 1",
                "SELECT city, COUNT(*) AS n FROM people WHERE n > 1 GROUP BY city",
                "SELECT PREDICT(m) AS p FROM people WHERE nope = 1 AND age > 1000",
            ] {
                let err = exec.run(sql).unwrap_err();
                assert!(matches!(err, SqlError::UnknownColumn(_)), "{sql}: {err:?}");
                assert!(exec.explain(sql).is_err(), "{sql}");
            }
        }
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
