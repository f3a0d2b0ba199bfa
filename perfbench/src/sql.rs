//! `sql_guarded`: the Fig. 6 analyst.
//!
//! One op is an analyst's session on one dataset: five `Rectify`-guarded
//! queries over a dirty test split with a `NaiveBayes` model, run one after
//! the other; its latency is the sum of the five queries' run times. The
//! five are the four `guardrail_bench::queries::queries_for` templates plus
//! one query whose `WHERE` pins a determinant and its implied dependent
//! (taken from the fitted program), so the optimizer's implied-predicate
//! pruning fires. The datasets are paper datasets #1, #10 and #12, sampled
//! at half their paper row counts. Tables, fits and models are built in
//! set-up, for [`DRAWS`] independent data draws per run, so that no single
//! draw sets the figures.
//!
//! A session rather than a single query is the op because the costs of the
//! filtered and implied queries depend on the draw (on how many rows their
//! `WHERE` selects): with one query per op the median fell among them and
//! moved with the seed, while a session's sum does not.

use crate::data::{dirty_copy, sem_table, sub_seed};
use crate::trace::Tracer;
use crate::{RunConfig, Workload};
use guardrail_bench::queries::queries_for;
use guardrail_core::{ErrorScheme, Guardrail, Program};
use guardrail_ml::NaiveBayes;
use guardrail_sqlexec::{Catalog, Executor};
use guardrail_table::{SplitSpec, Table, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Paper datasets (id, paper row count) the queries run on.
const DATASETS: [(u8, usize); 3] = [(1, 48_842), (10, 45_211), (12, 36_275)];
/// Each dataset is sampled at its paper row count divided by this.
const ROW_DIVISOR: usize = 2;

/// Independent data draws per run.
const DRAWS: usize = 6;

/// One session per dataset and draw.
const SESSIONS_PER_ROUND: usize = DATASETS.len() * DRAWS;

/// Fixed op rate behind the op count.
const OPS_PER_SECOND: f64 = 8.0;

/// One dataset draw and its session's queries.
struct Dataset {
    catalog: Catalog,
    guard: Guardrail,
    queries: Vec<Query>,
}

struct Query {
    sql: String,
    /// CSV of the same query under `with_pushdown(false)` — the naive plan
    /// every rewrite must match — computed the first time the query runs.
    reference: Option<String>,
}

pub struct SqlGuarded {
    datasets: Vec<Dataset>,
    // `ExecutionStats` figures, summed over a traced loop.
    run_ns: u64,
    vet_ns: u128,
    predict_ns: u128,
    rows_vetted: u64,
    rows_scanned: u64,
    predicates_pruned: u64,
    fallback_statements: u64,
    notes: Vec<String>,
}

fn quote_ident(name: &str) -> String {
    let simple = name.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if simple {
        name.to_string()
    } else {
        format!("\"{name}\"")
    }
}

fn sql_literal(v: &Value) -> Option<String> {
    match v {
        Value::Null => None,
        Value::Str(s) => Some(format!("'{}'", s.replace('\'', "''"))),
        other => Some(other.to_string()),
    }
}

/// A histogram query whose `WHERE` pins one branch's determinant values and
/// the dependent value the branch implies. Picks, among the statements
/// with the fewest determinants, the branch matching the earliest row.
fn implied_query(program: &Program, table: &Table) -> Option<String> {
    let mut statements: Vec<_> = program.statements.iter().collect();
    statements.sort_by_key(|s| s.given.len());
    for statement in statements {
        for row in 0..table.num_rows().min(200) {
            let Some(r) = table.row_owned(row) else { continue };
            let hit = statement
                .branches
                .iter()
                .find(|b| b.condition.conjuncts().iter().all(|(a, v)| r.get_by_name(a) == Some(v)));
            let Some(branch) = hit else { continue };
            let mut pins = Vec::new();
            for (a, v) in branch.condition.conjuncts() {
                pins.push(format!("{} = {}", quote_ident(a), sql_literal(v)?));
            }
            pins.push(format!(
                "{} = {}",
                quote_ident(&statement.on),
                sql_literal(&branch.literal)?
            ));
            return Some(format!(
                "SELECT PREDICT(m) AS pred, COUNT(*) AS n FROM t WHERE {} GROUP BY pred ORDER BY pred",
                pins.join(" AND ")
            ));
        }
    }
    None
}

/// The same histogram query, pinning the first two non-label columns to
/// row 0's values: the stand-in when the fitted program is empty.
fn pinned_query(table: &Table, label: usize) -> String {
    let pins: Vec<String> = (0..table.num_columns())
        .filter(|&c| c != label)
        .take(2)
        .filter_map(|c| {
            let name = table.schema().field(c)?.name();
            Some(format!("{} = {}", quote_ident(name), sql_literal(&table.get(0, c)?)?))
        })
        .collect();
    format!(
        "SELECT PREDICT(m) AS pred, COUNT(*) AS n FROM t WHERE {} GROUP BY pred ORDER BY pred",
        pins.join(" AND ")
    )
}

impl SqlGuarded {
    fn executor(&self, dataset: usize) -> Executor<'_> {
        let d = &self.datasets[dataset];
        Executor::new(&d.catalog).with_guardrail(&d.guard, ErrorScheme::Rectify)
    }

    /// Runs query `q` of dataset draw `d` and checks its rows; returns its
    /// run time.
    fn run_query(&mut self, d: usize, q: usize, tr: &mut Tracer) -> Result<f64, String> {
        let query = &self.datasets[d].queries[q];
        let exec = self.executor(d);
        if tr.enabled() {
            tr.span("sqlexec.plan", || exec.explain(&query.sql))
                .map_err(|e| format!("explain: {e}"))?;
        }
        tr.open("sqlexec.run");
        let t0 = Instant::now();
        let out = exec.run(&query.sql);
        let elapsed = t0.elapsed();
        tr.close();
        let out = out.map_err(|e| format!("query {q} of dataset {d}: {e}"))?;
        let csv = black_box(out.table.to_csv_string());
        if tr.enabled() {
            let s = out.stats;
            self.run_ns += elapsed.as_nanos() as u64;
            self.vet_ns += s.guardrail_nanos;
            self.predict_ns += s.inference_nanos;
            self.rows_vetted += s.rows_vetted as u64;
            self.rows_scanned += s.rows_scanned as u64;
            self.predicates_pruned += s.predicates_pruned as u64;
            self.fallback_statements += s.engine_fallback_statements as u64;
        }

        // Check against the naive plan, outside the timed window.
        if self.datasets[d].queries[q].reference.is_none() {
            let reference = self
                .executor(d)
                .with_pushdown(false)
                .run(&self.datasets[d].queries[q].sql)
                .map_err(|e| format!("reference query {q} of dataset {d}: {e}"))?;
            self.datasets[d].queries[q].reference = Some(reference.table.to_csv_string());
        }
        if self.datasets[d].queries[q].reference.as_deref() != Some(csv.as_str()) {
            return Err(format!("query {q} of dataset {d}: rows differ from the naive plan's"));
        }
        Ok(elapsed.as_secs_f64() * 1e3)
    }
}

impl Workload for SqlGuarded {
    type Input = ();

    const PASSES: usize = 2;
    /// The first draw's sessions.
    const WARMUP: usize = DATASETS.len();

    fn op_count(seconds: u64) -> usize {
        // Whole rounds over the sessions, so each weighs the same, and the
        // same number of rounds in every pass.
        let round = SESSIONS_PER_ROUND * Self::PASSES;
        let rounds = (seconds as f64 * OPS_PER_SECOND / round as f64).round() as usize;
        rounds.max(1) * round
    }

    fn prepare(_cfg: &RunConfig) -> Result<(), String> {
        Ok(())
    }

    fn setup(cfg: &RunConfig, _input: &()) -> Result<Self, String> {
        let mut datasets = Vec::new();
        let mut notes = Vec::new();
        for (draw, &(id, rows)) in (0..DRAWS).flat_map(|d| DATASETS.iter().map(move |ds| (d, ds))) {
            let seed = sub_seed(cfg.seed, 0x5D00 + draw as u64);
            let (clean, label) = sem_table(id, rows / ROW_DIVISOR, seed);
            let (train, test) =
                SplitSpec::new(0.6, sub_seed(seed, 0x5917 + id as u64)).split(&clean);
            let guard = Guardrail::builder().fit(&train).map_err(|e| format!("fit #{id}: {e}"))?;
            // Corrupt the attributes the program constrains (as Fig. 6
            // does), never the label.
            let schema = test.schema();
            let mut constrained: Vec<usize> = guard
                .program()
                .statements
                .iter()
                .filter_map(|s| schema.index_of(&s.on))
                .filter(|&c| c != label)
                .collect();
            constrained.sort_unstable();
            constrained.dedup();
            let columns = if constrained.is_empty() {
                (0..test.num_columns()).filter(|&c| c != label).collect()
            } else {
                constrained
            };
            let dirty = dirty_copy(&test, Some(columns), seed ^ id as u64);
            let model = NaiveBayes::fit(&train, label);
            let mut queries: Vec<Query> = queries_for("t", "m", &test, label)
                .into_iter()
                .map(|sql| Query { sql, reference: None })
                .collect();
            let implied = implied_query(guard.program(), &dirty).unwrap_or_else(|| {
                notes.push(format!("#{id}, draw {draw}: the fitted program is empty; its pinned query prunes nothing"));
                pinned_query(&dirty, label)
            });
            queries.push(Query { sql: implied, reference: None });
            let mut catalog = Catalog::new();
            catalog.add_table("t", dirty);
            catalog.add_model("m", Arc::new(model));
            datasets.push(Dataset { catalog, guard, queries });
        }
        Ok(SqlGuarded {
            datasets,
            run_ns: 0,
            vet_ns: 0,
            predict_ns: 0,
            rows_vetted: 0,
            rows_scanned: 0,
            predicates_pruned: 0,
            fallback_statements: 0,
            notes,
        })
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<f64, String> {
        let d = i % self.datasets.len();
        let mut elapsed_ms = 0.0;
        for q in 0..self.datasets[d].queries.len() {
            elapsed_ms += self.run_query(d, q, tr)?;
        }
        Ok(elapsed_ms)
    }

    fn finish(&mut self) -> Result<Vec<String>, String> {
        let mut notes = vec![format!(
            "{} sessions of {} queries over {DRAWS} draws of datasets #1, #10, #12 (Rectify guard, NaiveBayes model)",
            self.datasets.len(),
            self.datasets.iter().map(|d| d.queries.len()).sum::<usize>()
        )];
        notes.extend(self.notes.iter().cloned());
        Ok(notes)
    }

    fn layers(&self, tr: &Tracer, ops: usize) -> BTreeMap<&'static str, f64> {
        let self_ns = tr.self_times_ns();
        let plan_ns = self_ns.get("sqlexec.plan").copied().unwrap_or(0);
        let per_op_ms = |ns: f64| ns / 1e6 / ops as f64;
        let residual =
            self.run_ns as f64 - plan_ns as f64 - self.vet_ns as f64 - self.predict_ns as f64;
        let ratio = if self.rows_scanned == 0 {
            0.0
        } else {
            self.rows_vetted as f64 / self.rows_scanned as f64
        };
        BTreeMap::from([
            ("sqlexec.plan_ms", per_op_ms(plan_ns as f64)),
            ("core.vet_ms", per_op_ms(self.vet_ns as f64)),
            ("ml.predict_ms", per_op_ms(self.predict_ns as f64)),
            ("sqlexec.exec_residual_ms", per_op_ms(residual)),
            ("sqlexec.rows_vetted_per_scanned", ratio),
            ("sqlexec.predicates_pruned", self.predicates_pruned as f64),
            ("sqlexec.fallback_statements", self.fallback_statements as f64),
        ])
    }

    fn accounting() -> &'static [&'static str] {
        &["sqlexec.plan_ms", "core.vet_ms", "ml.predict_ms", "sqlexec.exec_residual_ms"]
    }
}
