//! Alg. 2: optimal program synthesis from the MEC.
//!
//! ```text
//! for each DAG G in the (budgeted) MEC enumeration:
//!     sketch  ← parent sets of G           (ProgramSketch::from_dag)
//!     program ← fill sketch per Alg. 1     (deduplicated via the cache)
//! return the program with the highest coverage
//! ```
//!
//! Per-DAG fills share the statement cache (§7) because DAGs in one MEC
//! differ only in reversible-edge orientation — most parent sets repeat.
//! The per-DAG work is spread over worker threads via the governor's
//! [`parallel_map`] (the cache is `Sync`); a singleton MEC parallelizes over
//! its statements instead so the worker pool is never idle.
//!
//! [`parallel_map`]: guardrail_governor::parallel_map

use crate::cache::{CacheStats, StatementCache};
use crate::config::SynthesisConfig;
use crate::fill::{fill_sketch_statements, fill_statement_sketch, FilledStatement};
use crate::sketch::ProgramSketch;
use guardrail_dsl::ast::Program;
use guardrail_governor::{
    parallel_map, Budget, DegradationReport, Exhausted, ExhaustionReason, Parallelism, StageStatus,
};
use guardrail_graph::{enumerate_extensions, Dag, Pdag, ENUMERATE_STAGE};
use guardrail_obs::{self as obs, PipelineReport, StageReport};
use guardrail_pgm::{learn_cpdag, StatsCacheStats};
use guardrail_table::Table;
use std::time::Instant;

/// Result of an end-to-end synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The max-coverage ε-valid program `p*` found within budget.
    pub program: Program,
    /// Coverage of `p*` (average statement coverage).
    pub coverage: f64,
    /// The learned CPDAG.
    pub cpdag: Pdag,
    /// Number of DAGs enumerated from the MEC.
    pub mec_size: usize,
    /// Whether enumeration hit its cap or the run's budget.
    pub truncated: bool,
    /// The DAG whose sketch produced `p*` (`None` when the MEC is empty).
    pub chosen_dag: Option<Dag>,
    /// Statement-cache counters for the run.
    pub cache_stats: CacheStats,
    /// Sufficient-statistics cache counters from structure learning (zeros
    /// when synthesis started from a pre-learned CPDAG).
    pub oracle_cache: StatsCacheStats,
    /// Per-statement fill statistics of the winning program.
    pub statements: Vec<FilledStatement>,
    /// Which pipeline stages (if any) ran out of budget. An exhausted run is
    /// not an error: `program` is the best result found so far.
    pub degradation: DegradationReport,
    /// Deterministic stage-tree report of the run — wall times, work units,
    /// cache ratios, and degradations — built from the pipeline's own
    /// timings whether or not a tracing recorder is armed.
    pub report: PipelineReport,
}

/// Learns a CPDAG from `table` and synthesizes the optimal program (sketch
/// learning + Alg. 2). Structure learning, MEC enumeration, and sketch fills
/// all charge `budget`, and each stage degrades to its best partial result
/// on exhaustion (recorded in
/// [`degradation`](SynthesisOutcome::degradation)).
pub fn synthesize(table: &Table, config: &SynthesisConfig, budget: &Budget) -> SynthesisOutcome {
    let run_clock = Instant::now();
    let work_before = budget.work_done();
    let mut run_span = obs::span("synthesis");
    run_span.arg("rows", table.num_rows() as u64);

    let mut degradation = DegradationReport::complete();
    let learn_clock = Instant::now();
    let learned = learn_cpdag(table, &config.learn, config.parallelism, budget);
    let learn_ns = learn_clock.elapsed().as_nanos() as u64;
    degradation.record(learned.status);

    let mut outcome = synthesize_from_cpdag(table, &learned.cpdag, config, budget);
    degradation.merge(std::mem::replace(&mut outcome.degradation, DegradationReport::complete()));
    outcome.oracle_cache = learned.cache_stats;

    // Re-root the report: structure learning first, then the stages the
    // from-CPDAG pass already timed, all under one `synthesis` node.
    let cs = learned.cache_stats;
    let learn_stage = StageReport::new("structure_learning")
        .wall_ns(learn_ns)
        .metric("ci_cache_hits", cs.result_hits)
        .metric("ci_cache_misses", cs.result_misses)
        .metric("ci_cache_hit_rate", percent(cs.result_hits, cs.result_misses))
        .metric("bit_tests", cs.bit_tests)
        .metric("packed_tests", cs.packed_tests);
    let mut root = StageReport::new("synthesis").child(learn_stage);
    root.children.append(&mut outcome.report.stages);
    root.wall_ns = run_clock.elapsed().as_nanos() as u64;
    root.metrics.push(("work_units".into(), (budget.work_done() - work_before).to_string()));
    outcome.report = PipelineReport::new().stage(root);
    outcome.report.degradations = degradation.stages.iter().map(|d| d.to_string()).collect();
    outcome.degradation = degradation;
    run_span.arg("work_units", budget.work_done() - work_before);
    outcome
}

/// Renders a hit/miss pair as a percentage (`"—"` when nothing was
/// counted).
fn percent(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        return "—".into();
    }
    format!("{:.1}%", hits as f64 * 100.0 / total as f64)
}

/// Alg. 2 proper: synthesis given an already-learned CPDAG, under `budget`.
pub fn synthesize_from_cpdag(
    table: &Table,
    cpdag: &Pdag,
    config: &SynthesisConfig,
    budget: &Budget,
) -> SynthesisOutcome {
    let mut degradation = DegradationReport::complete();
    // Enumeration runs under a child cap so `max_dags` bounds the MEC even
    // on an otherwise unlimited budget (one work unit per accepted DAG).
    let enum_clock = Instant::now();
    let mut enum_span = obs::span("mec_enumeration");
    let enum_budget = budget.child(Some(config.max_dags as u64));
    let (dags, mut enum_status) = enumerate_extensions(cpdag, &enum_budget);
    let truncated = !enum_status.is_complete();
    // A complete enumeration with no DAG means the PDAG's orientations
    // conflict: the fit emits the empty program, which must not read as an
    // exact result.
    if dags.is_empty() && !truncated {
        let reason = ExhaustionReason::NotExtendable;
        let err = Exhausted { reason, work_done: enum_budget.work_done() };
        enum_status = StageStatus::degraded(ENUMERATE_STAGE, err);
    }
    enum_span.arg("dags", dags.len() as u64);
    enum_span.arg("truncated", truncated as u64);
    drop(enum_span);
    let enum_ns = enum_clock.elapsed().as_nanos() as u64;
    degradation.record(enum_status);
    let cache = StatementCache::new();

    // Exactly one fan-out level gets the worker pool, so thread counts stay
    // bounded by the configured policy: with several DAGs the outer map
    // saturates the workers; a singleton MEC hands the parallelism down to
    // its statements.
    let stmt_parallelism =
        if dags.len() <= 1 { config.parallelism } else { Parallelism::Sequential };

    let fill_dag = |dag: &Dag| -> (f64, Vec<FilledStatement>, StageStatus) {
        let sketch = ProgramSketch::from_dag(dag);
        // Anytime: exhausted statements are skipped, completed ones kept —
        // the argmax below still sees a valid (partial) candidate program.
        let (filled, skipped, status) = fill_sketch_statements(&sketch, stmt_parallelism, |s| {
            cache.try_get_or_fill(s, || fill_statement_sketch(table, s, config.epsilon, budget))
        });
        // Budget-skipped statements count as zeros in the average, so a
        // partial fill never scores above the complete fill of the same DAG
        // (⊥ statements stay excluded, exactly as in an unbudgeted run).
        let coverage = if filled.is_empty() {
            0.0
        } else {
            filled.iter().map(|f| f.coverage).sum::<f64>() / (filled.len() + skipped) as f64
        };
        (coverage, filled, status)
    };

    let fill_clock = Instant::now();
    let mut fill_span = obs::span("sketch_fill");
    let results: Vec<(f64, Vec<FilledStatement>, StageStatus)> =
        parallel_map(config.parallelism, &dags, &fill_dag);
    fill_span.arg("dags", dags.len() as u64);
    fill_span.arg("cache_hits", cache.stats().hits as u64);
    fill_span.arg("cache_misses", cache.stats().misses as u64);
    drop(fill_span);
    let fill_ns = fill_clock.elapsed().as_nanos() as u64;

    // The budget is shared, so once it exhausts every remaining fill trips
    // on it; reporting the first degraded fill covers the stage.
    if let Some((_, _, status)) = results.iter().find(|(_, _, s)| !s.is_complete()) {
        degradation.record(status.clone());
    }

    // argmax coverage; ties break toward more statements (a program that
    // constrains more attributes at equal coverage has strictly more
    // discriminative power), then toward the first in enumeration order.
    let best = results
        .iter()
        .enumerate()
        .max_by(|(ia, (ca, fa, _)), (ib, (cb, fb, _))| {
            ca.partial_cmp(cb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(fa.len().cmp(&fb.len()))
                .then(ib.cmp(ia))
        })
        .map(|(i, _)| i);

    let (coverage, statements, chosen_dag) = match best {
        Some(i) => {
            let (c, f, _) = results[i].clone();
            (c, f, Some(dags[i].clone()))
        }
        None => (0.0, Vec::new(), None),
    };
    let program = Program { statements: statements.iter().map(|f| f.statement.clone()).collect() };

    let cache_stats = cache.stats();
    let enum_stage = StageReport::new("mec_enumeration")
        .wall_ns(enum_ns)
        .metric("dags", dags.len() as u64)
        .metric("truncated", truncated as u64);
    let fill_stage = StageReport::new("sketch_fill")
        .wall_ns(fill_ns)
        .metric("statements", statements.len() as u64)
        .metric("stmt_cache_hits", cache_stats.hits as u64)
        .metric("stmt_cache_misses", cache_stats.misses as u64)
        .metric("stmt_cache_hit_rate", percent(cache_stats.hits as u64, cache_stats.misses as u64));
    let mut report = PipelineReport::new().stage(enum_stage).stage(fill_stage);
    report.degradations = degradation.stages.iter().map(|d| d.to_string()).collect();

    SynthesisOutcome {
        program,
        coverage,
        cpdag: cpdag.clone(),
        mec_size: dags.len(),
        truncated,
        chosen_dag,
        cache_stats,
        oracle_cache: StatsCacheStats::default(),
        statements,
        degradation,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_datasets::{cancer_network, random_sem, RandomSemConfig};
    use guardrail_dsl::ast::Statement;
    use guardrail_dsl::CompiledProgram;
    use guardrail_pgm::{LearnConfig, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_table(rows: usize) -> Table {
        // zip → city → state with tiny noise, via a hand-built SEM.
        use guardrail_datasets::{DiscreteSem, NodeFunction};
        use guardrail_graph::Dag;
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let sem = DiscreteSem::new(
            dag,
            vec![6, 3, 2],
            vec!["zip".into(), "city".into(), "state".into()],
            vec![
                NodeFunction::Root { probs: vec![1.0 / 6.0; 6] },
                NodeFunction::Deterministic { table: vec![0, 0, 1, 1, 2, 2], noise: 0.01 },
                NodeFunction::Deterministic { table: vec![0, 0, 1], noise: 0.01 },
            ],
        );
        let mut rng = StdRng::seed_from_u64(42);
        sem.sample(rows, &mut rng)
    }

    fn config() -> SynthesisConfig {
        SynthesisConfig {
            learn: LearnConfig { aux_pairs: 20_000, ..LearnConfig::default() },
            ..SynthesisConfig::default()
        }
    }

    #[test]
    fn synthesizes_chain_structure() {
        let table = chain_table(4000);
        let outcome = synthesize(&table, &config(), &Budget::unlimited());
        assert!(!outcome.program.statements.is_empty(), "no program synthesized");
        assert!(outcome.coverage > 0.9, "coverage = {}", outcome.coverage);
        // The winning program's statements must reflect the chain: city is
        // explained by zip (or vice versa), state by city — never state
        // directly from zip (GNT would be violated).
        for s in &outcome.program.statements {
            assert!(
                !(s.given == vec!["zip".to_string()] && s.on == "state"),
                "non-succinct statement GIVEN zip ON state synthesized"
            );
        }
        assert!(outcome.mec_size >= 1);
    }

    #[test]
    fn detects_injected_errors_end_to_end() {
        let table = chain_table(3000);
        let outcome = synthesize(&table, &config(), &Budget::unlimited());
        let mut dirty = table.clone();
        // Corrupt city on row 7.
        let bad = dirty.get(7, 1).map(|v| match v {
            guardrail_table::Value::Int(i) => guardrail_table::Value::Int((i + 1) % 3),
            other => other,
        });
        dirty.set(7, 1, bad.unwrap()).unwrap();
        let compiled = CompiledProgram::compile(&outcome.program, &dirty).unwrap();
        let rows = compiled.violating_rows(&dirty);
        assert!(rows.contains(&7), "corrupted row not flagged: {rows:?}");
    }

    #[test]
    fn cache_is_effective_across_mec() {
        let table = chain_table(2000);
        let outcome = synthesize(&table, &config(), &Budget::unlimited());
        if outcome.mec_size > 1 {
            assert!(
                outcome.cache_stats.hits > 0,
                "MEC of size {} produced no cache hits",
                outcome.mec_size
            );
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let table = chain_table(1500);
        let seq = synthesize(
            &table,
            &config().with_parallelism(Parallelism::Sequential),
            &Budget::unlimited(),
        );
        for threads in [2, 4, 16] {
            let par = synthesize(
                &table,
                &config().with_parallelism(Parallelism::threads(threads)),
                &Budget::unlimited(),
            );
            assert_eq!(seq.program, par.program, "{threads} threads");
            assert_eq!(seq.coverage, par.coverage, "{threads} threads");
        }
        // The cached fills are exactly the direct fills of the chosen sketch.
        let sketch = ProgramSketch::from_dag(seq.chosen_dag.as_ref().expect("non-empty MEC"));
        let direct: Vec<Statement> = sketch
            .statements
            .iter()
            .filter_map(|s| {
                fill_statement_sketch(&table, s, config().epsilon, &Budget::unlimited()).unwrap()
            })
            .map(|f| f.statement)
            .collect();
        assert_eq!(seq.program.statements, direct);
    }

    #[test]
    fn unlimited_budget_runs_complete() {
        let table = chain_table(1000);
        let outcome = synthesize(&table, &config(), &Budget::unlimited());
        assert!(outcome.degradation.is_complete());
        assert!(!outcome.truncated);
    }

    #[test]
    fn zero_budget_degrades_to_valid_outcome() {
        let table = chain_table(500);
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let outcome = synthesize(&table, &config(), &budget);
        assert!(!outcome.degradation.is_complete());
        // No DAG survives a dead budget, so the anytime result is empty —
        // but it is a result, not a panic or an error.
        assert!(outcome.program.statements.is_empty());
        assert_eq!(outcome.coverage, 0.0);
    }

    #[test]
    fn non_extendable_pdag_is_a_degradation() {
        // A directed 3-cycle has no consistent DAG extension, so enumeration
        // completes with no DAG and the fit's empty program is flagged.
        let table = chain_table(300);
        let mut cycle = Pdag::new(3);
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            cycle.add_directed(u, v);
        }
        let outcome = synthesize_from_cpdag(&table, &cycle, &config(), &Budget::unlimited());
        assert_eq!(outcome.mec_size, 0);
        assert!(!outcome.truncated);
        assert!(outcome.program.statements.is_empty());
        assert!(!outcome.degradation.is_complete());
        let d = &outcome.degradation.stages[0];
        assert_eq!((d.stage, d.reason), ("mec_enumeration", ExhaustionReason::NotExtendable));
        assert_eq!(outcome.report.degradations.len(), 1);
    }

    #[test]
    fn work_capped_budget_yields_subset_quality() {
        // At a fixed CPDAG, a budget can only drop DAGs from the argmax or
        // truncate fills (scored with skipped statements as zeros), so the
        // degraded coverage never exceeds the unbudgeted optimum.
        let table = chain_table(1500);
        let unlimited = Budget::unlimited();
        let cpdag = learn_cpdag(&table, &config().learn, Parallelism::Auto, &unlimited).cpdag;
        let full = synthesize_from_cpdag(&table, &cpdag, &config(), &Budget::unlimited());
        for cap in [1, 10, 1000, 100_000] {
            let budget = Budget::with_work_cap(cap);
            let degraded = synthesize_from_cpdag(&table, &cpdag, &config(), &budget);
            assert!(
                degraded.coverage <= full.coverage + 1e-12,
                "cap {cap}: degraded coverage {} > full {}",
                degraded.coverage,
                full.coverage
            );
        }
    }

    #[test]
    fn cancer_network_synthesis() {
        let sem = cancer_network(0.97);
        let mut rng = StdRng::seed_from_u64(9);
        let table = sem.sample(6000, &mut rng);
        let outcome = synthesize(&table, &config(), &Budget::unlimited());
        // The near-deterministic symptom links (cancer → xray, cancer → dysp)
        // should be discovered.
        let constrained: Vec<&str> =
            outcome.program.statements.iter().map(|s| s.on.as_str()).collect();
        assert!(
            constrained.contains(&"xray") || constrained.contains(&"dysp"),
            "no symptom constraint found; got {constrained:?}"
        );
    }

    #[test]
    fn random_sem_synthesis_is_deterministic() {
        let sem = random_sem(&RandomSemConfig { attrs: 6, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(3);
        let table = sem.sample(2000, &mut rng);
        let a = synthesize(&table, &config(), &Budget::unlimited());
        let b = synthesize(&table, &config(), &Budget::unlimited());
        assert_eq!(a.program, b.program);
    }

    #[test]
    fn identity_sampler_option_works() {
        let table = chain_table(3000);
        let cfg = SynthesisConfig {
            learn: LearnConfig { sampler: Sampler::Identity, ..LearnConfig::default() },
            ..SynthesisConfig::default()
        };
        let outcome = synthesize(&table, &cfg, &Budget::unlimited());
        // Low-cardinality chain is learnable even on raw data.
        assert!(outcome.coverage > 0.5, "coverage = {}", outcome.coverage);
    }
}
