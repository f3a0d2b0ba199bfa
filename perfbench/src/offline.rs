//! `offline_synth`: the CLI user's *synth then check*.
//!
//! One op decodes a dataset's training CSV bytes, fits, renders the program
//! text, then decodes a dirty copy, compiles against it, detects, and
//! renders the violation lines. Datasets cycle in a fixed order: the SEMs of
//! paper datasets #1, #8, #10 and #12 at a quarter of their paper row
//! counts, and the chain table at 50,000 rows. Each run samples [`DRAWS`]
//! independent draws of every dataset from its seed and visits each draw
//! several times, so that no single draw sets the figures: the #1 and #10
//! SEMs yield an empty program on some draws.

use crate::data::{chain_table, dirty_copy, sem_table, sub_seed};
use crate::trace::Tracer;
use crate::{RunConfig, Workload};
use guardrail_core::Guardrail;
use guardrail_dsl::{CompiledProgram, Violation};
use guardrail_governor::Parallelism;
use guardrail_table::Table;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Paper datasets (id, paper row count) sampled for this workload.
const DATASETS: [(u8, usize); 4] = [(1, 48_842), (8, 44_819), (10, 45_211), (12, 36_275)];
/// Each paper dataset is sampled at its paper row count divided by this.
const ROW_DIVISOR: usize = 4;
const CHAIN_ROWS: usize = 50_000;
const DATASETS_PER_ROUND: usize = DATASETS.len() + 1;
/// Independent data draws per run; round `r` uses draw `r % DRAWS`.
const DRAWS: usize = 6;

/// Fixed op rate behind the op count: about the mean op rate on the
/// 2-vCPU reference host.
const OPS_PER_SECOND: f64 = 11.0;

struct Case {
    train_csv: Vec<u8>,
    dirty_csv: Vec<u8>,
    /// Program text of this dataset's first fit in the run.
    first_text: Option<String>,
    /// Rendered violation lines of the reference interpreter on the dirty
    /// copy, computed once, after the first op on this dataset.
    reference_lines: Option<Vec<String>>,
    statements: usize,
    branches: usize,
    latencies_ms: Vec<f64>,
}

pub struct OfflineSynth {
    cases: Vec<Case>,
    // Figures the program returns, summed over a traced loop.
    structure_learning_ns: u64,
    mec_enumeration_ns: u64,
    sketch_fill_ns: u64,
    ci_hits: u64,
    ci_lookups: u64,
    stmt_hits: u64,
    stmt_lookups: u64,
    branches: u64,
}

/// One violation line, in the CLI's `check` format.
fn render_line(v: &Violation) -> String {
    format!(
        "row {}: {} = {:?} violates statement {} (expected {:?})",
        v.row,
        v.attribute,
        v.actual.to_string(),
        v.statement,
        v.expected.to_string()
    )
}

fn render_lines(violations: &[Violation]) -> Vec<String> {
    violations.iter().map(render_line).collect()
}

fn decode(bytes: &[u8]) -> Result<Table, String> {
    Table::from_csv_bytes(bytes).map_err(|e| format!("csv decode: {e}"))
}

impl Workload for OfflineSynth {
    /// Clean and dirty table of every (draw, dataset) case, in op order.
    type Input = Vec<(Table, Table)>;

    const PASSES: usize = 2;
    /// One op on every dataset of the first draw.
    const WARMUP: usize = DATASETS_PER_ROUND;

    fn op_count(seconds: u64) -> usize {
        // Whole rounds over every draw of every dataset, so each weighs the
        // same, and the same number of rounds in every pass.
        let round = DATASETS_PER_ROUND * DRAWS * Self::PASSES;
        let rounds = (seconds as f64 * OPS_PER_SECOND / round as f64).round() as usize;
        rounds.max(1) * round
    }

    fn prepare(cfg: &RunConfig) -> Result<Self::Input, String> {
        let mut cases = Vec::with_capacity(DATASETS_PER_ROUND * DRAWS);
        for draw in 0..DRAWS {
            let seed = sub_seed(cfg.seed, 0xD7A0 + draw as u64);
            let mut tables: Vec<Table> = DATASETS
                .iter()
                .map(|&(id, rows)| sem_table(id, rows / ROW_DIVISOR, seed).0)
                .collect();
            tables.push(chain_table(CHAIN_ROWS, seed));
            for (i, clean) in tables.into_iter().enumerate() {
                let dirty = dirty_copy(&clean, None, seed ^ i as u64);
                cases.push((clean, dirty));
            }
        }
        Ok(cases)
    }

    /// Renders every case's clean and dirty CSV: the files the CLI user
    /// has on disk.
    fn setup(_cfg: &RunConfig, input: &Self::Input) -> Result<Self, String> {
        let cases = input
            .iter()
            .map(|(clean, dirty)| Case {
                train_csv: clean.to_csv_string().into_bytes(),
                dirty_csv: dirty.to_csv_string().into_bytes(),
                first_text: None,
                reference_lines: None,
                statements: 0,
                branches: 0,
                latencies_ms: Vec::new(),
            })
            .collect();
        Ok(OfflineSynth {
            cases,
            structure_learning_ns: 0,
            mec_enumeration_ns: 0,
            sketch_fill_ns: 0,
            ci_hits: 0,
            ci_lookups: 0,
            stmt_hits: 0,
            stmt_lookups: 0,
            branches: 0,
        })
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<f64, String> {
        let draw = (i / DATASETS_PER_ROUND) % DRAWS;
        let case_index = draw * DATASETS_PER_ROUND + i % DATASETS_PER_ROUND;
        let case = &self.cases[case_index];
        let t0 = Instant::now();
        let train = tr.span("table.csv_decode", || decode(&case.train_csv))?;
        let guard = tr
            .span("core.fit", || Guardrail::builder().fit(&train))
            .map_err(|e| format!("fit: {e}"))?;
        let text = tr.span("core.render", || guard.program().to_string());
        let dirty = tr.span("table.csv_decode", || decode(&case.dirty_csv))?;
        let compiled = tr
            .span("dsl.compile", || CompiledProgram::compile(guard.program(), &dirty))
            .map_err(|e| format!("compile: {e}"))?;
        let violations =
            tr.span("dsl.scan", || compiled.check_table_parallel(&dirty, Parallelism::Auto));
        let lines = tr.span("core.render", || render_lines(&violations));
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        black_box((&text, &lines));

        if tr.enabled() {
            let report = guard.report();
            let stage_ns = |name: &str| report.find(name).map_or(0, |s| s.wall_ns);
            self.structure_learning_ns += stage_ns("structure_learning");
            self.mec_enumeration_ns += stage_ns("mec_enumeration");
            self.sketch_fill_ns += stage_ns("sketch_fill");
            let outcome = guard.outcome();
            self.ci_hits += outcome.oracle_cache.result_hits;
            self.ci_lookups +=
                outcome.oracle_cache.result_hits + outcome.oracle_cache.result_misses;
            self.stmt_hits += outcome.cache_stats.hits as u64;
            self.stmt_lookups += (outcome.cache_stats.hits + outcome.cache_stats.misses) as u64;
            self.branches += guard.program().num_branches() as u64;
        }

        // Checks against the specification path, outside the timed window.
        let case = &mut self.cases[case_index];
        match &case.first_text {
            None => {
                case.first_text = Some(text);
                case.statements = guard.program().statements.len();
                case.branches = guard.program().num_branches();
            }
            Some(first) if *first != text => {
                return Err(format!(
                    "dataset {case_index}: program text differs from the run's first fit"
                ));
            }
            Some(_) => {}
        }
        if case.reference_lines.is_none() {
            case.reference_lines = Some(render_lines(&compiled.check_table_reference(&dirty)));
        }
        if case.reference_lines.as_ref() != Some(&lines) {
            return Err(format!(
                "dataset {case_index}: {} violation lines differ from the reference interpreter",
                lines.len()
            ));
        }
        case.latencies_ms.push(elapsed_ms);
        Ok(elapsed_ms)
    }

    fn finish(&mut self) -> Result<Vec<String>, String> {
        let names = ["#1", "#8", "#10", "#12", "chain"];
        let lines = names
            .iter()
            .enumerate()
            .map(|(d, name)| {
                let draws: Vec<&Case> =
                    self.cases.iter().skip(d).step_by(DATASETS_PER_ROUND).collect();
                let shapes: Vec<String> =
                    draws.iter().map(|c| format!("{}/{}", c.statements, c.branches)).collect();
                let all: Vec<f64> =
                    draws.iter().flat_map(|c| c.latencies_ms.iter().copied()).collect();
                let p50 = if all.is_empty() { 0.0 } else { crate::median(&all) };
                format!(
                    "{name}: statements/branches per draw {}, p50 {p50:.1} ms",
                    shapes.join(" ")
                )
            })
            .collect();
        Ok(lines)
    }

    fn layers(&self, tr: &Tracer, ops: usize) -> BTreeMap<&'static str, f64> {
        let self_ns = tr.self_times_ns();
        let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops as f64;
        let span = |name: &str| self_ns.get(name).copied().unwrap_or(0);
        let stages = self.structure_learning_ns + self.mec_enumeration_ns + self.sketch_fill_ns;
        let ratio =
            |hits: u64, lookups: u64| if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        BTreeMap::from([
            ("table.csv_decode_ms", per_op_ms(span("table.csv_decode"))),
            ("pgm.structure_learning_ms", per_op_ms(self.structure_learning_ns)),
            ("pgm.ci_cache_hit_rate", ratio(self.ci_hits, self.ci_lookups)),
            ("pgm.ci_cache_lookups", self.ci_lookups as f64 / ops as f64),
            ("synth.mec_enumeration_ms", per_op_ms(self.mec_enumeration_ns)),
            ("synth.sketch_fill_ms", per_op_ms(self.sketch_fill_ns)),
            ("synth.stmt_cache_hit_rate", ratio(self.stmt_hits, self.stmt_lookups)),
            ("synth.stmt_cache_lookups", self.stmt_lookups as f64 / ops as f64),
            ("synth.branches", self.branches as f64 / ops as f64),
            ("core.fit_residual_ms", per_op_ms(span("core.fit").saturating_sub(stages))),
            ("dsl.compile_ms", per_op_ms(span("dsl.compile"))),
            ("dsl.scan_ms", per_op_ms(span("dsl.scan"))),
            ("core.render_ms", per_op_ms(span("core.render"))),
        ])
    }

    fn accounting() -> &'static [&'static str] {
        &[
            "table.csv_decode_ms",
            "pgm.structure_learning_ms",
            "synth.mec_enumeration_ms",
            "synth.sketch_fill_ms",
            "core.fit_residual_ms",
            "core.render_ms",
            "dsl.compile_ms",
            "dsl.scan_ms",
        ]
    }
}
