//! The `guardrail` command-line tool.
//!
//! ```text
//! guardrail synth <clean.csv> [--store <dir>] [--epsilon E] [--budget-ms MS]
//!                  [--max-work N] [--threads T] [--output constraints.gr]
//!                  [--report] [--trace-out trace.json]
//! guardrail check <data.csv> [--store <dir>] --constraints <constraints.gr>
//!                  [--report] [--trace-out trace.json]
//! guardrail repair <data.csv> --constraints <constraints.gr>
//!                  [--scheme coerce|rectify] [--output fixed.csv]
//! guardrail ingest <data.csv> --store <dir> [--report]
//! guardrail structure <data.csv>
//! ```
//!
//! Constraints are stored in the DSL's text syntax, so the files produced by
//! `synth` are human-readable and hand-editable, and anything parseable by
//! `guardrail_dsl::parse_program` can be fed back to `check` / `repair`.
//!
//! `ingest` loads a CSV into a persistent store (columnar segment + WAL);
//! `synth`/`check` then run off that store via `--store <dir>` instead of a
//! CSV path.
//!
//! `--report` prints the pipeline's stage-tree report (wall times, work
//! units, cache hit ratios, degradations) to stderr. `--trace-out FILE`
//! records the run's span and counter events and writes a Chrome-trace
//! JSON file that loads directly into Perfetto / `chrome://tracing`.

use guardrail::governor::ExhaustionReason;
use guardrail::obs;
use guardrail::prelude::*;
use guardrail::server::daemon::parse_flags;
use std::io::{self, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("synth") => cmd_synth(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("repair") => cmd_repair(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("structure") => cmd_structure(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => guardrail::server::daemon::run(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
guardrail — integrity constraint synthesis from noisy data

USAGE:
  guardrail synth <clean.csv> [--store <dir>] [--epsilon E] [--budget-ms MS] [--max-work N] [--threads T] [--output constraints.gr] [--report] [--trace-out trace.json]
  guardrail check <data.csv> [--store <dir>] --constraints <constraints.gr> [--report] [--trace-out trace.json]
  guardrail repair <data.csv> --constraints <constraints.gr> [--scheme coerce|rectify] [--output fixed.csv]
  guardrail ingest <data.csv> --store <dir> [--report]
  guardrail structure <data.csv>
  guardrail query <data.csv> --sql <statement> [--explain] [--analyze] [--no-pushdown]
  guardrail serve --listen <addr> [the guardrail-server daemon flags]

`synth` is anytime: --budget-ms caps wall-clock time and --max-work caps work
units; on exhaustion it emits the best program found so far and reports which
pipeline stage was cut short. --threads pins the worker count (default: one
per hardware thread; without a work cap, results are identical either way).
`check` exits 0 when the data is violation-free, 1 when violations were found, and
3 when the data lacks a GIVEN/ON column of some statement (named on stderr; the
statements that bind still run, and `repair` applies those and warns the same way).
`ingest` loads a CSV into a persistent store (columnar segment + WAL);
`synth`/`check` accept --store <dir> in place of the CSV path to run off a
store ingested earlier. `serve` with --store-root enables the append /
detect_batch verbs against stores under that root.
`query` runs SQL against the CSV (registered under its file stem, so
`data.csv` is queried as `FROM data`); --explain prints the optimized plan
and the rewrites that fired, --analyze runs the query and appends the
execution counters, and --no-pushdown is the naive-plan ablation.
`--report` prints the pipeline stage tree (wall times, cache ratios,
degradations) to stderr, followed by the run's metric series (Prometheus
text format) when any were recorded; `--trace-out FILE` writes a
Chrome-trace JSON of the run, openable in Perfetto.
`serve` starts the multi-tenant serving daemon (newline-delimited JSON over
TCP: fit/detect/rectify/vet/status/metrics/shutdown); it is the daemon of the
standalone `guardrail-server` binary and takes the same flags (quotas,
deadlines, frame and timeout limits, --trace-out, --metrics-out; see
`guardrail-server --help`). See DESIGN.md §4.";

/// Arms the metrics registry when `--report` was asked for, so the stage
/// tree can be followed by whatever metric series the run recorded
/// (store append/fsync latency, incremental probe sizes, optimizer rule
/// counts, …). A plain run stays disarmed — zero metrics overhead.
fn arm_report_metrics(report: bool) {
    if report {
        obs::arm_metrics(true);
    }
}

/// Prints the run's metric series to stderr in Prometheus text format,
/// under a header, when any were recorded.
fn report_metrics() {
    if obs::metrics::series_count() > 0 {
        eprintln!("-- metrics --");
        eprint!("{}", obs::metrics::render_prometheus());
    }
}

/// Writes `text` to stdout. A reader that closed the pipe (`guardrail check
/// … | head -1`) ends the output early: not an error, so the command keeps
/// its exit code.
fn print_out(text: &str) -> Result<(), String> {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("writing to stdout: {e}")),
        _ => Ok(()),
    }
}

/// Names each statement the data does not bind on stderr.
fn warn_unbound(unbound: &[guardrail::dsl::Unbound], not_done: &str) {
    for u in unbound {
        eprintln!("warning: statement {} {not_done}: data lacks {:?}", u.statement, u.missing);
    }
}

fn load_table(path: &str) -> Result<Table, String> {
    Table::from_csv_path(path).map_err(|e| format!("reading {path:?}: {e}"))
}

fn load_constraints(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    parse_program(&text).map_err(|e| format!("parsing {path:?}: {e}"))
}

/// A command's data input: an in-memory CSV load or a persistent store.
enum Input {
    Mem(Table),
    Store(TableStore),
}

impl Input {
    /// Resolves the positional-CSV / `--store` choice: exactly one of the
    /// two must be given. Opening a store replays its WAL, so the view is
    /// current as of the last durable append.
    fn load(pos: &[String], store: &Option<String>, cmd: &str) -> Result<Input, String> {
        match (pos, store) {
            ([path], None) => Ok(Input::Mem(load_table(path)?)),
            ([], Some(dir)) => {
                let store =
                    TableStore::open(dir).map_err(|e| format!("opening store {dir:?}: {e}"))?;
                Ok(Input::Store(store))
            }
            _ => Err(format!("{cmd} needs exactly one CSV path or --store <dir>")),
        }
    }

    fn table(&self) -> &Table {
        match self {
            Input::Mem(t) => t,
            Input::Store(s) => s.table(),
        }
    }
}

fn cmd_synth(args: &[String]) -> Result<ExitCode, String> {
    let (pos, flags, switches) = parse_flags(
        args,
        &[
            "--epsilon",
            "--output",
            "--budget-ms",
            "--max-work",
            "--threads",
            "--trace-out",
            "--store",
        ],
        &["--report"],
    )?;
    let input = Input::load(&pos, &flags[6], "synth")?;
    let mut config = GuardrailConfig::default();
    if let Some(e) = &flags[0] {
        let eps: f64 = e.parse().map_err(|_| "bad --epsilon")?;
        let eps = GuardrailConfig::check_epsilon(eps).map_err(|e| format!("bad --epsilon: {e}"))?;
        config = config.with_epsilon(eps);
    }
    let deadline = flags[2]
        .as_ref()
        .map(|v| v.parse::<u64>().map_err(|_| "bad --budget-ms"))
        .transpose()?
        .map(std::time::Duration::from_millis);
    let work_cap =
        flags[3].as_ref().map(|v| v.parse::<u64>().map_err(|_| "bad --max-work")).transpose()?;
    let budget = match (deadline, work_cap) {
        (Some(d), Some(w)) => Budget::with_deadline_and_work_cap(d, w),
        (Some(d), None) => Budget::with_deadline(d),
        (None, Some(w)) => Budget::with_work_cap(w),
        (None, None) => Budget::unlimited(),
    };
    if let Some(t) = &flags[4] {
        let threads: usize = t.parse().map_err(|_| "bad --threads")?;
        config = config.with_parallelism(Parallelism::threads(threads));
    }
    let trace = flags[5].clone().map(obs::TraceFile::start);
    arm_report_metrics(switches[0]);
    let guard = Guardrail::builder()
        .config(config)
        .budget(budget)
        .fit(input.table())
        .map_err(|e| e.to_string())?;
    if let Some(trace) = trace {
        trace.finish()?;
    }
    let text = guard.program().to_string();
    eprintln!(
        "synthesized {} statement(s) / {} branch(es), coverage {:.3}, MEC size {}",
        guard.program().statements.len(),
        guard.program().num_branches(),
        guard.coverage(),
        guard.outcome().mec_size,
    );
    let oracle = guard.outcome().oracle_cache;
    let stmt = guard.outcome().cache_stats;
    eprintln!(
        "caches: CI stats {} hit(s) / {} miss(es), statements {} hit(s) / {} miss(es)",
        oracle.result_hits, oracle.result_misses, stmt.hits, stmt.misses,
    );
    // Degradations come out of the fit's structured report. Scripts match
    // "budget exhausted", so a budget cut keeps that wording; a PDAG with no
    // DAG extension is not a budget cut and says so.
    if !guard.report().is_complete() {
        let stages = &guard.degradation().stages;
        let cut = stages.iter().any(|d| d.reason != ExhaustionReason::NotExtendable);
        let why = if cut { "budget exhausted" } else { "no DAG in the learned MEC" };
        eprintln!("{why} — emitting best program found so far:");
        eprintln!("{}", guard.degradation());
    }
    if switches[0] {
        eprint!("{}", guard.report());
        report_metrics();
    }
    match &flags[1] {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!("constraints written to {path}");
        }
        None => print_out(&text)?,
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let (pos, flags, switches) =
        parse_flags(args, &["--constraints", "--trace-out", "--store"], &["--report"])?;
    let constraints = flags[0].as_ref().ok_or("check needs --constraints <file>")?;
    let input = Input::load(&pos, &flags[2], "check")?;
    let guard = Guardrail::from_program(load_constraints(constraints)?);
    let trace = flags[1].clone().map(obs::TraceFile::start);
    arm_report_metrics(switches[0]);
    let detect_clock = std::time::Instant::now();
    let report = guard.detect(input.table());
    let detect_ns = detect_clock.elapsed().as_nanos() as u64;
    if let Some(trace) = trace {
        trace.finish()?;
    }
    if switches[0] {
        // Serving-side stage report: detection timing plus how many
        // statements look each row up in more than one decision table.
        let legacy = guard.compiled().legacy_statement_count();
        let stage = StageReport::new("check_table")
            .wall_ns(detect_ns)
            .metric("rows", report.rows_checked)
            .metric("violations", report.violations.len())
            .metric("engine_fallback_statements", legacy);
        eprint!("{}", PipelineReport::new().stage(stage));
        report_metrics();
    }
    let mut lines = String::new();
    for v in &report.violations {
        let (row, attr, statement) = (v.row, &v.attribute, v.statement);
        let (actual, expected) = (v.actual.to_string(), v.expected.to_string());
        lines += &format!(
            "row {row}: {attr} = {actual:?} violates statement {statement} (expected {expected:?})\n"
        );
    }
    print_out(&lines)?;
    eprintln!(
        "{} violation(s) on {} of {} rows",
        report.violations.len(),
        report.dirty_rows().len(),
        report.rows_checked
    );
    warn_unbound(&report.unbound, "not checked");
    let code = if report.unbound.is_empty() { u8::from(!report.violations.is_empty()) } else { 3 };
    Ok(ExitCode::from(code))
}

fn cmd_repair(args: &[String]) -> Result<ExitCode, String> {
    let (pos, flags, _) = parse_flags(args, &["--constraints", "--scheme", "--output"], &[])?;
    let [data_path] = pos.as_slice() else {
        return Err("repair needs exactly one CSV path".into());
    };
    let constraints = flags[0].as_ref().ok_or("repair needs --constraints <file>")?;
    let scheme = match flags[1].as_deref() {
        None | Some("rectify") => ErrorScheme::Rectify,
        Some("coerce") => ErrorScheme::Coerce,
        Some(other) => return Err(format!("unknown scheme {other:?} (coerce|rectify)")),
    };
    let table = load_table(data_path)?;
    let guard = Guardrail::from_program(load_constraints(constraints)?);
    let (fixed, report) = guard.apply(&table, scheme);
    eprintln!(
        "{} violation(s); {} cell(s) changed by {:?}",
        report.violations.len(),
        report.cells_changed,
        scheme
    );
    warn_unbound(&report.unbound, "not applied");
    match &flags[2] {
        Some(path) => {
            fixed.write_csv_path(path).map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!("repaired table written to {path}");
        }
        None => print_out(&fixed.to_csv_string())?,
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_ingest(args: &[String]) -> Result<ExitCode, String> {
    let (pos, flags, switches) = parse_flags(args, &["--store"], &["--report"])?;
    let [data_path] = pos.as_slice() else {
        return Err("ingest needs exactly one CSV path".into());
    };
    let store_dir = flags[0].as_ref().ok_or("ingest needs --store <dir>")?;
    arm_report_metrics(switches[0]);
    let clock = std::time::Instant::now();
    let table = load_table(data_path)?;
    let rows = table.num_rows();
    let created = !TableStore::exists(store_dir);
    // A fresh store holds every row in its base segment (a header-only CSV
    // pins just the schema); an existing one gains the file as one WAL batch.
    let store = if created {
        TableStore::create(store_dir, table)
    } else {
        TableStore::open(store_dir).and_then(|mut store| store.append_table(&table).map(|_| store))
    };
    let store = store.map_err(|e| format!("ingesting {data_path:?} into {store_dir:?}: {e}"))?;
    let (rows_total, wal_batches) = (store.table().num_rows(), store.wal_batches().len());
    eprintln!(
        "{} {store_dir}: {rows} row(s); store now {rows_total} row(s), {wal_batches} WAL batch(es)",
        if created { "created" } else { "appended to" },
    );
    if switches[0] {
        let stage = StageReport::new("ingest")
            .wall_ns(clock.elapsed().as_nanos() as u64)
            .metric("rows_ingested", rows)
            .metric("rows_total", rows_total)
            .metric("wal_batches", wal_batches);
        eprint!("{}", PipelineReport::new().stage(stage));
        report_metrics();
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_query(args: &[String]) -> Result<ExitCode, String> {
    let (pos, flags, switches) =
        parse_flags(args, &["--sql"], &["--explain", "--analyze", "--no-pushdown"])?;
    let [data_path] = pos.as_slice() else {
        return Err("query needs exactly one CSV path".into());
    };
    let sql = flags[0].as_ref().ok_or("query needs --sql <statement>")?;
    let table = load_table(data_path)?;
    let name = std::path::Path::new(data_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("t")
        .to_string();
    let mut catalog = Catalog::new();
    catalog.add_table(&name, table);
    let mut exec = Executor::new(&catalog);
    if switches[2] {
        exec = exec.with_pushdown(false);
    }
    if switches[0] {
        print_out(&exec.explain(sql).map_err(|e| e.to_string())?)?;
        return Ok(ExitCode::SUCCESS);
    }
    if switches[1] {
        print_out(&exec.explain_analyze(sql).map_err(|e| e.to_string())?)?;
        return Ok(ExitCode::SUCCESS);
    }
    let out = exec.run(sql).map_err(|e| e.to_string())?;
    print_out(&out.table.to_csv_string())?;
    eprint!("{}", out.stats);
    Ok(ExitCode::SUCCESS)
}

fn cmd_structure(args: &[String]) -> Result<ExitCode, String> {
    let (pos, _, _) = parse_flags(args, &[], &[])?;
    let [data_path] = pos.as_slice() else {
        return Err("structure needs exactly one CSV path".into());
    };
    let table = load_table(data_path)?;
    let unlimited = Budget::unlimited();
    let cpdag =
        guardrail::pgm::learn_cpdag(&table, &Default::default(), Parallelism::Auto, &unlimited)
            .cpdag;
    let name = |i: usize| table.schema().field(i).map(|f| f.name().to_string()).unwrap_or_default();
    let mut text = format!("learned CPDAG over {} attributes:\n", cpdag.num_nodes());
    for (u, v) in cpdag.directed_edges() {
        text += &format!("  {} -> {}\n", name(u), name(v));
    }
    for (u, v) in cpdag.undirected_edges() {
        text += &format!("  {} -- {}\n", name(u), name(v));
    }
    print_out(&text)?;
    Ok(ExitCode::SUCCESS)
}
