//! End-to-end benchmark of the Guardrail workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//! ```
//!
//! Runs one workload (`offline_synth`, `sql_guarded`, `serve_read`) as a
//! closed loop from this one process: a fixed, seed-determined sequence of
//! operations whose length is set by `--seconds`, never by how fast the code
//! runs. Every operation's output is
//! checked against the specification path; a mismatch counts as a failed
//! operation. The last line of standard output is one JSON object:
//!
//! ```text
//! {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": x, "unit": u}}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones (`setup_s`,
//! `p50_ms`, `tail_ms`, `peak_rss_mb`). With `--trace 1` the run first
//! repeats the untraced loop, then replays the same sequence with a span
//! around each call into a layer's public functions, and prints the
//! per-layer metrics; the spans are written as Chrome-trace JSON. See
//! `README.md` for the workloads and what each metric should move.

mod data;
mod offline;
mod read;
mod serve;
mod sql;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <offline_synth|sql_guarded|serve_read> \
--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// How far the traced loop's layer times plus residuals may miss its mean
/// op latency, as a share of it, before the run counts as incorrect: beyond
/// it the layers no longer explain where the time goes.
const ACCOUNTING_TOLERANCE: f64 = 0.10;

/// Every per-layer metric the traced run prints, with its unit. A layer a
/// workload does not exercise reads 0 on that workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("table.csv_decode_ms", "ms"),
    ("pgm.structure_learning_ms", "ms"),
    ("pgm.ci_cache_hit_rate", "ratio"),
    ("pgm.ci_cache_lookups", "count"),
    ("synth.mec_enumeration_ms", "ms"),
    ("synth.sketch_fill_ms", "ms"),
    ("synth.stmt_cache_hit_rate", "ratio"),
    ("synth.stmt_cache_lookups", "count"),
    ("synth.branches", "count"),
    ("core.fit_residual_ms", "ms"),
    ("dsl.compile_ms", "ms"),
    ("dsl.scan_ms", "ms"),
    ("core.render_ms", "ms"),
    ("server.parse_request_ms", "ms"),
    ("server.handle_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.req_bytes", "bytes"),
    ("server.resp_bytes", "bytes"),
    ("sqlexec.plan_ms", "ms"),
    ("core.vet_ms", "ms"),
    ("ml.predict_ms", "ms"),
    ("sqlexec.exec_residual_ms", "ms"),
    ("sqlexec.rows_vetted_per_scanned", "ratio"),
    ("sqlexec.predicates_pruned", "count"),
    ("sqlexec.fallback_statements", "count"),
];

/// What one run was asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub trace_out: PathBuf,
}

/// One benchmark workload. `prepare` builds what every set-up of a run
/// shares (inputs and reference answers; untimed), `setup` brings the system
/// to ready (timed as `setup_s`), and `run_op` performs operation `i` of the
/// seeded sequence and returns its latency, or why it failed (error, shed,
/// or a mismatch with the specification path).
pub trait Workload: Sized {
    type Input;
    /// Passes the timed op sequence is cut into. Each pass has its own tail
    /// (rank `n - 10` of its `n` ops); `tail_ms` is their median, so one
    /// stall on a shared host moves at most one pass.
    const PASSES: usize;
    /// Ops run before timing starts (ops `0..WARMUP` of the sequence, which
    /// the timed passes run again): they are checked and counted, but their
    /// latencies are not kept.
    const WARMUP: usize;
    /// Length of the op sequence for a run of `seconds`: a fixed rate, so
    /// the work done does not depend on the code's speed. A multiple of
    /// [`Workload::PASSES`].
    fn op_count(seconds: u64) -> usize;
    fn prepare(cfg: &RunConfig) -> Result<Self::Input, String>;
    fn setup(cfg: &RunConfig, input: &Self::Input) -> Result<Self, String>;
    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<f64, String>;
    /// Checks that span the whole run; lines worth printing.
    fn finish(&mut self) -> Result<Vec<String>, String>;
    /// Per-layer metrics of a traced loop of `ops` operations.
    fn layers(&self, tr: &Tracer, ops: usize) -> BTreeMap<&'static str, f64>;
    /// The per-layer metrics that together account for an op's latency.
    fn accounting() -> &'static [&'static str];
}

/// Outcome of driving one op sequence.
struct Outcome {
    /// Latencies of the successful timed ops, one list per pass.
    latencies_ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    final_error: Option<String>,
}

impl Outcome {
    fn all_ms(&self) -> Vec<f64> {
        self.latencies_ms.concat()
    }

    fn mean_ms(&self) -> f64 {
        let all = self.all_ms();
        all.iter().sum::<f64>() / all.len().max(1) as f64
    }
}

/// Runs the warm-up ops (with tracing off, so the traced loop's spans are
/// those of its timed ops only), then the op sequence in `W::PASSES`
/// passes.
fn drive<W: Workload>(w: &mut W, ops: usize, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        latencies_ms: vec![Vec::new(); W::PASSES],
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        final_error: None,
    };
    let record = |out: &mut Outcome, i: usize, outcome: Result<f64, String>, timed: bool| {
        out.attempted += 1;
        match outcome {
            Ok(ms) if timed => out.latencies_ms[i * W::PASSES / ops].push(ms),
            Ok(_) => {}
            Err(msg) => {
                if out.failed < 5 {
                    eprintln!("op {i} failed: {msg}");
                }
                out.failed += 1;
            }
        }
    };
    let mut untraced = Tracer::new(false);
    for i in 0..W::WARMUP.min(ops) {
        let outcome = w.run_op(i, &mut untraced);
        record(&mut out, i, outcome, false);
    }
    for i in 0..ops {
        tr.begin_op(i as u64);
        let outcome = w.run_op(i, tr);
        tr.end_op();
        record(&mut out, i, outcome, true);
    }
    match w.finish() {
        Ok(notes) => out.notes = notes,
        Err(msg) => {
            eprintln!("run check failed: {msg}");
            out.final_error = Some(msg);
        }
    }
    out
}

fn sorted(latencies: &[f64]) -> Vec<f64> {
    let mut v = latencies.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    v
}

fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile with at least ten samples beyond
/// it: the value at 1-based rank `n - 10`. Returns (value, percentile).
fn tail(latencies: &[f64]) -> (f64, f64) {
    let v = sorted(latencies);
    let n = v.len();
    let rank = n.saturating_sub(10).max(1);
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn run<W: Workload>(name: &str, cfg: &RunConfig) -> Result<String, String> {
    let ops = W::op_count(cfg.seconds);
    println!(
        "workload {name}: seed {} ({} ops, closed loop, one client, {} hardware threads)",
        cfg.seed,
        ops,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Untraced loop: set up several times (the last one stays up), then
    // drive the op sequence.
    let input = W::prepare(cfg)?;
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload = None;
    for _ in 0..reps {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(W::setup(cfg, &input)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let untraced = drive(&mut workload, ops, &mut Tracer::new(false));
    drop(workload);
    let rss = peak_rss_mb();
    for note in &untraced.notes {
        println!("{note}");
    }
    if let Some(short) = untraced.latencies_ms.iter().find(|l| l.len() < 11) {
        return Err(format!("only {} ops of a pass succeeded; need at least 11", short.len()));
    }
    let all = untraced.all_ms();
    let p50 = median(&all);
    let tails: Vec<(f64, f64)> = untraced.latencies_ms.iter().map(|l| tail(l)).collect();
    let tail_ms = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    println!(
        "latency over {} samples in {} passes of {} ops: p50 {p50:.3} ms, mean {:.3} ms",
        all.len(),
        W::PASSES,
        ops / W::PASSES,
        untraced.mean_ms()
    );
    println!(
        "tail_ms {tail_ms:.3} ms: median of the passes' p{:.2} {:.3?}",
        tails[0].1,
        tails.iter().map(|t| t.0).collect::<Vec<_>>()
    );

    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut correct = untraced.failed == 0 && untraced.final_error.is_none();
    let mut metrics = Vec::new();
    if cfg.trace {
        let mut workload = W::setup(cfg, &input)?;
        let mut tr = Tracer::new(true);
        let traced = drive(&mut workload, ops, &mut tr);
        let layers = workload.layers(&tr, ops);
        drop(workload);
        attempted += traced.attempted;
        failed += traced.failed;
        correct &= traced.failed == 0 && traced.final_error.is_none();
        if let Some(dir) = cfg.trace_out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        }
        std::fs::write(&cfg.trace_out, tr.chrome_trace())
            .map_err(|e| format!("writing {:?}: {e}", cfg.trace_out))?;
        println!("trace: {} spans written to {}", tr.span_count(), cfg.trace_out.display());

        let untraced_mean = untraced.mean_ms();
        let traced_mean = traced.mean_ms();
        println!(
            "tracing overhead: mean op {traced_mean:.3} ms traced vs {untraced_mean:.3} ms untraced ({:+.3} ms, {:+.1}%)",
            traced_mean - untraced_mean,
            100.0 * (traced_mean - untraced_mean) / untraced_mean
        );
        // The layers must explain the op latency of the loop they were
        // traced in. A residual below zero means the replayed layers took
        // longer than the op itself; it counts as zero, so the positive
        // terms then overshoot. The untraced loop is not the base: it runs
        // seconds apart, and a change in host speed between the two passes
        // would move the share without any layer being missed.
        let covered: f64 =
            W::accounting().iter().map(|m| layers.get(m).copied().unwrap_or(0.0).max(0.0)).sum();
        let share = covered / traced_mean;
        println!(
            "accounting: {} = {covered:.3} ms per op (negative residuals as 0), {:.1}% of the traced mean op latency",
            W::accounting().join(" + "),
            100.0 * share
        );
        if !(1.0 - ACCOUNTING_TOLERANCE..=1.0 + ACCOUNTING_TOLERANCE).contains(&share) {
            eprintln!(
                "accounting check failed: the layers cover {:.1}% of the mean op latency, outside 100 ± {:.0}%",
                100.0 * share,
                100.0 * ACCOUNTING_TOLERANCE
            );
            correct = false;
        }
        println!("{:<36} {:>14}  unit", "per-layer metric", "value");
        for &(metric, unit) in PER_LAYER {
            let value = layers.get(metric).copied().unwrap_or(0.0);
            println!("{metric:<36} {value:>14.4}  {unit}");
            metrics.push(metric_json(metric, value, unit));
        }
    } else {
        let setup = median(&setup_s);
        println!("setup: median {setup:.4} s of {reps} set-ups {setup_s:.4?}");
        println!("peak RSS: {rss:.1} MB");
        metrics.push(metric_json("setup_s", setup, "s"));
        metrics.push(metric_json("p50_ms", p50, "ms"));
        metrics.push(metric_json("tail_ms", tail_ms, "ms"));
        metrics.push(metric_json("peak_rss_mb", rss, "MB"));
    }
    if !correct {
        eprintln!("{failed} of {attempted} ops failed or a run check failed");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed {value:?}"))?)
            }
            "--seconds" => {
                seconds =
                    Some(value.parse::<u64>().map_err(|_| format!("bad --seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let seed = seed.ok_or("missing --seed")?;
    let trace = trace.ok_or("missing --trace")?;
    // Trace files live in the benchmark's own directory.
    let own_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let trace_out = trace_out
        .unwrap_or_else(|| own_dir.join("out").join(format!("{workload}-{seed}.trace.json")));
    Ok((workload, RunConfig { seed, seconds, trace, trace_out }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "offline_synth" => run::<offline::OfflineSynth>(&workload, &cfg),
        "sql_guarded" => run::<sql::SqlGuarded>(&workload, &cfg),
        "serve_read" => run::<read::ServeRead>(&workload, &cfg),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
