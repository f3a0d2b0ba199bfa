//! `serve_read`: a pipeline stage calling the daemon.
//!
//! The server runs in process on `127.0.0.1:0`; set-up `fit`s it over the
//! wire on 8,000 #10 rows. Ops follow a seeded sequence over a dirty
//! held-out pool: 50% `detect`, 30% `vet`, 20% `rectify`, with payloads of
//! 16 (60%), 128 (30%) or 1,024 (10%) rows. The mix is exact in every run;
//! the seed sets the order, the payload rows and the data.

use crate::data::{stratified, sub_seed};
use crate::serve::{medians_by_rows, parse_ok, request_line, ServeData, Served, POOL_ROWS};
use crate::trace::Tracer;
use crate::{RunConfig, Workload};
use guardrail_core::ErrorScheme;
use guardrail_dsl::CompiledProgram;
use guardrail_governor::Parallelism;
use guardrail_server::handlers;
use guardrail_server::parse_request;
use guardrail_server::proto::violations_jval;
use guardrail_server::JVal;
use guardrail_table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Fixed op rate behind the op count.
const OPS_PER_SECOND: f64 = 285.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verb {
    Detect,
    Vet,
    Rectify,
}

impl Verb {
    fn wire(self) -> &'static str {
        match self {
            Verb::Detect => "detect",
            Verb::Vet => "vet",
            Verb::Rectify => "rectify",
        }
    }
}

#[derive(Clone, Copy)]
struct OpSpec {
    verb: Verb,
    start: usize,
    rows: usize,
}

pub struct ServeRead {
    data: Rc<ServeData>,
    served: Served,
    ops: Vec<OpSpec>,
    req_bytes: u64,
    resp_bytes: u64,
    /// Latency of each successful op, by payload rows.
    by_rows: BTreeMap<usize, Vec<f64>>,
}

/// The in-process answer for `verb` on `csv`, rendered as the members the
/// server's response line must hold: `(field, "key":value)` for the row
/// count, the violations and, for the verbs that return one, the output
/// CSV. Matching rendered members keeps the check exact without parsing
/// each response, which for a 1,024-row echo costs as much as the op.
fn expected(
    data: &ServeData,
    verb: Verb,
    csv: &str,
) -> Result<Vec<(&'static str, String)>, String> {
    let table = Table::from_csv_str(csv).map_err(|e| format!("payload: {e}"))?;
    let rows = table.num_rows();
    let (violations, out_csv) = match verb {
        Verb::Detect => (data.guard.detect(&table).violations, None),
        Verb::Rectify => {
            let (fixed, report) = data.guard.apply(&table, ErrorScheme::Rectify);
            (report.violations, Some(fixed.to_csv_string()))
        }
        Verb::Vet => {
            let all: Vec<usize> = (0..rows).collect();
            let vetted = data
                .guard
                .vet_rows(&table, &all, ErrorScheme::Rectify)
                .ok_or("program does not bind to the payload")?;
            (vetted.violations, Some(vetted.table.to_csv_string()))
        }
    };
    let mut members = vec![
        ("rows", format!(",\"rows\":{rows},")),
        ("violations", format!(",\"violations\":{},", violations_jval(&violations).to_json())),
    ];
    if let Some(out) = out_csv {
        members.push(("csv", format!(",\"csv\":{},", JVal::Str(out).to_json())));
    }
    Ok(members)
}

impl ServeRead {
    /// Replays the server's work for one request through each layer's
    /// public functions, each under its own span.
    fn replay(&self, tr: &mut Tracer, verb: Verb, line: &str, csv: &str) -> Result<(), String> {
        let req = tr.span("server.parse_request", || parse_request(line)).map_err(|e| e.message)?;
        let ctx = self.served.handle().ctx();
        black_box(tr.span("server.handle", || handlers::handle(ctx, &req)));
        let table = tr
            .span("table.csv_decode", || Table::from_csv_str(csv))
            .map_err(|e| format!("payload: {e}"))?;
        let compiled = tr
            .span("dsl.compile", || CompiledProgram::compile(self.data.guard.program(), &table))
            .map_err(|e| format!("compile: {e}"))?;
        let (violations, fixed) = tr.span("dsl.scan", || {
            let violations = compiled.check_table_parallel(&table, Parallelism::Auto);
            let fixed = (verb != Verb::Detect).then(|| {
                let mut out = table.clone();
                compiled.rectify_table_parallel(&mut out, Parallelism::Auto);
                out
            });
            (violations, fixed)
        });
        black_box(tr.span("core.render", || {
            (violations_jval(&violations).to_json(), fixed.map(|t| t.to_csv_string()))
        }));
        Ok(())
    }
}

impl Workload for ServeRead {
    type Input = Rc<ServeData>;

    const PASSES: usize = 6;
    const WARMUP: usize = 100;

    fn op_count(seconds: u64) -> usize {
        let per_pass = (seconds as f64 * OPS_PER_SECOND / Self::PASSES as f64).round() as usize;
        per_pass.max(100) * Self::PASSES
    }

    fn prepare(cfg: &RunConfig) -> Result<Rc<ServeData>, String> {
        ServeData::new(cfg.seed).map(Rc::new)
    }

    fn setup(cfg: &RunConfig, data: &Rc<ServeData>) -> Result<Self, String> {
        let data = Rc::clone(data);
        let mut served = Served::spawn()?;
        data.fit_over_wire(&mut served)?;
        let mut rng = StdRng::seed_from_u64(sub_seed(cfg.seed, 0x5EAD));
        let mut cells = Vec::new();
        for (verb, verb_share) in [(Verb::Detect, 0.5), (Verb::Vet, 0.3), (Verb::Rectify, 0.2)] {
            for (rows, rows_share) in [(16, 0.6), (128, 0.3), (1024, 0.1)] {
                cells.push(((verb, rows), verb_share * rows_share));
            }
        }
        let ops = stratified(Self::op_count(cfg.seconds), &cells, &mut rng)
            .into_iter()
            .map(|(verb, rows)| OpSpec { verb, start: rng.gen_range(0..=POOL_ROWS - rows), rows })
            .collect();
        Ok(ServeRead { data, served, ops, req_bytes: 0, resp_bytes: 0, by_rows: BTreeMap::new() })
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<f64, String> {
        let spec = self.ops[i];
        let csv = self.data.pool.payload(spec.start, spec.rows);
        let line = request_line(spec.verb.wire(), Some(&csv));
        tr.open("server.round_trip");
        let t0 = Instant::now();
        let response = self.served.call(&line);
        let elapsed = t0.elapsed();
        tr.close();
        let response = response?;
        if tr.enabled() {
            self.replay(tr, spec.verb, &line, &csv)?;
            self.req_bytes += line.len() as u64 + 1;
            self.resp_bytes += response.len() as u64 + 1;
        }

        // Check against in-process `Guardrail` calls on the same payload.
        let ok = format!("{{\"ok\":true,\"op\":\"{}\",", spec.verb.wire());
        if !response.starts_with(&ok) {
            parse_ok(&response)?;
            return Err(format!("op {i}: response does not start with {ok}"));
        }
        for (field, member) in expected(&self.data, spec.verb, &csv)? {
            if !response.contains(&member) {
                return Err(format!(
                    "op {i} ({}): {field} differs from the in-process answer",
                    spec.verb.wire()
                ));
            }
        }
        let ms = elapsed.as_secs_f64() * 1e3;
        self.by_rows.entry(spec.rows).or_default().push(ms);
        Ok(ms)
    }

    fn finish(&mut self) -> Result<Vec<String>, String> {
        let count = |v: Verb| self.ops.iter().filter(|o| o.verb == v).count();
        Ok(vec![
            format!(
                "ops: {} detect / {} vet / {} rectify",
                count(Verb::Detect),
                count(Verb::Vet),
                count(Verb::Rectify)
            ),
            format!("by payload size: {}", medians_by_rows(&self.by_rows)),
        ])
    }

    fn layers(&self, tr: &Tracer, ops: usize) -> BTreeMap<&'static str, f64> {
        let self_ns = tr.self_times_ns();
        let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops as f64;
        BTreeMap::from([
            ("server.parse_request_ms", ms("server.parse_request")),
            ("server.handle_ms", ms("server.handle")),
            (
                "server.wire_ms",
                ms("server.round_trip") - ms("server.parse_request") - ms("server.handle"),
            ),
            ("server.req_bytes", self.req_bytes as f64 / ops as f64),
            ("server.resp_bytes", self.resp_bytes as f64 / ops as f64),
            ("table.csv_decode_ms", ms("table.csv_decode")),
            ("dsl.compile_ms", ms("dsl.compile")),
            ("dsl.scan_ms", ms("dsl.scan")),
            ("core.render_ms", ms("core.render")),
        ])
    }

    fn accounting() -> &'static [&'static str] {
        &["server.parse_request_ms", "server.handle_ms", "server.wire_ms"]
    }
}
