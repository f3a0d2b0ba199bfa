//! Request execution: admission → budget → verb, with typed errors.
//!
//! Every admitted verb runs under a [`Budget`] whose deadline is the
//! client's `deadline_ms` clamped to the server maximum (or the server
//! default when absent). A deadline that is already exhausted — zero, or
//! spent while shed-retrying — produces `BUDGET_EXHAUSTED` *before* any
//! work runs; a deadline that expires mid-verb degrades the response
//! (`"status": "degraded"` plus a serialized [`DegradationReport`]) rather
//! than abandoning it.

use crate::admission::{Admission, AdmissionDecision, Permit};
use crate::proto::{self, ErrorKind, JVal, Op, Request, WireError};
use crate::registry::{EngineRegistry, EngineVersion};
use crate::server::{Lifecycle, ServerConfig};
use crate::stores::{self, StoreRegistry};
use guardrail_core::{ErrorScheme, Guardrail, GuardrailConfig};
use guardrail_dsl::Unbound;
use guardrail_governor::{Budget, DegradationReport, StageStatus};
use guardrail_obs as obs;
use guardrail_table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome class of one request: indexes the server's own
/// `status.counters` and labels `guardrail_server_requests_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with an exact result.
    Ok,
    /// Completed with a partial result under budget pressure.
    Degraded,
    /// Rejected by admission control (`RETRY_AFTER`).
    Shed,
    /// Typed error (bad request, not found, failed fit, panic, …).
    Error,
}

/// Everything a handler can touch. Shared by all connections.
#[derive(Debug)]
pub struct Ctx {
    /// Immutable server configuration.
    pub config: ServerConfig,
    /// The hot-swappable engine registry.
    pub registry: Arc<EngineRegistry>,
    /// Persistent `(tenant, table)` stores for `append` / `detect_batch`;
    /// `None` when the server runs without `--store-root`.
    pub stores: Option<Arc<StoreRegistry>>,
    /// The admission controller.
    pub admission: Arc<Admission>,
    /// Drain signal.
    pub lifecycle: Arc<Lifecycle>,
    /// Server start, for `status.uptime_ms`.
    pub started: Instant,
    /// This server's request totals, indexed by [`Outcome`]: what
    /// `status.counters` reports. Per server, so several servers in one
    /// process each count only their own traffic.
    pub counters: [AtomicU64; 4],
}

impl Ctx {
    /// Counts one request outcome — the one place outcomes are counted: in
    /// this server's `status.counters` and, when metrics are armed, in
    /// `guardrail_server_requests_total`, labelled with `req`'s tenant and
    /// verb, or with empty labels for a frame that did not parse. Tenant
    /// and verb names are protocol-validated (`[A-Za-z0-9_.-]`), so they
    /// embed in label sets without escaping.
    pub fn count(&self, outcome: Outcome, req: Option<&Request>) {
        self.counters[outcome as usize].fetch_add(1, Ordering::Relaxed);
        if obs::metrics_on() {
            let (tenant, verb) = req.map_or(("", ""), |r| (r.tenant.as_str(), r.op.wire_name()));
            let outcome = match outcome {
                Outcome::Ok => "ok",
                Outcome::Degraded => "degraded",
                Outcome::Shed => "shed",
                Outcome::Error => "error",
            };
            obs::metrics::add(
                "guardrail_server_requests_total",
                &format!("tenant=\"{tenant}\",verb=\"{verb}\",outcome=\"{outcome}\""),
                1,
            );
        }
    }
}

type HandlerResult = Result<(Vec<(&'static str, JVal)>, DegradationReport), WireError>;

/// Executes one parsed request end to end: admission, budget, verb.
/// Returns the response line (no newline) and the outcome class. Never
/// panics on *input* — a panic can only come from the verb body, and the
/// connection loop isolates that with `catch_unwind`.
pub fn handle(ctx: &Ctx, req: &Request) -> (String, Outcome) {
    let mut span = obs::span(req.op.span_name());
    // Timestamp taken only when the metrics layer is armed: the disarmed
    // request path pays one relaxed load, no clock read, no label heap.
    let t_metrics = obs::metrics_on().then(Instant::now);
    ctx.admission.note_request(&req.tenant, ctx.started.elapsed().as_millis() as u64);
    let result = admit_and_dispatch(ctx, req);
    let (line, outcome) = match result {
        Ok((fields, degradation)) => {
            let outcome = if degradation.is_complete() { Outcome::Ok } else { Outcome::Degraded };
            (proto::render_ok(req.op, fields, &degradation), outcome)
        }
        Err(err) => {
            let outcome = match err.kind {
                ErrorKind::RetryAfter => Outcome::Shed,
                _ => Outcome::Error,
            };
            (proto::render_err(Some(req.op), &err), outcome)
        }
    };
    span.arg("ok", matches!(outcome, Outcome::Ok | Outcome::Degraded) as u64);
    span.arg("shed", matches!(outcome, Outcome::Shed) as u64);
    ctx.count(outcome, Some(req));
    if let Some(t0) = t_metrics {
        record_request_metrics(req, t0.elapsed());
    }
    (line, outcome)
}

/// Per-(tenant, verb) latency and payload histograms. Only called when
/// metrics are armed; label embedding as in [`Ctx::count`].
fn record_request_metrics(req: &Request, elapsed: Duration) {
    let verb = req.op.wire_name();
    let labels = format!("tenant=\"{}\",verb=\"{verb}\"", req.tenant);
    obs::metrics::observe(
        "guardrail_server_request_duration_us",
        &labels,
        elapsed.as_micros() as u64,
    );
    if let Some(csv) = &req.csv {
        obs::metrics::observe("guardrail_server_payload_bytes", &labels, csv.len() as u64);
    }
}

fn admit_and_dispatch(ctx: &Ctx, req: &Request) -> HandlerResult {
    if req.op.is_debug() && !ctx.config.debug_ops {
        return Err(WireError::new(
            ErrorKind::BadRequest,
            format!("op {:?} requires --debug-ops", req.op.wire_name()),
        ));
    }
    // `status`, `metrics`, and `shutdown` bypass admission and drain
    // refusal: they are cheap, and an operator must be able to
    // observe/stop an overloaded or draining server.
    let _permit: Option<Permit> = match req.op {
        Op::Status | Op::Metrics | Op::Shutdown => None,
        _ => {
            if ctx.lifecycle.is_draining() {
                return Err(WireError::new(
                    ErrorKind::ShuttingDown,
                    "server is draining; no new work accepted",
                ));
            }
            match ctx.admission.try_admit(&req.tenant) {
                AdmissionDecision::Admitted(permit) => Some(permit),
                AdmissionDecision::Shed { bound } => {
                    return Err(WireError::retry_after(
                        ctx.config.retry_after_ms,
                        format!("{bound} in-flight quota saturated for tenant {:?}", req.tenant),
                    ));
                }
            }
        }
    };

    let budget = request_budget(&ctx.config, req);
    // A zero / already-expired deadline is refused before any work runs.
    if !matches!(req.op, Op::Status | Op::Metrics | Op::Shutdown) {
        budget.check().map_err(|e| {
            WireError::new(ErrorKind::BudgetExhausted, format!("deadline refused: {e}"))
        })?;
    }

    match req.op {
        Op::Fit => fit(ctx, req, &budget),
        Op::Detect => detect(ctx, req, &budget),
        Op::Rectify => rectify(ctx, req, &budget),
        Op::Vet => vet(ctx, req, &budget),
        Op::Append => append(ctx, req, &budget),
        Op::DetectBatch => detect_batch(ctx, req, &budget),
        Op::Status => status(ctx),
        Op::Metrics => metrics_snapshot(),
        Op::Shutdown => shutdown(ctx),
        Op::Sleep => sleep(req, &budget),
        Op::Boom => panic!("boom: deliberate handler panic (debug op)"),
    }
}

/// The request's budget: client deadline clamped to the server max, or
/// the server default. `Budget::with_deadline` saturates internally, so
/// even absurd client values can't disable enforcement.
fn request_budget(config: &ServerConfig, req: &Request) -> Budget {
    let deadline = match req.deadline_ms {
        Some(ms) => Duration::from_millis(ms).min(config.max_deadline),
        None => config.default_deadline,
    };
    Budget::with_deadline(deadline)
}

fn payload_table(req: &Request) -> Result<Table, WireError> {
    let csv = req.csv.as_deref().ok_or_else(|| {
        WireError::new(
            ErrorKind::BadRequest,
            format!("op {:?} requires \"csv\"", req.op.wire_name()),
        )
    })?;
    Table::from_csv_str(csv)
        .map_err(|e| WireError::new(ErrorKind::BadRequest, format!("csv payload: {e}")))
}

fn engine_for(ctx: &Ctx, req: &Request) -> Result<Arc<crate::registry::EngineVersion>, WireError> {
    ctx.registry.current(&req.tenant, &req.table).ok_or_else(|| {
        WireError::new(
            ErrorKind::NotFound,
            format!("no engine published for tenant {:?} table {:?}", req.tenant, req.table),
        )
    })
}

/// Reads the bind outcome of one request — the statements of the published
/// program that did not bind, as the verb's one bind reported them:
/// `SCHEMA_MISMATCH` when no statement of a non-empty program binds,
/// otherwise the `unbound_statements` field to add when some do not. A
/// request that runs with statements unbound is counted on the engine
/// version (`status`) and, with metrics armed, adds its unbound statements
/// to `guardrail_unbound_statements_total`.
fn unbound_outcome(
    req: &Request,
    engine: &EngineVersion,
    unbound: &[Unbound],
) -> Result<Option<(&'static str, JVal)>, WireError> {
    if unbound.is_empty() {
        return Ok(None);
    }
    if unbound.len() == engine.guard.program().statements.len() {
        return Err(schema_mismatch(unbound));
    }
    engine.requests_with_unbound.fetch_add(1, Ordering::Relaxed);
    if obs::metrics_on() {
        let labels = format!(
            "tenant=\"{}\",table=\"{}\",verb=\"{}\"",
            req.tenant,
            req.table,
            req.op.wire_name()
        );
        obs::metrics::add("guardrail_unbound_statements_total", &labels, unbound.len() as u64);
    }
    Ok(Some(("unbound_statements", proto::unbound_jval(unbound))))
}

/// The `SCHEMA_MISMATCH` error of a request no statement binds to.
fn schema_mismatch(unbound: &[Unbound]) -> WireError {
    let message = format!("no statement of the program binds to the data: {unbound:?}");
    WireError::new(ErrorKind::SchemaMismatch, message)
}

fn fit(ctx: &Ctx, req: &Request, budget: &Budget) -> HandlerResult {
    let table = payload_table(req)?;
    let mut config = GuardrailConfig::default();
    if let Some(eps) = req.epsilon {
        config = config.with_epsilon(eps);
    }
    let fitted = Guardrail::builder().config(config).budget(budget.clone()).fit(&table);
    let guard = match fitted {
        Ok(guard) => guard,
        Err(e) => {
            let retained = ctx.registry.record_failed_fit(&req.tenant, &req.table);
            return Err(WireError::new(
                ErrorKind::FitFailed,
                format!("fit failed ({e}); version {retained} retained"),
            ));
        }
    };
    // A re-synthesis that degrades to *nothing* must not replace a working
    // program: keep (roll back to) the current version.
    let prior_nonempty = ctx
        .registry
        .current(&req.tenant, &req.table)
        .is_some_and(|v| !v.guard.program().is_empty());
    if guard.program().is_empty() && prior_nonempty {
        let retained = ctx.registry.record_failed_fit(&req.tenant, &req.table);
        return Err(WireError::new(
            ErrorKind::FitFailed,
            format!("fit produced an empty program; rolled back to version {retained}"),
        ));
    }
    let degradation = guard.degradation().clone();
    let statements = guard.program().statements.len();
    let branches = guard.program().num_branches();
    let coverage = guard.coverage();
    let constraints = guard.program().to_string();
    let rows = table.num_rows();
    let version = ctx.registry.publish(&req.tenant, &req.table, guard, rows);
    if obs::metrics_on() {
        let labels = format!("tenant=\"{}\",table=\"{}\"", req.tenant, req.table);
        obs::metrics::add("guardrail_engine_hotswap_total", &labels, 1);
        obs::metrics::gauge_set("guardrail_engine_epoch", &labels, version as f64);
    }
    Ok((
        vec![
            ("version", JVal::U64(version)),
            ("trained_rows", JVal::U64(rows as u64)),
            ("statements", JVal::U64(statements as u64)),
            ("branches", JVal::U64(branches as u64)),
            ("coverage", JVal::F64(coverage)),
            ("constraints", JVal::Str(constraints)),
        ],
        degradation,
    ))
}

fn detect(ctx: &Ctx, req: &Request, budget: &Budget) -> HandlerResult {
    let engine = engine_for(ctx, req)?;
    let table = payload_table(req)?;
    // A program none of whose statements bind scans nothing.
    let report = engine.guard.detect(&table);
    let unbound = unbound_outcome(req, &engine, &report.unbound)?;
    let mut degradation = DegradationReport::complete();
    if let Err(e) = budget.check() {
        // The scan ran past its deadline: the result is complete, but the
        // client asked for bounded latency — surface the overrun.
        degradation.record(StageStatus::degraded("serve_detect", e));
    }
    let mut fields = vec![
        ("version", JVal::U64(engine.version)),
        ("rows", JVal::U64(report.rows_checked as u64)),
        ("dirty_rows", JVal::U64(report.dirty_rows().len() as u64)),
        ("violations", proto::violations_jval(&report.violations)),
    ];
    fields.extend(unbound);
    Ok((fields, degradation))
}

fn rectify(ctx: &Ctx, req: &Request, budget: &Budget) -> HandlerResult {
    let scheme = req.scheme.unwrap_or(ErrorScheme::Rectify);
    if !matches!(scheme, ErrorScheme::Coerce | ErrorScheme::Rectify) {
        return Err(WireError::new(
            ErrorKind::BadRequest,
            "rectify scheme must be \"coerce\" or \"rectify\"",
        ));
    }
    let engine = engine_for(ctx, req)?;
    let table = payload_table(req)?;
    let (fixed, report) = engine.guard.apply(&table, scheme);
    let unbound = unbound_outcome(req, &engine, &report.unbound)?;
    let mut degradation = DegradationReport::complete();
    if let Err(e) = budget.check() {
        degradation.record(StageStatus::degraded("serve_rectify", e));
    }
    let mut fields = vec![
        ("version", JVal::U64(engine.version)),
        ("rows", JVal::U64(table.num_rows() as u64)),
        ("cells_changed", JVal::U64(report.cells_changed as u64)),
        ("violations", proto::violations_jval(&report.violations)),
        ("csv", JVal::Str(fixed.to_csv_string())),
    ];
    fields.extend(unbound);
    Ok((fields, degradation))
}

fn vet(ctx: &Ctx, req: &Request, budget: &Budget) -> HandlerResult {
    let scheme = req.scheme.unwrap_or(ErrorScheme::Rectify);
    let engine = engine_for(ctx, req)?;
    let table = payload_table(req)?;
    let rows: Vec<usize> = (0..table.num_rows()).collect();
    let Some(vetted) = engine.guard.vet_rows(&table, &rows, scheme) else {
        // Nothing bound, so nothing was gathered or scanned.
        return Err(schema_mismatch(&engine.guard.program().unbound(table.schema())));
    };
    let unbound = unbound_outcome(req, &engine, &vetted.unbound)?;
    let mut degradation = DegradationReport::complete();
    if let Err(e) = budget.check() {
        degradation.record(StageStatus::degraded("serve_vet", e));
    }
    let mut fields = vec![
        ("version", JVal::U64(engine.version)),
        ("rows", JVal::U64(rows.len() as u64)),
        ("violations", proto::violations_jval(&vetted.violations)),
        ("legacy_statements", JVal::U64(vetted.legacy_statements as u64)),
        ("csv", JVal::Str(vetted.table.to_csv_string())),
    ];
    fields.extend(unbound);
    Ok((fields, degradation))
}

fn store_registry<'a>(ctx: &'a Ctx, req: &Request) -> Result<&'a Arc<StoreRegistry>, WireError> {
    ctx.stores.as_ref().ok_or_else(|| {
        WireError::new(
            ErrorKind::BadRequest,
            format!("op {:?} requires a server started with --store-root", req.op.wire_name()),
        )
    })
}

/// Durably appends the CSV payload's rows to the `(tenant, table)` store
/// as one WAL batch, creating the store (payload = base segment) on first
/// use. The payload's columns are matched to the store's by name and
/// written as they were decoded (dictionary and code pages, no per-cell
/// values). The fsync'd WAL write happens before rows become visible, so a
/// batch acknowledged here survives `kill -9`.
fn append(ctx: &Ctx, req: &Request, budget: &Budget) -> HandlerResult {
    let stores = store_registry(ctx, req)?;
    let payload = payload_table(req)?;
    let storage = |e| {
        WireError::new(ErrorKind::Internal, format!("store {:?}/{:?}: {e}", req.tenant, req.table))
    };
    let (slot, created) =
        stores.open_or_create(&req.tenant, &req.table, &payload).map_err(storage)?;
    let mut slot = stores::lock_slot(&slot);
    let (batch_id, rows_appended) = if created {
        (0, payload.num_rows())
    } else {
        let batch = slot.store.append_table(&payload).map_err(storage)?;
        (batch.id, batch.rows.len())
    };
    let mut degradation = DegradationReport::complete();
    if let Err(e) = budget.check() {
        degradation.record(StageStatus::degraded("serve_append", e));
    }
    Ok((
        vec![
            ("created", JVal::Bool(created)),
            ("batch_id", JVal::U64(batch_id)),
            ("rows_appended", JVal::U64(rows_appended as u64)),
            ("rows_total", JVal::U64(slot.store.table().num_rows() as u64)),
            ("wal_batches", JVal::U64(slot.store.wal_batches().len() as u64)),
        ],
        degradation,
    ))
}

/// Probes only the rows appended since the previous `detect_batch` against
/// the published engine (incremental decision-table scan), returning
/// the new violations and honest probed-row work units. The first call per
/// (store, engine version) pays one full scan to seed the detector and
/// reports every violation that scan found, with `"seeded": true`.
fn detect_batch(ctx: &Ctx, req: &Request, budget: &Budget) -> HandlerResult {
    let stores = store_registry(ctx, req)?;
    let engine = engine_for(ctx, req)?;
    let slot = stores
        .open(&req.tenant, &req.table)
        .map_err(|e| {
            WireError::new(
                ErrorKind::Internal,
                format!("store {:?}/{:?}: {e}", req.tenant, req.table),
            )
        })?
        .ok_or_else(|| {
            WireError::new(
                ErrorKind::NotFound,
                format!("no store for tenant {:?} table {:?}; append first", req.tenant, req.table),
            )
        })?;
    let mut slot = stores::lock_slot(&slot);
    let rows_total = slot.store.table().num_rows();
    let Some(outcome) = slot.detect_appended(&engine.guard, engine.version, budget) else {
        if !engine.guard.program().is_empty() {
            // No statement binds, so no detector was built or seeded.
            let unbound = engine.guard.program().unbound(slot.store.table().schema());
            return Err(schema_mismatch(&unbound));
        }
        // An empty program detects nothing, incrementally or otherwise.
        return Ok((
            vec![
                ("version", JVal::U64(engine.version)),
                ("rows_total", JVal::U64(rows_total as u64)),
                ("rows_scanned", JVal::U64(0)),
                ("rows_probed", JVal::U64(0)),
                ("seeded", JVal::Bool(false)),
                ("violations", proto::violations_jval(&[])),
                ("drift_alerts", proto::alerts_jval(&[])),
            ],
            DegradationReport::complete(),
        ));
    };
    let stores::AppendPass { seeded, seen_before, scan, alerts } = outcome.map_err(|e| {
        WireError::new(ErrorKind::BudgetExhausted, format!("incremental detect refused: {e}"))
    })?;
    if !alerts.is_empty() && obs::metrics_on() {
        let labels = format!("tenant=\"{}\",table=\"{}\"", req.tenant, req.table);
        obs::metrics::add("guardrail_drift_alerts_total", &labels, alerts.len() as u64);
        if let Some(worst) =
            alerts.iter().max_by(|a, b| a.z_score.partial_cmp(&b.z_score).expect("finite z"))
        {
            obs::metrics::gauge_set("guardrail_drift_z", &labels, worst.z_score);
        }
    }
    let det = slot.detector().expect("detector exists after a successful pass");
    let unbound = unbound_outcome(req, &engine, det.compiled().unbound())?;
    let new_violations =
        if seeded { det.violations() } else { det.violations_in(seen_before..rows_total) };
    let mut fields = vec![
        ("version", JVal::U64(engine.version)),
        ("rows_total", JVal::U64(rows_total as u64)),
        ("rows_scanned", JVal::U64(scan.rows_scanned as u64)),
        ("rows_probed", JVal::U64(scan.rows_probed)),
        ("seeded", JVal::Bool(seeded)),
        ("violations", proto::violations_jval(new_violations)),
        ("drift_alerts", proto::alerts_jval(&alerts)),
    ];
    fields.extend(unbound);
    let mut degradation = DegradationReport::complete();
    if let Err(e) = budget.check() {
        degradation.record(StageStatus::degraded("serve_detect_batch", e));
    }
    Ok((fields, degradation))
}

fn status(ctx: &Ctx) -> HandlerResult {
    let [ok, degraded, shed, error]: [u64; 4] =
        std::array::from_fn(|i| ctx.counters[i].load(Ordering::Relaxed));
    let engines = JVal::Arr(
        ctx.registry
            .snapshot()
            .into_iter()
            .map(|e| {
                JVal::Obj(vec![
                    ("tenant".to_string(), JVal::Str(e.tenant)),
                    ("table".to_string(), JVal::Str(e.table)),
                    ("version".to_string(), JVal::U64(e.version)),
                    ("statements".to_string(), JVal::U64(e.statements as u64)),
                    ("failed_fits".to_string(), JVal::U64(e.failed_fits)),
                    ("requests_with_unbound".to_string(), JVal::U64(e.requests_with_unbound)),
                ])
            })
            .collect(),
    );
    let tenants = JVal::Arr(
        ctx.admission
            .snapshot()
            .into_iter()
            .map(|t| {
                JVal::Obj(vec![
                    ("tenant".to_string(), JVal::Str(t.tenant)),
                    ("in_flight".to_string(), JVal::U64(t.in_flight as u64)),
                    ("high_water".to_string(), JVal::U64(t.high_water as u64)),
                    ("admitted".to_string(), JVal::U64(t.admitted)),
                    ("shed".to_string(), JVal::U64(t.shed)),
                    (
                        "last_request_ms".to_string(),
                        t.last_request_ms.map_or(JVal::Null, JVal::U64),
                    ),
                ])
            })
            .collect(),
    );
    let counters = JVal::Obj(vec![
        ("ok".to_string(), JVal::U64(ok)),
        ("degraded".to_string(), JVal::U64(degraded)),
        ("shed".to_string(), JVal::U64(shed)),
        ("error".to_string(), JVal::U64(error)),
    ]);
    // Persistent stores are listed only when the daemon owns a store root;
    // the field's absence tells clients `append`/`detect_batch` are off.
    let stores = ctx.stores.as_ref().map(|registry| {
        JVal::Arr(
            registry
                .snapshot()
                .into_iter()
                .map(|s| {
                    let mut members = vec![
                        ("tenant".to_string(), JVal::Str(s.tenant)),
                        ("table".to_string(), JVal::Str(s.table)),
                        ("rows".to_string(), JVal::U64(s.rows as u64)),
                        ("wal_batches".to_string(), JVal::U64(s.wal_batches as u64)),
                        ("drift_batches".to_string(), JVal::U64(s.drift_batches)),
                        ("drift_alerts".to_string(), JVal::U64(s.drift_alerts_total)),
                    ];
                    if let Some(alert) = s.last_alert {
                        members.push((
                            "last_drift_alert".to_string(),
                            proto::alerts_jval(std::slice::from_ref(&alert)),
                        ));
                    }
                    JVal::Obj(members)
                })
                .collect(),
        )
    });
    // The same numbers as a rendered obs stage snapshot, so scripts that
    // already parse `--report` trees can scrape `status` identically.
    let stage = obs::StageReport::new("server")
        .wall_ns(ctx.started.elapsed().as_nanos() as u64)
        .metric("requests_ok", ok)
        .metric("requests_degraded", degraded)
        .metric("requests_shed", shed)
        .metric("requests_error", error)
        .metric("in_flight", ctx.admission.global_in_flight())
        .metric("in_flight_high_water", ctx.admission.global_high_water());
    let report = obs::PipelineReport::new().stage(stage).to_string();
    let mut fields = vec![
        ("uptime_ms", JVal::U64(ctx.started.elapsed().as_millis() as u64)),
        ("draining", JVal::Bool(ctx.lifecycle.is_draining())),
        ("in_flight", JVal::U64(ctx.admission.global_in_flight() as u64)),
        ("in_flight_high_water", JVal::U64(ctx.admission.global_high_water() as u64)),
        ("counters", counters),
        ("tenants", tenants),
        ("engines", engines),
    ];
    if let Some(stores) = stores {
        fields.push(("stores", stores));
    }
    // A compact view of the metrics layer so one `status` poll answers
    // "is the registry armed, and how much is it tracking".
    fields.push((
        "metrics",
        JVal::Obj(vec![
            ("armed".to_string(), JVal::Bool(obs::metrics_on())),
            ("series".to_string(), JVal::U64(obs::metrics::series_count() as u64)),
        ]),
    ));
    fields.push(("report", JVal::Str(report)));
    Ok((fields, DegradationReport::complete()))
}

/// The `metrics` verb: a Prometheus text-format snapshot of the
/// process-global registry, plus the arming flag so a scraper can tell
/// "no traffic" from "metrics disarmed".
fn metrics_snapshot() -> HandlerResult {
    Ok((
        vec![
            ("armed", JVal::Bool(obs::metrics_on())),
            ("series", JVal::U64(obs::metrics::series_count() as u64)),
            ("prometheus", JVal::Str(obs::metrics::render_prometheus())),
        ],
        DegradationReport::complete(),
    ))
}

fn shutdown(ctx: &Ctx) -> HandlerResult {
    ctx.lifecycle.request_drain();
    Ok((vec![("draining", JVal::Bool(true))], DegradationReport::complete()))
}

/// Debug verb: hold the admission slot for `sleep_ms`, charging the
/// budget in small slices so the deadline can cut it short — the chaos
/// suite's stand-in for a long-running verb with a bounded-latency
/// contract.
fn sleep(req: &Request, budget: &Budget) -> HandlerResult {
    let target = Duration::from_millis(req.sleep_ms.unwrap_or(0));
    let slice = Duration::from_millis(5);
    let start = Instant::now();
    let mut degradation = DegradationReport::complete();
    while start.elapsed() < target {
        if let Err(e) = budget.check() {
            degradation.record(StageStatus::degraded("serve_sleep", e));
            break;
        }
        std::thread::sleep(slice.min(target - start.elapsed()));
    }
    Ok((vec![("slept_ms", JVal::U64(start.elapsed().as_millis() as u64))], degradation))
}
