//! The wire protocol: newline-delimited JSON, one object per line.
//!
//! # Grammar
//!
//! ```text
//! session  := (request "\n" response "\n")*
//! request  := { "op": op, ["tenant": name], ["table": name],
//!               ["deadline_ms": uint], op-specific fields... }
//! op       := "fit" | "detect" | "rectify" | "vet" | "append"
//!           | "detect_batch" | "status" | "metrics" | "shutdown"
//!           | "sleep" | "boom"            (debug ops; require --debug-ops)
//! name     := 1..=64 chars of [A-Za-z0-9_.-]
//! response := { "ok": true,  "op": op, ...result fields...,
//!               "status": "clean" | "degraded",
//!               ["degradation": [{"stage","reason","work_done"}]] }
//!           | { "ok": false, ["op": op], "error":
//!               { "kind": kind, "message": string, ["retry_after_ms": uint] } }
//! kind     := "BAD_REQUEST" | "PAYLOAD_TOO_LARGE" | "RETRY_AFTER"
//!           | "BUDGET_EXHAUSTED" | "NOT_FOUND" | "FIT_FAILED"
//!           | "SCHEMA_MISMATCH" | "INTERNAL" | "SHUTTING_DOWN"
//! ```
//!
//! Op-specific request fields: `csv` (fit/detect/rectify/vet/append, the
//! payload table as CSV text), `epsilon` (fit), `scheme` (vet/rectify:
//! `raise|ignore|coerce|rectify`), `sleep_ms` (sleep). Unknown top-level
//! keys are rejected — a typo must fail loudly, not silently change
//! semantics.
//!
//! `append` and `detect_batch` target the server's persistent store for
//! `(tenant, table)` (requires `--store-root`): `append` durably appends
//! the CSV payload's rows as one WAL batch (creating the store, with the
//! payload as its base segment, on first use; payload columns are matched
//! to the store's by name, in any order) and returns `batch_id`;
//! `detect_batch` probes only the rows appended since the previous call
//! against the published engine and returns the *new* violations plus the
//! probed-row work units — clients pipeline `append`/`detect_batch` pairs
//! to validate a stream of row chunks without rescanning the table. The
//! call that builds the store's detector (the first per store and engine
//! version, e.g. after a restart or a re-`fit`) scans every stored row and
//! returns all the violations it found, with `"seeded": true`; every other
//! response carries `"seeded": false`.
//!
//! `detect`, `rectify`, `vet` and `detect_batch` run the statements whose
//! GIVEN and ON attributes are all payload (or store) columns. Responses
//! add `"unbound_statements": [{"statement", "missing"}]` when some do not,
//! and fail with `SCHEMA_MISMATCH` when none of a non-empty program does.
//!
//! Requests are parsed with `guardrail_obs::json` (recursion-bounded, full
//! JSON grammar) and responses are emitted through [`JVal`], which escapes
//! through the same `json::escape` — so everything the server writes is
//! parseable by the workspace's own parser, the trace tooling included.

use guardrail_core::{ErrorScheme, GuardrailConfig};
use guardrail_governor::DegradationReport;
use guardrail_obs::json::{self, Json};
use guardrail_table::Value;
use std::fmt::Write as _;

/// Maximum byte length of a `tenant` / `table` name.
pub const MAX_NAME_LEN: usize = 64;

/// A protocol verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Synthesize constraints from a CSV payload and hot-swap them in.
    Fit,
    /// Detect violations in a CSV payload against the current engine.
    Detect,
    /// Repair a CSV payload (rectify/coerce) and return the fixed CSV.
    Rectify,
    /// Query-time vetting of a CSV payload under an error scheme.
    Vet,
    /// Durably append a CSV payload's rows to the persistent store for
    /// `(tenant, table)` (one WAL batch; creates the store on first use).
    Append,
    /// Incrementally detect violations in rows appended since the last
    /// call, probing only the new batch against the published engine.
    DetectBatch,
    /// Server health: engines, tenants, counters, admission snapshot.
    Status,
    /// Prometheus text-format snapshot of the metrics registry.
    Metrics,
    /// Begin graceful drain: stop accepting, finish in-flight work.
    Shutdown,
    /// Debug: hold an admission slot for `sleep_ms` under the deadline.
    Sleep,
    /// Debug: panic inside the handler (exercises panic isolation).
    Boom,
}

impl Op {
    /// Wire name (the `"op"` field value).
    pub fn wire_name(self) -> &'static str {
        match self {
            Op::Fit => "fit",
            Op::Detect => "detect",
            Op::Rectify => "rectify",
            Op::Vet => "vet",
            Op::Append => "append",
            Op::DetectBatch => "detect_batch",
            Op::Status => "status",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
            Op::Sleep => "sleep",
            Op::Boom => "boom",
        }
    }

    /// Span name used when tracing is armed.
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Fit => "serve_fit",
            Op::Detect => "serve_detect",
            Op::Rectify => "serve_rectify",
            Op::Vet => "serve_vet",
            Op::Append => "serve_append",
            Op::DetectBatch => "serve_detect_batch",
            Op::Status => "serve_status",
            Op::Metrics => "serve_metrics",
            Op::Shutdown => "serve_shutdown",
            Op::Sleep => "serve_sleep",
            Op::Boom => "serve_boom",
        }
    }

    /// Whether the op is a chaos-harness debug verb (gated behind
    /// `ServerConfig::debug_ops`).
    pub fn is_debug(self) -> bool {
        matches!(self, Op::Sleep | Op::Boom)
    }

    fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "fit" => Op::Fit,
            "detect" => Op::Detect,
            "rectify" => Op::Rectify,
            "vet" => Op::Vet,
            "append" => Op::Append,
            "detect_batch" => Op::DetectBatch,
            "status" => Op::Status,
            "metrics" => Op::Metrics,
            "shutdown" => Op::Shutdown,
            "sleep" => Op::Sleep,
            "boom" => Op::Boom,
            _ => return None,
        })
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The verb.
    pub op: Op,
    /// Tenant key (admission quotas and registry namespace).
    pub tenant: String,
    /// Table key within the tenant.
    pub table: String,
    /// Inline CSV payload for fit/detect/rectify/vet.
    pub csv: Option<String>,
    /// Client-supplied deadline; the server clamps it to its maximum and
    /// substitutes its default when absent.
    pub deadline_ms: Option<u64>,
    /// Synthesis ε for fit.
    pub epsilon: Option<f64>,
    /// Error scheme for vet/rectify.
    pub scheme: Option<ErrorScheme>,
    /// Debug: milliseconds the sleep op should hold its slot.
    pub sleep_ms: Option<u64>,
}

/// Typed error taxonomy on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame, unknown op/field, invalid payload.
    BadRequest,
    /// Frame exceeded the configured byte cap.
    PayloadTooLarge,
    /// Load shed: quota saturated; retry after the hinted delay.
    RetryAfter,
    /// The request's deadline was already (or became) exhausted.
    BudgetExhausted,
    /// No engine published for (tenant, table).
    NotFound,
    /// Synthesis failed; the previously published version is retained.
    FitFailed,
    /// No statement of the published program binds to the payload schema.
    SchemaMismatch,
    /// The handler panicked; the request was isolated and dropped.
    Internal,
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl ErrorKind {
    /// Wire name (the `error.kind` field value).
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "BAD_REQUEST",
            ErrorKind::PayloadTooLarge => "PAYLOAD_TOO_LARGE",
            ErrorKind::RetryAfter => "RETRY_AFTER",
            ErrorKind::BudgetExhausted => "BUDGET_EXHAUSTED",
            ErrorKind::NotFound => "NOT_FOUND",
            ErrorKind::FitFailed => "FIT_FAILED",
            ErrorKind::SchemaMismatch => "SCHEMA_MISMATCH",
            ErrorKind::Internal => "INTERNAL",
            ErrorKind::ShuttingDown => "SHUTTING_DOWN",
        }
    }
}

/// A typed wire error: kind, human message, optional retry hint.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Which taxon.
    pub kind: ErrorKind,
    /// Human-readable detail (never required for client dispatch).
    pub message: String,
    /// For `RETRY_AFTER`: suggested client back-off in milliseconds.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// A typed error with no retry hint.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self { kind, message: message.into(), retry_after_ms: None }
    }

    /// A `RETRY_AFTER` shed response.
    pub fn retry_after(ms: u64, message: impl Into<String>) -> Self {
        Self { kind: ErrorKind::RetryAfter, message: message.into(), retry_after_ms: Some(ms) }
    }
}

/// Parses and validates one request line.
///
/// Every failure is a typed [`WireError`] (kind `BAD_REQUEST`) — this
/// function must never panic, whatever the bytes: the fuzz suite in
/// `tests/server_robustness.rs` feeds it random byte strings, truncated
/// frames, and deeply nested JSON.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let bad = |msg: String| WireError::new(ErrorKind::BadRequest, msg);
    let doc = json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let members = doc.as_obj().ok_or_else(|| bad("request must be a JSON object".into()))?;

    let mut op = None;
    let mut tenant = None;
    let mut table = None;
    let mut csv = None;
    let mut deadline_ms = None;
    let mut epsilon = None;
    let mut scheme = None;
    let mut sleep_ms = None;
    for (key, value) in members {
        match key.as_str() {
            "op" => {
                let s = value.as_str().ok_or_else(|| bad("\"op\" must be a string".into()))?;
                op = Some(Op::from_wire(s).ok_or_else(|| bad(format!("unknown op {s:?}")))?);
            }
            "tenant" => tenant = Some(parse_name(value, "tenant")?),
            "table" => table = Some(parse_name(value, "table")?),
            "csv" => {
                csv = Some(
                    value
                        .as_str()
                        .ok_or_else(|| bad("\"csv\" must be a string".into()))?
                        .to_string(),
                );
            }
            "deadline_ms" => {
                deadline_ms =
                    Some(value.as_u64().ok_or_else(|| {
                        bad("\"deadline_ms\" must be a non-negative integer".into())
                    })?);
            }
            "epsilon" => {
                let e = value.as_num().ok_or_else(|| bad("\"epsilon\" must be a number".into()))?;
                epsilon = Some(GuardrailConfig::check_epsilon(e).map_err(bad)?);
            }
            "scheme" => {
                let s = value.as_str().ok_or_else(|| bad("\"scheme\" must be a string".into()))?;
                scheme = Some(s.parse::<ErrorScheme>().map_err(bad)?);
            }
            "sleep_ms" => {
                sleep_ms =
                    Some(value.as_u64().ok_or_else(|| {
                        bad("\"sleep_ms\" must be a non-negative integer".into())
                    })?);
            }
            other => return Err(bad(format!("unknown field {other:?}"))),
        }
    }
    let op = op.ok_or_else(|| bad("missing required field \"op\"".into()))?;
    Ok(Request {
        op,
        tenant: tenant.unwrap_or_else(|| "default".to_string()),
        table: table.unwrap_or_else(|| "default".to_string()),
        csv,
        deadline_ms,
        epsilon,
        scheme,
        sleep_ms,
    })
}

fn parse_name(value: &Json, field: &str) -> Result<String, WireError> {
    let bad = |msg: String| WireError::new(ErrorKind::BadRequest, msg);
    let s = value.as_str().ok_or_else(|| bad(format!("{field:?} must be a string")))?;
    if s.is_empty() || s.len() > MAX_NAME_LEN {
        return Err(bad(format!("{field:?} must be 1..={MAX_NAME_LEN} bytes")));
    }
    if !s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')) {
        return Err(bad(format!("{field:?} may only contain [A-Za-z0-9_.-]")));
    }
    Ok(s.to_string())
}

/// A JSON value for response emission. The mirror of
/// [`guardrail_obs::json::Json`] on the write side — integers stay
/// integers (no f64 round-trip), strings escape through
/// [`guardrail_obs::json::escape`].
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer, rendered without a fraction.
    U64(u64),
    /// Signed integer, rendered without a fraction.
    I64(i64),
    /// A float; non-finite values render as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object, members in insertion order.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Self {
        JVal::Str(s.into())
    }

    /// Renders compact JSON into `out`.
    pub fn render(&self, out: &mut String) {
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JVal::U64(n) => {
                let _ = write!(out, "{n}");
            }
            JVal::I64(n) => {
                let _ = write!(out, "{n}");
            }
            JVal::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            JVal::F64(_) => out.push_str("null"),
            JVal::Str(s) => {
                out.push('"');
                out.push_str(&json::escape(s));
                out.push('"');
            }
            JVal::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            JVal::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json::escape(k));
                    out.push_str("\":");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders to an owned string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }
}

impl From<&Value> for JVal {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => JVal::Null,
            Value::Bool(b) => JVal::Bool(*b),
            Value::Int(i) => JVal::I64(*i),
            Value::Float(x) => JVal::F64(*x),
            Value::Str(s) => JVal::Str(s.clone()),
        }
    }
}

/// Builds a success response line (no trailing newline): `"ok": true`,
/// the op echo, the op-specific `fields`, then the degradation taxonomy —
/// `"status": "clean" | "degraded"` plus a `"degradation"` array when any
/// stage was cut short.
pub fn render_ok(
    op: Op,
    fields: Vec<(&'static str, JVal)>,
    degradation: &DegradationReport,
) -> String {
    let mut members =
        vec![("ok".to_string(), JVal::Bool(true)), ("op".to_string(), JVal::str(op.wire_name()))];
    for (k, v) in fields {
        members.push((k.to_string(), v));
    }
    let degraded = !degradation.is_complete();
    members.push(("status".to_string(), JVal::str(if degraded { "degraded" } else { "clean" })));
    if degraded {
        members.push(("degradation".to_string(), degradation_jval(degradation)));
    }
    JVal::Obj(members).to_json()
}

/// Builds an error response line (no trailing newline).
pub fn render_err(op: Option<Op>, err: &WireError) -> String {
    let mut members = vec![("ok".to_string(), JVal::Bool(false))];
    if let Some(op) = op {
        members.push(("op".to_string(), JVal::str(op.wire_name())));
    }
    let mut error = vec![
        ("kind".to_string(), JVal::str(err.kind.wire_name())),
        ("message".to_string(), JVal::str(err.message.clone())),
    ];
    if let Some(ms) = err.retry_after_ms {
        error.push(("retry_after_ms".to_string(), JVal::U64(ms)));
    }
    members.push(("error".to_string(), JVal::Obj(error)));
    JVal::Obj(members).to_json()
}

/// Serializes a [`DegradationReport`] for the wire.
pub fn degradation_jval(report: &DegradationReport) -> JVal {
    JVal::Arr(
        report
            .stages
            .iter()
            .map(|d| {
                JVal::Obj(vec![
                    ("stage".to_string(), JVal::str(d.stage)),
                    ("reason".to_string(), JVal::str(d.reason.to_string())),
                    ("work_done".to_string(), JVal::U64(d.work_done)),
                ])
            })
            .collect(),
    )
}

/// Serializes detection violations for the wire.
pub fn violations_jval(violations: &[guardrail_dsl::Violation]) -> JVal {
    JVal::Arr(
        violations
            .iter()
            .map(|v| {
                JVal::Obj(vec![
                    ("row".to_string(), JVal::U64(v.row as u64)),
                    ("statement".to_string(), JVal::U64(v.statement as u64)),
                    ("branch".to_string(), JVal::U64(v.branch as u64)),
                    ("attribute".to_string(), JVal::str(v.attribute.as_ref())),
                    ("expected".to_string(), JVal::from(&v.expected)),
                    ("actual".to_string(), JVal::from(&v.actual)),
                ])
            })
            .collect(),
    )
}

/// Serializes the statements that do not bind for the wire
/// (`unbound_statements`).
pub fn unbound_jval(unbound: &[guardrail_dsl::Unbound]) -> JVal {
    let one = |u: &guardrail_dsl::Unbound| {
        let missing = JVal::Arr(u.missing.iter().map(JVal::str).collect());
        JVal::Obj(vec![
            ("statement".into(), JVal::U64(u.statement as u64)),
            ("missing".into(), missing),
        ])
    };
    JVal::Arr(unbound.iter().map(one).collect())
}

/// Serializes drift staleness alerts for the wire (`detect_batch`
/// responses and `status` store entries share this shape).
pub fn alerts_jval(alerts: &[guardrail_dsl::StalenessAlert]) -> JVal {
    JVal::Arr(
        alerts
            .iter()
            .map(|a| {
                JVal::Obj(vec![
                    ("statement".to_string(), JVal::U64(a.statement as u64)),
                    ("attribute".to_string(), JVal::str(a.attribute.as_ref())),
                    ("baseline_rate".to_string(), JVal::F64(a.baseline_rate)),
                    ("observed_rate".to_string(), JVal::F64(a.observed_rate)),
                    ("z_score".to_string(), JVal::F64(a.z_score)),
                    ("rows_observed".to_string(), JVal::U64(a.rows_observed as u64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_governor::{Degradation, ExhaustionReason};

    #[test]
    fn parses_minimal_and_full_requests() {
        let r = parse_request(r#"{"op":"status"}"#).unwrap();
        assert_eq!(r.op, Op::Status);
        assert_eq!(r.tenant, "default");
        assert_eq!(r.table, "default");

        let r = parse_request(
            r#"{"op":"vet","tenant":"acme","table":"users","csv":"a,b\n1,2\n",
               "deadline_ms":250,"scheme":"coerce"}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Vet);
        assert_eq!(r.tenant, "acme");
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.scheme, Some(ErrorScheme::Coerce));
        assert_eq!(r.csv.as_deref(), Some("a,b\n1,2\n"));
    }

    #[test]
    fn rejects_malformed_requests_with_typed_errors() {
        for line in [
            "",
            "not json",
            "[1,2,3]",
            "42",
            r#"{"op":"detect""#,                  // truncated
            r#"{"op":"launch_missiles"}"#,        // unknown op
            r#"{"op":"detect","surprise":1}"#,    // unknown field
            r#"{"tenant":"t"}"#,                  // missing op
            r#"{"op":42}"#,                       // op wrong type
            r#"{"op":"fit","epsilon":7.5}"#,      // epsilon out of range
            r#"{"op":"fit","epsilon":1}"#,        // epsilon at the open bound
            r#"{"op":"fit","deadline_ms":-5}"#,   // negative deadline
            r#"{"op":"fit","tenant":""}"#,        // empty name
            r#"{"op":"fit","tenant":"a b"}"#,     // bad charset
            r#"{"op":"vet","scheme":"explode"}"#, // unknown scheme
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{line:?} → {err:?}");
        }
        let long = format!(r#"{{"op":"fit","tenant":"{}"}}"#, "x".repeat(65));
        assert_eq!(parse_request(&long).unwrap_err().kind, ErrorKind::BadRequest);
    }

    #[test]
    fn responses_round_trip_through_the_obs_parser() {
        let mut report = DegradationReport::complete();
        report.stages.push(Degradation {
            stage: "sketch_fill",
            reason: ExhaustionReason::DeadlineExpired,
            work_done: 17,
        });
        let line = render_ok(
            Op::Fit,
            vec![("version", JVal::U64(3)), ("coverage", JVal::F64(0.97))],
            &report,
        );
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("fit"));
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("degraded"));
        let deg = doc.get("degradation").and_then(Json::as_arr).unwrap();
        assert_eq!(deg[0].get("stage").and_then(Json::as_str), Some("sketch_fill"));
        assert_eq!(deg[0].get("work_done").and_then(Json::as_u64), Some(17));

        let err_line = render_err(Some(Op::Detect), &WireError::retry_after(40, "tenant quota"));
        let doc = json::parse(&err_line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("RETRY_AFTER"));
        assert_eq!(error.get("retry_after_ms").and_then(Json::as_u64), Some(40));
    }

    #[test]
    fn jval_escapes_and_handles_nonfinite() {
        let v = JVal::Obj(vec![
            ("k\"ey".to_string(), JVal::str("line\nbreak")),
            ("nan".to_string(), JVal::F64(f64::NAN)),
            ("neg".to_string(), JVal::I64(-12)),
        ]);
        let text = v.to_json();
        let parsed = json::parse(&text).unwrap();
        assert_eq!(parsed.get("k\"ey").and_then(Json::as_str), Some("line\nbreak"));
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
        assert_eq!(parsed.get("neg").and_then(Json::as_num), Some(-12.0));
    }

    #[test]
    fn clean_responses_omit_the_degradation_array() {
        let line = render_ok(Op::Detect, vec![], &DegradationReport::complete());
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("clean"));
        assert!(doc.get("degradation").is_none());
    }
}
