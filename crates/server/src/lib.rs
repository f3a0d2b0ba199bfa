//! `guardrail-server`: a fault-tolerant, multi-tenant serving daemon.
//!
//! Everything else in the workspace is a batch tool; this crate makes
//! Guardrail *resident*: a threaded TCP daemon speaking newline-delimited
//! JSON (one request object per line, one response object per line) that
//! exposes the pipeline's verbs — `fit`, `detect`, `rectify`, `vet` — plus
//! `status` and `shutdown`, against an engine registry keyed by
//! `(tenant, table)` with atomic hot-swap on re-synthesis. With
//! `--store-root` the daemon also owns persistent stores ([`stores`]):
//! `append` durably ingests row batches (segment + WAL on disk) and
//! `detect_batch` probes only the appended rows through a cached
//! [`guardrail_dsl::IncrementalDetector`].
//!
//! The design center is *graceful degradation over collapse*:
//!
//! * **Admission control** ([`admission`]) — bounded per-tenant and global
//!   in-flight quotas. Requests beyond the bound are **shed early** with a
//!   typed `RETRY_AFTER` response instead of queueing to death.
//! * **Deadlines** ([`guardrail_governor::Budget`]) — every admitted
//!   request runs under a budget built from the client's `deadline_ms`
//!   (clamped) or the server default. A deadline of zero or in the past
//!   yields an immediate typed `BUDGET_EXHAUSTED`; work cut short mid-run
//!   returns its best result with a [`DegradationReport`] on the wire, so
//!   clients can distinguish *clean*, *degraded*, and *shed*.
//! * **Panic isolation** ([`server`]) — each request runs inside
//!   `catch_unwind`; a poisoned request produces a typed `INTERNAL`
//!   response and can never take down the registry or leak an admission
//!   permit (permits are RAII and released on unwind).
//! * **Socket hygiene** — read timeouts bound slow-loris clients, frames
//!   are capped at a configurable byte size, malformed frames get typed
//!   `BAD_REQUEST` responses on a still-live connection.
//! * **Graceful drain** — `shutdown` stops accepting, lets in-flight work
//!   finish (or deadline out), then joins every worker.
//!
//! The [`chaos`] module is the matching test harness: slow-loris writers,
//! mid-request disconnects, garbage blasters, and a scripted [`chaos::Client`]
//! used by `tests/server_robustness.rs` and the CI `server-smoke` job.
//!
//! Each server counts its own request outcomes (`ok`, `degraded`, `shed`,
//! `error`) for `status.counters`; with metrics armed, every outcome also
//! counts into `guardrail_server_requests_total{tenant,verb,outcome}`
//! (empty `tenant` and `verb` for a frame that did not parse), which a
//! `--trace-out` recording sees as counter samples.
//!
//! ```
//! use guardrail_server::{chaos::Client, Server, ServerConfig};
//!
//! let handle = Server::spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let resp = client
//!     .request(r#"{"op":"fit","tenant":"t0","table":"zips","csv":"zip,city\n94704,Berkeley\n94704,Berkeley\n97201,Portland\n"}"#)
//!     .unwrap();
//! assert_eq!(resp.get("ok"), Some(&guardrail_obs::json::Json::Bool(true)));
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod chaos;
pub mod daemon;
pub mod handlers;
pub mod proto;
pub mod registry;
pub mod server;
pub mod stores;

pub use admission::{Admission, AdmissionDecision, Permit, TenantSnapshot};
pub use guardrail_governor::DegradationReport;
pub use proto::{parse_request, ErrorKind, JVal, Op, Request, WireError, MAX_NAME_LEN};
pub use registry::{EngineRegistry, EngineVersion};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stores::{StoreRegistry, StoreSlot};
