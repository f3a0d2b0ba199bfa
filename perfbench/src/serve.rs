//! The server side of `serve_read`: an in-process daemon on loopback, one
//! client connection, the 8,000-row #10 fit payload, and wire helpers.

use crate::data::{dirty_copy, sem_table, CsvLines};
use guardrail_core::Guardrail;
use guardrail_obs::json::{self, Json};
use guardrail_server::chaos::Client;
use guardrail_server::{Server, ServerConfig, ServerHandle};
use guardrail_table::Table;
use std::collections::BTreeMap;

/// Paper dataset whose SEM feeds the server workload.
pub const DATASET: u8 = 10;
/// Rows of the set-up `fit`.
pub const FIT_ROWS: usize = 8_000;
/// Rows the read payloads are cut from.
pub const POOL_ROWS: usize = 8_192;
pub const TENANT: &str = "bench";
pub const TABLE: &str = "t10";
/// Every request carries the server's maximum deadline, so no verb
/// degrades under this load.
const DEADLINE_MS: u64 = 30_000;

/// The daemon as `guardrail-server` runs it (metrics armed), plus the one
/// client connection. Dropping it closes the connection and drains the
/// server, joining its threads.
pub struct Served {
    handle: Option<ServerHandle>,
    client: Option<Client>,
}

impl Served {
    pub fn spawn() -> Result<Self, String> {
        // The daemon's `main` arms the metrics layer for its lifetime.
        guardrail_obs::arm_metrics(true);
        let handle =
            Server::spawn(ServerConfig::default()).map_err(|e| format!("server bind: {e}"))?;
        let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Served { handle: Some(handle), client: Some(client) })
    }

    pub fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server runs until drop")
    }

    /// One round trip; the raw response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let client = self.client.as_mut().expect("client lives until drop");
        client.call(line).map_err(|e| format!("round trip: {e}"))
    }

    /// Closes the connection, drains the server and joins its threads.
    /// Idempotent; dropping does the same.
    pub fn shutdown(&mut self) {
        drop(self.client.take());
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A request line for `op` on the benchmark's (tenant, table).
pub fn request_line(op: &str, csv: Option<&str>) -> String {
    let mut line = format!(
        "{{\"op\":\"{op}\",\"tenant\":\"{TENANT}\",\"table\":\"{TABLE}\",\"deadline_ms\":{DEADLINE_MS}"
    );
    if let Some(csv) = csv {
        line.push_str(",\"csv\":\"");
        line.push_str(&json::escape(csv));
        line.push('"');
    }
    line.push('}');
    line
}

/// Parses a response line and requires `"ok": true`; errors and
/// `RETRY_AFTER` sheds come back as `Err`.
pub fn parse_ok(line: &str) -> Result<Json, String> {
    let doc = json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        let kind =
            doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str).unwrap_or("?");
        return Err(format!("server answered {kind}: {}", truncate(line)));
    }
    Ok(doc)
}

fn truncate(line: &str) -> &str {
    match line.char_indices().nth(200) {
        Some((i, _)) => &line[..i],
        None => line,
    }
}

/// The #10 sample `serve_read` uses: the fit payload's CSV, the
/// guard fitted in process on the same bytes (the specification path), and
/// a dirty pool of further rows for payloads. Built once per run, before
/// and outside the timed set-ups.
pub struct ServeData {
    pub fit_csv: String,
    pub guard: Guardrail,
    pub pool: CsvLines,
}

impl ServeData {
    pub fn new(seed: u64) -> Result<Self, String> {
        let (sample, _) = sem_table(DATASET, FIT_ROWS + POOL_ROWS, seed);
        let fit_rows: Vec<usize> = (0..FIT_ROWS).collect();
        let pool_rows: Vec<usize> = (FIT_ROWS..FIT_ROWS + POOL_ROWS).collect();
        let fit_csv = sample.take(&fit_rows).to_csv_string();
        let pool = dirty_copy(&sample.take(&pool_rows), None, seed ^ 0x900D);
        let train = Table::from_csv_str(&fit_csv).map_err(|e| format!("fit payload: {e}"))?;
        let guard = Guardrail::builder().fit(&train).map_err(|e| format!("in-process fit: {e}"))?;
        Ok(ServeData { fit_csv, guard, pool: CsvLines::new(&pool) })
    }

    /// Sends the set-up `fit` and checks the published program against the
    /// in-process fit.
    pub fn fit_over_wire(&self, served: &mut Served) -> Result<(), String> {
        let response = parse_ok(&served.call(&request_line("fit", Some(&self.fit_csv)))?)?;
        let constraints = response.get("constraints").and_then(Json::as_str).unwrap_or_default();
        if constraints != self.guard.program().to_string() {
            return Err("server's fitted program differs from the in-process fit".into());
        }
        Ok(())
    }
}

/// Op count and median latency per payload size, for the run's notes.
pub fn medians_by_rows(by_rows: &BTreeMap<usize, Vec<f64>>) -> String {
    let parts: Vec<String> = by_rows
        .iter()
        .map(|(rows, ms)| format!("{rows} rows: {} ops, p50 {:.3} ms", ms.len(), crate::median(ms)))
        .collect();
    parts.join("; ")
}
