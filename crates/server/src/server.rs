//! The TCP serving loop: accept, frame, isolate, drain.
//!
//! One OS thread per connection, framed by newlines. The loop enforces
//! the socket-hygiene half of the robustness story:
//!
//! - **Slow-loris**: a frame that stays incomplete past
//!   [`ServerConfig::read_timeout`] hangs up — a trickling client cannot
//!   pin a thread.
//! - **Idle**: a silent connection past [`ServerConfig::idle_timeout`]
//!   hangs up.
//! - **Oversize**: a frame past [`ServerConfig::max_frame_bytes`] gets a
//!   typed `PAYLOAD_TOO_LARGE` response, then the connection closes.
//! - **Panic isolation**: each request runs under `catch_unwind`; a
//!   panicking handler produces a typed `INTERNAL` response and the
//!   connection (and every other connection) lives on. Admission permits
//!   are RAII, so the unwind releases capacity.
//! - **Graceful drain**: `shutdown` (the verb or [`ServerHandle::shutdown`])
//!   stops accepting, lets in-flight requests finish, then joins every
//!   thread. No request is abandoned mid-verb.

use crate::admission::Admission;
use crate::handlers::{self, Ctx, Outcome};
use crate::proto::{self, ErrorKind, WireError};
use crate::registry::EngineRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked reads / the acceptor wake to check for drain.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline: Duration,
    /// Upper clamp on client-supplied deadlines.
    pub max_deadline: Duration,
    /// Per-tenant in-flight quota (admission control).
    pub tenant_inflight: usize,
    /// Global in-flight quota (admission control).
    pub global_inflight: usize,
    /// Maximum bytes in one request frame.
    pub max_frame_bytes: usize,
    /// Maximum wall time a frame may stay incomplete (slow-loris bound).
    pub read_timeout: Duration,
    /// Maximum wall time a connection may sit idle between frames.
    pub idle_timeout: Duration,
    /// Back-off hint attached to `RETRY_AFTER` shed responses.
    pub retry_after_ms: u64,
    /// Enables the chaos-harness debug verbs (`sleep`, `boom`).
    pub debug_ops: bool,
    /// Root directory for persistent `(tenant, table)` stores; `None`
    /// disables the `append` / `detect_batch` verbs.
    pub store_root: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(30),
            tenant_inflight: 4,
            global_inflight: 64,
            max_frame_bytes: 1 << 20,
            read_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            retry_after_ms: 50,
            debug_ops: false,
            store_root: None,
        }
    }
}

/// Drain signal shared by the acceptor, every connection, and the
/// `shutdown` verb.
#[derive(Debug, Default)]
pub struct Lifecycle {
    draining: AtomicBool,
}

impl Lifecycle {
    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Requests drain: stop accepting connections and new frames; finish
    /// in-flight requests.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }
}

/// The server; use [`Server::spawn`] to start one.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds and starts serving on background threads. Returns a handle
    /// for the picked address, shared state, and graceful shutdown.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(Ctx {
            admission: Admission::new(config.tenant_inflight, config.global_inflight),
            registry: EngineRegistry::new(),
            stores: config
                .store_root
                .as_ref()
                .map(|p| crate::stores::StoreRegistry::new(p.clone())),
            lifecycle: Arc::new(Lifecycle::default()),
            started: Instant::now(),
            counters: Default::default(),
            config,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let ctx = Arc::clone(&ctx);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("guardrail-acceptor".to_string())
                .spawn(move || accept_loop(listener, ctx, conns))?
        };
        Ok(ServerHandle { addr, ctx, acceptor: Some(acceptor), conns })
    }
}

/// Handle to a running server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared request context (registry, admission, counters) — what the
    /// chaos suite asserts invariants against.
    pub fn ctx(&self) -> &Arc<Ctx> {
        &self.ctx
    }

    /// The admission controller.
    pub fn admission(&self) -> &Arc<Admission> {
        &self.ctx.admission
    }

    /// The engine registry.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.ctx.registry
    }

    /// Graceful drain: stop accepting, let in-flight requests finish, join
    /// every server thread.
    pub fn shutdown(mut self) {
        self.ctx.lifecycle.request_drain();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles = {
            let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *conns)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle still signals drain so the threads exit on
        // their own; only an explicit `shutdown()` joins them.
        self.ctx.lifecycle.request_drain();
    }
}

fn accept_loop(listener: TcpListener, ctx: Arc<Ctx>, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        if ctx.lifecycle.is_draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let ctx = Arc::clone(&ctx);
                let spawned = thread::Builder::new()
                    .name("guardrail-conn".to_string())
                    .spawn(move || serve_conn(stream, &ctx));
                match spawned {
                    Ok(handle) => {
                        conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                    }
                    Err(_) => {
                        // Thread exhaustion: shed the connection rather
                        // than die; the client sees a closed socket.
                    }
                }
            }
            // Nonblocking accept: nothing pending — nap, re-check drain.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_SLICE),
            Err(_) => thread::sleep(POLL_SLICE),
        }
    }
}

/// Serves one connection until close, timeout, violation, or drain.
fn serve_conn(mut stream: TcpStream, ctx: &Arc<Ctx>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_SLICE)).is_err() {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Clock for both timeouts: reset on each completed frame and when the
    // first byte of a new frame arrives.
    let mut wait_started = Instant::now();
    loop {
        // Drain every complete frame already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            wait_started = Instant::now();
            if !process_frame(&line[..line.len() - 1], &mut stream, ctx) {
                return;
            }
        }
        if ctx.lifecycle.is_draining() {
            return;
        }
        if buf.len() > ctx.config.max_frame_bytes {
            let err = WireError::new(
                ErrorKind::PayloadTooLarge,
                format!("frame exceeds {} bytes", ctx.config.max_frame_bytes),
            );
            ctx.count(Outcome::Error);
            let _ = write_line(&mut stream, &proto::render_err(None, &err));
            drain_before_close(&mut stream);
            return;
        }
        let limit = if buf.is_empty() { ctx.config.idle_timeout } else { ctx.config.read_timeout };
        if wait_started.elapsed() > limit {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed (possibly mid-frame: drop the partial)
            Ok(n) => {
                if buf.is_empty() {
                    wait_started = Instant::now();
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Parses and executes one frame; `false` closes the connection.
fn process_frame(raw: &[u8], stream: &mut TcpStream, ctx: &Arc<Ctx>) -> bool {
    let raw = match raw.last() {
        Some(b'\r') => &raw[..raw.len() - 1],
        _ => raw,
    };
    if raw.iter().all(u8::is_ascii_whitespace) {
        return true; // blank keep-alive line
    }
    let line = match std::str::from_utf8(raw) {
        Ok(s) => s,
        Err(_) => {
            ctx.count(Outcome::Error);
            let err = WireError::new(ErrorKind::BadRequest, "frame is not valid UTF-8");
            return write_line(stream, &proto::render_err(None, &err));
        }
    };
    let req = match proto::parse_request(line) {
        Ok(req) => req,
        Err(err) => {
            ctx.count(Outcome::Error);
            return write_line(stream, &proto::render_err(None, &err));
        }
    };
    let op = req.op;
    // Panic isolation: a poisoned request yields a typed INTERNAL error;
    // the admission permit (RAII) was released by the unwind.
    let response = match catch_unwind(AssertUnwindSafe(|| handlers::handle(ctx, &req))) {
        Ok((response, _outcome)) => response,
        Err(_) => {
            ctx.count(Outcome::Error);
            let err = WireError::new(ErrorKind::Internal, "handler panicked; request isolated");
            proto::render_err(Some(op), &err)
        }
    };
    write_line(stream, &response)
}

/// Lingering close after a protocol violation: half-close the write side,
/// then discard the client's remaining bytes (bounded) so the kernel does
/// not RST the connection with our typed error still unread by the peer.
fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(500) {
        match stream.read(&mut scratch) {
            Ok(0) => return, // peer finished: the close below is clean
            Ok(_) => {}      // discard
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    let ok = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
    ok.is_ok()
}
