//! Chaos harness: a minimal line-protocol client plus fault injectors.
//!
//! Everything here is plain `std::net` so the robustness suite exercises
//! the server over real sockets, not in-process shortcuts. The injectors
//! model the adversaries the server claims to survive:
//!
//! - [`slow_loris`] trickles a frame one byte at a time — the read-timeout
//!   defense must cut it loose.
//! - [`disconnect_mid_frame`] abandons a half-written frame — the partial
//!   must be dropped without poisoning anything.
//! - [`blast`] fires arbitrary bytes (fuzz garbage, oversized frames,
//!   deeply nested JSON) and returns whatever came back.

use guardrail_obs::json::{self, Json};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking NDJSON client for one connection.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with a 10 s read timeout (a hung test fails, not wedges).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with an explicit read timeout.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { writer: stream, reader })
    }

    /// Writes one request line (newline appended).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads one response line (newline stripped). `UnexpectedEof` when the
    /// server hung up.
    pub fn recv_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// One request/response round trip.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// One round trip with the response parsed as JSON (every server
    /// response must parse with the workspace's own parser).
    pub fn request(&mut self, line: &str) -> io::Result<Json> {
        let response = self.call(line)?;
        json::parse(&response).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("unparseable response: {e}"))
        })
    }
}

/// Trickles `frame` one byte every `byte_delay`, never completing it, for
/// at most `max_wall`. Returns how many bytes the server accepted before
/// hanging up (the read-timeout defense working).
pub fn slow_loris(
    addr: SocketAddr,
    frame: &[u8],
    byte_delay: Duration,
    max_wall: Duration,
) -> io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let started = Instant::now();
    let mut sent = 0;
    for byte in frame.iter().cycle() {
        if started.elapsed() > max_wall {
            break;
        }
        if stream.write_all(std::slice::from_ref(byte)).and_then(|()| stream.flush()).is_err() {
            break; // server cut us loose
        }
        sent += 1;
        std::thread::sleep(byte_delay);
    }
    Ok(sent)
}

/// Connects, writes `partial` with **no** terminating newline, and drops
/// the connection — a client dying mid-request.
pub fn disconnect_mid_frame(addr: SocketAddr, partial: &[u8]) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(partial)?;
    stream.flush()?;
    drop(stream); // RST/FIN with the frame incomplete
    Ok(())
}

/// Fires `payload` at the server, half-closes the write side, and returns
/// whatever bytes come back before `timeout` (possibly none). The caller
/// asserts on the response — typically that it is a typed error line, or
/// empty because the server hung up, but never a crash.
pub fn blast(addr: SocketAddr, payload: &[u8], timeout: Duration) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    // The server may hang up while we are still writing (oversize frames,
    // binary junk): a broken pipe or reset here is the injected fault
    // working, not a harness error.
    if stream.write_all(payload).and_then(|()| stream.flush()).is_err() {
        return Ok(Vec::new());
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    let started = Instant::now();
    loop {
        if started.elapsed() > timeout {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            // Timeout, reset, or pipe teardown all mean "no more bytes are
            // coming" — return whatever arrived first.
            Err(_) => break,
        }
    }
    Ok(out)
}
