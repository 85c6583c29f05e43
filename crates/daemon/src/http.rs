//! A minimal HTTP/1.1 front end over `std::net` (the toolchain is
//! offline — no async runtime; one short-lived thread per connection,
//! `Connection: close` semantics).
//!
//! Routes (all request/response bodies are JSON):
//!
//! | method | path | body → response |
//! |---|---|---|
//! | POST | `/v1/scenarios` | `ScenarioSpec` → `{"session": id}` |
//! | GET  | `/v1/sessions/{id}` | → `SessionView` |
//! | POST | `/v1/sessions/{id}/pause` | → `{"ok": true}` |
//! | POST | `/v1/sessions/{id}/resume` | → `{"ok": true}` |
//! | POST | `/v1/sessions/{id}/cancel` | → `{"ok": true}` |
//! | GET  | `/v1/sessions/{id}/events?since=N&wait_ms=M` | → `{"events": […], "next": n}` (long-poll) |
//! | GET  | `/v1/runs?hash=H` | → `{"runs": […]}` |
//! | GET  | `/v1/cache` | → `CacheStats` |
//! | POST | `/v1/shutdown` | → `{"ok": true}`, then the daemon and server stop |
//!
//! Invalid scenarios come back as HTTP 400 with `{"error": …}` carrying
//! the typed builder error's message; unknown sessions are 404. A body
//! larger than [`MAX_BODY_BYTES`] is a 400 too, refused before anything
//! is allocated for it, and so is a request or header line longer than
//! [`MAX_LINE_BYTES`] or a request with more than [`MAX_HEADERS`]
//! header lines: the server never buffers more than that per request
//! head.

use crate::daemon::Daemon;
use crate::wire::{ErrorResponse, EventsResponse, OkResponse, RunsResponse, SubmitResponse};
use overlap_core::ScenarioSpec;
use serde::Serialize;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest long-poll wait a client may request.
const MAX_WAIT_MS: u64 = 30_000;

/// Largest request body the server reads. The body buffer is sized from
/// `Content-Length`, so a larger claim is rejected before allocating.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Longest request or header line the server reads, line terminator
/// included. A longer line is refused without reading the rest of it.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines one request may carry.
pub const MAX_HEADERS: usize = 100;

/// After refusing a request, at most this many bytes of it are read and
/// discarded, for at most [`DRAIN_TIME`] (see [`drain_refused`]).
const MAX_DRAIN_BYTES: u64 = 4 << 20;
const DRAIN_TIME: Duration = Duration::from_secs(2);

/// A running HTTP server. Stops when [`stop`](Server::stop) is called,
/// a client POSTs `/v1/shutdown`, or the value is dropped.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept loop. The daemon
    /// itself keeps running (shut it down separately). Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` and serve `daemon` until stopped.
pub fn serve(daemon: Arc<Daemon>, addr: &str) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name("overlap-daemon-http".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if loop_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let daemon = Arc::clone(&daemon);
                let stop = Arc::clone(&loop_stop);
                let _ = std::thread::Builder::new()
                    .name("overlap-daemon-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &daemon, &stop);
                    });
            }
        })?;
    Ok(Server {
        addr,
        stop,
        accept: Some(accept),
    })
}

fn handle_connection(mut stream: TcpStream, daemon: &Daemon, stop: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let (method, path, body) = match read_request(&mut stream) {
        Ok(req) => req,
        Err(e) => {
            let sent = respond(
                &mut stream,
                400,
                &ErrorResponse {
                    error: format!("bad request: {e}"),
                },
            );
            drain_refused(&mut stream);
            return sent;
        }
    };
    let (raw_path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path.as_str(), ""),
    };
    let parts: Vec<&str> = raw_path.trim_matches('/').split('/').collect();
    match (method.as_str(), parts.as_slice()) {
        ("POST", ["v1", "scenarios"]) => match serde_json::from_str::<ScenarioSpec>(&body) {
            Ok(spec) => match daemon.submit(spec) {
                Ok(session) => respond(&mut stream, 200, &SubmitResponse { session }),
                Err(e) => respond(
                    &mut stream,
                    400,
                    &ErrorResponse {
                        error: e.to_string(),
                    },
                ),
            },
            Err(e) => respond(
                &mut stream,
                400,
                &ErrorResponse {
                    error: format!("malformed scenario: {e}"),
                },
            ),
        },
        ("GET", ["v1", "sessions", id]) => {
            match id.parse::<u64>().ok().and_then(|i| daemon.status(i)) {
                Some(view) => respond(&mut stream, 200, &view),
                None => not_found(&mut stream),
            }
        }
        ("POST", ["v1", "sessions", id, verb @ ("pause" | "resume" | "cancel")]) => {
            let ok = id.parse::<u64>().is_ok_and(|i| match *verb {
                "pause" => daemon.pause(i),
                "resume" => daemon.resume(i),
                _ => daemon.cancel(i),
            });
            if ok {
                respond(&mut stream, 200, &OkResponse { ok: true })
            } else {
                not_found(&mut stream)
            }
        }
        ("GET", ["v1", "sessions", id, "events"]) => {
            let since = query_u64(query, "since").unwrap_or(0) as usize;
            let wait =
                Duration::from_millis(query_u64(query, "wait_ms").unwrap_or(0).min(MAX_WAIT_MS));
            match id
                .parse::<u64>()
                .ok()
                .and_then(|i| daemon.events_since(i, since, wait))
            {
                Some(events) => {
                    let next = since as u64 + events.len() as u64;
                    respond(&mut stream, 200, &EventsResponse { events, next })
                }
                None => not_found(&mut stream),
            }
        }
        ("GET", ["v1", "runs"]) => match daemon.runs(query_u64(query, "hash")) {
            Ok(runs) => respond(&mut stream, 200, &RunsResponse { runs }),
            Err(e) => respond(
                &mut stream,
                500,
                &ErrorResponse {
                    error: format!("store: {e}"),
                },
            ),
        },
        ("GET", ["v1", "cache"]) => respond(&mut stream, 200, &daemon.cache_stats()),
        ("POST", ["v1", "shutdown"]) => {
            // Shut down before answering, so a client that got the answer
            // can rely on the daemon being down.
            stop.store(true, Ordering::SeqCst);
            daemon.shutdown();
            let r = respond(&mut stream, 200, &OkResponse { ok: true });
            // Unblock our own accept loop.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            r
        }
        _ => not_found(&mut stream),
    }
}

/// Parse one request: `(method, path-with-query, body)`.
fn read_request(stream: &mut TcpStream) -> io::Result<(String, String, String)> {
    let mut reader = BufReader::new(stream);
    let line = read_line(&mut reader)?;
    let mut head = line.split_whitespace();
    let (method, path) = match (head.next(), head.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed request line",
            ))
        }
    };
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = read_line(&mut reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("more than {MAX_HEADERS} header lines"),
            ));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok((method, path, body))
}

/// Close the sending side of a refused request's connection, then read
/// and discard what the client is still sending, up to
/// [`MAX_DRAIN_BYTES`] or [`DRAIN_TIME`]. Closing a socket with unread
/// input resets the connection, and the reset can destroy the refusal
/// before the client reads it.
fn drain_refused(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_TIME));
    let deadline = Instant::now() + DRAIN_TIME;
    let mut buf = [0u8; 8192];
    let mut left = MAX_DRAIN_BYTES;
    while left > 0 && Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n as u64),
        }
    }
}

/// Read one line of at most [`MAX_LINE_BYTES`] bytes. Reading stops at
/// the limit, so an endless line costs a bounded buffer, not memory.
fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    let n = reader.take(MAX_LINE_BYTES as u64).read_line(&mut line)?;
    if n == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
        ));
    }
    Ok(line)
}

fn query_u64(query: &str, name: &str) -> Option<u64> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| v.parse().ok()).flatten()
    })
}

fn respond<T: Serialize>(stream: &mut TcpStream, status: u16, body: &T) -> io::Result<()> {
    let body = serde_json::to_string(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn not_found(stream: &mut TcpStream) -> io::Result<()> {
    respond(
        stream,
        404,
        &ErrorResponse {
            error: "not found".into(),
        },
    )
}
