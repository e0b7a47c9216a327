//! A hand-rolled TCP front end (std only, no async runtime) exposing
//! [`Server`] over a line protocol, with backpressure on the accept
//! path: past the connection cap, new connections are told
//! `err overloaded …` and closed immediately instead of being buffered.
//!
//! ## Protocol
//!
//! One request per line, one response line per request:
//!
//! | request                    | response                                                              |
//! |----------------------------|-----------------------------------------------------------------------|
//! | `ping`                     | `pong`                                                                |
//! | `stats`                    | `stats submitted=… admitted=… shed=… completed=… failed=… …`          |
//! | `infer <seed> <deadline_ms>` | `ok id=… class=… lat_us=… queued_us=… retries=… degraded=… missed=…` |
//! |                            | or `err overloaded <detail>` / `err deadline <detail>` / `err internal <detail>` |
//!
//! The request carries a *seed*, not pixels: inputs are the
//! deterministic [`synth_input`](crate::synth_input) stream, so a seed
//! pins the exact image (and golden logits) on both ends of the wire —
//! which is what lets the chaos load test prove bit-identity remotely.

use crate::server::{ServeResponse, Server};
use abm_fault::AbmError;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Concurrent connections served; further connects are refused
    /// immediately with `err overloaded` (accept-path backpressure).
    pub max_connections: usize,
    /// Per-connection read timeout; an idle connection past it is
    /// closed so drain cannot hang on a silent client.
    pub read_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_connections: 32,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Decrements the live-connection gauge when a connection ends,
/// however it ends.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The TCP front end: an accept loop plus one thread per live
/// connection, all over a shared [`Server`].
pub struct NetServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept: Option<std::thread::JoinHandle<()>>,
    server: Arc<Server>,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates the bind / local-address I/O error.
    pub fn bind(server: Arc<Server>, addr: &str, cfg: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let accept = {
            let stop = Arc::clone(&stop);
            let active = Arc::clone(&active);
            let server = Arc::clone(&server);
            std::thread::spawn(move || accept_loop(&listener, &cfg, &stop, &active, &server))
        };
        Ok(Self {
            local,
            stop,
            active,
            accept: Some(accept),
            server,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Live connections right now.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Stops accepting, waits for live connections to finish their
    /// in-flight lines, and returns the inference server for its own
    /// graceful [`Server::shutdown`].
    #[must_use]
    pub fn shutdown(mut self) -> Arc<Server> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads observe `stop` at their next read timeout
        // tick; bounded wait, then the read timeout itself bounds them.
        let waited = std::time::Instant::now();
        while self.active.load(Ordering::SeqCst) > 0 && waited.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        Arc::clone(&self.server)
    }
}

fn accept_loop(
    listener: &TcpListener,
    cfg: &NetConfig,
    stop: &Arc<AtomicBool>,
    active: &Arc<AtomicUsize>,
    server: &Arc<Server>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if active.load(Ordering::SeqCst) >= cfg.max_connections {
                    // Backpressure: refuse at the door, typed, cheap.
                    let _ = stream.write_all(b"err overloaded connection limit reached\n");
                    if abm_metrics::enabled() {
                        abm_metrics::global().add("serve_net_refused_total", 1);
                    }
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let guard = ConnGuard(Arc::clone(active));
                let server = Arc::clone(server);
                let stop = Arc::clone(stop);
                let timeout = cfg.read_timeout;
                std::thread::spawn(move || {
                    // Locals drop in reverse: the server handle goes before
                    // the guard counts the connection out, so `shutdown`
                    // never returns while a dead connection still owns it.
                    let (_guard, server) = (guard, server);
                    connection_loop(&stream, &server, &stop, timeout);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn connection_loop(
    stream: &TcpStream,
    server: &Arc<Server>,
    stop: &Arc<AtomicBool>,
    timeout: Duration,
) {
    // Short poll timeouts let the connection observe `stop` promptly;
    // `idle` enforces the configured read timeout across polls.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut idle = Duration::ZERO;
    loop {
        if stop.load(Ordering::SeqCst) || idle >= timeout {
            return;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client hung up
            Ok(_) => {
                idle = Duration::ZERO;
                let reply = handle_line(line.trim(), server);
                if writer.write_all(reply.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle += Duration::from_millis(50);
            }
            Err(_) => return,
        }
    }
}

/// Parses and executes one protocol line. Pure apart from the server
/// call — unit-testable without a socket.
fn handle_line(line: &str, server: &Arc<Server>) -> String {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("ping") => "pong".to_string(),
        Some("stats") => {
            let s = server.stats();
            format!(
                "stats submitted={} admitted={} shed={} completed={} failed={} deadline_cut={} \
                 deadline_missed={} retries={} degraded_batches={} chaos_injected={} \
                 watchdog_failovers={} batches={}",
                s.submitted,
                s.admitted,
                s.shed,
                s.completed,
                s.failed,
                s.deadline_cut,
                s.deadline_missed,
                s.retries,
                s.degraded_batches,
                s.chaos_injected,
                s.watchdog_failovers,
                s.batches
            )
        }
        Some("infer") => {
            let seed = parts.next().and_then(|s| s.parse::<u64>().ok());
            let deadline_ms = parts.next().and_then(|s| s.parse::<u64>().ok());
            let (Some(seed), Some(deadline_ms)) = (seed, deadline_ms) else {
                return "err proto usage: infer <seed> <deadline_ms>".to_string();
            };
            let input = crate::synth_input(server.input_shape(), seed);
            match server.submit(input, Duration::from_millis(deadline_ms)) {
                Ok(ticket) => render_response(&ticket.wait()),
                Err(e) => render_error(&e),
            }
        }
        Some(other) => format!("err proto unknown command {other}"),
        None => "err proto empty line".to_string(),
    }
}

fn render_response(r: &ServeResponse) -> String {
    match &r.outcome {
        Ok(out) => format!(
            "ok id={} class={} lat_us={} queued_us={} retries={} degraded={} missed={}",
            r.id,
            out.argmax,
            r.total_us,
            r.queued_us,
            r.retries,
            u8::from(r.degraded),
            u8::from(r.deadline_missed)
        ),
        Err(e) => render_error(e),
    }
}

fn render_error(e: &AbmError) -> String {
    let kind = match e.root_cause() {
        AbmError::Overloaded { .. } => "overloaded",
        AbmError::DeadlineExceeded { .. } => "deadline",
        _ => "internal",
    };
    format!("err {kind} {e}")
}
