//! Pooled NDJSON/TCP client connections to a remote shard server.
//!
//! The multi-process router ([`crate::frontdoor::RouteProxy`]) proxies
//! the serving protocol to N upstream shard servers, each an ordinary
//! `ocqa serve --shards 1` over its own `shard-<k>/` store. This module
//! is the transport: one [`Upstream`] per shard server, holding a small
//! pool of **persistent** TCP connections (sessions are cheap to keep
//! and expensive to re-dial per request) and speaking exactly the
//! newline-delimited line discipline of [`crate::server`] — one request
//! line out, one response line back, both strict UTF-8. Responses are
//! read under a much larger bound than client requests
//! ([`MAX_RESPONSE_BYTES`] vs [`crate::server::MAX_LINE_BYTES`]): the
//! serving engine does not bound its own response lines, and a response
//! the in-process deployment would serve must not fail through the
//! router.
//!
//! # Reconnect
//!
//! A pooled connection can go stale at any time: the upstream was
//! restarted (the crash-recovery story), an idle TCP session timed out,
//! or the peer closed mid-exchange. [`Upstream::exchange`] retries such
//! failures **once** on a freshly dialed connection before reporting the
//! upstream unavailable — so an upstream SIGKILL + restart is absorbed
//! by the very next request instead of poisoning the pool. The retry
//! re-sends the request, making delivery at-least-once; every protocol
//! mutation is either idempotent or fails loudly on replay
//! (`create_db` of an existing name errors), so the router never
//! silently double-applies.
//!
//! # Health
//!
//! Each upstream tracks whether its last exchange succeeded
//! ([`Upstream::healthy`]), how many times it had to re-dial
//! ([`Upstream::reconnects`]), and the last transport error
//! ([`Upstream::last_error`]) — the router's observable per-upstream
//! state, reported in error payloads and startup logs.

use crate::error::EngineError;
use crate::json::Json;
use crate::obs::{HistSnapshot, Histogram};
use crate::server::{read_frame_limit, write_line, Frame};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Idle connections retained per upstream. More concurrent exchanges
/// than this simply dial extra connections and drop them afterwards.
const POOL_CAP: usize = 8;

/// How long a dial may take before the upstream counts as down. Dialing
/// is the only bounded wait: an *established* exchange may legitimately
/// block for as long as a sampling run takes, so reads are not capped.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on one upstream *response* line. Requests are client-sized
/// ([`crate::server::MAX_LINE_BYTES`]), but responses carry whole
/// answer sets and merged catalogs, which the serving engine does not
/// bound — a response the in-process deployment would serve must not
/// fail through the router. The cap only guards router memory against a
/// garbage-spewing peer.
const MAX_RESPONSE_BYTES: u64 = 256 << 20;

/// One persistent session to an upstream server.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn dial(addr: &str) -> std::io::Result<Conn> {
        // `connect_timeout` needs a resolved SocketAddr; resolve first.
        let resolved = std::net::ToSocketAddrs::to_socket_addrs(addr)?
            .next()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                )
            })?;
        let stream = TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request/response exchange on this session.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        write_line(&mut self.writer, line)?;
        match read_frame_limit(&mut self.reader, MAX_RESPONSE_BYTES)? {
            Frame::Line(resp) => Ok(resp),
            Frame::Eof => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            )),
            Frame::TooLong => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response line longer than {MAX_RESPONSE_BYTES} bytes"),
            )),
            Frame::NotUtf8 => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "response line is not valid UTF-8",
            )),
        }
    }
}

/// A remote shard server: address, connection pool and health state.
pub struct Upstream {
    addr: String,
    idle: Mutex<Vec<Conn>>,
    healthy: AtomicBool,
    reconnects: AtomicU64,
    last_error: Mutex<Option<String>>,
    /// Dial latency (successful dials only) — slow dials are the early
    /// signal of a struggling upstream, before exchanges start failing.
    dial: Histogram,
    /// The `replication_lag` this upstream reported on its most recent
    /// successful [`probe`](Upstream::probe). Non-zero means its standby
    /// detached mid-stream and has missed acked writes — the router's
    /// failover path refuses to promote such a standby.
    probed_lag: AtomicU64,
}

impl Upstream {
    /// An upstream at `addr` (`host:port`). No connection is made until
    /// the first [`exchange`](Upstream::exchange).
    pub fn new(addr: impl Into<String>) -> Upstream {
        Upstream {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
            healthy: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
            last_error: Mutex::new(None),
            dial: Histogram::new(),
            probed_lag: AtomicU64::new(0),
        }
    }

    /// The upstream's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the most recent exchange succeeded.
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Times an exchange had to re-dial after a stale pooled connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// The last transport error observed, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Latency histogram of successful dials to this upstream.
    pub fn dial_snapshot(&self) -> HistSnapshot {
        self.dial.snapshot()
    }

    /// This upstream's health block, as rendered in the router's `stats`
    /// and `metrics` responses: address, liveness, reconnect count, last
    /// transport error (when one is outstanding), and dial latency.
    pub fn health_json(&self) -> Json {
        let mut o = Json::obj([
            ("addr", Json::from(self.addr.clone())),
            ("dial", self.dial.snapshot().to_json()),
            ("healthy", Json::from(self.healthy())),
            ("reconnects", Json::from(self.reconnects())),
        ]);
        if let Some(err) = self.last_error() {
            o.set("last_error", Json::from(err));
        }
        o
    }

    /// Sends one request line and returns the raw response line.
    ///
    /// Pops an idle pooled connection (or dials a fresh one), performs
    /// the exchange, and returns the connection to the pool on success.
    /// A failed exchange on a **pooled** connection is retried once on a
    /// fresh dial — the stale-session case; see the module docs. Failures
    /// after that surface as [`EngineError::Unavailable`].
    pub fn exchange(&self, line: &str) -> Result<String, EngineError> {
        for attempt in 0..2u8 {
            let (mut conn, pooled) = match self.idle.lock().pop() {
                Some(conn) => (conn, true),
                None => {
                    let t = Instant::now();
                    match Conn::dial(&self.addr) {
                        Ok(conn) => {
                            self.dial.record(t.elapsed());
                            (conn, false)
                        }
                        Err(e) => return Err(self.down(format!("connect: {e}"))),
                    }
                }
            };
            match conn.roundtrip(line) {
                Ok(resp) => {
                    let mut idle = self.idle.lock();
                    if idle.len() < POOL_CAP {
                        idle.push(conn);
                    }
                    drop(idle);
                    self.healthy.store(true, Ordering::Relaxed);
                    *self.last_error.lock() = None;
                    return Ok(resp);
                }
                // Only transport failures on a *pooled* session retry: a
                // stale connection (upstream restarted, idle drop) is the
                // one case where a fresh dial can change the outcome.
                // Protocol-level garbage (`InvalidData`: overlong or
                // non-UTF-8 response) is terminal — re-sending would just
                // re-run the upstream's work for the same reply.
                Err(e) if pooled && attempt == 0 && e.kind() != std::io::ErrorKind::InvalidData => {
                    // Discard every pooled connection — they all predate
                    // the failure — and retry on a fresh dial.
                    self.idle.lock().clear();
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(self.down(format!("exchange: {e}"))),
            }
        }
        Err(self.down("reconnect retry exhausted".into()))
    }

    /// One lightweight background health probe: a `stats` exchange over
    /// the ordinary pool. Because [`exchange`](Upstream::exchange) dials
    /// fresh connections when the pool is empty and retries a stale
    /// pooled session once, a probe both *detects* a dead upstream
    /// (flipping [`healthy`](Upstream::healthy) before any client
    /// request observes the failure) and *hot re-dials* a recovered one
    /// — so a long-idle router pays the reconnect on the probe cadence,
    /// never on a client's request.
    ///
    /// A successful probe also records the upstream's reported
    /// `replication_lag` (read back via `probed_lag()`): the router's
    /// failover path checks the last observed value before promoting a
    /// standby, since a lagging standby missed acked writes.
    pub fn probe(&self) -> Result<(), EngineError> {
        let resp = self.exchange(r#"{"op":"stats"}"#)?;
        if let Some(lag) = crate::json::parse(&resp)
            .ok()
            .and_then(|v| v.get("replication_lag").and_then(Json::as_u64))
        {
            self.probed_lag.store(lag, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The `replication_lag` reported by this upstream's most recent
    /// successful probe (`0` until a probe has seen the field).
    pub fn probed_lag(&self) -> u64 {
        self.probed_lag.load(Ordering::Relaxed)
    }

    fn down(&self, detail: String) -> EngineError {
        self.healthy.store(false, Ordering::Relaxed);
        *self.last_error.lock() = Some(detail.clone());
        EngineError::Unavailable(format!("{}: {detail}", self.addr))
    }

    /// Dials a **dedicated** session for a routed subscription. The
    /// caller owns the connection for the subscription's lifetime —
    /// pushed frames arrive on it asynchronously, so it can never serve
    /// pooled request/response exchanges and is never returned to the
    /// pool.
    pub fn dial_stream(&self) -> Result<StreamSession, EngineError> {
        let t = Instant::now();
        match Conn::dial(&self.addr) {
            Ok(conn) => {
                self.dial.record(t.elapsed());
                Ok(StreamSession {
                    reader: conn.reader,
                    stream: conn.writer,
                })
            }
            Err(e) => Err(self.down(format!("connect: {e}"))),
        }
    }
}

/// A dedicated NDJSON session to an upstream — the transport of one
/// routed subscription (see [`Upstream::dial_stream`]). The route proxy
/// sends the `subscribe` line, reads the response, then hands the
/// session to a relay thread that forwards every further line (the
/// upstream's pushed frames) to the client **verbatim**.
pub struct StreamSession {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl StreamSession {
    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.stream, line)
    }

    /// Reads one line (a response or a pushed frame) under the upstream
    /// response bound.
    pub fn read(&mut self) -> std::io::Result<Frame> {
        read_frame_limit(&mut self.reader, MAX_RESPONSE_BYTES)
    }

    /// A clone of the underlying socket, so another thread (an
    /// `unsubscribe`, a disconnecting client) can shut the session down
    /// and unblock the relay's read.
    pub fn shutdown_handle(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A server that answers `n` requests per connection, then hangs up.
    fn flaky_echo_server(listener: TcpListener, per_conn: usize) {
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { return };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                for _ in 0..per_conn {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    let resp = format!("{{\"echo\":{}}}", line.trim_end().len());
                    if write_line(&mut stream, &resp).is_err() {
                        break;
                    }
                }
                // Connection dropped here: the client's pooled session
                // goes stale.
            }
        });
    }

    #[test]
    fn pooled_connection_reused_and_restored_after_staleness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        flaky_echo_server(listener, 1); // every connection serves once
        let up = Upstream::new(addr);
        assert!(!up.healthy(), "no exchange yet");
        assert_eq!(up.exchange(r#"{"op":"x"}"#).unwrap(), r#"{"echo":10}"#);
        assert!(up.healthy());
        // The pooled session is already dead; the next exchange must ride
        // the reconnect path and still succeed.
        assert_eq!(up.exchange(r#"{"op":"xy"}"#).unwrap(), r#"{"echo":11}"#);
        assert!(up.reconnects() >= 1, "stale pool must re-dial");
        assert!(up.healthy());
        assert!(up.last_error().is_none());
    }

    #[test]
    fn dead_upstream_reports_unavailable_then_recovers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener); // nothing is listening
        let up = Upstream::new(addr.clone());
        let err = up.exchange(r#"{"op":"x"}"#).unwrap_err();
        assert!(
            matches!(err, EngineError::Unavailable(_)),
            "expected Unavailable, got {err:?}"
        );
        assert!(!up.healthy());
        assert!(up.last_error().is_some());
        // The "restart": a server appears on the same address and the
        // same Upstream serves again without being rebuilt.
        let listener = TcpListener::bind(&addr).expect("rebind test port");
        flaky_echo_server(listener, usize::MAX);
        assert_eq!(up.exchange(r#"{"op":"x"}"#).unwrap(), r#"{"echo":10}"#);
        assert!(up.healthy());
        assert!(up.last_error().is_none());
    }
}
