//! Protocol transports: newline-delimited JSON over stdio or TCP.
//!
//! The transports are generic over [`LineService`] — anything that can
//! turn one request line into one response line. Two services exist:
//! the in-process [`Engine`](crate::Engine) and the multi-process
//! [`RouteProxy`](crate::RouteProxy), so the same session and accept
//! loops serve both `ocqa serve` and `ocqa route`.
//!
//! # Wire discipline
//!
//! Every NDJSON line this crate puts on a socket — replies, pushed
//! frames, and the router's and replicator's requests upstream — leaves
//! through [`write_line`] in **one** `write`, on a socket with
//! `TCP_NODELAY` set (accepted here, dialled in [`crate::upstream`]).
//! Writing the line and its `\n` separately lets Nagle's algorithm hold
//! the lone newline until the peer ACKs the first segment, and the peer
//! delays that ACK by ~40 ms: every reply would pay a 40 ms stall.
//! Reading stays linear in the line length up to [`MAX_LINE_BYTES`]:
//! each byte is scanned for the newline once.

use crate::subscribe::PushSession;
use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Longest request line a session accepts. Reading lines unbounded would
/// let one client buffer arbitrary memory server-side by never sending a
/// newline; past this limit the session is told off and closed. Sized to
/// admit `install_snapshot` requests — a rebalance ships a database's
/// whole base64 transfer image as one line — while still bounding what a
/// misbehaving client can pin.
pub const MAX_LINE_BYTES: u64 = 64 << 20;

/// Reply to a request line longer than [`MAX_LINE_BYTES`]; the session
/// then closes. Shared by both line disciplines (stdio sessions and the
/// pooled TCP workers).
fn line_too_long_reply() -> String {
    format!(r#"{{"ok":false,"error":"request line longer than {MAX_LINE_BYTES} bytes"}}"#)
}

/// Reply to a request line that is not valid UTF-8; the session goes on.
const NOT_UTF8_REPLY: &str = r#"{"ok":false,"error":"request line is not valid UTF-8"}"#;

/// Anything that serves the NDJSON protocol one line at a time.
pub trait LineService: Send + Sync {
    /// Handles one non-empty request line (no trailing newline),
    /// returning the single-line response (no trailing newline).
    fn serve_line(&self, line: &str) -> String;

    /// [`serve_line`](LineService::serve_line) on a *duplex* session —
    /// one that can receive asynchronous pushed frames through
    /// `session`, which is what makes `subscribe` servable. The default
    /// ignores the session and serves statelessly, so transports that
    /// cannot interleave pushes (stdio) and services without streaming
    /// support keep their exact historical behavior.
    fn serve_open_line(&self, line: &str, _session: &PushSession) -> String {
        self.serve_line(line)
    }
}

/// One framed read off an NDJSON stream: the shared line discipline of
/// every transport in this crate (sessions *and* the router's upstream
/// client connections — see [`crate::upstream`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line, newline stripped.
    Line(String),
    /// The stream ended cleanly before another line.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`].
    TooLong,
    /// The line was not valid UTF-8. Lossily decoding instead would
    /// silently mangle corrupt bytes into U+FFFD — and a database name
    /// or query text would then be *installed under the mangled bytes*
    /// rather than rejected.
    NotUtf8,
}

/// Reads one line under the shared discipline: bounded, strict UTF-8.
pub fn read_frame(input: &mut impl BufRead) -> io::Result<Frame> {
    read_frame_limit(input, MAX_LINE_BYTES)
}

/// [`read_frame`] with an explicit length bound. Sessions bound client
/// *requests* at [`MAX_LINE_BYTES`]; the router's upstream client reads
/// *responses* (answer payloads and merged lists are much larger than
/// any request) under a more generous bound.
pub fn read_frame_limit(input: &mut impl BufRead, max_bytes: u64) -> io::Result<Frame> {
    let mut buf = Vec::new();
    // Read one byte past the limit so a newline-less final line of
    // exactly `max_bytes` at EOF is still accepted; only a line
    // strictly longer trips the guard.
    let n = input.take(max_bytes + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n as u64 > max_bytes {
        return Ok(Frame::TooLong);
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Frame::Line(line)),
        Err(_) => Ok(Frame::NotUtf8),
    }
}

/// Writes one NDJSON line: `line` and its `\n` in a single `write_all`,
/// then a flush. The only way a line leaves this crate (see the module
/// docs for why it must be one write).
pub fn write_line(out: &mut impl Write, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    out.write_all(&buf)?;
    out.flush()
}

/// Serves one session: each input line is a request, each output line the
/// response. Returns when the input ends (or a request line exceeds
/// [`MAX_LINE_BYTES`]). Blank lines are ignored; non-UTF-8 lines are
/// rejected with an `"ok":false` error but do not end the session.
pub fn serve_session<S: LineService + ?Sized>(
    service: &S,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    loop {
        let line = match read_frame(&mut input)? {
            Frame::Eof => return Ok(()),
            Frame::TooLong => return write_line(&mut output, &line_too_long_reply()),
            Frame::NotUtf8 => {
                write_line(&mut output, NOT_UTF8_REPLY)?;
                continue;
            }
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        write_line(&mut output, &service.serve_line(line.trim_end()))?;
    }
}

/// Serves stdin/stdout (the `ocqa serve` / `ocqa route` default).
pub fn serve_stdio<S: LineService + ?Sized>(service: &S) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_session(service, stdin.lock(), stdout.lock())
}

/// How the accept loop responds to an `accept` failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptDisposition {
    /// Per-connection noise (the peer hung up before we accepted):
    /// keep accepting immediately.
    Transient,
    /// Resource exhaustion (out of file descriptors / buffers): back off
    /// briefly so in-flight sessions can release resources, then keep
    /// accepting. Returning instead would turn a load spike into a full
    /// outage.
    Throttle,
    /// The listener itself is broken: stop serving.
    Fatal,
}

/// Pause before re-accepting after a resource-exhaustion failure.
const ACCEPT_THROTTLE: Duration = Duration::from_millis(100);

fn classify_accept_error(e: &io::Error) -> AcceptDisposition {
    use io::ErrorKind;
    match e.kind() {
        // The connection died between the kernel queue and our accept —
        // a fact about that one client, not about the listener.
        ErrorKind::ConnectionAborted
        | ErrorKind::ConnectionReset
        | ErrorKind::Interrupted
        | ErrorKind::TimedOut
        | ErrorKind::WouldBlock => AcceptDisposition::Transient,
        _ => match e.raw_os_error() {
            // EMFILE/ENFILE (process/system fd limits), ENOMEM, and
            // ENOBUFS (105 Linux, 55 BSD/macOS): the *server* is
            // saturated — throttle and retry rather than die.
            Some(24) | Some(23) | Some(12) | Some(105) | Some(55) => AcceptDisposition::Throttle,
            _ => AcceptDisposition::Fatal,
        },
    }
}

/// How long a connection worker blocks on an idle session's socket
/// before parking it back on the queue. This is also the pool's natural
/// pacing: visiting an idle connection costs one bounded read, so a
/// worker sweeps at most a few thousand parked sessions per second
/// instead of spinning.
const CONN_POLL_TIMEOUT: Duration = Duration::from_micros(500);

fn default_conn_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        * 2
}

/// One multiplexed TCP session's state between worker visits: the socket
/// (read side, with [`CONN_POLL_TIMEOUT`] armed), the writer shared with
/// an optional push-notifier thread, and whatever bytes arrived without
/// completing a line yet.
struct Conn {
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    session: PushSession,
    acc: Vec<u8>,
    notifier: Option<std::thread::JoinHandle<()>>,
}

/// Parked sessions waiting for a worker visit.
struct ConnQueue {
    conns: Mutex<VecDeque<Conn>>,
    available: Condvar,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue {
            conns: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }
    }

    fn push(&self, conn: Conn) {
        self.conns
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push_back(conn);
        self.available.notify_one();
    }

    fn pop(&self) -> Conn {
        let mut conns = self
            .conns
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        loop {
            if let Some(conn) = conns.pop_front() {
                return conn;
            }
            conns = self
                .available
                .wait(conns)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// What a worker visit concluded about a session.
enum Slice {
    /// The socket went quiet mid-session: park it for a later visit.
    Park,
    /// The session ended (EOF, protocol violation, or I/O error).
    Closed,
}

/// Accept loop: a **bounded** pool of connection workers multiplexes
/// every session, so 10k idle connections hold 10k parked [`Conn`]
/// records instead of pinning 10k OS threads. Runs until the listener
/// fails **fatally** — transient per-connection failures
/// (`ECONNABORTED`-class) and resource exhaustion (`EMFILE`-class, with
/// a brief back-off) keep the loop alive, so one misbehaving client or
/// a load spike cannot take the whole server down.
pub fn serve_listener<S: LineService + 'static>(
    service: Arc<S>,
    listener: TcpListener,
) -> io::Result<()> {
    serve_listener_with(service, listener, 0)
}

/// [`serve_listener`] with an explicit connection-worker count
/// (`--conn-workers`); `0` auto-sizes to detected cores × 2.
pub fn serve_listener_with<S: LineService + 'static>(
    service: Arc<S>,
    listener: TcpListener,
    conn_workers: usize,
) -> io::Result<()> {
    accept_loop(
        service,
        || listener.accept().map(|(stream, _)| stream),
        conn_workers,
    )
}

/// [`serve_listener_with`] with the accept source abstracted, so tests
/// can inject failing accepts.
fn accept_loop<S: LineService + 'static>(
    service: Arc<S>,
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    conn_workers: usize,
) -> io::Result<()> {
    let conn_workers = if conn_workers == 0 {
        default_conn_workers()
    } else {
        conn_workers
    };
    let queue = Arc::new(ConnQueue::new());
    let mut spawned = 0;
    let mut spawn_err = None;
    for i in 0..conn_workers {
        let service = service.clone();
        let queue = queue.clone();
        match std::thread::Builder::new()
            .name(format!("ocqa-conn-worker-{i}"))
            .spawn(move || conn_worker_loop(&*service, &queue))
        {
            // Detached: workers outlive a fatal accept error, so in-flight
            // sessions still finish.
            Ok(_) => spawned += 1,
            Err(e) => spawn_err = Some(e),
        }
    }
    if spawned == 0 {
        return Err(spawn_err.unwrap_or_else(|| io::Error::other("no connection workers")));
    }
    loop {
        let stream = match accept() {
            Ok(stream) => stream,
            Err(e) => match classify_accept_error(&e) {
                AcceptDisposition::Transient => continue,
                AcceptDisposition::Throttle => {
                    std::thread::sleep(ACCEPT_THROTTLE);
                    continue;
                }
                AcceptDisposition::Fatal => return Err(e),
            },
        };
        // A connection we cannot arm is dropped (closed), never enqueued:
        // a worker would otherwise block its full slice on it forever.
        let armed = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(CONN_POLL_TIMEOUT)))
            .and_then(|()| stream.try_clone());
        if let Ok(writer) = armed {
            queue.push(Conn {
                stream,
                writer: Arc::new(Mutex::new(writer)),
                session: PushSession::new(),
                acc: Vec::new(),
                notifier: None,
            });
        }
    }
}

fn conn_worker_loop<S: LineService + ?Sized>(service: &S, queue: &ConnQueue) {
    loop {
        let mut conn = queue.pop();
        // Panic isolation: a panicking request handler must cost that
        // session, not permanently shrink the worker pool.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service_slice(service, &mut conn)
        }));
        match outcome {
            Ok(Slice::Park) => queue.push(conn),
            Ok(Slice::Closed) | Err(_) => close_conn(conn),
        }
    }
}

fn close_conn(mut conn: Conn) {
    conn.session.close();
    if let Some(handle) = conn.notifier.take() {
        let _ = handle.join();
    }
}

/// One worker visit: serve every complete buffered line, then read until
/// the socket goes quiet ([`CONN_POLL_TIMEOUT`]) or closes. The line
/// discipline matches [`serve_session`]: bounded length, strict UTF-8,
/// blank lines skipped.
fn service_slice<S: LineService + ?Sized>(service: &S, conn: &mut Conn) -> Slice {
    let mut buf = [0u8; 4096];
    // `acc[..scanned]` holds no newline: a visit parks only after
    // draining every complete line, so each byte is scanned once and a
    // long line is framed in linear time.
    let mut scanned = conn.acc.len();
    loop {
        while let Some(i) = conn.acc[scanned..].iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = conn.acc.drain(..=scanned + i).collect();
            scanned = 0; // what followed the newline is unscanned
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if serve_conn_line(service, conn, line).is_err() {
                return Slice::Closed;
            }
        }
        if conn.acc.len() as u64 > MAX_LINE_BYTES {
            let _ = send_locked(&conn.writer, &line_too_long_reply());
            return Slice::Closed;
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // A final newline-less line at EOF is still served, the
                // same acceptance read_frame gives stdio sessions.
                if !conn.acc.is_empty() {
                    let line = std::mem::take(&mut conn.acc);
                    let _ = serve_conn_line(service, conn, line);
                }
                return Slice::Closed;
            }
            Ok(n) => {
                scanned = conn.acc.len();
                conn.acc.extend_from_slice(&buf[..n]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Slice::Park;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Slice::Closed,
        }
    }
}

fn serve_conn_line<S: LineService + ?Sized>(
    service: &S,
    conn: &mut Conn,
    raw: Vec<u8>,
) -> io::Result<()> {
    let line = match String::from_utf8(raw) {
        Ok(line) => line,
        Err(_) => return send_locked(&conn.writer, NOT_UTF8_REPLY),
    };
    if line.trim().is_empty() {
        return Ok(());
    }
    let response = service.serve_open_line(line.trim_end(), &conn.session);
    send_locked(&conn.writer, &response)?;
    ensure_notifier(conn);
    Ok(())
}

/// Spawns the session's dedicated push-notifier thread the first time it
/// actually holds a subscription. Plain request/response sessions never
/// get one — that laziness is what lets a bounded worker pool carry
/// thousands of idle connections — while subscribe sessions keep the
/// dedicated writer that delivers pushes even while the connection is
/// parked.
fn ensure_notifier(conn: &mut Conn) {
    if conn.notifier.is_some() || conn.session.sub_count() == 0 {
        return;
    }
    let writer = conn.writer.clone();
    let session = conn.session.clone();
    conn.notifier = std::thread::Builder::new()
        .name("ocqa-push".into())
        .spawn(move || push_notifier_loop(&writer, &session))
        .ok();
}

/// Drains a session's push queue onto its socket until the session
/// closes or the client disappears.
fn push_notifier_loop(writer: &Mutex<impl Write>, session: &PushSession) {
    while let Some(frame) = session.pop_wait() {
        if send_locked(writer, &frame).is_err() {
            // The client is gone; the reader side will see EOF and close
            // too, but don't spin until then.
            session.close();
            return;
        }
    }
}

fn send_locked(writer: &Mutex<impl Write>, line: &str) -> io::Result<()> {
    let mut out = writer
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    write_line(&mut *out, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use std::io::BufReader;

    fn engine() -> Arc<Engine> {
        Engine::new(EngineConfig {
            workers: 1,
            cache_capacity: 8,
            ..EngineConfig::default()
        })
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter(Vec<Vec<u8>>);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl CountingWriter {
        /// Everything written, asserting it arrived as exactly one
        /// `write` per line.
        fn lines_one_write_each(&self) -> String {
            for w in &self.0 {
                assert!(
                    w.last() == Some(&b'\n') && w.iter().filter(|&&b| b == b'\n').count() == 1,
                    "a write that is not one whole line: {:?}",
                    String::from_utf8_lossy(w)
                );
            }
            String::from_utf8(self.0.concat()).unwrap()
        }
    }

    #[test]
    fn session_replies_leave_in_one_write_each() {
        let engine = engine();
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"op\":\"ping\"}\n\n");
        input.extend_from_slice(b"{\"op\":\"nope\"}\n");
        input.extend_from_slice(b"\xFF\n");
        input.extend_from_slice(b"{\"op\":\"ping\"}");
        let mut out = CountingWriter::default();
        serve_session(&*engine, &input[..], &mut out).unwrap();
        let text = out.lines_one_write_each();
        assert_eq!(out.0.len(), 4, "{text}");
        assert!(text.contains("pong") && text.contains("not valid UTF-8"));
    }

    #[test]
    fn pushed_frames_and_conn_replies_leave_in_one_write_each() {
        // `send_locked` carries every reply of a pooled TCP session and,
        // through the notifier, every pushed frame.
        let writer = Mutex::new(CountingWriter::default());
        send_locked(&writer, NOT_UTF8_REPLY).unwrap();
        send_locked(&writer, &line_too_long_reply()).unwrap();
        let session = PushSession::new();
        session.push(r#"{"event":"estimate","sub":1}"#.into());
        session.push(r#"{"event":"closed","sub":1}"#.into());
        session.close();
        push_notifier_loop(&writer, &session);
        let out = writer.into_inner().unwrap();
        let text = out.lines_one_write_each();
        assert_eq!(out.0.len(), 4, "{text}");
        assert!(
            text.ends_with("{\"event\":\"closed\",\"sub\":1}\n"),
            "{text}"
        );
    }

    #[test]
    fn accepted_sockets_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let server_side = accepted.try_clone().unwrap();
        let mut inject = Some(accepted);
        let _ = accept_loop(
            engine(),
            move || {
                inject
                    .take()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "done"))
            },
            1,
        );
        (&client).write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&client).read_line(&mut reply).unwrap();
        assert!(reply.contains("pong"), "{reply}");
        assert!(
            server_side.nodelay().unwrap(),
            "accepted socket left Nagle on"
        );
    }

    #[test]
    fn stdio_style_session() {
        let engine = engine();
        let input = concat!(
            r#"{"op":"create_db","name":"kv","facts":"R(a,b). R(a,c).","constraints":"R(x,y), R(x,z) -> y = z."}"#,
            "\n\n",
            r#"{"op":"answer","db":"kv","query":"(y) <- exists x: R(x,y)","eps":0.1,"delta":0.1,"seed":3}"#,
            "\n",
            r#"{"op":"nope"}"#,
            "\n",
        );
        let mut out = Vec::new();
        serve_session(&*engine, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 3, "blank line skipped");
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"answers\":"));
        assert!(lines[2].contains("\"ok\":false"));
    }

    #[test]
    fn overlong_line_closes_session_with_error() {
        let engine = engine();
        let mut input = vec![b'x'; (MAX_LINE_BYTES + 10) as usize];
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut out = CountingWriter::default();
        serve_session(&*engine, &input[..], &mut out).unwrap();
        let text = out.lines_one_write_each();
        assert!(text.contains("longer than"), "{text}");
        assert!(
            !text.contains("pong"),
            "session must close after an overlong line: {text}"
        );
    }

    #[test]
    fn non_utf8_line_rejected_session_continues() {
        let engine = engine();
        // A create_db whose database name holds an invalid byte: under
        // the old lossy decoding this *installed* a database named
        // "kv\u{FFFD}" instead of rejecting the request.
        let mut input = Vec::new();
        input.extend_from_slice(br#"{"op":"create_db","name":"kv"#);
        input.push(0xFF); // invalid UTF-8
        input.extend_from_slice(b"\",\"facts\":\"R(1,1).\"}\n");
        input.extend_from_slice(b"{\"op\":\"list\"}\n");
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut out = CountingWriter::default();
        serve_session(&*engine, &input[..], &mut out).unwrap();
        let text = out.lines_one_write_each();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(
            lines[0].contains("\"ok\":false") && lines[0].contains("not valid UTF-8"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"databases\":[]"),
            "nothing may be installed under mangled bytes: {}",
            lines[1]
        );
        assert!(lines[2].contains("pong"), "session must continue: {text}");
    }

    #[test]
    fn accept_error_classification() {
        use io::{Error, ErrorKind};
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
        ] {
            assert_eq!(
                classify_accept_error(&Error::from(kind)),
                AcceptDisposition::Transient,
                "{kind:?}"
            );
        }
        // EMFILE: too many open files.
        assert_eq!(
            classify_accept_error(&Error::from_raw_os_error(24)),
            AcceptDisposition::Throttle
        );
        assert_eq!(
            classify_accept_error(&Error::from(ErrorKind::InvalidInput)),
            AcceptDisposition::Fatal
        );
    }

    #[test]
    fn two_workers_multiplex_more_connections_than_threads() {
        let engine = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        const CLIENTS: usize = 8;

        // Each client pings, idles long enough to get parked, then pings
        // again — the worker pool must come back to it.
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut ask = || {
                        writeln!(&stream, r#"{{"op":"ping"}}"#).unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        line
                    };
                    let first = ask();
                    std::thread::sleep(Duration::from_millis(30));
                    (first, ask())
                })
            })
            .collect();

        let server = std::thread::spawn(move || {
            let mut accepted = 0;
            let _ = accept_loop(
                engine,
                move || {
                    if accepted == CLIENTS {
                        return Err(io::Error::new(io::ErrorKind::InvalidInput, "done"));
                    }
                    accepted += 1;
                    listener.accept().map(|(s, _)| s)
                },
                2,
            );
        });
        for client in clients {
            let (first, second) = client.join().unwrap();
            assert!(first.contains("pong"), "{first}");
            assert!(second.contains("pong"), "{second}");
        }
        server.join().unwrap();
    }

    #[test]
    fn parked_subscriber_receives_pushes_through_lazy_notifier() {
        // One worker forces true multiplexing: the subscriber's
        // connection is parked while the mutator's is served, so the
        // pushed frame can only arrive through the subscription's
        // dedicated notifier thread (spawned lazily at subscribe time).
        let engine = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut accepted = 0;
            let _ = accept_loop(
                engine,
                move || {
                    if accepted == 2 {
                        return Err(io::Error::new(io::ErrorKind::InvalidInput, "done"));
                    }
                    accepted += 1;
                    listener.accept().map(|(s, _)| s)
                },
                1,
            );
        });

        let mutator = TcpStream::connect(addr).unwrap();
        let mut mutator_rd = BufReader::new(mutator.try_clone().unwrap());
        let mut req = |line: &str| {
            writeln!(&mutator, "{line}").unwrap();
            let mut resp = String::new();
            mutator_rd.read_line(&mut resp).unwrap();
            resp
        };
        let resp = req(
            r#"{"op":"create_db","name":"stream","facts":"R(1,10). R(1,20).","constraints":"R(x,y), R(x,z) -> y = z."}"#,
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");

        let subscriber = TcpStream::connect(addr).unwrap();
        let mut subscriber_rd = BufReader::new(subscriber.try_clone().unwrap());
        writeln!(
            &subscriber,
            r#"{{"op":"subscribe","db":"stream","query":"(x) <- exists y: R(x, y)","eps":0.1,"delta":0.1,"seed":7}}"#
        )
        .unwrap();
        let mut ack = String::new();
        subscriber_rd.read_line(&mut ack).unwrap();
        assert!(ack.contains("\"ok\":true"), "{ack}");

        let resp = req(r#"{"op":"insert","db":"stream","facts":"R(1,30)."}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let mut frame = String::new();
        subscriber_rd.read_line(&mut frame).unwrap();
        assert!(
            frame.contains("\"event\":\"estimate\""),
            "parked subscriber must still get its push: {frame}"
        );
        drop((mutator, subscriber));
        server.join().unwrap();
    }

    #[test]
    fn accept_loop_survives_transient_errors_and_stops_on_fatal() {
        use io::{Error, ErrorKind};

        let engine = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // A client that connects, pings, and reports the response.
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            writeln!(&stream, r#"{{"op":"ping"}}"#).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        });

        // Injected accept sequence: a transient failure, a resource
        // exhaustion, a real connection, then a fatal listener error.
        // The old loop died on the very first event.
        let mut step = 0;
        let err = accept_loop(
            engine,
            move || {
                step += 1;
                match step {
                    1 => Err(Error::from(ErrorKind::ConnectionAborted)),
                    2 => Err(Error::from_raw_os_error(24)), // EMFILE
                    3 => listener.accept().map(|(s, _)| s),
                    _ => Err(Error::new(ErrorKind::InvalidInput, "listener torn down")),
                }
            },
            2,
        )
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        let response = client.join().unwrap();
        assert!(
            response.contains("pong"),
            "connection after transient accept errors must be served: {response}"
        );
    }
}
