//! The wire front end: the NDJSON protocol's policy, written once for
//! every endpoint that speaks it.
//!
//! A [`Server`](crate::daemon::Server) does its own verification; the
//! cluster crate's shard pool routes each request to a shard. Both must
//! answer byte for byte alike, so everything about the wire that does
//! not depend on who does the work lives here:
//!
//! * decoding a line, its request id (the client's, or an `rN` from the
//!   endpoint-wide counter of its [`Wire`]) and the id's stamp on every
//!   line the request emits;
//! * the decode-error response, its counter and its `decode` event;
//! * per-op latency histograms timed from the start of decoding, the
//!   slow-request flag ([`SLOW_REQUEST_MS`]) and the event log;
//! * each [`Connection`]'s negotiated protocol version and event
//!   subscription, and the one check that refuses an op newer than the
//!   negotiated version ([`Request::min_protocol`]);
//! * the ops that need no endpoint work: `hello`, `subscribe`, `status`,
//!   `metrics`, `histograms`, `logs` and `shutdown`;
//! * the NDJSON session loop ([`serve_stream`]) and the accept loop
//!   ([`serve_transport`]) with cooperative shutdown, which ends every
//!   live session's reads once the loop stops.
//!
//! An endpoint supplies the rest through [`Endpoint`]: its per-connection
//! session, how it answers a request that does work, and its
//! `status`/`metrics` view.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant, SystemTime};

use commcsl_telemetry::{EventLog, Histogram, MetricsSnapshot};
use commcsl_verifier::hash::HASH_FORMAT_VERSION;

use crate::json::Json;
use crate::protocol::{
    error_json, histograms_response_json, logs_response_json, metrics_response_json,
    stamp_request_id, LogsPage, Request, StatusInfo, MAX_MESSAGE_BYTES, PROTOCOL_VERSION,
};

/// Requests at least this slow are flagged in the event log, with the
/// op's latency aggregates at that moment in the event detail.
pub const SLOW_REQUEST_MS: u64 = 250;

/// Where an endpoint sends a response line or a streamed event. The
/// document is passed by value, so the front end stamps the request id
/// onto it without copying the tree.
pub type Emit<'a> = dyn FnMut(Json) -> io::Result<()> + 'a;

/// Connects once to a listener's own address, so that an accept blocked
/// on it returns.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// What a protocol endpoint adds to the shared front end.
pub trait Endpoint: Sync {
    /// One connection's endpoint state.
    type Session;

    /// The endpoint's front end.
    fn wire(&self) -> &Wire;

    /// Creates the state of a new connection.
    fn open_session(&self) -> Self::Session;

    /// Releases a finished connection's state.
    fn release_session(&self, session: &Self::Session);

    /// Answers a request that does work: `verify`, `verify_batch`,
    /// `lint`, `open`, `update`, `close`, `cache_get` or `cache_put`.
    /// Streams events only when the connection is `subscribed`, and
    /// ends with the final response line. The front end answers every
    /// other op itself and never passes it here.
    fn serve(
        &self,
        session: &mut Self::Session,
        request: &Request,
        subscribed: bool,
        emit: &mut Emit<'_>,
    ) -> io::Result<()>;

    /// The `status` response.
    fn status(&self) -> StatusInfo;

    /// The `metrics` response: cumulative counters under dotted names.
    fn metrics(&self) -> MetricsSnapshot;
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One endpoint's front-end state: request accounting, latency
/// histograms, the event log, the live listener and the shutdown flag.
pub struct Wire {
    started: Instant,
    /// Wall-clock start in ms since the Unix epoch (0 when the clock is
    /// unreadable).
    started_unix_ms: u64,
    /// Lines answered: each is one decode error or one sample in its
    /// op's histogram. Blank lines are skipped, not answered.
    requests: AtomicU64,
    /// The last daemon-assigned request id's number.
    next_request_id: AtomicU64,
    /// Response bytes written to transports (newlines included).
    bytes_streamed: AtomicU64,
    /// Lines answered with a decode error.
    decode_errors: AtomicU64,
    /// Requests at or over [`SLOW_REQUEST_MS`].
    slow_requests: AtomicU64,
    /// Per-op request latencies in nanoseconds.
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: EventLog,
    /// `(transport, addr)` of the listener, for `status`; empty until a
    /// serve loop binds one.
    endpoint: Mutex<(String, String)>,
    /// Wakes the accept loop while one runs.
    waker: Mutex<Option<Waker>>,
    shutdown: AtomicBool,
}

impl Default for Wire {
    fn default() -> Self {
        Wire {
            started: Instant::now(),
            started_unix_ms: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            requests: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
            bytes_streamed: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            slow_requests: AtomicU64::new(0),
            histograms: Mutex::new(BTreeMap::new()),
            events: EventLog::default(),
            endpoint: Mutex::new((String::new(), String::new())),
            waker: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        }
    }
}

impl Wire {
    /// `true` once a `shutdown` request was served or
    /// [`Wire::request_shutdown`] was called.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Asks every session loop and the accept loop to wind down. The
    /// accept loop blocks in `accept`, so it is woken by one connection
    /// to its own listener.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let waker = lock(&self.waker).clone();
        if let Some(wake) = waker {
            wake();
        }
    }

    /// A point-in-time copy of the per-op latency histograms, sorted by
    /// op name (the `histograms` response).
    pub fn histogram_snapshot(&self) -> Vec<(String, Histogram)> {
        lock(&self.histograms)
            .iter()
            .map(|(op, h)| (op.clone(), h.clone()))
            .collect()
    }

    /// The request event log (the `logs` op serves pages of it).
    pub fn event_log(&self) -> &EventLog {
        &self.events
    }

    /// The front end's part of a `status` response: versions, uptime,
    /// request counts and the listener. An endpoint fills in the rest.
    pub fn status(&self) -> StatusInfo {
        let (transport, addr) = lock(&self.endpoint).clone();
        StatusInfo {
            version: env!("CARGO_PKG_VERSION").to_owned(),
            format_version: u64::from(HASH_FORMAT_VERSION),
            protocol_version: u64::from(PROTOCOL_VERSION),
            uptime_ms: self.started.elapsed().as_secs_f64() * 1000.0,
            started_at_unix_ms: self.started_unix_ms,
            requests: self.requests.load(Ordering::Relaxed),
            ops: lock(&self.histograms)
                .iter()
                .map(|(op, h)| (op.clone(), h.count()))
                .collect(),
            bytes_streamed: self.bytes_streamed.load(Ordering::Relaxed),
            transport,
            addr,
            ..StatusInfo::default()
        }
    }

    /// The front end's traffic counters, named as `metrics` reports them.
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("daemon.requests", self.requests.load(Ordering::Relaxed)),
            (
                "daemon.bytes_streamed",
                self.bytes_streamed.load(Ordering::Relaxed),
            ),
            (
                "daemon.request.decode_error",
                self.decode_errors.load(Ordering::Relaxed),
            ),
            (
                "daemon.requests.slow",
                self.slow_requests.load(Ordering::Relaxed),
            ),
            ("daemon.events.dropped", self.events.dropped()),
        ]
    }

    fn assign_request_id(&self) -> String {
        format!(
            "r{}",
            self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
        )
    }

    /// Records one served request into its op's histogram and the event
    /// log; a slow request also captures the op's latency aggregates.
    pub(crate) fn observe(&self, op: &str, request_id: &str, dur_ns: u64, ok: bool) {
        let detail = {
            let mut hists = lock(&self.histograms);
            let hist = hists.entry(op.to_owned()).or_default();
            hist.record(dur_ns);
            if dur_ns >= SLOW_REQUEST_MS * 1_000_000 {
                self.slow_requests.fetch_add(1, Ordering::Relaxed);
                format!(
                    "slow: {:.3} ms over {SLOW_REQUEST_MS} ms threshold (op p50 {:.3} ms, p99 {:.3} ms, n {})",
                    dur_ns as f64 / 1e6,
                    hist.quantile(0.5) as f64 / 1e6,
                    hist.quantile(0.99) as f64 / 1e6,
                    hist.count(),
                )
            } else {
                String::new()
            }
        };
        let outcome = if ok { "ok" } else { "error" };
        self.events.push(op, request_id, dur_ns, outcome, &detail);
    }
}

/// One connection's protocol state: the negotiated version, the event
/// subscription and the endpoint's session. Dropping it releases the
/// session.
pub struct Connection<'a, E: Endpoint> {
    endpoint: &'a E,
    protocol: u32,
    subscribed: bool,
    session: E::Session,
}

impl<'a, E: Endpoint> Connection<'a, E> {
    /// Opens a connection at the newest protocol version, events off.
    pub fn open(endpoint: &'a E) -> Self {
        Connection {
            endpoint,
            protocol: PROTOCOL_VERSION,
            subscribed: false,
            session: endpoint.open_session(),
        }
    }

    /// Serves one protocol line, emitting its response (and any
    /// streamed events) stamped with the request id. `Err` is a line
    /// the framing refused; it is answered like a line that does not
    /// decode. A blank line is skipped. Returns whether the request
    /// shut the endpoint down.
    pub fn serve_line(
        &mut self,
        line: Result<&str, String>,
        emit: &mut Emit<'_>,
    ) -> io::Result<bool> {
        let wire = self.endpoint.wire();
        let started = Instant::now();
        let decoded = match line {
            Ok(text) if text.trim().is_empty() => return Ok(false),
            Ok(text) => Request::decode_with_request_id(text.trim())
                .map_err(|e| format!("bad request: {e}")),
            Err(message) => Err(message),
        };
        wire.requests.fetch_add(1, Ordering::Relaxed);
        let (request, client_id) = match decoded {
            Ok(decoded) => decoded,
            Err(message) => {
                let request_id = wire.assign_request_id();
                wire.decode_errors.fetch_add(1, Ordering::Relaxed);
                wire.events
                    .push("decode", &request_id, 0, "decode_error", &message);
                emit(stamp_request_id(error_json(&message), &request_id))?;
                return Ok(false);
            }
        };
        let request_id = client_id.unwrap_or_else(|| wire.assign_request_id());
        // Events carry no `"ok"` key and the final response does, so the
        // last one seen is the request's outcome.
        let mut ok = true;
        let stop = self.answer(&request, &mut |json: Json| {
            if let Some(outcome) = json.get("ok").and_then(Json::as_bool) {
                ok = outcome;
            }
            emit(stamp_request_id(json, &request_id))
        });
        let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        wire.observe(request.op_name(), &request_id, dur_ns, ok);
        stop
    }

    fn answer(&mut self, request: &Request, emit: &mut Emit<'_>) -> io::Result<bool> {
        let _span = commcsl_telemetry::span!("daemon.request", op = request.op_name());
        let endpoint = self.endpoint;
        let wire = endpoint.wire();
        if self.protocol < request.min_protocol() {
            emit(error_json(&format!(
                "op `{}` requires protocol v{} (session negotiated v{})",
                request.op_name(),
                request.min_protocol(),
                self.protocol
            )))?;
            return Ok(false);
        }
        let response = match request {
            Request::Hello { protocol } => {
                self.protocol = (*protocol).clamp(1, PROTOCOL_VERSION);
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("protocol", Json::Num(f64::from(self.protocol))),
                    ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                    ("format_version", Json::Num(f64::from(HASH_FORMAT_VERSION))),
                ])
            }
            Request::Subscribe { events } => {
                self.subscribed = *events;
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("subscribed", Json::Bool(self.subscribed)),
                ])
            }
            Request::Status => endpoint.status().to_json(),
            Request::Metrics => metrics_response_json(&endpoint.metrics()),
            Request::Histograms => histograms_response_json(&wire.histogram_snapshot()),
            Request::Logs { since } => logs_response_json(&LogsPage {
                events: wire.events.since(since.unwrap_or(0)),
                dropped: wire.events.dropped(),
                last_seq: wire.events.last_seq(),
            }),
            Request::Shutdown => {
                wire.request_shutdown();
                emit(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("shutting_down", Json::Bool(true)),
                ]))?;
                return Ok(true);
            }
            _ => {
                endpoint.serve(&mut self.session, request, self.subscribed, emit)?;
                return Ok(false);
            }
        };
        emit(response)?;
        Ok(false)
    }
}

impl<E: Endpoint> Drop for Connection<'_, E> {
    fn drop(&mut self) {
        self.endpoint.release_session(&self.session);
    }
}

/// Runs one NDJSON session over a reader/writer pair until EOF or
/// shutdown: the stdio transport, and each socket connection's loop.
/// Each response and streamed event is flushed as soon as it is
/// rendered, so subscribed clients see obligations settle live.
///
/// # Errors
///
/// Propagates transport I/O errors; read timeouts poll the shutdown
/// flag instead (see [`for_each_ndjson_line`]).
pub fn serve_stream<E: Endpoint>(
    endpoint: &E,
    reader: impl Read,
    mut writer: impl Write,
) -> io::Result<()> {
    let wire = endpoint.wire();
    let mut connection = Connection::open(endpoint);
    for_each_ndjson_line(reader, &move || wire.shutdown_requested(), |line| {
        connection.serve_line(line, &mut |json: Json| {
            let rendered = json.to_string();
            writeln!(writer, "{rendered}")?;
            writer.flush()?;
            wire.bytes_streamed
                .fetch_add(rendered.len() as u64 + 1, Ordering::Relaxed);
            Ok(())
        })
    })
}

/// Serves connections on `listener` until shutdown, each on its own
/// scoped thread, and records the listener's address for `status`.
///
/// The loop blocks in `accept`; [`Wire::request_shutdown`] wakes it by
/// connecting once to the listener. A fatal accept error sets the
/// shutdown flag and is returned. Either way, once the loop stops it
/// shuts down the reads of every live session, so that an idle session
/// ends at once instead of at its next read timeout, while one in the
/// middle of a request still writes its answer; then the scope joins
/// them.
pub fn serve_transport<E: Endpoint, T: Transport>(endpoint: &E, listener: &T) -> io::Result<()>
where
    for<'s> &'s T::Stream: Read,
{
    let wire = endpoint.wire();
    *lock(&wire.endpoint) = listener.endpoint();
    *lock(&wire.waker) = Some(listener.waker()?);
    // Each live session's stream, by session number; a session removes
    // its own when it ends.
    let sessions: Mutex<HashMap<u64, Arc<T::Stream>>> = Mutex::default();
    let result = thread::scope(|scope| {
        let mut opened = 0u64;
        let result = loop {
            if wire.shutdown_requested() {
                break Ok(());
            }
            match listener.accept_stream() {
                // After a shutdown, the connection that woke the loop is
                // dropped unserved.
                Ok(stream) if !wire.shutdown_requested() => {
                    let Ok(writer) = T::split(&stream) else {
                        continue;
                    };
                    opened += 1;
                    let (id, stream, sessions) = (opened, Arc::new(stream), &sessions);
                    lock(sessions).insert(id, Arc::clone(&stream));
                    scope.spawn(move || {
                        let _ = serve_stream(endpoint, &*stream, writer);
                        lock(sessions).remove(&id);
                    });
                }
                Ok(_) => {}
                Err(e) if is_transient_accept_error(&e) => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    wire.shutdown.store(true, Ordering::SeqCst);
                    break Err(e);
                }
            }
        };
        for stream in lock(&sessions).values() {
            T::shutdown_read(stream);
        }
        result
    });
    *lock(&wire.waker) = None;
    result
}

/// Reads NDJSON lines from `reader` and feeds each (newline included) to
/// `on_line` until EOF, shutdown, or `on_line` returns `Ok(true)`. A
/// line that is not UTF-8, or longer than [`MAX_MESSAGE_BYTES`], reaches
/// `on_line` as the `Err` message to answer it with.
///
/// The framing is length-robust: lines accumulate as raw bytes via
/// `read_until`, so input split at arbitrary byte boundaries — 1-byte
/// TCP segments, reads timing out mid-UTF-8-sequence — reassembles
/// correctly. (`read_line` would roll back and lose bytes that end
/// mid-sequence on a timed-out call.) An oversized line is buffered at
/// most up to the cap, chunk by chunk, and dropped up to its newline;
/// after a long line the buffer is shrunk again, so an idle connection
/// does not keep a cap-sized allocation. EOF in the middle of a line
/// discards the fragment: nothing more is coming.
/// Timeout-flavored read errors (`WouldBlock`/`TimedOut`/`Interrupted`)
/// poll `shutdown` and continue, so sessions with a read timeout drain
/// promptly; other I/O errors propagate.
pub fn for_each_ndjson_line(
    reader: impl io::Read,
    shutdown: &dyn Fn() -> bool,
    mut on_line: impl FnMut(Result<&str, String>) -> io::Result<bool>,
) -> io::Result<()> {
    // Room for the longest accepted line plus its newline.
    let limit = MAX_MESSAGE_BYTES + 1;
    // What the line buffer keeps between lines; a longer line's memory
    // is released once it has been answered or dropped.
    const KEPT_CAPACITY: usize = 64 << 10;
    let mut reader = BufReader::new(reader);
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let room = (limit - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) if line.ends_with(b"\n") => {
                let text = if oversized {
                    Err(format!(
                        "bad request: line longer than {MAX_MESSAGE_BYTES} bytes"
                    ))
                } else {
                    std::str::from_utf8(&line)
                        .map_err(|_| "bad request: line is not UTF-8".to_owned())
                };
                let stop = on_line(text)?;
                line.clear();
                line.shrink_to(KEPT_CAPACITY);
                oversized = false;
                if stop || shutdown() {
                    return Ok(());
                }
            }
            Ok(_) if line.len() == limit => {
                // Over the cap: drop what was read, skip to the newline.
                oversized = true;
                line.clear();
                line.shrink_to(KEPT_CAPACITY);
            }
            Ok(_) => {
                // EOF in the middle of a line: nothing more is coming.
                return Ok(());
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // Read timeout: partial input (if any) stays buffered
                // in `line`; bail out only on shutdown.
                if shutdown() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// `EMFILE`/`ENFILE` (process/system fd table full) have no stable
/// `io::ErrorKind` mapping; both are transient under load and the
/// accept loop must ride them out rather than die.
fn is_fd_exhaustion(e: &io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    matches!(e.raw_os_error(), Some(code) if code == EMFILE || code == ENFILE)
}

/// Transient accept-time failures (peer hung up before accept, fd
/// pressure) must not kill the daemon; the accept loop backs off and
/// keeps accepting.
fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
    ) || is_fd_exhaustion(e)
}

/// A listener the accept loop serves: [`TcpListener`] everywhere and
/// `UnixListener` on Unix.
pub trait Transport {
    /// One accepted connection's stream. A shared reference to it reads,
    /// so a session and the accept loop share the reading handle.
    type Stream: io::Write + Send + Sync;

    /// Waits for the next connection.
    fn accept_stream(&self) -> io::Result<Self::Stream>;

    /// Prepares an accepted stream for a session — a short read timeout,
    /// so that a session also notices a shutdown on its own — and
    /// returns an independently-owned writer handle.
    fn split(stream: &Self::Stream) -> io::Result<Self::Stream>;

    /// Shuts down the stream's reads: a read blocked on it returns end of
    /// file, and writes still go through.
    fn shutdown_read(stream: &Self::Stream);

    /// `(transport, addr)` as reported in `status` — for TCP the
    /// *actual* bound address, so `--tcp 127.0.0.1:0` reports its
    /// ephemeral port.
    fn endpoint(&self) -> (String, String);

    /// A [`Waker`] that connects to this listener.
    fn waker(&self) -> io::Result<Waker>;
}

impl Transport for TcpListener {
    type Stream = TcpStream;

    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _addr)| stream)
    }

    fn split(stream: &TcpStream) -> io::Result<TcpStream> {
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        // Responses are a handful of small flushed writes per request;
        // without NODELAY, Nagle's algorithm would serialize them
        // against the peer's ACK clock.
        stream.set_nodelay(true)?;
        stream.try_clone()
    }

    fn shutdown_read(stream: &TcpStream) {
        let _ = stream.shutdown(Shutdown::Read);
    }

    fn endpoint(&self) -> (String, String) {
        let addr = self.local_addr().map(|a| a.to_string()).unwrap_or_default();
        ("tcp".to_owned(), addr)
    }

    fn waker(&self) -> io::Result<Waker> {
        let mut addr = self.local_addr()?;
        // A listener on every interface is reached through loopback.
        if addr.ip().is_unspecified() {
            addr.set_ip(if addr.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        Ok(Arc::new(move || {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }))
    }
}

#[cfg(unix)]
mod unix_transport {
    use std::os::unix::net::{UnixListener, UnixStream};

    use super::*;

    impl Transport for UnixListener {
        type Stream = UnixStream;

        fn accept_stream(&self) -> io::Result<UnixStream> {
            self.accept().map(|(stream, _addr)| stream)
        }

        fn split(stream: &UnixStream) -> io::Result<UnixStream> {
            stream.set_read_timeout(Some(Duration::from_millis(200)))?;
            stream.try_clone()
        }

        fn shutdown_read(stream: &UnixStream) {
            let _ = stream.shutdown(Shutdown::Read);
        }

        fn endpoint(&self) -> (String, String) {
            let addr = self
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_default();
            ("unix".to_owned(), addr)
        }

        fn waker(&self) -> io::Result<Waker> {
            let path = self
                .local_addr()?
                .as_pathname()
                .map(std::path::Path::to_path_buf)
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "the listener has no socket path",
                    )
                })?;
            Ok(Arc::new(move || {
                let _ = UnixStream::connect(&path);
            }))
        }
    }
}

#[cfg(test)]
impl<E: Endpoint> Connection<'_, E> {
    /// Serves `request` in memory — no transport, so no bytes count as
    /// streamed — and returns its final response line and whether it
    /// shut the endpoint down.
    pub(crate) fn call(&mut self, request: &Request) -> (Json, bool) {
        let mut last = None;
        let stop = self
            .serve_line(Ok(&request.encode()), &mut |json| {
                last = Some(json);
                Ok(())
            })
            .expect("in-memory emit cannot fail");
        (last.expect("every request is answered"), stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_lines_at_the_cap_pass_and_longer_ones_are_dropped_whole() {
        let input = format!(
            "{}\n{}\n{{}}\n",
            "a".repeat(MAX_MESSAGE_BYTES),
            "b".repeat(MAX_MESSAGE_BYTES + 1),
        );
        let mut seen = Vec::new();
        for_each_ndjson_line(input.as_bytes(), &|| false, |line| {
            seen.push(line.map(str::len));
            Ok(false)
        })
        .unwrap();
        assert_eq!(seen.len(), 3, "{seen:?}");
        assert_eq!(seen[0], Ok(MAX_MESSAGE_BYTES + 1), "newline included");
        assert!(seen[1].as_ref().unwrap_err().contains("longer than"));
        assert_eq!(seen[2], Ok(3), "the line after an oversized one is intact");
    }
}
