//! The long-running verification daemon.
//!
//! A [`Server`] owns a [`Verifier`] with a cache (the two-tier
//! content-addressed verdict cache in front of the work-stealing batch
//! pool) and a *compile function* injected by the caller — the daemon is
//! agnostic to the surface syntax; `commcsl-front` passes its `.csl`
//! compiler in.
//! It is an [`Endpoint`] of the wire front end in [`crate::wire`], which
//! speaks the NDJSON protocol of [`crate::protocol`]; each connection
//! gets its own [`Workspace`] over the server-wide cache. Transports:
//!
//! * [`Server::serve_unix`] — a Unix-domain-socket accept loop, one
//!   thread per connection, all sessions sharing the cache. This is the
//!   `commcsl serve` daemon.
//! * [`Server::serve_tcp`] — the same over TCP (`commcsl serve --tcp`).
//! * [`Server::serve_stream`] — a single session over any
//!   reader/writer pair; wired to stdin/stdout it is the portable
//!   `commcsl serve --stdio` fallback (also used by the tests).
//!
//! Shutdown is cooperative: a `shutdown` request is acknowledged on its
//! own session, then the accept loop stops and shuts down the reads of
//! every live session (an idle one ends at once, one in the middle of a
//! request writes its answer first), and the socket file is removed.

use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use commcsl_verifier::api::Verifier;
use commcsl_verifier::cache::{CacheConfig, RemoteObligationTier, VerdictCache};
use commcsl_verifier::hash::{ProgramHash, HASH_FORMAT_VERSION};
use commcsl_verifier::obligation::ObligationKey;
use commcsl_verifier::program::AnnotatedProgram;
use commcsl_verifier::report::VerifierConfig;
use commcsl_verifier::workspace::{Workspace, WorkspaceEvent};

use commcsl_analysis::lint::lint_program;

use commcsl_telemetry::MetricsSnapshot;

use crate::json::Json;
use crate::protocol::{
    cache_get_response_json, cache_put_response_json, doc_response_json,
    error_json, lint_event_json, lint_response_json, obligation_event_json,
    started_event_json, verify_response_json, CacheTier, DocOk,
    DocOutcomeWire, LintOk, LintOutcome, Request, StatusInfo, VerifyItem,
    VerifyOk, VerifyOutcome,
};
use crate::wire::{self, Emit, Endpoint, Wire};

/// Compiles surface source text to a lowered program. Errors are
/// reported to the client verbatim (conventionally `line:col: message`).
pub type CompileFn = Box<dyn Fn(&str) -> Result<AnnotatedProgram, String> + Send + Sync>;

/// Where a daemon listens for NDJSON sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A Unix-domain socket at the given path (Unix only).
    Unix(PathBuf),
    /// A TCP listener on the given `host:port` address. `port` may be 0
    /// to bind an ephemeral port — [`Server::serve_listen`] records the
    /// actual address for `status`.
    Tcp(String),
}

impl Default for Listen {
    fn default() -> Self {
        Listen::Unix(PathBuf::from(".commcsl-cache/commcsl.sock"))
    }
}

impl Listen {
    /// The transport name reported in `status` (`"unix"` / `"tcp"`).
    pub fn transport_name(&self) -> &'static str {
        match self {
            Listen::Unix(_) => "unix",
            Listen::Tcp(_) => "tcp",
        }
    }

    /// The configured address — socket path or `host:port`.
    pub fn addr_string(&self) -> String {
        match self {
            Listen::Unix(path) => path.display().to_string(),
            Listen::Tcp(addr) => addr.clone(),
        }
    }
}

/// Daemon configuration.
#[derive(Default)]
pub struct ServerConfig {
    /// Worker threads for cache misses (0 = one per CPU).
    pub threads: usize,
    /// Verdict-cache tiers.
    pub cache: CacheConfig,
    /// Verifier budgets (part of every cache key).
    pub verifier: VerifierConfig,
    /// Listen endpoint for [`Server::serve_listen`] (stdio sessions
    /// ignore it).
    pub listen: Listen,
}

/// The verification daemon: shared cache, counters, and its wire front
/// end.
pub struct Server {
    verifier: Verifier,
    /// The verifier's cache, which every session's workspace shares.
    cache: Arc<Mutex<VerdictCache>>,
    compile: CompileFn,
    threads: usize,
    programs: AtomicU64,
    /// Workspace documents currently open across all sessions.
    documents: AtomicI64,
    /// Obligations discharged by the static pre-pass: in workspace
    /// `open`/`update`s and in the programs `verify`/`verify_batch`
    /// verified (not those served from the verdict cache).
    statically_proven: AtomicU64,
    /// Obligations discharged by the solver, counted like
    /// `statically_proven`.
    solver_checked: AtomicU64,
    /// Configured listen endpoint ([`Server::serve_listen`] dispatches
    /// on it).
    listen: Listen,
    wire: Wire,
}

impl Server {
    /// Creates a daemon with the given compiler for incoming sources.
    pub fn new(config: ServerConfig, compile: CompileFn) -> Self {
        // Fail-fast is a per-request protocol flag, not server state.
        let verifier = Verifier::new()
            .with_config(config.verifier)
            .with_threads(config.threads)
            .with_cache(config.cache);
        Server {
            cache: verifier
                .shared_cache()
                .expect("the verifier was given a cache"),
            verifier,
            compile,
            threads: config.threads,
            programs: AtomicU64::new(0),
            documents: AtomicI64::new(0),
            statically_proven: AtomicU64::new(0),
            solver_checked: AtomicU64::new(0),
            listen: config.listen,
            wire: Wire::default(),
        }
    }

    /// Chains a remote obligation-cache tier behind the local memory and
    /// disk tiers (`status` then reports its endpoint and per-tier
    /// counters).
    pub fn set_remote_cache(&self, remote: Box<dyn RemoteObligationTier>) {
        self.lock_cache().set_remote(remote);
    }

    fn lock_cache(&self) -> MutexGuard<'_, VerdictCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Asks every session loop and the accept loop to wind down.
    pub fn request_shutdown(&self) {
        self.wire.request_shutdown();
    }

    /// Compiles and verifies a batch of items; cache misses ride the
    /// parallel pipeline together. Outcomes are in input order. With
    /// `fail_fast`, dispatch stops after the first failing verdict and
    /// later items answer as skipped placeholders.
    pub fn verify_items(&self, items: &[VerifyItem], fail_fast: bool) -> Vec<VerifyOutcome> {
        // Per-item compile timing, so a cache hit's reported time stays
        // its own microseconds instead of inheriting a batch average.
        let compiled: Vec<(Result<AnnotatedProgram, String>, f64)> = items
            .iter()
            .map(|item| {
                let start = Instant::now();
                let result = (self.compile)(&item.source);
                (result, start.elapsed().as_secs_f64() * 1000.0)
            })
            .collect();

        let programs: Vec<&AnnotatedProgram> = compiled
            .iter()
            .filter_map(|(c, _)| c.as_ref().ok())
            .collect();
        let verified = self
            .verifier
            .clone()
            .with_fail_fast(fail_fast)
            .verify_batch(&programs);
        let attempted = verified.iter().filter(|r| !r.skipped).count();
        self.programs.fetch_add(attempted as u64, Ordering::Relaxed);
        // A verified miss carries its discharge split; a hit has none.
        for stats in verified.iter().filter_map(|r| r.stats.as_ref()) {
            self.statically_proven
                .fetch_add(stats.statically_proven as u64, Ordering::Relaxed);
            self.solver_checked.fetch_add(stats.checked as u64, Ordering::Relaxed);
        }
        let mut verified = verified.into_iter();

        compiled
            .iter()
            .map(|(c, compile_ms)| match c {
                Ok(_) => {
                    let r = verified.next().expect("one result per compiled program");
                    Ok(VerifyOk {
                        cached: r.cached == Some(true),
                        key: r.key.expect("the cached route keys every outcome"),
                        time_ms: r.time.as_secs_f64() * 1000.0 + compile_ms,
                        skipped: r.skipped,
                        report: r.report,
                    })
                }
                Err(e) => Err(e.clone()),
            })
            .collect()
    }

    /// Serves a `cache_get`: the raw self-validating entry from the
    /// *local* tiers (memory, then disk) or a miss. The daemon's own
    /// remote tier is never consulted — remote chains would otherwise
    /// recurse — and serving reads move no hit/miss counters, which
    /// track verification traffic only.
    fn serve_cache_get(&self, tier: CacheTier, key: &str) -> Json {
        let mut cache = self.lock_cache();
        let entry = match tier {
            CacheTier::Obligation => match key.parse::<ObligationKey>() {
                Ok(parsed) => cache.export_obligation(parsed),
                Err(e) => return error_json(&format!("bad cache key: {e}")),
            },
            CacheTier::Verdict => match key.parse::<ProgramHash>() {
                Ok(parsed) => cache.export_verdict(parsed),
                Err(e) => return error_json(&format!("bad cache key: {e}")),
            },
        };
        cache_get_response_json(tier, key, HASH_FORMAT_VERSION, entry.as_deref())
    }

    /// Serves a `cache_put`: validates the entry against the claimed key
    /// and [`HASH_FORMAT_VERSION`] before admitting it to the local
    /// tiers. A refused entry answers `stored:false` (not an error) —
    /// version skew between daemons is expected, staleness is not.
    fn serve_cache_put(&self, tier: CacheTier, key: &str, entry: &str) -> Json {
        let mut cache = self.lock_cache();
        let stored = match tier {
            CacheTier::Obligation => match key.parse::<ObligationKey>() {
                Ok(parsed) => cache.import_obligation(parsed, entry),
                Err(e) => return error_json(&format!("bad cache key: {e}")),
            },
            CacheTier::Verdict => match key.parse::<ProgramHash>() {
                Ok(parsed) => cache.import_verdict(parsed, entry),
                Err(e) => return error_json(&format!("bad cache key: {e}")),
            },
        };
        cache_put_response_json(tier, key, stored)
    }

    /// Compiles and (incrementally) verifies one workspace document,
    /// streaming `started`/`obligation_done` events when the connection
    /// is subscribed and always ending with the `report` response line.
    fn serve_doc(
        &self,
        workspace: &mut Workspace,
        doc_id: &str,
        source: &str,
        is_update: bool,
        subscribed: bool,
        emit: &mut Emit<'_>,
    ) -> io::Result<()> {
        let started = Instant::now();
        let outcome: DocOutcomeWire = match (self.compile)(source) {
            Err(e) => Err(e),
            Ok(program) => {
                let newly_open =
                    !is_update && !workspace.open_documents().any(|d| d == doc_id);
                let mut emit_err: Option<io::Error> = None;
                let mut stream = |event: WorkspaceEvent<'_>| {
                    if !subscribed || emit_err.is_some() {
                        return;
                    }
                    let json = match &event {
                        WorkspaceEvent::Started { doc, revision, key } => {
                            Some(started_event_json(doc, *revision, *key))
                        }
                        WorkspaceEvent::Obligation {
                            index,
                            result,
                            verdict,
                            time,
                        } => Some(obligation_event_json(doc_id, *index, result, *verdict, *time)),
                        WorkspaceEvent::Finished { .. } => None,
                    };
                    if let Some(json) = json {
                        if let Err(e) = emit(json) {
                            emit_err = Some(e);
                        }
                    }
                };
                let checked = if is_update {
                    workspace.update_document_with(doc_id, &program, &mut stream)
                } else {
                    Ok(workspace.open_document_with(doc_id, &program, &mut stream))
                };
                if let Some(e) = emit_err {
                    return Err(e);
                }
                match checked {
                    Err(e) => Err(e),
                    Ok(o) => {
                        if newly_open {
                            self.documents.fetch_add(1, Ordering::Relaxed);
                        }
                        self.programs.fetch_add(1, Ordering::Relaxed);
                        self.statically_proven.fetch_add(
                            o.obligations.statically_proven as u64,
                            Ordering::Relaxed,
                        );
                        self.solver_checked
                            .fetch_add(o.obligations.checked as u64, Ordering::Relaxed);
                        Ok(DocOk {
                            doc: o.doc,
                            revision: o.revision,
                            cached: o.report_cached,
                            key: o.key,
                            time_ms: started.elapsed().as_secs_f64() * 1000.0,
                            obligations: o.obligations.total as u64,
                            reused: o.obligations.reused as u64,
                            checked: o.obligations.checked as u64,
                            statically_proven: o.obligations.statically_proven as u64,
                            report: o.report,
                        })
                    }
                }
            }
        };
        emit(doc_response_json(&outcome, subscribed))
    }

    /// Runs one NDJSON session over a reader/writer pair until EOF or
    /// shutdown ([`wire::serve_stream`]). This is the stdio transport
    /// (`commcsl serve --stdio`).
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors.
    pub fn serve_stream(&self, reader: impl io::Read, writer: impl io::Write) -> io::Result<()> {
        wire::serve_stream(self, reader, writer)
    }

    /// Claims the TCP address: binds a listener, mapping `AddrInUse` to
    /// the same "already listening" shape as the Unix path (TCP has no
    /// stale-socket file to reclaim — a bound port is always live).
    /// Callers that announce readiness should do so only after this
    /// succeeds (reading the actual port from `listener.local_addr()`),
    /// then hand the listener to [`Server::serve_tcp`].
    pub fn bind_tcp(addr: &str) -> io::Result<TcpListener> {
        TcpListener::bind(addr).map_err(|e| {
            if e.kind() == io::ErrorKind::AddrInUse {
                io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {addr}"),
                )
            } else {
                e
            }
        })
    }

    /// Serves connections on a bound TCP listener until a `shutdown`
    /// request arrives.
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        wire::serve_transport(self, listener)
    }

    /// Binds the configured [`Listen`] endpoint and serves until
    /// shutdown. `Listen::Unix` on a non-Unix platform is
    /// `ErrorKind::Unsupported`.
    pub fn serve_listen(&self) -> io::Result<()> {
        match self.listen.clone() {
            Listen::Tcp(addr) => self.serve_tcp(&Self::bind_tcp(&addr)?),
            #[cfg(unix)]
            Listen::Unix(path) => self.serve_unix(&path),
            #[cfg(not(unix))]
            Listen::Unix(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "unix socket {} unsupported on this platform (use --tcp)",
                    path.display()
                ),
            )),
        }
    }
}

impl Endpoint for Server {
    /// A connection's workspace: its documents are its own, the verdict
    /// and obligation cache behind them is the server-wide one.
    type Session = Workspace;

    fn wire(&self) -> &Wire {
        &self.wire
    }

    fn open_session(&self) -> Workspace {
        Workspace::with_shared_cache(self.verifier.config().clone(), Arc::clone(&self.cache))
    }

    /// Takes a finished connection's open documents off the server-wide
    /// gauge (the cache, of course, stays).
    fn release_session(&self, workspace: &Workspace) {
        let open = workspace.open_documents().count() as i64;
        if open > 0 {
            self.documents.fetch_sub(open, Ordering::Relaxed);
        }
    }

    fn serve(
        &self,
        workspace: &mut Workspace,
        request: &Request,
        subscribed: bool,
        emit: &mut Emit<'_>,
    ) -> io::Result<()> {
        match request {
            Request::Verify(item) => {
                let outcome = self
                    .verify_items(std::slice::from_ref(item), false)
                    .remove(0);
                emit(verify_response_json(&outcome))
            }
            Request::VerifyBatch { items, fail_fast } => {
                let results: Vec<Json> = self
                    .verify_items(items, *fail_fast)
                    .iter()
                    .map(verify_response_json)
                    .collect();
                emit(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("results", Json::Arr(results)),
                ]))
            }
            Request::Open { doc, source } => {
                self.serve_doc(workspace, doc, source, false, subscribed, emit)
            }
            Request::Update { doc, source } => {
                self.serve_doc(workspace, doc, source, true, subscribed, emit)
            }
            Request::Lint(item) => {
                let outcome: LintOutcome = match (self.compile)(&item.source) {
                    Err(e) => Err(e),
                    Ok(program) => {
                        let lints = lint_program(&program);
                        if subscribed {
                            for lint in &lints {
                                emit(lint_event_json(&item.name, lint))?;
                            }
                        }
                        Ok(LintOk {
                            name: item.name.clone(),
                            lints,
                        })
                    }
                };
                emit(lint_response_json(&outcome))
            }
            Request::Close { doc } => {
                let closed = workspace.close_document(doc);
                if closed {
                    self.documents.fetch_sub(1, Ordering::Relaxed);
                }
                emit(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("doc", Json::str(doc)),
                    ("closed", Json::Bool(closed)),
                ]))
            }
            Request::CacheGet { tier, key } => emit(self.serve_cache_get(*tier, key)),
            Request::CachePut { tier, key, entry } => {
                emit(self.serve_cache_put(*tier, key, entry))
            }
            _ => unreachable!("the wire front end answers `{}`", request.op_name()),
        }
    }

    fn status(&self) -> StatusInfo {
        let (cache, memory_entries, remote) = {
            let cache = self.lock_cache();
            (cache.stats(), cache.memory_len(), cache.remote_endpoint())
        };
        StatusInfo {
            backend: self.verifier.config().backend.name().to_owned(),
            programs: self.programs.load(Ordering::Relaxed),
            documents: self.documents.load(Ordering::Relaxed).max(0) as u64,
            memory_hits: cache.memory_hits,
            disk_hits: cache.disk_hits,
            misses: cache.misses,
            evictions: cache.evictions,
            memory_entries: memory_entries as u64,
            obligation_hits: cache.obligation_hits,
            obligation_misses: cache.obligation_misses,
            statically_proven: self.statically_proven.load(Ordering::Relaxed),
            solver_checked: self.solver_checked.load(Ordering::Relaxed),
            threads: self.threads as u64,
            shards: 1,
            remote: remote.unwrap_or_default(),
            remote_hits: cache.remote_hits,
            remote_misses: cache.remote_misses,
            remote_stores: cache.remote_stores,
            ..self.wire.status()
        }
    }

    /// The daemon's cumulative counters as one flat snapshot. Names
    /// follow the dotted taxonomy the in-process profiler uses, so
    /// dashboards can treat both sources uniformly.
    fn metrics(&self) -> MetricsSnapshot {
        let status = self.status();
        let counters = self.wire.counters().into_iter().chain([
            ("daemon.programs", status.programs),
            ("daemon.documents", status.documents),
            ("cache.memory_hits", status.memory_hits),
            ("cache.disk_hits", status.disk_hits),
            ("cache.misses", status.misses),
            ("cache.evictions", status.evictions),
            ("cache.memory_entries", status.memory_entries),
            ("cache.obligation_hits", status.obligation_hits),
            ("cache.obligation_misses", status.obligation_misses),
            ("cache.remote_hits", status.remote_hits),
            ("cache.remote_misses", status.remote_misses),
            ("cache.remote_stores", status.remote_stores),
            ("obligations.statically_proven", status.statically_proven),
            ("obligations.solver_checked", status.solver_checked),
        ]);
        MetricsSnapshot::from_pairs(counters.map(|(name, value)| (name.to_owned(), value)))
    }
}

#[cfg(unix)]
mod unix_transport {
    use std::fs;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;

    use super::*;

    impl Server {
        /// Claims `socket_path`: refuses when a live daemon already owns
        /// it, silently replaces a stale socket file left by a crashed
        /// one, and returns the bound listener. Callers that announce
        /// readiness should do so only after this succeeds, then hand
        /// the listener to [`Server::serve_bound`].
        pub fn bind_unix(socket_path: &Path) -> io::Result<UnixListener> {
            if socket_path.exists() {
                if UnixStream::connect(socket_path).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "a daemon is already listening on {}",
                            socket_path.display()
                        ),
                    ));
                }
                fs::remove_file(socket_path)?;
            }
            if let Some(dir) = socket_path.parent().filter(|d| !d.as_os_str().is_empty()) {
                fs::create_dir_all(dir)?;
            }
            UnixListener::bind(socket_path)
        }

        /// Binds `socket_path` and serves connections until a `shutdown`
        /// request arrives ([`Server::bind_unix`] + [`Server::serve_bound`]).
        pub fn serve_unix(&self, socket_path: &Path) -> io::Result<()> {
            self.serve_bound(Self::bind_unix(socket_path)?, socket_path)
        }

        /// Serves connections on an already-bound listener until a
        /// `shutdown` request arrives, then removes the socket file.
        pub fn serve_bound(
            &self,
            listener: UnixListener,
            socket_path: &Path,
        ) -> io::Result<()> {
            let result = wire::serve_transport(self, &listener);
            let _ = fs::remove_file(socket_path);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    use commcsl_pure::{Sort, Term};
    use commcsl_verifier::program::VStmt;

    use super::*;
    use crate::client::{connect_with_retry, Client};
    use crate::protocol::MAX_MESSAGE_BYTES;
    use crate::wire::{Connection, SLOW_REQUEST_MS};

    /// A toy "compiler": `ok NAME` → a verifying program, `leak NAME` →
    /// a rejected one, anything else → a compile error.
    fn toy_compiler() -> CompileFn {
        Box::new(|source: &str| {
            let mut words = source.split_whitespace();
            let kind = words.next().unwrap_or_default();
            let name = words.next().unwrap_or("anon").to_owned();
            match kind {
                "ok" => Ok(AnnotatedProgram::new(name).with_body([
                    VStmt::input("x", Sort::Int, true),
                    VStmt::Output(Term::var("x")),
                ])),
                "leak" => Ok(AnnotatedProgram::new(name).with_body([
                    VStmt::input("h", Sort::Int, false),
                    VStmt::Output(Term::var("h")),
                ])),
                other => Err(format!("1:1: unknown directive `{other}`")),
            }
        })
    }

    fn server() -> Server {
        Server::new(
            ServerConfig {
                threads: 2,
                cache: CacheConfig::memory_only(64),
                verifier: VerifierConfig::default(),
                ..Default::default()
            },
            toy_compiler(),
        )
    }

    #[test]
    fn verify_then_cached_verify_then_status() {
        let server = server();
        let req = Request::Verify(VerifyItem {
            name: "a".into(),
            source: "ok prog-a".into(),
        });

        let mut connection = Connection::open(&server);
        let (cold, stop) = connection.call(&req);
        assert!(!stop);
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));

        let (warm, _) = connection.call(&req);
        assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            warm.get("report").map(ToString::to_string),
            cold.get("report").map(ToString::to_string),
            "cached verdicts must be byte-identical"
        );

        let status = server.status();
        assert_eq!(status.requests, 2);
        assert_eq!(status.programs, 2);
        assert_eq!(status.misses, 1);
        assert_eq!(status.memory_hits, 1);
    }

    #[test]
    fn verified_misses_count_their_discharge_and_hits_do_not() {
        let server = server();
        let batch = Request::VerifyBatch {
            items: vec![
                VerifyItem { name: "a".into(), source: "ok a".into() },
                VerifyItem { name: "b".into(), source: "leak b".into() },
            ],
            fail_fast: false,
        };
        let mut connection = Connection::open(&server);
        connection.call(&batch);
        let cold = server.status();
        // `ok a`'s low output is proved by the pre-pass; `leak b`'s high
        // one goes to the solver.
        assert_eq!((cold.statically_proven, cold.solver_checked), (1, 1));

        // Verdict-cache hits run no discharge.
        connection.call(&batch);
        connection.call(&Request::Verify(VerifyItem {
            name: "a".into(),
            source: "ok a".into(),
        }));
        let warm = server.status();
        assert_eq!((warm.memory_hits, warm.misses), (3, 2));
        assert_eq!((warm.statically_proven, warm.solver_checked), (1, 1));
    }

    #[test]
    fn batch_mixes_compiled_and_failed_slots_in_order() {
        let server = server();
        let (response, _) = Connection::open(&server).call(&Request::VerifyBatch {
            items: vec![
                VerifyItem { name: "a".into(), source: "ok a".into() },
                VerifyItem { name: "b".into(), source: "syntax error here".into() },
                VerifyItem { name: "c".into(), source: "leak c".into() },
            ],
            fail_fast: false,
        });
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(false));
        assert!(results[1]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown directive"));
        let c_report = results[2].get("report").unwrap();
        assert_eq!(c_report.get("verified").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn batch_fail_fast_skips_later_items_and_never_caches_skips() {
        let server = Server::new(
            ServerConfig {
                threads: 1, // deterministic dispatch order
                cache: CacheConfig::memory_only(64),
                verifier: VerifierConfig::default(),
                ..Default::default()
            },
            toy_compiler(),
        );
        let batch = |fail_fast: bool, items: Vec<VerifyItem>| {
            let (response, _) = Connection::open(&server)
                .call(&Request::VerifyBatch { items, fail_fast });
            response
        };
        let item = |name: &str, source: &str| VerifyItem {
            name: name.into(),
            source: source.into(),
        };

        let response = batch(
            true,
            vec![item("a", "leak bad"), item("b", "ok good")],
        );
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        let report_verified = |slot: &Json| {
            slot.get("report")
                .and_then(|r| r.get("verified"))
                .and_then(Json::as_bool)
        };
        assert_eq!(results[0].get("skipped"), None);
        assert_eq!(report_verified(&results[0]), Some(false));
        assert_eq!(results[1].get("skipped").and_then(Json::as_bool), Some(true));
        assert_eq!(report_verified(&results[1]), Some(false));

        // The skipped item was never cached: verifying it alone is a miss
        // that succeeds.
        let response = batch(false, vec![item("b", "ok good")]);
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(report_verified(&results[0]), Some(true));

        // A failing cache *hit* also stops dispatch of later misses.
        let response = batch(
            true,
            vec![item("a", "leak bad"), item("c", "ok fresh")],
        );
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(results[1].get("skipped").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn stdio_session_end_to_end_with_shutdown() {
        let server = server();
        let input = format!(
            "{}\nnot json at all\n{}\n{}\n",
            Request::Verify(VerifyItem {
                name: "a".into(),
                source: "ok a".into()
            })
            .encode(),
            Request::Status.encode(),
            Request::Shutdown.encode(),
        );
        let mut output = Vec::new();
        server
            .serve_stream(input.as_bytes(), &mut output)
            .expect("session runs");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"verified\":true"));
        assert!(lines[1].contains("bad request"));
        assert!(lines[2].contains("\"requests\":"));
        assert!(lines[3].contains("\"shutting_down\":true"));
        assert!(server.wire().shutdown_requested());
    }

    #[test]
    fn v2_session_open_update_close_with_streaming_events() {
        let server = server();
        let input = [
            Request::Hello { protocol: 7 }.encode(), // negotiated down to 2
            Request::Subscribe { events: true }.encode(),
            Request::Open {
                doc: "a.csl".into(),
                source: "ok prog-a".into(),
            }
            .encode(),
            Request::Update {
                doc: "a.csl".into(),
                source: "leak prog-a2".into(),
            }
            .encode(),
            Request::Update {
                doc: "missing.csl".into(),
                source: "ok x".into(),
            }
            .encode(),
            Request::Close { doc: "a.csl".into() }.encode(),
            Request::Shutdown.encode(),
        ]
        .join("\n")
            + "\n";
        let mut output = Vec::new();
        server
            .serve_stream(input.as_bytes(), &mut output)
            .expect("session runs");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();

        // hello: negotiated down to the server's newest version.
        assert_eq!(lines[0].get("protocol").and_then(Json::as_u64), Some(2));
        // subscribe ack.
        assert_eq!(lines[1].get("subscribed").and_then(Json::as_bool), Some(true));

        // open: started + one obligation_done per obligation + report.
        let started = &lines[2];
        assert_eq!(started.get("event").and_then(Json::as_str), Some("started"));
        assert_eq!(started.get("revision").and_then(Json::as_u64), Some(1));
        let report_line = lines[3..]
            .iter()
            .position(|l| l.get("ok").is_some())
            .map(|i| &lines[3 + i])
            .expect("final report line");
        assert_eq!(
            report_line.get("event").and_then(Json::as_str),
            Some("report")
        );
        let obligations = report_line
            .get("obligations")
            .and_then(Json::as_u64)
            .unwrap();
        let dones: Vec<&Json> = lines[3..]
            .iter()
            .take_while(|l| l.get("ok").is_none())
            .collect();
        assert_eq!(dones.len() as u64, obligations, "{text}");
        assert!(dones
            .iter()
            .all(|l| l.get("event").and_then(Json::as_str) == Some("obligation_done")));

        // update: a different program in the same doc slot — revision 2,
        // and the rejected verdict streams through unchanged.
        let update_report = lines
            .iter()
            .filter(|l| l.get("event").and_then(Json::as_str) == Some("report"))
            .nth(1)
            .expect("update report");
        assert_eq!(update_report.get("revision").and_then(Json::as_u64), Some(2));
        assert_eq!(
            update_report
                .get("report")
                .and_then(|r| r.get("verified"))
                .and_then(Json::as_bool),
            Some(false)
        );

        // update of an unopened doc: protocol-level error, not transport.
        let unknown = lines
            .iter()
            .find(|l| {
                l.get("error")
                    .and_then(Json::as_str)
                    .is_some_and(|e| e.contains("unknown document"))
            })
            .expect("unknown-document error line: {text}");
        assert_eq!(unknown.get("ok").and_then(Json::as_bool), Some(false));

        // close acknowledges.
        let close = lines
            .iter()
            .find(|l| l.get("closed").is_some())
            .expect("close ack");
        assert_eq!(close.get("closed").and_then(Json::as_bool), Some(true));
        assert_eq!(server.status().documents, 0);
    }

    #[test]
    fn v1_negotiated_session_refuses_v2_ops_but_serves_v1() {
        let server = server();
        let input = format!(
            "{}\n{}\n{}\n",
            Request::Hello { protocol: 1 }.encode(),
            Request::Open {
                doc: "a".into(),
                source: "ok a".into()
            }
            .encode(),
            Request::Verify(VerifyItem {
                name: "a".into(),
                source: "ok a".into()
            })
            .encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"protocol\":1"), "{text}");
        assert!(
            lines[1].contains("requires protocol v2"),
            "{text}"
        );
        assert!(lines[2].contains("\"verified\":true"), "{text}");
    }

    #[test]
    fn unsubscribed_v2_session_gets_single_line_responses() {
        let server = server();
        let input = format!(
            "{}\n{}\n",
            Request::Open {
                doc: "a".into(),
                source: "ok a".into()
            }
            .encode(),
            Request::Open {
                doc: "a".into(),
                source: "ok a".into()
            }
            .encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2, "no events without subscribe: {text}");
        assert!(lines.iter().all(|l| l.get("event").is_none()));
        // The identical reopen is served from the program tier.
        assert_eq!(lines[0].get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(lines[1].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(lines[1].get("revision").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn metrics_op_reports_counters_and_status_counts_streamed_bytes() {
        let server = server();
        let input = format!(
            "{}\n{}\n{}\n",
            Request::Verify(VerifyItem {
                name: "a".into(),
                source: "ok a".into()
            })
            .encode(),
            Request::Metrics.encode(),
            Request::Status.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();

        // The metrics line is the flat counter snapshot.
        let counters = lines[1].get("counters").expect("counters object");
        let counter = |name: &str| counters.get(name).and_then(Json::as_u64);
        assert_eq!(counter("daemon.requests"), Some(2), "{text}");
        assert_eq!(counter("daemon.programs"), Some(1));
        assert_eq!(counter("cache.misses"), Some(1));
        // Counted after the verify response was written, before metrics'.
        assert!(counter("daemon.bytes_streamed").unwrap() > 0, "{text}");

        // The status response agrees and includes every line so far.
        let status = StatusInfo::from_json(&lines[2]).unwrap();
        let streamed_before_status: usize =
            text.lines().take(2).map(|l| l.len() + 1).sum();
        assert_eq!(status.bytes_streamed, streamed_before_status as u64, "{text}");

        // In-memory sessions (no transport) stream nothing.
        let in_memory = self::server();
        let (response, _) = Connection::open(&in_memory).call(&Request::Metrics);
        assert_eq!(
            response
                .get("counters")
                .and_then(|c| c.get("daemon.bytes_streamed"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn metrics_op_is_v2_guarded() {
        let server = server();
        let input = format!(
            "{}\n{}\n",
            Request::Hello { protocol: 1 }.encode(),
            Request::Metrics.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(
            text.lines().nth(1).unwrap().contains("requires protocol v2"),
            "{text}"
        );
    }

    #[test]
    fn per_item_compile_names_do_not_leak_between_slots() {
        // The report's program name comes from the *source*, not the
        // item name; two items with identical source share a cache slot.
        let server = server();
        let items = vec![
            VerifyItem { name: "one.csl".into(), source: "ok same".into() },
            VerifyItem { name: "two.csl".into(), source: "ok same".into() },
        ];
        let outcomes = server.verify_items(&items, false);
        let a = outcomes[0].as_ref().unwrap();
        let b = outcomes[1].as_ref().unwrap();
        assert_eq!(a.key, b.key);
        assert!(!a.cached && b.cached, "second identical job hits in-batch");
        assert_eq!(a.report.program, b.report.program);
    }

    #[test]
    fn every_wire_line_carries_a_request_id() {
        let server = server();
        let input = [
            // Client-supplied id: echoed on the response.
            Request::Hello { protocol: 2 }.encode_with_request_id("cli-hello"),
            Request::Subscribe { events: true }.encode_with_request_id("cli-sub"),
            // Streamed request: the id rides every event line too.
            Request::Open {
                doc: "a.csl".into(),
                source: "ok prog-a".into(),
            }
            .encode_with_request_id("cli-open"),
            // No id supplied: the daemon assigns one.
            Request::Status.encode(),
        ]
        .join("\n")
            + "\n";
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert!(lines.len() >= 4, "{text}");
        for line in &lines {
            assert!(
                crate::protocol::request_id_of(line).is_some(),
                "line without request_id: {line}"
            );
        }
        assert_eq!(crate::protocol::request_id_of(&lines[0]), Some("cli-hello"));
        // Every line of the streamed open — events and final report —
        // carries the open's id.
        let open_lines: Vec<&Json> = lines
            .iter()
            .filter(|l| crate::protocol::request_id_of(l) == Some("cli-open"))
            .collect();
        assert!(open_lines.len() >= 2, "events + report: {text}");
        assert!(open_lines
            .iter()
            .any(|l| l.get("event").and_then(Json::as_str) == Some("report")));
        // The daemon-assigned id for the bare status request.
        let status_line = lines.last().unwrap();
        let assigned = crate::protocol::request_id_of(status_line).unwrap();
        assert!(assigned.starts_with('r'), "daemon-assigned id: {assigned}");
    }

    #[test]
    fn garbage_lines_bump_the_decode_error_counter_and_event_log() {
        let server = server();
        // The third line nests 100 000 arrays: it must be rejected like
        // any other garbage, not overflow the connection thread's stack.
        // The fourth is one byte over the line cap: it is answered and
        // dropped, and the connection keeps serving.
        let input = format!(
            "this is not json\n{{\"op\":\"no-such-op\"}}\n{}\n{}\n{}\n{}\n",
            "[".repeat(100_000),
            "x".repeat(MAX_MESSAGE_BYTES + 1),
            Request::Metrics.encode(),
            Request::Logs { since: None }.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 6, "{text}");
        for line in &lines[..4] {
            assert_eq!(line.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert!(line.get("error").and_then(Json::as_str).is_some(), "{line}");
            assert!(line.get("request_id").and_then(Json::as_str).is_some(), "{line}");
        }
        let oversized = lines[3].get("error").and_then(Json::as_str).unwrap();
        assert!(oversized.contains("longer than"), "{oversized}");

        // The counter is visible through the wire `metrics` op, and every
        // answered line so far, refused by the framing or not, counts as
        // a request (the `metrics` line itself included).
        let metrics = crate::protocol::metrics_from_json(&lines[4]).unwrap();
        assert_eq!(metrics.get("daemon.request.decode_error"), Some(4));
        assert_eq!(metrics.get("daemon.requests"), Some(5), "{text}");
        // Every request is one decode error or one histogram sample.
        let samples: u64 = server
            .wire()
            .histogram_snapshot()
            .iter()
            .map(|(_, h)| h.count())
            .sum();
        let after = server.metrics();
        assert_eq!((after.get("daemon.requests"), samples), (Some(6), 2));
        assert_eq!(after.get("daemon.request.decode_error"), Some(6 - samples));

        // Every failure landed in the event log as a `decode` event.
        let page = crate::protocol::logs_from_json(&lines[5]).unwrap();
        let decodes: Vec<_> = page
            .events
            .iter()
            .filter(|e| e.op == "decode" && e.outcome == "decode_error")
            .collect();
        assert_eq!(decodes.len(), 4, "{text}");
        assert!(decodes.iter().all(|e| !e.request_id.is_empty()));
    }

    #[test]
    fn histograms_and_logs_ops_report_served_requests() {
        let server = server();
        let verify = Request::Verify(VerifyItem {
            name: "a".into(),
            source: "ok a".into(),
        });
        let input = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            verify.encode(),
            verify.encode(),
            Request::Status.encode(),
            Request::Histograms.encode(),
            Request::Logs { since: Some(1) }.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();

        // histograms: one per op served *before* the histograms request.
        let hists = crate::protocol::histograms_from_json(&lines[3]).unwrap();
        let by_op: std::collections::BTreeMap<&str, u64> = hists
            .iter()
            .map(|(op, h)| (op.as_str(), h.count()))
            .collect();
        assert_eq!(by_op.get("verify"), Some(&2), "{text}");
        assert_eq!(by_op.get("status"), Some(&1), "{text}");
        assert!(hists.iter().all(|(_, h)| h.quantile(0.99) >= h.quantile(0.5)));

        // status mirrors the same per-op counts (verify only sees the
        // requests served before it).
        let status = StatusInfo::from_json(&lines[2]).unwrap();
        let ops: std::collections::BTreeMap<&str, u64> = status
            .ops
            .iter()
            .map(|(op, n)| (op.as_str(), *n))
            .collect();
        assert_eq!(ops.get("verify"), Some(&2), "{text}");
        assert!(status.started_at_unix_ms > 0);

        // logs: `since 1` skips the first event; seqs strictly increase
        // and every record names its op and request id.
        let page = crate::protocol::logs_from_json(&lines[4]).unwrap();
        assert!(page.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(page.events.iter().all(|e| e.seq > 1));
        assert!(page.events.iter().any(|e| e.op == "verify"));
        assert!(page.events.iter().all(|e| !e.request_id.is_empty()));
        assert_eq!(page.dropped, 0);
        assert!(page.last_seq >= 4, "{text}");
    }

    #[test]
    fn histograms_and_logs_ops_are_v2_guarded() {
        let server = server();
        let input = format!(
            "{}\n{}\n{}\n",
            Request::Hello { protocol: 1 }.encode(),
            Request::Histograms.encode(),
            Request::Logs { since: None }.encode(),
        );
        let mut output = Vec::new();
        server.serve_stream(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("requires protocol v2"), "{text}");
        assert!(lines[2].contains("requires protocol v2"), "{text}");
    }

    #[test]
    fn slow_requests_are_flagged_with_span_aggregates() {
        let server = server();
        // A real request is far faster than the threshold: drive the
        // observation path directly, 1 ns over it.
        server
            .wire()
            .observe("verify", "r1", SLOW_REQUEST_MS * 1_000_000 + 1, true);
        let events = server.wire().event_log().since(0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, "ok");
        assert!(events[0].detail.starts_with("slow: "), "{}", events[0].detail);
        assert!(events[0].detail.contains("p99"), "{}", events[0].detail);
        assert_eq!(server.metrics().get("daemon.requests.slow"), Some(1));
    }

    #[test]
    fn request_shutdown_from_another_thread_wakes_an_idle_accept_loop() {
        let dir = std::env::temp_dir().join(format!("commcsl-wake-{}", std::process::id()));
        let socket = dir.join("d.sock");
        let listener = Server::bind_tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        for tcp in [false, true] {
            let server = server();
            let connect = || {
                if tcp {
                    Client::connect_tcp(&addr)
                } else {
                    Client::connect(&socket)
                }
            };
            let (done, returned) = mpsc::channel();
            thread::scope(|scope| {
                scope.spawn(|| {
                    let served = if tcp {
                        server.serve_tcp(&listener)
                    } else {
                        server.serve_unix(&socket)
                    };
                    let _ = done.send(served.is_ok());
                });
                // One round trip proves the loop is up; after it the
                // loop waits in `accept` with no connection pending.
                connect_with_retry(Duration::from_secs(5), "test daemon", connect)
                    .expect("the daemon comes up")
                    .status()
                    .expect("the daemon answers");
                server.request_shutdown();
                let outcome = returned.recv_timeout(Duration::from_secs(5));
                if outcome.is_err() {
                    // Unblock a loop that missed the wake-up, so that the
                    // scope can join it.
                    let _ = connect();
                }
                assert_eq!(outcome, Ok(true), "tcp={tcp}: the serve loop did not return");
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_ends_idle_sessions_at_once() {
        let dir = std::env::temp_dir().join(format!("commcsl-idle-{}", std::process::id()));
        let socket = dir.join("d.sock");
        let listener = Server::bind_tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        for tcp in [false, true] {
            let server = server();
            let connect = || {
                if tcp {
                    Client::connect_tcp(&addr)
                } else {
                    Client::connect(&socket)
                }
            };
            let (done, returned) = mpsc::channel();
            thread::scope(|scope| {
                scope.spawn(|| {
                    let served = if tcp {
                        server.serve_tcp(&listener)
                    } else {
                        server.serve_unix(&socket)
                    };
                    let _ = done.send((served.is_ok(), Instant::now()));
                });
                // The idle session has just answered, so its next read
                // timeout is a full 200 ms away when the shutdown lands.
                let mut idle = connect_with_retry(Duration::from_secs(5), "test daemon", connect)
                    .expect("the daemon comes up");
                idle.status().expect("the daemon answers");
                connect()
                    .and_then(|mut client| client.shutdown().map_err(io::Error::other))
                    .expect("the daemon acknowledges the shutdown");
                let acknowledged = Instant::now();
                let (served, at) = returned
                    .recv_timeout(Duration::from_secs(5))
                    .expect("the serve loop returns");
                let after = at.saturating_duration_since(acknowledged);
                assert!(served, "tcp={tcp}");
                assert!(
                    after < Duration::from_millis(100),
                    "tcp={tcp}: returned {after:?} after the acknowledgement"
                );
                drop(idle);
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
