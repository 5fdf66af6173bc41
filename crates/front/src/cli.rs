//! The `commcsl` command-line driver.
//!
//! ```text
//! commcsl verify [--threads N] [--json] [--expect verified|rejected]
//!                [--fail-fast] [--backend fresh|incremental] [--trace-out F]
//!                [--explain] [--daemon] [--no-start] [--socket PATH]
//!                [--cache-dir DIR] PATH...
//! commcsl profile [--threads N] [--json] [--backend fresh|incremental]
//!                 [--trace-out F] [--folded-out F] [--deterministic] PATH...
//! commcsl watch  [--json] [--interval MS] [--once]
//!                [--backend fresh|incremental] [--cache-dir DIR] PATH...
//! commcsl serve  [--socket PATH | --tcp ADDR] [--shards N]
//!                [--remote-cache ADDR] [--cache-dir DIR] [--threads N] [--stdio]
//! commcsl lsp    [--stdio] [--backend fresh|incremental] [--cache-dir DIR]
//!                [--no-minimize] [--no-hints]
//! commcsl daemon status|metrics|stop [--socket PATH | --tcp ADDR] [--json]
//! commcsl daemon top  [--once] [--json] [--interval MS] [--socket PATH | --tcp ADDR]
//! commcsl daemon logs [--follow] [--json] [--since N] [--socket PATH | --tcp ADDR]
//! commcsl fixture NAME [--json]
//! commcsl lint   [--json] [--deny warnings] PATH...
//! commcsl fmt PATH...
//! commcsl help
//! ```
//!
//! `watch` is the edit-loop mode: files are opened as documents of a
//! [`commcsl_verifier::workspace::Workspace`] and re-verified on change
//! (mtime/length polling — no platform watcher dependency). Re-checks are
//! *incremental*: obligations whose dependency cone an edit left
//! untouched replay their cached status, so the loop's latency tracks
//! the size of the edit, not the size of the file. `--json` emits one
//! NDJSON event per line (`watching`, `verified`, `error`), `--once`
//! runs a single pass and exits with `verify`-style codes.
//!
//! `PATH` arguments may be `.csl` files, directories (searched recursively
//! for `*.csl`), or simple `*`-globs in the final path component. `verify`
//! pushes every program through the parallel batch-verification pipeline
//! ([`commcsl_verifier::Verifier::verify_batch`]) and reports per-program
//! results — human-readable by default, one machine-readable JSON document
//! with `--json`.
//!
//! With `--daemon`, `verify` connects to the persistent verification
//! service of `commcsl-server` instead (starting one on demand unless
//! `--no-start` is given) and lets its content-addressed cache answer
//! unchanged programs without re-running symbolic execution; on any
//! connection failure it falls back to in-process verification, so the
//! flag is always safe. `serve` runs the daemon in the foreground;
//! `daemon status` / `daemon stop` poke a running one.
//!
//! **Exit codes** (uniform across commands):
//!
//! * `0` — every program parsed and matched the expectation
//!   (`verified`, or `rejected` under `--expect rejected`),
//! * `1` — at least one verdict mismatched the expectation,
//! * `2` — a parse, lowering, I/O, or usage error.
//!
//! The driver is a library function ([`run`]) over an output sink so the
//! workspace's integration tests can drive it in-process; the binary in
//! `src/bin/commcsl.rs` is a thin wrapper. The only exception is
//! `serve`, which streams protocol responses to its peers directly and
//! only reports startup/shutdown through the sink.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use std::sync::Arc;

use commcsl_analysis::lint::{lint_program, Lint, Severity};
use commcsl_cluster::{RemoteCacheClient, ShardPool};
use commcsl_server::client::{connect_or_start, Client};
use commcsl_server::daemon::{Server, ServerConfig};
use commcsl_server::json::Json as WireJson;
use commcsl_server::protocol::{StatusInfo, VerifyItem};
use commcsl_telemetry::{Histogram, MetricsSnapshot};
use commcsl_smt::{BackendKind, SessionStats};
use commcsl_telemetry::export::{
    attributed_ns, by_label, chrome_trace, folded_stacks, FoldedWeight,
};
use commcsl_telemetry::{counter_add, finish_capture, start_capture, Capture};
use commcsl_verifier::api::Verifier;
use commcsl_verifier::cache::CacheConfig;
use commcsl_verifier::obligation::DischargeStats;
use commcsl_verifier::program::AnnotatedProgram;
use commcsl_verifier::report::{VerifierConfig, VerifierReport};

use crate::compile;

/// Schema version of the CLI's *wrapper* JSON documents (`verify --json`,
/// `lint --json`, and `profile --json`). Independent of the embedded
/// report's [`commcsl_verifier::report::REPORT_SCHEMA_VERSION`], which
/// stays at 1: v2 added per-obligation timing and static-pre-pass
/// discharge counters to the wrapper entries; v3 adds per-file solver
/// session counters (`session`) and batch-wide `session_totals` to the
/// summary. Session stats deliberately live in the wrapper, never in
/// report bytes, so reports stay byte-identical across engines, caches,
/// and backends.
pub const CLI_SCHEMA_VERSION: u32 = 3;

/// Exit code: everything as expected.
pub const EXIT_OK: i32 = 0;
/// Exit code: at least one verdict mismatch.
pub const EXIT_MISMATCH: i32 = 1;
/// Exit code: parse, lowering, I/O, or usage error.
pub const EXIT_ERROR: i32 = 2;

/// What `verify` expects of every program in the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every program must verify (the default).
    Verified,
    /// Every program must *fail* verification (for known-insecure
    /// corpora such as `examples/rejected/`).
    Rejected,
}

const USAGE: &str = "\
usage: commcsl <command> [options] <path>...

commands:
  verify    parse, lower, and verify annotated programs
  profile   verify with the telemetry capture armed; export a Chrome
            trace (--trace-out) and/or folded flamegraph stacks
            (--folded-out), and summarize spans and counters
  watch     re-verify files on change, incrementally (workspace session)
  lsp       run the editor language server on stdin/stdout (JSON-RPC;
            diagnostics, hover with minimized counterexamples and proof
            cores, incremental re-verification on edit)
  serve     run the persistent verification daemon (foreground)
  daemon    control a running daemon: `daemon status`, `daemon metrics`,
            `daemon top` (live per-op latency dashboard), `daemon logs`
            (request event log), `daemon stop`
  fixture   verify a built-in Table 1 fixture by name
  lint      run static lints (no solver): unused resources/actions/vars,
            share discipline, redundant annotations
  fmt       parse and pretty-print programs to stdout (canonical form)
  help      show this message

options (verify):
  --threads N                  worker threads (0 = one per CPU, default)
  --json                       emit one JSON document instead of text
  --expect verified|rejected   required verdict for exit code 0
                               (default: verified)
  --fail-fast                  stop dispatching programs after the first
                               failing one; the rest report as skipped
  --backend fresh|incremental  solver backend for in-process verification
                               (default: incremental; both are sound and
                               pinned verdict-identical on the corpus)
  --daemon                     verify through the persistent daemon
                               (starts one on demand; falls back to
                               in-process verification on failure)
  --no-start                   with --daemon: never start a daemon, only
                               use one that is already running
  --socket PATH                daemon socket (default: <cache-dir>/commcsl.sock)
  --tcp ADDR                   connect to a daemon on host:port instead of
                               the Unix socket (never starts one)
  --cache-dir DIR              verdict-cache directory (default: .commcsl-cache)
  --trace-out F                write a Chrome trace-event JSON of the run
                               (in-process only; incompatible with --daemon)
  --explain                    enable proof-core tracking and counterexample
                               minimization: per-obligation `core` lines in
                               the text output (and `core`/`hints` fields in
                               --json reports), minimized counterexamples on
                               failures (in-process only)

options (profile):
  --threads N / --json / --backend fresh|incremental   as for verify
  --trace-out F                write Chrome trace-event JSON (Perfetto)
  --folded-out F               write folded flamegraph stacks
  --deterministic              weight folded stacks by span counts instead
                               of self-time nanoseconds; with --threads 1
                               the file is byte-identical across runs

options (watch):
  --json                       one NDJSON event per line instead of text
  --interval MS                poll interval in milliseconds (default 200)
  --once                       single pass over all files, then exit
  --backend fresh|incremental  solver backend (default: incremental)
  --cache-dir DIR              persist the verdict/obligation cache under
                               DIR (default: in-memory only)

options (lsp):
  --stdio                      serve LSP on stdin/stdout (the default and
                               only transport; accepted for editor compat)
  --backend fresh|incremental  solver backend (default: incremental)
  --cache-dir DIR              persist the verdict/obligation cache under
                               DIR (default: in-memory only)
  --no-minimize                do not minimize counterexamples on failures
  --no-hints                   do not track proof cores / emit
                               unneeded-annotation hints

options (serve):
  --socket PATH / --cache-dir DIR / --threads N   as above
  --tcp ADDR                   listen on host:port instead of the Unix
                               socket (port 0 picks a free port; the
                               readiness line names the actual address)
  --shards N                   with --tcp: run N shared-nothing verifier
                               shards behind one consistent-hash router
                               (each shard caches under <cache-dir>/shardI)
  --remote-cache ADDR          chain a remote daemon's obligation cache
                               behind memory and disk (cache_get/cache_put)
  --memory N                   in-memory cache capacity (default 4096)
  --stdio                      serve one NDJSON session on stdin/stdout
                               instead of listening on the socket

options (daemon top):
  --once                       render one dashboard frame and exit
  --json                       with --once: one JSON document combining
                               status, per-op latency histograms, and
                               counters (for scripting)
  --interval MS                refresh interval (default 1000)

options (daemon logs):
  --follow                     poll for new events until interrupted
  --since N                    only events with seq > N
  --json                       one JSON object per event (NDJSON)
  --interval MS                poll interval with --follow (default 1000)

options (lint):
  --json                       emit one JSON document instead of text
  --deny warnings              exit 1 when any warning-severity lint fires
                               (notes never affect the exit code)

exit codes: 0 = all programs matched the expectation, 1 = at least one
verdict mismatch, 2 = parse/lower/IO/usage error

paths may be .csl files, directories (searched recursively), or simple
*-globs in the final component (e.g. examples/programs/*.csl)";

/// Runs the CLI. Returns the process exit code; all output goes to `out`
/// (except `serve`, which talks to its peers directly).
pub fn run(args: &[String], out: &mut String) -> i32 {
    match args.first().map(String::as_str) {
        Some("verify") => run_verify(&args[1..], out),
        Some("profile") => run_profile(&args[1..], out),
        Some("watch") => run_watch(&args[1..], out),
        Some("lsp") => run_lsp(&args[1..], out),
        Some("serve") => run_serve(&args[1..], out),
        Some("daemon") => run_daemon(&args[1..], out),
        Some("fixture") => run_fixture(&args[1..], out),
        Some("lint") => run_lint(&args[1..], out),
        Some("fmt") => run_fmt(&args[1..], out),
        Some("help") | Some("--help") | Some("-h") | None => {
            let _ = writeln!(out, "{USAGE}");
            if args.is_empty() {
                EXIT_ERROR
            } else {
                EXIT_OK
            }
        }
        Some(other) => {
            let _ = writeln!(out, "commcsl: unknown command `{other}`\n{USAGE}");
            EXIT_ERROR
        }
    }
}

// ------------------------------------------------------------------ verify

/// The `--socket` / `--tcp` / `--cache-dir` endpoint flags shared by
/// every daemon-facing command (`verify --daemon`, `serve`,
/// `daemon status|stop`), with the one place that knows the default
/// socket location.
#[derive(Debug)]
struct DaemonPaths {
    socket: Option<PathBuf>,
    /// `Some(host:port)` switches the endpoint from the Unix socket to
    /// TCP (and disables daemon auto-start: remote lifecycles are not
    /// ours to manage).
    tcp: Option<String>,
    cache_dir: PathBuf,
}

impl DaemonPaths {
    fn new() -> Self {
        DaemonPaths {
            socket: None,
            tcp: None,
            cache_dir: PathBuf::from(".commcsl-cache"),
        }
    }

    /// The effective socket: explicit, or `<cache-dir>/commcsl.sock`.
    fn socket_path(&self) -> PathBuf {
        self.socket
            .clone()
            .unwrap_or_else(|| self.cache_dir.join("commcsl.sock"))
    }

    /// The endpoint as shown to humans: `tcp://host:port` or the socket
    /// path.
    fn endpoint(&self) -> String {
        match &self.tcp {
            Some(addr) => format!("tcp://{addr}"),
            None => self.socket_path().display().to_string(),
        }
    }

    /// One connect attempt to whichever endpoint is selected.
    fn connect(&self) -> std::io::Result<Client> {
        match &self.tcp {
            Some(addr) => Client::connect_tcp(addr),
            None => Client::connect(&self.socket_path()),
        }
    }

    /// Consumes `arg` if it is one of the shared flags. `Ok(true)` when
    /// handled, `Ok(false)` when the caller should match it, `Err` with
    /// the exit code on a missing value.
    fn take_flag(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
        out: &mut String,
    ) -> Result<bool, i32> {
        match arg {
            "--socket" => {
                self.socket = Some(take_path_value(it, "--socket", out)?);
                Ok(true)
            }
            "--tcp" => match it.next() {
                Some(addr) => {
                    self.tcp = Some(addr.clone());
                    Ok(true)
                }
                None => {
                    let _ = writeln!(out, "commcsl: --tcp needs host:port");
                    Err(EXIT_ERROR)
                }
            },
            "--cache-dir" => {
                self.cache_dir = take_path_value(it, "--cache-dir", out)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

fn take_path_value(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    out: &mut String,
) -> Result<PathBuf, i32> {
    match it.next() {
        Some(v) => Ok(PathBuf::from(v)),
        None => {
            let _ = writeln!(out, "commcsl: {flag} needs a path");
            Err(EXIT_ERROR)
        }
    }
}

#[derive(Debug)]
struct VerifyFlags {
    threads: usize,
    json: bool,
    expect: Expect,
    fail_fast: bool,
    backend: BackendKind,
    daemon: bool,
    no_start: bool,
    /// Write a Chrome trace-event JSON of the run here (in-process only).
    trace_out: Option<PathBuf>,
    /// Verify with proof-core tracking and counterexample minimization,
    /// and render per-obligation cores (in-process only).
    explain: bool,
    locations: DaemonPaths,
    paths: Vec<String>,
}

fn parse_verify_flags(args: &[String], out: &mut String) -> Result<VerifyFlags, i32> {
    let mut flags = VerifyFlags {
        threads: 0,
        json: false,
        expect: Expect::Verified,
        fail_fast: false,
        backend: BackendKind::default(),
        daemon: false,
        no_start: false,
        trace_out: None,
        explain: false,
        locations: DaemonPaths::new(),
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.locations.take_flag(arg, &mut it, out)? {
            continue;
        }
        match arg.as_str() {
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    let _ = writeln!(out, "commcsl: --threads needs a number");
                    return Err(EXIT_ERROR);
                };
                flags.threads = n;
            }
            "--json" => flags.json = true,
            "--fail-fast" => flags.fail_fast = true,
            "--backend" => match it.next().and_then(|v| BackendKind::from_name(v)) {
                Some(backend) => flags.backend = backend,
                None => {
                    let _ = writeln!(
                        out,
                        "commcsl: --backend needs `fresh` or `incremental`"
                    );
                    return Err(EXIT_ERROR);
                }
            },
            "--daemon" => flags.daemon = true,
            "--no-start" => flags.no_start = true,
            "--explain" => flags.explain = true,
            "--trace-out" => {
                flags.trace_out = Some(take_path_value(&mut it, "--trace-out", out)?);
            }
            "--expect" => match it.next().map(String::as_str) {
                Some("verified") => flags.expect = Expect::Verified,
                Some("rejected") => flags.expect = Expect::Rejected,
                other => {
                    let _ = writeln!(
                        out,
                        "commcsl: --expect needs `verified` or `rejected`, got {other:?}"
                    );
                    return Err(EXIT_ERROR);
                }
            },
            flag if flag.starts_with("--") => {
                let _ = writeln!(out, "commcsl: unknown option `{flag}`\n{USAGE}");
                return Err(EXIT_ERROR);
            }
            path => flags.paths.push(path.to_owned()),
        }
    }
    if flags.paths.is_empty() {
        let _ = writeln!(out, "commcsl: verify needs at least one path\n{USAGE}");
        return Err(EXIT_ERROR);
    }
    if flags.trace_out.is_some() && flags.daemon {
        let _ = writeln!(
            out,
            "commcsl: --trace-out traces the in-process pipeline and cannot \
             be combined with --daemon; for daemon-side latency use \
             `commcsl daemon top` (or the `histograms` protocol op)"
        );
        return Err(EXIT_ERROR);
    }
    if flags.explain && flags.daemon {
        let _ = writeln!(
            out,
            "commcsl: --explain toggles in-process verifier knobs (proof \
             cores, counterexample minimization) and cannot be combined \
             with --daemon: the daemon verifies under its own configuration"
        );
        return Err(EXIT_ERROR);
    }
    Ok(flags)
}

/// Per-file read/parse/lower failures (path, message).
type FileErrors = Vec<(PathBuf, String)>;

/// One verified file, whichever engine produced it.
struct FileResult {
    file: PathBuf,
    time_ms: f64,
    /// `Some(..)` in daemon mode (cache status known), `None` in-process.
    cached: Option<bool>,
    /// `true` when `--fail-fast` stopped the batch before this file ran.
    skipped: bool,
    /// Discharge breakdown (static pre-pass vs solver). `None` when the
    /// engine served the whole file from a cache without re-discharging,
    /// and in daemon mode (the v1 batch protocol does not carry it).
    stats: Option<DischargeStats>,
    /// Per-obligation wall-clock times, milliseconds, in obligation order.
    /// Diagnostic payload only; empty when unavailable (daemon/cached).
    obligation_times_ms: Vec<f64>,
    /// Solver-session counters for this file's run. `None` when the
    /// engine served it from a cache or over the daemon protocol.
    session: Option<SessionStats>,
    report: VerifierReport,
}

/// How the batch was executed (reported in `--json` summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    InProcess,
    Daemon,
    /// `--daemon` was requested but the connection failed.
    Fallback,
}

impl Engine {
    fn as_str(self) -> &'static str {
        match self {
            Engine::InProcess => "in-process",
            Engine::Daemon => "daemon",
            Engine::Fallback => "fallback",
        }
    }
}

fn run_verify(args: &[String], out: &mut String) -> i32 {
    let flags = match parse_verify_flags(args, out) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let files = match collect_files(&flags.paths) {
        Ok(files) if files.is_empty() => {
            let _ = writeln!(out, "commcsl: no .csl files found");
            return EXIT_ERROR;
        }
        Ok(files) => files,
        Err(msg) => {
            let _ = writeln!(out, "commcsl: {msg}");
            return EXIT_ERROR;
        }
    };

    // Read every file up front; unreadable files are hard errors either way.
    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    let mut file_errors: FileErrors = Vec::new();
    for file in files {
        match fs::read_to_string(&file) {
            Ok(src) => sources.push((file, src)),
            Err(e) => file_errors.push((file, format!("cannot read file: {e}"))),
        }
    }

    let mut engine = Engine::InProcess;
    let mut results: Vec<FileResult> = Vec::new();
    if flags.daemon {
        match verify_via_daemon(&flags, &sources) {
            Ok((daemon_results, daemon_errors)) => {
                engine = Engine::Daemon;
                results = daemon_results;
                file_errors.extend(daemon_errors);
            }
            Err(why) => {
                engine = Engine::Fallback;
                if !flags.json {
                    let _ = writeln!(
                        out,
                        "commcsl: daemon unavailable ({why}); verifying in-process"
                    );
                }
            }
        }
    }
    if engine != Engine::Daemon {
        let tracing = flags.trace_out.is_some();
        if tracing {
            start_capture();
        }
        let (local_results, local_errors) = verify_in_process(&flags, &sources);
        if tracing {
            let capture = finish_capture();
            if let Err(code) =
                write_export(flags.trace_out.as_deref(), &chrome_trace(&capture), out)
            {
                return code;
            }
        }
        results = local_results;
        file_errors.extend(local_errors);
    }

    render_verify(&flags, engine, &file_errors, &results, out)
}

/// Writes one exporter output to `path` (no-op when `None`), reporting
/// I/O failures as usage-style errors.
fn write_export(path: Option<&Path>, content: &str, out: &mut String) -> Result<(), i32> {
    let Some(path) = path else { return Ok(()) };
    fs::write(path, content).map_err(|e| {
        let _ = writeln!(out, "commcsl: cannot write {}: {e}", path.display());
        EXIT_ERROR
    })
}

/// In-process engine: compile, then push the survivors through the
/// unified [`Verifier`] pipeline.
fn verify_in_process(
    flags: &VerifyFlags,
    sources: &[(PathBuf, String)],
) -> (Vec<FileResult>, FileErrors) {
    let mut programs: Vec<(usize, AnnotatedProgram)> = Vec::new();
    let mut errors: FileErrors = Vec::new();
    for (i, (file, src)) in sources.iter().enumerate() {
        match compile(src) {
            Ok(program) => programs.push((i, program)),
            Err(e) => errors.push((file.clone(), e.to_string())),
        }
    }
    let refs: Vec<&AnnotatedProgram> = programs.iter().map(|(_, p)| p).collect();
    let verifier = Verifier::new()
        .with_threads(flags.threads)
        .with_backend(flags.backend)
        .with_fail_fast(flags.fail_fast)
        .with_minimized_counterexamples(flags.explain)
        .with_proof_cores(flags.explain);
    let outcomes = verifier.verify_batch(&refs);
    let results = programs
        .iter()
        .zip(outcomes)
        .map(|((i, _), o)| FileResult {
            file: sources[*i].0.clone(),
            time_ms: o.time.as_secs_f64() * 1000.0,
            cached: o.cached,
            skipped: o.skipped,
            stats: o.stats,
            obligation_times_ms: o
                .obligation_times
                .iter()
                .map(|t| t.as_secs_f64() * 1000.0)
                .collect(),
            session: o.session,
            report: o.report,
        })
        .collect();
    (results, errors)
}

/// Daemon engine: ship sources to the verification service.
fn verify_via_daemon(
    flags: &VerifyFlags,
    sources: &[(PathBuf, String)],
) -> Result<(Vec<FileResult>, FileErrors), String> {
    let mut client = match &flags.locations.tcp {
        // TCP daemons are never auto-started: the address usually names
        // another machine, and lifecycle belongs to whoever runs it.
        Some(addr) => Client::connect_tcp(addr).map_err(|e| e.to_string())?,
        None => {
            let socket = flags.locations.socket_path();
            connect_or_start(&socket, Duration::from_secs(5), || {
                if flags.no_start {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionRefused,
                        "no daemon running and --no-start given",
                    ));
                }
                spawn_daemon(flags, &socket)
            })
            .map_err(|e| e.to_string())?
        }
    };

    // Version handshake: a daemon left over from an older binary would
    // compile, hash, and verify with *outdated* semantics — exactly the
    // staleness the format version exists to prevent. Fall back to
    // in-process verification; when this invocation manages the daemon
    // lifecycle (no `--no-start`), also ask the stale one to retire so
    // the next invocation spawns a fresh one.
    let status = client.status().map_err(|e| e.to_string())?;
    if status.format_version != u64::from(commcsl_verifier::hash::HASH_FORMAT_VERSION)
        || status.version != env!("CARGO_PKG_VERSION")
    {
        let action = if flags.locations.tcp.is_some() {
            "left running (remote daemon)"
        } else if flags.no_start {
            "left running (--no-start)"
        } else {
            let _ = client.shutdown();
            "asked it to shut down"
        };
        return Err(format!(
            "daemon is v{} (format v{}), this binary is v{} (format v{}); {action}",
            status.version,
            status.format_version,
            env!("CARGO_PKG_VERSION"),
            commcsl_verifier::hash::HASH_FORMAT_VERSION,
        ));
    }

    let items: Vec<VerifyItem> = sources
        .iter()
        .map(|(file, src)| VerifyItem {
            name: file.display().to_string(),
            source: src.clone(),
        })
        .collect();
    let outcomes = client
        .verify_batch_opts(items, flags.fail_fast)
        .map_err(|e| e.to_string())?;

    let mut results = Vec::new();
    let mut errors = Vec::new();
    for ((file, _), outcome) in sources.iter().zip(outcomes) {
        match outcome {
            Ok(ok) => results.push(FileResult {
                file: file.clone(),
                time_ms: ok.time_ms,
                cached: Some(ok.cached),
                skipped: ok.skipped,
                stats: None,
                obligation_times_ms: Vec::new(),
                session: None,
                report: ok.report,
            }),
            Err(e) => errors.push((file.clone(), e)),
        }
    }
    Ok((results, errors))
}

/// Starts a background daemon process (the `serve` subcommand of this
/// very binary) for transparent `--daemon` mode.
fn spawn_daemon(flags: &VerifyFlags, socket: &Path) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    std::process::Command::new(exe)
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--cache-dir")
        .arg(&flags.locations.cache_dir)
        .arg("--threads")
        .arg(flags.threads.to_string())
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map(drop)
}

fn render_verify(
    flags: &VerifyFlags,
    engine: Engine,
    file_errors: &[(PathBuf, String)],
    results: &[FileResult],
    out: &mut String,
) -> i32 {
    let as_expected = |verified: bool| match flags.expect {
        Expect::Verified => verified,
        Expect::Rejected => !verified,
    };
    // A skipped program never matches the expectation: its placeholder
    // report is not a verdict in either direction.
    let matching = results
        .iter()
        .filter(|r| !r.skipped && as_expected(r.report.verified()))
        .count();
    let code = if !file_errors.is_empty() {
        EXIT_ERROR
    } else if matching < results.len() {
        EXIT_MISMATCH
    } else {
        EXIT_OK
    };

    if flags.json {
        let mut entries: Vec<String> = file_errors
            .iter()
            .map(|(file, e)| {
                format!(
                    "{{\"file\":{},\"error\":{}}}",
                    WireJson::str(file.display().to_string()),
                    WireJson::str(e)
                )
            })
            .collect();
        entries.extend(results.iter().map(|r| {
            let cached = r
                .cached
                .map(|c| format!("\"cached\":{c},"))
                .unwrap_or_default();
            let skipped = if r.skipped { "\"skipped\":true," } else { "" };
            // Schema v2: discharge counters + per-obligation timing, when
            // the engine surfaced them (in-process, non-cached route).
            let stats = r
                .stats
                .map(|s| {
                    format!(
                        "\"statically_proven\":{},\"solver_checked\":{},",
                        s.statically_proven, s.checked
                    )
                })
                .unwrap_or_default();
            let times = if r.obligation_times_ms.is_empty() {
                String::new()
            } else {
                format!(
                    "\"obligation_times_ms\":[{}],",
                    r.obligation_times_ms
                        .iter()
                        .map(|t| format!("{t:.3}"))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            // Schema v3: per-file solver session counters, when the
            // engine surfaced them (in-process, non-cached route).
            let session = r
                .session
                .map(|s| format!("\"session\":{},", session_json(&s)))
                .unwrap_or_default();
            format!(
                "{{\"file\":{},\"time_ms\":{:.3},{cached}{skipped}{stats}{times}{session}\"report\":{}}}",
                WireJson::str(r.file.display().to_string()),
                r.time_ms,
                r.report.to_json()
            )
        }));
        let _ = writeln!(
            out,
            "{{\"schema_version\":{},\"results\":[{}],\"summary\":{{\"total\":{},\"as_expected\":{},\
             \"errors\":{},\"expect\":{},\"engine\":{},\"session_totals\":{},\"ok\":{},\
             \"exit_code\":{}}}}}",
            CLI_SCHEMA_VERSION,
            entries.join(","),
            results.len() + file_errors.len(),
            matching,
            file_errors.len(),
            WireJson::str(match flags.expect {
                Expect::Verified => "verified",
                Expect::Rejected => "rejected",
            }),
            WireJson::str(engine.as_str()),
            session_json(&session_totals(results)),
            code == EXIT_OK,
            code
        );
    } else {
        for (file, e) in file_errors {
            let _ = writeln!(out, "{}: {e}", file.display());
        }
        for r in results {
            if r.skipped {
                let _ = writeln!(
                    out,
                    "{}: skipped (fail-fast stopped the batch)",
                    r.file.display()
                );
                continue;
            }
            let marker = if as_expected(r.report.verified()) { "" } else { " [UNEXPECTED]" };
            let cached = match r.cached {
                Some(true) => ", cached",
                _ => "",
            };
            let _ = write!(
                out,
                "{} ({:.3} ms{cached}){marker}: {}",
                r.file.display(),
                r.time_ms,
                r.report
            );
            if flags.explain {
                for o in &r.report.obligations {
                    let Some(core) = &o.core else { continue };
                    let at = o.span.map(|s| format!(" at {s}")).unwrap_or_default();
                    let sites = if core.is_empty() {
                        "no path facts needed".to_owned()
                    } else {
                        core.iter()
                            .map(|f| match f.span {
                                Some(span) => span.to_string(),
                                None => format!(
                                    "stmt {}",
                                    f.path
                                        .iter()
                                        .map(u32::to_string)
                                        .collect::<Vec<_>>()
                                        .join(".")
                                ),
                            })
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    let _ = writeln!(out, "  core [{}]{at}: {sites}", o.code);
                }
            }
        }
        // Aggregate discharge breakdown over the files that carried one.
        let (static_total, solver_total) = results
            .iter()
            .filter_map(|r| r.stats)
            .fold((0usize, 0usize), |(s, c), st| {
                (s + st.statically_proven, c + st.checked)
            });
        let discharge = if static_total + solver_total == 0 {
            String::new()
        } else {
            format!(" ({static_total} obligations statically proven, {solver_total} solver-checked)")
        };
        let totals = session_totals(results);
        if totals != SessionStats::default() {
            let _ = writeln!(
                out,
                "solver sessions: {} checks, {} asserts, {} pushes, {} pops, \
                 {} quiescence skips, {:.3} ms checking",
                totals.checks,
                totals.asserts,
                totals.pushes,
                totals.pops,
                totals.quiescence_skips,
                totals.check_time.as_secs_f64() * 1000.0,
            );
        }
        let _ = writeln!(
            out,
            "\n{matching}/{} programs {}{}{discharge}",
            results.len(),
            match flags.expect {
                Expect::Verified => "verified",
                Expect::Rejected => "rejected as required",
            },
            if file_errors.is_empty() {
                String::new()
            } else {
                format!(", {} file(s) failed to parse", file_errors.len())
            }
        );
    }
    code
}

/// Renders [`SessionStats`] as a JSON object — the schema-v3 `session`
/// shape shared by per-file entries and the summary's `session_totals`.
fn session_json(s: &SessionStats) -> String {
    format!(
        "{{\"checks\":{},\"proved\":{},\"unknown\":{},\"asserts\":{},\"pushes\":{},\
         \"pops\":{},\"quiescence_skips\":{},\"check_time_ms\":{:.3}}}",
        s.checks,
        s.proved,
        s.unknown,
        s.asserts,
        s.pushes,
        s.pops,
        s.quiescence_skips,
        s.check_time.as_secs_f64() * 1000.0,
    )
}

/// Sums the session counters over every file that carried them.
fn session_totals(results: &[FileResult]) -> SessionStats {
    let mut totals = SessionStats::default();
    for s in results.iter().filter_map(|r| r.session.as_ref()) {
        totals.merge(s);
    }
    totals
}

// ----------------------------------------------------------------- profile

#[derive(Debug)]
struct ProfileFlags {
    threads: usize,
    json: bool,
    deterministic: bool,
    backend: BackendKind,
    trace_out: Option<PathBuf>,
    folded_out: Option<PathBuf>,
    paths: Vec<String>,
}

fn parse_profile_flags(args: &[String], out: &mut String) -> Result<ProfileFlags, i32> {
    let mut flags = ProfileFlags {
        threads: 0,
        json: false,
        deterministic: false,
        backend: BackendKind::default(),
        trace_out: None,
        folded_out: None,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    let _ = writeln!(out, "commcsl: --threads needs a number");
                    return Err(EXIT_ERROR);
                };
                flags.threads = n;
            }
            "--json" => flags.json = true,
            "--deterministic" => flags.deterministic = true,
            "--backend" => match it.next().and_then(|v| BackendKind::from_name(v)) {
                Some(backend) => flags.backend = backend,
                None => {
                    let _ = writeln!(out, "commcsl: --backend needs `fresh` or `incremental`");
                    return Err(EXIT_ERROR);
                }
            },
            "--trace-out" => {
                flags.trace_out = Some(take_path_value(&mut it, "--trace-out", out)?);
            }
            "--folded-out" => {
                flags.folded_out = Some(take_path_value(&mut it, "--folded-out", out)?);
            }
            flag if flag.starts_with("--") => {
                let _ = writeln!(out, "commcsl: unknown profile option `{flag}`\n{USAGE}");
                return Err(EXIT_ERROR);
            }
            path => flags.paths.push(path.to_owned()),
        }
    }
    if flags.paths.is_empty() {
        let _ = writeln!(out, "commcsl: profile needs at least one path\n{USAGE}");
        return Err(EXIT_ERROR);
    }
    Ok(flags)
}

/// The self-profiler: verifies the corpus in-process with the telemetry
/// capture armed, then exports and summarizes what the spans recorded.
///
/// The whole run sits under one `profile.run` root span, so the folded
/// stacks' total weight approximates the capture wall time and the
/// summary can report instrumentation *coverage* (the fraction of wall
/// time attributed to some span). Exit codes: `0` when every file
/// compiled (verification failures are reported but still profiled),
/// `2` on read/parse/lower/IO errors.
fn run_profile(args: &[String], out: &mut String) -> i32 {
    let flags = match parse_profile_flags(args, out) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let files = match collect_files(&flags.paths) {
        Ok(files) if files.is_empty() => {
            let _ = writeln!(out, "commcsl: no .csl files found");
            return EXIT_ERROR;
        }
        Ok(files) => files,
        Err(msg) => {
            let _ = writeln!(out, "commcsl: {msg}");
            return EXIT_ERROR;
        }
    };
    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    let mut file_errors: FileErrors = Vec::new();
    for file in files {
        match fs::read_to_string(&file) {
            Ok(src) => sources.push((file, src)),
            Err(e) => file_errors.push((file, format!("cannot read file: {e}"))),
        }
    }

    start_capture();
    let results = {
        let _root = commcsl_telemetry::span!("profile.run", files = sources.len());
        let verify_flags = VerifyFlags {
            threads: flags.threads,
            json: flags.json,
            expect: Expect::Verified,
            fail_fast: false,
            backend: flags.backend,
            daemon: false,
            no_start: false,
            trace_out: None,
            explain: false,
            locations: DaemonPaths::new(),
            paths: Vec::new(),
        };
        let (results, errors) = verify_in_process(&verify_flags, &sources);
        file_errors.extend(errors);
        results
    };
    // Fold the run's ad-hoc statistics into the capture's counter
    // registry, so one snapshot unifies spans, discharge counters, and
    // solver session totals.
    counter_add("profile.programs", results.len() as u64);
    counter_add("profile.errors", file_errors.len() as u64);
    let (static_total, solver_total) = results
        .iter()
        .filter_map(|r| r.stats)
        .fold((0u64, 0u64), |(s, c), st| {
            (s + st.statically_proven as u64, c + st.checked as u64)
        });
    counter_add("obligations.statically_proven", static_total);
    counter_add("obligations.solver_checked", solver_total);
    let totals = session_totals(&results);
    counter_add("solver.checks", totals.checks);
    counter_add("solver.proved", totals.proved);
    counter_add("solver.unknown", totals.unknown);
    counter_add("solver.asserts", totals.asserts);
    counter_add("solver.pushes", totals.pushes);
    counter_add("solver.pops", totals.pops);
    counter_add("solver.quiescence_skips", totals.quiescence_skips);
    let capture = finish_capture();

    if let Err(code) = write_export(flags.trace_out.as_deref(), &chrome_trace(&capture), out) {
        return code;
    }
    let weight = if flags.deterministic {
        FoldedWeight::Calls
    } else {
        FoldedWeight::SelfNanos
    };
    if let Err(code) = write_export(
        flags.folded_out.as_deref(),
        &folded_stacks(&capture, weight),
        out,
    ) {
        return code;
    }

    let code = if file_errors.is_empty() { EXIT_OK } else { EXIT_ERROR };
    let verified = results.iter().filter(|r| r.report.verified()).count();
    if flags.json {
        render_profile_json(&flags, &capture, &results, &file_errors, verified, code, out);
    } else {
        render_profile_text(&flags, &capture, &results, &file_errors, verified, out);
    }
    code
}

/// Instrumentation coverage: the fraction of the capture's wall time
/// attributed to a span on the capturing thread (thread 0, which holds
/// the `profile.run` root). Worker-thread self time is excluded — it
/// overlaps the capturing thread's wall clock, so summing it (as
/// `attributed_ms` does) can legitimately exceed 1.0.
fn coverage(capture: &Capture) -> f64 {
    if capture.wall_ns == 0 {
        return 0.0;
    }
    let thread0: u64 = capture
        .spans
        .iter()
        .filter(|s| s.thread == 0)
        .map(|s| s.self_ns())
        .sum();
    thread0 as f64 / capture.wall_ns as f64
}

fn render_profile_json(
    flags: &ProfileFlags,
    capture: &Capture,
    results: &[FileResult],
    file_errors: &FileErrors,
    verified: usize,
    code: i32,
    out: &mut String,
) {
    let wall_ms = capture.wall_ns as f64 / 1e6;
    let attributed_ms = attributed_ns(capture) as f64 / 1e6;
    let labels: Vec<String> = by_label(capture)
        .iter()
        .map(|l| {
            format!(
                "{{\"label\":{},\"count\":{},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
                WireJson::str(l.label),
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
            )
        })
        .collect();
    let errors: Vec<String> = file_errors
        .iter()
        .map(|(file, e)| {
            format!(
                "{{\"file\":{},\"error\":{}}}",
                WireJson::str(file.display().to_string()),
                WireJson::str(e)
            )
        })
        .collect();
    let counters =
        commcsl_telemetry::MetricsSnapshot::from_pairs(capture.counters.clone()).to_json();
    let _ = writeln!(
        out,
        "{{\"schema_version\":{},\"profile\":{{\"programs\":{},\"verified\":{},\
         \"spans\":{},\"threads\":{},\"wall_ms\":{:.3},\"attributed_ms\":{:.3},\
         \"coverage\":{:.4},\"deterministic\":{},\"labels\":[{}],\"counters\":{}}},\
         \"errors\":[{}],\"ok\":{},\"exit_code\":{}}}",
        CLI_SCHEMA_VERSION,
        results.len(),
        verified,
        capture.spans.len(),
        capture.threads(),
        wall_ms,
        attributed_ms,
        coverage(capture),
        flags.deterministic,
        labels.join(","),
        counters,
        errors.join(","),
        code == EXIT_OK,
        code,
    );
}

fn render_profile_text(
    flags: &ProfileFlags,
    capture: &Capture,
    results: &[FileResult],
    file_errors: &FileErrors,
    verified: usize,
    out: &mut String,
) {
    for (file, e) in file_errors {
        let _ = writeln!(out, "{}: {e}", file.display());
    }
    let wall_ms = capture.wall_ns as f64 / 1e6;
    let covered = 100.0 * coverage(capture);
    let _ = writeln!(
        out,
        "profiled {} program(s) ({verified} verified) in {wall_ms:.3} ms: \
         {} spans on {} thread(s), {covered:.1}% of wall time attributed",
        results.len(),
        capture.spans.len(),
        capture.threads(),
    );
    let _ = writeln!(out, "{:<24} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for l in by_label(capture) {
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12.3} {:>12.3}",
            l.label,
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
        );
    }
    if !capture.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, value) in &capture.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    if let Some(path) = &flags.trace_out {
        let _ = writeln!(out, "wrote Chrome trace to {}", path.display());
    }
    if let Some(path) = &flags.folded_out {
        let _ = writeln!(out, "wrote folded stacks to {}", path.display());
    }
}

// ------------------------------------------------------------------- watch

#[derive(Debug)]
struct WatchFlags {
    json: bool,
    interval_ms: u64,
    once: bool,
    backend: BackendKind,
    cache_dir: Option<PathBuf>,
    paths: Vec<String>,
}

fn parse_watch_flags(args: &[String], out: &mut String) -> Result<WatchFlags, i32> {
    let mut flags = WatchFlags {
        json: false,
        interval_ms: 200,
        once: false,
        backend: BackendKind::default(),
        cache_dir: None,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => flags.json = true,
            "--once" => flags.once = true,
            "--interval" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => flags.interval_ms = ms,
                None => {
                    let _ = writeln!(out, "commcsl: --interval needs milliseconds");
                    return Err(EXIT_ERROR);
                }
            },
            "--backend" => match it.next().and_then(|v| BackendKind::from_name(v)) {
                Some(backend) => flags.backend = backend,
                None => {
                    let _ = writeln!(out, "commcsl: --backend needs `fresh` or `incremental`");
                    return Err(EXIT_ERROR);
                }
            },
            "--cache-dir" => {
                flags.cache_dir = Some(take_path_value(&mut it, "--cache-dir", out)?);
            }
            flag if flag.starts_with("--") => {
                let _ = writeln!(out, "commcsl: unknown watch option `{flag}`\n{USAGE}");
                return Err(EXIT_ERROR);
            }
            path => flags.paths.push(path.to_owned()),
        }
    }
    if flags.paths.is_empty() {
        let _ = writeln!(out, "commcsl: watch needs at least one path\n{USAGE}");
        return Err(EXIT_ERROR);
    }
    Ok(flags)
}

/// Change fingerprint of one watched file (mtime + length; `None` while
/// the file is unreadable).
type Fingerprint = Option<(std::time::SystemTime, u64)>;

/// Tallies of one watch pass.
#[derive(Debug, Default, Clone, Copy)]
struct WatchPass {
    /// Files (re)checked this pass.
    changed: usize,
    /// ... of which verified.
    verified: usize,
    /// ... of which failed verification.
    failed: usize,
    /// ... of which did not read/compile.
    errors: usize,
}

impl WatchPass {
    fn exit_code(self) -> i32 {
        if self.errors > 0 {
            EXIT_ERROR
        } else if self.failed > 0 {
            EXIT_MISMATCH
        } else {
            EXIT_OK
        }
    }
}

/// The edit-loop engine behind `commcsl watch`: a workspace session over
/// a fixed file set, re-verifying documents whose on-disk fingerprint
/// changed. Split from the command loop so tests can drive passes (and
/// simulate edits) without sleeping.
struct Watcher {
    workspace: commcsl_verifier::workspace::Workspace,
    files: Vec<PathBuf>,
    fingerprints: std::collections::HashMap<PathBuf, Fingerprint>,
    json: bool,
}

impl Watcher {
    fn new(flags: &WatchFlags, files: Vec<PathBuf>) -> Watcher {
        use commcsl_verifier::workspace::{Workspace, WorkspaceConfig};
        let mut verifier = VerifierConfig {
            backend: flags.backend,
            ..Default::default()
        };
        verifier.validity.backend = flags.backend;
        let cache = match &flags.cache_dir {
            Some(dir) => CacheConfig::persistent(dir),
            None => CacheConfig::default(),
        };
        Watcher {
            workspace: Workspace::new(WorkspaceConfig { verifier, cache }),
            files,
            fingerprints: std::collections::HashMap::new(),
            json: flags.json,
        }
    }

    fn fingerprint(path: &Path) -> Fingerprint {
        let meta = fs::metadata(path).ok()?;
        Some((meta.modified().ok()?, meta.len()))
    }

    /// Checks every file whose fingerprint changed (all of them with
    /// `force`), appending per-file output to `out`.
    fn pass(&mut self, force: bool, out: &mut String) -> WatchPass {
        let mut tally = WatchPass::default();
        for file in self.files.clone() {
            let current = Self::fingerprint(&file);
            let known = self.fingerprints.get(&file);
            if !force && known == Some(&current) {
                continue;
            }
            self.fingerprints.insert(file.clone(), current);
            tally.changed += 1;
            let source = match fs::read_to_string(&file) {
                Ok(source) => source,
                Err(e) => {
                    tally.errors += 1;
                    self.render_error(&file, &format!("cannot read file: {e}"), out);
                    continue;
                }
            };
            let program = match compile(&source) {
                Ok(program) => program,
                Err(e) => {
                    tally.errors += 1;
                    self.render_error(&file, &e.to_string(), out);
                    continue;
                }
            };
            let doc = file.display().to_string();
            let outcome = self.workspace.open_document(&doc, &program);
            if outcome.report.verified() {
                tally.verified += 1;
            } else {
                tally.failed += 1;
            }
            self.render_outcome(&file, &outcome, out);
        }
        tally
    }

    fn render_error(&self, file: &Path, error: &str, out: &mut String) {
        if self.json {
            let _ = writeln!(
                out,
                "{{\"event\":\"error\",\"file\":{},\"error\":{}}}",
                WireJson::str(file.display().to_string()),
                WireJson::str(error)
            );
        } else {
            let _ = writeln!(out, "{}: {error}", file.display());
        }
    }

    fn render_outcome(
        &self,
        file: &Path,
        outcome: &commcsl_verifier::workspace::DocOutcome,
        out: &mut String,
    ) {
        let time_ms = outcome.time.as_secs_f64() * 1000.0;
        if self.json {
            let _ = writeln!(
                out,
                "{{\"event\":\"verified\",\"file\":{},\"revision\":{},\
                 \"verified\":{},\"cached\":{},\"obligations\":{},\"reused\":{},\
                 \"statically_proven\":{},\"checked\":{},\"time_ms\":{time_ms:.3},\
                 \"report\":{}}}",
                WireJson::str(file.display().to_string()),
                outcome.revision,
                outcome.report.verified(),
                outcome.report_cached,
                outcome.obligations.total,
                outcome.obligations.reused,
                outcome.obligations.statically_proven,
                outcome.obligations.checked,
                outcome.report.to_json()
            );
        } else {
            let _ = writeln!(
                out,
                "{} [{}] {} obligations ({} reused, {} static, {} checked, {time_ms:.3} ms)",
                file.display(),
                if outcome.report.verified() { "OK" } else { "FAIL" },
                outcome.obligations.total,
                outcome.obligations.reused,
                outcome.obligations.statically_proven,
                outcome.obligations.checked,
            );
            if !outcome.report.verified() {
                let _ = write!(out, "{}", outcome.report);
            }
        }
    }
}

fn run_watch(args: &[String], out: &mut String) -> i32 {
    let flags = match parse_watch_flags(args, out) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let files = match collect_files(&flags.paths) {
        Ok(files) if files.is_empty() => {
            let _ = writeln!(out, "commcsl: no .csl files found");
            return EXIT_ERROR;
        }
        Ok(files) => files,
        Err(msg) => {
            let _ = writeln!(out, "commcsl: {msg}");
            return EXIT_ERROR;
        }
    };

    let mut watcher = Watcher::new(&flags, files);
    if flags.json {
        let _ = writeln!(
            out,
            "{{\"event\":\"watching\",\"schema_version\":{},\"files\":{},\
             \"interval_ms\":{},\"once\":{}}}",
            commcsl_verifier::report::REPORT_SCHEMA_VERSION,
            watcher.files.len(),
            flags.interval_ms,
            flags.once
        );
    } else if !flags.once {
        let _ = writeln!(
            out,
            "commcsl: watching {} file(s), every {} ms (ctrl-c to stop)",
            watcher.files.len(),
            flags.interval_ms
        );
    }

    let first = watcher.pass(true, out);
    if flags.once {
        return first.exit_code();
    }

    // The long-running loop streams directly (the `out` sink is only
    // rendered when `run` returns, which a watch loop never does).
    print!("{out}");
    out.clear();
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(Duration::from_millis(flags.interval_ms.max(10)));
        let mut chunk = String::new();
        let _ = watcher.pass(false, &mut chunk);
        if !chunk.is_empty() {
            print!("{chunk}");
            let _ = std::io::stdout().flush();
        }
    }
}

// --------------------------------------------------------------------- lsp

/// `commcsl lsp`: the editor language server on stdin/stdout. The
/// protocol machine lives in `commcsl-lsp`; this entry point parses
/// flags, injects the `.csl` compiler, and hands the process's stdio to
/// [`commcsl_lsp::LspServer::run`]. Counterexample minimization and
/// proof-core hints are *on* by default here — an editor session is
/// exactly where their extra cost buys the most — and can be switched
/// off per flag.
fn run_lsp(args: &[String], out: &mut String) -> i32 {
    let mut backend = BackendKind::default();
    let mut cache_dir: Option<PathBuf> = None;
    let mut minimize = true;
    let mut hints = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // stdio is the only transport; the flag exists because most
            // editors pass it unconditionally.
            "--stdio" => {}
            "--backend" => match it.next().and_then(|v| BackendKind::from_name(v)) {
                Some(kind) => backend = kind,
                None => {
                    let _ = writeln!(out, "commcsl: --backend needs `fresh` or `incremental`");
                    return EXIT_ERROR;
                }
            },
            "--cache-dir" => match take_path_value(&mut it, "--cache-dir", out) {
                Ok(dir) => cache_dir = Some(dir),
                Err(code) => return code,
            },
            "--no-minimize" => minimize = false,
            "--no-hints" => hints = false,
            other => {
                let _ = writeln!(out, "commcsl: unknown lsp option `{other}`\n{USAGE}");
                return EXIT_ERROR;
            }
        }
    }
    let config = commcsl_verifier::workspace::WorkspaceConfig {
        verifier: VerifierConfig {
            backend,
            minimize_counterexamples: minimize,
            proof_cores: hints,
            ..VerifierConfig::default()
        },
        cache: match cache_dir {
            Some(dir) => CacheConfig::persistent(&dir),
            None => CacheConfig::default(),
        },
    };
    let mut server = commcsl_lsp::LspServer::new(
        config,
        Box::new(|source| compile(source).map_err(|e| e.to_string())),
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match server.run(&mut stdin.lock(), &mut stdout.lock()) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "commcsl: lsp transport error: {e}");
            EXIT_ERROR
        }
    }
}

// ------------------------------------------------------------------- serve

fn run_serve(args: &[String], out: &mut String) -> i32 {
    let mut locations = DaemonPaths::new();
    let mut threads = 0usize;
    let mut memory = 4096usize;
    let mut stdio = false;
    let mut shards = 1usize;
    let mut remote_cache: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match locations.take_flag(arg, &mut it, out) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(code) => return code,
        }
        match arg.as_str() {
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => {
                    let _ = writeln!(out, "commcsl: --threads needs a number");
                    return EXIT_ERROR;
                }
            },
            "--memory" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => memory = n,
                None => {
                    let _ = writeln!(out, "commcsl: --memory needs a number");
                    return EXIT_ERROR;
                }
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => {
                    let _ = writeln!(out, "commcsl: --shards needs a number >= 1");
                    return EXIT_ERROR;
                }
            },
            "--remote-cache" => match it.next() {
                Some(addr) => remote_cache = Some(addr.clone()),
                None => {
                    let _ = writeln!(out, "commcsl: --remote-cache needs host:port");
                    return EXIT_ERROR;
                }
            },
            "--stdio" => stdio = true,
            other => {
                let _ = writeln!(out, "commcsl: unknown serve option `{other}`\n{USAGE}");
                return EXIT_ERROR;
            }
        }
    }
    if shards > 1 && locations.tcp.is_none() {
        let _ = writeln!(out, "commcsl: --shards needs --tcp (shard pools listen on TCP)");
        return EXIT_ERROR;
    }
    if stdio && (locations.tcp.is_some() || shards > 1) {
        let _ = writeln!(out, "commcsl: --stdio cannot be combined with --tcp/--shards");
        return EXIT_ERROR;
    }
    let cache_dir = locations.cache_dir.clone();

    // One shared-nothing server per shard, each with its own disk cache
    // directory (`<cache-dir>/shard{i}` when sharded, `<cache-dir>`
    // otherwise) and, when `--remote-cache` names a peer daemon, its own
    // remote obligation tier chained behind memory and disk.
    let make_server = |disk_dir: PathBuf| {
        let server = Server::new(
            ServerConfig {
                threads,
                cache: CacheConfig {
                    memory_capacity: memory.max(1),
                    disk_dir: Some(disk_dir),
                    ..Default::default()
                },
                verifier: VerifierConfig::default(),
                ..Default::default()
            },
            Box::new(|src| compile(src).map_err(|e| e.to_string())),
        );
        if let Some(addr) = &remote_cache {
            server.set_remote_cache(Box::new(RemoteCacheClient::new(addr.clone())));
        }
        server
    };

    if let Some(addr) = &locations.tcp {
        // Bind first, announce after: the "listening" line is the
        // readiness signal, and with port 0 it is also how wrappers
        // learn the actual port.
        let listener = match Server::bind_tcp(addr) {
            Ok(listener) => listener,
            Err(e) => {
                let _ = writeln!(out, "commcsl: cannot bind {addr}: {e}");
                return EXIT_ERROR;
            }
        };
        let actual = match listener.local_addr() {
            Ok(actual) => actual.to_string(),
            Err(e) => {
                let _ = writeln!(out, "commcsl: cannot resolve bound address: {e}");
                return EXIT_ERROR;
            }
        };
        println!(
            "commcsl: daemon listening on tcp://{actual} (cache {}, {shards} shard{})",
            cache_dir.display(),
            if shards == 1 { "" } else { "s" },
        );
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        let served = if shards > 1 {
            let pool = ShardPool::new(
                (0..shards)
                    .map(|i| Arc::new(make_server(cache_dir.join(format!("shard{i}")))))
                    .collect(),
            );
            pool.serve_tcp(&listener)
        } else {
            make_server(cache_dir).serve_tcp(&listener)
        };
        return match served {
            Ok(()) => {
                let _ = writeln!(out, "commcsl: daemon shut down cleanly");
                EXIT_OK
            }
            Err(e) => {
                let _ = writeln!(out, "commcsl: daemon failed: {e}");
                EXIT_ERROR
            }
        };
    }

    let socket = locations.socket_path();
    let server = make_server(cache_dir.clone());

    if stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match server.serve_stream(stdin.lock(), stdout.lock()) {
            Ok(()) => {
                let _ = writeln!(out, "commcsl: stdio session ended");
                EXIT_OK
            }
            Err(e) => {
                let _ = writeln!(out, "commcsl: stdio session failed: {e}");
                EXIT_ERROR
            }
        };
    }

    // Bind first, announce after: the "listening" line is a readiness
    // signal for wrappers (CI smoke test, `--daemon` auto-start), so it
    // must only appear once the socket actually accepts connections.
    let listener = match Server::bind_unix(&socket) {
        Ok(listener) => listener,
        Err(e) => {
            let _ = writeln!(out, "commcsl: cannot bind {}: {e}", socket.display());
            return EXIT_ERROR;
        }
    };
    println!(
        "commcsl: daemon listening on {} (cache {})",
        socket.display(),
        cache_dir.display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.serve_bound(listener, &socket) {
        Ok(()) => {
            let _ = writeln!(out, "commcsl: daemon shut down cleanly");
            EXIT_OK
        }
        Err(e) => {
            let _ = writeln!(out, "commcsl: daemon failed: {e}");
            EXIT_ERROR
        }
    }
}

// ------------------------------------------------------------------ daemon

fn run_daemon(args: &[String], out: &mut String) -> i32 {
    let mut action: Option<&str> = None;
    let mut locations = DaemonPaths::new();
    let mut json = false;
    let mut once = false;
    let mut follow = false;
    let mut since: Option<u64> = None;
    let mut interval_ms: u64 = 1000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match locations.take_flag(arg, &mut it, out) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(code) => return code,
        }
        match arg.as_str() {
            "status" | "stop" | "metrics" | "top" | "logs" if action.is_none() => {
                action = Some(arg.as_str())
            }
            "--json" => json = true,
            "--once" => once = true,
            "--follow" => follow = true,
            "--since" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => since = Some(n),
                None => {
                    let _ = writeln!(out, "commcsl: --since needs a sequence number");
                    return EXIT_ERROR;
                }
            },
            "--interval" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => interval_ms = n,
                None => {
                    let _ = writeln!(out, "commcsl: --interval needs a number");
                    return EXIT_ERROR;
                }
            },
            other => {
                let _ = writeln!(out, "commcsl: unknown daemon action `{other}`\n{USAGE}");
                return EXIT_ERROR;
            }
        }
    }
    let endpoint = locations.endpoint();
    let Some(action) = action else {
        let _ = writeln!(
            out,
            "commcsl: daemon needs `status`, `metrics`, `top`, `logs`, or `stop`\n{USAGE}"
        );
        return EXIT_ERROR;
    };

    let mut client = match locations.connect() {
        Ok(client) => client,
        Err(e) => {
            if action == "stop" {
                // Idempotent: stopping a daemon that is not there is fine.
                let _ = writeln!(out, "commcsl: no daemon on {endpoint}");
                return EXIT_OK;
            }
            let _ = writeln!(out, "commcsl: cannot reach a daemon on {endpoint}: {e}");
            return EXIT_ERROR;
        }
    };

    match action {
        "status" => match client.status() {
            Ok(status) => {
                if json {
                    let _ = writeln!(out, "{}", status.to_json());
                } else {
                    let _ = writeln!(
                        out,
                        "daemon v{} (format v{}, protocol v{}, backend {}) \
                         up {:.1}s on {}\n\
                         requests: {}  programs: {}  open documents: {}\n\
                         cache: {} memory + {} disk hits, {} misses \
                         ({:.1}% hit rate), {} entries in memory, {} evictions\n\
                         obligations: {} reused, {} checked, \
                         {} statically proven + {} solver-checked (workspace)\n\
                         telemetry: {} bytes streamed",
                        status.version,
                        status.format_version,
                        status.protocol_version,
                        status.backend,
                        status.uptime_ms / 1000.0,
                        endpoint,
                        status.requests,
                        status.programs,
                        status.documents,
                        status.memory_hits,
                        status.disk_hits,
                        status.misses,
                        status.hit_rate() * 100.0,
                        status.memory_entries,
                        status.evictions,
                        status.obligation_hits,
                        status.obligation_misses,
                        status.statically_proven,
                        status.solver_checked,
                        status.bytes_streamed,
                    );
                    // Cluster lines: only daemons that report an
                    // endpoint / remote tier / shard table get them, so
                    // pre-cluster daemons render exactly as before.
                    if !status.transport.is_empty() {
                        let _ = writeln!(
                            out,
                            "listen: {}://{} ({} shard{})",
                            status.transport,
                            status.addr,
                            status.shards,
                            if status.shards == 1 { "" } else { "s" },
                        );
                    }
                    if !status.remote.is_empty() {
                        let _ = writeln!(
                            out,
                            "remote cache: {} ({} hits, {} misses, {} stores)",
                            status.remote,
                            status.remote_hits,
                            status.remote_misses,
                            status.remote_stores,
                        );
                    }
                    for shard in &status.per_shard {
                        let _ = writeln!(
                            out,
                            "shard {}: {}, {} documents, {} programs, \
                             {} obligation hits, {} misses",
                            shard.shard,
                            if shard.alive { "alive" } else { "dead" },
                            shard.documents,
                            shard.programs,
                            shard.obligation_hits,
                            shard.obligation_misses,
                        );
                    }
                }
                EXIT_OK
            }
            Err(e) => {
                let _ = writeln!(out, "commcsl: status failed: {e}");
                EXIT_ERROR
            }
        },
        "metrics" => match client.metrics() {
            Ok(snapshot) => {
                if json {
                    let _ = writeln!(out, "{}", snapshot.to_json());
                } else if snapshot.counters.is_empty() {
                    let _ = writeln!(out, "no counters recorded");
                } else {
                    for (name, value) in &snapshot.counters {
                        let _ = writeln!(out, "{name} = {value}");
                    }
                    let _ = writeln!(
                        out,
                        "(per-op latency histograms: `commcsl daemon top`, or \
                         the `histograms` protocol op)"
                    );
                }
                EXIT_OK
            }
            Err(e) => {
                let _ = writeln!(out, "commcsl: metrics failed: {e}");
                EXIT_ERROR
            }
        },
        "top" => run_daemon_top(&mut client, &endpoint, json, once, interval_ms, out),
        "logs" => run_daemon_logs(&mut client, json, follow, since, interval_ms, out),
        "stop" => match client.shutdown() {
            Ok(()) => {
                let _ = writeln!(out, "commcsl: daemon on {endpoint} stopped");
                EXIT_OK
            }
            Err(e) => {
                let _ = writeln!(out, "commcsl: stop failed: {e}");
                EXIT_ERROR
            }
        },
        _ => unreachable!("action is validated above"),
    }
}

/// One `daemon top` frame: daemon identity, per-op latency quantiles
/// from the service histograms, and the request/event counters that
/// contextualize them.
fn render_top_frame(
    endpoint: &str,
    status: &StatusInfo,
    hists: &[(String, Histogram)],
    metrics: &MetricsSnapshot,
) -> String {
    let mut frame = String::new();
    let _ = writeln!(
        frame,
        "commcsl daemon v{} on {} — up {:.1}s, {} requests",
        status.version,
        endpoint,
        status.uptime_ms / 1000.0,
        status.requests,
    );
    let _ = writeln!(
        frame,
        "cache: {} memory + {} disk hits, {} misses ({:.1}% hit rate)",
        status.memory_hits,
        status.disk_hits,
        status.misses,
        status.hit_rate() * 100.0,
    );
    if status.shards > 1 || !status.per_shard.is_empty() {
        let _ = writeln!(
            frame,
            "shards: {} live / {} total; remote cache: {} hits, {} misses",
            status.shards,
            status.per_shard.len().max(status.shards as usize),
            status.remote_hits,
            status.remote_misses,
        );
    }
    if hists.is_empty() {
        let _ = writeln!(frame, "no requests served yet");
    } else {
        let _ = writeln!(
            frame,
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "op", "count", "p50 ms", "p90 ms", "p99 ms", "max ms"
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        for (op, h) in hists {
            let _ = writeln!(
                frame,
                "{op:<12} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                h.count(),
                ms(h.quantile(0.5)),
                ms(h.quantile(0.9)),
                ms(h.quantile(0.99)),
                ms(h.max()),
            );
        }
    }
    let counter = |name: &str| metrics.get(name).unwrap_or(0);
    let _ = writeln!(
        frame,
        "decode errors: {}  slow requests: {}  events dropped: {}",
        counter("daemon.request.decode_error"),
        counter("daemon.requests.slow"),
        counter("daemon.events.dropped"),
    );
    frame
}

/// `daemon top`: a one-screen dashboard over `status` + `metrics` +
/// `histograms`, refreshed every `--interval` ms (`--once` renders a
/// single frame; with `--json` a single machine-readable document).
fn run_daemon_top(
    client: &mut Client,
    endpoint: &str,
    json: bool,
    once: bool,
    interval_ms: u64,
    out: &mut String,
) -> i32 {
    let fetch = |client: &mut Client| -> Result<_, String> {
        let status = client.status().map_err(|e| e.to_string())?;
        let hists = client.histograms().map_err(|e| e.to_string())?;
        let metrics = client.metrics().map_err(|e| e.to_string())?;
        Ok((status, hists, metrics))
    };
    if once {
        let (status, hists, metrics) = match fetch(client) {
            Ok(v) => v,
            Err(e) => {
                let _ = writeln!(out, "commcsl: top failed: {e}");
                return EXIT_ERROR;
            }
        };
        if json {
            let doc = WireJson::obj([
                ("status", status.to_json()),
                ("unit", WireJson::str("ns")),
                (
                    "histograms",
                    WireJson::Obj(hists.iter().map(|(op, h)| (op.clone(), h.into())).collect()),
                ),
                ("counters", (&metrics).into()),
            ]);
            let _ = writeln!(out, "{doc}");
        } else {
            out.push_str(&render_top_frame(endpoint, &status, &hists, &metrics));
        }
        return EXIT_OK;
    }

    // The live loop streams directly (the `out` sink is only rendered
    // when `run` returns, which this loop only does on error).
    print!("{out}");
    out.clear();
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        let (status, hists, metrics) = match fetch(client) {
            Ok(v) => v,
            Err(e) => {
                let _ = writeln!(out, "commcsl: top failed: {e}");
                return EXIT_ERROR;
            }
        };
        // Clear the screen between frames: one dashboard, not a scroll.
        print!(
            "\x1b[2J\x1b[H{}",
            render_top_frame(endpoint, &status, &hists, &metrics)
        );
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(interval_ms.max(10)));
    }
}

/// Renders one event-log record: NDJSON with `--json`, otherwise a
/// human-readable line.
fn render_log_event(event: &commcsl_telemetry::EventRecord, json: bool) -> String {
    if json {
        let doc = WireJson::obj([
            ("seq", WireJson::Num(event.seq as f64)),
            ("op", WireJson::str(&event.op)),
            ("request_id", WireJson::str(&event.request_id)),
            ("dur_ns", WireJson::Num(event.dur_ns as f64)),
            ("outcome", WireJson::str(&event.outcome)),
            ("detail", WireJson::str(&event.detail)),
        ]);
        format!("{doc}\n")
    } else {
        let mut line = format!(
            "#{} {:<10} [{}] {:>9.3} ms {}",
            event.seq,
            event.op,
            event.request_id,
            event.dur_ns as f64 / 1e6,
            event.outcome,
        );
        if !event.detail.is_empty() {
            let _ = write!(line, " — {}", event.detail);
        }
        line.push('\n');
        line
    }
}

/// `daemon logs`: print the daemon's request event log, oldest first.
/// `--since N` skips records up to sequence number N; `--follow` keeps
/// polling from the last seen sequence number.
fn run_daemon_logs(
    client: &mut Client,
    json: bool,
    follow: bool,
    since: Option<u64>,
    interval_ms: u64,
    out: &mut String,
) -> i32 {
    let page = match client.logs(since) {
        Ok(page) => page,
        Err(e) => {
            let _ = writeln!(out, "commcsl: logs failed: {e}");
            return EXIT_ERROR;
        }
    };
    for event in &page.events {
        out.push_str(&render_log_event(event, json));
    }
    if !json {
        let _ = writeln!(
            out,
            "({} event(s), {} dropped, last seq {})",
            page.events.len(),
            page.dropped,
            page.last_seq,
        );
    }
    if !follow {
        return EXIT_OK;
    }

    // Follow mode streams directly, tailing from the last seen seq.
    let mut last_seq = page.last_seq;
    print!("{out}");
    out.clear();
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(Duration::from_millis(interval_ms.max(10)));
        let page = match client.logs(Some(last_seq)) {
            Ok(page) => page,
            Err(e) => {
                let _ = writeln!(out, "commcsl: logs failed: {e}");
                return EXIT_ERROR;
            }
        };
        last_seq = last_seq.max(page.last_seq);
        let mut chunk = String::new();
        for event in &page.events {
            chunk.push_str(&render_log_event(event, json));
        }
        if !chunk.is_empty() {
            print!("{chunk}");
            let _ = std::io::stdout().flush();
        }
    }
}

// ----------------------------------------------------------------- fixture

fn run_fixture(args: &[String], out: &mut String) -> i32 {
    let mut name: Option<&str> = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                let _ = writeln!(out, "commcsl: unknown fixture option `{flag}`\n{USAGE}");
                return EXIT_ERROR;
            }
            n if name.is_none() => name = Some(n),
            extra => {
                let _ = writeln!(out, "commcsl: fixture takes one name, got also `{extra}`");
                return EXIT_ERROR;
            }
        }
    }
    let Some(name) = name else {
        let _ = writeln!(out, "commcsl: fixture needs a Table 1 row or program name\n{USAGE}");
        return EXIT_ERROR;
    };
    let Some(fixture) = commcsl_fixtures::find(name) else {
        let hint = commcsl_fixtures::suggest(name)
            .map(|s| format!("; did you mean `{s}`?"))
            .unwrap_or_default();
        let _ = writeln!(out, "commcsl: unknown fixture `{name}`{hint}");
        return EXIT_ERROR;
    };

    let report = commcsl_verifier::verify(&fixture.program, &VerifierConfig::default());
    if json {
        let _ = writeln!(
            out,
            "{{\"fixture\":{},\"data_structure\":{},\"abstraction\":{},\"report\":{}}}",
            WireJson::str(fixture.name),
            WireJson::str(fixture.data_structure),
            WireJson::str(fixture.abstraction),
            report.to_json()
        );
    } else {
        let _ = writeln!(
            out,
            "{} — {} abstracted to {}",
            fixture.name, fixture.data_structure, fixture.abstraction
        );
        let _ = write!(out, "{report}");
    }
    if report.verified() {
        EXIT_OK
    } else {
        EXIT_MISMATCH
    }
}

// -------------------------------------------------------------------- lint

fn run_lint(args: &[String], out: &mut String) -> i32 {
    let mut json = false;
    let mut deny_warnings = false;
    let mut paths: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny" => match iter.next().map(String::as_str) {
                Some("warnings") => deny_warnings = true,
                other => {
                    let _ = writeln!(
                        out,
                        "commcsl: --deny takes `warnings`, got `{}`\n{USAGE}",
                        other.unwrap_or("nothing")
                    );
                    return EXIT_ERROR;
                }
            },
            flag if flag.starts_with("--") => {
                let _ = writeln!(out, "commcsl: unknown lint option `{flag}`\n{USAGE}");
                return EXIT_ERROR;
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        let _ = writeln!(out, "commcsl: lint needs at least one path\n{USAGE}");
        return EXIT_ERROR;
    }
    let files = match collect_files(&paths) {
        Ok(files) if files.is_empty() => {
            let _ = writeln!(out, "commcsl: no .csl files found");
            return EXIT_ERROR;
        }
        Ok(files) => files,
        Err(msg) => {
            let _ = writeln!(out, "commcsl: {msg}");
            return EXIT_ERROR;
        }
    };

    let mut file_lints: Vec<(PathBuf, Vec<Lint>)> = Vec::new();
    let mut file_errors: FileErrors = Vec::new();
    for file in files {
        match fs::read_to_string(&file).map_err(|e| format!("cannot read file: {e}")) {
            Ok(src) => match compile(&src) {
                Ok(program) => file_lints.push((file, lint_program(&program))),
                Err(e) => file_errors.push((file, e.to_string())),
            },
            Err(e) => file_errors.push((file, e)),
        }
    }

    let warnings = file_lints
        .iter()
        .flat_map(|(_, lints)| lints)
        .filter(|l| l.severity == Severity::Warning)
        .count();
    let notes: usize = file_lints.iter().map(|(_, l)| l.len()).sum::<usize>() - warnings;
    let code = if !file_errors.is_empty() {
        EXIT_ERROR
    } else if deny_warnings && warnings > 0 {
        EXIT_MISMATCH
    } else {
        EXIT_OK
    };

    if json {
        let mut entries: Vec<String> = file_errors
            .iter()
            .map(|(file, e)| {
                format!(
                    "{{\"file\":{},\"error\":{}}}",
                    WireJson::str(file.display().to_string()),
                    WireJson::str(e)
                )
            })
            .collect();
        entries.extend(file_lints.iter().map(|(file, lints)| {
            let rendered: Vec<String> = lints
                .iter()
                .map(|l| WireJson::from(l).to_string())
                .collect();
            format!(
                "{{\"file\":{},\"lints\":[{}]}}",
                WireJson::str(file.display().to_string()),
                rendered.join(",")
            )
        }));
        let _ = writeln!(
            out,
            "{{\"schema_version\":{},\"results\":[{}],\"summary\":{{\"files\":{},\"lints\":{},\
             \"warnings\":{},\"notes\":{},\"errors\":{},\"deny_warnings\":{},\"ok\":{},\
             \"exit_code\":{}}}}}",
            CLI_SCHEMA_VERSION,
            entries.join(","),
            file_lints.len() + file_errors.len(),
            warnings + notes,
            warnings,
            notes,
            file_errors.len(),
            deny_warnings,
            code == EXIT_OK,
            code
        );
    } else {
        for (file, e) in &file_errors {
            let _ = writeln!(out, "{}: {e}", file.display());
        }
        for (file, lints) in &file_lints {
            for lint in lints {
                // `{file}:{line}:{col}: severity[code]: msg` when spanned,
                // `{file}: severity[code]: msg` otherwise.
                let sep = if lint.span.is_some() { ":" } else { ": " };
                let _ = writeln!(out, "{}{sep}{lint}", file.display());
            }
        }
        let _ = writeln!(
            out,
            "{} finding(s) ({warnings} warning(s), {notes} note(s)) in {} file(s){}",
            warnings + notes,
            file_lints.len(),
            if file_errors.is_empty() {
                String::new()
            } else {
                format!(", {} file(s) failed to parse", file_errors.len())
            }
        );
    }
    code
}

// --------------------------------------------------------------------- fmt

fn run_fmt(args: &[String], out: &mut String) -> i32 {
    if args.is_empty() {
        let _ = writeln!(out, "commcsl: fmt needs at least one path\n{USAGE}");
        return EXIT_ERROR;
    }
    let files = match collect_files(args) {
        Ok(files) => files,
        Err(msg) => {
            let _ = writeln!(out, "commcsl: {msg}");
            return EXIT_ERROR;
        }
    };
    if files.is_empty() {
        let _ = writeln!(out, "commcsl: no .csl files found");
        return EXIT_ERROR;
    }
    let mut code = EXIT_OK;
    for file in files {
        match fs::read_to_string(&file).map_err(|e| format!("cannot read file: {e}")) {
            Ok(src) => match compile(&src) {
                Ok(program) => out.push_str(&crate::pretty::pretty(&program)),
                Err(e) => {
                    let _ = writeln!(out, "{}: {e}", file.display());
                    code = EXIT_ERROR;
                }
            },
            Err(e) => {
                let _ = writeln!(out, "{}: {e}", file.display());
                code = EXIT_ERROR;
            }
        }
    }
    code
}

// ------------------------------------------------------------ file lookup

/// Expands path arguments into a sorted, de-duplicated list of `.csl`
/// files. Directories are searched recursively; the final component of a
/// path may contain `*` wildcards.
fn collect_files(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for raw in paths {
        let path = Path::new(raw);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.contains('*') {
            let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
            let dir = dir.unwrap_or_else(|| Path::new("."));
            let mut matched = false;
            for entry in read_dir_sorted(dir)? {
                let entry_name = entry
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                if entry.is_file() && glob_match(&name, &entry_name) {
                    files.push(entry);
                    matched = true;
                }
            }
            if !matched {
                return Err(format!("no files match `{raw}`"));
            }
        } else if path.is_dir() {
            walk_csl(path, &mut files)?;
        } else if path.is_file() {
            files.push(path.to_path_buf());
        } else {
            // A bare non-path argument is often a misremembered fixture
            // name (`commcsl verify Figure 2`); point at the nearest one.
            let hint = commcsl_fixtures::suggest(raw)
                .map(|s| format!("; did you mean the fixture `{s}`? (try `commcsl fixture {s}`)"))
                .unwrap_or_default();
            return Err(format!("no such file or directory: `{raw}`{hint}"));
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory `{}`: {e}", dir.display()))?;
    let mut out: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    out.sort();
    Ok(out)
}

fn walk_csl(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            walk_csl(&entry, files)?;
        } else if entry.extension().is_some_and(|e| e == "csl") {
            files.push(entry);
        }
    }
    Ok(())
}

/// Matches `pattern` (with `*` wildcards) against an entire file name.
fn glob_match(pattern: &str, name: &str) -> bool {
    // Dynamic-programming match over characters; `*` matches any run.
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    let mut dp = vec![vec![false; n.len() + 1]; p.len() + 1];
    dp[0][0] = true;
    for i in 1..=p.len() {
        if p[i - 1] == '*' {
            dp[i][0] = dp[i - 1][0];
        }
    }
    for i in 1..=p.len() {
        for j in 1..=n.len() {
            dp[i][j] = if p[i - 1] == '*' {
                dp[i - 1][j] || dp[i][j - 1]
            } else {
                dp[i - 1][j - 1] && p[i - 1] == n[j - 1]
            };
        }
    }
    dp[p.len()][n.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_matching() {
        assert!(glob_match("*.csl", "foo.csl"));
        assert!(glob_match("fig*_*.csl", "fig3_map.csl"));
        assert!(!glob_match("*.csl", "foo.rs"));
        assert!(glob_match("*", "anything"));
        assert!(!glob_match("a*b", "acd"));
    }

    #[test]
    fn help_and_unknown_commands() {
        let mut out = String::new();
        assert_eq!(run(&["help".into()], &mut out), EXIT_OK);
        assert!(out.contains("usage"));
        let mut out = String::new();
        assert_eq!(run(&["bogus".into()], &mut out), EXIT_ERROR);
        let mut out = String::new();
        assert_eq!(run(&[], &mut out), EXIT_ERROR);
    }

    #[test]
    fn verify_requires_paths_and_valid_flags() {
        let mut out = String::new();
        assert_eq!(run(&["verify".into()], &mut out), EXIT_ERROR);
        let mut out = String::new();
        assert_eq!(
            run(&["verify".into(), "--expect".into(), "nonsense".into()], &mut out),
            EXIT_ERROR
        );
        let mut out = String::new();
        assert_eq!(
            run(&["verify".into(), "/nonexistent/x.csl".into()], &mut out),
            EXIT_ERROR
        );
        let mut out = String::new();
        assert_eq!(
            run(&["verify".into(), "--socket".into()], &mut out),
            EXIT_ERROR
        );
    }

    fn temp_corpus(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "commcsl-cli-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("good.csl"),
            "program good;\ninput a: Int low;\noutput a;\n",
        )
        .unwrap();
        fs::write(
            dir.join("bad.csl"),
            "program bad;\ninput h: Int high;\noutput h;\n",
        )
        .unwrap();
        dir
    }

    #[test]
    fn verify_exit_codes_distinguish_mismatch_from_parse_error() {
        let dir = temp_corpus("codes");
        let good = dir.join("good.csl").display().to_string();
        let bad = dir.join("bad.csl").display().to_string();

        // 0: all as expected.
        let mut out = String::new();
        assert_eq!(run(&["verify".into(), good.clone()], &mut out), EXIT_OK, "{out}");
        assert!(out.contains("1/1 programs verified"));

        // 1: verdict mismatch (the program parses fine, but leaks).
        let mut out = String::new();
        assert_eq!(run(&["verify".into(), bad.clone()], &mut out), EXIT_MISMATCH, "{out}");
        assert!(out.contains("UNEXPECTED"));

        // 0 again under --expect rejected.
        let mut out = String::new();
        assert_eq!(
            run(
                &["verify".into(), "--expect".into(), "rejected".into(), bad],
                &mut out
            ),
            EXIT_OK,
            "{out}"
        );

        // 2: a parse error dominates, even when other files mismatch.
        fs::write(dir.join("broken.csl"), "program ; nonsense !!!\n").unwrap();
        let mut out = String::new();
        assert_eq!(
            run(&["verify".into(), dir.display().to_string()], &mut out),
            EXIT_ERROR,
            "{out}"
        );
        assert!(out.contains("failed to parse"));

        // JSON mode reports the same classification.
        let mut out = String::new();
        assert_eq!(
            run(
                &["verify".into(), "--json".into(), dir.display().to_string()],
                &mut out
            ),
            EXIT_ERROR
        );
        assert!(out.contains("\"exit_code\":2"));
        assert!(out.contains("\"engine\":\"in-process\""));
        assert!(out.contains("\"ok\":false"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_explain_renders_cores_and_gates_the_json_fields() {
        let dir = temp_corpus("explain");
        let good = dir.join("good.csl").display().to_string();
        let bad = dir.join("bad.csl").display().to_string();

        // Text mode: per-obligation core lines appear under --explain.
        let mut out = String::new();
        assert_eq!(
            run(&["verify".into(), "--explain".into(), good.clone()], &mut out),
            EXIT_OK,
            "{out}"
        );
        assert!(out.contains("core [low-output]"), "{out}");

        // JSON mode: `core` fields in the report only under --explain.
        let mut explained = String::new();
        assert_eq!(
            run(
                &["verify".into(), "--explain".into(), "--json".into(), good.clone()],
                &mut explained
            ),
            EXIT_OK
        );
        assert!(explained.contains("\"core\":["), "{explained}");
        let mut plain = String::new();
        assert_eq!(run(&["verify".into(), "--json".into(), good], &mut plain), EXIT_OK);
        assert!(!plain.contains("\"core\":["), "{plain}");

        // --explain toggles in-process knobs; --daemon is a usage error.
        let mut out = String::new();
        assert_eq!(
            run(
                &["verify".into(), "--explain".into(), "--daemon".into(), bad],
                &mut out
            ),
            EXIT_ERROR
        );
        assert!(out.contains("--explain"), "{out}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lsp_rejects_bad_options_before_touching_stdio() {
        let mut out = String::new();
        assert_eq!(run(&["lsp".into(), "--bogus".into()], &mut out), EXIT_ERROR);
        assert!(out.contains("unknown lsp option"), "{out}");
        let mut out = String::new();
        assert_eq!(run(&["lsp".into(), "--backend".into()], &mut out), EXIT_ERROR);
        let mut out = String::new();
        assert_eq!(run(&["lsp".into(), "--cache-dir".into()], &mut out), EXIT_ERROR);
    }

    #[cfg(unix)]
    #[test]
    fn verify_daemon_mode_against_a_live_daemon_and_fallback_without_one() {
        let dir = temp_corpus("daemon");
        let socket = dir.join("test.sock");
        let cache_dir = dir.join("cache");

        // Fallback: --daemon --no-start with no daemon behind the socket
        // still verifies (in-process) and says so.
        let mut out = String::new();
        let code = run(
            &[
                "verify".into(),
                "--daemon".into(),
                "--no-start".into(),
                "--socket".into(),
                socket.display().to_string(),
                dir.join("good.csl").display().to_string(),
            ],
            &mut out,
        );
        assert_eq!(code, EXIT_OK, "{out}");
        assert!(out.contains("daemon unavailable"), "{out}");
        assert!(out.contains("1/1 programs verified"));

        // Live daemon: the same invocation is served remotely; a second
        // run is answered from cache.
        let server = Server::new(
            ServerConfig {
                threads: 1,
                cache: CacheConfig::persistent(&cache_dir),
                verifier: VerifierConfig::default(),
                ..Default::default()
            },
            Box::new(|src| compile(src).map_err(|e| e.to_string())),
        );
        struct StopOnDrop<'a>(&'a Server);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                // A panicking assertion must still end the serve thread,
                // or thread::scope joins forever.
                self.0.request_shutdown();
            }
        }
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&server);
            scope.spawn(|| server.serve_unix(&socket));
            // Wait for the socket to accept.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while Client::connect(&socket).is_err() {
                assert!(std::time::Instant::now() < deadline, "daemon never came up");
                std::thread::sleep(Duration::from_millis(10));
            }

            let args = [
                "verify".to_owned(),
                "--daemon".to_owned(),
                "--json".to_owned(),
                "--socket".to_owned(),
                socket.display().to_string(),
                dir.join("good.csl").display().to_string(),
            ];
            let mut cold = String::new();
            assert_eq!(run(&args, &mut cold), EXIT_OK, "{cold}");
            assert!(cold.contains("\"engine\":\"daemon\""), "{cold}");
            assert!(cold.contains("\"cached\":false"), "{cold}");
            let mut warm = String::new();
            assert_eq!(run(&args, &mut warm), EXIT_OK, "{warm}");
            assert!(warm.contains("\"cached\":true"), "{warm}");

            // `daemon status` sees the traffic; `daemon stop` ends it.
            let mut status = String::new();
            assert_eq!(
                run(
                    &[
                        "daemon".into(),
                        "status".into(),
                        "--socket".into(),
                        socket.display().to_string(),
                    ],
                    &mut status
                ),
                EXIT_OK,
                "{status}"
            );
            assert!(status.contains("hit rate"), "{status}");
            assert!(status.contains("bytes streamed"), "{status}");

            // `daemon metrics` exports the same traffic as flat counters.
            let mut metrics = String::new();
            assert_eq!(
                run(
                    &[
                        "daemon".into(),
                        "metrics".into(),
                        "--json".into(),
                        "--socket".into(),
                        socket.display().to_string(),
                    ],
                    &mut metrics
                ),
                EXIT_OK,
                "{metrics}"
            );
            let counters = commcsl_server::json::Json::parse(metrics.trim())
                .expect("metrics --json is one JSON object");
            assert_eq!(
                counters
                    .get("daemon.programs")
                    .and_then(commcsl_server::json::Json::as_u64),
                Some(2),
                "{metrics}"
            );
            assert!(
                counters
                    .get("daemon.bytes_streamed")
                    .and_then(commcsl_server::json::Json::as_u64)
                    .unwrap()
                    > 0,
                "{metrics}"
            );
            // `daemon top --once` renders one dashboard frame with the
            // per-op latency table; `--json` emits one document whose
            // histogram counts cover the verifies served above.
            let mut top = String::new();
            assert_eq!(
                run(
                    &[
                        "daemon".into(),
                        "top".into(),
                        "--once".into(),
                        "--socket".into(),
                        socket.display().to_string(),
                    ],
                    &mut top
                ),
                EXIT_OK,
                "{top}"
            );
            assert!(top.contains("p99 ms"), "{top}");
            assert!(top.contains("verify"), "{top}");
            assert!(top.contains("decode errors: 0"), "{top}");

            let mut top_json = String::new();
            assert_eq!(
                run(
                    &[
                        "daemon".into(),
                        "top".into(),
                        "--once".into(),
                        "--json".into(),
                        "--socket".into(),
                        socket.display().to_string(),
                    ],
                    &mut top_json
                ),
                EXIT_OK,
                "{top_json}"
            );
            let doc = commcsl_server::json::Json::parse(top_json.trim())
                .expect("top --once --json is one JSON document");
            // The CLI's daemon mode ships files as one batch request.
            let verify_hist = doc
                .get("histograms")
                .and_then(|h| h.get("verify_batch"))
                .expect("verify_batch histogram present");
            assert_eq!(
                verify_hist
                    .get("count")
                    .and_then(commcsl_server::json::Json::as_u64),
                Some(2),
                "{top_json}"
            );
            assert!(
                verify_hist
                    .get("p99")
                    .and_then(commcsl_server::json::Json::as_u64)
                    .unwrap()
                    > 0,
                "{top_json}"
            );
            assert!(
                doc.get("status").and_then(|s| s.get("started_at_unix_ms")).is_some(),
                "{top_json}"
            );

            // `daemon logs` shows one event per request with ids and
            // outcomes; `--json --since` pages NDJSON from a sequence
            // number.
            let mut logs = String::new();
            assert_eq!(
                run(
                    &[
                        "daemon".into(),
                        "logs".into(),
                        "--socket".into(),
                        socket.display().to_string(),
                    ],
                    &mut logs
                ),
                EXIT_OK,
                "{logs}"
            );
            assert!(logs.contains("verify"), "{logs}");
            assert!(logs.contains(" ok"), "{logs}");
            assert!(logs.contains("dropped, last seq"), "{logs}");

            let mut logs_json = String::new();
            assert_eq!(
                run(
                    &[
                        "daemon".into(),
                        "logs".into(),
                        "--json".into(),
                        "--since".into(),
                        "1".into(),
                        "--socket".into(),
                        socket.display().to_string(),
                    ],
                    &mut logs_json
                ),
                EXIT_OK,
                "{logs_json}"
            );
            let seqs: Vec<u64> = logs_json
                .lines()
                .map(|l| {
                    commcsl_server::json::Json::parse(l)
                        .expect("each logs --json line is a JSON object")
                        .get("seq")
                        .and_then(commcsl_server::json::Json::as_u64)
                        .expect("event has a seq")
                })
                .collect();
            assert!(!seqs.is_empty(), "{logs_json}");
            assert!(seqs.iter().all(|&s| s > 1), "{logs_json}");
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{logs_json}");

            let mut stop = String::new();
            assert_eq!(
                run(
                    &[
                        "daemon".into(),
                        "stop".into(),
                        "--socket".into(),
                        socket.display().to_string(),
                    ],
                    &mut stop
                ),
                EXIT_OK,
                "{stop}"
            );
        });

        // Idempotent stop with nothing running.
        let mut out = String::new();
        assert_eq!(
            run(
                &[
                    "daemon".into(),
                    "stop".into(),
                    "--socket".into(),
                    socket.display().to_string(),
                ],
                &mut out
            ),
            EXIT_OK
        );
        assert!(out.contains("no daemon"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fail_fast_skips_and_backend_selects() {
        let dir = temp_corpus("failfast");
        // Alphabetical dispatch order: bad.csl (fails) before good.csl.
        let mut out = String::new();
        let code = run(
            &[
                "verify".into(),
                "--threads".into(),
                "1".into(),
                "--fail-fast".into(),
                dir.display().to_string(),
            ],
            &mut out,
        );
        assert_eq!(code, EXIT_MISMATCH, "{out}");
        assert!(out.contains("skipped (fail-fast"), "{out}");
        assert!(out.contains("0/2 programs verified"), "{out}");

        // JSON mode marks the skipped slot.
        let mut out = String::new();
        let code = run(
            &[
                "verify".into(),
                "--threads".into(),
                "1".into(),
                "--fail-fast".into(),
                "--json".into(),
                dir.display().to_string(),
            ],
            &mut out,
        );
        assert_eq!(code, EXIT_MISMATCH);
        assert!(out.contains("\"skipped\":true"), "{out}");

        // Both backends accept and agree; unknown names are usage errors.
        for backend in ["fresh", "incremental"] {
            let mut out = String::new();
            assert_eq!(
                run(
                    &[
                        "verify".into(),
                        "--backend".into(),
                        backend.into(),
                        dir.join("good.csl").display().to_string(),
                    ],
                    &mut out
                ),
                EXIT_OK,
                "{backend}: {out}"
            );
        }
        let mut out = String::new();
        assert_eq!(
            run(
                &["verify".into(), "--backend".into(), "z3".into(), "x.csl".into()],
                &mut out
            ),
            EXIT_ERROR
        );
        assert!(out.contains("--backend needs"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_once_verifies_and_reports_reuse() {
        let dir = temp_corpus("watch-once");
        // Human mode: one pass, exit code reflects the failing file.
        let mut out = String::new();
        let code = run(
            &["watch".into(), "--once".into(), dir.display().to_string()],
            &mut out,
        );
        assert_eq!(code, EXIT_MISMATCH, "{out}");
        assert!(out.contains("good.csl [OK]"), "{out}");
        assert!(out.contains("bad.csl [FAIL]"), "{out}");
        assert!(out.contains("obligations ("), "{out}");

        // JSON mode: NDJSON events, schema_version announced up front.
        let mut out = String::new();
        let code = run(
            &[
                "watch".into(),
                "--once".into(),
                "--json".into(),
                dir.join("good.csl").display().to_string(),
            ],
            &mut out,
        );
        assert_eq!(code, EXIT_OK, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"event\":\"watching\""), "{out}");
        assert!(lines[0].contains("\"schema_version\":"), "{out}");
        assert!(lines[1].contains("\"event\":\"verified\""), "{out}");
        assert!(lines[1].contains("\"report\":{\"schema_version\":"), "{out}");

        // A parse error is an `error` event and exit code 2.
        fs::write(dir.join("broken.csl"), "program ; nonsense\n").unwrap();
        let mut out = String::new();
        let code = run(
            &[
                "watch".into(),
                "--once".into(),
                "--json".into(),
                dir.display().to_string(),
            ],
            &mut out,
        );
        assert_eq!(code, EXIT_ERROR, "{out}");
        assert!(out.contains("\"event\":\"error\""), "{out}");

        // Usage errors.
        let mut out = String::new();
        assert_eq!(run(&["watch".into()], &mut out), EXIT_ERROR);
        let mut out = String::new();
        assert_eq!(
            run(&["watch".into(), "--interval".into()], &mut out),
            EXIT_ERROR
        );

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watcher_passes_recheck_only_changed_files_incrementally() {
        let dir = temp_corpus("watch-loop");
        let good = dir.join("good.csl");
        let files = vec![good.clone(), dir.join("bad.csl")];
        let flags = WatchFlags {
            json: false,
            interval_ms: 0,
            once: false,
            backend: BackendKind::default(),
            cache_dir: None,
            paths: vec![],
        };
        let mut watcher = Watcher::new(&flags, files);

        let mut out = String::new();
        let first = watcher.pass(true, &mut out);
        assert_eq!(first.changed, 2);
        assert_eq!((first.verified, first.failed), (1, 1));

        // Nothing changed: the next pass is a no-op.
        let mut out = String::new();
        let idle = watcher.pass(false, &mut out);
        assert_eq!(idle.changed, 0);
        assert!(out.is_empty(), "{out}");

        // Edit one file (ensure the fingerprint moves even on coarse
        // mtime clocks by changing the length too).
        fs::write(
            &good,
            "program good;\ninput a: Int low;\ninput b: Int low;\noutput a;\noutput b;\n",
        )
        .unwrap();
        let mut out = String::new();
        let edited = watcher.pass(false, &mut out);
        assert_eq!(edited.changed, 1, "{out}");
        assert_eq!(edited.verified, 1);
        // The re-verification is incremental: the unchanged prefix of the
        // document replays from the obligation cache.
        assert!(out.contains("reused"), "{out}");
        let stats = watcher.workspace.stats();
        assert!(stats.obligations.reused > 0, "{stats:?}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_json_carries_schema_version() {
        let dir = temp_corpus("schema");
        let mut out = String::new();
        assert_eq!(
            run(
                &[
                    "verify".into(),
                    "--json".into(),
                    dir.join("good.csl").display().to_string()
                ],
                &mut out
            ),
            EXIT_OK
        );
        // Wrapper schema (v2: adds discharge counters + per-obligation
        // timing) is independent of the embedded report schema (still v1).
        assert!(
            out.starts_with(&format!("{{\"schema_version\":{CLI_SCHEMA_VERSION}")),
            "{out}"
        );
        assert!(
            out.contains(&format!(
                "\"report\":{{\"schema_version\":{}",
                commcsl_verifier::report::REPORT_SCHEMA_VERSION
            )),
            "{out}"
        );
        assert!(out.contains("\"statically_proven\":"), "{out}");
        assert!(out.contains("\"obligation_times_ms\":["), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    /// Satellite 2: the `--json` wrapper parses back and the per-obligation
    /// timing vector lines up one-to-one with the report's obligations.
    #[test]
    fn verify_json_roundtrips_with_obligation_timing() {
        use commcsl_server::json::Json;

        let dir = temp_corpus("roundtrip");
        let mut out = String::new();
        assert_eq!(
            run(
                &[
                    "verify".into(),
                    "--json".into(),
                    dir.join("good.csl").display().to_string()
                ],
                &mut out
            ),
            EXIT_OK
        );
        let doc = Json::parse(out.trim()).expect("wrapper is valid JSON");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(CLI_SCHEMA_VERSION))
        );
        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 1);
        let entry = &results[0];
        let times = entry
            .get("obligation_times_ms")
            .and_then(Json::as_arr)
            .expect("timing vector present on the in-process route");
        let report_json = entry.get("report").expect("embedded report");
        let report = VerifierReport::from_json(report_json).expect("embedded report parses back");
        assert_eq!(
            times.len(),
            report.obligations.len(),
            "one timing sample per obligation"
        );
        assert!(times.iter().all(|t| t.as_num().is_some_and(|v| v >= 0.0)));
        let static_n = entry
            .get("statically_proven")
            .and_then(Json::as_u64)
            .expect("discharge counters present") as usize;
        let solver_n = entry
            .get("solver_checked")
            .and_then(Json::as_u64)
            .expect("discharge counters present") as usize;
        assert_eq!(static_n + solver_n, report.obligations.len());

        // v3: the solver-session counters round-trip through the wrapper.
        let session = entry
            .get("session")
            .expect("session stats present on the in-process route");
        let checks = session.get("checks").and_then(Json::as_u64).expect("checks");
        let proved = session.get("proved").and_then(Json::as_u64).expect("proved");
        let unknown = session.get("unknown").and_then(Json::as_u64).expect("unknown");
        assert_eq!(proved + unknown, checks, "every check resolves");
        for key in ["asserts", "pushes", "pops", "quiescence_skips"] {
            assert!(
                session.get(key).and_then(Json::as_u64).is_some(),
                "session.{key} parses back as a count"
            );
        }
        assert!(session
            .get("check_time_ms")
            .and_then(Json::as_num)
            .is_some_and(|v| v >= 0.0));
        let totals = doc
            .get("summary")
            .and_then(|s| s.get("session_totals"))
            .expect("summary carries session_totals");
        assert_eq!(
            totals.get("checks").and_then(Json::as_u64),
            Some(checks),
            "single-file totals equal the file's own stats"
        );
        assert_eq!(totals.get("pushes").and_then(Json::as_u64), session.get("pushes").and_then(Json::as_u64));
        fs::remove_dir_all(&dir).ok();
    }

    /// `verify --trace-out` writes a Chrome trace that parses through the
    /// server's own JSON codec and carries front-end spans. Kept as the
    /// only capture-based test in this binary: captures are process-global,
    /// so concurrent `start_capture` calls would race. (The `profile`
    /// subcommand gets its capture tests in `commcsl-bench`'s integration
    /// suite, which is a separate process.)
    #[test]
    fn verify_trace_out_writes_parseable_chrome_trace() {
        use commcsl_server::json::Json;

        let dir = temp_corpus("traceout");
        let trace = dir.join("trace.json");
        let mut out = String::new();
        assert_eq!(
            run(
                &[
                    "verify".into(),
                    "--json".into(),
                    "--trace-out".into(),
                    trace.display().to_string(),
                    dir.join("good.csl").display().to_string(),
                ],
                &mut out
            ),
            EXIT_OK,
            "{out}"
        );
        let text = fs::read_to_string(&trace).expect("trace file written");
        let doc = Json::parse(text.trim()).expect("Chrome trace is valid JSON");
        let events = doc.as_arr().expect("trace is a JSON array");
        let names: std::collections::BTreeSet<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains("front.parse"), "front-end spans present: {names:?}");

        // Tracing a daemon round-trip is meaningless: the work happens in
        // another process. The combination is rejected up front.
        let mut out = String::new();
        assert_eq!(
            run(
                &[
                    "verify".into(),
                    "--daemon".into(),
                    "--trace-out".into(),
                    "x.json".into(),
                    dir.join("good.csl").display().to_string(),
                ],
                &mut out
            ),
            EXIT_ERROR
        );
        assert!(out.contains("cannot"), "{out}");
        // The rejection names the replacement surfaces for daemon-side
        // latency: the dashboard command and the protocol op.
        assert!(out.contains("commcsl daemon top"), "{out}");
        assert!(out.contains("`histograms`"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fixture_lookup_verifies_and_suggests() {
        let mut out = String::new();
        assert_eq!(run(&["fixture".into(), "Figure 2".into()], &mut out), EXIT_OK);
        assert!(out.contains("[OK]"), "{out}");

        let mut out = String::new();
        assert_eq!(
            run(&["fixture".into(), "figure3-map-keyset".into(), "--json".into()], &mut out),
            EXIT_OK
        );
        assert!(out.contains("\"verified\":true"), "{out}");

        let mut out = String::new();
        assert_eq!(
            run(&["fixture".into(), "Figure 22".into()], &mut out),
            EXIT_ERROR
        );
        assert!(out.contains("did you mean `Figure 2`?"), "{out}");

        let mut out = String::new();
        assert_eq!(run(&["fixture".into()], &mut out), EXIT_ERROR);
    }

    /// Satellite 1: `verify` (via `collect_files`) also suggests fixture
    /// names when an argument is neither a path nor a glob.
    #[test]
    fn verify_suggests_fixture_for_unknown_path() {
        let mut out = String::new();
        assert_eq!(
            run(&["verify".into(), "Figure 22".into()], &mut out),
            EXIT_ERROR
        );
        assert!(
            out.contains("no such file or directory: `Figure 22`"),
            "{out}"
        );
        assert!(
            out.contains("did you mean the fixture `Figure 2`? (try `commcsl fixture Figure 2`)"),
            "{out}"
        );
    }

    /// `lint` routes its missing-path error through the same
    /// `collect_files` helper as `verify`/`fmt`, so a near-miss fixture
    /// name gets the same did-you-mean hint on every file-taking command.
    #[test]
    fn lint_suggests_fixture_for_unknown_path() {
        for command in ["lint", "fmt"] {
            let mut out = String::new();
            assert_eq!(
                run(&[command.into(), "Figure 22".into()], &mut out),
                EXIT_ERROR,
                "{command}"
            );
            assert!(
                out.contains("no such file or directory: `Figure 22`"),
                "{command}: {out}"
            );
            assert!(
                out.contains(
                    "did you mean the fixture `Figure 2`? (try `commcsl fixture Figure 2`)"
                ),
                "{command}: {out}"
            );
        }
    }

    /// Writes a corpus for the lint tests: a clean file, a note-only file
    /// (ignored input), and a warning file (share without unshare).
    fn temp_lint_corpus(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "commcsl-cli-lint-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("clean.csl"),
            "program clean;\ninput a: Int low;\noutput a;\n",
        )
        .unwrap();
        fs::write(
            dir.join("note.csl"),
            "program note;\ninput a: Int low;\ninput ignored: Int high;\noutput a;\n",
        )
        .unwrap();
        fs::write(
            dir.join("warn.csl"),
            "program warn;\n\
             resource c: Int named \"c\" {\n\
                 alpha(v) = v;\n\
                 shared action Add(arg: Int) = v + arg\n\
                     requires arg1 == arg2;\n\
             }\n\
             input n: Int low;\n\
             share c = 0;\n\
             with c performing Add(n);\n\
             output n;\n",
        )
        .unwrap();
        dir
    }

    #[test]
    fn lint_exit_codes_and_output() {
        let dir = temp_lint_corpus("codes");
        let clean = dir.join("clean.csl").display().to_string();
        let note = dir.join("note.csl").display().to_string();
        let warn = dir.join("warn.csl").display().to_string();

        // Clean file: no findings, exit 0.
        let mut out = String::new();
        assert_eq!(run(&["lint".into(), clean.clone()], &mut out), EXIT_OK);
        assert!(out.contains("0 finding(s)"), "{out}");

        // Notes never affect the exit code, even under --deny warnings.
        let mut out = String::new();
        assert_eq!(
            run(
                &["lint".into(), "--deny".into(), "warnings".into(), note.clone()],
                &mut out
            ),
            EXIT_OK
        );
        assert!(out.contains("unused-var"), "{out}");
        assert!(out.contains("`ignored`"), "{out}");

        // Warnings are advisory by default...
        let mut out = String::new();
        assert_eq!(run(&["lint".into(), warn.clone()], &mut out), EXIT_OK);
        assert!(out.contains("share-without-unshare"), "{out}");

        // ...and fatal under --deny warnings.
        let mut out = String::new();
        assert_eq!(
            run(
                &["lint".into(), "--deny".into(), "warnings".into(), warn.clone()],
                &mut out
            ),
            EXIT_MISMATCH
        );

        // A parse error is a hard error regardless of --deny.
        fs::write(dir.join("broken.csl"), "program broken\noutput;;;\n").unwrap();
        let mut out = String::new();
        assert_eq!(
            run(
                &["lint".into(), dir.join("broken.csl").display().to_string()],
                &mut out
            ),
            EXIT_ERROR
        );

        // --deny takes only `warnings`.
        let mut out = String::new();
        assert_eq!(
            run(
                &["lint".into(), "--deny".into(), "notes".into(), warn.clone()],
                &mut out
            ),
            EXIT_ERROR
        );

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_document_with_json_flag_parses_back() {
        use commcsl_server::json::Json;

        let dir = temp_lint_corpus("json");
        let mut out = String::new();
        assert_eq!(
            run(
                &[
                    "lint".into(),
                    "--json".into(),
                    dir.join("warn.csl").display().to_string()
                ],
                &mut out
            ),
            EXIT_OK
        );
        let doc = Json::parse(out.trim()).expect("lint --json is valid JSON");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(CLI_SCHEMA_VERSION))
        );
        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 1);
        let lints = results[0]
            .get("lints")
            .and_then(Json::as_arr)
            .expect("lints array");
        assert!(!lints.is_empty());
        let first = &lints[0];
        assert_eq!(
            first.get("code").and_then(Json::as_str),
            Some("share-without-unshare")
        );
        assert_eq!(first.get("severity").and_then(Json::as_str), Some("warning"));
        assert!(first.get("path").and_then(Json::as_arr).is_some());
        assert!(first.get("message").and_then(Json::as_str).is_some());
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("warnings").and_then(Json::as_u64), Some(1));
        assert_eq!(summary.get("deny_warnings").and_then(Json::as_bool), Some(false));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_is_idempotent_on_a_temp_file() {
        let dir = std::env::temp_dir().join("commcsl-fmt-test");
        fs::create_dir_all(&dir).unwrap();
        let f = dir.join("p.csl");
        fs::write(
            &f,
            "program p;\nresource ctr: Int named \"counter-add\" {\n\
             alpha(v) = v;\nshared action Add(arg: Int) = v + arg \
             requires arg1 == arg2;\n}\nshare ctr = 0;\n\
             with ctr performing Add(1);\nunshare ctr into c;\noutput c;\n",
        )
        .unwrap();
        let mut once = String::new();
        assert_eq!(run(&["fmt".into(), f.display().to_string()], &mut once), EXIT_OK);
        let f2 = dir.join("p2.csl");
        fs::write(&f2, &once).unwrap();
        let mut twice = String::new();
        assert_eq!(run(&["fmt".into(), f2.display().to_string()], &mut twice), EXIT_OK);
        assert_eq!(once, twice);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_parse_errors_exit_2() {
        let dir = std::env::temp_dir().join(format!(
            "commcsl-fmt-err-{}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let f = dir.join("broken.csl");
        fs::write(&f, "program ; nonsense\n").unwrap();
        let mut out = String::new();
        assert_eq!(
            run(&["fmt".into(), f.display().to_string()], &mut out),
            EXIT_ERROR
        );
        fs::remove_dir_all(&dir).ok();
    }
}
