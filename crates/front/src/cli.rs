//! The `commcsl` command-line driver.
//!
//! `commcsl help` lists the commands and each command's options. The
//! parser and that text read the same option table (`OPTIONS`), so the
//! flags a command accepts and the flags its help shows cannot drift
//! apart.
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

use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use commcsl_analysis::lint::{lint_program, Lint, Severity};
use commcsl_cluster::{RemoteCacheClient, ShardPool};
use commcsl_server::client::{connect_or_start, Client};
use commcsl_server::daemon::{Server, ServerConfig};
use commcsl_server::json::Json;
use commcsl_server::protocol::{StatusInfo, VerifyItem};
use commcsl_smt::SessionStats;
use commcsl_telemetry::export::{
    attributed_ns, by_label, chrome_trace, folded_stacks, FoldedWeight,
};
use commcsl_telemetry::{
    counter_add, finish_capture, start_capture, Capture, EventRecord, Histogram, MetricsSnapshot,
};
use commcsl_verifier::api::Verifier;
use commcsl_verifier::cache::CacheConfig;
use commcsl_verifier::obligation::DischargeStats;
use commcsl_verifier::program::AnnotatedProgram;
use commcsl_verifier::report::{VerifierConfig, VerifierReport};
use commcsl_verifier::workspace::{DocOutcome, Workspace, WorkspaceConfig};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Expect {
    /// Every program must verify (the default).
    #[default]
    Verified,
    /// Every program must *fail* verification (for known-insecure
    /// corpora such as `examples/rejected/`).
    Rejected,
}

/// A command's exit code. `Err` means the command stopped at an error it
/// has already printed.
type Run = Result<i32, i32>;

/// Runs the CLI. Returns the process exit code; all output goes to `out`
/// (except `serve`, which talks to its peers directly).
pub fn run(args: &[String], out: &mut String) -> i32 {
    let Some(command) = args.first().map(String::as_str) else {
        let _ = writeln!(out, "{}", usage());
        return EXIT_ERROR;
    };
    let run: fn(Opts, &mut String) -> Run = match command {
        "verify" => run_verify,
        "profile" => run_profile,
        "watch" => run_watch,
        "lsp" => run_lsp,
        "serve" => run_serve,
        "daemon" => run_daemon,
        "fixture" => run_fixture,
        "lint" => run_lint,
        "fmt" => run_fmt,
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{}", usage());
            return EXIT_OK;
        }
        other => return usage_error(out, format_args!("unknown command `{other}`")),
    };
    parse(command, &args[1..], out)
        .and_then(|opts| run(opts, out))
        .unwrap_or_else(|code| code)
}

/// Prints `commcsl: {msg}` and returns [`EXIT_ERROR`].
fn fail(out: &mut String, msg: impl Display) -> i32 {
    let _ = writeln!(out, "commcsl: {msg}");
    EXIT_ERROR
}

/// [`fail`], followed by the usage.
fn usage_error(out: &mut String, msg: impl Display) -> i32 {
    fail(out, format_args!("{msg}\n{}", usage()))
}

// ----------------------------------------------------------------- options

/// Every command and its `help` summary, in `help` order.
const COMMANDS: &[(&str, &str)] = &[
    ("verify", "parse, lower, and verify annotated programs"),
    (
        "profile",
        "verify with the telemetry capture armed; export a Chrome\n\
         trace (--trace-out) and/or folded flamegraph stacks\n\
         (--folded-out), and summarize spans and counters",
    ),
    (
        "watch",
        "re-verify files on change, incrementally (workspace session)",
    ),
    (
        "lsp",
        "run the editor language server on stdin/stdout (JSON-RPC;\n\
         diagnostics, hover with minimized counterexamples and proof\n\
         cores, incremental re-verification on edit)",
    ),
    (
        "serve",
        "run the persistent verification daemon (foreground)",
    ),
    (
        "daemon",
        "control a running daemon: `daemon status`, `daemon metrics`,\n\
         `daemon top` (live per-op latency dashboard), `daemon logs`\n\
         (request event log), `daemon stop`",
    ),
    ("fixture", "verify a built-in Table 1 fixture by name"),
    (
        "lint",
        "run static lints (no solver): unused resources/actions/vars,\n\
         share discipline, redundant annotations",
    ),
    (
        "fmt",
        "parse and pretty-print programs to stdout (canonical form)",
    ),
    ("help", "show this message"),
];

/// One row of the option table: a flag, its value, the commands that
/// accept it and its `help` text. A flag may have several rows, for
/// commands that describe it differently; its value is the same in each.
struct Opt {
    flag: &'static str,
    value: Value,
    commands: &'static [&'static str],
    help: &'static str,
}

/// What follows a flag, and the [`Opts`] field it sets.
#[derive(Clone, Copy)]
enum Value {
    /// Nothing: the flag is a switch.
    Absent(fn(&mut Opts)),
    /// A whole number of at least `min`: (help name, min, what errors say
    /// it needs, setter).
    Number(&'static str, u64, &'static str, fn(&mut Opts, u64)),
    /// A file or directory: (help name, setter).
    Path(&'static str, fn(&mut Opts, PathBuf)),
    /// A `host:port` address.
    Addr(fn(&mut Opts, String)),
    /// One of a fixed set of words.
    Word(&'static [&'static str], fn(&mut Opts, &str)),
}

#[rustfmt::skip]
const OPTIONS: &[Opt] = &[
    Opt { flag: "--threads", value: Value::Number("N", 0, "a number", |o, n| o.threads = n as usize),
          commands: &["verify", "profile", "serve"],
          help: "worker threads (0 = one per CPU, default)" },
    Opt { flag: "--json", value: Value::Absent(|o| o.json = true),
          commands: &["verify", "profile", "lint", "fixture"],
          help: "emit one JSON document instead of text" },
    Opt { flag: "--json", value: Value::Absent(|o| o.json = true), commands: &["watch"],
          help: "one NDJSON event per line instead of text" },
    Opt { flag: "--json", value: Value::Absent(|o| o.json = true), commands: &["daemon"],
          help: "status, metrics: one JSON document;\n\
                 top --once: status, latency histograms and\n\
                 counters in one document; logs: one JSON\n\
                 object per event (NDJSON)" },
    Opt { flag: "--expect", value: Value::Word(&["verified", "rejected"], |o, w| {
              o.expect = if w == "rejected" { Expect::Rejected } else { Expect::Verified }
          }),
          commands: &["verify"],
          help: "required verdict for exit code 0\n(default: verified)" },
    Opt { flag: "--fail-fast", value: Value::Absent(|o| o.fail_fast = true), commands: &["verify"],
          help: "stop dispatching programs after the first\n\
                 failing one; the rest report as skipped\n\
                 (refused with --expect rejected)" },
    Opt { flag: "--daemon", value: Value::Absent(|o| o.daemon = true), commands: &["verify"],
          help: "verify through the persistent daemon\n\
                 (starts one on demand; falls back to\n\
                 in-process verification on failure)" },
    Opt { flag: "--no-start", value: Value::Absent(|o| o.no_start = true), commands: &["verify"],
          help: "with --daemon: never start a daemon, only\n\
                 use one that is already running" },
    Opt { flag: "--socket", value: Value::Path("PATH", |o, p| o.socket = Some(p)),
          commands: &["verify", "serve", "daemon"],
          help: "daemon socket (default: <cache-dir>/commcsl.sock)" },
    Opt { flag: "--tcp", value: Value::Addr(|o, a| o.tcp = Some(a)), commands: &["verify", "daemon"],
          help: "connect to a daemon on host:port instead of\n\
                 the Unix socket (never starts one)" },
    Opt { flag: "--tcp", value: Value::Addr(|o, a| o.tcp = Some(a)), commands: &["serve"],
          help: "listen on host:port instead of the Unix\n\
                 socket (port 0 picks a free port; the\n\
                 readiness line names the actual address)" },
    Opt { flag: "--cache-dir", value: Value::Path("DIR", |o, p| o.cache_dir = Some(p)),
          commands: &["verify", "serve", "daemon"],
          help: "verdict-cache directory (default: .commcsl-cache)" },
    Opt { flag: "--cache-dir", value: Value::Path("DIR", |o, p| o.cache_dir = Some(p)),
          commands: &["watch", "lsp"],
          help: "persist the verdict/obligation cache under\n\
                 DIR (default: in-memory only)" },
    Opt { flag: "--trace-out", value: Value::Path("F", |o, p| o.trace_out = Some(p)),
          commands: &["verify"],
          help: "write a Chrome trace-event JSON of the run\n\
                 (in-process only; incompatible with --daemon)" },
    Opt { flag: "--explain", value: Value::Absent(|o| o.explain = true), commands: &["verify"],
          help: "enable proof-core tracking and counterexample\n\
                 minimization: per-obligation `core` lines in\n\
                 the text output (and `core`/`hints` fields in\n\
                 --json reports), minimized counterexamples on\n\
                 failures (in-process only)" },
    Opt { flag: "--trace-out", value: Value::Path("F", |o, p| o.trace_out = Some(p)),
          commands: &["profile"],
          help: "write Chrome trace-event JSON (Perfetto)" },
    Opt { flag: "--folded-out", value: Value::Path("F", |o, p| o.folded_out = Some(p)),
          commands: &["profile"],
          help: "write folded flamegraph stacks" },
    Opt { flag: "--deterministic", value: Value::Absent(|o| o.deterministic = true),
          commands: &["profile"],
          help: "weight folded stacks by span counts instead\n\
                 of self-time nanoseconds; with --threads 1\n\
                 the file is byte-identical across runs" },
    Opt { flag: "--interval", value: Value::Number("MS", 0, "milliseconds", |o, n| o.interval_ms = Some(n)),
          commands: &["watch"],
          help: "poll interval in milliseconds (default 200)" },
    Opt { flag: "--once", value: Value::Absent(|o| o.once = true), commands: &["watch"],
          help: "single pass over all files, then exit" },
    Opt { flag: "--stdio", value: Value::Absent(|o| o.stdio = true), commands: &["lsp"],
          help: "serve LSP on stdin/stdout (the default and\n\
                 only transport; accepted for editor compat)" },
    Opt { flag: "--no-minimize", value: Value::Absent(|o| o.no_minimize = true), commands: &["lsp"],
          help: "do not minimize counterexamples on failures" },
    Opt { flag: "--no-hints", value: Value::Absent(|o| o.no_hints = true), commands: &["lsp"],
          help: "do not track proof cores / emit\n\
                 unneeded-annotation hints" },
    Opt { flag: "--shards", value: Value::Number("N", 1, "a number >= 1", |o, n| o.shards = Some(n as usize)),
          commands: &["serve"],
          help: "with --tcp: run N shared-nothing verifier\n\
                 shards behind one consistent-hash router\n\
                 (each shard caches under <cache-dir>/shardI)" },
    Opt { flag: "--remote-cache", value: Value::Addr(|o, a| o.remote_cache = Some(a)),
          commands: &["serve"],
          help: "chain a remote daemon's obligation cache\n\
                 behind memory and disk (cache_get/cache_put)" },
    Opt { flag: "--memory", value: Value::Number("N", 0, "a number", |o, n| o.memory = Some(n as usize)),
          commands: &["serve"],
          help: "in-memory cache capacity (default 4096)" },
    Opt { flag: "--stdio", value: Value::Absent(|o| o.stdio = true), commands: &["serve"],
          help: "serve one NDJSON session on stdin/stdout\n\
                 instead of listening on the socket" },
    Opt { flag: "--once", value: Value::Absent(|o| o.once = true), commands: &["daemon"],
          help: "top: render one dashboard frame and exit" },
    Opt { flag: "--interval", value: Value::Number("MS", 0, "milliseconds", |o, n| o.interval_ms = Some(n)),
          commands: &["daemon"],
          help: "top: refresh interval; logs --follow: poll\n\
                 interval (default 1000)" },
    Opt { flag: "--follow", value: Value::Absent(|o| o.follow = true), commands: &["daemon"],
          help: "logs: poll for new events until interrupted" },
    Opt { flag: "--since", value: Value::Number("N", 0, "a sequence number", |o, n| o.since = Some(n)),
          commands: &["daemon"],
          help: "logs: only events with seq > N" },
    Opt { flag: "--deny", value: Value::Word(&["warnings"], |o, _| o.deny_warnings = true),
          commands: &["lint"],
          help: "exit 1 when any warning-severity lint fires\n\
                 (notes never affect the exit code)" },
];

impl Opt {
    /// The flag and the name of its value, as `help` shows them.
    fn synopsis(&self) -> String {
        let value = match self.value {
            Value::Absent(_) => return self.flag.to_owned(),
            Value::Number(name, ..) | Value::Path(name, _) => name.to_owned(),
            Value::Addr(_) => "ADDR".to_owned(),
            Value::Word(words, _) => words.join("|"),
        };
        format!("{} {value}", self.flag)
    }
}

impl Value {
    /// Stores the flag's value, `given` (`None` when the arguments ran
    /// out), into `opts`; `Err` says what the flag needs instead.
    fn store(self, given: Option<&String>, opts: &mut Opts) -> Result<(), String> {
        match self {
            Value::Absent(set) => set(opts),
            Value::Number(_, min, what, set) => match given.and_then(|v| v.parse().ok()) {
                Some(n) if n >= min => set(opts, n),
                _ => return Err(what.to_owned()),
            },
            Value::Path(_, set) => set(opts, PathBuf::from(given.ok_or("a path")?)),
            Value::Addr(set) => set(opts, given.ok_or("host:port")?.clone()),
            Value::Word(words, set) => match given.filter(|v| words.contains(&v.as_str())) {
                Some(word) => set(opts, word),
                None => {
                    let wanted: Vec<String> = words.iter().map(|w| format!("`{w}`")).collect();
                    let got = given.map(|v| format!(", got `{v}`")).unwrap_or_default();
                    return Err(format!("{}{got}", wanted.join(" or ")));
                }
            },
        }
        Ok(())
    }
}

/// The options of one command line. A command reads the fields its rows
/// of `OPTIONS` set; an unset `Option` takes the default of the command
/// that reads it.
#[derive(Debug, Default)]
struct Opts {
    threads: usize,
    json: bool,
    expect: Expect,
    fail_fast: bool,
    daemon: bool,
    no_start: bool,
    /// The daemon's Unix socket; `<cache-dir>/commcsl.sock` when unset.
    socket: Option<PathBuf>,
    /// `host:port` of a TCP daemon, in place of the Unix socket. A daemon
    /// there is never started: remote lifecycles are not ours to manage.
    tcp: Option<String>,
    /// `.commcsl-cache` for `verify`, `serve` and `daemon` when unset;
    /// memory only for `watch` and `lsp`.
    cache_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    folded_out: Option<PathBuf>,
    explain: bool,
    deterministic: bool,
    /// 200 ms for `watch` and 1000 ms for `daemon` when unset.
    interval_ms: Option<u64>,
    once: bool,
    stdio: bool,
    no_minimize: bool,
    no_hints: bool,
    shards: Option<usize>,
    remote_cache: Option<String>,
    memory: Option<usize>,
    follow: bool,
    since: Option<u64>,
    deny_warnings: bool,
    /// The arguments that are not flags: paths, `daemon`'s action, or
    /// `fixture`'s name.
    operands: Vec<String>,
}

/// Parses the arguments of `command` with the rows of `OPTIONS` that name
/// it. Flags may come before or after operands; `lsp` and `serve` take
/// no operands.
fn parse(command: &str, args: &[String], out: &mut String) -> Result<Opts, i32> {
    let mut opts = Opts::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") && !matches!(command, "lsp" | "serve") {
            opts.operands.push(arg.clone());
            continue;
        }
        let Some(opt) = OPTIONS
            .iter()
            .find(|o| o.flag == arg && o.commands.contains(&command))
        else {
            return Err(usage_error(
                out,
                format_args!("unknown {command} option `{arg}`"),
            ));
        };
        let given = match opt.value {
            Value::Absent(_) => None,
            _ => args.next(),
        };
        if let Err(what) = opt.value.store(given, &mut opts) {
            return Err(fail(out, format_args!("{arg} needs {what}")));
        }
    }
    Ok(opts)
}

/// The `help` text: the commands, then each command's options, rendered
/// from its rows of `OPTIONS`.
fn usage() -> String {
    let mut text = String::from("usage: commcsl <command> [options] <path>...\n\ncommands:\n");
    for (command, summary) in COMMANDS {
        write_entry(&mut text, 10, command, summary);
    }
    for (command, _) in COMMANDS {
        let rows: Vec<&Opt> = OPTIONS
            .iter()
            .filter(|o| o.commands.contains(command))
            .collect();
        if !rows.is_empty() {
            let _ = write!(text, "\noptions ({command}):\n");
        }
        for opt in rows {
            write_entry(&mut text, 29, &opt.synopsis(), opt.help);
        }
    }
    text.push_str(
        "\nexit codes: 0 = all programs matched the expectation, 1 = at least one\n\
         verdict mismatch, 2 = parse/lower/IO/usage error\n\n\
         paths may be .csl files, directories (searched recursively), or simple\n\
         *-globs in the final component (e.g. examples/programs/*.csl)",
    );
    text
}

/// Writes `name` in a column `width` wide, then `help`, whose later lines
/// are indented under its first.
fn write_entry(text: &mut String, width: usize, name: &str, help: &str) {
    for (i, line) in help.lines().enumerate() {
        let name = if i == 0 { name } else { "" };
        let _ = writeln!(text, "  {name:<width$}{line}");
    }
}

impl Opts {
    /// The cache directory of the daemon-facing commands.
    fn daemon_cache_dir(&self) -> PathBuf {
        self.cache_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from(".commcsl-cache"))
    }

    /// The effective socket: explicit, or `<cache-dir>/commcsl.sock`.
    fn socket_path(&self) -> PathBuf {
        self.socket
            .clone()
            .unwrap_or_else(|| self.daemon_cache_dir().join("commcsl.sock"))
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
}

/// The verifier configuration of `verify`, `profile`, `watch` and `lsp`:
/// the default, with both explanation knobs on under `--explain`.
fn verifier_config(opts: &Opts) -> VerifierConfig {
    VerifierConfig {
        minimize_counterexamples: opts.explain,
        proof_cores: opts.explain,
        ..VerifierConfig::default()
    }
}

/// The workspace session of `watch`: [`verifier_config`], cached in
/// memory, and on disk too under `--cache-dir`.
fn workspace_config(opts: &Opts) -> WorkspaceConfig {
    WorkspaceConfig {
        verifier: verifier_config(opts),
        cache: match &opts.cache_dir {
            Some(dir) => CacheConfig::persistent(dir),
            None => CacheConfig::default(),
        },
    }
}

/// The workspace session of `lsp`: as `watch`'s, but counterexample
/// minimization and proof-core hints are *on* unless switched off — an
/// editor session is exactly where their extra cost buys the most.
fn lsp_config(opts: &Opts) -> WorkspaceConfig {
    let mut config = workspace_config(opts);
    config.verifier.minimize_counterexamples = !opts.no_minimize;
    config.verifier.proof_cores = !opts.no_hints;
    config
}

// ------------------------------------------------------------------ verify

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

fn run_verify(opts: Opts, out: &mut String) -> Run {
    if opts.daemon && opts.trace_out.is_some() {
        return Err(fail(
            out,
            "--trace-out traces the in-process pipeline and cannot \
             be combined with --daemon; for daemon-side latency use \
             `commcsl daemon top` (or the `histograms` protocol op)",
        ));
    }
    if opts.daemon && opts.explain {
        return Err(fail(
            out,
            "--explain toggles in-process verifier knobs (proof \
             cores, counterexample minimization) and cannot be combined \
             with --daemon: the daemon verifies under its own configuration",
        ));
    }
    if opts.fail_fast && opts.expect == Expect::Rejected {
        return Err(fail(
            out,
            "--fail-fast stops at the first program that fails \
             verification, which under --expect rejected is the first \
             expected verdict; the two cannot be combined",
        ));
    }
    // Every file is read up front; unreadable files are hard errors either way.
    let (sources, mut file_errors) = read_sources("verify", &opts, out)?;

    let mut engine = Engine::InProcess;
    let mut results: Vec<FileResult> = Vec::new();
    if opts.daemon {
        match verify_via_daemon(&opts, &sources) {
            Ok((daemon_results, daemon_errors)) => {
                engine = Engine::Daemon;
                results = daemon_results;
                file_errors.extend(daemon_errors);
            }
            Err(why) => {
                engine = Engine::Fallback;
                if !opts.json {
                    let _ = writeln!(
                        out,
                        "commcsl: daemon unavailable ({why}); verifying in-process"
                    );
                }
            }
        }
    }
    if engine != Engine::Daemon {
        let tracing = opts.trace_out.is_some();
        if tracing {
            start_capture();
        }
        let (local_results, local_errors) = verify_in_process(&opts, &sources);
        if tracing {
            let capture = finish_capture();
            write_export(opts.trace_out.as_deref(), &chrome_trace(&capture), out)?;
        }
        results = local_results;
        file_errors.extend(local_errors);
    }

    Ok(render_verify(&opts, engine, &file_errors, &results, out))
}

/// Writes one exporter output to `path` (no-op when `None`), reporting
/// I/O failures as usage-style errors.
fn write_export(path: Option<&Path>, content: &str, out: &mut String) -> Result<(), i32> {
    let Some(path) = path else { return Ok(()) };
    fs::write(path, content)
        .map_err(|e| fail(out, format_args!("cannot write {}: {e}", path.display())))
}

/// In-process engine: compile, then push the survivors through the
/// unified [`Verifier`] pipeline.
fn verify_in_process(opts: &Opts, sources: &[(PathBuf, String)]) -> (Vec<FileResult>, FileErrors) {
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
        .with_config(verifier_config(opts))
        .with_threads(opts.threads)
        .with_fail_fast(opts.fail_fast);
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
    opts: &Opts,
    sources: &[(PathBuf, String)],
) -> Result<(Vec<FileResult>, FileErrors), String> {
    let mut client = match &opts.tcp {
        // TCP daemons are never auto-started: the address usually names
        // another machine, and lifecycle belongs to whoever runs it.
        Some(addr) => Client::connect_tcp(addr).map_err(|e| e.to_string())?,
        None => {
            let socket = opts.socket_path();
            connect_or_start(&socket, Duration::from_secs(5), || {
                if opts.no_start {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionRefused,
                        "no daemon running and --no-start given",
                    ));
                }
                spawn_daemon(opts, &socket)
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
        let action = if opts.tcp.is_some() {
            "left running (remote daemon)"
        } else if opts.no_start {
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
        .verify_batch_opts(items, opts.fail_fast)
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
fn spawn_daemon(opts: &Opts, socket: &Path) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    std::process::Command::new(exe)
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--cache-dir")
        .arg(opts.daemon_cache_dir())
        .arg("--threads")
        .arg(opts.threads.to_string())
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map(drop)
}

fn render_verify(
    opts: &Opts,
    engine: Engine,
    file_errors: &[(PathBuf, String)],
    results: &[FileResult],
    out: &mut String,
) -> i32 {
    let as_expected = |verified: bool| match opts.expect {
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

    if opts.json {
        let entries = file_errors
            .iter()
            .map(|(file, e)| error_entry(file, e))
            .chain(results.iter().map(result_entry))
            .collect();
        let summary = Json::obj([
            ("total", count(results.len() + file_errors.len())),
            ("as_expected", count(matching)),
            ("errors", count(file_errors.len())),
            (
                "expect",
                Json::str(match opts.expect {
                    Expect::Verified => "verified",
                    Expect::Rejected => "rejected",
                }),
            ),
            ("engine", Json::str(engine.as_str())),
            ("session_totals", session_entry(&session_totals(results))),
            ("ok", Json::Bool(code == EXIT_OK)),
            ("exit_code", Json::Num(f64::from(code))),
        ]);
        let doc = Json::obj([
            ("schema_version", Json::Num(f64::from(CLI_SCHEMA_VERSION))),
            ("results", Json::Arr(entries)),
            ("summary", summary),
        ]);
        let _ = writeln!(out, "{doc}");
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
            if opts.explain {
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
            match opts.expect {
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

/// A count as a JSON number.
fn count(n: usize) -> Json {
    Json::Num(n as f64)
}

/// `value` rounded to `places` decimals the way `{:.places$}` rounds it,
/// as a JSON number (so `1.500` renders as `1.5`).
fn rounded(value: f64, places: usize) -> Json {
    Json::Num(
        format!("{value:.places$}")
            .parse()
            .expect("a formatted f64 parses back"),
    )
}

/// The `{"file":…,"error":…}` entry of a file that did not read or
/// compile, in the `--json` documents of `verify`, `profile` and `lint`.
fn error_entry(file: &Path, error: &str) -> Json {
    Json::obj([
        ("file", Json::str(file.display().to_string())),
        ("error", Json::str(error)),
    ])
}

/// One `verify --json` result. Discharge counters, per-obligation times
/// (schema v2) and solver-session counters (v3) appear when the engine
/// surfaced them (in-process, non-cached route).
fn result_entry(r: &FileResult) -> Json {
    let mut fields = vec![
        ("file", Json::str(r.file.display().to_string())),
        ("time_ms", rounded(r.time_ms, 3)),
    ];
    if let Some(cached) = r.cached {
        fields.push(("cached", Json::Bool(cached)));
    }
    if r.skipped {
        fields.push(("skipped", Json::Bool(true)));
    }
    if let Some(stats) = r.stats {
        fields.push(("statically_proven", count(stats.statically_proven)));
        fields.push(("solver_checked", count(stats.checked)));
    }
    if !r.obligation_times_ms.is_empty() {
        let times = r
            .obligation_times_ms
            .iter()
            .map(|&t| rounded(t, 3))
            .collect();
        fields.push(("obligation_times_ms", Json::Arr(times)));
    }
    if let Some(session) = &r.session {
        fields.push(("session", session_entry(session)));
    }
    fields.push(("report", Json::from(&r.report)));
    Json::obj(fields)
}

/// [`SessionStats`] as JSON — the schema-v3 `session` shape shared by
/// per-file entries and the summary's `session_totals`.
fn session_entry(s: &SessionStats) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    Json::obj([
        ("checks", n(s.checks)),
        ("proved", n(s.proved)),
        ("unknown", n(s.unknown)),
        ("asserts", n(s.asserts)),
        ("pushes", n(s.pushes)),
        ("pops", n(s.pops)),
        ("quiescence_skips", n(s.quiescence_skips)),
        (
            "check_time_ms",
            rounded(s.check_time.as_secs_f64() * 1000.0, 3),
        ),
    ])
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

/// The self-profiler: verifies the corpus in-process with the telemetry
/// capture armed, then exports and summarizes what the spans recorded.
///
/// The whole run sits under one `profile.run` root span, so the folded
/// stacks' total weight approximates the capture wall time and the
/// summary can report instrumentation *coverage* (the fraction of wall
/// time attributed to some span). Exit codes: `0` when every file
/// compiled (verification failures are reported but still profiled),
/// `2` on read/parse/lower/IO errors.
fn run_profile(opts: Opts, out: &mut String) -> Run {
    let (sources, mut file_errors) = read_sources("profile", &opts, out)?;

    start_capture();
    let results = {
        let _root = commcsl_telemetry::span!("profile.run", files = sources.len());
        let (results, errors) = verify_in_process(&opts, &sources);
        file_errors.extend(errors);
        results
    };
    // Fold the run's ad-hoc statistics into the capture's counter
    // registry beside the `solver.*` counters the sessions emitted, so
    // one snapshot unifies spans, discharge counters and solver work.
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
    let capture = finish_capture();

    write_export(opts.trace_out.as_deref(), &chrome_trace(&capture), out)?;
    let weight = if opts.deterministic {
        FoldedWeight::Calls
    } else {
        FoldedWeight::SelfNanos
    };
    write_export(
        opts.folded_out.as_deref(),
        &folded_stacks(&capture, weight),
        out,
    )?;

    let code = if file_errors.is_empty() { EXIT_OK } else { EXIT_ERROR };
    let verified = results.iter().filter(|r| r.report.verified()).count();
    if opts.json {
        render_profile_json(&opts, &capture, &results, &file_errors, verified, code, out);
    } else {
        render_profile_text(&opts, &capture, &results, &file_errors, verified, out);
    }
    Ok(code)
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
    opts: &Opts,
    capture: &Capture,
    results: &[FileResult],
    file_errors: &FileErrors,
    verified: usize,
    code: i32,
    out: &mut String,
) {
    let ms = |ns: u64| rounded(ns as f64 / 1e6, 3);
    let labels = by_label(capture)
        .iter()
        .map(|l| {
            Json::obj([
                ("label", Json::str(l.label)),
                ("count", Json::Num(l.count as f64)),
                ("total_ms", ms(l.total_ns)),
                ("self_ms", ms(l.self_ns)),
            ])
        })
        .collect();
    let profile = Json::obj([
        ("programs", count(results.len())),
        ("verified", count(verified)),
        ("spans", count(capture.spans.len())),
        ("threads", count(capture.threads())),
        ("wall_ms", ms(capture.wall_ns)),
        ("attributed_ms", ms(attributed_ns(capture))),
        ("coverage", rounded(coverage(capture), 4)),
        ("deterministic", Json::Bool(opts.deterministic)),
        ("labels", Json::Arr(labels)),
        (
            "counters",
            Json::from(&MetricsSnapshot::from_pairs(capture.counters.clone())),
        ),
    ]);
    let doc = Json::obj([
        ("schema_version", Json::Num(f64::from(CLI_SCHEMA_VERSION))),
        ("profile", profile),
        (
            "errors",
            Json::Arr(file_errors.iter().map(|(f, e)| error_entry(f, e)).collect()),
        ),
        ("ok", Json::Bool(code == EXIT_OK)),
        ("exit_code", Json::Num(f64::from(code))),
    ]);
    let _ = writeln!(out, "{doc}");
}

fn render_profile_text(
    opts: &Opts,
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
    if let Some(path) = &opts.trace_out {
        let _ = writeln!(out, "wrote Chrome trace to {}", path.display());
    }
    if let Some(path) = &opts.folded_out {
        let _ = writeln!(out, "wrote folded stacks to {}", path.display());
    }
}

// ------------------------------------------------------------------- watch

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
    workspace: Workspace,
    files: Vec<PathBuf>,
    fingerprints: HashMap<PathBuf, Fingerprint>,
    json: bool,
}

impl Watcher {
    fn new(opts: &Opts, files: Vec<PathBuf>) -> Watcher {
        Watcher {
            workspace: Workspace::new(workspace_config(opts)),
            files,
            fingerprints: HashMap::new(),
            json: opts.json,
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
            let program = match compile_file(&file) {
                Ok(program) => program,
                Err(e) => {
                    tally.errors += 1;
                    self.render_error(&file, &e, out);
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
            let event = Json::obj([
                ("event", Json::str("error")),
                ("file", Json::str(file.display().to_string())),
                ("error", Json::str(error)),
            ]);
            let _ = writeln!(out, "{event}");
        } else {
            let _ = writeln!(out, "{}: {error}", file.display());
        }
    }

    fn render_outcome(&self, file: &Path, outcome: &DocOutcome, out: &mut String) {
        let time_ms = outcome.time.as_secs_f64() * 1000.0;
        let obligations = &outcome.obligations;
        if self.json {
            let event = Json::obj([
                ("event", Json::str("verified")),
                ("file", Json::str(file.display().to_string())),
                ("revision", Json::Num(outcome.revision as f64)),
                ("verified", Json::Bool(outcome.report.verified())),
                ("cached", Json::Bool(outcome.report_cached)),
                ("obligations", count(obligations.total)),
                ("reused", count(obligations.reused)),
                ("statically_proven", count(obligations.statically_proven)),
                ("checked", count(obligations.checked)),
                ("time_ms", rounded(time_ms, 3)),
                ("report", Json::from(&outcome.report)),
            ]);
            let _ = writeln!(out, "{event}");
        } else {
            let _ = writeln!(
                out,
                "{} [{}] {} obligations ({} reused, {} static, {} checked, {time_ms:.3} ms)",
                file.display(),
                if outcome.report.verified() { "OK" } else { "FAIL" },
                obligations.total,
                obligations.reused,
                obligations.statically_proven,
                obligations.checked,
            );
            if !outcome.report.verified() {
                let _ = write!(out, "{}", outcome.report);
            }
        }
    }
}

fn run_watch(opts: Opts, out: &mut String) -> Run {
    let files = find_files("watch", &opts, out)?;
    let interval_ms = opts.interval_ms.unwrap_or(200);
    let mut watcher = Watcher::new(&opts, files);
    if opts.json {
        let event = Json::obj([
            ("event", Json::str("watching")),
            (
                "schema_version",
                Json::Num(f64::from(commcsl_verifier::report::REPORT_SCHEMA_VERSION)),
            ),
            ("files", count(watcher.files.len())),
            ("interval_ms", Json::Num(interval_ms as f64)),
            ("once", Json::Bool(opts.once)),
        ]);
        let _ = writeln!(out, "{event}");
    } else if !opts.once {
        let _ = writeln!(
            out,
            "commcsl: watching {} file(s), every {interval_ms} ms (ctrl-c to stop)",
            watcher.files.len(),
        );
    }

    let first = watcher.pass(true, out);
    if opts.once {
        return Ok(first.exit_code());
    }

    // The long-running loop streams directly (the `out` sink is only
    // rendered when `run` returns, which a watch loop never does).
    print!("{out}");
    out.clear();
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(Duration::from_millis(interval_ms.max(10)));
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
/// protocol machine lives in `commcsl-lsp`; this entry point injects the
/// `.csl` compiler and hands the process's stdio to
/// [`commcsl_lsp::LspServer::run`].
fn run_lsp(opts: Opts, out: &mut String) -> Run {
    let mut server = commcsl_lsp::LspServer::new(
        lsp_config(&opts),
        Box::new(|source| compile(source).map_err(|e| e.to_string())),
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    server
        .run(&mut stdin.lock(), &mut stdout.lock())
        .map_err(|e| fail(out, format_args!("lsp transport error: {e}")))
}

// ------------------------------------------------------------------- serve

fn run_serve(opts: Opts, out: &mut String) -> Run {
    let shards = opts.shards.unwrap_or(1);
    if shards > 1 && opts.tcp.is_none() {
        return Err(fail(
            out,
            "--shards needs --tcp (shard pools listen on TCP)",
        ));
    }
    if opts.stdio && (opts.tcp.is_some() || shards > 1) {
        return Err(fail(out, "--stdio cannot be combined with --tcp/--shards"));
    }
    let cache_dir = opts.daemon_cache_dir();
    let memory = opts.memory.unwrap_or(4096);

    // One shared-nothing server per shard, each with its own disk cache
    // directory (`<cache-dir>/shard{i}` when sharded, `<cache-dir>`
    // otherwise) and, when `--remote-cache` names a peer daemon, its own
    // remote obligation tier chained behind memory and disk.
    let make_server = |disk_dir: PathBuf| {
        let server = Server::new(
            ServerConfig {
                threads: opts.threads,
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
        if let Some(addr) = &opts.remote_cache {
            server.set_remote_cache(Box::new(RemoteCacheClient::new(addr.clone())));
        }
        server
    };

    if let Some(addr) = &opts.tcp {
        // Bind first, announce after: the "listening" line is the
        // readiness signal, and with port 0 it is also how wrappers
        // learn the actual port.
        let listener = Server::bind_tcp(addr)
            .map_err(|e| fail(out, format_args!("cannot bind {addr}: {e}")))?;
        let actual = listener
            .local_addr()
            .map_err(|e| fail(out, format_args!("cannot resolve bound address: {e}")))?;
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
        return served_until_shutdown(served, out);
    }

    let socket = opts.socket_path();
    let server = make_server(cache_dir.clone());

    if opts.stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match server.serve_stream(stdin.lock(), stdout.lock()) {
            Ok(()) => {
                let _ = writeln!(out, "commcsl: stdio session ended");
                Ok(EXIT_OK)
            }
            Err(e) => Err(fail(out, format_args!("stdio session failed: {e}"))),
        };
    }

    // Bind first, announce after: the "listening" line is a readiness
    // signal for wrappers (CI smoke test, `--daemon` auto-start), so it
    // must only appear once the socket actually accepts connections.
    let listener = Server::bind_unix(&socket)
        .map_err(|e| fail(out, format_args!("cannot bind {}: {e}", socket.display())))?;
    println!(
        "commcsl: daemon listening on {} (cache {})",
        socket.display(),
        cache_dir.display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    served_until_shutdown(server.serve_bound(listener, &socket), out)
}

/// Reports how a listening daemon ended.
fn served_until_shutdown(served: std::io::Result<()>, out: &mut String) -> Run {
    match served {
        Ok(()) => {
            let _ = writeln!(out, "commcsl: daemon shut down cleanly");
            Ok(EXIT_OK)
        }
        Err(e) => Err(fail(out, format_args!("daemon failed: {e}"))),
    }
}

// ------------------------------------------------------------------ daemon

fn run_daemon(opts: Opts, out: &mut String) -> Run {
    const ACTIONS: [&str; 5] = ["status", "stop", "metrics", "top", "logs"];
    let mut operands = opts.operands.iter();
    let action = operands.next();
    if let Some(other) = action
        .filter(|a| !ACTIONS.contains(&a.as_str()))
        .or(operands.next())
    {
        return Err(usage_error(
            out,
            format_args!("unknown daemon action `{other}`"),
        ));
    }
    let Some(action) = action else {
        return Err(usage_error(
            out,
            "daemon needs `status`, `metrics`, `top`, `logs`, or `stop`",
        ));
    };
    let endpoint = opts.endpoint();
    let interval_ms = opts.interval_ms.unwrap_or(1000);

    let mut client = match opts.connect() {
        Ok(client) => client,
        // Idempotent: stopping a daemon that is not there is fine.
        Err(_) if action == "stop" => {
            let _ = writeln!(out, "commcsl: no daemon on {endpoint}");
            return Ok(EXIT_OK);
        }
        Err(e) => {
            return Err(fail(
                out,
                format_args!("cannot reach a daemon on {endpoint}: {e}"),
            ))
        }
    };

    match action.as_str() {
        "status" => match client.status() {
            Ok(status) => {
                if opts.json {
                    let _ = writeln!(out, "{}", status.to_json());
                } else {
                    render_status(&status, &endpoint, out);
                }
                Ok(EXIT_OK)
            }
            Err(e) => Err(fail(out, format_args!("status failed: {e}"))),
        },
        "metrics" => match client.metrics() {
            Ok(snapshot) => {
                if opts.json {
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
                Ok(EXIT_OK)
            }
            Err(e) => Err(fail(out, format_args!("metrics failed: {e}"))),
        },
        "top" => Ok(run_daemon_top(
            &mut client,
            &endpoint,
            opts.json,
            opts.once,
            interval_ms,
            out,
        )),
        "logs" => Ok(run_daemon_logs(
            &mut client,
            opts.json,
            opts.follow,
            opts.since,
            interval_ms,
            out,
        )),
        _ => match client.shutdown() {
            Ok(()) => {
                let _ = writeln!(out, "commcsl: daemon on {endpoint} stopped");
                Ok(EXIT_OK)
            }
            Err(e) => Err(fail(out, format_args!("stop failed: {e}"))),
        },
    }
}

/// `daemon status` as text.
fn render_status(status: &StatusInfo, endpoint: &str, out: &mut String) {
    let _ = writeln!(
        out,
        "daemon v{} (format v{}, protocol v{}) \
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
    // Cluster lines: only daemons that report an endpoint / remote tier /
    // shard table get them, so pre-cluster daemons render exactly as
    // before.
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
            status.remote, status.remote_hits, status.remote_misses, status.remote_stores,
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
            Err(e) => return fail(out, format_args!("top failed: {e}")),
        };
        if json {
            let doc = Json::obj([
                ("status", status.to_json()),
                ("unit", Json::str("ns")),
                (
                    "histograms",
                    Json::Obj(hists.iter().map(|(op, h)| (op.clone(), h.into())).collect()),
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
            Err(e) => return fail(out, format_args!("top failed: {e}")),
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
fn render_log_event(event: &EventRecord, json: bool) -> String {
    let mut line = if json {
        Json::from(event).to_string()
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
        line
    };
    line.push('\n');
    line
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
        Err(e) => return fail(out, format_args!("logs failed: {e}")),
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
            Err(e) => return fail(out, format_args!("logs failed: {e}")),
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

fn run_fixture(opts: Opts, out: &mut String) -> Run {
    if let Some(extra) = opts.operands.get(1) {
        return Err(fail(
            out,
            format_args!("fixture takes one name, got also `{extra}`"),
        ));
    }
    let Some(name) = opts.operands.first() else {
        return Err(usage_error(
            out,
            "fixture needs a Table 1 row or program name",
        ));
    };
    let Some(fixture) = crate::fixtures::find(name) else {
        let hint = crate::fixtures::suggest(name)
            .map(|s| format!("; did you mean `{s}`?"))
            .unwrap_or_default();
        return Err(fail(out, format_args!("unknown fixture `{name}`{hint}")));
    };

    let report = commcsl_verifier::verify(&fixture.program, &VerifierConfig::default());
    if opts.json {
        let doc = Json::obj([
            ("fixture", Json::str(fixture.name)),
            ("data_structure", Json::str(fixture.data_structure)),
            ("abstraction", Json::str(fixture.abstraction)),
            ("report", Json::from(&report)),
        ]);
        let _ = writeln!(out, "{doc}");
    } else {
        let _ = writeln!(
            out,
            "{} — {} abstracted to {}",
            fixture.name, fixture.data_structure, fixture.abstraction
        );
        let _ = write!(out, "{report}");
    }
    Ok(if report.verified() {
        EXIT_OK
    } else {
        EXIT_MISMATCH
    })
}

// -------------------------------------------------------------------- lint

fn run_lint(opts: Opts, out: &mut String) -> Run {
    let mut file_lints: Vec<(PathBuf, Vec<Lint>)> = Vec::new();
    let mut file_errors: FileErrors = Vec::new();
    for file in find_files("lint", &opts, out)? {
        match compile_file(&file) {
            Ok(program) => file_lints.push((file, lint_program(&program))),
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
    } else if opts.deny_warnings && warnings > 0 {
        EXIT_MISMATCH
    } else {
        EXIT_OK
    };

    if opts.json {
        let entries = file_errors
            .iter()
            .map(|(file, e)| error_entry(file, e))
            .chain(file_lints.iter().map(|(file, lints)| {
                Json::obj([
                    ("file", Json::str(file.display().to_string())),
                    ("lints", Json::Arr(lints.iter().map(Json::from).collect())),
                ])
            }))
            .collect();
        let summary = Json::obj([
            ("files", count(file_lints.len() + file_errors.len())),
            ("lints", count(warnings + notes)),
            ("warnings", count(warnings)),
            ("notes", count(notes)),
            ("errors", count(file_errors.len())),
            ("deny_warnings", Json::Bool(opts.deny_warnings)),
            ("ok", Json::Bool(code == EXIT_OK)),
            ("exit_code", Json::Num(f64::from(code))),
        ]);
        let doc = Json::obj([
            ("schema_version", Json::Num(f64::from(CLI_SCHEMA_VERSION))),
            ("results", Json::Arr(entries)),
            ("summary", summary),
        ]);
        let _ = writeln!(out, "{doc}");
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
    Ok(code)
}

// --------------------------------------------------------------------- fmt

fn run_fmt(opts: Opts, out: &mut String) -> Run {
    let mut code = EXIT_OK;
    for file in find_files("fmt", &opts, out)? {
        match compile_file(&file) {
            Ok(program) => out.push_str(&crate::pretty::pretty(&program)),
            Err(e) => {
                let _ = writeln!(out, "{}: {e}", file.display());
                code = EXIT_ERROR;
            }
        }
    }
    Ok(code)
}

// ------------------------------------------------------------ file lookup

/// The `.csl` files the operands of a file-taking command name. Prints
/// the error and fails when there are no operands, an operand names
/// nothing, or no `.csl` file is found.
fn find_files(command: &str, opts: &Opts, out: &mut String) -> Result<Vec<PathBuf>, i32> {
    if opts.operands.is_empty() {
        return Err(usage_error(
            out,
            format_args!("{command} needs at least one path"),
        ));
    }
    match collect_files(&opts.operands) {
        Ok(files) if files.is_empty() => Err(fail(out, "no .csl files found")),
        Ok(files) => Ok(files),
        Err(msg) => Err(fail(out, msg)),
    }
}

/// [`find_files`], read: the sources, and the files that did not read.
fn read_sources(
    command: &str,
    opts: &Opts,
    out: &mut String,
) -> Result<(Vec<(PathBuf, String)>, FileErrors), i32> {
    let mut sources = Vec::new();
    let mut errors = Vec::new();
    for file in find_files(command, opts, out)? {
        match fs::read_to_string(&file) {
            Ok(source) => sources.push((file, source)),
            Err(e) => errors.push((file, format!("cannot read file: {e}"))),
        }
    }
    Ok((sources, errors))
}

/// Reads and compiles one file; `Err` says why it did not read or
/// compile.
fn compile_file(file: &Path) -> Result<AnnotatedProgram, String> {
    let source = fs::read_to_string(file).map_err(|e| format!("cannot read file: {e}"))?;
    compile(&source).map_err(|e| e.to_string())
}

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
            let hint = crate::fixtures::suggest(raw)
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

    /// Every row of the option table is accepted by the commands it
    /// names, rejected as unknown by every command with no row for its
    /// flag, and shown in the `help` section of each command it names.
    #[test]
    fn option_table_drives_the_parser_and_the_help() {
        let help = usage();
        for opt in OPTIONS {
            let value = match opt.value {
                Value::Absent(_) => None,
                Value::Number(..) => Some("1"),
                Value::Path(..) => Some("some/path"),
                Value::Addr(_) => Some("127.0.0.1:0"),
                Value::Word(words, _) => Some(words[0]),
            };
            let flag_and_value: Vec<String> = std::iter::once(opt.flag)
                .chain(value)
                .map(String::from)
                .collect();
            for (command, _) in COMMANDS.iter().filter(|(c, _)| *c != "help") {
                let mut out = String::new();
                if opt.commands.contains(command) {
                    assert!(
                        parse(command, &flag_and_value, &mut out).is_ok(),
                        "{command} {flag_and_value:?}: {out}"
                    );
                    let section = help
                        .split("\n\n")
                        .find(|s| s.starts_with(&format!("options ({command}):")))
                        .unwrap_or_else(|| panic!("no help section for {command}"));
                    let first_line = opt.help.lines().next().unwrap();
                    let entry = format!("  {:<29}{first_line}", opt.synopsis());
                    assert!(
                        section.contains(&entry),
                        "{command}: {entry:?} in\n{section}"
                    );
                } else if !OPTIONS
                    .iter()
                    .any(|o| o.flag == opt.flag && o.commands.contains(command))
                {
                    let args: Vec<String> = std::iter::once(command.to_string())
                        .chain(flag_and_value.iter().cloned())
                        .collect();
                    assert_eq!(run(&args, &mut out), EXIT_ERROR, "{args:?}");
                    let unknown = format!("commcsl: unknown {command} option `{}`\n", opt.flag);
                    assert!(out.starts_with(&unknown), "{args:?}: {out}");
                    assert!(
                        out.contains("\noptions (verify):\n"),
                        "usage follows: {out}"
                    );
                }
            }
        }
    }

    /// A value outside a flag's fixed words names the words and what was
    /// given, the same way for every flag and command.
    #[test]
    fn fixed_word_values_name_the_words_and_what_was_given() {
        for (args, expected) in [
            (
                &["verify", "--expect", "nonsense", "x.csl"][..],
                "commcsl: --expect needs `verified` or `rejected`, got `nonsense`\n",
            ),
            (
                &["verify", "x.csl", "--expect"],
                "commcsl: --expect needs `verified` or `rejected`\n",
            ),
            (
                &["lint", "--deny", "errors", "x.csl"],
                "commcsl: --deny needs `warnings`, got `errors`\n",
            ),
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let mut out = String::new();
            assert_eq!(run(&args, &mut out), EXIT_ERROR, "{args:?}");
            assert_eq!(out, expected, "{args:?}");
        }
    }

    /// `lsp` keeps both explanation knobs on unless they are switched
    /// off; `watch` leaves them off.
    #[test]
    fn lsp_explanation_knobs_are_on_unless_switched_off() {
        let mut out = String::new();
        let watcher = Watcher::new(&parse("watch", &[], &mut out).unwrap(), Vec::new());
        let watch = watcher.workspace.config();
        assert!(!watch.minimize_counterexamples && !watch.proof_cores);
        let lsp = lsp_config(&parse("lsp", &[], &mut out).unwrap()).verifier;
        assert!(lsp.minimize_counterexamples && lsp.proof_cores);
        let quiet = ["--no-minimize".to_owned(), "--no-hints".to_owned()];
        let quiet = lsp_config(&parse("lsp", &quiet, &mut out).unwrap()).verifier;
        assert!(!quiet.minimize_counterexamples && !quiet.proof_cores);
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
        // Under --expect rejected, --fail-fast would stop at the first
        // *expected* verdict: the pair is refused before any file is
        // read, in-process and through the daemon alike.
        for daemon in [None, Some("--daemon")] {
            let args: Vec<String> = ["verify", "--expect", "rejected", "--fail-fast"]
                .into_iter()
                .chain(daemon)
                .chain(["/nonexistent/x.csl"])
                .map(String::from)
                .collect();
            let mut out = String::new();
            assert_eq!(run(&args, &mut out), EXIT_ERROR, "{args:?}");
            assert!(
                out.starts_with("commcsl: --fail-fast") && out.contains("--expect rejected"),
                "{args:?}: {out}"
            );
            assert!(!out.contains("nonexistent"), "{args:?}: {out}");
        }
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
    fn fail_fast_skips_later_programs() {
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

        fs::remove_dir_all(&dir).ok();
    }

    /// The solver backend is no command-line choice: every command that
    /// took `--backend` refuses it as unknown and prints the usage, and
    /// `help` names no such flag.
    #[test]
    fn backend_is_no_option_of_any_command() {
        assert!(!usage().contains("--backend"));
        for args in [
            &["verify", "--backend", "fresh", "x.csl"][..],
            &["verify", "--daemon", "--backend", "fresh", "x.csl"],
            &["profile", "--backend", "fresh", "x.csl"],
            &["watch", "--backend", "fresh", "x.csl"],
            &["lsp", "--backend", "fresh"],
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let mut out = String::new();
            assert_eq!(run(&args, &mut out), EXIT_ERROR, "{args:?}");
            let unknown = format!("commcsl: unknown {} option `--backend`\n", args[0]);
            assert!(out.starts_with(&unknown), "{args:?}: {out}");
            assert!(
                out.contains("\noptions (verify):\n"),
                "usage follows: {out}"
            );
        }
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
        let mut watcher = Watcher::new(&Opts::default(), files);

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
