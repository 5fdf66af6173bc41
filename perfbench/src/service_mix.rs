//! `service-mix`: two connections from one process to a release
//! `commcsl serve` daemon over its Unix socket, closed loop.
//!
//! Each connection's requests cycle through a seeded shuffle of ten
//! slots: seven `verify`, two v2 `open`/`update` on the connection's own
//! document, one `status`. A `verify` draws from a working set larger
//! than the daemon's `--memory` tier, so memory hits, disk hits and
//! misses all occur; one verify slot in seven is a never-seen variant (a
//! renamed Table 1 program), which misses the program tier and reuses
//! obligation-tier entries. An op is one request round trip, timed from
//! encoding the request to decoding the response.
//!
//! The daemon is a black box, so the traced run replays each verify's
//! daemon-side steps in process beside the op — request parse, compile,
//! hash, a cache probe or verify through a mirror cache, response encode
//! — and joins them with the client spans and the daemon's own per-op
//! histograms (`histograms` op) to report what stays unattributed.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use commcsl_front::{lower, parser};
use commcsl_server::json::Json;
use commcsl_server::protocol::{
    doc_outcome_from_json, histograms_from_json, verify_outcome_from_json, verify_response_json,
    with_request_id, Request, StatusInfo, VerifyItem,
};
use commcsl_telemetry::Histogram;
use commcsl_verifier::cache::CacheConfig;
use commcsl_verifier::{program_hash, Verifier, VerifierConfig};

use crate::gen::{self, Edit, Input, Rng};
use crate::stats::{self, Meter, OpSample, Phase};
use crate::trace::{self, Span, Tracer};
use crate::{Ctx, LayerRecord, Outcome};

/// The daemon's in-memory verdict tier (`--memory`): smaller than the
/// working set.
const MEMORY: usize = 12;
/// Client connections (one thread each).
const CLIENTS: usize = 2;
/// Bound on one response; a slower answer is a failed op.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A running `commcsl serve`, stopped and cleaned up on drop.
struct Daemon {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    fn start(ctx: &Ctx, rep: usize) -> Result<Daemon, String> {
        let dir = ctx
            .out_dir
            .join(format!("run-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        if socket.as_os_str().len() > 100 {
            return Err(format!("socket path too long: {}", socket.display()));
        }
        let child = Command::new(&ctx.commcsl)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--memory")
            .arg(MEMORY.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.commcsl.display()))?;
        Ok(Daemon { child, dir, socket })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Connects, retrying while the daemon binds its socket.
    fn connect(&mut self, thread: usize) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return Conn::new(stream, thread),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    if Instant::now() >= deadline {
                        return Err(format!("daemon did not come up: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = self.connect(CLIENTS)?;
        conn.call(
            &Request::Shutdown,
            &mut Tracer::new(false, Instant::now(), 0),
        )?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() >= deadline {
                return Err("daemon did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Waits until the file system has committed the deletes so far. Removing
/// a daemon's cache directory leaves a journal commit (and, on a
/// `discard` mount, its TRIMs) pending; without this wait the next
/// set-up pays for the previous one's clean-up.
fn settle(dir: &std::path::Path) {
    if let Ok(dir) = std::fs::File::open(dir) {
        let _ = dir.sync_all();
    }
}

/// One NDJSON connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    thread: usize,
    seq: u64,
}

/// A finished round trip.
struct Exchange {
    /// The request line as sent.
    line: String,
    request_id: String,
    response: Json,
    response_bytes: usize,
}

impl Conn {
    fn new(stream: UnixStream, thread: usize) -> Result<Conn, String> {
        stream
            .set_read_timeout(Some(TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            thread,
            seq: 0,
        })
    }

    /// Encodes, sends, receives and parses one request, with client-side
    /// spans.
    fn call(&mut self, request: &Request, tr: &mut Tracer) -> Result<Exchange, String> {
        self.seq += 1;
        let request_id = format!("c{}-{}", self.thread, self.seq);
        let line = tr.span("server.request_encode", |_| {
            request.encode_with_request_id(&request_id)
        });
        let mut response = String::new();
        tr.span("client.roundtrip", |_| {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.writer.flush()?;
            self.reader.read_line(&mut response)
        })
        .map_err(|e| format!("{} transport: {e}", request.op_name()))?;
        if response.is_empty() {
            return Err("daemon closed the connection".into());
        }
        let response_bytes = response.len();
        let response = tr.span("client.json_parse", |_| Json::parse(response.trim()))?;
        Ok(Exchange {
            line,
            request_id,
            response,
            response_bytes,
        })
    }
}

/// What every client thread shares.
struct Shared {
    working_set: Vec<Input>,
    table1: Vec<Input>,
    /// The traced run's in-process mirror of the daemon's cache tiers.
    mirror: Option<Verifier>,
}

/// The verify working set: 26 Table-1-size programs (Table 1, the
/// rejected set, leak mutants) and five shared-map programs up to 12x48.
/// Two 12x48 put `verify_p99_ms` well inside their band; a 24x96, whose
/// ~50 KB report the client parses in 25–60 ms depending on what the
/// other connection is doing, made it swing by a fifth between runs.
fn working_set(ctx: &Ctx) -> Result<(Vec<Input>, Vec<Input>), String> {
    let mut rng = Rng::new(ctx.seed, "service-mix");
    let table1 = gen::table1(&ctx.root)?;
    let mut set = table1.clone();
    set.extend(gen::rejected(&ctx.root)?);
    for leak in gen::Leak::ALL {
        set.push(gen::leak_mutant(&mut rng, leak));
    }
    for _ in 0..3 {
        set.push(gen::map_family(&mut rng, true, 6, 24));
    }
    set.push(gen::map_family(&mut rng, true, 12, 48));
    set.push(gen::map_family(&mut rng, true, 12, 48));
    set.push(gen::map_family(&mut rng, false, 24, 24));
    Ok((set, table1))
}

/// A never-seen variant of a Table 1 program: the same program under a
/// new name.
fn renamed(input: &Input, tag: &str) -> Input {
    let start = input.source.find("\nprogram ").map_or(0, |i| i + 1);
    let end = start + input.source[start..].find(";\n").unwrap_or(0);
    let name = format!("{}-{tag}", input.name.trim_end_matches(".csl"));
    Input {
        name: name.clone(),
        source: format!(
            "{}program \"{name}\"{}",
            &input.source[..start],
            &input.source[end..]
        ),
        expect: input.expect,
        family: input.family,
    }
}

/// One connection's request stream.
struct Client {
    conn: Conn,
    rng: Rng,
    slots: Vec<Slot>,
    /// The connection's document, its current base, and edit counters.
    doc: String,
    base: usize,
    doc_ops: u64,
    novel: u64,
}

/// One request slot of a connection's cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// `verify` of a working-set program.
    Verify,
    /// `verify` of a never-seen variant.
    Novel,
    /// `open`/`update` of the connection's document.
    Doc,
    /// `status`.
    Status,
}

impl Client {
    fn next_slot(&mut self) -> Slot {
        use Slot::*;
        if self.slots.is_empty() {
            self.slots = vec![
                Verify, Verify, Verify, Verify, Verify, Verify, Novel, Doc, Doc, Status,
            ];
            self.rng.shuffle(&mut self.slots);
        }
        self.slots.pop().expect("refilled")
    }
}

/// Replays a verify's daemon-side steps in process, beside the op.
fn replay_verify(tr: &mut Tracer, x: &Exchange, item: &VerifyItem, mirror: &Verifier) {
    let _ = tr.span("server.json_parse", |_| Json::parse(&x.line));
    let Ok(surface) = tr.span("front.parse", |_| parser::parse_surface(&item.source)) else {
        return;
    };
    let Ok(program) = tr.span("front.lower", |_| lower::lower(&surface)) else {
        return;
    };
    tr.span("verifier.hash", |_| {
        program_hash(&program, &VerifierConfig::default())
    });
    tr.span("verifier.cached_verify", |_| mirror.verify(&program));
    if let Ok(decoded) = verify_outcome_from_json(&x.response) {
        tr.span("server.response_encode", |_| {
            with_request_id(&verify_response_json(&decoded), &x.request_id).to_string()
        });
    }
}

/// Runs one connection's closed loop until `deadline`.
fn client_loop(
    c: &mut Client,
    shared: &Shared,
    meter: &Meter,
    deadline: Instant,
    tr: &mut Tracer,
) -> (Vec<OpSample>, Vec<LayerRecord>) {
    let mut ops = Vec::new();
    let mut recs = Vec::new();
    while Instant::now() < deadline {
        let slot = c.next_slot();
        let (class, verify, request, expect) = match slot {
            Slot::Verify | Slot::Novel => {
                let input = if slot == Slot::Novel {
                    c.novel += 1;
                    let base = &shared.table1[c.rng.below(shared.table1.len())];
                    renamed(base, &format!("v{}-{}", c.conn.thread, c.novel))
                } else {
                    shared.working_set[c.rng.below(shared.working_set.len())].clone()
                };
                let request = Request::Verify(VerifyItem {
                    name: input.name,
                    source: input.source,
                });
                ("verify", true, request, input.expect)
            }
            Slot::Doc => {
                c.doc_ops += 1;
                let request = if c.doc_ops.is_multiple_of(4) {
                    c.base = (c.base + 1) % shared.table1.len();
                    Request::Open {
                        doc: c.doc.clone(),
                        source: shared.table1[c.base].source.clone(),
                    }
                } else {
                    let edit = [Edit::OutputChange, Edit::Comment, Edit::TopInsert]
                        [c.doc_ops as usize % 3];
                    let source =
                        gen::apply_edit(&shared.table1[c.base].source, edit, c.doc_ops % 64 + 1)
                            .expect("Table 1 programs take every edit");
                    Request::Update {
                        doc: c.doc.clone(),
                        source,
                    }
                };
                ("doc", false, request, shared.table1[c.base].expect)
            }
            Slot::Status => ("status", false, Request::Status, gen::Expect::Verified),
        };

        let id = ((c.conn.thread as u64) << 40) | ops.len() as u64;
        tr.set_op(id);
        let begun = Instant::now();
        let first_span = tr.spans.len();
        let result = tr.span("op", |tr| {
            let x = c.conn.call(&request, tr)?;
            let ok = tr.span("client.decode", |_| match &request {
                Request::Verify(_) => match verify_outcome_from_json(&x.response) {
                    Ok(Ok(v)) => {
                        !v.skipped
                            && expect.matches(
                                v.report.verified(),
                                v.report.failures().map(|o| o.code.as_str()),
                            )
                    }
                    _ => false,
                },
                Request::Open { .. } | Request::Update { .. } => {
                    match doc_outcome_from_json(&x.response) {
                        Ok(Ok(d)) => expect.matches(
                            d.report.verified(),
                            d.report.failures().map(|o| o.code.as_str()),
                        ),
                        _ => false,
                    }
                }
                _ => StatusInfo::from_json(&x.response).is_ok_and(|s| s.protocol_version == 2),
            });
            Ok::<_, String>((x, ok))
        });
        let ms = if tr.enabled() {
            tr.spans[first_span].dur_ns() as f64 / 1e6
        } else {
            begun.elapsed().as_secs_f64() * 1e3
        };
        let end_s = meter.started().elapsed().as_secs_f64();
        meter.op_done();
        let ok = match result {
            Ok((x, ok)) => {
                if tr.enabled() {
                    let mut rec = LayerRecord::default();
                    rec.add("server.response_bytes", x.response_bytes as f64);
                    match (&request, &shared.mirror) {
                        (Request::Verify(item), Some(mirror)) => {
                            rec.add("verify", 1.0);
                            replay_verify(tr, &x, item, mirror);
                        }
                        _ => {
                            let _ = tr.span("server.json_parse", |_| Json::parse(&x.line));
                        }
                    }
                    recs.push(rec);
                }
                ok
            }
            Err(e) => {
                // The connection's state is unknown after a transport
                // failure: count the op failed and end this client.
                eprintln!("commcsl-perfbench: service-mix: {e}");
                ops.push(OpSample {
                    id,
                    class,
                    verify_ms: verify.then_some(ms),
                    ms,
                    end_s,
                    ok: false,
                });
                break;
            }
        };
        ops.push(OpSample {
            id,
            class,
            verify_ms: verify.then_some(ms),
            ms,
            end_s,
            ok,
        });
    }
    (ops, recs)
}

/// The daemon-side histograms and cache counters at one instant.
struct DaemonView {
    hists: Vec<(String, Histogram)>,
    status: StatusInfo,
}

fn daemon_view(conn: &mut Conn) -> Result<DaemonView, String> {
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let hists = histograms_from_json(&conn.call(&Request::Histograms, &mut tr)?.response)?;
    let status = StatusInfo::from_json(&conn.call(&Request::Status, &mut tr)?.response)?;
    Ok(DaemonView { hists, status })
}

/// The requests `ops` recorded between two views, as one histogram.
fn hist_delta(before: &DaemonView, after: &DaemonView, ops: &[&str]) -> Histogram {
    let mut delta = Histogram::new();
    for op in ops {
        let find = |v: &DaemonView| {
            v.hists
                .iter()
                .find(|(n, _)| n == op)
                .map(|(_, h)| h.clone())
                .unwrap_or_default()
        };
        let (b, a) = (find(before), find(after));
        let old: BTreeMap<usize, u64> = b.nonzero_buckets().collect();
        for (index, count) in a.nonzero_buckets() {
            let n = count.saturating_sub(old.get(&index).copied().unwrap_or(0));
            delta.record_n(Histogram::bucket_bounds(index).1, n);
        }
    }
    delta
}

/// Set-up: daemon start, connections, `hello`, each connection's
/// document opened, and the working set verified once (cold).
fn setup(ctx: &Ctx, rep: usize, shared: &Shared) -> Result<(Daemon, Vec<Client>), String> {
    let mut daemon = Daemon::start(ctx, rep)?;
    let mut clients = Vec::new();
    for thread in 0..CLIENTS {
        let mut conn = daemon.connect(thread)?;
        let mut tr = Tracer::new(false, Instant::now(), thread);
        let hello = conn.call(&Request::Hello { protocol: 2 }, &mut tr)?;
        if hello.response.get("protocol").and_then(Json::as_u64) != Some(2) {
            return Err("hello did not negotiate protocol 2".into());
        }
        let mut rng = Rng::new(ctx.seed, &format!("service-mix-client-{thread}"));
        let base = rng.below(shared.table1.len());
        let doc = format!("conn{thread}.csl");
        let open = conn.call(
            &Request::Open {
                doc: doc.clone(),
                source: shared.table1[base].source.clone(),
            },
            &mut tr,
        )?;
        if !matches!(doc_outcome_from_json(&open.response), Ok(Ok(_))) {
            return Err("open failed".into());
        }
        clients.push(Client {
            conn,
            rng,
            slots: Vec::new(),
            doc,
            base,
            doc_ops: 0,
            novel: 0,
        });
    }
    // The warm-up runs over both connections at once, as the timed phase
    // does. Over one connection the other CPU idles between requests, and
    // waking it on a shared VM made set-ups up to three times slower in
    // some runs than in others.
    std::thread::scope(|scope| {
        let warmers: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    let mut tr = Tracer::new(false, Instant::now(), c.conn.thread);
                    let mine = shared.working_set.iter().skip(c.conn.thread);
                    for input in mine.step_by(CLIENTS) {
                        let x = c.conn.call(
                            &Request::Verify(VerifyItem {
                                name: input.name.clone(),
                                source: input.source.clone(),
                            }),
                            &mut tr,
                        )?;
                        match verify_outcome_from_json(&x.response) {
                            Ok(Ok(v))
                                if input.expect.matches(
                                    v.report.verified(),
                                    v.report.failures().map(|o| o.code.as_str()),
                                ) => {}
                            _ => {
                                return Err(format!(
                                    "warm-up: {} missed its known answer",
                                    input.name
                                ))
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        warmers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up thread"))
    })?;
    Ok((daemon, clients))
}

/// Runs both connections for `seconds` and measures both processes.
fn phase(
    clients: &mut [Client],
    shared: &Shared,
    daemon: &Daemon,
    seconds: f64,
    traced: bool,
) -> (Phase, Vec<Span>, Vec<LayerRecord>) {
    let meter = Meter::start(vec!["self".into(), daemon.pid()], &daemon.pid(), seconds);
    let epoch = meter.started();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<OpSample>, Vec<LayerRecord>, Vec<Span>)> = std::thread::scope(|scope| {
        let meter = &meter;
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch, c.conn.thread);
                    let (ops, recs) = client_loop(c, shared, meter, deadline, &mut tr);
                    (ops, recs, tr.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut ops = Vec::new();
    let mut spans = Vec::new();
    let mut recs = Vec::new();
    for (o, r, s) in results {
        ops.extend(o);
        recs.extend(r);
        let offset = spans.len();
        spans.extend(trace::rebase(s, offset));
    }
    (meter.finish(ops), spans, recs)
}

/// The ids of one class's ops.
fn op_ids(phase: &Phase, class: &str) -> BTreeSet<u64> {
    phase
        .ops
        .iter()
        .filter(|o| o.class == class)
        .map(|o| o.id)
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut running = None;
    for rep in 0..crate::SETUPS {
        if let Some(((daemon, _), _)) = running.take() {
            Daemon::stop(daemon)?;
        }
        settle(&ctx.out_dir);
        let begun = Instant::now();
        let (working_set, table1) = working_set(ctx)?;
        let shared = Shared {
            working_set,
            table1,
            mirror: None,
        };
        running = Some((setup(ctx, rep, &shared)?, shared));
        setup_s.push(begun.elapsed().as_secs_f64());
    }
    let ((daemon, mut clients), mut shared) = running.expect("at least one set-up");

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (plain, _, _) = phase(&mut clients, &shared, &daemon, seconds, false);
    let mut outcome = Outcome::new(&setup_s, &plain);
    if !ctx.trace {
        Daemon::stop(daemon)?;
        return Ok(outcome);
    }

    // The mirror sees the working set once, like the daemon's warm-up.
    let mirror = Verifier::new().with_cache(CacheConfig {
        memory_capacity: MEMORY,
        disk_dir: Some(daemon.dir.join("mirror")),
        ..CacheConfig::default()
    });
    for input in &shared.working_set {
        if let Ok(program) = commcsl_front::compile(&input.source) {
            mirror.verify(&program);
        }
    }
    shared.mirror = Some(mirror);
    let mut control = Conn::new(
        UnixStream::connect(&daemon.socket).map_err(|e| e.to_string())?,
        CLIENTS,
    )?;
    let before = daemon_view(&mut control)?;
    let (traced, spans, recs) = phase(&mut clients, &shared, &daemon, seconds, true);
    let after = daemon_view(&mut control)?;
    outcome.absorb(&traced);
    drop(control);
    Daemon::stop(daemon)?;

    let mut layers = crate::empty_layers();
    let mut set = |name: &str, v: f64| crate::set(&mut layers, name, v);
    let verify_ids = op_ids(&traced, "verify");
    let m = |name: &str, ids: &BTreeSet<u64>| {
        let per_op: Vec<f64> = trace::op_totals(&spans, name, false)
            .into_iter()
            .filter(|(op, _)| ids.contains(op))
            .map(|(_, v)| v)
            .collect();
        stats::median(&per_op)
    };
    set("front.parse_ms", m("front.parse", &verify_ids));
    set("front.lower_ms", m("front.lower", &verify_ids));
    set("verifier.hash_ms", m("verifier.hash", &verify_ids));
    set(
        "verifier.cached_verify_ms",
        m("verifier.cached_verify", &verify_ids),
    );
    let lookups = |s: &StatusInfo| (s.memory_hits + s.disk_hits + s.misses) as f64;
    let d = |f: fn(&StatusInfo) -> u64| (f(&after.status) - f(&before.status)) as f64;
    let programs = lookups(&after.status) - lookups(&before.status);
    set(
        "verifier.cache_hit_ratio",
        (d(|s| s.memory_hits) + d(|s| s.disk_hits)) / programs.max(1.0),
    );
    set(
        "verifier.disk_hit_ratio",
        d(|s| s.disk_hits) / programs.max(1.0),
    );
    let obligations = d(|s| s.obligation_hits) + d(|s| s.obligation_misses);
    set(
        "verifier.obligation_hit_ratio",
        d(|s| s.obligation_hits) / obligations.max(1.0),
    );

    // Inbound JSON documents of a verify: the request line (parsed by the
    // daemon, replayed here) and the response line (parsed by the client).
    let parse_per_op: Vec<f64> = {
        let server = trace::op_totals(&spans, "server.json_parse", false);
        let client = trace::op_totals(&spans, "client.json_parse", false);
        verify_ids
            .iter()
            .map(|op| {
                server.get(op).copied().unwrap_or(0.0) + client.get(op).copied().unwrap_or(0.0)
            })
            .collect()
    };
    set("server.json_parse_ms", stats::median(&parse_per_op));
    set(
        "server.request_encode_ms",
        m("server.request_encode", &verify_ids),
    );
    set(
        "server.response_encode_ms",
        m("server.response_encode", &verify_ids),
    );
    let kb: Vec<f64> = recs
        .iter()
        .filter(|r| r.get("verify") > 0.0)
        .map(|r| r.get("server.response_bytes") / 1024.0)
        .collect();
    set("server.response_kb", stats::median(&kb));
    let handler = hist_delta(&before, &after, &["verify"]);
    set("server.handler_ms", handler.quantile(0.5) as f64 / 1e6);
    set("server.handler_p99_ms", handler.quantile(0.99) as f64 / 1e6);
    for (class, daemon_ops, metric) in [
        ("verify", &["verify"][..], "server.unattributed_ms"),
        ("doc", &["open", "update"][..], "server.unattributed_ms.doc"),
        ("status", &["status"][..], "server.unattributed_ms.status"),
    ] {
        let ids = op_ids(&traced, class);
        let client = stats::median(&traced.latencies(|o| o.class == class));
        let attributed = m("server.request_encode", &ids)
            + m("server.json_parse", &ids)
            + m("client.json_parse", &ids)
            + m("client.decode", &ids)
            + hist_delta(&before, &after, daemon_ops).quantile(0.5) as f64 / 1e6;
        set(metric, client - attributed);
    }
    set("trace.overhead_ms", crate::trace_overhead(&plain, &traced));
    outcome.layers = layers;
    outcome.spans = spans;
    Ok(outcome)
}
