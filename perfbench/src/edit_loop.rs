//! `edit-loop`: one editor on the `commcsl lsp` path, closed loop, in
//! process.
//!
//! The server is `commcsl_lsp::LspServer` with `commcsl lsp`'s default
//! configuration (minimized counterexamples and proof cores on). Set-up
//! sends `initialize` and opens every document. An op is one full-sync
//! `textDocument/didChange` through `LspServer::handle_text`, up to its
//! outgoing messages rendered to text; its answer is the published
//! diagnostics list (no error for a verifying edit, a `low-output` error
//! for a leak).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use commcsl_front::{lower, parser};
use commcsl_lsp::LspServer;
use commcsl_server::json::Json;
use commcsl_verifier::cache::CacheConfig;
use commcsl_verifier::workspace::{Workspace, WorkspaceConfig};
use commcsl_verifier::{program_hash, VerifierConfig};

use crate::gen::{self, Edit, Expect, Input, Rng};
use crate::stats::{self, Meter, OpSample, Phase};
use crate::trace::{self, Tracer};
use crate::{Ctx, LayerRecord, Outcome};

/// One open document.
struct Doc {
    uri: String,
    input: Input,
    /// Edits applied so far (the unique number of the next one).
    edits: u64,
    /// Top inserts applied so far.
    shifts: u64,
    version: u64,
}

/// `commcsl lsp`'s configuration.
fn lsp_config() -> WorkspaceConfig {
    WorkspaceConfig {
        verifier: VerifierConfig {
            minimize_counterexamples: true,
            proof_cores: true,
            ..VerifierConfig::default()
        },
        cache: CacheConfig::default(),
    }
}

/// Compile timings captured inside the server's compiler callback.
type CompileSpans = Arc<Mutex<Vec<(&'static str, Instant, Instant)>>>;

/// The server, with the `.csl` compiler `commcsl lsp` injects. When
/// `spans` is given, parse and lower are timed separately.
fn server(spans: Option<CompileSpans>) -> LspServer {
    let compile: commcsl_server::daemon::CompileFn = match spans {
        None => Box::new(|source| commcsl_front::compile(source).map_err(|e| e.to_string())),
        Some(spans) => Box::new(move |source| {
            let t0 = Instant::now();
            let surface = parser::parse_surface(source);
            let t1 = Instant::now();
            let program = surface
                .and_then(|s| lower::lower(&s))
                .map_err(|e| e.to_string());
            let t2 = Instant::now();
            let mut spans = spans.lock().expect("compile spans");
            spans.push(("front.parse", t0, t1));
            spans.push(("front.lower", t1, t2));
            program
        }),
    };
    LspServer::new(lsp_config(), compile)
}

fn rpc(method: &str, id: Option<f64>, params: Json) -> String {
    let mut fields = vec![("jsonrpc", Json::str("2.0"))];
    if let Some(id) = id {
        fields.push(("id", Json::Num(id)));
    }
    fields.push(("method", Json::str(method)));
    fields.push(("params", params));
    Json::obj(fields).to_string()
}

fn did_open(uri: &str, text: &str) -> String {
    rpc(
        "textDocument/didOpen",
        None,
        Json::obj([(
            "textDocument",
            Json::obj([
                ("uri", Json::str(uri)),
                ("languageId", Json::str("commcsl")),
                ("version", Json::Num(0.0)),
                ("text", Json::str(text)),
            ]),
        )]),
    )
}

fn did_change(uri: &str, version: u64, text: &str) -> String {
    rpc(
        "textDocument/didChange",
        None,
        Json::obj([
            (
                "textDocument",
                Json::obj([
                    ("uri", Json::str(uri)),
                    ("version", Json::Num(version as f64)),
                ]),
            ),
            (
                "contentChanges",
                Json::Arr(vec![Json::obj([("text", Json::str(text))])]),
            ),
        ]),
    )
}

/// Whether the rendered outgoing messages publish diagnostics for `uri`
/// that match `expect`: no error for a verifying document, an error with
/// the expected code for a rejected one.
fn diagnostics_match(out: &[Json], uri: &str, expect: Expect) -> bool {
    let Some(params) = out
        .iter()
        .filter(|m| {
            m.get("method").and_then(Json::as_str) == Some("textDocument/publishDiagnostics")
        })
        .filter_map(|m| m.get("params"))
        .find(|p| p.get("uri").and_then(Json::as_str) == Some(uri))
    else {
        return false;
    };
    let Some(diagnostics) = params.get("diagnostics").and_then(Json::as_arr) else {
        return false;
    };
    let errors = diagnostics
        .iter()
        .filter(|d| d.get("severity").and_then(Json::as_num) == Some(1.0));
    let codes: Vec<&str> = errors
        .filter_map(|d| d.get("code").and_then(Json::as_str))
        .collect();
    let verified = codes.is_empty();
    expect.matches(verified, codes.iter().copied())
}

/// The documents: Table 1 and the shared-map families up to ~34 KB.
fn documents(ctx: &Ctx) -> Result<Vec<Doc>, String> {
    let mut rng = Rng::new(ctx.seed, "edit-loop");
    let mut inputs = gen::table1(&ctx.root)?;
    for (puts, outputs) in [(6, 24), (12, 48), (24, 96), (48, 192)] {
        inputs.push(gen::map_family(&mut rng, true, puts, outputs));
    }
    for size in [12, 24] {
        inputs.push(gen::map_family(&mut rng, false, size, size));
    }
    Ok(inputs
        .into_iter()
        .map(|input| Doc {
            uri: format!("file:///bench/{}", input.name),
            input,
            edits: 0,
            shifts: 0,
            version: 0,
        })
        .collect())
}

/// Whether `edit` makes the verifier re-check obligations (the other
/// edits reuse every one): `edit-loop`'s verify ops.
fn rechecks(edit: Edit) -> bool {
    matches!(edit, Edit::OutputChange | Edit::ActionArg | Edit::Leak)
}

/// One round of the schedule: every edit that applies to every
/// document, a leak immediately followed by its revert.
fn round(docs: &[Doc], rng: &mut Rng) -> Vec<(usize, Edit)> {
    let mut items: Vec<(usize, Edit)> = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        for edit in [
            Edit::Comment,
            Edit::TopInsert,
            Edit::OutputChange,
            Edit::ActionArg,
            Edit::Leak,
        ] {
            if gen::apply_edit(&doc.input.source, edit, 1).is_some() {
                items.push((i, edit));
            }
        }
    }
    rng.shuffle(&mut items);
    items
        .into_iter()
        .flat_map(|(i, edit)| {
            let revert = (edit == Edit::Leak).then_some((i, Edit::Revert));
            std::iter::once((i, edit)).chain(revert)
        })
        .collect()
}

/// The next text of `doc` under `edit`.
fn next_text(doc: &mut Doc, edit: Edit) -> String {
    doc.edits += 1;
    doc.version += 1;
    let n = if edit == Edit::TopInsert {
        doc.shifts += 1;
        doc.shifts
    } else {
        doc.edits
    };
    gen::apply_edit(&doc.input.source, edit, n).expect("schedule holds applicable edits only")
}

/// The editor state a timed phase runs against.
struct Session {
    lsp: LspServer,
    docs: Vec<Doc>,
    compile_spans: CompileSpans,
    /// The traced run's shadow workspace, updated beside each op.
    shadow: Option<Workspace>,
}

/// Set-up: a fresh server, `initialize`, every document opened, and one
/// warm-up round of edits.
fn setup(ctx: &Ctx, traced: bool) -> Result<Session, String> {
    let compile_spans = CompileSpans::default();
    let mut lsp = server(traced.then(|| compile_spans.clone()));
    let init = lsp.handle_text(&rpc(
        "initialize",
        Some(1.0),
        Json::obj([("capabilities", Json::obj([]))]),
    ));
    if init.first().and_then(|r| r.get("result")).is_none() {
        return Err("initialize failed".into());
    }
    lsp.handle_text(&rpc("initialized", None, Json::obj([])));
    let mut docs = documents(ctx)?;
    let mut shadow = traced.then(|| Workspace::new(lsp_config()));
    for doc in &docs {
        let out = lsp.handle_text(&did_open(&doc.uri, &doc.input.source));
        if !diagnostics_match(&out, &doc.uri, doc.input.expect) {
            return Err(format!("open: {} missed its known answer", doc.input.name));
        }
        if let Some(shadow) = &mut shadow {
            let program = commcsl_front::compile(&doc.input.source).map_err(|e| e.to_string())?;
            shadow.open_document(doc.uri.clone(), &program);
        }
    }
    let mut rng = Rng::new(ctx.seed, "edit-loop-warm");
    for (i, edit) in round(&docs, &mut rng) {
        let doc = &mut docs[i];
        let text = next_text(doc, edit);
        let out = lsp.handle_text(&did_change(&doc.uri, doc.version, &text));
        if !diagnostics_match(&out, &doc.uri, edit.expect(doc.input.expect)) {
            return Err(format!(
                "warm-up: {} {} missed its known answer",
                doc.input.name,
                edit.class()
            ));
        }
        if let Some(shadow) = &mut shadow {
            let program = commcsl_front::compile(&text).map_err(|e| e.to_string())?;
            shadow.update_document(&doc.uri, &program)?;
        }
    }
    compile_spans.lock().expect("compile spans").clear();
    Ok(Session {
        lsp,
        docs,
        compile_spans,
        shadow,
    })
}

/// One op: the didChange through the server plus the render of its
/// output. Traced, it records the op's spans and then, beside the op,
/// the inbound document's JSON parse, the program hash and a shadow
/// workspace update.
fn op(
    s: &mut Session,
    tr: &mut Tracer,
    i: usize,
    edit: Edit,
    rec: &mut LayerRecord,
) -> (bool, f64) {
    let doc = &mut s.docs[i];
    let text = next_text(doc, edit);
    let body = did_change(&doc.uri, doc.version, &text);
    let expect = edit.expect(doc.input.expect);
    let (uri, lsp, compile_spans) = (&doc.uri, &mut s.lsp, &s.compile_spans);

    let begun = Instant::now();
    let first_span = tr.spans.len();
    let (out, rendered) = tr.span("op", |tr| {
        let out = tr.span("lsp.handle", |tr| {
            let out = lsp.handle_text(&body);
            for (name, start, end) in compile_spans.lock().expect("compile spans").drain(..) {
                tr.record(name, start, end);
            }
            out
        });
        let rendered: usize = tr.span("lsp.render", |_| {
            out.iter().map(|m| m.to_string().len()).sum()
        });
        (out, rendered)
    });
    let ms = if tr.enabled() {
        tr.spans[first_span].dur_ns() as f64 / 1e6
    } else {
        begun.elapsed().as_secs_f64() * 1e3
    };
    let ok = diagnostics_match(&out, uri, expect);
    if !tr.enabled() {
        return (ok, ms);
    }

    rec.add("lsp.rendered_bytes", rendered as f64);
    tr.span("server.json_parse", |_| Json::parse(&body).is_ok());
    let config = lsp_config().verifier;
    if let Ok(program) = commcsl_front::compile(&text) {
        tr.span("verifier.hash", |_| program_hash(&program, &config));
        if let Some(shadow) = &mut s.shadow {
            if let Ok(outcome) =
                tr.span("verifier.update", |_| shadow.update_document(uri, &program))
            {
                rec.add("verifier.reused", outcome.obligations.reused as f64);
                rec.add("verifier.obligations", outcome.obligations.total as f64);
            }
        }
    }
    (ok, ms)
}

fn phase(
    s: &mut Session,
    rng: &mut Rng,
    seconds: f64,
    tr: &mut Tracer,
    recs: &mut Vec<LayerRecord>,
) -> Phase {
    let mut ops = Vec::new();
    let meter = Meter::start(vec!["self".into()], "self", seconds);
    let start = meter.started();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    'run: loop {
        for (i, edit) in round(&s.docs, rng) {
            // A leak's revert always runs, so every document ends a phase
            // at its base verdict.
            if Instant::now() >= deadline && edit != Edit::Revert {
                break 'run;
            }
            let id = ops.len() as u64;
            tr.set_op(id);
            let mut rec = LayerRecord::default();
            let (ok, ms) = op(s, tr, i, edit, &mut rec);
            if tr.enabled() {
                recs.push(rec);
            }
            let end_s = start.elapsed().as_secs_f64();
            meter.op_done();
            ops.push(OpSample {
                id,
                class: edit.class(),
                verify_ms: rechecks(edit).then_some(ms),
                ms,
                end_s,
                ok,
            });
        }
    }
    meter.finish(ops)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..crate::SETUPS {
        drop(session.take());
        let begun = Instant::now();
        session = Some(setup(ctx, ctx.trace)?);
        setup_s.push(begun.elapsed().as_secs_f64());
    }
    let mut s = session.expect("at least one set-up");

    let mut tr = Tracer::new(false, Instant::now(), 0);
    let mut rng = Rng::new(ctx.seed, "edit-loop-order");
    let mut recs = Vec::new();
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(&mut s, &mut rng, seconds, &mut tr, &mut recs);
    let mut outcome = Outcome::new(&setup_s, &plain);
    if !ctx.trace {
        return Ok(outcome);
    }

    tr.set_enabled(true);
    let traced = phase(&mut s, &mut rng, seconds, &mut tr, &mut recs);
    outcome.absorb(&traced);
    let spans = std::mem::take(&mut tr.spans);
    let m = |name: &str| trace::median_per_op(&spans, name, false);
    let mut layers = crate::empty_layers();
    let mut set = |name: &str, v: f64| crate::set(&mut layers, name, v);
    set("front.parse_ms", m("front.parse"));
    set("front.lower_ms", m("front.lower"));
    set("verifier.hash_ms", m("verifier.hash"));
    set("verifier.update_ms", m("verifier.update"));
    set(
        "verifier.reuse_ratio",
        LayerRecord::ratio(&recs, "verifier.reused", "verifier.obligations"),
    );
    set(
        "verifier.obligations",
        LayerRecord::mean(&recs, "verifier.obligations"),
    );
    set("server.json_parse_ms", m("server.json_parse"));
    set("lsp.handle_ms", m("op"));
    set(
        "lsp.handle_self_ms",
        trace::median_per_op(&spans, "lsp.handle", true),
    );
    let kb: Vec<f64> = recs
        .iter()
        .map(|r| r.get("lsp.rendered_bytes") / 1024.0)
        .collect();
    set("lsp.diagnostics_kb", stats::median(&kb));
    set("trace.overhead_ms", crate::trace_overhead(&plain, &traced));
    outcome.layers = layers;
    outcome.spans = spans;
    Ok(outcome)
}
