//! The language server: LSP lifecycle, document sync, diagnostics,
//! hover, and progress over a [`Workspace`] session.
//!
//! One [`LspServer`] owns one [`Workspace`]: every `didOpen`/`didChange`
//! compiles the full document text (the server advertises full-document
//! sync) through the injected compiler and re-verifies it as a workspace
//! revision, so an edit re-checks only the obligations whose dependency
//! cone it dirtied — everything else replays from the obligation cache.
//! The resulting report is translated to `textDocument/publishDiagnostics`:
//!
//! * structural errors and failed obligations become `Error` diagnostics
//!   whose `code` is the obligation's stable
//!   [`DiagnosticCode`](commcsl_verifier::DiagnosticCode) spelling and
//!   whose message carries the failure reason and the (optionally
//!   minimized) counterexample;
//! * compile errors become a single `Error` diagnostic positioned from
//!   the conventional `line:col:` prefix of the compiler's message;
//! * unneeded-annotation hints from proof-core tracking become `Hint`
//!   diagnostics.
//!
//! `textDocument/hover` answers with per-obligation detail for the
//! obligations generated by the statement on the hovered line: status,
//! failure reason, counterexample table, and the proof core's fact
//! sites. While a revision verifies, the server streams `$/progress`
//! notifications (`begin` / one `report` per settled obligation / `end`)
//! driven by [`WorkspaceEvent`]s.
//!
//! The server is transport-agnostic: [`LspServer::handle_text`] maps one
//! incoming message body to the ordered list of outgoing messages, and
//! [`LspServer::run`] wires that onto the framed stdio transport of
//! [`crate::rpc`]. Tests drive `handle_text` directly.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use commcsl_server::daemon::CompileFn;
use commcsl_server::json::Json;
use commcsl_verifier::diag::SourceSpan;
use commcsl_verifier::report::{
    Lint, ObligationResult, ObligationStatus, Severity, VerifierReport,
};
use commcsl_verifier::workspace::{Workspace, WorkspaceConfig, WorkspaceEvent};

use crate::rpc::{
    self, error_response, notification, response, Message, INVALID_REQUEST, METHOD_NOT_FOUND,
    PARSE_ERROR, SERVER_NOT_INITIALIZED,
};

/// The server's name in `initialize` results.
const SERVER_NAME: &str = "commcsl-lsp";

/// LSP `DiagnosticSeverity.Error`.
const SEVERITY_ERROR: f64 = 1.0;
/// LSP `DiagnosticSeverity.Hint`.
const SEVERITY_HINT: f64 = 4.0;

/// The last analysis of one open document, kept for hover.
#[derive(Debug)]
struct DocAnalysis {
    /// The verification report, when the document compiled.
    report: Option<VerifierReport>,
    /// The compile error, when it did not.
    compile_error: Option<String>,
}

/// An editor-facing language server over one workspace session. See the
/// module docs for the capability surface.
pub struct LspServer {
    compile: CompileFn,
    workspace: Workspace,
    docs: BTreeMap<String, DocAnalysis>,
    initialized: bool,
    shutdown: bool,
    exited: bool,
    progress_seq: u64,
}

impl LspServer {
    /// Creates a server with the given workspace configuration and
    /// surface-language compiler.
    pub fn new(config: WorkspaceConfig, compile: CompileFn) -> Self {
        LspServer {
            compile,
            workspace: Workspace::new(config),
            docs: BTreeMap::new(),
            initialized: false,
            shutdown: false,
            exited: false,
            progress_seq: 0,
        }
    }

    /// `true` once the client sent `exit`.
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// `true` once the client sent `shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// The underlying workspace session (for inspection in tests and
    /// embedding hosts).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Serves one framed JSON-RPC session until `exit` or EOF. Returns
    /// the process exit code the LSP spec mandates: `0` for an orderly
    /// `shutdown` + `exit` sequence, `1` otherwise.
    pub fn run(
        &mut self,
        reader: &mut dyn BufRead,
        writer: &mut dyn Write,
    ) -> Result<i32, String> {
        while !self.exited {
            let Some(body) = rpc::read_frame(reader)? else {
                break;
            };
            for outgoing in self.handle_text(&body) {
                rpc::write_frame(writer, &outgoing)?;
            }
        }
        Ok(i32::from(!(self.exited && self.shutdown)))
    }

    /// Handles one raw message body; returns the outgoing messages
    /// (responses and server notifications) in send order.
    pub fn handle_text(&mut self, body: &str) -> Vec<Json> {
        let value = match Json::parse(body) {
            Ok(value) => value,
            Err(e) => return vec![error_response(Json::Null, PARSE_ERROR, e)],
        };
        match Message::from_json(&value) {
            Ok(message) => self.handle(message),
            Err(e) => vec![error_response(Json::Null, INVALID_REQUEST, e)],
        }
    }

    fn handle(&mut self, message: Message) -> Vec<Json> {
        match message {
            Message::Request { id, method, params } => self.handle_request(id, &method, &params),
            Message::Notification { method, params } => {
                self.handle_notification(&method, &params)
            }
            Message::Response { .. } => Vec::new(),
        }
    }

    fn handle_request(&mut self, id: Json, method: &str, params: &Json) -> Vec<Json> {
        if !self.initialized && method != "initialize" {
            return vec![error_response(
                id,
                SERVER_NOT_INITIALIZED,
                "server not initialized",
            )];
        }
        match method {
            "initialize" => {
                self.initialized = true;
                vec![response(id, initialize_result())]
            }
            "shutdown" => {
                self.shutdown = true;
                vec![response(id, Json::Null)]
            }
            "textDocument/hover" => vec![match self.hover(params) {
                Ok(result) => response(id, result),
                Err(e) => error_response(id, rpc::INVALID_PARAMS, e),
            }],
            _ => vec![error_response(
                id,
                METHOD_NOT_FOUND,
                format!("unsupported method `{method}`"),
            )],
        }
    }

    fn handle_notification(&mut self, method: &str, params: &Json) -> Vec<Json> {
        if method == "exit" {
            self.exited = true;
            return Vec::new();
        }
        if !self.initialized {
            return Vec::new(); // pre-initialize notifications are dropped
        }
        match method {
            "initialized" => Vec::new(),
            "textDocument/didOpen" => {
                let doc = params.get("textDocument");
                let (Some(uri), Some(text)) = (
                    doc.and_then(|d| d.get("uri")).and_then(Json::as_str),
                    doc.and_then(|d| d.get("text")).and_then(Json::as_str),
                ) else {
                    return Vec::new();
                };
                let (uri, text) = (uri.to_owned(), text.to_owned());
                self.check_document(&uri, &text)
            }
            "textDocument/didChange" => {
                let Some(uri) = params
                    .get("textDocument")
                    .and_then(|d| d.get("uri"))
                    .and_then(Json::as_str)
                else {
                    return Vec::new();
                };
                // Full sync (advertised in the capabilities): the last
                // content change carries the whole new text.
                let Some(text) = params
                    .get("contentChanges")
                    .and_then(Json::as_arr)
                    .and_then(<[Json]>::last)
                    .and_then(|c| c.get("text"))
                    .and_then(Json::as_str)
                else {
                    return Vec::new();
                };
                let (uri, text) = (uri.to_owned(), text.to_owned());
                self.check_document(&uri, &text)
            }
            "textDocument/didClose" => {
                let Some(uri) = params
                    .get("textDocument")
                    .and_then(|d| d.get("uri"))
                    .and_then(Json::as_str)
                else {
                    return Vec::new();
                };
                self.workspace.close_document(uri);
                self.docs.remove(uri);
                // Clear the document's diagnostics in the editor.
                vec![publish_diagnostics(uri, Vec::new())]
            }
            // Unknown notifications (including `$/…`) are ignored.
            _ => Vec::new(),
        }
    }

    /// Compiles and re-verifies one document revision; returns the
    /// progress stream followed by the `publishDiagnostics` notification.
    fn check_document(&mut self, uri: &str, text: &str) -> Vec<Json> {
        let mut out = Vec::new();
        match (self.compile)(text) {
            Err(error) => {
                let (line, col) = compile_error_position(&error);
                let diagnostic = Json::obj([
                    ("range", range_json(line, col)),
                    ("severity", Json::Num(SEVERITY_ERROR)),
                    ("code", Json::str("parse-error")),
                    ("source", Json::str("commcsl")),
                    ("message", Json::str(&error)),
                ]);
                self.docs.insert(
                    uri.to_owned(),
                    DocAnalysis {
                        report: None,
                        compile_error: Some(error),
                    },
                );
                out.push(publish_diagnostics(uri, vec![diagnostic]));
            }
            Ok(program) => {
                self.progress_seq += 1;
                let token = format!("commcsl/{}", self.progress_seq);
                // `open_document` covers both first-open and re-open; a
                // re-open of an open document is the edit path (the next
                // revision of the same workspace document).
                let outcome = self.workspace.open_document_with(uri, &program, &mut |e| {
                    if let Some(progress) = progress_json(&token, uri, &e) {
                        out.push(progress);
                    }
                });
                let diagnostics = report_diagnostics(&outcome.report);
                self.docs.insert(
                    uri.to_owned(),
                    DocAnalysis {
                        report: Some(outcome.report),
                        compile_error: None,
                    },
                );
                out.push(publish_diagnostics(uri, diagnostics));
            }
        }
        out
    }

    /// `textDocument/hover`: detail for the obligations and hints whose
    /// span sits on the hovered line.
    fn hover(&self, params: &Json) -> Result<Json, String> {
        let uri = params
            .get("textDocument")
            .and_then(|d| d.get("uri"))
            .and_then(Json::as_str)
            .ok_or("hover needs `textDocument.uri`")?;
        let line = params
            .get("position")
            .and_then(|p| p.get("line"))
            .and_then(Json::as_u64)
            .ok_or("hover needs `position.line`")?;
        let line1 = u32::try_from(line).unwrap_or(u32::MAX).saturating_add(1);
        let Some(analysis) = self.docs.get(uri) else {
            return Ok(Json::Null);
        };
        if let Some(error) = &analysis.compile_error {
            let (err_line, _) = compile_error_position(error);
            return Ok(if err_line + 1 == line1 {
                hover_result(format!("**compile error**\n\n{error}"), None)
            } else {
                Json::Null
            });
        }
        let Some(report) = &analysis.report else {
            return Ok(Json::Null);
        };
        let minimized = self.workspace.config().minimize_counterexamples;
        let mut sections: Vec<String> = Vec::new();
        let mut span: Option<SourceSpan> = None;
        for obligation in &report.obligations {
            if obligation.span.map(|s| s.line) == Some(line1) {
                span = span.or(obligation.span);
                sections.push(hover_obligation(obligation, minimized));
            }
        }
        for hint in &report.hints {
            if hint.span.map(|s| s.line) == Some(line1) {
                span = span.or(hint.span);
                sections.push(format!("**hint** ({}): {}", hint.code.as_str(), hint.message));
            }
        }
        Ok(if sections.is_empty() {
            Json::Null
        } else {
            hover_result(sections.join("\n\n---\n\n"), span)
        })
    }
}

/// The `initialize` result: full-document sync, hover, nothing else.
fn initialize_result() -> Json {
    Json::obj([
        (
            "capabilities",
            Json::obj([
                (
                    "textDocumentSync",
                    Json::obj([
                        ("openClose", Json::Bool(true)),
                        ("change", Json::Num(1.0)), // TextDocumentSyncKind.Full
                    ]),
                ),
                ("hoverProvider", Json::Bool(true)),
            ]),
        ),
        (
            "serverInfo",
            Json::obj([
                ("name", Json::str(SERVER_NAME)),
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ]),
        ),
    ])
}

/// A `textDocument/publishDiagnostics` notification.
fn publish_diagnostics(uri: &str, diagnostics: Vec<Json>) -> Json {
    notification(
        "textDocument/publishDiagnostics",
        Json::obj([
            ("uri", Json::str(uri)),
            ("diagnostics", Json::Arr(diagnostics)),
        ]),
    )
}

/// Translates a report into LSP diagnostics: structural errors, failed
/// obligations, then proof-core hints.
fn report_diagnostics(report: &VerifierReport) -> Vec<Json> {
    let mut diagnostics = Vec::new();
    for error in &report.errors {
        diagnostics.push(Json::obj([
            ("range", range_json(0, 0)),
            ("severity", Json::Num(SEVERITY_ERROR)),
            ("code", Json::str("program-error")),
            ("source", Json::str("commcsl")),
            ("message", Json::str(error)),
        ]));
    }
    for obligation in &report.obligations {
        let ObligationStatus::Failed(failure) = &obligation.status else {
            continue;
        };
        let mut message = format!("{}: {}", obligation.description, failure.reason);
        if let Some(cex) = &failure.counterexample {
            message.push_str("\ncounterexample:");
            for b in &cex.bindings {
                message.push_str(&format!("\n  {} = {} | {}", b.var, b.exec1, b.exec2));
            }
        }
        let (line, col) = span_position(obligation.span);
        diagnostics.push(Json::obj([
            ("range", range_json(line, col)),
            ("severity", Json::Num(SEVERITY_ERROR)),
            ("code", Json::str(obligation.code.as_str())),
            ("source", Json::str("commcsl")),
            ("message", Json::str(message)),
        ]));
    }
    for hint in &report.hints {
        let (line, col) = span_position(hint.span);
        diagnostics.push(Json::obj([
            ("range", range_json(line, col)),
            ("severity", Json::Num(hint_severity(hint))),
            ("code", Json::str(hint.code.as_str())),
            ("source", Json::str("commcsl")),
            ("message", Json::str(&hint.message)),
        ]));
    }
    diagnostics
}

/// Hints render as LSP `Hint`; any future warning-severity lint in
/// `report.hints` would keep its weight as `Error`-adjacent `Warning`.
fn hint_severity(hint: &Lint) -> f64 {
    match hint.severity {
        Severity::Warning => 2.0,
        Severity::Note => SEVERITY_HINT,
    }
}

/// A `$/progress` notification for one workspace event, if the event
/// maps to one.
fn progress_json(token: &str, uri: &str, event: &WorkspaceEvent<'_>) -> Option<Json> {
    let value = match event {
        WorkspaceEvent::Started { revision, .. } => Json::obj([
            ("kind", Json::str("begin")),
            ("title", Json::str(format!("commcsl: verifying {uri}"))),
            ("message", Json::str(format!("revision {revision}"))),
        ]),
        WorkspaceEvent::Obligation {
            index,
            result,
            verdict,
            ..
        } => Json::obj([
            ("kind", Json::str("report")),
            (
                "message",
                Json::str(format!(
                    "#{} {} — {}{}",
                    index + 1,
                    result.code.as_str(),
                    if result.status == ObligationStatus::Proved {
                        "proved"
                    } else {
                        "failed"
                    },
                    if *verdict == commcsl_verifier::obligation::ObligationVerdict::Reused {
                        " (reused)"
                    } else {
                        ""
                    },
                )),
            ),
        ]),
        WorkspaceEvent::Finished { outcome } => Json::obj([
            ("kind", Json::str("end")),
            (
                "message",
                Json::str(format!(
                    "{}: {}/{} obligations proved, {} reused",
                    if outcome.report.verified() {
                        "verified"
                    } else {
                        "rejected"
                    },
                    outcome.report.proved_count(),
                    outcome.report.obligations.len(),
                    outcome.obligations.reused,
                )),
            ),
        ]),
    };
    Some(notification(
        "$/progress",
        Json::obj([("token", Json::str(token)), ("value", value)]),
    ))
}

/// Renders one obligation as a hover section.
fn hover_obligation(obligation: &ObligationResult, minimized: bool) -> String {
    let mut text = format!(
        "**{}** — {}\n\n`{}`",
        obligation.code.as_str(),
        match obligation.status {
            ObligationStatus::Proved => "✓ proved",
            ObligationStatus::Failed(_) => "✗ failed",
        },
        obligation.description,
    );
    if let ObligationStatus::Failed(failure) = &obligation.status {
        text.push_str(&format!("\n\n{}", failure.reason));
        if let Some(cex) = &failure.counterexample {
            text.push_str(if minimized {
                "\n\ncounterexample (minimized):\n"
            } else {
                "\n\ncounterexample:\n"
            });
            text.push_str("\n| variable | execution 1 | execution 2 |\n|---|---|---|");
            for b in &cex.bindings {
                text.push_str(&format!("\n| `{}` | {} | {} |", b.var, b.exec1, b.exec2));
            }
        }
    }
    if let Some(core) = &obligation.core {
        if core.is_empty() {
            text.push_str("\n\nproof core: empty — no path fact was needed");
        } else {
            let sites: Vec<String> = core
                .iter()
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
                .collect();
            text.push_str(&format!(
                "\n\nproof core: {} fact site(s): {}",
                core.len(),
                sites.join(", ")
            ));
        }
    }
    text
}

/// A hover response value: markdown contents plus, when the span is
/// known, the one-character range it anchors to.
fn hover_result(markdown: String, span: Option<SourceSpan>) -> Json {
    let mut fields = vec![(
        "contents".to_owned(),
        Json::obj([("kind", Json::str("markdown")), ("value", Json::str(markdown))]),
    )];
    if let Some(span) = span {
        let (line, col) = span_position(Some(span));
        fields.push(("range".to_owned(), range_json(line, col)));
    }
    Json::Obj(fields)
}

/// A one-character LSP range at a 0-based position.
fn range_json(line: u32, character: u32) -> Json {
    let position = |character: u32| {
        Json::obj([
            ("line", Json::Num(f64::from(line))),
            ("character", Json::Num(f64::from(character))),
        ])
    };
    Json::obj([
        ("start", position(character)),
        ("end", position(character + 1)),
    ])
}

/// 0-based position of a 1-based span (origin for missing spans).
fn span_position(span: Option<SourceSpan>) -> (u32, u32) {
    span.map_or((0, 0), |s| (s.line.saturating_sub(1), s.col.saturating_sub(1)))
}

/// Extracts the 0-based position from a compiler message's conventional
/// `line:col:` prefix; falls back to the origin.
fn compile_error_position(message: &str) -> (u32, u32) {
    let mut parts = message.splitn(3, ':');
    let (Some(line), Some(col), Some(_rest)) = (parts.next(), parts.next(), parts.next()) else {
        return (0, 0);
    };
    match (line.trim().parse::<u32>(), col.trim().parse::<u32>()) {
        (Ok(line), Ok(col)) => (line.saturating_sub(1), col.saturating_sub(1)),
        _ => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commcsl_pure::{Sort, Term};
    use commcsl_verifier::program::{AnnotatedProgram, VStmt};
    use std::io::Cursor;

    /// `ok NAME` verifies, `leak NAME` is rejected (with spans attached
    /// as if `output` sat on line 2), anything else is a compile error.
    fn toy_compiler() -> CompileFn {
        Box::new(|source: &str| {
            let mut words = source.split_whitespace();
            let kind = words.next().unwrap_or_default();
            let name = words.next().unwrap_or("anon").to_owned();
            match kind {
                "ok" => Ok(AnnotatedProgram::new(name)
                    .with_body([
                        VStmt::input("x", Sort::Int, true),
                        VStmt::Output(Term::var("x")),
                    ])
                    .with_span(vec![0], SourceSpan::new(1, 1))
                    .with_span(vec![1], SourceSpan::new(2, 1))),
                "leak" => Ok(AnnotatedProgram::new(name)
                    .with_body([
                        VStmt::input("h", Sort::Int, false),
                        VStmt::Output(Term::var("h")),
                    ])
                    .with_span(vec![0], SourceSpan::new(1, 1))
                    .with_span(vec![1], SourceSpan::new(2, 1))),
                other => Err(format!("3:7: unknown directive `{other}`")),
            }
        })
    }

    fn server() -> LspServer {
        LspServer::new(WorkspaceConfig::default(), toy_compiler())
    }

    fn request(id: u32, method: &str, params: Json) -> String {
        Json::obj([
            ("jsonrpc", Json::str("2.0")),
            ("id", Json::Num(f64::from(id))),
            ("method", Json::str(method)),
            ("params", params),
        ])
        .to_string()
    }

    fn notify(method: &str, params: Json) -> String {
        Json::obj([
            ("jsonrpc", Json::str("2.0")),
            ("method", Json::str(method)),
            ("params", params),
        ])
        .to_string()
    }

    fn did_open(uri: &str, text: &str) -> String {
        notify(
            "textDocument/didOpen",
            Json::obj([(
                "textDocument",
                Json::obj([
                    ("uri", Json::str(uri)),
                    ("languageId", Json::str("commcsl")),
                    ("version", Json::Num(1.0)),
                    ("text", Json::str(text)),
                ]),
            )]),
        )
    }

    fn initialize(server: &mut LspServer) {
        let out = server.handle_text(&request(1, "initialize", Json::obj([])));
        assert_eq!(out.len(), 1);
        let caps = out[0].get("result").and_then(|r| r.get("capabilities")).unwrap();
        assert_eq!(caps.get("hoverProvider").and_then(Json::as_bool), Some(true));
        assert_eq!(
            caps.get("textDocumentSync")
                .and_then(|s| s.get("change"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn requests_before_initialize_are_rejected() {
        let mut server = server();
        let out = server.handle_text(&request(1, "shutdown", Json::Null));
        assert_eq!(
            out[0].get("error").and_then(|e| e.get("code")).and_then(Json::as_num),
            Some(SERVER_NOT_INITIALIZED as f64)
        );
        // Notifications other than exit are silently dropped.
        assert!(server.handle_text(&did_open("file:///a.csl", "ok a")).is_empty());
        assert!(!server.exited());
    }

    #[test]
    fn open_edit_close_lifecycle_publishes_diagnostics() {
        let mut server = server();
        initialize(&mut server);

        // A rejected document: progress stream then one error diagnostic.
        let out = server.handle_text(&did_open("file:///a.csl", "leak a"));
        let last = out.last().unwrap();
        assert_eq!(
            last.get("method").and_then(Json::as_str),
            Some("textDocument/publishDiagnostics")
        );
        let params = last.get("params").unwrap();
        assert_eq!(
            params.get("uri").and_then(Json::as_str),
            Some("file:///a.csl")
        );
        let diags = params.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("low-output"));
        assert_eq!(diags[0].get("severity").and_then(Json::as_num), Some(1.0));
        // The leak's output sits on (1-based) line 2 col 1 → 0-based 1:0.
        let start = diags[0].get("range").and_then(|r| r.get("start")).unwrap();
        assert_eq!(start.get("line").and_then(Json::as_u64), Some(1));
        assert_eq!(start.get("character").and_then(Json::as_u64), Some(0));
        let message = diags[0].get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("counterexample"), "{message}");

        // Progress: begin, one report per obligation, end.
        let progress: Vec<&Json> = out
            .iter()
            .filter(|m| m.get("method").and_then(Json::as_str) == Some("$/progress"))
            .collect();
        assert!(progress.len() >= 3, "{out:?}");
        let kind = |m: &Json| {
            m.get("params")
                .and_then(|p| p.get("value"))
                .and_then(|v| v.get("kind"))
                .and_then(Json::as_str)
                .unwrap()
                .to_owned()
        };
        assert_eq!(kind(progress[0]), "begin");
        assert_eq!(kind(progress[progress.len() - 1]), "end");

        // The edit fixes the leak: diagnostics clear.
        let out = server.handle_text(&notify(
            "textDocument/didChange",
            Json::obj([
                (
                    "textDocument",
                    Json::obj([
                        ("uri", Json::str("file:///a.csl")),
                        ("version", Json::Num(2.0)),
                    ]),
                ),
                (
                    "contentChanges",
                    Json::Arr(vec![Json::obj([("text", Json::str("ok a2"))])]),
                ),
            ]),
        ));
        let diags = out
            .last()
            .unwrap()
            .get("params")
            .and_then(|p| p.get("diagnostics"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(diags.is_empty(), "{diags:?}");

        // Close clears diagnostics and the workspace document.
        let out = server.handle_text(&notify(
            "textDocument/didClose",
            Json::obj([(
                "textDocument",
                Json::obj([("uri", Json::str("file:///a.csl"))]),
            )]),
        ));
        assert_eq!(out.len(), 1);
        assert!(server.workspace().open_documents().next().is_none());
    }

    #[test]
    fn compile_errors_become_positioned_diagnostics_and_hover() {
        let mut server = server();
        initialize(&mut server);
        let out = server.handle_text(&did_open("file:///bad.csl", "nonsense"));
        assert_eq!(out.len(), 1, "no progress for uncompiled documents");
        let diags = out[0]
            .get("params")
            .and_then(|p| p.get("diagnostics"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("parse-error"));
        let start = diags[0].get("range").and_then(|r| r.get("start")).unwrap();
        // `3:7:` prefix → 0-based 2:6.
        assert_eq!(start.get("line").and_then(Json::as_u64), Some(2));
        assert_eq!(start.get("character").and_then(Json::as_u64), Some(6));

        let hover = server.handle_text(&request(
            2,
            "textDocument/hover",
            Json::obj([
                (
                    "textDocument",
                    Json::obj([("uri", Json::str("file:///bad.csl"))]),
                ),
                (
                    "position",
                    Json::obj([("line", Json::Num(2.0)), ("character", Json::Num(0.0))]),
                ),
            ]),
        ));
        let value = hover[0]
            .get("result")
            .and_then(|r| r.get("contents"))
            .and_then(|c| c.get("value"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(value.contains("compile error"), "{value}");
    }

    #[test]
    fn hover_reports_obligation_status_and_counterexample() {
        let mut server = server();
        initialize(&mut server);
        let _ = server.handle_text(&did_open("file:///a.csl", "leak a"));
        let hover_at = |server: &mut LspServer, line: f64| {
            let out = server.handle_text(&request(
                9,
                "textDocument/hover",
                Json::obj([
                    (
                        "textDocument",
                        Json::obj([("uri", Json::str("file:///a.csl"))]),
                    ),
                    (
                        "position",
                        Json::obj([("line", Json::Num(line)), ("character", Json::Num(0.0))]),
                    ),
                ]),
            ));
            out[0].get("result").cloned().unwrap()
        };
        // Line 2 (0-based 1) carries the failed output obligation.
        let result = hover_at(&mut server, 1.0);
        let value = result
            .get("contents")
            .and_then(|c| c.get("value"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(value.contains("low-output"), "{value}");
        assert!(value.contains("✗ failed"), "{value}");
        assert!(value.contains("| variable | execution 1 | execution 2 |"), "{value}");
        assert!(result.get("range").is_some());
        // A line with no obligations answers null.
        assert_eq!(hover_at(&mut server, 7.0), Json::Null);
    }

    #[test]
    fn full_framed_session_over_stdio_shuts_down_cleanly() {
        let mut input = Vec::new();
        for body in [
            request(1, "initialize", Json::obj([])),
            notify("initialized", Json::obj([])),
            did_open("file:///a.csl", "ok a"),
            request(2, "shutdown", Json::Null),
            notify("exit", Json::Null),
        ] {
            rpc::write_frame(&mut input, &Json::parse(&body).unwrap()).unwrap();
        }
        let mut server = server();
        let mut reader = Cursor::new(input);
        let mut output = Vec::new();
        let code = server.run(&mut reader, &mut output).unwrap();
        assert_eq!(code, 0);

        // Every outgoing frame parses; the session contains the two
        // responses and a publishDiagnostics.
        let mut bodies = Vec::new();
        let mut out_reader = Cursor::new(output);
        while let Some(body) = rpc::read_frame(&mut out_reader).unwrap() {
            bodies.push(body);
        }
        assert!(bodies.iter().any(|b| b.contains("publishDiagnostics")), "{bodies:?}");
        assert!(bodies.first().unwrap().contains("\"serverInfo\""));
        assert!(bodies.last().unwrap().contains("\"result\":null"));
    }

    #[test]
    fn exit_without_shutdown_is_an_unclean_exit() {
        let mut input = Vec::new();
        for body in [request(1, "initialize", Json::obj([])), notify("exit", Json::Null)] {
            rpc::write_frame(&mut input, &Json::parse(&body).unwrap()).unwrap();
        }
        let mut server = server();
        let mut output = Vec::new();
        let code = server.run(&mut Cursor::new(input), &mut output).unwrap();
        assert_eq!(code, 1);
    }

    #[test]
    fn minimized_counterexamples_and_hints_surface_in_hover() {
        let config = WorkspaceConfig {
            verifier: commcsl_verifier::report::VerifierConfig {
                minimize_counterexamples: true,
                proof_cores: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut server = LspServer::new(config, toy_compiler());
        initialize(&mut server);
        let _ = server.handle_text(&did_open("file:///a.csl", "leak a"));
        let out = server.handle_text(&request(
            3,
            "textDocument/hover",
            Json::obj([
                (
                    "textDocument",
                    Json::obj([("uri", Json::str("file:///a.csl"))]),
                ),
                (
                    "position",
                    Json::obj([("line", Json::Num(1.0)), ("character", Json::Num(0.0))]),
                ),
            ]),
        ));
        let value = out[0]
            .get("result")
            .and_then(|r| r.get("contents"))
            .and_then(|c| c.get("value"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(value.contains("counterexample (minimized)"), "{value}");
    }
}
