//! The newline-delimited JSON protocol of the verification daemon.
//!
//! One request per line, responses in request order — no framing beyond
//! `\n`, so a session can be driven by a Unix-socket client, a stdio
//! child process, or `nc -U`.
//!
//! # Protocol v1 (wire-compatible, one response line per request)
//!
//! ```json
//! {"op":"verify","name":"examples/x.csl","source":"program x; ..."}
//! {"op":"verify_batch","items":[{"name":"a","source":"..."}, ...],"fail_fast":true}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! (`fail_fast` is optional and defaults to `false`: the server stops
//! dispatching batch items after the first failing verdict and answers
//! the rest with `"skipped":true` placeholders.)
//!
//! Responses always carry `"ok"`. A `verify` response embeds the
//! [`VerifierReport`] in exactly the JSON shape of
//! [`VerifierReport::to_json`] — including each obligation's stable
//! diagnostic `code`, optional source `span`, and per-execution
//! `counterexample` — plus the content-address `key`, the `cached` flag,
//! and the server-side `time_ms`:
//!
//! ```json
//! {"ok":true,"cached":false,"key":"6c62…","time_ms":1.25,"report":{…}}
//! {"ok":false,"error":"3:7: unknown resource `ctr`"}
//! ```
//!
//! `verify_batch` responds `{"ok":true,"results":[…]}` with one
//! `verify`-shaped object per item, in input order (a compile failure
//! occupies its slot as an `"ok":false` object; the batch itself still
//! succeeds). `status` reports cache counters; `shutdown` acknowledges
//! with `{"ok":true,"shutting_down":true}` before the daemon exits.
//!
//! # Protocol v2 (workspace sessions, streaming events)
//!
//! v2 adds **session-scoped** operations backed by a
//! [`Workspace`](commcsl_verifier::workspace::Workspace) per connection
//! (documents opened on one connection are invisible to others, but all
//! sessions share the daemon's verdict/obligation cache):
//!
//! ```json
//! {"op":"hello","protocol":2}
//! {"op":"subscribe","events":true}
//! {"op":"open","doc":"a.csl","source":"program a; ..."}
//! {"op":"update","doc":"a.csl","source":"program a; ..."}
//! {"op":"close","doc":"a.csl"}
//! {"op":"metrics"}
//! ```
//!
//! `hello` negotiates the protocol version: the server answers
//! `{"ok":true,"protocol":min(PROTOCOL_VERSION, requested),…}` and pins
//! the session to it (a session negotiated down to v1 refuses v2 ops).
//! `open`/`update` verify the document incrementally and respond
//!
//! ```json
//! {"ok":true,"doc":"a.csl","revision":2,"cached":false,"key":"…",
//!  "time_ms":0.8,"obligations":12,"reused":11,"checked":1,"report":{…}}
//! ```
//!
//! With `subscribe` on, the response is *streamed*: event lines (no
//! `"ok"` key) precede the final response line (which carries
//! `"event":"report"` plus the fields above) —
//!
//! ```json
//! {"event":"started","doc":"a.csl","revision":2,"key":"…"}
//! {"event":"obligation_done","doc":"a.csl","index":0,"description":"…",
//!  "code":"low-output","proved":true,"reused":true}
//! {"event":"report","ok":true,"doc":"a.csl",…,"report":{…}}
//! ```
//!
//! v2 also speaks `lint`: stateless like `verify` (no open document
//! needed), but streamed like `open` when the session is subscribed —
//! one `{"event":"lint",…}` line per finding, then the final response:
//!
//! ```json
//! {"op":"lint","name":"a.csl","source":"program a; ..."}
//! {"event":"lint","name":"a.csl","code":"unused-var","severity":"note",
//!  "span":"3:4","message":"variable `y` is bound but never read"}
//! {"ok":true,"name":"a.csl","count":2,"warnings":1,"lints":[…]}
//! ```
//!
//! v2 also speaks `metrics`: the daemon's cumulative telemetry counters
//! as one flat [`MetricsSnapshot`]-shaped object, named by the same
//! dotted taxonomy the in-process profiler uses (`daemon.*`, `cache.*`,
//! `obligations.*`):
//!
//! ```json
//! {"ok":true,"counters":{"cache.misses":3,"daemon.requests":17,…}}
//! ```
//!
//! A reader is v1/v2-agnostic: consume lines until one carries `"ok"`.

use std::time::Duration;

use commcsl_analysis::lint::{Lint, Severity};
use commcsl_telemetry::{EventRecord, Histogram, MetricsSnapshot};
use commcsl_verifier::hash::ProgramHash;
use commcsl_verifier::obligation::ObligationVerdict;
use commcsl_verifier::report::{ObligationResult, VerifierReport};

use crate::json::Json;

/// The newest protocol version this build speaks. Sessions negotiate
/// down (never up) via the `hello` request.
pub const PROTOCOL_VERSION: u32 = 2;

/// The largest message, in bytes, that a daemon request line (newline
/// excluded) or an LSP frame body may hold. Real messages are far
/// smaller: the largest report is ~50 KB. The bound keeps a bogus length
/// or an endless line from exhausting memory.
pub const MAX_MESSAGE_BYTES: usize = 16 << 20;

/// One verification job: a display name (usually the file path) and the
/// `.csl` source text. The *server* compiles — the cache key is the
/// lowered program (including its statement span table: reports embed
/// source positions, so an edit that moves statements is a different
/// address even when the structure is unchanged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyItem {
    /// Display name, echoed in reports and logs.
    pub name: String,
    /// `.csl` source text.
    pub source: String,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Verify one program.
    Verify(VerifyItem),
    /// Verify a batch of programs (served concurrently server-side).
    VerifyBatch {
        /// The jobs, answered in input order.
        items: Vec<VerifyItem>,
        /// Stop dispatching after the first failing program; skipped
        /// slots answer with `"skipped":true` placeholders.
        fail_fast: bool,
    },
    /// Report daemon and cache statistics.
    Status,
    /// Acknowledge, then stop accepting connections and exit.
    Shutdown,
    /// Negotiate the protocol version for this session (v2).
    Hello {
        /// Highest version the client speaks.
        protocol: u32,
    },
    /// Toggle streaming events for this session's `open`/`update` (v2).
    Subscribe {
        /// `true` to stream `started`/`obligation_done` events.
        events: bool,
    },
    /// Open (or reopen) a workspace document and verify it (v2).
    Open {
        /// Session-unique document id (conventionally the file path).
        doc: String,
        /// `.csl` source text.
        source: String,
    },
    /// Re-verify an open document after an edit (v2).
    Update {
        /// Document id.
        doc: String,
        /// The edited `.csl` source text.
        source: String,
    },
    /// Close a workspace document (v2).
    Close {
        /// Document id.
        doc: String,
    },
    /// Lint one program without verifying it (v2). Stateless: no open
    /// document is needed or created.
    Lint(VerifyItem),
    /// Report the daemon's cumulative telemetry counters (v2).
    Metrics,
    /// Report the daemon's per-op latency histograms (v2).
    Histograms,
    /// Read the daemon's event log (v2), optionally only records with a
    /// sequence number greater than `since` (a resume cursor).
    Logs {
        /// Return only records with `seq > since`; `None` = everything
        /// retained.
        since: Option<u64>,
    },
    /// Fetch one content-addressed cache entry (v2). The daemon answers
    /// from its local tiers only — never from its own chained remote —
    /// with the raw self-validating entry text (the on-disk file format,
    /// versioned by the hash format version), or a miss.
    CacheGet {
        /// Which tier the key addresses.
        tier: CacheTier,
        /// The content address, 32 lowercase hex digits.
        key: String,
    },
    /// Publish one content-addressed cache entry (v2). The daemon
    /// validates the entry against the key and its own hash format
    /// version before admitting it; mismatches are refused
    /// (`"stored":false`), never stored.
    CachePut {
        /// Which tier the key addresses.
        tier: CacheTier,
        /// The content address, 32 lowercase hex digits.
        key: String,
        /// The raw self-validating entry text.
        entry: String,
    },
}

/// The cache tier a `cache_get`/`cache_put` request addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Per-obligation statuses keyed by dependency-cone hash
    /// ([`commcsl_verifier::obligation::ObligationKey`]).
    Obligation,
    /// Whole-program verdicts keyed by [`ProgramHash`].
    Verdict,
}

impl CacheTier {
    /// The wire name of this tier.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTier::Obligation => "obligation",
            CacheTier::Verdict => "verdict",
        }
    }
}

impl std::str::FromStr for CacheTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "obligation" => Ok(CacheTier::Obligation),
            "verdict" => Ok(CacheTier::Verdict),
            other => Err(format!(
                "unknown cache tier `{other}` (expected `obligation` or `verdict`)"
            )),
        }
    }
}

impl Request {
    /// The wire name of this request's `op` field. Also the value of the
    /// daemon's `daemon.request` tracing span.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Verify(_) => "verify",
            Request::VerifyBatch { .. } => "verify_batch",
            Request::Status => "status",
            Request::Shutdown => "shutdown",
            Request::Hello { .. } => "hello",
            Request::Subscribe { .. } => "subscribe",
            Request::Open { .. } => "open",
            Request::Update { .. } => "update",
            Request::Close { .. } => "close",
            Request::Lint(_) => "lint",
            Request::Metrics => "metrics",
            Request::Histograms => "histograms",
            Request::Logs { .. } => "logs",
            Request::CacheGet { .. } => "cache_get",
            Request::CachePut { .. } => "cache_put",
        }
    }

    /// The oldest protocol version that speaks this op. A session that
    /// negotiated an older version refuses the op with an error.
    pub fn min_protocol(&self) -> u32 {
        match self {
            Request::Verify(_)
            | Request::VerifyBatch { .. }
            | Request::Status
            | Request::Shutdown
            | Request::Hello { .. } => 1,
            _ => 2,
        }
    }

    /// Renders the request as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        self.encode_value().to_string()
    }

    /// Renders the request as one protocol line carrying a
    /// client-supplied `request_id` (echoed by the daemon in every
    /// response and streamed event this request causes).
    pub fn encode_with_request_id(&self, request_id: &str) -> String {
        let mut doc = self.encode_value();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("request_id".to_owned(), Json::str(request_id)));
        }
        doc.to_string()
    }

    /// The request as a JSON document (without a `request_id`).
    fn encode_value(&self) -> Json {
        let item_json = |item: &VerifyItem| {
            Json::obj([
                ("name", Json::str(&item.name)),
                ("source", Json::str(&item.source)),
            ])
        };
        let doc = match self {
            Request::Verify(item) => Json::obj([
                ("op", Json::str("verify")),
                ("name", Json::str(&item.name)),
                ("source", Json::str(&item.source)),
            ]),
            Request::VerifyBatch { items, fail_fast } => {
                let mut fields = vec![
                    ("op".to_owned(), Json::str("verify_batch")),
                    (
                        "items".to_owned(),
                        Json::Arr(items.iter().map(item_json).collect()),
                    ),
                ];
                if *fail_fast {
                    fields.push(("fail_fast".to_owned(), Json::Bool(true)));
                }
                Json::Obj(fields)
            }
            Request::Status => Json::obj([("op", Json::str("status"))]),
            Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
            Request::Hello { protocol } => Json::obj([
                ("op", Json::str("hello")),
                ("protocol", Json::Num(f64::from(*protocol))),
            ]),
            Request::Subscribe { events } => Json::obj([
                ("op", Json::str("subscribe")),
                ("events", Json::Bool(*events)),
            ]),
            Request::Open { doc, source } => Json::obj([
                ("op", Json::str("open")),
                ("doc", Json::str(doc)),
                ("source", Json::str(source)),
            ]),
            Request::Update { doc, source } => Json::obj([
                ("op", Json::str("update")),
                ("doc", Json::str(doc)),
                ("source", Json::str(source)),
            ]),
            Request::Close { doc } => Json::obj([
                ("op", Json::str("close")),
                ("doc", Json::str(doc)),
            ]),
            Request::Lint(item) => Json::obj([
                ("op", Json::str("lint")),
                ("name", Json::str(&item.name)),
                ("source", Json::str(&item.source)),
            ]),
            Request::Metrics => Json::obj([("op", Json::str("metrics"))]),
            Request::Histograms => Json::obj([("op", Json::str("histograms"))]),
            Request::Logs { since } => {
                let mut fields = vec![("op".to_owned(), Json::str("logs"))];
                if let Some(since) = since {
                    fields.push(("since".to_owned(), Json::Num(*since as f64)));
                }
                Json::Obj(fields)
            }
            Request::CacheGet { tier, key } => Json::obj([
                ("op", Json::str("cache_get")),
                ("tier", Json::str(tier.as_str())),
                ("key", Json::str(key)),
            ]),
            Request::CachePut { tier, key, entry } => Json::obj([
                ("op", Json::str("cache_put")),
                ("tier", Json::str(tier.as_str())),
                ("key", Json::str(key)),
                ("entry", Json::str(entry)),
            ]),
        };
        doc
    }

    /// Parses one protocol line.
    pub fn decode(line: &str) -> Result<Request, String> {
        Self::decode_value(&Json::parse(line)?)
    }

    /// Parses one protocol line, also extracting the optional
    /// client-supplied `request_id` field (ignored by [`Self::decode`]).
    pub fn decode_with_request_id(line: &str) -> Result<(Request, Option<String>), String> {
        let doc = Json::parse(line)?;
        let request_id = doc
            .get("request_id")
            .and_then(Json::as_str)
            .map(str::to_owned);
        Ok((Self::decode_value(&doc)?, request_id))
    }

    /// Parses a request from an already-parsed JSON document.
    fn decode_value(doc: &Json) -> Result<Request, String> {
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string `op` field")?;
        match op {
            "verify" => Ok(Request::Verify(VerifyItem {
                name: doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("verify needs `name`")?
                    .to_owned(),
                source: doc
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or("verify needs `source`")?
                    .to_owned(),
            })),
            "verify_batch" => {
                let items = doc
                    .get("items")
                    .and_then(Json::as_arr)
                    .ok_or("verify_batch needs an `items` array")?;
                let fail_fast = doc
                    .get("fail_fast")
                    .map(|v| v.as_bool().ok_or("`fail_fast` must be a boolean"))
                    .transpose()?
                    .unwrap_or(false);
                items
                    .iter()
                    .map(|item| {
                        Ok(VerifyItem {
                            name: item
                                .get("name")
                                .and_then(Json::as_str)
                                .ok_or("batch item needs `name`")?
                                .to_owned(),
                            source: item
                                .get("source")
                                .and_then(Json::as_str)
                                .ok_or("batch item needs `source`")?
                                .to_owned(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()
                    .map(|items| Request::VerifyBatch { items, fail_fast })
            }
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "hello" => {
                let protocol = doc
                    .get("protocol")
                    .and_then(Json::as_u64)
                    .ok_or("hello needs a numeric `protocol`")?;
                u32::try_from(protocol)
                    .map(|protocol| Request::Hello { protocol })
                    .map_err(|_| "`protocol` out of range".to_owned())
            }
            "subscribe" => Ok(Request::Subscribe {
                events: doc
                    .get("events")
                    .and_then(Json::as_bool)
                    .ok_or("subscribe needs a boolean `events`")?,
            }),
            "open" | "update" => {
                let field = |key: &str| {
                    doc.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or(format!("{op} needs `{key}`"))
                };
                let (doc_id, source) = (field("doc")?, field("source")?);
                Ok(if op == "open" {
                    Request::Open { doc: doc_id, source }
                } else {
                    Request::Update { doc: doc_id, source }
                })
            }
            "close" => Ok(Request::Close {
                doc: doc
                    .get("doc")
                    .and_then(Json::as_str)
                    .ok_or("close needs `doc`")?
                    .to_owned(),
            }),
            "metrics" => Ok(Request::Metrics),
            "histograms" => Ok(Request::Histograms),
            "logs" => {
                let since = doc
                    .get("since")
                    .map(|v| v.as_u64().ok_or("`since` must be a non-negative integer"))
                    .transpose()?;
                Ok(Request::Logs { since })
            }
            "cache_get" | "cache_put" => {
                let field = |key: &str| {
                    doc.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or(format!("{op} needs `{key}`"))
                };
                let tier = field("tier")?.parse::<CacheTier>()?;
                let key = field("key")?;
                Ok(if op == "cache_get" {
                    Request::CacheGet { tier, key }
                } else {
                    Request::CachePut {
                        tier,
                        key,
                        entry: field("entry")?,
                    }
                })
            }
            "lint" => Ok(Request::Lint(VerifyItem {
                name: doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("lint needs `name`")?
                    .to_owned(),
                source: doc
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or("lint needs `source`")?
                    .to_owned(),
            })),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

// -------------------------------------------------------------- responses

/// A successful `verify` outcome.
#[derive(Debug, Clone)]
pub struct VerifyOk {
    /// Whether the verdict came from the cache.
    pub cached: bool,
    /// The content address of the job.
    pub key: ProgramHash,
    /// Server-side wall-clock milliseconds for this job.
    pub time_ms: f64,
    /// `true` when fail-fast stopped the batch before this job ran; the
    /// report is then a placeholder, not a verdict.
    pub skipped: bool,
    /// The verdict, identical to in-process verification (a placeholder
    /// when `skipped`).
    pub report: VerifierReport,
}

/// One `verify` response: a verdict, or a compile (parse/lower) error.
pub type VerifyOutcome = Result<VerifyOk, String>;

/// Renders a `verify`(-slot) response.
pub fn verify_response_json(outcome: &VerifyOutcome) -> Json {
    match outcome {
        Ok(ok) => {
            let mut fields = vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("cached".to_owned(), Json::Bool(ok.cached)),
                ("key".to_owned(), Json::str(ok.key.to_string())),
                ("time_ms".to_owned(), Json::Num(ok.time_ms)),
            ];
            if ok.skipped {
                fields.push(("skipped".to_owned(), Json::Bool(true)));
            }
            fields.push(("report".to_owned(), Json::from(&ok.report)));
            Json::Obj(fields)
        }
        Err(error) => error_json(error),
    }
}

/// Parses a `verify`(-slot) response.
pub fn verify_outcome_from_json(doc: &Json) -> Result<VerifyOutcome, String> {
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(Ok(VerifyOk {
            cached: doc
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or("verify response needs `cached`")?,
            key: doc
                .get("key")
                .and_then(Json::as_str)
                .ok_or("verify response needs `key`")?
                .parse()?,
            time_ms: doc
                .get("time_ms")
                .and_then(Json::as_num)
                .ok_or("verify response needs `time_ms`")?,
            skipped: doc
                .get("skipped")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            report: VerifierReport::from_json(
                doc.get("report").ok_or("verify response needs `report`")?,
            )?,
        })),
        Some(false) => Ok(Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error")
            .to_owned())),
        None => Err("response needs a boolean `ok`".into()),
    }
}

/// A generic `{"ok":false,"error":…}` response document.
pub fn error_json(message: &str) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message))])
}

// ------------------------------------------------- cache responses (v2)

/// Renders a `cache_get` response: the raw self-validating entry text on
/// a hit, a plain miss otherwise. `format_version` names the daemon's
/// hash format so a mismatched client can explain its misses.
pub fn cache_get_response_json(
    tier: CacheTier,
    key: &str,
    format_version: u32,
    entry: Option<&str>,
) -> Json {
    let mut fields = vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("tier".to_owned(), Json::str(tier.as_str())),
        ("key".to_owned(), Json::str(key)),
        (
            "format_version".to_owned(),
            Json::Num(f64::from(format_version)),
        ),
        ("hit".to_owned(), Json::Bool(entry.is_some())),
    ];
    if let Some(entry) = entry {
        fields.push(("entry".to_owned(), Json::str(entry)));
    }
    Json::Obj(fields)
}

/// Parses a `cache_get` response: `Ok(Some(entry))` on a hit, `Ok(None)`
/// on a miss, `Err` on a protocol failure.
pub fn cache_get_from_json(doc: &Json) -> Result<Option<String>, String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("cache_get request failed")
            .to_owned());
    }
    match doc.get("hit").and_then(Json::as_bool) {
        Some(true) => doc
            .get("entry")
            .and_then(Json::as_str)
            .map(|e| Some(e.to_owned()))
            .ok_or_else(|| "cache_get hit needs `entry`".to_owned()),
        Some(false) => Ok(None),
        None => Err("cache_get response needs a boolean `hit`".into()),
    }
}

/// Renders a `cache_put` response. `stored` is `false` when the daemon
/// refused the entry (version/key/format mismatch) — refusal is not an
/// error, it is the never-stale rule doing its job.
pub fn cache_put_response_json(tier: CacheTier, key: &str, stored: bool) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("tier", Json::str(tier.as_str())),
        ("key", Json::str(key)),
        ("stored", Json::Bool(stored)),
    ])
}

/// Parses a `cache_put` response into its `stored` flag.
pub fn cache_put_from_json(doc: &Json) -> Result<bool, String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("cache_put request failed")
            .to_owned());
    }
    doc.get("stored")
        .and_then(Json::as_bool)
        .ok_or_else(|| "cache_put response needs a boolean `stored`".into())
}

// ---------------------------------------------------------- request ids

/// Returns `doc` with `request_id` **appended as the last field**
/// (replacing any existing one). The daemon stamps every response and
/// streamed event this way, so correlation never perturbs the
/// leading bytes other framing pins rely on (`{"ok":…`, `{"event":…`)
/// and never touches nested documents such as embedded reports.
/// Non-object documents pass through unchanged.
pub fn with_request_id(doc: &Json, request_id: &str) -> Json {
    stamp_request_id(doc.clone(), request_id)
}

/// [`with_request_id`] on a document the caller gives up, so nothing is
/// copied.
pub(crate) fn stamp_request_id(doc: Json, request_id: &str) -> Json {
    match doc {
        Json::Obj(mut fields) => {
            fields.retain(|(name, _)| name != "request_id");
            fields.push(("request_id".to_owned(), Json::str(request_id)));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// The `request_id` a response or streamed event was stamped with.
pub fn request_id_of(doc: &Json) -> Option<&str> {
    doc.get("request_id").and_then(Json::as_str)
}

/// Daemon statistics, as reported by the `status` request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusInfo {
    /// Crate version of the daemon.
    pub version: String,
    /// [`commcsl_verifier::hash::HASH_FORMAT_VERSION`] of the daemon.
    pub format_version: u64,
    /// Newest protocol version the daemon speaks ([`PROTOCOL_VERSION`]).
    pub protocol_version: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: f64,
    /// Unix epoch milliseconds at which the daemon started (0 when the
    /// system clock was unreadable, or from daemons predating the
    /// field).
    pub started_at_unix_ms: u64,
    /// Protocol requests served (all ops).
    pub requests: u64,
    /// Requests served per op, sorted by op name (empty from daemons
    /// predating the field).
    pub ops: Vec<(String, u64)>,
    /// Programs verified or served from cache (batch items and workspace
    /// revisions count individually; compile failures do not count).
    pub programs: u64,
    /// Workspace documents currently open across all sessions.
    pub documents: u64,
    /// Lookups answered from the in-memory tier.
    pub memory_hits: u64,
    /// Lookups answered from the on-disk tier.
    pub disk_hits: u64,
    /// Lookups answered by neither tier (verified from scratch).
    pub misses: u64,
    /// In-memory LRU evictions.
    pub evictions: u64,
    /// Verdicts currently held in memory.
    pub memory_entries: u64,
    /// Obligation-tier lookups answered from cache.
    pub obligation_hits: u64,
    /// Obligation-tier lookups answered by neither tier.
    pub obligation_misses: u64,
    /// Obligations discharged by the static low-ness pre-pass (no solver
    /// query), in workspace `open`/`update`s and in verified
    /// `verify`/`verify_batch` misses.
    pub statically_proven: u64,
    /// Obligations discharged by the solver, counted like
    /// `statically_proven`.
    pub solver_checked: u64,
    /// Response bytes streamed to clients (newlines included) over the
    /// daemon's lifetime, all transports combined.
    pub bytes_streamed: u64,
    /// Worker threads for cache misses (0 = one per CPU).
    pub threads: u64,
    /// Listen transport (`"unix"` / `"tcp"`; empty when serving stdio or
    /// from daemons predating the cluster layer).
    pub transport: String,
    /// Listen address — socket path for `unix`, `host:port` for `tcp`
    /// (empty when unknown).
    pub addr: String,
    /// Verifier shards behind this endpoint (1 for a plain daemon; a
    /// pool reports its live shard count).
    pub shards: u64,
    /// Remote obligation-cache endpoint chained behind the local tiers
    /// (empty when none is configured).
    pub remote: String,
    /// Obligation lookups answered by the remote tier.
    pub remote_hits: u64,
    /// Obligation lookups the remote tier also missed.
    pub remote_misses: u64,
    /// Obligation entries published to the remote tier.
    pub remote_stores: u64,
    /// Per-shard counters (empty for a plain daemon).
    pub per_shard: Vec<ShardStatus>,
}

/// Per-shard counters inside a pooled `status` response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStatus {
    /// Shard index on the consistent-hash ring.
    pub shard: u64,
    /// Whether the shard is still accepting routed work.
    pub alive: bool,
    /// Workspace documents currently open on this shard.
    pub documents: u64,
    /// Programs this shard verified or served from cache.
    pub programs: u64,
    /// Obligation-tier hits on this shard.
    pub obligation_hits: u64,
    /// Obligation-tier misses on this shard.
    pub obligation_misses: u64,
}

impl ShardStatus {
    fn to_json(&self) -> Json {
        Json::obj([
            ("shard", Json::Num(self.shard as f64)),
            ("alive", Json::Bool(self.alive)),
            ("documents", Json::Num(self.documents as f64)),
            ("programs", Json::Num(self.programs as f64)),
            ("obligation_hits", Json::Num(self.obligation_hits as f64)),
            (
                "obligation_misses",
                Json::Num(self.obligation_misses as f64),
            ),
        ])
    }

    fn from_json(doc: &Json) -> ShardStatus {
        let num =
            |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or_default();
        ShardStatus {
            shard: num("shard"),
            alive: doc.get("alive").and_then(Json::as_bool).unwrap_or(true),
            documents: num("documents"),
            programs: num("programs"),
            obligation_hits: num("obligation_hits"),
            obligation_misses: num("obligation_misses"),
        }
    }
}

impl StatusInfo {
    /// Total cache hits.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Fraction of lookups served from cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits() + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    /// Renders the `status` response document. Cluster fields
    /// (`transport`, `addr`, `remote`, `per_shard`) are emitted only when
    /// set, so a plain daemon's status stays byte-identical to earlier
    /// releases modulo the always-present counters.
    pub fn to_json(&self) -> Json {
        let base = Json::obj([
            ("ok", Json::Bool(true)),
            ("version", Json::str(&self.version)),
            ("format_version", Json::Num(self.format_version as f64)),
            (
                "protocol_version",
                Json::Num(self.protocol_version as f64),
            ),
            ("uptime_ms", Json::Num(self.uptime_ms)),
            (
                "started_at_unix_ms",
                Json::Num(self.started_at_unix_ms as f64),
            ),
            ("requests", Json::Num(self.requests as f64)),
            (
                "ops",
                Json::Obj(
                    self.ops
                        .iter()
                        .map(|(op, n)| (op.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
            ("programs", Json::Num(self.programs as f64)),
            ("documents", Json::Num(self.documents as f64)),
            ("memory_hits", Json::Num(self.memory_hits as f64)),
            ("disk_hits", Json::Num(self.disk_hits as f64)),
            ("misses", Json::Num(self.misses as f64)),
            ("evictions", Json::Num(self.evictions as f64)),
            ("memory_entries", Json::Num(self.memory_entries as f64)),
            ("obligation_hits", Json::Num(self.obligation_hits as f64)),
            (
                "obligation_misses",
                Json::Num(self.obligation_misses as f64),
            ),
            (
                "statically_proven",
                Json::Num(self.statically_proven as f64),
            ),
            ("solver_checked", Json::Num(self.solver_checked as f64)),
            ("bytes_streamed", Json::Num(self.bytes_streamed as f64)),
            ("threads", Json::Num(self.threads as f64)),
        ]);
        let mut fields = match base {
            Json::Obj(fields) => fields,
            _ => unreachable!("Json::obj returns Json::Obj"),
        };
        if !self.transport.is_empty() {
            fields.push(("transport".to_owned(), Json::str(&self.transport)));
        }
        if !self.addr.is_empty() {
            fields.push(("addr".to_owned(), Json::str(&self.addr)));
        }
        fields.push(("shards".to_owned(), Json::Num(self.shards as f64)));
        if !self.remote.is_empty() {
            fields.push(("remote".to_owned(), Json::str(&self.remote)));
        }
        fields.push((
            "remote_hits".to_owned(),
            Json::Num(self.remote_hits as f64),
        ));
        fields.push((
            "remote_misses".to_owned(),
            Json::Num(self.remote_misses as f64),
        ));
        fields.push((
            "remote_stores".to_owned(),
            Json::Num(self.remote_stores as f64),
        ));
        if !self.per_shard.is_empty() {
            fields.push((
                "per_shard".to_owned(),
                Json::Arr(
                    self.per_shard.iter().map(ShardStatus::to_json).collect(),
                ),
            ));
        }
        fields.push(("hit_rate".to_owned(), Json::Num(self.hit_rate())));
        Json::Obj(fields)
    }

    /// Parses a `status` response document. Fields added by protocol v2
    /// (`protocol_version`, `documents`, `obligation_*`) and
    /// by the telemetry pass (`bytes_streamed`) default when absent, so a
    /// v2 client can still read an older daemon's status (and report its
    /// version mismatch cleanly).
    pub fn from_json(doc: &Json) -> Result<StatusInfo, String> {
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("status request failed")
                .to_owned());
        }
        let num =
            |key: &str| doc.get(key).and_then(Json::as_u64).ok_or_else(|| {
                format!("status response needs numeric `{key}`")
            });
        let opt_num =
            |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or_default();
        let opt_str = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned()
        };
        Ok(StatusInfo {
            version: doc
                .get("version")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            format_version: num("format_version")?,
            protocol_version: opt_num("protocol_version").max(1),
            uptime_ms: doc
                .get("uptime_ms")
                .and_then(Json::as_num)
                .unwrap_or_default(),
            started_at_unix_ms: opt_num("started_at_unix_ms"),
            requests: num("requests")?,
            ops: match doc.get("ops") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(op, n)| {
                        n.as_u64().map(|n| (op.clone(), n)).ok_or_else(|| {
                            format!("per-op count `{op}` must be a non-negative integer")
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                _ => Vec::new(),
            },
            programs: num("programs")?,
            documents: opt_num("documents"),
            memory_hits: num("memory_hits")?,
            disk_hits: num("disk_hits")?,
            misses: num("misses")?,
            evictions: num("evictions")?,
            memory_entries: num("memory_entries")?,
            obligation_hits: opt_num("obligation_hits"),
            obligation_misses: opt_num("obligation_misses"),
            statically_proven: opt_num("statically_proven"),
            solver_checked: opt_num("solver_checked"),
            bytes_streamed: opt_num("bytes_streamed"),
            threads: num("threads")?,
            transport: opt_str("transport"),
            addr: opt_str("addr"),
            shards: opt_num("shards").max(1),
            remote: opt_str("remote"),
            remote_hits: opt_num("remote_hits"),
            remote_misses: opt_num("remote_misses"),
            remote_stores: opt_num("remote_stores"),
            per_shard: match doc.get("per_shard") {
                Some(Json::Arr(items)) => {
                    items.iter().map(ShardStatus::from_json).collect()
                }
                _ => Vec::new(),
            },
        })
    }
}

// ------------------------------------------------------ metrics responses

/// Renders the `metrics` response: the daemon's cumulative counters as
/// one flat object, sorted by name (the snapshot is already sorted).
pub fn metrics_response_json(snapshot: &MetricsSnapshot) -> Json {
    Json::obj([("ok", Json::Bool(true)), ("counters", snapshot.into())])
}

/// Parses a `metrics` response back into a snapshot.
pub fn metrics_from_json(doc: &Json) -> Result<MetricsSnapshot, String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("metrics request failed")
            .to_owned());
    }
    MetricsSnapshot::from_json(
        doc.get("counters")
            .ok_or("metrics response needs a `counters` object")?,
    )
}

// ---------------------------------------------- histograms / logs (v2)

/// Renders the `histograms` response: one canonical histogram per op,
/// sorted by op name, sample unit nanoseconds.
pub fn histograms_response_json(hists: &[(String, Histogram)]) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("unit", Json::str("ns")),
        (
            "histograms",
            Json::Obj(
                hists
                    .iter()
                    .map(|(op, hist)| (op.clone(), hist.into()))
                    .collect(),
            ),
        ),
    ])
}

/// Parses a `histograms` response back into per-op histograms.
pub fn histograms_from_json(doc: &Json) -> Result<Vec<(String, Histogram)>, String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("histograms request failed")
            .to_owned());
    }
    let Some(Json::Obj(fields)) = doc.get("histograms") else {
        return Err("histograms response needs a `histograms` object".into());
    };
    fields
        .iter()
        .map(|(op, hist)| Ok((op.clone(), Histogram::from_json(hist)?)))
        .collect()
}

/// One page of the daemon's event log, as returned by the `logs` op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogsPage {
    /// The matching records, sorted by strictly increasing `seq`.
    pub events: Vec<EventRecord>,
    /// Records dropped (ring overflow) over the daemon's lifetime.
    pub dropped: u64,
    /// The newest sequence number the daemon has assigned — pass as
    /// `since` to resume tailing after this page.
    pub last_seq: u64,
}

/// Renders the `logs` response, each event in [`EventRecord`]'s own
/// encoding.
pub fn logs_response_json(page: &LogsPage) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("dropped", Json::Num(page.dropped as f64)),
        ("last_seq", Json::Num(page.last_seq as f64)),
        ("events", Json::Arr(page.events.iter().map(Json::from).collect())),
    ])
}

/// Parses a `logs` response back into a [`LogsPage`].
pub fn logs_from_json(doc: &Json) -> Result<LogsPage, String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("logs request failed")
            .to_owned());
    }
    let top = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("logs response needs numeric `{key}`"))
    };
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("logs response needs an `events` array")?
        .iter()
        .map(EventRecord::from_json)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(LogsPage {
        events,
        dropped: top("dropped")?,
        last_seq: top("last_seq")?,
    })
}

// ------------------------------------------------- v2 session responses

/// A successful `open`/`update` outcome.
#[derive(Debug, Clone)]
pub struct DocOk {
    /// Document id.
    pub doc: String,
    /// Per-document revision (1 at first open).
    pub revision: u64,
    /// Whether the whole report came from the program-tier cache.
    pub cached: bool,
    /// Content address of the checked program.
    pub key: ProgramHash,
    /// Server-side wall-clock milliseconds (compile + check).
    pub time_ms: f64,
    /// Obligations in the report.
    pub obligations: u64,
    /// Obligations replayed from the obligation cache.
    pub reused: u64,
    /// Obligations discharged by the solver.
    pub checked: u64,
    /// Obligations discharged by the static low-ness pre-pass.
    pub statically_proven: u64,
    /// The verdict, byte-identical to in-process verification.
    pub report: VerifierReport,
}

/// One `open`/`update` response: a verdict, or a compile/session error.
pub type DocOutcomeWire = Result<DocOk, String>;

/// Renders an `open`/`update` response line. With `event`, the line is
/// the final element of a subscribed event stream and leads with
/// `"event":"report"`.
pub fn doc_response_json(outcome: &DocOutcomeWire, event: bool) -> Json {
    match outcome {
        Ok(ok) => {
            let mut fields = Vec::new();
            if event {
                fields.push(("event".to_owned(), Json::str("report")));
            }
            fields.extend([
                ("ok".to_owned(), Json::Bool(true)),
                ("doc".to_owned(), Json::str(&ok.doc)),
                ("revision".to_owned(), Json::Num(ok.revision as f64)),
                ("cached".to_owned(), Json::Bool(ok.cached)),
                ("key".to_owned(), Json::str(ok.key.to_string())),
                ("time_ms".to_owned(), Json::Num(ok.time_ms)),
                ("obligations".to_owned(), Json::Num(ok.obligations as f64)),
                ("reused".to_owned(), Json::Num(ok.reused as f64)),
                ("checked".to_owned(), Json::Num(ok.checked as f64)),
                (
                    "statically_proven".to_owned(),
                    Json::Num(ok.statically_proven as f64),
                ),
                ("report".to_owned(), Json::from(&ok.report)),
            ]);
            Json::Obj(fields)
        }
        Err(error) => error_json(error),
    }
}

/// Parses an `open`/`update` response (final stream line included).
pub fn doc_outcome_from_json(doc: &Json) -> Result<DocOutcomeWire, String> {
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            let num = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("doc response needs numeric `{key}`"))
            };
            Ok(Ok(DocOk {
                doc: doc
                    .get("doc")
                    .and_then(Json::as_str)
                    .ok_or("doc response needs `doc`")?
                    .to_owned(),
                revision: num("revision")?,
                cached: doc
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or("doc response needs `cached`")?,
                key: doc
                    .get("key")
                    .and_then(Json::as_str)
                    .ok_or("doc response needs `key`")?
                    .parse()?,
                time_ms: doc
                    .get("time_ms")
                    .and_then(Json::as_num)
                    .ok_or("doc response needs `time_ms`")?,
                obligations: num("obligations")?,
                reused: num("reused")?,
                checked: num("checked")?,
                // Tolerant: absent from pre-pre-pass daemons.
                statically_proven: doc
                    .get("statically_proven")
                    .and_then(Json::as_u64)
                    .unwrap_or_default(),
                report: VerifierReport::from_json(
                    doc.get("report").ok_or("doc response needs `report`")?,
                )?,
            }))
        }
        Some(false) => Ok(Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error")
            .to_owned())),
        None => Err("response needs a boolean `ok`".into()),
    }
}

/// The `started` stream event.
pub fn started_event_json(doc: &str, revision: u64, key: ProgramHash) -> Json {
    Json::obj([
        ("event", Json::str("started")),
        ("doc", Json::str(doc)),
        ("revision", Json::Num(revision as f64)),
        ("key", Json::str(key.to_string())),
    ])
}

/// The `obligation_done` stream event. `reused` is kept alongside the
/// finer-grained `verdict` for readers written against early v2.
pub fn obligation_event_json(
    doc: &str,
    index: usize,
    result: &ObligationResult,
    verdict: ObligationVerdict,
    time: Duration,
) -> Json {
    let mut fields = vec![
        ("event".to_owned(), Json::str("obligation_done")),
        ("doc".to_owned(), Json::str(doc)),
        ("index".to_owned(), Json::Num(index as f64)),
        (
            "description".to_owned(),
            Json::str(&result.description),
        ),
        ("code".to_owned(), Json::str(result.code.as_str())),
    ];
    if let Some(span) = result.span {
        fields.push(("span".to_owned(), span.into()));
    }
    // The status fields (`proved`, and on failure `reason` plus the
    // per-execution `counterexample`) mirror the final report's
    // obligation objects, so a streaming consumer needs no second lookup.
    if let Json::Obj(status) = Json::from(&result.status) {
        fields.extend(status);
    }
    fields.extend([
        (
            "reused".to_owned(),
            Json::Bool(verdict == ObligationVerdict::Reused),
        ),
        ("verdict".to_owned(), Json::str(verdict.as_str())),
        (
            "time_ms".to_owned(),
            Json::Num(time.as_secs_f64() * 1000.0),
        ),
    ]);
    Json::Obj(fields)
}

// -------------------------------------------------------- lint responses

/// A successful `lint` outcome.
#[derive(Debug, Clone)]
pub struct LintOk {
    /// Display name, echoed from the request.
    pub name: String,
    /// The findings, in [`commcsl_analysis::lint::lint_program`] order.
    pub lints: Vec<Lint>,
}

/// One `lint` response: findings, or a compile (parse/lower) error.
pub type LintOutcome = Result<LintOk, String>;

/// The `lint` stream event (one per finding, subscribed sessions only).
pub fn lint_event_json(name: &str, lint: &Lint) -> Json {
    let mut fields = vec![
        ("event".to_owned(), Json::str("lint")),
        ("name".to_owned(), Json::str(name)),
    ];
    if let Json::Obj(finding) = Json::from(lint) {
        fields.extend(finding);
    }
    Json::Obj(fields)
}

/// Renders the final `lint` response line.
pub fn lint_response_json(outcome: &LintOutcome) -> Json {
    match outcome {
        Ok(ok) => {
            let warnings = ok
                .lints
                .iter()
                .filter(|l| l.severity == Severity::Warning)
                .count();
            Json::obj([
                ("ok", Json::Bool(true)),
                ("name", Json::str(&ok.name)),
                ("count", Json::Num(ok.lints.len() as f64)),
                ("warnings", Json::Num(warnings as f64)),
                (
                    "lints",
                    Json::Arr(ok.lints.iter().map(Json::from).collect()),
                ),
            ])
        }
        Err(error) => error_json(error),
    }
}

/// Parses the final `lint` response line.
pub fn lint_outcome_from_json(doc: &Json) -> Result<LintOutcome, String> {
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(Ok(LintOk {
            name: doc
                .get("name")
                .and_then(Json::as_str)
                .ok_or("lint response needs `name`")?
                .to_owned(),
            lints: doc
                .get("lints")
                .and_then(Json::as_arr)
                .ok_or("lint response needs `lints`")?
                .iter()
                .map(Lint::from_json)
                .collect::<Result<Vec<_>, String>>()?,
        })),
        Some(false) => Ok(Err(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error")
            .to_owned())),
        None => Err("response needs a boolean `ok`".into()),
    }
}

#[cfg(test)]
mod tests {
    use commcsl_analysis::lint::LintCode;
    use commcsl_verifier::diag::{CexBinding, Counterexample, DiagnosticCode, Failure, SourceSpan};
    use commcsl_verifier::report::{CoreFact, ObligationStatus};

    use super::*;

    #[test]
    fn v2_requests_roundtrip() {
        let requests = [
            Request::Hello { protocol: 2 },
            Request::Subscribe { events: true },
            Request::Subscribe { events: false },
            Request::Open {
                doc: "a \"quoted\".csl".into(),
                source: "program a;\n".into(),
            },
            Request::Update {
                doc: "a.csl".into(),
                source: "program a;\noutput 1;\n".into(),
            },
            Request::Close { doc: "a.csl".into() },
            Request::Lint(VerifyItem {
                name: "a.csl".into(),
                source: "program a;\n".into(),
            }),
            Request::Metrics,
            Request::Histograms,
            Request::Logs { since: None },
            Request::Logs { since: Some(42) },
            Request::CacheGet {
                tier: CacheTier::Obligation,
                key: "000102030405060708090a0b0c0d0e0f".into(),
            },
            Request::CachePut {
                tier: CacheTier::Verdict,
                key: "f00dfeedf00dfeedf00dfeedf00dfeed".into(),
                entry: "{\"format\":\"commcsl-verdict\",\"version\":6,\"key\":\"f00d\"}".into(),
            },
        ];
        for r in requests {
            let line = r.encode();
            assert!(!line.contains('\n'), "{line}");
            assert!(line.contains(&format!("\"op\":\"{}\"", r.op_name())), "{line}");
            assert_eq!(Request::decode(&line).unwrap(), r);
        }
        assert!(Request::decode("{\"op\":\"open\",\"doc\":\"x\"}").is_err());
        assert!(Request::decode("{\"op\":\"hello\"}").is_err());
        assert!(Request::decode("{\"op\":\"logs\",\"since\":-1}").is_err());
    }

    #[test]
    fn request_ids_ride_along_requests_and_responses() {
        // Client-supplied: `encode_with_request_id` appends the field,
        // `decode_with_request_id` extracts it, and plain `decode`
        // ignores it.
        let request = Request::Status;
        let line = request.encode_with_request_id("cli-7");
        assert!(line.ends_with(",\"request_id\":\"cli-7\"}"), "{line}");
        let (back, id) = Request::decode_with_request_id(&line).unwrap();
        assert_eq!(back, request);
        assert_eq!(id.as_deref(), Some("cli-7"));
        assert_eq!(Request::decode(&line).unwrap(), request);
        // Absent: decodes as None.
        let (_, id) = Request::decode_with_request_id(&request.encode()).unwrap();
        assert_eq!(id, None);

        // Response side: `with_request_id` appends as the LAST field, so
        // pinned leading framing bytes survive and nested documents
        // (embedded reports) are untouched.
        let response = error_json("bad request: nope");
        let stamped = with_request_id(&response, "r1");
        let line = stamped.to_string();
        assert!(line.starts_with("{\"ok\":false"), "{line}");
        assert!(line.ends_with(",\"request_id\":\"r1\"}"), "{line}");
        assert_eq!(request_id_of(&stamped), Some("r1"));
        assert_eq!(request_id_of(&response), None);
        // Re-stamping replaces rather than duplicates.
        let restamped = with_request_id(&stamped, "r2");
        assert_eq!(request_id_of(&restamped), Some("r2"));
        assert_eq!(restamped.to_string().matches("request_id").count(), 1);

        // A streamed event keeps its event framing and gains the id.
        let event = with_request_id(&started_event_json("a.csl", 1, ProgramHash(9)), "r3");
        let line = event.to_string();
        assert!(line.starts_with("{\"event\":\"started\""), "{line}");
        assert!(line.contains("\"request_id\":\"r3\""), "{line}");
        assert!(!line.contains("\"ok\""), "{line}");
    }

    #[test]
    fn histograms_responses_roundtrip() {
        let mut verify = Histogram::new();
        verify.record(1_500_000);
        verify.record(2_500_000);
        let mut status = Histogram::new();
        status.record(12_000);
        let hists = vec![("status".to_owned(), status), ("verify".to_owned(), verify)];
        let line = histograms_response_json(&hists).to_string();
        assert!(
            line.starts_with("{\"ok\":true,\"unit\":\"ns\",\"histograms\":{"),
            "{line}"
        );
        let back = histograms_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, hists);
        assert!(histograms_from_json(&error_json("v1 session")).is_err());
    }

    #[test]
    fn logs_responses_roundtrip() {
        let page = LogsPage {
            events: vec![
                EventRecord {
                    seq: 7,
                    op: "verify".into(),
                    request_id: "r7".into(),
                    dur_ns: 1_234_567,
                    outcome: "ok".into(),
                    detail: String::new(),
                },
                EventRecord {
                    seq: 9,
                    op: "decode".into(),
                    request_id: "r9".into(),
                    dur_ns: 0,
                    outcome: "decode_error".into(),
                    detail: "bad request: expected value".into(),
                },
            ],
            dropped: 3,
            last_seq: 9,
        };
        let line = logs_response_json(&page).to_string();
        assert!(line.starts_with("{\"ok\":true,\"dropped\":3,\"last_seq\":9"), "{line}");
        // Empty `detail` is omitted, non-empty kept.
        assert_eq!(line.matches("\"detail\"").count(), 1);
        let back = logs_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, page);
        assert!(logs_from_json(&error_json("v1 session")).is_err());
    }

    #[test]
    fn doc_responses_roundtrip_with_and_without_event_framing() {
        let ok: DocOutcomeWire = Ok(DocOk {
            doc: "a.csl".into(),
            revision: 3,
            cached: false,
            key: ProgramHash(0xABCD),
            time_ms: 0.5,
            obligations: 12,
            reused: 11,
            checked: 1,
            statically_proven: 4,
            report: nasty_report(),
        });
        for event in [false, true] {
            let line = doc_response_json(&ok, event).to_string();
            assert_eq!(
                line.starts_with("{\"event\":\"report\""),
                event,
                "{line}"
            );
            let back = doc_outcome_from_json(&Json::parse(&line).unwrap())
                .unwrap()
                .unwrap();
            assert_eq!(back.doc, "a.csl");
            assert_eq!(back.revision, 3);
            assert_eq!((back.obligations, back.reused, back.checked), (12, 11, 1));
            assert_eq!(back.statically_proven, 4);
            assert_eq!(back.report.to_json(), nasty_report().to_json());
        }
        let err: DocOutcomeWire = Err("unknown document `b`".into());
        let line = doc_response_json(&err, true).to_string();
        let back = doc_outcome_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.unwrap_err(), "unknown document `b`");
    }

    #[test]
    fn stream_events_have_no_ok_key() {
        let started = started_event_json("a.csl", 2, ProgramHash(7)).to_string();
        assert!(started.contains("\"event\":\"started\""));
        assert!(!started.contains("\"ok\""), "{started}");
        let obligation = obligation_event_json(
            "a.csl",
            0,
            &ObligationResult {
                description: "Low(out)".into(),
                code: DiagnosticCode::LowOutput,
                span: Some(SourceSpan::new(3, 1)),
                status: ObligationStatus::Proved,
                core: None,
            },
            ObligationVerdict::Reused,
            Duration::from_micros(1500),
        )
        .to_string();
        assert!(obligation.contains("\"event\":\"obligation_done\""));
        assert!(obligation.contains("\"span\":\"3:1\""));
        assert!(obligation.contains("\"reused\":true"));
        assert!(obligation.contains("\"verdict\":\"reused\""));
        assert!(obligation.contains("\"time_ms\":1.5"));
        assert!(!obligation.contains("\"ok\""), "{obligation}");

        let statically = obligation_event_json(
            "a.csl",
            1,
            &ObligationResult {
                description: "Low(out)".into(),
                code: DiagnosticCode::LowOutput,
                span: None,
                status: ObligationStatus::Proved,
                core: None,
            },
            ObligationVerdict::StaticallyProven,
            Duration::ZERO,
        )
        .to_string();
        assert!(statically.contains("\"reused\":false"));
        assert!(statically.contains("\"verdict\":\"static\""));
    }

    #[test]
    fn failed_obligation_events_carry_reason_and_counterexample() {
        // Pin the satellite fix: `obligation_done` events for failures used
        // to carry a bare `proved:false` even though the final report had the
        // reason and witness. The event must now mirror the report fields.
        let result = ObligationResult {
            description: "Low(out\u{1F600})".into(),
            code: DiagnosticCode::LowOutput,
            span: Some(SourceSpan::new(9, 2)),
            status: ObligationStatus::Failed(
                Failure::new("countermodel: h\"x\"=1").with_counterexample(Counterexample {
                    bindings: vec![CexBinding {
                        var: "h\\w".into(),
                        exec1: "1".into(),
                        exec2: "2".into(),
                    }],
                }),
            ),
            core: None,
        };
        let event = obligation_event_json(
            "a.csl",
            4,
            &result,
            ObligationVerdict::SolverChecked,
            Duration::from_micros(250),
        );
        let line = event.to_string();
        assert!(line.contains("\"proved\":false"), "{line}");
        assert!(line.contains("\"reason\":\"countermodel: h\\\"x\\\"=1\""), "{line}");
        assert!(
            line.contains(
                "\"counterexample\":[{\"var\":\"h\\\\w\",\"exec1\":\"1\",\"exec2\":\"2\"}]"
            ),
            "{line}"
        );
        // The enriched fields survive the wire: parse back and check the
        // values land where a streaming consumer would read them.
        let back = Json::parse(&line).unwrap();
        assert_eq!(
            back.get("reason").and_then(Json::as_str),
            Some("countermodel: h\"x\"=1")
        );
        let cex = back.get("counterexample").and_then(Json::as_arr).unwrap();
        assert_eq!(cex.len(), 1);
        assert_eq!(cex[0].get("var").and_then(Json::as_str), Some("h\\w"));
        assert_eq!(cex[0].get("exec1").and_then(Json::as_str), Some("1"));
        assert_eq!(cex[0].get("exec2").and_then(Json::as_str), Some("2"));
        // Proved events must not grow the failure fields.
        let proved = obligation_event_json(
            "a.csl",
            5,
            &ObligationResult {
                description: "Low(out)".into(),
                code: DiagnosticCode::LowOutput,
                span: None,
                status: ObligationStatus::Proved,
                core: None,
            },
            ObligationVerdict::SolverChecked,
            Duration::ZERO,
        )
        .to_string();
        assert!(!proved.contains("\"reason\""), "{proved}");
        assert!(!proved.contains("\"counterexample\""), "{proved}");
    }

    #[test]
    fn lint_responses_and_events_roundtrip() {
        let lints = vec![
            Lint {
                code: LintCode::WithOnUnshared,
                severity: Severity::Warning,
                path: vec![2, 0],
                span: Some(SourceSpan::new(4, 3)),
                message: "atomic block on resource `m` which is not shared here".into(),
            },
            Lint {
                code: LintCode::UnusedVar,
                severity: Severity::Note,
                path: vec![3],
                span: None,
                message: "variable `y \"q\"` is bound but never read".into(),
            },
        ];
        let ok: LintOutcome = Ok(LintOk {
            name: "a.csl".into(),
            lints: lints.clone(),
        });
        let line = lint_response_json(&ok).to_string();
        let back = lint_outcome_from_json(&Json::parse(&line).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(back.name, "a.csl");
        assert_eq!(back.lints, lints);
        assert!(line.contains("\"count\":2"));
        assert!(line.contains("\"warnings\":1"));

        let event = lint_event_json("a.csl", &lints[0]).to_string();
        assert!(event.starts_with("{\"event\":\"lint\""), "{event}");
        assert!(!event.contains("\"ok\""), "{event}");
        let parsed = Lint::from_json(&Json::parse(&event).unwrap()).unwrap();
        assert_eq!(parsed, lints[0]);

        let err: LintOutcome = Err("1:1: parse error".into());
        let line = lint_response_json(&err).to_string();
        let back = lint_outcome_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.unwrap_err(), "1:1: parse error");
    }

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Verify(VerifyItem {
                name: "a \"quoted\" name".into(),
                source: "program p;\noutput 1;\n".into(),
            }),
            Request::VerifyBatch {
                items: vec![
                    VerifyItem {
                        name: "x".into(),
                        source: "s1".into(),
                    },
                    VerifyItem {
                        name: "y\t".into(),
                        source: "s2\\n".into(),
                    },
                ],
                fail_fast: false,
            },
            Request::VerifyBatch {
                items: vec![VerifyItem {
                    name: "z".into(),
                    source: "s3".into(),
                }],
                fail_fast: true,
            },
            Request::Status,
            Request::Shutdown,
        ];
        for r in requests {
            let line = r.encode();
            assert!(!line.contains('\n'), "one line per request: {line}");
            assert_eq!(Request::decode(&line).unwrap(), r);
        }
        assert!(Request::decode("{\"op\":\"nope\"}").is_err());
        assert!(Request::decode("not json").is_err());
    }

    fn nasty_report() -> VerifierReport {
        VerifierReport {
            program: "p \"q\" \\ \n\t\u{1}".into(),
            obligations: vec![
                ObligationResult {
                    description: "pre of Put at worker 1".into(),
                    code: DiagnosticCode::ActionPre,
                    span: Some(SourceSpan::new(12, 7)),
                    status: ObligationStatus::Proved,
                    core: Some(vec![
                        CoreFact {
                            path: vec![],
                            span: None,
                        },
                        CoreFact {
                            path: vec![3, 1, 0],
                            span: Some(SourceSpan::new(8, 4)),
                        },
                    ]),
                },
                ObligationResult {
                    description: "Low(output \"x\")".into(),
                    code: DiagnosticCode::LowOutput,
                    span: None,
                    status: ObligationStatus::Failed(
                        Failure::new("countermodel: h\u{2}=1").with_counterexample(
                            Counterexample {
                                bindings: vec![CexBinding {
                                    var: "h \"quoted\"\t".into(),
                                    exec1: "0".into(),
                                    exec2: "1\n".into(),
                                }],
                            },
                        ),
                    ),
                    core: None,
                },
            ],
            errors: vec!["guard \\ misuse\nsecond line".into()],
            hints: vec![Lint {
                code: LintCode::UnneededAnnotation,
                severity: Severity::Note,
                path: vec![4],
                span: Some(SourceSpan::new(14, 1)),
                message: "no proved obligation needed \"this\" unshare".into(),
            }],
        }
    }

    #[test]
    fn verify_responses_roundtrip() {
        let ok: VerifyOutcome = Ok(VerifyOk {
            cached: true,
            key: ProgramHash(0xDEADBEEF),
            time_ms: 0.125,
            skipped: false,
            report: nasty_report(),
        });
        let doc = Json::parse(&verify_response_json(&ok).to_string()).unwrap();
        let back = verify_outcome_from_json(&doc).unwrap().unwrap();
        assert!(back.cached);
        assert!(!back.skipped);
        assert_eq!(back.key, ProgramHash(0xDEADBEEF));
        assert_eq!(back.report.to_json(), nasty_report().to_json());

        let skipped: VerifyOutcome = Ok(VerifyOk {
            cached: false,
            key: ProgramHash(1),
            time_ms: 0.0,
            skipped: true,
            report: nasty_report(),
        });
        let doc = Json::parse(&verify_response_json(&skipped).to_string()).unwrap();
        assert!(verify_outcome_from_json(&doc).unwrap().unwrap().skipped);

        let err: VerifyOutcome = Err("1:2: unknown resource `q`".into());
        let doc = Json::parse(&verify_response_json(&err).to_string()).unwrap();
        assert_eq!(
            verify_outcome_from_json(&doc).unwrap().unwrap_err(),
            "1:2: unknown resource `q`"
        );
    }

    #[test]
    fn status_roundtrips_and_computes_hit_rate() {
        let status = StatusInfo {
            version: "0.1.0".into(),
            format_version: 1,
            protocol_version: 2,
            uptime_ms: 12.5,
            started_at_unix_ms: 1_700_000_000_123,
            requests: 4,
            ops: vec![("status".into(), 1), ("verify".into(), 3)],
            programs: 36,
            documents: 3,
            memory_hits: 17,
            disk_hits: 1,
            misses: 18,
            evictions: 0,
            memory_entries: 18,
            obligation_hits: 40,
            obligation_misses: 2,
            statically_proven: 9,
            solver_checked: 3,
            bytes_streamed: 4096,
            threads: 0,
            transport: "tcp".into(),
            addr: "127.0.0.1:7411".into(),
            shards: 2,
            remote: "tcp://127.0.0.1:7412".into(),
            remote_hits: 5,
            remote_misses: 7,
            remote_stores: 6,
            per_shard: vec![
                ShardStatus {
                    shard: 0,
                    alive: true,
                    documents: 2,
                    programs: 20,
                    obligation_hits: 30,
                    obligation_misses: 1,
                },
                ShardStatus {
                    shard: 1,
                    alive: false,
                    documents: 1,
                    programs: 16,
                    obligation_hits: 10,
                    obligation_misses: 1,
                },
            ],
        };
        let line = status.to_json().to_string();
        // `hit_rate` stays the LAST field even with cluster fields
        // appended (the human renderer and jq recipes in docs pin this).
        assert!(line.ends_with(",\"hit_rate\":0.5}"), "{line}");
        let doc = Json::parse(&line).unwrap();
        let back = StatusInfo::from_json(&doc).unwrap();
        assert_eq!(back, status);
        assert!((back.hit_rate() - 0.5).abs() < 1e-9);
        assert!(StatusInfo::from_json(&error_json("down")).is_err());

        // A plain daemon (no transport/addr/remote, no shard table)
        // omits the empty cluster fields entirely so its status stays
        // parseable-as-before, and the omitted fields roundtrip to their
        // defaults (`shards` floors at 1).
        let plain = StatusInfo {
            shards: 1,
            transport: String::new(),
            addr: String::new(),
            remote: String::new(),
            per_shard: Vec::new(),
            ..status
        };
        let line = plain.to_json().to_string();
        for absent in ["transport", "addr", "\"remote\"", "per_shard"] {
            assert!(!line.contains(absent), "{line}");
        }
        let back = StatusInfo::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, plain);
    }

    #[test]
    fn status_tolerates_v1_documents_without_v2_fields() {
        // A v1 daemon's status lacks protocol_version/documents/
        // obligation counters: parsing must still succeed with defaults,
        // so the CLI's version handshake can report the mismatch.
        let line = "{\"ok\":true,\"version\":\"0.0.9\",\"format_version\":2,\
                    \"uptime_ms\":1,\"requests\":0,\"programs\":0,\
                    \"memory_hits\":0,\"disk_hits\":0,\"misses\":0,\
                    \"evictions\":0,\"memory_entries\":0,\"threads\":0,\
                    \"hit_rate\":0}";
        let back = StatusInfo::from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(back.protocol_version, 1);
        assert_eq!(back.obligation_hits, 0);
        assert_eq!(back.bytes_streamed, 0);
        // Service-observability fields are newer still: absent from both
        // v1 and early-v2 daemons, parsed as empty defaults.
        assert_eq!(back.started_at_unix_ms, 0);
        assert!(back.ops.is_empty());
        // Cluster fields (newer still) default too: one shard, no
        // transport/remote info, no per-shard table.
        assert_eq!(back.shards, 1);
        assert_eq!(back.transport, "");
        assert_eq!(back.remote, "");
        assert_eq!(back.remote_hits, 0);
        assert!(back.per_shard.is_empty());
    }

    #[test]
    fn cache_ops_roundtrip_and_validate() {
        let key = "000102030405060708090a0b0c0d0e0f";
        // Hit: the raw entry text rides along.
        let entry = "{\"format\":\"commcsl-obligation\",\"version\":6,\"key\":\"abc\"}";
        let hit = cache_get_response_json(CacheTier::Obligation, key, 6, Some(entry));
        let back = Json::parse(&hit.to_string()).unwrap();
        assert_eq!(cache_get_from_json(&back).unwrap().as_deref(), Some(entry));
        // Miss: `hit:false`, no entry.
        let miss = cache_get_response_json(CacheTier::Verdict, key, 6, None);
        let line = miss.to_string();
        assert!(!line.contains("entry"), "{line}");
        assert_eq!(
            cache_get_from_json(&Json::parse(&line).unwrap()).unwrap(),
            None
        );
        // Errors and malformed responses surface as Err.
        assert!(cache_get_from_json(&error_json("nope")).is_err());
        assert!(cache_get_from_json(&Json::obj([("ok", Json::Bool(true))]))
            .is_err());

        // cache_put: stored flag roundtrips both ways.
        for stored in [true, false] {
            let doc = cache_put_response_json(CacheTier::Obligation, key, stored);
            let back = Json::parse(&doc.to_string()).unwrap();
            assert_eq!(cache_put_from_json(&back).unwrap(), stored);
        }
        assert!(cache_put_from_json(&error_json("nope")).is_err());

        // A daemon admits only entries that validate: a JSON entry
        // exported by another cache is stored and served back verbatim,
        // an entry in the old line format is refused with `stored:false`.
        use commcsl_verifier::cache::{CacheConfig, VerdictCache};
        use commcsl_verifier::obligation::ObligationKey;

        use crate::wire::Connection;

        let mut exporter = VerdictCache::new(CacheConfig::memory_only(4));
        exporter.put_obligation(ObligationKey(0x0102), &ObligationStatus::Proved);
        let entry = exporter.export_obligation(ObligationKey(0x0102)).unwrap();
        let key = ObligationKey(0x0102).to_string();
        let server = crate::daemon::Server::new(
            crate::daemon::ServerConfig::default(),
            Box::new(|_| Err("no compiler".to_owned())),
        );
        let put = |entry: &str| {
            let request = Request::CachePut {
                tier: CacheTier::Obligation,
                key: key.clone(),
                entry: entry.to_owned(),
            };
            cache_put_from_json(&Connection::open(&server).call(&request).0).unwrap()
        };
        let line_format = format!(
            "commcsl-obligation {}\nkey {key}\nproved\n",
            commcsl_verifier::hash::HASH_FORMAT_VERSION
        );
        assert!(!put(&line_format), "line-format entry must be refused");
        let get = Request::CacheGet {
            tier: CacheTier::Obligation,
            key: key.clone(),
        };
        let served = || cache_get_from_json(&Connection::open(&server).call(&get).0).unwrap();
        assert_eq!(served(), None);
        assert!(put(&entry));
        assert_eq!(served().as_deref(), Some(entry.as_str()));

        // Tier names parse back; unknown tiers carry a pinned error.
        assert_eq!("obligation".parse::<CacheTier>(), Ok(CacheTier::Obligation));
        assert_eq!("verdict".parse::<CacheTier>(), Ok(CacheTier::Verdict));
        let err = "program".parse::<CacheTier>().unwrap_err();
        assert!(err.contains("unknown cache tier `program`"), "{err}");
    }

    #[test]
    fn metrics_responses_roundtrip() {
        let snapshot = MetricsSnapshot::from_pairs([
            ("daemon.requests".to_owned(), 17),
            ("cache.misses".to_owned(), 3),
            ("daemon.bytes_streamed".to_owned(), 8192),
        ]);
        let line = metrics_response_json(&snapshot).to_string();
        assert!(line.starts_with("{\"ok\":true,\"counters\":{"), "{line}");
        let back = metrics_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.get("daemon.requests"), Some(17));
        assert!(metrics_from_json(&error_json("down")).is_err());
    }
}
