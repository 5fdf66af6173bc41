//! `commcsl-server` — the persistent verification service.
//!
//! CommCSL verification (journals_pacmpl_EilersD023) is a pure function
//! of the lowered program, its resource specifications, and the solver
//! budgets. This crate exploits that purity to turn the one-shot
//! pipeline into a **daemon with a content-addressed verdict cache**:
//! unchanged programs are answered from memory (or from the on-disk tier
//! after a restart) without re-running symbolic execution, and only
//! genuinely new content rides the work-stealing batch pool.
//!
//! The pieces:
//!
//! * [`json`] — the workspace's dependency-free JSON parser/writer
//!   (re-exported from `commcsl-telemetry`),
//! * [`protocol`] — the newline-delimited JSON request/response schema:
//!   protocol v1 (`verify`, `verify_batch`, `status`, `shutdown`) plus
//!   the v2 workspace-session ops (`hello` version negotiation,
//!   `open`/`update`/`close`, `subscribe` for the streaming
//!   `started`/`obligation_done`/`report` event channel), embedding each
//!   [`commcsl_verifier::report::VerifierReport`] through its own JSON
//!   codec,
//! * [`wire`] — the protocol front end shared by every endpoint: request
//!   ids, latency histograms, the event log, protocol negotiation, the
//!   NDJSON session loop and the accept loop over Unix-socket and TCP
//!   listeners ([`Endpoint`] is what an endpoint adds),
//! * [`daemon`] — the [`Server`] endpoint: each
//!   connection owns a
//!   [`Workspace`](commcsl_verifier::workspace::Workspace) for
//!   obligation-level incremental re-verification, and all of them share
//!   the verdict/obligation cache of the server's one
//!   [`Verifier`](commcsl_verifier::api::Verifier),
//! * [`client`] — the matching [`Client`] (v1 and v2
//!   methods, streaming included) plus
//!   [`connect_or_start`](client::connect_or_start), the transparent
//!   auto-spawn used by `commcsl verify --daemon`.
//!
//! The daemon is surface-syntax agnostic: it is constructed with a
//! *compile function* (`&str → AnnotatedProgram`), which `commcsl-front`
//! provides from its `.csl` compiler. See `docs/server.md` for the wire
//! protocol, the cache layout, and the invalidation rules.
//!
//! # Example (in-process, stdio-style transport)
//!
//! ```
//! use commcsl_server::daemon::{Server, ServerConfig};
//! use commcsl_server::json::Json;
//! use commcsl_server::protocol::{Request, VerifyItem};
//! use commcsl_verifier::{AnnotatedProgram, VStmt};
//! use commcsl_pure::{Sort, Term};
//!
//! let server = Server::new(ServerConfig::default(), Box::new(|_src| {
//!     Ok(AnnotatedProgram::new("demo").with_body([
//!         VStmt::input("x", Sort::Int, true),
//!         VStmt::Output(Term::var("x")),
//!     ]))
//! }));
//! let verify = Request::Verify(VerifyItem { name: "demo".into(), source: "…".into() });
//! // One session: two request lines in, one response line each out.
//! let input = format!("{}\n{}\n", verify.encode(), verify.encode());
//! let mut output = Vec::new();
//! server.serve_stream(input.as_bytes(), &mut output).unwrap();
//! let responses: Vec<Json> = String::from_utf8(output).unwrap()
//!     .lines()
//!     .map(|line| Json::parse(line).unwrap())
//!     .collect();
//! let cached = |response: &Json| response.get("cached").and_then(Json::as_bool);
//! assert_eq!(cached(&responses[0]), Some(false));
//! assert_eq!(cached(&responses[1]), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub use commcsl_telemetry::json;
pub mod protocol;
pub mod wire;

pub use client::{connect_with_retry, Client, ClientError};
pub use daemon::{CompileFn, Listen, Server, ServerConfig};
pub use wire::{for_each_ndjson_line, Endpoint, Transport};
pub use json::Json;
pub use protocol::{
    CacheTier, Request, ShardStatus, StatusInfo, VerifyItem, VerifyOk,
    VerifyOutcome,
};
