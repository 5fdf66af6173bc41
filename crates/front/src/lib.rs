//! `commcsl-front` — the surface language for *annotated* CommCSL
//! programs, and the `commcsl` CLI driver.
//!
//! The verifier's input ([`commcsl_verifier::program::AnnotatedProgram`])
//! used to be constructible only through the Rust builder API; this crate
//! closes the gap with a textual frontend mirroring HyperViper's input
//! format (method bodies plus `share` / `with … performing` / `unshare`
//! annotations, App. E of the paper):
//!
//! * [`parser`] — a span-carrying parser for `.csl` files (resource
//!   specifications with abstraction functions, `shared`/`unique` actions
//!   and relational preconditions; `input x: Int low|high`; `share`;
//!   `with r performing a(e)` with `deferred` / `times` / `binding`
//!   forms; `unshare`; `assert low`; `output`). All diagnostics carry
//!   1-based `line:column` positions via [`commcsl_lang::span`].
//! * [`lower`] — name resolution and sort discipline, producing an
//!   [`AnnotatedProgram`].
//! * [`pretty`] — the inverse printer; `compile(&pretty(p)) == p` for
//!   surface-expressible programs (see its docs for the caveats).
//! * [`fixtures`] — the evaluation corpus (Table 1 and the rejected
//!   variants), compiled from the committed `.csl` files.
//! * [`cli`] — the `commcsl` binary: batch-verifies files, directories,
//!   and globs in parallel, with human-readable or `--json` reports;
//!   `serve` / `verify --daemon` / `daemon status|stop` expose the
//!   persistent verification service of `commcsl-server` (content-
//!   addressed verdict cache, transparent in-process fallback).
//!
//! # Example
//!
//! ```
//! use commcsl_front::compile;
//! use commcsl_verifier::verify;
//!
//! let program = compile(
//!     "program demo;
//!      resource ctr: Int named \"counter-add\" {
//!          alpha(v) = v;
//!          shared action Add(arg: Int) = v + arg requires arg1 == arg2;
//!      }
//!      input a: Int low;
//!      share ctr = 0;
//!      par { with ctr performing Add(a); } || { with ctr performing Add(2); }
//!      unshare ctr into total;
//!      output total;",
//! ).unwrap();
//! assert!(verify(&program, &Default::default()).verified());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cli;
pub mod fixtures;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod sorts;

use commcsl_lang::span::ParseError;
use commcsl_verifier::program::AnnotatedProgram;

/// Parses and lowers a `.csl` source text in one step.
///
/// # Errors
///
/// Returns a [`ParseError`] with a `line:column` position on syntax
/// errors and on lowering diagnostics (unknown resource/action, arity
/// and sort violations, …).
pub fn compile(source: &str) -> Result<AnnotatedProgram, ParseError> {
    let surface = {
        let _span = commcsl_telemetry::span!("front.parse");
        parser::parse_surface(source)?
    };
    let _span = commcsl_telemetry::span!("front.lower");
    lower::lower_owned(surface)
}
