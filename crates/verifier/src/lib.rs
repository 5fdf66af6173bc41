//! HyperViper-style automated verifier for CommCSL (paper, Sec. 5).
//!
//! The original HyperViper encodes annotated programs into the Viper
//! intermediate language using a modular product-program construction and
//! discharges the obligations with Z3. This crate performs the same checks
//! natively: a **relational symbolic execution** maintains one symbolic
//! store *per execution* (the product construction), collects relational
//! hypotheses, and discharges every CommCSL proof obligation with the
//! SMT-lite solver of `commcsl-smt`:
//!
//! * resource-specification **validity** at `share` (Def. 3.1, via
//!   `commcsl-logic`),
//! * **low initial abstraction** at `share` (property 1),
//! * the relational **action precondition** at every atomic action
//!   (property 3a — checked either in lockstep, where low loop bounds give
//!   the PRE bijection iteration-by-iteration, or as *counted batches*
//!   whose total count must be provably low, the paper's retroactive check
//!   for the multi-consumer examples),
//! * **guard discipline** — unique actions are performable by one worker
//!   only; shared guards are split across workers and recombined at join,
//! * **low-ness of outputs** (`output(e)` requires proving `Low(e)`), with
//!   the unshared resource's abstraction equality available as a
//!   hypothesis — exactly the paper's "may now assume α(v) is low".
//!
//! Verification verdicts are sound in the positive direction: `verified`
//! means every obligation was proved; any unknown or failed obligation is
//! reported as a failure with its name.
//!
//! # Example
//!
//! ```
//! use commcsl_logic::spec::ResourceSpec;
//! use commcsl_pure::{Func, Sort, Term};
//! use commcsl_verifier::program::{AnnotatedProgram, VStmt};
//! use commcsl_verifier::verify;
//!
//! // Fig. 2: two workers add low values to a shared counter; the final
//! // counter is output.
//! let prog = AnnotatedProgram::new("fig2-counter")
//!     .with_resource(ResourceSpec::counter_add())
//!     .with_body([
//!         VStmt::input("a", Sort::Int, true),
//!         VStmt::input("b", Sort::Int, true),
//!         VStmt::Share { resource: 0, init: Term::int(0) },
//!         VStmt::Par {
//!             workers: vec![
//!                 vec![VStmt::atomic(0, "Add", Term::var("a"))],
//!                 vec![VStmt::atomic(0, "Add", Term::var("b"))],
//!             ],
//!         },
//!         VStmt::Unshare { resource: 0, into: "c".into() },
//!         VStmt::Output(Term::var("c")),
//!     ]);
//! let report = verify(&prog, &Default::default());
//! assert!(report.verified(), "{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
mod batch;
pub mod cache;
pub mod hash;
pub mod minimize;
pub mod obligation;
pub mod report;
pub mod symexec;
pub mod workspace;

// The IR and its structured diagnostics live in `commcsl-analysis` (so
// static analyses and the verifier share them without a cycle); they are
// re-exported here at their historical paths.
pub use commcsl_analysis::{diag, program};

pub use api::{Outcome, Verifier};
pub use cache::{CacheConfig, CacheStats, VerdictCache};
pub use diag::{CexBinding, Counterexample, DiagnosticCode, Failure, SourceSpan};
pub use hash::{program_hash, ProgramHash, StableHash, StableHasher};
pub use minimize::{minimize_counterexample, Minimized};
pub use obligation::{DischargeStats, ObligationEvent, ObligationKey, ObligationStore};
pub use program::{AnnotatedProgram, StmtPath, VStmt};
pub use report::{
    CoreFact, Lint, LintCode, ObligationResult, ObligationStatus, Severity, VerifierConfig,
    VerifierReport,
};
pub use symexec::{solver_trace, verify, verify_incremental, verify_with_stats, SolverEvent};
pub use workspace::{DocOutcome, Workspace, WorkspaceConfig, WorkspaceEvent};
