//! SMT-lite solver for the CommCSL reproduction.
//!
//! The original HyperViper verifier discharges its proof obligations with
//! Z3 through the Viper toolchain. This crate is the offline replacement: a
//! small, sound-by-construction solver for the quantifier-free fragment the
//! verifier actually emits, layered as
//!
//! 1. **Normalization** — terms are canonicalized by the abstraction-aware
//!    rewriter of [`commcsl_pure::rewrite`], with an equality oracle backed
//!    by the congruence closure so learned (dis)equalities enable further
//!    rewriting.
//! 2. **Congruence closure** ([`congruence`]) — equality reasoning over
//!    uninterpreted and interpreted function applications.
//! 3. **Linear integer arithmetic** ([`lia`]) — Fourier–Motzkin refutation
//!    over congruence-class atoms.
//! 4. **Case splitting** ([`solver`]) — DPLL-style branching on `Ite`
//!    conditions and disjunctions with a bounded budget.
//! 5. **Falsification** ([`falsify`]) — randomized and bounded-exhaustive
//!    countermodel search by ground evaluation.
//! 6. **Backends** ([`backend`]) — the incremental-session seam
//!    ([`SolverSession`]: `push`/`pop`/`assert`/`check`), opened by
//!    [`BackendKind`] on the stateless `fresh` engine or the default
//!    `incremental` engine that keeps per-scope state on a backtrackable
//!    congruence closure.
//! 7. **Assumption tracking** ([`assume`]) — recovers, for a proved
//!    entailment, a sound over-approximation of the hypotheses the
//!    refutation can have used (the verifier's proof cores).
//!
//! The solver is *three-valued*: [`Verdict::Proved`] and
//! [`Verdict::Disproved`] are definitive; [`Verdict::Unknown`] is an honest
//! "could not decide", which callers must treat as a verification failure
//! (never as success).
//!
//! # Example
//!
//! ```
//! use commcsl_pure::Term;
//! use commcsl_smt::{Solver, Verdict};
//!
//! let solver = Solver::new();
//! // x = y ⊢ x + 1 = y + 1
//! let hyp = Term::eq(Term::var("x"), Term::var("y"));
//! let goal = Term::eq(
//!     Term::add(Term::var("x"), Term::int(1)),
//!     Term::add(Term::var("y"), Term::int(1)),
//! );
//! assert_eq!(solver.check_valid(&[hyp], &goal), Verdict::Proved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assume;
pub mod backend;
pub mod congruence;
pub mod falsify;
pub mod lia;
pub mod solver;
mod union_find;

pub use assume::assumption_core;
pub use backend::{BackendKind, SessionStats, SolverSession};
pub use solver::{Solver, SolverConfig, Verdict};
