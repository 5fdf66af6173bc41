//! Solver backends with incremental check sessions.
//!
//! [`Solver::check_valid`](crate::Solver::check_valid) is stateless: every
//! query rebuilds congruence and linear-arithmetic state from the full
//! hypothesis set. Verification workloads are the opposite shape —
//! consecutive obligations along one symbolic path share almost all of
//! their facts and differ only in the goal. This module is the seam that
//! exploits it:
//!
//! * [`SolverSession`] — the incremental interface:
//!   `push`/`pop` scopes, `assert` facts, `check` goals, with
//!   [`SessionStats`] telemetry (query counts, wall-clock time).
//! * [`BackendKind`] — the serializable choice between the two engines,
//!   and the only way to open a session. It is a *verdict-relevant
//!   configuration field* and is folded into the verifier's content
//!   hash.
//!
//! Two backends exist:
//!
//! * [`BackendKind::Fresh`] replays the legacy behavior exactly: `check`
//!   calls [`Solver::check_valid`](crate::Solver::check_valid) with the
//!   accumulated fact list, bit-for-bit compatible with the historical
//!   free-function path.
//! * [`BackendKind::Incremental`] (the default) keeps per-scope state:
//!   asserted facts are normalized, flattened, and asserted into a
//!   *backtrackable* congruence closure exactly once; `push`/`pop` and
//!   every `check` are snapshot/rollback pairs on that closure (O(work
//!   done), never O(state size)), only the goal literals are normalized
//!   per check, and every fixpoint loop (including per-branch loops under
//!   case splits) stops as soon as a round is provably quiescent.
//!
//! # Completeness contract
//!
//! Both backends are *sound*: every `Proved` is a genuine refutation of
//! `facts ∧ ¬goal`. They are pinned byte-identical across the full
//! verification corpus — the Table 1 fixtures, the rejected variants,
//! the compiled `.csl` corpus, random proptest programs, and every
//! recorded obligation stream (`tests/backend_equivalence.rs`). The one
//! place their *completeness* can differ by construction: the
//! incremental engine saturates each batch of asserted facts once (the
//! batch's facts rewrite under each other and under enclosing scopes),
//! but does not re-normalize facts of **earlier** batches when later
//! facts would unlock further rewriting of them, and may then answer a
//! conservative `Unknown` where the stateless joint fixpoint proves.
//! Callers treat `Unknown` as a verification failure, so this can only
//! make verification stricter, never unsound.
//!
//! # Example
//!
//! ```
//! use commcsl_pure::Term;
//! use commcsl_smt::backend::BackendKind;
//! use commcsl_smt::{SolverConfig, Verdict};
//!
//! let mut session = BackendKind::Incremental.open_session(SolverConfig::default());
//! session.assert(Term::eq(Term::var("x"), Term::var("y")));
//! // Many goals against the same fact base: the base is saturated once.
//! let goal = Term::eq(
//!     Term::add(Term::var("x"), Term::int(1)),
//!     Term::add(Term::var("y"), Term::int(1)),
//! );
//! assert_eq!(session.check(&goal), Verdict::Proved);
//! session.push();
//! session.assert(Term::le(Term::var("x"), Term::int(3)));
//! assert_eq!(session.check(&Term::le(Term::var("y"), Term::int(3))), Verdict::Proved);
//! session.pop(); // the scoped bound is gone
//! assert_eq!(session.check(&Term::le(Term::var("y"), Term::int(3))), Verdict::Unknown);
//! assert_eq!(session.stats().checks, 3);
//! ```

use std::fmt;
use std::time::{Duration, Instant};

use commcsl_pure::Term;

use crate::congruence::Congruence;
use crate::solver::{Saturation, Solver, SolverConfig, Verdict};

/// Cumulative telemetry for one session.
///
/// Times cover [`SolverSession::check`] calls only (assertion bookkeeping
/// is deferred and attributed to the check that forces it). Stats are
/// observability, not semantics: they never feed back into verdicts and
/// are deliberately kept out of verification reports so cached and fresh
/// verdicts stay byte-identical. Each counter also adds to the telemetry
/// counter of its name under `solver.` (`solver.checks`, …) where it
/// counts, so an armed capture sees every session, spec validity's
/// included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Goals checked.
    pub checks: u64,
    /// Checks answered [`Verdict::Proved`].
    pub proved: u64,
    /// Checks answered [`Verdict::Unknown`].
    pub unknown: u64,
    /// Facts asserted.
    pub asserts: u64,
    /// Scopes pushed.
    pub pushes: u64,
    /// Pop operations (stray pops on the root scope included).
    pub pops: u64,
    /// Batch closes (checks, pushes, or explicit
    /// [`SolverSession::sync`]s) that found the fact base already
    /// saturated and skipped re-saturation entirely. Always 0 for the
    /// stateless backend, which has no saturated base to skip.
    pub quiescence_skips: u64,
    /// Total wall-clock time spent inside `check`.
    pub check_time: Duration,
}

impl SessionStats {
    /// Accumulates `other` into `self`: every counter adds, and so does
    /// the check time. Used to total per-program session stats across a
    /// batch (CLI summaries, daemon telemetry).
    pub fn merge(&mut self, other: &SessionStats) {
        self.checks += other.checks;
        self.proved += other.proved;
        self.unknown += other.unknown;
        self.asserts += other.asserts;
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.quiescence_skips += other.quiescence_skips;
        self.check_time += other.check_time;
    }

    /// Counts one check answered `verdict` that began at `start`.
    fn record_check(&mut self, verdict: Verdict, start: Instant) -> Verdict {
        count(&mut self.checks, "solver.checks");
        match verdict {
            Verdict::Proved => count(&mut self.proved, "solver.proved"),
            _ => count(&mut self.unknown, "solver.unknown"),
        }
        self.check_time += start.elapsed();
        verdict
    }
}

/// Adds one to a session counter and to the telemetry counter `name`, so
/// a capture counts the work of every session where it happens.
fn count(field: &mut u64, name: &'static str) {
    *field += 1;
    commcsl_telemetry::counter_add(name, 1);
}

/// An incremental proof session: a stack of fact scopes and a stream of
/// goal checks against them.
///
/// The contract mirrors SMT-LIB's `push`/`pop`/`assert`/`check-sat`:
/// facts asserted in a scope vanish when the scope is popped; `check`
/// never perturbs the asserted state. `check` answers
/// [`Verdict::Proved`] when `facts ⊨ goal` and [`Verdict::Unknown`]
/// otherwise (countermodel search stays a separate concern, see
/// [`crate::falsify`]).
pub trait SolverSession: fmt::Debug {
    /// Opens a new fact scope.
    fn push(&mut self);
    /// Discards the most recent scope and every fact asserted in it.
    /// Popping the root scope is a no-op.
    fn pop(&mut self);
    /// Asserts `fact` in the current scope.
    fn assert(&mut self, fact: Term);
    /// Checks whether the asserted facts entail `goal`.
    fn check(&mut self, goal: &Term) -> Verdict;
    /// Checks whether `facts ∧ assumptions ⊨ goal` without touching the
    /// asserted state — SMT-LIB's `check-sat-assuming`. Observationally
    /// equivalent to `push`/`assert`/`check`/`pop`, but lets an
    /// incremental backend keep its base state (and the normalization
    /// work cached against it) untouched across obligations that differ
    /// only in their local hypotheses.
    fn check_assuming(&mut self, assumptions: Vec<Term>, goal: &Term) -> Verdict;
    /// Forces any internally batched assertion work to happen *now*, as
    /// if a check occurred, without checking anything. Sessions that
    /// saturate asserted facts in batches (the incremental backend) close
    /// the current batch; stateless sessions do nothing.
    ///
    /// This exists for callers that **replay** a session's interaction
    /// while skipping some checks (the verifier's obligation cache reuses
    /// cached verdicts across re-checks of an edited program): calling
    /// `sync` where a skipped check used to be reproduces the original
    /// batch boundaries exactly, so the checks that *do* run see
    /// bit-identical solver state. The default implementation is the
    /// observationally equivalent `push`/`pop` pair.
    fn sync(&mut self) {
        self.push();
        self.pop();
    }
    /// Current scope depth (0 = root).
    fn depth(&self) -> usize;
    /// Cumulative telemetry.
    fn stats(&self) -> SessionStats;
}

/// The serializable choice between the two backends.
///
/// Verifier configurations carry it: it must be `Copy`, comparable, and
/// stably hashable, because a backend change is a *cache-address* change
/// (verdicts produced by different backends are never allowed to shadow
/// each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BackendKind {
    /// Stateless legacy engine: every check rebuilds from scratch.
    Fresh,
    /// Per-scope incremental engine (the default).
    #[default]
    Incremental,
}

impl BackendKind {
    /// Both kinds.
    pub const ALL: [BackendKind; 2] = [BackendKind::Fresh, BackendKind::Incremental];

    /// The stable name (`"fresh"` / `"incremental"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Fresh => "fresh",
            BackendKind::Incremental => "incremental",
        }
    }

    /// Opens a session on this kind's backend with the given budgets.
    pub fn open_session(self, config: SolverConfig) -> Box<dyn SolverSession> {
        let solver = Solver::with_config(config);
        match self {
            BackendKind::Fresh => Box::new(FreshSession {
                solver,
                facts: Vec::new(),
                marks: Vec::new(),
                stats: SessionStats::default(),
            }),
            BackendKind::Incremental => Box::new(IncrementalSession {
                solver,
                cc: Congruence::new(),
                base_lits: Vec::new(),
                pending: Vec::new(),
                frames: Vec::new(),
                contradictory: false,
                stats: SessionStats::default(),
            }),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ------------------------------------------------------------------- fresh

/// The stateless backend's session: it merely accumulates facts and
/// calls [`Solver::check_valid`] per goal, reproducing the legacy
/// free-function path bit for bit.
#[derive(Debug)]
struct FreshSession {
    solver: Solver,
    facts: Vec<Term>,
    marks: Vec<usize>,
    stats: SessionStats,
}

impl SolverSession for FreshSession {
    fn push(&mut self) {
        count(&mut self.stats.pushes, "solver.pushes");
        self.marks.push(self.facts.len());
    }

    fn pop(&mut self) {
        count(&mut self.stats.pops, "solver.pops");
        if let Some(mark) = self.marks.pop() {
            self.facts.truncate(mark);
        }
    }

    fn assert(&mut self, fact: Term) {
        count(&mut self.stats.asserts, "solver.asserts");
        self.facts.push(fact);
    }

    fn check(&mut self, goal: &Term) -> Verdict {
        let _span = commcsl_telemetry::span!("solver.check");
        let start = Instant::now();
        let verdict = self.solver.check_valid(&self.facts, goal);
        self.stats.record_check(verdict, start)
    }

    fn check_assuming(&mut self, assumptions: Vec<Term>, goal: &Term) -> Verdict {
        let _span = commcsl_telemetry::span!("solver.check");
        let start = Instant::now();
        // Exactly the legacy literal order: facts, assumptions, ¬goal.
        let mut hyps = self.facts.clone();
        hyps.extend(assumptions);
        let verdict = self.solver.check_valid(&hyps, goal);
        self.stats.record_check(verdict, start)
    }

    fn sync(&mut self) {
        // Stateless: every check rebuilds from the flat fact list, so
        // there is no batched work to force.
    }

    fn depth(&self) -> usize {
        self.marks.len()
    }

    fn stats(&self) -> SessionStats {
        self.stats
    }
}

// ------------------------------------------------------------- incremental

/// The incremental backend's session: per-scope saturated fact state
/// shared across checks, on a persistent *backtrackable* congruence
/// closure.
///
/// The session's asset is its **saturated base**: every asserted fact is
/// normalized, flattened, and asserted into the closure exactly once per
/// scope, however many goals are later checked against it (the stateless
/// engine re-normalizes the full hypothesis set for every single check).
/// `push` captures a [`Congruence::snapshot`]; `pop` rolls the closure
/// back through its undo trail — no re-interning, no rebuild. Each
/// `check` likewise snapshots, saturates *only* the goal literals
/// against the live closure, falls through to the common
/// linear-arithmetic and case-split phases, and rolls the goal-local
/// mutations back, so checks never perturb the asserted state. All
/// fixpoint loops stop at the first provably quiescent round.
#[derive(Debug)]
struct IncrementalSession {
    solver: Solver,
    /// The persistent, backtrackable closure holding every saturated
    /// base literal. Scope pops and goal-local check work are rolled
    /// back via the closure's undo trail.
    cc: Congruence,
    /// The saturated, flattened base literals, in assertion order.
    base_lits: Vec<Term>,
    /// Facts asserted but not yet saturated (batched until the next
    /// check or push, so one pass covers them together).
    pending: Vec<Term>,
    frames: Vec<FrameMark>,
    contradictory: bool,
    stats: SessionStats,
}

/// A scope boundary: the session state to restore at `pop`.
#[derive(Debug)]
struct FrameMark {
    snapshot: crate::congruence::CongruenceSnapshot,
    base_len: usize,
    contradictory: bool,
}

impl IncrementalSession {
    /// Saturates any pending facts into the base state: the full
    /// normalize/assert fixpoint over the batch against the live closure
    /// (so facts of one batch rewrite under each other and under the
    /// enclosing scopes' facts — e.g. a `MapPut` chain sorting once a
    /// sibling key disequality is asserted), with quiescent rounds
    /// skipped — paid once per scope instead of once per check.
    ///
    /// Already-recorded base literals of *earlier* batches are not
    /// re-normalized under the new facts; see the module docs for the
    /// completeness contract.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            count(&mut self.stats.quiescence_skips, "solver.quiescence_skips");
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        if self.contradictory {
            // Every check proves while the contradiction is live, and the
            // dropped facts can never outlive it: they belong to the
            // current (top) frame, which pops no later than the frame
            // whose facts contradict.
            return;
        }
        match self.solver.saturate(&self.cc, pending, true) {
            Saturation::Refuted => self.contradictory = true,
            Saturation::Open(lits) => self.base_lits.extend(lits),
        }
    }

    fn check_with(&mut self, assumptions: Vec<Term>, goal: &Term) -> Verdict {
        let _span = commcsl_telemetry::span!("solver.check");
        let start = Instant::now();
        self.flush();
        if self.contradictory {
            // Contradictory facts entail anything (same as the legacy
            // refutation of `hyps ∧ ¬goal` with unsatisfiable `hyps`).
            return self.stats.record_check(Verdict::Proved, start);
        }
        let snapshot = self.cc.snapshot();
        let mut extra = assumptions;
        extra.push(Term::not(goal.clone()));
        let refuted = self.solver.refute_seeded(&self.cc, &self.base_lits, extra);
        self.cc.rollback_to(&snapshot);
        let verdict = if refuted {
            Verdict::Proved
        } else {
            Verdict::Unknown
        };
        self.stats.record_check(verdict, start)
    }
}

impl SolverSession for IncrementalSession {
    fn push(&mut self) {
        count(&mut self.stats.pushes, "solver.pushes");
        self.flush();
        self.frames.push(FrameMark {
            snapshot: self.cc.snapshot(),
            base_len: self.base_lits.len(),
            contradictory: self.contradictory,
        });
    }

    fn pop(&mut self) {
        count(&mut self.stats.pops, "solver.pops");
        let Some(frame) = self.frames.pop() else {
            return;
        };
        self.pending.clear();
        self.cc.rollback_to(&frame.snapshot);
        self.base_lits.truncate(frame.base_len);
        self.contradictory = frame.contradictory;
    }

    fn assert(&mut self, fact: Term) {
        count(&mut self.stats.asserts, "solver.asserts");
        self.pending.push(fact);
    }

    fn check(&mut self, goal: &Term) -> Verdict {
        self.check_with(Vec::new(), goal)
    }

    fn check_assuming(&mut self, assumptions: Vec<Term>, goal: &Term) -> Verdict {
        self.check_with(assumptions, goal)
    }

    fn sync(&mut self) {
        // Close the current assertion batch exactly as a check would,
        // without the snapshot/rollback a `push`/`pop` pair pays.
        let _span = commcsl_telemetry::span!("solver.sync");
        self.flush();
    }

    fn depth(&self) -> usize {
        self.frames.len()
    }

    fn stats(&self) -> SessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(kind: BackendKind) -> Box<dyn SolverSession> {
        kind.open_session(SolverConfig::default())
    }

    /// The names are hashed into every cache key, so they must not move.
    #[test]
    fn backend_kind_names_are_stable() {
        let names = BackendKind::ALL.map(BackendKind::name);
        assert_eq!(names, ["fresh", "incremental"]);
        for kind in BackendKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(BackendKind::default(), BackendKind::Incremental);
    }

    #[test]
    fn both_backends_prove_and_scope_identically() {
        for kind in BackendKind::ALL {
            let mut s = session(kind);
            assert_eq!(s.depth(), 0);
            s.assert(Term::eq(Term::var("x"), Term::var("y")));
            let congruent = Term::eq(
                Term::app(commcsl_pure::Func::SeqLen, [Term::var("x")]),
                Term::app(commcsl_pure::Func::SeqLen, [Term::var("y")]),
            );
            assert_eq!(s.check(&congruent), Verdict::Proved, "{kind}");

            s.push();
            s.assert(Term::le(Term::var("x"), Term::int(3)));
            s.assert(Term::eq(
                Term::var("z"),
                Term::add(Term::var("x"), Term::int(1)),
            ));
            assert_eq!(s.depth(), 1);
            assert_eq!(
                s.check(&Term::le(Term::var("z"), Term::int(4))),
                Verdict::Proved,
                "{kind}"
            );
            s.pop();
            assert_eq!(
                s.check(&Term::le(Term::var("z"), Term::int(4))),
                Verdict::Unknown,
                "{kind}: popped bound must be gone"
            );
            // Check never pollutes the fact base.
            assert_eq!(s.check(&congruent), Verdict::Proved, "{kind}");

            let stats = s.stats();
            assert_eq!(stats.checks, 4);
            assert_eq!(stats.proved, 3);
            assert_eq!(stats.unknown, 1);
            assert_eq!(stats.asserts, 3);
            assert_eq!(stats.pushes, 1);
            assert_eq!(stats.pops, 1);
            match kind {
                // Flushes at: check₁ (1 fact), push (quiescent), check₂
                // (2 facts), check₃ after pop (quiescent), check₄
                // (quiescent).
                BackendKind::Incremental => assert_eq!(stats.quiescence_skips, 3),
                BackendKind::Fresh => assert_eq!(stats.quiescence_skips, 0),
            }
        }
    }

    #[test]
    fn contradictory_scope_proves_anything_until_popped() {
        for kind in BackendKind::ALL {
            let mut s = session(kind);
            s.assert(Term::le(Term::var("n"), Term::int(0)));
            s.push();
            s.assert(Term::le(Term::int(1), Term::var("n")));
            assert_eq!(s.check(&Term::ff()), Verdict::Proved, "{kind}");
            s.pop();
            assert_eq!(s.check(&Term::ff()), Verdict::Unknown, "{kind}");
            assert_eq!(
                s.check(&Term::le(Term::var("n"), Term::int(5))),
                Verdict::Proved,
                "{kind}"
            );
        }
    }

    #[test]
    fn pop_on_root_scope_is_a_noop() {
        for kind in BackendKind::ALL {
            let mut s = session(kind);
            s.assert(Term::eq(Term::var("a"), Term::var("b")));
            s.pop();
            s.pop();
            assert_eq!(
                s.check(&Term::eq(Term::var("a"), Term::var("b"))),
                Verdict::Proved,
                "{kind}: root facts survive stray pops"
            );
        }
    }

    #[test]
    fn facts_of_one_batch_rewrite_under_each_other() {
        // Regression (found in review): a MapPut chain asserted alongside
        // the key disequality that sorts it must saturate to the canonical
        // chain, or the incremental backend answers Unknown where the
        // stateless joint fixpoint proves. Both orders of the facts, and
        // both backends, must prove.
        let put = |m: Term, k: &str, v: i64| {
            Term::app(commcsl_pure::Func::MapPut, [m, Term::var(k), Term::int(v)])
        };
        let m = || Term::var("m");
        let unsorted = put(put(m(), "k2", 2), "k1", 1);
        let sorted = put(put(m(), "k1", 1), "k2", 2);
        for kind in BackendKind::ALL {
            for diseq_first in [true, false] {
                let mut s = session(kind);
                let diseq = Term::not(Term::eq(Term::var("k1"), Term::var("k2")));
                let chain = Term::eq(unsorted.clone(), Term::var("w"));
                if diseq_first {
                    s.assert(diseq);
                    s.assert(chain);
                } else {
                    s.assert(chain);
                    s.assert(diseq);
                }
                assert_eq!(
                    s.check(&Term::eq(sorted.clone(), Term::var("w"))),
                    Verdict::Proved,
                    "{kind}, diseq_first={diseq_first}"
                );
            }
        }
    }

    #[test]
    fn sync_reproduces_check_batch_boundaries() {
        // A replay that skips a check but calls `sync` in its place must
        // leave the session in the same state as the original run: later
        // checks agree, and asserted facts stay live across the sync.
        for kind in BackendKind::ALL {
            let full = |with_middle_check: bool, with_sync: bool| {
                let mut s = session(kind);
                s.assert(Term::le(Term::var("a"), Term::var("b")));
                if with_middle_check {
                    let _ = s.check(&Term::le(Term::var("a"), Term::var("b")));
                } else if with_sync {
                    s.sync();
                }
                s.assert(Term::le(Term::var("b"), Term::var("c")));
                s.check(&Term::le(Term::var("a"), Term::var("c")))
            };
            let original = full(true, false);
            let replayed = full(false, true);
            assert_eq!(original, replayed, "{kind}");
            assert_eq!(original, Verdict::Proved, "{kind}");
        }
        // `sync` never perturbs scope depth.
        for kind in BackendKind::ALL {
            let mut s = session(kind);
            s.push();
            s.assert(Term::le(Term::var("x"), Term::int(3)));
            s.sync();
            assert_eq!(s.depth(), 1, "{kind}");
            assert_eq!(
                s.check(&Term::le(Term::var("x"), Term::int(4))),
                Verdict::Proved,
                "{kind}: synced facts stay live"
            );
            s.pop();
            assert_eq!(
                s.check(&Term::le(Term::var("x"), Term::int(4))),
                Verdict::Unknown,
                "{kind}: popping still discards the synced scope"
            );
        }
    }

    #[test]
    fn interleaved_asserts_and_checks_accumulate() {
        for kind in BackendKind::ALL {
            let mut s = session(kind);
            s.assert(Term::le(Term::var("a"), Term::var("b")));
            assert_eq!(
                s.check(&Term::le(Term::var("a"), Term::var("c"))),
                Verdict::Unknown,
                "{kind}"
            );
            s.assert(Term::le(Term::var("b"), Term::var("c")));
            assert_eq!(
                s.check(&Term::le(Term::var("a"), Term::var("c"))),
                Verdict::Proved,
                "{kind}: later asserts are visible to later checks"
            );
        }
    }
}
