//! Relational symbolic execution (the product construction).
//!
//! The verifier maintains, for every program variable, a pair of symbolic
//! terms — its value in execution 1 and in execution 2 — together with a
//! set of relational hypotheses (`facts`). `Low(e)` obligations become
//! solver queries `facts ⊨ e⟨1⟩ = e⟨2⟩`. Control flow is handled as in
//! modular product programs: effect-free conditionals are merged with
//! `ite` per execution (so *high branching is allowed*, Sec. 3.6), while
//! effectful conditionals and loops must have provably low conditions and
//! execute in lockstep, which is also what justifies the PRE bijection for
//! the actions performed inside (iteration `i` of execution 1 is matched
//! with iteration `i` of execution 2 — the paper's Fig. 5 loop invariant).
//!
//! Obligations are discharged through a [`SolverSession`] opened from the
//! configured backend, driven **lazily**: path facts and control scopes
//! are buffered and replayed into the session (mirrored into solver
//! `push`/`pop`) only before a real solver check, so a scope that closes
//! before any check never reaches the session, and a goal the static
//! pre-pass proves costs no solver work. A skipped check buffers a
//! [`SolverSession::sync`] in its place, so every replay reproduces the
//! assertion batch boundaries of a run that checked each goal. Failed
//! obligations additionally run the falsifier over the collected facts
//! to attach a concrete per-execution counterexample to the report.
//!
//! Every entry point runs this one engine. [`verify_incremental`] also
//! hands it an [`ObligationStore`]: each obligation's dependency-cone key
//! ([`ObligationKey`]) is computed as the execution reaches it, the store
//! is consulted, and only *misses* are discharged — a fully warm
//! re-verification performs no solver work at all. [`verify`],
//! [`verify_with_stats`] and [`solver_trace`] pass no store and derive no
//! keys. Reports are byte-identical either way by construction:
//! descriptions, codes, and spans are recomputed each run, and cached
//! statuses are keyed by everything that can influence them.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use commcsl_analysis::prepass::goal_statically_valid;
use commcsl_logic::spec::{ActionKind, ResourceSpec};
use commcsl_logic::validity::check_validity;
use commcsl_pure::{Func, Sort, Symbol, Term};
use commcsl_smt::falsify::find_counterexample;
use commcsl_smt::{assumption_core, SessionStats, SolverSession, Verdict};

use crate::diag::{Counterexample, DiagnosticCode, Failure, SourceSpan};
use crate::hash::{StableHash, StableHasher};
use crate::minimize::minimize_counterexample;
use crate::obligation::{
    DischargeStats, ObligationEvent, ObligationKey, ObligationStore, ObligationVerdict,
};
use crate::program::{AnnotatedProgram, StmtPath, VStmt};
use crate::report::{
    CoreFact, Lint, LintCode, ObligationResult, ObligationStatus, VerifierConfig, VerifierReport,
};

/// Verifies an annotated program; see the crate docs for the obligations
/// generated.
///
/// This is the single-program engine. Callers verifying batches, wanting
/// caching, or configuring backends should prefer the unified
/// [`Verifier`](crate::api::Verifier) builder, which routes through this
/// function and guarantees byte-identical reports.
pub fn verify(program: &AnnotatedProgram, config: &VerifierConfig) -> VerifierReport {
    verify_with_stats(program, config).0
}

/// [`verify`], plus the run's [`DischargeStats`] (how each obligation was
/// discharged: solver check vs. static pre-pass), per-obligation
/// wall-clock times in report order, and the solver session's cumulative
/// [`SessionStats`]. The session counts only the work that reached it:
/// facts and scopes are replayed into it before a real check, so a
/// program whose path obligations the pre-pass proves reports none.
/// Spec-validity checks run their own sessions inside `commcsl-logic`
/// and are not aggregated here. The report is the same value [`verify`]
/// returns; the extras are diagnostic payload that never enters reports,
/// hashes, or caches.
pub fn verify_with_stats(
    program: &AnnotatedProgram,
    config: &VerifierConfig,
) -> (VerifierReport, DischargeStats, Vec<Duration>, SessionStats) {
    let _span = commcsl_telemetry::span!("symexec.program", program = program.name);
    let mut exec = Exec::new(program, config, None);
    exec.run_body(&program.body);
    let report = exec.finish();
    (
        report,
        exec.stats,
        std::mem::take(&mut exec.obligation_times),
        exec.session.inner.stats(),
    )
}

/// Verifies a program against an [`ObligationStore`]: obligations whose
/// dependency-cone key hits the store replay their cached status without
/// touching the solver; misses are discharged exactly as [`verify`]
/// discharges them and recorded. `on_event` fires once per obligation,
/// in report order, as it settles.
///
/// The returned report is **byte-identical** to `verify(program, config)`
/// whatever mix of hits and misses served it — the property the
/// [`Workspace`](crate::workspace::Workspace) API and the daemon's
/// incremental re-verification are built on.
pub fn verify_incremental(
    program: &AnnotatedProgram,
    config: &VerifierConfig,
    store: &mut dyn ObligationStore,
    on_event: &mut dyn FnMut(&ObligationEvent<'_>),
) -> (VerifierReport, DischargeStats) {
    let (report, stats, _) = verify_incremental_reusing(program, config, store, on_event, &[]);
    (report, stats)
}

/// The key of each obligation a run settled, in settle order, with the
/// index of the top-level statement executing when it settled (`None`
/// for the retroactive obligations settled after the body).
pub(crate) type SettledKeys = Vec<(Option<u32>, ObligationKey)>;

/// [`verify_incremental`] that takes the keys of its first `reuse.len()`
/// obligations from `reuse` instead of deriving them, and returns every
/// key it settled. A run's obligations are settled in execution order
/// and the execution never reads ahead, so the keys settled during the
/// top-level statements before the first one that differs from a
/// previous run's program (same resources, same configuration) are that
/// run's keys.
pub(crate) fn verify_incremental_reusing(
    program: &AnnotatedProgram,
    config: &VerifierConfig,
    store: &mut dyn ObligationStore,
    on_event: &mut dyn FnMut(&ObligationEvent<'_>),
    reuse: &[(Option<u32>, ObligationKey)],
) -> (VerifierReport, DischargeStats, SettledKeys) {
    let _span = commcsl_telemetry::span!("symexec.program", program = program.name);
    let keyed = Keyed::new(config, store, on_event, reuse);
    let mut exec = Exec::new(program, config, Some(keyed));
    exec.run_body(&program.body);
    let report = exec.finish();
    let settled = exec.keyed.take().map(|k| k.settled).unwrap_or_default();
    (report, exec.stats, settled)
}

/// One event of a program's solver-session interaction, as recorded by
/// [`solver_trace`]. The stream is the exact sequence of calls the
/// symbolic execution makes on its [`SolverSession`]: the scoped path
/// facts replayed before each check, and one `Check` per program proof
/// obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverEvent {
    /// A fact scope opened (effectful branch, loop body).
    Push,
    /// The matching scope closed.
    Pop,
    /// A relational path fact asserted in the current scope.
    Assert(Term),
    /// A proof obligation checked against the accumulated facts.
    Check {
        /// Obligation-local hypotheses (empty for plain checks).
        assumptions: Vec<Term>,
        /// The goal.
        goal: Term,
    },
}

/// Records the solver-session event stream the symbolic execution of
/// `program` produces — the incremental-solving workload itself, decoupled
/// from the engine that discharges it. Replaying the stream against any
/// [`SolverSession`] reproduces the program's obligation verdicts; the
/// `commcsl-bench` `incremental_solver` harness uses exactly this to
/// compare backends on identical workloads. The static pre-pass is
/// disabled during recording so the trace covers *every* obligation, not
/// just the ones a normal run sends to the solver. Facts and scopes
/// appear as the lazy session replays them before each check: at every
/// `Check` the live facts are exactly the path facts in scope, and a
/// scope no check ran inside is absent. (Specification-validity
/// obligations run in their own session inside `commcsl-logic` and are
/// not part of the stream.)
pub fn solver_trace(program: &AnnotatedProgram, config: &VerifierConfig) -> Vec<SolverEvent> {
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug)]
    struct Recorder {
        inner: Box<dyn SolverSession>,
        log: Rc<RefCell<Vec<SolverEvent>>>,
    }

    impl SolverSession for Recorder {
        fn push(&mut self) {
            self.log.borrow_mut().push(SolverEvent::Push);
            self.inner.push();
        }
        fn pop(&mut self) {
            self.log.borrow_mut().push(SolverEvent::Pop);
            self.inner.pop();
        }
        fn assert(&mut self, fact: Term) {
            self.log.borrow_mut().push(SolverEvent::Assert(fact.clone()));
            self.inner.assert(fact);
        }
        fn check(&mut self, goal: &Term) -> Verdict {
            self.log.borrow_mut().push(SolverEvent::Check {
                assumptions: Vec::new(),
                goal: goal.clone(),
            });
            self.inner.check(goal)
        }
        fn check_assuming(&mut self, assumptions: Vec<Term>, goal: &Term) -> Verdict {
            self.log.borrow_mut().push(SolverEvent::Check {
                assumptions: assumptions.clone(),
                goal: goal.clone(),
            });
            self.inner.check_assuming(assumptions, goal)
        }
        fn sync(&mut self) {
            // Only a skipped check buffers a sync. With the pre-pass off
            // and no store no check is skipped, so a recording never
            // reaches this; it is forwarded without an event regardless.
            self.inner.sync();
        }
        fn depth(&self) -> usize {
            self.inner.depth()
        }
        fn stats(&self) -> commcsl_smt::SessionStats {
            self.inner.stats()
        }
    }

    // The event stream does not depend on verdicts (the execution never
    // branches on an obligation's outcome), so trace without the
    // falsifier to keep recording cheap. The static pre-pass is disabled
    // so statically dischargeable goals still appear as `Check` events:
    // the trace is the program's *full* solver workload, which is what
    // backend-comparison replays need.
    let mut config = config.clone();
    config.counterexamples = false;
    config.static_prepass = false;
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut exec = Exec::new(program, &config, None);
    exec.session = LazySession::new(Box::new(Recorder {
        inner: config.backend.open_session(config.solver.clone()),
        log: log.clone(),
    }));
    exec.run_body(&program.body);
    let _ = exec.finish();
    drop(exec);
    Rc::try_unwrap(log).expect("recorder dropped with the exec").into_inner()
}

/// A recorded batch of action applications on a shared resource.
#[derive(Debug, Clone)]
struct Batch {
    action: Symbol,
    /// `true` when the batch was performed in lockstep (low control flow):
    /// the PRE bijection is the iteration correspondence and the per-side
    /// counts are equal by construction.
    lockstep: bool,
    /// Per-side repetition count (product of the enclosing multipliers).
    count: (Term, Term),
}

#[derive(Debug, Clone)]
enum ResState {
    Idle,
    Shared {
        ledger: Vec<Batch>,
        /// Unique action name → worker that owns it.
        owners: BTreeMap<Symbol, Option<usize>>,
        /// Consume-bindings: (bound per-side vars, per-side index terms).
        /// At `unshare` these become facts `bound = index(snd(final), i)`.
        reads: Vec<((Term, Term), (Term, Term))>,
    },
    Consumed,
}

/// The non-status half of an [`ObligationResult`] plus its proving site
/// — what [`Exec::settle`] needs besides the goal.
struct ObligationMeta {
    description: String,
    code: DiagnosticCode,
    span: Option<SourceSpan>,
    path: StmtPath,
}

/// What an obligation proves.
#[derive(Clone, Copy)]
enum Goal<'g> {
    /// A path obligation: the goal, checked against the live path facts.
    Path(&'g Term),
    /// `Low(e)` as a path obligation: the goal `e[σ₁] = e[σ₂]` under each
    /// execution's bindings. [`Exec::settle`] builds it only to discharge
    /// it (or to take its proof core); a store hit needs just its key.
    Low(&'g Term, &'g (Bindings, Bindings)),
    /// A resource spec's validity (Def. 3.1). It never reads the path
    /// condition, so it is session-free, its cone is empty, and the
    /// pre-pass does not apply (it quantifies over action pairs, never a
    /// single goal term).
    SpecValidity(&'g ResourceSpec),
}

/// One execution's substitution of symbolic terms for program variables.
type Bindings = BTreeMap<Symbol, Term>;

/// A queued retroactive obligation: its report half and its goal.
struct Deferred {
    meta: ObligationMeta,
    goal: Term,
}

/// A buffered session operation, replayed into the real
/// [`SolverSession`] only when a solver check needs it. `Sync` stands
/// where a *skipped* check (a static discharge or a store hit) used to
/// be, so replay reproduces the assertion batch boundaries of a run that
/// checked it.
enum PendingOp {
    Push,
    Pop,
    Assert(Term),
    Sync,
}

/// The solver session behind the path condition, driven lazily: facts
/// and scopes are buffered and reach the session only before a check.
struct LazySession {
    inner: Box<dyn SolverSession>,
    /// Session operations not yet applied to the real session.
    pending: Vec<PendingOp>,
    /// `(replays, pending.len())` at each open scope: when nothing was
    /// replayed since the scope opened, closing it simply truncates the
    /// buffer; otherwise a real `Pop` must be buffered.
    pending_marks: Vec<(u64, usize)>,
    /// Number of times `pending` has been replayed into the session.
    replays: u64,
}

impl LazySession {
    fn new(inner: Box<dyn SolverSession>) -> Self {
        LazySession {
            inner,
            pending: Vec::new(),
            pending_marks: Vec::new(),
            replays: 0,
        }
    }

    fn assert(&mut self, fact: Term) {
        self.pending.push(PendingOp::Assert(fact));
    }

    fn push(&mut self) {
        self.pending_marks.push((self.replays, self.pending.len()));
        self.pending.push(PendingOp::Push);
    }

    fn pop(&mut self) {
        let (generation, mark) = self.pending_marks.pop().expect("pop without push");
        if generation == self.replays {
            // The whole scope is still buffered: cancel it without the
            // session ever seeing it.
            self.pending.truncate(mark);
        } else {
            // Part of the scope reached the session (a check ran
            // inside): buffer the matching pop.
            self.pending.push(PendingOp::Pop);
        }
    }

    /// Stands in for a check that was skipped: it still closed an
    /// assertion batch in a run that checked it (an incremental backend
    /// saturates per batch), so later verdicts match bit for bit.
    fn skip(&mut self) {
        self.pending.push(PendingOp::Sync);
    }

    /// Replays every buffered operation, then checks `goal`.
    fn check(&mut self, goal: &Term) -> Verdict {
        for op in self.pending.drain(..) {
            match op {
                PendingOp::Push => self.inner.push(),
                PendingOp::Pop => self.inner.pop(),
                PendingOp::Assert(fact) => self.inner.assert(fact),
                PendingOp::Sync => self.inner.sync(),
            }
        }
        self.replays += 1;
        self.inner.check(goal)
    }
}

/// The obligation-store half of a run, present only when the caller
/// passed a store ([`verify_incremental`]): the only place keys are
/// derived.
struct Keyed<'b> {
    store: &'b mut dyn ObligationStore,
    sink: &'b mut dyn FnMut(&ObligationEvent<'_>),
    /// One hasher per open fact scope, each extending its parent: the top
    /// hasher is the running digest of every *live* session event
    /// (asserts with their free-variable sorts, scope pushes, check/sync
    /// boundaries) plus the verdict-relevant configuration — cloning it
    /// and feeding the goal yields the obligation's dependency-cone key.
    /// Popping a scope discards its contribution entirely, mirroring the
    /// solver's exact rollback.
    ctx: Vec<StableHasher>,
    /// Keys of the first obligations, known from a previous run.
    reuse: &'b [(Option<u32>, ObligationKey)],
    /// Every key settled so far.
    settled: SettledKeys,
}

impl<'b> Keyed<'b> {
    fn new(
        config: &VerifierConfig,
        store: &'b mut dyn ObligationStore,
        sink: &'b mut dyn FnMut(&ObligationEvent<'_>),
        reuse: &'b [(Option<u32>, ObligationKey)],
    ) -> Self {
        let mut root = StableHasher::new();
        root.tag("obligation-ctx");
        config.stable_hash(&mut root);
        Keyed {
            store,
            sink,
            ctx: vec![root],
            reuse,
            settled: Vec::new(),
        }
    }

    /// The current context digest (top of the scope stack).
    fn top(&mut self) -> &mut StableHasher {
        self.ctx.last_mut().expect("root context never pops")
    }

    /// The dependency-cone key of `goal`: the live-context digest
    /// (config, scoped facts, batch boundaries) plus the goal and the
    /// sorts steering its falsification. A spec's validity never reads
    /// the path condition, so its cone is just the specification and the
    /// config — the same spec shared from anywhere (any document, any
    /// edit) replays one cached status.
    fn key(
        &self,
        goal: Goal<'_>,
        config: &VerifierConfig,
        var_sorts: &BTreeMap<Symbol, Sort>,
    ) -> ObligationKey {
        match goal {
            Goal::Path(term) => {
                let mut h = self.ctx.last().expect("root context").clone();
                h.tag("goal");
                feed_term(&mut h, term, &Bindings::new(), var_sorts);
                ObligationKey::from_hasher(&h)
            }
            Goal::Low(e, (side1, side2)) => {
                // The bytes of the `Path` key of `Term::eq(e[σ₁], e[σ₂])`.
                let mut h = self.ctx.last().expect("root context").clone();
                h.tag("goal");
                feed_app(&mut h, &Func::Eq, 2);
                feed_term(&mut h, e, side1, var_sorts);
                feed_term(&mut h, e, side2, var_sorts);
                ObligationKey::from_hasher(&h)
            }
            Goal::SpecValidity(spec) => {
                let mut h = StableHasher::new();
                h.tag("obligation.spec-validity");
                spec.stable_hash(&mut h);
                config.stable_hash(&mut h);
                ObligationKey::from_hasher(&h)
            }
        }
    }
}

/// Feeds `term.subst(bindings)` into an obligation-key hasher in one
/// traversal, without building it, annotating every variable occurrence
/// with its registered sort (the falsifier's steering inputs). Equivalent
/// to hashing the term and its free-variable sort map, without
/// materializing the variable set.
fn feed_term(
    h: &mut StableHasher,
    term: &Term,
    bindings: &Bindings,
    var_sorts: &BTreeMap<Symbol, Sort>,
) {
    match term {
        Term::Var(x) => match bindings.get(x) {
            Some(bound) => feed_term(h, bound, &Bindings::new(), var_sorts),
            None => {
                h.tag("term.var");
                x.stable_hash(h);
                match var_sorts.get(x) {
                    Some(sort) => sort.stable_hash(h),
                    None => h.tag("sort.absent"),
                }
            }
        },
        Term::Lit(v) => {
            h.tag("term.lit");
            v.stable_hash(h);
        }
        Term::App(f, args) => {
            feed_app(h, f, args.len());
            for arg in args.iter() {
                feed_term(h, arg, bindings, var_sorts);
            }
        }
    }
}

/// Feeds the head of an application node, before its arguments.
fn feed_app(h: &mut StableHasher, f: &Func, arity: usize) {
    h.tag("term.app");
    f.stable_hash(h);
    h.write_usize(arity);
}

struct Exec<'a, 'b> {
    program: &'a AnnotatedProgram,
    config: &'a VerifierConfig,
    /// The solver session mirroring the path condition; goals are
    /// checked against it.
    session: LazySession,
    /// The obligation store and its key derivation, when the caller
    /// passed a store.
    keyed: Option<Keyed<'b>>,
    /// How each obligation was discharged so far.
    stats: DischargeStats,
    /// The raw relational hypotheses, kept in parallel with the session
    /// scopes for the falsifier (which replays them on ground values).
    facts: Vec<Term>,
    /// Statement path that asserted each live fact (parallel to `facts`)
    /// — the fact half of each obligation's dependency cone, and the site
    /// map proof cores resolve their fact indices through.
    fact_origins: Vec<StmtPath>,
    /// Free variables of each live fact (parallel to `facts`) when
    /// proof-core tracking is on, empty otherwise: the input of
    /// [`assumption_core`], computed once per fact instead of once per
    /// obligation.
    fact_vars: Vec<BTreeSet<Symbol>>,
    /// `unshare` sites whose abstraction-equality assumption counts as a
    /// user annotation: `(path, resource name)`. Recorded only when
    /// proof-core tracking is on; [`Exec::collect_hints`] reports the
    /// sites no proved obligation's core reached.
    annotation_sites: Vec<(StmtPath, Symbol)>,
    store: BTreeMap<Symbol, (Term, Term)>,
    /// Sorts of the symbolic variables minted so far (for countermodel
    /// search; `Sort::Unknown` disables falsification of goals that
    /// mention the variable).
    var_sorts: BTreeMap<Symbol, Sort>,
    resources: Vec<ResState>,
    fresh: usize,
    /// Per-side multipliers from enclosing low conditionals and loops.
    multipliers: Vec<(Term, Term)>,
    current_worker: Option<usize>,
    /// Statement path of the statement currently executing (see
    /// [`crate::program::StmtPath`]); used to look up source spans.
    path: Vec<u32>,
    obligations: Vec<ObligationResult>,
    errors: Vec<String>,
    /// Retroactive obligations, discharged at the end of the program with
    /// the final fact set.
    deferred: Vec<Deferred>,
    /// Wall-clock settle time per obligation, in report order.
    /// Diagnostic payload only — never in reports or keys.
    obligation_times: Vec<Duration>,
}

impl<'a, 'b> Exec<'a, 'b> {
    fn new(
        program: &'a AnnotatedProgram,
        config: &'a VerifierConfig,
        keyed: Option<Keyed<'b>>,
    ) -> Self {
        Exec {
            program,
            config,
            session: LazySession::new(config.backend.open_session(config.solver.clone())),
            keyed,
            stats: DischargeStats::default(),
            facts: Vec::new(),
            fact_origins: Vec::new(),
            fact_vars: Vec::new(),
            annotation_sites: Vec::new(),
            store: BTreeMap::new(),
            var_sorts: BTreeMap::new(),
            resources: vec![ResState::Idle; program.resources.len()],
            fresh: 0,
            multipliers: Vec::new(),
            current_worker: None,
            path: Vec::new(),
            obligations: Vec::new(),
            errors: Vec::new(),
            deferred: Vec::new(),
            obligation_times: Vec::new(),
        }
    }

    fn finish(&mut self) -> VerifierReport {
        // Retroactive obligations: proved against the final fact set, which
        // includes everything learned from later unshares.
        let deferred = std::mem::take(&mut self.deferred);
        for d in deferred {
            self.settle(d.meta, Goal::Path(&d.goal));
        }
        for (i, r) in self.resources.iter().enumerate() {
            if matches!(r, ResState::Shared { .. }) {
                self.errors
                    .push(format!("resource {i} is still shared at program end"));
            }
        }
        let hints = self.collect_hints();
        VerifierReport {
            program: self.program.name.clone(),
            obligations: std::mem::take(&mut self.obligations),
            errors: std::mem::take(&mut self.errors),
            hints,
        }
    }

    /// Aggregates proof cores into "unneeded annotation" hints: `unshare`
    /// sites whose abstraction-equality assumption no proved obligation's
    /// core reaches. Emitted only for fully verified programs — on a
    /// failure or structural error the conservative reading is that every
    /// annotation may still be needed to finish the proof.
    fn collect_hints(&self) -> Vec<Lint> {
        if !self.config.proof_cores || !self.errors.is_empty() {
            return Vec::new();
        }
        if self
            .obligations
            .iter()
            .any(|o| !matches!(o.status, ObligationStatus::Proved))
        {
            return Vec::new();
        }
        let needed: BTreeSet<&StmtPath> = self
            .obligations
            .iter()
            .flat_map(|o| o.core.iter().flatten())
            .map(|c| &c.path)
            .collect();
        let mut hints: Vec<Lint> = self
            .annotation_sites
            .iter()
            .filter(|(path, _)| !needed.contains(path))
            .map(|(path, resource)| Lint {
                code: LintCode::UnneededAnnotation,
                severity: LintCode::UnneededAnnotation.severity(),
                path: path.clone(),
                span: self.program.span_at(path),
                message: format!(
                    "no proved obligation needed the abstraction equality from \
                     unsharing resource `{resource}`; the `alpha` annotation \
                     carries no proof here"
                ),
            })
            .collect();
        hints.sort_by(|a, b| a.path.cmp(&b.path));
        hints
    }

    // ------------------------------------------------------------- helpers

    fn fresh_low(&mut self, hint: &str, sort: Sort) -> (Term, Term) {
        self.fresh += 1;
        let name = Symbol::new(format!("ν{}_{hint}", self.fresh));
        self.var_sorts.insert(name.clone(), sort);
        let v = Term::Var(name);
        (v.clone(), v)
    }

    fn fresh_high(&mut self, hint: &str, sort: Sort) -> (Term, Term) {
        self.fresh += 1;
        let n1 = Symbol::new(format!("ν{}_{hint}@1", self.fresh));
        let n2 = Symbol::new(format!("ν{}_{hint}@2", self.fresh));
        self.var_sorts.insert(n1.clone(), sort.clone());
        self.var_sorts.insert(n2.clone(), sort);
        (Term::Var(n1), Term::Var(n2))
    }

    /// Records a relational fact: into the raw list (for the falsifier),
    /// into the session's buffer (for proofs) and, when the run has a
    /// store, into the context digest (with its free-variable sorts).
    fn push_fact(&mut self, fact: Term) {
        if self.config.proof_cores {
            self.fact_vars.push(fact.free_vars());
        }
        if let Some(keyed) = &mut self.keyed {
            let top = keyed.top();
            top.tag("assert");
            feed_term(top, &fact, &Bindings::new(), &self.var_sorts);
        }
        self.facts.push(fact.clone());
        self.fact_origins.push(self.path.clone());
        self.session.assert(fact);
    }

    /// Opens a fact scope (solver session + raw list mark).
    fn begin_scope(&mut self) -> usize {
        if let Some(keyed) = &mut self.keyed {
            let mut child = keyed.top().clone();
            child.tag("push");
            keyed.ctx.push(child);
        }
        self.session.push();
        self.facts.len()
    }

    /// Closes a fact scope opened by [`Exec::begin_scope`].
    fn end_scope(&mut self, mark: usize) {
        if let Some(keyed) = &mut self.keyed {
            keyed.ctx.pop();
        }
        self.session.pop();
        self.facts.truncate(mark);
        self.fact_origins.truncate(mark);
        self.fact_vars.truncate(mark);
    }

    /// Evaluates a program expression to its per-side symbolic terms.
    fn eval(&mut self, e: &Term) -> (Term, Term) {
        let (bind1, bind2) = self.bindings(e);
        (e.subst(&bind1), e.subst(&bind2))
    }

    /// The per-side bindings [`Exec::eval`] substitutes into `e`: each
    /// free program variable's symbolic terms, or a fresh pair (and an
    /// error) for an unbound one.
    fn bindings(&mut self, e: &Term) -> (Bindings, Bindings) {
        let mut bind1 = BTreeMap::new();
        let mut bind2 = BTreeMap::new();
        for x in e.free_vars() {
            match self.store.get(&x) {
                Some((t1, t2)) => {
                    bind1.insert(x.clone(), t1.clone());
                    bind2.insert(x.clone(), t2.clone());
                }
                None => {
                    self.errors
                        .push(format!("use of unbound program variable `{x}`"));
                    let (t1, t2) = self.fresh_high(x.as_str(), Sort::Unknown);
                    bind1.insert(x.clone(), t1);
                    bind2.insert(x.clone(), t2);
                }
            }
        }
        (bind1, bind2)
    }

    /// The report half of an obligation raised by the statement
    /// currently executing.
    fn meta_here(&self, description: String, code: DiagnosticCode) -> ObligationMeta {
        ObligationMeta {
            description,
            code,
            span: self.program.span_at(&self.path),
            path: self.path.clone(),
        }
    }

    fn prove(&mut self, description: impl Into<String>, code: DiagnosticCode, goal: Term) {
        let meta = self.meta_here(description.into(), code);
        self.settle(meta, Goal::Path(&goal));
    }

    /// The proof core of a goal about to be (or just) proved, when
    /// tracking is on: the statement paths of the facts
    /// [`assumption_core`] admits, resolved through `fact_origins`,
    /// deduplicated and sorted. `None` when the knob is off.
    fn core_candidate(&self, goal: &Term) -> Option<Vec<CoreFact>> {
        if !self.config.proof_cores {
            return None;
        }
        let mut paths: Vec<StmtPath> = assumption_core(&self.fact_vars, goal)
            .into_iter()
            .map(|i| self.fact_origins[i].clone())
            .collect();
        paths.sort();
        paths.dedup();
        Some(
            paths
                .into_iter()
                .map(|path| {
                    let span = self.program.span_at(&path);
                    CoreFact { path, span }
                })
                .collect(),
        )
    }

    /// Settles one obligation — the one discharge path of every goal.
    /// With a store, the goal's key is derived and looked up first; a
    /// miss, or a run without a store, tries the static pre-pass before
    /// the solver. Every status computed enters the store. Then the
    /// obligation is accounted, its event emitted (with a store), and its
    /// result pushed.
    ///
    /// A path goal interacts with the solver session: a skipped check
    /// (store hit or static discharge) buffers a `Sync`, a real check
    /// replays the buffer first, and either way the obligation is a batch
    /// boundary for what follows. Its cone is the live facts.
    fn settle(&mut self, meta: ObligationMeta, goal: Goal<'_>) {
        let index = self.obligations.len();
        let key = self.keyed.as_mut().map(|keyed| {
            let key = match keyed.reuse.get(index) {
                Some(&(_, key)) => key,
                None => keyed.key(goal, self.config, &self.var_sorts),
            };
            keyed.settled.push((self.path.first().copied(), key));
            key
        });
        let _span = commcsl_telemetry::span!("symexec.obligation", index = self.obligations.len());
        let started = Instant::now();
        let reused = match (&mut self.keyed, key) {
            (Some(keyed), Some(key)) => keyed.store.get(key),
            _ => None,
        };
        // A `Low` goal is built only when something reads the term: a
        // discharge, or a proof core.
        let built = match goal {
            Goal::Low(e, (side1, side2)) if reused.is_none() || self.config.proof_cores => {
                Some(Term::eq(e.subst(side1), e.subst(side2)))
            }
            _ => None,
        };
        let goal = built.as_ref().map_or(goal, Goal::Path);
        let (status, verdict) = match (reused, goal) {
            (Some(status), Goal::Path(_) | Goal::Low(..)) => {
                self.session.skip();
                (status, ObligationVerdict::Reused)
            }
            (Some(status), Goal::SpecValidity(_)) => (status, ObligationVerdict::Reused),
            (None, Goal::Path(term))
                if self.config.static_prepass && goal_statically_valid(term) =>
            {
                // The solver never sees a statically valid goal.
                self.session.skip();
                (
                    ObligationStatus::Proved,
                    ObligationVerdict::StaticallyProven,
                )
            }
            (None, Goal::Path(term)) => {
                (self.solver_status(term), ObligationVerdict::SolverChecked)
            }
            (None, Goal::SpecValidity(spec)) => (
                self.spec_validity_status(spec),
                ObligationVerdict::SolverChecked,
            ),
            (None, Goal::Low(..)) => unreachable!("a discharged Low goal is built"),
        };
        if let (Some(keyed), Some(key)) = (&mut self.keyed, key) {
            if verdict != ObligationVerdict::Reused {
                keyed.store.put(key, &status);
            }
            if !matches!(goal, Goal::SpecValidity(_)) {
                keyed.top().tag("flush");
            }
        }
        self.stats.record(verdict);
        // The core is purely syntactic (facts + goal), so every route
        // computes the same one. Spec validity never reads the path
        // condition: its core is the empty fact set.
        let core = match (&status, goal) {
            (ObligationStatus::Proved, Goal::Path(term)) => self.core_candidate(term),
            // Unbuilt, so proof cores are off.
            (ObligationStatus::Proved, Goal::Low(..)) => None,
            (ObligationStatus::Proved, Goal::SpecValidity(_)) => {
                self.config.proof_cores.then(Vec::new)
            }
            (ObligationStatus::Failed(_), _) => None,
        };
        let result = ObligationResult {
            description: meta.description,
            code: meta.code,
            span: meta.span,
            status,
            core,
        };
        let time = started.elapsed();
        if let (Some(keyed), Some(key)) = (&mut self.keyed, key) {
            let cone: &[StmtPath] = match goal {
                Goal::Path(_) | Goal::Low(..) => &self.fact_origins,
                Goal::SpecValidity(_) => &[],
            };
            (keyed.sink)(&ObligationEvent {
                index: self.obligations.len(),
                key,
                path: &meta.path,
                cone,
                result: &result,
                verdict,
                time,
            });
        }
        self.obligation_times.push(time);
        self.obligations.push(result);
    }

    /// Discharges one goal against the session: a solver check plus, on
    /// failure, the falsifier hunt.
    fn solver_status(&mut self, goal: &Term) -> ObligationStatus {
        match self.session.check(goal) {
            Verdict::Proved => ObligationStatus::Proved,
            _ => {
                let mut failure = Failure::new(format!("not provable: {goal:?}"));
                if let Some(env) = self.try_falsify(goal) {
                    failure = failure.with_counterexample(Counterexample::from_env(&env));
                }
                ObligationStatus::Failed(failure)
            }
        }
    }

    /// Hunts for a concrete falsifying assignment for a failed goal.
    /// Possible only when every free symbolic variable of the query has a
    /// known sort (fresh variables minted for havocs and merges do not).
    /// With [`VerifierConfig::minimize_counterexamples`] on, the found
    /// environment is delta-debugged down to a minimal fact cone before
    /// it is reported.
    fn try_falsify(&self, goal: &Term) -> Option<commcsl_pure::term::Env> {
        if !self.config.counterexamples {
            return None;
        }
        let mut vars: Vec<Symbol> = goal.free_vars().into_iter().collect();
        for fact in &self.facts {
            vars.extend(fact.free_vars());
        }
        vars.sort();
        vars.dedup();
        let mut sorts: BTreeMap<Symbol, Sort> = BTreeMap::new();
        for v in vars {
            match self.var_sorts.get(&v) {
                Some(sort) if *sort != Sort::Unknown => {
                    sorts.insert(v, sort.clone());
                }
                _ => return None,
            }
        }
        let env = find_counterexample(&self.facts, goal, &sorts, &self.config.falsify)?;
        if !self.config.minimize_counterexamples {
            return Some(env);
        }
        Some(
            minimize_counterexample(
                &self.facts,
                goal,
                &sorts,
                &self.config.falsify,
                self.config.backend,
                &self.config.solver,
                env,
            )
            .env,
        )
    }

    fn prove_low(&mut self, description: String, code: DiagnosticCode, e: &Term) {
        let bindings = self.bindings(e);
        let meta = self.meta_here(description, code);
        self.settle(meta, Goal::Low(e, &bindings));
    }

    /// The per-side repetition count of an action performed at the current
    /// control point (product of enclosing multipliers).
    fn current_count(&self, extra: Option<&(Term, Term)>) -> (Term, Term) {
        let mut c1 = Term::int(1);
        let mut c2 = Term::int(1);
        for (m1, m2) in self.multipliers.iter().chain(extra) {
            c1 = Term::mul(c1, m1.clone());
            c2 = Term::mul(c2, m2.clone());
        }
        (c1, c2)
    }

    // ---------------------------------------------------------- statements

    fn run_body(&mut self, body: &[VStmt]) {
        self.run_body_at(body, 0);
    }

    /// Runs a statement list whose members live at path component
    /// `offset..offset + body.len()` under the current path (see
    /// [`crate::program::StmtPath`] for the offset conventions).
    fn run_body_at(&mut self, body: &[VStmt], offset: u32) {
        for (i, stmt) in body.iter().enumerate() {
            self.path.push(offset + i as u32);
            self.run_stmt(stmt);
            self.path.pop();
        }
    }

    fn run_stmt(&mut self, stmt: &VStmt) {
        match stmt {
            VStmt::Input { var, sort, low } => {
                let pair = if *low {
                    self.fresh_low(var.as_str(), sort.clone())
                } else {
                    self.fresh_high(var.as_str(), sort.clone())
                };
                self.store.insert(var.clone(), pair);
            }
            VStmt::Assign(x, e) => {
                let pair = self.eval(e);
                self.store.insert(x.clone(), pair);
            }
            VStmt::AssertLow(e) => {
                self.prove_low(format!("assert Low({e:?})"), DiagnosticCode::LowAssert, e)
            }
            VStmt::Output(e) => self.prove_low(
                format!("output requires Low({e:?})"),
                DiagnosticCode::LowOutput,
                e,
            ),
            VStmt::If {
                cond,
                then_b,
                else_b,
            } => self.run_if(cond, then_b, else_b),
            VStmt::For {
                var,
                from,
                to,
                body,
            } => self.run_for(var, from, to, body),
            VStmt::Share { resource, init } => self.run_share(*resource, init),
            VStmt::Par { workers } => self.run_par(workers),
            VStmt::Atomic {
                resource,
                action,
                arg,
            } => self.run_atomic(*resource, action, arg, None),
            VStmt::AtomicBatch {
                resource,
                action,
                arg,
                count,
            } => {
                let count_pair = self.eval(count);
                self.run_atomic(*resource, action, arg, Some(count_pair));
            }
            VStmt::AtomicDeferred {
                resource,
                action,
                arg,
            } => self.run_atomic_deferred(*resource, action, arg),
            VStmt::ConsumeBind {
                resource,
                action,
                var,
                index,
            } => self.run_consume_bind(*resource, action, var, index),
            VStmt::Unshare { resource, into } => self.run_unshare(*resource, into),
        }
    }

    /// Like [`Exec::run_atomic`], but queues the precondition for the end
    /// of the program (the paper's retroactive check for the pipeline).
    fn run_atomic_deferred(&mut self, resource: usize, action: &Symbol, arg: &Term) {
        // Structural bookkeeping identical to a normal atomic...
        self.run_atomic_inner(resource, action, arg, None, true);
    }

    fn run_consume_bind(
        &mut self,
        resource: usize,
        action: &Symbol,
        var: &Symbol,
        index: &Term,
    ) {
        // Structurally a normal atomic with a unit argument.
        self.run_atomic_inner(
            resource,
            action,
            &Term::Lit(commcsl_pure::Value::Unit),
            None,
            false,
        );
        let bound = self.fresh_high(var.as_str(), Sort::Unknown);
        let idx = self.eval(index);
        if let ResState::Shared { reads, .. } = &mut self.resources[resource] {
            reads.push((bound.clone(), idx));
        }
        self.store.insert(var.clone(), bound);
    }

    fn run_if(&mut self, cond: &Term, then_b: &[VStmt], else_b: &[VStmt]) {
        let (c1, c2) = self.eval(cond);
        let effectful = then_b.iter().chain(else_b).any(VStmt::has_effects);
        if effectful {
            // Lockstep conditional: the condition must be low.
            self.prove(
                format!("effectful branch condition Low({cond:?})"),
                DiagnosticCode::LowBranch,
                Term::eq(c1.clone(), c2.clone()),
            );
            // Both branches run with the appropriate multiplier; variables
            // they assign are merged by ite.
            let saved_store = self.store.clone();

            let mark = self.begin_scope();
            self.multipliers.push((
                Term::ite(c1.clone(), Term::int(1), Term::int(0)),
                Term::ite(c2.clone(), Term::int(1), Term::int(0)),
            ));
            self.push_fact(c1.clone());
            self.push_fact(c2.clone());
            self.run_body_at(then_b, 0);
            let then_store = std::mem::replace(&mut self.store, saved_store.clone());
            self.end_scope(mark);
            self.multipliers.pop();

            let mark = self.begin_scope();
            self.multipliers.push((
                Term::ite(c1.clone(), Term::int(0), Term::int(1)),
                Term::ite(c2.clone(), Term::int(0), Term::int(1)),
            ));
            self.push_fact(Term::not(c1.clone()));
            self.push_fact(Term::not(c2.clone()));
            self.run_body_at(else_b, then_b.len() as u32);
            let else_store = std::mem::replace(&mut self.store, saved_store);
            self.end_scope(mark);
            self.multipliers.pop();

            self.merge_stores(&c1, &c2, then_store, else_store);
        } else {
            // Pure branches: evaluate both and merge per side — the
            // executions may take different branches (high branching).
            let saved_store = self.store.clone();
            self.run_body_at(then_b, 0);
            let then_store = std::mem::replace(&mut self.store, saved_store.clone());
            self.run_body_at(else_b, then_b.len() as u32);
            let else_store = std::mem::replace(&mut self.store, saved_store);
            self.merge_stores(&c1, &c2, then_store, else_store);
        }
    }

    fn merge_stores(
        &mut self,
        c1: &Term,
        c2: &Term,
        then_store: BTreeMap<Symbol, (Term, Term)>,
        else_store: BTreeMap<Symbol, (Term, Term)>,
    ) {
        let mut vars: Vec<Symbol> = then_store.keys().cloned().collect();
        vars.extend(else_store.keys().cloned());
        vars.sort();
        vars.dedup();
        for x in vars {
            let base = self.store.get(&x).cloned();
            let t = then_store.get(&x).cloned().or_else(|| base.clone());
            let e = else_store.get(&x).cloned().or_else(|| base.clone());
            match (t, e) {
                (Some((t1, t2)), Some((e1, e2))) => {
                    let v1 = if t1 == e1 {
                        t1
                    } else {
                        Term::ite(c1.clone(), t1, e1)
                    };
                    let v2 = if t2 == e2 {
                        t2
                    } else {
                        Term::ite(c2.clone(), t2, e2)
                    };
                    self.store.insert(x, (v1, v2));
                }
                (Some(only), None) | (None, Some(only)) => {
                    // Assigned in one branch with no prior value: the
                    // merged value is branch-dependent and unconstrained
                    // otherwise; model with a fresh high pair refined by an
                    // ite where possible. Conservative: fresh high.
                    let _ = only;
                    let fresh = self.fresh_high(x.as_str(), Sort::Unknown);
                    self.store.insert(x, fresh);
                }
                (None, None) => {}
            }
        }
    }

    fn run_for(&mut self, var: &Symbol, from: &Term, to: &Term, body: &[VStmt]) {
        let (f1, f2) = self.eval(from);
        let (t1, t2) = self.eval(to);
        self.prove(
            format!("loop bounds Low({from:?}) and Low({to:?})"),
            DiagnosticCode::LowLoopBounds,
            Term::and([
                Term::eq(f1.clone(), f2.clone()),
                Term::eq(t1.clone(), t2.clone()),
            ]),
        );
        // One symbolic iteration at a fresh low index ι with f ≤ ι < t.
        let saved_store = self.store.clone();
        let mark = self.begin_scope();
        let (i1, i2) = self.fresh_low("iter", Sort::Int);
        self.store.insert(var.clone(), (i1.clone(), i2.clone()));
        self.push_fact(Term::le(f1.clone(), i1.clone()));
        self.push_fact(Term::lt(i1, t1.clone()));
        self.push_fact(Term::le(f2, i2.clone()));
        self.push_fact(Term::lt(i2, t2));

        let iterations = (
            Term::sub(t1.clone(), f1.clone()),
            Term::sub(t1, f1), // bounds proved low: same term is sound
        );
        self.multipliers.push(iterations);
        self.run_body(body);
        self.multipliers.pop();
        self.end_scope(mark);

        // Restore the pre-loop store; variables the body assigned (and the
        // loop variable) are havoced — their final value depends on the
        // last iteration, which the single-iteration summary does not
        // track.
        let body_store = std::mem::replace(&mut self.store, saved_store);
        let mut touched: Vec<Symbol> = body_store
            .keys()
            .filter(|x| body_store.get(*x) != self.store.get(*x))
            .cloned()
            .collect();
        touched.push(var.clone());
        touched.sort();
        touched.dedup();
        for x in touched {
            let fresh = self.fresh_high(x.as_str(), Sort::Unknown);
            self.store.insert(x, fresh);
        }
    }

    /// Discharges (or replays) the spec-validity obligation of a `share`.
    fn prove_spec_validity(&mut self, spec: &ResourceSpec) {
        let description = format!("resource spec `{}` is valid", spec.name);
        let meta = self.meta_here(description, DiagnosticCode::SpecValidity);
        self.settle(meta, Goal::SpecValidity(spec));
    }

    /// Runs the validity checker and shapes its outcome as an obligation
    /// status.
    fn spec_validity_status(&self, spec: &ResourceSpec) -> ObligationStatus {
        let report = check_validity(spec, &self.config.validity);
        if report.is_valid() {
            ObligationStatus::Proved
        } else {
            let undecided: Vec<_> = report
                .obligations
                .iter()
                .filter(|o| {
                    !matches!(
                        o.outcome,
                        commcsl_logic::validity::ObligationOutcome::Proved
                    )
                })
                .map(|o| o.obligation.clone())
                .collect();
            let mut failure =
                Failure::new(format!("invalid or undecided obligations: {undecided:?}"));
            if self.config.counterexamples {
                if let Some((_, env)) = report.first_counterexample() {
                    failure = failure.with_counterexample(Counterexample::from_env(env));
                }
            }
            ObligationStatus::Failed(failure)
        }
    }

    fn run_share(&mut self, resource: usize, init: &Term) {
        let Some(spec) = self.program.resources.get(resource) else {
            self.errors.push(format!("share of unknown resource {resource}"));
            return;
        };
        if !matches!(self.resources[resource], ResState::Idle) {
            self.errors
                .push(format!("resource {resource} shared twice"));
            return;
        }
        // Specification validity (Def. 3.1) — checked once per share, and
        // with a store cached by (spec, config) alone: the check is
        // independent of the path condition.
        self.prove_spec_validity(spec);
        // Property (1): Low(α(init)).
        let (v1, v2) = self.eval(init);
        self.prove(
            format!("initial abstraction low: Low(α({init:?}))"),
            DiagnosticCode::LowInit,
            Term::eq(spec.alpha_term(&v1), spec.alpha_term(&v2)),
        );
        self.resources[resource] = ResState::Shared {
            ledger: Vec::new(),
            owners: BTreeMap::new(),
            reads: Vec::new(),
        };
    }

    fn run_par(&mut self, workers: &[Vec<VStmt>]) {
        if self.current_worker.is_some() {
            self.errors
                .push("nested Par inside a worker is not supported".into());
            return;
        }
        let saved_store = self.store.clone();
        let mut all_assigned: Vec<Symbol> = Vec::new();
        for (w, body) in workers.iter().enumerate() {
            self.current_worker = Some(w);
            self.store = saved_store.clone();
            self.path.push(w as u32);
            self.run_body(body);
            self.path.pop();
            let worker_store = std::mem::replace(&mut self.store, saved_store.clone());
            all_assigned.extend(
                worker_store
                    .into_iter()
                    .filter(|(x, v)| saved_store.get(x) != Some(v))
                    .map(|(x, _)| x),
            );
        }
        self.current_worker = None;
        self.store = saved_store;
        // Worker-local variables are havoced at the join (their final
        // values are worker-private; cross-thread reads are data races the
        // language forbids anyway).
        all_assigned.sort();
        all_assigned.dedup();
        for x in all_assigned {
            let fresh = self.fresh_high(x.as_str(), Sort::Unknown);
            self.store.insert(x, fresh);
        }
    }

    fn run_atomic(
        &mut self,
        resource: usize,
        action: &Symbol,
        arg: &Term,
        batch_count: Option<(Term, Term)>,
    ) {
        self.run_atomic_inner(resource, action, arg, batch_count, false);
    }

    fn run_atomic_inner(
        &mut self,
        resource: usize,
        action: &Symbol,
        arg: &Term,
        batch_count: Option<(Term, Term)>,
        defer_pre: bool,
    ) {
        let Some(spec) = self.program.resources.get(resource) else {
            self.errors
                .push(format!("atomic on unknown resource {resource}"));
            return;
        };
        let Some(act) = spec.action(action.as_str()).cloned() else {
            self.errors.push(format!(
                "action `{action}` is not declared by resource `{}`",
                spec.name
            ));
            return;
        };
        let worker = self.current_worker;
        if !matches!(self.resources[resource], ResState::Shared { .. }) {
            self.errors.push(format!(
                "atomic `{action}` while resource {resource} is not shared"
            ));
            return;
        }
        let lockstep = batch_count.is_none();
        let count = self.current_count(batch_count.as_ref());
        // Guard discipline and ledger recording (scoped mutable borrow).
        {
            let ResState::Shared { ledger, owners, .. } = &mut self.resources[resource] else {
                unreachable!("checked above");
            };
            // A unique action's guard is unsplittable: one owner only.
            if act.kind == ActionKind::Unique {
                match owners.get(action) {
                    None => {
                        owners.insert(action.clone(), worker);
                    }
                    Some(owner) if *owner == worker => {}
                    Some(owner) => {
                        self.errors.push(format!(
                            "unique action `{action}` used by worker {worker:?} but owned by {owner:?}"
                        ));
                        return;
                    }
                }
            }
            ledger.push(Batch {
                action: action.clone(),
                lockstep,
                count,
            });
        }
        // Property (3a): the relational precondition of the action, proved
        // at the perform site (the lockstep bijection partner is the same
        // syntactic occurrence in the other execution) — or queued for the
        // end of the program when deferred.
        let (a1, a2) = self.eval(arg);
        let description = format!("pre of `{action}`({arg:?})");
        let goal = act.pre_term(&a1, &a2);
        if defer_pre {
            let meta = self.meta_here(
                format!("{description} [retroactive]"),
                DiagnosticCode::ActionPreRetro,
            );
            self.deferred.push(Deferred { meta, goal });
        } else {
            self.prove(description, DiagnosticCode::ActionPre, goal);
        }
    }

    fn run_unshare(&mut self, resource: usize, into: &Symbol) {
        let Some(spec) = self.program.resources.get(resource) else {
            self.errors
                .push(format!("unshare of unknown resource {resource}"));
            return;
        };
        if self.current_worker.is_some() {
            self.errors
                .push("unshare inside a worker is not supported".into());
            return;
        }
        let state = std::mem::replace(&mut self.resources[resource], ResState::Consumed);
        let ResState::Shared { ledger, reads, .. } = state else {
            self.errors.push(format!(
                "unshare of resource {resource} which is not shared"
            ));
            self.resources[resource] = state;
            return;
        };
        // Property (2): the number of performed actions is low. Lockstep
        // batches have syntactically equal per-side counts (their
        // multipliers were proved low); any non-lockstep batch triggers the
        // retroactive total-count check per action.
        let mut actions: Vec<Symbol> = ledger.iter().map(|b| b.action.clone()).collect();
        actions.sort();
        actions.dedup();
        for action in actions {
            let batches: Vec<&Batch> =
                ledger.iter().filter(|b| b.action == action).collect();
            if batches.iter().all(|b| b.lockstep) {
                continue;
            }
            let sum1 = batches
                .iter()
                .map(|b| b.count.0.clone())
                .reduce(Term::add)
                .unwrap_or_else(|| Term::int(0));
            let sum2 = batches
                .iter()
                .map(|b| b.count.1.clone())
                .reduce(Term::add)
                .unwrap_or_else(|| Term::int(0));
            self.prove(
                format!("total count of `{action}` is low (retroactive)"),
                DiagnosticCode::LowBatchTotal,
                Term::eq(sum1, sum2),
            );
        }
        // The Share rule's postcondition: ∃x'. I(x') ∗ Low(α(x')). Bind the
        // final value to a fresh high pair constrained by the abstraction
        // equality.
        let (w1, w2) = self.fresh_high(&format!("{into}_final"), spec.value_sort.clone());
        if self.config.proof_cores {
            // The abstraction-equality assumption is the annotation the
            // hints audit: an unshare no proved obligation's core reaches
            // did not carry any proof.
            self.annotation_sites.push((self.path.clone(), spec.name.clone()));
        }
        self.push_fact(Term::eq(spec.alpha_term(&w1), spec.alpha_term(&w2)));
        // Consume-bindings (single-consumer FIFO): the element bound at
        // index i was the i-th element of the produced sequence (the pure
        // value's second component). These facts are what let deferred
        // preconditions conclude low-ness retroactively.
        for ((b1, b2), (i1, i2)) in reads {
            let f1 = Term::eq(
                b1,
                Term::app(
                    commcsl_pure::Func::SeqIndexOr,
                    [Term::snd(w1.clone()), i1, Term::int(0)],
                ),
            );
            let f2 = Term::eq(
                b2,
                Term::app(
                    commcsl_pure::Func::SeqIndexOr,
                    [Term::snd(w2.clone()), i2, Term::int(0)],
                ),
            );
            self.push_fact(f1);
            self.push_fact(f2);
        }
        self.store.insert(into.clone(), (w1, w2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commcsl_logic::spec::ResourceSpec;
    use commcsl_pure::{Func, Sort};
    use commcsl_smt::BackendKind;

    fn cfg() -> VerifierConfig {
        VerifierConfig::default()
    }

    /// Every symexec test runs under both backends: the fixture suite pins
    /// them verdict-identical, and these unit programs are the smallest
    /// counterexamples if that ever regresses.
    fn both_backends(f: impl Fn(&VerifierConfig)) {
        for backend in BackendKind::ALL {
            let mut config = cfg();
            config.backend = backend;
            config.validity.backend = backend;
            f(&config);
        }
    }

    fn counter_program(output_counter: bool) -> AnnotatedProgram {
        AnnotatedProgram::new("counter")
            .with_resource(ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::input("b", Sort::Int, true),
                VStmt::Share {
                    resource: 0,
                    init: Term::int(0),
                },
                VStmt::Par {
                    workers: vec![
                        vec![VStmt::atomic(0, "Add", Term::var("a"))],
                        vec![VStmt::atomic(0, "Add", Term::var("b"))],
                    ],
                },
                VStmt::Unshare {
                    resource: 0,
                    into: "c".into(),
                },
                if output_counter {
                    VStmt::Output(Term::var("c"))
                } else {
                    VStmt::AssertLow(Term::int(0))
                },
            ])
    }

    #[test]
    fn counter_with_low_addends_verifies() {
        both_backends(|config| {
            let report = verify(&counter_program(true), config);
            assert!(report.verified(), "{report}");
        });
    }

    #[test]
    fn high_addend_fails_pre_obligation() {
        both_backends(|config| {
            let mut p = counter_program(true);
            p.body[0] = VStmt::input("a", Sort::Int, false); // high input
            let report = verify(&p, config);
            assert!(!report.verified());
            assert!(report
                .failures()
                .any(|f| f.description.contains("pre of `Add`")));
            assert!(report
                .failures()
                .all(|f| f.code == DiagnosticCode::ActionPre));
        });
    }

    #[test]
    fn direct_output_of_high_input_fails_with_counterexample() {
        both_backends(|config| {
            let p = AnnotatedProgram::new("leak").with_body([
                VStmt::input("h", Sort::Int, false),
                VStmt::Output(Term::var("h")),
            ]);
            let report = verify(&p, config);
            assert!(!report.verified());
            let failure = report
                .failures()
                .next()
                .and_then(ObligationResult::failure)
                .expect("one failure");
            // The falsifier finds a witness: h differs across executions.
            let cex = failure
                .counterexample
                .as_ref()
                .expect("counterexample for a direct leak");
            let h = cex
                .bindings
                .iter()
                .find(|b| b.var.contains("_h"))
                .expect("binding for h");
            assert_ne!(h.exec1, h.exec2, "{cex:?}");
        });
    }

    #[test]
    fn high_branch_merging_keeps_low_results_low() {
        // x := ite-shaped merge of equal values is still low; differing
        // values under a high condition are not.
        both_backends(|config| {
            let p = AnnotatedProgram::new("merge").with_body([
                VStmt::input("h", Sort::Bool, false),
                VStmt::If {
                    cond: Term::var("h"),
                    then_b: vec![VStmt::assign("x", Term::int(1))],
                    else_b: vec![VStmt::assign("x", Term::int(1))],
                },
                VStmt::Output(Term::var("x")),
            ]);
            assert!(verify(&p, config).verified());

            let p_leak = AnnotatedProgram::new("merge-leak").with_body([
                VStmt::input("h", Sort::Bool, false),
                VStmt::If {
                    cond: Term::var("h"),
                    then_b: vec![VStmt::assign("x", Term::int(1))],
                    else_b: vec![VStmt::assign("x", Term::int(2))],
                },
                VStmt::Output(Term::var("x")),
            ]);
            assert!(!verify(&p_leak, config).verified());
        });
    }

    #[test]
    fn invalid_spec_is_rejected_at_share() {
        use commcsl_logic::spec::ActionDef;
        both_backends(|config| {
            // Fig. 1: arbitrary assignment, identity abstraction.
            let set = ActionDef::shared(
                "Set",
                Sort::Int,
                Term::var(ActionDef::ARG_VAR),
                Term::eq(
                    Term::var(ActionDef::ARG1_VAR),
                    Term::var(ActionDef::ARG2_VAR),
                ),
            );
            let spec = ResourceSpec::new(
                "fig1-assign",
                Sort::Int,
                Term::var(ResourceSpec::VALUE_VAR),
                [set],
            );
            let p = AnnotatedProgram::new("fig1")
                .with_resource(spec)
                .with_body([
                    VStmt::Share {
                        resource: 0,
                        init: Term::int(0),
                    },
                    VStmt::Par {
                        workers: vec![
                            vec![VStmt::atomic(0, "Set", Term::int(3))],
                            vec![VStmt::atomic(0, "Set", Term::int(4))],
                        ],
                    },
                    VStmt::Unshare {
                        resource: 0,
                        into: "s".into(),
                    },
                    VStmt::Output(Term::var("s")),
                ]);
            let report = verify(&p, config);
            assert!(!report.verified());
            let spec_failure = report
                .failures()
                .find(|f| f.description.contains("is valid"))
                .expect("spec validity failure");
            assert_eq!(spec_failure.code, DiagnosticCode::SpecValidity);
            // The invalid spec's counterexample (two different assigned
            // values) is surfaced on the share obligation.
            let failure = spec_failure.failure().expect("failed status");
            let cex = failure.counterexample.as_ref().expect("spec counterexample");
            let x = cex.bindings.iter().find(|b| b.var == "x").expect("x binding");
            assert_ne!(x.exec1, x.exec2);
        });
    }

    #[test]
    fn unique_action_two_workers_is_a_guard_error() {
        both_backends(|config| {
            let p = AnnotatedProgram::new("unique-misuse")
                .with_resource(ResourceSpec::disjoint_put_map(2))
                .with_body([
                    VStmt::Share {
                        resource: 0,
                        init: Term::Lit(commcsl_pure::Value::map_empty()),
                    },
                    VStmt::Par {
                        workers: vec![
                            vec![VStmt::atomic(
                                0,
                                "Put0",
                                Term::pair(Term::int(0), Term::int(1)),
                            )],
                            vec![VStmt::atomic(
                                0,
                                "Put0",
                                Term::pair(Term::int(2), Term::int(1)),
                            )],
                        ],
                    },
                    VStmt::Unshare {
                        resource: 0,
                        into: "m".into(),
                    },
                ]);
            let report = verify(&p, config);
            assert!(report
                .errors
                .iter()
                .any(|e| e.contains("unique action `Put0`")), "{report}");
        });
    }

    #[test]
    fn loop_with_high_bound_fails() {
        both_backends(|config| {
            let p = AnnotatedProgram::new("high-bound")
                .with_resource(ResourceSpec::counter_add())
                .with_body([
                    VStmt::input("n", Sort::Int, false),
                    VStmt::Share {
                        resource: 0,
                        init: Term::int(0),
                    },
                    VStmt::for_range(
                        "i",
                        Term::int(0),
                        Term::var("n"),
                        [VStmt::atomic(0, "Add", Term::int(1))],
                    ),
                    VStmt::Unshare {
                        resource: 0,
                        into: "c".into(),
                    },
                    VStmt::Output(Term::var("c")),
                ]);
            let report = verify(&p, config);
            assert!(!report.verified());
            assert!(report
                .failures()
                .any(|f| f.description.contains("loop bounds")
                    && f.code == DiagnosticCode::LowLoopBounds));
        });
    }

    #[test]
    fn map_keyset_loop_program_verifies() {
        // The Fig. 3/Fig. 5 shape: workers loop over low keys with high
        // values, put into a shared map, and the sorted key list is output.
        both_backends(|config| {
            let worker = |lo: Term, hi: Term| {
                vec![VStmt::for_range(
                    "i",
                    lo,
                    hi,
                    [
                        VStmt::input("adr", Sort::Int, true),
                        VStmt::input("rsn", Sort::Int, false),
                        VStmt::atomic(0, "Put", Term::pair(Term::var("adr"), Term::var("rsn"))),
                    ],
                )]
            };
            let p = AnnotatedProgram::new("fig3-map")
                .with_resource(ResourceSpec::keyset_map())
                .with_body([
                    VStmt::input("n", Sort::Int, true),
                    VStmt::Share {
                        resource: 0,
                        init: Term::Lit(commcsl_pure::Value::map_empty()),
                    },
                    VStmt::Par {
                        workers: vec![
                            worker(
                                Term::int(0),
                                Term::app(Func::Div, [Term::var("n"), Term::int(2)]),
                            ),
                            worker(
                                Term::app(Func::Div, [Term::var("n"), Term::int(2)]),
                                Term::var("n"),
                            ),
                        ],
                    },
                    VStmt::Unshare {
                        resource: 0,
                        into: "m".into(),
                    },
                    VStmt::Output(Term::app(
                        Func::SeqSorted,
                        [Term::app(
                            Func::SetToSeq,
                            [Term::app(Func::MapDom, [Term::var("m")])],
                        )],
                    )),
                ]);
            let report = verify(&p, config);
            assert!(report.verified(), "{report}");
        });
    }

    #[test]
    fn leaking_map_values_fails() {
        // Same program, but outputs the value at key 0: not derivable from
        // the key-set abstraction.
        both_backends(|config| {
            let p = AnnotatedProgram::new("fig3-value-leak")
                .with_resource(ResourceSpec::keyset_map())
                .with_body([
                    VStmt::Share {
                        resource: 0,
                        init: Term::Lit(commcsl_pure::Value::map_empty()),
                    },
                    VStmt::Par {
                        workers: vec![
                            vec![VStmt::input("r1", Sort::Int, false), VStmt::atomic(
                                0,
                                "Put",
                                Term::pair(Term::int(0), Term::var("r1")),
                            )],
                            vec![VStmt::input("r2", Sort::Int, false), VStmt::atomic(
                                0,
                                "Put",
                                Term::pair(Term::int(1), Term::var("r2")),
                            )],
                        ],
                    },
                    VStmt::Unshare {
                        resource: 0,
                        into: "m".into(),
                    },
                    VStmt::Output(Term::app(
                        Func::MapGetOr,
                        [Term::var("m"), Term::int(0), Term::int(0)],
                    )),
                ]);
            let report = verify(&p, config);
            assert!(!report.verified(), "{report}");
        });
    }

    #[test]
    fn counted_batches_require_low_totals() {
        // Two consumers whose individual counts are high but the total sum is low.
        both_backends(|config| {
            let spec = ResourceSpec::producer_consumer(true);
            let init = Term::pair(
                Term::app(Func::MkRight, [Term::Lit(commcsl_pure::Value::seq_empty())]),
                Term::Lit(commcsl_pure::Value::seq_empty()),
            );
            let p = AnnotatedProgram::new("2p2c-counts")
                .with_resource(spec)
                .with_body([
                    VStmt::input("n", Sort::Int, true),
                    VStmt::input("k", Sort::Int, false), // schedule-dependent split
                    VStmt::Share {
                        resource: 0,
                        init: init.clone(),
                    },
                    VStmt::Par {
                        workers: vec![
                            vec![VStmt::AtomicBatch {
                                resource: 0,
                                action: "Cons".into(),
                                arg: Term::Lit(commcsl_pure::Value::Unit),
                                count: Term::var("k"),
                            }],
                            vec![VStmt::AtomicBatch {
                                resource: 0,
                                action: "Cons".into(),
                                arg: Term::Lit(commcsl_pure::Value::Unit),
                                count: Term::sub(Term::var("n"), Term::var("k")),
                            }],
                        ],
                    },
                    VStmt::Unshare {
                        resource: 0,
                        into: "q".into(),
                    },
                ]);
            let report = verify(&p, config);
            assert!(report.verified(), "{report}");

            // If the total is high, the retroactive check fails.
            let mut p_bad = p.clone();
            p_bad.body[0] = VStmt::input("n", Sort::Int, false);
            let report = verify(&p_bad, config);
            assert!(!report.verified());
            assert!(report
                .failures()
                .any(|f| f.description.contains("total count")
                    && f.code == DiagnosticCode::LowBatchTotal));
        });
    }

    #[test]
    fn spans_flow_from_program_to_obligations() {
        let p = AnnotatedProgram::new("spanned")
            .with_body([
                VStmt::input("h", Sort::Int, false),
                VStmt::Output(Term::var("h")),
            ])
            .with_span(vec![0], SourceSpan::new(2, 1))
            .with_span(vec![1], SourceSpan::new(3, 1));
        let report = verify(&p, &cfg());
        let failure = report.failures().next().expect("leak fails");
        assert_eq!(failure.span, Some(SourceSpan::new(3, 1)));
        // Span-free construction yields span-free obligations.
        let bare = AnnotatedProgram::new("spanned").with_body(p.body.clone());
        let report = verify(&bare, &cfg());
        assert_eq!(report.failures().next().unwrap().span, None);
    }
}
