//! The DPLL-style validity checker.
//!
//! [`Solver::check_valid`] decides entailments `H₁, …, Hₙ ⊨ G` by refuting
//! `H₁ ∧ … ∧ Hₙ ∧ ¬G`: literals are normalized (with the congruence closure
//! feeding the rewriter's equality oracle), asserted into the closure,
//! translated into linear-arithmetic constraints, and — when neither theory
//! refutes — the solver case-splits on disjunctions and `Ite` conditions
//! with a bounded budget. Every refutation step is sound, so
//! [`Verdict::Proved`] is trustworthy; exhaustion yields
//! [`Verdict::Unknown`].

use std::cell::Cell;
use std::collections::BTreeMap;


use commcsl_pure::rewrite::normalize;
use commcsl_pure::{Func, Term, Value};

use crate::congruence::Congruence;
use crate::lia::{infeasible_with_order, LiaConfig, LinConstraint};

/// Outcome of a validity query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The entailment holds (sound).
    Proved,
    /// A countermodel was found (sound); see [`crate::falsify`].
    Disproved,
    /// The solver could not decide within its budget.
    Unknown,
}

/// Budgets and switches for the solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum case-split depth per branch.
    pub max_depth: usize,
    /// Total number of branches explored per query.
    pub max_branches: usize,
    /// Normalization/assertion rounds per branch (the rewriter and the
    /// closure feed each other).
    pub normalize_rounds: usize,
    /// Linear-arithmetic budget.
    pub lia: LiaConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_depth: 32,
            max_branches: 8192,
            normalize_rounds: 3,
            lia: LiaConfig::default(),
        }
    }
}

/// The solver. Stateless between queries; cheap to clone.
///
/// This type is the *fresh-per-query* engine: every [`Solver::check_valid`]
/// rebuilds congruence and arithmetic state from the full hypothesis set.
/// Callers discharging many goals against a shared, slowly-growing fact set
/// should prefer an incremental session from
/// [`crate::backend::BackendKind::Incremental`], which keeps per-scope
/// state and is pinned verdict-identical on the verification corpus.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
}

/// Outcome of the normalization/assertion fixpoint.
pub(crate) enum Saturation {
    /// A contradiction surfaced while saturating (sound refutation).
    Refuted,
    /// The saturated, flattened literal set.
    Open(Vec<Term>),
}

impl Solver {
    /// Creates a solver with default budgets.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with explicit budgets.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// The configured budgets.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Checks whether `hyps ⊨ goal`.
    ///
    /// Returns [`Verdict::Proved`] when the entailment is established,
    /// [`Verdict::Unknown`] otherwise. (This entry point never answers
    /// `Disproved`; combine with [`crate::falsify`] for countermodels.)
    pub fn check_valid(&self, hyps: &[Term], goal: &Term) -> Verdict {
        let mut literals: Vec<Term> = hyps.to_vec();
        literals.push(Term::not(goal.clone()));
        if self.refute(literals) {
            Verdict::Proved
        } else {
            Verdict::Unknown
        }
    }

    /// Attempts to refute the conjunction of `literals`. `true` means the
    /// conjunction is unsatisfiable (sound); `false` means "not refuted".
    pub fn refute(&self, literals: Vec<Term>) -> bool {
        let branches = Cell::new(0usize);
        self.refute_rec(literals, self.config.max_depth, &branches, false)
    }

    /// Incremental-session entry point: refutes `base ∧ extra` where the
    /// `base` literals are already saturated and asserted into `cc` (the
    /// session's backtrackable per-scope closure — the caller rolls back
    /// the goal-local mutations afterwards), so only the `extra` (goal)
    /// literals are normalized at the top level. The base literals are
    /// not copied unless the query survives to the case-split phase.
    /// Case splits below the top level re-run the full fixpoint per
    /// branch exactly as [`Solver::refute`] does, with quiescent rounds
    /// skipped.
    pub(crate) fn refute_seeded(&self, cc: &Congruence, base: &[Term], extra: Vec<Term>) -> bool {
        if self.config.max_branches == 0 {
            return false;
        }
        let branches = Cell::new(1usize);
        let extra = match self.saturate(cc, extra, true) {
            Saturation::Refuted => return true,
            Saturation::Open(lits) => lits,
        };
        if self.lia_refutes_parts(cc, &[base, &extra]) {
            return true;
        }
        if self.config.max_depth == 0 {
            return false;
        }
        let mut lits = Vec::with_capacity(base.len() + extra.len());
        lits.extend_from_slice(base);
        lits.extend(extra);
        self.split(cc, lits, self.config.max_depth, &branches, true)
    }

    fn refute_rec(
        &self,
        literals: Vec<Term>,
        depth: usize,
        branches: &Cell<usize>,
        quiescence_skip: bool,
    ) -> bool {
        if branches.get() >= self.config.max_branches {
            return false;
        }
        branches.set(branches.get() + 1);

        let cc = Congruence::new();
        let lits = match self.saturate(&cc, literals, quiescence_skip) {
            Saturation::Refuted => return true,
            Saturation::Open(lits) => lits,
        };

        // Linear arithmetic.
        if self.lia_refutes(&cc, &lits) {
            return true;
        }

        if depth == 0 {
            return false;
        }

        self.split(&cc, lits, depth, branches, quiescence_skip)
    }

    /// Normalization/assertion fixpoint: rewriting may expose new
    /// equalities; asserted equalities enable more rewriting. Asserting
    /// literals grows the closure, which can enable further rewriting
    /// (e.g. a learned key disequality unlocking a `MapPut` reorder), so
    /// by default the loop always runs its full round budget even when the
    /// literals themselves look unchanged.
    ///
    /// With `quiescence_skip`, a round that changed neither the literal
    /// set nor the closure's [`Congruence::version`] ends the loop: the
    /// next round would see the byte-identical literal list and an oracle
    /// answering every query the same way, so its output is provably the
    /// same — the skip is exact, not an approximation. An unchanged
    /// literal list also skips the re-assert pass (asserting identical
    /// literals into the same closure is a no-op).
    pub(crate) fn saturate(
        &self,
        cc: &Congruence,
        mut lits: Vec<Term>,
        quiescence_skip: bool,
    ) -> Saturation {
        for round in 0..self.config.normalize_rounds {
            let version_before = cc.version();
            let mut next: Vec<Term> = Vec::new();
            for lit in &lits {
                if quiescence_skip && round > 0 && !oracle_sensitive(lit) {
                    // The literal's entire rewrite path is oracle-free
                    // (arithmetic/boolean symbols only), so normalization
                    // is a pure function of the term: round `k` would
                    // reproduce round `k-1`'s output exactly.
                    next.push(lit.clone());
                } else {
                    next.push(normalize_literal(lit, cc));
                }
            }
            let mut flattened = Vec::new();
            for lit in next {
                flatten_literal(lit, &mut flattened);
            }
            // Round-0 inputs were never ff-checked or asserted, so the
            // assert pass may only be skipped from round 1 on.
            let lits_unchanged = round > 0 && flattened == lits;
            lits = flattened;
            if !(quiescence_skip && lits_unchanged) {
                for lit in &lits {
                    if *lit == Term::ff() {
                        return Saturation::Refuted;
                    }
                    assert_literal(cc, lit);
                    if cc.contradictory() {
                        return Saturation::Refuted;
                    }
                }
            } else if cc.contradictory() {
                // Interning during normalization can derive a congruence
                // that clashes with a literal even without new asserts.
                return Saturation::Refuted;
            }
            if quiescence_skip && lits_unchanged && cc.version() == version_before {
                break;
            }
        }
        Saturation::Open(lits)
    }

    /// Case split: disjunctions first, then `Ite` conditions, then
    /// undecided adjacent `MapPut` keys, then boolean equivalences.
    fn split(
        &self,
        cc: &Congruence,
        lits: Vec<Term>,
        depth: usize,
        branches: &Cell<usize>,
        quiescence_skip: bool,
    ) -> bool {
        if let Some((idx, disjuncts)) = find_disjunction(&lits) {
            for d in disjuncts {
                let mut branch = lits.clone();
                branch[idx] = d;
                if !self.refute_rec(branch, depth - 1, branches, quiescence_skip) {
                    return false;
                }
            }
            return true;
        }

        if let Some(ite) = find_ite(&lits) {
            let (cond, then_t, else_t) = match &ite {
                Term::App(Func::Ite, args) => {
                    (args[0].clone(), args[1].clone(), args[2].clone())
                }
                _ => unreachable!("find_ite returns Ite applications"),
            };
            // Branch 1: cond holds; the Ite occurrence becomes the branch.
            let mut pos: Vec<Term> =
                lits.iter().map(|l| replace_subterm(l, &ite, &then_t)).collect();
            pos.push(cond.clone());
            if !self.refute_rec(pos, depth - 1, branches, quiescence_skip) {
                return false;
            }
            // Branch 2: ¬cond.
            let mut neg: Vec<Term> =
                lits.iter().map(|l| replace_subterm(l, &ite, &else_t)).collect();
            neg.push(Term::not(cond));
            return self.refute_rec(neg, depth - 1, branches, quiescence_skip);
        }

        // Adjacent map updates with undecided key equality: split on the
        // keys. In the equal branch the inner put dies; in the disequal
        // branch the rewriter sorts the chain. (This is how disjoint-range
        // put specifications are proved: the disequality follows from the
        // preconditions only inside a branch.)
        if let Some((k1, k2)) = find_put_key_split(&lits, cc) {
            let mut pos = lits.clone();
            pos.push(Term::eq(k1.clone(), k2.clone()));
            if !self.refute_rec(pos, depth - 1, branches, quiescence_skip) {
                return false;
            }
            let mut neg = lits;
            neg.push(Term::not(Term::eq(k1, k2)));
            return self.refute_rec(neg, depth - 1, branches, quiescence_skip);
        }

        // Undetermined boolean equalities (Iff/Eq-on-bool) as a last resort.
        if let Some((p, q, positive)) = find_bool_equivalence(&lits) {
            let cases: [(Term, Term); 2] = if positive {
                [(p.clone(), q.clone()), (Term::not(p), Term::not(q))]
            } else {
                [(p.clone(), Term::not(q.clone())), (Term::not(p), q)]
            };
            for (x, y) in cases {
                let mut branch = lits.clone();
                branch.push(x);
                branch.push(y);
                if !self.refute_rec(branch, depth - 1, branches, quiescence_skip) {
                    return false;
                }
            }
            return true;
        }

        false
    }

    /// Collects linear constraints from the literal set plus structural
    /// axioms (`len ≥ 0`, cardinalities ≥ 0, class literals) and runs the
    /// Fourier–Motzkin refutation.
    ///
    /// Atoms are collected (and later eliminated) in *first-seen traversal
    /// order* of the literal list, never in class-id order: class ids
    /// depend on the closure's interning history, which differs between
    /// the fresh and incremental backends even when the literal sets are
    /// identical. Traversal order is a pure function of the literals, so
    /// both backends run the identical elimination sequence.
    pub(crate) fn lia_refutes(&self, cc: &Congruence, lits: &[Term]) -> bool {
        self.lia_refutes_parts(cc, &[lits])
    }

    /// [`Solver::lia_refutes`] over a literal list split into consecutive
    /// parts (the incremental path passes `[base, goal]` without
    /// concatenating — constraint and atom order match the concatenation
    /// exactly).
    pub(crate) fn lia_refutes_parts(&self, cc: &Congruence, parts: &[&[Term]]) -> bool {
        let mut constraints: Vec<LinConstraint> = Vec::new();
        let mut seen_atoms: Vec<(usize, Term)> = Vec::new();

        let add_le = |a: &Term, b: &Term, offset: i128,
                          constraints: &mut Vec<LinConstraint>,
                          seen: &mut Vec<(usize, Term)>| {
            // a - b + offset ≤ 0
            let mut coeffs: BTreeMap<usize, i128> = BTreeMap::new();
            let mut constant = offset;
            decompose(a, 1, cc, &mut coeffs, &mut constant, seen);
            decompose(b, -1, cc, &mut coeffs, &mut constant, seen);
            constraints.push(LinConstraint::new(coeffs, constant));
        };

        for lit in parts.iter().flat_map(|part| part.iter()) {
            match lit {
                Term::App(Func::Le, args) => {
                    add_le(&args[0], &args[1], 0, &mut constraints, &mut seen_atoms)
                }
                Term::App(Func::Lt, args) => {
                    add_le(&args[0], &args[1], 1, &mut constraints, &mut seen_atoms)
                }
                Term::App(Func::Eq, args) if is_int_like(&args[0]) || is_int_like(&args[1]) => {
                    add_le(&args[0], &args[1], 0, &mut constraints, &mut seen_atoms);
                    add_le(&args[1], &args[0], 0, &mut constraints, &mut seen_atoms);
                }
                Term::App(Func::Not, inner) => match &inner[0] {
                    Term::App(Func::Le, args) => {
                        add_le(&args[1], &args[0], 1, &mut constraints, &mut seen_atoms)
                    }
                    Term::App(Func::Lt, args) => {
                        add_le(&args[1], &args[0], 0, &mut constraints, &mut seen_atoms)
                    }
                    _ => {}
                },
                _ => {}
            }
        }

        if constraints.is_empty() {
            return false;
        }

        // Structural axioms for collected atoms, in first-seen order.
        let order: Vec<usize> = seen_atoms.iter().map(|(id, _)| *id).collect();
        for (id, atom) in seen_atoms {
            if let Term::App(f, _) = &atom {
                if matches!(
                    f,
                    Func::SeqLen | Func::SetCard | Func::MsCard | Func::MapLen
                ) {
                    // -atom ≤ 0
                    constraints.push(LinConstraint::new([(id, -1i128)], 0));
                }
            }
            // Class literal pinning: atom = n.
            if let Some(Value::Int(n)) = cc.literal_of(&atom) {
                constraints.push(LinConstraint::new([(id, 1i128)], -(n as i128)));
                constraints.push(LinConstraint::new([(id, -1i128)], n as i128));
            }
        }

        infeasible_with_order(&constraints, &order, &self.config.lia)
    }
}

/// Normalizes a literal for the refutation loop.
///
/// Top-level (dis)equality literals have their *sides* normalized
/// separately: letting the oracle decide the equality itself would let the
/// closure consume the very literal that asserted it (the asserted
/// disequality `a ≠ b` would rewrite `¬(a = b)` to `true` and vanish before
/// case-splitting can expose the structure inside `a` and `b`). Syntactic
/// collapse after normalization is still detected — equal sides refute a
/// disequality and discharge an equality.
fn normalize_literal(lit: &Term, cc: &Congruence) -> Term {
    let norm = |t: &Term| normalize(t, cc);
    match lit {
        Term::App(Func::Not, inner) => {
            if let Term::App(Func::Eq, ab) = &inner[0] {
                let a = norm(&ab[0]);
                let b = norm(&ab[1]);
                if a == b {
                    return Term::ff();
                }
                if let Some(parts) = split_constructor_eq(&a, &b) {
                    // ¬(C(a…) = C(b…)) ⇝ ⋁ aᵢ ≠ bᵢ (injectivity).
                    return Term::or(parts.into_iter().map(|(x, y)| Term::neq(x, y)));
                }
                return Term::not(Term::eq(a, b));
            }
            norm(lit)
        }
        Term::App(Func::Eq, ab) => {
            let a = norm(&ab[0]);
            let b = norm(&ab[1]);
            if a == b {
                return Term::tt();
            }
            if let Some(parts) = split_constructor_eq(&a, &b) {
                // C(a…) = C(b…) ⇝ ⋀ aᵢ = bᵢ (injectivity).
                return Term::and(parts.into_iter().map(|(x, y)| Term::eq(x, y)));
            }
            Term::eq(a, b)
        }
        _ => norm(lit),
    }
}

/// Componentwise decomposition of equalities between injective-constructor
/// applications (`MkPair`, `MkLeft`, `MkRight`). Returns `None` when the
/// heads differ or are not constructors. (Different constructor heads are
/// already decided false by the syntactic oracle inside `normalize`.)
fn split_constructor_eq(a: &Term, b: &Term) -> Option<Vec<(Term, Term)>> {
    match (a, b) {
        (Term::App(Func::MkPair, xs), Term::App(Func::MkPair, ys)) => Some(vec![
            (xs[0].clone(), ys[0].clone()),
            (xs[1].clone(), ys[1].clone()),
        ]),
        (Term::App(Func::MkLeft, xs), Term::App(Func::MkLeft, ys))
        | (Term::App(Func::MkRight, xs), Term::App(Func::MkRight, ys)) => {
            Some(vec![(xs[0].clone(), ys[0].clone())])
        }
        _ => None,
    }
}

/// Splits a normalized formula into conjunction-free literals.
fn flatten_literal(lit: Term, out: &mut Vec<Term>) {
    match lit {
        Term::App(Func::And, args) => {
            for a in args {
                flatten_literal(a, out);
            }
        }
        Term::App(Func::Not, inner) => match &inner[0] {
            Term::App(Func::Or, args) => {
                for a in args {
                    flatten_literal(Term::not(a.clone()), out);
                }
            }
            Term::App(Func::Not, inner2) => flatten_literal(inner2[0].clone(), out),
            Term::App(Func::Implies, pq) => {
                flatten_literal(pq[0].clone(), out);
                flatten_literal(Term::not(pq[1].clone()), out);
            }
            Term::Lit(Value::Bool(b)) => out.push(Term::bool(!b)),
            _ => out.push(Term::App(Func::Not, inner)),
        },
        Term::App(Func::Implies, pq) => {
            out.push(Term::or([Term::not(pq[0].clone()), pq[1].clone()]));
        }
        Term::Lit(Value::Bool(true)) => {}
        other => out.push(other),
    }
}

/// Asserts one literal into the congruence closure. Arithmetic atoms are
/// additionally handled by [`Solver::lia_refutes`]; boolean atoms are pinned
/// to `true`/`false`.
pub(crate) fn assert_literal(cc: &Congruence, lit: &Term) {
    match lit {
        Term::App(Func::Eq, args) => cc.assert_eq(&args[0], &args[1]),
        Term::App(Func::Not, inner) => match &inner[0] {
            Term::App(Func::Eq, args) => cc.assert_neq(&args[0], &args[1]),
            Term::App(Func::Le | Func::Lt, _) => {
                cc.assert_eq(&inner[0], &Term::ff());
            }
            other => cc.assert_eq(other, &Term::ff()),
        },
        Term::App(Func::Le | Func::Lt, _) => cc.assert_eq(lit, &Term::tt()),
        Term::App(Func::Or, _) => {}
        Term::Lit(_) => {}
        other => cc.assert_eq(other, &Term::tt()),
    }
}

/// `true` when normalizing `t` may consult the equality oracle (and can
/// therefore produce different output as the closure learns facts).
///
/// The whitelist below is exactly the set of symbols whose rewrite rules
/// in `commcsl_pure::rewrite` are oracle-free (`rewrite_cmp`,
/// `normalize_linear`, `rewrite_mul`, `rewrite_mod`, `rewrite_ac_minmax`,
/// `rewrite_not`, `rewrite_ac_bool`, and the inline `Implies`/`Iff`
/// arms take no oracle; constant folding is ground evaluation). Anything
/// else — equalities, `Ite`, every collection symbol, uninterpreted
/// applications — is conservatively sensitive.
fn oracle_sensitive(t: &Term) -> bool {
    match t {
        Term::Var(_) | Term::Lit(_) => false,
        Term::App(f, args) => {
            let oracle_free = matches!(
                f,
                Func::Add
                    | Func::Sub
                    | Func::Mul
                    | Func::Div
                    | Func::Mod
                    | Func::Neg
                    | Func::Max
                    | Func::Min
                    | Func::Lt
                    | Func::Le
                    | Func::Not
                    | Func::And
                    | Func::Or
                    | Func::Implies
                    | Func::Iff
            );
            !oracle_free || args.iter().any(oracle_sensitive)
        }
    }
}

/// Decomposes a normalized integer term into linear (atom, coeff) pairs.
fn decompose(
    t: &Term,
    scale: i128,
    cc: &Congruence,
    coeffs: &mut BTreeMap<usize, i128>,
    constant: &mut i128,
    seen: &mut Vec<(usize, Term)>,
) {
    match t {
        Term::Lit(Value::Int(n)) => *constant += scale * (*n as i128),
        Term::App(Func::Add, args) => {
            for a in args {
                decompose(a, scale, cc, coeffs, constant, seen);
            }
        }
        Term::App(Func::Sub, args) => {
            decompose(&args[0], scale, cc, coeffs, constant, seen);
            decompose(&args[1], -scale, cc, coeffs, constant, seen);
        }
        Term::App(Func::Neg, args) => decompose(&args[0], -scale, cc, coeffs, constant, seen),
        Term::App(Func::Mul, args) => match (&args[0], &args[1]) {
            (Term::Lit(Value::Int(n)), other) | (other, Term::Lit(Value::Int(n))) => {
                decompose(other, scale * (*n as i128), cc, coeffs, constant, seen);
            }
            _ => add_atom(t, scale, cc, coeffs, seen),
        },
        atom => add_atom(atom, scale, cc, coeffs, seen),
    }
}

fn add_atom(
    t: &Term,
    scale: i128,
    cc: &Congruence,
    coeffs: &mut BTreeMap<usize, i128>,
    seen: &mut Vec<(usize, Term)>,
) {
    // Atoms are identified up to congruence; a known integer literal for the
    // class folds into the constant via the pinning constraints added later.
    let id = cc.class_id(t);
    if !seen.iter().any(|(seen_id, _)| *seen_id == id) {
        seen.push((id, t.clone()));
    }
    *coeffs.entry(id).or_insert(0) += scale;
}

fn is_int_like(t: &Term) -> bool {
    match t {
        Term::Lit(Value::Int(_)) => true,
        Term::App(f, _) => matches!(
            f,
            Func::Add
                | Func::Sub
                | Func::Mul
                | Func::Div
                | Func::Mod
                | Func::Neg
                | Func::Max
                | Func::Min
                | Func::SeqLen
                | Func::SeqSum
                | Func::SeqMean
                | Func::SetCard
                | Func::MsCard
                | Func::MapLen
        ),
        _ => false,
    }
}

fn find_disjunction(lits: &[Term]) -> Option<(usize, Vec<Term>)> {
    let mut best: Option<(usize, Vec<Term>)> = None;
    for (i, lit) in lits.iter().enumerate() {
        if let Term::App(Func::Or, args) = lit {
            let candidate = (i, args.clone());
            let better = match &best {
                None => true,
                Some((_, prev)) => candidate.1.len() < prev.len(),
            };
            if better {
                best = Some(candidate);
            }
        }
    }
    best
}

/// Finds the first `Ite` application anywhere inside the literal set.
fn find_ite(lits: &[Term]) -> Option<Term> {
    fn walk(t: &Term) -> Option<Term> {
        if let Term::App(Func::Ite, _) = t {
            return Some(t.clone());
        }
        if let Term::App(_, args) = t {
            for a in args {
                if let Some(found) = walk(a) {
                    return Some(found);
                }
            }
        }
        None
    }
    lits.iter().find_map(walk)
}

/// Finds a pair of adjacent `MapPut` keys whose equality the closure cannot
/// decide, as a split candidate.
fn find_put_key_split(lits: &[Term], cc: &Congruence) -> Option<(Term, Term)> {
    fn walk(t: &Term, cc: &Congruence) -> Option<(Term, Term)> {
        if let Term::App(Func::MapPut, args) = t {
            if let Term::App(Func::MapPut, inner) = &args[0] {
                let (k_outer, k_inner) = (&args[1], &inner[1]);
                if cc.decide(k_inner, k_outer).is_none() {
                    return Some((k_inner.clone(), k_outer.clone()));
                }
            }
        }
        if let Term::App(_, args) = t {
            for a in args {
                if let Some(found) = walk(a, cc) {
                    return Some(found);
                }
            }
        }
        None
    }
    lits.iter().find_map(|l| walk(l, cc))
}

/// Finds an undetermined boolean equivalence to split on: `Iff(p, q)` or
/// `¬Iff(p, q)` literals.
fn find_bool_equivalence(lits: &[Term]) -> Option<(Term, Term, bool)> {
    for lit in lits {
        match lit {
            Term::App(Func::Iff, pq) => return Some((pq[0].clone(), pq[1].clone(), true)),
            Term::App(Func::Not, inner) => {
                if let Term::App(Func::Iff, pq) = &inner[0] {
                    return Some((pq[0].clone(), pq[1].clone(), false));
                }
            }
            _ => {}
        }
    }
    None
}

/// Replaces every occurrence of `target` in `t` by `replacement`.
fn replace_subterm(t: &Term, target: &Term, replacement: &Term) -> Term {
    if t == target {
        return replacement.clone();
    }
    match t {
        Term::Var(_) | Term::Lit(_) => t.clone(),
        Term::App(f, args) => Term::App(
            f.clone(),
            args.iter()
                .map(|a| replace_subterm(a, target, replacement))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> Solver {
        Solver::new()
    }

    fn proved(hyps: &[Term], goal: &Term) -> bool {
        solver().check_valid(hyps, goal) == Verdict::Proved
    }

    #[test]
    fn reflexivity_and_congruence() {
        assert!(proved(&[], &Term::eq(Term::var("x"), Term::var("x"))));
        let hyp = Term::eq(Term::var("x"), Term::var("y"));
        let goal = Term::eq(
            Term::app(Func::SeqLen, [Term::var("x")]),
            Term::app(Func::SeqLen, [Term::var("y")]),
        );
        assert!(proved(&[hyp], &goal));
    }

    #[test]
    fn arithmetic_entailment() {
        // x ≤ 3 ∧ y = x + 1 ⊨ y ≤ 4
        let hyps = [
            Term::le(Term::var("x"), Term::int(3)),
            Term::eq(Term::var("y"), Term::add(Term::var("x"), Term::int(1))),
        ];
        assert!(proved(&hyps, &Term::le(Term::var("y"), Term::int(4))));
        assert!(!proved(&hyps, &Term::le(Term::var("y"), Term::int(3))));
    }

    #[test]
    fn disjunction_split() {
        // (x = 1 ∨ x = 2) ⊨ x ≤ 2
        let hyp = Term::or([
            Term::eq(Term::var("x"), Term::int(1)),
            Term::eq(Term::var("x"), Term::int(2)),
        ]);
        assert!(proved(std::slice::from_ref(&hyp), &Term::le(Term::var("x"), Term::int(2))));
        assert!(!proved(&[hyp], &Term::le(Term::var("x"), Term::int(1))));
    }

    #[test]
    fn ite_split() {
        // y = ite(c, 1, 2) ⊨ 1 ≤ y
        let hyp = Term::eq(
            Term::var("y"),
            Term::ite(Term::var("c"), Term::int(1), Term::int(2)),
        );
        assert!(proved(&[hyp], &Term::le(Term::int(1), Term::var("y"))));
    }

    #[test]
    fn ite_with_eq_condition_uses_oracle() {
        // k1 ≠ k2 ⊨ get_or(put(put(m,k1,v1),k2,v2), k1, 0) = v1
        let m = Term::var("m");
        let put = |m, k: &str, v: &str| {
            Term::app(Func::MapPut, [m, Term::var(k), Term::var(v)])
        };
        let get = Term::app(
            Func::MapGetOr,
            [put(put(m, "k1", "v1"), "k2", "v2"), Term::var("k1"), Term::int(0)],
        );
        let hyp = Term::neq(Term::var("k1"), Term::var("k2"));
        assert!(proved(&[hyp], &Term::eq(get.clone(), Term::var("v1"))));
        // Without the disequality the goal must not be provable.
        assert!(!proved(&[], &Term::eq(get, Term::var("v1"))));
    }

    #[test]
    fn abstraction_hypothesis_closes_commutativity() {
        // dom(v) = dom(v') ⊨ dom(put(put(v,k1,x1),k2,x2)) = dom(put(put(v',k2,x2),k1,x1))
        let put = |m: Term, k: &str, x: &str| {
            Term::app(Func::MapPut, [m, Term::var(k), Term::var(x)])
        };
        let dom = |m: Term| Term::app(Func::MapDom, [m]);
        let hyp = Term::eq(dom(Term::var("v")), dom(Term::var("w")));
        let lhs = dom(put(put(Term::var("v"), "k1", "x1"), "k2", "x2"));
        let rhs = dom(put(put(Term::var("w"), "k2", "x2"), "k1", "x1"));
        assert!(proved(&[hyp], &Term::eq(lhs, rhs)));
    }

    #[test]
    fn counter_addition_commutes() {
        // v = v' ⊨ (v + a) + b = (v' + b) + a
        let hyp = Term::eq(Term::var("v"), Term::var("w"));
        let lhs = Term::add(Term::add(Term::var("v"), Term::var("a")), Term::var("b"));
        let rhs = Term::add(Term::add(Term::var("w"), Term::var("b")), Term::var("a"));
        assert!(proved(&[hyp], &Term::eq(lhs, rhs)));
    }

    #[test]
    fn assignment_does_not_commute() {
        // v = v' ⊭ b = a  (constant assignments in Fig. 1)
        let hyp = Term::eq(Term::var("v"), Term::var("w"));
        assert!(!proved(&[hyp], &Term::eq(Term::var("a"), Term::var("b"))));
    }

    #[test]
    fn seq_len_nonnegative_axiom() {
        let goal = Term::le(Term::int(0), Term::app(Func::SeqLen, [Term::var("s")]));
        assert!(proved(&[], &goal));
    }

    #[test]
    fn contradictory_hypotheses_prove_anything() {
        let hyps = [
            Term::eq(Term::var("x"), Term::int(1)),
            Term::eq(Term::var("x"), Term::int(2)),
        ];
        assert!(proved(&hyps, &Term::ff()));
    }

    #[test]
    fn histogram_increment_commutes() {
        // dom-preserving increment: f(m, k) = put(m, k, get_or(m, k, 0) + 1).
        // Hypothesis m = m'; goal f(f(m,k1),k2) = f(f(m',k2),k1).
        let inc = |m: &Term, k: &str| {
            Term::app(
                Func::MapPut,
                [
                    m.clone(),
                    Term::var(k),
                    Term::add(
                        Term::app(
                            Func::MapGetOr,
                            [m.clone(), Term::var(k), Term::int(0)],
                        ),
                        Term::int(1),
                    ),
                ],
            )
        };
        let hyp = Term::eq(Term::var("m"), Term::var("n"));
        let lhs = inc(&inc(&Term::var("m"), "k1"), "k2");
        let rhs = inc(&inc(&Term::var("n"), "k2"), "k1");
        assert!(proved(&[hyp], &Term::eq(lhs, rhs)));
    }

    #[test]
    fn max_update_commutes() {
        // f(m,(k,p)) = put(m, k, max(get_or(m,k,0), p)) — the
        // Most-Valuable-Purchase action.
        let upd = |m: &Term, k: &str, p: &str| {
            Term::app(
                Func::MapPut,
                [
                    m.clone(),
                    Term::var(k),
                    Term::app(
                        Func::Max,
                        [
                            Term::app(
                                Func::MapGetOr,
                                [m.clone(), Term::var(k), Term::int(0)],
                            ),
                            Term::var(p),
                        ],
                    ),
                ],
            )
        };
        let hyp = Term::eq(Term::var("m"), Term::var("n"));
        let lhs = upd(&upd(&Term::var("m"), "k1", "p1"), "k2", "p2");
        let rhs = upd(&upd(&Term::var("n"), "k2", "p2"), "k1", "p1");
        assert!(proved(&[hyp], &Term::eq(lhs, rhs)));
    }

    #[test]
    fn plain_put_does_not_commute_on_full_map() {
        // Without the key-set abstraction, puts must NOT be provable as
        // commuting (same key, different values).
        let put = |m: Term, k: &str, x: &str| {
            Term::app(Func::MapPut, [m, Term::var(k), Term::var(x)])
        };
        let hyp = Term::eq(Term::var("m"), Term::var("n"));
        let lhs = put(put(Term::var("m"), "k1", "x1"), "k2", "x2");
        let rhs = put(put(Term::var("n"), "k2", "x2"), "k1", "x1");
        assert!(!proved(&[hyp], &Term::eq(lhs, rhs)));
    }
}
