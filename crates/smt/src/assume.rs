//! Assumption tracking for proved entailments.
//!
//! The refutation engine ([`crate::solver`]) decides `H₁, …, Hₙ ⊨ G` but
//! reports only a verdict — it does not say *which* hypotheses the
//! refutation consumed. [`assumption_core`] recovers a sound
//! over-approximation of that set after the fact, without instrumenting
//! the solver: every propagation the engine performs — congruence merges,
//! rewriting with the equality oracle, Fourier–Motzkin combination of
//! linear atoms, case splits on sub-formulas — only ever connects literals
//! through *shared terms*, and two literals share a term only when they
//! share a free variable (or are ground). A minimal refutation of
//! `H ∧ ¬G` therefore lives inside one connected component of the
//! variable-sharing graph: either the component containing `¬G`, or a
//! component of the hypotheses that is contradictory on its own (in which
//! case the hypothesis set proves *everything* and no core is
//! explanatory — callers should treat an inconsistent base as "all facts
//! needed").
//!
//! The returned indices are the hypotheses reachable from the goal in
//! that graph (ground hypotheses are kept conservatively). The set is an
//! *upper bound* on the literals any refutation can touch, so a
//! hypothesis **outside** the core is guaranteed unused — exactly the
//! direction the "unneeded annotation" hints need. Computing it is one
//! fixpoint over cached per-literal variable sets: no solver calls, no
//! allocation proportional to term size beyond the variable sets
//! themselves, which keeps the tracking overhead far below the solver
//! checks it annotates.

use std::collections::BTreeSet;

use commcsl_pure::{Symbol, Term};

/// Indices of the hypotheses `H` a proof of `H ⊨ goal` may have used: the
/// connected component of `goal` in the variable-sharing graph over `H`,
/// plus every ground (variable-free) hypothesis. `hyp_vars` holds each
/// hypothesis's free variables ([`Term::free_vars`]), so a caller that
/// keeps a hypothesis list computes them once per hypothesis, not once
/// per goal.
///
/// The result is sorted and duplicate-free. It depends only on the
/// syntactic hypothesis list and goal — never on solver state, backend
/// choice, or discharge order — so both solver backends and every cache
/// route report the identical core for the identical obligation.
pub fn assumption_core(hyp_vars: &[BTreeSet<Symbol>], goal: &Term) -> Vec<usize> {
    let mut reached: BTreeSet<Symbol> = goal.free_vars();
    let mut in_core: Vec<bool> = hyp_vars.iter().map(BTreeSet::is_empty).collect();
    // Fixpoint: admit any hypothesis sharing a variable with the reached
    // set; its variables join the set. Terminates because each round
    // admits at least one new hypothesis or stops.
    loop {
        let mut grew = false;
        for (i, vars) in hyp_vars.iter().enumerate() {
            if in_core[i] || vars.is_disjoint(&reached) {
                continue;
            }
            in_core[i] = true;
            reached.extend(vars.iter().cloned());
            grew = true;
        }
        if !grew {
            break;
        }
    }
    in_core
        .iter()
        .enumerate()
        .filter_map(|(i, &keep)| keep.then_some(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use commcsl_pure::Func;

    use super::*;
    use crate::solver::{Solver, Verdict};

    fn var(s: &str) -> Term {
        Term::var(s)
    }

    fn core(hyps: &[Term], goal: &Term) -> Vec<usize> {
        let vars: Vec<BTreeSet<Symbol>> = hyps.iter().map(Term::free_vars).collect();
        assumption_core(&vars, goal)
    }

    #[test]
    fn disconnected_hypotheses_are_excluded() {
        // x-chain proves the goal; the y-fact is unreachable.
        let hyps = [
            Term::eq(var("x"), var("z")),
            Term::le(var("y"), Term::int(3)),
            Term::eq(var("z"), var("w")),
        ];
        let goal = Term::eq(var("x"), var("w"));
        assert_eq!(core(&hyps, &goal), vec![0, 2]);
    }

    #[test]
    fn transitive_sharing_is_followed() {
        // goal mentions a; a links to b; b links to c.
        let hyps = [
            Term::eq(var("a"), var("b")),
            Term::eq(var("b"), var("c")),
            Term::eq(var("u"), var("v")),
        ];
        let goal = Term::le(var("a"), var("a"));
        assert_eq!(core(&hyps, &goal), vec![0, 1]);
    }

    #[test]
    fn ground_hypotheses_are_kept_conservatively() {
        let hyps = [Term::le(Term::int(1), Term::int(2)), Term::eq(var("p"), var("q"))];
        let goal = Term::eq(var("r"), var("r"));
        assert_eq!(core(&hyps, &goal), vec![0]);
    }

    #[test]
    fn empty_goal_component_yields_ground_only() {
        let hyps = [Term::eq(var("x"), var("y"))];
        let goal = Term::tt();
        assert!(core(&hyps, &goal).is_empty());
    }

    /// The soundness contract the hints rely on: dropping every hypothesis
    /// *outside* the core never turns a proved entailment unproved.
    #[test]
    fn core_alone_still_proves_on_samples() {
        let solver = Solver::new();
        let samples: Vec<(Vec<Term>, Term)> = vec![
            (
                vec![
                    Term::eq(var("x"), var("y")),
                    Term::le(var("h"), Term::int(9)),
                ],
                Term::eq(
                    Term::app(Func::SeqLen, [var("x")]),
                    Term::app(Func::SeqLen, [var("y")]),
                ),
            ),
            (
                vec![
                    Term::le(var("a"), Term::int(3)),
                    Term::eq(var("b"), Term::add(var("a"), Term::int(1))),
                    Term::eq(var("junk"), Term::int(0)),
                ],
                Term::le(var("b"), Term::int(4)),
            ),
        ];
        for (hyps, goal) in samples {
            assert_eq!(solver.check_valid(&hyps, &goal), Verdict::Proved);
            let kept: Vec<Term> = core(&hyps, &goal).iter().map(|&i| hyps[i].clone()).collect();
            assert!(kept.len() < hyps.len(), "core must shrink the samples");
            assert_eq!(solver.check_valid(&kept, &goal), Verdict::Proved);
        }
    }
}
