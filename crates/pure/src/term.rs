//! Symbolic terms over the pure value universe.
//!
//! Terms are the lingua franca between the verifier and the SMT-lite solver:
//! relational proof obligations (`Low(e)` queries, action preconditions,
//! commutativity equalities) are expressed as boolean-sorted [`Term`]s and
//! discharged by the solver in `commcsl-smt`, with [`Term::eval`] providing
//! the ground semantics used for model checking and falsification.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::ops::{sort_mismatch, PureResult};
use crate::symbol::Symbol;
use crate::value::Value;

/// A function symbol of the term language.
///
/// The interpreted symbols mirror the operations on [`Value`];
/// [`Func::Uninterpreted`] supports abstract function symbols (used e.g. for
/// opaque abstraction functions in solver queries).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Func {
    // -- arithmetic
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Euclidean division.
    Div,
    /// Euclidean remainder.
    Mod,
    /// Integer negation.
    Neg,
    /// Integer maximum.
    Max,
    /// Integer minimum.
    Min,
    // -- comparison
    /// Equality (any sort).
    Eq,
    /// Strict less-than on integers.
    Lt,
    /// Less-or-equal on integers.
    Le,
    // -- boolean
    /// Negation.
    Not,
    /// Conjunction (variadic).
    And,
    /// Disjunction (variadic).
    Or,
    /// Implication.
    Implies,
    /// Bi-implication.
    Iff,
    /// If-then-else (first argument boolean).
    Ite,
    // -- pairs and sums
    /// Pair constructor.
    MkPair,
    /// First projection.
    Fst,
    /// Second projection.
    Snd,
    /// Left injection.
    MkLeft,
    /// Right injection.
    MkRight,
    /// Tests for a left injection.
    IsLeft,
    /// Projects out of a left injection.
    FromLeft,
    /// Projects out of a right injection.
    FromRight,
    // -- sequences
    /// Sequence append (seq, elem).
    SeqAppend,
    /// Sequence concatenation.
    SeqConcat,
    /// Sequence length.
    SeqLen,
    /// Sequence indexing (seq, index).
    SeqIndex,
    /// Total sequence indexing with default (seq, index, default).
    SeqIndexOr,
    /// Tail of a sequence (total: empty ↦ empty).
    SeqTail,
    /// Head of a sequence with a default (seq, default) — total.
    SeqHeadOr,
    /// Sum of an integer sequence.
    SeqSum,
    /// Mean of an integer sequence (total; empty ↦ 0).
    SeqMean,
    /// Sorted copy of a sequence.
    SeqSorted,
    /// Multiset view of a sequence.
    SeqToMultiset,
    /// Set view of a sequence.
    SeqToSet,
    // -- sets
    /// Set insertion (set, elem).
    SetAdd,
    /// Set union.
    SetUnion,
    /// Set cardinality.
    SetCard,
    /// Set membership (set, elem).
    SetContains,
    /// Sorted sequence of a set.
    SetToSeq,
    // -- multisets
    /// Multiset insertion (ms, elem).
    MsAdd,
    /// Multiset union `∪#`.
    MsUnion,
    /// Multiset cardinality.
    MsCard,
    /// Multiset membership (ms, elem).
    MsContains,
    /// Sorted sequence of a multiset (the canonical list view; `sorted(s)`
    /// rewrites to `MsToSortedSeq(SeqToMultiset(s))`).
    MsToSortedSeq,
    // -- maps
    /// Map update (map, key, val).
    MapPut,
    /// Map lookup with default (map, key, default) — total.
    MapGetOr,
    /// Map domain.
    MapDom,
    /// Map membership (map, key).
    MapContains,
    /// Number of map entries.
    MapLen,
    // -- escape hatch
    /// An uninterpreted function symbol with the given name.
    Uninterpreted(Symbol),
}

impl Func {
    /// Returns the arity of the symbol, or `None` for variadic symbols
    /// (`And`, `Or`) and uninterpreted symbols.
    pub fn arity(&self) -> Option<usize> {
        use Func::*;
        Some(match self {
            Neg | Not | Fst | Snd | MkLeft | MkRight | IsLeft | FromLeft | FromRight
            | SeqLen | SeqTail | SeqSum | SeqMean | SeqSorted | SeqToMultiset | SeqToSet
            | SetCard | SetToSeq | MsCard | MsToSortedSeq | MapDom | MapLen => 1,
            Add | Sub | Mul | Div | Mod | Max | Min | Eq | Lt | Le | Implies | Iff
            | MkPair | SeqAppend | SeqConcat | SeqIndex | SeqHeadOr | SetAdd | SetUnion
            | SetContains | MsAdd | MsUnion | MsContains | MapContains => 2,
            Ite | MapPut | MapGetOr | SeqIndexOr => 3,
            And | Or | Uninterpreted(_) => return None,
        })
    }

    /// Returns `true` for symbols whose result sort is boolean.
    pub fn is_predicate(&self) -> bool {
        use Func::*;
        matches!(
            self,
            Eq | Lt | Le | Not | And | Or | Implies | Iff | IsLeft | SetContains | MsContains
                | MapContains
        )
    }
}

/// A symbolic term.
///
/// # Example
///
/// ```
/// use commcsl_pure::{Term, Value};
///
/// let t = Term::add(Term::var("x"), Term::int(1));
/// let env = [("x".into(), Value::from(41))].into_iter().collect();
/// assert_eq!(t.eval(&env).unwrap(), Value::from(42));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable.
    Var(Symbol),
    /// A literal value.
    Lit(Value),
    /// A function application.
    ///
    /// The arguments are a shared, immutable slice, so cloning or dropping
    /// a term is a reference-count operation, never a deep copy. Order,
    /// equality and hashes stay structural (an `Arc<[Term]>` orders and
    /// hashes as its slice, and `==` tries pointer equality first): a term
    /// compares, sorts and hashes as its tree does, however it was built.
    /// The rewriter returns a node itself when its rewrite is structurally
    /// equal to it. Build one with [`Term::app`], or from a `Vec<Term>` or
    /// an array with `.into()`.
    App(Func, Arc<[Term]>),
}

/// Environments bind variables to values for ground evaluation.
pub type Env = BTreeMap<Symbol, Value>;

impl Term {
    // --------------------------------------------------------- constructors

    /// Variable term.
    pub fn var(name: impl Into<Symbol>) -> Term {
        Term::Var(name.into())
    }

    /// Integer literal.
    pub fn int(n: i64) -> Term {
        Term::Lit(Value::Int(n))
    }

    /// Boolean literal.
    pub fn bool(b: bool) -> Term {
        Term::Lit(Value::Bool(b))
    }

    /// The literal `true`.
    pub fn tt() -> Term {
        Term::bool(true)
    }

    /// The literal `false`.
    pub fn ff() -> Term {
        Term::bool(false)
    }

    /// Application helper.
    pub fn app(f: Func, args: impl IntoIterator<Item = Term>) -> Term {
        Term::App(f, args.into_iter().collect())
    }

    /// `a + b`.
    // Associated constructor (no `self`), not an operator method.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Term, b: Term) -> Term {
        Term::app(Func::Add, [a, b])
    }

    /// `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Term, b: Term) -> Term {
        Term::app(Func::Sub, [a, b])
    }

    /// `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Term, b: Term) -> Term {
        Term::app(Func::Mul, [a, b])
    }

    /// `a = b`.
    pub fn eq(a: Term, b: Term) -> Term {
        Term::app(Func::Eq, [a, b])
    }

    /// `a ≠ b`.
    pub fn neq(a: Term, b: Term) -> Term {
        Term::not(Term::eq(a, b))
    }

    /// `a < b`.
    pub fn lt(a: Term, b: Term) -> Term {
        Term::app(Func::Lt, [a, b])
    }

    /// `a ≤ b`.
    pub fn le(a: Term, b: Term) -> Term {
        Term::app(Func::Le, [a, b])
    }

    /// `¬a`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Term) -> Term {
        Term::app(Func::Not, [a])
    }

    /// Variadic conjunction (empty ⇒ `true`).
    pub fn and(conjuncts: impl IntoIterator<Item = Term>) -> Term {
        let cs: Vec<Term> = conjuncts.into_iter().collect();
        match cs.len() {
            0 => Term::tt(),
            1 => cs.into_iter().next().expect("len checked"),
            _ => Term::App(Func::And, cs.into()),
        }
    }

    /// Variadic disjunction (empty ⇒ `false`).
    pub fn or(disjuncts: impl IntoIterator<Item = Term>) -> Term {
        let ds: Vec<Term> = disjuncts.into_iter().collect();
        match ds.len() {
            0 => Term::ff(),
            1 => ds.into_iter().next().expect("len checked"),
            _ => Term::App(Func::Or, ds.into()),
        }
    }

    /// `a ⇒ b`.
    pub fn implies(a: Term, b: Term) -> Term {
        Term::app(Func::Implies, [a, b])
    }

    /// `if c then t else e`.
    pub fn ite(c: Term, t: Term, e: Term) -> Term {
        Term::app(Func::Ite, [c, t, e])
    }

    /// Pair construction.
    pub fn pair(a: Term, b: Term) -> Term {
        Term::app(Func::MkPair, [a, b])
    }

    /// First projection.
    pub fn fst(p: Term) -> Term {
        Term::app(Func::Fst, [p])
    }

    /// Second projection.
    pub fn snd(p: Term) -> Term {
        Term::app(Func::Snd, [p])
    }

    // --------------------------------------------------------------- charts

    /// Returns the set of free variables.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Term::Var(x) => {
                out.insert(x.clone());
            }
            Term::Lit(_) => {}
            Term::App(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Returns the number of nodes in the term (a simple size measure).
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Lit(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// Capture-free substitution of variables by terms.
    ///
    /// The term language has no binders, so substitution is structural.
    pub fn subst(&self, bindings: &BTreeMap<Symbol, Term>) -> Term {
        match self {
            Term::Var(x) => bindings.get(x).cloned().unwrap_or_else(|| self.clone()),
            Term::Lit(_) => self.clone(),
            Term::App(f, args) => {
                Term::App(f.clone(), args.iter().map(|a| a.subst(bindings)).collect())
            }
        }
    }

    /// Renames every variable through `f`.
    pub fn rename(&self, f: &impl Fn(&Symbol) -> Symbol) -> Term {
        match self {
            Term::Var(x) => Term::Var(f(x)),
            Term::Lit(_) => self.clone(),
            Term::App(func, args) => {
                Term::App(func.clone(), args.iter().map(|a| a.rename(f)).collect())
            }
        }
    }

    // ----------------------------------------------------------- evaluation

    /// Evaluates a term under an environment.
    ///
    /// # Errors
    ///
    /// Returns a [`PureError`](crate::PureError) for unbound variables (as a
    /// sort mismatch), ill-sorted operands, partial-operation failures, and
    /// applications of uninterpreted symbols (which have no semantics).
    pub fn eval(&self, env: &Env) -> PureResult<Value> {
        match self {
            Term::Var(x) => match env.get(x) {
                Some(v) => Ok(v.clone()),
                None => sort_mismatch("eval", format!("unbound variable {x}")),
            },
            Term::Lit(v) => Ok(v.clone()),
            Term::App(f, args) => eval_app(f, args, env),
        }
    }
}

fn eval_app(f: &Func, args: &[Term], env: &Env) -> PureResult<Value> {
    use Func::*;

    // Short-circuiting / lazy symbols first.
    match f {
        And => {
            for a in args {
                if !a.eval(env)?.as_bool()? {
                    return Ok(Value::Bool(false));
                }
            }
            return Ok(Value::Bool(true));
        }
        Or => {
            for a in args {
                if a.eval(env)?.as_bool()? {
                    return Ok(Value::Bool(true));
                }
            }
            return Ok(Value::Bool(false));
        }
        Implies => {
            let p = args[0].eval(env)?.as_bool()?;
            if !p {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(args[1].eval(env)?.as_bool()?));
        }
        Ite => {
            let c = args[0].eval(env)?.as_bool()?;
            return if c {
                args[1].eval(env)
            } else {
                args[2].eval(env)
            };
        }
        _ => {}
    }

    let vs: Vec<Value> = args
        .iter()
        .map(|a| a.eval(env))
        .collect::<PureResult<_>>()?;

    match (f, vs.as_slice()) {
        (Add, [a, b]) => a.int_add(b),
        (Sub, [a, b]) => a.int_sub(b),
        (Mul, [a, b]) => a.int_mul(b),
        (Div, [a, b]) => a.int_div(b),
        (Mod, [a, b]) => a.int_mod(b),
        (Max, [a, b]) => a.int_max(b),
        (Min, [a, b]) => a.int_min(b),
        (Neg, [a]) => Value::Int(0).int_sub(a),
        (Eq, [a, b]) => Ok(Value::Bool(a == b)),
        (Lt, [a, b]) => Ok(Value::Bool(a.as_int()? < b.as_int()?)),
        (Le, [a, b]) => Ok(Value::Bool(a.as_int()? <= b.as_int()?)),
        (Not, [a]) => Ok(Value::Bool(!a.as_bool()?)),
        (Iff, [a, b]) => Ok(Value::Bool(a.as_bool()? == b.as_bool()?)),
        (MkPair, [a, b]) => Ok(Value::pair(a.clone(), b.clone())),
        (Fst, [p]) => Ok(p.as_pair()?.0.clone()),
        (Snd, [p]) => Ok(p.as_pair()?.1.clone()),
        (MkLeft, [a]) => Ok(Value::left(a.clone())),
        (MkRight, [a]) => Ok(Value::right(a.clone())),
        (IsLeft, [v]) => match v {
            Value::Left(_) => Ok(Value::Bool(true)),
            Value::Right(_) => Ok(Value::Bool(false)),
            other => sort_mismatch("IsLeft", other),
        },
        (FromLeft, [v]) => match v {
            Value::Left(inner) => Ok((**inner).clone()),
            other => sort_mismatch("FromLeft", other),
        },
        (FromRight, [v]) => match v {
            Value::Right(inner) => Ok((**inner).clone()),
            other => sort_mismatch("FromRight", other),
        },
        (SeqAppend, [s, e]) => s.seq_append(e.clone()),
        (SeqConcat, [a, b]) => a.seq_concat(b),
        (SeqLen, [s]) => Ok(Value::Int(s.seq_len()? as i64)),
        (SeqIndex, [s, i]) => s.seq_index(i.as_int()?),
        (SeqIndexOr, [s, i, d]) => match i.as_int() {
            Ok(ix) => Ok(s
                .as_seq()?
                .get(usize::try_from(ix).unwrap_or(usize::MAX))
                .cloned()
                .unwrap_or_else(|| d.clone())),
            Err(e) => Err(e),
        },
        (SeqTail, [s]) => s.seq_tail(),
        (SeqHeadOr, [s, d]) => s.seq_head_or(d.clone()),
        (SeqSum, [s]) => s.seq_sum(),
        (SeqMean, [s]) => s.seq_mean(),
        (SeqSorted, [s]) => s.seq_sorted(),
        (SeqToMultiset, [s]) => s.seq_to_multiset(),
        (SeqToSet, [s]) => s.seq_to_set(),
        (SetAdd, [s, e]) => s.set_add(e.clone()),
        (SetUnion, [a, b]) => a.set_union(b),
        (SetCard, [s]) => Ok(Value::Int(s.set_card()? as i64)),
        (SetContains, [s, e]) => Ok(Value::Bool(s.set_contains(e)?)),
        (SetToSeq, [s]) => s.set_to_seq(),
        (MsAdd, [m, e]) => m.multiset_add(e.clone()),
        (MsUnion, [a, b]) => a.multiset_union(b),
        (MsCard, [m]) => Ok(Value::Int(m.multiset_card()? as i64)),
        (MsContains, [m, e]) => Ok(Value::Bool(m.as_multiset()?.contains(e))),
        (MsToSortedSeq, [m]) => m.multiset_to_sorted_seq(),
        (MapPut, [m, k, v]) => m.map_put(k.clone(), v.clone()),
        (MapGetOr, [m, k, d]) => m.map_get_or(k, d.clone()),
        (MapDom, [m]) => m.map_dom(),
        (MapContains, [m, k]) => Ok(Value::Bool(m.map_contains(k)?)),
        (MapLen, [m]) => Ok(Value::Int(m.map_len()? as i64)),
        (Uninterpreted(name), _) => {
            sort_mismatch("eval", format!("uninterpreted symbol {name}"))
        }
        (f, vs) => sort_mismatch("eval", format!("bad application {f:?} to {vs:?}")),
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(x) => write!(f, "{x}"),
            Term::Lit(v) => write!(f, "{v:?}"),
            Term::App(func, args) => {
                write!(f, "{func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    fmt::Debug::fmt(a, f)?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(bindings: &[(&str, Value)]) -> Env {
        bindings
            .iter()
            .map(|(k, v)| (Symbol::new(k), v.clone()))
            .collect()
    }

    #[test]
    fn arithmetic_evaluates() {
        let t = Term::mul(Term::add(Term::var("x"), Term::int(1)), Term::int(3));
        assert_eq!(
            t.eval(&env(&[("x", Value::from(2))])).unwrap(),
            Value::from(9)
        );
    }

    #[test]
    fn and_short_circuits_over_errors() {
        // `false ∧ (1/0 = 1)` must evaluate to false, not error.
        let t = Term::and([
            Term::ff(),
            Term::eq(
                Term::app(Func::Div, [Term::int(1), Term::int(0)]),
                Term::int(1),
            ),
        ]);
        assert_eq!(t.eval(&env(&[])).unwrap(), Value::Bool(false));
    }

    #[test]
    fn implies_short_circuits() {
        let t = Term::implies(Term::ff(), Term::var("unbound"));
        assert_eq!(t.eval(&env(&[])).unwrap(), Value::Bool(true));
    }

    #[test]
    fn ite_selects_branch() {
        let t = Term::ite(Term::lt(Term::int(1), Term::int(2)), Term::int(10), Term::int(20));
        assert_eq!(t.eval(&env(&[])).unwrap(), Value::from(10));
    }

    #[test]
    fn free_vars_and_subst() {
        let t = Term::add(Term::var("x"), Term::var("y"));
        assert_eq!(
            t.free_vars().into_iter().collect::<Vec<_>>(),
            vec![Symbol::new("x"), Symbol::new("y")]
        );
        let s: BTreeMap<Symbol, Term> =
            [(Symbol::new("x"), Term::int(5))].into_iter().collect();
        let t2 = t.subst(&s);
        assert_eq!(
            t2.eval(&env(&[("y", Value::from(2))])).unwrap(),
            Value::from(7)
        );
    }

    #[test]
    fn container_functions_evaluate() {
        let m = Term::app(
            Func::MapPut,
            [
                Term::Lit(Value::map_empty()),
                Term::int(1),
                Term::int(10),
            ],
        );
        let dom = Term::app(Func::MapDom, [m]);
        assert_eq!(
            dom.eval(&env(&[])).unwrap(),
            Value::set([Value::from(1)])
        );
    }

    #[test]
    fn unbound_variable_is_an_error() {
        assert!(Term::var("nope").eval(&env(&[])).is_err());
    }

    #[test]
    fn uninterpreted_cannot_evaluate() {
        let t = Term::app(Func::Uninterpreted(Symbol::new("alpha")), [Term::int(1)]);
        assert!(t.eval(&env(&[])).is_err());
    }

    #[test]
    fn empty_and_or_units() {
        assert_eq!(Term::and([]), Term::tt());
        assert_eq!(Term::or([]), Term::ff());
    }

    #[test]
    fn clone_shares_the_argument_slice() {
        let t = Term::add(Term::var("x"), Term::app(Func::SeqLen, [Term::var("s")]));
        let copy = t.clone();
        match (&t, &copy) {
            (Term::App(_, a), Term::App(_, b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!("an addition is an application"),
        }
    }

    #[test]
    fn term_fits_in_five_words() {
        assert!(std::mem::size_of::<Term>() <= 40);
    }

    #[test]
    fn rename_applies_everywhere() {
        let t = Term::add(Term::var("x"), Term::var("y"));
        let r = t.rename(&|s| s.suffixed("@1"));
        assert_eq!(
            r.free_vars().into_iter().collect::<Vec<_>>(),
            vec![Symbol::new("x@1"), Symbol::new("y@1")]
        );
    }
}
