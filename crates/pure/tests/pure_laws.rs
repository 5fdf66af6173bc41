//! Property tests for the algebraic laws of the pure value domain that
//! CommCSL's proof obligations lean on: commutativity of the abstraction
//! observers, rewriter semantics preservation on random terms, and
//! multiset laws.

use std::sync::Arc;

use commcsl_pure::gen::{GenConfig, ValueGen};
use commcsl_pure::rewrite::{normalize, SyntacticOracle};
use commcsl_pure::term::Env;
use commcsl_pure::{Func, Multiset, Sort, Term, Value};
use proptest::prelude::*;

fn small_int() -> impl Strategy<Value = i64> {
    -5i64..=5
}

/// Well-sorted container terms over `s: Seq[Int]`, `m: Map[Int, Int]`
/// and `x, y: Int`, one per family of observer-through-mutator rules.
fn container_terms() -> [Term; 6] {
    [
        Term::app(
            Func::SeqToMultiset,
            [Term::app(Func::SeqAppend, [Term::var("s"), Term::var("x")])],
        ),
        Term::app(
            Func::SeqSorted,
            [Term::app(Func::SeqAppend, [Term::var("s"), Term::var("y")])],
        ),
        Term::app(Func::SeqMean, [Term::var("s")]),
        Term::app(
            Func::MapDom,
            [Term::app(
                Func::MapPut,
                [Term::var("m"), Term::var("x"), Term::var("y")],
            )],
        ),
        Term::app(
            Func::MapGetOr,
            [
                Term::app(
                    Func::MapPut,
                    [Term::var("m"), Term::var("x"), Term::var("y")],
                ),
                Term::var("y"),
                Term::int(0),
            ],
        ),
        Term::app(
            Func::Mod,
            [
                Term::add(Term::mul(Term::int(4), Term::var("x")), Term::var("y")),
                Term::int(2),
            ],
        ),
    ]
}

/// Normalization rebuilds no normal subterm: a rewrite pass returns a
/// node whose rewrite is structurally equal to it as that node itself,
/// down to its shared argument slice. So normalizing a normal form
/// returns it, and a redex wrapped around one exposes the original.
#[test]
fn normalization_shares_normal_subterms() {
    for t in container_terms() {
        let n = normalize(&t, &SyntacticOracle);
        let again = normalize(&n, &SyntacticOracle);
        let redex = Term::fst(Term::pair(n.clone(), Term::int(0)));
        let exposed = normalize(&redex, &SyntacticOracle);
        for m in [again, exposed] {
            match (&n, &m) {
                (Term::App(_, args), Term::App(_, m_args)) => assert!(
                    Arc::ptr_eq(args, m_args),
                    "normalizing around {n:?} rebuilt its arguments"
                ),
                _ => panic!("{t:?} should normalize to an application, got {n:?} and {m:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Multiset union is commutative, associative, and has the empty
    /// multiset as unit.
    #[test]
    fn multiset_union_is_a_commutative_monoid(
        xs in proptest::collection::vec(small_int(), 0..6),
        ys in proptest::collection::vec(small_int(), 0..6),
        zs in proptest::collection::vec(small_int(), 0..6),
    ) {
        let a: Multiset<i64> = xs.into_iter().collect();
        let b: Multiset<i64> = ys.into_iter().collect();
        let c: Multiset<i64> = zs.into_iter().collect();
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&Multiset::new()), a);
    }

    /// Difference then union restores a superset's contents.
    #[test]
    fn multiset_difference_union_inverse(
        xs in proptest::collection::vec(small_int(), 0..6),
        ys in proptest::collection::vec(small_int(), 0..6),
    ) {
        let a: Multiset<i64> = xs.into_iter().collect();
        let b: Multiset<i64> = ys.into_iter().collect();
        let u = a.union(&b);
        prop_assert_eq!(u.difference(&a), b);
    }

    /// The abstraction observers forget append order: the identities the
    /// validity checker proves symbolically, checked here on the ground
    /// semantics.
    #[test]
    fn observers_forget_append_order(
        base in proptest::collection::vec(small_int(), 0..4),
        a in small_int(),
        b in small_int(),
    ) {
        let s = Value::seq(base.into_iter().map(Value::Int));
        let ab = s.seq_append(Value::Int(a)).unwrap().seq_append(Value::Int(b)).unwrap();
        let ba = s.seq_append(Value::Int(b)).unwrap().seq_append(Value::Int(a)).unwrap();
        prop_assert_eq!(ab.seq_to_multiset().unwrap(), ba.seq_to_multiset().unwrap());
        prop_assert_eq!(ab.seq_len().unwrap(), ba.seq_len().unwrap());
        prop_assert_eq!(ab.seq_sum().unwrap(), ba.seq_sum().unwrap());
        prop_assert_eq!(ab.seq_sorted().unwrap(), ba.seq_sorted().unwrap());
        if a != b {
            prop_assert_ne!(ab, ba, "the concrete lists must differ");
        }
    }

    /// dom(put(m,k,v)) = dom(m) ∪ {k} — the Fig. 4 abstraction law.
    #[test]
    fn dom_of_put_law(
        keys in proptest::collection::vec(small_int(), 0..4),
        k in small_int(),
        v in small_int(),
    ) {
        let m = Value::map(keys.into_iter().map(|x| (Value::Int(x), Value::Int(0))));
        let put = m.map_put(Value::Int(k), Value::Int(v)).unwrap();
        let expected = m.map_dom().unwrap().set_add(Value::Int(k)).unwrap();
        prop_assert_eq!(put.map_dom().unwrap(), expected);
    }

    /// Normalization preserves ground semantics on randomly generated
    /// well-sorted container terms.
    #[test]
    fn normalize_preserves_semantics_on_random_states(seed in 0u64..500) {
        let mut g = ValueGen::new(seed, GenConfig::default());
        let env: Env = [
            ("s".into(), g.value(&Sort::seq(Sort::Int))),
            ("m".into(), g.value(&Sort::map(Sort::Int, Sort::Int))),
            ("x".into(), g.value(&Sort::Int)),
            ("y".into(), g.value(&Sort::Int)),
        ].into_iter().collect();
        for t in container_terms() {
            let n = normalize(&t, &SyntacticOracle);
            prop_assert_eq!(
                t.eval(&env).unwrap(), n.eval(&env).unwrap(),
                "semantics changed: {:?} → {:?}", t, n
            );
        }
    }

    /// Euclidean div/mod round-trip: `b*(a div b) + (a mod b) = a`.
    #[test]
    fn div_mod_roundtrip(a in small_int(), b in small_int()) {
        prop_assume!(b != 0);
        let (va, vb) = (Value::Int(a), Value::Int(b));
        let d = va.int_div(&vb).unwrap().as_int().unwrap();
        let m = va.int_mod(&vb).unwrap().as_int().unwrap();
        prop_assert_eq!(b * d + m, a);
        prop_assert!((0..b.abs()).contains(&m));
    }
}
