//! The rollback contract of the congruence closure, on random call
//! sequences.
//!
//! [`Congruence::rollback_to`] promises the exact state its snapshot
//! captured. Each case runs a seeded random sequence of `assert_eq`,
//! `assert_neq`, `decide`, `class_id`, `snapshot` and LIFO `rollback_to`
//! calls over a small term universe: 4 variables, 2 integer literals, and
//! the uninterpreted `f` (unary) and `g` (binary) nested to depth 3.
//! After every rollback the closure must answer like one rebuilt from
//! scratch by replaying the calls that survive it, in order.
//!
//! The replay includes the surviving `decide` and `class_id` calls: they
//! intern their terms, and interning a term can discover a congruence (a
//! union), which moves [`Congruence::version`]. So a replay of the
//! asserts alone reaches the same classes but not always the same
//! version.

use commcsl_pure::{Func, Term};
use commcsl_smt::congruence::{Congruence, CongruenceSnapshot};

const CASES: u64 = 600;
const STEPS: usize = 40;
/// Random application terms per case, besides the 6 leaves.
const APPS: usize = 6;

/// SplitMix64: a seeded generator with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn leaves() -> Vec<Term> {
    let mut leaves: Vec<Term> = (0..4).map(|i| Term::var(format!("x{i}"))).collect();
    leaves.extend([Term::int(0), Term::int(1)]);
    leaves
}

/// A random application of `f` or `g` whose arguments nest at most
/// `depth - 1` further levels.
fn app(rng: &mut Rng, depth: usize) -> Term {
    let arg = |rng: &mut Rng| {
        if depth == 1 || rng.below(3) == 0 {
            leaves()[rng.below(6)].clone()
        } else {
            app(rng, depth - 1)
        }
    };
    if rng.below(2) == 0 {
        Term::app(Func::Uninterpreted("f".into()), [arg(rng)])
    } else {
        let first = arg(rng);
        Term::app(Func::Uninterpreted("g".into()), [first, arg(rng)])
    }
}

/// A call that asserts or interns, by pool index.
#[derive(Debug, Clone, Copy)]
enum Call {
    Eq(usize, usize),
    Neq(usize, usize),
    Decide(usize, usize),
    ClassId(usize),
}

/// The call's answer, so the live and rebuilt closures can be compared
/// call by call.
#[derive(Debug, PartialEq)]
enum Answer {
    Unit,
    Decided(Option<bool>),
    Class(usize),
}

fn apply(cc: &Congruence, pool: &[Term], call: Call) -> Answer {
    match call {
        Call::Eq(a, b) => {
            cc.assert_eq(&pool[a], &pool[b]);
            Answer::Unit
        }
        Call::Neq(a, b) => {
            cc.assert_neq(&pool[a], &pool[b]);
            Answer::Unit
        }
        Call::Decide(a, b) => Answer::Decided(cc.decide(&pool[a], &pool[b])),
        Call::ClassId(a) => Answer::Class(cc.class_id(&pool[a])),
    }
}

/// Checks the live closure, just rolled back, against one rebuilt from
/// the surviving `log`, then runs `decide` on every pair and `class_id`
/// on every term against both (logging those calls too, since they
/// intern).
fn assert_matches_replay(live: &Congruence, pool: &[Term], log: &mut Vec<Call>, case: u64) {
    let rebuilt = Congruence::new();
    for &call in log.iter() {
        apply(&rebuilt, pool, call);
    }
    assert_eq!(
        live.contradictory(),
        rebuilt.contradictory(),
        "case {case}: contradictory() after rollback, log {log:?}"
    );
    assert_eq!(
        live.version(),
        rebuilt.version(),
        "case {case}: version() after rollback, log {log:?}"
    );
    let mut ids = Vec::new();
    for a in 0..pool.len() {
        let call = Call::ClassId(a);
        let (Answer::Class(live_id), Answer::Class(rebuilt_id)) =
            (apply(live, pool, call), apply(&rebuilt, pool, call))
        else {
            unreachable!("class_id answers a class");
        };
        ids.push((live_id, rebuilt_id));
        log.push(call);
    }
    for a in 0..pool.len() {
        for b in a + 1..pool.len() {
            let call = Call::Decide(a, b);
            assert_eq!(
                apply(live, pool, call),
                apply(&rebuilt, pool, call),
                "case {case}: decide({}, {}) after rollback, log {log:?}",
                pool[a],
                pool[b]
            );
            assert_eq!(
                ids[a].0 == ids[b].0,
                ids[a].1 == ids[b].1,
                "case {case}: class_id partition at ({}, {}), log {log:?}",
                pool[a],
                pool[b]
            );
            log.push(call);
        }
    }
}

#[test]
fn rollback_matches_a_replay_of_the_surviving_calls() {
    let mut rollbacks = 0;
    for case in 0..CASES {
        let mut rng = Rng(case.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0xE703_7ED1_A0B4_28DB);
        let mut pool = leaves();
        pool.extend((0..APPS).map(|_| app(&mut rng, 3)));
        let cc = Congruence::new();
        let mut log: Vec<Call> = Vec::new();
        let mut snapshots: Vec<(CongruenceSnapshot, usize)> = Vec::new();

        for _ in 0..STEPS {
            let (a, b) = (rng.below(pool.len()), rng.below(pool.len()));
            let call = match rng.below(20) {
                0..=4 => Call::Eq(a, b),
                5..=6 => Call::Neq(a, b),
                7..=10 => Call::Decide(a, b),
                11..=12 => Call::ClassId(a),
                13..=16 => {
                    snapshots.push((cc.snapshot(), log.len()));
                    continue;
                }
                _ => {
                    if snapshots.is_empty() {
                        continue;
                    }
                    // LIFO: rolling back to a deeper snapshot discards
                    // every one above it.
                    let depth = rng.below(snapshots.len());
                    let (snap, len) = snapshots[depth];
                    snapshots.truncate(depth);
                    cc.rollback_to(&snap);
                    log.truncate(len);
                    assert_matches_replay(&cc, &pool, &mut log, case);
                    rollbacks += 1;
                    continue;
                }
            };
            apply(&cc, &pool, call);
            log.push(call);
        }
        while let Some((snap, len)) = snapshots.pop() {
            cc.rollback_to(&snap);
            log.truncate(len);
            assert_matches_replay(&cc, &pool, &mut log, case);
            rollbacks += 1;
        }
    }
    assert!(
        rollbacks >= CASES,
        "only {rollbacks} rollbacks over {CASES} cases"
    );
}
