//! Round-trip guarantees of the frontend:
//!
//! * every Table 1 fixture (and every rejected variant) survives
//!   `compile(&pretty(p)) == p` *structurally*, and
//! * proptest-generated annotated programs — random resource
//!   specifications plus random statement trees — survive the same
//!   round trip, with pretty-printing idempotent on the way.

use commcsl_front::{compile, fixtures, pretty::pretty};
use commcsl_logic::spec::{ActionDef, ActionKind, ResourceSpec};
use commcsl_pure::{Sort, Term};
use commcsl_verifier::program::{AnnotatedProgram, VStmt};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_roundtrip(program: &AnnotatedProgram) {
    let printed = pretty(program);
    let reparsed = compile(&printed)
        .unwrap_or_else(|e| panic!("re-parsing failed: {e}\n--- source ---\n{printed}"));
    assert_eq!(
        &reparsed, program,
        "round-trip mismatch\n--- source ---\n{printed}"
    );
    // Pretty-printing the reparsed program is byte-identical (idempotence).
    assert_eq!(pretty(&reparsed), printed);
}

#[test]
fn all_table1_fixtures_roundtrip() {
    for fixture in fixtures::all() {
        assert_roundtrip(&fixture.program);
    }
}

#[test]
fn all_rejected_variants_roundtrip() {
    for (name, program) in fixtures::rejected() {
        let printed = pretty(&program);
        let reparsed = compile(&printed)
            .unwrap_or_else(|e| panic!("{name}: re-parsing failed: {e}\n{printed}"));
        assert_eq!(reparsed, program, "{name}\n--- source ---\n{printed}");
    }
}

// ---------------------------------------------------------------- proptest

/// A small term generator. `vars` is the vocabulary of integer-sorted
/// variables allowed to occur free; depth bounds recursion.
fn gen_int_term(rng: &mut StdRng, vars: &[&str], depth: u32) -> Term {
    let leaf = depth == 0 || rng.gen_range(0..3) == 0;
    if leaf {
        if !vars.is_empty() && rng.gen_range(0..2) == 0 {
            let v = vars[rng.gen_range(0..vars.len())];
            Term::var(v)
        } else {
            Term::int(rng.gen_range(-4i64..5))
        }
    } else {
        let a = gen_int_term(rng, vars, depth - 1);
        let b = gen_int_term(rng, vars, depth - 1);
        match rng.gen_range(0..5) {
            0 => Term::add(a, b),
            1 => Term::sub(a, b),
            2 => Term::mul(a, b),
            3 => Term::app(commcsl_pure::Func::Max, [a, b]),
            // Negation over a variable only: `Neg(lit)` has no surface
            // form distinct from negative literals.
            _ if !vars.is_empty() => Term::app(
                commcsl_pure::Func::Neg,
                [Term::var(vars[rng.gen_range(0..vars.len())])],
            ),
            _ => Term::add(a, Term::int(1)),
        }
    }
}

fn gen_bool_term(rng: &mut StdRng, vars: &[&str], depth: u32) -> Term {
    match rng.gen_range(0..6) {
        0 => Term::tt(),
        1 if depth > 0 => Term::not(gen_bool_term(rng, vars, depth - 1)),
        2 if depth > 0 => Term::and([
            gen_bool_term(rng, vars, depth - 1),
            gen_bool_term(rng, vars, depth - 1),
        ]),
        3 if depth > 0 => Term::or([
            gen_bool_term(rng, vars, depth - 1),
            gen_bool_term(rng, vars, depth - 1),
            gen_bool_term(rng, vars, depth - 1),
        ]),
        4 => Term::le(
            gen_int_term(rng, vars, depth.saturating_sub(1)),
            gen_int_term(rng, vars, depth.saturating_sub(1)),
        ),
        _ => Term::eq(
            gen_int_term(rng, vars, depth.saturating_sub(1)),
            gen_int_term(rng, vars, depth.saturating_sub(1)),
        ),
    }
}

fn gen_spec(rng: &mut StdRng, index: usize) -> ResourceSpec {
    let n_actions = rng.gen_range(1..3usize);
    let actions: Vec<ActionDef> = (0..n_actions)
        .map(|i| {
            let kind = if rng.gen_range(0..2) == 0 {
                ActionKind::Shared
            } else {
                ActionKind::Unique
            };
            ActionDef {
                name: format!("A{i}").into(),
                kind,
                arg_sort: Sort::Int,
                body: gen_int_term(rng, &["v", "arg"], 2),
                pre: if rng.gen_range(0..3) == 0 {
                    Term::tt()
                } else {
                    gen_bool_term(rng, &["arg1", "arg2"], 2)
                },
            }
        })
        .collect();
    ResourceSpec::new(
        format!("spec-{index}"),
        Sort::Int,
        gen_int_term(rng, &["v"], 2),
        actions,
    )
}

fn gen_stmts(rng: &mut StdRng, specs: &[ResourceSpec], depth: u32) -> Vec<VStmt> {
    let n = rng.gen_range(1..4usize);
    (0..n).map(|_| gen_stmt(rng, specs, depth)).collect()
}

fn gen_stmt(rng: &mut StdRng, specs: &[ResourceSpec], depth: u32) -> VStmt {
    let vars = ["x", "y", "z"];
    let var = vars[rng.gen_range(0..vars.len())];
    let resource = rng.gen_range(0..specs.len());
    let action = {
        let actions = &specs[resource].actions;
        actions[rng.gen_range(0..actions.len())].name.clone()
    };
    let max = if depth == 0 { 8 } else { 12 };
    match rng.gen_range(0..max) {
        0 => VStmt::Input {
            var: var.into(),
            sort: [Sort::Int, Sort::Bool, Sort::seq(Sort::Int)]
                [rng.gen_range(0..3usize)]
            .clone(),
            low: rng.gen_range(0..2) == 0,
        },
        1 => VStmt::assign(var, gen_int_term(rng, &vars, 2)),
        2 => VStmt::Share {
            resource,
            init: gen_int_term(rng, &[], 1),
        },
        3 => VStmt::atomic(resource, action, gen_int_term(rng, &vars, 1)),
        4 => VStmt::AtomicDeferred {
            resource,
            action,
            arg: gen_int_term(rng, &vars, 1),
        },
        5 => VStmt::AtomicBatch {
            resource,
            action,
            arg: gen_int_term(rng, &vars, 1),
            count: gen_int_term(rng, &vars, 1),
        },
        6 => VStmt::Unshare {
            resource,
            into: var.into(),
        },
        7 => VStmt::Output(gen_int_term(rng, &vars, 2)),
        8 => VStmt::If {
            cond: gen_bool_term(rng, &vars, 1),
            then_b: gen_stmts(rng, specs, depth - 1),
            else_b: if rng.gen_range(0..2) == 0 {
                Vec::new()
            } else {
                gen_stmts(rng, specs, depth - 1)
            },
        },
        9 => VStmt::for_range(
            var,
            gen_int_term(rng, &vars, 1),
            gen_int_term(rng, &vars, 1),
            gen_stmts(rng, specs, depth - 1),
        ),
        10 => VStmt::Par {
            workers: (0..rng.gen_range(1..4usize))
                .map(|_| gen_stmts(rng, specs, depth - 1))
                .collect(),
        },
        _ => VStmt::ConsumeBind {
            resource,
            action,
            var: var.into(),
            index: gen_int_term(rng, &vars, 1),
        },
    }
}

fn gen_program(seed: u64) -> AnnotatedProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_resources = rng.gen_range(1..3usize);
    let resources: Vec<ResourceSpec> =
        (0..n_resources).map(|i| gen_spec(&mut rng, i)).collect();
    let body = gen_stmts(&mut rng, &resources, 2);
    AnnotatedProgram {
        // Exercise both identifier and quoted program names.
        name: if seed.is_multiple_of(2) {
            format!("prog_{seed}")
        } else {
            format!("prog-{seed}")
        },
        resources,
        body,
        spans: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `compile(&pretty(p)) == p` over generated annotated programs.
    #[test]
    fn generated_programs_roundtrip(seed in 0u64..1_000_000_000) {
        let program = gen_program(seed);
        assert_roundtrip(&program);
    }
}
