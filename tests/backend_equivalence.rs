//! Backend equivalence: the incremental solver backend produces reports
//! **byte-identical** to the stateless (`fresh`) backend and to the
//! legacy free-function path, across every route that can serve a
//! verdict.
//!
//! Pinned corpora:
//!
//! * the committed `.csl` corpus: the 18 Table 1 fixtures and, in a test
//!   of their own, the 5 rejected variants (span-carrying programs, so
//!   source positions in diagnostics are covered too),
//! * 64 random annotated programs from a proptest generator,
//! * every fixture's and rejected variant's recorded solver-event stream,
//!   replayed through both backends (verdict-stream equality at the
//!   session seam), with the live facts at each check pinned to the
//!   incremental engine's obligation cones.

use commcsl::logic::spec::ResourceSpec;
use commcsl::prelude::*;
use commcsl::verifier::cache::CacheConfig;
use commcsl::verifier::obligation::MemoryObligationStore;
use commcsl::verifier::{solver_trace, verify_incremental, DiagnosticCode, SolverEvent, Verifier};
use proptest::prelude::*;

fn config_for(backend: BackendKind) -> VerifierConfig {
    let mut config = VerifierConfig {
        backend,
        ..Default::default()
    };
    config.validity.backend = backend;
    config
}

/// Asserts byte-identical reports for one program across: the legacy
/// free function under both backends, the unified `Verifier` under both
/// backends, and a cold+warm cached route.
fn assert_equivalent(program: &AnnotatedProgram) -> String {
    let fresh = verify(program, &config_for(BackendKind::Fresh)).to_json();
    let incremental = verify(program, &config_for(BackendKind::Incremental)).to_json();
    assert_eq!(fresh, incremental, "backends diverge on `{}`", program.name);

    for backend in BackendKind::ALL {
        let api = Verifier::new()
            .with_config(config_for(backend))
            .with_threads(1);
        assert_eq!(
            api.verify(program).report.to_json(),
            fresh,
            "Verifier({backend}) diverges from the legacy path on `{}`",
            program.name
        );
    }

    let cached = Verifier::new()
        .with_threads(1)
        .with_cache(CacheConfig::memory_only(8));
    let cold = cached.verify(program);
    let warm = cached.verify(program);
    assert_eq!(cold.cached, Some(false));
    assert_eq!(warm.cached, Some(true));
    assert_eq!(cold.report.to_json(), fresh, "cold cache route diverges");
    assert_eq!(warm.report.to_json(), fresh, "warm cache route diverges");
    fresh
}

/// Checks one compiled corpus program: it carries statement spans, every
/// route reports the same bytes, the report has source positions and
/// the expected verdict.
fn assert_corpus_program(name: &str, program: &AnnotatedProgram, must_verify: bool) {
    assert!(
        !program.spans.is_empty(),
        "{name}: compiled programs carry statement spans"
    );
    let json = assert_equivalent(program);
    assert!(
        json.contains("\"span\":"),
        "{name}: the report carries source positions"
    );
    assert!(
        json.contains(&format!("\"verified\":{must_verify}")),
        "{name} must have verified={must_verify}"
    );
}

/// The 18 Table 1 rows; the rejected variants are the other test's, so
/// each corpus program runs once.
#[test]
fn fixture_corpus_is_byte_identical_across_backends_and_routes() {
    for fixture in commcsl::fixtures::all() {
        assert_corpus_program(fixture.name, &fixture.program, true);
    }
}

/// The 5 rejected variants, whose failing obligations put source
/// positions into the diagnostics.
#[test]
fn compiled_csl_corpus_with_spans_is_byte_identical() {
    for (name, program) in commcsl::fixtures::rejected() {
        assert_corpus_program(name, &program, false);
    }
}

/// The live path facts at each `Check` of a recorded stream: a stack of
/// fact counts, one per open scope.
fn live_facts_at_checks(trace: &[SolverEvent]) -> Vec<usize> {
    let mut live = 0;
    let mut marks = Vec::new();
    let mut at_checks = Vec::new();
    for event in trace {
        match event {
            SolverEvent::Push => marks.push(live),
            SolverEvent::Pop => live = marks.pop().expect("pop of an open scope"),
            SolverEvent::Assert(_) => live += 1,
            SolverEvent::Check { .. } => at_checks.push(live),
        }
    }
    at_checks
}

/// The cone size of each path obligation, in report order, as the
/// incremental engine reports it with the pre-pass off over a fresh
/// store: the facts in scope at the check.
fn cone_sizes(program: &AnnotatedProgram) -> Vec<usize> {
    let config = VerifierConfig {
        static_prepass: false,
        ..VerifierConfig::default()
    };
    let mut sizes = Vec::new();
    let mut store = MemoryObligationStore::default();
    verify_incremental(program, &config, &mut store, &mut |event| {
        if event.result.code != DiagnosticCode::SpecValidity {
            sizes.push(event.cone.len());
        }
    });
    sizes
}

#[test]
fn solver_event_streams_replay_identically() {
    let config = VerifierConfig::default();
    let fixtures = commcsl::fixtures::all()
        .into_iter()
        .map(|f| (f.name.to_owned(), f.program));
    let rejected = commcsl::fixtures::rejected()
        .into_iter()
        .map(|(name, program)| (name.to_owned(), program));
    for (name, program) in fixtures.chain(rejected) {
        let trace = solver_trace(&program, &config);
        assert!(
            trace.iter().any(|e| matches!(e, SolverEvent::Check { .. })),
            "{name} records obligations"
        );
        // The lazy session replays facts only before a check, so each
        // check must still see exactly the path facts in scope — the
        // list the falsifier and the obligation cone read.
        assert_eq!(
            live_facts_at_checks(&trace),
            cone_sizes(&program),
            "live facts at each check diverge from the cones on {name}"
        );
        let replay = |kind: BackendKind| -> Vec<Verdict> {
            let mut session = kind.open_session(config.solver.clone());
            let mut verdicts = Vec::new();
            for event in &trace {
                match event {
                    SolverEvent::Push => session.push(),
                    SolverEvent::Pop => session.pop(),
                    SolverEvent::Assert(fact) => session.assert(fact.clone()),
                    SolverEvent::Check { assumptions, goal } => {
                        verdicts.push(session.check_assuming(assumptions.clone(), goal));
                    }
                }
            }
            verdicts
        };
        assert_eq!(
            replay(BackendKind::Fresh),
            replay(BackendKind::Incremental),
            "verdict streams diverge on {name}"
        );
    }
}

// ------------------------------------------------------ random programs

/// A small pool of action-argument expressions over the program inputs.
fn arg_expr(ix: u8) -> Term {
    match ix % 6 {
        0 => Term::var("a"),
        1 => Term::var("b"),
        2 => Term::add(Term::var("a"), Term::var("b")),
        3 => Term::mul(Term::var("a"), Term::int(2)),
        4 => Term::sub(Term::var("b"), Term::int(1)),
        _ => Term::int(3),
    }
}

/// Output expressions, additionally over the unshared counter `c`.
fn out_expr(ix: u8) -> Term {
    match ix % 6 {
        0 => Term::var("c"),
        1 => Term::add(Term::var("c"), Term::var("a")),
        2 => Term::var("a"),
        3 => Term::sub(Term::var("c"), Term::var("b")),
        4 => Term::mul(Term::var("c"), Term::int(2)),
        _ => Term::var("b"),
    }
}

fn gen_program() -> impl Strategy<Value = AnnotatedProgram> {
    (
        (0u8..2, 0u8..2, 0u8..2, 0u8..2),
        (0u8..6, 0u8..6, 0u8..6, 1i64..4),
    )
        .prop_map(|((low_a, low_b, use_loop, split), (out_ix, a1_ix, a2_ix, bound))| {
            let worker = |arg: Term| {
                if use_loop == 1 {
                    vec![VStmt::for_range(
                        "i",
                        Term::int(0),
                        Term::int(bound),
                        [VStmt::atomic(0, "Add", arg)],
                    )]
                } else {
                    vec![VStmt::atomic(0, "Add", arg)]
                }
            };
            let mut body = vec![
                VStmt::input("a", Sort::Int, low_a == 1),
                VStmt::input("b", Sort::Int, low_b == 1),
                VStmt::Share { resource: 0, init: Term::int(0) },
                VStmt::Par {
                    workers: vec![worker(arg_expr(a1_ix)), worker(arg_expr(a2_ix))],
                },
                VStmt::Unshare { resource: 0, into: "c".into() },
            ];
            if split == 1 {
                body.push(VStmt::If {
                    cond: Term::eq(Term::var("a"), Term::int(0)),
                    then_b: vec![VStmt::assign("d", Term::int(1))],
                    else_b: vec![VStmt::assign("d", Term::int(2))],
                });
                body.push(VStmt::AssertLow(Term::var("d")));
            }
            body.push(VStmt::Output(out_expr(out_ix)));
            AnnotatedProgram::new("prop-program")
                .with_resource(ResourceSpec::counter_add())
                .with_body(body)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random annotated programs — verifying and failing alike, with
    /// counterexample search enabled — produce byte-identical reports
    /// under both backends and the legacy path.
    #[test]
    fn random_programs_are_byte_identical_across_backends(program in gen_program()) {
        let fresh = verify(&program, &config_for(BackendKind::Fresh)).to_json();
        let incremental =
            verify(&program, &config_for(BackendKind::Incremental)).to_json();
        prop_assert_eq!(&fresh, &incremental);
        let api = Verifier::new()
            .with_config(config_for(BackendKind::Incremental))
            .with_threads(1);
        prop_assert_eq!(&api.verify(&program).report.to_json(), &fresh);
    }
}
