//! Workspace incremental re-verification: **byte-identity** of every
//! incrementally served report against cold whole-program verification,
//! across every corpus the repo has, plus reuse accounting for
//! single-statement edits.
//!
//! Pinned corpora:
//!
//! * the 18 Table 1 fixtures (`commcsl::fixtures::all()`, compiled from
//!   the committed `examples/programs/` texts, spans included),
//! * the 5 rejected variants, read from `examples/rejected/` on disk
//!   (failing reports with counterexamples included),
//! * random proptest edit *sequences* over generated annotated programs
//!   (every revision checked against a cold run),
//!
//! each under a shared workspace, so obligations cached by one program
//! are candidates for every later one. Each corpus program runs once.

use std::path::Path;

use commcsl::front::compile;
use commcsl::prelude::*;
use commcsl::verifier::cache::CacheConfig;
use commcsl::verifier::workspace::{Workspace, WorkspaceConfig};
use commcsl::verifier::DiagnosticCode;
use proptest::prelude::*;

fn workspace() -> Workspace {
    Workspace::new(WorkspaceConfig::default())
}

/// The generic single-statement edit that applies to *any* program:
/// append a provable `assert low` at the end of the body.
fn append_assert(program: &AnnotatedProgram) -> AnnotatedProgram {
    let mut edited = program.clone();
    edited.body.push(VStmt::AssertLow(Term::int(7)));
    edited
}

/// Obligations discharged retroactively at program end: their context
/// includes every earlier check boundary, so an edit *anywhere before
/// the end* legitimately dirties them.
fn retro_count(report: &commcsl::verifier::VerifierReport) -> usize {
    report
        .obligations
        .iter()
        .filter(|o| o.code == DiagnosticCode::ActionPreRetro)
        .count()
}

/// Opens `program`, pins byte-identity, applies the append edit, and
/// pins that the edit re-checked only its own cone (the new obligation
/// plus any retroactive ones).
fn assert_incremental(ws: &mut Workspace, doc: &str, program: &AnnotatedProgram) {
    let config = ws.config().clone();
    let cold = ws.open_document(doc, program);
    assert_eq!(
        cold.report.to_json(),
        commcsl::verifier::verify(program, &config).to_json(),
        "cold workspace report diverges on `{}`",
        program.name
    );

    let edited = append_assert(program);
    let outcome = ws.update_document(doc, &edited).expect("document open");
    assert_eq!(
        outcome.report.to_json(),
        commcsl::verifier::verify(&edited, &config).to_json(),
        "incremental report diverges on `{}`",
        program.name
    );
    assert_eq!(outcome.obligations.total, cold.obligations.total + 1);
    // The appended assert's goal (`7 = 7`) is claimed by the static
    // pre-pass, so the edit's cone is settled by checks *plus* static
    // discharges; everything else must come from the cache.
    let budget = 1 + retro_count(&outcome.report);
    let settled = outcome.obligations.checked + outcome.obligations.statically_proven;
    assert!(
        settled <= budget,
        "`{}`: {settled} re-settled, budget {budget}",
        program.name,
    );
    assert_eq!(outcome.obligations.reused, outcome.obligations.total - settled);
}

/// The 18 Table 1 rows; the rejected variants are the other test's, so
/// each corpus program runs once.
#[test]
fn fixture_corpus_is_byte_identical_and_edit_rechecks_only_the_cone() {
    let mut ws = workspace();
    for fixture in commcsl::fixtures::all() {
        assert_incremental(&mut ws, fixture.name, &fixture.program);
    }
}

/// The 5 rejected variants, compiled from the files on disk.
#[test]
fn csl_corpus_is_byte_identical_through_the_workspace() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/rejected");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/rejected exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "csl"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 5, "the rejected corpus has 5 programs");

    let mut ws = workspace();
    for path in entries {
        let source = std::fs::read_to_string(&path).expect("readable variant");
        let program = compile(&source).expect("corpus compiles");
        // Failing programs too: failed statuses (counterexamples and all)
        // must replay byte-identically, and span-carrying programs'
        // positions must survive the incremental route.
        assert_incremental(&mut ws, &path.display().to_string(), &program);
    }
}

#[test]
fn single_statement_modification_reuses_the_untouched_prefix() {
    // Two revisions of one `.csl` document differing in one statement.
    let before = "program doc;\n\
                  resource ctr: Int named \"counter-add\" {\n\
                  alpha(v) = v;\n\
                  shared action Add(arg: Int) = v + arg requires arg1 == arg2;\n\
                  }\n\
                  input a: Int low;\n\
                  share ctr = 0;\n\
                  par { with ctr performing Add(a); } || { with ctr performing Add(2); }\n\
                  unshare ctr into total;\n\
                  output total;\n";
    let after = before.replace("Add(2)", "Add(3)");
    let (p0, p1) = (compile(before).unwrap(), compile(&after).unwrap());

    let mut ws = workspace();
    let cold = ws.open_document("doc.csl", &p0);
    let edited = ws.update_document("doc.csl", &p1).expect("open");
    assert_eq!(
        edited.report.to_json(),
        commcsl::verifier::verify(&p1, ws.config()).to_json()
    );
    assert_eq!(edited.obligations.total, cold.obligations.total);
    // Spec validity, the low-init check, and worker 1's precondition are
    // untouched by editing worker 2's argument.
    assert!(
        edited.obligations.reused >= 3,
        "{:?}",
        edited.obligations
    );
}

#[test]
fn workspace_survives_disk_cache_reuse_across_documents() {
    let dir = std::env::temp_dir().join(format!(
        "commcsl-ws-incr-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = WorkspaceConfig {
        cache: CacheConfig::persistent(&dir),
        ..Default::default()
    };
    {
        let mut ws = Workspace::new(config.clone());
        for fixture in commcsl::fixtures::all().iter().take(4) {
            let _ = ws.open_document(fixture.name, &fixture.program);
        }
    }
    // A fresh workspace over the same disk tier: renamed variants miss
    // the program tier but replay every obligation from disk.
    let mut ws = Workspace::new(config);
    for fixture in commcsl::fixtures::all().iter().take(4) {
        let mut renamed = fixture.program.clone();
        renamed.name = format!("{}-renamed", fixture.program.name);
        let outcome = ws.open_document(fixture.name, &renamed);
        assert!(!outcome.report_cached);
        assert_eq!(outcome.obligations.checked, 0, "{}", fixture.name);
        assert_eq!(
            outcome.report.to_json(),
            commcsl::verifier::verify(&renamed, ws.config()).to_json()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------- proptest

fn arg_expr(ix: u8) -> Term {
    match ix {
        0 => Term::var("a"),
        1 => Term::var("b"),
        2 => Term::int(1),
        3 => Term::add(Term::var("a"), Term::int(1)),
        4 => Term::add(Term::var("a"), Term::var("b")),
        _ => Term::mul(Term::var("b"), Term::int(2)),
    }
}

fn out_expr(ix: u8) -> Term {
    match ix {
        0 => Term::var("c"),
        1 => Term::var("a"),
        2 => Term::var("b"),
        3 => Term::int(0),
        4 => Term::add(Term::var("c"), Term::var("a")),
        _ => Term::sub(Term::var("c"), Term::var("b")),
    }
}

/// One revision of the generated document, parameterized so that small
/// parameter changes are realistic edits (toggle an input's level,
/// change an action argument, change the output).
fn revision(low_a: bool, low_b: bool, a1_ix: u8, a2_ix: u8, out_ix: u8) -> AnnotatedProgram {
    AnnotatedProgram::new("prop-doc")
        .with_resource(ResourceSpec::counter_add())
        .with_body([
            VStmt::input("a", Sort::Int, low_a),
            VStmt::input("b", Sort::Int, low_b),
            VStmt::Share {
                resource: 0,
                init: Term::int(0),
            },
            VStmt::Par {
                workers: vec![
                    vec![VStmt::atomic(0, "Add", arg_expr(a1_ix))],
                    vec![VStmt::atomic(0, "Add", arg_expr(a2_ix))],
                ],
            },
            VStmt::Unshare {
                resource: 0,
                into: "c".into(),
            },
            VStmt::Output(out_expr(out_ix)),
        ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random edit sequences: every revision pushed through one
    /// workspace document reports byte-identically to a cold run —
    /// verifying and failing revisions alike, with counterexample search
    /// enabled, whatever mix of program-tier hits, obligation-tier hits,
    /// and fresh checks serves it.
    #[test]
    fn random_edit_sequences_stay_byte_identical(
        edits in proptest::collection::vec(
            (0u8..2, 0u8..2, 0u8..6, 0u8..6, 0u8..6),
            1..6,
        )
    ) {
        let mut ws = workspace();
        let config = ws.config().clone();
        let mut first = true;
        for (low_a, low_b, a1, a2, out) in edits {
            let program = revision(low_a == 1, low_b == 1, a1, a2, out);
            let outcome = if first {
                first = false;
                ws.open_document("doc", &program)
            } else {
                ws.update_document("doc", &program).expect("document open")
            };
            let direct = commcsl::verifier::verify(&program, &config);
            prop_assert_eq!(outcome.report.to_json(), direct.to_json());
        }
    }
}
