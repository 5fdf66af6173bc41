//! Byte-identity pins for the static low-ness pre-pass.
//!
//! The pre-pass is an *optimisation*, not a semantics change: with it on
//! (the default) and off, `VerifierReport::to_json()` must be
//! byte-identical over every program we ship — the committed `.csl`
//! corpus of Table 1 rows and rejected variants. These pins are the
//! CLI-facing counterpart of the random differential harness in
//! `crates/verifier/tests/prepass_soundness.rs`.

use commcsl_front::{compile, fixtures};
use commcsl_smt::SessionStats;
use commcsl_verifier::obligation::MemoryObligationStore;
use commcsl_verifier::program::AnnotatedProgram;
use commcsl_verifier::report::VerifierConfig;
use commcsl_verifier::{verify_incremental, verify_with_stats};

fn prepass_off() -> VerifierConfig {
    VerifierConfig {
        static_prepass: false,
        ..VerifierConfig::default()
    }
}

/// Verifies `program` both ways, asserts identical report bytes, and
/// returns how many obligations the pre-pass discharged statically.
fn assert_identical(program: &AnnotatedProgram, label: &str) -> (usize, usize) {
    let (on, stats, _, _) = verify_with_stats(program, &VerifierConfig::default());
    let (off, off_stats, _, _) = verify_with_stats(program, &prepass_off());
    assert_eq!(
        on.to_json(),
        off.to_json(),
        "{label}: report bytes diverge with the static pre-pass on"
    );
    assert_eq!(off_stats.statically_proven, 0, "{label}");
    (stats.statically_proven, stats.statically_proven + stats.checked)
}

#[test]
fn example_corpus_is_byte_identical() {
    let mut statically = 0;
    let mut total = 0;
    for fixture in fixtures::all() {
        let (s, t) = assert_identical(&fixture.program, fixture.name);
        statically += s;
        total += t;
    }
    assert!(total > 0);
    // The corpus contains statically-dischargeable obligations (literal
    // outputs, trivial preconditions); the pre-pass must find some.
    assert!(
        statically > 0,
        "pre-pass discharged nothing over examples/programs"
    );
}

#[test]
fn rejected_corpus_is_byte_identical() {
    let mut total = 0;
    for (name, program) in fixtures::rejected() {
        let (_, t) = assert_identical(&program, name);
        total += t;
    }
    assert!(total > 0);
}

/// Statically-proven obligations still enter the obligation store: a
/// re-run against the same store replays them as cache hits instead of
/// re-deriving them.
#[test]
fn static_discharges_enter_the_obligation_store() {
    let program = compile("program good;\ninput a: Int low;\noutput a;\n").unwrap();
    let config = VerifierConfig::default();
    let mut store = MemoryObligationStore::default();

    let (first, first_stats) =
        verify_incremental(&program, &config, &mut store, &mut |_| {});
    assert!(first.verified());
    assert!(
        first_stats.statically_proven > 0,
        "{first_stats:?}: expected a static discharge"
    );

    let (second, second_stats) =
        verify_incremental(&program, &config, &mut store, &mut |_| {});
    assert_eq!(first.to_json(), second.to_json());
    assert_eq!(
        second_stats.reused, second_stats.total,
        "{second_stats:?}: re-run should be served entirely from the store"
    );
    assert_eq!(second_stats.statically_proven, 0, "{second_stats:?}");
}

/// A program whose path obligations the pre-pass proves does no work on
/// the program's solver session: its facts stay buffered, because no
/// check ever needs them, and its spec-validity check runs in a session
/// of its own.
#[test]
fn statically_proven_program_leaves_the_session_untouched() {
    let program = fixtures::find("Figure 1").unwrap().program;
    let (report, stats, _, session) = verify_with_stats(&program, &VerifierConfig::default());
    assert!(report.verified(), "{report}");
    assert!(stats.statically_proven > 0, "{stats:?}");
    assert_eq!(
        stats.statically_proven + 1,
        stats.total,
        "{stats:?}: every obligation but the spec's validity is static"
    );
    assert_eq!(session, SessionStats::default());
}
