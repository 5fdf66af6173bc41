//! The parallel batch-verification pipeline must be a pure speedup: for
//! every Table 1 fixture and every rejected variant, batch verdicts are
//! identical to sequential `verify` verdicts regardless of thread count.

use commcsl::fixtures;
use commcsl::verifier::{verify, AnnotatedProgram, Verifier, VerifierConfig, VerifierReport};

fn sequential(programs: &[&AnnotatedProgram]) -> Vec<VerifierReport> {
    let config = VerifierConfig::default();
    programs.iter().map(|p| verify(p, &config)).collect()
}

fn assert_reports_identical(batch: &VerifierReport, seq: &VerifierReport, context: &str) {
    assert_eq!(batch.program, seq.program, "{context}");
    assert_eq!(batch.verified(), seq.verified(), "{context}: verdict");
    assert_eq!(batch.errors, seq.errors, "{context}: errors");
    assert_eq!(
        batch.obligations.len(),
        seq.obligations.len(),
        "{context}: obligation count"
    );
    for (b, s) in batch.obligations.iter().zip(&seq.obligations) {
        assert_eq!(b.description, s.description, "{context}");
        assert_eq!(b.status, s.status, "{context}: {}", b.description);
    }
}

#[test]
fn batch_matches_sequential_on_all_fixtures_for_any_thread_count() {
    let fixtures = fixtures::all();
    assert_eq!(fixtures.len(), 18, "the full Table 1 suite");
    let programs: Vec<&AnnotatedProgram> = fixtures.iter().map(|f| &f.program).collect();
    let expected = sequential(&programs);

    for threads in [1, 2, 3, 7, 32] {
        let results = Verifier::new()
            .with_threads(threads)
            .verify_batch(&programs);
        assert_eq!(results.len(), expected.len());
        for (result, seq) in results.iter().zip(&expected) {
            let context = format!("{} (threads={threads})", result.program);
            assert_reports_identical(&result.report, seq, &context);
            assert!(result.report.verified(), "{context} must verify");
        }
    }
}

#[test]
fn batch_matches_sequential_on_rejected_programs() {
    let rejected: Vec<(&str, AnnotatedProgram)> = fixtures::rejected();
    let programs: Vec<&AnnotatedProgram> = rejected.iter().map(|(_, p)| p).collect();
    let expected = sequential(&programs);

    for threads in [2, 5] {
        let results = Verifier::new()
            .with_threads(threads)
            .verify_batch(&programs);
        for ((result, seq), (name, _)) in results.iter().zip(&expected).zip(&rejected) {
            let context = format!("{name} (threads={threads})");
            assert_reports_identical(&result.report, seq, &context);
            assert!(
                !result.report.verified(),
                "{context} must be rejected in batch mode too"
            );
        }
    }
}

#[test]
fn batch_preserves_input_order_under_contention() {
    // Many copies of the suite at once: order must still be input order.
    let fixtures = fixtures::all();
    let programs: Vec<&AnnotatedProgram> = fixtures
        .iter()
        .chain(fixtures.iter())
        .map(|f| &f.program)
        .collect();
    let results = Verifier::new().verify_batch(&programs);
    assert_eq!(results.len(), 2 * fixtures.len());
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.index, i);
        assert_eq!(result.program, fixtures[i % fixtures.len()].program.name);
    }
}
