//! Cross-crate integration tests: the verifier's verdicts must agree with
//! the ground truth established by the operational semantics, and the
//! `commcsl` CLI reproduces them over the committed `.csl` corpus.

use std::path::PathBuf;

use commcsl::fixtures;
use commcsl::front::cli;
use commcsl::lang::nicheck::{check_non_interference, NiConfig};
use commcsl::prelude::*;

#[test]
fn table1_suite_verifies_end_to_end() {
    let config = VerifierConfig::default();
    for fixture in fixtures::all() {
        let report = verify(&fixture.program, &config);
        assert!(
            report.verified(),
            "Table 1 row `{}` must verify:\n{report}",
            fixture.name
        );
        assert!(report.proved_count() > 0, "{} proved nothing", fixture.name);
    }
}

#[test]
fn verifier_and_harness_agree_on_secure_fixtures() {
    let config = NiConfig {
        random_seeds: 4,
        fuel: 200_000,
    };
    for fixture in fixtures::all() {
        let Some(ni) = &fixture.ni else { continue };
        let report = check_non_interference(
            &ni.program,
            &ni.low_inputs,
            &ni.high_inputs,
            &ni.low_outputs,
            &config,
        );
        assert_eq!(report.aborted, 0, "{}: abort", fixture.name);
        assert!(report.executions > 0, "{}: nothing ran", fixture.name);
        assert!(
            report.holds(),
            "{}: verified program leaked empirically: {:?}",
            fixture.name,
            report.violation
        );
    }
}

#[test]
fn verifier_and_harness_agree_on_the_insecure_program() {
    // Rejected by the verifier…
    let (_, annotated) = fixtures::rejected()
        .into_iter()
        .find(|(name, _)| *name == "figure1-assignments")
        .expect("the Fig. 1 variant is in the rejected corpus");
    assert!(!verify(&annotated, &VerifierConfig::default()).verified());
    // …and the leak is real.
    let ni = fixtures::figure1_assignments_executable();
    let report = check_non_interference(
        &ni.program,
        &ni.low_inputs,
        &ni.high_inputs,
        &ni.low_outputs,
        &NiConfig {
            random_seeds: 4,
            fuel: 100_000,
        },
    );
    assert!(!report.holds(), "Fig. 1's timing channel must be observable");
}

#[test]
fn all_rejected_variants_fail_with_reasons() {
    for (name, program) in fixtures::rejected() {
        let report = verify(&program, &VerifierConfig::default());
        assert!(!report.verified(), "{name} must fail");
        assert!(
            report.failures().count() > 0 || !report.errors.is_empty(),
            "{name}: failure must carry a reason"
        );
    }
}

#[test]
fn parsed_programs_execute_deterministically_per_schedule() {
    let prog = parse_program(
        "x := 0;
         par { atomic { x := x + 3 } } { atomic { x := x + 4 } };
         output(x)",
    )
    .unwrap();
    for seed in 0..8 {
        let mut sched = RandomSched::new(seed);
        match run(&prog, State::new(), &mut sched, 10_000) {
            RunOutcome::Done(state) => assert_eq!(state.outputs, vec![Value::Int(7)]),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn exhaustive_interleavings_confirm_commutativity_claims() {
    use commcsl::lang::interp::enumerate_interleavings;
    // Commuting adds: exactly one final output.
    let commuting = parse_program(
        "par { atomic { x := x + 3 } } { atomic { x := x + 4 } }; output(x)",
    )
    .unwrap();
    let ex = enumerate_interleavings(&commuting, &State::new(), 200, 100_000);
    assert!(!ex.truncated);
    let outs: std::collections::BTreeSet<_> =
        ex.final_states.iter().map(|s| s.outputs.clone()).collect();
    assert_eq!(outs.len(), 1);

    // Non-commuting assignments: two distinct outputs.
    let racy =
        parse_program("par { atomic { x := 3 } } { atomic { x := 4 } }; output(x)").unwrap();
    let ex = enumerate_interleavings(&racy, &State::new(), 200, 100_000);
    let outs: std::collections::BTreeSet<_> =
        ex.final_states.iter().map(|s| s.outputs.clone()).collect();
    assert_eq!(outs.len(), 2);
}

#[test]
fn spec_library_round_trips_through_validity() {
    // Every spec used by a fixture is valid; the deliberately broken ones
    // are not.
    for spec in [
        ResourceSpec::counter_add(),
        ResourceSpec::keyset_map(),
        ResourceSpec::opaque_int(),
        ResourceSpec::list_multiset(),
        ResourceSpec::list_length(),
        ResourceSpec::list_sum(),
        ResourceSpec::list_mean(),
        ResourceSpec::set_insert(),
        ResourceSpec::histogram(),
        ResourceSpec::map_add_value(),
        ResourceSpec::map_max_value(),
        ResourceSpec::disjoint_put_map(2),
        ResourceSpec::producer_consumer(true),
        ResourceSpec::producer_consumer(false),
    ] {
        let report = check_validity(&spec, &ValidityConfig::default());
        assert!(report.is_valid(), "{} must be valid: {report:?}", spec.name);
    }
    let report = check_validity(
        &ResourceSpec::list_mean_literal(),
        &ValidityConfig::default(),
    );
    assert!(report.is_invalid(), "literal mean must be refuted");
}

#[test]
fn cli_verifies_both_corpora_end_to_end() {
    let corpus_dir = |sub: &str| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(sub);
    let programs = corpus_dir("examples/programs").display().to_string();
    let mut out = String::new();
    let code = cli::run(
        &["verify".into(), "--threads".into(), "2".into(), programs],
        &mut out,
    );
    assert_eq!(code, 0, "CLI must verify the Table 1 corpus:\n{out}");
    assert!(out.contains("18/18 programs verified"), "{out}");

    let rejected = corpus_dir("examples/rejected").display().to_string();
    let mut out = String::new();
    let code = cli::run(
        &[
            "verify".into(),
            "--expect".into(),
            "rejected".into(),
            rejected,
        ],
        &mut out,
    );
    assert_eq!(code, 0, "CLI must reject the insecure corpus:\n{out}");
    assert!(out.contains("5/5 programs rejected as required"), "{out}");

    // Glob expansion + JSON mode over the same corpus.
    let glob = corpus_dir("examples/programs")
        .join("*.csl")
        .display()
        .to_string();
    let mut out = String::new();
    let code = cli::run(&["verify".into(), "--json".into(), glob], &mut out);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"as_expected\":18"), "{out}");
    assert!(out.contains("\"ok\":true"), "{out}");
}
