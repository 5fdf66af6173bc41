//! The Salary-Histogram example: concurrent threads increment per-bucket
//! counters in a shared map. Plain `put` does not commute, but
//! *increment-at-key* does — a precise action definition instead of an
//! abstraction (paper, Sec. 5, "Precise action definitions").
//!
//! Run with `cargo run --example salary_histogram`.

use commcsl::fixtures;
use commcsl::logic::consistency::{interleaving_results, Record};
use commcsl::prelude::*;

fn main() {
    let fixture = fixtures::find("Salary-Histogram").expect("a Table 1 row");
    let report = verify(&fixture.program, &VerifierConfig::default());
    println!("{report}");
    assert!(report.verified());

    // All interleavings of increments agree on the final histogram.
    let spec = ResourceSpec::histogram();
    let record = Record::new().with_shared(
        "IncBucket",
        [Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(1)],
    );
    let finals = interleaving_results(&spec, &Value::map_empty(), &record)
        .expect("actions are total");
    println!(
        "distinct final histograms over all interleavings: {}",
        finals.len()
    );
    for m in &finals {
        println!("  {m}");
    }
    assert_eq!(finals.len(), 1);

    // Empirical cross-check with timing-skewed schedulers.
    let ni = fixture.ni.expect("fixture has an executable setup");
    let report = check_non_interference(
        &ni.program,
        &ni.low_inputs,
        &ni.high_inputs,
        &ni.low_outputs,
        &NiConfig::default(),
    );
    println!(
        "empirical non-interference over {} executions: {}",
        report.executions,
        if report.holds() { "holds" } else { "VIOLATED" }
    );
    assert!(report.holds());
}
