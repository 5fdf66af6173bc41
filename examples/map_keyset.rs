//! The paper's running example (Figs. 3–5): concurrent `put`s into a
//! shared map where keys are low and values are high. The key-set
//! abstraction makes the puts commute, so the sorted key list may be
//! published.
//!
//! Run with `cargo run --example map_keyset`.

use commcsl::fixtures;
use commcsl::prelude::*;

fn main() {
    // The fixture bundles the annotated program and an executable variant.
    let fixture = fixtures::find("Figure 3").expect("Table 1 has a Figure 3 row");
    println!(
        "{} — {} / {}",
        fixture.name, fixture.data_structure, fixture.abstraction
    );

    // Verify (validity of the Fig. 4 spec + all program obligations).
    let report = verify(&fixture.program, &VerifierConfig::default());
    println!("{report}");
    assert!(report.verified());

    // Show abstract commutativity concretely: puts with a clashing key do
    // not commute on the map, but do commute on its key set.
    let spec = ResourceSpec::keyset_map();
    let put = spec.action("Put").expect("spec declares Put");
    let m0 = Value::map_empty();
    let a = Value::pair(Value::Int(1), Value::Int(10));
    let b = Value::pair(Value::Int(1), Value::Int(20));
    let ab = put.apply(&put.apply(&m0, &a).unwrap(), &b).unwrap();
    let ba = put.apply(&put.apply(&m0, &b).unwrap(), &a).unwrap();
    println!("put-put order 1: {ab}");
    println!("put-put order 2: {ba}");
    println!(
        "concrete maps equal: {}; key sets equal: {}",
        ab == ba,
        spec.alpha_of(&ab).unwrap() == spec.alpha_of(&ba).unwrap()
    );
    assert_ne!(ab, ba);
    assert_eq!(spec.alpha_of(&ab).unwrap(), spec.alpha_of(&ba).unwrap());

    // Empirical check on the executable program.
    let ni = fixture.ni.expect("figure3 has an executable setup");
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
