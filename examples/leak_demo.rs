//! The negative control: the paper's Fig. 1. Two threads assign different
//! constants to a shared variable; the secret only influences *timing* —
//! yet the printed value leaks whether `h` exceeds the other thread's
//! workload. The verifier rejects the program, and the interpreter
//! exhibits the leak.
//!
//! Run with `cargo run --example leak_demo`.

use commcsl::fixtures;
use commcsl::prelude::*;

fn main() {
    // 1. Verification rejects the identity-abstraction assignment spec:
    //    `Set` does not commute.
    let (_, program) = fixtures::rejected()
        .into_iter()
        .find(|(name, _)| *name == "figure1-assignments")
        .expect("the Fig. 1 variant is in the rejected corpus");
    let report = verify(&program, &VerifierConfig::default());
    println!("{report}");
    assert!(!report.verified());

    // 2. The leak is real: run the program under schedulers with the two
    //    high inputs and watch the output differ.
    let leak = fixtures::figure1_assignments_executable();
    let ni = check_non_interference(
        &leak.program,
        &leak.low_inputs,
        &leak.high_inputs,
        &leak.low_outputs,
        &NiConfig {
            random_seeds: 4,
            fuel: 100_000,
        },
    );
    match &ni.violation {
        Some(v) => {
            println!(
                "leak observed: h-index {} under {} printed {:?}, but h-index {} under {} printed {:?}",
                v.first.high_index,
                v.first.scheduler,
                v.first_obs.outputs,
                v.second.high_index,
                v.second.scheduler,
                v.second_obs.outputs,
            );
        }
        None => unreachable!("the Fig. 1 timing channel must be observable"),
    }

    // 3. The commuting repair (s += 3 / s += 4) is accepted and leak-free.
    let fixed = parse_program(
        "par {
             t1 := 0; while (t1 < 20) { t1 := t1 + 1 };
             atomic { s := s + 3 }
         } {
             t2 := 0; while (t2 < h) { t2 := t2 + 1 };
             atomic { s := s + 4 }
         };
         output(s)",
    )
    .expect("fixed program parses");
    let ni = check_non_interference(
        &fixed,
        &[],
        &[
            vec![("h".into(), Value::Int(0))],
            vec![("h".into(), Value::Int(200))],
        ],
        &[],
        &NiConfig::default(),
    );
    println!(
        "commuting repair: non-interference {} over {} executions",
        if ni.holds() { "holds" } else { "VIOLATED" },
        ni.executions
    );
    assert!(ni.holds());
}
