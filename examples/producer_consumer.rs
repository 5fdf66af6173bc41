//! Producer-consumer queues (paper, Sec. 2.7, App. D, Fig. 12): the
//! partial produce/consume operations are totalized with the
//! negative-length ghost encoding, `Prod`/`Cons` commute modulo the
//! produced-items abstraction, and the pipeline's precondition is checked
//! retroactively.
//!
//! Run with `cargo run --example producer_consumer`.

use commcsl::fixtures;
use commcsl::logic::consistency::{lemma_4_2_holds, records_pre_related, Record};
use commcsl::prelude::*;

fn main() {
    // 1. Verify all three queue-based fixtures.
    for name in [
        "1-Producer-1-Consumer",
        "Pipeline",
        "2-Producers-2-Consumers",
    ] {
        let fixture = fixtures::find(name).expect("Table 1 has the queue rows");
        let report = verify(&fixture.program, &VerifierConfig::default());
        println!("{report}");
        assert!(report.verified(), "{} failed", fixture.name);
    }

    // 2. Demonstrate the totalized Fig. 12 semantics: consuming from an
    //    empty queue goes into "debt", producing pays it back.
    let spec = ResourceSpec::producer_consumer(true);
    let cons = spec.action("Cons").unwrap();
    let prod = spec.action("Prod").unwrap();
    let empty = Value::pair(Value::right(Value::seq_empty()), Value::seq_empty());
    let v = cons.apply(&empty, &Value::Unit).unwrap();
    println!("consume on empty queue: {v}");
    let v = prod.apply(&v, &Value::Int(7)).unwrap();
    println!("produce 7 afterwards:  {v}");

    // 3. Executable Lemma 4.2 on the queue: PRE-related records from equal
    //    abstractions end with equal abstractions on *every* interleaving.
    let r1 = Record::new()
        .with_shared("Prod", [Value::Int(1), Value::Int(3)])
        .with_shared("Cons", [Value::Unit, Value::Unit]);
    let r2 = Record::new()
        .with_shared("Prod", [Value::Int(3), Value::Int(1)])
        .with_shared("Cons", [Value::Unit, Value::Unit]);
    assert!(records_pre_related(&spec, &r1, &r2));
    let ok = lemma_4_2_holds(&spec, &empty, &r1, &empty, &r2).unwrap();
    println!("Lemma 4.2 instance on the queue: {ok}");
    assert!(ok);
}
