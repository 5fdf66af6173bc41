//! Golden cache addresses.
//!
//! A daemon's disk tier (`verdicts.log`, `obligations.log`) is addressed
//! by `program_hash` and by each obligation's `ObligationKey`. Both are
//! stable hashes over the lowered program and its terms, so a change to
//! how terms are represented must not move them: a moved key turns every
//! existing log into misses without any error. These pins fix the
//! addresses of three committed corpus programs under the default
//! configuration; a deliberate change to the hashed form bumps
//! `HASH_FORMAT_VERSION` and updates them together. Every hash is seeded
//! with that version, so these values pin it too.

use commcsl::front::compile;
use commcsl::verifier::report::{ObligationStatus, VerifierConfig};
use commcsl::verifier::{program_hash, verify_incremental, ObligationKey, ObligationStore};

/// Misses every lookup and records each key it is given, in order.
#[derive(Default)]
struct Recording(Vec<ObligationKey>);

impl ObligationStore for Recording {
    fn get(&mut self, _key: ObligationKey) -> Option<ObligationStatus> {
        None
    }

    fn put(&mut self, key: ObligationKey, _status: &ObligationStatus) {
        self.0.push(key);
    }
}

/// The program hash and the keys a cold `verify_incremental` settles, in
/// settle order.
fn addresses(source: &str) -> (String, Vec<String>) {
    let program = compile(source).expect("corpus program compiles");
    let config = VerifierConfig::default();
    let mut store = Recording::default();
    verify_incremental(&program, &config, &mut store, &mut |_| {});
    let keys = store.0.iter().map(ToString::to_string).collect();
    (program_hash(&program, &config).to_string(), keys)
}

fn assert_addresses(source: &str, name: &str, hash: &str, keys: &[&str]) {
    let (got_hash, got_keys) = addresses(source);
    assert_eq!(got_hash, hash, "{name}: program_hash moved");
    assert_eq!(got_keys, keys, "{name}: obligation keys moved");
}

#[test]
fn figure1_constant_addresses_are_stable() {
    assert_addresses(
        include_str!("../examples/programs/04_figure1_constant.csl"),
        "04_figure1_constant",
        "644323d93763e13a1df5348460edd476",
        &[
            "3dd022a77253ae543f17420b63603815",
            "b9e53ce829aaa12c25451d3f77d61a34",
            "413cd355568c2facfffbb4a6a343ab2f",
            "add7dc0e1665fa08291232ca7085e2f6",
            "2fd2c616d33af36857b21a9f52a6de3c",
        ],
    );
}

#[test]
fn figure3_map_keyset_addresses_are_stable() {
    assert_addresses(
        include_str!("../examples/programs/11_figure3_map_keyset.csl"),
        "11_figure3_map_keyset",
        "3737494677a176af35faa7710f1a455c",
        &[
            "2bfca59c90d3e7c248c41cec8807f104",
            "1a9bc00626c8fe49501cf6e208079cde",
            "6f818427b36314c2ff454b5459ed6d75",
            "d60e1ab7720ac38bbdaa840578616215",
            "259a87bb5bd925508af253f76baf7824",
            "8415fd230c9c076ee8636fa70d16e67e",
            "fb4c744c39ff2b14c140a92201e76a26",
        ],
    );
}

#[test]
fn producers_consumers_addresses_are_stable() {
    assert_addresses(
        include_str!("../examples/programs/18_producers_consumers_2x2.csl"),
        "18_producers_consumers_2x2",
        "cc244dd84def252a48f633053f2bbd95",
        &[
            "72edcb54f8e25bd0902614a6eb859284",
            "d76269458a07c5d67af2e38abbbb23d4",
            "a19517b0e15fefc26bd019bcff3b050f",
            "f419f61b87011d7453d81354d08fdb6e",
            "4ba20f8b5442dc06e0fd4d0f2df7a00a",
            "fe4511b791e3ed0bbf5c6b272afeef4f",
            "d33b57ebd10f444a57d9d2b83f888031",
            "4600707a7c4e358760a047716fff69e4",
            "b0ed565c3179ae29997fd3b99d2478bd",
            "354ee1297d80ecb24c97d1131951bb31",
        ],
    );
}
