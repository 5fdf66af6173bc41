//! Golden verification reports.
//!
//! `tests/backend_equivalence.rs` compares engines that share one
//! congruence closure and `tests/cache_addresses.rs` pins cache keys, so
//! neither notices a solver change that moves what a report says. This
//! test pins the reports themselves: every `.csl` file of
//! `examples/programs` and `examples/rejected`, plus one shared-map report
//! program in the benchmark's template shape, is verified under
//! `VerifierConfig::default()`, and each report's JSON (the report's own
//! codec, which carries no timings) must equal its line of
//! `examples/expected_reports.jsonl`. A deliberate change to a report
//! rewrites that file from the `actual` file the failure names.

use std::fs;
use std::path::Path;

use commcsl::front::compile;
use commcsl::prelude::*;

const EXPECTED: &str = include_str!("../examples/expected_reports.jsonl");

/// A shared-map report program in the benchmark's template shape: two
/// workers `Put` four low keys each per iteration, then eight composite
/// aggregates over the key set (a mean, a tail sum and a modulus).
const SHARED_MAP_REPORT: &str = r#"
program "pin-shared-map-report-4x8";

resource audit_map: Map[Int, Int] named "audit-keyset-map" {
    alpha(v) = dom(v);
    shared action Put(arg: Pair[Int, Int]) = put(v, fst(arg), snd(arg))
        requires fst(arg1) == fst(arg2);
}

input n: Int low;
share audit_map = empty_map;
par {
    for i in 0 .. n / 2 {
        input adr: Int low;
        input rsn: Int high;
        with audit_map performing Put(pair(adr + 101, rsn));
        with audit_map performing Put(pair(adr + 103, rsn));
        with audit_map performing Put(pair(adr + 105, rsn));
        with audit_map performing Put(pair(adr + 107, rsn));
    }
} || {
    for i in n / 2 .. n {
        input adr: Int low;
        input rsn: Int high;
        with audit_map performing Put(pair(adr + 101, rsn));
        with audit_map performing Put(pair(adr + 103, rsn));
        with audit_map performing Put(pair(adr + 105, rsn));
        with audit_map performing Put(pair(adr + 107, rsn));
    }
}
unshare audit_map into m;
output mean(set_to_seq(dom(m))) * set_card(dom(m)) / 8 + sum(tail(set_to_seq(dom(m)))) + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + 9);
output mean(set_to_seq(dom(m))) * set_card(dom(m)) / 9 + sum(tail(set_to_seq(dom(m)))) + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + 10);
output mean(set_to_seq(dom(m))) * set_card(dom(m)) / 10 + sum(tail(set_to_seq(dom(m)))) + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + 11);
output mean(set_to_seq(dom(m))) * set_card(dom(m)) / 11 + sum(tail(set_to_seq(dom(m)))) + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + 12);
output mean(set_to_seq(dom(m))) * set_card(dom(m)) / 12 + sum(tail(set_to_seq(dom(m)))) + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + 13);
output mean(set_to_seq(dom(m))) * set_card(dom(m)) / 13 + sum(tail(set_to_seq(dom(m)))) + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + 14);
output mean(set_to_seq(dom(m))) * set_card(dom(m)) / 14 + sum(tail(set_to_seq(dom(m)))) + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + 15);
output mean(set_to_seq(dom(m))) * set_card(dom(m)) / 15 + sum(tail(set_to_seq(dom(m)))) + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + 16);
"#;

/// `(label, source)` for every pinned program, in pin order: each corpus
/// directory sorted by file name, then the inline report program.
fn pinned_programs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs = Vec::new();
    for dir in ["examples/programs", "examples/rejected"] {
        let mut files: Vec<_> = fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "csl"))
            .collect();
        files.sort();
        for path in files {
            let source = fs::read_to_string(&path).expect("corpus file reads");
            let name = path.file_name().expect("file name").to_string_lossy();
            programs.push((format!("{dir}/{name}"), source));
        }
    }
    programs.push((
        "inline shared-map report program".into(),
        SHARED_MAP_REPORT.into(),
    ));
    programs
}

#[test]
fn reports_match_the_pinned_jsonl() {
    let programs = pinned_programs();
    let actual: Vec<String> = programs
        .iter()
        .map(|(label, source)| {
            let program = compile(source).unwrap_or_else(|e| panic!("{label}: {e}"));
            verify(&program, &VerifierConfig::default()).to_json()
        })
        .collect();
    let expected: Vec<&str> = EXPECTED.lines().collect();

    let first_difference = (0..programs.len().max(expected.len()))
        .find(|&i| expected.get(i).copied() != actual.get(i).map(String::as_str));
    if let Some(i) = first_difference {
        let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("expected_reports.actual.jsonl");
        fs::write(&written, actual.join("\n") + "\n").expect("actual reports write");
        let label = programs
            .get(i)
            .map_or("(no program)", |(label, _)| label.as_str());
        panic!(
            "report {i} ({label}) differs from examples/expected_reports.jsonl\n\
             expected: {}\n  actual: {}\nall actual reports: {}",
            expected.get(i).copied().unwrap_or("(no line)"),
            actual.get(i).map_or("(no report)", String::as_str),
            written.display()
        );
    }
}
