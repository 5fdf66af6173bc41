//! Structured diagnostics, end to end: failed `Low` obligations carry a
//! falsifying per-execution assignment and a stable code (plus a source
//! span when compiled from `.csl`), and every serialization surface —
//! the report's JSON codec (which the daemon protocol embeds), the
//! on-disk verdict cache, and the CLI renderings — round-trips them
//! losslessly.

use commcsl::front::{cli, compile};
use commcsl::server::json::Json;
use commcsl::verifier::cache::{CacheConfig, VerdictCache};
use commcsl::verifier::hash::program_hash;
use commcsl::verifier::report::{VerifierConfig, VerifierReport};
use commcsl::verifier::{verify, DiagnosticCode, SourceSpan};

const LEAKY: &str = "program leaky;\n\
                     input h: Int high;\n\
                     output h;\n";

#[test]
fn failed_low_obligation_carries_counterexample_and_span() {
    let program = compile(LEAKY).expect("leaky program compiles");
    let report = verify(&program, &VerifierConfig::default());
    assert!(!report.verified());

    let failure = report.failures().next().expect("output obligation fails");
    assert_eq!(failure.code, DiagnosticCode::LowOutput);
    assert_eq!(failure.span, Some(SourceSpan::new(3, 1)));
    let cex = failure
        .failure()
        .expect("failed status")
        .counterexample
        .as_ref()
        .expect("the falsifier finds a witness for a direct leak");
    let h = cex
        .bindings
        .iter()
        .find(|b| b.var.contains("_h"))
        .expect("binding for the high input");
    assert_ne!(h.exec1, h.exec2, "witness separates the two executions");

    // The JSON shape exposes everything machine-readably.
    let json = report.to_json();
    assert!(json.contains("\"code\":\"low-output\""), "{json}");
    assert!(json.contains("\"span\":\"3:1\""), "{json}");
    assert!(json.contains("\"counterexample\":["), "{json}");
}

#[test]
fn counterexamples_round_trip_through_every_codec() {
    let program = compile(LEAKY).expect("compile");
    let config = VerifierConfig::default();
    let report = verify(&program, &config);
    let json = report.to_json();

    // The report codec: parsing back reproduces the full structure
    // (codes, spans, counterexample bindings included).
    let recovered =
        VerifierReport::from_json(&Json::parse(&json).expect("parses")).expect("decodes");
    assert_eq!(recovered.obligations, report.obligations);
    assert_eq!(recovered.to_json(), json);

    // On-disk verdict cache: a fresh cache over the same directory
    // replays the verdict byte-identically.
    let dir = std::env::temp_dir().join(format!(
        "commcsl-diagnostics-roundtrip-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let key = program_hash(&program, &config);
    {
        let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
        cache.put(key, &report);
    }
    let mut fresh = VerdictCache::new(CacheConfig::persistent(&dir));
    let loaded = fresh.get(key).expect("disk hit");
    assert_eq!(loaded.obligations, report.obligations);
    assert_eq!(loaded.to_json(), json);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_renders_codes_spans_and_counterexamples() {
    let dir = std::env::temp_dir().join(format!(
        "commcsl-diagnostics-cli-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("leaky.csl");
    std::fs::write(&file, LEAKY).expect("write corpus");

    // Human output: code tag, source position, and the witness values.
    let mut out = String::new();
    let code = cli::run(&["verify".into(), file.display().to_string()], &mut out);
    assert_eq!(code, cli::EXIT_MISMATCH, "{out}");
    assert!(out.contains("failed [low-output] at 3:1"), "{out}");
    assert!(out.contains("where"), "{out}");
    assert!(out.contains(" vs "), "{out}");

    // JSON output embeds the same report verbatim.
    let mut out = String::new();
    let code = cli::run(
        &["verify".into(), "--json".into(), file.display().to_string()],
        &mut out,
    );
    assert_eq!(code, cli::EXIT_MISMATCH);
    assert!(out.contains("\"counterexample\":["), "{out}");
    assert!(out.contains("\"span\":\"3:1\""), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}
