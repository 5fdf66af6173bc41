//! Acceptance tests for the `commcsl profile` self-profiler on the
//! `scale-map-report-*` workloads.
//!
//! These live in `commcsl-bench` (not `commcsl-front`) for two reasons:
//! the scale programs are generated by [`commcsl_bench::reverify_programs`],
//! and telemetry captures are process-global — running them in their own
//! integration-test binary keeps them from racing the front crate's
//! capture-based unit test. Within this binary the tests serialize on a
//! local mutex.

use commcsl::front::cli;
use commcsl::front::pretty::pretty;
use commcsl::server::json::Json;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

/// Captures are process-global: only one profile run at a time.
static LOCK: Mutex<()> = Mutex::new(());

/// Writes the first `scale-map-report-*` workload to a fresh temp dir as
/// surface syntax and returns (dir, path-to-.csl).
fn scale_corpus(tag: &str) -> (PathBuf, PathBuf) {
    let program = &commcsl_bench::reverify_programs()[0];
    assert!(
        program.name.starts_with("scale-map-report-"),
        "acceptance target is a scale workload, got {}",
        program.name
    );
    let dir = std::env::temp_dir().join(format!(
        "commcsl-profile-{tag}-{}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scale.csl");
    fs::write(&path, pretty(program)).unwrap();
    (dir, path)
}

fn run_cli(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    let code = cli::run(&args, &mut out);
    (code, out)
}

/// The headline acceptance check: profiling a `scale-map-report-*`
/// program emits a Chrome trace with spans from at least five pipeline
/// layers, and the folded stacks account for >= 90% of wall time when
/// the run is single-threaded.
#[test]
fn profile_scale_program_meets_acceptance() {
    let _guard = LOCK.lock().unwrap();
    let (dir, csl) = scale_corpus("accept");
    let trace = dir.join("trace.json");
    let folded = dir.join("stacks.folded");

    let (code, out) = run_cli(&[
        "profile",
        "--threads",
        "1",
        "--json",
        "--trace-out",
        trace.to_str().unwrap(),
        "--folded-out",
        folded.to_str().unwrap(),
        csl.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{out}");

    // The wrapper JSON parses back through the server's codec.
    let doc = Json::parse(out.trim()).expect("profile --json is valid JSON");
    let profile = doc.get("profile").expect("profile object");
    assert_eq!(
        profile.get("programs").and_then(Json::as_u64),
        Some(1),
        "{out}"
    );
    assert_eq!(
        profile.get("verified").and_then(Json::as_u64),
        Some(1),
        "the scale workload verifies: {out}"
    );
    let coverage = profile
        .get("coverage")
        .and_then(Json::as_num)
        .expect("coverage fraction");
    assert!(
        coverage >= 0.90,
        "single-threaded instrumentation covers >= 90% of wall time, got {coverage}"
    );
    let wall_ms = profile
        .get("wall_ms")
        .and_then(Json::as_num)
        .expect("wall_ms");

    // The Chrome trace parses via the same codec and names spans from at
    // least five pipeline layers (the label prefix is the layer).
    let text = fs::read_to_string(&trace).unwrap();
    let events = Json::parse(text.trim())
        .expect("Chrome trace is valid JSON")
        .as_arr()
        .expect("trace-event array")
        .to_vec();
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
        "metadata events name the process and threads"
    );
    let labels: BTreeSet<String> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    let layers: BTreeSet<&str> = labels
        .iter()
        .filter_map(|l| l.split('.').next())
        .collect();
    assert!(
        layers.len() >= 5,
        "spans from >= 5 pipeline layers, got {layers:?} from {labels:?}"
    );
    for expected in ["front", "prepass", "symexec", "solver", "profile"] {
        assert!(layers.contains(expected), "missing layer {expected}: {labels:?}");
    }

    // The folded stacks are well-formed ("frame;frame value" lines) and
    // their self-time weights account for >= 90% of wall time.
    let folded_text = fs::read_to_string(&folded).unwrap();
    let mut total_ns = 0u64;
    for line in folded_text.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack <space> weight");
        assert!(!stack.is_empty() && !stack.ends_with(';'), "bad stack: {line}");
        total_ns += weight.parse::<u64>().expect("integer weight");
    }
    assert!(
        total_ns as f64 >= 0.90 * wall_ms * 1e6,
        "folded stacks account for >= 90% of wall time: {total_ns} ns of {wall_ms} ms"
    );

    fs::remove_dir_all(&dir).ok();
}

/// Exporter determinism: with `--threads 1 --deterministic` (count
/// weights instead of nanoseconds) the folded output is byte-identical
/// across two independent runs.
#[test]
fn deterministic_folded_output_is_byte_identical_across_runs() {
    let _guard = LOCK.lock().unwrap();
    let (dir, csl) = scale_corpus("determ");

    let mut outputs = Vec::new();
    for i in 0..2 {
        let folded = dir.join(format!("run{i}.folded"));
        let (code, out) = run_cli(&[
            "profile",
            "--threads",
            "1",
            "--deterministic",
            "--folded-out",
            folded.to_str().unwrap(),
            csl.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        outputs.push(fs::read(&folded).unwrap());
    }
    assert_eq!(
        outputs[0], outputs[1],
        "deterministic folded stacks are byte-identical across runs"
    );
    assert!(!outputs[0].is_empty());

    fs::remove_dir_all(&dir).ok();
}

/// The solver counters are emitted where the sessions do the work, so
/// they reconcile with the spans: over both corpora (whose spec-validity
/// sessions check too) `solver.checks` equals the number of
/// `solver.check` spans, and every check is either proved or unknown.
#[test]
fn solver_counters_reconcile_with_check_spans() {
    let _guard = LOCK.lock().unwrap();
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let (programs, rejected) = (
        format!("{examples}/programs"),
        format!("{examples}/rejected"),
    );
    let (code, out) = run_cli(&["profile", "--json", "--threads", "1", &programs, &rejected]);
    assert_eq!(code, 0, "{out}");

    let doc = Json::parse(out.trim()).expect("profile --json is valid JSON");
    let profile = doc.get("profile").expect("profile object");
    assert_eq!(
        profile.get("programs").and_then(Json::as_u64),
        Some(23),
        "{out}"
    );
    let spans = profile
        .get("labels")
        .and_then(Json::as_arr)
        .expect("labels array")
        .iter()
        .find(|l| l.get("label").and_then(Json::as_str) == Some("solver.check"))
        .and_then(|l| l.get("count"))
        .and_then(Json::as_u64)
        .expect("a solver.check label");
    let counter = |name: &str| {
        profile
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("counter {name}: {out}"))
    };
    let checks = counter("solver.checks");
    assert_eq!(checks, spans, "solver.checks against solver.check spans");
    assert_eq!(counter("solver.proved") + counter("solver.unknown"), checks);
}
