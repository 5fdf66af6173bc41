//! Counterexample-minimization and proof-core overhead benchmark.
//!
//! The two explanation knobs added for the editor workflow promise to be
//! cheap enough to leave on in an interactive session. This bin pins
//! those promises on the checked-in workloads:
//!
//! 1. **Minimization slowdown**: verification time of the rejected
//!    fixture set with `minimize_counterexamples` on must stay within
//!    `--max-slowdown` (default 3x) of the plain run. The ddmin loop
//!    re-runs the falsifier per probe, so a multiplicative bound is the
//!    honest shape — but it must not be unbounded.
//! 2. **Core-tracking overhead**: verification time of the
//!    `scale-map-report-*` stress programs with `proof_cores` on must
//!    stay within `--max-core-overhead` (default 5%) of the plain run —
//!    core tracking is bookkeeping, not solving.
//! 3. **Verdict identity**: neither knob may change any per-obligation
//!    status or failure reason, and a minimized witness never binds more
//!    variables than the plain one; at least one rejected workload must
//!    shrink strictly (the knob has to *do* something).
//!
//! The two timing gates are paired: each of `--runs N` rounds verifies a workload
//! once with the knob off and once with it on, alternating which goes
//! first, and yields the on/off time ratio. A workload's knob time is its
//! median plain time scaled by its median ratio, and a gate compares the
//! sums over the workloads. A drift of the host (frequency, steal, other
//! tenants) lands on both halves of a round alike, and the medians drop
//! the rounds that a stall inflated. Over the same 16 runs of 41 rounds
//! on a noisy 2-vCPU host, comparing the two sides' medians read the
//! core overhead from -2.0 % to +6.9 %, the paired estimate from -0.2 %
//! to +3.2 %.
//!
//! Run with `cargo run -p commcsl-bench --release --bin
//! counterexample_minimize -- [--runs N (default 41)] [--max-slowdown X]
//! [--max-core-overhead X] [--json <path>]`.

use std::time::Instant;

use commcsl::fixtures;
use commcsl::server::json::Json;
use commcsl::verifier::report::{ObligationStatus, VerifierConfig};
use commcsl::verifier::{verify, AnnotatedProgram, VerifierReport};

fn main() {
    let opts = parse_args();
    let plain = VerifierConfig::default();
    let minimizing = VerifierConfig {
        minimize_counterexamples: true,
        ..VerifierConfig::default()
    };
    let coring = VerifierConfig {
        proof_cores: true,
        ..VerifierConfig::default()
    };

    // 1. Rejected fixtures: plain vs minimizing.
    println!(
        "counterexample minimization benchmark — {} run(s) per workload\n",
        opts.runs
    );
    println!(
        "{:<28} {:>11} {:>14} {:>9} {:>14}",
        "rejected workload", "plain (ms)", "minimize (ms)", "slowdown", "witness"
    );
    let mut plain_total = 0.0;
    let mut min_total = 0.0;
    let mut strictly_smaller = 0usize;
    let mut min_rows: Vec<String> = Vec::new();
    for (name, program) in fixtures::rejected() {
        let [(plain_ms, plain_report), (min_ms, min_report)] =
            paired_ms(&program, [&plain, &minimizing], opts.runs);
        check_verdicts(name, &plain_report, &min_report);
        let (before, after) = witness_sizes(name, &plain_report, &min_report);
        if after < before {
            strictly_smaller += 1;
        }
        plain_total += plain_ms;
        min_total += min_ms;
        println!(
            "{name:<28} {plain_ms:>11.3} {min_ms:>14.3} {:>8.2}x {:>8} -> {after}",
            min_ms / plain_ms,
            before,
        );
        min_rows.push(format!(
            "{{\"example\":{},\"plain_ms\":{plain_ms:.6},\"minimize_ms\":{min_ms:.6},\
             \"bindings_before\":{before},\"bindings_after\":{after}}}",
            Json::str(name),
        ));
    }
    let slowdown = min_total / plain_total;

    // 2. Scale workloads: plain vs core-tracking.
    println!(
        "\n{:<28} {:>11} {:>12} {:>9}",
        "scale workload", "plain (ms)", "cores (ms)", "overhead"
    );
    let mut scale_plain_total = 0.0;
    let mut core_total = 0.0;
    let mut core_rows: Vec<String> = Vec::new();
    for program in commcsl_bench::reverify_programs() {
        let [(plain_ms, plain_report), (core_ms, core_report)] =
            paired_ms(&program, [&plain, &coring], opts.runs);
        check_verdicts(&program.name, &plain_report, &core_report);
        scale_plain_total += plain_ms;
        core_total += core_ms;
        println!(
            "{:<28} {plain_ms:>11.3} {core_ms:>12.3} {:>8.1}%",
            program.name,
            (core_ms / plain_ms - 1.0) * 100.0
        );
        core_rows.push(format!(
            "{{\"example\":{},\"plain_ms\":{plain_ms:.6},\"cores_ms\":{core_ms:.6}}}",
            Json::str(&program.name),
        ));
    }
    let core_overhead = core_total / scale_plain_total - 1.0;

    println!(
        "\nminimization: {plain_total:.3} ms plain, {min_total:.3} ms minimizing \
         ({slowdown:.2}x, {:.1}x allowed), {strictly_smaller} witness(es) shrank strictly",
        opts.max_slowdown
    );
    println!(
        "core tracking: {scale_plain_total:.3} ms plain, {core_total:.3} ms with cores \
         ({:+.1}% overhead, {:.1}% allowed)",
        core_overhead * 100.0,
        opts.max_core_overhead * 100.0
    );

    // Gates, hard failures before any snapshot is written.
    if strictly_smaller == 0 {
        die("no rejected witness shrank strictly under minimization");
    }
    if slowdown > opts.max_slowdown {
        die(&format!(
            "minimization slowdown {slowdown:.2}x exceeds the {:.1}x ceiling",
            opts.max_slowdown
        ));
    }
    if core_overhead > opts.max_core_overhead {
        die(&format!(
            "core-tracking overhead {:.1}% exceeds the {:.1}% ceiling",
            core_overhead * 100.0,
            opts.max_core_overhead * 100.0
        ));
    }

    if let Some(path) = &opts.json_path {
        let snapshot = format!(
            "{{\"bench\":\"counterexample_minimize\",\"runs\":{},\
             \"minimize_slowdown\":{slowdown:.4},\"core_overhead\":{core_overhead:.4},\
             \"strictly_smaller\":{strictly_smaller},\
             \"minimize_rows\":[{}],\"core_rows\":[{}]}}",
            opts.runs,
            min_rows.join(","),
            core_rows.join(","),
        );
        commcsl_bench::append_snapshot(path, &snapshot).unwrap_or_else(|e| die(&e));
    }
}

/// Times `program` with the knob off (`configs[0]`) and on over `runs`
/// rounds, each verifying once per configuration with the first side
/// alternating. Returns the median plain time and the plain time scaled
/// by the median on/off ratio of the rounds, with each side's last
/// report.
fn paired_ms(
    program: &AnnotatedProgram,
    configs: [&VerifierConfig; 2],
    runs: u32,
) -> [(f64, VerifierReport); 2] {
    let mut plain_ms = Vec::new();
    let mut ratios = Vec::new();
    let mut reports = [None, None];
    for round in 0..runs as usize {
        let mut ms = [0.0; 2];
        for turn in 0..2 {
            let side = (round + turn) % 2;
            let start = Instant::now();
            let report = verify(program, configs[side]);
            ms[side] = start.elapsed().as_secs_f64() * 1000.0;
            reports[side] = Some(report);
        }
        plain_ms.push(ms[0]);
        ratios.push(ms[1] / ms[0]);
    }
    let plain = commcsl_bench::median(&mut plain_ms);
    let [plain_report, knobbed_report] = reports.map(|report| report.expect("runs > 0"));
    [
        (plain, plain_report),
        (plain * commcsl_bench::median(&mut ratios), knobbed_report),
    ]
}

/// Per-obligation statuses and failure reasons must match exactly — the
/// explanation knobs are not allowed to flip or reword a verdict.
fn check_verdicts(name: &str, plain: &VerifierReport, knobbed: &VerifierReport) {
    if plain.obligations.len() != knobbed.obligations.len() {
        die(&format!("{name}: obligation count changed under an explanation knob"));
    }
    for (p, k) in plain.obligations.iter().zip(&knobbed.obligations) {
        let same = match (&p.status, &k.status) {
            (ObligationStatus::Proved, ObligationStatus::Proved) => true,
            (ObligationStatus::Failed(pf), ObligationStatus::Failed(kf)) => {
                pf.reason == kf.reason
            }
            _ => false,
        };
        if !same {
            die(&format!("{name}: verdict changed under an explanation knob"));
        }
    }
}

/// Total counterexample bindings before and after minimization; dies if
/// any single witness grew.
fn witness_sizes(name: &str, plain: &VerifierReport, min: &VerifierReport) -> (usize, usize) {
    let mut before = 0;
    let mut after = 0;
    for (p, m) in plain.obligations.iter().zip(&min.obligations) {
        if let (ObligationStatus::Failed(pf), ObligationStatus::Failed(mf)) =
            (&p.status, &m.status)
        {
            if let (Some(full), Some(small)) = (&pf.counterexample, &mf.counterexample) {
                if small.bindings.len() > full.bindings.len() {
                    die(&format!("{name}: a minimized witness grew"));
                }
                before += full.bindings.len();
                after += small.bindings.len();
            }
        }
    }
    (before, after)
}

struct Opts {
    runs: u32,
    max_slowdown: f64,
    max_core_overhead: f64,
    json_path: Option<String>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        runs: 41,
        max_slowdown: 3.0,
        max_core_overhead: 0.05,
        json_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--runs" => {
                opts.runs = value("--runs")
                    .parse()
                    .unwrap_or_else(|_| die("--runs needs a positive integer"));
                if opts.runs == 0 {
                    die("--runs needs a positive integer");
                }
            }
            "--max-slowdown" => {
                opts.max_slowdown = value("--max-slowdown")
                    .parse()
                    .unwrap_or_else(|_| die("--max-slowdown needs a number"));
            }
            "--max-core-overhead" => {
                opts.max_core_overhead = value("--max-core-overhead")
                    .parse()
                    .unwrap_or_else(|_| die("--max-core-overhead needs a number"));
            }
            "--json" => opts.json_path = Some(value("--json")),
            other => die(&format!(
                "unknown option `{other}` (try --runs N, --max-slowdown X, \
                 --max-core-overhead X, --json PATH)"
            )),
        }
    }
    opts
}

fn die(message: &str) -> ! {
    eprintln!("counterexample_minimize: {message}");
    std::process::exit(1);
}
