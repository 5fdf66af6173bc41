//! Telemetry overhead benchmark.
//!
//! The telemetry layer promises to be free when disabled: every span is
//! one relaxed atomic load. This bin pins that promise three ways on the
//! `scale-map-report-*` stress workloads:
//!
//! 1. **Microbench**: a disabled `span!` must cost under `--max-span-ns`
//!    nanoseconds (default 50 — the real cost is a couple of ns).
//! 2. **Share of the pass**: the disabled spans' cost — the span records
//!    of one captured pass times the measured disabled cost per span —
//!    must stay within `--max-overhead` (default 2%) of the summed
//!    per-workload medians of the disabled pass. Both sides are measured
//!    in this process, so the bound sees telemetry's cost, not the
//!    difference between two runs of the same code.
//! 3. **Byte identity**: verifying with a capture armed must produce
//!    byte-identical reports to verifying with telemetry off.
//!
//! It also prints the per-span aggregates of the captured (enabled) pass
//! — the same table `commcsl profile` renders — so the bench doubles as
//! the workspace's span-level cost report.
//!
//! Run with `cargo run -p commcsl-bench --release --bin telemetry_overhead
//! -- [--runs N] [--max-overhead X] [--max-span-ns N] [--json <path>]`.

use std::time::Instant;

use commcsl::server::json::Json;
use commcsl::telemetry::export::by_label;
use commcsl::telemetry::{finish_capture, start_capture};
use commcsl::verifier::report::VerifierConfig;
use commcsl::verifier::verify;

fn main() {
    let opts = parse_args();
    let config = VerifierConfig::default();
    let programs = commcsl_bench::reverify_programs();

    // 1. Disabled-telemetry wall clock, median of `runs` per workload.
    //    Measured before anything arms a capture.
    let mut rows: Vec<(String, f64, String)> = Vec::new();
    for program in &programs {
        let mut samples = Vec::new();
        let mut report_json = String::new();
        for _ in 0..opts.runs {
            let start = Instant::now();
            let report = verify(program, &config);
            samples.push(start.elapsed().as_secs_f64() * 1000.0);
            report_json = report.to_json();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        rows.push((program.name.clone(), median, report_json));
    }

    // 2. Disabled span microbench.
    const SPINS: u64 = 2_000_000;
    let start = Instant::now();
    for _ in 0..SPINS {
        let _guard = commcsl::telemetry::span!("bench.noop");
    }
    let ns_per_span = start.elapsed().as_nanos() as f64 / SPINS as f64;

    // 3. Enabled pass: byte identity + per-span aggregates.
    start_capture();
    let mut identical = true;
    for (program, (_, _, disabled_json)) in programs.iter().zip(&rows) {
        let report = verify(program, &config);
        identical &= report.to_json() == *disabled_json;
    }
    let capture = finish_capture();

    // The disabled pass ran every site the captured pass recorded, each
    // at the measured disabled cost.
    let spans = capture.spans.len();
    let spans_ms = spans as f64 * ns_per_span / 1e6;
    let disabled_ms: f64 = rows.iter().map(|(_, median, _)| median).sum();
    let overhead = spans_ms / disabled_ms;

    println!("telemetry overhead benchmark — {} run(s) per workload\n", opts.runs);
    println!("{:<28} {:>13}", "workload", "measured (ms)");
    for (name, median, _) in &rows {
        println!("{name:<28} {median:>13.3}");
    }
    println!("\ndisabled span cost: {ns_per_span:.1} ns");
    println!("reports byte-identical with a capture armed: {identical}");

    println!("\nper-span aggregates of the captured pass:");
    println!("{:<24} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for stat in by_label(&capture) {
        println!(
            "{:<24} {:>8} {:>12.3} {:>12.3}",
            stat.label,
            stat.count,
            stat.total_ns as f64 / 1e6,
            stat.self_ns as f64 / 1e6,
        );
    }
    println!(
        "\ntotal: {spans} spans x {ns_per_span:.1} ns = {spans_ms:.4} ms of the disabled \
         pass's {disabled_ms:.3} ms ({:.3}% overhead, {:.1}% allowed)",
        overhead * 100.0,
        opts.max_overhead * 100.0
    );

    // Gates, hard failures before any snapshot is written.
    if !identical {
        die("reports diverged between captured and disabled verification");
    }
    if ns_per_span > opts.max_span_ns {
        die(&format!(
            "disabled span costs {ns_per_span:.1} ns, above the {:.0} ns ceiling",
            opts.max_span_ns
        ));
    }
    if overhead > opts.max_overhead {
        die(&format!(
            "disabled-telemetry overhead {:.3}% exceeds the {:.1}% ceiling",
            overhead * 100.0,
            opts.max_overhead * 100.0
        ));
    }

    if let Some(path) = &opts.json_path {
        let row_json: Vec<String> = rows
            .iter()
            .map(|(name, median, _)| {
                format!(
                    "{{\"example\":{},\"measured_ms\":{median:.6}}}",
                    Json::str(name)
                )
            })
            .collect();
        let snapshot = format!(
            "{{\"bench\":\"telemetry_overhead\",\"runs\":{},\"ns_per_span\":{ns_per_span:.2},\
             \"spans\":{spans},\"overhead\":{overhead:.6},\"identical\":{identical},\"rows\":[{}]}}",
            opts.runs,
            row_json.join(","),
        );
        commcsl_bench::append_snapshot(path, &snapshot).unwrap_or_else(|e| die(&e));
    }
}

struct Opts {
    runs: u32,
    max_overhead: f64,
    max_span_ns: f64,
    json_path: Option<String>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        runs: 5,
        max_overhead: 0.02,
        max_span_ns: 50.0,
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
            "--max-overhead" => {
                opts.max_overhead = value("--max-overhead")
                    .parse()
                    .unwrap_or_else(|_| die("--max-overhead needs a number"));
            }
            "--max-span-ns" => {
                opts.max_span_ns = value("--max-span-ns")
                    .parse()
                    .unwrap_or_else(|_| die("--max-span-ns needs a number"));
            }
            "--json" => opts.json_path = Some(value("--json")),
            other => die(&format!(
                "unknown option `{other}` (try --runs N, --max-overhead X, \
                 --max-span-ns N, --json PATH)"
            )),
        }
    }
    opts
}

fn die(message: &str) -> ! {
    eprintln!("telemetry_overhead: {message}");
    std::process::exit(1);
}
