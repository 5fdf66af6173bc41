//! Static low-ness pre-pass benchmark.
//!
//! Verifies each `scale-map-report-*` stress program with the pre-pass on
//! (the default) and off, reporting how many solver checks the pre-pass
//! avoided and the wall-clock delta. Correctness is pinned before any
//! number is printed: the two reports must be byte-identical for every
//! workload.
//!
//! Run with `cargo run -p commcsl-bench --release --bin static_prepass --
//! [--runs N] [--min-discharge X] [--json <path>]`. With `--json`, one
//! `static_prepass` snapshot line is appended to the trajectory file
//! (conventionally `BENCH_table1.json`). Exits non-zero when reports
//! diverge or any workload's statically-discharged fraction falls below
//! `--min-discharge` (default 0.15).

use commcsl_bench::{static_prepass_bench, static_prepass_json};

fn main() {
    let (runs, min_discharge, json_path) = parse_args();

    let run = static_prepass_bench(runs);

    println!("static pre-pass benchmark — {runs} run(s) per workload\n");
    println!(
        "{:<28} {:>6} {:>7} {:>9} {:>11} {:>12} {:>10}",
        "workload", "oblig.", "static", "fraction", "solver (ms)", "prepass (ms)", "delta (ms)"
    );
    for row in &run.rows {
        println!(
            "{:<28} {:>6} {:>7} {:>8.1}% {:>11.3} {:>12.3} {:>10.3}",
            row.example,
            row.obligations,
            row.statically_proven,
            row.discharge_fraction() * 100.0,
            row.solver_ms,
            row.prepass_ms,
            row.delta_ms(),
        );
    }
    println!(
        "\nminimum discharge fraction: {:.1}%\nreports byte-identical with \
         the pre-pass on and off: {}",
        run.min_discharge * 100.0,
        run.identical
    );

    // Gates first: a failing run must not pollute the committed perf
    // trajectory with its snapshot.
    if !run.identical {
        die("pre-pass reports diverged from solver-only verification");
    }
    if run.min_discharge < min_discharge {
        die(&format!(
            "discharge fraction {:.1}% is below the {:.1}% floor",
            run.min_discharge * 100.0,
            min_discharge * 100.0
        ));
    }

    if let Some(path) = json_path {
        let snapshot = static_prepass_json(&run, runs);
        commcsl_bench::append_snapshot(&path, &snapshot).unwrap_or_else(|e| die(&e));
    }
}

fn parse_args() -> (u32, f64, Option<String>) {
    let mut runs = 5u32;
    let mut min_discharge = 0.15f64;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--runs" => {
                runs = value("--runs")
                    .parse()
                    .unwrap_or_else(|_| die("--runs needs a positive integer"));
                if runs == 0 {
                    die("--runs needs a positive integer");
                }
            }
            "--min-discharge" => {
                min_discharge = value("--min-discharge")
                    .parse()
                    .unwrap_or_else(|_| die("--min-discharge needs a number"));
            }
            "--json" => json_path = Some(value("--json")),
            other => die(&format!(
                "unknown option `{other}` (try --runs N, --min-discharge X, \
                 --json PATH)"
            )),
        }
    }
    (runs, min_discharge, json_path)
}

fn die(message: &str) -> ! {
    eprintln!("static_prepass: {message}");
    std::process::exit(1);
}
