//! Edit-loop (workspace re-verification) benchmark.
//!
//! Opens each `scale-map-report-*` stress program (check-heavy audit
//! outputs — a deliberately different regime from the `scale-map-audit-*`
//! workloads of `incremental_solver`) as a workspace document, then
//! pushes a stream of single-statement edits through
//! `Workspace::update_document`: every edit misses the program-tier
//! cache (it is a new revision) but replays all undirtied obligations
//! from the obligation tier, so only the dirty cone touches the solver.
//! Reported per workload: the median cold-open time (each open in a
//! fresh workspace), the median per-edit re-verification time, the reuse
//! split, and the cold/edit speedup.
//!
//! Correctness is pinned before any number is printed: every report —
//! cold and after each edit — must be byte-identical to cold
//! whole-program verification of the same revision.
//!
//! Run with `cargo run -p commcsl-bench --release --bin incremental_reverify --
//! [--edits N] [--min-speedup X] [--json <path>]`. With `--json`, one
//! `incremental_reverify` snapshot line is appended to the trajectory
//! file (conventionally `BENCH_table1.json`). Exits non-zero when
//! reports diverge or the median speedup falls below `--min-speedup`
//! (default 5).

use commcsl_bench::{reverify_bench, reverify_json};

fn main() {
    let (edits, min_speedup, json_path) = parse_args();

    let run = reverify_bench(edits);

    println!(
        "incremental re-verification benchmark — {edits} single-statement \
         edit(s) per workload\n"
    );
    println!(
        "{:<28} {:>6} {:>10} {:>10} {:>7} {:>8} {:>9}",
        "workload", "oblig.", "cold (ms)", "edit (ms)", "reused", "checked", "speedup"
    );
    for row in &run.rows {
        println!(
            "{:<28} {:>6} {:>10.3} {:>10.3} {:>7} {:>8} {:>8.2}x",
            row.example,
            row.obligations,
            row.cold_ms,
            row.edit_ms,
            row.reused,
            row.checked,
            row.speedup()
        );
    }
    println!(
        "\nmedian edit-loop speedup: {:.2}x\nreports byte-identical to cold \
         whole-program verification: {}",
        run.median_speedup, run.identical
    );

    // Gates first: a failing run must not pollute the committed perf
    // trajectory with its snapshot.
    if !run.identical {
        die("incremental reports diverged from cold verification");
    }
    if run.median_speedup < min_speedup {
        die(&format!(
            "median speedup {:.2}x is below the {min_speedup:.2}x floor",
            run.median_speedup
        ));
    }

    if let Some(path) = json_path {
        let snapshot = reverify_json(&run, edits);
        commcsl_bench::append_snapshot(&path, &snapshot).unwrap_or_else(|e| die(&e));
    }
}

fn parse_args() -> (u32, f64, Option<String>) {
    let mut edits = 20u32;
    let mut min_speedup = 5.0f64;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--edits" => {
                edits = value("--edits")
                    .parse()
                    .unwrap_or_else(|_| die("--edits needs a positive integer"));
                if edits == 0 {
                    die("--edits needs a positive integer");
                }
            }
            "--min-speedup" => {
                min_speedup = value("--min-speedup")
                    .parse()
                    .unwrap_or_else(|_| die("--min-speedup needs a number"));
            }
            "--json" => json_path = Some(value("--json")),
            other => die(&format!(
                "unknown option `{other}` (try --edits N, --min-speedup X, \
                 --json PATH)"
            )),
        }
    }
    (edits, min_speedup, json_path)
}

fn die(message: &str) -> ! {
    eprintln!("incremental_reverify: {message}");
    std::process::exit(1);
}
