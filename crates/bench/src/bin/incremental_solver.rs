//! Incremental-vs-fresh solver backend benchmark.
//!
//! Records the solver-session event stream of the obligation-heaviest
//! workloads (Table 1 fixtures plus `scale-*` stress programs) and
//! replays each identical stream through both backends — `fresh`
//! rebuilds all congruence/arithmetic state for every obligation,
//! `incremental` keeps per-scope solver sessions on a backtrackable
//! congruence closure — reporting per-workload median times plus the
//! median speedup. Before timing anything it pins correctness: replayed
//! verdict streams must agree, and both backends, driven through the
//! unified `Verifier` API, must produce report JSON byte-identical to
//! the legacy free-function path over the full corpus (fixtures +
//! rejected variants + stress programs).
//!
//! Run with `cargo run -p commcsl-bench --release --bin incremental_solver --
//! [--runs N] [--top K] [--min-speedup X] [--json <path>]`. With
//! `--json`, one `incremental_solver` snapshot line is appended to the
//! trajectory file (conventionally `BENCH_table1.json`). Exits non-zero
//! when verdicts diverge or the median speedup falls below
//! `--min-speedup` (default 1.3).

use commcsl_bench::{incremental_bench, incremental_json};

fn main() {
    let (runs, top, min_speedup, json_path) = parse_args();

    let run = incremental_bench(runs, top);

    println!(
        "incremental solver benchmark — top {} workloads by obligation count, \
         replayed {runs} time(s) per backend\n",
        run.rows.len()
    );
    println!(
        "{:<28} {:>6} {:>12} {:>14} {:>9}",
        "workload", "checks", "fresh (ms)", "increm. (ms)", "speedup"
    );
    for row in &run.rows {
        println!(
            "{:<28} {:>6} {:>12.3} {:>14.3} {:>8.2}x",
            row.example,
            row.checks,
            row.fresh_ms,
            row.incremental_ms,
            row.speedup()
        );
    }
    println!(
        "\nmedian speedup: {:.2}x\nverdicts byte-identical across backends \
         and the legacy path: {}",
        run.median_speedup, run.identical
    );

    // Gates first: a failing run must not pollute the committed perf
    // trajectory with its snapshot.
    if !run.identical {
        die("backend verdicts diverged — the incremental backend is wrong");
    }
    if run.median_speedup < min_speedup {
        die(&format!(
            "median speedup {:.2}x is below the {min_speedup:.2}x floor",
            run.median_speedup
        ));
    }

    if let Some(path) = json_path {
        let snapshot = incremental_json(&run, runs);
        commcsl_bench::append_snapshot(&path, &snapshot).unwrap_or_else(|e| die(&e));
    }

}

fn parse_args() -> (u32, usize, f64, Option<String>) {
    let mut runs = 5u32;
    let mut top = 5usize;
    let mut min_speedup = 1.3f64;
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
            "--top" => {
                top = value("--top")
                    .parse()
                    .unwrap_or_else(|_| die("--top needs a positive integer"));
            }
            "--min-speedup" => {
                min_speedup = value("--min-speedup")
                    .parse()
                    .unwrap_or_else(|_| die("--min-speedup needs a number"));
            }
            "--json" => json_path = Some(value("--json")),
            other => die(&format!(
                "unknown option `{other}` (try --runs N, --top K, \
                 --min-speedup X, --json PATH)"
            )),
        }
    }
    (runs, top, min_speedup, json_path)
}

fn die(message: &str) -> ! {
    eprintln!("incremental_solver: {message}");
    std::process::exit(1);
}
