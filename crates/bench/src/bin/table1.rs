//! Regenerates Table 1 of the paper: verifies all 18 evaluation examples
//! five times each (as in the paper) and prints the averaged table.
//!
//! The suite runs through the parallel batch pipeline of
//! `Verifier::verify_batch`; use `--threads 1` for the paper's
//! sequential regime. With `--json <path>`, one single-line JSON snapshot
//! of the run is *appended* to `<path>` (conventionally
//! `BENCH_table1.json`), building up a perf trajectory run over run.
//!
//! Run with `cargo run -p commcsl-bench --release --bin table1 --
//! [--runs N] [--threads N] [--json <path>]`.

use commcsl::verifier::Verifier;
use commcsl_bench::{render_table, table1_json, table1_rows_parallel};

fn main() {
    let (runs, threads, json_path) = parse_args();
    let rows = table1_rows_parallel(runs, threads);
    let effective = Verifier::new()
        .with_threads(threads)
        .effective_threads(rows.len());
    println!(
        "Table 1 (reproduction) — verification times averaged over {runs} runs, \
         batch-verified on {effective} thread(s)"
    );
    if effective > 1 {
        println!(
            "(times include multicore contention; use --threads 1 for the \
             paper's sequential regime)"
        );
    }
    println!();
    print!("{}", render_table(&rows));
    let all_ok = rows.iter().all(|r| r.verified);
    println!(
        "\n{} / {} examples verified",
        rows.iter().filter(|r| r.verified).count(),
        rows.len()
    );
    if let Some(path) = json_path {
        let snapshot = table1_json(&rows, runs, threads);
        commcsl_bench::append_snapshot(&path, &snapshot).unwrap_or_else(|e| die(&e));
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}

/// Parses `[--runs N] [--threads N] [--json <path>]`; defaults: 5 runs,
/// all CPUs, no snapshot.
fn parse_args() -> (u32, usize, Option<String>) {
    let mut runs = 5u32;
    let mut threads = 0usize;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a number")))
        };
        match arg.as_str() {
            "--runs" => {
                runs = u32::try_from(take("--runs"))
                    .ok()
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| die("--runs needs a positive number"));
            }
            "--threads" => {
                threads = usize::try_from(take("--threads"))
                    .unwrap_or_else(|_| die("--threads needs a reasonable number"));
            }
            "--json" => {
                json_path =
                    Some(args.next().unwrap_or_else(|| die("--json needs a path")));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    (runs, threads, json_path)
}

fn die(msg: &str) -> ! {
    eprintln!("table1: {msg}\nusage: table1 [--runs N] [--threads N] [--json <path>]");
    std::process::exit(2);
}
