//! Cold-vs-warm verification benchmark for the content-addressed verdict
//! cache (`commcsl_verifier::cache`, the engine behind `commcsl serve`).
//!
//! Three passes over the full corpus (18 Table 1 fixtures + the rejected
//! variants): **cold** (empty cache — full symbolic execution), **warm**
//! (same process — in-memory tier), and **restart** (fresh verifier over
//! the same cache directory — on-disk tier, simulating a daemon restart).
//! Every cached verdict is checked byte-identical to direct verification.
//!
//! Run with `cargo run -p commcsl-bench --release --bin cold_warm --
//! [--threads N] [--min-speedup X] [--json <path>]`. With `--json`, one
//! snapshot line is appended to the trajectory file (conventionally
//! `BENCH_table1.json`). Exits non-zero when verdicts diverge, a warm
//! pass misses the cache, or the warm speedup falls below `--min-speedup`
//! (default 10).

use commcsl_bench::{cold_warm_bench, cold_warm_json};

fn main() {
    let (threads, min_speedup, json_path) = parse_args();

    let cache_dir = std::env::temp_dir().join(format!(
        "commcsl-cold-warm-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run = cold_warm_bench(threads, &cache_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!(
        "cold/warm cache benchmark — {} programs, {} thread(s)\n\
         \n\
         cold    (no cache, full verification): {:>10.3} ms\n\
         warm    (in-memory tier):              {:>10.3} ms  ({:.1}x)\n\
         restart (on-disk tier):                {:>10.3} ms  ({:.1}x)\n\
         \n\
         verdicts byte-identical across passes: {}\n\
         warm passes fully served from cache:   {}",
        run.programs,
        if threads == 0 { "auto".to_owned() } else { threads.to_string() },
        run.cold_ms,
        run.warm_ms,
        run.speedup_warm(),
        run.restart_ms,
        run.speedup_restart(),
        run.identical,
        run.fully_cached,
    );

    if let Some(path) = json_path {
        let snapshot = cold_warm_json(&run, threads);
        commcsl_bench::append_snapshot(&path, &snapshot).unwrap_or_else(|e| die(&e));
    }

    if !run.identical || !run.fully_cached {
        eprintln!("cold_warm: FAILED — cache served wrong or uncached verdicts");
        std::process::exit(1);
    }
    if run.speedup_warm() < min_speedup {
        eprintln!(
            "cold_warm: FAILED — warm speedup {:.1}x below the {min_speedup:.1}x floor",
            run.speedup_warm()
        );
        std::process::exit(1);
    }
}

/// Parses `[--threads N] [--min-speedup X] [--json <path>]`.
fn parse_args() -> (usize, f64, Option<String>) {
    let mut threads = 0usize;
    let mut min_speedup = 10.0f64;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--min-speedup" => {
                min_speedup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--min-speedup needs a number"));
            }
            "--json" => {
                json_path =
                    Some(args.next().unwrap_or_else(|| die("--json needs a path")));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    (threads, min_speedup, json_path)
}

fn die(msg: &str) -> ! {
    eprintln!(
        "cold_warm: {msg}\nusage: cold_warm [--threads N] [--min-speedup X] [--json <path>]"
    );
    std::process::exit(2);
}
