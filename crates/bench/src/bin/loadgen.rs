//! Sustained-load benchmark: concurrent clients against a live daemon.
//!
//! Boots a real verification daemon on a temporary Unix socket, drives
//! `--clients` concurrent connections through an interleaved v2
//! workload (`verify` over the `.csl` corpus and `scale-map-report-*`
//! stress programs, `open`/`update` workspace edits, `status` polls),
//! and reports throughput plus per-op p50/p99 from *both* sides of the
//! wire: the clients' own measurements and the daemon's service
//! histograms for the same traffic.
//!
//! Gates (checked before any snapshot is appended):
//!
//! * throughput ≥ `--min-rps` (CI floor),
//! * per-op p99 ≥ p50 and client p99 ≤ `--max-p99-ms`,
//! * daemon p50 within 20% (or a load-derived queueing slack, ≥ 5 ms)
//!   of client p50 — skipped under `--deterministic`, where client
//!   durations are synthetic,
//! * every verify verdict as expected, every response stamped with a
//!   request id, event-log sequence numbers strictly increasing.
//!
//! Run with `cargo run -p commcsl-bench --release --bin loadgen --
//! [--clients N] [--requests N] [--threads N] [--tcp] [--shards N]
//! [--deterministic] [--min-rps X] [--max-p99-ms X] [--json <path>]
//! [--hist-out <path>]`. `--tcp` drives the load over TCP loopback
//! instead of a Unix socket; `--shards N` puts a consistent-hash pool
//! of N shared-nothing verifier shards behind the endpoint (implies
//! `--tcp`). Either flag renames the snapshot to `loadgen_tcp`.
//! With `--json`, one `loadgen` snapshot line is appended to the
//! trajectory file (conventionally `BENCH_table1.json`). With
//! `--hist-out`, the canonical client-side histogram JSON is written to
//! a file — under `--threads 1 --deterministic` it is byte-identical
//! across runs.

use commcsl_bench::loadgen::{loadgen_json, loadgen_run, LoadgenConfig};

fn main() {
    let (config, min_rps, max_p99_ms, json_path, hist_out) = parse_args();

    let run = loadgen_run(&config);

    println!(
        "sustained-load benchmark — {} client(s) x {} request(s), {} \
         daemon thread(s), {}{}\n",
        config.clients,
        config.requests_per_client,
        config.threads,
        if config.tcp || config.shards > 1 {
            format!("tcp x {} shard(s)", config.shards.max(1))
        } else {
            "unix socket".to_owned()
        },
        if config.deterministic {
            ", deterministic durations"
        } else {
            ""
        },
    );
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "op", "count", "client p50", "client p99", "daemon p50", "daemon p99"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    for op in &run.ops {
        println!(
            "{:<14} {:>8} {:>9.3} ms {:>9.3} ms {:>9.3} ms {:>9.3} ms",
            op.op,
            op.client.count(),
            ms(op.client.quantile(0.5)),
            ms(op.client.quantile(0.99)),
            ms(op.daemon.quantile(0.5)),
            ms(op.daemon.quantile(0.99)),
        );
    }
    println!(
        "\n{} requests in {:.1} ms — {:.1} req/s\nevent log: {} retained, \
         {} dropped, sequences strictly increasing: {}",
        run.requests,
        run.wall_ms,
        run.throughput_rps(),
        run.daemon_events,
        run.daemon_events_dropped,
        run.seqs_strictly_increasing,
    );

    // Gates first: a failing run must not pollute the committed perf
    // trajectory with its snapshot.
    if run.verify_failures > 0 {
        die(&format!("{} verify verdict(s) unexpected", run.verify_failures));
    }
    if !run.request_ids_present {
        die("a response arrived without a request_id");
    }
    if !run.seqs_strictly_increasing {
        die("event-log sequence numbers were not strictly increasing");
    }
    if !run.p99_sane() {
        die("an op's p99 fell below its p50");
    }
    let worst_p99_ms = run
        .ops
        .iter()
        .map(|o| o.client.quantile(0.99))
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    if worst_p99_ms > max_p99_ms {
        die(&format!(
            "client p99 {worst_p99_ms:.3} ms exceeds the {max_p99_ms:.3} ms bound"
        ));
    }
    if run.throughput_rps() < min_rps {
        die(&format!(
            "throughput {:.1} req/s is below the {min_rps:.1} req/s floor",
            run.throughput_rps()
        ));
    }
    if !config.deterministic && !run.p50_agreement() {
        let slack = run.queue_slack_ns();
        for op in &run.ops {
            if !op.p50_agrees(slack) {
                eprintln!(
                    "loadgen: op `{}` daemon p50 {:.3} ms vs client p50 {:.3} ms",
                    op.op,
                    ms(op.daemon.quantile(0.5)),
                    ms(op.client.quantile(0.5)),
                );
            }
        }
        die(&format!(
            "daemon p50 disagrees with client p50 beyond 20% / {:.1} ms queueing slack",
            slack / 1e6
        ));
    }

    if let Some(path) = hist_out {
        std::fs::write(&path, format!("{}\n", run.histogram_json))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("wrote histogram JSON to {path}");
    }
    if let Some(path) = json_path {
        let snapshot = loadgen_json(&run, &config);
        commcsl_bench::append_snapshot(&path, &snapshot).unwrap_or_else(|e| die(&e));
    }
}

type Args = (LoadgenConfig, f64, f64, Option<String>, Option<String>);

fn parse_args() -> Args {
    let mut config = LoadgenConfig::default();
    let mut min_rps = 20.0f64;
    let mut max_p99_ms = 5_000.0f64;
    let mut json_path = None;
    let mut hist_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--clients" => {
                config.clients = value("--clients")
                    .parse()
                    .unwrap_or_else(|_| die("--clients needs a positive integer"));
                if config.clients == 0 {
                    die("--clients needs a positive integer");
                }
            }
            "--requests" => {
                config.requests_per_client = value("--requests")
                    .parse()
                    .unwrap_or_else(|_| die("--requests needs a positive integer"));
                if config.requests_per_client == 0 {
                    die("--requests needs a positive integer");
                }
            }
            "--threads" => {
                config.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("--threads needs an integer"));
            }
            "--deterministic" => config.deterministic = true,
            "--tcp" => config.tcp = true,
            "--shards" => {
                config.shards = value("--shards")
                    .parse()
                    .unwrap_or_else(|_| die("--shards needs a positive integer"));
                if config.shards == 0 {
                    die("--shards needs a positive integer");
                }
            }
            "--min-rps" => {
                min_rps = value("--min-rps")
                    .parse()
                    .unwrap_or_else(|_| die("--min-rps needs a number"));
            }
            "--max-p99-ms" => {
                max_p99_ms = value("--max-p99-ms")
                    .parse()
                    .unwrap_or_else(|_| die("--max-p99-ms needs a number"));
            }
            "--json" => json_path = Some(value("--json")),
            "--hist-out" => hist_out = Some(value("--hist-out")),
            other => die(&format!(
                "unknown option `{other}` (try --clients N, --requests N, \
                 --threads N, --tcp, --shards N, --deterministic, \
                 --min-rps X, --max-p99-ms X, --json PATH, --hist-out PATH)"
            )),
        }
    }
    (config, min_rps, max_p99_ms, json_path, hist_out)
}

fn die(message: &str) -> ! {
    eprintln!("loadgen: {message}");
    std::process::exit(1);
}
