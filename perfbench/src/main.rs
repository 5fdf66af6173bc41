//! `commcsl-perfbench`: the repository benchmark.
//!
//! ```text
//! commcsl-perfbench --workload <batch-cold|edit-loop|service-mix> --seed N
//!                   --seconds S --trace <0|1> [--commcsl PATH] [--out DIR]
//! ```
//!
//! Run it through `perfbench/run.py`, which builds this binary and the
//! `commcsl` daemon first. The last stdout line is one JSON object:
//! `{"correct","attempted","failed","metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it carries the run's provenance. A traced run also writes its
//! spans and a per-layer summary under `--out`. See `perfbench/README.md`.

mod batch_cold;
mod edit_loop;
mod gen;
mod service_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use stats::{Metric, Phase};
use trace::Span;

/// Every per-layer metric with its unit, in output order. A traced run
/// reports all of them; a layer the workload does not reach reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("front.parse_ms", "ms"),
    ("front.lower_ms", "ms"),
    ("logic.validity_ms", "ms"),
    ("logic.validity_checks", "count"),
    ("smt.check_ms", "ms"),
    ("smt.checks", "count"),
    ("smt.proved_ratio", "ratio"),
    ("analysis.prepass_ms", "ms"),
    ("analysis.prepass_ratio", "ratio"),
    ("verifier.verify_ms", "ms"),
    ("verifier.symexec_self_ms", "ms"),
    ("verifier.obligations", "count"),
    ("verifier.hash_ms", "ms"),
    ("verifier.update_ms", "ms"),
    ("verifier.reuse_ratio", "ratio"),
    ("verifier.cached_verify_ms", "ms"),
    ("verifier.cache_hit_ratio", "ratio"),
    ("verifier.disk_hit_ratio", "ratio"),
    ("verifier.obligation_hit_ratio", "ratio"),
    ("server.json_parse_ms", "ms"),
    ("server.request_encode_ms", "ms"),
    ("server.response_encode_ms", "ms"),
    ("server.response_kb", "KiB"),
    ("server.handler_ms", "ms"),
    ("server.handler_p99_ms", "ms"),
    ("server.unattributed_ms", "ms"),
    ("server.unattributed_ms.doc", "ms"),
    ("server.unattributed_ms.status", "ms"),
    ("lsp.handle_ms", "ms"),
    ("lsp.handle_self_ms", "ms"),
    ("lsp.diagnostics_kb", "KiB"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer metrics, all present, zero until set.
pub fn empty_layers() -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|(name, unit)| ((*name).to_owned(), 0.0, *unit))
        .collect()
}

/// Set-ups per run; `setup_s` is their median. The first two or three
/// set-ups of a process are often slower (its heap and page tables are
/// still growing); with seven the median is a warm one.
pub const SETUPS: usize = 7;

/// Sets one per-layer metric (which must be in [`LAYERS`]).
pub fn set(layers: &mut [Metric], name: &str, value: f64) {
    let slot = layers
        .iter_mut()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"));
    slot.1 = value;
}

/// The run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Checkout root (holds `examples/`).
    pub root: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Where traced runs write spans and summaries, and where the daemon
    /// keeps its per-run socket and cache.
    pub out_dir: PathBuf,
    /// The `commcsl` binary (`service-mix` daemon).
    pub commcsl: PathBuf,
    /// Workload name.
    pub workload: String,
}

/// Per-op counters gathered by attribution calls.
#[derive(Debug, Clone, Default)]
pub struct LayerRecord {
    values: BTreeMap<&'static str, f64>,
}

impl LayerRecord {
    /// Adds `v` to counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_default() += v;
    }

    /// Counter `key` (absent = 0).
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Mean of `key` per op (absent = 0).
    pub fn mean(recs: &[LayerRecord], key: &str) -> f64 {
        let per_op: Vec<f64> = recs.iter().map(|r| r.get(key)).collect();
        stats::mean(&per_op)
    }

    /// `Σ num / Σ den` over every op; 0 when the denominator is.
    pub fn ratio(recs: &[LayerRecord], num: &str, den: &str) -> f64 {
        let sum = |k: &str| recs.iter().filter_map(|r| r.values.get(k)).sum::<f64>();
        let d = sum(den);
        if d == 0.0 {
            0.0
        } else {
            sum(num) / d
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted across every timed phase.
    pub attempted: u64,
    /// Ops that missed their known answer.
    pub failed: u64,
    /// End-to-end metrics (untraced phase).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced phase).
    pub layers: Vec<Metric>,
    /// Every span of the traced phase.
    pub spans: Vec<Span>,
    /// Per op class of the untraced phase: (class, count, p50, p99).
    pub classes: Vec<(String, usize, f64, f64)>,
    /// Free-form summary fields (already JSON-encoded values).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// An outcome holding the untraced phase's op counts, class
    /// latencies and end-to-end metrics, scaled to the reference host;
    /// the notes keep the figures as measured.
    pub fn new(setup_s: &[f64], phase: &Phase) -> Outcome {
        let mut classes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for op in &phase.ops {
            classes.entry(op.class).or_default().push(op.ms);
        }
        Outcome {
            attempted: phase.ops.len() as u64,
            failed: phase.failed(),
            classes: classes
                .into_iter()
                .map(|(c, v)| {
                    (
                        c.to_owned(),
                        v.len(),
                        stats::quantile(&v, 0.5),
                        stats::quantile(&v, 0.99),
                    )
                })
                .collect(),
            metrics: stats::end_to_end(setup_s, phase, true),
            notes: vec![
                ("segments".into(), phase.segments_json()),
                ("setup_runs_s".into(), format!("{setup_s:?}")),
                (
                    "measured".into(),
                    metrics_json(&stats::end_to_end(setup_s, phase, false)),
                ),
            ],
            ..Outcome::default()
        }
    }

    /// Adds another phase's op counts.
    pub fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.ops.len() as u64;
        self.failed += phase.failed();
    }
}

/// The traced-minus-untraced median latency.
pub fn trace_overhead(plain: &Phase, traced: &Phase) -> f64 {
    stats::median(&traced.latencies(|_| true)) - stats::median(&plain.latencies(|_| true))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn usage() -> ! {
    eprintln!(
        "usage: commcsl-perfbench --workload <batch-cold|edit-loop|service-mix> --seed N \
         --seconds S --trace <0|1> [--commcsl PATH] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut ctx = Ctx {
        root: PathBuf::from("."),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        commcsl: PathBuf::from(".bench_build/release/commcsl"),
        workload: String::new(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        let bad = || -> ! {
            eprintln!("commcsl-perfbench: bad value `{value}` for {flag}");
            usage()
        };
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => ctx.seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--commcsl" => ctx.commcsl = PathBuf::from(value),
            "--out" => ctx.out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    if ctx.seconds <= 0.0 {
        usage();
    }
    ctx
}

fn main() {
    let ctx = parse_args();
    let run = match ctx.workload.as_str() {
        "batch-cold" => batch_cold::run,
        "edit-loop" => edit_loop::run,
        "service-mix" => service_mix::run,
        _ => usage(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!(
            "commcsl-perfbench: cannot create {}: {e}",
            ctx.out_dir.display()
        );
        std::process::exit(1);
    }
    let outcome = match run(&ctx) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("commcsl-perfbench: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };

    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let metrics = if ctx.trace {
        &outcome.layers
    } else {
        &outcome.metrics
    };
    let mut provenance = format!(
        "{{\"provenance\":{{\"commit\":\"{}\",\"source_digest\":\"{}\",\"nproc\":{},\"cpus\":{cpus},\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"runs\":{{\"setup\":{},\"timed\":{}}},\
         \"ops\":{},\"failed\":{}}},\"classes\":{{",
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE_DIGEST"),
        env("PERFBENCH_NPROC"),
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        SETUPS,
        if ctx.trace { 2 } else { 1 },
        outcome.attempted,
        outcome.failed,
    );
    let classes: Vec<String> = outcome
        .classes
        .iter()
        .map(|(c, n, p50, p99)| {
            format!("\"{c}\":{{\"count\":{n},\"p50_ms\":{p50},\"p99_ms\":{p99}}}")
        })
        .collect();
    provenance.push_str(&classes.join(","));
    provenance.push('}');
    for (k, v) in &outcome.notes {
        let _ = write!(provenance, ",\"{k}\":{v}");
    }
    if ctx.trace {
        // Per span name: ops it occurs in, and its median duration and
        // self time per op — where an op's time sits, layer by layer.
        let names: std::collections::BTreeSet<&str> =
            outcome.spans.iter().map(|s| s.name).collect();
        let fields: Vec<String> = names
            .into_iter()
            .map(|name| {
                format!(
                    "\"{name}\":{{\"ops\":{},\"ms\":{},\"self_ms\":{}}}",
                    trace::op_totals(&outcome.spans, name, false).len(),
                    trace::median_per_op(&outcome.spans, name, false),
                    trace::median_per_op(&outcome.spans, name, true),
                )
            })
            .collect();
        let _ = write!(provenance, ",\"spans\":{{{}}}", fields.join(","));
    }
    let _ = write!(provenance, ",\"metrics\":{}}}", metrics_json(metrics));

    if ctx.trace {
        let stem = ctx
            .out_dir
            .join(format!("{}-seed{}", ctx.workload, ctx.seed));
        let spans = stem.with_extension("spans.jsonl");
        let summary = stem.with_extension("summary.json");
        if let Err(e) = trace::write_spans(&spans, &outcome.spans)
            .and_then(|()| std::fs::write(&summary, format!("{provenance}\n")))
        {
            eprintln!("commcsl-perfbench: cannot write trace output: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "commcsl-perfbench: spans in {}, summary in {}",
            spans.display(),
            summary.display()
        );
    }
    let results = ctx.out_dir.join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{provenance}\n").as_bytes()));
    if let Err(e) = appended {
        eprintln!(
            "commcsl-perfbench: cannot append to {}: {e}",
            results.display()
        );
    }

    println!("{provenance}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    );
}
