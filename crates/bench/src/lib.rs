//! Benchmark harness regenerating the paper's evaluation (Table 1) and
//! ablation studies.
//!
//! [`table1_rows`] produces the same columns the paper reports: example
//! name, data structure, abstraction, LOC, annotation count, and the
//! verification time averaged over several runs. Absolute times are not
//! comparable (the paper measures Viper+Z3 on a warmed JVM; we measure a
//! native in-process verifier) — EXPERIMENTS.md compares *shape*.

use std::time::Duration;

use commcsl::fixtures;
use commcsl::server::json::Json;
use commcsl::verifier::Verifier;

pub mod loadgen;

/// One reproduced row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Example name (paper row).
    pub example: &'static str,
    /// Data structure column.
    pub data_structure: &'static str,
    /// Abstraction column.
    pub abstraction: &'static str,
    /// Lines of code (annotated-program statements).
    pub loc: usize,
    /// Annotation count (specifications and proof annotations).
    pub annotations: usize,
    /// Verification time, averaged over `runs`.
    pub time: Duration,
    /// Whether verification succeeded (it must, for every row).
    pub verified: bool,
}

/// Verifies every fixture `runs` times and reports the averaged rows.
///
/// Runs go through the parallel batch pipeline with one worker per
/// available CPU; see [`table1_rows_parallel`] for an explicit thread
/// count.
pub fn table1_rows(runs: u32) -> Vec<Table1Row> {
    table1_rows_parallel(runs, 0)
}

/// [`table1_rows`] over an explicit pool size (`0` = one worker per
/// available CPU, `1` = the paper's sequential regime).
///
/// Each run pushes the full fixture suite through
/// [`Verifier::verify_batch`]; verdicts are deterministic (identical to
/// sequential verification) whatever the thread count, and the
/// per-fixture wall-clock times are averaged over the runs.
pub fn table1_rows_parallel(runs: u32, threads: usize) -> Vec<Table1Row> {
    assert!(runs > 0, "need at least one run to average over");
    let verifier = Verifier::new().with_threads(threads);
    let fixtures = fixtures::all();
    let programs: Vec<_> = fixtures.iter().map(|f| &f.program).collect();

    let mut totals = vec![Duration::ZERO; fixtures.len()];
    let mut verified = vec![true; fixtures.len()];
    for _ in 0..runs {
        for result in verifier.verify_batch(&programs) {
            totals[result.index] += result.time;
            verified[result.index] &= result.report.verified();
        }
    }

    fixtures
        .iter()
        .enumerate()
        .map(|(i, f)| Table1Row {
            example: f.name,
            data_structure: f.data_structure,
            abstraction: f.abstraction,
            loc: f.program.loc(),
            annotations: f.program.annotation_count(),
            time: totals[i] / runs,
            verified: verified[i],
        })
        .collect()
}

/// Renders rows as one JSON snapshot object (single line, no trailing
/// newline) for append-style benchmark trajectories such as
/// `BENCH_table1.json`: one run per line, each self-describing.
pub fn table1_json(rows: &[Table1Row], runs: u32, threads: usize) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"example\":{},\"data_structure\":{},\"abstraction\":{},\
                 \"loc\":{},\"annotations\":{},\"time_ms\":{:.6},\"verified\":{}}}",
                Json::str(r.example),
                Json::str(r.data_structure),
                Json::str(r.abstraction),
                r.loc,
                r.annotations,
                r.time.as_secs_f64() * 1000.0,
                r.verified,
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"table1\",\"runs\":{runs},\"threads\":{threads},\
         \"total_ms\":{:.6},\"all_verified\":{},\"rows\":[{}]}}",
        rows.iter().map(|r| r.time.as_secs_f64()).sum::<f64>() * 1000.0,
        rows.iter().all(|r| r.verified),
        rendered.join(","),
    )
}

/// Appends one snapshot line (a single JSON object, as the `*_json`
/// renderers here produce) to the trajectory file at `path`, stamped
/// with where it came from: `commit` is `git rev-parse HEAD` of this
/// source tree (`"unknown"` outside a git checkout), and `host` holds
/// the host name and `available_parallelism`.
///
/// # Errors
///
/// A message naming `path` when the file cannot be opened or written.
pub fn append_snapshot(path: &str, snapshot: &str) -> Result<(), String> {
    use std::io::Write;

    let fields = snapshot
        .strip_suffix('}')
        .ok_or_else(|| format!("snapshot for {path} is not a JSON object"))?;
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|name| name.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let line = format!(
        "{fields},\"commit\":{},\"host\":{{\"name\":{},\"available_parallelism\":{}}}}}\n",
        Json::str(&commit),
        Json::str(&host),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?
        .write_all(line.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("appended snapshot to {path}");
    Ok(())
}

// ----------------------------------------------------------- cold vs warm

/// Results of the cold-vs-warm cache benchmark over the full corpus
/// (18 Table 1 fixtures plus the rejected variants).
#[derive(Debug, Clone)]
pub struct ColdWarm {
    /// Programs in the corpus.
    pub programs: usize,
    /// Wall-clock ms for the cold pass (empty cache, full verification).
    pub cold_ms: f64,
    /// Wall-clock ms for the warm pass (same process, memory tier).
    pub warm_ms: f64,
    /// Wall-clock ms after a simulated daemon restart (fresh
    /// [`Verifier`], same disk dir — every hit from the disk tier).
    pub restart_ms: f64,
    /// Whether every cached verdict (warm *and* restart) was
    /// byte-identical to direct, uncached verification.
    pub identical: bool,
    /// Whether the warm/restart passes were fully served from cache.
    pub fully_cached: bool,
}

impl ColdWarm {
    /// Cold-over-warm speedup (memory tier).
    pub fn speedup_warm(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(f64::EPSILON)
    }

    /// Cold-over-restart speedup (disk tier).
    pub fn speedup_restart(&self) -> f64 {
        self.cold_ms / self.restart_ms.max(f64::EPSILON)
    }
}

/// Runs the cold/warm/restart passes against a cache rooted at
/// `cache_dir` (which should start empty; typically a temp dir).
pub fn cold_warm_bench(threads: usize, cache_dir: &std::path::Path) -> ColdWarm {
    use commcsl::verifier::cache::CacheConfig;
    use commcsl::verifier::verify;
    use std::time::Instant;

    let fixtures = fixtures::all();
    let rejected = fixtures::rejected();
    let programs: Vec<&commcsl::verifier::AnnotatedProgram> = fixtures
        .iter()
        .map(|f| &f.program)
        .chain(rejected.iter().map(|(_, p)| p))
        .collect();

    let cached = Verifier::new()
        .with_threads(threads)
        .with_cache(CacheConfig::persistent(cache_dir));

    let started = Instant::now();
    let cold = cached.verify_batch(&programs);
    let cold_ms = started.elapsed().as_secs_f64() * 1000.0;

    let started = Instant::now();
    let warm = cached.verify_batch(&programs);
    let warm_ms = started.elapsed().as_secs_f64() * 1000.0;

    // Simulated restart: a fresh verifier over the same disk tier.
    let restarted = Verifier::new()
        .with_threads(threads)
        .with_cache(CacheConfig::persistent(cache_dir));
    let started = Instant::now();
    let after_restart = restarted.verify_batch(&programs);
    let restart_ms = started.elapsed().as_secs_f64() * 1000.0;

    let mut identical = true;
    let mut fully_cached = true;
    for ((program, c), (w, r)) in programs
        .iter()
        .zip(&cold)
        .zip(warm.iter().zip(&after_restart))
    {
        fully_cached &= w.cached == Some(true) && r.cached == Some(true) && c.cached == Some(false);
        let direct = verify(program, cached.config()).to_json();
        identical &= c.report.to_json() == direct
            && w.report.to_json() == direct
            && r.report.to_json() == direct;
    }

    ColdWarm {
        programs: programs.len(),
        cold_ms,
        warm_ms,
        restart_ms,
        identical,
        fully_cached,
    }
}

/// Renders a [`ColdWarm`] run as one appendable JSON snapshot line (same
/// trajectory file as [`table1_json`], distinguished by `"bench"`).
pub fn cold_warm_json(run: &ColdWarm, threads: usize) -> String {
    format!(
        "{{\"bench\":\"cold_warm\",\"threads\":{threads},\"programs\":{},\
         \"cold_ms\":{:.6},\"warm_ms\":{:.6},\"restart_ms\":{:.6},\
         \"speedup_warm\":{:.3},\"speedup_restart\":{:.3},\
         \"identical\":{},\"fully_cached\":{}}}",
        run.programs,
        run.cold_ms,
        run.warm_ms,
        run.restart_ms,
        run.speedup_warm(),
        run.speedup_restart(),
        run.identical,
        run.fully_cached,
    )
}

// --------------------------------------------------- incremental backend

/// One workload of the incremental-vs-fresh solver benchmark: a
/// program's recorded solver-session event stream, replayed through each
/// backend.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Workload name (a Table 1 fixture, or a `scale-*` stress program).
    pub example: String,
    /// Number of `Check` events (program proof obligations) in the stream.
    pub checks: usize,
    /// Median wall-clock ms replaying through the stateless `fresh`
    /// backend (one full re-solve per obligation).
    pub fresh_ms: f64,
    /// Median wall-clock ms replaying through the `incremental` backend.
    pub incremental_ms: f64,
}

impl IncrementalRow {
    /// Fresh-over-incremental speedup for this workload.
    pub fn speedup(&self) -> f64 {
        self.fresh_ms / self.incremental_ms.max(f64::EPSILON)
    }
}

/// Results of the incremental-solver benchmark.
#[derive(Debug, Clone)]
pub struct IncrementalBench {
    /// Per-workload medians, obligation-heaviest first.
    pub rows: Vec<IncrementalRow>,
    /// Median of the per-workload speedups.
    pub median_speedup: f64,
    /// Whether both backends produced byte-identical report JSON on the
    /// *full* corpus (all fixtures + rejected variants + the stress
    /// programs), cross-checked against the legacy free-function path,
    /// and identical verdict streams on every replay.
    pub identical: bool,
}

/// The median of `samples` (sorting them in place); 0 for none.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Obligation-heavy stress programs in the style of the Table 1 examples
/// — the per-path obligation counts a production verifier sees on real
/// method bodies, rather than the papers' minimal exhibits. Both verify.
pub fn scale_programs() -> Vec<commcsl::verifier::AnnotatedProgram> {
    use commcsl::prelude::Term;
    use commcsl::pure::Func;

    // Audit outputs over the key-set abstraction, all discharged against
    // the same unshare facts.
    let audit = |j: i64| {
        let dom = Term::app(Func::MapDom, [Term::var("m")]);
        Term::app(
            Func::SetCard,
            [Term::app(Func::SetAdd, [dom, Term::int(j)])],
        )
    };
    vec![
        shared_map_program("scale-map-audit", 6, 6, audit),
        shared_map_program("scale-map-audit", 12, 12, audit),
    ]
}

/// The edit-loop stress programs: the same shared-map shape as
/// [`scale_programs`], but every audit output is a *composite aggregate*
/// ([`audit_goal`]) whose discharge cost dwarfs the symbolic walk that
/// reaches it — the reporting-pipeline regime where obligation-level
/// reuse pays hardest. Kept separate from [`scale_programs`] because the
/// two benches stress different seams: `incremental_solver` measures
/// base-state reuse across *many cheap checks*, `incremental_reverify`
/// measures skipping *expensive checks* altogether.
pub fn reverify_programs() -> Vec<commcsl::verifier::AnnotatedProgram> {
    vec![
        shared_map_program("scale-map-report", 6, 24, audit_goal),
        shared_map_program("scale-map-report", 9, 36, audit_goal),
    ]
}

/// The shared-map stress shape behind [`scale_programs`] and
/// [`reverify_programs`], named `{prefix}-{puts_per_iter}x{outputs}`: two
/// workers split a loop over low `n`, and every iteration puts
/// `puts_per_iter` distinct low keys with a high value into one
/// `keyset_map` resource. After the unshare into `m` the program outputs
/// `output(j)` for every `j < outputs`.
fn shared_map_program(
    prefix: &str,
    puts_per_iter: usize,
    outputs: usize,
    output: impl Fn(i64) -> commcsl::prelude::Term,
) -> commcsl::verifier::AnnotatedProgram {
    use commcsl::prelude::{ResourceSpec, Sort, Term, VStmt};
    use commcsl::pure::{Func, Value};
    use commcsl::verifier::AnnotatedProgram;

    let worker = |lo: Term, hi: Term| {
        let mut body = vec![
            VStmt::input("adr", Sort::Int, true),
            VStmt::input("rsn", Sort::Int, false),
        ];
        for j in 0..puts_per_iter {
            // Distinct low keys, high values: every put is its own
            // precondition obligation under the shared loop facts.
            body.push(VStmt::atomic(
                0,
                "Put",
                Term::pair(
                    Term::add(Term::var("adr"), Term::int(j as i64)),
                    Term::var("rsn"),
                ),
            ));
        }
        vec![VStmt::for_range("i", lo, hi, body)]
    };
    let half = || Term::app(Func::Div, [Term::var("n"), Term::int(2)]);
    let mut body = vec![
        VStmt::input("n", Sort::Int, true),
        VStmt::Share {
            resource: 0,
            init: Term::Lit(Value::map_empty()),
        },
        VStmt::Par {
            workers: vec![worker(Term::int(0), half()), worker(half(), Term::var("n"))],
        },
        VStmt::Unshare {
            resource: 0,
            into: "m".into(),
        },
    ];
    body.extend((0..outputs).map(|j| VStmt::Output(output(j as i64))));
    AnnotatedProgram::new(format!("{prefix}-{puts_per_iter}x{outputs}"))
        .with_resource(ResourceSpec::keyset_map())
        .with_body(body)
}

/// The `j`-th audit output of a [`reverify_programs`] workload: a
/// composite aggregate over the key-set abstraction (all low because the
/// domain is). The edit-loop bench rewrites the final one per edit.
pub fn audit_goal(j: i64) -> commcsl::prelude::Term {
    use commcsl::prelude::Term;
    use commcsl::pure::Func;
    let dom = || Term::app(Func::MapDom, [Term::var("m")]);
    let seq = || Term::app(Func::SetToSeq, [dom()]);
    Term::add(
        Term::add(
            Term::app(
                Func::Div,
                [
                    Term::mul(
                        Term::app(Func::SeqMean, [seq()]),
                        Term::app(Func::SetCard, [dom()]),
                    ),
                    Term::int(j + 1),
                ],
            ),
            Term::app(Func::SeqSum, [Term::app(Func::SeqTail, [seq()])]),
        ),
        Term::app(
            Func::Mod,
            [
                Term::app(Func::SeqSum, [seq()]),
                Term::add(Term::app(Func::SetCard, [dom()]), Term::int(j + 2)),
            ],
        ),
    )
}

/// Replays a recorded solver-event stream through a backend session,
/// returning the verdict of every `Check` event.
pub fn replay_trace(
    events: &[commcsl::verifier::SolverEvent],
    kind: commcsl::prelude::BackendKind,
) -> Vec<commcsl::prelude::Verdict> {
    use commcsl::verifier::SolverEvent;
    let mut session = kind.open_session(Default::default());
    let mut verdicts = Vec::new();
    for event in events {
        match event {
            SolverEvent::Push => session.push(),
            SolverEvent::Pop => session.pop(),
            SolverEvent::Assert(fact) => session.assert(fact.clone()),
            SolverEvent::Check { assumptions, goal } => {
                verdicts.push(session.check_assuming(assumptions.clone(), goal));
            }
        }
    }
    verdicts
}

/// Benchmarks the incremental solver backend against fresh-per-obligation
/// solving on the `top` obligation-heaviest workloads (Table 1 fixtures
/// plus the [`scale_programs`] stress programs, ranked by obligation
/// count), taking the median over `runs` interleaved replays per backend.
///
/// Each workload is the program's *recorded* solver interaction
/// ([`commcsl::verifier::solver_trace`]): identical event streams go to
/// both backends, so the comparison isolates the solving seam itself.
/// Correctness is pinned first: replayed verdict streams must agree, and
/// both backends (driven through the unified `Verifier` API) must produce
/// report JSON byte-identical to the legacy `verify` shim over the whole
/// corpus — the 18 fixtures, the rejected variants, and the stress
/// programs.
pub fn incremental_bench(runs: u32, top: usize) -> IncrementalBench {
    use commcsl::prelude::{BackendKind, VerifierConfig};
    use commcsl::verifier::{solver_trace, SolverEvent};
    use std::time::Instant;

    assert!(runs > 0, "need at least one run to take a median over");
    let fixtures = fixtures::all();
    let rejected = fixtures::rejected();
    let stress = scale_programs();

    // Correctness first: byte-identical reports across backends and the
    // legacy shim, over every program in the corpus. Each verifier runs
    // its backend for program obligations and spec validity alike.
    let on_backend = |backend| {
        let mut config = VerifierConfig {
            backend,
            ..VerifierConfig::default()
        };
        config.validity.backend = backend;
        Verifier::new().with_config(config).with_threads(1)
    };
    let fresh = on_backend(BackendKind::Fresh);
    let incremental = on_backend(BackendKind::Incremental);
    let mut identical = true;
    for program in fixtures
        .iter()
        .map(|f| &f.program)
        .chain(rejected.iter().map(|(_, p)| p))
        .chain(stress.iter())
    {
        let via_fresh = fresh.verify(program).report.to_json();
        let via_incremental = incremental.verify(program).report.to_json();
        let legacy = commcsl::verifier::verify(program, fresh.config()).to_json();
        identical &= via_fresh == via_incremental && via_fresh == legacy;
    }

    // Record every workload's solver stream and rank by obligation count.
    let config = incremental.config().clone();
    let mut workloads: Vec<(String, Vec<SolverEvent>)> = fixtures
        .iter()
        .map(|f| (f.name.to_owned(), solver_trace(&f.program, &config)))
        .chain(
            stress
                .iter()
                .map(|p| (p.name.clone(), solver_trace(p, &config))),
        )
        .collect();
    let checks =
        |events: &[SolverEvent]| events.iter().filter(|e| matches!(e, SolverEvent::Check { .. })).count();
    workloads.sort_by_key(|(name, events)| (std::cmp::Reverse(checks(events)), name.clone()));
    workloads.truncate(top.max(1));

    let rows = workloads
        .into_iter()
        .map(|(example, events)| {
            identical &= replay_trace(&events, BackendKind::Fresh)
                == replay_trace(&events, BackendKind::Incremental);
            let mut fresh_samples = Vec::with_capacity(runs as usize);
            let mut incremental_samples = Vec::with_capacity(runs as usize);
            // Interleave the backends so drift (thermal, cache) hits both.
            for _ in 0..runs {
                let start = Instant::now();
                let _ = replay_trace(&events, BackendKind::Fresh);
                fresh_samples.push(start.elapsed().as_secs_f64() * 1000.0);
                let start = Instant::now();
                let _ = replay_trace(&events, BackendKind::Incremental);
                incremental_samples.push(start.elapsed().as_secs_f64() * 1000.0);
            }
            IncrementalRow {
                checks: checks(&events),
                example,
                fresh_ms: median(&mut fresh_samples),
                incremental_ms: median(&mut incremental_samples),
            }
        })
        .collect::<Vec<_>>();

    let mut speedups: Vec<f64> = rows.iter().map(IncrementalRow::speedup).collect();
    IncrementalBench {
        rows,
        median_speedup: median(&mut speedups),
        identical,
    }
}

/// Renders the incremental bench as one JSON snapshot line for
/// `BENCH_table1.json`.
pub fn incremental_json(run: &IncrementalBench, runs: u32) -> String {
    let rows: Vec<String> = run
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"example\":{},\"checks\":{},\"fresh_ms\":{:.6},\
                 \"incremental_ms\":{:.6},\"speedup\":{:.3}}}",
                Json::str(&r.example),
                r.checks,
                r.fresh_ms,
                r.incremental_ms,
                r.speedup(),
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"incremental_solver\",\"runs\":{runs},\
         \"median_speedup\":{:.3},\"identical\":{},\"rows\":[{}]}}",
        run.median_speedup,
        run.identical,
        rows.join(","),
    )
}

// --------------------------------------------- incremental re-verification

/// One workload of the edit-loop benchmark: a [`reverify_programs`]
/// stress program opened cold in fresh
/// [`Workspace`](commcsl::verifier::workspace::Workspace)s, then
/// re-verified after a sequence of single-statement edits.
#[derive(Debug, Clone)]
pub struct ReverifyRow {
    /// Workload name.
    pub example: String,
    /// Proof obligations per revision.
    pub obligations: usize,
    /// Median wall-clock ms of a cold open (a fresh workspace each, so
    /// empty caches).
    pub cold_ms: f64,
    /// Median wall-clock ms per single-statement edit re-verification.
    pub edit_ms: f64,
    /// Obligations replayed from the obligation cache on the last edit.
    pub reused: usize,
    /// Obligations re-discharged by the solver on the last edit.
    pub checked: usize,
}

impl ReverifyRow {
    /// Cold-over-edit speedup for this workload.
    pub fn speedup(&self) -> f64 {
        self.cold_ms / self.edit_ms.max(f64::EPSILON)
    }
}

/// Results of the edit-loop benchmark.
#[derive(Debug, Clone)]
pub struct ReverifyBench {
    /// Per-workload rows.
    pub rows: Vec<ReverifyRow>,
    /// Median of the per-workload speedups.
    pub median_speedup: f64,
    /// Whether every incremental report (cold open and each edit) was
    /// byte-identical to cold whole-program verification.
    pub identical: bool,
}

/// A single-statement edit of a [`reverify_programs`] workload: the final audit
/// output's scaling constant changes (distinct per `k`, so every edit is
/// a new program revision). Everything before the last statement is
/// untouched — the canonical "fix the line I'm on" edit.
fn edit_last_output(
    program: &commcsl::verifier::AnnotatedProgram,
    k: i64,
) -> commcsl::verifier::AnnotatedProgram {
    use commcsl::prelude::VStmt;
    let mut edited = program.clone();
    let last = edited
        .body
        .last_mut()
        .expect("scale programs end with an audit output");
    *last = VStmt::Output(audit_goal(1000 + k));
    edited
}

/// Benchmarks the workspace edit loop on the [`reverify_programs`]
/// (`scale-map-report-*`): `edits` single-statement edits pushed through
/// one document's `update_document`, each re-discharging only the dirty
/// obligation cone, against `edits` cold `open_document`s, each in a
/// fresh workspace and interleaved with the edits. Both sides are
/// medians, so the ratio rests on no single sample such as the first
/// verify of the process. Byte-identity of every report against cold
/// whole-program verification is pinned before any number is reported.
pub fn reverify_bench(edits: u32) -> ReverifyBench {
    use commcsl::verifier::verify;
    use commcsl::verifier::workspace::{Workspace, WorkspaceConfig};
    use std::time::Instant;

    assert!(edits > 0, "need at least one edit to take a median over");
    let mut rows = Vec::new();
    let mut identical = true;
    for program in reverify_programs() {
        // The document every edit goes to.
        let mut ws = Workspace::new(WorkspaceConfig::default());
        let opened = ws.open_document("bench.csl", &program);
        identical &= opened.report.to_json() == verify(&program, ws.config()).to_json();

        let mut cold_samples = Vec::with_capacity(edits as usize);
        let mut edit_samples = Vec::with_capacity(edits as usize);
        let (mut reused, mut checked) = (0, 0);
        for k in 1..=edits {
            // One cold open in a fresh workspace per edit, interleaved so
            // that drift within the process moves both sides of the ratio.
            let mut fresh = Workspace::new(WorkspaceConfig::default());
            let started = Instant::now();
            let cold = fresh.open_document("bench.csl", &program);
            cold_samples.push(started.elapsed().as_secs_f64() * 1000.0);
            identical &= cold.report.to_json() == opened.report.to_json();
            drop(fresh);

            let edited = edit_last_output(&program, i64::from(k));
            let started = Instant::now();
            let outcome = ws
                .update_document("bench.csl", &edited)
                .expect("document is open");
            edit_samples.push(started.elapsed().as_secs_f64() * 1000.0);
            identical &= outcome.report.to_json() == verify(&edited, ws.config()).to_json();
            identical &= !outcome.report_cached; // every edit is a new revision
            reused = outcome.obligations.reused;
            checked = outcome.obligations.checked;
        }
        rows.push(ReverifyRow {
            example: program.name.clone(),
            obligations: opened.obligations.total,
            cold_ms: median(&mut cold_samples),
            edit_ms: median(&mut edit_samples),
            reused,
            checked,
        });
    }
    let mut speedups: Vec<f64> = rows.iter().map(ReverifyRow::speedup).collect();
    ReverifyBench {
        rows,
        median_speedup: median(&mut speedups),
        identical,
    }
}

/// Renders the edit-loop bench as one JSON snapshot line for
/// `BENCH_table1.json`.
pub fn reverify_json(run: &ReverifyBench, edits: u32) -> String {
    let rows: Vec<String> = run
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"example\":{},\"obligations\":{},\"cold_ms\":{:.6},\
                 \"edit_ms\":{:.6},\"reused\":{},\"checked\":{},\"speedup\":{:.3}}}",
                Json::str(&r.example),
                r.obligations,
                r.cold_ms,
                r.edit_ms,
                r.reused,
                r.checked,
                r.speedup(),
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"incremental_reverify\",\"edits\":{edits},\
         \"median_speedup\":{:.3},\"identical\":{},\"rows\":[{}]}}",
        run.median_speedup,
        run.identical,
        rows.join(","),
    )
}

// --------------------------------------------------- static pre-pass bench

/// One workload of the static-pre-pass benchmark.
#[derive(Debug, Clone)]
pub struct StaticPrepassRow {
    /// Workload name (`scale-map-report-*`).
    pub example: String,
    /// Total proof obligations.
    pub obligations: usize,
    /// Obligations the low-ness pre-pass discharged without the solver —
    /// i.e. solver checks avoided.
    pub statically_proven: usize,
    /// Median wall-clock ms with the pre-pass disabled (solver-only).
    pub solver_ms: f64,
    /// Median wall-clock ms with the pre-pass enabled (the default).
    pub prepass_ms: f64,
}

impl StaticPrepassRow {
    /// Fraction of obligations discharged statically.
    pub fn discharge_fraction(&self) -> f64 {
        self.statically_proven as f64 / (self.obligations as f64).max(1.0)
    }

    /// Wall-clock saved by the pre-pass (positive = faster with it on).
    pub fn delta_ms(&self) -> f64 {
        self.solver_ms - self.prepass_ms
    }
}

/// Results of the static-pre-pass benchmark.
#[derive(Debug, Clone)]
pub struct StaticPrepassBench {
    /// Per-workload rows.
    pub rows: Vec<StaticPrepassRow>,
    /// Minimum per-workload discharge fraction (the CI gate).
    pub min_discharge: f64,
    /// Whether every pre-pass report was byte-identical to the
    /// solver-only report of the same program.
    pub identical: bool,
}

/// Benchmarks the static low-ness pre-pass on the [`reverify_programs`]
/// (`scale-map-report-*`): each workload is verified `runs` times with
/// the pre-pass on and off, reporting solver checks avoided and the
/// wall-clock delta. Byte-identity of the two reports is pinned before
/// any number is reported.
pub fn static_prepass_bench(runs: u32) -> StaticPrepassBench {
    use commcsl::verifier::report::VerifierConfig;
    use commcsl::verifier::verify_with_stats;
    use std::time::Instant;

    assert!(runs > 0, "need at least one run to take a median over");
    let on = VerifierConfig::default();
    let off = VerifierConfig {
        static_prepass: false,
        ..VerifierConfig::default()
    };

    let mut rows = Vec::new();
    let mut identical = true;
    for program in reverify_programs() {
        let mut on_samples = Vec::with_capacity(runs as usize);
        let mut off_samples = Vec::with_capacity(runs as usize);
        let mut stats = None;
        for _ in 0..runs {
            let started = Instant::now();
            let (report_on, run_stats, _, _) = verify_with_stats(&program, &on);
            on_samples.push(started.elapsed().as_secs_f64() * 1000.0);

            let started = Instant::now();
            let (report_off, _, _, _) = verify_with_stats(&program, &off);
            off_samples.push(started.elapsed().as_secs_f64() * 1000.0);

            identical &= report_on.to_json() == report_off.to_json();
            stats = Some(run_stats);
        }
        let stats = stats.expect("runs > 0");
        rows.push(StaticPrepassRow {
            example: program.name.clone(),
            obligations: stats.total,
            statically_proven: stats.statically_proven,
            solver_ms: median(&mut off_samples),
            prepass_ms: median(&mut on_samples),
        });
    }
    let min_discharge = rows
        .iter()
        .map(StaticPrepassRow::discharge_fraction)
        .fold(f64::INFINITY, f64::min);
    StaticPrepassBench {
        rows,
        min_discharge,
        identical,
    }
}

/// Renders the static-pre-pass bench as one JSON snapshot line for
/// `BENCH_table1.json`.
pub fn static_prepass_json(run: &StaticPrepassBench, runs: u32) -> String {
    let rows: Vec<String> = run
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"example\":{},\"obligations\":{},\"statically_proven\":{},\
                 \"discharge_fraction\":{:.4},\"solver_ms\":{:.6},\
                 \"prepass_ms\":{:.6},\"delta_ms\":{:.6}}}",
                Json::str(&r.example),
                r.obligations,
                r.statically_proven,
                r.discharge_fraction(),
                r.solver_ms,
                r.prepass_ms,
                r.delta_ms(),
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"static_prepass\",\"runs\":{runs},\
         \"min_discharge\":{:.4},\"identical\":{},\"rows\":[{}]}}",
        run.min_discharge,
        run.identical,
        rows.join(","),
    )
}

/// Renders rows in the paper's table layout.
pub fn render_table(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<28} {:<20} {:>5} {:>5} {:>10}  {}\n",
        "Example", "Data structure", "Abstraction", "LOC", "Ann.", "T (ms)", "OK"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<26} {:<28} {:<20} {:>5} {:>5} {:>10.3}  {}\n",
            r.example,
            r.data_structure,
            r.abstraction,
            r.loc,
            r.annotations,
            r.time.as_secs_f64() * 1000.0,
            if r.verified { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_rows_and_everything_verifies() {
        let rows = table1_rows(1);
        assert_eq!(rows.len(), 18);
        assert!(rows.iter().all(|r| r.verified));
        let rendered = render_table(&rows);
        assert!(rendered.contains("Figure 3"));
        assert!(rendered.contains("Key set"));
    }

    #[test]
    fn parallel_rows_match_sequential_rows() {
        let sequential = table1_rows_parallel(1, 1);
        let parallel = table1_rows_parallel(1, 4);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.example, p.example);
            assert_eq!(s.verified, p.verified);
            assert_eq!(s.loc, p.loc);
            assert_eq!(s.annotations, p.annotations);
        }
    }

    #[test]
    fn json_snapshot_is_single_line_and_complete() {
        let rows = table1_rows(1);
        let json = table1_json(&rows, 1, 0);
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"bench\":\"table1\""));
        assert!(json.contains("\"all_verified\":true"));
        assert_eq!(json.matches("\"example\":").count(), 18);
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn snapshots_are_stamped_with_commit_and_host() {
        let path = std::env::temp_dir().join(format!(
            "commcsl-bench-snapshot-{}.json",
            std::process::id()
        ));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_snapshot(path, "{\"bench\":\"a\",\"runs\":1}").unwrap();
        append_snapshot(path, "{\"bench\":\"b\"}").unwrap();
        assert!(append_snapshot(path, "not json").is_err());
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("bench").and_then(Json::as_str), Some("a"));
        assert_eq!(lines[0].get("runs").and_then(Json::as_u64), Some(1));
        for line in &lines {
            let commit = line.get("commit").and_then(Json::as_str).unwrap();
            assert!(!commit.is_empty());
            let host = line.get("host").unwrap();
            assert!(host.get("name").and_then(Json::as_str).is_some());
            let cpus = host.get("available_parallelism").and_then(Json::as_u64);
            assert!(cpus.is_some());
        }
    }

    #[test]
    fn cold_warm_is_cached_and_identical() {
        let dir = std::env::temp_dir().join(format!(
            "commcsl-coldwarm-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let run = cold_warm_bench(0, &dir);
        assert_eq!(run.programs, 23); // 18 fixtures + 5 rejected variants
        assert!(run.identical, "cached verdicts must be byte-identical");
        assert!(run.fully_cached, "warm and restart passes must hit");
        let json = cold_warm_json(&run, 0);
        assert!(json.starts_with("{\"bench\":\"cold_warm\""));
        assert!(!json.contains('\n'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_bench_is_identical_and_ranked() {
        let run = incremental_bench(1, 3);
        assert!(run.identical, "backends must agree byte-for-byte");
        assert_eq!(run.rows.len(), 3);
        // Ranked by obligation count, heaviest first: the stress programs
        // outrank every paper fixture.
        assert!(run.rows[0].checks >= run.rows[1].checks);
        assert!(run.rows[0].example.starts_with("scale-"));
        let json = incremental_json(&run, 1);
        assert!(json.starts_with("{\"bench\":\"incremental_solver\""));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"median_speedup\":"));
        assert!(json.contains("\"identical\":true"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn reverify_bench_is_identical_and_reuses_all_but_the_edit() {
        let run = reverify_bench(2);
        assert!(run.identical, "incremental reports must be byte-identical");
        assert_eq!(run.rows.len(), 2);
        for row in &run.rows {
            // A last-statement edit re-checks exactly one obligation.
            assert_eq!(row.checked, 1, "{row:?}");
            assert_eq!(row.reused, row.obligations - 1, "{row:?}");
        }
        let json = reverify_json(&run, 2);
        assert!(json.starts_with("{\"bench\":\"incremental_reverify\""));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"identical\":true"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn scale_programs_verify_and_are_obligation_heavy() {
        for program in scale_programs() {
            let report =
                commcsl::verifier::verify(&program, &Default::default());
            assert!(report.verified(), "{}: {report}", program.name);
            assert!(
                report.obligations.len() >= 15,
                "{} is supposed to be obligation-heavy",
                program.name
            );
        }
    }
}
