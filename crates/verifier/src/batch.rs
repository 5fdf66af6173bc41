//! Parallel batch verification.
//!
//! Verifying the Table 1 evaluation suite (and any future corpus of
//! annotated programs) is embarrassingly parallel: every program's
//! obligations are discharged independently, the verifier allocates its
//! solver state per call, and all inputs are immutable. This module
//! exploits that: [`verify_batch`] fans a batch of programs out over a
//! configurable pool of OS threads (work-stealing via a shared atomic
//! cursor, so long-running programs do not stall the queue) and returns
//! per-program reports with wall-clock timings, **in input order**. A
//! one-worker pool, which is what every one-program batch gets, runs on
//! the calling thread: no thread is spawned and the CPU count is not
//! probed, so a single cold verify costs only its proof.
//!
//! Determinism: the verifier is a pure function of `(program, config)`,
//! so batch results are identical to sequential [`verify`] results
//! regardless of thread count or scheduling — a property pinned by unit
//! tests here and by the fixture-wide integration test
//! (`tests/batch_parallel.rs` at the workspace root).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use commcsl_smt::SessionStats;

use crate::obligation::DischargeStats;
use crate::program::AnnotatedProgram;
use crate::report::{VerifierConfig, VerifierReport};
use crate::symexec::verify_with_stats;

/// Configuration for a batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {
    /// Worker threads. `0` (the default) means one per available CPU.
    pub threads: usize,
    /// The per-program verifier configuration.
    pub verifier: VerifierConfig,
    /// Stop dispatching new programs once one has *failed* verification.
    /// Programs already in flight on other workers still finish;
    /// never-dispatched programs come back with
    /// [`BatchResult::skipped`] set. With `threads: 1` the cut is
    /// deterministic: everything after the first failure is skipped.
    pub fail_fast: bool,
}

impl BatchConfig {
    /// A batch configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        BatchConfig { threads, ..Default::default() }
    }

    /// The effective pool size for a batch of `jobs` programs: never
    /// zero, never more threads than jobs. A batch of at most one program
    /// gets one worker without probing the CPU count.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let requested = match self.threads {
            _ if jobs <= 1 => 1,
            0 => thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        };
        requested.min(jobs).max(1)
    }
}

/// The outcome of verifying one program of a batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Position of the program in the input batch.
    pub index: usize,
    /// Program name (copied from the input for convenient reporting).
    pub program: String,
    /// The full verification report. For a skipped program this is a
    /// placeholder (no obligations, one explanatory error) that never
    /// counts as verified and must never be cached.
    pub report: VerifierReport,
    /// Wall-clock time spent verifying this program.
    pub time: Duration,
    /// How the obligations were discharged (solver vs. static pre-pass).
    /// Zeroed for skipped programs.
    pub stats: DischargeStats,
    /// Wall-clock settle time per obligation, in report order. Diagnostic
    /// payload only (nondeterministic); empty for skipped programs.
    pub obligation_times: Vec<Duration>,
    /// Cumulative solver-session counters for this program's run
    /// (pushes, pops, asserts, checks, quiescence skips). Diagnostic
    /// payload only — never enters reports or cache keys. Zeroed for
    /// skipped programs.
    pub session: SessionStats,
    /// `true` when fail-fast stopped the batch before this program was
    /// dispatched; its `report` is a placeholder, not a verdict.
    pub skipped: bool,
}

/// The placeholder report for a program skipped by fail-fast.
pub(crate) fn skipped_report(name: &str) -> VerifierReport {
    VerifierReport {
        program: name.to_owned(),
        obligations: Vec::new(),
        errors: vec!["skipped: fail-fast stopped the batch after an earlier failure".into()],
        hints: Vec::new(),
    }
}

/// Verifies every program of `programs` across a thread pool and returns
/// one [`BatchResult`] per program, in input order.
///
/// The pool has [`BatchConfig::effective_threads`] workers. With one
/// worker (`threads: 1`, or any batch of one program) the programs are
/// verified on the calling thread, in input order.
///
/// Results are bit-identical to calling [`verify`] sequentially with
/// `config.verifier` (only the `time` field varies run to run).
///
/// # Example
///
/// ```
/// use commcsl_verifier::batch::{verify_batch, BatchConfig};
/// use commcsl_verifier::program::AnnotatedProgram;
///
/// let programs = vec![AnnotatedProgram::new("a"), AnnotatedProgram::new("b")];
/// let results = verify_batch(&programs, &BatchConfig::with_threads(2));
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].program, "a");
/// assert_eq!(results[1].program, "b");
/// ```
pub fn verify_batch(
    programs: &[AnnotatedProgram],
    config: &BatchConfig,
) -> Vec<BatchResult> {
    verify_batch_ref(&programs.iter().collect::<Vec<_>>(), config)
}

/// [`verify_batch`] over borrowed programs, for callers whose programs
/// live inside larger structures (e.g. fixtures).
pub fn verify_batch_ref(
    programs: &[&AnnotatedProgram],
    config: &BatchConfig,
) -> Vec<BatchResult> {
    run_pool(programs, config, |program| {
        verify_with_stats(program, &config.verifier)
    })
}

/// [`verify_batch_ref`] with a shared [`VerdictCache`] threaded through
/// the pool as an [`ObligationStore`](crate::obligation::ObligationStore):
/// each worker discharges its programs via
/// [`verify_incremental`](crate::symexec::verify_incremental), replaying
/// statuses whose dependency-cone keys hit the cache's obligation tier
/// (memory, disk, or a chained remote tier) and recording every status it
/// computes. Reports are **byte-identical** to [`verify_batch_ref`] —
/// the incremental engine's core guarantee — whatever mix of hits and
/// misses served them; only `session` counters are zeroed (the
/// incremental path does not expose them).
pub fn verify_batch_stored(
    programs: &[&AnnotatedProgram],
    config: &BatchConfig,
    cache: &Mutex<crate::cache::VerdictCache>,
) -> Vec<BatchResult> {
    run_pool(programs, config, |program| {
        let mut store = crate::cache::SharedObligationStore(cache);
        let mut obligation_times = Vec::new();
        let (report, stats) = crate::symexec::verify_incremental(
            program,
            &config.verifier,
            &mut store,
            &mut |event| obligation_times.push(event.time),
        );
        (report, stats, obligation_times, SessionStats::default())
    })
}

/// The shared work-stealing pool behind [`verify_batch_ref`] and
/// [`verify_batch_stored`]: `job` verifies one program and returns the
/// report plus its diagnostic payloads.
///
/// Every worker runs one loop: claim the next unclaimed index from a
/// shared cursor until the batch is drained, keeping its own results. A
/// one-worker pool runs that loop on the calling thread; larger pools run
/// it on scoped threads. Sorting by index makes output order input order
/// whatever the interleaving was.
fn run_pool(
    programs: &[&AnnotatedProgram],
    config: &BatchConfig,
    job: impl Fn(&AnnotatedProgram) -> (VerifierReport, DischargeStats, Vec<Duration>, SessionStats)
        + Sync,
) -> Vec<BatchResult> {
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&program) = programs.get(index) else {
                return done;
            };
            let skipped = config.fail_fast && stop.load(Ordering::Relaxed);
            let start = Instant::now();
            let (report, stats, obligation_times, session) = if skipped {
                let report = skipped_report(&program.name);
                (report, DischargeStats::default(), Vec::new(), SessionStats::default())
            } else {
                job(program)
            };
            let time = if skipped { Duration::ZERO } else { start.elapsed() };
            if config.fail_fast && !report.verified() {
                stop.store(true, Ordering::Relaxed);
            }
            done.push(BatchResult {
                index,
                program: program.name.clone(),
                report,
                time,
                stats,
                obligation_times,
                session,
                skipped,
            });
        }
    };

    let mut results = match config.effective_threads(programs.len()) {
        1 => worker(),
        threads => thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        }),
    };
    results.sort_unstable_by_key(|r| r.index);
    results
}

#[cfg(test)]
mod tests {
    use commcsl_pure::{Sort, Term};

    use super::*;
    use crate::program::VStmt;
    use crate::symexec::verify;

    /// A small, genuinely verifying program (low inputs into a shared
    /// counter), plus a failing one (outputs a high input directly).
    fn sample_programs() -> Vec<AnnotatedProgram> {
        let ok = AnnotatedProgram::new("batch-ok")
            .with_resource(commcsl_logic::spec::ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::Share { resource: 0, init: Term::int(0) },
                VStmt::Par {
                    workers: vec![
                        vec![VStmt::atomic(0, "Add", Term::var("a"))],
                        vec![VStmt::atomic(0, "Add", Term::int(2))],
                    ],
                },
                VStmt::Unshare { resource: 0, into: "total".into() },
                VStmt::Output(Term::var("total")),
            ]);
        let leaky = AnnotatedProgram::new("batch-leaky")
            .with_body([
                VStmt::input("h", Sort::Int, false),
                VStmt::Output(Term::var("h")),
            ]);
        vec![ok, leaky, ok_clone_with_name()]
    }

    fn ok_clone_with_name() -> AnnotatedProgram {
        AnnotatedProgram::new("batch-trivial").with_body([
            VStmt::input("x", Sort::Int, true),
            VStmt::Output(Term::var("x")),
        ])
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(verify_batch(&[], &BatchConfig::default()).is_empty());
    }

    #[test]
    fn batch_results_preserve_input_order() {
        let programs = sample_programs();
        let results = verify_batch(&programs, &BatchConfig::with_threads(3));
        let names: Vec<&str> = results.iter().map(|r| r.program.as_str()).collect();
        assert_eq!(names, vec!["batch-ok", "batch-leaky", "batch-trivial"]);
        assert_eq!(
            results.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn batch_agrees_with_sequential_for_any_thread_count() {
        let programs = sample_programs();
        let sequential: Vec<VerifierReport> = programs
            .iter()
            .map(|p| verify(p, &VerifierConfig::default()))
            .collect();
        for threads in [1, 2, 3, 8] {
            let results = verify_batch(&programs, &BatchConfig::with_threads(threads));
            assert_eq!(results.len(), sequential.len());
            for (batch, seq) in results.iter().zip(&sequential) {
                assert_eq!(batch.report.verified(), seq.verified(), "threads={threads}");
                assert_eq!(
                    batch.report.obligations.len(),
                    seq.obligations.len(),
                    "threads={threads}"
                );
                assert_eq!(batch.report.errors, seq.errors, "threads={threads}");
            }
        }
    }

    #[test]
    fn effective_threads_is_clamped() {
        assert_eq!(BatchConfig::with_threads(16).effective_threads(3), 3);
        assert_eq!(BatchConfig::with_threads(2).effective_threads(3), 2);
        assert!(BatchConfig::with_threads(0).effective_threads(100) >= 1);
        assert_eq!(BatchConfig::with_threads(4).effective_threads(0), 1);
        assert_eq!(BatchConfig::with_threads(0).effective_threads(1), 1);
    }

    #[test]
    fn one_worker_pools_run_every_job_on_the_calling_thread_in_input_order() {
        let programs = sample_programs(); // [ok, leaky, trivial]
        let refs: Vec<&AnnotatedProgram> = programs.iter().collect();
        let caller = thread::current().id();
        // A one-worker pool over several programs, and a one-program batch
        // whose pool size would otherwise come from the CPU count.
        for (batch, threads) in [(&refs[..], 1), (&refs[..1], 0)] {
            for fail_fast in [false, true] {
                let mut config = BatchConfig::with_threads(threads);
                config.fail_fast = fail_fast;
                let ran = Mutex::new(Vec::new());
                let results = run_pool(batch, &config, |program| {
                    ran.lock().unwrap().push((thread::current().id(), program.name.clone()));
                    verify_with_stats(program, &config.verifier)
                });
                // Fail-fast cuts right after the first failure (`leaky`).
                let dispatched = if fail_fast { batch.len().min(2) } else { batch.len() };
                let expected: Vec<_> =
                    batch[..dispatched].iter().map(|p| (caller, p.name.clone())).collect();
                assert_eq!(ran.into_inner().unwrap(), expected, "threads={threads}");
                assert_eq!(results.len(), batch.len());
                for (index, (result, program)) in results.iter().zip(batch).enumerate() {
                    assert_eq!((result.index, &result.program), (index, &program.name));
                    assert_eq!(result.skipped, index >= dispatched, "{}", result.program);
                }
            }
        }
    }

    #[test]
    fn fail_fast_skips_programs_after_the_first_failure() {
        let programs = sample_programs(); // [ok, leaky, trivial]
        let mut config = BatchConfig::with_threads(1);
        config.fail_fast = true;
        let results = verify_batch(&programs, &config);
        assert!(!results[0].skipped && results[0].report.verified());
        assert!(!results[1].skipped && !results[1].report.verified());
        assert!(results[2].skipped, "third program is never dispatched");
        assert!(
            !results[2].report.verified(),
            "skipped programs never count as verified"
        );
        assert!(results[2].report.errors[0].contains("fail-fast"));

        // Without fail-fast everything runs.
        let results = verify_batch(&programs, &BatchConfig::with_threads(1));
        assert!(results.iter().all(|r| !r.skipped));
        assert!(results[2].report.verified());
    }

    #[test]
    fn stored_batch_is_byte_identical_and_replays_on_the_second_run() {
        use crate::cache::{CacheConfig, VerdictCache};

        let programs = sample_programs();
        let refs: Vec<&AnnotatedProgram> = programs.iter().collect();
        let plain = verify_batch_ref(&refs, &BatchConfig::with_threads(2));
        let cache = Mutex::new(VerdictCache::new(CacheConfig::memory_only(64)));
        let stored = verify_batch_stored(&refs, &BatchConfig::with_threads(2), &cache);
        for (p, s) in plain.iter().zip(&stored) {
            assert_eq!(
                p.report.to_json(),
                s.report.to_json(),
                "stored pool must not change report bytes"
            );
        }
        // A second stored run replays every obligation from the tier.
        let again = verify_batch_stored(&refs, &BatchConfig::with_threads(1), &cache);
        for (p, s) in plain.iter().zip(&again) {
            assert_eq!(p.report.to_json(), s.report.to_json());
            assert_eq!(s.stats.reused, s.stats.total, "{}", s.program);
            assert_eq!(s.stats.checked, 0, "{}", s.program);
        }
        let stats = cache.lock().unwrap().stats();
        assert!(stats.obligation_stores > 0);
        assert!(stats.obligation_hits > 0);
        assert_eq!(stats.remote_hits, 0, "no remote tier chained");
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let programs = sample_programs();
        let results = verify_batch(&programs, &BatchConfig::with_threads(64));
        assert_eq!(results.len(), programs.len());
        assert!(results[0].report.verified());
        assert!(!results[1].report.verified());
    }
}
