//! The work-stealing pool behind
//! [`Verifier::verify_batch`](crate::api::Verifier::verify_batch).
//!
//! Verifying the Table 1 evaluation suite (and any future corpus of
//! annotated programs) is embarrassingly parallel: every program's
//! obligations are discharged independently, the verifier allocates its
//! solver state per call, and all inputs are immutable. [`run_pool`]
//! fans a batch out over a pool of OS threads (work-stealing via a
//! shared atomic cursor, so long-running programs do not stall the
//! queue) and returns one [`Outcome`] per program with its wall-clock
//! time, **in input order**. A one-worker pool, which is what every
//! one-program batch gets, runs on the calling thread: no thread is
//! spawned and the CPU count is not probed, so a single cold verify
//! costs only its proof.
//!
//! Determinism: the verifier is a pure function of `(program, config)`,
//! so batch results are identical to sequential
//! [`verify`](crate::symexec::verify) results regardless of thread count
//! or scheduling — a property pinned by unit tests here and by the
//! fixture-wide integration test (`tests/batch_parallel.rs` at the
//! workspace root).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use crate::api::Outcome;
use crate::program::AnnotatedProgram;

/// Verifies every program of `programs` on a pool of `workers` threads,
/// `job` verifying one program, and returns one [`Outcome`] per program,
/// in input order, with its index and time filled in.
///
/// Every worker runs one loop: claim the next unclaimed index from a
/// shared cursor until the batch is drained, keeping its own results. A
/// one-worker pool runs that loop on the calling thread, in input order;
/// larger pools run it on scoped threads. Sorting by index makes output
/// order input order whatever the interleaving was. With `fail_fast`,
/// once a report fails, programs not yet claimed come back
/// [`Outcome::skipped`].
pub(crate) fn run_pool(
    programs: &[&AnnotatedProgram],
    workers: usize,
    fail_fast: bool,
    job: impl Fn(&AnnotatedProgram) -> Outcome + Sync,
) -> Vec<Outcome> {
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&program) = programs.get(index) else {
                return done;
            };
            let outcome = if fail_fast && stop.load(Ordering::Relaxed) {
                Outcome::skipped(&program.name)
            } else {
                let start = Instant::now();
                let outcome = job(program);
                Outcome {
                    time: start.elapsed(),
                    ..outcome
                }
            };
            if fail_fast && !outcome.report.verified() {
                stop.store(true, Ordering::Relaxed);
            }
            done.push(Outcome { index, ..outcome });
        }
    };

    let mut results = match workers {
        0 | 1 => worker(),
        workers => thread::scope(|scope| {
            let workers: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .flat_map(|w| {
                    w.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        }),
    };
    results.sort_unstable_by_key(|r| r.index);
    results
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use commcsl_pure::{Sort, Term};

    use super::*;
    use crate::api::Verifier;
    use crate::program::VStmt;
    use crate::report::{VerifierConfig, VerifierReport};
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

    fn verify_batch(programs: &[AnnotatedProgram], verifier: Verifier) -> Vec<Outcome> {
        verifier.verify_batch(&programs.iter().collect::<Vec<_>>())
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(verify_batch(&[], Verifier::new()).is_empty());
    }

    #[test]
    fn batch_results_preserve_input_order() {
        let programs = sample_programs();
        let results = verify_batch(&programs, Verifier::new().with_threads(3));
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
            let results = verify_batch(&programs, Verifier::new().with_threads(threads));
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
    fn one_worker_pools_run_every_job_on_the_calling_thread_in_input_order() {
        let programs = sample_programs(); // [ok, leaky, trivial]
        let refs: Vec<&AnnotatedProgram> = programs.iter().collect();
        let caller = thread::current().id();
        // A one-worker pool over several programs, and a one-program batch
        // whose pool size would otherwise come from the CPU count.
        for (batch, threads) in [(&refs[..], 1), (&refs[..1], 0)] {
            for fail_fast in [false, true] {
                let workers = Verifier::new()
                    .with_threads(threads)
                    .effective_threads(batch.len());
                let ran = Mutex::new(Vec::new());
                let results = run_pool(batch, workers, fail_fast, |program| {
                    ran.lock()
                        .unwrap()
                        .push((thread::current().id(), program.name.clone()));
                    Verifier::new().verify(program)
                });
                // Fail-fast cuts right after the first failure (`leaky`).
                let dispatched = if fail_fast {
                    batch.len().min(2)
                } else {
                    batch.len()
                };
                let expected: Vec<_> = batch[..dispatched]
                    .iter()
                    .map(|p| (caller, p.name.clone()))
                    .collect();
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
        let results = verify_batch(
            &programs,
            Verifier::new().with_threads(1).with_fail_fast(true),
        );
        assert!(!results[0].skipped && results[0].report.verified());
        assert!(!results[1].skipped && !results[1].report.verified());
        assert!(results[2].skipped, "third program is never dispatched");
        assert!(
            !results[2].report.verified(),
            "skipped programs never count as verified"
        );
        assert!(results[2].report.errors[0].contains("fail-fast"));

        // Without fail-fast everything runs.
        let results = verify_batch(&programs, Verifier::new().with_threads(1));
        assert!(results.iter().all(|r| !r.skipped));
        assert!(results[2].report.verified());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let programs = sample_programs();
        let results = verify_batch(&programs, Verifier::new().with_threads(64));
        assert_eq!(results.len(), programs.len());
        assert!(results[0].report.verified());
        assert!(!results[1].report.verified());
    }
}
