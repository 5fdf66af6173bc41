//! The [`Verifier`]: the one way to verify a batch of programs.
//!
//! A verdict is a pure function of the annotated program and the
//! [`VerifierConfig`], so the thread pool and the verdict cache are only
//! routes to it. [`Verifier`] holds the configuration, the pool size, the
//! fail-fast policy and an optional cache, and every route answers with
//! the same [`Outcome`]:
//!
//! ```
//! use commcsl_verifier::api::Verifier;
//! use commcsl_verifier::program::{AnnotatedProgram, VStmt};
//! use commcsl_pure::{Sort, Term};
//!
//! let verifier = Verifier::new()
//!     .with_threads(2)
//!     .with_fail_fast(false);
//! let program = AnnotatedProgram::new("ok").with_body([
//!     VStmt::input("x", Sort::Int, true),
//!     VStmt::Output(Term::var("x")),
//! ]);
//! let outcome = verifier.verify(&program);
//! assert!(outcome.report.verified());
//! assert_eq!(outcome.cached, None, "no cache configured");
//! ```
//!
//! Without a cache, a batch runs on the work-stealing pool. Add
//! `.with_cache(..)` and hits are answered from the content-addressed
//! verdict cache while the misses run on the pool against its obligation
//! tier. Reports are byte-identical either way
//! (`outcome.report.to_json()` never depends on the route). The CLI, the
//! daemon and the benches all verify through this type; the engine
//! functions [`verify`](crate::symexec::verify) and
//! [`verify_with_stats`] stay as the
//! single-program reference every route is tested against.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use commcsl_smt::SessionStats;

use crate::batch::run_pool;
use crate::cache::{lock_cache, CacheConfig, CacheStats, SharedObligationStore, VerdictCache};
use crate::hash::{program_hash, ProgramHash};
use crate::obligation::DischargeStats;
use crate::program::AnnotatedProgram;
use crate::report::{VerifierConfig, VerifierReport};
use crate::symexec::{verify_incremental, verify_with_stats};

/// The outcome of one program verified through a [`Verifier`].
///
/// One shape whatever the route: uncached, a cache hit, or a cache miss.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in the input batch (0 for single-program calls).
    pub index: usize,
    /// Program name.
    pub program: String,
    /// The verification report (a placeholder when `skipped`).
    pub report: VerifierReport,
    /// Wall-clock time for this program (lookup or verification).
    pub time: Duration,
    /// `Some(true)` when served from the verdict cache, `Some(false)`
    /// when computed through a cache, `None` when no cache is configured.
    pub cached: Option<bool>,
    /// The content address, when a cache is configured.
    pub key: Option<ProgramHash>,
    /// How the obligations were discharged (static pre-pass vs. solver).
    /// Zeroed for a skipped program; `None` for a verdict served from
    /// the cache, which runs no discharge.
    pub stats: Option<DischargeStats>,
    /// Wall-clock settle time per obligation, in report order. Diagnostic
    /// payload only (nondeterministic); empty for a skipped program and
    /// for a verdict served from the cache.
    pub obligation_times: Vec<Duration>,
    /// Cumulative solver-session counters for this program's run
    /// (pushes, pops, asserts, checks, quiescence skips). Zeroed for a
    /// skipped program; `None` for a verdict that came through the cache
    /// (a hit runs no solver, and a miss's incremental discharge does
    /// not expose them). Diagnostic payload only — never enters reports
    /// or cache keys.
    pub session: Option<SessionStats>,
    /// `true` when fail-fast stopped the batch before this program ran.
    /// Its report is a placeholder that never counts as verified and is
    /// never cached.
    pub skipped: bool,
}

impl Outcome {
    /// An outcome carrying `report` and no payload, at index 0.
    fn new(report: VerifierReport) -> Outcome {
        Outcome {
            index: 0,
            program: report.program.clone(),
            report,
            time: Duration::ZERO,
            cached: None,
            key: None,
            stats: None,
            obligation_times: Vec::new(),
            session: None,
            skipped: false,
        }
    }

    /// The placeholder for a program that fail-fast kept from running.
    pub(crate) fn skipped(name: &str) -> Outcome {
        let report = VerifierReport {
            program: name.to_owned(),
            obligations: Vec::new(),
            errors: vec!["skipped: fail-fast stopped the batch after an earlier failure".into()],
            hints: Vec::new(),
        };
        Outcome {
            stats: Some(DischargeStats::default()),
            session: Some(SessionStats::default()),
            skipped: true,
            ..Outcome::new(report)
        }
    }
}

/// A configured verification pipeline: the per-program
/// [`VerifierConfig`], thread pool, fail-fast policy, and (optionally) a
/// verdict cache.
///
/// Construction is builder-style and cheap; [`Verifier::with_cache`]
/// creates the cache at once, and it is shared across calls (an
/// in-memory tier warms up across batches) and with every clone of the
/// verifier. The type is internally synchronized — share it, or clones
/// of it, across concurrent callers.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    config: VerifierConfig,
    threads: usize,
    fail_fast: bool,
    cache: Option<Arc<Mutex<VerdictCache>>>,
}

impl Verifier {
    /// A verifier with default configuration: incremental backend, one
    /// worker per CPU, no cache, no fail-fast.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Replaces the full per-program verifier configuration: solver
    /// backend and budgets, spec validity, the static pre-pass and the
    /// explanation knobs. The configuration is part of every cache key.
    #[must_use]
    pub fn with_config(mut self, config: VerifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker-pool size (`0` = one per available CPU).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Stops dispatching new programs once one has *failed*
    /// verification. Programs already in flight on other workers still
    /// finish; never-dispatched ones come back with [`Outcome`]'s
    /// `skipped` set. With one thread the cut is deterministic:
    /// everything after the first failure is skipped. Through a cache, hits are always answered, and
    /// a failing hit stops the misses after it from running.
    #[must_use]
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Routes verification through a new content-addressed verdict
    /// cache. Cache keys cover the configuration in force at each call,
    /// so a verdict is never served across configurations.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(Arc::new(Mutex::new(VerdictCache::new(cache))));
        self
    }

    /// The effective per-program configuration.
    pub fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// The verdict and obligation cache, when one is configured: the
    /// daemon hands it to every session's
    /// [`Workspace`](crate::workspace::Workspace) and chains its remote
    /// tier onto it, so a program verified through one surface answers
    /// the others.
    pub fn shared_cache(&self) -> Option<Arc<Mutex<VerdictCache>>> {
        self.cache.clone()
    }

    /// Cumulative cache counters, when a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let cache = self.cache.as_ref()?;
        Some(lock_cache(cache).stats())
    }

    /// The pool size for a batch of `jobs` programs: never zero, never
    /// more workers than jobs. A batch of at most one program gets one
    /// worker without probing the CPU count.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let requested = match self.threads {
            _ if jobs <= 1 => 1,
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        };
        requested.min(jobs).max(1)
    }

    /// Verifies one program.
    pub fn verify(&self, program: &AnnotatedProgram) -> Outcome {
        self.verify_batch(&[program]).remove(0)
    }

    /// Verifies a batch, in input order. Without a cache every program
    /// runs on the work-stealing pool, which verifies on the calling
    /// thread when it has one worker (always the case for a single
    /// program). With a cache, hits are answered at once and only the
    /// misses run on the pool. Verdicts are byte-identical whichever
    /// route served them.
    pub fn verify_batch(&self, programs: &[&AnnotatedProgram]) -> Vec<Outcome> {
        match &self.cache {
            None => self.run(programs, |program| {
                let (report, stats, obligation_times, session) =
                    verify_with_stats(program, &self.config);
                Outcome {
                    stats: Some(stats),
                    obligation_times,
                    session: Some(session),
                    ..Outcome::new(report)
                }
            }),
            Some(cache) => self.verify_cached(programs, cache),
        }
    }

    fn run(
        &self,
        programs: &[&AnnotatedProgram],
        job: impl Fn(&AnnotatedProgram) -> Outcome + Sync,
    ) -> Vec<Outcome> {
        run_pool(
            programs,
            self.effective_threads(programs.len()),
            self.fail_fast,
            job,
        )
    }

    /// The cached route: hits from either tier under one lock hold, then
    /// the misses verified once per distinct key with the lock released,
    /// stored, and merged back **in input order**.
    fn verify_cached(
        &self,
        programs: &[&AnnotatedProgram],
        cache: &Mutex<VerdictCache>,
    ) -> Vec<Outcome> {
        let keys: Vec<ProgramHash> = programs
            .iter()
            .map(|p| program_hash(p, &self.config))
            .collect();
        let through_cache = |index: usize, cached: bool, outcome: Outcome| Outcome {
            index,
            cached: Some(cached),
            key: Some(keys[index]),
            ..outcome
        };

        let mut results: Vec<Option<Outcome>> = {
            let mut cache = lock_cache(cache);
            keys.iter()
                .enumerate()
                .map(|(index, &key)| {
                    let start = Instant::now();
                    let report = cache.get(key)?;
                    let outcome = Outcome {
                        time: start.elapsed(),
                        ..Outcome::new(report)
                    };
                    Some(through_cache(index, true, outcome))
                })
                .collect()
        };
        let mut misses: Vec<usize> = (0..programs.len())
            .filter(|&slot| results[slot].is_none())
            .collect();

        // With fail-fast, a failing cache *hit* already stops dispatch:
        // every miss after the first failing hit stays unanswered here
        // and becomes a skipped placeholder below.
        if self.fail_fast {
            let first_failed_hit = results
                .iter()
                .flatten()
                .find(|r| !r.report.verified())
                .map(|r| r.index);
            if let Some(stop) = first_failed_hit {
                misses.retain(|&slot| slot < stop);
            }
        }

        // Verify the misses on the pool, lock released. Duplicate keys
        // within one batch are verified once; the extra occurrences are
        // served from the freshly computed verdicts (NOT from the cache,
        // whose LRU may already have evicted them).
        if !misses.is_empty() {
            let mut seen: HashSet<ProgramHash> = HashSet::new();
            let unique: Vec<usize> = misses
                .iter()
                .copied()
                .filter(|&slot| seen.insert(keys[slot]))
                .collect();
            let miss_programs: Vec<&AnnotatedProgram> =
                unique.iter().map(|&slot| programs[slot]).collect();
            let mut fresh: HashMap<ProgramHash, VerifierReport> = HashMap::new();
            for (&slot, outcome) in unique
                .iter()
                .zip(self.verify_batch_stored(&miss_programs, cache))
            {
                // A fail-fast placeholder is surfaced to the caller but
                // never cached — it is not a verdict.
                if !outcome.skipped {
                    lock_cache(cache).put(keys[slot], &outcome.report);
                    fresh.insert(keys[slot], outcome.report.clone());
                }
                results[slot] = Some(through_cache(slot, false, outcome));
            }
            for &slot in &misses {
                if let (None, Some(report)) = (&results[slot], fresh.get(&keys[slot])) {
                    results[slot] = Some(through_cache(slot, true, Outcome::new(report.clone())));
                }
            }
        }

        // What is still unanswered was kept from running by fail-fast:
        // after a failing hit, or a duplicate of a skipped miss.
        results
            .into_iter()
            .enumerate()
            .map(|(slot, outcome)| {
                outcome.unwrap_or_else(|| {
                    through_cache(slot, false, Outcome::skipped(&programs[slot].name))
                })
            })
            .collect()
    }

    /// Runs `programs` on the pool against `cache` as an
    /// [`ObligationStore`](crate::obligation::ObligationStore): each
    /// worker discharges its programs via [`verify_incremental`],
    /// replaying statuses whose dependency-cone keys hit the cache's
    /// obligation tier (memory, disk, or a chained remote tier) and
    /// recording every status it computes, for the batch and workspace
    /// surfaces alike. Reports are **byte-identical** to the uncached
    /// route — the incremental engine's core guarantee — whatever mix of
    /// hits and misses served them.
    fn verify_batch_stored(
        &self,
        programs: &[&AnnotatedProgram],
        cache: &Mutex<VerdictCache>,
    ) -> Vec<Outcome> {
        self.run(programs, |program| {
            let mut obligation_times = Vec::new();
            let (report, stats) = verify_incremental(
                program,
                &self.config,
                &mut SharedObligationStore(cache),
                &mut |event| obligation_times.push(event.time),
            );
            Outcome {
                stats: Some(stats),
                obligation_times,
                ..Outcome::new(report)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use commcsl_pure::{Sort, Term};

    use super::*;
    use crate::program::VStmt;
    use crate::symexec::verify;
    use crate::workspace::Workspace;

    fn ok_program(name: &str) -> AnnotatedProgram {
        AnnotatedProgram::new(name).with_body([
            VStmt::input("x", Sort::Int, true),
            VStmt::Output(Term::var("x")),
        ])
    }

    fn leaky_program(name: &str) -> AnnotatedProgram {
        AnnotatedProgram::new(name).with_body([
            VStmt::input("h", Sort::Int, false),
            VStmt::Output(Term::var("h")),
        ])
    }

    #[test]
    fn uncached_and_cached_routes_agree_byte_for_byte() {
        let ok = ok_program("api-ok");
        let leaky = leaky_program("api-leaky");
        let programs: Vec<&AnnotatedProgram> = vec![&ok, &leaky];

        let plain = Verifier::new().with_threads(2);
        let caching = Verifier::new()
            .with_threads(2)
            .with_cache(CacheConfig::memory_only(16));

        let direct: Vec<String> = programs
            .iter()
            .map(|p| verify(p, plain.config()).to_json())
            .collect();
        let uncached = plain.verify_batch(&programs);
        let cold = caching.verify_batch(&programs);
        let warm = caching.verify_batch(&programs);

        for (((d, u), c), w) in direct.iter().zip(&uncached).zip(&cold).zip(&warm) {
            assert_eq!(&u.report.to_json(), d);
            assert_eq!(&c.report.to_json(), d);
            assert_eq!(&w.report.to_json(), d);
            assert_eq!(c.key, w.key);
        }
        assert!(uncached
            .iter()
            .all(|o| o.cached.is_none() && o.key.is_none()));
        assert!(cold.iter().all(|o| o.cached == Some(false)));
        assert!(warm.iter().all(|o| o.cached == Some(true)));
        assert!(warm.iter().all(|o| o.key.is_some() && o.stats.is_none()));
        let stats = caching.cache_stats().expect("cache configured");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.memory_hits, 2);
        assert_eq!(stats.stores, 2);
        assert_eq!(plain.cache_stats(), None);
    }

    #[test]
    fn fail_fast_flows_through_both_routes() {
        let leaky = leaky_program("ff-a");
        let ok = ok_program("ff-b");
        let plain = Verifier::new().with_threads(1).with_fail_fast(true);
        let results = plain.verify_batch(&[&leaky, &ok]);
        assert!(!results[0].skipped && !results[0].report.verified());
        assert!(results[1].skipped);

        // Each case runs on a fresh one-thread memory cache and names the
        // `(cached, skipped)` every slot must come back with.
        let case = |batch: &[&AnnotatedProgram], expected: &[(bool, bool)]| {
            let caching = Verifier::new()
                .with_threads(1)
                .with_fail_fast(true)
                .with_cache(CacheConfig::memory_only(16));
            let results = caching.verify_batch(batch);
            let seen: Vec<(bool, bool)> = results
                .iter()
                .map(|o| (o.cached == Some(true), o.skipped))
                .collect();
            assert_eq!(seen, expected);
            for (outcome, program) in results.iter().zip(batch) {
                assert_eq!(outcome.key, Some(program_hash(program, caching.config())));
                if !outcome.skipped {
                    assert_eq!(
                        outcome.report.to_json(),
                        verify(program, caching.config()).to_json()
                    );
                }
            }
            // A skipped program was never cached: verifying it alone
            // misses, and verifies.
            let solo = caching.verify(&ok);
            let ok_ran = expected
                .iter()
                .zip(batch)
                .any(|(&(_, skipped), p)| p.name == ok.name && !skipped);
            assert_eq!(solo.cached, Some(ok_ran), "skip must not be cached");
            assert!(solo.report.verified());
            // The failing program's verdict *was* cached, and a failing
            // hit stops the misses after it.
            let again = caching.verify_batch(&[&leaky, &ok_program("ff-c")]);
            assert_eq!(again[0].cached, Some(true));
            assert!(again[1].skipped && again[1].cached == Some(false));
        };
        // The miss after a failing miss is skipped, and never cached.
        case(&[&leaky, &ok], &[(false, false), (false, true)]);
        // A skipped miss and its duplicate: both skipped, uncached.
        case(
            &[&leaky, &ok, &ok],
            &[(false, false), (false, true), (false, true)],
        );
        // The duplicate is served from the batch's own fresh verdict.
        case(
            &[&ok, &leaky, &ok],
            &[(false, false), (false, false), (true, false)],
        );
    }

    #[test]
    fn effective_threads_is_clamped() {
        let pool = |threads: usize, jobs: usize| {
            Verifier::new()
                .with_threads(threads)
                .effective_threads(jobs)
        };
        assert_eq!(pool(16, 3), 3);
        assert_eq!(pool(2, 3), 2);
        assert!(pool(0, 100) >= 1);
        assert_eq!(pool(4, 0), 1);
        assert_eq!(pool(0, 1), 1);
    }

    #[test]
    fn stored_batch_is_byte_identical_and_replays_on_the_second_run() {
        // Low inputs into a shared counter: spec-validity obligations too.
        let counter = AnnotatedProgram::new("stored-counter")
            .with_resource(commcsl_logic::spec::ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::Share {
                    resource: 0,
                    init: Term::int(0),
                },
                VStmt::Par {
                    workers: vec![
                        vec![VStmt::atomic(0, "Add", Term::var("a"))],
                        vec![VStmt::atomic(0, "Add", Term::int(2))],
                    ],
                },
                VStmt::Unshare {
                    resource: 0,
                    into: "total".into(),
                },
                VStmt::Output(Term::var("total")),
            ]);
        let ok = ok_program("stored-ok");
        let leaky = leaky_program("stored-leaky");
        let refs: Vec<&AnnotatedProgram> = vec![&counter, &leaky, &ok];
        let plain = Verifier::new().with_threads(2).verify_batch(&refs);
        let cache = Mutex::new(VerdictCache::new(CacheConfig::memory_only(64)));
        let stored = Verifier::new()
            .with_threads(2)
            .verify_batch_stored(&refs, &cache);
        for (p, s) in plain.iter().zip(&stored) {
            assert_eq!(
                p.report.to_json(),
                s.report.to_json(),
                "stored pool must not change report bytes"
            );
        }
        // A second stored run replays every obligation from the tier.
        let again = Verifier::new()
            .with_threads(1)
            .verify_batch_stored(&refs, &cache);
        for (p, s) in plain.iter().zip(&again) {
            assert_eq!(p.report.to_json(), s.report.to_json());
            let stats = s.stats.expect("a verified miss carries its stats");
            assert_eq!(stats.reused, stats.total, "{}", s.program);
            assert_eq!(stats.checked, 0, "{}", s.program);
        }
        let stats = cache.lock().unwrap().stats();
        assert!(stats.obligation_stores > 0);
        assert!(stats.obligation_hits > 0);
        assert_eq!(stats.remote_hits, 0, "no remote tier chained");
    }

    #[test]
    fn duplicate_keys_survive_immediate_lru_eviction() {
        // Regression: with a capacity-1 memory tier and no disk tier,
        // verifying [A, B, A] evicts A's fresh verdict before the
        // duplicate slot is served; the duplicate must be answered from
        // the batch's own results, not the (already-evicted) cache.
        let verifier = Verifier::new()
            .with_threads(1)
            .with_cache(CacheConfig::memory_only(1));
        let a = ok_program("dup-a");
        let b = ok_program("dup-b");
        let results = verifier.verify_batch(&[&a, &b, &a]);
        assert_eq!(results.len(), 3);
        assert!(results[0].cached == Some(false) && results[1].cached == Some(false));
        assert_eq!(
            results[2].cached,
            Some(true),
            "duplicate slot is served, not recomputed"
        );
        assert_eq!(results[0].key, results[2].key);
        assert_eq!(results[0].report.to_json(), results[2].report.to_json());
    }

    #[test]
    fn a_poisoned_cache_keeps_serving_byte_identical_reports() {
        let verifier = Verifier::new()
            .with_threads(1)
            .with_cache(CacheConfig::memory_only(16));
        let shared = verifier.shared_cache().expect("cache configured");
        let held = Arc::clone(&shared);
        let panicked = std::thread::spawn(move || {
            let _guard = held.lock().unwrap();
            panic!("a session panics while holding the cache");
        })
        .join();
        assert!(panicked.is_err() && shared.is_poisoned());

        let ok = ok_program("poison-ok");
        let leaky = leaky_program("poison-leaky");
        let direct = |p: &AnnotatedProgram| verify(p, verifier.config()).to_json();
        for cached in [false, true] {
            let outcomes = verifier.verify_batch(&[&ok, &leaky]);
            for (outcome, program) in outcomes.iter().zip([&ok, &leaky]) {
                assert_eq!(outcome.cached, Some(cached));
                assert_eq!(outcome.report.to_json(), direct(program));
            }
        }
        let mut workspace = Workspace::with_shared_cache(verifier.config().clone(), shared);
        let hit = workspace.open_document("leaky", &leaky);
        assert!(hit.report_cached);
        assert_eq!(hit.report.to_json(), direct(&leaky));
        let renamed = ok_program("poison-renamed");
        let miss = workspace.open_document("renamed", &renamed);
        assert!(!miss.report_cached);
        assert_eq!(miss.report.to_json(), direct(&renamed));
        let stats = verifier.cache_stats().expect("cache configured");
        assert_eq!(stats, workspace.cache_stats());
        assert_eq!((stats.memory_hits, stats.misses, stats.stores), (3, 3, 3));
    }

    #[test]
    fn a_disk_dir_that_cannot_be_created_leaves_a_memory_only_cache() {
        let file = std::env::temp_dir().join(format!(
            "commcsl-api-not-a-directory-{}",
            std::process::id()
        ));
        std::fs::write(&file, "a file, not a directory").unwrap();
        let verifier = Verifier::new()
            .with_threads(1)
            .with_cache(CacheConfig::persistent(file.join("cache")));
        let ok = ok_program("no-disk-ok");
        let leaky = leaky_program("no-disk-leaky");
        for cached in [false, true] {
            let outcomes = verifier.verify_batch(&[&ok, &leaky]);
            for (outcome, program) in outcomes.iter().zip([&ok, &leaky]) {
                assert_eq!(outcome.cached, Some(cached));
                assert_eq!(
                    outcome.report.to_json(),
                    verify(program, verifier.config()).to_json()
                );
            }
        }
        let stats = verifier.cache_stats().expect("cache configured");
        assert_eq!((stats.memory_hits, stats.disk_hits), (2, 0));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn same_body_different_name_is_a_different_address() {
        let verifier = Verifier::new().with_cache(CacheConfig::memory_only(64));
        let a = verifier.verify(&ok_program("name-a"));
        let b = verifier.verify(&ok_program("name-b"));
        assert_ne!(a.key, b.key);
        assert_eq!(
            b.cached,
            Some(false),
            "a renamed program must not hit a's verdict"
        );
    }
}
