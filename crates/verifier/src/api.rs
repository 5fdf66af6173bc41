//! The unified [`Verifier`] session API.
//!
//! Historically this crate exposed three separate entry points — the
//! free functions [`verify`](crate::symexec::verify) and
//! [`verify_batch`](crate::batch::verify_batch), and the
//! [`CachedVerifier`] wrapper — each with its own configuration shape.
//! [`Verifier`] unifies them behind one builder:
//!
//! ```
//! use commcsl_verifier::api::Verifier;
//! use commcsl_verifier::program::{AnnotatedProgram, VStmt};
//! use commcsl_pure::{Sort, Term};
//! use commcsl_smt::BackendKind;
//!
//! let verifier = Verifier::new()
//!     .with_backend(BackendKind::Incremental)
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
//! Add `.with_cache(..)` and the same calls route through the
//! content-addressed verdict cache; reports stay byte-identical either
//! way (`outcome.report.to_json()` never depends on the route). The CLI,
//! the daemon, and the benches all build their pipelines through this
//! type, so every consumer renders the same structured diagnostics.
//!
//! The old free functions remain as thin shims for existing callers and
//! tests; new code should not use them.

use std::sync::OnceLock;
use std::time::Duration;

use commcsl_smt::{BackendKind, SessionStats};

use crate::batch::{verify_batch_ref, BatchConfig, BatchResult};
use crate::cache::{CacheConfig, CacheStats, CachedResult, CachedVerifier};
use crate::hash::ProgramHash;
use crate::obligation::DischargeStats;
use crate::program::AnnotatedProgram;
use crate::report::{VerifierConfig, VerifierReport};

/// The outcome of one program verified through a [`Verifier`].
///
/// One shape whatever the route: direct, batched, or cached.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in the input batch (0 for single-program calls).
    pub index: usize,
    /// Program name.
    pub program: String,
    /// The verification report (a placeholder when `skipped`).
    pub report: VerifierReport,
    /// Wall-clock time for this program.
    pub time: Duration,
    /// `Some(true)` when served from the verdict cache, `Some(false)`
    /// when computed through a cache, `None` when no cache is configured.
    pub cached: Option<bool>,
    /// The content address, when a cache is configured.
    pub key: Option<ProgramHash>,
    /// How the obligations were discharged (static pre-pass vs. solver).
    /// `None` on the cached route, where whole-program verdicts are
    /// served from the store without re-running the discharge pipeline.
    pub stats: Option<DischargeStats>,
    /// Wall-clock settle time per obligation, in report order. Diagnostic
    /// payload only (nondeterministic); empty on the cached route.
    pub obligation_times: Vec<Duration>,
    /// Cumulative solver-session counters for this program's run
    /// (pushes, pops, asserts, checks, quiescence skips). `None` on the
    /// cached route, where the solver never runs. Diagnostic payload
    /// only — never enters reports or cache keys.
    pub session: Option<SessionStats>,
    /// `true` when fail-fast stopped the batch before this program ran.
    pub skipped: bool,
}

/// A configured verification pipeline: backend choice, solver budgets,
/// thread pool, fail-fast policy, and (optionally) a verdict cache, built
/// once and reused across calls.
///
/// Construction is builder-style and cheap; the cache (when configured)
/// is created lazily on first use and shared across calls, so an
/// in-memory tier warms up across batches. The type is internally
/// synchronized — share it behind an `Arc` from concurrent callers.
#[derive(Debug, Default)]
pub struct Verifier {
    batch: BatchConfig,
    cache: Option<CacheConfig>,
    cached: OnceLock<CachedVerifier>,
}

impl Verifier {
    /// A verifier with default configuration: incremental backend, one
    /// worker per CPU, no cache, no fail-fast.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Replaces the full per-program verifier configuration.
    #[must_use]
    pub fn with_config(mut self, config: VerifierConfig) -> Self {
        assert_unused(&self.cached, "with_config");
        self.batch.verifier = config;
        self
    }

    /// Selects the solver backend for *both* program obligations and
    /// specification-validity checking.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        assert_unused(&self.cached, "with_backend");
        self.batch.verifier.backend = backend;
        self.batch.verifier.validity.backend = backend;
        self
    }

    /// Sets the worker-pool size (`0` = one per available CPU).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert_unused(&self.cached, "with_threads");
        self.batch.threads = threads;
        self
    }

    /// Enables or disables fail-fast batch dispatch (see
    /// [`BatchConfig::fail_fast`]).
    #[must_use]
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        assert_unused(&self.cached, "with_fail_fast");
        self.batch.fail_fast = fail_fast;
        self
    }

    /// Routes verification through a content-addressed verdict cache.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        assert_unused(&self.cached, "with_cache");
        self.cache = Some(cache);
        self
    }

    /// Enables or disables the sound static low-ness pre-pass (on by
    /// default). Verdicts and reports are byte-identical either way; the
    /// knob only changes *how* obligations are discharged, and it is part
    /// of the content hash so cached verdicts never cross the setting.
    #[must_use]
    pub fn with_static_prepass(mut self, enabled: bool) -> Self {
        assert_unused(&self.cached, "with_static_prepass");
        self.batch.verifier.static_prepass = enabled;
        self
    }

    /// Enables delta-debugging minimization of counterexamples (off by
    /// default). When on, every falsified obligation's environment is
    /// shrunk to a minimal fact cone that still falsifies, so hovers and
    /// reports show the two or three bindings that exhibit the leak. The
    /// knob is part of the content hash — cached verdicts never cross the
    /// setting — and reports with it off stay byte-identical to builds
    /// that predate it.
    #[must_use]
    pub fn with_minimized_counterexamples(mut self, enabled: bool) -> Self {
        assert_unused(&self.cached, "with_minimized_counterexamples");
        self.batch.verifier.minimize_counterexamples = enabled;
        self
    }

    /// Enables proof-core tracking (off by default). When on, every
    /// proved obligation records which asserted facts its proof can have
    /// used, and the report aggregates per-program "unneeded annotation"
    /// hints. Part of the content hash, like
    /// [`with_minimized_counterexamples`](Self::with_minimized_counterexamples);
    /// reports with it off are byte-identical to builds that predate it.
    #[must_use]
    pub fn with_proof_cores(mut self, enabled: bool) -> Self {
        assert_unused(&self.cached, "with_proof_cores");
        self.batch.verifier.proof_cores = enabled;
        self
    }

    /// The effective per-program configuration.
    pub fn config(&self) -> &VerifierConfig {
        &self.batch.verifier
    }

    /// The effective batch configuration.
    pub fn batch_config(&self) -> &BatchConfig {
        &self.batch
    }

    /// Verifies one program.
    pub fn verify(&self, program: &AnnotatedProgram) -> Outcome {
        self.verify_batch(&[program]).remove(0)
    }

    /// Verifies a batch, in input order. Cache hits (when a cache is
    /// configured) are answered immediately; misses run through the
    /// work-stealing pool, which verifies on the calling thread when it
    /// has one worker (always the case for a single program). Verdicts
    /// are byte-identical whichever route served them.
    pub fn verify_batch(&self, programs: &[&AnnotatedProgram]) -> Vec<Outcome> {
        match self.cache.as_ref() {
            None => verify_batch_ref(programs, &self.batch)
                .into_iter()
                .map(Outcome::from_batch)
                .collect(),
            Some(_) => self
                .cached_verifier()
                .verify_batch(programs)
                .into_iter()
                .map(Outcome::from_cached)
                .collect(),
        }
    }

    /// Cumulative cache counters, when a cache is configured and has been
    /// touched.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref()?;
        Some(self.cached_verifier().stats())
    }

    /// Verdicts currently held in the in-memory cache tier.
    pub fn cache_memory_entries(&self) -> Option<usize> {
        self.cache.as_ref()?;
        Some(self.cached_verifier().memory_entries())
    }

    fn cached_verifier(&self) -> &CachedVerifier {
        self.cached.get_or_init(|| {
            CachedVerifier::new(
                self.batch.clone(),
                self.cache.clone().expect("cache config present"),
            )
        })
    }
}

/// Builder methods may not run after the pipeline has been used (the
/// cache would silently keep the old configuration).
fn assert_unused(cached: &OnceLock<CachedVerifier>, method: &str) {
    assert!(
        cached.get().is_none(),
        "Verifier::{method} called after the verifier was already used"
    );
}

impl Outcome {
    fn from_batch(result: BatchResult) -> Outcome {
        Outcome {
            index: result.index,
            program: result.program,
            report: result.report,
            time: result.time,
            cached: None,
            key: None,
            stats: Some(result.stats),
            obligation_times: result.obligation_times,
            session: Some(result.session),
            skipped: result.skipped,
        }
    }

    fn from_cached(result: CachedResult) -> Outcome {
        Outcome {
            index: result.index,
            program: result.report.program.clone(),
            report: result.report,
            time: result.time,
            cached: Some(result.cached),
            key: Some(result.key),
            stats: None,
            obligation_times: Vec::new(),
            session: None,
            skipped: result.skipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use commcsl_pure::{Sort, Term};

    use super::*;
    use crate::program::VStmt;
    use crate::symexec::verify;

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
        }
        assert!(uncached.iter().all(|o| o.cached.is_none() && o.key.is_none()));
        assert!(cold.iter().all(|o| o.cached == Some(false)));
        assert!(warm.iter().all(|o| o.cached == Some(true)));
        assert!(warm.iter().all(|o| o.key.is_some()));
        let stats = caching.cache_stats().expect("cache configured");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.memory_hits, 2);
        assert_eq!(plain.cache_stats(), None);
    }

    #[test]
    fn backend_choice_flows_into_both_configs() {
        let v = Verifier::new().with_backend(commcsl_smt::BackendKind::Fresh);
        assert_eq!(v.config().backend, commcsl_smt::BackendKind::Fresh);
        assert_eq!(v.config().validity.backend, commcsl_smt::BackendKind::Fresh);
        let report = v.verify(&ok_program("fresh-backend")).report;
        assert!(report.verified());
    }

    #[test]
    fn fail_fast_flows_through_both_routes() {
        let a = leaky_program("ff-a");
        let b = ok_program("ff-b");
        let programs: Vec<&AnnotatedProgram> = vec![&a, &b];

        let plain = Verifier::new().with_threads(1).with_fail_fast(true);
        let results = plain.verify_batch(&programs);
        assert!(!results[0].skipped && !results[0].report.verified());
        assert!(results[1].skipped);

        let caching = Verifier::new()
            .with_threads(1)
            .with_fail_fast(true)
            .with_cache(CacheConfig::memory_only(16));
        let cold = caching.verify_batch(&programs);
        assert!(cold[1].skipped);
        // The skipped program was never cached: verifying it alone misses.
        let solo = caching.verify_batch(&[&b]);
        assert_eq!(solo[0].cached, Some(false), "skip must not be cached");
        assert!(solo[0].report.verified());
        // The failing program's verdict *was* cached.
        let again = caching.verify_batch(&[&a]);
        assert_eq!(again[0].cached, Some(true));
    }

    #[test]
    #[should_panic(expected = "after the verifier was already used")]
    fn builder_methods_panic_after_first_use() {
        let v = Verifier::new().with_cache(CacheConfig::memory_only(4));
        let _ = v.verify(&ok_program("used"));
        let _ = v.with_threads(3);
    }
}
