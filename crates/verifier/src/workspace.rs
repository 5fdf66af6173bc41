//! Workspace sessions: obligation-level incremental re-verification.
//!
//! A [`Workspace`] is the long-lived, edit-aware face of the verifier —
//! the interaction model of an IDE language server or the `commcsl
//! watch` loop. Clients `open` documents (lowered
//! [`AnnotatedProgram`]s), push edits with `update`, and `close` them;
//! every call returns a [`DocOutcome`] whose report is **byte-identical**
//! to cold whole-program verification of the same program under the same
//! configuration.
//!
//! What makes it incremental is the two cache tiers it consults, both
//! living in one (shareable) [`VerdictCache`]:
//!
//! * the **program tier** answers unchanged programs with their whole
//!   cached report ([`program_hash`](crate::hash::program_hash)
//!   address), and
//! * the **obligation tier** answers changed programs obligation by
//!   obligation: [`verify_incremental`](crate::symexec::verify_incremental)
//!   re-discharges only the obligations whose dependency cone the edit
//!   dirtied and replays cached statuses for the rest. A
//!   single-statement edit near the end of a document re-checks one
//!   obligation; everything before it is a key hit. The keys of the
//!   obligations that the unchanged leading statements settle are the
//!   previous revision's (told apart by the program hash's state after
//!   each top-level statement), so they are taken from its run instead
//!   of being hashed again.
//!
//! Workspaces share their cache freely: the `commcsl-server` daemon
//! gives every connection its own `Workspace` over one shared cache, so
//! two clients editing different documents (or the same program compiled
//! from different files) serve each other's obligations.
//!
//! Progress is observable: the `*_with` variants stream
//! [`WorkspaceEvent`]s — `Started`, one `Obligation` per settled
//! obligation (with its reuse flag), and `Finished` — which the daemon's
//! protocol-v2 event channel forwards as NDJSON.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::{lock_cache, CacheConfig, CacheStats, SharedObligationStore, VerdictCache};
use crate::hash::{program_hash_by_statement, ProgramHash};
use crate::obligation::{DischargeStats, ObligationKey, ObligationVerdict};
use crate::program::AnnotatedProgram;
use crate::report::{ObligationResult, VerifierConfig, VerifierReport};
use crate::symexec::{verify_incremental_reusing, SettledKeys};

/// Configuration of a standalone [`Workspace`].
#[derive(Debug, Clone, Default)]
pub struct WorkspaceConfig {
    /// Per-program verifier configuration (part of every cache address).
    pub verifier: VerifierConfig,
    /// Cache tiers backing the session.
    pub cache: CacheConfig,
}

/// The outcome of one `open`/`update` call.
#[derive(Debug, Clone)]
pub struct DocOutcome {
    /// Document id, as passed to `open`.
    pub doc: String,
    /// Monotonic per-document revision (1 at first open).
    pub revision: u64,
    /// Content address of the checked program.
    pub key: ProgramHash,
    /// The verification report — byte-identical to
    /// [`verify`](crate::symexec::verify) of the same program.
    pub report: VerifierReport,
    /// Wall-clock time for this call.
    pub time: Duration,
    /// `true` when the whole report came from the program tier (no
    /// obligation was even enumerated live).
    pub report_cached: bool,
    /// Obligation-level reuse counters. For a program-tier hit every
    /// obligation counts as reused.
    pub obligations: DischargeStats,
}

/// A progress event of one `open`/`update` call.
#[derive(Debug)]
pub enum WorkspaceEvent<'a> {
    /// Verification of a document revision began.
    Started {
        /// Document id.
        doc: &'a str,
        /// Revision being checked.
        revision: u64,
        /// Content address of the program.
        key: ProgramHash,
    },
    /// One obligation settled (in report order).
    Obligation {
        /// Position in the report's obligation list.
        index: usize,
        /// The settled obligation.
        result: &'a ObligationResult,
        /// How the status was obtained. Program-tier hits replay every
        /// obligation as [`ObligationVerdict::Reused`].
        verdict: ObligationVerdict,
        /// Wall-clock settle time (zero for program-tier replays).
        /// Diagnostic payload only — never part of reports or hashes.
        time: Duration,
    },
    /// The call completed; the outcome is about to be returned.
    Finished {
        /// The completed outcome.
        outcome: &'a DocOutcome,
    },
}

/// Cumulative workspace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Documents currently open.
    pub documents: u64,
    /// `open`/`update` calls served.
    pub revisions: u64,
    /// Calls answered entirely from the program tier.
    pub report_hits: u64,
    /// Obligation counters summed over every incremental run.
    pub obligations: DischargeStats,
}

#[derive(Debug)]
struct DocState {
    key: ProgramHash,
    revision: u64,
    /// The last revision that ran through the obligation tier.
    last_run: Option<LastRun>,
}

/// A revision's program-hash state after each top-level statement, and
/// the obligation keys its run settled: the next revision takes the keys
/// of its unchanged leading statements from here instead of hashing
/// their goals again.
#[derive(Debug)]
struct LastRun {
    statements: Vec<ProgramHash>,
    keys: SettledKeys,
}

impl LastRun {
    /// The keys a program whose states are `statements` settles before
    /// its first top-level statement that differs from this run's
    /// program. Equal states mean an equal name, resources, statement
    /// count and leading statements (see [`program_hash_by_statement`]).
    fn reusable(&self, statements: &[ProgramHash]) -> &[(Option<u32>, ObligationKey)] {
        let same = self
            .statements
            .iter()
            .zip(statements)
            .take_while(|(a, b)| a == b)
            .count();
        let n = self
            .keys
            .iter()
            .take_while(|(stmt, _)| stmt.is_some_and(|i| (i as usize) < same))
            .count();
        &self.keys[..n]
    }
}

/// A long-lived verification session over a set of open documents. See
/// the module docs.
#[derive(Debug)]
pub struct Workspace {
    config: VerifierConfig,
    cache: Arc<Mutex<VerdictCache>>,
    docs: BTreeMap<String, DocState>,
    stats: WorkspaceStats,
}

impl Workspace {
    /// A standalone workspace with its own cache.
    pub fn new(config: WorkspaceConfig) -> Self {
        Workspace::with_shared_cache(
            config.verifier,
            Arc::new(Mutex::new(VerdictCache::new(config.cache))),
        )
    }

    /// A workspace over a shared cache (daemon sessions all point at the
    /// server's cache; see
    /// [`Verifier::shared_cache`](crate::api::Verifier::shared_cache)).
    pub fn with_shared_cache(
        config: VerifierConfig,
        cache: Arc<Mutex<VerdictCache>>,
    ) -> Self {
        Workspace {
            config,
            cache,
            docs: BTreeMap::new(),
            stats: WorkspaceStats::default(),
        }
    }

    /// The verifier configuration every document is checked under.
    pub fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// The shared cache handle.
    pub fn shared_cache(&self) -> Arc<Mutex<VerdictCache>> {
        Arc::clone(&self.cache)
    }

    /// Ids of the currently open documents, in order.
    pub fn open_documents(&self) -> impl Iterator<Item = &str> {
        self.docs.keys().map(String::as_str)
    }

    /// The content address of an open document's last-checked revision.
    pub fn document_key(&self, doc: &str) -> Option<ProgramHash> {
        self.docs.get(doc).map(|d| d.key)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Cache counters of the backing [`VerdictCache`].
    pub fn cache_stats(&self) -> CacheStats {
        lock_cache(&self.cache).stats()
    }

    /// Opens (or reopens) a document and verifies it.
    pub fn open_document(
        &mut self,
        doc: impl Into<String>,
        program: &AnnotatedProgram,
    ) -> DocOutcome {
        self.open_document_with(doc, program, &mut |_| {})
    }

    /// [`Workspace::open_document`] with a progress-event stream.
    pub fn open_document_with(
        &mut self,
        doc: impl Into<String>,
        program: &AnnotatedProgram,
        on_event: &mut dyn FnMut(WorkspaceEvent<'_>),
    ) -> DocOutcome {
        let doc = doc.into();
        let revision = self.docs.get(&doc).map_or(1, |d| d.revision + 1);
        if !self.docs.contains_key(&doc) {
            self.stats.documents += 1;
        }
        self.check(doc, revision, program, on_event)
    }

    /// Re-verifies an open document after an edit. Errors when the
    /// document was never opened (or already closed).
    pub fn update_document(
        &mut self,
        doc: &str,
        program: &AnnotatedProgram,
    ) -> Result<DocOutcome, String> {
        self.update_document_with(doc, program, &mut |_| {})
    }

    /// [`Workspace::update_document`] with a progress-event stream.
    pub fn update_document_with(
        &mut self,
        doc: &str,
        program: &AnnotatedProgram,
        on_event: &mut dyn FnMut(WorkspaceEvent<'_>),
    ) -> Result<DocOutcome, String> {
        let Some(state) = self.docs.get(doc) else {
            return Err(format!("unknown document `{doc}`"));
        };
        let revision = state.revision + 1;
        Ok(self.check(doc.to_owned(), revision, program, on_event))
    }

    /// Closes a document; `true` when it was open. Cached verdicts and
    /// obligation statuses stay in the cache (another document — or the
    /// same one reopened — may share them).
    pub fn close_document(&mut self, doc: &str) -> bool {
        let removed = self.docs.remove(doc).is_some();
        if removed {
            self.stats.documents = self.stats.documents.saturating_sub(1);
        }
        removed
    }

    fn check(
        &mut self,
        doc: String,
        revision: u64,
        program: &AnnotatedProgram,
        on_event: &mut dyn FnMut(WorkspaceEvent<'_>),
    ) -> DocOutcome {
        let start = Instant::now();
        let (key, statements) = program_hash_by_statement(program, &self.config);
        self.stats.revisions += 1;
        on_event(WorkspaceEvent::Started {
            doc: &doc,
            revision,
            key,
        });

        // Program tier: an unchanged program replays its whole report.
        let cached_report = lock_cache(&self.cache).get(key);
        let mut last_run = self.docs.remove(&doc).and_then(|d| d.last_run);
        let (report, report_cached, obligations) = match cached_report {
            Some(report) => {
                for (index, result) in report.obligations.iter().enumerate() {
                    on_event(WorkspaceEvent::Obligation {
                        index,
                        result,
                        verdict: ObligationVerdict::Reused,
                        time: Duration::ZERO,
                    });
                }
                let total = report.obligations.len();
                self.stats.report_hits += 1;
                (
                    report,
                    true,
                    DischargeStats {
                        total,
                        reused: total,
                        checked: 0,
                        statically_proven: 0,
                    },
                )
            }
            None => {
                // Obligation tier: re-discharge only the dirty cone.
                let mut store = SharedObligationStore(&self.cache);
                let mut sink = |e: &crate::obligation::ObligationEvent<'_>| {
                    on_event(WorkspaceEvent::Obligation {
                        index: e.index,
                        result: e.result,
                        verdict: e.verdict,
                        time: e.time,
                    });
                };
                let reuse = last_run
                    .as_ref()
                    .map_or(&[][..], |run| run.reusable(&statements));
                let (report, stats, keys) = verify_incremental_reusing(
                    program,
                    &self.config,
                    &mut store,
                    &mut sink,
                    reuse,
                );
                last_run = Some(LastRun { statements, keys });
                lock_cache(&self.cache).put(key, &report);
                (report, false, stats)
            }
        };

        self.stats.obligations.total += obligations.total;
        self.stats.obligations.reused += obligations.reused;
        self.stats.obligations.checked += obligations.checked;
        self.stats.obligations.statically_proven += obligations.statically_proven;
        self.docs.insert(
            doc.clone(),
            DocState {
                key,
                revision,
                last_run,
            },
        );

        let outcome = DocOutcome {
            doc,
            revision,
            key,
            report,
            time: start.elapsed(),
            report_cached,
            obligations,
        };
        on_event(WorkspaceEvent::Finished { outcome: &outcome });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::VStmt;
    use crate::symexec::verify;
    use commcsl_logic::spec::ResourceSpec;
    use commcsl_pure::{Sort, Term};

    fn counter_program(addend: i64) -> AnnotatedProgram {
        AnnotatedProgram::new("ws-counter")
            .with_resource(ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::Share {
                    resource: 0,
                    init: Term::int(0),
                },
                VStmt::Par {
                    workers: vec![
                        vec![VStmt::atomic(0, "Add", Term::var("a"))],
                        vec![VStmt::atomic(0, "Add", Term::int(addend))],
                    ],
                },
                VStmt::Unshare {
                    resource: 0,
                    into: "c".into(),
                },
                VStmt::Output(Term::var("c")),
            ])
    }

    #[test]
    fn open_update_close_lifecycle_with_byte_identical_reports() {
        let mut ws = Workspace::new(WorkspaceConfig::default());
        let p0 = counter_program(2);

        let cold = ws.open_document("a.csl", &p0);
        assert_eq!(cold.revision, 1);
        assert!(!cold.report_cached);
        assert_eq!(cold.obligations.reused, 0);
        assert_eq!(cold.report.to_json(), verify(&p0, ws.config()).to_json());

        // Unchanged reopen: the program tier answers the whole report.
        let warm = ws.open_document("a.csl", &p0);
        assert_eq!(warm.revision, 2);
        assert!(warm.report_cached);
        assert_eq!(warm.report.to_json(), cold.report.to_json());

        // A single-statement edit (one addend changes): only the dirty
        // cone re-checks. The edit sits inside the Par, so the obligations
        // before it (spec validity, low-init) stay reused.
        let p1 = counter_program(3);
        let edited = ws.update_document("a.csl", &p1).expect("doc open");
        assert_eq!(edited.revision, 3);
        assert!(!edited.report_cached);
        assert!(edited.obligations.reused > 0, "{:?}", edited.obligations);
        assert!(edited.obligations.checked < edited.obligations.total);
        assert_eq!(edited.report.to_json(), verify(&p1, ws.config()).to_json());

        assert!(ws.close_document("a.csl"));
        assert!(!ws.close_document("a.csl"));
        assert!(ws.update_document("a.csl", &p1).is_err());
    }

    #[test]
    fn appending_a_statement_rechecks_only_the_new_obligation() {
        let mut ws = Workspace::new(WorkspaceConfig::default());
        let base = counter_program(2);
        let cold = ws.open_document("doc", &base);

        let mut extended = base.clone();
        extended.body.push(VStmt::AssertLow(Term::int(7)));
        let outcome = ws.update_document("doc", &extended).expect("open");
        assert_eq!(outcome.obligations.total, cold.obligations.total + 1);
        // The new goal (`7 = 7`) is claimed by the static pre-pass — the
        // edit's cone never reaches the solver; everything else replays.
        assert_eq!(outcome.obligations.checked, 0, "{:?}", outcome.obligations);
        assert_eq!(
            outcome.obligations.statically_proven,
            1,
            "{:?}",
            outcome.obligations
        );
        assert_eq!(outcome.obligations.reused, cold.obligations.total);
        assert_eq!(
            outcome.report.to_json(),
            verify(&extended, ws.config()).to_json()
        );
    }

    #[test]
    fn documents_share_one_cache_and_events_stream_in_order() {
        let mut ws = Workspace::new(WorkspaceConfig::default());
        let p = counter_program(2);
        let _ = ws.open_document("one", &p);

        // A second document with the same content: program-tier hit.
        let mut events = Vec::new();
        let outcome = ws.open_document_with("two", &p, &mut |e| {
            events.push(match e {
                WorkspaceEvent::Started { doc, revision, .. } => {
                    format!("started {doc} r{revision}")
                }
                WorkspaceEvent::Obligation { index, verdict, .. } => {
                    format!("obligation {index} {}", verdict.as_str())
                }
                WorkspaceEvent::Finished { outcome } => {
                    format!("finished cached={}", outcome.report_cached)
                }
            });
        });
        assert!(outcome.report_cached);
        assert_eq!(events.first().unwrap(), "started two r1");
        assert_eq!(
            events.last().unwrap(),
            "finished cached=true",
            "{events:?}"
        );
        assert_eq!(events.len(), outcome.obligations.total + 2);
        assert!(events[1..events.len() - 1]
            .iter()
            .all(|e| e.ends_with(" reused")));

        // A *renamed* variant misses the program tier but reuses every
        // obligation from "one"'s run.
        let mut renamed = p.clone();
        renamed.name = "ws-counter-renamed".into();
        let outcome = ws.open_document("three", &renamed);
        assert!(!outcome.report_cached);
        assert_eq!(outcome.obligations.checked, 0, "{:?}", outcome.obligations);
        assert_eq!(outcome.obligations.reused, outcome.obligations.total);

        assert_eq!(ws.open_documents().count(), 3);
        let stats = ws.stats();
        assert_eq!(stats.documents, 3);
        assert_eq!(stats.revisions, 3);
        assert_eq!(stats.report_hits, 1);
    }

    #[test]
    fn failing_obligations_and_counterexamples_replay_byte_identically() {
        let mut ws = Workspace::new(WorkspaceConfig::default());
        let leaky = AnnotatedProgram::new("ws-leak").with_body([
            VStmt::input("h", Sort::Int, false),
            VStmt::Output(Term::var("h")),
        ]);
        let cold = ws.open_document("leak", &leaky);
        assert!(!cold.report.verified());
        let direct = verify(&leaky, ws.config());
        assert_eq!(cold.report.to_json(), direct.to_json());

        // Rename (program-tier miss) — the failed status, counterexample
        // included, replays from the obligation tier byte-identically.
        let mut renamed = leaky.clone();
        renamed.name = "ws-leak-2".into();
        let warm = ws.open_document("leak2", &renamed);
        assert!(!warm.report_cached);
        assert_eq!(warm.obligations.checked, 0);
        assert_eq!(
            warm.report.to_json(),
            verify(&renamed, ws.config()).to_json()
        );
    }

    #[test]
    fn workspace_on_disk_cache_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!(
            "commcsl-workspace-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = WorkspaceConfig {
            cache: CacheConfig::persistent(&dir),
            ..Default::default()
        };
        let p = counter_program(2);
        {
            let mut ws = Workspace::new(config.clone());
            let _ = ws.open_document("doc", &p);
        }
        // Fresh workspace, same disk: a renamed variant still reuses
        // every obligation from disk.
        let mut ws = Workspace::new(config);
        let mut renamed = p.clone();
        renamed.name = "ws-counter-restart".into();
        let outcome = ws.open_document("doc", &renamed);
        assert!(!outcome.report_cached);
        assert_eq!(outcome.obligations.checked, 0, "{:?}", outcome.obligations);
        assert_eq!(
            outcome.report.to_json(),
            verify(&renamed, ws.config()).to_json()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reused_key_prefix_is_the_prefix_a_fresh_run_derives() {
        let config = VerifierConfig::default();
        let keys = |program: &AnnotatedProgram, reuse: &[(Option<u32>, ObligationKey)]| {
            let mut store = VerdictCache::new(CacheConfig::default());
            verify_incremental_reusing(program, &config, &mut store, &mut |_| {}, reuse).2
        };
        let states = |program: &AnnotatedProgram| {
            let (key, states) = program_hash_by_statement(program, &config);
            assert_eq!(key, crate::hash::program_hash(program, &config));
            states
        };
        let before = counter_program(2);
        let last = LastRun {
            statements: states(&before),
            keys: keys(&before, &[]),
        };
        // Settle order: spec validity and the low init (statement 1), one
        // precondition per worker (2), the output (4).
        assert_eq!(last.keys.len(), 5, "{:?}", last.keys);

        let mut output = before.clone();
        *output.body.last_mut().unwrap() = VStmt::Output(Term::int(0));
        let mut appended = before.clone();
        appended.body.push(VStmt::AssertLow(Term::var("a")));
        let mut first = before.clone();
        first.body[0] = VStmt::input("a", Sort::Int, false);
        let mut spec = before.clone();
        spec.resources[0] = ResourceSpec::keyset_map();
        // (edited revision, keys taken from the last run)
        let edits = [
            (before.clone(), 5),
            (output, 4),
            (counter_program(3), 2),
            (first, 0),
            (spec, 0),
            // The statement count is hashed before the statements.
            (appended, 0),
        ];
        for (i, (after, reused)) in edits.iter().enumerate() {
            let reuse = last.reusable(&states(after));
            assert_eq!(reuse.len(), *reused, "edit {i}");
            assert_eq!(keys(after, reuse), keys(after, &[]), "edit {i}");
        }
    }
}
