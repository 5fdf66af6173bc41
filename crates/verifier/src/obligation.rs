//! Obligation-level content addressing: the unit of incremental
//! re-verification.
//!
//! A whole-program verdict is addressed by
//! [`program_hash`](crate::hash::program_hash); this module addresses the
//! *individual proof obligations* inside it. Every obligation the
//! symbolic execution discharges — a statement's `Low(..)` goal, an
//! action precondition, a retroactive batch-count check, a resource
//! specification's validity — is a pure function of its **dependency
//! cone**:
//!
//! * the goal term (derived from the statement and the resource specs it
//!   references),
//! * the relational path facts in scope at the check, *with their scope
//!   and batching structure* (facts of popped scopes are excluded; batch
//!   boundaries are included because the incremental solver backend
//!   saturates facts per batch),
//! * the sorts of every symbolic variable the goal and facts mention
//!   (they gate and steer the falsifier), and
//! * every verdict-relevant configuration knob (solver budgets,
//!   falsifier budgets, backend choice, counterexample search).
//!
//! [`ObligationKey`] is a stable 128-bit hash of exactly that cone, so
//! two obligations with the same key have **byte-identical**
//! [`ObligationStatus`] outcomes — which is what lets a
//! [`Workspace`](crate::workspace::Workspace) re-verify an edited program
//! by re-discharging only the obligations whose cones the edit dirtied
//! and replaying cached statuses for the rest, while keeping the final
//! report byte-identical to a cold run. Each settled obligation is
//! reported as an [`ObligationEvent`] carrying its key, its proving site
//! and the statement paths its fact cone depends on.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use crate::hash::StableHasher;
use crate::program::StmtPath;
use crate::report::{ObligationResult, ObligationStatus};

/// A 128-bit content hash of one proof obligation's dependency cone.
///
/// Displayed (and parsed) as 32 lowercase hex digits, like
/// [`ProgramHash`](crate::hash::ProgramHash). Two obligations with equal
/// keys have byte-identical statuses; the converse is not required (the
/// key may over-distinguish, which only costs cache hits, never
/// correctness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObligationKey(pub u128);

impl fmt::Display for ObligationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for ObligationKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(format!(
                "obligation key must be 32 hex digits, got {}",
                s.len()
            ));
        }
        u128::from_str_radix(s, 16)
            .map(ObligationKey)
            .map_err(|e| format!("bad obligation key: {e}"))
    }
}

impl ObligationKey {
    /// Finalizes a hasher into a key.
    pub fn from_hasher(h: &StableHasher) -> ObligationKey {
        ObligationKey(h.finish().0)
    }
}

/// A store of per-obligation statuses, keyed by [`ObligationKey`].
///
/// [`verify_incremental`](crate::symexec::verify_incremental) consults
/// the store before discharging each obligation and records every status
/// it computes. Implementations must return exactly what was stored
/// (byte-identical statuses) or nothing — a lossy store silently breaks
/// the workspace's byte-identity guarantee.
pub trait ObligationStore {
    /// Looks up a cached status.
    fn get(&mut self, key: ObligationKey) -> Option<ObligationStatus>;
    /// Records a freshly computed status.
    fn put(&mut self, key: ObligationKey, status: &ObligationStatus);
}

/// A plain in-memory [`ObligationStore`] (unbounded; tests and the
/// obligation benches use it — the production store is the obligation
/// tier of [`VerdictCache`](crate::cache::VerdictCache)).
#[derive(Debug, Default, Clone)]
pub struct MemoryObligationStore {
    entries: HashMap<ObligationKey, ObligationStatus>,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups the store could not answer.
    pub misses: u64,
}

impl ObligationStore for MemoryObligationStore {
    fn get(&mut self, key: ObligationKey) -> Option<ObligationStatus> {
        let found = self.entries.get(&key).cloned();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn put(&mut self, key: ObligationKey, status: &ObligationStatus) {
        self.entries.insert(key, status.clone());
    }
}

impl MemoryObligationStore {
    /// Number of stored statuses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Per-run discharge counters of one verification: how each obligation
/// was settled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DischargeStats {
    /// Obligations the run produced
    /// (`reused + checked + statically_proven`).
    pub total: usize,
    /// Obligations answered from the obligation store.
    pub reused: usize,
    /// Obligations discharged by the solver (and recorded).
    pub checked: usize,
    /// Obligations discharged by the static pre-pass without touching the
    /// solver (and recorded, so later runs reuse them like any other
    /// status).
    pub statically_proven: usize,
}

impl DischargeStats {
    /// Folds one settled obligation into the counters.
    pub(crate) fn record(&mut self, verdict: ObligationVerdict) {
        self.total += 1;
        match verdict {
            ObligationVerdict::Reused => self.reused += 1,
            ObligationVerdict::SolverChecked => self.checked += 1,
            ObligationVerdict::StaticallyProven => self.statically_proven += 1,
        }
    }
}

/// How one obligation's status was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObligationVerdict {
    /// Discharged by the static pre-pass; the solver was never consulted.
    StaticallyProven,
    /// Discharged by the solver.
    SolverChecked,
    /// Replayed from the obligation store (whatever engine produced it
    /// originally).
    Reused,
}

impl ObligationVerdict {
    /// The stable string form used in streaming events.
    pub fn as_str(self) -> &'static str {
        match self {
            ObligationVerdict::StaticallyProven => "static",
            ObligationVerdict::SolverChecked => "solver",
            ObligationVerdict::Reused => "reused",
        }
    }
}

/// One obligation as it settles during an incremental run — the payload
/// of the event callback of
/// [`verify_incremental`](crate::symexec::verify_incremental), streamed
/// by the daemon's protocol-v2 `obligation_done` events.
#[derive(Debug)]
pub struct ObligationEvent<'a> {
    /// Position in the report's obligation list.
    pub index: usize,
    /// The obligation's dependency-cone key.
    pub key: ObligationKey,
    /// Statement path of the proving site (empty for program-end checks).
    pub path: &'a [u32],
    /// Statement paths whose facts are in the obligation's cone (raw, in
    /// assertion order; may repeat).
    pub cone: &'a [StmtPath],
    /// The settled obligation (description, code, span, status).
    pub result: &'a ObligationResult,
    /// How the status was obtained (store hit, solver, or the static
    /// pre-pass).
    pub verdict: ObligationVerdict,
    /// Wall-clock time spent settling this obligation. Diagnostic payload
    /// only: nondeterministic, never part of reports or keys.
    pub time: std::time::Duration,
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::diag::DiagnosticCode;
    use crate::program::{AnnotatedProgram, VStmt};
    use crate::report::VerifierConfig;
    use commcsl_logic::spec::ResourceSpec;
    use commcsl_pure::{Sort, Term};

    #[test]
    fn keys_render_and_parse() {
        let key = ObligationKey(0xDEADBEEF);
        let hex = key.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex.parse::<ObligationKey>().unwrap(), key);
        assert!("short".parse::<ObligationKey>().is_err());
    }

    fn counter_program() -> AnnotatedProgram {
        AnnotatedProgram::new("graph-counter")
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
                        vec![VStmt::atomic(0, "Add", Term::int(2))],
                    ],
                },
                VStmt::Unshare {
                    resource: 0,
                    into: "c".into(),
                },
                VStmt::Output(Term::var("c")),
            ])
    }

    /// One settled obligation as its event reports it.
    #[derive(Debug, PartialEq)]
    struct Settled {
        key: ObligationKey,
        description: String,
        code: DiagnosticCode,
        path: StmtPath,
        cone: Vec<StmtPath>,
    }

    /// The events of one run against a fresh store, in report order.
    fn settle_events(program: &AnnotatedProgram, config: &VerifierConfig) -> Vec<Settled> {
        let mut settled = Vec::new();
        let mut store = MemoryObligationStore::default();
        crate::symexec::verify_incremental(program, config, &mut store, &mut |e| {
            settled.push(Settled {
                key: e.key,
                description: e.result.description.clone(),
                code: e.result.code,
                path: e.path.to_vec(),
                cone: e.cone.to_vec(),
            });
        });
        settled
    }

    #[test]
    fn events_key_every_obligation_distinctly_and_deterministically() {
        let config = VerifierConfig::default();
        let program = counter_program();
        let settled = settle_events(&program, &config);
        let report = crate::symexec::verify(&program, &config);
        assert_eq!(settled.len(), report.obligations.len());
        for (event, o) in settled.iter().zip(&report.obligations) {
            assert_eq!(event.description, o.description);
            assert_eq!(event.code, o.code);
        }
        let keys: BTreeSet<ObligationKey> = settled.iter().map(|e| e.key).collect();
        assert_eq!(keys.len(), settled.len(), "keys must be distinct here");
        assert_eq!(settled, settle_events(&program, &config));
    }

    #[test]
    fn output_obligation_cone_holds_the_unshare() {
        let settled = settle_events(&counter_program(), &VerifierConfig::default());
        let output = settled
            .iter()
            .find(|e| e.code == DiagnosticCode::LowOutput)
            .expect("output obligation");
        // The unshare (path [3]) feeds the abstraction-equality fact the
        // output check relies on.
        assert!(
            output.cone.contains(&vec![3]),
            "cone {:?} must include the unshare",
            output.cone
        );
        assert_eq!(output.path, vec![4]);
    }
}
