//! Content-addressed verdict caching.
//!
//! Verification verdicts are pure functions of the
//! [`program_hash`](crate::hash::program_hash) content address, so they
//! can be cached and replayed **byte-identically** without re-running
//! symbolic execution. [`VerdictCache`] is the two-tier store used by the
//! `commcsl-server` daemon and the `--daemon` CLI path:
//!
//! * an **in-memory LRU tier** (capacity-bounded, stamp-based eviction),
//! * an optional **on-disk tier** under a cache directory (conventionally
//!   `.commcsl-cache/`), one file per verdict, written atomically
//!   (temp file + rename) so a crash mid-write never leaves a readable
//!   half-verdict.
//!
//! Invalidation is structural, never temporal: a verdict file is one JSON
//! entry, served only when its format version and embedded key match the
//! requested hash and its report decodes completely. Any mismatch —
//! including a [`HASH_FORMAT_VERSION`] bump, which changes every key and
//! the tier directory name — is a cache **miss**, never a stale verdict.
//!
//! Alongside the whole-program verdict tiers, the cache carries an
//! **obligation tier**: per-obligation [`ObligationStatus`]es addressed
//! by [`ObligationKey`] (the dependency-cone hash of
//! [`crate::obligation`]). This is the store behind
//! [`Workspace`](crate::workspace::Workspace) re-verification — an edit
//! that misses the program tier still replays every obligation whose
//! cone it left untouched. The tier follows the same rules: in-memory
//! LRU, optional on-disk persistence (`obl/` under the version
//! directory), structural validation, corrupt ⇒ miss.
//!
//! [`Verifier::with_cache`](crate::api::Verifier::with_cache) puts a
//! cache in front of the pipeline: its batches answer hits from here and
//! run only the misses, against the obligation tier.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use commcsl_telemetry::Json;

use crate::hash::{ProgramHash, HASH_FORMAT_VERSION};
use crate::obligation::{ObligationKey, ObligationStore};
use crate::report::{ObligationStatus, VerifierReport};

// ----------------------------------------------------------------- entries
//
// Disk files and remote-cache payloads are one self-validating JSON
// entry: `{"format":…,"version":HASH_FORMAT_VERSION,"key":…,"report"|"status":…}`
// around the report's (or status's) own JSON codec.

const VERDICT_FORMAT: &str = "commcsl-verdict";
const OBLIGATION_FORMAT: &str = "commcsl-obligation";

/// Wraps `body` in an entry naming its format, [`HASH_FORMAT_VERSION`]
/// and its own key, so a file renamed or copied to the wrong address, or
/// written by another format version, is rejected on load.
fn entry(format: &'static str, key: impl ToString, field: &'static str, body: Json) -> String {
    Json::obj([
        ("format", Json::str(format)),
        ("version", Json::Num(f64::from(HASH_FORMAT_VERSION))),
        ("key", Json::str(key.to_string())),
        (field, body),
    ])
    .to_string()
}

/// Parses an entry written by [`entry`]; `None` unless it is JSON whose
/// format, version and key all match (the never-stale rule: reject,
/// never reinterpret).
fn open_entry(format: &str, key: impl ToString, text: &str) -> Option<Json> {
    let doc = Json::parse(text).ok()?;
    let valid = doc.get("format")?.as_str()? == format
        && doc.get("version")?.as_u64()? == u64::from(HASH_FORMAT_VERSION)
        && doc.get("key")?.as_str()? == key.to_string();
    valid.then_some(doc)
}

fn verdict_entry(key: ProgramHash, report: &VerifierReport) -> String {
    entry(VERDICT_FORMAT, key, "report", report.into())
}

fn read_verdict_entry(key: ProgramHash, text: &str) -> Option<VerifierReport> {
    let doc = open_entry(VERDICT_FORMAT, key, text)?;
    VerifierReport::from_json(doc.get("report")?).ok()
}

/// Statuses carry no description/code/span — those are recomputed by the
/// incremental run that replays the status, so the entry stays valid
/// however the surrounding program is edited.
fn obligation_entry(key: ObligationKey, status: &ObligationStatus) -> String {
    entry(OBLIGATION_FORMAT, key, "status", status.into())
}

fn read_obligation_entry(key: ObligationKey, text: &str) -> Option<ObligationStatus> {
    let doc = open_entry(OBLIGATION_FORMAT, key, text)?;
    ObligationStatus::from_json(doc.get("status")?).ok()
}

// ------------------------------------------------------------------ cache

/// Configuration of a [`VerdictCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of verdicts held in the in-memory tier.
    pub memory_capacity: usize,
    /// Maximum number of per-obligation statuses held in the in-memory
    /// obligation tier. Obligation statuses are tiny (a status word, or a
    /// failure reason plus counterexample bindings), so the default is
    /// generous.
    pub obligation_capacity: usize,
    /// Root of the on-disk tier (`None` disables persistence). Verdicts
    /// live under `<disk_dir>/v<HASH_FORMAT_VERSION>/<hash>.verdict` and
    /// obligation statuses under
    /// `<disk_dir>/v<HASH_FORMAT_VERSION>/obl/<key>.obl`, so a
    /// format-version bump orphans (never misreads) old entries.
    pub disk_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            memory_capacity: 4096,
            obligation_capacity: 65536,
            disk_dir: None,
        }
    }
}

impl CacheConfig {
    /// A memory-only cache with the given capacity.
    pub fn memory_only(capacity: usize) -> Self {
        CacheConfig {
            memory_capacity: capacity.max(1),
            disk_dir: None,
            ..Default::default()
        }
    }

    /// A two-tier cache persisting under `dir`.
    pub fn persistent(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            disk_dir: Some(dir.into()),
            ..Default::default()
        }
    }
}

/// Cache effectiveness counters (cumulative since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the in-memory tier.
    pub memory_hits: u64,
    /// Lookups answered from the on-disk tier (and promoted to memory).
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Verdicts inserted.
    pub stores: u64,
    /// In-memory entries evicted by the LRU policy.
    pub evictions: u64,
    /// Obligation-tier lookups answered (memory or disk).
    pub obligation_hits: u64,
    /// Obligation-tier lookups answered by neither tier.
    pub obligation_misses: u64,
    /// Obligation statuses inserted.
    pub obligation_stores: u64,
    /// Obligation-tier lookups answered by the remote tier (and promoted
    /// to both local tiers).
    pub remote_hits: u64,
    /// Remote-tier lookups that came back empty (or invalid, or failed in
    /// transit — the remote tier is fail-open).
    pub remote_misses: u64,
    /// Obligation statuses published to the remote tier.
    pub remote_stores: u64,
}

impl CacheStats {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Fraction of lookups served from cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }
}

/// A remote obligation-cache backend: the third tier of the obligation
/// lookup chain (memory → disk → remote), shared by many daemons and CI
/// runners in the sccache / Bazel-remote-cache style.
///
/// Implementations exchange the **self-validating entry text** the disk
/// tier stores (one JSON entry per status) — the cache validates every
/// fetched entry against the requested key and [`HASH_FORMAT_VERSION`]
/// before serving it, so a confused or stale remote can only cause
/// misses, never wrong statuses. Both methods are fail-open: a broken
/// transport should degrade to `None` / no-op rather than error.
pub trait RemoteObligationTier: Send {
    /// Fetches the raw encoded entry for `key`; `None` on a remote miss
    /// or an unreachable backend.
    fn fetch(&mut self, key: ObligationKey) -> Option<String>;
    /// Publishes the raw encoded entry for `key` (best effort).
    fn publish(&mut self, key: ObligationKey, entry: &str);
    /// Human-readable endpoint (for `daemon status` lines).
    fn endpoint(&self) -> String;
}

/// The two-tier content-addressed verdict store (plus the obligation
/// tier — optionally chained to a [`RemoteObligationTier`]; see the
/// module docs).
pub struct VerdictCache {
    config: CacheConfig,
    /// hash → (LRU stamp, verdict).
    entries: HashMap<ProgramHash, (u64, VerifierReport)>,
    /// stamp → hash, the eviction order (oldest stamp first).
    lru: BTreeMap<u64, ProgramHash>,
    clock: u64,
    /// Obligation tier: key → (LRU stamp, status).
    obligations: HashMap<ObligationKey, (u64, ObligationStatus)>,
    /// Obligation-tier eviction order.
    obligation_lru: BTreeMap<u64, ObligationKey>,
    obligation_clock: u64,
    /// Optional remote tier behind the local obligation tiers.
    remote: Option<Box<dyn RemoteObligationTier>>,
    stats: CacheStats,
}

impl std::fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictCache")
            .field("config", &self.config)
            .field("entries", &self.entries.len())
            .field("obligations", &self.obligations.len())
            .field(
                "remote",
                &self.remote.as_ref().map(|r| r.endpoint()),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

impl VerdictCache {
    /// Creates a cache; the disk directory is created lazily on first
    /// store.
    pub fn new(config: CacheConfig) -> Self {
        VerdictCache {
            config,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            obligations: HashMap::new(),
            obligation_lru: BTreeMap::new(),
            obligation_clock: 0,
            remote: None,
            stats: CacheStats::default(),
        }
    }

    /// Chains a remote obligation tier behind the local tiers: lookups
    /// that miss memory and disk consult it, hits are promoted to both
    /// local tiers, and every local store is published write-through.
    pub fn set_remote(&mut self, remote: Box<dyn RemoteObligationTier>) {
        self.remote = Some(remote);
    }

    /// The remote tier's endpoint, if one is configured.
    pub fn remote_endpoint(&self) -> Option<String> {
        self.remote.as_ref().map(|r| r.endpoint())
    }

    /// The directory holding this format version's verdict files.
    fn tier_dir(&self) -> Option<PathBuf> {
        self.config
            .disk_dir
            .as_ref()
            .map(|d| d.join(format!("v{HASH_FORMAT_VERSION}")))
    }

    fn verdict_path(&self, key: ProgramHash) -> Option<PathBuf> {
        self.tier_dir().map(|d| d.join(format!("{key}.verdict")))
    }

    fn obligation_path(&self, key: ObligationKey) -> Option<PathBuf> {
        self.tier_dir().map(|d| d.join("obl").join(format!("{key}.obl")))
    }

    fn touch(&mut self, key: ProgramHash) {
        if let Some((stamp, _)) = self.entries.get_mut(&key) {
            self.lru.remove(stamp);
            self.clock += 1;
            *stamp = self.clock;
            self.lru.insert(self.clock, key);
        }
    }

    /// Looks up a verdict: memory first, then disk (with promotion).
    ///
    /// Concurrent callers (the cached route of
    /// [`Verifier`](crate::api::Verifier)) should prefer
    /// [`VerdictCache::probe_memory`] / [`VerdictCache::admit_disk`] so
    /// the file I/O between them can run outside their lock.
    pub fn get(&mut self, key: ProgramHash) -> Option<VerifierReport> {
        let _span = commcsl_telemetry::span!("cache.get");
        match self.probe_memory(key) {
            Ok(report) => Some(report),
            Err(path) => {
                let text = path.as_deref().and_then(|p| fs::read_to_string(p).ok());
                self.admit_disk(key, text.as_deref())
            }
        }
    }

    /// Memory-tier-only lookup. A hit is counted and returned; a miss
    /// returns the disk path the caller should try (`None` inside the
    /// `Err` when the cache has no disk tier) *without* counting a miss
    /// yet — [`VerdictCache::admit_disk`] settles the statistics.
    pub fn probe_memory(
        &mut self,
        key: ProgramHash,
    ) -> Result<VerifierReport, Option<PathBuf>> {
        if self.entries.contains_key(&key) {
            self.touch(key);
            self.stats.memory_hits += 1;
            return Ok(self
                .entries
                .get(&key)
                .map(|(_, r)| r.clone())
                .expect("entry just probed"));
        }
        Err(self.verdict_path(key))
    }

    /// Completes a [`VerdictCache::probe_memory`] miss with the disk
    /// file's content (`None` when the file was absent or unreadable):
    /// a valid verdict is promoted to memory and counted as a disk hit,
    /// anything else is counted as a miss (and a corrupt file deleted so
    /// it cannot shadow a future store).
    pub fn admit_disk(
        &mut self,
        key: ProgramHash,
        text: Option<&str>,
    ) -> Option<VerifierReport> {
        if let Some(text) = text {
            match read_verdict_entry(key, text) {
                Some(report) => {
                    self.stats.disk_hits += 1;
                    self.insert_memory(key, report.clone());
                    return Some(report);
                }
                None => {
                    if let Some(path) = self.verdict_path(key) {
                        let _ = fs::remove_file(&path);
                    }
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a verdict in both tiers.
    ///
    /// Concurrent wrappers should [`VerdictCache::insert`] under their
    /// lock and perform the [`write_verdict_file`] outside it.
    pub fn put(&mut self, key: ProgramHash, report: &VerifierReport) {
        let _span = commcsl_telemetry::span!("cache.put");
        if let Some(path) = self.verdict_path(key) {
            let _ = write_verdict_file(&path, key, report);
        }
        self.insert(key, report);
    }

    /// Stores a verdict in the memory tier only (counted as a store).
    pub fn insert(&mut self, key: ProgramHash, report: &VerifierReport) {
        self.stats.stores += 1;
        self.insert_memory(key, report.clone());
    }

    /// The disk-tier file for `key`, if this cache has a disk tier.
    pub fn disk_path(&self, key: ProgramHash) -> Option<PathBuf> {
        self.verdict_path(key)
    }

    fn insert_memory(&mut self, key: ProgramHash, report: VerifierReport) {
        if let Some((stamp, _)) = self.entries.remove(&key) {
            self.lru.remove(&stamp);
        }
        while self.entries.len() >= self.config.memory_capacity.max(1) {
            let Some((&oldest, &victim)) = self.lru.iter().next() else {
                break;
            };
            self.lru.remove(&oldest);
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
        self.clock += 1;
        self.entries.insert(key, (self.clock, report));
        self.lru.insert(self.clock, key);
    }

    /// Number of verdicts currently in memory.
    pub fn memory_len(&self) -> usize {
        self.entries.len()
    }

    /// Number of obligation statuses currently in memory.
    pub fn obligation_len(&self) -> usize {
        self.obligations.len()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    // ------------------------------------------------- obligation tier

    /// Looks up an obligation status: memory first, then disk (with
    /// promotion), then the remote tier when one is chained (remote hits
    /// are promoted to both local tiers). Corrupt disk entries are
    /// deleted and count as misses; invalid remote entries are rejected
    /// — every tier is structurally validated, never trusted.
    pub fn get_obligation(&mut self, key: ObligationKey) -> Option<ObligationStatus> {
        let _span = commcsl_telemetry::span!("cache.obligation_get");
        if self.obligations.contains_key(&key) {
            self.touch_obligation(key);
            self.stats.obligation_hits += 1;
            return self.obligations.get(&key).map(|(_, s)| s.clone());
        }
        if let Some(path) = self.obligation_path(key) {
            if let Ok(text) = fs::read_to_string(&path) {
                match read_obligation_entry(key, &text) {
                    Some(status) => {
                        self.stats.obligation_hits += 1;
                        self.insert_obligation_memory(key, status.clone());
                        return Some(status);
                    }
                    None => {
                        let _ = fs::remove_file(&path);
                    }
                }
            }
        }
        if let Some(remote) = self.remote.as_mut() {
            let fetched = remote.fetch(key);
            if let Some(status) = fetched
                .as_deref()
                .and_then(|text| read_obligation_entry(key, text))
            {
                self.stats.remote_hits += 1;
                self.stats.obligation_hits += 1;
                // Promote to both local tiers (the entry text *is* the
                // disk format) so later lookups stay local.
                if let Some(path) = self.obligation_path(key) {
                    let _ = write_atomically(&path, fetched.as_deref().unwrap_or_default());
                }
                self.insert_obligation_memory(key, status.clone());
                return Some(status);
            }
            self.stats.remote_misses += 1;
        }
        self.stats.obligation_misses += 1;
        None
    }

    /// Stores an obligation status in both local tiers and publishes it
    /// write-through to the remote tier when one is chained.
    pub fn put_obligation(&mut self, key: ObligationKey, status: &ObligationStatus) {
        let _span = commcsl_telemetry::span!("cache.obligation_put");
        let entry = obligation_entry(key, status);
        if let Some(path) = self.obligation_path(key) {
            let _ = write_atomically(&path, &entry);
        }
        if let Some(remote) = self.remote.as_mut() {
            remote.publish(key, &entry);
            self.stats.remote_stores += 1;
        }
        self.stats.obligation_stores += 1;
        self.insert_obligation_memory(key, status.clone());
    }

    // --------------------------------------------- remote-cache serving
    //
    // The `cache_get`/`cache_put` daemon ops serve raw entry texts out of
    // (and into) this cache without consulting the chained remote tier —
    // a daemon *serving* as somebody's remote must answer from its own
    // tiers, not recurse into its own upstream — and without touching the
    // hit/miss counters, which track verification traffic only.

    /// Exports the raw self-validating entry for an obligation status
    /// held in the local tiers (memory first, then disk), for serving to
    /// a remote-cache client. `None` when neither local tier has a valid
    /// entry.
    pub fn export_obligation(&mut self, key: ObligationKey) -> Option<String> {
        if let Some((_, status)) = self.obligations.get(&key) {
            return Some(obligation_entry(key, status));
        }
        let path = self.obligation_path(key)?;
        let text = fs::read_to_string(path).ok()?;
        read_obligation_entry(key, &text).map(|_| text)
    }

    /// Exports the raw self-validating entry for a verdict held in the
    /// local tiers. `None` when neither local tier has a valid entry.
    pub fn export_verdict(&mut self, key: ProgramHash) -> Option<String> {
        if let Some((_, report)) = self.entries.get(&key) {
            return Some(verdict_entry(key, report));
        }
        let path = self.verdict_path(key)?;
        let text = fs::read_to_string(path).ok()?;
        read_verdict_entry(key, &text).map(|_| text)
    }

    /// Validates and admits a remote-published obligation entry into the
    /// local tiers; `false` (and no state change) on any version/key/
    /// format mismatch.
    pub fn import_obligation(&mut self, key: ObligationKey, text: &str) -> bool {
        match read_obligation_entry(key, text) {
            Some(status) => {
                self.put_obligation(key, &status);
                true
            }
            None => false,
        }
    }

    /// Validates and admits a remote-published verdict entry into the
    /// local tiers; `false` on any mismatch.
    pub fn import_verdict(&mut self, key: ProgramHash, text: &str) -> bool {
        match read_verdict_entry(key, text) {
            Some(report) => {
                self.put(key, &report);
                true
            }
            None => false,
        }
    }

    fn touch_obligation(&mut self, key: ObligationKey) {
        if let Some((stamp, _)) = self.obligations.get_mut(&key) {
            self.obligation_lru.remove(stamp);
            self.obligation_clock += 1;
            *stamp = self.obligation_clock;
            self.obligation_lru.insert(self.obligation_clock, key);
        }
    }

    fn insert_obligation_memory(&mut self, key: ObligationKey, status: ObligationStatus) {
        if let Some((stamp, _)) = self.obligations.remove(&key) {
            self.obligation_lru.remove(&stamp);
        }
        while self.obligations.len() >= self.config.obligation_capacity.max(1) {
            let Some((&oldest, &victim)) = self.obligation_lru.iter().next() else {
                break;
            };
            self.obligation_lru.remove(&oldest);
            self.obligations.remove(&victim);
        }
        self.obligation_clock += 1;
        self.obligations.insert(key, (self.obligation_clock, status));
        self.obligation_lru.insert(self.obligation_clock, key);
    }
}

/// [`VerdictCache`] *is* an [`ObligationStore`]: the workspace plugs a
/// locked cache straight into
/// [`verify_incremental`](crate::symexec::verify_incremental).
impl ObligationStore for VerdictCache {
    fn get(&mut self, key: ObligationKey) -> Option<ObligationStatus> {
        self.get_obligation(key)
    }

    fn put(&mut self, key: ObligationKey, status: &ObligationStatus) {
        self.put_obligation(key, status);
    }
}

/// An [`ObligationStore`] view over a shared, mutex-guarded
/// [`VerdictCache`]: each lookup/store takes the lock briefly, so
/// concurrent workspace sessions (daemon connections) interleave instead
/// of serializing whole verifications.
pub struct SharedObligationStore<'c>(pub &'c Mutex<VerdictCache>);

impl ObligationStore for SharedObligationStore<'_> {
    fn get(&mut self, key: ObligationKey) -> Option<ObligationStatus> {
        self.0.lock().expect("verdict cache poisoned").get_obligation(key)
    }

    fn put(&mut self, key: ObligationKey, status: &ObligationStatus) {
        self.0
            .lock()
            .expect("verdict cache poisoned")
            .put_obligation(key, status);
    }
}

/// Encodes and writes one verdict file atomically (temp file + rename).
pub fn write_verdict_file(
    path: &Path,
    key: ProgramHash,
    report: &VerifierReport,
) -> std::io::Result<()> {
    write_atomically(path, &verdict_entry(key, report))
}

/// Writes `content` to `path` atomically: the data lands under a unique
/// temporary name first and is `rename`d into place, so readers (and
/// crash recovery) only ever see complete files.
fn write_atomically(path: &Path, content: &str) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(dir)?;
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, content)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use commcsl_pure::{Sort, Term};

    use std::sync::Arc;

    use super::*;
    use crate::diag::{CexBinding, Counterexample, DiagnosticCode, Failure};
    use crate::hash::program_hash;
    use crate::program::{AnnotatedProgram, VStmt};
    use crate::report::{ObligationResult, VerifierConfig};
    use crate::symexec::verify;

    fn ok_program(name: &str) -> AnnotatedProgram {
        AnnotatedProgram::new(name).with_body([
            VStmt::input("x", Sort::Int, true),
            VStmt::Output(Term::var("x")),
        ])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "commcsl-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn verdict_encoding_roundtrips_nasty_strings() {
        let report = crate::report::tests::nasty_report();
        let key = ProgramHash(42);
        let decoded = read_verdict_entry(key, &verdict_entry(key, &report)).unwrap();
        assert_eq!(decoded.program, report.program);
        assert_eq!(decoded.errors, report.errors);
        assert_eq!(decoded.obligations, report.obligations);
        assert_eq!(decoded.hints, report.hints);
        // Byte-identical JSON rendering — the cache's core guarantee.
        assert_eq!(decoded.to_json(), report.to_json());
    }

    #[test]
    fn verdict_decoding_rejects_mismatches() {
        let report = VerifierReport {
            program: "p".into(),
            obligations: vec![ObligationResult {
                description: "d".into(),
                code: DiagnosticCode::LowOutput,
                span: None,
                status: ObligationStatus::Failed(
                    Failure::new("r").with_counterexample(Counterexample {
                        bindings: vec![CexBinding {
                            var: "a".into(),
                            exec1: "1".into(),
                            exec2: "2".into(),
                        }],
                    }),
                ),
                core: None,
            }],
            errors: vec![],
            hints: vec![],
        };
        let key = ProgramHash(7);
        let good = verdict_entry(key, &report);
        assert!(read_verdict_entry(key, &good).is_some());
        // Wrong key, version or format.
        assert!(read_verdict_entry(ProgramHash(8), &good).is_none());
        let version = format!("\"version\":{HASH_FORMAT_VERSION}");
        let bumped = good.replace(
            &version,
            &format!("\"version\":{}", HASH_FORMAT_VERSION + 1),
        );
        assert!(read_verdict_entry(key, &bumped).is_none());
        let foreign = good.replace(VERDICT_FORMAT, OBLIGATION_FORMAT);
        assert!(read_verdict_entry(key, &foreign).is_none());
        // Truncation, trailing garbage, and a body that does not decode.
        assert!(read_verdict_entry(key, "").is_none());
        assert!(read_verdict_entry(key, &good[..good.len() / 2]).is_none());
        assert!(read_verdict_entry(key, &format!("{good}garbage")).is_none());
        assert!(read_verdict_entry(key, &good.replace("\"exec2\"", "\"exec3\"")).is_none());
        assert!(read_verdict_entry(key, &good.replace("\"report\"", "\"status\"")).is_none());
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let mut cache = VerdictCache::new(CacheConfig::memory_only(2));
        let r = VerifierReport {
            program: "p".into(),
            obligations: vec![],
            errors: vec![],
            hints: vec![],
        };
        cache.put(ProgramHash(1), &r);
        cache.put(ProgramHash(2), &r);
        assert!(cache.get(ProgramHash(1)).is_some()); // 1 is now fresher than 2
        cache.put(ProgramHash(3), &r); // evicts 2
        assert_eq!(cache.memory_len(), 2);
        assert!(cache.get(ProgramHash(2)).is_none());
        assert!(cache.get(ProgramHash(1)).is_some());
        assert!(cache.get(ProgramHash(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 3);
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = temp_dir("disk");
        let program = ok_program("disk-tier");
        let config = VerifierConfig::default();
        let key = program_hash(&program, &config);
        let report = verify(&program, &config);

        {
            let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
            cache.put(key, &report);
        }
        // A fresh cache (fresh process, conceptually) hits via disk.
        let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
        let loaded = cache.get(key).expect("disk hit");
        assert_eq!(loaded.to_json(), report.to_json());
        assert_eq!(cache.stats().disk_hits, 1);
        // Promotion: the second lookup is a memory hit.
        assert!(cache.get(key).is_some());
        assert_eq!(cache.stats().memory_hits, 1);

        // Corrupt the file: the next fresh cache treats it as a miss and
        // removes it.
        let path = cache.verdict_path(key).unwrap();
        fs::write(&path, "commcsl-verdict 999\nnot a verdict").unwrap();
        let mut fresh = VerdictCache::new(CacheConfig::persistent(&dir));
        assert!(fresh.get(key).is_none());
        assert!(!path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backend_config_change_is_a_cache_miss_never_stale() {
        use commcsl_smt::BackendKind;

        let program = ok_program("backend-miss");
        let incremental_config = VerifierConfig::default();
        let fresh_config = VerifierConfig {
            backend: BackendKind::Fresh,
            ..Default::default()
        };
        let dir = temp_dir("backend-miss");
        let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));

        let incremental_key = program_hash(&program, &incremental_config);
        cache.put(incremental_key, &verify(&program, &incremental_config));

        // A different backend (or counterexample knob) is a different
        // address: the stored verdict is never served for it.
        let fresh_key = program_hash(&program, &fresh_config);
        assert_ne!(incremental_key, fresh_key);
        assert!(cache.get(fresh_key).is_none(), "must miss, never stale");
        assert!(cache.get(incremental_key).is_some());

        let nocex_key = program_hash(
            &program,
            &VerifierConfig {
                counterexamples: false,
                ..Default::default()
            },
        );
        assert_ne!(incremental_key, nocex_key);
        assert!(cache.get(nocex_key).is_none());

        // An entry in the old line format where a JSON entry is expected
        // is never served: it is a miss, and the file is deleted.
        let path = cache.verdict_path(incremental_key).unwrap();
        for header in [
            "commcsl-verdict 5",
            &format!("commcsl-verdict {HASH_FORMAT_VERSION}"),
        ] {
            let line_format =
                format!("{header}\nkey {incremental_key}\nprogram backend-miss\nproved low-output\t-\tLow(x)\n");
            fs::write(&path, line_format).unwrap();
            let mut restarted = VerdictCache::new(CacheConfig::persistent(&dir));
            assert!(
                restarted.get(incremental_key).is_none(),
                "must miss, never stale"
            );
            assert!(!path.exists(), "line-format file deleted");
        }
        let obligation = cache.obligation_path(ObligationKey(3)).unwrap();
        fs::create_dir_all(obligation.parent().unwrap()).unwrap();
        fs::write(
            &obligation,
            format!(
                "commcsl-obligation {HASH_FORMAT_VERSION}\nkey {}\nproved\n",
                ObligationKey(3)
            ),
        )
        .unwrap();
        let mut restarted = VerdictCache::new(CacheConfig::persistent(&dir));
        assert_eq!(restarted.get_obligation(ObligationKey(3)), None);
        assert!(!obligation.exists(), "line-format obligation file deleted");
        // Files of the previous format version live in their own
        // directory, which this version never reads.
        let orphan = dir.join("v5").join(format!("{incremental_key}.verdict"));
        fs::create_dir_all(orphan.parent().unwrap()).unwrap();
        fs::write(
            &orphan,
            verdict_entry(incremental_key, &verify(&program, &incremental_config)),
        )
        .unwrap();
        assert!(restarted.get(incremental_key).is_none());
        assert!(orphan.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obligation_statuses_roundtrip_all_shapes_and_reject_mismatches() {
        let statuses = [
            ObligationStatus::Proved,
            ObligationStatus::Failed(Failure::new("tab\there \nand \\slash")),
            ObligationStatus::Failed(
                Failure::new("with cex").with_counterexample(Counterexample {
                    bindings: vec![
                        CexBinding {
                            var: "h\t".into(),
                            exec1: "Int(0)".into(),
                            exec2: "Int(\n1)".into(),
                        },
                        CexBinding {
                            var: "k".into(),
                            exec1: "Seq([])".into(),
                            exec2: "Seq([])".into(),
                        },
                    ],
                }),
            ),
            ObligationStatus::Failed(
                Failure::new("empty cex").with_counterexample(Counterexample::default()),
            ),
        ];
        let key = ObligationKey(99);
        let version = format!("\"version\":{HASH_FORMAT_VERSION}");
        for status in &statuses {
            let encoded = obligation_entry(key, status);
            assert_eq!(read_obligation_entry(key, &encoded).as_ref(), Some(status));
            // Wrong key, version or format, truncation, trailing garbage:
            // miss.
            assert!(read_obligation_entry(ObligationKey(98), &encoded).is_none());
            let bumped = encoded.replace(
                &version,
                &format!("\"version\":{}", HASH_FORMAT_VERSION + 1),
            );
            assert!(read_obligation_entry(key, &bumped).is_none());
            let foreign = encoded.replace(OBLIGATION_FORMAT, VERDICT_FORMAT);
            assert!(read_obligation_entry(key, &foreign).is_none());
            assert!(read_obligation_entry(key, &encoded[..encoded.len() / 2]).is_none());
            assert!(read_obligation_entry(key, &format!("{encoded}junk\n")).is_none());
        }
        // A verdict entry at an obligation's address is a miss too.
        let report = VerifierReport {
            program: "p".into(),
            obligations: vec![],
            errors: vec![],
            hints: vec![],
        };
        let misplaced = verdict_entry(ProgramHash(key.0), &report);
        assert!(read_obligation_entry(key, &misplaced).is_none());
    }

    #[test]
    fn obligation_tier_lru_disk_and_corruption_behave_like_the_program_tier() {
        let dir = temp_dir("obl");
        let status = ObligationStatus::Failed(Failure::new("nope"));
        {
            let mut cache = VerdictCache::new(CacheConfig {
                obligation_capacity: 2,
                ..CacheConfig::persistent(&dir)
            });
            cache.put_obligation(ObligationKey(1), &ObligationStatus::Proved);
            cache.put_obligation(ObligationKey(2), &status);
            cache.put_obligation(ObligationKey(3), &ObligationStatus::Proved);
            // Capacity 2: key 1 was evicted from memory...
            assert_eq!(cache.obligation_len(), 2);
            // ...but survives on disk, and promotes back on lookup.
            assert_eq!(
                cache.get_obligation(ObligationKey(1)),
                Some(ObligationStatus::Proved)
            );
            assert_eq!(cache.get_obligation(ObligationKey(2)), Some(status.clone()));
            let stats = cache.stats();
            assert_eq!(stats.obligation_stores, 3);
            assert_eq!(stats.obligation_hits, 2);
        }
        // A fresh cache (restart) hits via disk; a corrupt file is a miss
        // and is deleted.
        let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
        assert_eq!(cache.get_obligation(ObligationKey(2)), Some(status));
        let path = cache.obligation_path(ObligationKey(3)).unwrap();
        fs::write(&path, "commcsl-obligation 999\ngarbage").unwrap();
        assert_eq!(cache.get_obligation(ObligationKey(3)), None);
        assert!(!path.exists(), "corrupt obligation file deleted");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remote_tier_chains_behind_local_tiers_and_validates() {
        /// A toy remote backend: a shared in-memory map of raw entries.
        struct SharedRemote(Arc<Mutex<HashMap<ObligationKey, String>>>);

        impl RemoteObligationTier for SharedRemote {
            fn fetch(&mut self, key: ObligationKey) -> Option<String> {
                self.0.lock().unwrap().get(&key).cloned()
            }
            fn publish(&mut self, key: ObligationKey, entry: &str) {
                self.0.lock().unwrap().insert(key, entry.to_owned());
            }
            fn endpoint(&self) -> String {
                "test://shared".into()
            }
        }

        let backing = Arc::new(Mutex::new(HashMap::new()));
        let mut a = VerdictCache::new(CacheConfig::memory_only(8));
        a.set_remote(Box::new(SharedRemote(Arc::clone(&backing))));
        assert_eq!(a.remote_endpoint().as_deref(), Some("test://shared"));
        let status = ObligationStatus::Failed(Failure::new("nope"));
        a.put_obligation(ObligationKey(5), &status);
        assert_eq!(a.stats().remote_stores, 1);

        // A shared-nothing cache pointed at the same remote hits it and
        // promotes the status locally.
        let mut b = VerdictCache::new(CacheConfig::memory_only(8));
        b.set_remote(Box::new(SharedRemote(Arc::clone(&backing))));
        assert_eq!(b.get_obligation(ObligationKey(5)), Some(status.clone()));
        let stats = b.stats();
        assert_eq!((stats.remote_hits, stats.obligation_hits), (1, 1));
        assert_eq!(b.get_obligation(ObligationKey(5)), Some(status));
        assert_eq!(b.stats().remote_hits, 1, "second lookup is local");

        // Garbage and wrong-key remote entries are misses, never stale.
        backing.lock().unwrap().insert(ObligationKey(6), "garbage".into());
        assert_eq!(b.get_obligation(ObligationKey(6)), None);
        assert_eq!(b.stats().remote_misses, 1);
        let wrong = obligation_entry(ObligationKey(7), &ObligationStatus::Proved);
        backing.lock().unwrap().insert(ObligationKey(8), wrong);
        assert_eq!(b.get_obligation(ObligationKey(8)), None);
        assert_eq!(b.stats().remote_misses, 2);
    }

    #[test]
    fn export_and_import_roundtrip_raw_entries_between_caches() {
        let mut server = VerdictCache::new(CacheConfig::memory_only(8));
        let status = ObligationStatus::Failed(Failure::new("leak"));
        server.put_obligation(ObligationKey(11), &status);
        let report = VerifierReport {
            program: "p".into(),
            obligations: vec![],
            errors: vec![],
            hints: vec![],
        };
        server.put(ProgramHash(12), &report);

        // Export serves the raw entry text; absent keys export nothing.
        let obl_entry = server.export_obligation(ObligationKey(11)).unwrap();
        let verdict_entry = server.export_verdict(ProgramHash(12)).unwrap();
        assert!(server.export_obligation(ObligationKey(99)).is_none());
        assert!(server.export_verdict(ProgramHash(99)).is_none());

        // Import validates and admits into a shared-nothing cache.
        let mut client = VerdictCache::new(CacheConfig::memory_only(8));
        assert!(client.import_obligation(ObligationKey(11), &obl_entry));
        assert!(client.import_verdict(ProgramHash(12), &verdict_entry));
        assert_eq!(client.get_obligation(ObligationKey(11)), Some(status));
        assert_eq!(
            client.get(ProgramHash(12)).map(|r| r.to_json()),
            Some(report.to_json())
        );
        // Wrong-key and garbage entries are refused with no state change.
        assert!(!client.import_obligation(ObligationKey(13), &obl_entry));
        assert!(!client.import_verdict(ProgramHash(13), &verdict_entry));
        assert!(!client.import_obligation(ObligationKey(13), "garbage"));
        assert_eq!(client.get_obligation(ObligationKey(13)), None);
    }
}
