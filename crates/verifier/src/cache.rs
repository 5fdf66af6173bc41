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
//!   `.commcsl-cache/`): one append-only log per tier, one
//!   self-validating JSON entry per line.
//!
//! Invalidation is structural, never temporal: a record is served only
//! when its format version and embedded key match the requested key and
//! its body decodes completely. Anything else — a corrupt or torn
//! record, an entry in the old line format, a record of another format
//! version — is a cache **miss**, never a stale verdict. A
//! [`HASH_FORMAT_VERSION`] bump changes every key and the tier directory
//! name, so it orphans (never misreads) every old log.
//!
//! Alongside the whole-program verdict tiers, the cache carries an
//! **obligation tier**: per-obligation [`ObligationStatus`]es addressed
//! by [`ObligationKey`] (the dependency-cone hash of
//! [`crate::obligation`]). This is the store behind
//! [`Workspace`](crate::workspace::Workspace) re-verification — an edit
//! that misses the program tier still replays every obligation whose
//! cone it left untouched. The tier follows the same rules: in-memory
//! LRU, optional on-disk log, structural validation, corrupt ⇒ miss.
//!
//! # The disk tier
//!
//! `<disk_dir>/v<HASH_FORMAT_VERSION>/verdicts.log` and `obligations.log`
//! hold one entry per line (escaped JSON has no raw newline):
//!
//! * Opening the cache scans each log once into an index from key to the
//!   record's offset and length. The index holds no entry text.
//! * A put is one `write` of the entry and its newline on an `O_APPEND`
//!   descriptor, so writers in several processes append whole records.
//!   It is skipped when the index already holds the key: entries are
//!   content-addressed and never change.
//! * A hit is one positioned read plus the entry's validation. A record
//!   that fails it is dropped from the index, so a later put of its key
//!   appends a record that supersedes it.
//! * A key the index lacks is looked up once more after indexing the
//!   complete records that other writers appended since the last scan,
//!   so caches in several processes can share one directory.
//! * Bytes after the last newline (a torn tail: a writer that died
//!   mid-append, or one still appending) are never indexed, and the next
//!   put starts with a newline so it cannot glue onto them. The log is
//!   never truncated or rewritten, because another process may be
//!   mid-append.
//!
//! Per-entry files that earlier builds wrote beside the logs
//! (`<hash>.verdict`, `obl/<key>.obl`) are never read.
//!
//! [`Verifier::with_cache`](crate::api::Verifier::with_cache) puts a
//! cache in front of the pipeline: its batches answer hits from here and
//! run only the misses, against the obligation tier.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::hash::Hash;
use std::io::{Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Mutex, MutexGuard, PoisonError};

use commcsl_telemetry::Json;

use crate::hash::{ProgramHash, HASH_FORMAT_VERSION};
use crate::obligation::{ObligationKey, ObligationStore};
use crate::report::{ObligationStatus, VerifierReport};

// ----------------------------------------------------------------- entries
//
// Log records and remote-cache payloads are one self-validating JSON
// entry: `{"format":…,"version":HASH_FORMAT_VERSION,"key":…,"report"|"status":…}`
// around the report's (or status's) own JSON codec.

const VERDICT_FORMAT: &str = "commcsl-verdict";
const OBLIGATION_FORMAT: &str = "commcsl-obligation";

/// Wraps `body` in an entry naming its format, [`HASH_FORMAT_VERSION`]
/// and its own key, so a record served for the wrong key, or written by
/// another format version, is rejected on load.
fn entry(format: &'static str, key: impl ToString, field: &'static str, body: Json) -> String {
    Json::obj([
        ("format", Json::str(format)),
        ("version", Json::Num(f64::from(HASH_FORMAT_VERSION))),
        ("key", Json::str(key.to_string())),
        (field, body),
    ])
    .to_string()
}

/// The text [`entry`] writes before the key: a log scan indexes a line
/// by it without parsing the line, and reads validate the whole entry.
fn entry_prefix(format: &str) -> String {
    format!("{{\"format\":\"{format}\",\"version\":{HASH_FORMAT_VERSION},\"key\":\"")
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

// --------------------------------------------------------------- disk tier

/// File names of the two logs inside the version directory.
const VERDICT_LOG: &str = "verdicts.log";
const OBLIGATION_LOG: &str = "obligations.log";
/// Bytes a scan reads at once, so indexing a large log stays small.
const SCAN_CHUNK: u64 = 1 << 20;

/// One append-only log of entries of one format (see the module docs).
struct Log<K> {
    file: File,
    /// [`entry_prefix`] of this log's format.
    prefix: String,
    /// key → (offset, length) of its newest indexed record.
    index: HashMap<K, (u64, u32)>,
    /// Offset just past the last complete line indexed.
    scanned: u64,
    /// The log's length when last looked at; `scanned < end` means it
    /// ended in a torn tail.
    end: u64,
}

impl<K: Copy + Eq + Hash + FromStr> Log<K> {
    /// Opens (creating) and indexes the log at `path`; `None` when it
    /// cannot be opened, which leaves the tier memory-only.
    fn open(path: &Path, format: &str) -> Option<Log<K>> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .ok()?;
        let mut log = Log {
            file,
            prefix: entry_prefix(format),
            index: HashMap::new(),
            scanned: 0,
            end: 0,
        };
        log.catch_up();
        Some(log)
    }

    fn holds(&self, key: K) -> bool {
        self.index.contains_key(&key)
    }

    /// Indexes the complete records appended since the last scan, by any
    /// writer, reading at most [`SCAN_CHUNK`] bytes (plus one record) at
    /// a time. A later record of a key supersedes an earlier one.
    fn catch_up(&mut self) {
        let len = self.file.metadata().map_or(0, |m| m.len());
        if len <= self.end {
            return;
        }
        let mut pending = Vec::new();
        let mut read = self.scanned;
        while read < len {
            let start = pending.len();
            let more = (len - read).min(SCAN_CHUNK);
            pending.resize(start + more as usize, 0);
            if self
                .file
                .read_exact_at(&mut pending[start..], read)
                .is_err()
            {
                return;
            }
            read += more;
            let mut line = 0;
            while let Some(newline) = pending[line..].iter().position(|&b| b == b'\n') {
                let key = pending[line..line + newline]
                    .strip_prefix(self.prefix.as_bytes())
                    .and_then(|rest| rest.split(|&b| b == b'"').next())
                    .and_then(|key| std::str::from_utf8(key).ok()?.parse().ok());
                if let (Some(key), Ok(length)) = (key, u32::try_from(newline)) {
                    self.index.insert(key, (self.scanned, length));
                }
                self.scanned += newline as u64 + 1;
                line += newline + 1;
            }
            pending.drain(..line);
        }
        self.end = len;
    }

    /// Reads `key`'s record and decodes it. A record that cannot be read
    /// or does not decode is dropped from the index, so a later put of
    /// the key appends one that supersedes it.
    fn load<T>(&mut self, key: K, decode: impl FnOnce(&str) -> Option<T>) -> Option<(String, T)> {
        if !self.holds(key) {
            self.catch_up();
        }
        let &(offset, length) = self.index.get(&key)?;
        let mut bytes = vec![0; length as usize];
        let loaded = self
            .file
            .read_exact_at(&mut bytes, offset)
            .ok()
            .and_then(|()| String::from_utf8(bytes).ok())
            .and_then(|text| decode(&text).map(|value| (text, value)));
        if loaded.is_none() {
            self.index.remove(&key);
        }
        loaded
    }

    /// Appends `entry` (one line, no raw newline) as `key`'s record,
    /// unless the index already holds the key. A failed write only
    /// means the entry is recomputed after a restart.
    fn append(&mut self, key: K, entry: &str) {
        if self.holds(key) {
            return;
        }
        let Ok(length) = u32::try_from(entry.len()) else {
            return;
        };
        let separator = if self.scanned < self.end { "\n" } else { "" };
        let record = format!("{separator}{entry}\n");
        if (&self.file).write_all(record.as_bytes()).is_err() {
            return;
        }
        // After an append the descriptor's offset is the record's end.
        let Ok(after) = (&self.file).stream_position() else {
            return;
        };
        self.index
            .insert(key, (after - 1 - u64::from(length), length));
        if after - record.len() as u64 == self.end {
            // Nobody appended since the last look: nothing to re-scan.
            self.scanned = after;
            self.end = after;
        }
    }
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
    /// are appended to `<disk_dir>/v<HASH_FORMAT_VERSION>/verdicts.log`
    /// and obligation statuses to `…/obligations.log`, so a
    /// format-version bump orphans (never misreads) old logs. A directory
    /// that cannot be created leaves the cache memory-only.
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
    /// The disk tier's logs (`None` without a usable `disk_dir`).
    verdict_log: Option<Log<ProgramHash>>,
    obligation_log: Option<Log<ObligationKey>>,
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

/// Locks a shared cache, recovering it when a thread panicked while
/// holding it. That is safe: the memory tiers hold whole values, so a
/// panic cannot leave half a verdict in them; every disk record
/// validates itself on read; and an LRU order torn mid-update only
/// delays an eviction. Without this, one panicking request would make
/// every later lookup through the cache panic too.
pub fn lock_cache(cache: &Mutex<VerdictCache>) -> MutexGuard<'_, VerdictCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

impl VerdictCache {
    /// Creates a cache, creating and indexing its disk tier at once.
    pub fn new(config: CacheConfig) -> Self {
        let tier = config
            .disk_dir
            .as_ref()
            .map(|d| d.join(format!("v{HASH_FORMAT_VERSION}")))
            .filter(|dir| fs::create_dir_all(dir).is_ok());
        VerdictCache {
            verdict_log: tier
                .as_ref()
                .and_then(|dir| Log::open(&dir.join(VERDICT_LOG), VERDICT_FORMAT)),
            obligation_log: tier
                .as_ref()
                .and_then(|dir| Log::open(&dir.join(OBLIGATION_LOG), OBLIGATION_FORMAT)),
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

    fn touch(&mut self, key: ProgramHash) {
        if let Some((stamp, _)) = self.entries.get_mut(&key) {
            self.lru.remove(stamp);
            self.clock += 1;
            *stamp = self.clock;
            self.lru.insert(self.clock, key);
        }
    }

    /// Looks up a verdict: memory first, then disk (with promotion).
    pub fn get(&mut self, key: ProgramHash) -> Option<VerifierReport> {
        let _span = commcsl_telemetry::span!("cache.get");
        if self.entries.contains_key(&key) {
            self.touch(key);
            self.stats.memory_hits += 1;
            return self.entries.get(&key).map(|(_, r)| r.clone());
        }
        let loaded = self
            .verdict_log
            .as_mut()
            .and_then(|log| log.load(key, |text| read_verdict_entry(key, text)));
        match loaded {
            Some((_, report)) => {
                self.stats.disk_hits += 1;
                self.insert_memory(key, report.clone());
                Some(report)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a verdict in both tiers.
    pub fn put(&mut self, key: ProgramHash, report: &VerifierReport) {
        let _span = commcsl_telemetry::span!("cache.put");
        if let Some(log) = self.verdict_log.as_mut().filter(|log| !log.holds(key)) {
            log.append(key, &verdict_entry(key, report));
        }
        self.stats.stores += 1;
        self.insert_memory(key, report.clone());
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
    /// are promoted to both local tiers). Corrupt disk records and
    /// invalid remote entries count as misses — every tier is
    /// structurally validated, never trusted.
    pub fn get_obligation(&mut self, key: ObligationKey) -> Option<ObligationStatus> {
        let _span = commcsl_telemetry::span!("cache.obligation_get");
        if self.obligations.contains_key(&key) {
            self.touch_obligation(key);
            self.stats.obligation_hits += 1;
            return self.obligations.get(&key).map(|(_, s)| s.clone());
        }
        let loaded = self
            .obligation_log
            .as_mut()
            .and_then(|log| log.load(key, |text| read_obligation_entry(key, text)));
        if let Some((_, status)) = loaded {
            self.stats.obligation_hits += 1;
            self.insert_obligation_memory(key, status.clone());
            return Some(status);
        }
        if let Some(remote) = self.remote.as_mut() {
            let fetched = remote.fetch(key);
            if let Some(status) = fetched
                .as_deref()
                .and_then(|text| read_obligation_entry(key, text))
            {
                self.stats.remote_hits += 1;
                self.stats.obligation_hits += 1;
                // Promote to both local tiers, re-encoded: the log holds
                // only this encoder's one-line entries.
                if let Some(log) = self.obligation_log.as_mut() {
                    log.append(key, &obligation_entry(key, &status));
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
        if let Some(log) = self.obligation_log.as_mut() {
            log.append(key, &entry);
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
        let log = self.obligation_log.as_mut()?;
        log.load(key, |text| read_obligation_entry(key, text))
            .map(|(text, _)| text)
    }

    /// Exports the raw self-validating entry for a verdict held in the
    /// local tiers. `None` when neither local tier has a valid entry.
    pub fn export_verdict(&mut self, key: ProgramHash) -> Option<String> {
        if let Some((_, report)) = self.entries.get(&key) {
            return Some(verdict_entry(key, report));
        }
        let log = self.verdict_log.as_mut()?;
        log.load(key, |text| read_verdict_entry(key, text))
            .map(|(text, _)| text)
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
        lock_cache(self.0).get_obligation(key)
    }

    fn put(&mut self, key: ObligationKey, status: &ObligationStatus) {
        lock_cache(self.0).put_obligation(key, status);
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

    /// A log file of the current format version under `dir`.
    fn log_path(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("v{HASH_FORMAT_VERSION}")).join(name)
    }

    /// Breaks the body of `key`'s first record in place, keeping the
    /// record's line, header and length (a bit flip on disk).
    fn corrupt(log: &Path, key: impl ToString) {
        let text = fs::read_to_string(log).unwrap();
        let header = format!("\"key\":\"{}\",", key.to_string());
        let body = text.find(&header).expect("record present") + header.len();
        let file = OpenOptions::new().write(true).open(log).unwrap();
        file.write_all_at(b"#", body as u64).unwrap();
    }

    fn tiny_report(program: &str) -> VerifierReport {
        VerifierReport {
            program: program.into(),
            obligations: vec![],
            errors: vec![],
            hints: vec![],
        }
    }

    #[test]
    fn entries_start_with_the_prefix_a_scan_indexes_them_by() {
        let verdict = verdict_entry(ProgramHash(1), &crate::report::tests::nasty_report());
        assert!(verdict.starts_with(&entry_prefix(VERDICT_FORMAT)));
        let obligation = obligation_entry(ObligationKey(2), &ObligationStatus::Proved);
        assert!(obligation.starts_with(&entry_prefix(OBLIGATION_FORMAT)));
        assert!(!verdict.contains('\n') && !obligation.contains('\n'));
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

        // Corrupt the record: the next fresh cache treats it as a miss,
        // and a later put of the key supersedes it.
        let log = log_path(&dir, VERDICT_LOG);
        corrupt(&log, key);
        let corrupted = fs::metadata(&log).unwrap().len();
        let mut fresh = VerdictCache::new(CacheConfig::persistent(&dir));
        assert!(fresh.get(key).is_none());
        assert!(fresh.export_verdict(key).is_none());
        fresh.put(key, &report);
        assert!(
            fs::metadata(&log).unwrap().len() > corrupted,
            "appended, never rewritten"
        );
        let mut reopened = VerdictCache::new(CacheConfig::persistent(&dir));
        let served = reopened.get(key).expect("the later record is served");
        assert_eq!(served.to_json(), report.to_json());
        assert_eq!(reopened.stats().disk_hits, 1);
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
        let report = verify(&program, &incremental_config);
        cache.put(incremental_key, &report);

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

        // Records that are not entries of this format version are never
        // served: the line format of versions up to 5 (whatever version
        // its header names), an entry of another format version, and an
        // obligation entry at a verdict's key.
        let foreign = temp_dir("backend-miss-foreign");
        fs::create_dir_all(foreign.join(format!("v{HASH_FORMAT_VERSION}"))).unwrap();
        let good = verdict_entry(incremental_key, &report);
        let version = format!("\"version\":{HASH_FORMAT_VERSION}");
        let mut records = String::new();
        for header in [
            "commcsl-verdict 5",
            &format!("commcsl-verdict {HASH_FORMAT_VERSION}"),
        ] {
            records += &format!(
                "{header}\nkey {incremental_key}\nprogram backend-miss\nproved low-output\t-\tLow(x)\n"
            );
        }
        records += &good.replace(
            &version,
            &format!("\"version\":{}", HASH_FORMAT_VERSION + 1),
        );
        records += "\n";
        records += &obligation_entry(ObligationKey(incremental_key.0), &ObligationStatus::Proved);
        records += "\n";
        fs::write(log_path(&foreign, VERDICT_LOG), records).unwrap();
        fs::write(
            log_path(&foreign, OBLIGATION_LOG),
            format!(
                "commcsl-obligation {HASH_FORMAT_VERSION}\nkey {}\nproved\n{}\n",
                ObligationKey(3),
                verdict_entry(ProgramHash(3), &report),
            ),
        )
        .unwrap();
        let mut restarted = VerdictCache::new(CacheConfig::persistent(&foreign));
        assert!(
            restarted.get(incremental_key).is_none(),
            "must miss, never stale"
        );
        assert_eq!(restarted.get_obligation(ObligationKey(3)), None);
        assert_eq!(
            restarted.get_obligation(ObligationKey(incremental_key.0)),
            None
        );

        // A log of the previous format version lives in its own
        // directory, which this version never reads.
        let orphan = foreign.join("v5").join(VERDICT_LOG);
        fs::create_dir_all(orphan.parent().unwrap()).unwrap();
        fs::write(&orphan, format!("{good}\n")).unwrap();
        let mut restarted = VerdictCache::new(CacheConfig::persistent(&foreign));
        assert!(restarted.get(incremental_key).is_none());
        assert!(orphan.exists());
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&foreign).ok();
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
        // A fresh cache (restart) hits via disk; a corrupt record is a
        // miss, and a later put of its key supersedes it.
        let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
        assert_eq!(cache.get_obligation(ObligationKey(2)), Some(status));
        corrupt(&log_path(&dir, OBLIGATION_LOG), ObligationKey(3));
        assert_eq!(cache.get_obligation(ObligationKey(3)), None);
        assert_eq!(cache.stats().obligation_misses, 1);
        cache.put_obligation(ObligationKey(3), &ObligationStatus::Proved);
        let mut reopened = VerdictCache::new(CacheConfig::persistent(&dir));
        assert_eq!(
            reopened.get_obligation(ObligationKey(3)),
            Some(ObligationStatus::Proved)
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_tail_serves_every_complete_record_and_the_next_put_starts_a_line() {
        let dir = temp_dir("torn");
        let failed = ObligationStatus::Failed(Failure::new("torn"));
        let status = |k: u128| {
            if k.is_multiple_of(2) {
                failed.clone()
            } else {
                ObligationStatus::Proved
            }
        };
        {
            let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
            for k in 1..=3 {
                cache.put_obligation(ObligationKey(k), &status(k));
                cache.put(ProgramHash(k), &tiny_report("torn"));
            }
        }
        // Cut both logs in the middle of their last record, as a writer
        // that died mid-append leaves them.
        let logs = [log_path(&dir, OBLIGATION_LOG), log_path(&dir, VERDICT_LOG)];
        let mut cuts = Vec::new();
        for log in &logs {
            let full = fs::read(log).unwrap();
            let cut = full[..full.len() - 1].to_vec();
            let cut = cut[..cut.len() - 10].to_vec();
            fs::write(log, &cut).unwrap();
            cuts.push(cut);
        }
        let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
        for k in 1..=2 {
            assert_eq!(cache.get_obligation(ObligationKey(k)), Some(status(k)));
            assert!(cache.get(ProgramHash(k)).is_some());
        }
        assert_eq!(
            cache.get_obligation(ObligationKey(3)),
            None,
            "no partial record"
        );
        assert!(cache.get(ProgramHash(3)).is_none(), "no partial record");
        assert!(cache.export_obligation(ObligationKey(3)).is_none());

        // The next puts land on their own lines after the fragment.
        for k in 3..=4 {
            cache.put_obligation(ObligationKey(k), &status(k));
            cache.put(ProgramHash(k), &tiny_report("torn"));
        }
        for (log, cut) in logs.iter().zip(&cuts) {
            let after = fs::read(log).unwrap();
            assert!(after.starts_with(cut), "the log is never truncated");
            assert_eq!(after[cut.len()], b'\n', "not glued to the fragment");
            assert!(after.ends_with(b"\n"));
        }
        drop(cache);
        let mut reopened = VerdictCache::new(CacheConfig::persistent(&dir));
        for k in 1..=4 {
            assert_eq!(reopened.get_obligation(ObligationKey(k)), Some(status(k)));
            assert!(reopened.get(ProgramHash(k)).is_some());
        }
        let stats = reopened.stats();
        assert_eq!((stats.obligation_hits, stats.disk_hits), (4, 4));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_corrupted_mid_log_is_a_miss_until_put_again() {
        let dir = temp_dir("mid");
        let report = tiny_report("mid");
        {
            let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
            for k in 1..=3 {
                cache.put(ProgramHash(k), &report);
                cache.put_obligation(ObligationKey(k), &ObligationStatus::Proved);
            }
        }
        corrupt(&log_path(&dir, VERDICT_LOG), ProgramHash(2));
        corrupt(&log_path(&dir, OBLIGATION_LOG), ObligationKey(2));
        let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
        assert!(cache.get(ProgramHash(2)).is_none());
        assert_eq!(cache.get_obligation(ObligationKey(2)), None);
        for k in [1, 3] {
            assert!(cache.get(ProgramHash(k)).is_some());
            assert!(cache.get_obligation(ObligationKey(k)).is_some());
        }
        cache.put(ProgramHash(2), &report);
        cache.put_obligation(ObligationKey(2), &ObligationStatus::Proved);
        drop(cache);
        let mut reopened = VerdictCache::new(CacheConfig::persistent(&dir));
        for k in 1..=3 {
            let served = reopened.get(ProgramHash(k)).expect("served from disk");
            assert_eq!(served.to_json(), report.to_json());
            assert_eq!(
                reopened.get_obligation(ObligationKey(k)),
                Some(ObligationStatus::Proved)
            );
        }
        assert_eq!(reopened.stats().disk_hits, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn caches_sharing_a_directory_serve_each_others_puts() {
        let dir = temp_dir("shared");
        let report = tiny_report("shared");
        let failed = ObligationStatus::Failed(Failure::new("shared"));
        // Both open before either writes.
        let mut a = VerdictCache::new(CacheConfig::persistent(&dir));
        let mut b = VerdictCache::new(CacheConfig::persistent(&dir));
        a.put(ProgramHash(1), &report);
        a.put_obligation(ObligationKey(1), &ObligationStatus::Proved);
        b.put(ProgramHash(2), &report);
        b.put_obligation(ObligationKey(2), &failed);
        assert!(a.get(ProgramHash(2)).is_some());
        assert!(b.get(ProgramHash(1)).is_some());
        assert_eq!(a.get_obligation(ObligationKey(2)), Some(failed.clone()));
        assert_eq!(
            b.get_obligation(ObligationKey(1)),
            Some(ObligationStatus::Proved)
        );
        assert_eq!((a.stats().disk_hits, b.stats().disk_hits), (1, 1));
        // Interleaved again, after each has indexed the other's records.
        b.put(ProgramHash(3), &report);
        a.put(ProgramHash(4), &report);
        assert!(a.get(ProgramHash(3)).is_some() && b.get(ProgramHash(4)).is_some());
        drop((a, b));
        for _ in 0..2 {
            let mut reopened = VerdictCache::new(CacheConfig::persistent(&dir));
            for k in 1..=4 {
                let served = reopened.get(ProgramHash(k)).expect("every record");
                assert_eq!(served.to_json(), report.to_json());
            }
            assert_eq!(
                reopened.get_obligation(ObligationKey(1)),
                Some(ObligationStatus::Proved)
            );
            assert_eq!(
                reopened.get_obligation(ObligationKey(2)),
                Some(failed.clone())
            );
            assert_eq!(reopened.stats().disk_hits, 4);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appenders_leave_whole_records() {
        let dir = temp_dir("appenders");
        // Both caches are open before either appends, then append at once.
        let opened = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for writer in 0..2u128 {
                let (dir, opened) = (&dir, &opened);
                scope.spawn(move || {
                    let mut cache = VerdictCache::new(CacheConfig::persistent(dir));
                    opened.wait();
                    for k in 0..200 {
                        let status = ObligationStatus::Failed(Failure::new(format!("w{writer}")));
                        cache.put_obligation(ObligationKey(writer * 1000 + k), &status);
                    }
                });
            }
        });
        let mut reopened = VerdictCache::new(CacheConfig::persistent(&dir));
        for writer in 0..2u128 {
            for k in 0..200 {
                assert_eq!(
                    reopened.get_obligation(ObligationKey(writer * 1000 + k)),
                    Some(ObligationStatus::Failed(Failure::new(format!("w{writer}"))))
                );
            }
        }
        let log = fs::read_to_string(log_path(&dir, OBLIGATION_LOG)).unwrap();
        assert_eq!(log.lines().count(), 400);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_across_scan_chunks_are_all_indexed() {
        let dir = temp_dir("chunks");
        // 24 records of ~100 KB: several cross a scan-chunk boundary.
        let report = |k: u128| tiny_report(&format!("{k}{}", "x".repeat(100_000)));
        {
            let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
            for k in 0..24 {
                cache.put(ProgramHash(k), &report(k));
            }
        }
        let log = fs::metadata(log_path(&dir, VERDICT_LOG)).unwrap().len();
        assert!(log > 2 * SCAN_CHUNK);
        let mut reopened = VerdictCache::new(CacheConfig::persistent(&dir));
        for k in 0..24 {
            let served = reopened.get(ProgramHash(k)).expect("indexed");
            assert_eq!(served.to_json(), report(k).to_json());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn re_putting_an_indexed_key_appends_nothing() {
        let dir = temp_dir("reput");
        let report = tiny_report("reput");
        let lengths = || {
            [VERDICT_LOG, OBLIGATION_LOG]
                .map(|name| fs::metadata(log_path(&dir, name)).unwrap().len())
        };
        let mut cache = VerdictCache::new(CacheConfig::persistent(&dir));
        cache.put(ProgramHash(1), &report);
        cache.put_obligation(ObligationKey(1), &ObligationStatus::Proved);
        let stored = lengths();
        assert!(stored.iter().all(|&len| len > 0));
        cache.put(ProgramHash(1), &report);
        cache.put_obligation(ObligationKey(1), &ObligationStatus::Proved);
        let verdict = cache.export_verdict(ProgramHash(1)).unwrap();
        assert!(cache.import_verdict(ProgramHash(1), &verdict));
        assert_eq!(lengths(), stored);
        // A restarted cache knows the key from its scan.
        let mut reopened = VerdictCache::new(CacheConfig::persistent(&dir));
        reopened.put(ProgramHash(1), &report);
        reopened.put_obligation(ObligationKey(1), &ObligationStatus::Proved);
        assert_eq!(lengths(), stored);
        assert_eq!(reopened.stats().stores, 1, "still counted as a store");
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
