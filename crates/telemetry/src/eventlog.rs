//! A bounded, lock-sharded ring-buffer event log for long-lived
//! services.
//!
//! The daemon appends one [`EventRecord`] per request it serves; the
//! protocol's `logs` op (and `commcsl daemon logs`) reads them back.
//! Design constraints, in order:
//!
//! 1. **Bounded memory** — the log is a ring: once a shard is full, the
//!    oldest record in that shard is dropped and counted in
//!    [`EventLog::dropped`]. Readers can therefore detect gaps
//!    (`dropped > 0`, or a hole in the `seq` numbers) but the process
//!    never grows without bound.
//! 2. **Cheap concurrent appends** — records are spread round-robin
//!    (by sequence number) over independently locked shards, so
//!    concurrent sessions contend only 1/N of the time. Sequence
//!    numbers come from a single atomic and are globally unique and
//!    monotone starting at 1.
//! 3. **Ordered reads** — [`EventLog::since`] collects from every shard
//!    and sorts by `seq`, so readers always see a gap-free-or-accounted,
//!    strictly increasing stream regardless of sharding.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::json::Json;

/// One structured event, as appended by a service and read back through
/// the `logs` protocol op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Globally unique, strictly increasing sequence number (starting
    /// at 1). Gaps appear only when records were dropped.
    pub seq: u64,
    /// The protocol op (or pseudo-op such as `decode`) this event
    /// describes.
    pub op: String,
    /// The request id the event belongs to (daemon-assigned or
    /// client-supplied; empty when no request context exists).
    pub request_id: String,
    /// Wall-clock duration of the request in nanoseconds.
    pub dur_ns: u64,
    /// Outcome tag: `ok`, `error`, `decode_error`, ….
    pub outcome: String,
    /// Free-form detail (error message, slow-request aggregates, …);
    /// empty when there is nothing to add.
    pub detail: String,
}

impl EventRecord {
    /// Decodes what `Json::from(&record)` renders; a missing `detail` is
    /// empty.
    pub fn from_json(doc: &Json) -> Result<EventRecord, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("log event needs numeric `{key}`"))
        };
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("log event needs string `{key}`"))
        };
        Ok(EventRecord {
            seq: num("seq")?,
            op: text("op")?,
            request_id: text("request_id")?,
            dur_ns: num("dur_ns")?,
            outcome: text("outcome")?,
            detail: doc
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        })
    }
}

impl From<&EventRecord> for Json {
    /// One object with the record's fields in declaration order; `detail`
    /// is left out when empty.
    fn from(r: &EventRecord) -> Json {
        let mut fields = vec![
            ("seq", Json::Num(r.seq as f64)),
            ("op", Json::str(&r.op)),
            ("request_id", Json::str(&r.request_id)),
            ("dur_ns", Json::Num(r.dur_ns as f64)),
            ("outcome", Json::str(&r.outcome)),
        ];
        if !r.detail.is_empty() {
            fields.push(("detail", Json::str(&r.detail)));
        }
        Json::obj(fields)
    }
}

/// Number of independently locked shards. A small power of two: enough
/// to decorrelate a daemon's worth of sessions, cheap to scan on reads.
const SHARDS: usize = 8;

/// A bounded, lock-sharded ring buffer of [`EventRecord`]s.
///
/// ```
/// use commcsl_telemetry::eventlog::EventLog;
///
/// let log = EventLog::new(16);
/// let first = log.push("verify", "r1", 1_000, "ok", "");
/// let second = log.push("status", "r2", 500, "ok", "");
/// assert!(second > first);
/// let tail = log.since(first);
/// assert_eq!(tail.len(), 1);
/// assert_eq!(tail[0].op, "status");
/// assert_eq!(log.dropped(), 0);
/// ```
#[derive(Debug)]
pub struct EventLog {
    next_seq: AtomicU64,
    dropped: AtomicU64,
    shards: Vec<Mutex<VecDeque<EventRecord>>>,
    shard_capacity: usize,
}

impl EventLog {
    /// The capacity `EventLog::default()` uses.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A log retaining at least `capacity` records (rounded up to a
    /// multiple of the shard count; minimum one record per shard).
    pub fn new(capacity: usize) -> EventLog {
        let shard_capacity = capacity.div_ceil(SHARDS).max(1);
        EventLog {
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            shard_capacity,
        }
    }

    /// Total records the log retains before dropping.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARDS
    }

    /// Appends a record and returns its sequence number (≥ 1). Drops
    /// (and counts) the oldest record in the target shard when full.
    pub fn push(
        &self,
        op: &str,
        request_id: &str,
        dur_ns: u64,
        outcome: &str,
        detail: &str,
    ) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = &self.shards[(seq as usize) % SHARDS];
        let mut queue = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() == self.shard_capacity {
            queue.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(EventRecord {
            seq,
            op: op.to_owned(),
            request_id: request_id.to_owned(),
            dur_ns,
            outcome: outcome.to_owned(),
            detail: detail.to_owned(),
        });
        seq
    }

    /// Every retained record with `seq > after`, sorted by `seq`
    /// (strictly increasing). `since(0)` is the whole retained log.
    pub fn since(&self, after: u64) -> Vec<EventRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let queue = shard.lock().unwrap_or_else(PoisonError::into_inner);
            out.extend(queue.iter().filter(|r| r.seq > after).cloned());
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Number of records dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The last sequence number handed out (0 before the first push).
    pub fn last_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Number of currently retained records.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new(EventLog::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_unique_and_strictly_increasing() {
        let log = EventLog::new(64);
        let mut last = 0;
        for i in 0..20 {
            let seq = log.push("op", &format!("r{i}"), i, "ok", "");
            assert!(seq > last);
            last = seq;
        }
        let all = log.since(0);
        assert_eq!(all.len(), 20);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(log.last_seq(), 20);
    }

    #[test]
    fn since_filters_by_sequence() {
        let log = EventLog::new(64);
        for i in 0..10u64 {
            log.push("op", "", i, "ok", "");
        }
        let tail = log.since(7);
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![8, 9, 10]);
        assert!(log.since(10).is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_accounts_for_it() {
        let log = EventLog::new(8); // one record per shard
        assert_eq!(log.capacity(), 8);
        for i in 0..24u64 {
            log.push("op", "", i, "ok", "");
        }
        assert_eq!(log.len(), 8);
        assert_eq!(log.dropped(), 16);
        // The retained window is the newest capacity() records: with
        // round-robin sharding and uniform pushes, exactly the last 8.
        let retained: Vec<u64> = log.since(0).iter().map(|r| r.seq).collect();
        assert_eq!(retained, (17..=24).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_pushes_keep_sequences_unique() {
        let log = EventLog::new(1024);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..50 {
                        log.push("op", &format!("t{t}-{i}"), 0, "ok", "");
                    }
                });
            }
        });
        let all = log.since(0);
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn a_poisoned_shard_still_records() {
        let log = EventLog::new(64);
        // The first record lands in shard 1.
        let _ = std::panic::catch_unwind(|| {
            let _held = log.shards[1].lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poisoning an event log shard");
        });
        assert!(log.shards[1].is_poisoned());
        assert_eq!(log.push("verify", "req-1", 5, "ok", ""), 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.since(0)[0].request_id, "req-1");
    }

    #[test]
    fn records_carry_their_fields() {
        let log = EventLog::default();
        log.push("verify", "req-7", 1_234_567, "error", "bad request: nope");
        let all = log.since(0);
        assert_eq!(all.len(), 1);
        let r = &all[0];
        assert_eq!(
            (r.op.as_str(), r.request_id.as_str(), r.dur_ns, r.outcome.as_str()),
            ("verify", "req-7", 1_234_567, "error")
        );
        assert_eq!(r.detail, "bad request: nope");
    }

    #[test]
    fn records_round_trip_through_json_and_omit_an_empty_detail() {
        let log = EventLog::default();
        log.push("verify", "req-1", 42, "ok", "");
        log.push("status", "req-2", 7, "error", "bad request: nope");
        let records = log.since(0);
        let rendered: Vec<String> = records.iter().map(|r| Json::from(r).to_string()).collect();
        assert_eq!(
            rendered[0],
            r#"{"seq":1,"op":"verify","request_id":"req-1","dur_ns":42,"outcome":"ok"}"#
        );
        assert!(rendered[1].ends_with(r#","detail":"bad request: nope"}"#));
        for (record, line) in records.iter().zip(&rendered) {
            let back = EventRecord::from_json(&Json::parse(line).unwrap()).unwrap();
            assert_eq!(&back, record);
        }
        assert!(EventRecord::from_json(&Json::parse(r#"{"seq":1}"#).unwrap()).is_err());
    }
}
