//! Structured observability for the CommCSL verification pipeline.
//!
//! Every performance-critical layer of the workspace — parsing/lowering,
//! the static pre-pass, per-obligation symbolic execution, solver
//! `check`/`sync`, verdict-cache lookups, daemon request handling — is
//! instrumented with the [`span!`] macro from this crate. The
//! instrumentation is **off by default** and designed to cost one relaxed
//! atomic load per call site when disabled, so the production path (and
//! every byte-identity pin in the workspace) is unaffected by it being
//! compiled in.
//!
//! # Model
//!
//! A *capture* is one profiling session: [`start_capture`] arms the
//! collector, instrumented code records [`SpanRecord`]s into thread-local
//! buffers (registered with a global collector on first use per thread),
//! and [`finish_capture`] disarms it and drains everything into a
//! [`Capture`]. Spans are RAII guards with a static label and optional
//! key/value fields; each completed span knows its full enclosing stack
//! (for flamegraph folding), its wall-clock duration on a monotonic
//! clock, and the time spent in child spans (so *self* time is exact).
//!
//! Cumulative counters ride along in the same capture:
//! [`counter_add`] is a no-op while disabled, and the drained capture
//! reports them as one sorted snapshot. Long-lived processes (the
//! daemon) that keep their own atomic counters can export them through
//! the same [`MetricsSnapshot`] shape without arming a capture.
//!
//! # Service observability
//!
//! Two further primitives serve long-lived services rather than
//! one-shot profiling captures, and are therefore **always on**:
//!
//! * [`hist`] — log-linear latency [`hist::Histogram`]s (record /
//!   merge / quantile with a ~3.1% bounded relative error and a
//!   canonical JSON form).
//! * [`eventlog`] — a bounded, lock-sharded ring-buffer
//!   [`eventlog::EventLog`] of structured per-request records
//!   (monotonic sequence number, op, request id, duration, outcome)
//!   with drop accounting.
//!
//! The daemon records one histogram sample and one event-log entry per
//! request; the protocol's `histograms` and `logs` ops read them back
//! (see `docs/observability.md`).
//!
//! # JSON
//!
//! [`json::Json`] is the workspace's one JSON value type, parser and
//! writer. It lives here, in the crate every layer links, so histograms,
//! metric snapshots, lints and verification reports can each keep their
//! one encoder (a `From<&T> for Json` impl) and one decoder
//! (`T::from_json`) beside the type.
//!
//! # Exporters
//!
//! * [`export::chrome_trace`] — Chrome trace-event JSON (an array of
//!   `"ph":"X"` complete events with per-thread tracks), loadable by
//!   `chrome://tracing` and Perfetto.
//! * [`export::folded_stacks`] — folded-stack text (`a;b;c weight` per
//!   line, sorted), the input format of flamegraph tools. Weights are
//!   self-time nanoseconds by default, or deterministic call counts for
//!   byte-reproducible diffing (see [`export::FoldedWeight`]).
//!
//! # Example
//!
//! ```
//! use commcsl_telemetry as telemetry;
//!
//! telemetry::start_capture();
//! {
//!     let _outer = telemetry::span!("demo.outer");
//!     let _inner = telemetry::span!("demo.inner", items = 3);
//!     telemetry::counter_add("demo.items", 3);
//! }
//! let capture = telemetry::finish_capture();
//! assert_eq!(capture.spans.len(), 2);
//! assert_eq!(capture.spans[1].path, vec!["demo.outer", "demo.inner"]);
//! assert_eq!(capture.counters, vec![("demo.items".to_owned(), 3)]);
//! assert!(!telemetry::enabled());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eventlog;
pub mod export;
pub mod hist;
pub mod json;

pub use eventlog::{EventLog, EventRecord};
pub use hist::Histogram;
pub use json::Json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Global arm/disarm flag. Read on every instrumented call site, so it
/// must stay a single relaxed atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Capture generation. Bumped on every [`start_capture`] and
/// [`finish_capture`] so thread-local buffers from a previous capture
/// re-register instead of leaking stale records into the next one.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The global collector: the capture epoch, one record buffer per
/// recording thread (in registration order — thread ordinals in exports
/// are indices into this list), and the counter registry.
struct Registry {
    start: Option<Instant>,
    buffers: Vec<Arc<Mutex<Vec<SpanRecord>>>>,
    counters: BTreeMap<&'static str, u64>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    start: None,
    buffers: Vec::new(),
    counters: BTreeMap::new(),
});

/// `true` while a capture is armed. Instrumented call sites check this
/// before doing *any* other work (the [`span!`] macro does it for you,
/// including skipping field formatting).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One completed span, as drained into a [`Capture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Enclosing stack of static labels, root first, this span last.
    pub path: Vec<&'static str>,
    /// Key/value fields attached at entry (already rendered to strings).
    pub fields: Vec<(&'static str, String)>,
    /// Recording thread's ordinal (registration order within the
    /// capture; the capturing thread is usually 0).
    pub thread: usize,
    /// Entry time in nanoseconds since the capture started.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (monotonic clock).
    pub dur_ns: u64,
    /// Nanoseconds spent inside child spans of this span.
    pub child_ns: u64,
}

impl SpanRecord {
    /// The span's own label (the last path element).
    pub fn label(&self) -> &'static str {
        self.path.last().expect("span paths are never empty")
    }

    /// Self time: duration minus time attributed to child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

/// An open frame on a thread's span stack (never shared across threads).
struct Frame {
    label: &'static str,
    fields: Vec<(&'static str, String)>,
    start: Instant,
    child_ns: u64,
}

/// Per-thread recording state, re-registered per capture generation.
struct ThreadState {
    generation: u64,
    ordinal: usize,
    epoch: Instant,
    stack: Vec<Frame>,
    sink: Arc<Mutex<Vec<SpanRecord>>>,
}

thread_local! {
    static TLS: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// RAII span guard: records a [`SpanRecord`] when dropped (if it was
/// entered while a capture was armed). Construct through [`span!`].
#[must_use = "a span measures the scope it is bound to; `let _guard = span!(..)`"]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// Enters a span with no fields. Prefer the [`span!`] macro.
    #[inline]
    pub fn enter(label: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard::noop();
        }
        SpanGuard::enter_with(label, Vec::new())
    }

    /// Enters a span with pre-rendered fields. Callers must gate on
    /// [`enabled`] themselves to keep the disabled path allocation-free
    /// (the [`span!`] macro does).
    pub fn enter_with(label: &'static str, fields: Vec<(&'static str, String)>) -> SpanGuard {
        if !enabled() {
            return SpanGuard::noop();
        }
        let entered = TLS.with(|cell| {
            let mut slot = cell.borrow_mut();
            let generation = GENERATION.load(Ordering::Relaxed);
            let stale = match slot.as_ref() {
                Some(state) => state.generation != generation,
                None => true,
            };
            if stale {
                let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
                // The capture may have been disarmed between the
                // `enabled()` check and here; record nothing then.
                let Some(epoch) = registry.start else {
                    return false;
                };
                let sink = Arc::new(Mutex::new(Vec::new()));
                let ordinal = registry.buffers.len();
                registry.buffers.push(Arc::clone(&sink));
                *slot = Some(ThreadState {
                    generation,
                    ordinal,
                    epoch,
                    stack: Vec::new(),
                    sink,
                });
            }
            let state = slot.as_mut().expect("just registered");
            state.stack.push(Frame {
                label,
                fields,
                start: Instant::now(),
                child_ns: 0,
            });
            true
        });
        SpanGuard { active: entered }
    }

    /// A guard that records nothing (the disabled path).
    #[inline]
    pub const fn noop() -> SpanGuard {
        SpanGuard { active: false }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        TLS.with(|cell| {
            let mut slot = cell.borrow_mut();
            let Some(state) = slot.as_mut() else { return };
            let Some(frame) = state.stack.pop() else { return };
            let dur_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(parent) = state.stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(dur_ns);
            }
            let mut path: Vec<&'static str> = state.stack.iter().map(|f| f.label).collect();
            path.push(frame.label);
            let start_ns = u64::try_from(
                frame.start.saturating_duration_since(state.epoch).as_nanos(),
            )
            .unwrap_or(u64::MAX);
            state
                .sink
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(SpanRecord {
                    path,
                    fields: frame.fields,
                    thread: state.ordinal,
                    start_ns,
                    dur_ns,
                    child_ns: frame.child_ns,
                });
        });
    }
}

/// Enters an RAII span: `span!("layer.what")` or
/// `span!("layer.what", key = value, ...)`. Field values are rendered
/// with `to_string()` **only when a capture is armed** — the disabled
/// path evaluates nothing beyond one atomic load.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::SpanGuard::enter($label)
    };
    ($label:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter_with(
                $label,
                vec![$((stringify!($key), ($value).to_string())),+],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

/// Adds `delta` to the capture-scoped cumulative counter `name`. A no-op
/// (one atomic load) while no capture is armed.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    *registry.counters.entry(name).or_insert(0) += delta;
}

/// Everything one capture recorded.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Completed spans, ordered by `(thread, start_ns)`.
    pub spans: Vec<SpanRecord>,
    /// Cumulative counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock nanoseconds between [`start_capture`] and
    /// [`finish_capture`].
    pub wall_ns: u64,
}

impl Capture {
    /// Number of distinct recording threads.
    pub fn threads(&self) -> usize {
        self.spans.iter().map(|s| s.thread + 1).max().unwrap_or(0)
    }

    /// The counters as a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
        }
    }
}

/// Arms the collector: clears any previous capture's buffers and
/// counters, stamps the epoch, and enables every instrumented call site.
///
/// Captures are process-global; concurrent captures are not supported
/// (the later `start_capture` wins and the earlier capture's records are
/// discarded).
pub fn start_capture() {
    let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    registry.start = Some(Instant::now());
    registry.buffers.clear();
    registry.counters.clear();
    ENABLED.store(true, Ordering::Release);
}

/// Disarms the collector and drains every thread's records into one
/// [`Capture`]. Spans still open on other threads when this is called
/// are lost (finish a capture only after joining the work it measures).
pub fn finish_capture() -> Capture {
    ENABLED.store(false, Ordering::Release);
    let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    let wall_ns = registry
        .start
        .take()
        .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    let mut spans = Vec::new();
    for buffer in registry.buffers.drain(..) {
        spans.append(&mut buffer.lock().unwrap_or_else(PoisonError::into_inner));
    }
    spans.sort_by_key(|span| (span.thread, span.start_ns));
    let counters = registry
        .counters
        .iter()
        .map(|(name, value)| ((*name).to_owned(), *value))
        .collect();
    registry.counters.clear();
    Capture {
        spans,
        counters,
        wall_ns,
    }
}

/// A point-in-time export of cumulative counters: the shape shared by
/// capture snapshots, the daemon's `metrics` protocol response, and the
/// CLI's profile summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Builds a snapshot from arbitrary pairs (sorts and sums duplicate
    /// names).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, u64)>) -> MetricsSnapshot {
        let mut map: BTreeMap<String, u64> = BTreeMap::new();
        for (name, value) in pairs {
            *map.entry(name).or_insert(0) += value;
        }
        MetricsSnapshot {
            counters: map.into_iter().collect(),
        }
    }

    /// The value of one counter, when present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Parses the `{"name":value,...}` shape back (counters must be
    /// non-negative integers; names are sorted and duplicates summed).
    pub fn from_json(doc: &Json) -> Result<MetricsSnapshot, String> {
        let Json::Obj(fields) = doc else {
            return Err("metrics must be an object of counters".into());
        };
        let pairs = fields
            .iter()
            .map(|(name, value)| {
                value
                    .as_u64()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("counter `{name}` must be a non-negative integer"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MetricsSnapshot::from_pairs(pairs))
    }

    /// Renders `{"name":value,...}` (sorted, one line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        Json::from(self).to_string()
    }
}

impl From<&MetricsSnapshot> for Json {
    /// One flat object, a field per counter in snapshot (name) order.
    fn from(snapshot: &MetricsSnapshot) -> Json {
        Json::Obj(
            snapshot
                .counters
                .iter()
                .map(|(name, value)| (name.clone(), Json::Num(*value as f64)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captures are process-global, so tests that arm one must not run
    // concurrently with each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing_and_are_cheap() {
        let _guard = TEST_LOCK.lock().unwrap();
        assert!(!enabled());
        for _ in 0..1000 {
            let _span = span!("test.disabled", size = 3);
        }
        counter_add("test.disabled", 1);
        start_capture();
        let capture = finish_capture();
        assert!(capture.spans.is_empty());
        assert!(capture.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let _guard = TEST_LOCK.lock().unwrap();
        start_capture();
        {
            let _outer = span!("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("test.inner", n = 7);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let capture = finish_capture();
        assert_eq!(capture.spans.len(), 2);
        let inner = capture
            .spans
            .iter()
            .find(|s| s.label() == "test.inner")
            .unwrap();
        let outer = capture
            .spans
            .iter()
            .find(|s| s.label() == "test.outer")
            .unwrap();
        assert_eq!(inner.path, vec!["test.outer", "test.inner"]);
        assert_eq!(inner.fields, vec![("n", "7".to_owned())]);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(outer.child_ns >= inner.dur_ns);
        assert!(outer.self_ns() <= outer.dur_ns - inner.dur_ns + 1);
        assert!(capture.wall_ns >= outer.dur_ns);
    }

    #[test]
    fn worker_threads_get_their_own_tracks() {
        let _guard = TEST_LOCK.lock().unwrap();
        start_capture();
        {
            let _main = span!("test.main");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _work = span!("test.worker");
                    });
                }
            });
        }
        let capture = finish_capture();
        assert_eq!(capture.spans.len(), 3);
        assert!(capture.threads() >= 2, "{capture:?}");
        // Worker spans do not inherit the spawning thread's stack.
        for span in capture.spans.iter().filter(|s| s.label() == "test.worker") {
            assert_eq!(span.path, vec!["test.worker"]);
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let _guard = TEST_LOCK.lock().unwrap();
        start_capture();
        counter_add("test.b", 2);
        counter_add("test.a", 1);
        counter_add("test.b", 3);
        let capture = finish_capture();
        assert_eq!(
            capture.counters,
            vec![("test.a".to_owned(), 1), ("test.b".to_owned(), 5)]
        );
        let snapshot = capture.snapshot();
        assert_eq!(snapshot.get("test.b"), Some(5));
        assert_eq!(snapshot.to_json(), "{\"test.a\":1,\"test.b\":5}");
        let back = MetricsSnapshot::from_json(&Json::parse(&snapshot.to_json()).unwrap());
        assert_eq!(back, Ok(snapshot));
        for bad in ["[]", "{\"a\":-1}", "{\"a\":1.5}", "{\"a\":\"1\"}"] {
            assert!(
                MetricsSnapshot::from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn captures_reset_between_sessions() {
        let _guard = TEST_LOCK.lock().unwrap();
        start_capture();
        {
            let _span = span!("test.first");
        }
        let first = finish_capture();
        assert_eq!(first.spans.len(), 1);
        start_capture();
        {
            let _span = span!("test.second");
        }
        let second = finish_capture();
        assert_eq!(second.spans.len(), 1);
        assert_eq!(second.spans[0].label(), "test.second");
    }

    #[test]
    fn a_poisoned_registry_still_records() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = std::panic::catch_unwind(|| {
            let _held = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poisoning the telemetry registry");
        });
        assert!(REGISTRY.is_poisoned());
        start_capture();
        {
            let _span = span!("test.poisoned");
        }
        counter_add("test.poisoned", 1);
        let capture = finish_capture();
        assert_eq!(capture.spans.len(), 1);
        assert_eq!(capture.counters, vec![("test.poisoned".to_owned(), 1)]);
    }

    #[test]
    fn snapshot_from_pairs_merges_duplicates() {
        let snapshot = MetricsSnapshot::from_pairs([
            ("z".to_owned(), 1),
            ("a".to_owned(), 2),
            ("z".to_owned(), 3),
        ]);
        assert_eq!(
            snapshot.counters,
            vec![("a".to_owned(), 2), ("z".to_owned(), 4)]
        );
    }
}
