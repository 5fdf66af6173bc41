//! Spans recorded by the benchmark's own code around calls into each
//! layer's public functions.
//!
//! A [`Tracer`] belongs to one thread. When disabled it records nothing
//! and reads no clock, so untraced runs pay only a branch per call site.
//! Spans stay in memory until [`write_spans`] writes them at exit.
//! A span's *self time* is its duration minus the part its child spans
//! cover; children of one span never overlap (one thread).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `front.parse`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
    /// Recording thread (client connection) index.
    pub thread: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: usize,
    op: u64,
    stack: Vec<usize>,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a pass-through.
    pub fn new(enabled: bool, epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (between ops only).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty());
        self.enabled = enabled;
    }

    /// Sets the op id stamped on subsequent spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            thread: self.thread,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Records an already-measured interval as a span (used for the
    /// client side of wire ops, whose boundaries are timestamps).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied(),
            op: self.op,
            thread: self.thread,
        });
    }
}

/// Appends one thread's spans to a merged list of `offset` spans,
/// shifting parent indices to match.
pub fn rebase(spans: Vec<Span>, offset: usize) -> impl Iterator<Item = Span> {
    spans.into_iter().map(move |mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    })
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child[p] += span.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-op totals of the spans named `name`: op id → summed duration (or
/// self time) in milliseconds, over the ops that have such a span.
pub fn op_totals(spans: &[Span], name: &str, self_time: bool) -> BTreeMap<u64, f64> {
    let selfs = if self_time {
        self_times(spans)
    } else {
        Vec::new()
    };
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        let ns = if self_time { selfs[i] } else { span.dur_ns() };
        *out.entry(span.op).or_default() += ns as f64 / 1e6;
    }
    out
}

/// The median over ops of [`op_totals`]; 0 when no op has the span.
pub fn median_per_op(spans: &[Span], name: &str, self_time: bool) -> f64 {
    let per_op: Vec<f64> = op_totals(spans, name, self_time).into_values().collect();
    crate::stats::median(&per_op)
}

/// Writes every span as one JSON line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"thread\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.thread, s.op, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
            thread: 0,
        };
        let spans = vec![
            mk("a", 0, 100, None),
            mk("b", 10, 40, Some(0)),
            mk("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
        assert_eq!(op_totals(&spans, "a", true)[&1], 60.0 / 1e6);
        assert_eq!(median_per_op(&spans, "a", false), 100.0 / 1e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let v = t.span("x", |t| t.span("y", |_| 3));
        assert_eq!(v, 3);
        assert!(t.spans.is_empty());
    }
}
