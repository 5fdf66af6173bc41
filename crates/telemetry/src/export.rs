//! Exporters for a drained [`Capture`]: Chrome trace-event JSON, folded
//! flamegraph stacks, and per-label aggregates.

use std::collections::BTreeMap;

use crate::{Capture, Json, SpanRecord};

/// Renders a capture as Chrome trace-event JSON: one array of metadata
/// (`"ph":"M"` process/thread names) and complete (`"ph":"X"`) events,
/// timestamps and durations in fractional microseconds relative to the
/// capture start, one `tid` track per recording thread. Loadable by
/// `chrome://tracing` and Perfetto; parseable by any JSON parser
/// (including [`Json::parse`] — pinned by tests).
pub fn chrome_trace(capture: &Capture) -> String {
    let mut events = Vec::with_capacity(capture.spans.len() + capture.threads() + 1);
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"commcsl\"}}"
            .to_owned(),
    );
    for thread in 0..capture.threads() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{thread},\
             \"args\":{{\"name\":\"commcsl-{}\"}}}}",
            if thread == 0 {
                "main".to_owned()
            } else {
                format!("worker-{thread}")
            }
        ));
    }
    for span in &capture.spans {
        let mut args: Vec<String> = span
            .fields
            .iter()
            .map(|(key, value)| format!("{}:{}", Json::str(*key), Json::str(value)))
            .collect();
        args.push(format!(
            "\"self_us\":{:.3}",
            span.self_ns() as f64 / 1000.0
        ));
        events.push(format!(
            "{{\"name\":{},\"cat\":\"commcsl\",\"ph\":\"X\",\"ts\":{:.3},\
             \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
            Json::str(span.label()),
            span.start_ns as f64 / 1000.0,
            span.dur_ns as f64 / 1000.0,
            span.thread,
            args.join(","),
        ));
    }
    format!("[{}]", events.join(",\n"))
}

/// The weight written per folded stack line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldedWeight {
    /// Self-time nanoseconds (duration minus child spans) — the default
    /// for flamegraphs, where frame widths should reflect wall time.
    SelfNanos,
    /// Span entry counts — fully deterministic for a deterministic
    /// workload, so two runs of the same single-threaded profile produce
    /// byte-identical files suitable for exact diffing.
    Calls,
}

/// Renders a capture as folded flamegraph stacks: one
/// `root;child;leaf weight` line per distinct span path, aggregated over
/// all threads, sorted by path. The aggregation (grouping and ordering)
/// is deterministic for any weight mode; with [`FoldedWeight::Calls`]
/// the weights are too.
pub fn folded_stacks(capture: &Capture, weight: FoldedWeight) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for span in &capture.spans {
        let key = span.path.join(";");
        let w = match weight {
            FoldedWeight::SelfNanos => span.self_ns(),
            FoldedWeight::Calls => 1,
        };
        *stacks.entry(key).or_insert(0) += w;
    }
    let mut out = String::new();
    for (stack, weight) in stacks {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

/// Aggregate statistics for one span label across a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelStat {
    /// The span label.
    pub label: &'static str,
    /// Spans recorded under this label.
    pub count: u64,
    /// Total (inclusive) nanoseconds across those spans.
    pub total_ns: u64,
    /// Self (exclusive) nanoseconds across those spans.
    pub self_ns: u64,
}

/// Aggregates a capture by span label, hottest (by self time) first;
/// ties break by label, so the ordering is deterministic for
/// deterministic self times and stable-enough in practice for display.
pub fn by_label(capture: &Capture) -> Vec<LabelStat> {
    let mut map: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for span in &capture.spans {
        let entry = map.entry(span.label()).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += span.dur_ns;
        entry.2 += span.self_ns();
    }
    let mut stats: Vec<LabelStat> = map
        .into_iter()
        .map(|(label, (count, total_ns, self_ns))| LabelStat {
            label,
            count,
            total_ns,
            self_ns,
        })
        .collect();
    stats.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.label.cmp(b.label)));
    stats
}

/// Sum of self time over every span: the capture wall time that is
/// attributed to *some* frame (the flamegraph's total width). Dividing
/// by [`Capture::wall_ns`] gives instrumentation coverage.
pub fn attributed_ns(capture: &Capture) -> u64 {
    capture.spans.iter().map(SpanRecord::self_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture() -> Capture {
        Capture {
            spans: vec![
                SpanRecord {
                    path: vec!["root"],
                    fields: vec![("file", "a \"b\".csl".to_owned())],
                    thread: 0,
                    start_ns: 0,
                    dur_ns: 10_000,
                    child_ns: 4_000,
                },
                SpanRecord {
                    path: vec!["root", "leaf"],
                    fields: Vec::new(),
                    thread: 0,
                    start_ns: 1_000,
                    dur_ns: 4_000,
                    child_ns: 0,
                },
                SpanRecord {
                    path: vec!["leaf"],
                    fields: Vec::new(),
                    thread: 1,
                    start_ns: 2_000,
                    dur_ns: 3_000,
                    child_ns: 0,
                },
            ],
            counters: vec![("c".to_owned(), 1)],
            wall_ns: 12_000,
        }
    }

    #[test]
    fn chrome_trace_is_an_event_array_with_thread_tracks() {
        let trace = chrome_trace(&capture());
        assert!(trace.starts_with('['));
        assert!(trace.ends_with(']'));
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(trace.matches("\"ph\":\"M\"").count(), 3); // process + 2 threads
        assert!(trace.contains("\"tid\":1"));
        assert!(trace.contains("\"ts\":1.000"));
        assert!(trace.contains("\"dur\":4.000"));
        assert!(trace.contains("\"file\":\"a \\\"b\\\".csl\""));
    }

    #[test]
    fn folded_stacks_aggregate_and_sort() {
        let folded = folded_stacks(&capture(), FoldedWeight::SelfNanos);
        assert_eq!(folded, "leaf 3000\nroot 6000\nroot;leaf 4000\n");
        let counts = folded_stacks(&capture(), FoldedWeight::Calls);
        assert_eq!(counts, "leaf 1\nroot 1\nroot;leaf 1\n");
    }

    #[test]
    fn by_label_ranks_by_self_time() {
        let stats = by_label(&capture());
        assert_eq!(stats[0].label, "leaf");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[0].self_ns, 7_000);
        assert_eq!(stats[1].label, "root");
        assert_eq!(stats[1].total_ns, 10_000);
        assert_eq!(attributed_ns(&capture()), 13_000);
    }
}
