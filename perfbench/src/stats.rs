//! Quantiles, process counters, and the end-to-end metric set.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Linearly interpolated quantile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What one run of [`host_kernel_ms`] takes on the reference host, in
/// milliseconds. Every reported time is scaled by this over what the
/// kernel took while the time was measured; see [`Phase::segments`].
pub const HOST_KERNEL_REF_MS: f64 = 0.25;

/// How often a timed phase runs the host kernel.
const HOST_EVERY: Duration = Duration::from_millis(50);

/// Runs a fixed piece of work and returns its milliseconds. The work —
/// formatting, sorting, an ordered map and UTF-8 scans — comes from the
/// standard library alone, so no change to the program changes its
/// cost; only the speed the host lends this process does.
pub fn host_kernel_ms() -> f64 {
    let begun = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut words: Vec<String> = (0..600)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            format!("w{:x}", x >> 40)
        })
        .collect();
    words.sort_unstable();
    let mut counts = BTreeMap::new();
    for w in &words {
        *counts.entry(w.as_str()).or_insert(0u32) += 1;
    }
    let text = words.join(" ");
    let scanned: usize = (0..text.len())
        .step_by(8)
        .map(|i| std::str::from_utf8(&text.as_bytes()[i..]).map_or(0, str::len))
        .sum();
    std::hint::black_box((counts.len(), scanned));
    begun.elapsed().as_secs_f64() * 1e3
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU milliseconds of process `pid` (`"self"` for this
/// one), every thread included — exited threads too.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One completed op of a timed phase.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Op id, as stamped on the op's spans.
    pub id: u64,
    /// Op class (`verify`, `doc`, `status`, an edit kind, …).
    pub class: &'static str,
    /// The op's verify latency in milliseconds, when it has one: the
    /// whole round trip of a `service-mix` `verify`, the `Verifier` batch
    /// of a `batch-cold` op without its compile, an `edit-loop` edit that
    /// re-checks obligations.
    pub verify_ms: Option<f64>,
    /// Latency in milliseconds.
    pub ms: f64,
    /// Completion time, in seconds since the phase started.
    pub end_s: f64,
    /// Whether the op produced its known answer.
    pub ok: bool,
}

/// Equal-length segments a timed phase is cut into. Rates, medians and
/// CPU per op are taken per segment and reported as the median segment,
/// so a burst of load from other tenants that covers less than half of
/// a run does not move them.
pub const SEGMENTS: usize = 5;

/// Ops after which `peak_rss_mb` is read: a fixed amount of work, so a
/// faster program that completes more ops in a timed phase (and caches
/// more revisions) does not read as using more memory.
pub const RSS_AT_OPS: usize = 2000;

/// Measures one timed phase: the summed CPU time of `pids` at the start
/// of each segment, the host kernel's time every [`HOST_EVERY`] on the
/// threads running ops, and the peak resident set of the process holding
/// the caches after [`RSS_AT_OPS`] ops.
pub struct Meter {
    start: Instant,
    pids: Vec<String>,
    rss_pid: String,
    ops: AtomicUsize,
    rss_mb: OnceLock<f64>,
    next_host: Mutex<Instant>,
    host: Mutex<Vec<(f64, f64)>>,
    sampler: std::thread::JoinHandle<Vec<(f64, f64)>>,
}

impl Meter {
    /// Starts measuring a phase of `seconds` that begins now.
    pub fn start(pids: Vec<String>, rss_pid: &str, seconds: f64) -> Meter {
        let start = Instant::now();
        let sampled = pids.clone();
        let sampler = std::thread::spawn(move || {
            (0..SEGMENTS)
                .map(|k| {
                    let at = start + Duration::from_secs_f64(seconds * k as f64 / SEGMENTS as f64);
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    (start.elapsed().as_secs_f64(), total_cpu_ms(&sampled))
                })
                .collect()
        });
        Meter {
            start,
            pids,
            rss_pid: rss_pid.to_owned(),
            ops: AtomicUsize::new(0),
            rss_mb: OnceLock::new(),
            next_host: Mutex::new(start),
            host: Mutex::new(Vec::new()),
            sampler,
        }
    }

    /// When the phase started.
    pub fn started(&self) -> Instant {
        self.start
    }

    /// Counts one completed op (from any thread), and runs the host
    /// kernel on this thread when it is due.
    pub fn op_done(&self) {
        if self.ops.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_OPS {
            let _ = self.rss_mb.set(peak_rss_mb(&self.rss_pid).unwrap_or(0.0));
        }
        let due = {
            let mut next = self.next_host.lock().expect("host timer lock");
            let now = Instant::now();
            let due = now >= *next;
            if due {
                *next = now + HOST_EVERY;
            }
            due
        };
        if due {
            let ms = host_kernel_ms();
            let at = self.start.elapsed().as_secs_f64();
            self.host.lock().expect("host samples lock").push((at, ms));
        }
    }

    /// Ends the phase: the segment samples plus a final one.
    pub fn finish(self, ops: Vec<OpSample>) -> Phase {
        let mut cpu = self.sampler.join().expect("cpu sampler thread");
        cpu.push((self.start.elapsed().as_secs_f64(), total_cpu_ms(&self.pids)));
        let rss_mb = match self.rss_mb.get() {
            Some(mb) => *mb,
            None => peak_rss_mb(&self.rss_pid).unwrap_or(0.0),
        };
        let host = self.host.into_inner().expect("host samples lock");
        Phase {
            ops,
            cpu,
            host,
            rss_mb,
        }
    }
}

fn total_cpu_ms(pids: &[String]) -> f64 {
    pids.iter().filter_map(|p| cpu_ms(p)).sum()
}

/// Everything a timed phase measured, before it becomes metrics.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every op.
    pub ops: Vec<OpSample>,
    /// `(seconds since start, cumulative CPU ms)` at each segment start,
    /// then at the end.
    pub cpu: Vec<(f64, f64)>,
    /// `(seconds since start, host kernel ms)` for each kernel run.
    pub host: Vec<(f64, f64)>,
    /// Peak resident set (MiB) after [`RSS_AT_OPS`] ops, or at the end
    /// of a phase with fewer.
    pub rss_mb: f64,
}

impl Phase {
    /// Latencies of the ops matching `keep`.
    pub fn latencies(&self, keep: impl Fn(&OpSample) -> bool) -> Vec<f64> {
        self.ops.iter().filter(|o| keep(o)).map(|o| o.ms).collect()
    }

    /// Ops that missed their known answer.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    /// Per segment, as a JSON array: length, ops, host kernel ms, and the
    /// throughput, p50 and CPU per op as measured — how far a run and the
    /// host drifted while it measured.
    pub fn segments_json(&self) -> String {
        let fields: Vec<String> = self
            .segments()
            .iter()
            .map(|g| {
                let lat: Vec<f64> = g.ops.iter().map(|o| o.ms).collect();
                format!(
                    "{{\"s\":{},\"ops\":{},\"host_ms\":{},\"ops_s\":{},\"p50_ms\":{},\"cpu_ms_per_op\":{}}}",
                    g.seconds,
                    g.ops.len(),
                    g.host_ms,
                    g.ops.len() as f64 / g.seconds,
                    quantile(&lat, 0.5),
                    g.cpu_ms / g.ops.len().max(1) as f64
                )
            })
            .collect();
        format!("[{}]", fields.join(","))
    }

    /// The phase cut at its CPU samples. A segment's host speed is the
    /// lower quartile of the kernel runs in it (of the whole phase when
    /// it has none), and its CPU time leaves the kernel runs out.
    fn segments(&self) -> Vec<Segment<'_>> {
        let all: Vec<f64> = self.host.iter().map(|(_, ms)| *ms).collect();
        self.cpu
            .windows(2)
            .map(|w| {
                let ((t0, c0), (t1, c1)) = (w[0], w[1]);
                let inside = |t: f64| t >= t0 && t < t1;
                let kernel: Vec<f64> = self
                    .host
                    .iter()
                    .filter(|(t, _)| inside(*t))
                    .map(|(_, ms)| *ms)
                    .collect();
                let host_ms = quantile(if kernel.is_empty() { &all } else { &kernel }, 0.25);
                Segment {
                    seconds: t1 - t0,
                    cpu_ms: c1 - c0 - kernel.iter().sum::<f64>(),
                    host_ms,
                    ops: self.ops.iter().filter(|o| inside(o.end_s)).collect(),
                }
            })
            .collect()
    }
}

/// One segment of a timed phase.
struct Segment<'a> {
    seconds: f64,
    /// CPU time of the measured processes, host kernel runs left out.
    cpu_ms: f64,
    /// What the host kernel took in this segment.
    host_ms: f64,
    /// The ops completed in it.
    ops: Vec<&'a OpSample>,
}

/// A metric value with its unit, in output order.
pub type Metric = (String, f64, &'static str);

/// The end-to-end metrics of one untraced phase. Throughput, medians
/// and CPU per op are the median over [`SEGMENTS`]; the p99s pool the
/// whole phase. Every time is scaled to the reference host: multiplied
/// by [`HOST_KERNEL_REF_MS`] over what the host kernel took in the
/// op's segment (in the median segment, for the set-ups just before the
/// phase); throughput divided by the same. `scaled = false` gives the
/// figures as measured.
pub fn end_to_end(setup_s: &[f64], phase: &Phase, scaled: bool) -> Vec<Metric> {
    let scale = |host_ms: f64| {
        if scaled {
            HOST_KERNEL_REF_MS / host_ms
        } else {
            1.0
        }
    };
    let segments = phase.segments();
    let per_segment = |f: &dyn Fn(&Segment) -> f64| -> f64 {
        median(&segments.iter().map(f).collect::<Vec<_>>())
    };
    let p50 = |latencies: Vec<f64>| quantile(&latencies, 0.5);
    let pooled = |latency: &dyn Fn(&OpSample) -> Option<f64>| -> f64 {
        let all: Vec<f64> = segments
            .iter()
            .flat_map(|g| {
                g.ops
                    .iter()
                    .filter_map(|o| latency(o))
                    .map(|ms| ms * scale(g.host_ms))
            })
            .collect();
        quantile(&all, 0.99)
    };
    let host_ms = median(&segments.iter().map(|g| g.host_ms).collect::<Vec<_>>());
    vec![
        ("setup_s".into(), median(setup_s) * scale(host_ms), "s"),
        (
            "throughput_ops_s".into(),
            per_segment(&|g| g.ops.len() as f64 / g.seconds / scale(g.host_ms)),
            "1/s",
        ),
        (
            "latency_p50_ms".into(),
            per_segment(&|g| p50(g.ops.iter().map(|o| o.ms).collect()) * scale(g.host_ms)),
            "ms",
        ),
        ("latency_p99_ms".into(), pooled(&|o| Some(o.ms)), "ms"),
        (
            "verify_p50_ms".into(),
            per_segment(&|g| {
                p50(g.ops.iter().filter_map(|o| o.verify_ms).collect()) * scale(g.host_ms)
            }),
            "ms",
        ),
        ("verify_p99_ms".into(), pooled(&|o| o.verify_ms), "ms"),
        (
            "cpu_ms_per_op".into(),
            per_segment(&|g| g.cpu_ms / g.ops.len().max(1) as f64 * scale(g.host_ms)),
            "ms",
        ),
        ("peak_rss_mb".into(), phase.rss_mb, "MB"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn own_process_counters_are_readable() {
        assert!(cpu_ms("self").is_some());
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
