//! Spans recorded from the benchmark's side of every call into the system.
//!
//! A traced run wraps each operation in a root span and records child
//! spans from the metering crowd source and around the benchmark's own
//! checkpoint and open calls.  Spans stay in memory and are written out as
//! JSON lines when the run ends; self time is a span's duration minus the
//! part of it its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::Metrics;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The operation the span belongs to (shared by all its spans).
    pub op: u64,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<u64>,
    /// What was timed, as `layer.call`.
    pub name: &'static str,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created.
    pub end_us: f64,
    /// Counter deltas observed across the span (public stats snapshots).
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span recorder shared by all threads of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    current_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            current_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Allocates a fresh operation id.
    pub fn new_op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// Announces the operation whose crowd dispatches follow, so spans
    /// recorded on the database's own threads can name their operation.
    pub fn set_current_op(&self, op: u64) {
        self.current_op.store(op, Ordering::SeqCst);
    }

    /// The operation last announced with [`Tracer::set_current_op`].
    pub fn current_op(&self) -> u64 {
        self.current_op.load(Ordering::SeqCst)
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span; child spans are linked to their operation's root
    /// span when the run is summarized.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        root: bool,
        start: Instant,
        end: Instant,
        counters: Vec<(&'static str, f64)>,
    ) {
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            op,
            // Children carry a placeholder parent until `spans` links them.
            parent: if root { None } else { Some(0) },
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            counters,
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// All spans, children linked to their operation's root span.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("tracer lock poisoned").clone();
        let roots: HashMap<u64, u64> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.op, s.id))
            .collect();
        for span in &mut spans {
            if span.parent.is_some() {
                span.parent = roots.get(&span.op).copied();
            }
        }
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes all spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"counters\":{{{}}}}}",
                s.id,
                s.op,
                s.name,
                s.start_us,
                s.end_us,
                counters.join(",")
            )?;
        }
        out.flush()
    }
}

/// Per root span named `root`: its duration, and the total duration of its
/// child spans named `child` (their union, clipped to the root).
pub fn root_and_children_ms(spans: &[Span], root: &str, child: &str) -> Vec<(f64, f64)> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == child) {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|r| {
            let mut intervals: Vec<(f64, f64)> = children
                .get(&r.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(r.start_us), b.min(r.end_us)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = f64::MIN;
            for (a, b) in intervals {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (r.ms(), covered / 1e3)
        })
        .collect()
}

/// Tracing overhead: the mean relative change, in percent, of the traced
/// run's read latency (`read_ms.p75`) and time per operation
/// (1 / `ops_per_s`) against the untraced run's.
pub fn overhead_pct(untraced: &Metrics, traced: &Metrics) -> f64 {
    let value = |m: &Metrics, name: &str| m.get(name).map_or(f64::NAN, |m| m.value);
    let read = value(traced, "read_ms.p75") / value(untraced, "read_ms.p75");
    let per_op = value(untraced, "ops_per_s") / value(traced, "ops_per_s");
    ((read - 1.0) + (per_op - 1.0)) / 2.0 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_linked_children() {
        let t = Tracer::default();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let op = t.new_op();
        t.record("op.cold", op, true, at(0), at(10), vec![]);
        t.record("crowd.dispatch", op, false, at(2), at(5), vec![]);
        t.record("crowd.dispatch", op, false, at(4), at(6), vec![]);
        let spans = t.spans();
        assert!(spans
            .iter()
            .all(|s| s.name == "op.cold" || s.parent.is_some()));
        let rows = root_and_children_ms(&spans, "op.cold", "crowd.dispatch");
        assert_eq!(rows.len(), 1);
        assert!((rows[0].0 - 10.0).abs() < 1e-6);
        assert!((rows[0].1 - 4.0).abs() < 1e-6);
    }
}
