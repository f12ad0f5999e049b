//! In-memory spans for the traced run, and the order statistics the
//! benchmark reports.
//!
//! A span is a named interval with the id of the span that caused it;
//! spans are kept in memory while the run measures and written out as
//! one JSON document when it ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id (0 is "no parent").
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under `id`.
    pub fn record(&self, name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking task")
            .push(SpanRec {
                name,
                id,
                parent,
                start_ns,
                end_ns,
            });
    }

    /// Times `f` as a span named `name` under `parent` and returns its
    /// result with the span's duration in nanoseconds.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, self.new_id(), parent, start, end);
        (out, end - start)
    }

    /// Every span, sorted by start time.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking task")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// The spans as a JSON array of `{name,id,parent,start_ns,end_ns}`.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Linear-interpolated quantile of `sorted` (ascending, non-empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The percentiles a tail is read at, in per-mille, highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of `values` with at least ten samples beyond
/// it, as `(percentile, value)`; the maximum when no rung qualifies,
/// and `(0, 0)` when empty.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    for permille in TAIL_LADDER {
        if v.len() * (1000 - permille) / 1000 >= 10 {
            let p = permille as f64 / 1000.0;
            return (p, quantile(&v, p));
        }
    }
    (1.0, v[v.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 leaves 10 beyond it, p95 only 5.
        assert_eq!(tail(&v).0, 0.9);
        assert_eq!(tail(&v[..5]).0, 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
