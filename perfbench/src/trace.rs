//! In-memory spans and counters for the traced run.
//!
//! A span records a name, its start and end, and the span that caused it.
//! Spans are kept in memory and only summarised when the run ends. A
//! span's *self time* is its duration minus the part of its interval that
//! its child spans cover; children that ran in parallel on worker threads
//! are merged first, so overlapping children are not subtracted twice.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = u32;

/// One finished span, with times in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The span's own id.
    pub id: SpanId,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Layer name, e.g. `unf.build`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
}

/// Collects spans and counters from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let result = f(id);
        let end = self.now();
        lock(&self.spans).push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        result
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        *lock(&self.counters).entry(name).or_insert(0.0) += value;
    }

    /// Raises the counter `name` to at least `value`.
    pub fn peak(&self, name: &'static str, value: f64) {
        let mut counters = lock(&self.counters);
        let slot = counters.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// Takes every span and counter recorded so far, leaving the tracer
    /// empty.
    pub fn drain(&self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        (
            std::mem::take(&mut *lock(&self.spans)),
            std::mem::take(&mut *lock(&self.counters)),
        )
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Every update under these locks is a single push or insert, so the data
/// stays valid even if a worker panicked while holding one.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Self time per span name, in nanoseconds, summed over all spans of that
/// name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| covered_within(kids, s.start, s.end));
        *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}
