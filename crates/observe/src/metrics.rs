//! The metric handle types: cheap, cloneable, update-through-`Arc`.
//!
//! Every handle is either *live* (backed by shared atomics, usually
//! interned in a [`Registry`](crate::Registry)) or *detached-noop* (the
//! [`NoopRecorder`](crate::NoopRecorder) form: updates branch on a `None`
//! and do nothing). Components that need working local statistics without
//! a registry — the PLI cache's `stats()` — create live handles directly
//! with [`Counter::live`] and friends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A live, unregistered counter (starts at 0).
    pub fn live() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A no-op counter: every update is discarded, reads return 0.
    pub(crate) fn noop() -> Self {
        Counter(None)
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for no-op handles).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// `true` when updates are actually recorded.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

/// A last-write-wins instantaneous value.
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A live, unregistered gauge (starts at 0).
    pub(crate) fn live() -> Self {
        Gauge(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A no-op gauge.
    pub(crate) fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for no-op handles).
    pub(crate) fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Shared state of a live histogram.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// Strictly increasing upper bucket bounds (inclusive). A value `v`
    /// lands in the first bucket with `v <= bounds[i]`; values above the
    /// last bound land in the implicit overflow bucket, so there are
    /// `bounds.len() + 1` buckets.
    pub(crate) bounds: Vec<u64>,
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramCore {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram over `u64` values (ticks, counts, sizes).
///
/// Bucket bounds are fixed at creation, sorted and deduplicated, so they
/// are always strictly monotone; re-requesting a registered histogram
/// under the same name returns the existing buckets regardless of the
/// bounds passed (first registration wins).
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A live, unregistered histogram with the given inclusive upper
    /// bucket bounds (plus an implicit overflow bucket).
    pub fn live(bounds: &[u64]) -> Self {
        Histogram(Some(Arc::new(HistogramCore::new(bounds))))
    }

    /// A no-op histogram.
    pub(crate) fn noop() -> Self {
        Histogram(None)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            let idx = h.bounds.partition_point(|&b| b < v);
            h.buckets[idx].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded observations (0 for no-op handles).
    pub(crate) fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded observations (0 for no-op handles).
    pub(crate) fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }

    /// The current state as a [`crate::HistogramSnapshot`]. No-op handles
    /// yield an empty snapshot (no bounds, one empty overflow bucket).
    pub fn snapshot(&self) -> crate::HistogramSnapshot {
        match &self.0 {
            None => crate::HistogramSnapshot {
                bounds: Vec::new(),
                buckets: vec![0],
                count: 0,
                sum: 0,
            },
            Some(h) => crate::HistogramSnapshot {
                bounds: h.bounds.clone(),
                buckets: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: self.count(),
                sum: self.sum(),
            },
        }
    }
}

/// Shared state of a live span timer.
#[derive(Debug)]
pub(crate) struct SpanCore {
    pub(crate) count: AtomicU64,
    pub(crate) units: AtomicU64,
}

/// A hierarchical span timer: counts entries and accumulates the logical
/// units (virtual-clock delta) spent inside.
///
/// Hierarchy is by name: `discovery.pass.fds` is a child of `discovery`
/// by path convention. Durations are measured on the owning recorder's
/// *logical* clock (see [`Clock`](crate::Clock)) — never wall time — so
/// they are deterministic wherever the instrumented code is.
#[derive(Clone, Debug, Default)]
pub struct Span(pub(crate) Option<(Arc<SpanCore>, crate::Clock)>);

impl Span {
    /// A no-op span.
    pub(crate) fn noop() -> Self {
        Span(None)
    }

    /// Enters the span; the returned guard records the elapsed logical
    /// units and increments the entry count when dropped.
    pub fn enter(&self) -> SpanGuard {
        SpanGuard {
            span: self.clone(),
            start: self.0.as_ref().map_or(0, |(_, clock)| clock.now()),
        }
    }

    /// Number of completed entries (0 for no-op handles).
    pub(crate) fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |(core, _)| core.count.load(Ordering::Relaxed))
    }

    /// Total logical units spent inside (0 for no-op handles).
    pub(crate) fn units(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |(core, _)| core.units.load(Ordering::Relaxed))
    }
}

/// RAII guard returned by [`Span::enter`].
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    span: Span,
    start: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((core, clock)) = &self.span.0 {
            let elapsed = clock.now().saturating_sub(self.start);
            core.units.fetch_add(elapsed, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, Recorder, Registry};

    #[test]
    fn counters_add_and_read() {
        let c = Counter::live();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(c.is_live());
        let n = Counter::noop();
        n.add(100);
        assert_eq!(n.get(), 0);
        assert!(!n.is_live());
    }

    #[test]
    fn gauges_last_write_wins() {
        let g = Gauge::live();
        g.set(3);
        g.set(7);
        assert_eq!(g.get(), 7);
        let n = Gauge::noop();
        n.set(9);
        assert_eq!(n.get(), 0);
    }

    #[test]
    fn histogram_buckets_values_inclusively() {
        let h = Histogram::live(&[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 10 + 11 + 100 + 101 + 5000);
        let core = h.0.as_ref().unwrap();
        let loads: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // ≤10: {0, 10}; ≤100: {11, 100}; overflow: {101, 5000}.
        assert_eq!(loads, vec![2, 2, 2]);
    }

    #[test]
    fn histogram_bounds_sorted_and_deduped() {
        let h = Histogram::live(&[50, 1, 50, 7]);
        assert_eq!(h.snapshot().bounds, vec![1, 7, 50]);
    }

    #[test]
    fn span_measures_logical_clock_delta() {
        let registry = Registry::new();
        let span = registry.span("phase.a");
        {
            let _g = span.enter();
            registry.advance(3);
            {
                let _inner = span.enter();
                registry.advance(2);
            }
        }
        assert_eq!(span.count(), 2);
        // Outer saw 5 units, inner saw 2.
        assert_eq!(span.units(), 7);
    }

    #[test]
    fn noop_span_records_nothing() {
        let span = Span::noop();
        let _ = Clock::default(); // the clock type itself is public
        {
            let _g = span.enter();
        }
        assert_eq!(span.count(), 0);
        assert_eq!(span.units(), 0);
    }
}
