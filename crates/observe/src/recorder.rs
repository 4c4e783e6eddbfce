//! The [`Recorder`] trait plus its two implementations: the default
//! [`NoopRecorder`] and the live interning [`Registry`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::{Counter, Gauge, Histogram, Span, SpanCore};
use crate::snapshot::{Snapshot, SpanSnapshot};

/// A shared logical clock.
///
/// The clock counts *work units*, never wall time: discovery advances it
/// one unit per partition built, the protocol simulator sets it to the
/// transport tick. [`Span`] durations are deltas on this clock, which is
/// what makes snapshots reproducible.
#[derive(Clone, Debug, Default)]
pub struct Clock(pub(crate) Arc<AtomicU64>);

impl Clock {
    /// Advances the clock by `units`.
    #[inline]
    pub(crate) fn advance(&self, units: u64) {
        self.0.fetch_add(units, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute logical time (e.g. a transport tick).
    #[inline]
    pub(crate) fn set(&self, units: u64) {
        self.0.store(units, Ordering::Relaxed);
    }

    /// Current logical time.
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The facade instrumented code talks to.
///
/// Components resolve handles once (at construction) and update them on
/// the hot path; they never look metrics up by name per event. The
/// default methods make new recorder impls cheap: only handle resolution
/// is required.
pub trait Recorder: Send + Sync {
    /// Resolves (or creates) the counter named `name`.
    fn counter(&self, name: &str) -> Counter;

    /// Resolves (or creates) the gauge named `name`.
    fn gauge(&self, name: &str) -> Gauge;

    /// Resolves (or creates) the histogram named `name` with the given
    /// inclusive upper bucket `bounds`. If the name is already registered
    /// the existing histogram is returned and `bounds` is ignored (first
    /// registration wins).
    fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram;

    /// Resolves (or creates) the span timer named `name`.
    fn span(&self, name: &str) -> Span;

    /// Advances the logical clock by `units` (no-op by default).
    fn advance(&self, _units: u64) {}

    /// Sets the logical clock to an absolute time (no-op by default).
    fn set_time(&self, _units: u64) {}

    /// Current logical time (always 0 for clock-less recorders).
    fn now(&self) -> u64 {
        0
    }
}

/// The default recorder: hands out detached handles whose updates are
/// discarded. This is what un-instrumented runs use, and it costs one
/// `Option` branch per (skipped) update.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter(&self, _name: &str) -> Counter {
        Counter::noop()
    }

    fn gauge(&self, _name: &str) -> Gauge {
        Gauge::noop()
    }

    fn histogram(&self, _name: &str, _bounds: &[u64]) -> Histogram {
        Histogram::noop()
    }

    fn span(&self, _name: &str) -> Span {
        Span::noop()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Span(Span),
}

/// The live recorder: interns metrics by name and serves the same shared
/// handle to every requester, so component-local statistics and the
/// exported [`Snapshot`] read identical state.
///
/// Interning takes a mutex, but only at handle-resolution time (once per
/// component), never on the update path.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    clock: Clock,
}

impl Registry {
    /// An empty registry with its clock at 0.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Captures the current state of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut snap = Snapshot::new(self.clock.now());
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
                Metric::Span(s) => {
                    snap.spans.insert(
                        name.clone(),
                        SpanSnapshot {
                            count: s.count(),
                            units: s.units(),
                        },
                    );
                }
            }
        }
        snap
    }
}

impl Recorder for Registry {
    fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::live()))
        {
            Metric::Counter(c) => c.clone(),
            // lint: allow(no-panic) reason="name/type conflicts are programming errors; the panic is pinned by a should_panic test below"
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::live()))
        {
            Metric::Gauge(g) => g.clone(),
            // lint: allow(no-panic) reason="name/type conflicts are programming errors; the panic is pinned by a should_panic test below"
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::live(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            // lint: allow(no-panic) reason="name/type conflicts are programming errors; the panic is pinned by a should_panic test below"
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    fn span(&self, name: &str) -> Span {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Span(Span(Some((
                Arc::new(SpanCore {
                    count: AtomicU64::new(0),
                    units: AtomicU64::new(0),
                }),
                self.clock.clone(),
            ))))
        }) {
            Metric::Span(s) => s.clone(),
            // lint: allow(no-panic) reason="name/type conflicts are programming errors; the panic is pinned by a should_panic test below"
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    fn advance(&self, units: u64) {
        self.clock.advance(units);
    }

    fn set_time(&self, units: u64) {
        self.clock.set(units);
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_by_name() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn histogram_first_registration_wins() {
        let r = Registry::new();
        let a = r.histogram("lat", &[1, 2, 3]);
        let b = r.histogram("lat", &[99]);
        assert_eq!(a.snapshot().bounds, b.snapshot().bounds);
        assert_eq!(b.snapshot().bounds, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m");
        let _ = r.gauge("m");
    }

    #[test]
    fn noop_recorder_hands_out_dead_handles() {
        let r = NoopRecorder;
        let c = r.counter("anything");
        c.add(10);
        assert_eq!(c.get(), 0);
        assert_eq!(r.now(), 0);
        r.advance(5);
        r.set_time(9);
        assert_eq!(r.now(), 0);
    }

    #[test]
    fn clock_drives_registry_time() {
        let r = Registry::new();
        r.advance(4);
        r.set_time(100);
        assert_eq!(r.now(), 100);
    }

    #[test]
    fn snapshot_reflects_all_metric_kinds() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.gauge("g").set(7);
        r.histogram("h", &[10]).record(3);
        let s = r.span("s");
        {
            let _guard = s.enter();
            r.advance(2);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 7);
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.histograms["h"].buckets, vec![1, 0]);
        assert_eq!(snap.spans["s"].count, 1);
        assert_eq!(snap.spans["s"].units, 2);
        assert_eq!(snap.clock, 2);
    }
}
