//! In-memory span tracing for the traced run.
//!
//! The benchmark wraps a span around each call it makes into a layer's
//! public function. A span records its name, start, end, parent and the
//! sample it belongs to; spans stay in memory until the run ends, are
//! written out once, and are reduced to per-layer self time (a span's
//! duration minus the part of it its child spans cover).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique within the tracer, starting at 1.
    pub id: u64,
    /// The span that was open on this thread when this one started.
    pub parent: Option<u64>,
    /// Layer name, e.g. `csv` or `discovery.dds`.
    pub name: &'static str,
    /// The traced sample this span belongs to.
    pub sample: u64,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a disabled tracer records nothing and its
/// guards cost one branch, so the same pipeline code serves the traced
/// and the untraced comparison.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    sample: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            sample: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags spans started from now on with sample id `sample`.
    pub fn set_sample(&self, sample: u64) {
        self.sample.store(sample, Ordering::SeqCst);
    }

    /// Opens a span named `name`, closed when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                id,
                parent,
                name,
                sample: self.sample.load(Ordering::SeqCst),
                start_ns: self.now_ns(),
            }),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    sample: u64,
    start_ns: u64,
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    open: Option<OpenSpan<'t>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = open.tracer.now_ns();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.remove(pos);
            }
        });
        if let Ok(mut spans) = open.tracer.spans.lock() {
            spans.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                sample: open.sample,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals clipped to it (children on other threads may
/// overlap one another; covered time is counted once).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut intervals: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                    reach = b;
                }
            }
            let duration = s.end_ns.saturating_sub(s.start_ns);
            (s.id, duration.saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per `(sample, name)`, in seconds.
pub fn self_seconds_by_sample(spans: &[SpanRecord]) -> BTreeMap<(u64, &'static str), f64> {
    let own = self_times(spans);
    let mut out: BTreeMap<(u64, &'static str), f64> = BTreeMap::new();
    for s in spans {
        *out.entry((s.sample, s.name)).or_default() += own[&s.id] as f64 / 1e9;
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"sample\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            s.id,
            s.name,
            s.sample,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            sample: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,60).
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(2), "b", 20, 30),
            span(4, Some(1), "c", 50, 60),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 60);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 10);
        // Self times partition the root's interval.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two concurrent children overlap on [30,40); one spills past
        // the parent's end.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "x", 20, 40),
            span(3, Some(1), "y", 30, 120),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 20);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 90);
    }

    #[test]
    fn tracer_links_parents_and_tags_samples() {
        let tracer = Tracer::new(true);
        tracer.set_sample(7);
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(spans.iter().all(|s| s.sample == 7));
        let by_sample = self_seconds_by_sample(&spans);
        assert!(by_sample[&(7, "inner")] >= 0.002);
        assert!(to_json(&spans).contains("\"name\": \"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.span("x", || ());
        assert!(tracer.spans().is_empty());
    }
}
