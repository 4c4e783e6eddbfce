//! Point-in-time, schema-versioned metric snapshots with a deterministic
//! JSON encoding.
//!
//! The encoding is hand-rolled (this crate has zero dependencies) and
//! intentionally boring: two-space pretty-printing, keys in sorted order
//! (`BTreeMap` iteration), integers only. Two snapshots of equal state
//! serialise to byte-identical strings on every platform, which is what
//! the golden e2e tests assert.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamp embedded in every snapshot as `"schema_version"`.
/// Bump it whenever the JSON layout changes shape.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// State of one histogram at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds (sorted, deduplicated).
    pub bounds: Vec<u64>,
    /// Observation counts per bucket; `bounds.len() + 1` entries, the
    /// last being the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// State of one span timer at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed entries.
    pub count: u64,
    /// Total logical units spent inside.
    pub units: u64,
}

/// A complete, self-describing capture of a [`Registry`](crate::Registry).
///
/// All values are integers in logical units (event counts, virtual-clock
/// ticks) — never wall-clock time — so snapshots taken under a fixed seed
/// are byte-reproducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The schema version this snapshot was produced under.
    pub schema_version: u64,
    /// The registry's logical clock at capture time.
    pub clock: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span states by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// An empty snapshot at the given logical time.
    pub fn new(clock: u64) -> Self {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            clock,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }

    /// Merges `other` into `self`: counters, histogram buckets and span
    /// totals add; gauges take the maximum (so merge stays commutative);
    /// the clock takes the maximum.
    ///
    /// # Panics
    ///
    /// Panics if the same histogram name appears in both snapshots with
    /// different bucket bounds — merging those would silently misbucket.
    pub fn merge(&mut self, other: &Snapshot) {
        self.clock = self.clock.max(other.clock);
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
                Some(mine) => {
                    assert_eq!(
                        mine.bounds, h.bounds,
                        "cannot merge histogram `{name}`: bucket bounds differ"
                    );
                    for (b, o) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *b += o;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
            }
        }
        for (name, s) in &other.spans {
            let slot = self
                .spans
                .entry(name.clone())
                .or_insert(SpanSnapshot { count: 0, units: 0 });
            slot.count += s.count;
            slot.units += s.units;
        }
    }

    /// Serialises to pretty-printed JSON with sorted keys and a trailing
    /// newline. Byte-deterministic for equal snapshots.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"clock\": {},", self.clock);

        out.push_str("  \"counters\": {");
        write_scalar_map(&mut out, &self.counters);
        out.push_str(",\n  \"gauges\": {");
        write_scalar_map(&mut out, &self.gauges);

        out.push_str(",\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {{", json_string(name));
            let _ = write!(out, "\n      \"bounds\": {},", json_u64_array(&h.bounds));
            let _ = write!(out, "\n      \"buckets\": {},", json_u64_array(&h.buckets));
            let _ = write!(out, "\n      \"count\": {},", h.count);
            let _ = write!(out, "\n      \"sum\": {}", h.sum);
            out.push_str("\n    }");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push('}');

        out.push_str(",\n  \"spans\": {");
        let mut first = true;
        for (name, s) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {}: {{ \"count\": {}, \"units\": {} }}",
                json_string(name),
                s.count,
                s.units
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push('}');

        out.push_str("\n}\n");
        out
    }
}

fn write_scalar_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (name, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    {}: {}", json_string(name), v);
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

fn json_u64_array(vals: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
    s
}

/// Escapes a metric name as a JSON string literal. Metric names are
/// ASCII dot-paths by convention, but escape defensively anyway.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Registry};

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("pli_cache.hits").add(12);
        r.counter("pli_cache.misses").add(3);
        r.gauge("discovery.lattice.width").set(9);
        let h = r.histogram("transport.latency_ticks", &[1, 4, 16]);
        h.record(0);
        h.record(5);
        h.record(99);
        let s = r.span("discovery.pass.fds");
        {
            let _g = s.enter();
            r.advance(7);
        }
        r.snapshot()
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        let hits = a.find("pli_cache.hits").unwrap();
        let misses = a.find("pli_cache.misses").unwrap();
        assert!(hits < misses, "keys must serialise in sorted order");
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn json_shape_for_empty_snapshot() {
        let s = Snapshot::new(0);
        let j = s.to_json();
        assert!(j.contains("\"counters\": {}"));
        assert!(j.contains("\"spans\": {}"));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counters["pli_cache.hits"], 24);
        assert_eq!(a.histograms["transport.latency_ticks"].count, 6);
        assert_eq!(
            a.histograms["transport.latency_ticks"].buckets,
            vec![2, 0, 2, 2]
        );
        assert_eq!(a.spans["discovery.pass.fds"].units, 14);
        // Gauges take max, not sum.
        assert_eq!(a.gauges["discovery.lattice.width"], 9);
    }

    #[test]
    #[should_panic(expected = "bucket bounds differ")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Snapshot::new(0);
        a.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                bounds: vec![1],
                buckets: vec![0, 0],
                count: 0,
                sum: 0,
            },
        );
        let mut b = Snapshot::new(0);
        b.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                bounds: vec![2],
                buckets: vec![0, 0],
                count: 0,
                sum: 0,
            },
        );
        a.merge(&b);
    }

    #[test]
    fn json_escapes_hostile_names() {
        let mut s = Snapshot::new(0);
        s.counters.insert("weird\"name\\with\nstuff".into(), 1);
        let j = s.to_json();
        assert!(j.contains("\"weird\\\"name\\\\with\\nstuff\": 1"));
    }
}
