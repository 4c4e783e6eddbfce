//! Property tests for the mp-observe primitives.
//!
//! Three algebraic contracts keep the metrics pipeline trustworthy:
//!
//! 1. [`Snapshot::merge`] is associative and commutative (counters and
//!    histogram buckets add, gauges and clocks take the maximum), so
//!    aggregating per-shard snapshots is order-independent;
//! 2. serialization is a pure function of the snapshot *value* — the
//!    same content always yields byte-identical, key-sorted JSON,
//!    regardless of construction order;
//! 3. histogram bucketing respects its bounds: bounds come out strictly
//!    increasing no matter how they went in, every recorded value lands
//!    in exactly one bucket, and the bucket prefix sums are monotone in
//!    the recorded values.

use mp_observe::{Histogram, HistogramSnapshot, Snapshot, SpanSnapshot};
use proptest::prelude::*;

/// Fixed name pool so merged snapshots overlap on some keys and not
/// others — both paths of the merge are exercised.
const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Shared histogram bounds: merge requires equal bounds per name.
const BOUNDS: [u64; 4] = [2, 4, 8, 16];

/// Strategy: a snapshot with arbitrary-but-small counter/gauge values,
/// one histogram and one span drawn from the same name pool. Values are
/// kept below 2^32 so triple merges cannot overflow u64.
fn snapshot_strategy() -> impl Strategy<Value = Snapshot> {
    (
        0u64..1000,
        prop::collection::vec((0usize..NAMES.len(), 0u64..1 << 32), 0..6),
        prop::collection::vec((0usize..NAMES.len(), 0u64..1 << 32), 0..6),
        prop::collection::vec((0usize..NAMES.len(), 0u64..64), 0..6),
    )
        .prop_map(|(clock, counters, gauges, hist_values)| {
            let mut snap = Snapshot::new(clock);
            for (name, v) in counters {
                *snap.counters.entry(NAMES[name].to_owned()).or_insert(0) += v;
            }
            for (name, v) in gauges {
                let g = snap.gauges.entry(NAMES[name].to_owned()).or_insert(0);
                *g = (*g).max(v);
            }
            for (name, v) in hist_values {
                let h = Histogram::live(&BOUNDS);
                h.record(v);
                snap.histograms
                    .entry(NAMES[name].to_owned())
                    .and_modify(|existing: &mut HistogramSnapshot| {
                        for (b, add) in existing.buckets.iter_mut().zip(h.snapshot().buckets) {
                            *b += add;
                        }
                        existing.count += 1;
                        existing.sum += v;
                    })
                    .or_insert_with(|| h.snapshot());
                snap.spans
                    .entry(NAMES[name].to_owned())
                    .and_modify(|s: &mut SpanSnapshot| {
                        s.count += 1;
                        s.units += v;
                    })
                    .or_insert(SpanSnapshot { count: 1, units: v });
            }
            snap
        })
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn merge_is_commutative(a in snapshot_strategy(), b in snapshot_strategy()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_is_associative(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
        c in snapshot_strategy(),
    ) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn merge_identity_is_the_empty_snapshot(a in snapshot_strategy()) {
        // Merging the zero-clock empty snapshot changes nothing, on
        // either side.
        let empty = Snapshot::new(0);
        prop_assert_eq!(merged(&a, &empty), a.clone());
        prop_assert_eq!(merged(&empty, &a), a.clone());
    }

    #[test]
    fn serialization_is_deterministic_and_key_sorted(a in snapshot_strategy()) {
        let json = a.to_json();
        // Pure function of the value: a clone built through merge with
        // the empty snapshot (fresh allocations, different insertion
        // history) serializes byte-identically.
        let rebuilt = merged(&Snapshot::new(0), &a);
        prop_assert_eq!(&json, &rebuilt.to_json());

        // Every quoted key in each section appears in sorted order.
        // Keys are drawn from NAMES, which contains no JSON escapes.
        let keys: Vec<&str> = json
            .lines()
            .filter_map(|l| {
                let l = l.trim_start();
                let rest = l.strip_prefix('"')?;
                rest.split('"').next()
            })
            .filter(|k| NAMES.contains(k))
            .collect();
        // Four sections (counters, gauges, histograms, spans), each
        // independently sorted: split whenever order resets.
        let mut section: Vec<&str> = Vec::new();
        let mut sections = 0;
        for k in keys {
            if section.last().is_some_and(|last| *last > k) {
                section.clear();
                sections += 1;
            }
            prop_assert!(sections < 4, "more than four key sections in: {json}");
            section.push(k);
        }
        prop_assert!(json.ends_with('\n'), "snapshot JSON must end in a newline");
    }

    #[test]
    fn histogram_bounds_are_strictly_increasing(
        raw in prop::collection::vec(0u64..50, 0..12),
    ) {
        // Whatever mess goes in — duplicates, descending runs — the
        // effective bounds come out strictly increasing.
        let h = Histogram::live(&raw);
        let bounds = h.snapshot().bounds;
        prop_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds not strictly increasing: {bounds:?}"
        );
        let mut expect: Vec<u64> = raw.clone();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(bounds, expect);
    }

    #[test]
    fn histogram_accounts_for_every_recorded_value(
        raw_bounds in prop::collection::vec(1u64..100, 1..8),
        values in prop::collection::vec(0u64..120, 0..40),
    ) {
        let h = Histogram::live(&raw_bounds);
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        prop_assert_eq!(snap.buckets.len(), snap.bounds.len() + 1);
        // Each bucket holds exactly the values its (inclusive) upper
        // bound admits and the previous bound excludes.
        for (i, &got) in snap.buckets.iter().enumerate() {
            let lo = if i == 0 { None } else { Some(snap.bounds[i - 1]) };
            let hi = snap.bounds.get(i).copied();
            let want = values
                .iter()
                .filter(|&&v| lo.is_none_or(|lo| v > lo) && hi.is_none_or(|hi| v <= hi))
                .count() as u64;
            prop_assert_eq!(got, want, "bucket {i} ({lo:?}, {hi:?}]");
        }
    }
}
