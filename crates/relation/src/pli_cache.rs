//! A shared, thread-safe, size-bounded cache of stripped partitions.
//!
//! Building `Π_X` for an attribute set X by intersecting single-column
//! PLIs is the dominant cost of every discovery pass (TANE's lattice,
//! `g3` checks, ND fanout bounds, the full profiler). The same `Π_X` is
//! requested many times — by different levels of one lattice traversal,
//! by the exact and approximate FD passes, and by different dependency
//! classes profiling the same relation — so memoizing partitions behind
//! one [`PliCache`] removes the repeated intersection work.
//!
//! Keys are `u64` attribute bitsets (one bit per attribute), which caps
//! cacheable schemas at 64 attributes — far above the paper-scale
//! relations this workspace targets; wider relations simply bypass the
//! cache. Entries are `Arc<Pli>` so concurrent readers share one
//! partition without copying. The cache is bounded: when `capacity` is
//! exceeded the least-recently-used entry is evicted, keeping memory
//! proportional to `capacity × O(n_rows)` instead of the full lattice.

use crate::Pli;
use mp_observe::{Counter, Recorder};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A point-in-time snapshot of a [`PliCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PliCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the partition.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Evictions forced by the byte budget while entry capacity remained
    /// (a subset of `evictions`).
    pub budget_evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated heap bytes currently retained by resident partitions.
    pub bytes: usize,
    /// Maximum resident entries (`0` = caching disabled).
    pub capacity: usize,
    /// Maximum retained heap bytes (`0` = unlimited).
    pub budget_bytes: usize,
}

impl PliCacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for PliCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} resident ({} B), {} evicted ({} by budget), capacity {}, budget {}",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries,
            self.bytes,
            self.evictions,
            self.budget_evictions,
            self.capacity,
            if self.budget_bytes == 0 {
                "unlimited".to_owned()
            } else {
                format!("{} B", self.budget_bytes)
            }
        )
    }
}

/// One resident entry: the partition plus its last-touched tick.
struct Entry {
    pli: Arc<Pli>,
    last_used: u64,
    /// Estimated retained heap bytes ([`Pli::heap_bytes`]), fixed at
    /// insertion so accounting stays exact across eviction.
    bytes: usize,
}

/// The lock-guarded map; counters live outside the lock.
struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
    /// Sum of every resident entry's `bytes`.
    bytes: usize,
}

/// Thread-safe LRU-bounded memoizing store for stripped partitions,
/// keyed by attribute bitset. See the module docs for the design.
pub struct PliCache {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Maximum retained heap bytes across resident partitions
    /// (`0` = unlimited; entry capacity still applies).
    budget_bytes: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    budget_evictions: Counter,
}

impl std::fmt::Debug for PliCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PliCache")
            .field("capacity", &self.capacity)
            .field("budget_bytes", &self.budget_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PliCache {
    /// A cache holding at most `capacity` partitions whose estimated
    /// retained heap ([`Pli::heap_bytes`]) stays at or below
    /// `budget_bytes` by additional LRU evictions.
    ///
    /// `capacity == 0` disables caching entirely: every
    /// [`get`](Self::get) misses and [`insert`](Self::insert) is a no-op
    /// (useful as an ablation baseline and for relations too wide to
    /// key). `budget_bytes == 0` means unlimited (entry capacity still
    /// applies). A partition larger than the whole budget is returned
    /// uncached rather than evicting everything for a single entry.
    ///
    /// The hit/miss/eviction counters are registered with `recorder` as
    /// `pli_cache.hits`, `pli_cache.misses`, `pli_cache.evictions` and
    /// `pli_cache.budget_evictions`. The *same* atomics back
    /// [`stats`](Self::stats) and the recorder's snapshot, so there is
    /// exactly one source of truth for cache statistics.
    pub fn new(capacity: usize, budget_bytes: usize, recorder: &dyn Recorder) -> Self {
        // Noop recorders hand back dead handles; detached live counters
        // keep `stats()` working in that case.
        let live = recorder.counter("pli_cache.hits").is_live();
        let counter = |name| {
            if live {
                recorder.counter(name)
            } else {
                Counter::live()
            }
        };
        PliCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            capacity,
            budget_bytes,
            hits: counter("pli_cache.hits"),
            misses: counter("pli_cache.misses"),
            evictions: counter("pli_cache.evictions"),
            budget_evictions: counter("pli_cache.budget_evictions"),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Estimated heap bytes currently retained by resident partitions.
    pub(crate) fn resident_bytes(&self) -> usize {
        // lint: allow(no-panic) reason="cache operations cannot panic while holding the lock, so poisoning implies a panic already unwinding elsewhere"
        self.inner.lock().expect("PliCache lock poisoned").bytes
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        // lint: allow(no-panic) reason="cache operations cannot panic while holding the lock, so poisoning implies a panic already unwinding elsewhere"
        self.inner.lock().expect("PliCache lock poisoned").map.len()
    }

    /// Looks up the partition for the attribute bitset `key`, bumping its
    /// recency and the hit/miss counters.
    pub fn get(&self, key: u64) -> Option<Arc<Pli>> {
        if self.capacity == 0 {
            self.misses.inc();
            return None;
        }
        // lint: allow(no-panic) reason="cache operations cannot panic while holding the lock, so poisoning implies a panic already unwinding elsewhere"
        let mut inner = self.inner.lock().expect("PliCache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let pli = Arc::clone(&entry.pli);
                drop(inner);
                self.hits.inc();
                Some(pli)
            }
            None => {
                drop(inner);
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts (or refreshes) the partition for `key`, evicting the
    /// least-recently-used entry if the cache is full. Returns the
    /// resident `Arc` — if another thread inserted the same key first,
    /// that earlier partition is kept and returned, so all callers share
    /// one allocation.
    pub fn insert(&self, key: u64, pli: Pli) -> Arc<Pli> {
        let bytes = pli.heap_bytes();
        let pli = Arc::new(pli);
        if self.capacity == 0 {
            return pli;
        }
        if self.budget_bytes > 0 && bytes > self.budget_bytes {
            // Larger than the whole budget: caching it would evict every
            // other entry and still overshoot. Hand it back uncached.
            return pli;
        }
        // lint: allow(no-panic) reason="cache operations cannot panic while holding the lock, so poisoning implies a panic already unwinding elsewhere"
        let mut inner = self.inner.lock().expect("PliCache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(existing) = inner.map.get_mut(&key) {
            existing.last_used = tick;
            return Arc::clone(&existing.pli);
        }
        // Evict until both bounds hold: the entry count stays below
        // capacity and the byte budget covers the incoming partition.
        while !inner.map.is_empty()
            && (inner.map.len() >= self.capacity
                || (self.budget_bytes > 0 && inner.bytes + bytes > self.budget_bytes))
        {
            let over_capacity = inner.map.len() >= self.capacity;
            // O(entries) scan; capacities are small enough that a heap
            // would cost more in constant factors than it saves.
            let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&victim) {
                inner.bytes -= evicted.bytes;
            }
            self.evictions.inc();
            if !over_capacity {
                // Capacity had room; only the byte budget forced this.
                self.budget_evictions.inc();
            }
        }
        inner.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                pli: Arc::clone(&pli),
                last_used: tick,
                bytes,
            },
        );
        pli
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PliCacheStats {
        PliCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            budget_evictions: self.budget_evictions.get(),
            entries: self.len(),
            bytes: self.resident_bytes(),
            capacity: self.capacity,
            budget_bytes: self.budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use mp_observe::{NoopRecorder, Registry};

    fn pli(values: &[i64]) -> Pli {
        let column: Vec<Value> = values.iter().map(|&v| Value::Int(v)).collect();
        Pli::from_column(&column)
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = PliCache::new(8, 0, &NoopRecorder);
        assert!(cache.get(0b1).is_none());
        cache.insert(0b1, pli(&[1, 1, 2]));
        let hit = cache.get(0b1).expect("present");
        assert_eq!(*hit, pli(&[1, 1, 2]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = PliCache::new(2, 0, &NoopRecorder);
        cache.insert(1, pli(&[1]));
        cache.insert(2, pli(&[1, 1]));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, pli(&[1, 1, 1]));
        assert!(cache.get(1).is_some(), "recently used survives");
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PliCache::new(0, 0, &NoopRecorder);
        cache.insert(1, pli(&[1, 2]));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn duplicate_insert_keeps_first_resident() {
        let cache = PliCache::new(4, 0, &NoopRecorder);
        let a = cache.insert(7, pli(&[1, 1, 2, 2]));
        let b = cache.insert(7, pli(&[1, 1, 2, 2]));
        assert!(
            Arc::ptr_eq(&a, &b),
            "second insert returns the resident Arc"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = PliCache::new(64, 0, &NoopRecorder);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let key = (i + t) % 16;
                        match cache.get(key) {
                            Some(p) => assert_eq!(p.n_rows(), key as usize + 1),
                            None => {
                                let vals: Vec<i64> = (0..=key as i64).map(|v| v % 3).collect();
                                cache.insert(key, pli(&vals));
                            }
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.hits + stats.misses >= 200);
        assert!(cache.len() <= 16);
    }

    #[test]
    fn recorder_counters_are_one_source_of_truth() {
        let registry = Registry::new();
        let cache = PliCache::new(4, 0, &registry);
        cache.get(1); // miss
        cache.insert(1, pli(&[1, 2]));
        cache.get(1); // hit
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["pli_cache.hits"], 1);
        assert_eq!(snap.counters["pli_cache.misses"], 1);
        assert_eq!(snap.counters["pli_cache.evictions"], 0);

        // A noop recorder must not break local stats.
        let plain = PliCache::new(4, 0, &NoopRecorder);
        plain.get(9);
        assert_eq!(plain.stats().misses, 1);
    }

    /// Heap bytes of `pli(&values)` — the same estimate `insert` uses.
    fn bytes_of(values: &[i64]) -> usize {
        pli(values).heap_bytes()
    }

    #[test]
    fn byte_accounting_is_exact_across_insert_and_evict() {
        let one = bytes_of(&[1, 1]); // one 2-row cluster
        let cache = PliCache::new(16, 3 * one, &NoopRecorder);
        assert_eq!(cache.stats().budget_bytes, 3 * one);
        cache.insert(1, pli(&[1, 1]));
        cache.insert(2, pli(&[2, 2]));
        assert_eq!(cache.resident_bytes(), 2 * one);
        // Third fits exactly; budget holds with zero slack.
        cache.insert(3, pli(&[3, 3]));
        assert_eq!(cache.resident_bytes(), 3 * one);
        assert_eq!(cache.stats().budget_evictions, 0);
        // Fourth forces exactly one budget eviction (capacity has room).
        cache.insert(4, pli(&[4, 4]));
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.bytes, 3 * one);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.budget_evictions, 1);
        assert!(cache.get(1).is_none(), "LRU entry paid for the budget");
    }

    #[test]
    fn oversized_partition_bypasses_cache_instead_of_flushing_it() {
        let one = bytes_of(&[1, 1]);
        let cache = PliCache::new(16, 2 * one, &NoopRecorder);
        cache.insert(1, pli(&[1, 1]));
        cache.insert(2, pli(&[2, 2]));
        // Larger than the whole budget: returned uncached, residents kept.
        let big = cache.insert(3, pli(&[5, 5, 5, 5, 5, 5, 5, 5]));
        assert_eq!(big.covered_count(), 8);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.resident_bytes(), 2 * one);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_none());
    }

    #[test]
    fn budget_can_evict_several_entries_for_one_insert() {
        let one = bytes_of(&[1, 1]);
        let three = bytes_of(&[7; 8]); // one 8-row cluster
        assert!(three < 4 * one && three > 2 * one);
        let cache = PliCache::new(16, 4 * one, &NoopRecorder);
        for key in 1..=4 {
            cache.insert(key, pli(&[key as i64, key as i64]));
        }
        // Fits only after evicting the three least-recent entries.
        cache.insert(9, pli(&[7; 8]));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, one + three);
        assert_eq!(stats.budget_evictions, 3);
        assert!(cache.get(4).is_some(), "most recent small entry survives");
        assert!(cache.get(9).is_some());
    }

    /// The capacity-1 adversarial case from PR 2, re-run with a byte
    /// budget layered on top: ping-ponging two keys through a cache that
    /// can hold only one must alternate evictions, never deadlock or
    /// double-count.
    #[test]
    fn capacity_one_with_budget_ping_pong_stays_exact() {
        let one = bytes_of(&[1, 1]);
        let cache = PliCache::new(1, one, &NoopRecorder);
        for round in 0..8u64 {
            let key = round % 2;
            cache.insert(key, pli(&[1, 1]));
            assert_eq!(cache.resident_bytes(), one, "round {round}");
            assert_eq!(cache.len(), 1, "round {round}");
        }
        // 7 evictions (first insert found an empty cache), none of them
        // forced by the byte budget — capacity always bound first.
        let stats = cache.stats();
        assert_eq!(stats.evictions, 7);
        assert_eq!(stats.budget_evictions, 0);
    }

    #[test]
    fn budget_recorder_counter_is_registered() {
        let registry = Registry::new();
        let one = bytes_of(&[1, 1]);
        let cache = PliCache::new(16, one, &registry);
        cache.insert(1, pli(&[1, 1]));
        cache.insert(2, pli(&[2, 2]));
        assert_eq!(
            registry.snapshot().counters["pli_cache.budget_evictions"],
            1
        );
        assert_eq!(cache.stats().budget_evictions, 1);
    }

    #[test]
    fn display_is_humane() {
        let cache = PliCache::new(3, 0, &NoopRecorder);
        cache.insert(1, pli(&[1]));
        cache.get(1);
        let text = cache.stats().to_string();
        assert!(text.contains("1 hits"), "{text}");
        assert!(text.contains("capacity 3"), "{text}");
    }
}
