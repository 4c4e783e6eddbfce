//! The shared discovery engine: one PLI cache + one thread budget for
//! every discovery pass over a relation.
//!
//! All dependency classes the paper profiles reduce their data access to
//! stripped partitions: TANE intersects them up the lattice, `g3` checks
//! recompute LHS partitions, ND fanout bounds group by the LHS partition.
//! A [`DiscoveryContext`] binds a relation to a [`PliCache`] so every
//! pass — and every level and thread within a pass — shares the
//! partitions already built, and to a [`ParallelConfig`] so passes fan
//! candidate evaluation out over scoped worker threads.

use mp_metadata::AttrSet;
use mp_observe::{Counter, NoopRecorder, Recorder};
use mp_relation::{par, Pli, PliCache, PliCacheStats, Relation, Result, Signature};
use std::sync::Arc;

/// Thread and cache budget for a discovery run.
///
/// `threads == 0` means "use the machine's available parallelism";
/// `threads == 1` forces fully sequential evaluation. `cache_capacity`
/// bounds the number of memoized partitions: each resident entry costs
/// `O(n_rows)` memory, so the cache's footprint is at most
/// `cache_capacity × O(n_rows)` regardless of lattice size;
/// `cache_capacity == 0` disables memoization entirely (the ablation
/// baseline — every partition is rebuilt on demand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for candidate evaluation (`0` = auto-detect).
    pub threads: usize,
    /// Maximum number of memoized partitions (`0` = no caching).
    pub cache_capacity: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_capacity: 4096,
        }
    }
}

impl ParallelConfig {
    /// Fully sequential, cache on: the reference configuration whose
    /// output every parallel configuration must reproduce.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            cache_capacity: 4096,
        }
    }

    /// Cache off, threads as configured: the ablation baseline.
    pub fn uncached(threads: usize) -> Self {
        Self {
            threads,
            cache_capacity: 0,
        }
    }
}

/// A memory budget for discovery, in bytes of estimated retained
/// partition heap ([`Pli::heap_bytes`]; `0` = unlimited).
///
/// Threaded through [`DiscoveryContext::with_budget`], it bounds the
/// [`PliCache`] by *bytes* on top of its entry count: partitions the budget
/// cannot hold are evicted (LRU) or bypass the cache, and the lattice
/// traversal rebuilds them on demand through the memoized intersection
/// chain. Pressure is observable as `pli_cache.budget_evictions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBudget {
    bytes: usize,
}

impl MemoryBudget {
    /// No limit: the cache is bounded by entry count alone.
    pub fn unlimited() -> Self {
        Self { bytes: 0 }
    }

    /// A budget of `mb` mebibytes (`0` = unlimited).
    pub fn from_mb(mb: usize) -> Self {
        Self {
            bytes: mb.saturating_mul(1024 * 1024),
        }
    }

    /// A budget of exactly `bytes` bytes (`0` = unlimited).
    pub fn from_bytes(bytes: usize) -> Self {
        Self { bytes }
    }

    /// The budget in bytes (`0` = unlimited).
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

/// A relation bound to a shared partition cache and a thread budget.
///
/// Create one context per relation and pass it to the discovery entry
/// points ([`discover_fds_with`](crate::discover_fds_with),
/// [`DependencyProfile::discover_with`](crate::DependencyProfile::discover_with),
/// …) to share partitions across passes. The context is `Sync`: worker
/// threads spawned by a pass borrow it concurrently.
pub struct DiscoveryContext<'r> {
    relation: &'r Relation,
    cache: PliCache,
    parallel: ParallelConfig,
    recorder: Arc<dyn Recorder>,
    /// Resolved once at construction; bumped (with a 1-unit clock
    /// advance) for every partition actually materialised.
    pli_builds: Counter,
}

impl<'r> DiscoveryContext<'r> {
    /// Binds `relation` to a fresh cache sized by `parallel`.
    ///
    /// Relations wider than 64 attributes cannot be keyed by a `u64`
    /// bitset; their context degrades to an always-miss cache (capacity
    /// forced to 0) and discovery still works, just without memoization.
    pub fn new(relation: &'r Relation, parallel: ParallelConfig) -> Self {
        Self::with_budget(relation, parallel, MemoryBudget::unlimited())
    }

    /// [`new`](Self::new) under a [`MemoryBudget`], bounding the partition
    /// cache by estimated retained heap bytes as well as by entry count.
    pub fn with_budget(
        relation: &'r Relation,
        parallel: ParallelConfig,
        budget: MemoryBudget,
    ) -> Self {
        Self::instrumented_with_budget(relation, parallel, budget, Arc::new(NoopRecorder))
    }

    /// [`with_budget`](Self::with_budget) with an explicit [`Recorder`].
    /// The context registers `pli_cache.*` counters and
    /// `discovery.pli.builds`, and advances the recorder's logical clock by
    /// one unit per partition it materialises — which is what gives the
    /// per-pass spans recorded by the profiler their (deterministic)
    /// durations.
    pub fn instrumented_with_budget(
        relation: &'r Relation,
        parallel: ParallelConfig,
        budget: MemoryBudget,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let capacity = if relation.arity() > 64 {
            0
        } else {
            parallel.cache_capacity
        };
        DiscoveryContext {
            relation,
            cache: PliCache::new(capacity, budget.bytes(), recorder.as_ref()),
            parallel,
            pli_builds: recorder.counter("discovery.pli.builds"),
            recorder,
        }
    }

    /// The recorder this context reports to (a [`NoopRecorder`] unless
    /// built via [`instrumented_with_budget`](Self::instrumented_with_budget)).
    pub(crate) fn recorder(&self) -> &dyn Recorder {
        self.recorder.as_ref()
    }

    /// Counts one materialised partition: bumps `discovery.pli.builds`
    /// and advances the logical clock one work unit.
    fn note_build(&self) {
        self.pli_builds.inc();
        self.recorder.advance(1);
    }

    /// The bound relation.
    pub fn relation(&self) -> &'r Relation {
        self.relation
    }

    /// Snapshot of the shared cache's counters.
    pub fn cache_stats(&self) -> PliCacheStats {
        self.cache.stats()
    }

    /// Order-preserving parallel map on this context's thread budget.
    pub(crate) fn par_map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        par::par_map(items, self.parallel.threads, f)
    }

    /// The single-attribute partition `Π_{a}`, memoized.
    pub fn pli_of_single(&self, attr: usize) -> Result<Arc<Pli>> {
        let key = 1u64 << (attr.min(63));
        if self.cacheable() {
            if let Some(pli) = self.cache.get(key) {
                return Ok(pli);
            }
        }
        let pli = Pli::from_typed(self.relation.column(attr)?);
        self.note_build();
        Ok(self.store(key, pli))
    }

    /// The partition `Π_X` for an attribute set, memoized.
    ///
    /// Built by intersecting the (memoized) partition of `X` minus its
    /// largest attribute with that attribute's single-column partition,
    /// so a lattice traversal that already cached the parent level pays
    /// exactly one intersection per new node — and later passes
    /// requesting the same set pay nothing.
    pub fn pli_of(&self, set: &AttrSet) -> Result<Arc<Pli>> {
        let mut iter = set.iter();
        let Some(first) = iter.next() else {
            return Ok(Arc::new(Pli::unit(self.relation.n_rows())));
        };
        if set.len() == 1 {
            return self.pli_of_single(first);
        }
        if !self.cacheable() {
            // No memoization: build the chain linearly, like
            // `mp_metadata::pli_of_set`, instead of recursing (which
            // would rebuild each parent prefix from scratch).
            let mut pli = Pli::from_typed(self.relation.column(first)?);
            self.note_build();
            for attr in set.iter().skip(1) {
                pli = pli.intersect(&Pli::from_typed(self.relation.column(attr)?));
                self.note_build();
            }
            return Ok(Arc::new(pli));
        }
        let key = self.key_of(set);
        if let Some(pli) = self.cache.get(key) {
            return Ok(pli);
        }
        let last = set.iter().last().unwrap_or(first);
        let parent = set.without(last);
        let a = self.pli_of(&parent)?;
        let b = self.pli_of_single(last)?;
        let pli = a.intersect(&b);
        self.note_build();
        Ok(self.store(key, pli))
    }

    /// `g3` violation count of `lhs → rhs` against a precomputed RHS
    /// signature, using the memoized LHS partition.
    pub(crate) fn lhs_violations(&self, lhs: &AttrSet, rhs: &Signature) -> Result<usize> {
        Ok(self.pli_of(lhs)?.g3_violations(rhs))
    }

    fn cacheable(&self) -> bool {
        self.cache.capacity() > 0 && self.relation.arity() <= 64
    }

    fn key_of(&self, set: &AttrSet) -> u64 {
        set.iter().fold(0u64, |acc, a| acc | (1u64 << a.min(63)))
    }

    fn store(&self, key: u64, pli: Pli) -> Arc<Pli> {
        if self.cacheable() {
            self.cache.insert(key, pli)
        } else {
            Arc::new(pli)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::employee;
    use mp_metadata::pli_of_set;

    #[test]
    fn cached_plis_equal_direct_construction() {
        let r = employee();
        let ctx = DiscoveryContext::new(&r, ParallelConfig::default());
        for a in 0..r.arity() {
            let direct = Pli::from_typed(r.column(a).unwrap());
            assert_eq!(*ctx.pli_of_single(a).unwrap(), direct);
        }
        for (a, b) in [(0usize, 1usize), (1, 2), (0, 3), (2, 3)] {
            let set = AttrSet::from_iter([a, b]);
            let direct = pli_of_set(&r, &set).unwrap();
            assert_eq!(*ctx.pli_of(&set).unwrap(), direct, "set {{{a},{b}}}");
        }
        let set = AttrSet::from_iter([0usize, 1, 2]);
        assert_eq!(*ctx.pli_of(&set).unwrap(), pli_of_set(&r, &set).unwrap());
    }

    #[test]
    fn empty_set_is_unit_partition() {
        let r = employee();
        let ctx = DiscoveryContext::new(&r, ParallelConfig::default());
        let unit = ctx.pli_of(&AttrSet::empty()).unwrap();
        assert_eq!(*unit, Pli::unit(r.n_rows()));
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let r = employee();
        let ctx = DiscoveryContext::new(&r, ParallelConfig::default());
        let set = AttrSet::from_iter([0usize, 2]);
        let first = ctx.pli_of(&set).unwrap();
        let hits_before = ctx.cache_stats().hits;
        let second = ctx.pli_of(&set).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second lookup shares the Arc");
        assert!(ctx.cache_stats().hits > hits_before);
    }

    #[test]
    fn uncached_context_still_correct() {
        let r = employee();
        let ctx = DiscoveryContext::new(&r, ParallelConfig::uncached(1));
        let set = AttrSet::from_iter([1usize, 3]);
        assert_eq!(*ctx.pli_of(&set).unwrap(), pli_of_set(&r, &set).unwrap());
        assert_eq!(ctx.cache_stats().hits, 0);
        assert_eq!(ctx.cache_stats().entries, 0);
    }

    #[test]
    fn instrumented_context_reports_builds_and_cache_traffic() {
        use mp_observe::Registry;
        let r = employee();
        let registry = Arc::new(Registry::new());
        let ctx = DiscoveryContext::instrumented_with_budget(
            &r,
            ParallelConfig::sequential(),
            MemoryBudget::unlimited(),
            registry.clone(),
        );
        let set = AttrSet::from_iter([0usize, 2]);
        ctx.pli_of(&set).unwrap(); // builds Π_0, Π_2, Π_{0,2}
        ctx.pli_of(&set).unwrap(); // pure cache hit
        let snap = registry.snapshot();
        assert_eq!(snap.counters["discovery.pli.builds"], 3);
        assert_eq!(snap.clock, 3, "clock advances one unit per build");
        assert!(snap.counters["pli_cache.hits"] >= 1);
        // Registry and local stats read the same atomics.
        assert_eq!(snap.counters["pli_cache.hits"], ctx.cache_stats().hits);
        assert_eq!(snap.counters["pli_cache.misses"], ctx.cache_stats().misses);
    }

    #[test]
    fn memory_budget_constructors() {
        assert_eq!(MemoryBudget::unlimited().bytes(), 0);
        assert_eq!(MemoryBudget::from_mb(0).bytes(), 0);
        assert_eq!(MemoryBudget::from_mb(2).bytes(), 2 * 1024 * 1024);
        assert_eq!(MemoryBudget::from_bytes(77).bytes(), 77);
        assert_eq!(MemoryBudget::from_bytes(1).bytes(), 1);
        // Saturates instead of overflowing on absurd budgets.
        assert_eq!(MemoryBudget::from_mb(usize::MAX).bytes(), usize::MAX);
    }

    #[test]
    fn memory_budget_bounds_resident_cache_bytes() {
        let r = employee();
        let ctx = DiscoveryContext::with_budget(
            &r,
            ParallelConfig::default(),
            MemoryBudget::from_bytes(256),
        );
        for a in 0..r.arity() {
            ctx.pli_of_single(a).unwrap();
        }
        for (a, b) in [(0usize, 1usize), (1, 2), (0, 3), (2, 3)] {
            let set = AttrSet::from_iter([a, b]);
            assert_eq!(*ctx.pli_of(&set).unwrap(), pli_of_set(&r, &set).unwrap());
        }
        let stats = ctx.cache_stats();
        assert_eq!(stats.budget_bytes, 256);
        assert!(stats.bytes <= 256, "resident {} > budget", stats.bytes);
    }

    #[test]
    fn concurrent_pli_requests_agree() {
        let r = employee();
        let ctx = DiscoveryContext::new(
            &r,
            ParallelConfig {
                threads: 4,
                cache_capacity: 64,
            },
        );
        let sets: Vec<AttrSet> = (0..r.arity())
            .flat_map(|a| (0..r.arity()).map(move |b| AttrSet::from_iter([a, b])))
            .collect();
        let plis = ctx.par_map(sets.clone(), |s| (*ctx.pli_of(&s).unwrap()).clone());
        for (set, pli) in sets.iter().zip(&plis) {
            assert_eq!(*pli, pli_of_set(&r, set).unwrap(), "{set:?}");
        }
    }
}
