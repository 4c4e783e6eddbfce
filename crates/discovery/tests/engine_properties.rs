//! Property tests for the discovery engine's PLI cache: partitions served
//! from the cache must be *bit-identical* to partitions rebuilt from
//! scratch, for arbitrary relations, attribute sets, cache budgets, and
//! request orders; and the partition layer's counters must obey their
//! conservation law at every thread count, capacity and byte budget.

use mp_discovery::{
    discover_fds_with, DependencyProfile, DiscoveryContext, MemoryBudget, ParallelConfig,
    ProfileConfig, TaneConfig,
};
use mp_metadata::{pli_of_set, AttrSet};
use mp_observe::Registry;
use mp_relation::{Attribute, Relation, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn build(rows: Vec<Vec<i64>>, n_attrs: usize) -> Relation {
    let attrs: Vec<Attribute> = (0..n_attrs)
        .map(|i| Attribute::categorical(format!("a{i}")))
        .collect();
    let schema = Schema::new(attrs).unwrap();
    let data: Vec<Vec<Value>> = rows
        .into_iter()
        .map(|r| r.into_iter().take(n_attrs).map(Value::Int).collect())
        .collect();
    Relation::from_rows(schema, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_pli_bit_identical_to_uncached(
        rows in prop::collection::vec(prop::collection::vec(0i64..4, 5), 0..50),
        sets in prop::collection::vec(prop::collection::vec(0usize..5, 1..4), 1..8),
        cache_capacity in prop::option::of(1usize..6),
    ) {
        let rel = build(rows, 5);
        // A tiny Some(capacity) forces evictions mid-sequence; None means
        // the uncached ablation path.
        let parallel = ParallelConfig {
            threads: 1,
            cache_capacity: cache_capacity.unwrap_or(0),
        };
        let cached = DiscoveryContext::new(&rel, parallel);
        let reference = DiscoveryContext::new(&rel, ParallelConfig::uncached(1));

        for set in &sets {
            let set = AttrSet::from_iter(set.iter().copied());
            let from_cache = cached.pli_of(&set).unwrap();
            let fresh = reference.pli_of(&set).unwrap();
            // Bit-identical: same clusters in the same order, same row
            // count — Pli's derived PartialEq compares the full structure.
            prop_assert_eq!(&*from_cache, &*fresh);
            // And both agree with the independent linear-scan builder.
            prop_assert_eq!(&*from_cache, &pli_of_set(&rel, &set).unwrap());
        }
    }

    #[test]
    fn repeated_requests_return_identical_partitions(
        rows in prop::collection::vec(prop::collection::vec(0i64..3, 4), 1..40),
        set in prop::collection::vec(0usize..4, 1..4),
    ) {
        // Cache hit (second request) must return the same Arc contents as
        // the miss that populated it, even after other sets evicted it.
        let rel = build(rows, 4);
        let ctx = DiscoveryContext::new(&rel, ParallelConfig { threads: 1, cache_capacity: 2 });
        let set = AttrSet::from_iter(set.iter().copied());
        let first = ctx.pli_of(&set).unwrap();
        // Churn the tiny cache with every single-attribute partition.
        for a in 0..4 {
            ctx.pli_of(&AttrSet::single(a)).unwrap();
        }
        let second = ctx.pli_of(&set).unwrap();
        prop_assert_eq!(&*first, &*second);
    }
}

proptest! {
    // Each case runs 36 configurations, so fewer cases than above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_cache_miss_builds_exactly_once(
        rows in prop::collection::vec(prop::collection::vec(0i64..5, 4), 2..40),
    ) {
        // A cached context materialises a partition exactly when a lookup
        // misses (hits build nothing), so
        // `discovery.pli.builds == pli_cache.misses`, whatever the thread
        // schedule or the evictions a byte budget forces. An uncached
        // context never consults the cache, yet still builds.
        let rel = build(rows, 4);
        let fd = TaneConfig::default();
        // The passes that draw partitions from the context (FD, AFD, ND);
        // DD, CFD and MFD never touch it and only add time.
        let profile = ProfileConfig { dd: None, cfd: None, mfd: None, ..ProfileConfig::paper() };
        for threads in [1usize, 2, 4] {
            for cache_capacity in [0usize, 1, 8, 4096] {
                for budget in [0usize, 512, 4096] {
                    let registry = Arc::new(Registry::new());
                    let ctx = DiscoveryContext::instrumented_with_budget(
                        &rel,
                        ParallelConfig { threads, cache_capacity },
                        MemoryBudget::from_bytes(budget),
                        registry.clone(),
                    );
                    discover_fds_with(&ctx, &fd).unwrap();
                    DependencyProfile::discover_with(&ctx, &profile).unwrap();
                    let counters = registry.snapshot().counters;
                    let (builds, hits, misses) = (
                        counters["discovery.pli.builds"],
                        counters["pli_cache.hits"],
                        counters["pli_cache.misses"],
                    );
                    let at = format!("threads {threads}, capacity {cache_capacity}, budget {budget} B");
                    if cache_capacity == 0 {
                        prop_assert_eq!((hits, misses), (0, 0), "{}", at);
                        prop_assert!(builds > 0, "{}", at);
                    } else {
                        prop_assert_eq!(builds, misses, "{}", at);
                    }
                }
            }
        }
    }
}

#[test]
fn unbudgeted_profile_metrics_are_thread_count_invariant() {
    // Without a byte budget nothing is evicted, so every partition the
    // profile asks for is built exactly once whatever the schedule: the
    // metrics snapshot and the cache statistics (the `mpriv profile`
    // report line) must not depend on the thread count.
    let relations = [
        mp_datasets::employee(),
        mp_datasets::echocardiogram(),
        mp_datasets::bank_table(200).relation,
        mp_datasets::all_classes_spec(500, 7)
            .generate()
            .unwrap()
            .relation,
    ];
    for (i, rel) in relations.iter().enumerate() {
        let run = |threads: usize| {
            let registry = Arc::new(Registry::new());
            let ctx = DiscoveryContext::instrumented_with_budget(
                rel,
                ParallelConfig {
                    threads,
                    ..ParallelConfig::default()
                },
                MemoryBudget::unlimited(),
                registry.clone(),
            );
            DependencyProfile::discover_with(&ctx, &ProfileConfig::paper()).unwrap();
            (registry.snapshot().to_json(), ctx.cache_stats().to_string())
        };
        let sequential = run(1);
        for threads in [2, 4] {
            assert_eq!(
                run(threads),
                sequential,
                "relation {i} at {threads} threads"
            );
        }
    }
}
