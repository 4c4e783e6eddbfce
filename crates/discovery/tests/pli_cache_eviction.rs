//! Regression: a [`DiscoveryContext`] whose cache holds a single entry must
//! still return bit-identical partitions under an adversarial request order
//! that evicts the resident entry on every step, and the cache counters
//! must account for exactly those evictions.

use mp_discovery::{
    discover_fds, discover_fds_naive, discover_fds_with, DiscoveryContext, MemoryBudget,
    ParallelConfig, TaneConfig,
};
use mp_metadata::{pli_of_set, AttrSet};

#[test]
fn capacity_one_alternating_singletons_stay_bit_identical() {
    let rel = mp_datasets::employee();
    let ctx = DiscoveryContext::new(
        &rel,
        ParallelConfig {
            threads: 1,
            cache_capacity: 1,
        },
    );

    // Alternate between two attributes: with one slot, every request misses
    // and every insert (after the first) evicts the other attribute's
    // partition.
    let rounds = 8;
    for i in 0..rounds {
        for attr in [0usize, 1] {
            let got = ctx.pli_of_single(attr).unwrap();
            let direct = pli_of_set(&rel, &AttrSet::from_iter([attr])).unwrap();
            assert_eq!(*got, direct, "round {i}, attribute {attr}");
        }
    }

    let stats = ctx.cache_stats();
    assert_eq!(stats.hits, 0, "no request may survive to be hit: {stats}");
    assert_eq!(stats.misses, 2 * rounds, "every request misses: {stats}");
    // Every miss triggers a build + insert; each insert except the very
    // first evicts the resident entry.
    assert_eq!(stats.evictions, 2 * rounds - 1, "{stats}");
    assert_eq!(
        stats.entries, 1,
        "exactly one partition stays resident: {stats}"
    );
}

#[test]
fn capacity_one_alternating_pairs_stay_bit_identical() {
    let rel = mp_datasets::employee();
    let ctx = DiscoveryContext::new(
        &rel,
        ParallelConfig {
            threads: 1,
            cache_capacity: 1,
        },
    );

    // Each pair request recurses through its parent singleton and the last
    // attribute's singleton, so one request performs three misses and three
    // inserts — all evicting each other through the single slot.
    let sets = [
        AttrSet::from_iter([0usize, 1]),
        AttrSet::from_iter([2usize, 3]),
    ];
    let rounds = 5;
    for i in 0..rounds {
        for set in &sets {
            let got = ctx.pli_of(set).unwrap();
            let direct = pli_of_set(&rel, set).unwrap();
            assert_eq!(*got, direct, "round {i}, set {set:?}");
        }
    }

    let stats = ctx.cache_stats();
    assert_eq!(stats.hits, 0, "{stats}");
    assert_eq!(stats.misses, 2 * rounds * 3, "{stats}");
    assert_eq!(stats.evictions, 2 * rounds * 3 - 1, "{stats}");
    assert_eq!(stats.entries, 1, "{stats}");
}

#[test]
fn starved_byte_budget_alternating_requests_stay_bit_identical() {
    // The byte-budget analogue of the capacity-1 case: plenty of entry
    // capacity, but a budget sized to the larger of two non-key singleton
    // partitions, so the two can never be resident together — every insert
    // after the first must spill through the budget, and the accounting must
    // stay exact (never exceeding the budget).
    let rel = mp_datasets::employee();
    let sets = [AttrSet::from_iter([1usize]), AttrSet::from_iter([2usize])];
    let sizes: Vec<usize> = sets
        .iter()
        .map(|s| pli_of_set(&rel, s).unwrap().heap_bytes())
        .collect();
    assert!(
        sizes.iter().all(|&b| b > 0),
        "both attributes must be non-keys so their partitions occupy bytes"
    );
    let budget = *sizes.iter().max().unwrap();
    let ctx = DiscoveryContext::with_budget(
        &rel,
        ParallelConfig {
            threads: 1,
            cache_capacity: 4096,
        },
        MemoryBudget::from_bytes(budget),
    );
    for i in 0..5 {
        for set in &sets {
            let got = ctx.pli_of(set).unwrap();
            let direct = pli_of_set(&rel, set).unwrap();
            assert_eq!(*got, direct, "round {i}, set {set:?}");
            let stats = ctx.cache_stats();
            assert!(
                stats.bytes <= budget,
                "round {i}: resident {} exceeds budget {budget}: {stats}",
                stats.bytes
            );
        }
    }
    let stats = ctx.cache_stats();
    assert_eq!(stats.budget_bytes, budget, "{stats}");
    assert!(
        stats.budget_evictions > 0,
        "the starved budget must have forced evictions: {stats}"
    );
}

#[test]
fn byte_budgeted_discovery_output_matches_naive_oracle() {
    // Full TANE under a starved byte budget must reproduce the naive
    // baseline exactly — spilling and rebuilding partitions may cost time,
    // never correctness.
    for rel in [mp_datasets::employee(), mp_datasets::echocardiogram()] {
        let naive = discover_fds_naive(&rel, 2).unwrap();
        let parallel = ParallelConfig {
            threads: 2,
            cache_capacity: 4096,
        };
        let config = TaneConfig {
            max_lhs: 2,
            g3_threshold: 0.0,
            parallel,
        };
        let ctx = DiscoveryContext::with_budget(&rel, parallel, MemoryBudget::from_bytes(512));
        let engine = discover_fds_with(&ctx, &config).unwrap();
        let canon = |fds: &[mp_metadata::Fd]| {
            let mut v: Vec<(Vec<usize>, usize)> = fds
                .iter()
                .map(|f| (f.lhs.indices().to_vec(), f.rhs))
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&engine), canon(&naive));
    }
}

#[test]
fn capacity_one_discovery_output_matches_naive_oracle() {
    // Full TANE under the thrashing cache must reproduce the naive
    // baseline exactly — eviction may cost time, never correctness.
    for rel in [mp_datasets::employee(), mp_datasets::echocardiogram()] {
        let naive = discover_fds_naive(&rel, 2).unwrap();
        let config = TaneConfig {
            max_lhs: 2,
            g3_threshold: 0.0,
            parallel: ParallelConfig {
                threads: 2,
                cache_capacity: 1,
            },
        };
        let engine = discover_fds(&rel, &config).unwrap();
        let canon = |fds: &[mp_metadata::Fd]| {
            let mut v: Vec<(Vec<usize>, usize)> = fds
                .iter()
                .map(|f| (f.lhs.indices().to_vec(), f.rhs))
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&engine), canon(&naive));
    }
}
