//! Oracle suite: the cached / parallel discovery engine must agree with the
//! exhaustive naive baseline — on the bundled datasets, on seeded generator
//! relations, and on randomized relations at every lattice depth, under
//! every parallel/cache configuration.
//!
//! The naive oracle (`discover_fds_naive`) deliberately bypasses the
//! [`DiscoveryContext`] and rebuilds each partition from scratch, so the
//! two sides share no code path beyond the `Pli` primitive itself.

use mp_discovery::{
    discover_fds_naive, discover_fds_with, DiscoveryContext, ParallelConfig, TaneConfig,
};
use mp_relation::{Attribute, Relation, Schema, Value};
use proptest::prelude::*;

fn canon(fds: Vec<mp_metadata::Fd>) -> Vec<(Vec<usize>, usize)> {
    let mut v: Vec<(Vec<usize>, usize)> = fds
        .into_iter()
        .map(|f| (f.lhs.indices().to_vec(), f.rhs))
        .collect();
    v.sort();
    v
}

/// The parallel/cache configurations every oracle comparison runs under:
/// sequential, default (all threads, default cache), oversubscribed with a
/// tiny cache that forces evictions, a single-entry cache that thrashes on
/// every step, and fully uncached ablation.
fn engine_configs() -> Vec<ParallelConfig> {
    vec![
        ParallelConfig::sequential(),
        ParallelConfig::default(),
        ParallelConfig {
            threads: 3,
            cache_capacity: 8,
        },
        ParallelConfig {
            threads: 2,
            cache_capacity: 1,
        },
        ParallelConfig::uncached(4),
    ]
}

/// The engine's FDs of `rel` over a fresh context with budget `parallel`.
fn engine_fds(
    rel: &Relation,
    parallel: ParallelConfig,
    config: &TaneConfig,
) -> Vec<mp_metadata::Fd> {
    discover_fds_with(&DiscoveryContext::new(rel, parallel), config).unwrap()
}

/// Round-trips `rel` through the `Value` boundary twice — typed columns →
/// `Value` rows → typed columns, and typed columns → `Value` columns →
/// typed columns — asserting both reconstructions are identical relations.
fn roundtrip_through_values(rel: &Relation, label: &str) -> Relation {
    let via_rows = Relation::from_rows(rel.schema().clone(), rel.rows().collect()).unwrap();
    assert_eq!(
        &via_rows, rel,
        "{label}: columns → rows → columns round-trip changed the relation"
    );
    let via_cols = Relation::from_columns(
        rel.schema().clone(),
        (0..rel.arity())
            .map(|i| rel.column_values(i).unwrap())
            .collect(),
    )
    .unwrap();
    assert_eq!(
        &via_cols, rel,
        "{label}: columns → Values → columns round-trip changed the relation"
    );
    via_rows
}

/// Asserts that the engine output equals the naive oracle on `rel` for
/// every engine configuration, at lattice depth `max_lhs` — and that the
/// same holds on the columnar representation round-tripped through `Value`
/// rows (freshly rebuilt dictionaries and null bitmaps).
fn assert_matches_oracle(rel: &Relation, max_lhs: usize, label: &str) {
    let naive = canon(discover_fds_naive(rel, max_lhs).unwrap());
    let roundtripped = roundtrip_through_values(rel, label);
    let config = TaneConfig {
        max_lhs,
        g3_threshold: 0.0,
    };
    for parallel in engine_configs() {
        let engine = canon(engine_fds(rel, parallel, &config));
        assert_eq!(
            engine, naive,
            "{label}: engine ({parallel:?}) disagrees with naive oracle at depth {max_lhs}"
        );
        let engine_rt = canon(engine_fds(&roundtripped, parallel, &config));
        assert_eq!(
            engine_rt, naive,
            "{label}: engine ({parallel:?}) disagrees with naive oracle on the \
             round-tripped relation at depth {max_lhs}"
        );
    }
}

#[test]
fn echocardiogram_matches_oracle() {
    assert_matches_oracle(&mp_datasets::echocardiogram(), 2, "echocardiogram");
}

#[test]
fn employee_matches_oracle() {
    assert_matches_oracle(&mp_datasets::employee(), 3, "employee");
}

#[test]
fn iris_like_matches_oracle() {
    assert_matches_oracle(&mp_datasets::iris_like(), 2, "iris_like");
}

#[test]
fn seeded_generator_relations_match_oracle() {
    for seed in [7, 19, 42] {
        let out = mp_datasets::all_classes_spec(120, seed).generate().unwrap();
        assert_matches_oracle(&out.relation, 2, &format!("all_classes seed {seed}"));
    }
}

#[test]
fn shared_context_matches_fresh_context() {
    // A context reused across calls (warm cache, nonzero hit counters) must
    // give the same answer as a cold one.
    let rel = mp_datasets::echocardiogram();
    let config = TaneConfig {
        max_lhs: 2,
        g3_threshold: 0.0,
    };
    let cold = engine_fds(&rel, ParallelConfig::default(), &config);

    let ctx = DiscoveryContext::new(&rel, ParallelConfig::default());
    let first = discover_fds_with(&ctx, &config).unwrap();
    let warm = discover_fds_with(&ctx, &config).unwrap();
    assert_eq!(canon(cold), canon(first.clone()));
    assert_eq!(canon(first), canon(warm));
    assert!(ctx.cache_stats().hits > 0, "warm rerun must hit the cache");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tane_agrees_with_exhaustive_baseline(
        n_attrs in 2usize..7,
        rows in prop::collection::vec(
            prop::collection::vec(0i64..4, 6),
            0..40,
        ),
        depth in 1usize..4,
    ) {
        let attrs: Vec<Attribute> =
            (0..n_attrs).map(|i| Attribute::categorical(format!("a{i}"))).collect();
        let schema = Schema::new(attrs).unwrap();
        let data: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|r| r.into_iter().take(n_attrs).map(Value::Int).collect())
            .collect();
        let rel = Relation::from_rows(schema, data).unwrap();

        let naive = canon(discover_fds_naive(&rel, depth).unwrap());
        for parallel in engine_configs() {
            let tane = engine_fds(
                &rel,
                parallel,
                &TaneConfig { max_lhs: depth, g3_threshold: 0.0 },
            );
            prop_assert_eq!(canon(tane.clone()), naive.clone());

            // Soundness: every discovered FD holds.
            for fd in &tane {
                prop_assert!(fd.holds(&rel).unwrap(), "{:?} does not hold", fd);
            }
        }
    }

    #[test]
    fn approximate_tane_is_sound(
        rows in prop::collection::vec(prop::collection::vec(0i64..3, 3), 5..60),
        threshold in 0.0f64..0.4,
    ) {
        let attrs: Vec<Attribute> =
            (0..3).map(|i| Attribute::categorical(format!("a{i}"))).collect();
        let schema = Schema::new(attrs).unwrap();
        let data: Vec<Vec<Value>> =
            rows.into_iter().map(|r| r.into_iter().map(Value::Int).collect()).collect();
        let rel = Relation::from_rows(schema, data).unwrap();
        let approx = engine_fds(
            &rel,
            ParallelConfig::default(),
            &TaneConfig { max_lhs: 2, g3_threshold: threshold },
        );
        // Every reported AFD really has g3 within the threshold (floored to
        // a violation count, as the implementation documents).
        let n = rel.n_rows() as f64;
        for fd in &approx {
            let g3 = fd.g3_error(&rel).unwrap();
            prop_assert!(
                g3 * n <= (threshold * n).floor() + 1e-9,
                "g3 {} over threshold {}",
                g3,
                threshold
            );
        }
    }

    #[test]
    fn approximate_tane_identical_across_engine_configs(
        rows in prop::collection::vec(prop::collection::vec(0i64..3, 4), 5..50),
        threshold in 0.0f64..0.3,
    ) {
        let attrs: Vec<Attribute> =
            (0..4).map(|i| Attribute::categorical(format!("a{i}"))).collect();
        let schema = Schema::new(attrs).unwrap();
        let data: Vec<Vec<Value>> =
            rows.into_iter().map(|r| r.into_iter().map(Value::Int).collect()).collect();
        let rel = Relation::from_rows(schema, data).unwrap();

        let mut outputs = Vec::new();
        let config = TaneConfig { max_lhs: 3, g3_threshold: threshold };
        for parallel in engine_configs() {
            outputs.push(engine_fds(&rel, parallel, &config));
        }
        for pair in outputs.windows(2) {
            // Vec equality, not set equality: output order must also be
            // independent of threading and cache budget.
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }
}
