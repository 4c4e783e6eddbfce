//! Regression guard for the parallel discovery engine at the pipeline
//! level: the expected-leakage bounds validated in `analytic_empirical.rs`
//! must continue to hold when the dependencies driving the attack were
//! discovered with `threads > 1` and a shared PLI cache — i.e. the engine
//! configuration must be invisible to every downstream measurement.

use metadata_privacy::core::analytical;
use metadata_privacy::core::{run_cell, ExperimentConfig};
use metadata_privacy::discovery::{
    DependencyProfile, DiscoveryContext, ParallelConfig, ProfileConfig,
};
use metadata_privacy::prelude::*;
use metadata_privacy::relation::Attribute;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 600;
const CARD_X: usize = 6;
const CARD_Y: usize = 12;

/// Same canonical §III-B shape as `analytic_empirical.rs`: X uniform,
/// Y = f(X) a true mapping.
fn mapped_relation(seed: u64) -> Relation {
    let schema = metadata_privacy::relation::Schema::new(vec![
        Attribute::categorical("x"),
        Attribute::categorical("y"),
    ])
    .unwrap();
    let dom_x = Domain::categorical((0..CARD_X as i64).collect::<Vec<_>>());
    let mut rng = StdRng::seed_from_u64(seed);
    let x = metadata_privacy::synth::DomainPool::new(&dom_x)
        .sample(N, &mut rng)
        .to_values();
    let y: Vec<Value> = x
        .iter()
        .map(|v| Value::Int((v.as_i64().unwrap() * 2) % CARD_Y as i64))
        .collect();
    Relation::from_columns(schema, vec![x, y]).unwrap()
}

fn domains() -> Vec<Domain> {
    vec![
        Domain::categorical((0..CARD_X as i64).collect::<Vec<_>>()),
        Domain::categorical((0..CARD_Y as i64).collect::<Vec<_>>()),
    ]
}

/// The paper profile of `real`, discovered on `threads` threads.
fn threaded(real: &Relation, threads: usize) -> DependencyProfile {
    let parallel = ParallelConfig {
        threads,
        ..ParallelConfig::default()
    };
    let ctx = DiscoveryContext::new(real, parallel);
    DependencyProfile::discover_with(&ctx, &ProfileConfig::paper()).unwrap()
}

#[test]
fn profile_is_thread_count_invariant() {
    let real = mapped_relation(2);
    let baseline = threaded(&real, 1);
    for threads in [2usize, 4, 8] {
        let profile = threaded(&real, threads);
        assert_eq!(
            format!("{baseline:?}"),
            format!("{profile:?}"),
            "profile changed at {threads} threads"
        );
    }
}

#[test]
fn fd_leakage_bound_holds_with_parallel_discovery() {
    let real = mapped_relation(2);

    // Discover with threads > 1 through a shared cached context, then take
    // the planted FD x → y from the *discovered* profile (not constructed
    // by hand) into the leakage measurement.
    let ctx = DiscoveryContext::new(
        &real,
        ParallelConfig {
            threads: 4,
            cache_capacity: 4096,
        },
    );
    let profile = DependencyProfile::discover_with(&ctx, &ProfileConfig::paper()).unwrap();
    let fd = profile
        .fds
        .iter()
        .find(|f| f.rhs == 1 && f.lhs.indices() == [0])
        .expect("planted FD x → y must be discovered")
        .clone();

    let dep: Dependency = fd.into();
    let config = ExperimentConfig {
        rounds: 400,
        base_seed: 0xA11,
        epsilon: 0.0,
    };
    let cell = run_cell(&real, &domains(), Some(&dep), 1, &config).unwrap();

    // Identical bounds to `analytic_empirical::fd_cell_matches_rhs_model...`:
    // mean at N/|D_B|, variance blown up beyond the binomial baseline.
    let expected = analytical::fd::expected_rhs_matches(N, CARD_Y);
    assert!(
        (cell.mean_matches - expected).abs() < 0.2 * expected,
        "measured {} vs N/|D_B| {expected}",
        cell.mean_matches
    );
    let binomial_sigma = analytical::random::match_variance(N, 1.0 / CARD_Y as f64).sqrt();
    assert!(
        cell.std_matches > 2.0 * binomial_sigma,
        "fd std {} should exceed binomial σ {binomial_sigma}",
        cell.std_matches
    );
}

#[test]
fn random_leakage_bound_unaffected_by_engine_config() {
    // The no-dependency cell never touches the engine; this guards against
    // the engine leaking state into the experiment harness (shared RNG,
    // global caches) by running it before the measurement.
    let real = mapped_relation(1);
    for parallel in [
        ParallelConfig::sequential(),
        ParallelConfig {
            threads: 4,
            cache_capacity: 8,
        },
        ParallelConfig::uncached(4),
    ] {
        let ctx = DiscoveryContext::new(&real, parallel);
        DependencyProfile::discover_with(&ctx, &ProfileConfig::paper()).unwrap();

        let config = ExperimentConfig {
            rounds: 300,
            base_seed: 0xA11,
            epsilon: 0.0,
        };
        let cell = run_cell(&real, &domains(), None, 1, &config).unwrap();
        let expected = analytical::random::expected_matches(N, 1.0 / CARD_Y as f64);
        assert!(
            (cell.mean_matches - expected).abs() < 0.12 * expected,
            "measured {} vs N·θ {expected} under {parallel:?}",
            cell.mean_matches
        );
    }
}
