//! Harness-level validation of every analytical model through the public
//! experiment API: build uniform synthetic "real" data whose parameters
//! the models take as input, run the same `run_cell` machinery the table
//! reproductions use, and check the measured means against the closed
//! forms.

use metadata_privacy::core::analytical;
use metadata_privacy::core::{run_cell, ExperimentConfig};
use metadata_privacy::prelude::*;
use metadata_privacy::relation::Attribute;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 600;
const CARD_X: usize = 6;
const CARD_Y: usize = 12;

/// Real data: X uniform over CARD_X, Y a true mapping into CARD_Y — the
/// canonical shape the §III-B analysis assumes.
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

fn config(rounds: usize) -> ExperimentConfig {
    ExperimentConfig {
        rounds,
        base_seed: 0xA11,
        epsilon: 0.0,
    }
}

#[test]
fn random_cell_matches_binomial_model() {
    let real = mapped_relation(1);
    let cell = run_cell(&real, &domains(), None, 1, &config(300)).unwrap();
    let expected = analytical::random::expected_matches(N, 1.0 / CARD_Y as f64);
    assert!(
        (cell.mean_matches - expected).abs() < 0.12 * expected,
        "measured {} vs N·θ {expected}",
        cell.mean_matches
    );
    // And the per-round std is near the binomial σ.
    let sigma = analytical::random::match_variance(N, 1.0 / CARD_Y as f64).sqrt();
    assert!(
        cell.std_matches > 0.4 * sigma && cell.std_matches < 2.5 * sigma,
        "std {} vs binomial σ {sigma}",
        cell.std_matches
    );
}

#[test]
fn fd_cell_matches_rhs_model_with_blown_up_variance() {
    let real = mapped_relation(2);
    let dep: Dependency = Fd::new(0usize, 1).into();
    let cell = run_cell(&real, &domains(), Some(&dep), 1, &config(400)).unwrap();
    let expected = analytical::fd::expected_rhs_matches(N, CARD_Y);
    assert!(
        (cell.mean_matches - expected).abs() < 0.2 * expected,
        "measured {} vs N/|D_B| {expected}",
        cell.mean_matches
    );
    // §III-B's structure claim, measured: the FD's block-correlated errors
    // inflate the per-round variance far beyond the binomial baseline.
    let binomial_sigma = analytical::random::match_variance(N, 1.0 / CARD_Y as f64).sqrt();
    assert!(
        cell.std_matches > 2.0 * binomial_sigma,
        "fd std {} should exceed binomial σ {binomial_sigma}",
        cell.std_matches
    );
}

#[test]
fn nd_cell_is_k_independent() {
    let real = mapped_relation(3);
    let mut means = Vec::new();
    for k in [1usize, 3, 6, 12] {
        let dep: Dependency = NumericalDep::new(0, 1, k).into();
        let cell = run_cell(&real, &domains(), Some(&dep), 1, &config(250)).unwrap();
        means.push(cell.mean_matches);
    }
    let expected = analytical::random::expected_matches(N, 1.0 / CARD_Y as f64);
    for (i, m) in means.iter().enumerate() {
        assert!(
            (m - expected).abs() < 0.25 * expected + 2.0,
            "k index {i}: measured {m} vs {expected}"
        );
    }
}

#[test]
fn ofd_cell_stays_at_marginal_model() {
    let real = mapped_relation(4);
    let dep: Dependency = OrderedFd::new(0, 1).into();
    let cell = run_cell(&real, &domains(), Some(&dep), 1, &config(300)).unwrap();
    // The marginal model N·θ_X·m/|D_Y| upper-bounds positional agreement;
    // with the determinant generated blindly the measured value sits at or
    // below the random level.
    let random = analytical::random::expected_matches(N, 1.0 / CARD_Y as f64);
    assert!(
        cell.mean_matches < 1.4 * random,
        "ofd {} vs random {random}",
        cell.mean_matches
    );
}

#[test]
fn continuous_dd_cell_bounded_by_pair_baseline() {
    // Continuous pair with a DD: ε-matches at measurement ε = generation ε.
    let schema = metadata_privacy::relation::Schema::new(vec![
        Attribute::continuous("x"),
        Attribute::continuous("y"),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let dom_x = Domain::continuous(0.0, 100.0);
    let dom_y = Domain::continuous(0.0, 50.0);
    let x = metadata_privacy::synth::DomainPool::new(&dom_x)
        .sample(N, &mut rng)
        .to_values();
    let y = metadata_privacy::synth::DomainPool::new(&dom_y)
        .sample(N, &mut rng)
        .to_values();
    let real = Relation::from_columns(schema, vec![x, y]).unwrap();

    let eps = 2.0;
    let dep: Dependency = DifferentialDep::new(0, 1, eps, eps).into();
    let cfg = ExperimentConfig {
        rounds: 200,
        base_seed: 0xDD,
        epsilon: eps,
    };
    let cell = run_cell(&real, &[dom_x, dom_y], Some(&dep), 1, &cfg).unwrap();
    // Free-generation baseline for the Y cell alone: N·2ε/range.
    let baseline = analytical::dd::random_baseline_matches(N, eps, 50.0);
    assert!(
        (cell.mean_matches - baseline).abs() < 0.3 * baseline,
        "dd cell {} vs baseline {baseline}",
        cell.mean_matches
    );
}

#[test]
fn cfd_cell_beats_random_when_supported() {
    // Real data where a pattern has high support: the CFD cell must sit
    // above the random cell by roughly the analytic surplus.
    let schema = metadata_privacy::relation::Schema::new(vec![
        Attribute::categorical("x"),
        Attribute::categorical("y"),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..N)
        .map(|i| {
            if i % 2 == 0 {
                vec![Value::Int(0), Value::Int(7)]
            } else {
                vec![
                    Value::Int((i % CARD_X) as i64),
                    Value::Int((i % (CARD_Y - 1)) as i64),
                ]
            }
        })
        .collect();
    let real = Relation::from_rows(schema, rows).unwrap();
    let support = N / 2;

    let dep: Dependency = ConditionalFd::constant(0, 0i64, 1, 7i64).into();
    let cfd_cell = run_cell(&real, &domains(), Some(&dep), 1, &config(200)).unwrap();
    let rand_cell = run_cell(&real, &domains(), None, 1, &config(200)).unwrap();
    let surplus = analytical::cfd::pattern_strategy_hits(support, CARD_X);
    assert!(
        cfd_cell.mean_matches > rand_cell.mean_matches + 0.5 * surplus,
        "cfd {} vs random {} (analytic surplus {surplus})",
        cfd_cell.mean_matches,
        rand_cell.mean_matches
    );
}
