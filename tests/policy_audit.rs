//! The privacy audit a data owner runs before agreeing to a metadata
//! exchange, through the library calls behind `mpriv identifiability`,
//! `mpriv compare` and `mpriv audit`: identifiability (Definition 2.1),
//! the measured synthesis attack under each preset [`SharePolicy`]
//! (§III/§V), the constant-CFD flood criterion, and the one
//! Definition 2.2/2.3 kernel that scores every count.

use metadata_privacy::core::{
    analytical::cfd, attr_matches, attr_mse, identifiability_rate, seed_for,
};
use metadata_privacy::datasets;
use metadata_privacy::prelude::*;

const PRESETS: [(&str, SharePolicy); 4] = [
    ("names", SharePolicy::NAMES_ONLY),
    ("domains", SharePolicy::NAMES_AND_DOMAINS),
    ("full", SharePolicy::FULL),
    ("recommended", SharePolicy::PAPER_RECOMMENDED),
];

/// Total mean matches per round under each preset policy. Each policy
/// draws its own seed stream, so the four measurements are independent
/// rather than one random stream replayed four times.
fn policy_totals(real: &Relation, deps: Vec<Dependency>, rounds: usize) -> Vec<(&str, f64)> {
    let package = MetadataPackage::describe("owner", real, deps).unwrap();
    PRESETS
        .iter()
        .map(|(name, policy)| {
            let config = ExperimentConfig {
                rounds,
                base_seed: seed_for("audit", name, "baseline", 0),
                epsilon: 0.0,
            };
            let result = run_attack(real, &policy.apply(&package), true, &config).unwrap();
            (*name, result.per_attr.iter().map(|a| a.mean_matches).sum())
        })
        .collect()
}

fn total(totals: &[(&str, f64)], policy: &str) -> f64 {
    totals.iter().find(|(name, _)| *name == policy).unwrap().1
}

#[test]
fn employee_table_leaks_only_when_domains_are_shared() {
    let rel = datasets::employee();
    assert_eq!(identifiability_rate(&rel, 1).unwrap(), 1.0);
    let totals = policy_totals(&rel, vec![Fd::new(0usize, 1).into()], 15);
    // Without domains the adversary has nothing to draw values from.
    assert_eq!(total(&totals, "names"), 0.0);
    assert_eq!(total(&totals, "recommended"), 0.0);
    // With domains, ≈ N/|D| per categorical attribute (§III-A).
    assert!(total(&totals, "domains") >= 1.0, "{totals:?}");
}

#[test]
fn echocardiogram_dependencies_add_nothing_over_domains() {
    let rel = datasets::echocardiogram();
    assert!(identifiability_rate(&rel, 1).unwrap() > 0.9);
    let totals = policy_totals(&rel, vec![], 15);
    // §III-B: beyond domains, the full package leaks about as much.
    let (full, domains) = (total(&totals, "full"), total(&totals, "domains"));
    assert!((full - domains).abs() < 25.0, "{totals:?}");
    // Without domains the adversary emits nulls, which match only the
    // real `?` cells of categorical attributes (Definition 2.2).
    let categorical_nulls: usize = datasets::CATEGORICAL_ATTRS
        .iter()
        .map(|&a| rel.column(a).unwrap().null_count())
        .sum();
    assert_eq!(total(&totals, "names"), categorical_nulls as f64);
}

#[test]
fn high_support_cfd_beats_random_generation() {
    // Pattern (x = 0 → y = 7) holds on half the rows; y has 8 values.
    let schema = Schema::new(vec![
        Attribute::categorical("x"),
        Attribute::categorical("y"),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..200i64)
        .map(|i| {
            if i % 2 == 0 {
                vec![Value::Int(0), Value::Int(7)]
            } else {
                vec![Value::Int(1 + i % 3), Value::Int(i % 7)]
            }
        })
        .collect();
    let rel = Relation::from_rows(schema.clone(), rows.clone()).unwrap();
    let rule = ConditionalFd::constant(0, 0i64, 1, 7i64);
    let support = rule.support(&rel).unwrap();
    let card_y = rel.distinct_count(1).unwrap();
    assert_eq!((support, card_y), (100, 8));
    assert_eq!(cfd::flood_amplification(rel.n_rows(), support, card_y), 4.0);
    assert!(cfd::leaks_more_than_random(rel.n_rows(), support, card_y));

    // The flood strategy (y = 7 on every row) hits exactly the support.
    let flooded: Vec<Vec<Value>> = rows
        .into_iter()
        .map(|row| vec![row[0].clone(), Value::Int(7)])
        .collect();
    let syn = Relation::from_rows(schema, flooded).unwrap();
    let hits = categorical_matches(&rel, &syn, 1).unwrap();
    assert_eq!(hits as f64, cfd::flood_strategy_hits(support));
}

#[test]
fn leakage_kernel_agrees_with_the_row_wise_definitions() {
    let real = datasets::echocardiogram();
    let package = MetadataPackage::describe("hospital", &real, vec![]).unwrap();
    let syn = Adversary::new(package)
        .synthesize(&SynthConfig::random_baseline(real.n_rows(), 3))
        .unwrap();
    let epsilon = 0.5;
    let n = real.n_rows();
    for attr in 0..real.arity() {
        let kind = real.schema().attribute(attr).unwrap().kind;
        let (a, b) = (real.column(attr).unwrap(), syn.column(attr).unwrap());
        // Definitions 2.2/2.3 spelled out cell by cell.
        let row_wise = a
            .iter()
            .zip(b.iter())
            .filter(|(x, y)| match kind {
                AttrKind::Categorical => x == y,
                AttrKind::Continuous => match (x.as_f64(), y.as_f64()) {
                    (Some(x), Some(y)) => (x - y).abs() <= epsilon,
                    _ => false,
                },
            })
            .count();
        let whole = attr_matches(a, b, kind, epsilon, 0..n);
        assert_eq!(whole, row_wise, "attr {attr}");
        let by_relation = match kind {
            AttrKind::Categorical => categorical_matches(&real, &syn, attr).unwrap(),
            AttrKind::Continuous => continuous_matches(&real, &syn, attr, epsilon).unwrap(),
        };
        assert_eq!(whole, by_relation, "attr {attr}");
        // A row subset and its complement partition the count.
        let even = attr_matches(a, b, kind, epsilon, (0..n).step_by(2));
        let odd = attr_matches(a, b, kind, epsilon, (1..n).step_by(2));
        assert_eq!(even + odd, whole, "attr {attr}");
        assert_eq!(attr_mse(a, b, 0..n), mse(&real, &syn, attr).unwrap());
    }
}
