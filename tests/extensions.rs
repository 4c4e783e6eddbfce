//! Integration tests for the extension features: CFDs, defenses,
//! distribution sharing and the HFL contrast — each exercised through the
//! full public API.

use metadata_privacy::core::{
    analytical, bucketize_column, k_anonymity, run_attack, ExperimentConfig,
};
use metadata_privacy::datasets::{echocardiogram, fintech_scenario};
use metadata_privacy::discovery::{discover_cfds, CfdConfig};
use metadata_privacy::federated::{horizontal_split, schemas_compatible};
use metadata_privacy::metadata::{ConditionalFd, DomainGeneralization};
use metadata_privacy::prelude::*;

#[test]
fn cfd_pipeline_discover_share_attack() {
    // Build a relation with a high-support constant pattern, discover the
    // CFD, share it, and verify the CFD-aware attack beats the random
    // baseline on the dependent attribute.
    let schema = metadata_privacy::relation::Schema::new(vec![
        metadata_privacy::relation::Attribute::categorical("region"),
        metadata_privacy::relation::Attribute::categorical("plan"),
    ])
    .unwrap();
    let mut rows = Vec::new();
    for i in 0..400usize {
        let (region, plan) = if i % 2 == 0 {
            ("eu", "gdpr-basic") // high-support constant pattern
        } else {
            (
                ["us", "apac", "latam"][i % 3],
                ["a", "b", "c", "d", "e"][i % 5],
            )
        };
        rows.push(vec![region.into(), plan.into()]);
    }
    let real = Relation::from_rows(schema, rows).unwrap();

    let cfds = discover_cfds(&real, &CfdConfig::default()).unwrap();
    let target = ConditionalFd::constant(0, "eu", 1, "gdpr-basic");
    assert!(
        cfds.contains(&target),
        "high-support pattern must be discovered"
    );

    let support = target.support(&real).unwrap();
    let card_plan = real.distinct_count(1).unwrap();
    assert!(analytical::cfd::leaks_more_than_random(
        real.n_rows(),
        support,
        card_plan
    ));

    let config = ExperimentConfig {
        rounds: 150,
        base_seed: 2,
        epsilon: 0.0,
    };
    let pkg_cfd = MetadataPackage::describe("p", &real, vec![target.into()]).unwrap();
    let pkg_plain = MetadataPackage::describe("p", &real, vec![]).unwrap();
    let with_cfd = run_attack(&real, &pkg_cfd, true, &config).unwrap();
    let random = run_attack(&real, &pkg_plain, false, &config).unwrap();
    assert!(
        with_cfd.attr(1).unwrap().mean_matches > 1.3 * random.attr(1).unwrap().mean_matches,
        "CFD attack {} vs random {}",
        with_cfd.attr(1).unwrap().mean_matches,
        random.attr(1).unwrap().mean_matches
    );
}

#[test]
fn generalization_reduces_measured_leakage_proportionally() {
    let real = echocardiogram();
    let pkg = MetadataPackage::describe("h", &real, vec![]).unwrap();
    let config = ExperimentConfig {
        rounds: 80,
        base_seed: 3,
        epsilon: 1.0,
    };

    let base = run_attack(&real, &pkg, false, &config).unwrap();
    let g = DomainGeneralization {
        widen: 4.0,
        snap: 0.0,
        suppress_below: 0,
    };
    let widened = g.apply(&pkg, &real).unwrap();
    let defended = run_attack(&real, &widened, false, &config).unwrap();

    // §III-A: ε-hit rate scales with 1/range. Check a representative
    // continuous attribute drops to roughly a quarter.
    use metadata_privacy::datasets::echocardiogram::attrs::EPSS;
    let (b, d) = (
        base.attr(EPSS).unwrap().mean_matches,
        defended.attr(EPSS).unwrap().mean_matches,
    );
    assert!(
        d < 0.45 * b && d > 0.1 * b,
        "widening ×4 should quarter ε-matches: {b} → {d}"
    );
}

#[test]
fn defense_chain_k_anonymity_and_attack() {
    // Bucketing the data also shrinks the shared domains' precision if the
    // party describes the *bucketed* data — end-to-end defense chain.
    let real = echocardiogram();
    use metadata_privacy::datasets::echocardiogram::attrs::{AGE, LVDD};
    let coarse = bucketize_column(&real, AGE, 10.0).unwrap();
    let coarse = bucketize_column(&coarse, LVDD, 1.0).unwrap();
    assert!(k_anonymity(&coarse, &[AGE]).unwrap() > k_anonymity(&real, &[AGE]).unwrap());

    // The attack against the bucketed release can only match bucket
    // values; exact-match leakage on the real data via the bucketed
    // metadata drops for the coarsened attributes.
    let pkg_real = MetadataPackage::describe("h", &real, vec![]).unwrap();
    let pkg_coarse = MetadataPackage::describe("h", &coarse, vec![]).unwrap();
    let config = ExperimentConfig {
        rounds: 60,
        base_seed: 4,
        epsilon: 0.05,
    };
    let against_real = run_attack(&real, &pkg_real, false, &config).unwrap();
    let against_real_coarse_meta = run_attack(&real, &pkg_coarse, false, &config).unwrap();
    let (b, d) = (
        against_real.attr(AGE).unwrap().mean_matches,
        against_real_coarse_meta.attr(AGE).unwrap().mean_matches,
    );
    assert!(d <= b + 1.0, "coarse metadata must not help: {b} vs {d}");
}

#[test]
fn hfl_split_schema_compatibility_and_recombination() {
    let real = echocardiogram();
    let parts = horizontal_split(&real, 4).unwrap();
    assert!(parts.windows(2).all(|w| schemas_compatible(&w[0], &w[1])));
    let total: usize = parts.iter().map(Relation::n_rows).sum();
    assert_eq!(total, real.n_rows());
    // No row lost or duplicated: multiset of first-column values matches.
    let mut original: Vec<Value> = real.column_values(2).unwrap();
    let mut recombined: Vec<Value> = parts
        .iter()
        .flat_map(|p| p.column_values(2).unwrap())
        .collect();
    original.sort();
    recombined.sort();
    assert_eq!(original, recombined);
}

#[test]
fn cfd_survives_vfl_party_remapping() {
    // A CFD declared on the bank's relation must survive feature
    // re-indexing during metadata exchange.
    let data = fintech_scenario(100, 8);
    let mut deps = data.bank.dependencies.clone();
    deps.push(ConditionalFd::constant(2, 0i64, 3, 2000.0).into()); // tier=0 ⇒ limit=2000
    let bank = metadata_privacy::federated::Party::new("bank", data.bank.relation.clone(), 0, deps)
        .unwrap();
    let pkg = bank.share_metadata(&SharePolicy::FULL).unwrap();
    let cfd = pkg
        .dependencies
        .iter()
        .find(|d| d.class() == "CFD")
        .expect("CFD survives exchange");
    // Relation attrs 2/3 become package attrs 1/2 (id column removed).
    assert_eq!(cfd.lhs().indices(), &[1]);
    assert_eq!(cfd.rhs(), 2);
}

#[test]
fn distribution_sharing_leaks_more_than_domains_on_skewed_data() {
    // Build a skewed categorical attribute, share its distribution, and
    // verify the measured amplification matches |D|·Σp² > 1.
    use metadata_privacy::metadata::Distribution;
    let schema = metadata_privacy::relation::Schema::new(vec![
        metadata_privacy::relation::Attribute::categorical("plan"),
    ])
    .unwrap();
    let mut rows = Vec::new();
    for i in 0..600usize {
        // 70/15/10/5 split over four plans.
        let v = match i % 20 {
            0..=13 => "basic",
            14..=16 => "plus",
            17..=18 => "pro",
            _ => "enterprise",
        };
        rows.push(vec![v.into()]);
    }
    let real = Relation::from_rows(schema, rows).unwrap();
    let config = ExperimentConfig {
        rounds: 120,
        base_seed: 7,
        epsilon: 0.0,
    };

    let pkg_domain = MetadataPackage::describe("p", &real, vec![]).unwrap();
    let pkg_dist = MetadataPackage::describe_with_distributions("p", &real, vec![], 8).unwrap();
    let domain_attack = run_attack(&real, &pkg_domain, false, &config).unwrap();
    let dist_attack = run_attack(&real, &pkg_dist, false, &config).unwrap();

    let dist_meta = Distribution::estimate(&real, 0, 0).unwrap();
    let expected_amp = analytical::distribution::amplification(&dist_meta, 4);
    assert!(expected_amp > 1.5, "test data should be clearly skewed");

    let measured_amp =
        dist_attack.attr(0).unwrap().mean_matches / domain_attack.attr(0).unwrap().mean_matches;
    assert!(
        (measured_amp - expected_amp).abs() < 0.25 * expected_amp,
        "measured amplification {measured_amp} vs analytic {expected_amp}"
    );
}
