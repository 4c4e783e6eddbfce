//! Horizontal federated learning (HFL) contrast.
//!
//! The paper's §I scopes the analysis to VFL: *"HFL typically operates
//! under the same or similar database schema among participants"* and —
//! critically — HFL parties hold **different data instances**, so there is
//! no PSI step pinning a shared tuple index. This module provides the HFL
//! counterpart pieces needed to demonstrate that distinction
//! quantitatively: horizontal splits, schema-compatibility checking (the
//! whole of HFL's metadata alignment), and the permutation baseline that
//! replaces index-aligned leakage when no alignment exists.

use mp_core::{attr_matches, ExperimentConfig};
use mp_relation::{Relation, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Splits a relation horizontally into `n_parties` row-disjoint slices
/// (round-robin, deterministic). Every slice has the same schema — the HFL
/// setting.
pub fn horizontal_split(relation: &Relation, n_parties: usize) -> Result<Vec<Relation>> {
    let mut out = Vec::with_capacity(n_parties);
    for p in 0..n_parties {
        let rows: Vec<usize> = (0..relation.n_rows())
            .filter(|r| r % n_parties == p)
            .collect();
        out.push(relation.select_rows(&rows)?);
    }
    Ok(out)
}

/// HFL metadata alignment: schemas must agree on names and kinds. This is
/// the entire metadata exchange HFL needs — the paper's observation that
/// HFL metadata is "similar" across parties, in code.
pub fn schemas_compatible(a: &Relation, b: &Relation) -> bool {
    a.schema() == b.schema()
}

/// The leakage baseline available to an HFL adversary: with no PSI
/// alignment, the best it can do against another party's rows is match
/// them in *some* order. This measures the mean exact matches of `syn`
/// against `real` under random row permutations — the quantity that
/// replaces Definition 2.2's index-aligned count when indices carry no
/// meaning.
pub fn permutation_baseline(
    real: &Relation,
    syn: &Relation,
    attr: usize,
    config: &ExperimentConfig,
) -> Result<f64> {
    let real_col = real.column(attr)?;
    let syn_col = syn.column(attr)?;
    let n = real_col.len().min(syn_col.len());
    if n == 0 || config.rounds == 0 {
        return Ok(0.0);
    }
    let kind = real.schema().attribute(attr)?.kind;
    let mut total = 0usize;
    for round in 0..config.rounds {
        let mut rng = StdRng::seed_from_u64(config.base_seed.wrapping_add(round as u64));
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        // Row i of the permuted real column is real row perm[i], scored
        // against synthetic row i.
        total += attr_matches(&real_col.select(&perm), syn_col, kind, config.epsilon, 0..n);
    }
    Ok(total as f64 / config.rounds as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_core::categorical_matches;
    use mp_datasets::echocardiogram;
    use mp_metadata::MetadataPackage;
    use mp_synth::{Adversary, SynthConfig};

    #[test]
    fn split_covers_all_rows_with_same_schema() {
        let r = echocardiogram();
        let parts = horizontal_split(&r, 3).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts.iter().map(Relation::n_rows).sum::<usize>(),
            r.n_rows()
        );
        for p in &parts {
            assert!(schemas_compatible(&r, p));
        }
        // Round-robin keeps sizes balanced.
        assert!(parts.iter().all(|p| p.n_rows() >= r.n_rows() / 3));
    }

    #[test]
    fn zero_and_one_party_splits() {
        let r = echocardiogram();
        assert!(horizontal_split(&r, 0).unwrap().is_empty());
        let one = horizontal_split(&r, 1).unwrap();
        assert_eq!(one[0], r);
    }

    #[test]
    fn hfl_attack_degenerates_to_permutation_baseline() {
        // The paper's reason for focusing on VFL, measured: without PSI
        // alignment the index-aligned match count of an adversary's
        // synthetic data carries no more signal than random row alignment.
        let r = echocardiogram();
        let parts = horizontal_split(&r, 2).unwrap();
        let (mine, theirs) = (&parts[0], &parts[1]);

        // HFL adversary: knows the shared schema + its own slice's domains
        // (schemas are similar, so this is realistic), generates data, and
        // tries to match the OTHER party's rows.
        let pkg = MetadataPackage::describe("me", mine, vec![]).unwrap();
        let adversary = Adversary::new(pkg);
        let syn = adversary
            .synthesize(&SynthConfig::random_baseline(theirs.n_rows(), 17))
            .unwrap();

        let config = ExperimentConfig {
            rounds: 200,
            base_seed: 5,
            epsilon: 0.0,
        };
        for &attr in &mp_datasets::CATEGORICAL_ATTRS {
            let aligned = categorical_matches(theirs, &syn, attr).unwrap() as f64;
            let baseline = permutation_baseline(theirs, &syn, attr, &config).unwrap();
            // Index-aligned counting gives no advantage: within noise of
            // the permutation expectation.
            let n = theirs.n_rows() as f64;
            assert!(
                (aligned - baseline).abs() <= 0.18 * n,
                "attr {attr}: aligned {aligned} vs permutation {baseline}"
            );
        }
    }

    #[test]
    fn permutation_baseline_edge_cases() {
        let r = echocardiogram();
        let config = ExperimentConfig {
            rounds: 0,
            base_seed: 0,
            epsilon: 0.0,
        };
        assert_eq!(permutation_baseline(&r, &r, 1, &config).unwrap(), 0.0);

        // Self-comparison under permutations ≈ Σ (count_v)² / N for the
        // value distribution — sanity check it is below N.
        let config = ExperimentConfig {
            rounds: 50,
            base_seed: 0,
            epsilon: 0.0,
        };
        let b = permutation_baseline(&r, &r, 1, &config).unwrap();
        assert!(b > 0.0 && b < r.n_rows() as f64);
    }
}
