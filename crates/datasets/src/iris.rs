//! An iris-like secondary dataset.
//!
//! The paper notes that from datasets other than echocardiogram it could
//! "only discover trivial dependencies or oversimplified mappings". This
//! reconstruction of the classic 150×5 iris shape exists to demonstrate
//! exactly that regime: four continuous measurements plus a species label
//! that is a *band function of one measurement* — so the only non-trivial
//! pairwise structure is FD/OD `petal_length → species`, and everything
//! else is near-key noise. Useful as a contrast dataset in tests and
//! benches.

use mp_relation::{Attribute, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of tuples, matching the classic dataset.
pub(crate) const IRIS_ROWS: usize = 150;

/// Builds the reconstruction with the given seed.
fn iris_like_with_seed(seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(vec![
        Attribute::continuous("sepal_length"),
        Attribute::continuous("sepal_width"),
        Attribute::continuous("petal_length"),
        Attribute::continuous("petal_width"),
        Attribute::categorical("species"),
    ])
    .expect("iris schema");
    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    let mut rows = Vec::with_capacity(IRIS_ROWS);
    for i in 0..IRIS_ROWS {
        // Three clusters of 50, as in the original.
        let cluster = i / 50;
        let petal_length = round1(match cluster {
            0 => 1.0 + 0.9 * rng.gen::<f64>(),
            1 => 3.0 + 2.0 * rng.gen::<f64>(),
            _ => 4.6 + 2.3 * rng.gen::<f64>(),
        });
        // Species is a band function of petal length (FD/OD 2 → 4); band
        // edges sit between the cluster supports so the bands are exact.
        let species = match petal_length {
            x if x < 2.5 => "setosa",
            x if x < 5.05 => "versicolor",
            _ => "virginica",
        };
        // A deliberate overlap between clusters 1 and 2 on [4.6, 5.0] means
        // species is NOT determined by cluster alone — only by the value.
        let sepal_length = round1(4.3 + 3.6 * rng.gen::<f64>());
        let sepal_width = round1(2.0 + 2.4 * rng.gen::<f64>());
        let petal_width = round1(0.1 + 2.4 * rng.gen::<f64>());
        rows.push(vec![
            Value::Float(sepal_length),
            Value::Float(sepal_width),
            Value::Float(petal_length),
            Value::Float(petal_width),
            Value::Text(species.into()),
        ]);
    }
    Relation::from_rows(schema, rows).expect("iris rows")
}

/// Builds the reconstruction with the default seed.
pub fn iris_like() -> Relation {
    iris_like_with_seed(0x1815)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_metadata::{Dependency, Fd, OrderDep};
    use mp_relation::Domain;

    // Attribute indices.
    const SEPAL_LENGTH: usize = 0;
    const SEPAL_WIDTH: usize = 1;
    /// Determines the species band.
    const PETAL_LENGTH: usize = 2;
    const PETAL_WIDTH: usize = 3;
    /// Categorical, 3 values.
    const SPECIES: usize = 4;

    /// The dependencies guaranteed by construction.
    fn iris_dependencies() -> Vec<Dependency> {
        vec![
            Fd::new(PETAL_LENGTH, SPECIES).into(),
            OrderDep::ascending(PETAL_LENGTH, SPECIES).into(),
        ]
    }

    #[test]
    fn shape_and_domains() {
        let r = iris_like();
        assert_eq!(r.n_rows(), IRIS_ROWS);
        assert_eq!(r.arity(), 5);
        assert_eq!(Domain::infer(&r, SPECIES).unwrap().cardinality(), Some(3));
    }

    #[test]
    fn planted_dependencies_hold_across_seeds() {
        for seed in [0u64, 3, 99] {
            let r = iris_like_with_seed(seed);
            for dep in iris_dependencies() {
                assert!(dep.holds(&r).unwrap(), "{dep} at seed {seed}");
            }
        }
    }

    #[test]
    fn species_ordering_matches_band_order() {
        // The OD holds because the band labels happen to sort
        // lexicographically in band order: setosa < versicolor < virginica.
        let r = iris_like();
        assert!(OrderDep::ascending(PETAL_LENGTH, SPECIES)
            .holds(&r)
            .unwrap());
    }

    #[test]
    fn other_measurements_are_structureless() {
        // The paper's "trivial dependencies" regime: no single-attribute FD
        // onto the other continuous measurements.
        let r = iris_like();
        for rhs in [SEPAL_LENGTH, SEPAL_WIDTH, PETAL_WIDTH] {
            for lhs in 0..5 {
                if lhs == rhs {
                    continue;
                }
                // Near-key LHS columns (1 decimal over a small range give
                // duplicates) must not determine the noise columns.
                if r.distinct_count(lhs).unwrap() < r.n_rows() {
                    assert!(
                        !Fd::new(lhs, rhs).holds(&r).unwrap(),
                        "unexpected FD {lhs} → {rhs}"
                    );
                }
            }
        }
    }

    #[test]
    fn determinism() {
        assert_eq!(iris_like(), iris_like());
        assert_ne!(iris_like_with_seed(1), iris_like_with_seed(2));
    }
}
