//! Configurable synthetic relations with *planted* dependencies.
//!
//! Discovery algorithms need ground truth: relations where we know exactly
//! which dependencies hold and which do not. A [`SyntheticSpec`] describes
//! a relation column by column; later columns may be deterministic,
//! monotone, bounded-fanout or noisy functions of earlier ones, planting
//! FDs, ODs, NDs and AFD material respectively. The generator returns both
//! the relation and the dependencies guaranteed by construction.

use mp_metadata::{Afd, Dependency, Fd, NumericalDep, OrderDep};
use mp_relation::{Attribute, Relation, Result, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// How one column of a synthetic relation is produced.
#[derive(Debug, Clone)]
pub(crate) enum ColumnSpec {
    /// Independent uniform categorical labels `v0..v{cardinality-1}`.
    CategoricalUniform {
        /// Attribute name.
        name: String,
        /// Number of distinct labels.
        cardinality: usize,
    },
    /// Independent uniform continuous values in `[min, max]`.
    ContinuousUniform {
        /// Attribute name.
        name: String,
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// A deterministic function of an earlier column: plants the FD
    /// `source → this`.
    FdOf {
        /// Attribute name.
        name: String,
        /// Index of the determining column (must precede this one).
        source: usize,
        /// Number of distinct labels in the image.
        cardinality: usize,
    },
    /// A deterministic function of an earlier column with a fraction of
    /// rows perturbed: plants AFD material with `g3 ≲ error_rate`.
    ApproxFdOf {
        /// Attribute name.
        name: String,
        /// Index of the determining column.
        source: usize,
        /// Number of distinct labels.
        cardinality: usize,
        /// Fraction of rows that violate the mapping.
        error_rate: f64,
    },
    /// A monotone increasing rescaling of an earlier numeric column:
    /// plants both the FD and the ascending OD `source → this`.
    MonotoneOf {
        /// Attribute name.
        name: String,
        /// Index of the source column (numeric).
        source: usize,
        /// Output lower bound.
        min: f64,
        /// Output upper bound.
        max: f64,
    },
    /// Each distinct source value maps into a fixed random subset of at
    /// most `k` labels: plants the ND `source →≤k this`.
    BoundedFanout {
        /// Attribute name.
        name: String,
        /// Index of the determining column.
        source: usize,
        /// Fanout bound.
        k: usize,
        /// Number of distinct labels overall.
        cardinality: usize,
    },
    /// Source value plus bounded uniform noise — correlated, but plants no
    /// exact dependency (negative-control material).
    NoisyOf {
        /// Attribute name.
        name: String,
        /// Index of the source column (numeric).
        source: usize,
        /// Noise half-width.
        noise: f64,
    },
}

impl ColumnSpec {
    /// The attribute name of the spec.
    pub(crate) fn name(&self) -> &str {
        match self {
            ColumnSpec::CategoricalUniform { name, .. }
            | ColumnSpec::ContinuousUniform { name, .. }
            | ColumnSpec::FdOf { name, .. }
            | ColumnSpec::ApproxFdOf { name, .. }
            | ColumnSpec::MonotoneOf { name, .. }
            | ColumnSpec::BoundedFanout { name, .. }
            | ColumnSpec::NoisyOf { name, .. } => name,
        }
    }

    fn is_categorical(&self) -> bool {
        matches!(
            self,
            ColumnSpec::CategoricalUniform { .. }
                | ColumnSpec::FdOf { .. }
                | ColumnSpec::ApproxFdOf { .. }
                | ColumnSpec::BoundedFanout { .. }
        )
    }
}

/// A full synthetic-relation specification.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Number of tuples to generate.
    pub n_rows: usize,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
    /// Column specifications; `source` indices must point at earlier
    /// columns.
    pub(crate) columns: Vec<ColumnSpec>,
}

/// Output of [`SyntheticSpec::generate`].
#[derive(Debug, Clone)]
pub struct SyntheticRelation {
    /// The generated relation.
    pub relation: Relation,
    /// Dependencies guaranteed to hold by construction.
    pub planted: Vec<Dependency>,
}

impl SyntheticSpec {
    /// Generates the relation and its planted-dependency ground truth.
    ///
    /// # Panics
    /// Panics if a `source` index does not precede its column, or a source
    /// column is non-numeric where a numeric one is required.
    pub fn generate(&self) -> Result<SyntheticRelation> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut columns: Vec<Vec<Value>> = Vec::with_capacity(self.columns.len());
        let mut planted: Vec<Dependency> = Vec::new();

        for (ci, spec) in self.columns.iter().enumerate() {
            let col = match spec {
                ColumnSpec::CategoricalUniform { cardinality, .. } => (0..self.n_rows)
                    .map(|_| Value::Text(format!("v{}", rng.gen_range(0..*cardinality))))
                    .collect(),
                ColumnSpec::ContinuousUniform { min, max, .. } => (0..self.n_rows)
                    .map(|_| Value::Float(rng.gen_range(*min..=*max)))
                    .collect(),
                ColumnSpec::FdOf {
                    source,
                    cardinality,
                    ..
                } => {
                    assert!(*source < ci, "FdOf source must precede column");
                    let mut map: HashMap<Value, usize> = HashMap::new();
                    let src = &columns[*source];
                    let out = src
                        .iter()
                        .map(|v| {
                            let next = map.len() % *cardinality;
                            let label = *map.entry(v.clone()).or_insert(next);
                            Value::Text(format!("f{label}"))
                        })
                        .collect();
                    planted.push(Fd::new(*source, ci).into());
                    out
                }
                ColumnSpec::ApproxFdOf {
                    source,
                    cardinality,
                    error_rate,
                    ..
                } => {
                    assert!(*source < ci, "ApproxFdOf source must precede column");
                    let mut map: HashMap<Value, usize> = HashMap::new();
                    let src = columns[*source].clone();
                    let out = src
                        .iter()
                        .map(|v| {
                            let next = map.len() % *cardinality;
                            let mut label = *map.entry(v.clone()).or_insert(next);
                            if rng.gen::<f64>() < *error_rate {
                                label = (label + 1 + rng.gen_range(0..*cardinality)) % *cardinality;
                            }
                            Value::Text(format!("f{label}"))
                        })
                        .collect();
                    planted.push(Afd::new(*source, ci, *error_rate * 1.5 + 0.02).into());
                    out
                }
                ColumnSpec::MonotoneOf {
                    source, min, max, ..
                } => {
                    assert!(*source < ci, "MonotoneOf source must precede column");
                    let src: Vec<f64> = columns[*source]
                        .iter()
                        .map(|v| v.as_f64().expect("MonotoneOf source must be numeric"))
                        .collect();
                    let lo = src.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = src.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let span = (hi - lo).max(f64::MIN_POSITIVE);
                    let out = src
                        .iter()
                        .map(|&x| Value::Float(min + (x - lo) / span * (max - min)))
                        .collect();
                    planted.push(Fd::new(*source, ci).into());
                    planted.push(OrderDep::ascending(*source, ci).into());
                    out
                }
                ColumnSpec::BoundedFanout {
                    source,
                    k,
                    cardinality,
                    ..
                } => {
                    assert!(*source < ci, "BoundedFanout source must precede column");
                    assert!(*k >= 1 && *k <= *cardinality, "fanout k out of range");
                    let mut subsets: HashMap<Value, Vec<usize>> = HashMap::new();
                    let src = columns[*source].clone();
                    let out = src
                        .iter()
                        .map(|v| {
                            if !subsets.contains_key(v) {
                                let mut pool: Vec<usize> = (0..*cardinality).collect();
                                for i in (1..pool.len()).rev() {
                                    pool.swap(i, rng.gen_range(0..=i));
                                }
                                pool.truncate(*k);
                                subsets.insert(v.clone(), pool);
                            }
                            let subset = &subsets[v];
                            Value::Text(format!("n{}", subset[rng.gen_range(0..subset.len())]))
                        })
                        .collect();
                    planted.push(NumericalDep::new(*source, ci, *k).into());
                    out
                }
                ColumnSpec::NoisyOf { source, noise, .. } => {
                    assert!(*source < ci, "NoisyOf source must precede column");
                    let src = columns[*source].clone();
                    src.iter()
                        .map(|v| {
                            let x = v.as_f64().expect("NoisyOf source must be numeric");
                            Value::Float(x + rng.gen_range(-*noise..=*noise))
                        })
                        .collect()
                }
            };
            columns.push(col);
        }

        let attrs: Vec<Attribute> = self
            .columns
            .iter()
            .map(|s| {
                if s.is_categorical() {
                    Attribute::categorical(s.name())
                } else {
                    Attribute::continuous(s.name())
                }
            })
            .collect();
        let relation = Relation::from_columns(Schema::new(attrs)?, columns)?;
        Ok(SyntheticRelation { relation, planted })
    }
}

/// A ready-made spec exercising every dependency class at once: key-ish
/// base column, FD chain, monotone pair, bounded fanout and a noisy
/// negative control. Useful for discovery smoke tests and benches.
pub fn all_classes_spec(n_rows: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        n_rows,
        seed,
        columns: vec![
            ColumnSpec::CategoricalUniform {
                name: "base".into(),
                cardinality: 12,
            },
            ColumnSpec::FdOf {
                name: "fd_child".into(),
                source: 0,
                cardinality: 5,
            },
            ColumnSpec::ContinuousUniform {
                name: "x".into(),
                min: 0.0,
                max: 100.0,
            },
            ColumnSpec::MonotoneOf {
                name: "mono".into(),
                source: 2,
                min: -1.0,
                max: 1.0,
            },
            ColumnSpec::BoundedFanout {
                name: "fan".into(),
                source: 0,
                k: 3,
                cardinality: 10,
            },
            ColumnSpec::ApproxFdOf {
                name: "afd_child".into(),
                source: 0,
                cardinality: 5,
                error_rate: 0.05,
            },
            ColumnSpec::NoisyOf {
                name: "noisy".into(),
                source: 2,
                noise: 5.0,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_dependencies_hold() {
        let out = all_classes_spec(300, 42).generate().unwrap();
        for dep in &out.planted {
            assert!(dep.holds(&out.relation).unwrap(), "{dep} should hold");
        }
    }

    #[test]
    fn planted_holds_across_seeds() {
        for seed in [0u64, 9, 1234] {
            let out = all_classes_spec(150, seed).generate().unwrap();
            for dep in &out.planted {
                assert!(dep.holds(&out.relation).unwrap(), "{dep} at seed {seed}");
            }
        }
    }

    #[test]
    fn fanout_respects_k() {
        let out = all_classes_spec(500, 1).generate().unwrap();
        let k = mp_metadata::NumericalDep::max_fanout(0, 4, &out.relation).unwrap();
        assert!(k <= 3);
    }

    #[test]
    fn noisy_column_plants_nothing() {
        let out = all_classes_spec(200, 5).generate().unwrap();
        assert!(out.planted.iter().all(|d| d.rhs() != 6));
        // And indeed no FD 2 → 6 holds at this scale (duplicate x values
        // are measure-zero; the FD holds only trivially when x is a key —
        // which it is — so check instead that noise decorrelates order).
        let od = mp_metadata::OrderDep::ascending(2, 6);
        assert!(!od.holds(&out.relation).unwrap());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = all_classes_spec(100, 77).generate().unwrap();
        let b = all_classes_spec(100, 77).generate().unwrap();
        assert_eq!(a.relation, b.relation);
    }

    #[test]
    fn cardinalities_respected() {
        let out = all_classes_spec(1000, 3).generate().unwrap();
        assert!(out.relation.distinct_count(0).unwrap() <= 12);
        assert!(out.relation.distinct_count(1).unwrap() <= 5);
        assert!(out.relation.distinct_count(4).unwrap() <= 10);
    }

    #[test]
    fn afd_g3_close_to_error_rate() {
        let out = all_classes_spec(2000, 8).generate().unwrap();
        let g3 = mp_metadata::Fd::new(0usize, 5)
            .g3_error(&out.relation)
            .unwrap();
        assert!(g3 > 0.0, "perturbations must create violations");
        assert!(g3 < 0.12, "g3 {g3} too far above the 5% error rate");
    }

    #[test]
    #[should_panic(expected = "source must precede")]
    fn forward_reference_panics() {
        let spec = SyntheticSpec {
            n_rows: 10,
            seed: 0,
            columns: vec![ColumnSpec::FdOf {
                name: "bad".into(),
                source: 0,
                cardinality: 2,
            }],
        };
        let _ = spec.generate();
    }

    #[test]
    fn empty_relation_generates() {
        let out = all_classes_spec(0, 0).generate().unwrap();
        assert_eq!(out.relation.n_rows(), 0);
    }
}
