//! Relations with *planted* dependencies: ground truth for discovery.
//!
//! Discovery algorithms need relations where we know exactly which
//! dependencies hold and which do not. Both generators here write one
//! fixed seven-column layout straight into typed columns (dictionary codes
//! and float buffers) and return it with the five dependencies planted by
//! construction:
//!
//! | # | name        | kind        | planted                        |
//! |---|-------------|-------------|--------------------------------|
//! | 0 | `base`      | categorical | (source column)                |
//! | 1 | `fd_child`  | categorical | FD `base → fd_child`           |
//! | 2 | `x`         | continuous  | (source column)                |
//! | 3 | `mono`      | continuous  | FD + ascending OD `x → mono`   |
//! | 4 | `fan`       | categorical | ND `base →≤3 fan`              |
//! | 5 | `afd_child` | categorical | AFD `base → afd_child` (g3≈5%) |
//! | 6 | `noisy`     | continuous  | nothing (negative control)     |
//!
//! [`all_classes_spec`] draws the table at test scale: 12 `base` labels,
//! 5 child labels assigned in order of `base`'s first occurrence, `x` on
//! `[0, 100]` rescaled min–max into `mono` on `[-1, 1]`, and a random
//! 3-of-10 `fan` subset per `base` label. [`scale_relation`] draws it at
//! million-row scale, where no step may look back at the data: 4096
//! `base` labels, 64 child labels `base mod 64`, `mono = 0.02·x − 1`, and
//! `fan` labels `(7·base + U{0,1,2}) mod 16`.

use mp_metadata::{Afd, Dependency, Fd, NumericalDep, OrderDep};
use mp_relation::{AttrKind, Attribute, Bitmap, Column, Relation, Result, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The layout's attributes, in column order.
const ATTRIBUTES: [(&str, AttrKind); 7] = [
    ("base", AttrKind::Categorical),
    ("fd_child", AttrKind::Categorical),
    ("x", AttrKind::Continuous),
    ("mono", AttrKind::Continuous),
    ("fan", AttrKind::Categorical),
    ("afd_child", AttrKind::Categorical),
    ("noisy", AttrKind::Continuous),
];

/// The planted fanout bound of `base →≤k fan`.
const FAN_K: usize = 3;

/// Fraction of `afd_child` rows perturbed away from the exact mapping.
const AFD_ERROR_RATE: f64 = 0.05;

/// Half-width of the uniform noise `noisy` adds to `x`.
const NOISE: f64 = 5.0;

/// Test-scale label counts of `base`, the two child columns and `fan`.
const SPEC_BASE_CARDINALITY: u32 = 12;
const SPEC_CHILD_CARDINALITY: u32 = 5;
const SPEC_FAN_CARDINALITY: u32 = 10;

/// Million-row label counts (`base` is an upper bound: fewer labels
/// appear when `n_rows` is small).
const SCALE_BASE_CARDINALITY: u32 = 4096;
const SCALE_CHILD_CARDINALITY: u32 = 64;
const SCALE_FAN_CARDINALITY: u32 = 16;

/// The all-classes table at test scale: `n_rows` rows drawn from `seed`
/// (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Number of tuples to generate.
    pub n_rows: usize,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
}

/// A generated relation with its planted-dependency ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticRelation {
    /// The generated relation.
    pub relation: Relation,
    /// Dependencies guaranteed to hold by construction.
    pub planted: Vec<Dependency>,
}

/// The test-scale table exercising every dependency class at once: a
/// key-ish base column, an FD child, a monotone pair, bounded fanout, an
/// AFD child and a noisy negative control. Useful for discovery smoke
/// tests and benches.
pub fn all_classes_spec(n_rows: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec { n_rows, seed }
}

impl SyntheticSpec {
    /// Generates the relation and its planted-dependency ground truth.
    ///
    /// Deterministic per `(n_rows, seed)`.
    pub fn generate(&self) -> Result<SyntheticRelation> {
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Column 0: independent uniform base labels; a row's code k says
        // its label is the k-th distinct one.
        let base: Vec<u32> = (0..self.n_rows)
            .map(|_| rng.gen_range(0..SPEC_BASE_CARDINALITY))
            .collect();
        let (base_codes, base_dict) = encode("v", SPEC_BASE_CARDINALITY, &base);

        // Column 1: the k-th distinct base label maps to child k − 1 mod 5.
        let fd_child: Vec<u32> = base_codes
            .iter()
            .map(|&k| (k - 1) % SPEC_CHILD_CARDINALITY)
            .collect();

        // Column 2: independent uniform floats on [0, 100].
        let x: Vec<f64> = (0..self.n_rows)
            .map(|_| rng.gen_range(0.0..=100.0))
            .collect();

        // Column 3: x rescaled min–max onto [-1, 1].
        let lo = x.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let mono: Vec<f64> = x.iter().map(|&v| -1.0 + (v - lo) / span * 2.0).collect();

        // Column 4: a base label's first occurrence shuffles 0..10 and
        // keeps 3 labels; its rows pick uniformly inside them.
        let mut subsets: Vec<Vec<u32>> = Vec::new();
        let fan: Vec<u32> = base_codes
            .iter()
            .map(|&k| {
                let k = k as usize;
                if k > subsets.len() {
                    let mut pool: Vec<u32> = (0..SPEC_FAN_CARDINALITY).collect();
                    for i in (1..pool.len()).rev() {
                        pool.swap(i, rng.gen_range(0..=i));
                    }
                    pool.truncate(FAN_K);
                    subsets.push(pool);
                }
                let subset = &subsets[k - 1];
                subset[rng.gen_range(0..subset.len())]
            })
            .collect();

        // Column 5: column 1's mapping, perturbed.
        let afd_child: Vec<u32> = fd_child
            .iter()
            .map(|&label| perturbed(&mut rng, label, SPEC_CHILD_CARDINALITY))
            .collect();

        let noisy = noisy(&mut rng, &x);
        planted_relation([
            Column::Categorical {
                dict: Arc::new(base_dict),
                codes: base_codes,
            },
            dictionary_column("f", SPEC_CHILD_CARDINALITY, &fd_child),
            float_column(x),
            float_column(mono),
            dictionary_column("n", SPEC_FAN_CARDINALITY, &fan),
            dictionary_column("f", SPEC_CHILD_CARDINALITY, &afd_child),
            float_column(noisy),
        ])
    }
}

/// Generates an `n_rows × 7` relation with planted dependencies at
/// million-row scale (see the module docs for the layout).
///
/// Deterministic per `(n_rows, seed)`: the same arguments always produce a
/// bit-identical relation and the same planted ground truth.
pub fn scale_relation(n_rows: usize, seed: u64) -> Result<SyntheticRelation> {
    let mut rng = StdRng::seed_from_u64(seed);

    // Column 0: independent uniform base labels.
    let base: Vec<u32> = (0..n_rows)
        .map(|_| rng.gen_range(0..SCALE_BASE_CARDINALITY))
        .collect();

    // Column 1: deterministic image of base — plants the FD.
    let fd_child: Vec<u32> = base.iter().map(|&b| b % SCALE_CHILD_CARDINALITY).collect();

    // Column 2: independent uniform floats.
    let x: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(0.0..100.0)).collect();

    // Column 3: strictly increasing affine image of x — plants the FD and
    // the ascending OD without any data-dependent normalisation.
    let mono: Vec<f64> = x.iter().map(|&v| v * 0.02 - 1.0).collect();

    // Column 4: each base label owns a fixed 3-element label subset; rows
    // pick uniformly inside it — plants the ND `base →≤3 fan`.
    let fan: Vec<u32> = base
        .iter()
        .map(|&b| (b.wrapping_mul(7) + rng.gen_range(0..FAN_K as u32)) % SCALE_FAN_CARDINALITY)
        .collect();

    // Column 5: the FD image with a perturbed fraction — plants AFD
    // material with g3 ≲ AFD_ERROR_RATE.
    let afd_child: Vec<u32> = base
        .iter()
        .map(|&b| {
            perturbed(
                &mut rng,
                b % SCALE_CHILD_CARDINALITY,
                SCALE_CHILD_CARDINALITY,
            )
        })
        .collect();

    let noisy = noisy(&mut rng, &x);
    planted_relation([
        dictionary_column("v", SCALE_BASE_CARDINALITY, &base),
        dictionary_column("f", SCALE_CHILD_CARDINALITY, &fd_child),
        float_column(x),
        float_column(mono),
        dictionary_column("n", SCALE_FAN_CARDINALITY, &fan),
        dictionary_column("f", SCALE_CHILD_CARDINALITY, &afd_child),
        float_column(noisy),
    ])
}

/// `label`, or with probability [`AFD_ERROR_RATE`] a shifted label in
/// `0..cardinality`.
fn perturbed(rng: &mut StdRng, label: u32, cardinality: u32) -> u32 {
    if rng.gen::<f64>() < AFD_ERROR_RATE {
        (label + 1 + rng.gen_range(0..cardinality)) % cardinality
    } else {
        label
    }
}

/// Column 6: x plus bounded uniform noise — correlated, plants nothing.
fn noisy(rng: &mut StdRng, x: &[f64]) -> Vec<f64> {
    x.iter()
        .map(|&v| v + rng.gen_range(-NOISE..=NOISE))
        .collect()
}

/// Wraps the layout's seven columns in its schema, with the five planted
/// dependencies.
fn planted_relation(columns: [Column; 7]) -> Result<SyntheticRelation> {
    let schema = Schema::new(
        ATTRIBUTES
            .iter()
            .map(|&(name, kind)| Attribute::new(name, kind))
            .collect(),
    )?;
    let relation = Relation::from_typed_columns(schema, columns.into())?;
    let planted: Vec<Dependency> = vec![
        Fd::new(0usize, 1).into(),
        Fd::new(2usize, 3).into(),
        OrderDep::ascending(2, 3).into(),
        NumericalDep::new(0, 4, FAN_K).into(),
        Afd::new(0usize, 5, AFD_ERROR_RATE * 1.5 + 0.02).into(),
    ];
    Ok(SyntheticRelation { relation, planted })
}

/// Dictionary-encodes raw label ids `0..cardinality` as `{prefix}{id}`
/// labels, coded 1, 2, … in first-occurrence order so the column is
/// bit-identical to the one a CSV round trip would rebuild: returns the
/// codes and the dictionary.
fn encode(prefix: &str, cardinality: u32, ids: &[u32]) -> (Vec<u32>, Vec<String>) {
    let mut remap: Vec<u32> = vec![0; cardinality as usize];
    let mut dict: Vec<String> = Vec::new();
    let codes = ids
        .iter()
        .map(|&id| {
            let slot = &mut remap[id as usize];
            if *slot == 0 {
                dict.push(format!("{prefix}{id}"));
                *slot = dict.len() as u32;
            }
            *slot
        })
        .collect();
    (codes, dict)
}

/// [`encode`] as a categorical column.
fn dictionary_column(prefix: &str, cardinality: u32, ids: &[u32]) -> Column {
    let (codes, dict) = encode(prefix, cardinality, ids);
    Column::Categorical {
        dict: Arc::new(dict),
        codes,
    }
}

/// Wraps a float buffer in a fully non-null continuous column.
fn float_column(values: Vec<f64>) -> Column {
    let n = values.len();
    Column::Float {
        values,
        nulls: Bitmap::filled(n, false),
        ints: Bitmap::filled(n, false),
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
    fn empty_relation_generates() {
        let out = all_classes_spec(0, 0).generate().unwrap();
        assert_eq!(out.relation.n_rows(), 0);
    }

    #[test]
    fn planted_dependencies_hold_at_ten_thousand_rows() {
        let out = scale_relation(10_000, 7).unwrap();
        assert_eq!(out.relation.n_rows(), 10_000);
        assert_eq!(out.relation.arity(), 7);
        for dep in &out.planted {
            assert!(dep.holds(&out.relation).unwrap(), "{dep} should hold");
        }
    }

    #[test]
    fn scale_deterministic_per_seed() {
        let a = scale_relation(2_000, 42).unwrap();
        let b = scale_relation(2_000, 42).unwrap();
        assert_eq!(a.relation, b.relation);
        let c = scale_relation(2_000, 43).unwrap();
        assert_ne!(a.relation, c.relation);
    }

    #[test]
    fn scale_cardinalities_respected() {
        let out = scale_relation(50_000, 1).unwrap();
        let rel = &out.relation;
        assert!(rel.distinct_count(0).unwrap() <= SCALE_BASE_CARDINALITY as usize);
        assert!(rel.distinct_count(1).unwrap() <= SCALE_CHILD_CARDINALITY as usize);
        assert!(rel.distinct_count(4).unwrap() <= SCALE_FAN_CARDINALITY as usize);
    }

    #[test]
    fn scale_fanout_respects_k() {
        let out = scale_relation(5_000, 3).unwrap();
        let k = mp_metadata::NumericalDep::max_fanout(0, 4, &out.relation).unwrap();
        assert!(k <= FAN_K);
    }

    #[test]
    fn scale_afd_g3_close_to_error_rate() {
        let out = scale_relation(20_000, 8).unwrap();
        let g3 = Fd::new(0usize, 5).g3_error(&out.relation).unwrap();
        assert!(g3 > 0.0, "perturbations must create violations");
        assert!(g3 < 0.12, "g3 {g3} too far above the 5% error rate");
    }

    #[test]
    fn empty_and_tiny_relations_generate() {
        assert_eq!(scale_relation(0, 0).unwrap().relation.n_rows(), 0);
        assert_eq!(scale_relation(1, 0).unwrap().relation.n_rows(), 1);
    }

    #[test]
    fn dictionaries_are_in_first_occurrence_order() {
        // The invariant a CSV round trip relies on: code k (≥ 1) must point
        // at the k-th distinct label in row order.
        let out = scale_relation(3_000, 11).unwrap();
        for attr in [0usize, 1, 4, 5] {
            let Column::Categorical { dict, codes } = out.relation.column(attr).unwrap() else {
                panic!("scale categorical columns are dictionary-encoded");
            };
            let mut seen: Vec<&str> = Vec::new();
            for &code in codes {
                let label = &dict[code as usize - 1];
                if !seen.contains(&label.as_str()) {
                    seen.push(label);
                }
            }
            let dict_refs: Vec<&str> = dict.iter().map(String::as_str).collect();
            assert_eq!(seen, dict_refs, "attribute {attr}");
        }
    }
}
