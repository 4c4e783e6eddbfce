//! Million-row planted-dependency relations, generated straight into
//! typed columns.
//!
//! [`SyntheticSpec::generate`](crate::SyntheticSpec::generate) goes through
//! boxed [`Value`](mp_relation::Value) cells and per-cell hash-map lookups,
//! which is fine at thousands of rows but dominates wall-clock at millions.
//! [`scale_relation`] plants the same dependency classes (FD, OD, ND, AFD
//! and a noisy negative control) while writing dictionary codes and float
//! buffers directly, so generating the 1M-row bench input takes a fraction
//! of a second instead of minutes.
//!
//! The layout is fixed at seven columns:
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

use crate::generator::SyntheticRelation;
use mp_metadata::{Afd, Dependency, Fd, NumericalDep, OrderDep};
use mp_relation::{Attribute, Bitmap, Column, Relation, Result, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Distinct labels in the `base` column (upper bound; fewer appear when
/// `n_rows` is small).
pub(crate) const SCALE_BASE_CARDINALITY: u32 = 4096;

/// Distinct labels in the `fd_child` and `afd_child` images.
const CHILD_CARDINALITY: u32 = 64;

/// Distinct labels in the `fan` column and the planted fanout bound.
const FAN_CARDINALITY: u32 = 16;
const FAN_K: usize = 3;

/// Fraction of `afd_child` rows perturbed away from the exact mapping.
const AFD_ERROR_RATE: f64 = 0.05;

/// Builds a dictionary column from raw label ids, remapping them to
/// first-occurrence order so the column is bit-identical to the one a CSV
/// round trip would rebuild.
fn dictionary_column(prefix: &str, max_id: u32, ids: &[u32]) -> Column {
    let mut remap: Vec<u32> = vec![0; max_id as usize + 1];
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

/// Generates an `n_rows × 7` relation with planted dependencies, directly
/// into typed columns (see the module docs for the layout).
///
/// Deterministic per `(n_rows, seed)`: the same arguments always produce a
/// bit-identical relation and the same planted ground truth.
pub fn scale_relation(n_rows: usize, seed: u64) -> Result<SyntheticRelation> {
    let mut rng = StdRng::seed_from_u64(seed);

    // Column 0: independent uniform base labels.
    let base_ids: Vec<u32> = (0..n_rows)
        .map(|_| rng.gen_range(0..SCALE_BASE_CARDINALITY))
        .collect();

    // Column 1: deterministic image of base — plants the FD.
    let fd_ids: Vec<u32> = base_ids.iter().map(|&b| b % CHILD_CARDINALITY).collect();

    // Column 2: independent uniform floats.
    let x: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(0.0..100.0)).collect();

    // Column 3: strictly increasing affine image of x — plants the FD and
    // the ascending OD without any data-dependent normalisation.
    let mono: Vec<f64> = x.iter().map(|&v| v * 0.02 - 1.0).collect();

    // Column 4: each base label owns a fixed 3-element label subset; rows
    // pick uniformly inside it — plants the ND `base →≤3 fan`.
    let fan_ids: Vec<u32> = base_ids
        .iter()
        .map(|&b| (b.wrapping_mul(7) + rng.gen_range(0..FAN_K as u32)) % FAN_CARDINALITY)
        .collect();

    // Column 5: the FD image with a perturbed fraction — plants AFD
    // material with g3 ≲ AFD_ERROR_RATE.
    let afd_ids: Vec<u32> = base_ids
        .iter()
        .map(|&b| {
            let label = b % CHILD_CARDINALITY;
            if rng.gen::<f64>() < AFD_ERROR_RATE {
                (label + 1 + rng.gen_range(0..CHILD_CARDINALITY)) % CHILD_CARDINALITY
            } else {
                label
            }
        })
        .collect();

    // Column 6: x plus bounded noise — correlated, plants nothing.
    let noisy: Vec<f64> = x.iter().map(|&v| v + rng.gen_range(-5.0..=5.0)).collect();

    let schema = Schema::new(vec![
        Attribute::categorical("base"),
        Attribute::categorical("fd_child"),
        Attribute::continuous("x"),
        Attribute::continuous("mono"),
        Attribute::categorical("fan"),
        Attribute::categorical("afd_child"),
        Attribute::continuous("noisy"),
    ])?;
    let columns = vec![
        dictionary_column("v", SCALE_BASE_CARDINALITY - 1, &base_ids),
        dictionary_column("f", CHILD_CARDINALITY - 1, &fd_ids),
        float_column(x),
        float_column(mono),
        dictionary_column("n", FAN_CARDINALITY - 1, &fan_ids),
        dictionary_column("f", CHILD_CARDINALITY - 1, &afd_ids),
        float_column(noisy),
    ];
    let relation = Relation::from_typed_columns(schema, columns)?;

    let planted: Vec<Dependency> = vec![
        Fd::new(0usize, 1).into(),
        Fd::new(2usize, 3).into(),
        OrderDep::ascending(2, 3).into(),
        NumericalDep::new(0, 4, FAN_K).into(),
        Afd::new(0usize, 5, AFD_ERROR_RATE * 1.5 + 0.02).into(),
    ];
    Ok(SyntheticRelation { relation, planted })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn deterministic_per_seed() {
        let a = scale_relation(2_000, 42).unwrap();
        let b = scale_relation(2_000, 42).unwrap();
        assert_eq!(a.relation, b.relation);
        let c = scale_relation(2_000, 43).unwrap();
        assert_ne!(a.relation, c.relation);
    }

    #[test]
    fn cardinalities_respected() {
        let out = scale_relation(50_000, 1).unwrap();
        let rel = &out.relation;
        assert!(rel.distinct_count(0).unwrap() <= SCALE_BASE_CARDINALITY as usize);
        assert!(rel.distinct_count(1).unwrap() <= CHILD_CARDINALITY as usize);
        assert!(rel.distinct_count(4).unwrap() <= FAN_CARDINALITY as usize);
    }

    #[test]
    fn fanout_respects_k() {
        let out = scale_relation(5_000, 3).unwrap();
        let k = mp_metadata::NumericalDep::max_fanout(0, 4, &out.relation).unwrap();
        assert!(k <= FAN_K);
    }

    #[test]
    fn afd_g3_close_to_error_rate() {
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
