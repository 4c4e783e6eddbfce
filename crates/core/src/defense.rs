//! Data-side anonymisation: k-anonymity and generalisation transforms.
//!
//! The paper grounds its privacy notion in GDPR identifiability and cites
//! anonymisation (ref \[11\]) as the standard mitigation: *"anonymization
//! techniques aim to ensure that shared data remain non-identifiable"*.
//! This module provides the classic k-anonymity measure over a
//! quasi-identifier set and the bucketing generalisation used to raise it,
//! so the identifiability results of Definition 2.1 can be traced to a
//! concrete defense.

use mp_relation::{AttrKind, Relation, RelationError, Result, Value};

/// The k-anonymity of `relation` over the quasi-identifier attributes
/// `qi`: the size of the smallest equivalence class of the QI projection.
/// Every tuple is indistinguishable from at least `k − 1` others on the
/// QIs. Returns 0 for an empty relation.
pub fn k_anonymity(relation: &Relation, qi: &[usize]) -> Result<usize> {
    if relation.n_rows() == 0 {
        return Ok(0);
    }
    let set = mp_metadata::AttrSet::from_iter(qi.iter().copied());
    let pli = mp_metadata::pli_of_set(relation, &set)?;
    // Stripped partitions drop singletons; if any tuple is uncovered its
    // class has size 1.
    if pli.covered_count() < relation.n_rows() {
        return Ok(1);
    }
    Ok(pli
        .clusters()
        .map(<[u32]>::len)
        .min()
        .unwrap_or(relation.n_rows()))
}

/// Generalises a continuous column by flooring values to multiples of
/// `bucket_width` (nulls pass through). A coarser view of the data that
/// trades utility for anonymity.
pub fn bucketize_column(relation: &Relation, col: usize, bucket_width: f64) -> Result<Relation> {
    if bucket_width <= 0.0 {
        return Err(RelationError::Csv {
            line: 0,
            message: "bucket_width must be positive".into(),
        });
    }
    if relation.schema().attribute(col)?.kind != AttrKind::Continuous {
        return Err(RelationError::TypeMismatch {
            column: relation.schema().attribute(col)?.name.clone(),
            expected: "continuous",
            got: "categorical",
        });
    }
    let mut columns: Vec<Vec<Value>> = (0..relation.arity())
        .map(|c| relation.column_values(c))
        .collect::<Result<_>>()?;
    for v in &mut columns[col] {
        if let Some(x) = v.as_f64() {
            *v = Value::Float((x / bucket_width).floor() * bucket_width);
        }
    }
    Relation::from_columns(relation.schema().clone(), columns)
}

/// Repeatedly coarsens the continuous QIs (doubling the bucket width) until
/// the relation is k-anonymous over `qi` or `max_steps` is exhausted.
/// Returns the transformed relation and the bucket width reached per QI
/// (`None` for categorical QIs, which are left untouched).
pub fn generalize_to_k(
    relation: &Relation,
    qi: &[usize],
    k: usize,
    initial_width: f64,
    max_steps: usize,
) -> Result<(Relation, Vec<Option<f64>>)> {
    let mut current = relation.clone();
    let mut widths: Vec<Option<f64>> = qi
        .iter()
        .map(|&a| {
            (relation.schema().attributes()[a].kind == AttrKind::Continuous)
                .then_some(initial_width)
        })
        .collect();
    for _ in 0..=max_steps {
        if k_anonymity(&current, qi)? >= k {
            return Ok((current, widths));
        }
        current = relation.clone();
        for (slot, &attr) in widths.iter_mut().zip(qi) {
            if let Some(w) = slot {
                current = bucketize_column(&current, attr, *w)?;
                *slot = Some(*w * 2.0);
            }
        }
    }
    Ok((current, widths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema};

    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::continuous("age"),
            Attribute::categorical("zip"),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![23.0.into(), "10001".into()],
                vec![24.0.into(), "10001".into()],
                vec![23.0.into(), "10001".into()],
                vec![57.0.into(), "10002".into()],
                vec![58.0.into(), "10002".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn k_anonymity_measures_smallest_class() {
        let r = rel();
        // Exact ages: 23 appears twice, 24 and 57 and 58 once → k = 1.
        assert_eq!(k_anonymity(&r, &[0]).unwrap(), 1);
        // Zip only: classes of 3 and 2 → k = 2.
        assert_eq!(k_anonymity(&r, &[1]).unwrap(), 2);
        // Empty QI set: everyone in one class.
        assert_eq!(k_anonymity(&r, &[]).unwrap(), 5);
    }

    #[test]
    fn bucketing_raises_k() {
        let r = rel();
        let coarse = bucketize_column(&r, 0, 10.0).unwrap();
        // Ages floor to 20, 20, 20, 50, 50 → k over age = 2.
        assert_eq!(k_anonymity(&coarse, &[0]).unwrap(), 2);
        assert_eq!(coarse.value(0, 0).unwrap(), Value::Float(20.0));
    }

    #[test]
    fn bucketize_validates_inputs() {
        let r = rel();
        assert!(bucketize_column(&r, 0, 0.0).is_err());
        assert!(bucketize_column(&r, 1, 5.0).is_err());
    }

    #[test]
    fn generalize_to_k_reaches_target() {
        let r = rel();
        let (anon, widths) = generalize_to_k(&r, &[0, 1], 2, 1.0, 12).unwrap();
        assert!(k_anonymity(&anon, &[0, 1]).unwrap() >= 2);
        assert!(widths[0].unwrap() > 1.0, "age must have been coarsened");
        assert_eq!(widths[1], None, "categorical QI untouched");
    }

    #[test]
    fn generalization_reduces_identifiability() {
        let r = mp_datasets::echocardiogram();
        let before = crate::identifiability::identifiability_rate(&r, 1).unwrap();
        let mut coarse = r.clone();
        for &attr in &mp_datasets::CONTINUOUS_ATTRS {
            let range = mp_relation::Domain::infer(&coarse, attr)
                .unwrap()
                .range()
                .unwrap()
                .max(1.0);
            coarse = bucketize_column(&coarse, attr, range / 2.0).unwrap();
        }
        let after = crate::identifiability::identifiability_rate(&coarse, 1).unwrap();
        assert!(
            after < before * 0.5,
            "bucketing must slash single-attribute identifiability: {before} → {after}"
        );
    }

    #[test]
    fn empty_relation_k_is_zero() {
        let schema = Schema::new(vec![Attribute::continuous("x")]).unwrap();
        let r = Relation::empty(schema);
        assert_eq!(k_anonymity(&r, &[0]).unwrap(), 0);
    }

    #[test]
    fn nulls_pass_through_bucketing() {
        let schema = Schema::new(vec![Attribute::continuous("x")]).unwrap();
        let r = Relation::from_rows(schema, vec![vec![Value::Null], vec![7.0.into()]]).unwrap();
        let out = bucketize_column(&r, 0, 5.0).unwrap();
        assert_eq!(out.value(0, 0).unwrap(), Value::Null);
        assert_eq!(out.value(1, 0).unwrap(), Value::Float(5.0));
    }
}
