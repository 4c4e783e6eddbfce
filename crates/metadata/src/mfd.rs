//! Metric functional dependencies (MFDs).
//!
//! Another core class from the RFD survey the paper draws on (\[9\]): the
//! FD's equality on the *dependent* side is relaxed to a metric bound —
//! `t[X] = u[X] ⇒ d(t[Y], u[Y]) ≤ δ`. Useful when Y is a measurement
//! (two readings of the same entity agree only approximately). Sits
//! between the FD (δ = 0) and the unconstrained pair; its generation and
//! privacy behaviour interpolate the paper's FD and DD analyses.

use mp_relation::{Pli, Relation, Result, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A metric functional dependency `X → Y (δ)` on a numeric dependent
/// attribute: tuples equal on X have Y values within `delta`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricFd {
    /// Determinant attribute X.
    pub lhs: usize,
    /// Dependent (numeric) attribute Y.
    pub rhs: usize,
    /// Maximum spread of Y within an X-partition.
    pub delta: f64,
}

impl MetricFd {
    /// Creates `lhs → rhs (delta)`.
    pub fn new(lhs: usize, rhs: usize, delta: f64) -> Self {
        Self { lhs, rhs, delta }
    }

    /// The tightest δ for which the MFD holds: the maximum Y-spread over
    /// any X-partition (0 when no partition has two numeric Y values, or
    /// `None` when Y has non-null non-numeric values, for which no metric
    /// exists).
    pub fn tight_delta(lhs: usize, rhs: usize, relation: &Relation) -> Result<Option<f64>> {
        let ys = &relation.column_values(rhs)?;
        if ys.iter().any(|v| !v.is_null() && v.as_f64().is_none()) {
            return Ok(None);
        }
        let pli = Pli::from_column(&relation.column_values(lhs)?);
        let mut delta = 0.0f64;
        for cluster in pli.clusters() {
            let nums: Vec<f64> = cluster
                .iter()
                .filter_map(|&r| ys[r as usize].as_f64())
                .collect();
            if nums.len() < 2 {
                continue;
            }
            let lo = nums.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            delta = delta.max(hi - lo);
        }
        Ok(Some(delta))
    }

    /// Exact validation: every X-partition's numeric Y values span at most
    /// `delta`. Mixed null/numeric partitions check only the numerics.
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        match Self::tight_delta(self.lhs, self.rhs, relation)? {
            Some(t) => Ok(t <= self.delta + 1e-12),
            None => Ok(false),
        }
    }
}

impl fmt::Display for MetricFd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MFD {} -> {} (delta={})", self.lhs, self.rhs, self.delta)
    }
}

/// An inclusion dependency (IND) `R.A ⊆ S.B` between two relations —
/// the cross-silo metadata used during VFL schema matching (the paper's
/// Figure 1 parties must first agree which columns refer to the same
/// concepts).
///
/// Privacy note: *declaring* an IND to a partner asserts that every value
/// of your column appears in theirs — the partner can then intersect its
/// own column with generated candidates, shrinking the effective domain
/// of yours. Like domains, INDs are value-level metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InclusionDep {
    /// Column of the including relation (ours).
    pub from_attr: usize,
    /// Column of the included-in relation (theirs).
    pub to_attr: usize,
}

impl InclusionDep {
    /// Creates `from.from_attr ⊆ to.to_attr`.
    pub fn new(from_attr: usize, to_attr: usize) -> Self {
        Self { from_attr, to_attr }
    }

    /// Exact validation: every non-null value of `from`'s column appears
    /// in `to`'s column.
    pub fn holds(&self, from: &Relation, to: &Relation) -> Result<bool> {
        let to_vals = to.column_values(self.to_attr)?;
        let mut haystack: Vec<&Value> = to_vals.iter().collect();
        haystack.sort();
        haystack.dedup();
        Ok(from
            .column_values(self.from_attr)?
            .iter()
            .filter(|v| !v.is_null())
            .all(|v| haystack.binary_search(&v).is_ok()))
    }
}

impl fmt::Display for InclusionDep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IND from.{} ⊆ to.{}", self.from_attr, self.to_attr)
    }
}

/// Discovers all unary INDs from `from` into `to`: pairs `(a, b)` with
/// `from.a ⊆ to.b`, skipping empty `from` columns (vacuous).
pub fn discover_inds(from: &Relation, to: &Relation) -> Result<Vec<InclusionDep>> {
    let mut out = Vec::new();
    for a in 0..from.arity() {
        let non_null = from.column(a)?.null_count() < from.n_rows();
        if !non_null {
            continue;
        }
        for b in 0..to.arity() {
            let ind = InclusionDep::new(a, b);
            if ind.holds(from, to)? {
                out.push(ind);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema};

    fn rel(vals: &[(&str, f64)]) -> Relation {
        let schema = Schema::new(vec![
            Attribute::categorical("k"),
            Attribute::continuous("y"),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vals.iter()
                .map(|&(k, y)| vec![k.into(), y.into()])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn mfd_semantics() {
        // Partition "a": spread 1.5; partition "b": spread 0.
        let r = rel(&[("a", 1.0), ("a", 2.5), ("b", 9.0), ("b", 9.0)]);
        assert_eq!(MetricFd::tight_delta(0, 1, &r).unwrap(), Some(1.5));
        assert!(MetricFd::new(0, 1, 1.5).holds(&r).unwrap());
        assert!(!MetricFd::new(0, 1, 1.0).holds(&r).unwrap());
        // δ = 0 degenerates to the FD.
        let fd_like = rel(&[("a", 1.0), ("a", 1.0), ("b", 2.0)]);
        assert!(MetricFd::new(0, 1, 0.0).holds(&fd_like).unwrap());
    }

    #[test]
    fn mfd_on_text_rhs_is_undefined() {
        let schema = Schema::new(vec![
            Attribute::categorical("k"),
            Attribute::categorical("t"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![vec!["a".into(), "x".into()], vec!["a".into(), "y".into()]],
        )
        .unwrap();
        assert_eq!(MetricFd::tight_delta(0, 1, &r).unwrap(), None);
        assert!(!MetricFd::new(0, 1, 100.0).holds(&r).unwrap());
    }

    #[test]
    fn mfd_skips_nulls_inside_partitions() {
        let schema = Schema::new(vec![
            Attribute::categorical("k"),
            Attribute::continuous("y"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), 1.0.into()],
                vec!["a".into(), Value::Null],
                vec!["a".into(), 1.4.into()],
            ],
        )
        .unwrap();
        assert!((MetricFd::tight_delta(0, 1, &r).unwrap().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ind_semantics() {
        let from = rel(&[("a", 1.0), ("b", 2.0)]);
        let to = rel(&[("a", 1.0), ("b", 5.0), ("c", 9.0)]);
        assert!(InclusionDep::new(0, 0).holds(&from, &to).unwrap());
        assert!(!InclusionDep::new(1, 1).holds(&from, &to).unwrap()); // 2.0 ∉ {1,5,9}
        assert!(!InclusionDep::new(0, 1).holds(&from, &to).unwrap());
    }

    #[test]
    fn ind_nulls_are_ignored_on_the_from_side() {
        let schema = Schema::new(vec![Attribute::categorical("k")]).unwrap();
        let from =
            Relation::from_rows(schema.clone(), vec![vec!["a".into()], vec![Value::Null]]).unwrap();
        let to = Relation::from_rows(schema, vec![vec!["a".into()]]).unwrap();
        assert!(InclusionDep::new(0, 0).holds(&from, &to).unwrap());
    }

    #[test]
    fn ind_discovery() {
        let from = rel(&[("a", 1.0), ("b", 2.0)]);
        let to = rel(&[("a", 1.0), ("b", 2.0), ("c", 3.0)]);
        let inds = discover_inds(&from, &to).unwrap();
        assert!(inds.contains(&InclusionDep::new(0, 0)));
        assert!(inds.contains(&InclusionDep::new(1, 1)));
        assert!(!inds.contains(&InclusionDep::new(0, 1)));
        // Every discovered IND holds.
        for ind in &inds {
            assert!(ind.holds(&from, &to).unwrap());
        }
    }

    #[test]
    fn ind_discovery_skips_all_null_columns() {
        let schema = Schema::new(vec![Attribute::categorical("k")]).unwrap();
        let from = Relation::from_rows(schema.clone(), vec![vec![Value::Null]]).unwrap();
        let to = Relation::from_rows(schema, vec![vec!["a".into()]]).unwrap();
        assert!(discover_inds(&from, &to).unwrap().is_empty());
    }

    #[test]
    fn displays() {
        assert_eq!(
            MetricFd::new(0, 1, 2.5).to_string(),
            "MFD 0 -> 1 (delta=2.5)"
        );
        assert_eq!(InclusionDep::new(2, 3).to_string(), "IND from.2 ⊆ to.3");
    }
}
