//! Metric functional dependencies (MFDs).
//!
//! Another core class from the RFD survey the paper draws on (\[9\]): the
//! FD's equality on the *dependent* side is relaxed to a metric bound —
//! `t[X] = u[X] ⇒ d(t[Y], u[Y]) ≤ δ`. Useful when Y is a measurement
//! (two readings of the same entity agree only approximately). Sits
//! between the FD (δ = 0) and the unconstrained pair; its generation and
//! privacy behaviour interpolate the paper's FD and DD analyses.

use mp_relation::{Pli, Relation, Result};
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

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema, Value};

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
    fn displays() {
        assert_eq!(
            MetricFd::new(0, 1, 2.5).to_string(),
            "MFD 0 -> 1 (delta=2.5)"
        );
    }
}
