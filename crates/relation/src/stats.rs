//! Per-column summary statistics.
//!
//! These drive domain inference sanity checks, dataset documentation, and
//! the experiment reports (e.g. interpreting an MSE relative to a column's
//! variance, as the paper does when reading Table III).

use crate::error::Result;
use crate::relation::Relation;
use crate::value::{Value, ValueRef};
use std::collections::HashMap;

/// Summary statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Attribute name.
    pub name: String,
    /// Total rows.
    pub count: usize,
    /// Missing values.
    pub nulls: usize,
    /// Distinct values (nulls count as one distinct value).
    pub distinct: usize,
    /// Minimum over numeric values, if any.
    pub min: Option<f64>,
    /// Maximum over numeric values, if any.
    pub max: Option<f64>,
    /// Mean over numeric values, if any.
    pub mean: Option<f64>,
    /// Population variance over numeric values, if any.
    pub variance: Option<f64>,
    /// Most frequent value and its multiplicity.
    pub mode: Option<(Value, usize)>,
}

impl ColumnStats {
    /// Computes statistics for column `col` of `relation`.
    pub(crate) fn compute(relation: &Relation, col: usize) -> Result<Self> {
        let name = relation.schema().attribute(col)?.name.clone();
        let column = relation.column(col)?;
        let count = column.len();
        let nulls = column.null_count();

        let mut freq: HashMap<ValueRef<'_>, usize> = HashMap::new();
        for v in column.iter() {
            *freq.entry(v).or_insert(0) += 1;
        }
        let distinct = freq.len();
        let mode = freq
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(v, c)| (v.to_value(), *c));

        let nums: Vec<f64> = column.iter().filter_map(|v| v.as_f64()).collect();
        let (min, max, mean, variance) = if nums.is_empty() {
            (None, None, None, None)
        } else {
            let n = nums.len() as f64;
            let min = nums.iter().copied().fold(f64::INFINITY, f64::min);
            let max = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = nums.iter().sum::<f64>() / n;
            let var = nums.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            (Some(min), Some(max), Some(mean), Some(var))
        };

        Ok(Self {
            name,
            count,
            nulls,
            distinct,
            min,
            max,
            mean,
            variance,
            mode,
        })
    }

    /// Computes statistics for every column.
    pub fn compute_all(relation: &Relation) -> Result<Vec<Self>> {
        (0..relation.arity())
            .map(|c| Self::compute(relation, c))
            .collect()
    }
}

/// Empirical quantile of the numeric values of a column, by linear
/// interpolation between order statistics (the common "type 7" estimator).
/// `q` is clamped to [0, 1]; `None` if the column has no numeric values.
pub(crate) fn quantile(relation: &Relation, col: usize, q: f64) -> Result<Option<f64>> {
    let mut nums: Vec<f64> = relation
        .column(col)?
        .iter()
        .filter_map(|v| v.as_f64())
        .collect();
    if nums.is_empty() {
        return Ok(None);
    }
    nums.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (nums.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(Some(nums[lo] + (nums[hi] - nums[lo]) * frac))
}

/// The (q25, q50, q75) quartiles of a column, or `None` without numerics.
pub fn quartiles(relation: &Relation, col: usize) -> Result<Option<(f64, f64, f64)>> {
    Ok(
        match (
            quantile(relation, col, 0.25)?,
            quantile(relation, col, 0.5)?,
            quantile(relation, col, 0.75)?,
        ) {
            (Some(a), Some(b), Some(c)) => Some((a, b, c)),
            _ => None,
        },
    )
}

/// Fixed-width histogram over the numeric values of a column.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bucket.
    pub min: f64,
    /// Exclusive upper bound of the last bucket (values equal to the max
    /// land in the last bucket).
    pub max: f64,
    /// Per-bucket counts.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Builds a histogram with `buckets` equal-width bins over the numeric
    /// values of column `col`. Returns `None` if the column has no numeric
    /// values or `buckets == 0`.
    pub fn compute(relation: &Relation, col: usize, buckets: usize) -> Result<Option<Self>> {
        if buckets == 0 {
            return Ok(None);
        }
        let nums: Vec<f64> = relation
            .column(col)?
            .iter()
            .filter_map(|v| v.as_f64())
            .collect();
        if nums.is_empty() {
            return Ok(None);
        }
        let min = nums.iter().copied().fold(f64::INFINITY, f64::min);
        let max = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = (max - min).max(f64::MIN_POSITIVE);
        let mut counts = vec![0usize; buckets];
        for x in nums {
            let mut b = ((x - min) / width * buckets as f64) as usize;
            if b >= buckets {
                b = buckets - 1;
            }
            counts[b] += 1;
        }
        Ok(Some(Self { min, max, counts }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};

    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::categorical("dept"),
            Attribute::continuous("salary"),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec!["Sales".into(), 20.0.into()],
                vec!["Sales".into(), 25.0.into()],
                vec![Value::Null, 27.0.into()],
                vec!["CS".into(), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn categorical_stats() {
        let s = ColumnStats::compute(&rel(), 0).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.mode, Some((Value::Text("Sales".into()), 2)));
        assert_eq!(s.mean, None);
    }

    #[test]
    fn continuous_stats() {
        let s = ColumnStats::compute(&rel(), 1).unwrap();
        assert_eq!(s.min, Some(20.0));
        assert_eq!(s.max, Some(27.0));
        let mean = (20.0 + 25.0 + 27.0) / 3.0;
        assert!((s.mean.unwrap() - mean).abs() < 1e-12);
        let var = ((20.0f64 - mean).powi(2) + (25.0 - mean).powi(2) + (27.0 - mean).powi(2)) / 3.0;
        assert!((s.variance.unwrap() - var).abs() < 1e-12);
    }

    #[test]
    fn mode_tie_breaks_deterministically() {
        let schema = Schema::new(vec![Attribute::categorical("x")]).unwrap();
        let r = Relation::from_rows(schema, vec![vec!["a".into()], vec!["b".into()]]).unwrap();
        let s = ColumnStats::compute(&r, 0).unwrap();
        // Ties resolve to the smallest value for determinism.
        assert_eq!(s.mode, Some((Value::Text("a".into()), 1)));
    }

    #[test]
    fn histogram_buckets_values() {
        let h = Histogram::compute(&rel(), 1, 2).unwrap().unwrap();
        // salaries 20, 25, 27 over [20, 27]: bucket edges at 23.5.
        assert_eq!(h.counts, vec![1, 2]);
        assert_eq!(h.min, 20.0);
        assert_eq!(h.max, 27.0);
    }

    #[test]
    fn histogram_degenerate_cases() {
        assert_eq!(Histogram::compute(&rel(), 1, 0).unwrap(), None);
        assert_eq!(Histogram::compute(&rel(), 0, 4).unwrap(), None); // no numerics
    }

    #[test]
    fn histogram_single_value_column() {
        let schema = Schema::new(vec![Attribute::continuous("c")]).unwrap();
        let r = Relation::from_rows(schema, vec![vec![5.0.into()], vec![5.0.into()]]).unwrap();
        let h = Histogram::compute(&r, 0, 3).unwrap().unwrap();
        assert_eq!(h.counts.iter().sum::<usize>(), 2);
    }

    #[test]
    fn compute_all_spans_schema() {
        let all = ColumnStats::compute_all(&rel()).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name, "dept");
        assert_eq!(all[1].name, "salary");
    }

    #[test]
    fn quantiles_interpolate() {
        let schema = Schema::new(vec![Attribute::continuous("x")]).unwrap();
        let r = Relation::from_rows(
            schema,
            (1..=5).map(|i| vec![Value::Float(i as f64)]).collect(),
        )
        .unwrap();
        assert_eq!(quantile(&r, 0, 0.0).unwrap(), Some(1.0));
        assert_eq!(quantile(&r, 0, 1.0).unwrap(), Some(5.0));
        assert_eq!(quantile(&r, 0, 0.5).unwrap(), Some(3.0));
        // Interpolated: q = 0.1 → pos 0.4 → 1.4.
        assert!((quantile(&r, 0, 0.1).unwrap().unwrap() - 1.4).abs() < 1e-12);
        // Clamping.
        assert_eq!(quantile(&r, 0, -3.0).unwrap(), Some(1.0));
        assert_eq!(quartiles(&r, 0).unwrap(), Some((2.0, 3.0, 4.0)));
    }

    #[test]
    fn quantile_without_numerics_is_none() {
        let r = rel();
        assert_eq!(quantile(&r, 0, 0.5).unwrap(), None);
        assert_eq!(quartiles(&r, 0).unwrap(), None);
    }
}
