//! Uniform sampling from shared attribute domains.
//!
//! §III-A of the paper: with only a name and a domain, the adversary's best
//! move is uniform random generation, giving per-cell success probability
//! `θ_A = 1/|D_A|` (categorical) or an ε-ball hit rate `2ε/range`
//! (continuous). This module is that baseline generator, plus the
//! discretisation used when mapping-based generators need a finite view of
//! a continuous domain.

use mp_metadata::Distribution;
use mp_relation::{Bitmap, Column, ColumnBuilder, Domain, Value};
use rand::Rng;

/// Samples one value uniformly from `domain`.
///
/// Categorical domains pick one of their listed values (which may include
/// `Null` — the echocardiogram evaluation treats `?` as a domain value).
/// Continuous domains sample uniformly from `[min, max]`.
pub fn sample_uniform<R: Rng + ?Sized>(domain: &Domain, rng: &mut R) -> Value {
    match domain {
        Domain::Categorical(vals) => {
            if vals.is_empty() {
                Value::Null
            } else {
                vals[rng.gen_range(0..vals.len())].clone()
            }
        }
        Domain::Continuous { min, max } => {
            if max > min {
                Value::Float(rng.gen_range(*min..=*max))
            } else {
                Value::Float(*min)
            }
        }
    }
}

/// Samples a whole column of `n` independent uniform values.
pub fn sample_column<R: Rng + ?Sized>(domain: &Domain, n: usize, rng: &mut R) -> Vec<Value> {
    (0..n).map(|_| sample_uniform(domain, rng)).collect()
}

/// Samples a whole column directly into a typed [`Column`], consuming the
/// same RNG stream as [`sample_column`] (the two are interchangeable).
///
/// Continuous domains fill an `f64` buffer with no `Value` boxing; all-text
/// categorical domains share their value list as the dictionary and sample
/// `u32` codes; non-empty all-`Int`/`Null` domains fill `Column::Int` (a
/// null row holds `0` under a set bit). Empty domains and other mixes fall
/// back to pushing owned values.
pub fn sample_typed_column<R: Rng + ?Sized>(domain: &Domain, n: usize, rng: &mut R) -> Column {
    match domain {
        Domain::Continuous { min, max } => {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    if max > min {
                        rng.gen_range(*min..=*max)
                    } else {
                        *min
                    }
                })
                .collect();
            Column::Float {
                values,
                nulls: Bitmap::filled(n, false),
                ints: Bitmap::filled(n, false),
            }
        }
        Domain::Categorical(vals)
            if !vals.is_empty() && vals.iter().all(|v| matches!(v, Value::Text(_))) =>
        {
            let dict: Vec<String> = vals
                .iter()
                // lint: allow(no-panic) reason="the arm guard checks every value is Value::Text before this runs"
                .map(|v| v.as_str().expect("all-text checked above").to_string())
                .collect();
            let codes: Vec<u32> = (0..n)
                .map(|_| rng.gen_range(0..vals.len()) as u32 + 1)
                .collect();
            Column::Categorical { dict, codes }
        }
        Domain::Categorical(vals)
            if !vals.is_empty()
                && vals
                    .iter()
                    .all(|v| matches!(v, Value::Int(_) | Value::Null)) =>
        {
            let mut values = Vec::with_capacity(n);
            let mut nulls = Bitmap::new();
            for _ in 0..n {
                let v = &vals[rng.gen_range(0..vals.len())];
                values.push(v.as_i64().unwrap_or(0));
                nulls.push(v.is_null());
            }
            Column::Int { values, nulls }
        }
        _ => collect_typed(sample_column(domain, n, rng)),
    }
}

/// Samples a whole typed column from a distribution, consuming the same
/// RNG stream as [`sample_column_from_distribution`]. Histograms emit
/// floats directly; categorical frequency tables fall back to owned values.
pub fn sample_typed_column_from_distribution<R: Rng + ?Sized>(
    dist: &Distribution,
    n: usize,
    rng: &mut R,
) -> Column {
    match dist {
        Distribution::Histogram { .. } => {
            let values: Vec<f64> = (0..n)
                .map(|_| match sample_from_distribution(dist, rng) {
                    Value::Float(f) => f,
                    v => v.as_f64().unwrap_or(f64::NAN),
                })
                .collect();
            Column::Float {
                values,
                nulls: Bitmap::filled(n, false),
                ints: Bitmap::filled(n, false),
            }
        }
        Distribution::Categorical(_) => {
            collect_typed(sample_column_from_distribution(dist, n, rng))
        }
    }
}

/// Folds owned values into a typed column (the `Value` boundary of the
/// generators that still work row-wise).
pub fn collect_typed(values: Vec<Value>) -> Column {
    let mut builder = ColumnBuilder::new();
    for v in values {
        builder.push(v);
    }
    builder.finish()
}

/// Samples one value from a shared [`Distribution`] — the adversary's
/// move when the party over-shared value statistics. Categorical:
/// frequency-weighted pick; continuous: pick a bucket by density, then
/// uniform within the bucket.
pub fn sample_from_distribution<R: Rng + ?Sized>(dist: &Distribution, rng: &mut R) -> Value {
    match dist {
        Distribution::Categorical(freqs) => {
            if freqs.is_empty() {
                return Value::Null;
            }
            let total: f64 = freqs.iter().map(|(_, p)| p).sum();
            let mut u = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
            for (v, p) in freqs {
                u -= p;
                if u <= 0.0 {
                    return v.clone();
                }
            }
            freqs.last().map(|(v, _)| v.clone()).unwrap_or(Value::Null)
        }
        Distribution::Histogram {
            min,
            max,
            densities,
        } => {
            if densities.is_empty() || max <= min {
                return Value::Float(*min);
            }
            let total: f64 = densities.iter().sum();
            let mut u = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
            let width = (max - min) / densities.len() as f64;
            for (b, p) in densities.iter().enumerate() {
                u -= p;
                if u <= 0.0 {
                    let lo = min + b as f64 * width;
                    return Value::Float(rng.gen_range(lo..=lo + width));
                }
            }
            Value::Float(rng.gen_range(*min..=*max))
        }
    }
}

/// Samples a whole column from a distribution.
pub fn sample_column_from_distribution<R: Rng + ?Sized>(
    dist: &Distribution,
    n: usize,
    rng: &mut R,
) -> Vec<Value> {
    (0..n)
        .map(|_| sample_from_distribution(dist, rng))
        .collect()
}

/// A finite, ordered list of representative values of a domain, used by
/// mapping-based generators (FD/ND/OFD) that need to enumerate the
/// codomain.
///
/// Categorical domains return their values (already sorted); continuous
/// domains are discretised into `bins` equally spaced grid points.
pub fn enumerate_domain(domain: &Domain, bins: usize) -> Vec<Value> {
    match domain {
        Domain::Categorical(vals) => vals.clone(),
        Domain::Continuous { min, max } => {
            let bins = bins.max(1);
            if bins == 1 || max <= min {
                return vec![Value::Float((min + max) / 2.0)];
            }
            (0..bins)
                .map(|i| Value::Float(min + (max - min) * i as f64 / (bins - 1) as f64))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn categorical_sampling_stays_in_domain() {
        let d = Domain::categorical(vec!["a", "b", "c"]);
        let mut rng = StdRng::seed_from_u64(1);
        for v in sample_column(&d, 200, &mut rng) {
            assert!(d.contains(&v));
        }
    }

    #[test]
    fn categorical_sampling_is_roughly_uniform() {
        let d = Domain::categorical(vec![0i64, 1, 2]);
        let mut rng = StdRng::seed_from_u64(7);
        let col = sample_column(&d, 3000, &mut rng);
        for target in [0i64, 1, 2] {
            let count = col.iter().filter(|v| **v == Value::Int(target)).count();
            assert!((800..1200).contains(&count), "count {count} for {target}");
        }
    }

    #[test]
    fn continuous_sampling_in_bounds() {
        let d = Domain::continuous(-2.0, 5.0);
        let mut rng = StdRng::seed_from_u64(3);
        for v in sample_column(&d, 500, &mut rng) {
            let x = v.as_f64().unwrap();
            assert!((-2.0..=5.0).contains(&x));
        }
    }

    #[test]
    fn degenerate_domains() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            sample_uniform(&Domain::Categorical(vec![]), &mut rng),
            Value::Null
        );
        assert_eq!(
            sample_uniform(&Domain::continuous(4.0, 4.0), &mut rng),
            Value::Float(4.0)
        );
    }

    #[test]
    fn null_in_domain_is_sampled() {
        let d = Domain::categorical(vec![Value::Null, Value::Int(1)]);
        let mut rng = StdRng::seed_from_u64(2);
        let col = sample_column(&d, 200, &mut rng);
        assert!(col.iter().any(Value::is_null));
        assert!(col.iter().any(|v| !v.is_null()));
    }

    #[test]
    fn enumerate_categorical_is_identity() {
        let d = Domain::categorical(vec![2i64, 1]);
        assert_eq!(enumerate_domain(&d, 10), vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn enumerate_continuous_grid() {
        let d = Domain::continuous(0.0, 10.0);
        let grid = enumerate_domain(&d, 5);
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0], Value::Float(0.0));
        assert_eq!(grid[4], Value::Float(10.0));
        assert_eq!(grid[2], Value::Float(5.0));
        // Grid is sorted.
        let mut sorted = grid.clone();
        sorted.sort();
        assert_eq!(grid, sorted);
    }

    #[test]
    fn enumerate_degenerate_bins() {
        let d = Domain::continuous(1.0, 3.0);
        assert_eq!(enumerate_domain(&d, 0), vec![Value::Float(2.0)]);
        assert_eq!(enumerate_domain(&d, 1), vec![Value::Float(2.0)]);
        let point = Domain::continuous(5.0, 5.0);
        assert_eq!(enumerate_domain(&point, 8), vec![Value::Float(5.0)]);
    }
}
