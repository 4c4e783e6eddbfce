//! Interval-based generation for order and differential dependencies.
//!
//! **Order dependency (§IV-C):** given the generated determinant column,
//! its `m` distinct values (sorted) induce `m` partitions; the adversary
//! draws a non-decreasing sequence over the dependent domain and assigns
//! partition `i` the `i`-th element — for continuous codomains a point
//! inside the `i`-th interval of a sorted uniform sample, for categorical
//! codomains the value at a non-decreasing random index. The paper's
//! probability of a correct generation is then the interval-overlap ratio
//! `θ_{y_i} = max(y_{i+1} − y'_i, 0)/(y_max − y_i)`.
//!
//! **Differential dependency (§IV-D):** values are generated as a Markov
//! chain over rows sorted by the determinant: each new value is sampled
//! uniformly from the intersection of the `±δ` balls of every ε-close
//! predecessor (always non-empty, see `generate_dd_column`), so the
//! generated pair satisfies the DD by construction.

use crate::sampler::sample_uniform;
use mp_metadata::OrderDirection;
use mp_relation::{Domain, Value};
use rand::Rng;
use std::collections::HashMap;

/// Generates a dependent column under an **OD** with the given direction.
///
/// Each distinct determinant value maps to a single dependent value
/// (OD ties must be ties), and the mapping is monotone in the dependency's
/// direction. Null determinant values are treated as the smallest group
/// (consistent with [`Value`]'s total order).
pub fn generate_od_column<R: Rng + ?Sized>(
    lhs_col: &[Value],
    rhs_domain: &Domain,
    direction: OrderDirection,
    n_rows: usize,
    rng: &mut R,
) -> Vec<Value> {
    let mut distinct: Vec<&Value> = lhs_col.iter().collect();
    distinct.sort();
    distinct.dedup();
    let m = distinct.len();
    if m == 0 {
        return Vec::new();
    }

    // Draw a non-decreasing sequence of m dependent values.
    let mut seq: Vec<Value> = match rhs_domain {
        Domain::Continuous { min, max } => {
            // Sorted uniform sample: y_1 ≤ … ≤ y_m partition the domain.
            let mut ys: Vec<f64> = (0..m).map(|_| rng.gen_range(*min..=*max)).collect();
            ys.sort_by(f64::total_cmp);
            ys.into_iter().map(Value::Float).collect()
        }
        Domain::Categorical(vals) => {
            if vals.is_empty() {
                return vec![Value::Null; n_rows];
            }
            let mut idx: Vec<usize> = (0..m).map(|_| rng.gen_range(0..vals.len())).collect();
            idx.sort_unstable();
            idx.into_iter().map(|i| vals[i].clone()).collect()
        }
    };
    if direction == OrderDirection::Descending {
        seq.reverse();
    }

    let mapping: HashMap<&Value, Value> = distinct.into_iter().zip(seq).collect();
    (0..n_rows).map(|r| mapping[&lhs_col[r]].clone()).collect()
}

/// Generates a dependent column under a **DD** `X (ε) → Y (δ)`.
///
/// Rows are processed in ascending determinant order; each dependent value
/// is drawn uniformly from the intersection of `[y_j − δ, y_j + δ]` over
/// every already-generated row `j` with `|x_i − x_j| ≤ ε`, intersected with
/// the domain. Inductively all values inside an ε-window are pairwise
/// within δ, so this intersection is never empty and the generated pair
/// satisfies the DD exactly. Rows whose determinant is non-numeric get an
/// unconstrained uniform draw.
pub fn generate_dd_column<R: Rng + ?Sized>(
    lhs_col: &[Value],
    rhs_domain: &Domain,
    eps: f64,
    delta: f64,
    n_rows: usize,
    rng: &mut R,
) -> Vec<Value> {
    let (dom_min, dom_max) = match rhs_domain {
        Domain::Continuous { min, max } => (*min, *max),
        // A DD's dependent attribute is continuous by definition; for a
        // categorical domain fall back to unconstrained uniform draws.
        Domain::Categorical(_) => {
            return (0..n_rows)
                .map(|_| sample_uniform(rhs_domain, rng))
                .collect();
        }
    };

    // Sort row indices by the numeric determinant; non-numeric rows last.
    let mut order: Vec<usize> = (0..n_rows).collect();
    order.sort_by(|&a, &b| match (lhs_col[a].as_f64(), lhs_col[b].as_f64()) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.cmp(&b),
    });

    let mut out = vec![Value::Null; n_rows];
    // (x, y) pairs of the current ε-window, in ascending x.
    let mut window: Vec<(f64, f64)> = Vec::new();
    for &r in &order {
        let Some(x) = lhs_col[r].as_f64() else {
            out[r] = sample_uniform(rhs_domain, rng);
            continue;
        };
        while let Some(&(wx, _)) = window.first() {
            if x - wx > eps {
                window.remove(0);
            } else {
                break;
            }
        }
        let (lo, hi) = window
            .iter()
            .fold((dom_min, dom_max), |(lo, hi), &(_, wy)| {
                (lo.max(wy - delta), hi.min(wy + delta))
            });
        let y = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
        window.push((x, y));
        out[r] = Value::Float(y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_metadata::{DifferentialDep, OrderDep};
    use mp_relation::{Attribute, Relation, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rel(xattr: Attribute, x: Vec<Value>, yattr: Attribute, y: Vec<Value>) -> Relation {
        Relation::from_columns(Schema::new(vec![xattr, yattr]).unwrap(), vec![x, y]).unwrap()
    }

    #[test]
    fn od_generation_satisfies_ascending_od() {
        let mut rng = StdRng::seed_from_u64(20);
        let x: Vec<Value> = (0..90).map(|i| Value::Int((i % 9) as i64)).collect();
        let dom = Domain::continuous(0.0, 50.0);
        let y = generate_od_column(&x, &dom, OrderDirection::Ascending, 90, &mut rng);
        let r = rel(
            Attribute::categorical("x"),
            x,
            Attribute::continuous("y"),
            y,
        );
        assert!(OrderDep::ascending(0, 1).holds(&r).unwrap());
    }

    #[test]
    fn od_generation_satisfies_descending_od() {
        let mut rng = StdRng::seed_from_u64(21);
        let x: Vec<Value> = (0..60).map(|i| Value::Int((i % 6) as i64)).collect();
        let dom = Domain::categorical((0i64..25).collect::<Vec<_>>());
        let y = generate_od_column(&x, &dom, OrderDirection::Descending, 60, &mut rng);
        let r = rel(
            Attribute::categorical("x"),
            x,
            Attribute::categorical("y"),
            y,
        );
        assert!(OrderDep::descending(0, 1).holds(&r).unwrap());
        assert!(r.column_values(1).unwrap().iter().all(|v| dom.contains(v)));
    }

    #[test]
    fn od_generation_categorical_codomain() {
        let mut rng = StdRng::seed_from_u64(22);
        let x: Vec<Value> = (0..50).map(|i| Value::Float((i % 5) as f64)).collect();
        let dom = Domain::categorical(vec!["a", "b", "c"]);
        let y = generate_od_column(&x, &dom, OrderDirection::Ascending, 50, &mut rng);
        let r = rel(
            Attribute::continuous("x"),
            x,
            Attribute::categorical("y"),
            y,
        );
        assert!(OrderDep::ascending(0, 1).holds(&r).unwrap());
    }

    #[test]
    fn od_mapping_is_functional() {
        // Ties in X must produce identical Y (the OD tie condition).
        let mut rng = StdRng::seed_from_u64(23);
        let x = vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(2)];
        let dom = Domain::continuous(0.0, 1.0);
        let y = generate_od_column(&x, &dom, OrderDirection::Ascending, 4, &mut rng);
        assert_eq!(y[0], y[1]);
        assert_eq!(y[2], y[3]);
    }

    #[test]
    fn od_empty_categorical_domain() {
        let mut rng = StdRng::seed_from_u64(24);
        let x = vec![Value::Int(1)];
        let y = generate_od_column(
            &x,
            &Domain::Categorical(vec![]),
            OrderDirection::Ascending,
            1,
            &mut rng,
        );
        assert_eq!(y, vec![Value::Null]);
    }

    #[test]
    fn dd_generation_satisfies_dd() {
        let mut rng = StdRng::seed_from_u64(25);
        let x: Vec<Value> = (0..200)
            .map(|_| Value::Float(rng.gen_range(0.0..100.0)))
            .collect();
        let dom = Domain::continuous(0.0, 10.0);
        let y = generate_dd_column(&x, &dom, 2.0, 1.5, 200, &mut rng);
        let r = rel(Attribute::continuous("x"), x, Attribute::continuous("y"), y);
        assert!(DifferentialDep::new(0, 1, 2.0, 1.5).holds(&r).unwrap());
        // Values stay inside the domain.
        for v in r.column(1).unwrap().iter() {
            let f = v.as_f64().unwrap();
            assert!((0.0..=10.0).contains(&f));
        }
    }

    #[test]
    fn dd_tight_delta_still_valid() {
        // δ = 0: all ε-close values must be exactly equal.
        let mut rng = StdRng::seed_from_u64(26);
        let x: Vec<Value> = (0..50).map(|i| Value::Float(i as f64 * 0.1)).collect();
        let dom = Domain::continuous(0.0, 1.0);
        let y = generate_dd_column(&x, &dom, 0.5, 0.0, 50, &mut rng);
        let r = rel(Attribute::continuous("x"), x, Attribute::continuous("y"), y);
        assert!(DifferentialDep::new(0, 1, 0.5, 0.0).holds(&r).unwrap());
    }

    #[test]
    fn dd_with_nulls_in_lhs() {
        let mut rng = StdRng::seed_from_u64(27);
        let x = vec![
            Value::Float(1.0),
            Value::Null,
            Value::Float(1.5),
            Value::Null,
        ];
        let dom = Domain::continuous(0.0, 4.0);
        let y = generate_dd_column(&x, &dom, 1.0, 0.5, 4, &mut rng);
        assert_eq!(y.len(), 4);
        assert!(y.iter().all(|v| !v.is_null()));
        let r = rel(Attribute::continuous("x"), x, Attribute::continuous("y"), y);
        assert!(DifferentialDep::new(0, 1, 1.0, 0.5).holds(&r).unwrap());
    }

    #[test]
    fn dd_categorical_domain_falls_back() {
        let mut rng = StdRng::seed_from_u64(28);
        let x = vec![Value::Float(0.0), Value::Float(0.1)];
        let dom = Domain::categorical(vec!["a", "b"]);
        let y = generate_dd_column(&x, &dom, 1.0, 0.5, 2, &mut rng);
        assert!(y.iter().all(|v| dom.contains(v)));
    }
}
