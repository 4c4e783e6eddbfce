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

use crate::pool::{float_column, ranked_groups, uniform_real, Codomain, DomainPool, Layout};
use mp_metadata::OrderDirection;
use mp_relation::Column;
use rand::Rng;

/// Generates a dependent column under an **OD** with the given direction.
///
/// Each distinct determinant value maps to a single dependent value
/// (OD ties must be ties), and the mapping is monotone in the dependency's
/// direction. Null determinant values are treated as the smallest group
/// (consistent with [`mp_relation::Value`]'s total order).
pub fn generate_od_column<R: Rng + ?Sized>(
    lhs: &Column,
    rhs: &DomainPool,
    direction: OrderDirection,
    n: usize,
    rng: &mut R,
) -> Column {
    let (ranks, m) = ranked_groups(lhs);
    if m == 0 {
        return Column::default();
    }

    // Draw a non-decreasing sequence of m dependent images.
    let mut codomain = Codomain::new(rhs);
    let mut seq: Vec<usize> = match *rhs.layout() {
        Layout::Range { min, max } => {
            // Sorted uniform sample: y_1 ≤ … ≤ y_m partition the domain.
            let mut ys: Vec<f64> = (0..m).map(|_| rng.gen_range(min..=max)).collect();
            ys.sort_by(f64::total_cmp);
            ys.into_iter().map(|y| codomain.real(y)).collect()
        }
        Layout::Values(ref values) => {
            let mut idx: Vec<usize> = (0..m).map(|_| rng.gen_range(0..values.len())).collect();
            idx.sort_unstable();
            idx
        }
        Layout::Empty => vec![0; m],
    };
    if direction == OrderDirection::Descending {
        seq.reverse();
    }
    let rows: Vec<usize> = ranks[..n].iter().map(|&g| seq[g as usize]).collect();
    codomain.column(&rows)
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
    lhs: &Column,
    rhs: &DomainPool,
    eps: f64,
    delta: f64,
    n: usize,
    rng: &mut R,
) -> Column {
    let Layout::Range {
        min: dom_min,
        max: dom_max,
    } = *rhs.layout()
    else {
        // A DD's dependent attribute is continuous by definition; for a
        // categorical domain fall back to unconstrained uniform draws.
        return rhs.sample(n, rng);
    };

    // Sort row indices by the numeric determinant; non-numeric rows last.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| match (lhs.f64_at(a), lhs.f64_at(b)) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.cmp(&b),
    });

    let mut out = vec![0.0; n];
    // (x, y) pairs of the current ε-window, in ascending x.
    let mut window: Vec<(f64, f64)> = Vec::new();
    for &r in &order {
        let Some(x) = lhs.f64_at(r) else {
            out[r] = uniform_real(dom_min, dom_max, rng);
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
        out[r] = y;
    }
    float_column(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{cycle, rel};
    use mp_metadata::{DifferentialDep, OrderDep};
    use mp_relation::{Domain, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn od_generation_is_monotone_and_functional() {
        let mut rng = StdRng::seed_from_u64(20);
        for (dom, continuous) in [
            (Domain::continuous(0.0, 50.0), true),
            (Domain::categorical((0i64..25).collect::<Vec<_>>()), false),
            (Domain::categorical(vec!["a", "b", "c"]), false),
        ] {
            for (direction, od) in [
                (OrderDirection::Ascending, OrderDep::ascending(0, 1)),
                (OrderDirection::Descending, OrderDep::descending(0, 1)),
            ] {
                let x = cycle(90, 9);
                let y = generate_od_column(&x, &DomainPool::new(&dom), direction, 90, &mut rng);
                assert!((0..90).all(|i| dom.contains(&y.value(i))));
                assert!(
                    (0..81).all(|i| y.value_ref(i) == y.value_ref(i + 9)),
                    "ties"
                );
                let r = rel(vec![("x", false, x), ("y", continuous, y)]);
                assert!(od.holds(&r).unwrap(), "{dom} {direction:?}");
            }
        }
        let empty = DomainPool::new(&Domain::Categorical(vec![]));
        let y = generate_od_column(&cycle(1, 1), &empty, OrderDirection::Ascending, 1, &mut rng);
        assert_eq!(y.value(0), Value::Null);
    }

    #[test]
    fn dd_generation_satisfies_dd() {
        let mut rng = StdRng::seed_from_u64(25);
        let dom = DomainPool::new(&Domain::continuous(0.0, 10.0));
        let x: Column = (0..200)
            .map(|_| Value::Float(rng.gen_range(0.0..100.0)))
            .collect();
        for (eps, delta) in [(2.0, 1.5), (0.5, 0.0)] {
            let y = generate_dd_column(&x, &dom, eps, delta, 200, &mut rng);
            assert!((0..200).all(|i| (0.0..=10.0).contains(&y.f64_at(i).unwrap())));
            let r = rel(vec![("x", true, x.clone()), ("y", true, y)]);
            assert!(DifferentialDep::new(0, 1, eps, delta).holds(&r).unwrap());
        }
        // Null determinants draw freely; a categorical codomain falls back.
        let x: Column = [
            Value::Float(1.0),
            Value::Null,
            Value::Float(1.5),
            Value::Null,
        ]
        .into_iter()
        .collect();
        let y = generate_dd_column(&x, &dom, 1.0, 0.5, 4, &mut rng);
        assert_eq!(y.null_count(), 0);
        let r = rel(vec![("x", true, x.clone()), ("y", true, y)]);
        assert!(DifferentialDep::new(0, 1, 1.0, 0.5).holds(&r).unwrap());
        let labels = Domain::categorical(vec!["a", "b"]);
        let y = generate_dd_column(&x, &DomainPool::new(&labels), 1.0, 0.5, 4, &mut rng);
        assert!((0..4).all(|i| labels.contains(&y.value(i))));
    }
}
