//! Pairwise differential-dependency discovery (§IV-D).
//!
//! Given a closeness threshold `ε_X` on the source attribute (expressed as
//! a fraction of its range), the tightest implied threshold `δ_Y` is the
//! maximum `|Δy|` over all tuple pairs with `|Δx| ≤ ε_X`. The DD
//! `X (ε) → Y (δ)` is informative only when `δ_Y` is substantially smaller
//! than Y's range — otherwise the "dependency" says nothing.
//!
//! Each source attribute is sorted once (`O(n log n)`); every target's
//! `δ_Y` is then one two-pointer window pass over that order (`O(n)`).

use crate::engine::{DiscoveryContext, ParallelConfig};
use mp_metadata::DifferentialDep;
use mp_relation::{AttrKind, Column, Relation, Result};
use std::collections::VecDeque;

/// Options for DD discovery.
#[derive(Debug, Clone)]
pub struct DdConfig {
    /// `ε_X` as a fraction of the source attribute's observed range.
    pub eps_fraction: f64,
    /// Keep DDs whose tight `δ_Y ≤ delta_fraction · range(Y)`.
    pub delta_fraction: f64,
}

impl Default for DdConfig {
    fn default() -> Self {
        Self {
            eps_fraction: 0.05,
            delta_fraction: 0.25,
        }
    }
}

/// The tightest `δ_Y` for the DD `lhs (eps) → rhs` on `relation`: the
/// maximum RHS gap over all ε-close LHS pairs, or `None` if fewer than two
/// non-null pairs exist.
pub fn tight_delta(relation: &Relation, lhs: usize, rhs: usize, eps: f64) -> Result<Option<f64>> {
    let xs = relation.column(lhs)?;
    let ys = relation.column(rhs)?;
    let mut pairs = Vec::new();
    pairs_in_x_order(&sorted_by_x(xs), ys, &mut pairs);
    Ok(window_delta(&pairs, eps))
}

/// `max − min` over the numeric cells of `column` (NaN ignored) when that
/// spread is positive; `None` for a column without one (no numeric cell,
/// a single value, or one repeated infinity).
pub(crate) fn positive_range(column: &Column) -> Option<f64> {
    let (lo, hi) = (0..column.len())
        .filter_map(|r| column.f64_at(r))
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    let range = hi - lo;
    (range > 0.0).then_some(range)
}

/// The rows with a numeric X, as `(x, row)` sorted by `f64::total_cmp`
/// (row order on ties, as a stable sort of the rows would give).
fn sorted_by_x(xs: &Column) -> Vec<(f64, usize)> {
    let mut sorted: Vec<(f64, usize)> = (0..xs.len())
        .filter_map(|r| Some((xs.f64_at(r)?, r)))
        .collect();
    sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    sorted
}

/// Refills `pairs` with the `(x, y)` of the rows of `sorted` whose Y is
/// numeric, in X order.
fn pairs_in_x_order(sorted: &[(f64, usize)], ys: &Column, pairs: &mut Vec<(f64, f64)>) {
    pairs.clear();
    pairs.extend(sorted.iter().filter_map(|&(x, r)| Some((x, ys.f64_at(r)?))));
}

/// The largest `|Δy|` over the ε-close pairs of `pairs` (sorted by x under
/// `total_cmp`), or `None` for fewer than two pairs.
///
/// Bit-identical to the quadratic definition — pair `i` with every
/// `j > i` up to the first `x_j − x_i > eps` — on every float input. The
/// rows ε-close to row `i` form its window `[i, reach(i))`; `reach` never
/// decreases and any two rows of one window are ε-close themselves, so
/// the largest `max y − min y` over the windows is the largest `|Δy|`
/// (rounding is monotone, so the extreme pair of a window gives its
/// spread exactly). A NaN `|Δy|` is ignored, as `f64::max` ignores it, so
/// rows with a NaN Y never enter the extremes. A row whose X is a
/// negative NaN sorts first and is ε-close to every later row (`x − NaN`
/// is NaN, which never exceeds ε) while those rows need not be close to
/// each other, so it pairs with the extremes of its suffix instead of
/// opening a window.
fn window_delta(pairs: &[(f64, f64)], eps: f64) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    // Starts at +0.0 and only moves up, so it is never −0.0 or NaN.
    let mut delta = 0.0f64;
    let mut raise = |spread: f64| {
        if spread > delta {
            delta = spread;
        }
    };

    let lead = pairs
        .iter()
        .take_while(|(x, _)| x.is_nan() && x.is_sign_negative())
        .count();
    // Extremes of the non-NaN Y over the rows after the current one.
    let mut suffix: Option<(f64, f64)> = None;
    for (i, &(_, y)) in pairs.iter().enumerate().rev() {
        if y.is_nan() {
            continue;
        }
        if let (true, Some((lo, hi))) = (i < lead, suffix) {
            raise((hi - y).abs());
            raise((y - lo).abs());
        }
        suffix = Some(match suffix {
            Some((lo, hi)) => (lo.min(y), hi.max(y)),
            None => (y, y),
        });
    }

    // Sliding window [i, end) with monotone deques of row positions whose
    // Y is not NaN: `max_q` holds decreasing Y, `min_q` increasing Y.
    let mut max_q: VecDeque<usize> = VecDeque::new();
    let mut min_q: VecDeque<usize> = VecDeque::new();
    let mut end = lead;
    for (i, &(xi, _)) in pairs.iter().enumerate().skip(lead) {
        while let Some(&(x, y)) = pairs.get(end) {
            if end > i && x - xi > eps {
                break;
            }
            if !y.is_nan() {
                while max_q.back().is_some_and(|&k| pairs[k].1 <= y) {
                    max_q.pop_back();
                }
                max_q.push_back(end);
                while min_q.back().is_some_and(|&k| pairs[k].1 >= y) {
                    min_q.pop_back();
                }
                min_q.push_back(end);
            }
            end += 1;
        }
        while max_q.front().is_some_and(|&k| k < i) {
            max_q.pop_front();
        }
        while min_q.front().is_some_and(|&k| k < i) {
            min_q.pop_front();
        }
        if let (Some(&hi), Some(&lo)) = (max_q.front(), min_q.front()) {
            raise(pairs[hi].1 - pairs[lo].1);
        }
    }
    Some(delta)
}

/// Discovers informative differential dependencies between continuous
/// attribute pairs.
pub fn discover_dds(relation: &Relation, config: &DdConfig) -> Result<Vec<DifferentialDep>> {
    let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
    discover_dds_with(&ctx, config)
}

/// [`discover_dds`] against a shared [`DiscoveryContext`]. Each source
/// attribute is sorted once (`O(n log n)`) and each target costs one
/// linear window pass over that order (`O(n)`); the source attributes fan
/// out on the context's thread budget and merge in attribute order, so
/// the output is identical to the sequential scan.
pub fn discover_dds_with(
    ctx: &DiscoveryContext<'_>,
    config: &DdConfig,
) -> Result<Vec<DifferentialDep>> {
    let relation = ctx.relation();
    let continuous = relation.schema().indices_of_kind(AttrKind::Continuous);
    // Ranges once per attribute, shared by both loop roles.
    let mut ranges: Vec<(usize, f64)> = Vec::new();
    for &c in &continuous {
        if let Some(range) = positive_range(relation.column(c)?) {
            ranges.push((c, range));
        }
    }

    let per_lhs: Vec<Result<Vec<DifferentialDep>>> =
        ctx.par_map(ranges.clone(), |(lhs, range_x)| {
            let eps = config.eps_fraction * range_x;
            let sorted = sorted_by_x(relation.column(lhs)?);
            let mut pairs = Vec::with_capacity(sorted.len());
            let mut out = Vec::new();
            for &(rhs, range_y) in &ranges {
                if lhs == rhs {
                    continue;
                }
                pairs_in_x_order(&sorted, relation.column(rhs)?, &mut pairs);
                let Some(delta) = window_delta(&pairs, eps) else {
                    continue;
                };
                if delta <= config.delta_fraction * range_y {
                    out.push(DifferentialDep::new(lhs, rhs, eps, delta));
                }
            }
            Ok(out)
        });

    let mut out = Vec::new();
    for found in per_lhs {
        out.extend(found?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::all_classes_spec;
    use mp_relation::{Attribute, Schema};

    fn xy(rows: &[(f64, f64)]) -> Relation {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        Relation::from_rows(
            schema,
            rows.iter()
                .map(|&(x, y)| vec![x.into(), y.into()])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn tight_delta_matches_definition() {
        let r = xy(&[(0.0, 0.0), (1.0, 10.0), (2.0, 11.0), (10.0, 0.0)]);
        // eps = 1.5: close pairs (0,1), (1,2) → max |Δy| = 10.
        assert_eq!(tight_delta(&r, 0, 1, 1.5).unwrap(), Some(10.0));
        // eps = 0.5: no close pairs → delta 0.
        assert_eq!(tight_delta(&r, 0, 1, 0.5).unwrap(), Some(0.0));
    }

    #[test]
    fn discovered_dds_hold_and_are_tight() {
        let out = all_classes_spec(200, 12).generate().unwrap();
        let dds = discover_dds(&out.relation, &DdConfig::default()).unwrap();
        // mono(3) is a monotone rescaling of x(2): their DD must be found
        // in both directions.
        assert!(dds.iter().any(|d| d.lhs == 2 && d.rhs == 3));
        assert!(dds.iter().any(|d| d.lhs == 3 && d.rhs == 2));
        for d in &dds {
            assert!(d.holds(&out.relation).unwrap(), "discovered DD must hold");
            // Tightness: shrinking delta below the reported value breaks it
            // (unless delta is 0, i.e. ε-close pairs agree exactly).
            if d.delta_rhs > 0.0 {
                let tighter = DifferentialDep::new(d.lhs, d.rhs, d.eps_lhs, d.delta_rhs * 0.999);
                assert!(!tighter.holds(&out.relation).unwrap());
            }
        }
    }

    #[test]
    fn uncorrelated_pair_rejected() {
        // noisy(6) has ±5 noise on a 100-range x; with delta_fraction tiny
        // the pair is not informative.
        let out = all_classes_spec(300, 13).generate().unwrap();
        let dds = discover_dds(
            &out.relation,
            &DdConfig {
                eps_fraction: 0.05,
                delta_fraction: 0.02,
            },
        )
        .unwrap();
        assert!(!dds.iter().any(|d| d.lhs == 2 && d.rhs == 6));
    }

    #[test]
    fn categorical_attributes_ignored() {
        let out = all_classes_spec(100, 14).generate().unwrap();
        let dds = discover_dds(&out.relation, &DdConfig::default()).unwrap();
        for d in &dds {
            for a in [d.lhs, d.rhs] {
                assert_eq!(
                    out.relation.schema().attribute(a).unwrap().kind,
                    AttrKind::Continuous
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let r = xy(&[(1.0, 1.0)]);
        assert_eq!(tight_delta(&r, 0, 1, 1.0).unwrap(), None);
        assert!(discover_dds(&r, &DdConfig::default()).unwrap().is_empty());

        // Constant x: zero range → skipped.
        let r = xy(&[(1.0, 1.0), (1.0, 5.0)]);
        assert!(discover_dds(&r, &DdConfig::default())
            .unwrap()
            .iter()
            .all(|d| d.lhs != 0));
    }
}
