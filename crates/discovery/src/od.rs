//! Pairwise order-dependency discovery (§IV-C).
//!
//! The paper's order dependencies are between attribute pairs, so discovery
//! checks every ordered pair `(X, Y)` for the ascending and descending
//! variants. Constant columns are excluded by default: an OD onto a
//! constant attribute holds vacuously and carries no structure.

use crate::engine::{DiscoveryContext, ParallelConfig};
use mp_metadata::{OrderDep, OrderDirection};
use mp_relation::{Column, Relation, Result, ValueRef};

/// Options for OD discovery.
#[derive(Debug, Clone)]
pub struct OdConfig {
    /// Skip ODs whose RHS (or LHS) column is constant on non-null rows.
    pub exclude_constant: bool,
    /// Also search for descending ODs.
    pub include_descending: bool,
}

impl Default for OdConfig {
    fn default() -> Self {
        Self {
            exclude_constant: true,
            include_descending: true,
        }
    }
}

/// `true` when `col` holds at most one distinct value over its non-null
/// rows (the constant-column exclusion of the OD and OFD passes).
pub(crate) fn non_null_constant(relation: &Relation, col: usize) -> Result<bool> {
    let column = relation.column(col)?;
    let mut non_null = column.iter().filter(|v| !v.is_null());
    let Some(first) = non_null.next() else {
        return Ok(true);
    };
    Ok(non_null.all(|v| v == first))
}

/// The non-null rows of `xs` sorted by value (row order on ties).
pub(crate) fn sorted_non_null(xs: &Column) -> Vec<usize> {
    let mut order: Vec<usize> = (0..xs.len()).filter(|&r| !xs.is_null(r)).collect();
    order.sort_by(|&a, &b| xs.value_ref(a).cmp(&xs.value_ref(b)));
    order
}

/// Which order relations between X and Y one [`sweep`] found to hold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Orders {
    /// The ascending OD `X ≤ → Y ≤`.
    pub ascending: bool,
    /// The descending OD `X ≤ → Y ≥` (only when asked for).
    pub descending: bool,
    /// The OFD `X → Y`: the ascending OD with a strict `<` on Y across
    /// distinct X values.
    pub strict: bool,
}

/// One pass of Y along X's sorted non-null rows (`order`, from
/// [`sorted_non_null`]), skipping rows whose Y is null. Consecutive rows
/// suffice: X-ties must be Y-ties, and otherwise Y must not fall
/// (ascending), not rise (descending), or strictly rise (strict). The
/// pass stops once neither OD can hold; `strict` implies `ascending`.
pub(crate) fn sweep(xs: &Column, order: &[usize], ys: &Column, descending: bool) -> Orders {
    let mut o = Orders {
        ascending: true,
        descending,
        strict: true,
    };
    let mut prev: Option<(ValueRef<'_>, ValueRef<'_>)> = None;
    for &r in order {
        if ys.is_null(r) {
            continue;
        }
        let (x, y) = (xs.value_ref(r), ys.value_ref(r));
        if let Some((px, py)) = prev {
            if px == x {
                if py != y {
                    o = Orders {
                        ascending: false,
                        descending: false,
                        strict: false,
                    };
                }
            } else {
                if py > y {
                    o.ascending = false;
                }
                if py < y {
                    o.descending = false;
                }
                if py >= y {
                    o.strict = false;
                }
            }
            if !o.ascending && !o.descending {
                break;
            }
        }
        prev = Some((x, y));
    }
    o
}

/// Discovers all pairwise order dependencies of the context's relation.
///
/// The validation semantics are exactly [`OrderDep::holds`]: tuples with a
/// null on either side are skipped, X-ties must be Y-ties, and Y must be
/// monotone in the direction of the dependency. When a pair satisfies both
/// directions (possible only if Y is constant across distinct X values,
/// which `exclude_constant` usually rules out), both are returned.
///
/// The candidate set fans out over determinants on the context's thread
/// budget (each determinant's column sort and RHS sweeps are
/// independent), and results are merged in determinant order, so the
/// output is identical to the sequential scan.
pub fn discover_ods_with(ctx: &DiscoveryContext<'_>, config: &OdConfig) -> Result<Vec<OrderDep>> {
    let relation = ctx.relation();
    let m = relation.arity();
    let mut constant = vec![false; m];
    for (c, flag) in constant.iter_mut().enumerate() {
        *flag = non_null_constant(relation, c)?;
    }

    let per_lhs: Vec<Result<Vec<OrderDep>>> = ctx.par_map((0..m).collect(), |lhs| {
        let mut out = Vec::new();
        if config.exclude_constant && constant[lhs] {
            return Ok(out);
        }
        // Pre-sort the LHS once per determinant; reuse for all RHS checks.
        let xs = relation.column(lhs)?;
        let order = sorted_non_null(xs);
        for (rhs, &rhs_constant) in constant.iter().enumerate() {
            if rhs == lhs || (config.exclude_constant && rhs_constant) {
                continue;
            }
            let orders = sweep(xs, &order, relation.column(rhs)?, config.include_descending);
            if orders.ascending {
                out.push(OrderDep::ascending(lhs, rhs));
            }
            if orders.descending {
                out.push(OrderDep::descending(lhs, rhs));
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

/// The minimum number of tuples to delete so the OD holds — the `g3`
/// analogue for order dependencies, computed as (non-null pairs) minus the
/// longest subsequence that is order-compatible (non-decreasing Y along
/// ascending X with ties consistent). Exposed for approximate-OD
/// discovery.
pub(crate) fn od_violations(relation: &Relation, od: &OrderDep) -> Result<usize> {
    let xs = relation.column(od.lhs)?;
    let ys = relation.column(od.rhs)?;
    // Collect non-null pairs sorted by X (stable, so equal X keeps row
    // order; we then require Y non-decreasing overall, which subsumes the
    // tie condition up to the deletion metric).
    let mut pairs: Vec<(ValueRef<'_>, ValueRef<'_>)> = xs
        .iter()
        .zip(ys.iter())
        .filter(|(x, y)| !x.is_null() && !y.is_null())
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let seq: Vec<ValueRef<'_>> = pairs
        .iter()
        .map(|(_, y)| match od.direction {
            OrderDirection::Ascending => *y,
            OrderDirection::Descending => *y,
        })
        .collect();
    // Longest non-decreasing (or non-increasing) subsequence length via
    // patience sorting, O(n log n).
    let keep = match od.direction {
        OrderDirection::Ascending => longest_monotone(&seq, false),
        OrderDirection::Descending => longest_monotone(&seq, true),
    };
    Ok(seq.len() - keep)
}

/// Length of the longest non-decreasing (or non-increasing when `rev`)
/// subsequence.
fn longest_monotone(seq: &[ValueRef<'_>], rev: bool) -> usize {
    // tails[k] = smallest possible tail of a monotone subsequence of
    // length k+1 (for non-decreasing; mirrored for non-increasing).
    let mut tails: Vec<ValueRef<'_>> = Vec::new();
    for &v in seq {
        let pos = tails.partition_point(|&t| {
            if rev {
                t >= v // non-increasing: extendable while tail ≥ v
            } else {
                t <= v // non-decreasing: extendable while tail ≤ v
            }
        });
        if pos == tails.len() {
            tails.push(v);
        } else {
            tails[pos] = v;
        }
    }
    tails.len()
}

/// The approximate-OD error: `od_violations / non-null pairs` (0 iff the
/// OD holds up to the deletion metric).
pub(crate) fn od_error(relation: &Relation, od: &OrderDep) -> Result<f64> {
    let n = relation
        .column(od.lhs)?
        .iter()
        .zip(relation.column(od.rhs)?.iter())
        .filter(|(x, y)| !x.is_null() && !y.is_null())
        .count();
    if n == 0 {
        return Ok(0.0);
    }
    Ok(od_violations(relation, od)? as f64 / n as f64)
}

/// Discovers *approximate* order dependencies: pairs whose OD error is
/// within `threshold` but that do not hold exactly. Mirrors the AFD
/// relaxation of FDs (§IV-A) for the order class.
pub fn discover_approx_ods(
    relation: &Relation,
    threshold: f64,
    config: &OdConfig,
) -> Result<Vec<(OrderDep, f64)>> {
    let exact = discover_ods_with(
        &DiscoveryContext::new(relation, ParallelConfig::default()),
        config,
    )?;
    let m = relation.arity();
    let mut out = Vec::new();
    for lhs in 0..m {
        for rhs in 0..m {
            if lhs == rhs {
                continue;
            }
            let mut candidates = vec![OrderDep::ascending(lhs, rhs)];
            if config.include_descending {
                candidates.push(OrderDep::descending(lhs, rhs));
            }
            for od in candidates {
                if exact.contains(&od) {
                    continue;
                }
                let err = od_error(relation, &od)?;
                if err > 0.0 && err <= threshold {
                    out.push((od, err));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::{echocardiogram, employee};
    use mp_relation::{Attribute, Schema};

    /// OD discovery over a fresh context with the default budget.
    fn ods_of(relation: &Relation, config: &OdConfig) -> Vec<OrderDep> {
        let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
        discover_ods_with(&ctx, config).unwrap()
    }

    #[test]
    fn employee_ods() {
        let ods = ods_of(&employee(), &OdConfig::default());
        // Salary ≤ → Age ≤ (salaries unique, ages monotone).
        assert!(ods.contains(&OrderDep::ascending(3, 1)));
        // Age does not order salary (ties on 22 break it).
        assert!(!ods.contains(&OrderDep::ascending(1, 3)));
        // Every discovered OD must hold by the exact semantics.
        for od in &ods {
            assert!(od.holds(&employee()).unwrap(), "{od:?}");
        }
    }

    #[test]
    fn echocardiogram_planted_ods_found() {
        use mp_datasets::echocardiogram::attrs::*;
        let r = echocardiogram();
        let ods = ods_of(&r, &OdConfig::default());
        for (l, rr) in [
            (AGE, GROUP),
            (WALL_MOTION_SCORE, WALL_MOTION_INDEX),
            (LVDD, EPSS),
            (FRACTIONAL_SHORTENING, MULT),
            (SURVIVAL, STILL_ALIVE),
        ] {
            assert!(
                ods.contains(&OrderDep::ascending(l, rr)),
                "expected OD {l} -> {rr}"
            );
        }
    }

    #[test]
    fn descending_found() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![1.0.into(), 9.0.into()],
                vec![2.0.into(), 5.0.into()],
                vec![3.0.into(), 1.0.into()],
            ],
        )
        .unwrap();
        let ods = ods_of(&r, &OdConfig::default());
        assert!(ods.contains(&OrderDep::descending(0, 1)));
        assert!(!ods.contains(&OrderDep::ascending(0, 1)));

        let no_desc = ods_of(
            &r,
            &OdConfig {
                include_descending: false,
                ..Default::default()
            },
        );
        assert!(no_desc.iter().all(|od| od.lhs != 0 || od.rhs != 1));
    }

    #[test]
    fn constant_columns_excluded_by_default() {
        let schema = Schema::new(vec![
            Attribute::continuous("x"),
            Attribute::categorical("c"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![vec![1.0.into(), "k".into()], vec![2.0.into(), "k".into()]],
        )
        .unwrap();
        assert!(ods_of(&r, &OdConfig::default()).is_empty());
        let with_const = ods_of(
            &r,
            &OdConfig {
                exclude_constant: false,
                ..Default::default()
            },
        );
        assert!(with_const.contains(&OrderDep::ascending(0, 1)));
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        let r = Relation::empty(schema);
        assert!(ods_of(&r, &OdConfig::default()).is_empty());
    }

    #[test]
    fn discovery_agrees_with_holds_semantics() {
        // Cross-check the incremental single-pass check against the
        // definition-level validator on a relation with nulls and ties.
        let out = mp_datasets::all_classes_spec(120, 33).generate().unwrap();
        let r = &out.relation;
        let ods = ods_of(r, &OdConfig::default());
        for lhs in 0..r.arity() {
            for rhs in 0..r.arity() {
                if lhs == rhs {
                    continue;
                }
                for od in [
                    OrderDep::ascending(lhs, rhs),
                    OrderDep::descending(lhs, rhs),
                ] {
                    let found = ods.contains(&od);
                    let holds = od.holds(r).unwrap();
                    if found {
                        assert!(holds, "discovered OD must hold: {od:?}");
                    }
                    // `holds` without `found` is possible only via the
                    // constant-column exclusion.
                    if holds && !found {
                        let c_l = non_null_constant(r, lhs).unwrap();
                        let c_r = non_null_constant(r, rhs).unwrap();
                        assert!(c_l || c_r, "missed OD {od:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn od_violations_counts_minimum_deletions() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        // Sorted by x, y = 1, 2, 9, 3, 4: delete the single 9 → holds.
        let r = Relation::from_rows(
            schema,
            vec![
                vec![1.0.into(), 1.0.into()],
                vec![2.0.into(), 2.0.into()],
                vec![3.0.into(), 9.0.into()],
                vec![4.0.into(), 3.0.into()],
                vec![5.0.into(), 4.0.into()],
            ],
        )
        .unwrap();
        let od = OrderDep::ascending(0, 1);
        assert_eq!(od_violations(&r, &od).unwrap(), 1);
        assert!((od_error(&r, &od).unwrap() - 0.2).abs() < 1e-12);
        // Exact OD fails, approximate at 20% succeeds.
        assert!(!od.holds(&r).unwrap());
        let approx = discover_approx_ods(&r, 0.2, &OdConfig::default()).unwrap();
        assert!(approx
            .iter()
            .any(|(d, e)| *d == od && (*e - 0.2).abs() < 1e-12));
        // Tighter threshold excludes it.
        let none = discover_approx_ods(&r, 0.1, &OdConfig::default()).unwrap();
        assert!(!none.iter().any(|(d, _)| *d == od));
    }

    #[test]
    fn od_violations_zero_for_exact_ods() {
        let r = employee();
        let od = OrderDep::ascending(3, 1);
        assert!(od.holds(&r).unwrap());
        assert_eq!(od_violations(&r, &od).unwrap(), 0);
    }

    #[test]
    fn descending_violations() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![1.0.into(), 9.0.into()],
                vec![2.0.into(), 10.0.into()], // the one ascent
                vec![3.0.into(), 5.0.into()],
                vec![4.0.into(), 1.0.into()],
            ],
        )
        .unwrap();
        let od = OrderDep::descending(0, 1);
        assert_eq!(od_violations(&r, &od).unwrap(), 1);
    }

    #[test]
    fn approx_discovery_excludes_exact_ods() {
        let r = echocardiogram();
        let exact = ods_of(&r, &OdConfig::default());
        let approx = discover_approx_ods(&r, 0.1, &OdConfig::default()).unwrap();
        for (od, err) in &approx {
            assert!(!exact.contains(od), "{od:?} is exact");
            assert!(*err > 0.0 && *err <= 0.1);
        }
    }
}
