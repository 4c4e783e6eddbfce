//! Pairwise order-dependency discovery (§IV-C), and the order pass it
//! shares with OFD discovery (§IV-E).
//!
//! The paper's order dependencies are between attribute pairs, so discovery
//! checks every ordered pair `(X, Y)` for the ascending and descending
//! variants. Constant columns are excluded by default: an OD onto a
//! constant attribute holds vacuously and carries no structure.
//!
//! Every column is ranked once ([`Ranks`]); one [`sweep`] of each pair's
//! ranks then decides its two ODs and its OFD together ([`OrderPass`]).

use crate::engine::DiscoveryContext;
use crate::rank::Ranks;
use mp_metadata::{OrderDep, OrderDirection, OrderedFd};
use mp_relation::{Relation, Result};

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

/// Which order relations between X and Y one [`sweep`] found to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Orders {
    /// The ascending OD `X ≤ → Y ≤`.
    pub ascending: bool,
    /// The descending OD `X ≤ → Y ≥` (only when asked for).
    pub descending: bool,
    /// The OFD `X → Y`: the ascending OD with a strict `<` on Y across
    /// distinct X values.
    pub strict: bool,
}

/// One pass of Y's ranks along X's non-null rows in rank order (`order`,
/// from [`Ranks::order`]), skipping rows whose Y is null. Consecutive rows
/// suffice: X-ties must be Y-ties, and otherwise Y must not fall
/// (ascending), not rise (descending), or strictly rise (strict). The
/// pass stops once neither OD can hold; `strict` implies `ascending`.
pub(crate) fn sweep(xs: &[u32], order: &[u32], ys: &[u32], descending: bool) -> Orders {
    let mut o = Orders {
        ascending: true,
        descending,
        strict: true,
    };
    // Non-null ranks start at 1, so rank 0 marks "no row yet".
    let (mut px, mut py) = (0, 0);
    for &r in order {
        let (x, y) = (xs[r as usize], ys[r as usize]);
        if y == 0 {
            continue;
        }
        if px == x {
            if py != y {
                return Orders {
                    ascending: false,
                    descending: false,
                    strict: false,
                };
            }
        } else if px != 0 {
            if py > y {
                o.ascending = false;
            }
            if py < y {
                o.descending = false;
            }
            if py >= y {
                o.strict = false;
            }
            if !o.ascending && !o.descending {
                break;
            }
        }
        (px, py) = (x, y);
    }
    o
}

/// The [`Orders`] of every ordered pair of columns that `config`'s
/// constant exclusion keeps: what the OD and OFD views read.
pub(crate) struct OrderPass {
    /// Per column: at most one distinct non-null value.
    constant: Vec<bool>,
    /// `(lhs, rhs, orders)` in `(lhs, rhs)` order.
    pairs: Vec<(usize, usize, Orders)>,
}

impl OrderPass {
    /// Ranks every column once, then sweeps every kept pair.
    ///
    /// The determinants fan out on the context's thread budget. A task
    /// builds its determinant's row order and drops it when it ends, so
    /// the pass holds the ranks (`m × n × 4` bytes) and one order per
    /// worker. Results merge in determinant order, so the output is the
    /// same at every thread count.
    pub(crate) fn run(ctx: &DiscoveryContext<'_>, config: &OdConfig) -> Result<OrderPass> {
        let relation = ctx.relation();
        let m = relation.arity();
        let ranks = ctx
            .par_map((0..m).collect(), |c| relation.column(c).map(Ranks::of))
            .into_iter()
            .collect::<Result<Vec<Ranks>>>()?;
        let constant: Vec<bool> = ranks.iter().map(Ranks::is_constant).collect();
        let kept = |c: usize| !(config.exclude_constant && constant[c]);
        let per_lhs = ctx.par_map((0..m).filter(|&c| kept(c)).collect(), |lhs| {
            let xs = ranks[lhs].ranks();
            let order = ranks[lhs].order();
            (0..m)
                .filter(|&rhs| rhs != lhs && kept(rhs))
                .map(|rhs| {
                    let ys = ranks[rhs].ranks();
                    (lhs, rhs, sweep(xs, &order, ys, config.include_descending))
                })
                .collect::<Vec<_>>()
        });
        Ok(OrderPass {
            constant,
            pairs: per_lhs.into_iter().flatten().collect(),
        })
    }

    /// The ODs that hold: a pair's ascending one, then its descending one
    /// (when the pass looked for descending ODs).
    pub(crate) fn ods(&self) -> Vec<OrderDep> {
        let mut out = Vec::new();
        for &(lhs, rhs, orders) in &self.pairs {
            if orders.ascending {
                out.push(OrderDep::ascending(lhs, rhs));
            }
            if orders.descending {
                out.push(OrderDep::descending(lhs, rhs));
            }
        }
        out
    }

    /// The OFDs that hold, without those whose pair touches a constant
    /// column when `exclude_constant`.
    pub(crate) fn ofds(&self, exclude_constant: bool) -> Vec<OrderedFd> {
        let excluded = |c: usize| exclude_constant && self.constant[c];
        self.pairs
            .iter()
            .filter(|&&(lhs, rhs, orders)| orders.strict && !excluded(lhs) && !excluded(rhs))
            .map(|&(lhs, rhs, _)| OrderedFd::new(lhs, rhs))
            .collect()
    }
}

/// Discovers all pairwise order dependencies of the context's relation.
///
/// The validation semantics are exactly [`OrderDep::holds`]: tuples with a
/// null on either side are skipped, X-ties must be Y-ties, and Y must be
/// monotone in the direction of the dependency. When a pair satisfies both
/// directions (possible only if Y is constant across distinct X values,
/// which `exclude_constant` usually rules out), both are returned.
///
/// A view of one order pass (`OrderPass`), so the output is identical to the
/// sequential scan at every thread count.
pub fn discover_ods_with(ctx: &DiscoveryContext<'_>, config: &OdConfig) -> Result<Vec<OrderDep>> {
    Ok(OrderPass::run(ctx, config)?.ods())
}

/// The minimum number of tuples to delete so the OD holds — the `g3`
/// analogue for order dependencies — and the number of tuples it is
/// counted over. Those are X's non-null rows in rank order (`order`,
/// ties in row order) whose Y is non-null; the longest subsequence of
/// their Y ranks that is non-decreasing (non-increasing for a descending
/// OD) is kept.
fn od_violations(order: &[u32], ys: &[u32], direction: OrderDirection) -> (usize, usize) {
    let rev = direction == OrderDirection::Descending;
    // tails[k] = smallest possible tail of a monotone subsequence of
    // length k+1 (for non-decreasing; mirrored for non-increasing), so
    // patience sorting finds the longest in O(n log n).
    let mut tails: Vec<u32> = Vec::new();
    let mut pairs = 0;
    for y in order.iter().map(|&r| ys[r as usize]).filter(|&y| y != 0) {
        pairs += 1;
        let pos = tails.partition_point(|&t| {
            if rev {
                t >= y // non-increasing: extendable while tail ≥ y
            } else {
                t <= y // non-decreasing: extendable while tail ≤ y
            }
        });
        if pos == tails.len() {
            tails.push(y);
        } else {
            tails[pos] = y;
        }
    }
    (pairs - tails.len(), pairs)
}

/// Discovers *approximate* order dependencies: pairs whose OD error
/// (violations over non-null pairs, 0 iff the OD holds up to the deletion
/// metric) is within `threshold` but that do not hold exactly. Mirrors the
/// AFD relaxation of FDs (§IV-A) for the order class.
///
/// Each column is ranked once. An OD that holds exactly has no
/// violations, so the error's `> 0` test leaves out the exact ones.
pub fn discover_approx_ods(
    relation: &Relation,
    threshold: f64,
    config: &OdConfig,
) -> Result<Vec<(OrderDep, f64)>> {
    let ranks = (0..relation.arity())
        .map(|c| relation.column(c).map(Ranks::of))
        .collect::<Result<Vec<Ranks>>>()?;
    let mut out = Vec::new();
    for (lhs, x) in ranks.iter().enumerate() {
        let order = x.order();
        for (rhs, y) in ranks.iter().enumerate().filter(|&(rhs, _)| rhs != lhs) {
            let mut candidates = vec![OrderDep::ascending(lhs, rhs)];
            if config.include_descending {
                candidates.push(OrderDep::descending(lhs, rhs));
            }
            for od in candidates {
                let (violations, pairs) = od_violations(&order, y.ranks(), od.direction);
                if pairs == 0 {
                    continue;
                }
                let err = violations as f64 / pairs as f64;
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
    use crate::engine::ParallelConfig;
    use crate::relations::relation_where;
    use mp_datasets::{echocardiogram, employee};
    use mp_relation::{Attribute, Column, Schema, ValueRef};
    use proptest::prelude::*;

    /// OD discovery over a fresh context with the default budget.
    fn ods_of(relation: &Relation, config: &OdConfig) -> Vec<OrderDep> {
        let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
        discover_ods_with(&ctx, config).unwrap()
    }

    /// `od`'s minimum deletions, from the ranks of its two columns.
    fn od_violations(relation: &Relation, od: &OrderDep) -> Result<usize> {
        let x = Ranks::of(relation.column(od.lhs)?);
        let y = Ranks::of(relation.column(od.rhs)?);
        Ok(super::od_violations(&x.order(), y.ranks(), od.direction).0)
    }

    /// `od`'s approximate-OD error: violations over non-null pairs.
    fn od_error(relation: &Relation, od: &OrderDep) -> Result<f64> {
        let x = Ranks::of(relation.column(od.lhs)?);
        let y = Ranks::of(relation.column(od.rhs)?);
        let (violations, pairs) = super::od_violations(&x.order(), y.ranks(), od.direction);
        Ok(if pairs == 0 {
            0.0
        } else {
            violations as f64 / pairs as f64
        })
    }

    // ---- the reference: the ValueRef sort and sweep the ranks replaced ----

    /// `true` when `col` holds at most one distinct value over its
    /// non-null rows.
    fn non_null_constant(relation: &Relation, col: usize) -> Result<bool> {
        let column = relation.column(col)?;
        let mut non_null = column.iter().filter(|v| !v.is_null());
        let Some(first) = non_null.next() else {
            return Ok(true);
        };
        Ok(non_null.all(|v| v == first))
    }

    /// The non-null rows of `xs` sorted by value (row order on ties).
    fn sorted_non_null(xs: &Column) -> Vec<usize> {
        let mut order: Vec<usize> = (0..xs.len()).filter(|&r| !xs.is_null(r)).collect();
        order.sort_by(|&a, &b| xs.value_ref(a).cmp(&xs.value_ref(b)));
        order
    }

    /// [`sweep`] over boxed cells: Y along X's [`sorted_non_null`] rows.
    fn value_sweep(xs: &Column, order: &[usize], ys: &Column, descending: bool) -> Orders {
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

    /// Every pair `config`'s constant exclusion keeps, with its
    /// [`value_sweep`] orders, in `(lhs, rhs)` order.
    fn reference_pairs(r: &Relation, config: &OdConfig) -> Vec<(usize, usize, Orders)> {
        let kept = |c: usize| !(config.exclude_constant && non_null_constant(r, c).unwrap());
        let mut out = Vec::new();
        for lhs in (0..r.arity()).filter(|&c| kept(c)) {
            let xs = r.column(lhs).unwrap();
            let order = sorted_non_null(xs);
            for rhs in (0..r.arity()).filter(|&c| c != lhs && kept(c)) {
                let ys = r.column(rhs).unwrap();
                out.push((
                    lhs,
                    rhs,
                    value_sweep(xs, &order, ys, config.include_descending),
                ));
            }
        }
        out
    }

    /// The approximate ODs by the boxed path: non-null `(x, y)` pairs
    /// stably sorted by X, then the longest monotone run of Y values.
    fn reference_approx_ods(
        r: &Relation,
        threshold: f64,
        config: &OdConfig,
    ) -> Vec<(OrderDep, f64)> {
        let longest = |seq: &[ValueRef<'_>], rev: bool| {
            let mut tails: Vec<ValueRef<'_>> = Vec::new();
            for &v in seq {
                let pos = tails.partition_point(|&t| if rev { t >= v } else { t <= v });
                if pos == tails.len() {
                    tails.push(v);
                } else {
                    tails[pos] = v;
                }
            }
            tails.len()
        };
        let exact = ods_of(r, config);
        let mut out = Vec::new();
        for lhs in 0..r.arity() {
            for rhs in (0..r.arity()).filter(|&c| c != lhs) {
                let (xs, ys) = (r.column(lhs).unwrap(), r.column(rhs).unwrap());
                let mut pairs: Vec<(ValueRef<'_>, ValueRef<'_>)> = xs
                    .iter()
                    .zip(ys.iter())
                    .filter(|(x, y)| !x.is_null() && !y.is_null())
                    .collect();
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                let seq: Vec<ValueRef<'_>> = pairs.iter().map(|&(_, y)| y).collect();
                let mut candidates = vec![OrderDep::ascending(lhs, rhs)];
                if config.include_descending {
                    candidates.push(OrderDep::descending(lhs, rhs));
                }
                for od in candidates {
                    if exact.contains(&od) || seq.is_empty() {
                        continue;
                    }
                    let rev = od.direction == OrderDirection::Descending;
                    let err = (seq.len() - longest(&seq, rev)) as f64 / seq.len() as f64;
                    if err > 0.0 && err <= threshold {
                        out.push((od, err));
                    }
                }
            }
        }
        out
    }

    fn configs() -> [OdConfig; 4] {
        [(true, true), (true, false), (false, true), (false, false)].map(
            |(exclude_constant, include_descending)| OdConfig {
                exclude_constant,
                include_descending,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The rank sweep decides every pair as the `ValueRef` sweep did,
        /// at every thread count.
        #[test]
        fn rank_sweeps_equal_value_sweeps(r in relation_where(any::<bool>())) {
            for config in configs() {
                let reference = reference_pairs(&r, &config);
                for threads in [1, 2, 4] {
                    let parallel = ParallelConfig { threads, ..ParallelConfig::default() };
                    let ctx = DiscoveryContext::new(&r, parallel);
                    let pass = OrderPass::run(&ctx, &config).unwrap();
                    prop_assert_eq!(&pass.pairs, &reference, "{} threads, {:?}", threads, config);
                }
            }
        }

        #[test]
        fn approx_ods_equal_the_boxed_path(r in relation_where(any::<bool>()), tenths in 0u8..=10) {
            let threshold = f64::from(tenths) / 10.0;
            for config in configs() {
                prop_assert_eq!(
                    discover_approx_ods(&r, threshold, &config).unwrap(),
                    reference_approx_ods(&r, threshold, &config)
                );
            }
        }
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
