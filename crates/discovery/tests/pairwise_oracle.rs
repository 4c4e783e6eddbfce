//! Oracle tests for the pairwise discovery passes (DD, OD, OFD, CFD, MFD).
//!
//! Each pass must reproduce — exactly, in order — what the
//! definition-level references give on the same relation: the quadratic
//! ε-pair loop for DD (kept here), and the boxed-path validators of
//! mp-metadata (`OrderDep::holds`, `OrderedFd::holds`, `Fd::holds`,
//! `MetricFd::tight_delta`) for the others. Relations mix every column
//! layout the passes read: dictionary text, `Int`, `Float`, int-flagged
//! floats, nulls, repeated values and ±0.0; DD also sees NaN of either
//! sign and ±inf, which CSV ingest rejects but relations built in code
//! can hold.

use mp_datasets::scale_relation;
use mp_discovery::{
    discover_cfds, discover_dds_with, discover_mfds, discover_ods_with, discover_ofds_with,
    tight_delta, CfdConfig, DdConfig, DependencyProfile, DiscoveryContext, MfdConfig, OdConfig,
    ParallelConfig, ProfileConfig,
};
use mp_metadata::{ConditionalFd, DifferentialDep, Fd, MetricFd, OrderDep, OrderedFd};
use mp_relation::{AttrKind, Attribute, Pli, Relation, Schema, Value};
use proptest::prelude::*;

// ---- references -----------------------------------------------------------

/// The definition of the tight δ: the largest `|Δy|` over every pair
/// `j > i` in X order up to the first `x_j − x_i > eps`, NaN gaps ignored.
fn reference_tight_delta(relation: &Relation, lhs: usize, rhs: usize, eps: f64) -> Option<f64> {
    let xs = relation.column_values(lhs).unwrap();
    let ys = relation.column_values(rhs).unwrap();
    let mut pairs: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys.iter())
        .filter_map(|(x, y)| Some((x.as_f64()?, y.as_f64()?)))
        .collect();
    if pairs.len() < 2 {
        return None;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut delta = 0.0f64;
    for i in 0..pairs.len() {
        for j in (i + 1)..pairs.len() {
            if pairs[j].0 - pairs[i].0 > eps {
                break;
            }
            delta = delta.max((pairs[j].1 - pairs[i].1).abs());
        }
    }
    Some(delta)
}

/// `max − min` over the numeric cells, `None` when there are none.
fn reference_range(relation: &Relation, col: usize) -> Option<f64> {
    let nums: Vec<f64> = relation
        .column_values(col)
        .unwrap()
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if nums.is_empty() {
        return None;
    }
    let lo = nums.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(hi - lo)
}

fn reference_dds(relation: &Relation, config: &DdConfig) -> Vec<DifferentialDep> {
    let ranges: Vec<(usize, f64)> = relation
        .schema()
        .indices_of_kind(AttrKind::Continuous)
        .into_iter()
        .filter_map(|c| Some((c, reference_range(relation, c)?)))
        .filter(|&(_, range)| range > 0.0)
        .collect();
    let mut out = Vec::new();
    for &(lhs, range_x) in &ranges {
        let eps = config.eps_fraction * range_x;
        for &(rhs, range_y) in &ranges {
            if lhs == rhs {
                continue;
            }
            let Some(delta) = reference_tight_delta(relation, lhs, rhs, eps) else {
                continue;
            };
            if delta <= config.delta_fraction * range_y {
                out.push(DifferentialDep::new(lhs, rhs, eps, delta));
            }
        }
    }
    out
}

fn constant_columns(relation: &Relation) -> Vec<bool> {
    (0..relation.arity())
        .map(|c| {
            let values = relation.column_values(c).unwrap();
            let mut non_null = values.iter().filter(|v| !v.is_null());
            match non_null.next() {
                None => true,
                Some(first) => non_null.all(|v| v == first),
            }
        })
        .collect()
}

fn reference_ods(relation: &Relation, config: &OdConfig) -> Vec<OrderDep> {
    let constant = constant_columns(relation);
    let excluded = |c: usize| config.exclude_constant && constant[c];
    let mut out = Vec::new();
    for lhs in (0..relation.arity()).filter(|&c| !excluded(c)) {
        for rhs in (0..relation.arity()).filter(|&c| c != lhs && !excluded(c)) {
            let mut candidates = vec![OrderDep::ascending(lhs, rhs)];
            if config.include_descending {
                candidates.push(OrderDep::descending(lhs, rhs));
            }
            for od in candidates {
                if od.holds(relation).unwrap() {
                    out.push(od);
                }
            }
        }
    }
    out
}

fn reference_ofds(relation: &Relation, exclude_constant: bool) -> Vec<OrderedFd> {
    let constant = constant_columns(relation);
    let excluded = |c: usize| exclude_constant && constant[c];
    let mut out = Vec::new();
    for lhs in (0..relation.arity()).filter(|&c| !excluded(c)) {
        for rhs in (0..relation.arity()).filter(|&c| c != lhs && !excluded(c)) {
            let ofd = OrderedFd::new(lhs, rhs);
            if ofd.holds(relation).unwrap() {
                out.push(ofd);
            }
        }
    }
    out
}

/// The constant clusters of every pair, filtered by `Fd::holds`.
fn reference_cfds(relation: &Relation, config: &CfdConfig) -> Vec<ConditionalFd> {
    let mut out = Vec::new();
    if relation.n_rows() == 0 {
        return out;
    }
    for lhs in 0..relation.arity() {
        let xs = relation.column_values(lhs).unwrap();
        let pli = Pli::from_column(&xs);
        for rhs in (0..relation.arity()).filter(|&c| c != lhs) {
            if config.exclude_fd_pairs && Fd::new(lhs, rhs).holds(relation).unwrap() {
                continue;
            }
            let ys = relation.column_values(rhs).unwrap();
            for cluster in pli.clusters() {
                let y = &ys[cluster[0] as usize];
                if cluster.len() >= config.min_support
                    && cluster.iter().all(|&r| &ys[r as usize] == y)
                {
                    out.push(ConditionalFd::constant(
                        lhs,
                        xs[cluster[0] as usize].clone(),
                        rhs,
                        y.clone(),
                    ));
                }
            }
        }
    }
    out
}

fn reference_mfds(relation: &Relation, config: &MfdConfig) -> Vec<MetricFd> {
    let mut out = Vec::new();
    if relation.n_rows() == 0 {
        return out;
    }
    for rhs in 0..relation.arity() {
        let nums = relation
            .column_values(rhs)
            .unwrap()
            .iter()
            .filter(|v| v.as_f64().is_some())
            .count();
        let Some(range) = reference_range(relation, rhs) else {
            continue;
        };
        if nums < 2 || range <= 0.0 {
            continue;
        }
        for lhs in (0..relation.arity()).filter(|&c| c != rhs) {
            let Some(delta) = MetricFd::tight_delta(lhs, rhs, relation).unwrap() else {
                continue;
            };
            if config.exclude_fds && delta == 0.0 {
                continue;
            }
            if delta <= config.delta_fraction * range {
                out.push(MetricFd::new(lhs, rhs, delta));
            }
        }
    }
    out
}

// ---- relations -------------------------------------------------------------

mod relations;
use relations::relation_where;

fn relation() -> impl Strategy<Value = Relation> {
    relation_where(Just(false))
}

/// A continuous `(x, y)` relation from float pairs.
fn xy(rows: &[(f64, f64)]) -> Relation {
    let schema = Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
    Relation::from_rows(
        schema,
        rows.iter()
            .map(|&(x, y)| vec![x.into(), y.into()])
            .collect(),
    )
    .unwrap()
}

fn bits(delta: Option<f64>) -> Option<u64> {
    delta.map(f64::to_bits)
}

/// `ε` values the DD kernel must get right: every configured-style
/// fraction of a range, plus the degenerate ones.
const EPS: [f64; 8] = [-1.0, 0.0, 0.25, 0.5, 3.0, 1e308, f64::INFINITY, f64::NAN];

// ---- DD --------------------------------------------------------------------

#[test]
fn leading_negative_nan_pairs_with_every_later_row_only() {
    // x − (−NaN) is NaN, never > ε: the −NaN row is ε-close to 0 and 10,
    // but 0 and 10 are not ε-close to each other, so δ is 95, not 100.
    let r = xy(&[(-f64::NAN, 5.0), (0.0, 0.0), (10.0, 100.0)]);
    assert_eq!(reference_tight_delta(&r, 0, 1, 1.0), Some(95.0));
    assert_eq!(tight_delta(&r, 0, 1, 1.0).unwrap(), Some(95.0));
}

#[test]
fn nan_spreads_are_ignored() {
    for rows in [
        [(0.0, f64::NAN), (0.5, 3.0)],
        [(0.0, f64::INFINITY), (0.5, f64::INFINITY)],
        [(0.0, -f64::NAN), (0.5, -f64::NAN)],
    ] {
        let r = xy(&rows);
        assert_eq!(bits(tight_delta(&r, 0, 1, 1.0).unwrap()), Some(0));
        assert_eq!(bits(reference_tight_delta(&r, 0, 1, 1.0)), Some(0));
    }
}

#[test]
fn negative_zero_spread_never_replaces_zero() {
    for rows in [[(0.0, -0.0), (0.5, 0.0)], [(0.0, 0.0), (0.5, -0.0)]] {
        let r = xy(&rows);
        assert_eq!(bits(tight_delta(&r, 0, 1, 1.0).unwrap()), Some(0));
    }
}

fn assert_tight_delta_matches(r: &Relation) -> Result<(), TestCaseError> {
    for lhs in 0..r.arity() {
        let range = reference_range(r, lhs).unwrap_or(0.0);
        let eps_values = EPS
            .iter()
            .copied()
            .chain([0.05 * range, 0.3 * range, range]);
        for eps in eps_values {
            for rhs in 0..r.arity() {
                prop_assert_eq!(
                    bits(tight_delta(r, lhs, rhs, eps).unwrap()),
                    bits(reference_tight_delta(r, lhs, rhs, eps)),
                    "lhs {} rhs {} eps {}",
                    lhs,
                    rhs,
                    eps
                );
            }
        }
    }
    Ok(())
}

fn dd_configs() -> [DdConfig; 4] {
    [
        DdConfig::default(),
        DdConfig {
            eps_fraction: 0.0,
            delta_fraction: 1.0,
        },
        DdConfig {
            eps_fraction: 0.4,
            delta_fraction: 0.6,
        },
        DdConfig {
            eps_fraction: 1.0,
            delta_fraction: f64::INFINITY,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dd_tight_delta_matches_quadratic_loop(r in relation()) {
        assert_tight_delta_matches(&r)?;
    }

    #[test]
    fn dd_tight_delta_matches_quadratic_loop_on_nan_and_inf(r in relation_where(Just(true))) {
        assert_tight_delta_matches(&r)?;
    }

    #[test]
    fn dd_discovery_matches_reference(r in relation_where(any::<bool>())) {
        let ctx = DiscoveryContext::new(&r, ParallelConfig::default());
        for config in dd_configs() {
            // Debug text compares NaN thresholds and the sign of zero.
            prop_assert_eq!(
                format!("{:?}", discover_dds_with(&ctx, &config).unwrap()),
                format!("{:?}", reference_dds(&r, &config))
            );
        }
    }

    // ---- OD / OFD -----------------------------------------------------------

    #[test]
    fn od_discovery_matches_holds(r in relation()) {
        let ctx = DiscoveryContext::new(&r, ParallelConfig::default());
        for exclude_constant in [true, false] {
            for include_descending in [true, false] {
                let config = OdConfig { exclude_constant, include_descending };
                prop_assert_eq!(
                    discover_ods_with(&ctx, &config).unwrap(),
                    reference_ods(&r, &config)
                );
            }
        }
    }

    #[test]
    fn ofd_discovery_matches_holds(r in relation()) {
        let ctx = DiscoveryContext::new(&r, ParallelConfig::default());
        for exclude_constant in [true, false] {
            prop_assert_eq!(
                discover_ofds_with(&ctx, exclude_constant).unwrap(),
                reference_ofds(&r, exclude_constant)
            );
        }
    }

    // ---- CFD ----------------------------------------------------------------

    #[test]
    fn cfd_discovery_matches_fd_filtered_cluster_scan(r in relation(), min_support in 1usize..5) {
        for exclude_fd_pairs in [true, false] {
            let config = CfdConfig { min_support, exclude_fd_pairs };
            prop_assert_eq!(discover_cfds(&r, &config).unwrap(), reference_cfds(&r, &config));
        }
    }

    // ---- MFD ----------------------------------------------------------------

    #[test]
    fn mfd_delta_matches_metric_fd_tight_delta(r in relation()) {
        // An unbounded fraction keeps every pair, so each δ is compared.
        let every = MfdConfig { delta_fraction: f64::INFINITY, exclude_fds: false };
        for config in [every, MfdConfig::default()] {
            prop_assert_eq!(
                format!("{:?}", discover_mfds(&r, &config).unwrap()),
                format!("{:?}", reference_mfds(&r, &config))
            );
        }
    }
}

// ---- the whole profile ----------------------------------------------------

#[test]
fn profile_on_planted_tables_equals_reference_profile() {
    let config = ProfileConfig::paper();
    for seed in [3, 17, 701] {
        let r = scale_relation(5_000, seed).unwrap().relation;
        let found = DependencyProfile::discover(&r, &config).unwrap();
        let reference = DependencyProfile {
            ods: reference_ods(&r, &config.od),
            dds: reference_dds(&r, config.dd.as_ref().unwrap()),
            ofds: reference_ofds(&r, true),
            cfds: reference_cfds(&r, config.cfd.as_ref().unwrap()),
            mfds: reference_mfds(&r, config.mfd.as_ref().unwrap()),
            ..found.clone()
        };
        assert!(
            !found.dds.is_empty() && !found.cfds.is_empty(),
            "seed {seed}"
        );
        assert_eq!(
            format!("{found:?}"),
            format!("{reference:?}"),
            "seed {seed}"
        );
    }
}
