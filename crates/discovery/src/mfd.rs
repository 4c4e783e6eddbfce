//! Metric-FD discovery and variable-CFD discovery.
//!
//! * **MFDs** (`X → Y (δ)`): for every pair with a numeric dependent
//!   attribute, compute the tight δ (maximum Y-spread within an
//!   X-partition) and keep the informative ones — small relative to Y's
//!   range and not already exact FDs.
//! * **Variable CFDs** (`(C = c, X → Y)`): for every condition value `c`
//!   with enough support, check whether the embedded FD `X → Y` holds on
//!   the matching partition even though it fails globally.

use crate::dd::positive_range;
use mp_metadata::{ConditionalFd, Fd, MetricFd};
use mp_relation::{Column, Pli, Relation, Result};

/// Options for MFD discovery.
#[derive(Debug, Clone)]
pub struct MfdConfig {
    /// Keep MFDs whose tight δ is at most this fraction of the dependent
    /// attribute's range.
    pub delta_fraction: f64,
    /// Skip pairs where the exact FD already holds (δ = 0 everywhere).
    pub exclude_fds: bool,
}

impl Default for MfdConfig {
    fn default() -> Self {
        Self {
            delta_fraction: 0.2,
            exclude_fds: true,
        }
    }
}

/// Discovers informative metric FDs between attribute pairs.
///
/// Each attribute's partition is built once and each pair costs one scan
/// of the determinant's clusters over the dependent column, with the
/// semantics of [`MetricFd::tight_delta`].
pub fn discover_mfds(relation: &Relation, config: &MfdConfig) -> Result<Vec<MetricFd>> {
    let m = relation.arity();
    let mut out = Vec::new();
    if relation.n_rows() == 0 {
        return Ok(out);
    }
    // Dependents with a positive numeric range and no text cell (no metric
    // exists over text).
    let mut targets: Vec<(usize, f64)> = Vec::new();
    for rhs in 0..m {
        let ys = relation.column(rhs)?;
        let numeric = (0..ys.len()).all(|r| ys.is_null(r) || ys.f64_at(r).is_some());
        if let (true, Some(range)) = (numeric, positive_range(ys)) {
            targets.push((rhs, range));
        }
    }
    if targets.is_empty() {
        return Ok(out);
    }
    let mut plis = Vec::with_capacity(m);
    for lhs in 0..m {
        plis.push(Pli::from_typed(relation.column(lhs)?));
    }
    for (rhs, range) in targets {
        let ys = relation.column(rhs)?;
        for (lhs, pli) in plis.iter().enumerate() {
            if lhs == rhs {
                continue;
            }
            let delta = max_cluster_spread(pli, ys);
            if config.exclude_fds && delta == 0.0 {
                continue;
            }
            if delta <= config.delta_fraction * range {
                out.push(MetricFd::new(lhs, rhs, delta));
            }
        }
    }
    Ok(out)
}

/// The largest `max − min` of the numeric Y values within one cluster of
/// `pli`, over clusters with at least two of them (0 when there are none).
/// Folds in row order with `f64::min`/`f64::max`, as
/// [`MetricFd::tight_delta`] does.
fn max_cluster_spread(pli: &Pli, ys: &Column) -> f64 {
    let mut delta = 0.0f64;
    for cluster in pli.clusters() {
        let (mut count, mut lo, mut hi) = (0usize, f64::INFINITY, f64::NEG_INFINITY);
        for y in cluster.iter().filter_map(|&r| ys.f64_at(r as usize)) {
            count += 1;
            lo = lo.min(y);
            hi = hi.max(y);
        }
        if count >= 2 {
            delta = delta.max(hi - lo);
        }
    }
    delta
}

/// Options for variable-CFD discovery.
#[derive(Debug, Clone)]
pub struct VariableCfdConfig {
    /// Minimum tuples matching the condition value.
    pub min_support: usize,
    /// Skip (X, Y) pairs where the unconditional FD holds.
    pub exclude_global_fds: bool,
}

impl Default for VariableCfdConfig {
    fn default() -> Self {
        Self {
            min_support: 4,
            exclude_global_fds: true,
        }
    }
}

/// Discovers variable CFDs `(C = c, X → Y)` over attribute triples.
pub fn discover_variable_cfds(
    relation: &Relation,
    config: &VariableCfdConfig,
) -> Result<Vec<ConditionalFd>> {
    let m = relation.arity();
    let mut out = Vec::new();
    if relation.n_rows() == 0 {
        return Ok(out);
    }
    for cond in 0..m {
        let cond_col = relation.column(cond)?;
        let cond_pli = Pli::from_typed(cond_col);
        for fd_lhs in 0..m {
            if fd_lhs == cond {
                continue;
            }
            for rhs in 0..m {
                if rhs == cond || rhs == fd_lhs {
                    continue;
                }
                if config.exclude_global_fds && Fd::new(fd_lhs, rhs).holds(relation)? {
                    continue;
                }
                for cluster in cond_pli.clusters() {
                    if cluster.len() < config.min_support {
                        continue;
                    }
                    let Some(&row0) = cluster.first() else {
                        continue;
                    };
                    let rows: Vec<usize> = cluster.iter().map(|&r| r as usize).collect();
                    let subset = relation.select_rows(&rows)?;
                    if Fd::new(fd_lhs, rhs).holds(&subset)? {
                        out.push(ConditionalFd::variable(
                            cond,
                            cond_col.value(row0 as usize),
                            fd_lhs,
                            rhs,
                        ));
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Options for SD discovery.
#[derive(Debug, Clone)]
pub struct SdConfig {
    /// Keep SDs whose gap-interval width is at most this fraction of the
    /// dependent attribute's range.
    pub width_fraction: f64,
    /// Minimum number of consecutive pairs needed for the bounds to mean
    /// anything.
    pub min_pairs: usize,
}

impl Default for SdConfig {
    fn default() -> Self {
        Self {
            width_fraction: 0.3,
            min_pairs: 4,
        }
    }
}

/// Discovers informative sequential dependencies between attribute pairs:
/// tight gap bounds whose width is small relative to the dependent range.
pub fn discover_sds(
    relation: &Relation,
    config: &SdConfig,
) -> Result<Vec<mp_metadata::SequentialDep>> {
    use mp_metadata::SequentialDep;
    let m = relation.arity();
    let mut out = Vec::new();
    for rhs in 0..m {
        let Some(range) = positive_range(relation.column(rhs)?) else {
            continue;
        };
        for lhs in 0..m {
            if lhs == rhs {
                continue;
            }
            let Some(gaps) = SequentialDep::gaps(lhs, rhs, relation)? else {
                continue;
            };
            if gaps.len() < config.min_pairs {
                continue;
            }
            let g_lo = gaps.iter().copied().fold(f64::INFINITY, f64::min);
            let g_hi = gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if g_hi - g_lo <= config.width_fraction * range {
                out.push(SequentialDep::new(lhs, rhs, g_lo, g_hi));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema, Value};

    #[test]
    fn mfd_discovery_finds_bounded_spread() {
        let schema = Schema::new(vec![
            Attribute::categorical("k"),
            Attribute::continuous("y"),
        ])
        .unwrap();
        // Partitions with spread ≤ 1 over a range of 100.
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), 10.0.into()],
                vec!["a".into(), 10.8.into()],
                vec!["b".into(), 50.0.into()],
                vec!["b".into(), 50.5.into()],
                vec!["c".into(), 110.0.into()],
            ],
        )
        .unwrap();
        let mfds = discover_mfds(&r, &MfdConfig::default()).unwrap();
        let found = mfds
            .iter()
            .find(|d| d.lhs == 0 && d.rhs == 1)
            .expect("MFD 0→1");
        assert!((found.delta - 0.8).abs() < 1e-12, "tight delta");
        assert!(found.holds(&r).unwrap());
    }

    #[test]
    fn mfd_excludes_exact_fds_by_default() {
        let schema = Schema::new(vec![
            Attribute::categorical("k"),
            Attribute::continuous("y"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), 1.0.into()],
                vec!["a".into(), 1.0.into()],
                vec!["b".into(), 2.0.into()],
            ],
        )
        .unwrap();
        assert!(discover_mfds(&r, &MfdConfig::default()).unwrap().is_empty());
        let with = discover_mfds(
            &r,
            &MfdConfig {
                exclude_fds: false,
                delta_fraction: 0.2,
            },
        )
        .unwrap();
        assert!(with
            .iter()
            .any(|d| d.lhs == 0 && d.rhs == 1 && d.delta == 0.0));
    }

    #[test]
    fn mfd_discovery_on_planted_data() {
        let out = mp_datasets::all_classes_spec(300, 7).generate().unwrap();
        for mfd in discover_mfds(&out.relation, &MfdConfig::default()).unwrap() {
            assert!(mfd.holds(&out.relation).unwrap(), "{mfd}");
        }
    }

    #[test]
    fn variable_cfd_discovery() {
        let schema = Schema::new(vec![
            Attribute::categorical("dept"),
            Attribute::categorical("role"),
            Attribute::categorical("bonus"),
        ])
        .unwrap();
        // Within dept=CS role → bonus holds; within dept=Mgmt it fails;
        // globally it fails.
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["CS".into(), "jr".into(), "0".into()],
                vec!["CS".into(), "jr".into(), "0".into()],
                vec!["CS".into(), "sr".into(), "2".into()],
                vec!["CS".into(), "sr".into(), "2".into()],
                vec!["Mgmt".into(), "jr".into(), "9".into()],
                vec!["Mgmt".into(), "jr".into(), "1".into()],
                vec!["Mgmt".into(), "sr".into(), "1".into()],
                vec!["Mgmt".into(), "sr".into(), "1".into()],
            ],
        )
        .unwrap();
        let cfds = discover_variable_cfds(&r, &VariableCfdConfig::default()).unwrap();
        let target = ConditionalFd::variable(0, "CS", 1, 2);
        assert!(cfds.contains(&target), "found: {cfds:?}");
        assert!(!cfds.contains(&ConditionalFd::variable(0, "Mgmt", 1, 2)));
        for c in &cfds {
            assert!(c.holds(&r).unwrap(), "{c}");
        }
    }

    #[test]
    fn variable_cfd_respects_support() {
        let schema = Schema::new(vec![
            Attribute::categorical("c"),
            Attribute::categorical("x"),
            Attribute::categorical("y"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), "1".into(), "p".into()],
                vec!["a".into(), "2".into(), "q".into()],
                vec!["b".into(), "1".into(), "p".into()],
                vec!["b".into(), "1".into(), "q".into()],
            ],
        )
        .unwrap();
        // Support 2 < min_support 4 → nothing reported.
        assert!(discover_variable_cfds(&r, &VariableCfdConfig::default())
            .unwrap()
            .is_empty());
        let relaxed = discover_variable_cfds(
            &r,
            &VariableCfdConfig {
                min_support: 2,
                exclude_global_fds: true,
            },
        )
        .unwrap();
        assert!(relaxed.contains(&ConditionalFd::variable(0, "a", 1, 2)));
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::new(vec![Attribute::categorical("a")]).unwrap();
        let r = Relation::empty(schema);
        assert!(discover_mfds(&r, &MfdConfig::default()).unwrap().is_empty());
        assert!(discover_variable_cfds(&r, &VariableCfdConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn sd_discovery_finds_bounded_gaps() {
        use mp_metadata::SequentialDep;
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        // y increases by 1.0–1.2 per step of x over a range of ~6.
        let r = Relation::from_rows(
            schema,
            (0..6)
                .map(|i| {
                    vec![
                        Value::Float(i as f64),
                        Value::Float(i as f64 * 1.1 + if i % 2 == 0 { 0.05 } else { 0.0 }),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let sds = discover_sds(
            &r,
            &SdConfig {
                width_fraction: 0.3,
                min_pairs: 4,
            },
        )
        .unwrap();
        let sd = sds
            .iter()
            .find(|d| d.lhs == 0 && d.rhs == 1)
            .expect("SD 0→1");
        assert!(sd.holds(&r).unwrap());
        // Tightness: shrinking the window breaks it.
        let tighter = SequentialDep::new(0, 1, sd.min_gap + 0.01, sd.max_gap);
        assert!(!tighter.holds(&r).unwrap());
    }

    #[test]
    fn sd_discovery_respects_min_pairs_and_width() {
        let out = mp_datasets::all_classes_spec(200, 11).generate().unwrap();
        for sd in discover_sds(&out.relation, &SdConfig::default()).unwrap() {
            assert!(sd.holds(&out.relation).unwrap(), "{sd}");
        }
        // An absurdly tight width filter returns nothing.
        let none = discover_sds(
            &out.relation,
            &SdConfig {
                width_fraction: 1e-12,
                min_pairs: 4,
            },
        )
        .unwrap();
        assert!(none.iter().all(|sd| sd.max_gap - sd.min_gap <= 1e-9));
    }
}
