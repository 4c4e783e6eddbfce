//! Metric-FD discovery (`X → Y (δ)`): for every pair with a numeric
//! dependent attribute, compute the tight δ (maximum Y-spread within an
//! X-partition) and keep the informative ones — small relative to Y's
//! range and not already exact FDs.

use crate::dd::positive_range;
use mp_metadata::MetricFd;
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

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema};

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
    fn empty_relation() {
        let schema = Schema::new(vec![Attribute::categorical("a")]).unwrap();
        let r = Relation::empty(schema);
        assert!(discover_mfds(&r, &MfdConfig::default()).unwrap().is_empty());
    }
}
