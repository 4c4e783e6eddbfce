//! Pairwise numerical-dependency discovery (§IV-B).
//!
//! For every attribute pair `(X, Y)` the tightest cardinality bound `k`
//! (the maximum number of distinct Y values associated with one X value)
//! is computed from the stripped partition of X. A pair is reported as the
//! ND `X →≤k Y` only when the bound is *informative*: much smaller than
//! `|dom(Y)|`, since `k = |dom(Y)|` holds for every pair vacuously.

use crate::engine::DiscoveryContext;
use mp_metadata::NumericalDep;
use mp_relation::{Pli, Result, Signature};

/// Options for ND discovery.
#[derive(Debug, Clone)]
pub struct NdConfig {
    /// Absolute cap: report only NDs with `k ≤ max_k`.
    pub max_k: usize,
    /// Relative cap: report only NDs with `k ≤ ratio · distinct(Y)`.
    pub max_fanout_ratio: f64,
    /// Skip NDs that are already FDs (`k = 1`); those are reported by FD
    /// discovery.
    pub exclude_fds: bool,
}

impl Default for NdConfig {
    fn default() -> Self {
        Self {
            max_k: 32,
            max_fanout_ratio: 0.5,
            exclude_fds: true,
        }
    }
}

/// Discovers informative numerical dependencies between attribute pairs
/// of the context's relation.
///
/// Each reported ND carries the *tightest* `k` for which it holds on the
/// relation, so `NumericalDep::holds` is true by construction and false
/// for `k − 1` (asserted in tests).
///
/// LHS partitions and RHS signatures come from the context's PLI cache
/// (so a preceding FD pass has already paid for them), and the pair sweep
/// fans out over determinants on the context's thread budget. Output is
/// identical to the sequential scan.
pub fn discover_nds_with(
    ctx: &DiscoveryContext<'_>,
    config: &NdConfig,
) -> Result<Vec<NumericalDep>> {
    let relation = ctx.relation();
    let m = relation.arity();
    if relation.n_rows() == 0 {
        return Ok(Vec::new());
    }
    // RHS signatures, shared by every determinant's sweep, and each
    // column's distinct count, read off the same partition.
    let (rhs_sigs, distinct): (Vec<Signature>, Vec<usize>) = (0..m)
        .map(|c| {
            let pli = ctx.pli_of_single(c)?;
            Ok((pli.signature(), distinct_count(&pli)))
        })
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .unzip();

    let per_lhs: Vec<Result<Vec<NumericalDep>>> = ctx.par_map((0..m).collect(), |lhs| {
        let lhs_pli = ctx.pli_of_single(lhs)?;
        let mut out = Vec::new();
        for (rhs, &rhs_distinct) in distinct.iter().enumerate() {
            if lhs == rhs {
                continue;
            }
            let k = lhs_pli.max_fanout(&rhs_sigs[rhs]);
            if k == 0 {
                continue;
            }
            if config.exclude_fds && k == 1 {
                continue;
            }
            let informative =
                k <= config.max_k && (k as f64) <= config.max_fanout_ratio * rhs_distinct as f64;
            if informative {
                out.push(NumericalDep::new(lhs, rhs, k));
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

/// The number of distinct values of a single-column partition's column:
/// one per cluster and one per stripped singleton row.
fn distinct_count(pli: &Pli) -> usize {
    pli.n_rows() - pli.covered_count() + pli.cluster_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ParallelConfig;
    use crate::relations::relation_where;
    use mp_datasets::{all_classes_spec, echocardiogram};
    use mp_relation::Relation;
    use proptest::prelude::*;

    /// ND discovery over a fresh context with the default budget.
    fn nds_of(relation: &Relation, config: &NdConfig) -> Vec<NumericalDep> {
        let ctx = DiscoveryContext::new(relation, ParallelConfig::default());
        discover_nds_with(&ctx, config).unwrap()
    }

    #[test]
    fn planted_bounded_fanout_found() {
        let out = all_classes_spec(600, 4).generate().unwrap();
        let nds = nds_of(&out.relation, &NdConfig::default());
        // Planted: base(0) →≤3 fan(4); discovery reports the tightest k ≤ 3.
        let nd = nds
            .iter()
            .find(|d| d.lhs == 0 && d.rhs == 4)
            .expect("planted ND discovered");
        assert!(nd.k <= 3 && nd.k >= 2);
    }

    #[test]
    fn tightness_of_reported_k() {
        let out = all_classes_spec(400, 10).generate().unwrap();
        let nds = nds_of(&out.relation, &NdConfig::default());
        assert!(!nds.is_empty());
        for nd in &nds {
            assert!(nd.holds(&out.relation).unwrap());
            let tighter = NumericalDep::new(nd.lhs, nd.rhs, nd.k - 1);
            assert!(
                nd.k == 1 || !tighter.holds(&out.relation).unwrap(),
                "reported k must be tight"
            );
        }
    }

    #[test]
    fn echocardiogram_group_survival_nd() {
        use mp_datasets::echocardiogram::attrs::*;
        let r = echocardiogram();
        let nds = nds_of(
            &r,
            &NdConfig {
                max_k: 24,
                max_fanout_ratio: 0.6,
                exclude_fds: true,
            },
        );
        assert!(
            nds.iter().any(|d| d.lhs == GROUP && d.rhs == SURVIVAL),
            "planted group →≤k survival ND must be informative"
        );
    }

    #[test]
    fn fd_pairs_excluded_by_default() {
        let out = all_classes_spec(300, 6).generate().unwrap();
        let nds = nds_of(&out.relation, &NdConfig::default());
        // base(0) → fd_child(1) is an FD (k = 1): excluded.
        assert!(!nds.iter().any(|d| d.lhs == 0 && d.rhs == 1));

        let with_fds = nds_of(
            &out.relation,
            &NdConfig {
                exclude_fds: false,
                max_k: 32,
                max_fanout_ratio: 0.5,
            },
        );
        assert!(with_fds
            .iter()
            .any(|d| d.lhs == 0 && d.rhs == 1 && d.k == 1));
    }

    #[test]
    fn uninformative_pairs_skipped() {
        let out = all_classes_spec(300, 6).generate().unwrap();
        let strict = nds_of(
            &out.relation,
            &NdConfig {
                max_k: 1,
                max_fanout_ratio: 0.01,
                exclude_fds: true,
            },
        );
        assert!(strict.is_empty());
    }

    #[test]
    fn empty_relation() {
        let out = all_classes_spec(0, 0).generate().unwrap();
        assert!(nds_of(&out.relation, &NdConfig::default()).is_empty());
    }

    proptest! {
        /// A partition's distinct count is the column's, on every layout
        /// the pairwise oracle draws (NaN, ±0.0 and ±inf included).
        #[test]
        fn partition_distinct_count_is_the_columns(r in relation_where(any::<bool>())) {
            for c in 0..r.arity() {
                let column = r.column(c).unwrap();
                prop_assert_eq!(
                    distinct_count(&Pli::from_typed(column)),
                    column.distinct_count(),
                    "column {} of {:?}",
                    c,
                    r
                );
            }
        }
    }
}
