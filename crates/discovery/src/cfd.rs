//! Constant-CFD discovery.
//!
//! For every attribute pair `(X, Y)` and every LHS value `x` with support
//! at least `min_support`, report the constant CFD `(X = x → Y = y)` when
//! all supporting tuples agree on `Y = y`. CFDs implied by a full FD
//! `X → Y` are excluded by default: they carry no conditional information
//! beyond the FD, only the (privacy-relevant!) constants.
//!
//! Every column's equality codes are computed once and every LHS
//! partition is built once from them; a pair then costs one scan of the
//! LHS clusters comparing RHS codes, which yields both the FD verdict
//! (every cluster constant on Y) and the supported constant clusters.

use mp_metadata::ConditionalFd;
use mp_relation::{Pli, Relation, Result};

/// Options for constant-CFD discovery.
#[derive(Debug, Clone)]
pub struct CfdConfig {
    /// Minimum number of tuples matching the LHS pattern.
    pub min_support: usize,
    /// Skip pairs where the unconditional FD `X → Y` already holds.
    pub exclude_fd_pairs: bool,
}

impl Default for CfdConfig {
    fn default() -> Self {
        Self {
            min_support: 3,
            exclude_fd_pairs: true,
        }
    }
}

/// Discovers constant CFDs between attribute pairs.
pub fn discover_cfds(relation: &Relation, config: &CfdConfig) -> Result<Vec<ConditionalFd>> {
    let m = relation.arity();
    let mut out = Vec::new();
    if relation.n_rows() == 0 {
        return Ok(out);
    }
    // Two rows share a code iff their cells are equal (nulls included), the
    // equality `Fd::holds` and the constant-cluster test both use.
    let mut codes = Vec::with_capacity(m);
    for c in 0..m {
        codes.push(relation.column(c)?.group_codes());
    }
    // The first row of every supported constant cluster of one pair.
    let mut constant_rows: Vec<usize> = Vec::new();
    for (lhs, (lhs_codes, n_lhs_codes)) in codes.iter().enumerate() {
        let lhs_col = relation.column(lhs)?;
        let lhs_pli = Pli::from_codes(lhs_codes, *n_lhs_codes);
        for (rhs, (rhs_codes, _)) in codes.iter().enumerate() {
            if rhs == lhs {
                continue;
            }
            constant_rows.clear();
            let mut fd_holds = true;
            for cluster in lhs_pli.clusters() {
                let Some((&row0, rest)) = cluster.split_first() else {
                    continue;
                };
                let y = rhs_codes.get(row0 as usize);
                if rest.iter().all(|&r| rhs_codes.get(r as usize) == y) {
                    if cluster.len() >= config.min_support {
                        constant_rows.push(row0 as usize);
                    }
                } else {
                    fd_holds = false;
                }
            }
            if config.exclude_fd_pairs && fd_holds {
                continue;
            }
            let rhs_col = relation.column(rhs)?;
            for &row0 in &constant_rows {
                out.push(ConditionalFd::constant(
                    lhs,
                    lhs_col.value(row0),
                    rhs,
                    rhs_col.value(row0),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema, Value};

    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::categorical("dept"),
            Attribute::categorical("bonus"),
        ])
        .unwrap();
        // Sales → always 1 (support 3); CS → mixed; Mgmt → always 2 but
        // support only 2.
        Relation::from_rows(
            schema,
            vec![
                vec!["Sales".into(), "1".into()],
                vec!["Sales".into(), "1".into()],
                vec!["Sales".into(), "1".into()],
                vec!["CS".into(), "0".into()],
                vec!["CS".into(), "2".into()],
                vec!["Mgmt".into(), "2".into()],
                vec!["Mgmt".into(), "2".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn finds_supported_constant_patterns() {
        let cfds = discover_cfds(&rel(), &CfdConfig::default()).unwrap();
        let sales = ConditionalFd::constant(0, "Sales", 1, "1");
        assert!(cfds.contains(&sales));
        // Mgmt pattern has support 2 < min_support 3.
        let mgmt = ConditionalFd::constant(0, "Mgmt", 1, "2");
        assert!(!cfds.contains(&mgmt));
        // CS does not determine bonus.
        assert!(!cfds
            .iter()
            .any(|c| { c.lhs[0].1.constant() == Some(&Value::Text("CS".into())) }));
    }

    #[test]
    fn min_support_is_honoured() {
        let cfds = discover_cfds(
            &rel(),
            &CfdConfig {
                min_support: 2,
                exclude_fd_pairs: true,
            },
        )
        .unwrap();
        assert!(cfds.contains(&ConditionalFd::constant(0, "Mgmt", 1, "2")));
    }

    #[test]
    fn every_discovered_cfd_holds() {
        let out = mp_datasets::all_classes_spec(200, 3).generate().unwrap();
        for cfd in discover_cfds(&out.relation, &CfdConfig::default()).unwrap() {
            assert!(cfd.holds(&out.relation).unwrap(), "{cfd}");
            assert!(cfd.support(&out.relation).unwrap() >= 3);
        }
    }

    #[test]
    fn fd_pairs_excluded_by_default() {
        let out = mp_datasets::all_classes_spec(300, 5).generate().unwrap();
        // base(0) → fd_child(1) is an FD: its constant patterns are
        // redundant and must be excluded...
        let cfds = discover_cfds(&out.relation, &CfdConfig::default()).unwrap();
        assert!(!cfds.iter().any(|c| c.lhs[0].0 == 0 && c.rhs == 1));
        // ...unless asked for.
        let all = discover_cfds(
            &out.relation,
            &CfdConfig {
                min_support: 3,
                exclude_fd_pairs: false,
            },
        )
        .unwrap();
        assert!(all.iter().any(|c| c.lhs[0].0 == 0 && c.rhs == 1));
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::new(vec![Attribute::categorical("a")]).unwrap();
        let r = Relation::empty(schema);
        assert!(discover_cfds(&r, &CfdConfig::default()).unwrap().is_empty());
    }
}
