//! A VFL participant: a named party holding a vertical slice of the
//! population, keyed by an entity-id column.

use mp_metadata::{Dependency, MetadataPackage, SharePolicy};
use mp_relation::{Relation, Result, Value};

/// One party in a vertical federated learning session.
#[derive(Debug, Clone)]
pub struct Party {
    /// Party name (e.g. `"bank"`).
    pub name: String,
    /// The party's relation. One column is the entity identifier used for
    /// alignment; the rest are features.
    pub relation: Relation,
    /// Index of the entity-id column within `relation`.
    pub id_column: usize,
    /// Dependencies the party knows hold on its data (discovered or
    /// declared); subject to the share policy at exchange time.
    pub dependencies: Vec<Dependency>,
}

impl Party {
    /// Creates a party. `id_column` must be in range.
    pub fn new(
        name: impl Into<String>,
        relation: Relation,
        id_column: usize,
        dependencies: Vec<Dependency>,
    ) -> Result<Self> {
        relation.schema().attribute(id_column)?;
        Ok(Self {
            name: name.into(),
            relation,
            id_column,
            dependencies,
        })
    }

    /// The party's entity ids, in row order, materialised from the typed
    /// id column.
    pub(crate) fn ids(&self) -> Result<Vec<Value>> {
        self.relation.column_values(self.id_column)
    }

    /// Feature column indices (everything except the id column).
    pub(crate) fn feature_columns(&self) -> Vec<usize> {
        (0..self.relation.arity())
            .filter(|&c| c != self.id_column)
            .collect()
    }

    /// Builds the party's metadata package over its *feature* attributes
    /// (the id column is never described — ids are handled by PSI), then
    /// applies `policy`.
    ///
    /// Dependencies are re-indexed from relation coordinates to
    /// feature-package coordinates; any dependency touching the id column
    /// is dropped.
    pub fn share_metadata(&self, policy: &SharePolicy) -> Result<MetadataPackage> {
        let features = self.feature_columns();
        let feature_rel = self.relation.project(&features)?;
        let remap = |attr: usize| features.iter().position(|&c| c == attr);
        let deps: Vec<Dependency> = self
            .dependencies
            .iter()
            .filter_map(|d| remap_dependency(d, &remap))
            .collect();
        let full = MetadataPackage::describe(self.name.clone(), &feature_rel, deps)?;
        Ok(policy.apply(&full))
    }

    /// The relation restricted to rows at `rows` (PSI alignment output).
    pub(crate) fn aligned_rows(&self, rows: &[usize]) -> Result<Relation> {
        self.relation.select_rows(rows)
    }

    /// The party's PSI submission under `salt`: salted digests of its
    /// entity ids, in row order — the payload of its
    /// [`crate::transport::Payload::PsiDigests`] message.
    pub fn psi_submission(&self, salt: u64) -> Result<Vec<crate::psi::IdDigest>> {
        Ok(crate::psi::submit(&self.ids()?, salt))
    }
}

/// Re-indexes a dependency through `remap`; `None` drops it (some referenced
/// attribute is not a shared feature).
fn remap_dependency(
    dep: &Dependency,
    remap: &dyn Fn(usize) -> Option<usize>,
) -> Option<Dependency> {
    use mp_metadata::{Afd, AttrSet, DifferentialDep, Fd, NumericalDep, OrderDep, OrderedFd};
    Some(match dep {
        Dependency::Fd(f) => {
            let lhs: Option<Vec<usize>> = f.lhs.iter().map(remap).collect();
            Dependency::Fd(Fd {
                lhs: AttrSet::from_iter(lhs?),
                rhs: remap(f.rhs)?,
            })
        }
        Dependency::Afd(a) => {
            let lhs: Option<Vec<usize>> = a.fd.lhs.iter().map(remap).collect();
            Dependency::Afd(Afd {
                fd: Fd {
                    lhs: AttrSet::from_iter(lhs?),
                    rhs: remap(a.fd.rhs)?,
                },
                g3_threshold: a.g3_threshold,
            })
        }
        Dependency::Od(o) => Dependency::Od(OrderDep {
            lhs: remap(o.lhs)?,
            rhs: remap(o.rhs)?,
            direction: o.direction,
        }),
        Dependency::Nd(n) => Dependency::Nd(NumericalDep {
            lhs: remap(n.lhs)?,
            rhs: remap(n.rhs)?,
            k: n.k,
        }),
        Dependency::Dd(d) => Dependency::Dd(DifferentialDep {
            lhs: remap(d.lhs)?,
            rhs: remap(d.rhs)?,
            eps_lhs: d.eps_lhs,
            delta_rhs: d.delta_rhs,
        }),
        Dependency::Ofd(o) => Dependency::Ofd(OrderedFd {
            lhs: remap(o.lhs)?,
            rhs: remap(o.rhs)?,
        }),
        Dependency::Cfd(c) => {
            let lhs: Option<Vec<(usize, mp_metadata::PatternCell)>> = c
                .lhs
                .iter()
                .map(|(a, cell)| Some((remap(*a)?, cell.clone())))
                .collect();
            Dependency::Cfd(mp_metadata::ConditionalFd {
                lhs: lhs?,
                rhs: remap(c.rhs)?,
                rhs_pattern: c.rhs_pattern.clone(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_metadata::Fd;
    use mp_relation::{Attribute, Schema};

    fn party() -> Party {
        let schema = Schema::new(vec![
            Attribute::categorical("id"),
            Attribute::continuous("income"),
            Attribute::categorical("tier"),
        ])
        .unwrap();
        let rel = Relation::from_rows(
            schema,
            vec![
                vec!["c1".into(), 10.0.into(), "a".into()],
                vec!["c2".into(), 20.0.into(), "b".into()],
            ],
        )
        .unwrap();
        Party::new("bank", rel, 0, vec![Fd::new(1usize, 2).into()]).unwrap()
    }

    #[test]
    fn feature_columns_exclude_id() {
        assert_eq!(party().feature_columns(), vec![1, 2]);
    }

    #[test]
    fn share_metadata_reindexes_dependencies() {
        let pkg = party().share_metadata(&SharePolicy::FULL).unwrap();
        assert_eq!(pkg.arity(), 2);
        assert_eq!(pkg.attributes[0].name, "income");
        // Fd 1 → 2 in relation coordinates becomes 0 → 1 in package
        // coordinates.
        assert_eq!(pkg.dependencies.len(), 1);
        assert_eq!(pkg.dependencies[0].rhs(), 1);
        assert_eq!(pkg.dependencies[0].lhs().indices(), &[0]);
    }

    #[test]
    fn id_touching_dependencies_dropped() {
        let mut p = party();
        p.dependencies.push(Fd::new(0usize, 2).into()); // lhs is the id col
        let pkg = p.share_metadata(&SharePolicy::FULL).unwrap();
        assert_eq!(pkg.dependencies.len(), 1);
    }

    #[test]
    fn policy_applies() {
        let pkg = party().share_metadata(&SharePolicy::NAMES_ONLY).unwrap();
        assert!(!pkg.shares_domains());
        assert!(pkg.dependencies.is_empty());
    }

    #[test]
    fn invalid_id_column_rejected() {
        let p = party();
        assert!(Party::new("x", p.relation.clone(), 9, vec![]).is_err());
    }

    #[test]
    fn aligned_rows_selects() {
        let p = party();
        let sub = p.aligned_rows(&[1]).unwrap();
        assert_eq!(sub.n_rows(), 1);
        assert_eq!(sub.value(0, 0).unwrap(), Value::Text("c2".into()));
    }
}
