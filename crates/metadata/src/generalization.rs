//! Domain generalization — a defense between "share the domain" and
//! "withhold it".
//!
//! The paper's conclusion is binary: domains leak, so withhold them. But a
//! party may need to share *something* about value ranges for feature
//! engineering to work. Generalization blunts the §III-A attack instead of
//! blocking it: widening a continuous range by a factor `w` divides the
//! adversary's ε-hit rate `2ε/range` by `w`; suppressing rare categorical
//! values removes exactly the values whose reproduction is most
//! identifying, replacing them with a synthetic placeholder that can never
//! match a real cell.

use crate::exchange::MetadataPackage;
use mp_relation::{Domain, Relation, Result, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Generalization parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainGeneralization {
    /// Widen continuous ranges by this factor (≥ 1), centred on the range
    /// midpoint.
    pub widen: f64,
    /// Snap the widened bounds outward to multiples of this step
    /// (`0` disables snapping). Snapping hides the exact observed
    /// min/max — themselves data values of the two extreme tuples.
    pub snap: f64,
    /// Replace categorical values occurring fewer than this many times
    /// with a single `*` placeholder (`0` disables suppression).
    pub suppress_below: usize,
}

impl Default for DomainGeneralization {
    fn default() -> Self {
        Self {
            widen: 2.0,
            snap: 10.0,
            suppress_below: 2,
        }
    }
}

impl DomainGeneralization {
    /// Generalises one domain. Categorical suppression needs the source
    /// column for frequencies; pass `None` to skip suppression.
    pub fn apply_domain(&self, domain: &Domain, column: Option<&[Value]>) -> Domain {
        match domain {
            Domain::Continuous { min, max } => {
                let mid = (min + max) / 2.0;
                let half = (max - min) / 2.0 * self.widen.max(1.0);
                let (mut lo, mut hi) = (mid - half, mid + half);
                if self.snap > 0.0 {
                    lo = (lo / self.snap).floor() * self.snap;
                    hi = (hi / self.snap).ceil() * self.snap;
                }
                Domain::continuous(lo, hi)
            }
            Domain::Categorical(values) => {
                if self.suppress_below == 0 {
                    return domain.clone();
                }
                let Some(col) = column else {
                    return domain.clone();
                };
                let mut freq: HashMap<&Value, usize> = HashMap::new();
                for v in col {
                    *freq.entry(v).or_insert(0) += 1;
                }
                let mut kept: Vec<Value> = values
                    .iter()
                    .filter(|v| freq.get(v).copied().unwrap_or(0) >= self.suppress_below)
                    .cloned()
                    .collect();
                if kept.len() < values.len() {
                    kept.push(Value::Text("*".into()));
                }
                Domain::categorical(kept)
            }
        }
    }

    /// Generalises every shared domain of a package, using `source` for
    /// categorical frequencies.
    pub fn apply(&self, pkg: &MetadataPackage, source: &Relation) -> Result<MetadataPackage> {
        let mut out = pkg.clone();
        for (i, meta) in out.attributes.iter_mut().enumerate() {
            if let Some(dom) = &meta.domain {
                let column = source.column_values(i).ok();
                meta.domain = Some(self.apply_domain(dom, column.as_deref()));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema};

    #[test]
    fn continuous_widening_and_snapping() {
        let g = DomainGeneralization {
            widen: 2.0,
            snap: 10.0,
            suppress_below: 0,
        };
        let d = g.apply_domain(&Domain::continuous(20.0, 40.0), None);
        // Width 20 → 40 centred on 30 → [10, 50]; snap keeps them.
        assert_eq!(d.bounds(), Some((10.0, 50.0)));

        let g = DomainGeneralization {
            widen: 1.0,
            snap: 25.0,
            suppress_below: 0,
        };
        let d = g.apply_domain(&Domain::continuous(20.0, 40.0), None);
        assert_eq!(d.bounds(), Some((0.0, 50.0)));
    }

    #[test]
    fn widen_below_one_is_clamped() {
        let g = DomainGeneralization {
            widen: 0.5,
            snap: 0.0,
            suppress_below: 0,
        };
        let d = g.apply_domain(&Domain::continuous(0.0, 10.0), None);
        assert_eq!(d.bounds(), Some((0.0, 10.0)));
    }

    #[test]
    fn categorical_suppression() {
        let g = DomainGeneralization {
            widen: 1.0,
            snap: 0.0,
            suppress_below: 2,
        };
        let col: Vec<Value> = ["a", "a", "b", "b", "rare"]
            .iter()
            .map(|&s| s.into())
            .collect();
        let dom = Domain::categorical(vec!["a", "b", "rare"]);
        let out = g.apply_domain(&dom, Some(&col));
        let values = out.values().unwrap();
        assert!(values.contains(&Value::Text("a".into())));
        assert!(!values.contains(&Value::Text("rare".into())));
        assert!(values.contains(&Value::Text("*".into())));
        // Cardinality unchanged here (one suppressed, one placeholder) —
        // the point is the *identifying* value is gone.
        assert_eq!(out.cardinality(), Some(3));
    }

    #[test]
    fn suppression_skipped_without_column_or_threshold() {
        let dom = Domain::categorical(vec!["a", "b"]);
        let g = DomainGeneralization {
            widen: 1.0,
            snap: 0.0,
            suppress_below: 2,
        };
        assert_eq!(g.apply_domain(&dom, None), dom);
        let g0 = DomainGeneralization {
            widen: 1.0,
            snap: 0.0,
            suppress_below: 0,
        };
        assert_eq!(g0.apply_domain(&dom, Some(&["a".into()])), dom);
    }

    #[test]
    fn package_level_application() {
        let schema = Schema::new(vec![
            Attribute::categorical("c"),
            Attribute::continuous("x"),
        ])
        .unwrap();
        let rel = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), 0.0.into()],
                vec!["a".into(), 100.0.into()],
                vec!["solo".into(), 50.0.into()],
            ],
        )
        .unwrap();
        let pkg = MetadataPackage::describe("p", &rel, vec![]).unwrap();
        let g = DomainGeneralization {
            widen: 2.0,
            snap: 50.0,
            suppress_below: 2,
        };
        let out = g.apply(&pkg, &rel).unwrap();
        let cont = out.attributes[1].domain.as_ref().unwrap();
        assert_eq!(cont.bounds(), Some((-50.0, 150.0)));
        let cat = out.attributes[0].domain.as_ref().unwrap();
        assert!(!cat.values().unwrap().contains(&Value::Text("solo".into())));
    }
}
