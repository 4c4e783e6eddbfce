//! Conditional functional dependencies (CFDs).
//!
//! The paper cites CFDs (Bohannon et al., ref \[7\]) as the data-cleaning
//! workhorse among FD extensions, and the RFD survey it draws on treats
//! them as a core class. A CFD is an embedded FD plus a *pattern tableau*
//! whose cells are constants or wildcards; crucially, **the constants are
//! data values**. That puts CFDs in a different privacy class from every
//! dependency in the paper's §III/§IV: sharing one ships actual cells of
//! `R_real` inside the metadata (see `mp-core`'s `analytical::cfd` for the
//! quantified extra leakage).
//!
//! This implementation supports single-pattern-tuple CFDs
//! `(X → Y, tp)` where each LHS attribute carries a constant or a
//! wildcard and the RHS carries a constant or a wildcard:
//!
//! * RHS constant `c`: every tuple matching the LHS pattern must have
//!   `t[Y] = c` (a *constant CFD*).
//! * RHS wildcard: the FD `X → Y` must hold on the tuples matching the
//!   LHS pattern (a *variable CFD*).

use crate::attrset::AttrSet;
use mp_relation::{Relation, Result, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// One cell of a CFD pattern tuple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PatternCell {
    /// Matches only this value (and, on the RHS, *forces* it).
    Const(Value),
    /// Matches anything (`_` in tableau notation).
    Wildcard,
}

impl PatternCell {
    /// `true` if the cell matches `v`.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PatternCell::Const(c) => c == v,
            PatternCell::Wildcard => true,
        }
    }

    /// The constant, if any.
    pub fn constant(&self) -> Option<&Value> {
        match self {
            PatternCell::Const(c) => Some(c),
            PatternCell::Wildcard => None,
        }
    }
}

/// A single-pattern conditional functional dependency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionalFd {
    /// LHS attributes with their pattern cells.
    pub lhs: Vec<(usize, PatternCell)>,
    /// Dependent attribute.
    pub rhs: usize,
    /// RHS pattern cell.
    pub rhs_pattern: PatternCell,
}

impl ConditionalFd {
    /// A *constant CFD*: `X = x ⇒ Y = y` for single-attribute X.
    pub fn constant(lhs: usize, x: impl Into<Value>, rhs: usize, y: impl Into<Value>) -> Self {
        Self {
            lhs: vec![(lhs, PatternCell::Const(x.into()))],
            rhs,
            rhs_pattern: PatternCell::Const(y.into()),
        }
    }

    /// A *variable CFD*: the FD `X → Y` restricted to tuples where
    /// `cond_attr = cond_value`.
    pub fn variable(
        cond_attr: usize,
        cond_value: impl Into<Value>,
        fd_lhs: usize,
        rhs: usize,
    ) -> Self {
        Self {
            lhs: vec![
                (cond_attr, PatternCell::Const(cond_value.into())),
                (fd_lhs, PatternCell::Wildcard),
            ],
            rhs,
            rhs_pattern: PatternCell::Wildcard,
        }
    }

    /// The LHS attribute set.
    pub(crate) fn lhs_attrs(&self) -> AttrSet {
        AttrSet::from_iter(self.lhs.iter().map(|(a, _)| *a))
    }

    /// `true` if row `i` of `relation` matches the LHS pattern.
    pub(crate) fn row_matches(&self, relation: &Relation, i: usize) -> Result<bool> {
        for (attr, cell) in &self.lhs {
            if !cell.matches(&relation.value(i, *attr)?) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Number of tuples matching the LHS pattern (the CFD's *support*).
    pub fn support(&self, relation: &Relation) -> Result<usize> {
        let mut n = 0;
        for i in 0..relation.n_rows() {
            if self.row_matches(relation, i)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Exact validation per the CFD semantics above.
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        match &self.rhs_pattern {
            PatternCell::Const(c) => {
                for i in 0..relation.n_rows() {
                    if self.row_matches(relation, i)? && relation.value(i, self.rhs)? != *c {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            PatternCell::Wildcard => {
                // FD on the matching subset, keyed by the wildcard LHS
                // attributes (constants are fixed on the subset anyway).
                let key_attrs: Vec<usize> = self
                    .lhs
                    .iter()
                    .filter(|(_, c)| matches!(c, PatternCell::Wildcard))
                    .map(|(a, _)| *a)
                    .collect();
                let mut seen: HashMap<Vec<Value>, Value> = HashMap::new();
                for i in 0..relation.n_rows() {
                    if !self.row_matches(relation, i)? {
                        continue;
                    }
                    let key: Vec<Value> = key_attrs
                        .iter()
                        .map(|&a| relation.value(i, a))
                        .collect::<Result<_>>()?;
                    let y = relation.value(i, self.rhs)?;
                    match seen.get(&key) {
                        Some(prev) if *prev != y => return Ok(false),
                        Some(_) => {}
                        None => {
                            seen.insert(key, y);
                        }
                    }
                }
                Ok(true)
            }
        }
    }
}

impl fmt::Display for ConditionalFd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CFD (")?;
        for (i, (attr, cell)) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match cell {
                PatternCell::Const(c) => write!(f, "{attr}={c}")?,
                PatternCell::Wildcard => write!(f, "{attr}=_")?,
            }
        }
        write!(f, ") -> {}", self.rhs)?;
        match &self.rhs_pattern {
            PatternCell::Const(c) => write!(f, "={c}"),
            PatternCell::Wildcard => write!(f, "=_"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema};

    /// dept, role, bonus — dept=Sales forces bonus=1; within dept=CS,
    /// role → bonus.
    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::categorical("dept"),
            Attribute::categorical("role"),
            Attribute::categorical("bonus"),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec!["Sales".into(), "jr".into(), "1".into()],
                vec!["Sales".into(), "sr".into(), "1".into()],
                vec!["CS".into(), "jr".into(), "0".into()],
                vec!["CS".into(), "jr".into(), "0".into()],
                vec!["CS".into(), "sr".into(), "2".into()],
                vec!["Mgmt".into(), "sr".into(), "2".into()],
                vec!["Mgmt".into(), "sr".into(), "0".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn constant_cfd_semantics() {
        let r = rel();
        let cfd = ConditionalFd::constant(0, "Sales", 2, "1");
        assert!(cfd.holds(&r).unwrap());
        assert_eq!(cfd.support(&r).unwrap(), 2);

        let wrong = ConditionalFd::constant(0, "Sales", 2, "0");
        assert!(!wrong.holds(&r).unwrap());

        // Unmatched pattern holds vacuously with zero support.
        let vacuous = ConditionalFd::constant(0, "HR", 2, "9");
        assert!(vacuous.holds(&r).unwrap());
        assert_eq!(vacuous.support(&r).unwrap(), 0);
    }

    #[test]
    fn variable_cfd_semantics() {
        let r = rel();
        // Within dept=CS: role → bonus holds (jr→0, sr→2).
        assert!(ConditionalFd::variable(0, "CS", 1, 2).holds(&r).unwrap());
        // Within dept=Mgmt it fails (sr → 2 and 0).
        assert!(!ConditionalFd::variable(0, "Mgmt", 1, 2).holds(&r).unwrap());
        // The unconditional FD role → bonus does NOT hold (jr → 1 in Sales,
        // 0 in CS) — the CFD is strictly weaker, as it should be.
        assert!(!crate::dependency::Fd::new(1usize, 2).holds(&r).unwrap());
    }

    #[test]
    fn lhs_attrs_and_matching() {
        let r = rel();
        let cfd = ConditionalFd::variable(0, "CS", 1, 2);
        assert_eq!(cfd.lhs_attrs().indices(), &[0, 1]);
        assert!(cfd.row_matches(&r, 2).unwrap());
        assert!(!cfd.row_matches(&r, 0).unwrap());
    }

    #[test]
    fn display_tableau_notation() {
        let cfd = ConditionalFd::constant(0, "Sales", 2, "1");
        assert_eq!(cfd.to_string(), "CFD (0=Sales) -> 2=1");
        let v = ConditionalFd::variable(0, "CS", 1, 2);
        assert_eq!(v.to_string(), "CFD (0=CS, 1=_) -> 2=_");
    }

    #[test]
    fn serde_roundtrip() {
        let cfd = ConditionalFd::variable(0, "CS", 1, 2);
        let json = serde_json::to_string(&cfd).unwrap();
        assert_eq!(serde_json::from_str::<ConditionalFd>(&json).unwrap(), cfd);
    }

    #[test]
    fn pattern_cell_api() {
        let c = PatternCell::Const("x".into());
        assert!(c.matches(&"x".into()));
        assert!(!c.matches(&"y".into()));
        assert_eq!(c.constant(), Some(&Value::Text("x".into())));
        assert!(PatternCell::Wildcard.matches(&Value::Null));
        assert_eq!(PatternCell::Wildcard.constant(), None);
    }
}
