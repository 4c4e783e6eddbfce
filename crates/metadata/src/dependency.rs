//! The dependency metadata types the paper analyses, with exact validation
//! semantics.
//!
//! Section II-A (functional dependencies) and Section IV (the RFD
//! selection: approximate, numerical, order, differential and ordered
//! functional dependencies) of the paper define each class; the `holds`
//! methods here implement those definitions verbatim so that discovery,
//! generation and the test suite all agree on what a dependency *means*.

use crate::attrset::AttrSet;
use crate::cfd::ConditionalFd;
use mp_relation::{Pli, Relation, Result, Signature, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A strict functional dependency `X → Y` (single right-hand attribute;
/// multi-attribute right-hand sides decompose into one FD per attribute).
///
/// Holds iff for all tuples `t, r`: `t[X] = r[X] ⇒ t[Y] = r[Y]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fd {
    /// Determinant attribute set X.
    pub lhs: AttrSet,
    /// Dependent attribute Y.
    pub rhs: usize,
}

impl Fd {
    /// Creates `lhs → rhs`.
    pub fn new(lhs: impl Into<AttrSet>, rhs: usize) -> Self {
        Self {
            lhs: lhs.into(),
            rhs,
        }
    }

    /// Exact validation against a relation via partition refinement.
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        let lhs_pli = pli_of_set(relation, &self.lhs)?;
        let rhs_sig = Pli::from_column(&relation.column_values(self.rhs)?).signature();
        Ok(lhs_pli.satisfies_fd(&rhs_sig))
    }

    /// The `g3` error of the FD on `relation`: the minimum fraction of
    /// tuples to remove for it to hold (0 iff it holds exactly).
    pub fn g3_error(&self, relation: &Relation) -> Result<f64> {
        let lhs_pli = pli_of_set(relation, &self.lhs)?;
        let rhs_sig = Pli::from_column(&relation.column_values(self.rhs)?).signature();
        Ok(lhs_pli.g3_error(&rhs_sig))
    }
}

/// Builds Π_X for an attribute set by intersecting single-column PLIs.
///
/// The empty set yields the unit partition (all tuples agree on ∅).
pub fn pli_of_set(relation: &Relation, set: &AttrSet) -> Result<Pli> {
    let mut iter = set.iter();
    let Some(first) = iter.next() else {
        return Ok(Pli::unit(relation.n_rows()));
    };
    let mut pli = Pli::from_column(&relation.column_values(first)?);
    for attr in iter {
        let other = Pli::from_column(&relation.column_values(attr)?);
        pli = pli.intersect(&other);
    }
    Ok(pli)
}

/// An approximate functional dependency (§IV-A): `X → Y` holds after
/// removing at most a `g3_threshold` fraction of tuples (Kivinen–Mannila
/// `g3` error, paper ref \[14\]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Afd {
    /// The underlying dependency shape.
    pub fd: Fd,
    /// Maximum tolerated `g3` error ε ∈ [0, 1].
    pub g3_threshold: f64,
}

impl Afd {
    /// Creates `lhs → rhs` with tolerance `g3_threshold`.
    pub fn new(lhs: impl Into<AttrSet>, rhs: usize, g3_threshold: f64) -> Self {
        Self {
            fd: Fd::new(lhs, rhs),
            g3_threshold,
        }
    }

    /// `true` iff the `g3` error on `relation` is within the threshold.
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        Ok(self.fd.g3_error(relation)? <= self.g3_threshold + 1e-12)
    }
}

/// Direction of an order dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OrderDirection {
    /// `t[X] ≤ u[X] ⇒ t[Y] ≤ u[Y]`.
    Ascending,
    /// `t[X] ≤ u[X] ⇒ t[Y] ≥ u[Y]`.
    Descending,
}

/// An order dependency between two attributes (§IV-C).
///
/// The paper's definition — `∀ t, u: t[X] ≤ u[X] → t[Y] ≤ u[Y]` — applied
/// to the pair `(u, t)` as well forces `t[X] = u[X] ⇒ t[Y] = u[Y]`; order
/// dependency therefore subsumes the FD on ties. Tuples with a null on
/// either side are skipped (their order is undefined).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OrderDep {
    /// Ordering attribute X.
    pub lhs: usize,
    /// Ordered attribute Y.
    pub rhs: usize,
    /// Monotonicity direction.
    pub direction: OrderDirection,
}

impl OrderDep {
    /// Creates an ascending OD `lhs ≤ → rhs ≤`.
    pub fn ascending(lhs: usize, rhs: usize) -> Self {
        Self {
            lhs,
            rhs,
            direction: OrderDirection::Ascending,
        }
    }

    /// Creates a descending OD `lhs ≤ → rhs ≥`.
    pub fn descending(lhs: usize, rhs: usize) -> Self {
        Self {
            lhs,
            rhs,
            direction: OrderDirection::Descending,
        }
    }

    /// Exact validation: sort the non-null pairs by X and check Y is
    /// monotone in the dependency's direction, with X-ties forcing Y-ties.
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        let xs = &relation.column_values(self.lhs)?;
        let ys = &relation.column_values(self.rhs)?;
        let mut pairs: Vec<(&Value, &Value)> = xs
            .iter()
            .zip(ys.iter())
            .filter(|(x, y)| !x.is_null() && !y.is_null())
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        Ok(pairs.windows(2).all(|w| {
            let &[(x0, y0), (x1, y1)] = w else {
                return true;
            };
            if x0 == x1 {
                y0 == y1
            } else {
                match self.direction {
                    OrderDirection::Ascending => y0 <= y1,
                    OrderDirection::Descending => y0 >= y1,
                }
            }
        }))
    }
}

/// A numerical dependency `X →≤k Y` (§IV-B): every X value maps to at most
/// `k` distinct Y values. `k = 1` degenerates to the FD `X → Y`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NumericalDep {
    /// Determinant attribute X.
    pub lhs: usize,
    /// Constrained attribute Y.
    pub rhs: usize,
    /// Cardinality bound k ≥ 1.
    pub k: usize,
}

impl NumericalDep {
    /// Creates `lhs →≤k rhs`.
    pub fn new(lhs: usize, rhs: usize, k: usize) -> Self {
        Self { lhs, rhs, k }
    }

    /// The maximum number of distinct Y values associated with one X value
    /// on `relation` (the tightest k for which the ND holds). Zero for an
    /// empty relation.
    pub fn max_fanout(lhs: usize, rhs: usize, relation: &Relation) -> Result<usize> {
        let lhs_pli = Pli::from_column(&relation.column_values(lhs)?);
        let rhs_sig = Pli::from_column(&relation.column_values(rhs)?).signature();
        let ids = rhs_sig.ids();
        let mut max = if relation.n_rows() == 0 { 0 } else { 1 };
        let mut seen: Vec<u32> = Vec::new();
        for cluster in lhs_pli.clusters() {
            seen.clear();
            seen.extend(cluster.iter().map(|&r| ids[r as usize]));
            seen.sort_unstable();
            // Every row in no RHS cluster is a distinct value of its own.
            let singletons = seen
                .iter()
                .filter(|&&id| id == Signature::SINGLETON)
                .count();
            seen.dedup();
            max = max.max(seen.len() - usize::from(singletons > 0) + singletons);
        }
        Ok(max)
    }

    /// `true` iff no X value maps to more than `k` distinct Y values.
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        Ok(Self::max_fanout(self.lhs, self.rhs, relation)? <= self.k)
    }
}

/// A differential dependency on two continuous attributes (§IV-D):
/// `|t[X] − u[X]| ≤ eps_lhs ⇒ |t[Y] − u[Y]| ≤ delta_rhs`.
///
/// Tuples with nulls on either attribute are skipped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DifferentialDep {
    /// Source attribute X.
    pub lhs: usize,
    /// Constrained attribute Y.
    pub rhs: usize,
    /// Closeness threshold on X.
    pub eps_lhs: f64,
    /// Implied closeness threshold on Y.
    pub delta_rhs: f64,
}

impl DifferentialDep {
    /// Creates the DD with the given thresholds.
    pub fn new(lhs: usize, rhs: usize, eps_lhs: f64, delta_rhs: f64) -> Self {
        Self {
            lhs,
            rhs,
            eps_lhs,
            delta_rhs,
        }
    }

    /// Exact validation. Sorting by X lets each tuple only be compared
    /// against its ε-neighbourhood, so this is `O(n log n + n·w)` where `w`
    /// is the neighbourhood width, rather than `O(n²)`.
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        let xs = &relation.column_values(self.lhs)?;
        let ys = &relation.column_values(self.rhs)?;
        let mut pairs: Vec<(f64, f64)> = xs
            .iter()
            .zip(ys.iter())
            .filter_map(|(x, y)| Some((x.as_f64()?, y.as_f64()?)))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                if pairs[j].0 - pairs[i].0 > self.eps_lhs {
                    break;
                }
                if (pairs[j].1 - pairs[i].1).abs() > self.delta_rhs {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// An ordered functional dependency (§IV-E, Ng \[18\]): the conjunction of
/// the FD `X → Y` and the strict-order condition
/// `t[X] < u[X] ⇒ t[Y] < u[Y]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OrderedFd {
    /// Determinant attribute X.
    pub lhs: usize,
    /// Dependent attribute Y.
    pub rhs: usize,
}

impl OrderedFd {
    /// Creates the OFD `lhs → rhs`.
    pub fn new(lhs: usize, rhs: usize) -> Self {
        Self { lhs, rhs }
    }

    /// Exact validation: equal X ⇒ equal Y, and strictly increasing X ⇒
    /// strictly increasing Y (nulls skipped).
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        let xs = &relation.column_values(self.lhs)?;
        let ys = &relation.column_values(self.rhs)?;
        let mut pairs: Vec<(&Value, &Value)> = xs
            .iter()
            .zip(ys.iter())
            .filter(|(x, y)| !x.is_null() && !y.is_null())
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        Ok(pairs.windows(2).all(|w| {
            let &[(x0, y0), (x1, y1)] = w else {
                return true;
            };
            if x0 == x1 {
                y0 == y1
            } else {
                y0 < y1
            }
        }))
    }
}

/// Any dependency the paper's metadata exchange may carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Dependency {
    /// Strict functional dependency (§III-B).
    Fd(Fd),
    /// Approximate functional dependency (§IV-A).
    Afd(Afd),
    /// Order dependency (§IV-C).
    Od(OrderDep),
    /// Numerical dependency (§IV-B).
    Nd(NumericalDep),
    /// Differential dependency (§IV-D).
    Dd(DifferentialDep),
    /// Ordered functional dependency (§IV-E).
    Ofd(OrderedFd),
    /// Conditional functional dependency (paper ref \[7\]; see
    /// [`crate::ConditionalFd`] for why this class is privacy-special).
    Cfd(ConditionalFd),
}

impl Dependency {
    /// Validates the dependency against a relation using its class's exact
    /// semantics.
    pub fn holds(&self, relation: &Relation) -> Result<bool> {
        match self {
            Dependency::Fd(d) => d.holds(relation),
            Dependency::Afd(d) => d.holds(relation),
            Dependency::Od(d) => d.holds(relation),
            Dependency::Nd(d) => d.holds(relation),
            Dependency::Dd(d) => d.holds(relation),
            Dependency::Ofd(d) => d.holds(relation),
            Dependency::Cfd(d) => d.holds(relation),
        }
    }

    /// The determinant attributes.
    pub fn lhs(&self) -> AttrSet {
        match self {
            Dependency::Fd(d) => d.lhs.clone(),
            Dependency::Afd(d) => d.fd.lhs.clone(),
            Dependency::Od(d) => AttrSet::single(d.lhs),
            Dependency::Nd(d) => AttrSet::single(d.lhs),
            Dependency::Dd(d) => AttrSet::single(d.lhs),
            Dependency::Ofd(d) => AttrSet::single(d.lhs),
            Dependency::Cfd(d) => d.lhs_attrs(),
        }
    }

    /// The dependent attribute.
    pub fn rhs(&self) -> usize {
        match self {
            Dependency::Fd(d) => d.rhs,
            Dependency::Afd(d) => d.fd.rhs,
            Dependency::Od(d) => d.rhs,
            Dependency::Nd(d) => d.rhs,
            Dependency::Dd(d) => d.rhs,
            Dependency::Ofd(d) => d.rhs,
            Dependency::Cfd(d) => d.rhs,
        }
    }

    /// Short class tag used in reports (`FD`, `AFD`, `OD`, `ND`, `DD`,
    /// `OFD`).
    pub fn class(&self) -> &'static str {
        match self {
            Dependency::Fd(_) => "FD",
            Dependency::Afd(_) => "AFD",
            Dependency::Od(_) => "OD",
            Dependency::Nd(_) => "ND",
            Dependency::Dd(_) => "DD",
            Dependency::Ofd(_) => "OFD",
            Dependency::Cfd(_) => "CFD",
        }
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dependency::Fd(d) => write!(f, "FD {} -> {}", d.lhs, d.rhs),
            Dependency::Afd(d) => {
                write!(
                    f,
                    "AFD {} -> {} (g3<={})",
                    d.fd.lhs, d.fd.rhs, d.g3_threshold
                )
            }
            Dependency::Od(d) => {
                let arrow = match d.direction {
                    OrderDirection::Ascending => "<=",
                    OrderDirection::Descending => ">=",
                };
                write!(f, "OD {} {} {}", d.lhs, arrow, d.rhs)
            }
            Dependency::Nd(d) => write!(f, "ND {} ->{{{}}} {}", d.lhs, d.k, d.rhs),
            Dependency::Dd(d) => {
                write!(
                    f,
                    "DD {} (eps={}) -> {} (delta={})",
                    d.lhs, d.eps_lhs, d.rhs, d.delta_rhs
                )
            }
            Dependency::Ofd(d) => write!(f, "OFD {} -> {}", d.lhs, d.rhs),
            Dependency::Cfd(d) => write!(f, "{d}"),
        }
    }
}

impl From<Fd> for Dependency {
    fn from(d: Fd) -> Self {
        Dependency::Fd(d)
    }
}
impl From<Afd> for Dependency {
    fn from(d: Afd) -> Self {
        Dependency::Afd(d)
    }
}
impl From<OrderDep> for Dependency {
    fn from(d: OrderDep) -> Self {
        Dependency::Od(d)
    }
}
impl From<NumericalDep> for Dependency {
    fn from(d: NumericalDep) -> Self {
        Dependency::Nd(d)
    }
}
impl From<DifferentialDep> for Dependency {
    fn from(d: DifferentialDep) -> Self {
        Dependency::Dd(d)
    }
}
impl From<OrderedFd> for Dependency {
    fn from(d: OrderedFd) -> Self {
        Dependency::Ofd(d)
    }
}
impl From<ConditionalFd> for Dependency {
    fn from(d: ConditionalFd) -> Self {
        Dependency::Cfd(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema};

    /// The paper's Table II: employee(Name, Age, Department, Salary).
    fn employee() -> Relation {
        let schema = Schema::new(vec![
            Attribute::categorical("Name"),
            Attribute::continuous("Age"),
            Attribute::categorical("Department"),
            Attribute::continuous("Salary"),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![
                    "Alice".into(),
                    18i64.into(),
                    "Sales".into(),
                    20_000i64.into(),
                ],
                vec![
                    "Bob".into(),
                    22i64.into(),
                    "Customer Service".into(),
                    25_000i64.into(),
                ],
                vec![
                    "Charlie".into(),
                    22i64.into(),
                    "Sales".into(),
                    27_000i64.into(),
                ],
                vec![
                    "Danny".into(),
                    26i64.into(),
                    "Management".into(),
                    35_000i64.into(),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_fds_hold() {
        let r = employee();
        // Example 2.1: Name → Age and Name → Salary.
        assert!(Fd::new(0usize, 1).holds(&r).unwrap());
        assert!(Fd::new(0usize, 3).holds(&r).unwrap());
        // Age does not determine Salary (Bob/Charlie tie on age).
        assert!(!Fd::new(1usize, 3).holds(&r).unwrap());
    }

    #[test]
    fn composite_lhs_fd() {
        let r = employee();
        // {Age, Department} → Salary holds (all pairs unique).
        assert!(Fd::new(vec![1, 2], 3).holds(&r).unwrap());
    }

    #[test]
    fn trivial_fd_holds() {
        let r = employee();
        let fd = Fd::new(vec![1, 2], 1);
        assert!(fd.holds(&r).unwrap());
    }

    #[test]
    fn empty_lhs_fd_means_constant_column() {
        let r = employee();
        assert!(!Fd::new(AttrSet::empty(), 3).holds(&r).unwrap());
        let schema = Schema::new(vec![Attribute::categorical("c")]).unwrap();
        let constant =
            Relation::from_rows(schema, vec![vec!["x".into()], vec!["x".into()]]).unwrap();
        assert!(Fd::new(AttrSet::empty(), 0).holds(&constant).unwrap());
    }

    #[test]
    fn afd_tolerates_g3_budget() {
        let r = employee();
        // Age → Salary violated by one of the two age-22 rows: g3 = 1/4.
        let err = Fd::new(1usize, 3).g3_error(&r).unwrap();
        assert!((err - 0.25).abs() < 1e-12);
        assert!(!Afd::new(1usize, 3, 0.2).holds(&r).unwrap());
        assert!(Afd::new(1usize, 3, 0.25).holds(&r).unwrap());
    }

    #[test]
    fn order_dependency_semantics() {
        let r = employee();
        // Age ≤ → Salary ≤ fails: ties on age (22) map to 25k vs 27k.
        assert!(!OrderDep::ascending(1, 3).holds(&r).unwrap());
        // Salary ≤ → Age ≤ holds: salaries are unique and age is monotone.
        assert!(OrderDep::ascending(3, 1).holds(&r).unwrap());
        // Descending direction fails on this data.
        assert!(!OrderDep::descending(3, 1).holds(&r).unwrap());
    }

    #[test]
    fn order_dependency_skips_nulls() {
        let schema =
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![1.0.into(), 10.0.into()],
                vec![Value::Null, 0.0.into()],
                vec![2.0.into(), 20.0.into()],
            ],
        )
        .unwrap();
        assert!(OrderDep::ascending(0, 1).holds(&r).unwrap());
    }

    #[test]
    fn numerical_dependency_fanout() {
        let r = employee();
        // Department → Salary: Sales maps to {20k, 27k} → fanout 2.
        assert_eq!(NumericalDep::max_fanout(2, 3, &r).unwrap(), 2);
        assert!(!NumericalDep::new(2, 3, 1).holds(&r).unwrap());
        assert!(NumericalDep::new(2, 3, 2).holds(&r).unwrap());
        // k=1 ND is exactly the FD.
        assert!(NumericalDep::new(0, 3, 1).holds(&r).unwrap());
    }

    #[test]
    fn numerical_dependency_empty_relation() {
        let schema = Schema::new(vec![
            Attribute::categorical("a"),
            Attribute::categorical("b"),
        ])
        .unwrap();
        let r = Relation::empty(schema);
        assert_eq!(NumericalDep::max_fanout(0, 1, &r).unwrap(), 0);
        assert!(NumericalDep::new(0, 1, 1).holds(&r).unwrap());
    }

    #[test]
    fn differential_dependency_semantics() {
        let r = employee();
        // Ages within 4 of each other have salaries within 7k:
        // pairs (18,22):Δsal≤7k, (22,22):2k, (22,26):8k>7k → violated.
        assert!(!DifferentialDep::new(1, 3, 4.0, 7_000.0).holds(&r).unwrap());
        assert!(DifferentialDep::new(1, 3, 4.0, 10_000.0).holds(&r).unwrap());
        // eps 0 groups only exact ties: ages 22/22 → salaries differ by 2k.
        assert!(!DifferentialDep::new(1, 3, 0.0, 1_000.0).holds(&r).unwrap());
        assert!(DifferentialDep::new(1, 3, 0.0, 2_000.0).holds(&r).unwrap());
    }

    #[test]
    fn ordered_fd_semantics() {
        let r = employee();
        // Salary → Age as OFD: strictly increasing salary ⇒ strictly
        // increasing age? Ages are 18, 22, 22, 26 over sorted salary —
        // 22 repeats for distinct salaries, violating strictness.
        assert!(!OrderedFd::new(3, 1).holds(&r).unwrap());
        // Age → Salary fails (ties). Name → Salary is an FD but names are
        // not ordered consistently with salary (Alice<Bob<Charlie<Danny
        // lexicographic happens to match increasing salary) → holds.
        assert!(OrderedFd::new(0, 3).holds(&r).unwrap());
    }

    #[test]
    fn dependency_enum_dispatch() {
        let r = employee();
        let deps: Vec<Dependency> = vec![
            Fd::new(0usize, 1).into(),
            Afd::new(1usize, 3, 0.25).into(),
            OrderDep::ascending(3, 1).into(),
            NumericalDep::new(2, 3, 2).into(),
            DifferentialDep::new(1, 3, 4.0, 10_000.0).into(),
            OrderedFd::new(0, 3).into(),
        ];
        for d in &deps {
            assert!(d.holds(&r).unwrap(), "{d} should hold");
            assert!(!d.class().is_empty());
            assert!(!d.lhs().is_empty() || matches!(d, Dependency::Fd(_)));
            let _ = d.rhs();
        }
    }

    #[test]
    fn display_is_readable() {
        let d: Dependency = Fd::new(vec![0, 2], 3).into();
        assert_eq!(d.to_string(), "FD {0,2} -> 3");
        let d: Dependency = NumericalDep::new(1, 2, 4).into();
        assert_eq!(d.to_string(), "ND 1 ->{4} 2");
    }

    #[test]
    fn serde_roundtrip_all_classes() {
        let deps: Vec<Dependency> = vec![
            Fd::new(vec![0, 1], 2).into(),
            Afd::new(0usize, 1, 0.1).into(),
            OrderDep::descending(0, 1).into(),
            NumericalDep::new(0, 1, 3).into(),
            DifferentialDep::new(0, 1, 0.5, 2.0).into(),
            OrderedFd::new(0, 1).into(),
        ];
        let json = serde_json::to_string(&deps).unwrap();
        let back: Vec<Dependency> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, deps);
    }
}
