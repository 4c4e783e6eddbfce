//! Compact attribute sets (sorted index vectors).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of attribute indices, stored sorted and de-duplicated.
///
/// Dependency left-hand sides and closures are attribute sets; keeping them
/// as sorted `Vec<usize>` makes subset tests linear, keeps them hashable for
/// level-wise discovery, and keeps serialisation obvious.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrSet(Vec<usize>);

impl AttrSet {
    /// The empty set.
    pub fn empty() -> Self {
        AttrSet(Vec::new())
    }

    /// A singleton set.
    pub fn single(attr: usize) -> Self {
        AttrSet(vec![attr])
    }

    /// Builds from any index iterator (sorted, de-duplicated).
    ///
    /// Shadows `FromIterator::from_iter` deliberately: `AttrSet::from_iter`
    /// reads better at call sites than `.collect::<AttrSet>()`.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut v: Vec<usize> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        AttrSet(v)
    }

    /// Number of attributes in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sorted indices.
    pub fn indices(&self) -> &[usize] {
        &self.0
    }

    /// Iterator over indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().copied()
    }

    /// Membership test (binary search).
    pub(crate) fn contains(&self, attr: usize) -> bool {
        self.0.binary_search(&attr).is_ok()
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset_of(&self, other: &AttrSet) -> bool {
        let mut it = other.0.iter();
        'outer: for a in &self.0 {
            for b in it.by_ref() {
                match b.cmp(a) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Set union.
    pub fn union(&self, other: &AttrSet) -> AttrSet {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    v.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&self.0[i..]);
        v.extend_from_slice(&other.0[j..]);
        AttrSet(v)
    }

    /// Inserts one attribute, returning the extended set.
    pub(crate) fn with(&self, attr: usize) -> AttrSet {
        if self.contains(attr) {
            self.clone()
        } else {
            let mut v = self.0.clone();
            let pos = v.partition_point(|&x| x < attr);
            v.insert(pos, attr);
            AttrSet(v)
        }
    }

    /// Removes one attribute, returning the reduced set.
    pub fn without(&self, attr: usize) -> AttrSet {
        AttrSet(self.0.iter().copied().filter(|&a| a != attr).collect())
    }

    /// Renders the set against attribute names, e.g. `{Name, Age}`.
    pub fn display_with(&self, names: &[String]) -> String {
        let parts: Vec<&str> = self
            .0
            .iter()
            .map(|&i| names.get(i).map_or("<?>", String::as_str))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for AttrSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        AttrSet::from_iter(iter)
    }
}

impl From<Vec<usize>> for AttrSet {
    fn from(v: Vec<usize>) -> Self {
        AttrSet::from_iter(v)
    }
}

impl From<usize> for AttrSet {
    fn from(a: usize) -> Self {
        AttrSet::single(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let s = AttrSet::from_iter([3, 1, 3, 0]);
        assert_eq!(s.indices(), &[0, 1, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn subset_tests() {
        let a = AttrSet::from_iter([1, 3]);
        let b = AttrSet::from_iter([0, 1, 3, 5]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(AttrSet::empty().is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        let c = AttrSet::from_iter([1, 4]);
        assert!(!c.is_subset_of(&b));
    }

    #[test]
    fn union_merges() {
        let a = AttrSet::from_iter([0, 2]);
        let b = AttrSet::from_iter([1, 2, 4]);
        assert_eq!(a.union(&b).indices(), &[0, 1, 2, 4]);
        assert_eq!(AttrSet::empty().union(&a), a);
    }

    #[test]
    fn with_and_without() {
        let a = AttrSet::from_iter([0, 2]);
        assert_eq!(a.with(1).indices(), &[0, 1, 2]);
        assert_eq!(a.with(2).indices(), &[0, 2]);
        assert_eq!(a.without(0).indices(), &[2]);
        assert_eq!(a.without(7).indices(), &[0, 2]);
    }

    #[test]
    fn display_variants() {
        let s = AttrSet::from_iter([0, 2]);
        assert_eq!(s.to_string(), "{0,2}");
        let names = vec!["Name".to_owned(), "Age".to_owned(), "Dept".to_owned()];
        assert_eq!(s.display_with(&names), "{Name, Dept}");
        assert_eq!(AttrSet::single(9).display_with(&names), "{<?>}");
    }

    #[test]
    fn conversions() {
        assert_eq!(AttrSet::from(vec![2, 1]).indices(), &[1, 2]);
        assert_eq!(AttrSet::from(4usize).indices(), &[4]);
        let collected: AttrSet = [5usize, 5, 1].into_iter().collect();
        assert_eq!(collected.indices(), &[1, 5]);
    }
}
