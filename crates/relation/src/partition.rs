//! Stripped partitions (position list indexes) in the style of TANE
//! (Huhtala et al., cited as \[13\] in the paper).
//!
//! A partition Π_X groups tuple indices by their value on attribute set X.
//! The *stripped* form drops singleton groups, which keeps intersection
//! (the inner loop of level-wise FD discovery) proportional to the number of
//! duplicated tuples rather than |R|.

use crate::column::Column;
use crate::value::Value;
use std::collections::HashMap;

/// A stripped partition over the tuples of a relation.
///
/// Invariants: every cluster has length ≥ 2, clusters are internally sorted,
/// and clusters are sorted by their first element, so two `Pli`s computed
/// from equivalent groupings compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pli {
    clusters: Vec<Vec<usize>>,
    n_rows: usize,
}

impl Pli {
    /// Builds the stripped partition of a single column.
    pub fn from_column(column: &[Value]) -> Self {
        // lint: allow(no-unordered-iteration) reason="clusters are sorted by first row index before they leave this function"
        let mut groups: HashMap<&Value, Vec<usize>> = HashMap::new();
        for (i, v) in column.iter().enumerate() {
            groups.entry(v).or_default().push(i);
        }
        let mut clusters: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        // Rows were pushed in index order, so each cluster is sorted already.
        clusters.sort_by_key(|c| c[0]); // lint: allow(no-literal-index) reason="clusters are filtered to len >= 2 one line above"
        Self {
            clusters,
            n_rows: column.len(),
        }
    }

    /// Builds the stripped partition of a typed column, grouping by the
    /// column's equality-class codes — a single counting-style pass with no
    /// `Value` hashing. Produces output identical to [`Pli::from_column`]
    /// over the materialised values.
    pub fn from_typed(column: &Column) -> Self {
        let (codes, n_codes) = column.group_codes();
        Self::from_codes(&codes, n_codes)
    }

    /// Builds the stripped partition from per-row equality-class codes
    /// (`codes[i] < n_codes` for all rows; two rows share a code iff their
    /// cells are equal). Counting-style: one pass to size each group, one
    /// pass to scatter row indices, so clusters come out internally sorted
    /// without hashing.
    pub fn from_codes(codes: &[u32], n_codes: usize) -> Self {
        let mut counts = vec![0u32; n_codes];
        for &c in codes {
            counts[c as usize] += 1;
        }
        // Only codes occurring ≥ 2 times produce (stripped) clusters.
        let mut slot = vec![usize::MAX; n_codes];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for (code, &count) in counts.iter().enumerate() {
            if count >= 2 {
                slot[code] = clusters.len();
                clusters.push(Vec::with_capacity(count as usize));
            }
        }
        for (row, &c) in codes.iter().enumerate() {
            let s = slot[c as usize];
            if s != usize::MAX {
                clusters[s].push(row);
            }
        }
        // Rows were scattered in index order, so each cluster is sorted.
        clusters.sort_by_key(|c| c[0]); // lint: allow(no-literal-index) reason="only codes counted at least twice get a cluster"
        Self {
            clusters,
            n_rows: codes.len(),
        }
    }

    /// Estimated retained heap bytes: the cluster spine plus every stored
    /// row index. A deterministic function of the logical shape (lengths,
    /// never allocator capacities), so equal partitions always account
    /// equally in byte-budgeted caches.
    pub fn heap_bytes(&self) -> usize {
        let spine = self.clusters.len() * std::mem::size_of::<Vec<usize>>();
        let rows: usize = self
            .clusters
            .iter()
            .map(|c| c.len() * std::mem::size_of::<usize>())
            .sum();
        spine + rows
    }

    /// Builds a partition directly from clusters (used by tests and by
    /// generators that know the grouping). Singleton clusters are stripped.
    pub fn from_clusters(mut clusters: Vec<Vec<usize>>, n_rows: usize) -> Self {
        clusters.retain(|c| c.len() >= 2);
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c[0]); // lint: allow(no-literal-index) reason="the retain above drops clusters shorter than 2"
        Self { clusters, n_rows }
    }

    /// The single-cluster partition {{0..n}} (partition of the empty
    /// attribute set: all tuples agree on ∅).
    pub fn unit(n_rows: usize) -> Self {
        if n_rows >= 2 {
            Self {
                clusters: vec![(0..n_rows).collect()],
                n_rows,
            }
        } else {
            Self {
                clusters: vec![],
                n_rows,
            }
        }
    }

    /// Clusters of size ≥ 2.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Number of tuples in the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of (non-singleton) clusters, |Π| in TANE notation.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Total tuples covered by non-singleton clusters, ||Π|| in TANE.
    pub fn covered_count(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }

    /// TANE's key-pruning error `e(X) = (||Π|| − |Π|) / |R|`: the fraction of
    /// tuples that must be removed for X to become a key. Zero iff X is a
    /// (super)key.
    pub fn key_error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        (self.covered_count() - self.cluster_count()) as f64 / self.n_rows as f64
    }

    /// `true` iff the attribute set is a superkey (no duplicate groups).
    pub fn is_key(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Row → cluster-id map where rows in no cluster get `None`.
    pub fn signature(&self) -> Vec<Option<usize>> {
        let mut sig = vec![None; self.n_rows];
        for (cid, cluster) in self.clusters.iter().enumerate() {
            for &row in cluster {
                sig[row] = Some(cid);
            }
        }
        sig
    }

    /// Row → cluster-id map of the *full* partition: singleton rows receive
    /// fresh unique ids after the stripped clusters. Two rows share an id
    /// iff they agree on the attribute set.
    pub fn full_signature(&self) -> Vec<usize> {
        let mut sig = vec![usize::MAX; self.n_rows];
        for (cid, cluster) in self.clusters.iter().enumerate() {
            for &row in cluster {
                sig[row] = cid;
            }
        }
        let mut next = self.clusters.len();
        for s in &mut sig {
            if *s == usize::MAX {
                *s = next;
                next += 1;
            }
        }
        sig
    }

    /// Partition product Π_X ∩ Π_Y = Π_{X∪Y}, the TANE `STRIPPED_PRODUCT`.
    ///
    /// Linear in `||Π_self|| + ||Π_other||` after building `other`'s
    /// signature once; callers doing many intersections against the same
    /// partition should use [`Pli::intersect_with_signature`].
    pub fn intersect(&self, other: &Pli) -> Pli {
        debug_assert_eq!(self.n_rows, other.n_rows);
        let sig = other.signature();
        self.intersect_with_signature(&sig)
    }

    /// Partition product against a precomputed signature of the other side.
    pub fn intersect_with_signature(&self, other_sig: &[Option<usize>]) -> Pli {
        let mut out: Vec<Vec<usize>> = Vec::new();
        // lint: allow(no-unordered-iteration) reason="drained groups are sorted by first row index before they leave this function"
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for cluster in &self.clusters {
            groups.clear();
            for &row in cluster {
                if let Some(oid) = other_sig[row] {
                    groups.entry(oid).or_default().push(row);
                }
            }
            for (_, g) in groups.drain() {
                if g.len() >= 2 {
                    out.push(g);
                }
            }
        }
        out.sort_by_key(|c| c[0]); // lint: allow(no-literal-index) reason="only groups of len >= 2 are pushed into out"
        Pli {
            clusters: out,
            n_rows: self.n_rows,
        }
    }

    /// `true` iff this partition refines `other`: every cluster of `self`
    /// lies inside one cluster (or singleton) of `other`.
    ///
    /// `Π_X` refines `Π_Y` iff the FD X → Y holds when `other` is the full
    /// partition of Y — use [`Pli::satisfies_fd`] for that check, which also
    /// handles `other`'s singleton identity correctly.
    pub fn refines(&self, other: &Pli) -> bool {
        let sig = other.full_signature();
        self.clusters.iter().all(|cluster| {
            let first = sig[cluster[0]]; // lint: allow(no-literal-index) reason="Pli invariant: stored clusters always have len >= 2"
            cluster[1..].iter().all(|&r| sig[r] == first)
        })
    }

    /// Checks the FD X → Y given `self` = Π_X and the full signature of Y
    /// (`rhs_full_sig`, from [`Pli::full_signature`] of Π_Y).
    pub fn satisfies_fd(&self, rhs_full_sig: &[usize]) -> bool {
        self.clusters.iter().all(|cluster| {
            let first = rhs_full_sig[cluster[0]]; // lint: allow(no-literal-index) reason="Pli invariant: stored clusters always have len >= 2"
            cluster[1..].iter().all(|&r| rhs_full_sig[r] == first)
        })
    }

    /// Minimum number of tuples to delete so that X → Y holds — the
    /// numerator of the `g3` error (Kivinen & Mannila, paper ref \[14\]).
    ///
    /// For each X-cluster we keep the plurality Y-group and delete the rest;
    /// X-singletons never violate.
    pub fn g3_violations(&self, rhs_full_sig: &[usize]) -> usize {
        let mut total = 0;
        // lint: allow(no-unordered-iteration) reason="only the order-independent maximum of the counts is read"
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for cluster in &self.clusters {
            counts.clear();
            for &row in cluster {
                *counts.entry(rhs_full_sig[row]).or_insert(0) += 1;
            }
            let max = counts.values().copied().max().unwrap_or(0);
            total += cluster.len() - max;
        }
        total
    }

    /// The `g3` error of X → Y: violations normalised by |R|.
    pub fn g3_error(&self, rhs_full_sig: &[usize]) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.g3_violations(rhs_full_sig) as f64 / self.n_rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn from_column_strips_singletons() {
        // values: a a b c c c  → clusters {0,1} {3,4,5}
        let p = Pli::from_column(&vals(&[1, 1, 2, 3, 3, 3]));
        assert_eq!(p.clusters(), &[vec![0, 1], vec![3, 4, 5]]);
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.covered_count(), 5);
        assert!(!p.is_key());
    }

    #[test]
    fn key_column_has_empty_stripped_partition() {
        let p = Pli::from_column(&vals(&[1, 2, 3, 4]));
        assert!(p.is_key());
        assert_eq!(p.key_error(), 0.0);
    }

    #[test]
    fn key_error_matches_tane_formula() {
        let p = Pli::from_column(&vals(&[1, 1, 1, 2, 2, 9]));
        // ||Π|| = 5, |Π| = 2, |R| = 6 → e = 3/6.
        assert!((p.key_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intersection_is_conjunction_of_groupings() {
        // X: a a a b b    Y: 1 1 2 2 2
        let x = Pli::from_column(&vals(&[10, 10, 10, 20, 20]));
        let y = Pli::from_column(&vals(&[1, 1, 2, 2, 2]));
        let xy = x.intersect(&y);
        // XY groups: (a,1):{0,1} (a,2):{2} (b,2):{3,4}
        assert_eq!(xy.clusters(), &[vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn intersection_with_unit_is_identity() {
        let x = Pli::from_column(&vals(&[1, 1, 2, 2, 3]));
        let u = Pli::unit(5);
        assert_eq!(x.intersect(&u), x);
        assert_eq!(u.intersect(&x), x);
    }

    #[test]
    fn intersection_commutes() {
        let x = Pli::from_column(&vals(&[1, 1, 2, 2, 3, 3, 3]));
        let y = Pli::from_column(&vals(&[5, 6, 6, 6, 5, 5, 6]));
        assert_eq!(x.intersect(&y), y.intersect(&x));
    }

    #[test]
    fn full_signature_distinguishes_singletons() {
        let p = Pli::from_column(&vals(&[7, 7, 8, 9]));
        let sig = p.full_signature();
        assert_eq!(sig[0], sig[1]);
        assert_ne!(sig[2], sig[3]);
        assert_ne!(sig[0], sig[2]);
    }

    #[test]
    fn fd_satisfaction() {
        // X: a a b b   Y: 1 1 2 2 → X→Y holds.
        let x = Pli::from_column(&vals(&[1, 1, 2, 2]));
        let y = Pli::from_column(&vals(&[9, 9, 8, 8]));
        assert!(x.satisfies_fd(&y.full_signature()));

        // Y': 1 2 2 2 → X→Y' violated in cluster {0,1}.
        let y2 = Pli::from_column(&vals(&[1, 2, 2, 2]));
        assert!(!x.satisfies_fd(&y2.full_signature()));
    }

    #[test]
    fn fd_with_rhs_singletons() {
        // X: a a   Y: 1 2 (distinct singletons) → violated.
        let x = Pli::from_column(&vals(&[1, 1]));
        let y = Pli::from_column(&vals(&[1, 2]));
        assert!(!x.satisfies_fd(&y.full_signature()));
    }

    #[test]
    fn g3_counts_minimum_deletions() {
        // X: a a a a  Y: 1 1 2 3 → keep plurality (1,1), delete 2 rows.
        let x = Pli::from_column(&vals(&[5, 5, 5, 5]));
        let y = Pli::from_column(&vals(&[1, 1, 2, 3]));
        assert_eq!(x.g3_violations(&y.full_signature()), 2);
        assert!((x.g3_error(&y.full_signature()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn g3_zero_for_valid_fd() {
        let x = Pli::from_column(&vals(&[1, 1, 2]));
        let y = Pli::from_column(&vals(&[4, 4, 4]));
        assert_eq!(x.g3_violations(&y.full_signature()), 0);
    }

    #[test]
    fn refines_checks_containment() {
        let fine = Pli::from_clusters(vec![vec![0, 1], vec![2, 3]], 5);
        let coarse = Pli::from_clusters(vec![vec![0, 1, 2, 3]], 5);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
    }

    #[test]
    fn unit_of_tiny_relations() {
        assert!(Pli::unit(0).is_key());
        assert!(Pli::unit(1).is_key());
        assert_eq!(Pli::unit(2).cluster_count(), 1);
    }

    #[test]
    fn empty_relation_edge_cases() {
        let p = Pli::from_column(&[]);
        assert!(p.is_key());
        assert_eq!(p.key_error(), 0.0);
        assert_eq!(p.g3_error(&[]), 0.0);
    }

    #[test]
    fn from_codes_matches_from_column() {
        // codes: 1 1 2 0 0 3 1 → clusters {0,1,6} {3,4}
        let p = Pli::from_codes(&[1, 1, 2, 0, 0, 3, 1], 4);
        assert_eq!(p.clusters(), &[vec![0, 1, 6], vec![3, 4]]);
        assert_eq!(p, Pli::from_column(&vals(&[1, 1, 2, 0, 0, 3, 1])));
        assert!(Pli::from_codes(&[], 0).is_key());
    }

    #[test]
    fn heap_bytes_counts_spine_and_rows() {
        let p = Pli::from_clusters(vec![vec![0, 1], vec![2, 3, 4]], 6);
        let expected = 2 * std::mem::size_of::<Vec<usize>>() + 5 * std::mem::size_of::<usize>();
        assert_eq!(p.heap_bytes(), expected);
        // Key partitions retain nothing.
        assert_eq!(Pli::from_column(&vals(&[1, 2, 3])).heap_bytes(), 0);
    }

    #[test]
    fn from_typed_matches_from_column() {
        use crate::value::Value;
        let values = vec![
            Value::Int(2),
            Value::Float(2.0),
            Value::Null,
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Int(2),
        ];
        let boxed = Column::Boxed(values.clone());
        assert_eq!(Pli::from_typed(&boxed), Pli::from_column(&values));

        // Typed float layout with the int mask groups identically.
        let mut col = Column::default();
        for v in &values {
            col.push_value(v.clone());
        }
        assert!(matches!(col, Column::Float { .. }));
        assert_eq!(Pli::from_typed(&col), Pli::from_column(&values));
    }
}
