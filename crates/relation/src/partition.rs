//! Stripped partitions (position list indexes) in the style of TANE
//! (Huhtala et al., cited as \[13\] in the paper).
//!
//! A partition Π_X groups tuple indices by their value on attribute set X.
//! The *stripped* form drops singleton groups, which keeps intersection
//! (the inner loop of level-wise FD discovery) proportional to the number of
//! duplicated tuples rather than |R|.
//!
//! Layout: compressed sparse rows. One `Vec<u32>` holds the row ids of
//! every cluster, cluster after cluster, and a second holds where each
//! cluster starts, so a partition costs 4 bytes per stored row and per
//! cluster, in two allocations. Row ids are `u32`, which is why
//! [`Relation`](crate::Relation) refuses more than `u32::MAX` rows.
//!
//! Nothing here hashes rows. A [`Signature`] maps each row to its cluster
//! id; the product and the `g3` count walk one side's clusters and tally
//! the other side's ids in a probe table indexed by cluster id. Each slot
//! carries the epoch (the number of the cluster being walked) that last
//! wrote it, so a stale slot reads as empty and the table is never
//! cleared between clusters — TANE's `STRIPPED_PRODUCT`.

use crate::column::Column;
use crate::relation::Relation;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;

/// A stripped partition over the tuples of a relation.
///
/// Invariants: every cluster has length ≥ 2, clusters are internally sorted,
/// and clusters are sorted by their first element, so two `Pli`s computed
/// from equivalent groupings compare equal. A partition covers at most
/// `u32::MAX` rows (row ids are `u32`); the constructors panic beyond that
/// rather than truncate a row id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pli {
    /// Row ids of every cluster, cluster after cluster.
    rows: Vec<u32>,
    /// Where each cluster starts in `rows`; it ends where the next starts.
    starts: Vec<u32>,
    n_rows: usize,
}

/// Row → cluster id of a stripped partition, 4 bytes per row.
///
/// Rows in no stripped cluster read [`Signature::SINGLETON`]. Two rows
/// agree on the partition's attributes iff they share an id other than
/// `SINGLETON`: every `SINGLETON` row is a class of its own, and the
/// partition methods taking a `Signature` count it that way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    ids: Vec<u32>,
    clusters: usize,
}

impl Signature {
    /// The id of a row that lies in no stripped cluster.
    pub const SINGLETON: u32 = u32::MAX;

    /// The id of every row (`ids()[r]` for row `r`).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of stripped clusters; every id other than `SINGLETON` is
    /// below it.
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }
}

/// A code or probe slot whose cluster has no rows placed yet.
const UNPLACED: u32 = u32::MAX;

thread_local! {
    /// The row → cluster id table [`Pli::intersect`] fills for its other
    /// side. It reads `SINGLETON` everywhere between calls, so filling and
    /// clearing it costs that side's stored rows, not |R|, and each thread
    /// allocates it once.
    static ROW_IDS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One probe-table slot of [`Pli::intersect`]: the epoch that last wrote
/// it, how many rows of that cluster carry this id, and where the next of
/// them goes in the output.
#[derive(Clone, Copy)]
struct Probe {
    epoch: u32,
    count: u32,
    next: u32,
}

impl Pli {
    /// Builds the stripped partition of a single column.
    pub fn from_column(column: &[Value]) -> Self {
        let mut ids: HashMap<&Value, u32> = HashMap::new();
        let codes: Vec<u32> = column
            .iter()
            .map(|v| {
                let next = ids.len() as u32;
                *ids.entry(v).or_insert(next)
            })
            .collect();
        Self::from_codes(&codes, ids.len())
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
    /// cells are equal). One pass counts each code; a second opens a
    /// code's cluster at its first row, so clusters come out ordered by
    /// first row, and scatters each row into place.
    pub fn from_codes(codes: &[u32], n_codes: usize) -> Self {
        assert!(codes.len() <= Relation::MAX_ROWS, "row ids are u32");
        let mut counts = vec![0u32; n_codes];
        for &c in codes {
            counts[c as usize] += 1;
        }
        let covered = counts
            .iter()
            .filter(|&&k| k >= 2)
            .map(|&k| k as usize)
            .sum();
        let mut rows = vec![0u32; covered];
        let mut starts = Vec::new();
        // Where each code's next row goes, once its cluster is open.
        let mut next = vec![UNPLACED; n_codes];
        let mut end = 0u32;
        for (row, &c) in (0u32..).zip(codes) {
            let c = c as usize;
            if counts[c] < 2 {
                continue;
            }
            if next[c] == UNPLACED {
                starts.push(end);
                next[c] = end;
                end += counts[c];
            }
            rows[next[c] as usize] = row;
            next[c] += 1;
        }
        Self {
            rows,
            starts,
            n_rows: codes.len(),
        }
    }

    /// Estimated retained heap bytes: 4 per stored row and 4 per cluster
    /// start. A deterministic function of the logical shape (lengths,
    /// never allocator capacities), so equal partitions always account
    /// equally in byte-budgeted caches.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * (self.rows.len() + self.starts.len())
    }

    /// The single-cluster partition {{0..n}} (partition of the empty
    /// attribute set: all tuples agree on ∅).
    pub fn unit(n_rows: usize) -> Self {
        assert!(n_rows <= Relation::MAX_ROWS, "row ids are u32");
        if n_rows < 2 {
            return Self {
                rows: Vec::new(),
                starts: Vec::new(),
                n_rows,
            };
        }
        Self {
            rows: (0..n_rows as u32).collect(),
            starts: vec![0],
            n_rows,
        }
    }

    /// Clusters of size ≥ 2, each a sorted slice of row ids, ordered by
    /// first row.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.starts.len()).map(move |i| {
            let start = self.starts.get(i).map_or(0, |&s| s as usize);
            let end = self
                .starts
                .get(i + 1)
                .map_or(self.rows.len(), |&s| s as usize);
            &self.rows[start..end]
        })
    }

    /// Number of tuples in the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of (non-singleton) clusters, |Π| in TANE notation.
    pub fn cluster_count(&self) -> usize {
        self.starts.len()
    }

    /// Total tuples covered by non-singleton clusters, ||Π|| in TANE.
    pub fn covered_count(&self) -> usize {
        self.rows.len()
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
        self.starts.is_empty()
    }

    /// Writes every stored row's cluster id into `ids` (rows in no cluster
    /// are left as they are).
    fn write_ids(&self, ids: &mut [u32]) {
        for (cluster, id) in self.clusters().zip(0u32..) {
            for &r in cluster {
                ids[r as usize] = id;
            }
        }
    }

    /// Row → cluster id map, [`Signature::SINGLETON`] for rows in no
    /// cluster.
    pub fn signature(&self) -> Signature {
        let mut ids = vec![Signature::SINGLETON; self.n_rows];
        self.write_ids(&mut ids);
        Signature {
            ids,
            clusters: self.cluster_count(),
        }
    }

    /// Partition product Π_X ∩ Π_Y = Π_{X∪Y}, the TANE `STRIPPED_PRODUCT`.
    ///
    /// Linear in `||Π_self|| + ||Π_other||`: `other`'s cluster ids go into
    /// this thread's reused row table, and each cluster of `self` is
    /// walked twice against a probe table sized by `other`'s cluster
    /// count — once to count the rows per id, once to place the groups of
    /// two or more. The groups are then ordered by first row.
    pub fn intersect(&self, other: &Pli) -> Pli {
        debug_assert_eq!(self.n_rows, other.n_rows);
        let fresh = Probe {
            epoch: 0,
            count: 0,
            next: UNPLACED,
        };
        let mut probe = vec![fresh; other.cluster_count()];
        let mut out: Vec<u32> = Vec::new();
        // (first row, start in `out`, length) of every placed group.
        let mut groups: Vec<(u32, u32, u32)> = Vec::new();
        with_row_ids(other, |ids| {
            for (cluster, epoch) in self.clusters().zip(1u32..) {
                for &r in cluster {
                    if let Some(p) = probe.get_mut(ids[r as usize] as usize) {
                        if p.epoch != epoch {
                            *p = Probe { epoch, ..fresh };
                        }
                        p.count += 1;
                    }
                }
                for &r in cluster {
                    let Some(p) = probe.get_mut(ids[r as usize] as usize) else {
                        continue;
                    };
                    if p.count < 2 {
                        continue;
                    }
                    if p.next == UNPLACED {
                        p.next = out.len() as u32;
                        groups.push((r, p.next, p.count));
                        out.resize(out.len() + p.count as usize, 0);
                    }
                    out[p.next as usize] = r;
                    p.next += 1;
                }
            }
        });
        groups.sort_unstable_by_key(|g| g.0);
        let mut rows = Vec::with_capacity(out.len());
        let mut starts = Vec::with_capacity(groups.len());
        for (_, start, len) in groups {
            starts.push(rows.len() as u32);
            rows.extend_from_slice(&out[start as usize..(start + len) as usize]);
        }
        Pli {
            rows,
            starts,
            n_rows: self.n_rows,
        }
    }

    /// `true` iff this partition refines `other`: every cluster of `self`
    /// lies inside one cluster of `other`, i.e. the FD X → Y holds for
    /// `self` = Π_X and `other` = Π_Y.
    pub fn refines(&self, other: &Pli) -> bool {
        self.satisfies_fd(&other.signature())
    }

    /// Checks the FD X → Y given `self` = Π_X and the signature of Π_Y.
    pub fn satisfies_fd(&self, rhs: &Signature) -> bool {
        self.clusters().all(|cluster| match cluster.split_first() {
            Some((&first, rest)) => {
                let id = rhs.ids[first as usize];
                id != Signature::SINGLETON && rest.iter().all(|&r| rhs.ids[r as usize] == id)
            }
            None => true,
        })
    }

    /// Minimum number of tuples to delete so that X → Y holds — the
    /// numerator of the `g3` error (Kivinen & Mannila, paper ref \[14\]).
    ///
    /// For each X-cluster we keep the plurality Y-group and delete the rest;
    /// X-singletons never violate. The Y-groups are tallied in a probe
    /// table sized by Y's cluster count.
    pub fn g3_violations(&self, rhs: &Signature) -> usize {
        // (epoch, rows of the current cluster) per Y cluster.
        let mut probe = vec![(0u32, 0u32); rhs.clusters];
        let mut total = 0;
        for (cluster, epoch) in self.clusters().zip(1u32..) {
            // A row in no Y cluster is a Y-group of one.
            let mut plurality = 1;
            for &r in cluster {
                if let Some(p) = probe.get_mut(rhs.ids[r as usize] as usize) {
                    if p.0 != epoch {
                        *p = (epoch, 0);
                    }
                    p.1 += 1;
                    plurality = plurality.max(p.1);
                }
            }
            total += cluster.len() - plurality as usize;
        }
        total
    }

    /// The `g3` error of X → Y: violations normalised by |R|.
    pub fn g3_error(&self, rhs: &Signature) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.g3_violations(rhs) as f64 / self.n_rows as f64
    }

    /// The most distinct Y values any X-cluster spans, a row in no Y
    /// cluster counting as a value of its own: the tightest `k` of the
    /// numerical dependency X →≤k Y. 1 when X is a key, 0 on an empty
    /// relation.
    pub fn max_fanout(&self, rhs: &Signature) -> usize {
        let mut seen = vec![0u32; rhs.clusters];
        let mut max = usize::from(self.n_rows > 0);
        for (cluster, epoch) in self.clusters().zip(1u32..) {
            let mut distinct = 0;
            for &r in cluster {
                match seen.get_mut(rhs.ids[r as usize] as usize) {
                    Some(s) if *s == epoch => {}
                    Some(s) => {
                        *s = epoch;
                        distinct += 1;
                    }
                    None => distinct += 1,
                }
            }
            max = max.max(distinct);
        }
        max
    }
}

/// Runs `f` on `pli`'s row → cluster id table (`SINGLETON` outside its
/// clusters), borrowed from this thread's [`ROW_IDS`] and cleared again
/// afterwards.
fn with_row_ids<T>(pli: &Pli, f: impl FnOnce(&[u32]) -> T) -> T {
    let run = |ids: &mut Vec<u32>| {
        if ids.len() < pli.n_rows {
            ids.resize(pli.n_rows, Signature::SINGLETON);
        }
        pli.write_ids(ids);
        let out = f(&ids[..pli.n_rows]);
        for &r in &pli.rows {
            ids[r as usize] = Signature::SINGLETON;
        }
        out
    };
    ROW_IDS.with(|table| match table.try_borrow_mut() {
        Ok(mut ids) => run(&mut ids),
        Err(_) => run(&mut Vec::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    fn clusters(p: &Pli) -> Vec<Vec<u32>> {
        p.clusters().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn from_column_strips_singletons() {
        // values: a a b c c c  → clusters {0,1} {3,4,5}
        let p = Pli::from_column(&vals(&[1, 1, 2, 3, 3, 3]));
        assert_eq!(clusters(&p), [vec![0, 1], vec![3, 4, 5]]);
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
        assert_eq!(clusters(&xy), [vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn intersection_orders_interleaved_groups_by_first_row() {
        // X: one cluster {0..5}; Y splits it into {0,3} {1,4} {2,5}.
        let x = Pli::from_column(&vals(&[1, 1, 1, 1, 1, 1]));
        let y = Pli::from_column(&vals(&[7, 8, 9, 7, 8, 9]));
        assert_eq!(
            clusters(&x.intersect(&y)),
            [vec![0, 3], vec![1, 4], vec![2, 5]]
        );
        // X {0,2} {1,3}: the groups of the second cluster start between
        // those of the first.
        let x = Pli::from_column(&vals(&[1, 2, 1, 2, 1, 2]));
        let y = Pli::from_column(&vals(&[5, 5, 5, 5, 6, 6]));
        assert_eq!(clusters(&x.intersect(&y)), [vec![0, 2], vec![1, 3]]);
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
    fn row_table_is_left_clear_for_other_relations() {
        // A larger relation, then a smaller one on the same thread.
        let big = Pli::from_column(&vals(&[1, 1, 1, 2, 2, 2, 3, 3]));
        assert_eq!(big.intersect(&big), big);
        let small = Pli::from_column(&vals(&[4, 5, 4]));
        let key = Pli::from_column(&vals(&[1, 2, 3]));
        assert_eq!(small.intersect(&key), key);
        assert_eq!(small.intersect(&Pli::unit(3)), small);
    }

    #[test]
    fn signature_marks_singletons() {
        let p = Pli::from_column(&vals(&[7, 7, 8, 9]));
        let sig = p.signature();
        assert_eq!(
            sig.ids(),
            [0, 0, Signature::SINGLETON, Signature::SINGLETON]
        );
        assert_eq!(sig.cluster_count(), 1);
    }

    #[test]
    fn fd_satisfaction() {
        // X: a a b b   Y: 1 1 2 2 → X→Y holds.
        let x = Pli::from_column(&vals(&[1, 1, 2, 2]));
        let y = Pli::from_column(&vals(&[9, 9, 8, 8]));
        assert!(x.satisfies_fd(&y.signature()));

        // Y': 1 2 2 2 → X→Y' violated in cluster {0,1}.
        let y2 = Pli::from_column(&vals(&[1, 2, 2, 2]));
        assert!(!x.satisfies_fd(&y2.signature()));
    }

    #[test]
    fn fd_with_rhs_singletons() {
        // X: a a   Y: 1 2 (distinct singletons) → violated.
        let x = Pli::from_column(&vals(&[1, 1]));
        let y = Pli::from_column(&vals(&[1, 2]));
        assert!(!x.satisfies_fd(&y.signature()));
    }

    #[test]
    fn g3_counts_minimum_deletions() {
        // X: a a a a  Y: 1 1 2 3 → keep plurality (1,1), delete 2 rows.
        let x = Pli::from_column(&vals(&[5, 5, 5, 5]));
        let y = Pli::from_column(&vals(&[1, 1, 2, 3]));
        assert_eq!(x.g3_violations(&y.signature()), 2);
        assert!((x.g3_error(&y.signature()) - 0.5).abs() < 1e-12);
        // Y all singletons: keep one row.
        let key = Pli::from_column(&vals(&[1, 2, 3, 4]));
        assert_eq!(x.g3_violations(&key.signature()), 3);
    }

    #[test]
    fn g3_zero_for_valid_fd() {
        let x = Pli::from_column(&vals(&[1, 1, 2]));
        let y = Pli::from_column(&vals(&[4, 4, 4]));
        assert_eq!(x.g3_violations(&y.signature()), 0);
    }

    #[test]
    fn max_fanout_counts_singleton_rows_apart() {
        // X: a a a b b   Y: 1 2 2 3 4 → X=a spans {1, 2}, X=b spans {3, 4}.
        let x = Pli::from_column(&vals(&[1, 1, 1, 2, 2]));
        let y = Pli::from_column(&vals(&[1, 2, 2, 3, 4]));
        assert_eq!(x.max_fanout(&y.signature()), 2);
        assert_eq!(Pli::unit(3).max_fanout(&Pli::unit(3).signature()), 1);
        assert_eq!(Pli::unit(1).max_fanout(&Pli::unit(1).signature()), 1);
        assert_eq!(Pli::unit(0).max_fanout(&Pli::unit(0).signature()), 0);
    }

    #[test]
    fn refines_checks_containment() {
        // fine {0,1} {2,3}, coarse {0,1,2,3}, row 4 alone in both.
        let fine = Pli::from_codes(&[0, 0, 1, 1, 2], 3);
        let coarse = Pli::from_codes(&[0, 0, 0, 0, 1], 2);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
    }

    #[test]
    fn unit_of_tiny_relations() {
        assert!(Pli::unit(0).is_key());
        assert!(Pli::unit(1).is_key());
        assert_eq!(Pli::unit(2).cluster_count(), 1);
        assert_eq!(clusters(&Pli::unit(3)), [vec![0, 1, 2]]);
    }

    #[test]
    fn empty_relation_edge_cases() {
        let p = Pli::from_column(&[]);
        assert!(p.is_key());
        assert_eq!(p.key_error(), 0.0);
        assert_eq!(p.g3_error(&p.signature()), 0.0);
        assert_eq!(p, Pli::unit(0));
    }

    #[test]
    fn from_codes_matches_from_column() {
        // codes: 1 1 2 0 0 3 1 → clusters {0,1,6} {3,4}
        let p = Pli::from_codes(&[1, 1, 2, 0, 0, 3, 1], 4);
        assert_eq!(clusters(&p), [vec![0, 1, 6], vec![3, 4]]);
        assert_eq!(p, Pli::from_column(&vals(&[1, 1, 2, 0, 0, 3, 1])));
        assert!(Pli::from_codes(&[], 0).is_key());
    }

    #[test]
    fn heap_bytes_counts_spine_and_rows() {
        // 5 stored rows and 2 cluster starts, 4 bytes each.
        let p = Pli::from_codes(&[0, 0, 1, 1, 1, 2], 3);
        assert_eq!(p.heap_bytes(), 4 * (5 + 2));
        assert_eq!(Pli::unit(10).heap_bytes(), 4 * (10 + 1));
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
