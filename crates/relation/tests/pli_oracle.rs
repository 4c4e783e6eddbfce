//! Oracle for the CSR partitions: every operation of [`Pli`] against the
//! `Vec<Vec<usize>>` + `HashMap` implementation it replaced, kept here
//! verbatim in spirit as [`RefPli`]. Clusters, counts and `g3` numbers
//! must match exactly.

use mp_relation::{Column, Pli, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// The replaced partition: one `Vec` per cluster, grouped through hash
/// maps, singletons given fresh ids in the full signature.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefPli {
    clusters: Vec<Vec<usize>>,
    n_rows: usize,
}

impl RefPli {
    fn from_column(column: &[Value]) -> Self {
        let mut groups: HashMap<&Value, Vec<usize>> = HashMap::new();
        for (i, v) in column.iter().enumerate() {
            groups.entry(v).or_default().push(i);
        }
        let mut clusters: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        clusters.sort_by_key(|c| c[0]);
        Self {
            clusters,
            n_rows: column.len(),
        }
    }

    fn from_codes(codes: &[u32], n_codes: usize) -> Self {
        let mut counts = vec![0u32; n_codes];
        for &c in codes {
            counts[c as usize] += 1;
        }
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
        clusters.sort_by_key(|c| c[0]);
        Self {
            clusters,
            n_rows: codes.len(),
        }
    }

    fn unit(n_rows: usize) -> Self {
        Self {
            clusters: match n_rows >= 2 {
                true => vec![(0..n_rows).collect()],
                false => Vec::new(),
            },
            n_rows,
        }
    }

    fn signature(&self) -> Vec<Option<usize>> {
        let mut sig = vec![None; self.n_rows];
        for (cid, cluster) in self.clusters.iter().enumerate() {
            for &row in cluster {
                sig[row] = Some(cid);
            }
        }
        sig
    }

    fn full_signature(&self) -> Vec<usize> {
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

    fn intersect(&self, other: &RefPli) -> RefPli {
        let other_sig = other.signature();
        let mut out: Vec<Vec<usize>> = Vec::new();
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
        out.sort_by_key(|c| c[0]);
        RefPli {
            clusters: out,
            n_rows: self.n_rows,
        }
    }

    fn satisfies_fd(&self, rhs_full_sig: &[usize]) -> bool {
        self.clusters.iter().all(|cluster| {
            let first = rhs_full_sig[cluster[0]];
            cluster[1..].iter().all(|&r| rhs_full_sig[r] == first)
        })
    }

    fn refines(&self, other: &RefPli) -> bool {
        self.satisfies_fd(&other.full_signature())
    }

    fn g3_violations(&self, rhs_full_sig: &[usize]) -> usize {
        let mut total = 0;
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for cluster in &self.clusters {
            counts.clear();
            for &row in cluster {
                *counts.entry(rhs_full_sig[row]).or_insert(0) += 1;
            }
            total += cluster.len() - counts.values().copied().max().unwrap_or(0);
        }
        total
    }

    /// ND fan-out as discovery computed it: sort and dedup the full
    /// signature over each cluster.
    fn max_fanout(&self, rhs_full_sig: &[usize]) -> usize {
        let mut max = usize::from(!rhs_full_sig.is_empty());
        for cluster in &self.clusters {
            let mut seen: Vec<usize> = cluster.iter().map(|&r| rhs_full_sig[r]).collect();
            seen.sort_unstable();
            seen.dedup();
            max = max.max(seen.len());
        }
        max
    }

    fn covered_count(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }

    fn key_error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        (self.covered_count() - self.clusters.len()) as f64 / self.n_rows as f64
    }
}

/// Checks every read-only accessor of `pli` against `reference`.
fn assert_same(pli: &Pli, reference: &RefPli) {
    let clusters: Vec<Vec<usize>> = pli
        .clusters()
        .map(|c| c.iter().map(|&r| r as usize).collect())
        .collect();
    assert_eq!(clusters, reference.clusters);
    assert_eq!(pli.n_rows(), reference.n_rows);
    assert_eq!(pli.cluster_count(), reference.clusters.len());
    assert_eq!(pli.covered_count(), reference.covered_count());
    assert_eq!(pli.is_key(), reference.clusters.is_empty());
    assert_eq!(pli.key_error().to_bits(), reference.key_error().to_bits());
    assert_eq!(pli.signature().cluster_count(), reference.clusters.len());
}

/// Checks the two-partition operations of `(x, y)` against the references.
fn assert_pair(x: &Pli, y: &Pli, rx: &RefPli, ry: &RefPli) {
    assert_same(&x.intersect(y), &rx.intersect(ry));
    let (sig, full) = (y.signature(), ry.full_signature());
    assert_eq!(x.g3_violations(&sig), rx.g3_violations(&full));
    assert_eq!(x.satisfies_fd(&sig), rx.satisfies_fd(&full));
    assert_eq!(x.refines(y), rx.refines(ry));
    assert_eq!(x.max_fanout(&sig), rx.max_fanout(&full));
}

fn ints(xs: &[u32]) -> Vec<Value> {
    xs.iter().map(|&x| Value::Int(i64::from(x))).collect()
}

/// `raw[i] % modulus`: modulus 1 gives one cluster, a modulus above the
/// length mostly singletons.
fn reduce(raw: &[u32], modulus: u32) -> Vec<u32> {
    raw.iter().map(|&r| r % modulus).collect()
}

/// Every check on one pair of code columns of equal length.
fn check_codes(a: &[u32], b: &[u32]) {
    let n_codes = |c: &[u32]| c.iter().max().map_or(0, |&m| m as usize + 1);
    let (x, y) = (
        Pli::from_codes(a, n_codes(a)),
        Pli::from_codes(b, n_codes(b)),
    );
    let (rx, ry) = (
        RefPli::from_codes(a, n_codes(a)),
        RefPli::from_codes(b, n_codes(b)),
    );
    assert_same(&x, &rx);
    assert_same(&y, &ry);
    assert_same(&Pli::from_column(&ints(a)), &RefPli::from_column(&ints(a)));
    assert_pair(&x, &y, &rx, &ry);
    assert_pair(&y, &x, &ry, &rx);
    let (unit, runit) = (Pli::unit(a.len()), RefPli::unit(a.len()));
    assert_same(&unit, &runit);
    assert_pair(&x, &unit, &rx, &runit);
    assert_pair(&unit, &x, &runit, &rx);
    assert_pair(&x, &x, &rx, &rx);
}

#[test]
fn edge_shapes_match_the_reference() {
    let cases: [(&[u32], &[u32]); 8] = [
        (&[], &[]),
        (&[0], &[0]),
        (&[0, 1, 2, 3, 4], &[0, 0, 0, 0, 0]), // all singletons / one cluster
        (&[0, 0, 0, 0, 0], &[0, 1, 2, 3, 4]), // and the other way round
        (&[0, 1, 2, 0, 1, 2], &[5, 5, 6, 6, 7, 7]), // first rows interleave
        (&[0, 1, 0, 1, 0, 1], &[0, 0, 0, 0, 1, 1]),
        (&[3, 3, 1, 1, 2, 2], &[0, 1, 0, 1, 0, 1]), // codes not in row order
        (&[0, 0], &[0, 1]),
    ];
    for (a, b) in cases {
        check_codes(a, b);
    }
}

#[test]
fn g3_counts_are_exact_on_known_tables() {
    // X one cluster of 6; Y: 1 1 1 2 2 3 → keep the three 1s, delete 3.
    let x = Pli::unit(6);
    let y = Pli::from_codes(&[1, 1, 1, 2, 2, 3], 4);
    assert_eq!(x.g3_violations(&y.signature()), 3);
    // Y all singletons: keep one row of each X cluster.
    let x = Pli::from_codes(&[0, 0, 0, 1, 1, 2], 3);
    let key = Pli::from_codes(&[0, 1, 2, 3, 4, 5], 6);
    assert_eq!(x.g3_violations(&key.signature()), 2 + 1);
    // Singleton Y rows do not pool into one group: X {0,1,2} with Y
    // values 7 (cluster {0,3}) and two singletons → keep 1, delete 2.
    let x = Pli::from_codes(&[0, 0, 0, 1], 2);
    let y = Pli::from_codes(&[7, 8, 9, 7], 10);
    assert_eq!(x.g3_violations(&y.signature()), 2);
}

proptest! {
    #[test]
    fn code_partitions_match_the_reference(
        raw in prop::collection::vec((0u32..64, 0u32..64), 0..48),
        ma in 1u32..66,
        mb in 1u32..66,
    ) {
        let (a, b): (Vec<u32>, Vec<u32>) = raw.into_iter().unzip();
        check_codes(&reduce(&a, ma), &reduce(&b, mb));
    }

    #[test]
    fn typed_partitions_match_the_reference(
        cells in prop::collection::vec((0u32..6, 0u32..5), 0..40),
    ) {
        // Nulls, ints, floats equal to ints, -0.0 and NaN, and text.
        let values: Vec<Value> = cells
            .iter()
            .map(|&(kind, v)| match kind {
                0 => Value::Null,
                1 | 2 => Value::Int(i64::from(v)),
                3 => Value::Float(f64::from(v)),
                4 => Value::Float(match v { 0 => -0.0, 1 => f64::NAN, _ => f64::from(v) + 0.5 }),
                _ => Value::Text(format!("t{v}")),
            })
            .collect();
        let reference = RefPli::from_column(&values);
        assert_same(&Pli::from_column(&values), &reference);
        assert_same(&Pli::from_typed(&Column::Boxed(values.clone())), &reference);
        let mut typed = Column::default();
        for v in &values {
            typed.push_value(v.clone());
        }
        assert_same(&Pli::from_typed(&typed), &reference);
    }

    #[test]
    fn chained_products_match_the_reference(
        raw in prop::collection::vec((0u32..5, 0u32..4, 0u32..3), 0..40),
    ) {
        let a: Vec<u32> = raw.iter().map(|t| t.0).collect();
        let b: Vec<u32> = raw.iter().map(|t| t.1).collect();
        let c: Vec<u32> = raw.iter().map(|t| t.2).collect();
        let (x, y, z) = (Pli::from_codes(&a, 5), Pli::from_codes(&b, 4), Pli::from_codes(&c, 3));
        let (rx, ry, rz) = (RefPli::from_codes(&a, 5), RefPli::from_codes(&b, 4), RefPli::from_codes(&c, 3));
        let (xy, rxy) = (x.intersect(&y), rx.intersect(&ry));
        assert_same(&xy, &rxy);
        assert_pair(&xy, &z, &rxy, &rz);
        assert_pair(&z, &xy, &rz, &rxy);
    }
}
