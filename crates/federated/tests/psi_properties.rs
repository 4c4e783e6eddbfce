//! Property-based tests for the PSI alignment ([`mp_federated::multi_align`]).
//!
//! The properties the rest of the stack leans on:
//! - every aligned index tuple refers to **equal entity ids**;
//! - the aligned *entity set* is invariant under row permutation of
//!   any party (the canonical digest order hides storage order);
//! - alignment is symmetric in party order.

use mp_federated::multi_align;
use mp_relation::Value;
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: an id column of small ints — dense duplicates and heavy
/// cross-party overlap, the regime where dedup and ordering bugs hide.
fn id_column() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec((0i64..15).prop_map(Value::Int), 0..40)
}

fn as_int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("test ids are ints, got {other:?}"),
    }
}

/// The set of distinct ids present in every column — the reference
/// semantics of the intersection, independent of row order.
fn naive_common(cols: &[&[Value]]) -> HashSet<i64> {
    let mut sets = cols
        .iter()
        .map(|c| c.iter().map(as_int).collect::<HashSet<i64>>());
    let first = sets.next().unwrap_or_default();
    sets.fold(first, |acc, s| &acc & &s)
}

/// Aligned entity ids of party A, sorted — the permutation-invariant view
/// of an alignment.
fn aligned_ids(a: &[Value], rows_a: &[usize]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows_a.iter().map(|&r| as_int(&a[r])).collect();
    ids.sort_unstable();
    ids
}

/// Rotates `col` left by `k` (mod its length): a row permutation.
fn rotated(col: &[Value], k: usize) -> Vec<Value> {
    let mut out = col.to_vec();
    if !out.is_empty() {
        out.rotate_left(k % col.len());
    }
    out
}

fn sorted(rows: &[usize]) -> Vec<usize> {
    let mut rows = rows.to_vec();
    rows.sort_unstable();
    rows
}

proptest! {
    #[test]
    fn aligned_pairs_refer_to_equal_ids(a in id_column(), b in id_column(), salt in 0u64..1000) {
        let al = multi_align(&[&a, &b], salt);
        for i in 0..al.len() {
            prop_assert_eq!(&a[al.rows[0][i]], &b[al.rows[1][i]]);
        }
    }

    #[test]
    fn alignment_matches_naive_set_semantics(a in id_column(), b in id_column(), salt in 0u64..1000) {
        let al = multi_align(&[&a, &b], salt);
        let got: HashSet<i64> = al.rows[0].iter().map(|&r| as_int(&a[r])).collect();
        prop_assert_eq!(got.len(), al.len(), "one aligned slot per distinct entity");
        prop_assert_eq!(got, naive_common(&[&a, &b]));
    }

    #[test]
    fn row_permutation_invariant(a in id_column(), b in id_column(), salt in 0u64..1000, k in 0usize..40) {
        let base = multi_align(&[&a, &b], salt);
        let rotated = rotated(&a, k);
        let perm = multi_align(&[&rotated, &b], salt);
        prop_assert_eq!(perm.len(), base.len());
        prop_assert_eq!(
            aligned_ids(&rotated, &perm.rows[0]),
            aligned_ids(&a, &base.rows[0])
        );
        // B's side is untouched, so its row set must be identical too.
        prop_assert_eq!(sorted(&base.rows[1]), sorted(&perm.rows[1]));
    }

    #[test]
    fn three_party_row_permutation_invariant(
        a in id_column(),
        b in id_column(),
        c in id_column(),
        salt in 0u64..1000,
        k in 0usize..40,
        p in 0usize..3,
    ) {
        let cols = [a, b, c];
        let base = multi_align(&[&cols[0], &cols[1], &cols[2]], salt);
        let mut permuted = cols.clone();
        permuted[p] = rotated(&cols[p], k);
        let perm = multi_align(&[&permuted[0], &permuted[1], &permuted[2]], salt);
        // The aligned entity list is the same, slot for slot: canonical
        // digest order does not see storage order.
        let entities = |cols: &[Vec<Value>; 3], rows: &[usize]| -> Vec<i64> {
            rows.iter().map(|&r| as_int(&cols[0][r])).collect()
        };
        prop_assert_eq!(perm.len(), base.len());
        prop_assert_eq!(
            entities(&permuted, &perm.rows[0]),
            entities(&cols, &base.rows[0])
        );
        // Every party whose rows did not move keeps its row lists exactly.
        for q in (0..3).filter(|&q| q != p) {
            prop_assert_eq!(&perm.rows[q], &base.rows[q], "party {}", q);
        }
    }

    #[test]
    fn symmetric_in_party_order(a in id_column(), b in id_column(), salt in 0u64..1000) {
        let ab = multi_align(&[&a, &b], salt);
        let ba = multi_align(&[&b, &a], salt);
        // Canonical digest order makes the symmetry exact, not just
        // set-wise: swapping parties swaps the row vectors.
        prop_assert_eq!(&ab.rows[0], &ba.rows[1]);
        prop_assert_eq!(&ab.rows[1], &ba.rows[0]);
    }

    #[test]
    fn multi_align_is_entity_consistent(
        a in id_column(),
        b in id_column(),
        c in id_column(),
        salt in 0u64..1000,
    ) {
        let cols: Vec<&[Value]> = vec![&a, &b, &c];
        let al = multi_align(&cols, salt);
        prop_assert_eq!(al.rows.len(), 3);
        for i in 0..al.len() {
            let e0 = &cols[0][al.rows[0][i]];
            for (p, col) in cols.iter().enumerate().skip(1) {
                prop_assert_eq!(e0, &col[al.rows[p][i]], "slot {} party {}", i, p);
            }
        }
        // One slot per distinct common entity; no party row used twice.
        let ids: HashSet<i64> = al.rows[0].iter().map(|&r| as_int(&a[r])).collect();
        prop_assert_eq!(ids.len(), al.len());
        prop_assert_eq!(ids, naive_common(&cols));
        for rows in &al.rows {
            let uniq: HashSet<usize> = rows.iter().copied().collect();
            prop_assert_eq!(uniq.len(), rows.len(), "row reused within a party");
        }
    }

    #[test]
    fn multi_align_symmetric_in_party_order(
        a in id_column(),
        b in id_column(),
        c in id_column(),
        salt in 0u64..1000,
    ) {
        let fwd = multi_align(&[&a, &b, &c], salt);
        let rev = multi_align(&[&c, &b, &a], salt);
        prop_assert_eq!(&fwd.rows[0], &rev.rows[2]);
        prop_assert_eq!(&fwd.rows[1], &rev.rows[1]);
        prop_assert_eq!(&fwd.rows[2], &rev.rows[0]);
    }
}
