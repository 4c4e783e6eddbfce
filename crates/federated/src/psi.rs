//! Simulated private set intersection.
//!
//! The paper's setup step: *"data from various parties is synchronized
//! using private set intersection techniques ... the identity of the data
//! tuples is known only to the parties involved"* (refs \[10\], \[12\]). This
//! module simulates the *protocol shape* of a hash-based PSI — parties
//! exchange salted hashes of their identifiers, never the identifiers —
//! and produces the aligned row indices both sides use from then on. It is
//! a single-process simulation: the hash is not cryptographically
//! oblivious, but the information flow (only salted digests cross the
//! boundary) and the output (a canonical common ordering that fixes the
//! tuple index `i` of Definitions 2.2/2.3) match the real thing.

use mp_relation::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A salted identifier digest, the only thing that crosses the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdDigest(u64);

impl IdDigest {
    /// Reconstructs a digest from its raw wire representation.
    pub fn from_raw(raw: u64) -> Self {
        IdDigest(raw)
    }

    /// The raw 64-bit digest value (what travels on the wire).
    pub(crate) fn raw(&self) -> u64 {
        self.0
    }
}

/// Hashes one identifier under a shared salt.
pub(crate) fn digest(id: &Value, salt: u64) -> IdDigest {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    id.hash(&mut h);
    IdDigest(h.finish())
}

/// One party's PSI submission: digests in that party's row order.
pub(crate) fn submit(ids: &[Value], salt: u64) -> Vec<IdDigest> {
    ids.iter().map(|v| digest(v, salt)).collect()
}

/// K-way intersection of digest submissions: for each party, the rows (in
/// that party's local indexing) of the entities present in *every*
/// submission, listed in canonical (ascending digest) order. Duplicate
/// digests within one party (duplicate ids, or — astronomically unlikely —
/// hash collisions) keep their first occurrence only, mirroring PSI's set
/// semantics. This is the single intersection kernel behind
/// [`crate::multi_align`], and the computation every party runs locally
/// once the protocol has delivered all digest lists (see
/// [`crate::transport`]).
pub(crate) fn intersect_all(submissions: &[&[IdDigest]]) -> Vec<Vec<usize>> {
    if submissions.is_empty() {
        return Vec::new();
    }
    // lint: allow(no-unordered-iteration) reason="the intersection drawn from these maps is sorted into canonical digest order before use"
    let mut maps: Vec<HashMap<IdDigest, usize>> = Vec::with_capacity(submissions.len());
    for digests in submissions {
        let mut m = HashMap::new();
        for (i, d) in digests.iter().enumerate() {
            m.entry(*d).or_insert(i);
        }
        maps.push(m);
    }
    let Some((first, rest)) = maps.split_first() else {
        return Vec::new();
    };
    let mut common: Vec<IdDigest> = first
        .keys()
        .filter(|d| rest.iter().all(|m| m.contains_key(d)))
        .copied()
        .collect();
    common.sort();
    maps.iter()
        .map(|m| common.iter().map(|d| m[d]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{multi_align, MultiAlignment};

    fn ids(names: &[&str]) -> Vec<Value> {
        names.iter().map(|&s| Value::Text(s.into())).collect()
    }

    fn align(a: &[Value], b: &[Value], salt: u64) -> MultiAlignment {
        multi_align(&[a, b], salt)
    }

    #[test]
    fn intersection_finds_common_entities() {
        let a = ids(&["u1", "u2", "u3", "u4"]);
        let b = ids(&["u3", "u9", "u1"]);
        let al = align(&a, &b, 42);
        assert_eq!(al.len(), 2);
        // Alignment is consistent: the same entity at the same position.
        for i in 0..al.len() {
            assert_eq!(a[al.rows[0][i]], b[al.rows[1][i]]);
        }
    }

    #[test]
    fn disjoint_sets_yield_empty() {
        let al = align(&ids(&["a"]), &ids(&["b"]), 0);
        assert!(al.is_empty());
        assert_eq!(al.len(), 0);
    }

    #[test]
    fn salt_changes_digests_not_alignment() {
        let a = ids(&["u1", "u2"]);
        let b = ids(&["u2", "u1"]);
        let d1 = submit(&a, 1);
        let d2 = submit(&a, 2);
        assert_ne!(d1, d2, "different salts must produce different digests");
        let al1 = align(&a, &b, 1);
        let al2 = align(&a, &b, 2);
        // The *set* of aligned pairs is salt-independent.
        let pairs = |al: &MultiAlignment| {
            let mut p: Vec<(usize, usize)> = al.rows[0]
                .iter()
                .copied()
                .zip(al.rows[1].iter().copied())
                .collect();
            p.sort();
            p
        };
        assert_eq!(pairs(&al1), pairs(&al2));
    }

    #[test]
    fn duplicates_keep_first_occurrence() {
        let a = ids(&["u1", "u1", "u2"]);
        let b = ids(&["u1"]);
        let al = align(&a, &b, 7);
        assert_eq!(al.rows, [vec![0], vec![0]]);
    }

    #[test]
    fn canonical_order_is_shared() {
        // Both parties, computing independently, get the same entity order.
        let a = ids(&["x", "y", "z"]);
        let b = ids(&["z", "x", "y"]);
        let al = align(&a, &b, 3);
        assert_eq!(al.len(), 3);
        for i in 0..3 {
            assert_eq!(a[al.rows[0][i]], b[al.rows[1][i]]);
        }
    }

    #[test]
    fn numeric_ids_work() {
        let a: Vec<Value> = (0..10i64).map(Value::Int).collect();
        let b: Vec<Value> = (5..15i64).map(Value::Int).collect();
        let al = align(&a, &b, 9);
        assert_eq!(al.len(), 5);
    }
}
