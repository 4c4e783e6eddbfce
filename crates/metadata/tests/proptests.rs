//! Property-based tests for attribute sets and metadata packages.

use mp_metadata::{AttrSet, Dependency, Fd, MetadataPackage, SharePolicy};
use mp_relation::{Attribute, Relation, Schema};
use proptest::prelude::*;

const N_ATTRS: usize = 6;

fn attrset_strategy() -> impl Strategy<Value = AttrSet> {
    prop::collection::vec(0usize..N_ATTRS, 0..N_ATTRS).prop_map(AttrSet::from_iter)
}

proptest! {
    #[test]
    fn attrset_union_laws(
        a in attrset_strategy(),
        b in attrset_strategy(),
        c in attrset_strategy(),
    ) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert!(a.is_subset_of(&a.union(&b)));
    }

    #[test]
    fn policy_application_is_idempotent(
        kinds in any::<bool>(),
        domains in any::<bool>(),
        distributions in any::<bool>(),
        row_count in any::<bool>(),
        fds in any::<bool>(),
        rfds in any::<bool>(),
    ) {
        let policy = SharePolicy { kinds, domains, distributions, row_count, fds, rfds };
        let rel = Relation::from_rows(
            Schema::new(vec![
                Attribute::categorical("c"),
                Attribute::continuous("x"),
            ]).unwrap(),
            vec![vec!["a".into(), 1.0.into()], vec!["b".into(), 2.0.into()]],
        ).unwrap();
        let pkg = MetadataPackage::describe_with_distributions(
            "p",
            &rel,
            vec![Dependency::from(Fd::new(0usize, 1))],
            4,
        ).unwrap();
        let once = policy.apply(&pkg);
        let twice = policy.apply(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn package_json_roundtrips(
        deps_on in any::<bool>(),
        dists_on in any::<bool>(),
    ) {
        let rel = Relation::from_rows(
            Schema::new(vec![
                Attribute::categorical("c"),
                Attribute::continuous("x"),
            ]).unwrap(),
            vec![vec!["a".into(), 1.5.into()], vec!["a".into(), 2.5.into()]],
        ).unwrap();
        let deps = if deps_on {
            vec![Dependency::from(Fd::new(0usize, 1))]
        } else {
            vec![]
        };
        let pkg = if dists_on {
            MetadataPackage::describe_with_distributions("p", &rel, deps, 3).unwrap()
        } else {
            MetadataPackage::describe("p", &rel, deps).unwrap()
        };
        let back = MetadataPackage::from_json(&pkg.to_json()).unwrap();
        prop_assert_eq!(back, pkg);
    }

    /// JSON whitespace between tokens is not part of the exchange format:
    /// any amount of it may be inserted without changing what the package
    /// *means*, and re-serialising must reproduce the canonical bytes
    /// exactly.
    #[test]
    fn whitespace_perturbed_package_reserialises_byte_identically(
        dists_on in any::<bool>(),
        inserts in prop::collection::vec(
            (0usize..100_000, 0usize..4),
            1..64,
        ),
    ) {
        let rel = Relation::from_rows(
            Schema::new(vec![
                Attribute::categorical("c"),
                Attribute::continuous("x"),
            ]).unwrap(),
            vec![vec!["a".into(), 1.5.into()], vec!["b".into(), 2.5.into()]],
        ).unwrap();
        let deps = vec![Dependency::from(Fd::new(0usize, 1))];
        let pkg = if dists_on {
            MetadataPackage::describe_with_distributions("p", &rel, deps, 3).unwrap()
        } else {
            MetadataPackage::describe("p", &rel, deps).unwrap()
        };
        let json = pkg.to_json();
        let bytes = json.as_bytes();
        // Insertion points that cannot change meaning: adjacent to a
        // structural character or existing whitespace, outside string
        // literals (inserting inside a string or number atom would).
        let mut legal: Vec<usize> = Vec::new();
        let mut in_str = false;
        let mut esc = false;
        let is_safe = |b: u8| b.is_ascii_whitespace() || b"{}[],:".contains(&b);
        for i in 0..=bytes.len() {
            let prev_ok = i > 0 && is_safe(bytes[i - 1]);
            let next_ok = i < bytes.len() && is_safe(bytes[i]);
            if !in_str && (prev_ok || next_ok || i == 0 || i == bytes.len()) {
                legal.push(i);
            }
            if i < bytes.len() {
                match (in_str, esc, bytes[i]) {
                    (true, true, _) => esc = false,
                    (true, false, b'\\') => esc = true,
                    (true, false, b'"') => in_str = false,
                    (false, _, b'"') => in_str = true,
                    _ => {}
                }
            }
        }
        let ws = [b' ', b'\t', b'\n', b'\r'];
        let mut at: Vec<(usize, u8)> = inserts
            .iter()
            .map(|(ix, w)| (legal[ix % legal.len()], ws[*w]))
            .collect();
        at.sort_by_key(|&(pos, _)| std::cmp::Reverse(pos));
        let mut mutated = bytes.to_vec();
        for (pos, b) in at {
            mutated.insert(pos, b);
        }
        let mutated = String::from_utf8(mutated).unwrap();
        prop_assert!(mutated != json, "perturbation inserted nothing");
        let back = MetadataPackage::from_json(&mutated).unwrap();
        let reserialised = back.to_json();
        prop_assert_eq!(reserialised.as_bytes(), bytes);
        prop_assert_eq!(back, pkg);
    }
}
