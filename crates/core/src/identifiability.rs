//! Identifiability — Definition 2.1 of the paper.
//!
//! A tuple `t` is *identifiable* if some attribute subset `A` exists whose
//! value combination `t[A]` is unique in the relation: the tuple can be
//! singled out, the core concern of GDPR Art. 5's data-minimisation and
//! the target of anonymisation techniques (paper ref \[11\]).

use mp_metadata::AttrSet;
use mp_relation::{Pli, Relation, Result};

/// Per-tuple identifiability under attribute subsets of size ≤ `max_size`.
///
/// Returns a boolean per tuple: `true` iff some subset of at most
/// `max_size` attributes isolates it. A tuple unique on a *small* subset is
/// the privacy worst case; `max_size = arity` gives the full definition.
pub(crate) fn identifiable_tuples(relation: &Relation, max_size: usize) -> Result<Vec<bool>> {
    let n = relation.n_rows();
    let mut identifiable = vec![false; n];
    // A tuple is unique on subset A iff it lies in no cluster of Π_A.
    for set in subsets_up_to(relation.arity(), max_size) {
        let pli = mp_metadata::pli_of_set(relation, &set)?;
        let mut in_cluster = vec![false; n];
        for cluster in pli.clusters() {
            for &r in cluster {
                in_cluster[r as usize] = true;
            }
        }
        for r in 0..n {
            if !in_cluster[r] {
                identifiable[r] = true;
            }
        }
        if identifiable.iter().all(|&b| b) {
            break;
        }
    }
    Ok(identifiable)
}

/// The fraction of identifiable tuples (0 = fully anonymous at this subset
/// size, 1 = every tuple can be singled out).
pub fn identifiability_rate(relation: &Relation, max_size: usize) -> Result<f64> {
    let flags = identifiable_tuples(relation, max_size)?;
    if flags.is_empty() {
        return Ok(0.0);
    }
    Ok(flags.iter().filter(|&&b| b).count() as f64 / flags.len() as f64)
}

/// For each single attribute, the number of tuples unique on it — a quick
/// per-attribute disclosure profile.
pub fn uniqueness_profile(relation: &Relation) -> Result<Vec<usize>> {
    let n = relation.n_rows();
    (0..relation.arity())
        .map(|a| {
            let pli = Pli::from_typed(relation.column(a)?);
            Ok(n - pli.covered_count())
        })
        .collect()
}

/// Enumerates attribute subsets of `{0..arity}` with `1 ≤ |A| ≤ max_size`,
/// in ascending size.
fn subsets_up_to(arity: usize, max_size: usize) -> Vec<AttrSet> {
    let mut out = Vec::new();
    let max_size = max_size.min(arity);
    let mut current: Vec<usize> = Vec::new();
    for size in 1..=max_size {
        gen_combos(arity, size, 0, &mut current, &mut out);
    }
    out
}

fn gen_combos(
    arity: usize,
    size: usize,
    start: usize,
    current: &mut Vec<usize>,
    out: &mut Vec<AttrSet>,
) {
    if current.len() == size {
        out.push(AttrSet::from_iter(current.iter().copied()));
        return;
    }
    for a in start..arity {
        current.push(a);
        gen_combos(arity, size, a + 1, current, out);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::employee;
    use mp_relation::{Attribute, Schema};

    #[test]
    fn employee_everyone_identifiable_by_name() {
        let r = employee();
        let flags = identifiable_tuples(&r, 1).unwrap();
        assert!(flags.iter().all(|&b| b), "unique names identify everyone");
        assert_eq!(identifiability_rate(&r, 1).unwrap(), 1.0);
    }

    #[test]
    fn duplicated_rows_are_not_identifiable() {
        let schema = Schema::new(vec![
            Attribute::categorical("a"),
            Attribute::categorical("b"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["x".into(), "1".into()],
                vec!["x".into(), "1".into()],
                vec!["y".into(), "1".into()],
            ],
        )
        .unwrap();
        let flags = identifiable_tuples(&r, 2).unwrap();
        assert_eq!(flags, vec![false, false, true]);
        assert!((identifiability_rate(&r, 2).unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn uniqueness_profile_counts() {
        let r = employee();
        let profile = uniqueness_profile(&r).unwrap();
        assert_eq!(profile[0], 4); // names all unique
        assert_eq!(profile[1], 2); // ages 18, 26 unique; 22 duplicated
        assert_eq!(profile[3], 4); // salaries all unique
    }

    #[test]
    fn subset_size_limits_detection() {
        // Tuples unique only on a PAIR of attributes.
        let schema = Schema::new(vec![
            Attribute::categorical("a"),
            Attribute::categorical("b"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec!["x".into(), "1".into()],
                vec!["x".into(), "2".into()],
                vec!["y".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        )
        .unwrap();
        assert_eq!(identifiability_rate(&r, 1).unwrap(), 0.0);
        assert_eq!(identifiability_rate(&r, 2).unwrap(), 1.0);
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::new(vec![Attribute::categorical("a")]).unwrap();
        let r = Relation::empty(schema);
        assert!(identifiable_tuples(&r, 1).unwrap().is_empty());
        assert_eq!(identifiability_rate(&r, 1).unwrap(), 0.0);
    }
}
