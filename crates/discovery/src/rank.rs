//! Dense per-row ranks: the order passes (§IV-C ODs, §IV-E OFDs) compare
//! `u32`s instead of boxed cells.
//!
//! A column's rank of a row is 0 for a null cell and `1..=distinct` for
//! the others, numbered in [`ValueRef`](mp_relation::ValueRef) order with
//! equal cells sharing a rank, so `rank[a].cmp(&rank[b])` equals
//! `value_ref(a).cmp(&value_ref(b))` for every pair of rows. Each layout
//! sorts what it holds natively: a dictionary's labels, `(value, row)`
//! pairs of an `Int` column, `(key, row)` pairs of a `Float` column under
//! [`float_key`]; only the boxed fallback sorts `Value`s.

use mp_relation::Column;

/// One column's per-row ranks (0 = null).
pub(crate) struct Ranks {
    ranks: Vec<u32>,
    /// The number of distinct non-null values: the largest rank.
    distinct: u32,
}

impl Ranks {
    /// Ranks every row of `column`.
    pub(crate) fn of(column: &Column) -> Ranks {
        let n = column.len();
        match column {
            Column::Categorical { dict, codes } => categorical(dict, codes),
            Column::Int { values, nulls } => {
                let mut keyed: Vec<(i64, u32)> = (0..n)
                    .filter(|&r| !nulls.get(r))
                    .map(|r| (values[r], r as u32))
                    .collect();
                keyed.sort_unstable();
                dense(n, keyed)
            }
            Column::Float { values, nulls, .. } => {
                // Int-flagged rows hold exact values, so their `f64`
                // orders as their `ValueRef::Int` does.
                let mut keyed: Vec<(u64, u32)> = (0..n)
                    .filter(|&r| !nulls.get(r))
                    .map(|r| (float_key(values[r]), r as u32))
                    .collect();
                keyed.sort_unstable();
                dense(n, keyed)
            }
            Column::Boxed(values) => {
                let mut rows: Vec<u32> = (0..n as u32)
                    .filter(|&r| !values[r as usize].is_null())
                    .collect();
                rows.sort_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
                dense(n, rows.into_iter().map(|r| (&values[r as usize], r)))
            }
        }
    }

    /// Per-row ranks, 0 for a null cell.
    pub(crate) fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// `true` when the column holds at most one distinct non-null value.
    pub(crate) fn is_constant(&self) -> bool {
        self.distinct < 2
    }

    /// The non-null rows in rank order, ties in row order: one counting
    /// sort, so the result is the stable `ValueRef` sort of those rows.
    pub(crate) fn order(&self) -> Vec<u32> {
        // `next[k]` becomes the first slot of rank `k`; null rows take none.
        let mut next = vec![0usize; self.distinct as usize + 2];
        for &rank in self.ranks.iter().filter(|&&rank| rank != 0) {
            next[rank as usize + 1] += 1;
        }
        for k in 1..next.len() {
            next[k] += next[k - 1];
        }
        let mut order = vec![0u32; next[self.distinct as usize + 1]];
        for (row, &rank) in self.ranks.iter().enumerate() {
            if rank != 0 {
                order[next[rank as usize]] = row as u32;
                next[rank as usize] += 1;
            }
        }
        order
    }
}

/// A `u64` that orders like the cells' `float_total_cmp`: every NaN is
/// equal and greatest, and `-0.0` equals `0.0`.
fn float_key(f: f64) -> u64 {
    if f.is_nan() {
        return u64::MAX;
    }
    let bits = if f == 0.0 { 0 } else { f.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Ranks from the non-null rows sorted by `key`: rank 1 for the first key,
/// and one more at each key that differs from the one before it.
fn dense<K: PartialEq>(n: usize, sorted: impl IntoIterator<Item = (K, u32)>) -> Ranks {
    let mut ranks = vec![0u32; n];
    let mut distinct = 0;
    let mut prev = None;
    for (key, row) in sorted {
        if prev.as_ref() != Some(&key) {
            distinct += 1;
            prev = Some(key);
        }
        ranks[row as usize] = distinct;
    }
    Ranks { ranks, distinct }
}

/// Ranks of a dictionary column: the labels are sorted once, a label
/// listed twice gets one rank, and a label no row uses gets none, so the
/// ranks stay dense after a row selection.
fn categorical(dict: &[String], codes: &[u32]) -> Ranks {
    let mut used = vec![false; dict.len() + 1];
    for &code in codes {
        used[code as usize] = true;
    }
    // Code `c ≥ 1` holds `dict[c - 1]`; code 0 (null) keeps rank 0.
    let label = |c: u32| &dict[c as usize - 1];
    let mut by_label: Vec<u32> = (1..=dict.len() as u32)
        .filter(|&c| used[c as usize])
        .collect();
    by_label.sort_unstable_by(|&a, &b| label(a).cmp(label(b)));
    let code_ranks = dense(dict.len() + 1, by_label.into_iter().map(|c| (label(c), c)));
    Ranks {
        ranks: codes
            .iter()
            .map(|&c| code_ranks.ranks[c as usize])
            .collect(),
        distinct: code_ranks.distinct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::relation_where;
    use mp_relation::{Attribute, Relation, Schema, Value};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Ranks order every pair of rows as their `ValueRef`s do, null rows
    /// alone rank 0, the ranks are dense, and `order` is the stable
    /// `ValueRef` sort of the non-null rows.
    fn assert_ranks_match(column: &Column) -> Result<(), TestCaseError> {
        let ranked = Ranks::of(column);
        let ranks = ranked.ranks();
        prop_assert_eq!(ranks.len(), column.len());
        for a in 0..column.len() {
            prop_assert_eq!(ranks[a] == 0, column.is_null(a), "row {}", a);
            for b in 0..column.len() {
                prop_assert_eq!(
                    ranks[a].cmp(&ranks[b]),
                    column.value_ref(a).cmp(&column.value_ref(b)),
                    "rows {} and {} of {:?}",
                    a,
                    b,
                    column
                );
            }
        }
        let mut used: Vec<u32> = ranks.iter().copied().filter(|&r| r != 0).collect();
        used.sort_unstable();
        used.dedup();
        prop_assert_eq!(&used, &(1..=ranked.distinct).collect::<Vec<u32>>());

        let mut non_null = column.iter().filter(|v| !v.is_null());
        let constant = match non_null.next() {
            None => true,
            Some(first) => non_null.all(|v| v == first),
        };
        prop_assert_eq!(ranked.is_constant(), constant);

        let mut stable: Vec<u32> = (0..column.len() as u32)
            .filter(|&r| !column.is_null(r as usize))
            .collect();
        stable.sort_by(|&a, &b| {
            column
                .value_ref(a as usize)
                .cmp(&column.value_ref(b as usize))
        });
        prop_assert_eq!(ranked.order(), stable);
        Ok(())
    }

    /// The one column of a relation built through `from_typed_columns`.
    fn through_gate(attr: Attribute, column: Column) -> Column {
        let schema = Schema::new(vec![attr]).unwrap();
        let relation = Relation::from_typed_columns(schema, vec![column]).unwrap();
        relation.column(0).unwrap().clone()
    }

    const P53: i64 = 1 << 53;

    /// Numbers a boxed column can mix: integers beyond ±2^53 that no
    /// `f64` holds, the floats next to them, NaN of either sign, ±inf,
    /// ±0.0 and floats beyond every `i64`.
    const BOXED_CELLS: [Value; 20] = [
        Value::Null,
        Value::Int(P53 + 1),
        Value::Int(P53),
        Value::Int(P53 - 1),
        Value::Int(-P53 - 1),
        Value::Int(i64::MAX),
        Value::Int(i64::MIN),
        Value::Int(0),
        Value::Int(-1),
        Value::Float(P53 as f64),
        Value::Float((P53 + 2) as f64),
        Value::Float(0.5),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(9.3e18),
        Value::Float(-9.3e18),
    ];

    /// Labels a dictionary may list, twice or more.
    const LABELS: [&str; 4] = ["b", "a", "c", "a b"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every layout the oracle's relations hold: dictionary text,
        /// `Int`, `Float` and int-flagged floats, with nulls, ±0.0, NaN
        /// of either sign and ±inf.
        #[test]
        fn ranks_order_rows_as_value_refs_do(r in relation_where(any::<bool>())) {
            for c in 0..r.arity() {
                assert_ranks_match(r.column(c).unwrap())?;
            }
        }

        /// A dictionary that lists a label twice (`from_typed_columns`
        /// keeps it), and row selections that leave labels unused.
        #[test]
        fn duplicate_and_unused_labels_rank_as_value_refs_do(
            labels in prop::collection::vec(0..LABELS.len(), 1..7),
            draws in prop::collection::vec(any::<u32>(), 0..25),
            keep in prop::collection::vec(any::<bool>(), 25),
        ) {
            let codes: Vec<u32> = draws.iter().map(|&d| d % (labels.len() as u32 + 1)).collect();
            let dict = Arc::new(labels.iter().map(|&l| LABELS[l].to_owned()).collect::<Vec<_>>());
            let column = through_gate(
                Attribute::categorical("c"),
                Column::Categorical { dict, codes },
            );
            prop_assert_eq!(column.repr_name(), "dict");
            assert_ranks_match(&column)?;
            let rows: Vec<usize> = (0..column.len()).filter(|&r| keep[r]).collect();
            assert_ranks_match(&column.select(&rows))?;
        }

        /// The boxed fallback: a continuous column holding an integer
        /// beyond 2^53, then a float, then any mix of numbers and nulls.
        #[test]
        fn boxed_columns_rank_as_value_refs_do(
            tail in prop::collection::vec(0..BOXED_CELLS.len(), 0..23),
        ) {
            let mut values = vec![Value::Int(P53 + 1), Value::Float(0.5)];
            values.extend(tail.iter().map(|&i| BOXED_CELLS[i].clone()));
            let column = through_gate(Attribute::continuous("x"), Column::Boxed(values));
            prop_assert_eq!(column.repr_name(), "boxed");
            assert_ranks_match(&column)?;
        }
    }
}
