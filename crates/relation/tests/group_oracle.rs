//! Oracle for numeric grouping: `Column::group_codes` on `Int` and
//! `Float` columns against the `HashMap` grouping it replaced, kept here
//! as [`reference_codes`], and `Column::distinct_count` against the sort
//! and dedup it replaced. Codes, bounds, partitions and counts must match
//! exactly.

use mp_relation::{Bitmap, Column, Pli};
use proptest::prelude::*;
use std::collections::HashMap;
use std::hash::Hash;

/// The bits two floats share iff they are equal as values: one NaN, and
/// `-0.0` folded into `0.0`.
fn canonical_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

/// Each non-null row's key, `None` under a null.
fn keys(column: &Column) -> Vec<Option<u64>> {
    match column {
        Column::Int { values, nulls } => (0..values.len())
            .map(|i| (!nulls.get(i)).then_some(values[i] as u64))
            .collect(),
        Column::Float { values, nulls, .. } => (0..values.len())
            .map(|i| (!nulls.get(i)).then(|| canonical_bits(values[i])))
            .collect(),
        other => panic!("not a numeric column: {other:?}"),
    }
}

/// The replaced grouping: a map from key to code, codes handed out in
/// first-occurrence order from 1, nulls 0.
fn reference_codes(column: &Column) -> (Vec<u32>, usize) {
    fn first_occurrence<K: Hash + Eq>(keys: impl Iterator<Item = Option<K>>) -> (Vec<u32>, usize) {
        let mut lookup: HashMap<K, u32> = HashMap::new();
        let mut next = 1u32;
        let codes = keys
            .map(|k| match k {
                None => 0,
                Some(k) => *lookup.entry(k).or_insert_with(|| {
                    let c = next;
                    next += 1;
                    c
                }),
            })
            .collect();
        (codes, next as usize)
    }
    match column {
        Column::Int { values, nulls } => {
            first_occurrence((0..values.len()).map(|i| (!nulls.get(i)).then_some(values[i])))
        }
        _ => first_occurrence(keys(column).into_iter()),
    }
}

/// The replaced count: sort and dedup the non-null keys, plus one class
/// for the nulls if there are any.
fn reference_distinct(column: &Column) -> usize {
    let keys = keys(column);
    let mut distinct: Vec<u64> = keys.iter().flatten().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len() + usize::from(keys.iter().any(Option::is_none))
}

fn check(column: &Column) {
    assert_eq!(column.group_codes(), reference_codes(column), "{column:?}");
    assert_eq!(
        Pli::from_typed(column),
        Pli::from_column(&column.to_values()),
        "{column:?}"
    );
    assert_eq!(
        column.distinct_count(),
        reference_distinct(column),
        "{column:?}"
    );
}

fn nulls_where(len: usize, null: impl Fn(usize) -> bool) -> Bitmap {
    let mut nulls = Bitmap::new();
    for i in 0..len {
        nulls.push(null(i));
    }
    nulls
}

/// An `Int` column of `len` rows; null rows hold the `0` sentinel.
fn int_column(len: usize, value: impl Fn(usize) -> Option<i64>) -> Column {
    let cells: Vec<Option<i64>> = (0..len).map(value).collect();
    Column::Int {
        values: cells.iter().map(|c| c.unwrap_or(0)).collect(),
        nulls: nulls_where(len, |i| cells[i].is_none()),
    }
}

/// A `Float` column of `len` rows; `value` gives a cell and whether the
/// row is int-flagged (its value then is an integer within ±2^53).
fn float_column(len: usize, value: impl Fn(usize) -> Option<(f64, bool)>) -> Column {
    let cells: Vec<Option<(f64, bool)>> = (0..len).map(value).collect();
    Column::Float {
        values: cells.iter().map(|c| c.map_or(0.0, |c| c.0)).collect(),
        nulls: nulls_where(len, |i| cells[i].is_none()),
        ints: nulls_where(len, |i| cells[i].is_some_and(|c| c.1)),
    }
}

/// Lengths 0 and 1 and either side of the powers of two the slot table
/// rounds to.
const LENGTHS: [usize; 17] = [
    0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 511, 512, 513, 1024, 1025,
];

const WILD_FLOATS: [f64; 12] = [
    f64::NAN,
    -f64::NAN,
    // NaNs with other payloads.
    f64::from_bits(0x7ff0_0000_0000_0001),
    f64::from_bits(0xfff8_0000_0000_00ff),
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    -1.5,
    1e308,
    f64::MAX,
];

#[test]
fn int_columns_group_as_the_map_did() {
    for len in LENGTHS {
        // Slots in the table: at least two per row, a power of two.
        let slots = (2 * len).next_power_of_two() as i64;
        let shapes: [&dyn Fn(usize) -> Option<i64>; 7] = [
            &|_| Some(42),
            &|i| Some(i as i64),
            &|_| None,
            // Keys apart only in their high bits.
            &|i| Some(((i % 13) as i64) << 50),
            // Keys equal modulo the slot count.
            &|i| Some((i % 17) as i64 * slots),
            &|i| match i % 5 {
                0 => None,
                1 => Some(i64::MIN),
                2 => Some(i64::MAX),
                3 => Some(-1),
                _ => Some(0),
            },
            &|i| (i % 7 != 3).then_some(i as i64 % 37 - 18),
        ];
        for shape in shapes {
            check(&int_column(len, shape));
        }
    }
}

#[test]
fn float_columns_group_as_the_map_did() {
    for len in LENGTHS {
        let slots = (2 * len).next_power_of_two() as u64;
        let shapes: [&dyn Fn(usize) -> Option<(f64, bool)>; 8] = [
            // NaN of both signs is one class, as are the two zeros.
            &|i| Some((if i % 2 == 0 { f64::NAN } else { -f64::NAN }, false)),
            &|i| Some((if i % 3 == 0 { -0.0 } else { 0.0 }, false)),
            &|i| Some((i as f64 + 0.5, false)),
            &|i| (i % 4 != 1).then_some((WILD_FLOATS[i % WILD_FLOATS.len()], false)),
            // Int-flagged rows beside equal and unequal floats.
            &|i| match i % 6 {
                0 => Some(((i % 5) as f64, true)),
                1 => Some((2.0, false)),
                2 => None,
                3 => Some(((1i64 << 53) as f64, true)),
                4 => Some((-((1i64 << 53) as f64), true)),
                _ => Some(((i % 5) as f64 + 0.25, false)),
            },
            // Bit patterns apart only in sign and exponent: ±0, ±inf and
            // signed powers of two.
            &|i| Some((f64::from_bits((i as u64 * 2531 % 4096) << 52), false)),
            // Bit patterns equal modulo the slot count.
            &|i| {
                Some((
                    f64::from_bits(1.0f64.to_bits() + (i % 19) as u64 * slots),
                    false,
                ))
            },
            &|i| (i % 9 != 0).then_some(((i % 11) as f64 * -0.5, false)),
        ];
        for shape in shapes {
            check(&float_column(len, shape));
        }
    }
}

proptest! {
    #[test]
    fn random_int_columns_group_as_the_map_did(
        cells in prop::collection::vec((0u8..8, any::<i64>(), 0u8..16), 0..300),
    ) {
        // A small pool, so values repeat, plus the extremes and raw draws.
        let column = int_column(cells.len(), |i| {
            let (kind, raw, small) = cells[i];
            match kind {
                0 => None,
                1 => Some(i64::MIN + i64::from(small % 2)),
                2 => Some(i64::MAX - i64::from(small % 2)),
                3 => Some(raw),
                4 => Some(i64::from(small) << 56),
                _ => Some(i64::from(small) - 8),
            }
        });
        check(&column);
    }

    #[test]
    fn random_float_columns_group_as_the_map_did(
        cells in prop::collection::vec((0u8..8, any::<u64>(), 0u8..16), 0..300),
    ) {
        let column = float_column(cells.len(), |i| {
            let (kind, raw, small) = cells[i];
            match kind {
                0 => None,
                1 => Some((WILD_FLOATS[usize::from(small) % WILD_FLOATS.len()], false)),
                2 => Some((f64::from(small) - 8.0, true)),
                3 => Some((f64::from(small) - 8.0, false)),
                4 => Some((f64::from_bits(raw), false)),
                5 => Some((f64::from_bits(u64::from(small) << 60), false)),
                _ => Some((f64::from(small) * 0.25, false)),
            }
        });
        check(&column);
    }
}
