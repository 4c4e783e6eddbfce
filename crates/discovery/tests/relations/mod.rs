//! The random relations the pairwise oracle (`pairwise_oracle.rs`) and
//! mp-discovery's rank tests (`src/od.rs`, `src/rank.rs`) draw: 2–5
//! columns of dictionary text, `Int`, `Float` and int-flagged floats, with
//! nulls, repeated values and ±0.0, and on request NaN of either sign and
//! ±inf.

use mp_relation::{Attribute, Relation, Schema, Value};
use proptest::prelude::*;

/// Repeated floats, both zeros, fractions.
const FLOATS: [f64; 7] = [-1.5, -0.0, 0.0, 0.5, 2.0, 2.25, 7.0];
/// Floats with NaN of either sign, both infinities, and values whose
/// differences overflow to infinity.
const WILD_FLOATS: [f64; 12] = [
    -1.5,
    -0.0,
    0.0,
    0.5,
    7.0,
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e308,
    -1e308,
    f64::MIN_POSITIVE,
];
const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// One column layout a generated relation may use.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Text,
    CategoricalInt,
    ContinuousInt,
    ContinuousFloat,
    /// Ints and floats in one continuous column: a float column whose int
    /// rows are flagged.
    IntFlaggedFloat,
    CategoricalFloat,
}

const LAYOUTS: [Layout; 6] = [
    Layout::Text,
    Layout::CategoricalInt,
    Layout::ContinuousInt,
    Layout::ContinuousFloat,
    Layout::IntFlaggedFloat,
    Layout::CategoricalFloat,
];
const MAX_WIDTH: usize = 5;

/// The cell for `draw` (a random `u8`) in a column of `layout`; about one
/// cell in eight is null.
fn cell(layout: Layout, draw: u8, floats: &[f64]) -> Value {
    if draw < 32 {
        return Value::Null;
    }
    let k = usize::from(draw / 8);
    match layout {
        Layout::Text => Value::from(LABELS[k % LABELS.len()]),
        Layout::CategoricalInt | Layout::ContinuousInt => Value::Int((k % 5) as i64 - 2),
        Layout::ContinuousFloat | Layout::CategoricalFloat => {
            Value::Float(floats[k % floats.len()])
        }
        Layout::IntFlaggedFloat if k % 2 == 0 => Value::Int((k / 2 % 4) as i64 - 1),
        Layout::IntFlaggedFloat => Value::Float(floats[k / 2 % floats.len()]),
    }
}

/// A relation with one column per entry of `layouts` (indices into
/// [`LAYOUTS`]) and one row per entry of `rows`; the rows from `split` on
/// draw their cells with `tail_layouts`, which keep each column's kind.
fn build(
    layouts: &[usize],
    tail_layouts: &[usize],
    split: usize,
    rows: &[Vec<u8>],
    floats: &[f64],
) -> Relation {
    let attrs = layouts
        .iter()
        .enumerate()
        .map(|(i, &l)| match LAYOUTS[l] {
            Layout::ContinuousInt | Layout::ContinuousFloat | Layout::IntFlaggedFloat => {
                Attribute::continuous(format!("c{i}"))
            }
            _ => Attribute::categorical(format!("c{i}")),
        })
        .collect();
    let schema = Schema::new(attrs).unwrap();
    let rows = rows
        .iter()
        .enumerate()
        .map(|(r, draws)| {
            let layouts = if r < split { layouts } else { tail_layouts };
            layouts
                .iter()
                .zip(draws)
                .map(|(&l, &d)| cell(LAYOUTS[l], d, floats))
                .collect()
        })
        .collect();
    Relation::from_rows(schema, rows).unwrap()
}

/// The layout a column of `layout` switches to for a tail of rows: a
/// continuous column takes the int, float or int-flagged layout `alt`
/// picks, so ints may be promoted into a float column. A categorical
/// column keeps its layout, since one that mixed cell types would not
/// fit its kind.
fn same_kind(layout: usize, alt: usize) -> usize {
    match LAYOUTS[layout] {
        Layout::Text | Layout::CategoricalInt | Layout::CategoricalFloat => layout,
        Layout::ContinuousInt | Layout::ContinuousFloat | Layout::IntFlaggedFloat => {
            [2, 3, 4][alt % 3]
        }
    }
}

/// 2–5 columns of random layouts and 0–24 rows; `wild` draws floats from
/// [`WILD_FLOATS`] instead of [`FLOATS`]. Half the relations draw a tail
/// of rows with the layouts [`same_kind`] picks.
pub(crate) fn relation_where(wild: impl Strategy<Value = bool>) -> impl Strategy<Value = Relation> {
    (
        prop::collection::vec(0..LAYOUTS.len(), 2..=MAX_WIDTH),
        prop::collection::vec(0..LAYOUTS.len(), MAX_WIDTH),
        prop::collection::vec(prop::collection::vec(any::<u8>(), MAX_WIDTH), 0..25),
        any::<u8>(),
        wild,
    )
        .prop_map(|(layouts, alts, rows, split, wild)| {
            let floats: &[f64] = if wild { &WILD_FLOATS } else { &FLOATS };
            let split = if split < 128 {
                rows.len()
            } else {
                usize::from(split) % (rows.len() + 1)
            };
            let tail_layouts: Vec<usize> = layouts
                .iter()
                .zip(&alts)
                .map(|(&l, &a)| same_kind(l, a))
                .collect();
            build(&layouts, &tail_layouts, split, &rows, floats)
        })
}
