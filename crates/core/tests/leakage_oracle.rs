//! Oracle test for the leakage kernel (Definitions 2.2/2.3 and the MSE).
//!
//! `mp_core::attr_matches` scores every whole-relation count, every Table
//! III/IV cell, every audit-matrix cell and the HFL permutation baseline
//! through typed fast paths: remapped dictionary codes, and primitive
//! slices under the null bitmaps. It must count exactly what the row-wise
//! definitions count — `ValueRef` equality for a categorical attribute,
//! `|x − y| ≤ ε` over `f64_at` for a continuous one — on every pair of
//! column layouts and on any row subset. The row-wise scan the audit
//! matrix used before it shared the kernel is kept here as the reference.
//! `attr_mse` must equal a row-order sum bit for bit.
//!
//! Every case builds the same draws into all four layouts on both sides
//! and checks all sixteen layout pairs: dictionaries in different orders,
//! of different sizes and with a repeated label; `Int`; `Float` with
//! int-flagged rows; `Boxed` text and numbers. Cells include nulls, NaN of
//! both signs, ±0.0, +∞, and `Int(k)` facing `Float(k)`.

use mp_core::{attr_matches, attr_mse};
use mp_relation::{AttrKind, Bitmap, Column, Value};
use proptest::prelude::*;

// ---- references -------------------------------------------------------------

/// Index-aligned matches between real and synthetic columns, restricted
/// to the scored `rows`. Continuous attributes use Definition 2.3
/// (ε-ball, both values present); categorical ones use Definition 2.2
/// (exact [`mp_relation::ValueRef`] equality).
fn reference_matches(
    real: &Column,
    syn: &Column,
    kind: AttrKind,
    rows: &[usize],
    epsilon: f64,
) -> usize {
    let mut matched = 0;
    for &i in rows {
        let hit = match kind {
            AttrKind::Continuous => match (real.f64_at(i), syn.f64_at(i)) {
                (Some(x), Some(y)) => (x - y).abs() <= epsilon,
                _ => false,
            },
            AttrKind::Categorical => real.value_ref(i) == syn.value_ref(i),
        };
        if hit {
            matched += 1;
        }
    }
    matched
}

/// The MSE over `rows` where both cells are numeric, summed in row order.
fn reference_mse(real: &Column, syn: &Column, rows: &[usize]) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &i in rows {
        if let (Some(x), Some(y)) = (real.f64_at(i), syn.f64_at(i)) {
            sum += (x - y) * (x - y);
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

// ---- columns ----------------------------------------------------------------

const LABELS: [&str; 5] = ["a", "b", "c", "d", "e"];
/// Integers; 0, 1 and 2 also appear in [`FLOATS`], so `Int(k)` meets
/// `Float(k)`.
const INTS: [i64; 4] = [-1, 0, 1, 2];
/// Both zeros, integral floats, a fraction, NaN of both signs and +∞
/// (`∞ − ∞` is NaN, so ∞ is never ε-close to itself).
const FLOATS: [f64; 8] = [0.0, -0.0, 1.0, 2.0, 0.5, f64::NAN, -f64::NAN, f64::INFINITY];
const EPSILONS: [f64; 5] = [0.0, 0.5, 1e308, f64::INFINITY, f64::NAN];
const MAX_ROWS: usize = 24;

/// One physical layout of a [`Column`].
#[derive(Debug, Clone, Copy)]
enum Layout {
    Categorical,
    Int,
    /// Floats plus int-flagged rows holding an integer.
    Float,
    /// Text and numbers in one column.
    Boxed,
}

const LAYOUTS: [Layout; 4] = [
    Layout::Categorical,
    Layout::Int,
    Layout::Float,
    Layout::Boxed,
];

/// A column of `layout` with one row per draw; about one row in eight is
/// null. `dict` shapes a dictionary column: its labels start at rotation
/// `dict % 5`, it holds 2–5 of them, and with bit 5 set it repeats its
/// first label at the end, where some rows' codes point.
fn column(layout: Layout, draws: &[u8], dict: u8) -> Column {
    let k = |d: u8| usize::from(d / 2);
    match layout {
        Layout::Categorical => {
            let rotate = usize::from(dict) % LABELS.len();
            let size = 2 + usize::from(dict / 8) % 4;
            let mut labels: Vec<String> = (0..size)
                .map(|i| LABELS[(rotate + i) % LABELS.len()].to_owned())
                .collect();
            if dict & 32 != 0 {
                labels.push(labels[0].clone());
            }
            let codes = draws
                .iter()
                .map(|&d| {
                    if d < 32 {
                        0
                    } else {
                        1 + (k(d) % labels.len()) as u32
                    }
                })
                .collect();
            Column::Categorical {
                dict: labels,
                codes,
            }
        }
        Layout::Int => {
            let mut values = Vec::with_capacity(draws.len());
            let mut nulls = Bitmap::new();
            for &d in draws {
                values.push(if d < 32 { 0 } else { INTS[k(d) % INTS.len()] });
                nulls.push(d < 32);
            }
            Column::Int { values, nulls }
        }
        Layout::Float => {
            let mut values = Vec::with_capacity(draws.len());
            let mut nulls = Bitmap::new();
            let mut ints = Bitmap::new();
            for &d in draws {
                let null = d < 32;
                let int_row = !null && d % 2 == 1;
                values.push(if null {
                    0.0
                } else if int_row {
                    INTS[k(d) % INTS.len()] as f64
                } else {
                    FLOATS[k(d) % FLOATS.len()]
                });
                nulls.push(null);
                ints.push(int_row);
            }
            Column::Float {
                values,
                nulls,
                ints,
            }
        }
        Layout::Boxed => Column::Boxed(
            draws
                .iter()
                .map(|&d| match d % 3 {
                    _ if d < 32 => Value::Null,
                    0 => Value::from(LABELS[k(d) % LABELS.len()]),
                    1 => Value::Int(INTS[k(d) % INTS.len()]),
                    _ => Value::Float(FLOATS[k(d) % FLOATS.len()]),
                })
                .collect(),
        ),
    }
}

/// The row subsets every case scores: none, all rows in order, and a
/// prefix of a permutation of the rows.
fn subsets(n: usize, keys: &[u32], take: usize) -> [Vec<usize>; 3] {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&i| keys[i]);
    perm.truncate(take.min(n));
    [Vec::new(), (0..n).collect(), perm]
}

fn check_pair(real: &Column, syn: &Column, rows: &[usize]) -> Result<(), TestCaseError> {
    for kind in [AttrKind::Categorical, AttrKind::Continuous] {
        for epsilon in EPSILONS {
            prop_assert_eq!(
                attr_matches(real, syn, kind, epsilon, rows.iter().copied()),
                reference_matches(real, syn, kind, rows, epsilon),
                "{} vs {}, {:?}, ε {}, rows {:?}",
                real.repr_name(),
                syn.repr_name(),
                kind,
                epsilon,
                rows
            );
        }
    }
    prop_assert_eq!(
        attr_mse(real, syn, rows.iter().copied()).map(f64::to_bits),
        reference_mse(real, syn, rows).map(f64::to_bits),
        "MSE of {} vs {}, rows {:?}",
        real.repr_name(),
        syn.repr_name(),
        rows
    );
    Ok(())
}

#[test]
fn kernel_counts_nulls_nan_and_signed_zero_like_value_equality() {
    // Row 0: null/null. Row 1: +0.0 vs −0.0. Row 2: NaN vs −NaN.
    // Row 3: Int(2) vs Float(2.0). Row 4: 1.0 vs 0.5.
    let real = Column::Boxed(vec![
        Value::Null,
        Value::Float(0.0),
        Value::Float(f64::NAN),
        Value::Int(2),
        Value::Float(1.0),
    ]);
    let syn = column(
        Layout::Float,
        &[0, 32 * 2 + 2, 32 * 2 + 12, 32 * 2 + 7, 32 * 2 + 8],
        0,
    );
    assert_eq!(
        syn.to_values(),
        vec![
            Value::Null,
            Value::Float(-0.0),
            Value::Float(-f64::NAN),
            Value::Int(2),
            Value::Float(0.5),
        ]
    );
    let all = || 0..5;
    // Definition 2.2: rows 0–3 are equal values.
    assert_eq!(
        attr_matches(&real, &syn, AttrKind::Categorical, 0.0, all()),
        4
    );
    // Definition 2.3: rows 1 and 3 at ε = 0; row 4 joins at ε = 0.5;
    // NaN and null rows never match.
    assert_eq!(
        attr_matches(&real, &syn, AttrKind::Continuous, 0.0, all()),
        2
    );
    assert_eq!(
        attr_matches(&real, &syn, AttrKind::Continuous, 0.5, all()),
        3
    );
    assert_eq!(
        attr_matches(&real, &syn, AttrKind::Continuous, f64::NAN, all()),
        0
    );
    // Rows 1, 3, 4 are both numeric without NaN; row 2's NaN poisons the sum.
    assert_eq!(
        attr_mse(&real, &syn, [1, 3, 4].into_iter()),
        Some(0.25 / 3.0)
    );
    assert!(attr_mse(&real, &syn, all()).unwrap().is_nan());
    assert_eq!(attr_mse(&real, &syn, [0].into_iter()), None);
}

#[test]
fn boxed_integers_above_2_pow_53_match_floats_by_exact_value() {
    // Definition 2.2 is exact equality: the float 2^53 matches Int(2^53)
    // (row 1) and not Int(2^53 + 1) (row 0), though both round to it.
    const P53: i64 = 1 << 53;
    let real = Column::Boxed(vec![Value::Int(P53 + 1), Value::Int(P53)]);
    let syn = Column::Boxed(vec![Value::Float(P53 as f64), Value::Float(P53 as f64)]);
    assert_eq!(
        attr_matches(&real, &syn, AttrKind::Categorical, 0.0, 0..2),
        1
    );
    assert_eq!(
        attr_matches(&real, &syn, AttrKind::Categorical, 0.0, [0].into_iter()),
        0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_row_wise_definitions_on_every_layout_pair(
        draws in prop::collection::vec((any::<u8>(), any::<u8>()), 0..=MAX_ROWS),
        dicts in (any::<u8>(), any::<u8>()),
        keys in prop::collection::vec(any::<u32>(), MAX_ROWS),
        take in 0..=MAX_ROWS,
    ) {
        let (real_draws, syn_draws): (Vec<u8>, Vec<u8>) = draws.iter().copied().unzip();
        let reals: Vec<Column> =
            LAYOUTS.iter().map(|&l| column(l, &real_draws, dicts.0)).collect();
        let syns: Vec<Column> =
            LAYOUTS.iter().map(|&l| column(l, &syn_draws, dicts.1)).collect();
        for rows in subsets(draws.len(), &keys, take) {
            for real in &reals {
                for syn in &syns {
                    check_pair(real, syn, &rows)?;
                }
            }
        }
    }
}
