//! Typed columnar storage — the representation underneath [`crate::Relation`].
//!
//! Every quantity the paper computes — PLIs for TANE/AFD discovery,
//! index-aligned exact-match counts (Definition 2.2), ε-ball hits and MSE
//! (Definition 2.3) — is a whole-column scan, so cells are stored in typed
//! columns instead of boxed [`Value`] enums:
//!
//! * [`Column::Categorical`] — dictionary-encoded text: one `u32` code per
//!   row, **code 0 reserved for null**, code `k ≥ 1` meaning `dict[k - 1]`.
//!   Equality tests and partition grouping compare codes, never strings.
//!   The dictionary sits behind an [`Arc`], so row slices, projections
//!   and clones share one label list instead of copying it.
//! * [`Column::Int`] — `Vec<i64>` plus a null [`Bitmap`] (null rows hold a
//!   `0` sentinel and are ignored through the mask).
//! * [`Column::Float`] — `Vec<f64>` plus a null bitmap, plus an `ints`
//!   bitmap marking rows that materialise as [`Value::Int`] (mixed
//!   int/float numeric columns are stored unified as `f64`; only integers
//!   exactly representable in an `f64` take this path).
//! * [`Column::Boxed`] — the boxed fallback for the one heterogeneous
//!   column a typed layout cannot represent losslessly: an integer beyond
//!   ±2^53 mixed with floats, which CSV ingest produces from a numeric
//!   column such as `9007199254740993` / `0.5` / `1` (a text/number mix
//!   is read as text instead). Semantically identical to the
//!   pre-columnar `Vec<Value>` storage.
//!
//! `Value` remains the *boundary* type: CSV I/O, serde exchange packages
//! and the public cell API materialise `Value`s at the edge, while the hot
//! paths (PLI construction, leakage counting, MSE) read the typed data
//! directly. All representations round-trip through `Value` rows exactly,
//! and grouping/equality semantics are bit-identical to `Value`'s
//! canonical comparison rules (NaN ≡ NaN, `-0.0` ≡ `0.0`, `Int(k)` ≡
//! `Float(k as f64)`).

use crate::error::{RelationError, Result};
use crate::group::first_occurrence_codes;
use crate::schema::{AttrKind, Attribute};
use crate::value::{canonical_f64_bits, Value, ValueRef};
use std::collections::HashMap;
use std::sync::Arc;

/// Largest integer magnitude exactly representable in an `f64`.
const INT_EXACT_IN_F64: i64 = 1 << 53;

#[inline]
fn int_fits_f64(i: i64) -> bool {
    (-INT_EXACT_IN_F64..=INT_EXACT_IN_F64).contains(&i)
}

/// A packed bitmap used as the null mask (and int-row mask) of typed
/// columns. Bit set = property holds for that row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let mut words = vec![if value { !0u64 } else { 0u64 }; len.div_ceil(64)];
        if value {
            if let Some(last) = words.last_mut() {
                let used = len % 64;
                if used != 0 {
                    *last = (1u64 << used) - 1;
                }
            }
        }
        Self {
            words,
            len,
            ones: if value { len } else { 0 },
        }
    }

    /// Number of bits.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of set bits.
    pub(crate) fn count_ones(&self) -> usize {
        self.ones
    }

    /// `true` when no bit is set.
    pub(crate) fn none_set(&self) -> bool {
        self.ones == 0
    }

    /// The bit at `i` (must be in bounds).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
            self.ones += 1;
        }
        self.len += 1;
    }

    /// The bitmap restricted to `rows` (in the given order).
    pub(crate) fn select(&self, rows: &[usize]) -> Bitmap {
        let mut out = Bitmap::new();
        for &r in rows {
            out.push(self.get(r));
        }
        out
    }
}

/// A typed column of a relation. See the module docs for the layout and
/// the null-code/bitmap conventions.
#[derive(Debug, Clone)]
pub enum Column {
    /// Dictionary-encoded text (code 0 = null, `k ≥ 1` → `dict[k - 1]`).
    Categorical {
        /// Labels in first-occurrence order, shared by every slice and
        /// clone of the column. Builders list each label once; a label
        /// listed twice is still one value.
        dict: Arc<Vec<String>>,
        /// Per-row codes into `dict` (shifted by one; 0 is null).
        codes: Vec<u32>,
    },
    /// 64-bit integers with a null mask (null rows hold `0`).
    Int {
        /// Per-row values (`0` sentinel under null).
        values: Vec<i64>,
        /// Null mask.
        nulls: Bitmap,
    },
    /// 64-bit floats with a null mask; `ints` marks rows that materialise
    /// as [`Value::Int`] so mixed numeric columns round-trip exactly.
    Float {
        /// Per-row values (`0.0` sentinel under null).
        values: Vec<f64>,
        /// Null mask.
        nulls: Bitmap,
        /// Rows that were pushed as integers.
        ints: Bitmap,
    },
    /// Boxed fallback for heterogeneous columns no typed layout represents
    /// losslessly.
    Boxed(Vec<Value>),
}

impl Default for Column {
    /// The empty column (starts as an all-null integer column and promotes
    /// itself on the first non-null push).
    fn default() -> Self {
        Column::Int {
            values: Vec::new(),
            nulls: Bitmap::new(),
        }
    }
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Categorical { codes, .. } => codes.len(),
            Column::Int { values, .. } => values.len(),
            Column::Float { values, .. } => values.len(),
            Column::Boxed(values) => values.len(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Categorical { codes, .. } => codes.iter().filter(|&&c| c == 0).count(),
            Column::Int { nulls, .. } => nulls.count_ones(),
            Column::Float { nulls, .. } => nulls.count_ones(),
            Column::Boxed(values) => values.iter().filter(|v| v.is_null()).count(),
        }
    }

    /// `true` when row `i` is null (must be in bounds).
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Categorical { codes, .. } => codes[i] == 0,
            Column::Int { nulls, .. } => nulls.get(i),
            Column::Float { nulls, .. } => nulls.get(i),
            Column::Boxed(values) => values[i].is_null(),
        }
    }

    /// Borrowing view of the cell at `i` (must be in bounds).
    #[inline]
    pub fn value_ref(&self, i: usize) -> ValueRef<'_> {
        match self {
            Column::Categorical { dict, codes } => match codes[i] {
                0 => ValueRef::Null,
                c => ValueRef::Text(&dict[(c - 1) as usize]),
            },
            Column::Int { values, nulls } => {
                if nulls.get(i) {
                    ValueRef::Null
                } else {
                    ValueRef::Int(values[i])
                }
            }
            Column::Float {
                values,
                nulls,
                ints,
            } => {
                if nulls.get(i) {
                    ValueRef::Null
                } else if ints.get(i) {
                    ValueRef::Int(values[i] as i64)
                } else {
                    ValueRef::Float(values[i])
                }
            }
            Column::Boxed(values) => values[i].as_value_ref(),
        }
    }

    /// Owned cell at `i` (must be in bounds).
    pub fn value(&self, i: usize) -> Value {
        self.value_ref(i).to_value()
    }

    /// Numeric view of the cell at `i` (`Int` widens to `f64`; nulls and
    /// text yield `None`). Must be in bounds.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            Column::Categorical { .. } => None,
            Column::Int { values, nulls } => {
                if nulls.get(i) {
                    None
                } else {
                    Some(values[i] as f64)
                }
            }
            Column::Float { values, nulls, .. } => {
                if nulls.get(i) {
                    None
                } else {
                    Some(values[i])
                }
            }
            Column::Boxed(values) => values[i].as_f64(),
        }
    }

    /// Iterator of borrowing cell views in row order.
    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.value_ref(i))
    }

    /// Materialises the whole column as owned [`Value`]s (the boundary
    /// representation used by CSV/serde and the naive oracle baselines).
    pub fn to_values(&self) -> Vec<Value> {
        match self {
            Column::Boxed(values) => values.clone(),
            _ => self.iter().map(|v| v.to_value()).collect(),
        }
    }

    /// The float data and null mask of a [`Column::Float`] column.
    pub fn as_float_parts(&self) -> Option<(&[f64], &Bitmap)> {
        match self {
            Column::Float { values, nulls, .. } => Some((values, nulls)),
            _ => None,
        }
    }

    /// A short name for the physical representation, for reports.
    pub fn repr_name(&self) -> &'static str {
        match self {
            Column::Categorical { .. } => "dict",
            Column::Int { .. } => "i64",
            Column::Float { .. } => "f64",
            Column::Boxed(_) => "boxed",
        }
    }

    /// Per-row equality-class codes plus an exclusive upper bound on the
    /// codes, for counting-style partition construction. Two rows receive
    /// the same code iff their cells compare equal under [`Value`]'s
    /// canonical semantics (nulls form one class of their own).
    pub fn group_codes(&self) -> (Vec<u32>, usize) {
        match self {
            Column::Categorical { dict, codes } => {
                let codes = match first_label_codes(dict) {
                    Some(first) => codes.iter().map(|&c| first[c as usize]).collect(),
                    None => codes.clone(),
                };
                (codes, dict.len() + 1)
            }
            Column::Int { values, nulls } => {
                first_occurrence_codes(values.len(), nulls, |row| values[row] as u64)
            }
            Column::Float { values, nulls, .. } => {
                first_occurrence_codes(values.len(), nulls, |row| canonical_f64_bits(values[row]))
            }
            Column::Boxed(values) => {
                let mut lookup: HashMap<&Value, u32> =
                    HashMap::with_capacity(values.len().min(1024));
                let mut next = 0u32;
                let codes = values
                    .iter()
                    .map(|v| {
                        *lookup.entry(v).or_insert_with(|| {
                            let c = next;
                            next += 1;
                            c
                        })
                    })
                    .collect();
                (codes, next as usize)
            }
        }
    }

    /// Number of distinct values (nulls count as one distinct value).
    pub fn distinct_count(&self) -> usize {
        match self {
            Column::Categorical { dict, codes } => {
                // After row selection some dict entries may be unused, so
                // count the codes actually present.
                let first = first_label_codes(dict);
                let mut seen = vec![false; dict.len() + 1];
                let mut distinct = 0;
                for &c in codes {
                    let c = first.as_ref().map_or(c, |first| first[c as usize]);
                    if !seen[c as usize] {
                        seen[c as usize] = true;
                        distinct += 1;
                    }
                }
                distinct
            }
            Column::Int { nulls, .. } | Column::Float { nulls, .. } => {
                self.group_codes().1 - 1 + usize::from(!nulls.none_set())
            }
            Column::Boxed(values) => {
                let mut vals: Vec<&Value> = values.iter().collect();
                vals.sort();
                vals.dedup();
                vals.len()
            }
        }
    }

    /// The column restricted to `rows` (in the given order; indices must
    /// be in bounds). Dictionary-encoded columns copy codes and share the
    /// dictionary: the slice holds the same [`Arc`], no label is copied.
    pub fn select(&self, rows: &[usize]) -> Column {
        match self {
            Column::Categorical { dict, codes } => Column::Categorical {
                dict: Arc::clone(dict),
                codes: rows.iter().map(|&r| codes[r]).collect(),
            },
            Column::Int { values, nulls } => Column::Int {
                values: rows.iter().map(|&r| values[r]).collect(),
                nulls: nulls.select(rows),
            },
            Column::Float {
                values,
                nulls,
                ints,
            } => Column::Float {
                values: rows.iter().map(|&r| values[r]).collect(),
                nulls: nulls.select(rows),
                ints: ints.select(rows),
            },
            Column::Boxed(values) => {
                Column::Boxed(rows.iter().map(|&r| values[r].clone()).collect())
            }
        }
    }

    /// Appends one [`Value`], promoting the physical representation when
    /// the value does not fit the current one (all-null columns adopt the
    /// first non-null value's layout; `Int` + `Float` unify as `Float`
    /// when exact, and anything unrepresentable falls back to
    /// [`Column::Boxed`]). Storage-level only: the kind check happens when
    /// a relation is built, in
    /// [`Relation::from_typed_columns`](crate::Relation::from_typed_columns).
    pub fn push_value(&mut self, v: Value) {
        match v {
            Value::Null => match self {
                Column::Categorical { codes, .. } => codes.push(0),
                Column::Int { values, nulls } => {
                    values.push(0);
                    nulls.push(true);
                }
                Column::Float {
                    values,
                    nulls,
                    ints,
                } => {
                    values.push(0.0);
                    nulls.push(true);
                    ints.push(false);
                }
                Column::Boxed(values) => values.push(Value::Null),
            },
            Value::Int(i) => match self {
                Column::Boxed(values) => values.push(Value::Int(i)),
                Column::Int { values, nulls } => {
                    values.push(i);
                    nulls.push(false);
                }
                Column::Float {
                    values,
                    nulls,
                    ints,
                } if int_fits_f64(i) => {
                    values.push(i as f64);
                    nulls.push(false);
                    ints.push(true);
                }
                _ if self.null_count() == self.len() => {
                    let n = self.len();
                    let mut values = vec![0i64; n];
                    values.push(i);
                    let mut nulls = Bitmap::filled(n, true);
                    nulls.push(false);
                    *self = Column::Int { values, nulls };
                }
                _ => {
                    self.demote_to_boxed();
                    self.push_value(Value::Int(i));
                }
            },
            Value::Float(f) => match self {
                Column::Boxed(values) => values.push(Value::Float(f)),
                Column::Float {
                    values,
                    nulls,
                    ints,
                } => {
                    values.push(f);
                    nulls.push(false);
                    ints.push(false);
                }
                Column::Int { values, nulls }
                    if values
                        .iter()
                        .enumerate()
                        .all(|(r, &x)| nulls.get(r) || int_fits_f64(x)) =>
                {
                    // Promote int → float: prior non-null rows keep their
                    // integer identity through the `ints` mask.
                    let floats: Vec<f64> = values.iter().map(|&x| x as f64).collect();
                    let mut ints = Bitmap::new();
                    for r in 0..values.len() {
                        ints.push(!nulls.get(r));
                    }
                    let mut nulls = nulls.clone();
                    let mut values = floats;
                    values.push(f);
                    nulls.push(false);
                    ints.push(false);
                    *self = Column::Float {
                        values,
                        nulls,
                        ints,
                    };
                }
                _ if self.null_count() == self.len() => {
                    let n = self.len();
                    let mut values = vec![0.0f64; n];
                    values.push(f);
                    let mut nulls = Bitmap::filled(n, true);
                    nulls.push(false);
                    let mut ints = Bitmap::filled(n, false);
                    ints.push(false);
                    *self = Column::Float {
                        values,
                        nulls,
                        ints,
                    };
                }
                _ => {
                    self.demote_to_boxed();
                    self.push_value(Value::Float(f));
                }
            },
            Value::Text(s) => match self {
                Column::Boxed(values) => values.push(Value::Text(s)),
                Column::Categorical { dict, codes } => {
                    // Linear dict scan; bulk construction goes through
                    // `ColumnBuilder`, which keeps a hash lookup instead. A
                    // new label copies a shared dictionary first.
                    let code = match dict.iter().position(|d| *d == s) {
                        Some(p) => (p + 1) as u32,
                        None => {
                            let dict = Arc::make_mut(dict);
                            dict.push(s);
                            dict.len() as u32
                        }
                    };
                    codes.push(code);
                }
                _ if self.null_count() == self.len() => {
                    let n = self.len();
                    let mut codes = vec![0u32; n];
                    codes.push(1);
                    *self = Column::Categorical {
                        dict: Arc::new(vec![s]),
                        codes,
                    };
                }
                _ => {
                    self.demote_to_boxed();
                    self.push_value(Value::Text(s));
                }
            },
        }
    }

    fn demote_to_boxed(&mut self) {
        if !matches!(self, Column::Boxed(_)) {
            *self = Column::Boxed(self.to_values());
        }
    }
}

/// Each code of `dict`'s column mapped to the first code that carries the
/// same label (null code 0 to itself), or `None` when every label is
/// listed once and codes already are equality classes.
fn first_label_codes(dict: &[String]) -> Option<Vec<u32>> {
    let mut first: HashMap<&str, u32> = HashMap::with_capacity(dict.len());
    let codes: Vec<u32> = std::iter::once(0)
        .chain(
            dict.iter()
                .zip(1u32..)
                .map(|(label, code)| *first.entry(label).or_insert(code)),
        )
        .collect();
    (first.len() < dict.len()).then_some(codes)
}

impl PartialEq for Column {
    /// Logical row-wise equality under [`Value`] semantics — two columns
    /// with different physical layouts (or dictionary orders) compare
    /// equal iff every row does.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (self, other) {
            (
                Column::Categorical {
                    dict: d1,
                    codes: c1,
                },
                Column::Categorical {
                    dict: d2,
                    codes: c2,
                },
            ) if d1 == d2 && c1 == c2 => true,
            _ => (0..self.len()).all(|i| self.value_ref(i) == other.value_ref(i)),
        }
    }
}

impl Eq for Column {}

/// Incremental, kind-agnostic builder of one typed column.
///
/// It checks nothing while rows arrive. Every column it builds reaches a
/// relation through
/// [`Relation::from_typed_columns`](crate::Relation::from_typed_columns),
/// which checks the whole column against its attribute's kind once:
/// `from_rows` and `from_columns` push their cells here first, and so
/// does CSV ingest, which learns a column's kind only once the whole
/// column has been seen (or a `#kinds` row declared it). Promotion rules
/// are exactly [`Column::push_value`]'s, but categorical
/// appends find their code through a hashed dictionary lookup, so bulk
/// builds cost O(1) per cell instead of a linear dictionary scan. The
/// dictionary stays a plain owned vector while rows arrive and is wrapped
/// in its [`Arc`] once, by [`ColumnBuilder::finish`]. The finished column,
/// dictionary order included, is the one that pushing the same values
/// through [`Column::push_value`] builds.
///
/// The builder also tracks whether any text and any numeric value was
/// pushed — the two facts CSV kind inference and the mixed-column
/// stringify pass need, gathered here so ingest never has to re-scan the
/// column.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnBuilder {
    /// The column so far, unless it is dictionary-encoded text.
    column: Column,
    /// The column so far while it is dictionary-encoded text.
    text: Option<TextColumn>,
    saw_text: bool,
    saw_numeric: bool,
}

/// A dictionary-encoded column under construction.
#[derive(Debug, Clone, Default)]
struct TextColumn {
    dict: Vec<String>,
    lookup: HashMap<String, u32>,
    codes: Vec<u32>,
}

impl TextColumn {
    fn finish(self) -> Column {
        Column::Categorical {
            dict: Arc::new(self.dict),
            codes: self.codes,
        }
    }
}

impl ColumnBuilder {
    /// Starts an empty builder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// `true` when any [`Value::Text`] was pushed.
    pub(crate) fn saw_text(&self) -> bool {
        self.saw_text
    }

    /// `true` when any non-null numeric ([`Value::Int`] / [`Value::Float`])
    /// was pushed.
    pub(crate) fn saw_numeric(&self) -> bool {
        self.saw_numeric
    }

    /// Appends one value, promoting the physical layout as needed (see
    /// [`Column::push_value`]).
    pub(crate) fn push(&mut self, v: Value) {
        match v {
            Value::Text(s) => self.push_text(&s),
            Value::Null => match &mut self.text {
                Some(text) => text.codes.push(0),
                None => self.column.push_value(v),
            },
            Value::Int(_) | Value::Float(_) => {
                self.saw_numeric = true;
                // A number after text leaves the dictionary layout:
                // `push_value` applies the promotion rules.
                if let Some(text) = &mut self.text {
                    self.column = std::mem::take(text).finish();
                    self.text = None;
                }
                self.column.push_value(v);
            }
        }
    }

    /// Appends one text cell. A categorical column finds the label in its
    /// dictionary by `&str` and allocates only for a label it has not
    /// seen; any other layout takes the [`Column::push_value`] path.
    pub(crate) fn push_text(&mut self, s: &str) {
        self.saw_text = true;
        if self.text.is_none() {
            if matches!(self.column, Column::Boxed(_))
                || self.column.null_count() != self.column.len()
            {
                self.column.push_value(Value::Text(s.to_owned()));
                return;
            }
            // The first text of an all-null column starts the dictionary.
            self.text = Some(TextColumn {
                codes: vec![0; self.column.len()],
                ..TextColumn::default()
            });
        }
        if let Some(text) = &mut self.text {
            let code = match text.lookup.get(s) {
                Some(&c) => c,
                None => {
                    text.dict.push(s.to_owned());
                    let c = text.dict.len() as u32;
                    text.lookup.insert(s.to_owned(), c);
                    c
                }
            };
            text.codes.push(code);
        }
    }

    /// Finishes the build.
    pub(crate) fn finish(self) -> Column {
        match self.text {
            Some(text) => text.finish(),
            None => self.column,
        }
    }
}

impl FromIterator<Value> for Column {
    /// Folds values into a typed column, promoting as
    /// [`Column::push_value`] does.
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        let mut builder = ColumnBuilder::new();
        for v in values {
            builder.push(v);
        }
        builder.finish()
    }
}

/// The kind rule, checked once per column by
/// [`Relation::from_typed_columns`](crate::Relation::from_typed_columns),
/// the gate every `Relation` constructor passes. Nulls fit any attribute.
/// A continuous column holds only numbers; a non-number is a mismatch
/// that expects `numeric`. A categorical column holds one cell type, that
/// of its first non-null cell; the first cell of another type is a
/// mismatch that expects it. Typed layouts settle most of this without a
/// scan: dictionary text and `Int` hold one type, and `Float` mixes types
/// only through its `ints` mask.
pub(crate) fn check_column_kind(attr: &Attribute, col: &Column) -> Result<()> {
    let mismatch = |expected: &'static str, got: &'static str| RelationError::TypeMismatch {
        column: attr.name.clone(),
        expected,
        got,
    };
    match attr.kind {
        AttrKind::Continuous => match col {
            Column::Int { .. } | Column::Float { .. } => Ok(()),
            Column::Categorical { codes, .. } => {
                if codes.iter().any(|&c| c != 0) {
                    Err(mismatch("numeric", "text"))
                } else {
                    Ok(())
                }
            }
            Column::Boxed(values) => {
                for v in values {
                    if !v.is_null() && v.as_f64().is_none() {
                        return Err(mismatch("numeric", v.type_name()));
                    }
                }
                Ok(())
            }
        },
        AttrKind::Categorical => match col {
            Column::Categorical { .. } | Column::Int { .. } => Ok(()),
            Column::Float { nulls, ints, .. } => {
                // Non-null rows must all share the first row's int-ness.
                let mut first: Option<bool> = None;
                for i in 0..nulls.len() {
                    if nulls.get(i) {
                        continue;
                    }
                    let is_int = ints.get(i);
                    match first {
                        None => first = Some(is_int),
                        Some(f) if f != is_int => {
                            return Err(if f {
                                mismatch("int", "float")
                            } else {
                                mismatch("float", "int")
                            });
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
            Column::Boxed(values) => {
                let mut established: Option<&'static str> = None;
                for v in values {
                    if v.is_null() {
                        continue;
                    }
                    match established {
                        None => established = Some(v.type_name()),
                        Some(e) if e != v.type_name() => {
                            return Err(mismatch(e, v.type_name()));
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one column of a relation `Relation::from_columns` builds from
    /// `values`, checked against `attr`'s kind.
    fn try_col_from(attr: &Attribute, values: &[Value]) -> Result<Column> {
        let schema = crate::Schema::new(vec![attr.clone()])?;
        crate::Relation::from_columns(schema, vec![values.to_vec()])?
            .column(0)
            .cloned()
    }

    fn col_from(attr: Attribute, values: &[Value]) -> Column {
        try_col_from(&attr, values).unwrap()
    }

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 44);
        assert!(b.get(0) && !b.get(1) && b.get(129));
        let sel = b.select(&[0, 1, 129]);
        assert_eq!(sel.count_ones(), 2);
        let full = Bitmap::filled(70, true);
        assert_eq!(full.count_ones(), 70);
        assert!(Bitmap::filled(70, false).none_set());
    }

    #[test]
    fn text_column_dictionary_encodes() {
        let c = col_from(
            Attribute::categorical("x"),
            &["a".into(), "b".into(), Value::Null, "a".into()],
        );
        let Column::Categorical { dict, codes } = &c else {
            panic!("dict layout");
        };
        assert_eq!(**dict, ["a".to_owned(), "b".to_owned()]);
        assert_eq!(*codes, [1, 2, 0, 1]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(c.value(3), Value::Text("a".into()));
        assert_eq!(c.value(2), Value::Null);
    }

    #[test]
    fn int_column_roundtrips() {
        let c = col_from(
            Attribute::continuous("x"),
            &[Value::Int(5), Value::Null, Value::Int(i64::MAX)],
        );
        assert!(matches!(c, Column::Int { .. }));
        assert_eq!(
            c.to_values(),
            vec![Value::Int(5), Value::Null, Value::Int(i64::MAX)]
        );
        assert_eq!(c.f64_at(0), Some(5.0));
        assert_eq!(c.f64_at(1), None);
    }

    #[test]
    fn mixed_numeric_unifies_as_float_with_int_mask() {
        let c = col_from(
            Attribute::continuous("x"),
            &[
                Value::Int(2),
                Value::Float(2.5),
                Value::Null,
                Value::Int(-7),
            ],
        );
        assert!(matches!(c, Column::Float { .. }));
        assert_eq!(
            c.to_values(),
            vec![
                Value::Int(2),
                Value::Float(2.5),
                Value::Null,
                Value::Int(-7)
            ]
        );
    }

    #[test]
    fn huge_int_mixed_with_float_falls_back_to_boxed() {
        let vals = [Value::Int(i64::MAX), Value::Float(0.5)];
        let c = col_from(Attribute::continuous("x"), &vals);
        assert!(matches!(c, Column::Boxed(_)), "{c:?}");
        assert_eq!(c.to_values(), vals);
        // And in the reverse push order too.
        let vals = [Value::Float(0.5), Value::Int(i64::MAX)];
        let c = col_from(Attribute::continuous("x"), &vals);
        assert!(matches!(c, Column::Boxed(_)), "{c:?}");
        assert_eq!(c.to_values(), vals);
    }

    #[test]
    fn leading_nulls_adopt_first_non_null_layout() {
        let c = col_from(
            Attribute::categorical("x"),
            &[Value::Null, Value::Null, "z".into()],
        );
        assert!(matches!(c, Column::Categorical { .. }));
        assert_eq!(
            c.to_values(),
            vec![Value::Null, Value::Null, Value::Text("z".into())]
        );

        let c = col_from(
            Attribute::continuous("x"),
            &[Value::Null, Value::Float(1.5)],
        );
        assert!(matches!(c, Column::Float { .. }));
        assert_eq!(c.to_values(), vec![Value::Null, Value::Float(1.5)]);
    }

    #[test]
    fn kind_checks_match_boxed_semantics() {
        let err = try_col_from(
            &Attribute::continuous("age"),
            &[Value::Int(3), "old".into()],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RelationError::TypeMismatch {
                expected: "numeric",
                got: "text",
                ..
            }
        ));

        let err = try_col_from(
            &Attribute::categorical("name"),
            &["x".into(), Value::Int(3)],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RelationError::TypeMismatch {
                expected: "text",
                got: "int",
                ..
            }
        ));
    }

    #[test]
    fn group_codes_match_value_equality() {
        for vals in [
            vec![Value::Int(2), Value::Float(2.0), Value::Null, Value::Int(2)],
            vec!["a".into(), "b".into(), "a".into(), Value::Null],
            vec![
                Value::Float(f64::NAN),
                Value::Float(-f64::NAN),
                Value::Float(-0.0),
                Value::Float(0.0),
            ],
        ] {
            let col = try_col_from(&Attribute::categorical("x"), &vals)
                .unwrap_or_else(|_| Column::Boxed(vals.clone()));
            let (codes, bound) = col.group_codes();
            assert!(codes.iter().all(|&c| (c as usize) < bound));
            for i in 0..vals.len() {
                for j in 0..vals.len() {
                    assert_eq!(
                        codes[i] == codes[j],
                        vals[i] == vals[j],
                        "{vals:?} rows {i},{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_labels_are_one_value() {
        let dict = Arc::new(vec!["a".to_string(), "b".into(), "a".into()]);
        let dup = Column::Categorical {
            dict: Arc::clone(&dict),
            codes: vec![1, 3, 2, 0, 3],
        };
        assert_eq!(dup.group_codes(), (vec![1, 1, 2, 0, 1], 4));
        assert_eq!(dup.distinct_count(), 3);
        let p = crate::Pli::from_typed(&dup);
        assert_eq!(p, crate::Pli::from_column(&dup.to_values()));
        assert_eq!(p.clusters().collect::<Vec<_>>(), [[0u32, 1, 4]]);
        let recoded = Column::Categorical {
            dict,
            codes: vec![3, 1, 2, 0, 1],
        };
        assert_eq!(dup, recoded);
    }

    #[test]
    fn select_shares_dictionary() {
        let c = col_from(
            Attribute::categorical("x"),
            &["a".into(), "b".into(), "c".into(), "b".into()],
        );
        let s = c.select(&[3, 1]);
        assert_eq!(
            s.to_values(),
            vec![Value::Text("b".into()), Value::Text("b".into())]
        );
        assert_eq!(s.distinct_count(), 1);

        // Row slices, projections and clones hold the same label list.
        let dict = |c: &Column| match c {
            Column::Categorical { dict, .. } => Arc::clone(dict),
            other => panic!("not dictionary-encoded: {other:?}"),
        };
        let rel = crate::Relation::from_typed_columns(
            crate::Schema::new(vec![
                Attribute::continuous("n"),
                Attribute::categorical("x"),
            ])
            .unwrap(),
            vec![
                col_from(Attribute::continuous("n"), &vec![Value::Int(1); 4]),
                c.clone(),
            ],
        )
        .unwrap();
        let original = dict(&c);
        let shared = [
            dict(&s),
            dict(&c.clone()),
            dict(rel.column(1).unwrap()),
            dict(rel.select_rows(&[2, 0]).unwrap().column(1).unwrap()),
            dict(rel.project(&[1]).unwrap().column(0).unwrap()),
            dict(rel.clone().column(1).unwrap()),
        ];
        for (i, d) in shared.iter().enumerate() {
            assert!(Arc::ptr_eq(&original, d), "copy {i} has its own labels");
        }
    }

    #[test]
    fn builder_matches_push_value_layouts() {
        for vals in [
            vec!["a".into(), Value::Null, "b".into(), "a".into()],
            vec![Value::Int(1), Value::Float(2.5), Value::Null],
            vec![Value::Null, Value::Null],
            vec![Value::Int(i64::MAX), Value::Float(0.5)],
            vec![Value::Null, "z".into(), Value::Int(3)],
        ] {
            let mut b = ColumnBuilder::new();
            for v in &vals {
                b.push(v.clone());
            }
            let built = b.finish();
            assert_eq!(built.len(), vals.len());
            let mut plain = Column::default();
            for v in &vals {
                plain.push_value(v.clone());
            }
            assert_eq!(built.repr_name(), plain.repr_name(), "{vals:?}");
            assert_eq!(built.to_values(), vals, "{vals:?}");
        }
    }

    #[test]
    fn builder_tracks_text_and_numeric() {
        assert!(ColumnBuilder::new().finish().is_empty());
        let mut b = ColumnBuilder::new();
        assert!(!b.saw_text() && !b.saw_numeric());
        b.push(Value::Null);
        assert!(!b.saw_text() && !b.saw_numeric());
        b.push(Value::Int(4));
        assert!(b.saw_numeric() && !b.saw_text());
        b.push("x".into());
        assert!(b.saw_text() && b.saw_numeric());
    }

    #[test]
    fn logical_equality_ignores_layout() {
        let int_col = col_from(Attribute::continuous("x"), &[Value::Int(2), Value::Null]);
        let boxed = Column::Boxed(vec![Value::Float(2.0), Value::Null]);
        assert_eq!(int_col, boxed); // Int(2) == Float(2.0) under Value semantics.
        let other = Column::Boxed(vec![Value::Float(2.5), Value::Null]);
        assert_ne!(int_col, other);
    }
}
