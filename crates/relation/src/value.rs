//! The dynamically typed cell value used throughout the workspace.
//!
//! A [`Value`] is one of `Null`, `Int`, `Float` or `Text`. In a
//! [`crate::Relation`] a categorical column holds one cell type and a
//! continuous one only numbers, because every constructor passes
//! [`crate::Relation::from_typed_columns`]. Comparisons between text and
//! numbers therefore only establish a stable total order; they never
//! decide dependency semantics.
//!
//! Since the columnar refactor, `Value` is the *boundary* type: relations
//! store typed [`crate::Column`]s internally and materialise `Value`s only
//! at the edges (CSV I/O, serde exchange packages, the public cell API).
//! [`ValueRef`] is the borrowing counterpart used to view a cell without
//! cloning its text; `Value`'s equality, ordering and hashing all delegate
//! to `ValueRef` so the two can never disagree.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single cell value.
///
/// `Value` implements a *total* order and hash so it can serve as a grouping
/// key in partition refinement and dependency discovery:
///
/// * `Null` sorts before everything and equals only itself.
/// * `Int` and `Float` compare numerically against each other.
/// * `Text` sorts after all numerics, lexicographically.
/// * `Float` NaNs are canonicalised: every NaN is equal to every other NaN
///   and sorts after all other floats.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// A missing value (the echocardiogram dataset marks these `?`).
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string / categorical label.
    Text(String),
}

/// A borrowed view of a single cell, as handed out by typed columns.
///
/// Carries the same total order, equality and hash as [`Value`] (the owned
/// form delegates to this one), but borrows text instead of cloning it, so
/// whole-column scans over dictionary-encoded columns stay allocation-free.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// A missing value.
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A borrowed string / categorical label.
    Text(&'a str),
}

/// Canonical bit pattern for a float: all NaNs collapse to one pattern,
/// and `-0.0` collapses to `0.0`, so `Eq`/`Hash`/`Ord` agree.
#[inline]
pub(crate) fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

/// Total order over floats with canonical NaN greatest.
#[inline]
pub(crate) fn float_total_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // lint: allow(no-panic) reason="both operands are proven non-NaN by this match arm, so partial_cmp always returns Some"
        (false, false) => a.partial_cmp(&b).expect("both non-NaN"),
    }
}

/// Exact order of an integer against a float, NaN greatest. An `f64` at
/// or beyond ±2^63 lies outside every `i64`; otherwise the integer part
/// of `f` is an exact `i64`, and its fractional part breaks a tie.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_POW_63 {
        Ordering::Less
    } else if f < -TWO_POW_63 {
        Ordering::Greater
    } else {
        let whole = f.trunc();
        i.cmp(&(whole as i64))
            .then_with(|| float_total_cmp(0.0, f - whole))
    }
}

impl Value {
    /// Returns `true` if the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one.
    ///
    /// `Int` widens to `f64`; `Null` and `Text` return `None`.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an `Int`.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A short name for the variant, used in error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        self.as_value_ref().type_name()
    }

    /// The borrowing view of this value.
    #[inline]
    pub fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Text(s),
        }
    }
}

impl<'a> ValueRef<'a> {
    /// Returns `true` if the view is [`ValueRef::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Numeric view (`Int` widens to `f64`).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(*i as f64),
            ValueRef::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// A short name for the variant, used in error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            ValueRef::Null => "null",
            ValueRef::Int(_) => "int",
            ValueRef::Float(_) => "float",
            ValueRef::Text(_) => "text",
        }
    }

    /// Materialises the owned [`Value`].
    #[inline]
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Float(f) => Value::Float(*f),
            ValueRef::Text(s) => Value::Text((*s).to_owned()),
        }
    }

    /// Rank used to order values of different variants.
    ///
    /// `Int` and `Float` share a rank so they compare numerically.
    #[inline]
    fn type_rank(&self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Int(_) | ValueRef::Float(_) => 1,
            ValueRef::Text(_) => 2,
        }
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ValueRef<'_> {}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Float(a), Float(b)) => float_total_cmp(*a, *b),
            // Cross numeric comparison by exact value: above 2^53 an `f64`
            // cast would round the integer and tie distinct values.
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for ValueRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ValueRef::Null => state.write_u8(0),
            // Numerics hash via the canonical float bit pattern so that
            // `Int(2)` and `Float(2.0)` (which compare equal) hash equal.
            ValueRef::Int(i) => {
                state.write_u8(1);
                state.write_u64(canonical_f64_bits(*i as f64));
            }
            ValueRef::Float(f) => {
                state.write_u8(1);
                state.write_u64(canonical_f64_bits(*f));
            }
            ValueRef::Text(s) => {
                state.write_u8(2);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => write!(f, "?"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => write!(f, "{x}"),
            ValueRef::Text(s) => write!(f, "{s}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_value_ref() == other.as_value_ref()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_value_ref().cmp(&other.as_value_ref())
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_value_ref().hash(state)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_value_ref().fmt(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_only_equals_null() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_ne!(Value::Null, Value::Text(String::new()));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
    }

    #[test]
    fn nan_is_canonical() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert!(Value::Float(f64::INFINITY) < a);
    }

    #[test]
    fn negative_zero_equals_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = [
            Value::Text("a".into()),
            Value::Float(1.5),
            Value::Null,
            Value::Int(-3),
            Value::Text("A".into()),
            Value::Int(2),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-3));
        assert_eq!(vals[2], Value::Float(1.5));
        assert_eq!(vals[3], Value::Int(2));
        assert_eq!(vals[4], Value::Text("A".into()));
        assert_eq!(vals[5], Value::Text("a".into()));
    }

    #[test]
    fn as_f64_widens_ints() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Text("x".into()).as_f64(), None);
    }

    #[test]
    fn display_roundtrip_forms() {
        assert_eq!(Value::Null.to_string(), "?");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Text("dept".into()).to_string(), "dept");
    }

    #[test]
    fn from_option_maps_none_to_null() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
    }

    #[test]
    fn large_int_order_preserved() {
        // Above 2^53 both map to the same f64; the integer tiebreak keeps Eq
        // consistent with Int-vs-Int ordering.
        let a = Value::Int(i64::MAX);
        let b = Value::Int(i64::MAX - 1);
        assert!(a > b);
    }

    #[test]
    fn int_float_equality_is_exact_and_transitive() {
        const P53: i64 = 1 << 53;
        let (above, exact, float) = (
            Value::Int(P53 + 1),
            Value::Int(P53),
            Value::Float(P53 as f64),
        );
        assert_eq!(float, exact);
        assert_ne!(above, exact);
        assert_ne!(above, float);
        assert_eq!(above.cmp(&float), Ordering::Greater);
        assert_eq!(float.cmp(&above), Ordering::Less);
        assert_eq!(hash_of(&float), hash_of(&exact));
    }

    #[test]
    fn int_float_order_at_fractions_zero_and_the_i64_edges() {
        use Ordering::*;
        for (i, f, want) in [
            (3, 2.5, Greater),
            (-3, -2.5, Less),
            (2, 2.5, Less),
            (-2, -2.5, Greater),
            (0, -0.0, Equal),
            (i64::MAX, f64::INFINITY, Less),
            (i64::MAX, f64::NAN, Less),
            (i64::MAX, 9_223_372_036_854_775_808.0, Less),
            (i64::MIN, -9_223_372_036_854_775_808.0, Equal),
            (i64::MIN, -9.3e18, Greater),
            (i64::MIN, f64::NEG_INFINITY, Greater),
        ] {
            assert_eq!(Value::Int(i).cmp(&Value::Float(f)), want, "{i} vs {f}");
            assert_eq!(
                Value::Float(f).cmp(&Value::Int(i)),
                want.reverse(),
                "{f} vs {i}"
            );
        }
    }

    #[test]
    fn value_ref_agrees_with_value() {
        let vals = [
            Value::Null,
            Value::Int(-3),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(f64::NAN),
            Value::Text("abc".into()),
        ];
        for a in &vals {
            assert_eq!(hash_of(a), hash_of(&a.as_value_ref()));
            assert_eq!(a.to_string(), a.as_value_ref().to_string());
            assert_eq!(a.as_value_ref().to_value(), *a);
            for b in &vals {
                assert_eq!(a.cmp(b), a.as_value_ref().cmp(&b.as_value_ref()));
                assert_eq!(*a == *b, a.as_value_ref() == b.as_value_ref());
            }
        }
    }
}
