//! Shared domains laid out for drawing, and the codomains derived columns
//! are gathered from.
//!
//! §III-A of the paper: with only a name and a domain, the adversary's best
//! move is uniform random generation, giving per-cell success probability
//! `θ_A = 1/|D_A|` (categorical) or an ε-ball hit rate `2ε/range`
//! (continuous). A [`DomainPool`] lays a categorical domain's values out
//! once as one typed column, so a draw is an index and a whole column is
//! one gather: text labels share one dictionary, integers and nulls sit in
//! an `Int` column, mixed numerics in a `Float` column with its `ints`
//! mask, and anything else in a `Boxed` one.
//!
//! The derived generators (§III-B, §IV) work on row group ids and on
//! images — per row, an index into a [`Codomain`] — and gather the
//! dependent column once at the end.

use mp_metadata::Distribution;
use mp_relation::{Bitmap, Column, Domain, Value};
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashMap;

/// Number of grid points used to view a continuous domain as a finite
/// codomain for subset/walk mappings.
pub const DEFAULT_BINS: usize = 64;

/// A shared domain laid out once for drawing.
#[derive(Debug, Clone)]
pub struct DomainPool(Layout);

#[derive(Debug, Clone)]
pub(crate) enum Layout {
    /// A non-empty categorical domain: its values, in domain order, as one
    /// typed column with one row per value. A draw picks a row with
    /// `rng.gen_range(0..values.len())`.
    Values(Column),
    /// A continuous domain `[min, max]`.
    Range { min: f64, max: f64 },
    /// An empty categorical domain: every cell is null and no draw is made.
    Empty,
}

impl DomainPool {
    /// Lays `domain` out for drawing.
    pub fn new(domain: &Domain) -> Self {
        DomainPool(match domain {
            Domain::Continuous { min, max } => Layout::Range {
                min: *min,
                max: *max,
            },
            Domain::Categorical(values) if values.is_empty() => Layout::Empty,
            Domain::Categorical(values) => Layout::Values(values.iter().cloned().collect()),
        })
    }

    /// How the pool draws.
    pub(crate) fn layout(&self) -> &Layout {
        &self.0
    }

    /// `n` independent uniform draws (§III-A). A categorical domain draws
    /// `n` indices with `rng.gen_range(0..|D|)` and gathers them, so text
    /// columns share the pool's dictionary; a continuous one draws `f64`s
    /// in `[min, max]`; an empty one draws nothing and yields nulls.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Column {
        match &self.0 {
            Layout::Values(values) => {
                let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..values.len())).collect();
                values.select(&rows)
            }
            Layout::Range { min, max } => {
                float_column((0..n).map(|_| uniform_real(*min, *max, rng)).collect())
            }
            Layout::Empty => null_column(n),
        }
    }
}

/// One uniform draw from `[min, max]`; a point range draws nothing.
pub(crate) fn uniform_real<R: Rng + ?Sized>(min: f64, max: f64, rng: &mut R) -> f64 {
    if max > min {
        rng.gen_range(min..=max)
    } else {
        min
    }
}

/// A fully non-null `Float` column.
pub(crate) fn float_column(values: Vec<f64>) -> Column {
    let n = values.len();
    Column::Float {
        values,
        nulls: Bitmap::filled(n, false),
        ints: Bitmap::filled(n, false),
    }
}

/// An all-null column of `n` rows.
pub(crate) fn null_column(n: usize) -> Column {
    Column::Int {
        values: vec![0; n],
        nulls: Bitmap::filled(n, true),
    }
}

/// Image of a row that carries a constant outside the codomain (a CFD's
/// right-hand side).
const CONSTANT: usize = usize::MAX;

/// The candidate values of one derived column. An image is an index into
/// the pool's values, into the reals drawn or enumerated so far (for a
/// continuous domain), or [`CONSTANT`].
pub(crate) struct Codomain<'p> {
    pool: &'p Layout,
    reals: Vec<f64>,
    constant: Option<&'p Value>,
}

impl<'p> Codomain<'p> {
    /// A codomain drawn from uniformly.
    pub(crate) fn new(pool: &'p DomainPool) -> Self {
        Self {
            pool: pool.layout(),
            reals: Vec::new(),
            constant: None,
        }
    }

    /// A finite view of the pool: a categorical domain's values, or
    /// `bins` equally spaced grid points over a continuous one (one
    /// midpoint when `bins ≤ 1` or the range is a point).
    pub(crate) fn grid(pool: &'p DomainPool, bins: usize) -> Self {
        let mut codomain = Self::new(pool);
        if let Layout::Range { min, max } = *pool.layout() {
            let bins = bins.max(1);
            codomain.reals = if bins == 1 || max <= min {
                vec![(min + max) / 2.0]
            } else {
                (0..bins)
                    .map(|i| min + (max - min) * i as f64 / (bins - 1) as f64)
                    .collect()
            };
        }
        codomain
    }

    /// Number of finite images: the pool's values, or the grid points.
    pub(crate) fn len(&self) -> usize {
        match self.pool {
            Layout::Values(values) => values.len(),
            Layout::Range { .. } => self.reals.len(),
            Layout::Empty => 0,
        }
    }

    /// One uniform draw (§III-A) as an image; an empty domain draws
    /// nothing and its image is null.
    pub(crate) fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        match *self.pool {
            Layout::Values(ref values) => rng.gen_range(0..values.len()),
            Layout::Range { min, max } => self.real(uniform_real(min, max, rng)),
            Layout::Empty => 0,
        }
    }

    /// The image of a real value.
    pub(crate) fn real(&mut self, x: f64) -> usize {
        self.reals.push(x);
        self.reals.len() - 1
    }

    /// The image of `c`: the first pool value equal to it, else
    /// [`CONSTANT`].
    pub(crate) fn constant(&mut self, c: &'p Value) -> usize {
        if let Layout::Values(values) = self.pool {
            let c = c.as_value_ref();
            if let Some(at) = (0..values.len()).find(|&i| values.value_ref(i) == c) {
                return at;
            }
        }
        self.constant = Some(c);
        CONSTANT
    }

    /// Gathers the column whose row `r` holds image `rows[r]`.
    pub(crate) fn column(self, rows: &[usize]) -> Column {
        let values: Cow<'_, Column> = match self.pool {
            Layout::Values(values) => Cow::Borrowed(values),
            Layout::Range { .. } => Cow::Owned(float_column(self.reals)),
            Layout::Empty => Cow::Owned(null_column(1)),
        };
        let Some(c) = self.constant.filter(|_| rows.contains(&CONSTANT)) else {
            return values.select(rows);
        };
        let mut values = values.into_owned();
        let at = values.len();
        values.push_value(c.clone());
        let rows: Vec<usize> = rows
            .iter()
            .map(|&i| if i == CONSTANT { at } else { i })
            .collect();
        values.select(&rows)
    }
}

/// Per-row group ids of the determinant tuple of the first `n` rows (rows
/// share an id iff every determinant cell compares equal under [`Value`]
/// semantics), plus an exclusive bound on the ids. With no determinant
/// every row is one group.
pub(crate) fn group_ids(lhs: &[&Column], n: usize) -> (Vec<u32>, usize) {
    let Some((first, rest)) = lhs.split_first() else {
        return (vec![0; n], 1);
    };
    let (mut ids, mut bound) = first.group_codes();
    ids.truncate(n);
    for col in rest {
        (ids, bound) = combine(&ids, &col.group_codes().0);
    }
    (ids, bound)
}

/// Ids of the pairs `(a[r], b[r])`, numbered in first-occurrence order.
fn combine(a: &[u32], b: &[u32]) -> (Vec<u32>, usize) {
    let mut table: HashMap<(u32, u32), u32> = HashMap::new();
    let ids = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let next = table.len() as u32;
            *table.entry((x, y)).or_insert(next)
        })
        .collect();
    (ids, table.len())
}

/// The groups of `col`'s rows ranked by [`Value`] order (nulls first):
/// per-row ranks, and the number of groups.
pub(crate) fn ranked_groups(col: &Column) -> (Vec<u32>, usize) {
    let (ids, bound) = col.group_codes();
    let mut first_row = vec![usize::MAX; bound];
    for (r, &g) in ids.iter().enumerate() {
        if first_row[g as usize] == usize::MAX {
            first_row[g as usize] = r;
        }
    }
    let mut present: Vec<usize> = first_row.into_iter().filter(|&r| r != usize::MAX).collect();
    present.sort_by(|&a, &b| col.value_ref(a).cmp(&col.value_ref(b)));
    let mut rank = vec![0u32; bound];
    for (k, &r) in present.iter().enumerate() {
        rank[ids[r] as usize] = k as u32;
    }
    let ranks = ids.iter().map(|&g| rank[g as usize]).collect();
    (ranks, present.len())
}

/// `n` draws from a shared [`Distribution`] — the adversary's move when
/// the party over-shared value statistics. Categorical: a
/// frequency-weighted pick, gathered from the table's values laid out as
/// one typed column; continuous: pick a bucket by density, then uniform
/// within the bucket.
pub fn sample_distribution<R: Rng + ?Sized>(dist: &Distribution, n: usize, rng: &mut R) -> Column {
    match dist {
        Distribution::Categorical(freqs) if freqs.is_empty() => null_column(n),
        Distribution::Categorical(freqs) => {
            let values: Column = freqs.iter().map(|(v, _)| v.clone()).collect();
            let total: f64 = freqs.iter().map(|(_, p)| p).sum();
            let rows: Vec<usize> = (0..n)
                .map(|_| {
                    let mut u = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
                    freqs
                        .iter()
                        .position(|(_, p)| {
                            u -= p;
                            u <= 0.0
                        })
                        .unwrap_or(freqs.len() - 1)
                })
                .collect();
            values.select(&rows)
        }
        Distribution::Histogram {
            min,
            max,
            densities,
        } => float_column(
            (0..n)
                .map(|_| histogram_draw(*min, *max, densities, rng))
                .collect(),
        ),
    }
}

/// One draw from a histogram over `[min, max]`.
fn histogram_draw<R: Rng + ?Sized>(min: f64, max: f64, densities: &[f64], rng: &mut R) -> f64 {
    if densities.is_empty() || max <= min {
        return min;
    }
    let total: f64 = densities.iter().sum();
    let mut u = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
    let width = (max - min) / densities.len() as f64;
    for (b, p) in densities.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            let lo = min + b as f64 * width;
            return rng.gen_range(lo..=lo + width);
        }
    }
    rng.gen_range(min..=max)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mp_relation::{Attribute, Relation, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An integer column from `values`.
    pub(crate) fn ints(values: impl IntoIterator<Item = i64>) -> Column {
        values.into_iter().map(Value::Int).collect()
    }

    /// `0, 1, …, card − 1, 0, 1, …` over `n` rows.
    pub(crate) fn cycle(n: usize, card: usize) -> Column {
        ints((0..n).map(|i| (i % card) as i64))
    }

    /// A relation of named columns, categorical unless marked continuous.
    pub(crate) fn rel(cols: Vec<(&str, bool, Column)>) -> Relation {
        let (attrs, columns): (Vec<_>, Vec<_>) = cols
            .into_iter()
            .map(|(name, continuous, col)| match continuous {
                true => (Attribute::continuous(name), col),
                false => (Attribute::categorical(name), col),
            })
            .unzip();
        Relation::from_typed_columns(Schema::new(attrs).unwrap(), columns).unwrap()
    }

    #[test]
    fn categorical_sampling_is_in_domain_and_roughly_uniform() {
        let d = Domain::categorical(vec![0i64, 1, 2]);
        let col = DomainPool::new(&d).sample(3000, &mut StdRng::seed_from_u64(7));
        for target in [0i64, 1, 2] {
            let count = col
                .iter()
                .filter(|v| *v == Value::Int(target).as_value_ref())
                .count();
            assert!((800..1200).contains(&count), "count {count} for {target}");
        }
        let d = Domain::categorical(vec![Value::from("a"), "b".into(), Value::Null]);
        let col = DomainPool::new(&d).sample(200, &mut StdRng::seed_from_u64(1));
        assert!(col.iter().all(|v| d.contains(&v.to_value())));
    }

    #[test]
    fn text_draws_share_the_pool_dictionary() {
        let pool = DomainPool::new(&Domain::categorical(vec!["x", "y"]));
        let mut rng = StdRng::seed_from_u64(3);
        let (a, b) = (pool.sample(10, &mut rng), pool.sample(10, &mut rng));
        match (&a, &b) {
            (Column::Categorical { dict: da, .. }, Column::Categorical { dict: db, .. }) => {
                assert!(std::sync::Arc::ptr_eq(da, db));
            }
            other => panic!("not dictionary-encoded: {other:?}"),
        }
    }

    #[test]
    fn continuous_and_degenerate_domains() {
        let mut rng = StdRng::seed_from_u64(3);
        let col = DomainPool::new(&Domain::continuous(-2.0, 5.0)).sample(500, &mut rng);
        assert!((0..500).all(|i| (-2.0..=5.0).contains(&col.f64_at(i).unwrap())));
        let point = DomainPool::new(&Domain::continuous(4.0, 4.0)).sample(3, &mut rng);
        assert!((0..3).all(|i| point.f64_at(i) == Some(4.0)));
        let empty = DomainPool::new(&Domain::Categorical(vec![]));
        assert_eq!(empty.sample(4, &mut rng).null_count(), 4);
        let nulls = DomainPool::new(&Domain::categorical(vec![Value::Null, Value::Int(1)]))
            .sample(200, &mut rng);
        assert!(nulls.null_count() > 0 && nulls.null_count() < 200);
    }

    #[test]
    fn grid_spans_the_range() {
        let pool = DomainPool::new(&Domain::continuous(0.0, 10.0));
        assert_eq!(Codomain::grid(&pool, 5).reals, [0.0, 2.5, 5.0, 7.5, 10.0]);
        let pool = DomainPool::new(&Domain::continuous(1.0, 3.0));
        assert_eq!(Codomain::grid(&pool, 0).reals, [2.0]);
        assert_eq!(Codomain::grid(&pool, 1).reals, [2.0]);
        let point = DomainPool::new(&Domain::continuous(5.0, 5.0));
        assert_eq!(Codomain::grid(&point, 8).reals, [5.0]);
    }

    #[test]
    fn tuple_ids_follow_value_equality() {
        let a: Column = [Value::Int(1), Value::Float(1.0), Value::Null, Value::Int(1)]
            .into_iter()
            .collect();
        let b: Column = ["p", "p", "q", "q"].into_iter().map(Value::from).collect();
        assert_eq!(group_ids(&[&a, &b], 4), (vec![0, 0, 1, 2], 3));
        assert_eq!(group_ids(&[&a, &b], 2).0, [0, 0]);
        assert_eq!(group_ids(&[], 3), (vec![0, 0, 0], 1));
        let (ranks, m) = ranked_groups(&a);
        assert_eq!((ranks, m), (vec![1, 1, 0, 1], 2));
    }
}
