//! Privacy-leakage measurement — Definitions 2.2 and 2.3 of the paper.
//!
//! In VFL the tuple order of `R_real` and `R_syn` is aligned by private set
//! intersection, so leakage is measured **index-aligned**: the i-th
//! synthetic tuple is compared against the i-th real tuple.
//!
//! * Definition 2.2 (categorical): leakage at row i iff
//!   `t_i_syn[A] = t_i_real[A]` — exact match.
//! * Definition 2.3 (continuous): leakage at row i iff
//!   `d(t_i_syn[A], t_i_real[A]) ≤ ε` for a distance `d` (absolute
//!   difference here, the 1-d Euclidean metric).
//!
//! The evaluation additionally reports MSE for continuous attributes, as
//! the paper's Table III does, interpreting MSE "as an indicator of a value
//! of ε to indicate leakage".
//!
//! [`attr_matches`] is the one implementation of both definitions. It
//! scores any row subset, so the whole-relation counts below, the Table
//! III/IV cells ([`crate::run_cell`]), the audit-matrix cells (scored on
//! the PSI-aligned rows only) and the HFL permutation baseline all share
//! it; [`attr_mse`] is the one MSE. The harnesses that compare the same
//! two dictionaries round after round keep their code remap in a
//! `RemapCache` across calls.

use mp_relation::{AttrKind, Column, Relation, RelationError, Result};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Both sides of a categorical comparison in one code space: `real[c]`
/// and `syn[c]` are the canonical codes of the real and synthetic
/// dictionary codes `c`. Equal labels get equal canonical codes; null
/// (code 0) maps to 0 on both sides, and a synthetic label the real
/// dictionary lacks maps to a sentinel no real code equals. The remap
/// holds the two dictionaries it was built from.
#[derive(Debug, Clone)]
struct DictRemap {
    dicts: (Arc<Vec<String>>, Arc<Vec<String>>),
    real: Vec<u32>,
    syn: Vec<u32>,
}

impl DictRemap {
    /// The remap of two dictionaries. Dictionaries are normally
    /// duplicate-free, but nothing in the `Column` API forces that, so
    /// every real code maps to the first code carrying its label.
    fn new(real: &Arc<Vec<String>>, syn: &Arc<Vec<String>>) -> Self {
        let mut first: HashMap<&str, u32> = HashMap::with_capacity(real.len());
        let mut canon: Vec<u32> = Vec::with_capacity(real.len() + 1);
        canon.push(0);
        for (i, s) in real.iter().enumerate() {
            canon.push(*first.entry(s.as_str()).or_insert(i as u32 + 1));
        }
        let mut remap: Vec<u32> = Vec::with_capacity(syn.len() + 1);
        remap.push(0); // null matches null
        remap.extend(
            syn.iter()
                .map(|s| first.get(s.as_str()).copied().unwrap_or(u32::MAX)),
        );
        Self {
            dicts: (Arc::clone(real), Arc::clone(syn)),
            real: canon,
            syn: remap,
        }
    }

    /// `true` when built from these very dictionary allocations.
    fn built_for(&self, real: &Arc<Vec<String>>, syn: &Arc<Vec<String>>) -> bool {
        Arc::ptr_eq(&self.dicts.0, real) && Arc::ptr_eq(&self.dicts.1, syn)
    }
}

/// The dictionary remap of one categorical attribute, kept across scoring
/// calls: the leakage matrix scores the same real column against
/// synthetic columns drawn from one pool's dictionary every round, so the
/// remap is built once per cell. The remap is reused only for the same
/// two dictionary allocations, and since it holds them, a freed
/// dictionary's address cannot be reused by another while it lives.
#[derive(Debug, Clone, Default)]
pub(crate) struct RemapCache {
    entry: Option<DictRemap>,
}

impl RemapCache {
    /// The remap of `real` against `syn`, built on first use and whenever
    /// either dictionary is another allocation than last time.
    fn remap(&mut self, real: &Arc<Vec<String>>, syn: &Arc<Vec<String>>) -> &DictRemap {
        if !self.entry.as_ref().is_some_and(|r| r.built_for(real, syn)) {
            self.entry = None;
        }
        self.entry.get_or_insert_with(|| DictRemap::new(real, syn))
    }
}

/// Index-aligned Value-equality matches between two columns over `rows`,
/// exploiting the typed layouts: dictionary-encoded columns are compared
/// by `u32` code after remapping both dictionaries into one code space
/// (through `cache`), integer and float columns directly on their
/// primitive slices with the null bitmaps. Mismatched layouts fall back to
/// the row-wise [`ValueRef`] comparison, which defines the semantics the
/// fast paths must reproduce.
///
/// [`ValueRef`]: mp_relation::ValueRef
fn aligned_value_matches(
    a: &Column,
    b: &Column,
    rows: impl Iterator<Item = usize>,
    cache: &mut RemapCache,
) -> usize {
    match (a, b) {
        (
            Column::Categorical {
                dict: da,
                codes: ca,
            },
            Column::Categorical {
                dict: db,
                codes: cb,
            },
        ) => {
            let remap = cache.remap(da, db);
            rows.filter(|&i| remap.real[ca[i] as usize] == remap.syn[cb[i] as usize])
                .count()
        }
        (
            Column::Int {
                values: va,
                nulls: na,
            },
            Column::Int {
                values: vb,
                nulls: nb,
            },
        ) => rows
            .filter(|&i| match (na.get(i), nb.get(i)) {
                (true, true) => true,
                (false, false) => va[i] == vb[i],
                _ => false,
            })
            .count(),
        (
            Column::Float {
                values: va,
                nulls: na,
                ..
            },
            Column::Float {
                values: vb,
                nulls: nb,
                ..
            },
        ) => rows
            .filter(|&i| match (na.get(i), nb.get(i)) {
                (true, true) => true,
                // `==` already treats -0.0 like 0.0, and any Int rows in the
                // mask are exactly representable, so plain float equality
                // plus the NaN-canonicalisation clause matches Value::eq.
                (false, false) => va[i] == vb[i] || (va[i].is_nan() && vb[i].is_nan()),
                _ => false,
            })
            .count(),
        _ => rows.filter(|&i| a.value_ref(i) == b.value_ref(i)).count(),
    }
}

/// Calls `f(x, y)` for every row of `rows` where both columns hold a
/// numeric value, reading `&[f64]` slices under the null bitmaps when both
/// sides are float columns.
fn for_each_numeric_pair(
    a: &Column,
    b: &Column,
    rows: impl Iterator<Item = usize>,
    mut f: impl FnMut(f64, f64),
) {
    if let (Some((va, na)), Some((vb, nb))) = (a.as_float_parts(), b.as_float_parts()) {
        for i in rows {
            if !na.get(i) && !nb.get(i) {
                f(va[i], vb[i]);
            }
        }
        return;
    }
    for i in rows {
        if let (Some(x), Some(y)) = (a.f64_at(i), b.f64_at(i)) {
            f(x, y);
        }
    }
}

/// Index-aligned leakage of one attribute over `rows`: Definition 2.2
/// (exact [`Value`](mp_relation::Value) equality, null matching null) for
/// a categorical `kind`, Definition 2.3 (`|real − syn| ≤ epsilon`, both
/// sides numeric) for a continuous one. Every row in `rows` must be in
/// bounds for both columns; callers pass the rows both columns hold.
/// Builds any dictionary remap afresh; the matrix and the Table III/IV
/// harness keep theirs across rounds.
pub fn attr_matches(
    real: &Column,
    syn: &Column,
    kind: AttrKind,
    epsilon: f64,
    rows: impl Iterator<Item = usize>,
) -> usize {
    attr_matches_cached(real, syn, kind, epsilon, rows, &mut RemapCache::default())
}

/// [`attr_matches`], keeping the dictionary remap of a categorical
/// attribute in `cache` for the next call on the same two dictionaries.
pub(crate) fn attr_matches_cached(
    real: &Column,
    syn: &Column,
    kind: AttrKind,
    epsilon: f64,
    rows: impl Iterator<Item = usize>,
    cache: &mut RemapCache,
) -> usize {
    match kind {
        AttrKind::Categorical => aligned_value_matches(real, syn, rows, cache),
        AttrKind::Continuous => {
            let mut count = 0usize;
            for_each_numeric_pair(real, syn, rows, |x, y| {
                if (x - y).abs() <= epsilon {
                    count += 1;
                }
            });
            count
        }
    }
}

/// Mean squared error between two columns over the rows of `rows` where
/// both are numeric, summed in row order (the paper's Table III metric).
/// `None` if no such row exists.
pub fn attr_mse(real: &Column, syn: &Column, rows: impl Iterator<Item = usize>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for_each_numeric_pair(real, syn, rows, |x, y| {
        sum += (x - y) * (x - y);
        n += 1;
    });
    (n > 0).then(|| sum / n as f64)
}

/// Number of index-aligned exact matches on a categorical attribute
/// (Definition 2.2). Nulls match nulls: `?` is an observable value in the
/// echocardiogram evaluation. Dictionary-encoded columns are counted by
/// `u32` code equality after remapping dictionaries.
pub fn categorical_matches(real: &Relation, syn: &Relation, attr: usize) -> Result<usize> {
    let (a, b, rows) = aligned_columns(real, syn, attr)?;
    Ok(attr_matches(a, b, AttrKind::Categorical, 0.0, rows))
}

/// Number of index-aligned ε-close matches on a continuous attribute
/// (Definition 2.3). Rows where either side is non-numeric never match.
pub fn continuous_matches(
    real: &Relation,
    syn: &Relation,
    attr: usize,
    epsilon: f64,
) -> Result<usize> {
    let (a, b, rows) = aligned_columns(real, syn, attr)?;
    Ok(attr_matches(a, b, AttrKind::Continuous, epsilon, rows))
}

/// Mean squared error between the real and synthetic columns over rows
/// where both are numeric (the paper's Table III metric), computed over the
/// typed `&[f64]` slices with the null masks. `None` if no such rows exist.
pub fn mse(real: &Relation, syn: &Relation, attr: usize) -> Result<Option<f64>> {
    let (a, b, rows) = aligned_columns(real, syn, attr)?;
    Ok(attr_mse(a, b, rows))
}

/// Attribute `attr`'s column on both sides of a row-aligned pair, with the
/// range of every row.
fn aligned_columns<'a>(
    real: &'a Relation,
    syn: &'a Relation,
    attr: usize,
) -> Result<(&'a Column, &'a Column, Range<usize>)> {
    let a = real.column(attr)?;
    let b = syn.column(attr)?;
    check_aligned(real, syn)?;
    Ok((a, b, 0..real.n_rows()))
}

fn check_aligned(real: &Relation, syn: &Relation) -> Result<()> {
    if real.n_rows() != syn.n_rows() {
        return Err(RelationError::ArityMismatch {
            expected: real.n_rows(),
            got: syn.n_rows(),
        });
    }
    Ok(())
}

/// Relation-level alignment: the synthetic relation must describe the
/// same number of attributes as the real one, or per-attribute
/// measurement would silently cover only a prefix, and hold as many rows.
pub(crate) fn check_shape(real: &Relation, syn: &Relation) -> Result<()> {
    if real.arity() != syn.arity() {
        return Err(RelationError::ArityMismatch {
            expected: real.arity(),
            got: syn.arity(),
        });
    }
    check_aligned(real, syn)
}

/// Per-attribute leakage summary used by experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrLeakage {
    /// Attribute index.
    pub attr: usize,
    /// Attribute name.
    pub name: String,
    /// Exact index-aligned matches (Definition 2.2 for categorical; for
    /// continuous attributes this counts ε-matches at the configured ε).
    pub matches: f64,
    /// MSE against the real column (continuous attributes), `None` when
    /// undefined.
    pub mse: Option<f64>,
}

/// Measures leakage on every attribute of an aligned pair, with `epsilon`
/// as the continuous match tolerance, through [`attr_matches`] and
/// [`attr_mse`] over all rows. The [`mp_observe::Recorder`] counts every
/// compared cell (`core.leakage.cells_compared`), every index-aligned
/// match (`core.leakage.matches`), and buckets each attribute's match
/// rate, in whole percent, into `core.leakage.match_rate_pct`; pass
/// [`mp_observe::NoopRecorder`] to measure without recording. All values
/// are integers derived from the comparison itself, so snapshots are
/// byte-stable for a fixed input pair.
pub fn measure_all_with(
    real: &Relation,
    syn: &Relation,
    epsilon: f64,
    recorder: &dyn mp_observe::Recorder,
) -> Result<Vec<AttrLeakage>> {
    check_shape(real, syn)?;
    let cells = recorder.counter("core.leakage.cells_compared");
    let matched = recorder.counter("core.leakage.matches");
    let rate_pct = recorder.histogram(
        "core.leakage.match_rate_pct",
        &[0, 1, 5, 10, 25, 50, 75, 90, 100],
    );
    let n_rows = real.n_rows();
    real.schema()
        .iter()
        .map(|(attr, attribute)| {
            let (a, b) = (real.column(attr)?, syn.column(attr)?);
            let matches = attr_matches(a, b, attribute.kind, epsilon, 0..n_rows) as u64;
            cells.add(n_rows as u64);
            matched.add(matches);
            if let Some(pct) = (matches * 100).checked_div(n_rows as u64) {
                rate_pct.record(pct);
            }
            Ok(AttrLeakage {
                attr,
                name: attribute.name.clone(),
                matches: matches as f64,
                mse: attr_mse(a, b, 0..n_rows),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::{Attribute, Schema, Value};

    fn pair() -> (Relation, Relation) {
        let schema = Schema::new(vec![
            Attribute::categorical("c"),
            Attribute::continuous("x"),
        ])
        .unwrap();
        let real = Relation::from_rows(
            schema.clone(),
            vec![
                vec!["a".into(), 1.0.into()],
                vec!["b".into(), 2.0.into()],
                vec![Value::Null, 3.0.into()],
                vec!["d".into(), Value::Null],
            ],
        )
        .unwrap();
        let syn = Relation::from_rows(
            schema,
            vec![
                vec!["a".into(), 1.05.into()],
                vec!["x".into(), 2.5.into()],
                vec![Value::Null, 2.95.into()],
                vec!["d".into(), 4.0.into()],
            ],
        )
        .unwrap();
        (real, syn)
    }

    #[test]
    fn categorical_definition_2_2() {
        let (real, syn) = pair();
        // Rows 0 ("a"), 2 (null = null), 3 ("d") match.
        assert_eq!(categorical_matches(&real, &syn, 0).unwrap(), 3);
    }

    #[test]
    fn continuous_definition_2_3() {
        let (real, syn) = pair();
        // ε = 0.1: rows 0 (Δ=.05) and 2 (Δ=.05) match; row 3 has a null.
        assert_eq!(continuous_matches(&real, &syn, 1, 0.1).unwrap(), 2);
        // ε = 0.5: row 1 (Δ=.5) joins.
        assert_eq!(continuous_matches(&real, &syn, 1, 0.5).unwrap(), 3);
        // ε = 0: nothing is exactly equal.
        assert_eq!(continuous_matches(&real, &syn, 1, 0.0).unwrap(), 0);
    }

    #[test]
    fn mse_over_numeric_rows() {
        let (real, syn) = pair();
        // Rows 0, 1, 2: (0.05² + 0.5² + 0.05²)/3.
        let expected = (0.0025 + 0.25 + 0.0025) / 3.0;
        assert!((mse(&real, &syn, 1).unwrap().unwrap() - expected).abs() < 1e-12);
        // Categorical column: no numeric rows.
        assert_eq!(mse(&real, &syn, 0).unwrap(), None);
    }

    #[test]
    fn misaligned_relations_rejected() {
        let (real, _) = pair();
        let schema = real.schema().clone();
        let short = Relation::empty(schema);
        assert!(categorical_matches(&real, &short, 0).is_err());
        assert!(mse(&real, &short, 1).is_err());
    }

    #[test]
    fn measure_all_rejects_arity_mismatch() {
        let (real, _) = pair();
        let narrow = real.project(&[0]).unwrap();
        assert!(measure_all_with(&real, &narrow, 0.0, &mp_observe::NoopRecorder).is_err());
    }

    #[test]
    fn measure_all_spans_schema() {
        let (real, syn) = pair();
        let all = measure_all_with(&real, &syn, 0.1, &mp_observe::NoopRecorder).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].matches, 3.0);
        assert_eq!(all[1].matches, 2.0);
        assert!(all[1].mse.is_some());
        assert_eq!(all[0].name, "c");
    }

    #[test]
    fn measure_all_with_records_cells_and_matches() {
        use mp_observe::{Recorder, Registry};
        let (real, syn) = pair();
        let registry = Registry::new();
        let observed = measure_all_with(&real, &syn, 0.1, &registry).unwrap();
        assert_eq!(
            observed,
            measure_all_with(&real, &syn, 0.1, &mp_observe::NoopRecorder).unwrap()
        );
        let snap = registry.snapshot();
        // 2 attributes × 4 rows.
        assert_eq!(snap.counters["core.leakage.cells_compared"], 8);
        // 3 categorical + 2 continuous matches.
        assert_eq!(snap.counters["core.leakage.matches"], 5);
        assert_eq!(snap.histograms["core.leakage.match_rate_pct"].count, 2);
        let _ = registry.counter("core.leakage.cells_compared"); // still interned
    }

    #[test]
    fn empty_relations() {
        let schema = Schema::new(vec![Attribute::categorical("c")]).unwrap();
        let e1 = Relation::empty(schema.clone());
        let e2 = Relation::empty(schema);
        assert_eq!(categorical_matches(&e1, &e2, 0).unwrap(), 0);
        assert_eq!(mse(&e1, &e2, 0).unwrap(), None);
    }

    /// A dictionary-encoded column over `labels` with the given codes.
    fn dict_column(labels: &[&str], codes: &[u32]) -> Column {
        Column::Categorical {
            dict: Arc::new(labels.iter().map(|&l| l.to_owned()).collect()),
            codes: codes.to_vec(),
        }
    }

    #[test]
    fn cached_remaps_agree_with_fresh_ones_across_rounds() {
        const N: usize = 16;
        let real_codes: Vec<u32> = (0..N as u32).map(|i| i % 5).collect();
        let real = dict_column(&["a", "b", "c", "d"], &real_codes);
        // Equal codes: every label order gives its own count.
        let syn_codes = real_codes.clone();
        let same = dict_column(&["a", "b", "c", "d"], &syn_codes);
        let twin = dict_column(&["a", "b", "c", "d"], &syn_codes);
        let reordered = dict_column(&["d", "c", "b", "a"], &syn_codes);
        let repeated = dict_column(&["b", "b", "a", "x"], &syn_codes);
        // The rounds of one cell: one dictionary, an equal one in another
        // allocation, then a reordered one and one that repeats labels.
        let kept = [
            &same, &twin, &same, &twin, &reordered, &same, &repeated, &twin,
        ];
        let full: Vec<usize> = (0..N).collect();
        let partial: Vec<usize> = (0..N).rev().step_by(3).collect();
        for rows in [&full, &partial] {
            let mut cache = RemapCache::default();
            let mut score = |syn: &Column| {
                let kind = AttrKind::Categorical;
                let cached =
                    attr_matches_cached(&real, syn, kind, 0.0, rows.iter().copied(), &mut cache);
                let fresh = attr_matches(&real, syn, kind, 0.0, rows.iter().copied());
                // Definition 2.2 row by row.
                let reference = rows
                    .iter()
                    .filter(|&&i| real.value_ref(i) == syn.value_ref(i))
                    .count();
                assert_eq!(
                    (cached, fresh),
                    (reference, reference),
                    "{syn:?} on {rows:?}"
                );
            };
            for syn in kept {
                score(syn);
            }
            // Dictionaries dropped after their round and reallocated for
            // the next, alternating label orders: a freed dictionary's
            // address is free to be reused by the next one.
            for round in 0..24 {
                let labels: [&str; 4] = match round % 2 {
                    0 => ["a", "b", "c", "d"],
                    _ => ["c", "a", "d", "b"],
                };
                score(&dict_column(&labels, &syn_codes));
            }
        }
    }
}
