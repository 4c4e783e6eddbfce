//! The typed generators against the `Value` generators they replaced.
//!
//! [`reference`] keeps the row-wise generators as they were written over
//! `Vec<Value>`: `HashMap`-keyed mappings, a fresh value per uniform draw
//! and [`Column`]s built by pushing owned values. Every typed generator,
//! free draw and whole synthesis must equal its reference under
//! [`Column`]'s logical equality and leave the RNG in the same state: the
//! same draws, in the same order.

use mp_metadata::{
    ConditionalFd, Dependency, Distribution, Fd, MetadataPackage, PatternCell, PlanStep,
    SharePolicy,
};
use mp_relation::{Column, Domain, Value};
use mp_synth::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generators over owned values.
mod reference {
    use mp_metadata::{ConditionalFd, Dependency, Distribution, OrderDirection, PatternCell};
    use mp_relation::{Domain, Value};
    use mp_synth::DEFAULT_BINS;
    use rand::Rng;
    use std::collections::HashMap;

    pub fn sample_uniform<R: Rng + ?Sized>(domain: &Domain, rng: &mut R) -> Value {
        match domain {
            Domain::Categorical(vals) => {
                if vals.is_empty() {
                    Value::Null
                } else {
                    vals[rng.gen_range(0..vals.len())].clone()
                }
            }
            Domain::Continuous { min, max } => {
                if max > min {
                    Value::Float(rng.gen_range(*min..=*max))
                } else {
                    Value::Float(*min)
                }
            }
        }
    }

    pub fn sample_column<R: Rng + ?Sized>(domain: &Domain, n: usize, rng: &mut R) -> Vec<Value> {
        (0..n).map(|_| sample_uniform(domain, rng)).collect()
    }

    pub fn sample_from_distribution<R: Rng + ?Sized>(dist: &Distribution, rng: &mut R) -> Value {
        match dist {
            Distribution::Categorical(freqs) => {
                if freqs.is_empty() {
                    return Value::Null;
                }
                let total: f64 = freqs.iter().map(|(_, p)| p).sum();
                let mut u = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
                for (v, p) in freqs {
                    u -= p;
                    if u <= 0.0 {
                        return v.clone();
                    }
                }
                freqs.last().map(|(v, _)| v.clone()).unwrap_or(Value::Null)
            }
            Distribution::Histogram {
                min,
                max,
                densities,
            } => {
                if densities.is_empty() || max <= min {
                    return Value::Float(*min);
                }
                let total: f64 = densities.iter().sum();
                let mut u = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
                let width = (max - min) / densities.len() as f64;
                for (b, p) in densities.iter().enumerate() {
                    u -= p;
                    if u <= 0.0 {
                        let lo = min + b as f64 * width;
                        return Value::Float(rng.gen_range(lo..=lo + width));
                    }
                }
                Value::Float(rng.gen_range(*min..=*max))
            }
        }
    }

    pub fn enumerate_domain(domain: &Domain, bins: usize) -> Vec<Value> {
        match domain {
            Domain::Categorical(vals) => vals.clone(),
            Domain::Continuous { min, max } => {
                let bins = bins.max(1);
                if bins == 1 || max <= min {
                    return vec![Value::Float((min + max) / 2.0)];
                }
                (0..bins)
                    .map(|i| Value::Float(min + (max - min) * i as f64 / (bins - 1) as f64))
                    .collect()
            }
        }
    }

    fn lhs_key(lhs_cols: &[&[Value]], row: usize) -> Vec<Value> {
        lhs_cols.iter().map(|c| c[row].clone()).collect()
    }

    pub fn fd<R: Rng + ?Sized>(
        lhs: &[&[Value]],
        dom: &Domain,
        n: usize,
        rng: &mut R,
    ) -> Vec<Value> {
        let mut mapping: HashMap<Vec<Value>, Value> = HashMap::new();
        (0..n)
            .map(|r| {
                mapping
                    .entry(lhs_key(lhs, r))
                    .or_insert_with(|| sample_uniform(dom, rng))
                    .clone()
            })
            .collect()
    }

    pub fn afd<R: Rng + ?Sized>(
        lhs: &[&[Value]],
        dom: &Domain,
        epsilon: f64,
        n: usize,
        rng: &mut R,
    ) -> Vec<Value> {
        let mut mapping: HashMap<Vec<Value>, Value> = HashMap::new();
        (0..n)
            .map(|r| {
                if rng.gen::<f64>() < epsilon {
                    sample_uniform(dom, rng)
                } else {
                    mapping
                        .entry(lhs_key(lhs, r))
                        .or_insert_with(|| sample_uniform(dom, rng))
                        .clone()
                }
            })
            .collect()
    }

    pub fn nd<R: Rng + ?Sized>(
        lhs: &[Value],
        dom: &Domain,
        k: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<Value> {
        let pool = enumerate_domain(dom, DEFAULT_BINS.max(k));
        if pool.is_empty() {
            return vec![Value::Null; n];
        }
        let k = k.clamp(1, pool.len());
        let mut subsets: HashMap<&Value, Vec<usize>> = HashMap::new();
        (0..n)
            .map(|r| {
                let subset = subsets.entry(&lhs[r]).or_insert_with(|| {
                    let mut idx: Vec<usize> = (0..pool.len()).collect();
                    for i in 0..k {
                        let j = rng.gen_range(i..idx.len());
                        idx.swap(i, j);
                    }
                    idx.truncate(k);
                    idx
                });
                pool[subset[rng.gen_range(0..subset.len())]].clone()
            })
            .collect()
    }

    pub fn ofd<R: Rng + ?Sized>(lhs: &[Value], dom: &Domain, n: usize, rng: &mut R) -> Vec<Value> {
        let mut distinct: Vec<&Value> = lhs.iter().collect();
        distinct.sort();
        distinct.dedup();
        let m = distinct.len();
        if m == 0 {
            return Vec::new();
        }
        let pool = enumerate_domain(dom, DEFAULT_BINS.max(m));
        if pool.is_empty() {
            return vec![Value::Null; n];
        }
        let indices: Vec<usize> = if m <= pool.len() {
            let mut idx: Vec<usize> = (0..pool.len()).collect();
            for i in 0..m {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx.truncate(m);
            idx.sort_unstable();
            idx
        } else {
            let mut idx: Vec<usize> = (0..m).map(|_| rng.gen_range(0..pool.len())).collect();
            idx.sort_unstable();
            idx
        };
        let mapping: HashMap<&Value, &Value> = distinct
            .iter()
            .zip(indices.iter().map(|&i| &pool[i]))
            .map(|(k, v)| (*k, v))
            .collect();
        (0..n).map(|r| mapping[&lhs[r]].clone()).collect()
    }

    pub fn od<R: Rng + ?Sized>(
        lhs: &[Value],
        dom: &Domain,
        direction: OrderDirection,
        n: usize,
        rng: &mut R,
    ) -> Vec<Value> {
        let mut distinct: Vec<&Value> = lhs.iter().collect();
        distinct.sort();
        distinct.dedup();
        let m = distinct.len();
        if m == 0 {
            return Vec::new();
        }
        let mut seq: Vec<Value> = match dom {
            Domain::Continuous { min, max } => {
                let mut ys: Vec<f64> = (0..m).map(|_| rng.gen_range(*min..=*max)).collect();
                ys.sort_by(f64::total_cmp);
                ys.into_iter().map(Value::Float).collect()
            }
            Domain::Categorical(vals) => {
                if vals.is_empty() {
                    return vec![Value::Null; n];
                }
                let mut idx: Vec<usize> = (0..m).map(|_| rng.gen_range(0..vals.len())).collect();
                idx.sort_unstable();
                idx.into_iter().map(|i| vals[i].clone()).collect()
            }
        };
        if direction == OrderDirection::Descending {
            seq.reverse();
        }
        let mapping: HashMap<&Value, Value> = distinct.into_iter().zip(seq).collect();
        (0..n).map(|r| mapping[&lhs[r]].clone()).collect()
    }

    pub fn dd<R: Rng + ?Sized>(
        lhs: &[Value],
        dom: &Domain,
        eps: f64,
        delta: f64,
        n: usize,
        rng: &mut R,
    ) -> Vec<Value> {
        let (dom_min, dom_max) = match dom {
            Domain::Continuous { min, max } => (*min, *max),
            Domain::Categorical(_) => return (0..n).map(|_| sample_uniform(dom, rng)).collect(),
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| match (lhs[a].as_f64(), lhs[b].as_f64()) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => a.cmp(&b),
        });
        let mut out = vec![Value::Null; n];
        let mut window: Vec<(f64, f64)> = Vec::new();
        for &r in &order {
            let Some(x) = lhs[r].as_f64() else {
                out[r] = sample_uniform(dom, rng);
                continue;
            };
            while let Some(&(wx, _)) = window.first() {
                if x - wx > eps {
                    window.remove(0);
                } else {
                    break;
                }
            }
            let (lo, hi) = window
                .iter()
                .fold((dom_min, dom_max), |(lo, hi), &(_, wy)| {
                    (lo.max(wy - delta), hi.min(wy + delta))
                });
            let y = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            window.push((x, y));
            out[r] = Value::Float(y);
        }
        out
    }

    pub fn cfd<R: Rng + ?Sized>(
        cfd: &ConditionalFd,
        lhs: &[&[Value]],
        dom: &Domain,
        n: usize,
        rng: &mut R,
    ) -> Vec<Value> {
        let matches: Vec<bool> = (0..n)
            .map(|r| {
                cfd.lhs
                    .iter()
                    .zip(lhs)
                    .all(|((_, cell), col)| cell.matches(&col[r]))
            })
            .collect();
        let mapped: Vec<Value> = match &cfd.rhs_pattern {
            PatternCell::Const(c) => vec![c.clone(); n],
            PatternCell::Wildcard => {
                let wildcard: Vec<&[Value]> = cfd
                    .lhs
                    .iter()
                    .zip(lhs)
                    .filter(|((_, cell), _)| matches!(cell, PatternCell::Wildcard))
                    .map(|(_, col)| *col)
                    .collect();
                if wildcard.is_empty() {
                    let v = sample_uniform(dom, rng);
                    vec![v; n]
                } else {
                    fd(&wildcard, dom, n, rng)
                }
            }
        };
        (0..n)
            .map(|r| {
                if matches[r] {
                    mapped[r].clone()
                } else {
                    sample_uniform(dom, rng)
                }
            })
            .collect()
    }

    pub fn derive<R: Rng + ?Sized>(
        dep: &Dependency,
        lhs: &[&[Value]],
        dom: &Domain,
        n: usize,
        rng: &mut R,
    ) -> Vec<Value> {
        match dep {
            Dependency::Fd(_) => fd(lhs, dom, n, rng),
            Dependency::Afd(afd_dep) => afd(lhs, dom, afd_dep.g3_threshold, n, rng),
            Dependency::Od(od_dep) => od(lhs[0], dom, od_dep.direction, n, rng),
            Dependency::Nd(nd_dep) => nd(lhs[0], dom, nd_dep.k, n, rng),
            Dependency::Dd(dd_dep) => dd(lhs[0], dom, dd_dep.eps_lhs, dd_dep.delta_rhs, n, rng),
            Dependency::Ofd(_) => ofd(lhs[0], dom, n, rng),
            Dependency::Cfd(c) => cfd(c, lhs, dom, n, rng),
        }
    }
}

/// Row counts around the null bitmap's 64-bit word boundaries.
const ROW_COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 500];

/// Runs a typed generator and its reference from one seed each; both must
/// yield equal columns and leave their RNGs at the same next `u64`.
fn check(
    what: &str,
    seed: u64,
    typed: impl FnOnce(&mut StdRng) -> Column,
    reference: impl FnOnce(&mut StdRng) -> Vec<Value>,
) {
    let (mut typed_rng, mut reference_rng) =
        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let got = typed(&mut typed_rng);
    let want: Column = reference(&mut reference_rng).into_iter().collect();
    assert_eq!(got, want, "{what}, seed {seed}");
    assert_eq!(
        typed_rng.gen::<u64>(),
        reference_rng.gen::<u64>(),
        "{what}, seed {seed}: the RNG streams diverged"
    );
}

/// The determinant layouts, each as the values its rows draw from:
/// `Categorical` with nulls (once over a dictionary that lists every label
/// twice), `Int` with nulls, `Float` with an `ints` mask (`Int(1)` next to
/// `Float(1.0)`), and `Boxed` (integers above 2^53 next to floats).
fn layouts() -> Vec<(&'static str, Vec<Value>)> {
    let big = 1i64 << 53;
    let text = vec!["a".into(), "b".into(), "c".into(), Value::Null];
    vec![
        ("categorical", text.clone()),
        ("categorical, labels listed twice", text),
        (
            "int",
            vec![Value::Int(1), Value::Int(-5), Value::Int(3), Value::Null],
        ),
        (
            "float",
            vec![
                Value::Int(1),
                Value::Float(1.0),
                Value::Float(2.5),
                Value::Int(3),
                Value::Null,
            ],
        ),
        (
            "boxed",
            vec![
                Value::Int(big + 1),
                Value::Float(big as f64),
                Value::Float(0.5),
                Value::Int(-(1 << 60)),
                Value::Null,
            ],
        ),
    ]
}

/// The typed column of `values`; for the `labels listed twice` layout a
/// text column is re-encoded over a dictionary holding every label twice,
/// odd rows coded to the second copy, so equal values carry unequal codes.
fn typed_column(layout: &str, values: &[Value]) -> Column {
    let col: Column = values.iter().cloned().collect();
    match col {
        Column::Categorical { dict, codes } if layout.ends_with("listed twice") => {
            let k = dict.len() as u32;
            Column::Categorical {
                dict: std::sync::Arc::new(dict.iter().chain(dict.iter()).cloned().collect()),
                codes: (0..)
                    .zip(codes)
                    .map(|(r, c)| match c {
                        0 => 0,
                        c if r % 2 == 1 => c + k,
                        c => c,
                    })
                    .collect(),
            }
        }
        col => col,
    }
}

/// `n` rows drawn from `values` with a seed of their own.
fn column_of(values: &[Value], n: usize, seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    (0..n)
        .map(|_| values[rng.gen_range(0..values.len())].clone())
        .collect()
}

/// Codomains: integer, text, text with null, mixed numeric, empty, a
/// continuous range and a point range.
fn codomains() -> Vec<Domain> {
    vec![
        Domain::categorical((0i64..7).collect::<Vec<_>>()),
        Domain::categorical(vec!["p", "q", "r"]),
        Domain::categorical(vec![Value::from("p"), "q".into(), Value::Null]),
        Domain::categorical(vec![Value::Int(1), Value::Float(1.5), Value::Null]),
        Domain::Categorical(Vec::new()),
        Domain::continuous(-2.0, 3.0),
        Domain::continuous(4.0, 4.0),
    ]
}

/// The dependencies of the first `lhs_len` determinants (attributes
/// `0..lhs_len`) onto attribute 9, one per generator case, with the
/// pattern constants `c` (a determinant value) and `rhs_c`.
fn dependencies(c: &Value, rhs_c: &Value) -> Vec<Dependency> {
    use mp_metadata::{Afd, DifferentialDep, NumericalDep, OrderDep, OrderedFd};
    let constant = |lhs: Vec<(usize, PatternCell)>, rhs: PatternCell| {
        Dependency::Cfd(ConditionalFd {
            lhs,
            rhs: 9,
            rhs_pattern: rhs,
        })
    };
    let mut deps: Vec<Dependency> = vec![
        Fd::new(0usize, 9).into(),
        Fd::new(vec![0, 1, 2], 9).into(),
        OrderDep::ascending(0, 9).into(),
        OrderDep::descending(0, 9).into(),
        DifferentialDep::new(0, 9, 1.0, 0.5).into(),
        OrderedFd::new(0, 9).into(),
        constant(
            vec![(0, PatternCell::Const(c.clone()))],
            PatternCell::Const(rhs_c.clone()),
        ),
        constant(
            vec![(0, PatternCell::Const(c.clone()))],
            PatternCell::Const(Value::from("outside")),
        ),
        constant(
            vec![
                (0, PatternCell::Const(c.clone())),
                (1, PatternCell::Wildcard),
            ],
            PatternCell::Wildcard,
        ),
        constant(
            vec![(0, PatternCell::Const(c.clone()))],
            PatternCell::Wildcard,
        ),
    ];
    for eps in [0.0, 0.1, 1.0] {
        deps.push(Afd::new(0usize, 9, eps).into());
    }
    for k in [1, 3, 99] {
        deps.push(NumericalDep::new(0, 9, k).into());
    }
    deps
}

#[test]
fn every_generator_matches_its_value_reference() {
    for (layout, values) in layouts() {
        for n in ROW_COUNTS {
            for seed in 0..3u64 {
                let x = column_of(&values, n, seed);
                let others = [
                    column_of(&[Value::Int(0), Value::Int(1)], n, seed + 100),
                    column_of(&["u".into(), "v".into(), Value::Null], n, seed + 200),
                ];
                let lhs_values = [x.as_slice(), others[0].as_slice(), others[1].as_slice()];
                let lhs_cols: Vec<Column> =
                    lhs_values.iter().map(|v| typed_column(layout, v)).collect();
                for domain in codomains() {
                    let pool = DomainPool::new(&domain);
                    let rhs_c = match &domain {
                        Domain::Categorical(vals) => vals.first().cloned().unwrap_or(Value::Null),
                        Domain::Continuous { min, .. } => Value::Float(*min),
                    };
                    for dep in dependencies(&values[0], &rhs_c) {
                        let order = determinant_order(&dep);
                        let typed: Vec<&Column> = order.iter().map(|&a| &lhs_cols[a]).collect();
                        let refs: Vec<&[Value]> = order.iter().map(|&a| lhs_values[a]).collect();
                        check(
                            &format!("{dep} over {layout} onto {domain}, n = {n}"),
                            seed,
                            |rng| derive_column(&dep, &typed, &pool, n, rng),
                            |rng| reference::derive(&dep, &refs, &domain, n, rng),
                        );
                    }
                }
            }
        }
    }
}

/// Every categorical layout the pool tells apart — `Int`, `Int`+`Null`,
/// `Null` only, `Text`, `Text`+`Null`, `Int`+`Float`, `Int`+`Text`,
/// integers above 2^53 with floats, empty — plus a continuous range and a
/// point range, each with the layout its draws take.
fn domain_shapes(card: i64) -> Vec<(Domain, &'static str)> {
    let ints = || (0..card).map(Value::Int);
    let texts = || (0..card).map(|i| Value::Text(format!("t{i}")));
    let categorical = |vals: Vec<Value>| Domain::categorical(vals);
    vec![
        (categorical(ints().collect()), "i64"),
        (categorical(ints().chain([Value::Null]).collect()), "i64"),
        (categorical(vec![Value::Null]), "i64"),
        (categorical(texts().collect()), "dict"),
        (categorical(texts().chain([Value::Null]).collect()), "dict"),
        (
            categorical(ints().chain([Value::Float(0.5)]).collect()),
            "f64",
        ),
        (
            categorical(ints().chain([Value::from("x")]).collect()),
            "boxed",
        ),
        (
            categorical(vec![Value::Int((1 << 53) + 1), Value::Float(0.5)]),
            "boxed",
        ),
        (Domain::Categorical(Vec::new()), "i64"),
        (Domain::continuous(-2.0, 3.0), "f64"),
        (Domain::continuous(4.0, 4.0), "f64"),
    ]
}

#[test]
fn free_draws_match_the_value_reference() {
    for seed in 0..8u64 {
        for card in [1i64, 2, 5, 11] {
            for (domain, layout) in domain_shapes(card) {
                let pool = DomainPool::new(&domain);
                for n in ROW_COUNTS {
                    check(
                        &format!("draws from {domain}, n = {n}"),
                        seed,
                        |rng| pool.sample(n, rng),
                        |rng| reference::sample_column(&domain, n, rng),
                    );
                }
                // The pool fixes the layout from the whole domain, and
                // every text draw shares the pool's one dictionary.
                let first = pool.sample(2, &mut StdRng::seed_from_u64(seed));
                assert_eq!(first.repr_name(), layout, "{domain}");
                if let Column::Categorical { dict, .. } = first {
                    let again = pool.sample(3, &mut StdRng::seed_from_u64(seed + 1));
                    assert!(
                        matches!(again, Column::Categorical { dict: d, .. } if std::sync::Arc::ptr_eq(&d, &dict))
                    );
                }
            }
        }
    }
}

#[test]
fn distribution_draws_match_the_value_reference() {
    let dists = [
        Distribution::Categorical(Vec::new()),
        Distribution::Categorical(vec![
            (Value::from("a"), 0.5),
            (Value::Null, 0.2),
            (Value::from("b"), 0.3),
        ]),
        Distribution::Categorical(vec![(Value::Int(4), 0.9), (Value::Float(0.5), 0.1)]),
        Distribution::Histogram {
            min: 0.0,
            max: 10.0,
            densities: vec![0.1, 0.6, 0.3],
        },
        Distribution::Histogram {
            min: 2.0,
            max: 2.0,
            densities: vec![1.0],
        },
    ];
    for seed in 0..4u64 {
        for dist in &dists {
            for n in ROW_COUNTS {
                check(
                    &format!("draws from {dist:?}, n = {n}"),
                    seed,
                    |rng| sample_distribution(dist, n, rng),
                    |rng| {
                        (0..n)
                            .map(|_| reference::sample_from_distribution(dist, rng))
                            .collect()
                    },
                );
            }
        }
    }
}

/// `Adversary::synthesize` as it was written over owned values: free
/// columns drawn value by value, derived columns through the reference
/// generators, every column built by pushing values.
fn reference_synthesis(adversary: &Adversary, config: &SynthConfig) -> Vec<Column> {
    let package = adversary.package();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n_rows;
    let mut columns: Vec<Option<Vec<Value>>> = vec![None; package.arity()];
    let plan: Vec<PlanStep> = match config.use_dependencies {
        true => adversary.plan().to_vec(),
        false => (0..package.arity())
            .map(|attr| PlanStep::Free { attr })
            .collect(),
    };
    for step in &plan {
        let meta = &package.attributes[step.attr()];
        let col = match (step, &meta.domain, &meta.distribution) {
            (PlanStep::Free { .. }, _, Some(dist)) => (0..n)
                .map(|_| reference::sample_from_distribution(dist, &mut rng))
                .collect(),
            (_, None, _) => vec![Value::Null; n],
            (PlanStep::Free { .. }, Some(dom), None) => reference::sample_column(dom, n, &mut rng),
            (PlanStep::Derive { dep, .. }, Some(dom), _) => {
                let dep = &package.dependencies[*dep];
                let order = determinant_order(dep);
                let lhs: Vec<&[Value]> = order
                    .iter()
                    .map(|&a| columns[a].as_deref().expect("determinant first"))
                    .collect();
                reference::derive(dep, &lhs, dom, n, &mut rng)
            }
        };
        columns[step.attr()] = Some(col);
    }
    columns
        .into_iter()
        .map(|c| {
            c.expect("plan covers every attribute")
                .into_iter()
                .collect()
        })
        .collect()
}

/// The matrix's five share policies, by label.
fn apply_policy(policy: &str, package: &MetadataPackage) -> MetadataPackage {
    match policy {
        "names" => SharePolicy::NAMES_ONLY.apply(package),
        "domains" => SharePolicy::NAMES_AND_DOMAINS.apply(package),
        "recommended" => SharePolicy::PAPER_RECOMMENDED.apply(package),
        "full" => SharePolicy::FULL.apply(package),
        _ => {
            // redact-odd: full disclosure for even attributes only.
            let mut out = SharePolicy::FULL.apply(package);
            for meta in out.attributes.iter_mut().skip(1).step_by(2) {
                meta.kind = None;
                meta.domain = None;
                meta.distribution = None;
            }
            out
        }
    }
}

#[test]
fn synthesis_matches_the_value_reference_on_the_matrix_datasets() {
    let bank = mp_datasets::bank_table(500);
    let (car, car_deps) = mp_datasets::car_table();
    let datasets = [
        (
            "echocardiogram",
            mp_datasets::echocardiogram(),
            mp_datasets::verified_dependencies(),
        ),
        ("bank", bank.relation, bank.dependencies),
        ("car", car, car_deps),
    ];
    let adversaries = [
        AdversaryModel::Baseline,
        AdversaryModel::PartialAlignment { aligned_pct: 50 },
        AdversaryModel::Collusion { parties: 2 },
        AdversaryModel::NoisyDomains { noise_pct: 10 },
    ];
    for (name, relation, deps) in &datasets {
        let n = relation.n_rows();
        // Domains only, then each dependency class on its own, as the
        // matrix's rows share them.
        let mut classes: Vec<&str> = deps.iter().map(Dependency::class).collect();
        classes.sort_unstable();
        classes.dedup();
        let mut inventories = vec![Vec::new()];
        for class in classes {
            inventories.push(
                deps.iter()
                    .filter(|d| d.class() == class)
                    .cloned()
                    .collect(),
            );
        }
        for inventory in inventories {
            let package = MetadataPackage::describe(*name, relation, inventory).unwrap();
            for policy in ["names", "domains", "full", "recommended", "redact-odd"] {
                for model in adversaries {
                    let shared = apply_policy(policy, &package);
                    let effective = model.shared_package(&shared).unwrap();
                    let adversary = Adversary::new(effective);
                    for (seed, use_dependencies) in [(1, true), (1, false), (2, true)] {
                        let config = SynthConfig {
                            n_rows: n,
                            seed,
                            use_dependencies,
                        };
                        let typed = adversary.synthesize(&config).unwrap();
                        let want = reference_synthesis(&adversary, &config);
                        for (attr, col) in want.iter().enumerate() {
                            assert_eq!(
                                typed.column(attr).unwrap(),
                                col,
                                "{name}/{policy}/{} attr {attr}, {config:?}",
                                model.label()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn distributions_drive_free_columns() {
    let rel = mp_datasets::employee();
    let described = MetadataPackage::describe_with_distributions(
        "employee",
        &rel,
        vec![Fd::new(0usize, 1).into()],
        4,
    )
    .unwrap();
    let adversary = Adversary::new(described);
    for (seed, use_dependencies) in [(3, true), (3, false)] {
        let config = SynthConfig {
            n_rows: 65,
            seed,
            use_dependencies,
        };
        let typed = adversary.synthesize(&config).unwrap();
        let want = reference_synthesis(&adversary, &config);
        for (attr, col) in want.iter().enumerate() {
            assert_eq!(typed.column(attr).unwrap(), col, "attr {attr}");
        }
    }
}
