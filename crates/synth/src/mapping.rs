//! Mapping-based generation for FD, AFD, ND and OFD metadata.
//!
//! The common shape (paper §III-B): the adversary first generates the
//! determinant column(s), then materialises a *random mapping* from
//! observed determinant values into the dependent attribute's domain —
//! "one-time initialization throughout the dataset". The mapping is a
//! table indexed by the determinant's row group ids; a group's image is
//! drawn at the group's first row. Each dependency class constrains the
//! mapping differently:
//!
//! * **FD** — any function: each LHS value maps to one uniformly chosen
//!   RHS value (`P(B|A=a) = 1/|D_B|`).
//! * **AFD** — an FD mapping, but an ε fraction of rows are perturbed to
//!   independent uniform values, scattering violations across partitions
//!   exactly as §IV-A describes.
//! * **ND** — each LHS value maps to a uniformly chosen `k`-subset of the
//!   RHS domain (the hypergeometric selection of §IV-B); rows then sample
//!   inside their subset.
//! * **OFD** — distinct LHS values map to a *strictly increasing* random
//!   sequence of RHS values — the directed-random-walk of §IV-E.

use crate::pool::{group_ids, null_column, ranked_groups, Codomain, DomainPool, DEFAULT_BINS};
use mp_relation::Column;
use rand::Rng;

/// The FD images of the first `n` rows: one draw from `codomain` per
/// distinct determinant tuple, at its first row.
pub(crate) fn fd_images<R: Rng + ?Sized>(
    lhs: &[&Column],
    codomain: &mut Codomain<'_>,
    n: usize,
    rng: &mut R,
) -> Vec<usize> {
    let (groups, bound) = group_ids(lhs, n);
    let mut images: Vec<Option<usize>> = vec![None; bound];
    (0..n)
        .map(|r| *images[groups[r] as usize].get_or_insert_with(|| codomain.draw(rng)))
        .collect()
}

/// Generates a dependent column under an **FD**: one uniformly random image
/// per distinct determinant value.
pub fn generate_fd_column<R: Rng + ?Sized>(
    lhs: &[&Column],
    rhs: &DomainPool,
    n: usize,
    rng: &mut R,
) -> Column {
    let mut codomain = Codomain::new(rhs);
    let rows = fd_images(lhs, &mut codomain, n, rng);
    codomain.column(&rows)
}

/// Generates a dependent column under an **AFD**: the FD mapping with an
/// `epsilon` fraction of rows replaced by independent uniform draws. Every
/// row draws its ε coin first; a group's image is drawn at its first
/// unperturbed row.
pub fn generate_afd_column<R: Rng + ?Sized>(
    lhs: &[&Column],
    rhs: &DomainPool,
    epsilon: f64,
    n: usize,
    rng: &mut R,
) -> Column {
    let (groups, bound) = group_ids(lhs, n);
    let mut codomain = Codomain::new(rhs);
    let mut images: Vec<Option<usize>> = vec![None; bound];
    let rows: Vec<usize> = (0..n)
        .map(|r| {
            if rng.gen::<f64>() < epsilon {
                codomain.draw(rng)
            } else {
                *images[groups[r] as usize].get_or_insert_with(|| codomain.draw(rng))
            }
        })
        .collect();
    codomain.column(&rows)
}

/// A uniform `k`-subset of `0..len` by partial Fisher–Yates.
fn k_subset<R: Rng + ?Sized>(len: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    for i in 0..k {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Generates a dependent column under an **ND** `X →≤k Y`: each distinct
/// determinant value gets a uniformly chosen `k`-subset of the (possibly
/// discretised) RHS domain, drawn at its first row; each row samples
/// uniformly within its subset.
pub fn generate_nd_column<R: Rng + ?Sized>(
    lhs: &Column,
    rhs: &DomainPool,
    k: usize,
    n: usize,
    rng: &mut R,
) -> Column {
    let codomain = Codomain::grid(rhs, DEFAULT_BINS.max(k));
    let len = codomain.len();
    if len == 0 {
        return null_column(n);
    }
    let k = k.clamp(1, len);
    let (groups, bound) = group_ids(&[lhs], n);
    let mut subsets: Vec<Option<Vec<usize>>> = vec![None; bound];
    let rows: Vec<usize> = (0..n)
        .map(|r| {
            let subset = subsets[groups[r] as usize].get_or_insert_with(|| k_subset(len, k, rng));
            subset[rng.gen_range(0..k)]
        })
        .collect();
    codomain.column(&rows)
}

/// Generates a dependent column under an **OFD** `X → Y`: the `m` distinct
/// determinant values, in sorted order, map to a strictly increasing
/// uniformly random sequence over the RHS codomain.
///
/// When the finite codomain has fewer than `m` values a strictly increasing
/// sequence is impossible; the walk degrades to non-decreasing (the closest
/// realisable mapping — the paper's transition probability
/// `P_{i,i+1} = 1 − (|X|−t)/|Y|` likewise forces every remaining step up
/// when the codomain budget runs out).
pub fn generate_ofd_column<R: Rng + ?Sized>(
    lhs: &Column,
    rhs: &DomainPool,
    n: usize,
    rng: &mut R,
) -> Column {
    let (ranks, m) = ranked_groups(lhs);
    if m == 0 {
        return Column::default();
    }
    let codomain = Codomain::grid(rhs, DEFAULT_BINS.max(m));
    let len = codomain.len();
    if len == 0 {
        return null_column(n);
    }

    // Choose m indices into the sorted codomain: a uniform m-combination
    // when possible (strictly increasing), otherwise a sorted m-multiset.
    let mut images: Vec<usize> = if m <= len {
        k_subset(len, m, rng)
    } else {
        (0..m).map(|_| rng.gen_range(0..len)).collect()
    };
    images.sort_unstable();
    let rows: Vec<usize> = ranks[..n].iter().map(|&g| images[g as usize]).collect();
    codomain.column(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{cycle, ints, rel};
    use mp_metadata::{Fd, NumericalDep, OrderDep, OrderedFd};
    use mp_relation::{Domain, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool(domain: Domain) -> DomainPool {
        DomainPool::new(&domain)
    }

    fn ints_to(card: i64) -> DomainPool {
        pool(Domain::categorical((0..card).collect::<Vec<_>>()))
    }

    #[test]
    fn fd_generation_satisfies_fd() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = cycle(100, 7);
        let y = generate_fd_column(
            &[&x],
            &pool(Domain::categorical(vec!["a", "b"])),
            100,
            &mut rng,
        );
        let r = rel(vec![("x", false, x), ("y", false, y)]);
        assert!(Fd::new(0usize, 1).holds(&r).unwrap());

        let (a, b) = (cycle(120, 4), ints((0..120).map(|i| i / 4 % 3)));
        let c = generate_fd_column(&[&a, &b], &ints_to(2), 120, &mut rng);
        let r = rel(vec![("a", false, a), ("b", false, b), ("c", false, c)]);
        assert!(Fd::new(vec![0, 1], 2).holds(&r).unwrap());
    }

    #[test]
    fn afd_generation_respects_epsilon() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = cycle(2000, 5);
        let y = generate_afd_column(&[&x], &ints_to(20), 0.1, 2000, &mut rng);
        let r = rel(vec![("x", false, x.clone()), ("y", false, y)]);
        let g3 = Fd::new(0usize, 1).g3_error(&r).unwrap();
        assert!(g3 > 0.02 && g3 < 0.15, "g3 {g3} for ε = 0.1");
        let y = generate_afd_column(&[&x], &ints_to(3), 0.0, 2000, &mut rng);
        assert!(Fd::new(0usize, 1)
            .holds(&rel(vec![("x", false, x), ("y", false, y)]))
            .unwrap());
    }

    #[test]
    fn nd_generation_bounds_fanout() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = cycle(600, 6);
        let y = generate_nd_column(&x, &ints_to(30), 4, 600, &mut rng);
        let r = rel(vec![("x", false, x.clone()), ("y", false, y)]);
        assert!(NumericalDep::new(0, 1, 4).holds(&r).unwrap());
        assert!(NumericalDep::max_fanout(0, 1, &r).unwrap() >= 3);
        let y = generate_nd_column(&x, &pool(Domain::continuous(0.0, 100.0)), 3, 600, &mut rng);
        let r = rel(vec![("x", false, x.clone()), ("y", true, y)]);
        assert!(NumericalDep::new(0, 1, 3).holds(&r).unwrap());
        let y = generate_nd_column(&x, &ints_to(2), 99, 600, &mut rng);
        assert!((0..600).all(|i| matches!(y.value(i), Value::Int(0 | 1))));
        let empty = generate_nd_column(&x, &pool(Domain::Categorical(vec![])), 2, 5, &mut rng);
        assert_eq!((empty.len(), empty.null_count()), (5, 5));
    }

    #[test]
    fn ofd_generation_is_strict_or_degrades_to_monotone() {
        let mut rng = StdRng::seed_from_u64(12);
        let x = cycle(150, 8);
        let y = generate_ofd_column(&x, &ints_to(40), 150, &mut rng);
        let r = rel(vec![("x", false, x), ("y", false, y)]);
        assert!(OrderedFd::new(0, 1).holds(&r).unwrap());

        let x: Column = (0..100).map(|i| Value::Float((i % 10) as f64)).collect();
        let y = generate_ofd_column(&x, &pool(Domain::continuous(-5.0, 5.0)), 100, &mut rng);
        let r = rel(vec![("x", true, x), ("y", true, y)]);
        assert!(OrderedFd::new(0, 1).holds(&r).unwrap());

        // 10 determinant values onto 3 targets: an order-compatible function.
        let x = cycle(60, 10);
        let y = generate_ofd_column(&x, &ints_to(3), 60, &mut rng);
        let r = rel(vec![("x", false, x), ("y", false, y)]);
        assert!(Fd::new(0usize, 1).holds(&r).unwrap());
        assert!(OrderDep::ascending(0, 1).holds(&r).unwrap());
        assert!(generate_ofd_column(&ints([]), &ints_to(1), 0, &mut rng).is_empty());
    }
}
