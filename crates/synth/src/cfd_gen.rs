//! Generation under a conditional functional dependency.
//!
//! The CFD is the one dependency class whose metadata carries raw data
//! values (tableau constants), so the adversary can do better than random
//! on the matching partition: rows whose generated determinants match the
//! LHS pattern receive the RHS constant *verbatim* (constant CFDs), or go
//! through an FD mapping restricted to the matching partition (variable
//! CFDs). Non-matching rows fall back to uniform generation.

use crate::mapping::fd_images;
use crate::pool::{Codomain, DomainPool};
use mp_metadata::{ConditionalFd, PatternCell};
use mp_relation::Column;
use rand::Rng;

/// Generates the dependent column of `cfd` given the already-generated
/// determinant columns (`lhs[i]` corresponds to `cfd.lhs[i]`). Pattern
/// constants match under [`mp_relation::Value`] equality; a constant RHS
/// may lie outside the shared domain.
pub fn generate_cfd_column<R: Rng + ?Sized>(
    cfd: &ConditionalFd,
    lhs: &[&Column],
    rhs: &DomainPool,
    n: usize,
    rng: &mut R,
) -> Column {
    assert_eq!(lhs.len(), cfd.lhs.len(), "one column per pattern cell");
    let matches: Vec<bool> = (0..n)
        .map(|r| {
            cfd.lhs.iter().zip(lhs).all(|((_, cell), col)| match cell {
                PatternCell::Const(c) => col.value_ref(r) == c.as_value_ref(),
                PatternCell::Wildcard => true,
            })
        })
        .collect();

    let mut codomain = Codomain::new(rhs);
    let mapped: Vec<usize> = match &cfd.rhs_pattern {
        PatternCell::Const(c) => vec![codomain.constant(c); n],
        PatternCell::Wildcard => {
            // FD mapping keyed on the wildcard determinants, drawn over
            // every row; only matching rows keep it.
            let wildcard: Vec<&Column> = cfd
                .lhs
                .iter()
                .zip(lhs)
                .filter(|((_, cell), _)| matches!(cell, PatternCell::Wildcard))
                .map(|(_, col)| *col)
                .collect();
            if wildcard.is_empty() {
                // Pure-constant LHS with free RHS: one shared value for the
                // whole partition (the FD on zero key attributes).
                vec![codomain.draw(rng); n]
            } else {
                fd_images(&wildcard, &mut codomain, n, rng)
            }
        }
    };
    let rows: Vec<usize> = (0..n)
        .map(|r| {
            if matches[r] {
                mapped[r]
            } else {
                codomain.draw(rng)
            }
        })
        .collect();
    codomain.column(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{cycle, rel};
    use mp_relation::{Domain, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ints_to(card: i64) -> DomainPool {
        DomainPool::new(&Domain::categorical((0..card).collect::<Vec<_>>()))
    }

    #[test]
    fn constant_cfd_forces_value_on_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = cycle(90, 3);
        // The constant 7 lies outside the 0..5 domain.
        let cfd = ConditionalFd::constant(0, 1i64, 1, 7i64);
        let y = generate_cfd_column(&cfd, &[&x], &ints_to(5), 90, &mut rng);
        for i in 0..90 {
            let (xi, yi) = (x.value(i), y.value(i));
            assert_eq!(xi == Value::Int(1), yi == Value::Int(7), "row {i}");
        }
        let cfd = ConditionalFd::constant(0, 2i64, 1, 0i64);
        let y = generate_cfd_column(&cfd, &[&x], &ints_to(5), 90, &mut rng);
        assert!(cfd
            .holds(&rel(vec![("x", false, x), ("y", false, y)]))
            .unwrap());
    }

    #[test]
    fn variable_and_constant_only_cfds() {
        let mut rng = StdRng::seed_from_u64(3);
        let (cond, key) = (cycle(200, 2), cycle(200, 5));
        let cfd = ConditionalFd::variable(0, 0i64, 1, 2);
        let y = generate_cfd_column(&cfd, &[&cond, &key], &ints_to(8), 200, &mut rng);
        let r = rel(vec![
            ("cond", false, cond.clone()),
            ("key", false, key),
            ("y", false, y),
        ]);
        assert!(cfd.holds(&r).unwrap());

        let cfd = ConditionalFd {
            lhs: vec![(0, PatternCell::Const(Value::Int(0)))],
            rhs: 1,
            rhs_pattern: PatternCell::Wildcard,
        };
        let y = generate_cfd_column(&cfd, &[&cond], &ints_to(6), 200, &mut rng);
        let matched: Vec<Value> = (0..200).step_by(2).map(|i| y.value(i)).collect();
        assert!(matched.windows(2).all(|w| w[0] == w[1]));
        assert!(generate_cfd_column(&cfd, &[&cycle(0, 1)], &ints_to(1), 0, &mut rng).is_empty());
    }
}
