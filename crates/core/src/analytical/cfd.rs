//! Extension: expected leakage of conditional functional dependencies.
//!
//! The paper analyses dependency classes whose metadata is purely
//! *structural* (which attributes constrain which) and finds none of them
//! leaks beyond the domain level. CFDs break that pattern: a constant CFD
//! `(X = x → Y = y)` ships two **data values** inside the metadata. This
//! module quantifies the difference within the paper's own framework.
//!
//! Setup: N tuples, support `s` = number of real tuples with `X = x`
//! (hence `Y = y`), domains `|D_X|`, `|D_Y|`.
//!
//! * Random/FD-level baseline on the matching rows' Y cells:
//!   `s / |D_Y|`.
//! * CFD adversary (pattern strategy): it can set `Y = y` on every row it
//!   generates with `X = x` — those rows' Y cells are right whenever the
//!   real row also matches, giving `s / |D_X|` expected extra-correct
//!   cells, a factor `|D_Y|` more per matching row than the baseline.
//! * CFD adversary (constant-flood strategy): set `Y = y` on *all* rows;
//!   expected correct = `s` — beats random on Y whenever
//!   `s > N/|D_Y|`, i.e. the pattern is more frequent than a uniform
//!   value.

/// Expected Y-cell hits on the matching partition for the *baseline*
/// (uniform generation): `s/|D_Y|`.
pub fn baseline_partition_hits(support: usize, card_y: usize) -> f64 {
    if card_y == 0 {
        return 0.0;
    }
    support as f64 / card_y as f64
}

/// Expected Y-cell hits for the CFD adversary that applies the pattern to
/// its generated rows: rows where generated `X = x` (probability
/// `1/|D_X|`) and the real row matches (`s` of them) are guaranteed hits —
/// `s/|D_X|`.
pub fn pattern_strategy_hits(support: usize, card_x: usize) -> f64 {
    if card_x == 0 {
        return 0.0;
    }
    support as f64 / card_x as f64
}

/// Expected Y-cell hits for the constant-flood strategy (`Y = y`
/// everywhere): exactly the support `s`.
pub fn flood_strategy_hits(support: usize) -> f64 {
    support as f64
}

/// The multiplicative leakage amplification of the flood strategy over the
/// random baseline on attribute Y: `s·|D_Y|/N`. Values > 1 mean the CFD
/// leaks strictly more than anything in the paper's §III/§IV.
pub fn flood_amplification(n_rows: usize, support: usize, card_y: usize) -> f64 {
    if n_rows == 0 {
        return 0.0;
    }
    support as f64 * card_y as f64 / n_rows as f64
}

/// `true` iff sharing this constant CFD gives the adversary a strictly
/// better-than-random strategy on Y (the flood criterion `s > N/|D_Y|`).
pub fn leaks_more_than_random(n_rows: usize, support: usize, card_y: usize) -> bool {
    flood_amplification(n_rows, support, card_y) > 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_ordering() {
        // N = 100, support 30, |D_X| = 5, |D_Y| = 4.
        let base = baseline_partition_hits(30, 4); // 7.5
        let pattern = pattern_strategy_hits(30, 5); // 6.0
        let flood = flood_strategy_hits(30); // 30
        assert!(flood > base);
        assert!((base - 7.5).abs() < 1e-12);
        assert!((pattern - 6.0).abs() < 1e-12);
    }

    #[test]
    fn flood_criterion() {
        // support 30 of 100, |D_Y| = 4: 30 > 25 → leaks more.
        assert!(leaks_more_than_random(100, 30, 4));
        // support 20: 20 < 25 → does not beat random.
        assert!(!leaks_more_than_random(100, 20, 4));
        assert!((flood_amplification(100, 30, 4) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(baseline_partition_hits(10, 0), 0.0);
        assert_eq!(pattern_strategy_hits(10, 0), 0.0);
        assert_eq!(flood_amplification(0, 5, 2), 0.0);
    }

    #[test]
    fn monte_carlo_flood_strategy() {
        use mp_metadata::ConditionalFd;
        use mp_relation::{Domain, Value};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Real data: X uniform over 4, Y = 7 whenever X = 0 (support ≈ N/4),
        // otherwise uniform over 8 values.
        let (n, card_x, card_y, rounds) = (800usize, 4usize, 8usize, 40usize);
        let mut rng = StdRng::seed_from_u64(55);
        let dom_x = Domain::categorical((0i64..card_x as i64).collect::<Vec<_>>());
        let dom_y = Domain::categorical((0i64..card_y as i64).collect::<Vec<_>>());
        let (pool_x, pool_y) = (
            mp_synth::DomainPool::new(&dom_x),
            mp_synth::DomainPool::new(&dom_y),
        );
        let real_x = pool_x.sample(n, &mut rng).to_values();
        let real_y: Vec<Value> = real_x
            .iter()
            .map(|v| {
                if *v == Value::Int(0) {
                    Value::Int(7)
                } else {
                    Value::Int((v.as_i64().unwrap() * 2) % card_y as i64)
                }
            })
            .collect();
        let support = real_x.iter().filter(|v| **v == Value::Int(0)).count();

        // CFD-driven generation through the pattern strategy.
        let cfd = ConditionalFd::constant(0, 0i64, 1, 7i64);
        let mut pattern_hits = 0usize;
        let mut random_hits = 0usize;
        for round in 0..rounds {
            let mut rng = StdRng::seed_from_u64(round as u64);
            let sx = pool_x.sample(n, &mut rng);
            let sy = mp_synth::generate_cfd_column(&cfd, &[&sx], &pool_y, n, &mut rng);
            pattern_hits += (0..n).filter(|&i| sy.value(i) == real_y[i]).count();
            let ry = pool_y.sample(n, &mut rng);
            random_hits += (0..n).filter(|&i| ry.value(i) == real_y[i]).count();
        }
        let pattern_mean = pattern_hits as f64 / rounds as f64;
        let random_mean = random_hits as f64 / rounds as f64;
        // Expected Y hits: pattern rows s/|D_X| sure hits + non-pattern
        // rows at the 1/|D_Y| baseline.
        let expected = pattern_strategy_hits(support, card_x)
            + (n as f64 - n as f64 / card_x as f64) / card_y as f64;
        assert!(
            (pattern_mean - expected).abs() < 0.2 * expected,
            "pattern {pattern_mean} vs expected {expected}"
        );
        // And it visibly beats random generation on this attribute.
        assert!(
            pattern_mean > random_mean * 1.15,
            "pattern {pattern_mean} vs random {random_mean}"
        );
    }
}
