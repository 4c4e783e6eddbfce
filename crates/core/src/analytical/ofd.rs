//! §IV-E — ordered functional dependencies.
//!
//! An OFD forces the mapping from the `m` distinct determinant values to
//! be *strictly increasing* into the dependent domain: generating it is a
//! time-variant one-dimensional directed random walk over the sorted
//! codomain. The paper's sample transition probability — uniform over the
//! remaining choices given that all later values must still fit — is
//! `P_{i,i+1} = 1 − (|X| − t)/|Y|`, reaching 1 when the remaining budget
//! forces every step up.

/// The paper's transition probability `P_{i,i+1} = 1 − (|X| − t)/|Y|`,
/// clamped to [0, 1]: at step `t` of a walk placing `|X|` strictly
/// increasing values into a codomain of size `|Y|`.
pub fn transition_probability(card_x: usize, card_y: usize, t: usize) -> f64 {
    if card_y == 0 {
        return 0.0;
    }
    let remaining = card_x.saturating_sub(t) as f64;
    (1.0 - remaining / card_y as f64).clamp(0.0, 1.0)
}

/// Probability that a uniformly random strictly-increasing mapping
/// (an `m`-combination of a `d`-element codomain) assigns the correct
/// codomain value at one fixed position, marginally: each codomain element
/// is included with probability `m/d`, and conditioned on inclusion it
/// sits at the right rank… the simple marginal the paper's binomial model
/// uses is `θ_{Y,t} = m/d` per step; the joint positional probability is
/// `1/C(d, m)` for the whole walk.
pub(crate) fn marginal_step_probability(m: usize, card_y: usize) -> f64 {
    if card_y == 0 {
        return 0.0;
    }
    (m as f64 / card_y as f64).min(1.0)
}

/// Probability the adversary's whole walk reproduces the real mapping:
/// `1/C(|D_Y|, m)` (uniform over combinations).
pub fn whole_mapping_probability(m: usize, card_y: usize) -> f64 {
    let c = super::choose(card_y as u64, m as u64);
    if c <= 0.0 {
        0.0
    } else {
        1.0 / c
    }
}

/// Expected number of mapping positions where the walk agrees with the
/// real mapping: hypergeometric element overlap `m²/d` discounted by the
/// positional alignment requirement — for the binomial accounting the
/// paper uses, `N·θ_X·θ_{Y,t}` with `θ_{Y,t}` the marginal step
/// probability.
pub fn expected_matches(n_rows: usize, theta_x: f64, m: usize, card_y: usize) -> f64 {
    n_rows as f64 * theta_x * marginal_step_probability(m, card_y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_probability_paper_form() {
        // |X| = 5 values to place into |Y| = 10: at t = 0 the walk may stay
        // with probability 1 − 5/10.
        assert!((transition_probability(5, 10, 0) - 0.5).abs() < 1e-12);
        // As t approaches |X| the pressure releases.
        assert!((transition_probability(5, 10, 4) - 0.9).abs() < 1e-12);
        assert!((transition_probability(5, 10, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn forced_moves_when_budget_tight() {
        // |X| = |Y|: every step is forced (probability clamps to 0 of
        // staying → transition to move is... the paper's P is the
        // probability of *moving up*, 1 when the budget is exhausted).
        assert_eq!(transition_probability(10, 10, 0), 0.0);
        assert_eq!(transition_probability(10, 5, 0), 0.0);
        assert_eq!(transition_probability(0, 5, 0), 1.0);
    }

    #[test]
    fn whole_mapping_probability_combinatorial() {
        assert!((whole_mapping_probability(2, 4) - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(whole_mapping_probability(5, 3), 0.0); // impossible
        assert!((whole_mapping_probability(3, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_matches_binomial_form() {
        // N = 100, θ_X = 0.1, m = 5, |D_Y| = 20 → 100·0.1·0.25 = 2.5.
        assert!((expected_matches(100, 0.1, 5, 20) - 2.5).abs() < 1e-12);
        assert_eq!(expected_matches(100, 0.1, 5, 0), 0.0);
    }

    #[test]
    fn monte_carlo_walk_element_hits() {
        use mp_relation::{Column, Domain, Value};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Element-level overlap of two random strictly increasing mappings
        // is hypergeometric with mean m²/d; the OFD generator should show
        // it. Build a real mapping and measure the adversary's agreement.
        let (m, d, rounds) = (6usize, 24usize, 120usize);
        let dom = Domain::categorical((0i64..d as i64).collect::<Vec<_>>());
        let lhs: Vec<Value> = (0..m * 10).map(|i| Value::Int((i % m) as i64)).collect();

        // Real mapping: value i ↦ 3i (strictly increasing).
        let real: Vec<Value> = lhs
            .iter()
            .map(|v| Value::Int(v.as_i64().unwrap() * 3))
            .collect();

        let (pool, x): (_, Column) = (mp_synth::DomainPool::new(&dom), lhs.into_iter().collect());
        let mut element_hits = 0usize;
        for round in 0..rounds {
            let mut rng = StdRng::seed_from_u64(round as u64);
            let syn = mp_synth::generate_ofd_column(&x, &pool, x.len(), &mut rng);
            // Count mapping positions that agree (measure on distinct lhs).
            element_hits += (0..m).filter(|&i| syn.value(i) == real[i]).count();
        }
        let mean = element_hits as f64 / rounds as f64;
        // Positional agreement is below the element-overlap mean m²/d but
        // well above zero; sanity-band it.
        let upper = expected_matches(m, 1.0, m, d) + 1.0;
        assert!(mean > 0.05, "mean {mean} suspiciously low");
        assert!(
            mean < upper,
            "mean {mean} above element-overlap bound {upper}"
        );
    }
}
