//! §III-A — leakage of sharing attribute names and domains.
//!
//! Tuple generation is independent, so correct generations over the
//! dataset follow a Binomial(N, θ_A) with `θ_A = 1/|D_A|` for uniform
//! categorical generation. The paper's leakage criterion: privacy leaks if
//! the expected number of correct generations `N·θ_A ≥ 1`.

use mp_relation::Domain;

/// Expected number of index-aligned correct generations, `N·θ`.
pub fn expected_matches(n_rows: usize, theta: f64) -> f64 {
    n_rows as f64 * theta
}

/// Expected matches for uniform generation from `domain` with continuous
/// tolerance `epsilon` (θ from [`Domain::theta`]).
pub fn expected_matches_for_domain(n_rows: usize, domain: &Domain, epsilon: f64) -> f64 {
    expected_matches(n_rows, domain.theta(epsilon))
}

/// The paper's §III-A leakage predicate: `N·θ_A ≥ 1`.
pub fn leaks(n_rows: usize, theta: f64) -> bool {
    expected_matches(n_rows, theta) >= 1.0
}

/// Variance of the match count, `N·θ(1−θ)` (Binomial).
pub fn match_variance(n_rows: usize, theta: f64) -> f64 {
    n_rows as f64 * theta * (1.0 - theta)
}

/// Probability of at least one correct generation, `1 − (1−θ)^N`.
pub fn prob_any_match(n_rows: usize, theta: f64) -> f64 {
    1.0 - (1.0 - theta).powi(n_rows as i32)
}

/// Expected MSE of uniform generation from `[min, max]` against a fixed
/// real value `x`: `E[(x−U)²] = (x−μ)² + w²/12` with `μ` the interval
/// midpoint and `w` its width. Averaging over real values distributed
/// uniformly too gives the classic `w²/6`.
pub fn expected_mse_vs_value(x: f64, min: f64, max: f64) -> f64 {
    let w = max - min;
    let mu = (min + max) / 2.0;
    (x - mu) * (x - mu) + w * w / 12.0
}

/// Expected MSE when both real and generated values are uniform on the
/// domain: `w²/6`.
pub fn expected_mse_uniform(min: f64, max: f64) -> f64 {
    let w = max - min;
    w * w / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_3_1() {
        // Age domain [18, 26]: 9 values, N = 4 → expectation 4/9 < 1:
        // leakage unlikely. Department: 3 values → 4/3 ≥ 1: leak expected.
        let age = Domain::categorical((18i64..=26).collect::<Vec<_>>());
        assert!((expected_matches_for_domain(4, &age, 0.0) - 4.0 / 9.0).abs() < 1e-12);
        assert!(!leaks(4, age.theta(0.0)));

        let dept = Domain::categorical(vec!["Sales", "CS", "Mgmt"]);
        assert!((expected_matches_for_domain(4, &dept, 0.0) - 4.0 / 3.0).abs() < 1e-12);
        assert!(leaks(4, dept.theta(0.0)));
    }

    #[test]
    fn binomial_moments() {
        assert_eq!(expected_matches(100, 0.25), 25.0);
        assert_eq!(match_variance(100, 0.25), 100.0 * 0.25 * 0.75);
        assert!((prob_any_match(10, 0.1) - (1.0 - 0.9f64.powi(10))).abs() < 1e-12);
        assert_eq!(prob_any_match(0, 0.5), 0.0);
    }

    #[test]
    fn continuous_epsilon_matches() {
        // Domain width 10, ε = 1 → θ = 0.2, N = 50 → expect 10.
        let d = Domain::continuous(0.0, 10.0);
        assert!((expected_matches_for_domain(50, &d, 1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mse_formulas() {
        assert!((expected_mse_uniform(0.0, 6.0) - 6.0).abs() < 1e-12);
        // At the midpoint the conditional MSE is w²/12.
        assert!((expected_mse_vs_value(3.0, 0.0, 6.0) - 3.0).abs() < 1e-12);
        // Away from the midpoint it grows quadratically.
        assert!((expected_mse_vs_value(0.0, 0.0, 6.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_agreement() {
        use mp_relation::Value;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Empirical matches vs N·θ for categorical uniform generation.
        let dom = Domain::categorical((0i64..7).collect::<Vec<_>>());
        let n = 7000usize;
        let mut rng = StdRng::seed_from_u64(99);
        let pool = mp_synth::DomainPool::new(&dom);
        let real = pool.sample(n, &mut rng).to_values();
        let syn = pool.sample(n, &mut rng).to_values();
        let matches = real
            .iter()
            .zip(&syn)
            .filter(|(a, b): &(&Value, &Value)| a == b)
            .count() as f64;
        let expected = expected_matches(n, dom.theta(0.0));
        let sd = match_variance(n, dom.theta(0.0)).sqrt();
        assert!(
            (matches - expected).abs() < 4.0 * sd,
            "matches {matches} vs expected {expected}"
        );
    }
}
