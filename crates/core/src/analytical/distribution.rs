//! Extension: expected leakage of sharing value *distributions*.
//!
//! The paper's experiments withhold the distribution ("we will assume a
//! uniform distribution"), so its §III-A bound is `N/|D|`. If the
//! distribution *is* shared — frequency tables for encoders, histograms
//! for binning are common in practice — the adversary samples from it, and
//! the real data is distributed by it too, so the per-cell match
//! probability becomes the collision probability `Σ p_v²`. By
//! Cauchy–Schwarz `Σ p² ≥ 1/|D|` with equality iff uniform: sharing any
//! *skewed* distribution strictly increases leakage over sharing the
//! domain alone.

use mp_metadata::Distribution;

/// Expected index-aligned matches when both real data and generation
/// follow `dist`: `N · Σ p²`.
pub fn expected_matches(n_rows: usize, dist: &Distribution) -> f64 {
    n_rows as f64 * dist.collision_probability()
}

/// The §III-A uniform-domain baseline for comparison: `N / |D|`.
pub fn uniform_baseline(n_rows: usize, cardinality: usize) -> f64 {
    if cardinality == 0 {
        return 0.0;
    }
    n_rows as f64 / cardinality as f64
}

/// Leakage amplification of sharing the distribution over sharing the
/// domain: `|D| · Σ p²` (≥ 1, equality iff uniform).
pub fn amplification(dist: &Distribution, cardinality: usize) -> f64 {
    cardinality as f64 * dist.collision_probability()
}

/// Continuous ε-match expectation under a shared histogram with bucket
/// width `w = range/B`: within a bucket of probability `p_b` both values
/// are uniform, so the per-pair ε-hit probability is ≈ `2ε/w` (for
/// `2ε ≤ w`) and the total is `N · Σ p_b² · min(2ε/w, 1)` (ignoring the
/// small cross-bucket boundary mass).
pub fn expected_eps_matches_histogram(
    n_rows: usize,
    densities: &[f64],
    range: f64,
    epsilon: f64,
) -> f64 {
    if densities.is_empty() || range <= 0.0 {
        return 0.0;
    }
    let width = range / densities.len() as f64;
    let within = (2.0 * epsilon / width).min(1.0);
    n_rows as f64 * densities.iter().map(|p| p * p).sum::<f64>() * within
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::Value;

    fn skewed() -> Distribution {
        Distribution::Categorical(vec![
            (Value::Int(0), 0.7),
            (Value::Int(1), 0.2),
            (Value::Int(2), 0.1),
        ])
    }

    #[test]
    fn collision_exceeds_uniform_baseline() {
        let d = skewed();
        // Σp² = 0.49 + 0.04 + 0.01 = 0.54.
        assert!((expected_matches(100, &d) - 54.0).abs() < 1e-9);
        assert!(expected_matches(100, &d) > uniform_baseline(100, 3));
        assert!((amplification(&d, 3) - 1.62).abs() < 1e-9);
    }

    #[test]
    fn uniform_distribution_is_the_floor() {
        let u = Distribution::Categorical(vec![
            (Value::Int(0), 1.0 / 3.0),
            (Value::Int(1), 1.0 / 3.0),
            (Value::Int(2), 1.0 / 3.0),
        ]);
        assert!((amplification(&u, 3) - 1.0).abs() < 1e-9);
        assert!((expected_matches(99, &u) - uniform_baseline(99, 3)).abs() < 1e-9);
    }

    #[test]
    fn histogram_eps_expectation() {
        // Two buckets over range 10 (width 5), all mass in one bucket,
        // ε = 0.5: N · 1 · (1/5).
        let e = expected_eps_matches_histogram(100, &[1.0, 0.0], 10.0, 0.5);
        assert!((e - 20.0).abs() < 1e-9);
        // Clamp when ε exceeds the bucket width.
        let e = expected_eps_matches_histogram(100, &[1.0, 0.0], 10.0, 100.0);
        assert!((e - 100.0).abs() < 1e-9);
        assert_eq!(expected_eps_matches_histogram(10, &[], 10.0, 1.0), 0.0);
    }

    #[test]
    fn monte_carlo_agreement() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = skewed();
        let (n, rounds) = (2000usize, 30usize);
        let mut total = 0usize;
        for round in 0..rounds {
            let mut rng = StdRng::seed_from_u64(round as u64);
            let real = mp_synth::sample_distribution(&d, n, &mut rng).to_values();
            let syn = mp_synth::sample_distribution(&d, n, &mut rng).to_values();
            total += real.iter().zip(&syn).filter(|(a, b)| a == b).count();
        }
        let mean = total as f64 / rounds as f64;
        let expected = expected_matches(n, &d);
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "mean {mean} vs expected {expected}"
        );
    }
}
