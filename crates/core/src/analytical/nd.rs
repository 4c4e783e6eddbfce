//! §IV-B — numerical dependencies `X →≤K Y`.
//!
//! The adversary knows each determinant value maps into at most `K`
//! dependent values, so it selects a random `K`-subset of `dom(Y)` per
//! determinant value (a hypergeometric selection) and samples within it.

use super::choose;

/// The paper's §IV-B pair expectation `N·K/(|D_X|·|D_Y|)`.
///
/// The `K/|D_Y|` factor is *mapping coverage*: the probability the
/// adversary's random K-subset for a determinant value contains the real
/// dependent value. A tuple counts when its X cell is right (`1/|D_X|`)
/// and its mapping covers the truth.
pub fn expected_pair_matches(n_rows: usize, k: usize, card_x: usize, card_y: usize) -> f64 {
    if card_x == 0 || card_y == 0 {
        return 0.0;
    }
    n_rows as f64 * k as f64 / (card_x as f64 * card_y as f64)
}

/// Exact-cell pair expectation: both the X and Y *values* equal the real
/// ones. Sampling uniformly inside a covering subset contributes `1/K`, so
/// the net per-cell probability collapses back to `1/|D_Y|` and the total
/// to the random baseline `N/(|D_X|·|D_Y|)` — NDs, like FDs, add no exact
/// leakage.
pub fn expected_exact_pair_matches(n_rows: usize, card_x: usize, card_y: usize) -> f64 {
    if card_x == 0 || card_y == 0 {
        return 0.0;
    }
    n_rows as f64 / (card_x as f64 * card_y as f64)
}

/// Hypergeometric expectation of §IV-B: the number of elements shared by
/// the adversary's random `k`-subset and the real `k`-subset of a
/// `|D_Y|`-element domain, `k²/|D_Y|`.
pub fn expected_mapping_hits(k: usize, card_y: usize) -> f64 {
    if card_y == 0 {
        return 0.0;
    }
    (k * k) as f64 / card_y as f64
}

/// The paper's probability of at least one correct mapping element:
/// `1 − C(|D_Y|−K, K)/C(|D_Y|, K)` (the chance a random K-subset misses
/// the real K-subset entirely, complemented).
pub fn prob_any_mapping_hit(k: usize, card_y: usize) -> f64 {
    if k == 0 || card_y == 0 {
        return 0.0;
    }
    if 2 * k > card_y {
        // Subsets larger than half the domain must intersect.
        return 1.0;
    }
    let miss = (super::ln_choose((card_y - k) as u64, k as u64)
        - super::ln_choose(card_y as u64, k as u64))
    .exp();
    1.0 - miss
}

/// The paper's pigeonhole guarantee: when `k > |D_Y|/2`, any two k-subsets
/// of the domain share at least `2k − |D_Y|` elements.
pub fn guaranteed_overlap(k: usize, card_y: usize) -> usize {
    (2 * k).saturating_sub(card_y)
}

/// Exact hypergeometric pmf `P(overlap = j)` between a random k-subset and
/// a fixed k-subset of a `card_y`-element domain.
pub fn overlap_pmf(k: usize, card_y: usize, j: usize) -> f64 {
    if j > k || k > card_y {
        return 0.0;
    }
    let num = choose(k as u64, j as u64) * choose((card_y - k) as u64, (k - j) as u64);
    let den = choose(card_y as u64, k as u64);
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_expectation_formula() {
        // N·K/(|D_X|·|D_Y|) = 1000·4/200 = 20.
        assert!((expected_pair_matches(1000, 4, 10, 20) - 20.0).abs() < 1e-12);
        assert_eq!(expected_pair_matches(10, 2, 0, 5), 0.0);
        // Exact-cell expectation is K-independent: the random baseline.
        assert!((expected_exact_pair_matches(1000, 10, 20) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn k_equals_domain_reduces_to_random() {
        // K = |D_Y| means no constraint: N·K/(|D_X|·|D_Y|) = N/|D_X| —
        // the Y cell is free, only X must match.
        let e = expected_pair_matches(100, 20, 5, 20);
        assert!((e - 20.0).abs() < 1e-12);
    }

    #[test]
    fn mapping_hits_hypergeometric_mean() {
        assert!((expected_mapping_hits(4, 16) - 1.0).abs() < 1e-12);
        // Mean of the pmf equals k²/|D_Y|.
        let (k, d) = (5usize, 12usize);
        let mean: f64 = (0..=k).map(|j| j as f64 * overlap_pmf(k, d, j)).sum();
        assert!((mean - expected_mapping_hits(k, d)).abs() < 1e-9);
    }

    #[test]
    fn pmf_sums_to_one() {
        for (k, d) in [(3usize, 10usize), (5, 8), (1, 1)] {
            let total: f64 = (0..=k).map(|j| overlap_pmf(k, d, j)).sum();
            assert!((total - 1.0).abs() < 1e-9, "k={k} d={d} total={total}");
        }
    }

    #[test]
    fn prob_any_hit_bounds() {
        assert_eq!(prob_any_mapping_hit(0, 10), 0.0);
        assert_eq!(prob_any_mapping_hit(6, 10), 1.0); // pigeonhole
        let p = prob_any_mapping_hit(2, 10);
        // 1 − C(8,2)/C(10,2) = 1 − 28/45.
        assert!((p - (1.0 - 28.0 / 45.0)).abs() < 1e-9);
        // Consistent with the pmf.
        let p_pmf = 1.0 - overlap_pmf(2, 10, 0);
        assert!((p - p_pmf).abs() < 1e-9);
    }

    #[test]
    fn pigeonhole_guarantee() {
        assert_eq!(guaranteed_overlap(6, 10), 2);
        assert_eq!(guaranteed_overlap(5, 10), 0);
        assert_eq!(guaranteed_overlap(10, 10), 10);
    }

    #[test]
    fn monte_carlo_pair_matches_agree() {
        use mp_relation::{Domain, Value};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (n, k, card_x, card_y, rounds) = (600usize, 3usize, 6usize, 12usize, 80usize);
        let dom_x = Domain::categorical((0i64..card_x as i64).collect::<Vec<_>>());
        let dom_y = Domain::categorical((0i64..card_y as i64).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(777);

        // Real data: X uniform; Y drawn from a per-X real k-subset.
        let real_x: Vec<Value> = (0..n)
            .map(|_| Value::Int(rng.gen_range(0..card_x) as i64))
            .collect();
        let real_y: Vec<Value> = real_x
            .iter()
            .map(|v| {
                let base = v.as_i64().unwrap() as usize;
                Value::Int(((base * 2 + rng.gen_range(0..k)) % card_y) as i64)
            })
            .collect();

        let mut total = 0usize;
        for round in 0..rounds {
            let mut rng = StdRng::seed_from_u64(1000 + round as u64);
            let syn_x = mp_synth::DomainPool::new(&dom_x).sample(n, &mut rng);
            let pool_y = mp_synth::DomainPool::new(&dom_y);
            let syn_y = mp_synth::generate_nd_column(&syn_x, &pool_y, k, n, &mut rng);
            total += (0..n)
                .filter(|&i| syn_x.value(i) == real_x[i] && syn_y.value(i) == real_y[i])
                .count();
        }
        let mean = total as f64 / rounds as f64;
        // Exact cell matches follow the K-independent exact expectation.
        let expected = expected_exact_pair_matches(n, card_x, card_y);
        assert!(
            (mean - expected).abs() < 0.35 * expected + 1.0,
            "mean {mean} vs expected {expected}"
        );
        // And the paper's mapping-coverage expectation upper-bounds it.
        assert!(mean <= expected_pair_matches(n, k, card_x, card_y) + 1.0);
    }
}
