//! §III-B (functional dependencies) and §IV-A (approximate FDs).
//!
//! Sharing the FD `A → B` lets the adversary initialise one mapping for
//! the whole dataset, but the paper shows the *total* expected number of
//! correctly generated (A, B) cells is the same as random generation:
//! `N·θ_A·θ_B`. What changes is the error *structure*: a correct mapping
//! is correct on every tuple of its partition, an incorrect one never is —
//! whereas random generation scatters hits uniformly. AFDs add a `g3`
//! budget ε whose violating fraction behaves like random generation and
//! whose remaining `1 − ε` behaves like the FD, leaving the total
//! unchanged again.

/// The paper's `E(B|A) = |D_A|/|D_B|`: expected number of *correct mapping
/// entries* when each of the `|D_A|` determinant values independently
/// picks its image uniformly from `|D_B|` values. Since the FD `A → B`
/// implies `|D_A| ≥ |D_B|`, this is ≥ 1 — at least one mapping entry is
/// expected to be correct.
pub fn expected_correct_mappings(card_a: usize, card_b: usize) -> f64 {
    if card_b == 0 {
        return 0.0;
    }
    card_a as f64 / card_b as f64
}

/// Expected number of tuples where both A and B are generated correctly:
/// `N·θ_A·θ_B = N/(|D_A|·|D_B|)` — identical to independent random
/// generation (the paper's headline FD result).
pub fn expected_pair_matches(n_rows: usize, card_a: usize, card_b: usize) -> f64 {
    if card_a == 0 || card_b == 0 {
        return 0.0;
    }
    n_rows as f64 / (card_a as f64 * card_b as f64)
}

/// Expected number of tuples whose *B cell alone* is generated correctly
/// under FD-driven generation, assuming uniform partitions: each
/// determinant partition (N/|D_A| tuples) is all-correct with probability
/// `1/|D_B|`, giving `N/|D_B|` — again equal to random generation of B.
pub fn expected_rhs_matches(n_rows: usize, card_b: usize) -> f64 {
    if card_b == 0 {
        return 0.0;
    }
    n_rows as f64 / card_b as f64
}

/// Variance of the RHS match count under FD-driven generation with uniform
/// partitions of size `N/|D_A|`: block-correlated Bernoulli — the whole
/// block of `s = N/|D_A|` tuples is right or wrong together, so
/// `Var = |D_A| · s² · p(1−p)` with `p = 1/|D_B|`. This exceeds the random
/// baseline's `N·p(1−p)` by the factor `s`, which is the paper's
/// "a correct mapping is always correct" observation made quantitative.
pub fn rhs_match_variance(n_rows: usize, card_a: usize, card_b: usize) -> f64 {
    if card_a == 0 || card_b == 0 {
        return 0.0;
    }
    let s = n_rows as f64 / card_a as f64;
    let p = 1.0 / card_b as f64;
    card_a as f64 * s * s * p * (1.0 - p)
}

/// §IV-A: the AFD split of expected pair matches into the structured
/// (mapping-driven, `1 − ε`) and scattered (random, `ε`) parts. They sum to
/// the FD/random total.
pub fn afd_split(n_rows: usize, epsilon: f64, card_a: usize, card_b: usize) -> (f64, f64) {
    let total = expected_pair_matches(n_rows, card_a, card_b);
    (total * (1.0 - epsilon), total * epsilon)
}

/// §III-B transitivity: a chain `A → B → C` generates B from A's mapping
/// and C from B's mapping independently; the expected triple-correct count
/// is `N/(|D_A|·|D_B|·|D_C|)` — still the random baseline.
pub fn expected_chain_matches(n_rows: usize, cards: &[usize]) -> f64 {
    if cards.contains(&0) {
        return 0.0;
    }
    n_rows as f64 / cards.iter().map(|&c| c as f64).product::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_guarantees_one_mapping() {
        // |D_A| ≥ |D_B| under an FD ⇒ E(B|A) ≥ 1 (the paper's point).
        assert!(expected_correct_mappings(10, 5) >= 1.0);
        assert_eq!(expected_correct_mappings(6, 6), 1.0);
        assert_eq!(expected_correct_mappings(4, 0), 0.0);
    }

    #[test]
    fn fd_total_equals_random_total() {
        let n = 1000;
        let (a, b) = (20, 5);
        let fd = expected_pair_matches(n, a, b);
        let random = n as f64 * (1.0 / a as f64) * (1.0 / b as f64);
        assert!((fd - random).abs() < 1e-12);
    }

    #[test]
    fn afd_split_sums_to_total() {
        let (structured, scattered) = afd_split(500, 0.2, 10, 4);
        let total = expected_pair_matches(500, 10, 4);
        assert!((structured + scattered - total).abs() < 1e-12);
        assert!((scattered / total - 0.2).abs() < 1e-12);
    }

    #[test]
    fn chain_extends_product() {
        assert!((expected_chain_matches(1200, &[10, 6, 2]) - 10.0).abs() < 1e-12);
        assert_eq!(expected_chain_matches(100, &[5, 0]), 0.0);
    }

    #[test]
    fn variance_blowup_factor_is_partition_size() {
        let n = 1000;
        let (a, b) = (50, 10);
        let fd_var = rhs_match_variance(n, a, b);
        let random_var = n as f64 * (1.0 / b as f64) * (1.0 - 1.0 / b as f64);
        let s = n as f64 / a as f64;
        assert!((fd_var / random_var - s).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_rhs_matches_agree() {
        use mp_relation::{Column, Domain, Value};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Real data: uniform A (card 10) with a true mapping to B (card 5).
        let (card_a, card_b, n, rounds) = (10usize, 5usize, 500usize, 60usize);
        let dom_b = Domain::categorical((0i64..card_b as i64).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(4242);
        let real_a: Vec<Value> = (0..n).map(|i| Value::Int((i % card_a) as i64)).collect();
        let real_b: Vec<Value> = real_a
            .iter()
            .map(|v| Value::Int(v.as_i64().unwrap() % card_b as i64))
            .collect();

        // FD-driven generation: adversary generates B via a random mapping
        // keyed on the REAL A (so only the B-cell correctness is at play).
        let real_a: Column = real_a.into_iter().collect();
        let pool_b = mp_synth::DomainPool::new(&dom_b);
        let mut total = 0usize;
        for _ in 0..rounds {
            let syn_b = mp_synth::generate_fd_column(&[&real_a], &pool_b, n, &mut rng);
            total += real_b
                .iter()
                .zip(syn_b.iter())
                .filter(|(x, y)| x.as_value_ref() == *y)
                .count();
        }
        let mean = total as f64 / rounds as f64;
        let expected = expected_rhs_matches(n, card_b);
        // Block-correlated variance makes per-round spread large; the mean
        // over rounds should still approach N/|D_B| = 100.
        assert!(
            (mean - expected).abs() < 0.25 * expected,
            "mean {mean} vs expected {expected}"
        );
    }
}
