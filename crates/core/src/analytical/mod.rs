//! Analytical expected-leakage models — the paper's §III and §IV
//! derivations, one module per metadata level.
//!
//! Each function implements a formula exactly where the paper states one,
//! with the section cited in its doc comment. Tests cross-validate every
//! model against Monte-Carlo runs of the corresponding generator in
//! `mp-synth` (see `crates/core/tests` and the sweep binaries in
//! `mp-bench`).

pub mod cfd;
pub mod dd;
pub mod distribution;
pub mod fd;
pub mod nd;
pub mod od;
pub mod ofd;
pub mod random;

/// Natural log of the binomial coefficient `C(n, k)`, stable for large
/// arguments. Returns `f64::NEG_INFINITY` when `k > n`.
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    let mut acc = 0.0;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

/// `C(n, k)` as an `f64` (may be `inf` for huge arguments; exact enough for
/// probability ratios).
pub(crate) fn choose(n: u64, k: u64) -> f64 {
    ln_choose(n, k).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_small_values() {
        assert_eq!(choose(5, 2).round(), 10.0);
        assert_eq!(choose(10, 0).round(), 1.0);
        assert_eq!(choose(10, 10).round(), 1.0);
        assert_eq!(choose(3, 5), 0.0);
    }

    #[test]
    fn choose_large_values_stable() {
        // C(1000, 500) overflows u128 but ln_choose stays finite.
        let ln = ln_choose(1000, 500);
        assert!(ln.is_finite());
        assert!((ln - 689.467).abs() < 0.01); // known value ≈ e^689.47
    }

    #[test]
    fn symmetry() {
        for n in [7u64, 20, 63] {
            for k in 0..=n {
                assert!((ln_choose(n, k) - ln_choose(n, n - k)).abs() < 1e-9);
            }
        }
    }
}
