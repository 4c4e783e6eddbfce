//! §IV-C — order dependencies.
//!
//! An OD `X → Y` tells the adversary how many ordered partitions the
//! dependent domain splits into (one per distinct determinant value). The
//! adversary draws its own non-decreasing boundary sequence `{y'_i}`; a
//! row in partition `i` is generated correctly only when the generated and
//! real intervals overlap. The paper's per-partition success probability:
//! `θ_{y_i} = max(y_{i+1} − y'_i, 0)/(y_max − y_i)`, and the total
//! expectation `Σ_i N θ_{x_i} θ_{y_i}`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Overlap length of two closed intervals.
pub(crate) fn interval_overlap(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.1.min(b.1) - a.0.max(b.0)).max(0.0)
}

/// The paper's per-partition probability
/// `θ_{y_i} = max(y_{i+1} − y'_i, 0)/(y_max − y_i)`: the chance the value
/// generated for partition `i` (conditioned to lie above the previously
/// generated boundary `y'_i`) lands inside the real interval
/// `[y_i, y_{i+1}]`.
pub fn theta_y(y_prime_i: f64, y_i: f64, y_i1: f64, y_max: f64) -> f64 {
    let denom = y_max - y_i;
    if denom <= 0.0 {
        return 0.0;
    }
    ((y_i1 - y_prime_i.max(y_i)).max(0.0) / denom).min(1.0)
}

/// Expected correctly generated rows given the real partition boundaries
/// `real` (`m+1` sorted values over the domain) and the adversary's
/// boundaries `gen` (same length), with `rows_per_partition[i]` tuples in
/// partition `i` and determinant success probability `theta_x`:
/// `Σ_i N_i · θ_x · overlap_i / range` — the interval-overlap form of the
/// paper's sum `Σ N θ_{x_i} θ_{y_i}`.
pub fn expected_matches(
    real: &[f64],
    gen: &[f64],
    rows_per_partition: &[usize],
    theta_x: f64,
) -> f64 {
    assert_eq!(real.len(), gen.len(), "boundary sequences must align");
    if real.len() < 2 {
        return 0.0;
    }
    let range = real[real.len() - 1] - real[0]; // lint: allow(no-literal-index) reason="guarded by the len() < 2 early return above"
    if range <= 0.0 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..real.len() - 1 {
        let n_i = *rows_per_partition.get(i).unwrap_or(&0) as f64;
        let overlap = interval_overlap((real[i], real[i + 1]), (gen[i], gen[i + 1]));
        total += n_i * theta_x * overlap / range;
    }
    total
}

/// Monte-Carlo estimate of the *expected* total interval overlap between
/// two independent sorted uniform partitions of `[0, range]` into `m`
/// intervals, normalised by the range (∈ [0, 1]). Used by the sweep
/// binaries: the paper argues this is high-variance, hence OD leakage is
/// low.
pub fn expected_overlap_uniform(m: usize, samples: usize, seed: u64) -> f64 {
    if m == 0 || samples == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0.0;
    for _ in 0..samples {
        let a = sorted_boundaries(m, &mut rng);
        let b = sorted_boundaries(m, &mut rng);
        let mut overlap = 0.0;
        for i in 0..m {
            overlap += interval_overlap((a[i], a[i + 1]), (b[i], b[i + 1]));
        }
        acc += overlap; // range is 1
    }
    acc / samples as f64
}

fn sorted_boundaries(m: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut inner: Vec<f64> = (0..m.saturating_sub(1)).map(|_| rng.gen::<f64>()).collect();
    inner.sort_by(f64::total_cmp);
    let mut out = Vec::with_capacity(m + 1);
    out.push(0.0);
    out.extend(inner);
    out.push(1.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_basics() {
        assert_eq!(interval_overlap((0.0, 2.0), (1.0, 3.0)), 1.0);
        assert_eq!(interval_overlap((0.0, 1.0), (2.0, 3.0)), 0.0);
        assert_eq!(interval_overlap((0.0, 5.0), (1.0, 2.0)), 1.0);
        assert_eq!(interval_overlap((1.0, 1.0), (1.0, 1.0)), 0.0);
    }

    #[test]
    fn theta_y_matches_paper_form() {
        // Real interval [2, 5] of a domain ending at 10; generated lower
        // boundary y'_i = 3 → θ = (5 − 3)/(10 − 2) = 0.25.
        assert!((theta_y(3.0, 2.0, 5.0, 10.0) - 0.25).abs() < 1e-12);
        // Disjoint: y'_i above the real interval → zero.
        assert_eq!(theta_y(6.0, 2.0, 5.0, 10.0), 0.0);
        // y'_i below the interval start clamps to the full interval.
        assert!((theta_y(0.0, 2.0, 5.0, 10.0) - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(theta_y(0.0, 5.0, 5.0, 5.0), 0.0);
    }

    #[test]
    fn identical_partitions_give_full_expectation() {
        let bounds = [0.0, 2.0, 5.0, 10.0];
        let rows = [10usize, 10, 10];
        // Perfect boundary knowledge with θ_x = 1: every row's generated
        // interval equals the real one → expectation = Σ N_i·len_i/range.
        let e = expected_matches(&bounds, &bounds, &rows, 1.0);
        let manual = 10.0 * (2.0 / 10.0) + 10.0 * (3.0 / 10.0) + 10.0 * (5.0 / 10.0);
        assert!((e - manual).abs() < 1e-12);
    }

    #[test]
    fn disjoint_partitions_give_zero() {
        let real = [0.0, 1.0, 10.0];
        let gen = [0.0, 9.5, 10.0];
        // Partition 0: real [0,1] vs gen [0,9.5] → overlap 1; partition 1:
        // [1,10] vs [9.5,10] → 0.5.
        let e = expected_matches(&real, &gen, &[5, 5], 1.0);
        assert!((e - (5.0 * 0.1 + 5.0 * 0.05)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(expected_matches(&[1.0], &[1.0], &[], 1.0), 0.0);
        assert_eq!(expected_matches(&[1.0, 1.0], &[1.0, 1.0], &[3], 1.0), 0.0);
        assert_eq!(expected_overlap_uniform(0, 10, 1), 0.0);
    }

    #[test]
    fn uniform_overlap_decreases_with_partitions() {
        // More partitions → more misalignment → less expected overlap.
        let few = expected_overlap_uniform(2, 400, 5);
        let many = expected_overlap_uniform(16, 400, 5);
        assert!(few > many, "few {few} many {many}");
        assert!(few <= 1.0 && many > 0.0);
    }

    #[test]
    fn single_partition_overlaps_fully() {
        // m = 1: both "partitions" are the whole domain.
        let e = expected_overlap_uniform(1, 50, 2);
        assert!((e - 1.0).abs() < 1e-9);
    }
}
