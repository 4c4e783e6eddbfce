//! The order statistics and failure counting the benchmark reports.
//!
//! Kept free of any workload code so the arithmetic is unit-tested on its
//! own: a wrong quartile or percentile would silently corrupt every
//! spread and bound derived from it.

/// Median of `xs` (the mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean of `xs`; `None` when `xs` is empty. Used for peak
/// resident sets, whose per-sample values fall into levels (by input
/// table and by how the threads interleave), so a median jumps between
/// levels from run to run.
pub fn mean(xs: &[f64]) -> Option<f64> {
    match xs.len() {
        0 => None,
        n => Some(xs.iter().sum::<f64>() / n as f64),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads computed here match the
/// ones computed from the printed values. `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest rank (1-based) of the `per_mille`‰ point among `n` samples,
/// in integers so that e.g. p99.9 of 10,000 samples is exactly rank 9,990.
fn nearest_rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000)
}

/// The `per_mille`‰ percentile by nearest rank (900 = p90): the smallest
/// sample with at least that share of the samples at or below it.
pub fn percentile(xs: &[f64], per_mille: usize) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    Some(v[nearest_rank(per_mille, v.len()).clamp(1, v.len()) - 1])
}

/// Percentiles a tail may be reported at, in ‰, lowest first.
const TAIL_LADDER: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank, as (percent,
/// value). `None` when even the median lacks that many (under 20 samples).
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let per_mille = TAIL_LADDER
        .into_iter()
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_MIN_BEYOND)?;
    percentile(xs, per_mille).map(|v| (per_mille as f64 / 10.0, v))
}

/// Operations attempted and failed, where an operation fails when it
/// errors or its output check does not pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
}

impl Outcomes {
    /// Counts one operation; `ok` is false when it failed or was wrong.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_values_and_empty() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[75.0, 95.0, 76.0, 94.0]), Some(85.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the extremes.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), Some(90.0));
        assert_eq!(percentile(&xs, 500), Some(50.0));
        assert_eq!(percentile(&xs, 1000), Some(100.0));
        assert_eq!(percentile(&[5.0], 990), Some(5.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |k: u32| -> Vec<f64> { (1..=k).map(f64::from).collect() };
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(&n(100)), Some((90.0, 90.0)));
        // 99 samples: p90's rank is 90, leaving 9 — fall back to p50.
        assert_eq!(tail_percentile(&n(99)), Some((50.0, 50.0)));
        // 200 samples support p95 (rank 190, 10 beyond).
        assert_eq!(tail_percentile(&n(200)), Some((95.0, 190.0)));
        // 1000 samples support p99; 10,000 support p99.9 (rank 9,990
        // exactly — floating-point 0.999 × 10,000 would round up).
        assert_eq!(tail_percentile(&n(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&n(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail_percentile(&n(19)), None);
        assert_eq!(tail_percentile(&n(20)), Some((50.0, 10.0)));
    }

    #[test]
    fn outcomes_count_failures_against_attempts() {
        let mut o = Outcomes::default();
        assert_eq!(o.error_rate(), 0.0);
        for ok in [true, false, true, true] {
            o.record(ok);
        }
        assert_eq!(
            o,
            Outcomes {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(o.error_rate(), 0.25);
    }
}
