//! Analytical-vs-empirical sweeps: one per in-text derivation of the
//! paper's §III/§IV (experiment ids A1–A7 in DESIGN.md §5).
//!
//! Each sweep pits the closed-form expectation from
//! `mp_core::analytical` against Monte-Carlo runs of the corresponding
//! `mp_synth` generator and prints the series side by side.

use mp_core::{analytical, attr_matches, TextTable};
use mp_relation::{AttrKind, Column, Domain, Value};
use mp_synth::DomainPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows where both synthetic columns equal their real counterparts.
fn pair_matches(sx: &Column, sy: &Column, real_x: &Column, real_y: &Column) -> usize {
    (0..sx.len())
        .filter(|&i| {
            sx.value_ref(i) == real_x.value_ref(i) && sy.value_ref(i) == real_y.value_ref(i)
        })
        .count()
}

fn mean_matches<F>(rounds: usize, mut one_round: F) -> f64
where
    F: FnMut(u64) -> usize,
{
    (0..rounds).map(|r| one_round(r as u64)).sum::<usize>() as f64 / rounds as f64
}

/// A1 (§III-A): expected random-generation matches `N·θ` over a domain
/// cardinality sweep, with the `N·θ ≥ 1` leakage frontier.
pub fn sweep_random(n: usize, rounds: usize) -> String {
    let mut t = TextTable::new(vec![
        "|D|".into(),
        "θ = 1/|D|".into(),
        "analytic N·θ".into(),
        "empirical".into(),
        "leaks (N·θ ≥ 1)".into(),
    ]);
    for card in [2usize, 3, 4, 8, 16, 64, 256, 1024] {
        let dom = Domain::categorical((0..card as i64).collect::<Vec<_>>());
        let theta = dom.theta(0.0);
        let pool = DomainPool::new(&dom);
        let empirical = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let real = pool.sample(n, &mut rng);
            let syn = pool.sample(n, &mut rng);
            attr_matches(&real, &syn, AttrKind::Categorical, 0.0, 0..n)
        });
        t.push_row(vec![
            card.to_string(),
            format!("{theta:.4}"),
            format!("{:.2}", analytical::random::expected_matches(n, theta)),
            format!("{empirical:.2}"),
            analytical::random::leaks(n, theta).to_string(),
        ]);
    }
    format!(
        "A1 §III-A random generation (N = {n}, {rounds} rounds)\n{}",
        t.render()
    )
}

/// Seed of a sweep's real columns. Round `r` seeds `r` (or `r + 5000`): a
/// small constant seed would make one round regenerate the real X.
fn real_seed(sweep: &str) -> u64 {
    mp_core::seed_for("sweeps", "real", sweep, 0)
}

/// Real data for the FD/AFD sweeps: X uniform over `card_x`, Y a true
/// mapping of X into `card_y`.
fn mapped_real(n: usize, card_x: usize, card_y: usize, seed: u64) -> (Column, Column) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = ints_to(card_x).sample(n, &mut rng);
    let y = x
        .iter()
        .map(|v| Value::Int(v.to_value().as_i64().unwrap() % card_y as i64))
        .collect();
    (x, y)
}

/// The pool of the integer domain `0..card`.
fn ints_to(card: usize) -> DomainPool {
    DomainPool::new(&Domain::categorical((0..card as i64).collect::<Vec<_>>()))
}

/// A2 (§III-B): FD-driven pair generation vs the random baseline over a
/// determinant-cardinality sweep — the two series must coincide.
pub fn sweep_fd(n: usize, rounds: usize) -> String {
    let card_y = 5usize;
    let mut t = TextTable::new(vec![
        "|D_A|".into(),
        "analytic N/(|D_A||D_B|)".into(),
        "FD-driven empirical".into(),
        "random empirical".into(),
    ]);
    for card_x in [5usize, 10, 20, 40] {
        let (real_x, real_y) = mapped_real(n, card_x, card_y, real_seed("A2"));
        let (dom_x, dom_y) = (ints_to(card_x), ints_to(card_y));
        let fd_emp = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let sx = dom_x.sample(n, &mut rng);
            let sy = mp_synth::generate_fd_column(&[&sx], &dom_y, n, &mut rng);
            pair_matches(&sx, &sy, &real_x, &real_y)
        });
        let rand_emp = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed + 5000);
            let sx = dom_x.sample(n, &mut rng);
            let sy = dom_y.sample(n, &mut rng);
            pair_matches(&sx, &sy, &real_x, &real_y)
        });
        t.push_row(vec![
            card_x.to_string(),
            format!(
                "{:.2}",
                analytical::fd::expected_pair_matches(n, card_x, card_y)
            ),
            format!("{fd_emp:.2}"),
            format!("{rand_emp:.2}"),
        ]);
    }
    format!(
        "A2 §III-B FD vs random (N = {n}, |D_B| = {card_y}, {rounds} rounds)\n{}",
        t.render()
    )
}

/// Seed of A3's round `round` in the ε row labelled `eps`: each row draws
/// rounds of its own, so the rows are independent estimates rather than
/// one sample read six times.
fn afd_round_seed(eps: &str, round: u64) -> u64 {
    mp_core::seed_for("sweeps", "A3", eps, round)
}

/// A3 (§IV-A): AFD sweep over the g3 budget ε — totals stay at the FD/
/// random level for every ε.
pub fn sweep_afd(n: usize, rounds: usize) -> String {
    let (card_x, card_y) = (10usize, 5usize);
    let (real_x, real_y) = mapped_real(n, card_x, card_y, real_seed("A3"));
    let (dom_x, dom_y) = (ints_to(card_x), ints_to(card_y));
    let mut t = TextTable::new(vec![
        "ε (g3)".into(),
        "analytic total".into(),
        "empirical".into(),
        "structured part".into(),
        "scattered part".into(),
    ]);
    for eps in [0.0, 0.05, 0.1, 0.2, 0.35, 0.5] {
        let label = format!("{eps:.2}");
        let emp = mean_matches(rounds, |round| {
            let mut rng = StdRng::seed_from_u64(afd_round_seed(&label, round));
            let sx = dom_x.sample(n, &mut rng);
            let sy = mp_synth::generate_afd_column(&[&sx], &dom_y, eps, n, &mut rng);
            pair_matches(&sx, &sy, &real_x, &real_y)
        });
        let (structured, scattered) = analytical::fd::afd_split(n, eps, card_x, card_y);
        t.push_row(vec![
            label,
            format!("{:.2}", structured + scattered),
            format!("{emp:.2}"),
            format!("{structured:.2}"),
            format!("{scattered:.2}"),
        ]);
    }
    format!(
        "A3 §IV-A AFD ε sweep (N = {n}, {rounds} rounds)\n{}",
        t.render()
    )
}

/// A4 (§IV-B): ND sweep over K — exact-cell totals are K-independent
/// (random level) while the paper's mapping-coverage expectation grows
/// with K; includes the hypergeometric any-hit probability.
pub fn sweep_nd(n: usize, rounds: usize) -> String {
    let (card_x, card_y) = (8usize, 16usize);
    let mut t = TextTable::new(vec![
        "K".into(),
        "paper N·K/(|Dx||Dy|)".into(),
        "exact analytic".into(),
        "exact empirical".into(),
        "P(any mapping hit)".into(),
        "guaranteed overlap".into(),
    ]);
    for k in [1usize, 2, 4, 8, 12, 16] {
        let mut rng = StdRng::seed_from_u64(13);
        let (dom_x, dom_y) = (ints_to(card_x), ints_to(card_y));
        let real_x = dom_x.sample(n, &mut rng);
        let real_y = mp_synth::generate_nd_column(&real_x, &dom_y, k, n, &mut rng);
        let emp = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed + 31);
            let sx = dom_x.sample(n, &mut rng);
            let sy = mp_synth::generate_nd_column(&sx, &dom_y, k, n, &mut rng);
            pair_matches(&sx, &sy, &real_x, &real_y)
        });
        t.push_row(vec![
            k.to_string(),
            format!(
                "{:.2}",
                analytical::nd::expected_pair_matches(n, k, card_x, card_y)
            ),
            format!(
                "{:.2}",
                analytical::nd::expected_exact_pair_matches(n, card_x, card_y)
            ),
            format!("{emp:.2}"),
            format!("{:.3}", analytical::nd::prob_any_mapping_hit(k, card_y)),
            analytical::nd::guaranteed_overlap(k, card_y).to_string(),
        ]);
    }
    format!(
        "A4 §IV-B ND K sweep (N = {n}, |Dx| = {card_x}, |Dy| = {card_y}, {rounds} rounds)\n{}",
        t.render()
    )
}

/// A5 (§IV-C): OD partition-count sweep — expected interval overlap (and
/// with it the leakage) shrinks as the partition count grows, the paper's
/// "high variance ⇒ low leakage" argument.
pub fn sweep_od(samples: usize) -> String {
    let mut t = TextTable::new(vec!["partitions m".into(), "E[overlap]/range (MC)".into()]);
    for m in [1usize, 2, 4, 8, 16, 32, 64] {
        let overlap = analytical::od::expected_overlap_uniform(m, samples, 17);
        t.push_row(vec![m.to_string(), format!("{overlap:.4}")]);
    }
    format!(
        "A5 §IV-C OD interval-overlap sweep ({samples} MC samples)\n{}",
        t.render()
    )
}

/// A6 (§IV-D): DD ε sweep — leakage grows roughly quadratically in ε_y
/// and stays near the pair-level random baseline.
pub fn sweep_dd(n: usize, rounds: usize) -> String {
    let (range_x, range_y) = (100.0, 50.0);
    let mut t = TextTable::new(vec![
        "ε".into(),
        "analytic".into(),
        "empirical".into(),
        "random-pair baseline".into(),
    ]);
    for eps in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let dom_x = DomainPool::new(&Domain::continuous(0.0, range_x));
        let dom_y = DomainPool::new(&Domain::continuous(0.0, range_y));
        let mut rng = StdRng::seed_from_u64(19);
        let real_x = dom_x.sample(n, &mut rng);
        let real_y = mp_synth::generate_dd_column(&real_x, &dom_y, eps, eps, n, &mut rng);
        let emp = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed + 77);
            let sx = dom_x.sample(n, &mut rng);
            let sy = mp_synth::generate_dd_column(&sx, &dom_y, eps, eps, n, &mut rng);
            let close = |a: &Column, b: &Column, i| {
                (a.f64_at(i).unwrap() - b.f64_at(i).unwrap()).abs() <= eps
            };
            (0..n)
                .filter(|&i| close(&sx, &real_x, i) && close(&sy, &real_y, i))
                .count()
        });
        let analytic = analytical::dd::expected_matches(n, eps, range_x, eps, range_y);
        let baseline = n as f64
            * analytical::dd::theta_ball(eps, range_x)
            * analytical::dd::theta_ball(eps, range_y);
        t.push_row(vec![
            format!("{eps:.1}"),
            format!("{analytic:.2}"),
            format!("{emp:.2}"),
            format!("{baseline:.2}"),
        ]);
    }
    format!(
        "A6 §IV-D DD ε sweep (N = {n}, ranges {range_x}/{range_y}, {rounds} rounds)\n{}",
        t.render()
    )
}

/// A7 (§IV-E): OFD sweep over the codomain size — transition
/// probabilities, whole-mapping probability, and the empirical
/// mapping-position agreement of the random-walk generator.
pub fn sweep_ofd(rounds: usize) -> String {
    let m = 6usize;
    let mut t = TextTable::new(vec![
        "|D_Y|".into(),
        "P_{i,i+1}(t=0)".into(),
        "P(whole mapping)".into(),
        "E positions hit (analytic)".into(),
        "empirical".into(),
    ]);
    for card_y in [6usize, 8, 12, 24, 48] {
        let dom = ints_to(card_y);
        let lhs: Column = (0..m * 20).map(|i| Value::Int((i % m) as i64)).collect();
        // Real mapping: i ↦ i·(card_y/m) — strictly increasing.
        let stride = (card_y / m).max(1) as i64;
        let real: Column = (0..m * 20)
            .map(|i| Value::Int((i % m) as i64 * stride))
            .collect();
        let emp = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let syn = mp_synth::generate_ofd_column(&lhs, &dom, lhs.len(), &mut rng);
            // Score the m mapping positions (rows 0..m enumerate X once).
            attr_matches(&real, &syn, AttrKind::Categorical, 0.0, 0..m)
        });
        t.push_row(vec![
            card_y.to_string(),
            format!(
                "{:.3}",
                analytical::ofd::transition_probability(m, card_y, 0)
            ),
            format!(
                "{:.5}",
                analytical::ofd::whole_mapping_probability(m, card_y)
            ),
            format!(
                "{:.3}",
                analytical::ofd::expected_matches(m, 1.0, m, card_y)
            ),
            format!("{emp:.3}"),
        ]);
    }
    format!(
        "A7 §IV-E OFD codomain sweep (|X| = {m}, {rounds} rounds)\n{}",
        t.render()
    )
}

/// A9 (extension): constant-CFD support sweep — the flood strategy beats
/// the random baseline exactly when `s > N/|D_Y|`, making CFDs the one
/// dependency class that leaks beyond the domain level.
pub fn sweep_cfd(n: usize, rounds: usize) -> String {
    use mp_metadata::ConditionalFd;
    let (card_x, card_y) = (4usize, 8usize);
    let (dom_x, dom_y) = (ints_to(card_x), ints_to(card_y));
    let mut t = TextTable::new(vec![
        "support s".into(),
        "random baseline N/|Dy|".into(),
        "pattern-strategy empirical".into(),
        "flood bound s".into(),
        "amplification s·|Dy|/N".into(),
        "leaks more?".into(),
    ]);
    for target_support in [n / 20, n / 10, n / 4, n / 2] {
        // Real data: exactly `target_support` rows have X = 0, Y = 7; the
        // rest are uniform with X ≠ 0 and Y ≠ 7.
        let mut rng = StdRng::seed_from_u64(3);
        let mut real_x: Vec<Value> = Vec::with_capacity(n);
        let mut real_y: Vec<Value> = Vec::with_capacity(n);
        for i in 0..n {
            if i < target_support {
                real_x.push(Value::Int(0));
                real_y.push(Value::Int(7));
            } else {
                real_x.push(Value::Int(rng.gen_range(1..card_x) as i64));
                real_y.push(Value::Int(rng.gen_range(0..card_y - 1) as i64));
            }
        }
        let real_y: Column = real_y.into_iter().collect();
        let cfd = ConditionalFd::constant(0, 0i64, 1, 7i64);
        let emp = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed + 19);
            let sx = dom_x.sample(n, &mut rng);
            let sy = mp_synth::generate_cfd_column(&cfd, &[&sx], &dom_y, n, &mut rng);
            attr_matches(&real_y, &sy, AttrKind::Categorical, 0.0, 0..n)
        });
        t.push_row(vec![
            target_support.to_string(),
            format!("{:.1}", n as f64 / card_y as f64),
            format!("{emp:.1}"),
            format!(
                "{:.1}",
                analytical::cfd::flood_strategy_hits(target_support)
            ),
            format!(
                "{:.2}",
                analytical::cfd::flood_amplification(n, target_support, card_y)
            ),
            analytical::cfd::leaks_more_than_random(n, target_support, card_y).to_string(),
        ]);
    }
    format!(
        "A9 extension: constant-CFD support sweep (N = {n}, |Dx| = {card_x}, |Dy| = {card_y}, {rounds} rounds)\n{}",
        t.render()
    )
}

/// A10 (extension): domain-generalization sweep — widening shared
/// continuous ranges divides the ε-hit rate by the widening factor.
pub fn sweep_defense(n: usize, rounds: usize) -> String {
    let range = 100.0;
    let eps = 1.0;
    let dom = Domain::continuous(0.0, range);
    let mut rng = StdRng::seed_from_u64(8);
    let real = DomainPool::new(&dom).sample(n, &mut rng);
    let mut t = TextTable::new(vec![
        "widen factor".into(),
        "analytic N·2ε/range'".into(),
        "empirical".into(),
    ]);
    for widen in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let g = mp_metadata::DomainGeneralization {
            widen,
            snap: 0.0,
            suppress_below: 0,
        };
        let shared = g.apply_domain(&dom, None);
        let pool = DomainPool::new(&shared);
        let emp = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed + 41);
            let syn = pool.sample(n, &mut rng);
            attr_matches(&real, &syn, AttrKind::Continuous, eps, 0..n)
        });
        let analytic = n as f64 * 2.0 * eps / shared.range().unwrap();
        t.push_row(vec![
            format!("×{widen}"),
            format!("{analytic:.2}"),
            format!("{emp:.2}"),
        ]);
    }
    format!(
        "A10 extension: domain-generalization sweep (N = {n}, ε = {eps}, base range {range}, {rounds} rounds)\n{}",
        t.render()
    )
}

/// A12 (extension): distribution-sharing sweep — the per-cell match rate
/// is the collision probability `Σp²`, strictly above the paper's uniform
/// `1/|D|` for skewed data. Skew is parameterised by Zipf-like weights.
pub fn sweep_distribution(n: usize, rounds: usize) -> String {
    use mp_metadata::Distribution;
    let card = 8usize;
    let mut t = TextTable::new(vec![
        "skew".into(),
        "Σp²".into(),
        "effective |D|".into(),
        "analytic N·Σp²".into(),
        "empirical".into(),
        "uniform-domain baseline".into(),
    ]);
    for skew in [0.0f64, 0.5, 1.0, 1.5, 2.0] {
        let weights: Vec<f64> = (1..=card).map(|r| 1.0 / (r as f64).powf(skew)).collect();
        let total: f64 = weights.iter().sum();
        let dist = Distribution::Categorical(
            weights
                .iter()
                .enumerate()
                .map(|(i, w)| (Value::Int(i as i64), w / total))
                .collect(),
        );
        let emp = mean_matches(rounds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed + 91);
            let real = mp_synth::sample_distribution(&dist, n, &mut rng);
            let syn = mp_synth::sample_distribution(&dist, n, &mut rng);
            attr_matches(&real, &syn, AttrKind::Categorical, 0.0, 0..n)
        });
        t.push_row(vec![
            format!("{skew:.1}"),
            format!("{:.4}", dist.collision_probability()),
            format!("{:.2}", dist.effective_cardinality()),
            format!(
                "{:.2}",
                analytical::distribution::expected_matches(n, &dist)
            ),
            format!("{emp:.2}"),
            format!("{:.2}", analytical::distribution::uniform_baseline(n, card)),
        ]);
    }
    format!(
        "A12 extension: distribution-sharing sweep (N = {n}, |D| = {card}, {rounds} rounds)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sweeps_render() {
        for s in [
            sweep_random(500, 5),
            sweep_fd(500, 5),
            sweep_afd(500, 5),
            sweep_nd(400, 5),
            sweep_od(50),
            sweep_dd(300, 5),
            sweep_ofd(10),
            sweep_cfd(400, 5),
            sweep_defense(400, 5),
            sweep_distribution(400, 5),
        ] {
            assert!(s.lines().count() > 5, "sweep too short:\n{s}");
            assert!(s.contains("§") || s.contains("extension"), "missing tag");
        }
    }

    #[test]
    fn real_columns_seed_no_round_draws() {
        // `repro` runs 200 rounds; A2 seeds `r` and `r + 5000`.
        let seed = real_seed("A2");
        assert!((0..200).all(|r| seed != r && seed != r + 5000));
    }

    #[test]
    fn afd_rows_draw_independent_rounds() {
        // No two ε rows share a round seed, and no round re-draws the
        // real columns.
        let mut seeds = std::collections::BTreeSet::new();
        for eps in ["0.00", "0.05", "0.10", "0.20", "0.35", "0.50"] {
            for round in 0..200 {
                assert!(
                    seeds.insert(afd_round_seed(eps, round)),
                    "{eps} round {round}"
                );
            }
        }
        assert!(!seeds.contains(&real_seed("A3")));
    }

    #[test]
    fn sweep_fd_series_coincide() {
        // Parse nothing — recompute the invariant directly: FD analytic
        // equals the random analytic at every sweep point.
        for card_x in [5usize, 10, 20, 40] {
            let a = analytical::fd::expected_pair_matches(1000, card_x, 5);
            let r = 1000.0 / (card_x as f64 * 5.0);
            assert!((a - r).abs() < 1e-12);
        }
    }
}
