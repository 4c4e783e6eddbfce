//! The attack-evaluation harness behind the paper's §V experiments.
//!
//! Two granularities:
//!
//! * [`run_attack`] — the full pipeline: an [`Adversary`] holding a
//!   metadata package synthesises whole relations, and leakage is measured
//!   per attribute, averaged over seeded rounds.
//! * [`run_cell`] — one table cell of the paper's Tables III/IV: a single
//!   dependent attribute is generated through one dependency (its
//!   determinants generated uniformly from their domains), and exact
//!   matches / MSE against the real column are averaged over rounds. This
//!   isolates the contribution of a single dependency class per attribute,
//!   exactly as the paper's per-row methodology does.

use crate::leakage::{attr_matches_cached, attr_mse, check_shape, RemapCache};
use mp_metadata::{Dependency, MetadataPackage};
use mp_relation::{Column, Domain, Relation, Result};

use mp_synth::{derive_column, determinant_order, Adversary, DomainPool, SynthConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rounds, seeding and the continuous match tolerance.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of seeded generation rounds averaged over ("The MSE is the
    /// mean error over many generation rounds to decrease the variance").
    pub rounds: usize,
    /// Base RNG seed; round `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// ε for continuous-match counting (Definition 2.3).
    pub epsilon: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            base_seed: 0x5EED,
            epsilon: 0.0,
        }
    }
}

impl ExperimentConfig {
    /// The RNG seed for round `round` of *this* experiment:
    /// `base_seed + round` (wrapping), byte-for-byte the derivation the
    /// Tables III/IV goldens were pinned on. Consecutive seeds within one
    /// experiment are harmless; what must never happen is two *different*
    /// experiments (another policy, another dataset) reusing the same
    /// stream — callers running many experiments derive each cell's
    /// `base_seed` through [`crate::seed_for`] first.
    pub(crate) fn round_seed(&self, round: usize) -> u64 {
        self.base_seed.wrapping_add(round as u64)
    }
}

/// Per-attribute outcome, averaged over rounds.
#[derive(Debug, Clone)]
pub struct AttrSummary {
    /// Attribute index.
    pub attr: usize,
    /// Attribute name.
    pub name: String,
    /// Mean index-aligned matches per round (exact for categorical,
    /// ε-matches for continuous).
    pub mean_matches: f64,
    /// Standard deviation of the per-round match count.
    pub std_matches: f64,
    /// Mean MSE per round (continuous attributes only).
    pub mean_mse: Option<f64>,
}

/// Outcome of a multi-round attack.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Per-attribute summaries, in schema order.
    pub per_attr: Vec<AttrSummary>,
    /// Rounds actually run.
    pub rounds: usize,
}

impl AttackResult {
    /// The summary for attribute `attr`.
    pub fn attr(&self, attr: usize) -> Option<&AttrSummary> {
        self.per_attr.iter().find(|s| s.attr == attr)
    }
}

/// Runs the full synthesis attack `config.rounds` times and aggregates
/// per-attribute leakage against `real`.
pub fn run_attack(
    real: &Relation,
    package: &MetadataPackage,
    use_dependencies: bool,
    config: &ExperimentConfig,
) -> Result<AttackResult> {
    let adversary = Adversary::new(package.clone());
    let n = real.n_rows();
    let mut acc: Vec<RoundAccumulator> = (0..real.arity())
        .map(|attr| RoundAccumulator::new(attr, real.schema().attributes()[attr].name.clone()))
        .collect();

    for round in 0..config.rounds {
        let synth_cfg = SynthConfig {
            n_rows: n,
            seed: config.round_seed(round),
            use_dependencies,
        };
        let syn = adversary.synthesize(&synth_cfg)?;
        check_shape(real, &syn)?;
        for (attr, a) in acc.iter_mut().enumerate() {
            a.push_column(real, attr, syn.column(attr)?, config.epsilon)?;
        }
    }
    Ok(AttackResult {
        per_attr: acc.into_iter().map(RoundAccumulator::finish).collect(),
        rounds: config.rounds,
    })
}

/// One cell of the paper's Tables III/IV: generates attribute `attr` of
/// `real` through `dep` (or uniformly from its domain when `None` — the
/// "Random Generation" row) and returns the averaged outcome.
///
/// Determinant attributes are generated uniformly from their shared
/// domains each round, as the paper's generation procedure does before
/// materialising a mapping.
pub fn run_cell(
    real: &Relation,
    domains: &[Domain],
    dep: Option<&Dependency>,
    attr: usize,
    config: &ExperimentConfig,
) -> Result<AttrSummary> {
    let n = real.n_rows();
    let name = real.schema().attribute(attr)?.name.clone();
    let mut acc = RoundAccumulator::new(attr, name);
    let pools: Vec<DomainPool> = domains.iter().map(DomainPool::new).collect();

    for round in 0..config.rounds {
        let mut rng = StdRng::seed_from_u64(config.round_seed(round));
        let syn_col = match dep {
            None => pools[attr].sample(n, &mut rng),
            Some(dep) => {
                // Generate determinants uniformly, then derive.
                let lhs: Vec<Column> = determinant_order(dep)
                    .into_iter()
                    .map(|a| pools[a].sample(n, &mut rng))
                    .collect();
                let lhs: Vec<&Column> = lhs.iter().collect();
                derive_column(dep, &lhs, &pools[attr], n, &mut rng)
            }
        };
        acc.push_column(real, attr, &syn_col, config.epsilon)?;
    }
    Ok(acc.finish())
}

/// Variant of [`run_cell`] where the adversary *knows* the determinant
/// column's real values — the VFL situation where the dependency's LHS is
/// (or is aligned with) the attacking party's own feature. Only the
/// dependent attribute is generated; the mapping/interval machinery runs
/// on the true determinant values.
///
/// This is the strongest position a metadata adversary can be in, and the
/// regime where order metadata visibly localises continuous values (the
/// paper's Table III shows an OD cell dropping well below the random MSE).
pub fn run_cell_with_known_lhs(
    real: &Relation,
    domains: &[Domain],
    dep: &Dependency,
    attr: usize,
    config: &ExperimentConfig,
) -> Result<AttrSummary> {
    let n = real.n_rows();
    let name = real.schema().attribute(attr)?.name.clone();
    let mut acc = RoundAccumulator::new(attr, name);
    let lhs: Vec<&Column> = determinant_order(dep)
        .into_iter()
        .map(|a| real.column(a))
        .collect::<Result<_>>()?;
    let pool = DomainPool::new(&domains[attr]);

    for round in 0..config.rounds {
        let mut rng = StdRng::seed_from_u64(config.round_seed(round));
        let syn_col = derive_column(dep, &lhs, &pool, n, &mut rng);
        acc.push_column(real, attr, &syn_col, config.epsilon)?;
    }
    Ok(acc.finish())
}

/// Accumulates per-round match counts and MSEs for one attribute.
struct RoundAccumulator {
    attr: usize,
    name: String,
    matches: Vec<f64>,
    mses: Vec<f64>,
    remap: RemapCache,
}

impl RoundAccumulator {
    fn new(attr: usize, name: String) -> Self {
        Self {
            attr,
            name,
            matches: Vec::new(),
            mses: Vec::new(),
            remap: RemapCache::default(),
        }
    }

    /// Scores one generated column against `real`'s attribute `attr`
    /// through the leakage kernel, over the rows both columns hold.
    fn push_column(
        &mut self,
        real: &Relation,
        attr: usize,
        syn_col: &Column,
        epsilon: f64,
    ) -> Result<()> {
        let real_col = real.column(attr)?;
        let kind = real.schema().attribute(attr)?.kind;
        let rows = 0..real_col.len().min(syn_col.len());
        let matches = attr_matches_cached(
            real_col,
            syn_col,
            kind,
            epsilon,
            rows.clone(),
            &mut self.remap,
        );
        self.matches.push(matches as f64);
        if let Some(mse) = attr_mse(real_col, syn_col, rows) {
            self.mses.push(mse);
        }
        Ok(())
    }

    fn finish(self) -> AttrSummary {
        let n = self.matches.len().max(1) as f64;
        let mean = self.matches.iter().sum::<f64>() / n;
        let var = self
            .matches
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / n;
        let mean_mse = if self.mses.is_empty() {
            None
        } else {
            Some(self.mses.iter().sum::<f64>() / self.mses.len() as f64)
        };
        AttrSummary {
            attr: self.attr,
            name: self.name,
            mean_matches: mean,
            std_matches: var.sqrt(),
            mean_mse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datasets::{employee, employee_attrs as ea};
    use mp_metadata::{Fd, MetadataPackage};

    fn config(rounds: usize) -> ExperimentConfig {
        ExperimentConfig {
            rounds,
            base_seed: 7,
            epsilon: 0.0,
        }
    }

    #[test]
    fn random_attack_matches_n_over_domain() {
        // Department has 3 values, N = 4: expected matches 4/3 ≈ 1.33 —
        // the paper's Example 3.1.
        let real = employee();
        let pkg = MetadataPackage::describe("a", &real, vec![]).unwrap();
        let result = run_attack(&real, &pkg, false, &config(800)).unwrap();
        let dept = result.attr(ea::DEPARTMENT).unwrap();
        assert!(
            (dept.mean_matches - 4.0 / 3.0).abs() < 0.15,
            "mean {} vs 4/3",
            dept.mean_matches
        );
    }

    #[test]
    fn fd_attack_close_to_random_attack() {
        // The paper's §III-B conclusion: FD-driven generation leaks no more
        // than random generation on the dependent attribute.
        let real = employee();
        let pkg_rand = MetadataPackage::describe("a", &real, vec![]).unwrap();
        let pkg_fd =
            MetadataPackage::describe("a", &real, vec![Fd::new(ea::NAME, ea::DEPARTMENT).into()])
                .unwrap();
        let rand = run_attack(&real, &pkg_rand, false, &config(600)).unwrap();
        let fd = run_attack(&real, &pkg_fd, true, &config(600)).unwrap();
        let (r, f) = (
            rand.attr(ea::DEPARTMENT).unwrap().mean_matches,
            fd.attr(ea::DEPARTMENT).unwrap().mean_matches,
        );
        assert!((r - f).abs() < 0.35, "random {r} vs fd {f}");
    }

    #[test]
    fn run_attack_rejects_a_package_of_another_arity() {
        // The package describes 4 attributes, the measured relation 2: a
        // typed error, not a score over the first two.
        let wide = employee();
        let narrow = wide.project(&[0, 1]).unwrap();
        let pkg = MetadataPackage::describe("a", &wide, vec![]).unwrap();
        let err = run_attack(&narrow, &pkg, false, &config(2)).unwrap_err();
        assert_eq!(
            err,
            mp_relation::RelationError::ArityMismatch {
                expected: 2,
                got: wide.arity()
            }
        );
    }

    #[test]
    fn run_cell_random_baseline() {
        let real = employee();
        let domains = Domain::infer_all(&real).unwrap();
        let cell = run_cell(&real, &domains, None, ea::DEPARTMENT, &config(800)).unwrap();
        assert!((cell.mean_matches - 4.0 / 3.0).abs() < 0.15);
        assert!(cell.mean_mse.is_none());
        assert!(cell.std_matches > 0.0);
    }

    #[test]
    fn run_cell_continuous_reports_mse() {
        let real = employee();
        let domains = Domain::infer_all(&real).unwrap();
        let cell = run_cell(&real, &domains, None, ea::SALARY, &config(200)).unwrap();
        let mse = cell.mean_mse.expect("salary is continuous");
        // Uniform-vs-data MSE is on the order of range²/6 = 15000²/6.
        let scale = 15_000.0f64 * 15_000.0 / 6.0;
        assert!(mse > 0.2 * scale && mse < 3.0 * scale, "mse {mse}");
    }

    #[test]
    fn run_cell_with_dependency_generates_validly() {
        let real = employee();
        let domains = Domain::infer_all(&real).unwrap();
        let dep: Dependency = Fd::new(ea::NAME, ea::AGE).into();
        let cell = run_cell(&real, &domains, Some(&dep), ea::AGE, &config(100)).unwrap();
        assert!(cell.mean_matches >= 0.0);
        assert_eq!(cell.attr, ea::AGE);
    }

    #[test]
    fn deterministic_given_seed() {
        let real = employee();
        let pkg = MetadataPackage::describe("a", &real, vec![]).unwrap();
        let a = run_attack(&real, &pkg, false, &config(30)).unwrap();
        let b = run_attack(&real, &pkg, false, &config(30)).unwrap();
        assert_eq!(
            a.attr(0).unwrap().mean_matches,
            b.attr(0).unwrap().mean_matches
        );
    }

    #[test]
    fn zero_rounds_is_harmless() {
        let real = employee();
        let pkg = MetadataPackage::describe("a", &real, vec![]).unwrap();
        let r = run_attack(&real, &pkg, false, &config(0)).unwrap();
        assert_eq!(r.rounds, 0);
        assert_eq!(r.per_attr[0].mean_matches, 0.0);
    }
}
