//! The metadata adversary: reconstructs a synthetic relation `R_syn` from
//! a shared [`MetadataPackage`].
//!
//! This is the attack model of the paper's §II-B: *"When party A
//! communicates its metadata with party B, there arises a possibility that
//! party B might use this metadata to construct a synthetic dataset,
//! essentially an inferred approximation of A's real dataset."* The
//! adversary builds the dependency graph from the shared dependencies,
//! plans a generation order ([`mp_metadata::DependencyGraph::plan`]), and
//! produces each attribute either independently from its shared domain or
//! through the mapping/interval generator of its driving dependency.

use crate::cfd_gen::generate_cfd_column;
use crate::interval::{generate_dd_column, generate_od_column};
use crate::mapping::{
    generate_afd_column, generate_fd_column, generate_nd_column, generate_ofd_column,
};
use crate::pool::{null_column, sample_distribution, DomainPool};
use mp_metadata::{Dependency, MetadataPackage, PlanStep};
use mp_relation::{AttrKind, Attribute, Column, Domain, Relation, Result, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for the synthesis attack.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of tuples to generate. In VFL the intersection size is known
    /// to both parties after PSI, so the adversary uses the true N.
    pub n_rows: usize,
    /// RNG seed; experiments average over many seeds.
    pub seed: u64,
    /// Use shared dependencies for generation. With `false` the adversary
    /// ignores them — the paper's "Random Generation" baseline.
    pub use_dependencies: bool,
}

impl SynthConfig {
    /// Random-generation baseline (§III-A): domains only.
    pub fn random_baseline(n_rows: usize, seed: u64) -> Self {
        Self {
            n_rows,
            seed,
            use_dependencies: false,
        }
    }

    /// Dependency-driven attack (§III-B/§IV).
    pub fn with_dependencies(n_rows: usize, seed: u64) -> Self {
        Self {
            n_rows,
            seed,
            use_dependencies: true,
        }
    }
}

/// The adversary.
#[derive(Debug, Clone)]
pub struct Adversary {
    package: MetadataPackage,
    plan: Vec<PlanStep>,
    /// Each attribute's shared domain laid out for drawing.
    pools: Vec<Option<DomainPool>>,
}

impl Adversary {
    /// Creates an adversary holding the (possibly redacted) metadata it
    /// received, planning its generation order and laying out each shared
    /// domain as a [`DomainPool`] once.
    pub fn new(package: MetadataPackage) -> Self {
        let plan = package
            .dependency_graph()
            .map(|g| g.plan())
            .unwrap_or_else(|_| {
                (0..package.arity())
                    .map(|attr| PlanStep::Free { attr })
                    .collect()
            });
        let pools = package
            .attributes
            .iter()
            .map(|a| a.domain.as_ref().map(DomainPool::new))
            .collect();
        Self {
            package,
            plan,
            pools,
        }
    }

    /// The metadata the adversary holds.
    pub fn package(&self) -> &MetadataPackage {
        &self.package
    }

    /// The plan [`Adversary::synthesize`] follows with dependencies. Where
    /// it is dependency-blind (every attribute [`PlanStep::Free`], in index
    /// order), both [`SynthConfig::use_dependencies`] settings draw alike.
    pub fn plan(&self) -> &[PlanStep] {
        &self.plan
    }

    /// Synthesises `R_syn`.
    ///
    /// Attributes without a shared domain cannot be generated and come out
    /// as all-null columns (the adversary knows the name but nothing about
    /// the values) — this is exactly why the paper's recommended policy of
    /// withholding domains blocks the attack. Free columns are drawn from
    /// the attribute's [`DomainPool`] (or its shared distribution), and
    /// derived columns are gathered from it, so every text column of one
    /// adversary shares its pool's dictionary.
    pub fn synthesize(&self, config: &SynthConfig) -> Result<Relation> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.n_rows;
        let arity = self.package.arity();
        let mut columns: Vec<Option<Column>> = vec![None; arity];

        let blind;
        let plan = if config.use_dependencies {
            &self.plan
        } else {
            blind = (0..arity).map(|attr| PlanStep::Free { attr }).collect();
            &blind
        };

        for step in plan {
            let attr = step.attr();
            // A shared distribution is strictly richer than a domain: use
            // it for free generation whenever present.
            if matches!(step, PlanStep::Free { .. }) {
                if let Some(dist) = &self.package.attributes[attr].distribution {
                    columns[attr] = Some(sample_distribution(dist, n, &mut rng));
                    continue;
                }
            }
            let col = match (step, &self.pools[attr]) {
                // No domain shared: nothing to sample from.
                (_, None) => null_column(n),
                (PlanStep::Free { .. }, Some(pool)) => pool.sample(n, &mut rng),
                (PlanStep::Derive { dep, .. }, Some(pool)) => {
                    let dep = &self.package.dependencies[*dep];
                    let lhs: Vec<&Column> = determinant_order(dep)
                        .into_iter()
                        .map(|a| {
                            columns[a]
                                .as_ref()
                                // lint: allow(no-panic) reason="the plan topologically orders dependents after their determinants; absence is a planner bug"
                                .expect("determinant generated before dependent")
                        })
                        .collect();
                    derive_column(dep, &lhs, pool, n, &mut rng)
                }
            };
            columns[attr] = Some(col);
        }

        let attrs: Vec<Attribute> = self
            .package
            .attributes
            .iter()
            .map(|a| {
                let kind = a.kind.unwrap_or(match &a.domain {
                    Some(Domain::Continuous { .. }) => AttrKind::Continuous,
                    _ => AttrKind::Categorical,
                });
                Attribute::new(a.name.clone(), kind)
            })
            .collect();
        let columns: Vec<Column> = columns
            .into_iter()
            // lint: allow(no-panic) reason="the generation plan covers every attribute exactly once; a hole is a planner bug"
            .map(|c| c.expect("plan covers all attributes"))
            .collect();
        Relation::from_typed_columns(Schema::new(attrs)?, columns)
    }
}

/// The determinant attributes of `dep` in the order [`derive_column`]
/// takes their columns: tableau order for a CFD (its pattern cells are
/// positional), sorted-set order for every other class.
pub fn determinant_order(dep: &Dependency) -> Vec<usize> {
    match dep {
        Dependency::Cfd(cfd) => cfd.lhs.iter().map(|(a, _)| *a).collect(),
        _ => dep.lhs().iter().collect(),
    }
}

/// Generates the dependent column of `dep` from its determinant columns
/// `lhs`, given in [`determinant_order`]: the one dependency-class →
/// generator dispatch, shared by [`Adversary::synthesize`] and the
/// per-cell harness behind the paper's Tables III/IV. Draws from `rng`
/// only inside the class's generator.
pub fn derive_column<R: Rng + ?Sized>(
    dep: &Dependency,
    lhs: &[&Column],
    rhs: &DomainPool,
    n: usize,
    rng: &mut R,
) -> Column {
    match dep {
        Dependency::Fd(_) => generate_fd_column(lhs, rhs, n, rng),
        Dependency::Afd(afd) => generate_afd_column(lhs, rhs, afd.g3_threshold, n, rng),
        // lint: allow(no-literal-index) reason="Od/Nd/Dd/Ofd dependencies have a single-attribute determinant by construction"
        Dependency::Od(od) => generate_od_column(lhs[0], rhs, od.direction, n, rng),
        // lint: allow(no-literal-index) reason="Od/Nd/Dd/Ofd dependencies have a single-attribute determinant by construction"
        Dependency::Nd(nd) => generate_nd_column(lhs[0], rhs, nd.k, n, rng),
        Dependency::Dd(dd) => {
            // lint: allow(no-literal-index) reason="Od/Nd/Dd/Ofd dependencies have a single-attribute determinant by construction"
            generate_dd_column(lhs[0], rhs, dd.eps_lhs, dd.delta_rhs, n, rng)
        }
        // lint: allow(no-literal-index) reason="Od/Nd/Dd/Ofd dependencies have a single-attribute determinant by construction"
        Dependency::Ofd(_) => generate_ofd_column(lhs[0], rhs, n, rng),
        Dependency::Cfd(cfd) => generate_cfd_column(cfd, lhs, rhs, n, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_metadata::{Fd, NumericalDep, OrderDep, SharePolicy};

    fn package() -> MetadataPackage {
        let rel = mp_datasets::employee();
        MetadataPackage::describe(
            "a",
            &rel,
            vec![
                Fd::new(0usize, 1).into(),         // Name → Age
                OrderDep::ascending(3, 1).into(),  // Salary orders Age
                NumericalDep::new(2, 3, 2).into(), // Dept →≤2 Salary
            ],
        )
        .unwrap()
    }

    #[test]
    fn synthesis_matches_schema_and_size() {
        let adv = Adversary::new(package());
        let syn = adv
            .synthesize(&SynthConfig::with_dependencies(50, 1))
            .unwrap();
        assert_eq!(syn.n_rows(), 50);
        assert_eq!(syn.arity(), 4);
        assert_eq!(syn.schema().attribute(0).unwrap().name, "Name");
    }

    #[test]
    fn generated_values_stay_in_shared_domains() {
        let pkg = package();
        let adv = Adversary::new(pkg.clone());
        let syn = adv
            .synthesize(&SynthConfig::with_dependencies(100, 2))
            .unwrap();
        for (i, meta) in pkg.attributes.iter().enumerate() {
            let dom = meta.domain.as_ref().unwrap();
            for v in syn.column_values(i).unwrap() {
                assert!(dom.contains(&v), "attr {i}: {v} outside {dom}");
            }
        }
    }

    #[test]
    fn shared_dependencies_hold_on_synthetic_data() {
        // The defining property of the attack: R_syn satisfies every shared
        // dependency that drove generation.
        let pkg = package();
        let adv = Adversary::new(pkg.clone());
        let syn = adv
            .synthesize(&SynthConfig::with_dependencies(200, 3))
            .unwrap();
        // Name → Age drove attr 1 (FD preferred by the planner).
        assert!(Fd::new(0usize, 1).holds(&syn).unwrap());
        // Dept →≤2 Salary drove attr 3.
        assert!(NumericalDep::new(2, 3, 2).holds(&syn).unwrap());
    }

    #[test]
    fn random_baseline_ignores_dependencies() {
        let adv = Adversary::new(package());
        let syn = adv
            .synthesize(&SynthConfig::random_baseline(300, 4))
            .unwrap();
        // With 300 rows over 4 names and independent ages the FD breaks
        // (same name must collide with different ages).
        assert!(!Fd::new(0usize, 1).holds(&syn).unwrap());
    }

    #[test]
    fn determinism_per_seed() {
        let adv = Adversary::new(package());
        let a = adv
            .synthesize(&SynthConfig::with_dependencies(40, 9))
            .unwrap();
        let b = adv
            .synthesize(&SynthConfig::with_dependencies(40, 9))
            .unwrap();
        let c = adv
            .synthesize(&SynthConfig::with_dependencies(40, 10))
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn redacted_domains_block_generation() {
        let pkg = SharePolicy::PAPER_RECOMMENDED.apply(&package());
        let adv = Adversary::new(pkg);
        let syn = adv
            .synthesize(&SynthConfig::with_dependencies(20, 5))
            .unwrap();
        for c in 0..syn.arity() {
            assert!(
                syn.column(c).unwrap().iter().all(|v| v.is_null()),
                "column {c} should be unguessable without a domain"
            );
        }
    }

    #[test]
    fn invalid_dependency_graph_falls_back_to_free() {
        let mut pkg = package();
        pkg.dependencies.push(Fd::new(0usize, 99).into()); // out of range
        let adv = Adversary::new(pkg);
        let syn = adv
            .synthesize(&SynthConfig::with_dependencies(10, 6))
            .unwrap();
        assert_eq!(syn.n_rows(), 10);
    }

    #[test]
    fn echocardiogram_end_to_end() {
        let rel = mp_datasets::echocardiogram();
        let deps = mp_datasets::verified_dependencies();
        let pkg = MetadataPackage::describe("hospital", &rel, deps.clone()).unwrap();
        let adv = Adversary::new(pkg);
        let syn = adv
            .synthesize(&SynthConfig::with_dependencies(rel.n_rows(), 7))
            .unwrap();
        assert_eq!(syn.n_rows(), 132);
        assert_eq!(syn.arity(), 13);
    }
}
