//! Property-based tests: every generator's output satisfies the dependency
//! that drove it, over randomised domains, sizes and seeds.

use mp_metadata::{
    ConditionalFd, Dependency, DifferentialDep, Fd, MetadataPackage, MetricFd, NumericalDep,
    OrderDep, OrderDirection, OrderedFd, PlanStep, SharePolicy,
};
use mp_relation::{Attribute, Column, Domain, Relation, Schema, Value};
use mp_synth::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Row counts around the null bitmap's 64-bit word boundaries.
const ROW_COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 500];

fn rel2(x: Column, x_cat: bool, y: Column, y_cat: bool) -> Relation {
    let attr = |name: &str, cat: bool| {
        if cat {
            Attribute::categorical(name)
        } else {
            Attribute::continuous(name)
        }
    };
    Relation::from_typed_columns(
        Schema::new(vec![attr("x", x_cat), attr("y", y_cat)]).unwrap(),
        vec![x, y],
    )
    .unwrap()
}

fn ints_to(card: usize) -> DomainPool {
    DomainPool::new(&Domain::categorical((0..card as i64).collect::<Vec<_>>()))
}

fn lhs_column(n: usize, card: usize, seed: u64) -> Column {
    ints_to(card).sample(n, &mut StdRng::seed_from_u64(seed))
}

/// Packages over the employee table, each with whether its stored plan
/// is dependency-blind: no dependencies; only the trivial FD
/// `Name → Name`; an FD that derives `Age`; and that FD with every domain
/// withheld, which derives an attribute that has no domain.
fn plan_packages() -> Vec<(MetadataPackage, bool)> {
    let rel = mp_datasets::employee();
    let describe =
        |deps: Vec<Dependency>| MetadataPackage::describe("employee", &rel, deps).unwrap();
    let deriving = describe(vec![Fd::new(0usize, 1).into()]);
    vec![
        (describe(Vec::new()), true),
        (describe(vec![Fd::new(0usize, 0).into()]), true),
        (SharePolicy::PAPER_RECOMMENDED.apply(&deriving), false),
        (deriving, false),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn undomained_attributes_synthesize_the_boxed_all_null_column(seed in any::<u64>()) {
        let rel = mp_datasets::employee();
        let pkg = MetadataPackage::describe("employee", &rel, Vec::new()).unwrap();
        let adversary = Adversary::new(SharePolicy::NAMES_ONLY.apply(&pkg));
        for n in ROW_COUNTS {
            let syn = adversary.synthesize(&SynthConfig::with_dependencies(n, seed)).unwrap();
            let boxed: Column = std::iter::repeat_n(Value::Null, n).collect();
            for attr in 0..syn.arity() {
                let col = syn.column(attr).unwrap();
                prop_assert_eq!(col, &boxed);
                prop_assert_eq!(format!("{col:?}"), format!("{boxed:?}"));
            }
        }
    }

    #[test]
    fn dependency_blind_plan_synthesizes_the_random_baseline(
        seed in any::<u64>(),
        n in 0usize..80,
    ) {
        for (pkg, blind) in plan_packages() {
            let adversary = Adversary::new(pkg);
            let plan = adversary.plan();
            let is_blind =
                plan.iter().enumerate().all(|(attr, step)| *step == PlanStep::Free { attr });
            prop_assert_eq!(is_blind, blind);
            if is_blind {
                prop_assert_eq!(
                    adversary.synthesize(&SynthConfig::with_dependencies(n, seed)).unwrap(),
                    adversary.synthesize(&SynthConfig::random_baseline(n, seed)).unwrap()
                );
            }
        }
    }

    #[test]
    fn fd_generator_always_satisfies_fd(
        n in 1usize..150,
        card_x in 1usize..10,
        card_y in 1usize..10,
        seed in 0u64..10_000,
    ) {
        let x = lhs_column(n, card_x, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let y = generate_fd_column(&[&x], &ints_to(card_y), n, &mut rng);
        prop_assert!(Fd::new(0usize, 1).holds(&rel2(x, true, y, true)).unwrap());
    }

    #[test]
    fn nd_generator_respects_k(
        n in 1usize..150,
        card_x in 1usize..8,
        card_y in 2usize..16,
        k in 1usize..16,
        seed in 0u64..10_000,
    ) {
        let x = lhs_column(n, card_x, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let y = generate_nd_column(&x, &ints_to(card_y), k, n, &mut rng);
        let rel = rel2(x, true, y, true);
        prop_assert!(NumericalDep::new(0, 1, k.min(card_y)).holds(&rel).unwrap());
    }

    #[test]
    fn od_generator_satisfies_both_directions(
        n in 1usize..150,
        card_x in 1usize..10,
        seed in 0u64..10_000,
        descending in any::<bool>(),
        categorical_y in any::<bool>(),
    ) {
        let x = lhs_column(n, card_x, seed);
        let dom_y = if categorical_y {
            Domain::categorical((0i64..12).collect::<Vec<_>>())
        } else {
            Domain::continuous(-5.0, 5.0)
        };
        let dir = if descending {
            OrderDirection::Descending
        } else {
            OrderDirection::Ascending
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let y = generate_od_column(&x, &DomainPool::new(&dom_y), dir, n, &mut rng);
        let rel = rel2(x, true, y, categorical_y);
        let od = OrderDep { lhs: 0, rhs: 1, direction: dir };
        prop_assert!(od.holds(&rel).unwrap());
    }

    #[test]
    fn ofd_generator_is_fd_plus_od(
        n in 1usize..120,
        card_x in 1usize..10,
        card_y in 1usize..30,
        seed in 0u64..10_000,
    ) {
        let x = lhs_column(n, card_x, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let y = generate_ofd_column(&x, &ints_to(card_y), n, &mut rng);
        let rel = rel2(x, true, y, true);
        prop_assert!(Fd::new(0usize, 1).holds(&rel).unwrap());
        prop_assert!(OrderDep::ascending(0, 1).holds(&rel).unwrap());
        // Full strictness whenever the codomain is large enough.
        let distinct = rel.distinct_count(0).unwrap();
        if distinct <= card_y {
            prop_assert!(OrderedFd::new(0, 1).holds(&rel).unwrap());
        }
    }

    #[test]
    fn dd_generator_satisfies_dd(
        n in 1usize..120,
        eps in 0.01f64..5.0,
        delta in 0.0f64..5.0,
        seed in 0u64..10_000,
    ) {
        let dom_x = DomainPool::new(&Domain::continuous(0.0, 20.0));
        let dom_y = DomainPool::new(&Domain::continuous(0.0, 10.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let x = dom_x.sample(n, &mut rng);
        let y = generate_dd_column(&x, &dom_y, eps, delta, n, &mut rng);
        let rel = rel2(x, false, y, false);
        prop_assert!(DifferentialDep::new(0, 1, eps, delta).holds(&rel).unwrap());
    }

    #[test]
    fn afd_generator_g3_bounded(
        n in 50usize..300,
        card_x in 2usize..8,
        eps in 0.0f64..0.4,
        seed in 0u64..10_000,
    ) {
        let x = lhs_column(n, card_x, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        let y = generate_afd_column(&[&x], &ints_to(6), eps, n, &mut rng);
        let rel = rel2(x, true, y, true);
        let g3 = Fd::new(0usize, 1).g3_error(&rel).unwrap();
        // g3 concentrates well below the perturbation rate (each perturbed
        // row violates at most once, some land on the mapped value).
        prop_assert!(g3 <= eps + 0.25, "g3 {} vs eps {}", g3, eps);
    }

    #[test]
    fn cfd_generator_satisfies_cfd(
        n in 1usize..150,
        card_x in 1usize..6,
        card_y in 1usize..6,
        pattern_x in 0i64..6,
        pattern_y in 0i64..6,
        seed in 0u64..10_000,
    ) {
        let x = lhs_column(n, card_x, seed);
        let cfd = ConditionalFd::constant(0, pattern_x, 1, pattern_y);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAAAA);
        let y = generate_cfd_column(&cfd, &[&x], &ints_to(card_y), n, &mut rng);
        let rel = rel2(x, true, y, true);
        prop_assert!(cfd.holds(&rel).unwrap());
    }

    #[test]
    fn distribution_sampling_preserves_support(
        weights in prop::collection::vec(0.01f64..1.0, 1..8),
        n in 1usize..200,
        seed in 0u64..10_000,
    ) {
        use mp_metadata::Distribution;
        let total: f64 = weights.iter().sum();
        let dist = Distribution::Categorical(
            weights
                .iter()
                .enumerate()
                .map(|(i, w)| (Value::Int(i as i64), w / total))
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let col = sample_distribution(&dist, n, &mut rng);
        prop_assert_eq!(col.len(), n);
        for v in col.iter() {
            let idx = v.to_value().as_i64().unwrap() as usize;
            prop_assert!(idx < weights.len());
        }
    }

    #[test]
    fn fd_generation_mse_behaviour_is_metric_consistent(
        n in 10usize..100,
        seed in 0u64..1000,
    ) {
        // Generated continuous FD images stay inside the domain, so the
        // MFD with delta = range holds trivially — a consistency link
        // between the generator and the metric-FD class.
        let x = lhs_column(n, 5, seed);
        let dom_y = DomainPool::new(&Domain::continuous(2.0, 12.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let y = generate_fd_column(&[&x], &dom_y, n, &mut rng);
        let rel = rel2(x, true, y, false);
        prop_assert!(MetricFd::new(0, 1, 10.0).holds(&rel).unwrap());
        // And the FD itself gives tight delta 0 per partition.
        prop_assert_eq!(MetricFd::tight_delta(0, 1, &rel).unwrap(), Some(0.0));
    }
}
