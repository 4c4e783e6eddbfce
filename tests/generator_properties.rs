//! Cross-crate property tests: whatever metadata the adversary receives,
//! its synthetic output is consistent with it.

use metadata_privacy::prelude::*;
use proptest::prelude::*;

/// Strategy: a random two-attribute categorical package with one
/// dependency of a random class.
fn package_strategy() -> impl Strategy<Value = (MetadataPackage, usize)> {
    (2usize..8, 2usize..12, 0usize..5, 1usize..6).prop_map(|(card_a, card_b, dep_kind, k)| {
        use metadata_privacy::metadata::AttributeMeta;
        let dep: Dependency = match dep_kind {
            0 => Fd::new(0usize, 1).into(),
            1 => Afd::new(0usize, 1, 0.1).into(),
            2 => OrderDep::ascending(0, 1).into(),
            3 => NumericalDep::new(0, 1, k).into(),
            _ => OrderedFd::new(0, 1).into(),
        };
        let pkg = MetadataPackage {
            format_version: Some(metadata_privacy::metadata::FORMAT_VERSION),
            party: "p".into(),
            attributes: vec![
                AttributeMeta {
                    name: "a".into(),
                    kind: Some(AttrKind::Categorical),
                    domain: Some(Domain::categorical((0..card_a as i64).collect::<Vec<_>>())),
                    distribution: None,
                },
                AttributeMeta {
                    name: "b".into(),
                    kind: Some(AttrKind::Categorical),
                    domain: Some(Domain::categorical((0..card_b as i64).collect::<Vec<_>>())),
                    distribution: None,
                },
            ],
            dependencies: vec![dep],
            n_rows: None,
        };
        (pkg, dep_kind)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn synthetic_data_satisfies_shared_dependency(
        (pkg, dep_kind) in package_strategy(),
        n in 1usize..120,
        seed in 0u64..1000,
    ) {
        let adversary = Adversary::new(pkg.clone());
        let syn = adversary.synthesize(&SynthConfig::with_dependencies(n, seed)).unwrap();
        prop_assert_eq!(syn.n_rows(), n);
        let dep = &pkg.dependencies[0];
        match dep_kind {
            // Exact classes must hold exactly.
            0 | 2 | 3 => prop_assert!(dep.holds(&syn).unwrap(), "{} violated", dep),
            // OFD degrades to FD + OD when the codomain is too small.
            4 => {
                prop_assert!(Dependency::from(Fd::new(0usize, 1)).holds(&syn).unwrap());
                prop_assert!(
                    Dependency::from(OrderDep::ascending(0, 1)).holds(&syn).unwrap()
                );
            }
            // AFD: g3 stays within a generous multiple of the threshold.
            _ => {
                let g3 = Fd::new(0usize, 1).g3_error(&syn).unwrap();
                prop_assert!(g3 <= 0.45, "g3 {} too large", g3);
            }
        }
    }

    #[test]
    fn synthetic_values_stay_in_domains(
        (pkg, _) in package_strategy(),
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let adversary = Adversary::new(pkg.clone());
        for use_deps in [false, true] {
            let syn = adversary
                .synthesize(&SynthConfig { n_rows: n, seed, use_dependencies: use_deps })
                .unwrap();
            for (c, meta) in pkg.attributes.iter().enumerate() {
                let dom = meta.domain.as_ref().unwrap();
                for v in syn.column_values(c).unwrap() {
                    prop_assert!(dom.contains(&v), "attr {} value {} outside domain", c, v);
                }
            }
        }
    }

    #[test]
    fn redaction_never_increases_leakage(
        seed in 0u64..500,
        n in 10usize..60,
    ) {
        // Monotonicity: any policy's leakage ≤ full disclosure's leakage
        // (up to per-seed noise — compare against the same seeds).
        let spec = metadata_privacy::datasets::all_classes_spec(n, seed);
        let out = spec.generate().unwrap();
        let pkg = MetadataPackage::describe("p", &out.relation, out.planted.clone()).unwrap();
        let config = ExperimentConfig { rounds: 5, base_seed: seed, epsilon: 0.0 };

        let full = run_attack(&out.relation, &pkg, true, &config).unwrap();
        let none = run_attack(
            &out.relation,
            &SharePolicy::NAMES_ONLY.apply(&pkg),
            true,
            &config,
        )
        .unwrap();
        for (f, z) in full.per_attr.iter().zip(&none.per_attr) {
            let real_nulls = out
                .relation
                .column(z.attr)
                .unwrap()
                .iter()
                .filter(|v| v.is_null())
                .count() as f64;
            prop_assert!(z.mean_matches <= real_nulls.max(0.0) + 1e-9);
            prop_assert!(f.mean_matches >= z.mean_matches - 1e-9);
        }
    }

    #[test]
    fn psi_alignment_agrees_with_set_intersection(
        ids_a in prop::collection::vec(0u32..40, 0..50),
        ids_b in prop::collection::vec(0u32..40, 0..50),
        salt in 0u64..99,
    ) {
        use metadata_privacy::federated::multi_align;
        let va: Vec<Value> = ids_a.iter().map(|&i| Value::Int(i as i64)).collect();
        let vb: Vec<Value> = ids_b.iter().map(|&i| Value::Int(i as i64)).collect();
        let al = multi_align(&[&va, &vb], salt);
        // Size equals the set-intersection size.
        let mut sa: Vec<u32> = ids_a.clone();
        sa.sort_unstable();
        sa.dedup();
        let mut sb: Vec<u32> = ids_b.clone();
        sb.sort_unstable();
        sb.dedup();
        let expected = sa.iter().filter(|x| sb.contains(x)).count();
        prop_assert_eq!(al.len(), expected);
        // And every aligned pair refers to the same entity.
        for i in 0..al.len() {
            prop_assert_eq!(&va[al.rows[0][i]], &vb[al.rows[1][i]]);
        }
    }
}
