//! Failure-injection and degenerate-input robustness: every layer of the
//! pipeline must fail cleanly (typed errors or benign no-ops), never
//! panic, on malformed or adversarial inputs.

use metadata_privacy::core::{identifiability_rate, run_attack, ExperimentConfig};
use metadata_privacy::discovery::{
    discover_fds_with, DependencyProfile, DiscoveryContext, ParallelConfig, ProfileConfig,
    TaneConfig,
};
use metadata_privacy::metadata::AttributeMeta;
use metadata_privacy::prelude::*;
use metadata_privacy::relation::{csv, Attribute, RelationError, Schema};

#[test]
fn corrupt_csv_inputs_fail_with_typed_errors() {
    let opts = csv::CsvOptions::default();
    for (input, what) in [
        ("", "empty file"),
        ("a,b\n\"unterminated\n", "unterminated quote"),
        ("a,b\n1\n", "ragged row"),
        ("a,a\n1,2\n", "duplicate header names"),
    ] {
        let err = csv::read_str(input, &opts).expect_err(what);
        // Every failure is a typed RelationError with a readable message.
        assert!(!err.to_string().is_empty(), "{what}");
    }
}

#[test]
fn sixty_five_attribute_relation_rejected_by_tane() {
    let attrs: Vec<Attribute> = (0..65)
        .map(|i| Attribute::categorical(format!("a{i}")))
        .collect();
    let schema = Schema::new(attrs).unwrap();
    let rel = Relation::from_rows(schema, vec![(0..65).map(Value::Int).collect()]).unwrap();
    let ctx = DiscoveryContext::new(&rel, ParallelConfig::default());
    let err = discover_fds_with(&ctx, &TaneConfig::default()).unwrap_err();
    assert!(matches!(err, RelationError::IndexOutOfBounds { .. }));
}

#[test]
fn adversary_with_contradictory_metadata_stays_sane() {
    // Kind says continuous but the domain is categorical, and vice versa;
    // the adversary must still produce a typed relation.
    let pkg = MetadataPackage {
        format_version: Some(metadata_privacy::metadata::FORMAT_VERSION),
        party: "chaos".into(),
        attributes: vec![
            AttributeMeta {
                name: "a".into(),
                kind: Some(AttrKind::Continuous),
                domain: Some(Domain::categorical(vec![Value::Int(1), Value::Int(2)])),
                distribution: None,
            },
            AttributeMeta {
                name: "b".into(),
                kind: Some(AttrKind::Categorical),
                domain: Some(Domain::continuous(0.0, 1.0)),
                distribution: None,
            },
        ],
        dependencies: vec![],
        n_rows: Some(10),
    };
    let adv = Adversary::new(pkg);
    let syn = adv
        .synthesize(&SynthConfig::random_baseline(10, 1))
        .unwrap();
    assert_eq!(syn.n_rows(), 10);
    // Continuous kind + categorical Int domain: values are numeric.
    assert!(syn.column(0).unwrap().iter().all(|v| v.as_f64().is_some()));
}

#[test]
fn cyclic_and_self_referential_dependency_packages() {
    let rel = metadata_privacy::datasets::employee();
    let pkg = MetadataPackage::describe(
        "p",
        &rel,
        vec![
            Fd::new(0usize, 1).into(),
            Fd::new(1usize, 0).into(), // cycle with the first
            Fd::new(2usize, 2).into(), // self-loop
        ],
    )
    .unwrap();
    let adv = Adversary::new(pkg.clone());
    let syn = adv
        .synthesize(&SynthConfig::with_dependencies(30, 2))
        .unwrap();
    assert_eq!(syn.n_rows(), 30);
    // And the attack harness runs over it.
    let config = ExperimentConfig {
        rounds: 3,
        base_seed: 0,
        epsilon: 0.0,
    };
    let result = run_attack(&rel, &pkg, true, &config).unwrap();
    assert_eq!(result.per_attr.len(), 4);
}

#[test]
fn single_row_and_single_column_relations_profile_cleanly() {
    let schema = Schema::new(vec![Attribute::categorical("only")]).unwrap();
    let one_cell = Relation::from_rows(schema.clone(), vec![vec!["v".into()]]).unwrap();
    let profile = DependencyProfile::discover(&one_cell, &ProfileConfig::paper()).unwrap();
    // A single constant cell: ∅ → 0 and nothing else explodes.
    assert!(profile.fds.iter().any(|f| f.lhs.is_empty()));

    let empty = Relation::empty(schema);
    let profile = DependencyProfile::discover(&empty, &ProfileConfig::paper()).unwrap();
    assert!(profile.is_empty());
}

#[test]
fn all_null_relation_through_the_full_pipeline() {
    let schema = Schema::new(vec![
        Attribute::categorical("a"),
        Attribute::categorical("b"),
    ])
    .unwrap();
    let rel = Relation::from_rows(schema, vec![vec![Value::Null, Value::Null]; 8]).unwrap();
    let profile = DependencyProfile::discover(&rel, &ProfileConfig::paper()).unwrap();
    let pkg = MetadataPackage::describe("p", &rel, profile.to_dependencies()).unwrap();
    let config = ExperimentConfig {
        rounds: 4,
        base_seed: 0,
        epsilon: 0.0,
    };
    let result = run_attack(&rel, &pkg, true, &config).unwrap();
    // All-null real + all-null domain: everything "matches" — the audit
    // must survive, and the numbers must be exactly N per attribute.
    for attr in &result.per_attr {
        assert_eq!(attr.mean_matches, 8.0);
    }
}

#[test]
fn audit_handles_degenerate_relations() {
    // A one-cell relation through every step of a privacy audit:
    // identifiability, then the attack under each preset policy.
    let schema = Schema::new(vec![Attribute::categorical("c")]).unwrap();
    let rel = Relation::from_rows(schema, vec![vec!["x".into()]]).unwrap();
    assert_eq!(identifiability_rate(&rel, 1).unwrap(), 1.0);
    let pkg = MetadataPackage::describe("p", &rel, vec![]).unwrap();
    let config = ExperimentConfig {
        rounds: 3,
        base_seed: 0,
        epsilon: 0.0,
    };
    for (policy, expected) in [
        (SharePolicy::NAMES_ONLY, 0.0),
        (SharePolicy::NAMES_AND_DOMAINS, 1.0),
        (SharePolicy::FULL, 1.0),
        (SharePolicy::PAPER_RECOMMENDED, 0.0),
    ] {
        let result = run_attack(&rel, &policy.apply(&pkg), true, &config).unwrap();
        assert_eq!(result.per_attr.len(), 1);
        // A one-value domain pins the only cell; no domain pins nothing.
        assert_eq!(result.per_attr[0].mean_matches, expected, "{policy:?}");
    }
}

#[test]
fn attack_against_mismatched_arity_errors() {
    // Package describes more attributes than the measured relation has:
    // measurement must error, not index out of bounds in a panic.
    let wide = metadata_privacy::datasets::employee();
    let narrow = wide.project(&[0, 1]).unwrap();
    let pkg = MetadataPackage::describe("p", &wide, vec![]).unwrap();
    let config = ExperimentConfig {
        rounds: 2,
        base_seed: 0,
        epsilon: 0.0,
    };
    assert!(run_attack(&narrow, &pkg, false, &config).is_err());
}

#[test]
fn extreme_epsilon_values_are_total_or_empty() {
    let rel = metadata_privacy::datasets::echocardiogram();
    let pkg = MetadataPackage::describe("p", &rel, vec![]).unwrap();
    let huge = ExperimentConfig {
        rounds: 2,
        base_seed: 0,
        epsilon: f64::INFINITY,
    };
    let result = run_attack(&rel, &pkg, false, &huge).unwrap();
    use metadata_privacy::datasets::echocardiogram::attrs::LVDD;
    // ε = ∞: every numeric pair matches (lvdd has no nulls).
    assert_eq!(result.attr(LVDD).unwrap().mean_matches, 132.0);

    let negative = ExperimentConfig {
        rounds: 2,
        base_seed: 0,
        epsilon: -1.0,
    };
    let result = run_attack(&rel, &pkg, false, &negative).unwrap();
    assert_eq!(result.attr(LVDD).unwrap().mean_matches, 0.0);
}

#[test]
fn generalize_to_k_gives_up_gracefully() {
    // Categorical-only QIs can never be generalised by bucketing; the
    // routine must stop after max_steps without looping forever.
    let schema = Schema::new(vec![Attribute::categorical("c")]).unwrap();
    let rel = Relation::from_rows(schema, vec![vec!["a".into()], vec!["b".into()]]).unwrap();
    let (out, widths) = metadata_privacy::core::generalize_to_k(&rel, &[0], 2, 1.0, 3).unwrap();
    assert_eq!(out.n_rows(), 2);
    assert_eq!(widths, vec![None]);
    assert_eq!(metadata_privacy::core::k_anonymity(&out, &[0]).unwrap(), 1);
}
