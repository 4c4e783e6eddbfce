//! Cell-level pins of the leakage matrix on a tiny table with nulls:
//!
//! 1. **A dependency-blind plan draws once per round.** A package whose
//!    only dependency is trivial (`A → A`) carries `n_deps: 1`, yet its
//!    generation plan derives nothing, so the same-seed random baseline
//!    is the first draw and the delta is exactly zero.
//! 2. **Null semantics on the typed synthesis path.** Without shared
//!    domains every synthetic column is all-null, and Definition 2.2
//!    scoring counts null = null: such a cell scores exactly the table's
//!    categorical null cells in every round.

use mp_core::{LeakageMatrix, MatrixConfig, MatrixDataset};
use mp_metadata::{Dependency, Fd};
use mp_observe::{NoopRecorder, Registry};
use mp_relation::{AttrKind, Attribute, Relation, Schema, Value};
use mp_synth::AdversaryModel;

const ROUNDS: usize = 6;

/// 30 rows; `dept` is null every 5th row, `salary` every 3rd and `grade`
/// every 4th.
fn dataset(dependencies: Vec<Dependency>) -> MatrixDataset {
    let schema = Schema::new(vec![
        Attribute::categorical("dept"),
        Attribute::continuous("salary"),
        Attribute::categorical("grade"),
    ])
    .unwrap();
    let null_or = |i: usize, every: usize, v: Value| {
        if i.is_multiple_of(every) {
            Value::Null
        } else {
            v
        }
    };
    let rows: Vec<Vec<Value>> = (0..30)
        .map(|i| {
            vec![
                null_or(i, 5, ["Sales", "CS", "Mgmt"][i % 3].into()),
                null_or(i, 3, (20.0 + (i % 4) as f64).into()),
                null_or(i, 4, Value::Int((i % 3) as i64)),
            ]
        })
        .collect();
    MatrixDataset {
        name: "tiny-nulls".to_owned(),
        relation: Relation::from_rows(schema, rows).unwrap(),
        dependencies,
    }
}

/// Adversaries that score every row.
fn config() -> MatrixConfig {
    MatrixConfig {
        rounds: ROUNDS,
        epsilon: 0.5,
        threads: 1,
        adversaries: vec![
            AdversaryModel::Baseline,
            AdversaryModel::Collusion { parties: 2 },
            AdversaryModel::NoisyDomains { noise_pct: 10 },
        ],
    }
}

#[test]
fn trivial_fd_cells_draw_once_per_round_with_zero_delta() {
    let ds = [dataset(vec![Fd::new(0usize, 0).into()])];
    let registry = Registry::new();
    let m = LeakageMatrix::run(&ds, &config(), &registry).unwrap();
    for cell in m.cells.iter().filter(|c| c.class == "fd") {
        let shares_fds = ["full", "recommended", "redact-odd"].contains(&cell.policy);
        assert_eq!(cell.n_deps, usize::from(shares_fds), "{cell:?}");
        assert_eq!(cell.delta_vs_random, 0.0, "{cell:?}");
    }
    let counters = registry.snapshot().counters;
    assert_eq!(
        counters["matrix.synth.draws"],
        (ROUNDS * m.cells.len()) as u64
    );
    assert_eq!(
        counters["matrix.synth.rounds"],
        (ROUNDS * m.cells.len() * 2) as u64
    );
}

#[test]
fn undomained_cells_score_exactly_the_categorical_null_cells() {
    let ds = [dataset(vec![Fd::new(0usize, 2).into()])];
    let relation = &ds[0].relation;
    let categorical_nulls: usize = relation
        .schema()
        .iter()
        .filter(|(_, attribute)| attribute.kind == AttrKind::Categorical)
        .map(|(attr, _)| relation.column(attr).unwrap().null_count())
        .sum();
    assert_eq!(categorical_nulls, 6 + 8);
    let m = LeakageMatrix::run(&ds, &config(), &NoopRecorder).unwrap();
    // `names` and `recommended` withhold every domain. `recommended`
    // keeps the FD, so its fd row derives `grade`: all-null as well.
    let undomained = m
        .cells
        .iter()
        .filter(|c| c.policy == "names" || c.policy == "recommended");
    for cell in undomained {
        assert_eq!(cell.rows_scored, 30);
        assert_eq!(cell.empirical, categorical_nulls as f64, "{cell:?}");
        assert_eq!(cell.std, 0.0, "{cell:?}");
        assert_eq!(cell.random_baseline, categorical_nulls as f64, "{cell:?}");
        assert_eq!(cell.analytical, 0.0, "{cell:?}");
        // Today's verdict: null = null matches count as leaked cells.
        assert!(cell.leaks, "{cell:?}");
    }
}
