//! Reconstructed echocardiogram dataset.
//!
//! The paper evaluates on the UCI *echocardiogram* dataset (132 rows, 13
//! attributes) from the HPI FD-repeatability project. The raw clinical
//! values are not redistributable here, so this module builds a
//! deterministic, seeded reconstruction that preserves everything the
//! paper's experiments are a function of (see DESIGN.md §4):
//!
//! * the UCI schema and the paper's categorical/continuous split —
//!   categorical attrs 1, 3, 11, 12 (plus the constant `name` attr 10),
//!   continuous attrs 0, 2, 4–9;
//! * 132 tuples with missing values on the attributes UCI reports them on,
//!   so categorical domains include `?` (this is what makes random-match
//!   expectations land at `N/3` for binary attributes, as in Table IV);
//! * planted, *exactly verifiable* FD/OD/ND/OFD structure between the same
//!   attribute families the paper's discovery step found dependencies on.
//!
//! Planted structure (all verified by tests):
//!
//! | dependency | mechanism |
//! |---|---|
//! | FD/OD `age(2) → group(11)` | group is an age band |
//! | FD/OD `survival(0) → still_alive(1)` | threshold at 24 months |
//! | FD/OD `wall_motion_score(7) → pericardial(3)` | 3 score bands |
//! | FD/OD/OFD `wall_motion_score(7) ↔ wall_motion_index(8)` | exact linear map |
//! | FD/OD `lvdd(6) → epss(5)` | monotone rescaling |
//! | OD `fractional_shortening(4) → mult(9)` | monotone map on non-nulls |
//! | ND `group(11) →≤k survival(0)` | per-group survival value grids |
//!
//! `alive_at_1(12)` is a function of *two* attributes (survival and wall
//! motion), so no single-attribute FD determines it — matching the `NA`
//! cell for FDs on attr 12 in the paper's Table IV.

use mp_metadata::{Dependency, Fd, NumericalDep, OrderDep, OrderedFd};
use mp_relation::{Attribute, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default RNG seed for the reconstruction.
pub(crate) const DEFAULT_SEED: u64 = 0xEC40_CA4D;

/// Number of tuples, matching the UCI dataset.
pub(crate) const N_ROWS: usize = 132;

/// Attribute indices, following the UCI/paper numbering.
pub mod attrs {
    /// Months the patient survived (continuous, some missing).
    pub const SURVIVAL: usize = 0;
    /// Whether the patient is still alive (categorical 0/1/?).
    pub const STILL_ALIVE: usize = 1;
    /// Age at heart attack (continuous).
    pub const AGE: usize = 2;
    /// Pericardial effusion (categorical, 3 codes).
    pub(crate) const PERICARDIAL: usize = 3;
    /// Fractional shortening (continuous, some missing).
    pub const FRACTIONAL_SHORTENING: usize = 4;
    /// E-point septal separation (continuous).
    pub const EPSS: usize = 5;
    /// Left ventricular end-diastolic dimension (continuous).
    pub const LVDD: usize = 6;
    /// Wall motion score (continuous).
    pub const WALL_MOTION_SCORE: usize = 7;
    /// Wall motion index (continuous).
    pub const WALL_MOTION_INDEX: usize = 8;
    /// Derived multiplier (continuous).
    pub const MULT: usize = 9;
    /// Patient name placeholder (constant categorical, excluded from
    /// experiments as in the paper).
    pub const NAME: usize = 10;
    /// Cohort group (categorical, 4 age bands).
    pub const GROUP: usize = 11;
    /// Alive at one year (categorical 0/1/?).
    pub(crate) const ALIVE_AT_1: usize = 12;
}

/// The continuous attributes evaluated in the paper's Table III.
pub const CONTINUOUS_ATTRS: [usize; 8] = [0, 2, 4, 5, 6, 7, 8, 9];

/// The categorical attributes evaluated in the paper's Table IV.
pub const CATEGORICAL_ATTRS: [usize; 4] = [1, 3, 11, 12];

fn round_to(x: f64, decimals: i32) -> f64 {
    let f = 10f64.powi(decimals);
    (x * f).round() / f
}

/// The UCI echocardiogram schema with the paper's kind assignment.
pub(crate) fn echocardiogram_schema() -> Schema {
    Schema::new(vec![
        Attribute::continuous("survival"),
        Attribute::categorical("still_alive"),
        Attribute::continuous("age_at_heart_attack"),
        Attribute::categorical("pericardial_effusion"),
        Attribute::continuous("fractional_shortening"),
        Attribute::continuous("epss"),
        Attribute::continuous("lvdd"),
        Attribute::continuous("wall_motion_score"),
        Attribute::continuous("wall_motion_index"),
        Attribute::continuous("mult"),
        Attribute::categorical("name"),
        Attribute::categorical("group"),
        Attribute::categorical("alive_at_1"),
    ])
    .expect("echocardiogram schema is valid")
}

/// Builds the reconstruction with the default seed.
pub fn echocardiogram() -> Relation {
    echocardiogram_with_seed(DEFAULT_SEED)
}

/// Builds the reconstruction with an explicit seed (planted dependencies
/// hold for *every* seed; only the noise varies).
pub(crate) fn echocardiogram_with_seed(seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);

    // Rows with missing survival / still_alive / fractional_shortening,
    // spread deterministically across the table.
    let survival_nulls = [12usize, 44, 76, 108];
    let unique_survival_rows = [5usize, 20, 35, 50, 65, 80, 95, 110];
    let fs_nulls = [3usize, 19, 37, 55, 71, 89, 103, 121];

    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(N_ROWS);
    for i in 0..N_ROWS {
        // Age and its band (group): FD/OD age → group.
        let age = round_to(35.0 + 51.0 * rng.gen::<f64>(), 1);
        let group: i64 = match age {
            a if a < 48.0 => 1,
            a if a < 60.0 => 2,
            a if a < 73.0 => 3,
            _ => 4,
        };

        // Survival: per-group value grids (ND group →≤k survival), eight
        // rows with unique off-grid values, four missing.
        let survival: Value = if survival_nulls.contains(&i) {
            Value::Null
        } else if unique_survival_rows.contains(&i) {
            // Unique off-grid values, all below the grid floor of 2.0.
            Value::Float(0.25 + i as f64 * 0.01)
        } else {
            // Per-group grids are offset by 0.75 so they are disjoint
            // across groups, keeping the ND group →≤k survival informative
            // (k « distinct survival values).
            let j: i64 = rng.gen_range(0..13);
            Value::Float(2.0 + (group - 1) as f64 * 0.75 + (3 * j) as f64)
        };

        // still_alive is a threshold function of survival (FD/OD 0 → 1);
        // unknown where survival is unknown or off-grid (below 2 months).
        let still_alive: Value = match survival.as_f64() {
            None => Value::Null,
            Some(s) if s < 2.0 => Value::Null,
            Some(s) if s < 24.0 => Value::Int(0),
            Some(_) => Value::Int(1),
        };

        // Wall motion score (0.5 grid) and its exact linear index:
        // FD/OD/OFD in both directions between 7 and 8.
        let score = ((2.0 + 37.0 * rng.gen::<f64>()) * 2.0).round() / 2.0;
        let index = 1.0 + (score - 2.0) * 0.05;

        // Pericardial effusion: three score bands (FD/OD 7 → 3).
        let pericardial: i64 = if score < 14.0 {
            0
        } else if score < 27.0 {
            1
        } else {
            2
        };

        // alive_at_1 needs BOTH survival and wall motion — no
        // single-attribute FD determines it (paper Table IV: FD attr12 NA).
        let alive_at_1: Value = match &still_alive {
            Value::Null => Value::Null,
            Value::Int(1) if score < 20.0 => Value::Int(1),
            _ => Value::Int(0),
        };

        // lvdd and its monotone rescaling epss (FD/OD 6 → 5).
        let lvdd = round_to(2.3 + 4.5 * rng.gen::<f64>(), 2);
        let epss = round_to((lvdd - 2.3) / 4.5 * 40.0, 1);

        // Fractional shortening (8 missing) and mult, a monotone map of it
        // on non-null rows (OD 4 → 9) but random on nulls (so no FD 4 → 9).
        let fs: Value = if fs_nulls.contains(&i) {
            Value::Null
        } else {
            Value::Float(round_to(0.01 + 0.6 * rng.gen::<f64>(), 2))
        };
        let mult: f64 = match fs.as_f64() {
            Some(v) => round_to(0.14 + (v - 0.01) / 0.6 * 1.86, 2),
            None => round_to(0.14 + 1.86 * rng.gen::<f64>(), 2),
        };

        rows.push(vec![
            survival,
            still_alive,
            Value::Float(age),
            Value::Int(pericardial),
            fs,
            Value::Float(epss),
            Value::Float(lvdd),
            Value::Float(score),
            Value::Float(index),
            Value::Float(mult),
            Value::Text("name".into()),
            Value::Int(group),
            alive_at_1,
        ]);
    }

    Relation::from_rows(echocardiogram_schema(), rows)
        .expect("reconstruction rows match the schema")
}

/// Dependencies planted by construction; every one of these holds exactly
/// on the reconstruction (any seed) and is asserted by tests.
pub fn verified_dependencies() -> Vec<Dependency> {
    use attrs::*;
    vec![
        Fd::new(SURVIVAL, STILL_ALIVE).into(),
        Fd::new(AGE, GROUP).into(),
        Fd::new(WALL_MOTION_SCORE, PERICARDIAL).into(),
        Fd::new(WALL_MOTION_SCORE, WALL_MOTION_INDEX).into(),
        Fd::new(WALL_MOTION_INDEX, WALL_MOTION_SCORE).into(),
        Fd::new(LVDD, EPSS).into(),
        OrderDep::ascending(SURVIVAL, STILL_ALIVE).into(),
        OrderDep::ascending(AGE, GROUP).into(),
        OrderDep::ascending(WALL_MOTION_SCORE, PERICARDIAL).into(),
        OrderDep::ascending(WALL_MOTION_SCORE, WALL_MOTION_INDEX).into(),
        OrderDep::ascending(WALL_MOTION_INDEX, WALL_MOTION_SCORE).into(),
        OrderDep::ascending(LVDD, EPSS).into(),
        OrderDep::ascending(FRACTIONAL_SHORTENING, MULT).into(),
        OrderedFd::new(WALL_MOTION_SCORE, WALL_MOTION_INDEX).into(),
        NumericalDep::new(GROUP, SURVIVAL, 22).into(),
        NumericalDep::new(GROUP, STILL_ALIVE, 3).into(),
    ]
}

/// The per-attribute dependency inventory used to regenerate the paper's
/// Tables III and IV: for each evaluated attribute, the dependency (if any)
/// of each class used to generate it. Attributes absent from a class's map
/// are the paper's `NA` cells.
///
/// Mirrors the paper's coverage pattern exactly: FDs exist for categorical
/// attrs 1, 3, 11 (not 12) and continuous attrs 0, 2, 4–8 (not 9); ODs
/// exist for all evaluated attributes; NDs exist only for attrs 0 and 1.
/// Dependencies marked *predefined* in the comments do not hold exactly on
/// the reconstruction — they play the role of the weaker discovered
/// dependencies the paper generated from (e.g. its OD for attr 2, whose MSE
/// came out *worse* than random generation).
#[derive(Debug, Clone)]
pub struct PaperInventory {
    /// FD used to generate each attribute (paper Tables III/IV, row "Func Dep").
    pub fd: Vec<(usize, Dependency)>,
    /// OD used for each attribute (row "Ord Dep").
    pub od: Vec<(usize, Dependency)>,
    /// ND used for each attribute (row "Num Dep").
    pub nd: Vec<(usize, Dependency)>,
}

impl PaperInventory {
    /// Looks up the dependency of a class (`"FD"`, `"OD"`, `"ND"`) for an
    /// attribute, `None` for the paper's `NA` cells.
    pub fn lookup(&self, class: &str, attr: usize) -> Option<&Dependency> {
        let list = match class {
            "FD" => &self.fd,
            "OD" => &self.od,
            "ND" => &self.nd,
            _ => return None,
        };
        list.iter().find(|(a, _)| *a == attr).map(|(_, d)| d)
    }
}

/// Builds the inventory (see [`PaperInventory`]).
pub fn paper_inventory() -> PaperInventory {
    use attrs::*;
    let fd: Vec<(usize, Dependency)> = vec![
        (SURVIVAL, Fd::new(GROUP, SURVIVAL).into()), // predefined
        (STILL_ALIVE, Fd::new(SURVIVAL, STILL_ALIVE).into()),
        (AGE, Fd::new(GROUP, AGE).into()), // predefined
        (PERICARDIAL, Fd::new(WALL_MOTION_SCORE, PERICARDIAL).into()),
        (
            FRACTIONAL_SHORTENING,
            Fd::new(LVDD, FRACTIONAL_SHORTENING).into(),
        ), // predefined
        (EPSS, Fd::new(LVDD, EPSS).into()),
        (LVDD, Fd::new(EPSS, LVDD).into()), // predefined
        (
            WALL_MOTION_SCORE,
            Fd::new(WALL_MOTION_INDEX, WALL_MOTION_SCORE).into(),
        ),
        (
            WALL_MOTION_INDEX,
            Fd::new(WALL_MOTION_SCORE, WALL_MOTION_INDEX).into(),
        ),
        (GROUP, Fd::new(AGE, GROUP).into()),
    ];
    let od: Vec<(usize, Dependency)> = vec![
        (SURVIVAL, OrderDep::ascending(GROUP, SURVIVAL).into()), // predefined
        (
            STILL_ALIVE,
            OrderDep::ascending(SURVIVAL, STILL_ALIVE).into(),
        ),
        (AGE, OrderDep::ascending(GROUP, AGE).into()), // predefined
        (
            PERICARDIAL,
            OrderDep::ascending(WALL_MOTION_SCORE, PERICARDIAL).into(),
        ),
        (
            FRACTIONAL_SHORTENING,
            OrderDep::ascending(MULT, FRACTIONAL_SHORTENING).into(),
        ),
        (EPSS, OrderDep::ascending(LVDD, EPSS).into()),
        (LVDD, OrderDep::ascending(EPSS, LVDD).into()), // predefined
        (
            WALL_MOTION_SCORE,
            OrderDep::ascending(WALL_MOTION_INDEX, WALL_MOTION_SCORE).into(),
        ),
        (
            WALL_MOTION_INDEX,
            OrderDep::ascending(WALL_MOTION_SCORE, WALL_MOTION_INDEX).into(),
        ),
        (
            MULT,
            OrderDep::ascending(FRACTIONAL_SHORTENING, MULT).into(),
        ),
        (GROUP, OrderDep::ascending(AGE, GROUP).into()),
        (ALIVE_AT_1, OrderDep::ascending(SURVIVAL, ALIVE_AT_1).into()), // predefined
    ];
    let nd: Vec<(usize, Dependency)> = vec![
        (SURVIVAL, NumericalDep::new(GROUP, SURVIVAL, 22).into()),
        (STILL_ALIVE, NumericalDep::new(GROUP, STILL_ALIVE, 3).into()),
    ];
    PaperInventory { fd, od, nd }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_relation::Domain;

    #[test]
    fn shape_matches_uci() {
        let r = echocardiogram();
        assert_eq!(r.n_rows(), N_ROWS);
        assert_eq!(r.arity(), 13);
    }

    #[test]
    fn determinism() {
        assert_eq!(echocardiogram(), echocardiogram());
        assert_ne!(echocardiogram_with_seed(1), echocardiogram_with_seed(2));
    }

    #[test]
    fn categorical_domains_have_paper_cardinalities() {
        // Table IV's random-match counts are N/|D|: 44 ⇒ |D| = 3 for attrs
        // 1, 3, 12 and 33 ⇒ |D| = 4 for attr 11.
        let r = echocardiogram();
        assert_eq!(
            Domain::infer(&r, attrs::STILL_ALIVE).unwrap().cardinality(),
            Some(3)
        );
        assert_eq!(
            Domain::infer(&r, attrs::PERICARDIAL).unwrap().cardinality(),
            Some(3)
        );
        assert_eq!(
            Domain::infer(&r, attrs::GROUP).unwrap().cardinality(),
            Some(4)
        );
        assert_eq!(
            Domain::infer(&r, attrs::ALIVE_AT_1).unwrap().cardinality(),
            Some(3)
        );
    }

    #[test]
    fn verified_dependencies_hold_on_default_seed() {
        let r = echocardiogram();
        for dep in verified_dependencies() {
            assert!(dep.holds(&r).unwrap(), "{dep} should hold");
        }
    }

    #[test]
    fn verified_dependencies_hold_on_other_seeds() {
        for seed in [1u64, 7, 42] {
            let r = echocardiogram_with_seed(seed);
            for dep in verified_dependencies() {
                assert!(dep.holds(&r).unwrap(), "{dep} should hold at seed {seed}");
            }
        }
    }

    #[test]
    fn alive_at_1_has_no_single_attr_fd() {
        // The paper's Table IV marks FDs for attr 12 as NA; the
        // reconstruction guarantees no single-attribute determinant.
        let r = echocardiogram();
        for lhs in 0..13 {
            if lhs == attrs::ALIVE_AT_1 {
                continue;
            }
            assert!(
                !Fd::new(lhs, attrs::ALIVE_AT_1).holds(&r).unwrap(),
                "attr {lhs} should not determine alive_at_1"
            );
        }
    }

    #[test]
    fn mult_has_no_fd_from_fractional_shortening() {
        // Nulls on attr 4 map to random mult values, so only the OD holds.
        let r = echocardiogram();
        assert!(!Fd::new(attrs::FRACTIONAL_SHORTENING, attrs::MULT)
            .holds(&r)
            .unwrap());
        assert!(
            OrderDep::ascending(attrs::FRACTIONAL_SHORTENING, attrs::MULT)
                .holds(&r)
                .unwrap()
        );
    }

    #[test]
    fn predefined_inventory_covers_paper_pattern() {
        let inv = paper_inventory();
        // FDs: continuous 0,2,4,5,6,7,8 present; 9 NA.
        for a in [0, 2, 4, 5, 6, 7, 8] {
            assert!(inv.lookup("FD", a).is_some(), "FD for attr {a}");
        }
        assert!(inv.lookup("FD", attrs::MULT).is_none());
        // FDs: categorical 1,3,11 present; 12 NA.
        for a in [1, 3, 11] {
            assert!(inv.lookup("FD", a).is_some());
        }
        assert!(inv.lookup("FD", attrs::ALIVE_AT_1).is_none());
        // ODs cover every evaluated attribute.
        for a in CONTINUOUS_ATTRS.iter().chain(CATEGORICAL_ATTRS.iter()) {
            assert!(inv.lookup("OD", *a).is_some(), "OD for attr {a}");
        }
        // NDs: only attrs 0 and 1.
        assert!(inv.lookup("ND", attrs::SURVIVAL).is_some());
        assert!(inv.lookup("ND", attrs::STILL_ALIVE).is_some());
        assert!(inv.lookup("ND", attrs::AGE).is_none());
        assert!(inv.lookup("ND", 99).is_none());
        assert!(inv.lookup("XX", 0).is_none());
    }

    #[test]
    fn group_fanout_bounded_for_nd() {
        use mp_metadata::NumericalDep;
        let r = echocardiogram();
        let k = NumericalDep::max_fanout(attrs::GROUP, attrs::SURVIVAL, &r).unwrap();
        assert!(k <= 22, "fanout {k} exceeds planted ND bound");
        // And the bound is meaningful: far fewer than the distinct count.
        assert!(k < r.distinct_count(attrs::SURVIVAL).unwrap());
    }

    #[test]
    fn missing_values_present_where_planted() {
        let r = echocardiogram();
        let nulls = |c: usize| r.column(c).unwrap().iter().filter(|v| v.is_null()).count();
        assert_eq!(nulls(attrs::SURVIVAL), 4);
        assert_eq!(nulls(attrs::STILL_ALIVE), 12);
        assert_eq!(nulls(attrs::FRACTIONAL_SHORTENING), 8);
        assert_eq!(nulls(attrs::AGE), 0);
    }
}
