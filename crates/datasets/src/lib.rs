//! # mp-datasets — datasets for the metadata-privacy reproduction
//!
//! * [`employee`] — the paper's Table II running example;
//! * [`echocardiogram()`](fn@echocardiogram) — a deterministic reconstruction of the UCI
//!   echocardiogram dataset the paper evaluates on (see the module docs and
//!   DESIGN.md §4 for the substitution argument), plus the per-attribute
//!   dependency inventory ([`paper_inventory`]) that regenerates the `NA`
//!   pattern of Tables III and IV;
//! * [`fintech_scenario`] — the Figure 1 bank × e-commerce VFL scenario;
//! * [`all_classes_spec`] and [`scale_relation`] — one seven-column layout
//!   with planted FD/AFD/OD/ND ground truth, drawn at test scale for
//!   discovery tests and at million-row scale for the scale benches.

#![warn(missing_docs)]

mod bank;
mod car;
pub mod echocardiogram;
mod employee;
mod fintech;
mod iris;
mod planted;

pub use bank::bank_table;
pub use car::car_table;
pub use echocardiogram::{
    echocardiogram, paper_inventory, verified_dependencies, PaperInventory, CATEGORICAL_ATTRS,
    CONTINUOUS_ATTRS,
};
pub use employee::{attrs as employee_attrs, employee};
pub use fintech::{fintech_scenario, FintechParty, FintechScenario};
pub use iris::iris_like;
pub use planted::{all_classes_spec, scale_relation, SyntheticRelation, SyntheticSpec};
