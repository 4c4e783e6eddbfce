//! # mp-core — the paper's contribution
//!
//! Privacy definitions, analytical expected-leakage models, and the
//! attack-evaluation harness of *"Will Sharing Metadata Leak Privacy?"*
//! (Zhan & Hai, ICDE 2024):
//!
//! * [`leakage`] — Definitions 2.2/2.3: one per-attribute kernel
//!   ([`attr_matches`]: categorical exact matching, continuous ε-matching,
//!   over any row subset) and one MSE ([`attr_mse`]) behind every
//!   whole-relation count, every Table III/IV cell and every matrix cell;
//! * [`identifiability_rate`] and [`uniqueness_profile`] — Definition
//!   2.1: the share of identifiable tuples and per-attribute uniqueness;
//! * [`analytical`] — the §III/§IV expected-leakage formulas (binomial
//!   random model, FD/AFD mapping model, hypergeometric ND model,
//!   interval-overlap OD model, ε/δ-ball DD model, random-walk OFD model),
//!   each cross-validated against Monte-Carlo generator runs;
//! * [`run_attack`] and [`run_cell`] — the §V harness: multi-round
//!   attacks via [`mp_synth::Adversary`] and the per-cell methodology
//!   behind the paper's Tables III and IV;
//! * [`TextTable`] — plain-text rendering of regenerated tables.

#![warn(missing_docs)]

pub mod analytical;
mod defense;
mod experiment;
mod identifiability;
pub mod leakage;
mod matrix;
mod report;
mod seed;

pub use defense::{bucketize_column, generalize_to_k, k_anonymity};
pub use experiment::{
    run_attack, run_cell, run_cell_with_known_lhs, AttackResult, AttrSummary, ExperimentConfig,
};
pub use identifiability::{identifiability_rate, uniqueness_profile};
pub use leakage::{
    attr_matches, attr_mse, categorical_matches, continuous_matches, measure_all_with, mse,
    AttrLeakage,
};
pub use matrix::{
    LeakageMatrix, MatrixCell, MatrixConfig, MatrixDataset, MatrixPolicy, MetadataClass,
};
pub use report::{na_cell, TextTable};
pub use seed::seed_for;
