//! # metadata-privacy
//!
//! A Rust reproduction of *"Will Sharing Metadata Leak Privacy?"* (Danning
//! Zhan, Rihan Hai — ICDE 2024): a privacy analysis of exchanging
//! functional-dependency and relaxed-functional-dependency metadata during
//! the setup phase of vertical federated learning.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`relation`] — relational substrate (values, schemas, relations,
//!   domains, stripped partitions, CSV, statistics);
//! * [`metadata`] — FD/RFD dependency types, FD inference, dependency
//!   graphs, exchange packages and redaction policies;
//! * [`discovery`] — TANE-style FD discovery plus AFD/OD/ND/DD/OFD
//!   discovery;
//! * [`synth`] — the metadata adversary and its per-class generators;
//! * [`core`] — privacy definitions, analytical leakage models and the
//!   experiment harness (the paper's contribution);
//! * [`federated`] — VFL substrate: parties, simulated PSI, the exchange
//!   protocol, federated logistic regression;
//! * [`datasets`] — the employee example, the reconstructed
//!   echocardiogram dataset, the fintech scenario, and planted-dependency
//!   synthetic generators.
//!
//! ## Quickstart
//!
//! ```
//! use metadata_privacy::prelude::*;
//!
//! // A party profiles its data and shares metadata under a policy.
//! let real = metadata_privacy::datasets::employee();
//! let profile = DependencyProfile::discover(&real, &ProfileConfig::paper()).unwrap();
//! let package = MetadataPackage::describe("bank", &real, profile.to_dependencies()).unwrap();
//! let shared = SharePolicy::NAMES_AND_DOMAINS.apply(&package);
//!
//! // The receiving party mounts the synthesis attack...
//! let result = run_attack(&real, &shared, false, &ExperimentConfig {
//!     rounds: 50, base_seed: 1, epsilon: 0.0,
//! }).unwrap();
//! // ...and expected leakage follows the paper's N/|D| law.
//! assert!(result.attr(2).unwrap().mean_matches > 0.5); // Department: N/3
//! ```

pub use mp_core as core;
pub use mp_datasets as datasets;
pub use mp_discovery as discovery;
pub use mp_federated as federated;
pub use mp_metadata as metadata;
pub use mp_relation as relation;
pub use mp_synth as synth;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use mp_core::{
        categorical_matches, continuous_matches, leakage_rate, mse, run_attack, run_cell,
        tuple_matches, AttackResult, ExperimentConfig, TextTable,
    };
    pub use mp_discovery::{DependencyProfile, ProfileConfig};
    pub use mp_federated::{run_scenario, MultiPartySession, Party};
    pub use mp_metadata::{
        Afd, AttrSet, ConditionalFd, Dependency, DependencyGraph, DifferentialDep, Distribution,
        DomainGeneralization, Fd, FdSet, InclusionDep, MetadataPackage, MetricFd, NumericalDep,
        OrderDep, OrderedFd, SequentialDep, SharePolicy,
    };
    pub use mp_relation::{AttrKind, Attribute, Domain, Pli, Relation, Schema, Value};
    pub use mp_synth::{Adversary, SynthConfig};
}
