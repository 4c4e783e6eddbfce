//! # mp-synth — the metadata adversary
//!
//! Synthetic-data generators conditioned on shared metadata, implementing
//! the attack model of *"Will Sharing Metadata Leak Privacy?"* (Zhan &
//! Hai, ICDE 2024):
//!
//! * [`DomainPool`] — a shared domain laid out once as a typed column;
//!   [`DomainPool::sample`] is the §III-A random baseline (uniform
//!   generation from a shared domain), and [`sample_distribution`] draws
//!   from an over-shared value distribution;
//! * [`generate_fd_column`] / [`generate_afd_column`] — FD/AFD mapping
//!   generation (§III-B, §IV-A);
//! * [`generate_nd_column`] — hypergeometric k-subset mappings (§IV-B);
//! * [`generate_od_column`] — monotone interval-sequence generation
//!   (§IV-C);
//! * [`generate_dd_column`] — Markov-chain ε/δ-ball generation (§IV-D);
//! * [`generate_ofd_column`] — the directed-random-walk strict mapping
//!   (§IV-E);
//! * [`derive_column`] — the one dependency-class → generator dispatch,
//!   taking determinant columns in [`determinant_order`];
//! * [`Adversary`] — the orchestrator that turns a received
//!   [`mp_metadata::MetadataPackage`] into a full `R_syn`, following the
//!   dependency graph's generation plan.
//!
//! Generators take typed determinant columns and return a typed
//! [`mp_relation::Column`]: a derived column is a table from the
//! determinant's row group ids to images drawn from the dependent's pool,
//! gathered once. Every generator guarantees the generated pair
//! *satisfies* the dependency it was driven by (property-tested), mirroring
//! the paper's premise that the adversary produces data consistent with
//! all shared metadata.

#![warn(missing_docs)]

mod adversary;
mod adversary_model;
mod cfd_gen;
mod interval;
mod mapping;
mod pool;

pub use adversary::{derive_column, determinant_order, Adversary, SynthConfig};
pub use adversary_model::AdversaryModel;
pub use cfd_gen::generate_cfd_column;
pub use interval::{generate_dd_column, generate_od_column};
pub use mapping::{
    generate_afd_column, generate_fd_column, generate_nd_column, generate_ofd_column,
};
pub use pool::{sample_distribution, DomainPool, DEFAULT_BINS};
