//! # mp-metadata — metadata model for VFL exchange
//!
//! The metadata artefacts whose sharing the paper *"Will Sharing Metadata
//! Leak Privacy?"* (Zhan & Hai, ICDE 2024) analyses:
//!
//! * [`Fd`], [`Afd`], [`OrderDep`], [`NumericalDep`], [`DifferentialDep`],
//!   [`OrderedFd`] — the dependency classes of §II-A/§IV, each with exact
//!   validation semantics against a relation ([`Dependency::holds`]);
//! * [`DependencyGraph`] — the directed attribute graph the adversary uses
//!   for generation (§V), with topological generation plans;
//! * [`MetadataPackage`] — the wire artefact a party shares: names, kinds,
//!   domains, row count and dependencies;
//! * [`SharePolicy`] — redaction presets for every disclosure level the
//!   paper discusses, including its recommended policy.

#![warn(missing_docs)]

mod attrset;
mod cfd;
mod dependency;
mod distribution;
mod exchange;
mod generalization;
mod graph;
mod mfd;
mod pool;
mod redaction;

pub use attrset::AttrSet;
pub use cfd::{ConditionalFd, PatternCell};
pub use dependency::{
    pli_of_set, Afd, Dependency, DifferentialDep, Fd, NumericalDep, OrderDep, OrderDirection,
    OrderedFd,
};
pub use distribution::Distribution;
pub use exchange::{AttributeMeta, ExchangeError, MetadataPackage, FORMAT_VERSION};
pub use generalization::DomainGeneralization;
pub use graph::{DependencyGraph, PlanStep};
pub use mfd::MetricFd;
pub use pool::PoolError;
pub use redaction::SharePolicy;
