//! # mp-discovery — dependency discovery
//!
//! From-scratch discovery of every dependency class the paper analyses
//! (there is no FD-discovery crate in the ecosystem):
//!
//! * [`discover_fds_with`] — TANE-style level-wise FD discovery over
//!   stripped partitions (paper ref \[13\]), with a `g3` threshold for
//!   approximate FDs (refs \[6\], \[14\]) and [`discover_fds_naive`] as
//!   the exhaustive cross-check / ablation baseline;
//! * [`discover_ods_with`] — pairwise order dependencies (§IV-C);
//! * [`discover_nds_with`] — numerical dependencies with tight fanout
//!   bounds (§IV-B);
//! * [`discover_dds_with`] — differential dependencies with tight deltas
//!   (§IV-D);
//! * [`discover_ofds_with`] — ordered functional dependencies (§IV-E);
//! * [`DependencyProfile`] — the one-call orchestrator producing the
//!   dependency inventory a party would attach to its metadata package.
//!
//! Each pass runs against a [`DiscoveryContext`]: one relation, its
//! partition cache and a thread budget, shared by every pass.

#![warn(missing_docs)]

mod cfd;
mod dd;
mod engine;
mod mfd;
mod nd;
mod od;
mod ofd;
mod profiler;
mod tane;

pub use cfd::{discover_cfds, CfdConfig};
pub use dd::{discover_dds_with, tight_delta, DdConfig};
pub use engine::{DiscoveryContext, MemoryBudget, ParallelConfig};
pub use mfd::{
    discover_mfds, discover_sds, discover_variable_cfds, MfdConfig, SdConfig, VariableCfdConfig,
};
pub use nd::{discover_nds_with, NdConfig};
pub use od::{discover_approx_ods, discover_ods_with, od_error, od_violations, OdConfig};
pub use ofd::discover_ofds_with;
pub use profiler::{DependencyProfile, ProfileConfig};
pub use tane::{discover_fds_naive, discover_fds_with, TaneConfig};
