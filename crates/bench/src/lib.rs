//! # mp-bench — reproduction harness
//!
//! Library backing the reproduction binaries (`table3`, `table4`,
//! `sweep_*`, `identifiability_report`, `discovery_report`, `repro_all`).
//! See DESIGN.md §5 for the experiment index mapping every table/figure
//! and in-text claim to its regeneration target. Timing lives in the
//! repository benchmark (`perfbench/`), not here.

#![warn(missing_docs)]

pub mod reports;
pub mod sweeps;
pub mod tables;
