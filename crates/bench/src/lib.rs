//! # mp-bench — reproduction harness
//!
//! Library backing the `repro` binary: `repro <target>` regenerates one
//! table, sweep or report and `repro all` every one of them. See
//! DESIGN.md §5 for the experiment index mapping every table/figure and
//! in-text claim to its target. The crate's other binaries write the
//! deterministic `BENCH_*.json` counters CI gates on. Timing lives in the
//! repository benchmark (`perfbench/`), not here.

#![warn(missing_docs)]

pub mod reports;
pub mod sweeps;
pub mod tables;
