//! # mp-relation — relational substrate
//!
//! The in-memory relational layer underneath the `metadata-privacy`
//! workspace, the Rust reproduction of *"Will Sharing Metadata Leak
//! Privacy?"* (Zhan & Hai, ICDE 2024).
//!
//! It provides:
//!
//! * [`Value`] / [`ValueRef`] — dynamically typed cells (owned and
//!   borrowing views) with a total order suitable for grouping and
//!   sorting;
//! * [`Column`] — typed columnar storage: dictionary-encoded categorical
//!   codes (code 0 = null) and `i64`/`f64` vectors with null bitmaps,
//!   with a boxed fallback for heterogeneous columns;
//! * [`Schema`] / [`Attribute`] / [`AttrKind`] — named, kinded attributes
//!   (the paper's categorical/continuous split);
//! * [`Relation`] — column-oriented tables with typed construction,
//!   projection (vertical partitioning between VFL parties) and row
//!   selection (PSI-aligned intersections);
//! * [`Domain`] — the attribute-domain metadata whose sharing the paper
//!   analyses, with inference from data and the paper's θ probabilities;
//! * [`Pli`] — TANE-style stripped partitions powering dependency
//!   discovery and `g3` error computation;
//! * [`PliCache`] — a thread-safe LRU-bounded memoizing store for
//!   partitions shared across discovery passes;
//! * [`par`] — a minimal order-preserving scoped-thread parallel map;
//! * [`csv`] — a small reader/writer with `?`-as-missing handling;
//! * [`ColumnStats`] / [`Histogram`] — summary statistics for reports.

#![warn(missing_docs)]

mod column;
pub mod csv;
mod domain;
mod error;
pub mod par;
mod partition;
mod pli_cache;
#[allow(clippy::module_inception)]
mod relation;
mod schema;
mod stats;
mod value;

pub use column::{Bitmap, Column};
pub use domain::Domain;
pub use error::{RelationError, Result};
pub use partition::{Pli, Signature};
pub use pli_cache::{PliCache, PliCacheStats};
pub use relation::Relation;
pub use schema::{AttrKind, Attribute, Schema};
pub use stats::{quartiles, ColumnStats, Histogram};
pub use value::{Value, ValueRef};
