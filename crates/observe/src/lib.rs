//! # mp-observe — deterministic observability substrate
//!
//! Counters, gauges, fixed-bucket histograms and hierarchical span timers
//! for the `metadata-privacy` workspace, with no dependencies outside the
//! standard library (the build environment has no crates.io access, so
//! this crate is vendored-style like everything under `vendor/`).
//!
//! ## Design
//!
//! * **Handles, not names, on the hot path.** Instrumented code resolves a
//!   [`Counter`] / [`Gauge`] / [`Histogram`] / [`Span`] handle *once* from
//!   a [`Recorder`] and then updates it with a single relaxed atomic
//!   operation. The [`NoopRecorder`] hands out detached handles whose
//!   update methods branch on a `None` and compile to (almost) nothing, so
//!   un-instrumented runs pay no observable cost.
//! * **One source of truth.** A [`Registry`] is the live [`Recorder`]: it
//!   interns every named metric and serves the same `Arc`'d atomics to all
//!   requesters, so component-local statistics (e.g. the PLI cache's
//!   hit/miss counters) and the exported snapshot read identical state.
//! * **Determinism contract.** Snapshots never contain wall-clock values.
//!   Span timers measure *logical units* from the registry's virtual
//!   clock: discovery advances it one unit per partition built, the
//!   protocol simulator drives it from the transport's tick clock. Under a
//!   fixed seed (and sequential evaluation) a snapshot is therefore
//!   byte-reproducible across runs and machines — see
//!   [`Snapshot::to_json`].
//!
//! ## Metric naming scheme
//!
//! Dot-separated lowercase paths, `<layer>.<component>.<metric>`:
//! `pli_cache.hits`, `discovery.pli.builds`, `transport.party.0.sent`,
//! `protocol.retransmits`, `core.leakage.cells_compared`. Span names use
//! the same scheme with the spanned phase last: `discovery.pass.fds`,
//! `protocol.setup`. Hierarchy is expressed by path prefix.

#![warn(missing_docs)]

mod metrics;
mod recorder;
mod snapshot;

pub use metrics::{Counter, Gauge, Histogram, Span, SpanGuard};
pub use recorder::{Clock, NoopRecorder, Recorder, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
