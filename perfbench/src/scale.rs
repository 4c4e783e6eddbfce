//! `scale`: a 250,000-row planted table through streaming ingest and
//! depth-2 TANE under a 16 MB partition budget.
//!
//! The only workload where ingest, PLI builds, intersections and cache
//! eviction do the work, and the only one whose working set exceeds the
//! cache. The budget is a quarter of the million-row setting's 64 MB for
//! a quarter of its rows, so the lattice evicts as often (18 budget
//! evictions), while a sample is short enough for a run to hold dozens.

use crate::profile::{ingest_layers, measure_from_csv, traced_discovery};
use crate::run::{self, Ctx, Measured, Traced};
use crate::sys::{self, ChildSample};
use mp_discovery::{discover_fds_with, DiscoveryContext, MemoryBudget, ParallelConfig, TaneConfig};
use mp_metadata::{Dependency, Fd};
use mp_relation::csv::{self, CsvOptions};
use std::path::Path;
use std::time::Instant;

/// Rows of the planted table.
const ROWS: usize = 250_000;
const BUDGET_MB: usize = 16;
/// Tables an untraced run generates and samples in turn. A sample's
/// peak resident set depends on its table by up to the budget (76 or
/// 92 MB for the tables we tried, on a 2-vCPU host), so a run on one
/// table would report one of two levels by its seed.
const INPUTS: usize = 10;

fn parallel(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        ..ParallelConfig::default()
    }
}

fn tane() -> TaneConfig {
    TaneConfig {
        max_lhs: 2,
        g3_threshold: 0.0,
        ..TaneConfig::default()
    }
}

/// FDs in a canonical, order-independent text form.
fn canonical(fds: &[Fd]) -> String {
    let mut v: Vec<(Vec<usize>, usize)> = fds
        .iter()
        .map(|f| (f.lhs.indices().to_vec(), f.rhs))
        .collect();
    v.sort();
    format!("{v:?}")
}

/// Generates the seeded table and writes it as CSV with the kind row,
/// so the round trip can be bit-identical.
fn write_input(seed: u64, path: &Path) -> Result<mp_datasets::SyntheticRelation, String> {
    let out = mp_datasets::scale_relation(ROWS, seed).map_err(|e| e.to_string())?;
    let text = csv::write_str_with(&out.relation, &CsvOptions::with_kind_row());
    std::fs::write(path, text).map_err(|e| e.to_string())?;
    Ok(out)
}

/// What a correct sample writes: the round-trip verdict and the FDs.
fn artifact(round_trip: bool, fds: &str) -> String {
    format!("round trip identical: {round_trip}\n{fds}")
}

/// The unbudgeted FDs, computed once per seed from the in-memory table,
/// and whether they include every planted FD.
fn reference(ctx: &Ctx, input: &mp_datasets::SyntheticRelation) -> Result<(String, bool), String> {
    let dctx = DiscoveryContext::new(&input.relation, parallel(ctx.threads));
    let fds = discover_fds_with(&dctx, &tane()).map_err(|e| e.to_string())?;
    let planted = input.planted.iter().all(|dep| match dep {
        Dependency::Fd(p) => fds
            .iter()
            .any(|f| f.rhs == p.rhs && f.lhs.is_subset_of(&p.lhs)),
        _ => true,
    });
    if !planted {
        eprintln!("scale: a planted FD is missing from the discovered FDs");
    }
    Ok((artifact(true, &canonical(&fds)), planted))
}

/// Untraced run: see [`measure_from_csv`]. The samples take [`INPUTS`]
/// generated tables in turn.
pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let mut sizes = sizes();
    sizes.push(("inputs", INPUTS as u64));
    measure_from_csv(ctx, ROWS, INPUTS, sizes, write_input, |input| {
        reference(ctx, &input)
    })
}

fn sizes() -> Vec<(&'static str, u64)> {
    vec![
        ("rows", ROWS as u64),
        ("columns", 7),
        ("budget_mb", BUDGET_MB as u64),
    ]
}

/// One timed sample: streaming ingest plus budgeted depth-2 discovery;
/// afterwards (untimed) the table is regenerated to check the round trip.
pub fn child(ctx: &Ctx, artifact_path: &Path, extra: &[String]) -> Result<ChildSample, String> {
    let input = run::input_arg(extra)?;
    let t = Instant::now();
    let relation =
        csv::read_path(input, &CsvOptions::with_kind_row()).map_err(|e| e.to_string())?;
    let fds = {
        let dctx = DiscoveryContext::with_budget(
            &relation,
            parallel(ctx.threads),
            MemoryBudget::from_mb(BUDGET_MB),
        );
        discover_fds_with(&dctx, &tane()).map_err(|e| e.to_string())?
    };
    let op_s = sys::secs(t);
    let rss_mb = sys::peak_rss_mb();
    let generated = mp_datasets::scale_relation(ROWS, ctx.seed).map_err(|e| e.to_string())?;
    let text = artifact(generated.relation == relation, &canonical(&fds));
    std::fs::write(artifact_path, text).map_err(|e| e.to_string())?;
    Ok(ChildSample { op_s, rss_mb })
}

/// Traced run: ingest, single-attribute PLIs on a cold context, then the
/// lattice with its intersections.
pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let csv_path = ctx.work.join("input.csv");
    let input = write_input(ctx.seed, &csv_path)?;
    let (expected, planted) = reference(ctx, &input)?;
    let generated = input.relation;
    let opts = CsvOptions::with_kind_row();
    let run = run::alternate(ctx, |tracer| {
        traced_discovery(tracer, &csv_path, &opts, ctx.threads, BUDGET_MB, |dctx| {
            let fds = tracer
                .span("tane.fd", || discover_fds_with(dctx, &tane()))
                .map_err(|e| e.to_string())?;
            let got = artifact(dctx.relation() == &generated, &canonical(&fds));
            Ok((planted && got == expected, Vec::new()))
        })
    })?;
    let mut layers = ingest_layers(&run);
    layers.push(("tane.fd_s", run.secs("tane.fd")));
    Ok(Traced {
        layers,
        run,
        sizes: sizes(),
    })
}
