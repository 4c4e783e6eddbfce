//! `profile`: what a data owner runs before sharing — `mpriv profile
//! --budget-mb 256` on a 50,000-row planted table read from CSV.
//!
//! The dependency-class passes (DD above all) do nearly all the work;
//! ingest and PLI builds are a few percent and the partitions fit the
//! cache.

use crate::run::{self, Ctx, InputFile, Measured, PassResult, SampleInput, Traced};
use crate::sys::{self, ChildSample};
use crate::trace::Tracer;
use mp_discovery::{
    discover_cfds, discover_dds_with, discover_fds_with, discover_mfds, discover_nds_with,
    discover_ods_with, discover_ofds_with, DependencyProfile, DiscoveryContext, MemoryBudget,
    ParallelConfig, ProfileConfig, TaneConfig,
};
use mp_metadata::{Afd, Dependency};
use mp_observe::{NoopRecorder, Recorder, Registry};
use mp_relation::csv::{self, CsvOptions};
use mp_relation::Relation;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Rows of the planted table.
const ROWS: usize = 50_000;
const BUDGET_MB: usize = 256;

fn parallel(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        ..ParallelConfig::default()
    }
}

/// Generates the seeded table and writes it as CSV without a kind row.
fn write_input(seed: u64, path: &Path) -> Result<mp_datasets::SyntheticRelation, String> {
    let out = mp_datasets::scale_relation(ROWS, seed).map_err(|e| e.to_string())?;
    csv::write_path(&out.relation, path).map_err(|e| e.to_string())?;
    Ok(out)
}

/// Every planted dependency the paper profile can report is in
/// `profile`. The AFD is required only when its measured `g3` is within
/// the profile's AFD threshold.
fn planted_found(
    profile: &DependencyProfile,
    planted: &[Dependency],
    relation: &Relation,
) -> Result<bool, String> {
    let afd_threshold = ProfileConfig::paper().afd_threshold.unwrap_or(0.0);
    for dep in planted {
        let found = match dep {
            Dependency::Fd(fd) => profile
                .fds
                .iter()
                .any(|f| f.rhs == fd.rhs && f.lhs.is_subset_of(&fd.lhs)),
            Dependency::Od(od) => profile.ods.contains(od),
            Dependency::Nd(nd) => profile
                .nds
                .iter()
                .any(|n| n.lhs == nd.lhs && n.rhs == nd.rhs && n.k <= nd.k),
            Dependency::Afd(Afd { fd, .. }) => {
                let g3 = fd.g3_error(relation).map_err(|e| e.to_string())?;
                g3 > afd_threshold
                    || profile
                        .afds
                        .iter()
                        .any(|a| a.fd.rhs == fd.rhs && a.fd.lhs.is_subset_of(&fd.lhs))
                    || profile
                        .fds
                        .iter()
                        .any(|f| f.rhs == fd.rhs && f.lhs.is_subset_of(&fd.lhs))
            }
            _ => true,
        };
        if !found {
            eprintln!("profile: planted {dep} not found");
            return Ok(false);
        }
    }
    Ok(true)
}

/// The reference profile, computed once per seed from the in-memory
/// table (no CSV, no budget), and whether it holds the planted set.
fn reference(input: &mp_datasets::SyntheticRelation) -> Result<(String, bool), String> {
    let profile = DependencyProfile::discover(&input.relation, &ProfileConfig::paper())
        .map_err(|e| e.to_string())?;
    let planted = planted_found(&profile, &input.planted, &input.relation)?;
    Ok((format!("{profile:?}"), planted))
}

/// Untraced run: see [`measure_from_csv`].
pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    measure_from_csv(
        ctx,
        ROWS,
        1,
        vec![("rows", ROWS as u64), ("columns", 7)],
        write_input,
        |input| reference(&input),
    )
}

/// The seed of input `i` of a run at `seed` that takes its samples from
/// `inputs` generated tables: a single input uses `seed` itself, and
/// several use `seed × inputs + i`, so runs at different seeds share no
/// table.
fn input_seed(seed: u64, inputs: usize, i: usize) -> u64 {
    match inputs {
        0 | 1 => seed,
        n => seed.wrapping_mul(n as u64).wrapping_add(i as u64),
    }
}

/// The untraced run of the two discovery workloads. Each timed set-up
/// generates a table and writes it as a fresh CSV (`write`, given the
/// table's seed); the first `inputs` set-ups are kept, one generated
/// table each (see [`input_seed`]). `reference` turns a kept table into
/// the output every sample of it must write, and says whether the
/// planted dependencies were found; each sample reads one kept CSV, in
/// turn, in its own process.
pub fn measure_from_csv<T>(
    ctx: &Ctx,
    rows: usize,
    inputs: usize,
    sizes: Vec<(&'static str, u64)>,
    mut write: impl FnMut(u64, &Path) -> Result<T, String>,
    mut reference: impl FnMut(T) -> Result<(String, bool), String>,
) -> Result<Measured, String> {
    let mut written = 0;
    let (setup_s, kept) = run::timed_setups(inputs, |i| {
        written += 1;
        let seed = input_seed(ctx.seed, inputs, i);
        let file = InputFile(ctx.work.join(format!("input-{written}.csv")));
        write(seed, &file.0).map(|generated| (seed, file, generated))
    })?;
    let mut planted = true;
    let mut files = Vec::new();
    let mut sample_inputs = Vec::new();
    for (seed, file, generated) in kept {
        let (expected, found) = reference(generated)?;
        planted &= found;
        sample_inputs.push(SampleInput {
            seed,
            args: file.child_args(),
            expected: expected.into_bytes(),
        });
        files.push(file);
    }
    let mut run = run::child_samples(ctx, ctx.seconds, &sample_inputs)?;
    drop(files);
    if !planted {
        run.outcomes.failed = run.outcomes.attempted;
    }
    let named = run::per_second("rows_per_s", "rows/s", rows, &run.op_s());
    Ok(run.into_measured(setup_s, sizes, vec![named]))
}

/// One timed sample: read the CSV and profile it under the budget.
pub fn child(ctx: &Ctx, artifact: &Path, extra: &[String]) -> Result<ChildSample, String> {
    let input = run::input_arg(extra)?;
    let t = Instant::now();
    let relation = csv::read_path(input, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let dctx = DiscoveryContext::with_budget(
        &relation,
        parallel(ctx.threads),
        MemoryBudget::from_mb(BUDGET_MB),
    );
    let profile = DependencyProfile::discover_with(&dctx, &ProfileConfig::paper())
        .map_err(|e| e.to_string())?;
    let op_s = sys::secs(t);
    std::fs::write(artifact, format!("{profile:?}")).map_err(|e| e.to_string())?;
    Ok(ChildSample {
        op_s,
        rss_mb: sys::peak_rss_mb(),
    })
}

/// The profiler's passes, called one by one on one shared context in the
/// profiler's order, each inside its own span.
fn traced_profile(
    ctx: &DiscoveryContext<'_>,
    tracer: &Tracer,
) -> Result<DependencyProfile, String> {
    let config = ProfileConfig::paper();
    let relation = ctx.relation();
    let err = |e: mp_relation::RelationError| e.to_string();
    let fds = tracer
        .span("discovery.fds", || discover_fds_with(ctx, &config.fd))
        .map_err(err)?;
    let afds = match config.afd_threshold {
        Some(eps) if eps > 0.0 => {
            let approx = tracer
                .span("discovery.afds", || {
                    discover_fds_with(
                        ctx,
                        &TaneConfig {
                            g3_threshold: eps,
                            ..config.fd.clone()
                        },
                    )
                })
                .map_err(err)?;
            approx
                .into_iter()
                .filter(|f| {
                    !fds.iter()
                        .any(|e| e.rhs == f.rhs && e.lhs.is_subset_of(&f.lhs))
                })
                .map(|f| Afd {
                    fd: f,
                    g3_threshold: eps,
                })
                .collect()
        }
        _ => Vec::new(),
    };
    let ods = tracer
        .span("discovery.ods", || discover_ods_with(ctx, &config.od))
        .map_err(err)?;
    let nds = tracer
        .span("discovery.nds", || discover_nds_with(ctx, &config.nd))
        .map_err(err)?;
    let dds = match &config.dd {
        Some(cfg) => tracer
            .span("discovery.dds", || discover_dds_with(ctx, cfg))
            .map_err(err)?,
        None => Vec::new(),
    };
    let ofds = match config.ofds {
        true => tracer
            .span("discovery.ofds", || discover_ofds_with(ctx, true))
            .map_err(err)?,
        false => Vec::new(),
    };
    let cfds = match &config.cfd {
        Some(cfg) => tracer
            .span("discovery.cfds", || discover_cfds(relation, cfg))
            .map_err(err)?,
        None => Vec::new(),
    };
    let mfds = match &config.mfd {
        Some(cfg) => tracer
            .span("discovery.mfds", || discover_mfds(relation, cfg))
            .map_err(err)?,
        None => Vec::new(),
    };
    Ok(DependencyProfile {
        fds,
        afds,
        ods,
        nds,
        dds,
        ofds,
        cfds,
        mfds,
    })
}

/// The profiler's passes in its order: span name, time metric and
/// dependency-count metric.
const PASSES: [(&str, &str, &str); 8] = [
    ("discovery.fds", "discovery.fds_s", "discovery.deps.fds"),
    ("discovery.afds", "discovery.afds_s", "discovery.deps.afds"),
    ("discovery.ods", "discovery.ods_s", "discovery.deps.ods"),
    ("discovery.nds", "discovery.nds_s", "discovery.deps.nds"),
    ("discovery.dds", "discovery.dds_s", "discovery.deps.dds"),
    ("discovery.ofds", "discovery.ofds_s", "discovery.deps.ofds"),
    ("discovery.cfds", "discovery.cfds_s", "discovery.deps.cfds"),
    ("discovery.mfds", "discovery.mfds_s", "discovery.deps.mfds"),
];

/// Traced run: CSV ingest, single-attribute PLIs, then every pass.
pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let csv_path = ctx.work.join("input.csv");
    let input = write_input(ctx.seed, &csv_path)?;
    let (expected, planted) = reference(&input)?;
    drop(input);
    let opts = CsvOptions::default();
    let run = run::alternate(ctx, |tracer| {
        traced_discovery(tracer, &csv_path, &opts, ctx.threads, BUDGET_MB, |dctx| {
            let p = traced_profile(dctx, tracer)?;
            let found = [
                p.fds.len(),
                p.afds.len(),
                p.ods.len(),
                p.nds.len(),
                p.dds.len(),
                p.ofds.len(),
                p.cfds.len(),
                p.mfds.len(),
            ];
            let deps = PASSES
                .iter()
                .zip(found)
                .map(|(&(_, _, d), n)| (d, n as f64));
            Ok((planted && format!("{p:?}") == expected, deps.collect()))
        })
    })?;
    let mut layers = ingest_layers(&run);
    for (span, time, deps) in PASSES {
        layers.extend([(time, run.secs(span)), (deps, run.value(deps))]);
    }
    Ok(Traced {
        layers,
        run,
        sizes: vec![("rows", ROWS as u64), ("columns", 7)],
    })
}

/// One traced pass of a discovery workload: ingest `csv_path` (span
/// `csv.ingest`), build every single-attribute PLI of a cold context
/// under `budget_mb` (span `pli.single_build`), then run `discover` on
/// that context. Adds the ingest, partition, cache and candidate
/// counters to what `discover` returns.
pub fn traced_discovery(
    tracer: &Tracer,
    csv_path: &Path,
    opts: &CsvOptions,
    threads: usize,
    budget_mb: usize,
    discover: impl FnOnce(&DiscoveryContext<'_>) -> PassResult,
) -> PassResult {
    let registry = Arc::new(Registry::new());
    let recorder: Arc<dyn Recorder> = match tracer.is_enabled() {
        true => registry.clone(),
        false => Arc::new(NoopRecorder),
    };
    let relation = tracer
        .span("csv.ingest", || {
            csv::read_path_observed(csv_path, opts, recorder.as_ref())
        })
        .map_err(|e| e.to_string())?;
    let dctx = DiscoveryContext::instrumented_with_budget(
        &relation,
        parallel(threads),
        MemoryBudget::from_mb(budget_mb),
        recorder,
    );
    tracer
        .span("pli.single_build", || {
            (0..relation.arity()).try_for_each(|a| dctx.pli_of_single(a).map(drop))
        })
        .map_err(|e| e.to_string())?;
    let (ok, mut values) = discover(&dctx)?;
    let snapshot = registry.snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let stats = dctx.cache_stats();
    values.extend([
        ("csv.records", counter("ingest.records")),
        ("csv.chunks", counter("ingest.chunks")),
        ("csv.bytes", counter("ingest.bytes")),
        ("pli.builds", counter("discovery.pli.builds")),
        (
            "pli.sharded_builds",
            counter("discovery.pli.sharded_builds"),
        ),
        ("tane.candidates", counter("discovery.candidates.tested")),
        ("pli_cache.hit_rate", stats.hit_rate()),
        ("pli_cache.budget_evictions", stats.budget_evictions as f64),
        (
            "pli_cache.resident_mb",
            stats.bytes as f64 / (1024.0 * 1024.0),
        ),
    ]);
    Ok((ok, values))
}

/// The ingest, partition and cache layers both discovery workloads report.
pub fn ingest_layers(run: &run::TraceLoop) -> Vec<(&'static str, f64)> {
    let ingest_s = run.secs("csv.ingest");
    vec![
        ("csv.ingest_s", ingest_s),
        (
            "csv.mb_per_s",
            run.value("csv.bytes") / (1024.0 * 1024.0) / ingest_s.max(f64::MIN_POSITIVE),
        ),
        ("csv.records", run.value("csv.records")),
        ("csv.chunks", run.value("csv.chunks")),
        ("pli.single_build_s", run.secs("pli.single_build")),
        ("pli.builds", run.value("pli.builds")),
        ("pli.sharded_builds", run.value("pli.sharded_builds")),
        ("pli_cache.hit_rate", run.value("pli_cache.hit_rate")),
        (
            "pli_cache.budget_evictions",
            run.value("pli_cache.budget_evictions"),
        ),
        ("pli_cache.resident_mb", run.value("pli_cache.resident_mb")),
        ("tane.candidates", run.value("tane.candidates")),
    ]
}

#[cfg(test)]
mod tests {
    use super::input_seed;

    #[test]
    fn input_seeds_are_disjoint_across_run_seeds() {
        assert_eq!(input_seed(7, 1, 0), 7);
        let run = |seed| (0..5).map(|i| input_seed(seed, 5, i)).collect::<Vec<_>>();
        assert_eq!(run(7), vec![35, 36, 37, 38, 39]);
        assert!(run(8).iter().all(|s| !run(7).contains(s)));
    }
}
