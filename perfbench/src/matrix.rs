//! `matrix`: the shipped `mpriv audit --matrix` sweep — echocardiogram,
//! bank (500 customers) and car × 7 metadata classes × 5 policies × 4
//! adversaries, 420 cells at 40 rounds and ε = 0.5.
//!
//! Synthesis and scoring do nearly all the work, over many small tables,
//! with no ingest or discovery. The inputs are fixed; the seed does not
//! change them.

use crate::run::{self, Ctx, Measured, SampleInput, Traced};
use crate::sys::{self, ChildSample};
use crate::trace::Tracer;
use mp_core::leakage::measure_all_with;
use mp_core::{LeakageMatrix, MatrixConfig, MatrixDataset, MatrixPolicy, MetadataClass};
use mp_metadata::MetadataPackage;
use mp_observe::{NoopRecorder, Recorder, Registry};
use mp_synth::{Adversary, AdversaryModel, SynthConfig};
use std::path::Path;
use std::time::Instant;

const ROUNDS: usize = 40;
const EPSILON: f64 = 0.5;
/// Cells in the sweep: 3 datasets × 4 adversaries × 7 classes × 5 policies.
const CELLS: usize = 420;

fn adversaries() -> Vec<AdversaryModel> {
    vec![
        AdversaryModel::Baseline,
        AdversaryModel::PartialAlignment { aligned_pct: 50 },
        AdversaryModel::Collusion { parties: 2 },
        AdversaryModel::NoisyDomains { noise_pct: 10 },
    ]
}

fn config(threads: usize) -> MatrixConfig {
    MatrixConfig {
        rounds: ROUNDS,
        epsilon: EPSILON,
        threads,
        adversaries: adversaries(),
    }
}

/// The three datasets `mpriv audit --matrix` sweeps by default.
fn datasets() -> Vec<MatrixDataset> {
    let bank = mp_datasets::bank_table(500);
    let (car, car_deps) = mp_datasets::car_table();
    vec![
        MatrixDataset {
            name: "echocardiogram".to_owned(),
            relation: mp_datasets::echocardiogram(),
            dependencies: mp_datasets::verified_dependencies(),
        },
        MatrixDataset {
            name: "bank".to_owned(),
            relation: bank.relation,
            dependencies: bank.dependencies,
        },
        MatrixDataset {
            name: "car".to_owned(),
            relation: car,
            dependencies: car_deps,
        },
    ]
}

/// What a sweep writes: its JSON, plus a marker when the paper's
/// "FDs add no extra leakage" claim fails on any cell.
fn artifact(matrix: &LeakageMatrix) -> String {
    let violations = matrix.fd_adds_no_extra_leakage();
    let mut out = matrix.to_json();
    for v in violations {
        out.push_str(&format!("\nFD claim violated: {v}"));
    }
    out
}

fn sweep(
    datasets: &[MatrixDataset],
    threads: usize,
    recorder: &dyn Recorder,
) -> Result<LeakageMatrix, String> {
    LeakageMatrix::run(datasets, &config(threads), recorder).map_err(|e| e.to_string())
}

/// Untraced run: the reference is a `threads: 1` sweep; every timed
/// sample (a `threads: nproc` sweep in its own process) must reproduce
/// its JSON byte for byte.
pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (setup_s, mut kept) = run::timed_setups(1, |_| Ok(datasets()))?;
    let datasets = kept.swap_remove(0);
    let input = SampleInput {
        seed: ctx.seed,
        args: Vec::new(),
        expected: artifact(&sweep(&datasets, 1, &NoopRecorder)?).into_bytes(),
    };
    let run = run::child_samples(ctx, ctx.seconds, &[input])?;
    let named = run::per_second("cells_per_s", "cells/s", CELLS, &run.op_s());
    Ok(run.into_measured(setup_s, sizes(&datasets), vec![named]))
}

fn sizes(datasets: &[MatrixDataset]) -> Vec<(&'static str, u64)> {
    let rows = |i: usize| datasets[i].relation.n_rows() as u64;
    vec![
        ("cells", CELLS as u64),
        ("rounds", ROUNDS as u64),
        ("echocardiogram_rows", rows(0)),
        ("bank_rows", rows(1)),
        ("car_rows", rows(2)),
    ]
}

/// One timed sample: one full sweep.
pub fn child(ctx: &Ctx, artifact_path: &Path, _extra: &[String]) -> Result<ChildSample, String> {
    let datasets = datasets();
    let t = Instant::now();
    let matrix = sweep(&datasets, ctx.threads, &NoopRecorder)?;
    let op_s = sys::secs(t);
    std::fs::write(artifact_path, artifact(&matrix)).map_err(|e| e.to_string())?;
    Ok(ChildSample {
        op_s,
        rss_mb: sys::peak_rss_mb(),
    })
}

/// Replays one cell's pipeline through the public calls and returns its
/// (empirical, random baseline) leakage. Only fully aligned adversaries
/// are replayed: partial alignment scores a row subset the matrix picks
/// internally.
fn replay_cell(
    dataset: &MatrixDataset,
    class: MetadataClass,
    policy: MatrixPolicy,
    adversary: AdversaryModel,
    tracer: &Tracer,
    recorder: &dyn Recorder,
    synthesized_rows: &mut u64,
) -> Result<(f64, f64), String> {
    let relation = &dataset.relation;
    let n = relation.n_rows();
    let wanted = class.label().to_uppercase();
    let deps = match class {
        MetadataClass::DomainsOnly => Vec::new(),
        _ => dataset
            .dependencies
            .iter()
            .filter(|d| d.class() == wanted)
            .cloned()
            .collect(),
    };
    let package = tracer
        .span("metadata.describe", || {
            MetadataPackage::describe(dataset.name.clone(), relation, deps)
        })
        .map_err(|e| e.to_string())?;
    let shared = tracer.span("metadata.redact", || policy.apply(&package));
    let effective = tracer.span("metadata.view", || adversary.shared_package(&shared))?;
    let attacker = Adversary::new(effective);
    let policy_label = format!("{}/{}", class.label(), policy.label());
    let generation = adversary.generation_label();
    let (mut leaked, mut leaked_random) = (0.0, 0.0);
    for round in 0..ROUNDS {
        let seed = mp_core::seed_for(&dataset.name, &policy_label, &generation, round as u64);
        let mut score = |use_dependencies: bool| -> Result<f64, String> {
            let synthetic = tracer
                .span("synth.synthesize", || {
                    attacker.synthesize(&SynthConfig {
                        n_rows: n,
                        seed,
                        use_dependencies,
                    })
                })
                .map_err(|e| e.to_string())?;
            *synthesized_rows += n as u64;
            let per_attr = tracer
                .span("leakage.score", || {
                    measure_all_with(relation, &synthetic, EPSILON, recorder)
                })
                .map_err(|e| e.to_string())?;
            Ok(per_attr.iter().map(|a| a.matches).sum())
        };
        leaked += score(true)?;
        leaked_random += score(false)?;
    }
    let rounds = ROUNDS as f64;
    Ok((leaked / rounds, leaked_random / rounds))
}

/// Traced run: the cell pipeline replayed single-threaded, each public
/// call in its own span; every replayed cell must reproduce the matrix's
/// empirical and random-baseline values exactly.
pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let datasets = datasets();
    let registry = Registry::new();
    let matrix = sweep(&datasets, ctx.threads, &registry)?;
    let synth_rounds = registry
        .snapshot()
        .counters
        .get("matrix.synth.rounds")
        .copied()
        .unwrap_or(0) as f64;
    let claim_holds = matrix.fd_adds_no_extra_leakage().is_empty();
    let run = run::alternate(ctx, |tracer| {
        let registry = Registry::new();
        let recorder: &dyn Recorder = match tracer.is_enabled() {
            true => &registry,
            false => &NoopRecorder,
        };
        let mut ok = claim_holds;
        let mut synthesized_rows = 0u64;
        for dataset in &datasets {
            for adversary in adversaries().into_iter().filter(|a| a.aligned_pct() == 100) {
                for class in MetadataClass::ALL {
                    for policy in MatrixPolicy::ALL {
                        let (empirical, random) = replay_cell(
                            dataset,
                            class,
                            policy,
                            adversary,
                            tracer,
                            recorder,
                            &mut synthesized_rows,
                        )?;
                        let cell = matrix.find(
                            &dataset.name,
                            class.label(),
                            policy.label(),
                            &adversary.label(),
                        );
                        ok &= cell.is_some_and(|c| {
                            c.empirical == empirical && c.random_baseline == random
                        });
                    }
                }
            }
        }
        let cells_compared = registry
            .snapshot()
            .counters
            .get("core.leakage.cells_compared")
            .copied()
            .unwrap_or(0) as f64;
        Ok((
            ok,
            vec![
                ("synth.rows", synthesized_rows as f64),
                ("leakage.cells_compared", cells_compared),
            ],
        ))
    })?;
    let synth_s = run.secs("synth.synthesize");
    let layers = vec![
        ("metadata.describe_s", run.secs("metadata.describe")),
        ("metadata.redact_s", run.secs("metadata.redact")),
        ("metadata.view_s", run.secs("metadata.view")),
        ("synth.synthesize_s", synth_s),
        (
            "synth.rows_per_s",
            run.value("synth.rows") / synth_s.max(f64::MIN_POSITIVE),
        ),
        ("leakage.score_s", run.secs("leakage.score")),
        (
            "leakage.cells_compared",
            run.value("leakage.cells_compared"),
        ),
        ("matrix.synth_rounds", synth_rounds),
    ];
    Ok(Traced {
        layers,
        run,
        sizes: sizes(&datasets),
    })
}
