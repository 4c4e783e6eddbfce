//! Bench + smoke harness for the leakage-audit matrix (`mp_core::matrix`).
//!
//! Sweeps the full shipped configuration — echocardiogram, bank and car
//! across every metadata class × share policy × the four adversary
//! models of `mpriv audit --matrix` — in one [`LeakageMatrix::run`], and
//! re-checks the paper's §III-B conclusion (*FDs add no extra leakage
//! over domains*) on the measured cells. Writes `BENCH_audit.json` at the
//! repo root; every field is deterministic (`synth_draws` counts the
//! `synthesize` calls the sweep made). Exits non-zero if the FD claim
//! fails, the matrix comes back empty, or the thread-count determinism
//! contract breaks.
//!
//! Usage: `audit_matrix [rounds]` (default 24).

use mp_core::{LeakageMatrix, MatrixConfig, MatrixDataset};
use mp_observe::{NoopRecorder, Registry};
use mp_synth::AdversaryModel;

const EPSILON: f64 = 0.5;

fn datasets() -> Vec<MatrixDataset> {
    let bank = mp_datasets::bank_table(500);
    let (car_rel, car_deps) = mp_datasets::car_table();
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
            relation: car_rel,
            dependencies: car_deps,
        },
    ]
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("rounds must be a number"))
        .unwrap_or(24);
    let datasets = datasets();
    let config = MatrixConfig {
        rounds,
        epsilon: EPSILON,
        threads: 0,
        adversaries: vec![
            AdversaryModel::Baseline,
            AdversaryModel::PartialAlignment { aligned_pct: 50 },
            AdversaryModel::Collusion { parties: 2 },
            AdversaryModel::NoisyDomains { noise_pct: 10 },
        ],
    };
    let registry = Registry::new();
    let matrix = LeakageMatrix::run(&datasets, &config, &registry).expect("matrix sweep failed");
    let draws = registry.snapshot().counters["matrix.synth.draws"];
    let violations = matrix.fd_adds_no_extra_leakage();
    let fd_clean = violations.is_empty();
    for v in &violations {
        eprintln!("§III-B violation: {v}");
    }

    // Determinism spot-check: one dataset, threads 1 vs 4, byte-compare.
    let det_config = |threads| MatrixConfig {
        rounds: 6,
        epsilon: EPSILON,
        threads,
        adversaries: vec![AdversaryModel::Baseline],
    };
    let ds = &datasets[..1];
    let json_t1 = LeakageMatrix::run(ds, &det_config(1), &NoopRecorder)
        .expect("t1 sweep")
        .to_json();
    let json_t4 = LeakageMatrix::run(ds, &det_config(4), &NoopRecorder)
        .expect("t4 sweep")
        .to_json();
    let deterministic = json_t1 == json_t4;

    let cells = matrix.cells.len();
    let leaking = matrix.cells.iter().filter(|c| c.leaks).count();
    let total_rounds = cells * rounds * 2;
    println!(
        "audit matrix: {cells} cells ({leaking} leaking), {rounds} rounds, \
         {total_rounds} synth rounds, fd clean {fd_clean}, thread-determinism {deterministic}"
    );

    let json = format!(
        "{{\n  \"bench\": \"audit\",\n  \"cells\": {cells},\n  \"rounds\": {rounds},\n  \"synth_rounds\": {total_rounds},\n  \"synth_draws\": {draws},\n  \"fd_no_extra_leakage\": {fd_clean},\n  \"thread_deterministic\": {deterministic},\n  \"leaking_cells\": {leaking},\n  \"schema_version\": 1\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    std::fs::write(path, &json).expect("write BENCH_audit.json");
    println!("wrote {path}");

    if cells == 0 || !fd_clean || !deterministic {
        eprintln!(
            "audit matrix smoke failed: cells {cells}, fd clean {fd_clean}, \
             deterministic {deterministic}"
        );
        std::process::exit(1);
    }
}
