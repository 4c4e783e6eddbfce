//! Golden regression tests for `mpriv audit --matrix`.
//!
//! The leakage matrix is the PR's reproducibility contract: for a fixed
//! `(datasets, adversaries, rounds, epsilon)` configuration every cell is
//! seeded from its own coordinate (`mp_core::seed_for`), so the JSON and
//! markdown artefacts are byte-reproducible — across repeated runs *and*
//! across worker-thread counts, because the sweep order is fixed and
//! `par_map` preserves it. These tests pin the echocardiogram matrix
//! against golden files, pin the full default matrix (all three datasets,
//! all 420 cells) by hash, and assert both halves of that contract.
//!
//! To regenerate after an *intentional* change:
//! `cargo run -p mp-cli --bin mpriv -- audit --matrix --datasets echocardiogram \
//!    --adversaries baseline,partial50,collude2,noisy10 --rounds 12 \
//!    --out crates/cli/tests/golden/matrix_echo.json \
//!    --md crates/cli/tests/golden/matrix_echo.md`

use std::path::{Path, PathBuf};
use std::process::Command;

const ARGS: [&str; 8] = [
    "audit",
    "--matrix",
    "--datasets",
    "echocardiogram",
    "--adversaries",
    "baseline,partial50,collude2,noisy10",
    "--rounds",
    "12",
];

fn mpriv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpriv"))
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mpriv-matrix-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs the pinned matrix configuration with `--out`/`--md` sinks and
/// returns `(stdout, json, markdown)`.
fn run_matrix(extra: &[&str], tag: &str) -> (String, String, String) {
    run_args(&[&ARGS[..], extra].concat(), tag)
}

/// Runs `mpriv` with `args` plus `--out`/`--md` sinks and returns
/// `(stdout, json, markdown)`.
fn run_args(args: &[&str], tag: &str) -> (String, String, String) {
    let json_path = tmp(&format!("{tag}.json"));
    let md_path = tmp(&format!("{tag}.md"));
    let output = mpriv()
        .args(args)
        .arg("--out")
        .arg(&json_path)
        .arg("--md")
        .arg(&md_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "matrix run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8(output.stdout).unwrap(),
        std::fs::read_to_string(&json_path).unwrap(),
        std::fs::read_to_string(&md_path).unwrap(),
    )
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).unwrap()
}

/// FNV-1a-64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The default matrix — echocardiogram, bank and car × 7 classes × 5
/// policies × the 4 default adversaries, 420 cells — at 8 rounds, pinned
/// by FNV-1a-64 and byte length. The echocardiogram golden above covers
/// 140 of these cells; this is the byte-level pin on the other 280.
/// Regenerate with `mpriv audit --matrix --rounds 8 --out m.json --md m.md`.
#[test]
fn default_matrix_pins_all_420_cells() {
    let (stdout, json, md) = run_args(&["audit", "--matrix", "--rounds", "8"], "all");
    assert_eq!(json.matches("\"dataset\": ").count(), 420);
    assert_eq!(
        (fnv1a64(json.as_bytes()), json.len()),
        (0x19a2_a3e3_4404_d0fa, 128_453),
        "default matrix JSON drifted; regenerate the pin if intended"
    );
    assert_eq!(
        (fnv1a64(md.as_bytes()), md.len()),
        (0xea3f_62f3_c484_02a2, 8_027),
        "default matrix markdown drifted; regenerate the pin if intended"
    );
    assert_eq!(stdout, md, "stdout must be exactly the markdown artefact");
}

#[test]
fn echocardiogram_matrix_matches_golden_json_and_markdown() {
    let (stdout, json, md) = run_matrix(&[], "echo");
    assert_eq!(
        json,
        golden("golden/matrix_echo.json"),
        "matrix JSON drifted from golden/matrix_echo.json; regenerate if intended"
    );
    assert_eq!(
        md,
        golden("golden/matrix_echo.md"),
        "matrix markdown drifted from golden/matrix_echo.md; regenerate if intended"
    );
    assert_eq!(stdout, md, "stdout must be exactly the markdown artefact");
}

#[test]
fn matrix_is_byte_identical_across_thread_counts() {
    let (stdout1, json1, md1) = run_matrix(&["--threads", "1"], "t1");
    let (stdout4, json4, md4) = run_matrix(&["--threads", "4"], "t4");
    assert_eq!(json1, json4, "JSON must not depend on worker-thread count");
    assert_eq!(md1, md4, "markdown must not depend on worker-thread count");
    assert_eq!(stdout1, stdout4);
    // The thread-count runs must also agree with the default (0 = auto).
    assert_eq!(json1, golden("golden/matrix_echo.json"));
}

#[test]
fn matrix_is_byte_identical_across_repeated_runs() {
    let (_, json_a, md_a) = run_matrix(&[], "rep-a");
    let (_, json_b, md_b) = run_matrix(&[], "rep-b");
    assert_eq!(json_a, json_b, "repeated runs must reproduce the JSON");
    assert_eq!(md_a, md_b, "repeated runs must reproduce the markdown");
}

#[test]
fn metrics_json_does_not_perturb_the_matrix_report() {
    let plain = mpriv().args(ARGS).output().unwrap();
    let metrics_path = tmp("metrics.json");
    let observed = mpriv()
        .args(ARGS)
        .arg("--metrics-json")
        .arg(&metrics_path)
        .output()
        .unwrap();
    assert!(plain.status.success());
    assert!(observed.status.success());
    assert_eq!(
        plain.stdout, observed.stdout,
        "--metrics-json must not perturb the matrix report"
    );
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    // 1 dataset × 4 adversaries × 7 classes × 5 policies = 140 cells.
    assert!(
        metrics.contains("\"matrix.cells\": 140"),
        "metrics snapshot missing the cell counter: {metrics}"
    );
    assert!(metrics.contains("\"matrix.synth.rounds\""));
}

#[test]
fn matrix_rejects_unknown_dataset_and_adversary() {
    let bad_ds = mpriv()
        .args(["audit", "--matrix", "--datasets", "no-such-table"])
        .output()
        .unwrap();
    assert!(!bad_ds.status.success());
    assert!(String::from_utf8_lossy(&bad_ds.stderr).contains("no-such-table"));
    let bad_adv = mpriv()
        .args(["audit", "--matrix", "--adversaries", "psychic"])
        .output()
        .unwrap();
    assert!(!bad_adv.status.success());
    assert!(String::from_utf8_lossy(&bad_adv.stderr).contains("psychic"));
}
