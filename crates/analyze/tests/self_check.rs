//! The linter's own acceptance gate: the workspace at HEAD must be clean
//! under the shipped `analyze.toml`, and the JSON report must be
//! byte-stable across runs (CI diffs two runs of the real binary; this
//! test catches the same regression without leaving the test harness).

use std::path::Path;

/// Workspace root, two levels up from this crate's manifest.
fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels below the workspace root");
    assert!(
        root.join("analyze.toml").is_file(),
        "no analyze.toml at {}",
        root.display()
    );
    root
}

#[test]
fn workspace_head_is_clean_under_shipped_config() {
    let report = mp_analyze::analyze(workspace_root(), None)
        .expect("analysis of the workspace must not error");
    assert!(
        report.is_clean(),
        "mp-analyze found violations at HEAD:\n{}",
        report.render_human()
    );
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let root = workspace_root();
    let first = mp_analyze::analyze(root, None)
        .expect("first run")
        .render_json();
    let second = mp_analyze::analyze(root, None)
        .expect("second run")
        .render_json();
    assert_eq!(
        first, second,
        "two runs over the same tree must render identical bytes"
    );
    assert!(first.contains("\"schema_version\": 2"));
}

#[test]
fn committed_baseline_has_no_regressions() {
    // The shipped analyze-baseline.toml must pass the ratchet at HEAD —
    // otherwise CI's blocking `--ratchet` run and this test disagree.
    let root = workspace_root();
    let report = mp_analyze::analyze(root, None).expect("analysis");
    let text = std::fs::read_to_string(root.join("analyze-baseline.toml"))
        .expect("analyze-baseline.toml is committed");
    let baseline = mp_analyze::ratchet::Baseline::parse(&text).expect("baseline parses");
    let outcome = mp_analyze::ratchet::compare(&baseline, &report.facts);
    assert!(
        outcome.passed(),
        "debt counters rose above the committed baseline:\n{}",
        outcome.regressions.join("\n")
    );
}
