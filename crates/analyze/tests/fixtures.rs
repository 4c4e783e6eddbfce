//! Golden-report test over the committed fixture mini-workspace in
//! `tests/fixtures/mini/`: two crates where every violation is only
//! visible interprocedurally — an indirect panic chain, a regression pin
//! for the poisoned-lock chain found in the real workspace, a two-hop
//! determinism taint into a serialization path, a two-lock ordering
//! cycle, and a fuzzed-decoder file whose suppression is ignored — plus
//! a public-surface file for the `pub_items` counter.
//!
//! To regenerate after an intentional diagnostic change:
//!
//! ```text
//! cargo run -p mp-analyze -- --root crates/analyze/tests/fixtures/mini \
//!     --format json > crates/analyze/tests/fixtures/mini.golden.json
//! ```

use std::path::PathBuf;

fn mini_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

fn analyze_mini() -> mp_analyze::diagnostics::Report {
    mp_analyze::analyze(&mini_root(), None).expect("fixture analysis")
}

#[test]
fn fixture_report_matches_golden_json() {
    let rendered = analyze_mini().render_json();
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini.golden.json");
    let golden = std::fs::read_to_string(&golden_path).expect("mini.golden.json is committed");
    assert_eq!(
        rendered, golden,
        "fixture diagnostics drifted from mini.golden.json; \
         regenerate it if the change is intentional (see module docs)"
    );
}

#[test]
fn fixture_chains_cover_every_interprocedural_rule() {
    let report = analyze_mini();
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    for rule in [
        "no-panic-reachable",
        "determinism-taint",
        "lock-order",
        "fuzzed-decoder-no-panic",
    ] {
        assert!(rules.contains(&rule), "fixture lost its {rule} case");
    }
    // Every interprocedural diagnostic carries its full call chain.
    for d in &report.diagnostics {
        if d.rule != "fuzzed-decoder-no-panic" {
            assert!(!d.chain.is_empty(), "{} diagnostic lost its chain", d.rule);
        }
    }
}

#[test]
fn poisoned_lock_regression_stays_pinned() {
    // The real finding this fixture pins: a `lock().expect(..)` panic one
    // crate away from the no-panic scope that calls it — invisible to the
    // lexical rule, caught by propagation.
    let report = analyze_mini();
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "no-panic-reachable" && d.message.contains("registry_len"))
        .expect("the poisoned-lock chain must stay flagged");
    assert!(
        hit.chain.iter().any(|hop| hop.contains("`expect()`")),
        "chain must bottom out at the lock().expect site: {:?}",
        hit.chain
    );
}

#[test]
fn honoured_suppression_stays_silent() {
    // `parse_flag` in fx-app suppresses its unwrap with a reason; outside
    // fuzzed-decoder files that allow must hold.
    let report = analyze_mini();
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.path == "crates/app/src/lib.rs" && d.line == 21),
        "the reasoned allow on parse_flag's unwrap was not honoured"
    );
}

#[test]
fn pub_items_count_bare_pub_declarations_only() {
    // fx-util's lib.rs declares 9 bare-`pub` items; surface.rs adds 6 and
    // holds one each of `pub use`, a `pub` field, `pub(crate)`,
    // `pub(super)` and a `pub fn` in `#[cfg(test)]`, none of which count.
    let report = analyze_mini();
    assert_eq!(report.facts["fx-util"].pub_items, 9 + 6);
    assert_eq!(report.facts["fx-app"].pub_items, 7);
}
