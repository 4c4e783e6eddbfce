//! Golden regression tests for the `repro` binary.
//!
//! `repro table3` / `repro table4` regenerate the paper's Tables III/IV
//! from the echocardiogram dataset with seeded attack rounds, so their
//! output is byte-deterministic for a fixed round count. These tests pin
//! the exact output at `rounds = 25` against checked-in golden files —
//! any drift in the dataset loader, dependency discovery, synthesis attack
//! or table formatting shows up as a diff here. Every other target (the
//! sweeps and reports, and the tables at their default 200 rounds) is
//! pinned through `repro all` by FNV-1a-64 and byte length.
//!
//! To regenerate after an *intentional* change:
//! `cargo run -p mp-bench --bin repro -- table3 25 > crates/bench/tests/golden/table3_rounds25.txt`
//! (and likewise for `table4`).

use std::process::{Command, Output};

const ROUNDS: &str = "25";

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap()
}

fn run(target: &str, golden: &str) {
    let out = repro(&[target, ROUNDS]);
    assert!(
        out.status.success(),
        "repro {target} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).unwrap();
    let want = std::fs::read_to_string(golden).unwrap();
    assert_eq!(
        got, want,
        "output of repro {target} drifted from {golden}; regenerate the golden file if the change is intended"
    );
}

/// FNV-1a-64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn table3_matches_golden_output() {
    run(
        "table3",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/table3_rounds25.txt"
        ),
    );
}

#[test]
fn table4_matches_golden_output() {
    run(
        "table4",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/table4_rounds25.txt"
        ),
    );
}

#[test]
fn table_binaries_are_run_to_run_deterministic() {
    for target in ["table3", "table4"] {
        let a = repro(&[target, ROUNDS]);
        let b = repro(&[target, ROUNDS]);
        assert_eq!(
            a.stdout, b.stdout,
            "repro {target} output varies across runs"
        );
    }
}

/// Every target's output with no arguments, in `repro all` order, pinned
/// by FNV-1a-64 and byte length. Each section of `repro all` is exactly
/// what `repro <target>` prints. Regenerate a pin with
/// `repro <target> | wc -c` and an FNV-1a-64 of the same bytes.
#[test]
fn repro_all_pins_every_target() {
    const PINS: [(&str, u64, usize); 15] = [
        ("table4", 0xf292_1033_457d_05d1, 1_462),
        ("table3", 0x3a8c_7c30_84c7_7136, 2_055),
        ("sweep_random", 0xd5bc_022c_fe6d_812a, 709),
        ("sweep_fd", 0xa31e_7dbd_57b5_d413, 478),
        ("sweep_afd", 0xa1fd_c4df_b459_19bd, 591),
        ("sweep_nd", 0x4e4e_f5c3_2471_fbfb, 858),
        ("sweep_od", 0x7742_f607_a892_c9b2, 378),
        ("sweep_dd", 0x2b3a_4878_1a88_17e1, 390),
        ("sweep_ofd", 0x7cc5_037c_ac02_f134, 604),
        ("sweep_cfd", 0x6792_2188_307e_c82f, 775),
        ("sweep_defense", 0xef35_92a0_3757_cf8f, 433),
        ("sweep_distribution", 0xa997_65cb_c294_63d2, 660),
        ("hfl_report", 0x5cb3_4872_81c2_338e, 585),
        ("identifiability_report", 0x5529_cc2a_a1ea_e05d, 741),
        ("discovery_report", 0x31c9_0459_ff6d_4379, 5_370),
    ];
    let out = repro(&["all"]);
    assert!(
        out.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let all = String::from_utf8(out.stdout).unwrap();
    let sep = format!("\n{}\n", "═".repeat(64));
    let sections: Vec<&str> = all.split(sep.as_str()).collect();
    assert_eq!(sections.len(), PINS.len(), "repro all section count");
    for ((target, hash, len), section) in PINS.iter().zip(sections) {
        assert_eq!(
            (fnv1a64(section.as_bytes()), section.len()),
            (*hash, *len),
            "repro {target} drifted; regenerate the pin if the change is intended"
        );
    }
}

#[test]
fn missing_or_unknown_target_fails_and_lists_targets() {
    for args in [&[][..], &["table5"][..]] {
        let out = repro(args);
        assert!(!out.status.success(), "repro {args:?} must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for target in ["all", "table4", "sweep_ofd", "discovery_report"] {
            assert!(
                stderr.contains(target),
                "repro {args:?} stderr must name `{target}`: {stderr}"
            );
        }
    }
}
