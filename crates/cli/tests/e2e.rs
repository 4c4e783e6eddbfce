//! End-to-end tests of the `mpriv` binary via `std::process`.

use mp_federated::{
    outcome_matches, run_client_session, ClientConfig, MultiPartySession, Party, RetryConfig,
};
use mp_metadata::SharePolicy;
use mp_observe::NoopRecorder;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn mpriv() -> Command {
    // Cargo exposes the binary under test via this env var for integration
    // tests of the same package.
    Command::new(env!("CARGO_BIN_EXE_mpriv"))
}

/// This process's scratch directory. Tests run on parallel threads and
/// several test processes may run at once, so nothing here is shared.
fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("mpriv-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the demo table to a file of `test`'s own: rewriting one shared
/// file while a sibling test's `mpriv` reads it makes that read see an
/// empty or partial table.
fn demo_csv(test: &str) -> PathBuf {
    let path = scratch_dir().join(format!("{test}.csv"));
    std::fs::write(
        &path,
        "name,age,dept\nalice,18,sales\nbob,22,cs\ncarol,22,sales\ndan,26,mgmt\n",
    )
    .unwrap();
    path
}

#[test]
fn help_succeeds() {
    let usage = mpriv().arg("help").output().unwrap();
    assert!(usage.status.success());
    let text = String::from_utf8_lossy(&usage.stdout);
    assert!(text.contains("mpriv"));
    assert!(text.contains("audit"));
    for args in [&[][..], &["--help"]] {
        let out = mpriv().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        assert_eq!(out.stdout, usage.stdout, "{args:?}");
    }
}

#[test]
fn profile_runs_on_csv() {
    let out = mpriv()
        .arg("profile")
        .arg(demo_csv("profile_runs_on_csv"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 rows"));
    assert!(text.contains("FD"));
}

#[test]
fn profile_accepts_memory_budget() {
    let out = mpriv()
        .arg("profile")
        .arg(demo_csv("profile_accepts_memory_budget"))
        .args(["--budget-mb", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("budget 1048576 B"), "{text}");
    assert!(text.contains("FD"));
}

#[test]
fn audit_with_options() {
    let out = mpriv()
        .args(["audit"])
        .arg(demo_csv("audit_with_options"))
        .args(["--policy", "domains", "--rounds", "20", "--epsilon", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dept"));
    assert!(text.contains("shares domains: true"));
}

#[test]
fn anonymize_writes_output_file() {
    let out_path = scratch_dir().join("anonymize_writes_output_file.out.csv");
    let out = mpriv()
        .arg("anonymize")
        .arg(demo_csv("anonymize_writes_output_file"))
        .args(["--qi", "1", "--k", "2", "--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert!(written.starts_with("name,age,dept"));
    assert_eq!(written.lines().count(), 5);
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = mpriv().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
}

/// Every subcommand refuses a flag it does not read, naming the first in
/// argv order, so a typo such as `--budget_mb` cannot run unbudgeted.
/// `audit` reads one set of flags with `--matrix` and another without.
#[test]
fn unknown_flags_are_usage_errors() {
    let csv = demo_csv("unknown_flags_are_usage_errors");
    let csv = csv.to_str().unwrap();
    for (args, flag) in [
        (
            vec!["profile", csv, "--budget_mb", "1", "--bogus"],
            "--budget_mb",
        ),
        (
            vec!["audit", csv, "--rounds", "5", "--threads", "2"],
            "--threads",
        ),
        (vec!["simulate", "--seed", "3", "--row", "40"], "--row"),
    ] {
        assert_usage_error(&args, &format!("unknown argument `{flag}`"));
    }
}

/// Every subcommand refuses a positional it does not read, naming the
/// first surplus one, so `mpriv profile a.csv b.csv` cannot profile `a.csv`
/// alone and exit 0. `audit --matrix`, `simulate`, `serve` and `check`
/// read none; the others read one CSV.
#[test]
fn surplus_positionals_are_usage_errors() {
    let csv = demo_csv("surplus_positionals_are_usage_errors");
    let csv = csv.to_str().unwrap();
    for args in [
        vec!["profile", csv, "nonexistent.csv"],
        vec!["profile", csv, "--budget-mb", "1", "nonexistent.csv"],
        vec!["audit", csv, "nonexistent.csv", "--rounds", "5"],
        vec!["identifiability", csv, "nonexistent.csv"],
        vec!["compare", csv, "nonexistent.csv"],
        vec!["anonymize", csv, "nonexistent.csv", "--qi", "1"],
    ] {
        assert_usage_error(&args, "unexpected argument `nonexistent.csv`");
    }
    for args in [
        vec!["audit", "--matrix", "--rounds", "1", "extra"],
        vec!["simulate", "extra", "--seed", "3"],
        vec!["serve", "extra"],
        vec!["check", "extra"],
        vec!["help", "extra"],
        vec!["--help", "extra"],
    ] {
        assert_usage_error(&args, "unexpected argument `extra`");
    }
}

/// `args` exits 1 with `message` on stderr and nothing on stdout.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = mpriv().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(message), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

/// `mpriv profile` prints the same report, byte for byte, as the goldens
/// under `tests/golden/` for both shipped CSVs. Without a byte budget the
/// report does not depend on the thread count.
#[test]
fn profile_stdout_matches_golden_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in ["echocardiogram", "employee"] {
        let csv = root.join("../../data").join(format!("{name}.csv"));
        let out = mpriv().arg("profile").arg(&csv).output().unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let golden = root
            .join("tests/golden")
            .join(format!("profile_{name}.txt"));
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            std::fs::read_to_string(&golden).unwrap(),
            "`mpriv profile` stdout drifted from {}",
            golden.display()
        );
    }
}

/// `mpriv analyze` shares `mp-analyze`'s command line: an unknown flag is
/// a usage error (exit 2), not an option to ignore. The root is an empty
/// directory, so a run that ignored the flag would report a clean tree.
#[test]
fn analyze_rejects_an_unknown_argument() {
    let root = scratch_dir();
    let out = mpriv()
        .args(["analyze", "--root"])
        .arg(&root)
        .arg("--bogus")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument `--bogus`"), "{err}");
    assert!(out.stdout.is_empty());
}

/// `--help` prints the usage and analyses nothing: the empty root has no
/// `analyze.toml`, so an analysis would fail with exit 2.
#[test]
fn analyze_help_prints_usage_without_analysing() {
    let root = scratch_dir();
    let out = mpriv()
        .args(["analyze", "--root"])
        .arg(&root)
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE:"), "{text}");
    assert!(text.contains("--write-baseline"), "{text}");
    assert!(!text.contains("violation(s)"), "{text}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = mpriv()
        .args(["profile", "/nonexistent/nope.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn simulate_same_seed_same_output() {
    let run = || {
        mpriv()
            .args([
                "simulate", "--seed", "11", "--faults", "drop,dup", "--rows", "60",
            ])
            .output()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "seeded trace summary must be stable");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("seed 11"));
    assert!(text.contains("trace:"));
    assert!(text.contains("invariants: hold"));
    assert!(text.contains("completed"));
}

#[test]
fn simulate_different_seeds_change_the_trace() {
    let run = |seed: &str| {
        let out = mpriv()
            .args([
                "simulate",
                "--seed",
                seed,
                "--faults",
                "drop,dup,reorder",
                "--rows",
                "60",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // At least one of a handful of seeds must produce a different trace
    // line — the faults are really seed-driven.
    let base = run("0");
    assert!(
        (1..6).any(|s| run(&s.to_string()) != base),
        "every seed produced an identical trace"
    );
}

#[test]
fn simulate_crash_exits_non_zero_with_typed_abort() {
    let out = mpriv()
        .args([
            "simulate", "--seed", "5", "--faults", "crash", "--rows", "60",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "crash schedule must abort");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("aborted"), "stderr: {err}");
    assert!(err.contains("crashed"), "stderr: {err}");
}

#[test]
fn simulate_rejects_unknown_fault_name() {
    let out = mpriv()
        .args(["simulate", "--faults", "gremlins"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn serve_drive_mode_is_byte_stable() {
    let run = || {
        let out = mpriv()
            .args(["serve", "--sessions", "4", "--rows", "40"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run();
    assert_eq!(first, run(), "drive-mode stdout must be byte-stable");
    let text = String::from_utf8_lossy(&first);
    assert!(text.contains("sessions: 4 completed, 0 aborted"), "{text}");
    assert!(
        text.contains("oracle: all 8 outcomes bit-identical to the in-process reference"),
        "{text}"
    );
}

#[test]
fn serve_daemon_relays_one_session_and_stops_when_stdin_closes() {
    let mut daemon = mpriv()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("serve: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_owned();

    // The daemon's own serve data set: the bank × e-commerce pair.
    let data = mp_datasets::fintech_scenario(40, 42);
    let parties = [
        Party::new("bank", data.bank.relation, 0, data.bank.dependencies).unwrap(),
        Party::new(
            "ecommerce",
            data.ecommerce.relation,
            0,
            data.ecommerce.dependencies,
        )
        .unwrap(),
    ];
    let policies = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
    let salt = 0xF1A7;
    let reference = MultiPartySession::new(parties.to_vec(), salt)
        .run_setup(&policies)
        .unwrap();
    std::thread::scope(|scope| {
        let clients: Vec<_> = parties
            .iter()
            .zip(policies)
            .enumerate()
            .map(|(p, (party, policy))| {
                let addr = &addr;
                scope.spawn(move || {
                    let cfg = ClientConfig::new(1, p, 2, RetryConfig::default());
                    run_client_session(addr, &cfg, party, &policy, salt, &NoopRecorder)
                })
            })
            .collect();
        for (p, client) in clients.into_iter().enumerate() {
            let outcome = client.join().unwrap().expect("session completes");
            assert!(
                outcome_matches(&outcome, p, &reference),
                "party {p} diverged"
            );
        }
    });

    drop(daemon.stdin.take());
    let status = daemon.wait().unwrap();
    let mut report = String::new();
    stdout.read_to_string(&mut report).unwrap();
    assert!(status.success(), "daemon exit {status}: {report}");
    assert!(
        report.contains("sessions: 1 started, 1 completed, 0 aborted"),
        "{report}"
    );
}
