//! The seed-driven invariant harness for the fault-injection simulator.
//!
//! Every test here replays the setup protocol under a deterministic
//! [`FaultPlan`] and asserts the three protocol invariants via
//! [`check_invariants`]:
//!
//! 1. completed setups are **bit-identical** to the fault-free run;
//! 2. redacted metadata never appears in any message trace;
//! 3. party crashes abort cleanly with a typed [`SetupError`].
//!
//! The CI `sim-matrix` job runs the same harness over 32 seeds × 4 fault
//! profiles in release mode (`cargo run -p mp-bench --bin sim_matrix`);
//! the in-tree matrix below is a faster subset. To replay any failure:
//! `mpriv simulate --seed <N> --faults <profile>`.

use mp_federated::{
    check_invariants, simulate_setup, FaultPlan, MultiPartySession, Party, PartyCrash, RetryConfig,
    SetupError, FAULT_PROFILES,
};
use mp_metadata::{Fd, SharePolicy};
use mp_observe::NoopRecorder;
use mp_relation::{Attribute, Relation, Schema, Value};

fn party(name: &str, ids: std::ops::Range<i64>, step: i64, with_deps: bool) -> Party {
    let schema = Schema::new(vec![
        Attribute::categorical("id"),
        Attribute::continuous("x"),
        Attribute::categorical("grp"),
    ])
    .unwrap();
    let rows = ids
        .step_by(step as usize)
        .map(|i| {
            vec![
                Value::Text(format!("u{i}")),
                Value::Float((i * 3) as f64),
                Value::Text(if i % 2 == 0 { "even" } else { "odd" }.into()),
            ]
        })
        .collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    let deps = if with_deps {
        vec![Fd::new(1usize, 2).into()]
    } else {
        vec![]
    };
    Party::new(name, rel, 0, deps).unwrap()
}

fn two_party_session() -> MultiPartySession {
    MultiPartySession::new(
        vec![
            party("bank", 0..40, 1, true),
            party("shop", 10..60, 1, false),
        ],
        0x5E55,
    )
}

fn three_party_session() -> MultiPartySession {
    MultiPartySession::new(
        vec![
            party("bank", 0..40, 1, true),
            party("shop", 10..60, 1, false),
            party("telco", 0..50, 2, false),
        ],
        0x5E55,
    )
}

fn policies(n: usize) -> Vec<SharePolicy> {
    [
        SharePolicy::PAPER_RECOMMENDED,
        SharePolicy::FULL,
        SharePolicy::NAMES_AND_DOMAINS,
    ][..n]
        .to_vec()
}

/// The in-tree seed matrix: 8 seeds × 4 profiles × {2, 3} parties.
#[test]
fn seed_matrix_holds_all_invariants() {
    let retry = RetryConfig::default();
    for session in [two_party_session(), three_party_session()] {
        let pols = policies(session.parties.len());
        for profile in FAULT_PROFILES {
            for seed in 0..8u64 {
                let plan = FaultPlan::from_names(profile, seed, session.parties.len()).unwrap();
                let report = check_invariants(&session, &pols, &plan, &retry).unwrap_or_else(|v| {
                    panic!(
                        "invariant violated ({} parties, profile {profile}, seed {seed}): {v}",
                        session.parties.len()
                    )
                });
                if profile == "crash" {
                    assert!(
                        !report.completed,
                        "crash profile must abort ({} parties, seed {seed})",
                        session.parties.len()
                    );
                }
            }
        }
    }
}

/// The combined profile (all fault kinds at once) still holds every
/// invariant.
#[test]
fn combined_faults_hold_invariants() {
    let session = two_party_session();
    let pols = policies(2);
    let retry = RetryConfig::default();
    for seed in 0..8u64 {
        let plan = FaultPlan::from_names("drop,dup,reorder,crash", seed, 2).unwrap();
        check_invariants(&session, &pols, &plan, &retry)
            .unwrap_or_else(|v| panic!("combined profile, seed {seed}: {v}"));
    }
}

/// Completed runs under drop/dup/reorder faults are bit-identical to the
/// fault-free outcome — checked directly, not only through the harness.
#[test]
fn completed_faulty_runs_are_bit_identical() {
    let session = three_party_session();
    let pols = policies(3);
    let retry = RetryConfig::default();
    let reference = session.run_setup(&pols).unwrap();
    let mut completed = 0;
    for seed in 0..12u64 {
        let plan = FaultPlan::from_names("drop,dup,reorder", seed, 3).unwrap();
        let sim = simulate_setup(&session, &pols, &plan, &retry, &NoopRecorder);
        if let Ok(outcome) = sim.result {
            completed += 1;
            assert_eq!(outcome.alignment, reference.alignment, "seed {seed}");
            assert_eq!(outcome.aligned, reference.aligned, "seed {seed}");
            assert_eq!(outcome.metadata, reference.metadata, "seed {seed}");
        }
    }
    assert!(
        completed >= 6,
        "retry budget should absorb most fault schedules, got {completed}/12"
    );
}

/// Crashing each party in turn yields the matching typed abort.
#[test]
fn every_party_crash_aborts_with_its_id() {
    let session = three_party_session();
    let pols = policies(3);
    let retry = RetryConfig::default();
    for victim in 0..3 {
        let plan = FaultPlan {
            crashes: vec![PartyCrash {
                party: victim,
                after_sends: 1,
            }],
            ..FaultPlan::fault_free(77)
        };
        let sim = simulate_setup(&session, &pols, &plan, &retry, &NoopRecorder);
        assert_eq!(
            sim.result,
            Err(SetupError::PartyCrashed { party: victim }),
            "crashing party {victim}"
        );
        assert!(sim.summary.crashes >= 1);
    }
}

/// The trace audit sees every metadata envelope: under a redacting
/// policy, no domain crosses the wire even when duplication and
/// retransmission multiply the metadata messages.
#[test]
fn redaction_survives_message_multiplication() {
    let session = two_party_session();
    let pols = vec![SharePolicy::NAMES_ONLY, SharePolicy::PAPER_RECOMMENDED];
    let retry = RetryConfig::default();
    for seed in 0..8u64 {
        let plan = FaultPlan {
            drop_rate: 0.2,
            duplicate_rate: 0.5,
            max_delay: 4,
            ..FaultPlan::fault_free(seed)
        };
        let report = check_invariants(&session, &pols, &plan, &retry)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        if report.completed {
            assert!(report.summary.sent >= 8);
        }
    }
}

/// Seed replay: the same (seed, profile) pair reproduces the identical
/// run, tick for tick — the property every CI failure report relies on.
#[test]
fn seed_replay_is_exact() {
    let session = two_party_session();
    let pols = policies(2);
    let retry = RetryConfig::default();
    for profile in FAULT_PROFILES {
        let plan = FaultPlan::from_names(profile, 1234, 2).unwrap();
        let a = simulate_setup(&session, &pols, &plan, &retry, &NoopRecorder);
        let b = simulate_setup(&session, &pols, &plan, &retry, &NoopRecorder);
        assert_eq!(a.summary, b.summary, "profile {profile}");
        assert_eq!(a.ticks, b.ticks, "profile {profile}");
        assert_eq!(a.trace.len(), b.trace.len(), "profile {profile}");
        match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("replay diverged on outcome ({profile})"),
        }
    }
}

/// Observation is passive: running the same plan with a live metrics
/// [`mp_observe::Registry`] attached must reproduce the unobserved run
/// exactly — summary, tick count and outcome — and leave the invariant
/// verdict untouched. Metrics never consume from the fault RNG stream,
/// so a run's behaviour cannot depend on whether anyone is watching.
#[test]
fn metrics_observation_does_not_change_invariant_outcomes() {
    let session = two_party_session();
    let pols = policies(2);
    let retry = RetryConfig::default();
    for profile in FAULT_PROFILES {
        for seed in 0..4u64 {
            let plan = FaultPlan::from_names(profile, seed, 2).unwrap();
            let plain = simulate_setup(&session, &pols, &plan, &retry, &NoopRecorder);
            let registry = mp_observe::Registry::new();
            let observed = simulate_setup(&session, &pols, &plan, &retry, &registry);
            assert_eq!(plain.summary, observed.summary, "{profile} seed {seed}");
            assert_eq!(plain.ticks, observed.ticks, "{profile} seed {seed}");
            assert_eq!(
                plain.result.is_ok(),
                observed.result.is_ok(),
                "{profile} seed {seed}"
            );
            // The invariant harness (which replays unobserved) must agree
            // with what the observed run just did.
            let verdict = check_invariants(&session, &pols, &plan, &retry)
                .unwrap_or_else(|v| panic!("{profile} seed {seed}: {v}"));
            assert_eq!(
                verdict.completed,
                observed.result.is_ok(),
                "{profile} seed {seed}: verdict diverged from observed run"
            );
            // And the snapshot's wire counters match the run's summary.
            let snap = registry.snapshot();
            let sent: u64 = (0..2)
                .map(|p| snap.counters[&format!("transport.party.{p}.sent")])
                .sum();
            assert_eq!(sent, observed.summary.sent as u64, "{profile} seed {seed}");
            assert_eq!(
                snap.counters["transport.dropped"], observed.summary.dropped as u64,
                "{profile} seed {seed}"
            );
        }
    }
}
