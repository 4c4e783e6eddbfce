//! Exhaustive small-world model checking of the setup protocol.
//!
//! The seeded simulator ([`crate::sim`]) *samples* the fault space: each
//! seed draws one schedule of drops, duplicates and delays. This module
//! instead **enumerates** the space. For a bounded small world — at most
//! three parties, a tick bound, a fault budget and a delay bound — every
//! distinguishable fault interleaving of the setup state machine is
//! executed, and the same three invariants `check_invariants` asserts per
//! seed are asserted over *all* of them:
//!
//! 1. completed ⇒ bit-identical to the fault-free reference outcome;
//! 2. redaction is never violated, audited against the full wire trace;
//! 3. a crash that fires mid-protocol ⇒ a clean typed
//!    [`SetupError::PartyCrashed`] abort; without a crash, the only
//!    legitimate abort is [`SetupError::RetriesExhausted`].
//!
//! # Why the enumeration is exhaustive
//!
//! The protocol engine is deterministic and single-threaded: the only
//! nondeterminism in a run is what the transport does with each
//! transmission. [`Network::scheduled`] makes that explicit — every call
//! to `send` consults the next entry of a [`Decision`] vector (deliver,
//! drop, duplicate, or delay by `1..=max_delay` ticks; a delayed message
//! overtakes later traffic, which is exactly reordering). A run is
//! therefore a pure function of `(session, policies, crash schedule,
//! decision vector)`, and enumerating all decision vectors with at most
//! `fault_budget` non-deliver entries — crossed with every crash point
//! `(party, after_sends)` and the no-crash schedule — covers every
//! behaviour the bounded world can exhibit. Decision points that a run
//! never consults cannot influence it, so vectors are extended lazily:
//! each executed prefix spawns children only at the decision indices the
//! run actually reached, with the canonical form "trailing delivers are
//! implicit" guaranteeing every schedule is executed exactly once.
//!
//! Subtrees are additionally deduplicated by *state hash*: the rolling
//! hash of the wire-event history at a branch point, paired with the
//! remaining fault budget. Two branch points with equal history and equal
//! budget have identical futures (the machines are deterministic
//! functions of the delivered history), so the second is pruned.
//!
//! A schedule costs its events, not its length: every run starts from
//! inputs prepared once per check (each party's digests and redacted
//! package), and the engine jumps over idle ticks, which still count in
//! [`CheckReport::total_states`].

use crate::multiparty::MultiPartySession;
use crate::party::Party;
use crate::protocol::{PreparedSetup, RetryConfig, SetupError};
use crate::sim::{mix, verify_run, InvariantViolation, Network, PartyCrash, TraceSummary};
use crate::transport::{PartyId, Transport};
use mp_metadata::{Fd, SharePolicy};
use mp_observe::NoopRecorder;
use mp_relation::{Attribute, Relation, Schema, Value};
use std::collections::HashSet;

/// The hard cap on party count: beyond three parties the schedule space
/// grows past what "exhaustive" can honestly mean in CI time.
pub(crate) const MAX_PARTIES: usize = 3;

/// One scheduled outcome for a single transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Deliver on the next tick (the fault-free default).
    Deliver,
    /// Silently discard the transmission.
    Drop,
    /// Deliver twice (next tick, both copies).
    Duplicate,
    /// Deliver after `1 + n` ticks, letting later traffic overtake it.
    Delay(u64),
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Decision::Deliver => write!(f, "deliver"),
            Decision::Drop => write!(f, "drop"),
            Decision::Duplicate => write!(f, "dup"),
            Decision::Delay(n) => write!(f, "delay{n}"),
        }
    }
}

/// Bounds of the small world the checker enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Tick bound: a run passing this bound aborts as
    /// [`SetupError::Stalled`], which the checker reports as a violation.
    pub max_ticks: u64,
    /// Maximum non-deliver decisions per schedule.
    pub fault_budget: usize,
    /// Delay alphabet `1..=max_delay` (0 disables delay/reorder faults).
    pub max_delay: u64,
    /// Crash schedules: every `(party, after_sends)` with `after_sends <
    /// crash_points`, plus the no-crash schedule. 0 disables crashes.
    pub crash_points: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            max_ticks: 256,
            fault_budget: 2,
            max_delay: 2,
            crash_points: 3,
        }
    }
}

/// A violation, with the exact schedule that produced it (replayable:
/// the schedule string lists the crash point and every non-default
/// decision by index).
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationRecord {
    /// Human-readable, replayable schedule description.
    pub schedule: String,
    /// The violated invariant.
    pub violation: InvariantViolation,
}

/// What the exhaustive enumeration covered and found.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Bounds the enumeration ran under.
    pub config: CheckConfig,
    /// Number of parties in the checked session.
    pub parties: usize,
    /// Schedules actually executed.
    pub runs: u64,
    /// Runs that completed setup.
    pub completed: u64,
    /// Runs aborting with [`SetupError::PartyCrashed`].
    pub aborted_crashed: u64,
    /// Runs aborting with [`SetupError::RetriesExhausted`].
    pub aborted_retries: u64,
    /// Runs aborting any other way: [`SetupError::Stalled`] (the tick
    /// bound ran out, or nothing was left to move the run on), or any
    /// other error. With `completed`, `aborted_crashed` and
    /// `aborted_retries` this partitions `runs`.
    pub aborted_stalled: u64,
    /// Crash schedules enumerated (including the no-crash schedule).
    pub crash_schedules: u64,
    /// Non-default decisions injected, by kind: drops, duplicates, delays.
    pub faults_injected: [u64; 3],
    /// Deepest decision vector any run consulted.
    pub max_depth: usize,
    /// Per-tick transport states visited across all runs: the sum of the
    /// runs' lengths in ticks. Ticks the engine jumps over (nothing in
    /// flight, no timer due) count like any other.
    pub total_states: u64,
    /// Distinct per-tick transport states across all runs, each the
    /// rolling hash of the wire history at the end of its tick. An idle
    /// tick repeats the state before it, so jumped ticks add nothing.
    pub distinct_states: u64,
    /// Distinct terminal outcomes (result kind + trace summary + ticks).
    pub distinct_outcomes: u64,
    /// Subtrees skipped because an identical branch state (history hash +
    /// remaining budget) was already expanded.
    pub pruned_subtrees: u64,
    /// Every invariant violation found (empty = the full bounded space is
    /// clean).
    pub violations: Vec<ViolationRecord>,
}

/// The deterministic small-world session the CLI and bench entry points
/// check: `parties` tiny vertical slices over overlapping entity ids
/// (bank / shop / telco), with share policies cycling through the
/// paper's presets (recommended, full, names-only). Small on purpose —
/// exhaustive enumeration cost is exponential in wire traffic, and the
/// protocol surface (PSI, metadata exchange, acks, retries, crashes) is
/// identical at any scale. Errors for counts outside `2..=MAX_PARTIES`.
pub fn small_world_session(
    parties: usize,
) -> Result<(MultiPartySession, Vec<SharePolicy>), String> {
    if !(2..=MAX_PARTIES).contains(&parties) {
        return Err(format!(
            "exhaustive checking needs 2..={MAX_PARTIES} parties; got {parties}"
        ));
    }
    let specs: [(&str, &[&str], bool); MAX_PARTIES] = [
        ("bank", &["u1", "u2", "u3"], true),
        ("shop", &["u3", "u1"], false),
        ("telco", &["u1", "u3"], false),
    ];
    let members = specs[..parties]
        .iter()
        .map(|(name, ids, with_deps)| small_party(name, ids, *with_deps))
        .collect::<Result<Vec<Party>, String>>()?;
    let policies = [
        SharePolicy::PAPER_RECOMMENDED,
        SharePolicy::FULL,
        SharePolicy::NAMES_ONLY,
    ]
    .into_iter()
    .cycle()
    .take(parties)
    .collect();
    Ok((MultiPartySession::new(members, 0xBEEF), policies))
}

fn small_party(name: &str, ids: &[&str], with_deps: bool) -> Result<Party, String> {
    let schema = Schema::new(vec![
        Attribute::categorical("id"),
        Attribute::continuous("x"),
    ])
    .map_err(|e| e.to_string())?;
    let rel = Relation::from_rows(
        schema,
        ids.iter()
            .enumerate()
            .map(|(i, id)| vec![Value::Text((*id).into()), Value::Float(i as f64)])
            .collect(),
    )
    .map_err(|e| e.to_string())?;
    let deps = if with_deps {
        vec![Fd::new(0usize, 1).into()]
    } else {
        vec![]
    };
    Party::new(name, rel, 0, deps).map_err(|e| e.to_string())
}

fn describe_schedule(crash: Option<PartyCrash>, schedule: &[Decision]) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(c) = crash {
        parts.push(format!(
            "crash(party {} after {} sends)",
            c.party, c.after_sends
        ));
    }
    for (i, d) in schedule.iter().enumerate() {
        if *d != Decision::Deliver {
            parts.push(format!("send {i}: {d}"));
        }
    }
    if parts.is_empty() {
        parts.push("fault-free".to_owned());
    }
    parts.join("; ")
}

/// Exhaustively model-checks `session` under `policies` within the
/// bounds of `cfg`. Errors (rather than silently truncating) if the
/// session has more than 3 parties or the fault-free
/// reference run fails.
pub fn model_check(
    session: &MultiPartySession,
    policies: &[SharePolicy],
    cfg: &CheckConfig,
) -> Result<CheckReport, String> {
    let n = session.parties.len();
    if n > MAX_PARTIES {
        return Err(format!(
            "exhaustive checking is bounded to {MAX_PARTIES} parties; got {n}"
        ));
    }
    let retry = RetryConfig {
        max_ticks: cfg.max_ticks,
        ..RetryConfig::default()
    };

    // Each party's digests and redacted package, computed once for every
    // schedule; then the fault-free reference outcome.
    let setup = PreparedSetup::new(&session.parties, policies, session.salt, &NoopRecorder)
        .map_err(|e| format!("fault-free reference run failed: {e}"))?;
    let reference = setup
        .run(&mut Network::new(n), &retry)
        .map_err(|e| format!("fault-free reference run failed: {e}"))?;

    // The decision alphabet of non-default outcomes.
    let mut alphabet = vec![Decision::Drop, Decision::Duplicate];
    for d in 1..=cfg.max_delay {
        alphabet.push(Decision::Delay(d));
    }

    // Crash schedules: none, plus every (party, after_sends) point.
    let mut crash_schedules: Vec<Option<PartyCrash>> = vec![None];
    for party in 0..n {
        for after_sends in 0..cfg.crash_points {
            crash_schedules.push(Some(PartyCrash { party, after_sends }));
        }
    }

    let mut report = CheckReport {
        config: *cfg,
        parties: n,
        runs: 0,
        completed: 0,
        aborted_crashed: 0,
        aborted_retries: 0,
        aborted_stalled: 0,
        crash_schedules: crash_schedules.len() as u64,
        faults_injected: [0; 3],
        max_depth: 0,
        total_states: 0,
        distinct_states: 0,
        distinct_outcomes: 0,
        pruned_subtrees: 0,
        violations: Vec::new(),
    };
    let mut state_set: HashSet<u64> = HashSet::new();
    let mut outcome_set: HashSet<u64> = HashSet::new();

    for crash in crash_schedules {
        // DFS over decision-vector prefixes in canonical form: every
        // prefix ends with a non-default decision (trailing delivers are
        // implicit), so each schedule is executed exactly once.
        let mut stack: Vec<Vec<Decision>> = vec![Vec::new()];
        let mut expanded: HashSet<(u64, usize)> = HashSet::new();
        while let Some(prefix) = stack.pop() {
            let mut network = Network::scheduled(n, prefix.clone(), crash);
            let result = setup.run(&mut network, &retry);
            report.runs += 1;
            match &result {
                Ok(_) => report.completed += 1,
                Err(SetupError::PartyCrashed { .. }) => report.aborted_crashed += 1,
                Err(SetupError::RetriesExhausted { .. }) => report.aborted_retries += 1,
                Err(_) => report.aborted_stalled += 1,
            }
            let [drops, dups, delays] = &mut report.faults_injected;
            for d in &prefix {
                match d {
                    Decision::Deliver => {}
                    Decision::Drop => *drops += 1,
                    Decision::Duplicate => *dups += 1,
                    Decision::Delay(_) => *delays += 1,
                }
            }
            let consulted = network.consulted();
            report.max_depth = report.max_depth.max(consulted);
            report.total_states += network.now();
            state_set.extend(network.tick_hashes().iter().copied());
            outcome_set.insert(mix(
                network.state_hash(),
                (
                    match &result {
                        Ok(_) => 0u8,
                        Err(SetupError::PartyCrashed { party }) => 1 + *party as u8,
                        Err(SetupError::RetriesExhausted { .. }) => 101,
                        Err(_) => 102,
                    },
                    TraceSummary::from_trace(network.trace()).sent,
                    network.now(),
                ),
            ));

            let scheduled: &[PartyId] = match &crash {
                Some(c) => std::slice::from_ref(&c.party),
                None => &[],
            };
            if let Err(violation) = verify_run(
                policies,
                &setup.packages,
                &reference,
                &result,
                network.trace(),
                scheduled,
            ) {
                report.violations.push(ViolationRecord {
                    schedule: describe_schedule(crash, &prefix),
                    violation,
                });
            }

            // Branch: inject one more fault at every decision index this
            // run reached beyond its explicit prefix.
            let faults_used = prefix
                .iter()
                .filter(|d| !matches!(d, Decision::Deliver))
                .count();
            if faults_used >= cfg.fault_budget {
                continue;
            }
            let budget_left = cfg.fault_budget - faults_used;
            for i in prefix.len()..consulted {
                match network.decision_hashes().get(i) {
                    Some(&h) if !expanded.insert((h, budget_left)) => {
                        report.pruned_subtrees += 1;
                        continue;
                    }
                    _ => {}
                }
                for &alt in &alphabet {
                    let mut child = prefix.clone();
                    child.resize(i, Decision::Deliver);
                    child.push(alt);
                    stack.push(child);
                }
            }
        }
    }
    report.distinct_states = state_set.len() as u64;
    report.distinct_outcomes = outcome_set.len() as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_party_session() -> MultiPartySession {
        small_world_session(2).unwrap().0
    }

    fn three_party_session() -> MultiPartySession {
        small_world_session(3).unwrap().0
    }

    fn policies(n: usize) -> Vec<SharePolicy> {
        [
            SharePolicy::PAPER_RECOMMENDED,
            SharePolicy::FULL,
            SharePolicy::NAMES_ONLY,
        ]
        .into_iter()
        .cycle()
        .take(n)
        .collect()
    }

    #[test]
    fn small_world_session_enforces_party_bounds() {
        assert!(small_world_session(1).is_err());
        assert!(small_world_session(MAX_PARTIES + 1).is_err());
        for n in 2..=MAX_PARTIES {
            let (session, pols) = small_world_session(n).unwrap();
            assert_eq!(session.parties.len(), n);
            assert_eq!(pols.len(), n);
        }
    }

    #[test]
    fn budget_zero_explores_exactly_crash_schedules() {
        let s = two_party_session();
        let cfg = CheckConfig {
            fault_budget: 0,
            crash_points: 2,
            ..CheckConfig::default()
        };
        let report = model_check(&s, &policies(2), &cfg).unwrap();
        // One run per crash schedule: no-crash + 2 parties × 2 points.
        assert_eq!(report.runs, 5);
        assert_eq!(report.crash_schedules, 5);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.completed >= 1);
        assert!(report.aborted_crashed >= 1);
    }

    #[test]
    fn single_fault_layer_is_clean_and_exhaustive() {
        let s = two_party_session();
        let cfg = CheckConfig {
            fault_budget: 1,
            max_delay: 1,
            crash_points: 1,
            ..CheckConfig::default()
        };
        let report = model_check(&s, &policies(2), &cfg).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // The fault-free run consults max_depth decision points; layer one
        // adds 3 alternatives per point, bar pruning.
        assert!(report.runs > report.max_depth as u64);
        assert!(report.distinct_states > 0);
        assert!(report.distinct_outcomes >= 2);
        assert_eq!(
            report.faults_injected.iter().sum::<u64>() + report.crash_schedules,
            report.runs,
            "each non-root run carries exactly one fault"
        );
    }

    #[test]
    fn three_parties_small_budget_is_clean() {
        let s = three_party_session();
        let cfg = CheckConfig {
            fault_budget: 1,
            max_delay: 1,
            crash_points: 2,
            ..CheckConfig::default()
        };
        let report = model_check(&s, &policies(3), &cfg).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.parties, 3);
        assert!(report.aborted_crashed > 0);
        assert!(report.completed > 0);
    }

    #[test]
    fn determinism_same_config_same_report() {
        let s = two_party_session();
        let cfg = CheckConfig {
            fault_budget: 1,
            max_delay: 1,
            crash_points: 1,
            ..CheckConfig::default()
        };
        let a = model_check(&s, &policies(2), &cfg).unwrap();
        let b = model_check(&s, &policies(2), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn party_bound_is_enforced() {
        let parties: Vec<Party> = (0..4)
            .map(|i| small_party(&format!("p{i}"), &["u1"], false).unwrap())
            .collect();
        let s = MultiPartySession::new(parties, 1);
        assert!(model_check(&s, &policies(4), &CheckConfig::default()).is_err());
    }

    #[test]
    fn schedule_description_is_replayable() {
        let desc = describe_schedule(
            Some(PartyCrash {
                party: 1,
                after_sends: 2,
            }),
            &[Decision::Deliver, Decision::Drop, Decision::Delay(2)],
        );
        assert!(desc.contains("crash(party 1 after 2 sends)"));
        assert!(desc.contains("send 1: drop"));
        assert!(desc.contains("send 2: delay2"));
        assert_eq!(describe_schedule(None, &[]), "fault-free");
    }
}
