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
//! Subtrees are additionally deduplicated by *state fingerprint*: the
//! rolling 128-bit fingerprint of the wire-event history at a branch
//! point, paired with the remaining fault budget. Two branch points with
//! equal history and equal budget have identical futures (the machines
//! are deterministic functions of the delivered history), so the second
//! is pruned.
//!
//! A schedule costs its own events, not its length or its prefix: every
//! run starts from inputs prepared once per check (each party's digests
//! and redacted package), the engine jumps over idle ticks, which still
//! count in [`CheckReport::total_states`], and a child schedule resumes
//! from its parent's state at the top of the engine-loop turn that
//! consults its fault instead of replaying the shared prefix from tick 0.

use crate::multiparty::{MultiPartySession, MultiSetupOutcome};
use crate::party::Party;
use crate::protocol::{PreparedSetup, RetryConfig, SetupError, SetupRun};
use crate::sim::{fold64, mix, verify_run, InvariantViolation, Network, PartyCrash};
use crate::transport::{PartyId, Transport};
use mp_metadata::{Fd, SharePolicy};
use mp_observe::NoopRecorder;
use mp_relation::{Attribute, Relation, Schema, Value};
use std::collections::HashSet;
use std::rc::Rc;

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
    /// fingerprint of the wire history at the end of its tick. An idle
    /// tick repeats the state before it, so jumped ticks add nothing.
    pub distinct_states: u64,
    /// Distinct terminal outcomes (result kind + trace summary + ticks).
    pub distinct_outcomes: u64,
    /// Subtrees skipped because an identical branch state (history
    /// fingerprint + remaining budget) was already expanded.
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
    let mut check = Exploration::new(session, policies, cfg)?;
    for crash in check.crash_schedules() {
        check.explore(crash);
    }
    Ok(check.finish())
}

/// A state a schedule can resume from: a run's engines and network at the
/// top of one engine-loop turn.
#[derive(Clone)]
struct Snapshot {
    run: SetupRun,
    network: Network,
}

/// A schedule on the DFS stack: the state it resumes from and the one
/// fault, `(decision point, decision)`, it adds to its parent's schedule
/// (`None` for a crash schedule's fault-free root).
struct Branch {
    from: Rc<Snapshot>,
    fault: Option<(usize, Decision)>,
}

/// One check in progress: what every schedule shares (the prepared
/// inputs, the fault-free reference, the fault alphabet) and what the
/// schedules run so far have found.
struct Exploration<'a> {
    policies: &'a [SharePolicy],
    setup: PreparedSetup<'a>,
    retry: RetryConfig,
    reference: MultiSetupOutcome,
    /// The non-default decisions a fault can take.
    alphabet: Vec<Decision>,
    report: CheckReport,
    /// 64-bit digests of the per-tick and terminal fingerprints. These
    /// sets only count distinct states and outcomes, so a collision in
    /// them loses a count, never a schedule; the pruning key keeps all
    /// 128 bits.
    state_set: HashSet<u64>,
    outcome_set: HashSet<u64>,
}

impl<'a> Exploration<'a> {
    fn new(
        session: &'a MultiPartySession,
        policies: &'a [SharePolicy],
        cfg: &CheckConfig,
    ) -> Result<Self, String> {
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
        // Each party's digests and redacted package, computed once for
        // every schedule; then the fault-free reference outcome.
        let setup = PreparedSetup::new(&session.parties, policies, session.salt, &NoopRecorder)
            .map_err(|e| format!("fault-free reference run failed: {e}"))?;
        let reference = setup
            .run(&mut Network::new(n), &retry)
            .map_err(|e| format!("fault-free reference run failed: {e}"))?;
        let mut alphabet = vec![Decision::Drop, Decision::Duplicate];
        alphabet.extend((1..=cfg.max_delay).map(Decision::Delay));
        let mut check = Exploration {
            policies,
            setup,
            retry,
            reference,
            alphabet,
            report: CheckReport {
                config: *cfg,
                parties: n,
                runs: 0,
                completed: 0,
                aborted_crashed: 0,
                aborted_retries: 0,
                aborted_stalled: 0,
                crash_schedules: 0,
                faults_injected: [0; 3],
                max_depth: 0,
                total_states: 0,
                distinct_states: 0,
                distinct_outcomes: 0,
                pruned_subtrees: 0,
                violations: Vec::new(),
            },
            state_set: HashSet::new(),
            outcome_set: HashSet::new(),
        };
        check.report.crash_schedules = check.crash_schedules().len() as u64;
        Ok(check)
    }

    /// Crash schedules: none, plus every `(party, after_sends)` point.
    fn crash_schedules(&self) -> Vec<Option<PartyCrash>> {
        let mut schedules = vec![None];
        for party in 0..self.report.parties {
            for after_sends in 0..self.report.config.crash_points {
                schedules.push(Some(PartyCrash { party, after_sends }));
            }
        }
        schedules
    }

    /// Runs every schedule under `crash`, depth first over schedules in
    /// canonical form: a child adds one fault to its parent's schedule at
    /// a decision point the parent consulted past its own last fault
    /// (trailing delivers are implicit), so each schedule runs exactly
    /// once.
    ///
    /// A run that may still branch keeps its state at the top of every
    /// engine-loop turn. Its child for decision point `i` resumes from the
    /// last of those states that had consulted at most `i` points, so it
    /// re-executes at most the rest of one turn; its clock, trace and
    /// fingerprints carry the ancestor's ticks.
    fn explore(&mut self, crash: Option<PartyCrash>) {
        let root = Snapshot {
            run: self.setup.start(),
            network: Network::scheduled(self.report.parties, Vec::new(), crash),
        };
        let mut stack = vec![Branch {
            from: Rc::new(root),
            fault: None,
        }];
        let mut expanded: HashSet<(u128, usize)> = HashSet::new();
        while let Some(Branch { from, fault }) = stack.pop() {
            let Snapshot {
                mut run,
                mut network,
            } = Rc::unwrap_or_clone(from);
            if let Some((point, decision)) = fault {
                network.branch(point, decision);
            }
            let resumed_at = network.tick_fingerprints().len();
            let budget_left = self.budget_left(network.schedule());
            let mut snapshots: Vec<Rc<Snapshot>> = Vec::new();
            let result = loop {
                if budget_left > 0 {
                    snapshots.push(Rc::new(Snapshot {
                        run: run.clone(),
                        network: network.clone(),
                    }));
                }
                match run.step(&self.setup, &mut network, &self.retry) {
                    Ok(false) => {}
                    Ok(true) => break run.outcome(&self.setup, &network),
                    Err(e) => break Err(e),
                }
            };
            self.record(crash, &result, &network, resumed_at);
            if budget_left == 0 {
                continue;
            }
            let points = self.branch_points(&network, budget_left, &mut expanded);
            for point in points {
                // The first snapshot is the run's resume point, which
                // precedes every decision point the run branches at.
                let last = snapshots.partition_point(|s| s.network.consulted() <= point);
                let from = &snapshots[last - 1];
                for &decision in &self.alphabet {
                    stack.push(Branch {
                        from: Rc::clone(from),
                        fault: Some((point, decision)),
                    });
                }
            }
        }
    }

    /// Faults a run under `schedule` may still inject.
    fn budget_left(&self, schedule: &[Decision]) -> usize {
        let used = schedule.iter().filter(|d| **d != Decision::Deliver).count();
        self.report.config.fault_budget.saturating_sub(used)
    }

    /// The decision points a finished run branches at: every point it
    /// consulted past its explicit schedule, except those whose
    /// `(fingerprint, budget_left)` an earlier run under the same crash
    /// schedule already expanded; each of those is counted as pruned.
    fn branch_points(
        &mut self,
        network: &Network,
        budget_left: usize,
        expanded: &mut HashSet<(u128, usize)>,
    ) -> Vec<usize> {
        let mut points = Vec::new();
        let reached = network.decision_fingerprints().iter().enumerate();
        for (point, &fingerprint) in reached.skip(network.schedule().len()) {
            if expanded.insert((fingerprint, budget_left)) {
                points.push(point);
            } else {
                self.report.pruned_subtrees += 1;
            }
        }
        points
    }

    /// Tallies one finished run: its outcome, its schedule's faults, its
    /// length, its per-tick states from the `resumed_at`-th on (the
    /// earlier ones are an ancestor's and already in the set), and the
    /// invariants over its full trace.
    fn record(
        &mut self,
        crash: Option<PartyCrash>,
        result: &Result<MultiSetupOutcome, SetupError>,
        network: &Network,
        resumed_at: usize,
    ) {
        let report = &mut self.report;
        report.runs += 1;
        let kind = match result {
            Ok(_) => {
                report.completed += 1;
                0
            }
            Err(SetupError::PartyCrashed { party }) => {
                report.aborted_crashed += 1;
                1 + *party as u64
            }
            Err(SetupError::RetriesExhausted { .. }) => {
                report.aborted_retries += 1;
                101
            }
            Err(_) => {
                report.aborted_stalled += 1;
                102
            }
        };
        let [drops, dups, delays] = &mut report.faults_injected;
        for d in network.schedule() {
            match d {
                Decision::Deliver => {}
                Decision::Drop => *drops += 1,
                Decision::Duplicate => *dups += 1,
                Decision::Delay(_) => *delays += 1,
            }
        }
        report.max_depth = report.max_depth.max(network.consulted());
        report.total_states += network.now();
        self.state_set
            .extend(network.tick_fingerprints().iter().skip(resumed_at));
        self.outcome_set.insert(fold64(mix(
            network.fingerprint(),
            &[kind, network.sent(), network.now()],
        )));

        let scheduled: &[PartyId] = match &crash {
            Some(c) => std::slice::from_ref(&c.party),
            None => &[],
        };
        if let Err(violation) = verify_run(
            self.policies,
            &self.setup.packages,
            &self.reference,
            result,
            network.trace(),
            scheduled,
        ) {
            report.violations.push(ViolationRecord {
                schedule: describe_schedule(crash, network.schedule()),
                violation,
            });
        }
    }

    fn finish(mut self) -> CheckReport {
        self.report.distinct_states = self.state_set.len() as u64;
        self.report.distinct_outcomes = self.outcome_set.len() as u64;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::TraceSummary;

    /// The search before forking, kept as the reference the forking one
    /// must equal: every schedule is a decision prefix replayed from tick
    /// 0 through `PreparedSetup::run`, and each run records all its
    /// per-tick states.
    fn model_check_by_replay(
        session: &MultiPartySession,
        policies: &[SharePolicy],
        cfg: &CheckConfig,
    ) -> Result<CheckReport, String> {
        let mut check = Exploration::new(session, policies, cfg)?;
        for crash in check.crash_schedules() {
            let mut stack: Vec<Vec<Decision>> = vec![Vec::new()];
            let mut expanded: HashSet<(u128, usize)> = HashSet::new();
            while let Some(prefix) = stack.pop() {
                let mut network = Network::scheduled(check.report.parties, prefix.clone(), crash);
                let result = check.setup.run(&mut network, &check.retry);
                check.record(crash, &result, &network, 0);
                let budget_left = check.budget_left(&prefix);
                if budget_left == 0 {
                    continue;
                }
                for point in check.branch_points(&network, budget_left, &mut expanded) {
                    for &decision in &check.alphabet {
                        let mut child = prefix.clone();
                        child.resize(point, Decision::Deliver);
                        child.push(decision);
                        stack.push(child);
                    }
                }
            }
        }
        Ok(check.finish())
    }

    fn assert_fork_matches_replay(parties: usize, cfg: &CheckConfig) {
        let (session, policies) = small_world_session(parties).unwrap();
        let forked = model_check(&session, &policies, cfg).unwrap();
        let replayed = model_check_by_replay(&session, &policies, cfg).unwrap();
        assert_eq!(forked, replayed, "{parties} parties, {cfg:?}");
    }

    #[test]
    fn forking_check_matches_replay_on_the_grid() {
        for parties in 2..=MAX_PARTIES {
            for fault_budget in 0..=2 {
                for max_delay in [0, 1, 3] {
                    for crash_points in [0, 2] {
                        for max_ticks in [12, 256] {
                            let cfg = CheckConfig {
                                max_ticks,
                                fault_budget,
                                max_delay,
                                crash_points,
                            };
                            assert_fork_matches_replay(parties, &cfg);
                        }
                    }
                }
            }
        }
    }

    /// The configuration `model_check -- 3 2` records in BENCH_check.json;
    /// too slow for a debug build, so release builds alone run it.
    #[cfg(not(debug_assertions))]
    #[test]
    fn forking_check_matches_replay_at_the_default_config() {
        assert_fork_matches_replay(3, &CheckConfig::default());
    }

    /// Everything a finished in-process run shows.
    #[derive(Debug, PartialEq)]
    struct Finished {
        result: Result<MultiSetupOutcome, SetupError>,
        trace: String,
        now: u64,
        consulted: usize,
        sent: u64,
        fingerprint: u128,
        decision_fingerprints: Vec<u128>,
        tick_fingerprints: Vec<u64>,
    }

    /// Steps `from` to the end, keeping the state at the top of every
    /// engine-loop turn.
    fn run_to_end(
        setup: &PreparedSetup<'_>,
        retry: &RetryConfig,
        from: Snapshot,
    ) -> (Finished, Vec<Snapshot>) {
        let Snapshot {
            mut run,
            mut network,
        } = from;
        let mut snapshots = Vec::new();
        let result = loop {
            snapshots.push(Snapshot {
                run: run.clone(),
                network: network.clone(),
            });
            match run.step(setup, &mut network, retry) {
                Ok(false) => {}
                Ok(true) => break run.outcome(setup, &network),
                Err(e) => break Err(e),
            }
        };
        assert_eq!(
            network.sent(),
            TraceSummary::from_trace(network.trace()).sent as u64,
            "one send counted per `Sent` event"
        );
        let finished = Finished {
            result,
            trace: format!("{:?}", network.trace()),
            now: network.now(),
            consulted: network.consulted(),
            sent: network.sent(),
            fingerprint: network.fingerprint(),
            decision_fingerprints: network.decision_fingerprints().to_vec(),
            tick_fingerprints: network.tick_fingerprints().to_vec(),
        };
        (finished, snapshots)
    }

    #[test]
    fn resumed_runs_match_uninterrupted_runs() {
        // Every single fault at every decision point of the fault-free
        // run, and every crash point: each run, cloned at the top of
        // every engine-loop turn and resumed from the clone, ends exactly
        // as it does uninterrupted; and resuming the fault-free run's
        // state with the fault branched in ends as a run of that
        // schedule from tick 0 does.
        let cfg = CheckConfig::default();
        let retry = RetryConfig {
            max_ticks: cfg.max_ticks,
            ..RetryConfig::default()
        };
        let alphabet = [
            Decision::Drop,
            Decision::Duplicate,
            Decision::Delay(1),
            Decision::Delay(2),
        ];
        for n in 2..=MAX_PARTIES {
            let (session, policies) = small_world_session(n).unwrap();
            let setup =
                PreparedSetup::new(&session.parties, &policies, session.salt, &NoopRecorder)
                    .unwrap();
            let start = |decisions: Vec<Decision>, crash: Option<PartyCrash>| Snapshot {
                run: setup.start(),
                network: Network::scheduled(n, decisions, crash),
            };
            let (fault_free, fault_free_states) =
                run_to_end(&setup, &retry, start(Vec::new(), None));
            assert!(fault_free.result.is_ok());

            let mut schedules: Vec<(Vec<Decision>, Option<PartyCrash>)> = Vec::new();
            for point in 0..fault_free.consulted {
                for &decision in &alphabet {
                    let mut decisions = vec![Decision::Deliver; point];
                    decisions.push(decision);
                    schedules.push((decisions, None));
                }
            }
            for party in 0..n {
                for after_sends in 0..cfg.crash_points {
                    schedules.push((Vec::new(), Some(PartyCrash { party, after_sends })));
                }
            }

            for (decisions, crash) in schedules {
                let label = describe_schedule(crash, &decisions);
                let (whole, states) = run_to_end(&setup, &retry, start(decisions.clone(), crash));
                for (turn, state) in states.into_iter().enumerate() {
                    let (resumed, _) = run_to_end(&setup, &retry, state);
                    assert_eq!(
                        resumed, whole,
                        "{n} parties, {label}, resumed at turn {turn}"
                    );
                }
                if crash.is_none() {
                    let point = decisions.len() - 1;
                    let last =
                        fault_free_states.partition_point(|s| s.network.consulted() <= point);
                    let mut forked = fault_free_states[last - 1].clone();
                    forked.network.branch(point, decisions[point]);
                    let (forked, _) = run_to_end(&setup, &retry, forked);
                    assert_eq!(forked, whole, "{n} parties, {label}, forked");
                }
            }
        }
    }

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
