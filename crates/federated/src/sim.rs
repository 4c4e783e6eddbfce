//! The in-memory network and the deterministic fault-injection
//! simulator for the VFL setup protocol.
//!
//! The paper's threat model lives entirely in the setup phase, so its
//! privacy guarantees must hold not just on the happy path but under the
//! message-level failures every real deployment sees: drops, duplicates,
//! reordering, delays and party crashes. This module provides
//!
//! * [`Network`] — the one in-memory [`Transport`]: fault-free
//!   ([`Network::new`]), driven by a seeded plan ([`Network::seeded`]) or
//!   by an explicit decision schedule ([`Network::scheduled`], the model
//!   checker's);
//! * [`FaultPlan`] — a *seeded* schedule of faults. Two runs with the
//!   same plan (same seed, same rates) inject byte-identical fault
//!   decisions, so every failure is replayable from its seed alone;
//! * [`TraceSummary`] — counts of what happened on the wire;
//! * [`check_invariants`] — the harness asserting, for any plan, the
//!   three protocol invariants:
//!   1. a **completed** setup is bit-identical (alignment, aligned rows,
//!      exchanged metadata) to the fault-free run with the same parties;
//!   2. under redaction, no fault schedule ever pushes a redacted domain,
//!      kind, distribution, row count or dependency across the boundary —
//!      audited against the full message trace, not the return value;
//!   3. a crashed party produces a clean typed abort, never a partial
//!      exchange.
//!
//! Replaying a CI failure: every matrix entry is `(seed, profile)`;
//! `mpriv simulate --seed N --faults <profile>` reruns it exactly.

use crate::check::Decision;
use crate::multiparty::{MultiPartySession, MultiSetupOutcome};
use crate::protocol::{PreparedSetup, RetryConfig, SetupError};
use crate::transport::{
    DeliveryQueue, Envelope, PartyId, Payload, TraceEvent, Transport, TransportMetrics,
};
use mp_metadata::{MetadataPackage, SharePolicy};
use mp_observe::{NoopRecorder, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scheduled party crash: the party completes exactly `after_sends`
/// transmissions, then falls silent (sends swallowed, deliveries to it
/// dropped, state machine frozen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartyCrash {
    /// The party that crashes.
    pub party: PartyId,
    /// Number of successful transmissions before the crash.
    pub after_sends: u64,
}

/// The named fault profiles of the CI matrix, replayable via
/// `mpriv simulate --faults <name> --seed <seed>`.
pub const FAULT_PROFILES: [&str; 4] = ["drop", "dup", "reorder", "crash"];

/// A seeded, deterministic fault schedule.
///
/// Message-level faults (drop / duplicate / delay) are decided per
/// transmission by a `StdRng` seeded with `seed`; since the protocol
/// engine is single-threaded, the decision stream — and therefore the
/// entire run — is a pure function of `(parties, plan)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault-decision stream.
    pub seed: u64,
    /// Probability a transmission is silently dropped.
    pub drop_rate: f64,
    /// Probability a delivered transmission is delivered twice.
    pub duplicate_rate: f64,
    /// Maximum extra delivery delay in ticks (uniform in `0..=max_delay`);
    /// any value above 0 also reorders messages relative to send order.
    pub max_delay: u64,
    /// Scheduled party crashes.
    pub crashes: Vec<PartyCrash>,
}

impl FaultPlan {
    /// No faults at all (the seed still fixes the — unused — stream).
    pub fn fault_free(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            max_delay: 0,
            crashes: Vec::new(),
        }
    }

    /// Builds a plan from a comma-separated fault list (the CLI's
    /// `--faults drop,dup,crash` syntax). Recognised names: `drop`,
    /// `dup`/`duplicate`, `reorder`/`delay`, `crash`. The crashed party
    /// and its last completed send are derived from `seed` so different
    /// seeds exercise different crash points, always early enough that
    /// the protocol cannot complete.
    pub fn from_names(names: &str, seed: u64, n_parties: usize) -> Result<Self, String> {
        let mut plan = Self::fault_free(seed);
        for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match name {
                "drop" => plan.drop_rate = 0.25,
                "dup" | "duplicate" => plan.duplicate_rate = 0.3,
                "reorder" | "delay" => plan.max_delay = 5,
                "crash" => {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_4ED0);
                    plan.crashes.push(PartyCrash {
                        party: rng.gen_range(0..n_parties.max(1)),
                        after_sends: rng.gen_range(0..2u64),
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault `{other}` (expected drop|dup|reorder|crash)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// The in-memory network the setup protocol runs over in process.
///
/// Every envelope is queued for delivery on the tick after its send,
/// unless its fault source decides otherwise. The source is fixed by the
/// constructor: [`Network::new`] injects no faults, [`Network::seeded`]
/// draws each transmission's fate from a [`FaultPlan`]'s seeded RNG, and
/// [`Network::scheduled`] reads it from an explicit [`Decision`] vector.
/// Crashes, inboxes, the delivery queue, the trace and the state hashes
/// the model checker branches on are the same code for all three.
#[derive(Debug)]
pub struct Network {
    source: FaultSource,
    crashes: Vec<PartyCrash>,
    now: u64,
    queue: DeliveryQueue,
    inboxes: Vec<VecDeque<Envelope>>,
    sends: Vec<u64>,
    crashed: Vec<bool>,
    trace: Vec<TraceEvent>,
    metrics: TransportMetrics,
    /// Rolling hash of the wire-event history.
    state_hash: u64,
    /// `state_hash` snapshot at each decision point, pre-decision; its
    /// length is the index of the next decision point.
    decision_hashes: Vec<u64>,
    /// `state_hash` snapshot after each tick (the per-tick states); one
    /// snapshot stands for a whole span of idle ticks crossed by
    /// [`Transport::skip_to`], which all share it.
    tick_hashes: Vec<u64>,
}

/// The fault-free network ([`Network::new`]): every envelope is delivered
/// exactly once, in send order, on the tick after it was sent. The name
/// stays because the `serve` workload of `perfbench` constructs it.
pub type PerfectTransport = Network;

/// Where each transmission's fate comes from.
#[derive(Debug)]
enum FaultSource {
    /// Drawn from the plan's rates by an RNG seeded with its seed.
    Seeded { plan: FaultPlan, rng: StdRng },
    /// Decision `i` is read at decision point `i`; `Deliver` past the end.
    Scheduled { decisions: Vec<Decision> },
}

/// What happens to one transmission. A delivered copy arrives `1 + extra`
/// ticks after its send.
enum Fate {
    Drop,
    Deliver(u64),
    Duplicate(u64, u64),
}

impl FaultSource {
    /// The fate of the transmission at decision point `point`. A seeded
    /// source draws drop, then duplicate, then each copy's delay, and
    /// draws nothing for a rate of 0.
    fn decide(&mut self, point: usize) -> Fate {
        match self {
            FaultSource::Seeded { plan, rng } => {
                if plan.drop_rate > 0.0 && rng.gen::<f64>() < plan.drop_rate {
                    return Fate::Drop;
                }
                let duplicate = plan.duplicate_rate > 0.0 && rng.gen::<f64>() < plan.duplicate_rate;
                let max_delay = plan.max_delay;
                let mut delay = || {
                    if max_delay > 0 {
                        rng.gen_range(0..=max_delay)
                    } else {
                        0
                    }
                };
                let first = delay();
                if duplicate {
                    Fate::Duplicate(first, delay())
                } else {
                    Fate::Deliver(first)
                }
            }
            FaultSource::Scheduled { decisions } => match decisions.get(point) {
                None | Some(Decision::Deliver) => Fate::Deliver(0),
                Some(Decision::Drop) => Fate::Drop,
                Some(Decision::Duplicate) => Fate::Duplicate(0, 0),
                Some(Decision::Delay(extra)) => Fate::Deliver(*extra),
            },
        }
    }
}

/// Folds `item` into the rolling state hash `hash`.
pub(crate) fn mix(hash: u64, item: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    hash.hash(&mut h);
    item.hash(&mut h);
    h.finish()
}

impl Network {
    /// A fault-free network connecting `n_parties` parties.
    pub fn new(n_parties: usize) -> Self {
        Self::scheduled(n_parties, Vec::new(), None)
    }

    /// A network applying `plan`, with wire metrics registered on
    /// `recorder` (see [`TransportMetrics::new`] for the names). Metrics
    /// are observation-only: they never draw from the fault stream, so
    /// an observed run injects exactly the faults an unobserved one does.
    pub fn seeded(n_parties: usize, plan: FaultPlan, recorder: &dyn Recorder) -> Self {
        let crashes = plan.crashes.clone();
        let rng = StdRng::seed_from_u64(plan.seed);
        let mut network = Self::with_source(n_parties, FaultSource::Seeded { plan, rng }, crashes);
        network.metrics = TransportMetrics::new(n_parties, recorder);
        network
    }

    /// A network applying `decisions` (then delivering everything) under
    /// an optional crash.
    pub fn scheduled(
        n_parties: usize,
        decisions: Vec<Decision>,
        crash: Option<PartyCrash>,
    ) -> Self {
        Self::with_source(
            n_parties,
            FaultSource::Scheduled { decisions },
            crash.into_iter().collect(),
        )
    }

    fn with_source(n_parties: usize, source: FaultSource, crashes: Vec<PartyCrash>) -> Self {
        Self {
            source,
            crashes,
            now: 0,
            queue: DeliveryQueue::default(),
            inboxes: vec![VecDeque::new(); n_parties],
            sends: vec![0; n_parties],
            crashed: vec![false; n_parties],
            trace: Vec::new(),
            metrics: TransportMetrics::noop(),
            state_hash: 0,
            decision_hashes: Vec::new(),
            tick_hashes: Vec::new(),
        }
    }

    /// Decision points consulted (including defaults past a schedule).
    pub(crate) fn consulted(&self) -> usize {
        self.decision_hashes.len()
    }

    /// The rolling hash of the wire-event history so far.
    pub(crate) fn state_hash(&self) -> u64 {
        self.state_hash
    }

    /// The state hash before each decision point, in order.
    pub(crate) fn decision_hashes(&self) -> &[u64] {
        &self.decision_hashes
    }

    /// The state hash after each tick or jumped idle span, in order.
    pub(crate) fn tick_hashes(&self) -> &[u64] {
        &self.tick_hashes
    }

    fn note(&mut self, tag: u8, env: &Envelope) {
        let fingerprint = (env.id.0, env.from, env.to, env.payload.kind());
        self.state_hash = mix(self.state_hash, (tag, self.now, fingerprint));
    }

    fn enqueue(&mut self, env: Envelope, extra: u64) {
        self.queue.push(env, self.now, self.now + 1 + extra);
    }
}

impl Transport for Network {
    fn n_parties(&self) -> usize {
        self.inboxes.len()
    }

    fn send(&mut self, env: Envelope, attempt: u32) {
        let from = env.from;
        if self.crashed[from] {
            return; // a dead party transmits nothing
        }
        // Crash schedule: the party completes `after_sends` transmissions,
        // then this (and every later) send is the one that never happens.
        if let Some(crash) = self.crashes.iter().find(|c| c.party == from) {
            if self.sends[from] >= crash.after_sends {
                self.crashed[from] = true;
                self.metrics.note_crash();
                self.trace.push(TraceEvent::Crashed {
                    at: self.now,
                    party: from,
                });
                self.state_hash = mix(self.state_hash, (4u8, self.now, from));
                return;
            }
        }
        self.sends[from] += 1;
        self.metrics.note_sent(from);
        self.note(0, &env);
        self.trace.push(TraceEvent::Sent {
            at: self.now,
            env: env.clone(),
            attempt,
        });
        // The decision point. The pre-decision state hash is what
        // identifies this branch point to the model checker.
        let point = self.decision_hashes.len();
        self.decision_hashes.push(self.state_hash);
        match self.source.decide(point) {
            Fate::Drop => {
                self.metrics.note_dropped();
                self.note(1, &env);
                self.trace.push(TraceEvent::Dropped { at: self.now, env });
            }
            Fate::Deliver(extra) => self.enqueue(env, extra),
            Fate::Duplicate(first, second) => {
                self.metrics.note_duplicated();
                self.note(2, &env);
                self.trace.push(TraceEvent::Duplicated {
                    at: self.now,
                    env: env.clone(),
                });
                self.enqueue(env.clone(), first);
                self.enqueue(env, second);
            }
        }
    }

    fn tick(&mut self) {
        self.now += 1;
        while let Some(m) = self.queue.pop_due(self.now) {
            if self.crashed[m.env.to] {
                self.metrics.note_dropped();
                self.note(1, &m.env);
                self.trace.push(TraceEvent::Dropped {
                    at: self.now,
                    env: m.env,
                });
                continue;
            }
            self.metrics
                .note_delivered(m.env.to, self.now.saturating_sub(m.sent_at));
            self.note(3, &m.env);
            self.trace.push(TraceEvent::Delivered {
                at: self.now,
                env: m.env.clone(),
            });
            self.inboxes[m.env.to].push_back(m.env);
        }
        self.tick_hashes.push(self.state_hash);
    }

    /// An idle tick only moves the clock and repeats the last state, so
    /// an idle span is crossed in one step and recorded as one state; a
    /// queued message still gets its own tick.
    fn skip_to(&mut self, t: u64) {
        while self.now < t {
            let idle_until = self.queue.idle_until(t);
            if idle_until > self.now {
                self.now = idle_until;
                self.tick_hashes.push(self.state_hash);
            } else {
                self.tick();
            }
        }
    }

    fn recv(&mut self, party: PartyId) -> Option<Envelope> {
        if self.crashed[party] {
            return None;
        }
        self.inboxes[party].pop_front()
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn in_flight(&self) -> usize {
        self.queue.len()
    }

    fn is_crashed(&self, party: PartyId) -> bool {
        self.crashed[party]
    }

    fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }
}

/// Wire-level counts extracted from a message trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Transmissions handed to the transport (including retransmissions).
    pub sent: usize,
    /// Retransmissions among `sent`.
    pub retransmissions: usize,
    /// Envelopes that reached an inbox.
    pub delivered: usize,
    /// Envelopes discarded (fault injection or dead recipient).
    pub dropped: usize,
    /// Extra deliveries scheduled by duplication faults.
    pub duplicated: usize,
    /// Party crashes.
    pub crashes: usize,
}

impl TraceSummary {
    /// Summarises a trace.
    pub fn from_trace(trace: &[TraceEvent]) -> Self {
        let mut s = Self::default();
        for event in trace {
            match event {
                TraceEvent::Sent { attempt, .. } => {
                    s.sent += 1;
                    if *attempt > 0 {
                        s.retransmissions += 1;
                    }
                }
                TraceEvent::Delivered { .. } => s.delivered += 1,
                TraceEvent::Dropped { .. } => s.dropped += 1,
                TraceEvent::Duplicated { .. } => s.duplicated += 1,
                TraceEvent::Crashed { .. } => s.crashes += 1,
            }
        }
        s
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sent ({} retransmissions), {} delivered, {} dropped, {} duplicated, {} crashed",
            self.sent,
            self.retransmissions,
            self.delivered,
            self.dropped,
            self.duplicated,
            self.crashes
        )
    }
}

/// Everything one simulated run produces: the protocol result, the wire
/// summary and the full message trace for auditing.
#[derive(Debug)]
pub struct SimOutcome {
    /// Completed outcome or typed abort.
    pub result: Result<MultiSetupOutcome, SetupError>,
    /// Wire-level counts.
    pub summary: TraceSummary,
    /// Virtual duration of the run in ticks.
    pub ticks: u64,
    /// The full message trace.
    pub trace: Vec<TraceEvent>,
}

/// Runs one simulated setup under `plan` and returns the outcome plus its
/// audit artefacts. Same session + policies + plan ⇒ same outcome, trace
/// and summary, always.
///
/// The network registers its wire metrics ([`TransportMetrics`]) on
/// `recorder`, and the protocol engine its per-party counters and the
/// `protocol.setup` span, whose clock is the network's tick clock.
/// Recording is observation-only: pass [`NoopRecorder`] for none, and
/// the fault stream, trace and outcome stay byte-identical.
pub fn simulate_setup(
    session: &MultiPartySession,
    policies: &[SharePolicy],
    plan: &FaultPlan,
    retry: &RetryConfig,
    recorder: &dyn Recorder,
) -> SimOutcome {
    let mut network = Network::seeded(session.parties.len(), plan.clone(), recorder);
    let result = PreparedSetup::new(&session.parties, policies, session.salt, recorder)
        .and_then(|setup| setup.run(&mut network, retry));
    SimOutcome {
        result,
        summary: TraceSummary::from_trace(&network.trace),
        ticks: network.now,
        trace: network.trace,
    }
}

/// A violated protocol invariant, with enough context to replay.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A completed setup differed from the fault-free outcome.
    NotBitIdentical {
        /// Which component diverged (`alignment`, `aligned`, `metadata`).
        component: &'static str,
        /// The diverging party, where applicable.
        party: Option<PartyId>,
    },
    /// A traced message carried metadata its sender's policy redacts.
    RedactionBreached {
        /// The oversharing party.
        party: PartyId,
        /// The leaked field (`domain`, `kind`, `distribution`,
        /// `row-count`, `fd`, `rfd`, or `package` for a wholesale
        /// mismatch with the expected redacted package).
        field: &'static str,
    },
    /// A crash schedule did not abort with [`SetupError::PartyCrashed`]
    /// even though the crash fired mid-protocol.
    UncleanCrash {
        /// What the run returned instead, if it failed differently.
        error: Option<SetupError>,
    },
    /// The fault-free reference run itself failed (setup data error).
    ReferenceFailed(SetupError),
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::NotBitIdentical { component, party } => match party {
                Some(p) => write!(
                    f,
                    "completed setup diverged from fault-free run: {component} of party {p}"
                ),
                None => write!(
                    f,
                    "completed setup diverged from fault-free run: {component}"
                ),
            },
            InvariantViolation::RedactionBreached { party, field } => write!(
                f,
                "redaction breach: party {party} leaked `{field}` onto the wire"
            ),
            InvariantViolation::UncleanCrash { error } => match error {
                Some(e) => write!(f, "crash schedule aborted uncleanly: {e}"),
                None => write!(f, "crash fired mid-protocol but setup reported success"),
            },
            InvariantViolation::ReferenceFailed(e) => {
                write!(f, "fault-free reference run failed: {e}")
            }
        }
    }
}

/// What a passing invariant check observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantReport {
    /// `true` if the faulty run completed (vs a typed abort).
    pub completed: bool,
    /// Wire summary of the faulty run.
    pub summary: TraceSummary,
    /// Virtual duration of the faulty run.
    pub ticks: u64,
}

/// Runs `session` under `plan` *and* fault-free, then checks the three
/// protocol invariants (see the module docs). Returns what the run did on
/// success, or the first violation found.
pub fn check_invariants(
    session: &MultiPartySession,
    policies: &[SharePolicy],
    plan: &FaultPlan,
    retry: &RetryConfig,
) -> Result<InvariantReport, InvariantViolation> {
    // One preparation serves the fault-free reference, the faulty run and
    // the redaction audit's expected packages.
    let n = session.parties.len();
    let setup = PreparedSetup::new(&session.parties, policies, session.salt, &NoopRecorder)
        .map_err(InvariantViolation::ReferenceFailed)?;
    let reference = setup
        .run(&mut Network::new(n), retry)
        .map_err(InvariantViolation::ReferenceFailed)?;

    let mut network = Network::seeded(n, plan.clone(), &NoopRecorder);
    let result = setup.run(&mut network, retry);
    let scheduled: Vec<PartyId> = plan.crashes.iter().map(|c| c.party).collect();
    verify_run(
        policies,
        &setup.packages,
        &reference,
        &result,
        &network.trace,
        &scheduled,
    )?;

    Ok(InvariantReport {
        completed: result.is_ok(),
        summary: TraceSummary::from_trace(&network.trace),
        ticks: network.now,
    })
}

/// The invariant core shared by [`check_invariants`] (seeded sampling)
/// and the exhaustive model checker ([`crate::check`]): given each party's
/// expected redacted package, the fault-free reference outcome, one run's
/// result and trace, and the set of parties a fault schedule was
/// *allowed* to crash, asserts the three protocol invariants from the
/// module docs.
pub(crate) fn verify_run(
    policies: &[SharePolicy],
    expected: &[Arc<MetadataPackage>],
    reference: &MultiSetupOutcome,
    result: &Result<MultiSetupOutcome, SetupError>,
    trace: &[TraceEvent],
    scheduled_crash_parties: &[PartyId],
) -> Result<(), InvariantViolation> {
    // Invariant 2 first: the trace audit applies to completed AND aborted
    // runs — a crashed or retry-exhausted setup must not have leaked
    // redacted metadata either.
    audit_trace_redaction(policies, expected, trace)?;

    let crash_fired = trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Crashed { .. }));
    match result {
        Ok(outcome) => {
            // Invariant 1: bit-identical to the fault-free run.
            if outcome.alignment != reference.alignment {
                return Err(InvariantViolation::NotBitIdentical {
                    component: "alignment",
                    party: None,
                });
            }
            for (p, (got, want)) in outcome.aligned.iter().zip(&reference.aligned).enumerate() {
                if got != want {
                    return Err(InvariantViolation::NotBitIdentical {
                        component: "aligned",
                        party: Some(p),
                    });
                }
            }
            for (p, (got, want)) in outcome.metadata.iter().zip(&reference.metadata).enumerate() {
                if got != want {
                    return Err(InvariantViolation::NotBitIdentical {
                        component: "metadata",
                        party: Some(p),
                    });
                }
            }
            // Invariant 3, completion side: success is only legitimate if
            // no crash fired mid-protocol (a party may crash after its
            // role is over — that must not block the survivors).
            if crash_fired && !scheduled_crash_parties.is_empty() {
                return Err(InvariantViolation::UncleanCrash { error: None });
            }
        }
        Err(err) => {
            // Invariant 3: aborts are always typed; a crash schedule that
            // fired must surface as PartyCrashed for a scheduled party.
            if crash_fired {
                let clean = matches!(
                    err,
                    SetupError::PartyCrashed { party }
                        if scheduled_crash_parties.contains(party)
                );
                if !clean {
                    return Err(InvariantViolation::UncleanCrash {
                        error: Some(err.clone()),
                    });
                }
            } else if !matches!(err, SetupError::RetriesExhausted { .. }) {
                // Without a crash, the only legitimate abort is an
                // exhausted retry budget (fail-closed under drop storms).
                return Err(InvariantViolation::UncleanCrash {
                    error: Some(err.clone()),
                });
            }
        }
    }
    Ok(())
}

/// Audits every metadata envelope in `trace` against its sender's policy:
/// the traced package must equal `expected[sender]`, the policy-redacted
/// package, *by value*, and — belt and braces — must not carry any field
/// the policy withholds.
fn audit_trace_redaction(
    policies: &[SharePolicy],
    expected: &[Arc<MetadataPackage>],
    trace: &[TraceEvent],
) -> Result<(), InvariantViolation> {
    for event in trace {
        let Some(env) = event.envelope() else {
            continue;
        };
        let Payload::Metadata(pkg) = &env.payload else {
            continue;
        };
        let party = env.from;
        let policy = &policies[party];
        if !policy.domains && pkg.attributes.iter().any(|a| a.domain.is_some()) {
            return Err(InvariantViolation::RedactionBreached {
                party,
                field: "domain",
            });
        }
        if !policy.kinds && pkg.attributes.iter().any(|a| a.kind.is_some()) {
            return Err(InvariantViolation::RedactionBreached {
                party,
                field: "kind",
            });
        }
        if !policy.distributions && pkg.attributes.iter().any(|a| a.distribution.is_some()) {
            return Err(InvariantViolation::RedactionBreached {
                party,
                field: "distribution",
            });
        }
        if !policy.row_count && pkg.n_rows.is_some() {
            return Err(InvariantViolation::RedactionBreached {
                party,
                field: "row-count",
            });
        }
        let has_fd = pkg
            .dependencies
            .iter()
            .any(|d| matches!(d, mp_metadata::Dependency::Fd(_)));
        let has_rfd = pkg
            .dependencies
            .iter()
            .any(|d| !matches!(d, mp_metadata::Dependency::Fd(_)));
        if !policy.fds && has_fd {
            return Err(InvariantViolation::RedactionBreached { party, field: "fd" });
        }
        if !policy.rfds && has_rfd {
            return Err(InvariantViolation::RedactionBreached {
                party,
                field: "rfd",
            });
        }
        if **pkg != *expected[party] {
            return Err(InvariantViolation::RedactionBreached {
                party,
                field: "package",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::Party;
    use mp_metadata::Fd;
    use mp_relation::{Attribute, Relation, Schema, Value};

    fn party(name: &str, ids: &[&str], deps: bool) -> Party {
        let schema = Schema::new(vec![
            Attribute::categorical("id"),
            Attribute::continuous("x"),
            Attribute::categorical("grp"),
        ])
        .unwrap();
        let rel = Relation::from_rows(
            schema,
            ids.iter()
                .enumerate()
                .map(|(i, id)| {
                    vec![
                        Value::Text((*id).into()),
                        Value::Float(i as f64),
                        Value::Text(if i % 2 == 0 { "a".into() } else { "b".into() }),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let deps = if deps {
            vec![Fd::new(1usize, 2).into()]
        } else {
            vec![]
        };
        Party::new(name, rel, 0, deps).unwrap()
    }

    fn session() -> MultiPartySession {
        let a = party("bank", &["u1", "u2", "u3", "u4", "u5"], true);
        let b = party("shop", &["u5", "u3", "u9", "u1"], false);
        MultiPartySession::new(vec![a, b], 0xBEEF)
    }

    fn policies() -> Vec<SharePolicy> {
        vec![SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL]
    }

    #[test]
    fn fault_free_plan_completes_identically() {
        let s = session();
        let report = check_invariants(
            &s,
            &policies(),
            &FaultPlan::fault_free(1),
            &RetryConfig::default(),
        )
        .unwrap();
        assert!(report.completed);
        assert_eq!(report.summary.dropped, 0);
        assert_eq!(report.summary.retransmissions, 0);
    }

    #[test]
    fn same_seed_same_trace() {
        let s = session();
        let plan = FaultPlan::from_names("drop,dup,reorder", 42, 2).unwrap();
        let a = simulate_setup(
            &s,
            &policies(),
            &plan,
            &RetryConfig::default(),
            &NoopRecorder,
        );
        let b = simulate_setup(
            &s,
            &policies(),
            &plan,
            &RetryConfig::default(),
            &NoopRecorder,
        );
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.result.is_ok(), b.result.is_ok());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let s = session();
        let retry = RetryConfig::default();
        let pols = policies();
        let distinct: std::collections::HashSet<usize> = (0..8)
            .map(|seed| {
                let plan = FaultPlan::from_names("drop,reorder", seed, 2).unwrap();
                simulate_setup(&s, &pols, &plan, &retry, &NoopRecorder)
                    .summary
                    .dropped
            })
            .collect();
        assert!(distinct.len() > 1, "eight seeds produced identical traces");
    }

    #[test]
    fn drops_force_retransmissions_but_identical_outcome() {
        let s = session();
        for seed in 0..16 {
            let plan = FaultPlan {
                drop_rate: 0.3,
                ..FaultPlan::fault_free(seed)
            };
            let report = check_invariants(&s, &policies(), &plan, &RetryConfig::default()).unwrap();
            if report.completed {
                assert!(report.summary.dropped > 0 || report.summary.retransmissions == 0);
            }
        }
    }

    #[test]
    fn certain_drop_fails_closed() {
        let s = session();
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::fault_free(3)
        };
        let sim = simulate_setup(
            &s,
            &policies(),
            &plan,
            &RetryConfig::default(),
            &NoopRecorder,
        );
        assert!(matches!(
            sim.result,
            Err(SetupError::RetriesExhausted { .. })
        ));
    }

    #[test]
    fn duplicates_are_idempotent() {
        let s = session();
        for seed in 0..8 {
            let plan = FaultPlan {
                duplicate_rate: 1.0,
                ..FaultPlan::fault_free(seed)
            };
            let report = check_invariants(&s, &policies(), &plan, &RetryConfig::default()).unwrap();
            assert!(report.completed, "pure duplication must complete");
            assert!(report.summary.duplicated > 0);
        }
    }

    #[test]
    fn crash_aborts_with_typed_error() {
        let s = session();
        for party in 0..2 {
            let plan = FaultPlan {
                crashes: vec![PartyCrash {
                    party,
                    after_sends: 1,
                }],
                ..FaultPlan::fault_free(9)
            };
            let sim = simulate_setup(
                &s,
                &policies(),
                &plan,
                &RetryConfig::default(),
                &NoopRecorder,
            );
            assert_eq!(sim.result, Err(SetupError::PartyCrashed { party }));
            check_invariants(&s, &policies(), &plan, &RetryConfig::default()).unwrap();
        }
    }

    #[test]
    fn redaction_holds_under_every_profile() {
        let s = session();
        for profile in FAULT_PROFILES {
            for seed in 0..4 {
                let plan = FaultPlan::from_names(profile, seed, 2).unwrap();
                check_invariants(&s, &policies(), &plan, &RetryConfig::default())
                    .unwrap_or_else(|v| panic!("{profile}/{seed}: {v}"));
            }
        }
    }

    #[test]
    fn observed_run_matches_unobserved_and_records_wire_metrics() {
        use mp_observe::Registry;
        let s = session();
        let plan = FaultPlan::from_names("drop,dup,reorder", 42, 2).unwrap();
        let retry = RetryConfig::default();
        let plain = simulate_setup(&s, &policies(), &plan, &retry, &NoopRecorder);

        let registry = Registry::new();
        let observed = simulate_setup(&s, &policies(), &plan, &retry, &registry);

        // Observation must not perturb the run in any way.
        assert_eq!(plain.summary, observed.summary);
        assert_eq!(plain.ticks, observed.ticks);
        assert_eq!(plain.result.is_ok(), observed.result.is_ok());

        // The live metrics agree with the trace-derived summary.
        let snap = registry.snapshot();
        let sent: u64 =
            snap.counters["transport.party.0.sent"] + snap.counters["transport.party.1.sent"];
        assert_eq!(sent, observed.summary.sent as u64);
        assert_eq!(
            snap.counters["transport.dropped"],
            observed.summary.dropped as u64
        );
        assert_eq!(
            snap.counters["transport.duplicated"],
            observed.summary.duplicated as u64
        );
        assert_eq!(
            snap.histograms["transport.latency_ticks"].count,
            observed.summary.delivered as u64
        );
        let retx: u64 = snap.counters["protocol.party.0.retransmits"]
            + snap.counters["protocol.party.1.retransmits"];
        assert_eq!(retx, observed.summary.retransmissions as u64);
        // The setup span measured the whole run in transport ticks.
        assert_eq!(snap.spans["protocol.setup"].count, 1);
        assert_eq!(snap.spans["protocol.setup"].units, observed.ticks);
        assert_eq!(snap.clock, observed.ticks);
    }

    #[test]
    fn tampered_trace_is_caught() {
        // Forge a trace in which the redacting party leaks a full package.
        let s = session();
        let full = s.parties[0].share_metadata(&SharePolicy::FULL).unwrap();
        let trace = vec![TraceEvent::Delivered {
            at: 1,
            env: Envelope {
                id: crate::transport::MsgId(1),
                from: 0,
                to: 1,
                payload: Payload::Metadata(Arc::new(full)),
            },
        }];
        let expected: Vec<_> = s
            .parties
            .iter()
            .zip(&policies())
            .map(|(party, policy)| Arc::new(party.share_metadata(policy).unwrap()))
            .collect();
        let err = audit_trace_redaction(&policies(), &expected, &trace).unwrap_err();
        assert!(matches!(
            err,
            InvariantViolation::RedactionBreached { party: 0, .. }
        ));
    }

    #[test]
    fn unknown_fault_name_rejected() {
        assert!(FaultPlan::from_names("drop,oops", 0, 2).is_err());
        let plan = FaultPlan::from_names(" drop , dup ", 0, 2).unwrap();
        assert!(plan.drop_rate > 0.0 && plan.duplicate_rate > 0.0);
    }

    #[test]
    fn violation_messages_name_the_invariant() {
        let v = InvariantViolation::NotBitIdentical {
            component: "metadata",
            party: Some(1),
        };
        assert!(v.to_string().contains("metadata"));
        let v = InvariantViolation::RedactionBreached {
            party: 0,
            field: "domain",
        };
        assert!(v.to_string().contains("domain"));
    }
}
