//! The VFL setup protocol: PSI alignment, then metadata exchange under
//! each party's redaction policy — run as a message-driven state machine
//! over a [`Transport`].
//!
//! This is the "preliminary stage of model training" whose privacy the
//! paper analyses: after [`crate::MultiPartySession::run_setup`] every
//! party holds the others' (redacted) metadata packages and an aligned
//! view of the common population — precisely the state in which the
//! adversarial synthesis of §II-B becomes possible.
//!
//! ## Protocol shape
//!
//! Every party runs the same two-phase state machine:
//!
//! 1. **PSI phase** — send own salted digests to every peer; once every
//!    peer's digests have arrived, the k-way intersection
//!    ([`crate::psi::intersect_all`]) is computed locally (all parties
//!    derive the identical canonical alignment).
//! 2. **Metadata phase** — send the own *policy-redacted* metadata
//!    package to every peer; setup completes for a party once it has sent
//!    its package, received every peer's, and seen every own message
//!    acked.
//!
//! Every non-ack message expects an [`Payload::Ack`]; unacked messages
//! are retransmitted with capped exponential backoff ([`RetryConfig`])
//! and receivers deduplicate by [`MsgId`], so the protocol tolerates
//! dropped, duplicated, reordered and delayed messages. It either
//! completes with an outcome bit-identical to the fault-free run, or
//! fails closed with a typed [`SetupError`] — never a partial exchange.

use crate::multiparty::{MultiAlignment, MultiSetupOutcome};
use crate::party::Party;
use crate::psi::{intersect_all, IdDigest};
use crate::transport::{Envelope, MsgId, PartyId, Payload, Transport};
use mp_metadata::{MetadataPackage, SharePolicy};
use mp_observe::{Counter, Recorder};
use mp_relation::RelationError;
use std::collections::HashSet;
use std::sync::Arc;

/// How the protocol fails when the transport misbehaves beyond what
/// retries can absorb. Setup never returns a partial outcome: it is
/// either complete or one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum SetupError {
    /// A party crashed mid-setup; the survivors aborted cleanly.
    PartyCrashed {
        /// The crashed party.
        party: PartyId,
    },
    /// A message exhausted its retransmission budget without an ack (and
    /// the unreachable peer is not known to have crashed).
    RetriesExhausted {
        /// The retrying sender.
        from: PartyId,
        /// The unresponsive recipient.
        to: PartyId,
        /// Payload kind of the undeliverable message.
        kind: &'static str,
    },
    /// No message was in flight, no retry pending, and setup incomplete —
    /// or the tick budget ran out. A liveness backstop; it cannot occur
    /// under the shipped transports unless a fault plan silences a party
    /// without crashing it.
    Stalled {
        /// Virtual time at which progress stopped.
        at: u64,
    },
    /// A local data error (projection, selection, metadata description).
    Data(RelationError),
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::PartyCrashed { party } => {
                write!(f, "setup aborted: party {party} crashed")
            }
            SetupError::RetriesExhausted { from, to, kind } => write!(
                f,
                "setup aborted: party {from} exhausted retries sending {kind} to party {to}"
            ),
            SetupError::Stalled { at } => write!(f, "setup stalled at tick {at}"),
            SetupError::Data(e) => write!(f, "setup data error: {e}"),
        }
    }
}

impl std::error::Error for SetupError {}

impl From<RelationError> for SetupError {
    fn from(e: RelationError) -> Self {
        SetupError::Data(e)
    }
}

/// Retransmission policy for unacked protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Ticks to wait for an ack before the first retransmission.
    pub ack_timeout: u64,
    /// Maximum retransmissions per logical message (on top of the first
    /// transmission); exceeding it aborts setup.
    pub max_retries: u32,
    /// Cap on the exponential backoff between retransmissions, in ticks.
    pub backoff_cap: u64,
    /// Hard bound on total protocol ticks (liveness backstop).
    pub max_ticks: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            ack_timeout: 8,
            max_retries: 6,
            backoff_cap: 64,
            max_ticks: 10_000,
        }
    }
}

impl RetryConfig {
    /// Backoff before retransmission number `attempt` (1-based), doubling
    /// from [`RetryConfig::ack_timeout`] and capped at
    /// [`RetryConfig::backoff_cap`].
    pub(crate) fn backoff(&self, attempt: u32) -> u64 {
        self.ack_timeout
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.backoff_cap.max(self.ack_timeout))
    }

    /// Total ticks a sender spends on one message before giving up: the
    /// initial ack wait plus every capped backoff in the retry ladder.
    /// `mpriv serve` derives its handshake and drain budgets from this —
    /// the server never abandons a connection the protocol's own retry
    /// policy would still consider retryable.
    pub(crate) fn ladder_ticks(&self) -> u64 {
        (1..=self.max_retries).fold(self.ack_timeout, |acc, attempt| {
            acc.saturating_add(self.backoff(attempt))
        })
    }
}

/// One logical message awaiting its ack.
#[derive(Debug, Clone)]
struct PendingMsg {
    env: Envelope,
    attempt: u32,
    resend_at: u64,
}

/// Protocol metric handles for one party's engine, resolved once per
/// preparation (the socket client: once per session).
///
/// Counter names are shared with the in-process harness and the socket
/// client: `protocol.party.<p>.{sent,recv,retransmits,backoff_ticks}`
/// plus the run-wide `protocol.acks_sent` total (the recorder interns by
/// name, so every engine's `acks_sent` handle feeds the same counter).
pub(crate) struct EngineMetrics {
    sent: Counter,
    recv: Counter,
    retransmits: Counter,
    backoff_ticks: Counter,
    acks_sent: Counter,
}

impl EngineMetrics {
    pub(crate) fn new(party: PartyId, recorder: &dyn Recorder) -> Self {
        EngineMetrics {
            sent: recorder.counter(&format!("protocol.party.{party}.sent")),
            recv: recorder.counter(&format!("protocol.party.{party}.recv")),
            retransmits: recorder.counter(&format!("protocol.party.{party}.retransmits")),
            backoff_ticks: recorder.counter(&format!("protocol.party.{party}.backoff_ticks")),
            acks_sent: recorder.counter("protocol.acks_sent"),
        }
    }
}

/// One party's half of the setup protocol, stepped explicitly: its
/// state machine.
///
/// This is the unit the in-process harness ([`PreparedSetup::run`])
/// replicates per party over a shared [`Transport`], and the unit the
/// socket client ([`crate::serve`]) runs *alone* against a remote peer
/// pool — the state machine is identical in both deployments, which is
/// what makes the simulator a faithful test double for the daemon.
/// Digests and packages — its own and its peers' — are shared with the
/// envelopes that carry them, so sending, retransmitting and receiving
/// never copy a body.
#[derive(Clone)]
pub(crate) struct PartyEngine {
    id: PartyId,
    digests: Arc<[IdDigest]>,
    package: Arc<MetadataPackage>,
    digests_sent: bool,
    metadata_sent: bool,
    peer_digests: Vec<Option<Arc<[IdDigest]>>>,
    peer_metadata: Vec<Option<Arc<MetadataPackage>>>,
    pending: Vec<PendingMsg>,
    seen: HashSet<MsgId>,
}

impl PartyEngine {
    /// Engine for party `id` of `n`, holding its PSI submission and its
    /// *already redacted* metadata package.
    pub(crate) fn new(
        id: PartyId,
        n: usize,
        digests: Arc<[IdDigest]>,
        package: Arc<MetadataPackage>,
    ) -> Self {
        let mut peer_digests: Vec<Option<Arc<[IdDigest]>>> = vec![None; n];
        peer_digests[id] = Some(Arc::clone(&digests));
        let mut peer_metadata: Vec<Option<Arc<MetadataPackage>>> = vec![None; n];
        peer_metadata[id] = Some(Arc::clone(&package));
        Self {
            id,
            digests,
            package,
            digests_sent: false,
            metadata_sent: false,
            peer_digests,
            peer_metadata,
            pending: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn all_digests_in(&self) -> bool {
        self.peer_digests.iter().all(Option::is_some)
    }

    fn all_metadata_in(&self) -> bool {
        self.peer_metadata.iter().all(Option::is_some)
    }

    /// Setup is complete for this party: everything sent, received and
    /// acked.
    pub(crate) fn done(&self) -> bool {
        self.digests_sent
            && self.metadata_sent
            && self.all_digests_in()
            && self.all_metadata_in()
            && self.pending.is_empty()
    }

    /// The tick at which this party's earliest retransmission timer
    /// fires; `None` when no own message awaits its ack.
    pub(crate) fn next_timer(&self) -> Option<u64> {
        self.pending.iter().map(|pm| pm.resend_at).min()
    }

    /// Every peer's digest submission, once all have arrived.
    pub(crate) fn digest_views(&self) -> Option<Vec<&[IdDigest]>> {
        self.peer_digests.iter().map(|d| d.as_deref()).collect()
    }

    /// Party `p`'s metadata as received (own package for `p == id`).
    pub(crate) fn metadata_from(&self, p: PartyId) -> Option<&MetadataPackage> {
        self.peer_metadata.get(p).and_then(Option::as_deref)
    }

    /// The own (redacted) package this engine broadcasts.
    pub(crate) fn own_package(&self) -> &MetadataPackage {
        &self.package
    }

    /// One engine step: drain the inbox (idempotently, acking every
    /// non-ack), broadcast the own digests once, broadcast the own
    /// metadata once the PSI inputs are complete, then retransmit overdue
    /// unacked messages with capped backoff. `fresh_id` allocates message
    /// ids — the in-process harness shares one counter across all
    /// engines, the socket client uses a party-strided stream so ids stay
    /// session-unique without coordination.
    pub(crate) fn pump(
        &mut self,
        transport: &mut dyn Transport,
        retry: &RetryConfig,
        fresh_id: &mut dyn FnMut() -> MsgId,
        metrics: &EngineMetrics,
    ) -> Result<(), SetupError> {
        let p = self.id;
        // -- Receive, idempotently; (re-)ack everything non-ack. -----
        while let Some(env) = transport.recv(p) {
            metrics.recv.inc();
            match &env.payload {
                Payload::Ack(of) => {
                    self.pending.retain(|pm| pm.env.id != *of);
                    continue;
                }
                Payload::PsiDigests(digests) => {
                    if self.seen.insert(env.id) {
                        if let Some(slot) = self.peer_digests.get_mut(env.from) {
                            *slot = Some(Arc::clone(digests));
                        }
                    }
                }
                Payload::Metadata(pkg) => {
                    if self.seen.insert(env.id) {
                        if let Some(slot) = self.peer_metadata.get_mut(env.from) {
                            *slot = Some(Arc::clone(pkg));
                        }
                    }
                }
            }
            // Duplicates are re-acked: the first ack may have been lost.
            metrics.acks_sent.inc();
            transport.send(
                Envelope {
                    id: fresh_id(),
                    from: p,
                    to: env.from,
                    payload: Payload::Ack(env.id),
                },
                0,
            );
        }

        // -- Phase 1: broadcast own digests once. ---------------------
        if !self.digests_sent {
            self.digests_sent = true;
            let n = self.peer_digests.len();
            for q in (0..n).filter(|&q| q != p) {
                let env = Envelope {
                    id: fresh_id(),
                    from: p,
                    to: q,
                    payload: Payload::PsiDigests(Arc::clone(&self.digests)),
                };
                self.pending.push(PendingMsg {
                    env: env.clone(),
                    attempt: 0,
                    resend_at: transport.now() + retry.ack_timeout,
                });
                metrics.sent.inc();
                transport.send(env, 0);
            }
        }

        // -- Phase 2: once PSI inputs are complete, broadcast the
        //    redacted metadata package. ------------------------------
        if self.all_digests_in() && !self.metadata_sent {
            self.metadata_sent = true;
            let n = self.peer_digests.len();
            for q in (0..n).filter(|&q| q != p) {
                let env = Envelope {
                    id: fresh_id(),
                    from: p,
                    to: q,
                    payload: Payload::Metadata(Arc::clone(&self.package)),
                };
                self.pending.push(PendingMsg {
                    env: env.clone(),
                    attempt: 0,
                    resend_at: transport.now() + retry.ack_timeout,
                });
                metrics.sent.inc();
                transport.send(env, 0);
            }
        }

        // -- Retransmit overdue unacked messages with capped backoff. -
        let now = transport.now();
        let overdue: Vec<usize> = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, pm)| pm.resend_at <= now)
            .map(|(i, _)| i)
            .collect();
        for i in overdue {
            let Some(pm) = self.pending.get_mut(i) else {
                continue;
            };
            if pm.attempt >= retry.max_retries {
                let to = pm.env.to;
                return Err(if transport.is_crashed(to) {
                    SetupError::PartyCrashed { party: to }
                } else {
                    SetupError::RetriesExhausted {
                        from: p,
                        to,
                        kind: pm.env.payload.kind(),
                    }
                });
            }
            pm.attempt += 1;
            pm.resend_at = now + retry.backoff(pm.attempt);
            let env = pm.env.clone();
            let attempt = pm.attempt;
            metrics.retransmits.inc();
            metrics.backoff_ticks.add(retry.backoff(attempt));
            transport.send(env, attempt);
        }
        Ok(())
    }
}

/// The local, failure-free half of a setup: each party's PSI submission,
/// its redacted package and its metric handles. A run only reads them,
/// so one preparation serves any number of runs over fresh transports —
/// the model checker prepares once and runs every schedule from it.
///
/// The recorder receives per-party `protocol.party.<p>.{sent,recv,
/// retransmits,backoff_ticks}` counters, the `protocol.acks_sent` total
/// and the `protocol.setup` span. A run drives the recorder's logical
/// clock from the transport's tick clock, so the span measures the
/// protocol's length *in ticks*, never wall time, and every recorded
/// value is a pure function of `(parties, policies, transport
/// behaviour)`.
pub(crate) struct PreparedSetup<'a> {
    parties: &'a [Party],
    recorder: &'a dyn Recorder,
    digests: Vec<Arc<[IdDigest]>>,
    /// Each party's policy-redacted package, in party order.
    pub(crate) packages: Vec<Arc<MetadataPackage>>,
    metrics: Vec<EngineMetrics>,
}

impl<'a> PreparedSetup<'a> {
    /// Prepares `parties[p]` to disclose under `policies[p]`.
    pub(crate) fn new(
        parties: &'a [Party],
        policies: &[SharePolicy],
        salt: u64,
        recorder: &'a dyn Recorder,
    ) -> Result<Self, SetupError> {
        assert_eq!(policies.len(), parties.len(), "one policy per party");
        let mut digests = Vec::with_capacity(parties.len());
        let mut packages = Vec::with_capacity(parties.len());
        for (party, policy) in parties.iter().zip(policies) {
            digests.push(party.psi_submission(salt)?.into());
            packages.push(Arc::new(party.share_metadata(policy)?));
        }
        let metrics = (0..parties.len())
            .map(|p| EngineMetrics::new(p, recorder))
            .collect();
        Ok(PreparedSetup {
            parties,
            recorder,
            digests,
            packages,
            metrics,
        })
    }

    /// A run at tick 0: every party's engine, nothing sent yet.
    pub(crate) fn start(&self) -> SetupRun {
        let n = self.parties.len();
        let engines = self
            .digests
            .iter()
            .zip(&self.packages)
            .enumerate()
            .map(|(p, (digests, package))| {
                PartyEngine::new(p, n, Arc::clone(digests), Arc::clone(package))
            })
            .collect();
        SetupRun {
            engines,
            next_msg_id: 0,
        }
    }

    /// Drives the protocol over `transport` until every live party
    /// completes, a fault aborts it, or the tick budget runs out: a run
    /// [started](Self::start) at tick 0 and [stepped](SetupRun::step)
    /// until done, then its [outcome](SetupRun::outcome).
    ///
    /// `parties[p]` discloses under `policies[p]`. The returned outcome is
    /// assembled from *received* messages (each party's package as stored
    /// by a peer, the alignment from a live party's received digest view),
    /// so the result genuinely flowed through the transport.
    pub(crate) fn run(
        &self,
        transport: &mut dyn Transport,
        retry: &RetryConfig,
    ) -> Result<MultiSetupOutcome, SetupError> {
        assert_eq!(
            transport.n_parties(),
            self.parties.len(),
            "transport must connect every party"
        );
        let mut run = self.start();
        self.recorder.set_time(transport.now());
        let _setup_span = self.recorder.span("protocol.setup").enter();
        while !run.step(self, transport, retry)? {}
        self.recorder.set_time(transport.now());
        run.outcome(self, transport)
    }
}

/// One in-process setup run in progress: every party's engine and the
/// message-id counter they share. With its transport it is the whole
/// state of the run, so a clone taken between two steps, paired with a
/// clone of an in-memory [`crate::sim::Network`], resumes exactly where
/// the original stood: the model checker forks schedules this way.
#[derive(Clone)]
pub(crate) struct SetupRun {
    engines: Vec<PartyEngine>,
    next_msg_id: u64,
}

impl SetupRun {
    /// One turn of the engine loop: pump every live party, then either
    /// report completion (`Ok(true)`), abort on a liveness backstop, or
    /// advance the clock by one tick (`Ok(false)`).
    ///
    /// When nothing is in flight, no party can change state before the
    /// earliest retransmission timer of a live party, so the clock jumps
    /// straight to the tick before it ([`Transport::skip_to`]). The run's
    /// outcome, trace and length in ticks are those of ticking through.
    pub(crate) fn step(
        &mut self,
        setup: &PreparedSetup<'_>,
        transport: &mut dyn Transport,
        retry: &RetryConfig,
    ) -> Result<bool, SetupError> {
        setup.recorder.set_time(transport.now());
        // Step every live party: drain inbox, then advance the send side.
        // All engines share one message-id counter, so the wire trace is
        // byte-identical to the pre-engine inline loop.
        let next_msg_id = &mut self.next_msg_id;
        let mut fresh_id = || {
            *next_msg_id += 1;
            MsgId(*next_msg_id)
        };
        for (p, (engine, metrics)) in self.engines.iter_mut().zip(&setup.metrics).enumerate() {
            if !transport.is_crashed(p) {
                engine.pump(transport, retry, &mut fresh_id, metrics)?;
            }
        }

        // Completion: every non-crashed party done. (A party that crashed
        // *after* finishing its role does not block the survivors.)
        if self
            .engines
            .iter()
            .enumerate()
            .all(|(p, e)| transport.is_crashed(p) || e.done())
        {
            return Ok(true);
        }

        // Liveness backstops.
        if transport.now() >= retry.max_ticks {
            return Err(SetupError::Stalled {
                at: transport.now(),
            });
        }
        if transport.in_flight() == 0 {
            // Nothing can arrive, so only a live party's retransmission
            // timer can move the run on.
            let next_timer = self
                .engines
                .iter()
                .enumerate()
                .filter(|&(p, _)| !transport.is_crashed(p))
                .filter_map(|(_, e)| e.next_timer())
                .min();
            match next_timer {
                // Every tick before the timer is idle: jump to the last of
                // them, then tick into it as usual.
                Some(at) if at <= retry.max_ticks => transport.skip_to(at.saturating_sub(1)),
                // No retry will ever fire: if an unfinished live party is
                // waiting on a crashed peer, abort with the crash;
                // otherwise we genuinely stalled.
                _ => {
                    let n = self.engines.len();
                    if let Some(crashed) = (0..n).find(|&p| transport.is_crashed(p)) {
                        return Err(SetupError::PartyCrashed { party: crashed });
                    }
                    return Err(SetupError::Stalled {
                        at: transport.now(),
                    });
                }
            }
        }

        transport.tick();
        Ok(false)
    }

    /// The outcome of a run whose last [`step`](Self::step) reported
    /// completion, built from *received* state: the alignment from the
    /// first live party's digest view (identical at every party by
    /// construction), each party's metadata from a peer's stored copy. A
    /// missing input, which a completed run cannot leave, is reported as
    /// a stall at the current tick.
    pub(crate) fn outcome(
        &self,
        setup: &PreparedSetup<'_>,
        transport: &dyn Transport,
    ) -> Result<MultiSetupOutcome, SetupError> {
        let engines = &self.engines;
        let n = setup.parties.len();
        let stalled = SetupError::Stalled {
            at: transport.now(),
        };
        let viewer = (0..n).find(|&p| !transport.is_crashed(p)).unwrap_or(0);
        let views: Vec<&[IdDigest]> = engines[viewer].digest_views().ok_or(stalled.clone())?;
        let alignment = MultiAlignment {
            rows: intersect_all(&views),
        };

        let mut aligned = Vec::with_capacity(n);
        let mut metadata = Vec::with_capacity(n);
        for (p, party) in setup.parties.iter().enumerate() {
            aligned.push(
                party
                    .aligned_rows(&alignment.rows[p])?
                    .project(&party.feature_columns())?,
            );
            // Prefer the copy a live peer actually received over the wire.
            let receiver = (0..n).find(|&q| q != p && !transport.is_crashed(q));
            let pkg = match receiver {
                Some(q) => engines[q]
                    .metadata_from(p)
                    .cloned()
                    .ok_or(stalled.clone())?,
                None => engines[p].own_package().clone(),
            };
            metadata.push(pkg);
        }
        Ok(MultiSetupOutcome {
            alignment,
            aligned,
            metadata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiparty::MultiPartySession;
    use crate::sim::Network;
    use mp_metadata::Fd;
    use mp_relation::{Attribute, Relation, Schema, Value};

    fn parties() -> (Party, Party) {
        let schema_a = Schema::new(vec![
            Attribute::categorical("id"),
            Attribute::continuous("income"),
        ])
        .unwrap();
        let rel_a = Relation::from_rows(
            schema_a,
            vec![
                vec!["u1".into(), 10.0.into()],
                vec!["u2".into(), 20.0.into()],
                vec!["u3".into(), 30.0.into()],
            ],
        )
        .unwrap();
        let schema_b = Schema::new(vec![
            Attribute::categorical("id"),
            Attribute::continuous("spend"),
            Attribute::categorical("tier"),
        ])
        .unwrap();
        let rel_b = Relation::from_rows(
            schema_b,
            vec![
                vec!["u3".into(), 5.0.into(), "hi".into()],
                vec!["u4".into(), 7.0.into(), "lo".into()],
                vec!["u1".into(), 9.0.into(), "hi".into()],
            ],
        )
        .unwrap();
        (
            Party::new("bank", rel_a, 0, vec![]).unwrap(),
            Party::new("shop", rel_b, 0, vec![Fd::new(1usize, 2).into()]).unwrap(),
        )
    }

    #[test]
    fn setup_aligns_and_exchanges() {
        let (a, b) = parties();
        let session = MultiPartySession::new(vec![a, b], 99);
        let out = session
            .run_setup(&[SharePolicy::FULL, SharePolicy::FULL])
            .unwrap();
        assert_eq!(out.alignment.len(), 2); // u1, u3
        assert_eq!(out.aligned[0].n_rows(), 2);
        assert_eq!(out.aligned[1].n_rows(), 2);
        // Feature-only projections: no id columns.
        assert_eq!(out.aligned[0].arity(), 1);
        assert_eq!(out.aligned[1].arity(), 2);
        // Metadata flows both ways; B's FD survives re-indexing.
        assert_eq!(out.metadata[0].party, "bank");
        assert_eq!(out.metadata[1].dependencies.len(), 1);
    }

    #[test]
    fn aligned_rows_refer_to_same_entity() {
        let (a, b) = parties();
        let ids_a = a.ids().unwrap();
        let ids_b = b.ids().unwrap();
        let session = MultiPartySession::new(vec![a, b], 5);
        let out = session
            .run_setup(&[SharePolicy::FULL, SharePolicy::FULL])
            .unwrap();
        for i in 0..out.alignment.len() {
            assert_eq!(
                ids_a[out.alignment.rows[0][i]],
                ids_b[out.alignment.rows[1][i]]
            );
        }
    }

    #[test]
    fn asymmetric_policies() {
        let (a, b) = parties();
        let session = MultiPartySession::new(vec![a, b], 1);
        let out = session
            .run_setup(&[SharePolicy::NAMES_ONLY, SharePolicy::FULL])
            .unwrap();
        assert!(!out.metadata[0].shares_domains());
        assert!(out.metadata[1].shares_domains());
    }

    #[test]
    fn empty_intersection_setup() {
        let schema = Schema::new(vec![Attribute::categorical("id")]).unwrap();
        let ra = Relation::from_rows(schema.clone(), vec![vec![Value::Text("a".into())]]).unwrap();
        let rb = Relation::from_rows(schema, vec![vec![Value::Text("b".into())]]).unwrap();
        let session = MultiPartySession::new(
            vec![
                Party::new("a", ra, 0, vec![]).unwrap(),
                Party::new("b", rb, 0, vec![]).unwrap(),
            ],
            0,
        );
        let out = session
            .run_setup(&[SharePolicy::FULL, SharePolicy::FULL])
            .unwrap();
        assert!(out.alignment.is_empty());
        assert_eq!(out.aligned[0].n_rows(), 0);
    }

    #[test]
    fn setup_over_transport_matches_direct_psi() {
        // The message-driven engine reproduces the pure-function PSI.
        let (a, b) = parties();
        let ids_a = a.ids().unwrap();
        let ids_b = b.ids().unwrap();
        let direct = crate::multi_align(&[&ids_a, &ids_b], 99);
        let session = MultiPartySession::new(vec![a, b], 99);
        let out = session
            .run_setup(&[SharePolicy::FULL, SharePolicy::FULL])
            .unwrap();
        assert_eq!(out.alignment, direct);
    }

    #[test]
    fn trace_contains_both_phases() {
        let (a, b) = parties();
        let session = MultiPartySession::new(vec![a, b], 7);
        let mut transport = Network::new(2);
        session
            .run_setup_over(
                &[SharePolicy::FULL, SharePolicy::FULL],
                &mut transport,
                &RetryConfig::default(),
            )
            .unwrap();
        let kinds: HashSet<&str> = transport
            .trace()
            .iter()
            .filter_map(|e| e.envelope())
            .map(|env| env.payload.kind())
            .collect();
        assert!(kinds.contains("psi-digests"));
        assert!(kinds.contains("metadata"));
        assert!(kinds.contains("ack"));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let retry = RetryConfig {
            ack_timeout: 4,
            max_retries: 10,
            backoff_cap: 20,
            max_ticks: 100,
        };
        assert_eq!(retry.backoff(1), 8);
        assert_eq!(retry.backoff(2), 16);
        assert_eq!(retry.backoff(3), 20);
        assert_eq!(retry.backoff(9), 20);
    }

    #[test]
    fn setup_error_displays() {
        let e = SetupError::PartyCrashed { party: 1 };
        assert!(e.to_string().contains("party 1 crashed"));
        let e = SetupError::RetriesExhausted {
            from: 0,
            to: 1,
            kind: "metadata",
        };
        assert!(e.to_string().contains("metadata"));
        let e = SetupError::Stalled { at: 7 };
        assert!(e.to_string().contains("tick 7"));
    }
}
