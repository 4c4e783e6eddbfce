//! Message-level transport for the VFL setup protocol.
//!
//! The setup phase — PSI digest exchange followed by the metadata
//! broadcast — is where the paper's entire threat model lives, so this
//! module makes its communication explicit: every artefact that crosses a
//! trust boundary travels as a typed [`Envelope`] through a [`Transport`].
//! The protocol engine ([`crate::MultiPartySession::run_setup_over`])
//! never hands a peer a value directly; it can only `send` envelopes and
//! `recv` what the transport delivers. That single choke point is what
//! makes the fault simulator ([`crate::sim`]) and its message-trace audits
//! possible: *everything* a
//! party ever discloses is in the trace, so redaction invariants can be
//! checked against the wire, not against the code's good intentions.
//!
//! Time is virtual and tick-based. A transport owns a monotonic clock
//! ([`Transport::now`]), advanced by [`Transport::tick`]; deliveries,
//! retry timers and fault schedules are all expressed in ticks, which is
//! what makes simulated runs deterministic and seed-replayable.

use crate::psi::IdDigest;
use mp_metadata::MetadataPackage;
use mp_observe::{Counter, Histogram, Recorder};
use std::collections::VecDeque;
use std::sync::Arc;

/// Index of a party within a session (position in the party list).
pub type PartyId = usize;

/// Identifier of one *logical* message. Retransmissions of the same
/// logical message reuse the id, which is what lets receivers deduplicate
/// and senders match acks to pending messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The typed message bodies of the setup protocol.
///
/// Bodies are shared, not owned: cloning a payload — into a pending
/// retransmission, a trace event, a queue slot or a receiver's state —
/// bumps a reference count and never copies the digests or the package.
/// Equality still compares by value, and the wire form is unaffected.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// The sender's salted id digests, in its local row order (the PSI
    /// submission — the only identity-derived artefact that ever crosses
    /// the boundary).
    PsiDigests(Arc<[IdDigest]>),
    /// The sender's metadata package, *already redacted* under its share
    /// policy. The simulator audits exactly this claim against the trace.
    Metadata(Arc<MetadataPackage>),
    /// Acknowledges receipt of the logical message with the given id.
    Ack(MsgId),
}

impl Payload {
    /// Short label for traces and summaries.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Payload::PsiDigests(_) => "psi-digests",
            Payload::Metadata(_) => "metadata",
            Payload::Ack(_) => "ack",
        }
    }
}

/// One message in flight: a typed payload plus routing and identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Logical message id (stable across retransmissions).
    pub id: MsgId,
    /// Sending party.
    pub from: PartyId,
    /// Receiving party.
    pub to: PartyId,
    /// The typed body.
    pub payload: Payload,
}

/// Errors decoding a wire-encoded [`Envelope`].
///
/// Every malformed input maps to exactly one of these variants — the
/// decoder never panics, which is what the `envelope` fuzz target
/// enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input was empty. Rejected up front: a zero-length frame is a
    /// framing bug at the transport layer, not a truncated envelope.
    Empty,
    /// The input exceeds the 16 MiB envelope cap. Rejected before any
    /// parsing or allocation so a hostile frame length cannot balloon
    /// memory.
    FrameTooLarge {
        /// Bytes presented.
        len: usize,
        /// The cap, 16 MiB.
        cap: usize,
    },
    /// Input ended before a field could be read in full.
    UnexpectedEof {
        /// Byte offset where reading stopped.
        offset: usize,
        /// Bytes still required.
        needed: usize,
    },
    /// The leading magic bytes are not `MP`.
    BadMagic,
    /// The wire version byte is not one this build reads.
    UnsupportedVersion {
        /// Version byte found.
        found: u8,
    },
    /// The payload tag byte names no known payload kind.
    BadTag {
        /// Tag byte found.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A declared length exceeds the bytes actually present.
    Oversized {
        /// Length the header claimed.
        claimed: usize,
        /// Bytes available.
        available: usize,
    },
    /// An embedded metadata package was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the embedded text.
        offset: usize,
    },
    /// An embedded metadata package failed to decode.
    Package(String),
    /// Well-formed envelope followed by unconsumed bytes.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Empty => write!(f, "empty input (zero-length frame)"),
            WireError::FrameTooLarge { len, cap } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {cap}-byte envelope cap"
                )
            }
            WireError::UnexpectedEof { offset, needed } => {
                write!(
                    f,
                    "unexpected end of input at byte {offset} ({needed} more needed)"
                )
            }
            WireError::BadMagic => write!(f, "bad magic bytes (expected `MP`)"),
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (this build reads {WIRE_VERSION})"
                )
            }
            WireError::BadTag { tag, offset } => {
                write!(f, "unknown payload tag {tag} at byte {offset}")
            }
            WireError::Oversized { claimed, available } => {
                write!(
                    f,
                    "declared length {claimed} exceeds the {available} bytes present"
                )
            }
            WireError::BadUtf8 { offset } => {
                write!(f, "embedded package at byte {offset} is not valid UTF-8")
            }
            WireError::Package(msg) => write!(f, "embedded metadata package: {msg}"),
            WireError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after envelope (from byte {offset})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Wire-format version written by [`Envelope::encode`].
pub(crate) const WIRE_VERSION: u8 = 1;

/// Hard cap on the byte size of a single wire-encoded [`Envelope`].
///
/// [`Envelope::decode`] rejects larger inputs (and the socket framing
/// layer rejects larger *declared* lengths) before touching the body, so
/// an attacker-controlled length field can never drive an allocation.
/// 16 MiB comfortably fits any real PSI submission or metadata package
/// this system produces.
pub(crate) const MAX_ENVELOPE_BYTES: usize = 16 * 1024 * 1024;

const MAGIC: [u8; 2] = *b"MP";
const TAG_PSI: u8 = 1;
const TAG_METADATA: u8 = 2;
const TAG_ACK: u8 = 3;

/// Bounded little-endian reader over untrusted bytes. All accesses are
/// checked; nothing here can panic or over-allocate.
struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Oversized {
            claimed: n,
            available: self.bytes.len() - self.pos,
        })?;
        match self.bytes.get(self.pos..end) {
            Some(chunk) => {
                self.pos = end;
                Ok(chunk)
            }
            None => Err(WireError::UnexpectedEof {
                offset: self.pos,
                needed: end - self.bytes.len(),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let chunk = self.take(1)?;
        Ok(chunk.first().copied().unwrap_or_default())
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

impl Envelope {
    /// Serialises the envelope to its binary wire form.
    ///
    /// Layout (all integers little-endian): magic `MP`, version byte,
    /// `id: u64`, `from: u64`, `to: u64`, payload tag byte, then the
    /// payload — PSI digests as a `u32` count plus raw `u64` digests,
    /// metadata as a `u32` byte length plus canonical package JSON, acks
    /// as the acked `u64` id.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&MAGIC);
        out.push(WIRE_VERSION);
        out.extend_from_slice(&self.id.0.to_le_bytes());
        out.extend_from_slice(&(self.from as u64).to_le_bytes());
        out.extend_from_slice(&(self.to as u64).to_le_bytes());
        match &self.payload {
            Payload::PsiDigests(digests) => {
                out.push(TAG_PSI);
                out.extend_from_slice(&(digests.len() as u32).to_le_bytes());
                for d in digests.iter() {
                    out.extend_from_slice(&d.raw().to_le_bytes());
                }
            }
            Payload::Metadata(pkg) => {
                out.push(TAG_METADATA);
                let json = pkg.to_json();
                out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Payload::Ack(id) => {
                out.push(TAG_ACK);
                out.extend_from_slice(&id.0.to_le_bytes());
            }
        }
        out
    }

    /// Decodes an envelope from untrusted bytes.
    ///
    /// Total: every input either yields an envelope or a typed
    /// [`WireError`]. Declared lengths are validated against the bytes
    /// actually present before any allocation, so a hostile header cannot
    /// cause an over-allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.is_empty() {
            return Err(WireError::Empty);
        }
        if bytes.len() > MAX_ENVELOPE_BYTES {
            return Err(WireError::FrameTooLarge {
                len: bytes.len(),
                cap: MAX_ENVELOPE_BYTES,
            });
        }
        let mut r = WireReader { bytes, pos: 0 };
        if r.take(2)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let id = MsgId(r.u64()?);
        let from = r.u64()? as PartyId;
        let to = r.u64()? as PartyId;
        let tag_offset = r.pos;
        let tag = r.u8()?;
        let payload = match tag {
            TAG_PSI => {
                let count = r.u32()? as usize;
                let need = count.saturating_mul(8);
                if need > r.remaining() {
                    return Err(WireError::Oversized {
                        claimed: need,
                        available: r.remaining(),
                    });
                }
                let mut digests = Vec::with_capacity(count);
                for _ in 0..count {
                    digests.push(IdDigest::from_raw(r.u64()?));
                }
                Payload::PsiDigests(digests.into())
            }
            TAG_METADATA => {
                let len = r.u32()? as usize;
                if len > r.remaining() {
                    return Err(WireError::Oversized {
                        claimed: len,
                        available: r.remaining(),
                    });
                }
                let offset = r.pos;
                let json =
                    std::str::from_utf8(r.take(len)?).map_err(|_| WireError::BadUtf8 { offset })?;
                let pkg = MetadataPackage::from_json(json)
                    .map_err(|e| WireError::Package(e.to_string()))?;
                Payload::Metadata(Arc::new(pkg))
            }
            TAG_ACK => Payload::Ack(MsgId(r.u64()?)),
            other => {
                return Err(WireError::BadTag {
                    tag: other,
                    offset: tag_offset,
                })
            }
        };
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes { offset: r.pos });
        }
        Ok(Envelope {
            id,
            from,
            to,
            payload,
        })
    }
}

/// One observable transport event. The full event sequence is the
/// *message trace*: the ground truth of everything that was ever put on,
/// dropped from, or delivered by the wire.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A party handed the transport an envelope. `attempt` is the
    /// retransmission ordinal (0 = first transmission).
    Sent {
        /// Virtual time of the send.
        at: u64,
        /// The envelope as submitted.
        env: Envelope,
        /// Retransmission ordinal.
        attempt: u32,
    },
    /// The transport discarded an envelope (fault injection, or delivery
    /// to a crashed party).
    Dropped {
        /// Virtual time of the drop decision.
        at: u64,
        /// The discarded envelope.
        env: Envelope,
    },
    /// The transport queued a second delivery of an envelope.
    Duplicated {
        /// Virtual time of the duplication decision.
        at: u64,
        /// The duplicated envelope.
        env: Envelope,
    },
    /// An envelope reached its recipient's inbox.
    Delivered {
        /// Virtual time of delivery.
        at: u64,
        /// The delivered envelope.
        env: Envelope,
    },
    /// A party crashed; it neither sends nor receives from here on.
    Crashed {
        /// Virtual time of the crash.
        at: u64,
        /// The crashed party.
        party: PartyId,
    },
}

impl TraceEvent {
    /// The envelope carried by the event, if any.
    pub(crate) fn envelope(&self) -> Option<&Envelope> {
        match self {
            TraceEvent::Sent { env, .. }
            | TraceEvent::Dropped { env, .. }
            | TraceEvent::Duplicated { env, .. }
            | TraceEvent::Delivered { env, .. } => Some(env),
            TraceEvent::Crashed { .. } => None,
        }
    }
}

/// The message-passing substrate the setup protocol runs over.
///
/// Implementations decide what happens between `send` and `recv`: the
/// in-memory [`crate::sim::Network`] delivers on the next tick unless its
/// fault source says otherwise; the relay client of [`crate::serve`]
/// carries one party's envelopes over a socket.
pub trait Transport {
    /// Number of parties attached to this transport.
    fn n_parties(&self) -> usize;

    /// Submits an envelope for (eventual) delivery. `attempt` is the
    /// retransmission ordinal, recorded in the trace.
    fn send(&mut self, env: Envelope, attempt: u32);

    /// Advances virtual time by one tick, moving due messages to inboxes.
    fn tick(&mut self);

    /// Advances virtual time to `t` across ticks with nothing in flight;
    /// a no-op when `t` is not in the future.
    ///
    /// The setup engine calls this only when nothing is in flight and no
    /// retransmission timer falls due before `t`, so every skipped tick
    /// would have delivered nothing and changed no party. The default
    /// ticks one at a time, which is correct for any transport; the
    /// in-memory [`crate::sim::Network`] overrides it to move the clock in
    /// one step, and still gives a message that is in flight its own tick.
    fn skip_to(&mut self, t: u64) {
        while self.now() < t {
            self.tick();
        }
    }

    /// Pops the next delivered envelope for `party`, if any.
    fn recv(&mut self, party: PartyId) -> Option<Envelope>;

    /// Current virtual time.
    fn now(&self) -> u64;

    /// Number of envelopes accepted but not yet delivered or dropped.
    fn in_flight(&self) -> usize;

    /// `true` if the transport considers `party` crashed.
    fn is_crashed(&self, _party: PartyId) -> bool {
        false
    }

    /// The message trace so far.
    fn trace(&self) -> &[TraceEvent];
}

/// Wire-level metric handles, resolved once per transport.
///
/// The default value is the no-op form (dead handles, empty per-party
/// vectors); [`TransportMetrics::new`] registers live handles under
/// `transport.party.<p>.sent`, `transport.party.<p>.delivered`,
/// `transport.dropped`, `transport.duplicated`, `transport.crashes` and
/// the `transport.latency_ticks` histogram. Latencies are virtual-clock
/// deltas (delivery tick − send tick), so every recorded value is
/// deterministic under a fixed fault-plan seed.
#[derive(Debug, Clone, Default)]
pub(crate) struct TransportMetrics {
    sent: Vec<Counter>,
    delivered: Vec<Counter>,
    dropped: Counter,
    duplicated: Counter,
    crashes: Counter,
    latency: Histogram,
}

impl TransportMetrics {
    /// Dead handles: every note is discarded.
    pub(crate) fn noop() -> Self {
        Self::default()
    }

    /// Live handles registered with `recorder` for `n_parties` parties.
    pub(crate) fn new(n_parties: usize, recorder: &dyn Recorder) -> Self {
        TransportMetrics {
            sent: (0..n_parties)
                .map(|p| recorder.counter(&format!("transport.party.{p}.sent")))
                .collect(),
            delivered: (0..n_parties)
                .map(|p| recorder.counter(&format!("transport.party.{p}.delivered")))
                .collect(),
            dropped: recorder.counter("transport.dropped"),
            duplicated: recorder.counter("transport.duplicated"),
            crashes: recorder.counter("transport.crashes"),
            latency: recorder.histogram("transport.latency_ticks", &[1, 2, 4, 8, 16, 32]),
        }
    }

    /// Party `party` handed the transport one envelope.
    pub(crate) fn note_sent(&self, party: PartyId) {
        if let Some(c) = self.sent.get(party) {
            c.inc();
        }
    }

    /// One envelope reached `party`'s inbox after `latency_ticks` ticks.
    pub(crate) fn note_delivered(&self, party: PartyId, latency_ticks: u64) {
        if let Some(c) = self.delivered.get(party) {
            c.inc();
        }
        self.latency.record(latency_ticks);
    }

    /// One envelope was discarded (fault injection or dead recipient).
    pub(crate) fn note_dropped(&self) {
        self.dropped.inc();
    }

    /// One extra delivery was scheduled by a duplication fault.
    pub(crate) fn note_duplicated(&self) {
        self.duplicated.inc();
    }

    /// One party crashed.
    pub(crate) fn note_crash(&self) {
        self.crashes.inc();
    }
}

/// An envelope the in-memory network accepted and has not yet delivered.
#[derive(Debug, Clone)]
pub(crate) struct Queued {
    /// Tick at which the envelope is due.
    deliver_at: u64,
    /// Tick at which it was sent.
    pub(crate) sent_at: u64,
    /// The envelope.
    pub(crate) env: Envelope,
}

/// The in-flight queue of the in-memory [`crate::sim::Network`].
///
/// Envelopes leave by move, in `(deliver_at, push order)` order. The
/// queue stays sorted on insert — a new envelope goes behind every queued
/// one due no later than it — so the due envelopes are always at the
/// front.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryQueue {
    items: VecDeque<Queued>,
}

impl DeliveryQueue {
    /// Queues `env`, sent at `sent_at`, for delivery at `deliver_at`.
    pub(crate) fn push(&mut self, env: Envelope, sent_at: u64, deliver_at: u64) {
        let at = self.items.partition_point(|q| q.deliver_at <= deliver_at);
        self.items.insert(
            at,
            Queued {
                deliver_at,
                sent_at,
                env,
            },
        );
    }

    /// Removes the next envelope due at or before `now`, if any.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<Queued> {
        match self.items.front() {
            Some(q) if q.deliver_at <= now => self.items.pop_front(),
            _ => None,
        }
    }

    /// The last tick, at most `t`, up to which nothing falls due: a
    /// transport may jump its clock there without ticking.
    pub(crate) fn idle_until(&self, t: u64) -> u64 {
        self.items
            .front()
            .map_or(t, |q| t.min(q.deliver_at.saturating_sub(1)))
    }

    /// Envelopes queued.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::PerfectTransport;

    fn env(id: u64, from: PartyId, to: PartyId) -> Envelope {
        Envelope {
            id: MsgId(id),
            from,
            to,
            payload: Payload::Ack(MsgId(id)),
        }
    }

    #[test]
    fn perfect_transport_delivers_in_order_next_tick() {
        let mut t = PerfectTransport::new(2);
        t.send(env(1, 0, 1), 0);
        t.send(env(2, 0, 1), 0);
        assert!(t.recv(1).is_none(), "nothing delivered before a tick");
        assert_eq!(t.in_flight(), 2);
        t.tick();
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.recv(1).unwrap().id, MsgId(1));
        assert_eq!(t.recv(1).unwrap().id, MsgId(2));
        assert!(t.recv(1).is_none());
    }

    #[test]
    fn trace_records_send_and_delivery() {
        let mut t = PerfectTransport::new(2);
        t.send(env(7, 1, 0), 3);
        t.tick();
        let kinds: Vec<&str> = t
            .trace()
            .iter()
            .map(|e| match e {
                TraceEvent::Sent { attempt, .. } => {
                    assert_eq!(*attempt, 3);
                    "sent"
                }
                TraceEvent::Delivered { .. } => "delivered",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["sent", "delivered"]);
    }

    #[test]
    fn delivery_queue_releases_by_tick_then_push_order() {
        let mut q = DeliveryQueue::default();
        for (id, deliver_at) in [(1, 3), (2, 2), (3, 3), (4, 2)] {
            q.push(env(id, 0, 1), 1, deliver_at);
        }
        assert_eq!(q.len(), 4);
        assert!(q.pop_due(1).is_none(), "nothing due yet");
        assert_eq!(q.idle_until(10), 1, "the next delivery is at tick 2");
        let mut drain = |now| {
            std::iter::from_fn(|| q.pop_due(now))
                .map(|m| m.env.id.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(2), vec![2, 4]);
        assert_eq!(drain(3), vec![1, 3]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.idle_until(10), 10, "an empty queue is idle throughout");
    }

    #[test]
    fn payload_kinds_label() {
        assert_eq!(Payload::PsiDigests(Arc::from([])).kind(), "psi-digests");
        assert_eq!(Payload::Ack(MsgId(0)).kind(), "ack");
    }

    #[test]
    fn no_party_crashed_by_default() {
        let t = PerfectTransport::new(3);
        assert!(!t.is_crashed(0));
        assert!(!t.is_crashed(2));
    }

    fn metadata_env() -> Envelope {
        let pkg = mp_metadata::MetadataPackage {
            format_version: Some(mp_metadata::FORMAT_VERSION),
            party: "bank".into(),
            attributes: Vec::new(),
            dependencies: Vec::new(),
            n_rows: Some(3),
        };
        Envelope {
            id: MsgId(9),
            from: 1,
            to: 0,
            payload: Payload::Metadata(Arc::new(pkg)),
        }
    }

    #[test]
    fn wire_roundtrip_all_payload_kinds() {
        let digests = vec![IdDigest::from_raw(7), IdDigest::from_raw(u64::MAX)];
        let envs = [
            Envelope {
                id: MsgId(1),
                from: 0,
                to: 2,
                payload: Payload::PsiDigests(digests.into()),
            },
            metadata_env(),
            env(3, 2, 1),
        ];
        for e in envs {
            let bytes = e.encode();
            let back = Envelope::decode(&bytes).unwrap();
            assert_eq!(back, e);
            // Canonical fixed point: re-encoding reproduces the bytes.
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn wire_decode_rejects_malformed_inputs_with_typed_errors() {
        let good = metadata_env().encode();
        // Truncation at every prefix is an error, never a panic.
        for cut in 0..good.len() {
            assert!(Envelope::decode(&good[..cut]).is_err(), "prefix {cut}");
        }
        assert!(matches!(Envelope::decode(b"XX"), Err(WireError::BadMagic)));
        let mut v = good.clone();
        v[2] = 9;
        assert!(matches!(
            Envelope::decode(&v),
            Err(WireError::UnsupportedVersion { found: 9 })
        ));
        let mut t = good.clone();
        t[27] = 77; // payload tag byte
        assert!(matches!(
            Envelope::decode(&t),
            Err(WireError::BadTag { tag: 77, .. })
        ));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            Envelope::decode(&trailing),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn wire_decode_validates_lengths_before_allocating() {
        // A PSI envelope claiming u32::MAX digests but carrying none.
        let mut bytes = Envelope {
            id: MsgId(1),
            from: 0,
            to: 1,
            payload: Payload::PsiDigests(Arc::from([])),
        }
        .encode();
        let count_at = bytes.len() - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn wire_decode_rejects_zero_length_frames() {
        // Regression: a zero-length frame is a typed error, not EOF noise
        // — the socket framing layer depends on distinguishing the two.
        assert_eq!(Envelope::decode(&[]), Err(WireError::Empty));
    }

    #[test]
    fn wire_decode_rejects_over_cap_frames_before_parsing() {
        // Regression: an over-cap input is rejected by size alone, before
        // magic/version parsing (the head bytes here are garbage).
        let oversized = vec![0u8; MAX_ENVELOPE_BYTES + 1];
        assert_eq!(
            Envelope::decode(&oversized),
            Err(WireError::FrameTooLarge {
                len: MAX_ENVELOPE_BYTES + 1,
                cap: MAX_ENVELOPE_BYTES,
            })
        );
        // An input exactly at the cap is parsed (and fails on content,
        // not on size).
        let at_cap = vec![0u8; MAX_ENVELOPE_BYTES];
        assert!(matches!(
            Envelope::decode(&at_cap),
            Err(WireError::BadMagic)
        ));
    }

    #[test]
    fn wire_decode_rejects_bad_embedded_package() {
        let mut e = metadata_env().encode();
        // Corrupt the first byte of the embedded JSON (after the 4-byte
        // length at offset 28).
        e[32] = b'!';
        assert!(matches!(
            Envelope::decode(&e),
            Err(WireError::Package(_)) | Err(WireError::BadUtf8 { .. })
        ));
    }
}
