//! The target registry: every untrusted-input decoder the fuzzer drives.
//!
//! A target wraps one decode/encode pair behind a uniform bytes-in
//! interface. The contract the runner enforces on top:
//!
//! * the decoder never panics — malformed bytes produce a typed error
//!   ([`TargetOutcome::Rejected`]);
//! * accepted inputs re-encode to a *canonical* form that survives a
//!   second decode/encode round trip bit-identically.

use crate::XorShift64;
use mp_federated::net::{decode_stream, encode_stream, AbortReason, FrameError, SessionFrame};
use mp_federated::{Envelope, MsgId, Payload, WireError};
use mp_metadata::{Fd, MetadataPackage};
use mp_relation::csv::{self, CsvOptions};
use mp_relation::{Attribute, Relation, Schema, Value};
use std::io::Read;

/// What one execution of a target produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetOutcome {
    /// The decoder returned a typed error (the expected fate of most
    /// mutated inputs). The message feeds the coverage signature.
    Rejected {
        /// Rendered decoder error.
        error: String,
    },
    /// The decoder accepted the input; `canonical` is its re-encoding.
    Accepted {
        /// Canonical re-encoded bytes; must be a round-trip fixed point.
        canonical: Vec<u8>,
    },
    /// Two decode paths that must agree did not (CSV: the whole-string
    /// read and the short-read streaming read).
    Diverged {
        /// Both paths' results.
        detail: String,
    },
}

/// One fuzzable decoder.
pub trait FuzzTarget {
    /// Registry name (also the corpus subdirectory under `fuzz/corpus/`).
    fn name(&self) -> &'static str;
    /// Structural tokens for the mutation engine.
    fn dictionary(&self) -> &'static [&'static [u8]];
    /// Built-in seed inputs (all must be accepted).
    fn seeds(&self) -> Vec<Vec<u8>>;
    /// Feeds `input` to the decoder. Must return, never unwind — the
    /// runner treats a caught panic as a finding.
    fn run(&self, input: &[u8]) -> TargetOutcome;
}

/// Every registered target, in stable order.
pub fn registry() -> Vec<Box<dyn FuzzTarget>> {
    vec![
        Box::new(CsvTarget),
        Box::new(ExchangeTarget),
        Box::new(EnvelopeTarget),
        Box::new(FrameTarget),
    ]
}

/// Looks a target up by its registry name.
pub fn by_name(name: &str) -> Option<Box<dyn FuzzTarget>> {
    registry().into_iter().find(|t| t.name() == name)
}

/// CSV ingest: [`mp_relation::csv::read_str`] under default options,
/// canonicalised by [`mp_relation::csv::write_str`]. The same bytes also
/// go through [`mp_relation::csv::read_stream`] in reads of 1–7 bytes,
/// which must give the same relation or the same typed error.
pub struct CsvTarget;

/// A reader that returns 1–7 bytes per call, the lengths drawn from
/// `rng`, so chunk boundaries fall inside records, quoted fields, CRLF
/// pairs and multi-byte scalars.
struct ShortReads<'a> {
    bytes: &'a [u8],
    rng: XorShift64,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.rng.below(7)).min(buf.len()).min(self.bytes.len());
        let (head, rest) = self.bytes.split_at(n);
        buf[..n].copy_from_slice(head);
        self.bytes = rest;
        Ok(n)
    }
}

impl FuzzTarget for CsvTarget {
    fn name(&self) -> &'static str {
        "csv"
    }

    fn dictionary(&self) -> &'static [&'static [u8]] {
        &[
            b",",
            b"\"",
            b"\"\"",
            b"\n",
            b"\r\n",
            b"\r",
            b"?",
            b"NA",
            b"\xEF\xBB\xBF",
            b"-1",
            b"2.5",
            b"1e308",
        ]
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        vec![
            b"name,age\nalice,18\nbob,22\n".to_vec(),
            b"a,b,c\n1,2.5,x\n?,NA,\"q,uoted\"\n".to_vec(),
            b"x,y\r\n\"multi\nline\",2\r\n\"esc\"\"aped\",3\r\n".to_vec(),
            b"only\n1\n2\n3\n".to_vec(),
        ]
    }

    fn run(&self, input: &[u8]) -> TargetOutcome {
        let Ok(text) = std::str::from_utf8(input) else {
            return TargetOutcome::Rejected {
                error: "input is not UTF-8".to_owned(),
            };
        };
        let opts = CsvOptions::default();
        let whole = csv::read_str(text, &opts);
        // FNV-1a of the input seeds the read lengths.
        let seed = input.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let reader = ShortReads {
            bytes: input,
            rng: XorShift64::new(seed),
        };
        let streamed = csv::read_stream(reader, &opts);
        // Debug output shows layouts and dictionary order, which `==`
        // on relations does not compare.
        if format!("{whole:?}") != format!("{streamed:?}") {
            return TargetOutcome::Diverged {
                detail: format!("read_str: {whole:?}\nshort reads: {streamed:?}"),
            };
        }
        match whole {
            Err(e) => TargetOutcome::Rejected {
                error: e.to_string(),
            },
            Ok(rel) => TargetOutcome::Accepted {
                canonical: csv::write_str(&rel).into_bytes(),
            },
        }
    }
}

/// Exchange-package deserialization:
/// [`mp_metadata::MetadataPackage::from_json`], canonicalised by
/// [`MetadataPackage::to_json`].
pub struct ExchangeTarget;

impl FuzzTarget for ExchangeTarget {
    fn name(&self) -> &'static str {
        "exchange"
    }

    fn dictionary(&self) -> &'static [&'static [u8]] {
        &[
            b"{",
            b"}",
            b"[",
            b"]",
            b":",
            b",",
            b"\"format_version\"",
            b"\"party\"",
            b"\"attributes\"",
            b"\"dependencies\"",
            b"\"n_rows\"",
            b"\"name\"",
            b"\"kind\"",
            b"\"domain\"",
            b"\"distribution\"",
            b"null",
            b"true",
            b"false",
            b"0",
            b"-1",
            b"1e308",
            b"99",
            b"\\u0000",
        ]
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        sample_packages()
            .into_iter()
            .map(|p| p.to_json().into_bytes())
            .collect()
    }

    fn run(&self, input: &[u8]) -> TargetOutcome {
        let Ok(text) = std::str::from_utf8(input) else {
            return TargetOutcome::Rejected {
                error: "input is not UTF-8".to_owned(),
            };
        };
        match MetadataPackage::from_json(text) {
            Err(e) => TargetOutcome::Rejected {
                error: e.to_string(),
            },
            Ok(pkg) => TargetOutcome::Accepted {
                canonical: pkg.to_json().into_bytes(),
            },
        }
    }
}

/// Wire-envelope decoding: [`Envelope::decode`], canonicalised by
/// [`Envelope::encode`].
pub struct EnvelopeTarget;

impl FuzzTarget for EnvelopeTarget {
    fn name(&self) -> &'static str {
        "envelope"
    }

    fn dictionary(&self) -> &'static [&'static [u8]] {
        &[
            b"MP",
            &[0x01],
            &[0x02],
            &[0x03],
            &[0x00, 0x00, 0x00, 0x00],
            &[0xFF, 0xFF, 0xFF, 0xFF],
            &[0xFF; 8],
            b"{\"party\":\"p\"}",
        ]
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        sample_envelopes().iter().map(Envelope::encode).collect()
    }

    fn run(&self, input: &[u8]) -> TargetOutcome {
        match Envelope::decode(input) {
            Err(e) => TargetOutcome::Rejected {
                error: wire_error_label(&e),
            },
            Ok(env) => TargetOutcome::Accepted {
                canonical: env.encode(),
            },
        }
    }
}

/// Session-frame stream decoding for `mpriv serve`:
/// [`decode_stream`] over the `[len u32 LE][kind u8][body]` framing,
/// canonicalised by [`encode_stream`]. Exercises the exact decoder the
/// daemon's per-connection reader runs on untrusted socket bytes:
/// length-prefix truncation, zero-length and oversized-length claims,
/// bad kinds/bodies, and spliced multi-frame streams.
pub struct FrameTarget;

impl FuzzTarget for FrameTarget {
    fn name(&self) -> &'static str {
        "frame"
    }

    fn dictionary(&self) -> &'static [&'static [u8]] {
        &[
            // Plausible little-endian length prefixes.
            &[0x00, 0x00, 0x00, 0x00],
            &[0x01, 0x00, 0x00, 0x00],
            &[0x19, 0x00, 0x00, 0x00],
            &[0xFF, 0xFF, 0xFF, 0xFF],
            &[0x11, 0x00, 0x00, 0x01],
            // Frame kind bytes (Hello..Abort).
            &[0x01],
            &[0x02],
            &[0x03],
            &[0x04],
            &[0x05],
            &[0x06],
            // Abort codes.
            &[0x07],
            // Envelope magic for kind-3 bodies.
            b"MP",
            b"shutting down",
        ]
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        let envelopes: Vec<SessionFrame> = sample_envelopes()
            .into_iter()
            .map(SessionFrame::Envelope)
            .collect();
        vec![
            // A full session lifecycle in one stream.
            encode_stream(&[
                SessionFrame::Hello {
                    session: 7,
                    party: 0,
                    n_parties: 2,
                },
                SessionFrame::Welcome {
                    session: 7,
                    party: 0,
                    n_parties: 2,
                },
            ]),
            encode_stream(&envelopes),
            encode_stream(&[SessionFrame::Done { party: 1 }, SessionFrame::Complete]),
            // Every abort reason once.
            encode_stream(&[
                SessionFrame::Abort(AbortReason::PeerDisconnected { party: 1 }),
                SessionFrame::Abort(AbortReason::HandshakeTimeout),
                SessionFrame::Abort(AbortReason::IdleTimeout),
                SessionFrame::Abort(AbortReason::QueueOverflow { party: 0 }),
                SessionFrame::Abort(AbortReason::Spoofed { claimed: 2 }),
                SessionFrame::Abort(AbortReason::ServerShutdown),
                SessionFrame::Abort(AbortReason::Protocol("bad frame".to_owned())),
            ]),
        ]
    }

    fn run(&self, input: &[u8]) -> TargetOutcome {
        match decode_stream(input) {
            Err(e) => TargetOutcome::Rejected {
                error: frame_error_label(&e),
            },
            Ok(frames) => TargetOutcome::Accepted {
                canonical: encode_stream(&frames),
            },
        }
    }
}

/// Collapses a [`FrameError`] to its variant label, for the same reason
/// as [`wire_error_label`]: offsets and claimed lengths vary with every
/// mutation and would flood the corpus with equivalent signatures.
fn frame_error_label(e: &FrameError) -> String {
    match e {
        FrameError::ZeroLength { .. } => "zero-length frame".to_owned(),
        FrameError::TooLarge { .. } => "frame too large".to_owned(),
        FrameError::Truncated { .. } => "truncated frame".to_owned(),
        FrameError::BadKind { .. } => "bad frame kind".to_owned(),
        FrameError::BadBody { kind, .. } => format!("bad body for kind {kind}"),
        FrameError::BadUtf8 => "bad utf-8".to_owned(),
        FrameError::Envelope(w) => format!("bad envelope: {}", wire_error_label(w)),
    }
}

/// Collapses a [`WireError`] to its variant label: the payload of e.g.
/// `UnexpectedEof` varies with every truncation point, and a signature
/// per offset would flood the corpus with equivalent rejections.
fn wire_error_label(e: &WireError) -> String {
    match e {
        WireError::Empty => "empty input".to_owned(),
        WireError::FrameTooLarge { .. } => "frame too large".to_owned(),
        WireError::UnexpectedEof { .. } => "unexpected EOF".to_owned(),
        WireError::BadMagic => "bad magic".to_owned(),
        WireError::UnsupportedVersion { .. } => "unsupported version".to_owned(),
        WireError::BadTag { .. } => "bad tag".to_owned(),
        WireError::Oversized { .. } => "oversized length".to_owned(),
        WireError::BadUtf8 { .. } => "bad utf-8".to_owned(),
        WireError::Package(_) => "bad package".to_owned(),
        WireError::TrailingBytes { .. } => "trailing bytes".to_owned(),
    }
}

/// Small valid packages used as exchange seeds and envelope payloads.
fn sample_packages() -> Vec<MetadataPackage> {
    let schema = Schema::new(vec![
        Attribute::categorical("id"),
        Attribute::continuous("amount"),
    ])
    .expect("static schema is valid");
    let rel = Relation::from_rows(
        schema,
        vec![
            vec![Value::Text("u1".into()), Value::Float(10.0)],
            vec![Value::Text("u2".into()), Value::Float(-2.5)],
        ],
    )
    .expect("static rows fit the schema");
    let full = MetadataPackage::describe("bank", &rel, vec![Fd::new(0usize, 1).into()])
        .expect("describe on a static relation succeeds");
    let mut legacy = full.clone();
    legacy.format_version = None;
    legacy.party = "legacy".to_owned();
    vec![full, legacy]
}

/// One valid envelope per payload kind.
fn sample_envelopes() -> Vec<Envelope> {
    let pkg = sample_packages().swap_remove(0);
    vec![
        Envelope {
            id: MsgId(1),
            from: 0,
            to: 1,
            payload: Payload::PsiDigests(
                [
                    mp_federated::psi::IdDigest::from_raw(0xDEAD_BEEF),
                    mp_federated::psi::IdDigest::from_raw(42),
                ]
                .into(),
            ),
        },
        Envelope {
            id: MsgId(2),
            from: 1,
            to: 0,
            payload: Payload::Metadata(pkg.into()),
        },
        Envelope {
            id: MsgId(3),
            from: 0,
            to: 1,
            payload: Payload::Ack(MsgId(2)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_stable_and_unique() {
        let names: Vec<&str> = registry().iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["csv", "exchange", "envelope", "frame"]);
        assert!(by_name("csv").is_some());
        assert!(by_name("nonsense").is_none());
    }

    #[test]
    fn every_seed_is_accepted_and_canonical() {
        for target in registry() {
            let seeds = target.seeds();
            assert!(!seeds.is_empty(), "{} has no seeds", target.name());
            for (i, seed) in seeds.iter().enumerate() {
                match target.run(seed) {
                    TargetOutcome::Accepted { canonical } => {
                        // Canonical form is a fixed point of decode/encode.
                        match target.run(&canonical) {
                            TargetOutcome::Accepted { canonical: again } => assert_eq!(
                                canonical,
                                again,
                                "{} seed {i} canonical form is not a fixed point",
                                target.name()
                            ),
                            other => panic!(
                                "{} seed {i} canonical form not accepted: {other:?}",
                                target.name()
                            ),
                        }
                    }
                    other => panic!("{} seed {i} not accepted: {other:?}", target.name()),
                }
            }
        }
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panics() {
        let cases: &[(&str, &[u8])] = &[
            ("csv", b"a,b\n1\n"),
            ("csv", b"\xFF\xFE"),
            ("exchange", b"{\"party\": 3}"),
            ("exchange", b"not json"),
            ("envelope", b"XX whatever"),
            ("envelope", b""),
            // Zero-length prefix.
            ("frame", &[0x00, 0x00, 0x00, 0x00]),
            // Oversized length claim with no body behind it.
            ("frame", &[0xFF, 0xFF, 0xFF, 0xFF, 0x03]),
            // Truncated mid-prefix and mid-body.
            ("frame", &[0x05, 0x00]),
            ("frame", &[0x05, 0x00, 0x00, 0x00, 0x04]),
            // Unknown kind byte.
            ("frame", &[0x01, 0x00, 0x00, 0x00, 0x99]),
        ];
        for (name, input) in cases {
            let target = by_name(name).expect("registered");
            assert!(
                matches!(target.run(input), TargetOutcome::Rejected { .. }),
                "{name} accepted malformed input {input:?}"
            );
        }
    }
}
