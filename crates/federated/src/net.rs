//! Socket-level framing for `mpriv serve`: length-prefixed session
//! frames over TCP or Unix-domain stream sockets.
//!
//! The daemon ([`crate::serve`]) multiplexes many concurrent setup
//! sessions; each client connection carries exactly one party of one
//! session. Everything on the wire is a [`SessionFrame`]:
//!
//! ```text
//! [len: u32 LE] [kind: u8] [body: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the body, so a well-formed frame is
//! never zero-length; `len` is validated against the frame cap (the 16 MiB
//! envelope cap plus 16 bytes) *before* any allocation. Protocol
//! [`Envelope`]s travel opaquely as `Envelope` frame bodies in their
//! existing wire encoding — the framing layer adds session management
//! (join, ready, completion, typed abort) without touching the protocol
//! encoding the simulator already audits.
//!
//! The decoder comes in two shapes with one implementation: an
//! incremental buffer consumes a byte stream (partial frames wait for
//! more bytes — the shape [`FramedStream`] gives the server and client), and
//! [`decode_stream`] decodes a complete byte string strictly (partial
//! tails are typed errors — the shape the `frame` fuzz target drives).
//! Both are total: every input yields frames or a typed [`FrameError`],
//! never a panic, and accepted streams re-encode bit-identically
//! ([`encode_stream`]).

use crate::transport::{Envelope, WireError, MAX_ENVELOPE_BYTES};
use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Hard cap on one session frame's declared length (kind byte + body).
///
/// Slightly above [`MAX_ENVELOPE_BYTES`] so the largest legal envelope
/// still fits in one frame; anything larger is rejected from the 4-byte
/// prefix alone, before the body is read or buffered.
pub(crate) const MAX_FRAME_BYTES: u32 = (MAX_ENVELOPE_BYTES + 16) as u32;

const KIND_HELLO: u8 = 1;
const KIND_WELCOME: u8 = 2;
const KIND_ENVELOPE: u8 = 3;
const KIND_DONE: u8 = 4;
const KIND_COMPLETE: u8 = 5;
const KIND_ABORT: u8 = 6;

const ABORT_PEER_DISCONNECTED: u8 = 1;
const ABORT_HANDSHAKE_TIMEOUT: u8 = 2;
const ABORT_IDLE_TIMEOUT: u8 = 3;
const ABORT_QUEUE_OVERFLOW: u8 = 4;
const ABORT_SPOOFED: u8 = 5;
const ABORT_SERVER_SHUTDOWN: u8 = 6;
const ABORT_PROTOCOL: u8 = 7;

/// Why a session was aborted, carried in [`SessionFrame::Abort`].
///
/// The client maps these onto [`crate::SetupError`]: a peer disconnect
/// becomes `PartyCrashed`, everything else a typed data error — setup
/// over a socket fails closed exactly like setup over the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// A member connection dropped before its party finished.
    PeerDisconnected {
        /// The party whose connection died.
        party: u64,
    },
    /// The connection produced no `Hello` within the handshake budget.
    HandshakeTimeout,
    /// An assembled session made no progress within the idle budget.
    IdleTimeout,
    /// A member's outbound queue stayed full past the backpressure
    /// budget (a stalled reader on the other end).
    QueueOverflow {
        /// The party whose queue overflowed.
        party: u64,
    },
    /// A member sent an envelope claiming someone else's identity.
    Spoofed {
        /// The `from` the envelope claimed.
        claimed: u64,
    },
    /// The server is shutting down and the drain budget elapsed.
    ServerShutdown,
    /// Any other protocol violation, with a human-readable detail.
    Protocol(String),
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::PeerDisconnected { party } => {
                write!(f, "party {party} disconnected")
            }
            AbortReason::HandshakeTimeout => write!(f, "handshake timed out"),
            AbortReason::IdleTimeout => write!(f, "session idle timeout"),
            AbortReason::QueueOverflow { party } => {
                write!(f, "party {party}'s outbound queue overflowed")
            }
            AbortReason::Spoofed { claimed } => {
                write!(f, "envelope spoofed sender identity {claimed}")
            }
            AbortReason::ServerShutdown => write!(f, "server shutting down"),
            AbortReason::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

/// One frame of the session layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionFrame {
    /// Client → server: join `session` as `party` of `n_parties`.
    Hello {
        /// Session the connection wants to join.
        session: u64,
        /// The party index this connection speaks for.
        party: u64,
        /// Expected session size; every member must agree.
        n_parties: u64,
    },
    /// Server → client: the session is fully assembled — run the setup
    /// protocol. Echoes the membership so the client can sanity-check.
    Welcome {
        /// The session joined.
        session: u64,
        /// The party index confirmed for this connection.
        party: u64,
        /// The agreed session size.
        n_parties: u64,
    },
    /// A protocol [`Envelope`] in its existing wire encoding, relayed
    /// verbatim between members.
    Envelope(Envelope),
    /// Client → server: this party's state machine reports done.
    Done {
        /// The party that finished.
        party: u64,
    },
    /// Server → client: every member reported done; the session closed
    /// cleanly.
    Complete,
    /// Either direction: the session is dead, with the typed reason.
    Abort(AbortReason),
}

impl SessionFrame {
    /// Short label for traces and metrics.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            SessionFrame::Hello { .. } => "hello",
            SessionFrame::Welcome { .. } => "welcome",
            SessionFrame::Envelope(_) => "envelope",
            SessionFrame::Done { .. } => "done",
            SessionFrame::Complete => "complete",
            SessionFrame::Abort(_) => "abort",
        }
    }
}

/// Errors decoding session frames from untrusted bytes.
///
/// Every malformed input maps to exactly one variant; the decoder never
/// panics and never allocates based on an unvalidated length — the
/// `frame` fuzz target enforces both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix of zero: no frame is empty (the kind byte alone
    /// is one byte).
    ZeroLength {
        /// Byte offset of the offending prefix.
        offset: usize,
    },
    /// A declared length above the frame cap, rejected before the body
    /// is read.
    TooLarge {
        /// Length the prefix claimed.
        claimed: u32,
        /// The cap: the 16 MiB envelope cap plus 16 bytes.
        cap: u32,
    },
    /// The input ended mid-prefix or mid-body (strict decoding only;
    /// the incremental [`FramedStream`] waits instead).
    Truncated {
        /// Byte offset where reading stopped.
        offset: usize,
        /// Bytes still required.
        needed: usize,
    },
    /// The kind byte names no known frame kind.
    BadKind {
        /// Kind byte found.
        kind: u8,
    },
    /// A frame body does not match its kind's layout (wrong size,
    /// unknown abort code, embedded length overrun).
    BadBody {
        /// The frame kind whose body is malformed.
        kind: u8,
        /// What was wrong.
        detail: &'static str,
    },
    /// An embedded abort detail string was not valid UTF-8.
    BadUtf8,
    /// An embedded protocol envelope failed to decode.
    Envelope(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ZeroLength { offset } => {
                write!(f, "zero-length frame at byte {offset}")
            }
            FrameError::TooLarge { claimed, cap } => {
                write!(f, "frame claims {claimed} bytes (cap {cap})")
            }
            FrameError::Truncated { offset, needed } => {
                write!(f, "truncated frame at byte {offset} ({needed} more needed)")
            }
            FrameError::BadKind { kind } => write!(f, "unknown frame kind {kind}"),
            FrameError::BadBody { kind, detail } => {
                write!(f, "malformed body for frame kind {kind}: {detail}")
            }
            FrameError::BadUtf8 => write!(f, "abort detail is not valid UTF-8"),
            FrameError::Envelope(e) => write!(f, "embedded envelope: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Envelope(e)
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The body length claimed by the prefix `bytes` starts with, once all 4
/// prefix bytes are there.
fn len_prefix(bytes: &[u8]) -> Option<u32> {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(bytes.get(..4)?);
    Some(u32::from_le_bytes(buf))
}

fn read_u64(body: &[u8], at: usize) -> Option<u64> {
    let chunk = body.get(at..at.checked_add(8)?)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(chunk);
    Some(u64::from_le_bytes(buf))
}

/// Serialises one frame to its wire form (length prefix included).
pub fn encode_frame(frame: &SessionFrame) -> Vec<u8> {
    let mut body = Vec::new();
    let kind = match frame {
        SessionFrame::Hello {
            session,
            party,
            n_parties,
        } => {
            push_u64(&mut body, *session);
            push_u64(&mut body, *party);
            push_u64(&mut body, *n_parties);
            KIND_HELLO
        }
        SessionFrame::Welcome {
            session,
            party,
            n_parties,
        } => {
            push_u64(&mut body, *session);
            push_u64(&mut body, *party);
            push_u64(&mut body, *n_parties);
            KIND_WELCOME
        }
        SessionFrame::Envelope(env) => {
            body = env.encode();
            KIND_ENVELOPE
        }
        SessionFrame::Done { party } => {
            push_u64(&mut body, *party);
            KIND_DONE
        }
        SessionFrame::Complete => KIND_COMPLETE,
        SessionFrame::Abort(reason) => {
            match reason {
                AbortReason::PeerDisconnected { party } => {
                    body.push(ABORT_PEER_DISCONNECTED);
                    push_u64(&mut body, *party);
                }
                AbortReason::HandshakeTimeout => body.push(ABORT_HANDSHAKE_TIMEOUT),
                AbortReason::IdleTimeout => body.push(ABORT_IDLE_TIMEOUT),
                AbortReason::QueueOverflow { party } => {
                    body.push(ABORT_QUEUE_OVERFLOW);
                    push_u64(&mut body, *party);
                }
                AbortReason::Spoofed { claimed } => {
                    body.push(ABORT_SPOOFED);
                    push_u64(&mut body, *claimed);
                }
                AbortReason::ServerShutdown => body.push(ABORT_SERVER_SHUTDOWN),
                AbortReason::Protocol(msg) => {
                    body.push(ABORT_PROTOCOL);
                    body.extend_from_slice(msg.as_bytes());
                }
            }
            KIND_ABORT
        }
    };
    let len = 1u32.saturating_add(body.len() as u32);
    let mut out = Vec::with_capacity(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&body);
    out
}

/// Decodes one frame body (the bytes after the kind byte).
fn decode_body(kind: u8, body: &[u8]) -> Result<SessionFrame, FrameError> {
    let triple = |body: &[u8]| -> Result<(u64, u64, u64), FrameError> {
        if body.len() != 24 {
            return Err(FrameError::BadBody {
                kind,
                detail: "expected 24 bytes (session, party, n_parties)",
            });
        }
        match (read_u64(body, 0), read_u64(body, 8), read_u64(body, 16)) {
            (Some(a), Some(b), Some(c)) => Ok((a, b, c)),
            _ => Err(FrameError::BadBody {
                kind,
                detail: "short header triple",
            }),
        }
    };
    match kind {
        KIND_HELLO => {
            let (session, party, n_parties) = triple(body)?;
            Ok(SessionFrame::Hello {
                session,
                party,
                n_parties,
            })
        }
        KIND_WELCOME => {
            let (session, party, n_parties) = triple(body)?;
            Ok(SessionFrame::Welcome {
                session,
                party,
                n_parties,
            })
        }
        KIND_ENVELOPE => Ok(SessionFrame::Envelope(Envelope::decode(body)?)),
        KIND_DONE => {
            if body.len() != 8 {
                return Err(FrameError::BadBody {
                    kind,
                    detail: "expected 8 bytes (party)",
                });
            }
            match read_u64(body, 0) {
                Some(party) => Ok(SessionFrame::Done { party }),
                None => Err(FrameError::BadBody {
                    kind,
                    detail: "short party id",
                }),
            }
        }
        KIND_COMPLETE => {
            if !body.is_empty() {
                return Err(FrameError::BadBody {
                    kind,
                    detail: "expected empty body",
                });
            }
            Ok(SessionFrame::Complete)
        }
        KIND_ABORT => {
            let (&code, rest) = body.split_first().ok_or(FrameError::BadBody {
                kind,
                detail: "missing abort code",
            })?;
            let one_u64 = |rest: &[u8]| -> Result<u64, FrameError> {
                if rest.len() != 8 {
                    return Err(FrameError::BadBody {
                        kind,
                        detail: "expected 8-byte abort argument",
                    });
                }
                read_u64(rest, 0).ok_or(FrameError::BadBody {
                    kind,
                    detail: "short abort argument",
                })
            };
            let bare = |rest: &[u8], reason: AbortReason| -> Result<SessionFrame, FrameError> {
                if rest.is_empty() {
                    Ok(SessionFrame::Abort(reason))
                } else {
                    Err(FrameError::BadBody {
                        kind,
                        detail: "expected empty abort argument",
                    })
                }
            };
            match code {
                ABORT_PEER_DISCONNECTED => Ok(SessionFrame::Abort(AbortReason::PeerDisconnected {
                    party: one_u64(rest)?,
                })),
                ABORT_HANDSHAKE_TIMEOUT => bare(rest, AbortReason::HandshakeTimeout),
                ABORT_IDLE_TIMEOUT => bare(rest, AbortReason::IdleTimeout),
                ABORT_QUEUE_OVERFLOW => Ok(SessionFrame::Abort(AbortReason::QueueOverflow {
                    party: one_u64(rest)?,
                })),
                ABORT_SPOOFED => Ok(SessionFrame::Abort(AbortReason::Spoofed {
                    claimed: one_u64(rest)?,
                })),
                ABORT_SERVER_SHUTDOWN => bare(rest, AbortReason::ServerShutdown),
                ABORT_PROTOCOL => {
                    let msg = std::str::from_utf8(rest).map_err(|_| FrameError::BadUtf8)?;
                    Ok(SessionFrame::Abort(AbortReason::Protocol(msg.to_owned())))
                }
                _ => Err(FrameError::BadBody {
                    kind,
                    detail: "unknown abort code",
                }),
            }
        }
        other => Err(FrameError::BadKind { kind: other }),
    }
}

/// Incremental frame decoder over an arbitrary byte stream.
///
/// Feed raw socket reads with [`FrameBuffer::extend`]; pull decoded
/// frames with [`FrameBuffer::next_frame`], which returns `Ok(None)`
/// while a frame is incomplete (wait for more bytes) and a typed
/// [`FrameError`] as soon as a prefix is provably invalid — a hostile
/// length is rejected from its 4 prefix bytes alone, before any
/// buffering of the claimed body.
#[derive(Debug, Default)]
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the stream.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        // Drop the consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to one frame.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub(crate) fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Decodes the next complete frame, if the buffer holds one.
    pub(crate) fn next_frame(&mut self) -> Result<Option<SessionFrame>, FrameError> {
        let avail = &self.buf[self.consumed..];
        let Some(len) = len_prefix(avail) else {
            return Ok(None);
        };
        if len == 0 {
            return Err(FrameError::ZeroLength {
                offset: self.consumed,
            });
        }
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge {
                claimed: len,
                cap: MAX_FRAME_BYTES,
            });
        }
        let total = 4usize.saturating_add(len as usize);
        let Some(frame_bytes) = avail.get(4..total) else {
            return Ok(None);
        };
        let (&kind, body) = frame_bytes
            .split_first()
            .ok_or(FrameError::BadKind { kind: 0 })?;
        let frame = decode_body(kind, body)?;
        self.consumed += total;
        Ok(Some(frame))
    }

    /// Bytes still missing from the frame that starts at the first
    /// undecoded byte: 0 when nothing is pending, else up to the 4-byte
    /// length prefix or up to the end of the body it claims.
    fn missing_bytes(&self) -> usize {
        let avail = &self.buf[self.consumed..];
        let wanted = match len_prefix(avail) {
            Some(len) => 4usize.saturating_add(len as usize),
            None if avail.is_empty() => 0,
            None => 4,
        };
        wanted.saturating_sub(avail.len())
    }
}

/// Strictly decodes a complete byte string as a sequence of frames.
///
/// Unlike [`FramedStream`], a partial trailing frame here is a typed
/// [`FrameError::Truncated`] — this is the total function the `frame`
/// fuzz target drives, paired with [`encode_stream`] as its canonical
/// re-encoding.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<SessionFrame>, FrameError> {
    let mut buffer = FrameBuffer::new();
    buffer.extend(bytes);
    let mut frames = Vec::new();
    while let Some(frame) = buffer.next_frame()? {
        frames.push(frame);
    }
    match buffer.missing_bytes() {
        0 => Ok(frames),
        needed => Err(FrameError::Truncated {
            offset: bytes.len(),
            needed,
        }),
    }
}

/// Serialises a frame sequence; the canonical inverse of
/// [`decode_stream`].
pub fn encode_stream(frames: &[SessionFrame]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(&encode_frame(f));
    }
    out
}

/// A connected stream socket: TCP or (on Unix) a Unix-domain socket.
///
/// Reads block until bytes arrive or the read timeout (one io tick)
/// expires; the socket client also drains in non-blocking mode. A read
/// that returns no frame counts as one logical tick of the socket
/// transports, so no wall-clock value ever reaches a protocol decision.
/// TCP connections run with `TCP_NODELAY`.
#[derive(Debug)]
pub enum SocketStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain stream connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl SocketStream {
    /// Connects to `addr`: `unix:<path>` for a Unix-domain socket,
    /// anything else as a TCP `host:port`.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        #[cfg(unix)]
        if let Some(path) = addr.strip_prefix("unix:") {
            return Ok(SocketStream::Unix(UnixStream::connect(path)?));
        }
        Self::tcp(TcpStream::connect(addr)?)
    }

    /// Wraps a connected TCP stream with Nagle's algorithm off. Every
    /// frame is awaited by the peer, so holding a small one back to
    /// coalesce it stalls the exchange until the peer's delayed ACK
    /// fires (~40 ms on Linux).
    pub(crate) fn tcp(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(SocketStream::Tcp(stream))
    }

    /// Sets the read timeout (the io tick of the socket transports).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Sets the write timeout (bounds how long a stalled peer can block
    /// this connection's writer).
    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.set_write_timeout(dur),
        }
    }

    /// Switches non-blocking mode: reads on an empty socket then fail
    /// with `WouldBlock` at once instead of waiting out the read timeout.
    ///
    /// The mode belongs to the open socket, so it also switches every
    /// [`SocketStream::try_clone`] handle. Toggle it only where no other
    /// thread uses the socket, and restore blocking mode before writing.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Shuts down both directions; subsequent reads see EOF, including
    /// a read another handle is blocked in.
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    /// A second handle to the same connection (for split reader/writer).
    pub(crate) fn try_clone(&self) -> std::io::Result<Self> {
        Ok(match self {
            SocketStream::Tcp(s) => SocketStream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            SocketStream::Unix(s) => SocketStream::Unix(s.try_clone()?),
        })
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            SocketStream::Unix(s) => s.flush(),
        }
    }
}

/// What one timeout-bounded read attempt produced.
#[derive(Debug)]
pub enum ReadStep {
    /// A complete frame arrived.
    Frame(SessionFrame),
    /// No complete frame: the read timed out (one io tick elapsed), found
    /// a non-blocking socket empty, or read only part of a frame.
    Tick,
    /// The peer closed the connection.
    Eof,
}

/// A [`SocketStream`] paired with an incremental frame decoder.
#[derive(Debug)]
pub struct FramedStream {
    stream: SocketStream,
    buffer: FrameBuffer,
    chunk: Vec<u8>,
}

impl FramedStream {
    /// Wraps a connected stream.
    pub fn new(stream: SocketStream) -> Self {
        Self {
            stream,
            buffer: FrameBuffer::new(),
            chunk: vec![0u8; 64 * 1024],
        }
    }

    /// The underlying socket (for timeouts, blocking mode and shutdown).
    pub fn socket(&self) -> &SocketStream {
        &self.stream
    }

    /// Bytes read from the socket but not yet decoded into a frame. A
    /// [`ReadStep::Tick`] that raised this count read part of a frame.
    pub(crate) fn pending_bytes(&self) -> usize {
        self.buffer.pending_bytes()
    }

    /// Mutable access to the underlying socket. Writing raw bytes here
    /// bypasses the framing layer — that is the point: fault-injection
    /// harnesses use it to splice partial or corrupt frames onto the
    /// wire.
    pub fn socket_mut(&mut self) -> &mut SocketStream {
        &mut self.stream
    }

    /// Writes one frame and flushes it.
    pub fn write_frame(&mut self, frame: &SessionFrame) -> std::io::Result<()> {
        self.stream.write_all(&encode_frame(frame))?;
        self.stream.flush()
    }

    /// One read attempt, bounded by the socket's read timeout.
    ///
    /// Decodes from the buffer first (bytes already read count), then
    /// performs at most one socket read. A timeout, or `WouldBlock` on a
    /// non-blocking socket, is a [`ReadStep::Tick`] — the caller's logical
    /// clock; a decode failure is a [`FrameError`].
    pub fn read_step(&mut self) -> Result<ReadStep, FrameError> {
        if let Some(frame) = self.buffer.next_frame()? {
            return Ok(ReadStep::Frame(frame));
        }
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Ok(ReadStep::Eof),
            Ok(n) => {
                if let Some(read) = self.chunk.get(..n) {
                    self.buffer.extend(read);
                }
                match self.buffer.next_frame()? {
                    Some(frame) => Ok(ReadStep::Frame(frame)),
                    None => Ok(ReadStep::Tick),
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(ReadStep::Tick)
            }
            Err(_) => Ok(ReadStep::Eof),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{MsgId, Payload};

    fn sample_frames() -> Vec<SessionFrame> {
        vec![
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
            SessionFrame::Envelope(Envelope {
                id: MsgId(3),
                from: 0,
                to: 1,
                payload: Payload::Ack(MsgId(1)),
            }),
            SessionFrame::Done { party: 1 },
            SessionFrame::Complete,
            SessionFrame::Abort(AbortReason::PeerDisconnected { party: 1 }),
            SessionFrame::Abort(AbortReason::HandshakeTimeout),
            SessionFrame::Abort(AbortReason::IdleTimeout),
            SessionFrame::Abort(AbortReason::QueueOverflow { party: 0 }),
            SessionFrame::Abort(AbortReason::Spoofed { claimed: 9 }),
            SessionFrame::Abort(AbortReason::ServerShutdown),
            SessionFrame::Abort(AbortReason::Protocol("weird".to_owned())),
        ]
    }

    #[test]
    fn frame_roundtrip_every_kind() {
        for f in sample_frames() {
            let bytes = encode_frame(&f);
            let back = decode_stream(&bytes).unwrap();
            assert_eq!(back, vec![f.clone()]);
            assert_eq!(encode_stream(&back), bytes, "canonical fixed point");
        }
    }

    #[test]
    fn stream_roundtrip_concatenated() {
        let frames = sample_frames();
        let bytes = encode_stream(&frames);
        assert_eq!(decode_stream(&bytes).unwrap(), frames);
    }

    #[test]
    fn zero_length_prefix_is_typed_error() {
        let bytes = [0u8, 0, 0, 0, 9, 9];
        assert_eq!(
            decode_stream(&bytes),
            Err(FrameError::ZeroLength { offset: 0 })
        );
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert_eq!(fb.next_frame(), Err(FrameError::ZeroLength { offset: 0 }));
    }

    #[test]
    fn oversized_prefix_rejected_before_body() {
        // Claim just past the cap, provide only the prefix: the length
        // alone must already be the error.
        let claimed = MAX_FRAME_BYTES + 1;
        let bytes = claimed.to_le_bytes();
        assert_eq!(
            decode_stream(&bytes),
            Err(FrameError::TooLarge {
                claimed,
                cap: MAX_FRAME_BYTES,
            })
        );
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert_eq!(
            fb.next_frame(),
            Err(FrameError::TooLarge {
                claimed,
                cap: MAX_FRAME_BYTES,
            })
        );
    }

    #[test]
    fn truncation_strict_vs_incremental() {
        let bytes = encode_frame(&SessionFrame::Done { party: 4 });
        for cut in 1..bytes.len() {
            let prefix = &bytes[..cut];
            // Strict decoding: typed truncation error.
            assert!(
                matches!(decode_stream(prefix), Err(FrameError::Truncated { .. })),
                "strict cut {cut}"
            );
            // Incremental decoding: wait for more bytes, then succeed.
            let mut fb = FrameBuffer::new();
            fb.extend(prefix);
            assert_eq!(fb.next_frame(), Ok(None), "incremental cut {cut}");
            fb.extend(&bytes[cut..]);
            assert_eq!(
                fb.next_frame(),
                Ok(Some(SessionFrame::Done { party: 4 })),
                "incremental completion after cut {cut}"
            );
        }
    }

    #[test]
    fn spliced_frames_decode_across_chunk_boundaries() {
        let frames = sample_frames();
        let bytes = encode_stream(&frames);
        // Feed one byte at a time: every frame must still come out, in
        // order, regardless of chunking.
        let mut fb = FrameBuffer::new();
        let mut seen = Vec::new();
        for b in &bytes {
            fb.extend(std::slice::from_ref(b));
            while let Some(f) = fb.next_frame().unwrap() {
                seen.push(f);
            }
        }
        assert_eq!(seen, frames);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn bad_kind_and_bad_bodies_are_typed_errors() {
        // Unknown kind byte.
        let bytes = [1u8, 0, 0, 0, 99];
        assert_eq!(decode_stream(&bytes), Err(FrameError::BadKind { kind: 99 }));
        // Hello with a short body.
        let bytes = [2u8, 0, 0, 0, KIND_HELLO, 1];
        assert!(matches!(
            decode_stream(&bytes),
            Err(FrameError::BadBody { .. })
        ));
        // Complete with a non-empty body.
        let bytes = [2u8, 0, 0, 0, KIND_COMPLETE, 0];
        assert!(matches!(
            decode_stream(&bytes),
            Err(FrameError::BadBody { .. })
        ));
        // Abort with an unknown code.
        let bytes = [2u8, 0, 0, 0, KIND_ABORT, 200];
        assert!(matches!(
            decode_stream(&bytes),
            Err(FrameError::BadBody { .. })
        ));
        // Abort-protocol with invalid UTF-8 detail.
        let bytes = [3u8, 0, 0, 0, KIND_ABORT, ABORT_PROTOCOL, 0xFF];
        assert_eq!(decode_stream(&bytes), Err(FrameError::BadUtf8));
        // Envelope frame with garbage envelope bytes.
        let bytes = [3u8, 0, 0, 0, KIND_ENVELOPE, b'X', b'X'];
        assert!(matches!(
            decode_stream(&bytes),
            Err(FrameError::Envelope(WireError::BadMagic))
        ));
    }

    #[test]
    fn abort_reasons_display() {
        for f in sample_frames() {
            if let SessionFrame::Abort(r) = f {
                assert!(!r.to_string().is_empty());
            }
        }
    }

    /// A Unix socket pair: the reading end framed, with a 10 s read
    /// timeout and in non-blocking mode, and the raw writing end.
    #[cfg(unix)]
    fn nonblocking_pair() -> (FramedStream, UnixStream) {
        let (reader, writer) = UnixStream::pair().unwrap();
        let reader = SocketStream::Unix(reader);
        reader
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        reader.set_nonblocking(true).unwrap();
        (FramedStream::new(reader), writer)
    }

    #[cfg(unix)]
    #[test]
    fn nonblocking_read_on_empty_socket_ticks_at_once() {
        let (mut framed, _writer) = nonblocking_pair();
        // lint: allow(no-wall-clock) reason="the assertion is that a non-blocking read does not wait out the 10 s read timeout; nothing else reads the clock"
        let start = std::time::Instant::now();
        assert!(matches!(framed.read_step(), Ok(ReadStep::Tick)));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a non-blocking read must not wait out the read timeout"
        );
    }

    #[cfg(unix)]
    #[test]
    fn nonblocking_drain_reads_back_to_back_frames() {
        let (mut framed, mut writer) = nonblocking_pair();
        let frames = vec![SessionFrame::Done { party: 0 }, SessionFrame::Complete];
        writer.write_all(&encode_stream(&frames)).unwrap();
        let mut drained = Vec::new();
        while let Ok(ReadStep::Frame(frame)) = framed.read_step() {
            drained.push(frame);
        }
        assert_eq!(drained, frames);
    }

    #[cfg(unix)]
    #[test]
    fn nonblocking_read_reassembles_a_frame_written_in_halves() {
        let (mut framed, mut writer) = nonblocking_pair();
        // Larger than one 64 KiB read, so each half may take several.
        let frame = SessionFrame::Abort(AbortReason::Protocol("x".repeat(100_000)));
        let bytes = encode_frame(&frame);
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        writer.write_all(head).unwrap();
        for _ in 0..4 {
            assert!(matches!(framed.read_step(), Ok(ReadStep::Tick)));
        }
        assert_eq!(
            framed.pending_bytes(),
            head.len(),
            "the half stays buffered"
        );
        writer.write_all(tail).unwrap();
        let mut reassembled = None;
        for _ in 0..4 {
            if let Ok(ReadStep::Frame(f)) = framed.read_step() {
                reassembled = Some(f);
                break;
            }
        }
        assert_eq!(reassembled, Some(frame));
        assert_eq!(framed.pending_bytes(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn restored_blocking_mode_waits_again() {
        let (mut framed, mut writer) = nonblocking_pair();
        assert!(matches!(framed.read_step(), Ok(ReadStep::Tick)));
        framed.socket().set_nonblocking(false).unwrap();
        // The frame is written after a pause, so the read most likely
        // starts first: a blocking read waits for it, a non-blocking one
        // would tick at once. Either order passes when the read blocks.
        let late = std::thread::spawn(move || {
            // lint: allow(no-wall-clock) reason="the pause only makes a non-blocking read likely to tick first; the assertion holds in either order"
            std::thread::sleep(Duration::from_millis(100));
            writer
                .write_all(&encode_frame(&SessionFrame::Complete))
                .unwrap();
            writer
        });
        assert!(matches!(
            framed.read_step(),
            Ok(ReadStep::Frame(SessionFrame::Complete))
        ));
        drop(late.join().unwrap());
    }
}
