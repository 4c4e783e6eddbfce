//! `mpriv serve`: a long-running daemon multiplexing many concurrent VFL
//! setup sessions over real sockets.
//!
//! ## Architecture
//!
//! The server is a pure **relay**: it never holds party data, never
//! decodes a metadata package, and takes no protocol decisions. Each
//! client connection speaks for exactly one party of one session; the
//! per-party state machine is the same engine the in-process harness
//! runs, so a completed socket session is *bit-identical* to the
//! same seeds through [`crate::Network::new`] — the simulator is a
//! faithful test double for the daemon, and the sim invariant harness is
//! the oracle the soak tests check against.
//!
//! ```text
//!                     per connection
//! client party 0 ──▶ ┌ reader thread ───────────────┐
//!                    │ Hello → join session         │
//! client party 1 ──▶ │ Envelope → push onto peer's  │
//!      ...           │   bounded queue              │
//!                    └──────────────────────────────┘
//! client party k ◀── ┌ writer thread ───────────────┐
//!                    │ own queue → socket, woken by │
//!                    │   each push                  │
//!                    └──────────────────────────────┘
//! ```
//!
//! **Backpressure.** Every session member owns a bounded outbound queue;
//! routing a frame into a full queue waits a bounded number of io ticks and
//! then aborts *that session* with [`AbortReason::QueueOverflow`]. A
//! stalled session can therefore never stall another: a reader blocks only
//! on its own socket (timeout-bounded) or on a peer queue (tick-bounded),
//! and a writer only on its own queue or its own socket
//! (write-timeout-bounded). The writer waits on its queue's condvar, so a
//! routed frame goes out the moment it is pushed rather than when a read
//! timeout next expires.
//!
//! **Time.** No wall clock reaches any decision in this module. A read
//! that returns no frame is one *io tick*, bounded by the socket read
//! timeout; handshake, idle, backpressure and drain budgets are all tick
//! counts, derived from the protocol's [`RetryConfig`] by
//! [`ServeConfig::from_retry`]. A read ends as soon as a frame arrives,
//! so only a tick that waits for nothing lasts the full `io_tick` (as the
//! host rounds socket timeouts). (That duration is configuration, set by
//! binaries; the library only counts.)
//!
//! **Aborts and shutdown.** Any failure — disconnect, spoofed sender,
//! queue overflow, idle timeout — aborts the one affected session: the
//! typed [`AbortReason`] jumps every member queue and each client maps it
//! onto a [`SetupError`]. [`Server::shutdown`] stops accepting, lets
//! in-flight sessions drain for a tick budget, then aborts stragglers
//! with [`AbortReason::ServerShutdown`] and joins every thread.

use crate::multiparty::{MultiAlignment, MultiSetupOutcome};
use crate::net::{encode_frame, AbortReason, FramedStream, ReadStep, SessionFrame, SocketStream};
use crate::party::Party;
use crate::protocol::{EngineMetrics, PartyEngine, RetryConfig, SetupError};
use crate::psi::{intersect_all, IdDigest};
use crate::transport::{Envelope, MsgId, PartyId, TraceEvent, Transport};
use mp_metadata::{MetadataPackage, SharePolicy};
use mp_observe::Recorder;
use mp_relation::{Relation, RelationError};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Unpoisons a mutex guard: the daemon keeps serving other sessions even
/// if one connection thread panicked mid-lock.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Bounded queues
// ---------------------------------------------------------------------

/// A bounded MPSC queue with tick-bounded blocking push and pop.
///
/// The unit of backpressure: one per session member, holding the frames
/// routed *to* that member. `cap` bounds memory per session.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    readable: Condvar,
    writable: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `cap` items.
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Pushes without blocking; `false` if the queue is full.
    pub(crate) fn try_push(&self, item: T) -> bool {
        let mut g = lock(&self.inner);
        if g.items.len() >= self.cap {
            return false;
        }
        g.items.push_back(item);
        self.readable.notify_one();
        true
    }

    /// Pushes, waiting up to `ticks` waits of `tick` each for space.
    /// `false` means the backpressure budget elapsed with the queue still
    /// full — the caller aborts the session.
    pub(crate) fn push_bounded(&self, item: T, tick: Duration, ticks: u64) -> bool {
        let mut g = lock(&self.inner);
        let mut waited = 0u64;
        while g.items.len() >= self.cap {
            if waited >= ticks {
                return false;
            }
            let (guard, timeout) = self
                .writable
                .wait_timeout(g, tick)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
            if timeout.timed_out() {
                waited += 1;
            }
        }
        g.items.push_back(item);
        self.readable.notify_one();
        true
    }

    /// Clears the queue and pushes `item` alone: aborts must never queue
    /// behind the very backlog that caused them.
    pub(crate) fn jump_queue(&self, item: T) {
        let mut g = lock(&self.inner);
        g.items.clear();
        g.items.push_back(item);
        self.readable.notify_one();
        self.writable.notify_all();
    }

    /// Pops the oldest item, waiting until one is pushed. `None` once the
    /// queue is [closed](Self::close) and empty. Push and close both wake
    /// the waiter, so it needs no timeout and an idle queue costs no
    /// wakeups.
    pub(crate) fn pop_wait(&self) -> Option<T> {
        let mut g = self
            .readable
            .wait_while(lock(&self.inner), |q| q.items.is_empty() && !q.closed)
            .unwrap_or_else(PoisonError::into_inner);
        let item = g.items.pop_front();
        if item.is_some() {
            self.writable.notify_one();
        }
        item
    }

    /// Marks the queue closed and wakes a waiting
    /// [`pop_wait`](Self::pop_wait): items still queued are popped as
    /// usual, then popping returns `None` without waiting.
    pub(crate) fn close(&self) {
        lock(&self.inner).closed = true;
        self.readable.notify_all();
    }

    /// Current depth.
    pub(crate) fn depth(&self) -> usize {
        lock(&self.inner).items.len()
    }
}

// ---------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------

/// A bound listening socket: TCP or (on Unix) a Unix-domain socket.
#[derive(Debug)]
pub(crate) enum SocketListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener, with its filesystem path (removed on
    /// shutdown).
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl SocketListener {
    /// Binds `addr`: `unix:<path>` for a Unix-domain socket, anything
    /// else as a TCP `host:port` (use port 0 for an ephemeral port).
    pub(crate) fn bind(addr: &str) -> std::io::Result<Self> {
        #[cfg(unix)]
        if let Some(path) = addr.strip_prefix("unix:") {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            return Ok(SocketListener::Unix(
                UnixListener::bind(path)?,
                path.to_owned(),
            ));
        }
        Ok(SocketListener::Tcp(TcpListener::bind(addr)?))
    }

    /// The bound address in the form [`SocketStream::connect`] accepts.
    pub(crate) fn local_addr(&self) -> std::io::Result<String> {
        match self {
            SocketListener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            #[cfg(unix)]
            SocketListener::Unix(_, path) => Ok(format!("unix:{path}")),
        }
    }

    /// Blocks until the next connection.
    pub(crate) fn accept(&self) -> std::io::Result<SocketStream> {
        match self {
            SocketListener::Tcp(l) => SocketStream::tcp(l.accept()?.0),
            #[cfg(unix)]
            SocketListener::Unix(l, _) => Ok(SocketStream::Unix(l.accept()?.0)),
        }
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Most parties a session may declare.
const MAX_SESSION_PARTIES: usize = 8;

/// Per-member outbound queue capacity (the backpressure bound).
pub const QUEUE_CAP: usize = 64;

/// Daemon configuration: the length of one io tick and the retry policy
/// every supervision budget (a tick count) derives from.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Longest wall duration of one io tick: the socket read timeout, and
    /// the wait step of a push into a full queue. A read ends early when
    /// its frame arrives, so this bounds how long an idle connection takes
    /// to use up a budget, not how long a frame takes to cross the relay.
    /// Hosts round socket timeouts up to their timer tick (a 2 ms tick
    /// waits ~8 ms on a 250 Hz kernel).
    pub io_tick: Duration,
    /// The protocol retry policy the connection budgets are mapped from.
    pub retry: RetryConfig,
}

impl ServeConfig {
    /// Supervision under the protocol's retry policy, at a 2 ms io tick.
    /// The handshake and drain budgets are one full retransmission
    /// ladder (if a peer could still be retried, the server still
    /// waits), the backpressure budget is one backoff cap, and the idle
    /// budget is the protocol's own liveness bound — the server never
    /// gives up on a session the protocol would still consider live.
    pub fn from_retry(retry: &RetryConfig) -> Self {
        Self {
            io_tick: Duration::from_millis(2),
            retry: *retry,
        }
    }

    /// Ticks a fresh connection gets to send its `Hello`.
    fn handshake_ticks(&self) -> u64 {
        self.retry.ladder_ticks()
    }

    /// Ticks an assembled session may sit with no frame in either
    /// direction before it is aborted.
    fn idle_ticks(&self) -> u64 {
        self.retry.max_ticks
    }

    /// Ticks a routing push may wait on a full peer queue.
    fn push_ticks(&self) -> u64 {
        self.retry.backoff_cap.max(1)
    }

    /// Ticks an in-flight session gets to finish after shutdown begins.
    fn drain_ticks(&self) -> u64 {
        self.retry.ladder_ticks()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::from_retry(&RetryConfig::default())
    }
}

/// Server metric handles (all under the `serve.` prefix).
#[derive(Debug, Clone)]
struct ServeMetrics {
    sessions_started: mp_observe::Counter,
    sessions_completed: mp_observe::Counter,
    sessions_aborted: mp_observe::Counter,
    frames_in: mp_observe::Counter,
    frames_routed: mp_observe::Counter,
    spoof_rejected: mp_observe::Counter,
    connections: mp_observe::Gauge,
    queue_depth: mp_observe::Gauge,
}

impl ServeMetrics {
    fn new(recorder: &dyn Recorder) -> Self {
        Self {
            sessions_started: recorder.counter("serve.sessions_started"),
            sessions_completed: recorder.counter("serve.sessions_completed"),
            sessions_aborted: recorder.counter("serve.sessions_aborted"),
            frames_in: recorder.counter("serve.frames_in"),
            frames_routed: recorder.counter("serve.frames_routed"),
            spoof_rejected: recorder.counter("serve.spoof_rejected"),
            connections: recorder.gauge("serve.connections"),
            queue_depth: recorder.gauge("serve.queue_depth"),
        }
    }
}

/// Authoritative lifetime counters for [`ServeReport`].
///
/// These are server-owned so the report stays correct even under a
/// [`mp_observe::NoopRecorder`], whose counter handles discard writes;
/// every bump is mirrored into the matching `serve.*` metric handle.
#[derive(Debug, Default)]
struct ServeStats {
    sessions_started: AtomicU64,
    sessions_completed: AtomicU64,
    sessions_aborted: AtomicU64,
    frames_in: AtomicU64,
    frames_routed: AtomicU64,
    spoof_rejected: AtomicU64,
}

/// What happened to a session, for the final report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionPhase {
    /// Waiting for all members to join.
    Gathering,
    /// All members joined; protocol frames are being relayed.
    Running,
    /// Closed — completed or aborted.
    Closed,
}

/// One multiplexed session: membership, queues, completion state.
struct SessionState {
    n: usize,
    phase: SessionPhase,
    members: Vec<Option<Arc<BoundedQueue<SessionFrame>>>>,
    done: Vec<bool>,
    live: usize,
}

impl SessionState {
    fn new(n: usize) -> Self {
        Self {
            n,
            phase: SessionPhase::Gathering,
            members: (0..n).map(|_| None).collect(),
            done: vec![false; n],
            live: 0,
        }
    }
}

struct ServerShared {
    cfg: ServeConfig,
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<SessionState>>>>,
    shutdown: AtomicBool,
    ticks: AtomicU64,
    max_queue_depth: AtomicU64,
    connections: AtomicU64,
    stats: ServeStats,
    metrics: ServeMetrics,
    recorder: Arc<dyn Recorder>,
}

impl ServerShared {
    fn count_session_started(&self) {
        self.stats.sessions_started.fetch_add(1, Ordering::Relaxed);
        self.metrics.sessions_started.inc();
    }

    fn count_session_completed(&self) {
        self.stats
            .sessions_completed
            .fetch_add(1, Ordering::Relaxed);
        self.metrics.sessions_completed.inc();
    }

    /// Counts a connection opening or closing and mirrors the live count
    /// into the `serve.connections` gauge. The mirror re-reads the count
    /// after each write, so the last thread to write publishes the final
    /// count however concurrent opens and closes interleave.
    fn count_connection(&self, opened: bool) {
        if opened {
            self.connections.fetch_add(1, Ordering::SeqCst);
        } else {
            self.connections.fetch_sub(1, Ordering::SeqCst);
        }
        loop {
            let live = self.connections.load(Ordering::SeqCst);
            self.metrics.connections.set(live);
            if self.connections.load(Ordering::SeqCst) == live {
                break;
            }
        }
    }

    fn count_frame_in(&self) {
        self.stats.frames_in.fetch_add(1, Ordering::Relaxed);
        self.metrics.frames_in.inc();
    }

    fn count_frame_routed(&self) {
        self.stats.frames_routed.fetch_add(1, Ordering::Relaxed);
        self.metrics.frames_routed.inc();
    }

    fn count_spoof_rejected(&self) {
        self.stats.spoof_rejected.fetch_add(1, Ordering::Relaxed);
        self.metrics.spoof_rejected.inc();
    }

    /// One io tick elapsed somewhere: advance the logical clock the
    /// recorder's spans are measured in.
    fn note_tick(&self) {
        let t = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        self.recorder.set_time(t);
    }

    fn note_depth(&self, depth: usize) {
        let d = depth as u64;
        self.metrics.queue_depth.set(d);
        self.max_queue_depth.fetch_max(d, Ordering::Relaxed);
    }

    /// Aborts a session: marks it closed and jumps every member queue
    /// with the typed reason (idempotent — the first reason wins).
    fn abort_session(&self, session: &Mutex<SessionState>, reason: AbortReason) {
        let mut s = lock(session);
        if s.phase == SessionPhase::Closed {
            return;
        }
        s.phase = SessionPhase::Closed;
        self.stats.sessions_aborted.fetch_add(1, Ordering::Relaxed);
        self.metrics.sessions_aborted.inc();
        for q in s.members.iter().flatten() {
            q.jump_queue(SessionFrame::Abort(reason.clone()));
        }
    }
}

/// Summary of a server's lifetime, returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Sessions that assembled all their members.
    pub sessions_started: u64,
    /// Sessions that completed cleanly (every member reported done).
    pub sessions_completed: u64,
    /// Sessions torn down with a typed abort.
    pub sessions_aborted: u64,
    /// Frames received from clients.
    pub frames_in: u64,
    /// Envelope frames routed between members.
    pub frames_routed: u64,
    /// Envelopes rejected for claiming another member's identity.
    pub spoof_rejected: u64,
    /// Highest per-member queue depth ever observed.
    pub max_queue_depth: u64,
}

/// A running `mpriv serve` daemon.
///
/// Created by [`Server::start`]; owns the acceptor thread and every
/// connection thread. Call [`Server::shutdown`] for a graceful stop
/// (drains in-flight sessions, then aborts stragglers) and the final
/// [`ServeReport`].
pub struct Server {
    shared: Arc<ServerShared>,
    addr: String,
    acceptor: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    #[cfg(unix)]
    unix_path: Option<String>,
}

impl Server {
    /// Binds `addr` and starts accepting connections.
    pub fn start(
        addr: &str,
        cfg: ServeConfig,
        recorder: Arc<dyn Recorder>,
    ) -> std::io::Result<Server> {
        let listener = SocketListener::bind(addr)?;
        let local = listener.local_addr()?;
        #[cfg(unix)]
        let unix_path = match &listener {
            SocketListener::Unix(_, path) => Some(path.clone()),
            _ => None,
        };
        let shared = Arc::new(ServerShared {
            cfg,
            sessions: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            stats: ServeStats::default(),
            metrics: ServeMetrics::new(recorder.as_ref()),
            recorder,
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                while !shared.shutdown.load(Ordering::SeqCst) {
                    let Ok(stream) = listener.accept() else {
                        continue;
                    };
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || handle_connection(stream, shared));
                    lock(&conns).push(handle);
                }
            })
        };
        Ok(Server {
            shared,
            addr: local,
            acceptor: Some(acceptor),
            conns,
            #[cfg(unix)]
            unix_path,
        })
    }

    /// The bound address, in the form [`SocketStream::connect`] accepts.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Graceful stop: stop accepting, give in-flight sessions the drain
    /// budget, abort stragglers with [`AbortReason::ServerShutdown`],
    /// join every thread and report.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_threads();
        let s = &self.shared.stats;
        ServeReport {
            sessions_started: s.sessions_started.load(Ordering::Relaxed),
            sessions_completed: s.sessions_completed.load(Ordering::Relaxed),
            sessions_aborted: s.sessions_aborted.load(Ordering::Relaxed),
            frames_in: s.frames_in.load(Ordering::Relaxed),
            frames_routed: s.frames_routed.load(Ordering::Relaxed),
            spoof_rejected: s.spoof_rejected.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    fn stop_threads(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept.
        let _ = SocketStream::connect(&self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Connection threads observe the flag, drain, then exit.
        let handles: Vec<_> = lock(&self.conns).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_threads();
        }
    }
}

/// Serves one connection: this thread reads and routes, a scoped writer
/// thread delivers the connection's own queue. Whichever side ends first
/// wakes the other — the reader by closing the queue, the writer by
/// shutting the socket down — so teardown never waits out a tick.
fn handle_connection(stream: SocketStream, shared: Arc<ServerShared>) {
    let _ = stream.set_read_timeout(Some(shared.cfg.io_tick));
    // A stalled reader can block our writes for at most the push budget.
    let write_cap = shared
        .cfg
        .io_tick
        .saturating_mul(shared.cfg.push_ticks().min(u64::from(u32::MAX)) as u32);
    let _ = stream.set_write_timeout(Some(write_cap.max(shared.cfg.io_tick)));
    let Ok(out) = stream.try_clone() else {
        let _ = stream.shutdown();
        return;
    };

    let conn_span = shared.recorder.span("serve.connection");
    let _conn_guard = conn_span.enter();
    shared.count_connection(true);

    let queue = Arc::new(BoundedQueue::new(QUEUE_CAP));
    let idle = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| write_loop(out, &queue, &idle));
        // Closes the queue however the reader leaves, unwinding included,
        // so the writer is done by the time the scope joins it.
        let _close = CloseOnDrop(&queue);
        let mut framed = FramedStream::new(stream);
        if let Some(reason) = connection_loop(&mut framed, &queue, &idle, &shared) {
            queue.jump_queue(SessionFrame::Abort(reason));
        }
    });
    shared.count_connection(false);
}

/// Closes a queue when dropped.
struct CloseOnDrop<'a, T>(&'a BoundedQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The writer half of a connection: sends each frame of `queue` as soon
/// as it is pushed. Stops after a terminal frame, on a failed write, or
/// once the queue is closed and empty, then shuts the socket down — which
/// the reader sees as end-of-stream.
fn write_loop(mut out: SocketStream, queue: &BoundedQueue<SessionFrame>, idle: &AtomicU64) {
    while let Some(frame) = queue.pop_wait() {
        idle.store(0, Ordering::Relaxed);
        let terminal = matches!(frame, SessionFrame::Complete | SessionFrame::Abort(_));
        if out.write_all(&encode_frame(&frame)).is_err() || terminal {
            break;
        }
    }
    let _ = out.shutdown();
}

/// The reader half of a connection: handshake, join, then read and route
/// until end-of-stream. Returns `Some(reason)` when the connection must
/// be refused with an abort frame no session teardown queued, `None`
/// otherwise. `idle` counts ticks without a frame in either direction;
/// the writer resets it too.
fn connection_loop(
    framed: &mut FramedStream,
    my_queue: &Arc<BoundedQueue<SessionFrame>>,
    idle: &AtomicU64,
    shared: &ServerShared,
) -> Option<AbortReason> {
    // -- Handshake: one Hello within the handshake budget. ------------
    let mut ticks = 0u64;
    let (session_id, party, n_parties) = loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Some(AbortReason::ServerShutdown);
        }
        match framed.read_step() {
            Ok(ReadStep::Frame(SessionFrame::Hello {
                session,
                party,
                n_parties,
            })) => {
                shared.count_frame_in();
                break (session, party, n_parties);
            }
            Ok(ReadStep::Frame(other)) => {
                return Some(AbortReason::Protocol(format!(
                    "expected hello, got {}",
                    other.kind()
                )));
            }
            Ok(ReadStep::Tick) => {
                shared.note_tick();
                ticks += 1;
                if ticks >= shared.cfg.handshake_ticks() {
                    return Some(AbortReason::HandshakeTimeout);
                }
            }
            Ok(ReadStep::Eof) => return None,
            Err(e) => return Some(AbortReason::Protocol(e.to_string())),
        }
    };
    let n = n_parties as usize;
    if !(2..=MAX_SESSION_PARTIES).contains(&n) {
        return Some(AbortReason::Protocol(format!(
            "session size {n} outside 2..={MAX_SESSION_PARTIES}"
        )));
    }
    if party >= n_parties {
        return Some(AbortReason::Protocol(format!(
            "party {party} outside session of {n}"
        )));
    }
    let party_ix = party as usize;

    // -- Join the session registry. ------------------------------------
    let session = {
        let mut sessions = lock(&shared.sessions);
        let session = Arc::clone(
            sessions
                .entry(session_id)
                .or_insert_with(|| Arc::new(Mutex::new(SessionState::new(n)))),
        );
        let mut s = lock(&session);
        if s.n != n {
            return Some(AbortReason::Protocol(format!(
                "session size mismatch: declared {n}, session has {}",
                s.n
            )));
        }
        if s.phase != SessionPhase::Gathering {
            return Some(AbortReason::Protocol("session already running".to_owned()));
        }
        let Some(slot) = s.members.get_mut(party_ix) else {
            return Some(AbortReason::Protocol("party slot out of range".to_owned()));
        };
        if slot.is_some() {
            return Some(AbortReason::Protocol(format!(
                "party {party} already joined"
            )));
        }
        *slot = Some(Arc::clone(my_queue));
        s.live += 1;
        if s.live == s.n {
            s.phase = SessionPhase::Running;
            shared.count_session_started();
            for (q_ix, q) in s.members.iter().enumerate() {
                if let Some(q) = q {
                    q.jump_queue(SessionFrame::Welcome {
                        session: session_id,
                        party: q_ix as u64,
                        n_parties,
                    });
                }
            }
        }
        drop(s);
        session
    };

    // -- Relay: read and route until end-of-stream. The writer shuts the
    //    socket down after the terminal frame, which ends this loop. ----
    let mut shutdown_steps = 0u64;
    loop {
        match framed.read_step() {
            Ok(ReadStep::Frame(frame)) => {
                idle.store(0, Ordering::Relaxed);
                shared.count_frame_in();
                route_frame(frame, party, &session, shared);
            }
            Ok(ReadStep::Tick) => {
                shared.note_tick();
                if idle.fetch_add(1, Ordering::Relaxed) + 1 >= shared.cfg.idle_ticks() {
                    shared.abort_session(&session, AbortReason::IdleTimeout);
                }
            }
            Ok(ReadStep::Eof) => {
                // Disconnect before Complete/Abort reached the client: if
                // the session is still live this is a mid-session crash.
                shared.abort_session(&session, AbortReason::PeerDisconnected { party });
                break;
            }
            Err(e) => {
                // The undecodable bytes stay buffered, so reading on would
                // only repeat the error; the writer delivers the abort.
                shared.abort_session(&session, AbortReason::Protocol(e.to_string()));
                break;
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            shutdown_steps += 1;
            if shutdown_steps > shared.cfg.drain_ticks() {
                shared.abort_session(&session, AbortReason::ServerShutdown);
            }
        }
    }

    // -- Leave: drop membership; forget fully-vacated sessions. --------
    {
        let mut s = lock(&session);
        if let Some(slot) = s.members.get_mut(party_ix) {
            *slot = None;
        }
        s.live = s.live.saturating_sub(1);
        if s.live == 0 {
            drop(s);
            // lint: allow(lock-order) reason="the session guard is dropped on the line above, so the registry lock is never nested inside it"
            lock(&shared.sessions).remove(&session_id);
        }
    }
    None
}

/// Acts on one frame from `party`'s client: routes an envelope into its
/// recipient's queue, records a `Done`, or aborts the session on a
/// spoofed sender or an out-of-place frame.
fn route_frame(
    frame: SessionFrame,
    party: u64,
    session: &Mutex<SessionState>,
    shared: &ServerShared,
) {
    match frame {
        SessionFrame::Envelope(env) => {
            if env.from as u64 != party {
                shared.count_spoof_rejected();
                shared.abort_session(
                    session,
                    AbortReason::Spoofed {
                        claimed: env.from as u64,
                    },
                );
                return;
            }
            let target = {
                let s = lock(session);
                if s.phase != SessionPhase::Running {
                    None
                } else {
                    s.members
                        .get(env.to)
                        .and_then(Option::as_ref)
                        .map(Arc::clone)
                }
            };
            let Some(target) = target else {
                // Closed session or unknown recipient: the teardown
                // frames are already on our queue.
                return;
            };
            let to = env.to as u64;
            let ok = target.push_bounded(
                SessionFrame::Envelope(env),
                shared.cfg.io_tick,
                shared.cfg.push_ticks(),
            );
            shared.note_depth(target.depth());
            if ok {
                shared.count_frame_routed();
            } else {
                shared.abort_session(session, AbortReason::QueueOverflow { party: to });
            }
        }
        SessionFrame::Done { party: done_party } => {
            if done_party != party {
                shared.abort_session(
                    session,
                    AbortReason::Spoofed {
                        claimed: done_party,
                    },
                );
                return;
            }
            let mut s = lock(session);
            if let Some(flag) = s.done.get_mut(party as usize) {
                *flag = true;
            }
            if s.phase == SessionPhase::Running && s.done.iter().all(|&d| d) {
                s.phase = SessionPhase::Closed;
                shared.count_session_completed();
                for q in s.members.iter().flatten() {
                    // Completion may not skip queued acks, so it takes
                    // the normal (bounded) path; on overflow the abort
                    // jumps the queue.
                    if !q.try_push(SessionFrame::Complete) {
                        q.jump_queue(SessionFrame::Complete);
                    }
                }
            }
        }
        SessionFrame::Abort(reason) => {
            shared.abort_session(session, reason);
        }
        SessionFrame::Hello { .. } | SessionFrame::Welcome { .. } | SessionFrame::Complete => {
            shared.abort_session(
                session,
                AbortReason::Protocol(format!("unexpected {} frame mid-session", frame.kind())),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Client-side configuration for one socket session.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Session to join (agreed out of band, like the PSI salt).
    pub session: u64,
    /// The party index this client speaks for.
    pub party: PartyId,
    /// Total parties in the session.
    pub n_parties: usize,
    /// Longest wall duration of one io tick: the read timeout. A tick
    /// ends early once a frame arrives; the client's logical clock
    /// advances once per tick either way.
    pub io_tick: Duration,
    /// The protocol retry policy (retransmissions count io ticks). The
    /// client waits four retransmission ladders for the server's
    /// `Welcome`.
    pub retry: RetryConfig,
}

impl ClientConfig {
    /// A client for `party` of `n_parties` in `session` under `retry`, at
    /// the same 2 ms io tick as [`ServeConfig::from_retry`].
    pub fn new(session: u64, party: PartyId, n_parties: usize, retry: RetryConfig) -> Self {
        Self {
            session,
            party,
            n_parties,
            io_tick: Duration::from_millis(2),
            retry,
        }
    }
}

/// Terminal session states a [`SocketTransport`] can observe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum ClientState {
    /// Frames are flowing.
    #[default]
    Running,
    /// The server reported every party done.
    Complete,
    /// The server aborted the session.
    Aborted(AbortReason),
    /// The connection died underneath us.
    Disconnected,
}

/// A [`Transport`] carrying one party's envelopes over a socket.
///
/// [`Transport::tick`] is one read pass: it waits for the first bytes at
/// most until the read timeout, drains whatever else has arrived without
/// waiting, and returns. A tick therefore ends at the first arrival
/// (after draining) or at the timeout. Retransmission timers count these
/// passes, so no wall-clock value ever reaches a protocol decision.
pub(crate) struct SocketTransport {
    framed: FramedStream,
    party: PartyId,
    n: usize,
    now: u64,
    inbox: VecDeque<Envelope>,
    trace: Vec<TraceEvent>,
    state: ClientState,
    crashed: Vec<bool>,
}

impl SocketTransport {
    fn new(framed: FramedStream, party: PartyId, n: usize) -> Self {
        Self {
            framed,
            party,
            n,
            now: 0,
            inbox: VecDeque::new(),
            trace: Vec::new(),
            state: ClientState::Running,
            crashed: vec![false; n],
        }
    }

    /// One read step. Envelopes land in the inbox; terminal frames flip
    /// [`ClientState`]. `true` when bytes arrived: a whole frame, or part
    /// of one that stays buffered.
    fn read_once(&mut self) -> bool {
        let pending = self.framed.pending_bytes();
        match self.framed.read_step() {
            Ok(ReadStep::Frame(SessionFrame::Envelope(env))) => {
                self.trace.push(TraceEvent::Delivered {
                    at: self.now,
                    env: env.clone(),
                });
                self.inbox.push_back(env);
            }
            Ok(ReadStep::Frame(SessionFrame::Complete)) => {
                self.state = ClientState::Complete;
            }
            Ok(ReadStep::Frame(SessionFrame::Abort(reason))) => {
                if let AbortReason::PeerDisconnected { party } = &reason {
                    if let Some(flag) = self.crashed.get_mut(*party as usize) {
                        *flag = true;
                    }
                    self.trace.push(TraceEvent::Crashed {
                        at: self.now,
                        party: *party as usize,
                    });
                }
                self.state = ClientState::Aborted(reason);
            }
            Ok(ReadStep::Frame(_)) => {
                // Welcome/Hello/Done mid-run: relay noise; ignore.
            }
            Ok(ReadStep::Tick) => return self.framed.pending_bytes() > pending,
            Ok(ReadStep::Eof) | Err(_) => {
                self.state = ClientState::Disconnected;
                return false;
            }
        }
        true
    }
}

impl Transport for SocketTransport {
    fn n_parties(&self) -> usize {
        self.n
    }

    fn send(&mut self, env: Envelope, attempt: u32) {
        self.trace.push(TraceEvent::Sent {
            at: self.now,
            env: env.clone(),
            attempt,
        });
        if self
            .framed
            .write_frame(&SessionFrame::Envelope(env))
            .is_err()
        {
            self.state = ClientState::Disconnected;
        }
    }

    /// Waits at most one io tick for the first bytes, then drains what
    /// the socket already holds without waiting again — a frame split
    /// across several reads included — and returns.
    fn tick(&mut self) {
        self.now += 1;
        if self.state != ClientState::Running || !self.read_once() {
            return;
        }
        // Only this thread touches the socket, and it writes between
        // ticks, so blocking mode is back before any write.
        if self.framed.socket().set_nonblocking(true).is_err() {
            self.state = ClientState::Disconnected;
            return;
        }
        while self.state == ClientState::Running && self.read_once() {}
        if self.framed.socket().set_nonblocking(false).is_err() {
            self.state = ClientState::Disconnected;
        }
    }

    fn recv(&mut self, party: PartyId) -> Option<Envelope> {
        if party == self.party {
            self.inbox.pop_front()
        } else {
            None
        }
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn in_flight(&self) -> usize {
        self.inbox.len()
    }

    fn is_crashed(&self, party: PartyId) -> bool {
        self.crashed.get(party).copied().unwrap_or(false)
    }

    fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }
}

/// One party's view of a completed socket session.
///
/// Comparable against a [`MultiSetupOutcome`] from the same seeds over
/// [`crate::Network::new`] via [`outcome_matches`] — the byte-
/// identity oracle of the serve soak harness.
#[derive(Debug, Clone, PartialEq)]
pub struct PartyOutcome {
    /// The k-way alignment (identical at every party by construction).
    pub alignment: MultiAlignment,
    /// This party's aligned rows (feature columns only).
    pub aligned_self: Relation,
    /// Every party's metadata as received (own package included).
    pub metadata: Vec<MetadataPackage>,
}

/// `true` when a socket party's outcome is bit-identical to the
/// reference in-process outcome for the same seeds.
pub fn outcome_matches(mine: &PartyOutcome, party: PartyId, reference: &MultiSetupOutcome) -> bool {
    mine.alignment == reference.alignment
        && reference.aligned.get(party) == Some(&mine.aligned_self)
        && mine.metadata == reference.metadata
}

fn abort_error(reason: &AbortReason, at: u64) -> SetupError {
    match reason {
        AbortReason::PeerDisconnected { party } => SetupError::PartyCrashed {
            party: *party as usize,
        },
        AbortReason::HandshakeTimeout | AbortReason::IdleTimeout => SetupError::Stalled { at },
        other => SetupError::Data(RelationError::Io(format!("session aborted: {other}"))),
    }
}

fn disconnect_error(party: PartyId) -> SetupError {
    SetupError::Data(RelationError::Io(format!(
        "party {party}: connection to server lost"
    )))
}

/// Runs one party of one session against an `mpriv serve` daemon at
/// `addr`, driving the same per-party engine the in-process harness
/// runs ([`crate::MultiPartySession::run_setup_over`]).
///
/// Completes with this party's [`PartyOutcome`] (bit-identical to the
/// same seeds over [`crate::Network::new`]) or fails closed with a
/// typed [`SetupError`] mapped from the session's abort reason.
pub fn run_client_session(
    addr: &str,
    cfg: &ClientConfig,
    party: &Party,
    policy: &SharePolicy,
    salt: u64,
    recorder: &dyn Recorder,
) -> std::result::Result<PartyOutcome, SetupError> {
    let digests = party.psi_submission(salt)?;
    let package = party.share_metadata(policy)?;

    let p = cfg.party;
    let n = cfg.n_parties;
    let stream = SocketStream::connect(addr)
        .map_err(|e| SetupError::Data(RelationError::Io(format!("connect {addr}: {e}"))))?;
    let _ = stream.set_read_timeout(Some(cfg.io_tick));
    let _ = stream.set_write_timeout(Some(cfg.io_tick.saturating_mul(512)));
    let mut framed = FramedStream::new(stream);

    // -- Handshake: Hello, then wait for Welcome. ----------------------
    framed
        .write_frame(&SessionFrame::Hello {
            session: cfg.session,
            party: p as u64,
            n_parties: n as u64,
        })
        .map_err(|_| disconnect_error(p))?;
    let mut waited = 0u64;
    loop {
        match framed.read_step() {
            Ok(ReadStep::Frame(SessionFrame::Welcome {
                session,
                party: confirmed,
                n_parties,
            })) => {
                if session != cfg.session || confirmed != p as u64 || n_parties != n as u64 {
                    return Err(SetupError::Data(RelationError::Io(
                        "server welcomed a different membership".to_owned(),
                    )));
                }
                break;
            }
            Ok(ReadStep::Frame(SessionFrame::Abort(reason))) => {
                return Err(abort_error(&reason, 0));
            }
            Ok(ReadStep::Frame(other)) => {
                return Err(SetupError::Data(RelationError::Io(format!(
                    "expected welcome, got {}",
                    other.kind()
                ))));
            }
            Ok(ReadStep::Tick) => {
                waited += 1;
                if waited >= cfg.retry.ladder_ticks().saturating_mul(4) {
                    return Err(SetupError::Stalled { at: 0 });
                }
            }
            Ok(ReadStep::Eof) | Err(_) => return Err(disconnect_error(p)),
        }
    }

    // -- Run the engine over the socket transport. ---------------------
    let mut transport = SocketTransport::new(framed, p, n);
    let mut engine = PartyEngine::new(p, n, digests.into(), Arc::new(package));
    let metrics = EngineMetrics::new(p, recorder);
    let span = recorder.span("protocol.setup");
    let _guard = span.enter();

    // Party-strided message ids: party p draws p+1, p+1+n, p+1+2n, ...
    // — session-unique without coordination, so receiver-side MsgId
    // dedup works exactly as in the shared-counter in-process harness.
    let mut drawn = 0u64;
    let mut fresh_id = move || {
        let id = (p as u64) + 1 + drawn * (n as u64);
        drawn += 1;
        MsgId(id)
    };

    let mut done_sent = false;
    loop {
        engine.pump(&mut transport, &cfg.retry, &mut fresh_id, &metrics)?;
        match &transport.state {
            ClientState::Complete => break,
            ClientState::Aborted(reason) => {
                return Err(abort_error(reason, transport.now));
            }
            ClientState::Disconnected => return Err(disconnect_error(p)),
            ClientState::Running => {}
        }
        if engine.done() && !done_sent {
            done_sent = true;
            if transport
                .framed
                .write_frame(&SessionFrame::Done { party: p as u64 })
                .is_err()
            {
                return Err(disconnect_error(p));
            }
        }
        if transport.now() >= cfg.retry.max_ticks {
            return Err(SetupError::Stalled {
                at: transport.now(),
            });
        }
        transport.tick();
        recorder.set_time(transport.now());
    }

    // -- Assemble this party's outcome from *received* state. ----------
    let stalled = SetupError::Stalled {
        at: transport.now(),
    };
    let views: Vec<&[IdDigest]> = engine.digest_views().ok_or(stalled.clone())?;
    let alignment = MultiAlignment {
        rows: intersect_all(&views),
    };
    let own_rows = alignment.rows.get(p).ok_or(stalled.clone())?;
    let aligned_self = party
        .aligned_rows(own_rows)?
        .project(&party.feature_columns())?;
    let mut metadata = Vec::with_capacity(n);
    for q in 0..n {
        metadata.push(engine.metadata_from(q).cloned().ok_or(stalled.clone())?);
    }
    let _ = transport.framed.socket().shutdown();
    Ok(PartyOutcome {
        alignment,
        aligned_self,
        metadata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_caps_and_tracks_depth() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1));
        assert!(q.try_push(2));
        assert!(!q.try_push(3), "cap enforced");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_wait(), Some(1));
        assert!(q.try_push(3));
    }

    #[test]
    fn bounded_push_times_out_on_full_queue() {
        let q = BoundedQueue::new(1);
        assert!(q.try_push(1));
        // Tiny tick, two attempts: must give up, not block forever.
        assert!(!q.push_bounded(2, Duration::from_millis(1), 2));
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn jump_queue_clears_backlog() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1));
        assert!(q.try_push(2));
        q.jump_queue(9);
        q.close();
        assert_eq!(q.pop_wait(), Some(9));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn pop_wait_returns_an_item_pushed_from_another_thread() {
        let q = Arc::new(BoundedQueue::new(4));
        let (popping_tx, popping_rx) = std::sync::mpsc::channel();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                popping_tx.send(()).unwrap();
                q.pop_wait()
            })
        };
        popping_rx.recv().unwrap();
        assert!(q.try_push(7));
        assert_eq!(popper.join().unwrap(), Some(7), "the push wakes the pop");
    }

    #[test]
    fn close_wakes_a_waiting_pop_at_once() {
        let q = Arc::new(BoundedQueue::<u8>::new(4));
        let (popping_tx, popping_rx) = std::sync::mpsc::channel();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                popping_tx.send(()).unwrap();
                q.pop_wait()
            })
        };
        popping_rx.recv().unwrap();
        q.close();
        assert_eq!(popper.join().unwrap(), None, "closing wakes the pop");
        assert_eq!(q.pop_wait(), None, "closed and empty: no wait");
    }

    #[test]
    fn closed_queue_still_yields_queued_items() {
        let q = BoundedQueue::new(4);
        assert!(q.try_push(1));
        assert!(q.try_push(2));
        q.close();
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.pop_wait(), Some(2));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn close_on_drop_closes_while_unwinding() {
        let q = BoundedQueue::<u8>::new(4);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _close = CloseOnDrop(&q);
            panic!("reader unwinds");
        }));
        assert!(unwound.is_err());
        assert_eq!(q.pop_wait(), None, "the writer would exit, not wait");
    }

    #[test]
    fn serve_config_maps_retry_budgets() {
        let retry = RetryConfig::default();
        let cfg = ServeConfig::from_retry(&retry);
        assert_eq!(cfg.handshake_ticks(), retry.ladder_ticks());
        assert_eq!(cfg.drain_ticks(), retry.ladder_ticks());
        assert_eq!(cfg.idle_ticks(), retry.max_ticks);
        assert_eq!(cfg.push_ticks(), retry.backoff_cap);
    }

    #[test]
    fn abort_reasons_map_to_typed_errors() {
        assert_eq!(
            abort_error(&AbortReason::PeerDisconnected { party: 1 }, 5),
            SetupError::PartyCrashed { party: 1 }
        );
        assert_eq!(
            abort_error(&AbortReason::IdleTimeout, 5),
            SetupError::Stalled { at: 5 }
        );
        assert!(matches!(
            abort_error(&AbortReason::ServerShutdown, 5),
            SetupError::Data(_)
        ));
    }
}
