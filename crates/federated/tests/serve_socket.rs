//! End-to-end tests for `mpriv serve`: real socket sessions must be
//! byte-identical to the same seeds through [`PerfectTransport`], and
//! every injected failure must surface as a typed [`SetupError`].
//!
//! Client/server supervision runs on io ticks, and the tests only ever
//! block on thread joins. The wake-on-frame tests read the wall clock
//! for one thing only: that a session and a shutdown each finish inside
//! one long io tick, which they cannot if any wait runs to its timeout.

use mp_federated::net::{AbortReason, FramedStream, SessionFrame, SocketStream};
use mp_federated::{
    outcome_matches, run_client_session, ClientConfig, MultiPartySession, MultiSetupOutcome, Party,
    PartyOutcome, RetryConfig, ServeConfig, Server, SetupError,
};
use mp_federated::{small_world_session, Envelope, MsgId, Payload};
use mp_metadata::SharePolicy;
use mp_observe::{NoopRecorder, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server() -> Server {
    Server::start(
        "127.0.0.1:0",
        ServeConfig::default(),
        Arc::new(NoopRecorder),
    )
    .expect("bind ephemeral TCP port")
}

/// Runs every party of one session concurrently against `addr`.
fn run_session(
    addr: &str,
    session_id: u64,
    parties: &[Party],
    policies: &[SharePolicy],
    salt: u64,
) -> Vec<Result<PartyOutcome, SetupError>> {
    let n = parties.len();
    run_clients(addr, parties, policies, salt, |p| {
        ClientConfig::new(session_id, p, n, RetryConfig::default())
    })
}

/// Runs every party concurrently against `addr`, party `p` with
/// `config(p)`.
fn run_clients(
    addr: &str,
    parties: &[Party],
    policies: &[SharePolicy],
    salt: u64,
    config: impl Fn(usize) -> ClientConfig,
) -> Vec<Result<PartyOutcome, SetupError>> {
    let handles: Vec<_> = parties
        .iter()
        .zip(policies)
        .enumerate()
        .map(|(p, (party, policy))| {
            let addr = addr.to_owned();
            let party = party.clone();
            let policy = *policy;
            let cfg = config(p);
            std::thread::spawn(move || {
                run_client_session(&addr, &cfg, &party, &policy, salt, &NoopRecorder)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread never panics"))
        .collect()
}

/// The oracle: the same parties/policies/salt through the fault-free
/// in-process harness.
fn reference(parties: &[Party], policies: &[SharePolicy], salt: u64) -> MultiSetupOutcome {
    MultiPartySession::new(parties.to_vec(), salt)
        .run_setup(policies)
        .expect("fault-free reference setup completes")
}

fn fintech_parties(rows: usize, seed: u64) -> Vec<Party> {
    let data = mp_datasets::fintech_scenario(rows, seed);
    vec![
        Party::new("bank", data.bank.relation, 0, data.bank.dependencies).expect("bank party"),
        Party::new(
            "ecommerce",
            data.ecommerce.relation,
            0,
            data.ecommerce.dependencies,
        )
        .expect("ecommerce party"),
    ]
}

#[test]
fn socket_sessions_match_perfect_transport_across_seed_matrix() {
    let server = start_server();
    let addr = server.addr().to_owned();
    let policy_matrix = [
        [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL],
        [SharePolicy::FULL, SharePolicy::FULL],
        [SharePolicy::NAMES_ONLY, SharePolicy::PAPER_RECOMMENDED],
    ];
    let mut session_id = 1u64;
    for data_seed in [42u64, 7, 99] {
        let parties = fintech_parties(40, data_seed);
        for policies in &policy_matrix {
            let salt = 0xF1A7 ^ data_seed;
            let want = reference(&parties, policies, salt);
            let got = run_session(&addr, session_id, &parties, policies, salt);
            session_id += 1;
            for (p, res) in got.iter().enumerate() {
                let outcome = res.as_ref().unwrap_or_else(|e| {
                    panic!("seed {data_seed} party {p}: socket session failed: {e}")
                });
                assert!(
                    outcome_matches(outcome, p, &want),
                    "seed {data_seed} party {p}: socket outcome diverged from PerfectTransport"
                );
            }
        }
    }
    let report = server.shutdown();
    assert_eq!(
        report.sessions_aborted, 0,
        "no session may abort: {report:?}"
    );
    assert_eq!(report.sessions_completed, 9);
}

#[test]
fn three_party_socket_session_matches_reference() {
    let (session, policies) = small_world_session(3).expect("3-party small world");
    let want = session.run_setup(&policies).expect("reference completes");
    let server = start_server();
    let got = run_session(server.addr(), 77, &session.parties, &policies, session.salt);
    for (p, res) in got.iter().enumerate() {
        let outcome = res.as_ref().expect("party completes");
        assert!(outcome_matches(outcome, p, &want), "party {p} diverged");
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 1);
}

#[test]
fn concurrent_sessions_all_match_reference() {
    let registry = Arc::new(Registry::new());
    let server = Server::start("127.0.0.1:0", ServeConfig::default(), registry.clone())
        .expect("bind ephemeral TCP port");
    let addr = server.addr().to_owned();
    let parties = fintech_parties(30, 42);
    let policies = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
    let salt = 0xF1A7;
    let want = reference(&parties, &policies, salt);

    // 8 sessions at once, every party its own thread (16 connections).
    let handles: Vec<_> = (0..8u64)
        .map(|s| {
            let addr = addr.clone();
            let parties = parties.clone();
            std::thread::spawn(move || run_session(&addr, 100 + s, &parties, &policies, salt))
        })
        .collect();
    for h in handles {
        let results = h.join().expect("session thread never panics");
        for (p, res) in results.iter().enumerate() {
            let outcome = res.as_ref().expect("concurrent session completes");
            assert!(outcome_matches(outcome, p, &want), "party {p} diverged");
        }
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 8);
    assert_eq!(report.sessions_aborted, 0);
    assert!(
        report.max_queue_depth <= 64,
        "queue depth must stay bounded: {report:?}"
    );
    // 16 connections opened and closed concurrently: no lost update.
    assert_eq!(
        registry.snapshot().gauges.get("serve.connections"),
        Some(&0),
        "every connection closed, so the live-connection gauge reads 0"
    );
}

#[test]
fn peer_disconnect_surfaces_as_party_crashed() {
    let server = start_server();
    let addr = server.addr().to_owned();
    let parties = fintech_parties(20, 42);

    // Party 1 joins, waits for Welcome, then drops the connection
    // mid-session — a connection-reset fault.
    let crasher = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let stream = SocketStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(2)))
                .expect("timeout");
            let mut framed = FramedStream::new(stream);
            framed
                .write_frame(&SessionFrame::Hello {
                    session: 500,
                    party: 1,
                    n_parties: 2,
                })
                .expect("hello");
            loop {
                if let Ok(mp_federated::net::ReadStep::Frame(SessionFrame::Welcome { .. })) =
                    framed.read_step()
                {
                    break;
                }
            }
            framed.socket().shutdown().expect("reset");
        })
    };

    let cfg = ClientConfig::new(500, 0, 2, RetryConfig::default());
    let result = run_client_session(
        &addr,
        &cfg,
        parties.first().expect("party 0"),
        &SharePolicy::FULL,
        1,
        &NoopRecorder,
    );
    crasher.join().expect("crasher joins");
    assert_eq!(
        result.expect_err("session with a crashed peer must fail"),
        SetupError::PartyCrashed { party: 1 },
        "disconnect must surface as the typed crash error"
    );
    let report = server.shutdown();
    assert_eq!(report.sessions_aborted, 1);
    assert_eq!(report.sessions_completed, 0);
}

#[test]
fn spoofed_sender_aborts_the_session() {
    let server = start_server();
    let addr = server.addr().to_owned();
    let parties = fintech_parties(20, 42);

    // Party 1 joins and then sends an envelope claiming to be party 0.
    let spoofer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let stream = SocketStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(2)))
                .expect("timeout");
            let mut framed = FramedStream::new(stream);
            framed
                .write_frame(&SessionFrame::Hello {
                    session: 600,
                    party: 1,
                    n_parties: 2,
                })
                .expect("hello");
            loop {
                match framed.read_step() {
                    Ok(mp_federated::net::ReadStep::Frame(SessionFrame::Welcome { .. })) => break,
                    Ok(mp_federated::net::ReadStep::Eof) => return None,
                    _ => {}
                }
            }
            framed
                .write_frame(&SessionFrame::Envelope(Envelope {
                    id: MsgId(1),
                    from: 0, // spoofed: this connection joined as party 1
                    to: 0,
                    payload: Payload::Ack(MsgId(1)),
                }))
                .expect("spoofed envelope");
            // Wait for the server's verdict.
            loop {
                match framed.read_step() {
                    Ok(mp_federated::net::ReadStep::Frame(SessionFrame::Abort(reason))) => {
                        return Some(reason);
                    }
                    Ok(mp_federated::net::ReadStep::Eof) => return None,
                    _ => {}
                }
            }
        })
    };

    let cfg = ClientConfig::new(600, 0, 2, RetryConfig::default());
    let result = run_client_session(
        &addr,
        &cfg,
        parties.first().expect("party 0"),
        &SharePolicy::FULL,
        1,
        &NoopRecorder,
    );
    let reason = spoofer.join().expect("spoofer joins");
    assert_eq!(
        reason,
        Some(AbortReason::Spoofed { claimed: 0 }),
        "the spoofer must see the typed abort"
    );
    assert!(
        matches!(result, Err(SetupError::Data(_))),
        "the honest party fails closed with a typed error: {result:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.spoof_rejected, 1);
    assert_eq!(report.sessions_aborted, 1);
}

#[cfg(unix)]
#[test]
fn unix_socket_session_matches_reference() {
    let path = std::env::temp_dir().join(format!("mpriv-serve-test-{}.sock", std::process::id()));
    let addr = format!("unix:{}", path.display());
    let server = Server::start(&addr, ServeConfig::default(), Arc::new(NoopRecorder))
        .expect("bind unix socket");
    let parties = fintech_parties(25, 42);
    let policies = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
    let want = reference(&parties, &policies, 3);
    let got = run_session(server.addr(), 900, &parties, &policies, 3);
    for (p, res) in got.iter().enumerate() {
        let outcome = res.as_ref().expect("unix session completes");
        assert!(outcome_matches(outcome, p, &want), "party {p} diverged");
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 1);
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// One clean two-party session with a 2 s io tick on the relay and on
/// both clients. Every wait on the path must end when its frame arrives:
/// a relay hop or client tick that waited out its timeout would cost
/// the whole tick, and a retransmission would show in the frame counts.
fn session_ends_inside_one_tick(addr: &str) {
    let io_tick = Duration::from_secs(2);
    let cfg = ServeConfig {
        io_tick,
        ..ServeConfig::default()
    };
    let server = Server::start(addr, cfg, Arc::new(NoopRecorder)).expect("bind relay");
    let parties = fintech_parties(40, 42);
    let policies = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
    let want = reference(&parties, &policies, 5);

    // lint: allow(no-wall-clock) reason="the test asserts the session ends inside one io tick; the clock never reaches the relay or the clients"
    let start = Instant::now();
    let got = run_clients(server.addr(), &parties, &policies, 5, |p| ClientConfig {
        io_tick,
        ..ClientConfig::new(1, p, 2, RetryConfig::default())
    });
    let session_time = start.elapsed();
    for (p, res) in got.iter().enumerate() {
        let outcome = res.as_ref().expect("session completes");
        assert!(outcome_matches(outcome, p, &want), "party {p} diverged");
    }
    assert!(
        session_time < io_tick,
        "session took {session_time:?}: some wait ran to its {io_tick:?} timeout"
    );

    // lint: allow(no-wall-clock) reason="the test asserts shutdown ends inside one io tick; the clock never reaches the relay"
    let start = Instant::now();
    let report = server.shutdown();
    let shutdown_time = start.elapsed();
    assert!(
        shutdown_time < io_tick,
        "shutdown took {shutdown_time:?}: teardown waited out a tick"
    );
    assert_eq!(report.sessions_completed, 1);
    assert_eq!(
        (report.frames_in, report.frames_routed),
        (12, 8),
        "exactly one frame per protocol step, no retransmission: {report:?}"
    );
}

#[test]
fn tcp_session_ends_on_arrivals_not_timeouts() {
    session_ends_inside_one_tick("127.0.0.1:0");
}

#[cfg(unix)]
#[test]
fn unix_session_ends_on_arrivals_not_timeouts() {
    let path = std::env::temp_dir().join(format!("mpriv-wake-test-{}.sock", std::process::id()));
    session_ends_inside_one_tick(&format!("unix:{}", path.display()));
    assert!(!path.exists(), "socket file removed on shutdown");
}
