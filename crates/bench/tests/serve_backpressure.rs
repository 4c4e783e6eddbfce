//! Backpressure regression test for `mpriv serve`: one deliberately
//! stalled session must not block, slow down past budget, or corrupt the
//! eight clean sessions sharing the daemon — and the stalled session
//! itself must die with a *typed* error while every queue stays within
//! its bound.

use mp_federated::net::{FramedStream, ReadStep, SessionFrame, SocketStream};
use mp_federated::{
    outcome_matches, run_client_session, ClientConfig, MultiPartySession, Party, RetryConfig,
    ServeConfig, Server, SetupError,
};
use mp_metadata::SharePolicy;
use mp_observe::NoopRecorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SALT: u64 = 0xF1A7;
const POLICIES: [SharePolicy; 2] = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];

fn parties() -> Vec<Party> {
    let data = mp_datasets::fintech_scenario(30, 42);
    vec![
        Party::new("bank", data.bank.relation, 0, data.bank.dependencies).unwrap(),
        Party::new(
            "ecommerce",
            data.ecommerce.relation,
            0,
            data.ecommerce.dependencies,
        )
        .unwrap(),
    ]
}

fn fast_retry() -> RetryConfig {
    RetryConfig {
        ack_timeout: 8,
        max_retries: 3,
        backoff_cap: 16,
        max_ticks: 2_000,
    }
}

/// Party 1 of the stalled session: joins, then never reads or writes
/// again until the server or peer tears the session down.
fn stalled_party(addr: String, session: u64, release: Arc<AtomicBool>) {
    let stream = SocketStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(2)))
        .expect("timeout");
    let mut framed = FramedStream::new(stream);
    framed
        .write_frame(&SessionFrame::Hello {
            session,
            party: 1,
            n_parties: 2,
        })
        .expect("hello");
    loop {
        match framed.read_step() {
            Ok(ReadStep::Frame(SessionFrame::Welcome { .. })) => break,
            Ok(ReadStep::Eof) | Err(_) => return,
            _ => {}
        }
    }
    // Assembled. Now stall: hold the connection open without touching it
    // until the clean sessions have all finished.
    while !release.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // Then drain whatever verdict the server reached.
    loop {
        match framed.read_step() {
            Ok(ReadStep::Frame(SessionFrame::Abort(_))) | Ok(ReadStep::Eof) | Err(_) => return,
            _ => {}
        }
    }
}

#[test]
fn one_stalled_session_never_blocks_eight_clean_ones() {
    let parties = parties();
    let reference = MultiPartySession::new(parties.clone(), SALT)
        .run_setup(&POLICIES)
        .expect("reference setup");
    let retry = fast_retry();
    let cfg = ServeConfig {
        io_tick: Duration::from_millis(1),
        ..ServeConfig::from_retry(&retry)
    };
    let queue_cap = mp_federated::serve::QUEUE_CAP as u64;
    let server = Server::start("127.0.0.1:0", cfg, Arc::new(NoopRecorder)).expect("bind");
    let addr = server.addr().to_owned();

    // Session 1: the stalled one. Its honest party 0 will exhaust
    // retries against a peer that never answers.
    let release = Arc::new(AtomicBool::new(false));
    let staller = {
        let addr = addr.clone();
        let release = Arc::clone(&release);
        std::thread::spawn(move || stalled_party(addr, 1, release))
    };
    let stalled_honest = {
        let addr = addr.clone();
        let party = parties[0].clone();
        std::thread::spawn(move || {
            let cfg = ClientConfig::new(1, 0, 2, fast_retry());
            run_client_session(&addr, &cfg, &party, &POLICIES[0], SALT, &NoopRecorder)
        })
    };

    // Sessions 2..=9: clean, all concurrent with the stall. The budget is
    // the point of the test: with cross-session blocking, these would sit
    // behind the stalled session's supervision timeouts.
    let clean_start = Instant::now();
    let clean: Vec<_> = (2u64..=9)
        .map(|s| {
            let addr = addr.clone();
            let parties = parties.clone();
            std::thread::spawn(move || {
                let handles: Vec<_> = (0..2usize)
                    .map(|p| {
                        let addr = addr.clone();
                        let party = parties[p].clone();
                        std::thread::spawn(move || {
                            let cfg = ClientConfig::new(s, p, 2, fast_retry());
                            run_client_session(
                                &addr,
                                &cfg,
                                &party,
                                &POLICIES[p],
                                SALT,
                                &NoopRecorder,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("party thread"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for h in clean {
        for (p, res) in h.join().expect("session thread").into_iter().enumerate() {
            let outcome = res.expect("clean session must complete despite the stalled one");
            assert!(
                outcome_matches(&outcome, p, &reference),
                "party {p} diverged from the in-process reference"
            );
        }
    }
    let clean_elapsed = clean_start.elapsed();
    // One full retransmission ladder of the *stalled* session, in wall
    // time, is far more than 8 independent clean sessions need — unless
    // they queue behind the stall. Generous to stay robust on slow CI.
    assert!(
        clean_elapsed < Duration::from_secs(20),
        "clean sessions took {clean_elapsed:?}: cross-session blocking"
    );

    // The stalled session must fail with a typed error, not hang.
    let stalled_result = stalled_honest.join().expect("honest party thread");
    release.store(true, Ordering::SeqCst);
    staller.join().expect("staller thread");
    let err = stalled_result.expect_err("stalled session cannot complete");
    assert!(
        matches!(
            err,
            SetupError::RetriesExhausted { .. }
                | SetupError::PartyCrashed { .. }
                | SetupError::Stalled { .. }
                | SetupError::Data(_)
        ),
        "stall must surface as a typed abort, got {err}"
    );

    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 8, "all clean sessions complete");
    assert!(report.sessions_aborted >= 1, "the stalled session aborts");
    assert!(
        report.max_queue_depth <= queue_cap,
        "queue depth {} exceeded cap {queue_cap}",
        report.max_queue_depth
    );
}
